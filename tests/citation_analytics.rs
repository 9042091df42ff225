//! Integration test for the paper's third domain (§3.1): citation
//! analytics. The seminal-paper burst must be visible to the streaming
//! miner as a rising co-citation pattern, and the citation chain must be
//! explainable by path search.

use nous_core::{KnowledgeGraph, TrendMonitor};
use nous_corpus::citations::{self, CitationConfig, CitePredicate};
use nous_graph::window::WindowKind;
use nous_graph::{GraphView, LayeredSnapshot};
use nous_mining::{EvictionStrategy, MinerConfig};
use nous_qa::baselines::shortest_paths_with_stats;
use nous_qa::{PathConstraint, QaConfig};
use nous_text::ner::EntityType;

fn build() -> (KnowledgeGraph, citations::CitationScenario, Vec<(u64, u32)>) {
    let cfg = CitationConfig::default();
    let scenario = citations::generate(&cfg);
    let mut kg = KnowledgeGraph::new();
    for e in &scenario.entities {
        let v = kg.create_entity(&e.name, EntityType::Other);
        kg.graph.set_label(v, e.label);
    }
    let mut monitor = TrendMonitor::new(
        WindowKind::Time { span: 400 },
        MinerConfig {
            k_max: 2,
            min_support: 10,
            eviction: EvictionStrategy::Eager,
        },
    );
    // Per-year support of the co-citation pattern (two papers citing the
    // same paper / one paper citing two).
    let mut per_year = Vec::new();
    let mut next = 365u64;
    for f in &scenario.facts {
        let s = kg.graph.vertex_id(&f.subject).unwrap();
        let o = kg.graph.vertex_id(&f.object).unwrap();
        kg.add_extracted_fact(s, f.predicate.name(), o, f.day, 1.0, f.day);
        monitor.observe(&kg);
        monitor.advance_to(&kg, f.day);
        if f.day >= next {
            let cocite = monitor
                .trending(&kg)
                .iter()
                .filter(|t| t.description.matches("cites").count() >= 2)
                .map(|t| t.support)
                .max()
                .unwrap_or(0);
            per_year.push((f.day / 365, cocite));
            next += 365;
        }
    }
    (kg, scenario, per_year)
}

#[test]
fn burst_year_dominates_co_citation_support() {
    let (_, _, per_year) = build();
    let last = per_year.last().expect("epochs recorded");
    // Year 1 naturally concentrates citations (tiny paper pool), so the
    // meaningful baseline is the settled pre-burst period (years 2–3).
    let before_burst: u32 = per_year
        .iter()
        .filter(|(y, _)| (2..=3).contains(y))
        .map(|(_, s)| *s)
        .max()
        .unwrap_or(0);
    assert!(
        before_burst > 0,
        "pre-burst co-citation exists: {per_year:?}"
    );
    assert!(
        last.1 > before_burst * 2,
        "co-citation support must surge after the seminal paper: {per_year:?}"
    );
}

#[test]
fn seminal_paper_is_the_most_cited() {
    let (kg, scenario, _) = build();
    let cites = kg.graph.predicate_id(CitePredicate::Cites.name()).unwrap();
    let view = LayeredSnapshot::freeze(&kg.graph);
    let mut best = (String::new(), 0usize);
    for v in kg.graph.iter_vertices() {
        if kg.graph.label(v) != Some("Paper") {
            continue;
        }
        let mut n = 0;
        view.for_each_in(v, |a| n += usize::from(a.pred == cites));
        if n > best.1 {
            best = (kg.graph.vertex_name(v).to_owned(), n);
        }
    }
    assert_eq!(
        best.0, scenario.seminal,
        "most-cited paper is the planted seminal one"
    );
}

#[test]
fn citation_chains_are_searchable() {
    let (kg, scenario, _) = build();
    let last = scenario.burst_papers.last().expect("burst papers");
    let src = kg.graph.vertex_id(last).unwrap();
    let dst = kg.graph.vertex_id(&scenario.seminal).unwrap();
    let paths = shortest_paths_with_stats(
        &LayeredSnapshot::freeze(&kg.graph),
        src,
        dst,
        &PathConstraint {
            require_predicate: kg.graph.predicate_id("cites"),
        },
        &QaConfig {
            max_hops: 3,
            k: 3,
            ..Default::default()
        },
    )
    .0;
    assert!(
        !paths.is_empty(),
        "burst papers connect to the seminal paper via citations"
    );
    assert!(paths[0].hops.iter().all(|h| {
        let name = kg.graph.predicate_name(h.pred);
        name == "cites" || name == "authoredBy" || name == "publishedIn"
    }));
}
