//! Citation analytics (§3.1 domain 3): trend discovery and explanatory
//! questions over a bibliography knowledge graph — the third domain the
//! paper lists, again with no NLP stage, just a different structured
//! adapter feeding the same framework.
//!
//! ```sh
//! cargo run --release --example citations
//! ```

use nous_core::{KnowledgeGraph, TrendMonitor};
use nous_corpus::citations::{self, CitationConfig, CitePredicate};
use nous_graph::window::WindowKind;
use nous_graph::{GraphView, LayeredSnapshot};
use nous_mining::{EvictionStrategy, MinerConfig};
use nous_qa::{coherent_paths_with_stats, PathConstraint, QaConfig, TopicIndex};
use nous_text::ner::EntityType;

fn main() {
    let cfg = CitationConfig::default();
    let scenario = citations::generate(&cfg);
    println!(
        "bibliography: {} entities, {} facts over {} years; seminal paper appears in year {}",
        scenario.entities.len(),
        scenario.facts.len(),
        cfg.years,
        2010 + cfg.burst_year
    );

    // Direct structured ingestion, as in the insider-threat domain.
    let mut kg = KnowledgeGraph::new();
    let mut topics = TopicIndex::new(nous_corpus::vocab::Topic::ALL.len());
    for e in &scenario.entities {
        let v = kg.create_entity(&e.name, EntityType::Other);
        kg.graph.set_label(v, e.label);
        // Papers carry their field as a crisp topic distribution.
        let mut dist = vec![0.02; nous_corpus::vocab::Topic::ALL.len()];
        let idx = nous_corpus::vocab::Topic::ALL
            .iter()
            .position(|t| *t == e.topic)
            .unwrap();
        dist[idx] = 1.0;
        topics.set(v, dist);
    }
    let mut monitor = TrendMonitor::new(
        WindowKind::Time { span: 400 },
        MinerConfig {
            k_max: 2,
            min_support: 10,
            eviction: EvictionStrategy::Eager,
        },
    );

    println!("\nyear  window  top citation patterns");
    println!("----  ------  ---------------------");
    let mut next_epoch = 365u64;
    for f in &scenario.facts {
        let s = kg.graph.vertex_id(&f.subject).expect("entity exists");
        let o = kg.graph.vertex_id(&f.object).expect("entity exists");
        kg.add_extracted_fact(s, f.predicate.name(), o, f.day, 1.0, f.day);
        monitor.observe(&kg);
        monitor.advance_to(&kg, f.day);
        if f.day >= next_epoch {
            let mut trends: Vec<_> = monitor
                .trending(&kg)
                .into_iter()
                .filter(|t| t.description.contains("cites"))
                .collect();
            trends.truncate(2);
            println!(
                "{:4}  {:6}  {}",
                2010 + f.day / 365,
                monitor.window_len(),
                if trends.is_empty() {
                    "(none)".to_owned()
                } else {
                    trends
                        .iter()
                        .map(|t| format!("{} ×{}", t.description, t.support))
                        .collect::<Vec<_>>()
                        .join(" | ")
                }
            );
            next_epoch += 365;
        }
    }

    // Who cites the seminal paper?
    let view = LayeredSnapshot::freeze(&kg.graph);
    let seminal_v = kg.graph.vertex_id(&scenario.seminal).unwrap();
    let cites = kg.graph.predicate_id(CitePredicate::Cites.name()).unwrap();
    let mut in_citations = 0;
    view.for_each_in(seminal_v, |a| in_citations += usize::from(a.pred == cites));
    println!(
        "\nseminal paper {} accumulated {} citations (burst cluster: {} papers)",
        scenario.seminal,
        in_citations,
        scenario.burst_papers.len()
    );

    // Explain how a late burst paper relates to the seminal one.
    if let Some(last) = scenario.burst_papers.last() {
        let src = kg.graph.vertex_id(last).unwrap();
        let paths = coherent_paths_with_stats(
            &view,
            &topics,
            src,
            seminal_v,
            &PathConstraint::default(),
            &QaConfig {
                max_hops: 3,
                k: 3,
                ..Default::default()
            },
        )
        .0;
        println!("\nwhy is {last} related to {}?", scenario.seminal);
        for p in paths {
            println!("  [{:.4}] {}", p.score, p.render(&view));
        }
    }
}
