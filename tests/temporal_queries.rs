//! Temporal query integration: the dynamic KG's time axis is queryable —
//! `MATCH … SINCE/UNTIL` scopes pattern matches to stream windows, and the
//! planted acquisition wave (days 1100–1500) is visible through them.

use nous_core::{IngestPipeline, KnowledgeGraph, PipelineConfig, TrendMonitor};
use nous_corpus::Preset;
use nous_graph::window::WindowKind;
use nous_graph::LayeredSnapshot;
use nous_mining::{EvictionStrategy, MinerConfig};
use nous_qa::TopicIndex;
use nous_query::{execute, parse, QueryOptions, QueryResult};

fn built() -> (KnowledgeGraph, TopicIndex, TrendMonitor) {
    let (world, kb, articles) = Preset::Demo.build();
    let mut kg = KnowledgeGraph::from_curated(&world, &kb);
    kg.train_predictor();
    IngestPipeline::new(PipelineConfig::default()).ingest_all(&mut kg, &articles);
    let topics = TopicIndex::new(2); // temporal queries don't need topics
    let mut trends = TrendMonitor::new(
        WindowKind::Count { n: 100 },
        MinerConfig {
            k_max: 1,
            min_support: 2,
            eviction: EvictionStrategy::Eager,
        },
    );
    trends.observe(&kg);
    (kg, topics, trends)
}

/// Run `q` on a fresh snapshot of the graph with no options.
fn run(
    kg: &KnowledgeGraph,
    topics: &TopicIndex,
    trends: &mut TrendMonitor,
    q: &str,
) -> QueryResult {
    let resolver = kg.disambiguator.served();
    let opts = QueryOptions::default();
    let q = parse(q).expect("valid query");
    let view = LayeredSnapshot::freeze(&kg.graph);
    execute(&q, &view, resolver, topics, Some(trends), &opts).result
}

fn matches(kg: &KnowledgeGraph, topics: &TopicIndex, trends: &mut TrendMonitor, q: &str) -> usize {
    match run(kg, topics, trends, q) {
        QueryResult::Matches { total, .. } => total,
        other => panic!("expected Matches for {q}: {other:?}"),
    }
}

#[test]
fn acquisition_wave_is_visible_through_since_until() {
    let (kg, topics, mut trends) = built();
    let in_wave = matches(
        &kg,
        &topics,
        &mut trends,
        "MATCH (*)-[acquired]->(*) SINCE 1100 UNTIL 1500",
    );
    let before = matches(
        &kg,
        &topics,
        &mut trends,
        "MATCH (*)-[acquired]->(*) SINCE 400 UNTIL 800",
    );
    // Equal-length windows; the wave window must hold clearly more
    // admitted acquisition facts.
    assert!(
        in_wave as f64 > before as f64 * 1.5,
        "wave window {in_wave} vs quiet window {before}"
    );
}

#[test]
fn temporal_windows_partition_the_stream() {
    let (kg, topics, mut trends) = built();
    let total = matches(&kg, &topics, &mut trends, "MATCH (*)-[investedIn]->(*)");
    let a = matches(
        &kg,
        &topics,
        &mut trends,
        "MATCH (*)-[investedIn]->(*) UNTIL 1000",
    );
    let b = matches(
        &kg,
        &topics,
        &mut trends,
        "MATCH (*)-[investedIn]->(*) SINCE 1001",
    );
    assert_eq!(a + b, total, "disjoint windows partition the matches");
    assert!(total > 0);
}

#[test]
fn curated_facts_sit_at_time_zero() {
    let (kg, topics, mut trends) = built();
    let at_zero = matches(
        &kg,
        &topics,
        &mut trends,
        "MATCH (*)-[isLocatedIn]->(*) UNTIL 0",
    );
    // Every curated HQ fact is timestamped 0; extracted corroborations are
    // later.
    assert!(at_zero >= 24, "curated block missing: {at_zero}");
    let later = matches(
        &kg,
        &topics,
        &mut trends,
        "MATCH (*)-[isLocatedIn]->(*) SINCE 1",
    );
    let total = matches(&kg, &topics, &mut trends, "MATCH (*)-[isLocatedIn]->(*)");
    assert_eq!(at_zero + later, total);
}

#[test]
fn timeline_query_orders_entity_history() {
    let (kg, topics, mut trends) = built();
    // Pick an entity with extracted (dated) facts.
    let name = kg
        .graph
        .iter_edges()
        .find(|(_, e)| !e.provenance.is_curated())
        .map(|(_, e)| kg.graph.vertex_name(e.src).to_owned())
        .expect("some extracted fact");
    let r = run(
        &kg,
        &topics,
        &mut trends,
        &format!("TIMELINE {name} LIMIT 50"),
    );
    let QueryResult::Timeline(items) = r else {
        panic!("{r:?}")
    };
    assert!(!items.is_empty());
    assert!(items.windows(2).all(|w| w[0].0 <= w[1].0), "chronological");
}
