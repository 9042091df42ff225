//! Per-document ingest work is flat in the size of the graph — as a
//! *count*, so the check is exact and repeatable where a timing is not.
//!
//! Two things on the admit/publish path used to grow with everything
//! ingested so far: publishing a snapshot deep-copied the disambiguator
//! with every entity's context bag (which grows with every admitted
//! fact), and every mapper expansion rebuilt its known pairs from all
//! edges and recounted all stashed triples. Publishing now copies the
//! context-free resolver's popularity values, and its name and alias
//! tables only after a mint: proportional to the entities, not to the
//! facts — and expansion costs what arrived since the last time. Both count their work on the shared
//! registry (so `/stats` shows it). Over a 4 000-document stream the last
//! quarter's work must be within 1.25× of the first quarter's.

use nous_core::{IngestPipeline, KnowledgeGraph, PipelineConfig, SharedSession, TrendMonitor};
use nous_corpus::{ArticleStream, CuratedKb, Preset, StreamConfig, World};
use nous_mining::{EvictionStrategy, MinerConfig};
use nous_obs::MetricsRegistry;
use nous_qa::TopicIndex;

const COPIED: &str = "nous_resolver_copied_elements_total";
const VISITED: &str = "nous_mapper_expansion_visited_total";

#[test]
fn last_quarter_of_a_4k_stream_does_no_more_work_than_the_first() {
    let world = World::generate(&Preset::Large.world_config());
    let kb = CuratedKb::generate(&world, 7);
    let mut kg = KnowledgeGraph::from_curated(&world, &kb);
    kg.train_predictor();
    let articles = ArticleStream::generate(
        &world,
        &kb,
        &StreamConfig {
            articles: 4_000,
            ..Preset::Large.stream_config()
        },
    );
    let registry = MetricsRegistry::new();
    let session = SharedSession::with_registry(
        kg,
        TopicIndex::new(2),
        TrendMonitor::new(
            nous_graph::window::WindowKind::Count { n: 100 },
            MinerConfig {
                k_max: 1,
                min_support: 2,
                eviction: EvictionStrategy::Eager,
            },
        ),
        registry.clone(),
    );
    let mut pipe = IngestPipeline::with_registry(
        PipelineConfig {
            batch_size: 16,
            extract_workers: 1,
            ..Default::default()
        },
        registry.clone(),
    );

    let read = |name| registry.counter_value(name, &[]).expect("registered");
    let mut at_quarter = vec![(0, 0)];
    for quarter in articles.chunks(articles.len() / 4) {
        session.ingest_batch(&mut pipe, quarter);
        at_quarter.push((read(COPIED), read(VISITED)));
    }
    let during = |q: usize| {
        let ((c0, v0), (c1, v1)) = (at_quarter[q - 1], at_quarter[q]);
        (c1 - c0, v1 - v0)
    };
    let (first, last) = (during(1), during(4));
    let edges = session.read(|kg, _| kg.graph.edge_count());
    let stashed = session.read(|kg, _| kg.pending_raw_count());
    println!(
        "copied/visited per quarter: {:?}",
        (1..=4).map(during).collect::<Vec<_>>()
    );
    let entities = session.read(|kg, _| kg.disambiguator.len());
    println!("graph at the end: {entities} entities, {edges} edges, {stashed} stashed triples");

    assert!(first.0 > 0 && first.1 > 0, "both counters count: {first:?}");
    assert!(
        last.0 * 4 <= first.0 * 5,
        "publishes copied {} resolver elements in the last quarter, {} in the first",
        last.0,
        first.0
    );
    assert!(
        last.1 * 4 <= first.1 * 5,
        "expansion visited {} in the last quarter, {} in the first",
        last.1,
        first.1
    );
    // What the deleted code would have visited in the last quarter alone:
    // all edges and all stashed triples, at each of its expansions.
    let expansions = (articles.len() / 4 / PipelineConfig::default().expand_mapper_every) as u64;
    assert!(last.1 * 10 < expansions * (edges + stashed) as u64);
}
