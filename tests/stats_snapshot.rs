//! Determinism pin for the telemetry surface: the same fixed-seed corpus
//! driven through the same session twice, under the injectable test
//! clock, must produce byte-identical `/stats` snapshots. Wall time is
//! the only nondeterministic input the registry sees, and the manual
//! clock removes it — everything else (counters, gauges, histogram
//! bucket placement, series ordering) is pinned by construction.

use nous_core::{IngestPipeline, KnowledgeGraph, PipelineConfig, SharedSession, TrendMonitor};
use nous_corpus::{ArticleStream, CuratedKb, Preset, World};
use nous_graph::window::WindowKind;
use nous_mining::{EvictionStrategy, MinerConfig};
use nous_obs::{ManualClock, MetricsRegistry};
use nous_qa::TopicIndex;
use nous_query::{execute_shared, parse};

/// One full run: build the session from scratch, ingest the smoke corpus
/// through the micro-batched path, feed the miner, run one query per
/// class, and return the JSON snapshot plus the Prometheus exposition.
fn run_once() -> (String, String) {
    let world = World::generate(&Preset::Smoke.world_config());
    let kb = CuratedKb::generate(&world, 7);
    let mut kg = KnowledgeGraph::from_curated(&world, &kb);
    kg.train_predictor();
    let articles = ArticleStream::generate(&world, &kb, &Preset::Smoke.stream_config());
    let a = world.entities[world.companies[0]].name.clone();
    let b = world.entities[world.companies[1]].name.clone();

    let clock = ManualClock::shared();
    clock.advance(1); // nonzero epoch, still identical across runs
    let registry = MetricsRegistry::with_clock(clock.clone());
    let session = SharedSession::with_registry(
        kg,
        TopicIndex::new(2),
        TrendMonitor::new(
            WindowKind::Count { n: 200 },
            MinerConfig {
                k_max: 2,
                min_support: 3,
                eviction: EvictionStrategy::Eager,
            },
        ),
        registry.clone(),
    );
    let mut pipeline = IngestPipeline::with_registry(
        PipelineConfig {
            batch_size: 8,
            extract_workers: 2,
            ..Default::default()
        },
        registry.clone(),
    );
    let report = session.ingest_batch(&mut pipeline, &articles);
    assert_eq!(report.documents, articles.len());
    assert!(report.admitted > 0);

    session.with_trends(|trends, kg| {
        trends.observe(kg);
    });
    for q in [
        "TRENDING LIMIT 5".to_owned(),
        format!("tell me about {a}"),
        format!("WHY {a} -> {b} LIMIT 3"),
        "MATCH (Organization)-[acquired]->(Organization) LIMIT 3".to_owned(),
        format!("TIMELINE {a} LIMIT 5"),
        format!("PATHS {a} TO {b} MAX 3"),
    ] {
        execute_shared(&session, &parse(&q).expect("query parses"));
    }
    (
        session.stats_snapshot(),
        session.metrics().render_prometheus(),
    )
}

#[test]
fn stats_snapshot_is_byte_identical_across_runs() {
    let (snap1, prom1) = run_once();
    let (snap2, prom2) = run_once();
    assert_eq!(snap1, snap2, "JSON snapshot must be deterministic");
    assert_eq!(prom1, prom2, "Prometheus exposition must be deterministic");
}

#[test]
fn exposition_covers_every_instrumented_subsystem() {
    let (snap, prom) = run_once();
    // Stage histograms for ingest, query execution, path search, and the
    // streaming miner — the acceptance surface of the telemetry layer.
    for series in [
        "nous_ingest_stage_seconds",
        "nous_query_seconds",
        "nous_qa_path_seconds",
        "nous_miner_window_advance_seconds",
        "nous_session_lock_hold_seconds",
        // The two work counters of the ingest path: what publication
        // copied of the resolver, what mapper expansion looked at.
        "nous_resolver_copied_elements_total",
        "nous_mapper_expansion_visited_total",
    ] {
        assert!(prom.contains(series), "missing {series} in exposition");
        assert!(snap.contains(series), "missing {series} in snapshot");
    }
    // Counter sanity: ingest volume and per-class query counts made it in.
    assert!(prom.contains("nous_ingest_documents_total"));
    assert!(prom.contains("nous_query_total{class=\"why\"} 1"), "{prom}");
    assert!(prom.contains("nous_query_total{class=\"paths\"} 1"));
}

/// One graph, one surface: no per-shard series, byte-identical between
/// runs.
#[test]
fn one_shard_mode_is_byte_identical_to_the_unsharded_surface() {
    let (snap, prom) = run_once();
    assert!(
        !snap.contains("nous_shard"),
        "snapshot must carry no per-shard series: {snap}"
    );
    assert!(
        !prom.contains("nous_shard"),
        "exposition must carry no per-shard series"
    );
    let (snap0, prom0) = run_once();
    assert_eq!(snap, snap0, "JSON snapshot must be deterministic");
    assert_eq!(prom, prom0, "Prometheus exposition must be deterministic");
}
