//! One compactor thread per session, for the life of the session.
//!
//! However many folds a session runs, exactly one `nous-compactor` thread
//! exists while it lives, and none is left once its last handle is
//! dropped. The count is read from `/proc/self/task/*/comm`, this test
//! process's own threads, so this binary holds this one test and no
//! other session may be alive beside it.
#![cfg(target_os = "linux")]

use nous_core::{
    CompactionConfig, IngestPipeline, KnowledgeGraph, PipelineConfig, SharedSession, TrendMonitor,
};
use nous_corpus::{ArticleStream, CuratedKb, Preset, World};
use nous_mining::{EvictionStrategy, MinerConfig};
use nous_qa::TopicIndex;
use std::time::{Duration, Instant};

/// Threads of this process named `nous-compactor`.
fn compactor_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .filter(|task| {
            let comm = std::fs::read_to_string(task.as_ref().unwrap().path().join("comm"));
            comm.is_ok_and(|name| name.trim_end() == "nous-compactor")
        })
        .count()
}

#[test]
fn one_compactor_thread_runs_every_fold_and_exits_with_the_session() {
    let world = World::generate(&Preset::Smoke.world_config());
    let kb = CuratedKb::generate(&world, 7);
    let mut kg = KnowledgeGraph::from_curated(&world, &kb);
    kg.train_predictor();
    let articles = ArticleStream::generate(&world, &kb, &Preset::Smoke.stream_config());
    let trends = TrendMonitor::new(
        nous_graph::window::WindowKind::Count { n: 100 },
        MinerConfig {
            k_max: 1,
            min_support: 2,
            eviction: EvictionStrategy::Eager,
        },
    );
    let session = SharedSession::new(kg, TopicIndex::new(2), trends);
    session.set_compaction_config(CompactionConfig {
        max_layers: 2,
        min_delta_edges: usize::MAX,
        ..Default::default()
    });
    let compactions = || {
        session
            .metrics()
            .counter_value("nous_compactions_total", &[])
            .unwrap_or(0)
    };

    let mut pipe = IngestPipeline::new(PipelineConfig {
        batch_size: 1,
        ..Default::default()
    });
    for article in articles.chunks(1) {
        session.ingest_batch(&mut pipe, article);
        assert_eq!(compactor_threads(), 1);
        if compactions() >= 5 {
            break;
        }
    }
    assert!(
        compactions() >= 5,
        "only {} folds over {} documents",
        compactions(),
        articles.len()
    );
    assert_eq!(compactor_threads(), 1);

    drop(session);
    let deadline = Instant::now() + Duration::from_secs(10);
    while compactor_threads() > 0 {
        assert!(
            Instant::now() < deadline,
            "the compactor outlived its session"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
