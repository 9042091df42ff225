//! Durable ingestion demo: journal every merged document to a write-ahead
//! log, checkpoint periodically, "crash" by tearing the WAL tail, and
//! recover — printing what survived and what the durability metrics say.
//!
//! ```sh
//! cargo run --release --example durable
//! ```

use nous_core::{IngestPipeline, KnowledgeGraph, PipelineConfig};
use nous_corpus::Preset;
use nous_obs::MetricsRegistry;
use nous_persist::{DurabilityConfig, DurableStore, FsyncPolicy, RetryPolicy};

fn main() -> std::io::Result<()> {
    let dir = std::env::temp_dir().join(format!("nous-durable-demo-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;

    let (world, kb, articles) = Preset::Smoke.build();
    let mut kg = KnowledgeGraph::from_curated(&world, &kb);
    kg.train_predictor();

    let registry = MetricsRegistry::new();
    let mut pipeline = IngestPipeline::with_registry(PipelineConfig::default(), registry.clone());

    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::EveryN(8),
        // The smoke stream admits a few dozen facts: rotate once midway,
        // so recovery reads a checkpoint and replays a WAL tail.
        checkpoint_every_facts: 20,
        keep_generations: 2,
        retry: RetryPolicy::default(),
    };
    let mut store = DurableStore::create(&dir, cfg, &kg, &pipeline.report(), &registry)?;
    pipeline.set_journal(store.journal());

    println!(
        "ingesting {} articles with WAL + checkpoints…",
        articles.len()
    );
    for article in &articles {
        pipeline.ingest(&mut kg, article);
        if store.maybe_checkpoint(&kg, &pipeline.report())? {
            println!(
                "  checkpoint generation {} ({} facts in graph)",
                store.generation(),
                kg.graph.stats().extracted_edges
            );
        }
    }
    let live = pipeline.report();
    println!(
        "live run:      {} vertices, {} edges, {} admitted (generation {}, WAL {} bytes)",
        kg.graph.vertex_count(),
        kg.graph.edge_count(),
        live.admitted,
        store.generation(),
        store.wal_len()
    );

    // Crash: drop everything and tear the last bytes off the WAL, as if the
    // process died mid-append.
    let wal_file = store.wal_path();
    drop(store);
    drop(pipeline);
    let bytes = std::fs::read(&wal_file)?;
    let torn = bytes.len().min(5);
    std::fs::write(&wal_file, &bytes[..bytes.len() - torn])?;
    println!(
        "simulated crash: tore {torn} bytes off {}",
        wal_file.display()
    );

    let recovery_registry = MetricsRegistry::new();
    let (store, recovered) = DurableStore::open(&dir, cfg, &recovery_registry)?;
    println!(
        "recovered:     {} vertices, {} edges, {} admitted (checkpoint generation {})",
        recovered.kg.graph.vertex_count(),
        recovered.kg.graph.edge_count(),
        recovered.report.admitted,
        recovered.generation
    );
    println!(
        "replay:        {} documents / {} facts from the WAL tail, {} torn bytes discarded",
        recovered.replayed_docs, recovered.replayed_facts, recovered.truncated_bytes
    );
    if let (Some(g), Some(off)) = (recovered.torn_generation, recovered.torn_offset) {
        println!("torn frontier: wal-{g:08}.log at offset {off}");
    }
    // The live run's counters are on its own registry; recovery counts on
    // a fresh one.
    println!(
        "durability counters: wal_appends={:?} checkpoints={:?} recovery_replayed={:?}",
        registry.counter_value("nous_wal_appends_total", &[]),
        registry.counter_value("nous_checkpoints_total", &[]),
        recovery_registry.counter_value("nous_recovery_replayed_total", &[]),
    );
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
