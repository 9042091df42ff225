//! End-to-end crash-recovery: ingest under load with a WAL + baseline
//! checkpoint, tear the WAL at fuzzed byte offsets, recover, and check the
//! restored graph, ingest report and link predictor against a reference
//! run prefix.

use std::path::{Path, PathBuf};

use nous_core::{IngestPipeline, IngestReport, KnowledgeGraph, PipelineConfig};
use nous_corpus::{Article, ArticleStream, CuratedKb, Preset, World};
use nous_obs::MetricsRegistry;
use nous_persist::{DurabilityConfig, DurableStore, FsyncPolicy, RetryPolicy};

fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("nous-crash-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn smoke() -> (KnowledgeGraph, Vec<Article>) {
    let world = World::generate(&Preset::Smoke.world_config());
    let kb = CuratedKb::generate(&world, 7);
    let mut kg = KnowledgeGraph::from_curated(&world, &kb);
    kg.train_predictor();
    let articles = ArticleStream::generate(&world, &kb, &Preset::Smoke.stream_config());
    (kg, articles)
}

/// Everything the recovered state must reproduce exactly.
#[derive(Clone, Debug, PartialEq)]
struct Probe {
    vertices: usize,
    edges: usize,
    extracted_edges: usize,
    report: IngestReport,
    /// FNV-1a over which predicates have a model, and each model's score
    /// bits at every `(s, o)`.
    predictor: u64,
}

fn probe(kg: &KnowledgeGraph, report: &IngestReport) -> Probe {
    let n = kg.graph.vertex_count() as u32;
    let mut scores = Vec::new();
    for (_, p) in kg.graph.iter_predicates() {
        scores.push(u8::from(kg.predictor().has_model(p)));
        if !kg.predictor().has_model(p) {
            continue;
        }
        for s in 0..n {
            for o in 0..n {
                let x = kg.predictor().score(p, s, o);
                scores.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
    }
    Probe {
        vertices: kg.graph.vertex_count(),
        edges: kg.graph.edge_count(),
        extracted_edges: kg.graph.stats().extracted_edges,
        report: report.clone(),
        predictor: nous_graph::codec::fnv1a64(&scores),
    }
}

fn copy_dir(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

#[test]
fn torn_wal_recovers_to_reference_prefix() {
    let (mut kg, articles) = smoke();
    assert!(articles.len() >= 8, "smoke stream too small for this test");

    let registry = MetricsRegistry::new();
    let mut pipe = IngestPipeline::with_registry(PipelineConfig::default(), registry.clone());

    // Some history before durability is switched on — the baseline
    // checkpoint must capture a graph that already diverged from curated.
    let warmup = 3;
    for a in &articles[..warmup] {
        pipe.ingest(&mut kg, a);
    }

    let dir = scratch("ref");
    let store = DurableStore::create(
        &dir,
        DurabilityConfig {
            fsync: FsyncPolicy::Never,
            checkpoint_every_facts: 0, // keep one WAL generation for fuzzing
            keep_generations: 2,
            retry: RetryPolicy::default(),
        },
        &kg,
        &pipe.report(),
        &registry,
    )
    .unwrap();
    pipe.set_journal(store.journal());

    // Reference run: state after each journaled document, and the WAL byte
    // offset where that document's record ends.
    let mut states = vec![probe(&kg, &pipe.report())];
    let mut ends = vec![0u64];
    for a in &articles[warmup..] {
        pipe.ingest(&mut kg, a);
        states.push(probe(&kg, &pipe.report()));
        ends.push(store.wal_len());
    }
    let wal_file = store.wal_path();
    drop(store); // crash: nothing checkpointed since the baseline

    let wal_bytes = std::fs::read(&wal_file).unwrap();
    assert_eq!(*ends.last().unwrap(), wal_bytes.len() as u64);
    assert!(states.len() > 4, "need several journaled documents");

    // Cut points: every record boundary (clean crash between documents)
    // plus fuzzed interior offsets (torn mid-record writes).
    let mut cuts: Vec<u64> = ends.clone();
    let mut x = 0x9e37_79b9_7f4a_7c15u64; // fixed-seed xorshift
    for _ in 0..12 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        cuts.push(x % (wal_bytes.len() as u64 + 1));
    }

    for (case, cut) in cuts.iter().enumerate() {
        let case_dir = scratch(&format!("cut{case}"));
        copy_dir(&dir, &case_dir);
        let case_wal = case_dir.join(wal_file.file_name().unwrap());
        std::fs::write(&case_wal, &wal_bytes[..*cut as usize]).unwrap();

        let reg = MetricsRegistry::new();
        let (store, rec) = DurableStore::open(&case_dir, DurabilityConfig::default(), &reg)
            .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));

        // A cut strictly inside record i+1 must replay exactly records
        // 0..=i: surviving-prefix semantics, no partial documents.
        let survivors = ends[1..].iter().filter(|&&e| e <= *cut).count();
        assert_eq!(
            rec.replayed_docs as usize, survivors,
            "cut {cut}: wrong number of documents replayed"
        );
        let want = &states[survivors];
        let got = probe(&rec.kg, &rec.report);
        assert_eq!(&got, want, "cut {cut}: recovered state diverges");
        let torn = cut - ends[survivors];
        assert_eq!(rec.truncated_bytes, torn, "cut {cut}: torn-byte accounting");

        // Durability shows up on the /stats surface.
        assert_eq!(
            reg.counter_value("nous_recovery_replayed_total", &[]),
            Some(rec.replayed_facts)
        );
        assert_eq!(
            reg.counter_value("nous_recovery_truncated_bytes_total", &[]),
            Some(torn)
        );
        let snap = reg.snapshot_json();
        assert!(snap.contains("\"nous_recovery_replayed_total\""));
        assert!(snap.contains("\"nous_checkpoints_total\""));
        drop(store);
    }
}

#[test]
fn corrupt_newest_checkpoint_falls_back_a_generation_and_chains_wals() {
    let (mut kg, articles) = smoke();
    assert!(articles.len() >= 6, "smoke stream too small for this test");
    let registry = MetricsRegistry::new();
    let mut pipe = IngestPipeline::with_registry(PipelineConfig::default(), registry.clone());

    let dir = scratch("fallback");
    let mut store = DurableStore::create(
        &dir,
        DurabilityConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_every_facts: 0, // rotate generations by hand
            keep_generations: 2,       // the gen-0 checkpoint + WAL survive
            retry: RetryPolicy::default(),
        },
        &kg,
        &pipe.report(),
        &registry,
    )
    .unwrap();
    pipe.set_journal(store.journal());

    // Generation 0: three documents, then a checkpoint rotates to gen 1.
    for a in &articles[..3] {
        pipe.ingest(&mut kg, a);
    }
    let gen = store.checkpoint(&kg, &pipe.report()).unwrap();
    assert_eq!(gen, 1);

    // Generation 1: three more documents land in wal-1 only.
    for a in &articles[3..6] {
        pipe.ingest(&mut kg, a);
    }
    let want = probe(&kg, &pipe.report());
    drop(store); // crash
    drop(pipe);

    // Corrupt the newest checkpoint so its decode fails mid-stream.
    let ckpt1 = dir.join("checkpoint-00000001.bin");
    let bytes = std::fs::read(&ckpt1).unwrap();
    assert!(bytes.len() > 8);
    std::fs::write(&ckpt1, &bytes[..bytes.len() / 2]).unwrap();

    // Recovery must fall back to the generation-0 checkpoint, replay the
    // full gen-0 WAL, then chain into the longer-lived gen-1 WAL — all
    // six documents come back and the state matches the reference run.
    let reg = MetricsRegistry::new();
    let (store, rec) = DurableStore::open(&dir, DurabilityConfig::default(), &reg)
        .expect("fallback recovery must succeed");
    assert_eq!(rec.generation, 0, "restored checkpoint is the previous gen");
    assert_eq!(rec.chained_generations, 1, "gen-1 WAL chained in");
    assert_eq!(rec.replayed_docs, 6, "both WAL generations replayed");
    assert_eq!(
        probe(&rec.kg, &rec.report),
        want,
        "recovered state diverges"
    );
    assert_eq!(
        reg.counter_value("nous_recovery_chained_generations_total", &[]),
        Some(1)
    );
    // The store resumes on the live generation, not the fallback one.
    assert_eq!(store.generation(), 1);
}

#[test]
fn recovered_store_continues_ingesting_and_checkpointing() {
    let (mut kg, articles) = smoke();
    let registry = MetricsRegistry::new();
    let mut pipe = IngestPipeline::with_registry(PipelineConfig::default(), registry.clone());

    let dir = scratch("continue");
    let store = DurableStore::create(
        &dir,
        DurabilityConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_every_facts: 0,
            keep_generations: 2,
            retry: RetryPolicy::default(),
        },
        &kg,
        &pipe.report(),
        &registry,
    )
    .unwrap();
    pipe.set_journal(store.journal());
    for a in &articles[..3] {
        pipe.ingest(&mut kg, a);
    }
    let wal_file = store.wal_path();
    drop(store);
    drop(pipe);

    // Tear the last few bytes, recover, then keep going on the same store.
    let bytes = std::fs::read(&wal_file).unwrap();
    std::fs::write(&wal_file, &bytes[..bytes.len() - 3]).unwrap();

    let reg = MetricsRegistry::new();
    let (mut store, rec) = DurableStore::open(&dir, DurabilityConfig::default(), &reg).unwrap();
    let mut kg = rec.kg;
    let mut pipe = IngestPipeline::with_registry(PipelineConfig::default(), reg.clone());
    pipe.seed_report(&rec.report);
    pipe.set_journal(store.journal());
    let before_edges = kg.graph.edge_count();
    for a in &articles[3..6] {
        pipe.ingest(&mut kg, a);
    }
    assert!(pipe.report().admitted > rec.report.admitted);
    assert!(kg.graph.edge_count() > before_edges);

    // An on-demand checkpoint rotates the WAL; a second recovery restores
    // the post-restart graph without replaying anything.
    let gen = store.checkpoint(&kg, &pipe.report()).unwrap();
    let reg2 = MetricsRegistry::new();
    let (_s, rec2) = DurableStore::open(&dir, DurabilityConfig::default(), &reg2).unwrap();
    assert_eq!(rec2.generation, gen);
    assert_eq!(rec2.replayed_docs, 0);
    assert_eq!(rec2.kg.graph.vertex_count(), kg.graph.vertex_count());
    assert_eq!(rec2.kg.graph.edge_count(), kg.graph.edge_count());
    assert_eq!(rec2.report, pipe.report());
}
