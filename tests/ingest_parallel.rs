//! Parallel/sequential equivalence of micro-batched ingestion.
//!
//! The two-stage split (parallel stateless extraction, sequential graph
//! updates) promises: with `batch_size == 1` the batched path is
//! byte-identical to the sequential `ingest` loop; with larger batches the
//! only divergence channel is gazetteer staleness (entities minted
//! mid-batch become NER-visible at the next batch boundary), so freezing
//! entity creation makes every batch size identical too. Both drivers of
//! the batch step — `IngestPipeline::ingest_batch` on a plain graph and
//! `SharedSession::ingest_batch` under the session's locks — must build
//! the same graph, accounting and journal stream.

use nous_core::{
    AdmittedFact, CompactionConfig, IngestJournal, IngestPipeline, IngestReport, KnowledgeGraph,
    PipelineConfig, QuarantinedDoc, SharedSession, TrendMonitor, TypeSignatureGate,
};
use nous_corpus::{Article, ArticleStream, CuratedKb, Preset, World};
use nous_graph::window::WindowKind;
use nous_mining::{EvictionStrategy, MinerConfig};
use nous_obs::MetricsRegistry;
use nous_qa::TopicIndex;
use nous_text::ner::EntityType;
use std::sync::{Arc, Mutex};

fn seeded() -> (KnowledgeGraph, Vec<Article>) {
    let world = World::generate(&Preset::Smoke.world_config());
    let kb = CuratedKb::generate(&world, 7);
    let mut kg = KnowledgeGraph::from_curated(&world, &kb);
    kg.train_predictor();
    let articles = ArticleStream::generate(&world, &kb, &Preset::Smoke.stream_config());
    (kg, articles)
}

fn gated_pipeline(cfg: PipelineConfig) -> IngestPipeline {
    IngestPipeline::new(cfg).with_gate(Box::new(TypeSignatureGate::news_ontology()))
}

/// Full-state comparison of two (pipeline, graph) pairs after ingestion.
fn assert_identical(
    seq: &IngestPipeline,
    kg_seq: &KnowledgeGraph,
    par: &IngestPipeline,
    kg_par: &KnowledgeGraph,
) {
    assert_eq!(
        seq.report(),
        par.report(),
        "per-stage accounting must match"
    );
    assert_eq!(kg_seq.graph.vertex_count(), kg_par.graph.vertex_count());
    assert_eq!(kg_seq.graph.edge_count(), kg_par.graph.edge_count());
    assert_eq!(
        kg_seq.graph.stats().extracted_edges,
        kg_par.graph.stats().extracted_edges
    );
    assert_eq!(
        seq.admitted_confidences, par.admitted_confidences,
        "admitted-confidence vectors must match element-for-element"
    );
    assert_eq!(seq.rejected_confidences, par.rejected_confidences);
    assert_eq!(
        seq.gate_vetoes, par.gate_vetoes,
        "gate-veto counts must match"
    );
    // Every admitted edge identical, in identical admission order.
    for ((ia, ea), (ib, eb)) in kg_seq.graph.iter_edges().zip(kg_par.graph.iter_edges()) {
        assert_eq!(ia, ib);
        assert_eq!(ea.src, eb.src);
        assert_eq!(ea.pred, eb.pred);
        assert_eq!(ea.dst, eb.dst);
        assert_eq!(ea.at, eb.at);
        assert_eq!(ea.confidence, eb.confidence);
        assert_eq!(ea.provenance, eb.provenance);
    }
}

#[test]
fn batch_size_one_matches_sequential_byte_for_byte() {
    let (mut kg_seq, articles) = seeded();
    let (mut kg_par, _) = seeded();
    let mut seq = gated_pipeline(PipelineConfig::default());
    seq.ingest_all(&mut kg_seq, &articles);
    let mut par = gated_pipeline(PipelineConfig {
        batch_size: 1,
        extract_workers: 4,
        ..Default::default()
    });
    par.ingest_batch(&mut kg_par, &articles);
    assert_identical(&seq, &kg_seq, &par, &kg_par);
    assert!(
        seq.report().admitted > 0,
        "non-trivial corpus: {:?}",
        seq.report()
    );
}

#[test]
fn frozen_gazetteer_makes_every_batch_size_identical() {
    // With entity creation disabled the gazetteer never changes during
    // ingestion, so there is no staleness window at all: batched runs must
    // equal the sequential run at ANY batch size / worker count.
    let base = PipelineConfig {
        create_unknown_entities: false,
        ..Default::default()
    };
    let (mut kg_seq, articles) = seeded();
    let mut seq = gated_pipeline(base.clone());
    seq.ingest_all(&mut kg_seq, &articles);
    for (batch_size, workers) in [(4, 2), (16, 4), (64, 8)] {
        let (mut kg_par, _) = seeded();
        let mut par = gated_pipeline(PipelineConfig {
            batch_size,
            extract_workers: workers,
            ..base.clone()
        });
        par.ingest_batch(&mut kg_par, &articles);
        assert_identical(&seq, &kg_seq, &par, &kg_par);
    }
}

#[test]
fn larger_batches_differ_only_through_gazetteer_staleness() {
    // With entity creation on, a larger batch may miss NER type hints for
    // entities minted earlier in the same batch — but nothing else:
    // document/sentence accounting is gazetteer-independent and must match
    // the sequential run exactly, and the stream still lands.
    let (mut kg_seq, articles) = seeded();
    let mut seq = IngestPipeline::new(PipelineConfig::default());
    seq.ingest_all(&mut kg_seq, &articles);

    let (mut kg_par, _) = seeded();
    let mut par = IngestPipeline::new(PipelineConfig {
        batch_size: 16,
        extract_workers: 4,
        ..Default::default()
    });
    par.ingest_batch(&mut kg_par, &articles);

    assert_eq!(seq.report().documents, par.report().documents);
    assert_eq!(seq.report().sentences, par.report().sentences);
    assert!(par.report().admitted > 0);
    // Staleness shifts which mentions NER tags mid-batch, which can delay
    // entity minting or (rarely) chunk an argument differently — but it
    // cannot change the scale of the graph: bound the drift tightly.
    let (seq_v, par_v) = (kg_seq.graph.vertex_count(), kg_par.graph.vertex_count());
    let tolerance = seq_v / 50 + 2;
    assert!(
        par_v <= seq_v + tolerance && par_v + tolerance >= seq_v,
        "vertex drift beyond staleness tolerance: sequential {seq_v}, batched {par_v}"
    );
}

#[test]
fn ingest_stream_is_equivalent_to_ingest_batch() {
    let cfg = PipelineConfig {
        batch_size: 8,
        extract_workers: 2,
        ..Default::default()
    };
    let (mut kg_a, articles) = seeded();
    let mut a = IngestPipeline::new(cfg.clone());
    a.ingest_batch(&mut kg_a, &articles);
    let (mut kg_b, _) = seeded();
    let mut b = IngestPipeline::new(cfg);
    b.ingest_stream(&mut kg_b, articles.iter().cloned());
    assert_identical(&a, &kg_a, &b, &kg_b);
}

/// Records every journal call, in call order.
struct RecordingJournal(Arc<Mutex<Vec<String>>>);

impl IngestJournal for RecordingJournal {
    fn entity_created(&mut self, name: &str, ty: EntityType) {
        self.0.lock().unwrap().push(format!("entity {name} {ty:?}"));
    }
    fn fact_admitted(&mut self, fact: &AdmittedFact) {
        self.0.lock().unwrap().push(format!("fact {fact:?}"));
    }
    fn document_merged(&mut self, doc_id: u64, delta: &IngestReport) {
        self.0
            .lock()
            .unwrap()
            .push(format!("merged {doc_id} {delta:?}"));
    }
}

/// Everything one driver leaves behind that the other must reproduce.
#[derive(Debug, PartialEq)]
struct DriverRun {
    report: IngestReport,
    admitted_confidences: Vec<f32>,
    dead_letters: Vec<QuarantinedDoc>,
    journal: Vec<String>,
}

/// Run `drive` with a journal-recording pipeline; returns the checkpoint
/// bytes of the graph it leaves and the rest of the run.
fn record(
    cfg: &PipelineConfig,
    drive: impl FnOnce(&mut IngestPipeline, &mut dyn FnMut(&KnowledgeGraph)),
) -> (Vec<u8>, DriverRun) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut pipe = IngestPipeline::new(cfg.clone());
    pipe.set_journal(Box::new(RecordingJournal(log.clone())));
    let mut checkpoint = Vec::new();
    drive(&mut pipe, &mut |kg| checkpoint = kg.encode_checkpoint());
    let run = DriverRun {
        report: pipe.report(),
        admitted_confidences: pipe.admitted_confidences.clone(),
        dead_letters: pipe.dead_letters().entries().to_vec(),
        journal: log.lock().unwrap().clone(),
    };
    (checkpoint, run)
}

fn assert_drivers_agree(base: PipelineConfig) {
    let (_, articles) = seeded();
    for batch_size in [1, 8] {
        let cfg = PipelineConfig {
            batch_size,
            extract_workers: 2,
            ..base.clone()
        };
        // The pipeline on a plain graph, one call per micro-batch, counting
        // the batches that changed what a snapshot serves.
        let served =
            |kg: &KnowledgeGraph| (kg.graph.watermark(), kg.disambiguator.served().version());
        let mut served_changes = 0;
        let by_pipeline = record(&cfg, |pipe, checkpoint| {
            let (mut kg, _) = seeded();
            for chunk in articles.chunks(batch_size) {
                let before = served(&kg);
                pipe.ingest_batch(&mut kg, chunk);
                served_changes += u64::from(served(&kg) != before);
            }
            checkpoint(&kg);
        });
        // The session under its locks, with compaction off (every epoch
        // is a batch publish) and tracing on (to count the publishes).
        let registry = MetricsRegistry::new();
        let tracer = registry.enable_tracing(1, articles.len(), u64::MAX);
        let trends = TrendMonitor::new(
            WindowKind::Count { n: 100 },
            MinerConfig {
                k_max: 1,
                min_support: 2,
                eviction: EvictionStrategy::Eager,
            },
        );
        let session =
            SharedSession::with_registry(seeded().0, TopicIndex::new(2), trends, registry);
        session.set_compaction_config(CompactionConfig {
            max_layers: usize::MAX,
            min_delta_edges: usize::MAX,
            ..CompactionConfig::default()
        });
        let by_session = record(&cfg, |pipe, checkpoint| {
            session.ingest_batch(pipe, &articles);
            session.read(|kg, _| checkpoint(kg));
        });

        assert!(by_pipeline.0 == by_session.0, "checkpoint bytes differ");
        assert_eq!(by_pipeline.1, by_session.1, "batch_size {batch_size}");
        assert!(by_pipeline.1.report.admitted > 0);
        // One publish per micro-batch, each a new epoch exactly when the
        // batch changed what a snapshot serves.
        let publishes: Vec<usize> = tracer
            .flight()
            .traces()
            .iter()
            .filter(|t| t.name == "ingest.batch")
            .map(|t| t.spans.iter().filter(|s| s.name == "publish").count())
            .collect();
        assert_eq!(publishes, vec![1; articles.len().div_ceil(batch_size)]);
        assert_eq!(session.frozen().epoch, served_changes);
        assert!(served_changes > 0);
    }
}

#[test]
fn session_and_pipeline_drivers_agree() {
    assert_drivers_agree(PipelineConfig::default());
}

#[cfg(feature = "fault-injection")]
#[test]
fn session_and_pipeline_drivers_agree_under_poisoned_extraction() {
    use nous_extract::FP_EXTRACT_POISON;
    use nous_fault::{FaultPlan, SitePlan};
    let plan = FaultPlan::from_seed(7).site(FP_EXTRACT_POISON, SitePlan::probability(0.2));
    let (_, articles) = seeded();
    assert!(
        articles
            .iter()
            .any(|a| plan.would_fire_keyed(FP_EXTRACT_POISON, a.id)),
        "seed 7 must poison at least one document"
    );
    assert_drivers_agree(PipelineConfig {
        faults: plan.arm(),
        ..Default::default()
    });
}
