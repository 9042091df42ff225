//! Revision durability: a superseded fact must stay superseded across a
//! crash and WAL replay. Revision runs *inside* the admit call that
//! replay re-issues per journaled document, so recovery re-derives every
//! tombstone and decay from the admission log — the WAL records no
//! revision events. Verified on `DurableStore`, across checkpoint
//! rotation, and — with `fault-injection` — under a seeded fault plan
//! with the zero-acked-fact-loss criterion.

use std::collections::BTreeSet;
use std::path::PathBuf;

use nous_core::{IngestPipeline, IngestReport, KnowledgeGraph, PipelineConfig, RevisionPolicy};
use nous_corpus::scenarios::{generate, Regime, Scenario, ScenarioConfig};
use nous_corpus::OntologyPredicate;
use nous_obs::MetricsRegistry;
use nous_persist::{DurabilityConfig, DurableStore, FsyncPolicy, RetryPolicy};

fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("nous-rev-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn contradiction_scenario() -> Scenario {
    generate(&ScenarioConfig::smoke(Regime::Contradiction))
}

fn fresh_kg(s: &Scenario) -> KnowledgeGraph {
    let mut kg = KnowledgeGraph::from_curated(&s.world, &s.kb);
    kg.set_revision_policy(RevisionPolicy::enabled());
    kg.train_predictor();
    kg
}

fn durability() -> DurabilityConfig {
    DurabilityConfig {
        fsync: FsyncPolicy::Never,
        checkpoint_every_facts: 0, // crash with everything in the WAL
        keep_generations: 2,
        retry: RetryPolicy::default(),
    }
}

/// The live extracted `(subject, object)` pairs for `predicate`.
fn extracted_pairs(kg: &KnowledgeGraph, predicate: &str) -> BTreeSet<(String, String)> {
    let Some(p) = kg.graph.predicate_id(predicate) else {
        return BTreeSet::new();
    };
    kg.graph
        .iter_edges()
        .filter(|(_, e)| e.pred == p && !e.provenance.is_curated())
        .map(|(_, e)| {
            (
                kg.graph.vertex_name(e.src).to_owned(),
                kg.graph.vertex_name(e.dst).to_owned(),
            )
        })
        .collect()
}

/// Assert the recovered graph serves exactly the live run's revision
/// outcome: every superseded home absent, every current home present,
/// and the revision counters re-derived to the same totals.
fn assert_revision_state(scenario: &Scenario, live: &KnowledgeGraph, recovered: &KnowledgeGraph) {
    let loc = OntologyPredicate::IsLocatedIn.name();
    let horizon = u64::MAX;
    let retracted = scenario.oracle.retracted_by(horizon);
    assert!(!retracted.is_empty(), "scenario planted no supersessions");
    let pairs = extracted_pairs(recovered, loc);
    for (s, _, o) in &retracted {
        assert!(
            !pairs.contains(&(s.clone(), o.clone())),
            "superseded ({s}, {o}) resurrected by replay"
        );
    }
    for (s, p, o) in scenario.oracle.truth_at(horizon) {
        if p == loc && retracted.iter().any(|(rs, _, _)| *rs == s) {
            assert!(
                pairs.contains(&(s.clone(), o.clone())),
                "current home ({s}, {o}) lost in replay"
            );
        }
    }
    assert_eq!(extracted_pairs(live, loc), pairs, "live/recovered diverge");
    assert_eq!(
        live.revision_counters(),
        recovered.revision_counters(),
        "replay re-derived different revision totals"
    );
    assert!(recovered.revision_counters().superseded > 0);
}

#[test]
fn superseded_facts_stay_superseded_after_replay_one_lane() {
    let scenario = contradiction_scenario();
    let mut kg = fresh_kg(&scenario);
    let registry = MetricsRegistry::new();
    let dir = scratch("lane1");
    let store =
        DurableStore::create(&dir, durability(), &kg, &IngestReport::default(), &registry).unwrap();
    let mut pipe = IngestPipeline::with_registry(PipelineConfig::default(), registry.clone());
    pipe.set_journal(store.journal());
    pipe.ingest_all(&mut kg, &scenario.articles);
    drop(pipe);
    drop(store); // crash: no checkpoint since the curated-only baseline

    let reg = MetricsRegistry::new();
    let (_store, rec) = DurableStore::open(&dir, DurabilityConfig::default(), &reg).unwrap();
    assert!(rec.replayed_docs > 0, "nothing replayed");
    assert_revision_state(&scenario, &kg, &rec.kg);
    std::fs::remove_dir_all(&dir).ok();
}

/// The revision policy itself is durable: it rides in the checkpoint, so
/// a recovery that replays *no* documents still revises the next
/// contradiction it admits.
#[test]
fn revision_policy_survives_checkpoint_rotation() {
    let scenario = contradiction_scenario();
    let mut kg = fresh_kg(&scenario);
    let registry = MetricsRegistry::new();
    let dir = scratch("ckpt");
    let mut store =
        DurableStore::create(&dir, durability(), &kg, &IngestReport::default(), &registry).unwrap();
    let mut pipe = IngestPipeline::with_registry(PipelineConfig::default(), registry.clone());
    pipe.set_journal(store.journal());
    let half = scenario.articles.len() / 2;
    pipe.ingest_all(&mut kg, &scenario.articles[..half]);
    store.checkpoint(&kg, &pipe.report()).unwrap();
    drop(pipe);
    drop(store);

    let reg = MetricsRegistry::new();
    let (_store, rec) = DurableStore::open(&dir, DurabilityConfig::default(), &reg).unwrap();
    assert_eq!(rec.replayed_docs, 0, "checkpoint already covers the prefix");
    let mut recovered = rec.kg;
    assert!(
        recovered.revision_policy().enabled,
        "policy lost in rotation"
    );
    let before = recovered.revision_counters();
    let mut pipe2 = IngestPipeline::with_registry(PipelineConfig::default(), reg.clone());
    pipe2.ingest_all(&mut recovered, &scenario.articles[half..]);
    pipe2.ingest_all(&mut kg, &scenario.articles[half..]);
    assert!(
        recovered.revision_counters().superseded > before.superseded,
        "recovered graph stopped revising"
    );
    assert_eq!(recovered.revision_counters(), kg.revision_counters());
    std::fs::remove_dir_all(&dir).ok();
}

/// Under a seeded fault plan (extractor poison + WAL append/fsync
/// faults), recovery replays every acked document — zero acked-fact loss
/// — and the revision outcome still matches a replay-free reference.
#[cfg(feature = "fault-injection")]
#[test]
fn fault_plan_run_loses_no_acked_fact_and_keeps_revisions() {
    use nous_extract::FP_EXTRACT_POISON;
    use nous_fault::{FaultPlan, SitePlan};
    use nous_persist::{DocRecord, FP_WAL_APPEND, FP_WAL_FSYNC};
    use std::sync::{Arc, Mutex};

    let scenario = contradiction_scenario();
    let faults = FaultPlan::from_seed(0xD1CE)
        .site(FP_EXTRACT_POISON, SitePlan::probability(0.1))
        .site(FP_WAL_APPEND, SitePlan::probability(0.08))
        .site(FP_WAL_FSYNC, SitePlan::probability(0.05))
        .arm();

    let mut kg = fresh_kg(&scenario);
    let registry = MetricsRegistry::new();
    let dir = scratch("faulted");
    let store = DurableStore::create_with_faults(
        &dir,
        DurabilityConfig {
            fsync: FsyncPolicy::EveryN(4),
            checkpoint_every_facts: 0,
            keep_generations: 2,
            retry: RetryPolicy {
                max_retries: 1,
                backoff_ms: 0,
            },
        },
        &kg,
        &IngestReport::default(),
        &registry,
        faults.clone(),
    )
    .expect("generation-0 baseline is not failpointed");
    let mut pipe = IngestPipeline::with_registry(
        PipelineConfig {
            faults: faults.clone(),
            ..Default::default()
        },
        registry.clone(),
    );
    let acked: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = acked.clone();
    pipe.set_journal(store.journal_with_ack(Arc::new(move |rec: &DocRecord| {
        sink.lock().unwrap().push(rec.doc_id);
    })));
    pipe.ingest_all(&mut kg, &scenario.articles);
    let quarantined: Vec<u64> = pipe
        .dead_letters()
        .entries()
        .iter()
        .map(|q| q.doc_id)
        .collect();
    drop(pipe);
    let acked = Arc::try_unwrap(acked).unwrap().into_inner().unwrap();
    drop(store); // crash

    let reg = MetricsRegistry::new();
    let (_store, rec) = DurableStore::open(&dir, DurabilityConfig::default(), &reg).unwrap();
    assert!(
        rec.replayed_docs as usize >= acked.len(),
        "acked loss: {} acked, {} replayed",
        acked.len(),
        rec.replayed_docs
    );
    for id in &acked {
        assert!(!quarantined.contains(id), "doc {id} both acked and dead");
    }
    // The live graph may hold facts whose journal append faulted (admitted
    // but never acked), so live and recovered states can differ — but
    // replay itself must be deterministic: a second recovery of the same
    // directory re-derives the identical revision outcome.
    drop(_store);
    let reg2 = MetricsRegistry::new();
    let (_store2, rec2) = DurableStore::open(&dir, DurabilityConfig::default(), &reg2).unwrap();
    let loc = OntologyPredicate::IsLocatedIn.name();
    assert_eq!(rec2.replayed_docs, rec.replayed_docs);
    assert_eq!(
        extracted_pairs(&rec.kg, loc),
        extracted_pairs(&rec2.kg, loc),
        "two replays of one WAL disagree"
    );
    assert_eq!(rec.kg.revision_counters(), rec2.kg.revision_counters());
    std::fs::remove_dir_all(&dir).ok();
}
