//! Scenario harness: drive a workload regime (`nous_corpus::scenarios`)
//! through the full ingest → publish → query stack and score it.
//!
//! One [`run_regime`] call owns the whole lifecycle:
//!
//! 1. bootstrap a KG from the scenario's curated KB, with the revision
//!    policy enabled (the contradiction regime is meaningless without it);
//! 2. attach a [`DurableStore`] (WAL + checkpoint) whose journal acks
//!    every durable document into a ledger;
//! 3. ingest the article stream one document at a time through
//!    [`SharedSession::ingest_batch`] — each call covers extract, admit
//!    and snapshot publication, so its wall time is the *update latency*:
//!    the delay from article arrival until queries reflect it;
//! 4. at evenly spaced checkpoint days, score precision/recall of the
//!    served extracted triples (via the real `MATCH` query path) against
//!    the oracle's evolving truth set, and probe degradation with
//!    tight-deadline and already-expired queries;
//! 5. crash (drop the store), recover from checkpoint + WAL, and count
//!    acked documents the recovery failed to replay — the zero-acked-loss
//!    criterion, meaningful with or without injected faults.
//!
//! The same entry point serves `benches/scenarios.rs` (which writes
//! `BENCH_scenarios.json`) and the root `tests/scenarios.rs` smoke tests.

use nous_core::{
    IngestPipeline, IngestReport, KnowledgeGraph, PipelineConfig, RevisionPolicy, SharedSession,
    TrendMonitor,
};
use nous_corpus::scenarios::{self, ScenarioConfig};
use nous_fault::{Deadline, Faults};
use nous_graph::window::WindowKind;
use nous_mining::{EvictionStrategy, MinerConfig};
use nous_obs::MetricsRegistry;
use nous_persist::{DocRecord, DurabilityConfig, DurableStore, FsyncPolicy, RetryPolicy};
use nous_qa::TopicIndex;
use nous_query::{execute_shared, execute_shared_with, parse, QueryOptions, QueryResult};
use serde::Serialize;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Correctness at one timed checkpoint: the served extracted triples
/// (restricted to the predicates the oracle makes claims about) compared
/// against the truth set as of that day.
#[derive(Debug, Clone, Serialize)]
pub struct CheckpointScore {
    pub day: u64,
    /// Triples true in the oracle at this day.
    pub truth: usize,
    /// Extracted triples the query path served.
    pub predicted: usize,
    /// Intersection of the two.
    pub matched: usize,
    pub precision: f64,
    pub recall: f64,
}

/// Graceful-degradation counters for one regime run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Degradation {
    /// Documents parked in the dead-letter quarantine.
    pub quarantined: u64,
    /// Tight-deadline query probes issued at checkpoints.
    pub deadline_probes: u64,
    /// Probes that came back partial (deadline expired mid-scan).
    pub partial_responses: u64,
    /// Zero-budget probes shed at arrival (never scanned to completion).
    pub shed_responses: u64,
    /// Revision outcomes (see `nous_core::RevisionCounters`).
    pub revision_superseded: u64,
    pub revision_decayed: u64,
    pub revision_reinforced: u64,
    /// Documents the journal acked as durable.
    pub acked_docs: u64,
    /// Documents recovery replayed after the crash.
    pub replayed_docs: u64,
    /// Acked documents missing after recovery — must be 0.
    pub lost_acked_docs: u64,
}

/// The full scorecard of one regime run.
#[derive(Debug, Clone, Serialize)]
pub struct RegimeScore {
    pub regime: String,
    pub seed: u64,
    pub articles: usize,
    pub admitted: u64,
    /// Per-article ingest→publish wall time, milliseconds.
    pub update_latency_p50_ms: f64,
    pub update_latency_p99_ms: f64,
    pub checkpoints: Vec<CheckpointScore>,
    pub degradation: Degradation,
}

impl RegimeScore {
    /// Every metric the CI gate requires, present and finite.
    pub fn validate(&self) -> Result<(), String> {
        if self.checkpoints.len() < 3 {
            return Err(format!(
                "{}: {} checkpoints (need >= 3)",
                self.regime,
                self.checkpoints.len()
            ));
        }
        let finite = [
            ("update_latency_p50_ms", self.update_latency_p50_ms),
            ("update_latency_p99_ms", self.update_latency_p99_ms),
        ];
        for (name, v) in finite {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{}: {name} = {v}", self.regime));
            }
        }
        for c in &self.checkpoints {
            for (name, v) in [("precision", c.precision), ("recall", c.recall)] {
                if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                    return Err(format!("{}: day {} {name} = {v}", self.regime, c.day));
                }
            }
        }
        if self.degradation.lost_acked_docs != 0 {
            return Err(format!(
                "{}: {} acked documents lost",
                self.regime, self.degradation.lost_acked_docs
            ));
        }
        Ok(())
    }
}

fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("nous-scn-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn percentile(sorted_ms: &[f64], p: usize) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    sorted_ms[(sorted_ms.len() - 1) * p / 100]
}

/// Parse one rendered MATCH sample line
/// (`"src -[pred]-> dst (0.85, extracted)"`) into its triple and
/// whether the edge is extracted (vs curated).
pub fn parse_match_line(line: &str) -> Option<(String, String, String, bool)> {
    let (src, rest) = line.split_once(" -[")?;
    let (pred, rest) = rest.split_once("]-> ")?;
    let (dst, meta) = rest.rsplit_once(" (")?;
    let meta = meta.strip_suffix(')')?;
    let (_conf, tag) = meta.rsplit_once(", ")?;
    Some((
        src.to_owned(),
        pred.to_owned(),
        dst.to_owned(),
        tag == "extracted",
    ))
}

/// The extracted triples the live session serves for `predicate`,
/// collected through the real query path (parse → execute → render).
pub fn served_extracted(
    session: &SharedSession,
    predicate: &str,
) -> BTreeSet<(String, String, String)> {
    let q = parse(&format!("MATCH (*)-[{predicate}]->(*) LIMIT 1000000")).expect("query parses");
    let mut triples = BTreeSet::new();
    if let QueryResult::Matches { sample, .. } = execute_shared(session, &q) {
        for line in &sample {
            if let Some((s, p, o, extracted)) = parse_match_line(line) {
                if extracted {
                    triples.insert((s, p, o));
                }
            }
        }
    }
    triples
}

fn score_checkpoint(
    session: &SharedSession,
    oracle: &scenarios::Oracle,
    day: u64,
    degradation: &mut Degradation,
) -> CheckpointScore {
    let truth = oracle.truth_at(day);
    let mut predicted = BTreeSet::new();
    for pred in oracle.predicates() {
        predicted.extend(served_extracted(session, &pred));

        // Degradation probes through the same query: a tight budget may
        // go partial mid-scan; a zero budget is shed at arrival.
        let q = parse(&format!("MATCH (*)-[{pred}]->(*) LIMIT 1000000")).expect("query parses");
        let within = |deadline| QueryOptions {
            deadline,
            ..Default::default()
        };
        let tight = execute_shared_with(
            session,
            &q,
            &within(Deadline::within(Duration::from_micros(50))),
        );
        degradation.deadline_probes += 1;
        if tight.partial {
            degradation.partial_responses += 1;
        }
        let shed = execute_shared_with(session, &q, &within(Deadline::expired_now()));
        degradation.deadline_probes += 1;
        if shed.partial {
            degradation.shed_responses += 1;
        }
    }
    let matched = predicted.intersection(&truth).count();
    let precision = if predicted.is_empty() {
        1.0
    } else {
        matched as f64 / predicted.len() as f64
    };
    let recall = if truth.is_empty() {
        1.0
    } else {
        matched as f64 / truth.len() as f64
    };
    CheckpointScore {
        day,
        truth: truth.len(),
        predicted: predicted.len(),
        matched,
        precision,
        recall,
    }
}

/// Drive one regime end-to-end and score it. `faults` arms the pipeline,
/// WAL and checkpoint failpoints (no-op unless the `fault-injection`
/// feature is compiled in); pass [`Faults::disabled`] for a clean run.
pub fn run_regime(cfg: &ScenarioConfig, faults: Faults, checkpoints: usize) -> RegimeScore {
    let scenario = scenarios::generate(cfg);
    let mut kg = KnowledgeGraph::from_curated(&scenario.world, &scenario.kb);
    kg.set_revision_policy(RevisionPolicy::enabled());
    kg.train_predictor();

    let registry = MetricsRegistry::new();
    let dir = scratch(cfg.regime.name());
    let store = DurableStore::create_with_faults(
        &dir,
        DurabilityConfig {
            fsync: FsyncPolicy::EveryN(8),
            checkpoint_every_facts: 0,
            keep_generations: 2,
            retry: RetryPolicy::default(),
        },
        &kg,
        &IngestReport::default(),
        &registry,
        faults.clone(),
    )
    .expect("generation-0 baseline is not failpointed");

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
            batch_size: 1,
            faults: faults.clone(),
            ..Default::default()
        },
        registry.clone(),
    );
    let acked: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let ack_sink = acked.clone();
    pipeline.set_journal(store.journal_with_ack(Arc::new(move |rec: &DocRecord| {
        ack_sink.lock().expect("ack ledger").push(rec.doc_id);
    })));

    let checkpoint_days = scenarios::checkpoints(cfg.days, checkpoints.max(3));
    let mut scores = Vec::with_capacity(checkpoint_days.len());
    let mut degradation = Degradation::default();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(scenario.articles.len());

    // One document per ingest_batch call: its wall time spans extract,
    // admit and snapshot publication — the update latency from arrival
    // to queryability.
    let mut next_ckpt = 0usize;
    for a in &scenario.articles {
        while next_ckpt < checkpoint_days.len() && a.day > checkpoint_days[next_ckpt] {
            scores.push(score_checkpoint(
                &session,
                &scenario.oracle,
                checkpoint_days[next_ckpt],
                &mut degradation,
            ));
            next_ckpt += 1;
        }
        let t0 = Instant::now();
        session.ingest_batch(&mut pipeline, std::slice::from_ref(a));
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    while next_ckpt < checkpoint_days.len() {
        scores.push(score_checkpoint(
            &session,
            &scenario.oracle,
            checkpoint_days[next_ckpt],
            &mut degradation,
        ));
        next_ckpt += 1;
    }

    let report = pipeline.report();
    degradation.quarantined = pipeline.dead_letters().len() as u64;
    let rev = session.read(|kg, _| kg.revision_counters());
    degradation.revision_superseded = rev.superseded;
    degradation.revision_decayed = rev.decayed;
    degradation.revision_reinforced = rev.reinforced;

    // Crash without a final checkpoint, recover from the gen-0 baseline +
    // WAL, and account for every acked document.
    drop(pipeline);
    let acked = Arc::try_unwrap(acked)
        .expect("all journal clones dropped")
        .into_inner()
        .expect("ack ledger");
    drop(store);
    let recovery_registry = MetricsRegistry::new();
    let (recovered_store, recovered) =
        DurableStore::open(&dir, DurabilityConfig::default(), &recovery_registry)
            .expect("recovery after crash");
    degradation.acked_docs = acked.len() as u64;
    degradation.replayed_docs = recovered.replayed_docs;
    degradation.lost_acked_docs = (acked.len() as u64).saturating_sub(recovered.replayed_docs);
    drop(recovered_store);
    std::fs::remove_dir_all(&dir).ok();

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    RegimeScore {
        regime: cfg.regime.name().to_owned(),
        seed: cfg.seed,
        articles: scenario.articles.len(),
        admitted: report.admitted as u64,
        update_latency_p50_ms: percentile(&latencies_ms, 50),
        update_latency_p99_ms: percentile(&latencies_ms, 99),
        checkpoints: scores,
        degradation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_line_roundtrip() {
        let line = "Apex Robotics -[isLocatedIn]-> Palo Alto (0.85, extracted)";
        let (s, p, o, ext) = parse_match_line(line).expect("parses");
        assert_eq!(s, "Apex Robotics");
        assert_eq!(p, "isLocatedIn");
        assert_eq!(o, "Palo Alto");
        assert!(ext);
        // Curated tag is excluded from the predicted set.
        let curated = "A -[p]-> B (1.00, curated)";
        assert!(!parse_match_line(curated).expect("parses").3);
        // Entity names containing " (" still split on the *last* marker.
        let tricky = "Aerial (HK) Ltd -[acquired]-> Vertex (EU) Labs (0.50, extracted)";
        let (s, _, o, _) = parse_match_line(tricky).expect("parses");
        assert_eq!(s, "Aerial (HK) Ltd");
        assert_eq!(o, "Vertex (EU) Labs");
    }

    #[test]
    fn percentiles_of_small_samples() {
        assert_eq!(percentile(&[], 50), 0.0);
        assert_eq!(percentile(&[3.0], 99), 3.0);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50), 2.0);
        assert_eq!(percentile(&v, 99), 3.0);
    }
}
