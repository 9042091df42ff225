//! Scenario-suite integration tests (ROADMAP item 5): the four
//! adversarial workload regimes through the full ingest → publish →
//! query stack, plus the determinism and revision-visibility contracts
//! the suite's scores depend on.

use nous_bench::scenarios::{run_regime, served_extracted};
use nous_core::{
    IngestPipeline, KnowledgeGraph, PipelineConfig, RevisionPolicy, SharedSession, TrendMonitor,
};
use nous_corpus::scenarios::{generate, seed_from_env, Regime, ScenarioConfig};
use nous_corpus::OntologyPredicate;
use nous_fault::Faults;
use nous_graph::window::WindowKind;
use nous_mining::{EvictionStrategy, MinerConfig};
use nous_obs::MetricsRegistry;
use nous_qa::TopicIndex;
use nous_query::{execute_shared, parse, QueryResult};

fn trends() -> TrendMonitor {
    TrendMonitor::new(
        WindowKind::Count { n: 200 },
        MinerConfig {
            k_max: 2,
            min_support: 3,
            eviction: EvictionStrategy::Eager,
        },
    )
}

/// Same seed → byte-identical article stream, no matter which thread
/// generates it. Generation reads no environment and no global state.
#[test]
fn article_streams_are_byte_identical_per_seed_across_threads() {
    for regime in Regime::ALL {
        let cfg = ScenarioConfig::smoke(regime);
        let reference = serde_json::to_string(&generate(&cfg).articles).expect("stream serializes");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cfg = cfg.clone();
                std::thread::spawn(move || {
                    serde_json::to_string(&generate(&cfg).articles).expect("stream serializes")
                })
            })
            .collect();
        for h in handles {
            assert_eq!(
                h.join().expect("generator thread"),
                reference,
                "{}: stream depends on the generating thread",
                regime.name()
            );
        }
    }
}

/// `NOUS_SCENARIO_SEED` selects the seed for the whole suite; unset, the
/// default applies. (No other test in this binary touches the variable.)
#[test]
fn scenario_seed_is_env_selectable() {
    assert_eq!(seed_from_env(11), 11);
    std::env::set_var("NOUS_SCENARIO_SEED", "1234");
    assert_eq!(seed_from_env(11), 1234);
    std::env::set_var("NOUS_SCENARIO_SEED", "not-a-seed");
    assert_eq!(seed_from_env(11), 11);
    std::env::remove_var("NOUS_SCENARIO_SEED");
    let a = generate(&ScenarioConfig::smoke(Regime::BurstSkew).with_seed(1234));
    let b = generate(&ScenarioConfig::smoke(Regime::BurstSkew));
    assert_ne!(
        serde_json::to_string(&a.articles).unwrap(),
        serde_json::to_string(&b.articles).unwrap(),
        "selected seed must actually change the stream"
    );
}

/// Every regime survives the full harness — ingest, publish, checkpointed
/// query scoring, crash, recovery — with all required metrics present and
/// zero acked-document loss.
#[test]
fn every_regime_runs_end_to_end_with_sane_scores() {
    for regime in Regime::ALL {
        let cfg = ScenarioConfig::smoke(regime);
        let score = run_regime(&cfg, Faults::disabled(), 3);
        score
            .validate()
            .unwrap_or_else(|e| panic!("{}: {e}", regime.name()));
        assert!(score.admitted > 0, "{}: nothing admitted", regime.name());
        assert_eq!(
            score.degradation.lost_acked_docs,
            0,
            "{}: acked documents lost",
            regime.name()
        );
        let last = score.checkpoints.last().expect("validated non-empty");
        assert!(
            last.precision >= 0.9 && last.recall >= 0.9,
            "{}: final checkpoint precision {:.2} / recall {:.2}",
            regime.name(),
            last.precision,
            last.recall
        );
        if regime == Regime::Contradiction {
            assert!(
                score.degradation.revision_superseded > 0,
                "contradiction regime never superseded a fact"
            );
        }
    }
}

/// The harness itself is deterministic: two runs of one seed produce the
/// same admission totals, checkpoint scores and degradation counters
/// (latency percentiles are wall-clock and may differ).
#[test]
fn harness_scores_are_deterministic_per_seed() {
    let cfg = ScenarioConfig::smoke(Regime::Contradiction);
    let a = run_regime(&cfg, Faults::disabled(), 3);
    let b = run_regime(&cfg, Faults::disabled(), 3);
    assert_eq!(a.admitted, b.admitted);
    assert_eq!(
        serde_json::to_string(&a.checkpoints).unwrap(),
        serde_json::to_string(&b.checkpoints).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&a.degradation).unwrap(),
        serde_json::to_string(&b.degradation).unwrap()
    );
}

/// Build a session pre-loaded with a scenario's curated KB (revision on)
/// and ingest its full stream.
fn ingest_scenario(scenario: &nous_corpus::Scenario) -> (SharedSession, IngestPipeline) {
    let mut kg = KnowledgeGraph::from_curated(&scenario.world, &scenario.kb);
    kg.set_revision_policy(RevisionPolicy::enabled());
    kg.train_predictor();
    let registry = MetricsRegistry::new();
    let session = SharedSession::with_registry(kg, TopicIndex::new(2), trends(), registry.clone());
    let mut pipeline = IngestPipeline::with_registry(PipelineConfig::default(), registry);
    session.ingest_batch(&mut pipeline, &scenario.articles);
    (session, pipeline)
}

/// The acceptance criterion for the contradiction regime: a superseded
/// fact disappears from MATCH *and* WHY answers after revision, and the
/// superseding fact serves in its place.
#[test]
fn contradiction_changes_served_answers() {
    let cfg = ScenarioConfig::smoke(Regime::Contradiction);
    let scenario = generate(&cfg);
    let (session, _pipeline) = ingest_scenario(&scenario);

    // From the oracle, pick every mover with its first (superseded) and
    // final (current) home.
    let loc = OntologyPredicate::IsLocatedIn;
    let truth = scenario.oracle.truth_at(cfg.days);
    let retracted = scenario.oracle.retracted_by(cfg.days);
    assert!(!retracted.is_empty(), "scenario planted no supersessions");

    let served = served_extracted(&session, loc.name());
    for (s, p, o) in &retracted {
        assert!(
            !served.contains(&(s.clone(), p.clone(), o.clone())),
            "superseded fact ({s}, {p}, {o}) still served by MATCH"
        );
    }
    let current: Vec<_> = truth
        .iter()
        .filter(|(s, p, _)| p == loc.name() && retracted.iter().any(|(rs, _, _)| rs == s))
        .collect();
    assert!(!current.is_empty(), "movers have no current home");
    for (s, p, o) in &current {
        assert!(
            served.contains(&((*s).clone(), (*p).clone(), (*o).clone())),
            "current fact ({s}, {p}, {o}) missing from MATCH"
        );
    }

    // WHY: the superseded direct edge is never cited again (paths may
    // still reach the old city *through other entities* — `VIA` demands
    // the predicate appear on the path, not that every hop carry it —
    // but the tombstoned hop itself must be gone); the new home serves
    // as a direct citation (the paper demo's provenance answer).
    let (mover, _, old_home) = retracted.iter().next().expect("non-empty");
    let (_, _, new_home) = current
        .iter()
        .find(|(s, _, _)| s == mover)
        .expect("mover has a current home");
    let superseded_hop = format!("{mover} -[isLocatedIn]-> {old_home}");
    let current_hop = format!("{mover} -[isLocatedIn]-> {new_home}");
    let why_old = parse(&format!(
        "WHY {mover} -> {old_home} VIA isLocatedIn LIMIT 5"
    ))
    .expect("query parses");
    match execute_shared(&session, &why_old) {
        QueryResult::Paths(paths) => {
            for (rendered, _) in &paths {
                assert!(
                    !rendered.contains(&superseded_hop),
                    "WHY still cites the superseded edge: {rendered}"
                );
            }
        }
        QueryResult::NotFound(_) => {}
        other => panic!("unexpected WHY result: {other:?}"),
    }
    let why_new = parse(&format!(
        "WHY {mover} -> {new_home} VIA isLocatedIn LIMIT 5"
    ))
    .expect("query parses");
    match execute_shared(&session, &why_new) {
        QueryResult::Paths(paths) => {
            assert!(
                paths
                    .iter()
                    .any(|(rendered, _)| rendered.contains(&current_hop)),
                "WHY cannot cite the current home directly: {paths:?}"
            )
        }
        other => panic!("unexpected WHY result: {other:?}"),
    }
}

/// Emerging entities — unseen at bootstrap — are minted mid-stream and
/// become queryable: MATCH serves extracted facts about them.
#[test]
fn emerging_entities_become_queryable_mid_stream() {
    let cfg = ScenarioConfig::smoke(Regime::Emerging);
    let scenario = generate(&cfg);
    let (session, _pipeline) = ingest_scenario(&scenario);
    let mut served = served_extracted(&session, "acquired");
    served.extend(served_extracted(&session, "partneredWith"));
    for name in &scenario.emerging {
        assert!(
            served.iter().any(|(s, _, _)| s == name),
            "{name}: no served fact for the emerging entity"
        );
    }
}

/// Noisy documents never park acked facts: clean facts admit, noise
/// yields nothing, and nothing organically quarantines (quarantine under
/// injected faults is covered by the fault-plan leg).
#[test]
fn noisy_stream_admits_clean_facts_only() {
    let cfg = ScenarioConfig::smoke(Regime::Noisy);
    let scenario = generate(&cfg);
    let (session, pipeline) = ingest_scenario(&scenario);
    let truth = scenario.oracle.truth_at(cfg.days);
    let mut served = std::collections::BTreeSet::new();
    for p in scenario.oracle.predicates() {
        served.extend(served_extracted(&session, &p));
    }
    for t in &truth {
        assert!(served.contains(t), "clean fact {t:?} lost to the noise");
    }
    assert!(
        pipeline.report().admitted >= truth.len(),
        "fewer admissions than clean facts"
    );
}
