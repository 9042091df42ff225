//! Adversarial workload scenario generators (ROADMAP item 5).
//!
//! The base [`crate::articles::ArticleStream`] exercises one happy-path
//! regime: known entities, monotone facts, uniform arrival. The four
//! generators here produce the workloads a *dynamic* KG is actually for —
//! each deterministic in its seed, each carrying an evolving ground-truth
//! [`Oracle`] so the harness (`nous-bench`) can score answer correctness
//! at timed checkpoints:
//!
//! - **emerging** — entities unseen at checkpoint time arrive mid-stream
//!   (EMERGE's setting): the second half of the stream is narrated by
//!   companies absent from the world, the curated KB and the gazetteer,
//!   so extraction must type them heuristically and mint them.
//! - **contradiction** — later articles supersede earlier facts (ATOM's
//!   revision axis): companies relocate, so `(X, isLocatedIn, old)` must
//!   be invalidated or decayed once `(X, isLocatedIn, new)` is admitted.
//! - **burst_skew** — hot-key entity skew plus open-loop bursts: most
//!   facts involve one hot entity and most articles land on three burst
//!   days, stressing per-batch latency and reinforcement dedup.
//! - **noisy** — malformed/adversarial documents interleaved with clean
//!   ones: garbage tokens, negations, self-loops, pronoun soup —
//!   exercising quarantine, quality gates and disambiguation misses.
//!
//! Sentences use only the unambiguous active templates (no aliasing, no
//! coreference), so scoring noise measures the *system*, not the corpus.

use crate::articles::{render_date, Article, GroundFact};
use crate::curated::CuratedKb;
use crate::ontology::OntologyPredicate;
use crate::world::{World, WorldConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The four workload regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    Emerging,
    Contradiction,
    BurstSkew,
    Noisy,
}

impl Regime {
    pub const ALL: [Regime; 4] = [
        Regime::Emerging,
        Regime::Contradiction,
        Regime::BurstSkew,
        Regime::Noisy,
    ];

    /// Stable machine name (JSON keys, CLI selection).
    pub fn name(self) -> &'static str {
        match self {
            Regime::Emerging => "emerging",
            Regime::Contradiction => "contradiction",
            Regime::BurstSkew => "burst_skew",
            Regime::Noisy => "noisy",
        }
    }

    /// Per-regime RNG salt so regimes sharing a seed still diverge.
    fn salt(self) -> u64 {
        match self {
            Regime::Emerging => 0x9e37_79b9_7f4a_7c15,
            Regime::Contradiction => 0xc2b2_ae3d_27d4_eb4f,
            Regime::BurstSkew => 0x1656_67b1_9e37_79f9,
            Regime::Noisy => 0x27d4_eb2f_1656_67c5,
        }
    }
}

/// Parameters of scenario generation.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    pub regime: Regime,
    pub seed: u64,
    /// Total articles in the stream.
    pub articles: usize,
    /// Stream horizon in days.
    pub days: u64,
    /// Companies in the base world.
    pub companies: usize,
}

impl ScenarioConfig {
    /// CI-sized configuration: seconds per regime end-to-end.
    pub fn smoke(regime: Regime) -> Self {
        Self {
            regime,
            seed: 11,
            articles: 48,
            days: 720,
            companies: 12,
        }
    }

    /// Bench-sized configuration.
    pub fn demo(regime: Regime) -> Self {
        Self {
            regime,
            seed: 11,
            articles: 200,
            days: 1460,
            companies: 20,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One ground-truth transition: at `day`, `(subject, predicate, object)`
/// becomes true (`asserted`) or stops being true (revision).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleEvent {
    pub day: u64,
    pub subject: String,
    pub predicate: OntologyPredicate,
    pub object: String,
    pub asserted: bool,
}

/// The evolving ground truth of a scenario: an event log over triples.
/// Unlike the per-article `facts` ledger, the oracle models *revision* —
/// a retraction event removes a triple from the truth set from that day
/// on, which is what correctness-under-revision is scored against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Oracle {
    pub events: Vec<OracleEvent>,
}

impl Oracle {
    fn record(&mut self, day: u64, s: &str, p: OntologyPredicate, o: &str, asserted: bool) {
        self.events.push(OracleEvent {
            day,
            subject: s.to_owned(),
            predicate: p,
            object: o.to_owned(),
            asserted,
        });
    }

    /// `(s, p, o)` becomes true at `day`.
    pub fn assert_fact(&mut self, day: u64, s: &str, p: OntologyPredicate, o: &str) {
        self.record(day, s, p, o, true);
    }

    /// `(s, p, o)` stops being true at `day` (superseded/revised).
    pub fn retract_fact(&mut self, day: u64, s: &str, p: OntologyPredicate, o: &str) {
        self.record(day, s, p, o, false);
    }

    /// The set of triples true at end of `day`, applying events in log
    /// order (ties resolved by insertion order, which generators emit
    /// retract-before-assert for a revision on the same day).
    pub fn truth_at(&self, day: u64) -> BTreeSet<(String, String, String)> {
        let mut truth = BTreeSet::new();
        for e in &self.events {
            if e.day > day {
                continue;
            }
            let key = (
                e.subject.clone(),
                e.predicate.name().to_owned(),
                e.object.clone(),
            );
            if e.asserted {
                truth.insert(key);
            } else {
                truth.remove(&key);
            }
        }
        truth
    }

    /// Triples that were asserted at some point and later retracted by
    /// `day` — the set a revising system must have invalidated.
    pub fn retracted_by(&self, day: u64) -> BTreeSet<(String, String, String)> {
        let mut retracted = BTreeSet::new();
        for e in &self.events {
            if e.day > day {
                continue;
            }
            let key = (
                e.subject.clone(),
                e.predicate.name().to_owned(),
                e.object.clone(),
            );
            if e.asserted {
                retracted.remove(&key);
            } else {
                retracted.insert(key);
            }
        }
        retracted
    }

    /// The predicates the oracle makes claims about; scoring restricts
    /// the predicted set to these so unrelated mapper noise on other
    /// predicates doesn't dominate precision.
    pub fn predicates(&self) -> BTreeSet<String> {
        self.events
            .iter()
            .map(|e| e.predicate.name().to_owned())
            .collect()
    }
}

/// `n` evenly spaced checkpoint days over `[horizon/n, horizon]`.
pub fn checkpoints(horizon: u64, n: usize) -> Vec<u64> {
    (1..=n as u64).map(|k| horizon * k / n as u64).collect()
}

/// Read the scenario seed from `NOUS_SCENARIO_SEED` (like the chaos
/// suite's `NOUS_CHAOS_SEED`), falling back to `default`.
pub fn seed_from_env(default: u64) -> u64 {
    std::env::var("NOUS_SCENARIO_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A generated scenario: the world/KB to bootstrap the KG from, the
/// article stream to ingest, and the evolving ground truth to score
/// against. Regime-specific metadata rides along for the harness.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub regime: Regime,
    pub world: World,
    pub kb: CuratedKb,
    /// Sorted by day; `Article::id` doubles as the pipeline doc id.
    pub articles: Vec<Article>,
    pub oracle: Oracle,
    /// Canonical names of entities absent from world/KB/gazetteer at
    /// checkpoint time (emerging regime; empty otherwise).
    pub emerging: Vec<String>,
    /// First day an emerging entity appears (0 when unused).
    pub emerge_day: u64,
    /// Doc ids of deliberately malformed articles (noisy regime).
    pub noisy_docs: Vec<u64>,
    /// The skew target (burst regime).
    pub hot_entity: Option<String>,
}

/// Generate the scenario for `cfg` — deterministic in `cfg` alone
/// (no environment, no thread count, no global state).
pub fn generate(cfg: &ScenarioConfig) -> Scenario {
    let world = World::generate(&WorldConfig {
        seed: cfg.seed,
        companies: cfg.companies,
        people: (cfg.companies / 2).max(4),
        products: (cfg.companies / 2).max(4),
        ..Default::default()
    });
    let kb = CuratedKb::generate(&world, cfg.seed);
    let rng = StdRng::seed_from_u64(cfg.seed ^ cfg.regime.salt());
    match cfg.regime {
        Regime::Emerging => emerging(cfg, world, kb, rng),
        Regime::Contradiction => contradiction(cfg, world, kb, rng),
        Regime::BurstSkew => burst_skew(cfg, world, kb, rng),
        Regime::Noisy => noisy(cfg, world, kb, rng),
    }
}

/// Company-to-company predicates safe for any subject/object pair.
const EVENT_PREDS: [OntologyPredicate; 4] = [
    OntologyPredicate::PartneredWith,
    OntologyPredicate::InvestedIn,
    OntologyPredicate::SuppliesTo,
    OntologyPredicate::Acquired,
];

/// Render one fact through an unambiguous active template (a subset of
/// the main generator's surface forms, variant-selected not rng-driven).
fn sentence(pred: OntologyPredicate, s: &str, o: &str, day: u64, variant: usize) -> String {
    use OntologyPredicate as P;
    match pred {
        // Only the *seeded* surface form ("base_in", see
        // `nous_core::seeds`): synonyms like "headquartered in" are
        // learned by mapper expansion, which smoke-sized streams are too
        // short to trigger — and a scenario must admit deterministically.
        P::IsLocatedIn => {
            let _ = variant;
            format!("{s} is based in {o}.")
        }
        P::Acquired => format!("{s} acquired {o} in {}.", render_date(day)),
        P::InvestedIn => format!("{s} invested in {o}."),
        P::PartneredWith => format!("{s} partnered with {o}."),
        P::SuppliesTo => format!("{s} supplies to {o}."),
        P::CompetesWith => format!("{s} competes with {o}."),
        P::FoundedBy => format!("{o} founded {s}."),
        P::Manufactures => format!("{s} makes the {o}."),
        P::Deploys => format!("{s} deployed the {o}."),
    }
}

/// Build an article from pre-rendered sentences + its ground-truth ledger.
fn article(id: u64, day: u64, sentences: Vec<String>, facts: Vec<GroundFact>) -> Article {
    let headline = facts
        .first()
        .map(|f| format!("{} {} {}", f.subject, f.predicate.name(), f.object))
        .unwrap_or_else(|| "Market roundup".to_owned());
    Article {
        id,
        day,
        headline,
        body: sentences.join(" "),
        facts,
    }
}

/// A single-fact article; records the fact in the oracle.
#[allow(clippy::too_many_arguments)]
fn fact_article(
    id: u64,
    day: u64,
    pred: OntologyPredicate,
    s: &str,
    o: &str,
    variant: usize,
    oracle: &mut Oracle,
) -> Article {
    oracle.assert_fact(day, s, pred, o);
    article(
        id,
        day,
        vec![sentence(pred, s, o, day, variant)],
        vec![GroundFact {
            subject: s.to_owned(),
            predicate: pred,
            object: o.to_owned(),
            day,
        }],
    )
}

/// Finalise a `(day, sentences, facts)` draft list into the sorted,
/// id-stamped stream. Stable sort: same-day articles keep emit order.
fn finalize(mut drafts: Vec<Article>) -> Vec<Article> {
    drafts.sort_by_key(|a| a.day);
    for (id, a) in drafts.iter_mut().enumerate() {
        a.id = id as u64;
        for f in &mut a.facts {
            debug_assert_eq!(f.day, a.day);
        }
    }
    drafts
}

/// Names guaranteed absent from the base world: heads disjoint from
/// `vocab::COMPANY_HEADS`, suffixes drawn from the NER org-suffix list so
/// heuristic typing still works without a gazetteer entry.
const EMERGING_HEADS: [&str; 8] = [
    "Zephyra",
    "Quantara",
    "Veloria",
    "Noctilus",
    "Brightgale",
    "Solstara",
    "Kestrelline",
    "Auroria",
];
const EMERGING_SUFFIXES: [&str; 4] = ["Robotics", "Systems", "Labs", "Aerospace"];

/// Emerging entities: the first half of the stream narrates the known
/// world; from `emerge_day` on, brand-new companies (unknown to world,
/// KB and gazetteer) drive the facts, so the pipeline must type them
/// heuristically, mint vertices mid-stream and serve queries about them.
fn emerging(cfg: &ScenarioConfig, world: World, kb: CuratedKb, mut rng: StdRng) -> Scenario {
    let emerge_day = cfg.days / 2;
    let n_emerging = (cfg.companies / 3).clamp(2, EMERGING_HEADS.len());
    let emerging_names: Vec<String> = (0..n_emerging)
        .map(|i| {
            format!(
                "{} {}",
                EMERGING_HEADS[i],
                EMERGING_SUFFIXES[i % EMERGING_SUFFIXES.len()]
            )
        })
        .collect();

    let mut oracle = Oracle::default();
    let mut drafts = Vec::with_capacity(cfg.articles);
    let pre = cfg.articles / 2;
    let post = cfg.articles - pre;

    // Phase 1: steady state over the known world.
    for i in 0..pre {
        let day = (i as u64 * emerge_day.saturating_sub(1)) / (pre as u64).max(1);
        let pred = EVENT_PREDS[rng.gen_range(0..EVENT_PREDS.len())];
        let (s, o) = distinct_pair(&world, &mut rng);
        drafts.push(fact_article(0, day, pred, s, o, i, &mut oracle));
    }

    // Phase 2: the newcomers arrive and dominate the news.
    for i in 0..post {
        let day = emerge_day + (i as u64 * (cfg.days - emerge_day)) / (post as u64).max(1);
        let subject = &emerging_names[i % emerging_names.len()];
        let object = company_name(&world, &mut rng);
        let pred = if i % 3 == 0 {
            OntologyPredicate::Acquired
        } else {
            OntologyPredicate::PartneredWith
        };
        drafts.push(fact_article(0, day, pred, subject, object, i, &mut oracle));
    }

    Scenario {
        regime: cfg.regime,
        world,
        kb,
        articles: finalize(drafts),
        oracle,
        emerging: emerging_names,
        emerge_day,
        noisy_docs: Vec::new(),
        hot_entity: None,
    }
}

/// Contradiction/revision: half the companies relocate (twice). Their
/// curated HQ triples are *removed* from the KB so the superseded fact is
/// an extracted edge revision can tombstone; each move is followed by
/// confirmations of the new location, which both reinforce it and decay
/// the old one below the policy floor.
fn contradiction(
    cfg: &ScenarioConfig,
    world: World,
    mut kb: CuratedKb,
    mut rng: StdRng,
) -> Scenario {
    let movers: Vec<usize> = world.companies.iter().copied().step_by(2).collect();
    let mover_set: BTreeSet<usize> = movers.iter().copied().collect();
    kb.triples.retain(|t| {
        !(t.predicate == OntologyPredicate::IsLocatedIn && mover_set.contains(&t.subject))
    });

    let mut oracle = Oracle::default();
    let mut drafts = Vec::new();
    let loc = OntologyPredicate::IsLocatedIn;
    for (k, &m) in movers.iter().enumerate() {
        let name = world.entity(m).name.clone();
        let mut cities = world.locations.clone();
        cities.shuffle(&mut rng);
        let homes: Vec<String> = cities
            .iter()
            .take(3)
            .map(|&c| world.entity(c).name.clone())
            .collect();
        let spread = |phase: u64, k: u64| phase * cfg.days / 4 + (k % 7) * (cfg.days / 64).max(1);
        // Initial HQ, then two relocations, each echoed twice.
        let d0 = spread(0, k as u64);
        oracle.assert_fact(d0, &name, loc, &homes[0]);
        drafts.push(article(
            0,
            d0,
            vec![sentence(loc, &name, &homes[0], d0, 0)],
            vec![ground(&name, loc, &homes[0], d0)],
        ));
        for (mv, home) in homes.iter().enumerate().skip(1) {
            let d = spread(mv as u64, k as u64);
            oracle.retract_fact(d, &name, loc, &homes[mv - 1]);
            oracle.assert_fact(d, &name, loc, home);
            drafts.push(article(
                0,
                d,
                vec![sentence(loc, &name, home, d, 0)],
                vec![ground(&name, loc, home, d)],
            ));
            for echo in 1..3u64 {
                let de = d + echo * (cfg.days / 32).max(1);
                drafts.push(article(
                    0,
                    de,
                    vec![sentence(loc, &name, home, de, echo as usize)],
                    vec![ground(&name, loc, home, de)],
                ));
            }
        }
    }

    // Filler facts about non-movers keep the stream realistic and give
    // precision/recall some stable mass.
    let filler = cfg.articles.saturating_sub(drafts.len());
    for i in 0..filler {
        let day = (i as u64 * cfg.days) / (filler as u64).max(1);
        let pred = EVENT_PREDS[rng.gen_range(0..EVENT_PREDS.len())];
        let (s, o) = distinct_pair(&world, &mut rng);
        drafts.push(fact_article(0, day, pred, s, o, i, &mut oracle));
    }

    Scenario {
        regime: cfg.regime,
        world,
        kb,
        articles: finalize(drafts),
        oracle,
        emerging: Vec::new(),
        emerge_day: 0,
        noisy_docs: Vec::new(),
        hot_entity: None,
    }
}

/// Burst/skew arrival: ~70% of articles land on three burst days
/// (open-loop overload) and ~70% of facts involve one hot company
/// (hot-key skew). Repeated hot pairs exercise reinforcement dedup.
fn burst_skew(cfg: &ScenarioConfig, world: World, kb: CuratedKb, mut rng: StdRng) -> Scenario {
    let hot = world.companies[0];
    let hot_name = world.entity(hot).name.clone();
    let burst_days = [cfg.days / 4, cfg.days / 2, 3 * cfg.days / 4];

    let mut oracle = Oracle::default();
    let mut drafts = Vec::with_capacity(cfg.articles);
    for i in 0..cfg.articles {
        let day = if rng.gen_bool(0.7) {
            burst_days[rng.gen_range(0..burst_days.len())]
        } else {
            rng.gen_range(0..cfg.days)
        };
        let pred = EVENT_PREDS[rng.gen_range(0..EVENT_PREDS.len())];
        let (s, o) = if rng.gen_bool(0.7) {
            // Hot as subject (or object, keeping the pair distinct).
            let other = company_name_not(&world, &mut rng, hot);
            if rng.gen_bool(0.7) {
                (hot_name.as_str(), other)
            } else {
                (other, hot_name.as_str())
            }
        } else {
            distinct_pair(&world, &mut rng)
        };
        drafts.push(fact_article(0, day, pred, s, o, i, &mut oracle));
    }

    Scenario {
        regime: cfg.regime,
        world,
        kb,
        articles: finalize(drafts),
        oracle,
        emerging: Vec::new(),
        emerge_day: 0,
        noisy_docs: Vec::new(),
        hot_entity: Some(hot_name),
    }
}

/// Noisy extraction: ~40% of documents are malformed or adversarial —
/// symbol garbage, negated claims, self-loops, pronoun soup, misleading
/// unicode — interleaved with clean fact articles. The oracle contains
/// only the clean facts, so admitted junk shows up as lost precision.
fn noisy(cfg: &ScenarioConfig, world: World, kb: CuratedKb, mut rng: StdRng) -> Scenario {
    let mut oracle = Oracle::default();
    let mut drafts = Vec::with_capacity(cfg.articles);
    let mut noisy_flags: Vec<bool> = Vec::with_capacity(cfg.articles);
    for i in 0..cfg.articles {
        let day = (i as u64 * cfg.days) / (cfg.articles as u64 - 1).max(1);
        let is_noise = rng.gen_bool(0.4);
        noisy_flags.push(is_noise);
        if !is_noise {
            let pred = EVENT_PREDS[rng.gen_range(0..EVENT_PREDS.len())];
            let (s, o) = distinct_pair(&world, &mut rng);
            drafts.push(fact_article(0, day, pred, s, o, i, &mut oracle));
            continue;
        }
        let (s, o) = distinct_pair(&world, &mut rng);
        let body = match i % 6 {
            0 => "%%% ### @@@ ~~~ ||| ^^^ &&& *** $$$ !!!".to_owned(),
            1 => format!("信頼性 ▒▒▒ Ω≈ç√∫ \u{202e}γκρ {s} ??? 🛰️."),
            2 => format!("{s} never acquired {o}."),
            3 => format!("{s} acquired {s} in {}.", render_date(day)),
            4 => "It acquired them. They partnered with it. He invested in her.".to_owned(),
            _ => format!(
                "the market moved sideways and {} analysts kept talking without pause or punctuation about nothing in particular all {} day long",
                s.to_lowercase(),
                o.to_lowercase()
            ),
        };
        drafts.push(article(0, day, vec![body], Vec::new()));
    }

    let articles = finalize(drafts);
    // `finalize` keeps emit order within a day, so flags align by index.
    let noisy_docs: Vec<u64> = articles
        .iter()
        .zip(&noisy_flags)
        .filter(|(_, &flag)| flag)
        .map(|(a, _)| a.id)
        .collect();

    Scenario {
        regime: cfg.regime,
        world,
        kb,
        articles,
        oracle,
        emerging: Vec::new(),
        emerge_day: 0,
        noisy_docs,
        hot_entity: None,
    }
}

fn ground(s: &str, p: OntologyPredicate, o: &str, day: u64) -> GroundFact {
    GroundFact {
        subject: s.to_owned(),
        predicate: p,
        object: o.to_owned(),
        day,
    }
}

fn company_name<'a>(world: &'a World, rng: &mut StdRng) -> &'a str {
    let idx = *world.companies.choose(rng).expect("companies");
    &world.entity(idx).name
}

fn company_name_not<'a>(world: &'a World, rng: &mut StdRng, not: usize) -> &'a str {
    let mut idx = *world.companies.choose(rng).expect("companies");
    let mut guard = 0;
    while idx == not && guard < 16 {
        idx = *world.companies.choose(rng).expect("companies");
        guard += 1;
    }
    &world.entity(idx).name
}

fn distinct_pair<'a>(world: &'a World, rng: &mut StdRng) -> (&'a str, &'a str) {
    let s = *world.companies.choose(rng).expect("companies");
    let o_name = company_name_not(world, rng, s);
    (&world.entity(s).name, o_name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_json(cfg: &ScenarioConfig) -> String {
        serde_json::to_string(&generate(cfg).articles).expect("serialize")
    }

    #[test]
    fn every_regime_is_deterministic_per_seed() {
        for regime in Regime::ALL {
            let cfg = ScenarioConfig::smoke(regime);
            assert_eq!(
                stream_json(&cfg),
                stream_json(&cfg),
                "{} must be byte-identical for a fixed seed",
                regime.name()
            );
            let other = cfg.clone().with_seed(999);
            assert_ne!(
                stream_json(&cfg),
                stream_json(&other),
                "{} must vary with the seed",
                regime.name()
            );
        }
    }

    #[test]
    fn streams_are_sorted_and_ids_match_positions() {
        for regime in Regime::ALL {
            let s = generate(&ScenarioConfig::smoke(regime));
            assert!(s.articles.windows(2).all(|w| w[0].day <= w[1].day));
            for (i, a) in s.articles.iter().enumerate() {
                assert_eq!(a.id, i as u64);
            }
        }
    }

    #[test]
    fn emerging_entities_are_unknown_to_the_world() {
        let s = generate(&ScenarioConfig::smoke(Regime::Emerging));
        assert!(!s.emerging.is_empty());
        for name in &s.emerging {
            assert!(s.world.by_name(name).is_none(), "{name} leaked into world");
        }
        // They only appear from emerge_day on.
        for a in &s.articles {
            if a.day < s.emerge_day {
                for name in &s.emerging {
                    assert!(!a.body.contains(name.as_str()));
                }
            }
        }
        assert!(s
            .articles
            .iter()
            .any(|a| s.emerging.iter().any(|n| a.body.contains(n.as_str()))));
    }

    #[test]
    fn contradiction_oracle_retracts_superseded_homes() {
        let cfg = ScenarioConfig::smoke(Regime::Contradiction);
        let s = generate(&cfg);
        // Movers lost their curated HQ triple.
        let mover = s
            .oracle
            .events
            .iter()
            .find(|e| e.predicate == OntologyPredicate::IsLocatedIn && !e.asserted)
            .expect("at least one retraction");
        // The first home is true early, gone at the horizon.
        let early = s.oracle.truth_at(mover.day - 1);
        let late = s.oracle.truth_at(cfg.days);
        let key = (
            mover.subject.clone(),
            "isLocatedIn".to_owned(),
            mover.object.clone(),
        );
        assert!(early.contains(&key), "home true before the move");
        assert!(!late.contains(&key), "home retracted at the horizon");
        assert!(s.oracle.retracted_by(cfg.days).contains(&key));
        // Exactly one location per mover remains at the horizon.
        let subjects: BTreeSet<&String> = late
            .iter()
            .filter(|(_, p, _)| p == "isLocatedIn")
            .map(|(s, _, _)| s)
            .collect();
        for subj in subjects {
            let homes = late
                .iter()
                .filter(|(s, p, _)| s == subj && p == "isLocatedIn")
                .count();
            assert_eq!(homes, 1, "{subj} must have one true home");
        }
    }

    #[test]
    fn burst_skew_concentrates_arrival_and_subject() {
        let cfg = ScenarioConfig::smoke(Regime::BurstSkew);
        let s = generate(&cfg);
        let hot = s.hot_entity.as_deref().expect("hot entity");
        let burst_days = [cfg.days / 4, cfg.days / 2, 3 * cfg.days / 4];
        let on_burst = s
            .articles
            .iter()
            .filter(|a| burst_days.contains(&a.day))
            .count();
        assert!(
            on_burst * 2 > s.articles.len(),
            "bursts must carry most arrivals ({on_burst}/{})",
            s.articles.len()
        );
        let hot_facts = s
            .articles
            .iter()
            .flat_map(|a| &a.facts)
            .filter(|f| f.subject == hot || f.object == hot)
            .count();
        let total: usize = s.articles.iter().map(|a| a.facts.len()).sum();
        assert!(hot_facts * 2 > total, "hot key must dominate");
    }

    #[test]
    fn noisy_marks_malformed_docs_and_keeps_oracle_clean() {
        let s = generate(&ScenarioConfig::smoke(Regime::Noisy));
        assert!(!s.noisy_docs.is_empty());
        let noisy: BTreeSet<u64> = s.noisy_docs.iter().copied().collect();
        for a in &s.articles {
            if noisy.contains(&a.id) {
                assert!(a.facts.is_empty(), "noise docs carry no ground truth");
            } else {
                assert!(!a.facts.is_empty(), "clean docs narrate a fact");
            }
        }
        // Oracle truth equals the union of clean-article facts.
        let truth = s.oracle.truth_at(u64::MAX);
        for a in s.articles.iter().filter(|a| !noisy.contains(&a.id)) {
            for f in &a.facts {
                assert!(truth.contains(&(
                    f.subject.clone(),
                    f.predicate.name().to_owned(),
                    f.object.clone()
                )));
            }
        }
    }

    #[test]
    fn seed_env_helper_parses() {
        // No env manipulation (tests run in parallel): only check the
        // fallback path when the variable is absent or unparseable.
        if std::env::var("NOUS_SCENARIO_SEED").is_err() {
            assert_eq!(seed_from_env(42), 42);
        }
    }
}
