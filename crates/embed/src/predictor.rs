//! The per-predicate model bank the ingestion pipeline queries.
//!
//! "For every predicate we build a latent feature embedding model" (§3.4):
//! [`LinkPredictor`] trains one [`BprModel`] per predicate from the current
//! state of the knowledge graph, then scores incoming candidate triples.
//! Predicates with too few observations fall back to a prior score rather
//! than an untrained model. [`PredictorMode::Global`] is the E8 ablation:
//! a single model pooled across predicates.

use crate::bpr::{group_by_key, BprConfig, BprFit, BprModel};
use std::collections::HashMap;
use std::sync::Mutex;

/// Per-predicate vs. pooled training (the paper does per-predicate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorMode {
    PerPredicate,
    /// Ablation: ignore the predicate, one model for all edges.
    Global,
}

/// Bank of link-prediction models keyed by predicate name.
#[derive(Debug, Clone)]
pub struct LinkPredictor {
    mode: PredictorMode,
    cfg: BprConfig,
    /// Minimum observations before a predicate gets its own model.
    min_support: usize,
    /// Score returned for predicates without a trained model.
    prior: f32,
    models: HashMap<String, BprModel>,
    global: Option<BprModel>,
    n_entities: usize,
}

impl LinkPredictor {
    pub fn new(mode: PredictorMode, cfg: BprConfig) -> Self {
        Self {
            mode,
            cfg,
            min_support: 5,
            prior: 0.5,
            models: HashMap::new(),
            global: None,
            n_entities: 0,
        }
    }

    /// Override the minimum per-predicate support (default 5).
    pub fn with_min_support(mut self, n: usize) -> Self {
        self.min_support = n;
        self
    }

    /// Train from the current graph state: `(predicate name, subject id,
    /// object id)` triples over `n_entities` entities.
    pub fn fit<S: AsRef<str>>(&mut self, n_entities: usize, triples: &[(S, u32, u32)]) {
        let mut ids: HashMap<&str, u32> = HashMap::new();
        let mut names: Vec<&str> = Vec::new();
        let interned: Vec<(u32, u32, u32)> = triples
            .iter()
            .map(|(p, s, o)| {
                let p = p.as_ref();
                let id = *ids.entry(p).or_insert_with(|| {
                    names.push(p);
                    names.len() as u32 - 1
                });
                (id, *s, *o)
            })
            .collect();
        self.fit_interned(n_entities, &names, &interned);
    }

    /// [`LinkPredictor::fit`] over interned predicates: each triple is
    /// `(predicate id, subject id, object id)`, and `predicates[id]` is
    /// that predicate's name. Names must be distinct.
    ///
    /// The models train in parallel, one lane per available CPU; each
    /// predicate's seed derives from its name alone, so every model is the
    /// one [`BprModel::train`] would give it, whatever the lane count.
    pub fn fit_interned<S: AsRef<str>>(
        &mut self,
        n_entities: usize,
        predicates: &[S],
        triples: &[(u32, u32, u32)],
    ) {
        let lanes = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.fit_in_lanes(n_entities, predicates, triples, lanes);
    }

    fn fit_in_lanes<S: AsRef<str>>(
        &mut self,
        n_entities: usize,
        predicates: &[S],
        triples: &[(u32, u32, u32)],
        lanes: usize,
    ) {
        self.n_entities = n_entities;
        self.models.clear();
        self.global = None;
        match self.mode {
            PredictorMode::Global => {
                let pairs: Vec<(u32, u32)> = triples.iter().map(|&(_, s, o)| (s, o)).collect();
                if pairs.len() >= self.min_support {
                    self.global = Some(BprModel::train(n_entities, &pairs, &self.cfg));
                }
            }
            PredictorMode::PerPredicate => {
                // Stable: each group keeps the triples' order, which the
                // SGD shuffle starts from.
                let (starts, pairs) = group_by_key(
                    predicates.len(),
                    triples.iter().map(|&(p, s, o)| (p, (s, o))),
                );
                // Everything a fit allocates is allocated here, on the
                // calling thread; the lanes only run SGD.
                let mut fits: Vec<(&str, BprFit)> = Vec::new();
                for (p, name) in predicates.iter().enumerate() {
                    let group = &pairs[starts[p]..starts[p + 1]];
                    if group.is_empty() || group.len() < self.min_support {
                        continue;
                    }
                    let name = name.as_ref();
                    // Derive a per-predicate seed so models differ.
                    let mut cfg = self.cfg.clone();
                    cfg.seed ^= name
                        .bytes()
                        .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
                    fits.push((name, BprFit::new(n_entities, group, cfg)));
                }
                fits.sort_by_key(|(_, fit)| std::cmp::Reverse(fit.positives()));
                run_in_lanes(&mut fits, lanes, |(_, fit)| fit.run());
                for (name, fit) in fits {
                    self.models.insert(name.to_owned(), fit.finish());
                }
            }
        }
    }

    /// Confidence for a candidate triple in `(0, 1)`.
    pub fn score(&self, predicate: &str, s: u32, o: u32) -> f32 {
        if s as usize >= self.n_entities || o as usize >= self.n_entities {
            return self.prior;
        }
        match self.mode {
            PredictorMode::Global => self
                .global
                .as_ref()
                .map(|m| m.score(s, o))
                .unwrap_or(self.prior),
            PredictorMode::PerPredicate => self
                .models
                .get(predicate)
                .map(|m| m.score(s, o))
                .unwrap_or(self.prior),
        }
    }

    /// Does `predicate` have a trained model?
    pub fn has_model(&self, predicate: &str) -> bool {
        match self.mode {
            PredictorMode::Global => self.global.is_some(),
            PredictorMode::PerPredicate => self.models.contains_key(predicate),
        }
    }

    pub fn trained_predicates(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.models.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    pub fn mode(&self) -> PredictorMode {
        self.mode
    }
}

/// Run `work` once on every job, in at most `lanes` lanes: the calling
/// thread plus up to `lanes - 1` scoped threads, each taking the next job
/// in slice order until none is left. Put the longest jobs first.
fn run_in_lanes<T: Send>(jobs: &mut [T], lanes: usize, work: impl Fn(&mut T) + Sync) {
    let lanes = lanes.min(jobs.len());
    if lanes <= 1 {
        jobs.iter_mut().for_each(work);
        return;
    }
    let queue = Mutex::new(jobs.iter_mut());
    let lane = || loop {
        let Some(job) = queue.lock().unwrap().next() else {
            break;
        };
        work(job);
    };
    std::thread::scope(|scope| {
        for _ in 1..lanes {
            scope.spawn(lane);
        }
        lane();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two predicates with different structure: "likes" follows parity,
    /// "follows" links i -> i+1.
    fn corpus(n: u32) -> Vec<(String, u32, u32)> {
        let mut t = Vec::new();
        for s in 0..n {
            for o in 0..n {
                if s != o && s % 2 == o % 2 {
                    t.push(("likes".to_owned(), s, o));
                }
            }
            t.push(("follows".to_owned(), s, (s + 1) % n));
        }
        t
    }

    #[test]
    fn per_predicate_models_differ() {
        let mut lp = LinkPredictor::new(PredictorMode::PerPredicate, BprConfig::default());
        lp.fit(10, &corpus(10));
        assert!(lp.has_model("likes"));
        assert!(lp.has_model("follows"));
        assert_eq!(lp.trained_predicates(), vec!["follows", "likes"]);
        // likes(0, 2) should be strong, follows(0, 2) weak.
        assert!(lp.score("likes", 0, 2) > lp.score("follows", 0, 2));
    }

    #[test]
    fn unseen_predicate_gets_prior() {
        let mut lp = LinkPredictor::new(PredictorMode::PerPredicate, BprConfig::default());
        lp.fit(10, &corpus(10));
        assert!(!lp.has_model("owns"));
        assert_eq!(lp.score("owns", 0, 1), 0.5);
    }

    #[test]
    fn low_support_predicates_fall_back() {
        let mut lp = LinkPredictor::new(PredictorMode::PerPredicate, BprConfig::default())
            .with_min_support(100);
        lp.fit(10, &corpus(10));
        assert!(!lp.has_model("follows"), "only ~10 observations, below 100");
    }

    #[test]
    fn out_of_range_entities_get_prior() {
        let mut lp = LinkPredictor::new(PredictorMode::PerPredicate, BprConfig::default());
        lp.fit(10, &corpus(10));
        assert_eq!(lp.score("likes", 50, 2), 0.5);
    }

    #[test]
    fn global_mode_pools_predicates() {
        let mut lp = LinkPredictor::new(PredictorMode::Global, BprConfig::default());
        lp.fit(10, &corpus(10));
        assert!(lp.has_model("anything"));
        let p = lp.score("whatever", 0, 2);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn refit_replaces_models() {
        let mut lp = LinkPredictor::new(PredictorMode::PerPredicate, BprConfig::default());
        lp.fit(10, &corpus(10));
        assert!(lp.has_model("likes"));
        lp.fit::<&str>(10, &[]);
        assert!(!lp.has_model("likes"), "refit on empty data clears models");
    }

    /// Three trained predicates with duplicate pairs, one below
    /// `min_support`, interleaved so each predicate's pairs are scattered
    /// through the triple list. Entity 11 is never a subject.
    fn mixed_corpus() -> Vec<(String, u32, u32)> {
        let mut t = corpus(10);
        for s in 0..10 {
            t.insert(s as usize * 3, ("owns".to_owned(), s, (s * 7 + 3) % 12));
            t.push(("owns".to_owned(), s, (s * 7 + 3) % 12));
        }
        t.push(("likes".to_owned(), 0, 2));
        t.push(("follows".to_owned(), 4, 5));
        t.push(("rare".to_owned(), 1, 11));
        t.push(("rare".to_owned(), 1, 11));
        t
    }

    /// Score bits over every `(s, o)` of every model, plus which models
    /// exist: equal exactly when the two banks hold the same models.
    fn bank_bits(lp: &LinkPredictor, preds: &[&str], n: u32) -> Vec<u32> {
        let mut bits = Vec::new();
        for p in preds {
            bits.push(u32::from(lp.has_model(p)));
            for s in 0..n {
                for o in 0..n {
                    bits.push(lp.score(p, s, o).to_bits());
                }
            }
        }
        bits
    }

    #[test]
    fn fit_matches_per_predicate_training_at_any_lane_count() {
        let n = 12;
        let triples = mixed_corpus();
        let preds = ["follows", "likes", "owns", "rare", "unseen"];
        // The oracle: one `BprModel::train` per predicate, over that
        // predicate's pairs in triple order, seeded by its name.
        let mut oracle = LinkPredictor::new(PredictorMode::PerPredicate, BprConfig::default());
        oracle.n_entities = n;
        for p in preds {
            let pairs: Vec<(u32, u32)> = triples
                .iter()
                .filter(|(q, _, _)| q == p)
                .map(|&(_, s, o)| (s, o))
                .collect();
            if !pairs.is_empty() && pairs.len() >= oracle.min_support {
                let mut cfg = BprConfig::default();
                cfg.seed ^= p
                    .bytes()
                    .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
                oracle
                    .models
                    .insert(p.to_owned(), BprModel::train(n, &pairs, &cfg));
            }
        }
        assert_eq!(
            oracle.trained_predicates(),
            vec!["follows", "likes", "owns"]
        );
        let want = bank_bits(&oracle, &preds, n as u32);

        let mut lp = LinkPredictor::new(PredictorMode::PerPredicate, BprConfig::default());
        lp.fit(n, &triples);
        assert_eq!(bank_bits(&lp, &preds, n as u32), want, "fit");

        let names = ["rare", "owns", "likes", "follows", "unseen"];
        let interned: Vec<(u32, u32, u32)> = triples
            .iter()
            .map(|(p, s, o)| (names.iter().position(|q| q == p).unwrap() as u32, *s, *o))
            .collect();
        for lanes in 1..=3 {
            let mut lp = LinkPredictor::new(PredictorMode::PerPredicate, BprConfig::default());
            lp.fit_in_lanes(n, &names, &interned, lanes);
            assert_eq!(bank_bits(&lp, &preds, n as u32), want, "{lanes} lane(s)");
        }
    }

    #[test]
    fn lanes_run_every_job_exactly_once() {
        for lanes in 1..=3 {
            for jobs in [0, 1, 2, 5] {
                let mut runs = vec![0u32; jobs];
                run_in_lanes(&mut runs, lanes, |r| *r += 1);
                assert_eq!(runs, vec![1; jobs], "{lanes} lane(s), {jobs} job(s)");
            }
        }
    }

    #[test]
    fn fit_is_deterministic() {
        let mut a = LinkPredictor::new(PredictorMode::PerPredicate, BprConfig::default());
        let mut b = LinkPredictor::new(PredictorMode::PerPredicate, BprConfig::default());
        a.fit(10, &corpus(10));
        b.fit(10, &corpus(10));
        assert_eq!(a.score("likes", 0, 2), b.score("likes", 0, 2));
    }
}
