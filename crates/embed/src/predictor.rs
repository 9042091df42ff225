//! The per-predicate model bank the ingestion pipeline queries.
//!
//! "For every predicate we build a latent feature embedding model" (§3.4):
//! [`LinkPredictor`] trains one [`BprModel`] per predicate from the current
//! state of the knowledge graph, then scores incoming candidate triples.
//! Predicates with too few observations fall back to a prior score rather
//! than an untrained model. [`PredictorMode::Global`] is the E8 ablation:
//! a single model pooled across predicates.

use crate::bpr::{BprConfig, BprModel};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-predicate vs. pooled training (the paper does per-predicate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PredictorMode {
    PerPredicate,
    /// Ablation: ignore the predicate, one model for all edges.
    Global,
}

/// Bank of link-prediction models keyed by predicate name.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
        self.n_entities = n_entities;
        self.models.clear();
        self.global = None;
        match self.mode {
            PredictorMode::Global => {
                let pairs: Vec<(u32, u32)> = triples.iter().map(|(_, s, o)| (*s, *o)).collect();
                if pairs.len() >= self.min_support {
                    self.global = Some(BprModel::train(n_entities, &pairs, &self.cfg));
                }
            }
            PredictorMode::PerPredicate => {
                let mut by_pred: HashMap<&str, Vec<(u32, u32)>> = HashMap::new();
                for (p, s, o) in triples {
                    by_pred.entry(p.as_ref()).or_default().push((*s, *o));
                }
                // Deterministic training order (HashMap iteration is not).
                let mut preds: Vec<&str> = by_pred.keys().copied().collect();
                preds.sort_unstable();
                for p in preds {
                    let pairs = &by_pred[p];
                    if pairs.len() >= self.min_support {
                        // Derive a per-predicate seed so models differ.
                        let mut cfg = self.cfg.clone();
                        cfg.seed ^= p
                            .bytes()
                            .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
                        self.models
                            .insert(p.to_owned(), BprModel::train(n_entities, pairs, &cfg));
                    }
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

    #[test]
    fn fit_is_deterministic() {
        let mut a = LinkPredictor::new(PredictorMode::PerPredicate, BprConfig::default());
        let mut b = LinkPredictor::new(PredictorMode::PerPredicate, BprConfig::default());
        a.fit(10, &corpus(10));
        b.fit(10, &corpus(10));
        assert_eq!(a.score("likes", 0, 2), b.score("likes", 0, 2));
    }
}
