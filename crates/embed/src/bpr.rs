//! Bayesian Personalized Ranking matrix factorisation for one predicate.
//!
//! The model holds subject and object embeddings `S, O ∈ R^{n×d}`; the
//! affinity of a candidate triple `(s, p, o)` under predicate `p`'s model is
//! `σ(S_s · O_o)`. Training maximises the BPR criterion (Rendle et al.
//! 2009): for every observed pair `(s, o⁺)` and a sampled unobserved object
//! `o⁻`, ascend `ln σ(x_{so⁺} − x_{so⁻})` with L2 regularisation — exactly
//! the per-predicate construction of the paper's reference \[16\].

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct BprConfig {
    /// Latent dimensionality `d`.
    pub dim: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// L2 regularisation strength.
    pub reg: f32,
    /// Full passes over the positive set.
    pub epochs: usize,
    /// Negative objects sampled per positive per epoch.
    pub negatives: usize,
    pub seed: u64,
}

impl Default for BprConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            lr: 0.05,
            reg: 0.01,
            epochs: 40,
            negatives: 4,
            seed: 17,
        }
    }
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// A trained per-predicate BPR model.
#[derive(Debug, Clone)]
pub struct BprModel {
    dim: usize,
    /// Row-major `n × d` subject embeddings.
    subj: Vec<f32>,
    /// Row-major `n × d` object embeddings.
    obj: Vec<f32>,
    n_entities: usize,
    /// Mean raw score over training positives (used as calibration probe).
    train_mean_score: f32,
}

impl BprModel {
    /// Train on observed `(subject, object)` pairs over an entity space of
    /// size `n_entities`. Ids must be `< n_entities`.
    pub fn train(n_entities: usize, positives: &[(u32, u32)], cfg: &BprConfig) -> BprModel {
        let mut fit = BprFit::new(n_entities, positives, cfg.clone());
        fit.run();
        fit.finish()
    }

    /// One BPR ascent step on `(s, o⁺, o⁻)`, over the three rows it
    /// touches. `o_neg != o_pos` (the sampler only returns objects `s` was
    /// never observed with), so the two object rows are disjoint.
    #[inline]
    fn sgd_step(
        subj: &mut [f32],
        obj: &mut [f32],
        d: usize,
        s: u32,
        o_pos: u32,
        o_neg: u32,
        cfg: &BprConfig,
    ) {
        let (lr, reg) = (cfg.lr, cfg.reg);
        let srow = &mut subj[s as usize * d..][..d];
        let (prow, nrow) = two_rows(obj, d, o_pos as usize, o_neg as usize);
        let mut x = 0f32;
        for ((&su, &po), &no) in srow.iter().zip(prow.iter()).zip(nrow.iter()) {
            x += su * (po - no);
        }
        // d/dθ of -ln σ(x): -(1-σ(x)) ∂x/∂θ
        let g = 1.0 - sigmoid(x);
        for ((su, po), no) in srow.iter_mut().zip(prow.iter_mut()).zip(nrow.iter_mut()) {
            let (s0, p0, n0) = (*su, *po, *no);
            *su += lr * (g * (p0 - n0) - reg * s0);
            *po += lr * (g * s0 - reg * p0);
            *no += lr * (-g * s0 - reg * n0);
        }
    }

    /// Raw (uncalibrated) affinity `S_s · O_o`.
    pub fn raw(&self, s: u32, o: u32) -> f32 {
        dot(&self.subj, &self.obj, self.dim, s, o)
    }

    /// Calibrated confidence in `(0, 1)`: `σ(raw)` — "the model produces a
    /// real-valued score between 0 and 1" (§3.4).
    pub fn score(&self, s: u32, o: u32) -> f32 {
        sigmoid(self.raw(s, o))
    }

    pub fn n_entities(&self) -> usize {
        self.n_entities
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Mean raw score the model assigns to its training positives.
    pub fn train_mean_score(&self) -> f32 {
        self.train_mean_score
    }
}

/// `S_s · O_o` over row-major `n × d` tables.
#[inline]
fn dot(subj: &[f32], obj: &[f32], d: usize, s: u32, o: u32) -> f32 {
    let sb = s as usize * d;
    let ob = o as usize * d;
    (0..d).map(|i| subj[sb + i] * obj[ob + i]).sum()
}

/// Rows `a` and `b` of a row-major table with rows of `d`; panics
/// unless `a != b`.
#[inline]
fn two_rows(table: &mut [f32], d: usize, a: usize, b: usize) -> (&mut [f32], &mut [f32]) {
    if a < b {
        let (lo, hi) = table.split_at_mut(b * d);
        (&mut lo[a * d..][..d], &mut hi[..d])
    } else {
        let (lo, hi) = table.split_at_mut(a * d);
        (&mut hi[..d], &mut lo[b * d..][..d])
    }
}

/// Stable counting sort of `(key, value)` items with keys `< keys`:
/// `values[starts[k]..starts[k + 1]]` are key `k`'s values, in item order.
pub(crate) fn group_by_key<T: Copy + Default>(
    keys: usize,
    items: impl Iterator<Item = (u32, T)> + Clone,
) -> (Vec<usize>, Vec<T>) {
    let mut starts = vec![0usize; keys + 1];
    for (k, _) in items.clone() {
        starts[k as usize + 1] += 1;
    }
    for k in 0..keys {
        starts[k + 1] += starts[k];
    }
    let mut fill = starts.clone();
    let mut values = vec![T::default(); starts[keys]];
    for (k, v) in items {
        values[fill[k as usize]] = v;
        fill[k as usize] += 1;
    }
    (starts, values)
}

/// One model's training, split so that [`BprFit::new`] does every
/// allocation and [`BprFit::run`], the SGD itself, does none.
/// `LinkPredictor`'s fit builds each predicate's `BprFit` on the calling
/// thread and runs them on worker threads: a worker that never calls the
/// allocator never gets a malloc arena of its own.
pub(crate) struct BprFit<'a> {
    positives: &'a [(u32, u32)],
    cfg: BprConfig,
    n_entities: usize,
    subj: Vec<f32>,
    obj: Vec<f32>,
    /// Observed pairs by subject (CSR): `objects[starts[s]..starts[s + 1]]`
    /// are the objects observed with `s`, sorted.
    starts: Vec<usize>,
    objects: Vec<u32>,
    /// Visit order over `positives`, reshuffled every epoch.
    order: Vec<usize>,
    train_mean_score: f32,
}

impl<'a> BprFit<'a> {
    pub(crate) fn new(n_entities: usize, positives: &'a [(u32, u32)], cfg: BprConfig) -> Self {
        assert!(cfg.dim > 0, "dim must be positive");
        let (starts, mut objects) = group_by_key(n_entities, positives.iter().copied());
        for s in 0..n_entities {
            objects[starts[s]..starts[s + 1]].sort_unstable();
        }
        let table = n_entities * cfg.dim;
        Self {
            positives,
            cfg,
            n_entities,
            subj: vec![0f32; table],
            obj: vec![0f32; table],
            starts,
            objects,
            order: (0..positives.len()).collect(),
            train_mean_score: 0.0,
        }
    }

    /// Observed pairs this model trains on.
    pub(crate) fn positives(&self) -> usize {
        self.positives.len()
    }

    /// Initialise the factor tables and run every SGD epoch.
    pub(crate) fn run(&mut self) {
        let Self {
            positives,
            cfg,
            n_entities,
            subj,
            obj,
            starts,
            objects,
            order,
            train_mean_score,
        } = self;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6a09_e667_f3bc_c909);
        let d = cfg.dim;
        let scale = 1.0 / (d as f32).sqrt();
        for w in subj.iter_mut().chain(obj.iter_mut()) {
            *w = (rng.gen::<f32>() - 0.5) * scale;
        }

        let n = *n_entities as u32;
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for &idx in order.iter() {
                let (s, o_pos) = positives[idx];
                let seen = &objects[starts[s as usize]..starts[s as usize + 1]];
                for _ in 0..cfg.negatives {
                    // Sample an unobserved object for this subject.
                    let mut o_neg = rng.gen_range(0..n);
                    let mut observed = seen.binary_search(&o_neg).is_ok();
                    let mut guard = 0;
                    while observed && guard < 10 {
                        o_neg = rng.gen_range(0..n);
                        observed = seen.binary_search(&o_neg).is_ok();
                        guard += 1;
                    }
                    if observed {
                        continue;
                    }
                    BprModel::sgd_step(subj, obj, d, s, o_pos, o_neg, cfg);
                }
            }
        }

        if !positives.is_empty() {
            *train_mean_score = positives
                .iter()
                .map(|&(s, o)| dot(subj, obj, d, s, o))
                .sum::<f32>()
                / positives.len() as f32;
        }
    }

    pub(crate) fn finish(self) -> BprModel {
        BprModel {
            dim: self.cfg.dim,
            subj: self.subj,
            obj: self.obj,
            n_entities: self.n_entities,
            train_mean_score: self.train_mean_score,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bipartite ground truth: even subjects link to even objects, odd to
    /// odd. Learnable with rank-2 structure.
    fn parity_positives(n: u32) -> Vec<(u32, u32)> {
        let mut pos = Vec::new();
        for s in 0..n {
            for o in 0..n {
                if s != o && s % 2 == o % 2 {
                    pos.push((s, o));
                }
            }
        }
        pos
    }

    #[test]
    fn parity_model_bits_are_pinned() {
        // How the SGD step reads and writes the factor rows must leave
        // every trained weight bit-identical: each score is one dot
        // product over them.
        let pos = parity_positives(10);
        let m = BprModel::train(10, &pos, &BprConfig::default());
        // FNV-1a over the raw score bits of every `(s, o)`, then the
        // training mean.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let scores = (0..10).flat_map(|s| (0..10).map(move |o| (s, o)));
        for x in scores
            .map(|(s, o)| m.raw(s, o))
            .chain([m.train_mean_score()])
        {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        // Recorded from the index-addressed step.
        assert_eq!(h, 0x8e78_2a34_09f6_fceb);
    }

    #[test]
    fn scores_are_probabilities() {
        let pos = parity_positives(10);
        let m = BprModel::train(10, &pos, &BprConfig::default());
        for s in 0..10 {
            for o in 0..10 {
                let p = m.score(s, o);
                assert!((0.0..=1.0).contains(&p), "score {p} out of range");
            }
        }
    }

    #[test]
    fn learns_to_rank_positives_above_negatives() {
        let pos = parity_positives(12);
        let m = BprModel::train(12, &pos, &BprConfig::default());
        let mut correct = 0;
        let mut total = 0;
        for &(s, o) in &pos {
            // Compare against a wrong-parity object.
            let neg = (o + 1) % 12;
            if s != neg {
                total += 1;
                if m.score(s, o) > m.score(s, neg) {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.85, "pairwise ranking accuracy too low: {acc:.2}");
    }

    #[test]
    fn training_is_deterministic() {
        let pos = parity_positives(8);
        let a = BprModel::train(8, &pos, &BprConfig::default());
        let b = BprModel::train(8, &pos, &BprConfig::default());
        assert_eq!(a.raw(0, 2), b.raw(0, 2));
        let c = BprModel::train(
            8,
            &pos,
            &BprConfig {
                seed: 999,
                ..Default::default()
            },
        );
        assert_ne!(a.raw(0, 2), c.raw(0, 2));
    }

    #[test]
    fn empty_positive_set_trains_trivially() {
        let m = BprModel::train(5, &[], &BprConfig::default());
        let p = m.score(0, 1);
        assert!((0.0..=1.0).contains(&p));
        assert_eq!(m.train_mean_score(), 0.0);
    }

    #[test]
    fn mean_train_score_is_positive_after_training() {
        let pos = parity_positives(10);
        let m = BprModel::train(10, &pos, &BprConfig::default());
        assert!(
            m.train_mean_score() > 0.0,
            "training should push positives above zero: {}",
            m.train_mean_score()
        );
    }

    #[test]
    #[should_panic(expected = "dim must be positive")]
    fn zero_dim_rejected() {
        BprModel::train(
            3,
            &[],
            &BprConfig {
                dim: 0,
                ..Default::default()
            },
        );
    }
}
