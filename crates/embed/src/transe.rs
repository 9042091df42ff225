//! TransE baseline (Bordes et al. 2013) for the link-prediction benchmark.
//!
//! One shared entity-embedding table plus a translation vector per
//! predicate; the plausibility of `(s, p, o)` is `−‖e_s + r_p − e_o‖₂`.
//! Trained with margin ranking against corrupted objects. This is the
//! standard whole-graph alternative to the paper's per-predicate BPR
//! choice, and the comparison point for experiment E8.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TransEConfig {
    pub dim: usize,
    pub lr: f32,
    pub margin: f32,
    pub epochs: usize,
    pub seed: u64,
}

impl Default for TransEConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            lr: 0.05,
            margin: 1.0,
            epochs: 60,
            seed: 23,
        }
    }
}

/// A trained TransE model over `(subject, predicate, object)` id triples.
#[derive(Debug, Clone)]
pub struct TransEModel {
    dim: usize,
    entities: Vec<f32>,
    relations: Vec<f32>,
    n_entities: usize,
    n_relations: usize,
}

impl TransEModel {
    pub fn train(
        n_entities: usize,
        n_relations: usize,
        triples: &[(u32, u32, u32)],
        cfg: &TransEConfig,
    ) -> TransEModel {
        assert!(cfg.dim > 0, "dim must be positive");
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xbb67_ae85_84ca_a73b);
        let d = cfg.dim;
        let scale = 6.0 / (d as f32).sqrt();
        let mut entities = vec![0f32; n_entities * d];
        let mut relations = vec![0f32; n_relations * d];
        for w in entities.iter_mut().chain(relations.iter_mut()) {
            *w = (rng.gen::<f32>() - 0.5) * scale;
        }
        normalise_rows(&mut entities, d);

        let observed: HashSet<(u32, u32, u32)> = triples.iter().copied().collect();
        let mut order: Vec<usize> = (0..triples.len()).collect();

        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let (s, p, o) = triples[i];
                // Corrupt the object (or subject, 50/50).
                let corrupt_subject = rng.gen_bool(0.5);
                let mut cand = rng.gen_range(0..n_entities as u32);
                let mut guard = 0;
                let corrupted = loop {
                    let t = if corrupt_subject {
                        (cand, p, o)
                    } else {
                        (s, p, cand)
                    };
                    if !observed.contains(&t) || guard >= 10 {
                        break t;
                    }
                    cand = rng.gen_range(0..n_entities as u32);
                    guard += 1;
                };
                if observed.contains(&corrupted) {
                    continue;
                }
                let pos_d = Self::distance(&entities, &relations, d, s, p, o);
                let neg_d = Self::distance(
                    &entities,
                    &relations,
                    d,
                    corrupted.0,
                    corrupted.1,
                    corrupted.2,
                );
                if pos_d + cfg.margin <= neg_d {
                    continue; // already satisfied
                }
                Self::sgd_step(&mut entities, &mut relations, d, (s, p, o), corrupted, cfg);
            }
            normalise_rows(&mut entities, d);
        }

        TransEModel {
            dim: d,
            entities,
            relations,
            n_entities,
            n_relations,
        }
    }

    fn distance(ent: &[f32], rel: &[f32], d: usize, s: u32, p: u32, o: u32) -> f32 {
        let sb = s as usize * d;
        let pb = p as usize * d;
        let ob = o as usize * d;
        (0..d)
            .map(|i| {
                let x = ent[sb + i] + rel[pb + i] - ent[ob + i];
                x * x
            })
            .sum::<f32>()
            .sqrt()
    }

    #[allow(clippy::too_many_arguments)]
    fn sgd_step(
        ent: &mut [f32],
        rel: &mut [f32],
        d: usize,
        pos: (u32, u32, u32),
        neg: (u32, u32, u32),
        cfg: &TransEConfig,
    ) {
        // Gradient of ‖s + r − o‖ wrt each component, for pos (descend) and
        // neg (ascend).
        for (sign, (s, p, o)) in [(1.0f32, pos), (-1.0f32, neg)] {
            let sb = s as usize * d;
            let pb = p as usize * d;
            let ob = o as usize * d;
            let dist = Self::distance(ent, rel, d, s, p, o).max(1e-6);
            for i in 0..d {
                let diff = (ent[sb + i] + rel[pb + i] - ent[ob + i]) / dist;
                let step = cfg.lr * sign * diff;
                ent[sb + i] -= step;
                rel[pb + i] -= step;
                ent[ob + i] += step;
            }
        }
    }

    /// Plausibility in `(0, 1)`: squashed negative distance, comparable to
    /// BPR's calibrated score.
    pub fn score(&self, s: u32, p: u32, o: u32) -> f32 {
        let dist = Self::distance(&self.entities, &self.relations, self.dim, s, p, o);
        1.0 / (1.0 + dist)
    }

    pub fn n_entities(&self) -> usize {
        self.n_entities
    }

    pub fn n_relations(&self) -> usize {
        self.n_relations
    }
}

fn normalise_rows(table: &mut [f32], d: usize) {
    for row in table.chunks_mut(d) {
        let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 1.0 {
            for x in row {
                *x /= norm;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ring ground truth: relation 0 connects i -> (i+1) % n.
    fn ring(n: u32) -> Vec<(u32, u32, u32)> {
        (0..n).map(|i| (i, 0, (i + 1) % n)).collect()
    }

    #[test]
    fn scores_in_unit_interval() {
        let t = ring(10);
        let m = TransEModel::train(10, 1, &t, &TransEConfig::default());
        for s in 0..10 {
            for o in 0..10 {
                let p = m.score(s, 0, o);
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn ranks_true_successor_highly() {
        let t = ring(12);
        let m = TransEModel::train(12, 1, &t, &TransEConfig::default());
        let mut wins = 0;
        let mut total = 0;
        for s in 0..12u32 {
            let true_o = (s + 1) % 12;
            for o in 0..12u32 {
                if o != true_o && o != s {
                    total += 1;
                    if m.score(s, 0, true_o) > m.score(s, 0, o) {
                        wins += 1;
                    }
                }
            }
        }
        let acc = wins as f64 / total as f64;
        assert!(acc > 0.7, "TransE ranking accuracy too low: {acc:.2}");
    }

    #[test]
    fn deterministic_in_seed() {
        let t = ring(8);
        let a = TransEModel::train(8, 1, &t, &TransEConfig::default());
        let b = TransEModel::train(8, 1, &t, &TransEConfig::default());
        assert_eq!(a.score(0, 0, 1), b.score(0, 0, 1));
    }

    #[test]
    fn multiple_relations_are_separated() {
        // r0: i -> i+1 ; r1: i -> i+2 (mod n).
        let n = 10u32;
        let mut triples = Vec::new();
        for i in 0..n {
            triples.push((i, 0, (i + 1) % n));
            triples.push((i, 1, (i + 2) % n));
        }
        let m = TransEModel::train(10, 2, &triples, &TransEConfig::default());
        let mut wins = 0;
        for i in 0..n {
            if m.score(i, 0, (i + 1) % n) > m.score(i, 0, (i + 2) % n) {
                wins += 1;
            }
        }
        assert!(wins >= 6, "relation separation too weak: {wins}/10");
    }
}
