//! Per-vertex topic distributions.
//!
//! The paper assigns "a topic distribution to every entity by executing
//! the LDA algorithm on the 'document-term' matrix constructed from the
//! text" attached to each vertex. This index stores those distributions,
//! dense by `VertexId`, with a uniform fallback for vertices that joined
//! the graph without any text yet.

use nous_graph::VertexId;
use serde::{Deserialize, Serialize};

/// Dense per-vertex topic distributions: one flat `k`-wide row per vertex
/// up to the highest one assigned, so [`TopicIndex::get`] — called for
/// every divergence a path search evaluates — is one slice index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopicIndex {
    k: usize,
    /// Row `v` is `rows[v * k..(v + 1) * k]`; unassigned rows hold the
    /// uniform distribution.
    rows: Vec<f64>,
    assigned: Vec<bool>,
    uniform: Vec<f64>,
}

impl TopicIndex {
    /// Create an index for `k` topics.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one topic");
        Self {
            k,
            rows: Vec::new(),
            assigned: Vec::new(),
            uniform: vec![1.0 / k as f64; k],
        }
    }

    pub fn num_topics(&self) -> usize {
        self.k
    }

    /// Set the distribution of a vertex (must have `k` non-negative
    /// components summing to ~1; a sum off by more than 1e-6 is
    /// normalised defensively).
    pub fn set(&mut self, v: VertexId, dist: Vec<f64>) {
        assert_eq!(dist.len(), self.k, "distribution dimensionality mismatch");
        assert!(
            dist.iter().all(|x| x.is_finite() && *x >= 0.0),
            "a distribution has finite non-negative components"
        );
        let sum: f64 = dist.iter().sum();
        let dist = if (sum - 1.0).abs() > 1e-6 && sum > 0.0 {
            dist.iter().map(|x| x / sum).collect()
        } else {
            dist
        };
        let i = v.index();
        while self.assigned.len() <= i {
            self.assigned.push(false);
            self.rows.extend_from_slice(&self.uniform);
        }
        self.assigned[i] = true;
        self.rows[i * self.k..(i + 1) * self.k].copy_from_slice(&dist);
    }

    /// Distribution of `v` (uniform when unknown).
    #[inline]
    pub fn get(&self, v: VertexId) -> &[f64] {
        let at = v.index() * self.k;
        self.rows.get(at..at + self.k).unwrap_or(&self.uniform)
    }

    /// Does `v` have an assigned (non-fallback) distribution?
    pub fn is_assigned(&self, v: VertexId) -> bool {
        self.assigned.get(v.index()).copied().unwrap_or(false)
    }

    /// Number of vertices with assigned distributions.
    pub fn assigned_count(&self) -> usize {
        self.assigned.iter().filter(|&&a| a).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_vertices_are_uniform() {
        let idx = TopicIndex::new(4);
        let d = idx.get(VertexId(42));
        assert_eq!(d, &[0.25; 4]);
        assert!(!idx.is_assigned(VertexId(42)));
    }

    #[test]
    fn set_and_get() {
        let mut idx = TopicIndex::new(2);
        idx.set(VertexId(3), vec![0.9, 0.1]);
        assert_eq!(idx.get(VertexId(3)), &[0.9, 0.1]);
        assert!(idx.is_assigned(VertexId(3)));
        assert_eq!(idx.assigned_count(), 1);
        // Vertices below 3 still uniform, and so is everything past it.
        assert_eq!(idx.get(VertexId(0)), &[0.5, 0.5]);
        assert!(!idx.is_assigned(VertexId(0)));
        assert_eq!(idx.get(VertexId(7)), &[0.5, 0.5]);
        // Re-assigning overwrites in place.
        idx.set(VertexId(0), vec![0.2, 0.8]);
        idx.set(VertexId(3), vec![0.6, 0.4]);
        assert_eq!(idx.get(VertexId(0)), &[0.2, 0.8]);
        assert_eq!(idx.get(VertexId(3)), &[0.6, 0.4]);
        assert_eq!(idx.assigned_count(), 2);
    }

    #[test]
    fn unnormalised_input_is_normalised() {
        let mut idx = TopicIndex::new(2);
        idx.set(VertexId(0), vec![3.0, 1.0]);
        let d = idx.get(VertexId(0));
        assert!((d[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_component_panics() {
        let mut idx = TopicIndex::new(2);
        idx.set(VertexId(0), vec![1.5, -0.5]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dimension_panics() {
        let mut idx = TopicIndex::new(3);
        idx.set(VertexId(0), vec![1.0]);
    }
}
