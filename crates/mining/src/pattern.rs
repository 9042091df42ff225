//! Canonical forms for small labelled directed patterns.
//!
//! A [`Pattern`] abstracts an embedding (a concrete set of window edges) to
//! its shape: pattern-local vertex indices with entity-type labels, plus
//! directed predicate-labelled edges. Two embeddings are occurrences of the
//! same pattern iff their canonical forms are equal.
//!
//! Canonicalisation uses invariant refinement + restricted permutation:
//! vertices are bucketed by an isomorphism-invariant key (label, degrees,
//! incident-label multisets); only permutations *within* buckets are tried,
//! and the lexicographically smallest edge list wins. Patterns here are
//! tiny (≤ 3–4 edges), so the residual permutation space is a handful of
//! candidates.

use crate::edge::MinerEdge;
use std::collections::HashMap;

/// A canonicalised pattern: `labels[i]` is the type label of pattern vertex
/// `i`; edges are `(src_idx, dst_idx, elabel)` sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pattern {
    labels: Vec<u32>,
    edges: Vec<(u8, u8, u32)>,
}

impl Pattern {
    /// Number of pattern vertices.
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of pattern edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    pub fn edges(&self) -> &[(u8, u8, u32)] {
        &self.edges
    }

    /// Render with caller-supplied label names, e.g.
    /// `(Company)-[acquired]->(Company), (Company)-[investedIn]->(Company)`.
    pub fn render(
        &self,
        vertex_label: impl Fn(u32) -> String,
        edge_label: impl Fn(u32) -> String,
    ) -> String {
        self.edges
            .iter()
            .map(|&(s, d, l)| {
                format!(
                    "({}#{})-[{}]->({}#{})",
                    vertex_label(self.labels[s as usize]),
                    s,
                    edge_label(l),
                    vertex_label(self.labels[d as usize]),
                    d
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Canonicalise an embedding (non-empty, assumed connected).
    pub fn from_embedding(edges: &[MinerEdge]) -> Pattern {
        assert!(!edges.is_empty(), "empty embedding has no pattern");
        // Collect distinct vertices with labels.
        // A vertex's type label should be consistent across its edges; if a
        // caller ever disagrees with itself, resolve deterministically (max)
        // so the canonical form never depends on edge iteration order.
        let mut vlabel: HashMap<u64, u32> = HashMap::new();
        for e in edges {
            for (v, l) in [(e.src, e.src_label), (e.dst, e.dst_label)] {
                vlabel
                    .entry(v)
                    .and_modify(|cur| *cur = (*cur).max(l))
                    .or_insert(l);
            }
        }
        let raw: Vec<(u64, u64, u32)> = edges.iter().map(|e| (e.src, e.dst, e.elabel)).collect();
        Self::canonical(&raw, &vlabel)
    }

    /// Canonical form of an abstract labelled edge list.
    fn canonical(edges: &[(u64, u64, u32)], vlabel: &HashMap<u64, u32>) -> Pattern {
        // Invariant key per vertex.
        #[derive(PartialEq, Eq, PartialOrd, Ord, Clone)]
        struct Key {
            label: u32,
            out_deg: usize,
            in_deg: usize,
            out_labels: Vec<u32>,
            in_labels: Vec<u32>,
        }
        let mut verts: Vec<u64> = vlabel.keys().copied().collect();
        verts.sort_unstable();
        let key_of = |v: u64| {
            let mut out_labels: Vec<u32> = edges
                .iter()
                .filter(|(s, _, _)| *s == v)
                .map(|(_, _, l)| *l)
                .collect();
            let mut in_labels: Vec<u32> = edges
                .iter()
                .filter(|(_, d, _)| *d == v)
                .map(|(_, _, l)| *l)
                .collect();
            out_labels.sort_unstable();
            in_labels.sort_unstable();
            Key {
                label: vlabel[&v],
                out_deg: out_labels.len(),
                in_deg: in_labels.len(),
                out_labels,
                in_labels,
            }
        };
        let mut keyed: Vec<(Key, u64)> = verts.iter().map(|&v| (key_of(v), v)).collect();
        keyed.sort();

        // Bucket boundaries.
        let mut buckets: Vec<Vec<u64>> = Vec::new();
        for (k, v) in &keyed {
            if let Some(last) = buckets.last_mut() {
                let last_key = key_of(last[0]);
                if last_key == *k {
                    last.push(*v);
                    continue;
                }
            }
            buckets.push(vec![*v]);
        }

        // Labels vector is fixed by the bucket order.
        let labels: Vec<u32> = keyed.iter().map(|(k, _)| k.label).collect();

        // Try all within-bucket permutations, keep the minimal edge list.
        let mut best: Option<Vec<(u8, u8, u32)>> = None;
        let mut assignment: HashMap<u64, u8> = HashMap::new();
        permute_buckets(&buckets, 0, &mut Vec::new(), &mut |perm: &[u64]| {
            assignment.clear();
            for (i, &v) in perm.iter().enumerate() {
                assignment.insert(v, i as u8);
            }
            let mut cand: Vec<(u8, u8, u32)> = edges
                .iter()
                .map(|&(s, d, l)| (assignment[&s], assignment[&d], l))
                .collect();
            cand.sort_unstable();
            if best.as_ref().is_none_or(|b| cand < *b) {
                best = Some(cand);
            }
        });

        Pattern {
            labels,
            edges: best.expect("at least one permutation"),
        }
    }

    /// All connected sub-patterns obtained by deleting exactly one edge
    /// (deduplicated, canonical). Used for closedness checks and for the
    /// paper's "reconstruction of smaller frequent patterns" when a larger
    /// pattern turns infrequent.
    pub fn sub_patterns(&self) -> Vec<Pattern> {
        if self.edges.len() <= 1 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for skip in 0..self.edges.len() {
            let rest: Vec<(u64, u64, u32)> = self
                .edges
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, &(s, d, l))| (s as u64, d as u64, l))
                .collect();
            if !is_connected(&rest) {
                continue;
            }
            // Keep only vertices still referenced.
            let vlabel: HashMap<u64, u32> = rest
                .iter()
                .flat_map(|&(s, d, _)| [(s, self.labels[s as usize]), (d, self.labels[d as usize])])
                .collect();
            out.push(Pattern::canonical(&rest, &vlabel));
        }
        out.sort();
        out.dedup();
        out
    }
}

/// Connectivity of an abstract edge list (treating edges as undirected).
fn is_connected(edges: &[(u64, u64, u32)]) -> bool {
    if edges.is_empty() {
        return false;
    }
    let mut verts: Vec<u64> = edges.iter().flat_map(|&(s, d, _)| [s, d]).collect();
    verts.sort_unstable();
    verts.dedup();
    let mut reached = vec![false; verts.len()];
    let idx = |v: u64| verts.binary_search(&v).expect("vertex present");
    let mut stack = vec![edges[0].0];
    reached[idx(edges[0].0)] = true;
    while let Some(v) = stack.pop() {
        for &(s, d, _) in edges {
            for (a, b) in [(s, d), (d, s)] {
                if a == v && !reached[idx(b)] {
                    reached[idx(b)] = true;
                    stack.push(b);
                }
            }
        }
    }
    reached.iter().all(|&r| r)
}

/// Visit every combination of within-bucket permutations.
fn permute_buckets(
    buckets: &[Vec<u64>],
    i: usize,
    prefix: &mut Vec<u64>,
    visit: &mut impl FnMut(&[u64]),
) {
    if i == buckets.len() {
        visit(prefix);
        return;
    }
    let mut bucket = buckets[i].clone();
    permute_all(&mut bucket, 0, &mut |perm| {
        prefix.extend_from_slice(perm);
        permute_buckets(buckets, i + 1, prefix, visit);
        prefix.truncate(prefix.len() - perm.len());
    });
}

fn permute_all(items: &mut [u64], k: usize, visit: &mut impl FnMut(&[u64])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute_all(items, k + 1, visit);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn me(id: u64, src: u64, dst: u64, el: u32, sl: u32, dl: u32) -> MinerEdge {
        MinerEdge::new(id, src, dst, el, sl, dl)
    }

    #[test]
    fn single_edge_pattern() {
        let p = Pattern::from_embedding(&[me(1, 100, 200, 7, 1, 2)]);
        assert_eq!(p.vertex_count(), 2);
        assert_eq!(p.edge_count(), 1);
        assert_eq!(p.edges()[0].2, 7);
    }

    #[test]
    fn isomorphic_embeddings_share_canonical_form() {
        // Same shape, different concrete ids and insertion order.
        let a = Pattern::from_embedding(&[me(1, 10, 20, 5, 0, 1), me(2, 10, 30, 6, 0, 2)]);
        let b = Pattern::from_embedding(&[me(9, 77, 55, 6, 0, 2), me(8, 77, 66, 5, 0, 1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn direction_matters() {
        let fwd = Pattern::from_embedding(&[me(1, 10, 20, 5, 0, 0)]);
        let pair_fwd = Pattern::from_embedding(&[me(1, 10, 20, 5, 0, 0), me(2, 20, 30, 5, 0, 0)]);
        let pair_fan = Pattern::from_embedding(&[me(1, 10, 20, 5, 0, 0), me(2, 10, 30, 5, 0, 0)]);
        assert_ne!(pair_fwd, pair_fan, "chain vs fan-out must differ");
        assert_ne!(fwd, pair_fwd);
    }

    #[test]
    fn labels_matter() {
        let a = Pattern::from_embedding(&[me(1, 10, 20, 5, 0, 1)]);
        let b = Pattern::from_embedding(&[me(1, 10, 20, 5, 0, 2)]);
        assert_ne!(a, b);
    }

    #[test]
    fn triangle_canonicalises_regardless_of_rotation() {
        let tri = |x: u64, y: u64, z: u64| {
            Pattern::from_embedding(&[
                me(1, x, y, 1, 0, 0),
                me(2, y, z, 2, 0, 0),
                me(3, x, z, 3, 0, 0),
            ])
        };
        assert_eq!(tri(1, 2, 3), tri(10, 20, 30));
        // Relabelled vertices (different concrete ids, same shape).
        let other = Pattern::from_embedding(&[
            me(7, 100, 300, 3, 0, 0),
            me(8, 100, 200, 1, 0, 0),
            me(9, 200, 300, 2, 0, 0),
        ]);
        assert_eq!(tri(1, 2, 3), other);
    }

    #[test]
    fn shared_vertex_vs_disjoint_vertices() {
        // A->B, A->C (shared source) vs A->B, C->D would not both be
        // connected; instead compare shared source vs shared target.
        let fan_out = Pattern::from_embedding(&[me(1, 1, 2, 5, 0, 0), me(2, 1, 3, 5, 0, 0)]);
        let fan_in = Pattern::from_embedding(&[me(1, 2, 1, 5, 0, 0), me(2, 3, 1, 5, 0, 0)]);
        assert_ne!(fan_out, fan_in);
    }

    #[test]
    fn sub_patterns_of_chain() {
        // A-[1]->B-[2]->C: removing either edge leaves a single edge.
        let chain = Pattern::from_embedding(&[me(1, 1, 2, 1, 0, 0), me(2, 2, 3, 2, 0, 0)]);
        let subs = chain.sub_patterns();
        assert_eq!(subs.len(), 2);
        assert!(subs.iter().all(|p| p.edge_count() == 1));
    }

    #[test]
    fn sub_patterns_skip_disconnecting_removals() {
        // Path of 3 edges: A->B->C->D. Removing the middle edge disconnects.
        let path = Pattern::from_embedding(&[
            me(1, 1, 2, 1, 0, 0),
            me(2, 2, 3, 2, 0, 0),
            me(3, 3, 4, 3, 0, 0),
        ]);
        let subs = path.sub_patterns();
        assert_eq!(subs.len(), 2, "only end-edge removals keep connectivity");
        assert!(subs.iter().all(|p| p.edge_count() == 2));
    }

    #[test]
    fn single_edge_has_no_sub_patterns() {
        let p = Pattern::from_embedding(&[me(1, 1, 2, 1, 0, 0)]);
        assert!(p.sub_patterns().is_empty());
    }

    #[test]
    fn render_is_readable() {
        let p = Pattern::from_embedding(&[me(1, 1, 2, 9, 3, 4)]);
        let s = p.render(|l| format!("T{l}"), |l| format!("p{l}"));
        assert!(s.contains("[p9]"));
        assert!(s.contains("T3") && s.contains("T4"));
    }

    #[test]
    fn parallel_edges_with_different_labels() {
        let a = Pattern::from_embedding(&[me(1, 1, 2, 1, 0, 0), me(2, 1, 2, 2, 0, 0)]);
        let b = Pattern::from_embedding(&[me(5, 9, 8, 2, 0, 0), me(6, 9, 8, 1, 0, 0)]);
        assert_eq!(a, b);
        assert_eq!(a.vertex_count(), 2);
        assert_eq!(a.edge_count(), 2);
    }

    #[test]
    fn ord_is_total_and_stable() {
        let p1 = Pattern::from_embedding(&[me(1, 1, 2, 1, 0, 0)]);
        let p2 = Pattern::from_embedding(&[me(1, 1, 2, 2, 0, 0)]);
        assert!(p1 < p2 || p2 < p1);
    }
}
