//! Path types and budgeted simple-path enumeration.
//!
//! Paths ignore edge direction (a "why are s and t related" question may
//! traverse inverse relations) but remember each hop's orientation so the
//! answer can be rendered faithfully. Enumeration is a depth-limited DFS
//! over simple paths with a global expansion budget and a pluggable
//! neighbour expander — the coherence search plugs its look-ahead in here;
//! baselines use the identity expander.

use nous_graph::{EdgeId, GraphView, LayeredSnapshot, PredicateId, VertexId};

/// How many expansions pass between deadline polls in the serving
/// searches. Expiry is detected
/// within one interval, so a deadline bounds latency to roughly the
/// budget plus the cost of this many expansions.
pub(crate) const DEADLINE_POLL: usize = 64;

/// One traversed hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    pub pred: PredicateId,
    pub edge: EdgeId,
    /// `true` when traversed src→dst (along edge direction).
    pub forward: bool,
}

/// A scored source→target path.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedPath {
    /// Vertices, source first, target last.
    pub vertices: Vec<VertexId>,
    /// `vertices.len() - 1` hops.
    pub hops: Vec<Hop>,
    /// Ranking score; smaller-is-better or larger-is-better is the
    /// ranker's contract (coherence: smaller divergence is better).
    pub score: f64,
}

impl RankedPath {
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Render as `A -[p]-> B <-[q]- C`.
    pub fn render(&self, g: &LayeredSnapshot) -> String {
        let mut s = g.vertex_name(self.vertices[0]).to_owned();
        for (i, h) in self.hops.iter().enumerate() {
            let (open, close) = if h.forward {
                (" -[", "]-> ")
            } else {
                (" <-[", "]- ")
            };
            s.push_str(open);
            s.push_str(g.predicate_name(h.pred));
            s.push_str(close);
            s.push_str(g.vertex_name(self.vertices[i + 1]));
        }
        s
    }
}

/// Constraint on admissible paths.
#[derive(Debug, Clone, Default)]
pub struct PathConstraint {
    /// Path must contain at least one hop with this predicate
    /// ("a relationship constraint, which typically is a predicate from
    /// the target ontology").
    pub require_predicate: Option<PredicateId>,
}

impl PathConstraint {
    pub fn satisfied_by(&self, hops: &[Hop]) -> bool {
        match self.require_predicate {
            Some(p) => hops.iter().any(|h| h.pred == p),
            None => true,
        }
    }
}

/// Search-effort accounting for one path enumeration: how much of the
/// graph the DFS actually touched. Collected per query and fed into the
/// `nous_qa_*` size histograms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Interior nodes expanded (frames pushed), bounded by the budget. For
    /// `PATHS`, the prefixes charged plus the adjacency lists its distance
    /// search fetched, each bounded by the budget.
    pub nodes_expanded: usize,
    /// Peak number of pending steps across all open DFS frames.
    pub max_frontier: usize,
    /// Paths emitted (after the constraint filter): every candidate for
    /// an enumeration or a coherence search, at most `k` for the
    /// length-ordered `PATHS` search, which stops there.
    pub paths_emitted: usize,
    /// Topic divergences the coherence ranker actually computed
    /// (look-ahead keys and scoring hops). A search memoises them per
    /// vertex pair, so a repeat — a parallel edge, a vertex revisited, a
    /// scoring hop the look-ahead already keyed — is free and not
    /// counted. Zero for un-ranked enumeration.
    pub coherence_evals: usize,
    /// `true` when a [`nous_fault::Deadline`] expired mid-search: the
    /// emitted paths are best-so-far, not the complete candidate set.
    pub truncated: bool,
}

/// Undirected neighbour steps of `v` written into `out` (cleared first):
/// the scratch-reusing expansion primitive — the search hot loop recycles
/// one buffer per stack depth instead of allocating per visit.
pub(crate) fn neighbor_steps_into(
    g: &LayeredSnapshot,
    v: VertexId,
    out: &mut Vec<(VertexId, Hop)>,
) {
    out.clear();
    append_neighbor_steps(g, v, out);
}

/// [`neighbor_steps_into`] without the clear: `v`'s steps are appended
/// after whatever `out` already holds, and only they are sorted.
pub(crate) fn append_neighbor_steps(
    g: &LayeredSnapshot,
    v: VertexId,
    out: &mut Vec<(VertexId, Hop)>,
) {
    let start = out.len();
    g.for_each_out(v, |a| {
        out.push((
            a.other,
            Hop {
                pred: a.pred,
                edge: a.edge,
                forward: true,
            },
        ))
    });
    g.for_each_in(v, |a| {
        out.push((
            a.other,
            Hop {
                pred: a.pred,
                edge: a.edge,
                forward: false,
            },
        ))
    });
    // Deterministic order regardless of the view's adjacency layout: by
    // neighbour id then edge id.
    out[start..].sort_unstable_by_key(|(n, h)| (n.0, h.edge.0));
}

/// Enumerate simple paths from `src` to `dst` of at most `max_hops` hops,
/// accumulating search-effort accounting into `stats` (expansions, peak
/// frontier, paths emitted).
///
/// `expand` receives the current vertex and its candidate steps and returns
/// the (possibly pruned / reordered) steps actually explored — the
/// look-ahead hook. `budget` bounds the total number of node expansions.
/// Returned paths carry `score = 0.0`; ranking is a separate pass. This
/// exhaustive DFS is the oracle the serving searches are pinned against,
/// and the candidate generator of the E9 ranking baselines; it takes no
/// deadline.
#[allow(clippy::too_many_arguments)] // the stats sink rides on the enumeration signature
pub fn enumerate_paths_with_stats(
    g: &LayeredSnapshot,
    src: VertexId,
    dst: VertexId,
    max_hops: usize,
    budget: usize,
    constraint: &PathConstraint,
    mut expand: impl FnMut(VertexId, Vec<(VertexId, Hop)>) -> Vec<(VertexId, Hop)>,
    stats: &mut SearchStats,
) -> Vec<RankedPath> {
    let mut out = Vec::new();
    if src == dst || max_hops == 0 {
        return out;
    }
    let mut expansions = 0usize;
    let mut vstack = vec![src];
    let mut hstack: Vec<Hop> = Vec::new();
    // Exhausted frames are recycled: the DFS allocates at most one step
    // buffer per depth level over its whole run (expanders that rebuild
    // the vector, like the look-ahead prune, add their own).
    let mut free: Vec<Vec<(VertexId, Hop)>> = Vec::new();

    // Iterative DFS with explicit frame stack of pending steps.
    let mut buf = Vec::new();
    neighbor_steps_into(g, src, &mut buf);
    let first = expand(src, buf);
    let mut frontier = first.len();
    let mut frames: Vec<Vec<(VertexId, Hop)>> = vec![first];
    stats.max_frontier = stats.max_frontier.max(frontier);
    while let Some(frame) = frames.last_mut() {
        let Some((next, hop)) = frame.pop() else {
            free.push(frames.pop().expect("frame stack is non-empty"));
            vstack.pop();
            hstack.pop();
            continue;
        };
        frontier -= 1;
        if vstack.contains(&next) {
            continue; // simple paths only
        }
        if next == dst {
            let mut hops = hstack.clone();
            hops.push(hop);
            if constraint.satisfied_by(&hops) {
                let mut vertices = vstack.clone();
                vertices.push(dst);
                out.push(RankedPath {
                    vertices,
                    hops,
                    score: 0.0,
                });
            }
            continue;
        }
        if hstack.len() + 1 >= max_hops || expansions >= budget {
            continue;
        }
        expansions += 1;
        vstack.push(next);
        hstack.push(hop);
        let mut buf = free.pop().unwrap_or_default();
        neighbor_steps_into(g, next, &mut buf);
        let steps = expand(next, buf);
        frontier += steps.len();
        stats.max_frontier = stats.max_frontier.max(frontier);
        frames.push(steps);
    }
    stats.nodes_expanded += expansions;
    stats.paths_emitted += out.len();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nous_graph::{DynamicGraph, Provenance};

    /// a→b→d, a→c→d, plus direct a→d.
    fn diamond() -> (DynamicGraph, Vec<VertexId>, PredicateId) {
        let mut g = DynamicGraph::new();
        let ids: Vec<VertexId> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| g.ensure_vertex(n))
            .collect();
        let p = g.intern_predicate("rel");
        g.add_edge_at(ids[0], p, ids[1], 0, 1.0, Provenance::Curated);
        g.add_edge_at(ids[1], p, ids[3], 0, 1.0, Provenance::Curated);
        g.add_edge_at(ids[0], p, ids[2], 0, 1.0, Provenance::Curated);
        g.add_edge_at(ids[2], p, ids[3], 0, 1.0, Provenance::Curated);
        g.add_edge_at(ids[0], p, ids[3], 0, 1.0, Provenance::Curated);
        (g, ids, p)
    }

    fn enumerate(
        g: &DynamicGraph,
        s: VertexId,
        t: VertexId,
        h: usize,
        budget: usize,
        constraint: &PathConstraint,
        expand: impl FnMut(VertexId, Vec<(VertexId, Hop)>) -> Vec<(VertexId, Hop)>,
    ) -> Vec<RankedPath> {
        let mut stats = SearchStats::default();
        let view = LayeredSnapshot::freeze(g);
        enumerate_paths_with_stats(&view, s, t, h, budget, constraint, expand, &mut stats)
    }

    fn all(g: &DynamicGraph, s: VertexId, t: VertexId, h: usize) -> Vec<RankedPath> {
        enumerate(
            g,
            s,
            t,
            h,
            10_000,
            &PathConstraint::default(),
            |_, steps| steps,
        )
    }

    #[test]
    fn finds_all_simple_paths() {
        let (g, v, _) = diamond();
        let paths = all(&g, v[0], v[3], 3);
        assert_eq!(paths.len(), 3, "direct, via b, via c");
        assert!(paths.iter().any(|p| p.len() == 1));
        assert_eq!(paths.iter().filter(|p| p.len() == 2).count(), 2);
    }

    #[test]
    fn max_hops_limits_depth() {
        let (g, v, _) = diamond();
        let paths = all(&g, v[0], v[3], 1);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 1);
    }

    #[test]
    fn paths_are_simple() {
        let (g, v, _) = diamond();
        for p in all(&g, v[0], v[3], 4) {
            let mut seen = p.vertices.clone();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), p.vertices.len(), "vertex repeated in {p:?}");
        }
    }

    #[test]
    fn traverses_against_direction() {
        let mut g = DynamicGraph::new();
        let a = g.ensure_vertex("a");
        let b = g.ensure_vertex("b");
        let c = g.ensure_vertex("c");
        let p = g.intern_predicate("rel");
        // a→b, c→b: a to c only via reversed second edge.
        g.add_edge_at(a, p, b, 0, 1.0, Provenance::Curated);
        g.add_edge_at(c, p, b, 0, 1.0, Provenance::Curated);
        let paths = all(&g, a, c, 2);
        assert_eq!(paths.len(), 1);
        assert!(paths[0].hops[0].forward);
        assert!(!paths[0].hops[1].forward);
    }

    #[test]
    fn predicate_constraint_filters() {
        let (mut g, v, _) = diamond();
        let q = g.intern_predicate("special");
        g.add_edge_at(v[1], q, v[3], 0, 1.0, Provenance::Curated);
        let constraint = PathConstraint {
            require_predicate: Some(q),
        };
        let paths = enumerate(&g, v[0], v[3], 3, 10_000, &constraint, |_, steps| steps);
        assert!(!paths.is_empty());
        assert!(paths.iter().all(|p| p.hops.iter().any(|h| h.pred == q)));
    }

    #[test]
    fn expander_can_prune() {
        let (g, v, _) = diamond();
        // Expander that forbids stepping to b.
        let paths = enumerate(
            &g,
            v[0],
            v[3],
            3,
            10_000,
            &PathConstraint::default(),
            |_, steps| steps.into_iter().filter(|(n, _)| *n != v[1]).collect(),
        );
        assert_eq!(paths.len(), 2, "direct and via c");
    }

    #[test]
    fn budget_bounds_exploration() {
        let (g, v, _) = diamond();
        let paths = enumerate(
            &g,
            v[0],
            v[3],
            3,
            0, // no expansions beyond the source frontier
            &PathConstraint::default(),
            |_, steps| steps,
        );
        // Only the direct edge can be found without expanding inner nodes.
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn same_source_and_target_is_empty() {
        let (g, v, _) = diamond();
        assert!(all(&g, v[0], v[0], 3).is_empty());
    }

    #[test]
    fn render_shows_directions() {
        let mut g = DynamicGraph::new();
        let a = g.ensure_vertex("A");
        let b = g.ensure_vertex("B");
        let c = g.ensure_vertex("C");
        let p = g.intern_predicate("owns");
        g.add_edge_at(a, p, b, 0, 1.0, Provenance::Curated);
        g.add_edge_at(c, p, b, 0, 1.0, Provenance::Curated);
        let paths = all(&g, a, c, 2);
        let view = LayeredSnapshot::freeze(&g);
        assert_eq!(paths[0].render(&view), "A -[owns]-> B <-[owns]- C");
    }
}
