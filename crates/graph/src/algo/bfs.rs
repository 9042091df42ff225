//! Breadth-first distances over a published snapshot.

use crate::hash::FxHashMap;
use crate::ids::VertexId;
use crate::layered::LayeredSnapshot;
use crate::view::GraphView;
use std::collections::VecDeque;

/// Which edges a traversal may follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Out,
    In,
    /// Treat the graph as undirected (knowledge-graph path questions ignore
    /// edge direction; "why is A related to B" may traverse inverses).
    Both,
}

fn push_neighbors(g: &LayeredSnapshot, v: VertexId, dir: Direction, mut f: impl FnMut(VertexId)) {
    if dir != Direction::In {
        g.for_each_out(v, |a| f(a.other));
    }
    if dir != Direction::Out {
        g.for_each_in(v, |a| f(a.other));
    }
}

/// BFS distances from `start`, up to `max_depth` hops (inclusive).
/// Unreachable vertices are absent from the map.
pub fn bfs_distances(
    g: &LayeredSnapshot,
    start: VertexId,
    dir: Direction,
    max_depth: usize,
) -> FxHashMap<VertexId, usize> {
    let mut dist: FxHashMap<VertexId, usize> = FxHashMap::default();
    dist.insert(start, 0);
    let mut queue = VecDeque::from([start]);
    while let Some(v) = queue.pop_front() {
        let d = dist[&v];
        if d == max_depth {
            continue;
        }
        push_neighbors(g, v, dir, |n| {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(n) {
                e.insert(d + 1);
                queue.push_back(n);
            }
        });
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Provenance;
    use crate::graph::DynamicGraph;

    /// a -> b -> c -> d, plus a -> c shortcut.
    fn diamond() -> (DynamicGraph, Vec<VertexId>) {
        let mut g = DynamicGraph::new();
        let ids: Vec<VertexId> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| g.ensure_vertex(n))
            .collect();
        let p = g.intern_predicate("p");
        g.add_edge_at(ids[0], p, ids[1], 0, 1.0, Provenance::Curated);
        g.add_edge_at(ids[1], p, ids[2], 0, 1.0, Provenance::Curated);
        g.add_edge_at(ids[2], p, ids[3], 0, 1.0, Provenance::Curated);
        g.add_edge_at(ids[0], p, ids[2], 0, 1.0, Provenance::Curated);
        (g, ids)
    }

    #[test]
    fn distances_follow_direction() {
        let (g, v) = diamond();
        let s = LayeredSnapshot::freeze(&g);
        let d = bfs_distances(&s, v[0], Direction::Out, 10);
        assert_eq!(d[&v[0]], 0);
        assert_eq!(d[&v[1]], 1);
        assert_eq!(d[&v[2]], 1, "shortcut wins");
        assert_eq!(d[&v[3]], 2);
        // Nothing reaches `a` along in-edges from a.
        let din = bfs_distances(&s, v[0], Direction::In, 10);
        assert_eq!(din.len(), 1);
        // d reaches a only against edge direction.
        let back = bfs_distances(&s, v[3], Direction::Both, 10);
        assert_eq!(back[&v[0]], 2);
    }

    #[test]
    fn max_depth_truncates() {
        let (g, v) = diamond();
        let d = bfs_distances(&LayeredSnapshot::freeze(&g), v[0], Direction::Out, 1);
        assert!(!d.contains_key(&v[3]));
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn tombstoned_edges_are_invisible() {
        let (mut g, v) = diamond();
        let before = LayeredSnapshot::freeze(&g);
        let p = g.predicate_id("p").unwrap();
        let shortcut = g.find(v[0], p, Some(v[2]))[0];
        g.remove_edge(shortcut);
        let after = before.with_overlay(before.capture_delta(&g));
        let d = bfs_distances(&after, v[0], Direction::Out, 10);
        assert_eq!(d[&v[2]], 2);
        assert_eq!(d[&v[3]], 3);
    }
}
