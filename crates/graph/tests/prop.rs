//! Property-based tests for the dynamic graph engine invariants.

use nous_graph::algo::{bfs_distances, Direction};
use nous_graph::{
    window::WindowEvent, DynamicGraph, EdgeId, GraphView, LayeredSnapshot, Provenance,
    SlidingWindow, VertexId,
};
use proptest::prelude::*;

/// A random edge script: (src, dst, pred, timestamp-delta).
fn edge_script() -> impl Strategy<Value = Vec<(u8, u8, u8, u8)>> {
    prop::collection::vec((0u8..20, 0u8..20, 0u8..4, 0u8..5), 0..200)
}

fn build(script: &[(u8, u8, u8, u8)]) -> DynamicGraph {
    let mut g = DynamicGraph::new();
    let mut t = 0u64;
    for &(s, d, p, dt) in script {
        let src = g.ensure_vertex(&format!("v{s}"));
        let dst = g.ensure_vertex(&format!("v{d}"));
        let pred = g.intern_predicate(&format!("p{p}"));
        t += dt as u64;
        g.add_edge_at(src, pred, dst, t, 0.5, Provenance::Curated);
    }
    g
}

/// A snapshot of `g` published the way the session does it: a base
/// frozen at the first `split` edges, the rest (and every later removal
/// or label) on an overlay captured against it.
fn publish_split(g: &DynamicGraph, split: usize) -> LayeredSnapshot {
    let mut prefix = DynamicGraph::new();
    for v in g.iter_vertices() {
        prefix.ensure_vertex(g.vertex_name(v));
    }
    for (_, name) in g.iter_predicates() {
        prefix.intern_predicate(name);
    }
    let mut at = 0;
    for e in &g.edge_log()[..split.min(g.log_len())] {
        prefix.add_edge(e.clone());
        at += 1;
    }
    let base = LayeredSnapshot::freeze(&prefix);
    for e in &g.edge_log()[at..] {
        prefix.add_edge(e.clone());
    }
    for id in (0..g.log_len() as u32).map(EdgeId) {
        if !g.is_live(id) {
            prefix.remove_edge(id);
        }
    }
    base.with_overlay(base.capture_delta(&prefix))
}

proptest! {
    /// Out-adjacency and in-adjacency of the published snapshot must
    /// describe the same edge set: the live edges of the log.
    #[test]
    fn adjacency_views_agree(script in edge_script(), split in 0usize..200) {
        let g = build(&script);
        let view = publish_split(&g, split);
        let mut from_out = Vec::new();
        let mut from_in = Vec::new();
        for v in g.iter_vertices() {
            view.for_each_out(v, |a| from_out.push((v, a.pred, a.other, a.edge)));
            view.for_each_in(v, |a| from_in.push((a.other, a.pred, v, a.edge)));
        }
        from_out.sort_by_key(|x| x.3);
        from_in.sort_by_key(|x| x.3);
        prop_assert_eq!(&from_out, &from_in);
        let brute: Vec<_> = g.iter_edges().map(|(id, e)| (e.src, e.pred, e.dst, id)).collect();
        prop_assert_eq!(from_out, brute);
    }

    /// `find` with wildcards must agree with a brute-force scan of the log.
    #[test]
    fn find_matches_brute_force(script in edge_script(), s in 0u8..20, p in 0u8..4) {
        let g = build(&script);
        let (src, pred) = match (g.vertex_id(&format!("v{s}")), g.predicate_id(&format!("p{p}"))) {
            (Some(src), Some(pred)) => (src, pred),
            _ => return Ok(()),
        };
        let mut fast = g.find(src, pred, None);
        fast.sort();
        let mut brute: Vec<_> = g
            .iter_edges()
            .filter(|(_, e)| e.src == src && e.pred == pred)
            .map(|(id, _)| id)
            .collect();
        brute.sort();
        prop_assert_eq!(fast, brute);
    }

    /// Window invariant: ingesting everything at once equals replay —
    /// the surviving active set only depends on the log, not on call
    /// batching — and adds minus evictions equals the active count.
    #[test]
    fn window_replay_equivalence(script in edge_script(), n in 1usize..50) {
        let g = build(&script);
        let mut whole = SlidingWindow::count(n);
        let events = whole.ingest(&g);
        let adds = events.iter().filter(|e| matches!(e, WindowEvent::Added(_))).count();
        let evs = events.iter().filter(|e| matches!(e, WindowEvent::Evicted(_))).count();
        prop_assert_eq!(adds - evs, whole.len());
        prop_assert!(whole.len() <= n);

        // Replay by rebuilding an identical graph prefix step by step.
        let mut g2 = DynamicGraph::new();
        let mut stepped = SlidingWindow::count(n);
        let mut t = 0u64;
        for &(s, d, p, dt) in &script {
            let src = g2.ensure_vertex(&format!("v{s}"));
            let dst = g2.ensure_vertex(&format!("v{d}"));
            let pred = g2.intern_predicate(&format!("p{p}"));
            t += dt as u64;
            g2.add_edge_at(src, pred, dst, t, 0.5, Provenance::Curated);
            stepped.ingest(&g2);
        }
        let a: Vec<_> = whole.active_edges().collect();
        let b: Vec<_> = stepped.active_edges().collect();
        prop_assert_eq!(a, b);
    }

    /// Removing every edge empties all live views but preserves the log.
    #[test]
    fn full_tombstone_empties_views(script in edge_script(), split in 0usize..200) {
        let mut g = build(&script);
        let ids: Vec<_> = g.iter_edges().map(|(id, _)| id).collect();
        for id in ids {
            prop_assert!(g.remove_edge(id));
        }
        prop_assert_eq!(g.edge_count(), 0);
        prop_assert_eq!(g.log_len(), script.len());
        let view = publish_split(&g, split);
        prop_assert_eq!(view.live_edge_count(), 0);
        for v in g.iter_vertices().collect::<Vec<_>>() {
            prop_assert_eq!(view.degree(v), 0);
        }
    }

    /// Tombstoned edges leave every vertex's out-degree (on the graph and
    /// on its published snapshot) and in-degree (on the snapshot) equal
    /// to its live edges in the log.
    #[test]
    fn tombstones_keep_degrees_live(
        script in edge_script(),
        evict_mask in prop::collection::vec(any::<bool>(), 200),
        split in 0usize..200,
    ) {
        let mut g = build(&script);
        let ids: Vec<_> = g.iter_edges().map(|(id, _)| id).collect();
        for (i, id) in ids.iter().enumerate() {
            if evict_mask.get(i).copied().unwrap_or(false) {
                g.remove_edge(*id);
            }
        }
        let view = publish_split(&g, split);
        for v in g.iter_vertices().collect::<Vec<_>>() {
            let out = g.out_edges(v).count();
            let brute = g.iter_edges().filter(|(_, e)| e.src == v).count();
            prop_assert_eq!(out, brute);
            prop_assert_eq!(view.out_degree(v), brute);
            let brute_in = g.iter_edges().filter(|(_, e)| e.dst == v).count();
            prop_assert_eq!(view.in_degree(v), brute_in);
            prop_assert_eq!(view.degree(v), brute + brute_in);
        }
    }

    /// Compact snapshot round-trip preserves stats, triple membership,
    /// the log length and exactly which edge ids are tombstoned.
    #[test]
    fn snapshot_roundtrip(
        script in edge_script(),
        evict_mask in prop::collection::vec(any::<bool>(), 200),
    ) {
        let mut g = build(&script);
        for (i, evict) in evict_mask.iter().enumerate().take(g.log_len()) {
            if *evict {
                g.remove_edge(EdgeId(i as u32));
            }
        }
        let back = nous_graph::snapshot::from_compact(&nous_graph::snapshot::to_compact(&g))
            .unwrap();
        prop_assert_eq!(back.stats(), g.stats());
        for (_, e) in g.iter_edges() {
            prop_assert!(back.has_triple(e.src, e.pred, e.dst));
        }
        prop_assert_eq!(back.log_len(), g.log_len());
        let dead = |g: &DynamicGraph| {
            (0..g.log_len() as u32)
                .map(EdgeId)
                .filter(|&id| !g.is_live(id))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(dead(&back), dead(&g));
    }

    /// BFS distance k means there is a path of exactly k hops and none
    /// shorter: every reached vertex but the start has a live in-edge
    /// from a vertex at k - 1, and no live edge leaving a vertex inside
    /// the depth bound skips a level.
    #[test]
    fn bfs_distances_are_tight(script in edge_script()) {
        let g = build(&script);
        if g.vertex_count() == 0 {
            return Ok(());
        }
        let start = VertexId(0);
        let dist = bfs_distances(&LayeredSnapshot::freeze(&g), start, Direction::Out, 6);
        prop_assert_eq!(dist.get(&start), Some(&0));
        for (&v, &d) in dist.iter().filter(|(&v, _)| v != start) {
            let reached = g
                .iter_edges()
                .any(|(_, e)| e.dst == v && dist.get(&e.src) == Some(&(d - 1)));
            prop_assert!(reached, "distance recorded but no path found");
        }
        for (_, e) in g.iter_edges() {
            if let Some(&d) = dist.get(&e.src).filter(|&&d| d < 6) {
                prop_assert!(dist.get(&e.dst).is_some_and(|&x| x <= d + 1));
            }
        }
    }
}
