//! Property-based tests for the dynamic graph engine invariants.

use nous_graph::{window::WindowEvent, DynamicGraph, EdgeId, Provenance, SlidingWindow, VertexId};
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

proptest! {
    /// Out-adjacency and in-adjacency must describe the same edge set.
    #[test]
    fn adjacency_views_agree(script in edge_script()) {
        let g = build(&script);
        let mut from_out: Vec<_> = g
            .iter_vertices()
            .flat_map(|v| g.out_edges(v).map(move |a| (v, a.pred, a.other, a.edge)))
            .collect();
        let mut from_in: Vec<_> = g
            .iter_vertices()
            .flat_map(|v| g.in_edges(v).map(move |a| (a.other, a.pred, v, a.edge)))
            .collect();
        from_out.sort_by_key(|x| x.3);
        from_in.sort_by_key(|x| x.3);
        prop_assert_eq!(from_out, from_in);
    }

    /// `find` with wildcards must agree with a brute-force scan of the log.
    #[test]
    fn find_matches_brute_force(script in edge_script(), s in 0u8..20, p in 0u8..4) {
        let g = build(&script);
        let (src, pred) = match (g.vertex_id(&format!("v{s}")), g.predicate_id(&format!("p{p}"))) {
            (Some(src), Some(pred)) => (src, pred),
            _ => return Ok(()),
        };
        let mut fast = g.find(Some(src), Some(pred), None);
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
    fn full_tombstone_empties_views(script in edge_script()) {
        let mut g = build(&script);
        let ids: Vec<_> = g.iter_edges().map(|(id, _)| id).collect();
        for id in ids {
            prop_assert!(g.remove_edge(id));
        }
        prop_assert_eq!(g.edge_count(), 0);
        prop_assert_eq!(g.log_len(), script.len());
        for v in g.iter_vertices().collect::<Vec<_>>() {
            prop_assert_eq!(g.degree(v), 0);
        }
    }

    /// Compaction preserves the live triple multiset exactly.
    #[test]
    fn compaction_preserves_live_view(
        script in edge_script(),
        evict_mask in prop::collection::vec(any::<bool>(), 200),
    ) {
        let mut g = build(&script);
        let ids: Vec<_> = g.iter_edges().map(|(id, _)| id).collect();
        for (i, id) in ids.iter().enumerate() {
            if evict_mask.get(i).copied().unwrap_or(false) {
                g.remove_edge(*id);
            }
        }
        let key = |g: &DynamicGraph| {
            let mut v: Vec<_> = g
                .iter_edges()
                .map(|(_, e)| (e.src, e.pred, e.dst, e.at))
                .collect();
            v.sort();
            v
        };
        let before = key(&g);
        let live = g.edge_count();
        g.compact();
        prop_assert_eq!(key(&g), before);
        prop_assert_eq!(g.edge_count(), live);
        prop_assert_eq!(g.log_len(), live);
        // Degrees agree with a freshly-built graph of the live edges.
        for v in g.iter_vertices().collect::<Vec<_>>() {
            let out = g.out_edges(v).count();
            let brute = g.iter_edges().filter(|(_, e)| e.src == v).count();
            prop_assert_eq!(out, brute);
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

    /// BFS distance k means there is a path of exactly k hops and none shorter.
    #[test]
    fn bfs_distances_are_tight(script in edge_script()) {
        let g = build(&script);
        if g.vertex_count() == 0 {
            return Ok(());
        }
        let start = VertexId(0);
        let dist = nous_graph::algo::bfs_distances(&g, start, nous_graph::algo::Direction::Out, 6);
        for (&v, &d) in dist.iter() {
            if let Some(path) =
                nous_graph::algo::shortest_path(&g, start, v, nous_graph::algo::Direction::Out)
            {
                prop_assert_eq!(path.len() - 1, d);
            } else {
                prop_assert!(false, "distance recorded but no path found");
            }
        }
    }
}
