//! Randomized equivalence for the layered snapshot.
//!
//! A [`LayeredSnapshot`] — base plus however many delta overlays a random
//! publish/compact interleaving left stacked — must be observationally
//! identical to a fresh [`LayeredSnapshot::freeze`] of the same graph,
//! across the whole [`GraphView`] surface, the time-range scan, the
//! log-order edge scan, BFS distances in every direction and the degree
//! summary. The scripts
//! interleave every mutation the live graph supports (edge adds, edge
//! removals, vertex minting, label rewrites, predicate minting) with the
//! publication events the session triggers: delta capture, and a
//! compaction that folds the published layers
//! ([`FrozenView::from_layers`]) while more overlays land, then rebases
//! them onto the folded base ([`LayeredSnapshot::rebase`]). As in the
//! session, one fold is in flight at a time, so every install lands.

use nous_graph::algo::{bfs_distances, DegreeSummary, Direction};
use nous_graph::{DynamicGraph, Edge, FrozenView, GraphView, LayeredSnapshot, Provenance};
use proptest::prelude::*;
use std::sync::Arc;

/// One scripted step: `(kind, a, b, p, dt)`. `kind` selects the
/// operation; the rest parameterize it (vertex/edge/predicate selectors
/// and a timestamp delta).
fn script() -> impl Strategy<Value = Vec<(u8, u8, u8, u8, u8)>> {
    prop::collection::vec((0u8..17, 0u8..24, 0u8..24, 0u8..5, 0u8..4), 1..120)
}

/// Compare every observable the read path uses. Returns `Err` (not a
/// panic) so proptest can report the failing case and seed.
fn check_equiv(layered: &LayeredSnapshot, g: &DynamicGraph) -> Result<(), TestCaseError> {
    let fresh = LayeredSnapshot::freeze(g);
    prop_assert_eq!(layered.vertex_count(), fresh.vertex_count());
    prop_assert_eq!(layered.live_edge_count(), fresh.live_edge_count());
    prop_assert_eq!(layered.predicate_count(), fresh.predicate_count());
    prop_assert_eq!(layered.now(), fresh.now());
    prop_assert_eq!(layered.source_log_len(), g.log_len());

    for v in 0..fresh.vertex_count() {
        let v = nous_graph::VertexId(v as u32);
        prop_assert_eq!(layered.vertex_name(v), fresh.vertex_name(v));
        prop_assert_eq!(layered.label(v), fresh.label(v));
        prop_assert_eq!(
            layered.vertex_id(fresh.vertex_name(v)),
            Some(v),
            "name -> id lookup"
        );
        macro_rules! adj {
            ($view:expr, $dir:ident) => {{
                let mut out: Vec<(u32, u32, u32)> = Vec::new();
                $view.$dir(v, |a| out.push((a.pred.0, a.other.0, a.edge.0)));
                out.sort_unstable();
                out
            }};
        }
        prop_assert_eq!(
            adj!(layered, for_each_out),
            adj!(fresh, for_each_out),
            "out-adjacency of {:?}",
            v
        );
        prop_assert_eq!(
            adj!(layered, for_each_in),
            adj!(fresh, for_each_in),
            "in-adjacency of {:?}",
            v
        );
        prop_assert_eq!(layered.out_degree(v), fresh.out_degree(v));
        prop_assert_eq!(layered.in_degree(v), fresh.in_degree(v));
    }

    for p in 0..fresh.predicate_count() {
        let p = nous_graph::PredicateId(p as u32);
        prop_assert_eq!(layered.predicate_name(p), fresh.predicate_name(p));
        let mut l: Vec<u32> = Vec::new();
        let _ = layered.for_each_with_pred(p, |id, _| {
            l.push(id.0);
            std::ops::ControlFlow::Continue(())
        });
        let mut f: Vec<u32> = Vec::new();
        let _ = fresh.for_each_with_pred(p, |id, _| {
            f.push(id.0);
            std::ops::ControlFlow::Continue(())
        });
        l.sort_unstable();
        f.sort_unstable();
        prop_assert_eq!(l, f, "predicate index of {:?}", p);
    }

    // Time-range scans agree over the full span and a half-open slice,
    // including order (ascending (at, id) is part of the contract).
    let span_end = fresh.now();
    for (from, to) in [
        (0, span_end),
        (span_end / 2, span_end),
        (1, span_end.saturating_sub(1)),
    ] {
        let l: Vec<(u32, u64)> = layered
            .edges_in_range(from, to)
            .map(|(id, e)| (id.0, e.at))
            .collect();
        let f: Vec<(u32, u64)> = fresh
            .edges_in_range(from, to)
            .map(|(id, e)| (id.0, e.at))
            .collect();
        prop_assert_eq!(l, f, "edges_in_range({}, {})", from, to);
    }

    // The log-order scan the exports read.
    let l: Vec<_> = layered.iter_edges().collect();
    let f: Vec<_> = fresh.iter_edges().collect();
    prop_assert_eq!(l, f, "live edges in log order");

    // The graph algorithms read the merged adjacency.
    for v in (0..fresh.vertex_count()).step_by(5) {
        let v = nous_graph::VertexId(v as u32);
        for dir in [Direction::Out, Direction::In, Direction::Both] {
            prop_assert_eq!(
                bfs_distances(layered, v, dir, 3),
                bfs_distances(&fresh, v, dir, 3),
                "bfs_distances from {:?} {:?}",
                v,
                dir
            );
        }
    }
    prop_assert_eq!(DegreeSummary::of(layered), DegreeSummary::of(&fresh));
    Ok(())
}

/// Re-publish the layered snapshot against the current graph: the O(delta)
/// overlay chain, exactly what the session does.
fn publish(snap: &LayeredSnapshot, g: &DynamicGraph) -> LayeredSnapshot {
    snap.with_overlay(snap.capture_delta(g))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of mutations with publish/fold/install events
    /// yields a layered snapshot indistinguishable from a fresh freeze,
    /// and every fold is identical to a fresh freeze at its watermark.
    #[test]
    fn layered_snapshot_equivalent_to_fresh_freeze(ops in script()) {
        let mut g = DynamicGraph::new();
        let mut t = 1u64;
        let mut snap = LayeredSnapshot::freeze(&g);
        // The graph as of `snap`'s watermark.
        let mut published = g.clone();
        // A fold in flight: the stack it read and its result.
        let mut in_flight: Option<(LayeredSnapshot, FrozenView)> = None;
        for (kind, a, b, p, dt) in ops {
            match kind {
                // Adds dominate, matching real ingest traffic.
                0..=7 => {
                    let src = g.ensure_vertex(&format!("v{a}"));
                    let dst = g.ensure_vertex(&format!("v{b}"));
                    let pred = g.intern_predicate(&format!("p{p}"));
                    t += dt as u64;
                    g.add_edge(Edge {
                        src,
                        pred,
                        dst,
                        at: t,
                        confidence: 0.5,
                        provenance: Provenance::Curated,
                        props: Default::default(),
                    });
                }
                8 | 9 => {
                    // Remove a scripted live edge, if any.
                    if g.log_len() > 0 {
                        let id = nous_graph::EdgeId(
                            ((a as usize * 31 + b as usize) % g.log_len()) as u32,
                        );
                        g.remove_edge(id);
                    }
                }
                10 => {
                    // Mint an isolated vertex (appears in the overlay with
                    // no adjacency).
                    g.ensure_vertex(&format!("lone{a}"));
                }
                11 => {
                    // Rewrite a label on an existing vertex.
                    if g.vertex_count() > 0 {
                        let v = nous_graph::VertexId((a as usize % g.vertex_count()) as u32);
                        g.set_label(v, &format!("L{b}"));
                    }
                }
                12 | 13 => {
                    snap = publish(&snap, &g);
                    published = g.clone();
                    check_equiv(&snap, &g)?;
                }
                14 => {
                    // Fold the published layers, without the graph.
                    let folded = FrozenView::from_layers(&snap);
                    prop_assert!(
                        folded == FrozenView::freeze(&published),
                        "fold of {} layers differs from a fresh freeze",
                        snap.layer_count()
                    );
                    // One fold at a time: a second waits for the first
                    // to install. Overlays keep landing until then.
                    if in_flight.is_none() {
                        in_flight = Some((snap.clone(), folded));
                    }
                }
                _ => {
                    // 15 and 16: install the fold in flight over what
                    // landed since.
                    if let Some((from, folded)) = in_flight.take() {
                        let next = snap.rebase(&from, Arc::new(folded));
                        prop_assert_eq!(
                            next.layer_count(),
                            snap.layer_count() - from.layer_count()
                        );
                        snap = next;
                        check_equiv(&snap, &published)?;
                    }
                }
            }
        }
        let last = publish(&snap, &g);
        check_equiv(&last, &g)?;
        // And a fold of whatever stack remains is still equivalent.
        let folded = FrozenView::from_layers(&last);
        prop_assert!(folded == FrozenView::freeze(&g), "final fold");
        check_equiv(&last.rebase(&last, Arc::new(folded)), &g)?;
    }
}
