//! The read surface of a published graph.
//!
//! [`crate::LayeredSnapshot`] is the one implementation: every query-side
//! consumer (the QA path search, the query executor, the entity
//! summariser, trend rendering, the graph algorithms and the exports)
//! reads a snapshot, never the mutable [`crate::DynamicGraph`], which keeps
//! only what writes need. The trait is deliberately not object-safe:
//! callbacks take `impl FnMut` so adjacency iteration monomorphises to
//! tight loops.
//!
//! **Iteration-order contract**: `for_each_out` / `for_each_in` visit each
//! live adjacency entry exactly once in `(pred, other, edge)` order.
//! `for_each_with_pred` yields edge-log (time) order, because the `MATCH`
//! class samples the first `limit` hits.

use crate::edge::Edge;
use crate::graph::Adj;
use crate::ids::{EdgeId, PredicateId, VertexId};
use std::ops::ControlFlow;

/// Read-only view of a property graph: the query-side surface of
/// [`crate::LayeredSnapshot`].
pub trait GraphView {
    fn vertex_count(&self) -> usize;
    fn vertex_id(&self, name: &str) -> Option<VertexId>;
    fn vertex_name(&self, v: VertexId) -> &str;
    fn label(&self, v: VertexId) -> Option<&str>;

    fn predicate_count(&self) -> usize;
    fn predicate_id(&self, name: &str) -> Option<PredicateId>;
    fn predicate_name(&self, p: PredicateId) -> &str;

    /// The edge record behind a live adjacency entry. Panics if `id` does
    /// not refer to a live edge of this view.
    fn edge(&self, id: EdgeId) -> &Edge;

    /// Number of live (non-tombstoned) edges.
    fn live_edge_count(&self) -> usize;

    /// Visit every live outgoing adjacency entry of `v`.
    fn for_each_out(&self, v: VertexId, f: impl FnMut(Adj));

    /// Visit every live incoming adjacency entry of `v` (`other` is the
    /// source vertex).
    fn for_each_in(&self, v: VertexId, f: impl FnMut(Adj));

    /// Visit every live edge with predicate `p` in edge-log (time) order.
    ///
    /// The visitor steers the scan: return [`ControlFlow::Continue`] to
    /// keep going, [`ControlFlow::Break`] to stop immediately. Serving
    /// deadlines depend on the break actually being immediate — an
    /// expired `MATCH` scan must not walk the remaining postings — so
    /// implementations stop at the first `Break` rather than merely
    /// suppressing the callback.
    fn for_each_with_pred(
        &self,
        p: PredicateId,
        f: impl FnMut(EdgeId, &Edge) -> ControlFlow<()>,
    ) -> ControlFlow<()>;

    fn out_degree(&self, v: VertexId) -> usize {
        let mut n = 0;
        self.for_each_out(v, |_| n += 1);
        n
    }

    fn in_degree(&self, v: VertexId) -> usize {
        let mut n = 0;
        self.for_each_in(v, |_| n += 1);
        n
    }

    fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Distinct neighbours of `v` in either direction, written into `out`
    /// (cleared first; the caller reuses it as scratch), sorted ascending
    /// and deduped.
    fn neighbors_into(&self, v: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        self.for_each_out(v, |a| out.push(a.other));
        self.for_each_in(v, |a| out.push(a.other));
        out.sort_unstable();
        out.dedup();
    }
}
