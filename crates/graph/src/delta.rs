//! Delta overlays: the incremental unit of snapshot publication.
//!
//! A [`DeltaOverlay`] is an immutable, read-indexed description of
//! *everything that changed* in a [`DynamicGraph`] between two
//! [`DeltaWatermark`]s: the live edges appended in the window (with their
//! own per-vertex adjacency, per-predicate postings and time index, all in
//! the same orders [`crate::FrozenView`] uses), the ids of previously
//! published edges that were tombstoned, the vertices and predicates
//! minted in the window (name suffix + lookup maps), and label patches for
//! pre-existing vertices. Capturing one is O(window), never O(graph) —
//! that is the whole point: [`crate::LayeredSnapshot`] stacks overlays on
//! a frozen base so publication cost tracks batch size while the paper's
//! continuous-query surface keeps serving.
//!
//! Every log a watermark counts only grows over the graph's life (an
//! [`EdgeId`] is a log position forever), so a watermark taken on a
//! graph always chains onto its later states. One ahead of the graph
//! can only come from another graph, and capture rejects it with a panic.

use crate::edge::Edge;
use crate::graph::{Adj, DeltaWatermark, DynamicGraph};
use crate::hash::FxHashMap;
use crate::ids::{EdgeId, PredicateId, Timestamp, VertexId};

/// One immutable increment of graph history: everything admitted,
/// retracted or relabelled between `from` and `to`.
#[derive(Debug, Clone)]
pub struct DeltaOverlay {
    from: DeltaWatermark,
    to: DeltaWatermark,
    /// Live-at-capture edges appended in the window, ascending id;
    /// `edges` is parallel. An edge added *and* removed inside the window
    /// never appears anywhere (its removal is not a tombstone either).
    ids: Vec<EdgeId>,
    edges: Vec<Edge>,
    /// Adjacency of the added edges, sorted by `(pred, other, edge)` —
    /// the same order as a [`crate::FrozenView`] CSR segment, so merged
    /// reads can preserve it.
    out_adj: FxHashMap<VertexId, Vec<Adj>>,
    in_adj: FxHashMap<VertexId, Vec<Adj>>,
    /// Added edges per predicate, log (time) order.
    postings: FxHashMap<PredicateId, Vec<EdgeId>>,
    /// Added edges sorted by `(at, id)`.
    time_index: Vec<(Timestamp, EdgeId)>,
    /// Ids published before this window (`< from.log_len`) and tombstoned
    /// during it, ascending. They kill edges in the base or any earlier
    /// overlay of the stack this overlay lands on.
    tombstones: Vec<EdgeId>,
    /// Names of vertices minted in the window, ids
    /// `from.vertex_count..to.vertex_count` in order, plus the reverse map
    /// (interners dedup, so a name here is in no earlier layer).
    new_vertex_names: Vec<String>,
    new_vertex_index: FxHashMap<String, VertexId>,
    /// Labels of the minted vertices at capture time.
    new_labels: Vec<Option<String>>,
    /// Label patches for vertices that predate the window.
    label_fixups: FxHashMap<VertexId, Option<String>>,
    new_predicate_names: Vec<String>,
    new_predicate_index: FxHashMap<String, PredicateId>,
    /// The source graph's `now()` at capture.
    max_timestamp: Timestamp,
}

impl DeltaOverlay {
    /// Capture everything that changed in `g` since `since`. O(window):
    /// scans only the log suffix, the removal/label log suffixes and the
    /// interner suffixes. Panics when `since` is ahead of `g`: it was
    /// taken on another graph, since every log of this one only grows.
    pub fn capture(g: &DynamicGraph, since: DeltaWatermark) -> Self {
        let to = g.watermark();
        assert!(
            since.log_len <= to.log_len
                && since.removal_log_len <= to.removal_log_len
                && since.label_log_len <= to.label_log_len
                && since.vertex_count <= to.vertex_count
                && since.predicate_count <= to.predicate_count,
            "delta watermark {since:?} is ahead of the graph at {to:?}"
        );

        let log = g.edge_log();
        let window = to.log_len - since.log_len;
        let mut ids = Vec::with_capacity(window);
        let mut edges = Vec::with_capacity(window);
        let mut out_adj: FxHashMap<VertexId, Vec<Adj>> = FxHashMap::default();
        let mut in_adj: FxHashMap<VertexId, Vec<Adj>> = FxHashMap::default();
        let mut postings: FxHashMap<PredicateId, Vec<EdgeId>> = FxHashMap::default();
        let mut time_index = Vec::with_capacity(window);
        for (i, e) in log.iter().enumerate().take(to.log_len).skip(since.log_len) {
            let id = EdgeId(i as u32);
            if !g.is_live(id) {
                continue;
            }
            ids.push(id);
            out_adj.entry(e.src).or_default().push(Adj {
                pred: e.pred,
                other: e.dst,
                edge: id,
            });
            in_adj.entry(e.dst).or_default().push(Adj {
                pred: e.pred,
                other: e.src,
                edge: id,
            });
            postings.entry(e.pred).or_default().push(id);
            time_index.push((e.at, id));
            edges.push(e.clone());
        }
        for adj in out_adj.values_mut().chain(in_adj.values_mut()) {
            adj.sort_unstable_by_key(|a| (a.pred, a.other, a.edge));
        }
        time_index.sort_unstable();

        let mut tombstones: Vec<EdgeId> = g
            .removals_since(since.removal_log_len)
            .iter()
            .copied()
            .filter(|id| id.index() < since.log_len)
            .collect();
        tombstones.sort_unstable();

        let (vertex_names, predicate_names) = g.interner_parts();
        let mut new_vertex_names = Vec::with_capacity(to.vertex_count - since.vertex_count);
        let mut new_vertex_index = FxHashMap::default();
        let mut new_labels = Vec::with_capacity(to.vertex_count - since.vertex_count);
        for i in since.vertex_count..to.vertex_count {
            let v = VertexId(i as u32);
            let name = vertex_names.resolve(v.0);
            new_vertex_index.insert(name.to_owned(), v);
            new_vertex_names.push(name.to_owned());
            new_labels.push(g.label(v).map(str::to_owned));
        }
        let mut new_predicate_names =
            Vec::with_capacity(to.predicate_count - since.predicate_count);
        let mut new_predicate_index = FxHashMap::default();
        for i in since.predicate_count..to.predicate_count {
            let p = PredicateId(i as u32);
            let name = predicate_names.resolve(p.0);
            new_predicate_index.insert(name.to_owned(), p);
            new_predicate_names.push(name.to_owned());
        }

        let mut label_fixups = FxHashMap::default();
        for &v in g.labels_changed_since(since.label_log_len) {
            if v.index() < since.vertex_count {
                label_fixups.insert(v, g.label(v).map(str::to_owned));
            }
        }

        Self {
            from: since,
            to,
            ids,
            edges,
            out_adj,
            in_adj,
            postings,
            time_index,
            tombstones,
            new_vertex_names,
            new_vertex_index,
            new_labels,
            label_fixups,
            new_predicate_names,
            new_predicate_index,
            max_timestamp: g.now(),
        }
    }

    /// The watermark this overlay extends (its stack predecessor's `to`).
    pub fn from_watermark(&self) -> DeltaWatermark {
        self.from
    }

    /// The watermark the graph had at capture.
    pub fn to_watermark(&self) -> DeltaWatermark {
        self.to
    }

    /// Live edges added in the window.
    pub fn added_count(&self) -> usize {
        self.ids.len()
    }

    /// Previously published edges tombstoned in the window, ascending id.
    pub fn tombstones(&self) -> &[EdgeId] {
        &self.tombstones
    }

    /// Does this overlay change anything a [`crate::GraphView`] consumer
    /// could observe? Empty overlays need not be published at all.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
            && self.tombstones.is_empty()
            && self.new_vertex_names.is_empty()
            && self.new_predicate_names.is_empty()
            && self.label_fixups.is_empty()
    }

    /// The added edge behind `id`, if `id` was added live in this window.
    pub fn edge(&self, id: EdgeId) -> Option<&Edge> {
        self.ids.binary_search(&id).ok().map(|i| &self.edges[i])
    }

    /// Added out-adjacency of `v`, `(pred, other, edge)`-sorted.
    pub fn out_slice(&self, v: VertexId) -> &[Adj] {
        self.out_adj.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Added in-adjacency of `v`, `(pred, other, edge)`-sorted.
    pub fn in_slice(&self, v: VertexId) -> &[Adj] {
        self.in_adj.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Added edges with predicate `p`, log order.
    pub fn pred_postings(&self, p: PredicateId) -> &[EdgeId] {
        self.postings.get(&p).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Added edges sorted by `(at, id)`.
    pub fn time_index(&self) -> &[(Timestamp, EdgeId)] {
        &self.time_index
    }

    /// Name of a vertex minted in this window, if `v` is one.
    pub fn vertex_name(&self, v: VertexId) -> Option<&str> {
        let i = v.index().checked_sub(self.from.vertex_count)?;
        self.new_vertex_names.get(i).map(String::as_str)
    }

    /// Id of a vertex minted in this window, by name.
    pub fn vertex_id(&self, name: &str) -> Option<VertexId> {
        self.new_vertex_index.get(name).copied()
    }

    /// Label resolution for `v` as far as this overlay knows:
    /// `Some(label)` when the overlay minted `v` or patched its label,
    /// `None` when the overlay says nothing (ask an older layer).
    pub fn label(&self, v: VertexId) -> Option<Option<&str>> {
        if let Some(patch) = self.label_fixups.get(&v) {
            return Some(patch.as_deref());
        }
        let i = v.index().checked_sub(self.from.vertex_count)?;
        self.new_labels.get(i).map(Option::as_deref)
    }

    /// Name of a predicate minted in this window, if `p` is one.
    pub fn predicate_name(&self, p: PredicateId) -> Option<&str> {
        let i = p.index().checked_sub(self.from.predicate_count)?;
        self.new_predicate_names.get(i).map(String::as_str)
    }

    /// Id of a predicate minted in this window, by name.
    pub fn predicate_id(&self, name: &str) -> Option<PredicateId> {
        self.new_predicate_index.get(name).copied()
    }

    /// The source graph's largest timestamp at capture.
    pub fn now(&self) -> Timestamp {
        self.max_timestamp
    }

    /// Added edges, ascending id (log order).
    pub(crate) fn added(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.ids.iter().copied().zip(&self.edges)
    }

    /// Names of the minted vertices, in id order.
    pub(crate) fn new_vertex_names(&self) -> &[String] {
        &self.new_vertex_names
    }

    /// Labels of the minted vertices, parallel to
    /// [`DeltaOverlay::new_vertex_names`].
    pub(crate) fn new_labels(&self) -> &[Option<String>] {
        &self.new_labels
    }

    /// Label patches for vertices that predate the window.
    pub(crate) fn label_fixups(&self) -> impl Iterator<Item = (VertexId, Option<&str>)> {
        self.label_fixups.iter().map(|(v, l)| (*v, l.as_deref()))
    }

    /// Names of the minted predicates, in id order.
    pub(crate) fn new_predicate_names(&self) -> &[String] {
        &self.new_predicate_names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Provenance;

    fn base_graph() -> DynamicGraph {
        let mut g = DynamicGraph::new();
        let a = g.ensure_vertex("a");
        let b = g.ensure_vertex("b");
        g.set_label(a, "Company");
        let owns = g.intern_predicate("owns");
        g.add_edge_at(a, owns, b, 1, 0.9, Provenance::Curated);
        g.add_edge_at(b, owns, a, 2, 0.4, Provenance::Extracted { doc_id: 7 });
        g
    }

    #[test]
    fn capture_scopes_to_the_window() {
        let mut g = base_graph();
        let w = g.watermark();
        let c = g.ensure_vertex("c");
        g.set_label(c, "Location");
        let near = g.intern_predicate("near");
        let e2 = g.add_edge_at(VertexId(0), near, c, 3, 0.8, Provenance::Curated);
        let e3 = g.add_edge_at(c, near, VertexId(1), 4, 0.6, Provenance::Curated);
        g.remove_edge(EdgeId(0)); // pre-window edge -> tombstone
        g.remove_edge(e3); // in-window add+remove -> vanishes entirely
        g.set_label(VertexId(1), "Company"); // pre-window vertex -> fixup

        let d = DeltaOverlay::capture(&g, w);
        assert_eq!(d.added_count(), 1);
        assert_eq!(d.tombstones(), &[EdgeId(0)]);
        assert!(d.edge(e2).is_some());
        assert!(d.edge(e3).is_none(), "add+remove inside window vanishes");
        assert!(d.edge(EdgeId(0)).is_none(), "tombstone is not an add");
        assert_eq!(d.vertex_name(c), Some("c"));
        assert_eq!(d.vertex_id("c"), Some(c));
        assert_eq!(d.vertex_name(VertexId(0)), None, "pre-window vertex");
        assert_eq!(d.label(c), Some(Some("Location")));
        assert_eq!(d.label(VertexId(1)), Some(Some("Company")), "fixup");
        assert_eq!(d.label(VertexId(0)), None, "no opinion -> ask older layer");
        assert_eq!(d.predicate_name(near), Some("near"));
        assert_eq!(d.predicate_id("near"), Some(near));
        assert_eq!(d.predicate_id("owns"), None, "pre-window predicate");
        assert_eq!(d.pred_postings(near), &[e2]);
        assert_eq!(d.out_slice(VertexId(0)).len(), 1);
        assert_eq!(d.in_slice(c).len(), 1);
        assert_eq!(d.time_index(), &[(3, e2)]);
        assert_eq!(d.now(), 4);
        assert!(!d.is_empty());
    }

    #[test]
    fn empty_window_captures_empty_overlay() {
        let g = base_graph();
        let d = DeltaOverlay::capture(&g, g.watermark());
        assert!(d.is_empty());
        assert_eq!(d.added_count(), 0);
        assert_eq!(d.from_watermark(), d.to_watermark());
    }

    #[test]
    #[should_panic(expected = "ahead of the graph")]
    fn capture_rejects_a_watermark_ahead_of_the_graph() {
        let g = base_graph();
        let mut ahead = base_graph();
        ahead.remove_edge(EdgeId(0));
        DeltaOverlay::capture(&g, ahead.watermark());
    }
}
