//! Immutable, read-optimised graph snapshots.
//!
//! [`FrozenView`] is a CSR-packed copy of a [`DynamicGraph`]'s *live*
//! state: tombstoned edges are dropped, per-vertex adjacency is packed
//! into two contiguous arrays (out/in) segmented and sorted by predicate,
//! every predicate gets a postings list in log order, and the live edges
//! get a time-sorted index for range queries. It is the base layer of a
//! [`LayeredSnapshot`], which answers every query-side read by merging
//! these lookups with its overlays; a frozen view needs no lock or
//! tombstone check of its own.
//!
//! Freezing is O(V + E log E) and allocation-heavy by design: it runs on
//! the write side so that the read side never pays again. Folding a
//! [`LayeredSnapshot`] into one view ([`FrozenView::from_layers`]) builds
//! the same structure in O(V + E) from already-sorted layers, and needs
//! no access to the graph at all.

use crate::edge::Edge;
use crate::graph::{Adj, DynamicGraph};
use crate::ids::{EdgeId, Interner, PredicateId, Timestamp, VertexId};
use crate::layered::LayeredSnapshot;
use crate::view::GraphView;

/// A read-only, live-edges-only, CSR-packed snapshot of a
/// [`DynamicGraph`]. Edge ids are the source graph's log positions, so
/// ids resolved against the snapshot remain meaningful to the source
/// (until it compacts).
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenView {
    vertex_names: Interner,
    predicates: Interner,
    labels: Vec<Option<String>>,
    /// CSR offsets/payload; `out_csr[out_off[v]..out_off[v+1]]` is the
    /// live out-adjacency of `v`, sorted by `(pred, other, edge)` so each
    /// predicate's entries form one contiguous, binary-searchable segment.
    out_off: Vec<u32>,
    out_csr: Vec<Adj>,
    in_off: Vec<u32>,
    in_csr: Vec<Adj>,
    /// Live edge ids ascending, parallel to `edges`: `edge(id)` is a
    /// binary search, no tombstone vector needed.
    ids: Vec<EdgeId>,
    edges: Vec<Edge>,
    /// Per-predicate postings (CSR over predicate id), log order.
    post_off: Vec<u32>,
    postings: Vec<EdgeId>,
    /// Live edges sorted by `(at, id)` for binary-searched range queries.
    time_index: Vec<(Timestamp, EdgeId)>,
    /// Source log length at freeze time (live + dead): the staleness
    /// yardstick the publisher compares against.
    source_log_len: usize,
    max_timestamp: Timestamp,
}

fn build_csr(vertex_count: usize, mut entries: Vec<(VertexId, Adj)>) -> (Vec<u32>, Vec<Adj>) {
    entries.sort_unstable_by_key(|(v, a)| (v.0, a.pred.0, a.other.0, a.edge.0));
    let mut off = Vec::with_capacity(vertex_count + 1);
    let mut csr = Vec::with_capacity(entries.len());
    let mut cursor = 0usize;
    for v in 0..vertex_count as u32 {
        off.push(csr.len() as u32);
        while cursor < entries.len() && entries[cursor].0 .0 == v {
            csr.push(entries[cursor].1);
            cursor += 1;
        }
    }
    off.push(csr.len() as u32);
    (off, csr)
}

/// Per-predicate postings over the live edges `ids`/`edges` (log order):
/// prefix-sum offsets from `counts`, then one fill pass, which keeps each
/// predicate's segment in log order too.
fn build_postings(counts: &[u32], ids: &[EdgeId], edges: &[Edge]) -> (Vec<u32>, Vec<EdgeId>) {
    let mut post_off = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0u32;
    for c in counts {
        post_off.push(acc);
        acc += c;
    }
    post_off.push(acc);
    let mut postings = vec![EdgeId(0); acc as usize];
    let mut fill = post_off[..counts.len()].to_vec();
    for (id, e) in ids.iter().zip(edges) {
        let slot = &mut fill[e.pred.index()];
        postings[*slot as usize] = *id;
        *slot += 1;
    }
    (post_off, postings)
}

impl FrozenView {
    /// Freeze the live state of `g` into a read-optimised snapshot.
    pub fn freeze(g: &DynamicGraph) -> Self {
        let (vertex_names, predicates) = g.interner_parts();
        let vertex_count = g.vertex_count();
        let pred_count = g.predicate_count();

        // Reserve at the *live* edge count, not the full log length: after
        // heavy retraction the tombstoned tail would otherwise make every
        // freeze over-allocate four vectors by the dead fraction.
        let live = g.edge_count();
        let mut ids = Vec::with_capacity(live);
        let mut edges = Vec::with_capacity(live);
        let mut out_entries = Vec::with_capacity(live);
        let mut in_entries = Vec::with_capacity(live);
        let mut post_counts = vec![0u32; pred_count];
        for (id, e) in g.iter_edges() {
            ids.push(id);
            out_entries.push((
                e.src,
                Adj {
                    pred: e.pred,
                    other: e.dst,
                    edge: id,
                },
            ));
            in_entries.push((
                e.dst,
                Adj {
                    pred: e.pred,
                    other: e.src,
                    edge: id,
                },
            ));
            post_counts[e.pred.index()] += 1;
            edges.push(e.clone());
        }

        let (out_off, out_csr) = build_csr(vertex_count, out_entries);
        let (in_off, in_csr) = build_csr(vertex_count, in_entries);

        let (post_off, postings) = build_postings(&post_counts, &ids, &edges);
        let mut time_index: Vec<(Timestamp, EdgeId)> =
            ids.iter().zip(&edges).map(|(id, e)| (e.at, *id)).collect();
        time_index.sort_unstable();

        Self {
            vertex_names: vertex_names.clone(),
            predicates: predicates.clone(),
            labels: (0..vertex_count)
                .map(|i| g.label(VertexId(i as u32)).map(str::to_owned))
                .collect(),
            out_off,
            out_csr,
            in_off,
            in_csr,
            ids,
            edges,
            post_off,
            postings,
            time_index,
            source_log_len: g.log_len(),
            max_timestamp: g.now(),
        }
    }

    /// Fold a layered snapshot into one view: the base and its overlays
    /// merged in the order reads merge them, with tombstones, minted
    /// vertices and predicates and label patches applied. O(V + E) with
    /// no sort — every layer is already in the target order — and it
    /// reads nothing but `layers`. The result is identical to
    /// [`FrozenView::freeze`] of the source graph at `layers`' watermark.
    pub fn from_layers(layers: &LayeredSnapshot) -> Self {
        let base = layers.base();
        let overlays = layers.overlays();
        let vertex_count = layers.vertex_count();
        let pred_count = layers.predicate_count();

        let mut vertex_names = base.vertex_names.clone();
        let mut predicates = base.predicates.clone();
        let mut labels = Vec::with_capacity(vertex_count);
        labels.extend_from_slice(&base.labels);
        for o in overlays {
            for name in o.new_vertex_names() {
                vertex_names.intern(name);
            }
            for name in o.new_predicate_names() {
                predicates.intern(name);
            }
            labels.extend_from_slice(o.new_labels());
            for (v, label) in o.label_fixups() {
                labels[v.index()] = label.map(str::to_owned);
            }
        }

        // Live edges in log order: base ids, then each overlay's window —
        // the windows are disjoint and ascending.
        let live = layers.live_edge_count();
        let mut ids = Vec::with_capacity(live);
        let mut edges = Vec::with_capacity(live);
        let mut post_counts = vec![0u32; pred_count];
        for (id, e) in layers.iter_edges() {
            ids.push(id);
            post_counts[e.pred.index()] += 1;
            edges.push(e.clone());
        }
        let (post_off, postings) = build_postings(&post_counts, &ids, &edges);

        // Each vertex's segment is the reads' own merge of its slices.
        let (mut out_off, mut out_csr) = (
            Vec::with_capacity(vertex_count + 1),
            Vec::with_capacity(live),
        );
        let (mut in_off, mut in_csr) = (
            Vec::with_capacity(vertex_count + 1),
            Vec::with_capacity(live),
        );
        for v in (0..vertex_count as u32).map(VertexId) {
            out_off.push(out_csr.len() as u32);
            layers.for_each_out(v, |a| out_csr.push(a));
            in_off.push(in_csr.len() as u32);
            layers.for_each_in(v, |a| in_csr.push(a));
        }
        out_off.push(out_csr.len() as u32);
        in_off.push(in_csr.len() as u32);

        let mut runs = vec![base.time_index.as_slice()];
        runs.extend(overlays.iter().map(|o| o.time_index()));
        let mut time_index = Vec::with_capacity(live);
        layers.merge_runs(&runs, |x| *x, |x| x.1, |x| time_index.push(x));

        Self {
            vertex_names,
            predicates,
            labels,
            out_off,
            out_csr,
            in_off,
            in_csr,
            ids,
            edges,
            post_off,
            postings,
            time_index,
            source_log_len: layers.source_log_len(),
            max_timestamp: layers.now(),
        }
    }

    /// Live out-adjacency of `v` as one contiguous slice (predicate-sorted).
    pub fn out_slice(&self, v: VertexId) -> &[Adj] {
        &self.out_csr[self.out_off[v.index()] as usize..self.out_off[v.index() + 1] as usize]
    }

    /// Live in-adjacency of `v` as one contiguous slice (predicate-sorted).
    pub fn in_slice(&self, v: VertexId) -> &[Adj] {
        &self.in_csr[self.in_off[v.index()] as usize..self.in_off[v.index() + 1] as usize]
    }

    /// All live edges with predicate `p`, log order.
    pub fn pred_postings(&self, p: PredicateId) -> &[EdgeId] {
        if p.index() + 1 >= self.post_off.len() {
            return &[];
        }
        &self.postings[self.post_off[p.index()] as usize..self.post_off[p.index() + 1] as usize]
    }

    /// Live edges with `at` in `[from, to]`, ascending `(at, id)` — a
    /// binary search over the time index, never a log scan.
    pub fn edges_in_range(
        &self,
        from: Timestamp,
        to: Timestamp,
    ) -> impl Iterator<Item = (EdgeId, &Edge)> {
        let lo = self.time_index.partition_point(|(at, _)| *at < from);
        let hi = self.time_index.partition_point(|(at, _)| *at <= to).max(lo);
        self.time_index[lo..hi]
            .iter()
            .map(move |(_, id)| (*id, self.edge(*id)))
    }

    /// Largest timestamp in the source graph at freeze time.
    pub fn now(&self) -> Timestamp {
        self.max_timestamp
    }

    /// Source edge-log length (live + dead) at freeze time: publishers
    /// compare this against the live graph's `log_len()` to decide
    /// whether a snapshot is stale.
    pub fn source_log_len(&self) -> usize {
        self.source_log_len
    }

    fn edge_idx(&self, id: EdgeId) -> usize {
        self.ids
            .binary_search(&id)
            .unwrap_or_else(|_| panic!("{id} is not a live edge of this frozen view"))
    }

    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    pub fn vertex_id(&self, name: &str) -> Option<VertexId> {
        self.vertex_names.get(name).map(VertexId)
    }

    pub fn vertex_name(&self, v: VertexId) -> &str {
        self.vertex_names.resolve(v.0)
    }

    pub fn label(&self, v: VertexId) -> Option<&str> {
        self.labels[v.index()].as_deref()
    }

    pub fn predicate_count(&self) -> usize {
        self.predicates.len()
    }

    pub fn predicate_id(&self, name: &str) -> Option<PredicateId> {
        self.predicates.get(name).map(PredicateId)
    }

    pub fn predicate_name(&self, p: PredicateId) -> &str {
        self.predicates.resolve(p.0)
    }

    /// The live edge `id`. Panics if `id` is not a live edge of this view.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[self.edge_idx(id)]
    }

    /// Number of live edges.
    pub fn live_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Live edges in log order, with their ids.
    pub(crate) fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.ids.iter().copied().zip(&self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Provenance;

    fn sample() -> DynamicGraph {
        let mut g = DynamicGraph::new();
        let a = g.ensure_vertex("a");
        let b = g.ensure_vertex("b");
        let c = g.ensure_vertex("c");
        g.set_label(a, "Company");
        let owns = g.intern_predicate("owns");
        let near = g.intern_predicate("near");
        g.add_edge_at(a, owns, b, 1, 0.9, Provenance::Curated);
        g.add_edge_at(b, near, c, 2, 0.5, Provenance::Extracted { doc_id: 7 });
        g.add_edge_at(a, near, c, 3, 0.7, Provenance::Curated);
        g.add_edge_at(a, owns, c, 4, 0.8, Provenance::Curated);
        g
    }

    #[test]
    fn freeze_packs_live_state() {
        let mut g = sample();
        g.remove_edge(EdgeId(1));
        let f = FrozenView::freeze(&g);
        assert_eq!(f.vertex_count(), 3);
        assert_eq!(f.live_edge_count(), 3);
        assert_eq!(f.predicate_count(), 2);
        assert_eq!(f.source_log_len(), 4);
        assert_eq!(f.now(), 4);
        assert_eq!(f.vertex_id("a"), Some(VertexId(0)));
        assert_eq!(f.vertex_name(VertexId(2)), "c");
        assert_eq!(f.label(VertexId(0)), Some("Company"));
        assert_eq!(f.label(VertexId(1)), None);
    }

    #[test]
    fn adjacency_is_predicate_segmented() {
        let g = sample();
        let f = FrozenView::freeze(&g);
        let (a, c) = (VertexId(0), VertexId(2));
        let out = f.out_slice(a);
        assert_eq!(out.len(), 3);
        assert!(out
            .windows(2)
            .all(|w| (w[0].pred, w[0].other) <= (w[1].pred, w[1].other)));
        assert_eq!(f.in_slice(c).len(), 3);
        assert!(f.in_slice(a).is_empty());
    }

    #[test]
    fn postings_list_live_edges_in_log_order() {
        let mut g = sample();
        g.remove_edge(EdgeId(2));
        let f = FrozenView::freeze(&g);
        let near = g.predicate_id("near").unwrap();
        let owns = g.predicate_id("owns").unwrap();
        assert_eq!(f.pred_postings(near), &[EdgeId(1)]);
        assert_eq!(f.pred_postings(owns), &[EdgeId(0), EdgeId(3)]);
        // Unknown predicate id (interned later in the source): empty.
        assert_eq!(f.pred_postings(PredicateId(99)), &[] as &[EdgeId]);
    }

    #[test]
    fn time_index_serves_ranges() {
        let mut g = sample();
        g.remove_edge(EdgeId(1));
        let f = FrozenView::freeze(&g);
        let expect = |from, to| {
            let mut hits: Vec<(u64, EdgeId)> = g
                .iter_edges()
                .filter(|(_, e)| e.at >= from && e.at <= to)
                .map(|(id, e)| (e.at, id))
                .collect();
            hits.sort_unstable();
            hits.into_iter().map(|(_, id)| id).collect::<Vec<_>>()
        };
        for (from, to) in [(0, 100), (2, 3), (1, 1), (5, 9), (3, 2)] {
            let got: Vec<EdgeId> = f.edges_in_range(from, to).map(|(id, _)| id).collect();
            assert_eq!(got, expect(from, to), "range [{from}, {to}]");
        }
    }

    #[test]
    fn edge_lookup_resolves_log_ids() {
        let mut g = sample();
        g.remove_edge(EdgeId(0));
        let f = FrozenView::freeze(&g);
        assert_eq!(f.edge(EdgeId(3)).at, 4);
        assert_eq!(f.edge(EdgeId(1)).confidence, 0.5);
    }

    #[test]
    #[should_panic(expected = "not a live edge")]
    fn dead_edge_lookup_panics() {
        let mut g = sample();
        g.remove_edge(EdgeId(0));
        let f = FrozenView::freeze(&g);
        f.edge(EdgeId(0));
    }

    #[test]
    fn frozen_view_is_unaffected_by_source_mutation() {
        let mut g = sample();
        let f = FrozenView::freeze(&g);
        let before: Vec<EdgeId> = f.pred_postings(f.predicate_id("owns").unwrap()).to_vec();
        // Mutate the source heavily after freezing.
        let d = g.ensure_vertex("d");
        let owns = g.predicate_id("owns").unwrap();
        g.add_edge_at(VertexId(0), owns, d, 9, 1.0, Provenance::Curated);
        g.remove_edge(EdgeId(0));
        assert_eq!(f.vertex_count(), 3);
        assert_eq!(f.live_edge_count(), 4);
        assert_eq!(f.pred_postings(f.predicate_id("owns").unwrap()), before);
        assert!(f.vertex_id("d").is_none());
    }
}
