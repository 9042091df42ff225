//! Layered snapshots: a frozen base plus delta overlays, merged on read.
//!
//! [`LayeredSnapshot`] is the LSM-style publication unit of the serving
//! path, and the one type that answers reads: the query executor, the
//! path searches, entity summaries, trend rendering, the graph
//! algorithms and the exports all take one. It is an immutable CSR base
//! ([`FrozenView`]) with a short stack of [`DeltaOverlay`]s on top, each
//! covering one contiguous window of the source graph's edge log; the
//! mutable [`DynamicGraph`] keeps only what writes need. Publishing a new
//! epoch is O(window) — capture an overlay, push, swap — while every read
//! merges the layers behind the [`GraphView`] trait, preserving the exact
//! orders consumers rely on:
//!
//! - `for_each_out` / `for_each_in`: `(pred, other, edge)` order, the
//!   same a fresh [`FrozenView::freeze`] of the source graph would yield
//!   (per-layer slices are pre-sorted; reads k-way merge them).
//! - `for_each_with_pred`: edge-log (time) order — base postings first,
//!   then overlays oldest to newest; id ranges are disjoint and
//!   ascending, so concatenation *is* log order.
//! - [`LayeredSnapshot::edges_in_range`]: ascending `(at, id)`.
//! - [`LayeredSnapshot::iter_edges`]: edge-log order, which is
//!   ascending `EdgeId` (the exports' order).
//!
//! Tombstones recorded by any overlay hide edges of every older layer,
//! checked on read against one sorted union. A background compactor folds
//! the stack back into a single base ([`FrozenView::from_layers`], the
//! same merge the reads do, no graph needed) and installs it under the
//! overlays published while it folded ([`LayeredSnapshot::rebase`]; see
//! `SharedSession` in `nous-core`). One fold runs at a time and publishing
//! only ever pushes, so the stack a fold read is always a prefix of the
//! stack it installs into. A folded base is identical to
//! [`FrozenView::freeze`] of the source graph at the same watermark — the
//! correctness oracle the equivalence tests pin.

use crate::delta::DeltaOverlay;
use crate::edge::Edge;
use crate::frozen::FrozenView;
use crate::graph::{Adj, DeltaWatermark, DynamicGraph};
use crate::ids::{EdgeId, PredicateId, Timestamp, VertexId};
use crate::view::GraphView;
use std::sync::Arc;

/// Merge effort of one [`LayeredSnapshot`]: how many layers, overlay
/// edges and tombstones the read path consults on top of the base CSR.
/// Plain data so observability layers can render it without this crate
/// depending on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeStats {
    /// Base plus overlay count (`1` = fully compacted).
    pub layers: usize,
    /// Edges served from overlays rather than the base CSR.
    pub overlay_edges: usize,
    /// Tombstoned edge ids checked against on every read.
    pub tombstones: usize,
    /// Live edges visible through the snapshot.
    pub live_edges: usize,
}

impl MergeStats {
    /// Overlay share of live edges in permille — matches the
    /// `nous_snapshot_delta_permille` gauge.
    pub fn delta_permille(&self) -> u64 {
        ((self.overlay_edges as u128 * 1000) / self.live_edges.max(1) as u128) as u64
    }

    /// Span-attribute pairs for annotating a serve-time trace span.
    pub fn attrs(&self) -> Vec<(String, String)> {
        vec![
            ("nous_snapshot_layers".into(), self.layers.to_string()),
            ("overlay_edges".into(), self.overlay_edges.to_string()),
            ("tombstones".into(), self.tombstones.to_string()),
            ("delta_permille".into(), self.delta_permille().to_string()),
        ]
    }
}

/// An immutable, epoch-publishable view of a [`DynamicGraph`]: one frozen
/// base plus zero or more delta overlays. Cloning is cheap (the layers
/// are shared `Arc`s); pushing an overlay never touches existing layers,
/// so readers holding an older snapshot are unaffected.
#[derive(Debug, Clone)]
pub struct LayeredSnapshot {
    base: Arc<FrozenView>,
    overlays: Vec<Arc<DeltaOverlay>>,
    /// Union of every overlay's tombstones, ascending — one binary search
    /// decides edge liveness on the read path.
    tombstones: Vec<EdgeId>,
    live_edges: usize,
    watermark: DeltaWatermark,
}

impl LayeredSnapshot {
    /// Full rebuild: freeze `g` into a single-base snapshot with no
    /// overlays. This is both the initial publication and what the
    /// compactor produces.
    pub fn freeze(g: &DynamicGraph) -> Self {
        let base = FrozenView::freeze(g);
        let live_edges = base.live_edge_count();
        Self {
            base: Arc::new(base),
            overlays: Vec::new(),
            tombstones: Vec::new(),
            live_edges,
            watermark: g.watermark(),
        }
    }

    /// Capture everything that changed in `g` since this snapshot was
    /// published, as an overlay ready for [`LayeredSnapshot::with_overlay`].
    /// O(changes), not O(graph). `g` must be the graph this snapshot was
    /// published from ([`DeltaOverlay::capture`] panics otherwise).
    pub fn capture_delta(&self, g: &DynamicGraph) -> DeltaOverlay {
        DeltaOverlay::capture(g, self.watermark)
    }

    /// Extend the snapshot with one overlay, producing the next epoch's
    /// view. Panics unless the overlay chains exactly onto this snapshot
    /// (its `from` watermark equals ours): layers with gaps or overlaps
    /// would double-count or lose edges.
    pub fn with_overlay(&self, overlay: DeltaOverlay) -> Self {
        assert_eq!(
            overlay.from_watermark(),
            self.watermark,
            "overlay does not chain onto this snapshot"
        );
        let mut next = self.clone();
        next.push(Arc::new(overlay));
        next
    }

    /// Stack `overlay` (chained onto this snapshot's watermark) on top.
    fn push(&mut self, overlay: Arc<DeltaOverlay>) {
        let (old, new) = (&self.tombstones, overlay.tombstones());
        let mut tombstones = Vec::with_capacity(old.len() + new.len());
        // Merge two sorted id lists; they are disjoint (an edge dies once).
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < new.len() {
            if new[j] < old[i] {
                tombstones.push(new[j]);
                j += 1;
            } else {
                tombstones.push(old[i]);
                i += 1;
            }
        }
        tombstones.extend_from_slice(&old[i..]);
        tombstones.extend_from_slice(&new[j..]);
        self.tombstones = tombstones;
        self.live_edges = self.live_edges + overlay.added_count() - overlay.tombstones().len();
        self.watermark = overlay.to_watermark();
        self.overlays.push(overlay);
    }

    /// The compactor's install step. `folded` is
    /// [`FrozenView::from_layers`] of `from`, an earlier snapshot of this
    /// stack; the result serves this snapshot's state from the folded base
    /// plus the overlays published on top of `from` since, their tombstone
    /// union and live count recomputed. Panics unless this snapshot
    /// extends `from`, which holds while only one fold runs at a time.
    pub fn rebase(&self, from: &LayeredSnapshot, folded: Arc<FrozenView>) -> Self {
        let k = from.overlays.len();
        assert!(
            Arc::ptr_eq(&self.base, &from.base)
                && self.overlays.len() >= k
                && self
                    .overlays
                    .iter()
                    .zip(&from.overlays)
                    .all(|(a, b)| Arc::ptr_eq(a, b)),
            "the stack a fold read is not a prefix of the one it installs into"
        );
        debug_assert_eq!(folded.source_log_len(), from.source_log_len());
        let mut next = Self {
            live_edges: folded.live_edge_count(),
            base: folded,
            overlays: Vec::with_capacity(self.overlays.len() - k),
            tombstones: Vec::new(),
            watermark: from.watermark,
        };
        for overlay in &self.overlays[k..] {
            next.push(overlay.clone());
        }
        next
    }

    /// The mutation watermark this snapshot reflects.
    pub fn watermark(&self) -> DeltaWatermark {
        self.watermark
    }

    /// Number of overlays stacked on the base (0 = fully compacted).
    pub fn layer_count(&self) -> usize {
        self.overlays.len()
    }

    /// Has the stack been folded into a single base?
    pub fn is_compacted(&self) -> bool {
        self.overlays.is_empty()
    }

    /// Fraction of the snapshot's live edges served from overlays rather
    /// than the base CSR — the compaction trigger signal, in `[0, 1]`.
    pub fn delta_fraction(&self) -> f64 {
        self.overlay_edge_count() as f64 / (self.live_edges.max(1)) as f64
    }

    /// Total edges held in overlays (the absolute compaction signal,
    /// complementing the relative [`LayeredSnapshot::delta_fraction`]).
    pub fn overlay_edge_count(&self) -> usize {
        self.overlays.iter().map(|o| o.added_count()).sum()
    }

    /// The frozen base layer.
    pub fn base(&self) -> &FrozenView {
        &self.base
    }

    /// Read-path merge accounting: how much work a read against this
    /// snapshot does beyond a plain CSR lookup. Serving code attaches
    /// this to trace spans (see `SearchStats::attrs` in `nous-qa` for
    /// the convention).
    pub fn merge_stats(&self) -> MergeStats {
        MergeStats {
            layers: 1 + self.overlays.len(),
            overlay_edges: self.overlay_edge_count(),
            tombstones: self.tombstones.len(),
            live_edges: self.live_edges,
        }
    }

    /// Source edge-log length (live + dead) this snapshot reflects — the
    /// staleness yardstick publishers compare against `log_len()`.
    pub fn source_log_len(&self) -> usize {
        self.watermark.log_len
    }

    /// Largest timestamp the source graph had at the last capture.
    pub fn now(&self) -> Timestamp {
        self.overlays
            .last()
            .map(|o| o.now())
            .unwrap_or_else(|| self.base.now())
    }

    /// The overlays stacked on the base, oldest first.
    pub(crate) fn overlays(&self) -> &[Arc<DeltaOverlay>] {
        &self.overlays
    }

    /// Is `id` hidden by a tombstone recorded in any overlay?
    pub(crate) fn is_tombstoned(&self, id: EdgeId) -> bool {
        self.tombstones.binary_search(&id).is_ok()
    }

    /// Live edges in edge-log order (ascending `EdgeId`): the base's
    /// edges, then each overlay's window, oldest first.
    pub fn iter_edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        let overlaid = self.overlays.iter().flat_map(|o| o.added());
        self.base
            .edges()
            .chain(overlaid)
            .filter(|(id, _)| !self.is_tombstoned(*id))
    }

    /// Live edges with `at` in `[from, to]`, ascending `(at, id)` — the
    /// layered equivalent of [`FrozenView::edges_in_range`].
    pub fn edges_in_range(
        &self,
        from: Timestamp,
        to: Timestamp,
    ) -> impl Iterator<Item = (EdgeId, &Edge)> {
        let mut hits: Vec<(Timestamp, EdgeId, &Edge)> = self
            .base
            .edges_in_range(from, to)
            .filter(|(id, _)| !self.is_tombstoned(*id))
            .map(|(id, e)| (e.at, id, e))
            .collect();
        for o in &self.overlays {
            let idx = o.time_index();
            let lo = idx.partition_point(|(at, _)| *at < from);
            let hi = idx.partition_point(|(at, _)| *at <= to).max(lo);
            for &(at, id) in &idx[lo..hi] {
                if !self.is_tombstoned(id) {
                    hits.push((at, id, o.edge(id).expect("time index lists live adds")));
                }
            }
        }
        hits.sort_unstable_by_key(|(at, id, _)| (*at, *id));
        hits.into_iter().map(|(_, id, e)| (id, e))
    }

    /// K-way merge of ascending runs (one per layer), skipping entries
    /// whose `edge` is tombstoned: `f` sees the live entries of all runs
    /// in ascending `key` order. Adjacency reads merge per-layer CSR
    /// slices with it; the fold merges time indexes with it too.
    pub(crate) fn merge_runs<T: Copy, K: Ord>(
        &self,
        runs: &[&[T]],
        key: impl Fn(&T) -> K,
        edge: impl Fn(&T) -> EdgeId,
        mut f: impl FnMut(T),
    ) {
        let mut pos = [0usize; 16];
        let mut heap_pos;
        let pos: &mut [usize] = if runs.len() <= 16 {
            &mut pos[..runs.len()]
        } else {
            heap_pos = vec![0usize; runs.len()];
            &mut heap_pos
        };
        loop {
            let mut best: Option<(usize, K)> = None;
            for (i, s) in runs.iter().enumerate() {
                while pos[i] < s.len() && self.is_tombstoned(edge(&s[pos[i]])) {
                    pos[i] += 1;
                }
                if pos[i] < s.len() {
                    let k = key(&s[pos[i]]);
                    if best.as_ref().is_none_or(|(_, b)| k < *b) {
                        best = Some((i, k));
                    }
                }
            }
            match best {
                Some((i, _)) => {
                    f(runs[i][pos[i]]);
                    pos[i] += 1;
                }
                None => break,
            }
        }
    }

    /// Per-layer `(pred, other, edge)`-sorted adjacency slices, merged —
    /// the exact order a fresh [`FrozenView::freeze`] CSR segment has.
    fn merge_adj(&self, slices: &[&[Adj]], f: impl FnMut(Adj)) {
        self.merge_runs(slices, |a| (a.pred, a.other, a.edge), |a| a.edge, f);
    }

    fn out_slices(&self, v: VertexId) -> Vec<&[Adj]> {
        let mut slices = Vec::with_capacity(1 + self.overlays.len());
        if v.index() < self.base.vertex_count() {
            slices.push(self.base.out_slice(v));
        }
        for o in &self.overlays {
            slices.push(o.out_slice(v));
        }
        slices
    }

    fn in_slices(&self, v: VertexId) -> Vec<&[Adj]> {
        let mut slices = Vec::with_capacity(1 + self.overlays.len());
        if v.index() < self.base.vertex_count() {
            slices.push(self.base.in_slice(v));
        }
        for o in &self.overlays {
            slices.push(o.in_slice(v));
        }
        slices
    }

    fn live_count(&self, slices: &[&[Adj]]) -> usize {
        slices
            .iter()
            .flat_map(|s| s.iter())
            .filter(|a| !self.is_tombstoned(a.edge))
            .count()
    }
}

impl GraphView for LayeredSnapshot {
    fn vertex_count(&self) -> usize {
        self.watermark.vertex_count
    }

    fn vertex_id(&self, name: &str) -> Option<VertexId> {
        if let Some(v) = self.base.vertex_id(name) {
            return Some(v);
        }
        self.overlays.iter().find_map(|o| o.vertex_id(name))
    }

    fn vertex_name(&self, v: VertexId) -> &str {
        if v.index() < self.base.vertex_count() {
            return self.base.vertex_name(v);
        }
        self.overlays
            .iter()
            .find_map(|o| o.vertex_name(v))
            .unwrap_or_else(|| panic!("{v} is not a vertex of this snapshot"))
    }

    fn label(&self, v: VertexId) -> Option<&str> {
        // Newest opinion wins: a later overlay's fixup overrides both the
        // base and the overlay that minted the vertex.
        for o in self.overlays.iter().rev() {
            if let Some(l) = o.label(v) {
                return l;
            }
        }
        self.base.label(v)
    }

    fn predicate_count(&self) -> usize {
        self.watermark.predicate_count
    }

    fn predicate_id(&self, name: &str) -> Option<PredicateId> {
        if let Some(p) = self.base.predicate_id(name) {
            return Some(p);
        }
        self.overlays.iter().find_map(|o| o.predicate_id(name))
    }

    fn predicate_name(&self, p: PredicateId) -> &str {
        if p.index() < self.base.predicate_count() {
            return self.base.predicate_name(p);
        }
        self.overlays
            .iter()
            .find_map(|o| o.predicate_name(p))
            .unwrap_or_else(|| panic!("{p} is not a predicate of this snapshot"))
    }

    fn edge(&self, id: EdgeId) -> &Edge {
        if self.is_tombstoned(id) {
            panic!("{id} is not a live edge of this layered snapshot");
        }
        if id.index() < self.base.source_log_len() {
            return self.base.edge(id);
        }
        self.overlays
            .iter()
            .find_map(|o| o.edge(id))
            .unwrap_or_else(|| panic!("{id} is not a live edge of this layered snapshot"))
    }

    fn live_edge_count(&self) -> usize {
        self.live_edges
    }

    fn for_each_out(&self, v: VertexId, f: impl FnMut(Adj)) {
        self.merge_adj(&self.out_slices(v), f);
    }

    fn for_each_in(&self, v: VertexId, f: impl FnMut(Adj)) {
        self.merge_adj(&self.in_slices(v), f);
    }

    fn for_each_with_pred(
        &self,
        p: PredicateId,
        mut f: impl FnMut(EdgeId, &Edge) -> std::ops::ControlFlow<()>,
    ) -> std::ops::ControlFlow<()> {
        // Base postings, then overlays oldest→newest: id windows are
        // disjoint and ascending, so this is edge-log order end to end.
        for id in self.base.pred_postings(p) {
            if !self.is_tombstoned(*id) {
                f(*id, self.base.edge(*id))?;
            }
        }
        for o in &self.overlays {
            for id in o.pred_postings(p) {
                if !self.is_tombstoned(*id) {
                    f(*id, o.edge(*id).expect("postings list live adds"))?;
                }
            }
        }
        std::ops::ControlFlow::Continue(())
    }

    fn out_degree(&self, v: VertexId) -> usize {
        self.live_count(&self.out_slices(v))
    }

    fn in_degree(&self, v: VertexId) -> usize {
        self.live_count(&self.in_slices(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Provenance;

    fn seeded() -> DynamicGraph {
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
        g
    }

    /// Every `GraphView` answer (plus `edges_in_range` and
    /// `iter_edges`) must match the lookups of a fresh full freeze of
    /// the same graph.
    fn assert_equivalent(snap: &LayeredSnapshot, g: &DynamicGraph) {
        let fresh = FrozenView::freeze(g);
        assert_eq!(snap.vertex_count(), fresh.vertex_count());
        assert_eq!(snap.predicate_count(), fresh.predicate_count());
        assert_eq!(snap.live_edge_count(), fresh.live_edge_count());
        assert_eq!(snap.now(), fresh.now());
        assert_eq!(snap.source_log_len(), fresh.source_log_len());
        for v in (0..g.vertex_count() as u32).map(VertexId) {
            assert_eq!(snap.vertex_name(v), fresh.vertex_name(v));
            assert_eq!(snap.vertex_id(snap.vertex_name(v)), Some(v));
            assert_eq!(snap.label(v), fresh.label(v), "label of {v}");
            let mut snap_out = Vec::new();
            snap.for_each_out(v, |a| snap_out.push(a));
            assert_eq!(snap_out, fresh.out_slice(v), "out adjacency of {v}");
            let mut snap_in = Vec::new();
            snap.for_each_in(v, |a| snap_in.push(a));
            assert_eq!(snap_in, fresh.in_slice(v), "in adjacency of {v}");
            assert_eq!(snap.out_degree(v), fresh.out_slice(v).len());
            assert_eq!(snap.in_degree(v), fresh.in_slice(v).len());
            let mut sn = Vec::new();
            snap.neighbors_into(v, &mut sn);
            let mut fr: Vec<VertexId> = fresh.out_slice(v).iter().map(|a| a.other).collect();
            fr.extend(fresh.in_slice(v).iter().map(|a| a.other));
            fr.sort_unstable();
            fr.dedup();
            assert_eq!(sn, fr, "neighbors of {v}");
        }
        for p in (0..g.predicate_count() as u32).map(PredicateId) {
            assert_eq!(snap.predicate_name(p), fresh.predicate_name(p));
            assert_eq!(snap.predicate_id(snap.predicate_name(p)), Some(p));
            let mut sn = Vec::new();
            let _ = snap.for_each_with_pred(p, |id, e| {
                assert_eq!(e.pred, p);
                sn.push(id);
                std::ops::ControlFlow::Continue(())
            });
            assert_eq!(sn, fresh.pred_postings(p), "postings of {p}");
        }
        let sn: Vec<_> = snap.edges_in_range(0, u64::MAX).map(|(id, _)| id).collect();
        let fr: Vec<_> = fresh
            .edges_in_range(0, u64::MAX)
            .map(|(id, _)| id)
            .collect();
        assert_eq!(sn, fr, "time range");
        for (id, e) in snap.edges_in_range(0, u64::MAX) {
            assert_eq!(GraphView::edge(snap, id).at, e.at);
        }
        let sn: Vec<_> = snap.iter_edges().collect();
        let fr: Vec<_> = fresh.edges().collect();
        assert_eq!(sn, fr, "live edges in log order");
    }

    #[test]
    fn base_only_snapshot_matches_frozen_view() {
        let g = seeded();
        let snap = LayeredSnapshot::freeze(&g);
        assert!(snap.is_compacted());
        assert_eq!(snap.layer_count(), 0);
        assert_eq!(snap.delta_fraction(), 0.0);
        assert_equivalent(&snap, &g);
    }

    #[test]
    fn overlays_track_adds_removes_mints_and_labels() {
        let mut g = seeded();
        let snap0 = LayeredSnapshot::freeze(&g);

        // Window 1: new vertex + predicate, one add, one retraction.
        let d = g.ensure_vertex("d");
        g.set_label(d, "Location");
        let feeds = g.intern_predicate("feeds");
        g.add_edge_at(VertexId(0), feeds, d, 4, 0.6, Provenance::Curated);
        g.remove_edge(EdgeId(1));
        let snap1 = snap0.with_overlay(snap0.capture_delta(&g));
        assert_eq!(snap1.layer_count(), 1);
        assert!(snap1.delta_fraction() > 0.0);
        assert_equivalent(&snap1, &g);

        // Window 2: relabel an old vertex, kill an overlay-1 edge, add more.
        g.set_label(VertexId(0), "Conglomerate");
        let owns = g.predicate_id("owns").unwrap();
        g.add_edge_at(
            d,
            owns,
            VertexId(2),
            5,
            0.8,
            Provenance::Extracted { doc_id: 9 },
        );
        g.remove_edge(EdgeId(3)); // the window-1 add
        let snap2 = snap1.with_overlay(snap1.capture_delta(&g));
        assert_eq!(snap2.layer_count(), 2);
        assert_equivalent(&snap2, &g);

        // Older epochs stay pinned and untouched.
        assert_equivalent(&snap0, &seeded());
        assert_eq!(snap1.label(VertexId(0)), Some("Company"));
        assert_eq!(snap2.label(VertexId(0)), Some("Conglomerate"));

        // Compaction folds back to one base, identical to a full freeze.
        let compacted = LayeredSnapshot::freeze(&g);
        assert!(compacted.is_compacted());
        assert_equivalent(&compacted, &g);
    }

    #[test]
    #[should_panic(expected = "does not chain")]
    fn mischained_overlay_is_rejected() {
        let mut g = seeded();
        let snap0 = LayeredSnapshot::freeze(&g);
        g.add_edge_at(
            VertexId(0),
            PredicateId(0),
            VertexId(1),
            9,
            0.5,
            Provenance::Curated,
        );
        let snap1 = snap0.with_overlay(snap0.capture_delta(&g));
        // An overlay captured against snap1 cannot chain onto snap0.
        g.add_edge_at(
            VertexId(1),
            PredicateId(0),
            VertexId(2),
            10,
            0.5,
            Provenance::Curated,
        );
        let overlay = snap1.capture_delta(&g);
        snap0.with_overlay(overlay);
    }

    #[test]
    fn merge_stats_count_layers_overlay_edges_and_tombstones() {
        let mut g = seeded();
        let snap0 = LayeredSnapshot::freeze(&g);
        let s0 = snap0.merge_stats();
        assert_eq!(s0.layers, 1);
        assert_eq!(s0.overlay_edges, 0);
        assert_eq!(s0.tombstones, 0);
        assert_eq!(s0.live_edges, 3);
        assert_eq!(s0.delta_permille(), 0);

        g.add_edge_at(
            VertexId(0),
            PredicateId(0),
            VertexId(2),
            9,
            0.5,
            Provenance::Curated,
        );
        g.remove_edge(EdgeId(0));
        let snap1 = snap0.with_overlay(snap0.capture_delta(&g));
        let s1 = snap1.merge_stats();
        assert_eq!(s1.layers, 2);
        assert_eq!(s1.overlay_edges, 1);
        assert_eq!(s1.tombstones, 1);
        assert_eq!(s1.live_edges, 3);
        assert_eq!(s1.delta_permille(), 333);
        let attrs = s1.attrs();
        assert_eq!(attrs[0], ("nous_snapshot_layers".into(), "2".into()));
        assert_eq!(attrs[3], ("delta_permille".into(), "333".into()));
    }

    #[test]
    #[should_panic(expected = "not a live edge")]
    fn tombstoned_edge_lookup_panics() {
        let mut g = seeded();
        let snap0 = LayeredSnapshot::freeze(&g);
        g.remove_edge(EdgeId(0));
        let snap1 = snap0.with_overlay(snap0.capture_delta(&g));
        GraphView::edge(&snap1, EdgeId(0));
    }

    #[test]
    fn predicate_scan_stops_at_the_first_break() {
        let mut g = seeded();
        let snap0 = LayeredSnapshot::freeze(&g);
        let near = g.predicate_id("near").unwrap();
        g.add_edge_at(VertexId(2), near, VertexId(0), 4, 0.5, Provenance::Curated);
        let snap1 = snap0.with_overlay(snap0.capture_delta(&g));
        let mut seen = Vec::new();
        let flow = snap1.for_each_with_pred(near, |id, _| {
            seen.push(id);
            std::ops::ControlFlow::Break(())
        });
        assert!(flow.is_break());
        assert_eq!(seen, vec![EdgeId(1)], "base posting first, then stop");
    }
}
