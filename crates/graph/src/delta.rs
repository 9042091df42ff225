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
//! Overlays also have a self-contained binary frame format
//! ([`DeltaOverlay::encode`] / [`DeltaOverlay::decode`]) on the same codec
//! the WAL and checkpoint files use, so a publisher can ship increments to
//! a follower or spill them next to the checkpoint generation they extend.

use crate::codec;
use crate::edge::{Edge, Provenance};
use crate::graph::{Adj, DeltaWatermark, DynamicGraph};
use crate::hash::FxHashMap;
use crate::ids::{EdgeId, PredicateId, Timestamp, VertexId};
use crate::snapshot::{put_prop_map, read_prop_map, SnapshotError, EDGE_FIXED_BYTES};

/// Capture failed because the graph's id space moved on (it compacted or
/// was rebuilt from a serialised form) since the watermark was taken. The
/// caller must fall back to a full [`crate::FrozenView::freeze`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaStale;

impl std::fmt::Display for DeltaStale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "graph structure changed since the delta watermark")
    }
}

impl std::error::Error for DeltaStale {}

/// One immutable increment of graph history: everything admitted,
/// retracted or relabelled between `from` and `to`.
#[derive(Debug, Clone, Default)]
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
    /// interner suffixes. Fails with [`DeltaStale`] when `g` compacted or
    /// rebuilt after `since` was taken.
    pub fn capture(g: &DynamicGraph, since: DeltaWatermark) -> Result<Self, DeltaStale> {
        let to = g.watermark();
        if to.structure_version != since.structure_version || to < since {
            return Err(DeltaStale);
        }

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

        Ok(Self {
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
        })
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

    // ---- wire frames ------------------------------------------------------

    /// Encode the overlay as one self-contained frame: magic, version,
    /// FNV-1a checksum, then the body. Derived indexes (adjacency,
    /// postings, time index, lookup maps) are *not* shipped — the decoder
    /// rebuilds them from the edge list, which keeps frames near the
    /// information-theoretic floor of the increment.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64 + self.edges.len() * (EDGE_FIXED_BYTES + 16));
        let wm = |buf: &mut Vec<u8>, w: &DeltaWatermark| {
            codec::put_u64(buf, w.structure_version);
            codec::put_u64(buf, w.log_len as u64);
            codec::put_u64(buf, w.removal_log_len as u64);
            codec::put_u64(buf, w.label_log_len as u64);
            codec::put_u64(buf, w.vertex_count as u64);
            codec::put_u64(buf, w.predicate_count as u64);
        };
        wm(&mut body, &self.from);
        wm(&mut body, &self.to);
        codec::put_u64(&mut body, self.max_timestamp);
        codec::put_u32(&mut body, self.ids.len() as u32);
        for (id, e) in self.ids.iter().zip(&self.edges) {
            codec::put_u32(&mut body, id.0);
            codec::put_u32(&mut body, e.src.0);
            codec::put_u32(&mut body, e.pred.0);
            codec::put_u32(&mut body, e.dst.0);
            codec::put_u64(&mut body, e.at);
            codec::put_f32(&mut body, e.confidence);
            match &e.provenance {
                Provenance::Curated => codec::put_u64(&mut body, u64::MAX),
                Provenance::Extracted { doc_id } => codec::put_u64(&mut body, *doc_id),
            }
            put_prop_map(&mut body, &e.props);
        }
        codec::put_u32(&mut body, self.tombstones.len() as u32);
        for t in &self.tombstones {
            codec::put_u32(&mut body, t.0);
        }
        codec::put_u32(&mut body, self.new_vertex_names.len() as u32);
        for (name, label) in self.new_vertex_names.iter().zip(&self.new_labels) {
            codec::put_str(&mut body, name);
            match label {
                Some(l) => {
                    codec::put_u8(&mut body, 1);
                    codec::put_str(&mut body, l);
                }
                None => codec::put_u8(&mut body, 0),
            }
        }
        codec::put_u32(&mut body, self.label_fixups.len() as u32);
        let mut fixups: Vec<_> = self.label_fixups.iter().collect();
        fixups.sort_unstable_by_key(|(v, _)| **v);
        for (v, label) in fixups {
            codec::put_u32(&mut body, v.0);
            match label {
                Some(l) => {
                    codec::put_u8(&mut body, 1);
                    codec::put_str(&mut body, l);
                }
                None => codec::put_u8(&mut body, 0),
            }
        }
        codec::put_u32(&mut body, self.new_predicate_names.len() as u32);
        for name in &self.new_predicate_names {
            codec::put_str(&mut body, name);
        }

        let mut out = Vec::with_capacity(body.len() + 20);
        out.extend_from_slice(DELTA_MAGIC);
        codec::put_u32(&mut out, DELTA_VERSION);
        codec::put_u64(&mut out, codec::fnv1a64(&body));
        out.extend_from_slice(&body);
        out
    }

    /// Decode an [`DeltaOverlay::encode`] frame, verifying magic, version
    /// and checksum, and rebuilding every derived index.
    pub fn decode(blob: &[u8]) -> Result<Self, SnapshotError> {
        if blob.len() < 20 || &blob[..8] != DELTA_MAGIC {
            return Err(SnapshotError::Corrupt("bad delta frame magic"));
        }
        let mut head = codec::Reader::new(&blob[8..20]);
        if head.u32().expect("12 bytes remain") != DELTA_VERSION {
            return Err(SnapshotError::Corrupt("unsupported delta frame version"));
        }
        let sum = head.u64().expect("12 bytes remain");
        let body = &blob[20..];
        if codec::fnv1a64(body) != sum {
            return Err(SnapshotError::Corrupt("delta frame checksum mismatch"));
        }
        let corrupt = |what: &'static str| move |_| SnapshotError::Corrupt(what);
        let mut r = codec::Reader::new(body);
        let wm = |r: &mut codec::Reader<'_>| -> Result<DeltaWatermark, SnapshotError> {
            Ok(DeltaWatermark {
                structure_version: r.u64().map_err(corrupt("truncated watermark"))?,
                log_len: r.u64().map_err(corrupt("truncated watermark"))? as usize,
                removal_log_len: r.u64().map_err(corrupt("truncated watermark"))? as usize,
                label_log_len: r.u64().map_err(corrupt("truncated watermark"))? as usize,
                vertex_count: r.u64().map_err(corrupt("truncated watermark"))? as usize,
                predicate_count: r.u64().map_err(corrupt("truncated watermark"))? as usize,
            })
        };
        let from = wm(&mut r)?;
        let to = wm(&mut r)?;
        let max_timestamp = r.u64().map_err(corrupt("truncated timestamp"))?;

        let n = r
            .count(29, "delta edge count")
            .map_err(corrupt("implausible delta edge count"))?;
        let mut overlay = DeltaOverlay {
            from,
            to,
            max_timestamp,
            ..Default::default()
        };
        for _ in 0..n {
            let id = EdgeId(r.u32().map_err(corrupt("truncated edge id"))?);
            let src = VertexId(r.u32().map_err(corrupt("truncated edge"))?);
            let pred = PredicateId(r.u32().map_err(corrupt("truncated edge"))?);
            let dst = VertexId(r.u32().map_err(corrupt("truncated edge"))?);
            let at = r.u64().map_err(corrupt("truncated edge"))?;
            let confidence = r.f32().map_err(corrupt("truncated edge"))?;
            let doc = r.u64().map_err(corrupt("truncated edge"))?;
            let provenance = if doc == u64::MAX {
                Provenance::Curated
            } else {
                Provenance::Extracted { doc_id: doc }
            };
            if id.index() < from.log_len
                || id.index() >= to.log_len
                || overlay.ids.last().is_some_and(|last| *last >= id)
            {
                return Err(SnapshotError::Corrupt("delta edge id out of window"));
            }
            let mut e = Edge::new(src, pred, dst, at, confidence, provenance);
            e.props = read_prop_map(&mut r)?;
            overlay.out_adj.entry(e.src).or_default().push(Adj {
                pred: e.pred,
                other: e.dst,
                edge: id,
            });
            overlay.in_adj.entry(e.dst).or_default().push(Adj {
                pred: e.pred,
                other: e.src,
                edge: id,
            });
            overlay.postings.entry(e.pred).or_default().push(id);
            overlay.time_index.push((e.at, id));
            overlay.ids.push(id);
            overlay.edges.push(e);
        }
        for adj in overlay
            .out_adj
            .values_mut()
            .chain(overlay.in_adj.values_mut())
        {
            adj.sort_unstable_by_key(|a| (a.pred, a.other, a.edge));
        }
        overlay.time_index.sort_unstable();

        let n = r
            .count(4, "tombstone count")
            .map_err(corrupt("implausible tombstone count"))?;
        for _ in 0..n {
            let id = EdgeId(r.u32().map_err(corrupt("truncated tombstone"))?);
            if id.index() >= from.log_len || overlay.tombstones.last().is_some_and(|l| *l >= id) {
                return Err(SnapshotError::Corrupt("tombstone id out of window"));
            }
            overlay.tombstones.push(id);
        }
        let n = r
            .count(5, "new vertex count")
            .map_err(corrupt("implausible new vertex count"))?;
        if from.vertex_count + n != to.vertex_count {
            return Err(SnapshotError::Corrupt(
                "vertex suffix disagrees with watermark",
            ));
        }
        for i in 0..n {
            let name = r
                .str()
                .map_err(corrupt("truncated vertex name"))?
                .to_owned();
            let label = match r.u8().map_err(corrupt("truncated label tag"))? {
                0 => None,
                _ => Some(r.str().map_err(corrupt("truncated label"))?.to_owned()),
            };
            let v = VertexId((from.vertex_count + i) as u32);
            overlay.new_vertex_index.insert(name.clone(), v);
            overlay.new_vertex_names.push(name);
            overlay.new_labels.push(label);
        }
        let n = r
            .count(5, "label fixup count")
            .map_err(corrupt("implausible label fixup count"))?;
        for _ in 0..n {
            let v = VertexId(r.u32().map_err(corrupt("truncated fixup"))?);
            let label = match r.u8().map_err(corrupt("truncated fixup tag"))? {
                0 => None,
                _ => Some(
                    r.str()
                        .map_err(corrupt("truncated fixup label"))?
                        .to_owned(),
                ),
            };
            if v.index() >= from.vertex_count {
                return Err(SnapshotError::Corrupt("fixup for vertex inside window"));
            }
            overlay.label_fixups.insert(v, label);
        }
        let n = r
            .count(4, "new predicate count")
            .map_err(corrupt("implausible new predicate count"))?;
        if from.predicate_count + n != to.predicate_count {
            return Err(SnapshotError::Corrupt(
                "predicate suffix disagrees with watermark",
            ));
        }
        for i in 0..n {
            let name = r
                .str()
                .map_err(corrupt("truncated predicate name"))?
                .to_owned();
            let p = PredicateId((from.predicate_count + i) as u32);
            overlay.new_predicate_index.insert(name.clone(), p);
            overlay.new_predicate_names.push(name);
        }
        if !r.is_empty() {
            return Err(SnapshotError::Corrupt("trailing bytes after delta frame"));
        }
        Ok(overlay)
    }
}

const DELTA_MAGIC: &[u8; 8] = b"NOUSDLT1";
const DELTA_VERSION: u32 = 1;

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

        let d = DeltaOverlay::capture(&g, w).expect("watermark valid");
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
        let d = DeltaOverlay::capture(&g, g.watermark()).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.added_count(), 0);
        assert_eq!(d.from_watermark(), d.to_watermark());
    }

    #[test]
    fn capture_after_compaction_is_stale() {
        let mut g = base_graph();
        let w = g.watermark();
        g.remove_edge(EdgeId(0));
        g.compact();
        assert!(matches!(DeltaOverlay::capture(&g, w), Err(DeltaStale)));
        // A fresh watermark works again.
        assert!(DeltaOverlay::capture(&g, g.watermark()).is_ok());
    }

    #[test]
    fn frames_roundtrip_and_reject_corruption() {
        let mut g = base_graph();
        let w = g.watermark();
        let c = g.ensure_vertex("c");
        g.set_label(c, "Location");
        let near = g.intern_predicate("near");
        let mut rich = Edge::new(
            VertexId(0),
            near,
            c,
            3,
            0.8,
            Provenance::Extracted { doc_id: 9 },
        );
        rich.props.set("rank", 3i64);
        let added = g.add_edge(rich);
        g.remove_edge(EdgeId(1));
        g.set_label(VertexId(0), "Conglomerate");

        let d = DeltaOverlay::capture(&g, w).unwrap();
        let frame = d.encode();
        let back = DeltaOverlay::decode(&frame).expect("frame roundtrips");
        assert_eq!(back.from_watermark(), d.from_watermark());
        assert_eq!(back.to_watermark(), d.to_watermark());
        assert_eq!(back.added_count(), d.added_count());
        assert_eq!(back.tombstones(), d.tombstones());
        assert_eq!(back.edge(added).unwrap().props.len(), 1);
        assert_eq!(back.vertex_id("c"), Some(c));
        assert_eq!(back.label(VertexId(0)), Some(Some("Conglomerate")));
        assert_eq!(back.pred_postings(near), d.pred_postings(near));
        assert_eq!(back.time_index(), d.time_index());
        assert_eq!(back.now(), d.now());

        // Checksum failure and truncation both surface as errors.
        let mut torn = frame.clone();
        let last = torn.len() - 1;
        torn[last] ^= 0xFF;
        assert!(DeltaOverlay::decode(&torn).is_err());
        assert!(DeltaOverlay::decode(&frame[..frame.len() - 3]).is_err());
        assert!(DeltaOverlay::decode(b"NOUSXXXX").is_err());
    }
}
