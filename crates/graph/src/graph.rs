//! The dynamic property graph: the write side of the knowledge graph.
//!
//! [`DynamicGraph`] is an append-oriented temporal graph: edges are written
//! to a time-ordered log and indexed into per-vertex out-adjacency lists;
//! removal (used by windowed views and quality-control retraction) is a
//! tombstone, so `EdgeId`s stay stable and the log can be replayed. This
//! mirrors how NOUS treats knowledge-graph construction as an
//! *incremental* process (§1.1 contribution 1).
//!
//! It keeps only what writes read: the log, the tombstones, the
//! out-adjacency revision supersession scans, and the removal and label
//! logs incremental publication consumes. Every query reads a
//! [`crate::LayeredSnapshot`] of it instead.

use crate::edge::{Edge, Provenance};
use crate::ids::{EdgeId, Interner, PredicateId, Timestamp, VertexId};
use crate::props::PropMap;

/// Per-vertex payload: everything except the interned name.
#[derive(Debug, Clone, Default)]
pub struct VertexData {
    /// Ontology type label (e.g. `"Company"`), if known.
    pub label: Option<String>,
    /// Application properties: aliases, bag-of-words, topic vector, …
    pub props: PropMap,
}

/// One adjacency entry: the far endpoint of an edge plus its predicate and id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Adj {
    pub pred: PredicateId,
    pub other: VertexId,
    pub edge: EdgeId,
}

/// Aggregate statistics used by the quality dashboard (demo feature 2).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphStats {
    pub vertices: usize,
    pub live_edges: usize,
    pub tombstoned_edges: usize,
    pub predicates: usize,
    pub curated_edges: usize,
    pub extracted_edges: usize,
    pub mean_confidence: f64,
}

/// An in-memory dynamic temporal property graph.
#[derive(Debug, Default, Clone)]
pub struct DynamicGraph {
    vertex_names: Interner,
    predicates: Interner,
    vertices: Vec<VertexData>,
    edges: Vec<Edge>,
    dead: Vec<bool>,
    out_adj: Vec<Vec<Adj>>,
    /// Removal log: every id successfully tombstoned, in removal order.
    /// Incremental snapshot publication ([`crate::DeltaOverlay::capture`])
    /// reads the suffix since its watermark to learn which previously
    /// published edges died — O(removals in the window), no log scan.
    /// In-process state only, never part of a snapshot: watermarks are
    /// never valid across a serialisation boundary.
    removal_log: Vec<EdgeId>,
    /// Label-change log: every vertex whose ontology label was (re)set via
    /// [`DynamicGraph::set_label`], in mutation order. Like `removal_log`,
    /// consumed as a suffix by the delta capture so overlays can patch
    /// labels of vertices that predate them.
    label_log: Vec<VertexId>,
    live_edges: usize,
    max_timestamp: Timestamp,
}

/// A point in a [`DynamicGraph`]'s mutation history, recorded by a
/// published snapshot so the next publish can capture only what changed
/// since. Every counter only grows: the logs are append-only for the
/// life of the graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaWatermark {
    pub log_len: usize,
    pub removal_log_len: usize,
    pub label_log_len: usize,
    pub vertex_count: usize,
    pub predicate_count: usize,
}

impl DynamicGraph {
    pub fn new() -> Self {
        Self::default()
    }

    // ---- vertices -------------------------------------------------------

    /// Get or create the vertex named `name`.
    pub fn ensure_vertex(&mut self, name: &str) -> VertexId {
        let before = self.vertex_names.len();
        let id = self.vertex_names.intern(name);
        if self.vertex_names.len() > before {
            self.vertices.push(VertexData::default());
            self.out_adj.push(Vec::new());
        }
        VertexId(id)
    }

    /// Look up a vertex by exact name without creating it.
    pub fn vertex_id(&self, name: &str) -> Option<VertexId> {
        self.vertex_names.get(name).map(VertexId)
    }

    pub fn vertex_name(&self, v: VertexId) -> &str {
        self.vertex_names.resolve(v.0)
    }

    pub fn vertex_data(&self, v: VertexId) -> &VertexData {
        &self.vertices[v.index()]
    }

    /// Crate-private: a label written through it would bypass the label
    /// log, so a published snapshot would keep serving the old one.
    /// Checkpoint decode uses it for properties only.
    pub(crate) fn vertex_data_mut(&mut self, v: VertexId) -> &mut VertexData {
        &mut self.vertices[v.index()]
    }

    /// Set the ontology type label of a vertex: the only label-mutation
    /// path, and the one the incremental snapshot layer tracks.
    pub fn set_label(&mut self, v: VertexId, label: &str) {
        self.vertices[v.index()].label = Some(label.to_owned());
        self.label_log.push(v);
    }

    pub fn label(&self, v: VertexId) -> Option<&str> {
        self.vertices[v.index()].label.as_deref()
    }

    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    pub fn iter_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertices.len() as u32).map(VertexId)
    }

    // ---- predicates -----------------------------------------------------

    pub fn intern_predicate(&mut self, name: &str) -> PredicateId {
        PredicateId(self.predicates.intern(name))
    }

    pub fn predicate_id(&self, name: &str) -> Option<PredicateId> {
        self.predicates.get(name).map(PredicateId)
    }

    pub fn predicate_name(&self, p: PredicateId) -> &str {
        self.predicates.resolve(p.0)
    }

    pub fn predicate_count(&self) -> usize {
        self.predicates.len()
    }

    pub fn iter_predicates(&self) -> impl Iterator<Item = (PredicateId, &str)> {
        self.predicates.iter().map(|(i, n)| (PredicateId(i), n))
    }

    // ---- edges ----------------------------------------------------------

    /// Append a fact at logical time `at`. Timestamps are expected to be
    /// non-decreasing (the pipeline feeds the log in arrival order); the
    /// engine tolerates out-of-order inserts but windowed views assume a
    /// monotone log.
    pub fn add_edge_at(
        &mut self,
        src: VertexId,
        pred: PredicateId,
        dst: VertexId,
        at: Timestamp,
        confidence: f32,
        provenance: Provenance,
    ) -> EdgeId {
        self.add_edge(Edge::new(src, pred, dst, at, confidence, provenance))
    }

    /// Append a fully-built edge (with properties).
    pub fn add_edge(&mut self, edge: Edge) -> EdgeId {
        debug_assert!(edge.src.index() < self.vertices.len(), "unknown src vertex");
        debug_assert!(edge.dst.index() < self.vertices.len(), "unknown dst vertex");
        let id = EdgeId(self.edges.len() as u32);
        self.out_adj[edge.src.index()].push(Adj {
            pred: edge.pred,
            other: edge.dst,
            edge: id,
        });
        self.max_timestamp = self.max_timestamp.max(edge.at);
        self.edges.push(edge);
        self.dead.push(false);
        self.live_edges += 1;
        id
    }

    /// Tombstone an edge. Returns `false` if it was already dead.
    pub fn remove_edge(&mut self, id: EdgeId) -> bool {
        let slot = &mut self.dead[id.index()];
        if *slot {
            return false;
        }
        *slot = true;
        self.live_edges -= 1;
        self.removal_log.push(id);
        true
    }

    /// Removal-log suffix: ids tombstoned since `since`.
    pub fn removals_since(&self, since: usize) -> &[EdgeId] {
        &self.removal_log[since.min(self.removal_log.len())..]
    }

    /// Label-log suffix: vertices relabelled since `since` (may repeat).
    pub fn labels_changed_since(&self, since: usize) -> &[VertexId] {
        &self.label_log[since.min(self.label_log.len())..]
    }

    /// The graph's current mutation watermark, recorded at publish time
    /// so the next publish can capture a delta instead of re-freezing.
    pub fn watermark(&self) -> DeltaWatermark {
        DeltaWatermark {
            log_len: self.edges.len(),
            removal_log_len: self.removal_log.len(),
            label_log_len: self.label_log.len(),
            vertex_count: self.vertices.len(),
            predicate_count: self.predicates.len(),
        }
    }

    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    pub fn is_live(&self, id: EdgeId) -> bool {
        !self.dead[id.index()]
    }

    /// Number of live (non-tombstoned) edges.
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Total appended edges including tombstoned ones.
    pub fn log_len(&self) -> usize {
        self.edges.len()
    }

    /// Largest timestamp seen so far.
    pub fn now(&self) -> Timestamp {
        self.max_timestamp
    }

    /// Iterate live edges in log (time) order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.dead[*i])
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Raw edge-log slice (live and dead), for replay and windowing.
    pub fn edge_log(&self) -> &[Edge] {
        &self.edges
    }

    // ---- adjacency ------------------------------------------------------

    /// Live outgoing adjacency of `v`.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = Adj> + '_ {
        self.out_adj[v.index()]
            .iter()
            .copied()
            .filter(|a| !self.dead[a.edge.index()])
    }

    /// Does a live `(src, pred, dst)` fact exist?
    pub fn has_triple(&self, src: VertexId, pred: PredicateId, dst: VertexId) -> bool {
        self.out_edges(src)
            .any(|a| a.pred == pred && a.other == dst)
    }

    /// Live edges out of `src` with predicate `pred` (and to `dst` when
    /// given), in log order. Revision supersession reads a subject's prior
    /// facts this way.
    pub fn find(&self, src: VertexId, pred: PredicateId, dst: Option<VertexId>) -> Vec<EdgeId> {
        self.out_edges(src)
            .filter(|a| a.pred == pred && dst.is_none_or(|d| a.other == d))
            .map(|a| a.edge)
            .collect()
    }

    /// Interner access for [`crate::FrozenView`] construction (cloning the
    /// interners is cheaper than re-hashing every name).
    pub(crate) fn interner_parts(&self) -> (&Interner, &Interner) {
        (&self.vertex_names, &self.predicates)
    }

    /// Aggregate statistics over live edges.
    pub fn stats(&self) -> GraphStats {
        let mut curated = 0usize;
        let mut extracted = 0usize;
        let mut conf_sum = 0f64;
        for (_, e) in self.iter_edges() {
            match e.provenance {
                Provenance::Curated => curated += 1,
                Provenance::Extracted { .. } => extracted += 1,
            }
            conf_sum += e.confidence as f64;
        }
        GraphStats {
            vertices: self.vertex_count(),
            live_edges: self.live_edges,
            tombstoned_edges: self.edges.len() - self.live_edges,
            predicates: self.predicates.len(),
            curated_edges: curated,
            extracted_edges: extracted,
            mean_confidence: if self.live_edges == 0 {
                0.0
            } else {
                conf_sum / self.live_edges as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (
        DynamicGraph,
        VertexId,
        VertexId,
        VertexId,
        PredicateId,
        PredicateId,
    ) {
        let mut g = DynamicGraph::new();
        let a = g.ensure_vertex("a");
        let b = g.ensure_vertex("b");
        let c = g.ensure_vertex("c");
        let owns = g.intern_predicate("owns");
        let near = g.intern_predicate("near");
        g.add_edge_at(a, owns, b, 1, 0.9, Provenance::Curated);
        g.add_edge_at(b, near, c, 2, 0.5, Provenance::Extracted { doc_id: 7 });
        g.add_edge_at(a, near, c, 3, 0.7, Provenance::Curated);
        (g, a, b, c, owns, near)
    }

    #[test]
    fn ensure_vertex_dedups_by_name() {
        let mut g = DynamicGraph::new();
        let a = g.ensure_vertex("DJI");
        let b = g.ensure_vertex("DJI");
        assert_eq!(a, b);
        assert_eq!(g.vertex_count(), 1);
        assert_eq!(g.vertex_name(a), "DJI");
        assert_eq!(g.vertex_id("DJI"), Some(a));
        assert_eq!(g.vertex_id("Parrot"), None);
    }

    #[test]
    fn adjacency_reflects_insertions() {
        let (g, a, b, c, owns, near) = tiny();
        let out: Vec<_> = g.out_edges(a).collect();
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|adj| adj.pred == owns && adj.other == b));
        assert!(out.iter().any(|adj| adj.pred == near && adj.other == c));
        assert_eq!(g.out_edges(b).count(), 1);
        assert_eq!(g.out_edges(c).count(), 0);
    }

    #[test]
    fn tombstone_removes_from_all_views() {
        let (mut g, a, b, _c, owns, _near) = tiny();
        let id = g.find(a, owns, Some(b))[0];
        assert!(g.remove_edge(id));
        assert!(!g.remove_edge(id), "double-remove must report false");
        assert!(!g.is_live(id));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.log_len(), 3, "log keeps tombstoned entries");
        assert!(!g.has_triple(a, owns, b));
        assert_eq!(g.out_edges(a).count(), 1);
        assert!(g.iter_edges().all(|(eid, _)| eid != id));
    }

    #[test]
    fn find_anchors_on_subject_and_predicate() {
        let (mut g, a, b, c, owns, near) = tiny();
        assert_eq!(g.find(a, near, None), vec![EdgeId(2)]);
        assert_eq!(g.find(a, owns, Some(b)), vec![EdgeId(0)]);
        assert_eq!(g.find(a, near, Some(b)), vec![]);
        assert_eq!(g.find(c, near, None), vec![]);
        g.remove_edge(EdgeId(2));
        assert_eq!(g.find(a, near, None), vec![]);
        assert_eq!(g.find(a, near, Some(c)), vec![]);
    }

    #[test]
    fn duplicate_triples_are_distinct_edges() {
        let mut g = DynamicGraph::new();
        let a = g.ensure_vertex("a");
        let b = g.ensure_vertex("b");
        let p = g.intern_predicate("p");
        let e1 = g.add_edge_at(a, p, b, 1, 0.5, Provenance::Curated);
        let e2 = g.add_edge_at(a, p, b, 9, 0.6, Provenance::Curated);
        assert_ne!(e1, e2);
        assert_eq!(g.find(a, p, Some(b)), vec![e1, e2]);
        g.remove_edge(e1);
        assert_eq!(g.find(a, p, Some(b)), vec![e2]);
        assert!(g.has_triple(a, p, b));
    }

    #[test]
    fn stats_aggregate_provenance_and_confidence() {
        let (g, ..) = tiny();
        let s = g.stats();
        assert_eq!(s.vertices, 3);
        assert_eq!(s.live_edges, 3);
        assert_eq!(s.curated_edges, 2);
        assert_eq!(s.extracted_edges, 1);
        assert!((s.mean_confidence - 0.7).abs() < 1e-6);
    }

    #[test]
    fn now_tracks_max_timestamp() {
        let (g, ..) = tiny();
        assert_eq!(g.now(), 3);
    }

    #[test]
    fn labels_and_props() {
        let mut g = DynamicGraph::new();
        let v = g.ensure_vertex("DJI");
        assert_eq!(g.label(v), None);
        g.set_label(v, "Company");
        assert_eq!(g.label(v), Some("Company"));
        g.vertex_data_mut(v).props.set("hq", "Shenzhen");
        assert_eq!(
            g.vertex_data(v).props.get("hq").unwrap().as_str(),
            Some("Shenzhen")
        );
    }

    #[test]
    fn mutation_logs_feed_delta_watermarks() {
        let (mut g, a, b, _c, owns, _near) = tiny();
        let w0 = g.watermark();
        assert_eq!(w0.log_len, 3);
        assert_eq!(w0.removal_log_len, 0);
        let id = g.find(a, owns, Some(b))[0];
        g.remove_edge(id);
        g.remove_edge(id); // double-remove must not log twice
        g.set_label(b, "Company");
        let w1 = g.watermark();
        assert_eq!(
            (w1.log_len, w1.removal_log_len, w1.label_log_len),
            (3, 1, 1),
            "the logs only grow"
        );
        assert_eq!(g.removals_since(w0.removal_log_len), &[id]);
        assert_eq!(g.labels_changed_since(w0.label_log_len), &[b]);
    }
}
