//! The dynamic property graph.
//!
//! [`DynamicGraph`] is an append-oriented temporal graph: edges are written
//! to a time-ordered log and indexed into per-vertex adjacency lists; removal
//! (used by windowed views and quality-control retraction) is a tombstone,
//! so `EdgeId`s stay stable and the log can be replayed. This mirrors how
//! NOUS treats knowledge-graph construction as an *incremental* process
//! (§1.1 contribution 1).

use crate::edge::{Edge, Provenance};
use crate::hash::FxHashMap;
use crate::ids::{EdgeId, Interner, PredicateId, Timestamp, VertexId};
use crate::props::PropMap;
use crate::view::GraphView;

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
    in_adj: Vec<Vec<Adj>>,
    /// `(src, pred, dst) -> edge ids` exact-triple index, used for dedup and
    /// the triple-pattern query primitives.
    triple_index: FxHashMap<(VertexId, PredicateId, VertexId), Vec<EdgeId>>,
    /// Per-predicate edge postings in log order (dead ids retained and
    /// filtered on read, like `triple_index`), so predicate-only patterns
    /// stop scanning the whole log.
    pred_postings: Vec<Vec<EdgeId>>,
    /// Set once an edge arrives with a timestamp below the running
    /// maximum. While false, the log is monotone in `at` and
    /// [`DynamicGraph::edges_in_range`] can binary-search its bounds.
    saw_out_of_order: bool,
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
            self.in_adj.push(Vec::new());
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

    pub fn vertex_data_mut(&mut self, v: VertexId) -> &mut VertexData {
        &mut self.vertices[v.index()]
    }

    /// Convenience: set the ontology type label of a vertex. The only
    /// label-mutation path the incremental snapshot layer tracks — direct
    /// `vertex_data_mut().label` writes bypass the label log.
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
        self.in_adj[edge.dst.index()].push(Adj {
            pred: edge.pred,
            other: edge.src,
            edge: id,
        });
        self.triple_index.entry(edge.triple()).or_default().push(id);
        if edge.pred.index() >= self.pred_postings.len() {
            self.pred_postings.resize(edge.pred.index() + 1, Vec::new());
        }
        self.pred_postings[edge.pred.index()].push(id);
        if edge.at < self.max_timestamp {
            self.saw_out_of_order = true;
        }
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

    /// Live incoming adjacency of `v` (`other` is the source vertex).
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = Adj> + '_ {
        self.in_adj[v.index()]
            .iter()
            .copied()
            .filter(|a| !self.dead[a.edge.index()])
    }

    /// Distinct neighbours of `v` in either direction.
    pub fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        self.neighbors_into(v, &mut out);
        out
    }

    /// [`DynamicGraph::neighbors`] into a caller-owned scratch buffer
    /// (cleared first): the allocation-free variant for search hot loops.
    pub fn neighbors_into(&self, v: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        out.extend(self.out_edges(v).map(|a| a.other));
        out.extend(self.in_edges(v).map(|a| a.other));
        out.sort_unstable();
        out.dedup();
    }

    /// Live edges with predicate `p`, in log (time) order — served from
    /// the per-predicate postings, not a log scan.
    pub fn edges_with_pred(&self, p: PredicateId) -> impl Iterator<Item = EdgeId> + '_ {
        self.pred_postings
            .get(p.index())
            .into_iter()
            .flatten()
            .copied()
            .filter(|id| !self.dead[id.index()])
    }

    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_edges(v).count()
    }

    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_edges(v).count()
    }

    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    // ---- triple lookups -------------------------------------------------

    /// Live edges matching the exact triple `(src, pred, dst)`.
    pub fn edges_matching(
        &self,
        src: VertexId,
        pred: PredicateId,
        dst: VertexId,
    ) -> impl Iterator<Item = EdgeId> + '_ {
        self.triple_index
            .get(&(src, pred, dst))
            .into_iter()
            .flatten()
            .copied()
            .filter(|id| !self.dead[id.index()])
    }

    /// Does a live `(src, pred, dst)` fact exist?
    pub fn has_triple(&self, src: VertexId, pred: PredicateId, dst: VertexId) -> bool {
        self.edges_matching(src, pred, dst).next().is_some()
    }

    /// Live edges matching a partial triple pattern: `None` is a wildcard.
    /// Chooses the cheapest available index (src adjacency, dst adjacency,
    /// exact triple, or full scan).
    pub fn find(
        &self,
        src: Option<VertexId>,
        pred: Option<PredicateId>,
        dst: Option<VertexId>,
    ) -> Vec<EdgeId> {
        match (src, pred, dst) {
            (Some(s), Some(p), Some(d)) => self.edges_matching(s, p, d).collect(),
            (Some(s), p, d) => self
                .out_edges(s)
                .filter(|a| p.is_none_or(|p| a.pred == p) && d.is_none_or(|d| a.other == d))
                .map(|a| a.edge)
                .collect(),
            (None, p, Some(d)) => self
                .in_edges(d)
                .filter(|a| p.is_none_or(|p| a.pred == p))
                .map(|a| a.edge)
                .collect(),
            (None, Some(p), None) => self.edges_with_pred(p).collect(),
            (None, None, None) => self.iter_edges().map(|(id, _)| id).collect(),
        }
    }

    /// Live edges with `at` in `[from, to]`. While the log has only seen
    /// in-order appends (the pipeline's arrival-order contract), the scan
    /// bounds are found by binary search; one out-of-order insert flips
    /// the monotonicity flag and this degrades to the full filter scan.
    pub fn edges_in_range(
        &self,
        from: Timestamp,
        to: Timestamp,
    ) -> impl Iterator<Item = (EdgeId, &Edge)> {
        let (lo, hi) = if self.saw_out_of_order {
            (0, self.edges.len())
        } else {
            let lo = self.edges.partition_point(|e| e.at < from);
            let hi = self.edges.partition_point(|e| e.at <= to).max(lo);
            (lo, hi)
        };
        self.edges[lo..hi]
            .iter()
            .enumerate()
            .filter(move |(i, e)| !self.dead[lo + i] && e.at >= from && e.at <= to)
            .map(move |(i, e)| (EdgeId((lo + i) as u32), e))
    }

    /// Has the log only ever seen monotone (non-decreasing) timestamps?
    /// Governs whether [`DynamicGraph::edges_in_range`] may binary-search.
    pub fn time_monotone(&self) -> bool {
        !self.saw_out_of_order
    }

    /// Materialise the knowledge graph *as it was known* at logical time
    /// `t`: every vertex (entity identity is stable) but only live edges
    /// with `at <= t`. This is the dynamic-KG time-travel primitive: "what
    /// did the graph say before the acquisition wave?"
    pub fn as_of(&self, t: Timestamp) -> DynamicGraph {
        let mut g = DynamicGraph::new();
        for v in self.iter_vertices() {
            let nv = g.ensure_vertex(self.vertex_name(v));
            debug_assert_eq!(nv, v, "dense ids are insertion-ordered");
            if let Some(label) = self.label(v) {
                g.set_label(nv, label);
            }
            g.vertex_data_mut(nv).props = self.vertex_data(v).props.clone();
        }
        for (_, name) in self.predicates.iter() {
            g.intern_predicate(name);
        }
        for (_, e) in self.iter_edges() {
            if e.at <= t {
                g.add_edge(e.clone());
            }
        }
        g
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

impl GraphView for DynamicGraph {
    fn vertex_count(&self) -> usize {
        DynamicGraph::vertex_count(self)
    }

    fn vertex_id(&self, name: &str) -> Option<VertexId> {
        DynamicGraph::vertex_id(self, name)
    }

    fn vertex_name(&self, v: VertexId) -> &str {
        DynamicGraph::vertex_name(self, v)
    }

    fn label(&self, v: VertexId) -> Option<&str> {
        DynamicGraph::label(self, v)
    }

    fn predicate_count(&self) -> usize {
        DynamicGraph::predicate_count(self)
    }

    fn predicate_id(&self, name: &str) -> Option<PredicateId> {
        DynamicGraph::predicate_id(self, name)
    }

    fn predicate_name(&self, p: PredicateId) -> &str {
        DynamicGraph::predicate_name(self, p)
    }

    fn edge(&self, id: EdgeId) -> &Edge {
        DynamicGraph::edge(self, id)
    }

    fn live_edge_count(&self) -> usize {
        self.edge_count()
    }

    fn for_each_out(&self, v: VertexId, mut f: impl FnMut(Adj)) {
        self.out_edges(v).for_each(&mut f);
    }

    fn for_each_in(&self, v: VertexId, mut f: impl FnMut(Adj)) {
        self.in_edges(v).for_each(&mut f);
    }

    fn for_each_with_pred(
        &self,
        p: PredicateId,
        mut f: impl FnMut(EdgeId, &Edge) -> std::ops::ControlFlow<()>,
    ) -> std::ops::ControlFlow<()> {
        for id in self.edges_with_pred(p) {
            f(id, DynamicGraph::edge(self, id))?;
        }
        std::ops::ControlFlow::Continue(())
    }

    fn out_degree(&self, v: VertexId) -> usize {
        DynamicGraph::out_degree(self, v)
    }

    fn in_degree(&self, v: VertexId) -> usize {
        DynamicGraph::in_degree(self, v)
    }

    fn neighbors_into(&self, v: VertexId, out: &mut Vec<VertexId>) {
        DynamicGraph::neighbors_into(self, v, out);
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
        assert_eq!(g.in_degree(c), 2);
        assert_eq!(g.neighbors(b), vec![a, c]);
    }

    #[test]
    fn tombstone_removes_from_all_views() {
        let (mut g, a, b, _c, owns, _near) = tiny();
        let id = g.edges_matching(a, owns, b).next().unwrap();
        assert!(g.remove_edge(id));
        assert!(!g.remove_edge(id), "double-remove must report false");
        assert!(!g.is_live(id));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.log_len(), 3, "log keeps tombstoned entries");
        assert!(!g.has_triple(a, owns, b));
        assert_eq!(g.out_degree(a), 1);
        assert!(g.iter_edges().all(|(eid, _)| eid != id));
    }

    #[test]
    fn find_uses_wildcards() {
        let (g, a, _b, c, _owns, near) = tiny();
        assert_eq!(g.find(None, None, None).len(), 3);
        assert_eq!(g.find(Some(a), None, None).len(), 2);
        assert_eq!(g.find(None, Some(near), None).len(), 2);
        assert_eq!(g.find(None, None, Some(c)).len(), 2);
        assert_eq!(g.find(Some(a), Some(near), Some(c)).len(), 1);
        assert_eq!(g.find(Some(c), None, None).len(), 0);
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
        assert_eq!(g.edges_matching(a, p, b).count(), 2);
        g.remove_edge(e1);
        assert_eq!(g.edges_matching(a, p, b).count(), 1);
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
    fn as_of_travels_back_in_time() {
        let (g, a, b, c, owns, near) = tiny(); // edges at t = 1, 2, 3
        let past = g.as_of(2);
        assert_eq!(past.vertex_count(), g.vertex_count(), "entities persist");
        assert_eq!(past.edge_count(), 2);
        assert!(past.has_triple(a, owns, b));
        assert!(past.has_triple(b, near, c));
        assert!(!past.has_triple(a, near, c), "t=3 fact not yet known");
        // Full history at the frontier; empty before the first fact.
        assert_eq!(g.as_of(g.now()).edge_count(), g.edge_count());
        assert_eq!(g.as_of(0).edge_count(), 0);
    }

    #[test]
    fn as_of_respects_tombstones_and_labels() {
        let (mut g, a, b, _c, owns, _near) = tiny();
        g.set_label(a, "Company");
        let id = g.edges_matching(a, owns, b).next().unwrap();
        g.remove_edge(id);
        let past = g.as_of(10);
        assert!(
            !past.has_triple(a, owns, b),
            "retracted facts stay retracted"
        );
        assert_eq!(past.label(a), Some("Company"));
        assert_eq!(past.predicate_count(), g.predicate_count());
    }

    #[test]
    fn edges_in_range_scopes_by_time() {
        let (g, ..) = tiny(); // timestamps 1, 2, 3
        assert_eq!(g.edges_in_range(2, 3).count(), 2);
        assert_eq!(g.edges_in_range(0, 0).count(), 0);
        assert_eq!(g.edges_in_range(1, 1).count(), 1);
        assert_eq!(g.edges_in_range(0, 100).count(), 3);
    }

    #[test]
    fn predicate_postings_serve_find_in_log_order() {
        let (mut g, .., near) = tiny();
        // Log order, filtered to `near`: edge 1 (b→c), edge 2 (a→c).
        assert_eq!(g.find(None, Some(near), None), vec![EdgeId(1), EdgeId(2)]);
        g.remove_edge(EdgeId(1));
        assert_eq!(g.find(None, Some(near), None), vec![EdgeId(2)]);
    }

    #[test]
    fn out_of_order_inserts_flip_monotone_flag() {
        let (mut g, a, _b, c, owns, _near) = tiny(); // timestamps 1, 2, 3
        assert!(g.time_monotone());
        assert_eq!(g.edges_in_range(2, 3).count(), 2);
        // A late edge with an old timestamp: the binary-search bounds are
        // no longer valid, so the flag must flip and the scan fallback
        // must still find it.
        g.add_edge_at(a, owns, c, 1, 0.5, Provenance::Curated);
        assert!(!g.time_monotone());
        assert_eq!(g.edges_in_range(1, 1).count(), 2);
        assert_eq!(g.edges_in_range(2, 3).count(), 2);
    }

    #[test]
    fn monotone_range_matches_scan_semantics() {
        let (mut g, a, b, _c, owns, _near) = tiny();
        // Inverted range is empty, not a panic.
        assert_eq!(g.edges_in_range(3, 2).count(), 0);
        // Tombstones are filtered inside the binary-searched bounds.
        let id = g.edges_matching(a, owns, b).next().unwrap();
        g.remove_edge(id);
        assert!(g.time_monotone());
        assert_eq!(g.edges_in_range(0, 100).count(), 2);
    }

    #[test]
    fn neighbors_into_reuses_scratch() {
        let (g, a, b, c, ..) = tiny();
        let mut scratch = vec![VertexId(99)]; // stale content must be cleared
        g.neighbors_into(b, &mut scratch);
        assert_eq!(scratch, vec![a, c]);
        g.neighbors_into(a, &mut scratch);
        assert_eq!(scratch, vec![b, c]);
        assert_eq!(g.neighbors(a), scratch);
    }

    #[test]
    fn mutation_logs_feed_delta_watermarks() {
        let (mut g, a, b, _c, owns, _near) = tiny();
        let w0 = g.watermark();
        assert_eq!(w0.log_len, 3);
        assert_eq!(w0.removal_log_len, 0);
        let id = g.edges_matching(a, owns, b).next().unwrap();
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
