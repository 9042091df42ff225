//! The fused dynamic knowledge graph.
//!
//! [`KnowledgeGraph`] owns the property graph plus the per-entity state the
//! mapping and QA layers need: alias tables (gazetteer + disambiguator),
//! per-entity bag-of-words text (for context similarity and LDA — one bag
//! per entity, held by the disambiguator), the predicate mapper with its
//! incrementally maintained expansion state, and the link predictor. It is
//! the object Figure 2's drone graph is an instance of: curated facts (red)
//! loaded from a [`nous_corpus::CuratedKb`] and extracted facts (blue)
//! appended by the ingestion pipeline, each with a confidence.

use crate::revision::{self, RevisionCounters, RevisionPolicy};
use nous_corpus::{CuratedKb, World};
use nous_embed::{BprConfig, LinkPredictor, PredictorMode};
use nous_graph::{Adj, DeltaWatermark, DynamicGraph, GraphView, Provenance, Timestamp, VertexId};
use nous_link::{AliasResolver, Disambiguator, EntityRecord, MapperExpansion, PredicateMapper};
use nous_qa::TopicIndex;
use nous_text::bow::BagOfWords;
use nous_text::ner::{EntityType, Gazetteer};
use nous_topics::{fit_doc_topics, LdaConfig};

/// The NOUS knowledge graph with all per-entity side state.
///
/// Concurrency contract for the two-stage ingestion split: the
/// **gazetteer is the only field the extraction stage reads** (NER typing
/// of candidate mentions), and [`KnowledgeGraph::create_entity`] is its
/// only ingestion-time writer. Everything else (disambiguator, mapper,
/// predictor, expansion state, the graph itself) is touched exclusively by
/// the sequential merge stage. This is what lets
/// `IngestPipeline::ingest_batch` fan extraction out over an immutable
/// borrow while keeping graph updates deterministic.
pub struct KnowledgeGraph {
    pub graph: DynamicGraph,
    pub gazetteer: Gazetteer,
    pub disambiguator: Disambiguator,
    pub mapper: PredicateMapper,
    pub predictor: LinkPredictor,
    /// Raw triples retained for semi-supervised mapper expansion, with the
    /// votes they cast against the graph's edges.
    expansion: MapperExpansion,
    /// How much of `graph`'s history `expansion` has observed. In-process
    /// state, not persisted: a restored graph starts from the default
    /// (nothing observed), so the next expansion observes its whole edge
    /// log, each edge with the live flag it has by then.
    expansion_seen: DeltaWatermark,
    /// Revision behaviour at the admit point (NOUS §3.4). Disabled by
    /// default; lives on the graph (not the pipeline) so WAL replay
    /// re-derives the same tombstones from a restored checkpoint.
    revision: RevisionPolicy,
    /// Lifetime revision outcomes (superseded / decayed / reinforced).
    revision_counters: RevisionCounters,
}

/// Checkpoint layouts [`KnowledgeGraph::decode_checkpoint`] reads; the
/// second is what [`KnowledgeGraph::encode_checkpoint`] writes.
const MAGIC_V1: &[u8; 8] = b"NOUSKG01";
const MAGIC_V2: &[u8; 8] = b"NOUSKG02";

fn entity_type_of(kind: nous_corpus::world::Kind) -> EntityType {
    match kind {
        nous_corpus::world::Kind::Company => EntityType::Organization,
        nous_corpus::world::Kind::Person => EntityType::Person,
        nous_corpus::world::Kind::Location => EntityType::Location,
        nous_corpus::world::Kind::Product => EntityType::Product,
    }
}

impl KnowledgeGraph {
    /// An empty knowledge graph (no curated background).
    pub fn new() -> Self {
        Self {
            graph: DynamicGraph::new(),
            gazetteer: Gazetteer::new(),
            // Context similarity dominates; the popularity prior only
            // breaks ties. On the synthetic corpus mention frequency is
            // uniform by construction, so — unlike Wikipedia-anchored
            // AIDA — the prior carries almost no signal (see E10).
            disambiguator: Disambiguator::new(Vec::new()).with_context_weight(0.95),
            mapper: crate::seeds::seeded_mapper(),
            predictor: LinkPredictor::new(PredictorMode::PerPredicate, BprConfig::default()),
            expansion: MapperExpansion::default(),
            expansion_seen: DeltaWatermark::default(),
            revision: RevisionPolicy::default(),
            revision_counters: RevisionCounters::default(),
        }
    }

    /// The active revision policy.
    pub fn revision_policy(&self) -> &RevisionPolicy {
        &self.revision
    }

    /// Install a revision policy. Takes effect for subsequently admitted
    /// facts; already-live edges are revised lazily as contradicting or
    /// re-asserting facts arrive.
    pub fn set_revision_policy(&mut self, policy: RevisionPolicy) {
        self.revision = policy;
    }

    /// Lifetime revision outcome counts.
    pub fn revision_counters(&self) -> RevisionCounters {
        self.revision_counters
    }

    /// Build from a generated world + curated KB: every entity becomes a
    /// labelled vertex with aliases and description text; every curated
    /// triple becomes a confidence-1.0 red edge at time 0.
    pub fn from_curated(world: &World, kb: &CuratedKb) -> Self {
        let mut kg = Self::new();
        let mut vertex_of = Vec::with_capacity(world.entities.len());
        for e in &world.entities {
            let v = kg.graph.ensure_vertex(&e.name);
            kg.graph.set_label(v, e.kind.label());
            // The description is the highest-precision context an entity
            // has (its "Wikipedia page" in AIDA terms); weight it above the
            // name terms that curated neighbours will merge in later.
            let desc = BagOfWords::from_text(&e.description);
            let mut context = BagOfWords::new();
            for _ in 0..3 {
                context.merge(&desc);
            }
            let ty = entity_type_of(e.kind);
            for a in &e.aliases {
                kg.gazetteer.insert(a, ty);
            }
            kg.disambiguator.insert(EntityRecord {
                id: v.0,
                name: e.name.clone(),
                aliases: e.aliases.clone(),
                context,
                popularity: 0.0,
            });
            vertex_of.push(v);
        }
        for t in &kb.triples {
            let s = vertex_of[t.subject];
            let o = vertex_of[t.object];
            let p = kg.graph.intern_predicate(t.predicate.name());
            kg.graph.add_edge_at(s, p, o, 0, 1.0, Provenance::Curated);
            kg.bump_entity(s, o);
        }
        kg
    }

    /// Record mutual context between two newly-linked entities: each
    /// gains the other's name terms (the "entity neighborhood in the
    /// knowledge graph" context of §3.3) and a popularity bump.
    fn bump_entity(&mut self, s: VertexId, o: VertexId) {
        let s_name = BagOfWords::from_text(self.graph.vertex_name(s));
        let o_name = BagOfWords::from_text(self.graph.vertex_name(o));
        self.disambiguator.update_context(s.0, &o_name, 1.0);
        self.disambiguator.update_context(o.0, &s_name, 1.0);
    }

    /// Create a brand-new entity discovered in text (dynamic KG growth).
    pub fn create_entity(&mut self, name: &str, ty: EntityType) -> VertexId {
        let v = self.graph.ensure_vertex(name);
        self.graph.set_label(v, ty.name());
        self.gazetteer.insert(name, ty);
        self.disambiguator.insert(EntityRecord {
            id: v.0,
            name: name.to_owned(),
            aliases: vec![name.to_owned()],
            context: BagOfWords::new(),
            popularity: 0.0,
        });
        v
    }

    /// Admit an extracted fact into the graph.
    pub fn add_extracted_fact(
        &mut self,
        s: VertexId,
        predicate: &str,
        o: VertexId,
        at: Timestamp,
        confidence: f32,
        doc_id: u64,
    ) -> nous_graph::EdgeId {
        self.add_extracted_fact_with_args(s, predicate, o, at, confidence, doc_id, &[])
    }

    /// Admit an extracted fact carrying its n-ary prepositional arguments
    /// (§3.2: "binary or n-ary relational tuples"). The binary core becomes
    /// the edge; the extra arguments ride along as the `args` property
    /// (`"prep:surface"` strings), queryable from the edge.
    #[allow(clippy::too_many_arguments)]
    pub fn add_extracted_fact_with_args(
        &mut self,
        s: VertexId,
        predicate: &str,
        o: VertexId,
        at: Timestamp,
        confidence: f32,
        doc_id: u64,
        extra_args: &[(String, String)],
    ) -> nous_graph::EdgeId {
        let p = self.graph.intern_predicate(predicate);
        let confidence = self.apply_revision(s, predicate, o, confidence);
        let mut edge =
            nous_graph::Edge::new(s, p, o, at, confidence, Provenance::Extracted { doc_id });
        if !extra_args.is_empty() {
            edge.props.set(
                "args",
                nous_graph::PropValue::List(
                    extra_args
                        .iter()
                        .map(|(prep, text)| format!("{prep}:{text}"))
                        .collect(),
                ),
            );
        }
        let id = self.graph.add_edge(edge);
        self.bump_entity(s, o);
        id
    }

    /// Revision at the admit point (NOUS §3.4): before `(s, predicate, o)`
    /// is appended, reconcile it against the live extracted edges of
    /// `(s, predicate, *)`. Same object → the duplicate is tombstoned and
    /// the new edge carries a saturating *reinforced* confidence.
    /// Different object on a *functional* predicate → the old fact is
    /// superseded: tombstoned, and re-appended at a decayed confidence
    /// only while it stays above the policy floor. Curated edges are
    /// never revised — extracted text cannot overrule the curated KB.
    ///
    /// Returns the confidence the new edge should be appended with.
    /// No-op (returns `confidence` unchanged) while the policy is off.
    fn apply_revision(
        &mut self,
        s: VertexId,
        predicate: &str,
        o: VertexId,
        confidence: f32,
    ) -> f32 {
        if !self.revision.enabled {
            return confidence;
        }
        let Some(p) = self.graph.predicate_id(predicate) else {
            return confidence;
        };
        let functional = self.revision.is_functional(predicate);
        // Snapshot the live candidates first: the loop below mutates the
        // graph, and `find` borrows its indexes.
        let priors: Vec<nous_graph::EdgeId> = self.graph.find(Some(s), Some(p), None);
        let mut admitted = confidence;
        for id in priors {
            let e = self.graph.edge(id);
            if e.provenance.is_curated() {
                continue;
            }
            if e.dst == o {
                // Re-assertion: fold the duplicate into the new edge with
                // one reinforcement step over the better of the two scores.
                admitted =
                    revision::reinforce(admitted.max(e.confidence), self.revision.reinforce_alpha);
                self.graph.remove_edge(id);
                self.revision_counters.reinforced += 1;
            } else if functional {
                // Contradiction: the newer object supersedes the old fact.
                let decayed = revision::decay(e.confidence, self.revision.decay_factor);
                let survivor = if decayed >= self.revision.decay_floor {
                    let mut old = e.clone();
                    old.confidence = decayed;
                    Some(old)
                } else {
                    None
                };
                self.graph.remove_edge(id);
                self.revision_counters.superseded += 1;
                if let Some(old) = survivor {
                    self.graph.add_edge(old);
                    self.revision_counters.decayed += 1;
                }
            }
        }
        admitted
    }

    /// Accumulate additional text evidence for an entity registered with
    /// the disambiguator (every curated and every minted entity is).
    pub fn add_entity_text(&mut self, v: VertexId, text: &BagOfWords) {
        debug_assert!(
            self.disambiguator.context_of(v.0).is_some(),
            "vertex {} has no disambiguator record to keep its text",
            v.0
        );
        self.disambiguator.update_context(v.0, text, 0.0);
    }

    /// The entity's accumulated bag-of-words: the disambiguator's context
    /// for it, the one place entity text is kept (spelled out — a copy).
    pub fn entity_text(&self, v: VertexId) -> BagOfWords {
        self.disambiguator.context_of(v.0).unwrap_or_default()
    }

    /// Stash a mapped-entity raw triple for later mapper expansion.
    pub fn stash_raw_triple(&mut self, s: VertexId, raw_pred: &str, o: VertexId) {
        self.expansion.stash(s.0, raw_pred, o.0);
    }

    pub fn pending_raw_count(&self) -> usize {
        self.expansion.stashed()
    }

    /// The stashed raw triples, one per occurrence.
    pub fn pending_raw_triples(&self) -> Vec<nous_link::predicate_map::RawTripleIds> {
        self.expansion.triples()
    }

    /// Edges, stashed triples and tallies mapper expansion has looked at
    /// since construction (see [`MapperExpansion::visited`]).
    pub fn expansion_visited(&self) -> u64 {
        self.expansion.visited()
    }

    /// Show `expansion` what happened to the graph's edges since it last
    /// looked: the edges of the log suffix that are live now as
    /// appearances, removals of edges it had seen as tombstones. O(that
    /// delta) — after a history rewrite (log compaction) the delta is the
    /// whole log.
    fn observe_graph_delta(&mut self) {
        let g = &self.graph;
        let mut seen = self.expansion_seen;
        if seen.structure_version != g.structure_version() {
            self.expansion.forget_edges();
            seen = DeltaWatermark::default();
        }
        let mut observe = |id: nous_graph::EdgeId, live| {
            let e = g.edge(id);
            self.expansion
                .observe_edge(e.src.0, g.predicate_name(e.pred), e.dst.0, live)
        };
        for id in (seen.log_len..g.log_len()).map(|i| nous_graph::EdgeId(i as u32)) {
            if g.is_live(id) {
                observe(id, true);
            }
        }
        for &id in g.removals_since(seen.removal_log_len) {
            if id.index() < seen.log_len {
                observe(id, false);
            }
        }
        self.expansion_seen = g.watermark();
    }

    /// Run the semi-supervised mapper expansion (§3.3) against the current
    /// graph state. Returns the number of new rules learned. Costs the
    /// edges admitted or tombstoned since the last call plus one look at
    /// each raw predicate's tally; stashed triples are walked only when a
    /// tally has crossed the mapper's thresholds.
    pub fn expand_mapper(&mut self) -> usize {
        self.observe_graph_delta();
        self.expansion.expand(&mut self.mapper, 5)
    }

    /// (Re)train the per-predicate link predictor from the current graph.
    pub fn train_predictor(&mut self) {
        let names: Vec<&str> = self.graph.iter_predicates().map(|(_, n)| n).collect();
        let triples: Vec<(u32, u32, u32)> = self
            .graph
            .iter_edges()
            .map(|(_, e)| (e.pred.0, e.src.0, e.dst.0))
            .collect();
        self.predictor
            .fit_interned(self.graph.vertex_count(), &names, &triples);
    }

    /// Train LDA over per-entity text and build the QA topic index (§3.6).
    ///
    /// The documents come straight off the disambiguator's context store
    /// as `(term id, count)` entries; [`fit_doc_topics`] puts them in the
    /// sampler's token order, so the distributions are bit-identical to
    /// [`nous_topics::LdaModel::fit`] over the spelled-out bags, and no
    /// term string is copied.
    pub fn build_topic_index(&self, cfg: &LdaConfig) -> TopicIndex {
        let entries = |v: VertexId| {
            self.disambiguator
                .context_entries_of(v.0)
                .unwrap_or_default()
        };
        let docs: Vec<Vec<(u32, u32)>> = self
            .graph
            .iter_vertices()
            .map(|v| entries(v).to_vec())
            .collect();
        let dists = fit_doc_topics(docs, self.disambiguator.context_terms(), cfg);
        let mut idx = TopicIndex::new(cfg.topics);
        for (v, dist) in self.graph.iter_vertices().zip(dists) {
            if !entries(v).is_empty() {
                idx.set(v, dist);
            }
        }
        idx
    }

    /// Serialise the complete system state: the graph (via the lossless
    /// compact snapshot), stashed raw triples (raw predicates interned,
    /// occurrences counted), gazetteer, disambiguator records — whose
    /// contexts are the per-entity text, as `(term id, count)` over one
    /// term table — and all mapper rules (seeds *and* learned). This is the
    /// graph's only state serialisation, and the checkpoint payload of the
    /// durability stack (`nous-persist`).
    ///
    /// Layout `NOUSKG02`. `NOUSKG01` wrote the per-entity text twice (its
    /// own section and again inside each record), every term spelled out
    /// per entity, and the raw predicate spelled out per stashed triple;
    /// [`KnowledgeGraph::decode_checkpoint`] still reads it.
    ///
    /// Not encoded: the trained predictor weights. A decoded graph's
    /// predictor is untrained, with the default `BprConfig`; call
    /// [`KnowledgeGraph::train_predictor`] once the graph is complete, as
    /// `DurableStore::open` does after WAL replay. Training is
    /// deterministic given the same edges.
    pub fn encode_checkpoint(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.checkpoint_size_hint());
        self.encode_checkpoint_into(&mut buf);
        buf
    }

    /// A generous bound on the bytes [`KnowledgeGraph::encode_checkpoint`]
    /// produces — what to reserve so a checkpoint buffer is not regrown
    /// (doubled, and recopied) on the way to a few megabytes. Reserved
    /// pages the encoding never reaches are never touched.
    pub fn checkpoint_size_hint(&self) -> usize {
        (1 << 16) + self.graph.log_len() * 128
    }

    /// [`KnowledgeGraph::encode_checkpoint`] appended to `buf`.
    pub fn encode_checkpoint_into(&self, buf: &mut Vec<u8>) {
        use crate::journal::entity_type_tag;
        use nous_graph::codec;
        buf.extend_from_slice(MAGIC_V2);
        codec::put_bytes_with(buf, |blob| {
            nous_graph::snapshot::to_compact_into(&self.graph, blob)
        });

        let raws = self.expansion.raw_predicates();
        codec::put_u32(buf, raws.len() as u32);
        for raw in raws {
            codec::put_str(buf, raw);
        }
        let entries = self.expansion.entries();
        codec::put_u32(buf, entries.len() as u32);
        for (s, raw, o, occurrences) in entries {
            for field in [s, raw, o, occurrences] {
                codec::put_u32(buf, field);
            }
        }

        // Gazetteer entries sorted for a deterministic encoding (the
        // backing map iterates in arbitrary order).
        let mut entries: Vec<(&str, EntityType)> = self.gazetteer.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        codec::put_u32(buf, entries.len() as u32);
        for (surface, ty) in entries {
            codec::put_str(buf, surface);
            codec::put_u8(buf, entity_type_tag(ty));
        }

        codec::put_f64(buf, self.disambiguator.context_weight());
        let terms = self.disambiguator.context_terms();
        codec::put_u32(buf, terms.len() as u32);
        for term in terms {
            codec::put_str(buf, term);
        }
        codec::put_u32(buf, self.disambiguator.len() as u32);
        let served = self.disambiguator.served();
        for i in 0..served.len() {
            codec::put_u32(buf, served.id(i));
            codec::put_str(buf, served.name(i));
            codec::put_u32(buf, served.aliases(i).len() as u32);
            for a in served.aliases(i) {
                codec::put_str(buf, a);
            }
            let context = self.disambiguator.context_entries(i);
            codec::put_u32(buf, context.len() as u32);
            for &(term, count) in context {
                codec::put_u32(buf, term);
                codec::put_u32(buf, count);
            }
            codec::put_f64(buf, served.popularity(i));
        }

        let (min_support, min_precision) = self.mapper.thresholds();
        codec::put_u64(buf, min_support as u64);
        codec::put_f64(buf, min_precision);
        let rules = self.mapper.rules();
        codec::put_u32(buf, rules.len() as u32);
        for (raw, rule) in rules {
            codec::put_str(buf, raw);
            codec::put_str(buf, &rule.ontology);
            codec::put_u8(buf, rule.inverted as u8);
            codec::put_f64(buf, rule.confidence);
            codec::put_u8(buf, rule.seed as u8);
        }

        // Revision policy + lifetime counters. The policy must ride in
        // the checkpoint: WAL replay re-admits facts through
        // `add_extracted_fact_with_args`, so tombstones and decays are
        // re-derived only if the restored graph revises the same way the
        // live one did.
        codec::put_u8(buf, self.revision.enabled as u8);
        codec::put_f64(buf, self.revision.reinforce_alpha as f64);
        codec::put_f64(buf, self.revision.decay_factor as f64);
        codec::put_f64(buf, self.revision.decay_floor as f64);
        codec::put_u32(buf, self.revision.functional.len() as u32);
        for p in &self.revision.functional {
            codec::put_str(buf, p);
        }
        codec::put_u64(buf, self.revision_counters.superseded);
        codec::put_u64(buf, self.revision_counters.decayed);
        codec::put_u64(buf, self.revision_counters.reinforced);
    }

    /// Restore a knowledge graph from [`KnowledgeGraph::encode_checkpoint`]
    /// bytes, rebuilding the derived indexes. The predictor comes back
    /// untrained: train it once the graph is complete.
    pub fn decode_checkpoint(bytes: &[u8]) -> Result<Self, nous_graph::snapshot::SnapshotError> {
        use crate::journal::{entity_type_from_tag, read_bow};
        use nous_graph::codec::Reader;
        use nous_graph::snapshot::SnapshotError;
        let corrupt = |what: &'static str| move |_| SnapshotError::Corrupt(what);
        let v1 = match bytes.get(..8) {
            Some(magic) if magic == MAGIC_V1 => true,
            Some(magic) if magic == MAGIC_V2 => false,
            _ => return Err(SnapshotError::Corrupt("bad checkpoint magic")),
        };
        let mut r = Reader::new(&bytes[8..]);
        let graph =
            nous_graph::snapshot::from_compact(r.bytes().map_err(corrupt("graph section"))?)?;

        let expansion = if v1 {
            // The per-vertex text section: the same bags the records
            // below carry as their contexts, which are the ones kept.
            let n = r
                .count(4, "entity text count")
                .map_err(corrupt("entity text count"))?;
            for _ in 0..n {
                read_bow(&mut r).map_err(corrupt("entity text bag"))?;
            }
            let n = r
                .count(12, "pending raw count")
                .map_err(corrupt("pending raw count"))?;
            let mut expansion = MapperExpansion::default();
            for _ in 0..n {
                let s = r.u32().map_err(corrupt("pending raw subject"))?;
                let raw = r.str().map_err(corrupt("pending raw predicate"))?;
                let o = r.u32().map_err(corrupt("pending raw object"))?;
                expansion.stash(s, raw, o);
            }
            expansion
        } else {
            let n = r
                .count(4, "raw predicate count")
                .map_err(corrupt("raw predicate count"))?;
            let mut raws = Vec::with_capacity(n);
            for _ in 0..n {
                raws.push(r.str().map_err(corrupt("raw predicate"))?.to_owned());
            }
            let n = r
                .count(16, "pending raw count")
                .map_err(corrupt("pending raw count"))?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let mut field = || r.u32().map_err(corrupt("pending raw entry"));
                entries.push((field()?, field()?, field()?, field()?));
            }
            MapperExpansion::restore(&raws, &entries)
                .ok_or(SnapshotError::Corrupt("pending raw predicate id"))?
        };

        let n = r
            .count(5, "gazetteer count")
            .map_err(corrupt("gazetteer count"))?;
        let mut gazetteer = Gazetteer::new();
        for _ in 0..n {
            let surface = r.str().map_err(corrupt("gazetteer surface"))?;
            let tag = r.u8().map_err(corrupt("gazetteer type"))?;
            let ty = entity_type_from_tag(tag)
                .ok_or(SnapshotError::Corrupt("unknown entity type tag"))?;
            gazetteer.insert(surface, ty);
        }

        let weight = r.f64().map_err(corrupt("context weight"))?;
        let mut terms = Vec::new();
        if !v1 {
            let n = r
                .count(4, "context term count")
                .map_err(corrupt("context term count"))?;
            terms.reserve(n);
            for _ in 0..n {
                terms.push(r.str().map_err(corrupt("context term"))?.to_owned());
            }
        }
        let n = r
            .count(20, "disambiguator count")
            .map_err(corrupt("disambiguator count"))?;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.u32().map_err(corrupt("record id"))?;
            let name = r.str().map_err(corrupt("record name"))?.to_owned();
            let na = r.count(4, "alias count").map_err(corrupt("alias count"))?;
            let mut aliases = Vec::with_capacity(na);
            for _ in 0..na {
                aliases.push(r.str().map_err(corrupt("record alias"))?.to_owned());
            }
            let (mut context, mut entries) = (BagOfWords::new(), Vec::new());
            if v1 {
                context = read_bow(&mut r).map_err(corrupt("record context"))?;
            } else {
                let nc = r
                    .count(8, "context length")
                    .map_err(corrupt("context length"))?;
                entries.reserve(nc);
                for _ in 0..nc {
                    let mut field = || r.u32().map_err(corrupt("context entry"));
                    entries.push((field()?, field()?));
                }
            }
            let popularity = r.f64().map_err(corrupt("record popularity"))?;
            let record = EntityRecord {
                id,
                name,
                aliases,
                context,
                popularity,
            };
            records.push((record, entries));
        }
        let disambiguator = if v1 {
            Disambiguator::new(records.into_iter().map(|(record, _)| record).collect())
                .with_context_weight(weight)
        } else {
            Disambiguator::restore(weight, terms, records)
                .ok_or(SnapshotError::Corrupt("record context entries"))?
        };

        let min_support = r.u64().map_err(corrupt("mapper support"))? as usize;
        let min_precision = r.f64().map_err(corrupt("mapper precision"))?;
        let mut mapper =
            PredicateMapper::bootstrap(&[]).with_thresholds(min_support, min_precision);
        let n = r
            .count(19, "mapper rule count")
            .map_err(corrupt("mapper rule count"))?;
        for _ in 0..n {
            let raw = r.str().map_err(corrupt("rule raw"))?.to_owned();
            let ontology = r.str().map_err(corrupt("rule ontology"))?.to_owned();
            let inverted = r.u8().map_err(corrupt("rule inverted"))? != 0;
            let confidence = r.f64().map_err(corrupt("rule confidence"))?;
            let seed = r.u8().map_err(corrupt("rule seed"))? != 0;
            mapper.insert_rule(
                &raw,
                nous_link::predicate_map::MappingRule {
                    ontology,
                    inverted,
                    confidence,
                    seed,
                },
            );
        }
        let enabled = r.u8().map_err(corrupt("revision enabled"))? != 0;
        let reinforce_alpha = r.f64().map_err(corrupt("revision alpha"))? as f32;
        let decay_factor = r.f64().map_err(corrupt("revision decay factor"))? as f32;
        let decay_floor = r.f64().map_err(corrupt("revision decay floor"))? as f32;
        let n = r
            .count(4, "functional predicate count")
            .map_err(corrupt("functional predicate count"))?;
        let mut functional = Vec::with_capacity(n);
        for _ in 0..n {
            functional.push(r.str().map_err(corrupt("functional predicate"))?.to_owned());
        }
        let revision = RevisionPolicy {
            enabled,
            functional,
            reinforce_alpha,
            decay_factor,
            decay_floor,
        };
        let revision_counters = RevisionCounters {
            superseded: r.u64().map_err(corrupt("superseded count"))?,
            decayed: r.u64().map_err(corrupt("decayed count"))?,
            reinforced: r.u64().map_err(corrupt("reinforced count"))?,
        };
        if !r.is_empty() {
            return Err(SnapshotError::Corrupt("trailing checkpoint bytes"));
        }

        Ok(KnowledgeGraph {
            graph,
            gazetteer,
            disambiguator,
            mapper,
            predictor: LinkPredictor::new(PredictorMode::PerPredicate, BprConfig::default()),
            expansion,
            expansion_seen: DeltaWatermark::default(),
            revision,
            revision_counters,
        })
    }

    /// Entity summary for "tell me about X" queries (Figure 6): type,
    /// highest-confidence facts, most recent facts, top neighbours.
    pub fn entity_summary(&self, name: &str) -> Option<EntitySummary> {
        entity_summary_view(&self.graph, self.disambiguator.served(), name)
    }
}

/// [`KnowledgeGraph::entity_summary`] against any [`GraphView`] — the form
/// the lock-free query path calls with a [`nous_graph::FrozenView`] and
/// the snapshot's published resolver. Byte-identical to the locked path: each
/// direction's adjacency is normalised to edge-log order before the stable
/// confidence sort, so tie order does not depend on the view's layout.
pub fn entity_summary_view<G: GraphView>(
    g: &G,
    resolver: &AliasResolver,
    name: &str,
) -> Option<EntitySummary> {
    // Fall back to alias resolution (no mention context to weigh).
    let v = g
        .vertex_id(name)
        .or_else(|| resolver.resolve(name).map(|r| VertexId(r.id)))?;
    let mut out_adj: Vec<Adj> = Vec::new();
    g.for_each_out(v, |a| out_adj.push(a));
    out_adj.sort_unstable_by_key(|a| a.edge.0);
    let mut in_adj: Vec<Adj> = Vec::new();
    g.for_each_in(v, |a| in_adj.push(a));
    in_adj.sort_unstable_by_key(|a| a.edge.0);
    let mut facts: Vec<(String, f32, Timestamp, bool)> = Vec::new();
    for adj in out_adj {
        let e = g.edge(adj.edge);
        facts.push((
            format!(
                "{} -[{}]-> {}",
                g.vertex_name(v),
                g.predicate_name(adj.pred),
                g.vertex_name(adj.other)
            ),
            e.confidence,
            e.at,
            e.provenance.is_curated(),
        ));
    }
    for adj in in_adj {
        let e = g.edge(adj.edge);
        facts.push((
            format!(
                "{} -[{}]-> {}",
                g.vertex_name(adj.other),
                g.predicate_name(adj.pred),
                g.vertex_name(v)
            ),
            e.confidence,
            e.at,
            e.provenance.is_curated(),
        ));
    }
    facts.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(b.2.cmp(&a.2)));
    let mut neighbors = Vec::new();
    g.neighbors_into(v, &mut neighbors);
    Some(EntitySummary {
        name: g.vertex_name(v).to_owned(),
        vertex: v,
        entity_type: g.label(v).map(str::to_owned),
        degree: g.degree(v),
        facts,
        neighbors: neighbors
            .into_iter()
            .filter(|&n| n != v)
            .map(|n| g.vertex_name(n).to_owned())
            .collect(),
    })
}

impl Default for KnowledgeGraph {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of an entity query (Figure 6's "Tell me about DJI").
#[derive(Debug, Clone)]
pub struct EntitySummary {
    pub name: String,
    pub vertex: VertexId,
    pub entity_type: Option<String>,
    pub degree: usize,
    /// `(rendered fact, confidence, timestamp, curated?)`, best-first.
    pub facts: Vec<(String, f32, Timestamp, bool)>,
    pub neighbors: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nous_corpus::{CuratedKb, Preset, World};

    fn smoke_kg() -> (World, CuratedKb, KnowledgeGraph) {
        let world = World::generate(&Preset::Smoke.world_config());
        let kb = CuratedKb::generate(&world, 7);
        let kg = KnowledgeGraph::from_curated(&world, &kb);
        (world, kb, kg)
    }

    #[test]
    fn curated_load_creates_vertices_and_red_edges() {
        let (world, kb, kg) = smoke_kg();
        assert_eq!(kg.graph.vertex_count(), world.entities.len());
        assert_eq!(kg.graph.edge_count(), kb.len());
        assert_eq!(kg.graph.stats().curated_edges, kb.len());
        // Labels present.
        let v = kg
            .graph
            .vertex_id(&world.entities[world.companies[0]].name)
            .unwrap();
        assert_eq!(kg.graph.label(v), Some("Company"));
    }

    #[test]
    fn gazetteer_and_disambiguator_cover_aliases() {
        let (world, _, kg) = smoke_kg();
        let company = &world.entities[world.companies[0]];
        assert!(kg.gazetteer.lookup(&company.aliases[1]).is_some());
        assert!(!kg.disambiguator.candidates(&company.aliases[1]).is_empty());
    }

    #[test]
    fn create_entity_grows_everything() {
        let (_, _, mut kg) = smoke_kg();
        let before = kg.graph.vertex_count();
        let v = kg.create_entity("Brand New Corp", EntityType::Organization);
        assert_eq!(kg.graph.vertex_count(), before + 1);
        assert_eq!(kg.graph.label(v), Some("Organization"));
        assert!(kg.gazetteer.lookup("Brand New Corp").is_some());
        assert!(!kg.disambiguator.candidates("Brand New Corp").is_empty());
    }

    #[test]
    fn extracted_facts_are_blue_and_timestamped() {
        let (world, _, mut kg) = smoke_kg();
        let s = kg
            .graph
            .vertex_id(&world.entities[world.companies[0]].name)
            .unwrap();
        let o = kg
            .graph
            .vertex_id(&world.entities[world.companies[1]].name)
            .unwrap();
        let id = kg.add_extracted_fact(s, "acquired", o, 500, 0.8, 42);
        let e = kg.graph.edge(id);
        assert_eq!(e.at, 500);
        assert_eq!(e.provenance, Provenance::Extracted { doc_id: 42 });
        assert_eq!(kg.graph.stats().extracted_edges, 1);
    }

    #[test]
    fn linking_updates_context_for_disambiguation() {
        let (world, _, mut kg) = smoke_kg();
        let s = kg
            .graph
            .vertex_id(&world.entities[world.companies[0]].name)
            .unwrap();
        let o = kg
            .graph
            .vertex_id(&world.entities[world.companies[1]].name)
            .unwrap();
        let o_terms = BagOfWords::from_text(kg.graph.vertex_name(o));
        let before = o_terms
            .iter()
            .map(|(t, _)| kg.entity_text(s).count(t))
            .sum::<u32>();
        kg.add_extracted_fact(s, "partneredWith", o, 10, 0.9, 1);
        let after = o_terms
            .iter()
            .map(|(t, _)| kg.entity_text(s).count(t))
            .sum::<u32>();
        assert!(after > before, "subject gains object-name context terms");
    }

    #[test]
    fn mapper_expansion_learns_from_graph() {
        let (world, _, mut kg) = smoke_kg();
        // Create 4 acquired edges, stash matching "buy" raw triples.
        for i in 0..4 {
            let s = kg
                .graph
                .vertex_id(&world.entities[world.companies[i]].name)
                .unwrap();
            let o = kg
                .graph
                .vertex_id(&world.entities[world.companies[i + 4]].name)
                .unwrap();
            kg.add_extracted_fact(s, "acquired", o, 10, 0.9, i as u64);
            kg.stash_raw_triple(s, "buy", o);
        }
        assert!(kg.mapper.map("buy").is_none());
        let added = kg.expand_mapper();
        assert!(added >= 1);
        assert_eq!(kg.mapper.map("buy").unwrap().ontology, "acquired");
    }

    #[test]
    fn predictor_trains_on_curated_graph() {
        let (_, _, mut kg) = smoke_kg();
        kg.train_predictor();
        assert!(kg.predictor.has_model("isLocatedIn"));
        let s = kg.graph.vertex_id("Shenzhen");
        assert!(s.is_some());
    }

    #[test]
    fn topic_index_covers_described_entities() {
        let (world, _, kg) = smoke_kg();
        let idx = kg.build_topic_index(&LdaConfig {
            topics: 6,
            iterations: 30,
            ..Default::default()
        });
        let v = kg
            .graph
            .vertex_id(&world.entities[world.companies[0]].name)
            .unwrap();
        assert!(idx.is_assigned(v), "companies have descriptions, so topics");
        let d = idx.get(v);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn topic_index_bits_are_pinned() {
        // The sampler's RNG draws and every count decide the served WHY
        // scores, so a change to how `build_topic_index` feeds or stores
        // the Gibbs state must leave each distribution bit-identical.
        let (world, _, mut kg) = smoke_kg();
        for i in 0..6 {
            let s = kg
                .graph
                .vertex_id(&world.entities[world.companies[i]].name)
                .unwrap();
            let o = kg
                .graph
                .vertex_id(&world.entities[world.companies[i + 1]].name)
                .unwrap();
            kg.add_extracted_fact(s, "partneredWith", o, 10, 0.9, i as u64);
        }
        let idx = kg.build_topic_index(&LdaConfig::default());
        let mut bits = Vec::new();
        for v in kg.graph.iter_vertices() {
            bits.push(u8::from(idx.is_assigned(v)));
            for x in idx.get(v) {
                bits.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        // Recorded from the string-keyed `Vec<Vec<usize>>` sampler.
        assert_eq!(nous_graph::codec::fnv1a64(&bits), 0x909f_9cbd_4361_a4c9);
    }

    #[test]
    fn predictor_bits_are_pinned() {
        // Every admitted fact's confidence reads these models, so a change
        // to how `train_predictor` groups edges, tests observed pairs or
        // schedules the per-predicate fits must leave each score
        // bit-identical.
        let (world, _, mut kg) = smoke_kg();
        for i in 0..6 {
            let s = kg
                .graph
                .vertex_id(&world.entities[world.companies[i]].name)
                .unwrap();
            let o = kg
                .graph
                .vertex_id(&world.entities[world.companies[i + 1]].name)
                .unwrap();
            kg.add_extracted_fact(s, "partneredWith", o, 10, 0.9, i as u64);
            kg.add_extracted_fact(o, "acquired", s, 20, 0.8, 10 + i as u64);
        }
        kg.train_predictor();
        let n = kg.graph.vertex_count() as u32;
        let mut bits = Vec::new();
        for (_, p) in kg.graph.iter_predicates() {
            bits.push(u8::from(kg.predictor.has_model(p)));
            if !kg.predictor.has_model(p) {
                continue;
            }
            for s in 0..n {
                for o in 0..n {
                    let x = kg.predictor.score(p, s, o);
                    bits.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
        }
        // Recorded from the `HashSet`-probing, one-model-at-a-time fit.
        assert_eq!(nous_graph::codec::fnv1a64(&bits), 0x7529_0488_2eae_e772);
    }

    #[test]
    fn checkpoint_roundtrips_full_state() {
        let (world, _, mut kg) = smoke_kg();
        kg.train_predictor();
        // Touch every state section: an extracted fact (graph + entity
        // text + disambiguator context), a minted entity (gazetteer),
        // a stashed raw triple and a learned mapper rule.
        let s = kg
            .graph
            .vertex_id(&world.entities[world.companies[0]].name)
            .unwrap();
        let o = kg
            .graph
            .vertex_id(&world.entities[world.companies[1]].name)
            .unwrap();
        kg.add_extracted_fact_with_args(
            s,
            "acquired",
            o,
            77,
            0.8,
            12,
            &[("in".into(), "March".into())],
        );
        kg.create_entity("Checkpoint Test Corp", EntityType::Organization);
        kg.stash_raw_triple(s, "buy", o);
        let bytes = kg.encode_checkpoint();
        let mut back = KnowledgeGraph::decode_checkpoint(&bytes).unwrap();
        assert_eq!(back.graph.vertex_count(), kg.graph.vertex_count());
        assert_eq!(back.graph.edge_count(), kg.graph.edge_count());
        assert_eq!(back.graph.log_len(), kg.graph.log_len());
        assert_eq!(
            back.graph.stats().extracted_edges,
            kg.graph.stats().extracted_edges
        );
        assert_eq!(back.gazetteer.len(), kg.gazetteer.len());
        assert_eq!(back.disambiguator.len(), kg.disambiguator.len());
        assert_eq!(back.pending_raw_count(), 1);
        assert_eq!(back.mapper.rules().len(), kg.mapper.rules().len());
        assert_eq!(back.entity_text(s), kg.entity_text(s));
        assert!(!kg.entity_text(s).is_empty());
        // Decode does not train; trained on the same edges, the same
        // predicates clear min-support, so the same models exist.
        assert!(back.predictor.trained_predicates().is_empty());
        back.train_predictor();
        kg.train_predictor();
        assert_eq!(
            back.predictor.trained_predicates(),
            kg.predictor.trained_predicates()
        );
        assert!(
            !back.predictor.trained_predicates().is_empty(),
            "curated smoke predicates must clear min-support"
        );
        // The encoding is deterministic, so a second trip is
        // byte-identical — what makes checkpoint files comparable.
        assert_eq!(back.encode_checkpoint(), bytes);
    }

    /// `fixtures/nouskg01.bin` is what the last `NOUSKG01` writer produced
    /// for exactly the history replayed here (two copies of the entity
    /// text, raw predicates spelled out per stashed triple): it decodes to
    /// the state this code builds, and re-encodes as `NOUSKG02`.
    #[test]
    fn nouskg01_checkpoints_still_decode() {
        let mut kg = KnowledgeGraph::new();
        let a = kg.create_entity("Acme Robotics", EntityType::Organization);
        let b = kg.create_entity("Beta Labs", EntityType::Organization);
        let c = kg.create_entity("Shenzhen", EntityType::Location);
        kg.set_revision_policy(RevisionPolicy::enabled());
        let args = [("in".to_owned(), "March".to_owned())];
        kg.add_extracted_fact_with_args(a, "acquired", b, 5, 0.8, 1, &args);
        kg.add_extracted_fact(a, "isLocatedIn", c, 6, 0.9, 2);
        kg.add_extracted_fact(a, "isLocatedIn", b, 7, 0.9, 3);
        kg.add_entity_text(
            a,
            &BagOfWords::from_text("autonomous drone delivery robotics"),
        );
        kg.add_entity_text(c, &BagOfWords::from_text("harbour city drone festival"));
        kg.stash_raw_triple(a, "buy", b);
        kg.stash_raw_triple(a, "buy", b);
        kg.stash_raw_triple(b, "base_in", c);

        let v1: &[u8] = include_bytes!("../fixtures/nouskg01.bin");
        assert_eq!(&v1[..8], b"NOUSKG01");
        let old = KnowledgeGraph::decode_checkpoint(v1).unwrap();
        assert_eq!(old.graph.log_len(), kg.graph.log_len());
        assert_eq!(old.graph.stats(), kg.graph.stats());
        assert_eq!(old.pending_raw_triples(), kg.pending_raw_triples());
        assert_eq!(old.mapper.rules(), kg.mapper.rules());
        assert_eq!(old.revision_policy(), kg.revision_policy());
        assert_eq!(old.revision_counters(), kg.revision_counters());
        for v in kg.graph.iter_vertices() {
            assert_eq!(old.entity_text(v), kg.entity_text(v));
            assert!(!kg.entity_text(v).is_empty());
        }
        let ctx = BagOfWords::from_text("drone festival");
        for name in ["Acme Robotics", "the Beta Labs'", "Shenzhen", "Nobody"] {
            let resolve = |kg: &KnowledgeGraph| {
                kg.disambiguator
                    .resolve(name, &ctx, nous_link::LinkMode::Full)
                    .map(|r| (r.id, r.score.to_bits()))
            };
            assert_eq!(resolve(&old), resolve(&kg), "{name}");
        }
        // Written back, it is the current layout — and stable from there.
        let v2 = old.encode_checkpoint();
        assert_eq!(&v2[..8], b"NOUSKG02");
        assert!(v2.len() < v1.len(), "one context section, interned terms");
        let again = KnowledgeGraph::decode_checkpoint(&v2).unwrap();
        assert_eq!(again.encode_checkpoint(), v2);
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        let (_, _, kg) = smoke_kg();
        let bytes = kg.encode_checkpoint();
        assert!(KnowledgeGraph::decode_checkpoint(&bytes[..8]).is_err());
        assert!(KnowledgeGraph::decode_checkpoint(b"WRONGMAGIC").is_err());
        // Flip a byte inside the graph section: its checksum catches it.
        let mut bad = bytes.clone();
        bad[40] ^= 0xFF;
        assert!(KnowledgeGraph::decode_checkpoint(&bad).is_err());
        // Truncation anywhere must error, never panic.
        for cut in [9, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(KnowledgeGraph::decode_checkpoint(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn revision_is_off_by_default() {
        let (world, _, mut kg) = smoke_kg();
        let s = kg
            .graph
            .vertex_id(&world.entities[world.companies[0]].name)
            .unwrap();
        let a = kg.graph.vertex_id("Shenzhen").unwrap();
        let b = kg.graph.vertex_id("Austin").unwrap();
        kg.add_extracted_fact(s, "isLocatedIn", a, 10, 0.9, 1);
        kg.add_extracted_fact(s, "isLocatedIn", b, 20, 0.9, 2);
        kg.add_extracted_fact(s, "isLocatedIn", b, 30, 0.9, 3);
        // Pure append: both objects live, the duplicate too.
        let p = kg.graph.predicate_id("isLocatedIn").unwrap();
        assert_eq!(kg.graph.find(Some(s), Some(p), Some(b)).len(), 2);
        assert!(kg.graph.has_triple(s, p, a));
        assert_eq!(kg.revision_counters(), RevisionCounters::default());
    }

    #[test]
    fn revision_supersedes_functional_facts() {
        let (world, _, mut kg) = smoke_kg();
        kg.set_revision_policy(RevisionPolicy::enabled());
        let s = kg
            .graph
            .vertex_id(&world.entities[world.companies[0]].name)
            .unwrap();
        let a = kg.graph.vertex_id("Shenzhen").unwrap();
        let b = kg.graph.vertex_id("Austin").unwrap();
        let c = kg.graph.vertex_id("Boston").unwrap();
        let first = kg.add_extracted_fact(s, "isLocatedIn", a, 10, 0.9, 1);
        kg.add_extracted_fact(s, "isLocatedIn", b, 20, 0.9, 2);
        let p = kg.graph.predicate_id("isLocatedIn").unwrap();
        // The old fact is tombstoned; it survives once at decayed score
        // (0.9 * 0.4 = 0.36 >= floor 0.3).
        assert!(!kg.graph.is_live(first));
        let old = kg.graph.find(Some(s), Some(p), Some(a));
        assert_eq!(old.len(), 1);
        assert!((kg.graph.edge(old[0]).confidence - 0.36).abs() < 1e-6);
        assert_eq!(kg.revision_counters().superseded, 1);
        assert_eq!(kg.revision_counters().decayed, 1);
        // A further contradiction pushes it below the floor: gone.
        kg.add_extracted_fact(s, "isLocatedIn", c, 30, 0.9, 3);
        assert!(kg.graph.find(Some(s), Some(p), Some(a)).is_empty());
        assert_eq!(kg.revision_counters().superseded, 3, "b superseded too");
    }

    #[test]
    fn revision_reinforces_duplicates() {
        let (world, _, mut kg) = smoke_kg();
        kg.set_revision_policy(RevisionPolicy::enabled());
        let s = kg
            .graph
            .vertex_id(&world.entities[world.companies[0]].name)
            .unwrap();
        let o = kg
            .graph
            .vertex_id(&world.entities[world.companies[1]].name)
            .unwrap();
        kg.add_extracted_fact(s, "acquired", o, 10, 0.6, 1);
        kg.add_extracted_fact(s, "acquired", o, 20, 0.5, 2);
        let p = kg.graph.predicate_id("acquired").unwrap();
        let live = kg.graph.find(Some(s), Some(p), Some(o));
        // One surviving edge at reinforce(max(0.5, 0.6)) = 0.6 + 0.3*0.4.
        assert_eq!(live.len(), 1);
        assert!((kg.graph.edge(live[0]).confidence - 0.72).abs() < 1e-6);
        assert_eq!(kg.revision_counters().reinforced, 1);
        // Repeated re-assertion saturates below 1.0.
        for i in 0..50 {
            kg.add_extracted_fact(s, "acquired", o, 30 + i, 0.5, 3 + i);
        }
        let live = kg.graph.find(Some(s), Some(p), Some(o));
        assert_eq!(live.len(), 1);
        let c = kg.graph.edge(live[0]).confidence;
        assert!((0.0..=1.0).contains(&c) && c > 0.99);
    }

    #[test]
    fn revision_never_touches_curated_edges() {
        let (world, kb, mut kg) = smoke_kg();
        kg.set_revision_policy(RevisionPolicy::enabled());
        // Every company has a curated HQ; contradict one from text.
        let company = &world.entities[world.companies[0]];
        let s = kg.graph.vertex_id(&company.name).unwrap();
        let b = kg.graph.vertex_id("Austin").unwrap();
        let curated_before = kg.graph.stats().curated_edges;
        kg.add_extracted_fact(s, "isLocatedIn", b, 20, 0.9, 2);
        assert_eq!(kg.graph.stats().curated_edges, curated_before);
        assert_eq!(kg.graph.edge_count(), kb.len() + 1);
        assert_eq!(kg.revision_counters().superseded, 0);
    }

    #[test]
    fn checkpoint_carries_revision_state() {
        let (world, _, mut kg) = smoke_kg();
        kg.set_revision_policy(RevisionPolicy {
            enabled: true,
            functional: vec!["isLocatedIn".into(), "hasCeo".into()],
            reinforce_alpha: 0.25,
            decay_factor: 0.5,
            decay_floor: 0.2,
        });
        let s = kg
            .graph
            .vertex_id(&world.entities[world.companies[0]].name)
            .unwrap();
        let a = kg.graph.vertex_id("Shenzhen").unwrap();
        let b = kg.graph.vertex_id("Austin").unwrap();
        kg.add_extracted_fact(s, "isLocatedIn", a, 10, 0.9, 1);
        kg.add_extracted_fact(s, "isLocatedIn", b, 20, 0.9, 2);
        let bytes = kg.encode_checkpoint();
        let back = KnowledgeGraph::decode_checkpoint(&bytes).unwrap();
        assert_eq!(back.revision_policy(), kg.revision_policy());
        assert_eq!(back.revision_counters(), kg.revision_counters());
        assert_eq!(back.encode_checkpoint(), bytes);
    }

    #[test]
    fn entity_summary_reports_facts() {
        let (world, _, kg) = smoke_kg();
        let company = &world.entities[world.companies[0]];
        let s = kg.entity_summary(&company.name).unwrap();
        assert_eq!(s.name, company.name);
        assert_eq!(s.entity_type.as_deref(), Some("Company"));
        assert!(!s.facts.is_empty(), "every company has curated facts");
        assert!(s.facts.iter().all(|(_, c, _, _)| (0.0..=1.0).contains(c)));
        assert!(!s.neighbors.is_empty());
        assert!(kg.entity_summary("Absolutely Unknown XYZ").is_none());
    }

    #[test]
    fn summary_resolves_aliases() {
        let (world, _, kg) = smoke_kg();
        let company = &world.entities[world.companies[0]];
        let via_alias = kg.entity_summary(&company.aliases[1]);
        assert!(
            via_alias.is_some(),
            "alias {} should resolve",
            company.aliases[1]
        );
    }
}
