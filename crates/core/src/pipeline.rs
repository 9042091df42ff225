//! The end-to-end ingestion pipeline (Figure 1).
//!
//! For each arriving document: run the §3.2 text pipeline, map every raw
//! tuple's predicate onto the ontology (§3.3), resolve both arguments
//! against the knowledge graph (AIDA-adapted disambiguation, creating new
//! vertices for genuinely new entities — the *dynamic* in dynamic KG),
//! score the candidate fact with the link predictor (§3.4), and admit it
//! if it clears the quality-control threshold. Everything that happens is
//! accounted in an [`IngestReport`], which is what the demo's quality
//! dashboard (feature 2) renders.
//!
//! # One batch step, two halves
//!
//! The paper runs construction as a data-parallel Spark job (§3, Figure 1).
//! Here it is one loop over micro-batches of [`PipelineConfig::batch_size`]
//! documents, split the way Saga-style continuous KB construction splits
//! it. The **read half** extracts the batch (tokenize/POS/NER/coref/OpenIE
//! — the wall-clock hog) against the gazetteer only, fanned out across
//! worker threads by [`nous_extract::extract_documents_quarantined`], and
//! parks failed documents in the dead-letter store. The **write half**
//! merges the survivors (mapping → disambiguation → scoring → admission)
//! sequentially in document order, so batched ingestion is deterministic.
//!
//! Every entry point drives that one loop: [`IngestPipeline::ingest`] is
//! a batch of one, [`IngestPipeline::ingest_batch`] runs it against a
//! `&mut KnowledgeGraph`, and `SharedSession::ingest_batch` runs the read
//! half under the session's read lock, the write half under its write
//! lock, and publishes a snapshot epoch after each batch.
//!
//! The only cross-document coupling in extraction is the gazetteer:
//! entities minted mid-batch become NER-visible at the next micro-batch
//! boundary rather than at the next document (see DESIGN.md, "Ingestion
//! architecture"). With `batch_size == 1` — or whenever entity creation is
//! disabled — batched and sequential ingestion produce byte-identical
//! graphs and reports.

use crate::journal::{AdmittedFact, IngestJournal};
use crate::kg::KnowledgeGraph;
use crate::quality::{CandidateFact, QualityGate};
use nous_corpus::Article;
use nous_extract::{extract_documents_quarantined, DocExtraction, Document, QuarantinedDoc};
use nous_fault::Faults;
use nous_graph::VertexId;
use nous_link::LinkMode;
use nous_obs::{ActiveSpan, Counter, Gauge, Histogram, MetricsRegistry, TraceContext};
use nous_text::bow::BagOfWords;
use nous_text::ner::{EntityType, Gazetteer};
use nous_text::openie::ExtractorConfig;

/// Pipeline configuration (the knobs of demo features 1 and 3).
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    pub extractor: ExtractorConfig,
    pub link_mode: LinkMode,
    /// Quality control: minimum blended confidence to admit a fact.
    pub min_confidence: f32,
    /// Blend between extractor confidence and link-prediction score
    /// (0 = extractor only, 1 = predictor only).
    pub predictor_weight: f32,
    /// Create vertices for unresolvable mentions (vs. dropping the fact).
    pub create_unknown_entities: bool,
    /// Run mapper expansion every N ingested documents (0 = never).
    pub expand_mapper_every: usize,
    /// Documents per micro-batch of the batch step
    /// ([`IngestPipeline::ingest_batch`], [`IngestPipeline::ingest_stream`]
    /// and `SharedSession::ingest_batch`).
    /// `1` reproduces sequential ingestion exactly (each document extracts
    /// against the fully up-to-date gazetteer); larger batches trade a
    /// bounded gazetteer-staleness window for throughput.
    pub batch_size: usize,
    /// Worker threads for batch extraction. `0` = auto: the
    /// `NOUS_THREADS` environment variable if set, else the hardware's
    /// available parallelism.
    pub extract_workers: usize,
    /// Failpoint handle consulted by the extraction stage
    /// (`extract.poison` / `extract.panic`, keyed by document id).
    /// Disabled by default; a no-op unless the `fault-injection`
    /// feature is compiled in *and* a plan is armed.
    pub faults: Faults,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            extractor: ExtractorConfig::default(),
            link_mode: LinkMode::Full,
            min_confidence: 0.35,
            predictor_weight: 0.5,
            create_unknown_entities: true,
            expand_mapper_every: 50,
            batch_size: 32,
            extract_workers: 0,
            faults: Faults::disabled(),
        }
    }
}

/// Parked documents that failed extraction (panic or injected fault),
/// kept with their errors for offline inspection. The
/// pipeline appends here instead of letting one poison document abort a
/// micro-batch; the running total is also surfaced as
/// `nous_ingest_quarantined_total`.
#[derive(Debug, Default)]
pub struct DeadLetterStore {
    entries: Vec<QuarantinedDoc>,
}

impl DeadLetterStore {
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every quarantined document, in quarantine order.
    pub fn entries(&self) -> &[QuarantinedDoc] {
        &self.entries
    }

    fn push(&mut self, q: QuarantinedDoc) {
        self.entries.push(q);
    }
}

/// Per-stage accounting, accumulated across documents. Serialised as the
/// body of the HTTP `/ingest` response.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct IngestReport {
    pub documents: usize,
    pub sentences: usize,
    /// Raw OpenIE tuples after within-document dedup (what enters mapping).
    pub raw_triples: usize,
    /// Tuples collapsed by within-document dedup (over-generation signal).
    pub duplicate_triples: usize,
    /// Tuples whose predicate mapped onto the ontology.
    pub mapped: usize,
    /// Tuples dropped because the predicate is unmapped (stashed for
    /// mapper expansion instead).
    pub unmapped: usize,
    /// Tuples dropped because an argument would not resolve.
    pub unresolved_entity: usize,
    /// New entities created from text.
    pub new_entities: usize,
    /// Facts admitted into the graph.
    pub admitted: usize,
    /// Facts rejected by quality control.
    pub rejected: usize,
    /// Facts vetoed by a registered quality gate (also counted in
    /// `rejected`).
    pub gated: usize,
}

impl IngestReport {
    /// Fraction of mapped facts that passed quality control. `0.0` (never
    /// `NaN`) when nothing has reached quality control yet.
    pub fn admission_rate(&self) -> f64 {
        if self.admitted + self.rejected == 0 {
            0.0
        } else {
            self.admitted as f64 / (self.admitted + self.rejected) as f64
        }
    }

    /// Field-wise difference against an earlier snapshot of the same
    /// accumulator (per-document / per-batch deltas). Saturating: a
    /// snapshot taken from a *different* (or reset) accumulator can have
    /// larger fields than `self`, and a delta must never underflow into
    /// garbage counts — mismatched fields clamp to zero instead.
    pub fn delta_since(&self, before: &IngestReport) -> IngestReport {
        IngestReport {
            documents: self.documents.saturating_sub(before.documents),
            sentences: self.sentences.saturating_sub(before.sentences),
            raw_triples: self.raw_triples.saturating_sub(before.raw_triples),
            duplicate_triples: self
                .duplicate_triples
                .saturating_sub(before.duplicate_triples),
            mapped: self.mapped.saturating_sub(before.mapped),
            unmapped: self.unmapped.saturating_sub(before.unmapped),
            unresolved_entity: self
                .unresolved_entity
                .saturating_sub(before.unresolved_entity),
            new_entities: self.new_entities.saturating_sub(before.new_entities),
            admitted: self.admitted.saturating_sub(before.admitted),
            rejected: self.rejected.saturating_sub(before.rejected),
            gated: self.gated.saturating_sub(before.gated),
        }
    }
}

/// The pipeline's instrument handles, pre-registered so the merge loop
/// never touches the registry mutex. These counters *are* the
/// [`IngestReport`]: [`IngestPipeline::report`] is assembled from them,
/// so the live `/stats` exposition and the report can never disagree.
struct PipelineMetrics {
    registry: MetricsRegistry,
    documents: Counter,
    sentences: Counter,
    raw_triples: Counter,
    duplicate_triples: Counter,
    mapped: Counter,
    unmapped: Counter,
    unresolved_entity: Counter,
    new_entities: Counter,
    admitted: Counter,
    rejected: Counter,
    gated: Counter,
    quarantined: Counter,
    batches: Counter,
    revision_superseded: Counter,
    revision_decayed: Counter,
    revision_reinforced: Counter,
    expansion_visited: Counter,
    workers_used: Gauge,
    stage_extract: Histogram,
    stage_map: Histogram,
    stage_disambiguate: Histogram,
    stage_score: Histogram,
    stage_gate: Histogram,
    stage_admit: Histogram,
}

impl PipelineMetrics {
    fn new(registry: MetricsRegistry) -> Self {
        let c = |name: &str, help: &str| registry.counter(name, help);
        let stage = |s: &str| {
            registry.latency_with(
                "nous_ingest_stage_seconds",
                "Per-document wall time spent in each ingestion stage",
                &[("stage", s)],
            )
        };
        Self {
            documents: c(
                "nous_ingest_documents_total",
                "Documents merged into the graph",
            ),
            sentences: c(
                "nous_ingest_sentences_total",
                "Sentences seen by extraction",
            ),
            raw_triples: c(
                "nous_ingest_raw_triples_total",
                "Raw OpenIE tuples entering mapping (after within-document dedup)",
            ),
            duplicate_triples: c(
                "nous_ingest_duplicate_triples_total",
                "Tuples collapsed by within-document dedup",
            ),
            mapped: c(
                "nous_ingest_mapped_total",
                "Tuples whose predicate mapped onto the ontology",
            ),
            unmapped: c(
                "nous_ingest_unmapped_total",
                "Tuples dropped (stashed) because the predicate is unmapped",
            ),
            unresolved_entity: c(
                "nous_ingest_unresolved_entity_total",
                "Tuples dropped because an argument would not resolve",
            ),
            new_entities: c(
                "nous_ingest_new_entities_total",
                "New entities created from text",
            ),
            admitted: c(
                "nous_ingest_admitted_total",
                "Facts admitted into the graph",
            ),
            rejected: c(
                "nous_ingest_rejected_total",
                "Facts rejected by quality control",
            ),
            gated: c(
                "nous_ingest_gated_total",
                "Facts vetoed by a registered quality gate (also counted in rejected)",
            ),
            quarantined: c(
                "nous_ingest_quarantined_total",
                "Documents quarantined to the dead-letter store (panic or injected fault)",
            ),
            batches: c(
                "nous_ingest_batches_total",
                "Parallel-extraction micro-batches dispatched",
            ),
            revision_superseded: c(
                "nous_revision_superseded_total",
                "Facts superseded by a contradicting object on a functional predicate",
            ),
            revision_decayed: c(
                "nous_revision_decayed_total",
                "Superseded facts re-appended at a decayed confidence",
            ),
            revision_reinforced: c(
                "nous_revision_reinforced_total",
                "Re-asserted facts folded into a single reinforced edge",
            ),
            expansion_visited: c(
                "nous_mapper_expansion_visited_total",
                "Edges, stashed raw triples and vote tallies mapper expansion looked at",
            ),
            workers_used: registry.gauge(
                "nous_ingest_extract_workers_used",
                "Extraction worker threads actually used by the last micro-batch",
            ),
            stage_extract: stage("extract"),
            stage_map: stage("map"),
            stage_disambiguate: stage("disambiguate"),
            stage_score: stage("score"),
            stage_gate: stage("gate"),
            stage_admit: stage("admit"),
            registry,
        }
    }

    /// Record one micro-batch and its fan-out's per-worker document
    /// counts (deterministic chunk sizes from the extraction fan-out,
    /// credited by worker slot).
    fn record_fanout(&self, worker_docs: &[usize]) {
        self.batches.inc();
        self.workers_used.set(worker_docs.len() as i64);
        for (slot, &docs) in worker_docs.iter().enumerate() {
            self.registry
                .counter_with(
                    "nous_ingest_worker_docs_total",
                    "Documents extracted per fan-out worker slot",
                    &[("worker", &slot.to_string())],
                )
                .add(docs as u64);
        }
    }

    /// Assemble the [`IngestReport`] view of the counters.
    fn report(&self) -> IngestReport {
        IngestReport {
            documents: self.documents.get() as usize,
            sentences: self.sentences.get() as usize,
            raw_triples: self.raw_triples.get() as usize,
            duplicate_triples: self.duplicate_triples.get() as usize,
            mapped: self.mapped.get() as usize,
            unmapped: self.unmapped.get() as usize,
            unresolved_entity: self.unresolved_entity.get() as usize,
            new_entities: self.new_entities.get() as usize,
            admitted: self.admitted.get() as usize,
            rejected: self.rejected.get() as usize,
            gated: self.gated.get() as usize,
        }
    }
}

/// The resolution outcome for one mention, decided *before* any graph
/// mutation. Both endpoints of a tuple are planned first and committed
/// only if both resolve — so a fact whose object fails to resolve never
/// mints its subject as an orphan vertex.
enum ResolvePlan {
    Existing(VertexId),
    Mint { name: String, ty: EntityType },
}

/// Where the graph lives while [`IngestPipeline::run_batches`] drives the
/// batch step. A `&mut KnowledgeGraph` runs both halves directly;
/// `SharedSession` runs the read half under its read lock and the write
/// half under its write lock, then publishes.
pub(crate) trait BatchGraph {
    /// Registry the `ingest.batch` trace opens in (`None`: the
    /// pipeline's own).
    fn trace_registry(&self) -> Option<&MetricsRegistry> {
        None
    }
    /// Run the read half: extraction against the gazetteer.
    fn read<T>(&mut self, f: impl FnOnce(&KnowledgeGraph) -> T) -> T;
    /// Run the write half: the in-order merge.
    fn write<T>(&mut self, f: impl FnOnce(&mut KnowledgeGraph) -> T) -> T;
    /// The batch's tail, after the write half has released the graph.
    fn publish(&mut self, _ctx: &TraceContext) {}
}

impl BatchGraph for &mut KnowledgeGraph {
    fn read<T>(&mut self, f: impl FnOnce(&KnowledgeGraph) -> T) -> T {
        f(self)
    }

    fn write<T>(&mut self, f: impl FnOnce(&mut KnowledgeGraph) -> T) -> T {
        f(self)
    }
}

/// The streaming ingestion driver.
pub struct IngestPipeline {
    cfg: PipelineConfig,
    gates: Vec<Box<dyn QualityGate>>,
    /// Veto counts per gate name.
    pub gate_vetoes: std::collections::HashMap<String, usize>,
    metrics: PipelineMetrics,
    journal: Option<Box<dyn IngestJournal>>,
    docs_since_expand: usize,
    /// Confidences of admitted and rejected facts (quality dashboard).
    pub admitted_confidences: Vec<f32>,
    pub rejected_confidences: Vec<f32>,
    /// Documents that failed extraction, parked with their errors.
    dead_letters: DeadLetterStore,
}

impl IngestPipeline {
    pub fn new(cfg: PipelineConfig) -> Self {
        Self::with_registry(cfg, MetricsRegistry::new())
    }

    /// Build a pipeline whose accounting lands in `registry` — share one
    /// registry across the pipeline, session and query layer to get a
    /// single `/stats` surface (and inject a manual clock in tests).
    pub fn with_registry(cfg: PipelineConfig, registry: MetricsRegistry) -> Self {
        Self {
            cfg,
            gates: Vec::new(),
            gate_vetoes: Default::default(),
            metrics: PipelineMetrics::new(registry),
            journal: None,
            docs_since_expand: 0,
            admitted_confidences: Vec::new(),
            rejected_confidences: Vec::new(),
            dead_letters: DeadLetterStore::default(),
        }
    }

    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// The registry this pipeline's stage timers and counters live in.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics.registry
    }

    /// Register a custom quality-control module (demo feature 3). Gates
    /// run after mapping/linking/scoring; any veto rejects the fact.
    pub fn with_gate(mut self, gate: Box<dyn QualityGate>) -> Self {
        self.gates.push(gate);
        self
    }

    /// The per-stage accounting so far, read from the live counters.
    pub fn report(&self) -> IngestReport {
        self.metrics.report()
    }

    /// Park a document that failed extraction: counted on
    /// `nous_ingest_quarantined_total` and appended to the dead-letter
    /// store. Called by the batch step's read half and by external
    /// extraction drivers. A quarantine is a degradation boundary, so the
    /// fault handle's black-box hook (if attached) snapshots the flight
    /// recorder.
    pub fn quarantine(&mut self, q: QuarantinedDoc) {
        self.metrics.quarantined.inc();
        self.cfg
            .faults
            .blackbox(&format!("quarantine doc={}", q.doc_id));
        self.dead_letters.push(q);
    }

    /// Documents quarantined so far, with their errors.
    pub fn dead_letters(&self) -> &DeadLetterStore {
        &self.dead_letters
    }

    /// Install a journal sink observing the admit stream (see
    /// [`crate::journal`]); replaces any previous sink.
    pub fn set_journal(&mut self, journal: Box<dyn IngestJournal>) {
        self.journal = Some(journal);
    }

    /// Pre-load the cumulative counters with a recovered report, so a
    /// pipeline resumed from a checkpoint + WAL replay continues the
    /// original accounting instead of restarting from zero.
    pub fn seed_report(&mut self, report: &IngestReport) {
        self.metrics.documents.add(report.documents as u64);
        self.metrics.sentences.add(report.sentences as u64);
        self.metrics.raw_triples.add(report.raw_triples as u64);
        self.metrics
            .duplicate_triples
            .add(report.duplicate_triples as u64);
        self.metrics.mapped.add(report.mapped as u64);
        self.metrics.unmapped.add(report.unmapped as u64);
        self.metrics
            .unresolved_entity
            .add(report.unresolved_entity as u64);
        self.metrics.new_entities.add(report.new_entities as u64);
        self.metrics.admitted.add(report.admitted as u64);
        self.metrics.rejected.add(report.rejected as u64);
        self.metrics.gated.add(report.gated as u64);
    }

    /// Decide how a mention surface resolves — to an existing vertex, to
    /// a new entity worth minting, or not at all — without mutating the
    /// graph. The mutation happens in [`IngestPipeline::commit_resolve`],
    /// and only once *both* endpoints of a tuple have a plan.
    fn plan_resolve_entity(
        &self,
        kg: &KnowledgeGraph,
        surface: &str,
        doc_bow: &BagOfWords,
        mention_type: Option<EntityType>,
    ) -> Option<ResolvePlan> {
        if let Some(r) = kg
            .disambiguator
            .resolve(surface, doc_bow, self.cfg.link_mode)
        {
            return Some(ResolvePlan::Existing(VertexId(r.id)));
        }
        if !self.cfg.create_unknown_entities {
            return None;
        }
        let normalized = nous_link::normalize_mention(surface);
        // Refuse to mint entities from pronouns or empty/lowercase junk —
        // those are extraction noise, not new-world knowledge.
        let looks_like_name =
            normalized.chars().next().is_some_and(|c| c.is_uppercase()) && normalized.len() >= 3;
        if !looks_like_name {
            return None;
        }
        Some(ResolvePlan::Mint {
            name: normalized,
            ty: mention_type.unwrap_or(EntityType::Other),
        })
    }

    /// Execute a [`ResolvePlan`], minting the entity if needed.
    fn commit_resolve(&mut self, kg: &mut KnowledgeGraph, plan: ResolvePlan) -> VertexId {
        match plan {
            ResolvePlan::Existing(v) => v,
            ResolvePlan::Mint { name, ty } => {
                // Subject and object of one tuple can both plan to mint
                // the same normalized name; the second commit reuses the
                // vertex the first one created.
                if let Some(v) = kg.graph.vertex_id(&name) {
                    return v;
                }
                self.metrics.new_entities.inc();
                if let Some(j) = self.journal.as_mut() {
                    j.entity_created(&name, ty);
                }
                kg.create_entity(&name, ty)
            }
        }
    }

    /// Ingest one document into the knowledge graph: a micro-batch of
    /// one, returning the document's delta. A document that fails
    /// extraction (panic or injected fault) is quarantined to the
    /// dead-letter store and contributes an empty delta; it never aborts
    /// the stream.
    pub fn ingest(&mut self, kg: &mut KnowledgeGraph, article: &Article) -> IngestReport {
        let before = self.report();
        self.run_batches(kg, std::slice::from_ref(article));
        self.report().delta_since(&before)
    }

    /// Merge one document's extractions into the graph: the batch step's
    /// write half for one document (mapping → disambiguation → scoring →
    /// admission, plus the periodic mapper expansion). Extractions carry
    /// their own provenance (`doc_id`, `day`), so a pre-computed
    /// [`DocExtraction`] merges exactly as the batch step would merge it.
    pub fn merge_extraction(&mut self, kg: &mut KnowledgeGraph, extracted: &DocExtraction) {
        let mut root = self.metrics.registry.trace("ingest.doc");
        root.attr("doc", extracted.doc_id);
        let ctx = root.context();
        self.merge_extraction_traced(kg, extracted, &ctx);
    }

    /// [`IngestPipeline::merge_extraction`] under an explicit trace
    /// context — the batch step passes a child of its batch span so each
    /// document's stage spans nest under the batch trace.
    fn merge_extraction_traced(
        &mut self,
        kg: &mut KnowledgeGraph,
        extracted: &DocExtraction,
        ctx: &TraceContext,
    ) {
        let before = self.journal.as_ref().map(|_| self.report());
        self.metrics.documents.inc();
        self.metrics.sentences.add(extracted.sentences as u64);
        self.metrics
            .duplicate_triples
            .add((extracted.raw_count - extracted.extractions.len()) as u64);
        let doc_bow = &extracted.context;
        // Per-stage time accumulates across the document's tuples through
        // drop-safe `StageAcc` guards and is observed once per document —
        // a panicking tuple (or early return) still surfaces whatever
        // stage time it burned. The accumulators are locals holding
        // cloned histogram handles, so the borrows never cross the
        // `&mut self` calls inside the loop.
        let reg = self.metrics.registry.clone();
        let mut map_acc = reg.stage_acc(&self.metrics.stage_map);
        let mut dis_acc = reg.stage_acc(&self.metrics.stage_disambiguate);
        let mut score_acc = reg.stage_acc(&self.metrics.stage_score);
        let mut gate_acc = reg.stage_acc(&self.metrics.stage_gate);
        let mut admit_acc = reg.stage_acc(&self.metrics.stage_admit);
        let trace_id = ctx.trace_id();
        for acc in [
            &mut map_acc,
            &mut dis_acc,
            &mut score_acc,
            &mut gate_acc,
            &mut admit_acc,
        ] {
            acc.set_exemplar(trace_id);
        }

        for t in &extracted.extractions {
            self.metrics.raw_triples.inc();
            let g = map_acc.enter();
            let rule = kg.mapper.map(&t.predicate).cloned();
            let Some(rule) = rule else {
                drop(g);
                self.metrics.unmapped.inc();
                // Still try to resolve the arguments so the stashed raw
                // triple can supervise mapper expansion later.
                let _g = dis_acc.enter();
                if let (Some(s), Some(o)) = (
                    kg.disambiguator
                        .resolve(&t.subject, doc_bow, self.cfg.link_mode)
                        .map(|r| VertexId(r.id)),
                    kg.disambiguator
                        .resolve(&t.object, doc_bow, self.cfg.link_mode)
                        .map(|r| VertexId(r.id)),
                ) {
                    kg.stash_raw_triple(s, &t.predicate, o);
                }
                continue;
            };
            self.metrics.mapped.inc();
            drop(g);

            // Plan both endpoints before creating either: if the object
            // turns out unresolvable the fact is dropped without having
            // minted the subject as an orphan (and vice versa).
            let g = dis_acc.enter();
            let s_plan = self.plan_resolve_entity(kg, &t.subject, doc_bow, t.subject_type);
            let o_plan = self.plan_resolve_entity(kg, &t.object, doc_bow, t.object_type);
            let (Some(s_plan), Some(o_plan)) = (s_plan, o_plan) else {
                self.metrics.unresolved_entity.inc();
                continue;
            };
            drop(g);
            let g = dis_acc.enter();
            let mut s = self.commit_resolve(kg, s_plan);
            let mut o = self.commit_resolve(kg, o_plan);
            drop(g);
            if rule.inverted {
                std::mem::swap(&mut s, &mut o);
            }
            if s == o {
                self.metrics.rejected.inc();
                continue;
            }

            // §3.4 confidence: blend extractor heuristic with the link
            // predictor's graph-prior score.
            let g = score_acc.enter();
            let prior = kg.predictor().score(&rule.ontology, s.0, o.0);
            let confidence = crate::revision::blend(t.confidence, prior, self.cfg.predictor_weight);
            drop(g);

            if confidence < self.cfg.min_confidence || t.negated {
                self.metrics.rejected.inc();
                self.rejected_confidences.push(confidence);
                continue;
            }
            let candidate = CandidateFact {
                subject: s,
                predicate: &rule.ontology,
                object: o,
                confidence,
            };
            let g = gate_acc.enter();
            let veto = self.gates.iter().find(|g| g.check(kg, &candidate).is_err());
            drop(g);
            if let Some(gate) = veto {
                *self.gate_vetoes.entry(gate.name().to_owned()).or_default() += 1;
                self.metrics
                    .registry
                    .counter_with(
                        "nous_ingest_gate_vetoes_total",
                        "Facts vetoed per quality gate",
                        &[("gate", gate.name())],
                    )
                    .inc();
                self.metrics.gated.inc();
                self.metrics.rejected.inc();
                self.rejected_confidences.push(confidence);
                continue;
            }
            let g = admit_acc.enter();
            let rev_before = kg.revision_counters();
            kg.add_extracted_fact_with_args(
                s,
                &rule.ontology,
                o,
                t.day,
                confidence,
                t.doc_id,
                &t.extra_args,
            );
            kg.add_entity_text(s, doc_bow);
            kg.add_entity_text(o, doc_bow);
            drop(g);
            let rev = kg.revision_counters();
            self.metrics
                .revision_superseded
                .add(rev.superseded - rev_before.superseded);
            self.metrics
                .revision_decayed
                .add(rev.decayed - rev_before.decayed);
            self.metrics
                .revision_reinforced
                .add(rev.reinforced - rev_before.reinforced);
            self.metrics.admitted.inc();
            if let Some(j) = self.journal.as_mut() {
                // Names logged as stored (after any inverted-rule swap),
                // so replay re-resolves to the same vertices.
                j.fact_admitted(&AdmittedFact {
                    subject: kg.graph.vertex_name(s).to_owned(),
                    predicate: rule.ontology.clone(),
                    object: kg.graph.vertex_name(o).to_owned(),
                    at: t.day,
                    confidence,
                    doc_id: t.doc_id,
                    extra_args: t.extra_args.clone(),
                });
            }
            self.admitted_confidences.push(confidence);
        }

        // One histogram observation per document per stage; stages the
        // document never reached record nothing and emit no span.
        for (name, acc) in [
            ("map", map_acc),
            ("disambiguate", dis_acc),
            ("score", score_acc),
            ("gate", gate_acc),
            ("admit", admit_acc),
        ] {
            let first = acc.first_start();
            let (total, _) = acc.finish();
            if let Some(start) = first {
                ctx.record_span(name, start, start.saturating_add(total), &[]);
            }
        }

        // Durability boundary: the document's mutations are complete, so
        // a WAL sink flushing here makes the document atomic on replay.
        if let Some(before) = before {
            let delta = self.report().delta_since(&before);
            if let Some(j) = self.journal.as_mut() {
                let _journal_span = ctx.child("journal");
                j.document_merged(extracted.doc_id, &delta);
            }
        }

        self.docs_since_expand += 1;
        if self.cfg.expand_mapper_every > 0
            && self.docs_since_expand >= self.cfg.expand_mapper_every
        {
            let visited = kg.expansion_visited();
            kg.expand_mapper();
            self.metrics
                .expansion_visited
                .add(kg.expansion_visited() - visited);
            self.docs_since_expand = 0;
        }
    }

    /// Ingest a whole stream in arrival order, one document at a time.
    pub fn ingest_all(&mut self, kg: &mut KnowledgeGraph, articles: &[Article]) -> IngestReport {
        for a in articles {
            self.ingest(kg, a);
        }
        self.report()
    }

    /// Ingest a slice of documents in micro-batches of
    /// [`PipelineConfig::batch_size`]: each batch's extraction fans out
    /// across worker threads, then its results merge **in document
    /// order**. Every document in a micro-batch extracts against the
    /// gazetteer as of the batch boundary; see the module docs for the
    /// staleness contract.
    pub fn ingest_batch(&mut self, kg: &mut KnowledgeGraph, articles: &[Article]) -> IngestReport {
        self.run_batches(kg, articles)
    }

    /// The one loop over micro-batches behind every ingest entry point.
    /// Per batch: the read half extracts against the gazetteer, the write
    /// half merges in document order, and `graph` publishes.
    pub(crate) fn run_batches(
        &mut self,
        mut graph: impl BatchGraph,
        articles: &[Article],
    ) -> IngestReport {
        for chunk in articles.chunks(self.cfg.batch_size.max(1)) {
            // One trace per micro-batch: extract → per-document stage
            // spans → publish all nest under this root, and a slow batch
            // lands in the flight recorder's slow log under "ingest.batch".
            let mut root = graph
                .trace_registry()
                .unwrap_or(&self.metrics.registry)
                .trace("ingest.batch");
            root.attr("docs", chunk.len());
            let docs: Vec<Document> = chunk.iter().map(Document::from).collect();
            let extracted = graph.read(|kg| self.extract_chunk(&kg.gazetteer, &docs, &mut root));
            let ctx = root.context();
            graph.write(|kg| {
                for ext in &extracted {
                    let mut doc_span = ctx.child("ingest.doc");
                    doc_span.attr("doc", ext.doc_id);
                    self.merge_extraction_traced(kg, ext, &doc_span.context());
                }
                // Per-batch model updates belong here: after the merge,
                // before the publish, once per batch.
            });
            graph.publish(&ctx);
        }
        self.report()
    }

    /// The batch step's read half: extract one micro-batch on the
    /// fan-out, account it, and quarantine the documents that failed.
    fn extract_chunk(
        &mut self,
        gazetteer: &Gazetteer,
        docs: &[Document],
        root: &mut ActiveSpan,
    ) -> Vec<DocExtraction> {
        let span = self
            .metrics
            .registry
            .start(&self.metrics.stage_extract)
            .with_exemplar(root.trace_id());
        let extract_span = root.child("extract");
        let (extracted, worker_docs, quarantined) = extract_documents_quarantined(
            docs,
            gazetteer,
            &self.cfg.extractor,
            self.cfg.extract_workers,
            &self.cfg.faults,
        );
        drop(extract_span);
        span.stop();
        self.metrics.record_fanout(&worker_docs);
        for q in quarantined {
            root.attr("quarantined_doc", q.doc_id);
            self.quarantine(q);
        }
        extracted
    }

    /// Ingest an arbitrary document stream with the same micro-batched
    /// fan-out as [`IngestPipeline::ingest_batch`], buffering
    /// [`PipelineConfig::batch_size`] articles at a time — the entry point
    /// for feeds that never materialise the whole corpus in memory.
    pub fn ingest_stream<I>(&mut self, kg: &mut KnowledgeGraph, articles: I) -> IngestReport
    where
        I: IntoIterator<Item = Article>,
    {
        let batch = self.cfg.batch_size.max(1);
        let mut iter = articles.into_iter();
        let mut buf: Vec<Article> = Vec::with_capacity(batch);
        loop {
            buf.clear();
            buf.extend(iter.by_ref().take(batch));
            if buf.is_empty() {
                break;
            }
            self.ingest_batch(kg, &buf);
        }
        self.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nous_corpus::{ArticleStream, CuratedKb, Preset, World};

    fn setup() -> (World, KnowledgeGraph, Vec<Article>) {
        let world = World::generate(&Preset::Smoke.world_config());
        let kb = CuratedKb::generate(&world, 7);
        let kg = KnowledgeGraph::from_curated(&world, &kb);
        let articles = ArticleStream::generate(&world, &kb, &Preset::Smoke.stream_config());
        (world, kg, articles)
    }

    #[test]
    fn ingestion_admits_facts() {
        let (_, mut kg, articles) = setup();
        kg.train_predictor();
        let mut pipe = IngestPipeline::new(PipelineConfig::default());
        let report = pipe.ingest_all(&mut kg, &articles);
        assert_eq!(report.documents, articles.len());
        assert!(report.raw_triples > 0, "extraction produced tuples");
        assert!(report.admitted > 0, "some facts admitted: {report:?}");
        assert_eq!(kg.graph.stats().extracted_edges, report.admitted);
    }

    #[test]
    fn checkpoint_bytes_are_pinned() {
        // Admission folds each fact's endpoint names into the other's
        // context; the order terms are interned in decides the term table
        // and so every checkpoint byte.
        let (_, mut kg, articles) = setup();
        kg.train_predictor();
        let mut pipe = IngestPipeline::new(PipelineConfig::default());
        pipe.ingest_all(&mut kg, &articles);
        // Recorded from the string-keyed fold (`update_context` with each
        // endpoint's name re-tokenized per fact).
        assert_eq!(
            nous_graph::codec::fnv1a64(&kg.encode_checkpoint()),
            0xcc3a_999f_641f_1fc5
        );
    }

    /// A clock that moves one nanosecond on every reading: a stage
    /// interval then measures the clock reads made inside it, plus one.
    #[derive(Default)]
    struct TickClock(std::sync::atomic::AtomicU64);

    impl nous_obs::Clock for TickClock {
        fn now_nanos(&self) -> u64 {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
        }
    }

    #[test]
    fn unmapped_tuples_resolve_under_disambiguate_not_map() {
        use nous_extract::Extraction;
        let (world, mut kg, _) = setup();
        let stashed_before = kg.pending_raw_count();
        let reg = MetricsRegistry::with_clock(std::sync::Arc::new(TickClock::default()));
        let mut pipe = IngestPipeline::with_registry(PipelineConfig::default(), reg.clone());
        let company = |i: usize| world.entities[world.companies[i]].name.clone();
        let extractions: Vec<Extraction> = (0..3)
            .map(|i| Extraction {
                doc_id: 5,
                day: 1,
                sentence: i,
                subject: company(i),
                subject_type: Some(EntityType::Organization),
                predicate: "frobnicate".into(),
                object: company(i + 1),
                object_type: Some(EntityType::Organization),
                extra_args: vec![],
                negated: false,
                confidence: 0.9,
            })
            .collect();
        let ext = DocExtraction {
            doc_id: 5,
            sentences: 3,
            raw_count: 3,
            context: BagOfWords::new(),
            extractions,
        };
        pipe.merge_extraction(&mut kg, &ext);
        assert_eq!(pipe.report().unmapped, 3);
        assert_eq!(
            kg.pending_raw_count(),
            stashed_before + 3,
            "both arguments resolve"
        );
        // One interval per tuple in each stage, and no clock read inside
        // either: the rule lookup is all "map" times, the two argument
        // resolutions are timed as "disambiguate".
        let stage = |s: &str| {
            reg.latency_with("nous_ingest_stage_seconds", "", &[("stage", s)])
                .sum()
        };
        assert_eq!(stage("map"), 3);
        assert_eq!(stage("disambiguate"), 3);
    }

    #[test]
    fn ground_truth_recall_is_reasonable() {
        // End-to-end: a healthy fraction of generator ground-truth facts
        // must land in the graph with the right canonical entities.
        let (world, mut kg, articles) = setup();
        kg.train_predictor();
        let mut pipe = IngestPipeline::new(PipelineConfig::default());
        pipe.ingest_all(&mut kg, &articles);
        let mut hit = 0usize;
        let mut total = 0usize;
        for a in &articles {
            for f in &a.facts {
                total += 1;
                let s = world
                    .by_name(&f.subject)
                    .and_then(|_| kg.graph.vertex_id(&f.subject));
                let o = world
                    .by_name(&f.object)
                    .and_then(|_| kg.graph.vertex_id(&f.object));
                if let (Some(s), Some(o)) = (s, o) {
                    if let Some(p) = kg.graph.predicate_id(f.predicate.name()) {
                        if kg.graph.has_triple(s, p, o) {
                            hit += 1;
                        }
                    }
                }
            }
        }
        let recall = hit as f64 / total as f64;
        assert!(
            recall > 0.3,
            "end-to-end recall too low: {recall:.2} ({hit}/{total})"
        );
    }

    #[test]
    fn quality_threshold_rejects() {
        let (_, mut kg, articles) = setup();
        let cfg = PipelineConfig {
            min_confidence: 0.99,
            ..Default::default()
        };
        let mut pipe = IngestPipeline::new(cfg);
        let report = pipe.ingest_all(&mut kg, &articles);
        assert_eq!(report.admitted, 0, "nothing clears 0.99");
        assert!(report.rejected > 0);
        assert_eq!(report.admission_rate(), 0.0);
    }

    #[test]
    fn unknown_entities_created_only_when_allowed() {
        let (_, mut kg, articles) = setup();
        let cfg = PipelineConfig {
            create_unknown_entities: false,
            ..Default::default()
        };
        let before = kg.graph.vertex_count();
        let mut pipe = IngestPipeline::new(cfg);
        pipe.ingest_all(&mut kg, &articles);
        assert_eq!(
            kg.graph.vertex_count(),
            before,
            "no entity creation allowed"
        );
        assert_eq!(pipe.report().new_entities, 0);
    }

    #[test]
    fn failed_object_resolution_mints_no_orphan_subject() {
        use nous_extract::Extraction;
        // A tuple whose subject would mint a brand-new entity but whose
        // object is a pronoun: the fact is dropped, and the subject must
        // NOT be left behind as an orphan vertex (nor counted as a new
        // entity).
        let (_, mut kg, _) = setup();
        let before_vertices = kg.graph.vertex_count();
        let ext = DocExtraction {
            doc_id: 77,
            sentences: 1,
            raw_count: 1,
            context: BagOfWords::new(),
            extractions: vec![Extraction {
                doc_id: 77,
                day: 5,
                sentence: 0,
                subject: "Zephyr Dynamics".into(),
                subject_type: Some(EntityType::Organization),
                predicate: "acquire".into(),
                object: "it".into(),
                object_type: None,
                extra_args: vec![],
                negated: false,
                confidence: 0.9,
            }],
        };
        let mut pipe = IngestPipeline::new(PipelineConfig::default());
        pipe.merge_extraction(&mut kg, &ext);
        let report = pipe.report();
        assert_eq!(report.mapped, 1, "{report:?}");
        assert_eq!(report.unresolved_entity, 1, "{report:?}");
        assert_eq!(report.new_entities, 0, "{report:?}");
        assert_eq!(
            kg.graph.vertex_count(),
            before_vertices,
            "orphan subject vertex minted for a dropped fact"
        );
        assert!(kg.graph.vertex_id("Zephyr Dynamics").is_none());
    }

    #[test]
    fn mapper_expansion_learns_synonyms_during_ingestion() {
        use nous_corpus::StreamConfig;
        let world = World::generate(&Preset::Smoke.world_config());
        let kb = CuratedKb::generate(&world, 7);
        let mut kg = KnowledgeGraph::from_curated(&world, &kb);
        // Heavy curated-echo stream: articles that re-report curated facts
        // through synonym verbs are exactly the distant supervision signal.
        let stream_cfg = StreamConfig {
            articles: 250,
            curated_echo_rate: 0.6,
            alias_usage: 0.0,
            ..Default::default()
        };
        let articles = ArticleStream::generate(&world, &kb, &stream_cfg);
        kg.train_predictor();
        let cfg = PipelineConfig {
            expand_mapper_every: 50,
            ..Default::default()
        };
        let mut pipe = IngestPipeline::new(cfg);
        pipe.ingest_all(&mut kg, &articles);
        // At least one non-seed synonym should have been learned from the
        // stream (the generator uses buy/purchase/make/produce/... which
        // are not seeded).
        let learned: Vec<&str> = kg
            .mapper
            .rules()
            .iter()
            .filter(|(_, r)| !r.seed)
            .map(|(k, _)| *k)
            .collect();
        assert!(!learned.is_empty(), "no synonyms learned");
    }

    #[test]
    fn per_document_delta_is_consistent() {
        let (_, mut kg, articles) = setup();
        let mut pipe = IngestPipeline::new(PipelineConfig::default());
        let mut sum_admitted = 0;
        for a in &articles {
            let delta = pipe.ingest(&mut kg, a);
            assert_eq!(delta.documents, 1);
            sum_admitted += delta.admitted;
        }
        assert_eq!(sum_admitted, pipe.report().admitted);
    }

    #[test]
    fn nary_arguments_land_as_edge_properties() {
        let (world, mut kg, _) = setup();
        let a = &world.entities[world.companies[0]].name;
        // Force a 'launched … in <city> in <month>' sentence: the mapped
        // deploys fact must carry its prepositional adjuncts.
        let product = &world.entities[world.products[0]].name;
        let article = Article {
            id: 7,
            day: 42,
            headline: "t".into(),
            body: format!("{a} deployed the {product} in Shenzhen in March."),
            facts: vec![],
        };
        let mut pipe = IngestPipeline::new(PipelineConfig::default());
        let delta = pipe.ingest(&mut kg, &article);
        assert_eq!(delta.admitted, 1, "{delta:?}");
        let with_args = kg
            .graph
            .iter_edges()
            .filter(|(_, e)| !e.provenance.is_curated())
            .filter_map(|(_, e)| e.props.get("args"))
            .next()
            .expect("admitted fact carries args prop");
        let args = with_args.as_list().unwrap();
        assert!(args.iter().any(|a| a.contains("Shenzhen")), "{args:?}");
        assert!(args.iter().any(|a| a.contains("March")), "{args:?}");
    }

    #[test]
    fn quality_gates_veto_and_account() {
        use crate::quality::TypeSignatureGate;
        let (_, mut kg, articles) = setup();
        kg.train_predictor();
        let mut pipe = IngestPipeline::new(PipelineConfig::default())
            .with_gate(Box::new(TypeSignatureGate::news_ontology()));
        let report = pipe.ingest_all(&mut kg, &articles);
        // The gate must not block the well-typed bulk of the stream…
        assert!(report.admitted > 0);
        // …and every veto is accounted under the gate's name.
        let vetoes: usize = pipe.gate_vetoes.values().sum();
        assert_eq!(vetoes, report.gated);
        // Type-correctness of everything admitted: spot-check acquired.
        if let Some(p) = kg.graph.predicate_id("acquired") {
            for (_, e) in kg.graph.iter_edges().filter(|(_, e)| e.pred == p) {
                for v in [e.src, e.dst] {
                    // The gate deliberately passes unlabelled endpoints
                    // (no type, nothing to veto) — only labelled ones
                    // carry a contract to check. Fabricating a default
                    // label here would vacuously pass exactly the
                    // endpoints the gate never looked at.
                    let Some(label) = kg.graph.label(v) else {
                        continue;
                    };
                    assert!(
                        label == "Company" || label == "Organization",
                        "ill-typed acquired edge survived the gate: {label}"
                    );
                }
            }
        }
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn poisoned_documents_quarantine_and_the_batch_continues() {
        use nous_fault::{FaultPlan, SitePlan};
        let (_, mut kg, articles) = setup();
        kg.train_predictor();
        let plan = FaultPlan::from_seed(7)
            .site(nous_extract::FP_EXTRACT_POISON, SitePlan::probability(0.2));
        let poisoned: Vec<u64> = articles
            .iter()
            .map(|a| a.id)
            .filter(|id| plan.would_fire_keyed(nous_extract::FP_EXTRACT_POISON, *id))
            .collect();
        assert!(!poisoned.is_empty(), "seed 7 must poison at least one doc");
        let cfg = PipelineConfig {
            batch_size: 8,
            extract_workers: 2,
            faults: plan.arm(),
            ..Default::default()
        };
        let mut pipe = IngestPipeline::new(cfg);
        let report = pipe.ingest_batch(&mut kg, &articles);
        // Quarantined docs never reach the merge stage; the rest do.
        assert_eq!(report.documents, articles.len() - poisoned.len());
        assert!(report.admitted > 0, "survivors still admit facts");
        let dead = pipe.dead_letters();
        assert_eq!(dead.len(), poisoned.len());
        let parked: Vec<u64> = dead.entries().iter().map(|q| q.doc_id).collect();
        assert_eq!(parked, poisoned, "exactly the keyed docs quarantined");
        assert!(dead.entries().iter().all(|q| q.error.contains("injected")));
        assert_eq!(
            pipe.metrics()
                .counter_value("nous_ingest_quarantined_total", &[]),
            Some(poisoned.len() as u64)
        );
        // Determinism: the same seed over the sequential path quarantines
        // the same documents and builds the same graph.
        let (_, mut kg2, _) = setup();
        kg2.train_predictor();
        let cfg2 = PipelineConfig {
            faults: FaultPlan::from_seed(7)
                .site(nous_extract::FP_EXTRACT_POISON, SitePlan::probability(0.2))
                .arm(),
            ..Default::default()
        };
        let mut seq = IngestPipeline::new(cfg2);
        let report2 = seq.ingest_all(&mut kg2, &articles);
        assert_eq!(report2.documents, report.documents);
        let parked2: Vec<u64> = seq
            .dead_letters()
            .entries()
            .iter()
            .map(|q| q.doc_id)
            .collect();
        assert_eq!(parked2, poisoned);
    }

    #[test]
    fn negated_facts_are_rejected() {
        let (world, mut kg, _) = setup();
        let a = &world.entities[world.companies[0]].name;
        let b = &world.entities[world.companies[1]].name;
        let article = Article {
            id: 999,
            day: 100,
            headline: "test".into(),
            body: format!("{a} never acquired {b}."),
            facts: vec![],
        };
        let mut pipe = IngestPipeline::new(PipelineConfig::default());
        let delta = pipe.ingest(&mut kg, &article);
        assert_eq!(delta.admitted, 0);
    }

    #[test]
    fn delta_since_saturates_instead_of_underflowing() {
        // A "before" snapshot from a different (or reset) accumulator can
        // be ahead of "self" — e.g. a dashboard that kept a snapshot across
        // a pipeline restart. The delta clamps to zero, never wraps.
        let behind = IngestReport {
            documents: 3,
            admitted: 1,
            ..Default::default()
        };
        let ahead = IngestReport {
            documents: 10,
            sentences: 4,
            admitted: 5,
            rejected: 2,
            ..Default::default()
        };
        let delta = behind.delta_since(&ahead);
        assert_eq!(delta.documents, 0);
        assert_eq!(delta.admitted, 0);
        assert_eq!(delta.sentences, 0);
        // The normal direction still subtracts exactly.
        let fwd = ahead.delta_since(&behind);
        assert_eq!(fwd.documents, 7);
        assert_eq!(fwd.admitted, 4);
        assert_eq!(fwd.rejected, 2);
    }

    #[test]
    fn admission_rate_is_finite_on_empty_and_delta_reports() {
        let empty = IngestReport::default();
        assert_eq!(empty.admission_rate(), 0.0);
        assert!(empty.admission_rate().is_finite());
        // Zero-doc delta: identical snapshots produce an all-zero report
        // whose rate is 0.0, not NaN.
        let snap = IngestReport {
            documents: 5,
            admitted: 3,
            rejected: 1,
            ..Default::default()
        };
        let delta = snap.delta_since(&snap.clone());
        assert_eq!(delta, IngestReport::default());
        assert_eq!(delta.admission_rate(), 0.0);
    }

    #[test]
    fn report_is_a_view_of_the_registry_counters() {
        let (_, mut kg, articles) = setup();
        kg.train_predictor();
        let mut pipe = IngestPipeline::new(PipelineConfig::default());
        let report = pipe.ingest_all(&mut kg, &articles[..10]);
        let reg = pipe.metrics();
        assert_eq!(
            reg.counter_value("nous_ingest_documents_total", &[]),
            Some(report.documents as u64)
        );
        assert_eq!(
            reg.counter_value("nous_ingest_admitted_total", &[]),
            Some(report.admitted as u64)
        );
        assert_eq!(
            reg.counter_value("nous_ingest_rejected_total", &[]),
            Some(report.rejected as u64)
        );
        // Stage histograms saw one observation per document per stage.
        let text = reg.render_prometheus();
        assert!(
            text.contains("nous_ingest_stage_seconds_count{stage=\"map\"} 10"),
            "{text}"
        );
        assert!(
            text.contains("nous_ingest_stage_seconds_count{stage=\"extract\"} 10"),
            "{text}"
        );
    }

    #[test]
    fn batched_ingestion_records_fanout_accounting() {
        let (_, mut kg, articles) = setup();
        kg.train_predictor();
        let cfg = PipelineConfig {
            batch_size: 8,
            extract_workers: 2,
            ..Default::default()
        };
        let mut pipe = IngestPipeline::new(cfg);
        let report = pipe.ingest_batch(&mut kg, &articles);
        assert_eq!(report.documents, articles.len());
        assert!(report.admitted > 0, "batched path admits facts: {report:?}");
        assert_eq!(kg.graph.stats().extracted_edges, report.admitted);
        let reg = pipe.metrics();
        let batches = reg.counter_value("nous_ingest_batches_total", &[]).unwrap();
        assert_eq!(batches as usize, articles.len().div_ceil(8));
        // Up to two workers per batch of 8 — the configured count is
        // capped at the host's parallelism (a 1-cpu host realizes 1
        // worker and skips the fan-out). Every realized slot is credited
        // and all docs are accounted across the worker counters.
        let realized = 2usize.min(nous_graph::parallel::available_workers());
        let fam = reg.counter_family("nous_ingest_worker_docs_total");
        assert_eq!(fam.len(), realized, "{fam:?}");
        let total: u64 = fam.iter().map(|(_, v)| v).sum();
        assert_eq!(total as usize, articles.len());
        assert_eq!(
            reg.gauge_value("nous_ingest_extract_workers_used", &[]),
            Some(realized as i64)
        );
    }
}
