//! The system under test, assembled from public constructors only: a
//! curated-KB bootstrap, a live [`SharedSession`], an [`IngestPipeline`]
//! journaling into a [`DurableStore`], plus the two ways the harness
//! drives a micro-batch through it — the program's own
//! [`SharedSession::ingest_batch`] (plain) and the same sequence of
//! public calls with one harness span per call (traced).

use super::spec::{Size, BATCH, FSYNC_EVERY};
use super::stats::Fnv;
use super::trace::{Layer, SpanId, SpanLog, NO_PARENT};
use nous_bench::scenarios::served_extracted;
use nous_core::{
    AdmittedFact, IngestJournal, IngestPipeline, IngestReport, KnowledgeGraph, PipelineConfig,
    RevisionPolicy, SharedSession, TrendMonitor,
};
use nous_corpus::{Article, ArticleStream, CuratedKb, Preset, World, ONTOLOGY};
use nous_extract::{extract_document, extract_documents_quarantined, Document};
use nous_graph::window::WindowKind;
use nous_link::LinkMode;
use nous_mining::{EvictionStrategy, MinerConfig};
use nous_obs::MetricsRegistry;
use nous_persist::{DocRecord, DurabilityConfig, DurableStore, FsyncPolicy, RetryPolicy};
use nous_qa::TopicIndex;
use nous_text::ner::EntityType;
use nous_topics::LdaConfig;
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub type Triple = (String, String, String);

/// A generated article stream with the world it narrates.
pub struct Corpus {
    pub world: World,
    pub kb: CuratedKb,
    pub articles: Vec<Article>,
}

/// The paper-shaped stream: the `Preset::Large` world, curated KB and
/// trend waves (the smoke preset's at smoke size), with the articles
/// sampled from `seed`. The cast is the preset's own, the same for every
/// seed: which company names share an alias decides how hard linking is,
/// and a cast redrawn per seed moved every figure by more than a change
/// to the program would. The seed draws what is written about the cast.
pub fn stream_corpus(seed: u64, articles: usize, size: Size) -> Corpus {
    let preset = match size {
        Size::Full => Preset::Large,
        Size::Smoke => Preset::Smoke,
    };
    let world_cfg = preset.world_config();
    let world = World::generate(&world_cfg);
    let kb = CuratedKb::generate(&world, world_cfg.seed);
    let cfg = nous_corpus::StreamConfig {
        seed,
        articles,
        ..Preset::Large.stream_config()
    };
    let articles = ArticleStream::generate(&world, &kb, &cfg);
    Corpus {
        world,
        kb,
        articles,
    }
}

/// FNV of everything the program will be fed: the corpus fingerprint
/// recorded in every result, so two results are comparable only when it
/// matches.
pub fn fingerprint_articles(fnv: &mut Fnv, articles: &[Article]) {
    for a in articles {
        fnv.write(&a.id.to_le_bytes());
        fnv.write(&a.day.to_le_bytes());
        fnv.write(a.headline.as_bytes());
        fnv.write(a.body.as_bytes());
    }
}

/// The narrated ground truth of `articles` as name triples.
pub fn narrated_truth(articles: &[Article]) -> BTreeSet<Triple> {
    articles
        .iter()
        .flat_map(|a| &a.facts)
        .map(|f| {
            (
                f.subject.clone(),
                f.predicate.name().to_owned(),
                f.object.clone(),
            )
        })
        .collect()
}

pub fn ontology_predicates() -> BTreeSet<String> {
    ONTOLOGY.iter().map(|p| p.name().to_owned()).collect()
}

/// Served answers against a truth set.
#[derive(Debug, Clone, Copy, Default)]
pub struct Score {
    pub truth: usize,
    pub predicted: usize,
    pub matched: usize,
}

impl Score {
    pub fn add(&mut self, other: Score) {
        self.truth += other.truth;
        self.predicted += other.predicted;
        self.matched += other.matched;
    }

    pub fn precision(&self) -> f64 {
        self.matched as f64 / self.predicted.max(1) as f64
    }

    pub fn recall(&self) -> f64 {
        self.matched as f64 / self.truth.max(1) as f64
    }
}

/// Score the extracted triples the session serves — through the real
/// query path, parse → execute → render — against `truth`.
pub fn score_served(
    session: &SharedSession,
    truth: &BTreeSet<Triple>,
    predicates: &BTreeSet<String>,
) -> Score {
    let predicted: BTreeSet<Triple> = predicates
        .iter()
        .flat_map(|pred| served_extracted(session, pred))
        .collect();
    Score {
        truth: truth.len(),
        predicted: predicted.len(),
        matched: predicted.intersection(truth).count(),
    }
}

/// The trend monitor every example and bench of the repository uses.
pub fn trend_monitor() -> TrendMonitor {
    TrendMonitor::new(
        WindowKind::Count { n: 200 },
        MinerConfig {
            k_max: 2,
            min_support: 3,
            eviction: EvictionStrategy::Eager,
        },
    )
}

/// Journal wrapper that adds up the time the store's callbacks take, so
/// the journal's share of a merge is measured rather than inferred.
struct TimedJournal {
    inner: Box<dyn IngestJournal>,
    busy_ns: Arc<AtomicU64>,
}

impl TimedJournal {
    fn timed(&self, t0: Instant) {
        // Relaxed: a statistic read after the merge returns, on one thread.
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

impl IngestJournal for TimedJournal {
    fn entity_created(&mut self, name: &str, ty: EntityType) {
        let t0 = Instant::now();
        self.inner.entity_created(name, ty);
        self.timed(t0);
    }

    fn fact_admitted(&mut self, fact: &AdmittedFact) {
        let t0 = Instant::now();
        self.inner.fact_admitted(fact);
        self.timed(t0);
    }

    fn document_merged(&mut self, doc_id: u64, delta: &IngestReport) {
        let t0 = Instant::now();
        self.inner.document_merged(doc_id, delta);
        self.timed(t0);
    }
}

/// What the sampled direct calls measured on one document, against the
/// graph state right before its micro-batch merged.
#[derive(Debug, Clone, Default)]
pub struct DocSample {
    /// Position of the document in its ingest phase.
    pub pos: usize,
    pub tokenize_ns: u64,
    pub tokens: usize,
    pub analyze_ns: u64,
    pub extract_ns: u64,
    pub map_ns: u64,
    pub predicates: usize,
    pub map_hits: usize,
    pub resolve_ns: u64,
    pub mentions: usize,
    pub candidates: usize,
}

/// Per-call measurements of the traced ingest path.
#[derive(Default)]
pub struct IngestTrace {
    pub samples: Vec<DocSample>,
    /// `(position, merge ns, journal ns)` per document.
    pub merges: Vec<(usize, u64, u64)>,
    /// `(position of the batch's first document, publish ns)`.
    pub publishes: Vec<(usize, u64)>,
    /// `(documents, extract_documents ns)` per batch.
    pub extracts: Vec<(usize, u64)>,
    pub raw_tuples: u64,
    pub extractions: u64,
    pub checkpoint_ns: Vec<u64>,
}

impl IngestTrace {
    pub fn append(&mut self, other: IngestTrace) {
        self.samples.extend(other.samples);
        self.merges.extend(other.merges);
        self.publishes.extend(other.publishes);
        self.extracts.extend(other.extracts);
        self.raw_tuples += other.raw_tuples;
        self.extractions += other.extractions;
        self.checkpoint_ns.extend(other.checkpoint_ns);
    }
}

/// The assembled system plus the harness's own accounting of it.
pub struct System {
    pub session: Arc<SharedSession>,
    pub pipeline: IngestPipeline,
    pub store: DurableStore,
    pub registry: MetricsRegistry,
    pub dir: PathBuf,
    /// Documents and facts the WAL acknowledged.
    pub acked_docs: Arc<AtomicU64>,
    pub acked_facts: Arc<AtomicU64>,
    journal_ns: Arc<AtomicU64>,
    /// Documents submitted so far.
    pub docs: usize,
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    pub trace: IngestTrace,
    checkpoint_every_facts: u64,
    batch_seq: u64,
}

/// One traced micro-batch in this many has its first document sampled,
/// 1 traced document in 64. A sample tokenizes, analyzes and extracts the
/// document once more and replays its link calls — about three
/// documents' worth of extraction, done before the batch is submitted and
/// so outside its measured time, but not free for the caches.
const SAMPLE_EVERY_BATCHES: u64 = 4;

impl System {
    /// Bootstrap from the curated KB and open a fresh durable store in
    /// `dir`. `timed_journal` wraps the store's journal for the traced
    /// run's `persist.journal` figures.
    pub fn boot(
        world: &World,
        kb: &CuratedKb,
        revision: bool,
        dir: &Path,
        checkpoint_every_facts: u64,
        timed_journal: bool,
        log: &mut SpanLog,
    ) -> io::Result<System> {
        let (mut kg, _) = log.time("core.bootstrap", Layer::Core, 0, NO_PARENT, || {
            let mut kg = KnowledgeGraph::from_curated(world, kb);
            kg.train_predictor();
            kg
        });
        if revision {
            kg.set_revision_policy(RevisionPolicy::enabled());
        }
        let registry = MetricsRegistry::new();
        let cfg = DurabilityConfig {
            fsync: FsyncPolicy::EveryN(FSYNC_EVERY),
            checkpoint_every_facts,
            keep_generations: 2,
            retry: RetryPolicy::default(),
        };
        let (store, _) = log.time("persist.create", Layer::Persist, 0, NO_PARENT, || {
            DurableStore::create(dir, cfg, &kg, &IngestReport::default(), &registry)
        });
        let store = store?;
        let session = Arc::new(SharedSession::with_registry(
            kg,
            TopicIndex::new(2),
            trend_monitor(),
            registry.clone(),
        ));
        let mut pipeline = IngestPipeline::with_registry(
            PipelineConfig {
                batch_size: BATCH,
                extract_workers: 1,
                ..Default::default()
            },
            registry.clone(),
        );
        let acked_docs = Arc::new(AtomicU64::new(0));
        let acked_facts = Arc::new(AtomicU64::new(0));
        let (docs, facts) = (acked_docs.clone(), acked_facts.clone());
        let journal = store.journal_with_ack(Arc::new(move |rec: &DocRecord| {
            // Relaxed: counters read after the writer thread is joined.
            docs.fetch_add(1, Ordering::Relaxed);
            facts.fetch_add(rec.facts.len() as u64, Ordering::Relaxed);
        }));
        let journal_ns = Arc::new(AtomicU64::new(0));
        if timed_journal {
            pipeline.set_journal(Box::new(TimedJournal {
                inner: journal,
                busy_ns: journal_ns.clone(),
            }));
        } else {
            pipeline.set_journal(journal);
        }
        let checkpoint_bytes = file_len(&dir.join("checkpoint-00000000.bin"));
        Ok(System {
            session,
            pipeline,
            store,
            registry,
            dir: dir.to_owned(),
            acked_docs,
            acked_facts,
            journal_ns,
            docs: 0,
            checkpoints: 1,
            checkpoint_bytes,
            trace: IngestTrace::default(),
            checkpoint_every_facts,
            batch_seq: 0,
        })
    }

    /// Submit one micro-batch. Returns its ack latency — submit →
    /// journal write returned → snapshot epoch published — and what a
    /// count-triggered checkpoint after it took (0 without one). With
    /// `log` the batch goes through the traced sequence of public calls.
    pub fn ingest_batch(&mut self, chunk: &[Article], log: Option<&mut SpanLog>) -> (u64, u64) {
        let timings = match log {
            None => {
                let t0 = Instant::now();
                self.session.ingest_batch(&mut self.pipeline, chunk);
                let ack = t0.elapsed().as_nanos() as u64;
                (ack, self.maybe_checkpoint(None))
            }
            Some(log) => self.ingest_batch_traced(chunk, log),
        };
        self.docs += chunk.len();
        self.batch_seq += 1;
        timings
    }

    /// The calls `SharedSession::ingest_batch` makes, made from here with
    /// one span each: extract under the read lock, merge each document
    /// under the write lock (which journals it), publish.
    fn ingest_batch_traced(&mut self, chunk: &[Article], log: &mut SpanLog) -> (u64, u64) {
        let id = self.batch_seq;
        let root = log.open("ingest.batch", Layer::Harness, id, NO_PARENT);
        if id.is_multiple_of(SAMPLE_EVERY_BATCHES) {
            self.sample_document(&chunk[0], log, root);
        }
        let submit = log.now();
        let docs: Vec<Document> = chunk.iter().map(Document::from).collect();
        let cfg = self.pipeline.config().clone();
        let ((extracted, quarantined), extract_ns) =
            log.time("extract.documents", Layer::Extract, id, root, || {
                self.session.read(|kg, _| {
                    let (ok, _, quarantined) = extract_documents_quarantined(
                        &docs,
                        &kg.gazetteer,
                        &cfg.extractor,
                        cfg.extract_workers,
                        &cfg.faults,
                    );
                    (ok, quarantined)
                })
            });
        for q in quarantined {
            self.pipeline.quarantine(q);
        }
        self.trace.extracts.push((chunk.len(), extract_ns));
        for e in &extracted {
            self.trace.raw_tuples += e.raw_count as u64;
            self.trace.extractions += e.extractions.len() as u64;
        }

        // `write` publishes on its way out, so the publish span is the
        // part of the call the closure does not cover.
        let write = log.open("core.write", Layer::Core, id, root);
        let first_pos = self.docs;
        let (pipeline, journal_ns, merges) =
            (&mut self.pipeline, &self.journal_ns, &mut self.trace.merges);
        let closure_end = self.session.write(|kg| {
            for (i, ext) in extracted.iter().enumerate() {
                let j0 = journal_ns.load(Ordering::Relaxed);
                let start = log.now();
                pipeline.merge_extraction(kg, ext);
                let end = log.now();
                let journal = journal_ns.load(Ordering::Relaxed) - j0;
                let merge = log.push("core.merge", Layer::Core, id, write, start, end);
                log.push(
                    "persist.journal",
                    Layer::Persist,
                    id,
                    merge,
                    end - journal,
                    end,
                );
                merges.push((first_pos + i, end - start, journal));
            }
            log.now()
        });
        let done = log.now();
        log.push("core.publish", Layer::Core, id, write, closure_end, done);
        log.close(write);
        self.trace.publishes.push((first_pos, done - closure_end));
        let checkpoint = self.maybe_checkpoint(Some((log, root, id)));
        log.close(root);
        (done - submit, checkpoint)
    }

    /// Checkpoint now, whatever the count (`recover_replay`'s midpoint).
    pub fn checkpoint_now(&mut self) {
        self.checkpoint(None);
    }

    /// Count-triggered checkpoint after a micro-batch (the cadence
    /// `DurableStore::maybe_checkpoint` implements): deterministic in the
    /// number of admitted facts, never in wall time. Returns what it took.
    fn maybe_checkpoint(&mut self, log: Option<(&mut SpanLog, SpanId, u64)>) -> u64 {
        if self.store.admitted_since_checkpoint() >= self.checkpoint_every_facts {
            self.checkpoint(log)
        } else {
            0
        }
    }

    fn checkpoint(&mut self, log: Option<(&mut SpanLog, SpanId, u64)>) -> u64 {
        let t0 = Instant::now();
        let report = self.pipeline.report();
        let store = &mut self.store;
        let generation = self
            .session
            .checkpoint_with(|kg| store.checkpoint(kg, &report))
            .expect("checkpoint write");
        let ns = t0.elapsed().as_nanos() as u64;
        self.checkpoints += 1;
        self.checkpoint_bytes +=
            file_len(&self.dir.join(format!("checkpoint-{generation:08}.bin")));
        self.trace.checkpoint_ns.push(ns);
        if let Some((log, root, id)) = log {
            let end = log.now();
            log.push(
                "persist.checkpoint",
                Layer::Persist,
                id,
                root,
                end - ns,
                end,
            );
        }
        ns
    }

    /// Direct calls into `nous-text`, `nous-extract` and `nous-link` on
    /// one document of the coming batch, against the graph as the batch
    /// will see it: the figures that split the extract and merge spans.
    fn sample_document(&mut self, article: &Article, log: &mut SpanLog, parent: SpanId) {
        let span = log.open("probe.document", Layer::Probe, self.batch_seq, parent);
        let doc = Document::from(article);
        let cfg = self.pipeline.config().extractor.clone();
        let mut s = DocSample {
            pos: self.docs,
            ..Default::default()
        };
        self.session.read(|kg, _| {
            // Untimed first: the first sizeable allocation after a merge
            // pays for the allocator tidying up after it (hundreds of
            // microseconds, growing with the graph), whichever call makes it.
            std::hint::black_box(nous_text::tokenize(&doc.text));
            let t = Instant::now();
            s.tokens = std::hint::black_box(nous_text::tokenize(&doc.text)).len();
            s.tokenize_ns = t.elapsed().as_nanos() as u64;

            let t = Instant::now();
            std::hint::black_box(nous_text::analyze(&doc.text, &kg.gazetteer, &cfg));
            s.analyze_ns = t.elapsed().as_nanos() as u64;

            let t = Instant::now();
            let ext = extract_document(&doc, &kg.gazetteer, &cfg);
            s.extract_ns = t.elapsed().as_nanos() as u64;

            let t = Instant::now();
            s.predicates = ext.extractions.len();
            s.map_hits = ext
                .extractions
                .iter()
                .filter(|e| kg.mapper.map(&e.predicate).is_some())
                .count();
            s.map_ns = t.elapsed().as_nanos() as u64;

            // The merge resolves both arguments of every tuple, mapped
            // or not (unmapped ones feed mapper expansion).
            let t = Instant::now();
            for e in &ext.extractions {
                for surface in [&e.subject, &e.object] {
                    std::hint::black_box(kg.disambiguator.resolve(
                        surface,
                        &ext.context,
                        LinkMode::Full,
                    ));
                }
            }
            s.resolve_ns = t.elapsed().as_nanos() as u64;
            for e in &ext.extractions {
                for surface in [&e.subject, &e.object] {
                    s.mentions += 1;
                    s.candidates += kg.disambiguator.candidates(surface).len();
                }
            }
        });
        self.trace.samples.push(s);
        log.close(span);
    }

    /// LDA topic index over entity text, then the trend window: the last
    /// two steps of every set-up.
    pub fn build_topics_and_trends(&mut self, log: &mut SpanLog) {
        let session = &self.session;
        log.time("topics.build_index", Layer::Topics, 0, NO_PARENT, || {
            let topics = session.read(|kg, _| kg.build_topic_index(&LdaConfig::default()));
            session.set_topics(topics);
        });
        log.time("core.trends_observe", Layer::Mining, 0, NO_PARENT, || {
            session.with_trends(|trends, kg| trends.observe(kg));
        });
    }

    /// The counters as they stand after the documents submitted so far.
    pub fn counts(&self) -> Counts {
        let counter = |name| self.registry.counter_value(name, &[]).unwrap_or(0);
        Counts {
            docs: self.docs,
            admitted: self.pipeline.report().admitted,
            wal_bytes: counter("nous_wal_bytes_total"),
            fsyncs: counter("nous_wal_fsyncs_total"),
            checkpoints: self.checkpoints,
            checkpoint_bytes: self.checkpoint_bytes,
            superseded: self.session.read(|kg, _| kg.revision_counters().superseded),
            quarantined: self.quarantined() as u64,
        }
    }

    pub fn quarantined(&self) -> usize {
        self.pipeline.dead_letters().len()
    }

    /// Crash and recover: drop the writer side without a final sync or
    /// checkpoint, reopen the directory, and account for every document
    /// the journal acknowledged. The session stays alive for comparison.
    pub fn verify_durable(self) -> io::Result<Durability> {
        let acked_docs = self.acked_docs.load(Ordering::Relaxed);
        let acked_facts = self.acked_facts.load(Ordering::Relaxed);
        let report = self.pipeline.report();
        let live_edges = self.session.read(|kg, _| kg.graph.edge_count());
        let dir = self.dir.clone();
        let System {
            pipeline, store, ..
        } = self;
        drop(pipeline);
        drop(store);

        let (store, recovered) =
            DurableStore::open(&dir, DurabilityConfig::default(), &MetricsRegistry::new())?;
        drop(store);
        let recovered_docs = recovered.report.documents as u64;
        Ok(Durability {
            acked_docs,
            recovered_docs,
            lost_docs: acked_docs.saturating_sub(recovered_docs),
            state_matches: recovered.report == report
                && recovered.report.admitted as u64 == acked_facts
                && recovered.kg.graph.edge_count() == live_edges,
        })
    }
}

/// Count metrics of an ingest phase, read at a fixed document count so
/// they repeat exactly for a seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub docs: usize,
    pub admitted: usize,
    pub wal_bytes: u64,
    pub fsyncs: u64,
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    /// Facts a newer object on a functional predicate tombstoned.
    pub superseded: u64,
    pub quarantined: u64,
}

impl Counts {
    pub fn add(&mut self, other: Counts) {
        self.docs += other.docs;
        self.admitted += other.admitted;
        self.wal_bytes += other.wal_bytes;
        self.fsyncs += other.fsyncs;
        self.checkpoints += other.checkpoints;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.superseded += other.superseded;
        self.quarantined += other.quarantined;
    }
}

/// Outcome of [`System::verify_durable`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Durability {
    pub acked_docs: u64,
    pub recovered_docs: u64,
    pub lost_docs: u64,
    /// Recovered report, admitted count and edge count equal the live ones.
    pub state_matches: bool,
}

pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
