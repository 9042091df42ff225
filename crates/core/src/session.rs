//! Thread-safe session state for concurrent querying during ingestion.
//!
//! The paper's demonstration runs "using both web and command line
//! interface" against a long-running service (§4): multiple analysts query
//! while the stream keeps ingesting. [`SharedSession`] is that shape: the
//! knowledge graph and topic index sit behind a `parking_lot::RwLock`
//! (many concurrent readers, exclusive writer), and the trend monitor —
//! whose queries mutate internal miner state — behind a `Mutex`.
//!
//! On top of the locks the session maintains an **epoch-swapped layered
//! snapshot** ([`FrozenSnapshot`]): an immutable [`LayeredSnapshot`] of
//! the graph plus shared handles to the topic index and alias resolver,
//! published after every mutation. Publication is **incremental**: each
//! epoch freezes only the facts admitted since the previous one into a
//! [`nous_graph::DeltaOverlay`] chained onto the published stack, so the
//! graph's share of publish cost is O(delta), independent of graph size.
//! The alias resolver shares its identity and alias tables with the live
//! engine and copies only the popularity values, one `f64` per entity;
//! the tables themselves are copied once, by the first mint after a
//! publish. The session's one compactor thread folds the overlay stack
//! back into a single base [`nous_graph::FrozenView`] when a publish
//! takes it past the configured thresholds ([`CompactionConfig`]). It
//! folds the published layers themselves, never the graph, so it takes
//! no graph lock and ingestion never waits on it. One fold runs at a time, under the
//! session's fold lock; publishing only pushes overlays, so a fold
//! always installs under whatever was published while it ran.
//!
//! The lock-free query path ([`SharedSession::frozen`]) is one short
//! mutex-protected `Arc` clone — readers then run entirely against
//! immutable state, never touching the KG lock, with staleness bounded
//! by one ingest micro-batch and surfaced as `nous_snapshot_age_nanos`.

use crate::kg::KnowledgeGraph;
use crate::pipeline::{BatchGraph, IngestPipeline, IngestReport};
use crate::trends::TrendMonitor;
use nous_corpus::Article;
use nous_fault::Faults;
use nous_graph::LayeredSnapshot;
use nous_link::AliasResolver;
use nous_obs::{Counter, Gauge, Histogram, MetricsRegistry, TraceContext};
use nous_qa::TopicIndex;
use parking_lot::{Mutex, RwLock};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, OnceLock, Weak};
use std::thread::Thread;

/// One published epoch of the session: everything the lock-free query
/// path needs, immutable behind an `Arc`. Holding the `Arc` pins the
/// epoch — later ingestion publishes new snapshots without disturbing it.
pub struct FrozenSnapshot {
    /// Monotonic publish counter (0 = the construction-time snapshot).
    pub epoch: u64,
    /// Layered graph view: immutable base + delta overlays, merged on
    /// read. The one view every query reads; the graph behind the lock
    /// keeps only what writes need.
    pub view: LayeredSnapshot,
    /// Topic distributions at publish time (coherence scoring). Shared:
    /// epochs between LDA refreshes all point at the same index.
    pub topics: Arc<TopicIndex>,
    /// Alias resolver at publish time (entity-name → vertex fallback):
    /// what serving reads of the linker — alias table, names, popularity,
    /// no contexts — with the tables shared, copy-on-mint, with the live
    /// engine. The same `Arc` across epochs whose resolver state is
    /// identical.
    pub disambiguator: Arc<AliasResolver>,
    /// Registry-clock time of publication, for the staleness gauge.
    pub published_at_nanos: u64,
}

/// When the session's compactor thread folds the published overlay
/// stack back into a single base [`nous_graph::FrozenView`].
#[derive(Debug, Clone)]
pub struct CompactionConfig {
    /// Compact once this many overlays are stacked on the base.
    pub max_layers: usize,
    /// Compact once overlay edges exceed this fraction of live edges…
    pub max_delta_fraction: f64,
    /// …but only after at least this many overlay edges accumulated
    /// (keeps tiny test graphs from compacting on every publish).
    pub min_delta_edges: usize,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        Self {
            max_layers: 8,
            max_delta_fraction: 0.25,
            min_delta_edges: 512,
        }
    }
}

impl CompactionConfig {
    /// The trigger rule: `view` has overlays, and either `max_layers` of
    /// them or `max_delta_fraction` of its live edges past
    /// `min_delta_edges`.
    fn due(&self, view: &LayeredSnapshot) -> bool {
        let overlays = view.layer_count();
        overlays > 0
            && (overlays >= self.max_layers
                || (view.overlay_edge_count() >= self.min_delta_edges
                    && view.delta_fraction() >= self.max_delta_fraction))
    }
}

/// Lock wait/hold instruments, one series per lock kind
/// (`lock="read"|"write"|"trends"|"all"`). Wait is the time from request
/// to acquisition; hold is the time the closure runs under the lock.
struct SessionMetrics {
    registry: MetricsRegistry,
    wait_read: Histogram,
    wait_write: Histogram,
    wait_trends: Histogram,
    wait_all: Histogram,
    hold_read: Histogram,
    hold_write: Histogram,
    hold_trends: Histogram,
    hold_all: Histogram,
    hold_last_read: Gauge,
    hold_last_write: Gauge,
    snapshot_epoch: Gauge,
    snapshot_age: Gauge,
    snapshot_publish: Histogram,
    snapshot_published: Counter,
    snapshot_layers: Gauge,
    snapshot_delta_permille: Gauge,
    resolver_copied: Counter,
    compaction_seconds: Histogram,
    compactions: Counter,
    compactions_failed: Counter,
}

impl SessionMetrics {
    fn new(registry: MetricsRegistry) -> Self {
        let wait = |l: &str| {
            registry.latency_with(
                "nous_session_lock_wait_seconds",
                "Time spent waiting to acquire a session lock",
                &[("lock", l)],
            )
        };
        let hold = |l: &str| {
            registry.latency_with(
                "nous_session_lock_hold_seconds",
                "Time a session lock was held by one operation",
                &[("lock", l)],
            )
        };
        let last = |l: &str| {
            registry.gauge_with(
                "nous_session_lock_hold_last_nanos",
                "Hold time of the most recent acquisition, nanoseconds",
                &[("lock", l)],
            )
        };
        Self {
            wait_read: wait("read"),
            wait_write: wait("write"),
            wait_trends: wait("trends"),
            wait_all: wait("all"),
            hold_read: hold("read"),
            hold_write: hold("write"),
            hold_trends: hold("trends"),
            hold_all: hold("all"),
            hold_last_read: last("read"),
            hold_last_write: last("write"),
            snapshot_epoch: registry.gauge_with(
                "nous_snapshot_epoch",
                "Epoch of the currently published frozen snapshot",
                &[],
            ),
            snapshot_age: registry.gauge_with(
                "nous_snapshot_age_nanos",
                "Staleness of the frozen snapshot at its last acquisition, nanoseconds",
                &[],
            ),
            snapshot_publish: registry.latency_with(
                "nous_snapshot_publish_seconds",
                "Wall time to freeze and publish one snapshot epoch",
                &[],
            ),
            snapshot_published: registry.counter(
                "nous_snapshot_published_total",
                "Snapshot epochs published since session start",
            ),
            snapshot_layers: registry.gauge_with(
                "nous_snapshot_layers",
                "Layers (base + overlays) in the published snapshot",
                &[],
            ),
            snapshot_delta_permille: registry.gauge_with(
                "nous_snapshot_delta_permille",
                "Overlay edges as a permille of live edges in the published snapshot",
                &[],
            ),
            resolver_copied: registry.counter(
                "nous_resolver_copied_elements_total",
                "Resolver records, alias-table keys and popularity values copied into \
                 published snapshots",
            ),
            compaction_seconds: registry.latency_with(
                "nous_compaction_seconds",
                "Wall time to fold the overlay stack into a new base view",
                &[],
            ),
            compactions: registry.counter(
                "nous_compactions_total",
                "Snapshot compactions completed since session start",
            ),
            compactions_failed: registry.counter(
                "nous_compactions_failed_total",
                "Snapshot compactions aborted by an injected fault or a panic",
            ),
            registry,
        }
    }

    /// Run `f` on what `lock` acquires, timing the acquisition on `wait`
    /// and `f` with the release on `hold`; returns the hold in nanoseconds.
    fn timed<G, T>(
        &self,
        (wait, hold): (&Histogram, &Histogram),
        lock: impl FnOnce() -> G,
        f: impl FnOnce(G) -> T,
    ) -> (T, u64) {
        let t0 = self.registry.now_nanos();
        let guards = lock();
        let t1 = self.registry.now_nanos();
        wait.observe(t1.saturating_sub(t0));
        let out = f(guards);
        let held = self.registry.now_nanos().saturating_sub(t1);
        hold.observe(held);
        (out, held)
    }

    /// Point the snapshot gauges at `snap`. Called with the slot locked,
    /// so the gauges follow the order of installs.
    fn set_snapshot(&self, snap: &FrozenSnapshot) {
        self.snapshot_epoch.set(snap.epoch as i64);
        self.snapshot_layers.set(1 + snap.view.layer_count() as i64);
        self.snapshot_delta_permille
            .set((snap.view.delta_fraction() * 1000.0) as i64);
    }
}

/// Failpoint inside [`SharedSession::compact_now`], which the compactor
/// thread's folds also run, between deciding to compact and folding the
/// new base. A fired fault aborts the fold: the existing layer stack
/// keeps serving.
pub const FP_SESSION_COMPACT: &str = "session.compact";

/// Shareable handle to a live NOUS session; clones share one session.
#[derive(Clone)]
pub struct SharedSession(Arc<Session>);

/// The state every [`SharedSession`] clone shares. Its compactor thread
/// holds only a `Weak`; `Drop` wakes the thread, which then finds the
/// session gone and exits. It is never joined, because the last handle
/// may be dropped on the compactor itself. A fold has no durable effect
/// (checkpoints and the WAL never depend on it), so one cut short loses
/// nothing.
struct Session {
    kg: RwLock<KnowledgeGraph>,
    topics: RwLock<Arc<TopicIndex>>,
    trends: Mutex<TrendMonitor>,
    /// Epoch-swapped publication slot. The mutex only guards the `Arc`
    /// swap/clone (nanoseconds); readers never hold it while querying.
    snapshot: Mutex<Arc<FrozenSnapshot>>,
    compaction: Mutex<CompactionConfig>,
    /// Held by a fold from reading the published stack until its
    /// install, so no fold ever replaces the stack another one read.
    fold: Mutex<()>,
    faults: Mutex<Faults>,
    metrics: SessionMetrics,
    /// The compactor thread, set once it is started.
    compactor: OnceLock<Thread>,
}

impl Drop for Session {
    fn drop(&mut self) {
        if let Some(compactor) = self.compactor.get() {
            compactor.unpark();
        }
    }
}

/// The compactor thread: on each wake (`park` may also return on its
/// own) fold if what is published is past the thresholds. A fold that
/// panics is counted as failed and fires the black-box hook; the stack
/// it read keeps serving and the thread lives on. Its first act is to
/// send on `started`: std names the OS thread before running this, so
/// once the send lands the thread is visible under its name.
fn run_compactor(session: Weak<Session>, started: mpsc::SyncSender<()>) {
    let _ = started.send(());
    loop {
        std::thread::park();
        let Some(s) = session.upgrade().map(SharedSession) else {
            return;
        };
        let snap = s.0.snapshot.lock().clone();
        if s.0.compaction.lock().due(&snap.view)
            && catch_unwind(AssertUnwindSafe(|| s.compact_now())).is_err()
        {
            s.0.faults.lock().blackbox("compaction-panicked");
            s.0.metrics.compactions_failed.inc();
        }
    }
}

impl SharedSession {
    pub fn new(kg: KnowledgeGraph, topics: TopicIndex, trends: TrendMonitor) -> Self {
        Self::with_registry(kg, topics, trends, MetricsRegistry::new())
    }

    /// Build a session whose lock and trend-miner accounting lands in
    /// `registry`. Share the same registry with the ingestion pipeline
    /// ([`IngestPipeline::with_registry`]) to get one `/stats` surface for
    /// the whole service.
    pub fn with_registry(
        kg: KnowledgeGraph,
        topics: TopicIndex,
        mut trends: TrendMonitor,
        registry: MetricsRegistry,
    ) -> Self {
        trends.instrument(&registry);
        let metrics = SessionMetrics::new(registry);
        let topics = Arc::new(topics);
        let initial = FrozenSnapshot {
            epoch: 0,
            view: LayeredSnapshot::freeze(&kg.graph),
            topics: topics.clone(),
            disambiguator: Arc::new(kg.disambiguator.served().clone()),
            published_at_nanos: metrics.registry.now_nanos(),
        };
        metrics.set_snapshot(&initial);
        let session = Arc::new(Session {
            kg: RwLock::new(kg),
            topics: RwLock::new(topics),
            trends: Mutex::new(trends),
            snapshot: Mutex::new(Arc::new(initial)),
            compaction: Mutex::new(CompactionConfig::default()),
            fold: Mutex::new(()),
            faults: Mutex::new(Faults::disabled()),
            metrics,
            compactor: OnceLock::new(),
        });
        // Started only once the `Arc` exists, so a failed upgrade in its
        // loop always means the session is gone. The session is returned
        // only once the thread runs, so it exists from construction on.
        let weak = Arc::downgrade(&session);
        let (started, running) = mpsc::sync_channel(1);
        let compactor = std::thread::Builder::new()
            .name("nous-compactor".into())
            .spawn(move || run_compactor(weak, started))
            .expect("start the session's compactor thread");
        running
            .recv()
            .expect("the compactor thread signals before anything else");
        let _ = session.compactor.set(compactor.thread().clone());
        Self(session)
    }

    /// Replace the thresholds past which a publish wakes the compactor
    /// thread (defaults: 8 overlay layers or 25% delta fraction past 512
    /// overlay edges); [`SharedSession::compact_now`] ignores them.
    pub fn set_compaction_config(&self, cfg: CompactionConfig) {
        *self.0.compaction.lock() = cfg;
    }

    /// Arm deterministic fault injection for session-level sites
    /// (currently `session.compact`). No-op unless the `fault-injection`
    /// feature is compiled in.
    pub fn set_faults(&self, faults: Faults) {
        *self.0.faults.lock() = faults;
    }

    /// Incrementally publish the current graph/topics/resolver state as a
    /// new epoch. Called automatically after every mutation
    /// ([`SharedSession::write`], [`SharedSession::set_topics`], each
    /// [`SharedSession::ingest_batch`] micro-batch); exposed publicly for
    /// callers that mutate through other channels. Returns the epoch now
    /// visible to readers.
    ///
    /// Cost is O(facts since the previous epoch + entities), not O(graph).
    /// The graph: the new epoch freezes only the delta into an overlay
    /// chained onto the published stack. The resolver: when its
    /// version moved (any admitted fact moves it) the epoch gets a clone
    /// of [`nous_link::Disambiguator::served`], which copies the
    /// popularity values (one `f64` per entity) and shares the identity
    /// and alias tables; a mint since the last publish has copied those
    /// tables once already. Both copies are counted on
    /// `nous_resolver_copied_elements_total`. No context bag is ever
    /// copied. Topics are one shared `Arc`. When nothing changed at all
    /// the current epoch is returned with no new snapshot installed; a
    /// new one past the thresholds wakes the compactor thread.
    pub fn publish_snapshot(&self) -> u64 {
        let m = &self.0.metrics;
        let t0 = m.registry.now_nanos();
        let kg = self.0.kg.read();
        let topics = self.0.topics.read().clone();
        let mut slot = self.0.snapshot.lock();
        let prev = slot.clone();
        let wm = kg.graph.watermark();
        let resolver = kg.disambiguator.served();
        if wm == prev.view.watermark()
            && resolver.version() == prev.disambiguator.version()
            && Arc::ptr_eq(&topics, &prev.topics)
        {
            return prev.epoch;
        }
        let view = if wm == prev.view.watermark() {
            // Only topics/resolver moved; keep the graph layers as-is.
            prev.view.clone()
        } else {
            prev.view.with_overlay(prev.view.capture_delta(&kg.graph))
        };
        let disambiguator = if resolver.version() == prev.disambiguator.version() {
            prev.disambiguator.clone()
        } else {
            m.resolver_copied
                .add(resolver.copied_since(&prev.disambiguator) as u64);
            Arc::new(resolver.clone())
        };
        drop(kg);
        let epoch = prev.epoch + 1;
        let snap = Arc::new(FrozenSnapshot {
            epoch,
            view,
            topics,
            disambiguator,
            published_at_nanos: m.registry.now_nanos(),
        });
        m.set_snapshot(&snap);
        *slot = snap.clone();
        drop(slot);
        m.snapshot_publish
            .observe(m.registry.now_nanos().saturating_sub(t0));
        m.snapshot_published.inc();
        if self.0.compaction.lock().due(&snap.view) {
            if let Some(compactor) = self.0.compactor.get() {
                compactor.unpark();
            }
        }
        epoch
    }

    /// Fold the published overlay stack into a fresh single-layer base
    /// right now, on the calling thread, first waiting for any fold
    /// already running. Returns `true` once the stack read at the call
    /// is folded into the serving snapshot, and `false` when an injected
    /// `session.compact` fault aborted the fold (the existing layer stack
    /// keeps serving, nothing is lost). Takes no graph lock: writers and
    /// readers proceed throughout.
    pub fn compact_now(&self) -> bool {
        let _fold = self.0.fold.lock();
        let from = self.0.snapshot.lock().clone();
        self.run_compaction(&from)
    }

    /// Fold `from`'s layers into one base and install it under whatever
    /// was published on top of `from` in the meantime
    /// ([`LayeredSnapshot::rebase`]). The caller holds the fold lock, so
    /// `from` is still a prefix of the published stack. The fold reads
    /// only the immutable layers — no graph lock, so ingestion never
    /// waits on it; the slot mutex is held just for the install. Returns
    /// `false` when an injected `session.compact` fault aborted it.
    fn run_compaction(&self, from: &FrozenSnapshot) -> bool {
        let m = &self.0.metrics;
        let t0 = m.registry.now_nanos();
        {
            let faults = self.0.faults.lock();
            if faults.hit(FP_SESSION_COMPACT) {
                // Flight-recorder black box: a failed compaction is one of
                // the "what just happened" moments the dump hook captures.
                // Counted after it, so a panicking hook counts once.
                faults.blackbox("compaction-failed");
                m.compactions_failed.inc();
                return false;
            }
        }
        if from.view.is_compacted() {
            return true;
        }
        let folded = Arc::new(nous_graph::FrozenView::from_layers(&from.view));
        let mut slot = self.0.snapshot.lock();
        let snap = Arc::new(FrozenSnapshot {
            epoch: slot.epoch + 1,
            view: slot.view.rebase(&from.view, folded),
            topics: slot.topics.clone(),
            disambiguator: slot.disambiguator.clone(),
            published_at_nanos: m.registry.now_nanos(),
        });
        m.set_snapshot(&snap);
        // The replaced stack may die here (no reader pinning it): free its
        // base — O(graph) — only after the slot is unlocked, or the next
        // publish waits on the lock for as long as that takes.
        let replaced = std::mem::replace(&mut *slot, snap);
        drop(slot);
        drop(replaced);
        m.compaction_seconds
            .observe(m.registry.now_nanos().saturating_sub(t0));
        m.compactions.inc();
        true
    }

    /// The lock-free read path: clone the currently published snapshot.
    /// Costs one short mutex acquisition and an `Arc` clone; the returned
    /// snapshot is immutable and valid indefinitely (holding it pins its
    /// epoch, it never blocks ingestion). Records the snapshot's age on
    /// the `nous_snapshot_age_nanos` gauge.
    pub fn frozen(&self) -> Arc<FrozenSnapshot> {
        let snap = self.0.snapshot.lock().clone();
        let m = &self.0.metrics;
        let age = m
            .registry
            .now_nanos()
            .saturating_sub(snap.published_at_nanos);
        m.snapshot_age.set(age as i64);
        snap
    }

    /// The registry this session's accounting lands in.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.0.metrics.registry
    }

    /// Deterministic JSON snapshot of every metric the session's registry
    /// holds — the live "/stats" endpoint of the demo service. Callers
    /// wanting Prometheus exposition instead use
    /// `session.metrics().render_prometheus()`.
    pub fn stats_snapshot(&self) -> String {
        self.0.metrics.registry.snapshot_json()
    }

    /// Run a read-only operation against the graph (concurrent with other
    /// readers).
    pub fn read<T>(&self, f: impl FnOnce(&KnowledgeGraph, &TopicIndex) -> T) -> T {
        let m = &self.0.metrics;
        let lock = || (self.0.kg.read(), self.0.topics.read());
        let (out, held) = m.timed((&m.wait_read, &m.hold_read), lock, |(kg, t)| f(&kg, &t));
        m.hold_last_read.set(held as i64);
        out
    }

    /// Run a mutating operation (ingestion, retraining) with exclusive
    /// access.
    pub fn write<T>(&self, f: impl FnOnce(&mut KnowledgeGraph) -> T) -> T {
        let out = self.write_graph(f);
        self.publish_snapshot();
        out
    }

    /// The graph alone under the read lock, with the `read` lock metrics.
    fn read_graph<T>(&self, f: impl FnOnce(&KnowledgeGraph) -> T) -> T {
        let m = &self.0.metrics;
        let lock = || self.0.kg.read();
        let (out, held) = m.timed((&m.wait_read, &m.hold_read), lock, |kg| f(&kg));
        m.hold_last_read.set(held as i64);
        out
    }

    /// The graph under the write lock, with the `write` lock metrics; the
    /// lock is released before this returns and nothing is published.
    fn write_graph<T>(&self, f: impl FnOnce(&mut KnowledgeGraph) -> T) -> T {
        let m = &self.0.metrics;
        let lock = || self.0.kg.write();
        let (out, held) = m.timed((&m.wait_write, &m.hold_write), lock, |mut kg| f(&mut kg));
        m.hold_last_write.set(held as i64);
        out
    }

    /// Replace the topic index (after an LDA refresh).
    pub fn set_topics(&self, topics: TopicIndex) {
        *self.0.topics.write() = Arc::new(topics);
        self.publish_snapshot();
    }

    /// Run an on-demand checkpoint (or any other whole-graph read, e.g.
    /// a snapshot export) against a consistent view of the graph: the
    /// read lock is held for the duration of `f`, so writers wait but
    /// concurrent readers proceed. Typical use:
    /// `session.checkpoint_with(|kg| store.checkpoint(kg, &report))`.
    pub fn checkpoint_with<T>(&self, f: impl FnOnce(&KnowledgeGraph) -> T) -> T {
        self.read(|kg, _| f(kg))
    }

    /// Run an operation needing the trend monitor (serialised: the miner's
    /// closed-pattern queries mutate cached state).
    pub fn with_trends<T>(&self, f: impl FnOnce(&mut TrendMonitor, &KnowledgeGraph) -> T) -> T {
        let m = &self.0.metrics;
        let lock = || (self.0.kg.read(), self.0.trends.lock());
        let ((out, log_len), _) = m.timed((&m.wait_trends, &m.hold_trends), lock, |(kg, mut t)| {
            (f(&mut t, &kg), kg.graph.log_len())
        });
        // The closure may have advanced the miner window; republish so the
        // frozen trending path sees the new miner state — but only when the
        // snapshot is actually behind the graph (cheap no-op check).
        if self.0.snapshot.lock().view.source_log_len() != log_len {
            self.publish_snapshot();
        }
        out
    }

    /// Run an operation needing only the trend monitor — no graph lock at
    /// all. This is the mutable sliver of the lock-free query path: the
    /// miner's closed-pattern queries mutate cached state, so `Trending`
    /// over a frozen snapshot still serialises here (and only here).
    pub fn with_trends_only<T>(&self, f: impl FnOnce(&mut TrendMonitor) -> T) -> T {
        let m = &self.0.metrics;
        let lock = || self.0.trends.lock();
        m.timed((&m.wait_trends, &m.hold_trends), lock, |mut t| f(&mut t))
            .0
    }

    /// Run an operation against the full session state — graph, topics and
    /// trend monitor — under one consistent acquisition (kg → topics →
    /// trends, the same order every other accessor uses): every read in
    /// `f` sees one coherent state of the session.
    pub fn with_all<T>(
        &self,
        f: impl FnOnce(&KnowledgeGraph, &TopicIndex, &mut TrendMonitor) -> T,
    ) -> T {
        let m = &self.0.metrics;
        let lock = || (self.0.kg.read(), self.0.topics.read(), self.0.trends.lock());
        m.timed((&m.wait_all, &m.hold_all), lock, |(kg, topics, mut t)| {
            f(&kg, &topics, &mut t)
        })
        .0
    }

    /// Micro-batched ingestion against the live session, through the
    /// pipeline's one batch step: the extraction half runs under the
    /// **read** lock (analysts keep querying while documents are parsed —
    /// extraction is the wall-clock hog and never touches mutable state),
    /// the merge half takes the write lock once per micro-batch, and each
    /// batch publishes a snapshot epoch after the write lock is released.
    /// The gazetteer snapshot a batch extracts against is the one visible
    /// at its read-lock acquisition — the same staleness contract as
    /// [`IngestPipeline::ingest_batch`].
    pub fn ingest_batch(
        &self,
        pipeline: &mut IngestPipeline,
        articles: &[Article],
    ) -> IngestReport {
        pipeline.run_batches(self, articles)
    }
}

impl BatchGraph for &SharedSession {
    fn trace_registry(&self) -> Option<&MetricsRegistry> {
        Some(&self.0.metrics.registry)
    }

    fn read<T>(&mut self, f: impl FnOnce(&KnowledgeGraph) -> T) -> T {
        self.read_graph(f)
    }

    fn write<T>(&mut self, f: impl FnOnce(&mut KnowledgeGraph) -> T) -> T {
        self.write_graph(f)
    }

    /// Publish once per micro-batch: snapshot staleness for the lock-free
    /// read path is bounded by one batch of documents, and the publish is
    /// O(this batch), not O(graph).
    fn publish(&mut self, ctx: &TraceContext) {
        let mut publish_span = ctx.child("publish");
        let epoch = self.publish_snapshot();
        publish_span.attr("epoch", epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nous_graph::window::WindowKind;
    use nous_mining::{EvictionStrategy, MinerConfig};
    use nous_text::ner::EntityType;

    fn session() -> SharedSession {
        let kg = KnowledgeGraph::new();
        let topics = TopicIndex::new(2);
        let trends = TrendMonitor::new(
            WindowKind::Count { n: 100 },
            MinerConfig {
                k_max: 1,
                min_support: 2,
                eviction: EvictionStrategy::Eager,
            },
        );
        SharedSession::new(kg, topics, trends)
    }

    #[test]
    fn read_write_roundtrip() {
        let s = session();
        s.write(|kg| {
            let a = kg.create_entity("A Corp", EntityType::Organization);
            let b = kg.create_entity("B Corp", EntityType::Organization);
            kg.add_extracted_fact(a, "acquired", b, 1, 0.9, 0);
        });
        let (vertices, edges) = s.read(|kg, _| (kg.graph.vertex_count(), kg.graph.edge_count()));
        assert_eq!((vertices, edges), (2, 1));
    }

    #[test]
    fn concurrent_readers_during_writes() {
        let s = session();
        // Seed one entity so readers always have something to look at.
        s.write(|kg| {
            kg.create_entity("Seed Corp", EntityType::Organization);
        });
        let writer = {
            let s = s.clone();
            std::thread::spawn(move || {
                for i in 0..200 {
                    s.write(|kg| {
                        let a = kg.create_entity(&format!("W{i}a"), EntityType::Organization);
                        let b = kg.create_entity(&format!("W{i}b"), EntityType::Organization);
                        kg.add_extracted_fact(a, "partneredWith", b, i, 0.9, i);
                    });
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    let mut observations = 0usize;
                    for _ in 0..200 {
                        let ok = s.read(|kg, _| {
                            // Invariant under concurrency: edge count never
                            // exceeds what the vertex count allows, and the
                            // seed entity is always resolvable.
                            kg.graph.vertex_id("Seed Corp").is_some()
                                && kg.graph.edge_count() * 2 <= kg.graph.vertex_count() * 2
                        });
                        assert!(ok);
                        observations += 1;
                    }
                    observations
                })
            })
            .collect();
        writer.join().expect("writer");
        for r in readers {
            assert_eq!(r.join().expect("reader"), 200);
        }
        assert_eq!(s.read(|kg, _| kg.graph.edge_count()), 200);
    }

    #[test]
    fn concurrent_read_during_ingest_populates_lock_metrics() {
        use crate::pipeline::PipelineConfig;
        use nous_corpus::{ArticleStream, CuratedKb, Preset, World};

        let world = World::generate(&Preset::Smoke.world_config());
        let kb = CuratedKb::generate(&world, 7);
        let mut kg = KnowledgeGraph::from_curated(&world, &kb);
        kg.train_predictor();
        let articles = ArticleStream::generate(&world, &kb, &Preset::Smoke.stream_config());
        let seed = world.entities[world.companies[0]].name.clone();

        // One registry shared by the session and the pipeline: lock
        // telemetry and ingest counters land on the same /stats surface.
        let registry = MetricsRegistry::new();
        let s = SharedSession::with_registry(
            kg,
            TopicIndex::new(2),
            TrendMonitor::new(
                WindowKind::Count { n: 100 },
                MinerConfig {
                    k_max: 1,
                    min_support: 2,
                    eviction: EvictionStrategy::Eager,
                },
            ),
            registry.clone(),
        );
        let reader = {
            let s = s.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    assert!(s.read(|kg, _| kg.graph.vertex_id(&seed).is_some()));
                }
            })
        };
        let cfg = PipelineConfig {
            batch_size: 8,
            extract_workers: 2,
            ..Default::default()
        };
        let mut pipe = IngestPipeline::with_registry(cfg, registry.clone());
        let report = s.ingest_batch(&mut pipe, &articles);
        reader.join().expect("reader");
        assert_eq!(report.documents, articles.len());
        assert!(report.admitted > 0);
        // KG stayed consistent under the concurrent readers.
        assert_eq!(
            s.read(|kg, _| kg.graph.stats().extracted_edges),
            report.admitted
        );
        // Lock wait/hold histograms saw both the readers and the writer.
        let hold = |l: &str| {
            registry.latency_with(
                "nous_session_lock_hold_seconds",
                "Time a session lock was held by one operation",
                &[("lock", l)],
            )
        };
        assert!(hold("read").count() > 50, "reader + extraction holds");
        assert!(hold("write").count() > 0, "merge holds");
        // Last-hold gauges populated (hold times can legitimately be 0ns
        // on coarse clocks, so existence + non-negativity is the contract).
        let last_write = registry
            .gauge_value("nous_session_lock_hold_last_nanos", &[("lock", "write")])
            .expect("write hold gauge registered");
        assert!(last_write >= 0);
        // Ingest counters landed in the same registry.
        assert_eq!(
            registry.counter_value("nous_ingest_documents_total", &[]),
            Some(report.documents as u64)
        );
        // The session-driven fan-out credited worker slots.
        assert!(!registry
            .counter_family("nous_ingest_worker_docs_total")
            .is_empty());
        // And the snapshot renders the whole surface.
        let snap = s.stats_snapshot();
        assert!(snap.contains("nous_session_lock_hold_seconds"), "{snap}");
        assert!(snap.contains("nous_ingest_admitted_total"), "{snap}");
    }

    #[test]
    fn trend_monitor_observes_under_lock() {
        let s = session();
        s.write(|kg| {
            for i in 0..3 {
                let a = kg.create_entity(&format!("X{i}"), EntityType::Organization);
                let b = kg.create_entity(&format!("Y{i}"), EntityType::Organization);
                kg.add_extracted_fact(a, "acquired", b, i, 0.9, i);
            }
        });
        let n = s.with_trends(|tm, kg| {
            tm.observe(kg);
            tm.trending(kg).len()
        });
        assert!(n >= 1, "acquired pattern at support 3");
        // The write above already published, so the frozen view is current.
        let snap = s.frozen();
        assert_eq!(nous_graph::GraphView::live_edge_count(&snap.view), 3);
    }

    /// A session that never compacts on its own, with `n` overlays
    /// stacked on its base.
    fn stacked(n: usize) -> SharedSession {
        let s = session();
        s.set_compaction_config(CompactionConfig {
            max_layers: usize::MAX,
            min_delta_edges: usize::MAX,
            ..Default::default()
        });
        for i in 0..n {
            s.write(|kg| {
                let a = kg.create_entity(&format!("S{i}a"), EntityType::Organization);
                let b = kg.create_entity(&format!("S{i}b"), EntityType::Organization);
                kg.add_extracted_fact(a, "acquired", b, i as u64, 0.9, i as u64);
            });
        }
        assert_eq!(s.frozen().view.layer_count(), n);
        s
    }

    #[test]
    fn compaction_completes_while_a_writer_holds_the_graph() {
        use std::time::Duration;

        let s = stacked(3);
        let writer = s.0.kg.write();
        let (tx, rx) = std::sync::mpsc::channel();
        let compactor = {
            let s = s.clone();
            std::thread::spawn(move || tx.send(s.compact_now()).unwrap())
        };
        // A fold that needed the graph lock would block here until the
        // writer lets go, which it only does after the timeout.
        let folded = rx.recv_timeout(Duration::from_secs(60));
        drop(writer);
        compactor.join().unwrap();
        assert_eq!(folded, Ok(true), "compaction waited on the graph lock");
        let snap = s.frozen();
        assert!(snap.view.is_compacted());
        assert_eq!(nous_graph::GraphView::live_edge_count(&snap.view), 3);
    }

    #[test]
    fn compact_now_waits_for_the_fold_in_flight() {
        use std::time::Duration;

        let s = stacked(3);
        let fold = s.0.fold.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        let compactor = {
            let s = s.clone();
            std::thread::spawn(move || tx.send(s.compact_now()).unwrap())
        };
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "compact_now ran beside a fold in flight"
        );
        assert_eq!(s.frozen().view.layer_count(), 3);
        drop(fold);
        assert_eq!(rx.recv_timeout(Duration::from_secs(60)), Ok(true));
        compactor.join().unwrap();
        assert!(s.frozen().view.is_compacted());
    }

    /// A fold that panics on the compactor thread is counted and
    /// reported, the stack it read keeps serving, and the thread lives on
    /// to install the next threshold-triggered fold.
    #[cfg(feature = "fault-injection")]
    #[test]
    fn a_fold_that_panics_is_counted_and_the_compactor_lives_on() {
        use nous_fault::{FaultPlan, SitePlan};
        use nous_graph::GraphView;
        use std::time::{Duration, Instant};

        let s = session();
        s.set_compaction_config(CompactionConfig {
            max_layers: 2,
            min_delta_edges: usize::MAX,
            ..Default::default()
        });
        let reasons = Arc::new(Mutex::new(Vec::new()));
        let hook = {
            let reasons = reasons.clone();
            move |reason: &str| {
                reasons.lock().push(reason.to_string());
                if reason == "compaction-failed" {
                    panic!("black-box hook panics inside the fold");
                }
            }
        };
        // Ordinal 0: the compactor's first fold hits the fault, whose
        // black-box hook panics.
        s.set_faults(
            FaultPlan::from_seed(1)
                .site(FP_SESSION_COMPACT, SitePlan::schedule(vec![0]))
                .arm()
                .with_blackbox(Arc::new(hook)),
        );
        let counter = |name: &str| s.metrics().counter_value(name, &[]).unwrap_or(0);
        let wait_for = |name: &str, want: u64| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while counter(name) != want {
                assert!(Instant::now() < deadline, "{name} never reached {want}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let add_fact = |i: u64| {
            s.write(|kg| {
                let a = kg.create_entity(&format!("P{i}a"), EntityType::Organization);
                let b = kg.create_entity(&format!("P{i}b"), EntityType::Organization);
                kg.add_extracted_fact(a, "acquired", b, i, 0.9, i);
            })
        };

        // The second overlay crosses `max_layers` and wakes the compactor.
        add_fact(0);
        add_fact(1);
        wait_for("nous_compactions_failed_total", 1);
        assert_eq!(counter("nous_compactions_total"), 0);
        assert_eq!(
            *reasons.lock(),
            ["compaction-failed", "compaction-panicked"]
        );
        let snap = s.frozen();
        assert_eq!(snap.view.layer_count(), 2, "the old stack keeps serving");
        assert_eq!(snap.view.live_edge_count(), 2);
        assert!(snap.view.vertex_id("P1b").is_some());

        // The next publish past the threshold folds and installs.
        add_fact(2);
        wait_for("nous_compactions_total", 1);
        assert_eq!(counter("nous_compactions_failed_total"), 1);
        let snap = s.frozen();
        assert!(snap.view.is_compacted());
        assert_eq!(snap.view.live_edge_count(), 3);
    }

    #[test]
    fn compaction_keeps_overlays_published_while_it_folded() {
        use nous_graph::{FrozenView, GraphView};

        let s = stacked(2);
        let from = s.frozen();
        s.write(|kg| {
            let a = kg.create_entity("Late Corp", EntityType::Organization);
            let b = kg.graph.vertex_id("S0a").unwrap();
            kg.add_extracted_fact(a, "acquired", b, 9, 0.9, 9);
        });
        // The fold of `from` lands under the overlay published since.
        assert!(s.run_compaction(&from));
        let snap = s.frozen();
        assert_eq!(snap.view.layer_count(), 1);
        assert_eq!(snap.view.live_edge_count(), 3);
        assert_eq!(snap.view.base(), &FrozenView::from_layers(&from.view));
        let registry = s.metrics();
        assert_eq!(
            registry.counter_value("nous_compactions_total", &[]),
            Some(1)
        );
    }

    #[test]
    fn publish_without_a_mint_copies_only_popularity() {
        let s = stacked(1);
        let copied = |s: &SharedSession| {
            s.metrics()
                .counter_value("nous_resolver_copied_elements_total", &[])
                .unwrap()
        };
        let before = copied(&s);
        let entities = s.write(|kg| {
            let (a, b) = (
                kg.graph.vertex_id("S0a").unwrap(),
                kg.graph.vertex_id("S0b").unwrap(),
            );
            kg.add_extracted_fact(b, "acquired", a, 5, 0.9, 5);
            kg.disambiguator.len()
        });
        assert_eq!(copied(&s) - before, entities as u64);
        // A mint copies the tables once more: records and alias keys.
        let before = copied(&s);
        s.write(|kg| kg.create_entity("Fresh Corp", EntityType::Organization));
        assert!(copied(&s) - before > 2 * (entities as u64 + 1));
    }

    #[test]
    fn snapshots_publish_epochs_and_stay_immutable() {
        use nous_graph::GraphView;

        let s = session();
        let snap0 = s.frozen();
        assert_eq!(snap0.epoch, 0);
        assert_eq!(snap0.view.vertex_count(), 0);

        s.write(|kg| {
            let a = kg.create_entity("Acme Corp", EntityType::Organization);
            let b = kg.create_entity("Beta Labs", EntityType::Organization);
            kg.add_extracted_fact(a, "acquired", b, 5, 0.9, 0);
        });
        let snap1 = s.frozen();
        assert!(snap1.epoch >= 1, "write must publish a new epoch");
        assert_eq!(snap1.view.vertex_count(), 2);
        assert_eq!(snap1.view.live_edge_count(), 1);
        assert!(snap1.view.vertex_id("Acme Corp").is_some());
        assert!(!snap1.disambiguator.candidates("Acme Corp").is_empty());

        // The old Arc is pinned: later ingestion left it untouched.
        assert_eq!(snap0.view.vertex_count(), 0);
        assert_eq!(snap0.view.live_edge_count(), 0);

        // Metrics surfaced the publish.
        let registry = s.metrics();
        assert!(registry.gauge_value("nous_snapshot_epoch", &[]).unwrap() >= 1);
        assert!(
            registry
                .counter_value("nous_snapshot_published_total", &[])
                .unwrap()
                >= 1
        );
        // frozen() records staleness on the age gauge.
        assert!(
            registry
                .gauge_value("nous_snapshot_age_nanos", &[])
                .unwrap()
                >= 0
        );
    }
}
