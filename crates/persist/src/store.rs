//! Durable store: checkpoint files + a rotating WAL per generation.
//!
//! On-disk layout inside the store directory:
//!
//! ```text
//! checkpoint-00000000.bin   full KnowledgeGraph state at generation 0
//! wal-00000000.log          documents merged after checkpoint 0
//! checkpoint-00000001.bin   ...
//! wal-00000001.log
//! ```
//!
//! Recovery loads the newest checkpoint that validates, scans its WAL,
//! truncates the WAL at the first torn record, and replays the surviving
//! document records onto the restored graph. Replay reproduces vertex and
//! edge ids exactly because `DynamicGraph` assigns dense ids in creation
//! order and records carry mints and admits in their original order.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use std::sync::atomic::AtomicBool;

use nous_core::journal::AdmittedFact;
use nous_core::{IngestJournal, IngestReport, KnowledgeGraph};
use nous_fault::Faults;
use nous_graph::codec::{self, Reader};
use nous_obs::{Counter, Gauge, MetricsRegistry};
use nous_text::ner::EntityType;

use crate::record::{put_report, read_report, DocRecord};
use crate::wal::{self, FsyncPolicy, Wal};

/// Magic prefix of a checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"NOUSCKPT";
/// Checkpoint file format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Failpoint consulted before writing a checkpoint's temp file.
pub const FP_CHECKPOINT_WRITE: &str = "checkpoint.write";

/// Bounded retry-with-backoff for WAL appends and checkpoint writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure (`0` = single attempt).
    pub max_retries: u32,
    /// Base backoff before retry `i`: `backoff_ms << i` milliseconds.
    /// `0` retries immediately (what the deterministic chaos tests use).
    pub backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_ms: 1,
        }
    }
}

impl RetryPolicy {
    fn sleep_before(&self, attempt: u32) {
        if self.backoff_ms > 0 {
            let ms = self.backoff_ms.saturating_shl(attempt.min(16));
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }
}

trait SaturatingShl {
    fn saturating_shl(self, by: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, by: u32) -> u64 {
        self.checked_shl(by).unwrap_or(u64::MAX)
    }
}

/// Whether the store is currently writing through to the WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedMode {
    /// Appends (with retries) are succeeding; acked facts are durable.
    Durable,
    /// WAL writes are failing persistently. Ingestion continues in
    /// memory only; records merged in this mode are NOT durable and
    /// will be missing after a crash. Each new record probes the WAL
    /// once and the store re-arms itself as soon as a probe succeeds.
    MemoryOnly,
}

/// Tuning knobs for the durable store.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// When WAL appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Take a checkpoint once this many facts were admitted since the last
    /// one. `0` disables automatic checkpoints (on-demand only).
    pub checkpoint_every_facts: u64,
    /// How many old checkpoint/WAL generations to keep besides the newest.
    pub keep_generations: usize,
    /// Retry budget for WAL appends and checkpoint writes before the
    /// store degrades (appends) or surfaces the error (checkpoints).
    pub retry: RetryPolicy,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            fsync: FsyncPolicy::EveryN(32),
            checkpoint_every_facts: 1_000,
            keep_generations: 2,
            retry: RetryPolicy::default(),
        }
    }
}

/// Outcome of [`DurableStore::open`] — the recovery report.
pub struct Recovered {
    /// The graph after checkpoint restore + WAL replay.
    pub kg: KnowledgeGraph,
    /// Cumulative ingest report matching `kg` (checkpoint + replayed deltas).
    pub report: IngestReport,
    /// Generation of the checkpoint that was restored.
    pub generation: u64,
    /// Documents replayed from the WAL tail(s).
    pub replayed_docs: u64,
    /// Facts replayed from the WAL tail(s).
    pub replayed_facts: u64,
    /// Torn bytes discarded from the WAL tail(s).
    pub truncated_bytes: u64,
    /// Later-generation WALs replayed past a corrupt/missing checkpoint
    /// (0 when the newest checkpoint validated).
    pub chained_generations: u64,
    /// Generation of the WAL whose tail was torn, if any.
    pub torn_generation: Option<u64>,
    /// File offset of the first torn frame within that WAL — everything
    /// before this offset replayed, everything after was discarded.
    pub torn_offset: Option<u64>,
}

#[derive(Clone)]
struct StoreMetrics {
    wal_appends: Counter,
    wal_bytes: Counter,
    wal_fsyncs: Counter,
    wal_errors: Counter,
    wal_retries: Counter,
    wal_degraded: Gauge,
    wal_dropped_records: Counter,
    wal_rearmed: Counter,
    wal_torn_frames: Gauge,
    checkpoints: Counter,
    checkpoint_errors: Counter,
    checkpoint_seconds: nous_obs::Histogram,
    recovery_replayed: Counter,
    recovery_truncated_bytes: Counter,
    recovery_truncated_bytes_gauge: Gauge,
    recovery_chained_generations: Counter,
    recovery_decode_seconds: nous_obs::Histogram,
    recovery_replay_seconds: nous_obs::Histogram,
}

impl StoreMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        Self {
            wal_appends: registry.counter(
                "nous_wal_appends_total",
                "Document records appended to the write-ahead log",
            ),
            wal_bytes: registry.counter(
                "nous_wal_bytes_total",
                "Bytes written to the write-ahead log (including framing)",
            ),
            wal_fsyncs: registry.counter(
                "nous_wal_fsyncs_total",
                "fsync calls issued by the write-ahead log",
            ),
            wal_errors: registry.counter(
                "nous_wal_errors_total",
                "WAL append failures (records dropped from durability)",
            ),
            wal_retries: registry.counter(
                "nous_wal_retries_total",
                "WAL append retries after a transient failure",
            ),
            wal_degraded: registry.gauge(
                "nous_wal_degraded",
                "1 while the store is in DegradedMode::MemoryOnly (WAL writes failing), 0 when durable",
            ),
            wal_dropped_records: registry.counter(
                "nous_wal_dropped_records_total",
                "Document records merged while degraded and therefore never persisted",
            ),
            wal_rearmed: registry.counter(
                "nous_wal_rearmed_total",
                "Times the store left MemoryOnly mode after a WAL probe succeeded",
            ),
            wal_torn_frames: registry.gauge(
                "nous_wal_torn_frames",
                "Torn WAL frames discarded by the most recent recovery",
            ),
            checkpoints: registry.counter(
                "nous_checkpoints_total",
                "Checkpoints written by the durable store",
            ),
            checkpoint_errors: registry.counter(
                "nous_checkpoint_errors_total",
                "Checkpoint writes that failed after exhausting retries",
            ),
            checkpoint_seconds: registry.latency(
                "nous_checkpoint_seconds",
                "Wall time spent serializing and writing a checkpoint",
            ),
            recovery_replayed: registry.counter(
                "nous_recovery_replayed_total",
                "Facts replayed from the WAL during crash recovery",
            ),
            recovery_truncated_bytes: registry.counter(
                "nous_recovery_truncated_bytes_total",
                "Torn WAL bytes discarded during crash recovery",
            ),
            recovery_truncated_bytes_gauge: registry.gauge(
                "nous_recovery_truncated_bytes",
                "Torn WAL bytes discarded by the most recent recovery",
            ),
            recovery_chained_generations: registry.counter(
                "nous_recovery_chained_generations_total",
                "Later-generation WALs replayed past a corrupt checkpoint during recovery",
            ),
            recovery_decode_seconds: registry.latency(
                "nous_recovery_decode_seconds",
                "Wall time recovery spent reading and decoding checkpoint files, predictor refit included",
            ),
            recovery_replay_seconds: registry.latency(
                "nous_recovery_replay_seconds",
                "Wall time recovery spent scanning, repairing and replaying WALs",
            ),
        }
    }
}

/// WAL + checkpoint manager for one store directory.
pub struct DurableStore {
    dir: PathBuf,
    cfg: DurabilityConfig,
    registry: MetricsRegistry,
    generation: u64,
    wal: Arc<Mutex<Wal>>,
    admitted_since_checkpoint: Arc<AtomicU64>,
    degraded: Arc<AtomicBool>,
    faults: Faults,
    metrics: StoreMetrics,
}

/// Called with each document record the WAL acked (append — and, per
/// policy, fsync — returned `Ok`). The recovery contract promises these
/// records survive a process crash.
pub type AckHook = Arc<dyn Fn(&DocRecord) + Send + Sync>;

fn checkpoint_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("checkpoint-{generation:08}.bin"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation:08}.log"))
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn encode_checkpoint_file(generation: u64, kg: &KnowledgeGraph, report: &IngestReport) -> Vec<u8> {
    // One buffer for the whole file: the nested sections (state bytes,
    // graph blob) are written in place and their length prefixes and
    // checksums patched, never copied from buffers of their own.
    let mut file = Vec::with_capacity(kg.checkpoint_size_hint());
    codec::put_checksummed(&mut file, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, |body| {
        codec::put_u64(body, generation);
        put_report(body, report);
        codec::put_bytes_with(body, |state| kg.encode_checkpoint_into(state));
    });
    file
}

fn decode_checkpoint_file(bytes: &[u8]) -> io::Result<(u64, IngestReport, KnowledgeGraph)> {
    if bytes.len() < 20 || &bytes[..8] != CHECKPOINT_MAGIC {
        return Err(invalid("bad checkpoint magic".into()));
    }
    let mut r = Reader::new(&bytes[8..]);
    let version = r.u32().map_err(|e| invalid(e.to_string()))?;
    if version != CHECKPOINT_VERSION {
        return Err(invalid(format!("unsupported checkpoint version {version}")));
    }
    let sum = r.u64().map_err(|e| invalid(e.to_string()))?;
    let body = &bytes[20..];
    if codec::fnv1a64(body) != sum {
        return Err(invalid("checkpoint checksum mismatch".into()));
    }
    let mut r = Reader::new(body);
    let generation = r.u64().map_err(|e| invalid(e.to_string()))?;
    let report = read_report(&mut r).map_err(|e| invalid(e.to_string()))?;
    let kg_bytes = r.bytes().map_err(|e| invalid(e.to_string()))?;
    let kg = KnowledgeGraph::decode_checkpoint(kg_bytes).map_err(|e| invalid(e.to_string()))?;
    if !r.is_empty() {
        return Err(invalid("trailing bytes in checkpoint file".into()));
    }
    Ok((generation, report, kg))
}

/// Write `bytes` to `path` atomically: tmp file in the same directory,
/// fsync, rename over the target. The failpoint fires after part of the
/// tmp file is written — the rename never happens, so the target is
/// untouched and a retry starts from a truncating create.
fn write_atomic(path: &Path, bytes: &[u8], faults: &Faults) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        if faults.hit(FP_CHECKPOINT_WRITE) {
            let _ = f.write_all(&bytes[..bytes.len() / 2]);
            return Err(nous_fault::injected_io_error(FP_CHECKPOINT_WRITE));
        }
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)
}

/// Run `op` under a bounded retry-with-backoff budget, counting each
/// retry in `retries`.
fn with_retries<T>(
    policy: RetryPolicy,
    retries: &Counter,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                if attempt >= policy.max_retries {
                    return Err(e);
                }
                policy.sleep_before(attempt);
                attempt += 1;
                retries.inc();
            }
        }
    }
}

/// Whether `name` is a per-shard WAL lane (`wal-<gen>-s<k>.log`): a log
/// this store never writes and cannot replay.
fn is_lane_wal(name: &str) -> bool {
    name.strip_prefix("wal-")
        .and_then(|rest| rest.strip_suffix(".log"))
        .and_then(|rest| rest.split_once("-s"))
        .is_some_and(|(g, k)| g.parse::<u64>().is_ok() && k.parse::<u64>().is_ok())
}

/// Checkpoint generations in `dir`, oldest first. A lane WAL in the same
/// directory is refused with `InvalidData`: this store replays only
/// `wal-<gen>.log`, so opening past a lane would drop its acked records.
fn list_generations(dir: &Path) -> io::Result<Vec<u64>> {
    let mut gens = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(num) = name
            .strip_prefix("checkpoint-")
            .and_then(|rest| rest.strip_suffix(".bin"))
        {
            if let Ok(g) = num.parse::<u64>() {
                gens.push(g);
            }
        } else if is_lane_wal(&name) {
            return Err(invalid(format!(
                "{} is a per-shard WAL lane; this store cannot replay it",
                dir.join(&*name).display()
            )));
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

impl DurableStore {
    /// Initialize a fresh store: write a generation-0 baseline checkpoint of
    /// `kg` and start an empty WAL. Existing files in `dir` with the same
    /// generation numbers are overwritten.
    pub fn create(
        dir: &Path,
        cfg: DurabilityConfig,
        kg: &KnowledgeGraph,
        report: &IngestReport,
        registry: &MetricsRegistry,
    ) -> io::Result<Self> {
        Self::create_with_faults(dir, cfg, kg, report, registry, Faults::disabled())
    }

    /// [`DurableStore::create`] with an armed failpoint handle: WAL
    /// appends/fsyncs and checkpoint writes consult it (chaos testing).
    pub fn create_with_faults(
        dir: &Path,
        cfg: DurabilityConfig,
        kg: &KnowledgeGraph,
        report: &IngestReport,
        registry: &MetricsRegistry,
        faults: Faults,
    ) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let metrics = StoreMetrics::new(registry);
        let span = registry.start(&metrics.checkpoint_seconds);
        // The baseline checkpoint is written before any faults should
        // matter — a store that cannot write generation 0 is unusable,
        // so this write is not failpoint-retried.
        write_atomic(
            &checkpoint_path(dir, 0),
            &encode_checkpoint_file(0, kg, report),
            &Faults::disabled(),
        )?;
        span.stop();
        metrics.checkpoints.inc();
        metrics.wal_degraded.set(0);
        let wal = Wal::create_with_faults(&wal_path(dir, 0), cfg.fsync, faults.clone())?;
        Ok(Self {
            dir: dir.to_owned(),
            cfg,
            registry: registry.clone(),
            generation: 0,
            wal: Arc::new(Mutex::new(wal)),
            admitted_since_checkpoint: Arc::new(AtomicU64::new(0)),
            degraded: Arc::new(AtomicBool::new(false)),
            faults,
            metrics,
        })
    }

    /// Recover from `dir`: restore the newest valid checkpoint, repair its
    /// WAL (truncating torn bytes), replay the surviving records, and return
    /// the store positioned to continue appending where the crash happened.
    /// The recovered predictor is the live one: the checkpoint's decode
    /// refits it on exactly what the live fit trained on, and replay,
    /// like live ingest, never retrains it.
    pub fn open(
        dir: &Path,
        cfg: DurabilityConfig,
        registry: &MetricsRegistry,
    ) -> io::Result<(Self, Recovered)> {
        Self::open_with_faults(dir, cfg, registry, Faults::disabled())
    }

    /// [`DurableStore::open`] with an armed failpoint handle for the
    /// store that continues after recovery (recovery itself reads with
    /// faults disabled).
    pub fn open_with_faults(
        dir: &Path,
        cfg: DurabilityConfig,
        registry: &MetricsRegistry,
        faults: Faults,
    ) -> io::Result<(Self, Recovered)> {
        let metrics = StoreMetrics::new(registry);
        let mut gens = list_generations(dir)?;
        gens.reverse();
        if gens.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no checkpoint files in {}", dir.display()),
            ));
        }
        let span = registry.start(&metrics.recovery_decode_seconds);
        let mut restored = None;
        for g in &gens {
            let mut bytes = Vec::new();
            match File::open(checkpoint_path(dir, *g)) {
                Ok(mut f) => {
                    f.read_to_end(&mut bytes)?;
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            }
            match decode_checkpoint_file(&bytes) {
                Ok((gen, report, kg)) => {
                    restored = Some((gen, report, kg));
                    break;
                }
                // A half-written or stale-corrupt checkpoint: fall back to
                // the previous generation rather than failing recovery.
                Err(_) => continue,
            }
        }
        let Some((generation, mut report, mut kg)) = restored else {
            return Err(invalid(format!(
                "no checkpoint in {} passed validation",
                dir.display()
            )));
        };
        span.stop();

        // Replay the restored generation's WAL, then chain into later
        // generations' WALs. A later WAL can only exist if a later
        // checkpoint was attempted (rotation syncs the old log first),
        // so when that checkpoint failed validation the records in its
        // WAL are still exactly the tail of history — replaying them
        // recovers past the corrupt checkpoint instead of dropping the
        // longer WAL tail. Chaining stops at the first torn WAL: a tear
        // means the frontier of the crash, nothing after it is ordered.
        let span = registry.start(&metrics.recovery_replay_seconds);
        let mut replayed_docs = 0u64;
        let mut replayed_facts = 0u64;
        let mut truncated_bytes = 0u64;
        let mut torn_frames = 0u64;
        let mut torn_generation = None;
        let mut torn_offset = None;
        let mut active_gen = generation;
        let mut chained_generations = 0u64;
        loop {
            let wpath = wal_path(dir, active_gen);
            let scanned = wal::scan(&wpath)?;
            if scanned.truncated_bytes > 0 {
                wal::repair(&wpath, scanned.valid_len)?;
                truncated_bytes += scanned.truncated_bytes;
                torn_frames += scanned.torn_frames;
                torn_generation = Some(active_gen);
                torn_offset = Some(scanned.valid_len);
            }
            for payload in &scanned.payloads {
                let rec = DocRecord::decode(payload).map_err(|e| invalid(e.to_string()))?;
                replay_record(&mut kg, &rec);
                report = add_reports(&report, &rec.delta);
                replayed_docs += 1;
                replayed_facts += rec.facts.len() as u64;
            }
            if scanned.truncated_bytes == 0 && wal_path(dir, active_gen + 1).exists() {
                active_gen += 1;
                chained_generations += 1;
                continue;
            }
            break;
        }
        span.stop();
        metrics.recovery_replayed.add(replayed_facts);
        metrics.recovery_truncated_bytes.add(truncated_bytes);
        metrics
            .recovery_truncated_bytes_gauge
            .set(truncated_bytes.min(i64::MAX as u64) as i64);
        metrics
            .wal_torn_frames
            .set(torn_frames.min(i64::MAX as u64) as i64);
        metrics
            .recovery_chained_generations
            .add(chained_generations);
        metrics.wal_degraded.set(0);

        // Continue appending to the newest WAL that replayed. Ensure it
        // exists even if the crash hit between checkpoint and WAL create.
        let wpath = wal_path(dir, active_gen);
        let wal = if wpath.exists() {
            Wal::open_append_with_faults(&wpath, cfg.fsync, faults.clone())?
        } else {
            Wal::create_with_faults(&wpath, cfg.fsync, faults.clone())?
        };
        let admitted = replayed_facts;
        let store = Self {
            dir: dir.to_owned(),
            cfg,
            registry: registry.clone(),
            generation: active_gen,
            wal: Arc::new(Mutex::new(wal)),
            admitted_since_checkpoint: Arc::new(AtomicU64::new(admitted)),
            degraded: Arc::new(AtomicBool::new(false)),
            faults,
            metrics: metrics.clone(),
        };
        let recovered = Recovered {
            kg,
            report,
            generation,
            replayed_docs,
            replayed_facts,
            truncated_bytes,
            chained_generations,
            torn_generation,
            torn_offset,
        };
        Ok((store, recovered))
    }

    /// A journal to plug into `IngestPipeline::set_journal`. Every merged
    /// document becomes one WAL record; appends follow the store's fsync
    /// policy and the store's retry/degrade contract. Multiple journals
    /// may coexist (they share the WAL handle and the degraded flag).
    pub fn journal(&self) -> Box<dyn IngestJournal> {
        self.journal_inner(None)
    }

    /// [`DurableStore::journal`] plus an ack hook invoked with every
    /// record the WAL accepted — the set of records the recovery
    /// contract guarantees to replay after a crash.
    pub fn journal_with_ack(&self, ack: AckHook) -> Box<dyn IngestJournal> {
        self.journal_inner(Some(ack))
    }

    fn journal_inner(&self, ack: Option<AckHook>) -> Box<dyn IngestJournal> {
        Box::new(WalJournal {
            wal: Arc::clone(&self.wal),
            admitted: Arc::clone(&self.admitted_since_checkpoint),
            degraded: Arc::clone(&self.degraded),
            retry: self.cfg.retry,
            metrics: self.metrics.clone(),
            buf: DocRecord::default(),
            ack,
            faults: self.faults.clone(),
        })
    }

    /// Current checkpoint generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether appends are currently writing through to the WAL.
    pub fn degraded_mode(&self) -> DegradedMode {
        if self.degraded.load(Ordering::Relaxed) {
            DegradedMode::MemoryOnly
        } else {
            DegradedMode::Durable
        }
    }

    /// Facts admitted (appended to the WAL) since the last checkpoint.
    pub fn admitted_since_checkpoint(&self) -> u64 {
        self.admitted_since_checkpoint.load(Ordering::Relaxed)
    }

    /// Bytes currently in the active WAL.
    pub fn wal_len(&self) -> u64 {
        self.wal.lock().expect("wal lock").len()
    }

    /// Path of the active WAL file.
    pub fn wal_path(&self) -> PathBuf {
        wal_path(&self.dir, self.generation)
    }

    /// Take a checkpoint if the admitted-facts threshold has been reached.
    /// Returns `true` if one was written.
    pub fn maybe_checkpoint(
        &mut self,
        kg: &KnowledgeGraph,
        report: &IngestReport,
    ) -> io::Result<bool> {
        if self.cfg.checkpoint_every_facts == 0
            || self.admitted_since_checkpoint.load(Ordering::Relaxed)
                < self.cfg.checkpoint_every_facts
        {
            return Ok(false);
        }
        self.checkpoint(kg, report)?;
        Ok(true)
    }

    /// Write a checkpoint of `kg` + `report` as the next generation, rotate
    /// the WAL, and prune old generations. The WAL handle is swapped inside
    /// its mutex, so journals created earlier keep working and write to the
    /// new generation's log.
    pub fn checkpoint(&mut self, kg: &KnowledgeGraph, report: &IngestReport) -> io::Result<u64> {
        let span = self.registry.start(&self.metrics.checkpoint_seconds);
        let next = self.generation + 1;
        let bytes = encode_checkpoint_file(next, kg, report);
        let path = checkpoint_path(&self.dir, next);
        if let Err(e) = with_retries(self.cfg.retry, &self.metrics.wal_retries, || {
            write_atomic(&path, &bytes, &self.faults)
        }) {
            // The WAL keeps the facts; a failed checkpoint delays
            // compaction but loses nothing.
            self.metrics.checkpoint_errors.inc();
            return Err(e);
        }
        {
            let mut guard = self.wal.lock().expect("wal lock");
            // Make sure the old log is fully on disk before we abandon it.
            guard.sync().ok();
            *guard = Wal::create_with_faults(
                &wal_path(&self.dir, next),
                self.cfg.fsync,
                self.faults.clone(),
            )?;
        }
        self.generation = next;
        self.admitted_since_checkpoint.store(0, Ordering::Relaxed);
        span.stop();
        self.metrics.checkpoints.inc();
        self.prune()?;
        Ok(next)
    }

    fn prune(&self) -> io::Result<()> {
        let gens = list_generations(&self.dir)?;
        let keep_from = gens
            .len()
            .saturating_sub(self.cfg.keep_generations.saturating_add(1));
        for g in &gens[..keep_from] {
            fs::remove_file(checkpoint_path(&self.dir, *g)).ok();
            fs::remove_file(wal_path(&self.dir, *g)).ok();
        }
        Ok(())
    }
}

fn add_reports(a: &IngestReport, b: &IngestReport) -> IngestReport {
    IngestReport {
        documents: a.documents + b.documents,
        sentences: a.sentences + b.sentences,
        raw_triples: a.raw_triples + b.raw_triples,
        duplicate_triples: a.duplicate_triples + b.duplicate_triples,
        mapped: a.mapped + b.mapped,
        unmapped: a.unmapped + b.unmapped,
        unresolved_entity: a.unresolved_entity + b.unresolved_entity,
        new_entities: a.new_entities + b.new_entities,
        admitted: a.admitted + b.admitted,
        rejected: a.rejected + b.rejected,
        gated: a.gated + b.gated,
    }
}

fn replay_record(kg: &mut KnowledgeGraph, rec: &DocRecord) {
    for (name, ty) in &rec.minted {
        if kg.graph.vertex_id(name).is_none() {
            kg.create_entity(name, *ty);
        }
    }
    for f in &rec.facts {
        let s = match kg.graph.vertex_id(&f.subject) {
            Some(v) => v,
            // Defensive: a fact naming an entity the record (or checkpoint)
            // does not know. Mint it rather than dropping the fact.
            None => kg.create_entity(&f.subject, EntityType::Other),
        };
        let o = match kg.graph.vertex_id(&f.object) {
            Some(v) => v,
            None => kg.create_entity(&f.object, EntityType::Other),
        };
        kg.add_extracted_fact_with_args(
            s,
            &f.predicate,
            o,
            f.at,
            f.confidence,
            f.doc_id,
            &f.extra_args,
        );
    }
}

/// Journal implementation that frames one merged document per WAL record.
///
/// Failure contract: an append is retried under the store's
/// [`RetryPolicy`]; if the budget is exhausted the journal flips the
/// shared degraded flag (`nous_wal_degraded` = 1) and ingestion
/// continues memory-only. While degraded, each new record probes the
/// WAL once (no retries); the first successful probe re-arms
/// durability. Records merged while every attempt failed are counted in
/// `nous_wal_dropped_records_total` — they are the documented loss
/// window of `DegradedMode::MemoryOnly`.
struct WalJournal {
    wal: Arc<Mutex<Wal>>,
    admitted: Arc<AtomicU64>,
    degraded: Arc<AtomicBool>,
    retry: RetryPolicy,
    metrics: StoreMetrics,
    buf: DocRecord,
    ack: Option<AckHook>,
    faults: Faults,
}

impl IngestJournal for WalJournal {
    fn entity_created(&mut self, name: &str, ty: EntityType) {
        self.buf.minted.push((name.to_owned(), ty));
    }

    fn fact_admitted(&mut self, fact: &AdmittedFact) {
        self.buf.facts.push(fact.clone());
    }

    fn document_merged(&mut self, doc_id: u64, delta: &IngestReport) {
        let mut rec = std::mem::take(&mut self.buf);
        rec.doc_id = doc_id;
        rec.delta = delta.clone();
        if rec.minted.is_empty() && rec.facts.is_empty() && rec.delta == IngestReport::default() {
            return;
        }
        let payload = rec.encode();
        let mut guard = self.wal.lock().expect("wal lock");
        let before_syncs = guard.fsyncs();
        let was_degraded = self.degraded.load(Ordering::Relaxed);
        let result = if was_degraded {
            // Probe: one attempt, no retry storm while the disk is sick.
            guard.append(&payload)
        } else {
            with_retries(self.retry, &self.metrics.wal_retries, || {
                guard.append(&payload)
            })
        };
        match result {
            Ok(bytes) => {
                if was_degraded {
                    self.degraded.store(false, Ordering::Relaxed);
                    self.metrics.wal_degraded.set(0);
                    self.metrics.wal_rearmed.inc();
                }
                self.metrics.wal_appends.inc();
                self.metrics.wal_bytes.add(bytes);
                self.metrics
                    .wal_fsyncs
                    .add(guard.fsyncs().saturating_sub(before_syncs));
                self.admitted
                    .fetch_add(rec.delta.admitted as u64, Ordering::Relaxed);
                drop(guard);
                if let Some(ack) = &self.ack {
                    ack(&rec);
                }
            }
            Err(_) => {
                // The journal trait has no error channel; surface the loss
                // on the metrics endpoint instead of silently dropping it.
                self.metrics.wal_errors.inc();
                self.metrics.wal_dropped_records.inc();
                if !was_degraded {
                    self.degraded.store(true, Ordering::Relaxed);
                    self.metrics.wal_degraded.set(1);
                    // Entering MemoryOnly is the canonical "what just
                    // happened" moment: snapshot the flight recorder so
                    // the traces leading up to the flip survive.
                    self.faults.blackbox(&format!("wal-degraded doc={doc_id}"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nous_core::{IngestPipeline, PipelineConfig};
    use nous_corpus::{Article, ArticleStream, CuratedKb, Preset, World};

    fn scratch(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicUsize;
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("nous-store-{}-{tag}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn smoke_world() -> (KnowledgeGraph, Vec<Article>) {
        let world = World::generate(&Preset::Smoke.world_config());
        let kb = CuratedKb::generate(&world, 7);
        let mut kg = KnowledgeGraph::from_curated(&world, &kb);
        kg.train_predictor();
        let articles = ArticleStream::generate(&world, &kb, &Preset::Smoke.stream_config());
        (kg, articles)
    }

    fn pipeline(registry: &MetricsRegistry) -> IngestPipeline {
        IngestPipeline::with_registry(PipelineConfig::default(), registry.clone())
    }

    #[test]
    fn checkpoint_file_roundtrips_and_rejects_corruption() {
        let (kg, _) = smoke_world();
        let report = IngestReport {
            documents: 3,
            admitted: 7,
            ..Default::default()
        };
        let bytes = encode_checkpoint_file(5, &kg, &report);
        let (gen, rep, back) = decode_checkpoint_file(&bytes).unwrap();
        assert_eq!(gen, 5);
        assert_eq!(rep, report);
        assert_eq!(back.graph.vertex_count(), kg.graph.vertex_count());
        assert_eq!(back.graph.edge_count(), kg.graph.edge_count());

        assert!(decode_checkpoint_file(&bytes[..10]).is_err());
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(decode_checkpoint_file(&bad).is_err());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(decode_checkpoint_file(&wrong_magic).is_err());
    }

    #[test]
    fn create_then_open_restores_baseline() {
        let dir = scratch("baseline");
        let registry = MetricsRegistry::new();
        let (kg, _) = smoke_world();
        let report = IngestReport::default();
        let store =
            DurableStore::create(&dir, DurabilityConfig::default(), &kg, &report, &registry)
                .unwrap();
        assert_eq!(store.generation(), 0);
        drop(store);

        let registry2 = MetricsRegistry::new();
        let (store, rec) =
            DurableStore::open(&dir, DurabilityConfig::default(), &registry2).unwrap();
        assert_eq!(rec.generation, 0);
        assert_eq!(rec.replayed_docs, 0);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.kg.graph.vertex_count(), kg.graph.vertex_count());
        assert_eq!(rec.kg.graph.edge_count(), kg.graph.edge_count());
        assert_eq!(store.generation(), 0);
    }

    #[test]
    fn journal_records_replay_to_identical_graph() {
        let dir = scratch("replay");
        let registry = MetricsRegistry::new();
        let (mut kg, articles) = smoke_world();
        let mut pipe = pipeline(&registry);
        let store = DurableStore::create(
            &dir,
            DurabilityConfig {
                fsync: FsyncPolicy::Never,
                checkpoint_every_facts: 0,
                keep_generations: 2,
                retry: RetryPolicy::default(),
            },
            &kg,
            &pipe.report(),
            &registry,
        )
        .unwrap();
        pipe.set_journal(store.journal());
        for a in &articles[..4] {
            pipe.ingest(&mut kg, a);
        }
        let live_report = pipe.report();
        assert!(live_report.admitted > 0, "fixture must admit facts");
        assert!(store.admitted_since_checkpoint() > 0);
        assert!(store.wal_len() > 0);
        let _ = store; // crash here: no checkpoint since baseline

        let registry2 = MetricsRegistry::new();
        let (_store, rec) =
            DurableStore::open(&dir, DurabilityConfig::default(), &registry2).unwrap();
        assert_eq!(rec.kg.graph.vertex_count(), kg.graph.vertex_count());
        assert_eq!(rec.kg.graph.edge_count(), kg.graph.edge_count());
        assert_eq!(rec.report, live_report);
        assert_eq!(rec.replayed_docs, 4);
        assert!(rec.replayed_facts > 0);
        assert_eq!(
            registry2.counter_value("nous_recovery_replayed_total", &[]),
            Some(rec.replayed_facts)
        );
    }

    /// Score bits of every trained model over every `(s, o)`.
    fn predictor_bits(kg: &KnowledgeGraph) -> Vec<u32> {
        let n = kg.graph.vertex_count() as u32;
        let mut bits = Vec::new();
        for (_, p) in kg.graph.iter_predicates() {
            bits.push(u32::from(kg.predictor().has_model(p)));
            for s in 0..n {
                for o in 0..n {
                    bits.push(kg.predictor().score(p, s, o).to_bits());
                }
            }
        }
        bits
    }

    /// Ingest four documents into `kg` under a fresh store, checkpoint
    /// them or leave them in the WAL tail, and recover.
    fn ingest_and_recover(
        mut kg: KnowledgeGraph,
        articles: &[Article],
        wal_tail: bool,
    ) -> (KnowledgeGraph, Recovered) {
        let dir = scratch("live-predictor");
        let registry = MetricsRegistry::new();
        let mut pipe = pipeline(&registry);
        let mut store = DurableStore::create(
            &dir,
            DurabilityConfig {
                fsync: FsyncPolicy::Never,
                checkpoint_every_facts: 0,
                keep_generations: 2,
                retry: RetryPolicy::default(),
            },
            &kg,
            &pipe.report(),
            &registry,
        )
        .unwrap();
        pipe.set_journal(store.journal());
        for a in &articles[..4] {
            pipe.ingest(&mut kg, a);
        }
        if !wal_tail {
            store.checkpoint(&kg, &pipe.report()).unwrap();
        }
        drop(store);

        let (_store, rec) =
            DurableStore::open(&dir, DurabilityConfig::default(), &MetricsRegistry::new()).unwrap();
        assert_eq!(rec.replayed_docs > 0, wal_tail);
        assert_eq!(rec.kg.graph.edge_count(), kg.graph.edge_count());
        (kg, rec)
    }

    #[test]
    fn recovery_restores_the_live_predictor() {
        for wal_tail in [true, false] {
            let (kg, articles) = smoke_world();
            let (live, rec) = ingest_and_recover(kg, &articles, wal_tail);
            assert!(!rec.kg.predictor().trained_predicates().is_empty());
            assert_eq!(
                predictor_bits(&rec.kg),
                predictor_bits(&live),
                "wal tail: {wal_tail}"
            );
        }
    }

    #[test]
    fn a_never_trained_graph_recovers_untrained() {
        for wal_tail in [true, false] {
            let world = World::generate(&Preset::Smoke.world_config());
            let kb = CuratedKb::generate(&world, 7);
            let kg = KnowledgeGraph::from_curated(&world, &kb);
            let articles = ArticleStream::generate(&world, &kb, &Preset::Smoke.stream_config());
            let (_, rec) = ingest_and_recover(kg, &articles, wal_tail);
            assert!(
                rec.kg.predictor().trained_predicates().is_empty(),
                "wal tail: {wal_tail}"
            );
        }
    }

    #[test]
    fn checkpoint_rotates_wal_and_prunes_old_generations() {
        let dir = scratch("rotate");
        let registry = MetricsRegistry::new();
        let (mut kg, articles) = smoke_world();
        let mut pipe = pipeline(&registry);
        let mut store = DurableStore::create(
            &dir,
            DurabilityConfig {
                fsync: FsyncPolicy::Never,
                checkpoint_every_facts: 1,
                keep_generations: 0,
                retry: RetryPolicy::default(),
            },
            &kg,
            &pipe.report(),
            &registry,
        )
        .unwrap();
        pipe.set_journal(store.journal());

        let mut rounds = 0u64;
        let mut idx = 0usize;
        while rounds < 3 {
            assert!(idx < articles.len(), "smoke stream exhausted at {idx}");
            pipe.ingest(&mut kg, &articles[idx]);
            idx += 1;
            if store.maybe_checkpoint(&kg, &pipe.report()).unwrap() {
                rounds += 1;
                assert_eq!(store.generation(), rounds);
                assert_eq!(store.admitted_since_checkpoint(), 0);
                // Journal handles follow the rotation: fresh WAL is empty.
                assert_eq!(store.wal_len(), 0);
            }
        }
        // keep_generations = 0 → only the newest generation remains.
        assert_eq!(list_generations(&dir).unwrap(), vec![3]);
        assert!(!wal_path(&dir, 0).exists());
        assert!(wal_path(&dir, 3).exists());
        assert_eq!(
            registry.counter_value("nous_checkpoints_total", &[]),
            Some(4) // baseline + 3 rotations
        );

        // Recovery from the pruned dir restores the newest generation.
        let registry2 = MetricsRegistry::new();
        let (_s, rec) = DurableStore::open(&dir, DurabilityConfig::default(), &registry2).unwrap();
        assert_eq!(rec.generation, 3);
        assert_eq!(rec.kg.graph.vertex_count(), kg.graph.vertex_count());
        assert_eq!(rec.kg.graph.edge_count(), kg.graph.edge_count());
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_previous() {
        let dir = scratch("fallback");
        let registry = MetricsRegistry::new();
        let (mut kg, articles) = smoke_world();
        let mut pipe = pipeline(&registry);
        let mut store = DurableStore::create(
            &dir,
            DurabilityConfig {
                fsync: FsyncPolicy::Never,
                checkpoint_every_facts: 0,
                keep_generations: 4,
                retry: RetryPolicy::default(),
            },
            &kg,
            &pipe.report(),
            &registry,
        )
        .unwrap();
        pipe.set_journal(store.journal());
        for a in &articles[..2] {
            pipe.ingest(&mut kg, a);
        }
        store.checkpoint(&kg, &pipe.report()).unwrap();

        // Simulate a crash mid-way through writing generation 2: garbage.
        fs::write(checkpoint_path(&dir, 2), b"NOUSCKPTgarbage").unwrap();

        let registry2 = MetricsRegistry::new();
        let (_s, rec) = DurableStore::open(&dir, DurabilityConfig::default(), &registry2).unwrap();
        assert_eq!(rec.generation, 1);
        assert_eq!(rec.kg.graph.vertex_count(), kg.graph.vertex_count());
        assert_eq!(rec.kg.graph.edge_count(), kg.graph.edge_count());
    }

    #[cfg(feature = "fault-injection")]
    mod faulty {
        use super::*;
        use nous_fault::{FaultPlan, SitePlan};
        use std::sync::Mutex as StdMutex;

        fn no_backoff() -> DurabilityConfig {
            DurabilityConfig {
                fsync: FsyncPolicy::Never,
                checkpoint_every_facts: 0,
                keep_generations: 2,
                retry: RetryPolicy {
                    max_retries: 1,
                    backoff_ms: 0,
                },
            }
        }

        #[test]
        fn exhausted_retries_degrade_then_rearm_on_success() {
            let dir = scratch("degrade");
            let registry = MetricsRegistry::new();
            let (mut kg, articles) = smoke_world();
            let mut pipe = pipeline(&registry);
            // Append hit 0 (doc 1) succeeds. Hits 1..=3 fail: doc 2's
            // attempt+retry exhaust the budget (degrade), doc 3's probe
            // fails, doc 4's probe succeeds at hit 4 (re-arm).
            let faults = FaultPlan::from_seed(3)
                .site(crate::wal::FP_WAL_APPEND, SitePlan::schedule(vec![1, 2, 3]))
                .arm();
            let store = DurableStore::create_with_faults(
                &dir,
                no_backoff(),
                &kg,
                &pipe.report(),
                &registry,
                faults,
            )
            .unwrap();
            let acked: Arc<StdMutex<Vec<u64>>> = Arc::default();
            let sink = Arc::clone(&acked);
            pipe.set_journal(store.journal_with_ack(Arc::new(move |rec: &DocRecord| {
                sink.lock().unwrap().push(rec.doc_id);
            })));

            assert_eq!(store.degraded_mode(), DegradedMode::Durable);
            pipe.ingest(&mut kg, &articles[0]);
            assert_eq!(store.degraded_mode(), DegradedMode::Durable);
            pipe.ingest(&mut kg, &articles[1]);
            assert_eq!(
                store.degraded_mode(),
                DegradedMode::MemoryOnly,
                "retry budget exhausted must degrade"
            );
            assert_eq!(registry.gauge_value("nous_wal_degraded", &[]), Some(1));
            pipe.ingest(&mut kg, &articles[2]);
            assert_eq!(store.degraded_mode(), DegradedMode::MemoryOnly);
            pipe.ingest(&mut kg, &articles[3]);
            assert_eq!(
                store.degraded_mode(),
                DegradedMode::Durable,
                "successful probe must re-arm"
            );
            assert_eq!(registry.gauge_value("nous_wal_degraded", &[]), Some(0));
            assert_eq!(
                registry.counter_value("nous_wal_dropped_records_total", &[]),
                Some(2)
            );
            assert_eq!(
                registry.counter_value("nous_wal_rearmed_total", &[]),
                Some(1)
            );
            assert_eq!(
                registry.counter_value("nous_wal_retries_total", &[]),
                Some(1)
            );
            assert_eq!(acked.lock().unwrap().len(), 2, "docs 1 and 4 acked");

            // Crash + recover: exactly the acked records replay.
            let registry2 = MetricsRegistry::new();
            let (_s, rec) =
                DurableStore::open(&dir, DurabilityConfig::default(), &registry2).unwrap();
            assert_eq!(rec.replayed_docs, 2);
            assert_eq!(rec.truncated_bytes, 0, "rollback left no torn tail");
        }

        #[test]
        fn transient_append_fault_is_absorbed_by_retry() {
            let dir = scratch("retry-ok");
            let registry = MetricsRegistry::new();
            let (mut kg, articles) = smoke_world();
            let mut pipe = pipeline(&registry);
            // Every first attempt of doc 2 fails once; the retry lands.
            let faults = FaultPlan::from_seed(3)
                .site(crate::wal::FP_WAL_APPEND, SitePlan::schedule(vec![1]))
                .arm();
            let store = DurableStore::create_with_faults(
                &dir,
                no_backoff(),
                &kg,
                &pipe.report(),
                &registry,
                faults,
            )
            .unwrap();
            pipe.set_journal(store.journal());
            pipe.ingest(&mut kg, &articles[0]);
            pipe.ingest(&mut kg, &articles[1]);
            assert_eq!(store.degraded_mode(), DegradedMode::Durable);
            assert_eq!(
                registry.counter_value("nous_wal_retries_total", &[]),
                Some(1)
            );
            assert_eq!(
                registry.counter_value("nous_wal_appends_total", &[]),
                Some(2)
            );
            assert_eq!(
                registry.counter_value("nous_wal_errors_total", &[]),
                Some(0)
            );
        }

        #[test]
        fn checkpoint_write_fault_surfaces_error_and_keeps_wal() {
            let dir = scratch("ckpt-fault");
            let registry = MetricsRegistry::new();
            let (mut kg, articles) = smoke_world();
            let mut pipe = pipeline(&registry);
            let faults = FaultPlan::from_seed(3)
                .site(FP_CHECKPOINT_WRITE, SitePlan::probability(1.0))
                .arm();
            let mut store = DurableStore::create_with_faults(
                &dir,
                no_backoff(),
                &kg,
                &pipe.report(),
                &registry,
                faults,
            )
            .unwrap();
            pipe.set_journal(store.journal());
            for a in &articles[..3] {
                pipe.ingest(&mut kg, a);
            }
            let err = store.checkpoint(&kg, &pipe.report()).unwrap_err();
            assert!(nous_fault::is_injected(&err));
            assert_eq!(store.generation(), 0, "failed checkpoint must not rotate");
            assert_eq!(
                registry.counter_value("nous_checkpoint_errors_total", &[]),
                Some(1)
            );
            // The WAL still carries everything: recovery loses nothing.
            let registry2 = MetricsRegistry::new();
            let (_s, rec) =
                DurableStore::open(&dir, DurabilityConfig::default(), &registry2).unwrap();
            assert_eq!(rec.generation, 0);
            assert_eq!(rec.kg.graph.edge_count(), kg.graph.edge_count());
        }
    }

    #[test]
    fn open_refuses_a_directory_with_a_lane_wal() {
        let dir = scratch("lane");
        let registry = MetricsRegistry::new();
        let (kg, _) = smoke_world();
        let store = DurableStore::create(
            &dir,
            DurabilityConfig::default(),
            &kg,
            &IngestReport::default(),
            &registry,
        )
        .unwrap();
        drop(store);
        fs::write(dir.join("wal-00000000-s0.log"), b"").unwrap();
        let err = DurableStore::open(&dir, DurabilityConfig::default(), &registry)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("wal-00000000-s0.log"), "{err}");
    }

    #[test]
    fn open_without_checkpoint_is_not_found() {
        let dir = scratch("empty");
        let registry = MetricsRegistry::new();
        let err = DurableStore::open(&dir, DurabilityConfig::default(), &registry)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
