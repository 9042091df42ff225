//! The seven workloads. Each one sets the system up (untimed by
//! everything but `setup_s`), measures one window of `--seconds`, then
//! checks what the program produced: served answers against ground
//! truth, every acknowledged document against a crash-and-reopen, result
//! fingerprints across serving paths.
//!
//! A traced run alternates plain and traced blocks of operations inside
//! the same window, and finishes with the direct-call probes that split
//! the layers (`layers.rs`).

use super::calib::{slowdown, Calibrator};
use super::layers::{put_per_layer, IngestInputs, LiveSamples, Recovery, Sections};
use super::queries::{
    probe_queries, probe_wire, serve_in_process, start_server, HttpClient, QueryPlan, Served,
};
use super::spec::{Metrics, Size, Sizes, BATCH};
use super::stats::{self, Fnv, SplitMix};
use super::system::{
    fingerprint_articles, narrated_truth, ontology_predicates, score_served, stream_corpus,
    trend_monitor, Corpus, Counts, IngestTrace, Score, System,
};
use super::trace::{Layer, SpanLog, NO_PARENT};
use super::window::{ingest_window, query_window, Meter, OpLog};
use nous_core::SharedSession;
use nous_corpus::scenarios::{self, Regime, ScenarioConfig};
use nous_corpus::{Article, Scenario};
use nous_obs::MetricsRegistry;
use nous_persist::{DurabilityConfig, DurableStore};
use nous_qa::TopicIndex;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub size: Size,
    /// Directory (inside the checkout) for stores and trace files.
    pub work_root: PathBuf,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, for the operator.
    pub failures: Vec<String>,
    /// FNV of every generated input the program was fed.
    pub corpus_fingerprint: u64,
    /// CPUs the process could use when it started (some workloads pin
    /// their threads later).
    pub host_cpus: usize,
    /// Threads driving load (the program's own threads not counted).
    pub threads: usize,
    /// FNV over the rendered answers of the leading point queries.
    pub point_fingerprint: Option<u64>,
    pub trace_file: Option<PathBuf>,
}

/// Per-run context: sizes, the span log and where files go.
struct Env {
    args: RunArgs,
    sizes: Sizes,
    log: SpanLog,
    work: PathBuf,
    dirs: u32,
    out: Outcome,
    calib: Calibrator,
    /// Every calibration kernel sample of the run, set-up to probes.
    host_ns: Vec<u64>,
}

impl Env {
    fn fresh_dir(&mut self, tag: &str) -> PathBuf {
        self.dirs += 1;
        self.work.join(format!("{tag}-{}", self.dirs))
    }

    fn meter(&self) -> Meter {
        Meter::window(self.args.seconds, self.args.traced)
    }

    /// One calibration sample between two steps of a set-up.
    fn tick(&mut self) {
        self.host_ns.push(self.calib.sample());
    }

    /// Keep a finished phase's calibration samples for the run's record.
    fn absorb(&mut self, ops: &OpLog) {
        self.host_ns.extend_from_slice(ops.kernel_samples());
    }

    fn fail(&mut self, count: u64, why: String) {
        if count > 0 {
            self.out.failed += count;
            self.out.failures.push(why);
        }
    }

    fn fingerprint(&mut self, streams: &[&[Article]]) {
        let mut fnv = Fnv::default();
        for articles in streams {
            fingerprint_articles(&mut fnv, articles);
        }
        self.out.corpus_fingerprint = fnv.0;
    }
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

fn median_slowdown(kernel_ns: &[u64]) -> f64 {
    let ns: Vec<f64> = kernel_ns.iter().map(|n| *n as f64).collect();
    slowdown(stats::median(&ns)).max(f64::MIN_POSITIVE)
}

/// Run the set-up, timed at the host speed its own calibration samples
/// saw: `setup_s`.
fn timed_setup<T>(env: &mut Env, build: impl FnOnce(&mut Env) -> io::Result<T>) -> io::Result<T> {
    let mark = env.host_ns.len();
    env.tick();
    let t = Instant::now();
    let built = build(env)?;
    let took = t.elapsed().as_secs_f64();
    env.tick();
    let secs = took / median_slowdown(&env.host_ns[mark..]);
    env.out.metrics.put("setup_s", secs, "s", 1);
    Ok(built)
}

/// A stream corpus with a booted system, `preload` articles ingested,
/// topics and trends built.
struct Loaded {
    corpus: Corpus,
    sys: System,
}

fn load_stream(
    env: &mut Env,
    articles: usize,
    preload: usize,
    checkpoint_every: u64,
) -> io::Result<Loaded> {
    let (seed, size) = (env.args.seed, env.args.size);
    let generate = || stream_corpus(seed, articles, size);
    let (corpus, _) = env
        .log
        .time("corpus.generate", Layer::Corpus, 0, NO_PARENT, generate);
    env.tick();
    let dir = env.fresh_dir("store");
    let mut sys = System::boot(
        &corpus.world,
        &corpus.kb,
        false,
        &dir,
        checkpoint_every,
        env.args.traced,
        &mut env.log,
    )?;
    for (i, chunk) in corpus.articles[..preload].chunks(BATCH).enumerate() {
        if i.is_multiple_of(16) {
            env.tick();
        }
        sys.ingest_batch(chunk, None);
    }
    env.tick();
    sys.build_topics_and_trends(&mut env.log);
    Ok(Loaded { corpus, sys })
}

fn put_answers(m: &mut Metrics, score: &Score) {
    m.put(
        "answer_precision",
        score.precision(),
        "ratio",
        score.predicted as u64,
    );
    m.put("answer_recall", score.recall(), "ratio", score.truth as u64);
}

fn alias(m: &mut Metrics, alias: &str, of: &str) {
    let v = m.0[of].clone();
    m.put(alias, v.value, v.unit, v.samples);
}

/// Crash the system, reopen its directory, account for every
/// acknowledged document, and remove the directory.
fn crash_and_reopen(env: &mut Env, sys: System) -> io::Result<()> {
    let quarantined = sys.quarantined() as u64;
    env.fail(quarantined, format!("{quarantined} documents quarantined"));
    let dir = sys.dir.clone();
    let d = sys.verify_durable()?;
    remove_dir(&dir);
    env.out.attempted += d.acked_docs;
    env.fail(
        d.lost_docs,
        format!(
            "recovery lost {} of {} acknowledged documents",
            d.lost_docs, d.acked_docs
        ),
    );
    env.fail(
        u64::from(!d.state_matches),
        "recovered report, admitted count or edge count differs from the live graph".to_owned(),
    );
    Ok(())
}

/// End of every run: bytes per document and peak memory; for a traced
/// run the per-layer figures of the sections the workload hands over,
/// and the trace file. `window` is `[from, to)` of the measured window
/// on the span log's clock, `counts` the counters of the workload's
/// ingest phase read at a fixed document count.
fn finish(
    env: &mut Env,
    ops: &OpLog,
    window: (u64, u64),
    counts: Counts,
    sections: &Sections<'_>,
) -> io::Result<()> {
    env.out.metrics.put(
        "wal_bytes_per_doc",
        (counts.wal_bytes + counts.checkpoint_bytes) as f64 / counts.docs.max(1) as f64,
        "B",
        counts.docs as u64,
    );
    env.absorb(ops);
    if env.args.traced {
        let slowdown = median_slowdown(&env.host_ns);
        put_per_layer(
            &mut env.out.metrics,
            &env.log,
            ops,
            window,
            slowdown,
            sections,
        );
        let file = format!("trace-{}.json", env.args.workload);
        let path = env.args.work_root.join(file);
        env.log.write_chrome(&path, 200_000)?;
        env.out.trace_file = Some(path);
    }
    env.out
        .metrics
        .put("peak_rss_mb", stats::peak_rss_mb(), "MB", 1);
    Ok(())
}

// ---------------------------------------------------------------- ingest

fn ingest_stream(env: &mut Env) -> io::Result<()> {
    let (stream_docs, every) = (env.sizes.stream_docs, env.sizes.checkpoint_every_facts);
    let Loaded { corpus, mut sys } =
        timed_setup(env, |env| load_stream(env, stream_docs, 0, every))?;
    env.fingerprint(&[&corpus.articles]);

    let stops = env.sizes.score_points;
    let predicates = ontology_predicates();
    let mut score = Score::default();
    let mut counts = Counts::default();
    let mut meter = env.meter();
    let from_ns = env.log.now();
    ingest_window(
        &mut sys,
        &corpus.articles,
        0,
        &stops,
        &mut meter,
        &mut env.log,
        |sys, i| {
            let truth = narrated_truth(&corpus.articles[..stops[i]]);
            score.add(score_served(&sys.session, &truth, &predicates));
            counts = sys.counts();
        },
    );
    let window = (from_ns, env.log.now());
    let ops = meter.ops;
    let m = &mut env.out.metrics;
    ops.put_universal(m);
    alias(m, "docs_per_s", "ops_per_s");
    alias(m, "docs_per_s_last_fifth", "ops_per_s_last_fifth");
    ops.put_acks(m, "");
    put_answers(m, &score);
    env.out.attempted += ops.weight();

    let session = sys.session.clone();
    let trace = std::mem::take(&mut sys.trace);
    crash_and_reopen(env, sys)?;
    let sections = Sections {
        ingest: Some(IngestInputs {
            trace: &trace,
            acks: &ops,
            counts,
        }),
        graph: Some(&session),
        ..Default::default()
    };
    finish(env, &ops, window, counts, &sections)
}

/// One scenario regime cycle: its generated inputs and booted system.
struct Cycle {
    scenario: Scenario,
    sys: System,
    /// Article counts at the four checkpoint days, and the days.
    stops: Vec<usize>,
    days: Vec<u64>,
}

/// Cycle `n` alternates the contradiction and the noisy regime; every
/// second cycle moves to the next seed.
fn boot_cycle(env: &mut Env, n: u64, with_topics: bool) -> io::Result<Cycle> {
    let regime = [Regime::Contradiction, Regime::Noisy][(n % 2) as usize];
    let cfg = ScenarioConfig {
        regime,
        seed: env.args.seed + n / 2,
        articles: env.sizes.scenario_docs,
        days: 1460,
        companies: env.sizes.scenario_companies,
    };
    let generate = || scenarios::generate(&cfg);
    let (scenario, _) = env
        .log
        .time("corpus.generate", Layer::Corpus, 0, NO_PARENT, generate);
    env.tick();
    let dir = env.fresh_dir(regime.name());
    let mut sys = System::boot(
        &scenario.world,
        &scenario.kb,
        true,
        &dir,
        env.sizes.checkpoint_every_facts,
        env.args.traced,
        &mut env.log,
    )?;
    if with_topics {
        env.tick();
        sys.build_topics_and_trends(&mut env.log);
    }
    let days = scenarios::checkpoints(cfg.days, 4);
    let stops = days
        .iter()
        .map(|d| scenario.articles.partition_point(|a| a.day <= *d))
        .collect();
    Ok(Cycle {
        scenario,
        sys,
        stops,
        days,
    })
}

/// Regime cycles, each a whole scenario on a fresh graph, until the
/// window ends. The first contradiction and the first noisy cycle are
/// the set-up and the only ones scored and crash-checked, so the count
/// metrics do not depend on how many cycles a run completes.
fn ingest_adversarial(env: &mut Env) -> io::Result<()> {
    let mut pending = timed_setup(env, |env| {
        Ok(vec![boot_cycle(env, 1, false)?, boot_cycle(env, 0, true)?])
    })?;
    let streams: Vec<&[Article]> = pending
        .iter()
        .map(|c| c.scenario.articles.as_slice())
        .collect();
    env.fingerprint(&streams);

    let mut score = Score::default();
    let mut counts = Counts::default();
    let mut trace = IngestTrace::default();
    let mut meter = env.meter();
    let from_ns = env.log.now();
    // The contradiction graph outlives its store for the graph figures.
    let mut first_session = None;
    let mut cycles = 0u64;
    while meter.open() || !pending.is_empty() {
        let mut cycle = match pending.pop() {
            Some(c) => c,
            None => boot_cycle(env, cycles, false)?,
        };
        let scored = cycles < 2;
        let oracle = &cycle.scenario.oracle;
        let predicates = oracle.predicates();
        let days = &cycle.days;
        let stops: &[usize] = if scored { &cycle.stops } else { &[] };
        ingest_window(
            &mut cycle.sys,
            &cycle.scenario.articles,
            0,
            stops,
            &mut meter,
            &mut env.log,
            |sys, i| {
                let truth = oracle.truth_at(days[i]);
                score.add(score_served(&sys.session, &truth, &predicates));
            },
        );
        trace.append(std::mem::take(&mut cycle.sys.trace));
        first_session.get_or_insert_with(|| cycle.sys.session.clone());
        if scored {
            counts.add(cycle.sys.counts());
            crash_and_reopen(env, cycle.sys)?;
        } else {
            let dir = cycle.sys.dir.clone();
            drop(cycle);
            remove_dir(&dir);
        }
        cycles += 1;
    }
    let window = (from_ns, env.log.now());
    let ops = meter.ops;
    let m = &mut env.out.metrics;
    ops.put_universal(m);
    alias(m, "docs_per_s", "ops_per_s");
    ops.put_acks(m, "");
    m.put("cycles", cycles as f64, "count", 1);
    put_answers(m, &score);
    env.out.attempted += ops.weight();

    let sections = Sections {
        ingest: Some(IngestInputs {
            trace: &trace,
            acks: &ops,
            counts,
        }),
        graph: first_session.as_deref(),
        ..Default::default()
    };
    finish(env, &ops, window, counts, &sections)
}

// ---------------------------------------------------------------- queries

/// The four query workloads share their set-up, their verification and
/// most of their window.
#[derive(Clone, Copy, PartialEq)]
enum QueryMode {
    /// In process, 4 point : 1 path.
    Mix,
    /// In process, path family only.
    Path,
    /// Point family over one keep-alive HTTP connection.
    Http,
    /// `Mix` beside an open-loop writer.
    Live,
}

fn served_locally(s: Served) -> (u64, bool) {
    (s.total_ns, s.failed)
}

fn query_workload(env: &mut Env, mode: QueryMode) -> io::Result<()> {
    let preload = env.sizes.preload_docs;
    let every = env.sizes.checkpoint_every_facts;
    let interval = Duration::from_millis(env.sizes.live_interval_ms);
    // The live writer's schedule is fixed, so its document count is too.
    let live_batches = match mode {
        QueryMode::Live => (env.args.seconds / interval.as_secs_f64()) as usize,
        _ => 0,
    };
    let articles = preload + live_batches * BATCH;
    let Loaded { corpus, mut sys } = timed_setup(env, |env| {
        let loaded = load_stream(env, articles, preload, every)?;
        // Start from a compacted stack: merge-on-read depth belongs to
        // `live_mixed`'s window, not to the read-only workloads.
        loaded.sys.session.compact_now();
        Ok(loaded)
    })?;
    env.fingerprint(&[&corpus.articles]);
    let counts = sys.counts();
    let session = sys.session.clone();
    let seed = env.args.seed;
    let mut plan = QueryPlan::new(&corpus.world, seed);
    let mut meter = env.meter();
    let mut live = LiveSamples::default();
    let mut live_acks = OpLog::default();
    let (mut shed, mut non_200) = (0u64, 0u64);
    let from_ns = env.log.now();
    let failed = match mode {
        QueryMode::Mix | QueryMode::Path => query_window(
            &mut meter,
            &mut env.log,
            || match mode {
                QueryMode::Path => plan.next_path(),
                _ => plan.next_mixed(),
            },
            |text, log| served_locally(serve_in_process(&session, text, log)),
            || {},
        ),
        QueryMode::Http => {
            stats::pin_to_one_cpu();
            let server = start_server(&session)?;
            let mut client = HttpClient::connect(server.local_addr())?;
            let mut sent = 0u64;
            let failed = query_window(
                &mut meter,
                &mut env.log,
                || plan.next_point(),
                |text, log| {
                    let t = Instant::now();
                    let status = client.query(text);
                    let ns = t.elapsed().as_nanos() as u64;
                    if let Some((log, id)) = log {
                        let end = log.now();
                        log.push("http.exchange", Layer::Serve, id, NO_PARENT, end - ns, end);
                    }
                    // Status on every reply; every 16th body is parsed,
                    // after the clock stopped, for the partial flag and
                    // an unresolved entity.
                    sent += 1;
                    let mut failed = !matches!(status, Ok(200));
                    non_200 += u64::from(failed);
                    shed += u64::from(matches!(status, Ok(429)));
                    if !failed && sent.is_multiple_of(16) {
                        failed = client
                            .rendered()
                            .is_none_or(|(r, partial)| partial || r.starts_with("not found"));
                    }
                    (ns, failed)
                },
                || {},
            );
            drop(client);
            server.shutdown();
            failed
        }
        QueryMode::Live => {
            let writer_articles = &corpus.articles[preload..];
            let writer_log = SpanLog::new(env.log.epoch(), 1);
            let traced = env.args.traced;
            let writer_sys = &mut sys;
            let (layers, age_ms) = (&mut live.layers, &mut live.snapshot_age_ms);
            // The reader keeps a CPU to itself; the writer and the
            // compactor threads it starts share the next one. Left to the
            // scheduler, where the compactor lands decides the reader's
            // figures (two modes 16% apart on a two-CPU host).
            let cpus = env.out.host_cpus;
            let reader_cpu = stats::current_cpu().unwrap_or(0);
            stats::pin_to_cpu(reader_cpu);
            let (failed, writer) = std::thread::scope(|scope| {
                let writer = scope.spawn(move || {
                    stats::pin_to_cpu((reader_cpu + 1) % cpus);
                    live_writer(writer_sys, writer_articles, interval, traced, writer_log)
                });
                let failed = query_window(
                    &mut meter,
                    &mut env.log,
                    || plan.next_mixed(),
                    |text, log| served_locally(serve_in_process(&session, text, log)),
                    || {
                        // Depth of the stack the next block reads through,
                        // and how old the snapshot the last query saw was.
                        layers.push(session.frozen().view.merge_stats().layers as f64);
                        let age = session
                            .metrics()
                            .gauge_value("nous_snapshot_age_nanos", &[]);
                        age_ms.push(age.unwrap_or(0) as f64 / 1e6);
                    },
                );
                (failed, writer.join().expect("writer thread panicked"))
            });
            env.log.merge(writer.log);
            live_acks = writer.acks;
            env.absorb(&live_acks);
            let m = &mut env.out.metrics;
            live_acks.put_acks(m, "");
            let offered = live_acks.len();
            live.late_ms = writer.late_ms;
            m.put("writer_docs", live_acks.weight() as f64, "count", offered);
            env.out.attempted += live_acks.weight();
            let missed = (live_batches as u64).saturating_sub(offered);
            env.fail(
                missed * BATCH as u64,
                format!("writer fell more than 1 s behind: {missed} of {live_batches} batches never offered"),
            );
            failed
        }
    };
    let window = (from_ns, env.log.now());
    let ops = meter.ops;
    let m = &mut env.out.metrics;
    ops.put_universal(m);
    ops.put_families(m);
    alias(m, "query_qps", "ops_per_s");
    env.out.attempted += ops.weight();
    env.out.threads = match mode {
        QueryMode::Mix | QueryMode::Path => 1,
        QueryMode::Http | QueryMode::Live => 2,
    };
    env.fail(
        failed,
        format!("{failed} queries failed (not found, partial or non-200)"),
    );

    // Served answers against everything narrated so far.
    let truth = narrated_truth(&corpus.articles[..sys.docs]);
    let score = score_served(&session, &truth, &ontology_predicates());
    put_answers(&mut env.out.metrics, &score);

    // The leading point queries again, off the clock: `query_mix` and
    // `http_point` must render the same answers for one seed.
    if matches!(mode, QueryMode::Mix | QueryMode::Http) {
        let n = env.sizes.fingerprint_ops;
        let mut replay = QueryPlan::new(&corpus.world, seed);
        let mut fnv = Fnv::default();
        let mut mismatched = 0u64;
        if mode == QueryMode::Http {
            let server = start_server(&session)?;
            let mut client = HttpClient::connect(server.local_addr())?;
            for _ in 0..n {
                let (_, text) = replay.next_point();
                let status = client.query(&text)?;
                let local = serve_in_process(&session, &text, None);
                let (rendered, partial) = client.rendered().unwrap_or_default();
                let print = Fnv::of(rendered.as_bytes());
                mismatched += u64::from(status != 200 || partial || print != local.fingerprint);
                fnv.write(&print.to_le_bytes());
            }
            drop(client);
            server.shutdown();
        } else {
            for _ in 0..n {
                let (_, text) = replay.next_point();
                let local = serve_in_process(&session, &text, None);
                fnv.write(&local.fingerprint.to_le_bytes());
            }
        }
        env.out.attempted += n as u64;
        env.fail(
            mismatched,
            format!("{mismatched} HTTP answers differ from the in-process answers"),
        );
        env.out.point_fingerprint = Some(fnv.0);
    }

    // The direct-call probes that split the layers this workload's
    // figures depend on.
    let (mut probe, mut wire) = (None, None);
    if env.args.traced {
        env.tick();
        let (attempted, failed) = if mode == QueryMode::Http {
            let mut w = probe_wire(&session, &mut plan, &env.sizes, &mut env.log)?;
            w.shed += shed;
            w.non_200 += non_200;
            w.requests += ops.len();
            (w.attempted, wire.insert(w).failed)
        } else {
            let p = probe_queries(&session, &mut plan, &env.sizes, &mut env.log);
            (p.attempted, probe.insert(p).failed)
        };
        env.tick();
        env.out.attempted += attempted;
        env.fail(
            failed,
            format!("{failed} probe queries failed or disagreed"),
        );
    }

    let trace = std::mem::take(&mut sys.trace);
    crash_and_reopen(env, sys)?;
    let sections = Sections {
        // Only `live_mixed` writes inside its window.
        ingest: (mode == QueryMode::Live).then_some(IngestInputs {
            trace: &trace,
            acks: &live_acks,
            counts,
        }),
        graph: (mode != QueryMode::Http).then_some(&*session),
        probe: probe.as_ref(),
        wire: wire.as_ref(),
        live: (mode == QueryMode::Live).then_some(&live),
        recovery: None,
    };
    finish(env, &ops, window, counts, &sections)
}

struct WriterReport {
    acks: OpLog,
    late_ms: Vec<f64>,
    log: SpanLog,
}

/// Open-loop writer: one micro-batch is due every `interval` whether or
/// not the previous one finished, and its ack is timed from the due
/// time. Stops offering once it runs more than a second behind.
fn live_writer(
    sys: &mut System,
    articles: &[Article],
    interval: Duration,
    traced: bool,
    mut log: SpanLog,
) -> WriterReport {
    let mut meter = Meter::unbounded(traced);
    let start = Instant::now();
    let mut late_ms = Vec::new();
    for (k, chunk) in articles.chunks(BATCH).enumerate() {
        let due = interval * k as u32;
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let late = start.elapsed().saturating_sub(due);
        if late > Duration::from_secs(1) {
            break;
        }
        late_ms.push(late.as_secs_f64() * 1e3);
        let traced = meter.begin_block();
        let (ack, checkpoint) = sys.ingest_batch(chunk, traced.then_some(&mut log));
        let from_due = (start.elapsed() - due).as_nanos() as u64;
        meter.push(None, chunk.len() as u32, ack + checkpoint, from_due);
    }
    WriterReport {
        acks: meter.ops,
        late_ms,
        log,
    }
}

// ---------------------------------------------------------------- recovery

/// A store whose WAL was torn inside its last frame, with what recovery
/// must bring back: everything before the last document.
struct Torn {
    corpus: Corpus,
    master: PathBuf,
    /// File name of the torn WAL inside `master`.
    wal: std::ffi::OsString,
    counts: Counts,
    /// Documents, admitted facts and edges before the last document.
    docs: usize,
    admitted: usize,
    edges: usize,
    /// Intact WAL frames (documents after the midpoint checkpoint).
    wal_docs: u64,
}

fn build_torn(env: &mut Env) -> io::Result<Torn> {
    let n = env.sizes.recover_docs;
    // One checkpoint, at the midpoint, by hand: no count-triggered ones.
    let Loaded { corpus, mut sys } = load_stream(env, n, n / 2, u64::MAX)?;
    env.tick();
    sys.checkpoint_now();
    for (i, chunk) in corpus.articles[n / 2..n - 1].chunks(BATCH).enumerate() {
        if i.is_multiple_of(16) {
            env.tick();
        }
        sys.ingest_batch(chunk, None);
    }
    let admitted = sys.pipeline.report().admitted;
    let edges = sys.session.read(|kg, _| kg.graph.edge_count());
    sys.ingest_batch(&corpus.articles[n - 1..], None);
    let wal = sys.store.wal_path();
    let torn = Torn {
        master: sys.dir.clone(),
        wal: wal.file_name().expect("a WAL file").to_owned(),
        counts: sys.counts(),
        docs: n - 1,
        admitted,
        edges,
        wal_docs: (n - 1 - n / 2) as u64,
        corpus,
    };
    drop(sys);
    tear_last_frame(&wal, env.args.seed)?;
    Ok(torn)
}

/// `DurableStore::open` on a fresh copy of `master` (without `skip`, if
/// given): what it took and what it recovered.
fn open_copy(
    env: &mut Env,
    master: &Path,
    skip: Option<&std::ffi::OsStr>,
) -> io::Result<(u64, io::Result<nous_persist::Recovered>)> {
    let copy = env.fresh_dir("recover");
    std::fs::create_dir_all(&copy)?;
    for entry in std::fs::read_dir(master)? {
        let entry = entry?;
        if skip != Some(&entry.file_name()) {
            std::fs::copy(entry.path(), copy.join(entry.file_name()))?;
        }
    }
    let t = Instant::now();
    let opened = DurableStore::open(&copy, DurabilityConfig::default(), &MetricsRegistry::new());
    let ns = t.elapsed().as_nanos() as u64;
    let recovered = opened.map(|(store, recovered)| {
        drop(store);
        recovered
    });
    remove_dir(&copy);
    Ok((ns, recovered))
}

fn recover_replay(env: &mut Env) -> io::Result<()> {
    let torn = timed_setup(env, build_torn)?;
    env.fingerprint(&[&torn.corpus.articles]);

    let mut meter = env.meter();
    let from_ns = env.log.now();
    let mut wrong = 0u64;
    let mut last = None;
    while meter.open() {
        let rep = meter.ops.len();
        let traced = meter.begin_block();
        let (ns, recovered) = open_copy(env, &torn.master, None)?;
        if traced {
            let end = env.log.now();
            env.log.push(
                "persist.open",
                Layer::Persist,
                rep,
                NO_PARENT,
                end - ns,
                end,
            );
        }
        meter.push(None, torn.docs as u32, ns, ns);
        let intact = recovered.as_ref().is_ok_and(|r| {
            r.report.documents == torn.docs
                && r.report.admitted == torn.admitted
                && r.kg.graph.edge_count() == torn.edges
                && r.replayed_docs == torn.wal_docs
                && r.truncated_bytes > 0
        });
        wrong += u64::from(!intact);
        last = recovered.ok().map(|r| r.kg);
    }
    let window = (from_ns, env.log.now());
    let ops = meter.ops;
    let reps = ops.len();
    let m = &mut env.out.metrics;
    ops.put_universal(m);
    let open_us = m.get("op_p50_us").expect("put_universal reports it");
    m.put("recovery_s", open_us / 1e6, "s", reps);
    env.out.attempted += reps * torn.docs as u64;
    env.fail(
        wrong * torn.docs as u64,
        format!("{wrong} of {reps} recoveries lost an acknowledged document or differ from the acknowledged prefix"),
    );

    // The recovered graph must serve what the live one was told.
    let kg = last.ok_or_else(|| io::Error::other("no recovery succeeded"))?;
    let served = SharedSession::new(kg, TopicIndex::new(2), trend_monitor());
    let truth = narrated_truth(&torn.corpus.articles[..torn.docs]);
    let score = score_served(&served, &truth, &ontology_predicates());
    put_answers(&mut env.out.metrics, &score);

    // The decode share of a recovery: the same open without the WAL.
    let mut recovery = None;
    if env.args.traced {
        let mut full = Vec::new();
        let mut checkpoint_only = Vec::new();
        for _ in 0..3 {
            env.tick();
            full.push(open_copy(env, &torn.master, None)?.0 as f64);
            let skip = Some(torn.wal.as_os_str());
            checkpoint_only.push(open_copy(env, &torn.master, skip)?.0 as f64);
        }
        recovery = Some(Recovery {
            open_ns: stats::median(&full),
            checkpoint_only_ns: stats::median(&checkpoint_only),
            replayed_docs: torn.wal_docs,
        });
    }
    remove_dir(&torn.master);
    let sections = Sections {
        recovery,
        ..Default::default()
    };
    finish(env, &ops, window, torn.counts, &sections)
}

/// Truncate the WAL inside its last frame at a seeded offset: the crash
/// frontier.
fn tear_last_frame(wal: &Path, seed: u64) -> io::Result<()> {
    let scanned = nous_persist::wal::scan(wal)?;
    let payload = scanned
        .payloads
        .last()
        .ok_or_else(|| io::Error::other("empty WAL"))?;
    let frame = nous_persist::wal::FRAME_HEADER_BYTES + payload.len() as u64;
    let start = scanned.valid_len - frame;
    let cut = start + 1 + SplitMix(seed).below(frame as usize - 1) as u64;
    let file = std::fs::OpenOptions::new().write(true).open(wal)?;
    file.set_len(cut)
}

/// Run one workload. The caller owns `args.work_root`; this creates and
/// removes a per-process directory under it.
pub fn run_workload(args: &RunArgs) -> io::Result<Outcome> {
    let name = format!("work-{}-{}", args.workload, std::process::id());
    let work = args.work_root.join(name);
    remove_dir(&work);
    std::fs::create_dir_all(&work)?;
    let mut env = Env {
        args: args.clone(),
        sizes: Sizes::of(args.size),
        log: SpanLog::new(Instant::now(), 0),
        work: work.clone(),
        dirs: 0,
        out: Outcome {
            host_cpus: stats::host_cpus(),
            threads: 1,
            ..Default::default()
        },
        calib: Calibrator::default(),
        host_ns: Vec::new(),
    };
    let result = match args.workload.as_str() {
        "ingest_stream" => ingest_stream(&mut env),
        "ingest_adversarial" => ingest_adversarial(&mut env),
        "query_mix" => query_workload(&mut env, QueryMode::Mix),
        "query_path" => query_workload(&mut env, QueryMode::Path),
        "http_point" => query_workload(&mut env, QueryMode::Http),
        "live_mixed" => query_workload(&mut env, QueryMode::Live),
        "recover_replay" => recover_replay(&mut env),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown workload '{other}'"),
        )),
    };
    remove_dir(&work);
    result.map(|()| env.out)
}
