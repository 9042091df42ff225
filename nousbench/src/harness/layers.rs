//! The traced run's per-layer figures: set-up spans, the sampled direct
//! calls into `nous-text`/`nous-extract`/`nous-link`, every traced merge
//! and publish, the persistence counters, probes of the final graph and
//! of the serving path, and the ledger of the measured window.
//!
//! A workload hands over only the [`Sections`] that explain its own
//! end-to-end figures; every other figure reads 0 over 0 samples.
//! Durations are divided by the run's median host slowdown (`calib.rs`),
//! like the end-to-end figures they are meant to explain.

use super::queries::{Class, QueryProbe, WireProbe};
use super::spec::{Metric, Metrics, PER_LAYER};
use super::stats;
use super::system::{Counts, DocSample, IngestTrace};
use super::trace::{Layer, SpanLog};
use super::window::OpLog;
use nous_core::SharedSession;
use nous_graph::{FrozenView, GraphView};
use std::time::Instant;

/// What only `live_mixed` observes: its reader samples the snapshot
/// stack between blocks, its writer reports how late it ran.
#[derive(Debug, Default)]
pub struct LiveSamples {
    pub layers: Vec<f64>,
    pub snapshot_age_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
}

/// The traced ingest of a window that writes: per-call measurements,
/// acks, and the counters read at a fixed document count.
pub struct IngestInputs<'a> {
    pub trace: &'a IngestTrace,
    pub acks: &'a OpLog,
    pub counts: Counts,
}

/// `recover_replay`'s probe: medians of the full open and of the same
/// open on a copy without its WAL (checkpoint restore only).
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    pub open_ns: f64,
    pub checkpoint_only_ns: f64,
    pub replayed_docs: u64,
}

/// The groups of figures a workload reports, each present on the
/// workloads whose end-to-end figures it should move.
#[derive(Default)]
pub struct Sections<'a> {
    /// text, extract, link, core, persist: the window writes.
    pub ingest: Option<IngestInputs<'a>>,
    /// Freeze, compaction and size of this session's final graph.
    pub graph: Option<&'a SharedSession>,
    /// query and qa: the window serves in-process queries.
    pub probe: Option<&'a QueryProbe>,
    /// serve: the window serves over HTTP.
    pub wire: Option<&'a WireProbe>,
    pub live: Option<&'a LiveSamples>,
    pub recovery: Option<Recovery>,
}

/// Where the figures go: `time` divides a measured duration by the host
/// slowdown, `put` records a count or a ratio as it is.
struct Sink<'a> {
    m: &'a mut Metrics,
    slowdown: f64,
}

impl Sink<'_> {
    fn time(&mut self, name: &str, measured: f64, unit: &'static str, samples: u64) {
        self.m.put(name, measured / self.slowdown, unit, samples);
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.m.put(name, value, unit, samples);
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn mean_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    stats::mean(&items.iter().map(f).collect::<Vec<_>>())
}

fn percentile_of(values: &[f64], q: f64) -> f64 {
    stats::percentile(&stats::sorted(values.to_vec()), q)
}

/// Mean over the first or last fifth (by stream position) of
/// `(position, value)` samples: which stage grew with the graph.
fn fifth_mean(samples: &[(usize, f64)], last: bool) -> f64 {
    let lo = samples.iter().map(|s| s.0).min().unwrap_or(0);
    let hi = samples.iter().map(|s| s.0).max().unwrap_or(0);
    let cut = (hi - lo) / 5;
    let keep = |pos: usize| {
        if last {
            pos >= hi - cut
        } else {
            pos <= lo + cut
        }
    };
    let kept: Vec<f64> = samples.iter().filter(|s| keep(s.0)).map(|s| s.1).collect();
    stats::mean(&kept)
}

/// Duration in seconds of the newest span called `name`.
fn span_s(log: &SpanLog, name: &str) -> f64 {
    let span = log.spans.iter().rev().find(|s| s.name == name);
    span.map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e9)
}

/// Report every [`PER_LAYER`] name: 0 over 0 samples, unless one of the
/// workload's sections measures it.
pub fn put_per_layer(
    m: &mut Metrics,
    log: &SpanLog,
    ops: &OpLog,
    window: (u64, u64),
    slowdown: f64,
    x: &Sections<'_>,
) {
    for (name, unit, _) in PER_LAYER {
        let unmeasured = Metric {
            value: 0.0,
            unit,
            samples: 0,
        };
        m.0.entry(name.to_owned()).or_insert(unmeasured);
    }
    let mut sink = Sink {
        m: &mut *m,
        slowdown,
    };
    put_setup(&mut sink, log);
    if let Some(ingest) = &x.ingest {
        put_ingest(&mut sink, ingest);
        put_persist(&mut sink, ingest);
    }
    if let Some(live) = x.live {
        let ages = &live.snapshot_age_ms;
        let age_p99 = percentile_of(ages, 99.0);
        sink.time("core.snapshot_age_p99_ms", age_p99, "ms", ages.len() as u64);
        let late_p99 = percentile_of(&live.late_ms, 99.0);
        sink.time("gen.late_p99_ms", late_p99, "ms", live.late_ms.len() as u64);
    }
    if let Some(r) = x.recovery {
        sink.time("persist.recover_open_ms", r.open_ns / 1e6, "ms", 3);
        let decode = r.checkpoint_only_ns / 1e6;
        sink.time("persist.recover_decode_ms", decode, "ms", 3);
        let replay = (r.open_ns - r.checkpoint_only_ns).max(0.0) / 1e6;
        sink.time("persist.recover_replay_ms", replay, "ms", 3);
        sink.put("persist.replayed_docs", r.replayed_docs as f64, "count", 1);
    }
    if let Some(session) = x.graph {
        // Stack depth during the window where the reader sampled it
        // (`live_mixed`), during the probe, or as the window left it.
        let at_end = [session.frozen().view.merge_stats().layers as f64];
        let layers = x.live.map(|l| l.layers.as_slice());
        let layers = layers.or(x.probe.map(|p| p.layers.as_slice()));
        put_graph(&mut sink, session, layers.unwrap_or(&at_end));
    }
    if let Some(probe) = x.probe {
        put_queries(&mut sink, probe);
    }
    if let Some(wire) = x.wire {
        put_wire(&mut sink, wire);
    }
    put_ledger(&mut sink, log, ops, window);
    if let Some(ingest) = &x.ingest {
        ingest.acks.put_acks(m, "core.");
    }
}

fn put_setup(out: &mut Sink<'_>, log: &SpanLog) {
    for (metric, span) in [
        ("corpus.generate_s", "corpus.generate"),
        ("core.bootstrap_s", "core.bootstrap"),
        ("topics.build_index_s", "topics.build_index"),
        ("core.trends_observe_s", "core.trends_observe"),
    ] {
        out.time(metric, span_s(log, span), "s", 1);
    }
}

/// text, extract, link from the sampled direct calls; core from every
/// traced merge and publish.
fn put_ingest(out: &mut Sink<'_>, x: &IngestInputs<'_>) {
    let t = x.trace;
    let n = t.samples.len() as u64;
    let analyze: Vec<(usize, f64)> = t
        .samples
        .iter()
        .map(|s| (s.pos, us(s.analyze_ns)))
        .collect();
    let analyze_mean = mean_of(&t.samples, |s| us(s.analyze_ns));
    out.time("text.analyze_us_per_doc", analyze_mean, "us", n);
    let first = fifth_mean(&analyze, false);
    out.time("text.analyze_us_per_doc.first_fifth", first, "us", n / 5);
    let last = fifth_mean(&analyze, true);
    out.time("text.analyze_us_per_doc.last_fifth", last, "us", n / 5);
    let tokenize = mean_of(&t.samples, |s| us(s.tokenize_ns));
    out.time("text.tokenize_us_per_doc", tokenize, "us", n);
    let tokens: f64 = t.samples.iter().map(|s| s.tokens as f64).sum();
    let tokenize_s: f64 = t.samples.iter().map(|s| s.tokenize_ns as f64 / 1e9).sum();
    // A rate: the slowdown multiplies where it divides a duration.
    let tokens_per_s = tokens / tokenize_s.max(1e-9) * out.slowdown;
    out.put("text.tokens_per_s", tokens_per_s, "1/s", n);

    let traced_docs: f64 = t.extracts.iter().map(|e| e.0 as f64).sum::<f64>().max(1.0);
    let extract_call = t.extracts.iter().map(|e| us(e.1)).sum::<f64>() / traced_docs;
    out.time(
        "extract.call_us_per_doc",
        extract_call,
        "us",
        t.extracts.len() as u64,
    );
    let extract_self = mean_of(&t.samples, |s| {
        us(s.extract_ns.saturating_sub(s.analyze_ns))
    });
    out.time("extract.self_us_per_doc", extract_self, "us", n);
    let raw_per_doc = t.raw_tuples as f64 / traced_docs;
    let traced_docs = traced_docs as u64;
    out.put(
        "extract.raw_tuples_per_doc",
        raw_per_doc,
        "count",
        traced_docs,
    );
    let extractions = t.extractions as f64 / traced_docs as f64;
    out.put(
        "extract.extractions_per_doc",
        extractions,
        "count",
        traced_docs,
    );
    let docs = x.counts.docs.max(1) as f64;
    let counted = x.counts.docs as u64;
    let admitted_per_doc = x.counts.admitted as f64 / docs;
    // Admitted facts per raw tuple: how much of extraction was not wasted.
    let yielded = admitted_per_doc / raw_per_doc.max(1e-9);
    out.put("extract.yield", yielded, "ratio", counted);

    let link_map = mean_of(&t.samples, |s| us(s.map_ns));
    let link_resolve = mean_of(&t.samples, |s| us(s.resolve_ns));
    let sum = |f: fn(&DocSample) -> usize| -> f64 { t.samples.iter().map(|s| f(s) as f64).sum() };
    out.time("link.map_us_per_doc", link_map, "us", n);
    let (hits, predicates) = (sum(|s| s.map_hits), sum(|s| s.predicates));
    out.put(
        "link.map_hit_ratio",
        hits / predicates.max(1.0),
        "ratio",
        predicates as u64,
    );
    out.time("link.resolve_us_per_doc", link_resolve, "us", n);
    let (candidates, mentions) = (sum(|s| s.candidates), sum(|s| s.mentions));
    let per_mention = candidates / mentions.max(1.0);
    out.put(
        "link.candidates_per_mention",
        per_mention,
        "count",
        mentions as u64,
    );

    let merges: Vec<(usize, f64)> = t.merges.iter().map(|x| (x.0, us(x.1))).collect();
    let nm = merges.len() as u64;
    let merge = mean_of(&t.merges, |x| us(x.1));
    let journal = mean_of(&t.merges, |x| us(x.2));
    out.time("core.merge_us_per_doc", merge, "us", nm);
    let first = fifth_mean(&merges, false);
    out.time("core.merge_us_per_doc.first_fifth", first, "us", nm / 5);
    let last = fifth_mean(&merges, true);
    out.time("core.merge_us_per_doc.last_fifth", last, "us", nm / 5);
    // What is left of a merge after the journal (measured) and the link
    // calls (replayed on the sampled documents).
    let merge_self = merge - journal - link_map - link_resolve;
    out.time("core.merge_self_us_per_doc", merge_self, "us", nm);
    out.time("persist.journal_us_per_doc", journal, "us", nm);
    let publishes: Vec<(usize, f64)> = t.publishes.iter().map(|x| (x.0, us(x.1))).collect();
    let np = publishes.len() as u64;
    let publish = mean_of(&t.publishes, |x| us(x.1));
    out.time("core.publish_us_per_batch", publish, "us", np);
    let last = fifth_mean(&publishes, true);
    out.time("core.publish_us_per_batch.last_fifth", last, "us", np / 5);
    let publish_us: Vec<f64> = publishes.iter().map(|x| x.1).collect();
    out.time(
        "core.publish_p99_us",
        percentile_of(&publish_us, 99.0),
        "us",
        np,
    );
    out.put("core.admitted_per_doc", admitted_per_doc, "count", counted);
    let superseded = x.counts.superseded as f64 * 1e3 / docs;
    out.put("core.superseded_per_kdoc", superseded, "count", counted);
    out.put(
        "core.quarantined",
        x.counts.quarantined as f64,
        "count",
        counted,
    );
}

fn put_persist(out: &mut Sink<'_>, x: &IngestInputs<'_>) {
    let c = x.counts;
    let docs = c.docs.max(1) as f64;
    let counted = c.docs as u64;
    out.put(
        "persist.wal_bytes_per_doc",
        c.wal_bytes as f64 / docs,
        "B",
        counted,
    );
    let fsyncs = c.fsyncs as f64 * 1e3 / docs;
    out.put("persist.fsyncs_per_kdoc", fsyncs, "count", c.fsyncs);
    let per_checkpoint = c.checkpoint_bytes as f64 / c.checkpoints.max(1) as f64;
    out.put(
        "persist.checkpoint_bytes",
        per_checkpoint,
        "B",
        c.checkpoints,
    );
    // Count-triggered checkpoints inside the window; 0 over 0 samples
    // when the window crossed no threshold.
    let checkpoint_ns = &x.trace.checkpoint_ns;
    let checkpoint_ms = mean_of(checkpoint_ns, |n| ms(*n));
    let checkpoints = checkpoint_ns.len() as u64;
    out.time("persist.checkpoint_ms", checkpoint_ms, "ms", checkpoints);
}

/// Freeze and compaction of the final graph, and how deep the snapshot
/// stack was while the window read through it.
fn put_graph(out: &mut Sink<'_>, session: &SharedSession, layers: &[f64]) {
    let t0 = Instant::now();
    let frozen = session.read(|kg, _| FrozenView::freeze(&kg.graph));
    out.time(
        "graph.freeze_ms",
        ms(t0.elapsed().as_nanos() as u64),
        "ms",
        1,
    );
    out.put(
        "graph.live_edges",
        frozen.live_edge_count() as f64,
        "count",
        1,
    );
    out.put("graph.vertices", frozen.vertex_count() as f64, "count", 1);
    drop(frozen);
    let t0 = Instant::now();
    session.compact_now();
    out.time(
        "graph.compact_ms",
        ms(t0.elapsed().as_nanos() as u64),
        "ms",
        1,
    );
    out.put(
        "graph.layers_p50",
        percentile_of(layers, 50.0),
        "count",
        layers.len() as u64,
    );
}

fn put_queries(out: &mut Sink<'_>, probe: &QueryProbe) {
    let mut p50 = |name: &str, v: &[f64], unit: &'static str| {
        out.time(name, percentile_of(v, 50.0), unit, v.len() as u64);
    };
    p50("query.parse_us_p50", &probe.parse_us, "us");
    p50("query.render_us_p50", &probe.render_us, "us");
    p50("query.paths_max3.p50_ms", &probe.paths3_ms, "ms");
    p50("qa.why_search_us_p50", &probe.why_search_us, "us");
    for (class, v) in Class::ALL.iter().zip(&probe.per_class) {
        let n = v.len() as u64;
        for (q, label) in [(50.0, "p50"), (99.0, "p99")] {
            let name = format!("query.{}.{label}_us", class.name());
            out.time(&name, percentile_of(v, q), "us", n);
        }
    }
    let searches = probe.why_search_us.len() as u64;
    let expanded = stats::mean(&probe.nodes_expanded);
    out.put("qa.nodes_expanded_per_why", expanded, "count", searches);
    let evals = stats::mean(&probe.coherence_evals);
    out.put("qa.coherence_evals_per_why", evals, "count", searches);
}

/// The wire path: HTTP p50 minus the same queries in process, and how
/// much of it the request reader and response writer explain.
fn put_wire(out: &mut Sink<'_>, wire: &WireProbe) {
    let n = wire.http_point_us.len() as u64;
    let http = percentile_of(&wire.http_point_us, 50.0);
    let read = percentile_of(&wire.read_request_us, 50.0);
    let write = percentile_of(&wire.write_response_us, 50.0);
    let overhead = http - percentile_of(&wire.inproc_point_us, 50.0);
    out.time("serve.http_point_us_p50", http, "us", n);
    out.time("serve.read_request_us_p50", read, "us", n);
    out.time("serve.write_response_us_p50", write, "us", n);
    out.time("serve.wire_overhead_us_p50", overhead, "us", n);
    out.time(
        "serve.unattributed_us_p50",
        overhead - read - write,
        "us",
        n,
    );
    out.put("serve.shed", wire.shed as f64, "count", wire.requests);
    out.put("serve.non_200", wire.non_200 as f64, "count", wire.requests);
}

/// Layers a window can spend program time in, as the ledger names them.
const LEDGER_LAYERS: [Layer; 6] = [
    Layer::Extract,
    Layer::Core,
    Layer::Persist,
    Layer::Query,
    Layer::Serve,
    Layer::Harness,
];

/// Program self time per layer over the traced blocks of the window,
/// what the spans leave unexplained, and what tracing cost.
fn put_ledger(out: &mut Sink<'_>, log: &SpanLog, ops: &OpLog, window: (u64, u64)) {
    let by_layer = log.self_time_by_layer(window.0, window.1);
    let (traced_ops, traced_ns) = ops.traced_service();
    let traced_wall = traced_ns.max(1) as f64;
    let mut covered = 0.0;
    for layer in LEDGER_LAYERS {
        let ns = by_layer.get(&layer).copied().unwrap_or(0) as f64;
        let name = format!("ledger.{}_share", layer.name());
        out.put(&name, ns / traced_wall, "ratio", traced_ops);
        if layer != Layer::Harness {
            covered += ns;
        }
    }
    let residual = (traced_wall - covered).abs() / traced_wall;
    out.put("ledger.residual_fraction", residual, "ratio", traced_ops);
    out.put(
        "obs.trace_overhead_fraction",
        ops.trace_overhead(),
        "ratio",
        ops.len(),
    );
}
