//! The metrics registry: named, labelled instruments with Prometheus text
//! exposition and a deterministic JSON snapshot.
//!
//! Registration is get-or-create: asking twice for the same
//! `(name, labels)` hands back a handle to the same underlying metric, so
//! independent components can share one accounting stream (the pipeline's
//! counters *are* the ingest report — there is no second ledger).
//! Instruments are registered once and then used lock-free; the registry
//! mutex is only taken at registration and exposition time.

use crate::clock::{Clock, SystemClock};
use crate::flight::FlightRecorder;
use crate::metrics::{Counter, Gauge, Histogram, Unit, COUNT_BUCKETS, LATENCY_BUCKETS_NANOS};
use crate::trace::{trace_id_hex, ActiveSpan, Tracer};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

/// `(family name, sorted label pairs)` — the identity of one time series.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }

    /// `name` or `name{a="x",b="y"}`.
    fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let inner: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        format!("{}{{{}}}", self.name, inner.join(","))
    }

    /// Label set rendered for a `_bucket` line, with `le` appended.
    fn render_with_le(&self, le: &str) -> String {
        let mut parts: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        parts.push(format!("le=\"{le}\""));
        format!("{{{}}}", parts.join(","))
    }
}

#[derive(Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn type_name(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    help: String,
    instrument: Instrument,
}

struct Inner {
    clock: Arc<dyn Clock>,
    metrics: Mutex<BTreeMap<MetricKey, Entry>>,
    /// Installed at most once; a single lock-free load on the disabled
    /// path, so untraced deployments pay one branch per `trace()` call.
    tracer: OnceLock<Tracer>,
}

/// Shareable handle to a metric registry (clones observe the same store).
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.inner.metrics.lock().expect("metrics lock").len();
        write!(f, "MetricsRegistry({n} series)")
    }
}

impl MetricsRegistry {
    /// Registry on the real monotonic clock.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(SystemClock::new()))
    }

    /// Registry on an injected clock (tests use [`crate::ManualClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self {
            inner: Arc::new(Inner {
                clock,
                metrics: Mutex::new(BTreeMap::new()),
                tracer: OnceLock::new(),
            }),
        }
    }

    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.inner.clock)
    }

    /// Current reading of the registry clock, for manual stage timing.
    pub fn now_nanos(&self) -> u64 {
        self.inner.clock.now_nanos()
    }

    /// Install a request tracer. Returns `false` (and keeps the existing
    /// one) if a tracer is already installed.
    pub fn install_tracer(&self, tracer: Tracer) -> bool {
        self.inner.tracer.set(tracer).is_ok()
    }

    /// Build a tracer on this registry's clock (deterministic ids from
    /// `seed`, a flight recorder of `capacity` traces, slow log at
    /// `slow_threshold_nanos`), install it, and return the installed
    /// tracer — the already-installed one if tracing was on.
    pub fn enable_tracing(&self, seed: u64, capacity: usize, slow_threshold_nanos: u64) -> Tracer {
        let flight = FlightRecorder::with_slow_threshold(capacity, slow_threshold_nanos);
        let _ = self
            .inner
            .tracer
            .set(Tracer::new(self.clock(), seed, flight));
        self.inner.tracer.get().cloned().expect("tracer installed")
    }

    /// The installed tracer, if any.
    pub fn tracer(&self) -> Option<Tracer> {
        self.inner.tracer.get().cloned()
    }

    pub fn tracing_enabled(&self) -> bool {
        self.inner.tracer.get().is_some()
    }

    /// Open a root trace span named `name`, or a no-op span when no
    /// tracer is installed (one atomic load — the disabled path stays
    /// within noise).
    pub fn trace(&self, name: &'static str) -> ActiveSpan {
        match self.inner.tracer.get() {
            Some(t) => t.start_trace(name),
            None => ActiveSpan::disabled(),
        }
    }

    fn get_or_insert(
        &self,
        key: MetricKey,
        help: &str,
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let mut metrics = self.inner.metrics.lock().expect("metrics lock");
        let entry = metrics.entry(key.clone()).or_insert_with(|| Entry {
            help: help.to_string(),
            instrument: make(),
        });
        entry.instrument.clone()
    }

    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        match self.get_or_insert(key, help, || Instrument::Counter(Counter::new())) {
            Instrument::Counter(c) => c,
            other => panic!("metric {name} already registered as {}", other.type_name()),
        }
    }

    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        match self.get_or_insert(key, help, || Instrument::Gauge(Gauge::new())) {
            Instrument::Gauge(g) => g,
            other => panic!("metric {name} already registered as {}", other.type_name()),
        }
    }

    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        unit: Unit,
        bounds: &[u64],
    ) -> Histogram {
        let key = MetricKey::new(name, labels);
        match self.get_or_insert(key, help, || {
            Instrument::Histogram(Histogram::new(unit, bounds))
        }) {
            Instrument::Histogram(h) => h,
            other => panic!("metric {name} already registered as {}", other.type_name()),
        }
    }

    /// Latency histogram (nanosecond observations, second exposition) on
    /// the default decade buckets. Name it `*_seconds` by convention.
    pub fn latency(&self, name: &str, help: &str) -> Histogram {
        self.latency_with(name, help, &[])
    }

    pub fn latency_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram_with(name, help, labels, Unit::Nanos, LATENCY_BUCKETS_NANOS)
    }

    /// Dimensionless size histogram on the default count buckets.
    pub fn sizes(&self, name: &str, help: &str) -> Histogram {
        self.sizes_with(name, help, &[])
    }

    pub fn sizes_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram_with(name, help, labels, Unit::Count, COUNT_BUCKETS)
    }

    /// Start a scoped timer that observes into `hist` (nanoseconds) when
    /// dropped or [`Span::stop`]ped.
    pub fn start(&self, hist: &Histogram) -> Span {
        Span {
            hist: hist.clone(),
            clock: self.clock(),
            start: self.now_nanos(),
            recorded: false,
            exemplar: 0,
        }
    }

    /// An accumulating stage timer on `hist`: interleaved intervals are
    /// summed ([`StageAcc::enter`]) and observed as one value when the
    /// accumulator finishes or drops.
    pub fn stage_acc(&self, hist: &Histogram) -> StageAcc {
        StageAcc {
            hist: hist.clone(),
            clock: self.clock(),
            total: 0,
            first_start: None,
            exemplar: 0,
            recorded: false,
        }
    }

    /// Register-and-start in one call: a latency histogram named `name`
    /// with `labels`, timed from now until the span drops.
    pub fn span_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Span {
        let hist = self.latency_with(name, help, labels);
        self.start(&hist)
    }

    /// Read a counter back, if registered.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = MetricKey::new(name, labels);
        let metrics = self.inner.metrics.lock().expect("metrics lock");
        match metrics.get(&key).map(|e| e.instrument.clone()) {
            Some(Instrument::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// Read a gauge back, if registered.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        let key = MetricKey::new(name, labels);
        let metrics = self.inner.metrics.lock().expect("metrics lock");
        match metrics.get(&key).map(|e| e.instrument.clone()) {
            Some(Instrument::Gauge(g)) => Some(g.get()),
            _ => None,
        }
    }

    /// Every series of a counter family: `(label pairs, value)`, sorted by
    /// labels. Used e.g. to count how many fan-out workers reported.
    pub fn counter_family(&self, name: &str) -> Vec<(Vec<(String, String)>, u64)> {
        let metrics = self.inner.metrics.lock().expect("metrics lock");
        metrics
            .iter()
            .filter(|(k, _)| k.name == name)
            .filter_map(|(k, e)| match &e.instrument {
                Instrument::Counter(c) => Some((k.labels.clone(), c.get())),
                _ => None,
            })
            .collect()
    }

    /// Prometheus text exposition, series sorted by name then labels;
    /// `TYPE`/`HELP` emitted once per family (`TYPE` first), HELP text
    /// and label values escaped per the exposition format. Buckets with
    /// a recorded exemplar carry an OpenMetrics-style
    /// `# {trace_id="…"} value` suffix pointing into the flight
    /// recorder.
    pub fn render_prometheus(&self) -> String {
        let metrics = self.inner.metrics.lock().expect("metrics lock");
        let mut out = String::new();
        let mut last_family: Option<&str> = None;
        for (key, entry) in metrics.iter() {
            if last_family != Some(key.name.as_str()) {
                let _ = writeln!(out, "# TYPE {} {}", key.name, entry.instrument.type_name());
                let _ = writeln!(out, "# HELP {} {}", key.name, escape_help(&entry.help));
                last_family = Some(key.name.as_str());
            }
            match &entry.instrument {
                Instrument::Counter(c) => {
                    let _ = writeln!(out, "{} {}", key.render(), c.get());
                }
                Instrument::Gauge(g) => {
                    let _ = writeln!(out, "{} {}", key.render(), g.get());
                }
                Instrument::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cum = 0u64;
                    for (i, &bound) in h.bounds().iter().enumerate() {
                        cum += counts[i];
                        let le = scale(bound, h.unit());
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}{}",
                            key.name,
                            key.render_with_le(&le),
                            cum,
                            exemplar_suffix(h, i)
                        );
                    }
                    cum += counts[h.bounds().len()];
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}{}",
                        key.name,
                        key.render_with_le("+Inf"),
                        cum,
                        exemplar_suffix(h, h.bounds().len())
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        key.name,
                        render_suffix_labels(key),
                        scale(h.sum(), h.unit())
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        key.name,
                        render_suffix_labels(key),
                        h.count()
                    );
                }
            }
        }
        out
    }

    /// Deterministic JSON snapshot: sorted keys, integer raw units
    /// (nanoseconds for latency histograms), shortest-round-trip floats
    /// for the derived quantiles. Identical instrument states render
    /// byte-identically.
    pub fn snapshot_json(&self) -> String {
        let metrics = self.inner.metrics.lock().expect("metrics lock");
        let mut counters: Vec<String> = Vec::new();
        let mut gauges: Vec<String> = Vec::new();
        let mut histograms: Vec<String> = Vec::new();
        for (key, entry) in metrics.iter() {
            let name = json_escape(&key.render());
            match &entry.instrument {
                Instrument::Counter(c) => {
                    counters.push(format!("\"{}\":{}", name, c.get()));
                }
                Instrument::Gauge(g) => {
                    gauges.push(format!("\"{}\":{}", name, g.get()));
                }
                Instrument::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut buckets: Vec<String> = h
                        .bounds()
                        .iter()
                        .enumerate()
                        .map(|(i, &b)| format!("[{},{}]", b, counts[i]))
                        .collect();
                    buckets.push(format!("[\"+Inf\",{}]", counts[h.bounds().len()]));
                    // Exemplar fields only appear once a traced
                    // observation landed, so untraced snapshots are
                    // byte-identical to the pre-exemplar format.
                    let exemplars = if h.max_exemplar() == 0 {
                        String::new()
                    } else {
                        format!(
                            ",\"max_exemplar\":\"{}\",\"p99_exemplar\":\"{}\"",
                            trace_id_hex(h.max_exemplar()),
                            trace_id_hex(h.p99_exemplar())
                        )
                    };
                    histograms.push(format!(
                        "\"{}\":{{\"unit\":\"{}\",\"count\":{},\"sum\":{},\"max\":{},\
                         \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{}]{}}}",
                        name,
                        match h.unit() {
                            Unit::Nanos => "nanos",
                            Unit::Count => "count",
                        },
                        h.count(),
                        h.sum(),
                        h.max(),
                        h.p50(),
                        h.p90(),
                        h.p99(),
                        buckets.join(","),
                        exemplars
                    ));
                }
            }
        }
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            histograms.join(",")
        )
    }
}

/// `_sum` / `_count` keep the series labels (no `le`).
fn render_suffix_labels(key: &MetricKey) -> String {
    if key.labels.is_empty() {
        String::new()
    } else {
        let inner: Vec<String> = key
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        format!("{{{}}}", inner.join(","))
    }
}

/// Label-value escaping per the exposition format: backslash, double
/// quote, newline.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// HELP-text escaping per the exposition format: backslash and newline.
fn escape_help(h: &str) -> String {
    h.replace('\\', "\\\\").replace('\n', "\\n")
}

/// ` # {trace_id="…"} value` when bucket `i` holds an exemplar, else
/// empty. OpenMetrics syntax; Prometheus-0.0.4-only scrapers that choke
/// on it simply shouldn't enable tracing.
fn exemplar_suffix(h: &Histogram, i: usize) -> String {
    let (trace_id, value) = h.bucket_exemplar(i);
    if trace_id == 0 {
        String::new()
    } else {
        format!(
            " # {{trace_id=\"{}\"}} {}",
            trace_id_hex(trace_id),
            scale(value, h.unit())
        )
    }
}

/// Raw value → exposition string: seconds for nanosecond histograms
/// (shortest-round-trip float formatting — deterministic), raw integers
/// for counts.
fn scale(raw: u64, unit: Unit) -> String {
    match unit {
        Unit::Nanos => format!("{}", raw as f64 / 1e9),
        Unit::Count => format!("{raw}"),
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A scoped stage timer: records the elapsed clock time into its
/// histogram when dropped (or explicitly via [`Span::stop`]) — early
/// returns and panics record through `Drop`.
pub struct Span {
    hist: Histogram,
    clock: Arc<dyn Clock>,
    start: u64,
    recorded: bool,
    exemplar: u64,
}

/// The ingestion code calls these "stage timers"; same mechanism.
pub type StageTimer = Span;

impl Span {
    /// Tag the eventual observation with a trace id, making this span's
    /// latency an exemplar candidate (see [`Histogram::observe_traced`]).
    pub fn with_exemplar(mut self, trace_id: u64) -> Span {
        self.exemplar = trace_id;
        self
    }

    /// Stop now and return the recorded duration in nanoseconds.
    pub fn stop(mut self) -> u64 {
        let elapsed = self.clock.now_nanos().saturating_sub(self.start);
        self.hist.observe_traced(elapsed, self.exemplar);
        self.recorded = true;
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.recorded {
            let elapsed = self.clock.now_nanos().saturating_sub(self.start);
            self.hist.observe_traced(elapsed, self.exemplar);
        }
    }
}

/// An accumulating stage timer: sums interleaved intervals (the ingest
/// pipeline re-enters each stage once per extracted tuple) and observes
/// the total as **one** histogram observation when finished or dropped.
///
/// Both layers are drop-safe: an in-flight [`StageGuard`] banks its
/// partial interval on unwind, and the accumulator itself observes on
/// drop — so a panicking tuple still surfaces the stage time it burned.
pub struct StageAcc {
    hist: Histogram,
    clock: Arc<dyn Clock>,
    total: u64,
    first_start: Option<u64>,
    exemplar: u64,
    recorded: bool,
}

impl StageAcc {
    /// Start one accumulation interval; it ends (and banks its elapsed
    /// time) when the guard drops.
    pub fn enter(&mut self) -> StageGuard<'_> {
        let start = self.clock.now_nanos();
        StageGuard { acc: self, start }
    }

    /// Tag the eventual observation with a trace id (exemplar).
    pub fn set_exemplar(&mut self, trace_id: u64) {
        self.exemplar = trace_id;
    }

    /// Nanoseconds accumulated so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Clock reading at the first `enter`, if any interval ran.
    pub fn first_start(&self) -> Option<u64> {
        self.first_start
    }

    /// Observe now; returns `(total, first interval start)` for trace
    /// span recording.
    pub fn finish(mut self) -> (u64, u64) {
        let first = self.first_start.unwrap_or(0);
        self.record();
        (self.total, first)
    }

    fn record(&mut self) {
        if !self.recorded {
            self.recorded = true;
            self.hist.observe_traced(self.total, self.exemplar);
        }
    }
}

impl Drop for StageAcc {
    fn drop(&mut self) {
        self.record();
    }
}

/// One open interval of a [`StageAcc`]; drop ends it.
pub struct StageGuard<'a> {
    acc: &'a mut StageAcc,
    start: u64,
}

impl Drop for StageGuard<'_> {
    fn drop(&mut self) {
        let end = self.acc.clock.now_nanos();
        self.acc.total += end.saturating_sub(self.start);
        if self.acc.first_start.is_none() {
            self.acc.first_start = Some(self.start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn get_or_create_shares_state() {
        let r = MetricsRegistry::new();
        let a = r.counter("x_total", "x");
        let b = r.counter("x_total", "x");
        a.inc();
        b.inc();
        assert_eq!(r.counter_value("x_total", &[]), Some(2));
    }

    #[test]
    fn labelled_series_are_distinct() {
        let r = MetricsRegistry::new();
        r.counter_with("q_total", "q", &[("class", "why")]).add(3);
        r.counter_with("q_total", "q", &[("class", "match")]).inc();
        assert_eq!(r.counter_value("q_total", &[("class", "why")]), Some(3));
        assert_eq!(r.counter_value("q_total", &[("class", "match")]), Some(1));
        let fam = r.counter_family("q_total");
        assert_eq!(fam.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("m", "m");
        r.gauge("m", "m");
    }

    #[test]
    fn span_records_elapsed_on_manual_clock() {
        let clock = ManualClock::shared();
        let r = MetricsRegistry::with_clock(clock.clone());
        let h = r.latency("op_seconds", "op");
        {
            let span = r.start(&h);
            clock.advance(5_000);
            drop(span);
        }
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 5_000);
        let explicit = r.span_with("op_seconds", "op", &[]);
        clock.advance(100);
        assert_eq!(explicit.stop(), 100);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let clock = ManualClock::shared();
        let r = MetricsRegistry::with_clock(clock.clone());
        r.counter("a_total", "counts a").add(7);
        r.gauge_with("g", "a gauge", &[("kind", "x")]).set(-2);
        let h = r.latency_with("lat_seconds", "latency", &[("stage", "map")]);
        h.observe(1_000); // first bucket (1µs)
        h.observe(2_000_000_000); // (1s, 10s]
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE a_total counter"), "{text}");
        assert!(text.contains("a_total 7"));
        assert!(text.contains("g{kind=\"x\"} -2"));
        assert!(text.contains("# TYPE lat_seconds histogram"));
        assert!(text.contains("lat_seconds_bucket{stage=\"map\",le=\"0.000001\"} 1"));
        assert!(text.contains("lat_seconds_bucket{stage=\"map\",le=\"+Inf\"} 2"));
        assert!(text.contains("lat_seconds_count{stage=\"map\"} 2"));
        assert!(text.contains("lat_seconds_sum{stage=\"map\"} 2.000001"));
    }

    #[test]
    fn span_records_on_panic_unwind() {
        let clock = ManualClock::shared();
        let r = MetricsRegistry::with_clock(clock.clone());
        let h = r.latency("op_seconds", "op");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = r.start(&h);
            clock.advance(7_000);
            panic!("injected");
        }));
        assert!(result.is_err());
        assert_eq!(h.count(), 1, "drop during unwind still observes");
        assert_eq!(h.sum(), 7_000);
    }

    #[test]
    fn stage_acc_sums_intervals_into_one_observation() {
        let clock = ManualClock::shared();
        let r = MetricsRegistry::with_clock(clock.clone());
        let h = r.latency("stage_seconds", "stage");
        let mut acc = r.stage_acc(&h);
        clock.advance(100); // before the first interval: not counted
        {
            let _g = acc.enter();
            clock.advance(30);
        }
        clock.advance(1_000); // between intervals: not counted
        {
            let _g = acc.enter();
            clock.advance(12);
        }
        assert_eq!(acc.total(), 42);
        assert_eq!(acc.first_start(), Some(100));
        let (total, first) = acc.finish();
        assert_eq!((total, first), (42, 100));
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 42);
    }

    #[test]
    fn stage_acc_records_partial_interval_on_panic() {
        let clock = ManualClock::shared();
        let r = MetricsRegistry::with_clock(clock.clone());
        let h = r.latency("stage_seconds", "stage");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut acc = r.stage_acc(&h);
            let _g = acc.enter();
            clock.advance(500);
            panic!("mid-interval");
        }));
        assert!(result.is_err());
        assert_eq!(h.count(), 1, "accumulator observes on unwind");
        assert_eq!(h.sum(), 500, "open interval banked before observing");
    }

    #[test]
    fn trace_is_disabled_until_tracer_installed() {
        let r = MetricsRegistry::with_clock(ManualClock::shared());
        assert!(!r.tracing_enabled());
        let span = r.trace("query");
        assert!(!span.is_enabled());
        assert_eq!(span.trace_id(), 0);
        drop(span);
        let tracer = r.enable_tracing(9, 4, u64::MAX);
        assert!(r.tracing_enabled());
        let span = r.trace("query");
        assert!(span.is_enabled());
        drop(span);
        assert_eq!(tracer.flight().recorded_total(), 1);
        // Second enable keeps the first tracer.
        let again = r.enable_tracing(1234, 99, 0);
        assert_eq!(again.flight().capacity(), 4);
    }

    #[test]
    fn exemplars_surface_in_exposition_and_snapshot() {
        let r = MetricsRegistry::with_clock(ManualClock::shared());
        let h = r.latency("q_seconds", "query latency");
        h.observe(500); // untraced
        h.observe_traced(2_000, 0xBEEF);
        let text = r.render_prometheus();
        assert!(
            text.contains(
                "q_seconds_bucket{le=\"0.00001\"} 2 # {trace_id=\"000000000000beef\"} 0.000002"
            ),
            "{text}"
        );
        assert!(
            !text.contains("le=\"0.000001\"} 1 #"),
            "untraced bucket has no exemplar: {text}"
        );
        let json = r.snapshot_json();
        assert!(
            json.contains("\"max_exemplar\":\"000000000000beef\""),
            "{json}"
        );
        assert!(
            json.contains("\"p99_exemplar\":\"000000000000beef\""),
            "{json}"
        );
    }

    #[test]
    fn exposition_escapes_help_and_label_values() {
        let r = MetricsRegistry::with_clock(ManualClock::shared());
        r.counter_with(
            "esc_total",
            "line one\nback\\slash",
            &[("q", "say \"hi\"\nplease\\now")],
        )
        .inc();
        let text = r.render_prometheus();
        assert!(
            text.contains("# HELP esc_total line one\\nback\\\\slash"),
            "{text}"
        );
        assert!(
            text.contains("esc_total{q=\"say \\\"hi\\\"\\nplease\\\\now\"} 1"),
            "{text}"
        );
        // TYPE precedes HELP for every family.
        let type_at = text.find("# TYPE esc_total").unwrap();
        let help_at = text.find("# HELP esc_total").unwrap();
        assert!(type_at < help_at);
    }

    #[test]
    fn json_snapshot_is_deterministic() {
        let build = || {
            let r = MetricsRegistry::with_clock(ManualClock::shared());
            r.counter("b_total", "b").add(3);
            r.counter("a_total", "a").inc();
            r.gauge("g", "g").set(4);
            let h = r.sizes("frontier", "frontier sizes");
            h.observe(3);
            h.observe(70);
            r.snapshot_json()
        };
        let one = build();
        let two = build();
        assert_eq!(one, two);
        // Sorted keys regardless of registration order.
        let a = one.find("a_total").unwrap();
        let b = one.find("b_total").unwrap();
        assert!(a < b);
        assert!(one.contains("\"frontier\":{\"unit\":\"count\",\"count\":2"));
    }
}
