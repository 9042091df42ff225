//! The measured window: the operation log the end-to-end figures come
//! from, the meter that feeds it (calibration, plain-versus-traced
//! blocks, the deadline), and the two loops — ingest, closed-loop
//! queries — every workload is built from.
//!
//! Throughput is operations over the time the program was *serving*
//! them (the sum of their service times), so what the harness does
//! between two operations — generating the next query, scoring answers,
//! the calibration kernel itself — is never the program's time.

use super::calib::{smoothed_slowdowns, Calibrator};
use super::queries::Class;
use super::spec::{Metrics, BATCH};
use super::stats;
use super::system::System;
use super::trace::SpanLog;
use nous_corpus::Article;
use std::time::{Duration, Instant};

/// One measured operation.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Query class, for the per-family figures.
    pub class: Option<Class>,
    /// Documents in a batch or behind a recovery, 1 per query.
    pub weight: u32,
    /// How long the operation kept the program busy.
    pub service_ns: u64,
    /// How long its caller waited: equal to the service time in a closed
    /// loop, measured from the due time in an open one.
    pub latency_ns: u64,
    block: u32,
}

/// Operations of one window in blocks; each block starts with one run of
/// the calibration kernel and is either plain or traced.
#[derive(Default)]
pub struct OpLog {
    ops: Vec<Op>,
    kernel_ns: Vec<u64>,
    traced: Vec<bool>,
}

impl OpLog {
    pub fn len(&self) -> u64 {
        self.ops.len() as u64
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    pub fn weight(&self) -> u64 {
        self.ops.iter().map(|o| u64::from(o.weight)).sum()
    }

    pub fn kernel_samples(&self) -> &[u64] {
        &self.kernel_ns
    }

    /// Slowdown of the host around each operation.
    fn slowdowns(&self) -> Vec<f64> {
        let by_block = smoothed_slowdowns(&self.kernel_ns);
        self.ops
            .iter()
            .map(|o| by_block[o.block as usize])
            .collect()
    }

    /// Ascending latencies in microseconds at reference speed, of the
    /// operations `keep` selects.
    pub fn latencies_us(&self, keep: impl Fn(&Op) -> bool) -> Vec<f64> {
        let slow = self.slowdowns();
        let kept = self.ops.iter().zip(&slow).filter(|(o, _)| keep(o));
        stats::sorted(kept.map(|(o, s)| o.latency_ns as f64 / 1e3 / s).collect())
    }

    /// Weight per second of service over `ops[from..]`, at reference
    /// speed.
    fn rate(&self, from: usize, slow: &[f64]) -> f64 {
        let mut weight = 0.0;
        let mut secs = 0.0;
        for (o, s) in self.ops.iter().zip(slow).skip(from) {
            weight += f64::from(o.weight);
            secs += o.service_ns as f64 / 1e9 / s;
        }
        weight / secs.max(1e-12)
    }

    /// The figures every workload reports about its window, at reference
    /// speed, and the host slowdown they were divided by.
    pub fn put_universal(&self, m: &mut Metrics) {
        let n = self.ops.len();
        // The last fifth of the operations, at least one.
        let tail_from = n - (n / 5).max(1).min(n);
        let (all, tail) = (n as u64, (n - tail_from) as u64);
        let slow = self.slowdowns();
        m.put("ops_per_s", self.rate(0, &slow), "1/s", all);
        let last_fifth = self.rate(tail_from, &slow);
        m.put("ops_per_s_last_fifth", last_fifth, "1/s", tail);
        let lat = self.latencies_us(|_| true);
        m.put("op_p50_us", stats::percentile(&lat, 50.0), "us", all);
        m.put("op_p95_us", stats::percentile(&lat, 95.0), "us", all);
        let blocks = stats::sorted(smoothed_slowdowns(&self.kernel_ns));
        let sampled = blocks.len() as u64;
        let p50 = stats::percentile(&blocks, 50.0);
        m.put("host.slowdown_p50", p50, "ratio", sampled);
        let max = blocks.last().copied().unwrap_or(0.0);
        m.put("host.slowdown_max", max, "ratio", sampled);
    }

    /// Ack percentiles of an ingest phase, in milliseconds.
    pub fn put_acks(&self, m: &mut Metrics, prefix: &str) {
        let lat = self.latencies_us(|_| true);
        for (name, q) in [("ack_p50_ms", 50.0), ("ack_p95_ms", 95.0)] {
            let v = stats::percentile(&lat, q) / 1e3;
            m.put(&format!("{prefix}{name}"), v, "ms", self.len());
        }
    }

    /// Point-family and path-family percentiles, where the window had
    /// queries of the family.
    pub fn put_families(&self, m: &mut Metrics) {
        for (name, point) in [("point", true), ("path", false)] {
            let lat = self.latencies_us(|o| o.class.is_some_and(|c| c.is_point() == point));
            if lat.is_empty() {
                continue;
            }
            for (q, label) in [(50.0, "p50"), (99.0, "p99")] {
                let v = stats::percentile(&lat, q);
                m.put(&format!("{name}_{label}_us"), v, "us", lat.len() as u64);
            }
        }
    }

    /// `(operations, raw service ns)` of the traced blocks: what the
    /// spans of the window have to add up to.
    pub fn traced_service(&self) -> (u64, u64) {
        let traced = self.ops.iter().filter(|o| self.traced[o.block as usize]);
        traced.fold((0, 0), |(n, ns), o| (n + 1, ns + o.service_ns))
    }

    /// Service time per unit of weight in the traced blocks over the same
    /// in the plain blocks, minus 1, both at reference speed: what the
    /// spans cost, measured on the same graph state within one process.
    pub fn trace_overhead(&self) -> f64 {
        let slow = self.slowdowns();
        let mut sums = [(0.0, 0.0); 2];
        for (o, s) in self.ops.iter().zip(&slow) {
            let side = &mut sums[usize::from(self.traced[o.block as usize])];
            side.0 += o.service_ns as f64 / s;
            side.1 += f64::from(o.weight);
        }
        let [(plain_ns, plain_w), (traced_ns, traced_w)] = sums;
        if plain_w == 0.0 || traced_w == 0.0 {
            return 0.0;
        }
        (traced_ns / traced_w) / (plain_ns / plain_w) - 1.0
    }
}

/// Feeds one [`OpLog`]: owns the calibration kernel of its thread, knows
/// when the window closes and which blocks of a traced run are traced.
pub struct Meter {
    pub ops: OpLog,
    calib: Calibrator,
    traced_run: bool,
    started: Instant,
    budget: Option<Duration>,
}

impl Meter {
    /// A window of `seconds` of wall clock starting now.
    pub fn window(seconds: f64, traced_run: bool) -> Self {
        Meter {
            budget: Some(Duration::from_secs_f64(seconds)),
            ..Meter::unbounded(traced_run)
        }
    }

    /// For a phase that ends with its input, not with a deadline.
    pub fn unbounded(traced_run: bool) -> Self {
        Meter {
            ops: OpLog::default(),
            calib: Calibrator::default(),
            traced_run,
            started: Instant::now(),
            budget: None,
        }
    }

    pub fn open(&self) -> bool {
        self.budget.is_none_or(|b| self.started.elapsed() < b)
    }

    /// Start the next block with one kernel run. A traced run alternates
    /// plain and traced blocks; returns whether this one is traced.
    pub fn begin_block(&mut self) -> bool {
        let traced = self.traced_run && self.ops.traced.len() % 2 == 1;
        self.ops.kernel_ns.push(self.calib.sample());
        self.ops.traced.push(traced);
        traced
    }

    /// Record one operation of the current block.
    pub fn push(&mut self, class: Option<Class>, weight: u32, service_ns: u64, latency_ns: u64) {
        let block = self
            .ops
            .kernel_ns
            .len()
            .checked_sub(1)
            .expect("a block was begun") as u32;
        self.ops.ops.push(Op {
            class,
            weight,
            service_ns,
            latency_ns,
            block,
        });
    }
}

/// Micro-batches per block of an ingest window.
const INGEST_BLOCK: usize = 4;
/// Queries per block of a query window.
pub const QUERY_BLOCK: usize = 64;

/// Ingest `articles[from..]` in micro-batches until the meter's window
/// closes (or the articles run out), calling `at_stop(sys, stop index)`
/// at each of the ascending document counts in `stops`. Past the
/// deadline ingestion continues unmeasured up to the last stop, so checks
/// at fixed positions always happen. Returns the next article index.
pub fn ingest_window(
    sys: &mut System,
    articles: &[Article],
    from: usize,
    stops: &[usize],
    meter: &mut Meter,
    log: &mut SpanLog,
    mut at_stop: impl FnMut(&mut System, usize),
) -> usize {
    let mut pos = from;
    let mut next_stop = stops.iter().position(|s| *s > pos).unwrap_or(stops.len());
    let mut batch = 0usize;
    let mut traced = false;
    while pos < articles.len() {
        let timed = meter.open();
        if !timed && next_stop >= stops.len() {
            break;
        }
        let mut end = (pos + BATCH).min(articles.len());
        if let Some(stop) = stops.get(next_stop) {
            end = end.min(*stop);
        }
        let chunk = &articles[pos..end];
        if timed {
            if batch.is_multiple_of(INGEST_BLOCK) {
                traced = meter.begin_block();
            }
            let (ack, checkpoint) = sys.ingest_batch(chunk, traced.then_some(&mut *log));
            meter.push(None, chunk.len() as u32, ack + checkpoint, ack);
        } else {
            sys.ingest_batch(chunk, None);
        }
        pos = end;
        batch += 1;
        if stops.get(next_stop) == Some(&pos) {
            at_stop(sys, next_stop);
            next_stop += 1;
        }
    }
    pos
}

/// One closed-loop client: the next query goes out when the previous
/// answer is in. `serve(text, log)` returns `(latency ns, failed)`;
/// `between_blocks` runs off the clock after every block. The deadline is
/// checked between blocks. Returns how many queries failed.
pub fn query_window(
    meter: &mut Meter,
    log: &mut SpanLog,
    mut next: impl FnMut() -> (Class, String),
    mut serve: impl FnMut(&str, Option<(&mut SpanLog, u64)>) -> (u64, bool),
    mut between_blocks: impl FnMut(),
) -> u64 {
    let mut failed = 0u64;
    while meter.open() {
        let traced = meter.begin_block();
        for _ in 0..QUERY_BLOCK {
            let (class, text) = next();
            let id = meter.ops.len();
            let (ns, bad) = serve(&text, traced.then_some((&mut *log, id)));
            meter.push(Some(class), 1, ns, ns);
            failed += u64::from(bad);
        }
        between_blocks();
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(ops: &[(u32, u64)], kernel_ns: u64) -> OpLog {
        let mut log = OpLog::default();
        for (i, (weight, ns)) in ops.iter().enumerate() {
            log.kernel_ns.push(kernel_ns);
            log.traced.push(i % 2 == 1);
            log.ops.push(Op {
                class: None,
                weight: *weight,
                service_ns: *ns,
                latency_ns: *ns,
                block: i as u32,
            });
        }
        log
    }

    #[test]
    fn a_slow_host_reads_like_the_reference_host() {
        let ops = [
            (10, 1_000_000),
            (10, 1_000_000),
            (10, 2_000_000),
            (10, 2_000_000),
            (10, 4_000_000),
        ];
        let mut reference = Metrics::default();
        log_of(&ops, 26_000).put_universal(&mut reference);
        let doubled: Vec<(u32, u64)> = ops.iter().map(|(w, ns)| (*w, ns * 2)).collect();
        let mut slow = Metrics::default();
        log_of(&doubled, 52_000).put_universal(&mut slow);
        for name in [
            "ops_per_s",
            "ops_per_s_last_fifth",
            "op_p50_us",
            "op_p95_us",
        ] {
            assert_eq!(reference.get(name), slow.get(name), "{name}");
        }
        assert_eq!(reference.get("ops_per_s"), Some(5_000.0));
        assert_eq!(reference.get("ops_per_s_last_fifth"), Some(2_500.0));
        assert_eq!(slow.get("host.slowdown_p50"), Some(2.0));
    }

    #[test]
    fn overhead_compares_traced_with_plain_blocks() {
        // Odd blocks are traced and 10% dearer per document.
        let log = log_of(&[(16, 1_000), (16, 1_100), (8, 500), (8, 550)], 26_000);
        assert!((log.trace_overhead() - 0.10).abs() < 1e-9);
        assert_eq!(log.traced_service(), (2, 1_650));
    }
}
