//! Harness-side spans: one record per call into a layer, held in memory
//! and written out as a Chrome `trace_event` file when the run ends.
//!
//! The program's own tracer stays off; every span here is recorded by
//! the harness around a call into a public function, so adding tracing
//! changes nothing in the code under test. A span's *self time* is its
//! duration minus what its direct children cover, and the per-layer
//! ledger is the sum of self times by [`Layer`].

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The crate a span's time is charged to. `Harness` is the benchmark's
/// own work (conversions, bookkeeping); `Probe` is extra work a traced
/// run does to split a layer (direct replays) — both are overhead, not
/// program time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Harness,
    Probe,
    Corpus,
    /// `nous-text` + `nous-extract` as one call (`extract_documents`);
    /// the sampled probes split it.
    Extract,
    /// `IngestPipeline::merge_extraction`: link + core admission; the
    /// sampled link replay and the journal child split it.
    Core,
    Persist,
    Graph,
    Query,
    Qa,
    Serve,
    Topics,
    Mining,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Probe => "probe",
            Layer::Corpus => "corpus",
            Layer::Extract => "extract",
            Layer::Core => "core",
            Layer::Persist => "persist",
            Layer::Graph => "graph",
            Layer::Query => "query",
            Layer::Qa => "qa",
            Layer::Serve => "serve",
            Layer::Topics => "topics",
            Layer::Mining => "mining",
        }
    }
}

/// Root spans of measured operations: one micro-batch, one in-process
/// query, one HTTP exchange, one recovery.
pub const OP_ROOTS: [&str; 4] = ["ingest.batch", "query", "http.exchange", "persist.open"];

pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Shared by all spans of one operation (micro-batch or request).
    pub trace_id: u64,
    /// Thread lane in the trace file (0 = driver, 1 = second thread).
    pub lane: u32,
}

/// In-memory span store for one thread. Threads of one run share the
/// epoch so their timestamps line up when the logs are merged.
pub struct SpanLog {
    epoch: Instant,
    lane: u32,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, lane: u32) -> Self {
        Self {
            epoch,
            lane,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span.
    pub fn push(
        &mut self,
        name: &'static str,
        layer: Layer,
        trace_id: u64,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            trace_id,
            lane: self.lane,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Open a span whose children are recorded before it ends.
    pub fn open(
        &mut self,
        name: &'static str,
        layer: Layer,
        trace_id: u64,
        parent: SpanId,
    ) -> SpanId {
        let now = self.now();
        self.push(name, layer, trace_id, parent, now, now)
    }

    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Time one leaf call.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        trace_id: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, layer, trace_id, parent, start, end);
        (out, end - start)
    }

    /// Fold another thread's log into this one, keeping parent links.
    pub fn merge(&mut self, other: SpanLog) {
        let offset = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += offset;
            }
            s
        }));
    }

    /// Self time per layer over the operations of one window: spans on
    /// the driver lane that started in `[from_ns, to_ns)` and descend
    /// from an operation root ([`OP_ROOTS`]). Set-up and probe spans that
    /// fall inside the interval (a paused clock) are not the window's.
    pub fn self_time_by_layer(&self, from_ns: u64, to_ns: u64) -> BTreeMap<Layer, u64> {
        let mut child_sum = vec![0u64; self.spans.len()];
        // Parents are recorded before their children, so one pass finds
        // every span's root.
        let mut in_op = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == NO_PARENT {
                in_op[i] = OP_ROOTS.contains(&s.name);
            } else {
                in_op[i] = in_op[s.parent as usize];
                child_sum[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if !in_op[i] || s.lane != 0 || s.start_ns < from_ns || s.start_ns >= to_ns {
                continue;
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(child_sum[i]);
            *out.entry(s.layer).or_insert(0) += own;
        }
        out
    }

    /// Write at most `cap` spans as Chrome `trace_event` complete events
    /// (`chrome://tracing`, Perfetto). Returns how many were written.
    pub fn write_chrome(&self, path: &Path, cap: usize) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(b"{\"traceEvents\":[\n")?;
        let n = self.spans.len().min(cap);
        for (i, s) in self.spans.iter().take(n).enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                w,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"trace_id\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.layer.name(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.lane,
                i,
                parent,
                s.trace_id
            )?;
        }
        w.write_all(b"\n]}\n")?;
        w.flush()?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut log = SpanLog::new(Instant::now(), 0);
        let root = log.push("ingest.batch", Layer::Harness, 1, NO_PARENT, 0, 100);
        log.push("core.bootstrap", Layer::Core, 0, NO_PARENT, 20, 30);
        let merge = log.push("merge", Layer::Core, 1, root, 10, 70);
        log.push("journal", Layer::Persist, 1, merge, 50, 70);
        let by = log.self_time_by_layer(0, u64::MAX);
        assert_eq!(by[&Layer::Harness], 40);
        assert_eq!(by[&Layer::Core], 40);
        assert_eq!(by[&Layer::Persist], 20);
    }

    #[test]
    fn merge_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch, 0);
        a.push("x", Layer::Query, 1, NO_PARENT, 0, 5);
        let mut b = SpanLog::new(epoch, 1);
        let r = b.push("root", Layer::Harness, 2, NO_PARENT, 0, 9);
        b.push("leaf", Layer::Core, 2, r, 1, 4);
        a.merge(b);
        assert_eq!(a.spans[2].parent, 1);
        assert_eq!(a.spans[1].parent, NO_PARENT);
    }
}
