//! What the benchmark runs and reports: workload names with their
//! rationale, metric names with units, and the pinned sizes.
//!
//! `BENCHMARK.json` at the repository root repeats the workload and
//! metric names; `tests/harness_smoke.rs` fails when the two disagree.

use std::collections::BTreeMap;

/// Documents per ingest micro-batch, everywhere.
pub const BATCH: usize = 16;
/// WAL fsync policy `EveryN(FSYNC_EVERY)`, everywhere.
pub const FSYNC_EVERY: u64 = 32;

/// `(name, why)` — the `why` is the one-line rationale `BENCHMARK.json`
/// carries.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "ingest_stream",
        "paper-shaped article stream into a growing durable graph: text/extract/link/core/persist do all the work, query/qa/serve none",
    ),
    (
        "ingest_adversarial",
        "contradiction then noisy scenario regimes: garbage documents make extraction wasted work and supersession exercises revision tombstones",
    ),
    (
        "query_mix",
        "read-only closed loop of 4 point : 1 path queries on a preloaded graph: query/qa/graph do all the work, ingest layers none",
    ),
    (
        "query_path",
        "path queries only (WHY LIMIT 3, PATHS MAX 2) on the same graph: qa search is ten times a point lookup and gets bounded figures of its own",
    ),
    (
        "http_point",
        "point queries over one keep-alive HTTP connection: tens of microseconds of execution per request, so the serve wire path dominates",
    ),
    (
        "live_mixed",
        "the query_mix reader beside an open-loop writer: publish, compaction and the trending mutex contend with reads",
    ),
    (
        "recover_replay",
        "DurableStore::open on a torn copy of a checkpointed store: persist as a reader (decode, WAL scan, replay, retrain)",
    ),
];

/// `(name, unit, better, bound)` — every workload reports every one.
/// An *operation* is the workload's own: a micro-batch of documents made
/// durable and visible (`ingest_*`, weight = its documents), a query
/// answered (`query_mix`, `http_point`, `live_mixed`), a store reopened
/// (`recover_replay`, weight = the documents it brings back). Times are
/// at reference host speed (see `calib.rs`).
pub const END_TO_END: [(&str, &str, &str, f64); 9] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("ops_per_s_last_fifth", "1/s", "higher", 0.25),
    ("op_p50_us", "us", "lower", 0.25),
    ("op_p95_us", "us", "lower", 0.25),
    ("answer_precision", "ratio", "higher", 0.10),
    ("answer_recall", "ratio", "higher", 0.10),
    ("wal_bytes_per_doc", "B", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.10),
];

/// `(name, unit, better)` — every workload's traced run reports every
/// one, measured on the workload's own documents, graph and queries; a
/// layer the workload never enters reads 0.
pub const PER_LAYER: [(&str, &str, &str); 81] = [
    ("corpus.generate_s", "s", "lower"),
    ("core.bootstrap_s", "s", "lower"),
    ("topics.build_index_s", "s", "lower"),
    ("core.trends_observe_s", "s", "lower"),
    ("text.analyze_us_per_doc", "us", "lower"),
    ("text.analyze_us_per_doc.first_fifth", "us", "lower"),
    ("text.analyze_us_per_doc.last_fifth", "us", "lower"),
    ("text.tokenize_us_per_doc", "us", "lower"),
    ("text.tokens_per_s", "1/s", "higher"),
    ("extract.call_us_per_doc", "us", "lower"),
    ("extract.self_us_per_doc", "us", "lower"),
    ("extract.raw_tuples_per_doc", "count", "lower"),
    ("extract.extractions_per_doc", "count", "lower"),
    ("extract.yield", "ratio", "higher"),
    ("link.map_us_per_doc", "us", "lower"),
    ("link.map_hit_ratio", "ratio", "higher"),
    ("link.resolve_us_per_doc", "us", "lower"),
    ("link.candidates_per_mention", "count", "lower"),
    ("core.merge_us_per_doc", "us", "lower"),
    ("core.merge_us_per_doc.first_fifth", "us", "lower"),
    ("core.merge_us_per_doc.last_fifth", "us", "lower"),
    ("core.merge_self_us_per_doc", "us", "lower"),
    ("core.publish_us_per_batch", "us", "lower"),
    ("core.publish_us_per_batch.last_fifth", "us", "lower"),
    ("core.publish_p99_us", "us", "lower"),
    ("core.admitted_per_doc", "count", "higher"),
    ("core.superseded_per_kdoc", "count", "lower"),
    ("core.quarantined", "count", "lower"),
    ("core.ack_p50_ms", "ms", "lower"),
    ("core.ack_p95_ms", "ms", "lower"),
    ("core.snapshot_age_p99_ms", "ms", "lower"),
    ("persist.journal_us_per_doc", "us", "lower"),
    ("persist.wal_bytes_per_doc", "B", "lower"),
    ("persist.fsyncs_per_kdoc", "count", "lower"),
    ("persist.checkpoint_ms", "ms", "lower"),
    ("persist.checkpoint_bytes", "B", "lower"),
    ("persist.recover_open_ms", "ms", "lower"),
    ("persist.recover_decode_ms", "ms", "lower"),
    ("persist.recover_replay_ms", "ms", "lower"),
    ("persist.replayed_docs", "count", "lower"),
    ("graph.freeze_ms", "ms", "lower"),
    ("graph.compact_ms", "ms", "lower"),
    ("graph.layers_p50", "count", "lower"),
    ("graph.live_edges", "count", "higher"),
    ("graph.vertices", "count", "higher"),
    ("query.parse_us_p50", "us", "lower"),
    ("query.render_us_p50", "us", "lower"),
    ("query.trending.p50_us", "us", "lower"),
    ("query.trending.p99_us", "us", "lower"),
    ("query.about.p50_us", "us", "lower"),
    ("query.about.p99_us", "us", "lower"),
    ("query.match.p50_us", "us", "lower"),
    ("query.match.p99_us", "us", "lower"),
    ("query.timeline.p50_us", "us", "lower"),
    ("query.timeline.p99_us", "us", "lower"),
    ("query.why.p50_us", "us", "lower"),
    ("query.why.p99_us", "us", "lower"),
    ("query.paths2.p50_us", "us", "lower"),
    ("query.paths2.p99_us", "us", "lower"),
    ("query.paths_max3.p50_ms", "ms", "lower"),
    ("qa.why_search_us_p50", "us", "lower"),
    ("qa.nodes_expanded_per_why", "count", "lower"),
    ("qa.coherence_evals_per_why", "count", "lower"),
    ("serve.http_point_us_p50", "us", "lower"),
    ("serve.wire_overhead_us_p50", "us", "lower"),
    ("serve.read_request_us_p50", "us", "lower"),
    ("serve.write_response_us_p50", "us", "lower"),
    ("serve.unattributed_us_p50", "us", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.non_200", "count", "lower"),
    ("gen.late_p99_ms", "ms", "lower"),
    ("host.slowdown_p50", "ratio", "lower"),
    ("host.slowdown_max", "ratio", "lower"),
    ("obs.trace_overhead_fraction", "ratio", "lower"),
    ("ledger.residual_fraction", "ratio", "lower"),
    ("ledger.extract_share", "ratio", "lower"),
    ("ledger.core_share", "ratio", "lower"),
    ("ledger.persist_share", "ratio", "lower"),
    ("ledger.query_share", "ratio", "lower"),
    ("ledger.serve_share", "ratio", "lower"),
    ("ledger.harness_share", "ratio", "lower"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` is measured at.
    Full,
    /// Every workload in about a second: CI and `cargo test`.
    Smoke,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

/// Pinned input sizes. Counts that a metric is defined at (score points,
/// preload, recovery set-up) are fixed, so count metrics repeat exactly
/// per seed; the measured window is bounded by time instead.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Articles generated for `ingest_stream`; the window ends earlier.
    pub stream_docs: usize,
    /// Stream positions at which served answers are scored.
    pub score_points: [usize; 4],
    /// Articles ingested before the query workloads start.
    pub preload_docs: usize,
    /// Articles ingested into the store `recover_replay` reopens.
    pub recover_docs: usize,
    /// Articles and companies per scenario regime cycle.
    pub scenario_docs: usize,
    pub scenario_companies: usize,
    pub checkpoint_every_facts: u64,
    /// `live_mixed` writer: one batch of [`BATCH`] documents per interval.
    pub live_interval_ms: u64,
    /// Queries per class in the traced run's query probe.
    pub probe_queries: usize,
    /// Leading point queries whose rendered results are fingerprinted
    /// (`query_mix` and `http_point` must agree on it).
    pub fingerprint_ops: usize,
}

impl Sizes {
    pub fn of(size: Size) -> Self {
        match size {
            Size::Full => Sizes {
                stream_docs: 40_000,
                score_points: [1_024, 2_048, 3_072, 4_096],
                preload_docs: 4_000,
                recover_docs: 2_400,
                scenario_docs: 6_000,
                scenario_companies: 120,
                checkpoint_every_facts: 2_500,
                live_interval_ms: 40,
                probe_queries: 400,
                fingerprint_ops: 2_000,
            },
            Size::Smoke => Sizes {
                stream_docs: 2_000,
                score_points: [48, 96, 144, 192],
                preload_docs: 192,
                recover_docs: 256,
                scenario_docs: 192,
                scenario_companies: 12,
                checkpoint_every_facts: 128,
                live_interval_ms: 40,
                probe_queries: 24,
                fingerprint_ops: 100,
            },
        }
    }

    /// Sizes as recorded in every result file.
    pub fn to_map(&self) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        let mut put = |k: &str, v: usize| {
            m.insert(k.to_owned(), v as f64);
        };
        put("stream_docs", self.stream_docs);
        put("last_score_point", self.score_points[3]);
        put("preload_docs", self.preload_docs);
        put("recover_docs", self.recover_docs);
        put("scenario_docs", self.scenario_docs);
        put("scenario_companies", self.scenario_companies);
        put(
            "checkpoint_every_facts",
            self.checkpoint_every_facts as usize,
        );
        put("live_interval_ms", self.live_interval_ms as usize);
        put("probe_queries", self.probe_queries);
        put("fingerprint_ops", self.fingerprint_ops);
        put("batch", BATCH);
        put("fsync_every", FSYNC_EVERY as usize);
        m
    }
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the figure summarises.
    pub samples: u64,
}

/// Every figure one run of one workload reports, by name.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.0.insert(
            name.to_owned(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }
}
