//! The query side: the seeded key sequence, the two ways a query is
//! served (in process, over HTTP) and the direct-call probes that split
//! the query, qa and serve layers.

use super::spec::Sizes;
use super::stats::{self, Fnv, SplitMix};
use super::trace::{Layer, SpanLog, NO_PARENT};
use nous_core::{IngestPipeline, PipelineConfig, SharedSession};
use nous_corpus::World;
use nous_graph::GraphView;
use nous_qa::{coherent_paths_with_stats, PathConstraint, QaConfig};
use nous_query::{execute_shared, parse, QueryResult};
use nous_serve::{http::read_request, Response, Server, ServerConfig};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// The six query classes the workloads issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Trending,
    About,
    Match,
    Timeline,
    Why,
    Paths2,
}

impl Class {
    pub const ALL: [Class; 6] = [
        Class::Trending,
        Class::About,
        Class::Match,
        Class::Timeline,
        Class::Why,
        Class::Paths2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Trending => "trending",
            Class::About => "about",
            Class::Match => "match",
            Class::Timeline => "timeline",
            Class::Why => "why",
            Class::Paths2 => "paths2",
        }
    }

    /// Point family (entity or predicate lookups) versus path family
    /// (graph searches, an order of magnitude dearer).
    pub fn is_point(self) -> bool {
        !matches!(self, Class::Why | Class::Paths2)
    }
}

/// Company-to-company predicates a MATCH may name.
const MATCH_PREDICATES: [&str; 4] = ["acquired", "partneredWith", "investedIn", "suppliesTo"];

/// Draws after which the popularity ranking is reshuffled.
const ROTATE: u64 = 256;

/// One independent key stream: Zipf(1.0) over popularity ranks, with the
/// rank-to-company assignment reshuffled every [`ROTATE`] draws. At any
/// moment a few hub entities take most lookups, so degree varies and the
/// hot set is small; over a window every company has been a hub, so the
/// figures do not hinge on which companies a seed happened to rank first.
struct Keys {
    rng: SplitMix,
    order: Vec<usize>,
    drawn: u64,
}

impl Keys {
    fn new(seed: u64, companies: usize) -> Self {
        Keys {
            rng: SplitMix(seed),
            order: (0..companies).collect(),
            drawn: 0,
        }
    }

    fn next(&mut self, cdf: &[f64]) -> usize {
        if self.drawn.is_multiple_of(ROTATE) {
            for i in (1..self.order.len()).rev() {
                self.order.swap(i, self.rng.below(i + 1));
            }
        }
        self.drawn += 1;
        let u = self.rng.unit();
        self.order[cdf.partition_point(|c| *c < u).min(cdf.len() - 1)]
    }
}

/// Seeded query sequence over one world. Point and path queries come
/// from two independent key streams: the point stream is the same whether
/// or not path queries are interleaved, which is what lets `http_point`
/// be checked against `query_mix`.
pub struct QueryPlan {
    companies: Vec<String>,
    cdf: Vec<f64>,
    point_keys: Keys,
    path_keys: Keys,
    points: u64,
    paths: u64,
    mixed: u64,
}

impl QueryPlan {
    pub fn new(world: &World, seed: u64) -> Self {
        let companies: Vec<String> = world
            .companies
            .iter()
            .map(|&i| world.entity(i).name.clone())
            .collect();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=companies.len())
            .map(|rank| {
                acc += 1.0 / rank as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self {
            point_keys: Keys::new(seed ^ 0x706f_696e_7473, companies.len()),
            path_keys: Keys::new(seed ^ 0x0070_6174_6873, companies.len()),
            companies,
            cdf,
            points: 0,
            paths: 0,
            mixed: 0,
        }
    }

    pub fn next_point(&mut self) -> (Class, String) {
        let c = &self.companies[self.point_keys.next(&self.cdf)];
        let i = self.points;
        self.points += 1;
        match i % 4 {
            0 => (Class::Trending, "TRENDING LIMIT 5".to_owned()),
            1 => (Class::About, format!("ABOUT {c}")),
            2 => {
                let p = MATCH_PREDICATES[(i / 4) as usize % MATCH_PREDICATES.len()];
                (Class::Match, format!("MATCH (\"{c}\")-[{p}]->(*) LIMIT 5"))
            }
            _ => (Class::Timeline, format!("TIMELINE {c} LIMIT 10")),
        }
    }

    /// Two distinct companies off the path key stream.
    pub fn pair(&mut self) -> (String, String) {
        let a = self.path_keys.next(&self.cdf);
        let mut b = self.path_keys.next(&self.cdf);
        if b == a {
            b = (a + 1) % self.companies.len();
        }
        (self.companies[a].clone(), self.companies[b].clone())
    }

    pub fn next_path(&mut self) -> (Class, String) {
        let (a, b) = self.pair();
        let i = self.paths;
        self.paths += 1;
        if i.is_multiple_of(2) {
            (Class::Why, format!("WHY {a} -> {b} LIMIT 3"))
        } else {
            (Class::Paths2, format!("PATHS {a} TO {b} MAX 2"))
        }
    }

    /// Four point queries, then one path query.
    pub fn next_mixed(&mut self) -> (Class, String) {
        let i = self.mixed;
        self.mixed += 1;
        if i % 5 == 4 {
            self.next_path()
        } else {
            self.next_point()
        }
    }
}

/// One served query as the harness saw it.
pub struct Served {
    pub total_ns: u64,
    pub parse_ns: u64,
    pub render_ns: u64,
    /// FNV of the rendered answer.
    pub fingerprint: u64,
    /// `NotFound` on an entity the world contains.
    pub failed: bool,
}

/// Serve one query in process: `parse` → `execute_shared` → `render`.
/// With a log, each of the three calls gets its own span.
pub fn serve_in_process(
    session: &SharedSession,
    text: &str,
    log: Option<(&mut SpanLog, u64)>,
) -> Served {
    let t0 = Instant::now();
    let query = parse(text).expect("generated query parses");
    let t1 = Instant::now();
    let result = execute_shared(session, &query);
    let t2 = Instant::now();
    let rendered = result.render();
    let t3 = Instant::now();
    if let Some((log, id)) = log {
        let end = log.now();
        let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
        let start = end - ns(t0, t3);
        let root = log.push("query", Layer::Harness, id, NO_PARENT, start, end);
        log.push(
            "query.parse",
            Layer::Query,
            id,
            root,
            start,
            start + ns(t0, t1),
        );
        log.push(
            "query.execute",
            Layer::Query,
            id,
            root,
            start + ns(t0, t1),
            start + ns(t0, t2),
        );
        log.push(
            "query.render",
            Layer::Query,
            id,
            root,
            start + ns(t0, t2),
            end,
        );
    }
    Served {
        total_ns: (t3 - t0).as_nanos() as u64,
        parse_ns: (t1 - t0).as_nanos() as u64,
        render_ns: (t3 - t2).as_nanos() as u64,
        fingerprint: Fnv::of(rendered.as_bytes()),
        failed: matches!(result, QueryResult::NotFound(_)),
    }
}

/// The bytes of one `POST /query` request.
fn write_request(out: &mut Vec<u8>, text: &str) {
    let body = format!("{{\"query\":\"{}\"}}", text.replace('"', "\\\""));
    write!(
        out,
        "POST /query HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write to a Vec");
}

/// One keep-alive connection to a `nous_serve::Server`.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    request: Vec<u8>,
    pub body: Vec<u8>,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            request: Vec::new(),
            body: Vec::new(),
        })
    }

    /// `POST /query`; returns the status with the body left in
    /// `self.body`. The request goes out in one write (fragmented writes
    /// trip Nagle and delayed ACK).
    pub fn query(&mut self, text: &str) -> io::Result<u16> {
        self.request.clear();
        write_request(&mut self.request, text);
        self.writer.write_all(&self.request)?;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| bad("content-length"))?;
                }
            }
        }
        self.body.resize(content_length, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(status)
    }

    /// The `rendered` field of the reply in `self.body`, and whether the
    /// reply was flagged partial.
    pub fn rendered(&self) -> Option<(String, bool)> {
        let v: serde_json::Value = serde_json::from_slice(&self.body).ok()?;
        Some((v["rendered"].as_str()?.to_owned(), v["partial"].as_bool()?))
    }
}

/// Start a one-worker server over `session`. Queries never touch the
/// server's pipeline, so it gets a journal-less one of its own.
pub fn start_server(session: &Arc<SharedSession>) -> io::Result<Server> {
    Server::start(
        session.clone(),
        IngestPipeline::new(PipelineConfig::default()),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..Default::default()
        },
    )
}

/// Samples from the traced run's query probe (microseconds unless
/// stated), taken on the workload's own final graph.
#[derive(Default)]
pub struct QueryProbe {
    pub per_class: [Vec<f64>; 6],
    pub parse_us: Vec<f64>,
    pub render_us: Vec<f64>,
    pub paths3_ms: Vec<f64>,
    pub why_search_us: Vec<f64>,
    pub nodes_expanded: Vec<f64>,
    pub coherence_evals: Vec<f64>,
    pub layers: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Direct calls that split the query and qa layers: every query class in
/// process with parse and render timed apart, a few `PATHS ... MAX 3`,
/// and the WHY search on the frozen view without the query layer.
pub fn probe_queries(
    session: &SharedSession,
    plan: &mut QueryPlan,
    sizes: &Sizes,
    log: &mut SpanLog,
) -> QueryProbe {
    let mut p = QueryProbe::default();
    let span = log.open("probe.queries", Layer::Probe, 0, NO_PARENT);
    let n = sizes.probe_queries;

    for i in 0..n * 6 {
        let (class, text) = if i % 3 == 2 {
            plan.next_path()
        } else {
            plan.next_point()
        };
        p.layers
            .push(session.frozen().view.merge_stats().layers as f64);
        let s = serve_in_process(session, &text, None);
        p.attempted += 1;
        p.failed += u64::from(s.failed);
        let slot = Class::ALL.iter().position(|c| *c == class).expect("class");
        p.per_class[slot].push(s.total_ns as f64 / 1e3);
        p.parse_us.push(s.parse_ns as f64 / 1e3);
        p.render_us.push(s.render_ns as f64 / 1e3);
    }

    // PATHS MAX 3 is two orders of magnitude dearer: a few samples only.
    for _ in 0..(n / 20).max(3) {
        let (a, b) = plan.pair();
        let s = serve_in_process(session, &format!("PATHS {a} TO {b} MAX 3"), None);
        p.attempted += 1;
        p.failed += u64::from(s.failed);
        p.paths3_ms.push(s.total_ns as f64 / 1e6);
    }

    // The coherent-path search itself, below the query layer.
    let snap = session.frozen();
    for _ in 0..n {
        let (a, b) = plan.pair();
        let (Some(src), Some(dst)) = (snap.view.vertex_id(&a), snap.view.vertex_id(&b)) else {
            p.failed += 1;
            continue;
        };
        let cfg = QaConfig {
            k: 3,
            ..Default::default()
        };
        let t = Instant::now();
        let (paths, stats) = coherent_paths_with_stats(
            &snap.view,
            &snap.topics,
            src,
            dst,
            &PathConstraint::default(),
            &cfg,
        );
        p.why_search_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        std::hint::black_box(paths);
        p.nodes_expanded.push(stats.nodes_expanded as f64);
        p.coherence_evals.push(stats.coherence_evals as f64);
    }
    log.close(span);
    p
}

/// Samples from the traced run's wire probe, in microseconds.
#[derive(Default)]
pub struct WireProbe {
    pub inproc_point_us: Vec<f64>,
    pub http_point_us: Vec<f64>,
    pub read_request_us: Vec<f64>,
    pub write_response_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Requests `non_200` and `shed` are counted over (the caller adds
    /// its window's).
    pub requests: u64,
    /// Replies that were not 200, and those of them that were 429.
    pub non_200: u64,
    pub shed: u64,
}

/// The point family over one keep-alive connection, each request next to
/// the same query in process (the difference is the wire path), and the
/// same request and reply through the request reader and response writer
/// alone, on in-memory buffers.
pub fn probe_wire(
    session: &Arc<SharedSession>,
    plan: &mut QueryPlan,
    sizes: &Sizes,
    log: &mut SpanLog,
) -> io::Result<WireProbe> {
    let mut p = WireProbe::default();
    let span = log.open("probe.wire", Layer::Probe, 0, NO_PARENT);
    stats::pin_to_one_cpu();
    let server = start_server(session)?;
    let mut client = HttpClient::connect(server.local_addr())?;
    for pair in 0..sizes.probe_queries * 2 {
        let (_, text) = plan.next_point();
        // Whichever of the two goes second finds the caches warm with the
        // same query, so they take turns going first.
        let mut over_http = |client: &mut HttpClient| -> io::Result<u16> {
            let t = Instant::now();
            let status = client.query(&text)?;
            p.http_point_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            Ok(status)
        };
        let (local, status) = if pair % 2 == 0 {
            let local = serve_in_process(session, &text, None);
            (local, over_http(&mut client)?)
        } else {
            let status = over_http(&mut client)?;
            (serve_in_process(session, &text, None), status)
        };
        p.inproc_point_us.push(local.total_ns as f64 / 1e3);
        p.attempted += 1;
        p.requests += 1;
        let same = client
            .rendered()
            .is_some_and(|(r, partial)| !partial && Fnv::of(r.as_bytes()) == local.fingerprint);
        p.failed += u64::from(status != 200 || !same);
        p.non_200 += u64::from(status != 200);
        p.shed += u64::from(status == 429);

        let mut raw = Vec::new();
        write_request(&mut raw, &text);
        let t = Instant::now();
        let parsed = read_request(&mut raw.as_slice(), 1 << 20);
        p.read_request_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        p.failed += u64::from(parsed.is_err());
        let reply = Response::json(200, String::from_utf8_lossy(&client.body).into_owned());
        let mut sink = Vec::with_capacity(client.body.len() + 256);
        let t = Instant::now();
        reply.write_to(&mut sink, false)?;
        p.write_response_us
            .push(t.elapsed().as_nanos() as f64 / 1e3);
        std::hint::black_box(sink);
    }
    drop(client);
    server.shutdown();
    log.close(span);
    Ok(p)
}
