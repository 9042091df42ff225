//! The serving loop: a `TcpListener` acceptor thread feeding a fixed
//! worker pool through a **bounded** rendezvous channel.
//!
//! The channel bound *is* the admission limit: when `max_in_flight`
//! connections are queued or executing, `try_send` fails and the
//! acceptor sheds the connection inline with `429 Too Many Requests` +
//! `Retry-After` — the server degrades by refusing work it cannot serve
//! within its deadline budget, never by queueing unboundedly (DESIGN.md
//! §8). Everything is `std`: no async runtime, because the read path is
//! a lock-free `Arc<FrozenSnapshot>` swap and a handful of blocking
//! threads saturate it long before the accept loop is the bottleneck.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use nous_core::{IngestPipeline, SharedSession};
use nous_corpus::Article;
use nous_fault::{Deadline, Faults};
use nous_obs::{trace_id_hex, HttpMetrics};
use nous_query::{execute_shared_with, parse, QueryOptions, QueryResult};
use serde::{Deserialize, Serialize};

use crate::admission::RateLimiter;
use crate::http::{read_request, RecvError, Request, Response};

/// Failpoint: fire to drop a just-accepted connection (simulates accept
/// backlog loss / immediate peer reset).
pub const FP_HTTP_ACCEPT: &str = "http.accept";
/// Failpoint: fire to sever a connection before reading its next
/// request (simulates a mid-stream socket failure).
pub const FP_HTTP_READ: &str = "http.read";

/// Serving knobs. `Default` is sized for tests and the demo example;
/// production would raise `workers` and `max_in_flight` together.
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker threads executing requests (one connection each at a time).
    pub workers: usize,
    /// Bound on queued-plus-executing connections; beyond it the
    /// acceptor sheds with 429.
    pub max_in_flight: usize,
    /// Deadline applied to `/query` when the client sends no
    /// `x-nous-deadline-ms` header.
    pub default_deadline_ms: u64,
    /// Cap on the client-requested deadline (a client cannot buy an
    /// unbounded scan).
    pub max_deadline_ms: u64,
    /// `Content-Length` cap; larger uploads get 413 without being read.
    pub max_body_bytes: usize,
    /// Per-tenant token-bucket refill rate (tokens/second); `<= 0`
    /// disables rate limiting.
    pub rate_limit_per_sec: f64,
    /// Per-tenant token-bucket capacity.
    pub rate_limit_burst: f64,
    /// Idle keep-alive timeout before a worker abandons a connection.
    pub keep_alive: Duration,
    /// Wire-level failpoints (accept/read); disabled by default.
    pub faults: Faults,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_in_flight: 64,
            default_deadline_ms: 250,
            max_deadline_ms: 10_000,
            max_body_bytes: 1 << 20,
            rate_limit_per_sec: 0.0,
            rate_limit_burst: 16.0,
            keep_alive: Duration::from_secs(5),
            faults: Faults::disabled(),
        }
    }
}

/// Wire shape of a `POST /query` body.
#[derive(Debug, Serialize, Deserialize)]
struct QueryBody {
    query: String,
}

/// Wire shape of a `POST /query` response: the [`QueryResponse`]
/// degradation contract plus the rendered text and the deadline that
/// governed execution.
///
/// [`QueryResponse`]: nous_query::QueryResponse
#[derive(Debug, Serialize, Deserialize)]
struct QueryReply {
    partial: bool,
    deadline_ms: u64,
    result: QueryResult,
    rendered: String,
}

struct Shared {
    session: Arc<SharedSession>,
    /// `ingest_batch` needs `&mut IngestPipeline`; serialized ingestion
    /// is the intended shape (one merge stream), queries never touch it.
    pipeline: Mutex<IngestPipeline>,
    limiter: RateLimiter,
    http: HttpMetrics,
    cfg: ServerConfig,
}

/// A running server: acceptor thread + worker pool. Dropping without
/// [`Server::shutdown`] detaches the threads (they die with the
/// process); tests should call `shutdown` for a clean join.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving `session`.
    /// Ingestion goes through `pipeline`; wire a durable journal onto it
    /// first and `/ingest` acks become ack-after-durable.
    pub fn start(
        session: Arc<SharedSession>,
        pipeline: IngestPipeline,
        addr: &str,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let http = HttpMetrics::new(session.metrics());
        let shared = Arc::new(Shared {
            session,
            pipeline: Mutex::new(pipeline),
            limiter: RateLimiter::new(cfg.rate_limit_per_sec, cfg.rate_limit_burst),
            http,
            cfg,
        });

        let (tx, rx) = mpsc::sync_channel::<TcpStream>(shared.cfg.max_in_flight.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let stop = Arc::new(AtomicBool::new(false));

        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nous-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .expect("spawn worker")
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("nous-serve-accept".into())
                .spawn(move || accept_loop(&shared, &listener, &tx, &stop))
                .expect("spawn acceptor")
        };

        Ok(Server {
            addr: local,
            stop,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain queued connections, join all threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // The acceptor owned the only sender; once it exits, workers see
        // the channel disconnect after draining what was queued.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    shared: &Shared,
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    stop: &Arc<AtomicBool>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Failpoint: a connection lost between accept and hand-off. The
        // peer sees a reset; the server must carry on serving.
        if shared.cfg.faults.hit(FP_HTTP_ACCEPT) {
            drop(stream);
            continue;
        }
        let _ = stream.set_read_timeout(Some(shared.cfg.keep_alive));
        // Counted before the hand-off, so a worker's dequeue can never
        // take the gauge below zero; a refused hand-off takes it back.
        shared.http.queued.add(1);
        let sent = tx.try_send(stream);
        if sent.is_err() {
            shared.http.queued.add(-1);
        }
        match sent {
            Ok(()) => {}
            Err(TrySendError::Full(mut stream)) => {
                // Load shed: the bounded queue is the admission limit.
                // Refuse inline — cheaper than queueing work we cannot
                // serve within any deadline.
                shared.http.shed("queue_full");
                shared.http.requests("/", 429).inc();
                let _ = Response::error(429, "server saturated, retry later")
                    .with_header("retry-after", "1".into())
                    .write_to(&mut stream, true);
                // Drain whatever request bytes already arrived before
                // closing: dropping a socket with unread data sends RST,
                // which can discard the 429 the client is about to read.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
                let mut sink = [0u8; 4096];
                for _ in 0..4 {
                    match std::io::Read::read(&mut stream, &mut sink) {
                        Ok(n) if n > 0 => continue,
                        _ => break,
                    }
                }
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
}

fn worker_loop(shared: &Shared, rx: &Arc<Mutex<Receiver<TcpStream>>>) {
    loop {
        // Lock only to dequeue; the guard drops before handling.
        let stream = match rx.lock().unwrap_or_else(|e| e.into_inner()).recv() {
            Ok(s) => s,
            Err(_) => return,
        };
        shared.http.queued.add(-1);
        // A panicking request must cost one connection, not the worker:
        // the pool is fixed-size, so a leaked panic would permanently
        // shrink serving capacity.
        let caught = catch_unwind(AssertUnwindSafe(|| handle_connection(shared, stream)));
        if caught.is_err() {
            shared
                .session
                .metrics()
                .counter(
                    "nous_http_worker_panics_total",
                    "Requests that panicked in a worker (connection dropped, worker kept)",
                )
                .inc();
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        // Failpoint: sever before reading the next request.
        if shared.cfg.faults.hit(FP_HTTP_READ) {
            return;
        }
        let req = match read_request(&mut reader, shared.cfg.max_body_bytes) {
            Ok(r) => r,
            Err(RecvError::Closed) | Err(RecvError::Io(_)) => return,
            Err(RecvError::Malformed(what)) => {
                let resp = Response::error(400, &format!("malformed request: {what}"));
                shared.http.requests("(malformed)", 400).inc();
                let _ = resp.write_to(&mut writer, true);
                return;
            }
            Err(RecvError::TooLarge(what)) => {
                let resp = Response::error(413, &format!("request too large: {what}"));
                shared.http.requests("(malformed)", 413).inc();
                let _ = resp.write_to(&mut writer, true);
                return;
            }
        };
        let close = req.wants_close();
        let registry = shared.session.metrics();
        let t0 = registry.now_nanos();
        shared.http.in_flight.add(1);
        let (resp, route, trace_id) = handle_request(shared, &req);
        shared.http.in_flight.add(-1);
        shared.http.observe(
            route,
            resp.status,
            registry.now_nanos().saturating_sub(t0),
            trace_id,
        );
        if resp.write_to(&mut writer, close).is_err() || close {
            return;
        }
    }
}

/// Route and execute one request. Returns the response, the canonical
/// route label for metrics, and the request trace id (0 when tracing is
/// off).
fn handle_request(shared: &Shared, req: &Request) -> (Response, &'static str, u64) {
    let registry = shared.session.metrics();
    let mut root = registry.trace("http.request");
    let trace_id = root.trace_id();
    let route: &'static str = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => "/healthz",
        ("GET", "/stats") => "/stats",
        ("GET", "/metrics") => "/metrics",
        ("POST", "/query") => "/query",
        ("POST", "/ingest") => "/ingest",
        (_, "/healthz" | "/stats" | "/metrics" | "/query" | "/ingest") => "(wrong-method)",
        _ => "(unknown)",
    };
    root.attr("route", route);
    let tenant = req
        .header("x-nous-tenant")
        .unwrap_or("anonymous")
        .to_owned();
    root.attr("tenant", tenant.clone());

    // Per-tenant rate limit guards the two endpoints that do real work;
    // health and telemetry stay reachable from a saturated tenant.
    if matches!(route, "/query" | "/ingest") {
        if let Err(retry_after) = shared.limiter.admit(&tenant, registry.now_nanos()) {
            shared.http.shed("rate_limit");
            root.attr("status", 429u64);
            root.finish();
            let resp = Response::error(429, "tenant rate limit exceeded")
                .with_header("retry-after", retry_after.to_string())
                .with_header("x-nous-trace-id", trace_id_hex(trace_id));
            return (resp, route, trace_id);
        }
    }

    let resp = match route {
        "/healthz" => Response::text(200, "ok\n"),
        "/stats" => Response::json(200, stats_with_quarantine(shared)),
        "/metrics" => {
            let mut r = Response::text(200, &registry.render_prometheus());
            r.content_type = "text/plain; version=0.0.4";
            r
        }
        "/query" => handle_query(shared, req, &root),
        "/ingest" => handle_ingest(shared, req, &root),
        "(wrong-method)" => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such endpoint"),
    };
    root.attr("status", resp.status as u64);
    root.finish();
    let resp = resp.with_header("x-nous-trace-id", trace_id_hex(trace_id));
    (resp, route, trace_id)
}

/// How many of the most recent quarantined doc ids `/stats` exposes.
const QUARANTINE_TAIL: usize = 16;

/// The session's metric snapshot with the pipeline's dead-letter
/// quarantine spliced in as one extra top-level key: the total parked
/// count plus the ids of the most recent [`QUARANTINE_TAIL`] parked
/// documents, oldest-first. The metric snapshot itself is reproduced
/// byte-for-byte, so existing scrapers keep parsing.
fn stats_with_quarantine(shared: &Shared) -> String {
    let (count, newest_first) = {
        let pipeline = shared.pipeline.lock().unwrap_or_else(|e| e.into_inner());
        let entries = pipeline.dead_letters().entries();
        let tail: Vec<u64> = entries
            .iter()
            .rev()
            .take(QUARANTINE_TAIL)
            .map(|q| q.doc_id)
            .collect();
        (entries.len(), tail)
    };
    let ids: Vec<String> = newest_first.iter().rev().map(u64::to_string).collect();
    let section = format!(
        "\"quarantine\":{{\"count\":{count},\"last_doc_ids\":[{}]}}",
        ids.join(",")
    );
    let snap = shared.session.stats_snapshot();
    match snap.strip_prefix('{') {
        Some("}") => format!("{{{section}}}"),
        Some(rest) => format!("{{{section},{rest}"),
        None => snap, // non-object snapshot: serve it untouched
    }
}

fn handle_query(shared: &Shared, req: &Request, root: &nous_obs::ActiveSpan) -> Response {
    let body: QueryBody = match serde_json::from_slice(&req.body) {
        Ok(b) => b,
        Err(e) => return Response::error(400, &format!("invalid JSON body: {e:?}")),
    };
    let query = match parse(&body.query) {
        Ok(q) => q,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let deadline_ms = match req.header("x-nous-deadline-ms") {
        None => shared.cfg.default_deadline_ms,
        Some(v) => match v.parse::<u64>() {
            Ok(ms) => ms.min(shared.cfg.max_deadline_ms),
            Err(_) => return Response::error(400, "x-nous-deadline-ms must be an integer"),
        },
    };
    // A zero budget is "already expired": the query still returns a
    // valid (if empty-ish) result flagged partial — the cheapest way for
    // a client or test to exercise the degradation path end to end.
    let deadline = if deadline_ms == 0 {
        Deadline::expired_now()
    } else {
        Deadline::within(Duration::from_millis(deadline_ms))
    };
    let ctx = root.context();
    let opts = QueryOptions {
        deadline,
        trace: Some(&ctx),
        ..Default::default()
    };
    let out = execute_shared_with(&shared.session, &query, &opts);
    let reply = QueryReply {
        partial: out.partial,
        deadline_ms,
        rendered: out.result.render(),
        result: out.result,
    };
    match serde_json::to_string(&reply) {
        Ok(json) => Response::json(200, json),
        Err(e) => Response::error(500, &format!("serialization failed: {e:?}")),
    }
}

fn handle_ingest(shared: &Shared, req: &Request, root: &nous_obs::ActiveSpan) -> Response {
    let articles: Vec<Article> = match serde_json::from_slice(&req.body) {
        Ok(a) => a,
        Err(e) => return Response::error(400, &format!("invalid article batch: {e:?}")),
    };
    let _ = root;
    if articles.is_empty() {
        return Response::error(400, "empty article batch");
    }
    // `ingest_batch` writes through the pipeline's journal synchronously
    // during the merge stage, so by the time it returns every admitted
    // fact has cleared the durable journal (and its ack hook has fired).
    // Responding 200 here is therefore an ack-after-durable, not an
    // ack-on-receipt.
    let report = {
        let mut pipeline = shared.pipeline.lock().unwrap_or_else(|e| e.into_inner());
        shared.session.ingest_batch(&mut pipeline, &articles)
    };
    match serde_json::to_string(&report) {
        Ok(json) => Response::json(200, json),
        Err(e) => Response::error(500, &format!("serialization failed: {e:?}")),
    }
}
