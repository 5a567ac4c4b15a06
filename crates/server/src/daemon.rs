//! The evaluation daemon.
//!
//! [`Server::start`] binds a TCP listener and serves HTTP/1.1 through
//! the shared loops in [`crate::http`]: `POST /v1/run|expand|check` with
//! a JSON body, `GET /v1/stats` and `POST /v1/shutdown`; the route is
//! the op. Requests run on a pool of worker threads. Each worker owns a
//! private Lagoon world — registry, languages, compiled-store handle —
//! so requests never share live values; compiled modules are shared
//! only through the serialized `.lagc` store. The request queue is
//! bounded: when it fills, new requests are shed immediately with a 503
//! and a structured `resource-exhausted` body instead of queuing
//! without bound.
//!
//! Each request runs under its own [`Limits`] (merged over the server's
//! defaults) with a diagnostics recorder installed, through the same
//! request path as the embedding API and the CLI
//! ([`ModuleRegistry::request`]); the response's `phases` are a view of
//! that record. The status is the serving outcome, not the
//! program's: program results (values and type, runtime or budget
//! errors alike) are 200, `protocol` errors 400, `internal` errors 500,
//! sheds 503. `POST /v1/shutdown` — or, on unix, `SIGTERM` — drains the
//! queue and stops the workers gracefully. The threads around the
//! workers — the accept loop and the supervision tick that respawns a
//! dead worker — are the runner's ([`http::Running`]).

use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lagoon_core::{EngineKind, ModuleRegistry, Outcome, Step};
use lagoon_diag::limits::SETTINGS;
use lagoon_diag::{Collector, Histogram, Limits};
use lagoon_runtime::{Kind, RtError};
use lagoon_syntax::Symbol;

use crate::cli::{Parsed, Spec};
use crate::http::{self, error_json, rejection, Front, Reply, Request, Running, Service};
use lagoon_diag::json::{obj, Json};

/// Options for [`Server::start`].
#[derive(Clone, Debug, PartialEq)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 picks one).
    pub addr: String,
    /// Worker thread count (clamped to at least 1).
    pub workers: usize,
    /// Bounded request-queue capacity; beyond it requests are rejected.
    pub queue_cap: usize,
    /// Shared `.lagc` store directory for the workers.
    pub cache_dir: Option<PathBuf>,
    /// Directory of `<name>.lag` files resolving named modules.
    pub source_root: Option<PathBuf>,
    /// Default per-request limits (a request may tighten them).
    pub limits: Limits,
    /// Enables the `POST /v1/test/panic|kill` routes that deliberately
    /// crash a worker — for the self-healing tests and CI probes only.
    pub test_ops: bool,
    /// Largest accepted request body in bytes (clamped to at least
    /// 1024). A larger `Content-Length` is answered 413 with a
    /// structured `resource-exhausted` / `request-too-large` body, and
    /// the connection closes, instead of being buffered without bound.
    pub max_request_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 64,
            cache_dir: None,
            source_root: None,
            limits: Limits::default(),
            test_ops: false,
            max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
        }
    }
}

/// `lagoon serve`'s arguments. `--stats` prints the final statistics
/// on exit; `--test-ops` is for tests only ([`ServeOptions::test_ops`]).
pub const SERVE: Spec = Spec {
    name: "serve",
    positionals: &[],
    values: &[
        "--addr HOST:PORT",
        "--workers N",
        "--queue-cap N",
        "--root <dir>",
        "--cache-dir <dir>",
        "--max-request-bytes B",
    ],
    switches: &["--stats", "--test-ops"],
    budgets: true,
};

impl ServeOptions {
    /// The [`SERVE`] arguments that start a daemon with these options;
    /// [`ServeOptions::from_args`] reads them back.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            ("--addr", self.addr.clone()),
            ("--workers", self.workers.to_string()),
            ("--queue-cap", self.queue_cap.to_string()),
            ("--max-request-bytes", self.max_request_bytes.to_string()),
        ];
        for setting in &SETTINGS {
            let value = self.limits.get(setting.budget);
            args.extend(value.map(|v| (setting.flag, v.to_string())));
        }
        for (flag, dir) in [
            ("--cache-dir", &self.cache_dir),
            ("--root", &self.source_root),
        ] {
            args.extend(dir.as_ref().map(|d| (flag, d.display().to_string())));
        }
        let mut args: Vec<String> = args
            .into_iter()
            .flat_map(|(flag, value)| [flag.to_string(), value])
            .collect();
        if self.test_ops {
            args.push("--test-ops".to_string());
        }
        args
    }

    /// The options a parse of [`SERVE`] arguments names, each one not
    /// given at its default.
    ///
    /// # Errors
    ///
    /// The reason, when a value does not parse.
    pub fn from_args(parsed: &Parsed) -> Result<ServeOptions, String> {
        let default = ServeOptions::default();
        Ok(ServeOptions {
            addr: parsed.value("--addr").unwrap_or(&default.addr).to_string(),
            workers: parsed.get("--workers", default.workers)?,
            queue_cap: parsed.get("--queue-cap", default.queue_cap)?,
            cache_dir: parsed.value("--cache-dir").map(PathBuf::from),
            source_root: parsed.value("--root").map(PathBuf::from),
            limits: parsed.limits(default.limits)?,
            test_ops: parsed.has("--test-ops"),
            max_request_bytes: parsed.get("--max-request-bytes", default.max_request_bytes)?,
        })
    }
}

/// Default cap on a request body (1 MiB).
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 1 << 20;

struct Job {
    /// The route after `/v1/`: `run`, `expand`, `check`, `test/panic`
    /// or `test/kill`.
    op: &'static str,
    request: Json,
    /// The client's trace id (see [`trace_id`]).
    trace_id: Option<String>,
    reply: mpsc::Sender<Reply>,
}

/// Bounded history lengths for the time-series gauges: old samples age
/// out rather than growing without bound in a long-lived daemon.
const DEPTH_SERIES_CAP: usize = 512;
const WORKER_SPANS_CAP: usize = 256;

/// One completed request as a worker-occupancy span (for the `stats`
/// op's `worker_spans` gauge).
struct WorkerSpan {
    worker: usize,
    op: String,
    trace_id: String,
    start_ms: f64,
    dur_ms: f64,
}

/// Aggregated server statistics, updated by workers and the acceptor.
#[derive(Default)]
struct StatsInner {
    enqueued: u64,
    rejected: u64,
    max_depth: u64,
    done: u64,
    errors: u64,
    cache_hits: u64,
    cache_misses: u64,
    per_op: BTreeMap<&'static str, Histogram>,
    /// Pipeline time per phase bucket, summed over every request (ms).
    phases_ms: BTreeMap<&'static str, f64>,
    worker_busy: Vec<Duration>,
    /// Highest total symbol count (all workers' tables) sampled at a
    /// request completion.
    interner_high_water: u64,
    /// Per-worker symbol gauge: `(base, current)` live symbol counts
    /// of the worker's table — `base` right after the world bootstrap,
    /// `current` after the latest request's reclamation. `current ==
    /// base` means the worker is leak-free.
    worker_epoch: Vec<(u64, u64)>,
    /// Workers whose threads died (escaped panic) and were respawned.
    worker_deaths: u64,
    respawns: u64,
    /// Requests that ended in an internal error (a panic a barrier
    /// contained, or a broken engine invariant), after each of which
    /// the worker rebuilt its world.
    panics: u64,
    /// Queue depth over time: `(ms since start, depth)`, sampled at
    /// every enqueue and dequeue, in time order, last
    /// [`DEPTH_SERIES_CAP`] points.
    depth_series: VecDeque<(u64, u64)>,
    /// Recent completed requests as worker busy spans.
    worker_spans: VecDeque<WorkerSpan>,
}

struct Shared {
    front: Front,
    /// Requests waiting for a worker; each worker takes one per wake,
    /// so every waiting request counts against `--queue-cap`.
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    shutdown: AtomicBool,
    stats: Mutex<StatsInner>,
    opts: ServeOptions,
    started: Instant,
    /// Workers currently inside their serve loop (drops on death or
    /// drain); the supervision tick respawns the difference.
    live_workers: std::sync::atomic::AtomicUsize,
    /// Worker threads by pool slot; the supervision tick replaces
    /// finished handles, [`Server::wait`] joins whatever is left.
    pool: Mutex<Vec<Option<JoinHandle<()>>>>,
}

impl Shared {
    /// Enqueues a job; `Err((reason, message))` when the queue is full
    /// or draining. The reason distinguishes ordinary backpressure
    /// ("queue-full") from a degraded pool ("workers-degraded" /
    /// "workers-unavailable") so operators and retrying clients can
    /// tell overload apart from workers dying.
    fn enqueue(&self, job: Job) -> Result<(), (&'static str, String)> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        // Check shutdown under the queue lock — the same lock under
        // which workers observe (empty queue + shutdown) and exit — so
        // a job can never be enqueued after the last worker has left.
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(("shutting-down", "server is shutting down".to_string()));
        }
        if q.len() >= self.opts.queue_cap {
            let mut stats = self.stats.lock().unwrap_or_else(|e| e.into_inner());
            stats.rejected += 1;
            let live = self.live_workers.load(Ordering::SeqCst);
            let pool = self.opts.workers.max(1);
            let (reason, message) = if live == 0 {
                (
                    "workers-unavailable",
                    format!("request queue full and no live workers (respawning {pool})"),
                )
            } else if live < pool {
                (
                    "workers-degraded",
                    format!("request queue full with {live}/{pool} workers live"),
                )
            } else {
                ("queue-full", "request queue full".to_string())
            };
            return Err((reason, message));
        }
        q.push_back(job);
        let depth = q.len();
        drop(q);
        let mut stats = self.stats.lock().unwrap_or_else(|e| e.into_inner());
        stats.enqueued += 1;
        stats.max_depth = stats.max_depth.max(depth as u64);
        stats.record_depth(self.started.elapsed().as_millis() as u64, depth as u64);
        drop(stats);
        self.cv.notify_one();
        Ok(())
    }

    /// Takes the oldest waiting job, with the queue depth it leaves,
    /// waiting for one; `None` once the daemon drains and the queue is
    /// empty.
    fn next_job(&self) -> Option<(Job, usize)> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = q.pop_front() {
                return Some((job, q.len()));
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            q = self
                .cv
                .wait_timeout(q, Duration::from_millis(200))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    fn stats_json(&self) -> Json {
        let depth = self.queue.lock().unwrap_or_else(|e| e.into_inner()).len();
        let s = self.stats.lock().unwrap_or_else(|e| e.into_inner());
        let hit_share = if s.cache_hits + s.cache_misses > 0 {
            s.cache_hits as f64 / (s.cache_hits + s.cache_misses) as f64
        } else {
            0.0
        };
        let wall = self.started.elapsed().as_secs_f64();
        let mut busy_ms = Vec::new();
        let mut busy_total = 0.0;
        for b in &s.worker_busy {
            busy_ms.push(Json::Num(b.as_secs_f64() * 1e3));
            busy_total += b.as_secs_f64();
        }
        // Divide by the spawned pool size, not worker_busy.len():
        // workers that have not served a request yet are still idle
        // capacity and must count toward the denominator.
        let pool = self.opts.workers.max(1);
        let utilization = if wall > 0.0 {
            busy_total / (wall * pool as f64)
        } else {
            0.0
        };
        let ops = s
            .per_op
            .iter()
            .map(|(op, h)| (op.to_string(), h.to_json()))
            .collect();
        let phases_ms = s
            .phases_ms
            .iter()
            .map(|(name, ms)| (name.to_string(), Json::Num(*ms)))
            .collect();
        let depth_series: Vec<Json> = s
            .depth_series
            .iter()
            .map(|(ms, d)| Json::Arr(vec![Json::Num(*ms as f64), Json::Num(*d as f64)]))
            .collect();
        let worker_spans: Vec<Json> = s
            .worker_spans
            .iter()
            .map(|w| {
                obj(vec![
                    ("worker", Json::Num(w.worker as f64)),
                    ("op", Json::Str(w.op.clone())),
                    ("trace_id", Json::Str(w.trace_id.clone())),
                    ("start_ms", Json::Num(w.start_ms)),
                    ("ms", Json::Num(w.dur_ms)),
                ])
            })
            .collect();
        // Per-world symbol gauges: each worker's table, sampled at
        // request completions (after reclamation). `growth` over the
        // baseline (the per-worker bootstrap bases) is the leak gauge —
        // zero for a leak-free daemon, whatever the load.
        let interned: u64 = s.worker_epoch.iter().map(|(_, len)| *len).sum();
        let baseline: u64 = s.worker_epoch.iter().map(|(base, _)| *base).sum();
        let worker_epochs: Vec<Json> = s
            .worker_epoch
            .iter()
            .map(|(_, len)| Json::Num(*len as f64))
            .collect();
        let live = self.live_workers.load(Ordering::SeqCst);
        let (store_bytes, store_artifacts) = store_gauges(self.opts.cache_dir.as_ref());
        obj(vec![
            ("uptime_ms", Json::Num(wall * 1e3)),
            ("workers", Json::Num(self.opts.workers as f64)),
            (
                "supervision",
                obj(vec![
                    ("live", Json::Num(live as f64)),
                    ("deaths", Json::Num(s.worker_deaths as f64)),
                    ("respawns", Json::Num(s.respawns as f64)),
                    ("panics", Json::Num(s.panics as f64)),
                ]),
            ),
            (
                "queue",
                obj(vec![
                    ("depth", Json::Num(depth as f64)),
                    ("max_depth", Json::Num(s.max_depth as f64)),
                    ("capacity", Json::Num(self.opts.queue_cap as f64)),
                    ("enqueued", Json::Num(s.enqueued as f64)),
                    ("rejected", Json::Num(s.rejected as f64)),
                    ("depth_series", Json::Arr(depth_series)),
                ]),
            ),
            (
                // Per-worker symbol tables: `growth` is the symbols
                // retained beyond the workers' bootstrap worlds — held
                // at 0 by per-request epoch truncation (the old
                // process-global interner grew ~3.2 symbols/request:
                // BENCH_6 in EXPERIMENTS.md's retired records).
                "interner",
                obj(vec![
                    ("symbols", Json::Num(interned as f64)),
                    ("worker_epochs", Json::Arr(worker_epochs)),
                    ("at_start", Json::Num(baseline as f64)),
                    (
                        "growth",
                        Json::Num(interned.saturating_sub(baseline) as f64),
                    ),
                    (
                        "high_water",
                        Json::Num(s.interner_high_water.max(interned) as f64),
                    ),
                ]),
            ),
            (
                "store",
                obj(vec![
                    ("bytes", Json::Num(store_bytes as f64)),
                    ("artifacts", Json::Num(store_artifacts as f64)),
                ]),
            ),
            (
                "requests",
                obj(vec![
                    ("done", Json::Num(s.done as f64)),
                    ("errors", Json::Num(s.errors as f64)),
                ]),
            ),
            (
                "cache",
                obj(vec![
                    ("hits", Json::Num(s.cache_hits as f64)),
                    ("misses", Json::Num(s.cache_misses as f64)),
                    ("hit_share", Json::Num(hit_share)),
                ]),
            ),
            ("utilization", Json::Num(utilization)),
            ("worker_busy_ms", Json::Arr(busy_ms)),
            ("worker_spans", Json::Arr(worker_spans)),
            ("ops", Json::Obj(ops)),
            ("phases_ms", Json::Obj(phases_ms)),
            ("http", self.front.stats_json()),
        ])
    }

    /// Parses a run/expand/check (or test) request and queues it for
    /// the workers: a 400 for a body that is not a JSON object, a 503
    /// shed when the queue is full or draining, else the worker's reply.
    fn submit(&self, path: &'static str, request: &Request) -> Reply {
        let body = match http::json_body(&request.body) {
            Ok(body) => body,
            Err(message) => return Reply::error(400, "protocol", &message),
        };
        let (tx, rx) = mpsc::channel();
        let job = Job {
            op: path.trim_start_matches("/v1/"),
            request: body,
            trace_id: trace_id(request),
            reply: tx,
        };
        match self.enqueue(job) {
            Err((reason, message)) => rejection(reason, &message),
            // A worker that dies mid-request drops the reply sender; the
            // client still gets a structured error, never a hung
            // connection.
            Ok(()) => rx
                .recv()
                .unwrap_or_else(|_| Reply::error(500, "internal", "worker dropped the request")),
        }
    }
}

impl Service for Shared {
    fn front(&self) -> &Front {
        &self.front
    }

    fn call(&self, path: &'static str, request: &Request) -> Reply {
        if path != "/v1/stats" {
            return self.submit(path, request);
        }
        let mut stats = self.stats_json();
        if let Json::Obj(map) = &mut stats {
            map.insert("ok".to_string(), Json::Bool(true));
        }
        Reply::json(200, &stats)
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// Respawns, in its pool slot, each worker whose thread died (an
    /// escaped panic), so a panicking request can degrade but never
    /// wedge the daemon. Queued requests are untouched by a death: they
    /// stay in the shared queue until a surviving or respawned worker
    /// pops them.
    fn tick(self: &Arc<Self>) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        for (index, slot) in pool.iter_mut().enumerate() {
            if !slot.as_ref().is_some_and(JoinHandle::is_finished) {
                continue;
            }
            if slot.take().is_some_and(|handle| handle.join().is_err()) {
                let mut stats = self.stats.lock().unwrap_or_else(|e| e.into_inner());
                stats.worker_deaths += 1;
                stats.respawns += 1;
                drop(stats);
                *slot = Some(spawn_worker(index, self));
            }
        }
    }
}

/// The client's `x-lagoon-trace-id`, if it has any visible ASCII: the
/// daemon echoes it as a response header and records it on the worker
/// span, so it keeps only those characters (a bare CR could split the
/// echoed header) and at most 64 of them (a hostile client cannot
/// bloat the span history).
fn trace_id(request: &Request) -> Option<String> {
    let id: String = request
        .header("x-lagoon-trace-id")?
        .chars()
        .filter(char::is_ascii_graphic)
        .take(64)
        .collect();
    (!id.is_empty()).then_some(id)
}

/// Total size and count of `.lagc` artifacts in the store directory
/// (zeroes when there is no store or it cannot be read).
fn store_gauges(dir: Option<&PathBuf>) -> (u64, u64) {
    let Some(dir) = dir else { return (0, 0) };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    let (mut bytes, mut artifacts) = (0u64, 0u64);
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("lagc") {
            continue;
        }
        if let Ok(meta) = entry.metadata() {
            bytes += meta.len();
            artifacts += 1;
        }
    }
    (bytes, artifacts)
}

impl StatsInner {
    /// Adds a queue-depth sample in time order: a worker records the
    /// sample it took at dequeue only when its request completes.
    fn record_depth(&mut self, at_ms: u64, depth: u64) {
        if self.depth_series.len() == DEPTH_SERIES_CAP {
            self.depth_series.pop_front();
        }
        let at = self.depth_series.partition_point(|&(t, _)| t <= at_ms);
        self.depth_series.insert(at, (at_ms, depth));
    }

    /// Publishes worker `index`'s symbol gauge — its bootstrap `base`
    /// and its `current` count — and folds the total into the interner
    /// high-water mark.
    fn record_epoch(&mut self, index: usize, base: u64, current: u64) {
        if self.worker_epoch.len() <= index {
            self.worker_epoch.resize(index + 1, (0, 0));
        }
        self.worker_epoch[index] = (base, current);
        let total = self.worker_epoch.iter().map(|(_, l)| *l).sum::<u64>();
        self.interner_high_water = self.interner_high_water.max(total);
    }
}

/// A running daemon; dropping it does **not** stop it — call
/// [`Server::shutdown`] and [`Server::wait`].
pub struct Server(Running<Shared>);

impl Server {
    /// Binds the listener and starts the runner and the worker pool.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn start(opts: ServeOptions) -> std::io::Result<Server> {
        let listener = http::listen(&opts.addr)?;
        let workers = opts.workers.max(1);
        let mut routes = vec![
            ("POST", "/v1/run"),
            ("POST", "/v1/expand"),
            ("POST", "/v1/check"),
            ("GET", "/v1/stats"),
        ];
        if opts.test_ops {
            routes.extend([("POST", "/v1/test/panic"), ("POST", "/v1/test/kill")]);
        }
        let shared = Arc::new(Shared {
            front: Front::new(routes, opts.max_request_bytes.max(1024)),
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: Mutex::new(StatsInner::default()),
            opts,
            started: Instant::now(),
            live_workers: std::sync::atomic::AtomicUsize::new(0),
            pool: Mutex::new(Vec::new()),
        });
        // the pool starts after the runner, so a runner that fails to
        // start leaves no worker behind; requests queue meanwhile
        let running = Running::start(listener, Arc::clone(&shared))?;
        let mut pool = shared.pool.lock().unwrap_or_else(|e| e.into_inner());
        pool.extend((0..workers).map(|index| Some(spawn_worker(index, &shared))));
        drop(pool);
        Ok(Server(running))
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// Starts a graceful drain: stop accepting, finish queued work.
    pub fn shutdown(&self) {
        self.0.shutdown();
    }

    /// Blocks until the runner's threads and all workers have drained
    /// and exited (call [`Server::shutdown`] first, or rely on a
    /// client's `POST /v1/shutdown` / SIGTERM).
    pub fn wait(self) {
        self.join();
    }

    /// The server's current statistics as a JSON object.
    pub fn stats_json(&self) -> Json {
        self.0.service().stats_json()
    }

    /// Like [`Server::wait`], then returns the final statistics.
    pub fn wait_with_stats(self) -> Json {
        self.join().stats_json()
    }

    fn join(self) -> Arc<Shared> {
        // no tick runs once the runner is joined, so the pool is final
        let shared = self.0.join();
        let handles: Vec<JoinHandle<()>> = {
            let mut pool = shared.pool.lock().unwrap_or_else(|e| e.into_inner());
            pool.drain(..).flatten().collect()
        };
        for w in handles {
            let _ = w.join();
        }
        shared
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn kind_slug(kind: &Kind) -> &'static str {
    match kind {
        Kind::Type => "type",
        Kind::Arity => "arity",
        Kind::Unbound => "unbound",
        Kind::Overflow => "overflow",
        Kind::DivideByZero => "divide-by-zero",
        Kind::Range => "range",
        Kind::Contract { .. } => "contract",
        Kind::User => "user",
        Kind::ResourceExhausted { .. } => "resource-exhausted",
        Kind::Internal => "internal",
    }
}

/// A program's error as the daemon answers it, with the status: 500
/// for an internal error (a contained panic or a broken engine
/// invariant), else 200 — the daemon served the request, and a program
/// that exhausted its own budget is a result too, so the gateway never
/// fails it over to a second shard.
fn rt_error(e: &RtError) -> (u16, Json) {
    let (status, fields) = match &e.kind {
        Kind::ResourceExhausted { budget } => {
            (200, vec![("budget", Json::Str(budget.to_string()))])
        }
        Kind::Contract { blame } => (200, vec![("blame", Json::Str(blame.as_str()))]),
        Kind::Internal => (500, Vec::new()),
        _ => (200, Vec::new()),
    };
    (status, error_json(kind_slug(&e.kind), &e.message, fields))
}

/// Merges a request's `"limits"` object over the server defaults.
///
/// Requests can only *tighten* the operator-configured budgets: a
/// value above the server default leaves the default, so an untrusted
/// client cannot lift resource caps on the daemon.
///
/// # Errors
///
/// A message naming the key, for a `"limits"` that is not an object,
/// a key that names no budget, or a value that is not a non-negative
/// integer.
pub fn merge_limits(base: Limits, spec: Option<&Json>) -> Result<Limits, String> {
    let mut limits = base;
    let fields = match spec {
        None => return Ok(limits),
        Some(Json::Obj(fields)) => fields,
        Some(_) => return Err("\"limits\" must be an object".to_string()),
    };
    for (key, value) in fields {
        let setting = SETTINGS
            .iter()
            .find(|s| s.key == key)
            .ok_or_else(|| format!("unknown limit \"{key}\""))?;
        // `as_u64` truncates a fraction; a budget is a whole number
        let n = value
            .as_u64()
            .filter(|n| Json::Num(*n as f64) == *value)
            .ok_or_else(|| format!("limit \"{key}\" must be a non-negative integer"))?;
        if base.get(setting.budget).is_none_or(|default| n < default) {
            limits.set(setting.budget, n);
        }
    }
    Ok(limits)
}

/// Spawns the worker for pool slot `index`.
fn spawn_worker(index: usize, shared: &Arc<Shared>) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || worker_main(index, &shared))
}

/// Builds a worker's private world: registry, languages, store handle,
/// source loader. The bootstrap's symbols fill this thread's table up to
/// the worker's baseline.
fn build_world(shared: &Arc<Shared>) -> std::rc::Rc<ModuleRegistry> {
    let registry = ModuleRegistry::new();
    lagoon_optimizer::register_typed_languages(&registry);
    registry.set_store_dir(shared.opts.cache_dir.clone());
    if let Some(root) = shared.opts.source_root.clone() {
        let source = crate::build::dir_source(root);
        registry.set_loader(move |name: Symbol| name.with_str(|s| source(s)));
    }
    registry
}

/// Accounts a worker in `live_workers` for the scope of its serve loop,
/// surviving panics (shedding decisions read the count while the
/// supervision tick respawns).
struct LiveWorkerGuard<'a>(&'a Arc<Shared>);

impl Drop for LiveWorkerGuard<'_> {
    fn drop(&mut self) {
        self.0.live_workers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A request's reply, with what its record adds to `/v1/stats`.
struct Served {
    status: u16,
    body: Json,
    /// Compiled-store hits and misses.
    cache: (usize, usize),
    /// Time per phase bucket, in nanoseconds.
    buckets: Vec<(&'static str, u128)>,
}

impl Served {
    /// An error reply from a request that recorded nothing.
    fn error(status: u16, kind: &str, message: &str) -> Served {
        Served {
            status,
            body: error_json(kind, message, Vec::new()),
            cache: (0, 0),
            buckets: Vec::new(),
        }
    }
}

/// One worker's world and request loop. The registry persists across
/// requests — compiled modules stay warm — but instances are reset after
/// each request, inline sources get unique un-cacheable names, and when
/// a request leaves the persistent footprint unchanged the worker
/// truncates its symbol epoch and sweeps its binding table back to the
/// pre-request state: no run-time state *or memory* crosses requests.
///
/// A worker takes one job per wake, so every request that waits is in
/// the shared queue, where `--queue-cap` bounds it and an idle worker
/// can take it. Per request it takes the queue lock once, to dequeue,
/// and the stats lock once, to record the request.
///
/// Self-healing layers, outermost first: a thread death (escaped
/// panic — in production a bug, in tests `test/kill`) drops the reply
/// sender (the connection maps that to a structured `internal` error)
/// and the supervision tick respawns the slot; the per-request `catch_unwind`
/// below converts a panic outside the request path's own barrier into
/// a structured error; and after any internal error the worker rebuilds
/// its world (a panic mid-compile can leave registry guards dirty).
fn worker_main(index: usize, shared: &Arc<Shared>) {
    shared.live_workers.fetch_add(1, Ordering::SeqCst);
    let _live = LiveWorkerGuard(shared);
    let mut registry = build_world(shared);
    let mut base = lagoon_syntax::interned_count() as u64;
    let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
    stats.record_epoch(index, base, base);
    drop(stats);
    static REQ_ID: AtomicU64 = AtomicU64::new(0);
    static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

    while let Some((job, depth)) = shared.next_job() {
        let start = Instant::now();
        let since_start = start.duration_since(shared.started);
        let op = job.op;
        if op == "test/kill" {
            // Simulates a crashed worker: die outside every barrier,
            // dropping `job.reply` (client sees a structured error) and
            // leaving the thread to the supervision tick.
            panic!("test/kill: deliberate worker death");
        }
        // Echoed on the response and recorded on the request's worker
        // span, so clients can line up their own telemetry with the
        // daemon's.
        let trace_id = job
            .trace_id
            .unwrap_or_else(|| format!("lag-{}", TRACE_SEQ.fetch_add(1, Ordering::Relaxed)));

        // Reclamation checkpoint: if the request leaves the persistent
        // registry footprint unchanged, everything it interned and
        // bound is garbage afterwards.
        let footprint = registry.persistent_footprint();
        let scope_watermark = lagoon_syntax::Scope::watermark();
        let epoch = lagoon_syntax::epoch_mark();

        let answer = catch_unwind(AssertUnwindSafe(|| {
            handle_request(&registry, &job.request, op, shared.opts.limits, &REQ_ID)
        }));
        let Served {
            status,
            body: mut response,
            cache: (hits, misses),
            buckets,
        } = match answer {
            Ok(Ok(served)) => served,
            Ok(Err(message)) => Served::error(400, "protocol", &message),
            Err(_) => Served::error(500, "internal", "internal error: request panicked"),
        };

        let rebuilt = status == 500;
        if rebuilt {
            // An internal error: a panic the request barrier (or the
            // one above) contained, or a broken engine invariant.
            // Mid-flight registry state (cycle guards, partial
            // compiles) may be dirty: rebuild the whole world.
            drop(registry);
            lagoon_syntax::epoch_reset();
            registry = build_world(shared);
            base = lagoon_syntax::interned_count() as u64;
        } else {
            // Fresh instances for the next request: compiled code stays
            // warm, run-time module state does not cross requests.
            registry.reset_instances();
            // Unless the request warmed a named module, whose world is
            // now part of the persistent working set (growth converges
            // to the named-module set), reclaim what it interned and
            // bound. Truncate first so the binding-table sweep sees the
            // request's symbols as dead.
            if registry.persistent_footprint() == footprint {
                lagoon_syntax::epoch_truncate(epoch);
                registry.sweep_ephemeral(scope_watermark);
            }
        }

        let latency = start.elapsed();
        let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
        stats.done += 1;
        stats.errors += u64::from(response.get("ok").and_then(Json::as_bool) != Some(true));
        stats.panics += u64::from(rebuilt);
        stats.cache_hits += hits as u64;
        stats.cache_misses += misses as u64;
        for (phase, nanos) in buckets {
            *stats.phases_ms.entry(phase).or_insert(0.0) += nanos as f64 / 1e6;
        }
        stats.per_op.entry(op).or_default().record(latency);
        if stats.worker_busy.len() <= index {
            stats.worker_busy.resize(index + 1, Duration::ZERO);
        }
        stats.worker_busy[index] += latency;
        stats.record_depth(since_start.as_millis() as u64, depth as u64);
        if stats.worker_spans.len() == WORKER_SPANS_CAP {
            stats.worker_spans.pop_front();
        }
        stats.worker_spans.push_back(WorkerSpan {
            worker: index,
            op: op.to_string(),
            trace_id: trace_id.clone(),
            start_ms: since_start.as_secs_f64() * 1e3,
            dur_ms: latency.as_secs_f64() * 1e3,
        });
        stats.record_epoch(index, base, lagoon_syntax::interned_count() as u64);
        drop(stats);

        if let Json::Obj(map) = &mut response {
            map.insert("micros".to_string(), Json::Num(latency.as_micros() as f64));
            map.insert("trace_id".to_string(), Json::Str(trace_id.clone()));
        }
        let _ = job.reply.send(Reply {
            headers: vec![("x-lagoon-trace-id", trace_id)],
            ..Reply::json(status, &response)
        });
    }
}

/// The top-level fields a run, expand or check request may carry.
const FIELDS: [&str; 5] = ["source", "module", "engine", "diag", "limits"];

/// Serves one request against the worker's world through the one
/// request path ([`ModuleRegistry::request`]), under the request's limits
/// (merged over `defaults`) and with a diagnostics recorder installed:
/// the response's `phases` and, when the request sets `"diag": true`,
/// its `report` (opcode mix included) are views of that record. Returns
/// the status with the body — [`rt_error`]'s for a failed program, else
/// 200 — and the record's store counts and phase buckets.
///
/// # Errors
///
/// A `protocol` message naming the field, for a field not in [`FIELDS`],
/// a `source` or `module` that is not a string (or both of them), an
/// `engine` other than `"vm"` or `"interp"`, a `diag` that is not a
/// boolean, a bad `limits` ([`merge_limits`]) or a module name the
/// loader refuses.
fn handle_request(
    registry: &std::rc::Rc<ModuleRegistry>,
    request: &Json,
    op: &'static str,
    defaults: Limits,
    req_id: &AtomicU64,
) -> Result<Served, String> {
    if let Json::Obj(fields) = request {
        if let Some(key) = fields.keys().find(|key| !FIELDS.contains(&key.as_str())) {
            return Err(format!("unknown field \"{key}\""));
        }
    }
    let limits = merge_limits(defaults, request.get("limits"))?;
    let text = |key: &str| match request.get(key) {
        None => Ok(None),
        Some(Json::Str(text)) => Ok(Some(text.as_str())),
        Some(_) => Err(format!("\"{key}\" must be a string")),
    };
    let (inline, named) = (text("source")?, text("module")?);
    let engine = match request.get("engine").map(Json::as_str) {
        None | Some(Some("vm")) => EngineKind::Vm,
        Some(Some("interp")) => EngineKind::Interp,
        Some(_) => return Err("\"engine\" must be \"vm\" or \"interp\"".to_string()),
    };
    let want_diag = match request.get("diag") {
        None => false,
        Some(Json::Bool(diag)) => *diag,
        Some(_) => return Err("\"diag\" must be a boolean".to_string()),
    };
    // Resolve the target module: inline source gets a unique name that
    // `store::is_module_file_name` rejects (it contains '/'), so request bodies
    // never enter the shared store and never collide across requests.
    // The `req/{id}` symbol and everything the request interns land in
    // this worker's symbol table, which the worker truncates after the
    // request — the old process-global interner leak (~3.2 symbols per
    // inline request, BENCH_6 in EXPERIMENTS.md's retired records) is
    // gone.
    let name = match (inline, named) {
        (Some(_), Some(_)) => return Err("give \"source\" or \"module\", not both".to_string()),
        (Some(src), None) => {
            let id = req_id.fetch_add(1, Ordering::Relaxed);
            let name = format!("req/{id}");
            registry.add_module(&name, src);
            name
        }
        (None, Some(m)) => {
            // the loader's own rule: a name it would refuse never reaches
            // the registry, so no request can name an inline module
            if !lagoon_core::store::is_module_file_name(m) {
                return Err("invalid module name".to_string());
            }
            m.to_string()
        }
        (None, None) if op == "test/panic" => String::new(),
        (None, None) => return Err("need \"module\" or \"source\"".to_string()),
    };

    // Every request installs its own limits before it runs, and nothing
    // the worker runs between requests charges a budget.
    lagoon_diag::limits::install(limits);
    let collector = Collector::install();
    let (result, output) = match op {
        // Deliberate panic inside the request barrier: the client must
        // get a structured `internal` error and the worker must survive
        // (its world is rebuilt).
        "test/panic" => (
            lagoon_core::contained(|| panic!("test/panic: deliberate request panic")),
            String::new(),
        ),
        "run" => lagoon_runtime::io::capture_output(|| {
            let step = Step::Run {
                engine,
                count_opcodes: want_diag,
            };
            registry.request(&name, step)
        }),
        "expand" => (registry.request(&name, Step::Expand), String::new()),
        _ => (registry.request(&name, Step::Check), String::new()),
    };
    lagoon_diag::uninstall();
    if inline.is_some() {
        registry.remove_module(&name);
    }
    let buckets = collector.timing_buckets();

    let (status, mut response) = match result {
        Err(e) => rt_error(&e),
        Ok(outcome) => {
            let mut fields = vec![("ok", Json::Bool(true))];
            match outcome {
                Outcome::Value(value) => fields.extend([
                    ("value", Json::Str(value.to_string())),
                    ("output", Json::Str(output)),
                ]),
                Outcome::Forms(forms) => {
                    let rendered = forms
                        .iter()
                        .map(|f| Json::Str(f.to_datum().to_string()))
                        .collect();
                    fields.push(("forms", Json::Arr(rendered)));
                }
                Outcome::Checked => {}
            }
            (200, obj(fields))
        }
    };
    if let Json::Obj(map) = &mut response {
        // Per-phase span summary (pipeline buckets, ms). Present on
        // errors too: a failed request still shows how far it got.
        let phases = buckets
            .iter()
            .map(|(name, nanos)| (name.to_string(), Json::Num(*nanos as f64 / 1e6)))
            .collect();
        map.insert("phases".to_string(), Json::Obj(phases));
        if want_diag {
            map.insert("report".to_string(), collector.report().to_json());
        }
    }
    Ok(Served {
        status,
        body: response,
        cache: collector.cache_counts(),
        buckets: buckets.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagoon_diag::json;

    #[test]
    fn statuses_reflect_the_serving_outcome() {
        let status = |kind: Kind| rt_error(&RtError::new(kind, "m")).0;
        assert_eq!(status(Kind::Internal), 500);
        // Program-level errors are 200: the daemon served the request,
        // and a program that exhausted its own budget is a result too.
        assert_eq!(status(Kind::Type), 200);
        let budget = Kind::ResourceExhausted { budget: "vm-steps" };
        assert_eq!(status(budget.clone()), 200);
        let (_, body) = rt_error(&RtError::new(budget, "m"));
        let error = body.get("error").expect("error");
        assert_eq!(error.get("budget").and_then(Json::as_str), Some("vm-steps"));
        assert_eq!(body.get("ok").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn trace_ids_keep_visible_ascii_and_are_bounded() {
        let with = |id: &str| Request {
            head: http::Head {
                method: "POST".to_string(),
                target: "/v1/run".to_string(),
                http11: true,
                headers: vec![("X-Lagoon-Trace-Id".to_string(), id.to_string())],
            },
            body: Vec::new(),
        };
        assert_eq!(trace_id(&with("t-1")).as_deref(), Some("t-1"));
        assert_eq!(
            trace_id(&with("a\rx-evil: 1")).as_deref(),
            Some("ax-evil:1")
        );
        assert_eq!(
            trace_id(&with(&"x".repeat(100))).map(|id| id.len()),
            Some(64)
        );
        assert_eq!(trace_id(&with(" \r ")), None);
    }

    #[test]
    fn merge_limits_only_tightens() {
        let base = Limits {
            max_expansion_steps: 1_000,
            max_expansion_depth: 50,
            max_phase1_steps: 10_000,
            max_vm_steps: 100_000,
            max_stack_depth: 256,
            timeout: Some(Duration::from_millis(500)),
        };
        // Tightening requests take effect.
        let spec = json::parse(r#"{"max_vm_steps":10,"timeout_ms":100}"#).unwrap();
        let merged = merge_limits(base, Some(&spec)).unwrap();
        assert_eq!(merged.max_vm_steps, 10);
        assert_eq!(merged.timeout, Some(Duration::from_millis(100)));
        // Attempts to exceed the server defaults are clamped to them.
        let spec = json::parse(
            r#"{"max_expansion_steps":18446744073709551615,"max_expansion_depth":9999,
                "max_phase1_steps":18446744073709551615,"max_vm_steps":18446744073709551615,
                "max_stack_depth":9999,"timeout_ms":3600000}"#,
        )
        .unwrap();
        let merged = merge_limits(base, Some(&spec)).unwrap();
        assert_eq!(merged, base);
        // With no default timeout, a request may introduce one (that
        // only tightens from "unlimited").
        let open = Limits {
            timeout: None,
            ..base
        };
        let spec = json::parse(r#"{"timeout_ms":100}"#).unwrap();
        assert_eq!(
            merge_limits(open, Some(&spec)).unwrap().timeout,
            Some(Duration::from_millis(100))
        );
    }

    #[test]
    fn merge_limits_names_what_it_cannot_take() {
        for (spec, message) in [
            (r#"{"max_steps":10}"#, r#"unknown limit "max_steps""#),
            (
                r#"{"max_vm_steps":-1}"#,
                r#"limit "max_vm_steps" must be a non-negative integer"#,
            ),
            (
                r#"{"timeout_ms":1.5}"#,
                r#"limit "timeout_ms" must be a non-negative integer"#,
            ),
            (
                r#"{"max_stack_depth":"10"}"#,
                r#"limit "max_stack_depth" must be a non-negative integer"#,
            ),
            ("[]", r#""limits" must be an object"#),
        ] {
            let spec = json::parse(spec).unwrap();
            assert_eq!(
                merge_limits(Limits::default(), Some(&spec)).unwrap_err(),
                message
            );
        }
    }

    #[test]
    fn serve_options_read_back_from_their_arguments() {
        let changed = ServeOptions {
            addr: "127.0.0.1:7000".to_string(),
            workers: 3,
            queue_cap: 5,
            cache_dir: Some(PathBuf::from("store dir")),
            source_root: Some(PathBuf::from("src")),
            limits: Limits {
                max_expansion_steps: 1,
                max_expansion_depth: 2,
                max_phase1_steps: 3,
                max_vm_steps: 4,
                max_stack_depth: 5,
                timeout: Some(Duration::from_millis(6)),
            },
            test_ops: true,
            max_request_bytes: 4096,
        };
        for opts in [changed, ServeOptions::default()] {
            let parsed = crate::cli::parse(&SERVE, &opts.to_args()).unwrap();
            assert_eq!(ServeOptions::from_args(&parsed).unwrap(), opts);
        }
    }
}
