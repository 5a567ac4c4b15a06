//! The lagoon gateway: a router over a pool of sharded evaluation
//! daemons.
//!
//! The gateway answers the daemon's own HTTP routes — `POST
//! /v1/run|expand|check`, `GET /v1/stats`, `POST /v1/shutdown` — plus
//! `GET /v1/healthz`, through the same server skeleton
//! ([`lagoon_server::http::Running`]). The gateway runs N daemons —
//! spawned `lagoon serve` processes in production, in-process servers in
//! tests and the benchmark — that share compiled modules only through
//! the content-addressed `.lagc` store (made multi-process-safe by its
//! tmp+rename writes), and its supervision tick respawns a dead one.
//!
//! Routing is least-outstanding-requests with shed-aware failover: a
//! request goes to the shard with the fewest requests in flight, and a
//! 503 shed or a transport failure moves it to the next-least-loaded
//! shard before anything surfaces to the client. The gateway never
//! parses a request or response body: it forwards the body bytes and
//! the `x-lagoon-trace-id` header, and passes the daemon's status,
//! body, trace and retry headers back. Only when *every* shard sheds
//! does the client see the 503, with the daemon's `retry-after` hint.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod shard;

/// The HTTP layer, which moved to [`lagoon_server::http`]; re-exported
/// under its old path for the benchmark, which still imports it here.
pub use lagoon_server::http;

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lagoon_diag::Limits;
use lagoon_server::http::{Front, HttpResponse, Reply, Request, Running, Service};
use lagoon_server::json::{self, obj, Json};

use shard::{Shard, ShardBackend};

/// Options for [`Gateway::start`].
#[derive(Clone)]
pub struct GatewayOptions {
    /// Bind address for the HTTP listener (port 0 picks one).
    pub addr: String,
    /// Number of daemon shards.
    pub shards: usize,
    /// Worker threads per shard daemon.
    pub workers_per_shard: usize,
    /// Per-shard bounded queue capacity.
    pub queue_cap: usize,
    /// How shard daemons run.
    pub backend: ShardBackend,
    /// Shared `.lagc` store directory — the one thing shards share.
    pub cache_dir: Option<PathBuf>,
    /// Directory of `<name>.lag` sources for named modules.
    pub source_root: Option<PathBuf>,
    /// Default per-request limits for the shard daemons.
    pub limits: Limits,
    /// Request body cap, for the gateway and its shard daemons alike
    /// (the body is forwarded unchanged).
    pub max_body_bytes: usize,
    /// Bound on connect/read/write against a shard.
    pub request_timeout: Option<Duration>,
    /// Enables `POST /v1/test/kill-shard` (and the daemons' test ops).
    pub test_ops: bool,
}

impl Default for GatewayOptions {
    fn default() -> GatewayOptions {
        GatewayOptions {
            addr: "127.0.0.1:0".to_string(),
            shards: 2,
            workers_per_shard: 2,
            queue_cap: 64,
            backend: ShardBackend::InProcess,
            cache_dir: None,
            source_root: None,
            limits: Limits::default(),
            max_body_bytes: 1 << 20,
            request_timeout: Some(Duration::from_secs(30)),
            test_ops: false,
        }
    }
}

/// The request header the gateway forwards to the daemon unchanged.
const TRACE: &str = "x-lagoon-trace-id";

/// The response headers passed back from the daemon unchanged.
const FORWARDED: [&str; 3] = [TRACE, "retry-after", "x-lagoon-retry-after-ms"];

struct GwShared {
    front: Front,
    opts: GatewayOptions,
    shards: Vec<Shard>,
    shutdown: AtomicBool,
    started: Instant,
    /// Requests that every shard shed (surfaced as 503).
    sheds: AtomicU64,
    /// Requests that succeeded on a shard other than the first pick.
    failovers: AtomicU64,
    /// Requests that failed on every shard at the transport level.
    unavailable: AtomicU64,
}

/// A running gateway; call [`Gateway::shutdown`] then [`Gateway::wait`]
/// (or rely on `POST /v1/shutdown` / SIGTERM) to stop it.
pub struct Gateway(Running<GwShared>);

impl Gateway {
    /// Binds the HTTP listener, starts every shard, and starts the
    /// runner.
    ///
    /// # Errors
    ///
    /// Returns bind or shard-spawn failures (already-started shards
    /// are stopped before the error surfaces).
    pub fn start(opts: GatewayOptions) -> std::io::Result<Gateway> {
        let listener = lagoon_server::http::listen(&opts.addr)?;
        let mut shards = Vec::new();
        for index in 0..opts.shards.max(1) {
            match Shard::start(&opts, index) {
                Ok(shard) => shards.push(shard),
                Err(e) => {
                    stop(&shards, &opts);
                    return Err(e);
                }
            }
        }
        let mut routes = vec![
            ("GET", "/v1/healthz"),
            ("GET", "/v1/stats"),
            ("POST", "/v1/run"),
            ("POST", "/v1/expand"),
            ("POST", "/v1/check"),
        ];
        if opts.test_ops {
            routes.push(("POST", "/v1/test/kill-shard"));
        }
        let shared = Arc::new(GwShared {
            front: Front::new(routes, opts.max_body_bytes),
            opts,
            shards,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            sheds: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
        });
        Running::start(listener, Arc::clone(&shared))
            .map(Gateway)
            .inspect_err(|_| stop(&shared.shards, &shared.opts))
    }

    /// The bound HTTP address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// Starts shutdown: the acceptor stops taking connections and
    /// [`Gateway::wait`] will drain the shards.
    pub fn shutdown(&self) {
        self.0.shutdown();
    }

    /// Blocks until the runner's threads exit, then drains and reaps
    /// every shard daemon.
    pub fn wait(self) {
        let shared = self.0.join();
        stop(&shared.shards, &shared.opts);
    }

    /// The gateway's statistics object (`deep` embeds each daemon's
    /// own `stats`).
    pub fn stats_json(&self, deep: bool) -> String {
        stats_json(self.0.service(), deep).to_string()
    }
}

/// Drains and reaps each shard daemon.
fn stop(shards: &[Shard], opts: &GatewayOptions) {
    for shard in shards {
        shard.stop(opts.request_timeout);
    }
}

impl Service for GwShared {
    fn front(&self) -> &Front {
        &self.front
    }

    fn call(&self, path: &'static str, request: &Request) -> Reply {
        match path {
            "/v1/healthz" => healthz(self),
            "/v1/stats" => {
                let deep = !request.head.target.contains("deep=0");
                Reply::json(200, &stats_json(self, deep))
            }
            "/v1/test/kill-shard" => kill_shard(self, request),
            _ => dispatch(self, path, request),
        }
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Respawns each shard whose daemon died.
    fn tick(self: &Arc<Self>) {
        for shard in &self.shards {
            shard.ensure_live(&self.opts);
        }
    }
}

fn healthz(shared: &GwShared) -> Reply {
    let live = shared.shards.iter().filter(|s| s.is_live()).count();
    let ok = live >= 1 && !shared.draining();
    let body = obj(vec![
        ("ok", Json::Bool(ok)),
        ("live", Json::Num(live as f64)),
        ("shards", Json::Num(shared.shards.len() as f64)),
    ]);
    Reply::json(if ok { 200 } else { 503 }, &body)
}

fn kill_shard(shared: &GwShared, request: &Request) -> Reply {
    let shard = lagoon_server::http::json_body(&request.body)
        .ok()
        .and_then(|body| body.get("shard").cloned());
    let index = match shard {
        Some(Json::Num(n)) if n >= 0.0 && n.fract() == 0.0 => n as usize,
        _ => return Reply::error(400, "protocol", "need an integer \"shard\""),
    };
    match shared.shards.get(index) {
        None => Reply::error(400, "protocol", &format!("no shard {index}")),
        Some(shard) => {
            shard.kill();
            Reply::json(
                200,
                &obj(vec![
                    ("ok", Json::Bool(true)),
                    ("killed", Json::Num(index as f64)),
                ]),
            )
        }
    }
}

/// Proxies a run/expand/check request to the shard pool:
/// least-outstanding first, failing over across shards on transport
/// errors and 503 sheds, so a single dead or saturated shard is
/// invisible to the client.
fn dispatch(shared: &GwShared, path: &str, request: &Request) -> Reply {
    let trace: Vec<(&str, String)> = request
        .header(TRACE)
        .map(|id| (TRACE, id.to_string()))
        .into_iter()
        .collect();

    // Least-outstanding routing: try shards from least to most loaded.
    let mut order: Vec<usize> = (0..shared.shards.len()).collect();
    order.sort_by_key(|i| shared.shards[*i].outstanding.load(Ordering::Relaxed));

    let mut last_shed: Option<(HttpResponse, usize)> = None;
    for (attempt, &index) in order.iter().enumerate() {
        let shard = &shared.shards[index];
        shard.outstanding.fetch_add(1, Ordering::Relaxed);
        let result = shard.request(
            "POST",
            path,
            &trace,
            &request.body,
            shared.opts.request_timeout,
        );
        shard.outstanding.fetch_sub(1, Ordering::Relaxed);
        let Ok(response) = result else { continue };
        shard.done.fetch_add(1, Ordering::Relaxed);
        if response.status == 503 {
            // Shed — try the next shard (even a non-retryable
            // "shutting-down" shed: another shard may take it).
            shard.sheds.fetch_add(1, Ordering::Relaxed);
            last_shed = Some((response, index));
            continue;
        }
        if attempt > 0 {
            shared.failovers.fetch_add(1, Ordering::Relaxed);
        }
        return forward(response, index);
    }

    if let Some((response, index)) = last_shed {
        shared.sheds.fetch_add(1, Ordering::Relaxed);
        return forward(response, index);
    }

    shared.unavailable.fetch_add(1, Ordering::Relaxed);
    lagoon_server::http::unavailable("no shard could take the request")
}

/// A daemon's response as the gateway's reply: its status, body, trace
/// and retry headers unchanged, plus the shard that served it.
fn forward(response: HttpResponse, shard: usize) -> Reply {
    let mut headers: Vec<(&'static str, String)> = FORWARDED
        .iter()
        .filter_map(|&name| response.header(name).map(|v| (name, v.to_string())))
        .collect();
    headers.push(("x-lagoon-shard", shard.to_string()));
    Reply {
        status: response.status,
        headers,
        body: response.body,
    }
}

/// The gateway statistics object: the connection loop's HTTP counters
/// and per-route latency histograms with the routing counters, per-shard
/// gauges, and (when `deep`) each daemon's own `stats` object embedded.
fn stats_json(shared: &GwShared, deep: bool) -> Json {
    let mut http = shared.front.stats_json();
    if let Json::Obj(map) = &mut http {
        for (name, counter) in [
            ("sheds", &shared.sheds),
            ("failovers", &shared.failovers),
            ("unavailable", &shared.unavailable),
        ] {
            let n = counter.load(Ordering::Relaxed);
            map.insert(name.to_string(), Json::Num(n as f64));
        }
    }
    let shard_gauges: Vec<Json> = shared.shards.iter().map(Shard::gauges).collect();
    let live = shared.shards.iter().filter(|s| s.is_live()).count();
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        (
            "uptime_ms",
            Json::Num(shared.started.elapsed().as_secs_f64() * 1e3),
        ),
        ("shards", Json::Num(shared.shards.len() as f64)),
        (
            "workers_per_shard",
            Json::Num(shared.opts.workers_per_shard as f64),
        ),
        ("live", Json::Num(live as f64)),
        ("http", http),
        ("shard", Json::Arr(shard_gauges)),
    ];
    if deep {
        let daemons: Vec<Json> = shared
            .shards
            .iter()
            .map(|s| {
                s.request("GET", "/v1/stats", &[], b"", shared.opts.request_timeout)
                    .ok()
                    .and_then(|r| json::parse(&r.body_str()).ok())
                    .unwrap_or(Json::Null)
            })
            .collect();
        fields.push(("daemons", Json::Arr(daemons)));
    }
    obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_keeps_the_daemons_status_body_and_headers() {
        let response = HttpResponse {
            status: 503,
            headers: vec![
                ("content-length".to_string(), "2".to_string()),
                ("X-Lagoon-Trace-Id".to_string(), "t-9".to_string()),
                ("retry-after".to_string(), "1".to_string()),
                ("x-lagoon-retry-after-ms".to_string(), "25".to_string()),
            ],
            body: b"{}".to_vec(),
        };
        let reply = forward(response, 1);
        assert_eq!(reply.status, 503);
        assert_eq!(reply.body, b"{}");
        assert_eq!(
            reply.headers,
            vec![
                ("x-lagoon-trace-id", "t-9".to_string()),
                ("retry-after", "1".to_string()),
                ("x-lagoon-retry-after-ms", "25".to_string()),
                ("x-lagoon-shard", "1".to_string()),
            ]
        );
    }
}
