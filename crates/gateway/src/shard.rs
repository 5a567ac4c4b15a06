//! Shard management: each shard is one evaluation daemon — a spawned
//! `lagoon serve` process or an in-process [`Server`] — plus the
//! gateway-side state needed to route to it: a pool of idle keep-alive
//! HTTP connections, an outstanding-request gauge for least-outstanding
//! routing, and failure counters.
//!
//! The gateway's supervision tick ([`Shard::ensure_live`]) is the
//! daemon's worker respawn lifted to process granularity: a shard whose
//! process exits (crash, kill) is respawned in place with the same
//! store directory, and the connection pool is flushed so stale
//! sockets never serve the new address.

use std::io::{BufRead, BufReader};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use lagoon_server::daemon::SERVE;
use lagoon_server::http::{HttpClient, HttpResponse};
use lagoon_server::json::{obj, Json};
use lagoon_server::{ServeOptions, Server};

use crate::GatewayOptions;

/// How a shard's daemon runs.
#[derive(Clone, Debug)]
pub enum ShardBackend {
    /// Spawn `cmd... serve …` as a child process (the production
    /// shape: shards are isolated OS processes sharing only the
    /// content-addressed store).
    Process {
        /// The command prefix, usually `[path-to-lagoon-binary]`.
        cmd: Vec<String>,
    },
    /// Run the daemon on threads inside this process (tests and the
    /// benchmark, which runs without a `lagoon` binary).
    InProcess,
}

enum Runtime {
    Process(std::process::Child),
    InProcess(Box<Server>),
    /// Killed or exited; the supervision tick respawns it.
    Dead,
}

impl Runtime {
    /// Whether the daemon is gone: killed, or a process that exited (or
    /// cannot be asked).
    fn dead(&mut self) -> bool {
        match self {
            Runtime::Dead => true,
            Runtime::InProcess(_) => false,
            Runtime::Process(child) => !matches!(child.try_wait(), Ok(None)),
        }
    }
}

struct ShardInner {
    addr: String,
    runtime: Runtime,
    /// Idle keep-alive connections to this shard, reused across
    /// requests (capped; see [`Shard::park`]).
    idle: Vec<HttpClient>,
}

/// One shard: its running daemon and the routing state around it.
pub struct Shard {
    /// The shard's position in the gateway's shard vector.
    pub index: usize,
    inner: Mutex<ShardInner>,
    /// Requests currently in flight against this shard — the
    /// least-outstanding routing key.
    pub outstanding: AtomicUsize,
    /// Requests this shard answered (any response, shed or not).
    pub done: AtomicU64,
    /// Responses that were 503 sheds.
    pub sheds: AtomicU64,
    /// Transport failures talking to this shard.
    pub conn_errors: AtomicU64,
    /// Times the supervision tick respawned this shard's daemon.
    pub respawns: AtomicU64,
}

/// Most idle connections parked per shard.
const IDLE_POOL_CAP: usize = 8;

/// Starts a backend per `opts`, returning its address and runtime.
fn start_backend(opts: &GatewayOptions, index: usize) -> std::io::Result<(String, Runtime)> {
    // each shard's daemon: the gateway's options, on a port of its own
    let serve = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: opts.workers_per_shard,
        queue_cap: opts.queue_cap,
        cache_dir: opts.cache_dir.clone(),
        source_root: opts.source_root.clone(),
        limits: opts.limits,
        test_ops: opts.test_ops,
        max_request_bytes: opts.max_body_bytes,
    };
    match &opts.backend {
        ShardBackend::InProcess => {
            let server = Server::start(serve)?;
            Ok((
                server.addr().to_string(),
                Runtime::InProcess(Box::new(server)),
            ))
        }
        ShardBackend::Process { cmd } => {
            let (program, prefix) = cmd
                .split_first()
                .ok_or_else(|| std::io::Error::other("empty shard command"))?;
            let mut command = std::process::Command::new(program);
            command.args(prefix).arg(SERVE.name).args(serve.to_args());
            command
                .stdin(std::process::Stdio::null())
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::inherit());
            let mut child = command.spawn()?;
            let stdout = child
                .stdout
                .take()
                .ok_or_else(|| std::io::Error::other("shard child has no stdout"))?;
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let addr = loop {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(std::io::Error::other(format!(
                        "shard {index} exited before announcing its address"
                    )));
                }
                if let Some(rest) = line.trim().strip_prefix("listening on ") {
                    break rest.to_string();
                }
            };
            // Keep draining the child's stdout so it can never block on
            // a full pipe (the daemon prints final stats on exit).
            std::thread::spawn(move || std::io::copy(&mut reader, &mut std::io::sink()));
            Ok((addr, Runtime::Process(child)))
        }
    }
}

impl Shard {
    /// Starts shard `index` per the gateway options.
    ///
    /// # Errors
    ///
    /// Propagates spawn/bind failures.
    pub fn start(opts: &GatewayOptions, index: usize) -> std::io::Result<Shard> {
        let (addr, runtime) = start_backend(opts, index)?;
        Ok(Shard {
            index,
            inner: Mutex::new(ShardInner {
                addr,
                runtime,
                idle: Vec::new(),
            }),
            outstanding: AtomicUsize::new(0),
            done: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            conn_errors: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
        })
    }

    /// The shard daemon's current address.
    pub fn addr(&self) -> String {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .addr
            .clone()
    }

    /// Whether the shard's daemon is (as far as we know) running.
    /// Routing discovers a death first, through a connection error, and
    /// fails over until the supervision tick respawns the shard.
    pub fn is_live(&self) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        !inner.runtime.dead()
    }

    /// Sends one request to this shard's daemon and reads the response,
    /// reusing a pooled connection when one is parked. A stale pooled
    /// connection (daemon restarted since it was parked) is retried
    /// once on a fresh dial before the error surfaces.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (after the one stale retry).
    pub fn request(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, String)],
        body: &[u8],
        timeout: Option<Duration>,
    ) -> std::io::Result<HttpResponse> {
        let pooled = {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.idle.pop().map(|c| (c, inner.addr.clone()))
        };
        if let Some((mut conn, addr)) = pooled {
            // An error on a pooled socket means the daemon likely
            // restarted; fall through to a fresh dial.
            if let Ok(response) = conn.request(method, path, headers, body) {
                self.park(conn, &addr, &response);
                return Ok(response);
            }
        }
        let addr = self.addr();
        let sent = HttpClient::connect(&addr, timeout).and_then(|mut conn| {
            let response = conn.request(method, path, headers, body)?;
            Ok((conn, response))
        });
        match sent {
            Ok((conn, response)) => {
                self.park(conn, &addr, &response);
                Ok(response)
            }
            Err(e) => {
                self.conn_errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Parks an idle connection for reuse, unless the daemon closed it,
    /// the shard has moved (respawn changed its address), or the pool
    /// is full.
    fn park(&self, conn: HttpClient, addr: &str, response: &HttpResponse) {
        if response.closes() {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.addr == addr && inner.idle.len() < IDLE_POOL_CAP {
            inner.idle.push(conn);
        }
    }

    /// Kills the shard's daemon (test op / shutdown path). A process
    /// backend is killed outright; an in-process backend is drained on
    /// a detached thread. Either way the supervision tick sees a dead
    /// shard and respawns it — unless the gateway is shutting down.
    pub fn kill(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.idle.clear();
        match std::mem::replace(&mut inner.runtime, Runtime::Dead) {
            Runtime::Dead => {}
            Runtime::Process(mut child) => {
                let _ = child.kill();
                let _ = child.wait();
            }
            Runtime::InProcess(server) => {
                server.shutdown();
                std::thread::spawn(move || server.wait());
            }
        }
    }

    /// The gateway's supervision tick for this shard: if the daemon
    /// died (killed, crashed, or exited), respawn it in place and flush
    /// the stale connection pool.
    pub fn ensure_live(&self, opts: &GatewayOptions) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if !inner.runtime.dead() {
            return;
        }
        match start_backend(opts, self.index) {
            Ok((addr, runtime)) => {
                inner.addr = addr;
                inner.runtime = runtime;
                inner.idle.clear();
                self.respawns.fetch_add(1, Ordering::Relaxed);
            }
            // Spawn failed (a transient fork or bind error): leave the shard
            // dead; the next tick tries again.
            Err(_) => inner.runtime = Runtime::Dead,
        }
    }

    /// The gateway-side gauges for this shard as a JSON object.
    pub fn gauges(&self) -> Json {
        obj(vec![
            ("index", Json::Num(self.index as f64)),
            ("addr", Json::Str(self.addr())),
            ("live", Json::Bool(self.is_live())),
            (
                "outstanding",
                Json::Num(self.outstanding.load(Ordering::Relaxed) as f64),
            ),
            ("done", Json::Num(self.done.load(Ordering::Relaxed) as f64)),
            (
                "sheds",
                Json::Num(self.sheds.load(Ordering::Relaxed) as f64),
            ),
            (
                "conn_errors",
                Json::Num(self.conn_errors.load(Ordering::Relaxed) as f64),
            ),
            (
                "respawns",
                Json::Num(self.respawns.load(Ordering::Relaxed) as f64),
            ),
        ])
    }

    /// Final teardown: ask the daemon to drain through its own
    /// shutdown route, then reap it. Used by gateway shutdown (not the
    /// kill path).
    pub fn stop(&self, timeout: Option<Duration>) {
        let _ = self.request("POST", "/v1/shutdown", &[], b"{}", timeout);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.idle.clear();
        match std::mem::replace(&mut inner.runtime, Runtime::Dead) {
            Runtime::Dead => {}
            Runtime::Process(mut child) => {
                // Bounded wait for the drain, then force.
                for _ in 0..100 {
                    match child.try_wait() {
                        Ok(Some(_)) => return,
                        Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                        Err(_) => break,
                    }
                }
                let _ = child.kill();
                let _ = child.wait();
            }
            Runtime::InProcess(server) => {
                server.shutdown();
                server.wait();
            }
        }
    }
}
