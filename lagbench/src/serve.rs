//! `serve-mixed`: open-loop HTTP against a 1-shard, 2-worker gateway.
//!
//! Traffic is a seeded mix of four request types: `run` of a named typed
//! module graph (served from the store), `run` of inline sources that
//! differ per request (a cold compile each), `expand` and `check` of
//! inline sources. A single load process with at most `nproc` threads
//! and `nproc` keep-alive connections pipelines requests on a fixed
//! schedule and times each from its scheduled send.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lagoon_core::EngineKind;
use lagoon_gateway::shard::ShardBackend;
use lagoon_gateway::{Gateway, GatewayOptions};
use lagoon_server::json::{self, obj, Json};

use crate::calib::Calibration;
use crate::gen::{inline_body, service_graph, source_in, tagged, Lang, Rng};
use crate::host::{process_cpu_s, thread_cpu_s};
use crate::layers::{self, ProbeModule};
use crate::report::{Outcome, Sample};
use crate::stats::{median, tail};
use crate::Run;

/// Offered rate for the latency phase, requests/s: well below what the
/// gateway sustains on a 2-CPU host, so latency is not queue-bound.
pub const MODERATE_RPS: f64 = 150.0;
/// Offered rate for the capacity phase, requests/s: above what the
/// gateway sustains, so completions measure capacity.
pub const SATURATING_RPS: f64 = 4000.0;
/// Shares of `--seconds` spent sending at the moderate and at the
/// saturating rate; the rest is left for the saturated backlog to drain.
const MODERATE_SHARE: f64 = 0.75;
const SATURATING_SHARE: f64 = 0.1;
const SHARDS: usize = 1;
const WORKERS: usize = 2;
/// Distinct inline programs whose values are computed in set-up; each
/// request tags one to make its source unique.
const VARIANTS: u64 = 24;
/// A failed or refused request counts as missing any latency limit.
const MISS_MS: f64 = 1e9;
/// Most requests in flight on one connection. Past it the generator
/// holds further sends (and reports them late) rather than let both
/// ends block writing into full socket buffers.
const MAX_INFLIGHT: usize = 128;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    RunNamed,
    RunInline,
    Expand,
    Check,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::RunNamed, Kind::RunInline, Kind::Expand, Kind::Check];

    fn key(self) -> &'static str {
        match self {
            Kind::RunNamed => "run_named",
            Kind::RunInline => "run_inline",
            Kind::Expand => "expand",
            Kind::Check => "check",
        }
    }

    fn op(self) -> &'static str {
        match self {
            Kind::RunNamed | Kind::RunInline => "run",
            Kind::Expand => "expand",
            Kind::Check => "check",
        }
    }
}

/// One request: its type, JSON body (without `op`), and expected value
/// for `run` requests.
pub struct Request {
    pub kind: Kind,
    pub body: String,
    pub expected: Option<String>,
}

impl Request {
    fn http_bytes(&self) -> Vec<u8> {
        format!(
            "POST /v1/{} HTTP/1.1\r\nhost: lagoon\r\ncontent-length: {}\r\n\r\n{}",
            self.kind.op(),
            self.body.len(),
            self.body
        )
        .into_bytes()
    }

    fn ndjson_line(&self) -> String {
        match json::parse(&self.body) {
            Ok(Json::Obj(mut map)) => {
                map.insert("op".to_string(), Json::Str(self.kind.op().to_string()));
                Json::Obj(map).to_string()
            }
            _ => String::new(),
        }
    }

    /// Whether a response body answers this request correctly.
    fn check(&self, status: u16, body: &str) -> bool {
        let Ok(parsed) = json::parse(body) else {
            return false;
        };
        if status != 200 || parsed.get("ok").and_then(Json::as_bool) != Some(true) {
            return false;
        }
        match (&self.expected, self.kind) {
            (Some(want), _) => parsed.get("value").and_then(Json::as_str) == Some(want.as_str()),
            (None, Kind::Expand) => {
                matches!(parsed.get("forms"), Some(Json::Arr(f)) if !f.is_empty())
            }
            (None, _) => true,
        }
    }
}

struct Inputs {
    /// The seed the named graph and the inline variants were made from.
    seed: u64,
    src_root: PathBuf,
    named_value: String,
    variants: Vec<String>,
}

fn inputs(dir: &Path, seed: u64) -> Result<Inputs, String> {
    let src_root = dir.join("src");
    std::fs::create_dir_all(&src_root).map_err(|e| format!("mkdir {}: {e}", src_root.display()))?;
    let graph = service_graph(seed);
    let reg = layers::registry();
    for m in &graph {
        let path = src_root.join(format!("{}.lag", m.name));
        std::fs::write(&path, m.source()).map_err(|e| format!("write {}: {e}", path.display()))?;
        reg.add_module(&m.name, &m.source());
    }
    // Expected values come from the reference interpreter.
    let named_value = reg
        .run("svc-top", EngineKind::Interp)
        .map_err(|e| format!("ast-interp svc-top: {e}"))?
        .to_string();
    let mut variants = Vec::new();
    for v in 0..VARIANTS {
        let name = format!("variant{v}");
        reg.add_module(&name, &source_in(&inline_body(seed + v), Lang::Untyped));
        variants.push(
            reg.run(&name, EngineKind::Interp)
                .map_err(|e| format!("ast-interp {name}: {e}"))?
                .to_string(),
        );
    }
    Ok(Inputs {
        seed,
        src_root,
        named_value,
        variants,
    })
}

/// The request stream drawn by `stream`; request `i` is unique through
/// its tag.
fn requests(inp: &Inputs, stream: u64, count: usize, first: usize) -> Vec<Request> {
    let mut rng = Rng::new(stream ^ 0xfeed ^ first as u64);
    (first..first + count)
        .map(|i| {
            let kind = Kind::ALL[rng.below(4) as usize];
            let v = rng.below(VARIANTS);
            let inline = |lang: Lang| {
                obj(vec![(
                    "source",
                    Json::Str(source_in(&tagged(&inline_body(inp.seed + v), i), lang)),
                )])
                .to_string()
            };
            match kind {
                Kind::RunNamed => Request {
                    kind,
                    body: r#"{"module":"svc-top"}"#.to_string(),
                    expected: Some(inp.named_value.clone()),
                },
                Kind::RunInline => Request {
                    kind,
                    body: inline(if i % 2 == 0 {
                        Lang::Typed
                    } else {
                        Lang::Untyped
                    }),
                    expected: Some(inp.variants[v as usize].clone()),
                },
                Kind::Expand => Request {
                    kind,
                    body: inline(Lang::Untyped),
                    expected: None,
                },
                Kind::Check => Request {
                    kind,
                    body: inline(Lang::Typed),
                    expected: None,
                },
            }
        })
        .collect()
}

/// The outcome of one open-loop request.
#[derive(Clone, Debug)]
pub struct Done {
    /// When it was due, from the start of the phase.
    pub due: Duration,
    /// How late the generator actually sent it.
    pub late: Duration,
    /// From due time to the end of the response (`None`: no response).
    pub latency: Option<Duration>,
    pub status: u16,
    pub body: String,
}

/// Parses one complete response off the front of `buf`:
/// `(status, body, bytes consumed)`.
pub fn parse_response(buf: &[u8]) -> Option<Result<(u16, String, usize), String>> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok());
    let Some(status) = status else {
        return Some(Err(format!("bad status line in {head:?}")));
    };
    let len = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    let total = head_end + 4 + len;
    if buf.len() < total {
        return None;
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..total]).into_owned();
    Some(Ok((status, body, total)))
}

/// Sends `bytes[i]` at `start + due[i]` over `conns` keep-alive
/// connections (request `i` on connection `i % conns`, one thread each),
/// reading pipelined responses as they arrive.
/// While the load threads run, the calling thread times the reference
/// kernel into `cal` every 200 ms, so the host's speed is sampled during
/// the phase itself. Returns the instant due times count from, and one
/// [`Done`] per request.
pub fn open_loop(
    addr: &str,
    bytes: &[Vec<u8>],
    due: &[Duration],
    conns: usize,
    cal: &mut Calibration,
) -> (Instant, Vec<Done>) {
    let start = Instant::now() + Duration::from_millis(20);
    let conns = conns.max(1);
    let mut results: Vec<Option<Done>> = vec![None; bytes.len()];
    let per_conn: Vec<Vec<(usize, Done)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<usize> = (c..bytes.len()).step_by(conns).collect();
                scope.spawn(move || connection_loop(addr, bytes, due, &mine, start))
            })
            .collect();
        while !handles.iter().all(|h| h.is_finished()) {
            cal.sample(1);
            std::thread::sleep(Duration::from_millis(200));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    for (i, done) in per_conn.into_iter().flatten() {
        results[i] = Some(done);
    }
    let done = results
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            d.unwrap_or(Done {
                due: due[i],
                late: Duration::ZERO,
                latency: None,
                status: 0,
                body: String::new(),
            })
        })
        .collect();
    (start, done)
}

fn connection_loop(
    addr: &str,
    bytes: &[Vec<u8>],
    due: &[Duration],
    mine: &[usize],
    start: Instant,
) -> Vec<(usize, Done)> {
    let mut out = Vec::with_capacity(mine.len());
    let mut stream: Option<TcpStream> = None;
    let mut buf: Vec<u8> = Vec::new();
    let mut inflight: std::collections::VecDeque<(usize, Duration)> = Default::default();
    let mut next = 0;
    let fail_inflight = |inflight: &mut std::collections::VecDeque<(usize, Duration)>,
                         out: &mut Vec<(usize, Done)>| {
        for (i, late) in inflight.drain(..) {
            out.push((
                i,
                Done {
                    due: due[i],
                    late,
                    latency: None,
                    status: 0,
                    body: String::new(),
                },
            ));
        }
    };
    let mut chunk = vec![0u8; 64 * 1024];
    while next < mine.len() || !inflight.is_empty() {
        // send everything that is due
        while next < mine.len()
            && inflight.len() < MAX_INFLIGHT
            && start + due[mine[next]] <= Instant::now()
        {
            let i = mine[next];
            next += 1;
            if stream.is_none() {
                stream = TcpStream::connect(addr).ok().inspect(|s| {
                    let _ = s.set_nodelay(true);
                });
                buf.clear();
            }
            let late = Instant::now().saturating_duration_since(start + due[i]);
            match stream.as_mut().map(|s| s.write_all(&bytes[i])) {
                Some(Ok(())) => inflight.push_back((i, late)),
                _ => {
                    stream = None;
                    inflight.push_back((i, late));
                    fail_inflight(&mut inflight, &mut out);
                }
            }
        }
        if inflight.is_empty() {
            if next < mine.len() {
                let wait = (start + due[mine[next]]).saturating_duration_since(Instant::now());
                std::thread::sleep(wait);
            }
            continue;
        }
        // read until the next send is due (or up to 1 s when none is)
        let wait = if next < mine.len() && inflight.len() < MAX_INFLIGHT {
            (start + due[mine[next]]).saturating_duration_since(Instant::now())
        } else {
            Duration::from_secs(1)
        };
        let Some(s) = stream.as_mut() else {
            fail_inflight(&mut inflight, &mut out);
            continue;
        };
        let _ = s.set_read_timeout(Some(wait.max(Duration::from_micros(200))));
        match s.read(&mut chunk) {
            Ok(0) => {
                stream = None;
                fail_inflight(&mut inflight, &mut out);
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                while let Some(parsed) = parse_response(&buf) {
                    let Ok((status, body, used)) = parsed else {
                        stream = None;
                        fail_inflight(&mut inflight, &mut out);
                        break;
                    };
                    buf.drain(..used);
                    let Some((i, late)) = inflight.pop_front() else {
                        break;
                    };
                    let latency = Instant::now().saturating_duration_since(start + due[i]);
                    out.push((
                        i,
                        Done {
                            due: due[i],
                            late,
                            latency: Some(latency),
                            status,
                            body,
                        },
                    ));
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                stream = None;
                fail_inflight(&mut inflight, &mut out);
            }
        }
    }
    out
}

fn schedule(count: usize, rps: f64) -> Vec<Duration> {
    (0..count)
        .map(|i| Duration::from_secs_f64(i as f64 / rps))
        .collect()
}

struct Phase {
    start: Instant,
    /// CPU ms the whole process spent per OK request during the phase:
    /// the gateway, the daemon workers and the load generator.
    cpu_per_ok_ms: f64,
    /// The same at nominal host speed.
    norm_per_ok_ms: f64,
    done: Vec<Done>,
    ok: usize,
    shed: usize,
    errors: usize,
}

fn drive(addr: &str, reqs: &[Request], rps: f64, conns: usize, out: &mut Outcome) -> Phase {
    let bytes: Vec<Vec<u8>> = reqs.iter().map(Request::http_bytes).collect();
    let mut cal = Calibration::default();
    let (cpu, own) = (process_cpu_s(), thread_cpu_s());
    let (start, done) = open_loop(addr, &bytes, &schedule(reqs.len(), rps), conns, &mut cal);
    // The calling thread only timed the reference kernel: leave it out.
    let cpu_ms = ((process_cpu_s() - cpu) - (thread_cpu_s() - own)) * 1e3;
    let scale = cal.take_scale();
    let (mut ok, mut shed, mut errors) = (0, 0, 0);
    for (req, d) in reqs.iter().zip(&done) {
        out.attempted += 1;
        if req.check(d.status, &d.body) {
            ok += 1;
            continue;
        }
        match d.status {
            503 => shed += 1,
            _ => errors += 1,
        }
        out.fail(format!(
            "{} request: status {} body {}",
            req.kind.key(),
            d.status,
            d.body.chars().take(160).collect::<String>()
        ));
    }
    Phase {
        start,
        cpu_per_ok_ms: cpu_ms / ok.max(1) as f64,
        norm_per_ok_ms: cpu_ms * scale / ok.max(1) as f64,
        done,
        ok,
        shed,
        errors,
    }
}

fn latencies_ms(done: &[Done]) -> Vec<f64> {
    done.iter()
        .map(|d| d.latency.map_or(MISS_MS, |l| l.as_secs_f64() * 1e3))
        .collect()
}

struct Served {
    gateway: Gateway,
    store: PathBuf,
}

fn start(inp: &Inputs, dir: &Path) -> Result<Served, String> {
    let store = dir.join("store");
    let _ = std::fs::remove_dir_all(&store);
    std::fs::create_dir_all(&store).map_err(|e| format!("mkdir {}: {e}", store.display()))?;
    let gateway = Gateway::start(GatewayOptions {
        shards: SHARDS,
        workers_per_shard: WORKERS,
        backend: ShardBackend::InProcess,
        cache_dir: Some(store.clone()),
        source_root: Some(inp.src_root.clone()),
        ..GatewayOptions::default()
    })
    .map_err(|e| format!("start gateway: {e}"))?;
    Ok(Served { gateway, store })
}

fn stop(served: Served) {
    served.gateway.shutdown();
    served.gateway.wait();
}

/// Closed-loop warm-up: one request of each type, so the named graph is
/// compiled into the store before anything is timed.
fn warm(addr: &str, inp: &Inputs, seed: u64) -> Result<(), String> {
    let reqs = requests(inp, seed, 16, usize::MAX / 2);
    let mut client = lagoon_gateway::http::HttpClient::connect(addr, Some(Duration::from_secs(30)))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    for req in &reqs {
        let r = client
            .request(
                "POST",
                &format!("/v1/{}", req.kind.op()),
                &[],
                req.body.as_bytes(),
            )
            .map_err(|e| format!("warm-up: {e}"))?;
        if !req.check(r.status, &r.body_str()) {
            return Err(format!(
                "warm-up {}: {} {}",
                req.kind.key(),
                r.status,
                r.body_str()
            ));
        }
    }
    Ok(())
}

pub fn run(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let conns = run.host.cpus.max(1);
    let mut served = None;
    let mut inp = None;
    for rep in 0..run.setup_reps {
        if let Some(s) = served.take() {
            stop(s);
        }
        let dir = run.work.join(format!("serve-{rep}"));
        let (i, s) = out.setup(|| -> Result<(Inputs, Served), String> {
            let i = inputs(&dir, run.seed)?;
            let s = start(&i, &dir)?;
            warm(&s.gateway.addr().to_string(), &i, run.seed)?;
            Ok((i, s))
        })?;
        served = Some(s);
        inp = Some(i);
    }
    let (served, inp) = (served.ok_or("no set-up")?, inp.ok_or("no set-up")?);
    let result = measure(run, out, &served, &inp, conns);
    stop(served);
    result
}

fn measure(
    run: &Run,
    out: &mut Outcome,
    served: &Served,
    inp: &Inputs,
    conns: usize,
) -> Result<(), String> {
    let addr = served.gateway.addr().to_string();
    let moderate_n = ((run.seconds * MODERATE_SHARE) * MODERATE_RPS).ceil() as usize;
    let saturating_n = ((run.seconds * SATURATING_SHARE) * SATURATING_RPS).ceil() as usize;
    let moderate = requests(inp, run.seed, moderate_n, 0);
    let saturating = requests(inp, run.seed, saturating_n, moderate_n);

    let mut traced = None;
    let lat = drive(&addr, &moderate, MODERATE_RPS, conns, out);
    if run.tracer.enabled() {
        // A second, traced pass over the same schedule: one span per
        // request, from the actual send to the end of its response.
        let again = drive(&addr, &moderate, MODERATE_RPS, conns, out);
        for (i, d) in again.done.iter().enumerate() {
            if let Some(l) = d.latency {
                let due = again.start + d.due;
                run.tracer
                    .record("gateway.request", i as u64, due + d.late, due + l);
            }
        }
        traced = Some((
            again.norm_per_ok_ms,
            median(&latencies_ms(&again.done)).unwrap_or(0.0),
        ));
    }
    let cap = drive(&addr, &saturating, SATURATING_RPS, conns, out);

    let lat_ms = latencies_ms(&lat.done);
    // The operation is a request at the moderate rate, costed in process
    // CPU per OK response. The saturated phase's cost swings with how the
    // host co-schedules both busy vCPUs, so it is reported, not gated.
    out.samples.push(Sample {
        wall_ms: lat_ms.clone(),
        cpu_ms: vec![lat.cpu_per_ok_ms],
        norm_ms: vec![lat.norm_per_ok_ms],
    });
    let last_done = cap
        .done
        .iter()
        .filter_map(|d| d.latency.map(|l| d.due + l))
        .max()
        .unwrap_or_default();
    let capacity = cap.ok as f64 / last_done.as_secs_f64().max(1e-9);
    let p50 = median(&lat_ms).unwrap_or(0.0);
    let p99 = tail(&lat_ms, 0.99);
    out.layer("serve.p50_ms", p50);
    out.layer("serve.p99_ms", p99.map_or(0.0, |(_, v)| v));
    out.layer("serve.capacity_rps", capacity);
    let late_ms: Vec<f64> = lat
        .done
        .iter()
        .map(|d| d.late.as_secs_f64() * 1e3)
        .collect();
    let late = tail(&late_ms, 0.99);
    out.layer("gen.late_ms", late.map_or(0.0, |(_, v)| v));
    out.layer("gateway.shed", (lat.shed + cap.shed) as f64);
    out.layer("gateway.errors", (lat.errors + cap.errors) as f64);
    out.note(format!(
        "  moderate {MODERATE_RPS} req/s: {} requests, {} ok, p50 {p50:.3} ms, {} {:.3} ms, generator p{:.1} late {:.3} ms",
        lat.done.len(),
        lat.ok,
        p99.map_or("p99 unsupported".to_string(), |(q, _)| format!("p{:.1}", q * 100.0)),
        p99.map_or(0.0, |(_, v)| v),
        late.map_or(0.0, |(q, _)| q * 100.0),
        late.map_or(0.0, |(_, v)| v),
    ));
    out.note(format!(
        "  saturating {SATURATING_RPS} req/s: {} requests, {} ok, capacity {capacity:.1} req/s \
         (shards={SHARDS} workers={WORKERS} connections={conns} host_cpus={}{})",
        cap.done.len(),
        cap.ok,
        run.host.cpus,
        run.host.scaling_note(SHARDS.max(conns))
    ));

    let stats = json::parse(&served.gateway.stats_json(true)).unwrap_or(Json::Null);
    let daemon = match stats.get("daemons") {
        Some(Json::Arr(d)) => d.first().cloned().unwrap_or(Json::Null),
        _ => Json::Null,
    };
    let num = |j: Option<&Json>| match j {
        Some(Json::Num(n)) => *n,
        _ => 0.0,
    };
    out.layer("server.utilization", num(daemon.get("utilization")));
    out.layer(
        "server.queue.max_depth",
        num(daemon.get("queue").and_then(|q| q.get("max_depth"))),
    );
    out.layer(
        "server.cache.hit_share",
        num(daemon.get("cache").and_then(|c| c.get("hit_share"))),
    );

    out.note(format!(
        "  cpu per ok request: {:.4} ms moderate, {:.4} ms saturating ({:.4} and {:.4} at nominal speed)",
        lat.cpu_per_ok_ms, cap.cpu_per_ok_ms, lat.norm_per_ok_ms, cap.norm_per_ok_ms
    ));
    if let Some((traced_cpu, traced_p50)) = traced {
        out.layer(
            "bench.trace_overhead",
            traced_cpu / lat.norm_per_ok_ms - 1.0,
        );
        traced_layers(run, out, served, inp, &moderate, traced_p50)?;
    }
    Ok(())
}

/// Closed-loop round trips per request type, straight to a daemon
/// (NDJSON) and through the gateway (HTTP), at a low rate.
fn traced_layers(
    run: &Run,
    out: &mut Outcome,
    served: &Served,
    inp: &Inputs,
    moderate: &[Request],
    traced_p50: f64,
) -> Result<(), String> {
    const PER_KIND: usize = 40;
    let probe_reqs = requests(inp, run.seed ^ 0x9e, PER_KIND * 8, usize::MAX / 4);
    let daemon = lagoon_server::Server::start(lagoon_server::ServeOptions {
        workers: WORKERS,
        cache_dir: Some(served.store.clone()),
        source_root: Some(inp.src_root.clone()),
        ..lagoon_server::ServeOptions::default()
    })
    .map_err(|e| format!("start daemon: {e}"))?;
    let daemon_addr = daemon.addr().to_string();
    let gateway_addr = served.gateway.addr().to_string();
    let result = (|| -> Result<(), String> {
        let mut conn =
            lagoon_server::client::Connection::connect(&daemon_addr, Some(Duration::from_secs(30)))
                .map_err(|e| format!("connect daemon: {e}"))?;
        let mut http =
            lagoon_gateway::http::HttpClient::connect(&gateway_addr, Some(Duration::from_secs(30)))
                .map_err(|e| format!("connect gateway: {e}"))?;
        let mut overheads = Vec::new();
        let mut rtts = Vec::new();
        for kind in Kind::ALL {
            let reqs: Vec<&Request> = probe_reqs
                .iter()
                .filter(|r| r.kind == kind)
                .take(PER_KIND)
                .collect();
            let (mut d_ms, mut h_ms) = (Vec::new(), Vec::new());
            for (i, req) in reqs.iter().enumerate() {
                let line = req.ndjson_line();
                let t = Instant::now();
                let resp = run
                    .tracer
                    .span("server.daemon", None, i as u64, || conn.roundtrip(&line));
                d_ms.push(t.elapsed().as_secs_f64() * 1e3);
                out.attempted += 1;
                match resp {
                    Ok(body) if req.check(200, &body) => {}
                    Ok(body) => out.fail(format!("daemon {}: {body}", kind.key())),
                    Err(e) => out.fail(format!("daemon {}: {e}", kind.key())),
                }
                let t = Instant::now();
                let resp = run.tracer.span("gateway.http", None, i as u64, || {
                    http.request(
                        "POST",
                        &format!("/v1/{}", kind.op()),
                        &[],
                        req.body.as_bytes(),
                    )
                });
                h_ms.push(t.elapsed().as_secs_f64() * 1e3);
                out.attempted += 1;
                match resp {
                    Ok(r) if req.check(r.status, &r.body_str()) => {}
                    Ok(r) => out.fail(format!(
                        "gateway {}: {} {}",
                        kind.key(),
                        r.status,
                        r.body_str()
                    )),
                    Err(e) => out.fail(format!("gateway {}: {e}", kind.key())),
                }
            }
            let d50 = median(&d_ms).unwrap_or(0.0);
            let h50 = median(&h_ms).unwrap_or(0.0);
            out.layer(&format!("server.daemon.rtt_ms.{}", kind.key()), d50);
            overheads.push(h50 - d50);
            rtts.push(d50);
        }
        let overhead = overheads.iter().sum::<f64>() / overheads.len() as f64;
        out.layer("gateway.overhead_ms", overhead);
        // What a served request spends outside the daemon's round trip and
        // the gateway's own overhead: queueing and the load generator.
        let rtt = rtts.iter().sum::<f64>() / rtts.len() as f64;
        out.layer("bench.unattributed_ms", traced_p50 - rtt - overhead);
        Ok(())
    })();
    daemon.shutdown();
    daemon.wait();
    result?;

    // The HTTP parser on the exact bytes the load generator sends.
    let wire: Vec<u8> = moderate.iter().flat_map(Request::http_bytes).collect();
    let mut per_pass = Vec::new();
    for _ in 0..5 {
        let mut reader = std::io::BufReader::new(std::io::Cursor::new(&wire));
        let t = Instant::now();
        let parsed = run.tracer.span("gateway.http.parse", None, 0, || {
            let mut n = 0usize;
            while let Ok(head) = lagoon_gateway::http::read_head(&mut reader) {
                lagoon_gateway::http::read_body(&mut reader, &head, 1 << 20)
                    .map_err(|e| format!("{e:?}"))?;
                n += 1;
            }
            Ok::<usize, String>(n)
        })?;
        if parsed != moderate.len() {
            return Err(format!(
                "parser read {parsed} of {} requests",
                moderate.len()
            ));
        }
        per_pass.push(t.elapsed().as_secs_f64() * 1e6 / parsed.max(1) as f64);
    }
    out.layer("gateway.http.parse_us", median(&per_pass).unwrap_or(0.0));

    // The front-end cost of what the inline requests compile.
    let mut modules: Vec<ProbeModule> = service_graph(run.seed)
        .into_iter()
        .map(|m| ProbeModule {
            name: m.name,
            body: m.body,
        })
        .collect();
    modules.extend((0..VARIANTS).map(|v| ProbeModule {
        name: format!("inline{v}"),
        body: inline_body(run.seed + v),
    }));
    let probe = layers::probe_median(&run.tracer, &modules, &run.work.join("probe"), 3)?;
    out.frontend(&probe);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_parse_across_chunk_boundaries() {
        let one = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhello";
        let mut two = one.to_vec();
        two.extend_from_slice(b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\n\r\n{}");
        assert!(parse_response(&one[..20]).is_none());
        let (status, body, used) = parse_response(&two).expect("complete").expect("valid");
        assert_eq!((status, body.as_str(), used), (200, "hello", one.len()));
        let (status, body, _) = parse_response(&two[used..])
            .expect("complete")
            .expect("valid");
        assert_eq!((status, body.as_str()), (503, "{}"));
    }

    /// A server that answers each request only after a fixed stall: the
    /// open loop keeps sending on schedule, so latency measured from the
    /// due time grows for every request queued behind the stall, while
    /// the generator itself stays on time.
    #[test]
    fn open_loop_charges_queueing_to_latency_not_lateness() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let stall = Duration::from_millis(30);
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let mut buf = Vec::new();
            let mut chunk = [0u8; 1024];
            let mut answered = 0;
            while answered < 4 {
                let n = s.read(&mut chunk).expect("read");
                buf.extend_from_slice(&chunk[..n]);
                while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    buf.drain(..end + 4);
                    std::thread::sleep(stall);
                    s.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok")
                        .expect("write");
                    answered += 1;
                }
            }
        });
        let req = b"GET / HTTP/1.1\r\nhost: x\r\n\r\n".to_vec();
        let bytes = vec![req; 4];
        // all four due at once: each waits behind the ones before it
        let due = vec![Duration::ZERO; 4];
        let (_, done) = open_loop(&addr, &bytes, &due, 1, &mut Calibration::default());
        server.join().expect("server thread");
        assert!(done.iter().all(|d| d.status == 200 && d.body == "ok"));
        for (k, d) in done.iter().enumerate() {
            let latency = d.latency.expect("answered");
            assert!(
                latency >= stall * (k as u32 + 1),
                "request {k}: {latency:?}"
            );
            assert!(
                d.late < Duration::from_millis(20),
                "request {k} sent late: {:?}",
                d.late
            );
        }
    }
}
