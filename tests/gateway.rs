//! Integration tests for the HTTP gateway: a real `lagoon gateway`
//! process (two spawned daemon shards sharing one store) takes raw
//! sockets probing the HTTP/1.1 parser's edges, pipelined and
//! keep-alive traffic, trace-id propagation, a shard kill with
//! failover and supervised respawn, and a store built through one
//! shard or two coming out byte for byte the same. Both shard backends
//! run under the gateway's limits.

use lagoon::diag::json::{self, Json};
use lagoon::gateway::shard::ShardBackend;
use lagoon::gateway::{Gateway, GatewayOptions};
use lagoon::server::http::{HttpClient, HttpResponse};
use lagoon::Limits;
use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

struct GatewayProc {
    child: Child,
    addr: String,
}

impl GatewayProc {
    fn spawn(extra: &[&str]) -> GatewayProc {
        let mut args = vec!["--addr", "127.0.0.1:0"];
        if !extra.contains(&"--shards") {
            args.extend(["--shards", "2"]);
        }
        if !extra.contains(&"--workers-per-shard") {
            args.extend(["--workers-per-shard", "1"]);
        }
        let mut child = Command::new(env!("CARGO_BIN_EXE_lagoon"))
            .arg("gateway")
            .args(args)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn lagoon gateway");
        let stdout = child.stdout.take().expect("child stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read listen line");
        let rest = line
            .trim()
            .strip_prefix("gateway listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {line:?}"));
        let addr = rest
            .split_whitespace()
            .next()
            .expect("address in banner")
            .to_string();
        GatewayProc { child, addr }
    }

    fn client(&self) -> HttpClient {
        HttpClient::connect(&self.addr, Some(Duration::from_secs(30))).expect("connect")
    }

    fn shutdown(mut self) {
        let mut client = self.client();
        let _ = client.request("POST", "/v1/shutdown", &[], b"{}");
        for _ in 0..200 {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    assert!(status.success(), "gateway exited with {status}");
                    return;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(50)),
                Err(e) => panic!("try_wait: {e}"),
            }
        }
        let _ = self.child.kill();
        panic!("gateway did not drain within 10s of shutdown");
    }
}

impl Drop for GatewayProc {
    // a test that panics before `shutdown` must not leave its gateway or
    // its shard daemons running. A kill alone would orphan the shards,
    // so ask for the drain first and wait briefly; then end and reap a
    // gateway that is still alive
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(None)) {
            return;
        }
        if let Ok(mut client) = HttpClient::connect(&self.addr, Some(Duration::from_secs(2))) {
            let _ = client.request("POST", "/v1/shutdown", &[], b"{}");
        }
        for _ in 0..40 {
            if !matches!(self.child.try_wait(), Ok(None)) {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Writes raw bytes and returns everything the gateway sends back
/// before closing (these probes all hit close-the-connection errors).
fn raw_roundtrip(addr: &str, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(bytes).expect("write");
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    String::from_utf8_lossy(&response).into_owned()
}

fn status_of(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"))
}

fn body_json(response: &HttpResponse) -> Json {
    json::parse(&response.body_str())
        .unwrap_or_else(|e| panic!("non-JSON body {:?}: {e}", response.body_str()))
}

#[test]
fn parser_edges_get_structured_errors() {
    let gateway = GatewayProc::spawn(&["--shards", "1"]);

    // Malformed request line: no version token.
    let r = raw_roundtrip(&gateway.addr, b"GARBAGE\r\n\r\n");
    assert_eq!(status_of(&r), 400, "malformed request line: {r}");
    assert!(r.contains("\"kind\":\"protocol\""), "structured body: {r}");

    // One header line over the 8 KiB cap.
    let mut oversized = Vec::from(&b"GET /v1/healthz HTTP/1.1\r\nx-big: "[..]);
    oversized.extend(vec![b'a'; 9 * 1024]);
    oversized.extend_from_slice(b"\r\n\r\n");
    let r = raw_roundtrip(&gateway.addr, &oversized);
    assert_eq!(status_of(&r), 431, "oversized header: {r}");

    // Unparseable Content-Length.
    let r = raw_roundtrip(
        &gateway.addr,
        b"POST /v1/run HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
    );
    assert_eq!(status_of(&r), 400, "bad content-length: {r}");

    // POST with a body but no Content-Length at all.
    let r = raw_roundtrip(&gateway.addr, b"POST /v1/run HTTP/1.1\r\n\r\n{}");
    assert_eq!(status_of(&r), 411, "missing content-length: {r}");

    // Declared body over the gateway's cap: shed-shaped, not retryable.
    let r = raw_roundtrip(
        &gateway.addr,
        b"POST /v1/run HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n",
    );
    assert_eq!(status_of(&r), 413, "oversized body: {r}");
    assert!(
        r.contains("\"reason\":\"request-too-large\""),
        "structured reason: {r}"
    );

    gateway.shutdown();
}

#[test]
fn pipelined_bursts_answer_in_order() {
    let gateway = GatewayProc::spawn(&[]);
    let mut client = gateway.client();

    // Queue three requests back to back without reading, then drain:
    // responses must come back in request order on the one connection.
    let bodies = [
        r##"{"source":"#lang lagoon\n(+ 1 1)\n"}"##,
        r##"{"source":"#lang lagoon\n(+ 2 2)\n"}"##,
        r##"{"source":"#lang lagoon\n(+ 3 3)\n"}"##,
    ];
    for body in &bodies {
        client
            .send("POST", "/v1/run", &[], body.as_bytes())
            .expect("pipelined send");
    }
    for expected in ["2", "4", "6"] {
        let response = client.read_response().expect("pipelined read");
        assert_eq!(response.status, 200);
        let parsed = body_json(&response);
        assert_eq!(
            parsed.get("value").and_then(Json::as_str),
            Some(expected),
            "in-order pipelined response"
        );
    }
    gateway.shutdown();
}

#[test]
fn keep_alive_survives_clean_errors_and_echoes_traces() {
    let gateway = GatewayProc::spawn(&[]);
    let mut client = gateway.client();

    // A clean framing-level app error (404) must not cost the
    // connection...
    let response = client
        .request("GET", "/v1/nope", &[], b"")
        .expect("404 roundtrip");
    assert_eq!(response.status, 404);
    // ...nor a wrong method (405)...
    let response = client
        .request("GET", "/v1/run", &[], b"")
        .expect("405 roundtrip");
    assert_eq!(response.status, 405);
    // ...nor a bad JSON body (400).
    let response = client
        .request("POST", "/v1/run", &[], b"not json")
        .expect("400 roundtrip");
    assert_eq!(response.status, 400);

    // Same connection still serves real work, and the trace id rides
    // the request into the daemon and back out as a header.
    let headers = [("x-lagoon-trace-id", "gw-test-trace-1".to_string())];
    let response = client
        .request(
            "POST",
            "/v1/run",
            &headers,
            br##"{"source":"#lang lagoon\n(* 6 7)\n"}"##,
        )
        .expect("run after errors");
    assert_eq!(response.status, 200);
    let parsed = body_json(&response);
    assert_eq!(parsed.get("value").and_then(Json::as_str), Some("42"));
    assert_eq!(
        response.header("x-lagoon-trace-id"),
        Some("gw-test-trace-1"),
        "trace id echoed"
    );
    assert!(
        response.header("x-lagoon-shard").is_some(),
        "serving shard is attributed"
    );
    gateway.shutdown();
}

#[test]
fn stats_and_healthz_report_the_fleet() {
    let gateway = GatewayProc::spawn(&[]);
    let mut client = gateway.client();

    let response = client
        .request("GET", "/v1/healthz", &[], b"")
        .expect("healthz");
    assert_eq!(response.status, 200);
    let parsed = body_json(&response);
    assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(parsed.get("live").and_then(Json::as_u64), Some(2));

    // Drive one request so the stats have something to count.
    let response = client
        .request(
            "POST",
            "/v1/run",
            &[],
            br##"{"source":"#lang lagoon\n(+ 1 2)\n"}"##,
        )
        .expect("run");
    assert_eq!(response.status, 200);

    // Hundreds of distinct unknown paths all land in one bucket: the
    // per-route histograms are keyed by matched route, so the key set
    // stays fixed whatever paths clients probe.
    const PROBES: u64 = 300;
    for i in 0..PROBES {
        let response = client
            .request("GET", &format!("/v1/probe-{i}"), &[], b"")
            .expect("404 roundtrip");
        assert_eq!(response.status, 404);
    }

    let response = client.request("GET", "/v1/stats", &[], b"").expect("stats");
    assert_eq!(response.status, 200);
    let parsed = body_json(&response);
    assert_eq!(parsed.get("shards").and_then(Json::as_u64), Some(2));
    let http = parsed.get("http").expect("http stats");
    assert!(http.get("requests").and_then(Json::as_u64).unwrap_or(0) >= 2 + PROBES);
    let routes = match http.get("routes") {
        Some(Json::Obj(routes)) => routes,
        other => panic!("route histograms missing: {other:?}"),
    };
    assert_eq!(
        routes.keys().map(String::as_str).collect::<Vec<_>>(),
        ["healthz", "run", "unmatched"]
    );
    assert_eq!(
        routes["unmatched"].get("count").and_then(Json::as_u64),
        Some(PROBES)
    );
    let shard_gauges = match parsed.get("shard") {
        Some(Json::Arr(items)) => items.len(),
        other => panic!("shard gauges missing: {other:?}"),
    };
    assert_eq!(shard_gauges, 2);
    // Deep stats reach into each daemon.
    match parsed.get("daemons") {
        Some(Json::Arr(daemons)) => assert_eq!(daemons.len(), 2),
        other => panic!("daemon stats missing: {other:?}"),
    }
    gateway.shutdown();
}

#[test]
fn killed_shard_fails_over_and_respawns() {
    let gateway = GatewayProc::spawn(&["--test-ops"]);
    let mut client = gateway.client();

    let response = client
        .request("POST", "/v1/test/kill-shard", &[], br#"{"shard":0}"#)
        .expect("kill shard");
    assert_eq!(response.status, 200, "{}", response.body_str());

    // Requests keep succeeding: the dead shard is skipped or failed
    // over while the supervisor brings a replacement up.
    for i in 0..4 {
        let body = format!(r##"{{"source":"#lang lagoon\n(+ {i} 1)\n"}}"##);
        let response = client
            .request("POST", "/v1/run", &[], body.as_bytes())
            .expect("run during failover");
        assert_eq!(response.status, 200, "{}", response.body_str());
        let parsed = body_json(&response);
        assert_eq!(
            parsed.get("value").and_then(Json::as_str),
            Some(format!("{}", i + 1).as_str())
        );
    }

    // The supervisor respawns the shard; stats record the respawn and
    // the fleet returns to full strength.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let response = client.request("GET", "/v1/stats", &[], b"").expect("stats");
        let parsed = body_json(&response);
        let live = parsed.get("live").and_then(Json::as_u64).unwrap_or(0);
        let respawns = match parsed.get("shard") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|g| g.get("respawns").and_then(Json::as_u64).unwrap_or(0))
                .sum::<u64>(),
            _ => 0,
        };
        if live == 2 && respawns >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "shard not respawned: live={live} respawns={respawns}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    gateway.shutdown();
}

/// Every `.lagc` artifact in `dir`, by file name.
fn store_artifacts(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("read store")
        .map(|entry| entry.expect("store entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "lagc"))
        .map(|path| {
            let name = path.file_name().expect("file name");
            let bytes = std::fs::read(&path).expect("read artifact");
            (name.to_string_lossy().into_owned(), bytes)
        })
        .collect()
}

#[test]
fn one_and_two_shard_stores_are_byte_identical() {
    let scratch = std::env::temp_dir().join(format!("lagoon-gw-stores-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let src = scratch.join("src");
    std::fs::create_dir_all(&src).expect("source dir");

    // four chains of three typed modules, each under an untyped entry,
    // and one untyped entry over all four chains
    let chains = ["pa", "pb", "pc", "pd"];
    for c in chains {
        for d in 0..3 {
            let (require, callee) = if d == 2 {
                (String::new(), "add1".to_string())
            } else {
                (
                    format!("(require {c}{})\n", d + 1),
                    format!("{c}{}-f", d + 1),
                )
            };
            let module = format!(
                "#lang typed/lagoon\n{require}(: {c}{d}-f : Integer -> Integer)\n\
                 (define ({c}{d}-f n) (if (= n 0) 1 (+ ({callee} (- n 1)) 1)))\n\
                 (provide {c}{d}-f)\n"
            );
            std::fs::write(src.join(format!("{c}{d}.lag")), module).expect("write module");
        }
        let entry = format!("#lang lagoon\n(require {c}0)\n({c}0-f 9)\n");
        std::fs::write(src.join(format!("{c}.lag")), entry).expect("write entry");
    }
    std::fs::write(
        src.join("top.lag"),
        "#lang lagoon\n(require pa0 pb0 pc0 pd0)\n(+ (pa0-f 9) (pb0-f 9) (pc0-f 9) (pd0-f 9))\n",
    )
    .expect("write top");

    let mut stores = Vec::new();
    for shards in ["1", "2"] {
        let store = scratch.join(format!("store-{shards}"));
        let gateway = GatewayProc::spawn(&[
            "--shards",
            shards,
            "--workers-per-shard",
            "2",
            "--root",
            src.to_str().expect("utf-8 path"),
            "--cache-dir",
            store.to_str().expect("utf-8 path"),
        ]);
        // the five entries at once, so a 2-shard fleet splits the graph
        // between its processes and both write the shared store
        let requests: Vec<_> = chains
            .iter()
            .map(|c| (c.to_string(), "10"))
            .chain([("top".to_string(), "40")])
            .map(|(module, expected)| {
                let addr = gateway.addr.clone();
                std::thread::spawn(move || {
                    let mut client = HttpClient::connect(&addr, Some(Duration::from_secs(120)))
                        .expect("connect");
                    let body = format!(r#"{{"module":"{module}"}}"#);
                    let response = client
                        .request("POST", "/v1/run", &[], body.as_bytes())
                        .expect("run entry");
                    assert_eq!(response.status, 200, "{}", response.body_str());
                    let parsed = body_json(&response);
                    assert_eq!(
                        parsed.get("value").and_then(Json::as_str),
                        Some(expected),
                        "{module}: {parsed}"
                    );
                })
            })
            .collect();
        for request in requests {
            request.join().expect("request thread");
        }
        gateway.shutdown();
        stores.push(store_artifacts(&store));
    }

    // 4 chains x 3 typed modules + 5 entries
    assert_eq!(stores[0].len(), 17, "{:?}", stores[0].keys());
    assert_eq!(
        stores[0].keys().collect::<Vec<_>>(),
        stores[1].keys().collect::<Vec<_>>()
    );
    for (name, bytes) in &stores[0] {
        assert!(
            stores[1][name] == *bytes,
            "{name} differs between the 1-shard and 2-shard stores"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A gateway's default limits and queue capacity bind its shards
/// whichever backend runs them: a spawned `lagoon serve` gets them as
/// flags, an in-process daemon as options.
#[test]
fn both_shard_backends_apply_the_gateway_limits() {
    const QUEUE_CAP: usize = 7;
    let spin = br##"{"source":"#lang lagoon\n(define (spin n) (if (= n 0) 'done (spin (- n 1))))\n(spin 200000)\n"}"##;
    for backend in [
        ShardBackend::InProcess,
        ShardBackend::Process {
            cmd: vec![env!("CARGO_BIN_EXE_lagoon").to_string()],
        },
    ] {
        let name = format!("{backend:?}");
        let gateway = Gateway::start(GatewayOptions {
            shards: 1,
            workers_per_shard: 1,
            backend,
            queue_cap: QUEUE_CAP,
            limits: Limits {
                max_vm_steps: 10_000,
                ..Limits::default()
            },
            ..GatewayOptions::default()
        })
        .expect("start gateway");
        let exchange =
            HttpClient::connect(&gateway.addr().to_string(), Some(Duration::from_secs(30)))
                .and_then(|mut client| {
                    let run = client.request("POST", "/v1/run", &[], spin)?;
                    Ok((run, client.request("GET", "/v1/stats", &[], b"")?))
                });
        // stop the shard before asserting, so a failure leaves no
        // spawned daemon behind
        gateway.shutdown();
        gateway.wait();
        let (response, stats) = exchange.expect("run and stats");
        let capacity = body_json(&stats)
            .get("daemons")
            .and_then(|d| match d {
                Json::Arr(daemons) => daemons.first().cloned(),
                _ => None,
            })
            .and_then(|d| d.get("queue")?.get("capacity")?.as_u64());
        assert_eq!(
            capacity,
            Some(QUEUE_CAP as u64),
            "{name}: {}",
            stats.body_str()
        );
        assert_eq!(response.status, 200, "{name}: {}", response.body_str());
        let error = body_json(&response)
            .get("error")
            .cloned()
            .unwrap_or_else(|| {
                panic!(
                    "{name}: the step budget did not fire: {}",
                    response.body_str()
                )
            });
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("resource-exhausted"),
            "{name}: {error}"
        );
        assert_eq!(
            error.get("budget").and_then(Json::as_str),
            Some("vm-steps"),
            "{name}: {error}"
        );
    }
}

/// Both servers answer `POST /v1/shutdown` in the connection loop they
/// share: the same status and body, and each one's `wait` returns once
/// it has drained.
#[test]
fn daemon_and_gateway_answer_shutdown_alike() {
    let daemon = lagoon::server::Server::start(lagoon::server::ServeOptions {
        workers: 1,
        ..Default::default()
    })
    .expect("start daemon");
    let gateway = Gateway::start(GatewayOptions {
        shards: 1,
        workers_per_shard: 1,
        ..GatewayOptions::default()
    })
    .expect("start gateway");
    let shutdown = |addr: String| {
        let response = HttpClient::connect(&addr, Some(Duration::from_secs(30)))
            .and_then(|mut client| client.request("POST", "/v1/shutdown", &[], b"{}"))
            .expect("shutdown");
        (response.status, response.body_str())
    };
    let from_daemon = shutdown(daemon.addr().to_string());
    let from_gateway = shutdown(gateway.addr().to_string());
    let (done, waited) = std::sync::mpsc::channel();
    let daemon_done = done.clone();
    std::thread::spawn(move || {
        daemon.wait();
        daemon_done.send("daemon")
    });
    std::thread::spawn(move || {
        gateway.wait();
        done.send("gateway")
    });
    let mut returned: Vec<&str> = (0..2)
        .filter_map(|_| waited.recv_timeout(Duration::from_secs(30)).ok())
        .collect();
    returned.sort();
    assert_eq!(
        returned,
        ["daemon", "gateway"],
        "wait returns after the drain"
    );
    assert_eq!(
        from_daemon,
        (200, r#"{"draining":true,"ok":true}"#.to_string())
    );
    assert_eq!(from_gateway, from_daemon);
}

/// The test route that kills a shard names it: a body without an
/// integer `shard` is a 400 and kills nothing.
#[test]
fn kill_shard_needs_an_integer_shard() {
    let gateway = Gateway::start(GatewayOptions {
        shards: 1,
        workers_per_shard: 1,
        test_ops: true,
        ..GatewayOptions::default()
    })
    .expect("start gateway");
    let exchange = HttpClient::connect(&gateway.addr().to_string(), Some(Duration::from_secs(30)))
        .and_then(|mut client| {
            let mut answers = Vec::new();
            for body in [
                "",
                "{}",
                r#"{"shard":"0"}"#,
                r#"{"shard":0.5}"#,
                r#"{"shard":1}"#,
            ] {
                let response =
                    client.request("POST", "/v1/test/kill-shard", &[], body.as_bytes())?;
                answers.push((body, response));
            }
            Ok((
                answers,
                client.request("GET", "/v1/stats?deep=0", &[], b"")?,
            ))
        });
    gateway.shutdown();
    gateway.wait();
    let (answers, stats) = exchange.expect("kill-shard requests and stats");
    for (body, response) in answers {
        assert_eq!(response.status, 400, "{body}: {}", response.body_str());
        let error = body_json(&response).get("error").cloned().expect("error");
        assert_eq!(error.get("kind").and_then(Json::as_str), Some("protocol"));
        let message = error
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or_default();
        assert!(message.contains("shard"), "{body}: {message}");
    }
    let stats = body_json(&stats);
    assert_eq!(stats.get("live").and_then(Json::as_u64), Some(1), "{stats}");
}
