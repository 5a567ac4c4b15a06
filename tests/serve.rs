//! Integration tests for the evaluation daemon: a real `lagoon serve`
//! process takes 16 concurrent HTTP requests mixing well-typed programs,
//! type errors, runtime errors, and deadline-exceeding loops — every
//! response is structured JSON with a status that reflects the serving
//! outcome, per-request limits hold, and no state crosses requests.

use lagoon::server::client;
use lagoon::server::http::{HttpClient, HttpResponse};
use lagoon::server::json::{self, Json};
use std::io::{BufRead, Read, Write};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const TIMEOUT: Option<Duration> = Some(Duration::from_secs(30));

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(extra: &[&str]) -> Daemon {
        let mut args = vec!["--addr", "127.0.0.1:0"];
        // default pool size, unless the test picks its own
        if !extra.contains(&"--workers") {
            args.extend(["--workers", "4"]);
        }
        let mut child = Command::new(env!("CARGO_BIN_EXE_lagoon"))
            .arg("serve")
            .args(args)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn lagoon serve");
        let stdout = child.stdout.take().expect("child stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read listen line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
            .to_string();
        Daemon { child, addr }
    }

    fn client(&self) -> HttpClient {
        HttpClient::connect(&self.addr, TIMEOUT).expect("connect")
    }

    /// Posts `/v1/shutdown` and waits (bounded) for the drain.
    fn shutdown(mut self) {
        let _ = self.client().request("POST", "/v1/shutdown", &[], b"{}");
        for _ in 0..200 {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    assert!(status.success(), "daemon exited with {status}");
                    return;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(50)),
                Err(e) => panic!("try_wait: {e}"),
            }
        }
        let _ = self.child.kill();
        panic!("daemon did not drain within 10s of shutdown");
    }
}

impl Drop for Daemon {
    // a test that panics before `shutdown` must not leave its daemon
    // running: end and reap a child that is still alive
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn body_json(response: &HttpResponse) -> Json {
    json::parse(&response.body_str())
        .unwrap_or_else(|e| panic!("non-JSON body {:?}: {e}", response.body_str()))
}

/// One request on a fresh connection.
fn send(addr: &str, method: &str, path: &str, body: &str) -> HttpResponse {
    HttpClient::connect(addr, TIMEOUT)
        .and_then(|mut client| client.request(method, path, &[], body.as_bytes()))
        .unwrap_or_else(|e| panic!("{method} {path} failed: {e}"))
}

/// One request on a fresh connection: its status and parsed body.
fn call(addr: &str, method: &str, path: &str, body: &str) -> (u16, Json) {
    let response = send(addr, method, path, body);
    (response.status, body_json(&response))
}

/// A `run` that the daemon served (status 200, whatever the program did).
fn run(addr: &str, body: &str) -> Json {
    let (status, response) = call(addr, "POST", "/v1/run", body);
    assert_eq!(status, 200, "{response}");
    response
}

fn stats(addr: &str) -> Json {
    let (status, stats) = call(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200, "{stats}");
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    stats
}

fn err_kind(response: &Json) -> Option<&str> {
    response.get("error")?.get("kind")?.as_str()
}

#[test]
fn daemon_serves_16_concurrent_mixed_requests() {
    let daemon = Daemon::spawn(&[]);
    let addr = daemon.addr.clone();

    // Four request shapes × four repetitions = 16 concurrent clients.
    // The well-typed one defines and mutates module state, so any
    // cross-request bleed would change its observed value.
    let well_typed = client::inline_request(
        "#lang typed/lagoon\n(define: c : Integer 0)\n(set! c (+ c 1))\n(display c)\nc\n",
        vec![],
    );
    let type_error = client::inline_request(
        "#lang typed/lagoon\n(define: x : Integer \"not an int\")\nx\n",
        vec![],
    );
    let runtime_error = client::inline_request("#lang lagoon\n(car 5)\n", vec![]);
    let deadline = client::inline_request(
        "#lang lagoon\n(define (spin n) (spin (+ n 1)))\n(spin 0)\n",
        vec![("max_vm_steps", 50_000), ("timeout_ms", 2_000)],
    );

    // Program errors are served results: every response is a 200.
    let responses: Vec<(usize, Json)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let addr = addr.clone();
                let request = match i % 4 {
                    0 => well_typed.clone(),
                    1 => type_error.clone(),
                    2 => runtime_error.clone(),
                    _ => deadline.clone(),
                };
                scope.spawn(move || (i, run(&addr, &request)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    assert_eq!(responses.len(), 16);
    for (i, response) in &responses {
        match i % 4 {
            0 => {
                assert_eq!(
                    response.get("ok").and_then(Json::as_bool),
                    Some(true),
                    "well-typed request failed: {response}"
                );
                // no cross-request bleed: the counter always starts at 0
                assert_eq!(
                    response.get("value").and_then(Json::as_str),
                    Some("1"),
                    "module state leaked between requests: {response}"
                );
                assert_eq!(response.get("output").and_then(Json::as_str), Some("1"));
            }
            1 => {
                assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
                let message = response
                    .get("error")
                    .and_then(|e| e.get("message"))
                    .and_then(Json::as_str)
                    .unwrap_or_default();
                assert!(
                    message.contains("typecheck"),
                    "expected a typecheck error: {response}"
                );
            }
            2 => {
                assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
                assert_eq!(
                    err_kind(response),
                    Some("type"),
                    "expected a structured type error: {response}"
                );
            }
            _ => {
                assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
                assert_eq!(
                    err_kind(response),
                    Some("resource-exhausted"),
                    "expected Kind::ResourceExhausted: {response}"
                );
                assert!(
                    response
                        .get("error")
                        .and_then(|e| e.get("budget"))
                        .and_then(Json::as_str)
                        .is_some(),
                    "exhaustion must name its budget: {response}"
                );
            }
        }
        // every response carries its latency
        assert!(
            response.get("micros").and_then(Json::as_u64).is_some(),
            "missing micros: {response}"
        );
    }

    // the stats route reflects the traffic: 16 requests done, with run
    // latencies recorded in the per-op histogram
    let stats = stats(&addr);
    let done = stats
        .get("requests")
        .and_then(|r| r.get("done"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(done >= 16, "stats lost requests: {stats}");
    let run_count = stats
        .get("ops")
        .and_then(|o| o.get("run"))
        .and_then(|r| r.get("count"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(run_count >= 16, "run histogram lost samples: {stats}");

    daemon.shutdown();
}

#[test]
fn daemon_expand_check_and_protocol_errors() {
    let daemon = Daemon::spawn(&[]);
    let addr = daemon.addr.clone();

    let (status, expanded) = call(
        &addr,
        "POST",
        "/v1/expand",
        &client::inline_request("#lang lagoon\n(define (f x) (* x x))\n(f 3)\n", vec![]),
    );
    assert_eq!(status, 200);
    assert_eq!(expanded.get("ok").and_then(Json::as_bool), Some(true));
    let forms = match expanded.get("forms") {
        Some(Json::Arr(forms)) => forms,
        other => panic!("expand returned no forms: {other:?}"),
    };
    assert!(!forms.is_empty());

    let (status, checked) = call(
        &addr,
        "POST",
        "/v1/check",
        &client::inline_request(
            "#lang typed/lagoon\n(: ok : Integer -> Integer)\n(define (ok n) (+ n 1))\n",
            vec![],
        ),
    );
    assert_eq!(status, 200);
    assert_eq!(checked.get("ok").and_then(Json::as_bool), Some(true));

    // malformed JSON, unknown routes, wrong methods and missing fields
    // come back as structured protocol errors, not dropped connections;
    // the route is the op, and the test routes exist only under
    // --test-ops
    for (method, path, body, want) in [
        ("POST", "/v1/run", "this is not json", 400),
        ("POST", "/v1/run", "[1, 2]", 400),
        ("POST", "/v1/run", "{}", 400),
        ("POST", "/v1/reboot", "{}", 404),
        ("POST", "/v1/test/kill", "{}", 404),
        ("GET", "/v1/run", "", 405),
        // a module name the loader would refuse never reaches a worker,
        // and no name addresses an inline request's `req/N` module
        ("POST", "/v1/run", r#"{"module":"a/b"}"#, 400),
        ("POST", "/v1/run", r#"{"module":""}"#, 400),
        ("POST", "/v1/run", r#"{"module":"../m"}"#, 400),
        ("POST", "/v1/run", r#"{"module":"a\\b"}"#, 400),
        ("POST", "/v1/check", r#"{"module":"req/0"}"#, 400),
    ] {
        let (status, response) = call(&addr, method, path, body);
        assert_eq!(status, want, "{method} {path} {body:?}: {response}");
        assert_eq!(err_kind(&response), Some("protocol"), "{response}");
    }

    // a field the daemon does not take, or one of the wrong type or
    // value, is a 400 naming the field, never silently ignored: a
    // misspelt `limits` would lift the budget, a misspelt engine would
    // run the VM. The route is the op, so `op` is unknown too.
    let spin = "#lang lagoon\n(define (spin n) (if (= n 0) 0 (spin (- n 1))))\n(spin 1000)\n";
    for (extra, field) in [
        (r#""limit":{"max_vm_steps":10}"#, "limit"),
        (r#""engine":"inpterp","diag":true"#, "engine"),
        (r#""engine":1"#, "engine"),
        (r#""diag":"yes""#, "diag"),
        (r#""module":"m""#, "module"),
        (r#""op":"run""#, "op"),
    ] {
        let body = format!(r#"{{"source":{},{extra}}}"#, Json::Str(spin.to_string()));
        let (status, response) = call(&addr, "POST", "/v1/run", &body);
        assert_eq!(status, 400, "{body}: {response}");
        assert_eq!(err_kind(&response), Some("protocol"), "{response}");
        let message = response.get("error").and_then(|e| e.get("message"));
        let message = message.and_then(Json::as_str).unwrap_or_default();
        assert!(
            message.contains(&format!("\"{field}\"")),
            "{body}: {response}"
        );
    }
    for (body, field) in [
        (r#"{"source":42}"#, "source"),
        (r#"{"module":["m"]}"#, "module"),
    ] {
        let (status, response) = call(&addr, "POST", "/v1/run", body);
        assert_eq!(status, 400, "{body}: {response}");
        let message = response.get("error").and_then(|e| e.get("message"));
        let message = message.and_then(Json::as_str).unwrap_or_default();
        assert!(
            message.contains(&format!("\"{field}\"")),
            "{body}: {response}"
        );
    }

    // the request-line client strips the `op` it routes by
    let mut lines = client::Connection::connect(&addr, TIMEOUT).expect("connect");
    let line = format!(r#"{{"op":"run","source":{}}}"#, Json::Str(spin.to_string()));
    let answer = json::parse(&lines.roundtrip(&line).expect("roundtrip")).expect("json");
    assert_eq!(
        answer.get("value").and_then(Json::as_str),
        Some("0"),
        "{answer}"
    );

    // a raw request line in the retired newline-delimited format is a
    // framing error: a structured 400, then the daemon closes (no hang)
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    raw.set_read_timeout(TIMEOUT).expect("timeout");
    raw.write_all(b"{\"op\":\"run\",\"source\":\"#lang lagoon\\n(+ 1 2)\\n\"}\n")
        .expect("write");
    let mut answer = String::new();
    raw.read_to_string(&mut answer).expect("read to close");
    assert!(answer.starts_with("HTTP/1.1 400 "), "{answer}");
    assert!(answer.contains("\"kind\":\"protocol\""), "{answer}");

    // one connection pipelines several requests: all sent before any
    // response is read, answered in order
    let mut conn = daemon.client();
    for i in 0..3 {
        let request = client::inline_request(&format!("#lang lagoon\n(+ {i} 10)\n"), vec![]);
        conn.send("POST", "/v1/run", &[], request.as_bytes())
            .expect("pipelined send");
    }
    for i in 0..3 {
        let response = conn.read_response().expect("pipelined read");
        assert_eq!(
            body_json(&response).get("value").and_then(Json::as_str),
            Some(format!("{}", i + 10).as_str())
        );
    }

    daemon.shutdown();
}

/// `text` with each scoped gensym's module digest (`x~1a2b3c4d.7`)
/// masked, so the forms of one source compiled under two module names
/// compare equal.
fn mask_gensym_digests(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find('~') {
        out.push_str(&rest[..=at]);
        rest = &rest[at + 1..];
        let digest = rest
            .get(..9)
            .filter(|d| d.ends_with('.') && d[..8].bytes().all(|b| b.is_ascii_hexdigit()));
        if digest.is_some() {
            out.push_str("########");
            rest = &rest[8..];
        }
    }
    out.push_str(rest);
    out
}

#[test]
fn expanding_a_built_named_module_matches_its_inline_expansion() {
    // a named module the daemon loads from a store a build wrote carries
    // no expansion of its own; `expand` must show the same forms as the
    // same source sent inline
    const SRC: &str = "#lang typed/lagoon\n(: sq : Float -> Float)\n\
                       (define (sq x) (* x x))\n(sq 7.0)\n";
    let root = std::env::temp_dir().join(format!("lagoon-serve-expand-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = root.join("store");
    std::fs::create_dir_all(&root).expect("scratch dir");
    std::fs::write(root.join("m.lag"), SRC).expect("write module");
    let built = Command::new(env!("CARGO_BIN_EXE_lagoon"))
        .arg("build")
        .arg(root.join("m.lag"))
        .arg("--cache-dir")
        .arg(&store)
        .output()
        .expect("run lagoon build");
    assert!(built.status.success(), "{built:?}");
    assert!(store.join("m.lagc").is_file());

    let (root_arg, store_arg) = (
        root.to_str().expect("utf-8"),
        store.to_str().expect("utf-8"),
    );
    let daemon = Daemon::spawn(&[
        "--workers",
        "1",
        "--root",
        root_arg,
        "--cache-dir",
        store_arg,
    ]);
    let addr = daemon.addr.clone();
    // gensyms carry a digest of the module's name and source, and the
    // name differs between `m` and the inline request's scratch name
    let expand = |body: &str| -> Vec<String> {
        let (status, response) = call(&addr, "POST", "/v1/expand", body);
        assert_eq!(status, 200, "{response}");
        let Some(Json::Arr(forms)) = response.get("forms") else {
            panic!("expand returned no forms: {response}");
        };
        forms
            .iter()
            .map(|f| mask_gensym_digests(f.as_str().expect("form text")))
            .collect()
    };
    let named = expand(r#"{"module":"m"}"#);
    let inline = expand(&client::inline_request(SRC, vec![]));
    assert!(!inline.is_empty());
    assert_eq!(named, inline);
    let hits = gauge(&stats(&addr), "cache", "hits");
    assert!(hits >= 1, "m must load from the store ({hits} hits)");

    // after a run the module stays loaded, and still expands
    let response = run(&addr, r#"{"module":"m"}"#);
    assert_eq!(response.get("value").and_then(Json::as_str), Some("49.0"));
    assert_eq!(expand(r#"{"module":"m"}"#), inline);

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn expanding_a_loaded_module_leaves_its_importers_bound() {
    // `expand` of a store-loaded module expands its source again under
    // the gensym scope its artifact was written with, so the request's
    // gensyms share their names with the module's loaded globals. The
    // worker truncates those gensyms after the request; the globals
    // must keep their identities, or the next importer finds `f`
    // unbound
    let root = std::env::temp_dir().join(format!("lagoon-serve-truncate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = root.join("store");
    std::fs::create_dir_all(&root).expect("scratch dir");
    std::fs::write(
        root.join("m.lag"),
        "#lang lagoon\n(provide f)\n(define (f x) (* x 2))\n",
    )
    .expect("write m");
    std::fs::write(root.join("n.lag"), "#lang lagoon\n(require m)\n(f 21)\n").expect("write n");
    let built = Command::new(env!("CARGO_BIN_EXE_lagoon"))
        .arg("build")
        .arg(root.join("n.lag"))
        .arg("--cache-dir")
        .arg(&store)
        .output()
        .expect("run lagoon build");
    assert!(built.status.success(), "{built:?}");

    let daemon = Daemon::spawn(&[
        "--workers",
        "1",
        "--root",
        root.to_str().expect("utf-8"),
        "--cache-dir",
        store.to_str().expect("utf-8"),
    ]);
    let addr = daemon.addr.clone();
    let response = run(&addr, r#"{"module":"m"}"#);
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "{response}"
    );
    let (status, response) = call(&addr, "POST", "/v1/expand", r#"{"module":"m"}"#);
    assert_eq!(status, 200, "{response}");
    for _ in 0..2 {
        let response = run(&addr, r#"{"module":"n"}"#);
        assert_eq!(
            response.get("value").and_then(Json::as_str),
            Some("42"),
            "{response}"
        );
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn daemon_backpressure_rejects_rather_than_queues_unboundedly() {
    // one worker and a 2-deep queue: flooding with slow requests must
    // produce resource-exhausted 503s, and the daemon must stay
    // healthy afterwards
    let daemon = Daemon::spawn(&["--queue-cap", "2", "--workers", "1"]);
    let addr = daemon.addr.clone();

    let slow = client::inline_request(
        "#lang lagoon\n(define (spin n) (if (= n 0) 'done (spin (- n 1))))\n(spin 3000000)\n",
        vec![],
    );
    let rejected = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..12)
            .map(|_| {
                let addr = addr.clone();
                let slow = slow.clone();
                scope.spawn(move || call(&addr, "POST", "/v1/run", &slow))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .filter(|(status, r)| *status == 503 && err_kind(r) == Some("resource-exhausted"))
            .count()
    });
    assert!(
        rejected > 0,
        "a 2-deep queue under 12 concurrent slow requests must reject some"
    );

    // after the flood, the daemon still answers
    let after = run(
        &addr,
        &client::inline_request("#lang lagoon\n(+ 1 2)\n", vec![]),
    );
    assert_eq!(after.get("value").and_then(Json::as_str), Some("3"));

    daemon.shutdown();
}

fn positive(n: Option<&Json>) -> bool {
    matches!(n, Some(Json::Num(n)) if *n > 0.0)
}

fn gauge(stats: &Json, outer: &str, inner: &str) -> u64 {
    stats
        .get(outer)
        .and_then(|o| o.get(inner))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats missing {outer}.{inner}: {stats}"))
}

#[test]
fn daemon_stats_gauges_trace_ids_and_flat_interner() {
    const BATCHES: usize = 5;
    const PER_BATCH: usize = 20;
    let daemon = Daemon::spawn(&[]);
    let addr = daemon.addr.clone();

    // the first stats calls can race worker-world construction: wait
    // until all four workers have published their bootstrap baselines
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let stats = stats(&addr);
        assert!(
            gauge(&stats, "interner", "at_start") <= gauge(&stats, "interner", "symbols"),
            "baseline precedes the current count: {stats}"
        );
        let settled = match stats.get("interner").and_then(|i| i.get("worker_epochs")) {
            Some(Json::Arr(epochs)) => {
                epochs.len() == 4 && epochs.iter().all(|e| e.as_u64().unwrap_or(0) > 0)
            }
            _ => false,
        };
        if settled {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "workers never published baselines: {stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // a sampled soak of inline sources with request-unique identifiers:
    // workers truncate their symbol epoch after each request, so even
    // names the registry never saw before must not accumulate, and the
    // gauge must sit at its baseline after every batch
    for batch in 0..BATCHES {
        for j in 0..PER_BATCH {
            let i = batch * PER_BATCH + j;
            let source =
                format!("#lang lagoon\n(define gauge-probe-{i} {i})\n(+ gauge-probe-{i} 1)\n");
            let response = send(
                &addr,
                "POST",
                "/v1/run",
                &client::inline_request(&source, vec![]),
            );
            let parsed = body_json(&response);
            assert_eq!(
                parsed.get("value").and_then(Json::as_str),
                Some((i + 1).to_string().as_str()),
                "{parsed}"
            );
            // every response carries a generated trace id, echoed as a
            // header, and a per-phase pipeline summary
            let trace_id = parsed.get("trace_id").and_then(Json::as_str);
            assert!(trace_id.is_some(), "missing trace_id: {parsed}");
            assert_eq!(response.header("x-lagoon-trace-id"), trace_id);
            let phases = parsed
                .get("phases")
                .unwrap_or_else(|| panic!("missing phases: {parsed}"));
            for key in ["read", "expand", "check", "compile", "load", "run"] {
                assert!(
                    matches!(phases.get(key), Some(Json::Num(_))),
                    "phases missing {key}: {parsed}"
                );
            }
            assert!(positive(phases.get("run")), "run not timed: {parsed}");
        }
        let sample = stats(&addr);
        assert_eq!(
            gauge(&sample, "interner", "symbols"),
            gauge(&sample, "interner", "at_start"),
            "interner left its baseline after batch {batch}: {sample}"
        );
        assert_eq!(
            gauge(&sample, "interner", "growth"),
            0,
            "inline requests leaked interned symbols by batch {batch}: {sample}"
        );
    }

    // a client-supplied trace id rides the x-lagoon-trace-id header in
    // and comes back verbatim, in the body and as a header
    let mut conn = daemon.client();
    let response = conn
        .request(
            "POST",
            "/v1/run",
            &[("x-lagoon-trace-id", "probe-xyz".to_string())],
            client::inline_request("#lang lagoon\n(+ 1 2)\n", vec![]).as_bytes(),
        )
        .expect("traced run");
    assert_eq!(response.header("x-lagoon-trace-id"), Some("probe-xyz"));
    let parsed = body_json(&response);
    assert_eq!(
        parsed.get("trace_id").and_then(Json::as_str),
        Some("probe-xyz"),
        "{parsed}"
    );

    let after = stats(&addr);
    let symbols_after = gauge(&after, "interner", "symbols");
    assert_eq!(
        symbols_after,
        gauge(&after, "interner", "at_start"),
        "epoch truncation must return every worker to its baseline: {after}"
    );
    assert_eq!(
        gauge(&after, "interner", "growth"),
        0,
        "inline requests must not leak interned symbols: {after}"
    );
    assert!(gauge(&after, "interner", "high_water") >= symbols_after);
    // store gauge present (zero: this daemon has no cache dir); queue
    // depth series and worker spans recorded the traffic
    assert!(after.get("store").and_then(|s| s.get("bytes")).is_some());
    let series = match after.get("queue").and_then(|q| q.get("depth_series")) {
        Some(Json::Arr(series)) => series,
        other => panic!("queue.depth_series missing: {other:?}"),
    };
    assert!(!series.is_empty());
    let spans = match after.get("worker_spans") {
        Some(Json::Arr(spans)) => spans,
        other => panic!("worker_spans missing: {other:?}"),
    };
    assert!(
        spans.len() > BATCHES * PER_BATCH,
        "expected a span per request: {after}"
    );
    assert!(spans
        .iter()
        .any(|s| s.get("trace_id").and_then(Json::as_str) == Some("probe-xyz")));
    for span in spans {
        assert!(span.get("op").and_then(Json::as_str).is_some());
        assert!(span.get("worker").and_then(Json::as_u64).is_some());
    }
    // phase time sums over every request, and the connection loop's
    // per-route histograms, are part of the daemon's own stats
    for key in ["read", "expand", "check", "compile", "load", "run"] {
        assert!(
            matches!(
                after.get("phases_ms").and_then(|p| p.get(key)),
                Some(Json::Num(_))
            ),
            "phases_ms missing {key}: {after}"
        );
    }
    assert!(
        positive(after.get("phases_ms").and_then(|p| p.get("run"))),
        "run time missing from phases_ms: {after}"
    );
    let routed = after
        .get("http")
        .and_then(|h| h.get("routes"))
        .and_then(|r| r.get("run"))
        .and_then(|r| r.get("count"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(routed > (BATCHES * PER_BATCH) as u64, "{after}");

    daemon.shutdown();
}

/// An inline `run` body that asks for the `diag` report.
fn diag_request(source: &str, limits: Vec<(&str, u64)>) -> String {
    let mut body = json::parse(&client::inline_request(source, limits)).expect("request body");
    if let Json::Obj(fields) = &mut body {
        fields.insert("diag".to_string(), Json::Bool(true));
    }
    body.to_string()
}

#[test]
fn daemon_diag_report_says_what_run_with_stats_says() {
    const LOOP: &str = "#lang typed/lagoon\n(: go : Integer Float -> Float)\n\
                        (define (go i acc) (if (= i 0) acc (go (- i 1) (+ acc 1.5))))\n\
                        (go 3000 0.0)\n";
    let daemon = Daemon::spawn(&["--workers", "1"]);
    let addr = daemon.addr.clone();

    // a `diag` run counts the opcodes it executes, exactly as the
    // embedding API's report does for the same source
    let response = run(&addr, &diag_request(LOOP, vec![]));
    assert_eq!(response.get("value").and_then(Json::as_str), Some("4500.0"));
    assert!(
        positive(response.get("phases").and_then(|p| p.get("run"))),
        "{response}"
    );
    let report = response.get("report").expect("diag report");
    let lagoon = lagoon::Lagoon::new();
    lagoon.add_module("loop", LOOP);
    let (_, local) = lagoon
        .run_with_stats("loop", lagoon::EngineKind::Vm)
        .expect("local run");
    assert!(!local.opcodes.is_empty());
    // rows (op, class, fused, count), in the report's stable order
    let local = json::parse(&local.to_json()).expect("local report");
    assert_eq!(report.get("opcodes"), local.get("opcodes"), "{response}");

    // under a step budget the run fails, and the report carries the
    // exhaustion as its one limits row
    let response = run(&addr, &diag_request(LOOP, vec![("max_vm_steps", 1000)]));
    assert_eq!(
        err_kind(&response),
        Some("resource-exhausted"),
        "{response}"
    );
    let Some(Json::Arr(limits)) = response.get("report").and_then(|r| r.get("limits")) else {
        panic!("report has no limits table: {response}");
    };
    assert_eq!(limits.len(), 1, "{response}");
    assert_eq!(
        limits[0].get("budget").and_then(Json::as_str),
        Some("vm-steps")
    );

    daemon.shutdown();
}

#[test]
fn daemon_recovers_from_worker_death() {
    // a single worker, killed mid-request: the in-flight client gets a
    // structured 500 (never a hung connection), the supervisor respawns
    // the slot, and the SAME connection keeps working
    let daemon = Daemon::spawn(&["--workers", "1", "--test-ops"]);
    let addr = daemon.addr.clone();

    let mut conn = daemon.client();
    let killed = conn
        .request("POST", "/v1/test/kill", &[], b"{}")
        .expect("kill roundtrip");
    assert_eq!(killed.status, 500);
    let killed = body_json(&killed);
    assert_eq!(killed.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(err_kind(&killed), Some("internal"), "{killed}");

    // follow-up requests queue until the respawned worker drains them —
    // no request is lost to the death
    for i in 0..3 {
        let request = client::inline_request(&format!("#lang lagoon\n(+ {i} 1)\n"), vec![]);
        let response = conn
            .request("POST", "/v1/run", &[], request.as_bytes())
            .expect("post-death request");
        let parsed = body_json(&response);
        assert_eq!(
            parsed.get("value").and_then(Json::as_str),
            Some(format!("{}", i + 1).as_str()),
            "daemon wedged after worker death: {parsed}"
        );
    }

    let stats = stats(&addr);
    assert!(gauge(&stats, "supervision", "deaths") >= 1, "{stats}");
    assert!(gauge(&stats, "supervision", "respawns") >= 1, "{stats}");
    assert_eq!(gauge(&stats, "supervision", "live"), 1, "{stats}");

    daemon.shutdown();
}

#[test]
fn daemon_contains_request_panics_without_losing_the_worker() {
    let daemon = Daemon::spawn(&["--workers", "1", "--test-ops"]);
    let addr = daemon.addr.clone();

    let (status, panicked) = call(&addr, "POST", "/v1/test/panic", "");
    assert_eq!(status, 500);
    assert_eq!(panicked.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(err_kind(&panicked), Some("internal"), "{panicked}");

    // the worker caught the panic, rebuilt its world, and still answers
    let after = run(
        &addr,
        &client::inline_request("#lang lagoon\n(* 6 7)\n", vec![]),
    );
    assert_eq!(after.get("value").and_then(Json::as_str), Some("42"));

    let stats = stats(&addr);
    assert!(gauge(&stats, "supervision", "panics") >= 1, "{stats}");
    assert_eq!(
        gauge(&stats, "supervision", "deaths"),
        0,
        "a contained panic must not kill the worker: {stats}"
    );
    // the rebuilt world still reports a flat interner at idle
    assert_eq!(gauge(&stats, "interner", "growth"), 0, "{stats}");

    daemon.shutdown();
}

#[test]
fn shedding_rejections_are_marked_retryable_and_retry_succeeds() {
    // one worker, 1-deep queue: flood it, then confirm (a) sheds are
    // 503s whose bodies carry reason + retryable and whose headers carry
    // the retry hint, (b) the retrying client path eventually lands
    // every request once the flood drains
    let daemon = Daemon::spawn(&["--queue-cap", "1", "--workers", "1"]);
    let addr = daemon.addr.clone();

    let slow = client::inline_request(
        "#lang lagoon\n(define (spin n) (if (= n 0) 'done (spin (- n 1))))\n(spin 400000)\n",
        vec![],
    );
    // generous attempt budget: debug-build daemons drain the flood
    // slowly, and a retrier must outlast it
    let policy = client::RetryPolicy {
        attempts: 25,
        base: Duration::from_millis(50),
        max: Duration::from_millis(500),
        seed: 7,
    };
    let (rejections, retried_ok) = std::thread::scope(|scope| {
        // plain clients provide the flood and count shed responses
        let floods: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                let slow = slow.clone();
                scope.spawn(move || send(&addr, "POST", "/v1/run", &slow))
            })
            .collect();
        // retrying clients must all land despite the flood
        let retriers: Vec<_> = (0..4)
            .map(|i| {
                let addr = addr.clone();
                let request =
                    client::inline_request(&format!("#lang lagoon\n(+ {i} 100)\n"), vec![]);
                let policy = client::RetryPolicy { seed: i, ..policy };
                scope.spawn(move || {
                    client::repeat_request(
                        &addr,
                        "POST",
                        "/v1/run",
                        request.as_bytes(),
                        1,
                        TIMEOUT,
                        &policy,
                    )
                    .expect("retry client io")
                })
            })
            .collect();
        let rejections = floods
            .into_iter()
            .map(|h| h.join().expect("flood client"))
            .filter(|response| {
                if response.status != 503 {
                    return false;
                }
                let r = body_json(response);
                assert_eq!(err_kind(&r), Some("resource-exhausted"), "{r}");
                let err = r.get("error").expect("error object");
                // daemon shedding names its reason and marks retryability;
                // program-level budget exhaustion has neither
                assert!(err.get("budget").is_none(), "{r}");
                assert!(
                    matches!(
                        err.get("reason").and_then(Json::as_str),
                        Some("queue-full" | "workers-degraded" | "workers-unavailable")
                    ),
                    "shed without a reason: {r}"
                );
                assert_eq!(err.get("retryable").and_then(Json::as_bool), Some(true));
                let hint = err.get("retry_after_ms").and_then(Json::as_u64);
                assert_eq!(
                    response
                        .header("x-lagoon-retry-after-ms")
                        .and_then(|v| v.parse().ok()),
                    hint,
                    "{r}"
                );
                assert_eq!(response.header("retry-after"), Some("1"));
                true
            })
            .count();
        let retried_ok = retriers
            .into_iter()
            .map(|h| h.join().expect("retry client"))
            .filter(|outcome| outcome.ok == 1)
            .count();
        (rejections, retried_ok)
    });
    assert!(
        rejections > 0,
        "a 1-deep queue under 12 concurrent requests must shed some"
    );
    assert_eq!(
        retried_ok, 4,
        "every retrying client must eventually succeed"
    );

    daemon.shutdown();
}

#[test]
fn oversized_requests_are_rejected_and_a_fresh_connection_is_served() {
    let daemon = Daemon::spawn(&["--max-request-bytes", "4096"]);
    let mut conn = daemon.client();

    // A body far over the cap: the daemon must answer with a structured
    // 413 instead of buffering it (or dying). The request boundary is
    // lost, so it closes that connection.
    let giant = client::inline_request(
        &format!("#lang lagoon\n{}\n", "(+ 1 1) ".repeat(2048)),
        vec![],
    );
    assert!(giant.len() > 8192, "probe must exceed the cap");
    let response = conn
        .request("POST", "/v1/run", &[], giant.as_bytes())
        .expect("rejection roundtrip");
    assert_eq!(response.status, 413);
    assert_eq!(response.header("connection"), Some("close"));
    let parsed = body_json(&response);
    assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
    let err = parsed.get("error").expect("error object");
    assert_eq!(
        err.get("kind").and_then(Json::as_str),
        Some("resource-exhausted")
    );
    assert_eq!(
        err.get("reason").and_then(Json::as_str),
        Some("request-too-large")
    );
    assert_eq!(err.get("retryable").and_then(Json::as_bool), Some(false));

    // A fresh connection with a normal-sized request: still served.
    let parsed = run(
        &daemon.addr,
        &client::inline_request("#lang lagoon\n(+ 20 1)\n", vec![]),
    );
    assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(parsed.get("value").and_then(Json::as_str), Some("21"));

    daemon.shutdown();
}
