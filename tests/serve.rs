//! Integration tests for the evaluation daemon: a real `lagoon serve`
//! process takes 16 concurrent requests mixing well-typed programs,
//! type errors, runtime errors, and deadline-exceeding loops — every
//! response is structured JSON, per-request limits hold, and no state
//! crosses requests.

use lagoon::server::client;
use lagoon::server::json::{self, Json};
use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

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

    /// Sends `{"op":"shutdown"}` and waits (bounded) for the drain.
    fn shutdown(mut self) {
        let _ = client::request_line(
            &self.addr,
            "{\"op\":\"shutdown\"}",
            Some(Duration::from_secs(10)),
        );
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

fn roundtrip(addr: &str, request: &str) -> Json {
    let response = client::request_line(addr, request, Some(Duration::from_secs(30)))
        .unwrap_or_else(|e| panic!("request failed: {e}"));
    json::parse(&response).unwrap_or_else(|e| panic!("non-JSON response {response:?}: {e}"))
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
        "run",
        "#lang typed/lagoon\n(define: c : Integer 0)\n(set! c (+ c 1))\n(display c)\nc\n",
        vec![],
    );
    let type_error = client::inline_request(
        "run",
        "#lang typed/lagoon\n(define: x : Integer \"not an int\")\nx\n",
        vec![],
    );
    let runtime_error = client::inline_request("run", "#lang lagoon\n(car 5)\n", vec![]);
    let deadline = client::inline_request(
        "run",
        "#lang lagoon\n(define (spin n) (spin (+ n 1)))\n(spin 0)\n",
        vec![("max_vm_steps", 50_000), ("timeout_ms", 2_000)],
    );

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
                scope.spawn(move || (i, roundtrip(&addr, &request)))
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

    // the stats op reflects the traffic: 16 requests done, with run
    // latencies recorded in the per-op histogram
    let stats = roundtrip(&addr, "{\"op\":\"stats\"}");
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
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

    let expanded = roundtrip(
        &addr,
        &client::inline_request(
            "expand",
            "#lang lagoon\n(define (f x) (* x x))\n(f 3)\n",
            vec![],
        ),
    );
    assert_eq!(expanded.get("ok").and_then(Json::as_bool), Some(true));
    let forms = match expanded.get("forms") {
        Some(Json::Arr(forms)) => forms,
        other => panic!("expand returned no forms: {other:?}"),
    };
    assert!(!forms.is_empty());

    let checked = roundtrip(
        &addr,
        &client::inline_request(
            "check",
            "#lang typed/lagoon\n(: ok : Integer -> Integer)\n(define (ok n) (+ n 1))\n",
            vec![],
        ),
    );
    assert_eq!(checked.get("ok").and_then(Json::as_bool), Some(true));

    // malformed JSON and unknown ops come back as protocol errors, not
    // dropped connections
    let garbage = roundtrip(&addr, "this is not json");
    assert_eq!(err_kind(&garbage), Some("protocol"));
    let unknown = roundtrip(&addr, "{\"op\":\"reboot\"}");
    assert_eq!(err_kind(&unknown), Some("protocol"));
    let missing = roundtrip(&addr, "{\"op\":\"run\"}");
    assert_eq!(err_kind(&missing), Some("protocol"));

    // one connection can pipeline several requests
    let mut conn =
        client::Connection::connect(&addr, Some(Duration::from_secs(30))).expect("connect");
    for i in 0..3 {
        let request = client::inline_request("run", &format!("#lang lagoon\n(+ {i} 10)\n"), vec![]);
        let response = conn.roundtrip(&request).expect("pipelined request");
        let parsed = json::parse(&response).expect("json");
        assert_eq!(
            parsed.get("value").and_then(Json::as_str),
            Some(format!("{}", i + 10).as_str())
        );
    }

    daemon.shutdown();
}

#[test]
fn daemon_backpressure_rejects_rather_than_queues_unboundedly() {
    // one worker and a 2-deep queue: flooding with slow requests must
    // produce resource-exhausted rejections, and the daemon must stay
    // healthy afterwards
    let daemon = Daemon::spawn(&["--queue-cap", "2", "--workers", "1"]);
    let addr = daemon.addr.clone();

    let slow = client::inline_request(
        "run",
        "#lang lagoon\n(define (spin n) (if (= n 0) 'done (spin (- n 1))))\n(spin 3000000)\n",
        vec![],
    );
    let rejected = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..12)
            .map(|_| {
                let addr = addr.clone();
                let slow = slow.clone();
                scope.spawn(move || roundtrip(&addr, &slow))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .filter(|r| err_kind(r) == Some("resource-exhausted"))
            .count()
    });
    assert!(
        rejected > 0,
        "a 2-deep queue under 12 concurrent slow requests must reject some"
    );

    // after the flood, the daemon still answers
    let after = roundtrip(
        &addr,
        &client::inline_request("run", "#lang lagoon\n(+ 1 2)\n", vec![]),
    );
    assert_eq!(after.get("value").and_then(Json::as_str), Some("3"));

    daemon.shutdown();
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
        let stats = roundtrip(&addr, "{\"op\":\"stats\"}");
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
            let response = roundtrip(&addr, &client::inline_request("run", &source, vec![]));
            assert_eq!(
                response.get("value").and_then(Json::as_str),
                Some((i + 1).to_string().as_str()),
                "{response}"
            );
            // every response carries a generated trace id and a
            // per-phase pipeline summary
            assert!(
                response.get("trace_id").and_then(Json::as_str).is_some(),
                "missing trace_id: {response}"
            );
            let phases = response
                .get("phases")
                .unwrap_or_else(|| panic!("missing phases: {response}"));
            for key in ["read", "expand", "check", "compile", "load", "run"] {
                assert!(
                    matches!(phases.get(key), Some(Json::Num(_))),
                    "phases missing {key}: {response}"
                );
            }
        }
        let sample = roundtrip(&addr, "{\"op\":\"stats\"}");
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

    // a client-supplied trace id is echoed back verbatim
    let tagged = client::inline_request("run", "#lang lagoon\n(+ 1 2)\n", vec![]).replacen(
        '{',
        "{\"trace_id\":\"probe-xyz\",",
        1,
    );
    let response = roundtrip(&addr, &tagged);
    assert_eq!(
        response.get("trace_id").and_then(Json::as_str),
        Some("probe-xyz"),
        "{response}"
    );

    let after = roundtrip(&addr, "{\"op\":\"stats\"}");
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
    assert!(gauge(&after, "interner", "arena") > 0, "{after}");
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

    daemon.shutdown();
}

#[test]
fn daemon_recovers_from_worker_death() {
    // a single worker, killed mid-request: the in-flight client gets a
    // structured error (never a hung connection), the supervisor
    // respawns the slot, and the SAME connection keeps working
    let daemon = Daemon::spawn(&["--workers", "1", "--test-ops"]);
    let addr = daemon.addr.clone();

    let mut conn =
        client::Connection::connect(&addr, Some(Duration::from_secs(30))).expect("connect");
    let killed = conn
        .roundtrip("{\"op\":\"test-kill\"}")
        .expect("kill roundtrip");
    let killed = json::parse(&killed).expect("json");
    assert_eq!(killed.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(err_kind(&killed), Some("internal"), "{killed}");

    // follow-up requests queue until the respawned worker drains them —
    // no request is lost to the death
    for i in 0..3 {
        let request = client::inline_request("run", &format!("#lang lagoon\n(+ {i} 1)\n"), vec![]);
        let response = conn.roundtrip(&request).expect("post-death request");
        let parsed = json::parse(&response).expect("json");
        assert_eq!(
            parsed.get("value").and_then(Json::as_str),
            Some(format!("{}", i + 1).as_str()),
            "daemon wedged after worker death: {parsed}"
        );
    }

    let stats = roundtrip(&addr, "{\"op\":\"stats\"}");
    assert!(gauge(&stats, "supervision", "deaths") >= 1, "{stats}");
    assert!(gauge(&stats, "supervision", "respawns") >= 1, "{stats}");
    assert_eq!(gauge(&stats, "supervision", "live"), 1, "{stats}");

    daemon.shutdown();
}

#[test]
fn daemon_contains_request_panics_without_losing_the_worker() {
    let daemon = Daemon::spawn(&["--workers", "1", "--test-ops"]);
    let addr = daemon.addr.clone();

    let panicked = roundtrip(&addr, "{\"op\":\"test-panic\"}");
    assert_eq!(panicked.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(err_kind(&panicked), Some("internal"), "{panicked}");

    // the worker caught the panic, rebuilt its world, and still answers
    let after = roundtrip(
        &addr,
        &client::inline_request("run", "#lang lagoon\n(* 6 7)\n", vec![]),
    );
    assert_eq!(after.get("value").and_then(Json::as_str), Some("42"));

    let stats = roundtrip(&addr, "{\"op\":\"stats\"}");
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
fn daemon_recycles_worker_worlds_on_schedule() {
    let daemon = Daemon::spawn(&["--workers", "1", "--recycle-after", "2"]);
    let addr = daemon.addr.clone();

    for i in 0..5 {
        let request = client::inline_request("run", &format!("#lang lagoon\n(+ {i} 2)\n"), vec![]);
        let response = roundtrip(&addr, &request);
        assert_eq!(
            response.get("value").and_then(Json::as_str),
            Some(format!("{}", i + 2).as_str()),
            "recycling must be invisible to clients: {response}"
        );
    }

    let stats = roundtrip(&addr, "{\"op\":\"stats\"}");
    assert!(
        gauge(&stats, "supervision", "recycles") >= 2,
        "5 requests at --recycle-after 2 must recycle at least twice: {stats}"
    );
    assert_eq!(gauge(&stats, "interner", "growth"), 0, "{stats}");

    daemon.shutdown();
}

#[test]
fn shedding_rejections_are_marked_retryable_and_retry_succeeds() {
    // one worker, 1-deep queue: flood it, then confirm (a) rejections
    // carry reason + retryable, (b) the retrying client path eventually
    // lands every request once the flood drains
    let daemon = Daemon::spawn(&["--queue-cap", "1", "--workers", "1"]);
    let addr = daemon.addr.clone();

    let slow = client::inline_request(
        "run",
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
                scope.spawn(move || roundtrip(&addr, &slow))
            })
            .collect();
        // retrying clients must all land despite the flood
        let retriers: Vec<_> = (0..4)
            .map(|i| {
                let addr = addr.clone();
                let request =
                    client::inline_request("run", &format!("#lang lagoon\n(+ {i} 100)\n"), vec![]);
                let policy = client::RetryPolicy { seed: i, ..policy };
                scope.spawn(move || {
                    client::request_line_retry(
                        &addr,
                        &request,
                        Some(Duration::from_secs(30)),
                        &policy,
                    )
                    .expect("retry client io")
                })
            })
            .collect();
        let rejections = floods
            .into_iter()
            .map(|h| h.join().expect("flood client"))
            .filter(|r| {
                if err_kind(r) != Some("resource-exhausted") {
                    return false;
                }
                let err = r.get("error").expect("error object");
                // daemon shedding names its reason and marks retryability;
                // program-level budget exhaustion has neither
                if err.get("budget").is_some() {
                    return false;
                }
                assert!(
                    matches!(
                        err.get("reason").and_then(Json::as_str),
                        Some("queue-full" | "workers-degraded" | "workers-unavailable")
                    ),
                    "shed without a reason: {r}"
                );
                assert_eq!(err.get("retryable").and_then(Json::as_bool), Some(true));
                true
            })
            .count();
        let retried_ok = retriers
            .into_iter()
            .map(|h| h.join().expect("retry client"))
            .filter(|(response, _)| {
                let parsed = json::parse(response).expect("json");
                parsed.get("ok").and_then(Json::as_bool) == Some(true)
            })
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
fn oversized_request_lines_are_rejected_and_resync() {
    let daemon = Daemon::spawn(&["--max-request-bytes", "4096"]);
    let mut conn =
        client::Connection::connect(&daemon.addr, Some(Duration::from_secs(10))).expect("connect");

    // A request line far over the cap: the daemon must answer with a
    // structured rejection instead of buffering it (or dying), then
    // resynchronize at the newline so the connection keeps working.
    let giant = format!(
        "{{\"op\":\"run\",\"source\":\"#lang lagoon\\n{}\\n\"}}",
        "(+ 1 1) ".repeat(2048)
    );
    assert!(giant.len() > 8192, "probe must exceed the cap");
    let response = conn.roundtrip(&giant).expect("rejection roundtrip");
    let parsed = json::parse(&response).expect("structured rejection");
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

    // Same connection, normal-sized request: still served.
    let response = conn
        .roundtrip("{\"op\":\"run\",\"source\":\"#lang lagoon\\n(+ 20 1)\\n\"}")
        .expect("post-rejection roundtrip");
    let parsed = json::parse(&response).expect("json");
    assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(parsed.get("value").and_then(Json::as_str), Some("21"));

    daemon.shutdown();
}
