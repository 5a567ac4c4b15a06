//! Hostile-input robustness: runaway macros, non-terminating compile-time
//! code, deep recursion, malformed specs, and a seeded fuzz sweep — every
//! one must surface as a structured [`RtError`] (never a panic, hang, or
//! host stack overflow), and budget failures must say which budget died.
//!
//! The fuzz sweeps — of programs, of the two engines against each other
//! and of the HTTP request parser — run `LAGOON_FUZZ_N` inputs when that
//! variable is set (CI sets 10000 on a release build); the default is
//! sized for debug test runs.

use std::time::Duration;

use lagoon::diag::gen::SplitMix64;
use lagoon::diag::limits;
use lagoon::server::http::HttpResponse;
use lagoon::{EngineKind, FaultPlan, Kind, Lagoon, Limits, RtError};

/// Small budgets so hostile tests fail fast even in debug builds.
fn strict() -> Limits {
    Limits {
        max_expansion_steps: 20_000,
        max_expansion_depth: 100,
        max_phase1_steps: 200_000,
        max_vm_steps: 1_000_000,
        max_stack_depth: 500,
        timeout: Some(Duration::from_secs(10)),
    }
}

fn run_limited(src: &str, limits: Limits, engine: EngineKind) -> Result<lagoon::Value, RtError> {
    let lagoon = Lagoon::new();
    lagoon.set_limits(limits);
    lagoon.add_module("hostile", src);
    let result = lagoon.run("hostile", engine);
    lagoon.set_limits(Limits::default());
    result
}

fn assert_exhausted(result: Result<lagoon::Value, RtError>, budget: &str) {
    match result {
        Err(e) => match e.kind {
            Kind::ResourceExhausted { budget: b } => {
                assert_eq!(b, budget, "wrong budget: {e}")
            }
            _ => panic!("expected {budget} exhaustion, got: {e}"),
        },
        Ok(v) => panic!("expected {budget} exhaustion, got value {v}"),
    }
}

#[test]
fn runaway_self_expanding_macro_is_cut_off() {
    // (loop) expands to (loop loop) expands to ... forever, growing as it
    // goes; the expansion-step budget has to end it.
    let src = "#lang lagoon
        (define-syntax loop
          (syntax-rules () [(_ a ...) (loop a ... a ...)]))
        (loop x)";
    let result = run_limited(src, strict(), EngineKind::Vm);
    let e = result.expect_err("runaway macro must not expand to completion");
    assert!(e.is_resource_exhausted(), "got: {e}");
    assert!(e.span.is_some(), "budget diagnostics should carry a span");
}

/// `aK` is an identifier macro expanding to `(+ aK-1 aK-1)`: a use of
/// `a{levels}` runs 2^(levels+1) - 1 transformers.
fn identifier_macro_chain(levels: usize) -> String {
    let mut src = String::from("#lang lagoon\n(define-syntax a0 (syntax-rules () [_ 1]))\n");
    for k in 1..=levels {
        src += &format!(
            "(define-syntax a{k} (syntax-rules () [_ (+ a{j} a{j})]))\n",
            j = k - 1
        );
    }
    src + &format!("a{levels}\n")
}

#[test]
fn an_identifier_macro_chain_is_cut_off() {
    // a bare identifier expands where a macro-headed form does, so each
    // of the 8,191 transformer runs charges the expansion-step budget
    let limits = Limits {
        max_expansion_steps: 1_000,
        ..strict()
    };
    let result = run_limited(&identifier_macro_chain(12), limits, EngineKind::Vm);
    assert_exhausted(result, "expansion-steps");
    // within budget, the chain still expands to its value
    let v = run_limited(&identifier_macro_chain(3), strict(), EngineKind::Vm).unwrap();
    assert_eq!(v.to_string(), "8");
}

#[test]
fn deeply_nested_macro_recursion_hits_depth_budget() {
    // each step expands to a use of itself nested one argument deeper:
    // no growth in width, so the depth budget is the one that trips
    let src = "#lang lagoon
        (define-syntax down
          (syntax-rules () [(_ e) (+ 1 (down e))]))
        (down x)";
    let result = run_limited(src, strict(), EngineKind::Vm);
    assert_exhausted(result, "expansion-depth");
}

#[test]
fn nonterminating_begin_for_syntax_is_cut_off() {
    let src = "#lang lagoon
        (begin-for-syntax
          (define (spin n) (spin (+ n 1)))
          (spin 0))";
    let result = run_limited(src, strict(), EngineKind::Vm);
    assert_exhausted(result, "phase1-steps");
}

#[test]
fn nonterminating_loop_hits_vm_step_budget() {
    let src = "#lang lagoon
        (define (spin) (spin))
        (spin)";
    assert_exhausted(run_limited(src, strict(), EngineKind::Vm), "vm-steps");
    assert_exhausted(run_limited(src, strict(), EngineKind::Interp), "vm-steps");
}

#[test]
fn deep_non_tail_recursion_reports_stack_depth() {
    // non-tail recursion 100k deep would kill the host stack if frames
    // lived there; both engines must report the stack-depth budget instead
    let src = "#lang lagoon
        (define (count n) (if (= n 0) 0 (+ 1 (count (- n 1)))))
        (count 100000)";
    assert_exhausted(run_limited(src, strict(), EngineKind::Vm), "stack-depth");
    assert_exhausted(
        run_limited(src, strict(), EngineKind::Interp),
        "stack-depth",
    );
}

#[test]
fn a_registry_built_under_a_small_budget_bootstraps() {
    // the prelude's own expansion spends no budget: a second world built
    // while a five-step budget is installed comes up, and the budget is
    // left for its modules, which exhaust it
    let first = Lagoon::new();
    first.set_limits(Limits {
        max_expansion_steps: 5,
        ..Limits::default()
    });
    let second = Lagoon::new();
    assert_eq!(second.limits().max_expansion_steps, 5);
    second.add_module(
        "m",
        "#lang lagoon\n(define (f x) (cond [(< x 0) 'neg] [else (let* ([a 1] [b 2]) (and a b x))]))\n(f 2)\n",
    );
    assert_exhausted(second.run("m", EngineKind::Vm), "expansion-steps");
    second.set_limits(Limits::default());
}

#[test]
fn deep_recursion_within_budget_still_works() {
    let src = "#lang lagoon
        (define (count n) (if (= n 0) 0 (+ 1 (count (- n 1)))))
        (count 300)";
    let v = run_limited(src, strict(), EngineKind::Vm).unwrap();
    assert_eq!(v.to_string(), "300");
}

#[test]
fn wall_clock_deadline_fires() {
    let src = "#lang lagoon
        (define (spin) (spin))
        (spin)";
    let limits = Limits {
        timeout: Some(Duration::from_millis(20)),
        ..Limits::default()
    };
    assert_exhausted(run_limited(src, limits, EngineKind::Vm), "deadline");
}

#[test]
fn malformed_require_is_a_syntax_error() {
    for src in [
        "#lang lagoon\n(require 42)",
        "#lang lagoon\n(require (rename))",
        "#lang lagoon\n(require no-such-module)",
    ] {
        let e = run_limited(src, strict(), EngineKind::Vm)
            .expect_err("malformed require must not succeed");
        assert!(
            !matches!(e.kind, Kind::Internal | Kind::ResourceExhausted { .. }),
            "require error leaked as {e}"
        );
    }
}

#[test]
fn malformed_typed_specs_are_type_or_syntax_errors() {
    for src in [
        "#lang typed/lagoon\n(define: x : NoSuchType 1)\nx",
        "#lang typed/lagoon\n(define: x : Integer \"str\")\nx",
        "#lang typed/lagoon\n(define: x :)",
        "#lang typed/lagoon\n(: f (-> ))",
        "#lang typed/lagoon\n(lambda: ([x : ]) x)",
        // found by the fuzz sweep: intrinsic rules indexed `args` directly,
        // so under-applied prelude functions panicked the typechecker
        "#lang typed/lagoon\n((map))",
        "#lang typed/lagoon\n(foldl +)",
    ] {
        let e = run_limited(src, strict(), EngineKind::Vm)
            .expect_err("malformed typed form must not succeed");
        assert!(
            !matches!(e.kind, Kind::Internal | Kind::ResourceExhausted { .. }),
            "typed-spec error leaked as {e}: {src}"
        );
    }
}

#[test]
fn typed_module_reports_every_top_level_type_error() {
    // two independent bad definitions: the checker must keep going after
    // the first and fold both into one diagnostic
    let src = "#lang typed/lagoon
        (define: a : Integer \"one\")
        (define: b : String 2)
        (+ 1 1)";
    let e = run_limited(src, strict(), EngineKind::Vm).expect_err("ill-typed module must not run");
    let msg = e.to_string();
    assert!(msg.contains("2 type errors"), "missing error count: {msg}");
    assert!(msg.contains("\"one\""), "first error dropped: {msg}");
    assert!(msg.contains("String"), "second error dropped: {msg}");
    assert!(
        e.span.is_some(),
        "aggregated error should keep the first span"
    );
}

#[test]
fn unterminated_literals_are_read_errors_with_spans() {
    for src in [
        "#lang lagoon\n\"never closed",
        "#lang lagoon\n(+ 1 2",
        "#lang lagoon\n#(1 2",
        "#lang lagoon\n(a . )",
        "#lang lagoon\n#\\",
    ] {
        let e =
            run_limited(src, strict(), EngineKind::Vm).expect_err("unreadable module must not run");
        assert!(
            !matches!(e.kind, Kind::Internal | Kind::ResourceExhausted { .. }),
            "read error leaked as {e}: {src:?}"
        );
        assert!(e.span.is_some(), "read errors should carry a span: {e}");
    }
}

#[test]
fn injected_faults_fail_cleanly() {
    // a healthy program run under a sweep of seeded fault plans: each run
    // either completes (fault armed past the program's horizon) or dies
    // with the injected-fault diagnostic — nothing else
    let src = "#lang lagoon
        (define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
        (define-syntax twice
          (syntax-rules () [(_ e) (+ e e)]))
        (twice (fib 12))";
    let lagoon = Lagoon::new();
    lagoon.add_module("faulty", src);
    for seed in 0..40 {
        limits::install_faults(FaultPlan::from_seed(seed, 50_000));
        for engine in [EngineKind::Vm, EngineKind::Interp] {
            match lagoon.run("faulty", engine) {
                Ok(v) => assert_eq!(v.to_string(), "288"),
                Err(e) => match e.kind {
                    Kind::ResourceExhausted { budget } => {
                        assert_eq!(budget, "injected-fault", "seed {seed}: {e}")
                    }
                    _ => panic!("seed {seed}: fault surfaced as {e}"),
                },
            }
        }
    }
    limits::clear_faults();
}

#[test]
fn error_mid_fused_float_sequence_leaves_no_residue() {
    // `(unsafe-fl+ (unsafe-fl* 1.5 2.0) (car 7))` has one operand
    // computed onto the stack when `(car 7)` raises. The unwind must
    // leave the machine clean — the next evaluation on the SAME instance
    // (which reuses the pooled stack buffers) must see an empty stack,
    // not a stale 3.0.
    let lagoon = Lagoon::new();
    for (bad, probe, want) in [
        // error in the second operand, the first already on the stack
        (
            "#lang lagoon\n(unsafe-fl+ (unsafe-fl* 1.5 2.0) (car 7))\n",
            "#lang lagoon\n(unsafe-fl+ 0.25 0.25)\n",
            "0.5",
        ),
        // error inside a *call* made while the caller's operands wait
        // on the stack
        (
            "#lang lagoon
             (define (boom x) (car x))
             (unsafe-fl* (unsafe-fl+ 1.0 1.0) (unsafe-fl+ (unsafe-fl* 3.0 1.0) (boom 7)))\n",
            "#lang lagoon\n(unsafe-fl* 2.0 (unsafe-fl+ 3.0 4.0))\n",
            "14.0",
        ),
        // error deep in a fused loop body after many clean iterations
        (
            "#lang lagoon
             (define (go i acc)
               (if (= i 0) (car acc) (go (- i 1) (unsafe-fl+ acc 1.0))))
             (unsafe-fl- 100.0 (go 10 0.0))\n",
            "#lang lagoon\n(unsafe-fl- 100.0 1.0)\n",
            "99.0",
        ),
    ] {
        lagoon.add_module("bad", bad);
        lagoon.add_module("probe", probe);
        for engine in [EngineKind::Vm, EngineKind::Interp] {
            let e = lagoon
                .run("bad", engine)
                .expect_err("mid-fusion error must surface");
            assert!(
                !matches!(e.kind, Kind::Internal),
                "mid-fusion error leaked as internal on {engine:?}: {e}"
            );
            let v = lagoon.run("probe", engine).unwrap_or_else(|e| {
                panic!("machine polluted after mid-fusion error ({engine:?}): {e}")
            });
            assert_eq!(v.to_string(), want, "stale operand residue on {engine:?}");
        }
    }
}

#[test]
fn fuzz_sweep_never_panics() {
    let n: u64 = std::env::var("LAGOON_FUZZ_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 400 } else { 2_000 });
    // one world for the whole sweep: add_module invalidates the previous
    // compilation, and reusing the instance exercises cross-run state
    let lagoon = Lagoon::new();
    lagoon.set_limits(Limits {
        max_expansion_steps: 20_000,
        max_expansion_depth: 100,
        max_phase1_steps: 100_000,
        max_vm_steps: 200_000,
        max_stack_depth: 400,
        timeout: Some(Duration::from_secs(5)),
    });
    let mut rng = SplitMix64::new(0xbad5eed);
    let (mut ok, mut err) = (0u64, 0u64);
    for i in 0..n {
        let src = gen_input(&mut rng);
        let name = "fuzzed";
        lagoon.add_module(name, &src);
        let engine = if i % 2 == 0 {
            EngineKind::Vm
        } else {
            EngineKind::Interp
        };
        match lagoon.run(name, engine) {
            Ok(_) => ok += 1,
            Err(e) => {
                // a panic caught at the embedding boundary surfaces as
                // Kind::Internal — that counts as a failure here
                assert!(
                    !matches!(e.kind, Kind::Internal),
                    "input {i} (engine {engine:?}) hit an internal error: {e}\nsource:\n{src}"
                );
                err += 1;
            }
        }
    }
    lagoon.set_limits(Limits::default());
    // sanity: the generator must produce a healthy mix, or the sweep
    // proves nothing
    assert!(ok > 0, "no fuzz input ran to completion ({err} errors)");
    assert!(err > 0, "no fuzz input errored ({ok} ran clean)");
}

fn gen_input(rng: &mut SplitMix64) -> String {
    lagoon::diag::gen::gen_module(rng, 6, true)
}

/// Body cap for the HTTP parser sweep: small, so mutated lengths cross it.
const FUZZ_BODY_CAP: usize = 4096;

/// One well-formed request: its parts and its bytes on the wire.
struct CleanRequest {
    method: &'static str,
    target: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    wire: Vec<u8>,
}

fn clean_request(rng: &mut SplitMix64) -> CleanRequest {
    let method = rng.pick(&["GET", "POST"]);
    let mut target = format!(
        "/v1/{}",
        rng.pick(&["run", "expand", "check", "stats", "healthz", "test/kill"])
    );
    if rng.chance(1, 4) {
        target.push_str("?deep=0");
    }
    let body: Vec<u8> = if method == "POST" {
        (0..rng.below(200)).map(|_| rng.below(256) as u8).collect()
    } else {
        Vec::new()
    };
    let mut headers = vec![("host".to_string(), "lagoon".to_string())];
    if rng.chance(1, 2) {
        headers.push((
            "x-lagoon-trace-id".to_string(),
            format!("t-{}", rng.next_u64()),
        ));
    }
    if rng.chance(1, 4) {
        headers.push(("connection".to_string(), "keep-alive".to_string()));
    }
    if method == "POST" || rng.chance(1, 3) {
        headers.push(("content-length".to_string(), body.len().to_string()));
    }
    let eol = if rng.chance(1, 4) { "\n" } else { "\r\n" };
    let mut head = format!("{method} {target} HTTP/1.1{eol}");
    for (name, value) in &headers {
        head.push_str(&format!("{name}: {value}{eol}"));
    }
    head.push_str(eol);
    let mut wire = head.into_bytes();
    wire.extend_from_slice(&body);
    CleanRequest {
        method,
        target,
        headers,
        body,
        wire,
    }
}

/// One well-formed response, as a daemon or a gateway writes it, and
/// its bytes on the wire (sometimes after a `100 Continue`, which the
/// reader skips).
fn clean_response(rng: &mut SplitMix64) -> (HttpResponse, Vec<u8>) {
    let status = rng.pick(&[200u16, 400, 404, 413, 500, 502, 503]);
    let body: Vec<u8> = (0..rng.below(200)).map(|_| rng.below(256) as u8).collect();
    let mut headers = vec![
        ("content-type".to_string(), "application/json".to_string()),
        ("content-length".to_string(), body.len().to_string()),
    ];
    if rng.chance(1, 2) {
        headers.push((
            "x-lagoon-trace-id".to_string(),
            format!("t-{}", rng.next_u64()),
        ));
    }
    if rng.chance(1, 4) {
        headers.push(("connection".to_string(), "close".to_string()));
    }
    let eol = if rng.chance(1, 4) { "\n" } else { "\r\n" };
    let mut head = String::new();
    if rng.chance(1, 8) {
        head.push_str(&format!("HTTP/1.1 100 Continue{eol}{eol}"));
    }
    head.push_str(&format!("HTTP/1.1 {status} Reason Phrase{eol}"));
    for (name, value) in &headers {
        head.push_str(&format!("{name}: {value}{eol}"));
    }
    head.push_str(eol);
    let mut wire = head.into_bytes();
    wire.extend_from_slice(&body);
    let response = HttpResponse {
        status,
        headers,
        body,
    };
    (response, wire)
}

/// Applies one structural mutation to a request's wire bytes: byte
/// flips, inserted framing bytes, deleted, duplicated or truncated
/// ranges, and edits aimed at each framing rule (request line,
/// version, header caps, `Content-Length`, `Transfer-Encoding`).
fn mutate_request(rng: &mut SplitMix64, wire: &mut Vec<u8>) {
    let at = |rng: &mut SplitMix64, wire: &Vec<u8>| rng.below(wire.len() as u64 + 1) as usize;
    let head_end = wire
        .windows(2)
        .position(|w| w == b"\n\r" || w == b"\n\n")
        .map_or(wire.len(), |p| p + 1);
    let first_eol = wire.iter().position(|b| *b == b'\n').unwrap_or(wire.len());
    // where a header line can go: after the request line
    let header_at = (first_eol + 1).min(wire.len());
    match rng.below(12) {
        0 => {
            for _ in 0..=rng.below(4) {
                let i = at(rng, wire).min(wire.len().saturating_sub(1));
                if let Some(b) = wire.get_mut(i) {
                    *b = rng.below(256) as u8;
                }
            }
        }
        1 => {
            let b = rng.pick(&[b'\r', b'\n', b' ', b':', b'\t', 0, 0xff, b'9']);
            let i = at(rng, wire);
            wire.insert(i, b);
        }
        2 => {
            let (i, j) = (at(rng, wire), at(rng, wire));
            wire.drain(i.min(j)..i.max(j));
        }
        3 => {
            let i = at(rng, wire);
            wire.truncate(i);
        }
        4 => {
            let (i, j) = (at(rng, wire), at(rng, wire));
            let copy = wire[i.min(j)..i.max(j)].to_vec();
            let k = at(rng, wire);
            wire.splice(k..k, copy);
        }
        5 => {
            let value = rng.pick(&[
                "-1",
                "banana",
                "99999999999999999999999",
                "4097",
                "0",
                "3",
                "1000",
                " 12 ",
            ]);
            let line = format!("content-length: {value}\r\n");
            wire.splice(header_at..header_at, line.into_bytes());
        }
        6 => {
            let line = b"transfer-encoding: chunked\r\n".to_vec();
            wire.splice(header_at..header_at, line);
        }
        7 => {
            let long = format!("x-big: {}\r\n", "v".repeat(9 * 1024));
            wire.splice(header_at..header_at, long.into_bytes());
        }
        8 => {
            let many: String = (0..=100).map(|i| format!("h{i}: v\r\n")).collect();
            wire.splice(header_at..header_at, many.into_bytes());
        }
        9 => {
            let bad = rng.pick(&[
                "post /v1/run HTTP/1.1",
                "GET /v1/run HTTP/2.0",
                "GET /v1/run HTTX/1.1",
                "GET  /v1/run HTTP/1.1",
                "GET /v1/run",
                "{\"op\":\"run\"}",
            ]);
            wire.splice(..first_eol, bad.bytes());
        }
        10 => {
            let target = format!("GET /{} HTTP/1.1", "a".repeat(9 * 1024));
            wire.splice(..first_eol, target.into_bytes());
        }
        _ => {
            // drop one header line (content-length among them)
            let lines: Vec<usize> = wire[..head_end.min(wire.len())]
                .iter()
                .enumerate()
                .filter(|(_, b)| **b == b'\n')
                .map(|(i, _)| i)
                .collect();
            if lines.len() >= 2 {
                let k = 1 + rng.below(lines.len() as u64 - 1) as usize;
                wire.drain(lines[k - 1] + 1..=lines[k]);
            }
        }
    }
}

#[test]
fn http_parser_fuzz_never_panics() {
    use lagoon::server::http::{error_status, read_body, read_head, read_response, HttpError};
    use std::io::{BufReader, Cursor};

    let n: u64 = std::env::var("LAGOON_FUZZ_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 1_000 } else { 5_000 });
    let mut rng = SplitMix64::new(0x4775);
    // the response side draws from its own stream, so the request side
    // sees the same inputs it always has
    let mut response_rng = SplitMix64::new(0x5e5b);
    let mut statuses = std::collections::BTreeMap::new();
    let mut mutated_ok = 0u64;
    let (mut responses_ok, mut responses_failed) = (0u64, 0u64);
    for i in 0..n {
        // two clean requests, then a mutated one, on one stream
        let first = clean_request(&mut rng);
        let second = clean_request(&mut rng);
        let mut bad = clean_request(&mut rng).wire;
        for _ in 0..=rng.below(3) {
            mutate_request(&mut rng, &mut bad);
        }
        let mut stream = first.wire.clone();
        stream.extend_from_slice(&second.wire);
        stream.extend_from_slice(&bad);
        // a small buffer, so lines and bodies straddle refills
        let mut reader = BufReader::with_capacity(64, Cursor::new(stream));

        for clean in [&first, &second] {
            let head = read_head(&mut reader)
                .unwrap_or_else(|e| panic!("input {i}: clean head failed: {e:?}"));
            assert_eq!(head.method, clean.method, "input {i}");
            assert_eq!(head.target, clean.target, "input {i}");
            assert_eq!(head.headers, clean.headers, "input {i}");
            let body = read_body(&mut reader, &head, FUZZ_BODY_CAP)
                .unwrap_or_else(|e| panic!("input {i}: clean body failed: {e:?}"));
            assert_eq!(body, clean.body, "input {i}: pipelined body out of order");
        }

        // whatever follows must parse or fail with a framing status; a
        // server closes the connection at the first error
        for _ in 0..64 {
            let parsed = read_head(&mut reader)
                .and_then(|head| read_body(&mut reader, &head, FUZZ_BODY_CAP));
            let e = match parsed {
                Ok(_) => {
                    mutated_ok += 1;
                    continue;
                }
                Err(e) => e,
            };
            match (error_status(&e), &e) {
                (None, HttpError::Closed | HttpError::Io(_)) => {}
                (Some((status, message)), _) => {
                    assert!(
                        [400, 411, 413, 414, 431, 501, 505].contains(&status),
                        "input {i}: {e:?} maps to {status} {message}"
                    );
                    *statuses.entry(status).or_insert(0u64) += 1;
                }
                (None, _) => panic!("input {i}: {e:?} has no status"),
            }
            break;
        }

        // the response side: two clean responses then a mutated one,
        // read as a client reads them off a shard or a gateway
        let clean = [
            clean_response(&mut response_rng),
            clean_response(&mut response_rng),
        ];
        let mut bad = clean_response(&mut response_rng).1;
        for _ in 0..=response_rng.below(3) {
            mutate_request(&mut response_rng, &mut bad);
        }
        let mut stream = clean[0].1.clone();
        stream.extend_from_slice(&clean[1].1);
        stream.extend_from_slice(&bad);
        let mut reader = BufReader::with_capacity(64, Cursor::new(stream));
        for (sent, _) in &clean {
            let response = read_response(&mut reader)
                .unwrap_or_else(|e| panic!("input {i}: clean response failed: {e}"));
            assert_eq!(response.status, sent.status, "input {i}");
            assert_eq!(response.headers, sent.headers, "input {i}");
            assert_eq!(
                response.body, sent.body,
                "input {i}: pipelined body out of order"
            );
        }
        for _ in 0..64 {
            match read_response(&mut reader) {
                Ok(_) => responses_ok += 1,
                Err(_) => {
                    responses_failed += 1;
                    break;
                }
            }
        }
    }
    // sanity: the mutations must reach every framing rule and leave some
    // requests parseable, or the sweep proves nothing
    if n >= 1_000 {
        assert_eq!(
            statuses.keys().copied().collect::<Vec<u16>>(),
            [400, 411, 413, 414, 431, 501, 505],
            "{statuses:?}"
        );
        assert!(mutated_ok > 0, "no mutated request parsed: {statuses:?}");
        assert!(
            responses_ok > 0 && responses_failed > 0,
            "mutated responses: {responses_ok} parsed, {responses_failed} failed"
        );
    }
}

#[test]
fn interp_vs_vm_differential_sweep_agrees() {
    // the two engines share the runtime but nothing else — the VM runs
    // tagged value words over the pooled unified stack, the interpreter
    // walks the core tree. Any representation bug that changes observable
    // behaviour (truthiness, numeric equality, printing, error class)
    // shows up as divergence here.
    fn observe(
        lagoon: &Lagoon,
        src: &str,
        engine: EngineKind,
        limits: Limits,
    ) -> Result<(String, String), (bool, String)> {
        lagoon.set_limits(limits);
        lagoon.add_module("xdiff", src);
        let result = lagoon.run_capturing("xdiff", engine);
        lagoon.set_limits(Limits::default());
        match result {
            Ok((v, out)) => Ok((v.write_string(), out)),
            Err(e) => Err((e.is_resource_exhausted(), e.to_string())),
        }
    }

    let lagoon = Lagoon::new();
    let mut rng = SplitMix64::new(0xe2e2);
    let n: usize = std::env::var("LAGOON_FUZZ_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 150 } else { 500 });
    // fixed seeds covering the representation's edge classes, then the
    // generator sweep
    let corpus = [
        "#lang lagoon\n(list (eqv? 0.0 -0.0) (eqv? (/ 0.0 0.0) (/ 0.0 0.0)) (= 1 1.0))\n",
        "#lang lagoon\n(let ([v (vector 1 2.5 #\\c 'sym \"str\" '(1 . 2))]) (vector-ref v 1))\n",
        "#lang lagoon\n(+ 140737488355327 1)\n", // crosses the 48-bit immediate-int boundary
        "#lang lagoon\n(- -140737488355328 1)\n",
        "#lang lagoon\n(* 1073741824 1073741824)\n",
        "#lang lagoon\n(if 0.0 'float-is-truthy 'float-is-falsy)\n",
        "#lang lagoon\n(let loop ([i 0] [acc 0.0]) (if (= i 50) acc (loop (+ i 1) (unsafe-fl+ acc 0.5))))\n",
        // a module-level self loop (one `Loop` per iteration) with a
        // mutated parameter, and negated tests (arms swapped), NaN too
        "#lang lagoon\n(define (sum n acc) (set! acc (+ acc n)) (if (zero? n) acc (sum (- n 1) acc)))\n(sum 40 0)\n",
        "#lang lagoon\n(define (f x y) (if (not (< x y)) (if (not (null? x)) 'a 'b) 'c))\n(list (f 1 2) (f 2 1) (f (/ 0.0 0.0) 1.0))\n",
        // the `apply` and `call-with-values` placeholders, reached
        // directly, as values, through each other, and shadowed
        "#lang lagoon\n(apply + 1 '(2 3))\n",
        "#lang lagoon\n(map apply (list + *) '((1 2) (3 4)))\n",
        "#lang lagoon\n(apply apply (list + '(1 2)))\n",
        "#lang lagoon\n(apply call-with-values (list (lambda () (values 1 2)) list))\n",
        "#lang lagoon\n(call-with-values (lambda () (apply values '(1 2 3))) +)\n",
        "#lang lagoon\n(define (apply f . xs) (list 'mine (length xs)))\n(apply + 1 '(2 3))\n",
    ];
    let (mut compared, mut skipped) = (0u64, 0u64);
    for i in 0..(corpus.len() + n) {
        let src = corpus
            .get(i)
            .map(|s| (*s).to_string())
            .unwrap_or_else(|| gen_input(&mut rng));
        let vm = observe(&lagoon, &src, EngineKind::Vm, strict());
        let interp = observe(&lagoon, &src, EngineKind::Interp, strict());
        match (vm, interp) {
            // the engines count steps differently, so a budget death on
            // either side need not reproduce on the other
            (Err((true, _)), _) | (_, Err((true, _))) => skipped += 1,
            (Ok(vm), Ok(interp)) => {
                assert_eq!(vm, interp, "engines diverged on value/output for:\n{src}");
                compared += 1;
            }
            (Err(_), Err(_)) => compared += 1, // both err: class agreement is enough
            (vm, interp) => {
                panic!("engines diverged on outcome for:\n{src}\nvm: {vm:?}\ninterp: {interp:?}")
            }
        }
    }
    assert!(
        compared > (corpus.len() + n) as u64 / 2,
        "only {compared} comparisons ran ({skipped} skipped)"
    );
}

#[test]
fn compiled_store_codec_is_a_fixed_point() {
    // seeded generator → compile → encode → decode → re-encode must
    // reproduce the artifact bytes exactly (symbols, spans, consts,
    // core forms, persisted declarations — everything survives the
    // trip), and the bytecode the decode compiles from the forms must
    // be the bytecode the fresh compile produced
    let n: u64 = if cfg!(debug_assertions) { 150 } else { 600 };
    let mut rng = SplitMix64::new(0xc0dec);
    let lagoon = Lagoon::new();
    lagoon.set_limits(strict());
    let registry = lagoon.registry();
    let mut checked = 0u64;
    // a fixed corpus that always compiles, covering the value/form shapes
    // the generator only hits by luck, then the seeded sweep
    let corpus = [
        "#lang lagoon\n(define (f x) (* x 2.5)) (provide f) (f 4)\n",
        "#lang lagoon\n(define v (vector 1 \"two\" #\\3 'four)) (vector-ref v 0)\n",
        "#lang lagoon\n(define-values (q r) (values (quotient 7 2) (remainder 7 2))) (+ q r)\n",
        "#lang lagoon\n(let loop ([i 0] [acc '()]) (if (= i 3) acc (loop (+ i 1) (cons i acc))))\n",
        "#lang typed/lagoon\n(: inc : Integer -> Integer)\n(define (inc n) (+ n 1)) (provide inc) (inc 1)\n",
        "#lang lagoon\n(define c 2.0+3.0i) (+ c c)\n",
        "#lang lagoon\n`(1 ,(+ 1 1) ,@(list 3 4))\n",
    ];
    for i in 0..(corpus.len() as u64 + n) {
        let src = corpus
            .get(i as usize)
            .map(|s| (*s).to_string())
            .unwrap_or_else(|| lagoon::diag::gen::gen_module(&mut rng, 5, false));
        let name = format!("codec-{i}");
        lagoon.add_module(&name, &src);
        let Ok(compiled) = registry.compile(lagoon::Symbol::intern(&name)) else {
            continue; // generator output that doesn't compile is off-topic here
        };
        let deps: Vec<_> = compiled
            .requires
            .iter()
            .enumerate()
            .map(|(j, d)| (*d, j as u64))
            .collect();
        let Ok(bytes) = lagoon_core::store::encode(&compiled, 11, 22, &deps) else {
            continue; // uncacheable (e.g. exports a hosted macro)
        };
        // a name/tag/datum-preserving rehydrator (the shape the typed
        // language registers) so recipe exports make the round trip too
        let rehydrate = |tag: lagoon::Symbol, datum: &lagoon::Datum| {
            let name = match datum {
                lagoon::Datum::List(items) => items.first()?.as_symbol()?,
                _ => return None,
            };
            Some(lagoon_core::native_with_recipe(
                &name.as_str(),
                &tag.as_str(),
                datum.clone(),
                |_, stx| Ok(lagoon_core::Expanded::Surface(stx)),
            ))
        };
        let artifact = lagoon_core::store::decode(&bytes, &rehydrate)
            .unwrap_or_else(|e| panic!("fresh artifact must decode, got {e}\nsource:\n{src}"));
        let (loaded, fresh) = (&artifact.code, &compiled.code);
        assert_eq!(
            loaded.top.disassemble(),
            fresh.top.disassemble(),
            "load-compiled bytecode differs for:\n{src}"
        );
        assert_eq!(
            format!("{:?}", loaded.global_names),
            format!("{:?}", fresh.global_names),
            "load-compiled globals differ for:\n{src}"
        );
        assert_eq!(loaded.defined, fresh.defined, "{src}");
        let back = artifact.into_compiled();
        let bytes2 = lagoon_core::store::encode(&back, 11, 22, &deps)
            .unwrap_or_else(|e| panic!("decoded module must re-encode, got {e}\nsource:\n{src}"));
        assert_eq!(bytes, bytes2, "codec is not a fixed point for:\n{src}");
        checked += 1;
    }
    lagoon.set_limits(Limits::default());
    // the generator is deliberately adversarial, so most of its output
    // fails to compile; the fixed corpus plus its survivors must all
    // have made the round trip
    assert!(
        checked >= corpus.len() as u64 + n / 10,
        "only {checked} inputs reached the codec"
    );
}

#[test]
fn lagc_corruption_sweep_never_panics() {
    // random byte flips (and truncations) in on-disk artifacts must
    // surface as corrupt-artifact diagnostics followed by a clean
    // recompile — never a panic, never an internal error, and never a
    // silently different program result — both when a run loads them
    // and when a rebuild checks their headers
    let n: u64 = std::env::var("LAGOON_FUZZ_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(|v: u64| v / 20)
        .unwrap_or(if cfg!(debug_assertions) { 60 } else { 200 });
    let dir = std::env::temp_dir().join(format!("lagoon-corrupt-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sources: std::collections::BTreeMap<String, String> = [
        (
            "base",
            "#lang lagoon\n(define (shout s) (string-append s \"!\"))\n(provide shout)\n",
        ),
        ("app", "#lang lagoon\n(require base)\n(shout \"hey\")\n"),
    ]
    .into_iter()
    .map(|(name, source)| (name.to_string(), source.to_string()))
    .collect();
    let lagoon = Lagoon::new();
    lagoon.set_cache_dir(Some(dir.clone()));
    for (name, source) in &sources {
        lagoon.add_module(name, source);
    }
    let expected = lagoon.run("app", EngineKind::Vm).unwrap().to_string();
    let run = |i: u64, what: &str| {
        lagoon.registry().reset_compiled();
        match lagoon.run("app", EngineKind::Vm) {
            Ok(v) => assert_eq!(
                v.to_string(),
                expected,
                "iteration {i}: {what} changed the result"
            ),
            Err(e) => panic!(
                "iteration {i}: {what} must recompile, not fail (kind {:?}): {e}",
                e.kind
            ),
        }
    };
    let opts = lagoon::server::BuildOptions {
        cache_dir: Some(dir.clone()),
        ..Default::default()
    };
    let mut rng = SplitMix64::new(0x1a6c);
    for i in 0..n {
        let module = if i % 2 == 0 { "base" } else { "app" };
        let victim = dir.join(format!("{module}.lagc"));
        let intact = std::fs::read(&victim).unwrap();
        let mut bytes = intact.clone();
        if rng.chance(1, 4) {
            // truncate somewhere
            bytes.truncate(rng.below(bytes.len() as u64 + 1) as usize);
        } else {
            for _ in 0..=rng.below(3) {
                let at = rng.below(bytes.len().max(1) as u64) as usize;
                bytes[at] ^= (1 + rng.below(255)) as u8;
            }
        }
        std::fs::write(&victim, &bytes).unwrap();
        run(i, "loading the corruption");

        std::fs::write(&victim, &bytes).unwrap();
        let report = lagoon::server::build_from_map(&["app".to_string()], sources.clone(), &opts);
        assert!(report.success(), "iteration {i}: {:?}", report.failures());
        // a truncation to full length (or flips that cancel) leaves the
        // artifact intact, and then it is up to date
        if bytes != intact {
            assert!(
                !report
                    .diag
                    .caches
                    .iter()
                    .any(|c| c.module == module && c.status == "hit"),
                "iteration {i}: a rebuild trusted a corrupted {module}: {:?}",
                report.diag.caches
            );
        }
        run(i, "the rebuilt store");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lagc_body_mutation_sweep_loads_or_recompiles() {
    // seeded byte flips, truncations and splices of artifact *bodies*,
    // re-framed with a valid content digest and the current format
    // version, so that the body decoder, rehydration and the load's
    // compile all run on them: every load must end hit, stale or
    // corrupt — never a panic or an internal error — and every stale or
    // corrupt read must recompile to the clean value. A hit may run a
    // different program: the frame cannot tell a mutated body from one
    // a compile wrote.
    use lagoon_core::store::FORMAT_VERSION;
    use lagoon_syntax::{WireReader, WireWriter};

    let n: u64 = std::env::var("LAGOON_FUZZ_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(|v: u64| v / 10)
        .unwrap_or(if cfg!(debug_assertions) { 100 } else { 400 });
    let dir = std::env::temp_dir().join(format!("lagoon-body-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // a typed module (rehydrated export recipes, persisted types,
    // optimized float code) under an untyped importer with closures,
    // a loop, a mutated global and quoted data
    let modules = [
        (
            "geo",
            "#lang typed/lagoon\n(: scale : Float Float -> Float)\n\
             (define (scale x k) (* x k))\n(define: unit : Float 1.5)\n(provide scale unit)\n",
        ),
        (
            "app",
            "#lang lagoon\n(require geo)\n(define tags '(a \"b\" #\\c 2.5))\n\
             (define (sum-to n) (let loop ([i 0] [acc 0.0]) \
             (if (< i n) (loop (+ i 1) (+ acc (scale unit 2.0))) acc)))\n\
             (define count 0)\n(define (bump!) (set! count (+ count 1)) count)\n\
             (bump!)\n(list (sum-to 4) (length tags) (bump!) (lambda (y) (+ y count)))\n",
        ),
    ];
    let lagoon = Lagoon::new();
    lagoon.set_cache_dir(Some(dir.clone()));
    for (name, source) in modules {
        lagoon.add_module(name, source);
    }
    let run = || {
        lagoon.registry().reset_compiled();
        let collector = lagoon::diag::Collector::install();
        lagoon.set_limits(strict());
        let result = lagoon.run("app", EngineKind::Vm);
        lagoon.set_limits(Limits::default());
        lagoon::diag::uninstall();
        (result.map(|v| v.to_string()), collector.report())
    };
    let expected = run().0.unwrap();
    // each clean artifact split at its frame: magic, version, digest
    let bodies: Vec<(&str, Vec<u8>, Vec<u8>)> = modules
        .iter()
        .map(|(name, _)| {
            let bytes = std::fs::read(dir.join(format!("{name}.lagc"))).unwrap();
            let mut r = WireReader::new(&bytes);
            r.raw(4).unwrap();
            assert_eq!(r.u32().unwrap(), FORMAT_VERSION);
            r.uint().unwrap();
            let at = bytes.len() - r.remaining();
            (*name, bytes.clone(), bytes[at..].to_vec())
        })
        .collect();
    let mut rng = SplitMix64::new(0xb0d7);
    let mut seen: std::collections::BTreeMap<&str, u64> = Default::default();
    for i in 0..n {
        let (victim, _, clean) = &bodies[(i % 2) as usize];
        let mut body = clean.clone();
        let len = body.len() as u64;
        let what = match rng.below(3) {
            0 => {
                for _ in 0..=rng.below(3) {
                    let at = rng.below(len) as usize;
                    body[at] ^= (1 + rng.below(255)) as u8;
                }
                "flip"
            }
            1 => {
                body.truncate(rng.below(len) as usize);
                "truncation"
            }
            _ => {
                // a run of bytes from either body, written over or
                // inserted at a random position
                let donor = &bodies[rng.below(2) as usize].2;
                let from = rng.below(donor.len() as u64) as usize;
                let take = 1 + rng.below(16.min(donor.len() - from) as u64) as usize;
                let piece = donor[from..from + take].to_vec();
                let at = rng.below(len) as usize;
                if rng.chance(1, 2) {
                    let end = (at + take).min(body.len());
                    body.splice(at..end, piece);
                } else {
                    body.splice(at..at, piece);
                }
                "splice"
            }
        };
        for (name, bytes, _) in &bodies {
            std::fs::write(dir.join(format!("{name}.lagc")), bytes).unwrap();
        }
        let mut framed = WireWriter::new();
        framed.raw(b"LAGC");
        framed.u32(FORMAT_VERSION);
        framed.uint(lagoon_syntax::digest(&body));
        framed.raw(&body);
        std::fs::write(dir.join(format!("{victim}.lagc")), framed.into_bytes()).unwrap();

        let (result, report) = run();
        if let Err(e) = &result {
            assert!(
                !matches!(e.kind, Kind::Internal),
                "iteration {i}: a {what} of {victim} failed internally: {e}"
            );
        }
        let row = report
            .caches
            .iter()
            .find(|r| r.module == *victim)
            .unwrap_or_else(|| {
                panic!(
                    "iteration {i}: a {what} of {victim} left no store row: {:?} ({result:?})",
                    report.caches
                )
            });
        match row.status {
            "hit" => {}
            "stale" | "corrupt" => assert_eq!(
                result.as_deref(),
                Ok(expected.as_str()),
                "iteration {i}: a {what} of {victim} read {} ({}) and must recompile cleanly",
                row.status,
                row.detail
            ),
            other => panic!("iteration {i}: a {what} of {victim} read {other}"),
        }
        *seen.entry(row.status).or_default() += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);
    // the sweep reached the decoder and the compile, not only the frame
    assert!(seen.get("corrupt").copied().unwrap_or(0) > 0, "{seen:?}");
    assert!(seen.get("hit").copied().unwrap_or(0) > 0, "{seen:?}");
    eprintln!("body mutation sweep: {n} loads, {seen:?}");
}
