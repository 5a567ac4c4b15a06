//! End-to-end tests of the diagnostics subsystem through the facade:
//! `run_with_stats` must surface phase timings, the optimizer decision
//! log, contract boundary crossings, and the executed opcode mix — and
//! the optimized opcode mix must actually show the generic-to-specialized
//! dispatch shift the paper's §7 rewrites promise.

use lagoon::diag::json::Json;
use lagoon::{EngineKind, Lagoon};

/// A float-heavy typed loop: every iteration runs a comparison and two
/// arithmetic ops that the optimizer can specialize.
const FLOAT_LOOP: &str = "\
(: go : Integer Float -> Float)
(define (go i acc)
  (if (= i 0) acc (go (- i 1) (+ acc 1.5))))
(go 1000 0.0)
";

#[test]
fn stats_run_reports_phases_and_decisions() {
    let lagoon = Lagoon::new();
    lagoon.add_module("m", &format!("#lang typed/lagoon\n{FLOAT_LOOP}"));
    let (value, report) = lagoon.run_with_stats("m", EngineKind::Vm).unwrap();
    assert_eq!(value.to_string(), "1500.0");

    // phase rows cover the pipeline, ending with the run itself
    let phases: Vec<&str> = report.phases.iter().map(|p| p.phase).collect();
    for expected in ["read", "expand", "typecheck", "optimize", "compile", "run"] {
        assert!(
            phases.contains(&expected),
            "missing phase {expected}: {phases:?}"
        );
    }

    // the float addition in the loop body was specialized and logged
    assert!(
        report
            .rewrites
            .iter()
            .any(|r| r.family == "float" && r.op == "+"),
        "no float rewrite logged: {:?}",
        report.rewrites
    );

    // both renderings carry the decision log
    assert!(report.render_text().contains("optimizer decisions"));
    let json = report.to_json();
    let Some(Json::Arr(rewrites)) = json.get("rewrites") else {
        panic!("no rewrites table: {json}");
    };
    assert_eq!(rewrites.len(), report.rewrites.len());
    let float_add = |r: &Json| {
        r.get("family").and_then(Json::as_str) == Some("float")
            && r.get("op").and_then(Json::as_str) == Some("+")
    };
    assert!(rewrites.iter().any(float_add), "{json}");
}

#[test]
fn stats_run_uninstalls_sink_on_error() {
    let lagoon = Lagoon::new();
    lagoon.add_module("broken", "#lang typed/lagoon\n(+ 1 \"two\")\n");
    assert!(lagoon.run_with_stats("broken", EngineKind::Vm).is_err());
    // the sink must be gone: a plain run must not accumulate events
    assert!(!lagoon::diag::enabled());
}

/// The headline observability claim: under `typed/lagoon` the executed
/// opcode mix contains specialized (unsafe-derived) instructions and
/// strictly fewer generic tag-dispatching ones than the same program
/// under `typed/no-opt`.
#[test]
fn optimized_opcode_mix_shifts_from_generic_to_specialized() {
    let run = |lang: &str| {
        let lagoon = Lagoon::new();
        lagoon.add_module("m", &format!("#lang {lang}\n{FLOAT_LOOP}"));
        let (value, report) = lagoon.run_with_stats("m", EngineKind::Vm).unwrap();
        assert_eq!(value.to_string(), "1500.0");
        report
    };
    let unopt = run("typed/no-opt");
    let opt = run("typed/lagoon");

    assert!(unopt.total_ops() > 0 && opt.total_ops() > 0);
    assert_eq!(unopt.specialized_ops(), 0, "no-opt must stay generic");
    assert!(
        opt.specialized_ops() > 0,
        "optimized run executed no specialized ops: {:?}",
        opt.opcodes
    );
    assert!(
        opt.generic_ops() < unopt.generic_ops(),
        "optimized generic dispatches ({}) not below unoptimized ({})",
        opt.generic_ops(),
        unopt.generic_ops()
    );
    // and specific specialized mnemonics appear
    assert!(opt.opcodes.iter().any(|o| o.op.starts_with("Fl")));
}

#[test]
fn identifier_macro_uses_count_as_macro_steps() {
    // `aK` expands to `(+ aK-1 aK-1)` as a bare identifier: a use of a3
    // runs 1 + 2 + 4 + 8 transformers, each one macro step
    let lagoon = Lagoon::new();
    lagoon.add_module(
        "chain",
        "#lang lagoon
         (define-syntax a0 (syntax-rules () [_ 1]))
         (define-syntax a1 (syntax-rules () [_ (+ a0 a0)]))
         (define-syntax a2 (syntax-rules () [_ (+ a1 a1)]))
         (define-syntax a3 (syntax-rules () [_ (+ a2 a2)]))
         a3",
    );
    let (value, report) = lagoon.run_with_stats("chain", EngineKind::Vm).unwrap();
    assert_eq!(value.to_string(), "8");
    let steps = report
        .counters
        .iter()
        .find(|c| c.module == "chain" && c.name == "macro-steps")
        .unwrap_or_else(|| panic!("no macro-steps row: {:?}", report.counters));
    assert_eq!(steps.value, 15);
}

#[test]
fn contract_boundary_crossings_are_counted_per_export() {
    let lagoon = Lagoon::new();
    lagoon.add_module(
        "server",
        "#lang typed/lagoon
         (: inc : Integer -> Integer)
         (define (inc x) (+ x 1))
         (provide inc)",
    );
    lagoon.add_module(
        "client",
        "#lang lagoon
         (require server)
         (+ (inc 1) (inc 2) (inc 3))",
    );
    let (value, report) = lagoon.run_with_stats("client", EngineKind::Vm).unwrap();
    assert_eq!(value.to_string(), "9");
    let row = report
        .contracts
        .iter()
        .find(|c| c.export == "inc")
        .unwrap_or_else(|| panic!("no crossing row for inc: {:?}", report.contracts));
    assert_eq!(row.count, 3, "inc crossed the boundary 3 times");
    assert_eq!(row.positive, "server");
    // typed exports blame a generic "untyped-client" — the concrete
    // client is unknown when the wrapper is built
    assert_eq!(row.negative, "untyped-client");
}

/// A typed export called `n` times from untyped code: every call crosses
/// the contract boundary and runs two flat checks.
fn crossing_world(n: u64) -> Lagoon {
    let lagoon = Lagoon::new();
    lagoon.add_module(
        "lib",
        "#lang typed/lagoon
         (: inc : Integer -> Integer)
         (define (inc x) (+ x 1))
         (provide inc)",
    );
    lagoon.add_module(
        "client",
        &format!(
            "#lang lagoon
             (require lib)
             (define (loop i acc) (if (= i 0) acc (loop (- i 1) (inc acc))))
             (loop {n} 0)"
        ),
    );
    lagoon
}

#[test]
fn the_record_grows_with_program_structure_not_executed_work() {
    // (span rows, count rows) of the report, and the spans of a trace
    let size = |n: u64| {
        let lagoon = crossing_world(n);
        let (value, report) = lagoon.run_with_stats("client", EngineKind::Vm).unwrap();
        assert_eq!(value.to_string(), n.to_string());
        let inc = report
            .contracts
            .iter()
            .find(|c| c.export == "inc")
            .unwrap_or_else(|| panic!("no crossing row for inc: {:?}", report.contracts));
        assert_eq!(inc.count, n);
        let spans = report.phases.len()
            + report.rewrites.len()
            + report.near_misses.len()
            + report.caches.len()
            + report.limits.len();
        let counts = report.counters.len() + report.contracts.len() + report.opcodes.len();
        let (result, trace) = crossing_world(n).run_traced("client", EngineKind::Vm);
        assert_eq!(result.unwrap().to_string(), n.to_string());
        (spans, counts, trace.spans.len())
    };
    assert_eq!(size(1_000), size(100_000));
}
