//! Every machine-readable view is a `lagoon_diag::json::Json` value
//! rendered by the one writer: the `--stats --json` report, a latency
//! histogram, the `--trace` Chrome trace with its `vmProfile`, and
//! `build --json` (the daemon's `diag` report and `/v1/stats` are
//! checked in `tests/serve.rs`). Each view reads back through the parser
//! unchanged and carries the keys README documents, and text holding a
//! quote, a backslash, a newline, a control character and a non-ASCII
//! letter survives the report, the trace and the build report.

use lagoon::diag::json::{self, Json};
use lagoon::diag::{trace, CacheStatus, Collector, Histogram, Phase};
use lagoon::server::{build_from_map, BuildOptions, ModuleStatus};
use lagoon::{EngineKind, Lagoon};
use lagoon_syntax::Symbol;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

/// Text that every escape path of the writer has to carry.
const AWKWARD: &str = "q\"b\\s\nn\u{1}é";

/// A float loop the optimizer rewrites; long enough for VM profile
/// samples (one per 65,536 executed steps).
const FLOAT_LOOP: &str = "#lang typed/lagoon\n\
    (: go : Integer Float -> Float)\n\
    (define (go i acc) (if (= i 0) acc (go (- i 1) (+ acc 1.5))))\n\
    (go 200000 0.0)\n";

/// Renders `view`, reads it back, checks that nothing changed and that
/// it holds every one of `keys`, and returns it.
fn reads_back<'v>(view: &'v Json, keys: &[&str]) -> &'v Json {
    let text = view.to_string();
    let parsed = json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    assert_eq!(&parsed, view, "{text}");
    for key in keys {
        assert!(view.get(key).is_some(), "no {key:?} in {text}");
    }
    view
}

fn field<'v>(view: &'v Json, key: &str) -> &'v Json {
    view.get(key)
        .unwrap_or_else(|| panic!("no {key:?} in {view}"))
}

fn rows<'v>(view: &'v Json, key: &str) -> &'v [Json] {
    match view.get(key) {
        Some(Json::Arr(rows)) => rows,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn text<'v>(view: &'v Json, key: &str) -> Option<&'v str> {
    view.get(key).and_then(Json::as_str)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lagoon-views-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs the `lagoon` binary in `dir`; returns its stdout.
fn lagoon_cli(dir: &std::path::Path, args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_lagoon"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run lagoon");
    assert!(output.status.success(), "{args:?}: {output:?}");
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

const REPORT_KEYS: [&str; 10] = [
    "phases",
    "counters",
    "rewrites",
    "near_misses",
    "contracts",
    "limits",
    "cache",
    "buckets",
    "opcodes",
    "summary",
];

#[test]
fn the_stats_report_reads_back_with_its_tables() {
    let lagoon = Lagoon::new();
    lagoon.add_module("m", FLOAT_LOOP);
    let (_, report) = lagoon.run_with_stats("m", EngineKind::Vm).expect("runs");
    let json = report.to_json();
    reads_back(&json, &REPORT_KEYS);
    let buckets = reads_back(
        field(&json, "buckets"),
        &["read", "expand", "check", "compile", "load", "run"],
    );
    assert!(matches!(buckets.get("run"), Some(Json::Num(ms)) if *ms > 0.0));
    let summary = reads_back(
        field(&json, "summary"),
        &[
            "rewrites",
            "near_misses",
            "generic_ops",
            "specialized_ops",
            "fused_ops",
            "total_ops",
            "cache_hits",
            "cache_misses",
        ],
    );
    let count = |key: &str| summary.get(key).and_then(Json::as_u64);
    assert_eq!(count("rewrites"), Some(report.rewrites.len() as u64));
    assert_eq!(count("total_ops"), Some(report.total_ops()));
    for row in rows(&json, "rewrites") {
        reads_back(row, &["module", "family", "op", "rule", "span", "line"]);
    }
    for row in rows(&json, "phases") {
        reads_back(row, &["module", "phase", "ms"]);
    }
    for row in rows(&json, "opcodes") {
        reads_back(row, &["op", "class", "fused", "count"]);
    }

    // the CLI prints the same report next to the value, or the error
    let dir = temp_dir("stats");
    std::fs::write(dir.join("m.lag"), FLOAT_LOOP).expect("write source");
    let out = lagoon_cli(&dir, &["run", "m.lag", "--no-cache", "--stats", "--json"]);
    let printed = json::parse(out.trim()).unwrap_or_else(|e| panic!("{e}: {out}"));
    assert_eq!(text(&printed, "result"), Some("300000.0"));
    reads_back(field(&printed, "report"), &REPORT_KEYS);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_histogram_reads_back_with_its_quantiles() {
    let mut h = Histogram::new();
    for micros in [3, 100, 2000] {
        h.record(Duration::from_micros(micros));
    }
    h.record(Duration::MAX);
    let json = h.to_json();
    reads_back(
        &json,
        &[
            "count",
            "mean_us",
            "max_us",
            "p50_us",
            "p99_us",
            "p50_est_us",
            "p99_est_us",
            "buckets",
        ],
    );
    assert_eq!(json.get("count").and_then(Json::as_u64), Some(4));
    // the largest latency survives as a number, not a string or null
    assert_eq!(json.get("max_us"), Some(&Json::Num(u64::MAX as f64)));
    let buckets = rows(&json, "buckets");
    assert_eq!(buckets.len(), 4);
    for row in buckets {
        reads_back(row, &["ge_us", "le_us", "count"]);
    }
}

#[test]
fn the_chrome_trace_reads_back_with_its_vm_profile() {
    let dir = temp_dir("trace");
    std::fs::write(dir.join("m.lag"), FLOAT_LOOP).expect("write source");
    lagoon_cli(&dir, &["run", "m.lag", "--no-cache", "--trace", "t.json"]);
    let written = std::fs::read_to_string(dir.join("t.json")).expect("trace file");
    let _ = std::fs::remove_dir_all(&dir);
    let trace = json::parse(&written).unwrap_or_else(|e| panic!("{e}: {written}"));
    reads_back(
        &trace,
        &[
            "traceEvents",
            "displayTimeUnit",
            "droppedSpans",
            "vmProfile",
        ],
    );
    let profile = rows(&trace, "vmProfile");
    assert!(!profile.is_empty(), "no profile samples: {written}");
    for row in profile {
        reads_back(row, &["fn", "chunks"]);
    }
    assert!(profile.iter().any(|row| text(row, "fn") == Some("go")));
    let events = rows(&trace, "traceEvents");
    assert_eq!(text(&events[0], "ph"), Some("M"));
    for event in &events[1..] {
        reads_back(
            event,
            &["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"],
        );
        assert!(field(event, "args")
            .get("id")
            .and_then(Json::as_u64)
            .is_some());
    }
    assert!(events.iter().any(|e| text(e, "cat") == Some("rewrite")));
}

#[test]
fn build_json_reads_back_and_marks_up_to_date_modules() {
    let dir = temp_dir("build");
    let sources = BTreeMap::from([
        (
            "leaf".to_string(),
            "#lang lagoon\n(define x 1)\n(provide x)\n".to_string(),
        ),
        (
            "top".to_string(),
            "#lang lagoon\n(require leaf)\n(+ x 1)\n".to_string(),
        ),
    ]);
    let opts = BuildOptions {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    };
    let entries = ["top".to_string()];
    let cold = build_from_map(&entries, sources.clone(), &opts).to_json();
    let warm = build_from_map(&entries, sources, &opts).to_json();
    let _ = std::fs::remove_dir_all(&dir);
    for (json, worker_ok) in [(&cold, true), (&warm, false)] {
        reads_back(
            json,
            &[
                "jobs",
                "wall_ms",
                "utilization",
                "single_flight_waits",
                "cache_hits",
                "cache_misses",
                "recompiled",
                "modules",
                "workers",
            ],
        );
        let modules = rows(json, "modules");
        assert_eq!(modules.len(), 2, "{json}");
        for m in modules {
            reads_back(m, &["name", "status", "detail", "ms", "worker"]);
            assert_eq!(text(m, "status"), Some("built"));
            // CI reads a compiled module as `worker >= 0`
            let Some(Json::Num(worker)) = m.get("worker") else {
                panic!("no worker: {m}");
            };
            assert_eq!(*worker >= 0.0, worker_ok, "{m}");
        }
    }
    for w in rows(&cold, "workers") {
        reads_back(w, &["busy_ms", "setup_ms", "modules"]);
    }
    assert!(rows(&warm, "workers").is_empty(), "{warm}");
}

#[test]
fn awkward_text_reads_back_unchanged_from_every_view() {
    // a module name and a span note through the report and the trace
    let collector = Collector::install();
    {
        let module = Symbol::intern(AWKWARD);
        let _read = lagoon::diag::time(Phase::Read, module);
        trace::note("detail", AWKWARD.to_string());
        lagoon::diag::count("steps", module, 1);
        lagoon::diag::cache_event(module, CacheStatus::Stale, AWKWARD.to_string());
    }
    lagoon::diag::uninstall();
    let report = collector.report().to_json();
    let report = json::parse(&report.to_string()).expect("report reads back");
    assert_eq!(text(&rows(&report, "phases")[0], "module"), Some(AWKWARD));
    assert_eq!(text(&rows(&report, "counters")[0], "module"), Some(AWKWARD));
    assert_eq!(text(&rows(&report, "cache")[0], "detail"), Some(AWKWARD));
    let tracks = [(AWKWARD.to_string(), collector.trace())];
    let chrome = lagoon::diag::trace::chrome_trace_json(&tracks, vec![]);
    let chrome = json::parse(&chrome.to_string()).expect("trace reads back");
    let events = rows(&chrome, "traceEvents");
    assert_eq!(text(field(&events[0], "args"), "name"), Some(AWKWARD));
    let read = events.iter().find(|e| text(e, "cat") == Some("read"));
    let read = read.expect("the read span");
    assert_eq!(text(read, "name"), Some(AWKWARD));
    assert_eq!(text(field(read, "args"), "detail"), Some(AWKWARD));

    // a build failure message: a macro whose transformer raises it
    let literal = AWKWARD.replace('\\', "\\\\").replace('"', "\\\"");
    let source =
        format!("#lang lagoon\n(define-syntax (boom stx) (error \"{literal}\"))\n(boom)\n");
    let dir = temp_dir("awkward");
    let built = build_from_map(
        &["boom".to_string()],
        BTreeMap::from([("boom".to_string(), source)]),
        &BuildOptions {
            jobs: 1,
            cache_dir: Some(dir.clone()),
            ..Default::default()
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
    let ModuleStatus::Failed(message) = &built.modules[0].status else {
        panic!("boom built: {:?}", built.modules);
    };
    assert!(message.contains(AWKWARD), "{message:?}");
    let build = json::parse(&built.to_json().to_string()).expect("build reads back");
    let failed = &rows(&build, "modules")[0];
    assert_eq!(text(failed, "status"), Some("failed"));
    assert_eq!(text(failed, "detail"), Some(message.as_str()));
}
