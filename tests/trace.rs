//! End-to-end tests for the structured tracer: a traced run of a typed
//! module yields a span tree covering the whole pipeline, the nesting
//! invariants hold, source locations survive to the spans, and the
//! Chrome trace-event rendering round-trips through a JSON parser.

use lagoon::diag::json::{self, obj, Json};
use lagoon::diag::trace::{Trace, TraceSpan};
use lagoon::{EngineKind, Lagoon};
use std::collections::HashMap;

const TYPED_PROGRAM: &str = "#lang typed/lagoon\n\
    (: square : Integer -> Integer)\n\
    (define (square x) (* x x))\n\
    (square 7)\n";

fn traced_run(cache_dir: Option<std::path::PathBuf>) -> Trace {
    let lagoon = Lagoon::new();
    lagoon.set_cache_dir(cache_dir);
    lagoon.add_module("traced-main", TYPED_PROGRAM);
    let (result, trace) = lagoon.run_traced("traced-main", EngineKind::Vm);
    assert_eq!(result.expect("program runs").to_string(), "49");
    trace
}

/// Every span's interval must sit inside its parent's, and parents must
/// exist; returns the id → span map for further checks.
fn check_nesting(trace: &Trace) -> HashMap<u64, &TraceSpan> {
    let by_id: HashMap<u64, &TraceSpan> = trace.spans.iter().map(|s| (s.id, s)).collect();
    assert_eq!(by_id.len(), trace.spans.len(), "duplicate span ids");
    for span in &trace.spans {
        let Some(parent_id) = span.parent else {
            continue;
        };
        // With no ring-buffer overflow the parent is always present.
        let parent = by_id
            .get(&parent_id)
            .unwrap_or_else(|| panic!("span {} has unknown parent {parent_id}", span.id));
        assert!(parent_id < span.id, "parents are allocated before children");
        assert!(
            span.start_us >= parent.start_us
                && span.start_us + span.dur_us <= parent.start_us + parent.dur_us,
            "span {} [{}, {}] escapes parent {} [{}, {}]",
            span.id,
            span.start_us,
            span.start_us + span.dur_us,
            parent.id,
            parent.start_us,
            parent.start_us + parent.dur_us,
        );
    }
    by_id
}

#[test]
fn traced_run_covers_the_pipeline_and_nests() {
    let trace = traced_run(None);
    assert_eq!(trace.dropped, 0);
    check_nesting(&trace);

    // the full pipeline appears: reader, expander, typechecker,
    // optimizer, compiler, and the run itself
    for phase in ["read", "expand", "typecheck", "optimize", "compile", "run"] {
        assert!(
            trace.spans.iter().any(|s| s.phase == phase),
            "no {phase} span in {:?}",
            trace
                .spans
                .iter()
                .map(|s| (s.phase, s.label.as_str()))
                .collect::<Vec<_>>()
        );
    }
    // typecheck and optimize nest inside the module's expand span
    let expand = trace
        .spans
        .iter()
        .find(|s| s.phase == "expand" && s.label == "traced-main")
        .expect("expand span for the main module");
    for phase in ["typecheck", "optimize"] {
        let span = trace.spans.iter().find(|s| s.phase == phase).expect(phase);
        assert_eq!(span.parent, Some(expand.id), "{phase} outside expand");
    }
    // per-form expander spans carry source file:line attribution (the
    // typed lang's annotation rewrite yields one synthetic-span form, so
    // look for a "square" form that kept its surface location)
    let form = trace
        .spans
        .iter()
        .find(|s| s.phase == "form" && s.label == "square" && s.src.is_some())
        .expect("a source-attributed form span for square");
    let src = form
        .src
        .as_deref()
        .expect("form span has a source location");
    let mut parts = src.rsplitn(3, ':');
    let (_col, line, source) = (parts.next(), parts.next(), parts.next());
    assert_eq!(source, Some("traced-main"), "{src}");
    assert!(
        line.and_then(|l| l.parse::<u32>().ok())
            .is_some_and(|l| l > 0),
        "{src}"
    );
}

#[test]
fn untyped_definitions_carry_their_source_lines() {
    // a surface `define` expands to a `define-values` with a synthetic
    // span; each definition's `form` span must still name its line
    let lagoon = Lagoon::new();
    lagoon.add_module(
        "untyped-main",
        "#lang lagoon\n\
         (define (double x) (* 2 x))\n\
         (define k 5)\n\
         (define (both y)\n  (+ (double y) k))\n\
         (list (both 10))\n",
    );
    let (result, trace) = lagoon.run_traced("untyped-main", EngineKind::Vm);
    assert_eq!(result.expect("program runs").to_string(), "(25)");
    for (name, line) in [("double", 2), ("k", 3), ("both", 4)] {
        let spans: Vec<&TraceSpan> = trace
            .spans
            .iter()
            .filter(|s| s.phase == "form" && s.label == name)
            .collect();
        assert!(!spans.is_empty(), "no form span for {name}");
        for span in spans {
            let src = span
                .src
                .as_deref()
                .unwrap_or_else(|| panic!("form span for {name} has no src"));
            assert!(
                src.starts_with(&format!("untyped-main:{line}:")),
                "{name}: {src}"
            );
        }
    }
}

#[test]
fn traced_run_annotates_store_hits() {
    let dir = std::env::temp_dir().join(format!("lagoon-trace-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // first run populates the store (miss), second loads from it (hit);
    // both outcomes surface as "store" notes on the pipeline spans
    let miss = traced_run(Some(dir.clone()));
    let hit = traced_run(Some(dir.clone()));
    let _ = std::fs::remove_dir_all(&dir);
    // store outcomes appear as notes on open pipeline spans, or as
    // standalone zero-duration "store" spans when the store reports
    // after the phase timers have closed
    let note_values = |t: &Trace| -> Vec<String> {
        t.spans
            .iter()
            .flat_map(|s| s.notes.iter())
            .filter(|(k, _)| *k == "store")
            .map(|(_, v)| v.clone())
            .chain(
                t.spans
                    .iter()
                    .filter(|s| s.phase == "store")
                    .map(|s| s.label.clone()),
            )
            .collect()
    };
    assert!(
        note_values(&miss).iter().any(|v| v.contains("miss")),
        "cold run recorded no store miss: {:?}",
        note_values(&miss)
    );
    assert!(
        note_values(&hit).iter().any(|v| v.contains("hit")),
        "warm run recorded no store hit: {:?}",
        note_values(&hit)
    );
}

#[test]
fn chrome_trace_json_round_trips() {
    let trace = traced_run(None);
    let span_count = trace.spans.len();
    let profile = obj(vec![
        ("fn", Json::Str("square".to_string())),
        ("chunks", Json::Num(1.0)),
    ]);
    let built = lagoon::diag::trace::chrome_trace_json(
        &[("main".to_string(), trace)],
        vec![("vmProfile", Json::Arr(vec![profile]))],
    );
    let parsed = json::parse(&built.to_string()).expect("chrome trace JSON parses");
    assert_eq!(parsed, built, "the rendering reads back unchanged");

    let events = match parsed.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("traceEvents missing or not an array: {other:?}"),
    };
    // one metadata event naming the track plus one "X" event per span
    assert_eq!(events.len(), 1 + span_count);
    let meta = &events[0];
    assert_eq!(meta.get("ph").and_then(Json::as_str), Some("M"));
    assert_eq!(
        meta.get("args")
            .and_then(|a| a.get("name"))
            .and_then(Json::as_str),
        Some("main")
    );
    let mut seen_ids = std::collections::HashSet::new();
    for event in &events[1..] {
        assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
        assert!(event.get("ts").and_then(Json::as_u64).is_some());
        assert!(event.get("dur").and_then(Json::as_u64).is_some());
        assert!(event.get("name").and_then(Json::as_str).is_some());
        let id = event
            .get("args")
            .and_then(|a| a.get("id"))
            .and_then(Json::as_u64)
            .expect("event carries its span id");
        seen_ids.insert(id);
    }
    // parent references resolve within the document
    for event in &events[1..] {
        if let Some(parent) = event
            .get("args")
            .and_then(|a| a.get("parent"))
            .and_then(Json::as_u64)
        {
            assert!(seen_ids.contains(&parent), "dangling parent {parent}");
        }
    }
    // extra top-level fields ride along for tooling
    assert_eq!(
        parsed.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    assert_eq!(parsed.get("droppedSpans").and_then(Json::as_u64), Some(0));
    assert!(parsed.get("vmProfile").is_some());
}

/// Three rewrites (`=` and `-` on integers, `+` on floats, and `sqrt`)
/// and one near miss (the overflow-checked integer `-`).
const DECISIONS_PROGRAM: &str = "#lang typed/lagoon\n\
    (: go : Integer Float -> Float)\n\
    (define (go i acc) (if (= i 0) acc (go (- i 1) (+ acc 1.5))))\n\
    (: h : Float -> Float)\n\
    (define (h x) (sqrt x))\n\
    (go 100000 0.0)\n";

#[test]
fn chrome_export_and_report_are_views_of_one_record() {
    let dir = std::env::temp_dir().join(format!("lagoon-trace-views-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let lagoon = Lagoon::new();
    lagoon.set_cache_dir(Some(dir.clone()));
    lagoon.add_module("decisions", DECISIONS_PROGRAM);
    let collector = lagoon::diag::Collector::install();
    let value = lagoon.run("decisions", EngineKind::Vm);
    lagoon::diag::uninstall();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(value.expect("program runs").to_string(), "150000.0");
    let report = collector.report();
    assert!(report.rewrites.len() >= 3, "{:?}", report.rewrites);
    assert!(!report.near_misses.is_empty(), "{:?}", report.near_misses);

    let parsed =
        lagoon::diag::trace::chrome_trace_json(&[("main".to_string(), collector.trace())], vec![]);
    let Some(Json::Arr(events)) = parsed.get("traceEvents") else {
        panic!("traceEvents missing: {parsed}");
    };
    let cat = |e: &Json| e.get("cat").and_then(Json::as_str).map(str::to_string);
    let arg = |e: &Json, key: &str| {
        e.get("args")
            .and_then(|a| a.get(key))
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    let of = |c: &str| -> Vec<&Json> {
        events
            .iter()
            .filter(|e| cat(e).as_deref() == Some(c))
            .collect()
    };

    // every decision is its own record, so none is lost to a repeated key
    let mut rules: Vec<String> = of("rewrite")
        .iter()
        .filter_map(|e| arg(e, "rule"))
        .collect();
    let mut logged: Vec<String> = report.rewrites.iter().map(|r| r.rule.clone()).collect();
    rules.sort();
    logged.sort();
    assert_eq!(rules, logged);
    assert_eq!(of("near-miss").len(), report.near_misses.len());

    let stores: Vec<(String, String)> = of("store")
        .iter()
        .map(|e| {
            let module = e.get("name").and_then(Json::as_str).unwrap_or_default();
            (module.to_string(), arg(e, "store").unwrap_or_default())
        })
        .collect();
    let rows: Vec<(String, String)> = report
        .caches
        .iter()
        .map(|c| (c.module.clone(), c.status.to_string()))
        .collect();
    assert!(!rows.is_empty(), "a cold run with a store looks modules up");
    assert_eq!(stores, rows);

    let pipeline = [
        "read",
        "expand",
        "typecheck",
        "optimize",
        "compile",
        "load",
        "run",
    ];
    let traced: std::collections::BTreeSet<String> = events
        .iter()
        .filter_map(cat)
        .filter(|c| pipeline.contains(&c.as_str()))
        .collect();
    let reported: std::collections::BTreeSet<String> =
        report.phases.iter().map(|p| p.phase.to_string()).collect();
    assert_eq!(traced, reported);
}
