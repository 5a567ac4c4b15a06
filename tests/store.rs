//! End-to-end tests for the on-disk compiled-module store: warm runs
//! load `.lagc` artifacts instead of compiling, edits invalidate a
//! module *and* its dependents, corrupt artifacts fall back to
//! recompilation with a structured diagnostic, typed exports rehydrate
//! from their persisted recipes, and the lazy module loader resolves
//! requires — including macro-generated ones — at compile time.

use lagoon::{EngineKind, Lagoon};
use std::path::PathBuf;

const UTIL: &str = "#lang typed/lagoon
(: triple : Integer -> Integer)
(define (triple n) (* 3 n))
(provide triple)
";

const MAIN: &str = "#lang lagoon
(require util)
(triple 14)
";

/// A fresh, empty store directory unique to this test.
fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lagoon-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cached_world(tag: &str) -> (Lagoon, PathBuf) {
    let dir = temp_store(tag);
    let lagoon = Lagoon::new();
    lagoon.set_cache_dir(Some(dir.clone()));
    lagoon.add_module("util", UTIL);
    lagoon.add_module("main", MAIN);
    (lagoon, dir)
}

#[test]
fn warm_run_hits_the_store_for_every_module() {
    let (lagoon, dir) = cached_world("warm");
    let (v1, cold) = lagoon.run_with_stats("main", EngineKind::Vm).unwrap();
    assert_eq!(v1.to_string(), "42");
    assert_eq!(
        cold.cache_hits(),
        0,
        "cold run cannot hit: {:?}",
        cold.caches
    );
    assert_eq!(cold.cache_misses(), 2);
    assert!(dir.join("util.lagc").is_file());
    assert!(dir.join("main.lagc").is_file());

    lagoon.registry().reset_compiled();
    let (v2, warm) = lagoon.run_with_stats("main", EngineKind::Vm).unwrap();
    assert_eq!(v2.to_string(), "42");
    assert_eq!(
        warm.cache_misses(),
        0,
        "warm run compiled: {:?}",
        warm.caches
    );
    assert_eq!(warm.cache_hits(), 2);

    // the decoded core forms drive the interpreter engine too
    let v3 = lagoon.run("main", EngineKind::Interp).unwrap();
    assert_eq!(v3.to_string(), "42");
}

#[test]
fn fresh_importers_use_rehydrated_typed_exports() {
    let (lagoon, _dir) = cached_world("rehydrate");
    lagoon.run("main", EngineKind::Vm).unwrap();
    lagoon.registry().reset_compiled();

    // an untyped client compiled against the cache-loaded typed module:
    // the export indirection was rebuilt from its persisted recipe, and
    // picks the contract-protected variant here
    lagoon.add_module("client", "#lang lagoon\n(require util)\n(triple 5)\n");
    let (v, report) = lagoon.run_with_stats("client", EngineKind::Vm).unwrap();
    assert_eq!(v.to_string(), "15");
    assert!(
        report
            .caches
            .iter()
            .any(|r| r.module == "util" && r.status == "hit"),
        "util should load from the store: {:?}",
        report.caches
    );

    // a typed client needs util's *persisted type declarations* replayed
    // from the artifact, and links against the raw (uncontracted) export
    lagoon.registry().reset_compiled();
    lagoon.add_module(
        "typed-client",
        "#lang typed/lagoon\n(require util)\n(define: x : Integer (triple 7))\nx\n",
    );
    let v = lagoon.run("typed-client", EngineKind::Vm).unwrap();
    assert_eq!(v.to_string(), "21");
}

#[test]
fn editing_a_module_invalidates_it_and_its_dependents() {
    let (lagoon, _dir) = cached_world("edit");
    lagoon.run("main", EngineKind::Vm).unwrap();

    lagoon.add_module("util", &UTIL.replace("(* 3 n)", "(* 4 n)"));
    lagoon.registry().reset_compiled();
    let (v, report) = lagoon.run_with_stats("main", EngineKind::Vm).unwrap();
    assert_eq!(v.to_string(), "56");
    let status = |m: &str| {
        report
            .caches
            .iter()
            .find(|r| r.module == m)
            .map(|r| (r.status, r.detail.clone()))
            .unwrap_or_else(|| panic!("no cache row for {m}: {:?}", report.caches))
    };
    assert_eq!(status("util").0, "stale");
    assert_eq!(status("util").1, "source changed");
    assert_eq!(status("main").0, "stale");
    assert_eq!(status("main").1, "dependency util recompiled");

    // and the rewritten artifacts hit on the next warm run
    lagoon.registry().reset_compiled();
    let (_, warm) = lagoon.run_with_stats("main", EngineKind::Vm).unwrap();
    assert_eq!(warm.cache_hits(), 2, "{:?}", warm.caches);
}

#[test]
fn corrupt_artifacts_recompile_with_a_diagnostic() {
    let (lagoon, dir) = cached_world("corrupt");
    lagoon.run("main", EngineKind::Vm).unwrap();

    // flip a byte in the middle of util's artifact
    let path = dir.join("util.lagc");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    lagoon.registry().reset_compiled();
    let (v, report) = lagoon.run_with_stats("main", EngineKind::Vm).unwrap();
    assert_eq!(v.to_string(), "42", "corruption must not change behavior");
    assert!(
        report
            .caches
            .iter()
            .any(|r| r.module == "util" && r.status == "corrupt"),
        "expected a corrupt row: {:?}",
        report.caches
    );

    // truncation is also corruption, and also recovers
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len().min(10)]).unwrap();
    lagoon.registry().reset_compiled();
    let (v, report) = lagoon.run_with_stats("main", EngineKind::Vm).unwrap();
    assert_eq!(v.to_string(), "42");
    assert!(
        report
            .caches
            .iter()
            .any(|r| r.module == "util" && r.status == "corrupt"),
        "expected a corrupt row: {:?}",
        report.caches
    );
}

#[test]
fn old_format_artifacts_are_stale_not_corrupt() {
    let (lagoon, dir) = cached_world("oldformat");
    lagoon.run("main", EngineKind::Vm).unwrap();

    // rewrite util's artifact as a previous-format one: the version is a
    // single-byte varint right after the 4-byte magic, and it sits in the
    // outer frame, *outside* the body content digest — so this is exactly
    // what a leftover pre-bump artifact looks like, digest intact
    let path = dir.join("util.lagc");
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(&bytes[..4], b"LAGC");
    assert_eq!(u32::from(bytes[4]), lagoon_core::store::FORMAT_VERSION);
    bytes[4] = 5; // the version a store written before the bump carries
    std::fs::write(&path, &bytes).unwrap();

    lagoon.registry().reset_compiled();
    let (v, report) = lagoon.run_with_stats("main", EngineKind::Vm).unwrap();
    assert_eq!(v.to_string(), "42", "stale artifact must recompile cleanly");
    let util = report
        .caches
        .iter()
        .find(|r| r.module == "util")
        .unwrap_or_else(|| panic!("no cache row for util: {:?}", report.caches));
    assert_eq!(
        util.status, "stale",
        "old format must be stale, not corrupt"
    );
    assert!(
        util.detail.contains("format version 5"),
        "diagnostic should name the found version: {}",
        util.detail
    );

    // the recompile rewrote a current-format artifact that now hits
    lagoon.registry().reset_compiled();
    let (_, warm) = lagoon.run_with_stats("main", EngineKind::Vm).unwrap();
    assert_eq!(warm.cache_hits(), 2, "{:?}", warm.caches);
}

#[test]
fn stats_report_timing_buckets_and_load_phase() {
    let (lagoon, _dir) = cached_world("buckets");
    let (_, cold) = lagoon.run_with_stats("main", EngineKind::Vm).unwrap();
    let bucket = |report: &lagoon::diag::Report, name: &str| {
        report
            .timing_buckets()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, ns)| *ns)
            .unwrap()
    };
    assert!(bucket(&cold, "expand") > 0, "cold run expands");
    assert!(bucket(&cold, "compile") > 0, "cold run compiles");

    lagoon.registry().reset_compiled();
    let (_, warm) = lagoon.run_with_stats("main", EngineKind::Vm).unwrap();
    assert_eq!(bucket(&warm, "read"), 0, "warm run reads nothing");
    assert_eq!(bucket(&warm, "expand"), 0, "warm run expands nothing");
    assert_eq!(bucket(&warm, "compile"), 0, "warm run compiles nothing");
    assert!(bucket(&warm, "load") > 0, "warm run loads artifacts");
    let json = warm.to_json();
    assert!(json.contains("\"buckets\""), "buckets missing from {json}");
    assert!(json.contains("\"cache\""), "cache rows missing from {json}");
}

#[test]
fn expanding_a_loaded_module_expands_its_source_again() {
    let (lagoon, dir) = cached_world("expand");
    let render = |forms: Vec<lagoon::Syntax>| -> Vec<String> {
        forms.iter().map(|f| f.to_datum().to_string()).collect()
    };
    let fresh = render(lagoon.expanded("main").unwrap());
    assert!(!fresh.is_empty());
    let stored = artifact_bytes(&dir);

    // an artifact persists no expansion: a loaded module is expanded
    // again from its source, and nothing is stored or kept
    lagoon.registry().reset_compiled();
    let (loaded, report) = lagoon.expand_with_stats("main").unwrap();
    assert_eq!(render(loaded), fresh);
    assert_eq!(report.cache_hits(), 2, "{:?}", report.caches);
    assert_eq!(report.cache_misses(), 0, "{:?}", report.caches);
    let footprint = lagoon.registry().persistent_footprint();
    assert_eq!(render(lagoon.expanded("main").unwrap()), fresh);
    assert_eq!(lagoon.registry().persistent_footprint(), footprint);
    assert_eq!(artifact_bytes(&dir), stored, "no artifact was rewritten");
}

#[test]
fn macro_generated_requires_resolve_through_the_lazy_loader() {
    // no pre-scan of this source can see the require — it only exists
    // after (use-math) expands, at which point the loader supplies the
    // module's source on demand
    let lagoon = Lagoon::new();
    lagoon.set_module_loader(|name| match name {
        "mathlib" => {
            Some("#lang lagoon\n(define (add2 a b) (+ a b))\n(provide add2)\n".to_string())
        }
        _ => None,
    });
    lagoon.add_module(
        "main",
        "#lang lagoon
(define-syntax use-math (syntax-rules () [(_) (require mathlib)]))
(use-math)
(add2 40 2)
",
    );
    assert_eq!(
        lagoon.run("main", EngineKind::Vm).unwrap().to_string(),
        "42"
    );
    assert_eq!(
        lagoon.run("main", EngineKind::Interp).unwrap().to_string(),
        "42"
    );
    // unknown modules still error cleanly through the loader path
    lagoon.add_module("broken", "#lang lagoon\n(require no-such-module)\n1\n");
    let err = lagoon.run("broken", EngineKind::Vm).unwrap_err();
    assert!(err.to_string().contains("no-such-module"), "{err}");
}

#[test]
fn modules_with_macro_exports_are_skipped_not_broken() {
    // a hosted macro export has no serialized form, so the module is
    // uncacheable — it recompiles every run, and stays correct
    let dir = temp_store("uncacheable");
    let lagoon = Lagoon::new();
    lagoon.set_cache_dir(Some(dir.clone()));
    lagoon.add_module(
        "macros",
        "#lang lagoon
(define-syntax twice (syntax-rules () [(_ e) (begin e e)]))
(provide twice)
",
    );
    lagoon.add_module(
        "user",
        "#lang lagoon\n(require macros)\n(define c 0)\n(twice (set! c (+ c 1)))\nc\n",
    );
    let (v, report) = lagoon.run_with_stats("user", EngineKind::Vm).unwrap();
    assert_eq!(v.to_string(), "2");
    assert!(
        !dir.join("macros.lagc").exists(),
        "macro module must not cache"
    );
    assert!(
        report
            .caches
            .iter()
            .any(|r| r.module == "macros" && r.detail.contains("not cached")),
        "expected an uncacheable diagnostic: {:?}",
        report.caches
    );
    // its importer cannot cache either (its dependency has no digest)
    assert!(!dir.join("user.lagc").exists());

    // and on a second pass everything still runs
    lagoon.registry().reset_compiled();
    let v = lagoon.run("user", EngineKind::Vm).unwrap();
    assert_eq!(v.to_string(), "2");
}

// ---------------------------------------------------------------------------
// Parallel builds against a shared store
// ---------------------------------------------------------------------------

/// A 12-module diamond-and-chain graph mixing typed and untyped
/// languages: `top` requires two mid modules, each chaining down to a
/// shared typed leaf.
fn stress_graph() -> std::collections::BTreeMap<String, String> {
    let mut sources = std::collections::BTreeMap::new();
    sources.insert(
        "leaf".to_string(),
        "#lang typed/lagoon
(: base : Integer -> Integer)
(define (base n) (+ n 1))
(provide base)
"
        .to_string(),
    );
    // two chains of 4 typed modules each, both ending at the leaf
    for chain in ["a", "b"] {
        for i in 0..4 {
            let prev = if i == 3 {
                "leaf".to_string()
            } else {
                format!("{chain}{}", i + 1)
            };
            let prev_fn = if i == 3 {
                "base".to_string()
            } else {
                format!("f{chain}{}", i + 1)
            };
            sources.insert(
                format!("{chain}{i}"),
                format!(
                    "#lang typed/lagoon
(require {prev})
(: f{chain}{i} : Integer -> Integer)
(define (f{chain}{i} n) (+ 1 ({prev_fn} n)))
(provide f{chain}{i})
"
                ),
            );
        }
    }
    sources.insert(
        "mid".to_string(),
        "#lang lagoon
(require a0 b0)
(define (both n) (+ (fa0 n) (fb0 n)))
(provide both)
"
        .to_string(),
    );
    sources.insert(
        "top".to_string(),
        "#lang lagoon
(require mid)
(both 10)
"
        .to_string(),
    );
    sources
}

fn artifact_bytes(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    let mut map = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "lagc") {
            map.insert(
                path.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&path).unwrap(),
            );
        }
    }
    map
}

#[test]
fn concurrent_builders_share_one_store_byte_identically() {
    let sources = stress_graph();
    assert!(sources.len() >= 10, "graph must be 10+ modules");
    let entries = vec!["top".to_string()];

    // serial reference build
    let serial_dir = temp_store("stress-serial");
    let serial = lagoon::server::build_from_map(
        &entries,
        sources.clone(),
        &lagoon::server::BuildOptions {
            jobs: 1,
            cache_dir: Some(serial_dir.clone()),
            ..Default::default()
        },
    );
    assert!(
        serial.success(),
        "serial build failed: {:?}",
        serial.failures()
    );
    assert_eq!(serial.modules.len(), sources.len());

    // two OS threads race parallel builds of the same graph against one
    // shared cache directory
    let shared_dir = temp_store("stress-shared");
    let reports: Vec<lagoon::server::BuildReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let sources = sources.clone();
                let entries = entries.clone();
                let dir = shared_dir.clone();
                scope.spawn(move || {
                    lagoon::server::build_from_map(
                        &entries,
                        sources,
                        &lagoon::server::BuildOptions {
                            jobs: 2,
                            cache_dir: Some(dir),
                            ..Default::default()
                        },
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for report in &reports {
        assert!(
            report.success(),
            "concurrent build failed: {:?}",
            report.failures()
        );
        assert_eq!(report.modules.len(), sources.len());
        // the store counters add up: every module in the graph produced
        // at least one store lookup (hit, miss, or stale — a stale row
        // is the fresh-dep-forces-recompile rule at work), and the
        // summary counters agree with the merged diag cache rows
        let graph_rows = |status: &str| {
            report
                .diag
                .caches
                .iter()
                .filter(|c| c.status == status && sources.contains_key(&c.module))
                .count()
        };
        let (hits, misses, stale) = (graph_rows("hit"), graph_rows("miss"), graph_rows("stale"));
        assert_eq!(hits, report.cache_hits, "summary hits disagree with rows");
        assert_eq!(
            misses, report.cache_misses,
            "summary misses disagree with rows"
        );
        assert!(
            hits + misses + stale >= sources.len(),
            "hits {hits} + misses {misses} + stale {stale} cannot cover {} modules",
            sources.len()
        );
    }

    // artifacts written under contention are byte-identical to the
    // serial build's (atomic tmp+rename writes, deterministic gensyms)
    let serial_artifacts = artifact_bytes(&serial_dir);
    let shared_artifacts = artifact_bytes(&shared_dir);
    assert_eq!(
        serial_artifacts.keys().collect::<Vec<_>>(),
        shared_artifacts.keys().collect::<Vec<_>>(),
        "same artifact set"
    );
    assert_eq!(serial_artifacts.len(), sources.len());
    for (name, bytes) in &serial_artifacts {
        assert_eq!(
            bytes, &shared_artifacts[name],
            "artifact {name} differs between serial and contended builds"
        );
    }

    // no tmp files leak from the atomic-write path
    let leftovers: Vec<_> = std::fs::read_dir(&shared_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
        .collect();
    assert!(leftovers.is_empty(), "leaked tmp files: {leftovers:?}");

    // and the contended store is immediately usable by a fresh world
    let lagoon = Lagoon::new();
    lagoon.set_cache_dir(Some(shared_dir));
    for (name, source) in &sources {
        lagoon.add_module(name, source);
    }
    let (v, report) = lagoon.run_with_stats("top", EngineKind::Vm).unwrap();
    assert_eq!(v.to_string(), "30");
    assert_eq!(
        report.cache_misses(),
        0,
        "warm world recompiled: {:?}",
        report.caches
    );
}

#[test]
fn parallel_build_jobs_do_not_change_artifacts() {
    let sources = stress_graph();
    let entries = vec!["top".to_string()];
    let mut reference: Option<std::collections::BTreeMap<String, Vec<u8>>> = None;
    for jobs in [1usize, 4] {
        let dir = temp_store(&format!("jobs-{jobs}"));
        let report = lagoon::server::build_from_map(
            &entries,
            sources.clone(),
            &lagoon::server::BuildOptions {
                jobs,
                cache_dir: Some(dir.clone()),
                ..Default::default()
            },
        );
        assert!(report.success(), "jobs={jobs}: {:?}", report.failures());
        let artifacts = artifact_bytes(&dir);
        match &reference {
            None => reference = Some(artifacts),
            Some(expected) => assert_eq!(
                expected, &artifacts,
                "--jobs {jobs} artifacts differ from --jobs 1"
            ),
        }
    }
}

#[test]
fn parallel_build_reports_failures_and_skips_dependents() {
    let mut sources = stress_graph();
    sources.insert(
        "a2".to_string(),
        "#lang typed/lagoon\n(: broken : Integer)\n(define broken \"nope\")\n".to_string(),
    );
    let report = lagoon::server::build_from_map(
        &["top".to_string()],
        sources,
        &lagoon::server::BuildOptions {
            jobs: 4,
            cache_dir: Some(temp_store("fail")),
            ..Default::default()
        },
    );
    assert!(!report.success());
    let status_of = |name: &str| {
        report
            .modules
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.status.clone())
    };
    assert!(
        matches!(
            status_of("a2"),
            Some(lagoon::server::ModuleStatus::Failed(_))
        ),
        "a2 must fail: {:?}",
        status_of("a2")
    );
    // everything downstream of a2 is skipped, not attempted
    for name in ["a1", "a0", "mid", "top"] {
        assert!(
            matches!(
                status_of(name),
                Some(lagoon::server::ModuleStatus::Skipped(_))
            ),
            "{name} should be skipped: {:?}",
            status_of(name)
        );
    }
    // the untouched chain still builds
    for name in ["b0", "b1", "b2", "b3", "leaf"] {
        assert!(
            matches!(status_of(name), Some(lagoon::server::ModuleStatus::Built)),
            "{name} should build: {:?}",
            status_of(name)
        );
    }
}

#[test]
fn a_panicking_compile_fails_its_module_with_an_internal_error() {
    // `boom` is required only once (use-boom) expands, so discovery never
    // asks for it: the worker's compile does, and the source oracle's
    // panic unwinds into the request path's barrier
    let report = lagoon::server::build(
        &["main".to_string(), "other".to_string()],
        std::sync::Arc::new(|name: &str| match name {
            "main" => Some(
                "#lang lagoon
(define-syntax use-boom (syntax-rules () [(_) (require boom)]))
(use-boom)
"
                .to_string(),
            ),
            "other" => Some("#lang lagoon\n(+ 1 2)\n".to_string()),
            "boom" => panic!("the source oracle failed"),
            _ => None,
        }),
        &lagoon::server::BuildOptions::default(),
    );
    let status_of = |name: &str| {
        report
            .modules
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.status.clone())
    };
    match status_of("main") {
        Some(lagoon::server::ModuleStatus::Failed(message)) => assert!(
            message.starts_with("internal error") && message.contains("the source oracle failed"),
            "{message}"
        ),
        other => panic!("main must fail with an internal error: {other:?}"),
    }
    // the one worker survives the panic and builds its other job
    assert_eq!(
        status_of("other"),
        Some(lagoon::server::ModuleStatus::Built)
    );
}

// ---------------------------------------------------------------------------
// Rebuilds over an existing store
// ---------------------------------------------------------------------------

fn build_into(
    sources: &std::collections::BTreeMap<String, String>,
    entries: &[&str],
    jobs: usize,
    dir: &std::path::Path,
) -> lagoon::server::BuildReport {
    let entries: Vec<String> = entries.iter().map(|e| e.to_string()).collect();
    let report = lagoon::server::build_from_map(
        &entries,
        sources.clone(),
        &lagoon::server::BuildOptions {
            jobs,
            cache_dir: Some(dir.to_path_buf()),
            ..Default::default()
        },
    );
    assert!(report.success(), "build failed: {:?}", report.failures());
    report
}

/// The modules a build compiled (the rest were up to date), sorted.
fn compiled_modules(report: &lagoon::server::BuildReport) -> Vec<&str> {
    let mut names: Vec<&str> = report
        .modules
        .iter()
        .filter(|m| m.worker.is_some())
        .map(|m| m.name.as_str())
        .collect();
    names.sort_unstable();
    names
}

fn cache_rows<'a>(report: &'a lagoon::server::BuildReport, status: &str) -> Vec<&'a str> {
    report
        .diag
        .caches
        .iter()
        .filter(|c| c.status == status)
        .map(|c| c.module.as_str())
        .collect()
}

#[test]
fn no_op_rebuild_verifies_headers_and_compiles_nothing() {
    let sources = stress_graph();
    for jobs in [1usize, 4] {
        let dir = temp_store(&format!("noop-{jobs}"));
        build_into(&sources, &["top"], jobs, &dir);
        let stamp = |dir: &std::path::Path| {
            artifact_bytes(dir)
                .into_iter()
                .map(|(name, bytes)| {
                    let mtime = std::fs::metadata(dir.join(&name))
                        .and_then(|m| m.modified())
                        .unwrap();
                    (name, (bytes, mtime))
                })
                .collect::<std::collections::BTreeMap<_, _>>()
        };
        let before = stamp(&dir);

        let report = build_into(&sources, &["top"], jobs, &dir);
        assert_eq!(report.modules.len(), sources.len(), "jobs={jobs}");
        for m in &report.modules {
            assert_eq!(m.status, lagoon::server::ModuleStatus::Built, "{}", m.name);
            assert_eq!(m.worker, None, "jobs={jobs}: {} was compiled", m.name);
        }
        assert!(
            report.workers.is_empty(),
            "no worker starts when all is fresh"
        );
        assert!(
            cache_rows(&report, "miss").is_empty(),
            "{:?}",
            report.diag.caches
        );
        assert!(
            cache_rows(&report, "stale").is_empty(),
            "{:?}",
            report.diag.caches
        );
        let mut hits = cache_rows(&report, "hit");
        hits.sort_unstable();
        let modules: Vec<&str> = sources.keys().map(String::as_str).collect();
        assert_eq!(hits, modules, "exactly one hit per module, jobs={jobs}");
        assert_eq!(report.cache_hits, sources.len());
        assert_eq!(stamp(&dir), before, "a no-op rebuild rewrote the store");
    }
}

#[test]
fn build_traces_open_with_a_discovery_track() {
    let sources = stress_graph();
    let dir = temp_store("discovery-trace");
    let traced = |jobs: usize| {
        let report = lagoon::server::build_from_map(
            &["top".to_string()],
            sources.clone(),
            &lagoon::server::BuildOptions {
                jobs,
                cache_dir: Some(dir.clone()),
                trace: true,
                ..Default::default()
            },
        );
        assert!(report.success(), "{:?}", report.failures());
        let tracks: Vec<&str> = report.traces.iter().map(|(n, _)| n.as_str()).collect();
        // one discovery span, with the header walk's store hits under it
        let (discovery, hits): (Vec<_>, Vec<_>) = report.traces[0]
            .1
            .spans
            .iter()
            .partition(|s| s.phase == "discovery");
        assert_eq!(discovery.len(), 1, "one discovery span");
        assert!(
            hits.iter()
                .all(|s| s.phase == "store" && s.parent == Some(discovery[0].id)),
            "{hits:?}"
        );
        let notes: Vec<String> = discovery[0]
            .notes
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        (tracks.join(" "), notes.join(" "), hits.len())
    };
    let n = sources.len();
    let (tracks, notes, hits) = traced(2);
    assert_eq!(tracks, "discovery worker 0 worker 1");
    assert_eq!(notes, format!("verified=0 dirty={n} parsed={n}"));
    assert_eq!(hits, 0);
    let (tracks, notes, hits) = traced(2);
    assert_eq!(tracks, "discovery", "a no-op rebuild starts no worker");
    assert_eq!(notes, format!("verified={n} dirty=0 parsed=0"));
    assert_eq!(hits, n, "one store hit per verified module");
}

#[test]
fn worker_spans_of_a_parallel_build_name_their_module() {
    // each worker renders its spans on its own thread, where the
    // symbols they hold mean something: a span's source location names
    // the module whose expansion it sits in, with a line
    let sources = stress_graph();
    let dir = temp_store("worker-span-src");
    let report = lagoon::server::build_from_map(
        &["top".to_string()],
        sources.clone(),
        &lagoon::server::BuildOptions {
            jobs: 2,
            cache_dir: Some(dir.clone()),
            trace: true,
            ..Default::default()
        },
    );
    assert!(report.success(), "{:?}", report.failures());
    let mut named = std::collections::BTreeSet::new();
    for (track, trace) in report
        .traces
        .iter()
        .filter(|(t, _)| t.starts_with("worker"))
    {
        let by_id: std::collections::HashMap<u64, &lagoon::diag::trace::TraceSpan> =
            trace.spans.iter().map(|s| (s.id, s)).collect();
        for span in &trace.spans {
            let Some(src) = span.src.as_deref() else {
                continue;
            };
            let mut parts = src.rsplitn(3, ':');
            let (_col, line, module) = (parts.next(), parts.next(), parts.next());
            assert!(
                line.is_some_and(|l| l.parse::<u32>().is_ok()),
                "{track}: {src}"
            );
            let mut expand = span;
            while expand.phase != "expand" {
                expand = by_id[&expand.parent.expect("a span with a src sits in an expand")];
            }
            assert_eq!(module, Some(expand.label.as_str()), "{track}: {src}");
            named.insert(expand.label.clone());
        }
    }
    assert!(named.contains("top") && named.contains("leaf"), "{named:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeated_builds_leave_no_symbols_behind() {
    // discovery and the workers intern on threads of their own, whose
    // tables go with them: cold builds in one process leave the
    // caller's table as it was
    let sources = stress_graph();
    let before = lagoon_syntax::interned_count();
    for round in 0..3 {
        let dir = temp_store(&format!("repeat-{round}"));
        build_into(&sources, &["top"], 2, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(lagoon_syntax::interned_count(), before, "round {round}");
    }
}

#[test]
fn an_edit_recompiles_exactly_the_module_and_its_importers() {
    let mut sources = stress_graph();
    let dir = temp_store("edit-rebuild");
    build_into(&sources, &["top"], 2, &dir);

    // (module edited, every module that must recompile): a mid-chain
    // module reaches only its chain, the one leaf reaches every module
    let all: Vec<String> = sources.keys().cloned().collect();
    let edits = [
        ("a2", vec!["a0", "a1", "a2", "mid", "top"]),
        ("leaf", all.iter().map(String::as_str).collect()),
    ];
    for (edited, expected) in edits {
        let old = sources[edited].clone();
        let new = old.replace("(+ 1", "(+ 2").replace("(+ n 1)", "(+ n 3)");
        assert_ne!(new, old, "the edit must change {edited}");
        sources.insert(edited.to_string(), new);
        let report = build_into(&sources, &["top"], 2, &dir);
        assert_eq!(
            compiled_modules(&report),
            expected,
            "after editing {edited}"
        );

        // the store equals a cold build of the edited graph
        let cold = temp_store(&format!("edit-cold-{edited}"));
        build_into(&sources, &["top"], 1, &cold);
        assert_eq!(
            artifact_bytes(&dir),
            artifact_bytes(&cold),
            "rebuilt store differs from a cold build after editing {edited}"
        );
    }

    // and the rebuilt store runs the edited program without compiling
    let lagoon = Lagoon::new();
    lagoon.set_cache_dir(Some(dir));
    for (name, source) in &sources {
        lagoon.add_module(name, source);
    }
    let (v, report) = lagoon.run_with_stats("top", EngineKind::Vm).unwrap();
    assert_eq!(v.to_string(), "35");
    assert_eq!(report.cache_misses(), 0, "{:?}", report.caches);
}

/// A traced [`build_into`], with the number of sources its discovery
/// parsed: the `discovery` span's `parsed` note.
fn build_counting_parses(
    sources: &std::collections::BTreeMap<String, String>,
    entries: &[&str],
    jobs: usize,
    dir: &std::path::Path,
) -> (lagoon::server::BuildReport, usize) {
    let report = lagoon::server::build_from_map(
        &entries.iter().map(|e| e.to_string()).collect::<Vec<_>>(),
        sources.clone(),
        &lagoon::server::BuildOptions {
            jobs,
            cache_dir: Some(dir.to_path_buf()),
            trace: true,
            ..Default::default()
        },
    );
    assert!(report.success(), "build failed: {:?}", report.failures());
    let parsed = report.traces[0]
        .1
        .spans
        .iter()
        .find(|s| s.phase == "discovery")
        .and_then(|s| s.notes.iter().find(|(k, _)| *k == "parsed"))
        .map(|(_, v)| v.parse().unwrap())
        .expect("a discovery span noting what it parsed");
    (report, parsed)
}

fn module_names(report: &lagoon::server::BuildReport) -> Vec<&str> {
    report.modules.iter().map(|m| m.name.as_str()).collect()
}

#[test]
fn rebuilds_parse_only_the_sources_that_changed() {
    // the stress graph plus a second leaf that only `mid` requires, so
    // an edit to a leaf reaches some modules and not others
    let mut sources = stress_graph();
    sources.insert(
        "mid".to_string(),
        sources["mid"].replace("(require a0 b0)", "(require a0 b0 side)"),
    );
    sources.insert(
        "side".to_string(),
        "#lang lagoon\n(define (tip n) n)\n(provide tip)\n".to_string(),
    );
    let cold_dir = temp_store("parse-cold");
    let (cold, parsed) = build_counting_parses(&sources, &["top"], 1, &cold_dir);
    assert_eq!(parsed, sources.len(), "a cold build parses every source");

    for jobs in [1usize, 4] {
        let dir = temp_store(&format!("parse-noop-{jobs}"));
        build_into(&sources, &["top"], jobs, &dir);
        let (report, parsed) = build_counting_parses(&sources, &["top"], jobs, &dir);
        assert_eq!(parsed, 0, "a no-op rebuild at --jobs {jobs} parses nothing");
        assert!(compiled_modules(&report).is_empty());
        assert_eq!(module_names(&report), module_names(&cold));
    }

    let dir = temp_store("parse-edit");
    build_into(&sources, &["top"], 2, &dir);
    sources.insert(
        "side".to_string(),
        sources["side"].replace("(tip n) n", "(tip n) (+ n 1)"),
    );
    let (report, parsed) = build_counting_parses(&sources, &["top"], 2, &dir);
    assert_eq!(parsed, 1, "the rebuild parses the edited source alone");
    assert_eq!(compiled_modules(&report), ["mid", "side", "top"]);
    let cold_dir = temp_store("parse-edit-cold");
    let (edited_cold, _) = build_counting_parses(&sources, &["top"], 1, &cold_dir);
    assert_eq!(module_names(&report), module_names(&edited_cold));
    assert_eq!(artifact_bytes(&dir), artifact_bytes(&cold_dir));
}

#[test]
fn a_recorded_require_naming_no_module_is_parsed_not_trusted() {
    // the content digest is a hash, not a MAC: a re-framed artifact can
    // record any static require list, and one naming a module the loader
    // cannot find must not fail a build the source alone would pass
    let sources = stress_graph();
    let cold = build_into(&sources, &["top"], 1, &temp_store("bogus-require-cold"));
    let dir = temp_store("bogus-require");
    build_into(&sources, &["top"], 1, &dir);
    let path = dir.join("mid.lagc");
    let artifact = lagoon_core::store::decode(&std::fs::read(&path).unwrap(), &|_, _| None)
        .unwrap_or_else(|e| panic!("mid: {e}"));
    let header = &artifact.header;
    let (env, src, deps) = (
        header.env_digest,
        header.source_digest,
        header.dep_digests.clone(),
    );
    let mut compiled = artifact.into_compiled();
    compiled
        .static_requires
        .push(lagoon::Symbol::intern("no-such-module"));
    let bytes = lagoon_core::store::encode(&compiled, env, src, &deps).unwrap();
    std::fs::write(&path, bytes).unwrap();

    for jobs in [1usize, 2] {
        let (report, parsed) = build_counting_parses(&sources, &["top"], jobs, &dir);
        assert_eq!(parsed, 1, "mid's source decides its edges");
        assert_eq!(module_names(&report), module_names(&cold));
    }
}

#[test]
fn editing_a_hidden_dependency_recompiles_its_importer() {
    // the require only exists after (use-math) expands, so no scan sees
    // it; the importer's artifact recorded it all the same
    let mathlib = "#lang lagoon\n(define (add2 a b) (+ a b))\n(provide add2)\n";
    let mut sources = std::collections::BTreeMap::new();
    sources.insert("mathlib".to_string(), mathlib.to_string());
    sources.insert(
        "main".to_string(),
        "#lang lagoon
(define-syntax use-math (syntax-rules () [(_) (require mathlib)]))
(use-math)
(add2 40 2)
"
        .to_string(),
    );
    let dir = temp_store("hidden-dep");
    // every build reports the static graph, whatever the store holds
    let graph = |report: &lagoon::server::BuildReport| {
        let names: Vec<String> = report.modules.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, ["main"], "the static graph");
    };
    graph(&build_into(&sources, &["main"], 1, &dir));
    assert!(dir.join("mathlib.lagc").is_file());
    let report = build_into(&sources, &["main"], 1, &dir);
    graph(&report);
    assert!(compiled_modules(&report).is_empty());

    sources.insert("mathlib".to_string(), mathlib.replace("(+ a b)", "(* a b)"));
    let report = build_into(&sources, &["main"], 1, &dir);
    graph(&report);
    assert_eq!(compiled_modules(&report), ["main"]);
    assert!(
        report
            .diag
            .caches
            .iter()
            .any(|c| c.module == "mathlib" && c.status == "stale" && c.detail == "source changed"),
        "{:?}",
        report.diag.caches
    );

    let lagoon = Lagoon::new();
    lagoon.set_cache_dir(Some(dir));
    for (name, source) in &sources {
        lagoon.add_module(name, source);
    }
    let (v, report) = lagoon.run_with_stats("main", EngineKind::Vm).unwrap();
    assert_eq!(v.to_string(), "80");
    assert_eq!(report.cache_misses(), 0, "{:?}", report.caches);
}

#[test]
fn importers_sharing_up_to_date_dependencies_do_not_wait_on_each_other() {
    // u and v require the libraries p and q in opposite orders. Editing
    // both importers leaves the libraries up to date, so the two workers
    // load them concurrently; neither may claim one for the length of
    // its own compile (the other would wait, and with opposite orders
    // each would wait on the other)
    let mut sources = std::collections::BTreeMap::new();
    for lib in ["p", "q"] {
        sources.insert(
            lib.to_string(),
            format!("#lang lagoon\n(define ({lib}-val) 1)\n(provide {lib}-val)\n"),
        );
    }
    // enough definitions after the requires that each compile outlasts
    // the other worker's start
    let body: String = (0..300)
        .map(|i| format!("(define (g{i} x) (if (< x {i}) (+ x 1) (g{i} (- x 1))))\n"))
        .collect();
    for (name, first, second) in [("u", "p", "q"), ("v", "q", "p")] {
        sources.insert(
            name.to_string(),
            format!(
                "#lang lagoon\n(require {first})\n(require {second})\n{body}(+ ({first}-val) ({second}-val))\n"
            ),
        );
    }
    let dir = temp_store("shared-deps");
    build_into(&sources, &["u", "v"], 2, &dir);
    for name in ["u", "v"] {
        let edited = sources[name].replace("(+ (", "(- (");
        sources.insert(name.to_string(), edited);
    }
    let report = build_into(&sources, &["u", "v"], 2, &dir);
    assert_eq!(compiled_modules(&report), ["u", "v"]);
    assert_eq!(report.single_flight_waits, 0);
    let mut recompiled = cache_rows(&report, "stale");
    recompiled.sort_unstable();
    assert_eq!(recompiled, ["u", "v"], "{:?}", report.diag.caches);
    assert!(cache_rows(&report, "miss").is_empty());
}

#[test]
fn artifacts_recording_each_other_recompile_instead_of_looping() {
    let mut sources = std::collections::BTreeMap::new();
    sources.insert(
        "x".to_string(),
        "#lang lagoon\n(define x 1)\n(provide x)\n".to_string(),
    );
    sources.insert(
        "y".to_string(),
        "#lang lagoon\n(define y 2)\n(provide y)\n".to_string(),
    );
    let dir = temp_store("dep-cycle");
    build_into(&sources, &["x", "y"], 1, &dir);
    let cold = artifact_bytes(&dir);

    // rewrite both artifacts, digests intact, each recording the other
    // as a dependency: a cycle no compile could have produced
    let no_rehydrate = |_: lagoon::Symbol, _: &lagoon::Datum| None;
    for (name, other) in [("x", "y"), ("y", "x")] {
        let path = dir.join(format!("{name}.lagc"));
        let artifact = lagoon_core::store::decode(&std::fs::read(&path).unwrap(), &no_rehydrate)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let (env, src) = (artifact.header.env_digest, artifact.header.source_digest);
        let deps = [(lagoon::Symbol::intern(other), 7)];
        let bytes = lagoon_core::store::encode(&artifact.into_compiled(), env, src, &deps).unwrap();
        std::fs::write(&path, bytes).unwrap();
    }

    let report = build_into(&sources, &["x", "y"], 1, &dir);
    assert_eq!(compiled_modules(&report), ["x", "y"]);
    assert_eq!(
        artifact_bytes(&dir),
        cold,
        "the recompiles restore the store"
    );
}

#[test]
fn a_long_chain_rebuilds_from_a_small_stack() {
    const N: usize = 2_000;
    let mut sources = std::collections::BTreeMap::new();
    sources.insert(
        "c0".to_string(),
        "#lang lagoon\n(define (f0) 0)\n(provide f0)\n".to_string(),
    );
    for i in 1..N {
        sources.insert(
            format!("c{i}"),
            format!(
                "#lang lagoon\n(require c{})\n(define (f{i}) (+ 1 (f{}))) \n(provide f{i})\n",
                i - 1,
                i - 1
            ),
        );
    }
    let top = format!("c{}", N - 1);
    let dir = temp_store("long-chain");
    build_into(&sources, &[&top], 1, &dir);

    let store = dir.clone();
    let report = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || build_into(&sources, &[&top], 2, &store))
        .unwrap()
        .join()
        .expect("the rebuild must not overflow a 256 KiB stack");
    assert_eq!(report.modules.len(), N);
    assert!(compiled_modules(&report).is_empty());
    assert_eq!(report.cache_hits, N);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_broken_leaf_under_a_warm_chain_compiles_once() {
    // every importer's artifact still passes its header checks after
    // the leaf breaks, so each load reaches the leaf through its
    // recorded dependencies: the leaf's error must end the run after
    // one compile of the leaf, not one per importer on the path
    const N: usize = 12;
    const BROKEN: &str = "#lang lagoon\n(define (f0) 0\n(provide f0)\n";
    let dir = temp_store("broken-leaf");
    let lagoon = Lagoon::new();
    lagoon.set_cache_dir(Some(dir.clone()));
    lagoon.add_module("c0", "#lang lagoon\n(define (f0) 0)\n(provide f0)\n");
    for i in 1..N {
        let call = if i == N - 1 {
            format!("(f{i})\n")
        } else {
            String::new()
        };
        lagoon.add_module(
            &format!("c{i}"),
            &format!(
                "#lang lagoon\n(require c{p})\n(define (f{i}) (+ 1 (f{p})))\n(provide f{i})\n{call}",
                p = i - 1
            ),
        );
    }
    let top = format!("c{}", N - 1);
    assert_eq!(
        lagoon.run(&top, EngineKind::Vm).unwrap().to_string(),
        (N - 1).to_string()
    );

    let alone = Lagoon::new();
    alone.add_module("c0", BROKEN);
    let expected = alone.run("c0", EngineKind::Vm).unwrap_err().to_string();
    lagoon.add_module("c0", BROKEN);
    lagoon.registry().reset_compiled();
    let collector = lagoon::diag::Collector::install();
    let result = lagoon.run(&top, EngineKind::Vm);
    lagoon::diag::uninstall();
    assert_eq!(result.unwrap_err().to_string(), expected);
    let rows = collector.report().caches;
    let leaf: Vec<_> = rows.iter().filter(|r| r.module == "c0").collect();
    assert_eq!(leaf.len(), 1, "the leaf compiled more than once: {rows:?}");
    assert_eq!(leaf[0].status, "stale", "{}", leaf[0].detail);
    assert_eq!(
        rows.len(),
        1,
        "no importer reads stale or recompiles: {rows:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_recorded_dependency_that_names_no_module_reads_stale() {
    // a damaged artifact can record a dependency no module answers to:
    // the load reads stale and recompiles, rather than failing the run
    // with that name's "unknown module"
    let (lagoon, dir) = cached_world("unknown-dep");
    lagoon.run("main", EngineKind::Vm).unwrap();
    let path = dir.join("main.lagc");
    let written = std::fs::read(&path).unwrap();
    let artifact = lagoon_core::store::decode(&written, &|_, _| None).unwrap();
    let (env, src) = (artifact.header.env_digest, artifact.header.source_digest);
    let deps = [(lagoon::Symbol::intern("no-such-module"), 7)];
    let bytes = lagoon_core::store::encode(&artifact.into_compiled(), env, src, &deps).unwrap();
    std::fs::write(&path, bytes).unwrap();

    lagoon.registry().reset_compiled();
    let (v, report) = lagoon.run_with_stats("main", EngineKind::Vm).unwrap();
    assert_eq!(v.to_string(), "42");
    let main = report
        .caches
        .iter()
        .find(|r| r.module == "main")
        .unwrap_or_else(|| panic!("no cache row for main: {:?}", report.caches));
    assert_eq!(main.status, "stale");
    assert!(main.detail.contains("names no module"), "{}", main.detail);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        written,
        "the recompile rewrote main"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unregistered_recipe_passes_the_header_but_loads_as_corrupt() {
    let (lagoon, dir) = cached_world("unregistered-recipe");
    lagoon.run("main", EngineKind::Vm).unwrap();
    let path = dir.join("util.lagc");
    let written = std::fs::read(&path).unwrap();

    // rename util's typed-export recipe tag to one no rehydrator serves,
    // then re-frame the body so the content digest still holds
    let mut r = lagoon_syntax::WireReader::new(&written);
    let magic = r.raw(4).unwrap();
    let version = r.u32().unwrap();
    r.uint().unwrap();
    let mut body = r.raw(r.remaining()).unwrap().to_vec();
    let tag = b"typed-export-indirection";
    let at = body
        .windows(tag.len())
        .position(|w| w == tag)
        .expect("util exports a typed indirection");
    body[at + tag.len() - 1] = b'X';
    let mut framed = lagoon_syntax::WireWriter::new();
    framed.raw(magic);
    framed.u32(version);
    framed.uint(lagoon_syntax::fnv1a(&body));
    framed.raw(&body);
    let crafted = framed.into_bytes();
    assert!(lagoon_core::store::decode_header(&crafted).is_ok());
    std::fs::write(&path, &crafted).unwrap();

    lagoon.registry().reset_compiled();
    let (v, report) = lagoon.run_with_stats("main", EngineKind::Vm).unwrap();
    assert_eq!(v.to_string(), "42");
    let util = report
        .caches
        .iter()
        .find(|r| r.module == "util")
        .unwrap_or_else(|| panic!("no cache row for util: {:?}", report.caches));
    assert_eq!(util.status, "corrupt");
    assert!(util.detail.contains("no rehydrator"), "{}", util.detail);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        written,
        "the recompile rewrote util"
    );
}
