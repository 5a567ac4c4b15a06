//! The `lagoon` command line: `run --stats` keeps its report when the
//! run fails, as text and as `--json`, and `build` spends its limits on
//! the modules it builds.

use lagoon::server::json::{self, Json};
use std::path::PathBuf;
use std::process::{Command, Output};

/// A typed loop that runs far past a 1000-step budget.
const LOOP: &str = "#lang typed/lagoon\n(: go : Integer Float -> Float)\n\
                    (define (go i acc) (if (= i 0) acc (go (- i 1) (+ acc 1.5))))\n\
                    (go 300000 0.0)\n";

/// Runs `lagoon run <file> --no-cache --max-steps 1000` plus `extra`.
fn run_over_budget(file: &PathBuf, extra: &[&str]) -> Output {
    let output = Command::new(env!("CARGO_BIN_EXE_lagoon"))
        .arg("run")
        .arg(file)
        .args(["--no-cache", "--max-steps", "1000"])
        .args(extra)
        .output()
        .expect("run lagoon");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("resource exhausted (vm-steps)"), "{stderr}");
    output
}

#[test]
fn stats_report_survives_a_failed_run() {
    let dir = std::env::temp_dir().join(format!("lagoon-cli-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let file = dir.join("spin.lag");
    std::fs::write(&file, LOOP).expect("write program");

    let text = run_over_budget(&file, &["--stats"]);
    let stdout = String::from_utf8_lossy(&text.stdout);
    assert!(stdout.contains("resource limits hit"), "{stdout}");
    assert!(stdout.contains("vm-steps"), "{stdout}");
    assert!(stdout.contains("opcode mix: 1000 executed"), "{stdout}");

    let as_json = run_over_budget(&file, &["--stats", "--json"]);
    let stdout = String::from_utf8_lossy(&as_json.stdout);
    let line = stdout.lines().last().expect("a report line");
    let parsed = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    assert!(parsed.get("result").is_none(), "{parsed}");
    let error = parsed.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("vm-steps"), "{parsed}");
    let report = parsed.get("report").expect("report");
    let Some(Json::Arr(limits)) = report.get("limits") else {
        panic!("no limits table: {parsed}");
    };
    assert_eq!(limits.len(), 1, "{parsed}");
    assert_eq!(
        limits[0].get("budget").and_then(Json::as_str),
        Some("vm-steps")
    );
    assert!(matches!(report.get("opcodes"), Some(Json::Arr(rows)) if !rows.is_empty()));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A module whose own expansion takes more than five steps.
const MACROS: &str = "#lang lagoon\n\
                      (define (f x)\n\
                        (cond [(< x 0) 'neg] [(= x 0) 'zero]\n\
                              [else (let* ([a 1] [b 2]) (and a b (or #f x)))]))\n\
                      (f 2)\n";

#[test]
fn build_limits_apply_to_the_modules_not_the_prelude() {
    // a worker that installed its limits before bootstrapping its world
    // exhausted them in the prelude, lost the entry from the report and
    // exited 0
    let dir = std::env::temp_dir().join(format!("lagoon-cli-build-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let file = dir.join("l4.lag");
    std::fs::write(&file, MACROS).expect("write module");
    let output = Command::new(env!("CARGO_BIN_EXE_lagoon"))
        .arg("build")
        .arg(&file)
        .args(["--max-expand-steps", "5", "--json", "--cache-dir"])
        .arg(dir.join("compiled"))
        .output()
        .expect("run lagoon");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().expect("a report line");
    let parsed = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    let Some(Json::Arr(modules)) = parsed.get("modules") else {
        panic!("no modules: {parsed}");
    };
    assert_eq!(modules.len(), 1, "{parsed}");
    let field = |key| modules[0].get(key).and_then(Json::as_str).unwrap_or("");
    assert_eq!(
        (field("name"), field("status")),
        ("l4", "failed"),
        "{parsed}"
    );
    assert!(
        field("detail").starts_with("resource exhausted (expansion-steps)"),
        "{parsed}"
    );

    // the default limits build it
    let output = Command::new(env!("CARGO_BIN_EXE_lagoon"))
        .arg("build")
        .arg(&file)
        .arg("--cache-dir")
        .arg(dir.join("compiled"))
        .output()
        .expect("run lagoon");
    assert_eq!(output.status.code(), Some(0), "{output:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
