//! The `lagoon` command line: `run --stats` keeps its report when the
//! run fails, as text and as `--json`, `build` spends its limits on
//! the modules it builds, options mean the same wherever they stand,
//! a bad one exits 2 before anything runs, and `remote` sends only the
//! budgets it is given.

use lagoon::diag::json::{self, Json};
use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

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

/// Runs `lagoon` with `args`, failing the test if it outlives `within`.
fn lagoon_within(args: &[&str], within: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lagoon"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run lagoon");
    let deadline = Instant::now() + within;
    while child.try_wait().expect("try_wait").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("lagoon {args:?} still running after {within:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("output")
}

fn lagoon(args: &[&str]) -> Output {
    lagoon_within(args, Duration::from_secs(60))
}

/// The exit code and output with every digit and blank dropped, so two
/// runs that differ only in their timings (and the padding of those
/// columns) compare equal.
fn shape(output: &Output) -> (Option<i32>, String, String) {
    let strip = |bytes: &[u8]| {
        String::from_utf8_lossy(bytes)
            .chars()
            .filter(|c| !c.is_ascii_digit() && !c.is_whitespace())
            .collect()
    };
    (
        output.status.code(),
        strip(&output.stdout),
        strip(&output.stderr),
    )
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lagoon-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn options_before_the_file_mean_what_they_mean_after_it() {
    let dir = scratch("order");
    // each `run --stats` runs cold in a directory of its own, so both
    // report the same store misses
    let [first, last] = ["first", "last"].map(|sub| {
        std::fs::create_dir_all(dir.join(sub)).expect("dir");
        let file = dir.join(sub).join("one.lag");
        std::fs::write(&file, "#lang lagoon\n(display 1)\n(+ 1 2)\n").expect("write");
        file.display().to_string()
    });
    for (before, after) in [
        (
            vec!["run", "--stats", &first],
            vec!["run", &last, "--stats"],
        ),
        (
            vec!["run", "--no-cache", &first],
            vec!["run", &last, "--no-cache"],
        ),
        (
            vec!["expand", "--timings", &first],
            vec!["expand", &last, "--timings"],
        ),
    ] {
        let (before_out, after_out) = (lagoon(&before), lagoon(&after));
        assert_eq!(
            before_out.status.code(),
            Some(0),
            "{before:?}: {before_out:?}"
        );
        assert_eq!(shape(&before_out), shape(&after_out), "{before:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_options_exit_2_before_anything_runs() {
    let dir = scratch("usage");
    let spin = dir.join("spin.lag");
    std::fs::write(&spin, "#lang lagoon\n(define (spin) (spin))\n(spin)\n").expect("write");
    let spin = spin.display().to_string();
    for (args, reason) in [
        (
            vec!["run", &spin, "--no-cache", "--max-step", "1000"],
            "run takes no option --max-step",
        ),
        (vec!["run", &spin, "--trace"], "--trace needs a value"),
        (
            vec!["run", &spin, "--cache-dir", "a", "--cache-dir", "b"],
            "--cache-dir given twice",
        ),
        (
            vec!["build", "a.lag", "--job", "1"],
            "build takes no option --job",
        ),
        (vec!["run", &spin, &spin], "run takes no argument"),
        // option pairs that would do nothing: `--json` formats only the
        // `--stats` report, and `--stats` counting would skew a trace
        (vec!["run", &spin, "--json"], "run --json needs --stats"),
        (
            vec!["run", &spin, "--stats", "--trace", "t.json"],
            "run takes --stats or --trace, not both",
        ),
    ] {
        let output = lagoon_within(&args, Duration::from_secs(10));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(reason), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn remote_sends_only_the_budgets_given() {
    use lagoon::server::http::{read_body, read_head};
    let dir = scratch("remote");
    let file = dir.join("one.lag");
    std::fs::write(&file, "#lang lagoon\n(+ 1 2)\n").expect("write");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    listener.set_nonblocking(true).expect("nonblocking");
    let addr = listener.local_addr().expect("addr").to_string();
    let mut child = Command::new(env!("CARGO_BIN_EXE_lagoon"))
        .args(["remote", "--addr", &addr, "run"])
        .arg(&file)
        .args(["--max-steps", "10", "--retries", "0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("run lagoon remote");
    let deadline = Instant::now() + Duration::from_secs(30);
    let stream = loop {
        match listener.accept() {
            Ok((stream, _)) => break stream,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => {
                let _ = child.kill();
                panic!("lagoon remote never connected: {e}");
            }
        }
    };
    stream.set_nonblocking(false).expect("blocking");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let head = read_head(&mut reader).expect("request head");
    let body = read_body(&mut reader, &head, 1 << 20).expect("request body");
    let reply = r#"{"ok":true,"value":"3","output":""}"#;
    write!(
        &stream,
        "HTTP/1.1 200 OK\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{reply}",
        reply.len()
    )
    .expect("reply");
    let output = child.wait_with_output().expect("remote output");
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    assert_eq!(String::from_utf8_lossy(&output.stdout), "3\n");
    let request = json::parse(std::str::from_utf8(&body).expect("utf8")).expect("json body");
    let limits = request.get("limits").map(Json::to_string);
    assert_eq!(
        limits.as_deref(),
        Some(r#"{"max_vm_steps":10}"#),
        "{request}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
