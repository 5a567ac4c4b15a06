//! The `lagoon` command-line tool. Run it with no arguments for the
//! usage, which is printed from the same specs the arguments are read
//! against ([`lagoon::server::cli`]): options may come before, between
//! or after the positionals, and an unknown, valueless, repeated or
//! misplaced one exits 2 before anything runs.
//!
//! - `lagoon run <file.lag>` runs a program (required modules resolve
//!   lazily to sibling `<name>.lag` files at compile time). `--stats`
//!   prints phase timings, the optimizer decision log and opcode
//!   counters (marking instructions with folded operands or branch
//!   targets as fused), with `--json` machine-readably; a failed run
//!   still prints its report (its exhausted budget as a limits row).
//!   Compiled modules persist as `.lagc` artifacts under
//!   `<dir>/compiled` (or `--cache-dir`) and are reused while fresh;
//!   `--no-cache` disables this. `--trace`, which `--stats` excludes,
//!   writes a Chrome trace-event JSON file (load it in Perfetto or
//!   chrome://tracing) of nested phase spans with source attribution,
//!   plus a VM sampling profile.
//! - `lagoon expand <file.lag>` prints the fully-expanded core forms
//!   (`--timings` adds the phase timings); `lagoon repl` is an
//!   interactive prompt.
//! - `lagoon build <entry.lag>...` compiles a module graph in parallel:
//!   the graph follows top-level `(require ...)` forms (read from each
//!   artifact header that matches its source) and is scheduled as a
//!   wavefront over `--jobs N` workers sharing one `.lagc` store. N
//!   defaults to the host's available cores (a warning is printed when
//!   N oversubscribes them). Deterministic freshening makes `--jobs N`
//!   output byte-identical to `--jobs 1`. `--trace` writes one Chrome
//!   trace track per worker.
//! - `lagoon serve` is the evaluation daemon over HTTP/1.1: `POST
//!   /v1/run|expand|check`, `GET /v1/stats`, a bounded queue with
//!   backpressure, per-request limits and a body-size cap, graceful
//!   drain on SIGTERM or `POST /v1/shutdown`.
//! - `lagoon gateway` routes over N daemon shards (spawned `lagoon
//!   serve` processes sharing one `.lagc` store): the daemon's routes
//!   plus `GET /v1/healthz`, keep-alive and pipelining,
//!   least-outstanding routing with shed-aware failover, dead shards
//!   respawned in place.
//! - `lagoon remote` is the client for a running daemon or gateway;
//!   `--repeat` sends the request N times over one persistent
//!   connection.
//!
//! The limit options are resource budgets, so runaway programs become
//! diagnostics; `lagoon_diag::limits::SETTINGS` lists them.

use lagoon::diag::json::{self, obj, Json};
use lagoon::diag::trace::Trace;
use lagoon::server::cli::{self, Parsed, Spec};
use lagoon::server::daemon::SERVE;
use lagoon::server::ServeOptions;
use lagoon::{diag, EngineKind, Lagoon, Limits, Outcome, Step};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const RUN: Spec = Spec {
    name: "run",
    positionals: &["<file.lag>"],
    values: &["--cache-dir <dir>", "--trace <out.json>"],
    switches: &["--interp", "--stats", "--json", "--no-cache"],
    budgets: true,
};

const EXPAND: Spec = Spec {
    name: "expand",
    positionals: &["<file.lag>"],
    values: &[],
    switches: &["--timings"],
    budgets: false,
};

const REPL: Spec = Spec {
    name: "repl",
    positionals: &[],
    values: &[],
    switches: &["--typed"],
    budgets: false,
};

const BUILD: Spec = Spec {
    name: "build",
    positionals: &["<entry.lag>..."],
    values: &["--jobs N", "--cache-dir <dir>", "--trace <out.json>"],
    switches: &["--stats", "--json"],
    budgets: true,
};

/// The daemon's options, `--workers-per-shard` for `--workers`, plus
/// the shard count; the gateway passes them on to every shard.
const GATEWAY: Spec = Spec {
    name: "gateway",
    positionals: &[],
    values: &[
        "--addr HOST:PORT",
        "--shards N",
        "--workers-per-shard M",
        "--queue-cap N",
        "--root <dir>",
        "--cache-dir <dir>",
        "--max-request-bytes B",
    ],
    switches: &["--test-ops"],
    budgets: true,
};

const REMOTE: Spec = Spec {
    name: "remote",
    positionals: &["<run|expand|check|stats|shutdown>", "[<file.lag>]"],
    values: &[
        "--addr HOST:PORT",
        "--repeat N",
        "--retries N",
        "--backoff-ms B",
    ],
    switches: &["--json"],
    budgets: true,
};

/// Why a subcommand stopped early.
enum Stop {
    /// A usage error, found before anything ran: exit 2 with the usage.
    /// Every error of a parse converts to one.
    Usage(String),
    /// A failure with nothing more to show than its reason: exit 1.
    Fail(String),
}

impl From<String> for Stop {
    fn from(reason: String) -> Stop {
        Stop::Usage(reason)
    }
}

type Command = fn(&Parsed) -> Result<ExitCode, Stop>;

const COMMANDS: [(&Spec, Command); 7] = [
    (&RUN, run_cmd),
    (&EXPAND, expand_cmd),
    (&REPL, repl_cmd),
    (&BUILD, build_cmd),
    (&SERVE, serve_cmd),
    (&GATEWAY, gateway_cmd),
    (&REMOTE, remote_cmd),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    let outcome = match COMMANDS.iter().find(|(spec, _)| spec.name == name) {
        Some((spec, command)) => cli::parse(spec, &args[1..])
            .map_err(Stop::Usage)
            .and_then(|parsed| command(&parsed)),
        None if name.is_empty() => Err(Stop::Usage("no command given".to_string())),
        None => Err(Stop::Usage(format!("unknown command '{name}'"))),
    };
    match outcome {
        Ok(code) => code,
        Err(Stop::Fail(reason)) => {
            eprintln!("{reason}");
            ExitCode::FAILURE
        }
        Err(Stop::Usage(reason)) => {
            let specs: Vec<&Spec> = COMMANDS.iter().map(|(spec, _)| *spec).collect();
            eprintln!("{reason}\n{}", cli::usage(&specs));
            ExitCode::from(2)
        }
    }
}

/// `lagoon build`: parallel wavefront compile of a module graph.
fn build_cmd(parsed: &Parsed) -> Result<ExitCode, Stop> {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = parsed.get("--jobs", host_cpus)?;
    let limits = parsed.limits(Limits::default())?;
    let first = Path::new(&parsed.positionals[0]);
    let root = first.parent().unwrap_or(Path::new(".")).to_path_buf();
    let mut names = Vec::new();
    for entry in &parsed.positionals {
        let path = Path::new(entry);
        if path.parent().unwrap_or(Path::new(".")) != root.as_path() {
            return Err(Stop::Usage(format!(
                "all entries must live in one directory: {entry}"
            )));
        }
        match path.file_stem().and_then(|s| s.to_str()) {
            Some(stem) if entry.ends_with(".lag") => names.push(stem.to_string()),
            _ => return Err(Stop::Usage(format!("not a <name>.lag file: {entry}"))),
        }
    }
    if jobs > host_cpus {
        eprintln!(
            "warning: --jobs {jobs} oversubscribes the host ({host_cpus} available \
             core{}); workers are CPU-bound, so extra threads only add contention",
            if host_cpus == 1 { "" } else { "s" }
        );
    }
    let cache_dir = parsed
        .value("--cache-dir")
        .map_or_else(|| root.join("compiled"), PathBuf::from);
    let trace_out = parsed.value("--trace").map(PathBuf::from);
    let opts = lagoon::server::BuildOptions {
        jobs,
        cache_dir: Some(cache_dir),
        limits,
        trace: trace_out.is_some(),
    };
    let report = lagoon::server::build(&names, lagoon::server::dir_source(root), &opts);
    if let Some(path) = &trace_out {
        write_trace(path, &report.traces, vec![])?;
    }
    if parsed.has("--json") {
        println!("{}", report.to_json());
    } else {
        let built: Vec<_> = report
            .modules
            .iter()
            .filter(|m| m.status == lagoon::server::ModuleStatus::Built)
            .collect();
        let compiled = built.iter().filter(|m| m.worker.is_some()).count();
        let up_to_date = built.len() - compiled;
        println!(
            "built {}/{} modules with {} jobs in {:.1} ms: {up_to_date} up to date, {compiled} compiled, {} more than once ({} store hits, {} misses, utilization {:.0}%)",
            built.len(),
            report.modules.len(),
            report.jobs,
            report.wall.as_secs_f64() * 1e3,
            report.recompiled,
            report.cache_hits,
            report.cache_misses,
            report.utilization() * 100.0,
        );
        for failure in report.failures() {
            match &failure.status {
                lagoon::server::ModuleStatus::Failed(e) => {
                    eprintln!("{}: {e}", failure.name);
                }
                lagoon::server::ModuleStatus::Skipped(why) => {
                    eprintln!("{}: skipped ({why})", failure.name);
                }
                lagoon::server::ModuleStatus::Built => {}
            }
        }
        if parsed.has("--stats") {
            print!("{}", report.diag.render_text());
        }
    }
    Ok(if report.success() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `lagoon serve`: the evaluation daemon.
fn serve_cmd(parsed: &Parsed) -> Result<ExitCode, Stop> {
    let opts = ServeOptions::from_args(parsed)?;
    lagoon::server::install_sigterm_handler();
    let server =
        lagoon::server::Server::start(opts).map_err(|e| Stop::Fail(format!("cannot bind: {e}")))?;
    println!("listening on {}", server.addr());
    let _ = std::io::stdout().flush();
    if parsed.has("--stats") {
        eprintln!("{}", server.wait_with_stats());
    } else {
        server.wait();
    }
    Ok(ExitCode::SUCCESS)
}

/// `lagoon gateway`: the HTTP/1.1 front end over a pool of spawned
/// `lagoon serve` shard processes sharing one compiled store.
fn gateway_cmd(parsed: &Parsed) -> Result<ExitCode, Stop> {
    // the options the gateway shares with its shards, under the
    // daemon's names and defaults
    let shard = ServeOptions::from_args(parsed)?;
    let shards = parsed.get("--shards", 2usize)?;
    let workers_per_shard = parsed.get("--workers-per-shard", 2usize)?;
    let exe = std::env::current_exe().map_err(|e| {
        Stop::Fail(format!(
            "cannot locate the lagoon binary for shard spawning: {e}"
        ))
    })?;
    let opts = lagoon::gateway::GatewayOptions {
        addr: shard.addr,
        shards,
        workers_per_shard,
        queue_cap: shard.queue_cap,
        backend: lagoon::gateway::shard::ShardBackend::Process {
            cmd: vec![exe.display().to_string()],
        },
        cache_dir: shard.cache_dir,
        source_root: shard.source_root,
        limits: shard.limits,
        max_body_bytes: shard.max_request_bytes,
        request_timeout: Some(std::time::Duration::from_secs(60)),
        test_ops: shard.test_ops,
    };
    lagoon::server::install_sigterm_handler();
    let gateway = lagoon::gateway::Gateway::start(opts)
        .map_err(|e| Stop::Fail(format!("cannot start gateway: {e}")))?;
    println!(
        "gateway listening on {} ({shards} shard{} x {workers_per_shard} worker{})",
        gateway.addr(),
        if shards == 1 { "" } else { "s" },
        if workers_per_shard == 1 { "" } else { "s" },
    );
    let _ = std::io::stdout().flush();
    gateway.wait();
    Ok(ExitCode::SUCCESS)
}

/// `lagoon remote`: one request (or `--repeat N`) against a running
/// daemon or gateway, carrying only the budgets given.
fn remote_cmd(parsed: &Parsed) -> Result<ExitCode, Stop> {
    let addr = parsed
        .value("--addr")
        .ok_or_else(|| Stop::Usage("remote needs --addr HOST:PORT".to_string()))?;
    let retries = parsed.get("--retries", 3u32)?;
    let backoff_ms = parsed.get("--backoff-ms", 25u64)?;
    let repeat = parsed.get("--repeat", 1u64)?;
    let wire = parsed
        .budgets()?
        .into_iter()
        .map(|(s, v)| (s.key, v))
        .collect();
    let op = parsed.positionals[0].as_str();
    let (method, body) = match (op, parsed.positionals.get(1)) {
        ("stats", None) => ("GET", String::new()),
        ("shutdown", None) => ("POST", "{}".to_string()),
        ("run" | "expand" | "check", Some(file)) => {
            let source = std::fs::read_to_string(file)
                .map_err(|e| Stop::Fail(format!("cannot read {file}: {e}")))?;
            (
                "POST",
                lagoon::server::client::inline_request(&source, wire),
            )
        }
        _ => {
            let usage = "remote takes run|expand|check <file.lag>, or stats|shutdown";
            return Err(Stop::Usage(usage.to_string()));
        }
    };
    let policy = lagoon::server::client::RetryPolicy {
        attempts: retries.saturating_add(1),
        base: std::time::Duration::from_millis(backoff_ms.max(1)),
        // seed from the pid so concurrent clients jitter differently
        seed: 0x5EED ^ u64::from(std::process::id()),
        ..Default::default()
    };
    // One persistent connection for the whole batch, reconnecting only
    // on transport failure, honoring shed retry-after hints.
    let outcome = lagoon::server::client::repeat_request(
        addr,
        method,
        &format!("/v1/{op}"),
        body.as_bytes(),
        repeat,
        Some(std::time::Duration::from_secs(60)),
        &policy,
    )
    .map_err(|e| Stop::Fail(format!("request failed: {e}")))?;
    if parsed.has("--json") {
        for response in &outcome.responses {
            println!("{response}");
        }
    } else if repeat > 1 {
        println!(
            "{} ok, {} error{} over {repeat} requests in {:.1} ms \
             ({} retries, {} reconnects)",
            outcome.ok,
            outcome.errors,
            if outcome.errors == 1 { "" } else { "s" },
            outcome.wall.as_secs_f64() * 1e3,
            outcome.retries,
            outcome.reconnects,
        );
    } else {
        print_response(outcome.responses.first().map_or("", String::as_str));
    }
    Ok(if outcome.errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Prints one response body for a person: a run's output and value, an
/// error's message on stderr, anything else as the body itself.
fn print_response(response: &str) {
    let Ok(parsed) = json::parse(response) else {
        println!("{response}");
        return;
    };
    if parsed.get("ok").and_then(Json::as_bool) != Some(true) {
        let msg = parsed
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("unknown error");
        eprintln!("{msg}");
    } else if let Some(v) = parsed.get("value").and_then(Json::as_str) {
        if let Some(out) = parsed.get("output").and_then(Json::as_str) {
            print!("{out}");
        }
        println!("{v}");
    } else {
        println!("{response}");
    }
}

/// Registers `file` as the main module and installs a lazy loader that
/// resolves any module `require`d during compilation — including requires
/// a macro generates mid-expansion, which no pre-scan of the source text
/// could have seen — to a sibling `<name>.lag` file.
fn setup_program(lagoon: &Lagoon, file: &Path) -> Result<String, String> {
    let main_name = file
        .file_stem()
        .and_then(|s| s.to_str())
        .ok_or_else(|| format!("bad file name: {}", file.display()))?
        .to_string();
    let source = std::fs::read_to_string(file)
        .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    lagoon.add_module(&main_name, &source);
    let dir = file.parent().unwrap_or(Path::new(".")).to_path_buf();
    let source = lagoon::server::dir_source(dir);
    lagoon.set_module_loader(move |name| source(name));
    Ok(main_name)
}

/// Writes `tracks` as a Chrome trace-event JSON file, with `extra`
/// top-level fields, and says where it went.
fn write_trace(
    path: &Path,
    tracks: &[(String, Trace)],
    extra: Vec<(&str, Json)>,
) -> Result<(), Stop> {
    let json = diag::trace::chrome_trace_json(tracks, extra);
    std::fs::write(path, json.to_string())
        .map_err(|e| Stop::Fail(format!("cannot write trace {}: {e}", path.display())))?;
    eprintln!("trace written to {}", path.display());
    Ok(())
}

/// `lagoon run`: runs the program in a fresh world through the one
/// request path, then prints the value or the error and one view of the
/// run's record:
/// - `--trace <out.json>`: the record's spans plus the VM sampling
///   profile, written as a Chrome trace-event JSON file loadable in
///   Perfetto or chrome://tracing;
/// - or `--stats`: the diagnostics report, also when the run fails,
///   as one JSON object with `--json`.
///
/// Only `--stats` counts opcodes, which would skew a trace's `run` span,
/// so the two views exclude each other and a traced run times the
/// uncounted loop.
fn run_cmd(parsed: &Parsed) -> Result<ExitCode, Stop> {
    if parsed.has("--json") && !parsed.has("--stats") {
        return Err(Stop::Usage("run --json needs --stats".to_string()));
    }
    if parsed.has("--stats") && parsed.has("--trace") {
        let reason = "run takes --stats or --trace, not both: counting opcodes skews the trace";
        return Err(Stop::Usage(reason.to_string()));
    }
    let file = Path::new(&parsed.positionals[0]);
    let engine = if parsed.has("--interp") {
        EngineKind::Interp
    } else {
        EngineKind::Vm
    };
    let trace = parsed.value("--trace").map(PathBuf::from);
    let stats = parsed.has("--stats");
    let limits = parsed.limits(Limits::default())?;
    let lagoon = Lagoon::new();
    lagoon.set_limits(limits);
    lagoon.set_cache_dir(
        (!parsed.has("--no-cache")).then(|| match parsed.value("--cache-dir") {
            Some(dir) => PathBuf::from(dir),
            None => file.parent().unwrap_or(Path::new(".")).join("compiled"),
        }),
    );
    let main = setup_program(&lagoon, file).map_err(Stop::Fail)?;
    let collector = (trace.is_some() || stats).then(diag::Collector::install);
    let step = Step::Run {
        engine,
        count_opcodes: stats,
    };
    let result = lagoon
        .registry()
        .request(&main, step)
        .map(Outcome::into_value);
    diag::uninstall();
    if let Err(e) = &result {
        eprintln!("{e}");
    }
    let print_value = || {
        if let Ok(v) = &result {
            if !v.is_void() {
                println!("{}", v.write_string());
            }
        }
    };
    match (trace, collector) {
        (Some(out), Some(collector)) => {
            let trace = collector.trace();
            let profile = trace.profile_json();
            write_trace(
                &out,
                &[("main".to_string(), trace)],
                vec![("vmProfile", profile)],
            )?;
            print_value();
        }
        (None, Some(collector)) if parsed.has("--json") => {
            let (key, text) = match &result {
                Ok(v) => ("result", v.write_string()),
                Err(e) => ("error", e.to_string()),
            };
            let report = collector.report().to_json();
            println!("{}", obj(vec![(key, Json::Str(text)), ("report", report)]));
        }
        (None, Some(collector)) => {
            print_value();
            print!("{}", collector.report().render_text());
        }
        _ => print_value(),
    }
    Ok(if result.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `lagoon expand`: the fully-expanded core forms.
fn expand_cmd(parsed: &Parsed) -> Result<ExitCode, Stop> {
    // no compiled store here: an artifact carries no expansion, so a
    // loaded module would be expanded from its source again anyway
    let lagoon = Lagoon::new();
    let main = setup_program(&lagoon, Path::new(&parsed.positionals[0])).map_err(Stop::Fail)?;
    let result = if parsed.has("--timings") {
        lagoon.expand_with_stats(&main).map(|(forms, report)| {
            for form in forms {
                println!("{}", form.to_datum());
            }
            print!("{}", report.render_phases());
        })
    } else {
        lagoon.expanded(&main).map(|forms| {
            for form in forms {
                println!("{}", form.to_datum());
            }
        })
    };
    result.map_err(|e| Stop::Fail(e.to_string()))?;
    Ok(ExitCode::SUCCESS)
}

/// `lagoon repl`: a simple accumulating REPL. Every input line is
/// appended to a module body which is recompiled and rerun, and the
/// value of the latest expression is printed.
fn repl_cmd(parsed: &Parsed) -> Result<ExitCode, Stop> {
    let lang = if parsed.has("--typed") {
        "typed/lagoon"
    } else {
        "lagoon"
    };
    println!("lagoon repl (#lang {lang}) — ctrl-d to exit");
    let stdin = std::io::stdin();
    let mut history: Vec<String> = Vec::new();
    let mut generation = 0usize;
    loop {
        print!("> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => return Ok(ExitCode::SUCCESS),
            Ok(_) => {}
            Err(e) => return Err(Stop::Fail(e.to_string())),
        }
        if line.trim().is_empty() {
            continue;
        }
        let lagoon = Lagoon::new();
        generation += 1;
        let module = format!("repl-{generation}");
        let mut body = history.join("\n");
        body.push('\n');
        body.push_str(&line);
        lagoon.add_module(&module, &format!("#lang {lang}\n{body}\n"));
        match lagoon.run(&module, EngineKind::Vm) {
            Ok(v) => {
                history.push(line.trim_end().to_string());
                if !v.is_void() {
                    println!("{}", v.write_string());
                }
            }
            Err(e) => eprintln!("{e}"),
        }
    }
}
