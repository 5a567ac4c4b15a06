//! The `lagoon` command-line tool.
//!
//! ```text
//! lagoon run <file.lag> [--interp] [--stats [--json]] [--no-cache]
//!            [--cache-dir <dir>] [--trace <out.json>] [limit options]
//!                                      run a program (required modules
//!                                      resolve lazily to sibling
//!                                      <name>.lag files at compile time);
//!                                      --stats prints phase timings, the
//!                                      optimizer decision log, and opcode
//!                                      counters (marking instructions
//!                                      with folded operands or branch
//!                                      targets as fused), --json
//!                                      machine-readably.
//!                                      Compiled modules persist as .lagc
//!                                      artifacts under <dir>/compiled (or
//!                                      --cache-dir) and are reused while
//!                                      fresh; --no-cache disables this.
//!                                      --trace writes a Chrome trace-event
//!                                      JSON file (load it in Perfetto or
//!                                      chrome://tracing) of nested phase
//!                                      spans with source attribution, plus
//!                                      a VM sampling profile.
//! lagoon expand <file.lag> [--timings] print the fully-expanded core forms
//! lagoon repl [--typed]                interactive prompt
//!
//! lagoon build <entry.lag>... [--jobs N] [--cache-dir <dir>]
//!              [--stats [--json]] [--trace <out.json>] [limit options]
//!                                      compile a module graph in parallel:
//!                                      the graph is scanned from top-level
//!                                      (require ...) forms and scheduled as
//!                                      a wavefront over N workers sharing
//!                                      one .lagc store. N defaults to the
//!                                      host's available cores (a warning is
//!                                      printed when N oversubscribes them).
//!                                      Deterministic freshening makes
//!                                      --jobs N output byte-identical to
//!                                      --jobs 1. --trace writes one Chrome
//!                                      trace track per worker.
//! lagoon serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!              [--root <dir>] [--cache-dir <dir>]
//!              [--max-request-bytes B] [limit options]
//!                                      evaluation daemon over HTTP/1.1:
//!                                      POST /v1/run|expand|check, GET
//!                                      /v1/stats, bounded queue with
//!                                      backpressure, per-request limits
//!                                      and body-size cap, graceful drain
//!                                      on SIGTERM or POST /v1/shutdown.
//! lagoon gateway [--addr HOST:PORT] [--shards N] [--workers-per-shard M]
//!              [--queue-cap N] [--root <dir>] [--cache-dir <dir>]
//!              [--max-request-bytes B] [limit options]
//!                                      router over N daemon shards
//!                                      (spawned `lagoon serve` processes
//!                                      sharing one .lagc store): the
//!                                      daemon's routes plus GET
//!                                      /v1/healthz, keep-alive and
//!                                      pipelining, least-outstanding
//!                                      routing with shed-aware failover,
//!                                      dead shards respawned in place.
//! lagoon remote --addr HOST:PORT <run|expand|check> <file.lag> [--json]
//!              [--repeat N] [limit options]
//! lagoon remote --addr HOST:PORT <stats|shutdown> [--json]
//!                                      client for a running daemon or
//!                                      gateway; --repeat sends the request
//!                                      N times over one persistent
//!                                      connection.
//!
//! limit options (resource budgets; runaway programs become diagnostics):
//!   --max-steps <n>          run-time VM/interpreter steps
//!   --max-expand-steps <n>   macro-expansion steps
//!   --max-expand-depth <n>   expansion nesting depth
//!   --max-phase1-steps <n>   compile-time (phase-1) evaluation steps
//!   --max-stack-depth <n>    call-frame depth
//!   --timeout-ms <n>         wall-clock deadline in milliseconds
//! ```

use lagoon::{EngineKind, Lagoon, Limits};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  lagoon run <file.lag> [--interp] [--stats [--json]] [--no-cache] [--cache-dir <dir>] [--trace <out.json>] [limit options]\n  lagoon expand <file.lag> [--timings]\n  lagoon repl [--typed]\n  lagoon build <entry.lag>... [--jobs N] [--cache-dir <dir>] [--stats [--json]] [--trace <out.json>] [limit options]\n  lagoon serve [--addr HOST:PORT] [--workers N] [--queue-cap N] [--recycle-after N] [--root <dir>] [--cache-dir <dir>] [--max-request-bytes B] [limit options]\n  lagoon gateway [--addr HOST:PORT] [--shards N] [--workers-per-shard M] [--queue-cap N] [--root <dir>] [--cache-dir <dir>] [--max-request-bytes B] [limit options]\n  lagoon remote --addr HOST:PORT <run|expand|check|stats|shutdown> [<file.lag>] [--json] [--repeat N] [--retries N] [--backoff-ms B] [limit options]\n\nlimit options:\n  --max-steps <n>  --max-expand-steps <n>  --max-expand-depth <n>\n  --max-phase1-steps <n>  --max-stack-depth <n>  --timeout-ms <n>"
    );
    ExitCode::from(2)
}

/// The value after a `--flag value` pair, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == flag)
        .map(|w| w[1].as_str())
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{flag}: bad value '{v}'")),
    }
}

/// Parses the `--max-*`/`--timeout-ms` flags into a [`Limits`] over the
/// defaults. `Ok(None)` means no flag was given.
fn parse_limits(args: &[String]) -> Result<Option<Limits>, String> {
    let mut limits = Limits::default();
    let mut any = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let slot: &mut u64 = match arg.as_str() {
            "--max-steps" => &mut limits.max_vm_steps,
            "--max-expand-steps" => &mut limits.max_expansion_steps,
            "--max-expand-depth" => &mut limits.max_expansion_depth,
            "--max-phase1-steps" => &mut limits.max_phase1_steps,
            "--max-stack-depth" => &mut limits.max_stack_depth,
            "--timeout-ms" => {
                let v = iter
                    .next()
                    .ok_or_else(|| format!("{arg} needs a value"))?
                    .parse::<u64>()
                    .map_err(|e| format!("{arg}: {e}"))?;
                limits.timeout = Some(std::time::Duration::from_millis(v));
                any = true;
                continue;
            }
            _ => continue,
        };
        *slot = iter
            .next()
            .ok_or_else(|| format!("{arg} needs a value"))?
            .parse::<u64>()
            .map_err(|e| format!("{arg}: {e}"))?;
        any = true;
    }
    Ok(if any { Some(limits) } else { None })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let Some(file) = args.get(1) else {
                return usage();
            };
            let engine = if args.iter().any(|a| a == "--interp") {
                EngineKind::Interp
            } else {
                EngineKind::Vm
            };
            let stats = args.iter().any(|a| a == "--stats");
            let json = args.iter().any(|a| a == "--json");
            let limits = match parse_limits(&args) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let file = Path::new(file);
            let cache_dir =
                if args.iter().any(|a| a == "--no-cache") {
                    None
                } else {
                    let explicit = args
                        .windows(2)
                        .find(|w| w[0] == "--cache-dir")
                        .map(|w| PathBuf::from(&w[1]));
                    Some(explicit.unwrap_or_else(|| {
                        file.parent().unwrap_or(Path::new(".")).join("compiled")
                    }))
                };
            if let Some(trace_out) = flag_value(&args, "--trace") {
                run_file_traced(file, engine, Path::new(trace_out), limits, cache_dir)
            } else if stats {
                run_file_with_stats(file, engine, json, limits, cache_dir)
            } else {
                run_file(file, engine, limits, cache_dir)
            }
        }
        Some("expand") => {
            let Some(file) = args.get(1) else {
                return usage();
            };
            expand_file(Path::new(file), args.iter().any(|a| a == "--timings"))
        }
        Some("repl") => repl(args.iter().any(|a| a == "--typed")),
        Some("build") => build_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("gateway") => gateway_cmd(&args[1..]),
        Some("remote") => remote_cmd(&args[1..]),
        _ => usage(),
    }
}

/// `lagoon build`: parallel wavefront compile of a module graph.
fn build_cmd(args: &[String]) -> ExitCode {
    let entries: Vec<&String> = args
        .iter()
        .filter(|a| a.ends_with(".lag") && !a.starts_with("--"))
        .collect();
    if entries.is_empty() {
        return usage();
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = match parse_flag(args, "--jobs", host_cpus) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if jobs > host_cpus {
        eprintln!(
            "warning: --jobs {jobs} oversubscribes the host ({host_cpus} available \
             core{}); workers are CPU-bound, so extra threads only add contention",
            if host_cpus == 1 { "" } else { "s" }
        );
    }
    let limits = match parse_limits(args) {
        Ok(l) => l.unwrap_or_default(),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let first = Path::new(entries[0]);
    let root = first.parent().unwrap_or(Path::new(".")).to_path_buf();
    let cache_dir = flag_value(args, "--cache-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("compiled"));
    let mut names = Vec::new();
    for entry in &entries {
        let path = Path::new(entry);
        if path.parent().unwrap_or(Path::new(".")) != root.as_path() {
            eprintln!("all entries must live in one directory: {entry}");
            return ExitCode::from(2);
        }
        match path.file_stem().and_then(|s| s.to_str()) {
            Some(stem) => names.push(stem.to_string()),
            None => {
                eprintln!("bad file name: {entry}");
                return ExitCode::from(2);
            }
        }
    }
    let trace_out = flag_value(args, "--trace").map(PathBuf::from);
    let opts = lagoon::server::BuildOptions {
        jobs,
        cache_dir: Some(cache_dir),
        limits,
        trace: trace_out.is_some(),
    };
    let report = lagoon::server::build(&names, lagoon::server::dir_source(root), &opts);
    if let Some(path) = &trace_out {
        let json = lagoon::diag::trace::chrome_trace_json(&report.traces, &[]);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write trace {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("trace written to {}", path.display());
    }
    if args.iter().any(|a| a == "--json") {
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
            "built {}/{} modules with {} jobs in {:.1} ms: {up_to_date} up to date, {compiled} compiled ({} store hits, {} misses, utilization {:.0}%)",
            built.len(),
            report.modules.len(),
            report.jobs,
            report.wall.as_secs_f64() * 1e3,
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
        if args.iter().any(|a| a == "--stats") {
            print!("{}", report.diag.render_text());
        }
    }
    if report.success() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `lagoon serve`: the evaluation daemon.
fn serve_cmd(args: &[String]) -> ExitCode {
    let limits = match parse_limits(args) {
        Ok(l) => l.unwrap_or_default(),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let workers = match parse_flag(args, "--workers", 2usize) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let queue_cap = match parse_flag(args, "--queue-cap", 64usize) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let recycle_after = match parse_flag(args, "--recycle-after", 0usize) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let max_request_bytes = match parse_flag(
        args,
        "--max-request-bytes",
        lagoon::server::daemon::DEFAULT_MAX_REQUEST_BYTES,
    ) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let opts = lagoon::server::ServeOptions {
        addr: flag_value(args, "--addr")
            .unwrap_or("127.0.0.1:0")
            .to_string(),
        workers,
        queue_cap,
        cache_dir: flag_value(args, "--cache-dir").map(PathBuf::from),
        source_root: flag_value(args, "--root").map(PathBuf::from),
        limits,
        recycle_after,
        // Undocumented: enables the fault-injection ops ("test-panic",
        // "test-kill") the supervision tests drive.
        test_ops: args.iter().any(|a| a == "--test-ops"),
        max_request_bytes,
    };
    lagoon::server::install_sigterm_handler();
    let server = match lagoon::server::Server::start(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.addr());
    let _ = std::io::stdout().flush();
    if args.iter().any(|a| a == "--stats") {
        eprintln!("{}", server.wait_with_stats());
    } else {
        server.wait();
    }
    ExitCode::SUCCESS
}

/// `lagoon gateway`: the HTTP/1.1 front end over a pool of spawned
/// `lagoon serve` shard processes sharing one compiled store.
fn gateway_cmd(args: &[String]) -> ExitCode {
    let limits = match parse_limits(args) {
        Ok(l) => l.unwrap_or_default(),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let parsed: Result<(usize, usize, usize, usize), String> = (|| {
        Ok((
            parse_flag(args, "--shards", 2usize)?,
            parse_flag(args, "--workers-per-shard", 2usize)?,
            parse_flag(args, "--queue-cap", 64usize)?,
            parse_flag(args, "--max-request-bytes", 1usize << 20)?,
        ))
    })();
    let (shards, workers_per_shard, queue_cap, max_body_bytes) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate the lagoon binary for shard spawning: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut extra_shard_args = Vec::new();
    if let Some(n) = flag_value(args, "--recycle-after") {
        extra_shard_args.extend(["--recycle-after".to_string(), n.to_string()]);
    }
    let opts = lagoon::gateway::GatewayOptions {
        addr: flag_value(args, "--addr")
            .unwrap_or("127.0.0.1:0")
            .to_string(),
        shards,
        workers_per_shard,
        queue_cap,
        backend: lagoon::gateway::shard::ShardBackend::Process {
            cmd: vec![exe.display().to_string()],
        },
        cache_dir: flag_value(args, "--cache-dir").map(PathBuf::from),
        source_root: flag_value(args, "--root").map(PathBuf::from),
        limits,
        max_body_bytes,
        request_timeout: Some(std::time::Duration::from_secs(60)),
        test_ops: args.iter().any(|a| a == "--test-ops"),
        extra_shard_args,
    };
    lagoon::server::install_sigterm_handler();
    let gateway = match lagoon::gateway::Gateway::start(opts) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("cannot start gateway: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "gateway listening on {} ({shards} shard{} x {workers_per_shard} worker{})",
        gateway.addr(),
        if shards == 1 { "" } else { "s" },
        if workers_per_shard == 1 { "" } else { "s" },
    );
    let _ = std::io::stdout().flush();
    gateway.wait();
    ExitCode::SUCCESS
}

/// `lagoon remote`: one request (or `--repeat N`) against a running
/// daemon or gateway.
fn remote_cmd(args: &[String]) -> ExitCode {
    let Some(addr) = flag_value(args, "--addr") else {
        eprintln!("remote needs --addr HOST:PORT");
        return ExitCode::from(2);
    };
    let op = args.iter().find(|a| {
        matches!(
            a.as_str(),
            "run" | "expand" | "check" | "stats" | "shutdown"
        )
    });
    let Some(op) = op else {
        return usage();
    };
    let (method, body) = match op.as_str() {
        "stats" => ("GET", String::new()),
        "shutdown" => ("POST", "{}".to_string()),
        _ => {
            let Some(file) = args.iter().find(|a| a.ends_with(".lag")) else {
                eprintln!("remote {op} needs a <file.lag>");
                return ExitCode::from(2);
            };
            let source = match std::fs::read_to_string(file) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let limits = match parse_limits(args) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let mut wire = Vec::new();
            if let Some(l) = limits {
                wire = vec![
                    ("max_expansion_steps", l.max_expansion_steps),
                    ("max_expansion_depth", l.max_expansion_depth),
                    ("max_phase1_steps", l.max_phase1_steps),
                    ("max_vm_steps", l.max_vm_steps),
                    ("max_stack_depth", l.max_stack_depth),
                ];
                if let Some(t) = l.timeout {
                    wire.push(("timeout_ms", t.as_millis() as u64));
                }
            }
            (
                "POST",
                lagoon::server::client::inline_request(&source, wire),
            )
        }
    };
    let parsed: Result<(u32, u64, u64), String> = (|| {
        Ok((
            parse_flag(args, "--retries", 3u32)?,
            parse_flag(args, "--backoff-ms", 25u64)?,
            parse_flag(args, "--repeat", 1u64)?,
        ))
    })();
    let (retries, backoff_ms, repeat) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
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
    let outcome = match lagoon::server::client::repeat_request(
        addr,
        method,
        &format!("/v1/{op}"),
        body.as_bytes(),
        repeat,
        Some(std::time::Duration::from_secs(60)),
        &policy,
    ) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("request failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.iter().any(|a| a == "--json") {
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
    if outcome.errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints one response body for a person: a run's output and value, an
/// error's message on stderr, anything else as the body itself.
fn print_response(response: &str) {
    use lagoon::server::json::{self, Json};
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
    lagoon.set_module_loader(move |name| {
        // keep lookups inside the program's directory
        if name.is_empty() || name.contains(['/', '\\']) || name.contains("..") {
            return None;
        }
        std::fs::read_to_string(dir.join(format!("{name}.lag"))).ok()
    });
    Ok(main_name)
}

fn run_file(
    file: &Path,
    engine: EngineKind,
    limits: Option<Limits>,
    cache_dir: Option<PathBuf>,
) -> ExitCode {
    let lagoon = Lagoon::new();
    if let Some(limits) = limits {
        lagoon.set_limits(limits);
    }
    lagoon.set_cache_dir(cache_dir);
    let main = match setup_program(&lagoon, file) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match lagoon.run(&main, engine) {
        Ok(v) => {
            if !v.is_void() {
                println!("{}", v.write_string());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `lagoon run --trace out.json`: runs with a diagnostics recorder
/// installed, then writes its trace view — spans plus the VM sampling
/// profile — as a Chrome trace-event JSON file loadable in Perfetto or
/// chrome://tracing.
fn run_file_traced(
    file: &Path,
    engine: EngineKind,
    out_path: &Path,
    limits: Option<Limits>,
    cache_dir: Option<PathBuf>,
) -> ExitCode {
    let lagoon = Lagoon::new();
    if let Some(limits) = limits {
        lagoon.set_limits(limits);
    }
    lagoon.set_cache_dir(cache_dir);
    let main = match setup_program(&lagoon, file) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (result, trace) = lagoon.run_traced(&main, engine);
    let profile = trace.profile_json();
    let tracks = [("main".to_string(), trace)];
    let json = lagoon::diag::trace::chrome_trace_json(&tracks, &[("vmProfile", profile)]);
    if let Err(e) = std::fs::write(out_path, json) {
        eprintln!("cannot write trace {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("trace written to {}", out_path.display());
    match result {
        Ok(v) => {
            if !v.is_void() {
                println!("{}", v.write_string());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run_file_with_stats(
    file: &Path,
    engine: EngineKind,
    json: bool,
    limits: Option<Limits>,
    cache_dir: Option<PathBuf>,
) -> ExitCode {
    let lagoon = Lagoon::new();
    if let Some(limits) = limits {
        lagoon.set_limits(limits);
    }
    lagoon.set_cache_dir(cache_dir);
    let main = match setup_program(&lagoon, file) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match lagoon.run_with_stats(&main, engine) {
        Ok((v, report)) => {
            if json {
                println!(
                    "{{\"result\":{},\"report\":{}}}",
                    lagoon::diag::json_string(&v.write_string()),
                    report.to_json()
                );
            } else {
                if !v.is_void() {
                    println!("{}", v.write_string());
                }
                print!("{}", report.render_text());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn expand_file(file: &Path, timings: bool) -> ExitCode {
    // no compiled store here: `expand` exists to show the expansion,
    // which a cache hit would skip
    let lagoon = Lagoon::new();
    let main = match setup_program(&lagoon, file) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let result = if timings {
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
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// A simple accumulating REPL: every input line is appended to a module
/// body which is recompiled and rerun, and the value of the latest
/// expression is printed.
fn repl(typed: bool) -> ExitCode {
    let lang = if typed { "typed/lagoon" } else { "lagoon" };
    println!("lagoon repl (#lang {lang}) — ctrl-d to exit");
    let stdin = std::io::stdin();
    let mut history: Vec<String> = Vec::new();
    let mut generation = 0usize;
    loop {
        print!("> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => return ExitCode::SUCCESS,
            Ok(_) => {}
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
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
