//! The Lagoon benchmark: one seeded command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path lagbench/Cargo.toml -- \
//!     --workload paper-figs|cold-build|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics,
//! and the benchmark's spans are written to `.bench_out/`. See README.md.

mod build;
mod calib;
mod figs;
mod gen;
mod host;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use host::{Host, WorkDir};
use report::{metrics_line, Outcome};
use trace::Tracer;

/// Everything a workload needs to know about this run.
///
/// `seconds` sets the amount of measured work, not a deadline: a
/// workload does as many rounds as fit in `seconds` on the reference
/// host, so a faster or slower program, or host, does the same work.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub work: PathBuf,
    pub host: Host,
    /// How many times set-up is repeated; `setup_s` is their median.
    pub setup_reps: usize,
    /// Tiny inputs, for the smoke tests.
    pub small: bool,
}

impl Run {
    /// Rounds of `round_s` reference seconds that fill `seconds` (at
    /// least two).
    pub fn rounds(&self, round_s: f64) -> usize {
        ((self.seconds / round_s).round() as usize).max(2)
    }
}

pub const WORKLOADS: [&str; 3] = ["paper-figs", "cold-build", "serve-mixed"];

/// End-to-end metrics, reported by every workload: name, unit, and
/// whether lower or higher is better. An operation is one program run
/// (`paper-figs`), one whole build (`cold-build`) or one served request
/// at the moderate rate (`serve-mixed`); its cost is CPU time at nominal
/// host speed (see [`host::thread_cpu_s`] and [`calib`] for why).
pub const END_TO_END: [(&str, &str, &str); 3] = [
    ("op_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics: name, unit, and whether lower or higher is better.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: &'static str| {
        out.push((name.to_string(), unit, better))
    };
    for c in figs::CONFIGS {
        add(&format!("run.{}_ms", figs::config_key(c)), "ms", "lower");
    }
    add("build.cold_ms", "ms", "lower");
    add("build.cold_par_ms", "ms", "lower");
    add("build.warm_ms", "ms", "lower");
    add("build.cold_sys_ms", "ms", "lower");
    add("serve.p50_ms", "ms", "lower");
    add("serve.p99_ms", "ms", "lower");
    add("serve.capacity_rps", "1/s", "higher");
    for b in lagoon_bench::all_benchmarks() {
        for c in figs::CONFIGS {
            let name = format!("vm.run.{}.{}_ms", b.name, figs::config_key(c));
            add(&name, "ms", "lower");
        }
    }
    for c in figs::CONFIGS {
        add(&format!("vm.ops.{}", figs::config_key(c)), "count", "lower");
    }
    for (name, unit, better) in [
        ("vm.ops_generic", "count", "lower"),
        ("vm.ops_specialized", "count", "higher"),
        ("vm.ops_fused", "count", "higher"),
        ("vm.opt_over_vm", "ratio", "lower"),
        ("vm.opt_losses", "count", "lower"),
        ("optimizer.self_ms", "ms", "lower"),
        ("optimizer.rewrites", "count", "higher"),
        ("optimizer.near_misses", "count", "lower"),
        ("typed.check_ms", "ms", "lower"),
        ("syntax.read_ms", "ms", "lower"),
        ("syntax.read_mb_s", "MB/s", "higher"),
        ("core.expand_ms", "ms", "lower"),
        ("vm.compile_ms", "ms", "lower"),
        ("vm.peephole_fused", "count", "higher"),
        ("core.store.encode_ms", "ms", "lower"),
        ("core.store.decode_ms", "ms", "lower"),
        ("core.store.bytes", "bytes", "lower"),
        ("core.store.hit_share", "share", "higher"),
        ("server.build.utilization", "share", "higher"),
        ("server.build.cache_misses", "count", "lower"),
        ("server.daemon.rtt_ms.run_named", "ms", "lower"),
        ("server.daemon.rtt_ms.run_inline", "ms", "lower"),
        ("server.daemon.rtt_ms.expand", "ms", "lower"),
        ("server.daemon.rtt_ms.check", "ms", "lower"),
        ("server.utilization", "share", "lower"),
        ("server.queue.max_depth", "count", "lower"),
        ("server.cache.hit_share", "share", "higher"),
        ("gateway.http.parse_us", "us", "lower"),
        ("gateway.overhead_ms", "ms", "lower"),
        ("gateway.shed", "count", "lower"),
        ("gateway.errors", "count", "lower"),
        ("gen.late_ms", "ms", "lower"),
        ("bench.trace_overhead", "ratio", "lower"),
        ("bench.unattributed_ms", "ms", "lower"),
    ] {
        add(name, unit, better);
    }
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Runs one workload and returns the metrics line.
pub fn execute(workload: &str, run: &Run) -> Result<(Outcome, String), String> {
    let mut out = Outcome::default();
    match workload {
        "paper-figs" => figs::run(run, &mut out)?,
        "cold-build" => build::run(run, &mut out)?,
        "serve-mixed" => serve::run(run, &mut out)?,
        other => return Err(format!("unknown workload {other}")),
    }
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if run.tracer.enabled() {
        for (name, unit, _) in per_layer() {
            let value = out.layers.get(&name).copied().unwrap_or(0.0);
            metrics.push((name, value, unit));
        }
    } else {
        let values = [
            out.op_ms().ok_or("no timed operations")?,
            stats::median(&out.setup_s).ok_or("no set-up")?,
            host::peak_rss_mb().ok_or("peak RSS unavailable on this platform")?,
        ];
        for ((name, unit, _), value) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), value, unit));
        }
        out.note(format!("  {} timed operations", out.sample_count()));
    }
    let correct = out.failed == 0;
    let line = metrics_line(correct, out.attempted, out.failed, &metrics);
    Ok((out, line))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lagbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    let work = match WorkDir::create(&out_dir, &args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("lagbench: cannot create {}: {e}", out_dir.display());
            return ExitCode::FAILURE;
        }
    };
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        work: work.0.clone(),
        host: Host::probe(),
        setup_reps: 7,
        small: false,
    };
    let started = Instant::now();
    let (outcome, line) = match execute(&args.workload, &run) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("lagbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} trace {}: {:.1} s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        started.elapsed().as_secs_f64()
    );
    println!("{}", run.host.line());
    for note in &outcome.notes {
        println!("{note}");
    }
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }
    if args.trace {
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match run.tracer.write_jsonl(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("lagbench: cannot write {}: {e}", path.display()),
        }
    }
    println!(
        "ops attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/smoke");
        let work = WorkDir::create(&dir, &format!("{workload}-{trace}")).expect("work dir");
        let run = Run {
            seed: 5,
            seconds: 0.3,
            tracer: Tracer::new(trace),
            work: work.0.clone(),
            host: Host::probe(),
            setup_reps: 1,
            small: true,
        };
        let (out, line) = execute(workload, &run).expect("workload runs");
        assert_eq!(out.failed, 0, "{workload}: {:?}", out.failures);
        assert!(out.attempted > 0);
        assert!(line.starts_with("{\"correct\": true"), "{line}");
        let expected = if trace {
            per_layer().len()
        } else {
            END_TO_END.len()
        };
        assert_eq!(line.matches("\"unit\"").count(), expected, "{line}");
    }

    #[test]
    fn smoke_paper_figs() {
        smoke("paper-figs", false);
        smoke("paper-figs", true);
    }

    #[test]
    fn smoke_cold_build() {
        smoke("cold-build", false);
        smoke("cold-build", true);
    }

    #[test]
    fn smoke_serve_mixed() {
        smoke("serve-mixed", false);
        smoke("serve-mixed", true);
    }

    #[test]
    fn per_layer_names_are_unique_and_within_limits() {
        let names = per_layer();
        assert!(names.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for (name, _, _) in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(seen.insert(name.clone()), "duplicate {name}");
        }
    }

    /// BENCHMARK.json at the repository root declares exactly the metrics
    /// this program reports, in the same order, units and directions.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json");
        let json = lagoon_server::json::parse(&text).expect("valid JSON");
        let rows = |key: &str| -> Vec<(String, String, String)> {
            let Some(lagoon_server::json::Json::Arr(items)) = json.get(key) else {
                panic!("{key} is not an array");
            };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let end_to_end: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(rows("end_to_end"), end_to_end);
        let layers: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(rows("per_layer"), layers);
        let Some(lagoon_server::json::Json::Arr(workloads)) = json.get("workloads") else {
            panic!("workloads is not an array");
        };
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(|n| n.as_str()))
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn args_are_validated() {
        let ok: Vec<String> = [
            "--workload",
            "cold-build",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&ok).expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("cold-build", 3, true)
        );
        let bad: Vec<String> = ["--workload", "nope"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&bad).is_err());
    }
}
