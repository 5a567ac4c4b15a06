//! `paper-figs`: the 17 Fig 6–9 programs under `vm`, `vm+typed` and
//! `vm+opt`, compiled once in set-up and timed in seed-shuffled rounds.

use std::rc::Rc;
use std::time::Instant;

use lagoon_bench::{all_benchmarks, Benchmark, Config};
use lagoon_core::{EngineKind, ModuleRegistry};

use crate::calib::Calibration;
use crate::gen::Rng;
use crate::host::thread_cpu_s;
use crate::layers::{self, ProbeModule};
use crate::report::{kind_geomean, Outcome, Sample};
use crate::stats::{geomean, median};
use crate::trace::{self_ms, Tracer};
use crate::Run;

/// The timed configurations. `ast-interp` is the reference engine and
/// stays out of the timed runs.
pub const CONFIGS: [Config; 3] = [Config::Vm, Config::VmTyped, Config::VmOpt];

/// Seconds one round over all 51 rows takes on the reference host; a run
/// does `--seconds / ROUND_S` rounds, so every run does the same work.
const ROUND_S: f64 = 2.5;

/// How far `vm+opt` may exceed `vm` on a row before the paper-shape
/// report names the row a loss.
pub const LOSS_MARGIN: f64 = 0.05;

/// Metric-name form of a config label.
pub fn config_key(config: Config) -> &'static str {
    match config {
        Config::AstInterp => "ast_interp",
        Config::Vm => "vm",
        Config::VmTyped => "vm_typed",
        Config::VmOpt => "vm_opt",
    }
}

/// Expected values of the 17 programs, computed with `ast-interp`.
const EXPECTED: &str = include_str!("../data/expected.txt");

pub fn expected(name: &str) -> Option<&'static str> {
    EXPECTED
        .lines()
        .find_map(|l| l.split_once('\t').filter(|(n, _)| *n == name))
        .map(|(_, v)| v)
}

/// One compiled (program, config) row.
struct Row {
    bench: Benchmark,
    config: Config,
    module: String,
    reg: Rc<ModuleRegistry>,
    expected: &'static str,
}

/// Programs of the smoke test's tiny run.
const SMALL: [&str; 2] = ["fib", "mbrot"];

fn compile_rows(small: bool) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for bench in all_benchmarks() {
        if small && !SMALL.contains(&bench.name) {
            continue;
        }
        let expected =
            expected(bench.name).ok_or_else(|| format!("no expected value for {}", bench.name))?;
        for config in CONFIGS {
            let reg = layers::registry();
            let module = format!("{}--{}", bench.name, config.label());
            reg.add_module(&module, &bench.source_for(config));
            reg.compile(lagoon_syntax::Symbol::intern(&module))
                .map_err(|e| format!("{} [{}]: {e}", bench.name, config.label()))?;
            rows.push(Row {
                bench,
                config,
                module,
                reg,
                expected,
            });
        }
    }
    Ok(rows)
}

/// Runs one row once, inside `core.reset` and `vm.run` spans.
fn run_row(row: &Row, tracer: &Tracer, parent: Option<usize>, id: u64) -> Result<String, String> {
    tracer.span("core.reset", parent, id, || row.reg.reset_instances());
    tracer
        .span("vm.run", parent, id, || {
            row.reg.run(&row.module, EngineKind::Vm)
        })
        .map(|v| v.to_string())
        .map_err(|e| e.to_string())
}

pub fn run(run: &Run, out: &mut Outcome) -> Result<(), String> {
    // Set-up: compile all 51 rows; repeated so set-up time is a median.
    let mut rows = Vec::new();
    for _ in 0..run.setup_reps {
        rows = out.setup(|| compile_rows(run.small))?;
    }

    let mut rng = Rng::new(run.seed);
    let off = Tracer::new(false);
    let mut cal = Calibration::default();
    // Per row: untraced samples, and (in a traced run) traced ones apart.
    let mut samples: Vec<Sample> = rows.iter().map(|_| Sample::default()).collect();
    let mut traced_samples: Vec<Sample> = rows.iter().map(|_| Sample::default()).collect();
    for round in 0..run.rounds(ROUND_S) as u64 {
        // In a traced run, rounds alternate traced and untraced so the
        // tracing overhead is measured on the same rows.
        let traced = run.tracer.enabled() && round % 2 == 1;
        let tracer = if traced { &run.tracer } else { &off };
        let mut order: Vec<usize> = (0..rows.len()).collect();
        rng.shuffle(&mut order);
        let mut raw = Vec::with_capacity(order.len());
        for i in order {
            cal.sample(1);
            let row = &rows[i];
            let op_id = round * 1000 + i as u64;
            let (wall, cpu) = (Instant::now(), thread_cpu_s());
            let span = tracer.begin("bench.op", None, op_id);
            let result = run_row(row, tracer, span, op_id);
            tracer.end(span);
            let cpu_ms = (thread_cpu_s() - cpu) * 1e3;
            let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
            out.attempted += 1;
            match result {
                Ok(v) if v == row.expected => {}
                Ok(v) => {
                    out.fail(format!(
                        "{} [{}]: got {v}, expected {}",
                        row.bench.name,
                        row.config.label(),
                        row.expected
                    ));
                }
                Err(e) => out.fail(format!("{} [{}]: {e}", row.bench.name, row.config.label())),
            }
            raw.push((i, wall_ms, cpu_ms));
        }
        // One host-speed scale per round: the host drifts over seconds.
        let scale = cal.take_scale();
        for (i, wall_ms, cpu_ms) in raw {
            let sample = if traced {
                &mut traced_samples[i]
            } else {
                &mut samples[i]
            };
            sample.wall_ms.push(wall_ms);
            sample.cpu_ms.push(cpu_ms);
            sample.norm_ms.push(cpu_ms * scale);
        }
    }

    let row_median: Vec<f64> = samples
        .iter()
        .map(|s| median(&s.norm_ms).unwrap_or(f64::NAN))
        .collect();
    for config in CONFIGS {
        let of_config = |field: fn(&Sample) -> &Vec<f64>| {
            let picked = rows
                .iter()
                .zip(&samples)
                .filter(|(r, _)| r.config == config)
                .map(|(_, s)| s);
            kind_geomean(picked, field).unwrap_or(0.0)
        };
        let norm = of_config(|s| &s.norm_ms);
        let (cpu, wall) = (of_config(|s| &s.cpu_ms), of_config(|s| &s.wall_ms));
        out.layer(&format!("run.{}_ms", config_key(config)), norm);
        out.note(format!(
            "  {:<9} geomean of row medians: {norm:.3} ms at nominal speed (cpu {cpu:.3} ms, wall {wall:.3} ms)",
            config.label()
        ));
    }
    for (row, m) in rows.iter().zip(&row_median) {
        out.layer(
            &format!("vm.run.{}.{}_ms", row.bench.name, config_key(row.config)),
            *m,
        );
    }

    // Paper-shape report: vm+opt / vm per row, with its base times.
    let mut ratios = Vec::new();
    let mut losses = Vec::new();
    out.note("paper shape (median ms per row at nominal speed; vm+opt / vm):".to_string());
    for bench in all_benchmarks() {
        if !rows.iter().any(|r| r.bench.name == bench.name) {
            continue;
        }
        let m = |config: Config| {
            rows.iter()
                .zip(&row_median)
                .find(|(r, _)| r.bench.name == bench.name && r.config == config)
                .map_or(f64::NAN, |(_, m)| *m)
        };
        let (vm, typed, opt) = (m(Config::Vm), m(Config::VmTyped), m(Config::VmOpt));
        let ratio = opt / vm;
        ratios.push(ratio);
        let lost = ratio > 1.0 + LOSS_MARGIN;
        if lost {
            losses.push(bench.name);
        }
        out.note(format!(
            "  {:<13} vm {vm:>8.3}  vm+typed {typed:>8.3}  vm+opt {opt:>8.3}  opt/vm {ratio:.3}{}",
            bench.name,
            if lost { "  LOSS" } else { "" }
        ));
    }
    out.note(format!(
        "  vm.opt_losses = {} (vm+opt > vm by more than {:.0}%): {}",
        losses.len(),
        LOSS_MARGIN * 100.0,
        if losses.is_empty() {
            "none".to_string()
        } else {
            losses.join(", ")
        }
    ));
    out.layer("vm.opt_over_vm", geomean(&ratios).unwrap_or(0.0));
    out.layer("vm.opt_losses", losses.len() as f64);

    if run.tracer.enabled() {
        let overhead = kind_geomean(&traced_samples, |s| &s.norm_ms).unwrap_or(f64::NAN)
            / kind_geomean(&samples, |s| &s.norm_ms).unwrap_or(f64::NAN)
            - 1.0;
        out.layer("bench.trace_overhead", overhead);
        traced_layers(run, out, &rows)?;
    }
    out.samples = samples;
    Ok(())
}

fn traced_layers(run: &Run, out: &mut Outcome, rows: &[Row]) -> Result<(), String> {
    let spans = run.tracer.spans();
    let own = self_ms(&spans);
    let ops = spans.iter().filter(|s| s.name == "bench.op").count().max(1) as f64;
    out.layer(
        "bench.unattributed_ms",
        own.get("bench.op").copied().unwrap_or(0.0) / ops,
    );

    // Executed opcodes: one counted run per row, outside the timed rounds.
    let mut ops_per_config = [0u64; 3];
    let (mut generic, mut specialized, mut fused) = (0u64, 0u64, 0u64);
    let off = Tracer::new(false);
    for row in rows {
        lagoon_vm::counters::reset();
        lagoon_vm::counters::set_active(true);
        let result = run_row(row, &off, None, 0);
        lagoon_vm::counters::set_active(false);
        out.attempted += 1;
        match result {
            Ok(v) if v == row.expected => {}
            Ok(v) => out.fail(format!("{} counted run: got {v}", row.bench.name)),
            Err(e) => out.fail(format!("{} counted run: {e}", row.bench.name)),
        }
        let slot = CONFIGS
            .iter()
            .position(|c| *c == row.config)
            .expect("row config is timed");
        for (_, class, is_fused, count) in lagoon_vm::counters::snapshot() {
            ops_per_config[slot] += count;
            if row.config == Config::VmOpt {
                match class {
                    lagoon_vm::bytecode::OpClass::Generic => generic += count,
                    lagoon_vm::bytecode::OpClass::Specialized => specialized += count,
                    lagoon_vm::bytecode::OpClass::Control => {}
                }
                if is_fused {
                    fused += count;
                }
            }
        }
    }
    for (config, n) in CONFIGS.iter().zip(ops_per_config) {
        out.layer(&format!("vm.ops.{}", config_key(*config)), n as f64);
    }
    out.layer("vm.ops_generic", generic as f64);
    out.layer("vm.ops_specialized", specialized as f64);
    out.layer("vm.ops_fused", fused as f64);

    // The front-end cost of the 17 programs (compiled in set-up).
    let modules: Vec<ProbeModule> = all_benchmarks()
        .into_iter()
        .filter(|b| rows.iter().any(|r| r.bench.name == b.name))
        .map(|b| ProbeModule {
            name: format!("fig-{}", b.name),
            body: b.source.to_string(),
        })
        .collect();
    let probe = layers::probe_median(&run.tracer, &modules, &run.work.join("probe"), 3)?;
    out.frontend(&probe);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked-in expected values are what the reference interpreter
    /// computes. Slow (the interpreter runs every program); run with
    /// `cargo test --release -- --ignored`.
    #[test]
    #[ignore]
    fn expected_values_match_ast_interp() {
        std::thread::Builder::new()
            .stack_size(256 * 1024 * 1024)
            .spawn(|| {
                for bench in all_benchmarks() {
                    let (v, _) = lagoon_bench::run_once(&bench, Config::AstInterp)
                        .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
                    assert_eq!(
                        expected(bench.name),
                        Some(v.to_string().as_str()),
                        "{}",
                        bench.name
                    );
                }
            })
            .expect("spawn")
            .join()
            .expect("interp thread");
    }
}
