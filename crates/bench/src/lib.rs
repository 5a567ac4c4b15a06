//! # lagoon-bench
//!
//! The program corpus of the paper's evaluation (§7.3, figures 6–9).
//! Every benchmark is written once, in typed style; the untyped original
//! is derived by stripping the `(: …)` declarations — exactly the
//! relationship between the paper's benchmark versions ("the typed
//! versions have type annotations … and are otherwise identical").
//!
//! Four configurations stand in for the paper's per-figure compiler bars
//! (see DESIGN.md's substitution table):
//!
//! | configuration | program | engine |
//! |---------------|---------|--------|
//! | `ast-interp`  | untyped | tree-walking interpreter |
//! | `vm`          | untyped | bytecode VM |
//! | `vm+typed`    | typed, no optimizer | bytecode VM |
//! | `vm+opt`      | typed, optimized | bytecode VM |
//!
//! Speed numbers come from `lagbench`, the repository's benchmark. This
//! crate adds two views over the corpus: the `figures` table printer
//! (the only place the `ast-interp` column is timed) and the `opmix`
//! per-program attribution.

#![warn(missing_docs)]

pub mod programs;

use lagoon_core::{EngineKind, ModuleRegistry};
use lagoon_runtime::{RtError, Value};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Which of the paper's figures a benchmark belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Figure {
    /// Gabriel & Larceny micro-benchmarks.
    Fig6,
    /// Computer Language Benchmarks Game.
    Fig7,
    /// pseudoknot.
    Fig8,
    /// Large applications.
    Fig9,
}

impl Figure {
    /// The paper's caption for this figure.
    pub fn title(&self) -> &'static str {
        match self {
            Figure::Fig6 => "Figure 6: Gabriel and Larceny benchmarks (smaller is better)",
            Figure::Fig7 => "Figure 7: Computer Language Benchmark Game (smaller is better)",
            Figure::Fig8 => "Figure 8: pseudoknot (smaller is better)",
            Figure::Fig9 => "Figure 9: large benchmarks (smaller is better)",
        }
    }
}

/// One benchmark program (typed source; untyped derived).
#[derive(Clone, Copy, Debug)]
pub struct Benchmark {
    /// Short name, as in the paper's figures.
    pub name: &'static str,
    /// The figure this benchmark reproduces.
    pub figure: Figure,
    /// The typed program body (no `#lang` line).
    pub source: &'static str,
}

/// An execution configuration (one "bar" in a figure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Config {
    /// Untyped program on the tree-walking interpreter.
    AstInterp,
    /// Untyped program on the bytecode VM.
    Vm,
    /// Typed program, typechecked but unoptimized, on the VM.
    VmTyped,
    /// Typed program with the type-driven optimizer, on the VM.
    VmOpt,
}

impl Config {
    /// All configurations, slowest first.
    pub fn all() -> [Config; 4] {
        [
            Config::AstInterp,
            Config::Vm,
            Config::VmTyped,
            Config::VmOpt,
        ]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Config::AstInterp => "ast-interp",
            Config::Vm => "vm",
            Config::VmTyped => "vm+typed",
            Config::VmOpt => "vm+opt",
        }
    }

    fn engine(&self) -> EngineKind {
        match self {
            Config::AstInterp => EngineKind::Interp,
            _ => EngineKind::Vm,
        }
    }
}

impl Benchmark {
    /// The typed module source (with `#lang`).
    pub fn typed_source(&self) -> String {
        format!("#lang typed/lagoon\n{}", self.source)
    }

    /// The untyped module source: the typed program with its `(: …)`
    /// declarations stripped.
    pub fn untyped_source(&self) -> String {
        format!("#lang lagoon\n{}", strip_type_declarations(self.source))
    }

    /// The module source for a configuration.
    pub fn source_for(&self, config: Config) -> String {
        match config {
            Config::AstInterp | Config::Vm => self.untyped_source(),
            Config::VmTyped => format!("#lang typed/no-opt\n{}", self.source),
            Config::VmOpt => self.typed_source(),
        }
    }
}

/// Strips top-level `(: name Type)` declarations, turning a typed program
/// back into its untyped original.
pub fn strip_type_declarations(source: &str) -> String {
    let forms = lagoon_syntax::read_all(source, "<strip>").expect("benchmark source parses");
    forms
        .iter()
        .filter(|f| {
            f.as_list()
                .and_then(|items| items.first())
                .and_then(lagoon_syntax::Syntax::sym)
                .map(|s| s != lagoon_syntax::Symbol::intern(":"))
                .unwrap_or(true)
        })
        .map(|f| f.to_datum().to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// All benchmarks, in figure order.
pub fn all_benchmarks() -> Vec<Benchmark> {
    let mut out = programs::gabriel::benchmarks();
    out.extend(programs::clbg::benchmarks());
    out.extend(programs::pseudoknot::benchmarks());
    out.extend(programs::large::benchmarks());
    out
}

/// The benchmarks belonging to one figure.
pub fn benchmarks_for(figure: Figure) -> Vec<Benchmark> {
    all_benchmarks()
        .into_iter()
        .filter(|b| b.figure == figure)
        .collect()
}

/// The benchmark with this name, from any figure.
pub fn benchmark(name: &str) -> Option<Benchmark> {
    all_benchmarks().into_iter().find(|b| b.name == name)
}

fn fresh_registry() -> Rc<ModuleRegistry> {
    let reg = ModuleRegistry::new();
    lagoon_optimizer::register_typed_languages(&reg);
    reg
}

/// Adds `source` to `reg` as `module`, compiles it, and returns a closure
/// that runs it once per call on fresh instances.
fn compile_runner(
    reg: Rc<ModuleRegistry>,
    module: String,
    source: &str,
    engine: EngineKind,
) -> Result<impl FnMut() -> Result<Value, RtError>, RtError> {
    reg.add_module(&module, source);
    reg.compile(lagoon_syntax::Symbol::intern(&module))?;
    Ok(move || {
        reg.reset_instances();
        reg.run(&module, engine)
    })
}

/// Compiles a benchmark under a configuration, returning a closure that
/// runs it once per call (compile cost is *not* measured, as in the
/// paper; instances are reset between runs so stateful benchmarks rerun
/// from scratch).
///
/// # Errors
///
/// Returns compile-time errors (read/expand/typecheck).
pub fn prepare(
    bench: &Benchmark,
    config: Config,
) -> Result<impl FnMut() -> Result<Value, RtError>, RtError> {
    compile_runner(
        fresh_registry(),
        format!("{}--{}", bench.name, config.label()),
        &bench.source_for(config),
        config.engine(),
    )
}

/// Runs a benchmark once under a configuration, returning the produced
/// value and the wall-clock duration (excluding compilation).
///
/// # Errors
///
/// Propagates compile-time and runtime errors.
pub fn run_once(bench: &Benchmark, config: Config) -> Result<(Value, Duration), RtError> {
    let mut runner = prepare(bench, config)?;
    let start = Instant::now();
    let v = runner()?;
    Ok((v, start.elapsed()))
}

/// Measured results for one benchmark across all configurations.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// `(config, seconds)` pairs in [`Config::all`] order.
    pub times: Vec<(Config, f64)>,
}

impl Row {
    /// Speedup of `vm+opt` over plain `vm`, as the paper reports it
    /// (e.g. “a 33% speedup on the fft benchmark”).
    pub fn opt_speedup_percent(&self) -> f64 {
        let t = |c: Config| {
            self.times
                .iter()
                .find(|(cc, _)| *cc == c)
                .map(|(_, t)| *t)
                .unwrap_or(f64::NAN)
        };
        (t(Config::Vm) / t(Config::VmOpt) - 1.0) * 100.0
    }
}

/// Runs every benchmark of a figure `reps` times per configuration
/// (keeping the best time) and verifies all configurations agree on the
/// produced value.
///
/// # Errors
///
/// Propagates compile and runtime errors; errors if configurations
/// disagree on a benchmark's result.
pub fn measure_figure(figure: Figure, reps: usize) -> Result<Vec<Row>, RtError> {
    let mut rows = Vec::new();
    for bench in benchmarks_for(figure) {
        let mut times = Vec::new();
        let mut reference: Option<Value> = None;
        for config in Config::all() {
            let mut runner = prepare(&bench, config)?;
            let what = format!("{}: {}", bench.name, config.label());
            times.push((config, best_secs(&mut runner, reps, &mut reference, &what)?));
        }
        rows.push(Row {
            name: bench.name,
            times,
        });
    }
    Ok(rows)
}

/// The best wall-clock seconds over `reps` calls of `runner`. Every
/// produced value must equal `reference`, which the first one sets.
fn best_secs(
    runner: &mut impl FnMut() -> Result<Value, RtError>,
    reps: usize,
    reference: &mut Option<Value>,
    what: &str,
) -> Result<f64, RtError> {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let v = runner()?;
        best = best.min(start.elapsed().as_secs_f64());
        match reference {
            None => *reference = Some(v),
            Some(r) if !r.equal(&v) => {
                return Err(RtError::user(format!("{what} produced {v}, expected {r}")))
            }
            Some(_) => {}
        }
    }
    Ok(best)
}

/// Formats rows as the figure's table: absolute milliseconds plus times
/// normalized to `vm` = 1.00 (the figures normalize to untyped Racket).
pub fn format_figure(figure: Figure, rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{}", figure.title());
    let _ = write!(out, "{:<14}", "benchmark");
    for c in Config::all() {
        let _ = write!(out, "{:>12}", c.label());
    }
    let _ = writeln!(out, "{:>13}", "opt speedup");
    for row in rows {
        let vm_time = row
            .times
            .iter()
            .find(|(c, _)| *c == Config::Vm)
            .map(|(_, t)| *t)
            .unwrap_or(1.0);
        let _ = write!(out, "{:<14}", row.name);
        for (_, t) in &row.times {
            let _ = write!(out, "{:>12.2}", t / vm_time);
        }
        let _ = writeln!(out, "{:>12.0}%", row.opt_speedup_percent());
    }
    let _ = writeln!(
        out,
        "(columns normalized to vm = 1.00; absolute vm times below)"
    );
    for row in rows {
        let vm_ms = row
            .times
            .iter()
            .find(|(c, _)| *c == Config::Vm)
            .map(|(_, t)| t * 1000.0)
            .unwrap_or(f64::NAN);
        let _ = writeln!(out, "  {:<14} vm = {vm_ms:.1} ms", row.name);
    }
    out
}

/// The ablation columns: no optimizer, one §7.2 rewrite family each
/// (`lagoon_optimizer::register_ablation_languages`), the full optimizer.
const ABLATION: [(&str, &str); 6] = [
    ("typed/no-opt", "no-opt"),
    ("typed/only-floats", "only-floats"),
    ("typed/only-complexes", "only-complexes"),
    ("typed/only-fixnums", "only-fixnums"),
    ("typed/only-pairs", "only-pairs"),
    ("typed/lagoon", "full"),
];

/// Runs `mbrot`, `pseudoknot` and `nqueens` on the VM under each
/// ablation language `reps` times (keeping the best time) and formats
/// the table attributing the optimizer's speedup to its rewrite
/// families. Every language must agree on each program's value.
///
/// # Errors
///
/// Propagates compile and runtime errors; errors if two languages
/// disagree on a benchmark's result.
pub fn ablation_table(reps: usize) -> Result<String, RtError> {
    use std::fmt::Write;
    let mut out =
        String::from("Ablation: one rewrite family at a time (best ms, smaller is better)\n");
    let _ = write!(out, "{:<12}", "benchmark");
    for (_, column) in ABLATION {
        let _ = write!(out, "{column:>16}");
    }
    for name in ["mbrot", "pseudoknot", "nqueens"] {
        let bench = benchmark(name).ok_or_else(|| RtError::user(format!("no benchmark {name}")))?;
        let _ = write!(out, "\n{name:<12}");
        let mut reference: Option<Value> = None;
        for (lang, column) in ABLATION {
            let reg = fresh_registry();
            lagoon_optimizer::register_ablation_languages(&reg);
            let mut runner = compile_runner(
                reg,
                format!("{name}--{column}"),
                &format!("#lang {lang}\n{}", bench.source),
                EngineKind::Vm,
            )?;
            let what = format!("{name}: {lang}");
            let best = best_secs(&mut runner, reps, &mut reference, &what)?;
            let _ = write!(out, "{:>16.1}", best * 1000.0);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripping_removes_only_declarations() {
        let src = "(: f : Integer -> Integer)\n(define (f x) (+ x 1))\n(f 1)";
        let stripped = strip_type_declarations(src);
        assert!(!stripped.contains("Integer"));
        assert!(stripped.contains("define"));
        assert_eq!(stripped.lines().count(), 2);
    }

    #[test]
    fn every_benchmark_is_registered() {
        let all = all_benchmarks();
        assert_eq!(benchmarks_for(Figure::Fig6).len(), 8);
        assert_eq!(benchmarks_for(Figure::Fig7).len(), 5);
        assert_eq!(benchmarks_for(Figure::Fig8).len(), 1);
        assert_eq!(benchmarks_for(Figure::Fig9).len(), 3);
        assert_eq!(all.len(), 17);
        let mut names: Vec<_> = all.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 17, "duplicate benchmark names");
    }

    #[test]
    fn all_benchmarks_agree_across_configs() {
        // correctness gate: every benchmark produces the same value under
        // every VM configuration (compile + one run each)
        for bench in all_benchmarks() {
            let mut reference: Option<Value> = None;
            for config in [Config::Vm, Config::VmTyped, Config::VmOpt] {
                let (v, _) = run_once(&bench, config)
                    .unwrap_or_else(|e| panic!("{} [{}]: {e}", bench.name, config.label()));
                match &reference {
                    None => reference = Some(v),
                    Some(r) => assert!(
                        r.equal(&v),
                        "{} [{}]: got {v}, expected {r}",
                        bench.name,
                        config.label()
                    ),
                }
            }
        }
    }

    #[test]
    fn interp_agrees_on_a_sample() {
        // the tree-walking interpreter uses Rust stack proportional to
        // non-tail recursion depth; debug-build frames are large, so give
        // the check a roomy stack
        std::thread::Builder::new()
            .stack_size(256 * 1024 * 1024)
            .spawn(|| {
                for name in ["tak", "partialsums", "pseudoknot", "funcds"] {
                    let bench = benchmark(name).unwrap();
                    let (vi, _) = run_once(&bench, Config::AstInterp).unwrap();
                    let (vv, _) = run_once(&bench, Config::Vm).unwrap();
                    assert!(vi.equal(&vv), "{name}: interp={vi} vm={vv}");
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
