//! Per-program attribution for one figure 6-9 benchmark under one VM
//! configuration: the optimizer's rewrite and near-miss counts while
//! compiling it, then the per-opcode execution histogram of one run.
//! The quickest way to see where a config actually spends its
//! dispatches when a benchmark over- or under-performs.
//!
//! Usage: `cargo run --release -p lagoon-bench --bin opmix -- <bench> [vm|vm+typed|vm+opt]`

use lagoon_bench::{all_benchmarks, benchmark, prepare, Config};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("fannkuch");
    let config = match args.get(2).map(String::as_str) {
        None => Some(Config::Vm),
        Some(label) => [Config::Vm, Config::VmTyped, Config::VmOpt]
            .into_iter()
            .find(|c| c.label() == label),
    };
    let (Some(bench), Some(config)) = (benchmark(name), config) else {
        let names: Vec<_> = all_benchmarks().iter().map(|b| b.name).collect();
        eprintln!(
            "usage: opmix <bench> [vm|vm+typed|vm+opt]\nbenchmarks: {}",
            names.join(" ")
        );
        std::process::exit(2);
    };
    // the decision log covers compilation only; the run is uninstrumented
    // apart from the opcode counters
    let collector = lagoon_diag::Collector::install();
    let prepared = prepare(&bench, config);
    lagoon_diag::uninstall();
    let mut runner = prepared.expect("prepare");
    let report = collector.report();
    lagoon_vm::counters::reset();
    lagoon_vm::counters::set_active(true);
    runner().expect("run");
    lagoon_vm::counters::set_active(false);
    let snap = lagoon_vm::counters::snapshot();
    let total: u64 = snap.iter().map(|r| r.3).sum();
    println!("{name} {} total {total}", config.label());
    println!(
        "optimizer: {} rewrites, {} near-misses",
        report.rewrites.len(),
        report.near_misses.len()
    );
    for (op, class, fused, count) in snap.iter().take(25) {
        println!(
            "{op:<16} {:>12}  {:5.1}%  {}{}",
            count,
            *count as f64 / total as f64 * 100.0,
            class.name(),
            if *fused { " fused" } else { "" }
        );
    }
}
