//! The paper's shape as exact opcode counts: on every one of the 17
//! Fig 6–9 programs, the type-driven rewrite (`vm+opt`) executes no more
//! VM instructions than the same typed program without it (`vm+typed`),
//! and both compute the same value.
//!
//! `vm+typed` is the baseline rather than `vm` because each top-level
//! `(: …)` declaration expands to `(void)`, three instructions the
//! untyped program does not run; comparing two typed builds isolates the
//! rewrite. Counts are exact, so the test cannot flake on a loaded
//! machine.

use lagoon::{EngineKind, Lagoon};
use lagoon_bench::{all_benchmarks, Config};

/// One counted VM run: the printed value and output, and the number of
/// instructions executed.
fn counted(src: &str) -> ((String, String), u64) {
    let lagoon = Lagoon::new();
    lagoon.add_module("bench", src);
    let (result, out) = lagoon::capture_output(|| lagoon.run_with_stats("bench", EngineKind::Vm));
    let (v, report) = result.unwrap_or_else(|e| panic!("benchmark failed: {e}\n{src}"));
    ((v.write_string(), out), report.total_ops())
}

#[test]
fn vm_opt_never_executes_more_opcodes_than_vm_typed() {
    // counting is slow in debug builds, so each configuration gets a
    // thread (worlds and counters are thread-local)
    let runs: Vec<Vec<_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = [Config::VmTyped, Config::VmOpt]
            .into_iter()
            .map(|config| {
                scope.spawn(move || {
                    all_benchmarks()
                        .into_iter()
                        .map(|bench| (bench.name, counted(&bench.source_for(config))))
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(runs[0].len(), 17, "the Fig 6-9 programs");
    for ((name, (typed, typed_ops)), (_, (opt, opt_ops))) in runs[0].iter().zip(&runs[1]) {
        assert_eq!(opt, typed, "{name}: vm+opt and vm+typed disagree");
        assert!(
            opt_ops <= typed_ops,
            "{name}: vm+opt executed {opt_ops} instructions, vm+typed {typed_ops}"
        );
    }
}
