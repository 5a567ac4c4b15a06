//! Front-end layer attribution, measured from outside.
//!
//! The typechecker and the optimizer are installed as libraries through
//! `#lang`, so their cost is the difference between compiling the same
//! modules as `#lang lagoon`, `#lang typed/no-opt` and `#lang
//! typed/lagoon`. The reader and the bytecode compiler are public
//! functions and are timed directly; the expander is what remains of an
//! untyped compile. The store codec is timed through `store::encode` and
//! through store hits after `reset_compiled`.

use std::path::Path;
use std::rc::Rc;

use lagoon_core::ModuleRegistry;
use lagoon_syntax::Symbol;

use crate::gen::{source_in, Lang};
use crate::trace::{total_ms, Tracer};

/// A module for the probe: its name and typed-style body (no `#lang`).
pub struct ProbeModule {
    pub name: String,
    pub body: String,
}

/// Per-layer sums over one pass of the probe, in ms unless noted.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    pub read_ms: f64,
    pub read_bytes: f64,
    pub expand_ms: f64,
    pub check_ms: f64,
    pub optimize_ms: f64,
    pub vm_compile_ms: f64,
    pub encode_ms: f64,
    pub decode_ms: f64,
    pub store_bytes: f64,
    pub rewrites: f64,
    pub near_misses: f64,
    pub peephole_fused: f64,
}

impl LayerTimes {
    /// Everything a cold compile-and-store of these modules spends in
    /// named layers.
    pub fn cold_total_ms(&self) -> f64 {
        self.read_ms
            + self.expand_ms
            + self.check_ms
            + self.optimize_ms
            + self.vm_compile_ms
            + self.encode_ms
    }
}

pub fn registry() -> Rc<ModuleRegistry> {
    let reg = ModuleRegistry::new();
    lagoon_optimizer::register_typed_languages(&reg);
    reg
}

fn compile_span(lang: Lang) -> &'static str {
    match lang {
        Lang::Untyped => "core.compile.lagoon",
        Lang::TypedNoOpt => "core.compile.typed-no-opt",
        Lang::Typed => "core.compile.typed-lagoon",
    }
}

/// One pass over `modules` (in dependency order), recording spans on
/// `tracer`; the store round trip writes under `store_dir`.
pub fn probe(
    tracer: &Tracer,
    modules: &[ProbeModule],
    store_dir: &Path,
) -> Result<LayerTimes, String> {
    let first = tracer.spans().len();
    let mut out = LayerTimes::default();
    for lang in Lang::ALL {
        let reg = registry();
        for m in modules {
            reg.add_module(&m.name, &source_in(&m.body, lang));
        }
        let collector = (lang == Lang::Typed).then(lagoon_diag::Collector::install);
        for (id, m) in modules.iter().enumerate() {
            let sym = Symbol::intern(&m.name);
            let compiled = tracer
                .span(compile_span(lang), None, id as u64, || reg.compile(sym))
                .map_err(|e| format!("probe: {} ({}): {e}", m.name, lang.line()))?;
            match lang {
                Lang::Untyped => {
                    let source = source_in(&m.body, lang);
                    out.read_bytes += source.len() as f64;
                    tracer
                        .span("syntax.read", None, id as u64, || {
                            lagoon_syntax::read_module(&source, &m.name)
                        })
                        .map_err(|e| format!("probe read {}: {e}", m.name))?;
                    tracer
                        .span("vm.compile", None, id as u64, || {
                            let forms = compiled
                                .expanded
                                .iter()
                                .map(lagoon_vm::parse_form)
                                .collect::<Result<Vec<_>, _>>()?;
                            lagoon_vm::Compiler::compile_module(&forms)
                        })
                        .map_err(|e| format!("probe vm compile {}: {e}", m.name))?;
                }
                Lang::TypedNoOpt => {}
                Lang::Typed => {
                    let source = source_in(&m.body, lang);
                    let bytes = tracer
                        .span("core.store.encode", None, id as u64, || {
                            lagoon_core::store::encode(
                                &compiled,
                                0,
                                lagoon_core::store::source_digest(&source),
                                &[],
                            )
                        })
                        .map_err(|e| format!("probe encode {}: {e}", m.name))?;
                    out.store_bytes += bytes.len() as f64;
                    let forms = compiled
                        .expanded
                        .iter()
                        .map(lagoon_vm::parse_form)
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| format!("probe parse {}: {e}", m.name))?;
                    lagoon_vm::Compiler::compile_module(&forms)
                        .map_err(|e| format!("probe vm compile {}: {e}", m.name))?;
                    out.peephole_fused += lagoon_vm::peephole::last_stats().fused as f64;
                }
            }
        }
        if let Some(c) = collector {
            lagoon_diag::uninstall();
            let report = c.report();
            out.rewrites = report.rewrites.len() as f64;
            out.near_misses = report.near_misses.len() as f64;
        }
    }
    // Store reads: compile into a store, forget the compiled modules, and
    // time the loads that follow (all hits).
    let reg = registry();
    reg.set_store_dir(Some(store_dir.to_path_buf()));
    for m in modules {
        reg.add_module(&m.name, &source_in(&m.body, Lang::Typed));
    }
    for m in modules {
        reg.compile(Symbol::intern(&m.name))
            .map_err(|e| format!("probe store {}: {e}", m.name))?;
    }
    reg.reset_compiled();
    for (id, m) in modules.iter().enumerate() {
        tracer
            .span("core.store.load", None, id as u64, || {
                reg.compile(Symbol::intern(&m.name))
            })
            .map_err(|e| format!("probe load {}: {e}", m.name))?;
    }
    let _ = std::fs::remove_dir_all(store_dir);

    let totals = total_ms(&tracer.spans()[first..]);
    let t = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    out.read_ms = t("syntax.read");
    out.vm_compile_ms = t("vm.compile");
    out.expand_ms = (t("core.compile.lagoon") - out.read_ms - out.vm_compile_ms).max(0.0);
    out.check_ms = t("core.compile.typed-no-opt") - t("core.compile.lagoon");
    out.optimize_ms = t("core.compile.typed-lagoon") - t("core.compile.typed-no-opt");
    out.encode_ms = t("core.store.encode");
    out.decode_ms = t("core.store.load");
    Ok(out)
}

/// Runs the probe `reps` times and keeps the per-field median.
pub fn probe_median(
    tracer: &Tracer,
    modules: &[ProbeModule],
    store_dir: &Path,
    reps: usize,
) -> Result<LayerTimes, String> {
    let mut passes = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        passes.push(probe(tracer, modules, store_dir)?);
    }
    let med = |f: fn(&LayerTimes) -> f64| {
        crate::stats::median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    Ok(LayerTimes {
        read_ms: med(|l| l.read_ms),
        read_bytes: med(|l| l.read_bytes),
        expand_ms: med(|l| l.expand_ms),
        check_ms: med(|l| l.check_ms),
        optimize_ms: med(|l| l.optimize_ms),
        vm_compile_ms: med(|l| l.vm_compile_ms),
        encode_ms: med(|l| l.encode_ms),
        decode_ms: med(|l| l.decode_ms),
        store_bytes: med(|l| l.store_bytes),
        rewrites: med(|l| l.rewrites),
        near_misses: med(|l| l.near_misses),
        peephole_fused: med(|l| l.peephole_fused),
    })
}
