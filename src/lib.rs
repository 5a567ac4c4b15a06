//! # lagoon
//!
//! A Rust reproduction of **Languages as Libraries** (Tobin-Hochstadt,
//! St-Amour, Culpepper, Flatt, Felleisen — PLDI 2011): a Racket-style
//! extensible host language in which a full typed sister language — type
//! system, typed/untyped interoperation via contracts, and a type-driven
//! optimizer — is implemented *as a library*, with no changes to the host
//! compiler.
//!
//! This crate is the facade: it wires the substrate crates together and
//! exposes a small embedding API.
//!
//! ```
//! use lagoon::{Lagoon, EngineKind};
//!
//! let lagoon = Lagoon::new();
//! lagoon.add_module("hello", "#lang lagoon\n(+ 1 2)\n");
//! let v = lagoon.run("hello", EngineKind::Vm)?;
//! assert_eq!(v.to_string(), "3");
//!
//! lagoon.add_module("typed-hello", "#lang typed/lagoon\n(define: x : Integer 40)\n(+ x 2)\n");
//! let v = lagoon.run("typed-hello", EngineKind::Vm)?;
//! assert_eq!(v.to_string(), "42");
//! # Ok::<(), lagoon::RtError>(())
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`lagoon_syntax`] | reader, syntax objects, scope sets, properties |
//! | [`lagoon_runtime`] | values, numeric tower, primitives, contracts |
//! | [`lagoon_vm`] | core IR, AST interpreter, bytecode compiler + VM |
//! | [`lagoon_core`] | hygienic expander, macros, `local-expand`, modules, `#lang` |
//! | [`lagoon_typed`] | the typed sister language (paper §§3–6) |
//! | [`lagoon_optimizer`] | the type-driven optimizer (paper §7) |
//! | [`lagoon_server`] | parallel builds, the evaluation daemon, and its HTTP/1.1 protocol |
//! | [`lagoon_gateway`] | router over multi-process sharded daemons |

#![warn(missing_docs)]

use std::rc::Rc;

pub use lagoon_core::{CompiledModule, EngineKind, ModuleRegistry};
pub use lagoon_diag as diag;
pub use lagoon_diag::{FaultPlan, Limits};
pub use lagoon_gateway as gateway;
pub use lagoon_runtime::io::capture_output;
pub use lagoon_runtime::{Kind, RtError, Value};
pub use lagoon_server as server;
pub use lagoon_syntax::{Datum, Symbol, Syntax};
pub use lagoon_typed::Type;

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Runs `f` behind the embedding boundary: refills the per-run resource
/// budgets and converts any escaped panic into an `internal-error`
/// diagnostic instead of unwinding through the caller.
fn guarded<T>(f: impl FnOnce() -> Result<T, RtError>) -> Result<T, RtError> {
    diag::limits::refill();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(RtError::new(
            Kind::Internal,
            format!("internal error: {}", panic_message(payload)),
        )),
    }
}

/// An embedded Lagoon world with the base and typed languages installed.
pub struct Lagoon {
    registry: Rc<ModuleRegistry>,
}

impl Lagoon {
    /// A fresh world with languages `lagoon`, `typed/lagoon` (typechecked
    /// and optimized), and `typed/no-opt` (typechecked only) registered.
    pub fn new() -> Lagoon {
        let registry = ModuleRegistry::new();
        lagoon_optimizer::register_typed_languages(&registry);
        Lagoon { registry }
    }

    /// Registers (or replaces) a module's source text. The source must
    /// start with a `#lang` line.
    pub fn add_module(&self, name: &str, source: &str) {
        self.registry.add_module(name, source);
    }

    /// Installs a lazy module loader: when a `require`d module has no
    /// registered source — including requires generated by macros during
    /// expansion — the loader is asked for its source text, and the
    /// result is memoized. Returning `None` leaves the module unknown.
    pub fn set_module_loader(&self, f: impl Fn(&str) -> Option<String> + 'static) {
        self.registry
            .set_loader(move |name| name.with_str(|s| f(s)));
    }

    /// Points this world at a directory of `.lagc` compiled-module
    /// artifacts, enabling the on-disk compiled store: fresh compiles are
    /// persisted there, and later compilations of unchanged modules load
    /// straight from disk, skipping read/expand/typecheck/compile. Pass
    /// `None` to disable (the default).
    pub fn set_cache_dir(&self, dir: Option<std::path::PathBuf>) {
        self.registry.set_store_dir(dir);
    }

    /// Compiles and runs a module on the chosen engine, returning the
    /// value of its last top-level expression.
    ///
    /// # Errors
    ///
    /// Returns read, expansion, typecheck, or runtime errors.
    pub fn run(&self, name: &str, engine: EngineKind) -> Result<Value, RtError> {
        guarded(|| self.registry.run(name, engine))
    }

    /// Like [`Lagoon::run`] but captures everything the program printed.
    ///
    /// # Errors
    ///
    /// Returns read, expansion, typecheck, or runtime errors.
    pub fn run_capturing(
        &self,
        name: &str,
        engine: EngineKind,
    ) -> Result<(Value, String), RtError> {
        let (result, output) = capture_output(|| guarded(|| self.registry.run(name, engine)));
        Ok((result?, output))
    }

    /// An exported value from an instantiated module.
    ///
    /// # Errors
    ///
    /// Returns an error if the module fails to run or has no such export.
    pub fn exported(
        &self,
        module: &str,
        export: &str,
        engine: EngineKind,
    ) -> Result<Value, RtError> {
        guarded(|| self.registry.exported_value(module, export, engine))
    }

    /// The fully-expanded core forms of a module, as printable syntax —
    /// useful for inspecting what the typechecker and optimizer produced.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors.
    pub fn expanded(&self, module: &str) -> Result<Vec<Syntax>, RtError> {
        guarded(|| self.registry.expanded_body(module))
    }

    /// Compiles `name` and runs it on fresh instances with a diagnostics
    /// recorder installed, so the run span (and, when `count_opcodes`,
    /// the VM's opcode counts) covers the full execution rather than a
    /// cached instance. The recorder's views stay valid after it
    /// returns, even when the run failed.
    fn run_recorded(
        &self,
        name: &str,
        engine: EngineKind,
        count_opcodes: bool,
    ) -> (Result<Value, RtError>, diag::Collector) {
        let collector = diag::Collector::install();
        lagoon_vm::counters::reset();
        let result = guarded(|| {
            self.registry.compile(Symbol::intern(name))?;
            self.registry.reset_instances();
            lagoon_vm::counters::set_active(count_opcodes);
            let _t = diag::time(diag::Phase::Run, Symbol::intern(name));
            self.registry.run(name, engine)
        });
        lagoon_vm::counters::set_active(false);
        if let Err(e) = &result {
            // surface budget exhaustion in the report's limits table
            if let Kind::ResourceExhausted { budget } = e.kind {
                diag::limit_event_named(budget, Symbol::intern(name), e.span);
            }
        }
        for (op, class, fused, count) in lagoon_vm::counters::snapshot() {
            diag::opcode(op, class.name(), fused, count);
        }
        diag::uninstall();
        (result, collector)
    }

    /// Like [`Lagoon::run`] but with a diagnostics recorder installed for
    /// the duration: returns the result value together with a
    /// [`diag::Report`] covering phase timings, macro/typechecker
    /// counters, the optimizer decision log, contract boundary crossings,
    /// and the executed opcode mix.
    ///
    /// # Errors
    ///
    /// Returns read, expansion, typecheck, or runtime errors.
    pub fn run_with_stats(
        &self,
        name: &str,
        engine: EngineKind,
    ) -> Result<(Value, diag::Report), RtError> {
        let (result, collector) = self.run_recorded(name, engine, true);
        Ok((result?, collector.report()))
    }

    /// Like [`Lagoon::run_with_stats`], returning the other view of the
    /// same record: a [`diag::trace::Trace`] of nested spans
    /// (read/expand/typecheck/optimize/compile/load/run, per-form
    /// expansion spans carrying source positions, optimizer decisions
    /// and store lookups) and the VM profile. Opcodes are not counted, so
    /// the run span times the uninstrumented loop. The trace is returned
    /// even when the run fails, so callers can see how far it got.
    pub fn run_traced(
        &self,
        name: &str,
        engine: EngineKind,
    ) -> (Result<Value, RtError>, diag::trace::Trace) {
        let (result, collector) = self.run_recorded(name, engine, false);
        (result, collector.trace())
    }

    /// Like [`Lagoon::expanded`] but with a diagnostics recorder installed:
    /// returns the expanded forms together with a report of per-phase
    /// timings and expansion counters.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors.
    pub fn expand_with_stats(&self, module: &str) -> Result<(Vec<Syntax>, diag::Report), RtError> {
        let collector = diag::Collector::install();
        let result = guarded(|| self.registry.expanded_body(module));
        diag::uninstall();
        Ok((result?, collector.report()))
    }

    /// Installs resource limits for everything this thread subsequently
    /// runs: expansion steps/depth, phase-1 and run-time step budgets, VM
    /// stack depth, and an optional wall-clock deadline. Budgets refill to
    /// these limits at every entry point ([`Lagoon::run`] and friends), so
    /// each run gets the full allowance.
    pub fn set_limits(&self, limits: Limits) {
        diag::limits::install(limits);
    }

    /// The resource limits currently in force on this thread.
    pub fn limits(&self) -> Limits {
        diag::limits::current()
    }

    /// The underlying registry, for advanced embedding (registering
    /// additional languages, inspecting compiled modules).
    pub fn registry(&self) -> &Rc<ModuleRegistry> {
        &self.registry
    }
}

impl Default for Lagoon {
    fn default() -> Lagoon {
        Lagoon::new()
    }
}

impl std::fmt::Debug for Lagoon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("#<lagoon>")
    }
}
