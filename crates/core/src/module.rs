//! Modules, languages, and separate compilation.
//!
//! A [`ModuleRegistry`] is the world: module sources, compiled modules,
//! and per-engine instances. Each module names its language on the `#lang`
//! line (paper §2.3); a *language* is just a set of exported bindings —
//! crucially including `#%module-begin`, the hook that gives the language
//! implementation control over the whole module.
//!
//! Compilation follows the paper's architecture:
//!
//! 1. read → wrap the body in `(#%module-begin …)` resolved against the
//!    module's language;
//! 2. expand (which runs the language's whole-module transformer — for the
//!    typed language, that's where typechecking and optimization happen);
//! 3. compile the resulting core forms to bytecode;
//! 4. record exports, runtime requires, and *persisted compile-time
//!    declarations* (paper §5) in the [`CompiledModule`].
//!
//! Each compilation gets a fresh [`Expander`] — a fresh compile-time store
//! — over the shared binding table, which is how the `typed-context?` flag
//! trick of paper §6.2 stays sound.

use crate::binding::{Binding, BindingTable, CoreFormKind, NativeMacro};
use crate::expander::Expander;
use crate::store;
use lagoon_runtime::{Kind, RtError, Value};
use lagoon_syntax::{read_module_recover, Datum, ScopeSet, Span, Symbol, Syntax};
use lagoon_vm::{parse_form, Compiler, CoreForm, Env, Globals, Interp, Vm};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::rc::Rc;

/// Which execution engine to instantiate a module on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The tree-walking reference interpreter.
    Interp,
    /// The bytecode VM.
    Vm,
}

/// A compiled module: the persistent result of compilation (paper §5).
pub struct CompiledModule {
    /// The module's name.
    pub name: Symbol,
    /// The language it was written in.
    pub lang: Symbol,
    /// Exports: external name → binding.
    pub exports: Vec<(Symbol, Binding)>,
    /// The expanded module body (kept for tooling and tests; empty for a
    /// module loaded from the store, whose artifact persists none).
    pub expanded: Vec<Syntax>,
    /// Parsed core forms (for the interpreter engine).
    pub forms: Vec<CoreForm>,
    /// Compiled bytecode (for the VM engine).
    pub code: lagoon_vm::bytecode::ModuleCode,
    /// Modules required at runtime.
    pub requires: Vec<Symbol>,
    /// The modules its source's top-level `require` forms name
    /// ([`static_requires`]): its edges in the static dependency graph.
    pub static_requires: Vec<Symbol>,
    /// Compile-time declarations to replay when this module is required
    /// during a later compilation (serialized as S-expression data).
    pub persisted: Vec<(Symbol, Symbol, Datum)>,
}

/// The modules a module's top-level `(require …)` forms name, in order
/// of first mention: its edges in the static dependency graph, read from
/// its forms as the reader produced them. Requires a macro synthesizes
/// are invisible here; the expander records those among
/// [`CompiledModule::requires`].
pub fn static_requires(body: &[Syntax]) -> Vec<Symbol> {
    let require = Symbol::intern("require");
    let mut found = Vec::new();
    for form in body {
        let Some((head, specs)) = form.as_list().and_then(<[Syntax]>::split_first) else {
            continue;
        };
        if head.sym() != Some(require) {
            continue;
        }
        for dep in specs.iter().filter_map(Syntax::sym) {
            if !found.contains(&dep) {
                found.push(dep);
            }
        }
    }
    found
}

/// What a [`ModuleRegistry::request`] does with its module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Compile the module, then run it inside a `run` span.
    Run {
        /// The engine to instantiate it on.
        engine: EngineKind,
        /// Whether the VM counts the opcodes it executes into the
        /// recorder (the report's opcode mix).
        count_opcodes: bool,
    },
    /// Its expanded body ([`ModuleRegistry::expanded_body`]).
    Expand,
    /// Compile it (and its dependencies) only.
    Check,
}

/// What a [`ModuleRegistry::request`] produced, one variant per [`Step`].
#[derive(Debug)]
pub enum Outcome {
    /// A run's value.
    Value(Value),
    /// An expansion's core forms.
    Forms(Vec<Syntax>),
    /// A check compiled the module.
    Checked,
}

impl Outcome {
    /// A run's value; void for the other steps.
    pub fn into_value(self) -> Value {
        match self {
            Outcome::Value(v) => v,
            _ => Value::Void,
        }
    }

    /// An expansion's forms; empty for the other steps.
    pub fn into_forms(self) -> Vec<Syntax> {
        match self {
            Outcome::Forms(forms) => forms,
            _ => Vec::new(),
        }
    }
}

/// The panic barrier: refills this thread's resource budgets, so each
/// call gets the full allowance of the installed limits, and turns a
/// panic that escapes `f` into an `internal` error instead of unwinding
/// through the caller.
///
/// # Errors
///
/// Returns `f`'s error, or the `internal` error for its panic.
pub fn contained<T>(f: impl FnOnce() -> Result<T, RtError>) -> Result<T, RtError> {
    lagoon_diag::limits::refill();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "unknown panic payload".to_string()
        };
        Err(RtError::new(Kind::Internal, format!("panicked: {message}")))
    })
}

/// A language usable on a `#lang` line: a bundle of bindings (and, for
/// variable bindings backed by natives, their runtime values).
pub struct Language {
    /// The language's name.
    pub name: Symbol,
    /// Bindings importers receive.
    pub exports: Vec<(Symbol, Binding)>,
    /// Runtime values for exported [`Binding::Variable`]s that are not
    /// backed by a module (e.g. native helpers of the typed language).
    pub values: HashMap<Symbol, Value>,
}

/// The world: sources, languages, compiled modules, instances.
pub struct ModuleRegistry {
    /// The shared binding table.
    pub table: Rc<BindingTable>,
    /// Phase-1 base environment (primitives + matcher/expander natives +
    /// the hosted prelude).
    pub phase1_base: RefCell<Rc<Env>>,
    sources: RefCell<HashMap<Symbol, String>>,
    compiled: RefCell<HashMap<Symbol, Rc<CompiledModule>>>,
    languages: RefCell<HashMap<Symbol, Rc<Language>>>,
    compiling: RefCell<HashSet<Symbol>>,
    /// Values for base-environment variables, per engine.
    interp_base: RefCell<Rc<Env>>,
    vm_base: RefCell<HashMap<Symbol, Value>>,
    /// The prelude's VM instance, whose closures `vm_base` holds.
    prelude_globals: RefCell<Option<Rc<Globals>>>,
    instances_interp: RefCell<HashMap<Symbol, (Rc<Env>, Value)>>,
    instances_vm: RefCell<HashMap<Symbol, (Rc<Globals>, Value)>>,
    instantiating: RefCell<HashSet<Symbol>>,
    self_ref: RefCell<std::rc::Weak<ModuleRegistry>>,
    /// Where `.lagc` artifacts live; `None` disables the compiled store.
    store_dir: RefCell<Option<PathBuf>>,
    /// Lazy source resolver: consulted (and memoized into `sources`) when
    /// a required module has no registered source.
    #[allow(clippy::type_complexity)]
    loader: RefCell<Option<Box<dyn Fn(Symbol) -> Option<String>>>>,
    /// Rehydrators for persisted native-transformer exports, by recipe tag.
    #[allow(clippy::type_complexity)]
    rehydrators: RefCell<HashMap<Symbol, Rc<dyn Fn(&Datum) -> Option<Rc<NativeMacro>>>>>,
    /// Per-module artifact digests this session: (the artifact's content
    /// digest, whether the module was *loaded* from the store rather than
    /// compiled fresh). Importers may only hit the cache when every
    /// dependency was itself loaded with a matching digest — fresh
    /// compiles use live gensyms a decoded importer cannot reference.
    artifact_digests: RefCell<HashMap<Symbol, (u64, bool)>>,
    /// Digest of the base environment's global names (see `store`).
    env_digest: Cell<u64>,
}

impl Drop for ModuleRegistry {
    /// Empties every instance and the prelude's bases, which are `Rc`
    /// cycles through the closures they define (see
    /// [`ModuleRegistry::reset_instances`]).
    fn drop(&mut self) {
        self.discard_instances(None);
        self.interp_base.borrow().clear();
        if let Some(globals) = self.prelude_globals.borrow_mut().take() {
            globals.clear();
        }
    }
}

impl std::fmt::Debug for ModuleRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#<module-registry>")
    }
}

/// How a `compile` request interacted with the compiled store.
enum CacheOutcome {
    /// Loaded from a valid artifact — skip compilation entirely.
    Hit(Rc<CompiledModule>),
    /// Compile from source; `reported` says whether a stale/corrupt
    /// cache event already explained why.
    Miss {
        /// A diagnostic event for this module was already emitted.
        reported: bool,
    },
}

/// One walk over the store's artifact headers, such as a rebuild's
/// discovery: [`ModuleRegistry::recorded_requires`] and
/// [`ModuleRegistry::verify_artifact`] share it, so each artifact is
/// read and checked once, and each module's verdict is decided once.
#[derive(Default)]
pub struct HeaderWalk {
    /// Each module whose artifact was read: its header and byte length
    /// when the header passed the checks it decides on its own, `None`
    /// otherwise.
    headers: HashMap<Symbol, Option<(store::Header, usize)>>,
    /// Each module checked: its artifact's content digest when up to
    /// date, `None` when dirty.
    verdicts: HashMap<Symbol, Option<u64>>,
}

impl HeaderWalk {
    /// Every module the walk found up to date: those
    /// [`ModuleRegistry::verify_artifact`] was asked about, and the
    /// dependencies it reached through their recorded lists.
    pub fn up_to_date(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.verdicts.iter().filter_map(|(m, d)| d.map(|_| *m))
    }
}

/// An artifact that passed its own header checks, before its module
/// dependencies are checked (see [`ModuleRegistry::verify_artifact`]).
struct OwnHeader {
    /// The content digest its importers record.
    digest: u64,
    /// Its module dependencies, each with the digest it recorded.
    deps: Vec<(Symbol, u64)>,
    /// Its length in bytes.
    len: usize,
}

fn artifact_path(dir: &std::path::Path, name: Symbol) -> PathBuf {
    dir.join(format!("{name}.lagc"))
}

/// Writes `bytes` to `path` via a uniquely named `*.tmp` sibling and an
/// atomic `rename`, so concurrent readers of the store never observe a
/// half-written artifact and concurrent writers racing on the same key
/// each land a complete file (last rename wins — harmless, because
/// deterministic compilation makes racing writers produce identical
/// bytes; even a divergent winner is caught by the artifact's content
/// digest and validity checks on load, as staleness, never corruption).
fn write_atomically(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "lagc.{}.{}.tmp",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, bytes)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            // never leave a stray tmp file behind a failed publish
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// The deterministic gensym-scope digest for compiling a module: a hash
/// of its name and source text. Including the name keeps two modules
/// with identical sources from freshening identical (colliding) names.
fn module_fresh_digest(name: Symbol, source: &str) -> u64 {
    let mut bytes = Vec::with_capacity(source.len() + 16);
    name.with_str(|s| bytes.extend_from_slice(s.as_bytes()));
    bytes.push(0);
    bytes.extend_from_slice(source.as_bytes());
    lagoon_syntax::fnv1a(&bytes)
}

fn core_form_bindings() -> Vec<(&'static str, CoreFormKind)> {
    use CoreFormKind::*;
    vec![
        ("quote", Quote),
        ("quote-syntax", QuoteSyntax),
        ("if", If),
        ("begin", Begin),
        ("lambda", Lambda),
        ("λ", Lambda),
        ("#%plain-lambda", Lambda),
        ("let-values", LetValues),
        ("letrec-values", LetrecValues),
        ("set!", Set),
        ("#%plain-app", App),
        ("define-values", DefineValues),
        ("define-syntaxes", DefineSyntaxes),
        ("begin-for-syntax", BeginForSyntax),
        ("#%provide", Provide),
        ("#%require", Require),
        ("#%plain-module-begin", PlainModuleBegin),
    ]
}

impl ModuleRegistry {
    /// Bootstraps a registry: binds the base environment (core forms,
    /// primitives, surface macros), compiles the hosted prelude, and
    /// prepares per-engine base instances. The bootstrap runs under no
    /// budget ([`lagoon_diag::limits::suspended`]): the limits installed
    /// on this thread are left for the registry's modules to spend.
    ///
    /// # Panics
    ///
    /// Panics if the built-in prelude fails to compile — a Lagoon bug.
    pub fn new() -> Rc<ModuleRegistry> {
        lagoon_diag::limits::suspended(ModuleRegistry::bootstrap)
    }

    /// [`ModuleRegistry::new`]'s work. (This is deterministic init-time
    /// code, exercised by every test, so the expects below are
    /// deliberate rather than error-converted.)
    #[allow(clippy::expect_used)]
    fn bootstrap() -> Rc<ModuleRegistry> {
        // Registry bootstrap freshens names (pattern-variable markers,
        // prelude alpha-renaming) inside a deterministic gensym scope
        // keyed on the prelude source: every registry — across threads
        // and across processes — builds a base environment with the
        // *same* global names, which is what lets parallel build
        // workers exchange `.lagc` artifacts (the artifact's
        // env-digest check) and keeps those artifacts byte-identical
        // to a serial build's.
        let _fresh = lagoon_syntax::fresh_scope(lagoon_syntax::fnv1a(
            crate::prelude::PRELUDE_SOURCE.as_bytes(),
        ));
        let table = Rc::new(BindingTable::new());

        // 1. core forms at the empty scope set (the base environment)
        for (name, kind) in core_form_bindings() {
            table.bind(Symbol::intern(name), ScopeSet::new(), Binding::Core(kind));
        }
        // 2. primitives and phase-1 natives as base variables
        let phase1_values = crate::stxparse::phase1_natives();
        for (name, _) in &phase1_values {
            table.bind(*name, ScopeSet::new(), Binding::Variable(*name));
        }
        // 3. surface macros
        for (name, mac) in crate::prelude::surface_macros() {
            table.bind(Symbol::intern(name), ScopeSet::new(), Binding::Native(mac));
        }

        let registry = Rc::new(ModuleRegistry {
            table: table.clone(),
            phase1_base: RefCell::new(Env::root()),
            sources: RefCell::new(HashMap::new()),
            compiled: RefCell::new(HashMap::new()),
            languages: RefCell::new(HashMap::new()),
            compiling: RefCell::new(HashSet::new()),
            interp_base: RefCell::new(Env::root()),
            vm_base: RefCell::new(HashMap::new()),
            prelude_globals: RefCell::new(None),
            instances_interp: RefCell::new(HashMap::new()),
            instances_vm: RefCell::new(HashMap::new()),
            instantiating: RefCell::new(HashSet::new()),
            self_ref: RefCell::new(std::rc::Weak::new()),
            store_dir: RefCell::new(None),
            loader: RefCell::new(None),
            rehydrators: RefCell::new(HashMap::new()),
            artifact_digests: RefCell::new(HashMap::new()),
            env_digest: Cell::new(0),
        });
        *registry.self_ref.borrow_mut() = Rc::downgrade(&registry);

        // 4. compile the hosted prelude with a minimal phase-1 env
        let phase1_tmp = Env::root();
        phase1_tmp.install(phase1_values.iter().cloned());
        *registry.phase1_base.borrow_mut() = phase1_tmp.clone();
        let exp = Expander::new(
            table.clone(),
            &phase1_tmp,
            Symbol::intern("lagoon/prelude"),
            Rc::downgrade(&registry),
        );
        let body = lagoon_syntax::read_all(crate::prelude::PRELUDE_SOURCE, "lagoon/prelude")
            .expect("prelude parses");
        let scoped: Vec<Syntax> = body.iter().map(|f| f.add_scope(exp.module_scope)).collect();
        let core = exp.expand_module_forms(scoped).expect("prelude expands");
        let forms: Vec<CoreForm> = core
            .iter()
            .map(parse_form)
            .collect::<Result<_, _>>()
            .expect("prelude parses to core forms");

        // 5. publish the prelude's provides into the base environment
        for item in exp.provides.borrow().iter() {
            let binding = table
                .resolve(&item.internal)
                .expect("prelude provide resolves")
                .expect("prelude provide is bound");
            table.bind(item.external, ScopeSet::new(), binding);
        }

        // 6. per-engine base instances
        let interp_base = Env::root();
        interp_base.install(phase1_values.iter().cloned());
        Interp
            .eval_forms(&forms, &interp_base)
            .expect("prelude evaluates (interp)");
        *registry.interp_base.borrow_mut() = interp_base.clone();

        let code = Compiler::compile_module(&forms).expect("prelude compiles");
        let value_map: HashMap<Symbol, Value> = phase1_values.iter().cloned().collect();
        let (_, globals) = Vm
            .run_module(&code, |name| value_map.get(&name).cloned())
            .expect("prelude evaluates (vm)");
        let mut vm_base = value_map;
        vm_base.extend(globals.snapshot());
        *registry.prelude_globals.borrow_mut() = Some(globals);

        // 6.5 the compiled store re-interns symbol names on load, but the
        // prelude's globals are alpha-renamed gensyms that interning cannot
        // reach; alias each such global under its interned twin so decoded
        // bytecode resolves the same base environment, and digest the
        // resulting name set so artifacts compiled against a different
        // base read as stale.
        let twins: Vec<(Symbol, Symbol)> = vm_base
            .keys()
            .filter_map(|sym| {
                let interned = sym.with_str(Symbol::intern);
                (interned != *sym).then_some((*sym, interned))
            })
            .collect();
        for (orig, twin) in &twins {
            if let Some(v) = vm_base.get(orig).cloned() {
                vm_base.insert(*twin, v);
            }
            if let Some(v) = interp_base.lookup(*orig) {
                interp_base.define(*twin, v);
            }
        }
        // as_str (allocating) is intentional: the digest input needs
        // owned, sortable strings regardless
        let mut names: Vec<String> = vm_base.keys().map(|s| s.as_str()).collect();
        names.sort();
        names.dedup();
        let mut digest_input = Vec::new();
        for n in &names {
            digest_input.extend_from_slice(n.as_bytes());
            digest_input.push(0);
        }
        registry.env_digest.set(lagoon_syntax::fnv1a(&digest_input));
        *registry.vm_base.borrow_mut() = vm_base;

        // 7. the real phase-1 base: primitives + natives over the interp
        //    base (so transformers can call prelude functions)
        let phase1_base = Env::child(&interp_base);
        phase1_base.install(phase1_values);
        *registry.phase1_base.borrow_mut() = phase1_base;

        // 8. the base language itself
        registry.register_language(Language {
            name: Symbol::intern("lagoon"),
            exports: Vec::new(), // the base environment is ambient
            values: HashMap::new(),
        });

        registry
    }

    fn me(&self) -> std::rc::Weak<ModuleRegistry> {
        self.self_ref.borrow().clone()
    }

    /// Registers (or replaces) a module's source text.
    pub fn add_module(&self, name: &str, source: &str) {
        let name = Symbol::intern(name);
        self.sources.borrow_mut().insert(name, source.to_owned());
        self.compiled.borrow_mut().remove(&name);
        self.instances_interp.borrow_mut().remove(&name);
        self.instances_vm.borrow_mut().remove(&name);
    }

    /// Removes a module entirely: its source, compiled form, emptied
    /// instances ([`Self::reset_instances`]), and artifact-digest record
    /// (the on-disk artifact, if any, is left alone). The evaluation
    /// daemon uses this to drop per-request scratch modules so a
    /// long-lived worker's registry does not grow without bound.
    pub fn remove_module(&self, name: &str) {
        let name = Symbol::intern(name);
        self.sources.borrow_mut().remove(&name);
        self.compiled.borrow_mut().remove(&name);
        self.discard_instances(Some(name));
        self.artifact_digests.borrow_mut().remove(&name);
    }

    /// Drops all cached module instances (compiled modules are kept).
    /// Benchmarks use this to re-run a module's body from scratch.
    ///
    /// Each dropped instance is emptied first: a closure's environment
    /// points back at its instance's globals, so an instance that
    /// defines a function is an `Rc` cycle that dropping alone never
    /// frees. A closure still held elsewhere raises `unbound` when it
    /// next reads one of its module's globals.
    pub fn reset_instances(&self) {
        self.discard_instances(None);
    }

    /// Drops and empties the instances of `name`, or of every module.
    fn discard_instances(&self, name: Option<Symbol>) {
        let hit = |m: &Symbol| name.is_none_or(|n| n == *m);
        for (_, (env, _)) in self.instances_interp.borrow_mut().extract_if(|m, _| hit(m)) {
            env.clear();
        }
        for (_, (globals, _)) in self.instances_vm.borrow_mut().extract_if(|m, _| hit(m)) {
            globals.clear();
        }
    }

    /// A cheap fingerprint of the registry's *persistent* contents:
    /// registered sources, compiled modules, and languages. The daemon
    /// compares it across a request — when unchanged (the request only
    /// touched inline scratch modules, which `remove_module` already
    /// dropped), everything the request interned or bound is garbage,
    /// and the worker can truncate its symbol epoch and sweep the
    /// binding table. When it changed (the request warmed a new named
    /// module), the worker skips reclamation for that request; growth
    /// then converges to the named-module working set.
    pub fn persistent_footprint(&self) -> (usize, usize, usize) {
        (
            self.sources.borrow().len(),
            self.compiled.borrow().len(),
            self.languages.borrow().len(),
        )
    }

    /// Sweeps binding-table entries created by a discarded request
    /// world (see [`BindingTable::sweep`]); returns the number removed.
    /// Callers truncate the symbol epoch *first* so dead-symbol checks
    /// observe the truncation.
    pub fn sweep_ephemeral(&self, scope_watermark: u32) -> usize {
        self.table.sweep(scope_watermark)
    }

    /// Registers a language (a bundle of bindings for `#lang` lines).
    pub fn register_language(&self, lang: Language) {
        self.languages.borrow_mut().insert(lang.name, Rc::new(lang));
    }

    // ----- the compiled-module store -----

    /// Points the registry at a directory of `.lagc` artifacts, or
    /// disables the store with `None` (the default). See [`store`].
    pub fn set_store_dir(&self, dir: Option<PathBuf>) {
        *self.store_dir.borrow_mut() = dir;
    }

    /// Installs a lazy source resolver: when a required module has no
    /// registered source, the loader is consulted and its result
    /// memoized. Because `require` triggers compilation *during
    /// expansion*, this resolves macro-generated requires that no
    /// pre-scan of the source text could have seen.
    pub fn set_loader(&self, f: impl Fn(Symbol) -> Option<String> + 'static) {
        *self.loader.borrow_mut() = Some(Box::new(f));
    }

    /// Registers a rehydrator for persisted native-transformer exports
    /// carrying recipe tag `tag` (see
    /// [`NativeMacro::recipe`](crate::binding::NativeMacro::recipe)).
    pub fn register_rehydrator(
        &self,
        tag: &str,
        f: impl Fn(&Datum) -> Option<Rc<NativeMacro>> + 'static,
    ) {
        self.rehydrators
            .borrow_mut()
            .insert(Symbol::intern(tag), Rc::new(f));
    }

    /// Drops compiled modules and instances (sources, languages, and the
    /// binding table survive). The next `run` re-resolves every module —
    /// through the compiled store, when one is configured.
    pub fn reset_compiled(&self) {
        self.compiled.borrow_mut().clear();
        self.discard_instances(None);
    }

    /// The module's source text, consulting the lazy loader on a miss.
    fn source_of(&self, name: Symbol) -> Option<String> {
        if let Some(s) = self.sources.borrow().get(&name) {
            return Some(s.clone());
        }
        let loaded = {
            let loader = self.loader.borrow();
            loader.as_ref().and_then(|l| l(name))
        }?;
        self.sources.borrow_mut().insert(name, loaded.clone());
        Some(loaded)
    }

    /// The artifact checks a header decides on its own (see [`store`]'s
    /// "Validity"): the artifact names `name`, matches this session's
    /// base environment, and was compiled from the module's current
    /// source. `Err` says why the artifact is stale.
    fn check_header(&self, name: Symbol, header: &store::Header) -> Result<(), String> {
        if header.name != name {
            return Err(format!("artifact names module {}", header.name));
        }
        if header.env_digest != self.env_digest.get() {
            return Err("base environment changed".to_owned());
        }
        let Some(source) = self.source_of(name) else {
            return Err("module source unavailable".to_owned());
        };
        if header.source_digest != store::source_digest(&source) {
            return Err("source changed".to_owned());
        }
        Ok(())
    }

    /// The bytes of `name`'s artifact, when a store is configured and
    /// holds one.
    fn read_artifact(&self, name: Symbol) -> Option<Vec<u8>> {
        let dir = self.store_dir.borrow().clone()?;
        if !name.with_str(store::is_module_file_name) {
            return None;
        }
        std::fs::read(artifact_path(&dir, name)).ok()
    }

    /// Attempts to satisfy `compile(name)` from the on-disk store.
    ///
    /// # Errors
    ///
    /// Propagates dependency compilation failures; every *artifact*
    /// problem (corrupt bytes, stale digests, a recorded dependency that
    /// names no module) degrades to a cache miss with a diagnostic
    /// event, never an error or a panic.
    fn try_load_cached(&self, name: Symbol) -> Result<CacheOutcome, RtError> {
        use lagoon_diag::CacheStatus;
        let Some(bytes) = self.read_artifact(name) else {
            return Ok(CacheOutcome::Miss { reported: false });
        };
        let _t = lagoon_diag::time(lagoon_diag::Phase::Load, name);
        let stale = |detail: String| {
            lagoon_diag::cache_event(name, CacheStatus::Stale, detail);
            Ok(CacheOutcome::Miss { reported: true })
        };
        let corrupt = |e: lagoon_syntax::WireError| {
            lagoon_diag::cache_event(name, CacheStatus::Corrupt, e.to_string());
            Ok(CacheOutcome::Miss { reported: true })
        };
        let (header, body) = match store::decode_header(&bytes) {
            Ok(h) => h,
            Err(store::DecodeError::Version { found }) => {
                return stale(format!("format version {found}"));
            }
            Err(store::DecodeError::Corrupt(e)) => return corrupt(e),
        };
        if let Err(detail) = self.check_header(name, &header) {
            return stale(detail);
        }
        // dependencies: registered languages by constant digest; module
        // dependencies must themselves have come from the store, with the
        // digest this artifact was compiled against (a freshly compiled
        // dep uses live gensyms a decoded importer cannot reference)
        for (dep, recorded) in &header.dep_digests {
            if self.languages.borrow().contains_key(dep) {
                if *recorded != store::language_digest(*dep) {
                    return stale(format!("language {dep} changed"));
                }
                continue;
            }
            // a dependency back onto the modules being compiled, or one
            // that names no module: only a crafted or damaged artifact
            // records one, and loading it would recurse or fail. Any
            // other dependency that fails to compile fails the importer
            // too, whose unchanged source requires it.
            if self.compiling.borrow().contains(dep) {
                return stale(format!("dependency cycle through {dep}"));
            }
            if !self.compiled.borrow().contains_key(dep) && self.source_of(*dep).is_none() {
                return stale(format!("dependency {dep} names no module"));
            }
            self.compile(*dep)?;
            match self.artifact_digests.borrow().get(dep) {
                Some((digest, true)) if digest == recorded => {}
                _ => return stale(format!("dependency {dep} recompiled")),
            }
        }
        let rehydrators = self.rehydrators.borrow().clone();
        let artifact = match body.decode(header, &|tag, datum| {
            rehydrators.get(&tag).and_then(|f| f(datum))
        }) {
            Ok(a) => a,
            Err(e) => return corrupt(e),
        };
        // collision guard: decoding re-interns gensym names, so a global
        // this module defines must not collide with any name visible to
        // it — the base environment or a dependency's exports
        let mut visible: HashSet<Symbol> = self
            .vm_base
            .borrow()
            .keys()
            .map(|s| s.with_str(Symbol::intern))
            .collect();
        for (dep, _) in &artifact.header.dep_digests {
            if let Some(language) = self.languages.borrow().get(dep).cloned() {
                visible.extend(language.values.keys().map(|s| s.with_str(Symbol::intern)));
                continue;
            }
            if let Some(dep_compiled) = self.compiled.borrow().get(dep) {
                for (_, binding) in &dep_compiled.exports {
                    if let Binding::Variable(rt) = binding {
                        visible.insert(*rt);
                    }
                }
            }
        }
        for idx in &artifact.code.defined {
            if let Some(sym) = artifact.code.global_names.get(*idx as usize) {
                if visible.contains(sym) {
                    return stale(format!("symbol collision on {sym}"));
                }
            }
        }
        self.artifact_digests
            .borrow_mut()
            .insert(name, (artifact.header.digest, true));
        lagoon_diag::cache_event(name, CacheStatus::Hit, bytes.len());
        Ok(CacheOutcome::Hit(Rc::new(artifact.into_compiled())))
    }

    /// Decides from artifact headers alone whether `name`'s artifact is
    /// up to date, without decoding or compiling anything: the artifact
    /// passes the header checks a load applies first, and so, in turn,
    /// does every dependency it recorded — a registered language by its
    /// [`store::language_digest`], a module by the digest of its own
    /// verified artifact. The recorded dependencies include requires a
    /// macro generated, which no scan of the source text sees.
    ///
    /// True when the artifact is up to date; false when it is dirty:
    /// missing, stale, corrupt, or part of a recorded dependency cycle.
    /// `walk` memoizes the headers read and the verdicts reached; pass
    /// the same walk to every call. Each module found up to date emits
    /// one `hit` cache event; a dirty one emits nothing, since compiling
    /// it reports why.
    ///
    /// Dependencies are walked with an explicit stack, so a long chain
    /// does not deepen the native stack.
    pub fn verify_artifact(&self, name: Symbol, walk: &mut HeaderWalk) -> bool {
        enum Step {
            Enter(Symbol),
            /// The module passed its own checks, and its module
            /// dependencies, entered after it, are settled: compare
            /// their digests with the ones it recorded.
            Exit(Symbol, OwnHeader),
        }
        let mut stack = vec![Step::Enter(name)];
        // modules entered but not exited: the path from `name` down, so
        // a dependency found here closes a cycle
        let mut path: HashSet<Symbol> = HashSet::new();
        while let Some(step) = stack.pop() {
            match step {
                Step::Enter(m) => {
                    if path.contains(&m) || walk.verdicts.contains_key(&m) {
                        continue;
                    }
                    let Some(own) = self.verify_own_header(m, walk) else {
                        walk.verdicts.insert(m, None);
                        continue;
                    };
                    path.insert(m);
                    let deps: Vec<Step> =
                        own.deps.iter().map(|(dep, _)| Step::Enter(*dep)).collect();
                    stack.push(Step::Exit(m, own));
                    stack.extend(deps);
                }
                Step::Exit(m, own) => {
                    path.remove(&m);
                    let fresh = own
                        .deps
                        .iter()
                        .all(|(dep, recorded)| walk.verdicts.get(dep) == Some(&Some(*recorded)));
                    if fresh {
                        lagoon_diag::cache_event(
                            m,
                            lagoon_diag::CacheStatus::Hit,
                            format!("{} bytes, header verified", own.len),
                        );
                    }
                    walk.verdicts.insert(m, fresh.then_some(own.digest));
                }
            }
        }
        matches!(walk.verdicts.get(&name), Some(Some(_)))
    }

    /// The static require list `name`'s artifact recorded
    /// ([`CompiledModule::static_requires`]), when its header passes the
    /// checks a header decides on its own: the frame, the module name,
    /// the base environment and the source digest. For an artifact this
    /// binary wrote, the list is then exactly what [`static_requires`]
    /// reads from the current source, so a rebuild can take the module's
    /// graph edges from it without parsing the source. The list is graph
    /// data, not a validity check: the content digest is a hash, not a
    /// MAC, so a re-framed artifact can record any list.
    pub fn recorded_requires<'w>(
        &self,
        name: Symbol,
        walk: &'w mut HeaderWalk,
    ) -> Option<&'w [Symbol]> {
        let (header, _) = self.own_header(name, walk)?;
        Some(&header.static_requires)
    }

    /// `name`'s artifact header and length, read once per walk, when the
    /// header passes [`Self::check_header`].
    fn own_header<'w>(
        &self,
        name: Symbol,
        walk: &'w mut HeaderWalk,
    ) -> Option<&'w (store::Header, usize)> {
        walk.headers
            .entry(name)
            .or_insert_with(|| {
                let bytes = self.read_artifact(name)?;
                let (header, _) = store::decode_header(&bytes).ok()?;
                self.check_header(name, &header).ok()?;
                Some((header, bytes.len()))
            })
            .as_ref()
    }

    /// `verify_artifact`'s checks on one artifact, leaving its module
    /// dependencies to the caller: the header checks, and the digest of
    /// every registered language it recorded.
    fn verify_own_header(&self, name: Symbol, walk: &mut HeaderWalk) -> Option<OwnHeader> {
        let (header, len) = self.own_header(name, walk)?;
        let languages = self.languages.borrow();
        let mut deps = Vec::new();
        for &(dep, digest) in &header.dep_digests {
            if !languages.contains_key(&dep) {
                deps.push((dep, digest));
            } else if digest != store::language_digest(dep) {
                return None;
            }
        }
        Some(OwnHeader {
            digest: header.digest,
            deps,
            len: *len,
        })
    }

    /// Best-effort write of a fresh compile's artifact. Emits this
    /// compile's cache event unless the load side already `reported` why
    /// the module had to be recompiled. Write failures only disable
    /// caching — they never fail the compile.
    fn store_artifact(&self, compiled: &CompiledModule, reported: bool) {
        use lagoon_diag::CacheStatus;
        let miss = |detail: lagoon_diag::Val| {
            if !reported {
                lagoon_diag::cache_event(compiled.name, CacheStatus::Miss, detail);
            }
        };
        let Some(dir) = self.store_dir.borrow().clone() else {
            return;
        };
        let name = compiled.name;
        if !name.with_str(store::is_module_file_name) {
            miss("not cached: unstorable module name".into());
            return;
        }
        // this compile supersedes any digest recorded for an older artifact
        self.artifact_digests.borrow_mut().remove(&name);
        let mut dep_digests = Vec::with_capacity(compiled.requires.len());
        for dep in &compiled.requires {
            if self.languages.borrow().contains_key(dep) {
                dep_digests.push((*dep, store::language_digest(*dep)));
                continue;
            }
            match self.artifact_digests.borrow().get(dep) {
                Some((digest, _)) => dep_digests.push((*dep, *digest)),
                None => {
                    miss(format!("not cached: dependency {dep} is uncacheable").into());
                    let _ = std::fs::remove_file(artifact_path(&dir, name));
                    return;
                }
            }
        }
        let Some(source) = self.source_of(name) else {
            miss("not cached: module source unavailable".into());
            return;
        };
        let encoded = store::encode_with_digest(
            compiled,
            self.env_digest.get(),
            store::source_digest(&source),
            &dep_digests,
        );
        let (bytes, digest) = match encoded {
            Ok(encoded) => encoded,
            Err(e) => {
                miss(format!("not cached: {e}").into());
                let _ = std::fs::remove_file(artifact_path(&dir, name));
                return;
            }
        };
        let path = artifact_path(&dir, name);
        match std::fs::create_dir_all(&dir).and_then(|()| write_atomically(&path, &bytes)) {
            Ok(()) => {
                self.artifact_digests
                    .borrow_mut()
                    .insert(name, (digest, false));
                miss("compiled and stored".into());
            }
            Err(e) => miss(format!("not cached: {e}").into()),
        }
    }

    /// The compiled form of `name`, compiling it (and its dependencies)
    /// on demand.
    ///
    /// # Errors
    ///
    /// Returns errors for unknown modules, cyclic requires, and any
    /// read/expand/typecheck/compile failure.
    pub fn compile(&self, name: Symbol) -> Result<Rc<CompiledModule>, RtError> {
        if let Some(m) = self.compiled.borrow().get(&name) {
            return Ok(m.clone());
        }
        if !self.compiling.borrow_mut().insert(name) {
            return Err(RtError::user(format!(
                "cycle in module requires involving {name}"
            )));
        }
        let result: Result<Rc<CompiledModule>, RtError> = (|| match self.try_load_cached(name)? {
            CacheOutcome::Hit(m) => Ok(m),
            CacheOutcome::Miss { reported } => {
                let compiled = self.compile_inner(name)?;
                self.store_artifact(&compiled, reported);
                Ok(compiled)
            }
        })();
        self.compiling.borrow_mut().remove(&name);
        let compiled = result?;
        self.compiled.borrow_mut().insert(name, compiled.clone());
        Ok(compiled)
    }

    fn compile_inner(&self, name: Symbol) -> Result<Rc<CompiledModule>, RtError> {
        let source = self
            .source_of(name)
            .ok_or_else(|| RtError::user(format!("unknown module: {name}")))?;
        // Freshened names (expander renames, macro gensyms, typed
        // defensive wrappers) are a pure function of the module's name
        // and source text: any worker — thread or process — compiling
        // this module emits the same names, so parallel builds produce
        // byte-identical artifacts and names from different modules
        // cannot collide in serialized form. Scopes nest, so compiling
        // a dependency mid-expansion restores this module's counter.
        let _fresh = lagoon_syntax::fresh_scope(module_fresh_digest(name, &source));
        let module = {
            let _t = lagoon_diag::time(lagoon_diag::Phase::Read, name);
            let (module, read_errors) = name
                .with_str(|n| read_module_recover(&source, n))
                .map_err(|e| RtError::user(e.to_string()).with_span(e.span))?;
            if !read_errors.is_empty() {
                // the reader resynchronized at top-level form boundaries,
                // so report every problem in one go instead of the first
                let mut msg = if read_errors.len() == 1 {
                    read_errors[0].message.clone()
                } else {
                    format!("{} read errors in module {name}", read_errors.len())
                };
                if read_errors.len() > 1 {
                    for e in &read_errors {
                        msg.push_str(&format!("\n  {e}"));
                    }
                }
                return Err(RtError::user(msg).with_span(read_errors[0].span));
            }
            module
        };

        let exp = Expander::new(
            self.table.clone(),
            &self.phase1_base.borrow(),
            name,
            self.me(),
        );

        // import the language's bindings at the module scope
        self.import_language(&exp, module.lang, Span::synthetic())?;

        // wrap the body in (#%module-begin …) and expand
        let msc = exp.module_scope;
        let mut mb_items =
            vec![Syntax::ident(Symbol::intern("#%module-begin"), Span::synthetic()).add_scope(msc)];
        mb_items.extend(module.body.iter().map(|f| f.add_scope(msc)));
        let mb = Syntax::list(mb_items, Span::synthetic());
        let core = {
            let _t = lagoon_diag::time(lagoon_diag::Phase::Expand, name);
            exp.expand_module_begin(mb)?
        };

        let expanded: Vec<Syntax> = core
            .as_list()
            .map(|items| items[1..].to_vec())
            .unwrap_or_default();
        let (forms, code) = {
            let _t = lagoon_diag::time(lagoon_diag::Phase::Compile, name);
            let forms: Vec<CoreForm> = expanded.iter().map(parse_form).collect::<Result<_, _>>()?;
            let code = Compiler::compile_module(&forms)?;
            (forms, code)
        };

        // resolve provides into exports
        let mut exports: Vec<(Symbol, Binding)> = exp.extra_exports.borrow().clone();
        for item in exp.provides.borrow().iter() {
            let binding = self.table.resolve(&item.internal)?.ok_or_else(|| {
                RtError::new(
                    Kind::Unbound,
                    format!("provide: unbound identifier {}", item.internal),
                )
                .with_span(item.internal.span())
            })?;
            exports.push((item.external, binding));
        }

        let requires = exp.requires.borrow().clone();
        Ok(Rc::new(CompiledModule {
            name,
            lang: module.lang,
            exports,
            expanded,
            forms,
            code,
            requires,
            static_requires: static_requires(&module.body),
            persisted: exp.persisted(),
        }))
    }

    fn import_language(&self, exp: &Expander, lang: Symbol, span: Span) -> Result<(), RtError> {
        let language = self.languages.borrow().get(&lang).cloned();
        if let Some(language) = language {
            let msc = ScopeSet::new().with(exp.module_scope);
            for (name, binding) in &language.exports {
                exp.table.bind(*name, msc.clone(), binding.clone());
            }
            // language-provided native values are runtime dependencies
            if !language.values.is_empty() {
                exp.requires.borrow_mut().push(lang);
            }
            return Ok(());
        }
        // a module-backed language: import its exports
        if self.source_of(lang).is_some() {
            return self.import_into(exp, lang, span);
        }
        Err(RtError::user(format!("unknown language: {lang}")).with_span(span))
    }

    /// Imports module `dep`'s exports into the module being expanded by
    /// `exp`: binds the exports at the module scope, replays persisted
    /// compile-time declarations, and records the runtime dependency.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors for `dep`.
    pub fn import_into(&self, exp: &Expander, dep: Symbol, span: Span) -> Result<(), RtError> {
        let compiled = self.compile(dep).map_err(|e| e.with_span(span))?;
        let msc = ScopeSet::new().with(exp.module_scope);
        for (name, binding) in &compiled.exports {
            exp.table.bind(*name, msc.clone(), binding.clone());
        }
        exp.replay(&compiled.persisted);
        let mut requires = exp.requires.borrow_mut();
        if !requires.contains(&dep) {
            requires.push(dep);
        }
        Ok(())
    }

    // ----- instantiation -----

    /// Runs module `name` on the chosen engine, returning the value of the
    /// last top-level expression. Instances are cached per engine;
    /// dependencies are instantiated first.
    ///
    /// # Errors
    ///
    /// Propagates compilation and runtime errors.
    pub fn run(&self, name: &str, engine: EngineKind) -> Result<Value, RtError> {
        let name = Symbol::intern(name);
        match engine {
            EngineKind::Interp => self.instantiate_interp(name).map(|(_, v)| v),
            EngineKind::Vm => self.instantiate_vm(name).map(|(_, v)| v),
        }
    }

    /// The one request path — the embedding API, the CLI, the daemon and
    /// build workers all take it: runs `step` on module `name` behind
    /// the panic barrier ([`contained`]), recording into whatever
    /// diagnostics recorder the caller installed. A run compiles first,
    /// so its `run` span times execution alone, and counts the VM's
    /// opcodes into the record only when its step asks. A request that
    /// exhausts a budget records it as a `limits` row. Instances are left
    /// as they are: resetting them is the caller's choice.
    ///
    /// # Errors
    ///
    /// Propagates the step's errors, and reports a panic as an
    /// `internal` error.
    pub fn request(&self, name: &str, step: Step) -> Result<Outcome, RtError> {
        let module = Symbol::intern(name);
        let count_opcodes = matches!(
            step,
            Step::Run {
                count_opcodes: true,
                ..
            }
        );
        if count_opcodes {
            lagoon_vm::counters::reset();
        }
        let result = contained(|| match step {
            Step::Run { engine, .. } => {
                self.compile(module)?;
                lagoon_vm::counters::set_active(count_opcodes);
                let _t = lagoon_diag::time(lagoon_diag::Phase::Run, module);
                self.run(name, engine).map(Outcome::Value)
            }
            Step::Expand => self.expanded_body(name).map(Outcome::Forms),
            Step::Check => self.compile(module).map(|_| Outcome::Checked),
        });
        if count_opcodes {
            lagoon_vm::counters::set_active(false);
            for (op, class, fused, count) in lagoon_vm::counters::snapshot() {
                lagoon_diag::opcode(op, class.name(), fused, count);
            }
        }
        if let Err(e) = &result {
            if let Kind::ResourceExhausted { budget } = e.kind {
                lagoon_diag::limit_event_named(budget, module, e.span);
            }
        }
        result
    }

    fn guard_instantiation(&self, name: Symbol) -> Result<(), RtError> {
        if !self.instantiating.borrow_mut().insert(name) {
            return Err(RtError::user(format!(
                "cycle while instantiating module {name}"
            )));
        }
        Ok(())
    }

    fn instantiate_interp(&self, name: Symbol) -> Result<(Rc<Env>, Value), RtError> {
        if let Some((env, v)) = self.instances_interp.borrow().get(&name) {
            return Ok((env.clone(), v.clone()));
        }
        let compiled = self.compile(name)?;
        self.guard_instantiation(name)?;
        let result = (|| -> Result<(Rc<Env>, Value), RtError> {
            let env = Env::child(&self.interp_base.borrow());
            for dep in &compiled.requires {
                // a language registered with native values?
                if let Some(language) = self.languages.borrow().get(dep).cloned() {
                    env.install(language.values.iter().map(|(k, v)| (*k, v.clone())));
                    continue;
                }
                let (dep_env, _) = self.instantiate_interp(*dep)?;
                let dep_compiled = self.compile(*dep)?;
                for (_, binding) in &dep_compiled.exports {
                    if let Binding::Variable(rt) = binding {
                        if let Some(v) = dep_env.lookup(*rt) {
                            env.define(*rt, v);
                        }
                    }
                }
            }
            let value = Interp.eval_forms(&compiled.forms, &env)?;
            Ok((env, value))
        })();
        self.instantiating.borrow_mut().remove(&name);
        let (env, value) = result?;
        self.instances_interp
            .borrow_mut()
            .insert(name, (env.clone(), value.clone()));
        Ok((env, value))
    }

    fn instantiate_vm(&self, name: Symbol) -> Result<(Rc<Globals>, Value), RtError> {
        if let Some((g, v)) = self.instances_vm.borrow().get(&name) {
            return Ok((g.clone(), v.clone()));
        }
        let compiled = self.compile(name)?;
        self.guard_instantiation(name)?;
        let result = (|| -> Result<(Rc<Globals>, Value), RtError> {
            // gather import values: dependency exports + language natives
            let mut imports: HashMap<Symbol, Value> = HashMap::new();
            for dep in &compiled.requires {
                if let Some(language) = self.languages.borrow().get(dep).cloned() {
                    imports.extend(language.values.iter().map(|(k, v)| (*k, v.clone())));
                    continue;
                }
                let (dep_globals, _) = self.instantiate_vm(*dep)?;
                let dep_compiled = self.compile(*dep)?;
                for (_, binding) in &dep_compiled.exports {
                    if let Binding::Variable(rt) = binding {
                        if let Some(v) = dep_globals.get(*rt) {
                            imports.insert(*rt, v);
                        }
                    }
                }
            }
            let vm_base = self.vm_base.borrow();
            let (value, globals) = Vm.run_module(&compiled.code, |sym| {
                imports
                    .get(&sym)
                    .cloned()
                    .or_else(|| vm_base.get(&sym).cloned())
            })?;
            Ok((globals, value))
        })();
        self.instantiating.borrow_mut().remove(&name);
        let (globals, value) = result?;
        self.instances_vm
            .borrow_mut()
            .insert(name, (globals.clone(), value.clone()));
        Ok((globals, value))
    }

    /// Looks up an exported value from an instantiated module.
    ///
    /// # Errors
    ///
    /// Returns an error if the module does not export `export` as a
    /// runtime variable.
    pub fn exported_value(
        &self,
        module: &str,
        export: &str,
        engine: EngineKind,
    ) -> Result<Value, RtError> {
        let name = Symbol::intern(module);
        let export = Symbol::intern(export);
        let compiled = self.compile(name)?;
        let contracted_alias = Symbol::intern(&format!("{export}#contracted"));
        let rt = compiled
            .exports
            .iter()
            .find_map(|(ext, b)| match (ext, b) {
                (e, Binding::Variable(rt)) if *e == export => Some(*rt),
                _ => None,
            })
            .or_else(|| {
                // typed modules export an indirection macro under the
                // plain name; Rust embedders are untyped clients and get
                // the contract-protected variant
                compiled.exports.iter().find_map(|(ext, b)| match (ext, b) {
                    (e, Binding::Variable(rt)) if *e == contracted_alias => Some(*rt),
                    _ => None,
                })
            })
            .ok_or_else(|| {
                RtError::user(format!(
                    "{module} does not export a variable named {export}"
                ))
            })?;
        match engine {
            EngineKind::Interp => {
                let (env, _) = self.instantiate_interp(name)?;
                env.lookup(rt).ok_or_else(|| RtError::unbound(rt))
            }
            EngineKind::Vm => {
                let (globals, _) = self.instantiate_vm(name)?;
                globals.get(rt).ok_or_else(|| RtError::unbound(rt))
            }
        }
    }

    /// The expanded body of a module (compiling it if needed) — for tests
    /// and tools that inspect core forms. An artifact persists no
    /// expansion, so a module loaded from the store is expanded again
    /// from its source; that compile is neither stored nor cached, and
    /// leaves the registry's persistent footprint as it was.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors.
    pub fn expanded_body(&self, module: &str) -> Result<Vec<Syntax>, RtError> {
        let name = Symbol::intern(module);
        let compiled = self.compile(name)?;
        let loaded = matches!(self.artifact_digests.borrow().get(&name), Some((_, true)));
        if !loaded {
            return Ok(compiled.expanded.clone());
        }
        Ok(self.compile_inner(name)?.expanded.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagoon_vm::Engine;
    use std::rc::Weak;

    /// A module whose instances are `Rc` cycles: each closure points
    /// back at the globals (or env) that hold it.
    const DEFINES_A_FUNCTION: &str =
        "#lang lagoon\n(define (f x) (* x k))\n(define k 2)\n(define v (make-vector 1000 1.5))\nf\n";

    /// Runs `m` on both engines: weak handles on its two instances, and
    /// the closure each run returned.
    fn instantiate(reg: &ModuleRegistry) -> ((Weak<Globals>, Weak<Env>), (Value, Value)) {
        let m = Symbol::intern("m");
        let vm_f = reg.run("m", EngineKind::Vm).expect("vm run");
        let interp_f = reg.run("m", EngineKind::Interp).expect("interp run");
        let vm = Rc::downgrade(&reg.instances_vm.borrow()[&m].0);
        let interp = Rc::downgrade(&reg.instances_interp.borrow()[&m].0);
        ((vm, interp), (vm_f, interp_f))
    }

    #[test]
    fn discarded_instances_are_freed() {
        let reg = ModuleRegistry::new();
        for how in ["reset_instances", "reset_compiled", "remove_module"] {
            reg.add_module("m", DEFINES_A_FUNCTION);
            let ((vm, interp), _) = instantiate(&reg);
            match how {
                "reset_instances" => reg.reset_instances(),
                "reset_compiled" => reg.reset_compiled(),
                _ => reg.remove_module("m"),
            }
            assert!(vm.upgrade().is_none(), "{how} leaked the vm instance");
            assert!(
                interp.upgrade().is_none(),
                "{how} leaked the interp instance"
            );
        }
    }

    #[test]
    fn a_closure_outliving_its_instance_raises_unbound() {
        let reg = ModuleRegistry::new();
        reg.add_module("m", DEFINES_A_FUNCTION);
        let (_, (vm_f, interp_f)) = instantiate(&reg);
        let arg = [Value::Int(21)];
        assert_eq!(
            lagoon_vm::Vm.apply(&vm_f, &arg).expect("live").to_string(),
            "42"
        );
        reg.reset_instances();
        let vm = lagoon_vm::Vm
            .apply(&vm_f, &arg)
            .expect_err("discarded vm instance");
        let interp = Interp
            .apply(&interp_f, &arg)
            .expect_err("discarded interp instance");
        assert!(matches!(vm.kind, Kind::Unbound), "{vm}");
        assert!(matches!(interp.kind, Kind::Unbound), "{interp}");
    }

    #[test]
    fn a_dropped_registry_frees_its_instances_and_prelude_bases() {
        let reg = ModuleRegistry::new();
        reg.add_module("m", DEFINES_A_FUNCTION);
        let ((vm, interp), _) = instantiate(&reg);
        let interp_base = Rc::downgrade(&reg.interp_base.borrow());
        let prelude = Rc::downgrade(reg.prelude_globals.borrow().as_ref().expect("prelude"));
        let registry = Rc::downgrade(&reg);
        drop(reg);
        assert!(
            registry.upgrade().is_none(),
            "nothing else holds the registry"
        );
        assert!(vm.upgrade().is_none() && interp.upgrade().is_none());
        assert!(
            interp_base.upgrade().is_none(),
            "interp prelude base leaked"
        );
        assert!(prelude.upgrade().is_none(), "vm prelude instance leaked");
    }
}
