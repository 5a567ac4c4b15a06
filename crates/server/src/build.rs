//! The parallel build scheduler.
//!
//! [`build`] first *discovers* the module graph on one thread of its
//! own, header first, in one pass from the entry modules down that
//! fetches each source once and reads each artifact once. A module's
//! edges are its static requires: the modules its top-level
//! `(require …)` forms name ([`lagoon_core::static_requires`]). Every
//! artifact records that list, so when a module's header passes its own
//! checks (frame digest, name, environment digest, source digest)
//! discovery takes the edges from the header, and parses only the
//! sources with no usable header; a no-op rebuild parses none. The list
//! is graph data, not a validity check: a recorded edge naming a module
//! the loader cannot find sends discovery back to the source. Discovery
//! then checks each module's artifact from its header alone. A module
//! whose artifact is up to date ([`ModuleRegistry::verify_artifact`]:
//! its header and, transitively, its recorded dependencies' headers pass
//! the store's checks) is done: nothing decodes or compiles it. The
//! *dirty* modules are compiled as a wavefront across up to `jobs`
//! worker threads: a module becomes ready the moment its last dirty
//! dependency finishes, and no worker starts when nothing is dirty.
//!
//! Each worker owns a private [`ModuleRegistry`] — Lagoon values are
//! `Rc`-based and never cross threads — so workers exchange finished
//! modules only through the *serialized* `.lagc` artifacts in the shared
//! content-addressed store, where a compile loads each dependency with
//! every check the store has. Because gensym freshening is deterministic
//! per module content (see `lagoon_syntax::fresh_scope`), every worker
//! that compiles a given module writes byte-identical artifacts, and
//! `--jobs N` output is byte-identical to `--jobs 1`.
//!
//! A process-wide single-flight map backs the schedule up: requires the
//! static graph does not show (macros can synthesize `require` forms
//! during expansion) are claimed in the map by the first worker to need
//! them, and other workers briefly block and then load the artifact
//! from the store instead of re-compiling. Modules discovery found up
//! to date start out settled in the map, so loading one claims nothing.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use lagoon_core::{static_requires, HeaderWalk, ModuleRegistry, Step};
use lagoon_diag::trace::Trace;
use lagoon_diag::{Collector, Limits, Report};
use lagoon_syntax::{read_module, Symbol};

/// A source-text oracle: maps a module name to its `#lang` source.
/// Shared by discovery and every worker's lazy loader.
pub type SourceFn = Arc<dyn Fn(&str) -> Option<String> + Send + Sync>;

/// Returns a [`SourceFn`] resolving `<name>.lag` files under `root`:
/// the one module-file loader, shared by builds, the daemon and the CLI.
/// It refuses every name the store would not key an artifact by
/// ([`store::is_module_file_name`](lagoon_core::store::is_module_file_name)),
/// so lookups stay inside `root`.
pub fn dir_source(root: PathBuf) -> SourceFn {
    Arc::new(move |name: &str| {
        if !lagoon_core::store::is_module_file_name(name) {
            return None;
        }
        std::fs::read_to_string(root.join(format!("{name}.lag"))).ok()
    })
}

/// Options for [`build`].
pub struct BuildOptions {
    /// Worker thread count (clamped to at least 1).
    pub jobs: usize,
    /// The shared `.lagc` store directory. `None` still builds in
    /// parallel, but workers cannot exchange compiled modules, so every
    /// worker recompiles the dependencies it needs.
    pub cache_dir: Option<PathBuf>,
    /// Resource limits installed on every worker thread.
    pub limits: Limits,
    /// Whether the build returns its traces: the `discovery` span (with
    /// the store hits it verified, and notes counting the modules
    /// `verified`, those left `dirty` and the sources it `parsed`), and
    /// each worker's spans. Traces come back on [`BuildReport::traces`],
    /// one track each (see `lagoon_diag::trace`).
    pub trace: bool,
}

impl Default for BuildOptions {
    fn default() -> BuildOptions {
        BuildOptions {
            jobs: 1,
            cache_dir: None,
            limits: Limits::default(),
            trace: false,
        }
    }
}

/// What happened to one module during a build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModuleStatus {
    /// Up to date in the store (no worker), or compiled successfully.
    Built,
    /// Compilation failed; the message is the structured error rendered.
    Failed(String),
    /// Not attempted because a dependency failed.
    Skipped(String),
}

/// Per-module outcome row in a [`BuildReport`].
#[derive(Clone, Debug)]
pub struct ModuleOutcome {
    /// Module name.
    pub name: String,
    /// Outcome.
    pub status: ModuleStatus,
    /// Wall time spent compiling this module (zero when no worker did).
    pub duration: Duration,
    /// Index of the worker that compiled it: `None` when its artifact
    /// was up to date, or when it was not attempted.
    pub worker: Option<usize>,
}

/// Per-worker utilization row.
#[derive(Clone, Debug)]
pub struct WorkerRow {
    /// Time spent compiling modules (excludes idle waits).
    pub busy: Duration,
    /// Time spent constructing the worker's registry and languages.
    pub setup: Duration,
    /// Modules this worker finished.
    pub modules: usize,
}

/// The result of a parallel build.
#[derive(Debug)]
pub struct BuildReport {
    /// Worker count requested (at least 1).
    pub jobs: usize,
    /// End-to-end wall time, including discovery and worker setup.
    pub wall: Duration,
    /// Outcome per module of the static graph (the requires each
    /// source names, from the entries down), sorted by name.
    pub modules: Vec<ModuleOutcome>,
    /// Per-worker utilization, one row per worker started: at most one
    /// per dirty module, and none when every module was up to date.
    pub workers: Vec<WorkerRow>,
    /// Times a worker blocked on another worker's in-flight compile of
    /// the same module instead of starting a duplicate one.
    pub single_flight_waits: u64,
    /// Compiled-store hits across all workers.
    pub cache_hits: usize,
    /// Compiled-store misses across all workers.
    pub cache_misses: usize,
    /// The merged diagnostics report of discovery and every worker.
    pub diag: Report,
    /// Named trace tracks — `discovery`, then `worker 0`, `worker 1`, …
    /// — recorded only when [`BuildOptions::trace`] was set.
    pub traces: Vec<(String, Trace)>,
}

impl BuildReport {
    /// True when every module built.
    pub fn success(&self) -> bool {
        self.modules.iter().all(|m| m.status == ModuleStatus::Built)
    }

    /// Modules that failed or were skipped.
    pub fn failures(&self) -> Vec<&ModuleOutcome> {
        self.modules
            .iter()
            .filter(|m| m.status != ModuleStatus::Built)
            .collect()
    }

    /// Worker utilization: mean busy share of wall time across workers.
    pub fn utilization(&self) -> f64 {
        if self.workers.is_empty() || self.wall.is_zero() {
            return 0.0;
        }
        let busy: f64 = self.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
        busy / (self.wall.as_secs_f64() * self.workers.len() as f64)
    }

    /// The report as a JSON object (machine-readable `--stats` output).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"jobs\":{},\"wall_ms\":{:.3},\"utilization\":{:.4},\"single_flight_waits\":{},\"cache_hits\":{},\"cache_misses\":{}",
            self.jobs,
            self.wall.as_secs_f64() * 1e3,
            self.utilization(),
            self.single_flight_waits,
            self.cache_hits,
            self.cache_misses,
        );
        out.push_str(",\"modules\":[");
        for (i, m) in self.modules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (status, detail) = match &m.status {
                ModuleStatus::Built => ("built", String::new()),
                ModuleStatus::Failed(e) => ("failed", e.clone()),
                ModuleStatus::Skipped(d) => ("skipped", d.clone()),
            };
            let _ = write!(
                out,
                "{{\"name\":{},\"status\":\"{status}\",\"detail\":{},\"ms\":{:.3},\"worker\":{}}}",
                lagoon_diag::json_string(&m.name),
                lagoon_diag::json_string(&detail),
                m.duration.as_secs_f64() * 1e3,
                m.worker.map_or(-1i64, |w| w as i64),
            );
        }
        out.push_str("],\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"busy_ms\":{:.3},\"setup_ms\":{:.3},\"modules\":{}}}",
                w.busy.as_secs_f64() * 1e3,
                w.setup.as_secs_f64() * 1e3,
                w.modules,
            );
        }
        out.push_str("]}");
        out
    }
}

// ---------------------------------------------------------------------------
// Single-flight map
// ---------------------------------------------------------------------------

/// How long a worker waits on another worker's in-flight compile before
/// giving up and compiling locally. A duplicate compile is benign —
/// deterministic freshening makes both produce identical bytes and the
/// store write is atomic — so the timeout only bounds pathological
/// cross-worker waits (e.g. a macro-generated require cycle).
const FLIGHT_WAIT_CAP: Duration = Duration::from_secs(10);

enum FlightState {
    Building(ThreadId),
    Done,
}

/// What a [`SingleFlight::claim`] call found.
enum Claim {
    /// We claimed it: we are the builder and must call `finish`.
    Ours,
    /// Someone (possibly us, earlier) already built it, or we already
    /// hold the claim on this thread.
    Settled,
}

struct SingleFlight {
    state: Mutex<HashMap<String, FlightState>>,
    cv: Condvar,
    waits: AtomicU64,
}

impl SingleFlight {
    /// A map in which the modules `done` are already built.
    fn new(done: Vec<String>) -> SingleFlight {
        SingleFlight {
            state: Mutex::new(
                done.into_iter()
                    .map(|name| (name, FlightState::Done))
                    .collect(),
            ),
            cv: Condvar::new(),
            waits: AtomicU64::new(0),
        }
    }

    fn claim(&self, name: &str) -> Claim {
        let me = thread::current().id();
        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let deadline = Instant::now() + FLIGHT_WAIT_CAP;
        loop {
            match guard.get(name) {
                None => {
                    guard.insert(name.to_string(), FlightState::Building(me));
                    return Claim::Ours;
                }
                Some(FlightState::Done) => return Claim::Settled,
                Some(FlightState::Building(owner)) if *owner == me => return Claim::Settled,
                Some(FlightState::Building(_)) => {
                    self.waits.fetch_add(1, Ordering::Relaxed);
                    let now = Instant::now();
                    if now >= deadline {
                        // Give up waiting: compile locally (benign
                        // duplicate; see FLIGHT_WAIT_CAP).
                        return Claim::Settled;
                    }
                    let (g, _) = self
                        .cv
                        .wait_timeout(guard, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    guard = g;
                }
            }
        }
    }

    fn finish(&self, name: &str) {
        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        guard.insert(name.to_string(), FlightState::Done);
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Discovery
// ---------------------------------------------------------------------------

/// `name`'s source, asking `source_of` at most once per name.
fn fetch<'a>(
    fetched: &'a mut HashMap<String, Option<String>>,
    source_of: &SourceFn,
    name: &str,
) -> Option<&'a String> {
    fetched
        .entry(name.to_string())
        .or_insert_with(|| source_of(name))
        .as_ref()
}

/// The static graph, split by what the store already holds.
#[derive(Default)]
struct Discovery {
    /// Modules of the graph whose artifacts are up to date.
    verified: Vec<String>,
    /// Every module whose artifact the walk found up to date: the
    /// verified ones, and dependencies only a macro requires.
    settled: Vec<String>,
    /// Dirty modules, each with the modules its source requires.
    dirty: HashMap<String, Vec<String>>,
    /// Modules with no source, or whose source failed to read (with why).
    failures: Vec<(String, String)>,
    /// The `hit` rows of the settled modules.
    report: Report,
    trace: Option<Trace>,
}

/// A registry set up the way every build thread needs it.
fn build_registry(opts: &BuildOptions) -> std::rc::Rc<ModuleRegistry> {
    let registry = ModuleRegistry::new();
    lagoon_optimizer::register_typed_languages(&registry);
    registry.set_store_dir(opts.cache_dir.clone());
    registry
}

/// Walks the static graph from `entries` — the requires each source
/// names — and then verifies each module's artifact from its header,
/// inside one `discovery` span. A module's edges come from its
/// artifact's recorded list when its header passes its own checks, and
/// from parsing its source otherwise. Runs on a thread of its own, so
/// the caller's thread-local diagnostics and limits are untouched.
fn discover(entries: &[String], source_of: &SourceFn, opts: &BuildOptions) -> Discovery {
    let registry = build_registry(opts);
    {
        let source_of = Arc::clone(source_of);
        registry.set_loader(move |name: Symbol| source_of(&name.as_str()));
    }
    let collector = Collector::install();
    let span = lagoon_diag::trace::start("discovery", None);
    let mut found = Discovery::default();
    let mut walk = HeaderWalk::default();
    let mut fetched: HashMap<String, Option<String>> = HashMap::new();
    let mut parsed = 0usize;
    let mut graph: Vec<(String, Vec<String>)> = Vec::new();
    let mut queue: VecDeque<String> = entries.iter().cloned().collect();
    let mut seen: HashSet<String> = HashSet::new();
    while let Some(name) = queue.pop_front() {
        if !seen.insert(name.clone()) {
            continue;
        }
        let Some(source) = fetch(&mut fetched, source_of, &name).cloned() else {
            found.failures.push((name, "module not found".to_string()));
            continue;
        };
        // the header checks read the source from the registry
        registry.add_module(&name, &source);
        let recorded = registry
            .recorded_requires(Symbol::intern(&name), &mut walk)
            .map(|deps| deps.iter().map(|d| d.as_str()).collect::<Vec<_>>())
            // a recorded edge the loader cannot resolve is not trusted:
            // the source decides instead
            .filter(|deps| {
                deps.iter()
                    .all(|d| fetch(&mut fetched, source_of, d).is_some())
            });
        let deps = match recorded {
            Some(deps) => deps,
            None => {
                parsed += 1;
                match read_module(&source, &name) {
                    Ok(module) => static_requires(&module.body)
                        .iter()
                        .map(|d| d.as_str())
                        .collect(),
                    Err(e) => {
                        found.failures.push((name, format!("read error: {e:?}")));
                        continue;
                    }
                }
            }
        };
        queue.extend(deps.iter().cloned());
        graph.push((name, deps));
    }
    for (name, deps) in graph {
        if registry.verify_artifact(Symbol::intern(&name), &mut walk) {
            found.verified.push(name);
        } else {
            found.dirty.insert(name, deps);
        }
    }
    found.settled = walk.up_to_date().map(|m| m.as_str()).collect();
    lagoon_diag::trace::note("verified", found.verified.len());
    lagoon_diag::trace::note("dirty", found.dirty.len() + found.failures.len());
    lagoon_diag::trace::note("parsed", parsed);
    drop(span);
    lagoon_diag::uninstall();
    found.report = collector.report();
    found.trace = opts.trace.then(|| collector.trace());
    found
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

struct SchedState {
    ready: VecDeque<String>,
    /// Unfinished dependency count per not-yet-ready module.
    waiting: HashMap<String, usize>,
    /// Reverse edges: module → modules that require it.
    dependents: HashMap<String, Vec<String>>,
    /// Modules poisoned by a failed dependency (name → failed dep).
    poisoned: HashMap<String, String>,
    /// Modules not yet finished (built, failed, or skipped).
    remaining: usize,
    /// Jobs currently being compiled by a worker.
    in_flight: usize,
    outcomes: Vec<ModuleOutcome>,
}

struct Scheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl Scheduler {
    /// Blocks until a module is ready or the build is over. Detects
    /// stalls (a dependency cycle leaves modules waiting forever with
    /// nothing in flight) and fails the stragglers rather than hanging.
    fn next_job(&self) -> Option<String> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = s.ready.pop_front() {
                s.in_flight += 1;
                return Some(job);
            }
            if s.remaining == 0 {
                return None;
            }
            if s.in_flight == 0 {
                // Nothing ready, nothing running, modules left: the
                // static graph has a require cycle.
                let stuck: Vec<String> = s.waiting.keys().cloned().collect();
                for name in stuck {
                    s.waiting.remove(&name);
                    s.remaining -= 1;
                    s.outcomes.push(ModuleOutcome {
                        name,
                        status: ModuleStatus::Failed("require cycle".to_string()),
                        duration: Duration::ZERO,
                        worker: None,
                    });
                }
                self.cv.notify_all();
                return None;
            }
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Records a finished job and releases any modules it unblocks.
    fn complete(&self, outcome: ModuleOutcome) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.in_flight -= 1;
        s.remaining -= 1;
        let name = outcome.name.clone();
        let failed = !matches!(outcome.status, ModuleStatus::Built);
        s.outcomes.push(outcome);
        // Propagate to dependents; cascade skips through failed chains.
        let mut frontier = vec![(name, failed)];
        while let Some((done, done_failed)) = frontier.pop() {
            let Some(deps) = s.dependents.get(&done).cloned() else {
                continue;
            };
            for dependent in deps {
                if done_failed {
                    s.poisoned.entry(dependent.clone()).or_insert(done.clone());
                }
                let Some(left) = s.waiting.get_mut(&dependent) else {
                    continue;
                };
                *left -= 1;
                if *left > 0 {
                    continue;
                }
                s.waiting.remove(&dependent);
                if let Some(bad_dep) = s.poisoned.get(&dependent).cloned() {
                    s.remaining -= 1;
                    s.outcomes.push(ModuleOutcome {
                        name: dependent.clone(),
                        status: ModuleStatus::Skipped(format!("dependency {bad_dep} failed")),
                        duration: Duration::ZERO,
                        worker: None,
                    });
                    frontier.push((dependent, true));
                } else {
                    s.ready.push_back(dependent);
                }
            }
        }
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

struct WorkerResult {
    index: usize,
    row: WorkerRow,
    report: Report,
    trace: Option<Trace>,
}

fn rt_error_text(e: &lagoon_runtime::RtError) -> String {
    format!("{}: {}", e.kind, e.message)
}

fn worker_loop(
    index: usize,
    sched: &Scheduler,
    flight: &Arc<SingleFlight>,
    source_of: &SourceFn,
    opts: &BuildOptions,
) -> WorkerResult {
    let collector = Collector::install();

    let setup_start = Instant::now();
    let registry = build_registry(opts);
    lagoon_diag::limits::install(opts.limits);
    // Names this worker claimed in the single-flight map from inside the
    // loader (statically invisible requires); released after the
    // enclosing top-level compile returns.
    let claimed = std::rc::Rc::new(std::cell::RefCell::new(Vec::<String>::new()));
    {
        let source_of = Arc::clone(source_of);
        let claimed = std::rc::Rc::clone(&claimed);
        let flight = Arc::clone(flight);
        registry.set_loader(move |name: Symbol| {
            let name = name.as_str();
            if let Claim::Ours = flight.claim(&name) {
                claimed.borrow_mut().push(name.clone());
            }
            source_of(&name)
        });
    }
    let setup = setup_start.elapsed();

    let mut row = WorkerRow {
        busy: Duration::ZERO,
        setup,
        modules: 0,
    };
    while let Some(job) = sched.next_job() {
        let start = Instant::now();
        let claim = flight.claim(&job);
        let result = registry.request(&job, Step::Check);
        if let Claim::Ours = claim {
            flight.finish(&job);
        }
        for name in claimed.borrow_mut().drain(..) {
            flight.finish(&name);
        }
        let duration = start.elapsed();
        row.busy += duration;
        row.modules += 1;
        let status = match result {
            Ok(_) => ModuleStatus::Built,
            Err(e) => ModuleStatus::Failed(rt_error_text(&e)),
        };
        sched.complete(ModuleOutcome {
            name: job,
            status,
            duration,
            worker: Some(index),
        });
    }
    lagoon_diag::uninstall();
    // the views are taken here: the record's symbols mean nothing on the
    // scheduler's thread
    WorkerResult {
        index,
        row,
        report: collector.report(),
        trace: opts.trace.then(|| collector.trace()),
    }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Builds `entries` (and everything they require) across up to
/// `opts.jobs` worker threads, compiling into the shared `.lagc` store
/// only the modules whose artifacts are not up to date.
pub fn build(entries: &[String], source_of: SourceFn, opts: &BuildOptions) -> BuildReport {
    let start = Instant::now();
    let jobs = opts.jobs.max(1);

    let found = thread::scope(|scope| {
        scope
            .spawn(|| discover(entries, &source_of, opts))
            .join()
            .unwrap_or_else(|_| Discovery {
                failures: entries
                    .iter()
                    .map(|e| (e.clone(), "internal error: discovery panicked".to_string()))
                    .collect(),
                ..Discovery::default()
            })
    });

    // Wavefront setup over the dirty modules: count unfinished deps,
    // record reverse edges.
    let mut waiting: HashMap<String, usize> = HashMap::new();
    let mut dependents: HashMap<String, Vec<String>> = HashMap::new();
    let mut ready: VecDeque<String> = VecDeque::new();
    for (name, ds) in &found.dirty {
        // Only dirty deps gate scheduling: an up-to-date one is already
        // in the store, and one that failed to read is reported by the
        // compile that needs it.
        let gating: Vec<&String> = ds.iter().filter(|d| found.dirty.contains_key(*d)).collect();
        if gating.is_empty() {
            ready.push_back(name.clone());
        } else {
            waiting.insert(name.clone(), gating.len());
            for d in gating {
                dependents.entry(d.clone()).or_default().push(name.clone());
            }
        }
    }
    let failed = found.failures.into_iter().map(|(name, why)| ModuleOutcome {
        name,
        status: ModuleStatus::Failed(why),
        duration: Duration::ZERO,
        worker: None,
    });
    let up_to_date = found.verified.into_iter().map(|name| ModuleOutcome {
        name,
        status: ModuleStatus::Built,
        duration: Duration::ZERO,
        worker: None,
    });
    let mut outcomes: Vec<ModuleOutcome> = failed.chain(up_to_date).collect();

    let remaining = found.dirty.len();
    let sched = Scheduler {
        state: Mutex::new(SchedState {
            ready,
            waiting,
            dependents,
            poisoned: HashMap::new(),
            remaining,
            in_flight: 0,
            outcomes: Vec::new(),
        }),
        cv: Condvar::new(),
    };
    // Up-to-date modules are built already: a worker that loads one as
    // a dependency must not claim it, or other workers that need it
    // would wait for that worker's whole job.
    let flight = Arc::new(SingleFlight::new(found.settled));

    let started = jobs.min(remaining);
    let mut worker_results: Vec<WorkerResult> = Vec::with_capacity(started);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..started)
            .map(|i| {
                let sched = &sched;
                let flight = &flight;
                let source_of = &source_of;
                scope.spawn(move || worker_loop(i, sched, flight, source_of, opts))
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(r) => worker_results.push(r),
                Err(_) => worker_results.push(WorkerResult {
                    index: worker_results.len(),
                    row: WorkerRow {
                        busy: Duration::ZERO,
                        setup: Duration::ZERO,
                        modules: 0,
                    },
                    report: Report::default(),
                    trace: None,
                }),
            }
        }
    });

    let state = sched.state.into_inner().unwrap_or_else(|e| e.into_inner());
    outcomes.extend(state.outcomes);

    let mut diag = found.report;
    let mut workers = Vec::with_capacity(worker_results.len());
    let mut traces: Vec<(String, Trace)> = found
        .trace
        .map(|t| ("discovery".to_string(), t))
        .into_iter()
        .collect();
    for r in worker_results {
        workers.push(r.row);
        diag.merge(r.report);
        if let Some(t) = r.trace {
            traces.push((format!("worker {}", r.index), t));
        }
    }
    // Count store traffic from the merged cache events, but only for
    // modules in this build's graph: worker registries also hit the
    // store for the prelude and language modules.
    let graph: HashSet<String> = outcomes.iter().map(|o| o.name.clone()).collect();
    let in_graph = |m: &str| graph.contains(m);
    let cache_hits = diag
        .caches
        .iter()
        .filter(|c| c.status == "hit" && in_graph(&c.module))
        .count();
    let cache_misses = diag
        .caches
        .iter()
        .filter(|c| c.status == "miss" && in_graph(&c.module))
        .count();

    // Stable order for reporting: completion order is nondeterministic
    // across workers, so sort by name for byte-stable JSON.
    outcomes.sort_by(|a, b| a.name.cmp(&b.name));

    BuildReport {
        jobs,
        wall: start.elapsed(),
        modules: outcomes,
        workers,
        single_flight_waits: flight.waits.load(Ordering::Relaxed),
        cache_hits,
        cache_misses,
        diag,
        traces,
    }
}

/// Builds from an in-memory map of module sources (tests, benches).
pub fn build_from_map(
    entries: &[String],
    sources: BTreeMap<String, String>,
    opts: &BuildOptions,
) -> BuildReport {
    let sources = Arc::new(sources);
    build(
        entries,
        Arc::new(move |name: &str| sources.get(name).cloned()),
        opts,
    )
}
