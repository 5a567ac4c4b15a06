//! # lagoon-diag
//!
//! A zero-dependency diagnostics subsystem threaded through every layer of
//! the Lagoon pipeline: the reader/expander, the typechecker, the
//! type-driven optimizer, the bytecode VM, and the contract system all
//! write into one thread-local *record*. The record holds spans — timed
//! pipeline phases and per-form expansion, plus zero-duration points for
//! optimizer rewrites and near misses, store lookups and limit hits — and
//! counts that add in place (macro steps, contract crossings, VM profile
//! samples, …), so it grows with program structure, not executed work.
//!
//! Recording is **off by default**: every emission site checks whether a
//! recorder is installed (one thread-local read), so uninstrumented code
//! pays one branch. A consumer installs a recorder around the work it
//! wants to observe and reads views of the finished record:
//!
//! ```
//! use lagoon_diag::{Collector, Phase};
//! use lagoon_syntax::Symbol;
//!
//! let collector = Collector::install();
//! {
//!     let _timer = lagoon_diag::time(Phase::Expand, Symbol::intern("main"));
//!     lagoon_diag::count("macro-steps", Symbol::intern("main"), 1);
//! }
//! lagoon_diag::uninstall();
//! let report = collector.report();
//! assert_eq!(report.phases.len(), 1);
//! assert_eq!(collector.trace().spans.len(), 1);
//! ```
//!
//! [`Report`] holds the tables the CLI (`lagoon run --stats`) and the
//! daemon print, rendered as text or as a [`json::Json`] value;
//! [`trace::Trace`] is the span tree `--trace` exports. [`json`] is the
//! workspace's one JSON value, parser and writer: every machine-readable
//! view and every wire body is built and rendered through it (this
//! crate deliberately depends on nothing but `lagoon-syntax`, for
//! [`Span`]s). The record keeps symbols, spans and unrendered [`Val`]ues,
//! so only the views format strings.

#![warn(missing_docs)]

pub mod gen;
pub mod json;
pub mod limits;
pub mod trace;

pub use limits::{Budget, Exhausted, FaultPlan, Limits};

use json::{obj, Json};
use lagoon_syntax::{Span, Symbol};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt::{self, Write as _};
use std::rc::Rc;
use std::time::Instant;
use trace::{SpanGuard, Trace};

// ---------------------------------------------------------------------
// the record
// ---------------------------------------------------------------------

/// A pipeline phase, timed by [`time`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Reading source text into syntax objects.
    Read,
    /// Macro expansion down to core forms (for typed modules this phase
    /// *contains* typechecking and optimization, which also report their
    /// own nested phases).
    Expand,
    /// Typechecking a typed module (nested inside [`Phase::Expand`]).
    Typecheck,
    /// The type-driven optimizer pass (nested inside [`Phase::Expand`]).
    Optimize,
    /// Parsing core forms and compiling them to bytecode.
    Compile,
    /// Loading a compiled artifact from the on-disk store (replaces
    /// read/expand/check/compile on a warm cache hit).
    Load,
    /// Instantiating and running module bodies.
    Run,
}

impl Phase {
    const ALL: [Phase; 7] = [
        Phase::Read,
        Phase::Expand,
        Phase::Typecheck,
        Phase::Optimize,
        Phase::Compile,
        Phase::Load,
        Phase::Run,
    ];

    /// The lower-case display name used in tables, JSON and span tags.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Read => "read",
            Phase::Expand => "expand",
            Phase::Typecheck => "typecheck",
            Phase::Optimize => "optimize",
            Phase::Compile => "compile",
            Phase::Load => "load",
            Phase::Run => "run",
        }
    }
}

/// What happened when the compiled-module store was consulted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// A fresh artifact was loaded; compilation was skipped.
    Hit,
    /// No artifact existed (or the module is uncacheable); compiled
    /// from source.
    Miss,
    /// An artifact existed but was out of date (source, dependency, or
    /// environment changed); recompiled.
    Stale,
    /// An artifact existed but failed to decode; recompiled.
    Corrupt,
}

impl CacheStatus {
    /// The lower-case display name used in tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Stale => "stale",
            CacheStatus::Corrupt => "corrupt",
        }
    }
}

/// A span note's value, kept unrendered in the record; views format it.
#[derive(Clone, Debug, PartialEq)]
pub enum Val {
    /// A fixed string.
    Str(&'static str),
    /// A name; rendered without its gensym suffix.
    Sym(Symbol),
    /// A number.
    Num(u64),
    /// Text built at the emission site.
    Text(String),
}

impl From<&'static str> for Val {
    fn from(s: &'static str) -> Val {
        Val::Str(s)
    }
}

impl From<String> for Val {
    fn from(s: String) -> Val {
        Val::Text(s)
    }
}

impl From<usize> for Val {
    fn from(n: usize) -> Val {
        Val::Num(n as u64)
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Str(s) => f.write_str(s),
            Val::Sym(s) => s.with_str(|n| f.write_str(lagoon_syntax::strip_gensym(n))),
            Val::Num(n) => write!(f, "{n}"),
            Val::Text(s) => f.write_str(s),
        }
    }
}

/// Completed spans one record keeps. Once the ring fills, the oldest
/// span is dropped and counted; counts are never dropped.
pub const SPAN_CAPACITY: usize = 65_536;

/// One span: a phase tag, an optional label (usually the module), its
/// interval on the record's clock, an optional source location, and
/// notes. Decision points are spans with zero duration.
pub(crate) struct SpanRec {
    pub(crate) id: u64,
    pub(crate) parent: Option<u64>,
    pub(crate) phase: &'static str,
    pub(crate) label: Option<Symbol>,
    pub(crate) start_ns: u64,
    pub(crate) dur_ns: u64,
    pub(crate) src: Option<Span>,
    pub(crate) notes: Vec<(&'static str, Val)>,
}

impl SpanRec {
    fn note(&self, key: &str) -> Option<&Val> {
        self.notes.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// A note that holds a fixed string (`""` when absent).
    fn tag(&self, key: &str) -> &'static str {
        match self.note(key) {
            Some(Val::Str(s)) => s,
            _ => "",
        }
    }

    fn text(&self, key: &str) -> String {
        self.note(key).map(Val::to_string).unwrap_or_default()
    }

    fn module(&self) -> String {
        self.label.map(|m| m.as_str()).unwrap_or_default()
    }
}

/// What a count adds up.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Key {
    /// A named counter of a module.
    Counter(&'static str, Symbol),
    /// Calls through one contracted boundary: export, positive and
    /// negative blame parties.
    Crossing(Option<Symbol>, Symbol, Symbol),
    /// VM profile samples in one function (`None`: anonymous code).
    Sample(Option<Symbol>),
    /// Executions of one opcode: mnemonic, class, fused.
    Opcode(&'static str, &'static str, bool),
}

/// One thread's recording: the open-span stack, the ring of completed
/// spans, and the counts.
pub(crate) struct Record {
    epoch: Instant,
    next_id: u64,
    /// The open-span stack; the last entry is the innermost span.
    pub(crate) open: Vec<SpanRec>,
    /// Completed spans, oldest completion first, bounded by `cap`.
    pub(crate) done: VecDeque<SpanRec>,
    cap: usize,
    pub(crate) dropped: u64,
    /// Each count's first-seen rank and total.
    counts: HashMap<Key, (usize, u64)>,
}

impl Record {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// A span starting now under the innermost open span.
    fn span(&mut self, phase: &'static str, label: Option<Symbol>, src: Option<Span>) -> SpanRec {
        let id = self.next_id;
        self.next_id += 1;
        SpanRec {
            id,
            parent: self.open.last().map(|s| s.id),
            phase,
            label,
            start_ns: self.now_ns(),
            dur_ns: 0,
            src,
            notes: Vec::new(),
        }
    }

    pub(crate) fn open(
        &mut self,
        phase: &'static str,
        label: Option<Symbol>,
        src: Option<Span>,
    ) -> u64 {
        let span = self.span(phase, label, src);
        let id = span.id;
        self.open.push(span);
        id
    }

    pub(crate) fn close_top(&mut self) {
        let Some(mut span) = self.open.pop() else {
            return;
        };
        span.dur_ns = self.now_ns().saturating_sub(span.start_ns);
        self.finish(span);
    }

    /// Records a zero-duration span under the innermost open span, or
    /// at top level when none is open.
    fn point(
        &mut self,
        phase: &'static str,
        module: Symbol,
        src: Option<Span>,
        notes: Vec<(&'static str, Val)>,
    ) {
        let mut span = self.span(phase, Some(module), src);
        span.notes = notes;
        self.finish(span);
    }

    fn finish(&mut self, span: SpanRec) {
        if self.done.len() >= self.cap {
            self.done.pop_front();
            self.dropped += 1;
        }
        self.done.push_back(span);
    }

    fn add(&mut self, key: Key, delta: u64) {
        let rank = self.counts.len();
        self.counts.entry(key).or_insert((rank, 0)).1 += delta;
    }

    /// The counts in first-seen order.
    pub(crate) fn counts(&self) -> Vec<(Key, u64)> {
        let mut counts: Vec<_> = self.counts.iter().map(|(k, v)| (*k, *v)).collect();
        counts.sort_by_key(|(_, (rank, _))| *rank);
        counts.into_iter().map(|(k, (_, n))| (k, n)).collect()
    }

    fn report(&self) -> Report {
        let mut report = Report::default();
        for s in &self.done {
            let at = || s.src.map(|src| src.to_string()).unwrap_or_default();
            let line = s.src.map_or(0, |src| src.line);
            match s.phase {
                "rewrite" => report.rewrites.push(RewriteRow {
                    family: s.tag("family"),
                    op: s.text("op"),
                    rule: s.text("rule"),
                    module: s.module(),
                    span: at(),
                    line,
                }),
                "near-miss" => report.near_misses.push(NearMissRow {
                    family: s.tag("family"),
                    op: s.text("op"),
                    module: s.module(),
                    span: at(),
                    line,
                    reason: s.text("reason"),
                }),
                "store" => report.caches.push(CacheRow {
                    module: s.module(),
                    status: s.tag("store"),
                    detail: match s.note("detail") {
                        Some(Val::Num(bytes)) => format!("{bytes} bytes"),
                        detail => detail.map(Val::to_string).unwrap_or_default(),
                    },
                }),
                "limit" => report.limits.push(LimitRow {
                    budget: s.text("budget"),
                    module: s.module(),
                    span: at(),
                }),
                tag => {
                    if let Some(phase) = Phase::ALL.into_iter().find(|p| p.name() == tag) {
                        report.phases.push(PhaseRow {
                            module: s.module(),
                            phase: phase.name(),
                            nanos: u128::from(s.dur_ns),
                        });
                    }
                }
            }
        }
        for (key, value) in self.counts() {
            match key {
                Key::Counter(name, module) => report.counters.push(CounterRow {
                    module: module.as_str(),
                    name: name.to_string(),
                    value,
                }),
                Key::Crossing(export, positive, negative) => add_contract(
                    &mut report.contracts,
                    ContractRow {
                        export: export
                            .map_or_else(|| "<anonymous>".to_string(), |e| Val::Sym(e).to_string()),
                        positive: positive.as_str(),
                        negative: negative.as_str(),
                        count: value,
                    },
                ),
                Key::Opcode(op, class, fused) => report.opcodes.push(OpcodeRow {
                    op: op.to_string(),
                    class: class.to_string(),
                    fused,
                    count: value,
                }),
                Key::Sample(_) => {}
            }
        }
        report
            .opcodes
            .sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.op.cmp(&b.op)));
        report
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Rc<RefCell<Record>>>> = const { RefCell::new(None) };
}

/// Runs `f` on this thread's record; `None` (and `f` never runs) when
/// no recorder is installed.
pub(crate) fn with_record<R>(f: impl FnOnce(&mut Record) -> R) -> Option<R> {
    RECORDER.with(|r| r.borrow().as_ref().map(|rec| f(&mut rec.borrow_mut())))
}

/// True when a recorder is installed on this thread. Sites whose
/// emission is not free (formatting a near-miss reason, say) guard on
/// this.
#[inline]
pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// A handle on one installed record. Its views — [`Collector::report`],
/// [`Collector::trace`] and the daemon's two summaries — are pure
/// functions of the record and stay valid after [`uninstall`].
///
/// A symbol means something only on the thread that interned it, and
/// the record holds symbols, so take views on the recording thread: the
/// views render every symbol to a string and can then cross threads.
#[derive(Clone)]
pub struct Collector(Rc<RefCell<Record>>);

impl Collector {
    /// Installs a fresh record as this thread's recorder, replacing any
    /// previous one, and returns a handle on it.
    pub fn install() -> Collector {
        Collector::install_with_capacity(SPAN_CAPACITY)
    }

    pub(crate) fn install_with_capacity(cap: usize) -> Collector {
        let record = Rc::new(RefCell::new(Record {
            epoch: Instant::now(),
            next_id: 0,
            open: Vec::new(),
            done: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
            counts: HashMap::new(),
        }));
        RECORDER.with(|r| *r.borrow_mut() = Some(Rc::clone(&record)));
        Collector(record)
    }

    /// The `--stats` view: phase rows, counters, the optimizer decision
    /// log, contract crossings, limit hits, store lookups and opcodes.
    pub fn report(&self) -> Report {
        self.0.borrow().report()
    }

    /// The `--trace` view: the completed spans, rendered.
    pub fn trace(&self) -> Trace {
        self.0.borrow().trace()
    }

    /// [`Report::timing_buckets`] without building the report.
    pub fn timing_buckets(&self) -> [(&'static str, u128); 6] {
        let record = self.0.borrow();
        buckets(record.done.iter().map(|s| (s.phase, u128::from(s.dur_ns))))
    }

    /// Store lookups that hit, and those that ended in compilation,
    /// without building the report.
    pub fn cache_counts(&self) -> (usize, usize) {
        let record = self.0.borrow();
        let lookups = record.done.iter().filter(|s| s.phase == "store");
        let hits = lookups.clone().filter(|s| s.tag("store") == "hit").count();
        (hits, lookups.count() - hits)
    }
}

/// Removes this thread's recorder, closing any spans an unwinding error
/// left open at the current time.
pub fn uninstall() {
    if let Some(record) = RECORDER.with(|r| r.borrow_mut().take()) {
        let mut record = record.borrow_mut();
        while !record.open.is_empty() {
            record.close_top();
        }
    }
}

// ---------------------------------------------------------------------
// emission
// ---------------------------------------------------------------------

/// Opens a span timing `phase` for `module`; it closes when the guard
/// drops. When no recorder is installed the guard is inert and no clock
/// is read.
pub fn time(phase: Phase, module: Symbol) -> SpanGuard {
    trace::start(phase.name(), Some(module))
}

/// Adds `delta` to the counter `name` of `module`.
pub fn count(name: &'static str, module: Symbol, delta: u64) {
    with_record(|r| r.add(Key::Counter(name, module), delta));
}

/// Counts one call through a contracted typed/untyped boundary (paper
/// §6): `export` is the wrapped procedure's name when known.
pub fn contract_crossing(export: Option<Symbol>, positive: Symbol, negative: Symbol) {
    with_record(|r| r.add(Key::Crossing(export, positive, negative), 1));
}

/// Counts one VM profile sample in `function` (`None` for anonymous or
/// top-level code). The VM takes at most one sample per fuel chunk of
/// executed steps (see [`limits::vm_take_fuel`]).
pub fn sample(function: Option<Symbol>) {
    with_record(|r| r.add(Key::Sample(function), 1));
}

/// Adds `count` executions of the opcode `op` (of instruction `class`,
/// with a folded operand or a branch target when `fused`).
pub fn opcode(op: &'static str, class: &'static str, fused: bool, count: u64) {
    with_record(|r| r.add(Key::Opcode(op, class, fused), count));
}

/// Records an applied optimizer rewrite: the generic `op` at `src` in
/// `module` became the `rule` primitive of rewrite `family` (`"float"`,
/// `"float-complex"`, `"fixnum"`, `"pairs"` — the paper §7.2 catalogue).
pub fn rewrite(module: Symbol, family: &'static str, op: Symbol, rule: &'static str, src: Span) {
    with_record(|r| {
        let notes = vec![
            ("family", Val::Str(family)),
            ("op", Val::Sym(op)),
            ("rule", Val::Str(rule)),
        ];
        r.point("rewrite", module, Some(src), notes);
    });
}

/// Records a near miss: the site matched a rewrite's shape but was
/// blocked, for `reason` — a site worth knowing about when tuning type
/// annotations.
pub fn near_miss(module: Symbol, family: &'static str, op: Symbol, src: Span, reason: String) {
    with_record(|r| {
        let notes = vec![
            ("family", Val::Str(family)),
            ("op", Val::Sym(op)),
            ("reason", Val::Text(reason)),
        ];
        r.point("near-miss", module, Some(src), notes);
    });
}

/// Records a compiled-module store lookup for `module`. A byte count as
/// `detail` renders as `"<n> bytes"`.
pub fn cache_event(module: Symbol, status: CacheStatus, detail: impl Into<Val>) {
    with_record(|r| {
        let notes = vec![
            ("store", Val::Str(status.name())),
            ("detail", detail.into()),
        ];
        r.point("store", module, None, notes);
    });
}

/// Records an exhausted budget (or an injected fault) by its
/// [`Budget::name`]: a request that failed with it ran `module`.
pub fn limit_event_named(budget: &'static str, module: Symbol, span: Option<Span>) {
    with_record(|r| r.point("limit", module, span, vec![("budget", Val::Str(budget))]));
}

// ---------------------------------------------------------------------
// the report view
// ---------------------------------------------------------------------

/// One phase-timing row.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// Module the phase processed.
    pub module: String,
    /// Phase display name.
    pub phase: &'static str,
    /// Wall-clock duration in nanoseconds.
    pub nanos: u128,
}

/// One aggregated counter row.
#[derive(Clone, Debug)]
pub struct CounterRow {
    /// Module the counts are attributed to.
    pub module: String,
    /// Counter name.
    pub name: String,
    /// Total of all increments.
    pub value: u64,
}

/// One applied optimizer rewrite.
#[derive(Clone, Debug)]
pub struct RewriteRow {
    /// Rewrite family.
    pub family: &'static str,
    /// The generic operation that was rewritten.
    pub op: String,
    /// The `unsafe-*` primitive it became.
    pub rule: String,
    /// Module being optimized.
    pub module: String,
    /// Rendered source location (`source:line:col`).
    pub span: String,
    /// 1-based source line (0 for synthesized syntax).
    pub line: u32,
}

/// One blocked optimizer rewrite.
#[derive(Clone, Debug)]
pub struct NearMissRow {
    /// Rewrite family that almost fired.
    pub family: &'static str,
    /// The generic operation at the site.
    pub op: String,
    /// Module being optimized.
    pub module: String,
    /// Rendered source location.
    pub span: String,
    /// 1-based source line (0 for synthesized syntax).
    pub line: u32,
    /// Why the rewrite was blocked.
    pub reason: String,
}

/// One contracted boundary, with its crossing count.
#[derive(Clone, Debug)]
pub struct ContractRow {
    /// The wrapped procedure's name (`"<anonymous>"` when unknown).
    pub export: String,
    /// Positive blame party.
    pub positive: String,
    /// Negative blame party.
    pub negative: String,
    /// Number of calls through the boundary.
    pub count: u64,
}

/// One budget-exhaustion row.
#[derive(Clone, Debug)]
pub struct LimitRow {
    /// Which budget ran out.
    pub budget: String,
    /// Module being processed.
    pub module: String,
    /// Rendered source location (empty when unknown).
    pub span: String,
}

/// One compiled-module-store lookup row.
#[derive(Clone, Debug)]
pub struct CacheRow {
    /// The module looked up.
    pub module: String,
    /// Lookup outcome (`"hit"`, `"miss"`, `"stale"`, `"corrupt"`).
    pub status: &'static str,
    /// Why the lookup went the way it did (empty for plain hits/misses).
    pub detail: String,
}

/// One opcode-execution row.
#[derive(Clone, Debug)]
pub struct OpcodeRow {
    /// Instruction mnemonic.
    pub op: String,
    /// Instruction class: `"control"`, `"generic"`, or `"specialized"`.
    pub class: String,
    /// Whether these executions had a folded operand address or a
    /// branch target (the VM's `Op::is_fused`).
    pub fused: bool,
    /// Times executed.
    pub count: u64,
}

/// The tables of one record, renderable as text or JSON.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Completed phases, in completion order.
    pub phases: Vec<PhaseRow>,
    /// Aggregated counters, in first-seen order.
    pub counters: Vec<CounterRow>,
    /// Applied optimizer rewrites, in emission order.
    pub rewrites: Vec<RewriteRow>,
    /// Blocked optimizer rewrites, in emission order.
    pub near_misses: Vec<NearMissRow>,
    /// Contract boundary crossings, aggregated per boundary.
    pub contracts: Vec<ContractRow>,
    /// Budget exhaustions, in emission order.
    pub limits: Vec<LimitRow>,
    /// Compiled-module-store lookups, in emission order.
    pub caches: Vec<CacheRow>,
    /// Opcode execution counts, most executed first (empty unless the
    /// run counted opcodes).
    pub opcodes: Vec<OpcodeRow>,
}

/// Adds `row` to the contract rows, summing with an existing row for
/// the same boundary.
fn add_contract(rows: &mut Vec<ContractRow>, row: ContractRow) {
    match rows.iter_mut().find(|c| {
        c.export == row.export && c.positive == row.positive && c.negative == row.negative
    }) {
        Some(existing) => existing.count += row.count,
        None => rows.push(row),
    }
}

/// Phase time aggregated into the coarse pipeline buckets; see
/// [`Report::timing_buckets`].
fn buckets<'a>(phases: impl Iterator<Item = (&'a str, u128)>) -> [(&'static str, u128); 6] {
    let (mut read, mut expand, mut check, mut optimize, mut compile, mut load, mut run) =
        (0u128, 0u128, 0u128, 0u128, 0u128, 0u128, 0u128);
    for (phase, nanos) in phases {
        match phase {
            "read" => read += nanos,
            "expand" => expand += nanos,
            "typecheck" => check += nanos,
            "optimize" => optimize += nanos,
            "compile" => compile += nanos,
            "load" => load += nanos,
            "run" => run += nanos,
            _ => {}
        }
    }
    let expand = expand.saturating_sub(check + optimize);
    [
        ("read", read),
        ("expand", expand),
        ("check", check),
        ("compile", compile + optimize),
        ("load", load),
        ("run", run),
    ]
}

impl Report {
    /// Folds another report into this one: rows append (in `other`'s
    /// order after this report's), and counter/contract/opcode rows for
    /// the same key merge by summing. The parallel build scheduler uses
    /// this to combine its threads' reports into one build report.
    pub fn merge(&mut self, other: Report) {
        self.phases.extend(other.phases);
        for c in other.counters {
            match self
                .counters
                .iter_mut()
                .find(|row| row.module == c.module && row.name == c.name)
            {
                Some(row) => row.value += c.value,
                None => self.counters.push(c),
            }
        }
        self.rewrites.extend(other.rewrites);
        self.near_misses.extend(other.near_misses);
        for c in other.contracts {
            add_contract(&mut self.contracts, c);
        }
        self.limits.extend(other.limits);
        self.caches.extend(other.caches);
        for o in other.opcodes {
            match self
                .opcodes
                .iter_mut()
                .find(|row| row.op == o.op && row.class == o.class && row.fused == o.fused)
            {
                Some(row) => row.count += o.count,
                None => self.opcodes.push(o),
            }
        }
    }

    /// Total executions of generic (tag-dispatching) instructions.
    pub fn generic_ops(&self) -> u64 {
        self.class_total("generic")
    }

    /// Total executions of specialized (`unsafe-*`-derived) instructions.
    pub fn specialized_ops(&self) -> u64 {
        self.class_total("specialized")
    }

    /// Total executions across all instruction classes.
    pub fn total_ops(&self) -> u64 {
        self.opcodes.iter().map(|o| o.count).sum()
    }

    fn class_total(&self, class: &str) -> u64 {
        self.opcodes
            .iter()
            .filter(|o| o.class == class)
            .map(|o| o.count)
            .sum()
    }

    /// Specialized share of dispatch-bearing executions:
    /// `specialized / (generic + specialized)`; `None` when neither ran.
    pub fn specialized_share(&self) -> Option<f64> {
        let g = self.generic_ops();
        let s = self.specialized_ops();
        if g + s == 0 {
            None
        } else {
            Some(s as f64 / (g + s) as f64)
        }
    }

    /// Total executions with a folded operand or a branch target.
    pub fn fused_ops(&self) -> u64 {
        self.opcodes
            .iter()
            .filter(|o| o.fused)
            .map(|o| o.count)
            .sum()
    }

    /// Fused share of all executed instructions: `fused / total`;
    /// `None` when nothing ran.
    pub fn fusion_share(&self) -> Option<f64> {
        let total = self.total_ops();
        if total == 0 {
            None
        } else {
            Some(self.fused_ops() as f64 / total as f64)
        }
    }

    /// Number of store lookups that were warm hits.
    pub fn cache_hits(&self) -> usize {
        self.caches.iter().filter(|c| c.status == "hit").count()
    }

    /// Number of store lookups that ended in compilation (miss, stale,
    /// or corrupt artifact).
    pub fn cache_misses(&self) -> usize {
        self.caches.len() - self.cache_hits()
    }

    /// Phase time aggregated into coarse pipeline buckets, in pipeline
    /// order: `read`, `expand`, `check`, `compile`, `load`, `run`.
    /// Typecheck and optimize phases are nested *inside* expand, so
    /// `expand` here excludes them; the optimizer is billed to
    /// `compile` (both produce the executable artifact) and
    /// typechecking to `check`.
    pub fn timing_buckets(&self) -> [(&'static str, u128); 6] {
        buckets(self.phases.iter().map(|p| (p.phase, p.nanos)))
    }

    /// The phase-timing table alone (used by `lagoon expand --timings`).
    pub fn render_phases(&self) -> String {
        let mut out = String::new();
        if self.phases.is_empty() {
            return out;
        }
        let _ = writeln!(out, "phase timings");
        let _ = writeln!(out, "  {:<20} {:<10} {:>10}", "module", "phase", "ms");
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  {:<20} {:<10} {:>10.3}",
                p.module,
                p.phase,
                p.nanos as f64 / 1e6
            );
        }
        out
    }

    /// The full human-readable report (empty sections are omitted).
    pub fn render_text(&self) -> String {
        let mut out = self.render_phases();
        if !self.phases.is_empty() {
            let rendered: Vec<String> = self
                .timing_buckets()
                .iter()
                .map(|(name, nanos)| format!("{name} {:.3}ms", *nanos as f64 / 1e6))
                .collect();
            let _ = writeln!(out, "pipeline buckets: {}", rendered.join(", "));
        }
        if !self.caches.is_empty() {
            let _ = writeln!(
                out,
                "compiled store: {} hit(s), {} compile(s)",
                self.cache_hits(),
                self.cache_misses()
            );
            for c in &self.caches {
                if c.detail.is_empty() {
                    let _ = writeln!(out, "  {:<20} {}", c.module, c.status);
                } else {
                    let _ = writeln!(out, "  {:<20} {:<8} {}", c.module, c.status, c.detail);
                }
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters");
            for c in &self.counters {
                let _ = writeln!(out, "  {:<20} {:<24} {:>8}", c.module, c.name, c.value);
            }
        }
        let _ = writeln!(
            out,
            "optimizer decisions: {} applied, {} near miss(es)",
            self.rewrites.len(),
            self.near_misses.len()
        );
        for r in &self.rewrites {
            let _ = writeln!(
                out,
                "  {:<24} {} -> {}  [{}]",
                r.span, r.op, r.rule, r.family
            );
        }
        for n in &self.near_misses {
            let _ = writeln!(
                out,
                "  {:<24} {} blocked [{}]: {}",
                n.span, n.op, n.family, n.reason
            );
        }
        if !self.contracts.is_empty() {
            let _ = writeln!(out, "contract boundary crossings");
            for c in &self.contracts {
                let _ = writeln!(
                    out,
                    "  {:<20} ({} <-> {}): {}",
                    c.export, c.positive, c.negative, c.count
                );
            }
        }
        if !self.limits.is_empty() {
            let _ = writeln!(out, "resource limits hit");
            for l in &self.limits {
                let _ = writeln!(out, "  {:<20} {:<18} {}", l.module, l.budget, l.span);
            }
        }
        if !self.opcodes.is_empty() {
            let share = self
                .specialized_share()
                .map(|s| format!("{:.1}%", s * 100.0))
                .unwrap_or_else(|| "n/a".to_string());
            let fusion = self
                .fusion_share()
                .map(|s| format!("{:.1}%", s * 100.0))
                .unwrap_or_else(|| "n/a".to_string());
            let _ = writeln!(
                out,
                "opcode mix: {} executed ({} generic, {} specialized; specialized share {}; {} fused, fusion share {})",
                self.total_ops(),
                self.generic_ops(),
                self.specialized_ops(),
                share,
                self.fused_ops(),
                fusion
            );
            for o in &self.opcodes {
                let mark = if o.fused { " fused" } else { "" };
                let _ = writeln!(out, "  {:<20} {:<12} {:>12}{mark}", o.op, o.class, o.count);
            }
        }
        out
    }

    /// The report as a machine-readable JSON object: one array per
    /// table, the `buckets` in milliseconds, and a `summary` of counts.
    pub fn to_json(&self) -> Json {
        let text = |s: &str| Json::Str(s.to_string());
        let ms = |nanos: u128| Json::Num(nanos as f64 / 1e6);
        let num = |n: u64| Json::Num(n as f64);
        let count = |n: usize| Json::Num(n as f64);
        let phases = rows(&self.phases, |p| {
            vec![
                ("module", text(&p.module)),
                ("phase", text(p.phase)),
                ("ms", ms(p.nanos)),
            ]
        });
        let counters = rows(&self.counters, |c| {
            vec![
                ("module", text(&c.module)),
                ("name", text(&c.name)),
                ("value", num(c.value)),
            ]
        });
        let rewrites = rows(&self.rewrites, |r| {
            vec![
                ("module", text(&r.module)),
                ("family", text(r.family)),
                ("op", text(&r.op)),
                ("rule", text(&r.rule)),
                ("span", text(&r.span)),
                ("line", num(u64::from(r.line))),
            ]
        });
        let near_misses = rows(&self.near_misses, |n| {
            vec![
                ("module", text(&n.module)),
                ("family", text(n.family)),
                ("op", text(&n.op)),
                ("span", text(&n.span)),
                ("line", num(u64::from(n.line))),
                ("reason", text(&n.reason)),
            ]
        });
        let contracts = rows(&self.contracts, |c| {
            vec![
                ("export", text(&c.export)),
                ("positive", text(&c.positive)),
                ("negative", text(&c.negative)),
                ("count", num(c.count)),
            ]
        });
        let limits = rows(&self.limits, |l| {
            vec![
                ("budget", text(&l.budget)),
                ("module", text(&l.module)),
                ("span", text(&l.span)),
            ]
        });
        let cache = rows(&self.caches, |c| {
            vec![
                ("module", text(&c.module)),
                ("status", text(c.status)),
                ("detail", text(&c.detail)),
            ]
        });
        let opcodes = rows(&self.opcodes, |o| {
            vec![
                ("op", text(&o.op)),
                ("class", text(&o.class)),
                ("fused", Json::Bool(o.fused)),
                ("count", num(o.count)),
            ]
        });
        let buckets = self.timing_buckets().map(|(name, nanos)| (name, ms(nanos)));
        let summary = obj(vec![
            ("rewrites", count(self.rewrites.len())),
            ("near_misses", count(self.near_misses.len())),
            ("generic_ops", num(self.generic_ops())),
            ("specialized_ops", num(self.specialized_ops())),
            ("fused_ops", num(self.fused_ops())),
            ("total_ops", num(self.total_ops())),
            ("cache_hits", count(self.cache_hits())),
            ("cache_misses", count(self.cache_misses())),
        ]);
        obj(vec![
            ("phases", phases),
            ("counters", counters),
            ("rewrites", rewrites),
            ("near_misses", near_misses),
            ("contracts", contracts),
            ("limits", limits),
            ("cache", cache),
            ("buckets", obj(buckets.to_vec())),
            ("opcodes", opcodes),
            ("summary", summary),
        ])
    }
}

/// One JSON object per item, in order.
fn rows<T>(items: &[T], row: impl Fn(&T) -> Vec<(&'static str, Json)>) -> Json {
    Json::Arr(items.iter().map(|item| obj(row(item))).collect())
}

// ---------------------------------------------------------------------
// latency histograms
// ---------------------------------------------------------------------

/// Number of power-of-two latency buckets: `[0,1µs)`, `[1,2µs)`, … up
/// to a final catch-all bucket for everything ≥ 2^30 µs (~18 minutes).
const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-footprint latency histogram with power-of-two microsecond
/// buckets. The evaluation daemon keeps one per request op in the
/// stats table its workers share.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    total_micros: u128,
    max_micros: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            total_micros: 0,
            max_micros: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&mut self, latency: std::time::Duration) {
        let micros64 = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = (64 - micros64.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.total_micros += u128::from(micros64);
        self.max_micros = self.max_micros.max(micros64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_micros as f64 / self.count as f64
        }
    }

    /// Largest observed latency in microseconds.
    pub fn max_micros(&self) -> u64 {
        self.max_micros
    }

    /// An upper bound (µs) below which at least `q` of observations
    /// fall, read off the bucket boundaries (so it is quantized to the
    /// next power of two). Returns 0 for an empty histogram.
    pub fn quantile_upper_micros(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (idx, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                return if idx == 0 { 1 } else { 1u64 << idx };
            }
        }
        self.max_micros
    }

    /// A smoothed quantile estimate in microseconds: finds the bucket
    /// holding the `q`-th observation and interpolates linearly inside
    /// it (the catch-all top bucket uses the observed max as its upper
    /// edge), so clients get a usable number instead of the power-of-two
    /// ceiling [`Histogram::quantile_upper_micros`] reports. Clamped to
    /// the observed max; 0 for an empty histogram.
    pub fn quantile_est_micros(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (idx, n) in self.buckets.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            let before = seen as f64;
            seen += n;
            if seen as f64 >= target {
                let (lo, hi) = self.bucket_span(idx);
                let frac = (target - before) / *n as f64;
                let est = lo as f64 + (hi.saturating_sub(lo)) as f64 * frac;
                return est.min(self.max_micros as f64);
            }
        }
        self.max_micros as f64
    }

    /// The `[lower, upper]` microsecond range of bucket `idx`. The
    /// catch-all top bucket's upper edge is the observed max (the only
    /// honest bound available).
    fn bucket_span(&self, idx: usize) -> (u64, u64) {
        let lo = if idx == 0 { 0 } else { 1u64 << (idx - 1) };
        let hi = if idx == 0 {
            1
        } else if idx == HISTOGRAM_BUCKETS - 1 {
            self.max_micros.max(lo)
        } else {
            1u64 << idx
        };
        (lo, hi)
    }

    /// The non-empty buckets with both bounds:
    /// `(lower_bound_micros, upper_bound_micros, count)` triples, so
    /// clients can reconstruct real quantiles instead of guessing at
    /// the bucket layout.
    pub fn nonzero_bucket_spans(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(idx, n)| {
                let (lo, hi) = self.bucket_span(idx);
                (lo, hi, *n)
            })
            .collect()
    }

    /// The histogram as a JSON object: `count`, `mean_us`, `max_us`,
    /// the bucket-ceiling quantiles `p50_us`/`p99_us`, the interpolated
    /// estimates `p50_est_us`/`p99_est_us`, and the non-empty `buckets`
    /// with both bounds (`ge_us` inclusive lower, `le_us` upper).
    pub fn to_json(&self) -> Json {
        let num = |n: u64| Json::Num(n as f64);
        let buckets = self
            .nonzero_bucket_spans()
            .into_iter()
            .map(|(lo, hi, n)| {
                obj(vec![
                    ("ge_us", num(lo)),
                    ("le_us", num(hi)),
                    ("count", num(n)),
                ])
            })
            .collect();
        obj(vec![
            ("count", num(self.count)),
            ("mean_us", Json::Num(self.mean_micros())),
            ("max_us", num(self.max_micros)),
            ("p50_us", num(self.quantile_upper_micros(0.5))),
            ("p99_us", num(self.quantile_upper_micros(0.99))),
            ("p50_est_us", Json::Num(self.quantile_est_micros(0.5))),
            ("p99_est_us", Json::Num(self.quantile_est_micros(0.99))),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &str) -> Symbol {
        Symbol::intern(name)
    }

    #[test]
    fn disabled_by_default_and_emission_is_dropped() {
        assert!(!enabled());
        count("x", m("main"), 1);
        rewrite(m("main"), "float", m("+"), "unsafe-fl+", Span::synthetic());
        // nothing to observe: no recorder, no panic
        let timer = time(Phase::Read, m("main"));
        drop(timer);
    }

    #[test]
    fn collector_records_and_reports() {
        let c = Collector::install();
        assert!(enabled());
        count("macro-steps", m("main"), 2);
        count("macro-steps", m("main"), 3);
        {
            let _t = time(Phase::Expand, m("main"));
            rewrite(m("main"), "float", m("+"), "unsafe-fl+", Span::synthetic());
        }
        contract_crossing(Some(m("inc")), m("lib"), m("untyped-client"));
        contract_crossing(Some(m("inc")), m("lib"), m("untyped-client"));
        uninstall();
        assert!(!enabled());

        let report = c.report();
        assert_eq!(report.counters.len(), 1);
        assert_eq!(report.counters[0].value, 5);
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].phase, "expand");
        assert_eq!(report.rewrites.len(), 1);
        assert_eq!(report.rewrites[0].op, "+");
        assert_eq!(report.contracts.len(), 1);
        assert_eq!(report.contracts[0].count, 2);

        let text = report.render_text();
        assert!(text.contains("phase timings"));
        assert!(text.contains("unsafe-fl+"));
        assert!(text.contains("inc"));
    }

    #[test]
    fn one_record_feeds_the_report_and_the_trace() {
        let c = Collector::install();
        {
            let _t = time(Phase::Expand, m("traced-mod"));
            {
                let _u = time(Phase::Typecheck, m("traced-mod"));
            }
            cache_event(m("traced-mod"), CacheStatus::Hit, 123usize);
        }
        cache_event(m("late"), CacheStatus::Miss, "compiled and stored");
        uninstall();

        let t = c.trace();
        assert_eq!(t.spans.len(), 4);
        let expand = t.spans.iter().find(|s| s.phase == "expand").expect("span");
        let check = t
            .spans
            .iter()
            .find(|s| s.phase == "typecheck")
            .expect("span");
        assert_eq!(check.parent, Some(expand.id));
        assert_eq!(expand.label, "traced-mod");
        // store lookups are zero-duration spans under the open span, or
        // at top level when none is open
        let stores: Vec<_> = t.spans.iter().filter(|s| s.phase == "store").collect();
        assert_eq!(stores[0].parent, Some(expand.id));
        assert_eq!(stores[0].dur_us, 0);
        assert_eq!(stores[1].parent, None);

        let report = c.report();
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.caches.len(), 2);
        assert_eq!(report.caches[0].detail, "123 bytes");
        assert_eq!(c.cache_counts(), (1, 1));
        assert_eq!(c.timing_buckets(), report.timing_buckets());
    }

    #[test]
    fn counts_add_in_place() {
        let c = Collector::install();
        for _ in 0..10_000 {
            contract_crossing(None, m("lib"), m("client"));
            count("contract-flat-checks", m("lib"), 1);
            sample(None);
        }
        sample(Some(m("fib")));
        sample(Some(Symbol::fresh("fib")));
        uninstall();
        let report = c.report();
        assert_eq!(report.contracts.len(), 1);
        assert_eq!(report.contracts[0].export, "<anonymous>");
        assert_eq!(report.contracts[0].count, 10_000);
        assert_eq!(report.counters[0].value, 10_000);
        // alpha-renamed functions aggregate under the name the user wrote
        let profile = vec![("<anonymous>".to_string(), 10_000), ("fib".to_string(), 2)];
        let trace = c.trace();
        assert_eq!(trace.profile, profile);
        let fib = obj(vec![
            ("fn", Json::Str("fib".to_string())),
            ("chunks", Json::Num(2.0)),
        ]);
        assert!(matches!(trace.profile_json(), Json::Arr(rows) if rows.contains(&fib)));
        assert!(trace.spans.is_empty());
    }

    #[test]
    fn report_json_reads_back_unchanged() {
        let c = Collector::install();
        count("steps", m("a\"b"), 1);
        uninstall();
        let json = c.report().to_json();
        let counter = match json.get("counters") {
            Some(Json::Arr(rows)) => rows.first(),
            _ => None,
        };
        let module = counter.and_then(|row| row.get("module"));
        assert_eq!(module.and_then(Json::as_str), Some("a\"b"));
        assert!(json.get("summary").is_some());
        assert_eq!(json::parse(&json.to_string()), Ok(json));
    }

    #[test]
    fn opcode_summaries() {
        let c = Collector::install();
        opcode("Add2", "generic", false, 10);
        opcode("FlAdd", "specialized", false, 30);
        opcode("BrLt2", "generic", true, 15);
        opcode("Return", "control", false, 5);
        uninstall();
        let report = c.report();
        assert_eq!(report.opcodes[0].op, "FlAdd", "most executed first");
        assert_eq!(report.generic_ops(), 25);
        assert_eq!(report.specialized_ops(), 30);
        assert_eq!(report.total_ops(), 60);
        assert!((report.specialized_share().unwrap() - (30.0 / 55.0)).abs() < 1e-9);
        assert_eq!(report.fused_ops(), 15);
        assert!((report.fusion_share().unwrap() - 0.25).abs() < 1e-9);
        let text = report.render_text();
        assert!(text.contains("fusion share 25.0%"));
        let json = report.to_json();
        let fused_ops = json.get("summary").and_then(|s| s.get("fused_ops"));
        assert_eq!(fused_ops.and_then(Json::as_u64), Some(15));
        let Some(Json::Arr(opcodes)) = json.get("opcodes") else {
            panic!("no opcodes: {json}");
        };
        let fused = opcodes
            .iter()
            .filter(|o| o.get("fused") == Some(&Json::Bool(true)));
        assert_eq!(fused.count(), 1);
    }

    #[test]
    fn strip_gensym_handles_both_forms() {
        use lagoon_syntax::strip_gensym;
        assert_eq!(strip_gensym("shout~122"), "shout");
        assert_eq!(strip_gensym("shout~1a2b3c4d.7"), "shout");
        assert_eq!(strip_gensym("shout"), "shout");
        assert_eq!(strip_gensym("a~b"), "a~b");
        assert_eq!(strip_gensym("x~12345678."), "x~12345678.");
        assert_eq!(strip_gensym("x~123.4"), "x~123.4"); // hex part must be 8 chars
    }

    #[test]
    fn reports_merge() {
        let mut a = Report::default();
        a.counters.push(CounterRow {
            module: "m".into(),
            name: "steps".into(),
            value: 2,
        });
        a.caches.push(CacheRow {
            module: "m".into(),
            status: "hit",
            detail: String::new(),
        });
        let mut b = Report::default();
        b.counters.push(CounterRow {
            module: "m".into(),
            name: "steps".into(),
            value: 3,
        });
        b.caches.push(CacheRow {
            module: "n".into(),
            status: "miss",
            detail: String::new(),
        });
        a.merge(b);
        assert_eq!(a.counters.len(), 1);
        assert_eq!(a.counters[0].value, 5);
        assert_eq!(a.caches.len(), 2);
        assert_eq!(a.cache_hits(), 1);
        assert_eq!(a.cache_misses(), 1);
    }

    #[test]
    fn histogram_records_and_reports() {
        use std::time::Duration;
        let mut h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_upper_micros(0.5), 0);
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(100));
        h.record(Duration::from_millis(2));
        assert_eq!(h.count(), 3);
        assert_eq!(h.max_micros(), 2000);
        assert!(h.mean_micros() > 0.0);
        assert!(h.quantile_upper_micros(0.5) >= 4);
        assert!(h.quantile_upper_micros(0.99) >= 2000);

        h.record(Duration::from_micros(0));
        assert_eq!(h.count(), 4);
        let json = h.to_json();
        assert_eq!(json.get("count").and_then(Json::as_u64), Some(4));
        assert!(json.get("p50_est_us").is_some(), "{json}");
        let Some(Json::Arr(buckets)) = json.get("buckets") else {
            panic!("no buckets: {json}");
        };
        let bound = |key: &str| buckets[0].get(key).and_then(Json::as_u64);
        assert_eq!(
            (bound("ge_us"), bound("le_us")),
            (Some(0), Some(1)),
            "{json}"
        );
    }

    #[test]
    fn histogram_zero_duration_samples() {
        use std::time::Duration;
        let mut h = Histogram::new();
        h.record(Duration::ZERO);
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max_micros(), 0);
        // the estimate is clamped to the observed max, not the bucket edge
        assert_eq!(h.quantile_est_micros(0.5), 0.0);
        assert_eq!(h.quantile_est_micros(0.99), 0.0);
        assert_eq!(h.nonzero_bucket_spans(), vec![(0, 1, 2)]);
    }

    #[test]
    fn histogram_saturating_top_bucket() {
        use std::time::Duration;
        let mut a = Histogram::new();
        a.record(Duration::MAX); // micros saturate into the catch-all bucket
        a.record(Duration::MAX);
        a.record(Duration::from_micros(7));
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_micros(), u64::MAX);
        // the catch-all bucket's upper edge is the observed max; the
        // interpolated quantile must stay finite and within it
        let p99 = a.quantile_est_micros(0.99);
        assert!(p99 <= u64::MAX as f64 && p99 > 0.0);
        let spans = a.nonzero_bucket_spans();
        assert_eq!(spans.len(), 2);
        let top = spans.last().expect("top bucket");
        assert_eq!(top.1, u64::MAX);
        assert_eq!(top.2, 2);
    }

    #[test]
    fn histogram_estimates_interpolate_within_buckets() {
        use std::time::Duration;
        let mut h = Histogram::new();
        // 10 samples in the [64,128) bucket
        for _ in 0..10 {
            h.record(Duration::from_micros(100));
        }
        let p50 = h.quantile_est_micros(0.5);
        assert!((64.0..=100.0).contains(&p50), "{p50}");
        // the power-of-two ceiling is coarser than the estimate
        assert_eq!(h.quantile_upper_micros(0.5), 128);
    }
}
