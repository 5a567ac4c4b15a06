//! Resource budgets (fuel) and fault injection for the pipeline.
//!
//! A [`Limits`] value bounds each stage of compilation and execution:
//! macro-expansion steps and nesting depth, phase-1 (compile-time)
//! evaluation steps, VM/interpreter execution steps, call-stack depth,
//! and an optional wall-clock deadline. The expander, the phase-1
//! evaluator, and both engines draw from thread-local pools installed
//! here; when a pool runs dry they receive a structured [`Exhausted`]
//! describing which budget failed, and surface it as a diagnostic
//! instead of hanging or overflowing the host stack.
//!
//! The same machinery hosts the fault-injection harness: a [`FaultPlan`]
//! arms a one-shot failure at the N-th expansion step, VM step, or
//! primitive call, which the pipeline reports exactly like a budget
//! exhaustion. This is how the robustness suite proves that every
//! mid-pipeline failure path unwinds cleanly.
//!
//! Charging is designed to stay off the hot paths: the VM draws fuel in
//! large chunks through [`vm_take_fuel`] and counts the chunk down in a
//! register-resident local, so the per-opcode cost is one decrement.
//! Installing a fault plan shrinks the granted chunks so the N-th step
//! still fails exactly.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::time::{Duration, Instant};

/// Resource budgets for one compilation-and-execution.
///
/// `u64::MAX` (the default for step budgets) means unlimited.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Limits {
    /// Macro-expansion steps across a module graph's compilation.
    pub max_expansion_steps: u64,
    /// Nesting depth of macro expansion (recursive `expand` calls).
    pub max_expansion_depth: u64,
    /// Phase-1 (compile-time) evaluation steps — transformer bodies,
    /// `begin-for-syntax`, `define-syntax` right-hand sides.
    pub max_phase1_steps: u64,
    /// Run-time execution steps (VM instructions / interpreter nodes).
    pub max_vm_steps: u64,
    /// Call-stack depth (VM frames; host-stack recursion in the
    /// tree-walking interpreter).
    pub max_stack_depth: u64,
    /// Wall-clock budget for one run, checked from the same charge
    /// sites as the step budgets. The concrete deadline is re-anchored
    /// at every [`refill`], so each run gets the full allowance.
    pub timeout: Option<Duration>,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            // Generous enough for every module in the repo (the largest
            // benchmark expands in ~100k steps) while still bounding a
            // runaway self-expanding macro to well under a second.
            max_expansion_steps: 2_000_000,
            max_expansion_depth: 500,
            max_phase1_steps: 100_000_000,
            max_vm_steps: u64::MAX,
            max_stack_depth: 10_000,
            timeout: None,
        }
    }
}

impl Limits {
    /// Budgets with every limit disabled (the pre-limits behaviour).
    pub fn unlimited() -> Limits {
        Limits {
            max_expansion_steps: u64::MAX,
            max_expansion_depth: u64::MAX,
            max_phase1_steps: u64::MAX,
            max_vm_steps: u64::MAX,
            max_stack_depth: u64::MAX,
            timeout: None,
        }
    }

    /// The value of `budget`, the deadline in milliseconds; `None` for
    /// an unset deadline and for [`Budget::InjectedFault`].
    pub fn get(&self, budget: Budget) -> Option<u64> {
        match budget {
            Budget::ExpansionSteps => Some(self.max_expansion_steps),
            Budget::ExpansionDepth => Some(self.max_expansion_depth),
            Budget::Phase1Steps => Some(self.max_phase1_steps),
            Budget::VmSteps => Some(self.max_vm_steps),
            Budget::StackDepth => Some(self.max_stack_depth),
            Budget::Deadline => self
                .timeout
                .map(|t| u64::try_from(t.as_millis()).unwrap_or(u64::MAX)),
            Budget::InjectedFault => None,
        }
    }

    /// Sets `budget` to `value`, the deadline in milliseconds;
    /// [`Budget::InjectedFault`] has no value to set.
    pub fn set(&mut self, budget: Budget, value: u64) {
        match budget {
            Budget::ExpansionSteps => self.max_expansion_steps = value,
            Budget::ExpansionDepth => self.max_expansion_depth = value,
            Budget::Phase1Steps => self.max_phase1_steps = value,
            Budget::VmSteps => self.max_vm_steps = value,
            Budget::StackDepth => self.max_stack_depth = value,
            Budget::Deadline => self.timeout = Some(Duration::from_millis(value)),
            Budget::InjectedFault => {}
        }
    }
}

/// A budget a caller can set, under the name each surface gives it.
pub struct Setting {
    /// The budget.
    pub budget: Budget,
    /// The `lagoon` option that sets it.
    pub flag: &'static str,
    /// The key that sets it in a daemon request's `"limits"` object.
    pub key: &'static str,
}

/// Every budget a caller can set: the one list the command line, the
/// daemon's requests and the gateway's shard commands read.
#[rustfmt::skip]
pub const SETTINGS: [Setting; 6] = [
    Setting { budget: Budget::ExpansionSteps, flag: "--max-expand-steps", key: "max_expansion_steps" },
    Setting { budget: Budget::ExpansionDepth, flag: "--max-expand-depth", key: "max_expansion_depth" },
    Setting { budget: Budget::Phase1Steps,    flag: "--max-phase1-steps", key: "max_phase1_steps" },
    Setting { budget: Budget::VmSteps,        flag: "--max-steps",        key: "max_vm_steps" },
    Setting { budget: Budget::StackDepth,     flag: "--max-stack-depth",  key: "max_stack_depth" },
    Setting { budget: Budget::Deadline,       flag: "--timeout-ms",       key: "timeout_ms" },
];

/// Which budget ran out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Budget {
    /// [`Limits::max_expansion_steps`].
    ExpansionSteps,
    /// [`Limits::max_expansion_depth`].
    ExpansionDepth,
    /// [`Limits::max_phase1_steps`].
    Phase1Steps,
    /// [`Limits::max_vm_steps`].
    VmSteps,
    /// [`Limits::max_stack_depth`].
    StackDepth,
    /// [`Limits::timeout`].
    Deadline,
    /// An armed [`FaultPlan`] fired (fault injection, not a real
    /// exhaustion).
    InjectedFault,
}

impl Budget {
    /// Stable lower-case name used in diagnostics and reports.
    pub fn name(self) -> &'static str {
        match self {
            Budget::ExpansionSteps => "expansion-steps",
            Budget::ExpansionDepth => "expansion-depth",
            Budget::Phase1Steps => "phase1-steps",
            Budget::VmSteps => "vm-steps",
            Budget::StackDepth => "stack-depth",
            Budget::Deadline => "deadline",
            Budget::InjectedFault => "injected-fault",
        }
    }
}

/// A structured "resource budget exhausted" failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exhausted {
    /// Which budget ran out.
    pub budget: Budget,
    /// The configured limit that was reached (0 for deadline/fault).
    pub limit: u64,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.budget {
            Budget::ExpansionSteps => {
                write!(f, "macro expansion exceeded {} steps", self.limit)
            }
            Budget::ExpansionDepth => {
                write!(f, "macro expansion exceeded depth {}", self.limit)
            }
            Budget::Phase1Steps => {
                write!(f, "compile-time evaluation exceeded {} steps", self.limit)
            }
            Budget::VmSteps => write!(f, "execution exceeded {} steps", self.limit),
            Budget::StackDepth => {
                write!(f, "stack overflow (depth limit {})", self.limit)
            }
            Budget::Deadline => f.write_str("wall-clock deadline exceeded"),
            Budget::InjectedFault => f.write_str("injected fault"),
        }
    }
}

/// A one-shot injected failure: arm a counter per channel and the
/// matching charge site fails on exactly the N-th event (1-based).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fail the N-th macro-expansion step.
    pub expansion_step: Option<u64>,
    /// Fail the N-th VM/interpreter execution step.
    pub vm_step: Option<u64>,
    /// Fail the N-th primitive (native) call.
    pub prim_call: Option<u64>,
}

impl FaultPlan {
    /// Derives a plan from `seed`: picks one channel and a trigger point
    /// below `horizon` deterministically (splitmix64).
    pub fn from_seed(seed: u64, horizon: u64) -> FaultPlan {
        let mut rng = crate::gen::SplitMix64::new(seed);
        let n = 1 + rng.below(horizon.max(1));
        match rng.below(3) {
            0 => FaultPlan {
                expansion_step: Some(n),
                ..FaultPlan::default()
            },
            1 => FaultPlan {
                vm_step: Some(n),
                ..FaultPlan::default()
            },
            _ => FaultPlan {
                prim_call: Some(n),
                ..FaultPlan::default()
            },
        }
    }
}

/// How often the cheap step-charging sites consult the wall clock.
const DEADLINE_STRIDE: u64 = 4096;

/// Largest fuel chunk the VM is granted at once; bounds how long the VM
/// runs between deadline checks.
const VM_CHUNK: u64 = 65_536;

struct State {
    limits: Limits,
    deadline: Option<Instant>,
    expansion_steps_left: u64,
    phase1_steps_left: u64,
    vm_steps_left: u64,
    /// Steps executed since the refill at which the next VM profile
    /// sample falls due.
    next_sample: u64,
    expansion_depth: u64,
    phase1_nesting: u32,
    deadline_stride: u64,
    fault_expansion_left: Option<u64>,
    fault_vm_left: Option<u64>,
    fault_prim_left: Option<u64>,
}

impl State {
    fn new(limits: Limits) -> State {
        State {
            limits,
            deadline: limits.timeout.map(|t| Instant::now() + t),
            expansion_steps_left: limits.max_expansion_steps,
            phase1_steps_left: limits.max_phase1_steps,
            vm_steps_left: limits.max_vm_steps,
            next_sample: VM_CHUNK,
            expansion_depth: 0,
            phase1_nesting: 0,
            deadline_stride: DEADLINE_STRIDE,
            fault_expansion_left: None,
            fault_vm_left: None,
            fault_prim_left: None,
        }
    }
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::new(Limits::default()));
    // Fast path for the fault hooks: a single flag read when no plan is
    // armed, so primitive calls stay cheap outside the harness.
    static FAULTS_ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Installs `limits` for this thread and refills every pool.
pub fn install(limits: Limits) {
    STATE.with(|s| *s.borrow_mut() = State::new(limits));
}

/// The currently installed limits.
pub fn current() -> Limits {
    STATE.with(|s| s.borrow().limits)
}

/// Refills every pool from the installed limits (call at the top of
/// each embedding entry point so budgets are per-run, not cumulative).
/// Leaves any armed fault plan alone.
pub fn refill() {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let limits = s.limits;
        s.deadline = limits.timeout.map(|t| Instant::now() + t);
        s.expansion_steps_left = limits.max_expansion_steps;
        s.phase1_steps_left = limits.max_phase1_steps;
        s.vm_steps_left = limits.max_vm_steps;
        s.next_sample = VM_CHUNK;
        s.expansion_depth = 0;
        s.deadline_stride = DEADLINE_STRIDE;
    });
}

/// Runs `f` with every limit disabled and no fault plan armed, then puts
/// this thread's limits, budget pools and fault plan back exactly as they
/// were, also when `f` panics. For work the caller's budgets do not
/// cover, such as a registry's prelude bootstrap.
pub fn suspended<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(Option<State>, bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(state) = self.0.take() {
                STATE.with(|s| *s.borrow_mut() = state);
            }
            FAULTS_ACTIVE.with(|f| f.set(self.1));
        }
    }
    let saved = STATE.with(|s| s.replace(State::new(Limits::unlimited())));
    let _restore = Restore(Some(saved), FAULTS_ACTIVE.with(|f| f.replace(false)));
    f()
}

/// Arms `plan` for this thread (clearing any previous one).
pub fn install_faults(plan: FaultPlan) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.fault_expansion_left = plan.expansion_step;
        s.fault_vm_left = plan.vm_step;
        s.fault_prim_left = plan.prim_call;
    });
    FAULTS_ACTIVE.with(|f| {
        f.set(plan.expansion_step.is_some() || plan.vm_step.is_some() || plan.prim_call.is_some())
    });
}

/// Disarms fault injection for this thread.
pub fn clear_faults() {
    install_faults(FaultPlan::default());
}

fn exhausted(budget: Budget, limit: u64) -> Exhausted {
    Exhausted { budget, limit }
}

fn check_deadline(s: &State) -> Result<(), Exhausted> {
    if let Some(deadline) = s.deadline {
        if Instant::now() >= deadline {
            return Err(exhausted(Budget::Deadline, 0));
        }
    }
    Ok(())
}

/// Charges one macro-expansion step. Checks the deadline every
/// [`DEADLINE_STRIDE`] charges and fires an armed expansion-step fault.
pub fn expansion_step() -> Result<(), Exhausted> {
    expansion_steps(1)
}

/// Charges `n` macro-expansion steps at once. Transcription output is
/// billed by its width (see the expander), so a self-doubling macro
/// exhausts the budget in proportion to the syntax it creates rather
/// than the number of rewrites — the doubling would otherwise build
/// astronomically large syntax within a handful of "steps".
pub fn expansion_steps(n: u64) -> Result<(), Exhausted> {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if s.expansion_steps_left < n {
            s.expansion_steps_left = 0;
            return Err(exhausted(
                Budget::ExpansionSteps,
                s.limits.max_expansion_steps,
            ));
        }
        s.expansion_steps_left -= n;
        if let Some(n) = s.fault_expansion_left.as_mut() {
            *n = n.saturating_sub(1);
            if *n == 0 {
                s.fault_expansion_left = None;
                return Err(exhausted(Budget::InjectedFault, 0));
            }
        }
        s.deadline_stride = s.deadline_stride.saturating_sub(1);
        if s.deadline_stride == 0 {
            s.deadline_stride = DEADLINE_STRIDE;
            check_deadline(&s)?;
        }
        Ok(())
    })
}

// --- host-stack recursion accounting -------------------------------------
//
// The expander and the tree-walking interpreter both recurse on the host
// (Rust) stack, and they nest within each other: phase-1 transformer
// bodies run mid-expansion. One shared counter bounds their *combined*
// depth, so the structured stack-depth diagnostic fires before the host
// stack does. The caps are calibrated empirically against an 8 MiB
// stack — a main thread's default, and what `.cargo/config.toml` grants
// test threads via RUST_MIN_STACK: measured worst case is ~6.5 KiB of
// host stack per level in debug builds and ~1 KiB in release builds.
// Embedders running Lagoon on smaller threads should set
// `Limits::max_stack_depth` proportionally lower.

/// Largest combined expander + interpreter host recursion depth.
#[cfg(debug_assertions)]
pub const HOST_RECURSION_CAP: u64 = 700;
/// Largest combined expander + interpreter host recursion depth.
#[cfg(not(debug_assertions))]
pub const HOST_RECURSION_CAP: u64 = 3_000;

thread_local! {
    static HOST_DEPTH: Cell<u64> = const { Cell::new(0) };
}

fn host_enter(cap: u64) -> Result<(), Exhausted> {
    let depth = HOST_DEPTH.with(|d| {
        let depth = d.get() + 1;
        d.set(depth);
        depth
    });
    if depth > cap {
        HOST_DEPTH.with(|d| d.set(d.get() - 1));
        return Err(exhausted(Budget::StackDepth, cap));
    }
    Ok(())
}

fn host_leave() {
    HOST_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
}

/// RAII guard for one level of host-stack recursion in the interpreter.
#[derive(Debug)]
pub struct HostDepth(());

impl Drop for HostDepth {
    fn drop(&mut self) {
        host_leave();
    }
}

/// Charges one level of non-tail interpreter recursion against both the
/// configured stack-depth budget and the host-stack cap; the level is
/// released when the guard drops.
pub fn enter_interp() -> Result<HostDepth, Exhausted> {
    let cap = max_stack_depth().min(HOST_RECURSION_CAP);
    host_enter(cap)?;
    Ok(HostDepth(()))
}

/// RAII guard for one level of macro-expansion nesting.
#[derive(Debug)]
pub struct DepthGuard(());

impl Drop for DepthGuard {
    fn drop(&mut self) {
        host_leave();
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            s.expansion_depth = s.expansion_depth.saturating_sub(1);
        });
    }
}

/// Enters one level of macro-expansion nesting; the depth is released
/// when the guard drops. Counts against the expansion-depth budget and
/// the shared host-stack cap.
pub fn enter_expansion() -> Result<DepthGuard, Exhausted> {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if s.expansion_depth >= s.limits.max_expansion_depth {
            return Err(exhausted(
                Budget::ExpansionDepth,
                s.limits.max_expansion_depth,
            ));
        }
        s.expansion_depth += 1;
        Ok(())
    })?;
    if let Err(e) = host_enter(HOST_RECURSION_CAP) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            s.expansion_depth = s.expansion_depth.saturating_sub(1);
        });
        return Err(e);
    }
    Ok(DepthGuard(()))
}

/// RAII scope marking phase-1 (compile-time) evaluation, so interpreter
/// steps inside transformer bodies charge the phase-1 pool.
pub struct Phase1Scope(());

impl Drop for Phase1Scope {
    fn drop(&mut self) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            s.phase1_nesting = s.phase1_nesting.saturating_sub(1);
        });
    }
}

/// Enters phase-1 evaluation (transformer bodies, `begin-for-syntax`).
pub fn phase1_scope() -> Phase1Scope {
    STATE.with(|s| s.borrow_mut().phase1_nesting += 1);
    Phase1Scope(())
}

/// Charges one tree-walking-interpreter step against the phase-1 pool
/// when inside a [`phase1_scope`], the run-time pool otherwise.
pub fn interp_step() -> Result<(), Exhausted> {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if s.phase1_nesting > 0 {
            if s.phase1_steps_left == 0 {
                return Err(exhausted(Budget::Phase1Steps, s.limits.max_phase1_steps));
            }
            s.phase1_steps_left -= 1;
        } else {
            if s.vm_steps_left == 0 {
                return Err(exhausted(Budget::VmSteps, s.limits.max_vm_steps));
            }
            s.vm_steps_left -= 1;
        }
        if let Some(n) = s.fault_vm_left.as_mut() {
            *n = n.saturating_sub(1);
            if *n == 0 {
                s.fault_vm_left = None;
                return Err(exhausted(Budget::InjectedFault, 0));
            }
        }
        s.deadline_stride = s.deadline_stride.saturating_sub(1);
        if s.deadline_stride == 0 {
            s.deadline_stride = DEADLINE_STRIDE;
            check_deadline(&s)?;
        }
        Ok(())
    })
}

/// Grants the VM a chunk of fuel (1..=[`VM_CHUNK`] steps) to count down
/// locally. Fails when the step pool is dry, the deadline has passed, or
/// an armed VM-step fault's trigger falls inside a previous grant.
/// Charges the whole chunk up front; call [`vm_return_fuel`] with the
/// unused remainder when leaving the dispatch loop.
///
/// Also says whether a VM profile sample is due: true at most once per
/// [`VM_CHUNK`] steps executed since the last refill, however often the
/// VM is re-entered.
pub fn vm_take_fuel() -> Result<(u64, bool), Exhausted> {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        check_deadline(&s)?;
        let used = s.limits.max_vm_steps.saturating_sub(s.vm_steps_left);
        let sample = used >= s.next_sample;
        if sample {
            s.next_sample = used.saturating_add(VM_CHUNK);
        }
        if s.vm_steps_left == 0 {
            return Err(exhausted(Budget::VmSteps, s.limits.max_vm_steps));
        }
        let mut grant = VM_CHUNK.min(s.vm_steps_left);
        if let Some(n) = s.fault_vm_left {
            if n == 0 {
                s.fault_vm_left = None;
                return Err(exhausted(Budget::InjectedFault, 0));
            }
            // stop the grant exactly at the trigger so the fault fires
            // on the armed step, not at chunk granularity
            grant = grant.min(n);
        }
        s.vm_steps_left -= grant;
        if let Some(n) = s.fault_vm_left.as_mut() {
            *n -= grant;
        }
        Ok((grant, sample))
    })
}

/// Returns unused fuel from a [`vm_take_fuel`] grant.
pub fn vm_return_fuel(unused: u64) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.vm_steps_left = s.vm_steps_left.saturating_add(unused);
        if let Some(n) = s.fault_vm_left.as_mut() {
            *n += unused;
        }
    });
}

/// The configured stack-depth limit (the VM checks its frame vector
/// against this; the interpreter its host recursion depth).
pub fn max_stack_depth() -> u64 {
    STATE.with(|s| s.borrow().limits.max_stack_depth)
}

/// A [`Budget::StackDepth`] exhaustion at the configured limit, for
/// engines that track depth themselves.
pub fn stack_overflow() -> Exhausted {
    exhausted(Budget::StackDepth, max_stack_depth())
}

/// Fires an armed primitive-call fault; near-free when no plan is armed.
#[inline]
pub fn prim_call() -> Result<(), Exhausted> {
    if !FAULTS_ACTIVE.with(Cell::get) {
        return Ok(());
    }
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if let Some(n) = s.fault_prim_left.as_mut() {
            *n = n.saturating_sub(1);
            if *n == 0 {
                s.fault_prim_left = None;
                return Err(exhausted(Budget::InjectedFault, 0));
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_budget_exhausts() {
        install(Limits {
            max_expansion_steps: 3,
            ..Limits::unlimited()
        });
        assert!(expansion_step().is_ok());
        assert!(expansion_step().is_ok());
        assert!(expansion_step().is_ok());
        let err = expansion_step().unwrap_err();
        assert_eq!(err.budget, Budget::ExpansionSteps);
        assert_eq!(err.limit, 3);
        install(Limits::default());
    }

    #[test]
    fn depth_guard_releases_on_drop() {
        install(Limits {
            max_expansion_depth: 2,
            ..Limits::unlimited()
        });
        let g1 = enter_expansion().unwrap();
        let g2 = enter_expansion().unwrap();
        assert_eq!(
            enter_expansion().unwrap_err().budget,
            Budget::ExpansionDepth
        );
        drop(g2);
        let g2 = enter_expansion().unwrap();
        drop(g1);
        drop(g2);
        install(Limits::default());
    }

    #[test]
    fn interp_steps_split_phase1_and_run_pools() {
        install(Limits {
            max_phase1_steps: 1,
            max_vm_steps: 2,
            ..Limits::unlimited()
        });
        assert!(interp_step().is_ok()); // run pool
        {
            let _p = phase1_scope();
            assert!(interp_step().is_ok());
            assert_eq!(interp_step().unwrap_err().budget, Budget::Phase1Steps);
        }
        assert!(interp_step().is_ok()); // run pool again
        assert_eq!(interp_step().unwrap_err().budget, Budget::VmSteps);
        install(Limits::default());
    }

    #[test]
    fn vm_fuel_is_chunked_and_returnable() {
        install(Limits {
            max_vm_steps: 100_000,
            ..Limits::unlimited()
        });
        let (grant, sample) = vm_take_fuel().unwrap();
        assert_eq!((grant, sample), (VM_CHUNK, false));
        vm_return_fuel(grant - 10);
        let (grant2, sample) = vm_take_fuel().unwrap();
        assert_eq!((grant2, sample), (VM_CHUNK.min(100_000 - 10), false));
        install(Limits::default());
    }

    #[test]
    fn profile_samples_fall_due_once_per_chunk_of_steps() {
        install(Limits::unlimited());
        let mut samples = 0;
        // a thousand short VM entries: 100 steps each, 100k in total
        for _ in 0..1000 {
            let (grant, sample) = vm_take_fuel().unwrap();
            samples += usize::from(sample);
            vm_return_fuel(grant - 100);
        }
        assert_eq!(samples, 1);
        refill();
        assert!(!vm_take_fuel().unwrap().1, "a refill starts a new count");
        install(Limits::default());
    }

    #[test]
    fn vm_fault_fires_on_exact_step() {
        install(Limits::unlimited());
        install_faults(FaultPlan {
            vm_step: Some(VM_CHUNK + 5),
            ..FaultPlan::default()
        });
        let (g1, _) = vm_take_fuel().unwrap();
        assert_eq!(g1, VM_CHUNK);
        let (g2, sample) = vm_take_fuel().unwrap();
        assert_eq!((g2, sample), (5, true));
        assert_eq!(vm_take_fuel().unwrap_err().budget, Budget::InjectedFault);
        clear_faults();
        install(Limits::default());
    }

    #[test]
    fn prim_fault_fires_on_nth_call() {
        install(Limits::unlimited());
        install_faults(FaultPlan {
            prim_call: Some(2),
            ..FaultPlan::default()
        });
        assert!(prim_call().is_ok());
        assert_eq!(prim_call().unwrap_err().budget, Budget::InjectedFault);
        assert!(prim_call().is_ok()); // disarmed after firing
        clear_faults();
        install(Limits::default());
    }

    #[test]
    fn deadline_fails_from_charge_sites() {
        install(Limits {
            timeout: Some(Duration::ZERO),
            ..Limits::unlimited()
        });
        assert_eq!(vm_take_fuel().unwrap_err().budget, Budget::Deadline);
        install(Limits::default());
    }

    #[test]
    fn suspended_work_leaves_the_callers_budgets_alone() {
        install(Limits {
            max_expansion_steps: 10,
            ..Limits::unlimited()
        });
        install_faults(FaultPlan {
            prim_call: Some(2),
            ..FaultPlan::default()
        });
        expansion_steps(4).unwrap();
        assert!(prim_call().is_ok());
        suspended(|| {
            expansion_steps(1_000).expect("no budget inside");
            for _ in 0..10 {
                prim_call().expect("no fault armed inside");
            }
        });
        assert_eq!(current().max_expansion_steps, 10);
        assert_eq!(prim_call().unwrap_err().budget, Budget::InjectedFault);
        expansion_steps(6).unwrap();
        assert_eq!(
            expansion_step().unwrap_err().budget,
            Budget::ExpansionSteps,
            "the pool kept the steps spent before"
        );
        clear_faults();
        install(Limits::default());
    }

    #[test]
    fn seeded_fault_plans_are_deterministic() {
        let a = FaultPlan::from_seed(42, 1000);
        let b = FaultPlan::from_seed(42, 1000);
        assert_eq!(a, b);
        assert!(a.expansion_step.is_some() || a.vm_step.is_some() || a.prim_call.is_some());
    }
}
