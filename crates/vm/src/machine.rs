//! The stack machine.
//!
//! Executes [`Proto`] bytecode over a value stack with explicit frames.
//! Tail calls replace the current frame, so hosted tail recursion runs in
//! constant space on both the value stack and the Rust stack.
//!
//! The generic instructions (`Add2`, `Car`, …) route through the runtime's
//! tag-dispatching numeric tower; the `Fl*`/`Fx*`/`Fc*`/`Unsafe*`
//! instructions extract payloads with a single pattern match and no
//! checks — the machine-level realization of the paper's unsafe
//! primitives. Both read their operands through [`Arg`] addresses:
//! stack-top operands are popped (the second above the first), frame
//! slots and constants are read in place.

use crate::bytecode::{Arg, CaptureSrc, ModuleCode, Op, Proto};
use crate::counters::Tally;
use crate::engine::{
    apply_contracted, arity_error, call_native, not_a_procedure, splice_intercepted, Engine,
};
use lagoon_runtime::{number, Arity, Closure, Kind, Native, RtError, Value};
use lagoon_syntax::Symbol;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// A module instance's global-variable table.
#[derive(Debug)]
pub struct Globals {
    /// Slot `i` holds the variable named `names[i]`.
    pub names: Vec<Symbol>,
    /// Name → slot, built once at instantiation so by-name lookups
    /// (export extraction does one per export, per dependant) are O(1)
    /// instead of a linear scan of `names`. First slot wins, matching
    /// the scan it replaces.
    index: HashMap<Symbol, usize>,
    slots: RefCell<Vec<Option<Value>>>,
}

impl Globals {
    /// Builds a table for `code`, resolving each imported name with
    /// `resolve` (module-defined names start undefined).
    pub fn for_module(
        code: &ModuleCode,
        mut resolve: impl FnMut(Symbol) -> Option<Value>,
    ) -> Rc<Globals> {
        let slots = code
            .global_names
            .iter()
            .map(|name| resolve(*name))
            .collect();
        let mut index = HashMap::with_capacity(code.global_names.len());
        for (i, name) in code.global_names.iter().enumerate() {
            index.entry(*name).or_insert(i);
        }
        Rc::new(Globals {
            names: code.global_names.clone(),
            index,
            slots: RefCell::new(slots),
        })
    }

    /// Reads a global by name (used to extract exports after the module
    /// body runs).
    pub fn get(&self, name: Symbol) -> Option<Value> {
        let idx = *self.index.get(&name)?;
        self.slots.borrow()[idx].clone()
    }

    /// Empties every slot, so the closures the module defined stop
    /// pointing back at this table; one still held elsewhere raises
    /// `unbound` when it next reads a global.
    pub fn clear(&self) {
        self.slots.borrow_mut().fill(None);
    }

    /// Every defined (non-`None`) global, by name.
    pub fn snapshot(&self) -> Vec<(Symbol, Value)> {
        self.names
            .iter()
            .zip(self.slots.borrow().iter())
            .filter_map(|(n, v)| v.clone().map(|v| (*n, v)))
            .collect()
    }
}

/// The environment payload of a VM closure.
#[derive(Debug)]
pub struct VmEnv {
    /// Captured values (boxes for mutable variables).
    pub captures: Vec<Value>,
    /// The defining module instance's globals.
    pub globals: Rc<Globals>,
}

struct Frame {
    proto: Rc<Proto>,
    ip: usize,
    /// Index of the first argument/local on the stack; `base - 1` holds
    /// the callee value.
    base: usize,
    env: Rc<VmEnv>,
}

/// The bytecode engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct Vm;

impl Vm {
    /// Instantiates and runs a compiled module body. Returns the body's
    /// final value together with the instance's globals (for export
    /// extraction).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from the module body.
    pub fn run_module(
        &self,
        code: &ModuleCode,
        resolve: impl FnMut(Symbol) -> Option<Value>,
    ) -> Result<(Value, Rc<Globals>), RtError> {
        let globals = Globals::for_module(code, resolve);
        let env = Rc::new(VmEnv {
            captures: Vec::new(),
            globals: globals.clone(),
        });
        let v = run(&Value::Void, code.top.clone(), env, &[])?;
        Ok((v, globals))
    }
}

impl Engine for Vm {
    fn apply(&self, f: &Value, args: &[Value]) -> Result<Value, RtError> {
        let mut f = f.clone();
        let mut args = args.to_vec();
        loop {
            if let Some(n) = f.as_native() {
                if let Some(intercept) = n.intercept {
                    (f, args) = splice_intercepted(self, intercept, &args)?;
                    continue;
                }
                return call_native(n, &args);
            }
            if let Some(c) = f.as_contracted() {
                return apply_contracted(self, c, &args);
            }
            if let Some(c) = f.as_closure() {
                let (proto, env) = c.payload().ok_or_else(foreign_closure)?;
                return run(&f, proto, env, &args);
            }
            return Err(not_a_procedure(&f));
        }
    }
}

#[cold]
fn foreign_closure() -> RtError {
    RtError::new(
        Kind::Internal,
        "closure from a different engine applied by the VM",
    )
}

fn underflow() -> RtError {
    RtError::new(Kind::Internal, "value stack underflow")
}

// Unsafe-op payload extraction: a misapplied operand yields an arbitrary
// value (0 / 0.0), never UB. Works on a `&Value` without cloning — with
// the word representation this is a tag test plus a bit reinterpretation.
macro_rules! flval {
    ($v:expr) => {
        $v.as_float().unwrap_or(0.0)
    };
}

macro_rules! fxval {
    ($v:expr) => {
        $v.as_int().unwrap_or(0)
    };
}

macro_rules! fcval {
    ($v:expr) => {
        $v.as_complex().unwrap_or((0.0, 0.0))
    };
}

/// Reusable per-activation machine state: the unified operand/locals
/// stack and the suspended-caller frames.
///
/// Pooled per thread so re-entrant VM activations (a native calling back
/// into hosted code) each check out their own buffers while plain calls
/// reuse warm allocations instead of growing fresh `Vec`s every entry.
#[derive(Default)]
struct Buffers {
    stack: Vec<Value>,
    frames: Vec<Frame>,
}

thread_local! {
    static BUFFER_POOL: RefCell<Vec<Buffers>> = const { RefCell::new(Vec::new()) };
}

fn take_buffers() -> Buffers {
    BUFFER_POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default()
}

/// Returns a checked-out buffer set to the pool, clearing it first. The
/// clear is the error-unwind invariant restore: an error can abandon
/// operands and frames on the stack; the next activation must start
/// from empty.
fn return_buffers(mut bufs: Buffers) {
    bufs.stack.clear();
    bufs.frames.clear();
    BUFFER_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < 8 {
            pool.push(bufs);
        }
    });
}

/// Runs `proto` as the body of a call of `callee` (the closure it
/// belongs to, or void for a module body) with `args`, to completion.
///
/// Selects between the counting and non-counting monomorphizations of
/// [`exec`] once per entry, so the hot loop itself carries no counting
/// branch when opcode counters are off.
fn run(callee: &Value, proto: Rc<Proto>, env: Rc<VmEnv>, args: &[Value]) -> Result<Value, RtError> {
    let mut bufs = take_buffers();
    let result = if crate::counters::active() {
        exec::<true>(callee, proto, env, args, &mut bufs)
    } else {
        exec::<false>(callee, proto, env, args, &mut bufs)
    };
    return_buffers(bufs);
    result
}

/// The interpreter loop, monomorphized over whether per-opcode counters
/// are recorded.
///
/// Fuel is drawn from the shared step budget in chunks
/// ([`lagoon_diag::limits::vm_take_fuel`]) and counted down in a local,
/// so the per-opcode cost is a decrement-and-test; the stack-depth limit
/// is read once per activation. Every exit, errors included, leaves the
/// loop through the `'exit` block, after which the unused fuel goes back
/// to the budget (natives can re-enter the VM) and the activation's
/// opcode counts join the thread's.
fn exec<const COUNT: bool>(
    callee: &Value,
    proto: Rc<Proto>,
    env: Rc<VmEnv>,
    args: &[Value],
    bufs: &mut Buffers,
) -> Result<Value, RtError> {
    let max_depth = lagoon_diag::limits::max_stack_depth();
    let mut fuel: u64 = 0;
    let mut tally = Tally::default();
    // the unified operand/frame stack: every frame's callee sits at
    // `base - 1`, its args/locals at frame-pointer-relative slots
    // `base..base + nlocals`, and operand temporaries above them. Held
    // in a local for the activation, so a push or a pop reaches its
    // length without first loading where the buffers live
    let mut stack = std::mem::take(&mut bufs.stack);
    let stack = &mut stack;
    // suspended callers only — the active frame lives in the `cur`
    // local, so per-instruction dispatch touches frame state (proto,
    // code, ip, base, env) through a local instead of re-borrowing the
    // frame vector every iteration
    let frames = &mut bufs.frames;
    let result = 'exit: {
        /// Unwraps a result, or leaves the loop with its error.
        macro_rules! ok {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(e) => break 'exit Err(e),
                }
            };
        }
        /// Pops a value, surfacing a corrupted stack as a structured
        /// internal error instead of a panic.
        macro_rules! pop {
            () => {
                match stack.pop() {
                    Some(v) => v,
                    None => break 'exit Err(underflow()),
                }
            };
        }

        // every frame's callee slot `base - 1` holds the closure it runs
        // (a module body's holds void)
        stack.push(callee.clone());
        stack.extend_from_slice(args);
        let mut cur = ok!(make_frame(stack, proto, env, 1, args.len(), 0, max_depth));

        loop {
            fuel = match fuel.checked_sub(1) {
                Some(left) => left,
                None => {
                    let (grant, sample) =
                        ok!(lagoon_diag::limits::vm_take_fuel().map_err(RtError::from));
                    // sampling profiler: attribute the last chunk of
                    // executed steps to the innermost running function
                    // (rarely-taken branch, so the hot path carries no
                    // per-opcode cost)
                    if sample {
                        lagoon_diag::sample(cur.proto.name);
                    }
                    // a grant is never empty: an exhausted budget is the
                    // error above
                    grant - 1
                }
            };
            let op = cur.proto.code[cur.ip];
            cur.ip += 1;
            if COUNT {
                tally.record(&op);
            }
            match op {
                Op::Const(k) => stack.push(cur.proto.consts[k as usize].clone()),
                Op::Void => stack.push(Value::Void),
                Op::LoadLocal(i) => stack.push(stack[cur.base + i as usize].clone()),
                Op::StoreLocal(i) => {
                    let v = pop!();
                    let slot = cur.base + i as usize;
                    stack[slot] = v;
                }
                Op::LoadCapture(i) => stack.push(cur.env.captures[i as usize].clone()),
                Op::LoadGlobal(i) => {
                    // straight-line runs of loads (argument setup for a
                    // call is the common case) share one slot borrow: each
                    // extra load still pays its fuel and its counter, so
                    // budgets and recorded opcode mixes are identical to
                    // dispatching them individually, and the borrow ends
                    // before any other instruction (or a re-entrant
                    // native) runs
                    let slots = cur.env.globals.slots.borrow();
                    let mut idx = i;
                    loop {
                        match &slots[idx as usize] {
                            Some(v) => stack.push(v.clone()),
                            None => {
                                let name = cur.env.globals.names[idx as usize];
                                break 'exit Err(RtError::unbound(name));
                            }
                        }
                        match cur.proto.code.get(cur.ip).copied() {
                            Some(next @ Op::LoadGlobal(j)) if fuel > 0 => {
                                idx = j;
                                cur.ip += 1;
                                fuel -= 1;
                                if COUNT {
                                    tally.record(&next);
                                }
                            }
                            _ => break,
                        }
                    }
                }
                Op::StoreGlobal(i) => {
                    let v = pop!();
                    cur.env.globals.slots.borrow_mut()[i as usize] = Some(v);
                }
                Op::Jump(t) => cur.ip = t as usize,
                Op::JumpIfFalse(t) => {
                    if !pop!().is_truthy() {
                        cur.ip = t as usize;
                    }
                }
                Op::MakeClosure(i) => {
                    let child = cur.proto.protos[i as usize].clone();
                    let captures = child
                        .captures
                        .iter()
                        .map(|src| match src {
                            CaptureSrc::Local(s) => stack[cur.base + *s as usize].clone(),
                            CaptureSrc::Capture(c) => cur.env.captures[*c as usize].clone(),
                            CaptureSrc::Callee => stack[cur.base - 1].clone(),
                        })
                        .collect();
                    let env = Rc::new(VmEnv {
                        captures,
                        globals: cur.env.globals.clone(),
                    });
                    let closure = Closure::new(child.name, child.arity, child, env);
                    stack.push(Value::Closure(Rc::new(closure)));
                }
                Op::LoadCallee => stack.push(stack[cur.base - 1].clone()),
                Op::Call(n) => {
                    // a VM closure of exact arity and a plain native are
                    // called here; everything else goes through
                    // `enter_call`
                    let n = n as usize;
                    let argstart = stack.len() - n;
                    if let Some((proto, env)) = exact_closure(&stack[argstart - 1], n) {
                        let depth = frames.len() + 1;
                        let f = ok!(make_frame(stack, proto, env, argstart, n, depth, max_depth));
                        frames.push(std::mem::replace(&mut cur, f));
                    } else if let Some(nat) = plain_native(&stack[argstart - 1]) {
                        let result = ok!(call_native(nat, &stack[argstart..]));
                        stack.truncate(argstart - 1);
                        stack.push(result);
                    } else {
                        match ok!(enter_call(stack, n, None, frames.len() + 1, max_depth)) {
                            Dispatch::Frame(f) => frames.push(std::mem::replace(&mut cur, f)),
                            Dispatch::Done => {}
                        }
                    }
                }
                Op::TailCall(n) => {
                    let n = n as usize;
                    let argstart = stack.len() - n;
                    // self-tail-call: the callee is bit-identical to the
                    // closure this frame is already running (a loop the
                    // compiler could not prove, such as a `letrec`-bound
                    // one), so the frame can be reused in place — same
                    // proto, same captures, no dispatch, no depth
                    // bookkeeping. The exact-arity check is the whole of
                    // `accepts` with `rest == false`, and the closure
                    // guard keeps a module body's void callee from ever
                    // matching itself.
                    if n == cur.proto.arity.required
                        && !cur.proto.arity.rest
                        && stack[argstart - 1].eq_identity(&stack[cur.base - 1])
                        && stack[cur.base - 1].as_closure().is_some()
                    {
                        restart(stack, &mut cur, n);
                        continue;
                    }
                    if let Some((proto, env)) = exact_closure(&stack[argstart - 1], n) {
                        slide_down(stack, cur.base, n);
                        let (base, depth) = (cur.base, frames.len());
                        cur = ok!(make_frame(stack, proto, env, base, n, depth, max_depth));
                        continue;
                    }
                    match ok!(enter_call(
                        stack,
                        n,
                        Some(cur.base),
                        frames.len(),
                        max_depth
                    )) {
                        Dispatch::Frame(f) => {
                            cur = f;
                            continue;
                        }
                        Dispatch::Done => {}
                    }
                    // a native or contracted callee completed the tail
                    // call; unwind to the caller as `Return` would
                    let result = pop!();
                    stack.truncate(cur.base - 1);
                    match frames.pop() {
                        Some(f) => {
                            cur = f;
                            stack.push(result);
                        }
                        None => break 'exit Ok(result),
                    }
                }
                Op::Loop(n) => restart(stack, &mut cur, n as usize),
                Op::Return => {
                    let result = pop!();
                    stack.truncate(cur.base - 1);
                    match frames.pop() {
                        Some(f) => {
                            cur = f;
                            stack.push(result);
                        }
                        None => break 'exit Ok(result),
                    }
                }
                Op::Pop => {
                    stack.pop();
                }
                Op::BoxNew => {
                    let v = pop!();
                    stack.push(Value::Box(Rc::new(RefCell::new(v))));
                }
                Op::BoxGet => {
                    let v = pop!();
                    match v.as_box() {
                        Some(b) => {
                            let inner = b.borrow().clone();
                            stack.push(inner);
                        }
                        None => break 'exit Err(RtError::new(Kind::Internal, "BoxGet on non-box")),
                    }
                }
                Op::BoxSet => {
                    let v = pop!();
                    let b = pop!();
                    match b.as_box() {
                        Some(b) => {
                            *b.borrow_mut() = v;
                        }
                        None => break 'exit Err(RtError::new(Kind::Internal, "BoxSet on non-box")),
                    }
                    stack.push(Value::Void);
                }

                // ---- generic fast paths ----
                Op::Add2(a, b) => ok!(arith(stack, &cur, a, b, add_value)),
                Op::Sub2(a, b) => ok!(arith(stack, &cur, a, b, sub_value)),
                Op::Mul2(a, b) => ok!(arith(stack, &cur, a, b, mul_value)),
                Op::Div2(a, b) => ok!(arith(stack, &cur, a, b, div_value)),
                Op::Lt2(a, b) => ok!(test(stack, &cur, a, b, lt)),
                Op::Le2(a, b) => ok!(test(stack, &cur, a, b, le)),
                Op::Gt2(a, b) => ok!(test(stack, &cur, a, b, gt)),
                Op::Ge2(a, b) => ok!(test(stack, &cur, a, b, ge)),
                Op::NumEq2(a, b) => ok!(test(stack, &cur, a, b, num_eq_value)),
                Op::BrLt2(a, b, t) => ok!(branch(stack, &mut cur, a, b, t, lt)),
                Op::BrLe2(a, b, t) => ok!(branch(stack, &mut cur, a, b, t, le)),
                Op::BrGt2(a, b, t) => ok!(branch(stack, &mut cur, a, b, t, gt)),
                Op::BrGe2(a, b, t) => ok!(branch(stack, &mut cur, a, b, t, ge)),
                Op::BrNumEq2(a, b, t) => ok!(branch(stack, &mut cur, a, b, t, num_eq_value)),
                Op::Add1 => {
                    let a = pop!();
                    stack.push(ok!(add_value(&a, &Value::Int(1))));
                }
                Op::Sub1 => {
                    let a = pop!();
                    stack.push(ok!(sub_value(&a, &Value::Int(1))));
                }
                Op::ZeroP(a) => {
                    let x = ok!(unary(stack, &cur, a, zero_value));
                    stack.push(Value::Bool(x));
                }
                Op::BrZeroP(a, t) => {
                    if !ok!(unary(stack, &cur, a, zero_value)) {
                        cur.ip = t as usize;
                    }
                }
                Op::Car(a) => {
                    let x = ok!(unary(stack, &cur, a, car_value));
                    stack.push(x);
                }
                Op::Cdr(a) => {
                    let x = ok!(unary(stack, &cur, a, cdr_value));
                    stack.push(x);
                }
                Op::Cons => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(Value::cons(a, b));
                }
                Op::NullP(a) => {
                    let x = ok!(unary(stack, &cur, a, |v| Ok(v.is_nil())));
                    stack.push(Value::Bool(x));
                }
                Op::BrNullP(a, t) => {
                    if !ok!(unary(stack, &cur, a, |v| Ok(v.is_nil()))) {
                        cur.ip = t as usize;
                    }
                }
                Op::PairP(a) => {
                    let x = ok!(unary(stack, &cur, a, |v| Ok(v.as_pair().is_some())));
                    stack.push(Value::Bool(x));
                }
                Op::BrPairP(a, t) => {
                    if ok!(unary(stack, &cur, a, |v| Ok(v.as_pair().is_none()))) {
                        cur.ip = t as usize;
                    }
                }
                Op::Not => {
                    let a = pop!();
                    stack.push(Value::Bool(!a.is_truthy()));
                }
                Op::EqP => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(Value::Bool(a.eq_identity(&b)));
                }
                Op::VectorRef(a, b) => ok!(arith(stack, &cur, a, b, vector_ref_value)),
                Op::VectorSet => {
                    let x = pop!();
                    let i = pop!();
                    let v = pop!();
                    match (v.as_vector(), i.as_int()) {
                        (Some(vec), Some(n)) => {
                            let mut vec = vec.borrow_mut();
                            let idx = n as usize;
                            if n < 0 || idx >= vec.len() {
                                break 'exit Err(RtError::new(
                                    Kind::Range,
                                    format!(
                                        "vector-set!: index {n} out of range for length {}",
                                        vec.len()
                                    ),
                                ));
                            }
                            vec[idx] = x;
                        }
                        _ => {
                            break 'exit Err(RtError::type_error(
                                "vector-set!: expected vector and index",
                            ))
                        }
                    }
                    stack.push(Value::Void);
                }
                Op::VectorLength => {
                    let v = pop!();
                    match v.as_vector() {
                        Some(vec) => {
                            let len = vec.borrow().len() as i64;
                            stack.push(Value::Int(len));
                        }
                        None => {
                            break 'exit Err(RtError::type_error(format!(
                                "vector-length: expected vector, got {}",
                                v.write_string()
                            )))
                        }
                    }
                }

                // ---- unsafe specialized instructions ----
                Op::FlAdd(a, b) => ok!(fl(stack, &cur, a, b, |x, y| x + y)),
                Op::FlSub(a, b) => ok!(fl(stack, &cur, a, b, |x, y| x - y)),
                Op::FlMul(a, b) => ok!(fl(stack, &cur, a, b, |x, y| x * y)),
                Op::FlDiv(a, b) => ok!(fl(stack, &cur, a, b, |x, y| x / y)),
                Op::FlMin(a, b) => ok!(fl(stack, &cur, a, b, number::flmin)),
                Op::FlMax(a, b) => ok!(fl(stack, &cur, a, b, number::flmax)),
                Op::FlLt(a, b) => ok!(test(stack, &cur, a, b, |x, y| Ok(flval!(x) < flval!(y)))),
                Op::FlLe(a, b) => ok!(test(stack, &cur, a, b, |x, y| Ok(flval!(x) <= flval!(y)))),
                Op::FlGt(a, b) => ok!(test(stack, &cur, a, b, |x, y| Ok(flval!(x) > flval!(y)))),
                Op::FlGe(a, b) => ok!(test(stack, &cur, a, b, |x, y| Ok(flval!(x) >= flval!(y)))),
                Op::FlEq(a, b) => ok!(test(stack, &cur, a, b, |x, y| Ok(flval!(x) == flval!(y)))),
                Op::BrFlLt(a, b, t) => {
                    ok!(branch(stack, &mut cur, a, b, t, |x, y| Ok(
                        flval!(x) < flval!(y)
                    )))
                }
                Op::BrFlLe(a, b, t) => {
                    ok!(branch(stack, &mut cur, a, b, t, |x, y| Ok(
                        flval!(x) <= flval!(y)
                    )))
                }
                Op::BrFlGt(a, b, t) => {
                    ok!(branch(stack, &mut cur, a, b, t, |x, y| Ok(
                        flval!(x) > flval!(y)
                    )))
                }
                Op::BrFlGe(a, b, t) => {
                    ok!(branch(stack, &mut cur, a, b, t, |x, y| Ok(
                        flval!(x) >= flval!(y)
                    )))
                }
                Op::BrFlEq(a, b, t) => {
                    ok!(branch(stack, &mut cur, a, b, t, |x, y| Ok(
                        flval!(x) == flval!(y)
                    )))
                }
                Op::FlSqrt => {
                    let a = flval!(pop!());
                    stack.push(Value::Float(a.sqrt()));
                }
                Op::FlAbs => {
                    let a = flval!(pop!());
                    stack.push(Value::Float(a.abs()));
                }
                Op::FxAdd(a, b) => ok!(fx(stack, &cur, a, b, i64::wrapping_add)),
                Op::FxSub(a, b) => ok!(fx(stack, &cur, a, b, i64::wrapping_sub)),
                Op::FxMul(a, b) => ok!(fx(stack, &cur, a, b, i64::wrapping_mul)),
                Op::FxLt(a, b) => ok!(test(stack, &cur, a, b, |x, y| Ok(fxval!(x) < fxval!(y)))),
                Op::FxLe(a, b) => ok!(test(stack, &cur, a, b, |x, y| Ok(fxval!(x) <= fxval!(y)))),
                Op::FxGt(a, b) => ok!(test(stack, &cur, a, b, |x, y| Ok(fxval!(x) > fxval!(y)))),
                Op::FxGe(a, b) => ok!(test(stack, &cur, a, b, |x, y| Ok(fxval!(x) >= fxval!(y)))),
                Op::FxEq(a, b) => ok!(test(stack, &cur, a, b, |x, y| Ok(fxval!(x) == fxval!(y)))),
                Op::BrFxLt(a, b, t) => {
                    ok!(branch(stack, &mut cur, a, b, t, |x, y| Ok(
                        fxval!(x) < fxval!(y)
                    )))
                }
                Op::BrFxLe(a, b, t) => {
                    ok!(branch(stack, &mut cur, a, b, t, |x, y| Ok(
                        fxval!(x) <= fxval!(y)
                    )))
                }
                Op::BrFxGt(a, b, t) => {
                    ok!(branch(stack, &mut cur, a, b, t, |x, y| Ok(
                        fxval!(x) > fxval!(y)
                    )))
                }
                Op::BrFxGe(a, b, t) => {
                    ok!(branch(stack, &mut cur, a, b, t, |x, y| Ok(
                        fxval!(x) >= fxval!(y)
                    )))
                }
                Op::BrFxEq(a, b, t) => {
                    ok!(branch(stack, &mut cur, a, b, t, |x, y| Ok(
                        fxval!(x) == fxval!(y)
                    )))
                }
                Op::FcAdd(a, b) => {
                    ok!(fc(stack, &cur, a, b, |(ar, ai), (br, bi)| (
                        ar + br,
                        ai + bi
                    )))
                }
                Op::FcSub(a, b) => {
                    ok!(fc(stack, &cur, a, b, |(ar, ai), (br, bi)| (
                        ar - br,
                        ai - bi
                    )))
                }
                Op::FcMul(a, b) => ok!(fc(stack, &cur, a, b, |(ar, ai), (br, bi)| {
                    (ar * br - ai * bi, ar * bi + ai * br)
                })),
                Op::FcDiv(a, b) => ok!(fc(stack, &cur, a, b, |(ar, ai), (br, bi)| {
                    let d = br * br + bi * bi;
                    ((ar * br + ai * bi) / d, (ai * br - ar * bi) / d)
                })),
                Op::FcMag => {
                    let (re, im) = fcval!(pop!());
                    stack.push(Value::Float(re.hypot(im)));
                }
                Op::UnsafeCar(a) => {
                    let x = ok!(unary(stack, &cur, a, |v| Ok(match v.as_pair() {
                        Some(p) => p.0.clone(),
                        None => v.clone(),
                    })));
                    stack.push(x);
                }
                Op::UnsafeCdr(a) => {
                    let x = ok!(unary(stack, &cur, a, |v| Ok(match v.as_pair() {
                        Some(p) => p.1.clone(),
                        None => v.clone(),
                    })));
                    stack.push(x);
                }
                Op::UnsafeVectorRef(a, b) => ok!(arith(stack, &cur, a, b, |v, i| {
                    Ok(match (v.as_vector(), i.as_int()) {
                        (Some(vec), Some(n)) => {
                            vec.borrow().get(n as usize).cloned().unwrap_or(Value::Void)
                        }
                        _ => Value::Void,
                    })
                })),
                Op::UnsafeVectorSet => {
                    let x = pop!();
                    let i = pop!();
                    let v = pop!();
                    if let (Some(vec), Some(n)) = (v.as_vector(), i.as_int()) {
                        let mut vec = vec.borrow_mut();
                        let idx = n as usize;
                        if idx < vec.len() {
                            vec[idx] = x;
                        }
                    }
                    stack.push(Value::Void);
                }
                Op::UnsafeVectorLength => {
                    let v = pop!();
                    let len = v.as_vector().map_or(0, |vec| vec.borrow().len() as i64);
                    stack.push(Value::Int(len));
                }
                Op::FxToFl(a) => {
                    let x = ok!(unary(stack, &cur, a, |v| Ok(fxval!(v) as f64)));
                    stack.push(Value::Float(x));
                }
            }
        }
    };
    bufs.stack = std::mem::take(stack);
    lagoon_diag::limits::vm_return_fuel(fuel);
    if COUNT {
        crate::counters::add(&tally);
    }
    result
}

/// Restarts `frame` with the `n` arguments on top of the stack as its
/// parameters and its other locals reset to void.
#[inline(always)]
fn restart(stack: &mut Vec<Value>, frame: &mut Frame, n: usize) {
    let argstart = stack.len() - n;
    for i in 0..n {
        stack.swap(frame.base + i, argstart + i);
    }
    stack.truncate(frame.base + n);
    while stack.len() < frame.base + frame.proto.nlocals as usize {
        stack.push(Value::Void);
    }
    frame.ip = 0;
}

/// The operand `arg` addresses: `held` when it was popped, otherwise a
/// slot of `frame` or one of its constants.
#[inline(always)]
fn operand<'a>(
    arg: Arg,
    held: &'a Option<Value>,
    stack: &'a [Value],
    frame: &'a Frame,
) -> &'a Value {
    match held {
        Some(v) => v,
        None if arg.is_const() => &frame.proto.consts[arg.index()],
        None => &stack[frame.base + arg.index()],
    }
}

/// Applies `f` to the operands `a` and `b` address. Stack-top operands
/// are popped first, `b` from above `a`, as the pushes left them. (Read
/// in place and popped after `f`, they measured slower: see DESIGN.md.)
#[inline(always)]
fn binary<R>(
    stack: &mut Vec<Value>,
    frame: &Frame,
    a: Arg,
    b: Arg,
    f: impl FnOnce(&Value, &Value) -> Result<R, RtError>,
) -> Result<R, RtError> {
    let held_b = if b.is_stack() {
        Some(stack.pop().ok_or_else(underflow)?)
    } else {
        None
    };
    let held_a = if a.is_stack() {
        Some(stack.pop().ok_or_else(underflow)?)
    } else {
        None
    };
    f(
        operand(a, &held_a, stack, frame),
        operand(b, &held_b, stack, frame),
    )
}

/// Applies `f` to the operand `a` addresses.
#[inline(always)]
fn unary<R>(
    stack: &mut Vec<Value>,
    frame: &Frame,
    a: Arg,
    f: impl FnOnce(&Value) -> Result<R, RtError>,
) -> Result<R, RtError> {
    let held = if a.is_stack() {
        Some(stack.pop().ok_or_else(underflow)?)
    } else {
        None
    };
    f(operand(a, &held, stack, frame))
}

type Test = fn(&Value, &Value) -> Result<bool, RtError>;

/// A two-operand instruction whose result is a value.
#[inline(always)]
fn arith(
    stack: &mut Vec<Value>,
    frame: &Frame,
    a: Arg,
    b: Arg,
    f: fn(&Value, &Value) -> Result<Value, RtError>,
) -> Result<(), RtError> {
    let x = binary(stack, frame, a, b, f)?;
    stack.push(x);
    Ok(())
}

/// A comparison or predicate whose result is pushed as a boolean.
#[inline(always)]
fn test(stack: &mut Vec<Value>, frame: &Frame, a: Arg, b: Arg, f: Test) -> Result<(), RtError> {
    let x = binary(stack, frame, a, b, f)?;
    stack.push(Value::Bool(x));
    Ok(())
}

/// The branch form of a comparison or predicate: jumps to `t` when the
/// test is false.
#[inline(always)]
fn branch(
    stack: &mut Vec<Value>,
    frame: &mut Frame,
    a: Arg,
    b: Arg,
    t: u32,
    f: Test,
) -> Result<(), RtError> {
    if !binary(stack, frame, a, b, f)? {
        frame.ip = t as usize;
    }
    Ok(())
}

#[inline(always)]
fn fl(
    stack: &mut Vec<Value>,
    frame: &Frame,
    a: Arg,
    b: Arg,
    f: fn(f64, f64) -> f64,
) -> Result<(), RtError> {
    let x = binary(stack, frame, a, b, |x, y| Ok(f(flval!(x), flval!(y))))?;
    stack.push(Value::Float(x));
    Ok(())
}

#[inline(always)]
fn fx(
    stack: &mut Vec<Value>,
    frame: &Frame,
    a: Arg,
    b: Arg,
    f: fn(i64, i64) -> i64,
) -> Result<(), RtError> {
    let x = binary(stack, frame, a, b, |x, y| Ok(f(fxval!(x), fxval!(y))))?;
    stack.push(Value::Int(x));
    Ok(())
}

type FcOp = fn((f64, f64), (f64, f64)) -> (f64, f64);

#[inline(always)]
fn fc(stack: &mut Vec<Value>, frame: &Frame, a: Arg, b: Arg, f: FcOp) -> Result<(), RtError> {
    let (re, im) = binary(stack, frame, a, b, |x, y| Ok(f(fcval!(x), fcval!(y))))?;
    stack.push(Value::Complex(re, im));
    Ok(())
}

/// Checked `car`.
#[inline]
fn car_value(a: &Value) -> Result<Value, RtError> {
    match a.as_pair() {
        Some(p) => Ok(p.0.clone()),
        None => Err(RtError::type_error(format!(
            "car: expected pair, got {}",
            a.write_string()
        ))),
    }
}

/// Checked `cdr`.
#[inline]
fn cdr_value(a: &Value) -> Result<Value, RtError> {
    match a.as_pair() {
        Some(p) => Ok(p.1.clone()),
        None => Err(RtError::type_error(format!(
            "cdr: expected pair, got {}",
            a.write_string()
        ))),
    }
}

/// `zero?` with the checked error path.
#[inline]
fn zero_value(a: &Value) -> Result<bool, RtError> {
    if let Some(n) = a.as_int() {
        Ok(n == 0)
    } else if let Some(x) = a.as_float() {
        Ok(x == 0.0)
    } else if let Some((re, im)) = a.as_complex() {
        Ok(re == 0.0 && im == 0.0)
    } else {
        Err(RtError::type_error(format!(
            "zero?: expected number, got {}",
            a.write_string()
        )))
    }
}

/// Checked `vector-ref`.
#[inline]
fn vector_ref_value(v: &Value, i: &Value) -> Result<Value, RtError> {
    match (v.as_vector(), i.as_int()) {
        (Some(vec), Some(n)) => {
            let vec = vec.borrow();
            let idx = n as usize;
            if n < 0 || idx >= vec.len() {
                return Err(RtError::new(
                    Kind::Range,
                    format!(
                        "vector-ref: index {n} out of range for length {}",
                        vec.len()
                    ),
                ));
            }
            Ok(vec[idx].clone())
        }
        _ => Err(RtError::type_error(format!(
            "vector-ref: expected vector and index, got {} and {}",
            v.write_string(),
            i.write_string()
        ))),
    }
}

// Inline fast paths for the generic arithmetic opcodes: two flonums or
// two exact integers are decided by a tag compare each and skip the
// numeric tower's promote dispatch (behind a non-inlinable fn pointer
// before these existed). Everything else — mixed exact/inexact, complex,
// fixnum overflow — falls back to the generic tower, which also owns the
// error messages, so semantics are identical by construction.

#[inline(always)]
fn add_value(a: &Value, b: &Value) -> Result<Value, RtError> {
    if let (Some(x), Some(y)) = (a.as_float(), b.as_float()) {
        return Ok(Value::Float(x + y));
    }
    if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
        if let Some(r) = x.checked_add(y) {
            return Ok(Value::Int(r));
        }
    }
    number::add(a, b)
}

#[inline(always)]
fn sub_value(a: &Value, b: &Value) -> Result<Value, RtError> {
    if let (Some(x), Some(y)) = (a.as_float(), b.as_float()) {
        return Ok(Value::Float(x - y));
    }
    if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
        if let Some(r) = x.checked_sub(y) {
            return Ok(Value::Int(r));
        }
    }
    number::sub(a, b)
}

#[inline(always)]
fn mul_value(a: &Value, b: &Value) -> Result<Value, RtError> {
    if let (Some(x), Some(y)) = (a.as_float(), b.as_float()) {
        return Ok(Value::Float(x * y));
    }
    if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
        if let Some(r) = x.checked_mul(y) {
            return Ok(Value::Int(r));
        }
    }
    number::mul(a, b)
}

#[inline(always)]
fn div_value(a: &Value, b: &Value) -> Result<Value, RtError> {
    // only the flonum case is safe to shortcut: integer `/` has
    // exact-or-inexact and divide-by-zero rules the tower owns
    if let (Some(x), Some(y)) = (a.as_float(), b.as_float()) {
        return Ok(Value::Float(x / y));
    }
    number::div(a, b)
}

/// Generic ordering: `None` when a NaN operand leaves it unordered.
#[inline(always)]
fn compare_value(
    name: &'static str,
    a: &Value,
    b: &Value,
) -> Result<Option<std::cmp::Ordering>, RtError> {
    if let (Some(x), Some(y)) = (a.as_float(), b.as_float()) {
        return Ok(x.partial_cmp(&y));
    }
    if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
        return Ok(Some(x.cmp(&y)));
    }
    number::compare(name, a, b)
}

fn lt(a: &Value, b: &Value) -> Result<bool, RtError> {
    Ok(compare_value("<", a, b)?.is_some_and(|o| o.is_lt()))
}

fn le(a: &Value, b: &Value) -> Result<bool, RtError> {
    Ok(compare_value("<=", a, b)?.is_some_and(|o| o.is_le()))
}

fn gt(a: &Value, b: &Value) -> Result<bool, RtError> {
    Ok(compare_value(">", a, b)?.is_some_and(|o| o.is_gt()))
}

fn ge(a: &Value, b: &Value) -> Result<bool, RtError> {
    Ok(compare_value(">=", a, b)?.is_some_and(|o| o.is_ge()))
}

#[inline(always)]
fn num_eq_value(a: &Value, b: &Value) -> Result<bool, RtError> {
    if let (Some(x), Some(y)) = (a.as_float(), b.as_float()) {
        return Ok(x == y);
    }
    if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
        return Ok(x == y);
    }
    number::num_eq(a, b)
}

/// What [`enter_call`] resolved the callee to.
enum Dispatch {
    /// A closure: the machine loop should activate this frame (pushing
    /// or replacing the current one depending on tailness).
    Frame(Frame),
    /// A native/contracted procedure that ran to completion; its result
    /// is on top of the stack.
    Done,
}

/// Performs the call whose callee and `n` arguments are on top of the
/// stack. For a tail call, `tail_base` is the current frame's base: the
/// callee and arguments are moved down over the frame being replaced.
/// `depth` is the number of frames that would sit *below* the callee's
/// frame, checked against `max_depth`.
fn enter_call(
    stack: &mut Vec<Value>,
    n: usize,
    tail_base: Option<usize>,
    depth: usize,
    max_depth: u64,
) -> Result<Dispatch, RtError> {
    let mut n = n;
    let mut argstart = stack.len() - n;

    if let Some(base) = tail_base {
        slide_down(stack, base, n);
        argstart = base;
    }

    loop {
        let f = &stack[argstart - 1];
        if let Some(nat) = f.as_native() {
            if let Some(intercept) = nat.intercept {
                // replace `apply f a … lst` with `f a … lst-elems`, or
                // `call-with-values producer consumer` with `consumer v…`
                // (the producer runs reentrantly); the new callee lands
                // back at `argstart - 1`
                let all: Vec<Value> = stack.drain(argstart - 1..).collect();
                let (nf, nargs) = splice_intercepted(&Vm, intercept, &all[1..])?;
                stack.push(nf);
                n = nargs.len();
                stack.extend(nargs);
                continue;
            }
            let result = call_native(nat, &stack[argstart..])?;
            stack.truncate(argstart - 1);
            stack.push(result);
            return Ok(Dispatch::Done);
        }
        if let Some(c) = f.as_contracted() {
            let args: Vec<Value> = stack[argstart..].to_vec();
            let result = apply_contracted(&Vm, c, &args)?;
            stack.truncate(argstart - 1);
            stack.push(result);
            return Ok(Dispatch::Done);
        }
        if let Some(c) = f.as_closure() {
            let (proto, env) = c.payload().ok_or_else(foreign_closure)?;
            let frame = make_frame(stack, proto, env, argstart, n, depth, max_depth)?;
            return Ok(Dispatch::Frame(frame));
        }
        return Err(not_a_procedure(f));
    }
}

/// The code and environment of `callee` when it is a VM closure that
/// takes exactly `n` arguments: the calls the dispatch loop enters
/// without [`enter_call`].
#[inline(always)]
fn exact_closure(callee: &Value, n: usize) -> Option<(Rc<Proto>, Rc<VmEnv>)> {
    let c = callee.as_closure()?;
    if c.arity != Arity::exactly(n) {
        return None;
    }
    c.payload()
}

/// `callee` when it is a native other than an intercept placeholder: the
/// natives the dispatch loop calls without [`enter_call`].
#[inline(always)]
fn plain_native(callee: &Value) -> Option<&Native> {
    callee.as_native().filter(|nat| nat.intercept.is_none())
}

/// Moves the callee and the `n` arguments on top of the stack down over
/// the frame at `base`, so the arguments start at `base` and the callee
/// sits in the frame's callee slot; what they replace is dropped.
#[inline(always)]
fn slide_down(stack: &mut Vec<Value>, base: usize, n: usize) {
    let dest = base - 1;
    let src = stack.len() - n - 1;
    if src != dest {
        // swap rather than clone: the slots being vacated die at the
        // truncate below, so this moves the callee + args without any
        // refcount traffic
        for i in 0..=n {
            stack.swap(dest + i, src + i);
        }
        stack.truncate(dest + n + 1);
    }
}

/// Sets up a frame for `proto` whose arguments occupy
/// `stack[base..base + n]`: checks the depth limit and the arity,
/// collapses rest arguments, pads locals. Every closure call enters its
/// frame here, the dispatch loop's own and [`enter_call`]'s. `depth` is
/// the number of frames already below this one, and `max_depth` the
/// configured limit on it.
#[inline(always)]
fn make_frame(
    stack: &mut Vec<Value>,
    proto: Rc<Proto>,
    env: Rc<VmEnv>,
    base: usize,
    n: usize,
    depth: usize,
    max_depth: u64,
) -> Result<Frame, RtError> {
    // frames live on the heap, so this is a policy limit rather than a
    // host-stack safety one: deep non-tail recursion gets a structured
    // stack-overflow diagnostic instead of unbounded memory growth
    if depth as u64 >= max_depth {
        return Err(stack_overflow());
    }
    if !proto.arity.accepts(n) {
        return Err(arity_error(proto.name, proto.arity, n));
    }
    if proto.arity.rest {
        collect_rest(stack, base + proto.arity.required);
    }
    while stack.len() < base + proto.nlocals as usize {
        stack.push(Value::Void);
    }
    Ok(Frame {
        proto,
        ip: 0,
        base,
        env,
    })
}

#[cold]
fn stack_overflow() -> RtError {
    RtError::from(lagoon_diag::limits::stack_overflow())
}

/// Replaces the arguments from `stack[from]` up with one list of them: a
/// rest parameter's value.
#[inline(never)]
fn collect_rest(stack: &mut Vec<Value>, from: usize) {
    let rest: Vec<Value> = stack.drain(from..).collect();
    stack.push(Value::list(rest));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::Compiler;
    use crate::ir::parse_form;
    use lagoon_runtime::prim::primitives;
    use lagoon_syntax::read_all;
    use std::collections::HashMap;

    fn run_src(src: &str) -> Result<Value, RtError> {
        let forms = read_all(src, "<t>")
            .unwrap()
            .iter()
            .map(parse_form)
            .collect::<Result<Vec<_>, _>>()?;
        let code = Compiler::compile_module(&forms)?;
        let prims: HashMap<_, _> = primitives()
            .into_iter()
            .chain([
                crate::engine::apply_placeholder(),
                crate::engine::cwv_placeholder(),
            ])
            .collect();
        let (v, _) = Vm.run_module(&code, |name| prims.get(&name).cloned())?;
        Ok(v)
    }

    #[test]
    fn constants_and_arith() {
        assert_eq!(run_src("42").unwrap().as_int(), Some(42));
        assert_eq!(run_src("(#%plain-app + 1 2)").unwrap().as_int(), Some(3));
        assert_eq!(run_src("(#%plain-app + 1 2 3)").unwrap().as_int(), Some(6));
        assert_eq!(
            run_src("(#%plain-app * 2.5 4.0)").unwrap().as_float(),
            Some(10.0)
        );
    }

    #[test]
    fn define_and_reference() {
        let v = run_src("(define-values (x) 10) (#%plain-app + x x)").unwrap();
        assert_eq!(v.as_int(), Some(20));
    }

    #[test]
    fn lambda_call_and_capture() {
        let v = run_src(
            "(define-values (make-adder) (#%plain-lambda (n) (#%plain-lambda (m) (#%plain-app + n m))))
             (#%plain-app (#%plain-app make-adder 3) 4)",
        )
        .unwrap();
        assert_eq!(v.as_int(), Some(7));
    }

    #[test]
    fn recursion_via_global() {
        let v = run_src(
            "(define-values (fact)
               (#%plain-lambda (n)
                 (if (#%plain-app = n 0) 1 (#%plain-app * n (#%plain-app fact (#%plain-app - n 1))))))
             (#%plain-app fact 10)",
        )
        .unwrap();
        assert_eq!(v.as_int(), Some(3628800));
    }

    #[test]
    fn deep_tail_recursion() {
        let v = run_src(
            "(define-values (loop)
               (#%plain-lambda (n acc)
                 (if (#%plain-app = n 0) acc (#%plain-app loop (#%plain-app - n 1) (#%plain-app + acc 1)))))
             (#%plain-app loop 2000000 0)",
        )
        .unwrap();
        assert_eq!(v.as_int(), Some(2_000_000));
    }

    #[test]
    fn letrec_mutual_recursion() {
        let v = run_src(
            "(letrec-values ([(ev?) (#%plain-lambda (n) (if (#%plain-app = n 0) #t (#%plain-app od? (#%plain-app - n 1))))]
                             [(od?) (#%plain-lambda (n) (if (#%plain-app = n 0) #f (#%plain-app ev? (#%plain-app - n 1))))])
               (#%plain-app ev? 101))",
        )
        .unwrap();
        assert!(!v.is_truthy());
    }

    #[test]
    fn set_on_captured_variable() {
        let v = run_src(
            "(define-values (counter)
               (let-values ([(n) 0])
                 (#%plain-lambda () (begin (set! n (#%plain-app + n 1)) n))))
             (#%plain-app counter)
             (#%plain-app counter)
             (#%plain-app counter)",
        )
        .unwrap();
        assert_eq!(v.as_int(), Some(3));
    }

    #[test]
    fn rest_args() {
        let v = run_src("(#%plain-app (#%plain-lambda (a . rest) rest) 1 2 3)").unwrap();
        assert_eq!(v.list_to_vec().unwrap().len(), 2);
        let v = run_src("(#%plain-app (#%plain-lambda args args))").unwrap();
        assert!(v.is_nil());
    }

    #[test]
    fn unsafe_instructions_execute() {
        let v = run_src("(#%plain-app unsafe-fl+ 1.5 2.5)").unwrap();
        assert_eq!(v.as_float(), Some(4.0));
        let v = run_src("(#%plain-app unsafe-fc* 2.0+2.0i 2.0+2.0i)").unwrap();
        assert_eq!(v.as_complex(), Some((0.0, 8.0)));
        let v = run_src("(#%plain-app unsafe-car (#%plain-app cons 1 2))").unwrap();
        assert_eq!(v.as_int(), Some(1));
    }

    #[test]
    fn apply_through_vm() {
        let v = run_src("(#%plain-app apply + 1 (quote (2 3)))").unwrap();
        assert_eq!(v.as_int(), Some(6));
    }

    #[test]
    fn higher_order_natives() {
        // pass a closure to a native-calling position via apply
        let v = run_src(
            "(define-values (twice) (#%plain-lambda (f x) (#%plain-app f (#%plain-app f x))))
             (#%plain-app twice (#%plain-lambda (n) (#%plain-app * n n)) 3)",
        )
        .unwrap();
        assert_eq!(v.as_int(), Some(81));
    }

    #[test]
    fn errors_have_context() {
        let e = run_src("(#%plain-app car 7)").unwrap_err();
        assert!(e.message.contains("car"));
        let e = run_src("missing").unwrap_err();
        assert_eq!(e.kind, Kind::Unbound);
        let e = run_src("(#%plain-app (#%plain-lambda (x) x))").unwrap_err();
        assert_eq!(e.kind, Kind::Arity);
    }

    #[test]
    fn vector_ops() {
        let v = run_src(
            "(define-values (v) (#%plain-app make-vector 3 0))
             (#%plain-app vector-set! v 1 42)
             (#%plain-app vector-ref v 1)",
        )
        .unwrap();
        assert_eq!(v.as_int(), Some(42));
        assert!(run_src("(#%plain-app vector-ref (#%plain-app vector 1) 5)").is_err());
    }
}
