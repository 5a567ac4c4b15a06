//! Bytecode definitions.
//!
//! The compiler ([`crate::compile`]) lowers core forms to this instruction
//! set; the machine ([`crate::machine`]) executes it.
//!
//! Two instruction families matter for the paper's story:
//!
//! * **Generic operations** (`Add2`, `Car`, …) perform full tag dispatch
//!   through the numeric tower, with overflow and type checks — the cost
//!   profile of untyped code.
//! * **Specialized operations** (`FlAdd`, `UnsafeCar`, …) assume the
//!   operand tags, skipping dispatch and checks. The compiler emits them
//!   only for calls to the `unsafe-*` primitives, which the type-driven
//!   optimizer inserts after typechecking — “these primitives … serve as
//!   signals to the Racket code generator” (paper §7.1).
//!
//! Both families share one instruction shape. Arithmetic, comparisons
//! and the pair and vector accessors name each operand with an [`Arg`]:
//! the stack top, a frame slot, or a constant. A comparison or predicate
//! that is an `if` test takes the branch form (`BrLt2`, `BrFlLt`, …),
//! which carries the jump target. So `(if (< i n) …)` over two locals is
//! one instruction whichever family it compiles to.

use lagoon_runtime::{Arity, Value};
use lagoon_syntax::Symbol;
use std::rc::Rc;

/// Where a closure capture comes from in the *enclosing* frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaptureSrc {
    /// A local slot of the enclosing frame.
    Local(u32),
    /// A capture of the enclosing closure.
    Capture(u32),
    /// The enclosing closure itself, from its frame's callee slot.
    Callee,
}

/// Where an instruction reads one operand: the stack top (popped), the
/// frame slot of an unmutated local, or a constant-pool entry.
///
/// Packed into one word, kind in the top two bits, so an instruction
/// with two operands and a branch target stays within 16 bytes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Arg(u32);

const KIND_SHIFT: u32 = 30;
const LOCAL: u32 = 1;
const CONST: u32 = 2;

impl Arg {
    /// The stack top.
    pub const STACK: Arg = Arg(0);
    /// The largest frame-slot or constant index an [`Arg`] can name.
    const MAX_INDEX: u32 = (1 << KIND_SHIFT) - 1;

    /// Frame slot `i`, if it fits.
    pub fn local(i: u32) -> Option<Arg> {
        (i <= Arg::MAX_INDEX).then_some(Arg((LOCAL << KIND_SHIFT) | i))
    }

    /// Constant `k`, if it fits.
    pub fn constant(k: u32) -> Option<Arg> {
        (k <= Arg::MAX_INDEX).then_some(Arg((CONST << KIND_SHIFT) | k))
    }

    /// Whether the operand is popped from the stack.
    #[inline(always)]
    pub fn is_stack(self) -> bool {
        self.0 == 0
    }

    /// Whether the operand is a constant-pool entry.
    #[inline(always)]
    pub fn is_const(self) -> bool {
        self.0 >> KIND_SHIFT == CONST
    }

    /// The slot or constant index (0 for the stack top).
    #[inline(always)]
    pub fn index(self) -> usize {
        (self.0 & Arg::MAX_INDEX) as usize
    }
}

impl std::fmt::Debug for Arg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 >> KIND_SHIFT {
            LOCAL => write!(f, "L{}", self.index()),
            CONST => write!(f, "K{}", self.index()),
            _ => f.write_str("S"),
        }
    }
}

/// The coarse cost class of an instruction, for diagnostics: the
/// generic-vs-specialized execution mix is exactly the paper's §7.3
/// story about where the optimizer's speedup comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Stack/frame plumbing: loads, stores, jumps, calls.
    Control,
    /// Tag-dispatching operations with full checks (`Add2`, `Car`, …).
    Generic,
    /// Specialized operations that assume operand tags (`FlAdd`,
    /// `UnsafeCar`, …).
    Specialized,
}

impl OpClass {
    /// The lower-case display name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Control => "control",
            OpClass::Generic => "generic",
            OpClass::Specialized => "specialized",
        }
    }
}

/// Declares [`Op`] by class, deriving `Op::kind` (the variant's position
/// in the declaration) and the `KINDS` table of mnemonics and classes
/// from the declaration.
macro_rules! ops {
    ($( $class:ident { $( $(#[$doc:meta])* $name:ident $(($($ty:ty),*))?, )* } )*) => {
        /// One bytecode instruction. A `Br*` instruction jumps to its
        /// target when its test is false, like the `JumpIfFalse` it
        /// stands for.
        #[derive(Clone, Copy, Debug, PartialEq)]
        pub enum Op {
            $($( $(#[$doc])* $name $(($($ty),*))?, )*)*
        }

        /// The variants of [`Op`] without their operands.
        #[derive(Clone, Copy)]
        enum Kind {
            $($( $name, )*)*
        }

        /// Each instruction kind's mnemonic and class, indexed by
        /// `Op::kind`.
        pub(crate) const KINDS: &[(&str, OpClass)] = &[$($( (stringify!($name), OpClass::$class), )*)*];

        impl Op {
            /// The variant's position in the declaration: its row in
            /// `KINDS`.
            #[inline(always)]
            pub(crate) fn kind(&self) -> usize {
                (match self {
                    $($( Op::$name { .. } => Kind::$name, )*)*
                }) as usize
            }
        }
    };
}

ops! {
    Control {
        /// Push constant `k`.
        Const(u32),
        /// Push the void value.
        Void,
        /// Push local slot `i`.
        LoadLocal(u32),
        /// Pop into local slot `i`.
        StoreLocal(u32),
        /// Push capture `i`.
        LoadCapture(u32),
        /// Push the running closure, from the frame's callee slot: how a
        /// `letrec`-bound lambda names itself.
        LoadCallee,
        /// Push global `i` (error if undefined).
        LoadGlobal(u32),
        /// Pop into global `i`.
        StoreGlobal(u32),
        /// Unconditional jump to absolute instruction index.
        Jump(u32),
        /// Pop; jump if false.
        JumpIfFalse(u32),
        /// Instantiate child proto `i` as a closure, capturing per its spec.
        MakeClosure(u32),
        /// Call with `n` arguments; stack: `f a1 … an`.
        Call(u16),
        /// Tail call with `n` arguments, replacing the current frame.
        TailCall(u16),
        /// A module-level function's tail call to itself with its `n`
        /// arguments on the stack: they become the parameters, the other
        /// locals are reset to void, and the frame restarts at its first
        /// instruction.
        Loop(u16),
        /// Return the top of stack from the current frame.
        Return,
        /// Discard the top of stack.
        Pop,
        /// Wrap the top of stack in a fresh box.
        BoxNew,
        /// Replace a box on the stack with its contents.
        BoxGet,
        /// Stack `box v` → store `v` in `box`, push void.
        BoxSet,
    }
    Generic {
        /// Generic `+`.
        Add2(Arg, Arg),
        /// Generic `-`.
        Sub2(Arg, Arg),
        /// Generic `*`.
        Mul2(Arg, Arg),
        /// Generic `/`.
        Div2(Arg, Arg),
        /// Generic `<`.
        Lt2(Arg, Arg),
        /// Generic `<=`.
        Le2(Arg, Arg),
        /// Generic `>`.
        Gt2(Arg, Arg),
        /// Generic `>=`.
        Ge2(Arg, Arg),
        /// Generic `=`.
        NumEq2(Arg, Arg),
        /// Generic `add1`.
        Add1,
        /// Generic `sub1`.
        Sub1,
        /// Generic `zero?`.
        ZeroP(Arg),
        /// Checked `car`.
        Car(Arg),
        /// Checked `cdr`.
        Cdr(Arg),
        /// `cons`.
        Cons,
        /// `null?`.
        NullP(Arg),
        /// `pair?`.
        PairP(Arg),
        /// `not`.
        Not,
        /// `eq?`.
        EqP,
        /// Checked `vector-ref`.
        VectorRef(Arg, Arg),
        /// Checked `vector-set!`.
        VectorSet,
        /// `vector-length`.
        VectorLength,
        /// `<` as an `if` test.
        BrLt2(Arg, Arg, u32),
        /// `<=` as an `if` test.
        BrLe2(Arg, Arg, u32),
        /// `>` as an `if` test.
        BrGt2(Arg, Arg, u32),
        /// `>=` as an `if` test.
        BrGe2(Arg, Arg, u32),
        /// `=` as an `if` test.
        BrNumEq2(Arg, Arg, u32),
        /// `zero?` as an `if` test.
        BrZeroP(Arg, u32),
        /// `null?` as an `if` test.
        BrNullP(Arg, u32),
        /// `pair?` as an `if` test.
        BrPairP(Arg, u32),
    }
    Specialized {
        /// `unsafe-fl+`.
        FlAdd(Arg, Arg),
        /// `unsafe-fl-`.
        FlSub(Arg, Arg),
        /// `unsafe-fl*`.
        FlMul(Arg, Arg),
        /// `unsafe-fl/`.
        FlDiv(Arg, Arg),
        /// `unsafe-fl<`.
        FlLt(Arg, Arg),
        /// `unsafe-fl<=`.
        FlLe(Arg, Arg),
        /// `unsafe-fl>`.
        FlGt(Arg, Arg),
        /// `unsafe-fl>=`.
        FlGe(Arg, Arg),
        /// `unsafe-fl=`.
        FlEq(Arg, Arg),
        /// `unsafe-flsqrt`.
        FlSqrt,
        /// `unsafe-flabs`.
        FlAbs,
        /// `unsafe-flmin`.
        FlMin(Arg, Arg),
        /// `unsafe-flmax`.
        FlMax(Arg, Arg),
        /// `unsafe-fx+` (wrapping).
        FxAdd(Arg, Arg),
        /// `unsafe-fx-` (wrapping).
        FxSub(Arg, Arg),
        /// `unsafe-fx*` (wrapping).
        FxMul(Arg, Arg),
        /// `unsafe-fx<`.
        FxLt(Arg, Arg),
        /// `unsafe-fx<=`.
        FxLe(Arg, Arg),
        /// `unsafe-fx>`.
        FxGt(Arg, Arg),
        /// `unsafe-fx>=`.
        FxGe(Arg, Arg),
        /// `unsafe-fx=`.
        FxEq(Arg, Arg),
        /// `unsafe-fc+`.
        FcAdd(Arg, Arg),
        /// `unsafe-fc-`.
        FcSub(Arg, Arg),
        /// `unsafe-fc*`.
        FcMul(Arg, Arg),
        /// `unsafe-fc/`.
        FcDiv(Arg, Arg),
        /// `unsafe-fcmagnitude`.
        FcMag,
        /// `unsafe-car`.
        UnsafeCar(Arg),
        /// `unsafe-cdr`.
        UnsafeCdr(Arg),
        /// `unsafe-vector-ref`.
        UnsafeVectorRef(Arg, Arg),
        /// `unsafe-vector-set!`.
        UnsafeVectorSet,
        /// `unsafe-vector-length`.
        UnsafeVectorLength,
        /// `unsafe-fx->fl`.
        FxToFl(Arg),
        /// `unsafe-fl<` as an `if` test.
        BrFlLt(Arg, Arg, u32),
        /// `unsafe-fl<=` as an `if` test.
        BrFlLe(Arg, Arg, u32),
        /// `unsafe-fl>` as an `if` test.
        BrFlGt(Arg, Arg, u32),
        /// `unsafe-fl>=` as an `if` test.
        BrFlGe(Arg, Arg, u32),
        /// `unsafe-fl=` as an `if` test.
        BrFlEq(Arg, Arg, u32),
        /// `unsafe-fx<` as an `if` test.
        BrFxLt(Arg, Arg, u32),
        /// `unsafe-fx<=` as an `if` test.
        BrFxLe(Arg, Arg, u32),
        /// `unsafe-fx>` as an `if` test.
        BrFxGt(Arg, Arg, u32),
        /// `unsafe-fx>=` as an `if` test.
        BrFxGe(Arg, Arg, u32),
        /// `unsafe-fx=` as an `if` test.
        BrFxEq(Arg, Arg, u32),
    }
}

// an instruction stays within two machine words
const _: () = assert!(std::mem::size_of::<Op>() <= 16);

impl Op {
    /// The instruction mnemonic, ignoring any operand payload.
    pub fn mnemonic(&self) -> &'static str {
        KINDS[self.kind()].0
    }

    /// Which [`OpClass`] this instruction belongs to.
    pub fn class(&self) -> OpClass {
        KINDS[self.kind()].1
    }

    /// The operand addresses this instruction reads through, with
    /// [`Arg::STACK`] for operands it has no address for.
    #[inline]
    pub fn args(&self) -> [Arg; 2] {
        match *self {
            Op::Add2(a, b)
            | Op::Sub2(a, b)
            | Op::Mul2(a, b)
            | Op::Div2(a, b)
            | Op::Lt2(a, b)
            | Op::Le2(a, b)
            | Op::Gt2(a, b)
            | Op::Ge2(a, b)
            | Op::NumEq2(a, b)
            | Op::VectorRef(a, b)
            | Op::FlAdd(a, b)
            | Op::FlSub(a, b)
            | Op::FlMul(a, b)
            | Op::FlDiv(a, b)
            | Op::FlLt(a, b)
            | Op::FlLe(a, b)
            | Op::FlGt(a, b)
            | Op::FlGe(a, b)
            | Op::FlEq(a, b)
            | Op::FlMin(a, b)
            | Op::FlMax(a, b)
            | Op::FxAdd(a, b)
            | Op::FxSub(a, b)
            | Op::FxMul(a, b)
            | Op::FxLt(a, b)
            | Op::FxLe(a, b)
            | Op::FxGt(a, b)
            | Op::FxGe(a, b)
            | Op::FxEq(a, b)
            | Op::FcAdd(a, b)
            | Op::FcSub(a, b)
            | Op::FcMul(a, b)
            | Op::FcDiv(a, b)
            | Op::UnsafeVectorRef(a, b)
            | Op::BrLt2(a, b, _)
            | Op::BrLe2(a, b, _)
            | Op::BrGt2(a, b, _)
            | Op::BrGe2(a, b, _)
            | Op::BrNumEq2(a, b, _)
            | Op::BrFlLt(a, b, _)
            | Op::BrFlLe(a, b, _)
            | Op::BrFlGt(a, b, _)
            | Op::BrFlGe(a, b, _)
            | Op::BrFlEq(a, b, _)
            | Op::BrFxLt(a, b, _)
            | Op::BrFxLe(a, b, _)
            | Op::BrFxGt(a, b, _)
            | Op::BrFxGe(a, b, _)
            | Op::BrFxEq(a, b, _) => [a, b],
            Op::ZeroP(a)
            | Op::Car(a)
            | Op::Cdr(a)
            | Op::NullP(a)
            | Op::PairP(a)
            | Op::UnsafeCar(a)
            | Op::UnsafeCdr(a)
            | Op::FxToFl(a)
            | Op::BrZeroP(a, _)
            | Op::BrNullP(a, _)
            | Op::BrPairP(a, _) => [a, Arg::STACK],
            _ => [Arg::STACK; 2],
        }
    }

    /// The jump target this instruction carries, if any.
    #[inline]
    pub fn target(&self) -> Option<u32> {
        let mut op = *self;
        op.target_mut().copied()
    }

    /// The jump target this instruction carries, for patching.
    #[inline]
    pub fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Op::Jump(t)
            | Op::JumpIfFalse(t)
            | Op::BrLt2(_, _, t)
            | Op::BrLe2(_, _, t)
            | Op::BrGt2(_, _, t)
            | Op::BrGe2(_, _, t)
            | Op::BrNumEq2(_, _, t)
            | Op::BrZeroP(_, t)
            | Op::BrNullP(_, t)
            | Op::BrPairP(_, t)
            | Op::BrFlLt(_, _, t)
            | Op::BrFlLe(_, _, t)
            | Op::BrFlGt(_, _, t)
            | Op::BrFlGe(_, _, t)
            | Op::BrFlEq(_, _, t)
            | Op::BrFxLt(_, _, t)
            | Op::BrFxLe(_, _, t)
            | Op::BrFxGt(_, _, t)
            | Op::BrFxGe(_, _, t)
            | Op::BrFxEq(_, _, t) => Some(t),
            _ => None,
        }
    }

    /// The branch form of a comparison or predicate: the instruction
    /// that tests the same operands and jumps to `t` when the test is
    /// false. `None` for instructions without one.
    pub fn branch_form(self, t: u32) -> Option<Op> {
        Some(match self {
            Op::Lt2(a, b) => Op::BrLt2(a, b, t),
            Op::Le2(a, b) => Op::BrLe2(a, b, t),
            Op::Gt2(a, b) => Op::BrGt2(a, b, t),
            Op::Ge2(a, b) => Op::BrGe2(a, b, t),
            Op::NumEq2(a, b) => Op::BrNumEq2(a, b, t),
            Op::ZeroP(a) => Op::BrZeroP(a, t),
            Op::NullP(a) => Op::BrNullP(a, t),
            Op::PairP(a) => Op::BrPairP(a, t),
            Op::FlLt(a, b) => Op::BrFlLt(a, b, t),
            Op::FlLe(a, b) => Op::BrFlLe(a, b, t),
            Op::FlGt(a, b) => Op::BrFlGt(a, b, t),
            Op::FlGe(a, b) => Op::BrFlGe(a, b, t),
            Op::FlEq(a, b) => Op::BrFlEq(a, b, t),
            Op::FxLt(a, b) => Op::BrFxLt(a, b, t),
            Op::FxLe(a, b) => Op::BrFxLe(a, b, t),
            Op::FxGt(a, b) => Op::BrFxGt(a, b, t),
            Op::FxGe(a, b) => Op::BrFxGe(a, b, t),
            Op::FxEq(a, b) => Op::BrFxEq(a, b, t),
            _ => return None,
        })
    }

    /// True for instructions that do the work of more than one stack
    /// instruction: those with a folded operand address, and the branch
    /// forms. The counters report a fusion rate (fused executions over
    /// total executions) from this flag.
    #[inline]
    pub fn is_fused(&self) -> bool {
        let branch = self.target().is_some() && !matches!(self, Op::Jump(_) | Op::JumpIfFalse(_));
        branch || self.args().iter().any(|a| !a.is_stack())
    }
}

/// A compiled procedure prototype.
#[derive(Debug)]
pub struct Proto {
    /// Name for diagnostics.
    pub name: Option<Symbol>,
    /// Accepted argument counts.
    pub arity: Arity,
    /// Total local slots (params first).
    pub nlocals: u32,
    /// How to build this closure's captures from the enclosing frame.
    pub captures: Vec<CaptureSrc>,
    /// The code.
    pub code: Vec<Op>,
    /// Constant pool.
    pub consts: Vec<Value>,
    /// Child prototypes (for `MakeClosure`).
    pub protos: Vec<Rc<Proto>>,
}

/// A compiled module: a top-level prototype plus the global-slot layout.
#[derive(Debug)]
pub struct ModuleCode {
    /// Code for the module body (zero-argument).
    pub top: Rc<Proto>,
    /// Global slot `i` holds the variable named `global_names[i]`.
    pub global_names: Vec<Symbol>,
    /// Indices of globals defined (not imported) by this module.
    pub defined: Vec<u32>,
}

impl Proto {
    /// A human-readable disassembly, for debugging and tests.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        self.disassemble_into(&mut out, 0);
        out
    }

    fn disassemble_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        let _ = writeln!(
            out,
            "{pad}proto {} (arity {}, locals {}, captures {:?})",
            self.name
                .map(|n| n.as_str())
                .unwrap_or_else(|| "<top>".into()),
            self.arity,
            self.nlocals,
            self.captures
        );
        for (i, op) in self.code.iter().enumerate() {
            let _ = writeln!(out, "{pad}  {i:4}: {op:?}");
        }
        for p in &self.protos {
            p.disassemble_into(out, depth + 1);
        }
    }
}

/// How a call to a known primitive compiles.
#[derive(Clone, Copy)]
pub enum PrimOp {
    /// An instruction whose operands are all on the stack.
    Stack(Op),
    /// An instruction with one operand address.
    Unary(fn(Arg) -> Op),
    /// An instruction with two operand addresses.
    Binary(fn(Arg, Arg) -> Op),
}

/// Maps an `unsafe-*`/known-primitive name and argument count to a
/// dedicated instruction, if one exists. This is the "signal channel"
/// between the source-level optimizer and the backend.
pub fn specialized_op(name: &str, argc: usize) -> Option<PrimOp> {
    use PrimOp::{Binary, Stack, Unary};
    let op = match (name, argc) {
        ("+", 2) => Binary(Op::Add2),
        ("-", 2) => Binary(Op::Sub2),
        ("*", 2) => Binary(Op::Mul2),
        ("/", 2) => Binary(Op::Div2),
        ("<", 2) => Binary(Op::Lt2),
        ("<=", 2) => Binary(Op::Le2),
        (">", 2) => Binary(Op::Gt2),
        (">=", 2) => Binary(Op::Ge2),
        ("=", 2) => Binary(Op::NumEq2),
        ("add1", 1) => Stack(Op::Add1),
        ("sub1", 1) => Stack(Op::Sub1),
        ("zero?", 1) => Unary(Op::ZeroP),
        ("car", 1) => Unary(Op::Car),
        ("cdr", 1) => Unary(Op::Cdr),
        ("cons", 2) => Stack(Op::Cons),
        ("null?", 1) => Unary(Op::NullP),
        ("pair?", 1) => Unary(Op::PairP),
        ("not", 1) => Stack(Op::Not),
        ("eq?", 2) => Stack(Op::EqP),
        ("vector-ref", 2) => Binary(Op::VectorRef),
        ("vector-set!", 3) => Stack(Op::VectorSet),
        ("vector-length", 1) => Stack(Op::VectorLength),
        ("unsafe-fl+", 2) => Binary(Op::FlAdd),
        ("unsafe-fl-", 2) => Binary(Op::FlSub),
        ("unsafe-fl*", 2) => Binary(Op::FlMul),
        ("unsafe-fl/", 2) => Binary(Op::FlDiv),
        ("unsafe-fl<", 2) => Binary(Op::FlLt),
        ("unsafe-fl<=", 2) => Binary(Op::FlLe),
        ("unsafe-fl>", 2) => Binary(Op::FlGt),
        ("unsafe-fl>=", 2) => Binary(Op::FlGe),
        ("unsafe-fl=", 2) => Binary(Op::FlEq),
        ("unsafe-flsqrt", 1) => Stack(Op::FlSqrt),
        ("unsafe-flabs", 1) => Stack(Op::FlAbs),
        ("unsafe-flmin", 2) => Binary(Op::FlMin),
        ("unsafe-flmax", 2) => Binary(Op::FlMax),
        ("unsafe-fx+", 2) => Binary(Op::FxAdd),
        ("unsafe-fx-", 2) => Binary(Op::FxSub),
        ("unsafe-fx*", 2) => Binary(Op::FxMul),
        ("unsafe-fx<", 2) => Binary(Op::FxLt),
        ("unsafe-fx<=", 2) => Binary(Op::FxLe),
        ("unsafe-fx>", 2) => Binary(Op::FxGt),
        ("unsafe-fx>=", 2) => Binary(Op::FxGe),
        ("unsafe-fx=", 2) => Binary(Op::FxEq),
        ("unsafe-fc+", 2) => Binary(Op::FcAdd),
        ("unsafe-fc-", 2) => Binary(Op::FcSub),
        ("unsafe-fc*", 2) => Binary(Op::FcMul),
        ("unsafe-fc/", 2) => Binary(Op::FcDiv),
        ("unsafe-fcmagnitude", 1) => Stack(Op::FcMag),
        ("unsafe-car", 1) => Unary(Op::UnsafeCar),
        ("unsafe-cdr", 1) => Unary(Op::UnsafeCdr),
        ("unsafe-vector-ref", 2) => Binary(Op::UnsafeVectorRef),
        ("unsafe-vector-set!", 3) => Stack(Op::UnsafeVectorSet),
        ("unsafe-vector-length", 1) => Stack(Op::UnsafeVectorLength),
        ("unsafe-fx->fl", 1) => Unary(Op::FxToFl),
        _ => return None,
    };
    Some(op)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack_form(name: &str, argc: usize) -> Option<Op> {
        specialized_op(name, argc).map(|p| match p {
            PrimOp::Stack(op) => op,
            PrimOp::Unary(f) => f(Arg::STACK),
            PrimOp::Binary(f) => f(Arg::STACK, Arg::STACK),
        })
    }

    #[test]
    fn specialization_table() {
        let s = Arg::STACK;
        assert_eq!(stack_form("+", 2), Some(Op::Add2(s, s)));
        assert_eq!(
            stack_form("+", 3),
            None,
            "variadic + goes through the native"
        );
        assert_eq!(stack_form("unsafe-fl+", 2), Some(Op::FlAdd(s, s)));
        assert_eq!(stack_form("no-such-prim", 1), None);
        assert_eq!(stack_form("car", 1), Some(Op::Car(s)));
        assert_eq!(stack_form("car", 2), None);
        assert_eq!(stack_form("cons", 2), Some(Op::Cons));
    }

    #[test]
    fn op_classification() {
        let s = Arg::STACK;
        assert_eq!(Op::Add2(s, s).class(), OpClass::Generic);
        assert_eq!(Op::Car(s).class(), OpClass::Generic);
        assert_eq!(Op::BrLt2(s, s, 0).class(), OpClass::Generic);
        assert_eq!(Op::FlAdd(s, s).class(), OpClass::Specialized);
        assert_eq!(Op::UnsafeCar(s).class(), OpClass::Specialized);
        assert_eq!(Op::BrFlLt(s, s, 0).class(), OpClass::Specialized);
        assert_eq!(Op::Call(2).class(), OpClass::Control);
        assert_eq!(Op::Return.class(), OpClass::Control);
        assert_eq!(Op::Const(7).mnemonic(), "Const");
        assert_eq!(Op::FlAdd(s, s).mnemonic(), "FlAdd");
        assert_eq!(Op::BrFxEq(s, s, 3).mnemonic(), "BrFxEq");
    }

    #[test]
    fn operand_addresses_pack_and_unpack() {
        let l = Arg::local(5).unwrap();
        let k = Arg::constant(Arg::MAX_INDEX).unwrap();
        assert!(Arg::STACK.is_stack() && !l.is_stack() && !k.is_stack());
        assert!(k.is_const() && !l.is_const() && !Arg::STACK.is_const());
        assert_eq!((l.index(), k.index()), (5, Arg::MAX_INDEX as usize));
        assert_eq!(Arg::local(Arg::MAX_INDEX + 1), None);
        assert_eq!(format!("{:?}", Op::Sub2(l, k)), "Sub2(L5, K1073741823)");
    }

    #[test]
    fn fused_marks_folded_operands_and_branch_forms() {
        let s = Arg::STACK;
        let l = Arg::local(0).unwrap();
        assert!(!Op::Add2(s, s).is_fused());
        assert!(Op::Add2(s, l).is_fused());
        assert!(Op::Car(l).is_fused());
        assert!(Op::BrNullP(s, 4).is_fused());
        assert!(!Op::JumpIfFalse(4).is_fused());
        assert_eq!(Op::Lt2(l, s).branch_form(9), Some(Op::BrLt2(l, s, 9)));
        assert_eq!(Op::Add2(l, s).branch_form(9), None);
        let mut br = Op::BrFlEq(l, s, 0);
        *br.target_mut().unwrap() = 12;
        assert_eq!(br, Op::BrFlEq(l, s, 12));
    }

    #[test]
    fn disassembly_is_nonempty() {
        let p = Proto {
            name: None,
            arity: Arity::exactly(0),
            nlocals: 0,
            captures: vec![],
            code: vec![Op::Void, Op::Return],
            consts: vec![],
            protos: vec![],
        };
        let d = p.disassemble();
        assert!(d.contains("Void"));
        assert!(d.contains("Return"));
    }
}
