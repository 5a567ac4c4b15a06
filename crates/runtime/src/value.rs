//! Runtime values.
//!
//! [`Value`] is the uniform representation of every Lagoon runtime value,
//! packed into a single **NaN-boxed 64-bit word** (see DESIGN.md, "Value
//! words"). Immediates — void, booleans, fixnum-range integers, flonums,
//! characters, symbols, keywords and the empty list — live unboxed in the
//! word itself; everything else is an `Rc` pointer carried in the low 48
//! bits with a heap-kind tag in the pointer's (always-zero) low 3 bits.
//!
//! The encoding, from the top 16 bits (`bits >> 48`):
//!
//! | tag      | payload (low 48 bits)                                |
//! |----------|------------------------------------------------------|
//! | < 0xFFF9 | the word **is** an `f64` (NaN canonicalized)         |
//! | 0xFFF9   | small constants: 0 void, 1 nil, 2 `#f`, 3 `#t`       |
//! | 0xFFFA   | integer, 48-bit sign-extended (else heap "bigint")   |
//! | 0xFFFB   | character (Unicode scalar value)                     |
//! | 0xFFFC   | symbol id (bit 32 set ⇒ keyword)                     |
//! | 0xFFFD   | heap pointer, kind 0–7 in the low 3 bits             |
//! | 0xFFFE   | heap pointer, kinds 8–10 in the low 3 bits           |
//!
//! Every float constructed through [`Value::Float`] canonicalizes NaN to
//! one bit pattern, which is (a) what keeps real NaNs out of the tag
//! space and (b) what makes `eqv?`'s bitwise float semantics (NaN ≡ NaN,
//! `0.0` ≢ `-0.0`) fall out of plain word comparison.
//!
//! Generic primitives dispatch on the tag (and that dispatch is precisely
//! the cost the paper's type-driven optimizer removes by rewriting to
//! `unsafe-*` operations).
//!
//! Pattern-matching call sites go through [`Value::unpacked`], which
//! returns a borrowed [`Unpacked`] view with one variant per runtime
//! kind. Construction sites use the variant-named associated functions
//! (`Value::Int`, `Value::Pair`, …), so they read exactly like the old
//! enum. All `unsafe` pointer packing lives in this file; the rest of the
//! workspace sees a safe API.
//!
//! Procedures come in three flavours:
//!
//! * [`Closure`] — compiled Lagoon code (the code/env payloads are owned by
//!   the engine that made it, which names their types to read them back),
//! * [`Native`] — a Rust function exposed as a primitive,
//! * [`Contracted`] — a procedure wrapped in a higher-order contract at a
//!   typed/untyped module boundary (paper §6).
//!
//! Syntax objects are themselves values because macro transformers —
//! phase-1 Lagoon procedures — consume and produce them.

use crate::error::RtError;
use lagoon_syntax::{Datum, Symbol, Syntax};
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::rc::Rc;

/// How many arguments a procedure accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arity {
    /// Number of required positional arguments.
    pub required: usize,
    /// Whether extra arguments are collected into a rest list.
    pub rest: bool,
}

impl Arity {
    /// Exactly `n` arguments.
    pub fn exactly(n: usize) -> Arity {
        Arity {
            required: n,
            rest: false,
        }
    }

    /// `n` or more arguments.
    pub fn at_least(n: usize) -> Arity {
        Arity {
            required: n,
            rest: true,
        }
    }

    /// Whether a call with `n` arguments is acceptable.
    pub fn accepts(&self, n: usize) -> bool {
        if self.rest {
            n >= self.required
        } else {
            n == self.required
        }
    }
}

impl fmt::Display for Arity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rest {
            write!(f, "at least {}", self.required)
        } else {
            write!(f, "exactly {}", self.required)
        }
    }
}

/// A compiled Lagoon procedure. The engine that makes it picks the types
/// of its code and environment payloads, and the closure records them,
/// so [`Closure::payload`] hands the payloads back with one compare.
pub struct Closure {
    /// Name for error messages, when known.
    pub name: Option<Symbol>,
    /// Accepted argument counts.
    pub arity: Arity,
    /// The `TypeId` of `(C, E)` for the `Closure::new::<C, E>` that made
    /// this closure.
    payload: TypeId,
    /// Engine-owned code payload, a `C`.
    code: Rc<dyn Any>,
    /// Engine-owned captured environment payload, an `E`.
    env: Rc<dyn Any>,
}

impl Closure {
    /// A closure whose payloads are `code` and `env`.
    pub fn new<C: Any, E: Any>(
        name: Option<Symbol>,
        arity: Arity,
        code: Rc<C>,
        env: Rc<E>,
    ) -> Closure {
        Closure {
            name,
            arity,
            payload: TypeId::of::<(C, E)>(),
            code,
            env,
        }
    }

    /// The code and environment payloads, when `C` and `E` are the types
    /// the closure was made with; `None` for another engine's closure.
    #[inline(always)]
    pub fn payload<C: Any, E: Any>(&self) -> Option<(Rc<C>, Rc<E>)> {
        if self.payload != TypeId::of::<(C, E)>() {
            return None;
        }
        // SAFETY: the fields are private and only `Closure::new::<C, E>`
        // sets them, so a recorded `(C, E)` means `code` was made from an
        // `Rc<C>` and `env` from an `Rc<E>`. Each pointer passed to
        // `Rc::from_raw` therefore comes from `Rc::into_raw` on an `Rc`
        // whose value is a `C` (an `E`), and each new `Rc` owns the count
        // its `Rc::clone` took.
        unsafe {
            Some((
                Rc::from_raw(Rc::into_raw(Rc::clone(&self.code)).cast::<C>()),
                Rc::from_raw(Rc::into_raw(Rc::clone(&self.env)).cast::<E>()),
            ))
        }
    }
}

impl fmt::Debug for Closure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#<procedure{}>",
            self.name.map(|n| format!(":{n}")).unwrap_or_default()
        )
    }
}

/// The Rust signature of a native primitive.
pub type NativeFn = dyn Fn(&[Value]) -> Result<Value, RtError>;

/// A primitive implemented in Rust.
pub struct Native {
    /// The primitive's name.
    pub name: Symbol,
    /// Accepted argument counts.
    pub arity: Arity,
    /// Set only on the engines' `apply` and `call-with-values`
    /// placeholders, which an engine must intercept before `f` runs.
    pub intercept: Option<Intercept>,
    /// The implementation.
    pub f: Box<NativeFn>,
}

/// The primitives whose behaviour needs the executing engine itself.
/// Engines recognise them by this marker, one compare per native call,
/// never by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Intercept {
    /// `apply`: spread the final list argument.
    Apply,
    /// `call-with-values`: run the producer, pass its values on.
    CallWithValues,
}

impl Native {
    /// Wraps a Rust function as a primitive value.
    pub fn value(
        name: &str,
        arity: Arity,
        f: impl Fn(&[Value]) -> Result<Value, RtError> + 'static,
    ) -> Value {
        Value::Native(Rc::new(Native {
            name: Symbol::intern(name),
            arity,
            intercept: None,
            f: Box::new(f),
        }))
    }
}

impl fmt::Debug for Native {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#<procedure:{}>", self.name)
    }
}

/// A procedure wrapped in a function contract at a module boundary.
///
/// Applying a `Contracted` value checks the arguments against the domain
/// contracts (blaming `negative`, the client) and the result against the
/// range contract (blaming `positive`, the server) — paper §6.1.
#[derive(Debug)]
pub struct Contracted {
    /// The procedure being protected.
    pub inner: Value,
    /// The function contract (see [`crate::contract::Contract`]).
    pub contract: crate::contract::Contract,
    /// Party blamed for bad results (the implementation side).
    pub positive: Symbol,
    /// Party blamed for bad arguments (the client side).
    pub negative: Symbol,
}

/// A cons cell: `.0` is the car, `.1` the cdr.
#[derive(Debug)]
pub struct Pair(pub Value, pub Value);

impl Drop for Pair {
    // walk the cdr spine iteratively: the derived drop would recurse
    // once per cell, and releasing a long list (easily millions of
    // cells under a hostile macro) must not overflow the host stack
    fn drop(&mut self) {
        let mut tail = std::mem::replace(&mut self.1, Value::Nil);
        while let Ok(rc) = tail.try_into_pair_rc() {
            match Rc::try_unwrap(rc) {
                // sole owner: detach the cell's cdr and keep walking
                Ok(mut cell) => tail = std::mem::replace(&mut cell.1, Value::Nil),
                // shared: the rest of the spine stays alive elsewhere
                Err(_) => break,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Word layout
// ---------------------------------------------------------------------------

const TAG_SHIFT: u32 = 48;
const PAYLOAD_MASK: u64 = 0x0000_FFFF_FFFF_FFFF;

const TAG_CONST: u64 = 0xFFF9;
const TAG_INT: u64 = 0xFFFA;
const TAG_CHAR: u64 = 0xFFFB;
const TAG_SYM: u64 = 0xFFFC;
const TAG_HEAP_A: u64 = 0xFFFD;
const TAG_HEAP_B: u64 = 0xFFFE;

/// Anything below this is a plain `f64`'s bit pattern: the largest
/// non-NaN float is `-inf` (`0xFFF0…`), and every NaN is canonicalized
/// to `CANON_NAN` on construction, so no float reaches the tag space.
const FLOAT_LIMIT: u64 = TAG_CONST << TAG_SHIFT;
const CANON_NAN: u64 = 0x7FF8_0000_0000_0000;

const VOID_BITS: u64 = TAG_CONST << TAG_SHIFT;
const NIL_BITS: u64 = (TAG_CONST << TAG_SHIFT) | 1;
const FALSE_BITS: u64 = (TAG_CONST << TAG_SHIFT) | 2;
const TRUE_BITS: u64 = (TAG_CONST << TAG_SHIFT) | 3;

/// Set on a `TAG_SYM` word whose symbol is a keyword.
const KEYWORD_BIT: u64 = 1 << 32;

/// Heap payload pointers are `Rc` allocations of 8-aligned types, so the
/// low 3 bits are free for the heap kind.
const PTR_MASK: u64 = 0x0000_FFFF_FFFF_FFF8;
const KIND_MASK: u64 = 0x7;

// heap kinds (tag 0xFFFD carries 0–7, tag 0xFFFE carries 8–10)
const HK_PAIR: u64 = 0;
const HK_STR: u64 = 1;
const HK_VECTOR: u64 = 2;
const HK_BOX: u64 = 3;
const HK_CLOSURE: u64 = 4;
const HK_NATIVE: u64 = 5;
const HK_CONTRACTED: u64 = 6;
const HK_VALUES: u64 = 7;
const HK_SYNTAX: u64 = 8;
const HK_COMPLEX: u64 = 9;
const HK_BIGINT: u64 = 10;

/// A Lagoon runtime value: one NaN-boxed 64-bit word (see module docs).
///
/// `Clone` bumps the refcount for heap kinds and is a plain register copy
/// for immediates; `Drop` releases the `Rc` for heap kinds. The
/// `PhantomData<Rc<()>>` keeps the type `!Send`/`!Sync`, exactly like the
/// `Rc` payloads it may carry.
#[repr(transparent)]
pub struct Value(u64, PhantomData<Rc<()>>);

// a Value must stay exactly one machine word
const _: () = assert!(std::mem::size_of::<Value>() == 8);
const _: () = assert!(std::mem::size_of::<Option<Value>>() == 16);

/// A borrowed one-level view of a [`Value`], for pattern matching.
///
/// Obtained via [`Value::unpacked`]; heap variants borrow the payload
/// (the refcount is not touched). Out-of-range "bigint" integers unpack
/// as plain [`Unpacked::Int`] — the boxing is invisible.
#[derive(Clone, Copy, Debug)]
pub enum Unpacked<'a> {
    /// The unit value `#<void>`.
    Void,
    /// A boolean.
    Bool(bool),
    /// An exact integer (checked `i64`; see DESIGN.md).
    Int(i64),
    /// An inexact real.
    Float(f64),
    /// An inexact complex number (the typed language's `Float-Complex`).
    Complex(f64, f64),
    /// A character.
    Char(char),
    /// A symbol.
    Symbol(Symbol),
    /// A keyword.
    Keyword(Symbol),
    /// An immutable string.
    Str(&'a str),
    /// The empty list.
    Nil,
    /// An immutable cons cell.
    Pair(&'a Pair),
    /// A mutable vector.
    Vector(&'a RefCell<Vec<Value>>),
    /// A mutable box.
    Box(&'a RefCell<Value>),
    /// A compiled procedure.
    Closure(&'a Closure),
    /// A native primitive.
    Native(&'a Native),
    /// A contract-wrapped procedure.
    Contracted(&'a Contracted),
    /// A syntax object (phase-1 data).
    Syntax(&'a Syntax),
    /// A package of zero or more values produced by `values` and
    /// consumed by `call-with-values` / the `let-values` desugaring.
    /// A single value is never packaged — `(values x)` is just `x`.
    Values(&'a [Value]),
}

impl Value {
    #[inline]
    const fn from_bits(bits: u64) -> Value {
        Value(bits, PhantomData)
    }

    /// The raw word. For diagnostics and the VM's word-level fast paths.
    #[inline]
    pub fn bits(&self) -> u64 {
        self.0
    }

    #[inline]
    fn tag(&self) -> u64 {
        self.0 >> TAG_SHIFT
    }

    #[inline]
    fn is_heap(&self) -> bool {
        self.0 >= (TAG_HEAP_A << TAG_SHIFT)
    }

    #[inline]
    fn heap_kind(&self) -> u64 {
        debug_assert!(self.is_heap());
        (self.0 & KIND_MASK) + if self.tag() == TAG_HEAP_B { 8 } else { 0 }
    }

    #[inline]
    fn ptr<T>(&self) -> *const T {
        (self.0 & PTR_MASK) as usize as *const T
    }

    /// # Safety
    /// The word must be a heap value whose kind's payload type is `T`.
    #[inline]
    unsafe fn payload<T>(&self) -> &T {
        &*self.ptr::<T>()
    }

    fn pack_ptr<T>(tag: u64, kind: u64, rc: Rc<T>) -> Value {
        let p = Rc::into_raw(rc) as usize as u64;
        // Rc payloads of 8-aligned types sit at 8-aligned addresses, and
        // user-space pointers fit in 48 bits on every supported target
        debug_assert!(p & !PTR_MASK == 0, "pointer {p:#x} does not fit the word");
        Value::from_bits((tag << TAG_SHIFT) | p | kind)
    }

    /// Clones the `Rc` back out of the word.
    ///
    /// # Safety
    /// The word must be a heap value whose kind's payload type is `T`.
    unsafe fn clone_rc<T>(&self) -> Rc<T> {
        let ptr = self.ptr::<T>();
        Rc::increment_strong_count(ptr);
        Rc::from_raw(ptr)
    }

    /// Consumes a pair word into its `Rc` without touching the refcount;
    /// returns the value unchanged if it is not a pair.
    fn try_into_pair_rc(self) -> Result<Rc<Pair>, Value> {
        if self.is_heap() && self.heap_kind() == HK_PAIR {
            let ptr = self.ptr::<Pair>();
            std::mem::forget(self);
            Ok(unsafe { Rc::from_raw(ptr) })
        } else {
            Err(self)
        }
    }
}

impl Clone for Value {
    #[inline]
    fn clone(&self) -> Value {
        if self.is_heap() {
            // bump the refcount of the packed Rc; the kind match picks the
            // payload type so the count sits at the right offset
            unsafe {
                match self.heap_kind() {
                    HK_PAIR => Rc::increment_strong_count(self.ptr::<Pair>()),
                    HK_STR => Rc::increment_strong_count(self.ptr::<String>()),
                    HK_VECTOR => Rc::increment_strong_count(self.ptr::<RefCell<Vec<Value>>>()),
                    HK_BOX => Rc::increment_strong_count(self.ptr::<RefCell<Value>>()),
                    HK_CLOSURE => Rc::increment_strong_count(self.ptr::<Closure>()),
                    HK_NATIVE => Rc::increment_strong_count(self.ptr::<Native>()),
                    HK_CONTRACTED => Rc::increment_strong_count(self.ptr::<Contracted>()),
                    HK_VALUES => Rc::increment_strong_count(self.ptr::<Vec<Value>>()),
                    HK_SYNTAX => Rc::increment_strong_count(self.ptr::<Syntax>()),
                    HK_COMPLEX => Rc::increment_strong_count(self.ptr::<(f64, f64)>()),
                    _ => Rc::increment_strong_count(self.ptr::<i64>()),
                }
            }
        }
        Value::from_bits(self.0)
    }
}

impl Drop for Value {
    // every drop site inlines only this compare: an immediate owns
    // nothing, and a heap word calls the one out-of-line kind match
    #[inline(always)]
    fn drop(&mut self) {
        if self.is_heap() {
            // SAFETY: a heap word owns one strong count of the `Rc` its
            // kind names, and this drop gives it up, once
            unsafe { release_heap(self.0) }
        }
    }
}

/// Releases the `Rc` packed in a heap word: the heap half of
/// `Value::drop`, kept out of line so that the immediate test stays small
/// enough to inline everywhere. It takes the bare word, not `&mut Value`,
/// so a caller's value need not live in memory.
///
/// # Safety
/// `bits` must be a heap word whose reference the caller gives up.
#[inline(never)]
unsafe fn release_heap(bits: u64) {
    let word = std::mem::ManuallyDrop::new(Value::from_bits(bits));
    // SAFETY: the caller gives up the word's count, and its kind names
    // the payload type its `Rc` was made from (see `pack_ptr`)
    match word.heap_kind() {
        HK_PAIR => drop(Rc::from_raw(word.ptr::<Pair>())),
        HK_STR => drop(Rc::from_raw(word.ptr::<String>())),
        HK_VECTOR => drop(Rc::from_raw(word.ptr::<RefCell<Vec<Value>>>())),
        HK_BOX => drop(Rc::from_raw(word.ptr::<RefCell<Value>>())),
        HK_CLOSURE => drop(Rc::from_raw(word.ptr::<Closure>())),
        HK_NATIVE => drop(Rc::from_raw(word.ptr::<Native>())),
        HK_CONTRACTED => drop(Rc::from_raw(word.ptr::<Contracted>())),
        HK_VALUES => drop(Rc::from_raw(word.ptr::<Vec<Value>>())),
        HK_SYNTAX => drop(Rc::from_raw(word.ptr::<Syntax>())),
        HK_COMPLEX => drop(Rc::from_raw(word.ptr::<(f64, f64)>())),
        _ => drop(Rc::from_raw(word.ptr::<i64>())),
    }
}

// ---------------------------------------------------------------------------
// Constructors — named like the old enum variants so construction sites
// read unchanged
// ---------------------------------------------------------------------------

#[allow(non_upper_case_globals, non_snake_case)]
impl Value {
    /// The unit value `#<void>`.
    pub const Void: Value = Value::from_bits(VOID_BITS);
    /// The empty list.
    pub const Nil: Value = Value::from_bits(NIL_BITS);

    /// A boolean.
    #[inline]
    pub fn Bool(b: bool) -> Value {
        Value::from_bits(if b { TRUE_BITS } else { FALSE_BITS })
    }

    /// An exact integer. Fixnum-range (48-bit) integers are immediate;
    /// the rest box the `i64` on the heap (invisible to `unpacked`).
    #[inline]
    pub fn Int(n: i64) -> Value {
        if ((n << 16) >> 16) == n {
            Value::from_bits((TAG_INT << TAG_SHIFT) | (n as u64 & PAYLOAD_MASK))
        } else {
            Value::pack_ptr(TAG_HEAP_B, HK_BIGINT - 8, Rc::new(n))
        }
    }

    /// An inexact real. Every NaN input canonicalizes to one bit
    /// pattern — required to keep NaNs out of the tag space, and what
    /// gives `eqv?` its NaN ≡ NaN behaviour.
    #[inline]
    pub fn Float(x: f64) -> Value {
        let bits = if x.is_nan() { CANON_NAN } else { x.to_bits() };
        debug_assert!(bits < FLOAT_LIMIT);
        Value::from_bits(bits)
    }

    /// An inexact complex number (components NaN-canonicalized like
    /// [`Value::Float`]).
    pub fn Complex(re: f64, im: f64) -> Value {
        let canon = |x: f64| {
            if x.is_nan() {
                f64::from_bits(CANON_NAN)
            } else {
                x
            }
        };
        Value::pack_ptr(TAG_HEAP_B, HK_COMPLEX - 8, Rc::new((canon(re), canon(im))))
    }

    /// A character.
    #[inline]
    pub fn Char(c: char) -> Value {
        Value::from_bits((TAG_CHAR << TAG_SHIFT) | c as u64)
    }

    /// A symbol.
    #[inline]
    pub fn Symbol(s: Symbol) -> Value {
        Value::from_bits((TAG_SYM << TAG_SHIFT) | u64::from(s.index()))
    }

    /// A keyword.
    #[inline]
    pub fn Keyword(s: Symbol) -> Value {
        Value::from_bits((TAG_SYM << TAG_SHIFT) | KEYWORD_BIT | u64::from(s.index()))
    }

    /// An immutable string.
    #[inline]
    pub fn Str(s: Rc<String>) -> Value {
        Value::pack_ptr(TAG_HEAP_A, HK_STR, s)
    }

    /// An immutable cons cell.
    #[inline]
    pub fn Pair(p: Rc<Pair>) -> Value {
        Value::pack_ptr(TAG_HEAP_A, HK_PAIR, p)
    }

    /// A mutable vector.
    #[inline]
    pub fn Vector(v: Rc<RefCell<Vec<Value>>>) -> Value {
        Value::pack_ptr(TAG_HEAP_A, HK_VECTOR, v)
    }

    /// A mutable box.
    #[inline]
    pub fn Box(b: Rc<RefCell<Value>>) -> Value {
        Value::pack_ptr(TAG_HEAP_A, HK_BOX, b)
    }

    /// A compiled procedure.
    #[inline]
    pub fn Closure(c: Rc<Closure>) -> Value {
        Value::pack_ptr(TAG_HEAP_A, HK_CLOSURE, c)
    }

    /// A native primitive.
    #[inline]
    pub fn Native(n: Rc<Native>) -> Value {
        Value::pack_ptr(TAG_HEAP_A, HK_NATIVE, n)
    }

    /// A contract-wrapped procedure.
    #[inline]
    pub fn Contracted(c: Rc<Contracted>) -> Value {
        Value::pack_ptr(TAG_HEAP_A, HK_CONTRACTED, c)
    }

    /// A syntax object (phase-1 data). `Syntax` is itself a thin
    /// refcounted handle; the extra `Rc` here only buys a stable address
    /// for the word.
    #[inline]
    pub fn Syntax(s: Syntax) -> Value {
        Value::pack_ptr(TAG_HEAP_B, HK_SYNTAX - 8, Rc::new(s))
    }

    /// A multiple-values package.
    #[inline]
    pub fn Values(vs: Rc<Vec<Value>>) -> Value {
        Value::pack_ptr(TAG_HEAP_A, HK_VALUES, vs)
    }
}

// ---------------------------------------------------------------------------
// Views and accessors
// ---------------------------------------------------------------------------

impl Value {
    /// The one-level borrowed view, for pattern matching.
    #[inline]
    pub fn unpacked(&self) -> Unpacked<'_> {
        if self.0 < FLOAT_LIMIT {
            return Unpacked::Float(f64::from_bits(self.0));
        }
        match self.tag() {
            TAG_CONST => match self.0 & PAYLOAD_MASK {
                0 => Unpacked::Void,
                1 => Unpacked::Nil,
                2 => Unpacked::Bool(false),
                _ => Unpacked::Bool(true),
            },
            TAG_INT => Unpacked::Int(((self.0 << 16) as i64) >> 16),
            TAG_CHAR => {
                // only constructed from a validated char
                Unpacked::Char(char::from_u32((self.0 & PAYLOAD_MASK) as u32).unwrap_or('\u{0}'))
            }
            TAG_SYM => {
                let sym = Symbol::from_index(self.0 as u32);
                if self.0 & KEYWORD_BIT != 0 {
                    Unpacked::Keyword(sym)
                } else {
                    Unpacked::Symbol(sym)
                }
            }
            _ => unsafe {
                match self.heap_kind() {
                    HK_PAIR => Unpacked::Pair(self.payload::<Pair>()),
                    HK_STR => Unpacked::Str(self.payload::<String>()),
                    HK_VECTOR => Unpacked::Vector(self.payload::<RefCell<Vec<Value>>>()),
                    HK_BOX => Unpacked::Box(self.payload::<RefCell<Value>>()),
                    HK_CLOSURE => Unpacked::Closure(self.payload::<Closure>()),
                    HK_NATIVE => Unpacked::Native(self.payload::<Native>()),
                    HK_CONTRACTED => Unpacked::Contracted(self.payload::<Contracted>()),
                    HK_VALUES => Unpacked::Values(self.payload::<Vec<Value>>()),
                    HK_SYNTAX => Unpacked::Syntax(self.payload::<Syntax>()),
                    HK_COMPLEX => {
                        let (re, im) = *self.payload::<(f64, f64)>();
                        Unpacked::Complex(re, im)
                    }
                    _ => Unpacked::Int(*self.payload::<i64>()),
                }
            },
        }
    }

    /// Whether the word is a flonum.
    #[inline]
    pub fn is_float(&self) -> bool {
        self.0 < FLOAT_LIMIT
    }

    /// The flonum payload.
    #[inline]
    pub fn as_float(&self) -> Option<f64> {
        if self.is_float() {
            Some(f64::from_bits(self.0))
        } else {
            None
        }
    }

    /// Whether the word is an exact integer (immediate or boxed).
    #[inline]
    pub fn is_int(&self) -> bool {
        self.tag() == TAG_INT || (self.is_heap() && self.heap_kind() == HK_BIGINT)
    }

    /// The integer payload (immediate or boxed).
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        if self.tag() == TAG_INT {
            Some(((self.0 << 16) as i64) >> 16)
        } else if self.is_heap() && self.heap_kind() == HK_BIGINT {
            Some(unsafe { *self.payload::<i64>() })
        } else {
            None
        }
    }

    /// The boolean payload.
    #[inline]
    pub fn as_bool(&self) -> Option<bool> {
        match self.0 {
            TRUE_BITS => Some(true),
            FALSE_BITS => Some(false),
            _ => None,
        }
    }

    /// Whether this is `#<void>`.
    #[inline]
    pub fn is_void(&self) -> bool {
        self.0 == VOID_BITS
    }

    /// Whether this is the empty list.
    #[inline]
    pub fn is_nil(&self) -> bool {
        self.0 == NIL_BITS
    }

    /// The character payload.
    #[inline]
    pub fn as_char(&self) -> Option<char> {
        if self.tag() == TAG_CHAR {
            char::from_u32((self.0 & PAYLOAD_MASK) as u32)
        } else {
            None
        }
    }

    /// The symbol payload (not keywords).
    #[inline]
    pub fn as_symbol(&self) -> Option<Symbol> {
        if self.tag() == TAG_SYM && self.0 & KEYWORD_BIT == 0 {
            Some(Symbol::from_index(self.0 as u32))
        } else {
            None
        }
    }

    /// The keyword payload.
    #[inline]
    pub fn as_keyword(&self) -> Option<Symbol> {
        if self.tag() == TAG_SYM && self.0 & KEYWORD_BIT != 0 {
            Some(Symbol::from_index(self.0 as u32))
        } else {
            None
        }
    }

    #[inline]
    fn heap_as<T>(&self, kind: u64) -> Option<&T> {
        if self.is_heap() && self.heap_kind() == kind {
            Some(unsafe { self.payload::<T>() })
        } else {
            None
        }
    }

    /// The string payload.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        self.heap_as::<String>(HK_STR).map(String::as_str)
    }

    /// Whether the word is a string.
    #[inline]
    pub fn is_string(&self) -> bool {
        self.is_heap() && self.heap_kind() == HK_STR
    }

    /// The cons-cell payload.
    #[inline]
    pub fn as_pair(&self) -> Option<&Pair> {
        self.heap_as::<Pair>(HK_PAIR)
    }

    /// The vector payload.
    #[inline]
    pub fn as_vector(&self) -> Option<&RefCell<Vec<Value>>> {
        self.heap_as::<RefCell<Vec<Value>>>(HK_VECTOR)
    }

    /// The box payload.
    #[inline]
    pub fn as_box(&self) -> Option<&RefCell<Value>> {
        self.heap_as::<RefCell<Value>>(HK_BOX)
    }

    /// The closure payload.
    #[inline]
    pub fn as_closure(&self) -> Option<&Closure> {
        self.heap_as::<Closure>(HK_CLOSURE)
    }

    /// The native-primitive payload.
    #[inline]
    pub fn as_native(&self) -> Option<&Native> {
        self.heap_as::<Native>(HK_NATIVE)
    }

    /// The contracted-procedure payload.
    #[inline]
    pub fn as_contracted(&self) -> Option<&Contracted> {
        self.heap_as::<Contracted>(HK_CONTRACTED)
    }

    /// The syntax-object payload.
    #[inline]
    pub fn as_syntax(&self) -> Option<&Syntax> {
        self.heap_as::<Syntax>(HK_SYNTAX)
    }

    /// The multiple-values payload.
    #[inline]
    pub fn as_values(&self) -> Option<&[Value]> {
        self.heap_as::<Vec<Value>>(HK_VALUES).map(Vec::as_slice)
    }

    /// The complex payload.
    #[inline]
    pub fn as_complex(&self) -> Option<(f64, f64)> {
        self.heap_as::<(f64, f64)>(HK_COMPLEX).copied()
    }

    /// Whether the word is a complex number.
    #[inline]
    pub fn is_complex(&self) -> bool {
        self.is_heap() && self.heap_kind() == HK_COMPLEX
    }

    /// An owning handle to the string payload.
    pub fn to_str_rc(&self) -> Option<Rc<String>> {
        if self.is_heap() && self.heap_kind() == HK_STR {
            Some(unsafe { self.clone_rc::<String>() })
        } else {
            None
        }
    }

    /// An owning handle to the cons-cell payload.
    pub fn to_pair_rc(&self) -> Option<Rc<Pair>> {
        if self.is_heap() && self.heap_kind() == HK_PAIR {
            Some(unsafe { self.clone_rc::<Pair>() })
        } else {
            None
        }
    }

    /// An owning handle to the vector payload.
    pub fn to_vector_rc(&self) -> Option<Rc<RefCell<Vec<Value>>>> {
        if self.is_heap() && self.heap_kind() == HK_VECTOR {
            Some(unsafe { self.clone_rc::<RefCell<Vec<Value>>>() })
        } else {
            None
        }
    }

    /// An owning handle to the closure payload.
    pub fn to_closure_rc(&self) -> Option<Rc<Closure>> {
        if self.is_heap() && self.heap_kind() == HK_CLOSURE {
            Some(unsafe { self.clone_rc::<Closure>() })
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// The old convenience / semantic API, unchanged in signature
// ---------------------------------------------------------------------------

impl Value {
    /// Builds a cons cell.
    pub fn cons(car: Value, cdr: Value) -> Value {
        Value::Pair(Rc::new(Pair(car, cdr)))
    }

    /// Builds a proper list.
    pub fn list(items: impl IntoIterator<Item = Value, IntoIter: DoubleEndedIterator>) -> Value {
        let mut out = Value::Nil;
        for item in items.into_iter().rev() {
            out = Value::cons(item, out);
        }
        out
    }

    /// Builds a string value.
    pub fn string(s: &str) -> Value {
        Value::Str(Rc::new(s.to_owned()))
    }

    /// Builds a mutable vector value.
    pub fn vector(items: Vec<Value>) -> Value {
        Value::Vector(Rc::new(RefCell::new(items)))
    }

    /// Everything but `#f` is true.
    #[inline]
    pub fn is_truthy(&self) -> bool {
        self.0 != FALSE_BITS
    }

    /// Whether the value can be applied.
    #[inline]
    pub fn is_procedure(&self) -> bool {
        self.is_heap() && matches!(self.heap_kind(), HK_CLOSURE | HK_NATIVE | HK_CONTRACTED)
    }

    /// The name of a procedure value, when it carries one (contracted
    /// procedures answer with their wrapped procedure's name).
    pub fn procedure_name(&self) -> Option<Symbol> {
        match self.unpacked() {
            Unpacked::Closure(c) => c.name,
            Unpacked::Native(n) => Some(n.name),
            Unpacked::Contracted(c) => c.inner.procedure_name(),
            _ => None,
        }
    }

    /// The elements, if this is a proper list.
    pub fn list_to_vec(&self) -> Option<Vec<Value>> {
        let mut out = Vec::new();
        let mut cur = self.clone();
        loop {
            if cur.is_nil() {
                return Some(out);
            }
            let p = cur.as_pair()?;
            out.push(p.0.clone());
            let next = p.1.clone();
            cur = next;
        }
    }

    /// The number of elements of a proper list, counted by walking its
    /// pairs in place; `None` when `self` is not a proper list.
    pub fn list_length(&self) -> Option<usize> {
        let mut n = 0;
        let mut cur = self;
        while !cur.is_nil() {
            cur = &cur.as_pair()?.1;
            n += 1;
        }
        Some(n)
    }

    /// Converts quoted data to a value (`quote` semantics).
    pub fn from_datum(d: &Datum) -> Value {
        match d {
            Datum::Symbol(s) => Value::Symbol(*s),
            Datum::Bool(b) => Value::Bool(*b),
            Datum::Int(n) => Value::Int(*n),
            Datum::Float(x) => Value::Float(*x),
            Datum::Complex(re, im) => Value::Complex(*re, *im),
            Datum::Str(s) => Value::string(s),
            Datum::Char(c) => Value::Char(*c),
            Datum::Keyword(s) => Value::Keyword(*s),
            Datum::List(items) => Value::list(items.iter().map(Value::from_datum)),
            Datum::Improper(items, tail) => {
                let mut out = Value::from_datum(tail);
                for item in items.iter().rev() {
                    out = Value::cons(Value::from_datum(item), out);
                }
                out
            }
            Datum::Vector(items) => Value::Vector(Rc::new(RefCell::new(
                items.iter().map(Value::from_datum).collect(),
            ))),
        }
    }

    /// Converts back to a datum where possible (procedures, boxes, and
    /// syntax have no datum form).
    pub fn to_datum(&self) -> Option<Datum> {
        match self.unpacked() {
            Unpacked::Bool(b) => Some(Datum::Bool(b)),
            Unpacked::Int(n) => Some(Datum::Int(n)),
            Unpacked::Float(x) => Some(Datum::Float(x)),
            Unpacked::Complex(re, im) => Some(Datum::Complex(re, im)),
            Unpacked::Char(c) => Some(Datum::Char(c)),
            Unpacked::Symbol(s) => Some(Datum::Symbol(s)),
            Unpacked::Keyword(s) => Some(Datum::Keyword(s)),
            Unpacked::Str(s) => Some(Datum::string(s)),
            Unpacked::Nil => Some(Datum::nil()),
            Unpacked::Pair(_) => {
                let mut items = Vec::new();
                let mut cur = self.clone();
                loop {
                    if cur.is_nil() {
                        return Some(Datum::List(items));
                    }
                    if let Some(p) = cur.as_pair() {
                        items.push(p.0.to_datum()?);
                        let next = p.1.clone();
                        cur = next;
                    } else {
                        return Some(Datum::Improper(items, Box::new(cur.to_datum()?)));
                    }
                }
            }
            Unpacked::Vector(v) => Some(Datum::Vector(
                v.borrow()
                    .iter()
                    .map(Value::to_datum)
                    .collect::<Option<Vec<_>>>()?,
            )),
            Unpacked::Syntax(s) => Some(s.to_datum()),
            _ => None,
        }
    }

    /// The name of this value's runtime tag, for error messages.
    pub fn tag_name(&self) -> &'static str {
        match self.unpacked() {
            Unpacked::Void => "void",
            Unpacked::Bool(_) => "boolean",
            Unpacked::Int(_) => "integer",
            Unpacked::Float(_) => "flonum",
            Unpacked::Complex(_, _) => "float-complex",
            Unpacked::Char(_) => "character",
            Unpacked::Symbol(_) => "symbol",
            Unpacked::Keyword(_) => "keyword",
            Unpacked::Str(_) => "string",
            Unpacked::Nil => "null",
            Unpacked::Pair(_) => "pair",
            Unpacked::Vector(_) => "vector",
            Unpacked::Box(_) => "box",
            Unpacked::Closure(_) | Unpacked::Native(_) | Unpacked::Contracted(_) => "procedure",
            Unpacked::Syntax(_) => "syntax",
            Unpacked::Values(_) => "values",
        }
    }

    /// Pointer/primitive identity (`eq?`).
    ///
    /// Flonums and complex numbers never answer `#t` (they were carried
    /// inline before the word representation and so never had identity;
    /// boxed integers compare by value like immediates).
    #[inline]
    pub fn eq_identity(&self, other: &Value) -> bool {
        if self.0 == other.0 {
            return !(self.is_float() || self.is_complex());
        }
        // out-of-range integers live in separate boxes but are still the
        // same integer
        match (self.as_int(), other.as_int()) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// `eqv?`: identity plus numeric equality on same-tag numbers.
    ///
    /// Flonums follow Racket's *bitwise-style* `eqv?` semantics, not
    /// IEEE `=`: `(eqv? +nan.0 +nan.0)` is `#t` (every NaN is
    /// canonicalized to one bit pattern at construction) and
    /// `(eqv? 0.0 -0.0)` is `#f`. Complex numbers compare the same way,
    /// componentwise. `=` and `equal?` keep IEEE behaviour.
    #[inline]
    pub fn eqv(&self, other: &Value) -> bool {
        if self.is_float() && other.is_float() {
            return self.0 == other.0;
        }
        if let (Some((ar, ai)), Some((br, bi))) = (self.as_complex(), other.as_complex()) {
            return ar.to_bits() == br.to_bits() && ai.to_bits() == bi.to_bits();
        }
        self.eq_identity(other)
    }

    /// Deep structural equality (`equal?`). Numbers keep IEEE
    /// comparison semantics (`(equal? +nan.0 +nan.0)` is `#f`,
    /// `(equal? 0.0 -0.0)` is `#t`) — see `eqv` for the bitwise ladder.
    pub fn equal(&self, other: &Value) -> bool {
        match (self.unpacked(), other.unpacked()) {
            (Unpacked::Float(a), Unpacked::Float(b)) => a == b,
            (Unpacked::Complex(ar, ai), Unpacked::Complex(br, bi)) => ar == br && ai == bi,
            (Unpacked::Str(a), Unpacked::Str(b)) => a == b,
            // iterate the cdr spine: recursing per cell would overflow
            // the host stack on long lists
            (Unpacked::Pair(_), Unpacked::Pair(_)) => {
                let (mut a, mut b) = (self.clone(), other.clone());
                loop {
                    match (a.as_pair(), b.as_pair()) {
                        (Some(pa), Some(pb)) => {
                            if !pa.0.equal(&pb.0) {
                                return false;
                            }
                            let (na, nb) = (pa.1.clone(), pb.1.clone());
                            a = na;
                            b = nb;
                        }
                        _ => return a.equal(&b),
                    }
                }
            }
            (Unpacked::Vector(a), Unpacked::Vector(b)) => {
                let (a, b) = (a.borrow(), b.borrow());
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.equal(y))
            }
            (Unpacked::Box(a), Unpacked::Box(b)) => a.borrow().equal(&b.borrow()),
            _ => self.eqv(other),
        }
    }
}

fn fmt_value(v: &Value, f: &mut fmt::Formatter<'_>, write: bool, top: bool) -> fmt::Result {
    match v.unpacked() {
        Unpacked::Void => f.write_str("#<void>"),
        Unpacked::Bool(true) => f.write_str("#t"),
        Unpacked::Bool(false) => f.write_str("#f"),
        Unpacked::Int(n) => fmt::Display::fmt(&n, f),
        Unpacked::Float(x) => write!(f, "{}", Datum::Float(x)),
        Unpacked::Complex(re, im) => write!(f, "{}", Datum::Complex(re, im)),
        Unpacked::Char(c) => {
            if write {
                write!(f, "{}", Datum::Char(c))
            } else {
                write!(f, "{c}")
            }
        }
        Unpacked::Symbol(s) => {
            if write && top {
                write!(f, "'{s}")
            } else {
                write!(f, "{s}")
            }
        }
        Unpacked::Keyword(s) => write!(f, "#:{s}"),
        Unpacked::Str(s) => {
            if write {
                write!(f, "{}", Datum::string(s))
            } else {
                f.write_str(s)
            }
        }
        Unpacked::Nil => f.write_str(if write && top { "'()" } else { "()" }),
        Unpacked::Pair(_) => {
            if write && top {
                f.write_str("'")?;
            }
            f.write_str("(")?;
            let mut cur = v.clone();
            let mut first = true;
            loop {
                if cur.is_nil() {
                    break;
                }
                if let Some(p) = cur.as_pair() {
                    if !first {
                        f.write_str(" ")?;
                    }
                    first = false;
                    fmt_value(&p.0, f, write, false)?;
                    let next = p.1.clone();
                    cur = next;
                } else {
                    f.write_str(" . ")?;
                    fmt_value(&cur, f, write, false)?;
                    break;
                }
            }
            f.write_str(")")
        }
        Unpacked::Vector(items) => {
            f.write_str("#(")?;
            for (i, x) in items.borrow().iter().enumerate() {
                if i > 0 {
                    f.write_str(" ")?;
                }
                fmt_value(x, f, write, false)?;
            }
            f.write_str(")")
        }
        Unpacked::Box(b) => {
            f.write_str("#&")?;
            fmt_value(&b.borrow(), f, write, false)
        }
        Unpacked::Closure(c) => write!(f, "{c:?}"),
        Unpacked::Native(n) => write!(f, "{n:?}"),
        Unpacked::Contracted(c) => {
            f.write_str("#<contracted:")?;
            fmt_value(&c.inner, f, write, false)?;
            f.write_str(">")
        }
        Unpacked::Syntax(s) => write!(f, "#<syntax {s}>"),
        Unpacked::Values(vs) => {
            f.write_str("#<values:")?;
            for (i, x) in vs.iter().enumerate() {
                f.write_str(if i > 0 { " " } else { "" })?;
                fmt_value(x, f, write, false)?;
            }
            f.write_str(">")
        }
    }
}

impl fmt::Display for Value {
    /// `display`-mode printing (strings unquoted).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_value(self, f, false, true)
    }
}

impl fmt::Debug for Value {
    /// Mirrors the derive output of the old `enum Value` where practical.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.unpacked() {
            Unpacked::Void => f.write_str("Void"),
            Unpacked::Nil => f.write_str("Nil"),
            Unpacked::Bool(b) => f.debug_tuple("Bool").field(&b).finish(),
            Unpacked::Int(n) => f.debug_tuple("Int").field(&n).finish(),
            Unpacked::Float(x) => f.debug_tuple("Float").field(&x).finish(),
            Unpacked::Complex(re, im) => f.debug_tuple("Complex").field(&re).field(&im).finish(),
            Unpacked::Char(c) => f.debug_tuple("Char").field(&c).finish(),
            Unpacked::Symbol(s) => f.debug_tuple("Symbol").field(&s).finish(),
            Unpacked::Keyword(s) => f.debug_tuple("Keyword").field(&s).finish(),
            Unpacked::Str(s) => f.debug_tuple("Str").field(&s).finish(),
            Unpacked::Pair(p) => f.debug_tuple("Pair").field(p).finish(),
            Unpacked::Vector(v) => f.debug_tuple("Vector").field(v).finish(),
            Unpacked::Box(b) => f.debug_tuple("Box").field(b).finish(),
            Unpacked::Closure(c) => write!(f, "Closure({c:?})"),
            Unpacked::Native(n) => write!(f, "Native({n:?})"),
            Unpacked::Contracted(c) => f.debug_tuple("Contracted").field(c).finish(),
            Unpacked::Syntax(s) => write!(f, "Syntax({s})"),
            Unpacked::Values(vs) => f.debug_tuple("Values").field(&vs).finish(),
        }
    }
}

impl Value {
    /// `write`-mode printing (strings quoted, symbols with `'`).
    pub fn write_string(&self) -> String {
        struct W<'a>(&'a Value);
        impl fmt::Display for W<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt_value(self.0, f, true, true)
            }
        }
        W(self).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Bool(false).is_truthy());
        assert!(Value::Bool(true).is_truthy());
        assert!(Value::Int(0).is_truthy());
        assert!(Value::Nil.is_truthy());
        assert!(Value::Void.is_truthy());
    }

    #[test]
    fn word_round_trips_every_kind() {
        assert!(Value::Void.is_void());
        assert!(Value::Nil.is_nil());
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Bool(false).as_bool(), Some(false));
        assert_eq!(Value::Int(42).as_int(), Some(42));
        assert_eq!(Value::Int(-42).as_int(), Some(-42));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Char('λ').as_char(), Some('λ'));
        let s = Symbol::intern("word-test-sym");
        assert_eq!(Value::Symbol(s).as_symbol(), Some(s));
        assert_eq!(Value::Symbol(s).as_keyword(), None);
        assert_eq!(Value::Keyword(s).as_keyword(), Some(s));
        assert_eq!(Value::Keyword(s).as_symbol(), None);
        assert_eq!(Value::string("hi").as_str(), Some("hi"));
        assert_eq!(Value::Complex(1.0, -2.0).as_complex(), Some((1.0, -2.0)));
        let v = Value::Vector(Rc::new(RefCell::new(vec![Value::Int(1)])));
        assert_eq!(v.as_vector().unwrap().borrow().len(), 1);
        let b = Value::Box(Rc::new(RefCell::new(Value::Int(7))));
        assert_eq!(b.as_box().unwrap().borrow().as_int(), Some(7));
    }

    #[test]
    fn int_immediate_boundary_and_boxing() {
        // 48-bit signed immediates; anything wider is heap-boxed but
        // indistinguishable through the API
        let lo = -(1i64 << 47);
        let hi = (1i64 << 47) - 1;
        for n in [0, 1, -1, lo, hi, lo - 1, hi + 1, i64::MIN, i64::MAX] {
            let v = Value::Int(n);
            assert_eq!(v.as_int(), Some(n), "round-trip {n}");
            assert!(matches!(v.unpacked(), Unpacked::Int(m) if m == n));
            assert!(v.eq_identity(&Value::Int(n)), "identity {n}");
            assert!(v.eqv(&Value::Int(n)));
            assert!(v.equal(&Value::Int(n)));
        }
        assert!(!Value::Int(i64::MAX).eqv(&Value::Int(i64::MIN)));
    }

    #[test]
    fn floats_stay_out_of_tag_space() {
        for x in [
            0.0,
            -0.0,
            1.5,
            -1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::NAN,
            -f64::NAN,
        ] {
            let v = Value::Float(x);
            assert!(v.is_float(), "{x} must stay a float");
            let back = v.as_float().unwrap();
            assert!(back == x || (back.is_nan() && x.is_nan()));
        }
        // every NaN canonicalizes to one word
        assert_eq!(
            Value::Float(f64::NAN).bits(),
            Value::Float(-f64::NAN).bits()
        );
        assert_eq!(
            Value::Float(f64::NAN).bits(),
            Value::Float(f64::from_bits(0x7FF0_0000_0000_0001)).bits()
        );
    }

    /// Counts how often it is dropped.
    struct Dropped(Rc<std::cell::Cell<usize>>);

    impl Drop for Dropped {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    /// Clones `v` once and drops both words. The payload's strong count,
    /// read through a `Weak` made from the word itself, must follow each
    /// step and reach zero exactly at the last drop.
    fn balance<T>(kind: &str, v: Value) {
        // SAFETY: every caller passes a heap word whose payload is a `T`
        let probe = Rc::downgrade(&unsafe { v.clone_rc::<T>() });
        assert_eq!(probe.strong_count(), 1, "{kind}: one word, one count");
        let v2 = v.clone();
        assert_eq!(probe.strong_count(), 2, "{kind}: clone counts");
        drop(v);
        assert_eq!(probe.strong_count(), 1, "{kind}: first drop");
        drop(v2);
        assert_eq!(probe.strong_count(), 0, "{kind}: freed at its last drop");
    }

    #[test]
    fn clone_and_drop_balance_refcounts() {
        let rc = Rc::new(String::from("shared"));
        let probe = Rc::clone(&rc);
        assert_eq!(Rc::strong_count(&probe), 2);
        let v = Value::Str(rc);
        assert_eq!(Rc::strong_count(&probe), 2);
        let v2 = v.clone();
        assert_eq!(Rc::strong_count(&probe), 3);
        drop(v);
        assert_eq!(Rc::strong_count(&probe), 2);
        drop(v2);
        assert_eq!(Rc::strong_count(&probe), 1);

        // every heap kind; `freed` counts the destructors of the payloads
        // that own a `Dropped`, which must each run once, at the last drop
        let freed = Rc::new(std::cell::Cell::new(0));
        let tracked = || {
            let d = Dropped(freed.clone());
            Native::value("tracked", Arity::exactly(0), move |_| {
                let _ = &d;
                Ok(Value::Void)
            })
        };
        let mut owners = 0;
        let mut check = |n: usize| {
            owners += n;
            assert_eq!(freed.get(), owners, "each payload freed exactly once");
        };
        balance::<Pair>("pair", Value::cons(tracked(), Value::Nil));
        check(1);
        balance::<String>("string", Value::string("s"));
        balance::<RefCell<Vec<Value>>>("vector", Value::vector(vec![tracked(), tracked()]));
        check(2);
        balance::<RefCell<Value>>("box", Value::Box(Rc::new(RefCell::new(tracked()))));
        check(1);
        let closure = Closure::new(
            None,
            Arity::exactly(0),
            Rc::new(Dropped(freed.clone())),
            Rc::new(Dropped(freed.clone())),
        );
        balance::<Closure>("closure", Value::Closure(Rc::new(closure)));
        check(2);
        balance::<Native>("native", tracked());
        check(1);
        let contracted = Contracted {
            inner: tracked(),
            contract: crate::contract::Contract::Any,
            positive: Symbol::intern("server"),
            negative: Symbol::intern("client"),
        };
        balance::<Contracted>("contracted", Value::Contracted(Rc::new(contracted)));
        check(1);
        balance::<Vec<Value>>("values", Value::Values(Rc::new(vec![tracked(), tracked()])));
        check(2);
        let stx = Syntax::atom(Datum::Int(1), lagoon_syntax::Span::synthetic());
        balance::<Syntax>("syntax", Value::Syntax(stx));
        balance::<(f64, f64)>("float-complex", Value::Complex(1.0, -2.0));
        balance::<i64>("out-of-range integer", Value::Int(i64::MAX));
        // immediates own nothing
        for v in [
            Value::Float(1.5),
            Value::Int(7),
            Value::Nil,
            Value::Bool(true),
        ] {
            assert!(!v.is_heap(), "{v:?}");
            drop(v.clone());
        }
        check(0);
    }

    #[test]
    fn list_round_trip() {
        let l = Value::list(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let v = l.list_to_vec().unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v[2].as_int(), Some(3));
        assert!(Value::cons(Value::Int(1), Value::Int(2))
            .list_to_vec()
            .is_none());
    }

    #[test]
    fn long_list_drop_does_not_overflow() {
        let mut l = Value::Nil;
        for i in 0..200_000 {
            l = Value::cons(Value::Int(i), l);
        }
        drop(l);
    }

    #[test]
    fn datum_conversion_round_trips() {
        let d = Datum::List(vec![
            Datum::sym("a"),
            Datum::Int(1),
            Datum::Float(2.5),
            Datum::List(vec![Datum::Bool(true)]),
        ]);
        let v = Value::from_datum(&d);
        assert_eq!(v.to_datum().unwrap(), d);
    }

    #[test]
    fn improper_datum_conversion() {
        let d = Datum::Improper(vec![Datum::Int(1)], Box::new(Datum::Int(2)));
        let v = Value::from_datum(&d);
        assert_eq!(v.to_datum().unwrap(), d);
        assert_eq!(v.to_string(), "(1 . 2)");
    }

    #[test]
    fn display_and_write_modes() {
        let s = Value::string("hi");
        assert_eq!(s.to_string(), "hi");
        assert_eq!(s.write_string(), "\"hi\"");
        let l = Value::list(vec![Value::Symbol(Symbol::from("a")), Value::string("b")]);
        assert_eq!(l.to_string(), "(a b)");
        assert_eq!(l.write_string(), "'(a \"b\")");
        assert_eq!(Value::Float(3.0).to_string(), "3.0");
    }

    #[test]
    fn equality_ladder() {
        let a = Value::string("x");
        let b = Value::string("x");
        assert!(!a.eq_identity(&b));
        assert!(a.equal(&b));
        assert!(Value::Int(3).eq_identity(&Value::Int(3)));
        assert!(!Value::Float(1.0).eq_identity(&Value::Float(1.0)));
        assert!(Value::Float(1.0).eqv(&Value::Float(1.0)));
        let l1 = Value::list(vec![Value::Int(1), Value::string("s")]);
        let l2 = Value::list(vec![Value::Int(1), Value::string("s")]);
        assert!(l1.equal(&l2));
        assert!(!l1.eqv(&l2));
    }

    /// The Racket-checked equality table for flonum edge cases
    /// (satellite bugfix). Checked against Racket 8.x:
    ///
    /// | expression                 | Racket | Lagoon |
    /// |----------------------------|--------|--------|
    /// | `(eqv? +nan.0 +nan.0)`     | `#t`   | `#t`   |
    /// | `(eqv? 0.0 -0.0)`          | `#f`   | `#f`   |
    /// | `(eqv? 0.0 0.0)`           | `#t`   | `#t`   |
    /// | `(eqv? 1.0 1.0)`           | `#t`   | `#t`   |
    /// | `(= +nan.0 +nan.0)`        | `#f`   | `#f`   |
    /// | `(= 0.0 -0.0)`             | `#t`   | `#t`   |
    /// | `(equal? 0.0 -0.0)`        | `#f`*  | `#t`   |
    /// | `(equal? +nan.0 +nan.0)`   | `#t`*  | `#f`   |
    ///
    /// *Racket's `equal?` defers to `eqv?` on numbers; ISSUE 8 specifies
    /// that Lagoon's `equal?` keeps IEEE semantics (matching `=`), so the
    /// last two rows intentionally diverge and are pinned here.
    #[test]
    fn flonum_equality_table() {
        let nan = Value::Float(f64::NAN);
        let nan2 = Value::Float(f64::from_bits(0xFFF8_0000_0000_0001));
        let pz = Value::Float(0.0);
        let nz = Value::Float(-0.0);
        // eqv?: bitwise-style
        assert!(nan.eqv(&nan2), "(eqv? +nan.0 +nan.0) => #t");
        assert!(!pz.eqv(&nz), "(eqv? 0.0 -0.0) => #f");
        assert!(pz.eqv(&pz.clone()), "(eqv? 0.0 0.0) => #t");
        assert!(Value::Float(1.0).eqv(&Value::Float(1.0)));
        // equal?: IEEE
        assert!(!nan.equal(&nan2), "(equal? +nan.0 +nan.0) => #f (IEEE)");
        assert!(pz.equal(&nz), "(equal? 0.0 -0.0) => #t (IEEE)");
        // complexes follow the same split, componentwise
        let cn = Value::Complex(f64::NAN, 1.0);
        let cn2 = Value::Complex(f64::NAN, 1.0);
        assert!(cn.eqv(&cn2), "(eqv? +nan.0+1.0i +nan.0+1.0i) => #t");
        assert!(!cn.equal(&cn2), "(equal? ...) keeps IEEE => #f");
        let cz = Value::Complex(0.0, 0.0);
        let cnz = Value::Complex(-0.0, 0.0);
        assert!(!cz.eqv(&cnz), "(eqv? 0.0+0.0i -0.0+0.0i) => #f");
        assert!(cz.equal(&cnz), "(equal? 0.0+0.0i -0.0+0.0i) => #t (IEEE)");
        // nested: equal? recurs through structure with IEEE leaves, and
        // eqv? on lists is identity (unchanged)
        let l1 = Value::list(vec![pz.clone()]);
        let l2 = Value::list(vec![nz.clone()]);
        assert!(l1.equal(&l2));
        assert!(!l1.eqv(&l2));
    }

    #[test]
    fn arity_accepts() {
        assert!(Arity::exactly(2).accepts(2));
        assert!(!Arity::exactly(2).accepts(3));
        assert!(Arity::at_least(1).accepts(1));
        assert!(Arity::at_least(1).accepts(5));
        assert!(!Arity::at_least(1).accepts(0));
    }

    #[test]
    fn closure_payloads_come_back_only_as_their_own_types() {
        let code = Rc::new(String::from("code"));
        let env = Rc::new(7_u32);
        let c = Closure::new(None, Arity::exactly(1), code.clone(), env.clone());
        assert!(c.payload::<u32, String>().is_none(), "swapped");
        assert!(c.payload::<String, u64>().is_none(), "wrong environment");
        assert!(c.payload::<(), u32>().is_none(), "wrong code");
        let (k, e) = c.payload::<String, u32>().expect("its own types");
        assert!(Rc::ptr_eq(&k, &code) && Rc::ptr_eq(&e, &env));
        assert_eq!(Rc::strong_count(&code), 3, "the accessor clones");
        drop((k, e, c));
        assert_eq!((Rc::strong_count(&code), Rc::strong_count(&env)), (1, 1));
    }

    #[test]
    fn native_values_are_procedures() {
        let v = Native::value("id", Arity::exactly(1), |args| Ok(args[0].clone()));
        assert!(v.is_procedure());
        assert_eq!(v.tag_name(), "procedure");
        assert!(v.as_native().is_some());
        assert!(v.to_closure_rc().is_none());
    }
}
