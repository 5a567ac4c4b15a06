//! Binary codec for compiled artifacts: bytecode ([`Op`], [`Proto`],
//! [`ModuleCode`]), constant-pool [`Value`]s, and the core-forms IR
//! ([`CoreExpr`], [`CoreForm`]) that the tree-walking engine runs.
//!
//! Built on the primitive wire format in `lagoon_syntax::wire` (LEB128
//! varints, length-prefixed strings, self-describing datum tags).
//! Decoding is **panic-free**: every read is bounds-checked, unknown
//! tags are structured [`WireError`]s, and recursive structures carry a
//! depth limit — a corrupted artifact must surface as a diagnostic and
//! a recompile, never a crash.
//!
//! Symbols are serialized by *name* and re-interned on decode. Gensyms
//! (`x~42`) therefore come back as interned symbols distinct from any
//! live gensym with the same printed name; the module store's
//! invalidation rules (see `lagoon_core::store`) are responsible for
//! never mixing decoded artifacts with freshly expanded dependents.
//!
//! Syntax-object constants (`quote-syntax`) are encoded as their datum
//! plus source span; scope sets and syntax properties are *not*
//! preserved. That is sufficient for run-time uses of quoted syntax
//! (data inspection, error reporting) — modules whose exports need
//! richer phase-1 state are rejected as uncacheable by the store layer.

use crate::bytecode::{Arg, CaptureSrc, ModuleCode, Op, Proto};
use crate::ir::{CoreExpr, CoreForm, LambdaCore};
use lagoon_runtime::{Arity, Value};
use lagoon_syntax::{ScopeSet, Symbol, Syntax, WireError, WireReader, WireWriter};
use std::rc::Rc;

/// Maximum nesting depth accepted when decoding recursive structures.
const MAX_DEPTH: usize = 512;

macro_rules! op_codec {
    (
        plain  { $($pt:literal => $pv:ident,)* }
        index  { $($it:literal => $iv:ident,)* }
        argc   { $($at:literal => $av:ident,)* }
        arg    { $($gt:literal => $gv:ident,)* }
        arg2   { $($ht:literal => $hv:ident,)* }
        br     { $($bt:literal => $bv:ident,)* }
        br2    { $($ct:literal => $cv:ident,)* }
    ) => {
        /// Encodes one instruction (a `u8` tag plus varint operands).
        pub fn encode_op(w: &mut WireWriter, op: Op) {
            match op {
                $(Op::$pv => w.u8($pt),)*
                $(Op::$iv(x) => {
                    w.u8($it);
                    w.u32(x);
                })*
                $(Op::$av(n) => {
                    w.u8($at);
                    w.uint(u64::from(n));
                })*
                $(Op::$gv(a) => {
                    w.u8($gt);
                    w.u32(a.bits());
                })*
                $(Op::$hv(a, b) => {
                    w.u8($ht);
                    w.u32(a.bits());
                    w.u32(b.bits());
                })*
                $(Op::$bv(a, t) => {
                    w.u8($bt);
                    w.u32(a.bits());
                    w.u32(t);
                })*
                $(Op::$cv(a, b, t) => {
                    w.u8($ct);
                    w.u32(a.bits());
                    w.u32(b.bits());
                    w.u32(t);
                })*
            }
        }

        /// Decodes one instruction.
        ///
        /// # Errors
        ///
        /// Fails on truncation, an unknown opcode tag, or a malformed
        /// operand address.
        pub fn decode_op(r: &mut WireReader) -> Result<Op, WireError> {
            let at = r.position();
            let tag = r.u8()?;
            Ok(match tag {
                $($pt => Op::$pv,)*
                $($it => Op::$iv(r.u32()?),)*
                $($at => Op::$av(r.u16()?),)*
                $($gt => Op::$gv(read_arg(r)?),)*
                $($ht => Op::$hv(read_arg(r)?, read_arg(r)?),)*
                $($bt => Op::$bv(read_arg(r)?, r.u32()?),)*
                $($ct => Op::$cv(read_arg(r)?, read_arg(r)?, r.u32()?),)*
                other => {
                    return Err(WireError::new(format!("unknown opcode tag {other}"), at))
                }
            })
        }

        #[cfg(test)]
        fn all_ops() -> Vec<Op> {
            let (l, k) = (Arg::local(7).unwrap(), Arg::constant(5).unwrap());
            vec![
                $(Op::$pv,)* $(Op::$iv(7),)* $(Op::$av(3),)* $(Op::$gv(l),)*
                $(Op::$hv(l, k),)* $(Op::$bv(k, 9),)* $(Op::$cv(k, Arg::STACK, 9),)*
            ]
        }
    };
}

fn read_arg(r: &mut WireReader) -> Result<Arg, WireError> {
    let at = r.position();
    let bits = r.u32()?;
    Arg::from_bits(bits)
        .ok_or_else(|| WireError::new(format!("malformed operand address {bits:#x}"), at))
}

op_codec! {
    plain {
        1 => Void,
        12 => Return,
        13 => Pop,
        14 => BoxNew,
        15 => BoxGet,
        16 => BoxSet,
        17 => Add1,
        18 => Sub1,
        19 => Cons,
        20 => Not,
        21 => EqP,
        22 => VectorSet,
        23 => VectorLength,
        24 => FlSqrt,
        25 => FlAbs,
        26 => FcMag,
        27 => UnsafeVectorSet,
        28 => UnsafeVectorLength,
    }
    index {
        0 => Const,
        2 => LoadLocal,
        3 => StoreLocal,
        4 => LoadCapture,
        5 => LoadGlobal,
        6 => StoreGlobal,
        7 => Jump,
        8 => JumpIfFalse,
        9 => MakeClosure,
    }
    argc {
        10 => Call,
        11 => TailCall,
    }
    arg {
        30 => ZeroP,
        31 => Car,
        32 => Cdr,
        33 => NullP,
        34 => PairP,
        35 => UnsafeCar,
        36 => UnsafeCdr,
        37 => FxToFl,
    }
    arg2 {
        40 => Add2,
        41 => Sub2,
        42 => Mul2,
        43 => Div2,
        44 => Lt2,
        45 => Le2,
        46 => Gt2,
        47 => Ge2,
        48 => NumEq2,
        49 => VectorRef,
        50 => FlAdd,
        51 => FlSub,
        52 => FlMul,
        53 => FlDiv,
        54 => FlLt,
        55 => FlLe,
        56 => FlGt,
        57 => FlGe,
        58 => FlEq,
        59 => FlMin,
        60 => FlMax,
        61 => FxAdd,
        62 => FxSub,
        63 => FxMul,
        64 => FxLt,
        65 => FxLe,
        66 => FxGt,
        67 => FxGe,
        68 => FxEq,
        69 => FcAdd,
        70 => FcSub,
        71 => FcMul,
        72 => FcDiv,
        73 => UnsafeVectorRef,
    }
    br {
        80 => BrZeroP,
        81 => BrNullP,
        82 => BrPairP,
    }
    br2 {
        90 => BrLt2,
        91 => BrLe2,
        92 => BrGt2,
        93 => BrGe2,
        94 => BrNumEq2,
        95 => BrFlLt,
        96 => BrFlLe,
        97 => BrFlGt,
        98 => BrFlGe,
        99 => BrFlEq,
        100 => BrFxLt,
        101 => BrFxLe,
        102 => BrFxGt,
        103 => BrFxGe,
        104 => BrFxEq,
    }
}

/// Encodes a constant-pool value.
///
/// # Errors
///
/// Fails for values with no serialized form (procedures, boxes,
/// values packages) — such a module is *uncacheable*, not broken.
pub fn encode_value(w: &mut WireWriter, v: &Value) -> Result<(), WireError> {
    if v.is_void() {
        w.u8(2);
        return Ok(());
    }
    if let Some(stx) = v.as_syntax() {
        w.u8(1);
        w.datum(&stx.to_datum());
        w.span(stx.span());
        return Ok(());
    }
    match v.to_datum() {
        Some(d) => {
            w.u8(0);
            w.datum(&d);
            Ok(())
        }
        None => Err(WireError::new(
            format!("a {} constant has no serialized form", v.tag_name()),
            w.bytes().len(),
        )),
    }
}

/// Decodes a constant-pool value.
///
/// # Errors
///
/// Fails on truncation or an unknown value tag.
pub fn decode_value(r: &mut WireReader) -> Result<Value, WireError> {
    let at = r.position();
    match r.u8()? {
        0 => Ok(Value::from_datum(&r.datum()?)),
        1 => {
            let d = r.datum()?;
            let span = r.span()?;
            Ok(Value::Syntax(Syntax::from_datum(
                &d,
                span,
                &ScopeSet::default(),
            )))
        }
        2 => Ok(Value::Void),
        t => Err(WireError::new(format!("unknown value tag {t}"), at)),
    }
}

/// Encodes a procedure prototype (recursively, children included).
///
/// # Errors
///
/// Fails if any constant in the (transitive) pools is unserializable.
pub fn encode_proto(w: &mut WireWriter, p: &Proto) -> Result<(), WireError> {
    match p.name {
        Some(n) => {
            w.bool(true);
            w.symbol(n);
        }
        None => w.bool(false),
    }
    w.uint(p.arity.required as u64);
    w.bool(p.arity.rest);
    w.u32(p.nlocals);
    w.len(p.captures.len());
    for c in &p.captures {
        match c {
            CaptureSrc::Local(i) => {
                w.u8(0);
                w.u32(*i);
            }
            CaptureSrc::Capture(i) => {
                w.u8(1);
                w.u32(*i);
            }
        }
    }
    w.len(p.code.len());
    for op in &p.code {
        encode_op(w, *op);
    }
    w.len(p.consts.len());
    for v in &p.consts {
        encode_value(w, v)?;
    }
    w.len(p.protos.len());
    for child in &p.protos {
        encode_proto(w, child)?;
    }
    Ok(())
}

/// Decodes a procedure prototype.
///
/// # Errors
///
/// Fails on truncation, unknown tags, or implausible nesting depth.
pub fn decode_proto(r: &mut WireReader) -> Result<Rc<Proto>, WireError> {
    decode_proto_at(r, 0)
}

fn decode_proto_at(r: &mut WireReader, depth: usize) -> Result<Rc<Proto>, WireError> {
    if depth > MAX_DEPTH {
        return Err(WireError::new("proto nesting too deep", r.position()));
    }
    let name = if r.bool()? { Some(r.symbol()?) } else { None };
    let required = usize::try_from(r.uint()?)
        .map_err(|_| WireError::new("arity out of range", r.position()))?;
    let rest = r.bool()?;
    let nlocals = r.u32()?;
    let ncaptures = r.len()?;
    let mut captures = Vec::with_capacity(ncaptures);
    for _ in 0..ncaptures {
        let at = r.position();
        captures.push(match r.u8()? {
            0 => CaptureSrc::Local(r.u32()?),
            1 => CaptureSrc::Capture(r.u32()?),
            t => return Err(WireError::new(format!("unknown capture tag {t}"), at)),
        });
    }
    let ncode = r.len()?;
    let mut code = Vec::with_capacity(ncode);
    for _ in 0..ncode {
        code.push(decode_op(r)?);
    }
    let nconsts = r.len()?;
    let mut consts = Vec::with_capacity(nconsts);
    for _ in 0..nconsts {
        consts.push(decode_value(r)?);
    }
    let nprotos = r.len()?;
    let mut protos = Vec::with_capacity(nprotos);
    for _ in 0..nprotos {
        protos.push(decode_proto_at(r, depth + 1)?);
    }
    Ok(Rc::new(Proto {
        name,
        arity: Arity { required, rest },
        nlocals,
        captures,
        code,
        consts,
        protos,
    }))
}

/// Encodes a whole compiled module's bytecode.
///
/// # Errors
///
/// Fails if any constant is unserializable (module is uncacheable).
pub fn encode_module_code(w: &mut WireWriter, code: &ModuleCode) -> Result<(), WireError> {
    encode_proto(w, &code.top)?;
    w.len(code.global_names.len());
    for s in &code.global_names {
        w.symbol(*s);
    }
    w.len(code.defined.len());
    for i in &code.defined {
        w.u32(*i);
    }
    Ok(())
}

/// Decodes a whole compiled module's bytecode.
///
/// # Errors
///
/// Fails on truncation, unknown tags, or implausible nesting depth.
pub fn decode_module_code(r: &mut WireReader) -> Result<ModuleCode, WireError> {
    let top = decode_proto(r)?;
    let n = r.len()?;
    let mut global_names = Vec::with_capacity(n);
    for _ in 0..n {
        global_names.push(r.symbol()?);
    }
    let n = r.len()?;
    let mut defined = Vec::with_capacity(n);
    for _ in 0..n {
        defined.push(r.u32()?);
    }
    let code = ModuleCode {
        top,
        global_names,
        defined,
    };
    check_module(&code).map_err(|e| WireError::new(e, r.position()))?;
    Ok(code)
}

/// Checks every index a decoded module holds against the proto or
/// module it belongs to. A content digest proves the bytes are the ones
/// written, not that they make sense, and the machine indexes without
/// checking.
fn check_module(code: &ModuleCode) -> Result<(), String> {
    let nglobals = code.global_names.len();
    if let Some(i) = code.defined.iter().find(|&&i| i as usize >= nglobals) {
        return Err(format!("defined global {i} out of range"));
    }
    // the module body runs with no captures
    if !code.top.captures.is_empty() {
        return Err("module body declares captures".to_owned());
    }
    check_proto(&code.top, nglobals)
}

fn check_proto(p: &Proto, nglobals: usize) -> Result<(), String> {
    let fits = |i: u32, n: usize| (i as usize) < n;
    let nlocals = p.nlocals as usize;
    for child in &p.protos {
        for src in &child.captures {
            let ok = match *src {
                CaptureSrc::Local(i) => fits(i, nlocals),
                CaptureSrc::Capture(i) => fits(i, p.captures.len()),
            };
            if !ok {
                return Err(format!("capture source {src:?} out of range"));
            }
        }
        check_proto(child, nglobals)?;
    }
    for (at, op) in p.code.iter().enumerate() {
        let index_ok = match *op {
            Op::Const(k) => fits(k, p.consts.len()),
            Op::LoadLocal(i) | Op::StoreLocal(i) => fits(i, nlocals),
            Op::LoadCapture(i) => fits(i, p.captures.len()),
            Op::LoadGlobal(i) | Op::StoreGlobal(i) => fits(i, nglobals),
            Op::MakeClosure(i) => fits(i, p.protos.len()),
            _ => true,
        };
        let slots = |a: Arg| {
            if a.is_const() {
                p.consts.len()
            } else {
                nlocals
            }
        };
        let args_ok = op
            .args()
            .iter()
            .all(|&a| a.is_stack() || a.index() < slots(a));
        let target_ok = op.target().is_none_or(|t| fits(t, p.code.len()));
        if !(index_ok && args_ok && target_ok) {
            return Err(format!("instruction {at} ({op:?}) is out of range"));
        }
    }
    Ok(())
}

fn encode_exprs(w: &mut WireWriter, exprs: &[CoreExpr]) -> Result<(), WireError> {
    w.len(exprs.len());
    for e in exprs {
        encode_expr(w, e)?;
    }
    Ok(())
}

fn encode_bindings(w: &mut WireWriter, binds: &[(Symbol, CoreExpr)]) -> Result<(), WireError> {
    w.len(binds.len());
    for (sym, rhs) in binds {
        w.symbol(*sym);
        encode_expr(w, rhs)?;
    }
    Ok(())
}

/// Encodes a core-IR expression (the tree-walking engine's input).
///
/// # Errors
///
/// Fails if a quoted constant is unserializable.
pub fn encode_expr(w: &mut WireWriter, e: &CoreExpr) -> Result<(), WireError> {
    match e {
        CoreExpr::Quote(v) => {
            w.u8(0);
            encode_value(w, v)
        }
        CoreExpr::QuoteSyntax(stx) => {
            w.u8(1);
            w.datum(&stx.to_datum());
            w.span(stx.span());
            Ok(())
        }
        CoreExpr::Var(sym, span) => {
            w.u8(2);
            w.symbol(*sym);
            w.span(*span);
            Ok(())
        }
        CoreExpr::If(c, t, f) => {
            w.u8(3);
            encode_expr(w, c)?;
            encode_expr(w, t)?;
            encode_expr(w, f)
        }
        CoreExpr::Begin(exprs) => {
            w.u8(4);
            encode_exprs(w, exprs)
        }
        CoreExpr::Lambda(lam) => {
            w.u8(5);
            match lam.name {
                Some(n) => {
                    w.bool(true);
                    w.symbol(n);
                }
                None => w.bool(false),
            }
            w.len(lam.formals.len());
            for f in &lam.formals {
                w.symbol(*f);
            }
            match lam.rest {
                Some(rest) => {
                    w.bool(true);
                    w.symbol(rest);
                }
                None => w.bool(false),
            }
            encode_exprs(w, &lam.body)?;
            w.span(lam.span);
            Ok(())
        }
        CoreExpr::Let(binds, body) => {
            w.u8(6);
            encode_bindings(w, binds)?;
            encode_exprs(w, body)
        }
        CoreExpr::Letrec(binds, body) => {
            w.u8(7);
            encode_bindings(w, binds)?;
            encode_exprs(w, body)
        }
        CoreExpr::Set(sym, rhs, span) => {
            w.u8(8);
            w.symbol(*sym);
            encode_expr(w, rhs)?;
            w.span(*span);
            Ok(())
        }
        CoreExpr::App(f, args, span) => {
            w.u8(9);
            encode_expr(w, f)?;
            encode_exprs(w, args)?;
            w.span(*span);
            Ok(())
        }
    }
}

fn decode_exprs(r: &mut WireReader, depth: usize) -> Result<Vec<CoreExpr>, WireError> {
    let n = r.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_expr_at(r, depth)?);
    }
    Ok(out)
}

/// Decodes a core-IR expression.
///
/// # Errors
///
/// Fails on truncation, unknown tags, or implausible nesting depth.
pub fn decode_expr(r: &mut WireReader) -> Result<CoreExpr, WireError> {
    decode_expr_at(r, 0)
}

fn decode_expr_at(r: &mut WireReader, depth: usize) -> Result<CoreExpr, WireError> {
    if depth > MAX_DEPTH {
        return Err(WireError::new("expression nesting too deep", r.position()));
    }
    let at = r.position();
    let d = depth + 1;
    Ok(match r.u8()? {
        0 => CoreExpr::Quote(decode_value(r)?),
        1 => {
            let datum = r.datum()?;
            let span = r.span()?;
            CoreExpr::QuoteSyntax(Syntax::from_datum(&datum, span, &ScopeSet::default()))
        }
        2 => CoreExpr::Var(r.symbol()?, r.span()?),
        3 => CoreExpr::If(
            Box::new(decode_expr_at(r, d)?),
            Box::new(decode_expr_at(r, d)?),
            Box::new(decode_expr_at(r, d)?),
        ),
        4 => CoreExpr::Begin(decode_exprs(r, d)?),
        5 => {
            let name = if r.bool()? { Some(r.symbol()?) } else { None };
            let nformals = r.len()?;
            let mut formals = Vec::with_capacity(nformals);
            for _ in 0..nformals {
                formals.push(r.symbol()?);
            }
            let rest = if r.bool()? { Some(r.symbol()?) } else { None };
            let body = decode_exprs(r, d)?;
            let span = r.span()?;
            CoreExpr::Lambda(LambdaCore {
                name,
                formals,
                rest,
                body,
                span,
            })
        }
        6 => {
            let binds = decode_bindings(r, d)?;
            CoreExpr::Let(binds, decode_exprs(r, d)?)
        }
        7 => {
            let binds = decode_bindings(r, d)?;
            CoreExpr::Letrec(binds, decode_exprs(r, d)?)
        }
        8 => {
            let sym = r.symbol()?;
            let rhs = Box::new(decode_expr_at(r, d)?);
            let span = r.span()?;
            CoreExpr::Set(sym, rhs, span)
        }
        9 => {
            let f = Box::new(decode_expr_at(r, d)?);
            let args = decode_exprs(r, d)?;
            let span = r.span()?;
            CoreExpr::App(f, args, span)
        }
        t => return Err(WireError::new(format!("unknown expression tag {t}"), at)),
    })
}

fn decode_bindings(r: &mut WireReader, depth: usize) -> Result<Vec<(Symbol, CoreExpr)>, WireError> {
    let n = r.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let sym = r.symbol()?;
        out.push((sym, decode_expr_at(r, depth)?));
    }
    Ok(out)
}

/// Encodes a top-level core form.
///
/// # Errors
///
/// Fails if a quoted constant is unserializable.
pub fn encode_form(w: &mut WireWriter, form: &CoreForm) -> Result<(), WireError> {
    match form {
        CoreForm::Define(sym, rhs, span) => {
            w.u8(0);
            w.symbol(*sym);
            encode_expr(w, rhs)?;
            w.span(*span);
            Ok(())
        }
        CoreForm::Expr(e) => {
            w.u8(1);
            encode_expr(w, e)
        }
    }
}

/// Decodes a top-level core form.
///
/// # Errors
///
/// Fails on truncation, unknown tags, or implausible nesting depth.
pub fn decode_form(r: &mut WireReader) -> Result<CoreForm, WireError> {
    let at = r.position();
    Ok(match r.u8()? {
        0 => {
            let sym = r.symbol()?;
            let rhs = decode_expr(r)?;
            let span = r.span()?;
            CoreForm::Define(sym, rhs, span)
        }
        1 => CoreForm::Expr(decode_expr(r)?),
        t => return Err(WireError::new(format!("unknown form tag {t}"), at)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagoon_syntax::Span;

    fn span() -> Span {
        Span::synthetic()
    }

    #[test]
    fn every_opcode_round_trips() {
        // one of each instruction: `encode_op`'s match is exhaustive
        let ops = all_ops();
        assert_eq!(ops.len(), 89);
        let mut w = WireWriter::new();
        for op in &ops {
            encode_op(&mut w, *op);
        }
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        for op in &ops {
            assert_eq!(decode_op(&mut r).unwrap(), *op);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn opcode_tags_are_distinct() {
        // round-tripping all ops through one buffer already proves the
        // tags are consistent; this checks no two variants share a tag
        let ops = all_ops();
        let mut tags = std::collections::HashSet::new();
        for op in &ops {
            let mut w = WireWriter::new();
            encode_op(&mut w, *op);
            assert!(tags.insert(w.bytes()[0]), "duplicate tag for {op:?}");
        }
    }

    #[test]
    fn addressed_ops_keep_operand_order() {
        // asymmetric operands so a swapped encode/decode would show
        let (l, k) = (|i| Arg::local(i).unwrap(), |i| Arg::constant(i).unwrap());
        let ops = [
            Op::Add2(l(1), l(2)),
            Op::Sub2(l(9), k(4)),
            Op::VectorRef(Arg::STACK, l(3)),
            Op::BrFlLt(k(6), l(8), 2),
            Op::BrNullP(l(2), 1),
        ];
        let mut w = WireWriter::new();
        for op in &ops {
            encode_op(&mut w, *op);
        }
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        for op in &ops {
            assert_eq!(decode_op(&mut r).unwrap(), *op);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn out_of_range_indices_fail_to_decode() {
        let l = |i| Arg::local(i).unwrap();
        let k = |i| Arg::constant(i).unwrap();
        // a 2-local proto with one constant, one capture, one child and
        // 3 instructions (`op` first), in a module with one global
        let module = |op: Op, capture: CaptureSrc| {
            let child = Rc::new(Proto {
                name: None,
                arity: Arity::exactly(0),
                nlocals: 0,
                captures: vec![capture],
                code: vec![Op::LoadCapture(0), Op::Return],
                consts: vec![],
                protos: vec![],
            });
            let f = Rc::new(Proto {
                name: None,
                arity: Arity::exactly(2),
                nlocals: 2,
                captures: vec![CaptureSrc::Local(0)],
                code: vec![op, Op::Void, Op::Return],
                consts: vec![Value::Int(1)],
                protos: vec![child],
            });
            let top = Proto {
                name: None,
                arity: Arity::exactly(0),
                nlocals: 1,
                captures: vec![],
                code: vec![Op::MakeClosure(0), Op::Return],
                consts: vec![],
                protos: vec![f],
            };
            let code = ModuleCode {
                top: Rc::new(top),
                global_names: vec![Symbol::intern("g")],
                defined: vec![0],
            };
            let mut w = WireWriter::new();
            encode_module_code(&mut w, &code).unwrap();
            decode_module_code(&mut WireReader::new(&w.into_bytes()))
        };
        let ok = CaptureSrc::Local(1);
        assert!(module(Op::Add2(l(1), k(0)), ok).is_ok());
        for (what, op, capture) in [
            ("local", Op::LoadLocal(2), ok),
            ("constant", Op::Const(1), ok),
            ("capture", Op::LoadCapture(1), ok),
            ("global", Op::LoadGlobal(1), ok),
            ("child proto", Op::MakeClosure(1), ok),
            ("local address", Op::Add2(l(2), k(0)), ok),
            ("constant address", Op::Car(k(1)), ok),
            ("jump target", Op::JumpIfFalse(3), ok),
            ("branch target", Op::BrLt2(l(0), l(1), 3), ok),
            ("capture source", Op::Void, CaptureSrc::Local(2)),
        ] {
            let e = module(op, capture).expect_err(what);
            assert!(e.to_string().contains("out of range"), "{what}: {e}");
        }
    }

    #[test]
    fn tagged_value_constants_round_trip() {
        // every constant class the tagged word representation encodes
        // differently from plain datums: immediates (int/char/bool/nil),
        // the 48-bit immediate-integer boundary (beyond it integers are
        // heap-boxed but must encode identically), floats incl. the
        // canonical NaN and both signed zeros, and componentwise complex
        let vals = [
            Value::Void,
            Value::Nil,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int((1 << 47) - 1),
            Value::Int(-(1 << 47)),
            Value::Int(1 << 47),  // heap-boxed
            Value::Int(i64::MAX), // heap-boxed
            Value::Int(i64::MIN), // heap-boxed
            Value::Char('λ'),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(1.5),
            Value::Complex(f64::NAN, -0.0),
            Value::string("héllo"),
            Value::Symbol(Symbol::intern("sym")),
            Value::list(vec![Value::Int(1), Value::Float(2.5)]),
        ];
        for v in &vals {
            let mut w = WireWriter::new();
            encode_value(&mut w, v).unwrap_or_else(|e| panic!("encode {v}: {e}"));
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let back = decode_value(&mut r).unwrap_or_else(|e| panic!("decode {v}: {e}"));
            assert!(r.is_empty(), "trailing bytes after {v}");
            // eqv? distinguishes NaN-vs-NaN (#t after canonicalization)
            // and 0.0-vs--0.0 (#f), so it is exactly the right notion of
            // "the constant survived"
            assert!(
                v.eqv(&back) || v.equal(&back),
                "round trip changed {} into {}",
                v.write_string(),
                back.write_string()
            );
        }
        // the signed-zero split and NaN canonicalization specifically
        let mut w = WireWriter::new();
        encode_value(&mut w, &Value::Float(-0.0)).unwrap();
        let bytes = w.into_bytes();
        let back = decode_value(&mut WireReader::new(&bytes)).unwrap();
        assert!(back.eqv(&Value::Float(-0.0)), "-0.0 must stay -0.0");
        assert!(!back.eqv(&Value::Float(0.0)), "-0.0 must not become 0.0");
        let mut w = WireWriter::new();
        encode_value(&mut w, &Value::Float(f64::from_bits(0x7FF8_DEAD_BEEF_0001))).unwrap();
        let bytes = w.into_bytes();
        let back = decode_value(&mut WireReader::new(&bytes)).unwrap();
        assert!(
            back.eqv(&Value::Float(f64::NAN)),
            "every NaN decodes to the canonical NaN"
        );
    }

    #[test]
    fn proto_round_trips() {
        let inner = Rc::new(Proto {
            name: Some(Symbol::intern("inner")),
            arity: Arity::at_least(1),
            nlocals: 3,
            captures: vec![CaptureSrc::Local(0), CaptureSrc::Capture(0)],
            code: vec![Op::LoadCapture(1), Op::Return],
            consts: vec![Value::Int(42), Value::string("hi")],
            protos: vec![],
        });
        let mid = Rc::new(Proto {
            name: None,
            arity: Arity::exactly(1),
            nlocals: 1,
            captures: vec![CaptureSrc::Local(0)],
            code: vec![Op::MakeClosure(0), Op::Return],
            consts: vec![],
            protos: vec![inner],
        });
        let outer = Proto {
            name: None,
            arity: Arity::exactly(0),
            nlocals: 1,
            captures: vec![],
            code: vec![Op::MakeClosure(0), Op::Call(0), Op::Return],
            consts: vec![Value::Void, Value::Float(1.5)],
            protos: vec![mid],
        };
        let code = ModuleCode {
            top: Rc::new(outer),
            global_names: vec![Symbol::intern("f"), Symbol::fresh("g")],
            defined: vec![1],
        };
        let mut w = WireWriter::new();
        encode_module_code(&mut w, &code).unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = decode_module_code(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(
            format!("{back:?}"),
            format!("{:?}", {
                // the gensym decodes to an interned symbol with the same
                // printed name, so a Debug comparison is exactly right
                code
            })
        );
    }

    #[test]
    fn unserializable_const_is_an_error_not_a_panic() {
        let p = Proto {
            name: None,
            arity: Arity::exactly(0),
            nlocals: 0,
            captures: vec![],
            code: vec![Op::Return],
            consts: vec![Value::Box(std::rc::Rc::new(std::cell::RefCell::new(
                Value::Int(1),
            )))],
            protos: vec![],
        };
        let mut w = WireWriter::new();
        assert!(encode_proto(&mut w, &p).is_err());
    }

    #[test]
    fn expr_and_form_round_trip() {
        let lam = CoreExpr::Lambda(LambdaCore {
            name: Some(Symbol::intern("f")),
            formals: vec![Symbol::intern("x")],
            rest: Some(Symbol::intern("rest")),
            body: vec![CoreExpr::If(
                Box::new(CoreExpr::Var(Symbol::intern("x"), span())),
                Box::new(CoreExpr::Quote(Value::Int(1))),
                Box::new(CoreExpr::App(
                    Box::new(CoreExpr::Var(Symbol::intern("g"), span())),
                    vec![CoreExpr::Quote(Value::Bool(true))],
                    span(),
                )),
            )],
            span: span(),
        });
        let form = CoreForm::Define(Symbol::intern("f"), lam, span());
        let mut w = WireWriter::new();
        encode_form(&mut w, &form).unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = decode_form(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(format!("{back:?}"), format!("{form:?}"));
    }

    #[test]
    fn truncated_and_corrupt_input_errors_cleanly() {
        let p = Proto {
            name: Some(Symbol::intern("t")),
            arity: Arity::exactly(2),
            nlocals: 2,
            captures: vec![CaptureSrc::Local(1)],
            code: vec![Op::Add2(Arg::local(0).unwrap(), Arg::STACK), Op::Return],
            consts: vec![Value::Symbol(Symbol::intern("sym"))],
            protos: vec![],
        };
        let mut w = WireWriter::new();
        encode_proto(&mut w, &p).unwrap();
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            assert!(decode_proto(&mut r).is_err(), "truncation at {cut}");
        }
        // an unknown opcode tag must be a structured error
        let mut r = WireReader::new(&[0xff]);
        assert!(decode_op(&mut r).is_err());
    }
}
