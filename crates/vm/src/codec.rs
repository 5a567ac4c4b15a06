//! Binary codec for compiled artifacts: the core-forms IR
//! ([`CoreExpr`], [`CoreForm`]) and the [`Value`] constants it quotes.
//! Both engines run from these forms: the tree-walking interpreter
//! directly, the VM after [`Compiler::compile_module`](crate::Compiler::compile_module)
//! turns them into bytecode at load. No instruction is ever persisted,
//! so the instruction set appears nowhere in the artifact format, and
//! every index the machine reads comes from the compiler, not from disk.
//!
//! Built on the primitive wire format in `lagoon_syntax::wire` (LEB128
//! varints, length-prefixed strings, self-describing datum tags).
//! Decoding is **panic-free**: every read is bounds-checked, unknown
//! tags are structured [`WireError`]s, and recursive structures carry a
//! depth limit — a corrupted artifact must surface as a diagnostic and
//! a recompile, never a crash.
//!
//! Symbols are serialized by *name* and interned on decode. The gensyms
//! a module's compile makes (`x~1a2b3c4d.7`) are interned already, so a
//! decoded artifact names the same symbols as a compile of its module
//! on the decoding thread. Only an unscoped gensym (`x~42`, which a
//! program's `gensym` call makes at run time) comes back as an interned
//! symbol distinct from the one written.
//!
//! Syntax-object constants (`quote-syntax`) are encoded as their datum
//! plus source span; scope sets and syntax properties are *not*
//! preserved. That is sufficient for run-time uses of quoted syntax
//! (data inspection, error reporting) — modules whose exports need
//! richer phase-1 state are rejected as uncacheable by the store layer.

use crate::ir::{CoreExpr, CoreForm, LambdaCore};
use lagoon_runtime::Value;
use lagoon_syntax::{ScopeSet, Symbol, Syntax, WireError, WireReader, WireWriter};
use std::rc::Rc;

/// Maximum nesting depth accepted when decoding recursive structures.
const MAX_DEPTH: usize = 512;

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
            CoreExpr::Lambda(Rc::new(LambdaCore {
                name,
                formals,
                rest,
                body,
                span,
            }))
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
    fn unserializable_const_is_an_error_not_a_panic() {
        let boxed = Value::Box(std::rc::Rc::new(std::cell::RefCell::new(Value::Int(1))));
        let form = CoreForm::Expr(CoreExpr::Quote(boxed));
        let mut w = WireWriter::new();
        assert!(encode_form(&mut w, &form).is_err());
    }

    #[test]
    fn expr_and_form_round_trip() {
        let lam = CoreExpr::Lambda(Rc::new(LambdaCore {
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
        }));
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
        let form = CoreForm::Define(
            Symbol::intern("t"),
            CoreExpr::Let(
                vec![(Symbol::intern("x"), CoreExpr::Quote(Value::Float(1.5)))],
                vec![CoreExpr::App(
                    Box::new(CoreExpr::Var(Symbol::intern("+"), span())),
                    vec![
                        CoreExpr::Var(Symbol::intern("x"), span()),
                        CoreExpr::Quote(Value::Symbol(Symbol::intern("sym"))),
                    ],
                    span(),
                )],
            ),
            span(),
        );
        let mut w = WireWriter::new();
        encode_form(&mut w, &form).unwrap();
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            assert!(decode_form(&mut r).is_err(), "truncation at {cut}");
        }
        // unknown form and expression tags must be structured errors
        assert!(decode_form(&mut WireReader::new(&[0xff])).is_err());
        assert!(decode_expr(&mut WireReader::new(&[0xff])).is_err());
    }
}
