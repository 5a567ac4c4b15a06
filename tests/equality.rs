//! The numeric-equality table, evaluated from source on BOTH engines.
//!
//! `eqv?` follows Racket's bitwise-style flonum semantics — NaN is `eqv?`
//! to NaN (Lagoon canonicalizes every NaN to one bit pattern at
//! construction, so this holds for *any* two NaNs), and `0.0` is not
//! `eqv?` to `-0.0`. `=` and `equal?` keep IEEE comparison. Complex
//! numbers follow the same split componentwise. The same table is pinned
//! at the `Value` level in `crates/runtime/src/value.rs`
//! (`flonum_equality_table`); this file proves both execution engines
//! agree with it end to end, through the reader, expander, and (for the
//! VM) the compiled-constant codec.

use lagoon::{EngineKind, Lagoon};

fn eval(expr: &str, engine: EngineKind) -> String {
    let lagoon = Lagoon::new();
    lagoon.add_module("eq-table", &format!("#lang lagoon\n{expr}\n"));
    lagoon
        .run("eq-table", engine)
        .unwrap_or_else(|e| panic!("{expr} failed on {engine:?}: {e}"))
        .to_string()
}

/// Each row: (expression, expected printed result). Expected values
/// checked against Racket 8.x, except the `equal?` flonum rows, where
/// ISSUE 8 pins IEEE semantics (Racket's `equal?` defers to `eqv?` on
/// numbers; Lagoon's intentionally matches `=` instead — see the
/// `flonum_equality_table` doc table in value.rs).
const TABLE: &[(&str, &str)] = &[
    // eqv?: bitwise-style on flonums
    ("(eqv? +nan.0 +nan.0)", "#t"),
    ("(eqv? +nan.0 -nan.0)", "#t"),
    ("(eqv? 0.0 -0.0)", "#f"),
    ("(eqv? -0.0 0.0)", "#f"),
    ("(eqv? 0.0 0.0)", "#t"),
    ("(eqv? -0.0 -0.0)", "#t"),
    ("(eqv? 1.5 1.5)", "#t"),
    ("(eqv? +inf.0 +inf.0)", "#t"),
    ("(eqv? +inf.0 -inf.0)", "#f"),
    // eqv? never equates exact and inexact
    ("(eqv? 1 1.0)", "#f"),
    ("(eqv? 1 1)", "#t"),
    // = keeps IEEE
    ("(= +nan.0 +nan.0)", "#f"),
    ("(= 0.0 -0.0)", "#t"),
    ("(= 1 1.0)", "#t"),
    // equal? keeps IEEE on numbers (ISSUE 8; diverges from Racket)
    ("(equal? +nan.0 +nan.0)", "#f"),
    ("(equal? 0.0 -0.0)", "#t"),
    // complex: componentwise, same split
    (
        "(eqv? (make-rectangular +nan.0 1.0) (make-rectangular +nan.0 1.0))",
        "#t",
    ),
    (
        "(eqv? (make-rectangular 0.0 0.0) (make-rectangular -0.0 0.0))",
        "#f",
    ),
    (
        "(equal? (make-rectangular 0.0 0.0) (make-rectangular -0.0 0.0))",
        "#t",
    ),
    ("(eqv? 2.0+3.0i 2.0+3.0i)", "#t"),
    ("(= 2.0+3.0i 2.0+3.0i)", "#t"),
    // NaN arithmetic still produces an eqv?-stable NaN (canonicalization
    // happens on every float construction, not just reader literals)
    ("(eqv? (/ 0.0 0.0) (* +inf.0 0.0))", "#t"),
    ("(eqv? (- 0.0) 0.0)", "#f"),
    // ordered comparisons answer #f on NaN, whether constant-folded into
    // an instruction, read from locals, as an `if` test or variadic
    ("(< +nan.0 1.0)", "#f"),
    ("(> 1 +nan.0)", "#f"),
    ("(<= +nan.0 +nan.0)", "#f"),
    ("(>= 1.0 +nan.0)", "#f"),
    ("(< 0 +nan.0 1)", "#f"),
    ("((lambda (x y) (>= x y)) (/ 0.0 0.0) 1.0)", "#f"),
    ("((lambda (x y) (if (< x y) 1 2)) (/ 0.0 0.0) 1.0)", "2"),
    ("(positive? +nan.0)", "#f"),
    ("(negative? +nan.0)", "#f"),
    // min and max return +nan.0 when any argument is NaN, in any order
    ("(min +nan.0 1.0)", "+nan.0"),
    ("(min 1.0 +nan.0)", "+nan.0"),
    ("(max +nan.0 1.0)", "+nan.0"),
    ("(max 1.0 +nan.0)", "+nan.0"),
    ("(max 1 2.0 +nan.0)", "+nan.0"),
    // and so do the flonum-specific forms (Racket's flmin/flmax)
    ("(unsafe-flmin 1.0 +nan.0)", "+nan.0"),
    ("(unsafe-flmax +nan.0 1.0)", "+nan.0"),
    (
        "((lambda (x y) (unsafe-flmin x y)) (/ 0.0 0.0) 1.0)",
        "+nan.0",
    ),
    // generic min and max return an inexact result when any argument
    // is inexact, even when an exact argument wins
    ("(min 1 2.0)", "1.0"),
    ("(max 3 2.0)", "3.0"),
    ("(max 1 3 2.0)", "3.0"),
    ("(min 1 3 2.0)", "1.0"),
    ("(max 1 2.0)", "2.0"),
    ("(min 2 2.0)", "2.0"),
    ("(min 1 3 2)", "1"),
];

#[test]
fn equality_table_on_vm() {
    for (expr, want) in TABLE {
        assert_eq!(&eval(expr, EngineKind::Vm), want, "vm: {expr}");
    }
}

#[test]
fn equality_table_on_interp() {
    for (expr, want) in TABLE {
        assert_eq!(&eval(expr, EngineKind::Interp), want, "interp: {expr}");
    }
}

#[test]
fn engines_agree_on_every_row() {
    // belt and braces: even if the table drifts, the engines must agree
    for (expr, _) in TABLE {
        assert_eq!(
            eval(expr, EngineKind::Vm),
            eval(expr, EngineKind::Interp),
            "engine divergence on {expr}"
        );
    }
}
