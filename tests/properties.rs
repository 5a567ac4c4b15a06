//! Property-based tests over the whole stack.
//!
//! The headline property is the paper's implicit optimizer-correctness
//! claim: for any well-typed program, the optimized and unoptimized
//! builds compute the same value. We generate random well-typed
//! arithmetic programs, run them as `#lang lagoon`, `#lang typed/no-opt`,
//! and `#lang typed/lagoon` on both engines, and require agreement.
//!
//! The generators are driven by a fixed-seed splitmix64 stream rather
//! than a property-testing framework, so the workspace stays
//! dependency-free and every failure reproduces exactly.

use lagoon::{Datum, EngineKind, Lagoon};

/// Deterministic splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }
}

// ---------------------------------------------------------------------
// reader / printer round trip
// ---------------------------------------------------------------------

fn arb_datum(rng: &mut Rng, depth: usize) -> Datum {
    if depth > 0 && rng.below(3) == 0 {
        let len = rng.below(5);
        let items = (0..len).map(|_| arb_datum(rng, depth - 1)).collect();
        return if rng.below(2) == 0 {
            Datum::List(items)
        } else {
            Datum::Vector(items)
        };
    }
    match rng.below(7) {
        0 => Datum::Int(rng.int(-1000, 1000)),
        1 => Datum::Float(rng.int(-1000, 1000) as f64 / 8.0),
        2 => Datum::Bool(rng.next().is_multiple_of(2)),
        3 => {
            let len = 1 + rng.below(8);
            let first = (b'a' + rng.below(26) as u8) as char;
            let rest: String = (0..len)
                .map(|_| {
                    let cs = b"abcdefghijklmnopqrstuvwxyz0123456789-";
                    cs[rng.below(cs.len())] as char
                })
                .collect();
            Datum::sym(&format!("{first}{rest}"))
        }
        4 => {
            let len = rng.below(10);
            let s: String = (0..len)
                .map(|_| (b' ' + rng.below(95) as u8) as char)
                .collect();
            Datum::string(&s)
        }
        5 => Datum::Char(['a', 'Z', '0', '\n', ' '][rng.below(5)]),
        _ => Datum::Complex(rng.int(-100, 100) as f64, rng.int(-100, 100) as f64 / 4.0),
    }
}

#[test]
fn reader_printer_round_trip() {
    let mut rng = Rng(0x5EED);
    for _ in 0..128 {
        let d = arb_datum(&mut rng, 3);
        let printed = d.to_string();
        let re_read = lagoon_syntax::read_datum(&printed, "<prop>").unwrap();
        assert_eq!(re_read, d);
    }
}

// ---------------------------------------------------------------------
// well-typed expression generator
// ---------------------------------------------------------------------

/// A generated expression, rendered for the typed languages and for
/// `#lang lagoon`, with its static type (true = Float, false = Integer).
#[derive(Clone, Debug)]
struct Expr {
    typed: String,
    untyped: String,
    is_float: bool,
}

impl Expr {
    fn leaf(src: String, is_float: bool) -> Expr {
        Expr {
            typed: src.clone(),
            untyped: src,
            is_float,
        }
    }

    /// `template` with each `{}` filled by the next operand, in both
    /// renderings.
    fn shape(template: &str, operands: &[&Expr], is_float: bool) -> Expr {
        Expr::shape2(template, template, operands, is_float)
    }

    /// Like [`Expr::shape`], with a template of its own for the typed
    /// rendering (for binding forms that carry annotations there).
    fn shape2(typed: &str, untyped: &str, operands: &[&Expr], is_float: bool) -> Expr {
        let fill = |template: &str, pick: fn(&Expr) -> &str| {
            let mut out = String::new();
            let mut ops = operands.iter();
            for (i, piece) in template.split("{}").enumerate() {
                if i > 0 {
                    out.push_str(pick(ops.next().expect("one operand per hole")));
                }
                out.push_str(piece);
            }
            out
        };
        Expr {
            typed: fill(typed, |e| &e.typed),
            untyped: fill(untyped, |e| &e.untyped),
            is_float,
        }
    }

    /// The same expression, as a Float.
    fn inexact(self) -> Expr {
        if self.is_float {
            self
        } else {
            Expr::shape("(exact->inexact {})", &[&self], true)
        }
    }

    fn ty(&self) -> &'static str {
        if self.is_float {
            "Float"
        } else {
            "Integer"
        }
    }
}

/// A random expression over the variables in `vars` (name, is-Float).
/// The shapes reach every instruction form the compiler emits: operands
/// that are locals, constants, captures or nested calls, comparisons and
/// `zero?` as `if` tests, negated or not, and (when `calls_loop`) a call
/// to the tail-recursive `loop`, whose self call is a `Loop`.
fn arb_expr(rng: &mut Rng, depth: usize, vars: &[(String, bool)], calls_loop: bool) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(5) {
            0 => Expr::leaf(rng.int(1, 50).to_string(), false),
            1 => Expr::leaf(format!("{}.5", rng.int(-20, 50)), true),
            2 => Expr::leaf(["0.0", "-0.0", "+inf.0"][rng.below(3)].to_string(), true),
            _ => {
                let (name, is_float) = &vars[rng.below(vars.len())];
                Expr::leaf(name.clone(), *is_float)
            }
        };
    }
    let sub = |rng: &mut Rng| arb_expr(rng, depth - 1, vars, calls_loop);
    match rng.below(if calls_loop { 10 } else { 9 }) {
        // binary arithmetic: the result is float if either side is
        0 | 1 => {
            let op = ["+", "-", "*"][rng.below(3)];
            let (a, b) = (sub(rng), sub(rng));
            let is_float = a.is_float || b.is_float;
            Expr::shape(&format!("({op} {{}} {{}})"), &[&a, &b], is_float)
        }
        // float-only ops. `sqrt` gets a non-negative, never-NaN operand
        // (an Integer's magnitude): generic `sqrt` of a negative or NaN
        // flonum is complex where `unsafe-flsqrt`'s is NaN, a known
        // deviation this table leaves out
        2 => {
            let a = sub(rng);
            if a.is_float {
                Expr::shape("(abs {})", &[&a], true)
            } else {
                Expr::shape("(sqrt (exact->inexact (abs {})))", &[&a], true)
            }
        }
        // a comparison or `zero?` as an `if` test, sometimes negated
        // (the compiler swaps the arms, which NaN operands must survive)
        3 | 4 => {
            let test = if rng.below(4) == 0 {
                Expr::shape("(zero? {})", &[&sub(rng)], false)
            } else {
                let op = ["<", "<=", ">", ">=", "="][rng.below(5)];
                let (a, b) = (sub(rng), sub(rng));
                Expr::shape(&format!("({op} {{}} {{}})"), &[&a, &b], false)
            };
            let test = if rng.below(3) == 0 {
                Expr::shape("(not {})", &[&test], false)
            } else {
                test
            };
            let (mut t, mut e) = (sub(rng), sub(rng));
            if t.is_float != e.is_float {
                (t, e) = (t.inexact(), e.inexact());
            }
            let is_float = t.is_float;
            Expr::shape("(if {} {} {})", &[&test, &t, &e], is_float)
        }
        // min/max over any mix of exact and inexact operands: the result
        // is inexact if either operand is
        5 => {
            let op = ["min", "max"][rng.below(2)];
            let (a, b) = (sub(rng), sub(rng));
            let is_float = a.is_float || b.is_float;
            Expr::shape(&format!("({op} {{}} {{}})"), &[&a, &b], is_float)
        }
        // a let-bound local
        6 => {
            let rhs = sub(rng);
            let name = format!("v{depth}");
            let mut inner = vars.to_vec();
            inner.push((name.clone(), rhs.is_float));
            let body = arb_expr(rng, depth - 1, &inner, calls_loop);
            Expr::shape2(
                &format!("(let: ([{name} : {} {{}}]) {{}})", rhs.ty()),
                &format!("(let ([{name} {{}}]) {{}})"),
                &[&rhs, &body],
                body.is_float,
            )
        }
        // an immediately applied closure: its body captures the
        // enclosing variables
        7 => {
            let arg = sub(rng).inexact();
            let name = format!("z{depth}");
            let mut inner = vars.to_vec();
            inner.push((name.clone(), true));
            let body = arb_expr(rng, depth - 1, &inner, calls_loop);
            Expr::shape2(
                &format!("((lambda: ([{name} : Float]) : {} {{}}) {{}})", body.ty()),
                &format!("((lambda ({name}) {{}}) {{}})"),
                &[&body, &arg],
                body.is_float,
            )
        }
        // exact arithmetic that can fail: overflow past i64, division
        // by zero
        8 => {
            let ints: Vec<&String> = vars.iter().filter(|v| !v.1).map(|v| &v.0).collect();
            let int = |rng: &mut Rng| match rng.below(ints.len() + 2) {
                0 => Expr::leaf("0".into(), false),
                1 => Expr::leaf("3".into(), false),
                i => Expr::leaf(ints[i - 2].clone(), false),
            };
            let (a, b, c) = (int(rng), int(rng), int(rng));
            Expr::shape("(quotient (* {} {}) {})", &[&a, &b, &c], false)
        }
        // the tail-recursive helper, a few iterations
        _ => {
            let start = sub(rng).inexact();
            Expr::shape(&format!("(loop {} {{}})", rng.below(4)), &[&start], true)
        }
    }
}

/// One generated program: `f` over `x : Integer` and `y : Float`, and
/// the tail-recursive `loop` it may call.
fn arb_program(rng: &mut Rng) -> (String, String) {
    let step = arb_expr(rng, 2, &[("i".into(), false), ("acc".into(), true)], false).inexact();
    let body = arb_expr(rng, 4, &[("x".into(), false), ("y".into(), true)], true);
    let loop_def = |step: &str| {
        format!("(define (loop i acc) (if (< i 1) acc (loop (- i 1) {step})))\n(provide f)\n")
    };
    let typed = format!(
        "(: loop : Integer Float -> Float)\n{}(: f : Integer Float -> {})\n(define (f x y) {})\n",
        loop_def(&step.typed),
        body.ty(),
        body.typed
    );
    let untyped = format!(
        "{}(define (f x y) {})\n",
        loop_def(&step.untyped),
        body.untyped
    );
    (typed, untyped)
}

/// The typed edge-value differential. Every generated program runs
/// `(f x y)` over an edge table — `y` across the signed zeros, the
/// infinities, NaN, the smallest subnormal and ±1.5; `x` across
/// zero, ±1 and both sides of the ±2^47 immediate-integer boundary — in
/// four configurations: untyped on the VM (`vm`), typed without the
/// optimizer (`vm+typed`), typed and optimized (`vm+opt`), and untyped
/// on the tree-walking interpreter (`ast-interp`). The optimized build
/// also runs on the interpreter, which reaches the runtime's `unsafe-*`
/// primitives instead of the VM's instructions. Every configuration must
/// produce the same outcome: the printed value, or the error kind and
/// message. Runs `LAGOON_FUZZ_N / 10` programs when that is set.
#[test]
fn optimizer_preserves_semantics() {
    use lagoon_vm::Engine;

    const EDGE_X: [i64; 7] = [
        0,
        1,
        -1,
        (1 << 47) - 1,
        -((1 << 47) - 1),
        1 << 47,
        -(1 << 47),
    ];
    const EDGE_Y: [f64; 8] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        5e-324,
        1.5,
        -1.5,
    ];
    let programs: usize = std::env::var("LAGOON_FUZZ_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or(if cfg!(debug_assertions) { 24 } else { 96 }, |n: usize| {
            n / 10
        })
        .max(1);

    let configs = [
        ("vm", "u", EngineKind::Vm),
        ("vm+typed", "n", EngineKind::Vm),
        ("vm+opt", "t", EngineKind::Vm),
        ("ast-interp", "u", EngineKind::Interp),
        ("vm+opt on ast-interp", "t", EngineKind::Interp),
    ];
    let mut rng = Rng(0x0B51D1A);
    let mut lagoon = Lagoon::new();
    let mut errors = 0;
    for program in 0..programs {
        if program % 32 == 31 {
            // bound the world's growth at high LAGOON_FUZZ_N
            lagoon = Lagoon::new();
        }
        let (typed, untyped) = arb_program(&mut rng);
        lagoon.add_module("u", &format!("#lang lagoon\n{untyped}"));
        lagoon.add_module("n", &format!("#lang typed/no-opt\n{typed}"));
        lagoon.add_module("t", &format!("#lang typed/lagoon\n{typed}"));
        let fs: Vec<_> = configs
            .iter()
            .map(|(label, module, engine)| {
                lagoon
                    .exported(module, "f", *engine)
                    .unwrap_or_else(|e| panic!("{label}: {e}\n{typed}"))
            })
            .collect();
        for x in EDGE_X {
            for y in EDGE_Y {
                let args = [lagoon::Value::Int(x), lagoon::Value::Float(y)];
                let outcomes: Vec<String> = configs
                    .iter()
                    .zip(&fs)
                    .map(|((_, _, engine), f)| {
                        let result = match engine {
                            EngineKind::Vm => lagoon_vm::Vm.apply(f, &args),
                            EngineKind::Interp => lagoon_vm::Interp.apply(f, &args),
                        };
                        match result {
                            Ok(v) => v.write_string(),
                            Err(e) => {
                                errors += 1;
                                format!("error {:?}: {}", e.kind, e.message)
                            }
                        }
                    })
                    .collect();
                for ((label, _, _), outcome) in configs.iter().zip(&outcomes).skip(1) {
                    assert_eq!(
                        outcome, &outcomes[0],
                        "{label} differs from vm on (f {x} {y:?}):\n{typed}"
                    );
                }
            }
        }
    }
    // the table must reach the error paths too, or it proves less
    assert!(errors > 0, "no generated program raised an error");
}

/// Hygiene under adversarial user variable names: a macro-introduced
/// temporary never captures user bindings, whatever they're called.
#[test]
fn hygiene_survives_any_names() {
    let mut rng = Rng(0x416E);
    let mut tried = 0;
    while tried < 32 {
        let len = 1 + rng.below(6);
        let name: String = (0..len)
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        if matches!(
            name.as_str(),
            "if" | "let"
                | "set"
                | "define"
                | "swap"
                | "a"
                | "b"
                | "tmp"
                | "t"
                | "x"
                | "y"
                | "begin"
                | "quote"
                | "lambda"
                | "cond"
                | "case"
                | "when"
                | "unless"
                | "and"
                | "or"
                | "else"
                | "map"
                | "list"
                | "cons"
                | "car"
                | "cdr"
                | "not"
                | "void"
                | "min"
                | "max"
                | "abs"
                | "sqrt"
                | "sin"
                | "cos"
                | "tan"
                | "log"
                | "exp"
                | "sum"
                | "iota"
                | "range"
                | "rest"
                | "first"
                | "last"
                | "error"
                | "sub"
        ) {
            continue;
        }
        tried += 1;
        let lagoon = Lagoon::new();
        lagoon.add_module(
            "hygiene",
            &format!(
                "#lang lagoon
(define-syntax swap!
  (syntax-rules ()
    [(_ a b) (let ([tmp a]) (set! a b) (set! b tmp))]))
(define tmp 1)
(define {name} 2)
(swap! tmp {name})
(list tmp {name})"
            ),
        );
        let v = lagoon.run("hygiene", EngineKind::Vm).unwrap();
        assert_eq!(v.to_string(), "(2 1)", "name: {name}");
    }
}

/// Contracts are complete mediators: for any generated integer value,
/// a typed (Integer -> Integer) export accepts integers from untyped
/// clients and rejects every non-integer first-order value.
#[test]
fn contract_boundary_is_sound() {
    let mut rng = Rng(0xC0117AC7);
    for _ in 0..32 {
        let n = rng.int(-1000, 1000);
        let bad_len = rng.below(9);
        let bad: String = (0..bad_len)
            .map(|_| {
                let cs = b"abcdefghijklmnopqrstuvwxyz ";
                cs[rng.below(cs.len())] as char
            })
            .collect();
        let lagoon = Lagoon::new();
        lagoon.add_module(
            "server",
            "#lang typed/lagoon
             (: inc : Integer -> Integer)
             (define (inc x) (+ x 1))
             (provide inc)",
        );
        lagoon.add_module(
            "ok",
            &format!("#lang lagoon\n(require server)\n(inc {n})\n"),
        );
        let v = lagoon.run("ok", EngineKind::Vm).unwrap();
        assert_eq!(v.to_string(), (n + 1).to_string());

        lagoon.add_module(
            "bad",
            &format!("#lang lagoon\n(require server)\n(inc {:?})\n", bad),
        );
        let err = lagoon.run("bad", EngineKind::Vm).unwrap_err();
        let is_contract = matches!(err.kind, lagoon::Kind::Contract { .. });
        assert!(is_contract, "expected contract violation, got {err}");
    }
}
