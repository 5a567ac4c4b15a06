//! # lagoon-optimizer
//!
//! The type-driven optimizer of *Languages as Libraries* §7, as a
//! library: a source-to-source rewriting pass over fully-expanded,
//! typechecked core forms. It reads the `type` properties the checker
//! attached and rewrites generic operations to the `unsafe-*`
//! type-specialized primitives — which the bytecode backend compiles to
//! dedicated no-dispatch instructions (“they also serve as signals to the
//! code generator”, §7.1).
//!
//! Transformations (paper §7.2's catalogue):
//!
//! * **float specialization** — `(+ e1 e2)` with both operands `Float`
//!   becomes `(unsafe-fl+ e1 e2)` (the paper's figure 5), likewise
//!   `- * / < <= > >= = min max abs sqrt sin cos log exp add1 sub1 zero?`;
//!   `Integer` literals mixed into float arithmetic are promoted at
//!   compile time, and `Integer` expressions via `unsafe-fx->fl`;
//! * **float-complex specialization** — arithmetic and `magnitude` on
//!   `Float-Complex` operands use the fused pairwise `unsafe-fc*`
//!   operations (the arity-raised representation of §7.2);
//! * **fixnum comparisons** — `Integer` comparisons become `unsafe-fx<`
//!   etc. (arithmetic is *not* specialized: Lagoon integers are
//!   overflow-checked, and wrapping would change semantics);
//! * **tag-check elimination** — `car`/`cdr`/`first`/`rest`/`second`/
//!   `third` on operands statically known to be pairs (`List`/`Pairof`
//!   types, not possibly-empty `Listof`) become `unsafe-car`/`unsafe-cdr`
//!   chains (§3.2's `first` example).
//!
//! Use [`register_typed_languages`] to install both the optimizing and
//! non-optimizing typed languages in a registry.

#![warn(missing_docs)]

use lagoon_core::build::{self, id};
use lagoon_core::ModuleRegistry;
use lagoon_runtime::RtError;
use lagoon_syntax::{Datum, PropValue, Span, Symbol, SynData, Syntax};
use lagoon_typed::check::prop_type;
use lagoon_typed::{Tcx, Type};
use std::rc::Rc;

/// The per-expression optimization context: which module is being
/// optimized (for attributing diagnostics) and which rewrite families are
/// enabled.
struct Ctx {
    module: Symbol,
    options: Options,
}

/// Records an applied rewrite of `op` at `span` in the decision log.
fn applied(ctx: &Ctx, family: &'static str, op: Symbol, rule: &'static str, span: Span) {
    lagoon_diag::rewrite(ctx.module, family, op, rule, span);
}

/// Records a near-miss: a site that matched a rewrite's shape but was
/// blocked, with the reason. Callers build the reason only when a
/// recorder is installed.
fn near_miss(ctx: &Ctx, family: &'static str, op: Symbol, span: Span, reason: String) {
    lagoon_diag::near_miss(ctx.module, family, op, span, reason);
}

/// The operand's static type rendered for near-miss reasons.
fn type_name(stx: &Syntax) -> String {
    type_of(stx)
        .map(|t| t.to_string())
        .unwrap_or_else(|| "an unannotated type".to_string())
}

/// The computed type the checker attached to an expression, if any.
pub fn type_of(stx: &Syntax) -> Option<Type> {
    match stx.property(prop_type())? {
        PropValue::Datum(d) => Type::from_datum(d).ok(),
        PropValue::Syntax(s) => Type::parse(s).ok(),
    }
}

fn is_float(stx: &Syntax) -> bool {
    matches!(type_of(stx), Some(Type::Float))
}

fn is_int(stx: &Syntax) -> bool {
    matches!(type_of(stx), Some(Type::Integer))
}

fn is_complex(stx: &Syntax) -> bool {
    matches!(type_of(stx), Some(Type::FloatComplex))
}

/// Statically known to be a pair (so `unsafe-car` is safe): fixed-length
/// non-empty lists and pairs, but *not* possibly-empty `Listof`.
fn is_known_pair(stx: &Syntax) -> bool {
    match type_of(stx) {
        Some(Type::Pairof(_, _)) => true,
        Some(Type::List(ts)) => !ts.is_empty(),
        _ => false,
    }
}

fn int_literal(stx: &Syntax) -> Option<i64> {
    match stx.e() {
        SynData::Atom(Datum::Int(n)) => Some(*n),
        SynData::List(items)
            if items.len() == 2 && items[0].sym() == Some(Symbol::intern("quote")) =>
        {
            match items[1].e() {
                SynData::Atom(Datum::Int(n)) => Some(*n),
                _ => None,
            }
        }
        _ => None,
    }
}

fn float_literal_stx(x: f64) -> Syntax {
    build::lst(vec![
        id("quote"),
        Syntax::atom(Datum::Float(x), lagoon_syntax::Span::synthetic()),
    ])
    .with_property(prop_type(), PropValue::Datum(Type::Float.to_datum()))
}

/// Coerces an argument of float arithmetic to a `Float`-typed expression:
/// integer literals become float literals; `Integer` expressions go
/// through `unsafe-fx->fl`; `Float` expressions pass through.
fn coerce_to_float(stx: &Syntax) -> Option<Syntax> {
    if is_float(stx) {
        return Some(stx.clone());
    }
    if let Some(n) = int_literal(stx) {
        return Some(float_literal_stx(n as f64));
    }
    if is_int(stx) {
        return Some(
            build::app(id("unsafe-fx->fl"), vec![stx.clone()])
                .with_property(prop_type(), PropValue::Datum(Type::Float.to_datum())),
        );
    }
    None
}

/// Coerces an argument of float-complex arithmetic to `Float-Complex`.
fn coerce_to_complex(stx: &Syntax) -> Option<Syntax> {
    if is_complex(stx) {
        return Some(stx.clone());
    }
    if let Some(n) = int_literal(stx) {
        return Some(build::lst(vec![
            id("quote"),
            Syntax::atom(
                Datum::Complex(n as f64, 0.0),
                lagoon_syntax::Span::synthetic(),
            ),
        ]));
    }
    if let SynData::List(items) = stx.e() {
        if items.len() == 2 && items[0].sym() == Some(Symbol::intern("quote")) {
            if let SynData::Atom(Datum::Float(x)) = items[1].e() {
                return Some(build::lst(vec![
                    id("quote"),
                    Syntax::atom(Datum::Complex(*x, 0.0), lagoon_syntax::Span::synthetic()),
                ]));
            }
        }
    }
    if is_float(stx) || is_int(stx) {
        let as_float = coerce_to_float(stx)?;
        return Some(build::app(
            id("make-rectangular"),
            vec![as_float, float_literal_stx(0.0)],
        ));
    }
    None
}

fn strip_rename(sym: Symbol) -> String {
    sym.with_str(|s| lagoon_syntax::strip_gensym(s).to_string())
}

const FL_BINOPS: &[(&str, &str)] = &[
    ("+", "unsafe-fl+"),
    ("-", "unsafe-fl-"),
    ("*", "unsafe-fl*"),
    ("/", "unsafe-fl/"),
    ("<", "unsafe-fl<"),
    ("<=", "unsafe-fl<="),
    (">", "unsafe-fl>"),
    (">=", "unsafe-fl>="),
    ("=", "unsafe-fl="),
    ("min", "unsafe-flmin"),
    ("max", "unsafe-flmax"),
];

const FL_UNOPS: &[(&str, &str)] = &[
    ("abs", "unsafe-flabs"),
    ("sqrt", "unsafe-flsqrt"),
    ("sin", "unsafe-flsin"),
    ("cos", "unsafe-flcos"),
    ("atan", "unsafe-flatan"),
    ("log", "unsafe-fllog"),
    ("exp", "unsafe-flexp"),
    ("floor", "unsafe-flfloor"),
];

const FX_CMPS: &[(&str, &str)] = &[
    ("<", "unsafe-fx<"),
    ("<=", "unsafe-fx<="),
    (">", "unsafe-fx>"),
    (">=", "unsafe-fx>="),
    ("=", "unsafe-fx="),
];

const FC_BINOPS: &[(&str, &str)] = &[
    ("+", "unsafe-fc+"),
    ("-", "unsafe-fc-"),
    ("*", "unsafe-fc*"),
    ("/", "unsafe-fc/"),
];

/// Which rewrite families the optimizer applies — each corresponds to one
/// of the paper §7.2 transformation classes, so ablation benches can
/// attribute the speedup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Options {
    /// Float specialization (figure 5).
    pub floats: bool,
    /// Float-complex specialization / arity raising.
    pub complexes: bool,
    /// Fixnum comparison specialization.
    pub fixnums: bool,
    /// Tag-check elimination on pairs (`car`/`first`/…).
    pub pairs: bool,
}

impl Options {
    /// Everything on — the paper's configuration.
    pub fn full() -> Options {
        Options {
            floats: true,
            complexes: true,
            fixnums: true,
            pairs: true,
        }
    }

    /// Everything off (a no-op optimizer, for sanity checks).
    pub fn none() -> Options {
        Options {
            floats: false,
            complexes: false,
            fixnums: false,
            pairs: false,
        }
    }
}

impl Default for Options {
    fn default() -> Options {
        Options::full()
    }
}

/// Generic arithmetic that stays generic on `Integer` operands: Lagoon
/// integers are overflow-checked, so wrapping `unsafe-fx` arithmetic
/// would change semantics (only *comparisons* are fixnum-specialized).
const INT_ARITH: &[&str] = &["+", "-", "*", "/", "min", "max"];

/// Rewrites one application whose operands have already been optimized.
/// Returns `None` if no specialization applies; `span` is the original
/// application's source location, attached to logged decisions.
fn specialize_app(op: Symbol, args: &[Syntax], span: Span, ctx: &Ctx) -> Option<Syntax> {
    let op_name = strip_rename(op);
    let op_name = op_name.as_str();
    let options = &ctx.options;
    let diag = lagoon_diag::enabled();
    // float binary ops: both operands coercible to Float, at least one
    // actually Float (otherwise leave integer arithmetic alone)
    if args.len() == 2 {
        if let Some((_, unsafe_op)) = FL_BINOPS.iter().find(|(g, _)| *g == op_name) {
            if options.floats
                && (is_float(&args[0]) || is_float(&args[1]))
                && !is_complex(&args[0])
                && !is_complex(&args[1])
            {
                match (coerce_to_float(&args[0]), coerce_to_float(&args[1])) {
                    (Some(a), Some(b)) => {
                        applied(ctx, "float", op, unsafe_op, span);
                        return Some(build::app(id(unsafe_op), vec![a, b]));
                    }
                    (a, _) => {
                        if diag {
                            let bad = if a.is_none() { &args[0] } else { &args[1] };
                            near_miss(
                                ctx,
                                "float",
                                op,
                                span,
                                format!(
                                    "mixed operands: one side has static type {}, \
                                     which cannot be coerced to Float",
                                    type_name(bad)
                                ),
                            );
                        }
                    }
                }
            }
        }
        if let Some((_, unsafe_op)) = FC_BINOPS.iter().find(|(g, _)| *g == op_name) {
            if options.complexes && (is_complex(&args[0]) || is_complex(&args[1])) {
                match (coerce_to_complex(&args[0]), coerce_to_complex(&args[1])) {
                    (Some(a), Some(b)) => {
                        applied(ctx, "float-complex", op, unsafe_op, span);
                        return Some(build::app(id(unsafe_op), vec![a, b]));
                    }
                    (a, _) => {
                        if diag {
                            let bad = if a.is_none() { &args[0] } else { &args[1] };
                            near_miss(
                                ctx,
                                "float-complex",
                                op,
                                span,
                                format!(
                                    "mixed operands: one side has static type {}, \
                                     which cannot be coerced to Float-Complex",
                                    type_name(bad)
                                ),
                            );
                        }
                    }
                }
            }
        }
        if let Some((_, unsafe_op)) = FX_CMPS.iter().find(|(g, _)| *g == op_name) {
            if options.fixnums {
                if is_int(&args[0]) && is_int(&args[1]) {
                    applied(ctx, "fixnum", op, unsafe_op, span);
                    return Some(build::app(
                        id(unsafe_op),
                        vec![args[0].clone(), args[1].clone()],
                    ));
                }
                // one known-Integer side against a wider type, and the
                // float family above didn't already claim the site
                if diag
                    && (is_int(&args[0]) ^ is_int(&args[1]))
                    && !is_float(&args[0])
                    && !is_float(&args[1])
                {
                    let other = if is_int(&args[0]) { &args[1] } else { &args[0] };
                    near_miss(
                        ctx,
                        "fixnum",
                        op,
                        span,
                        format!(
                            "mixed operands: one side has static type {}, not Integer",
                            type_name(other)
                        ),
                    );
                }
            }
        }
        if diag
            && options.fixnums
            && INT_ARITH.contains(&op_name)
            && is_int(&args[0])
            && is_int(&args[1])
        {
            near_miss(
                ctx,
                "fixnum",
                op,
                span,
                "Integer arithmetic is overflow-checked; wrapping unsafe-fx \
                 arithmetic would change semantics (comparisons do specialize)"
                    .to_string(),
            );
        }
    }
    if args.len() == 1 {
        let a = &args[0];
        if let Some((_, unsafe_op)) = FL_UNOPS.iter().find(|(g, _)| *g == op_name) {
            if options.floats && is_float(a) {
                applied(ctx, "float", op, unsafe_op, span);
                return Some(build::app(id(unsafe_op), vec![a.clone()]));
            }
        }
        match op_name {
            "add1" if options.floats && is_float(a) => {
                applied(ctx, "float", op, "unsafe-fl+", span);
                return Some(build::app(
                    id("unsafe-fl+"),
                    vec![a.clone(), float_literal_stx(1.0)],
                ));
            }
            "sub1" if options.floats && is_float(a) => {
                applied(ctx, "float", op, "unsafe-fl-", span);
                return Some(build::app(
                    id("unsafe-fl-"),
                    vec![a.clone(), float_literal_stx(1.0)],
                ));
            }
            "zero?" if options.floats && is_float(a) => {
                applied(ctx, "float", op, "unsafe-fl=", span);
                return Some(build::app(
                    id("unsafe-fl="),
                    vec![a.clone(), float_literal_stx(0.0)],
                ));
            }
            "zero?" if options.fixnums && is_int(a) => {
                applied(ctx, "fixnum", op, "unsafe-fx=", span);
                return Some(build::app(
                    id("unsafe-fx="),
                    vec![a.clone(), build::lst(vec![id("quote"), build::int(0)])],
                ));
            }
            "magnitude" if options.complexes && is_complex(a) => {
                applied(ctx, "float-complex", op, "unsafe-fcmagnitude", span);
                return Some(build::app(id("unsafe-fcmagnitude"), vec![a.clone()]));
            }
            "exact->inexact" if options.floats && is_int(a) => {
                applied(ctx, "float", op, "unsafe-fx->fl", span);
                return Some(build::app(id("unsafe-fx->fl"), vec![a.clone()]));
            }
            "car" | "first" if options.pairs && is_known_pair(a) => {
                applied(ctx, "pairs", op, "unsafe-car", span);
                return Some(build::app(id("unsafe-car"), vec![a.clone()]));
            }
            "cdr" | "rest" if options.pairs && is_known_pair(a) => {
                applied(ctx, "pairs", op, "unsafe-cdr", span);
                return Some(build::app(id("unsafe-cdr"), vec![a.clone()]));
            }
            "second" | "cadr" if options.pairs && is_known_pair(a) && pair_depth(a) >= 2 => {
                applied(ctx, "pairs", op, "unsafe-car", span);
                let cdr = build::app(id("unsafe-cdr"), vec![a.clone()]);
                return Some(build::app(id("unsafe-car"), vec![cdr]));
            }
            "third" | "caddr" if options.pairs && is_known_pair(a) && pair_depth(a) >= 3 => {
                applied(ctx, "pairs", op, "unsafe-car", span);
                let cdr = build::app(id("unsafe-cdr"), vec![a.clone()]);
                let cddr = build::app(id("unsafe-cdr"), vec![cdr]);
                return Some(build::app(id("unsafe-car"), vec![cddr]));
            }
            "car" | "first" | "cdr" | "rest"
                if diag && options.pairs && matches!(type_of(a), Some(Type::Listof(_))) =>
            {
                near_miss(
                    ctx,
                    "pairs",
                    op,
                    span,
                    format!(
                        "operand has possibly-empty static type {}; the pair \
                         tag check cannot be dropped",
                        type_name(a)
                    ),
                );
            }
            "second" | "cadr" | "third" | "caddr" if diag && options.pairs && is_known_pair(a) => {
                near_miss(
                    ctx,
                    "pairs",
                    op,
                    span,
                    format!(
                        "known list prefix of {} is too short for {op_name}",
                        type_name(a)
                    ),
                );
            }
            _ => {}
        }
    }
    None
}

/// Known fixed-prefix length of the operand's list type.
fn pair_depth(stx: &Syntax) -> usize {
    match type_of(stx) {
        Some(Type::List(ts)) => ts.len(),
        Some(Type::Pairof(_, b)) => 1 + pair_depth_ty(&b),
        _ => 0,
    }
}

fn pair_depth_ty(t: &Type) -> usize {
    match t {
        Type::List(ts) => ts.len(),
        Type::Pairof(_, b) => 1 + pair_depth_ty(b),
        _ => 0,
    }
}

/// Optimizes one fully-expanded, type-annotated core form (the paper's
/// figure 5, generalized). Recurs structurally; the output is still a
/// valid core form with type properties preserved where unchanged.
///
/// # Errors
///
/// Returns an error only on malformed core syntax (an internal bug).
pub fn optimize(tcx: &Tcx, stx: &Syntax) -> Result<Syntax, RtError> {
    let ctx = Ctx {
        module: tcx.exp.module_name,
        options: Options::full(),
    };
    optimize_expr(stx, &ctx)
}

/// Like [`optimize`] but with a configurable rewrite-family selection —
/// the ablation hook.
pub fn optimize_with(options: Options) -> std::rc::Rc<lagoon_typed::OptimizeFn> {
    Rc::new(move |tcx: &Tcx, stx: &Syntax| {
        let ctx = Ctx {
            module: tcx.exp.module_name,
            options,
        };
        optimize_expr(stx, &ctx)
    })
}

fn optimize_expr(stx: &Syntax, ctx: &Ctx) -> Result<Syntax, RtError> {
    let Some(items) = stx.as_list() else {
        return Ok(stx.clone());
    };
    let Some(head) = items.first().and_then(Syntax::sym) else {
        return Ok(stx.clone());
    };
    let items = items.to_vec();
    let rebuilt = |new_items: Vec<Syntax>| stx.with_data(SynData::List(new_items));
    head.with_str(|head| match head {
        "quote" | "quote-syntax" => Ok(stx.clone()),
        "if" | "begin" | "set!" => {
            let mut out = vec![items[0].clone()];
            // set! keeps its target identifier untouched
            let start = if head == "set!" {
                out.push(items[1].clone());
                2
            } else {
                1
            };
            for e in &items[start..] {
                out.push(optimize_expr(e, ctx)?);
            }
            Ok(rebuilt(out))
        }
        "#%plain-lambda" => {
            let mut out = vec![items[0].clone(), items[1].clone()];
            for e in &items[2..] {
                out.push(optimize_expr(e, ctx)?);
            }
            Ok(rebuilt(out))
        }
        "let-values" | "letrec-values" => {
            let clauses = items[1]
                .as_list()
                .map(|cs| {
                    cs.iter()
                        .map(|clause| {
                            let parts = clause.as_list().unwrap();
                            Ok(clause.with_data(SynData::List(vec![
                                parts[0].clone(),
                                optimize_expr(&parts[1], ctx)?,
                            ])))
                        })
                        .collect::<Result<Vec<_>, RtError>>()
                })
                .transpose()?
                .unwrap_or_default();
            let mut out = vec![items[0].clone(), items[1].with_data(SynData::List(clauses))];
            for e in &items[2..] {
                out.push(optimize_expr(e, ctx)?);
            }
            Ok(rebuilt(out))
        }
        "define-values" => {
            let mut out = vec![items[0].clone(), items[1].clone()];
            out.push(optimize_expr(&items[2], ctx)?);
            Ok(rebuilt(out))
        }
        "#%plain-app" => {
            let op = &items[1];
            let args = items[2..]
                .iter()
                .map(|a| optimize_expr(a, ctx))
                .collect::<Result<Vec<_>, _>>()?;
            if let Some(op_sym) = op.sym() {
                if let Some(specialized) = specialize_app(op_sym, &args, stx.span(), ctx) {
                    // keep the application's computed type annotation
                    return Ok(specialized.copy_properties_from(stx));
                }
            }
            let mut out = vec![items[0].clone(), optimize_expr(op, ctx)?];
            out.extend(args);
            Ok(rebuilt(out))
        }
        _ => Ok(stx.clone()),
    })
}

/// Registers typed languages in `registry`:
///
/// * `typed/lagoon` — typechecked **and** optimized (the paper's Typed
///   Racket configuration);
/// * `typed/no-opt` — typechecked only (the ablation baseline).
pub fn register_typed_languages(registry: &Rc<ModuleRegistry>) {
    lagoon_typed::register(registry, "typed/lagoon", Some(Rc::new(optimize)));
    lagoon_typed::register(registry, "typed/no-opt", None);
}

/// Registers one ablation language per rewrite family: each
/// `typed/only-<family>` applies exactly that family, so the ablation
/// bench can attribute the optimizer's speedup (DESIGN.md's ablation
/// study).
pub fn register_ablation_languages(registry: &Rc<ModuleRegistry>) {
    let families: [(&str, Options); 4] = [
        (
            "typed/only-floats",
            Options {
                floats: true,
                ..Options::none()
            },
        ),
        (
            "typed/only-complexes",
            Options {
                complexes: true,
                ..Options::none()
            },
        ),
        (
            "typed/only-fixnums",
            Options {
                fixnums: true,
                ..Options::none()
            },
        ),
        (
            "typed/only-pairs",
            Options {
                pairs: true,
                ..Options::none()
            },
        ),
    ];
    for (name, options) in families {
        lagoon_typed::register(registry, name, Some(optimize_with(options)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagoon_core::{EngineKind, ModuleRegistry};
    use lagoon_runtime::Value;

    fn registry() -> Rc<ModuleRegistry> {
        let reg = ModuleRegistry::new();
        register_typed_languages(&reg);
        reg
    }

    fn run(src: &str) -> Value {
        let reg = registry();
        reg.add_module("main", src);
        reg.run("main", EngineKind::Vm).unwrap()
    }

    fn expanded(src: &str) -> String {
        let reg = registry();
        reg.add_module("main", src);
        reg.expanded_body("main")
            .unwrap()
            .iter()
            .map(|s| s.to_datum().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn float_addition_specializes() {
        // the paper's figure 5 rewrite
        let out = expanded(
            "#lang typed/lagoon
             (define: (f [x : Float] [y : Float]) : Float (+ x y))",
        );
        assert!(out.contains("unsafe-fl+"), "no rewrite in: {out}");
    }

    #[test]
    fn integer_arithmetic_is_untouched() {
        let out = expanded(
            "#lang typed/lagoon
             (define: (f [x : Integer] [y : Integer]) : Integer (+ x y))",
        );
        assert!(
            !out.contains("unsafe-fx+"),
            "unsafe integer arith in: {out}"
        );
        assert!(!out.contains("unsafe-fl+"), "float rewrite in: {out}");
    }

    #[test]
    fn integer_comparisons_specialize() {
        let out = expanded(
            "#lang typed/lagoon
             (define: (f [x : Integer]) : Boolean (< x 10))",
        );
        assert!(out.contains("unsafe-fx<"), "no rewrite in: {out}");
    }

    #[test]
    fn mixed_literal_promotes() {
        let out = expanded(
            "#lang typed/lagoon
             (define: (f [x : Float]) : Float (* 2 x))",
        );
        assert!(out.contains("unsafe-fl*"), "no rewrite in: {out}");
        assert!(out.contains("2.0"), "literal not promoted in: {out}");
    }

    #[test]
    fn complex_arithmetic_specializes() {
        let out = expanded(
            "#lang typed/lagoon
             (define: (f [z : Float-Complex]) : Float-Complex (* z 2.0+2.0i))",
        );
        assert!(out.contains("unsafe-fc*"), "no rewrite in: {out}");
    }

    #[test]
    fn magnitude_specializes() {
        let out = expanded(
            "#lang typed/lagoon
             (define: (f [z : Float-Complex]) : Float (magnitude z))",
        );
        assert!(out.contains("unsafe-fcmagnitude"), "no rewrite in: {out}");
    }

    #[test]
    fn first_on_fixed_list_specializes() {
        // paper §3.2: "this program need not check that the argument to
        // first is a pair"
        let out = expanded(
            "#lang typed/lagoon
             (define: p : (List Number Number Number) (list 1 2 3))
             (first p)",
        );
        assert!(out.contains("unsafe-car"), "no rewrite in: {out}");
    }

    #[test]
    fn car_on_possibly_empty_list_is_untouched() {
        let out = expanded(
            "#lang typed/lagoon
             (define: (f [l : (Listof Integer)]) : Integer (car l))",
        );
        assert!(!out.contains("unsafe-car"), "unsound rewrite in: {out}");
    }

    #[test]
    fn no_opt_language_skips_rewrites() {
        let reg = registry();
        reg.add_module(
            "main",
            "#lang typed/no-opt
             (define: (f [x : Float] [y : Float]) : Float (+ x y))",
        );
        let out = reg
            .expanded_body("main")
            .unwrap()
            .iter()
            .map(|s| s.to_datum().to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(!out.contains("unsafe-fl+"), "no-opt rewrote: {out}");
    }

    #[test]
    fn optimized_programs_compute_the_same_results() {
        let v = run("#lang typed/lagoon
             (define: (norm [x : Float] [y : Float]) : Float
               (sqrt (+ (* x x) (* y y))))
             (norm 3.0 4.0)");
        assert_eq!(v.as_float(), Some(5.0));

        // the paper §3.2 Float-Complex loop
        let v = run("#lang typed/lagoon
             (define: (count [f : Float-Complex]) : Integer
               (let: loop : Integer ([f : Float-Complex f])
                 (if (< (magnitude f) 0.001)
                     0
                     (add1 (loop (/ f 2.0+2.0i))))))
             (count 8.0+8.0i)");
        assert!(v.as_int().is_some_and(|n| n > 5));
    }

    #[test]
    fn optimized_and_unoptimized_agree() {
        let src_body = "(define: (poly [x : Float]) : Float
               (+ (* 3.0 (* x x)) (+ (* 2.0 x) 1.0)))
             (define: (go [i : Integer] [acc : Float]) : Float
               (if (= i 0) acc (go (- i 1) (+ acc (poly (exact->inexact i))))))
             (go 50 0.0)";
        let opt = run(&format!("#lang typed/lagoon\n{src_body}"));
        let reg = registry();
        reg.add_module("main", &format!("#lang typed/no-opt\n{src_body}"));
        let unopt = reg.run("main", EngineKind::Vm).unwrap();
        assert!(opt.equal(&unopt), "opt={opt} unopt={unopt}");
    }

    #[test]
    fn bench_shape_float_kernel_faster_optimized() {
        // a smoke check of the performance channel (full benchmarks live
        // in lagoon-bench): the optimized kernel must not be slower
        let body = "(define: (go [i : Integer] [acc : Float]) : Float
               (if (= i 0) acc (go (- i 1) (sqrt (+ (* acc acc) 1.0)))))
             (go 20000 1.0)";
        let reg = registry();
        reg.add_module("opt", &format!("#lang typed/lagoon\n{body}"));
        reg.add_module("unopt", &format!("#lang typed/no-opt\n{body}"));
        // warm both
        reg.run("opt", EngineKind::Vm).unwrap();
        reg.run("unopt", EngineKind::Vm).unwrap();
        // compiled code differs
        let opt_code = reg.expanded_body("opt").unwrap();
        let unopt_code = reg.expanded_body("unopt").unwrap();
        let opt_str: String = opt_code.iter().map(|s| s.to_string()).collect();
        let unopt_str: String = unopt_code.iter().map(|s| s.to_string()).collect();
        assert!(opt_str.contains("unsafe-fl"));
        assert!(!unopt_str.contains("unsafe-fl"));
    }
}

#[cfg(test)]
mod decision_log_tests {
    use super::*;
    use lagoon_core::ModuleRegistry;
    use lagoon_diag::{Collector, Report};

    /// Expands `src` as module `main` with a recorder installed and
    /// returns the recorded report.
    fn report_for(src: &str) -> Report {
        let reg = ModuleRegistry::new();
        register_typed_languages(&reg);
        reg.add_module("main", src);
        let collector = Collector::install();
        let result = reg.expanded_body("main");
        lagoon_diag::uninstall();
        result.unwrap();
        collector.report()
    }

    fn rewrites(report: &Report) -> Vec<(&'static str, String, String, u32)> {
        report
            .rewrites
            .iter()
            .map(|r| (r.family, r.op.clone(), r.rule.clone(), r.line))
            .collect()
    }

    fn near_misses(report: &Report) -> Vec<(&'static str, String, String, u32)> {
        report
            .near_misses
            .iter()
            .map(|n| (n.family, n.op.clone(), n.reason.clone(), n.line))
            .collect()
    }

    #[test]
    fn float_rewrite_logs_one_event_with_span() {
        let events =
            report_for("#lang typed/lagoon\n(define: (f [x : Float] [y : Float]) : Float (+ x y))");
        let rs = rewrites(&events);
        assert_eq!(rs.len(), 1, "expected exactly one rewrite: {rs:?}");
        let (family, op, rule, line) = &rs[0];
        assert_eq!(*family, "float");
        assert_eq!(op, "+");
        assert_eq!(rule, "unsafe-fl+");
        assert_eq!(*line, 2, "span should point at the source line");
    }

    #[test]
    fn fixnum_comparison_logs_one_event() {
        let events =
            report_for("#lang typed/lagoon\n(define: (f [x : Integer]) : Boolean (< x 10))");
        let rs = rewrites(&events);
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].0, "fixnum");
        assert_eq!(rs[0].2, "unsafe-fx<");
        assert_eq!(rs[0].3, 2);
    }

    #[test]
    fn float_complex_rewrite_logs_one_event() {
        let events = report_for(
            "#lang typed/lagoon\n(define: (f [z : Float-Complex]) : Float-Complex (* z 2.0+2.0i))",
        );
        let rs = rewrites(&events);
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].0, "float-complex");
        assert_eq!(rs[0].2, "unsafe-fc*");
        assert_eq!(rs[0].3, 2);
    }

    #[test]
    fn tag_check_elimination_logs_one_event() {
        let events = report_for(
            "#lang typed/lagoon\n(define: (f [p : (List Integer Integer)]) : Integer (first p))",
        );
        let rs = rewrites(&events);
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].0, "pairs");
        assert_eq!(rs[0].2, "unsafe-car");
        assert_eq!(rs[0].3, 2);
    }

    #[test]
    fn mixed_type_arithmetic_logs_a_near_miss_with_reason() {
        let events = report_for(
            "#lang typed/lagoon\n(define: (f [x : Float] [y : Number]) : Number (+ x y))",
        );
        assert!(rewrites(&events).is_empty());
        let ns = near_misses(&events);
        assert_eq!(ns.len(), 1, "{ns:?}");
        let (family, op, reason, line) = &ns[0];
        assert_eq!(*family, "float");
        assert_eq!(op, "+");
        assert!(
            reason.contains("Number"),
            "reason should name the type: {reason}"
        );
        assert_eq!(*line, 2);
    }

    #[test]
    fn possibly_empty_listof_logs_a_near_miss() {
        let events = report_for(
            "#lang typed/lagoon\n(define: (f [l : (Listof Integer)]) : Integer (car l))",
        );
        assert!(rewrites(&events).is_empty());
        let ns = near_misses(&events);
        assert_eq!(ns.len(), 1, "{ns:?}");
        assert_eq!(ns[0].0, "pairs");
        assert!(ns[0].2.contains("Listof"), "{}", ns[0].2);
    }

    #[test]
    fn integer_arithmetic_logs_overflow_near_miss() {
        let events = report_for(
            "#lang typed/lagoon\n(define: (f [x : Integer] [y : Integer]) : Integer (+ x y))",
        );
        assert!(rewrites(&events).is_empty());
        let ns = near_misses(&events);
        assert_eq!(ns.len(), 1, "{ns:?}");
        assert_eq!(ns[0].0, "fixnum");
        assert!(ns[0].2.contains("overflow"), "{}", ns[0].2);
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use lagoon_core::ModuleRegistry;

    fn expanded_under(lang: &str, body: &str) -> String {
        let reg = ModuleRegistry::new();
        register_typed_languages(&reg);
        register_ablation_languages(&reg);
        reg.add_module("main", &format!("#lang {lang}\n{body}"));
        reg.expanded_body("main")
            .unwrap()
            .iter()
            .map(|s| s.to_datum().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    const MIXED: &str = "(: f : Float Integer (List Integer Integer) -> Float)
(define (f x i l)
  (if (and (< i 10) (< (first l) 5))
      (* x 2.0)
      x))
(f 1.0 3 (list 1 2))";

    #[test]
    fn only_floats_restricts_to_float_rewrites() {
        let out = expanded_under("typed/only-floats", MIXED);
        assert!(out.contains("unsafe-fl*"), "{out}");
        assert!(!out.contains("unsafe-fx<"), "{out}");
        assert!(!out.contains("unsafe-car"), "{out}");
    }

    #[test]
    fn only_fixnums_restricts_to_comparison_rewrites() {
        let out = expanded_under("typed/only-fixnums", MIXED);
        assert!(out.contains("unsafe-fx<"), "{out}");
        assert!(!out.contains("unsafe-fl*"), "{out}");
        assert!(!out.contains("unsafe-car"), "{out}");
    }

    #[test]
    fn only_pairs_restricts_to_tag_check_elimination() {
        let out = expanded_under("typed/only-pairs", MIXED);
        assert!(out.contains("unsafe-car"), "{out}");
        assert!(!out.contains("unsafe-fl*"), "{out}");
        assert!(!out.contains("unsafe-fx<"), "{out}");
    }

    #[test]
    fn ablation_configs_preserve_semantics() {
        let reg = ModuleRegistry::new();
        register_typed_languages(&reg);
        register_ablation_languages(&reg);
        let mut results = Vec::new();
        for lang in [
            "typed/no-opt",
            "typed/only-floats",
            "typed/only-complexes",
            "typed/only-fixnums",
            "typed/only-pairs",
            "typed/lagoon",
        ] {
            let m = format!("m-{}", lang.replace('/', "-"));
            reg.add_module(&m, &format!("#lang {lang}\n{MIXED}"));
            results.push(reg.run(&m, lagoon_core::EngineKind::Vm).unwrap());
        }
        for w in results.windows(2) {
            assert!(w[0].equal(&w[1]), "{} vs {}", w[0], w[1]);
        }
    }
}
