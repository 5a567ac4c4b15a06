//! Generic arithmetic primitives (tag-dispatching).

use super::def;
use crate::error::RtError;
use crate::number;
use crate::value::{Arity, Unpacked, Value};
use std::cmp::Ordering;

fn fold_variadic(
    name: &'static str,
    identity: Value,
    f: fn(&Value, &Value) -> Result<Value, RtError>,
) -> impl Fn(&[Value]) -> Result<Value, RtError> {
    move |args| {
        if args.is_empty() {
            return Ok(identity.clone());
        }
        let mut acc = args[0].clone();
        if args.len() == 1 && (name == "-" || name == "/") {
            // unary negation / reciprocal; `0 - x` is wrong for flonum
            // negation at the zeros (`(- 0.0)` must be `-0.0`, but
            // `0 - 0.0` is `+0.0`), so negate floats by sign flip
            if name == "-" {
                if let Some(x) = acc.as_float() {
                    return Ok(Value::Float(-x));
                }
                if let Some((re, im)) = acc.as_complex() {
                    return Ok(Value::Complex(-re, -im));
                }
            }
            return f(&identity, &acc);
        }
        for arg in &args[1..] {
            acc = f(&acc, arg)?;
        }
        Ok(acc)
    }
}

fn chain_compare(
    name: &'static str,
    ok: fn(Ordering) -> bool,
) -> impl Fn(&[Value]) -> Result<Value, RtError> {
    move |args| {
        for w in args.windows(2) {
            if !number::compare(name, &w[0], &w[1])?.is_some_and(ok) {
                return Ok(Value::Bool(false));
            }
        }
        Ok(Value::Bool(true))
    }
}

/// `min` or `max`: the argument no other one beats, or `+nan.0` when any
/// argument is NaN. Every argument is type-checked either way.
fn extremum(name: &str, args: &[Value], beats: fn(Ordering) -> bool) -> Result<Value, RtError> {
    let mut best = args[0].clone();
    let mut nan = false;
    for v in &args[1..] {
        match number::compare(name, v, &best)? {
            Some(o) if beats(o) => best = v.clone(),
            Some(_) => {}
            None => nan = true,
        }
    }
    Ok(if nan { Value::Float(f64::NAN) } else { best })
}

pub(super) fn install(out: &mut Vec<(lagoon_syntax::Symbol, Value)>) {
    def(
        out,
        "+",
        Arity::at_least(0),
        fold_variadic("+", Value::Int(0), number::add),
    );
    def(
        out,
        "-",
        Arity::at_least(1),
        fold_variadic("-", Value::Int(0), number::sub),
    );
    def(
        out,
        "*",
        Arity::at_least(0),
        fold_variadic("*", Value::Int(1), number::mul),
    );
    def(
        out,
        "/",
        Arity::at_least(1),
        fold_variadic("/", Value::Int(1), number::div),
    );

    def(
        out,
        "<",
        Arity::at_least(2),
        chain_compare("<", Ordering::is_lt),
    );
    def(
        out,
        "<=",
        Arity::at_least(2),
        chain_compare("<=", Ordering::is_le),
    );
    def(
        out,
        ">",
        Arity::at_least(2),
        chain_compare(">", Ordering::is_gt),
    );
    def(
        out,
        ">=",
        Arity::at_least(2),
        chain_compare(">=", Ordering::is_ge),
    );
    def(out, "=", Arity::at_least(2), |args| {
        for w in args.windows(2) {
            if !number::num_eq(&w[0], &w[1])? {
                return Ok(Value::Bool(false));
            }
        }
        Ok(Value::Bool(true))
    });

    def(out, "add1", Arity::exactly(1), |args| {
        number::add(&args[0], &Value::Int(1))
    });
    def(out, "sub1", Arity::exactly(1), |args| {
        number::sub(&args[0], &Value::Int(1))
    });
    def(out, "abs", Arity::exactly(1), |args| {
        if args[0].is_complex() {
            Err(RtError::type_error("abs: expected real"))
        } else {
            number::magnitude(&args[0])
        }
    });
    def(out, "magnitude", Arity::exactly(1), |args| {
        number::magnitude(&args[0])
    });
    def(out, "min", Arity::at_least(1), |args| {
        extremum("min", args, Ordering::is_lt)
    });
    def(out, "max", Arity::at_least(1), |args| {
        extremum("max", args, Ordering::is_gt)
    });

    def(out, "quotient", Arity::exactly(2), |args| {
        number::quotient(&args[0], &args[1])
    });
    def(out, "remainder", Arity::exactly(2), |args| {
        number::remainder(&args[0], &args[1])
    });
    def(out, "modulo", Arity::exactly(2), |args| {
        number::modulo(&args[0], &args[1])
    });

    def(out, "sqrt", Arity::exactly(1), |args| {
        number::sqrt(&args[0])
    });
    def(out, "expt", Arity::exactly(2), |args| {
        number::expt(&args[0], &args[1])
    });
    for op in ["sin", "cos", "tan", "asin", "acos", "log", "exp"] {
        def(out, op, Arity::exactly(1), move |args| {
            number::float_unary(op, &args[0])
        });
    }
    def(out, "atan", Arity::at_least(1), |args| match args {
        [v] => number::float_unary("atan", v),
        [y, x] => {
            let real = |v: &Value| match v.unpacked() {
                Unpacked::Int(n) => Ok(n as f64),
                Unpacked::Float(f) => Ok(f),
                _ => Err(RtError::type_error(format!("atan: expected real, got {v}"))),
            };
            Ok(Value::Float(real(y)?.atan2(real(x)?)))
        }
        _ => Err(RtError::arity("atan: expects 1 or 2 arguments")),
    });

    for op in ["floor", "ceiling", "round", "truncate"] {
        def(out, op, Arity::exactly(1), move |args| {
            number::round_family(op, &args[0])
        });
    }

    def(out, "exact->inexact", Arity::exactly(1), |args| {
        number::to_inexact(&args[0])
    });
    def(out, "exact", Arity::exactly(1), |args| {
        number::to_exact(&args[0])
    });
    def(out, "inexact->exact", Arity::exactly(1), |args| {
        number::to_exact(&args[0])
    });

    def(out, "zero?", Arity::exactly(1), |args| {
        Ok(Value::Bool(match args[0].unpacked() {
            Unpacked::Int(n) => n == 0,
            Unpacked::Float(x) => x == 0.0,
            Unpacked::Complex(re, im) => re == 0.0 && im == 0.0,
            _ => {
                return Err(RtError::type_error(format!(
                    "zero?: expected number, got {}",
                    args[0]
                )))
            }
        }))
    });
    def(out, "positive?", Arity::exactly(1), |args| {
        Ok(Value::Bool(
            number::compare("positive?", &args[0], &Value::Int(0))?.is_some_and(Ordering::is_gt),
        ))
    });
    def(out, "negative?", Arity::exactly(1), |args| {
        Ok(Value::Bool(
            number::compare("negative?", &args[0], &Value::Int(0))?.is_some_and(Ordering::is_lt),
        ))
    });
    def(out, "even?", Arity::exactly(1), |args| {
        match args[0].as_int() {
            Some(n) => Ok(Value::Bool(n % 2 == 0)),
            None => Err(RtError::type_error(format!(
                "even?: expected integer, got {}",
                args[0]
            ))),
        }
    });
    def(out, "odd?", Arity::exactly(1), |args| {
        match args[0].as_int() {
            Some(n) => Ok(Value::Bool(n % 2 != 0)),
            None => Err(RtError::type_error(format!(
                "odd?: expected integer, got {}",
                args[0]
            ))),
        }
    });

    def(out, "number?", Arity::exactly(1), |args| {
        let v = &args[0];
        Ok(Value::Bool(v.is_int() || v.is_float() || v.is_complex()))
    });
    def(out, "integer?", Arity::exactly(1), |args| {
        Ok(Value::Bool(match args[0].unpacked() {
            Unpacked::Int(_) => true,
            Unpacked::Float(x) => x.fract() == 0.0,
            _ => false,
        }))
    });
    def(out, "exact-integer?", Arity::exactly(1), |args| {
        Ok(Value::Bool(args[0].is_int()))
    });
    def(out, "flonum?", Arity::exactly(1), |args| {
        Ok(Value::Bool(args[0].is_float()))
    });
    def(out, "real?", Arity::exactly(1), |args| {
        Ok(Value::Bool(args[0].is_int() || args[0].is_float()))
    });
    def(out, "exact?", Arity::exactly(1), |args| {
        Ok(Value::Bool(args[0].is_int()))
    });
    def(out, "inexact?", Arity::exactly(1), |args| {
        Ok(Value::Bool(args[0].is_float() || args[0].is_complex()))
    });

    def(out, "make-rectangular", Arity::exactly(2), |args| {
        let real = |v: &Value| match v.unpacked() {
            Unpacked::Int(n) => Ok(n as f64),
            Unpacked::Float(x) => Ok(x),
            _ => Err(RtError::type_error(format!("make-rectangular: {v}"))),
        };
        Ok(Value::Complex(real(&args[0])?, real(&args[1])?))
    });
    def(out, "real-part", Arity::exactly(1), |args| {
        match args[0].unpacked() {
            Unpacked::Complex(re, _) => Ok(Value::Float(re)),
            Unpacked::Int(_) | Unpacked::Float(_) => Ok(args[0].clone()),
            _ => Err(RtError::type_error(format!(
                "real-part: expected number, got {}",
                args[0]
            ))),
        }
    });
    def(out, "imag-part", Arity::exactly(1), |args| {
        match args[0].unpacked() {
            Unpacked::Complex(_, im) => Ok(Value::Float(im)),
            Unpacked::Int(_) => Ok(Value::Int(0)),
            Unpacked::Float(_) => Ok(Value::Float(0.0)),
            _ => Err(RtError::type_error(format!(
                "imag-part: expected number, got {}",
                args[0]
            ))),
        }
    });
}

#[cfg(test)]
mod tests {
    use crate::prim::primitives;
    use crate::value::Value;
    use lagoon_syntax::Symbol;

    fn call(name: &str, args: &[Value]) -> Result<Value, crate::error::RtError> {
        let prims = primitives();
        let (_, v) = prims
            .iter()
            .find(|(n, _)| *n == Symbol::from(name))
            .unwrap_or_else(|| panic!("no primitive {name}"));
        let n = v.as_native().expect("primitive is native");
        (n.f)(args)
    }

    #[test]
    fn variadic_addition() {
        assert_eq!(call("+", &[]).unwrap().as_int(), Some(0));
        assert_eq!(call("+", &[Value::Int(5)]).unwrap().as_int(), Some(5));
        assert_eq!(
            call("+", &[Value::Int(1), Value::Int(2), Value::Int(3)])
                .unwrap()
                .as_int(),
            Some(6)
        );
    }

    #[test]
    fn unary_minus_negates() {
        assert_eq!(call("-", &[Value::Int(5)]).unwrap().as_int(), Some(-5));
        assert_eq!(call("/", &[Value::Int(4)]).unwrap().as_float(), Some(0.25));
    }

    #[test]
    fn chained_comparisons() {
        let t = call("<", &[Value::Int(1), Value::Int(2), Value::Int(3)]).unwrap();
        assert!(t.is_truthy());
        let f = call("<", &[Value::Int(1), Value::Int(3), Value::Int(2)]).unwrap();
        assert!(!f.is_truthy());
    }

    #[test]
    fn predicates() {
        assert!(call("even?", &[Value::Int(4)]).unwrap().is_truthy());
        assert!(!call("odd?", &[Value::Int(4)]).unwrap().is_truthy());
        assert!(call("zero?", &[Value::Float(0.0)]).unwrap().is_truthy());
        assert!(call("flonum?", &[Value::Float(1.0)]).unwrap().is_truthy());
        assert!(!call("flonum?", &[Value::Int(1)]).unwrap().is_truthy());
        assert!(call("integer?", &[Value::Float(2.0)]).unwrap().is_truthy());
        assert!(call("exact-integer?", &[Value::Int(2)])
            .unwrap()
            .is_truthy());
        assert!(!call("exact-integer?", &[Value::Float(2.0)])
            .unwrap()
            .is_truthy());
    }

    #[test]
    fn complex_constructors() {
        let c = call("make-rectangular", &[Value::Float(1.0), Value::Float(2.0)]).unwrap();
        assert_eq!(c.as_complex(), Some((1.0, 2.0)));
        assert_eq!(
            call("real-part", std::slice::from_ref(&c))
                .unwrap()
                .as_float(),
            Some(1.0)
        );
        assert_eq!(call("imag-part", &[c]).unwrap().as_float(), Some(2.0));
    }

    #[test]
    fn min_max() {
        assert_eq!(
            call("min", &[Value::Int(3), Value::Int(1), Value::Int(2)])
                .unwrap()
                .as_int(),
            Some(1)
        );
        assert_eq!(
            call("max", &[Value::Int(3), Value::Float(4.5)])
                .unwrap()
                .as_float(),
            Some(4.5)
        );
    }
}
