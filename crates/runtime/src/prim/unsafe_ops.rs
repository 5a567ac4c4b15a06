//! Unsafe type-specialized primitives — the optimizer's target.
//!
//! Paper §7.1: “Racket exposes unsafe type-specialized primitives. For
//! instance, the `unsafe-fl+` primitive adds two floating-point numbers,
//! but has undefined behavior when applied to anything else.”
//!
//! These operations skip the generic numeric tower entirely: no promotion,
//! no overflow checks, no dispatch beyond a single-pattern extraction.
//! Lagoon (being memory-safe Rust) cannot offer true undefined behaviour;
//! misapplication panics in debug builds and produces an arbitrary value
//! (0.0 / the argument itself) in release builds — never memory unsafety.
//! The *type-driven optimizer is only permitted to emit these after
//! typechecking proves the operand types*, so a misapplication indicates a
//! bug in the optimizer, not in user code.

use super::def;
use crate::error::RtError;
use crate::value::{Arity, Value};

#[inline(always)]
fn fl(v: &Value) -> f64 {
    match v.as_float() {
        Some(x) => x,
        None => {
            debug_assert!(false, "unsafe-fl op applied to {}", v.write_string());
            0.0
        }
    }
}

#[inline(always)]
fn fx(v: &Value) -> i64 {
    match v.as_int() {
        Some(n) => n,
        None => {
            debug_assert!(false, "unsafe-fx op applied to {}", v.write_string());
            0
        }
    }
}

#[inline(always)]
fn cpx(v: &Value) -> (f64, f64) {
    match v.as_complex() {
        Some(z) => z,
        None => {
            debug_assert!(false, "unsafe-fc op applied to {}", v.write_string());
            (0.0, 0.0)
        }
    }
}

pub(super) fn install(out: &mut Vec<(lagoon_syntax::Symbol, Value)>) {
    // Floating-point specializations.
    def(out, "unsafe-fl+", Arity::exactly(2), |a| {
        Ok(Value::Float(fl(&a[0]) + fl(&a[1])))
    });
    def(out, "unsafe-fl-", Arity::exactly(2), |a| {
        Ok(Value::Float(fl(&a[0]) - fl(&a[1])))
    });
    def(out, "unsafe-fl*", Arity::exactly(2), |a| {
        Ok(Value::Float(fl(&a[0]) * fl(&a[1])))
    });
    def(out, "unsafe-fl/", Arity::exactly(2), |a| {
        Ok(Value::Float(fl(&a[0]) / fl(&a[1])))
    });
    def(out, "unsafe-fl<", Arity::exactly(2), |a| {
        Ok(Value::Bool(fl(&a[0]) < fl(&a[1])))
    });
    def(out, "unsafe-fl<=", Arity::exactly(2), |a| {
        Ok(Value::Bool(fl(&a[0]) <= fl(&a[1])))
    });
    def(out, "unsafe-fl>", Arity::exactly(2), |a| {
        Ok(Value::Bool(fl(&a[0]) > fl(&a[1])))
    });
    def(out, "unsafe-fl>=", Arity::exactly(2), |a| {
        Ok(Value::Bool(fl(&a[0]) >= fl(&a[1])))
    });
    def(out, "unsafe-fl=", Arity::exactly(2), |a| {
        Ok(Value::Bool(fl(&a[0]) == fl(&a[1])))
    });
    def(out, "unsafe-flabs", Arity::exactly(1), |a| {
        Ok(Value::Float(fl(&a[0]).abs()))
    });
    def(out, "unsafe-flsqrt", Arity::exactly(1), |a| {
        Ok(Value::Float(fl(&a[0]).sqrt()))
    });
    def(out, "unsafe-flmin", Arity::exactly(2), |a| {
        Ok(Value::Float(crate::number::flmin(fl(&a[0]), fl(&a[1]))))
    });
    def(out, "unsafe-flmax", Arity::exactly(2), |a| {
        Ok(Value::Float(crate::number::flmax(fl(&a[0]), fl(&a[1]))))
    });
    def(out, "unsafe-flsin", Arity::exactly(1), |a| {
        Ok(Value::Float(fl(&a[0]).sin()))
    });
    def(out, "unsafe-flcos", Arity::exactly(1), |a| {
        Ok(Value::Float(fl(&a[0]).cos()))
    });
    def(out, "unsafe-flatan", Arity::exactly(1), |a| {
        Ok(Value::Float(fl(&a[0]).atan()))
    });
    def(out, "unsafe-fllog", Arity::exactly(1), |a| {
        Ok(Value::Float(fl(&a[0]).ln()))
    });
    def(out, "unsafe-flexp", Arity::exactly(1), |a| {
        Ok(Value::Float(fl(&a[0]).exp()))
    });
    def(out, "unsafe-flfloor", Arity::exactly(1), |a| {
        Ok(Value::Float(fl(&a[0]).floor()))
    });

    // Fixnum specializations (unchecked, wrapping).
    def(out, "unsafe-fx+", Arity::exactly(2), |a| {
        Ok(Value::Int(fx(&a[0]).wrapping_add(fx(&a[1]))))
    });
    def(out, "unsafe-fx-", Arity::exactly(2), |a| {
        Ok(Value::Int(fx(&a[0]).wrapping_sub(fx(&a[1]))))
    });
    def(out, "unsafe-fx*", Arity::exactly(2), |a| {
        Ok(Value::Int(fx(&a[0]).wrapping_mul(fx(&a[1]))))
    });
    def(out, "unsafe-fxquotient", Arity::exactly(2), |a| {
        let d = fx(&a[1]);
        Ok(Value::Int(if d == 0 {
            0
        } else {
            fx(&a[0]).wrapping_div(d)
        }))
    });
    def(out, "unsafe-fxremainder", Arity::exactly(2), |a| {
        let d = fx(&a[1]);
        Ok(Value::Int(if d == 0 {
            0
        } else {
            fx(&a[0]).wrapping_rem(d)
        }))
    });
    def(out, "unsafe-fx<", Arity::exactly(2), |a| {
        Ok(Value::Bool(fx(&a[0]) < fx(&a[1])))
    });
    def(out, "unsafe-fx<=", Arity::exactly(2), |a| {
        Ok(Value::Bool(fx(&a[0]) <= fx(&a[1])))
    });
    def(out, "unsafe-fx>", Arity::exactly(2), |a| {
        Ok(Value::Bool(fx(&a[0]) > fx(&a[1])))
    });
    def(out, "unsafe-fx>=", Arity::exactly(2), |a| {
        Ok(Value::Bool(fx(&a[0]) >= fx(&a[1])))
    });
    def(out, "unsafe-fx=", Arity::exactly(2), |a| {
        Ok(Value::Bool(fx(&a[0]) == fx(&a[1])))
    });

    // Float-complex specializations: the "arity-raised" representation the
    // optimizer targets for complex arithmetic (paper §7.2). Operating on
    // both components at once avoids the generic tower's dispatch.
    def(out, "unsafe-fc+", Arity::exactly(2), |a| {
        let (xr, xi) = cpx(&a[0]);
        let (yr, yi) = cpx(&a[1]);
        Ok(Value::Complex(xr + yr, xi + yi))
    });
    def(out, "unsafe-fc-", Arity::exactly(2), |a| {
        let (xr, xi) = cpx(&a[0]);
        let (yr, yi) = cpx(&a[1]);
        Ok(Value::Complex(xr - yr, xi - yi))
    });
    def(out, "unsafe-fc*", Arity::exactly(2), |a| {
        let (xr, xi) = cpx(&a[0]);
        let (yr, yi) = cpx(&a[1]);
        Ok(Value::Complex(xr * yr - xi * yi, xr * yi + xi * yr))
    });
    def(out, "unsafe-fc/", Arity::exactly(2), |a| {
        let (xr, xi) = cpx(&a[0]);
        let (yr, yi) = cpx(&a[1]);
        let d = yr * yr + yi * yi;
        Ok(Value::Complex(
            (xr * yr + xi * yi) / d,
            (xi * yr - xr * yi) / d,
        ))
    });
    def(out, "unsafe-fcmagnitude", Arity::exactly(1), |a| {
        let (re, im) = cpx(&a[0]);
        Ok(Value::Float(re.hypot(im)))
    });

    // Pair / vector specializations: tag-check elimination (paper §7.2
    // "eliminates tag-checking made redundant by the typechecker").
    def(out, "unsafe-car", Arity::exactly(1), |a| {
        match a[0].as_pair() {
            Some(p) => Ok(p.0.clone()),
            None => {
                debug_assert!(false, "unsafe-car applied to {}", a[0].write_string());
                Ok(a[0].clone())
            }
        }
    });
    def(out, "unsafe-cdr", Arity::exactly(1), |a| {
        match a[0].as_pair() {
            Some(p) => Ok(p.1.clone()),
            None => {
                debug_assert!(false, "unsafe-cdr applied to {}", a[0].write_string());
                Ok(a[0].clone())
            }
        }
    });
    def(out, "unsafe-vector-ref", Arity::exactly(2), |a| {
        match (a[0].as_vector(), a[1].as_int()) {
            (Some(v), Some(i)) => {
                let v = v.borrow();
                match v.get(i as usize) {
                    Some(x) => Ok(x.clone()),
                    None => {
                        debug_assert!(false, "unsafe-vector-ref out of range");
                        Ok(Value::Void)
                    }
                }
            }
            _ => {
                debug_assert!(false, "unsafe-vector-ref misapplied");
                Ok(Value::Void)
            }
        }
    });
    def(out, "unsafe-vector-set!", Arity::exactly(3), |a| {
        match (a[0].as_vector(), a[1].as_int()) {
            (Some(v), Some(i)) => {
                let mut v = v.borrow_mut();
                let i = i as usize;
                if i < v.len() {
                    v[i] = a[2].clone();
                } else {
                    debug_assert!(false, "unsafe-vector-set! out of range");
                }
                Ok(Value::Void)
            }
            _ => {
                debug_assert!(false, "unsafe-vector-set! misapplied");
                Ok(Value::Void)
            }
        }
    });
    def(
        out,
        "unsafe-vector-length",
        Arity::exactly(1),
        |a| match a[0].as_vector() {
            Some(v) => Ok(Value::Int(v.borrow().len() as i64)),
            None => {
                debug_assert!(false, "unsafe-vector-length misapplied");
                Ok(Value::Int(0))
            }
        },
    );

    // Coercions emitted by the optimizer when it has proved one side is
    // already a float / when mixing proved-int with proved-float operands.
    def(out, "unsafe-fx->fl", Arity::exactly(1), |a| {
        Ok(Value::Float(fx(&a[0]) as f64))
    });

    // A checked escape hatch used by tests to confirm the unsafe ops are
    // reachable from hosted code.
    def(out, "unsafe-ops-available?", Arity::exactly(0), |_| {
        Ok::<_, RtError>(Value::Bool(true))
    });
}

#[cfg(test)]
mod tests {
    use crate::prim::primitives;
    use crate::value::Value;
    use lagoon_syntax::Symbol;

    fn call(name: &str, args: &[Value]) -> Value {
        let prims = primitives();
        let (_, v) = prims
            .iter()
            .find(|(n, _)| *n == Symbol::from(name))
            .unwrap();
        let n = v.as_native().expect("primitive is native");
        (n.f)(args).unwrap()
    }

    #[test]
    fn fl_ops() {
        assert_eq!(
            call("unsafe-fl+", &[Value::Float(1.5), Value::Float(2.0)]).as_float(),
            Some(3.5)
        );
        assert_eq!(
            call("unsafe-fl*", &[Value::Float(2.0), Value::Float(4.0)]).as_float(),
            Some(8.0)
        );
        assert!(call("unsafe-fl<", &[Value::Float(1.0), Value::Float(2.0)]).is_truthy());
        assert_eq!(
            call("unsafe-flsqrt", &[Value::Float(9.0)]).as_float(),
            Some(3.0)
        );
    }

    #[test]
    fn fx_ops_wrap() {
        assert_eq!(
            call("unsafe-fx+", &[Value::Int(i64::MAX), Value::Int(1)]).as_int(),
            Some(i64::MIN)
        );
    }

    #[test]
    fn fc_ops() {
        let z = call(
            "unsafe-fc*",
            &[Value::Complex(2.0, 2.0), Value::Complex(2.0, 2.0)],
        );
        assert_eq!(z.as_complex(), Some((0.0, 8.0)));
        assert_eq!(
            call("unsafe-fcmagnitude", &[Value::Complex(3.0, 4.0)]).as_float(),
            Some(5.0)
        );
    }

    #[test]
    fn structure_ops() {
        let p = Value::cons(Value::Int(1), Value::Int(2));
        assert_eq!(
            call("unsafe-car", std::slice::from_ref(&p)).as_int(),
            Some(1)
        );
        assert_eq!(call("unsafe-cdr", &[p]).as_int(), Some(2));
        let v = call(
            "unsafe-vector-ref",
            &[Value::vector(vec![Value::Int(9)]), Value::Int(0)],
        );
        assert_eq!(v.as_int(), Some(9));
    }

    #[test]
    fn coercion() {
        assert_eq!(
            call("unsafe-fx->fl", &[Value::Int(3)]).as_float(),
            Some(3.0)
        );
    }
}
