//! The numeric tower: generic arithmetic with tag dispatch.
//!
//! Lagoon's tower has three levels — exact integers (`i64`, overflow
//! checked), inexact reals (`f64`), and inexact complex (`f64`×`f64`, the
//! typed language's `Float-Complex`). Binary operations promote upward:
//! `Int ⊕ Float → Float`, `Float ⊕ Complex → Complex`.
//!
//! Every function here performs *tag dispatch*: it inspects the [`Value`]
//! word tags before operating. That per-operation dispatch is exactly the
//! cost the paper's type-driven optimizer eliminates by rewriting generic
//! operations to the `unsafe-fl*` primitives once the typechecker has
//! proved the operand types. With the NaN-boxed word the common cases —
//! two fixnums, two flonums — are a pair of 16-bit tag compares.

use crate::error::{Kind, RtError};
use crate::value::{Unpacked, Value};

fn not_number(op: &str, v: &Value) -> RtError {
    RtError::type_error(format!("{op}: expected number, got {}", v.write_string()))
}

/// The promoted pair of operands for a binary numeric operation.
enum Promoted {
    Ints(i64, i64),
    Floats(f64, f64),
    Complexes(f64, f64, f64, f64),
}

fn promote(op: &str, a: &Value, b: &Value) -> Result<Promoted, RtError> {
    match (a.unpacked(), b.unpacked()) {
        (Unpacked::Int(x), Unpacked::Int(y)) => Ok(Promoted::Ints(x, y)),
        (Unpacked::Int(x), Unpacked::Float(y)) => Ok(Promoted::Floats(x as f64, y)),
        (Unpacked::Float(x), Unpacked::Int(y)) => Ok(Promoted::Floats(x, y as f64)),
        (Unpacked::Float(x), Unpacked::Float(y)) => Ok(Promoted::Floats(x, y)),
        (Unpacked::Complex(xr, xi), Unpacked::Complex(yr, yi)) => {
            Ok(Promoted::Complexes(xr, xi, yr, yi))
        }
        (Unpacked::Complex(xr, xi), Unpacked::Int(y)) => {
            Ok(Promoted::Complexes(xr, xi, y as f64, 0.0))
        }
        (Unpacked::Complex(xr, xi), Unpacked::Float(y)) => Ok(Promoted::Complexes(xr, xi, y, 0.0)),
        (Unpacked::Int(x), Unpacked::Complex(yr, yi)) => {
            Ok(Promoted::Complexes(x as f64, 0.0, yr, yi))
        }
        (Unpacked::Float(x), Unpacked::Complex(yr, yi)) => Ok(Promoted::Complexes(x, 0.0, yr, yi)),
        (Unpacked::Int(_) | Unpacked::Float(_) | Unpacked::Complex(_, _), _) => {
            Err(not_number(op, b))
        }
        _ => Err(not_number(op, a)),
    }
}

/// Generic `+`.
pub fn add(a: &Value, b: &Value) -> Result<Value, RtError> {
    match promote("+", a, b)? {
        Promoted::Ints(x, y) => x
            .checked_add(y)
            .map(Value::Int)
            .ok_or_else(|| RtError::new(Kind::Overflow, format!("(+ {x} {y})"))),
        Promoted::Floats(x, y) => Ok(Value::Float(x + y)),
        Promoted::Complexes(xr, xi, yr, yi) => Ok(Value::Complex(xr + yr, xi + yi)),
    }
}

/// Generic `-`.
pub fn sub(a: &Value, b: &Value) -> Result<Value, RtError> {
    match promote("-", a, b)? {
        Promoted::Ints(x, y) => x
            .checked_sub(y)
            .map(Value::Int)
            .ok_or_else(|| RtError::new(Kind::Overflow, format!("(- {x} {y})"))),
        Promoted::Floats(x, y) => Ok(Value::Float(x - y)),
        Promoted::Complexes(xr, xi, yr, yi) => Ok(Value::Complex(xr - yr, xi - yi)),
    }
}

/// Generic `*`.
pub fn mul(a: &Value, b: &Value) -> Result<Value, RtError> {
    match promote("*", a, b)? {
        Promoted::Ints(x, y) => x
            .checked_mul(y)
            .map(Value::Int)
            .ok_or_else(|| RtError::new(Kind::Overflow, format!("(* {x} {y})"))),
        Promoted::Floats(x, y) => Ok(Value::Float(x * y)),
        Promoted::Complexes(xr, xi, yr, yi) => {
            Ok(Value::Complex(xr * yr - xi * yi, xr * yi + xi * yr))
        }
    }
}

/// Generic `/`. Integer division produces an integer when exact, a float
/// otherwise (Lagoon has no exact rationals; see DESIGN.md).
pub fn div(a: &Value, b: &Value) -> Result<Value, RtError> {
    match promote("/", a, b)? {
        Promoted::Ints(x, y) => {
            if y == 0 {
                Err(RtError::new(Kind::DivideByZero, format!("(/ {x} 0)")))
            } else if x % y == 0 {
                Ok(Value::Int(x / y))
            } else {
                Ok(Value::Float(x as f64 / y as f64))
            }
        }
        Promoted::Floats(x, y) => Ok(Value::Float(x / y)),
        Promoted::Complexes(xr, xi, yr, yi) => {
            let d = yr * yr + yi * yi;
            Ok(Value::Complex(
                (xr * yr + xi * yi) / d,
                (xi * yr - xr * yi) / d,
            ))
        }
    }
}

/// Generic numeric comparison for `<`, `<=`, `>`, `>=` (reals only).
/// A NaN operand is unordered (`None`), so every one of those tests is
/// `#f` on it, as in Racket.
pub fn compare(op: &str, a: &Value, b: &Value) -> Result<Option<std::cmp::Ordering>, RtError> {
    match promote(op, a, b)? {
        Promoted::Ints(x, y) => Ok(Some(x.cmp(&y))),
        Promoted::Floats(x, y) => Ok(x.partial_cmp(&y)),
        Promoted::Complexes(..) => Err(RtError::type_error(format!(
            "{op}: complex numbers are not ordered"
        ))),
    }
}

/// Flonum `min`: NaN if either operand is, else the first operand
/// unless the second is smaller. Generic `min` on two flonums picks the
/// same operand, signed zeros included.
pub fn flmin(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if b < a {
        b
    } else {
        a
    }
}

/// Flonum `max`, the mirror of [`flmin`].
pub fn flmax(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if b > a {
        b
    } else {
        a
    }
}

/// Generic `=` (numeric equality across the tower, IEEE semantics —
/// `(= +nan.0 +nan.0)` is `#f`, `(= 0.0 -0.0)` is `#t`; contrast with
/// [`Value::eqv`]'s bitwise flonum rules).
pub fn num_eq(a: &Value, b: &Value) -> Result<bool, RtError> {
    match promote("=", a, b)? {
        Promoted::Ints(x, y) => Ok(x == y),
        Promoted::Floats(x, y) => Ok(x == y),
        Promoted::Complexes(xr, xi, yr, yi) => Ok(xr == yr && xi == yi),
    }
}

/// `quotient` on integers.
pub fn quotient(a: &Value, b: &Value) -> Result<Value, RtError> {
    match (a.as_int(), b.as_int()) {
        (Some(_), Some(0)) => Err(RtError::new(Kind::DivideByZero, "quotient by zero")),
        (Some(x), Some(y)) => Ok(Value::Int(x.wrapping_div(y))),
        _ => Err(RtError::type_error(format!(
            "quotient: expected integers, got {} and {}",
            a.write_string(),
            b.write_string()
        ))),
    }
}

/// `remainder` on integers (sign follows the dividend).
pub fn remainder(a: &Value, b: &Value) -> Result<Value, RtError> {
    match (a.as_int(), b.as_int()) {
        (Some(_), Some(0)) => Err(RtError::new(Kind::DivideByZero, "remainder by zero")),
        (Some(x), Some(y)) => Ok(Value::Int(x.wrapping_rem(y))),
        _ => Err(RtError::type_error("remainder: expected integers")),
    }
}

/// `modulo` on integers (sign follows the divisor).
pub fn modulo(a: &Value, b: &Value) -> Result<Value, RtError> {
    match (a.as_int(), b.as_int()) {
        (Some(_), Some(0)) => Err(RtError::new(Kind::DivideByZero, "modulo by zero")),
        (Some(x), Some(y)) => {
            let r = x.wrapping_rem(y);
            let m = if r != 0 && (r < 0) != (y < 0) {
                r + y
            } else {
                r
            };
            Ok(Value::Int(m))
        }
        _ => Err(RtError::type_error("modulo: expected integers")),
    }
}

/// `abs` / `magnitude` for reals; `magnitude` for complex.
pub fn magnitude(v: &Value) -> Result<Value, RtError> {
    match v.unpacked() {
        Unpacked::Int(n) => n
            .checked_abs()
            .map(Value::Int)
            .ok_or_else(|| RtError::new(Kind::Overflow, "(abs min-int)")),
        Unpacked::Float(x) => Ok(Value::Float(x.abs())),
        Unpacked::Complex(re, im) => Ok(Value::Float(re.hypot(im))),
        _ => Err(not_number("magnitude", v)),
    }
}

/// `sqrt`: stays exact when possible, goes inexact (or complex) otherwise.
pub fn sqrt(v: &Value) -> Result<Value, RtError> {
    match v.unpacked() {
        Unpacked::Int(n) if n >= 0 => {
            let r = (n as f64).sqrt();
            let ri = r as i64;
            if ri * ri == n {
                Ok(Value::Int(ri))
            } else {
                Ok(Value::Float(r))
            }
        }
        Unpacked::Int(n) => Ok(Value::Complex(0.0, ((-n) as f64).sqrt())),
        Unpacked::Float(x) if x >= 0.0 => Ok(Value::Float(x.sqrt())),
        Unpacked::Float(x) => Ok(Value::Complex(0.0, (-x).sqrt())),
        Unpacked::Complex(re, im) => {
            let m = re.hypot(im).sqrt();
            let theta = im.atan2(re) / 2.0;
            Ok(Value::Complex(m * theta.cos(), m * theta.sin()))
        }
        _ => Err(not_number("sqrt", v)),
    }
}

/// `expt` — exponentiation. Integer^non-negative-integer stays exact.
pub fn expt(a: &Value, b: &Value) -> Result<Value, RtError> {
    match (a.as_int(), b.as_int()) {
        (Some(x), Some(y)) if y >= 0 => {
            let mut acc: i64 = 1;
            for _ in 0..y {
                acc = acc
                    .checked_mul(x)
                    .ok_or_else(|| RtError::new(Kind::Overflow, format!("(expt {x} {y})")))?;
            }
            Ok(Value::Int(acc))
        }
        _ => match promote("expt", a, b)? {
            Promoted::Ints(x, y) => Ok(Value::Float((x as f64).powf(y as f64))),
            Promoted::Floats(x, y) => Ok(Value::Float(x.powf(y))),
            Promoted::Complexes(..) => Err(RtError::type_error("expt: complex not supported")),
        },
    }
}

/// Unary float transcendental functions (`sin`, `cos`, `tan`, `atan`,
/// `log`, `exp`), applied to reals.
pub fn float_unary(op: &str, v: &Value) -> Result<Value, RtError> {
    let x = match v.unpacked() {
        Unpacked::Int(n) => n as f64,
        Unpacked::Float(x) => x,
        _ => return Err(not_number(op, v)),
    };
    let y = match op {
        "sin" => x.sin(),
        "cos" => x.cos(),
        "tan" => x.tan(),
        "asin" => x.asin(),
        "acos" => x.acos(),
        "atan" => x.atan(),
        "log" => x.ln(),
        "exp" => x.exp(),
        _ => {
            return Err(RtError::new(
                Kind::Internal,
                format!("unknown float op {op}"),
            ))
        }
    };
    Ok(Value::Float(y))
}

/// `exact->inexact`.
pub fn to_inexact(v: &Value) -> Result<Value, RtError> {
    match v.unpacked() {
        Unpacked::Int(n) => Ok(Value::Float(n as f64)),
        Unpacked::Float(_) | Unpacked::Complex(_, _) => Ok(v.clone()),
        _ => Err(not_number("exact->inexact", v)),
    }
}

/// `inexact->exact` (truncating floats with integral values).
pub fn to_exact(v: &Value) -> Result<Value, RtError> {
    match v.unpacked() {
        Unpacked::Int(_) => Ok(v.clone()),
        Unpacked::Float(x) if x.fract() == 0.0 && x.abs() < i64::MAX as f64 => {
            Ok(Value::Int(x as i64))
        }
        Unpacked::Float(x) => Err(RtError::type_error(format!(
            "inexact->exact: {x} has no exact representation in Lagoon"
        ))),
        _ => Err(not_number("inexact->exact", v)),
    }
}

/// Rounding family: `floor`, `ceiling`, `round`, `truncate`.
pub fn round_family(op: &str, v: &Value) -> Result<Value, RtError> {
    match v.unpacked() {
        Unpacked::Int(_) => Ok(v.clone()),
        Unpacked::Float(x) => Ok(Value::Float(match op {
            "floor" => x.floor(),
            "ceiling" => x.ceil(),
            "round" => {
                // banker's rounding, like Racket
                let r = x.round();
                if (x - x.trunc()).abs() == 0.5 && r % 2.0 != 0.0 {
                    r - x.signum()
                } else {
                    r
                }
            }
            "truncate" => x.trunc(),
            _ => {
                return Err(RtError::new(
                    Kind::Internal,
                    format!("unknown rounding {op}"),
                ))
            }
        })),
        _ => Err(not_number(op, v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(n: i64) -> Value {
        Value::Int(n)
    }
    fn fl(x: f64) -> Value {
        Value::Float(x)
    }
    fn cpx(re: f64, im: f64) -> Value {
        Value::Complex(re, im)
    }

    #[test]
    fn integer_arithmetic() {
        assert_eq!(add(&int(2), &int(3)).unwrap().as_int(), Some(5));
        assert_eq!(sub(&int(2), &int(3)).unwrap().as_int(), Some(-1));
        assert_eq!(mul(&int(4), &int(3)).unwrap().as_int(), Some(12));
        assert_eq!(div(&int(6), &int(3)).unwrap().as_int(), Some(2));
        assert_eq!(div(&int(7), &int(2)).unwrap().as_float(), Some(3.5));
    }

    #[test]
    fn promotion() {
        assert_eq!(add(&int(1), &fl(0.5)).unwrap().as_float(), Some(1.5));
        assert_eq!(mul(&fl(2.0), &int(3)).unwrap().as_float(), Some(6.0));
        assert_eq!(
            add(&fl(1.0), &cpx(2.0, 3.0)).unwrap().as_complex(),
            Some((3.0, 3.0))
        );
    }

    #[test]
    fn complex_mul_and_div() {
        // (2+2i) * (2+2i) = 8i
        assert_eq!(
            mul(&cpx(2.0, 2.0), &cpx(2.0, 2.0)).unwrap().as_complex(),
            Some((0.0, 8.0))
        );
        // the paper's loop: f / 2.0+2.0i
        assert_eq!(
            div(&cpx(4.0, 0.0), &cpx(2.0, 2.0)).unwrap().as_complex(),
            Some((1.0, -1.0))
        );
    }

    #[test]
    fn overflow_is_an_error() {
        assert_eq!(
            add(&int(i64::MAX), &int(1)).unwrap_err().kind,
            Kind::Overflow
        );
        assert_eq!(
            mul(&int(i64::MAX), &int(2)).unwrap_err().kind,
            Kind::Overflow
        );
    }

    #[test]
    fn wide_integers_survive_boxing() {
        // values past the 48-bit immediate range still behave like ints
        let big = (1i64 << 60) + 12345;
        assert_eq!(add(&int(big), &int(1)).unwrap().as_int(), Some(big + 1));
        assert_eq!(
            mul(&int(1 << 40), &int(1 << 20)).unwrap().as_int(),
            Some(1 << 60)
        );
        assert!(num_eq(&int(big), &int(big)).unwrap());
        assert_eq!(
            compare("<", &int(big), &int(big + 1)).unwrap(),
            Some(std::cmp::Ordering::Less)
        );
    }

    #[test]
    fn division_by_zero() {
        assert_eq!(div(&int(1), &int(0)).unwrap_err().kind, Kind::DivideByZero);
        // float division by zero is inf, not an error
        assert!(div(&fl(1.0), &fl(0.0))
            .unwrap()
            .as_float()
            .unwrap()
            .is_infinite());
    }

    #[test]
    fn comparisons() {
        use std::cmp::Ordering::*;
        assert_eq!(compare("<", &int(1), &int(2)).unwrap(), Some(Less));
        assert_eq!(compare("<", &fl(2.0), &int(2)).unwrap(), Some(Equal));
        assert_eq!(compare("<", &int(3), &fl(2.5)).unwrap(), Some(Greater));
        assert_eq!(compare("<", &fl(f64::NAN), &int(1)).unwrap(), None);
        assert!(compare("<", &cpx(1.0, 1.0), &int(1)).is_err());
        // flmin/flmax propagate NaN and pick signed zeros like generic min/max
        assert!(flmin(f64::NAN, 1.0).is_nan() && flmax(1.0, f64::NAN).is_nan());
        assert_eq!(flmin(0.0, -0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(flmin(1.0, -0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(flmax(-0.0, 0.0).to_bits(), (-0.0f64).to_bits());
        assert!(num_eq(&int(2), &fl(2.0)).unwrap());
        assert!(num_eq(&cpx(1.0, 2.0), &cpx(1.0, 2.0)).unwrap());
    }

    #[test]
    fn magnitude_of_complex() {
        assert_eq!(magnitude(&cpx(3.0, 4.0)).unwrap().as_float(), Some(5.0));
        assert_eq!(magnitude(&int(-3)).unwrap().as_int(), Some(3));
    }

    #[test]
    fn sqrt_tower() {
        assert_eq!(sqrt(&int(9)).unwrap().as_int(), Some(3));
        assert!(sqrt(&int(2)).unwrap().is_float());
        assert_eq!(sqrt(&int(-4)).unwrap().as_complex(), Some((0.0, 2.0)));
        assert_eq!(sqrt(&fl(2.25)).unwrap().as_float(), Some(1.5));
    }

    #[test]
    fn quotient_remainder_modulo() {
        assert_eq!(quotient(&int(7), &int(2)).unwrap().as_int(), Some(3));
        assert_eq!(remainder(&int(7), &int(2)).unwrap().as_int(), Some(1));
        assert_eq!(remainder(&int(-7), &int(2)).unwrap().as_int(), Some(-1));
        assert_eq!(modulo(&int(-7), &int(2)).unwrap().as_int(), Some(1));
        assert_eq!(modulo(&int(7), &int(-2)).unwrap().as_int(), Some(-1));
        assert!(quotient(&int(1), &int(0)).is_err());
    }

    #[test]
    fn expt_exactness() {
        assert_eq!(expt(&int(2), &int(10)).unwrap().as_int(), Some(1024));
        assert!(expt(&int(2), &fl(0.5)).unwrap().is_float());
        assert_eq!(
            expt(&int(i64::MAX), &int(2)).unwrap_err().kind,
            Kind::Overflow
        );
    }

    #[test]
    fn rounding() {
        assert_eq!(
            round_family("floor", &fl(2.7)).unwrap().as_float(),
            Some(2.0)
        );
        assert_eq!(
            round_family("ceiling", &fl(2.2)).unwrap().as_float(),
            Some(3.0)
        );
        assert_eq!(
            round_family("round", &fl(2.5)).unwrap().as_float(),
            Some(2.0)
        );
        assert_eq!(
            round_family("round", &fl(3.5)).unwrap().as_float(),
            Some(4.0)
        );
        assert_eq!(
            round_family("truncate", &fl(-2.7)).unwrap().as_float(),
            Some(-2.0)
        );
    }

    #[test]
    fn exactness_conversions() {
        assert_eq!(to_inexact(&int(3)).unwrap().as_float(), Some(3.0));
        assert_eq!(to_exact(&fl(3.0)).unwrap().as_int(), Some(3));
        assert!(to_exact(&fl(3.5)).is_err());
    }

    #[test]
    fn type_errors_name_the_culprit() {
        let e = add(&Value::string("x"), &int(1)).unwrap_err();
        assert!(e.message.contains("\"x\""));
    }
}
