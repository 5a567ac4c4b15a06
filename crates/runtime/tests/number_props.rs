//! Property tests on the numeric tower, driven by a fixed-seed
//! splitmix64 stream (`lagoon_diag::gen`'s) so the workspace stays
//! dependency-free and every failure reproduces exactly.

use lagoon_diag::gen::SplitMix64;
use lagoon_runtime::{number, Value};

/// The seeded stream with this suite's range helpers.
struct Rng(SplitMix64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(SplitMix64::new(seed))
    }

    fn next(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }

    fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() as f64 / u64::MAX as f64) * (hi - lo)
    }

    fn num(&mut self) -> Value {
        match self.next() % 3 {
            0 => Value::Int(self.int(-1_000_000, 1_000_000)),
            1 => Value::Float(self.float(-1e6, 1e6)),
            _ => Value::Complex(self.float(-1e3, 1e3), self.float(-1e3, 1e3)),
        }
    }
}

fn approx_eq(a: &Value, b: &Value) -> bool {
    fn parts(v: &Value) -> (f64, f64) {
        if let Some(n) = v.as_int() {
            (n as f64, 0.0)
        } else if let Some(x) = v.as_float() {
            (x, 0.0)
        } else if let Some((re, im)) = v.as_complex() {
            (re, im)
        } else {
            (f64::NAN, f64::NAN)
        }
    }
    let (ar, ai) = parts(a);
    let (br, bi) = parts(b);
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs()));
    close(ar, br) && close(ai, bi)
}

#[test]
fn addition_commutes() {
    let mut rng = Rng::new(1);
    for _ in 0..256 {
        let (a, b) = (rng.num(), rng.num());
        match (number::add(&a, &b), number::add(&b, &a)) {
            (Ok(x), Ok(y)) => assert!(approx_eq(&x, &y), "{x} vs {y}"),
            (Err(_), Err(_)) => {}
            (x, y) => panic!("asymmetric: {x:?} vs {y:?}"),
        }
    }
}

#[test]
fn multiplication_commutes() {
    let mut rng = Rng::new(2);
    for _ in 0..256 {
        let (a, b) = (rng.num(), rng.num());
        match (number::mul(&a, &b), number::mul(&b, &a)) {
            (Ok(x), Ok(y)) => assert!(approx_eq(&x, &y), "{x} vs {y}"),
            (Err(_), Err(_)) => {}
            (x, y) => panic!("asymmetric: {x:?} vs {y:?}"),
        }
    }
}

#[test]
fn subtraction_inverts_addition() {
    let mut rng = Rng::new(3);
    for _ in 0..256 {
        let (a, b) = (rng.num(), rng.num());
        if let Ok(sum) = number::add(&a, &b) {
            if let Ok(back) = number::sub(&sum, &b) {
                assert!(approx_eq(&back, &a), "{back} vs {a}");
            }
        }
    }
}

#[test]
fn comparison_is_total_on_reals() {
    let mut rng = Rng::new(4);
    for _ in 0..256 {
        let ai = Value::Int(rng.int(-1_000_000, 1_000_000));
        let bf = Value::Float(rng.float(-1e6, 1e6));
        let lt = number::compare("<", &ai, &bf).unwrap().unwrap().is_lt();
        let gt = number::compare(">", &ai, &bf).unwrap().unwrap().is_gt();
        let eq = number::num_eq(&ai, &bf).unwrap();
        assert_eq!([lt, gt, eq].iter().filter(|x| **x).count(), 1);
    }
}

#[test]
fn quotient_remainder_identity() {
    let mut rng = Rng::new(5);
    for _ in 0..256 {
        let a = rng.int(-100_000, 100_000);
        let b = rng.int(1, 1000);
        let q = number::quotient(&Value::Int(a), &Value::Int(b)).unwrap();
        let r = number::remainder(&Value::Int(a), &Value::Int(b)).unwrap();
        match (q.as_int(), r.as_int()) {
            (Some(q), Some(r)) => {
                assert_eq!(q * b + r, a);
                assert!(r.abs() < b);
            }
            _ => panic!("non-integer quotient/remainder"),
        }
    }
}

#[test]
fn modulo_sign_follows_divisor() {
    let mut rng = Rng::new(6);
    for _ in 0..256 {
        let a = rng.int(-100_000, 100_000);
        let b = if rng.next().is_multiple_of(2) {
            rng.int(1, 1000)
        } else {
            rng.int(-1000, -1)
        };
        match number::modulo(&Value::Int(a), &Value::Int(b))
            .unwrap()
            .as_int()
        {
            Some(m) => {
                assert!(m == 0 || (m > 0) == (b > 0), "m={m} b={b}");
                assert!(m.abs() < b.abs());
                // congruence
                assert_eq!((a - m) % b, 0);
            }
            _ => panic!("non-integer modulo"),
        }
    }
}

#[test]
fn sqrt_squares_back() {
    let mut rng = Rng::new(7);
    for _ in 0..256 {
        let x = rng.float(0.0, 1e12);
        match number::sqrt(&Value::Float(x)).unwrap().as_float() {
            Some(r) => assert!((r * r - x).abs() <= 1e-6 * (1.0 + x)),
            None => panic!("sqrt of a nonnegative float must be a float"),
        }
    }
}

#[test]
fn magnitude_is_nonnegative() {
    let mut rng = Rng::new(8);
    for _ in 0..256 {
        let v = rng.num();
        if let Ok(m) = number::magnitude(&v) {
            if let Some(n) = m.as_int() {
                assert!(n >= 0);
            } else if let Some(x) = m.as_float() {
                assert!(x >= 0.0);
            } else {
                panic!("non-real magnitude {m}");
            }
        }
    }
}
