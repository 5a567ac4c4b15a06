//! Pair and list primitives.

use super::def;
use crate::error::RtError;
use crate::value::{Arity, Pair, Value};

fn expect_pair(name: &str, v: &Value) -> Result<std::rc::Rc<Pair>, RtError> {
    match v.to_pair_rc() {
        Some(p) => Ok(p),
        None => Err(RtError::type_error(format!(
            "{name}: expected pair, got {}",
            v.write_string()
        ))),
    }
}

pub(super) fn install(out: &mut Vec<(lagoon_syntax::Symbol, Value)>) {
    def(out, "cons", Arity::exactly(2), |args| {
        Ok(Value::cons(args[0].clone(), args[1].clone()))
    });
    def(out, "car", Arity::exactly(1), |args| {
        Ok(expect_pair("car", &args[0])?.0.clone())
    });
    def(out, "cdr", Arity::exactly(1), |args| {
        Ok(expect_pair("cdr", &args[0])?.1.clone())
    });
    def(out, "caar", Arity::exactly(1), |args| {
        Ok(expect_pair("caar", &expect_pair("caar", &args[0])?.0)?
            .0
            .clone())
    });
    def(out, "cadr", Arity::exactly(1), |args| {
        Ok(expect_pair("cadr", &expect_pair("cadr", &args[0])?.1)?
            .0
            .clone())
    });
    def(out, "cdar", Arity::exactly(1), |args| {
        Ok(expect_pair("cdar", &expect_pair("cdar", &args[0])?.0)?
            .1
            .clone())
    });
    def(out, "cddr", Arity::exactly(1), |args| {
        Ok(expect_pair("cddr", &expect_pair("cddr", &args[0])?.1)?
            .1
            .clone())
    });
    def(out, "caddr", Arity::exactly(1), |args| {
        let cdr = expect_pair("caddr", &args[0])?.1.clone();
        let cddr = expect_pair("caddr", &cdr)?.1.clone();
        Ok(expect_pair("caddr", &cddr)?.0.clone())
    });

    def(out, "pair?", Arity::exactly(1), |args| {
        Ok(Value::Bool(args[0].as_pair().is_some()))
    });
    def(out, "null?", Arity::exactly(1), |args| {
        Ok(Value::Bool(args[0].is_nil()))
    });
    def(out, "list?", Arity::exactly(1), |args| {
        Ok(Value::Bool(args[0].list_length().is_some()))
    });

    def(out, "list", Arity::at_least(0), |args| {
        Ok(Value::list(args.to_vec()))
    });
    def(out, "length", Arity::exactly(1), |args| {
        let n = args[0].list_length().ok_or_else(|| {
            RtError::type_error(format!(
                "length: expected list, got {}",
                args[0].write_string()
            ))
        })?;
        Ok(Value::Int(n as i64))
    });
    def(out, "append", Arity::at_least(0), |args| {
        let Some((last, init)) = args.split_last() else {
            return Ok(Value::Nil);
        };
        let mut acc = last.clone();
        for l in init.iter().rev() {
            let items = l.list_to_vec().ok_or_else(|| {
                RtError::type_error(format!("append: expected list, got {}", l.write_string()))
            })?;
            for item in items.into_iter().rev() {
                acc = Value::cons(item, acc);
            }
        }
        Ok(acc)
    });
    def(out, "reverse", Arity::exactly(1), |args| {
        let mut acc = Value::Nil;
        let mut cur = args[0].clone();
        loop {
            if cur.is_nil() {
                return Ok(acc);
            }
            if let Some(p) = cur.as_pair() {
                acc = Value::cons(p.0.clone(), acc);
                let next = p.1.clone();
                cur = next;
            } else {
                return Err(RtError::type_error(format!(
                    "reverse: expected list, got {}",
                    cur.write_string()
                )));
            }
        }
    });
    def(out, "list-ref", Arity::exactly(2), |args| {
        let n = match args[1].as_int() {
            Some(n) if n >= 0 => n as usize,
            _ => {
                return Err(RtError::type_error(format!(
                    "list-ref: bad index {}",
                    args[1]
                )))
            }
        };
        let mut cur = args[0].clone();
        for _ in 0..n {
            cur = expect_pair("list-ref", &cur)?.1.clone();
        }
        Ok(expect_pair("list-ref", &cur)?.0.clone())
    });
    def(out, "list-tail", Arity::exactly(2), |args| {
        let n = match args[1].as_int() {
            Some(n) if n >= 0 => n as usize,
            _ => {
                return Err(RtError::type_error(format!(
                    "list-tail: bad index {}",
                    args[1]
                )))
            }
        };
        let mut cur = args[0].clone();
        for _ in 0..n {
            cur = expect_pair("list-tail", &cur)?.1.clone();
        }
        Ok(cur)
    });

    def(out, "first", Arity::exactly(1), |args| {
        Ok(expect_pair("first", &args[0])?.0.clone())
    });
    def(out, "rest", Arity::exactly(1), |args| {
        Ok(expect_pair("rest", &args[0])?.1.clone())
    });
    def(out, "second", Arity::exactly(1), |args| {
        let cdr = expect_pair("second", &args[0])?.1.clone();
        Ok(expect_pair("second", &cdr)?.0.clone())
    });
    def(out, "third", Arity::exactly(1), |args| {
        let cdr = expect_pair("third", &args[0])?.1.clone();
        let cddr = expect_pair("third", &cdr)?.1.clone();
        Ok(expect_pair("third", &cddr)?.0.clone())
    });
    def(out, "last", Arity::exactly(1), |args| {
        args[0]
            .list_to_vec()
            .and_then(|v| v.last().cloned())
            .ok_or_else(|| RtError::type_error("last: expected non-empty list"))
    });

    def(out, "memq", Arity::exactly(2), |args| {
        member_by(args, Value::eq_identity)
    });
    def(out, "memv", Arity::exactly(2), |args| {
        member_by(args, Value::eqv)
    });
    def(out, "member", Arity::exactly(2), |args| {
        member_by(args, Value::equal)
    });
    def(out, "assq", Arity::exactly(2), |args| {
        assoc_by(args, Value::eq_identity)
    });
    def(out, "assv", Arity::exactly(2), |args| {
        assoc_by(args, Value::eqv)
    });
    def(out, "assoc", Arity::exactly(2), |args| {
        assoc_by(args, Value::equal)
    });
}

fn member_by(args: &[Value], eq: fn(&Value, &Value) -> bool) -> Result<Value, RtError> {
    let mut cur = args[1].clone();
    loop {
        if cur.is_nil() {
            return Ok(Value::Bool(false));
        }
        if let Some(p) = cur.as_pair() {
            if eq(&p.0, &args[0]) {
                return Ok(cur.clone());
            }
            let next = p.1.clone();
            cur = next;
        } else {
            return Err(RtError::type_error(format!(
                "member: expected list, got {}",
                cur.write_string()
            )));
        }
    }
}

fn assoc_by(args: &[Value], eq: fn(&Value, &Value) -> bool) -> Result<Value, RtError> {
    let mut cur = args[1].clone();
    loop {
        if cur.is_nil() {
            return Ok(Value::Bool(false));
        }
        if let Some(p) = cur.as_pair() {
            if let Some(entry) = p.0.as_pair() {
                if eq(&entry.0, &args[0]) {
                    return Ok(p.0.clone());
                }
            }
            let next = p.1.clone();
            cur = next;
        } else {
            return Err(RtError::type_error(format!(
                "assoc: expected list of pairs, got {}",
                cur.write_string()
            )));
        }
    }
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
            .unwrap();
        let n = v.as_native().expect("primitive is native");
        (n.f)(args)
    }

    fn ilist(ns: &[i64]) -> Value {
        Value::list(ns.iter().map(|n| Value::Int(*n)).collect::<Vec<_>>())
    }

    #[test]
    fn cons_car_cdr() {
        let p = call("cons", &[Value::Int(1), Value::Int(2)]).unwrap();
        assert_eq!(
            call("car", std::slice::from_ref(&p)).unwrap().as_int(),
            Some(1)
        );
        assert_eq!(call("cdr", &[p]).unwrap().as_int(), Some(2));
        assert!(call("car", &[Value::Int(7)]).is_err());
    }

    #[test]
    fn list_accessors() {
        let l = ilist(&[10, 20, 30]);
        let get = |name: &str| call(name, std::slice::from_ref(&l)).unwrap().as_int();
        assert_eq!(get("length"), Some(3));
        assert_eq!(get("first"), Some(10));
        assert_eq!(get("second"), Some(20));
        assert_eq!(get("third"), Some(30));
        assert_eq!(get("last"), Some(30));
        assert_eq!(
            call("list-ref", &[l.clone(), Value::Int(1)])
                .unwrap()
                .as_int(),
            Some(20)
        );
        assert!(call("list-ref", &[l, Value::Int(5)]).is_err());
    }

    #[test]
    fn append_and_reverse() {
        let r = call("append", &[ilist(&[1, 2]), ilist(&[3])]).unwrap();
        assert!(r.equal(&ilist(&[1, 2, 3])));
        let r = call("reverse", &[ilist(&[1, 2, 3])]).unwrap();
        assert!(r.equal(&ilist(&[3, 2, 1])));
        assert!(call("append", &[]).unwrap().is_nil());
    }

    #[test]
    fn member_family() {
        let l = ilist(&[1, 2, 3]);
        let hit = call("member", &[Value::Int(2), l.clone()]).unwrap();
        assert!(hit.equal(&ilist(&[2, 3])));
        let miss = call("member", &[Value::Int(9), l]).unwrap();
        assert!(!miss.is_truthy());
    }

    #[test]
    fn assoc_family() {
        let alist = Value::list(vec![
            Value::cons(Value::Symbol(Symbol::from("a")), Value::Int(1)),
            Value::cons(Value::Symbol(Symbol::from("b")), Value::Int(2)),
        ]);
        let hit = call("assq", &[Value::Symbol(Symbol::from("b")), alist.clone()]).unwrap();
        assert!(hit.equal(&Value::cons(
            Value::Symbol(Symbol::from("b")),
            Value::Int(2)
        )));
        let miss = call("assq", &[Value::Symbol(Symbol::from("z")), alist]).unwrap();
        assert!(!miss.is_truthy());
    }

    #[test]
    fn length_and_list_p_walk_long_and_improper_lists() {
        let long = ilist(&(0..100_000).collect::<Vec<_>>());
        assert_eq!(
            call("length", std::slice::from_ref(&long))
                .unwrap()
                .as_int(),
            Some(100_000)
        );
        assert!(call("list?", &[long]).unwrap().is_truthy());
        assert_eq!(call("length", &[Value::Nil]).unwrap().as_int(), Some(0));
        let improper = Value::cons(Value::Int(1), Value::cons(Value::Int(2), Value::Int(3)));
        let e = call("length", std::slice::from_ref(&improper)).unwrap_err();
        assert_eq!(e.message, "length: expected list, got '(1 2 . 3)");
        assert!(!call("list?", &[improper]).unwrap().is_truthy());
        assert!(!call("list?", &[Value::Int(3)]).unwrap().is_truthy());
    }

    #[test]
    fn predicates() {
        assert!(call("pair?", &[ilist(&[1])]).unwrap().is_truthy());
        assert!(call("null?", &[Value::Nil]).unwrap().is_truthy());
        assert!(call("list?", &[ilist(&[1, 2])]).unwrap().is_truthy());
        assert!(!call("list?", &[Value::cons(Value::Int(1), Value::Int(2))])
            .unwrap()
            .is_truthy());
    }
}
