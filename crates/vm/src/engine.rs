//! The engine abstraction and contract-checking application.
//!
//! Lagoon has two execution engines — the [tree-walking
//! interpreter](crate::interp) and the [bytecode VM](crate::machine). Both
//! implement [`Engine::apply`], and both route applications of
//! [`Contracted`] procedures through [`apply_contracted`] so that
//! typed/untyped boundary checks behave identically regardless of engine
//! (paper §6.1).

use lagoon_runtime::{apply_contract, Contract, Contracted, RtError, Value};

/// Anything that can apply a Lagoon procedure to arguments.
pub trait Engine {
    /// Applies `f` to `args`, running to completion.
    ///
    /// # Errors
    ///
    /// Propagates any runtime error raised by the procedure.
    fn apply(&self, f: &Value, args: &[Value]) -> Result<Value, RtError>;
}

/// Applies a contract-wrapped procedure: checks each argument against the
/// domain contracts (blaming the *negative* party — the client — on
/// failure), calls the inner procedure, then checks the result against the
/// range contract (blaming the *positive* party — the implementation).
///
/// Higher-order domain contracts swap the blame parties, as usual for
/// function contracts.
///
/// # Errors
///
/// Returns a contract violation with the appropriate blame, or any error
/// raised by the wrapped procedure.
pub fn apply_contracted(
    engine: &dyn Engine,
    c: &Contracted,
    args: &[Value],
) -> Result<Value, RtError> {
    if lagoon_diag::enabled() {
        lagoon_diag::contract_crossing(c.inner.procedure_name(), c.positive, c.negative);
    }
    let Contract::Function(doms, rng) = &c.contract else {
        return Err(RtError::new(
            lagoon_runtime::Kind::Internal,
            "contracted value does not carry a function contract",
        ));
    };
    if doms.len() != args.len() {
        return Err(RtError::contract(
            c.negative,
            format!(
                "expected {} argument(s) per contract {}, got {}",
                doms.len(),
                c.contract,
                args.len()
            ),
        ));
    }
    let mut checked = Vec::with_capacity(args.len());
    for (dom, arg) in doms.iter().zip(args) {
        // Blame parties swap for the domain: the client (negative) promised
        // the argument satisfies `dom`.
        checked.push(apply_contract(arg.clone(), dom, c.negative, c.positive)?);
    }
    let result = engine.apply(&c.inner, &checked)?;
    apply_contract(result, rng, c.positive, c.negative)
}

/// Flattens an `apply` invocation: `(apply f a b '(c d))` becomes
/// `f` applied to `[a b c d]`.
///
/// # Errors
///
/// Returns a type error if the last argument is not a proper list or too
/// few arguments were supplied.
pub fn splice_apply_args(args: &[Value]) -> Result<(Value, Vec<Value>), RtError> {
    let (f, rest) = args
        .split_first()
        .ok_or_else(|| RtError::arity("apply: expects a procedure and a list"))?;
    let (last, mids) = rest
        .split_last()
        .ok_or_else(|| RtError::arity("apply: expects a final argument list"))?;
    let tail = last.list_to_vec().ok_or_else(|| {
        RtError::type_error(format!(
            "apply: last argument must be a list, got {}",
            last.write_string()
        ))
    })?;
    let mut all = mids.to_vec();
    all.extend(tail);
    Ok((f.clone(), all))
}

/// True when `v` is the distinguished `apply` primitive, which engines must
/// intercept (its behaviour needs the engine itself).
pub fn is_apply_native(v: &Value) -> bool {
    v.as_native()
        .is_some_and(|n| n.name == lagoon_syntax::Symbol::intern("apply"))
}

/// The placeholder `apply` primitive; engines intercept applications of it
/// before the fallback body (which only reports a misuse) can run.
pub fn apply_placeholder() -> (lagoon_syntax::Symbol, Value) {
    let name = lagoon_syntax::Symbol::intern("apply");
    (
        name,
        lagoon_runtime::Native::value("apply", lagoon_runtime::Arity::at_least(2), |_| {
            Err(RtError::new(
                lagoon_runtime::Kind::Internal,
                "apply must be handled by an execution engine",
            ))
        }),
    )
}

/// Reduces a `call-with-values` invocation to an ordinary call: runs the
/// producer through `engine`, unpacks its (possibly multiple) result, and
/// returns the consumer with the unpacked argument list.
///
/// # Errors
///
/// Propagates producer errors; errors on an argument-count mismatch.
pub fn splice_cwv_args(
    engine: &dyn Engine,
    args: &[Value],
) -> Result<(Value, Vec<Value>), RtError> {
    let [producer, consumer] = args else {
        return Err(RtError::arity(
            "call-with-values: expects a producer and a consumer",
        ));
    };
    let produced = engine.apply(producer, &[])?;
    let vals = if let Some(vs) = produced.as_values() {
        vs.to_vec()
    } else {
        vec![produced]
    };
    Ok((consumer.clone(), vals))
}

/// True when `v` is the distinguished `call-with-values` primitive, which
/// engines must intercept (running the producer needs the engine itself).
pub fn is_cwv_native(v: &Value) -> bool {
    v.as_native()
        .is_some_and(|n| n.name == lagoon_syntax::Symbol::intern("call-with-values"))
}

/// The placeholder `call-with-values` primitive; engines intercept
/// applications of it before the fallback body can run.
pub fn cwv_placeholder() -> (lagoon_syntax::Symbol, Value) {
    let name = lagoon_syntax::Symbol::intern("call-with-values");
    (
        name,
        lagoon_runtime::Native::value(
            "call-with-values",
            lagoon_runtime::Arity::exactly(2),
            |_| {
                Err(RtError::new(
                    lagoon_runtime::Kind::Internal,
                    "call-with-values must be handled by an execution engine",
                ))
            },
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagoon_runtime::{Arity, Native};

    struct NativeOnly;
    impl Engine for NativeOnly {
        fn apply(&self, f: &Value, args: &[Value]) -> Result<Value, RtError> {
            if let Some(n) = f.as_native() {
                (n.f)(args)
            } else if let Some(c) = f.as_contracted() {
                apply_contracted(self, c, args)
            } else {
                Err(RtError::type_error("not applicable"))
            }
        }
    }

    fn inc() -> Value {
        Native::value("inc", Arity::exactly(1), |args| {
            lagoon_runtime::number::add(&args[0], &Value::Int(1))
        })
    }

    fn wrap(v: Value, doms: Vec<Contract>, rng: Contract) -> Value {
        apply_contract(
            v,
            &Contract::Function(doms, Box::new(rng)),
            lagoon_syntax::Symbol::from("server"),
            lagoon_syntax::Symbol::from("client"),
        )
        .unwrap()
    }

    #[test]
    fn good_call_passes() {
        let f = wrap(inc(), vec![Contract::Integer], Contract::Integer);
        let r = NativeOnly.apply(&f, &[Value::Int(1)]).unwrap();
        assert_eq!(r.as_int(), Some(2));
    }

    #[test]
    fn bad_argument_blames_client() {
        let f = wrap(inc(), vec![Contract::Integer], Contract::Integer);
        let e = NativeOnly.apply(&f, &[Value::string("no")]).unwrap_err();
        match e.kind {
            lagoon_runtime::Kind::Contract { blame } => {
                assert_eq!(blame.as_str(), "client")
            }
            _ => panic!("expected contract error, got {e}"),
        }
    }

    #[test]
    fn bad_result_blames_server() {
        // server promises a string but returns an integer
        let f = wrap(inc(), vec![Contract::Integer], Contract::Str);
        let e = NativeOnly.apply(&f, &[Value::Int(1)]).unwrap_err();
        match e.kind {
            lagoon_runtime::Kind::Contract { blame } => {
                assert_eq!(blame.as_str(), "server")
            }
            _ => panic!("expected contract error, got {e}"),
        }
    }

    #[test]
    fn arity_mismatch_blames_client() {
        let f = wrap(inc(), vec![Contract::Integer], Contract::Integer);
        let e = NativeOnly.apply(&f, &[]).unwrap_err();
        assert!(matches!(e.kind, lagoon_runtime::Kind::Contract { .. }));
    }

    #[test]
    fn splice_apply() {
        let (f, args) = splice_apply_args(&[
            inc(),
            Value::Int(1),
            Value::list(vec![Value::Int(2), Value::Int(3)]),
        ])
        .unwrap();
        assert!(f.is_procedure());
        assert_eq!(args.len(), 3);
        assert!(splice_apply_args(&[inc(), Value::Int(1)]).is_err());
    }
}
