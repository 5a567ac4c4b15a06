//! The tree-walking AST interpreter.
//!
//! This is Lagoon's reference engine: simple, obviously correct, and slow.
//! It serves two roles:
//!
//! 1. **Phase-1 evaluation.** Macro transformers are Lagoon procedures run
//!    at compile time; the expander evaluates them with this interpreter.
//! 2. **Comparator engine.** The benchmark harness runs every program on
//!    this engine, the bytecode VM, and the VM-plus-optimizer, standing in
//!    for the multi-compiler spread of the paper's figures (see DESIGN.md).
//!
//! Tail calls are iterative ([`Interp::apply`] loops), so tail-recursive
//! hosted loops run in constant Rust stack.

use crate::engine::{
    apply_contracted, arity_error, call_native, not_a_procedure, splice_intercepted, Engine,
};
use crate::ir::{CoreExpr, CoreForm, LambdaCore};
use lagoon_runtime::{Arity, Closure, Kind, RtError, Value};
use lagoon_syntax::{Span, Symbol};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

// Non-tail evaluation recurses through the Rust stack, so each level is
// charged against the shared host-recursion counter in
// `lagoon_diag::limits` (shared with the expander, which can be beneath
// us on the same stack during phase-1 evaluation).
fn enter_eval(span: Option<Span>) -> Result<lagoon_diag::limits::HostDepth, RtError> {
    lagoon_diag::limits::enter_interp().map_err(|e| {
        let mut err = RtError::from(e);
        if let Some(sp) = span {
            err = err.with_span(sp);
        }
        err
    })
}

fn expr_span(expr: &CoreExpr) -> Option<Span> {
    match expr {
        CoreExpr::Var(_, span) | CoreExpr::Set(_, _, span) | CoreExpr::App(_, _, span) => {
            Some(*span)
        }
        _ => None,
    }
}

/// A chained environment frame mapping (globally unique) symbols to
/// values.
#[derive(Debug, Default)]
pub struct Env {
    vars: RefCell<HashMap<Symbol, Value>>,
    parent: Option<Rc<Env>>,
}

impl Env {
    /// A fresh root environment.
    pub fn root() -> Rc<Env> {
        Rc::new(Env::default())
    }

    /// A child frame of `parent`.
    pub fn child(parent: &Rc<Env>) -> Rc<Env> {
        Rc::new(Env {
            vars: RefCell::new(HashMap::new()),
            parent: Some(parent.clone()),
        })
    }

    /// Defines (or redefines) `name` in this frame.
    pub fn define(&self, name: Symbol, value: Value) {
        self.vars.borrow_mut().insert(name, value);
    }

    /// Looks `name` up through the chain.
    pub fn lookup(&self, name: Symbol) -> Option<Value> {
        if let Some(v) = self.vars.borrow().get(&name) {
            return Some(v.clone());
        }
        self.parent.as_ref()?.lookup(name)
    }

    /// Mutates the nearest binding of `name`; false if unbound.
    pub fn assign(&self, name: Symbol, value: Value) -> bool {
        if let Some(slot) = self.vars.borrow_mut().get_mut(&name) {
            *slot = value;
            return true;
        }
        match &self.parent {
            Some(p) => p.assign(name, value),
            None => false,
        }
    }

    /// Empties this frame, so the closures defined in it stop pointing
    /// back at it; one still held elsewhere raises `unbound` when it
    /// next looks up a variable of this frame.
    pub fn clear(&self) {
        self.vars.borrow_mut().clear();
    }

    /// Installs a batch of bindings (e.g. the primitive library).
    pub fn install(&self, bindings: impl IntoIterator<Item = (Symbol, Value)>) {
        let mut vars = self.vars.borrow_mut();
        for (k, v) in bindings {
            vars.insert(k, v);
        }
    }
}

/// The AST interpreter engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct Interp;

enum Step {
    Done(Value),
    Call(Value, Vec<Value>),
}

fn split_body(body: &[CoreExpr]) -> Result<(&CoreExpr, &[CoreExpr]), RtError> {
    body.split_last()
        .ok_or_else(|| RtError::new(Kind::Internal, "empty body in core form"))
}

impl Interp {
    /// Evaluates a sequence of top-level forms; returns the last
    /// expression's value. `define-values` forms bind in `globals`.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn eval_forms(&self, forms: &[CoreForm], globals: &Rc<Env>) -> Result<Value, RtError> {
        let mut last = Value::Void;
        for form in forms {
            match form {
                CoreForm::Define(name, rhs, _) => {
                    let v = self.eval(rhs, globals)?;
                    globals.define(*name, v);
                    last = Value::Void;
                }
                CoreForm::Expr(e) => last = self.eval(e, globals)?,
            }
        }
        Ok(last)
    }

    /// Evaluates one expression to a value.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (unbound variables, type errors, …).
    pub fn eval(&self, expr: &CoreExpr, env: &Rc<Env>) -> Result<Value, RtError> {
        let _depth = enter_eval(expr_span(expr))?;
        match self.eval_step(expr, env)? {
            Step::Done(v) => Ok(v),
            Step::Call(f, args) => self.apply(&f, &args),
        }
    }

    /// Evaluates with the *tail position* returned as a pending call
    /// instead of being performed, enabling the iterative trampoline in
    /// [`Interp::apply`].
    fn eval_step(&self, expr: &CoreExpr, env: &Rc<Env>) -> Result<Step, RtError> {
        let mut expr = expr;
        let mut env = env.clone();
        loop {
            if let Err(e) = lagoon_diag::limits::interp_step() {
                let mut err = RtError::from(e);
                if let Some(sp) = expr_span(expr) {
                    err = err.with_span(sp);
                }
                return Err(err);
            }
            match expr {
                CoreExpr::Quote(v) => return Ok(Step::Done(v.clone())),
                CoreExpr::QuoteSyntax(s) => return Ok(Step::Done(Value::Syntax(s.clone()))),
                CoreExpr::Var(name, span) => {
                    return env
                        .lookup(*name)
                        .map(Step::Done)
                        .ok_or_else(|| RtError::unbound(*name).with_span(*span))
                }
                CoreExpr::If(c, t, e) => {
                    expr = if self.eval(c, &env)?.is_truthy() {
                        t
                    } else {
                        e
                    };
                }
                CoreExpr::Begin(body) => {
                    let (last, init) = split_body(body)?;
                    for e in init {
                        self.eval(e, &env)?;
                    }
                    expr = last;
                }
                CoreExpr::Lambda(lam) => {
                    return Ok(Step::Done(make_closure(lam, &env)));
                }
                CoreExpr::Let(bindings, body) => {
                    let frame = Env::child(&env);
                    for (name, rhs) in bindings {
                        let v = self.eval(rhs, &env)?;
                        frame.define(*name, v);
                    }
                    env = frame;
                    let (last, init) = split_body(body)?;
                    for e in init {
                        self.eval(e, &env)?;
                    }
                    expr = last;
                }
                CoreExpr::Letrec(bindings, body) => {
                    let frame = Env::child(&env);
                    for (name, _) in bindings {
                        frame.define(*name, Value::Void);
                    }
                    for (name, rhs) in bindings {
                        let v = self.eval(rhs, &frame)?;
                        frame.define(*name, v);
                    }
                    env = frame;
                    let (last, init) = split_body(body)?;
                    for e in init {
                        self.eval(e, &env)?;
                    }
                    expr = last;
                }
                CoreExpr::Set(name, rhs, span) => {
                    let v = self.eval(rhs, &env)?;
                    if !env.assign(*name, v) {
                        return Err(RtError::unbound(*name).with_span(*span));
                    }
                    return Ok(Step::Done(Value::Void));
                }
                CoreExpr::App(f, args, span) => {
                    let fv = self.eval(f, &env)?;
                    let mut argv = Vec::with_capacity(args.len());
                    for a in args {
                        argv.push(self.eval(a, &env)?);
                    }
                    if !fv.is_procedure() {
                        return Err(not_a_procedure(&fv).with_span(*span));
                    }
                    return Ok(Step::Call(fv, argv));
                }
            }
        }
    }
}

fn make_closure(lam: &Rc<LambdaCore>, env: &Rc<Env>) -> Value {
    let arity = if lam.rest.is_some() {
        Arity::at_least(lam.formals.len())
    } else {
        Arity::exactly(lam.formals.len())
    };
    Value::Closure(Rc::new(Closure::new(
        lam.name,
        arity,
        lam.clone(),
        env.clone(),
    )))
}

impl Engine for Interp {
    fn apply(&self, f: &Value, args: &[Value]) -> Result<Value, RtError> {
        let mut f = f.clone();
        let mut args = args.to_vec();
        loop {
            if let Some(n) = f.as_native() {
                if let Some(intercept) = n.intercept {
                    (f, args) = splice_intercepted(self, intercept, &args)?;
                    continue;
                }
                return call_native(n, &args);
            }
            if let Some(c) = f.as_contracted() {
                return apply_contracted(self, c, &args);
            }
            if let Some(c) = f.as_closure() {
                let (lam, parent) = c.payload::<LambdaCore, Env>().ok_or_else(|| {
                    RtError::new(
                        Kind::Internal,
                        "closure from a different engine applied by the interpreter",
                    )
                })?;
                if !c.arity.accepts(args.len()) {
                    return Err(arity_error(c.name, c.arity, args.len()));
                }
                let frame = Env::child(&parent);
                for (name, v) in lam.formals.iter().zip(args.iter()) {
                    frame.define(*name, v.clone());
                }
                if let Some(rest) = lam.rest {
                    frame.define(rest, Value::list(args[lam.formals.len()..].to_vec()));
                }
                let (last, init) = split_body(&lam.body)?;
                for e in init {
                    self.eval(e, &frame)?;
                }
                match self.eval_step(last, &frame)? {
                    Step::Done(v) => return Ok(v),
                    Step::Call(nf, nargs) => {
                        f = nf;
                        args = nargs;
                    }
                }
                continue;
            }
            return Err(not_a_procedure(&f));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::parse_form;
    use lagoon_syntax::read_all;

    fn run(src: &str) -> Result<Value, RtError> {
        let globals = Env::root();
        globals.install(lagoon_runtime::prim::primitives());
        globals.install([
            crate::engine::apply_placeholder(),
            crate::engine::cwv_placeholder(),
        ]);
        let forms = read_all(src, "<t>")
            .unwrap()
            .iter()
            .map(parse_form)
            .collect::<Result<Vec<_>, _>>()?;
        Interp.eval_forms(&forms, &globals)
    }

    #[test]
    fn literals_and_prims() {
        assert_eq!(run("(#%plain-app + 1 2)").unwrap().as_int(), Some(3));
        assert!(run("(quote (1 2))").unwrap().as_pair().is_some());
        assert_eq!(run("(if #f 1 2)").unwrap().as_int(), Some(2));
    }

    #[test]
    fn lambda_and_application() {
        let v = run("(#%plain-app (#%plain-lambda (x y) (#%plain-app * x y)) 6 7)").unwrap();
        assert_eq!(v.as_int(), Some(42));
    }

    #[test]
    fn closures_capture() {
        let v = run(
            "(define-values (make-adder) (#%plain-lambda (n) (#%plain-lambda (m) (#%plain-app + n m))))
             (define-values (add3) (#%plain-app make-adder 3))
             (#%plain-app add3 4)",
        )
        .unwrap();
        assert_eq!(v.as_int(), Some(7));
    }

    #[test]
    fn rest_arguments() {
        let v = run("(#%plain-app (#%plain-lambda (x . rest) rest) 1 2 3)").unwrap();
        assert_eq!(v.list_to_vec().unwrap().len(), 2);
    }

    #[test]
    fn let_and_letrec() {
        let v = run("(let-values ([(x) 2] [(y) 3]) (#%plain-app + x y))").unwrap();
        assert_eq!(v.as_int(), Some(5));
        let v = run(
            "(letrec-values ([(even?) (#%plain-lambda (n) (if (#%plain-app = n 0) #t (#%plain-app odd? (#%plain-app - n 1))))]
                             [(odd?) (#%plain-lambda (n) (if (#%plain-app = n 0) #f (#%plain-app even? (#%plain-app - n 1))))])
               (#%plain-app even? 10))",
        )
        .unwrap();
        assert!(v.is_truthy());
    }

    #[test]
    fn set_mutates() {
        let v = run("(define-values (x) 1)
             (set! x 5)
             x")
        .unwrap();
        assert_eq!(v.as_int(), Some(5));
        assert!(run("(set! nope 1)").is_err());
    }

    #[test]
    fn tail_recursion_is_constant_stack() {
        // one million iterations: would overflow the Rust stack if tail
        // calls consumed frames
        let v = run(
            "(define-values (loop)
               (#%plain-lambda (n acc)
                 (if (#%plain-app = n 0) acc (#%plain-app loop (#%plain-app - n 1) (#%plain-app + acc 1)))))
             (#%plain-app loop 1000000 0)",
        )
        .unwrap();
        assert_eq!(v.as_int(), Some(1_000_000));
    }

    #[test]
    fn closures_from_one_lambda_share_its_code() {
        let v = run(
            "(define-values (mk) (#%plain-lambda () (#%plain-lambda (x) x)))
             (#%plain-app list (#%plain-app mk) (#%plain-app mk))",
        )
        .unwrap();
        let closures = v.list_to_vec().unwrap();
        let (a, b) = (
            closures[0].as_closure().unwrap(),
            closures[1].as_closure().unwrap(),
        );
        assert!(!std::ptr::eq(a, b), "two closures");
        let code = |c: &Closure| c.payload::<LambdaCore, Env>().unwrap().0;
        assert!(Rc::ptr_eq(&code(a), &code(b)), "one shared lambda");
    }

    #[test]
    fn apply_spreads() {
        let v = run("(#%plain-app apply + 1 (quote (2 3)))").unwrap();
        assert_eq!(v.as_int(), Some(6));
    }

    #[test]
    fn errors_propagate() {
        assert!(run("(#%plain-app car 5)").is_err());
        assert!(run("unbound-var").is_err());
        assert!(run("(#%plain-app 5 1)").is_err());
        let e = run("(#%plain-app (#%plain-lambda (x) x) 1 2)").unwrap_err();
        assert_eq!(e.kind, Kind::Arity);
    }

    #[test]
    fn begin_sequences() {
        let v = run("(define-values (b) (#%plain-app box 0))
             (begin (#%plain-app set-box! b 1) (#%plain-app unbox b))")
        .unwrap();
        assert_eq!(v.as_int(), Some(1));
    }
}
