//! The bytecode compiler: core forms → [`Proto`]s.
//!
//! Responsibilities:
//!
//! * slot assignment for locals, capture threading for free variables,
//!   global-slot layout for everything else;
//! * assignment conversion — variables that are `set!` (and all
//!   `letrec`-bound variables) live in boxes, so capture-by-value closures
//!   observe mutation;
//! * **primitive specialization** — a call to a known primitive (generic
//!   like `+`, or unsafe like `unsafe-fl+`) with a matching argument count
//!   compiles to a dedicated instruction instead of a procedure call. The
//!   `unsafe-*` instructions skip tag dispatch entirely; this is the
//!   backend channel the paper's optimizer communicates through (§7.1);
//! * **operand addressing** — an operand that is a constant or an
//!   unmutated local is named in place ([`Arg`]) instead of being pushed,
//!   and a comparison or predicate that an `if` tests becomes a branch
//!   form carrying the jump target. Generic and `unsafe-*` instructions
//!   get the same treatment, so a specialized instruction never costs
//!   more dispatches than the generic one it replaces.
//!
//! Precondition (guaranteed by the expander): all bindings are globally
//! uniquely named, so a reference spelled `+` can only denote the base
//! environment's `+`.

use crate::bytecode::{specialized_op, Arg, CaptureSrc, ModuleCode, Op, PrimOp, Proto};
use crate::ir::{CoreExpr, CoreForm, LambdaCore};
use lagoon_runtime::{Arity, Kind, RtError, Value};
use lagoon_syntax::Symbol;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

#[derive(Debug)]
struct FnScope {
    name: Option<Symbol>,
    arity: Arity,
    locals: HashMap<Symbol, u32>,
    nlocals: u32,
    capture_names: Vec<Symbol>,
    capture_srcs: Vec<CaptureSrc>,
    code: Vec<Op>,
    /// The code position the last patched jump lands on.
    label: Option<usize>,
    consts: Vec<Value>,
    protos: Vec<Rc<Proto>>,
}

impl FnScope {
    fn new(name: Option<Symbol>, arity: Arity) -> FnScope {
        FnScope {
            name,
            arity,
            locals: HashMap::new(),
            nlocals: 0,
            capture_names: Vec::new(),
            capture_srcs: Vec::new(),
            code: Vec::new(),
            label: None,
            consts: Vec::new(),
            protos: Vec::new(),
        }
    }

    fn alloc_local(&mut self, sym: Symbol) -> u32 {
        let slot = self.nlocals;
        self.nlocals += 1;
        self.locals.insert(sym, slot);
        slot
    }

    fn add_const(&mut self, v: Value) -> u32 {
        let idx = self.consts.len() as u32;
        self.consts.push(v);
        idx
    }

    fn emit(&mut self, op: Op) -> usize {
        self.code.push(op);
        self.code.len() - 1
    }

    /// Ends an `if` test: a trailing comparison or predicate becomes
    /// its branch form, anything else is followed by `JumpIfFalse`.
    /// Returns the position to patch with the else target. A comparison
    /// that a jump lands just after stays as it is, because that jump
    /// expects the `JumpIfFalse` there.
    fn emit_test_jump(&mut self) -> usize {
        let at = self.code.len();
        if self.label != Some(at) {
            if let Some(last) = self.code.last_mut() {
                if let Some(br) = last.branch_form(0) {
                    *last = br;
                    return at - 1;
                }
            }
        }
        self.emit(Op::JumpIfFalse(0))
    }

    fn patch_jump(&mut self, at: usize) {
        let here = self.code.len();
        self.label = Some(here);
        match self.code[at].target_mut() {
            Some(t) => *t = here as u32,
            None => unreachable!("patching non-jump {:?}", self.code[at]),
        }
    }

    fn finish(self) -> Proto {
        Proto {
            name: self.name,
            arity: self.arity,
            nlocals: self.nlocals,
            captures: self.capture_srcs,
            code: self.code,
            consts: self.consts,
            protos: self.protos,
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Resolved {
    Local(u32),
    Capture(u32),
    Global(u32),
}

/// The bytecode compiler. One instance compiles one module.
#[derive(Debug)]
pub struct Compiler {
    fns: Vec<FnScope>,
    globals: HashMap<Symbol, u32>,
    global_names: Vec<Symbol>,
    defined: HashSet<Symbol>,
    mutated: HashSet<Symbol>,
}

impl Compiler {
    /// Compiles a module body to bytecode.
    ///
    /// # Errors
    ///
    /// Returns an internal error for malformed input (which the expander
    /// should never produce).
    pub fn compile_module(forms: &[CoreForm]) -> Result<ModuleCode, RtError> {
        let mut c = Compiler {
            fns: vec![FnScope::new(None, Arity::exactly(0))],
            globals: HashMap::new(),
            global_names: Vec::new(),
            defined: HashSet::new(),
            mutated: HashSet::new(),
        };
        for form in forms {
            match form {
                CoreForm::Define(name, rhs, _) => {
                    c.defined.insert(*name);
                    collect_mutated(rhs, &mut c.mutated);
                }
                CoreForm::Expr(e) => collect_mutated(e, &mut c.mutated),
            }
        }
        if forms.is_empty() {
            c.fns[0].emit(Op::Void);
        }
        for (i, form) in forms.iter().enumerate() {
            let last = i + 1 == forms.len();
            match form {
                CoreForm::Define(name, rhs, _) => {
                    c.compile_expr(rhs, false)?;
                    let g = c.global_index(*name);
                    c.top().emit(Op::StoreGlobal(g));
                    c.top().emit(Op::Void);
                }
                CoreForm::Expr(e) => {
                    c.compile_expr(e, false)?;
                }
            }
            if !last {
                c.top().emit(Op::Pop);
            }
        }
        c.top().emit(Op::Return);
        let top = c
            .fns
            .pop()
            .ok_or_else(|| RtError::new(Kind::Internal, "compiler lost its top scope"))?;
        let top = Rc::new(top.finish());
        // sorted so the artifact encoding is deterministic: HashSet
        // iteration order varies with interner state, and `.lagc`
        // bytes must be a pure function of module content
        let mut defined: Vec<u32> = c
            .defined
            .iter()
            .filter_map(|s| c.globals.get(s).copied())
            .collect();
        defined.sort_unstable();
        crate::peephole::record(count_fused(&top));
        Ok(ModuleCode {
            top,
            global_names: c.global_names,
            defined,
        })
    }

    // `fns` is non-empty between the pushes in `compile_module` /
    // `compile_lambda` and their matching pops, which bracket every call
    #[allow(clippy::expect_used)]
    fn top(&mut self) -> &mut FnScope {
        self.fns.last_mut().expect("function scope")
    }

    fn global_index(&mut self, sym: Symbol) -> u32 {
        if let Some(&i) = self.globals.get(&sym) {
            return i;
        }
        let i = self.global_names.len() as u32;
        self.global_names.push(sym);
        self.globals.insert(sym, i);
        i
    }

    fn resolve(&mut self, sym: Symbol) -> Resolved {
        let depth = self.fns.len() - 1;
        if let Some(&slot) = self.fns[depth].locals.get(&sym) {
            return Resolved::Local(slot);
        }
        // find in an enclosing scope
        let mut found: Option<(usize, CaptureSrc)> = None;
        for d in (0..depth).rev() {
            if let Some(&slot) = self.fns[d].locals.get(&sym) {
                found = Some((d, CaptureSrc::Local(slot)));
                break;
            }
            if let Some(pos) = self.fns[d].capture_names.iter().position(|n| *n == sym) {
                found = Some((d, CaptureSrc::Capture(pos as u32)));
                break;
            }
        }
        match found {
            None => Resolved::Global(self.global_index(sym)),
            Some((d, mut src)) => {
                // thread the capture through every intermediate function
                for f in d + 1..=depth {
                    let scope = &mut self.fns[f];
                    let idx = match scope.capture_names.iter().position(|n| *n == sym) {
                        Some(i) => i as u32,
                        None => {
                            scope.capture_names.push(sym);
                            scope.capture_srcs.push(src);
                            (scope.capture_names.len() - 1) as u32
                        }
                    };
                    src = CaptureSrc::Capture(idx);
                }
                Resolved::Capture(match src {
                    CaptureSrc::Capture(i) => i,
                    CaptureSrc::Local(_) => unreachable!("threaded capture"),
                })
            }
        }
    }

    fn emit_load(&mut self, sym: Symbol) {
        let boxed = self.mutated.contains(&sym);
        let r = self.resolve(sym);
        let scope = self.top();
        match r {
            Resolved::Local(i) => {
                scope.emit(Op::LoadLocal(i));
                if boxed {
                    scope.emit(Op::BoxGet);
                }
            }
            Resolved::Capture(i) => {
                scope.emit(Op::LoadCapture(i));
                if boxed {
                    scope.emit(Op::BoxGet);
                }
            }
            Resolved::Global(i) => {
                scope.emit(Op::LoadGlobal(i));
            }
        }
    }

    fn compile_body(&mut self, body: &[CoreExpr], tail: bool) -> Result<(), RtError> {
        let (last, init) = body
            .split_last()
            .ok_or_else(|| RtError::new(Kind::Internal, "empty body in core form"))?;
        for e in init {
            self.compile_expr(e, false)?;
            self.top().emit(Op::Pop);
        }
        self.compile_expr(last, tail)
    }

    fn compile_lambda(&mut self, lam: &LambdaCore) -> Result<(), RtError> {
        let arity = if lam.rest.is_some() {
            Arity::at_least(lam.formals.len())
        } else {
            Arity::exactly(lam.formals.len())
        };
        self.fns.push(FnScope::new(lam.name, arity));
        for f in &lam.formals {
            self.top().alloc_local(*f);
        }
        if let Some(rest) = lam.rest {
            self.top().alloc_local(rest);
        }
        // assignment-convert mutated parameters
        let param_count = lam.formals.len() + usize::from(lam.rest.is_some());
        let params: Vec<Symbol> = lam.formals.iter().copied().chain(lam.rest).collect();
        debug_assert_eq!(params.len(), param_count);
        for (i, p) in params.iter().enumerate() {
            if self.mutated.contains(p) {
                let scope = self.top();
                scope.emit(Op::LoadLocal(i as u32));
                scope.emit(Op::BoxNew);
                scope.emit(Op::StoreLocal(i as u32));
            }
        }
        self.compile_body(&lam.body, true)?;
        self.top().emit(Op::Return);
        let proto = self
            .fns
            .pop()
            .ok_or_else(|| RtError::new(Kind::Internal, "compiler lost its lambda scope"))?;
        let proto = Rc::new(proto.finish());
        let scope = self.top();
        let idx = scope.protos.len() as u32;
        scope.protos.push(proto);
        scope.emit(Op::MakeClosure(idx));
        Ok(())
    }

    fn compile_expr(&mut self, expr: &CoreExpr, tail: bool) -> Result<(), RtError> {
        match expr {
            CoreExpr::Quote(v) => {
                let k = self.top().add_const(v.clone());
                self.top().emit(Op::Const(k));
            }
            CoreExpr::QuoteSyntax(s) => {
                let k = self.top().add_const(Value::Syntax(s.clone()));
                self.top().emit(Op::Const(k));
            }
            CoreExpr::Var(sym, _) => self.emit_load(*sym),
            CoreExpr::If(c, t, e) => {
                self.compile_expr(c, false)?;
                let jf = self.top().emit_test_jump();
                self.compile_expr(t, tail)?;
                let j = self.top().emit(Op::Jump(0));
                self.top().patch_jump(jf);
                self.compile_expr(e, tail)?;
                self.top().patch_jump(j);
            }
            CoreExpr::Begin(body) => self.compile_body(body, tail)?,
            CoreExpr::Lambda(lam) => self.compile_lambda(lam)?,
            CoreExpr::Let(bindings, body) => {
                for (name, rhs) in bindings {
                    self.compile_expr(rhs, false)?;
                    if self.mutated.contains(name) {
                        self.top().emit(Op::BoxNew);
                    }
                    let slot = self.top().alloc_local(*name);
                    self.top().emit(Op::StoreLocal(slot));
                }
                self.compile_body(body, tail)?;
            }
            CoreExpr::Letrec(bindings, body) => {
                // all letrec-bound names are boxed (collect_mutated marks them)
                let mut slots = Vec::with_capacity(bindings.len());
                for (name, _) in bindings {
                    let scope = self.top();
                    scope.emit(Op::Void);
                    scope.emit(Op::BoxNew);
                    let slot = self.top().alloc_local(*name);
                    self.top().emit(Op::StoreLocal(slot));
                    slots.push(slot);
                }
                for ((_, rhs), slot) in bindings.iter().zip(&slots) {
                    self.top().emit(Op::LoadLocal(*slot));
                    self.compile_expr(rhs, false)?;
                    let scope = self.top();
                    scope.emit(Op::BoxSet);
                    scope.emit(Op::Pop);
                }
                self.compile_body(body, tail)?;
            }
            CoreExpr::Set(sym, rhs, _span) => match self.resolve(*sym) {
                Resolved::Local(i) => {
                    self.top().emit(Op::LoadLocal(i));
                    self.compile_expr(rhs, false)?;
                    self.top().emit(Op::BoxSet);
                }
                Resolved::Capture(i) => {
                    self.top().emit(Op::LoadCapture(i));
                    self.compile_expr(rhs, false)?;
                    self.top().emit(Op::BoxSet);
                }
                Resolved::Global(i) => {
                    self.compile_expr(rhs, false)?;
                    let scope = self.top();
                    scope.emit(Op::StoreGlobal(i));
                    scope.emit(Op::Void);
                }
            },
            CoreExpr::App(f, args, _) => {
                // primitive specialization: a head that is a free reference
                // to a known primitive with a matching argument count
                if let CoreExpr::Var(sym, _) = &**f {
                    let is_local = self
                        .fns
                        .iter()
                        .any(|s| s.locals.contains_key(sym) || s.capture_names.contains(sym));
                    if !is_local && !self.defined.contains(sym) {
                        if let Some(prim) = sym.with_str(|n| specialized_op(n, args.len())) {
                            let op = match prim {
                                PrimOp::Stack(op) => {
                                    for a in args {
                                        self.compile_expr(a, false)?;
                                    }
                                    op
                                }
                                PrimOp::Unary(op) => op(self.compile_operand(&args[0])?),
                                PrimOp::Binary(op) => {
                                    let a = self.compile_operand(&args[0])?;
                                    op(a, self.compile_operand(&args[1])?)
                                }
                            };
                            self.top().emit(op);
                            return Ok(());
                        }
                    }
                }
                self.compile_expr(f, false)?;
                for a in args {
                    self.compile_expr(a, false)?;
                }
                let n = u16::try_from(args.len())
                    .map_err(|_| RtError::new(Kind::Internal, "too many arguments in one call"))?;
                self.top()
                    .emit(if tail { Op::TailCall(n) } else { Op::Call(n) });
            }
        }
        Ok(())
    }

    /// Compiles one operand of an addressed instruction: a constant or
    /// an unmutated local is named in place, anything else is evaluated
    /// onto the stack. A local's slot is written only when its binding
    /// is initialized, so reading it when the instruction runs sees the
    /// same value as pushing it first would have.
    fn compile_operand(&mut self, expr: &CoreExpr) -> Result<Arg, RtError> {
        let addressed = match expr {
            CoreExpr::Quote(v) => {
                let k = self.top().add_const(v.clone());
                Arg::constant(k)
            }
            CoreExpr::Var(sym, _) if !self.mutated.contains(sym) => match self.resolve(*sym) {
                Resolved::Local(i) => Arg::local(i),
                Resolved::Capture(_) | Resolved::Global(_) => None,
            },
            _ => None,
        };
        if let Some(arg) = addressed {
            return Ok(arg);
        }
        self.compile_expr(expr, false)?;
        Ok(Arg::STACK)
    }
}

/// How many instructions of `proto` and its children carry a folded
/// operand or a branch target.
fn count_fused(proto: &Proto) -> u64 {
    let own = proto.code.iter().filter(|op| op.is_fused()).count() as u64;
    own + proto.protos.iter().map(|p| count_fused(p)).sum::<u64>()
}

/// Collects every `set!` target and `letrec`-bound name — the variables
/// that must live in boxes.
fn collect_mutated(expr: &CoreExpr, out: &mut HashSet<Symbol>) {
    match expr {
        CoreExpr::Quote(_) | CoreExpr::QuoteSyntax(_) | CoreExpr::Var(_, _) => {}
        CoreExpr::If(c, t, e) => {
            collect_mutated(c, out);
            collect_mutated(t, out);
            collect_mutated(e, out);
        }
        CoreExpr::Begin(body) => body.iter().for_each(|e| collect_mutated(e, out)),
        CoreExpr::Lambda(lam) => lam.body.iter().for_each(|e| collect_mutated(e, out)),
        CoreExpr::Let(bindings, body) => {
            for (_, rhs) in bindings {
                collect_mutated(rhs, out);
            }
            body.iter().for_each(|e| collect_mutated(e, out));
        }
        CoreExpr::Letrec(bindings, body) => {
            for (name, rhs) in bindings {
                out.insert(*name);
                collect_mutated(rhs, out);
            }
            body.iter().for_each(|e| collect_mutated(e, out));
        }
        CoreExpr::Set(name, rhs, _) => {
            out.insert(*name);
            collect_mutated(rhs, out);
        }
        CoreExpr::App(f, args, _) => {
            collect_mutated(f, out);
            args.iter().for_each(|a| collect_mutated(a, out));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::parse_form;
    use lagoon_syntax::read_all;

    fn compile(src: &str) -> ModuleCode {
        let forms = read_all(src, "<t>")
            .unwrap()
            .iter()
            .map(parse_form)
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        Compiler::compile_module(&forms).unwrap()
    }

    const S: Arg = Arg::STACK;

    fn l(i: u32) -> Arg {
        Arg::local(i).unwrap()
    }

    fn k(i: u32) -> Arg {
        Arg::constant(i).unwrap()
    }

    #[test]
    fn constants_and_globals() {
        let m = compile("(define-values (x) 3) x");
        assert!(m.global_names.contains(&Symbol::from("x")));
        assert_eq!(m.defined.len(), 1);
        let d = m.top.disassemble();
        assert!(d.contains("StoreGlobal"));
        assert!(d.contains("LoadGlobal"));
    }

    #[test]
    fn generic_primitives_specialize() {
        let m = compile("(#%plain-app + 1 2)");
        assert!(m.top.code.contains(&Op::Add2(k(0), k(1))));
        assert!(!m.top.disassemble().contains("Call"));
    }

    #[test]
    fn unsafe_primitives_specialize() {
        let m = compile("(#%plain-app unsafe-fl+ 1.0 2.0)");
        assert!(m.top.code.contains(&Op::FlAdd(k(0), k(1))));
    }

    #[test]
    fn variadic_calls_do_not_specialize() {
        let m = compile("(#%plain-app + 1 2 3)");
        assert!(!m.top.code.iter().any(|op| op.mnemonic() == "Add2"));
        assert!(m.top.code.iter().any(|op| matches!(op, Op::Call(3))));
    }

    #[test]
    fn locally_shadowed_primitives_do_not_specialize() {
        // a local named `+` must be called as a closure, not as Add2
        let m = compile("(#%plain-app (#%plain-lambda (+) (#%plain-app + 1 2)) car)");
        let inner = &m.top.protos[0];
        assert!(!inner.code.iter().any(|op| op.mnemonic() == "Add2"));
    }

    #[test]
    fn module_defined_primitive_name_does_not_specialize() {
        let m = compile("(define-values (+) 1) (#%plain-app + 1 2)");
        assert!(!m.top.code.iter().any(|op| op.mnemonic() == "Add2"));
    }

    #[test]
    fn tail_calls_are_marked() {
        let m = compile("(define-values (loop) (#%plain-lambda (n) (#%plain-app loop n)))");
        let inner = &m.top.protos[0];
        assert!(inner.code.iter().any(|op| matches!(op, Op::TailCall(1))));
    }

    #[test]
    fn captures_thread_through_nested_lambdas() {
        let m = compile("(#%plain-lambda (x) (#%plain-lambda () (#%plain-lambda () x)))");
        let outer = &m.top.protos[0];
        let mid = &outer.protos[0];
        let inner = &mid.protos[0];
        assert_eq!(mid.captures, vec![CaptureSrc::Local(0)]);
        assert_eq!(inner.captures, vec![CaptureSrc::Capture(0)]);
    }

    #[test]
    fn mutated_locals_are_boxed() {
        let m = compile("(let-values ([(x) 1]) (begin (set! x 2) x))");
        let d = m.top.disassemble();
        assert!(d.contains("BoxNew"));
        assert!(d.contains("BoxSet"));
        assert!(d.contains("BoxGet"));
    }

    #[test]
    fn unmutated_locals_are_not_boxed() {
        let m = compile("(let-values ([(x) 1]) x)");
        let d = m.top.disassemble();
        assert!(!d.contains("Box"));
    }

    #[test]
    fn locals_and_constants_are_addressed_in_place() {
        let m = compile(
            "(#%plain-lambda (x y)
               (#%plain-app unsafe-fl+ (#%plain-app unsafe-fl* x x) (#%plain-app - y 1)))",
        );
        let inner = &m.top.protos[0];
        assert_eq!(
            inner.code,
            vec![
                Op::FlMul(l(0), l(0)),
                Op::Sub2(l(1), k(0)),
                Op::FlAdd(S, S),
                Op::Return,
            ]
        );
    }

    #[test]
    fn one_operand_accessors_are_addressed() {
        let m = compile(
            "(#%plain-lambda (p i)
               (#%plain-app cons (#%plain-app car p)
                 (#%plain-app unsafe-cdr (#%plain-app unsafe-fx->fl i))))",
        );
        let inner = &m.top.protos[0];
        assert_eq!(
            inner.code,
            vec![
                Op::Car(l(0)),
                Op::FxToFl(l(1)),
                Op::UnsafeCdr(S),
                Op::Cons,
                Op::Return
            ]
        );
    }

    #[test]
    fn captures_globals_and_boxes_load_onto_the_stack() {
        // only unmutated locals and constants are addressed: a capture, a
        // global and a boxed local keep their load, so evaluation order
        // and unbound-variable errors are unchanged
        let m = compile(
            "(define-values (g) 2)
             (#%plain-lambda (x)
               (let-values ([(b) 1])
                 (begin
                   (set! b 3)
                   (#%plain-lambda ()
                     (#%plain-app + (#%plain-app * x g) b)))))",
        );
        let inner = &m.top.protos[0].protos[0];
        assert_eq!(
            inner.code,
            vec![
                Op::LoadCapture(0),
                Op::LoadGlobal(0),
                Op::Mul2(S, S),
                Op::LoadCapture(1),
                Op::BoxGet,
                Op::Add2(S, S),
                Op::Return,
            ]
        );
    }

    #[test]
    fn if_tests_take_the_branch_form() {
        let m = compile(
            "(#%plain-lambda (i n xs)
               (if (#%plain-app unsafe-fx< i n)
                   (if (#%plain-app null? xs) 1 2)
                   (if (#%plain-app zero? (#%plain-app car xs)) 3 4)))",
        );
        let inner = &m.top.protos[0];
        assert_eq!(
            inner.code,
            vec![
                Op::BrFxLt(l(0), l(1), 6),
                Op::BrNullP(l(2), 4),
                Op::Const(0),
                Op::Jump(5),
                Op::Const(1),
                Op::Jump(11),
                Op::Car(l(2)),
                Op::BrZeroP(S, 10),
                Op::Const(2),
                Op::Jump(11),
                Op::Const(3),
                Op::Return,
            ]
        );
    }

    #[test]
    fn a_comparison_a_jump_lands_after_keeps_its_jump_if_false() {
        // the then-arm's Jump lands on the outer test's JumpIfFalse, so
        // the trailing `>` must not absorb it
        let m = compile(
            "(#%plain-lambda (p x)
               (if (if p (#%plain-app < x 1) (#%plain-app > x 2)) 3 4))",
        );
        assert_eq!(
            m.top.protos[0].code,
            vec![
                Op::LoadLocal(0),
                Op::JumpIfFalse(4),
                Op::Lt2(l(1), k(0)),
                Op::Jump(5),
                Op::Gt2(l(1), k(1)),
                Op::JumpIfFalse(8),
                Op::Const(2),
                Op::Jump(9),
                Op::Const(3),
                Op::Return,
            ]
        );
        // a comparison that a jump lands *on* still takes the branch form
        let m = compile("(#%plain-lambda (p x) (if (#%plain-app < (if p 1 2) x) 3 4))");
        assert_eq!(
            m.top.protos[0].code,
            vec![
                Op::LoadLocal(0),
                Op::JumpIfFalse(4),
                Op::Const(0),
                Op::Jump(5),
                Op::Const(1),
                Op::BrLt2(S, l(1), 8),
                Op::Const(2),
                Op::Jump(9),
                Op::Const(3),
                Op::Return,
            ]
        );
    }

    #[test]
    fn generic_code_never_uses_fl_ops() {
        let m = compile("(#%plain-lambda (x y) (#%plain-app + (#%plain-app * x x) y))");
        let inner = &m.top.protos[0];
        assert!(inner.code.iter().all(|op| !op.mnemonic().starts_with("Fl")));
        assert_eq!(
            inner.code,
            vec![Op::Mul2(l(0), l(0)), Op::Add2(S, l(1)), Op::Return]
        );
    }

    #[test]
    fn last_stats_count_fused_instructions() {
        compile(
            "(#%plain-lambda (x)
               (if (#%plain-app < x 0) (#%plain-app car x) (#%plain-app cons x x)))",
        );
        // BrLt2 and Car(L0); Cons and the loads are plain stack code
        assert_eq!(crate::peephole::last_stats().fused, 2);
    }
}
