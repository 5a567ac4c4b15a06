//! The compiler's control rewrites and the VM's call paths change no
//! outcome. A tail-position `if` arm returns directly, `(if (not e) a b)`
//! compiles as `(if e b a)`, a module-level function's tail call to
//! itself is one `Loop`, and a `letrec`-bound lambda names itself through
//! its frame's callee slot. The dispatch loop enters a closure of exact
//! arity and calls a plain native itself, and leaves every other call to
//! the general path. Each case runs on the VM and on the tree-walking
//! interpreter, which has none of these, and both must give the expected
//! value or error. The cases the rewrites must leave alone also check,
//! from the opcode counts, that the VM ran the general call.

use lagoon::diag::limits;
use lagoon::{EngineKind, FaultPlan, Kind, Lagoon, Limits, RtError, Value};
use lagoon_syntax::read_all;
use lagoon_vm::{counters, parse_form, Compiler, Engine, Env, Interp, Vm};
use std::rc::Rc;

/// The printed value or error kind of `src` on `engine`.
fn outcome(src: &str, engine: EngineKind) -> Result<String, Kind> {
    let lagoon = Lagoon::new();
    lagoon.add_module("m", src);
    lagoon
        .run("m", engine)
        .map(|v| v.write_string())
        .map_err(|e| e.kind.clone())
}

/// Runs `src` on both engines, checks both against `want`, and returns
/// how often the VM executed `Loop` and `TailCall`.
fn agree(src: &str, want: Result<&str, Kind>) -> (u64, u64) {
    let want = want.map(str::to_string);
    assert_eq!(outcome(src, EngineKind::Vm), want, "vm on:\n{src}");
    assert_eq!(
        outcome(src, EngineKind::Interp),
        want,
        "ast-interp on:\n{src}"
    );
    let [loops, tail_calls] = executed(src, ["Loop", "TailCall"]);
    (loops, tail_calls)
}

/// How often the VM executed each of `ops` running `src` (the thread's
/// counts, which a failed run leaves too).
fn executed<const N: usize>(src: &str, ops: [&str; N]) -> [u64; N] {
    let lagoon = Lagoon::new();
    lagoon.add_module("m", src);
    let _ = lagoon.run_with_stats("m", EngineKind::Vm);
    let rows = counters::snapshot();
    ops.map(|op| rows.iter().filter(|row| row.0 == op).map(|row| row.3).sum())
}

#[test]
fn a_self_loop_runs_as_loop() {
    let src = "#lang lagoon\n\
               (define (loop n acc) (if (zero? n) acc (loop (- n 1) (+ acc n))))\n\
               (loop 100 0)\n";
    assert_eq!(agree(src, Ok("5050")), (100, 0));
}

#[test]
fn a_loop_whose_name_is_set_mid_loop_calls_the_new_value() {
    let src = "#lang lagoon\n\
               (define (count n)\n\
                 (if (= n 0)\n\
                     'old-done\n\
                     (begin\n\
                       (if (= n 5) (set! count (lambda (m) (list 'new m))) (void))\n\
                       (count (- n 1)))))\n\
               (count 10)\n";
    let (loops, tail_calls) = agree(src, Ok("'(new 4)"));
    assert_eq!(loops, 0);
    assert!(tail_calls > 0);
}

#[test]
fn a_self_call_with_the_wrong_argument_count_is_an_arity_error() {
    let src = "#lang lagoon\n(define (f n) (if (= n 0) 'done (f n n)))\n(f 3)\n";
    let (loops, tail_calls) = agree(src, Err(Kind::Arity));
    assert_eq!((loops, tail_calls), (0, 1));
}

#[test]
fn a_self_call_with_a_rest_parameter_keeps_its_tail_call() {
    let src = "#lang lagoon\n(define (f n . rest) (if (= n 0) rest (f (- n 1) n)))\n(f 3)\n";
    let (loops, tail_calls) = agree(src, Ok("'(1)"));
    assert_eq!((loops, tail_calls), (0, 3));
}

#[test]
fn a_redefined_function_calls_the_latest_definition() {
    // the first `f`'s call names the second definition, not itself
    let src = "#lang lagoon\n\
               (define (f n) (if (= n 0) 'first (f (- n 1))))\n\
               (define h (lambda () f))\n\
               (define (f n) 'second)\n\
               (list ((h) 3) (f 3))\n";
    assert_eq!(agree(src, Ok("'(second second)")).0, 0);
}

#[test]
fn a_negated_test_is_swapped_only_for_the_base_not() {
    for src in [
        "#lang lagoon\n(let ([not (lambda (x) x)]) (if (not #f) 'a 'b))\n",
        "#lang lagoon\n(define (not x) x)\n(if (not #f) 'a 'b)\n",
    ] {
        agree(src, Ok("'b"));
    }
    agree("#lang lagoon\n(if (not #f) 'a 'b)\n", Ok("'a"));
    agree("#lang lagoon\n(if (not (not 0)) 'a 'b)\n", Ok("'a"));
}

#[test]
fn a_negated_comparison_on_nan_takes_the_first_arm() {
    // `(< +nan.0 y)` is false, so `(not (< x y))` is true: under the
    // swap, the false comparison jumps to the arm that was first
    let body = "(define (pick x y) (if (not (< x y)) 1 2))\n(pick (/ 0.0 0.0) 1.0)\n";
    let typed = format!("(: pick : Float Float -> Integer)\n{body}");
    let lagoon = Lagoon::new();
    lagoon.add_module("vm", &format!("#lang lagoon\n{body}"));
    lagoon.add_module("typed", &format!("#lang typed/no-opt\n{typed}"));
    lagoon.add_module("opt", &format!("#lang typed/lagoon\n{typed}"));
    for (module, engine) in [
        ("vm", EngineKind::Vm),
        ("typed", EngineKind::Vm),
        ("opt", EngineKind::Vm),
        ("vm", EngineKind::Interp),
        ("opt", EngineKind::Interp),
    ] {
        let v = lagoon
            .run(module, engine)
            .unwrap_or_else(|e| panic!("{module} on {engine:?}: {e}"));
        assert_eq!(v.write_string(), "1", "{module} on {engine:?}");
    }
}

#[test]
fn apply_and_call_with_values_are_intercepted_on_both_engines() {
    // the engines recognise the two placeholders by their marker; each
    // way of reaching one gives the same answer on both engines
    for (body, want) in [
        ("(apply + 1 '(2 3))", Ok("6")),
        // `apply` as a value, called back by a higher-order function
        ("(map apply (list + *) '((1 2) (3 4)))", Ok("'(3 12)")),
        ("(apply apply (list + '(1 2)))", Ok("3")),
        (
            "(apply call-with-values (list (lambda () (values 1 2)) list))",
            Ok("'(1 2)"),
        ),
        // the producer runs through the engine's own `apply` entry
        (
            "(call-with-values (lambda () (apply values '(1 2 3))) +)",
            Ok("6"),
        ),
        ("(call-with-values apply list)", Err(Kind::Arity)),
        ("(apply + 1 2)", Err(Kind::Type)),
        ("(call-with-values (lambda () 1))", Err(Kind::Arity)),
        // a closure of exact arity, with a rest parameter, and of the
        // wrong arity, reached through `apply` in call and tail position
        ("(define (f a b) (list b a))\n(apply f '(1 2))", Ok("'(2 1)")),
        (
            "(define (f a . r) (list a r))\n(define (g l) (apply f l))\n(list (g '(1)) (g '(1 2 3)))",
            Ok("'((1 ()) (1 (2 3)))"),
        ),
        (
            "(define (f a b) a)\n(define (g l) (apply f l))\n(g '(1 2 3))",
            Err(Kind::Arity),
        ),
        // the producer enters a closure from outside the loop, which must
        // still find itself in its callee slot
        (
            "(letrec ([p (lambda () (if (procedure? p) (values 1 2) 0))])\n  (call-with-values p list))",
            Ok("'(1 2)"),
        ),
        // a module's own `apply` is an ordinary function
        (
            "(define (apply f . xs) (list 'mine (length xs)))\n(apply + 1 '(2 3))",
            Ok("'(mine 2)"),
        ),
    ] {
        agree(&format!("#lang lagoon\n{body}\n"), want);
    }
}

/// `msg` without the module-digest suffixes of freshened names:
/// `f~fc3d835f.0: …` reads `f: …`.
fn plain(msg: &str) -> String {
    let mut out = String::new();
    let mut rest = msg;
    while let Some(at) = rest.find('~') {
        out.push_str(&rest[..at]);
        let tail = &rest[at + 1..];
        let skip = tail
            .find(|c: char| !(c.is_ascii_hexdigit() || c == '.'))
            .unwrap_or(tail.len());
        rest = &tail[skip..];
    }
    out.push_str(rest);
    out
}

/// The printed value, or the error kind and plain message, of `src` on
/// `engine`.
fn outcome_with_message(src: &str, engine: EngineKind) -> Result<String, (Kind, String)> {
    let lagoon = Lagoon::new();
    lagoon.add_module("m", src);
    lagoon
        .run("m", engine)
        .map(|v| v.write_string())
        .map_err(|e| (e.kind.clone(), plain(&e.message)))
}

#[test]
fn calls_give_the_same_value_or_error_on_both_engines() {
    let defs = "(define (f a b) (list a b))\n\
                (define (r a . more) (list a more))\n";
    for (body, want) in [
        // the dispatch loop's own paths: a closure of exact arity, in
        // call and in tail position, and a plain native
        ("(f 1 2)", Ok("'(1 2)")),
        ("(define (g x) (f x x))\n(g 3)", Ok("'(3 3)")),
        ("(define (g x) (string-length x))\n(g \"abc\")", Ok("3")),
        // a rest parameter takes the general path
        ("(list (r 1) (r 1 2 3))", Ok("'((1 ()) (1 (2 3)))")),
        ("(define (g) (r 1 2))\n(g)", Ok("'(1 (2))")),
        // too few and too many arguments, to a closure and to a native
        (
            "(f 1)",
            Err((Kind::Arity, "f: expects exactly 2 argument(s), got 1")),
        ),
        (
            "(define (g) (f 1 2 3))\n(g)",
            Err((Kind::Arity, "f: expects exactly 2 argument(s), got 3")),
        ),
        (
            "(r)",
            Err((Kind::Arity, "r: expects at least 1 argument(s), got 0")),
        ),
        (
            "(string-length)",
            Err((
                Kind::Arity,
                "string-length: expects exactly 1 argument(s), got 0",
            )),
        ),
        (
            "(define (g) (string-length \"a\" \"b\"))\n(g)",
            Err((
                Kind::Arity,
                "string-length: expects exactly 1 argument(s), got 2",
            )),
        ),
        (
            "((lambda (x) x))",
            Err((
                Kind::Arity,
                "#<procedure>: expects exactly 1 argument(s), got 0",
            )),
        ),
        // a non-procedure, in call and in tail position
        (
            "(list (5 1))",
            Err((Kind::Type, "application: not a procedure: 5")),
        ),
        (
            "(define (g x) (x 1))\n(g \"s\")",
            Err((Kind::Type, "application: not a procedure: \"s\"")),
        ),
        // a native that raises, in call and in tail position
        (
            "(list (string-ref \"abc\" 10))",
            Err((Kind::Range, "string-ref: index 10 out of range")),
        ),
        (
            "(define (g l) (list-ref l 5))\n(g '(1 2))",
            Err((Kind::Type, "list-ref: expected pair, got '()")),
        ),
    ] {
        let src = format!("#lang lagoon\n{defs}{body}\n");
        let want = want
            .map(str::to_string)
            .map_err(|(kind, msg)| (kind, msg.to_string()));
        assert_eq!(
            outcome_with_message(&src, EngineKind::Vm),
            want,
            "vm on:\n{src}"
        );
        assert_eq!(
            outcome_with_message(&src, EngineKind::Interp),
            want,
            "ast-interp on:\n{src}"
        );
    }
}

/// The core forms of `src`.
fn core_forms(src: &str) -> Vec<lagoon_vm::CoreForm> {
    read_all(src, "<t>")
        .unwrap()
        .iter()
        .map(|f| parse_form(f).unwrap())
        .collect()
}

#[test]
fn a_closure_from_one_engine_fails_in_the_other() {
    let lambda = "(#%plain-lambda (x) x)";
    let (vm_closure, _) = Vm
        .run_module(
            &Compiler::compile_module(&core_forms(lambda)).unwrap(),
            |_| None,
        )
        .unwrap();
    let interp_closure = Interp
        .eval_forms(&core_forms(lambda), &Env::root())
        .unwrap();
    let internal = |r: Result<Value, RtError>| {
        r.map_err(|e| (e.kind.clone(), e.message.clone()))
            .unwrap_err()
    };
    let by_vm = (
        Kind::Internal,
        "closure from a different engine applied by the VM".to_string(),
    );
    let by_interp = (
        Kind::Internal,
        "closure from a different engine applied by the interpreter".to_string(),
    );
    assert_eq!(internal(Vm.apply(&interp_closure, &[Value::Int(1)])), by_vm);
    assert_eq!(
        internal(Interp.apply(&vm_closure, &[Value::Int(1)])),
        by_interp
    );
    // reached from inside the VM's loop, in call and in tail position
    for body in ["(#%plain-app list (#%plain-app g 1))", "(#%plain-app g 1)"] {
        let src = format!("(define-values (h) (#%plain-lambda () {body})) (#%plain-app h)");
        let code = Compiler::compile_module(&core_forms(&src)).unwrap();
        let g = lagoon_syntax::Symbol::from("g");
        let list = lagoon_syntax::Symbol::from("list");
        let prims = lagoon_runtime::prim::primitives();
        let resolve = |name| {
            if name == g {
                return Some(interp_closure.clone());
            }
            prims
                .iter()
                .find(|(n, _)| *n == name && name == list)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(
            internal(Vm.run_module(&code, resolve).map(|r| r.0)),
            by_vm,
            "{body}"
        );
    }
    // each engine still runs its own
    assert_eq!(
        Vm.apply(&vm_closure, &[Value::Int(4)]).unwrap().as_int(),
        Some(4)
    );
    assert_eq!(
        Interp
            .apply(&interp_closure, &[Value::Int(5)])
            .unwrap()
            .as_int(),
        Some(5)
    );
}

#[test]
fn the_stack_depth_limit_trips_at_the_same_depth_on_every_call_path() {
    // with `max_stack_depth` 50 the VM holds 50 frames: the module body
    // and 49 nested calls. The first definition's calls are entered by
    // the dispatch loop, the second's (a rest parameter) by the general
    // path; both stop at the same depth
    let limits = Limits {
        max_stack_depth: 50,
        ..Limits::default()
    };
    for def in [
        "(define (count n) (if (= n 0) 0 (+ 1 (count (- n 1)))))",
        "(define (count n . _) (if (= n 0) 0 (+ 1 (count (- n 1)))))",
    ] {
        for (n, fits) in [(48, true), (49, false)] {
            let lagoon = Lagoon::new();
            lagoon.set_limits(limits);
            // `(count n)` makes n + 1 nested calls
            lagoon.add_module("m", &format!("#lang lagoon\n{def}\n(count {n})\n"));
            let result = lagoon.run("m", EngineKind::Vm);
            lagoon.set_limits(Limits::default());
            match result {
                Ok(v) if fits => assert_eq!(v.write_string(), n.to_string()),
                Err(e) if !fits => assert_eq!(
                    e.kind,
                    Kind::ResourceExhausted {
                        budget: "stack-depth"
                    },
                    "{def} {n}: {e}"
                ),
                other => panic!("{def}, (count {n}): {other:?}"),
            }
        }
    }
}

#[test]
fn an_injected_native_fault_fires_on_the_kth_call_in_call_and_tail_position() {
    // four native calls: `show`'s tail call to `display`, the module
    // body's calls to `display` and `newline`, and `show` again. A fault
    // planned for the k-th call leaves exactly the output before it
    let src = "#lang lagoon\n\
               (define (show x) (display x))\n\
               (show 1)\n\
               (display 2)\n\
               (newline)\n\
               (show 3)\n";
    let lagoon = Lagoon::new();
    lagoon.add_module("m", src);
    for engine in [EngineKind::Vm, EngineKind::Interp] {
        for (k, printed) in [(1, ""), (2, "1"), (3, "12"), (4, "12\n"), (5, "12\n3")] {
            lagoon.registry().reset_instances();
            limits::install_faults(FaultPlan {
                prim_call: Some(k),
                ..FaultPlan::default()
            });
            let (result, output) = lagoon::capture_output(|| lagoon.run("m", engine));
            limits::clear_faults();
            assert_eq!(output, printed, "{engine:?}, fault at call {k}");
            match result {
                Ok(_) => assert_eq!(k, 5, "{engine:?}: the fault did not fire"),
                Err(e) => assert_eq!(
                    e.kind,
                    Kind::ResourceExhausted {
                        budget: "injected-fault"
                    },
                    "{engine:?}, fault at call {k}: {e}"
                ),
            }
        }
    }
}

#[test]
fn letrec_lambdas_agree_on_both_engines() {
    for (body, want) in [
        // a named `let` that returns itself
        (
            "(let ([l (let loop ([i 0]) (if (< i 3) (loop (+ i 1)) loop))])\n  (list (procedure? l) (eq? l (l 0))))",
            Ok("'(#t #t)"),
        ),
        // a loop a nested lambda captures, called and returned
        (
            "(let loop ([i 0] [k #f])\n  (if (>= i 3) (k) (loop (+ i 1) (lambda () (if (< i 10) (loop 10 (lambda () i)) 'no)))))",
            Ok("2"),
        ),
        // a `letrec` lambda passed to `map`, recursing into itself
        (
            "(letrec ([sq (lambda (x) (if (> x 100) (sq (- x 100)) (* x x)))])\n  (map sq '(1 2 301)))",
            Ok("'(1 4 1)"),
        ),
        // mutual recursion keeps its boxes
        (
            "(letrec ([ev? (lambda (n) (if (= n 0) #t (od? (- n 1))))]\n         [od? (lambda (n) (if (= n 0) #f (ev? (- n 1))))])\n  (list (ev? 10) (od? 7)))",
            Ok("'(#t #t)"),
        ),
        // so does a `set!` of a `letrec` name
        (
            "(letrec ([f (lambda (n) (if (= n 0) 'old (f (- n 1))))])\n  (let ([old f])\n    (set! f (lambda (n) 'new))\n    (list (old 3) (f 3))))",
            Ok("'(new new)"),
        ),
        // internal definitions are a `letrec` too
        (
            "(define (h n)\n  (define (go i acc) (if (= i 0) acc (go (- i 1) (+ acc i))))\n  (define total (go n 0))\n  (list total (go 2 0)))\n(h 4)",
            Ok("'(10 3)"),
        ),
        // a helper that only a later definition and itself call
        (
            "(define (f x)\n  (define (go i acc) (if (= i 0) acc (go (- i 1) (+ acc i))))\n  (define r (go 3 x))\n  r)\n(list (f 0) (f 10))",
            Ok("'(6 16)"),
        ),
        (
            "(let loop ([i 0]) (if (< i 2) (loop (+ i 1) 'extra) i))",
            Err(Kind::Arity),
        ),
    ] {
        agree(&format!("#lang lagoon\n{body}\n"), want);
    }
}

#[test]
fn a_letrec_lambda_an_earlier_right_hand_side_names_keeps_its_box() {
    // `a`'s closure is made before `b`'s, so it captures `b`'s box and
    // reads `b` through it once `b` is stored
    let src = "#lang lagoon\n(letrec ([a (lambda () (b))] [b (lambda () 1)]) (a))\n";
    agree(src, Ok("1"));
    assert_eq!(executed(src, ["BoxGet"]), [1]);
}

#[test]
fn an_internal_helper_a_later_definition_calls_dies_with_its_call() {
    // `go` is named by its own body and by the later `r`, which runs
    // after `go`'s slot holds its closure: the closure keeps no box of
    // its own, so once `mk`'s result and the instances are gone,
    // nothing keeps it alive
    let lagoon = Lagoon::new();
    lagoon.add_module(
        "m",
        "#lang lagoon\n\
         (define (mk x)\n\
           (define (go i) (if (< i x) (go (+ i 1)) go))\n\
           (define r (go 0))\n\
           r)\n\
         (mk 3)\n",
    );
    let v = lagoon.run("m", EngineKind::Vm).unwrap();
    let probe = Rc::downgrade(&v.to_closure_rc().expect("a closure"));
    drop(v);
    lagoon.registry().reset_instances();
    assert!(
        probe.upgrade().is_none(),
        "the internal helper's closure outlived every handle"
    );
}

#[test]
fn a_named_let_closure_is_freed_with_its_last_handle() {
    // the closure bound by a named `let` reads itself from its callee
    // slot, so it holds no reference to itself: once `mk`'s result and
    // the instances are gone, nothing keeps it alive
    let lagoon = Lagoon::new();
    lagoon.add_module(
        "m",
        "#lang lagoon\n\
         (define (mk x) (let loop ([i 0]) (if (< i x) (loop (+ i 1)) loop)))\n\
         (mk 3)\n",
    );
    let v = lagoon.run("m", EngineKind::Vm).unwrap();
    let probe = Rc::downgrade(&v.to_closure_rc().expect("a closure"));
    drop(v);
    lagoon.registry().reset_instances();
    assert!(
        probe.upgrade().is_none(),
        "the named-let closure outlived every handle"
    );
}
