//! The compiler's control rewrites change no outcome. A tail-position
//! `if` arm returns directly, `(if (not e) a b)` compiles as
//! `(if e b a)`, and a module-level function's tail call to itself is
//! one `Loop`. Each case runs on the VM and on the tree-walking
//! interpreter, which has none of these rewrites, and both must give the
//! expected value or error kind. The cases the rewrites must leave alone
//! also check, from the opcode counts, that the VM ran the general call.

use lagoon::{EngineKind, Kind, Lagoon};
use lagoon_vm::counters;

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
    // the thread's counts, which a failed run leaves too
    let lagoon = Lagoon::new();
    lagoon.add_module("m", src);
    let _ = lagoon.run_with_stats("m", EngineKind::Vm);
    let rows = counters::snapshot();
    let executed = |op: &str| rows.iter().filter(|row| row.0 == op).map(|row| row.3).sum();
    (executed("Loop"), executed("TailCall"))
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
        // a module's own `apply` is an ordinary function
        (
            "(define (apply f . xs) (list 'mine (length xs)))\n(apply + 1 '(2 3))",
            Ok("'(mine 2)"),
        ),
    ] {
        agree(&format!("#lang lagoon\n{body}\n"), want);
    }
}
