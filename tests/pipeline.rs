//! Cross-crate integration: a corpus of programs run through the full
//! read → expand → (typecheck → optimize) → compile → execute pipeline,
//! asserting that the AST interpreter and the bytecode VM agree, and that
//! typed/optimized variants agree with their untyped originals.

use lagoon::{EngineKind, Lagoon};

fn both(lagoon: &Lagoon, name: &str) -> lagoon::Value {
    let vm = lagoon.run(name, EngineKind::Vm).unwrap();
    let interp = lagoon.run(name, EngineKind::Interp).unwrap();
    assert!(
        vm.equal(&interp) || (vm.is_procedure() && interp.is_procedure()),
        "{name}: engines disagree: vm={vm} interp={interp}"
    );
    vm
}

#[test]
fn corpus_untyped() {
    let corpus: &[(&str, &str, &str)] = &[
        (
            "tak-ish",
            "(define (tak x y z)
            (if (not (< y x)) z
                (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
          (tak 10 5 0)",
            "5",
        ),
        (
            "string-building",
            r#"(define (repeat s n)
            (if (= n 0) "" (string-append s (repeat s (- n 1)))))
          (string-length (repeat "ab" 10))"#,
            "20",
        ),
        (
            "assoc-lists",
            "(define table '((a . 1) (b . 2) (c . 3)))
          (cdr (assq 'b table))",
            "2",
        ),
        (
            "vectors",
            "(define v (make-vector 10 0))
          (let loop ([i 0])
            (when (< i 10) (vector-set! v i (* i i)) (loop (+ i 1))))
          (vector-ref v 7)",
            "49",
        ),
        (
            "higher-order",
            "(foldl + 0 (map (lambda (x) (* x x)) (range 1 11)))",
            "385",
        ),
        ("char-code", "(char->integer (char-upcase #\\a))", "65"),
        (
            "deep-quasiquote",
            "(define x 5) `(1 (2 ,x) ,@(list 3 4))",
            "(1 (2 5) 3 4)",
        ),
        (
            "mutual-recursion",
            "(define (even2? n) (if (= n 0) #t (odd2? (- n 1))))
          (define (odd2? n) (if (= n 0) #f (even2? (- n 1))))
          (even2? 100)",
            "#t",
        ),
        (
            "closures-over-loops",
            "(define fs (map (lambda (i) (lambda () i)) '(1 2 3)))
          (foldl + 0 (map (lambda (f) (f)) fs))",
            "6",
        ),
        ("floats", "(exact->inexact (+ 1 (/ 1 2)))", "1.5"),
    ];
    let lagoon = Lagoon::new();
    for (name, body, expected) in corpus {
        lagoon.add_module(name, &format!("#lang lagoon\n{body}\n"));
        let v = both(&lagoon, name);
        assert_eq!(&v.to_string(), expected, "program {name}");
    }
}

#[test]
fn corpus_typed_matches_untyped() {
    // each entry: (name, untyped body, typed body computing the same thing)
    let corpus: &[(&str, &str, &str)] = &[
        (
            "sumfp",
            "(define (go i acc)
               (if (= i 0) acc (go (- i 1) (+ acc (exact->inexact i)))))
             (go 100 0.0)",
            "(: go : Integer Float -> Float)
             (define (go i acc)
               (if (= i 0) acc (go (- i 1) (+ acc (exact->inexact i)))))
             (go 100 0.0)",
        ),
        (
            "fibfp",
            "(define (fibfp n)
               (if (< n 2.0) n (+ (fibfp (- n 1.0)) (fibfp (- n 2.0)))))
             (fibfp 16.0)",
            "(: fibfp : Float -> Float)
             (define (fibfp n)
               (if (< n 2.0) n (+ (fibfp (- n 1.0)) (fibfp (- n 2.0)))))
             (fibfp 16.0)",
        ),
        (
            "complex-loop",
            "(define (count f n)
               (if (< (magnitude f) 0.001) n (count (/ f 2.0+2.0i) (+ n 1))))
             (count 100.0+100.0i 0)",
            "(: count : Float-Complex Integer -> Integer)
             (define (count f n)
               (if (< (magnitude f) 0.001) n (count (/ f 2.0+2.0i) (+ n 1))))
             (count 100.0+100.0i 0)",
        ),
        (
            "list-walk",
            "(define (sum-list l acc)
               (if (null? l) acc (sum-list (cdr l) (+ acc (car l)))))
             (sum-list (range 0 100) 0)",
            "(: sum-list : (Listof Integer) Integer -> Integer)
             (define (sum-list l acc)
               (if (null? l) acc (sum-list (cdr l) (+ acc (car l)))))
             (sum-list (range 0 100) 0)",
        ),
    ];
    let lagoon = Lagoon::new();
    for (name, untyped, typed) in corpus {
        let u = format!("u-{name}");
        let t = format!("t-{name}");
        let n = format!("n-{name}");
        lagoon.add_module(&u, &format!("#lang lagoon\n{untyped}\n"));
        lagoon.add_module(&t, &format!("#lang typed/lagoon\n{typed}\n"));
        lagoon.add_module(&n, &format!("#lang typed/no-opt\n{typed}\n"));
        let vu = both(&lagoon, &u);
        let vt = both(&lagoon, &t);
        let vn = both(&lagoon, &n);
        assert!(vu.equal(&vt), "{name}: untyped={vu} typed={vt}");
        assert!(vt.equal(&vn), "{name}: typed={vt} no-opt={vn}");
    }
}

#[test]
fn diamond_dependencies_instantiate_once() {
    let lagoon = Lagoon::new();
    lagoon.add_module(
        "base",
        "#lang lagoon\n(display \"!\")\n(define one 1)\n(provide one)\n",
    );
    lagoon.add_module(
        "left",
        "#lang lagoon\n(require base)\n(define l (+ one 1))\n(provide l)\n",
    );
    lagoon.add_module(
        "right",
        "#lang lagoon\n(require base)\n(define r (+ one 2))\n(provide r)\n",
    );
    lagoon.add_module(
        "top",
        "#lang lagoon\n(require left)\n(require right)\n(+ l r)\n",
    );
    let (v, out) = lagoon.run_capturing("top", EngineKind::Vm).unwrap();
    assert_eq!(v.to_string(), "5");
    assert_eq!(out, "!", "base must instantiate exactly once");
}

#[test]
fn typed_modules_compose_transitively() {
    let lagoon = Lagoon::new();
    lagoon.add_module(
        "t1",
        "#lang typed/lagoon
         (: double : Integer -> Integer)
         (define (double x) (* 2 x))
         (provide double)",
    );
    lagoon.add_module(
        "t2",
        "#lang typed/lagoon
         (require t1)
         (: quad : Integer -> Integer)
         (define (quad x) (double (double x)))
         (provide quad)",
    );
    lagoon.add_module(
        "u3",
        "#lang lagoon
         (require t2)
         (define (oct x) (quad (quad x)))
         (provide oct)",
    );
    lagoon.add_module(
        "t4",
        "#lang typed/lagoon
         (require/typed u3 [oct (Integer -> Integer)])
         (oct 1)",
    );
    let v = both(&lagoon, "t4");
    assert_eq!(v.to_string(), "16");
}

#[test]
fn languages_stack_on_languages() {
    // a user language built on the typed language? Not supported — but a
    // user language on the base language that *adds* a macro works:
    let lagoon = Lagoon::new();
    lagoon.add_module(
        "verbose",
        r#"#lang lagoon
(define-syntax (#%module-begin stx)
  (syntax-parse stx
    [(_ body ...)
     #'(#%plain-module-begin
        (displayln "starting")
        body ...
        (displayln "done"))]))
(define-syntax loud-define
  (syntax-rules ()
    [(_ name value) (begin (define name value) (printf "defined ~a~%" 'name))]))
(provide #%module-begin loud-define)
"#,
    );
    lagoon.add_module(
        "prog",
        "#lang verbose
(loud-define x 42)
(displayln x)
",
    );
    let (_, out) = lagoon.run_capturing("prog", EngineKind::Vm).unwrap();
    assert_eq!(out, "starting\ndefined x\n42\ndone\n");
}

#[test]
fn separate_compilation_persists_types() {
    // compile the server; the client compiles in a *fresh* expander and
    // must recover add-5's type from the persisted declarations (§5)
    let lagoon = Lagoon::new();
    lagoon.add_module(
        "server",
        "#lang typed/lagoon
         (: add-5 : Integer -> Integer)
         (define (add-5 x) (+ x 5))
         (provide add-5)",
    );
    // force compilation of the server first
    lagoon
        .registry()
        .compile(lagoon::Symbol::intern("server"))
        .unwrap();
    lagoon.add_module(
        "client",
        "#lang typed/lagoon
         (require server)
         (add-5 37)",
    );
    let v = both(&lagoon, "client");
    assert_eq!(v.to_string(), "42");
}

#[test]
fn errors_carry_useful_positions() {
    let lagoon = Lagoon::new();
    lagoon.add_module(
        "bad",
        "#lang typed/lagoon\n(define: x : Integer 1)\n(define: y : Integer \"two\")\n",
    );
    let err = lagoon.run("bad", EngineKind::Vm).unwrap_err();
    let span = err.span.expect("type errors carry spans");
    assert_eq!(span.line, 3, "error should point at line 3: {err}");
}

#[test]
fn multiple_values_bind_and_check_arity() {
    let corpus: &[(&str, &str, &str)] = &[
        (
            "let-values-basic",
            "(let-values ([(a b) (values 1 2)]) (+ a b))",
            "3",
        ),
        (
            "let-values-mixed-clauses",
            "(let-values ([(a b) (values 1 2)] [(c) 10] [() (values)])
               (list a b c))",
            "(1 2 10)",
        ),
        (
            "let-values-evaluation-order",
            // non-recursive: right-hand sides see the outer x
            "(define x 100)
             (let-values ([(x y) (values 1 2)] [(z) x]) (list x y z))",
            "(1 2 100)",
        ),
        (
            "letrec-values-mutual-recursion",
            "(letrec-values ([(even? odd?)
                              (values (lambda (n) (if (= n 0) #t (odd? (- n 1))))
                                      (lambda (n) (if (= n 0) #f (even? (- n 1)))))])
               (list (even? 10) (odd? 7)))",
            "(#t #t)",
        ),
        (
            "define-values",
            "(define-values (q r) (values (quotient 17 5) (remainder 17 5)))
             (list q r)",
            "(3 2)",
        ),
        (
            "call-with-values",
            "(call-with-values (lambda () (values 1 2 3)) list)",
            "(1 2 3)",
        ),
        (
            "values-passthrough",
            // a single value is not packaged, so it flows anywhere
            "(+ (values 40) 2)",
            "42",
        ),
    ];
    for (name, body, expected) in corpus {
        let lagoon = Lagoon::new();
        lagoon.add_module(name, &format!("#lang lagoon\n{body}\n"));
        let v = both(&lagoon, name);
        assert_eq!(&v.to_string(), expected, "{name}");
    }
}

#[test]
fn multiple_values_arity_mismatch_is_an_error_not_a_panic() {
    for (name, body) in [
        ("too-many", "(define-values (a b) (values 1 2 3)) a"),
        ("too-few", "(let-values ([(a b c) (values 1 2)]) a)"),
        ("non-values", "(let-values ([(a b) 7]) a)"),
    ] {
        for engine in [EngineKind::Vm, EngineKind::Interp] {
            let lagoon = Lagoon::new();
            lagoon.add_module(name, &format!("#lang lagoon\n{body}\n"));
            let err = lagoon.run(name, engine).unwrap_err();
            assert!(
                err.to_string().contains("values"),
                "{name} ({engine:?}): {err}"
            );
        }
    }
}

/// Module bodies, `lambda` bodies and `begin-for-syntax` share one
/// definition-context pass, so every shape a context can express means
/// the same there: each row binds `w` in its context, and the context
/// reads it back (`begin-for-syntax` through a macro that quotes its
/// phase-1 value into the program).
#[test]
fn definition_contexts_agree_on_every_shape() {
    // both macros expand to `(begin (define w 1) w)` with the use site's
    // scopes, so the context sees their `w`
    let macros = "(define-syntax (headed stx) (datum->syntax stx '(begin (define w 1) w)))
        (define-syntax (ident stx) (datum->syntax stx '(begin (define w 1) w)))";
    let shapes: &[(&str, &str, &str)] = &[
        ("begin", "(begin (define w 1))", "1"),
        (
            "define-values",
            "(define-values (a b) (values 20 22)) (define w (+ a b))",
            "42",
        ),
        ("headed-macro", "(headed)", "1"),
        ("identifier-macro", "ident", "1"),
        (
            "define-syntax",
            "(define-syntax two (syntax-rules () [(_) 2])) (define w (two))",
            "2",
        ),
    ];
    // each context puts a shape's forms where `BODY` stands
    let contexts = [
        ("module", "BODY\nw"),
        ("lambda", "((lambda () BODY w))"),
        (
            "begin-for-syntax",
            "(begin-for-syntax BODY)\n(define-syntax (peek stx) (datum->syntax stx w))\n(peek)",
        ),
    ];
    for (shape, body, expected) in shapes {
        for (context, template) in contexts {
            let name = format!("{shape}-in-{context}");
            let lagoon = Lagoon::new();
            let src = template.replace("BODY", body);
            lagoon.add_module(&name, &format!("#lang lagoon\n{macros}\n{src}\n"));
            let v = both(&lagoon, &name);
            assert_eq!(&v.to_string(), expected, "{name}");
        }
    }
}
