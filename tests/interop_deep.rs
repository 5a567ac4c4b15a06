//! Deeper typed/untyped interoperation: higher-order contracts, blame
//! through multiple boundaries, and data contracts (paper §6, pushed
//! past the inline examples).

use lagoon::{EngineKind, Kind, Lagoon, Symbol, Value};
use lagoon_vm::{Engine, Vm};

fn contract_blame(err: &lagoon::RtError) -> Option<String> {
    match &err.kind {
        Kind::Contract { blame } => Some(blame.as_str()),
        _ => None,
    }
}

#[test]
fn higher_order_arguments_are_wrapped() {
    // a typed module exporting (-> (-> Integer Integer) Integer): the
    // function-typed *argument* must itself be wrapped, with blame
    // flipped — if the untyped client's callback returns a string, the
    // client is blamed
    let lagoon = Lagoon::new();
    lagoon.add_module(
        "server",
        "#lang typed/lagoon
         (: apply-twice : (-> Integer Integer) -> Integer)
         (define (apply-twice f) (f (f 1)))
         (provide apply-twice)",
    );
    lagoon.add_module(
        "good",
        "#lang lagoon
         (require server)
         (apply-twice (lambda (x) (* x 10)))",
    );
    assert_eq!(
        lagoon.run("good", EngineKind::Vm).unwrap().to_string(),
        "100"
    );

    lagoon.add_module(
        "bad",
        "#lang lagoon
         (require server)
         (apply-twice (lambda (x) \"surprise\"))",
    );
    let err = lagoon.run("bad", EngineKind::Vm).unwrap_err();
    let blame = contract_blame(&err).expect("contract violation");
    assert_eq!(blame, "untyped-client", "got: {err}");
}

#[test]
fn data_contracts_check_lists_deeply() {
    let lagoon = Lagoon::new();
    lagoon.add_module(
        "server",
        "#lang typed/lagoon
         (: sum-all : (Listof Integer) -> Integer)
         (define (sum-all l)
           (foldl (lambda: ([x : Integer] [acc : Integer]) (+ x acc)) 0 l))
         (provide sum-all)",
    );
    lagoon.add_module(
        "good",
        "#lang lagoon\n(require server)\n(sum-all (list 1 2 3))\n",
    );
    assert_eq!(lagoon.run("good", EngineKind::Vm).unwrap().to_string(), "6");

    lagoon.add_module(
        "bad",
        "#lang lagoon\n(require server)\n(sum-all (list 1 \"two\" 3))\n",
    );
    let err = lagoon.run("bad", EngineKind::Vm).unwrap_err();
    assert!(contract_blame(&err).is_some(), "got: {err}");
}

#[test]
fn blame_traverses_long_chains() {
    // typed A → untyped B → typed C → untyped D: D's bad value must be
    // blamed on D (the library that lied), not on anyone in between
    let lagoon = Lagoon::new();
    lagoon.add_module(
        "d",
        "#lang lagoon\n(define (mystery) \"not-a-number\")\n(provide mystery)\n",
    );
    lagoon.add_module(
        "c",
        "#lang typed/lagoon
         (require/typed d [mystery (-> Integer)])
         (: via-c : -> Integer)
         (define (via-c) (mystery))
         (provide via-c)",
    );
    lagoon.add_module(
        "b",
        "#lang lagoon\n(require c)\n(define (via-b) (via-c))\n(provide via-b)\n",
    );
    lagoon.add_module(
        "a",
        "#lang typed/lagoon
         (require/typed b [via-b (-> Integer)])
         (via-b)",
    );
    let err = lagoon.run("a", EngineKind::Vm).unwrap_err();
    assert_eq!(contract_blame(&err).as_deref(), Some("d"), "got: {err}");
}

#[test]
fn zero_argument_functions_cross_boundaries() {
    let lagoon = Lagoon::new();
    lagoon.add_module(
        "server",
        "#lang typed/lagoon
         (: make-counter : -> (-> Integer))
         (define (make-counter)
           (let: ([n : Integer 0])
             (lambda: () : Integer (begin (set! n (+ n 1)) n))))
         (provide make-counter)",
    );
    lagoon.add_module(
        "client",
        "#lang lagoon
         (require server)
         (define c (make-counter))
         (c) (c) (c)",
    );
    assert_eq!(
        lagoon.run("client", EngineKind::Vm).unwrap().to_string(),
        "3"
    );
}

#[test]
fn typed_reexports_through_untyped_keep_protection() {
    // an untyped module re-providing a typed module's export: the
    // contracted value flows through and still protects
    let lagoon = Lagoon::new();
    lagoon.add_module(
        "typed-src",
        "#lang typed/lagoon
         (: half : Integer -> Integer)
         (define (half x) (quotient x 2))
         (provide half)",
    );
    lagoon.add_module(
        "relay",
        "#lang lagoon
         (require typed-src)
         (define relayed half)
         (provide relayed)",
    );
    lagoon.add_module(
        "end",
        "#lang lagoon
         (require relay)
         (list (relayed 10) (relayed 11))",
    );
    assert_eq!(
        lagoon.run("end", EngineKind::Vm).unwrap().to_string(),
        "(5 5)"
    );
    lagoon.add_module(
        "end-bad",
        "#lang lagoon\n(require relay)\n(relayed \"ten\")\n",
    );
    let err = lagoon.run("end-bad", EngineKind::Vm).unwrap_err();
    assert!(contract_blame(&err).is_some(), "got: {err}");
}

#[test]
fn hidden_typed_variables_are_unbound_cold_and_warm() {
    // a typed module exports each provide's raw and defensive variables
    // under their own names, for instances to link; a client can name
    // only the provide, whose contract blames it, whether this world
    // compiled the typed module (cold) or loaded it from the store (warm)
    const FL: &str = "#lang typed/lagoon
(: scale : Float -> Float)
(define (scale x) (* x 2.0))
(provide scale)
";
    let dir = std::env::temp_dir().join(format!("lagoon-hidden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let world = |status: &str| {
        let lagoon = Lagoon::new();
        lagoon.set_cache_dir(Some(dir.clone()));
        lagoon.add_module("fl", FL);
        let (_, report) = lagoon.run_with_stats("fl", EngineKind::Vm).unwrap();
        assert_eq!(report.caches[0].status, status, "{:?}", report.caches);
        lagoon
    };
    for (lagoon, status) in [(world("miss"), "cold"), (world("hit"), "warm")] {
        let fl = lagoon.registry().compile(Symbol::intern("fl")).unwrap();
        let hidden: Vec<String> = fl
            .exports
            .iter()
            .map(|(name, _)| name.as_str())
            .filter(|name| name.contains('~'))
            .collect();
        assert_eq!(hidden.len(), 2, "{status}: raw and defensive: {hidden:?}");
        for name in &hidden {
            // by its name, or as the core reference require/typed emits
            for call in [
                format!("({name} \"x\")"),
                format!("((foreign-ref {name}) \"x\")"),
            ] {
                let client = format!("#lang lagoon\n(require fl)\n{call}\n");
                lagoon.add_module("client", &client);
                let err = lagoon.run("client", EngineKind::Vm).unwrap_err();
                assert!(matches!(err.kind, Kind::Unbound), "{status} {call}: {err}");
            }
            let err = lagoon.exported("fl", name, EngineKind::Vm).unwrap_err();
            assert!(err.to_string().contains("does not export"), "{err}");
        }
        lagoon.add_module("client", "#lang lagoon\n(require fl)\n(scale \"x\")\n");
        let err = lagoon.run("client", EngineKind::Vm).unwrap_err();
        let blame = contract_blame(&err);
        assert_eq!(blame.as_deref(), Some("untyped-client"), "{status}: {err}");
        let scale = lagoon.exported("fl", "scale", EngineKind::Vm).unwrap();
        let err = Vm.apply(&scale, &[Value::string("x")]).unwrap_err();
        assert_eq!(contract_blame(&err).as_deref(), Some("untyped-client"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reexported_primitive_stays_a_client_export() {
    // an untyped module's `(provide car)` exports `car` under its own
    // name, as a typed module exports a link-only variable, but without
    // a gensym suffix: clients can still name it
    let lagoon = Lagoon::new();
    lagoon.add_module("prims", "#lang lagoon\n(provide car)\n");
    lagoon.add_module(
        "typed",
        "#lang typed/lagoon
         (require/typed prims [car ((Listof Integer) -> Integer)])
         (car (list 7 8))",
    );
    let value = lagoon.run("typed", EngineKind::Vm).unwrap();
    assert_eq!(value.as_int(), Some(7));
    for engine in [EngineKind::Vm, EngineKind::Interp] {
        let car = lagoon.exported("prims", "car", engine).unwrap();
        let list = Value::list(vec![Value::Int(7), Value::Int(8)]);
        assert_eq!(Vm.apply(&car, &[list]).unwrap().as_int(), Some(7));
    }
}

#[test]
fn engines_agree_on_contract_behaviour() {
    let build = |lagoon: &Lagoon| {
        lagoon.add_module(
            "server",
            "#lang typed/lagoon
             (: pick : (Listof Integer) Integer -> Integer)
             (define (pick l i) (list-ref l i))
             (provide pick)",
        );
        lagoon.add_module(
            "client",
            "#lang lagoon\n(require server)\n(pick (list 10 20 30) 1)\n",
        );
    };
    let l1 = Lagoon::new();
    build(&l1);
    let vm = l1.run("client", EngineKind::Vm).unwrap();
    let l2 = Lagoon::new();
    build(&l2);
    let interp = l2.run("client", EngineKind::Interp).unwrap();
    assert!(vm.equal(&interp));
}
