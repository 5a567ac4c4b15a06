//! Symbol worlds: each thread interns into its own table, and a
//! long-lived thread frees a request's symbols by truncating back to a
//! mark.
//!
//! The scenario mirrors the daemon's request lifecycle: bootstrap
//! names, mark before a request, intern and gensym during it, truncate
//! after — and asserts that truncated handles are detected rather than
//! aliased, that bootstrap symbols survive, that tables are per thread,
//! and that scoped gensyms are a function of their scope alone.

use lagoon_syntax::{epoch_mark, epoch_reset, epoch_truncate, fresh_scope, interned_count, Symbol};

#[test]
fn epoch_worlds_end_to_end() {
    // --- bootstrap: the names a worker's registry interns first ---
    let lambda = Symbol::intern("lambda");
    let map = Symbol::intern("map");
    let boot_gensym = Symbol::fresh("warm");
    let at_start = interned_count();

    // --- request 1: mark, intern, gensym, truncate ---
    let mark = epoch_mark();
    assert_eq!(Symbol::intern("lambda"), lambda, "old names are hits");
    let req_sym = Symbol::intern("req/0");
    let req_gensym = Symbol::fresh("tmp");
    let scoped = {
        let _scope = fresh_scope(0xFEED);
        Symbol::fresh("loop")
    };
    for s in [req_sym, req_gensym, scoped] {
        assert_ne!(s, lambda);
        assert_ne!(s, map);
    }
    // intern is idempotent within the epoch
    assert_eq!(Symbol::intern("req/0"), req_sym);
    assert_eq!(interned_count(), at_start + 3);
    assert_eq!(req_sym.as_str(), "req/0");

    assert_eq!(
        epoch_truncate(mark),
        3,
        "truncation frees the request's symbols"
    );
    assert_eq!(interned_count(), at_start);

    // --- stale detection: truncated handles never alias anything ---
    assert!(!req_sym.is_live());
    assert_eq!(req_sym.as_str(), "#<stale-symbol>");
    // a new symbol may reuse the slot, but the generation stamp
    // differs, so the old handle stays distinct
    let reuse = Symbol::intern("req/1");
    assert_ne!(reuse, req_sym);
    assert!(reuse.is_live());
    assert_eq!(reuse.as_str(), "req/1");
    // re-interning the old *name* yields a fresh identity — the map
    // entry died with the epoch
    let req_again = Symbol::intern("req/0");
    assert_ne!(req_again, req_sym);
    assert_eq!(req_again.as_str(), "req/0");

    // symbols from before the mark are untouched by truncation
    assert!(lambda.is_live());
    assert_eq!(lambda.as_str(), "lambda");
    assert_eq!(Symbol::intern("map"), map);
    assert!(boot_gensym.is_live());

    // --- a stale mark (from before a truncation) is ignored ---
    let stale_mark = mark; // gen has advanced since
    let m2 = epoch_mark();
    let _ = Symbol::intern("req/2");
    assert_eq!(epoch_truncate(stale_mark), 0, "stale mark is a no-op");
    assert!(epoch_truncate(m2) >= 1);

    // --- scoped gensyms depend on the scope, not on table state ---
    let a: Vec<String> = {
        let _s = fresh_scope(77);
        (0..3).map(|_| Symbol::fresh("d").as_str()).collect()
    };
    let _ = Symbol::intern("grows-the-table");
    let b: Vec<String> = {
        let _s = fresh_scope(77);
        (0..3).map(|_| Symbol::fresh("d").as_str()).collect()
    };
    assert_eq!(a, b, "digest-scoped names are table-state independent");

    // --- worlds are per-thread: another thread's table is its own ---
    let mine = interned_count();
    let (their_count, their_lambda) = std::thread::spawn(|| {
        let s = Symbol::intern("other-thread-name");
        assert_eq!(s.as_str(), "other-thread-name");
        let lambda = Symbol::intern("lambda").index();
        (interned_count(), lambda)
    })
    .join()
    .expect("thread");
    assert_eq!(their_count, 2, "a new thread starts from an empty table");
    // ...whose ids index that thread's table, not this one's: its
    // "lambda" sits in slot 1, where this thread keeps "map"
    assert_eq!(Symbol::from_index(their_lambda).as_str(), "map");
    // ...and did not grow this thread's world
    assert_eq!(interned_count(), mine);

    // --- epoch_reset clears the whole thread world (a rebuild) ---
    let _ = Symbol::fresh("scratch");
    assert_eq!(epoch_reset(), mine + 1);
    assert_eq!(interned_count(), 0);
    assert!(!lambda.is_live());
    assert_eq!(Symbol::intern("lambda").as_str(), "lambda");
}
