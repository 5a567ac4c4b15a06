//! Interned symbols: one table per thread.
//!
//! Symbols are the identifiers of the Lagoon language. They are interned
//! so that equality and hashing are O(1), and so that a [`Symbol`] is a
//! small `Copy` value that can be embedded in every datum, syntax object,
//! and binding-table key.
//!
//! # Symbol worlds
//!
//! Each thread interns names and allocates gensyms in its own table, its
//! *world*. A symbol is a slot in that table, so it means something only
//! on the thread that made it, and the type says so: [`Symbol`] is
//! neither `Send` nor `Sync`. That matches the rest of the system —
//! values are `Rc`-based and never cross threads; workers exchange only
//! serialized `.lagc` bytes, which store symbol *names* and re-intern
//! them on load, and views of a record that leave a thread render their
//! symbols to strings first. The layer keeps no process-global state
//! and takes no lock, and a table is freed when its thread exits, so a
//! CLI run, a build worker or a test thread leaves nothing behind.
//!
//! A long-lived thread can also free part of its world: the daemon takes
//! an [`epoch_mark`] before serving a request and [`epoch_truncate`]s
//! back to it afterwards, freeing the request's symbols, and a world it
//! rebuilds after an internal error starts from [`epoch_reset`].
//!
//! A symbol's id holds a 10-bit generation stamp (bits 22–31) and a
//! 22-bit table slot (bits 0–21). Truncation bumps the generation, so a
//! stale handle held across a truncation is *detected* (its name reads
//! as `#<stale-symbol>`) rather than aliasing a newer symbol. After 1024
//! truncations the stamp wraps, so detection is a safety net, not the
//! guarantee. The guarantee is that no handle outlives its truncation:
//! the daemon truncates only after a request that left its registry's
//! persistent footprint unchanged, so nothing that survives the request
//! holds one of its symbols. Truncation removes a name's dedup entry
//! only when the entry points at a discarded slot, so an older symbol
//! that shares its name with a discarded gensym keeps its identity.
//!
//! # Examples
//!
//! ```
//! use lagoon_syntax::Symbol;
//! let a = Symbol::from("lambda");
//! let b = Symbol::from("lambda");
//! assert_eq!(a, b);
//! assert_eq!(a.as_str(), "lambda");
//! ```
//!
//! A symbol cannot be sent to another thread:
//!
//! ```compile_fail
//! fn assert_send<T: Send>() {}
//! assert_send::<lagoon_syntax::Symbol>();
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;
use std::rc::Rc;

/// An interned symbol: a cheap, copyable handle to a string in this
/// thread's table.
///
/// Two symbols are equal iff their names are equal (for symbols created via
/// [`Symbol::from`] on the same thread and epoch) — gensyms created with
/// [`Symbol::fresh`] are equal only to themselves.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol {
    id: u32,
    /// Keeps the handle on the thread whose table it indexes.
    _thread: PhantomData<*const ()>,
}

/// Ids: 22 bits of slot, 10 bits of generation stamp.
const SLOT_BITS: u32 = 22;
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;
const STAMP_MASK: u16 = 0x3FF;

/// The name a stale handle reads as.
const STALE: &str = "#<stale-symbol>";

#[derive(Default)]
struct Table {
    /// Slot → name; an interned name's `Rc` is shared with `map`.
    names: Vec<Rc<str>>,
    /// Slot → generation at allocation (stale-handle detection).
    stamps: Vec<u16>,
    /// Interned names → their symbol's id (gensyms stay out).
    map: HashMap<Rc<str>, u32>,
    /// Current generation; bumped on every truncation.
    gen: u16,
    /// The next unscoped gensym counter (see [`Symbol::fresh`]).
    next_gensym: u64,
}

impl Table {
    /// Allocates a slot for `name`.
    ///
    /// # Panics
    ///
    /// Panics when the table already holds 2^22 symbols; a request
    /// barrier turns that into an `internal` error.
    fn alloc(&mut self, name: Rc<str>) -> Symbol {
        let slot = self.names.len() as u32;
        assert!(
            slot <= SLOT_MASK,
            "symbol table full: this thread holds {} symbols",
            SLOT_MASK as u64 + 1
        );
        self.names.push(name);
        self.stamps.push(self.gen);
        Symbol::from_index((u32::from(self.gen) << SLOT_BITS) | slot)
    }

    fn name_of(&self, sym: Symbol) -> Option<&Rc<str>> {
        let slot = (sym.id & SLOT_MASK) as usize;
        let stamp = (sym.id >> SLOT_BITS) as u16;
        (self.stamps.get(slot) == Some(&stamp)).then(|| &self.names[slot])
    }

    /// Discards every slot from `len` on and bumps the generation.
    fn truncate_to(&mut self, len: usize) -> usize {
        let dropped = self.names.len().saturating_sub(len);
        for name in self.names.drain(len..) {
            // a discarded gensym may share its name with an older
            // interned symbol, whose entry stays
            if self
                .map
                .get(&name)
                .is_some_and(|&id| (id & SLOT_MASK) as usize >= len)
            {
                self.map.remove(&name);
            }
        }
        self.stamps.truncate(len);
        self.gen = (self.gen + 1) & STAMP_MASK;
        dropped
    }
}

thread_local! {
    static TABLE: RefCell<Table> = RefCell::new(Table::default());
}

/// A point in this thread's table that [`epoch_truncate`] can roll back
/// to. Opaque and `Copy`; valid until the next truncation.
#[derive(Clone, Copy, Debug)]
pub struct EpochMark {
    len: u32,
    gen: u16,
}

/// Captures the current extent of this thread's table. Symbols created
/// after the mark are discarded by [`epoch_truncate`].
pub fn epoch_mark() -> EpochMark {
    TABLE.with(|t| {
        let t = t.borrow();
        EpochMark {
            len: t.names.len() as u32,
            gen: t.gen,
        }
    })
}

/// Discards every symbol this thread created after `mark`, freeing
/// their names, and bumps the generation so stale handles are detected
/// instead of aliased. A mark from before an intervening truncation is
/// itself stale and is ignored (returns 0). Returns the number of
/// symbols discarded.
pub fn epoch_truncate(mark: EpochMark) -> usize {
    TABLE.with(|t| {
        let mut t = t.borrow_mut();
        if mark.gen != t.gen || mark.len as usize > t.names.len() {
            return 0;
        }
        t.truncate_to(mark.len as usize)
    })
}

/// Discards this thread's entire table (a world rebuild). Returns the
/// number of symbols discarded.
pub fn epoch_reset() -> usize {
    TABLE.with(|t| {
        let mut t = t.borrow_mut();
        t.map.clear();
        t.truncate_to(0)
    })
}

/// The number of symbols in this thread's world: interned names and
/// gensyms alike. Flat across a request that is followed by an
/// [`epoch_truncate`].
pub fn interned_count() -> usize {
    TABLE.with(|t| t.borrow().names.len())
}

thread_local! {
    /// The fresh-scope stack: `(digest, next counter)` per open scope.
    /// See [`fresh_scope`].
    static FRESH_SCOPES: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// A guard holding a deterministic gensym scope open on this thread;
/// created by [`fresh_scope`], closes the scope on drop.
#[derive(Debug)]
pub struct FreshScope(());

impl Drop for FreshScope {
    fn drop(&mut self) {
        FRESH_SCOPES.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Opens a *deterministic gensym scope* on this thread until the
/// returned guard drops: every [`Symbol::fresh`] call inside the scope
/// is named `{base}~{digest:08x}.{n}` with `n` counting up from 0 per
/// scope, instead of drawing from the thread's counter.
///
/// Module compilation opens a scope keyed on a digest of the module's
/// name and source text, which makes freshened names a pure function of
/// the module's content: two workers (threads, or whole processes)
/// compiling the same module emit byte-identical artifacts, and names
/// from different modules cannot collide because their digests differ.
/// Scopes nest — compiling a dependency mid-expansion pushes the
/// dependency's scope and restores the importer's counter afterwards.
/// Names depend only on the digest and counter, never on table state.
pub fn fresh_scope(digest: u64) -> FreshScope {
    FRESH_SCOPES.with(|s| s.borrow_mut().push((digest, 0)));
    FreshScope(())
}

/// Folds a 64-bit digest to the 32 bits used in scoped gensym names.
fn fold_digest(digest: u64) -> u32 {
    (digest ^ (digest >> 32)) as u32
}

/// Strips a gensym suffix from a printed symbol name, recovering the
/// base the user (or the prelude) wrote: both the counter form
/// (`map~3` → `map`) and the deterministic scoped form
/// (`map~1a2b3c4d.7` → `map`). Names without a recognized suffix pass
/// through unchanged. The typechecker and optimizer use this to
/// recognize alpha-renamed primitives; diagnostics use it for display.
pub fn strip_gensym(name: &str) -> &str {
    fn is_counter(s: &str) -> bool {
        !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit())
    }
    fn is_scoped(s: &str) -> bool {
        match s.split_once('.') {
            Some((hex, digits)) => {
                hex.len() == 8 && hex.bytes().all(|b| b.is_ascii_hexdigit()) && is_counter(digits)
            }
            None => false,
        }
    }
    match name.rsplit_once('~') {
        Some((base, suffix)) if !base.is_empty() && (is_counter(suffix) || is_scoped(suffix)) => {
            base
        }
        _ => name,
    }
}

impl Symbol {
    /// Interns `name`, returning this thread's canonical symbol for it.
    ///
    /// # Panics
    ///
    /// Panics when this thread's table is full (2^22 symbols).
    pub fn intern(name: &str) -> Symbol {
        TABLE.with(|t| {
            let mut t = t.borrow_mut();
            if let Some(&id) = t.map.get(name) {
                return Symbol::from_index(id);
            }
            let name: Rc<str> = Rc::from(name);
            let sym = t.alloc(Rc::clone(&name));
            t.map.insert(name, sym.id);
            sym
        })
    }

    /// Creates a fresh, uninterned symbol whose printed name starts with
    /// `base`. The result is distinct from every other symbol, including
    /// other fresh symbols with the same base.
    ///
    /// This is the analogue of Lisp's `gensym`, used by the expander for
    /// globally unique binding names.
    ///
    /// Inside a [`fresh_scope`] the name is `{base}~{digest:08x}.{n}` —
    /// deterministic per scope, so parallel builds of the same module
    /// freshen identically (the name may coincide with an interned
    /// symbol decoded from the module's own artifact; identities stay
    /// distinct, and by construction the names refer to the same
    /// binding). Outside any scope the name draws from this thread's
    /// counter and skips names the world already interned: decoding a
    /// compiled artifact interns the gensym names it recorded, and an
    /// unscoped live gensym must stay distinct from those by *name*,
    /// not just identity, for its own artifact to be loadable later.
    ///
    /// # Panics
    ///
    /// Panics when this thread's table is full (2^22 symbols).
    pub fn fresh(base: &str) -> Symbol {
        let scoped = FRESH_SCOPES.with(|s| {
            s.borrow_mut().last_mut().map(|(digest, n)| {
                let name = format!("{base}~{:08x}.{n}", fold_digest(*digest));
                *n += 1;
                name
            })
        });
        TABLE.with(|t| {
            let mut t = t.borrow_mut();
            let name = scoped.unwrap_or_else(|| loop {
                let name = format!("{base}~{}", t.next_gensym);
                t.next_gensym += 1;
                if !t.map.contains_key(name.as_str()) {
                    break name;
                }
            });
            t.alloc(name.into())
        })
    }

    /// The symbol's name, copied into a `String`; prefer
    /// [`Symbol::with_str`] on hot paths. A stale symbol (held across a
    /// truncation) reads as `#<stale-symbol>`.
    pub fn as_str(&self) -> String {
        self.with_str(str::to_owned)
    }

    /// Runs `f` on the symbol's name without copying it. The table is
    /// not borrowed while `f` runs, so `f` may intern.
    pub fn with_str<R>(&self, f: impl FnOnce(&str) -> R) -> R {
        let name = TABLE.with(|t| t.borrow().name_of(*self).cloned());
        f(name.as_deref().unwrap_or(STALE))
    }

    /// Whether this symbol still names something on this thread: true
    /// until its epoch is truncated. The daemon's binding-table sweep
    /// uses this to drop entries that refer to a finished request's
    /// world.
    pub fn is_live(&self) -> bool {
        TABLE.with(|t| t.borrow().name_of(*self).is_some())
    }

    /// The raw id. Useful only for debugging (see the module docs for
    /// the layout).
    pub fn index(&self) -> u32 {
        self.id
    }

    /// Rebuilds a symbol from a raw id obtained via [`Symbol::index`].
    /// Exists so compact packed representations (the runtime's NaN-boxed
    /// value word) can round-trip symbols without a lookup. Safe for any
    /// input: an id that names nothing renders as `#<stale-symbol>`.
    pub fn from_index(raw: u32) -> Symbol {
        Symbol {
            id: raw,
            _thread: PhantomData,
        }
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_str(|s| f.write_str(s))
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_str(|s| write!(f, "'{s}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `cargo test` runs each test on its own thread, so each test starts
    // from an empty table of its own.

    #[test]
    fn interning_is_idempotent() {
        assert_eq!(Symbol::from("foo"), Symbol::from("foo"));
        assert_ne!(Symbol::from("foo"), Symbol::from("bar"));
    }

    #[test]
    fn interned_count_tracks_this_world() {
        let before = interned_count();
        let a = Symbol::intern("interned-count-probe-a");
        let g = Symbol::fresh("interned-count-probe-b");
        assert_eq!(interned_count(), before + 2);
        assert_eq!(a.as_str(), "interned-count-probe-a");
        assert!(g.as_str().starts_with("interned-count-probe-b~"));
        // re-interning an existing name does not grow the world
        let _ = Symbol::intern("interned-count-probe-a");
        assert_eq!(interned_count(), before + 2);
    }

    #[test]
    fn round_trips_name() {
        assert_eq!(Symbol::from("hello-world").as_str(), "hello-world");
        assert_eq!(Symbol::from("").as_str(), "");
        assert_eq!(Symbol::from("λ").as_str(), "λ");
    }

    #[test]
    fn with_str_lends_the_name_and_allows_interning() {
        let s = Symbol::from("with-str-probe");
        let twin = s.with_str(Symbol::intern);
        assert_eq!(twin, s);
        assert!(s.is_live());
    }

    #[test]
    fn fresh_symbols_are_unique() {
        let a = Symbol::fresh("x");
        let b = Symbol::fresh("x");
        assert_ne!(a, b);
        assert_ne!(a.as_str(), b.as_str());
    }

    #[test]
    fn fresh_symbols_do_not_collide_with_interned() {
        let g = Symbol::fresh("y");
        let name = g.as_str();
        let interned = Symbol::intern(&name);
        assert_ne!(g, interned, "gensym must stay uninterned");
        // an unscoped gensym skips names already interned
        let taken = Symbol::intern("z~0");
        let fresh = Symbol::fresh("z");
        assert_ne!(fresh.as_str(), taken.as_str());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(format!("{}", Symbol::from("abc")), "abc");
        assert_eq!(format!("{:?}", Symbol::from("abc")), "'abc");
    }

    #[test]
    fn scoped_fresh_is_deterministic_per_digest() {
        let names_a: Vec<String> = {
            let _scope = fresh_scope(0xDEAD_BEEF_0000_0001);
            (0..3).map(|_| Symbol::fresh("t").as_str()).collect()
        };
        let names_b: Vec<String> = {
            let _scope = fresh_scope(0xDEAD_BEEF_0000_0001);
            (0..3).map(|_| Symbol::fresh("t").as_str()).collect()
        };
        assert_eq!(names_a, names_b, "same digest must freshen identically");
        let other: Vec<String> = {
            let _scope = fresh_scope(0xDEAD_BEEF_0000_0002);
            (0..3).map(|_| Symbol::fresh("t").as_str()).collect()
        };
        assert_ne!(names_a, other, "different digests must not collide");
        // identities are still unique even when names repeat
        let a = {
            let _scope = fresh_scope(7);
            Symbol::fresh("x")
        };
        let b = {
            let _scope = fresh_scope(7);
            Symbol::fresh("x")
        };
        assert_eq!(a.as_str(), b.as_str());
        assert_ne!(a, b);
    }

    #[test]
    fn scoped_fresh_is_deterministic_across_threads() {
        let spawn = || {
            std::thread::spawn(|| {
                let _scope = fresh_scope(42);
                (0..4)
                    .map(|_| Symbol::fresh("w").as_str())
                    .collect::<Vec<_>>()
            })
        };
        let (a, b) = (spawn(), spawn());
        let a = a.join().expect("thread a");
        let b = b.join().expect("thread b");
        assert_eq!(a, b, "threads with the same scope must agree");
    }

    #[test]
    fn scopes_nest_and_restore() {
        let _outer = fresh_scope(1);
        let first = Symbol::fresh("o").as_str();
        {
            let _inner = fresh_scope(2);
            let inner = Symbol::fresh("i").as_str();
            assert!(inner.contains('.'), "scoped name: {inner}");
            assert_ne!(inner, first);
        }
        let second = Symbol::fresh("o").as_str();
        // the outer counter kept counting from where it left off
        assert!(second.ends_with(".1"), "outer scope resumed: {second}");
    }

    #[test]
    fn truncating_a_gensym_keeps_its_interned_namesake() {
        // the interned twin of a scoped gensym, as decoding an artifact
        // makes it, is older than a gensym the next expansion allocates
        // under the same scope
        let twin = Symbol::intern("t~0000002a.0");
        let mark = epoch_mark();
        let gensym = {
            let _scope = fresh_scope(0x2a);
            Symbol::fresh("t")
        };
        assert_eq!(gensym.as_str(), twin.as_str());
        assert_ne!(gensym, twin);
        assert_eq!(epoch_truncate(mark), 1);
        assert!(!gensym.is_live());
        assert!(twin.is_live());
        assert_eq!(Symbol::intern("t~0000002a.0"), twin, "one identity");
    }
}
