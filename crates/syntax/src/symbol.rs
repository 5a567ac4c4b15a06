//! Interned symbols: a shared immutable arena plus per-thread epoch
//! tables ("symbol worlds").
//!
//! Symbols are the identifiers of the Lagoon language. They are interned
//! so that equality and hashing are O(1), and so that a [`Symbol`] is a
//! small `Copy` value that can be embedded in every datum, syntax object,
//! and binding-table key.
//!
//! # Symbol worlds
//!
//! Storage is split in two:
//!
//! - The **arena**: an append-only table shared by the whole process.
//!   Names are leaked to `&'static str`, reads are lock-free (a page
//!   table of `OnceLock` slots), and ids are stable forever. Until the
//!   arena is *sealed* every intern and gensym lands here — a CLI run or
//!   a test binary behaves exactly like the old process-global interner.
//! - The **epoch table**: a thread-local table for everything interned
//!   after [`seal_arena`]. A long-lived worker takes an [`epoch_mark`]
//!   before serving a request and [`epoch_truncate`]s back to it
//!   afterwards, actually freeing the request's symbols instead of
//!   leaking them — the fix for the measured ~3.2 interned symbols per
//!   daemon request (BENCH_6).
//!
//! The split is encoded in the id: bit 31 clear means arena index; bit
//! 31 set means epoch symbol, with a 9-bit generation stamp (bits
//! 22–30) and a 22-bit table slot (bits 0–21). Truncation bumps the
//! generation, so a stale handle held across a truncation is *detected*
//! (its name reads as `#<stale-symbol>`) rather than aliasing a newer
//! symbol. After 512 truncations the stamp wraps, so detection is a
//! safety net, not the guarantee. The guarantee is that no handle
//! outlives its truncation: the daemon truncates only after a request
//! that left its registry's persistent footprint unchanged, so nothing
//! that survives the request holds one of its symbols, and the world it
//! rebuilds after an internal error starts from [`epoch_reset`].
//!
//! Epoch symbols are meaningful only on the thread that created them.
//! That matches the system's architecture — values are `Rc`-based and
//! never cross threads; workers exchange only serialized `.lagc` bytes,
//! which store symbol *names* and re-intern on load.
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

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

/// An interned symbol: a cheap, copyable handle to a string.
///
/// Two symbols are equal iff their names are equal (for symbols created via
/// [`Symbol::from`] on the same thread and epoch) — gensyms created with
/// [`Symbol::fresh`] are equal only to themselves.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

// ---------------------------------------------------------------------------
// The shared arena
// ---------------------------------------------------------------------------

/// Arena capacity: `ARENA_PAGES * ARENA_PAGE` symbols (4M). Ids fit in
/// 31 bits with room to spare; overflowing the arena falls back to the
/// epoch table rather than failing.
const ARENA_PAGE: usize = 1024;
const ARENA_PAGES: usize = 4096;

/// Bit 31 distinguishes epoch symbols from arena symbols.
const EPOCH_FLAG: u32 = 0x8000_0000;
/// Epoch ids: 22 bits of slot, 9 bits of generation stamp.
const SLOT_BITS: u32 = 22;
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;
const STAMP_MASK: u32 = 0x1FF;

type ArenaPage = [OnceLock<&'static str>; ARENA_PAGE];

/// The page table. Pages are allocated on demand and leaked; a slot's
/// `OnceLock` publishes the name, so readers need no lock at all.
static ARENA_TABLE: [OnceLock<&'static ArenaPage>; ARENA_PAGES] =
    [const { OnceLock::new() }; ARENA_PAGES];

struct Arena {
    /// Published length: every id below it has its slot set.
    len: AtomicU32,
    /// Dedup map for *interned* names (gensyms are deliberately absent).
    /// Also the allocation lock: all arena writes happen under its write
    /// guard.
    map: RwLock<HashMap<&'static str, u32>>,
    /// Once sealed, new names go to the per-thread epoch table instead.
    sealed: AtomicBool,
}

fn arena() -> &'static Arena {
    static ARENA: OnceLock<Arena> = OnceLock::new();
    ARENA.get_or_init(|| Arena {
        len: AtomicU32::new(0),
        map: RwLock::new(HashMap::new()),
        sealed: AtomicBool::new(false),
    })
}

/// Lock-free name lookup for an arena id.
fn arena_name(id: u32) -> Option<&'static str> {
    let page = ARENA_TABLE.get(id as usize / ARENA_PAGE)?.get()?;
    page[id as usize % ARENA_PAGE].get().copied()
}

/// Allocates an arena slot for `name`. Callers must hold the `map`
/// write guard (the allocation lock); the map itself is only updated by
/// the caller, because gensyms allocate slots without map entries.
/// Returns `None` when the arena is full.
fn arena_alloc_locked(name: &str) -> Option<(u32, &'static str)> {
    let a = arena();
    let id = a.len.load(Ordering::Relaxed);
    let page_idx = id as usize / ARENA_PAGE;
    if page_idx >= ARENA_PAGES {
        return None;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    let page = ARENA_TABLE[page_idx]
        .get_or_init(|| Box::leak(Box::new([const { OnceLock::new() }; ARENA_PAGE])));
    let _ = page[id as usize % ARENA_PAGE].set(leaked);
    a.len.store(id + 1, Ordering::Release);
    Some((id, leaked))
}

/// Seals the arena: names interned so far (typically the prelude/core
/// bootstrap) stay shared, lock-free and `&'static`; every *new* name on
/// any thread goes to that thread's epoch table, where it can be freed
/// by [`epoch_truncate`]. Sealing is process-global, idempotent, and
/// irreversible — the evaluation daemon seals after warming up a
/// throwaway registry, before spawning workers.
pub fn seal_arena() {
    arena().sealed.store(true, Ordering::SeqCst);
}

/// Whether [`seal_arena`] has been called in this process.
pub fn arena_sealed() -> bool {
    arena().sealed.load(Ordering::SeqCst)
}

/// Number of symbols in the shared arena (interned names and pre-seal
/// gensyms). Flat after sealing, except for the overflow safety valve.
pub fn arena_len() -> usize {
    arena().len.load(Ordering::Acquire) as usize
}

// ---------------------------------------------------------------------------
// The per-thread epoch table
// ---------------------------------------------------------------------------

#[derive(Default)]
struct EpochTable {
    /// Slot → name.
    names: Vec<Box<str>>,
    /// Slot → generation at allocation (stale-handle detection).
    stamps: Vec<u16>,
    /// Interned names only (gensyms stay out, as in the arena).
    map: HashMap<Box<str>, u32>,
    /// Current generation; bumped on every truncation.
    gen: u16,
}

impl EpochTable {
    /// Allocates a slot; gives the name back when the table is full.
    fn alloc(&mut self, name: String) -> Result<Symbol, String> {
        let slot = self.names.len() as u32;
        if slot > SLOT_MASK {
            return Err(name);
        }
        self.names.push(name.into_boxed_str());
        self.stamps.push(self.gen);
        Ok(compose_epoch(slot, self.gen))
    }

    fn name_of(&self, sym: Symbol) -> Option<&str> {
        let (slot, stamp) = decompose_epoch(sym)?;
        let idx = slot as usize;
        (self.stamps.get(idx) == Some(&stamp)).then(|| &*self.names[idx])
    }

    fn truncate_to(&mut self, len: usize) -> usize {
        let dropped = self.names.len().saturating_sub(len);
        for name in self.names.drain(len..) {
            self.map.remove(&name);
        }
        self.stamps.truncate(len);
        self.gen = (self.gen + 1) & STAMP_MASK as u16;
        dropped
    }
}

fn compose_epoch(slot: u32, gen: u16) -> Symbol {
    Symbol(EPOCH_FLAG | ((gen as u32 & STAMP_MASK) << SLOT_BITS) | slot)
}

fn decompose_epoch(sym: Symbol) -> Option<(u32, u16)> {
    (sym.0 & EPOCH_FLAG != 0).then_some((
        sym.0 & SLOT_MASK,
        ((sym.0 >> SLOT_BITS) & STAMP_MASK) as u16,
    ))
}

thread_local! {
    static EPOCH: RefCell<EpochTable> = RefCell::new(EpochTable::default());
}

/// A point in this thread's epoch table that [`epoch_truncate`] can roll
/// back to. Opaque and `Copy`; valid until the next truncation.
#[derive(Clone, Copy, Debug)]
pub struct EpochMark {
    len: u32,
    gen: u16,
}

/// Captures the current extent of this thread's epoch table. Symbols
/// created after the mark are discarded by [`epoch_truncate`].
pub fn epoch_mark() -> EpochMark {
    EPOCH.with(|t| {
        let t = t.borrow();
        EpochMark {
            len: t.names.len() as u32,
            gen: t.gen,
        }
    })
}

/// Discards every epoch symbol this thread created after `mark`,
/// freeing their names, and bumps the generation so stale handles are
/// detected instead of aliased. A mark from before an intervening
/// truncation is itself stale and is ignored (returns 0). Returns the
/// number of symbols discarded.
pub fn epoch_truncate(mark: EpochMark) -> usize {
    EPOCH.with(|t| {
        let mut t = t.borrow_mut();
        if mark.gen != t.gen || mark.len as usize > t.names.len() {
            return 0;
        }
        t.truncate_to(mark.len as usize)
    })
}

/// Discards this thread's entire epoch table (worker recycling / world
/// rebuild). Returns the number of symbols discarded.
pub fn epoch_reset() -> usize {
    EPOCH.with(|t| {
        let mut t = t.borrow_mut();
        t.map.clear();
        let dropped = t.names.len();
        t.names.clear();
        t.stamps.clear();
        t.gen = (t.gen + 1) & STAMP_MASK as u16;
        dropped
    })
}

/// Number of live symbols in this thread's epoch table.
pub fn epoch_len() -> usize {
    EPOCH.with(|t| t.borrow().names.len())
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
/// scope, instead of drawing from the process-global counter.
///
/// Module compilation opens a scope keyed on a digest of the module's
/// name and source text, which makes freshened names a pure function of
/// the module's content: two workers (threads, or whole processes)
/// compiling the same module emit byte-identical artifacts, and names
/// from different modules cannot collide because their digests differ.
/// Scopes nest — compiling a dependency mid-expansion pushes the
/// dependency's scope and restores the importer's counter afterwards.
/// Determinism is unaffected by the arena/epoch split: names depend
/// only on the digest and counter, never on table state.
pub fn fresh_scope(digest: u64) -> FreshScope {
    FRESH_SCOPES.with(|s| s.borrow_mut().push((digest, 0)));
    FreshScope(())
}

/// Folds a 64-bit digest to the 32 bits used in scoped gensym names.
fn fold_digest(digest: u64) -> u32 {
    (digest ^ (digest >> 32)) as u32
}

/// Strips a gensym suffix from a printed symbol name, recovering the
/// base the user (or the prelude) wrote: both the global-counter form
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

/// The number of symbols in *this thread's world*: the shared arena
/// plus this thread's live epoch table (interned names and gensyms
/// alike). Before [`seal_arena`] this is the process-global count, as
/// it always was; after sealing, each worker thread reports its own
/// world, and the daemon's `stats` op aggregates per-worker gauges.
/// Flat across a request that is followed by an [`epoch_truncate`].
pub fn interned_count() -> usize {
    arena_len() + epoch_len()
}

/// Whether `name` is already known to this world as an *interned* name
/// (gensyms don't count — they are never in the lookup tables).
fn name_is_interned(name: &str) -> bool {
    let a = arena();
    if a.map
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .contains_key(name)
    {
        return true;
    }
    a.sealed.load(Ordering::SeqCst) && EPOCH.with(|t| t.borrow().map.contains_key(name))
}

/// Allocates a gensym (no lookup-table entry) in the current world:
/// epoch table once sealed, arena before. Falls over to the other
/// table when one is full.
fn alloc_gensym(name: String) -> Symbol {
    let name = if arena_sealed() {
        match EPOCH.with(|t| t.borrow_mut().alloc(name)) {
            Ok(sym) => return sym,
            Err(name) => name,
        }
    } else {
        name
    };
    // Pre-seal, or the epoch table overflowed its 22-bit slot space:
    // allocate in the arena (no map entry — gensyms stay uninterned).
    let wr = arena().map.write().unwrap_or_else(|e| e.into_inner());
    if let Some((id, _)) = arena_alloc_locked(&name) {
        drop(wr);
        return Symbol(id);
    }
    drop(wr);
    // Arena full too (4M symbols): last resort, force an epoch slot by
    // clearing nothing — truncation pressure is the operator's problem
    // at this point; return a best-effort epoch symbol or slot 0 alias.
    EPOCH.with(|t| {
        let mut t = t.borrow_mut();
        let gen = t.gen;
        t.alloc(name).unwrap_or_else(|_| compose_epoch(0, gen))
    })
}

// Lock poisoning below is recovered with `into_inner`: the arena is
// append-only (an entry is fully constructed before the guard drops), so a
// panic elsewhere never leaves it in an inconsistent state.
impl Symbol {
    /// Interns `name`, returning the canonical symbol for it — from the
    /// shared arena when the name is already there (or the arena is
    /// unsealed), otherwise from this thread's epoch table.
    pub fn intern(name: &str) -> Symbol {
        let a = arena();
        if let Some(&id) = a.map.read().unwrap_or_else(|e| e.into_inner()).get(name) {
            return Symbol(id);
        }
        if a.sealed.load(Ordering::SeqCst) {
            return EPOCH.with(|t| {
                let mut t = t.borrow_mut();
                if let Some(&id) = t.map.get(name) {
                    return Symbol(id);
                }
                match t.alloc(name.to_owned()) {
                    Ok(sym) => {
                        t.map.insert(name.into(), sym.0);
                        sym
                    }
                    // Epoch table full: spill into the arena so the
                    // symbol still works (a permanent entry — the
                    // safety valve, not the normal path).
                    Err(_) => {
                        drop(t);
                        Symbol::intern_arena(name)
                    }
                }
            });
        }
        Symbol::intern_arena(name)
    }

    /// Arena-path intern: dedup + allocate under the write lock.
    fn intern_arena(name: &str) -> Symbol {
        let a = arena();
        let mut wr = a.map.write().unwrap_or_else(|e| e.into_inner());
        if let Some(&id) = wr.get(name) {
            return Symbol(id);
        }
        match arena_alloc_locked(name) {
            Some((id, leaked)) => {
                wr.insert(leaked, id);
                Symbol(id)
            }
            None => {
                // Arena full: fall back to an epoch entry.
                drop(wr);
                EPOCH.with(|t| {
                    let mut t = t.borrow_mut();
                    if let Some(&id) = t.map.get(name) {
                        return Symbol(id);
                    }
                    let gen = t.gen;
                    let sym = t
                        .alloc(name.to_owned())
                        .unwrap_or_else(|_| compose_epoch(0, gen));
                    t.map.insert(name.into(), sym.0);
                    sym
                })
            }
        }
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
    /// binding). Outside any scope the name draws from a process-global
    /// counter and skips names the world already knows: decoding a
    /// compiled artifact interns the gensym names it recorded, and an
    /// unscoped live gensym must stay distinct from those by *name*,
    /// not just identity, for its own artifact to be loadable later.
    pub fn fresh(base: &str) -> Symbol {
        let scoped = FRESH_SCOPES.with(|s| {
            s.borrow_mut().last_mut().map(|(digest, n)| {
                let name = format!("{base}~{:08x}.{n}", fold_digest(*digest));
                *n += 1;
                name
            })
        });
        if let Some(name) = scoped {
            return alloc_gensym(name);
        }
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        // The probe loop is bounded and formats *outside* any lock (the
        // old implementation held the interner write lock across the
        // whole format-and-retry loop). Collisions require someone to
        // have interned a literal "{base}~{n}" name, so in practice the
        // first probe wins; after the bound we take the name anyway —
        // identity (not name) uniqueness is the hard guarantee.
        const MAX_PROBES: u32 = 64;
        let mut name = String::new();
        for _ in 0..MAX_PROBES {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            name = format!("{base}~{n}");
            if !name_is_interned(&name) {
                break;
            }
        }
        alloc_gensym(name)
    }

    /// The symbol's name. Allocates a `String`; prefer
    /// [`Symbol::static_str`] or [`Symbol::with_str`] on hot paths.
    /// A stale epoch symbol (held across a truncation) reads as
    /// `#<stale-symbol>`.
    pub fn as_str(&self) -> String {
        match self.static_str() {
            Some(s) => s.to_owned(),
            None => EPOCH.with(|t| {
                t.borrow()
                    .name_of(*self)
                    .map(str::to_owned)
                    .unwrap_or_else(|| "#<stale-symbol>".to_owned())
            }),
        }
    }

    /// The symbol's name as a `&'static str` — `Some` for arena symbols
    /// (prelude/core names and everything interned before sealing),
    /// `None` for epoch symbols. Zero-cost and lock-free.
    pub fn static_str(&self) -> Option<&'static str> {
        if self.0 & EPOCH_FLAG == 0 {
            arena_name(self.0)
        } else {
            None
        }
    }

    /// Runs `f` on the symbol's name without cloning it for arena
    /// symbols (the overwhelmingly common case: prelude, core forms,
    /// user identifiers in unsealed processes). Epoch symbols copy the
    /// name out of the thread-local table first, so `f` may intern
    /// without re-entering the table borrow.
    pub fn with_str<R>(&self, f: impl FnOnce(&str) -> R) -> R {
        match self.static_str() {
            Some(s) => f(s),
            None => f(&self.as_str()),
        }
    }

    /// Whether this symbol's name is still reachable from this thread:
    /// always true for arena symbols, true for epoch symbols until
    /// their epoch is truncated. The daemon's binding-table sweep uses
    /// this to drop entries that refer to a finished request's world.
    pub fn is_live(&self) -> bool {
        if self.0 & EPOCH_FLAG == 0 {
            return true;
        }
        EPOCH.with(|t| t.borrow().name_of(*self).is_some())
    }

    /// The raw id. Useful only for debugging (bit 31 set means an epoch
    /// symbol; see the module docs for the layout).
    pub fn index(&self) -> u32 {
        self.0
    }

    /// Rebuilds a symbol from a raw id obtained via [`Symbol::index`].
    /// Exists so compact packed representations (the runtime's NaN-boxed
    /// value word) can round-trip symbols without a lookup. Safe for any
    /// input: an id that names nothing renders as `#<stale-symbol>`.
    pub fn from_index(raw: u32) -> Symbol {
        Symbol(raw)
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

    // Sealing is process-global, so the epoch-world behaviors (post-seal
    // interning, truncation, stale detection) are exercised in the
    // `epoch_worlds` integration test, which owns its process. The unit
    // tests here run pre- or post-seal agnostically.

    #[test]
    fn interning_is_idempotent() {
        assert_eq!(Symbol::from("foo"), Symbol::from("foo"));
        assert_ne!(Symbol::from("foo"), Symbol::from("bar"));
    }

    #[test]
    fn interned_count_tracks_this_world() {
        // Replaces the obsolete `interned_count_grows_monotonically`:
        // the count is now a per-world gauge (arena + this thread's
        // epoch table) that *can* shrink at a truncation, but within an
        // epoch new symbols still grow it.
        let before = interned_count();
        let a = Symbol::intern("interned-count-probe-a");
        let g = Symbol::fresh("interned-count-probe-b");
        let after = interned_count();
        assert!(after >= before, "{before} -> {after}");
        // both symbols remain resolvable in this world
        assert_eq!(a.as_str(), "interned-count-probe-a");
        assert!(g.as_str().starts_with("interned-count-probe-b~"));
        // re-interning an existing name does not grow the world
        // (modulo concurrent tests interning, hence >=)
        let count = interned_count();
        let _ = Symbol::intern("interned-count-probe-a");
        assert!(interned_count() >= count);
    }

    #[test]
    fn round_trips_name() {
        assert_eq!(Symbol::from("hello-world").as_str(), "hello-world");
        assert_eq!(Symbol::from("").as_str(), "");
        assert_eq!(Symbol::from("λ").as_str(), "λ");
    }

    #[test]
    fn static_str_matches_as_str_for_arena_symbols() {
        let s = Symbol::from("static-str-probe");
        if let Some(st) = s.static_str() {
            assert_eq!(st, s.as_str());
        } else {
            // post-seal (another test binary sealed): still resolvable
            assert_eq!(s.as_str(), "static-str-probe");
        }
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
    fn epoch_mark_truncate_roundtrip_is_safe_pre_seal() {
        // Pre-seal, marks see an empty epoch table and truncation is a
        // no-op — the daemon API is safe to call unconditionally.
        let mark = epoch_mark();
        let _ = Symbol::intern("pre-seal-probe");
        assert_eq!(epoch_truncate(mark), 0);
    }
}
