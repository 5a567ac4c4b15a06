//! Binding tables and identifier resolution.
//!
//! The expander records, for every binding form it encounters, an entry
//! mapping *(symbol, scope set)* to a [`Binding`]. Resolving a reference
//! finds the candidate entries for its symbol whose scope sets are subsets
//! of the reference's scope set and picks the largest — the sets-of-scopes
//! hygiene discipline.
//!
//! Resolution also implements `free-identifier=?` (paper §2.2): two
//! identifiers are `free-identifier=?` when they resolve to the same
//! binding.

use lagoon_runtime::{RtError, Value};
use lagoon_syntax::{ScopeSet, Symbol, Syntax};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// The core forms the expander itself understands (paper figure 1 plus
/// the handful of structural forms every Racket-family expander needs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoreFormKind {
    /// `(quote datum)`.
    Quote,
    /// `(quote-syntax stx)`.
    QuoteSyntax,
    /// `(if c t e)`.
    If,
    /// `(begin e …)`.
    Begin,
    /// `(#%plain-lambda formals body …)` and surface `lambda`/`λ`.
    Lambda,
    /// `(let-values ([(x) e] …) body …)`.
    LetValues,
    /// `(letrec-values ([(x) e] …) body …)`.
    LetrecValues,
    /// `(set! x e)`.
    Set,
    /// `(#%plain-app f e …)`.
    App,
    /// `(define-values (x …) e)` — definition contexts only.
    DefineValues,
    /// `(define-syntaxes (x) e)` — definition contexts only.
    DefineSyntaxes,
    /// `(begin-for-syntax e …)` — module level only.
    BeginForSyntax,
    /// `(#%provide spec …)` — module level only.
    Provide,
    /// `(#%require spec …)` — module level only.
    Require,
    /// `(#%plain-module-begin form …)`.
    PlainModuleBegin,
}

impl CoreFormKind {
    /// Stable tag used by the compiled-module store. Order is frozen —
    /// append only (the store's format version covers incompatible
    /// changes).
    pub fn wire_tag(self) -> u8 {
        match self {
            CoreFormKind::Quote => 0,
            CoreFormKind::QuoteSyntax => 1,
            CoreFormKind::If => 2,
            CoreFormKind::Begin => 3,
            CoreFormKind::Lambda => 4,
            CoreFormKind::LetValues => 5,
            CoreFormKind::LetrecValues => 6,
            CoreFormKind::Set => 7,
            CoreFormKind::App => 8,
            CoreFormKind::DefineValues => 9,
            CoreFormKind::DefineSyntaxes => 10,
            CoreFormKind::BeginForSyntax => 11,
            CoreFormKind::Provide => 12,
            CoreFormKind::Require => 13,
            CoreFormKind::PlainModuleBegin => 14,
        }
    }

    /// Inverse of [`CoreFormKind::wire_tag`].
    pub fn from_wire_tag(tag: u8) -> Option<CoreFormKind> {
        Some(match tag {
            0 => CoreFormKind::Quote,
            1 => CoreFormKind::QuoteSyntax,
            2 => CoreFormKind::If,
            3 => CoreFormKind::Begin,
            4 => CoreFormKind::Lambda,
            5 => CoreFormKind::LetValues,
            6 => CoreFormKind::LetrecValues,
            7 => CoreFormKind::Set,
            8 => CoreFormKind::App,
            9 => CoreFormKind::DefineValues,
            10 => CoreFormKind::DefineSyntaxes,
            11 => CoreFormKind::BeginForSyntax,
            12 => CoreFormKind::Provide,
            13 => CoreFormKind::Require,
            14 => CoreFormKind::PlainModuleBegin,
            _ => return None,
        })
    }
}

/// What a native (Rust-implemented) transformer returns.
pub enum Expanded {
    /// Surface syntax the expander should keep expanding.
    Surface(Syntax),
    /// Fully-expanded core syntax; the expander takes it as-is.
    Core(Syntax),
}

/// The Rust signature of a native transformer,
/// `Fn(&Expander, Syntax) -> Result<Expanded, RtError>`. Native
/// transformers are the compiled-library analogue of Racket macros: they
/// receive the whole use-site form (or the bare identifier, for an
/// identifier macro) plus access to the expander (for `local-expand`,
/// fresh scopes, binding installation, …).
pub type NativeFn = dyn Fn(&crate::expander::Expander, Syntax) -> Result<Expanded, RtError>;

/// A named native transformer.
pub struct NativeMacro {
    /// Diagnostic name.
    pub name: Symbol,
    /// The transformer.
    pub expand: Box<NativeFn>,
    /// Serialization recipe for the compiled-module store: a registered
    /// rehydrator tag plus the datum it reconstructs this transformer
    /// from. `None` means the transformer (and so any module exporting
    /// it) is uncacheable.
    pub recipe: Option<(Symbol, lagoon_syntax::Datum)>,
}

impl fmt::Debug for NativeMacro {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#<native-macro:{}>", self.name)
    }
}

/// What an identifier can resolve to.
#[derive(Clone, Debug)]
pub enum Binding {
    /// A runtime variable, under its globally unique runtime name.
    Variable(Symbol),
    /// A syntax-parse pattern variable: runtime name + ellipsis depth.
    PatternVar(Symbol, usize),
    /// A core form.
    Core(CoreFormKind),
    /// A hosted macro: a phase-1 procedure from syntax to syntax.
    Macro(Rc<Value>),
    /// A native (Rust) transformer.
    Native(Rc<NativeMacro>),
}

impl Binding {
    /// Whether two resolutions denote the same binding
    /// (`free-identifier=?` on resolved identifiers).
    pub fn same(&self, other: &Binding) -> bool {
        match (self, other) {
            (Binding::Variable(a), Binding::Variable(b)) => a == b,
            (Binding::PatternVar(a, _), Binding::PatternVar(b, _)) => a == b,
            (Binding::Core(a), Binding::Core(b)) => a == b,
            (Binding::Macro(a), Binding::Macro(b)) => Rc::ptr_eq(a, b),
            (Binding::Native(a), Binding::Native(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// The per-expansion binding store.
#[derive(Debug, Default)]
pub struct BindingTable {
    entries: RefCell<HashMap<Symbol, Vec<(ScopeSet, Binding)>>>,
}

impl BindingTable {
    /// An empty table.
    pub fn new() -> BindingTable {
        BindingTable::default()
    }

    /// Records that `sym` with exactly `scopes` refers to `binding`.
    pub fn bind(&self, sym: Symbol, scopes: ScopeSet, binding: Binding) {
        let mut entries = self.entries.borrow_mut();
        let bucket = entries.entry(sym).or_default();
        // replace an existing entry for the identical scope set (e.g.
        // redefinition at a REPL-like top level)
        if let Some(slot) = bucket.iter_mut().find(|(ss, _)| *ss == scopes) {
            slot.1 = binding;
            return;
        }
        bucket.push((scopes, binding));
    }

    /// Convenience: binds using an identifier's own symbol and scopes.
    /// Silently ignores non-identifiers (callers check first).
    pub fn bind_id(&self, id: &Syntax, binding: Binding) {
        if let Some(sym) = id.sym() {
            self.bind(sym, id.scopes().clone(), binding);
        }
    }

    /// Sweeps entries belonging to a discarded request world: any entry
    /// whose key symbol is no longer live on this thread (its epoch was
    /// truncated), whose scope set references a scope allocated at or
    /// after `scope_watermark`, or whose binding targets a dead symbol.
    ///
    /// The scope check is sound because a binding table is thread-
    /// private (registries are `Rc`-based): scopes at or above the
    /// watermark that appear *in this table* were necessarily created
    /// by this thread during the swept request. Without the sweep, the
    /// table grows per request even with the interner fixed — e.g.
    /// `import_into` binds dependency exports under a fresh per-request
    /// module scope, keyed by persistent export symbols.
    ///
    /// Returns the number of entries removed.
    pub fn sweep(&self, scope_watermark: u32) -> usize {
        let dead_scopes = |ss: &ScopeSet| ss.iter().any(|sc| sc.id() >= scope_watermark);
        let dead_binding = |b: &Binding| match b {
            Binding::Variable(s) | Binding::PatternVar(s, _) => !s.is_live(),
            Binding::Core(_) | Binding::Macro(_) | Binding::Native(_) => false,
        };
        let mut entries = self.entries.borrow_mut();
        let mut removed = 0;
        entries.retain(|sym, bucket| {
            if !sym.is_live() {
                removed += bucket.len();
                return false;
            }
            bucket.retain(|(ss, b)| {
                let keep = !dead_scopes(ss) && !dead_binding(b);
                if !keep {
                    removed += 1;
                }
                keep
            });
            !bucket.is_empty()
        });
        removed
    }

    /// Resolves a reference: the binding whose scope set is the largest
    /// subset of `id`'s scopes.
    ///
    /// # Errors
    ///
    /// Returns an ambiguity error if two candidate scope sets are maximal
    /// but incomparable.
    pub fn resolve(&self, id: &Syntax) -> Result<Option<Binding>, RtError> {
        let Some(sym) = id.sym() else {
            return Ok(None);
        };
        let entries = self.entries.borrow();
        let Some(bucket) = entries.get(&sym) else {
            return Ok(None);
        };
        let mut best: Option<&(ScopeSet, Binding)> = None;
        for cand in bucket {
            if !cand.0.is_subset(id.scopes()) {
                continue;
            }
            match best {
                None => best = Some(cand),
                Some(b) if b.0.len() < cand.0.len() => best = Some(cand),
                Some(_) => {}
            }
        }
        // ambiguity check: every candidate subset must itself be a subset
        // of the winner
        if let Some((best_ss, _)) = best {
            for cand in bucket {
                if cand.0.is_subset(id.scopes())
                    && !cand.0.is_subset(best_ss)
                    && cand.0.len() == best_ss.len()
                {
                    return Err(
                        RtError::user(format!("{sym}: identifier's binding is ambiguous"))
                            .with_span(id.span()),
                    );
                }
            }
        }
        Ok(best.map(|(_, b)| b.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagoon_syntax::{Scope, Span};

    fn id(name: &str, scopes: &ScopeSet) -> Syntax {
        let mut s = Syntax::ident(Symbol::from(name), Span::synthetic());
        for sc in scopes.iter() {
            s = s.add_scope(sc);
        }
        s
    }

    #[test]
    fn resolves_largest_subset() {
        let t = BindingTable::new();
        let a = Scope::fresh();
        let b = Scope::fresh();
        let outer = ScopeSet::from_scopes(vec![a]);
        let inner = ScopeSet::from_scopes(vec![a, b]);
        t.bind(
            Symbol::from("x"),
            outer.clone(),
            Binding::Variable(Symbol::from("x-outer")),
        );
        t.bind(
            Symbol::from("x"),
            inner.clone(),
            Binding::Variable(Symbol::from("x-inner")),
        );

        // reference with both scopes sees the inner binding
        match t.resolve(&id("x", &inner)).unwrap().unwrap() {
            Binding::Variable(v) => assert_eq!(v.as_str(), "x-inner"),
            _ => panic!(),
        }
        // reference with only the outer scope sees the outer binding
        match t.resolve(&id("x", &outer)).unwrap().unwrap() {
            Binding::Variable(v) => assert_eq!(v.as_str(), "x-outer"),
            _ => panic!(),
        }
    }

    #[test]
    fn unbound_is_none() {
        let t = BindingTable::new();
        assert!(t.resolve(&id("nope", &ScopeSet::new())).unwrap().is_none());
    }

    #[test]
    fn macro_introduction_scope_separates_bindings() {
        // models the hygiene example of paper §2.1: a macro-introduced `i`
        // does not capture the user's `i`
        let t = BindingTable::new();
        let module = Scope::fresh();
        let intro = Scope::fresh();
        let user_scopes = ScopeSet::from_scopes(vec![module]);
        let macro_scopes = ScopeSet::from_scopes(vec![module, intro]);
        t.bind(
            Symbol::from("i"),
            user_scopes.clone(),
            Binding::Variable(Symbol::from("i-user")),
        );
        t.bind(
            Symbol::from("i"),
            macro_scopes.clone(),
            Binding::Variable(Symbol::from("i-macro")),
        );

        match t.resolve(&id("i", &user_scopes)).unwrap().unwrap() {
            Binding::Variable(v) => assert_eq!(v.as_str(), "i-user"),
            _ => panic!(),
        }
        match t.resolve(&id("i", &macro_scopes)).unwrap().unwrap() {
            Binding::Variable(v) => assert_eq!(v.as_str(), "i-macro"),
            _ => panic!(),
        }
    }

    #[test]
    fn ambiguous_resolution_errors() {
        let t = BindingTable::new();
        let a = Scope::fresh();
        let b = Scope::fresh();
        let c = Scope::fresh();
        t.bind(
            Symbol::from("y"),
            ScopeSet::from_scopes(vec![a, b]),
            Binding::Variable(Symbol::from("y1")),
        );
        t.bind(
            Symbol::from("y"),
            ScopeSet::from_scopes(vec![a, c]),
            Binding::Variable(Symbol::from("y2")),
        );
        let both = ScopeSet::from_scopes(vec![a, b, c]);
        assert!(t.resolve(&id("y", &both)).is_err());
    }

    #[test]
    fn rebinding_same_scopes_replaces() {
        let t = BindingTable::new();
        let ss = ScopeSet::from_scopes(vec![Scope::fresh()]);
        t.bind(
            Symbol::from("z"),
            ss.clone(),
            Binding::Variable(Symbol::from("z1")),
        );
        t.bind(
            Symbol::from("z"),
            ss.clone(),
            Binding::Variable(Symbol::from("z2")),
        );
        match t.resolve(&id("z", &ss)).unwrap().unwrap() {
            Binding::Variable(v) => assert_eq!(v.as_str(), "z2"),
            _ => panic!(),
        }
    }

    #[test]
    fn binding_same() {
        let v1 = Binding::Variable(Symbol::from("a"));
        let v2 = Binding::Variable(Symbol::from("a"));
        assert!(v1.same(&v2));
        assert!(!v1.same(&Binding::Variable(Symbol::from("b"))));
        assert!(Binding::Core(CoreFormKind::If).same(&Binding::Core(CoreFormKind::If)));
        assert!(!Binding::Core(CoreFormKind::If).same(&Binding::Core(CoreFormKind::Begin)));
    }
}
