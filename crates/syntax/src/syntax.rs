//! Syntax objects: attributed ASTs.
//!
//! A [`Syntax`] wraps S-expression structure with the three pieces of
//! metadata the paper's extension API depends on:
//!
//! 1. a [`Span`] (source location),
//! 2. a [`ScopeSet`] (hygiene information), and
//! 3. [syntax properties](crate::syntax::PropValue) — arbitrary out-of-band
//!    key/value data preserved by the expander, which Typed Lagoon uses to
//!    attach type annotations to binders (paper §3.1).
//!
//! Syntax objects are immutable and cheaply cloneable (`Rc`-shared).
//!
//! # Examples
//!
//! ```
//! use lagoon_syntax::{Datum, Span, Symbol, Syntax};
//! let id = Syntax::ident(Symbol::from("x"), Span::synthetic());
//! let ann = id.with_property(Symbol::from("type-annotation"),
//!                            Syntax::ident(Symbol::from("Integer"), Span::synthetic()).into());
//! assert!(ann.property(Symbol::from("type-annotation")).is_some());
//! assert_eq!(ann.to_datum(), Datum::sym("x"));
//! ```

use crate::datum::Datum;
use crate::scope::{Scope, ScopeSet};
use crate::span::Span;
use crate::symbol::Symbol;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// The structure of a syntax object: either an atom or a compound whose
/// elements are themselves syntax objects (like Racket's `syntax-e`).
#[derive(Clone, Debug, PartialEq)]
pub enum SynData {
    /// A non-compound datum (symbol, number, string, …).
    Atom(Datum),
    /// A proper list of sub-syntax.
    List(Vec<Syntax>),
    /// An improper list `(a b . c)`.
    Improper(Vec<Syntax>, Box<Syntax>),
    /// A vector literal.
    Vector(Vec<Syntax>),
}

/// The value of a syntax property: either plain data or more syntax (the
/// typed language stores *type expressions* — syntax — under its
/// `type-annotation` key).
#[derive(Clone, Debug, PartialEq)]
pub enum PropValue {
    /// A plain datum property value.
    Datum(Datum),
    /// A syntax-object property value.
    Syntax(Syntax),
}

impl From<Datum> for PropValue {
    fn from(d: Datum) -> PropValue {
        PropValue::Datum(d)
    }
}

impl From<Syntax> for PropValue {
    fn from(s: Syntax) -> PropValue {
        PropValue::Syntax(s)
    }
}

impl PropValue {
    /// The syntax, if this property holds syntax.
    pub fn as_syntax(&self) -> Option<&Syntax> {
        match self {
            PropValue::Syntax(s) => Some(s),
            PropValue::Datum(_) => None,
        }
    }

    /// The datum, if this property holds a datum.
    pub fn as_datum(&self) -> Option<&Datum> {
        match self {
            PropValue::Datum(d) => Some(d),
            PropValue::Syntax(_) => None,
        }
    }
}

type PropMap = Rc<HashMap<Symbol, PropValue>>;

#[derive(Debug)]
struct SyntaxNode {
    data: SynData,
    span: Span,
    scopes: ScopeSet,
    props: Option<PropMap>,
}

/// An immutable, reference-counted syntax object.
#[derive(Clone, Debug)]
pub struct Syntax(Rc<SyntaxNode>);

impl Syntax {
    fn make(data: SynData, span: Span, scopes: ScopeSet, props: Option<PropMap>) -> Syntax {
        Syntax(Rc::new(SyntaxNode {
            data,
            span,
            scopes,
            props,
        }))
    }

    /// A new atom. `datum` must not be compound; compound datums should go
    /// through [`Syntax::from_datum`].
    ///
    /// # Panics
    ///
    /// Panics if `datum` is a list, improper list, or vector.
    pub fn atom(datum: Datum, span: Span) -> Syntax {
        assert!(datum.is_atom(), "Syntax::atom on compound datum {datum}");
        Syntax::make(SynData::Atom(datum), span, ScopeSet::new(), None)
    }

    /// A new identifier syntax object with no scopes.
    pub fn ident(sym: Symbol, span: Span) -> Syntax {
        Syntax::atom(Datum::Symbol(sym), span)
    }

    /// A new proper-list syntax object.
    pub fn list(items: Vec<Syntax>, span: Span) -> Syntax {
        Syntax::make(SynData::List(items), span, ScopeSet::new(), None)
    }

    /// A new improper-list syntax object.
    pub fn improper(items: Vec<Syntax>, tail: Syntax, span: Span) -> Syntax {
        Syntax::make(
            SynData::Improper(items, Box::new(tail)),
            span,
            ScopeSet::new(),
            None,
        )
    }

    /// A new vector syntax object.
    pub fn vector(items: Vec<Syntax>, span: Span) -> Syntax {
        Syntax::make(SynData::Vector(items), span, ScopeSet::new(), None)
    }

    /// Converts a datum to syntax, recursively, applying `scopes` to every
    /// node — the analogue of `(datum->syntax ctx datum)`, where `scopes`
    /// comes from the context identifier.
    pub fn from_datum(datum: &Datum, span: Span, scopes: &ScopeSet) -> Syntax {
        let data = match datum {
            Datum::List(items) => SynData::List(
                items
                    .iter()
                    .map(|d| Syntax::from_datum(d, span, scopes))
                    .collect(),
            ),
            Datum::Improper(items, tail) => SynData::Improper(
                items
                    .iter()
                    .map(|d| Syntax::from_datum(d, span, scopes))
                    .collect(),
                Box::new(Syntax::from_datum(tail, span, scopes)),
            ),
            Datum::Vector(items) => SynData::Vector(
                items
                    .iter()
                    .map(|d| Syntax::from_datum(d, span, scopes))
                    .collect(),
            ),
            atom => SynData::Atom(atom.clone()),
        };
        Syntax::make(data, span, scopes.clone(), None)
    }

    /// The structure of this syntax object (one level; like `syntax-e`).
    pub fn e(&self) -> &SynData {
        &self.0.data
    }

    /// The source location.
    pub fn span(&self) -> Span {
        self.0.span
    }

    /// The hygiene scope set.
    pub fn scopes(&self) -> &ScopeSet {
        &self.0.scopes
    }

    /// Whether this is an identifier (a symbol atom).
    pub fn is_identifier(&self) -> bool {
        matches!(self.e(), SynData::Atom(Datum::Symbol(_)))
    }

    /// The symbol, if this is an identifier.
    pub fn sym(&self) -> Option<Symbol> {
        match self.e() {
            SynData::Atom(Datum::Symbol(s)) => Some(*s),
            _ => None,
        }
    }

    /// The elements, if this is a proper list.
    pub fn as_list(&self) -> Option<&[Syntax]> {
        match self.e() {
            SynData::List(items) => Some(items),
            _ => None,
        }
    }

    /// Like [`Syntax::as_list`] but owned clones — the analogue of
    /// `syntax->list`.
    pub fn to_list(&self) -> Option<Vec<Syntax>> {
        self.as_list().map(|s| s.to_vec())
    }

    /// Replaces the structure, keeping span, scopes, and properties.
    pub fn with_data(&self, data: SynData) -> Syntax {
        Syntax::make(
            data,
            self.0.span,
            self.0.scopes.clone(),
            self.0.props.clone(),
        )
    }

    /// Replaces the span, keeping everything else.
    pub fn with_span(&self, span: Span) -> Syntax {
        Syntax::make(
            self.0.data.clone(),
            span,
            self.0.scopes.clone(),
            self.0.props.clone(),
        )
    }

    fn map_scopes(&self, f: &impl Fn(&ScopeSet) -> ScopeSet) -> Syntax {
        let data = match &self.0.data {
            SynData::Atom(d) => SynData::Atom(d.clone()),
            SynData::List(items) => SynData::List(items.iter().map(|s| s.map_scopes(f)).collect()),
            SynData::Improper(items, tail) => SynData::Improper(
                items.iter().map(|s| s.map_scopes(f)).collect(),
                Box::new(tail.map_scopes(f)),
            ),
            SynData::Vector(items) => {
                SynData::Vector(items.iter().map(|s| s.map_scopes(f)).collect())
            }
        };
        Syntax::make(data, self.0.span, f(&self.0.scopes), self.0.props.clone())
    }

    /// Adds `scope` to this syntax object and all sub-syntax.
    pub fn add_scope(&self, scope: Scope) -> Syntax {
        self.map_scopes(&|ss| ss.with(scope))
    }

    /// Flips `scope` on this syntax object and all sub-syntax (used for
    /// macro-introduction scopes).
    pub fn flip_scope(&self, scope: Scope) -> Syntax {
        self.map_scopes(&|ss| ss.flipped(scope))
    }

    /// Reads a syntax property (the paper's `syntax-property-get`).
    pub fn property(&self, key: Symbol) -> Option<&PropValue> {
        self.0.props.as_ref()?.get(&key)
    }

    /// Returns a copy with a syntax property attached (the paper's
    /// `syntax-property-put`). Properties live on this node only, not on
    /// sub-syntax.
    pub fn with_property(&self, key: Symbol, value: PropValue) -> Syntax {
        let mut map: HashMap<Symbol, PropValue> = self
            .0
            .props
            .as_ref()
            .map(|m| (**m).clone())
            .unwrap_or_default();
        map.insert(key, value);
        Syntax::make(
            self.0.data.clone(),
            self.0.span,
            self.0.scopes.clone(),
            Some(Rc::new(map)),
        )
    }

    /// All properties on this node, in unspecified order.
    pub fn properties(&self) -> Vec<(Symbol, PropValue)> {
        self.0
            .props
            .as_ref()
            .map(|m| m.iter().map(|(k, v)| (*k, v.clone())).collect())
            .unwrap_or_default()
    }

    /// Copies all properties from `other` onto a copy of `self` (used when
    /// a rewrite replaces a form but must keep its annotations).
    pub fn copy_properties_from(&self, other: &Syntax) -> Syntax {
        let mut out = self.clone();
        for (k, v) in other.properties() {
            out = out.with_property(k, v);
        }
        out
    }

    /// Strips locations, scopes, and properties — `syntax->datum`.
    pub fn to_datum(&self) -> Datum {
        match &self.0.data {
            SynData::Atom(d) => d.clone(),
            SynData::List(items) => Datum::List(items.iter().map(Syntax::to_datum).collect()),
            SynData::Improper(items, tail) => Datum::Improper(
                items.iter().map(Syntax::to_datum).collect(),
                Box::new(tail.to_datum()),
            ),
            SynData::Vector(items) => Datum::Vector(items.iter().map(Syntax::to_datum).collect()),
        }
    }

    /// Pointer identity (used by identifier-keyed caches).
    pub fn ptr_eq(&self, other: &Syntax) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }
}

impl PartialEq for Syntax {
    /// Structural equality on data and scope sets; spans and properties are
    /// ignored.
    fn eq(&self, other: &Syntax) -> bool {
        self.0.scopes == other.0.scopes && self.0.data == other.0.data
    }
}

impl fmt::Display for Syntax {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_datum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> Span {
        Span::synthetic()
    }

    #[test]
    fn identifier_basics() {
        let x = Syntax::ident(Symbol::from("x"), sp());
        assert!(x.is_identifier());
        assert_eq!(x.sym(), Some(Symbol::from("x")));
        assert_eq!(x.to_datum(), Datum::sym("x"));
    }

    #[test]
    fn datum_round_trip() {
        let d = Datum::list(vec![
            Datum::sym("f"),
            Datum::Int(1),
            Datum::list(vec![Datum::sym("g"), Datum::Float(2.5)]),
        ]);
        let s = Syntax::from_datum(&d, sp(), &ScopeSet::new());
        assert_eq!(s.to_datum(), d);
    }

    #[test]
    fn scope_ops_are_recursive() {
        let d = Datum::list(vec![Datum::sym("a"), Datum::list(vec![Datum::sym("b")])]);
        let s = Syntax::from_datum(&d, sp(), &ScopeSet::new());
        let sc = Scope::fresh();
        let s2 = s.add_scope(sc);
        let inner = &s2.as_list().unwrap()[1].as_list().unwrap()[0];
        assert!(inner.scopes().contains(sc));
        let s3 = s2.flip_scope(sc);
        let inner3 = &s3.as_list().unwrap()[1].as_list().unwrap()[0];
        assert!(!inner3.scopes().contains(sc));
    }

    #[test]
    fn flip_scope_round_trips() {
        let s = Syntax::ident(Symbol::from("z"), sp());
        let sc = Scope::fresh();
        let flipped = s.flip_scope(sc);
        assert!(flipped.scopes().contains(sc));
        assert_eq!(flipped.flip_scope(sc), s);
    }

    #[test]
    fn properties_are_out_of_band() {
        let x = Syntax::ident(Symbol::from("x"), sp());
        let key = Symbol::from("type-annotation");
        let ty = Syntax::ident(Symbol::from("Integer"), sp());
        let annotated = x.with_property(key, ty.clone().into());
        // the datum is unchanged — out-of-band
        assert_eq!(annotated.to_datum(), x.to_datum());
        assert_eq!(
            annotated.property(key).and_then(PropValue::as_syntax),
            Some(&ty)
        );
        assert!(x.property(key).is_none());
    }

    #[test]
    fn properties_survive_scope_ops() {
        let key = Symbol::from("k");
        let x = Syntax::ident(Symbol::from("x"), sp()).with_property(key, Datum::Int(7).into());
        let sc = Scope::fresh();
        let moved = x.add_scope(sc);
        assert_eq!(
            moved.property(key).and_then(PropValue::as_datum),
            Some(&Datum::Int(7))
        );
    }

    #[test]
    fn structural_equality_includes_scopes() {
        let a = Syntax::ident(Symbol::from("v"), sp());
        let b = Syntax::ident(Symbol::from("v"), sp());
        assert_eq!(a, b);
        let sc = Scope::fresh();
        assert_ne!(a.add_scope(sc), b);
        assert_eq!(a.add_scope(sc), b.add_scope(sc));
    }

    #[test]
    fn copy_properties() {
        let k1 = Symbol::from("k1");
        let k2 = Symbol::from("k2");
        let src = Syntax::ident(Symbol::from("s"), sp())
            .with_property(k1, Datum::Int(1).into())
            .with_property(k2, Datum::Int(2).into());
        let dst = Syntax::ident(Symbol::from("d"), sp()).copy_properties_from(&src);
        assert_eq!(
            dst.property(k1).and_then(PropValue::as_datum),
            Some(&Datum::Int(1))
        );
        assert_eq!(
            dst.property(k2).and_then(PropValue::as_datum),
            Some(&Datum::Int(2))
        );
    }
}
