//! Helpers for constructing core syntax from Rust.
//!
//! Native transformers (the compiled-library analogue of Racket macros)
//! build their output with these combinators. Identifiers built with
//! [`id`] carry no scopes, so they resolve to the base environment — the
//! right default for references to primitives and core forms.

use lagoon_syntax::{Datum, Span, Symbol, Syntax};

/// A scopeless identifier (resolves against the base environment).
pub fn id(name: &str) -> Syntax {
    Syntax::ident(Symbol::intern(name), Span::synthetic())
}

/// An identifier for an existing symbol.
pub fn id_sym(sym: Symbol) -> Syntax {
    Syntax::ident(sym, Span::synthetic())
}

/// A list form.
pub fn lst(items: Vec<Syntax>) -> Syntax {
    Syntax::list(items, Span::synthetic())
}

/// `(#%plain-app f args…)`.
pub fn app(f: Syntax, args: Vec<Syntax>) -> Syntax {
    let mut items = vec![id("#%plain-app"), f];
    items.extend(args);
    lst(items)
}

/// `(quote datum)`.
pub fn quote_datum(d: Datum) -> Syntax {
    lst(vec![
        id("quote"),
        Syntax::from_datum(&d, Span::synthetic(), &Default::default()),
    ])
}

/// `(quote sym)`.
pub fn quote_sym(sym: Symbol) -> Syntax {
    lst(vec![id("quote"), id_sym(sym)])
}

/// `(quote-syntax stx)`.
pub fn quote_syntax(stx: Syntax) -> Syntax {
    lst(vec![id("quote-syntax"), stx])
}

/// `(let-values ([(name) rhs]) body…)` (core form).
pub fn let1(name: Symbol, rhs: Syntax, body: Vec<Syntax>) -> Syntax {
    let clause = lst(vec![lst(vec![id_sym(name)]), rhs]);
    let mut items = vec![id("let-values"), lst(vec![clause])];
    items.extend(body);
    lst(items)
}

/// `(if c t e)`.
pub fn if3(c: Syntax, t: Syntax, e: Syntax) -> Syntax {
    lst(vec![id("if"), c, t, e])
}

/// `(begin e…)`.
pub fn begin(mut exprs: Vec<Syntax>) -> Syntax {
    if exprs.len() == 1 {
        if let Some(only) = exprs.pop() {
            return only;
        }
    }
    let mut items = vec![id("begin")];
    items.extend(exprs);
    lst(items)
}

/// `(#%plain-lambda (formals…) body…)`.
pub fn lambda(formals: Vec<Symbol>, body: Vec<Syntax>) -> Syntax {
    let mut items = vec![
        id("#%plain-lambda"),
        lst(formals.into_iter().map(id_sym).collect()),
    ];
    items.extend(body);
    lst(items)
}

/// An integer literal.
pub fn int(n: i64) -> Syntax {
    Syntax::atom(Datum::Int(n), Span::synthetic())
}

/// A string literal.
pub fn string(s: &str) -> Syntax {
    Syntax::atom(Datum::string(s), Span::synthetic())
}

/// True when `stx` is a list whose head is the identifier `name`
/// (symbol comparison — used on fully-expanded core syntax).
pub fn headed_by(stx: &Syntax, name: &str) -> bool {
    stx.as_list()
        .and_then(|items| items.first())
        .and_then(Syntax::sym)
        .map(|s| s == Symbol::intern(name))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_expected_shapes() {
        assert_eq!(
            app(id("f"), vec![int(1)]).to_datum().to_string(),
            "(#%plain-app f 1)"
        );
        assert_eq!(
            quote_sym(Symbol::from("x")).to_datum().to_string(),
            "(quote x)"
        );
        assert_eq!(
            let1(Symbol::from("t"), int(1), vec![id("t")])
                .to_datum()
                .to_string(),
            "(let-values (((t) 1)) t)"
        );
        assert_eq!(begin(vec![int(1)]).to_datum().to_string(), "1");
        assert_eq!(
            begin(vec![int(1), int(2)]).to_datum().to_string(),
            "(begin 1 2)"
        );
        assert_eq!(
            lambda(vec![Symbol::from("x")], vec![id("x")])
                .to_datum()
                .to_string(),
            "(#%plain-lambda (x) x)"
        );
    }

    #[test]
    fn head_matching() {
        let s = app(id("f"), vec![]);
        assert!(headed_by(&s, "#%plain-app"));
        assert!(!headed_by(&s, "quote"));
        assert!(!headed_by(&int(3), "quote"));
    }
}
