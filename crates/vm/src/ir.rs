//! The core-forms intermediate representation.
//!
//! The macro expander reduces every program to the small core grammar of
//! the paper's figure 1 (`quote`, `if`, `#%plain-lambda`, `#%plain-app`,
//! `define-values`, plus `begin`, `let-values`, `letrec-values`, `set!`,
//! and `quote-syntax`). The typechecker and optimizer pattern-match that
//! grammar *as syntax*; the execution engines parse it once into this
//! structured [`CoreExpr`] form.
//!
//! Precondition: the input is fully expanded and **alpha-renamed** — every
//! binding in the program has a globally unique symbol (the expander
//! guarantees this; paper §4.3 relies on the same invariant).

use lagoon_runtime::{RtError, Value};
use lagoon_syntax::{Datum, Span, Symbol, SynData, Syntax};
use std::rc::Rc;

/// A fully-expanded expression.
#[derive(Clone, Debug)]
pub enum CoreExpr {
    /// A constant from `quote` or a self-evaluating literal.
    Quote(Value),
    /// A syntax-object constant from `quote-syntax` (phase-1 code).
    QuoteSyntax(Syntax),
    /// A variable reference (local, captured, or module-level).
    Var(Symbol, Span),
    /// Two- or three-armed conditional.
    If(Box<CoreExpr>, Box<CoreExpr>, Box<CoreExpr>),
    /// Sequencing; the last expression's value is the result.
    Begin(Vec<CoreExpr>),
    /// A procedure. Shared, so that every closure made from it holds the
    /// same code rather than a copy.
    Lambda(Rc<LambdaCore>),
    /// Parallel bindings.
    Let(Vec<(Symbol, CoreExpr)>, Vec<CoreExpr>),
    /// Mutually recursive bindings.
    Letrec(Vec<(Symbol, CoreExpr)>, Vec<CoreExpr>),
    /// Assignment.
    Set(Symbol, Box<CoreExpr>, Span),
    /// Application.
    App(Box<CoreExpr>, Vec<CoreExpr>, Span),
}

/// The body of a `#%plain-lambda`.
#[derive(Clone, Debug)]
pub struct LambdaCore {
    /// Inferred name, for error messages.
    pub name: Option<Symbol>,
    /// Required formal parameters.
    pub formals: Vec<Symbol>,
    /// Rest parameter, if the formals were an improper list.
    pub rest: Option<Symbol>,
    /// Body expressions.
    pub body: Vec<CoreExpr>,
    /// Source location.
    pub span: Span,
}

/// A top-level (module-level) form.
#[derive(Clone, Debug)]
pub enum CoreForm {
    /// `(define-values (id) expr)`.
    Define(Symbol, CoreExpr, Span),
    /// An expression evaluated for effect/value.
    Expr(CoreExpr),
}

/// An error while parsing expanded syntax into core forms — always a bug
/// in the producer of the syntax, not in user code.
pub fn ir_error(message: impl Into<String>, stx: &Syntax) -> RtError {
    RtError::new(
        lagoon_runtime::Kind::Internal,
        format!("{}: {}", message.into(), stx),
    )
    .with_span(stx.span())
}

fn head_symbol(stx: &Syntax) -> Option<Symbol> {
    stx.as_list()?.first()?.sym()
}

/// Parses one fully-expanded module-level form.
///
/// # Errors
///
/// Returns an internal error if the syntax does not conform to the core
/// grammar.
pub fn parse_form(stx: &Syntax) -> Result<CoreForm, RtError> {
    if head_symbol(stx) == Some(Symbol::intern("define-values")) {
        let items = stx
            .as_list()
            .ok_or_else(|| ir_error("malformed define-values", stx))?;
        if items.len() != 3 {
            return Err(ir_error("malformed define-values", stx));
        }
        let ids = items[1]
            .as_list()
            .ok_or_else(|| ir_error("define-values: expected (id)", stx))?;
        if ids.len() != 1 {
            return Err(ir_error(
                "define-values: Lagoon supports single-value definitions only",
                stx,
            ));
        }
        let id = ids[0]
            .sym()
            .ok_or_else(|| ir_error("define-values: expected identifier", &ids[0]))?;
        let mut rhs = parse_expr(&items[2])?;
        name_lambda(&mut rhs, id);
        Ok(CoreForm::Define(id, rhs, stx.span()))
    } else {
        Ok(CoreForm::Expr(parse_expr(stx)?))
    }
}

fn name_lambda(e: &mut CoreExpr, name: Symbol) {
    if let CoreExpr::Lambda(lam) = e {
        if lam.name.is_none() {
            // just parsed, so not shared yet: this never copies
            Rc::make_mut(lam).name = Some(name);
        }
    }
}

fn parse_body(items: &[Syntax], ctx: &Syntax) -> Result<Vec<CoreExpr>, RtError> {
    if items.is_empty() {
        return Err(ir_error("empty body", ctx));
    }
    items.iter().map(parse_expr).collect()
}

fn parse_bindings(stx: &Syntax) -> Result<Vec<(Symbol, CoreExpr)>, RtError> {
    let clauses = stx
        .as_list()
        .ok_or_else(|| ir_error("expected binding list", stx))?;
    clauses
        .iter()
        .map(|clause| {
            let parts = clause
                .as_list()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| ir_error("expected [(id) rhs] binding", clause))?;
            let ids = parts[0]
                .as_list()
                .filter(|ids| ids.len() == 1)
                .ok_or_else(|| ir_error("expected single-identifier binding", clause))?;
            let id = ids[0]
                .sym()
                .ok_or_else(|| ir_error("expected identifier", &ids[0]))?;
            let mut rhs = parse_expr(&parts[1])?;
            name_lambda(&mut rhs, id);
            Ok((id, rhs))
        })
        .collect()
}

/// Parses one fully-expanded expression.
///
/// # Errors
///
/// Returns an internal error if the syntax does not conform to the core
/// grammar — the expander should never produce such syntax.
pub fn parse_expr(stx: &Syntax) -> Result<CoreExpr, RtError> {
    match stx.e() {
        SynData::Atom(Datum::Symbol(s)) => Ok(CoreExpr::Var(*s, stx.span())),
        SynData::Atom(d) => Ok(CoreExpr::Quote(Value::from_datum(d))),
        SynData::Vector(_) | SynData::Improper(_, _) => Err(ir_error("not a core expression", stx)),
        SynData::List(items) => {
            let head = items.first().and_then(Syntax::sym);
            let head_name =
                |f: &mut dyn FnMut(Option<&str>) -> Result<CoreExpr, RtError>| match head {
                    Some(s) => s.with_str(|name| f(Some(name))),
                    None => f(None),
                };
            head_name(&mut |head| match head {
                Some("quote") if items.len() == 2 => {
                    Ok(CoreExpr::Quote(Value::from_datum(&items[1].to_datum())))
                }
                Some("quote-syntax") if items.len() == 2 => {
                    Ok(CoreExpr::QuoteSyntax(items[1].clone()))
                }
                Some("if") if items.len() == 4 => Ok(CoreExpr::If(
                    Box::new(parse_expr(&items[1])?),
                    Box::new(parse_expr(&items[2])?),
                    Box::new(parse_expr(&items[3])?),
                )),
                Some("begin") if items.len() >= 2 => {
                    Ok(CoreExpr::Begin(parse_body(&items[1..], stx)?))
                }
                Some("#%plain-lambda") if items.len() >= 3 => {
                    let (formals, rest) = parse_formals(&items[1])?;
                    Ok(CoreExpr::Lambda(Rc::new(LambdaCore {
                        name: None,
                        formals,
                        rest,
                        body: parse_body(&items[2..], stx)?,
                        span: stx.span(),
                    })))
                }
                Some("let-values") if items.len() >= 3 => Ok(CoreExpr::Let(
                    parse_bindings(&items[1])?,
                    parse_body(&items[2..], stx)?,
                )),
                Some("letrec-values") if items.len() >= 3 => Ok(CoreExpr::Letrec(
                    parse_bindings(&items[1])?,
                    parse_body(&items[2..], stx)?,
                )),
                Some("set!") if items.len() == 3 => {
                    let id = items[1]
                        .sym()
                        .ok_or_else(|| ir_error("set!: expected identifier", &items[1]))?;
                    Ok(CoreExpr::Set(
                        id,
                        Box::new(parse_expr(&items[2])?),
                        stx.span(),
                    ))
                }
                Some("#%plain-app") if items.len() >= 2 => {
                    let f = parse_expr(&items[1])?;
                    let args = items[2..]
                        .iter()
                        .map(parse_expr)
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok(CoreExpr::App(Box::new(f), args, stx.span()))
                }
                _ => Err(ir_error("unknown core form", stx)),
            })
        }
    }
}

fn parse_formals(stx: &Syntax) -> Result<(Vec<Symbol>, Option<Symbol>), RtError> {
    let id_of = |s: &Syntax| {
        s.sym()
            .ok_or_else(|| ir_error("formals: expected identifier", s))
    };
    match stx.e() {
        SynData::List(ids) => Ok((ids.iter().map(id_of).collect::<Result<Vec<_>, _>>()?, None)),
        SynData::Improper(ids, tail) => Ok((
            ids.iter().map(id_of).collect::<Result<Vec<_>, _>>()?,
            Some(id_of(tail)?),
        )),
        SynData::Atom(Datum::Symbol(rest)) => Ok((Vec::new(), Some(*rest))),
        _ => Err(ir_error("malformed formals", stx)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagoon_syntax::read_syntax;

    fn parse(src: &str) -> CoreExpr {
        parse_expr(&read_syntax(src, "<t>").unwrap()).unwrap()
    }

    #[test]
    fn literals_and_vars() {
        assert!(matches!(parse("42"), CoreExpr::Quote(v) if v.as_int() == Some(42)));
        assert!(matches!(parse("x"), CoreExpr::Var(_, _)));
        assert!(matches!(parse("(quote (1 2))"), CoreExpr::Quote(_)));
        assert!(matches!(
            parse("(quote-syntax (f x))"),
            CoreExpr::QuoteSyntax(_)
        ));
    }

    #[test]
    fn lambda_forms() {
        let e = parse("(#%plain-lambda (x y) (#%plain-app x y))");
        match e {
            CoreExpr::Lambda(lam) => {
                assert_eq!(lam.formals.len(), 2);
                assert!(lam.rest.is_none());
            }
            _ => panic!("not a lambda"),
        }
        let e = parse("(#%plain-lambda (x . rest) x)");
        match e {
            CoreExpr::Lambda(lam) => {
                assert_eq!(lam.formals.len(), 1);
                assert_eq!(lam.rest.unwrap().as_str(), "rest");
            }
            _ => panic!("not a lambda"),
        }
        let e = parse("(#%plain-lambda args args)");
        match e {
            CoreExpr::Lambda(lam) => {
                assert!(lam.formals.is_empty());
                assert!(lam.rest.is_some());
            }
            _ => panic!("not a lambda"),
        }
    }

    #[test]
    fn let_forms() {
        let e = parse("(let-values ([(x) 1] [(y) 2]) (#%plain-app + x y))");
        match e {
            CoreExpr::Let(bindings, body) => {
                assert_eq!(bindings.len(), 2);
                assert_eq!(body.len(), 1);
            }
            _ => panic!("not a let"),
        }
    }

    #[test]
    fn define_forms() {
        let f = parse_form(&read_syntax("(define-values (x) 3)", "<t>").unwrap()).unwrap();
        assert!(matches!(f, CoreForm::Define(_, _, _)));
        let f = parse_form(&read_syntax("(#%plain-app f 1)", "<t>").unwrap()).unwrap();
        assert!(matches!(f, CoreForm::Expr(_)));
    }

    #[test]
    fn lambda_rhs_gets_named() {
        let f =
            parse_form(&read_syntax("(define-values (f) (#%plain-lambda (x) x))", "<t>").unwrap())
                .unwrap();
        match f {
            CoreForm::Define(_, CoreExpr::Lambda(lam), _) => {
                assert_eq!(lam.name.unwrap().as_str(), "f")
            }
            _ => panic!("wrong parse"),
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_expr(&read_syntax("(if x y)", "<t>").unwrap()).is_err());
        assert!(parse_expr(&read_syntax("(unknown-form 1)", "<t>").unwrap()).is_err());
        assert!(parse_expr(&read_syntax("(#%plain-lambda (x))", "<t>").unwrap()).is_err());
        assert!(
            parse_form(&read_syntax("(define-values (a b) 1)", "<t>").unwrap()).is_err(),
            "multi-value defines are not supported"
        );
    }
}
