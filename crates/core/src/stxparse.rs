//! `syntax-parse`, `syntax` templates, `with-syntax`, `syntax-rules`, and
//! `define-syntax` — the macro-writing layer (paper §2.1).
//!
//! `syntax-parse` compiles each clause into phase-1 code that calls the
//! runtime matcher ([`crate::template::match_pattern`]); its pattern
//! variables become [`Binding::PatternVar`] bindings scoped to the clause
//! body. A `#'template` form compiles into a call to the runtime
//! instantiator with the template's pattern-variable occurrences replaced
//! by unique markers, so substitution is exact even under shadowing.

use crate::binding::{Binding, Expanded, NativeMacro};
use crate::build::{self, id, id_sym, lst, quote_sym, quote_syntax};
use crate::expander::{syntax_error, Expander};
use crate::template::{match_pattern, pattern_vars};
use lagoon_runtime::prim::primitives;
use lagoon_runtime::value::{Arity, Native};
use lagoon_runtime::{RtError, Value};
use lagoon_syntax::{Datum, Scope, Symbol, SynData, Syntax};
use std::collections::HashMap;
use std::rc::Rc;

/// Builds a native macro.
pub fn native(
    name: &str,
    f: impl Fn(&Expander, Syntax) -> Result<Expanded, RtError> + 'static,
) -> Rc<NativeMacro> {
    Rc::new(NativeMacro {
        name: Symbol::intern(name),
        expand: Box::new(f),
        recipe: None,
    })
}

/// Builds a native macro that the compiled-module store can persist:
/// `tag` names a rehydrator registered on the module registry, and
/// `datum` is what that rehydrator rebuilds the transformer from.
pub fn native_with_recipe(
    name: &str,
    tag: &str,
    datum: lagoon_syntax::Datum,
    f: impl Fn(&Expander, Syntax) -> Result<Expanded, RtError> + 'static,
) -> Rc<NativeMacro> {
    Rc::new(NativeMacro {
        name: Symbol::intern(name),
        expand: Box::new(f),
        recipe: Some((Symbol::intern(tag), datum)),
    })
}

fn items_of(stx: &Syntax, who: &str) -> Result<Vec<Syntax>, RtError> {
    stx.to_list()
        .ok_or_else(|| syntax_error(format!("{who}: bad syntax"), stx))
}

// ---------------------------------------------------------------------
// templates: (syntax tmpl) and (quasisyntax tmpl)
// ---------------------------------------------------------------------

/// Replaces pattern-variable occurrences in a template with fresh marker
/// symbols; returns the marked template and `(marker, runtime-name)`
/// pairs.
fn mark_pattern_vars(
    exp: &Expander,
    tmpl: &Syntax,
    out: &mut Vec<(Symbol, Symbol)>,
) -> Result<Syntax, RtError> {
    match tmpl.e() {
        SynData::Atom(Datum::Symbol(_)) => {
            if let Some(Binding::PatternVar(runtime, _)) = exp.resolve(tmpl)? {
                let marker = Symbol::fresh("pv");
                out.push((marker, runtime));
                return Ok(Syntax::ident(marker, tmpl.span()));
            }
            Ok(tmpl.clone())
        }
        SynData::Atom(_) => Ok(tmpl.clone()),
        SynData::List(items) => {
            let items = items
                .iter()
                .map(|s| mark_pattern_vars(exp, s, out))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(tmpl.with_data(SynData::List(items)))
        }
        SynData::Improper(items, tail) => {
            let items = items
                .iter()
                .map(|s| mark_pattern_vars(exp, s, out))
                .collect::<Result<Vec<_>, _>>()?;
            let tail = mark_pattern_vars(exp, tail, out)?;
            Ok(tmpl.with_data(SynData::Improper(items, Box::new(tail))))
        }
        SynData::Vector(items) => {
            let items = items
                .iter()
                .map(|s| mark_pattern_vars(exp, s, out))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(tmpl.with_data(SynData::Vector(items)))
        }
    }
}

/// Emits `(instantiate-template (quote-syntax tmpl) (list (cons 'k v) …))`.
fn template_call(tmpl: Syntax, bindings: Vec<(Symbol, Syntax)>) -> Syntax {
    let pairs = bindings
        .into_iter()
        .map(|(marker, value_expr)| build::app(id("cons"), vec![quote_sym(marker), value_expr]))
        .collect();
    build::app(
        id("instantiate-template"),
        vec![quote_syntax(tmpl), build::app(id("list"), pairs)],
    )
}

/// The `(syntax tmpl)` native macro (reader shorthand `#'tmpl`).
pub fn syntax_macro() -> Rc<NativeMacro> {
    native("syntax", |exp, stx| {
        let items = items_of(&stx, "syntax")?;
        if items.len() != 2 {
            return Err(syntax_error("syntax: expects one template", &stx));
        }
        let mut markers = Vec::new();
        let marked = mark_pattern_vars(exp, &items[1], &mut markers)?;
        let bindings = markers
            .into_iter()
            .map(|(marker, runtime)| (marker, id_sym(runtime)))
            .collect();
        Ok(Expanded::Core(template_call(marked, bindings)))
    })
}

/// The `(quasisyntax tmpl)` native macro (reader shorthand `` #`tmpl ``),
/// supporting `(unsyntax e)` / `#,e` and `(unsyntax-splicing e)` / `#,@e`.
pub fn quasisyntax_macro() -> Rc<NativeMacro> {
    native("quasisyntax", |exp, stx| {
        let items = items_of(&stx, "quasisyntax")?;
        if items.len() != 2 {
            return Err(syntax_error("quasisyntax: expects one template", &stx));
        }
        let mut bindings: Vec<(Symbol, Syntax)> = Vec::new();
        let marked = quasi_walk(exp, &items[1], &mut bindings)?;
        let mut markers = Vec::new();
        let marked = mark_pattern_vars(exp, &marked, &mut markers)?;
        bindings.extend(
            markers
                .into_iter()
                .map(|(marker, runtime)| (marker, id_sym(runtime))),
        );
        Ok(Expanded::Core(template_call(marked, bindings)))
    })
}

fn quasi_walk(
    exp: &Expander,
    tmpl: &Syntax,
    bindings: &mut Vec<(Symbol, Syntax)>,
) -> Result<Syntax, RtError> {
    if let Some(items) = tmpl.as_list() {
        // (unsyntax e)
        if items.len() == 2 && items[0].sym() == Some(Symbol::intern("unsyntax")) {
            let marker = Symbol::fresh("us");
            let e_core = exp.expand_expr(&items[1])?;
            bindings.push((marker, build::app(id("coerce-syntax"), vec![e_core])));
            return Ok(Syntax::ident(marker, tmpl.span()));
        }
        let mut out = Vec::new();
        for item in items {
            // element (unsyntax-splicing e) → marker followed by ellipsis
            if let Some(parts) = item.as_list() {
                if parts.len() == 2 && parts[0].sym() == Some(Symbol::intern("unsyntax-splicing")) {
                    let marker = Symbol::fresh("uss");
                    let e_core = exp.expand_expr(&parts[1])?;
                    bindings.push((marker, build::app(id("coerce-syntax-list"), vec![e_core])));
                    out.push(Syntax::ident(marker, item.span()));
                    out.push(id("..."));
                    continue;
                }
            }
            out.push(quasi_walk(exp, item, bindings)?);
        }
        return Ok(tmpl.with_data(SynData::List(out)));
    }
    Ok(tmpl.clone())
}

// ---------------------------------------------------------------------
// syntax-parse and with-syntax
// ---------------------------------------------------------------------

/// Finds the identifier occurrence of pattern variable `name` within a
/// pattern (for scope information when binding it).
fn find_occurrence(pat: &Syntax, name: Symbol) -> Option<Syntax> {
    match pat.e() {
        SynData::Atom(Datum::Symbol(sym)) => {
            let stripped = sym.with_str(|s| match s.rfind(':') {
                Some(i) if i > 0 && i < s.len() - 1 => Symbol::intern(&s[..i]),
                _ => *sym,
            });
            (stripped == name).then(|| pat.clone())
        }
        SynData::Atom(_) => None,
        SynData::List(items) | SynData::Vector(items) => {
            items.iter().find_map(|s| find_occurrence(s, name))
        }
        SynData::Improper(items, tail) => items
            .iter()
            .find_map(|s| find_occurrence(s, name))
            .or_else(|| find_occurrence(tail, name)),
    }
}

/// Binds the pattern variables of `pat` under `scope` and returns
/// `(source-name, runtime-name)` pairs.
fn bind_pattern_vars(
    exp: &Expander,
    pat: &Syntax,
    scope: Scope,
) -> Result<Vec<(Symbol, Symbol)>, RtError> {
    let mut out = Vec::new();
    for (name, depth) in pattern_vars(pat, &[]) {
        let occurrence = find_occurrence(pat, name)
            .ok_or_else(|| syntax_error("pattern variable occurrence not found", pat))?;
        let runtime = name.with_str(Symbol::fresh);
        exp.table.bind(
            name,
            occurrence.add_scope(scope).scopes().clone(),
            Binding::PatternVar(runtime, depth),
        );
        out.push((name, runtime));
    }
    Ok(out)
}

/// Emits nested `let-values` binding each runtime name to
/// `(match-lookup m 'source-name)`, around `body`.
fn bind_lookups(m: Symbol, vars: &[(Symbol, Symbol)], body: Syntax) -> Syntax {
    let mut out = body;
    for (source, runtime) in vars.iter().rev() {
        out = build::let1(
            *runtime,
            build::app(id("match-lookup"), vec![id_sym(m), quote_sym(*source)]),
            vec![out],
        );
    }
    out
}

/// The `syntax-parse` native macro.
///
/// `(syntax-parse scrutinee [pattern body …+] …)` — clauses are tried in
/// order; the first whose pattern matches runs its body with the pattern
/// variables bound. No match raises a syntax error.
pub fn syntax_parse_macro() -> Rc<NativeMacro> {
    native("syntax-parse", |exp, stx| {
        let items = items_of(&stx, "syntax-parse")?;
        if items.len() < 3 {
            return Err(syntax_error(
                "syntax-parse: expects a scrutinee and clauses",
                &stx,
            ));
        }
        let scrut_core = exp.expand_expr(&items[1])?;
        let e = Symbol::fresh("stx");
        let mut chain = build::app(
            id("raise-syntax-error"),
            vec![
                quote_sym(Symbol::intern("syntax-parse")),
                build::string("no matching clause"),
                id_sym(e),
            ],
        );
        for clause in items[2..].iter().rev() {
            let parts = clause
                .to_list()
                .filter(|p| p.len() >= 2)
                .ok_or_else(|| syntax_error("syntax-parse: malformed clause", clause))?;
            let pat = parts[0].clone();
            let sc = Scope::fresh();
            let vars = bind_pattern_vars(exp, &pat, sc)?;
            let body: Vec<Syntax> = parts[1..].iter().map(|f| f.add_scope(sc)).collect();
            let body_core = exp.expand_expr(&crate::build::begin(body))?;
            let m = Symbol::fresh("m");
            let matched = bind_lookups(m, &vars, body_core);
            chain = build::let1(
                m,
                build::app(id("match-pattern"), vec![quote_syntax(pat), id_sym(e)]),
                vec![build::if3(
                    build::app(id("not"), vec![id_sym(m)]),
                    chain,
                    matched,
                )],
            );
        }
        Ok(Expanded::Core(build::let1(e, scrut_core, vec![chain])))
    })
}

/// The `with-syntax` native macro (paper §2.1): matches each pattern
/// against the *value* of its expression (coerced to syntax), then runs
/// the body with the pattern variables bound.
pub fn with_syntax_macro() -> Rc<NativeMacro> {
    native("with-syntax", |exp, stx| {
        let items = items_of(&stx, "with-syntax")?;
        if items.len() < 3 {
            return Err(syntax_error(
                "with-syntax: expects bindings and a body",
                &stx,
            ));
        }
        let clauses = items[1]
            .to_list()
            .ok_or_else(|| syntax_error("with-syntax: malformed bindings", &items[1]))?;
        let sc = Scope::fresh();
        let mut all_vars = Vec::new();
        let mut matches: Vec<(Symbol, Syntax)> = Vec::new();
        for clause in &clauses {
            let parts = clause
                .to_list()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| syntax_error("with-syntax: malformed clause", clause))?;
            let pat = parts[0].clone();
            let expr_core = exp.expand_expr(&parts[1])?;
            let vars = bind_pattern_vars(exp, &pat, sc)?;
            let m = Symbol::fresh("wm");
            matches.push((
                m,
                build::app(id("with-syntax-match"), vec![quote_syntax(pat), expr_core]),
            ));
            all_vars.push((m, vars));
        }
        let body: Vec<Syntax> = items[2..].iter().map(|f| f.add_scope(sc)).collect();
        let body_core = exp.expand_expr(&crate::build::begin(body))?;
        let mut out = body_core;
        for (m, vars) in all_vars.iter().rev() {
            out = bind_lookups(*m, vars, out);
        }
        for (m, call) in matches.into_iter().rev() {
            out = build::let1(m, call, vec![out]);
        }
        Ok(Expanded::Core(out))
    })
}

/// The `define-syntax` native macro: both `(define-syntax (name stx)
/// body …)` and `(define-syntax name transformer)` shapes, rewritten to
/// the `define-syntaxes` core form.
pub fn define_syntax_macro() -> Rc<NativeMacro> {
    native("define-syntax", |_exp, stx| {
        let items = items_of(&stx, "define-syntax")?;
        if items.len() < 3 {
            return Err(syntax_error("define-syntax: bad syntax", &stx));
        }
        let (name, transformer) = if items[1].is_identifier() {
            if items.len() != 3 {
                return Err(syntax_error("define-syntax: bad syntax", &stx));
            }
            (items[1].clone(), items[2].clone())
        } else {
            let header = items[1]
                .to_list()
                .filter(|h| h.len() == 2 && h[0].is_identifier() && h[1].is_identifier())
                .ok_or_else(|| syntax_error("define-syntax: expected (name stx)", &items[1]))?;
            let mut lam = vec![id("lambda"), lst(vec![header[1].clone()])];
            lam.extend(items[2..].iter().cloned());
            (header[0].clone(), lst(lam))
        };
        Ok(Expanded::Surface(lst(vec![
            id("define-syntaxes"),
            lst(vec![name]),
            transformer,
        ])))
    })
}

/// The `syntax-rules` native macro: produces a phase-1 transformer value
/// that matches clauses and instantiates templates at runtime.
pub fn syntax_rules_macro() -> Rc<NativeMacro> {
    native("syntax-rules", |_exp, stx| {
        let items = items_of(&stx, "syntax-rules")?;
        if items.len() < 2 {
            return Err(syntax_error(
                "syntax-rules: expects literals and clauses",
                &stx,
            ));
        }
        let lits = items[1]
            .to_list()
            .ok_or_else(|| syntax_error("syntax-rules: expected a literals list", &items[1]))?;
        let lit_datum = Datum::List(
            lits.iter()
                .map(|l| Datum::Symbol(l.sym().unwrap_or_else(|| Symbol::intern("?"))))
                .collect(),
        );
        let mut clause_syntax = Vec::new();
        for clause in &items[2..] {
            let parts = clause
                .to_list()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| syntax_error("syntax-rules: malformed clause", clause))?;
            clause_syntax.push(lst(vec![parts[0].clone(), parts[1].clone()]));
        }
        Ok(Expanded::Core(build::app(
            id("make-rules-transformer"),
            vec![
                quote_syntax(lst(clause_syntax)),
                build::quote_datum(lit_datum),
            ],
        )))
    })
}

// ---------------------------------------------------------------------
// phase-1 natives
// ---------------------------------------------------------------------

fn expect_syntax_arg(who: &str, v: &Value) -> Result<Syntax, RtError> {
    match v.as_syntax() {
        Some(s) => Ok(s.clone()),
        None => Err(RtError::type_error(format!(
            "{who}: expected syntax, got {}",
            v.write_string()
        ))),
    }
}

fn assoc_to_map(v: &Value) -> Result<HashMap<Symbol, Value>, RtError> {
    let items = v
        .list_to_vec()
        .ok_or_else(|| RtError::type_error("expected an association list"))?;
    let mut map = HashMap::new();
    for item in items {
        match item.as_pair() {
            Some(p) => match p.0.as_symbol() {
                Some(k) => {
                    map.insert(k, p.1.clone());
                }
                None => return Err(RtError::type_error("association key must be a symbol")),
            },
            None => return Err(RtError::type_error("expected an association list of pairs")),
        }
    }
    Ok(map)
}

/// The phase-1 primitive environment: the runtime primitives plus the
/// matcher/template/expander operations macro transformers need.
pub fn phase1_natives() -> Vec<(Symbol, Value)> {
    let mut out: Vec<(Symbol, Value)> = primitives();
    out.push(lagoon_vm::apply_placeholder());
    out.push(lagoon_vm::cwv_placeholder());

    type PrimFn = Box<dyn Fn(&[Value]) -> Result<Value, RtError>>;
    let mut def = |name: &str, arity: Arity, f: PrimFn| {
        out.push((
            Symbol::intern(name),
            Value::Native(Rc::new(Native {
                name: Symbol::intern(name),
                arity,
                intercept: None,
                f,
            })),
        ));
    };

    def(
        "match-pattern",
        Arity::at_least(2),
        Box::new(|args| {
            let pat = expect_syntax_arg("match-pattern", &args[0])?;
            let input = expect_syntax_arg("match-pattern", &args[1])?;
            let lits: Vec<Symbol> = match args.get(2) {
                Some(v) => v
                    .list_to_vec()
                    .unwrap_or_default()
                    .into_iter()
                    .filter_map(|x| x.as_symbol())
                    .collect(),
                None => Vec::new(),
            };
            Ok(match match_pattern(&pat, &input, &lits) {
                Some(bindings) => Value::list(
                    bindings
                        .into_iter()
                        .map(|(k, v)| Value::cons(Value::Symbol(k), v))
                        .collect::<Vec<_>>(),
                ),
                None => Value::Bool(false),
            })
        }),
    );

    def(
        "match-lookup",
        Arity::exactly(2),
        Box::new(|args| {
            let map = assoc_to_map(&args[0])?;
            match args[1].as_symbol() {
                Some(k) => map.get(&k).cloned().ok_or_else(|| {
                    RtError::type_error(format!("match-lookup: no binding for {k}"))
                }),
                None => Err(RtError::type_error(format!(
                    "match-lookup: expected symbol, got {}",
                    args[1].write_string()
                ))),
            }
        }),
    );

    def(
        "instantiate-template",
        Arity::exactly(2),
        Box::new(|args| {
            let tmpl = expect_syntax_arg("instantiate-template", &args[0])?;
            let bindings = assoc_to_map(&args[1])?;
            Ok(Value::Syntax(crate::template::instantiate_template(
                &tmpl, &bindings,
            )?))
        }),
    );

    def(
        "coerce-syntax",
        Arity::exactly(1),
        Box::new(|args| match args[0].as_syntax() {
            Some(s) => Ok(Value::Syntax(s.clone())),
            None => {
                let ctx = Syntax::ident(Symbol::intern("ctx"), lagoon_syntax::Span::synthetic());
                Ok(Value::Syntax(lagoon_runtime::prim::value_to_syntax(
                    &ctx, &args[0],
                )?))
            }
        }),
    );

    def(
        "coerce-syntax-list",
        Arity::exactly(1),
        Box::new(|args| {
            let items = args[0]
                .list_to_vec()
                .ok_or_else(|| RtError::type_error("unsyntax-splicing: expected a list"))?;
            let ctx = Syntax::ident(Symbol::intern("ctx"), lagoon_syntax::Span::synthetic());
            let coerced = items
                .into_iter()
                .map(|v| {
                    if v.as_syntax().is_some() {
                        Ok(v)
                    } else {
                        Ok(Value::Syntax(lagoon_runtime::prim::value_to_syntax(
                            &ctx, &v,
                        )?))
                    }
                })
                .collect::<Result<Vec<_>, RtError>>()?;
            Ok(Value::list(coerced))
        }),
    );

    def(
        "with-syntax-match",
        Arity::exactly(2),
        Box::new(|args| {
            let pat = expect_syntax_arg("with-syntax", &args[0])?;
            let ctx = Syntax::ident(Symbol::intern("ctx"), lagoon_syntax::Span::synthetic());
            let input = match args[1].as_syntax() {
                Some(s) => s.clone(),
                None => lagoon_runtime::prim::value_to_syntax(&ctx, &args[1])?,
            };
            match match_pattern(&pat, &input, &[]) {
                Some(bindings) => Ok(Value::list(
                    bindings
                        .into_iter()
                        .map(|(k, v)| Value::cons(Value::Symbol(k), v))
                        .collect::<Vec<_>>(),
                )),
                None => Err(RtError::user(format!(
                    "with-syntax: pattern {pat} did not match {input}"
                ))),
            }
        }),
    );

    def(
        "make-rules-transformer",
        Arity::exactly(2),
        Box::new(|args| {
            let clauses_stx = expect_syntax_arg("make-rules-transformer", &args[0])?;
            let lits: Vec<Symbol> = args[1]
                .list_to_vec()
                .unwrap_or_default()
                .into_iter()
                .filter_map(|v| v.as_symbol())
                .collect();
            let clauses: Vec<(Syntax, Syntax)> = clauses_stx
                .as_list()
                .map(|cs| {
                    cs.iter()
                        .filter_map(|c| {
                            let parts = c.as_list()?;
                            Some((parts[0].clone(), parts[1].clone()))
                        })
                        .collect()
                })
                .unwrap_or_default();
            Ok(Native::value(
                "rules-transformer",
                Arity::exactly(1),
                move |args| {
                    let input = expect_syntax_arg("rules-transformer", &args[0])?;
                    for (pat, tmpl) in &clauses {
                        // the head of a syntax-rules pattern matches the
                        // macro name: replace it with a wildcard
                        let pat = relax_head(pat);
                        if let Some(bindings) = match_pattern(&pat, &input, &lits) {
                            let map: HashMap<Symbol, Value> = bindings.into_iter().collect();
                            return Ok(Value::Syntax(crate::template::instantiate_template(
                                tmpl, &map,
                            )?));
                        }
                    }
                    Err(RtError::user(format!(
                        "syntax-rules: no matching clause for {input}"
                    )))
                },
            ))
        }),
    );

    def(
        "local-expand",
        Arity::at_least(1),
        Box::new(|args| {
            let stx = expect_syntax_arg("local-expand", &args[0])?;
            let exp = crate::expander::current_expander()
                .ok_or_else(|| RtError::user("local-expand: not currently expanding"))?;
            lagoon_diag::count("local-expand", exp.module_name, 1);
            let module_begin = args
                .get(1)
                .and_then(Value::as_symbol)
                .is_some_and(|s| s.with_str(|ctx| ctx == "module-begin"));
            let out = if module_begin {
                exp.expand_module_begin(stx)?
            } else {
                exp.expand_expr(&stx)?
            };
            Ok(Value::Syntax(out))
        }),
    );

    def(
        "free-identifier=?",
        Arity::exactly(2),
        Box::new(|args| {
            let a = expect_syntax_arg("free-identifier=?", &args[0])?;
            let b = expect_syntax_arg("free-identifier=?", &args[1])?;
            if !a.is_identifier() || !b.is_identifier() {
                return Err(RtError::type_error(
                    "free-identifier=?: expected identifiers",
                ));
            }
            let exp = crate::expander::current_expander()
                .ok_or_else(|| RtError::user("free-identifier=?: not currently expanding"))?;
            let ra = exp.resolve(&a)?;
            let rb = exp.resolve(&b)?;
            Ok(Value::Bool(match (ra, rb) {
                (Some(x), Some(y)) => x.same(&y),
                (None, None) => a.sym() == b.sym(),
                _ => false,
            }))
        }),
    );

    out
}

fn relax_head(pat: &Syntax) -> Syntax {
    match pat.e() {
        SynData::List(items) if !items.is_empty() && items[0].is_identifier() => {
            let mut out = items.clone();
            out[0] = Syntax::ident(Symbol::intern("_"), items[0].span());
            pat.with_data(SynData::List(out))
        }
        _ => pat.clone(),
    }
}
