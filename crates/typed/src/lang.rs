//! The typed sister language, implemented as a library (paper §§3–6).
//!
//! Everything here plugs into the host through `lagoon-core`'s public
//! extension API: native transformers, syntax properties, `local-expand`
//! (via [`Expander::expand_module_forms`]), and the compile-time
//! declaration table. No host internals are modified — the paper's thesis.
//!
//! The language provides:
//!
//! * `define:`, `:`, `lambda:`/`λ:`, `let:` — annotation forms that store
//!   types out-of-band as syntax properties on binders (§3.1);
//! * a `#%module-begin` that expands the whole module to core forms,
//!   typechecks it (§4), optionally optimizes it (§7), persists export
//!   types (§5), and installs contract-protected export indirections
//!   driven by the `typed-context?` flag (§6.2);
//! * `require/typed` for importing untyped code behind contracts (§6.1);
//! * `ann` (static ascription) and `cast` (checked coercion).

use crate::check::{
    prop_annotation, prop_ascribe, prop_ignore, prop_return, type_error, typecheck_module, Tcx,
};
use crate::types::Type;
use lagoon_core::build::{self, id, id_sym, lst, quote_datum, quote_sym};
use lagoon_core::{
    link_only_export, native, native_with_recipe, syntax_error, Binding, Expanded, Expander,
    Language, ModuleRegistry, NativeMacro,
};
use lagoon_runtime::value::{Arity, Native};
use lagoon_runtime::{apply_contract, Contract, RtError, Value};
use lagoon_syntax::{Datum, Scope, ScopeSet, Symbol, SynData, Syntax};
use std::collections::HashMap;
use std::rc::Rc;

fn space_flag() -> Symbol {
    Symbol::intern("typed")
}
fn key_context() -> Symbol {
    Symbol::intern("context?")
}

/// True while compiling a module in the typed language — the paper §6.2
/// `typed-context?` flag, living in the per-compilation store.
pub fn in_typed_context(exp: &Expander) -> bool {
    matches!(
        exp.meta_get(space_flag(), key_context()),
        Some(Datum::Bool(true))
    )
}

/// The optimizer hook: rewrites one type-annotated core form.
pub type OptimizeFn = dyn Fn(&Tcx, &Syntax) -> Result<Syntax, RtError>;

// ---------------------------------------------------------------------
// annotation forms (§3.1)
// ---------------------------------------------------------------------

/// Parses `[x : T]`, returning the identifier annotated with `T`.
fn parse_param(stx: &Syntax) -> Result<Syntax, RtError> {
    let parts = stx
        .to_list()
        .filter(|p| p.len() == 3 && p[0].is_identifier() && p[1].sym() == Some(Symbol::intern(":")))
        .ok_or_else(|| syntax_error("expected [identifier : Type]", stx))?;
    Ok(parts[0]
        .clone()
        .with_property(prop_annotation(), parts[2].clone().into()))
}

/// `(define: x : T rhs)` and `(define: (f [x : T] …) : R body …)`.
fn define_colon() -> Rc<NativeMacro> {
    native("define:", |_exp, stx| {
        let items = stx
            .to_list()
            .ok_or_else(|| syntax_error("define:: bad syntax", &stx))?;
        if items.len() >= 5 && items[1].is_identifier() {
            // (define: name : T rhs)
            if items[2].sym() != Some(Symbol::intern(":")) || items.len() != 5 {
                return Err(syntax_error("define:: expected (define: x : T rhs)", &stx));
            }
            let name = items[1]
                .clone()
                .with_property(prop_annotation(), items[3].clone().into());
            return Ok(Expanded::Surface(lst(vec![
                id("define-values"),
                lst(vec![name]),
                items[4].clone(),
            ])));
        }
        // function form
        let header = items
            .get(1)
            .and_then(Syntax::as_list)
            .filter(|h| !h.is_empty() && h[0].is_identifier())
            .ok_or_else(|| syntax_error("define:: malformed header", &stx))?;
        if items.len() < 5 || items[2].sym() != Some(Symbol::intern(":")) {
            return Err(syntax_error(
                "define:: expected (define: (f [x : T] ...) : R body ...)",
                &stx,
            ));
        }
        let fname = header[0].clone();
        let params = header[1..]
            .iter()
            .map(parse_param)
            .collect::<Result<Vec<_>, _>>()?;
        let param_types: Vec<Syntax> = header[1..]
            .iter()
            .map(|p| p.as_list().unwrap()[2].clone())
            .collect();
        let ret = items[3].clone();
        let body = items[4..].to_vec();
        // fn type: (-> T … R)
        let mut fun_ty = vec![id("->")];
        fun_ty.extend(param_types);
        fun_ty.push(ret.clone());
        let fname = fname.with_property(prop_annotation(), lst(fun_ty).into());
        let lam = lst(vec![id("lambda"), lst(params)]).with_property(prop_return(), ret.into());
        let mut lam_items = lam.to_list().unwrap();
        lam_items.extend(body);
        let lam = lam.with_data(SynData::List(lam_items));
        Ok(Expanded::Surface(lst(vec![
            id("define-values"),
            lst(vec![fname]),
            lam,
        ])))
    })
}

/// `(: name T)` / `(: name : T …)` — forward type declarations.
fn colon_decl() -> Rc<NativeMacro> {
    native(":", |exp, stx| {
        let items = stx
            .to_list()
            .filter(|p| p.len() >= 3 && p[1].is_identifier())
            .ok_or_else(|| syntax_error(":: expected (: name Type)", &stx))?;
        let name = items[1].sym().unwrap();
        let ty_stx = if items[2].sym() == Some(Symbol::intern(":")) {
            // infix form: (: f : A ... -> R)
            if items.len() == 4 {
                items[3].clone()
            } else {
                lst(items[3..].to_vec())
            }
        } else if items.len() == 3 {
            items[2].clone()
        } else {
            lst(items[2..].to_vec())
        };
        let tcx = Tcx::new(exp);
        let ty = tcx.parse_type(&ty_stx)?;
        tcx.add_pending(name, &ty);
        Ok(Expanded::Core(build::app(id("void"), vec![])))
    })
}

/// `(lambda: ([x : T] …) body …)` and `(lambda: ([x : T] …) : R body …)`.
fn lambda_colon(name: &'static str) -> Rc<NativeMacro> {
    native(name, move |_exp, stx| {
        let items = stx
            .to_list()
            .filter(|p| p.len() >= 3)
            .ok_or_else(|| syntax_error("lambda:: bad syntax", &stx))?;
        let params = items[1]
            .as_list()
            .ok_or_else(|| syntax_error("lambda:: expected parameter list", &items[1]))?
            .iter()
            .map(parse_param)
            .collect::<Result<Vec<_>, _>>()?;
        let (ret, body_start) = if items[2].sym() == Some(Symbol::intern(":")) {
            if items.len() < 5 {
                return Err(syntax_error("lambda:: missing body", &stx));
            }
            (Some(items[3].clone()), 4)
        } else {
            (None, 2)
        };
        let mut lam = vec![id("lambda"), lst(params)];
        lam.extend(items[body_start..].iter().cloned());
        let mut out = lst(lam);
        if let Some(r) = ret {
            out = out.with_property(prop_return(), r.into());
        }
        Ok(Expanded::Surface(out))
    })
}

/// `(let: ([x : T e] …) body …)` and named
/// `(let: loop : R ([x : T e] …) body …)` (paper §3.1's `let:`).
fn let_colon() -> Rc<NativeMacro> {
    native("let:", |_exp, stx| {
        let items = stx
            .to_list()
            .filter(|p| p.len() >= 3)
            .ok_or_else(|| syntax_error("let:: bad syntax", &stx))?;
        let parse_clause = |clause: &Syntax| -> Result<(Syntax, Syntax, Syntax), RtError> {
            let parts = clause
                .to_list()
                .filter(|p| {
                    p.len() == 4 && p[0].is_identifier() && p[1].sym() == Some(Symbol::intern(":"))
                })
                .ok_or_else(|| syntax_error("let:: expected [x : T rhs]", clause))?;
            Ok((parts[0].clone(), parts[2].clone(), parts[3].clone()))
        };
        if items[1].is_identifier() {
            // named: (let: loop : R ([x : T e] …) body …)
            if items.len() < 6 || items[2].sym() != Some(Symbol::intern(":")) {
                return Err(syntax_error(
                    "let:: expected (let: name : R ([x : T e] ...) body ...)",
                    &stx,
                ));
            }
            let loop_name = items[1].clone();
            let ret = items[3].clone();
            let clauses = items[4]
                .to_list()
                .ok_or_else(|| syntax_error("let:: malformed bindings", &items[4]))?
                .iter()
                .map(parse_clause)
                .collect::<Result<Vec<_>, _>>()?;
            let mut fun_ty = vec![id("->")];
            fun_ty.extend(clauses.iter().map(|(_, t, _)| t.clone()));
            fun_ty.push(ret.clone());
            let loop_ann = loop_name.with_property(prop_annotation(), lst(fun_ty).into());
            let params: Vec<Syntax> = clauses
                .iter()
                .map(|(x, t, _)| x.clone().with_property(prop_annotation(), t.clone().into()))
                .collect();
            let mut lam = vec![id("lambda"), lst(params)];
            lam.extend(items[5..].iter().cloned());
            let lam = lst(lam).with_property(prop_return(), ret.into());
            let mut call = vec![items[1].clone()];
            call.extend(clauses.iter().map(|(_, _, e)| e.clone()));
            return Ok(Expanded::Surface(lst(vec![
                id("letrec-values"),
                lst(vec![lst(vec![lst(vec![loop_ann]), lam])]),
                lst(call),
            ])));
        }
        // plain: ((lambda (annotated-params) body …) rhs …)
        let clauses = items[1]
            .to_list()
            .ok_or_else(|| syntax_error("let:: malformed bindings", &items[1]))?
            .iter()
            .map(parse_clause)
            .collect::<Result<Vec<_>, _>>()?;
        let params: Vec<Syntax> = clauses
            .iter()
            .map(|(x, t, _)| x.clone().with_property(prop_annotation(), t.clone().into()))
            .collect();
        let mut lam = vec![id("lambda"), lst(params)];
        lam.extend(items[2..].iter().cloned());
        let mut call = vec![lst(lam)];
        call.extend(clauses.iter().map(|(_, _, e)| e.clone()));
        Ok(Expanded::Surface(lst(call)))
    })
}

/// `(define-type Name T)` — a type alias, persisted across compilations.
fn define_type() -> Rc<NativeMacro> {
    native("define-type", |exp, stx| {
        let items = stx
            .to_list()
            .filter(|p| p.len() == 3 && p[1].is_identifier())
            .ok_or_else(|| syntax_error("define-type: expected (define-type Name T)", &stx))?;
        let name = items[1].sym().unwrap();
        let tcx = Tcx::new(exp);
        tcx.add_alias(name, &items[2]);
        // validate eagerly so bad aliases fail at their definition
        tcx.parse_type(&items[1])?;
        Ok(Expanded::Core(build::app(id("void"), vec![])))
    })
}

/// `(ann e T)` — static ascription, no runtime effect.
fn ann_macro() -> Rc<NativeMacro> {
    native("ann", |exp, stx| {
        let items = stx
            .to_list()
            .filter(|p| p.len() == 3)
            .ok_or_else(|| syntax_error("ann: expected (ann e T)", &stx))?;
        Tcx::new(exp).parse_type(&items[2])?; // validate eagerly
        let core = exp.expand_expr(&items[1])?;
        Ok(Expanded::Core(
            core.with_property(prop_ascribe(), items[2].clone().into()),
        ))
    })
}

/// `(cast e T)` — checked coercion: static type `T`, runtime check.
fn cast_macro() -> Rc<NativeMacro> {
    native("cast", |exp, stx| {
        let items = stx
            .to_list()
            .filter(|p| p.len() == 3)
            .ok_or_else(|| syntax_error("cast: expected (cast e T)", &stx))?;
        let ty = Tcx::new(exp).parse_type(&items[2])?;
        let core = exp.expand_expr(&items[1])?;
        Ok(Expanded::Core(build::app(
            id("typed-cast"),
            vec![quote_datum(ty.to_datum()), core],
        )))
    })
}

/// `(foreign-ref name)` — a core-level reference to an already-unique
/// runtime name, which `require/typed` emits for an import's variable.
/// It resolves no name, so it is bound only at a scope of its own that
/// `require/typed`'s output alone carries (see [`register`]): no source
/// can use it to call a typed module's link-only variables past their
/// contracts.
fn foreign_ref() -> Rc<NativeMacro> {
    native("foreign-ref", |_exp, stx| {
        let items = stx
            .to_list()
            .filter(|p| p.len() == 2 && p[1].is_identifier())
            .ok_or_else(|| syntax_error("foreign-ref: bad syntax", &stx))?;
        Ok(Expanded::Core(items[1].clone()))
    })
}

// ---------------------------------------------------------------------
// require/typed (§6.1, paper figure 4)
// ---------------------------------------------------------------------

/// `foreign_ref` is the `foreign-ref` identifier, with the scope that
/// its binding needs.
fn require_typed(foreign_ref: Syntax) -> Rc<NativeMacro> {
    native("require/typed", move |exp, stx| {
        let items = stx
            .to_list()
            .filter(|p| p.len() >= 3 && p[1].is_identifier())
            .ok_or_else(|| {
                syntax_error(
                    "require/typed: expected (require/typed mod [id Type] ...)",
                    &stx,
                )
            })?;
        let dep = items[1].sym().unwrap();
        let registry = exp
            .registry
            .upgrade()
            .ok_or_else(|| RtError::user("module registry is gone"))?;
        let compiled = registry.compile(dep).map_err(|e| e.with_span(stx.span()))?;
        {
            let mut requires = exp.requires.borrow_mut();
            if !requires.contains(&dep) {
                requires.push(dep);
            }
        }
        let mut defines = vec![id("begin")];
        for clause in &items[2..] {
            let parts = clause
                .to_list()
                .filter(|p| p.len() == 2 && p[0].is_identifier())
                .ok_or_else(|| syntax_error("require/typed: expected [id Type]", clause))?;
            let name = parts[0].clone();
            let ty = Tcx::new(exp).parse_type(&parts[1])?;
            // stage 1: locate the untyped export's runtime name
            let rt = compiled
                .client_exports()
                .find_map(|(ext, b)| match b {
                    Binding::Variable(rt) if *ext == name.sym().unwrap() => Some(*rt),
                    _ => None,
                })
                .ok_or_else(|| {
                    syntax_error(
                        format!("require/typed: {dep} does not export {}", name),
                        clause,
                    )
                })?;
            // stage 2+3: define id as a contract wrapper around the
            // unsafe import; the type annotation rides on the binder and
            // the whole definition is trusted (begin-ignored)
            let binder = name.with_property(prop_annotation(), parts[1].clone().into());
            let rhs = build::app(
                id("typed-wrap-import"),
                vec![
                    quote_datum(ty.to_datum()),
                    lst(vec![foreign_ref.clone(), id_sym(rt)]),
                    quote_sym(dep),
                    quote_sym(exp.module_name),
                ],
            );
            defines.push(
                lst(vec![id("define-values"), lst(vec![binder]), rhs])
                    .with_property(prop_ignore(), Datum::Bool(true).into()),
            );
        }
        Ok(Expanded::Surface(lst(defines)))
    })
}

// ---------------------------------------------------------------------
// the whole-module driver (§4 figure 2, §5, §6.2, §7)
// ---------------------------------------------------------------------

fn typed_module_begin(optimize: Option<Rc<OptimizeFn>>) -> Rc<NativeMacro> {
    native("#%module-begin", move |exp, stx| {
        let items = stx
            .to_list()
            .ok_or_else(|| syntax_error("#%module-begin: bad syntax", &stx))?;
        // §6.2: flag the compilation as typed *before* expanding the body,
        // so imported export-indirections choose the uncontracted variant
        exp.meta_put(space_flag(), key_context(), Datum::Bool(true));

        // figure 2: fully expand the module body to core forms
        let forms = exp.expand_module_forms(items[1..].to_vec())?;

        // figures 2–3: typecheck each form in a shared context
        let tcx = Tcx::new(exp);
        let mut checked = {
            let _t = lagoon_diag::time(lagoon_diag::Phase::Typecheck, exp.module_name);
            typecheck_module(&tcx, &forms)?
        };

        // §7: type-driven optimization over validated, annotated syntax
        if let Some(opt) = &optimize {
            let _t = lagoon_diag::time(lagoon_diag::Phase::Optimize, exp.module_name);
            checked = checked
                .iter()
                .map(|f| opt(&tcx, f))
                .collect::<Result<Vec<_>, _>>()?;
        }

        // §5 + §6.2: rewrite provides — persist types, add defensive
        // (contracted) variants, and export flag-dispatching indirections
        let provides: Vec<_> = exp.provides.borrow_mut().drain(..).collect();
        let mut extra_forms = Vec::new();
        for item in provides {
            let binding = exp
                .resolve(&item.internal)?
                .ok_or_else(|| syntax_error("provide: unbound identifier", &item.internal))?;
            let rt = match binding {
                Binding::Variable(rt) => rt,
                other => {
                    // macros etc. are not re-exported from typed modules
                    // (paper §6.3's restriction)
                    let _ = other;
                    return Err(syntax_error(
                        "typed modules may only provide value bindings",
                        &item.internal,
                    ));
                }
            };
            let ty = tcx
                .lookup(rt)
                .ok_or_else(|| type_error("provided identifier has no type", &item.internal))?;
            // §5: persist the export's type for later compilations
            tcx.add_type_persistent(rt, &ty);
            // stage 1 (§6.2): the defensive, contract-protected variant
            let defensive = Symbol::fresh(&format!("defensive-{}", item.external));
            extra_forms.push(lst(vec![
                id("define-values"),
                lst(vec![id_sym(defensive)]),
                build::app(
                    id("typed-wrap"),
                    vec![
                        quote_datum(ty.to_datum()),
                        id_sym(rt),
                        quote_sym(exp.module_name),
                    ],
                ),
            ]));
            // stage 2: the indirection that picks raw vs defensive based
            // on the importing compilation's typed-context? flag
            let indirection = export_indirection(item.external, rt, defensive);
            let mut extra = exp.extra_exports.borrow_mut();
            extra.push((item.external, Binding::Native(indirection)));
            // instances link either variant; no client may name them
            extra.push(link_only_export(rt));
            extra.push(link_only_export(defensive));
            // a stable alias for embedders (untyped clients from Rust)
            extra.push((
                Symbol::intern(&format!("{}#contracted", item.external)),
                Binding::Variable(defensive),
            ));
        }

        let mut out = vec![id("#%plain-module-begin")];
        out.extend(checked);
        out.extend(extra_forms);
        Ok(Expanded::Core(lst(out)))
    })
}

/// Recipe tag under which [`export_indirection`] transformers persist in
/// the compiled-module store (see `lagoon_core::store`).
const TYPED_EXPORT_RECIPE: &str = "typed-export-indirection";

/// Builds the per-export indirection transformer (paper §6.2's
/// `export-n`): in a typed compilation it expands to the raw variable; in
/// an untyped compilation, to the contract-protected one.
///
/// The transformer is pure in its three symbols, so it persists to the
/// compiled store as `(external raw defensive)` under
/// [`TYPED_EXPORT_RECIPE`] and rehydrates on load.
fn export_indirection(external: Symbol, raw: Symbol, defensive: Symbol) -> Rc<NativeMacro> {
    let recipe = Datum::list(vec![
        Datum::Symbol(external),
        Datum::Symbol(raw),
        Datum::Symbol(defensive),
    ]);
    external.with_str(|name| {
        native_with_recipe(name, TYPED_EXPORT_RECIPE, recipe, move |exp, stx| {
            let chosen = if in_typed_context(exp) {
                raw
            } else {
                defensive
            };
            if stx.is_identifier() {
                return Ok(Expanded::Core(Syntax::ident(chosen, stx.span())));
            }
            // application position: (id arg …)
            let items = stx
                .to_list()
                .ok_or_else(|| syntax_error("bad use of typed export", &stx))?;
            let mut out = vec![id("#%plain-app"), Syntax::ident(chosen, items[0].span())];
            for arg in &items[1..] {
                out.push(exp.expand_expr(arg)?);
            }
            Ok(Expanded::Core(stx.with_data(SynData::List(out))))
        })
    })
}

// ---------------------------------------------------------------------
// runtime support natives
// ---------------------------------------------------------------------

fn value_to_type(v: &Value) -> Result<Type, RtError> {
    let d = v
        .to_datum()
        .ok_or_else(|| RtError::type_error("expected a serialized type"))?;
    Type::from_datum(&d)
}

fn runtime_values() -> HashMap<Symbol, Value> {
    let mut out = HashMap::new();
    // (typed-wrap 'ty v 'typed-module): protect a typed export (§6.2)
    out.insert(
        Symbol::intern("typed-wrap"),
        Native::value("typed-wrap", Arity::exactly(3), |args| {
            let ty = value_to_type(&args[0])?;
            let module = args[2]
                .as_symbol()
                .unwrap_or_else(|| Symbol::intern("typed-module"));
            apply_contract(
                args[1].clone(),
                &ty.to_contract(),
                module,
                Symbol::intern("untyped-client"),
            )
        }),
    );
    // (typed-wrap-import 'ty v 'library 'client): protect an untyped
    // import (§6.1 stage 3)
    out.insert(
        Symbol::intern("typed-wrap-import"),
        Native::value("typed-wrap-import", Arity::exactly(4), |args| {
            let ty = value_to_type(&args[0])?;
            let library = args[2]
                .as_symbol()
                .unwrap_or_else(|| Symbol::intern("library"));
            let client = args[3]
                .as_symbol()
                .unwrap_or_else(|| Symbol::intern("typed-module"));
            apply_contract(args[1].clone(), &ty.to_contract(), library, client)
        }),
    );
    // (typed-cast 'ty v): first-order check now, wrap functions
    out.insert(
        Symbol::intern("typed-cast"),
        Native::value("typed-cast", Arity::exactly(2), |args| {
            let ty = value_to_type(&args[0])?;
            let c = ty.to_contract();
            match c {
                Contract::Function(_, _) => apply_contract(
                    args[1].clone(),
                    &c,
                    Symbol::intern("cast"),
                    Symbol::intern("cast"),
                ),
                flat => {
                    if flat.check_first_order(&args[1]) {
                        Ok(args[1].clone())
                    } else {
                        Err(RtError::contract(
                            Symbol::intern("cast"),
                            format!("cast to {ty} failed for {}", args[1].write_string()),
                        ))
                    }
                }
            }
        }),
    );
    out
}

/// Registers the typed sister language with `registry` under `name`,
/// optionally with a type-driven optimizer pass (§7).
pub fn register(registry: &Rc<ModuleRegistry>, name: &str, optimize: Option<Rc<OptimizeFn>>) {
    // typed exports loaded from the compiled store rebuild their
    // indirection transformers from the persisted symbol triple
    registry.register_rehydrator(TYPED_EXPORT_RECIPE, |datum| {
        let items = match datum {
            Datum::List(items) if items.len() == 3 => items,
            _ => return None,
        };
        let external = items[0].as_symbol()?;
        let raw = items[1].as_symbol()?;
        let defensive = items[2].as_symbol()?;
        Some(export_indirection(external, raw, defensive))
    });
    // foreign-ref is bound at a fresh scope, which no source identifier
    // carries, and only require/typed's output names it
    let private = Scope::fresh();
    registry.table.bind(
        Symbol::intern("foreign-ref"),
        ScopeSet::new().with(private),
        Binding::Native(foreign_ref()),
    );
    // the runtime support natives are ambient base variables; their
    // values are supplied at instantiation through the language's values
    for name in ["typed-wrap", "typed-wrap-import", "typed-cast"] {
        registry.table.bind(
            Symbol::intern(name),
            ScopeSet::new(),
            Binding::Variable(Symbol::intern(name)),
        );
    }
    let exports: Vec<(Symbol, Binding)> = vec![
        (
            "#%module-begin",
            Binding::Native(typed_module_begin(optimize)),
        ),
        ("define:", Binding::Native(define_colon())),
        (":", Binding::Native(colon_decl())),
        ("lambda:", Binding::Native(lambda_colon("lambda:"))),
        ("λ:", Binding::Native(lambda_colon("λ:"))),
        ("let:", Binding::Native(let_colon())),
        ("define-type", Binding::Native(define_type())),
        ("ann", Binding::Native(ann_macro())),
        ("cast", Binding::Native(cast_macro())),
        (
            "require/typed",
            Binding::Native(require_typed(id("foreign-ref").add_scope(private))),
        ),
    ]
    .into_iter()
    .map(|(n, b)| (Symbol::intern(n), b))
    .collect();
    registry.register_language(Language {
        name: Symbol::intern(name),
        exports,
        values: runtime_values(),
    });
}
