//! The hygienic macro expander.
//!
//! Reduces surface syntax to the core-forms grammar of paper figure 1,
//! running macro transformers (hosted phase-1 procedures and native Rust
//! transformers) as it goes. Hygiene is sets-of-scopes: binding forms add
//! fresh scopes, macro invocations flip a fresh introduction scope across
//! input and output, and identifier resolution picks the
//! largest-subset binding (see [`crate::binding`]).
//!
//! The expander also **alpha-renames**: every binder it processes is
//! assigned a globally unique runtime name, and every reference is
//! replaced by the name of the binding it resolves to. Fully-expanded
//! programs therefore have unique names — the invariant the paper's
//! typechecker (§4.3, identifier-keyed tables) and the bytecode compiler
//! rely on. Syntax properties on binders (type annotations!) are copied
//! onto the renamed identifiers.
//!
//! Compile-time declarations that must survive separate compilation —
//! the paper §5 `begin-for-syntax (add-type! …)` residue — go through
//! [`Expander::meta_persist`], which both updates the current compile-time
//! table and records the declaration for embedding in the compiled module.

use crate::binding::{Binding, BindingTable, CoreFormKind, Expanded};
use lagoon_runtime::{Kind, RtError, Value};
use lagoon_syntax::{Datum, Scope, Span, Symbol, SynData, Syntax};
use lagoon_vm::{Engine, Env, Interp};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::{Rc, Weak};

thread_local! {
    static CURRENT: RefCell<Vec<Weak<Expander>>> = const { RefCell::new(Vec::new()) };
}

/// The expander active on this thread (set while phase-1 code runs), used
/// by phase-1 natives such as `local-expand` and `free-identifier=?`.
pub fn current_expander() -> Option<Rc<Expander>> {
    CURRENT.with(|c| c.borrow().last().and_then(Weak::upgrade))
}

/// A provide specification recorded during module expansion: the internal
/// identifier (with scopes, resolved later) and the external name.
#[derive(Clone, Debug)]
pub struct ProvideItem {
    /// The identifier as written (resolved after the module body expands).
    pub internal: Syntax,
    /// The name importers see.
    pub external: Symbol,
}

/// One per module compilation ("each module is compiled with a fresh
/// store", paper §2.3): fresh compile-time tables and a fresh phase-1
/// frame, over a shared binding table and phase-1 base environment.
pub struct Expander {
    /// The (world-shared) binding table.
    pub table: Rc<BindingTable>,
    /// This module's phase-1 environment (child of the shared base).
    pub phase1: Rc<Env>,
    /// The scope distinguishing this module's bindings.
    pub module_scope: Scope,
    /// The module being compiled.
    pub module_name: Symbol,
    /// Compile-time declaration table: (space, key) → datum. This is the
    /// fresh-per-compilation store that `typed-context?` and the type
    /// environment live in.
    meta: RefCell<HashMap<(Symbol, Symbol), Datum>>,
    /// Declarations to embed in the compiled module (replayed when this
    /// module is required during a later compilation).
    persist: RefCell<Vec<(Symbol, Symbol, Datum)>>,
    /// Provide items recorded by `#%provide`.
    pub provides: RefCell<Vec<ProvideItem>>,
    /// Pre-resolved exports added by language implementations (e.g. the
    /// typed language's hidden raw/defensive variables, paper §6.2).
    pub extra_exports: RefCell<Vec<(Symbol, Binding)>>,
    /// Modules required (runtime dependencies).
    pub requires: RefCell<Vec<Symbol>>,
    /// The registry, for processing `#%require` during expansion.
    pub registry: Weak<crate::module::ModuleRegistry>,
    self_ref: RefCell<Weak<Expander>>,
}

impl std::fmt::Debug for Expander {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#<expander:{}>", self.module_name)
    }
}

enum Classified {
    /// A native transformer produced fully-expanded core syntax.
    Done(Syntax),
    /// A core form to dispatch on.
    Core(CoreFormKind, Syntax),
    /// An identifier that names no macro, with the binding it resolved
    /// to (`None` when unbound).
    Reference(Syntax, Option<Binding>),
    /// Not macro-headed: a literal or an application.
    Other(Syntax),
}

/// What the definition-context pass ([`Expander::partial_expand`]) hands
/// to its context, in order.
enum BodyForm {
    /// A one-identifier `define-values`: the fresh binder, the unexpanded
    /// right-hand side, the `define-values` form, and the span of the
    /// surface form it came from (a macro's output, like `define`'s,
    /// carries a synthetic one).
    Define(Syntax, Syntax, Syntax, Span),
    /// An expression, expanded when its context reaches it.
    Expr(Syntax),
    /// Core syntax a native transformer produced.
    Done(Syntax),
}

impl Expander {
    /// Creates an expander for one module compilation.
    pub fn new(
        table: Rc<BindingTable>,
        phase1_base: &Rc<Env>,
        module_name: Symbol,
        registry: Weak<crate::module::ModuleRegistry>,
    ) -> Rc<Expander> {
        let exp = Rc::new(Expander {
            table,
            phase1: Env::child(phase1_base),
            module_scope: Scope::fresh(),
            module_name,
            meta: RefCell::new(HashMap::new()),
            persist: RefCell::new(Vec::new()),
            provides: RefCell::new(Vec::new()),
            extra_exports: RefCell::new(Vec::new()),
            requires: RefCell::new(Vec::new()),
            registry,
            self_ref: RefCell::new(Weak::new()),
        });
        *exp.self_ref.borrow_mut() = Rc::downgrade(&exp);
        exp
    }

    /// Converts a budget exhaustion into a span-carrying diagnostic (the
    /// request it fails records the `limits` row:
    /// [`ModuleRegistry::request`](crate::ModuleRegistry::request)).
    fn exhaust(&self, e: lagoon_diag::Exhausted, stx: &Syntax) -> RtError {
        RtError::from(e).with_span(stx.span())
    }

    /// Charges one macro-expansion step against the installed budget.
    fn charge_expansion(&self, stx: &Syntax) -> Result<(), RtError> {
        lagoon_diag::limits::expansion_step().map_err(|e| self.exhaust(e, stx))
    }

    fn with_current<R>(&self, f: impl FnOnce() -> R) -> R {
        let me = self.self_ref.borrow().clone();
        CURRENT.with(|c| c.borrow_mut().push(me));
        let r = f();
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
        r
    }

    /// Resolves an identifier through the binding table.
    ///
    /// # Errors
    ///
    /// Propagates ambiguity errors.
    pub fn resolve(&self, id: &Syntax) -> Result<Option<Binding>, RtError> {
        self.table.resolve(id)
    }

    // ----- compile-time declaration table (paper §5) -----

    /// Reads a compile-time declaration.
    pub fn meta_get(&self, space: Symbol, key: Symbol) -> Option<Datum> {
        self.meta.borrow().get(&(space, key)).cloned()
    }

    /// Writes a compile-time declaration for this compilation only.
    pub fn meta_put(&self, space: Symbol, key: Symbol, value: Datum) {
        self.meta.borrow_mut().insert((space, key), value);
    }

    /// Writes a compile-time declaration *and* records it for persistence
    /// in the compiled module, so requiring modules replay it — the
    /// `begin-for-syntax (add-type! …)` mechanism of paper §5.
    pub fn meta_persist(&self, space: Symbol, key: Symbol, value: Datum) {
        self.meta_put(space, key, value.clone());
        self.persist.borrow_mut().push((space, key, value));
    }

    /// The declarations recorded for persistence.
    pub fn persisted(&self) -> Vec<(Symbol, Symbol, Datum)> {
        self.persist.borrow().clone()
    }

    /// Replays persisted declarations from a required module.
    pub fn replay(&self, decls: &[(Symbol, Symbol, Datum)]) {
        for (space, key, value) in decls {
            self.meta_put(*space, *key, value.clone());
        }
    }

    // ----- binders -----

    /// Binds `id` as a runtime variable under a fresh globally unique
    /// name; returns the renamed identifier carrying `id`'s properties.
    ///
    /// # Errors
    ///
    /// Returns an error if `id` is not an identifier.
    pub fn fresh_binder(&self, id: &Syntax) -> Result<Syntax, RtError> {
        let sym = id
            .sym()
            .ok_or_else(|| syntax_error("expected identifier", id))?;
        let fresh = sym.with_str(Symbol::fresh);
        self.table
            .bind(sym, id.scopes().clone(), Binding::Variable(fresh));
        Ok(Syntax::ident(fresh, id.span())
            .copy_properties_from(id)
            .with_property(Symbol::intern("source-name"), Datum::Symbol(sym).into()))
    }

    // ----- phase-1 evaluation -----

    /// Applies a hosted macro transformer with hygiene: flips a fresh
    /// introduction scope across the input and output (paper §2.1).
    ///
    /// # Errors
    ///
    /// Propagates transformer errors; errors if the result is not syntax.
    fn apply_hosted_macro(&self, transformer: &Value, stx: &Syntax) -> Result<Syntax, RtError> {
        let intro = Scope::fresh();
        let input = stx.flip_scope(intro);
        let result = self.with_current(|| {
            // transformer bodies run on the phase-1 step budget
            let _p1 = lagoon_diag::limits::phase1_scope();
            Interp.apply(transformer, &[Value::Syntax(input)])
        })?;
        match result.as_syntax() {
            Some(s) => Ok(s.flip_scope(intro)),
            None => Err(RtError::user(format!(
                "macro transformer returned a non-syntax value: {}",
                result.write_string()
            ))
            .with_span(stx.span())),
        }
    }

    /// Expands and evaluates an expression at phase 1 (compile time).
    ///
    /// # Errors
    ///
    /// Propagates expansion and evaluation errors.
    pub fn eval_phase1(&self, stx: &Syntax) -> Result<Value, RtError> {
        let core = self.expand_expr(stx)?;
        self.run_phase1(&core)
    }

    fn run_phase1(&self, core: &Syntax) -> Result<Value, RtError> {
        let expr = lagoon_vm::parse_expr(core)?;
        self.with_current(|| {
            let _p1 = lagoon_diag::limits::phase1_scope();
            Interp.eval(&expr, &self.phase1)
        })
    }

    /// Evaluates a `(begin-for-syntax form …)` at phase 1, each form as
    /// the definition-context pass hands it over: a definition defines
    /// into the module's phase-1 frame before the next form expands, so
    /// a later `define-syntax` sees it.
    fn eval_phase1_form(&self, stx: &Syntax) -> Result<(), RtError> {
        let forms = stx
            .as_list()
            .ok_or_else(|| syntax_error("malformed begin-for-syntax", stx))?;
        self.partial_expand(forms[1..].to_vec(), false, &mut |form| match form {
            BodyForm::Define(binder, rhs, ..) => {
                let name = binder
                    .sym()
                    .ok_or_else(|| syntax_error("define-values: expected identifier", &binder))?;
                self.phase1.define(name, self.eval_phase1(&rhs)?);
                Ok(())
            }
            BodyForm::Expr(e) => self.eval_phase1(&e).map(drop),
            BodyForm::Done(core) => self.run_phase1(&core).map(drop),
        })
    }

    // ----- expansion -----

    /// Runs transformers until a core form, reference, or application
    /// emerges: the macro at the head of `stx`, or `stx` itself when it
    /// is an identifier macro. This is the one place a transformer runs:
    /// each run charges one expansion step (a hosted macro's output, its
    /// width too), so a chain of identifier macros is bounded like a
    /// chain of macro-headed forms.
    fn classify(&self, mut stx: Syntax) -> Result<Classified, RtError> {
        loop {
            let bare = stx.is_identifier();
            let head = if bare {
                Some(&stx)
            } else {
                stx.as_list().and_then(<[Syntax]>::first)
            };
            let Some(head) = head.filter(|h| h.is_identifier()) else {
                return Ok(Classified::Other(stx));
            };
            match self.resolve(head)? {
                Some(Binding::Macro(transformer)) => {
                    self.charge_expansion(&stx)?;
                    lagoon_diag::count("macro-steps", self.module_name, 1);
                    stx = self.apply_hosted_macro(&transformer, &stx)?;
                    // bill the transcription by its width so a
                    // self-doubling macro pays for the syntax it builds
                    let width = stx.as_list().map_or(0, |l| l.len() as u64);
                    if width > 1 {
                        lagoon_diag::limits::expansion_steps(width - 1)
                            .map_err(|e| self.exhaust(e, &stx))?;
                    }
                }
                Some(Binding::Native(native)) => {
                    self.charge_expansion(&stx)?;
                    match (native.expand)(self, stx)? {
                        Expanded::Surface(s) => stx = s,
                        Expanded::Core(s) => return Ok(Classified::Done(s)),
                    }
                }
                binding if bare => return Ok(Classified::Reference(stx, binding)),
                Some(Binding::Core(kind)) => return Ok(Classified::Core(kind, stx)),
                _ => return Ok(Classified::Other(stx)),
            }
        }
    }

    /// Fully expands an expression to core syntax. This is the paper's
    /// `(local-expand stx 'expression '())`.
    ///
    /// # Errors
    ///
    /// Returns syntax errors for malformed forms and unbound identifiers.
    pub fn expand_expr(&self, stx: &Syntax) -> Result<Syntax, RtError> {
        let _depth = lagoon_diag::limits::enter_expansion().map_err(|e| self.exhaust(e, stx))?;
        match self.classify(stx.clone())? {
            Classified::Done(core) => Ok(core),
            Classified::Core(kind, stx) => self.expand_core(kind, &stx),
            Classified::Reference(id, binding) => expand_reference(&id, binding),
            Classified::Other(stx) => match stx.e() {
                // self-evaluating literals expand to (quote lit), as in
                // Racket's core grammar
                SynData::Atom(_) | SynData::Vector(_) => {
                    Ok(stx.with_data(SynData::List(vec![crate::build::id("quote"), stx.clone()])))
                }
                SynData::List(items) if !items.is_empty() => {
                    // application with #%plain-app inserted
                    let mut out = vec![crate::build::id("#%plain-app")];
                    for item in items {
                        out.push(self.expand_expr(item)?);
                    }
                    Ok(stx.with_data(SynData::List(out)))
                }
                _ => Err(syntax_error("bad expression syntax", &stx)),
            },
        }
    }

    fn expand_core(&self, kind: CoreFormKind, stx: &Syntax) -> Result<Syntax, RtError> {
        let items = stx
            .as_list()
            .ok_or_else(|| syntax_error("bad core form", stx))?;
        match kind {
            CoreFormKind::Quote => {
                if items.len() != 2 {
                    return Err(syntax_error("quote: expects one form", stx));
                }
                Ok(stx.with_data(SynData::List(vec![
                    crate::build::id("quote"),
                    items[1].clone(),
                ])))
            }
            CoreFormKind::QuoteSyntax => {
                if items.len() != 2 {
                    return Err(syntax_error("quote-syntax: expects one form", stx));
                }
                Ok(stx.with_data(SynData::List(vec![
                    crate::build::id("quote-syntax"),
                    items[1].clone(),
                ])))
            }
            CoreFormKind::If => {
                if items.len() != 4 {
                    return Err(syntax_error("if: expects three subexpressions", stx));
                }
                Ok(stx.with_data(SynData::List(vec![
                    crate::build::id("if"),
                    self.expand_expr(&items[1])?,
                    self.expand_expr(&items[2])?,
                    self.expand_expr(&items[3])?,
                ])))
            }
            CoreFormKind::Begin => {
                if items.len() < 2 {
                    return Err(syntax_error("begin: expects at least one form", stx));
                }
                let mut out = vec![crate::build::id("begin")];
                for item in &items[1..] {
                    out.push(self.expand_expr(item)?);
                }
                Ok(stx.with_data(SynData::List(out)))
            }
            CoreFormKind::Lambda => self.expand_lambda(stx),
            CoreFormKind::LetValues => self.expand_let(stx, false),
            CoreFormKind::LetrecValues => self.expand_let(stx, true),
            CoreFormKind::Set => {
                if items.len() != 3 {
                    return Err(syntax_error("set!: expects identifier and value", stx));
                }
                let target = match self.resolve(&items[1])? {
                    Some(Binding::Variable(name)) => Syntax::ident(name, items[1].span()),
                    Some(_) => return Err(syntax_error("set!: not a variable", &items[1])),
                    None => {
                        return Err(RtError::new(
                            Kind::Unbound,
                            format!("set!: unbound identifier {}", items[1]),
                        )
                        .with_span(items[1].span()))
                    }
                };
                Ok(stx.with_data(SynData::List(vec![
                    crate::build::id("set!"),
                    target,
                    self.expand_expr(&items[2])?,
                ])))
            }
            CoreFormKind::App => {
                if items.len() < 2 {
                    return Err(syntax_error("#%plain-app: expects a procedure", stx));
                }
                let mut out = vec![crate::build::id("#%plain-app")];
                for item in &items[1..] {
                    out.push(self.expand_expr(item)?);
                }
                Ok(stx.with_data(SynData::List(out)))
            }
            CoreFormKind::PlainModuleBegin => {
                let forms = items[1..].to_vec();
                let out = self.expand_module_forms(forms)?;
                let mut body = vec![crate::build::id("#%plain-module-begin")];
                body.extend(out);
                Ok(stx.with_data(SynData::List(body)))
            }
            CoreFormKind::DefineValues | CoreFormKind::DefineSyntaxes => Err(syntax_error(
                "definition used in an expression context",
                stx,
            )),
            CoreFormKind::BeginForSyntax | CoreFormKind::Provide | CoreFormKind::Require => Err(
                syntax_error("module-level form used in an expression context", stx),
            ),
        }
    }

    fn expand_lambda(&self, stx: &Syntax) -> Result<Syntax, RtError> {
        let items = stx
            .as_list()
            .ok_or_else(|| syntax_error("malformed lambda", stx))?;
        if items.len() < 3 {
            return Err(syntax_error("lambda: expects formals and a body", stx));
        }
        let sc = Scope::fresh();
        let formals = items[1].add_scope(sc);
        let formals_out = match formals.e() {
            SynData::List(ids) => {
                let out = ids
                    .iter()
                    .map(|id| self.fresh_binder(id))
                    .collect::<Result<Vec<_>, _>>()?;
                formals.with_data(SynData::List(out))
            }
            SynData::Improper(ids, tail) => {
                let out = ids
                    .iter()
                    .map(|id| self.fresh_binder(id))
                    .collect::<Result<Vec<_>, _>>()?;
                let tail_out = self.fresh_binder(tail)?;
                formals.with_data(SynData::Improper(out, Box::new(tail_out)))
            }
            SynData::Atom(Datum::Symbol(_)) => self.fresh_binder(&formals)?,
            _ => return Err(syntax_error("lambda: malformed formals", &items[1])),
        };
        let body: Vec<Syntax> = items[2..].iter().map(|f| f.add_scope(sc)).collect();
        let body_core = self.expand_body(body)?;
        Ok(stx.with_data(SynData::List(vec![
            crate::build::id("#%plain-lambda"),
            formals_out,
            body_core,
        ])))
    }

    fn expand_let(&self, stx: &Syntax, rec: bool) -> Result<Syntax, RtError> {
        let items = stx
            .as_list()
            .ok_or_else(|| syntax_error("malformed let-values", stx))?;
        if items.len() < 3 {
            return Err(syntax_error("let-values: expects bindings and a body", stx));
        }
        let clauses = items[1]
            .as_list()
            .ok_or_else(|| syntax_error("let-values: malformed bindings", &items[1]))?;
        let mut raw = Vec::new();
        let mut multi = false;
        for clause in clauses {
            let parts = clause
                .as_list()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| syntax_error("let-values: malformed clause", clause))?;
            let ids = parts[0]
                .as_list()
                .ok_or_else(|| syntax_error("let-values: malformed clause", clause))?;
            for id in ids {
                if !id.is_identifier() {
                    return Err(syntax_error("let-values: expected an identifier", id));
                }
            }
            multi |= ids.len() != 1;
            raw.push((ids.to_vec(), parts[1].clone()));
        }
        if multi {
            // clauses binding zero or several identifiers desugar through
            // the multiple-values helpers into all-single clauses, then
            // re-expand (the rewritten head is the original identifier, so
            // it resolves back here)
            let rewritten = desugar_let_values(&items[0], &raw, &items[2..], rec);
            return self.expand_expr(&rewritten);
        }
        let sc = Scope::fresh();
        let parsed: Vec<(Syntax, Syntax)> = raw
            .into_iter()
            .map(|(ids, rhs)| (ids[0].clone(), rhs))
            .collect();
        let mut out_clauses = Vec::new();
        if rec {
            // bind first, expand right-hand sides under the scope
            let binders = parsed
                .iter()
                .map(|(id, _)| self.fresh_binder(&id.add_scope(sc)))
                .collect::<Result<Vec<_>, _>>()?;
            for ((_, rhs), binder) in parsed.iter().zip(binders) {
                let rhs_core = self.expand_expr(&rhs.add_scope(sc))?;
                out_clauses.push(crate::build::lst(vec![
                    crate::build::lst(vec![binder]),
                    rhs_core,
                ]));
            }
        } else {
            for (id, rhs) in &parsed {
                let rhs_core = self.expand_expr(rhs)?;
                let binder = self.fresh_binder(&id.add_scope(sc))?;
                out_clauses.push(crate::build::lst(vec![
                    crate::build::lst(vec![binder]),
                    rhs_core,
                ]));
            }
        }
        let body: Vec<Syntax> = items[2..].iter().map(|f| f.add_scope(sc)).collect();
        let body_core = self.expand_body(body)?;
        Ok(stx.with_data(SynData::List(vec![
            crate::build::id(if rec { "letrec-values" } else { "let-values" }),
            crate::build::lst(out_clauses),
            body_core,
        ])))
    }

    /// Expands an internal-definition context (a lambda/let body that may
    /// mix definitions and expressions) into a single core expression:
    /// `letrec-values` over its definitions, or `begin`.
    ///
    /// # Errors
    ///
    /// Returns syntax errors for bodies with no expressions or malformed
    /// definitions.
    pub fn expand_body(&self, forms: Vec<Syntax>) -> Result<Syntax, RtError> {
        let mut items = Vec::new();
        self.partial_expand(forms, false, &mut |item| {
            items.push(item);
            Ok(())
        })?;
        let mut clauses = Vec::new();
        let mut exprs = Vec::new();
        for item in items {
            match item {
                BodyForm::Define(binder, rhs, ..) => {
                    let rhs_core = self.expand_expr(&rhs)?;
                    clauses.push(crate::build::lst(vec![
                        crate::build::lst(vec![binder]),
                        rhs_core,
                    ]));
                }
                BodyForm::Expr(e) => exprs.push(self.expand_expr(&e)?),
                BodyForm::Done(core) => exprs.push(core),
            }
        }
        if exprs.is_empty() {
            return Err(RtError::user("body has no expression"));
        }
        if clauses.is_empty() {
            return Ok(crate::build::begin(exprs));
        }
        let mut out = vec![
            crate::build::id("letrec-values"),
            crate::build::lst(clauses),
        ];
        out.extend(exprs);
        Ok(crate::build::lst(out))
    }

    /// The first pass over a definition context: a module body (paper
    /// §4.2's driver), an internal-definition body, or a
    /// `begin-for-syntax`. Classifies each form, splices `begin`, binds
    /// each `define-values` binder (several identifiers go through the
    /// `values` desugaring) and runs `define-syntaxes` at once; in a
    /// module body it also runs `begin-for-syntax`, `#%require` and
    /// `#%provide`, which elsewhere reach `emit` as expressions and fail
    /// to expand. Every other form goes to `emit` in order.
    fn partial_expand(
        &self,
        forms: Vec<Syntax>,
        module_level: bool,
        emit: &mut dyn FnMut(BodyForm) -> Result<(), RtError>,
    ) -> Result<(), RtError> {
        let mut work = VecDeque::from(forms);
        while let Some(form) = work.pop_front() {
            let surface = form.span();
            match self.classify(form)? {
                Classified::Core(CoreFormKind::Begin, stx) => {
                    let inner = stx
                        .as_list()
                        .ok_or_else(|| syntax_error("malformed begin", &stx))?;
                    for f in inner[1..].iter().rev() {
                        work.push_front(f.clone());
                    }
                }
                Classified::Core(CoreFormKind::DefineValues, stx) => {
                    let (ids, rhs) = parse_define_values_ids(&stx)?;
                    if let [id] = ids.as_slice() {
                        let binder = self.fresh_binder(id)?;
                        emit(BodyForm::Define(binder, rhs, stx, surface))?;
                    } else {
                        for f in desugar_define_values(&stx, &ids, &rhs)?.into_iter().rev() {
                            work.push_front(f);
                        }
                    }
                }
                Classified::Core(CoreFormKind::DefineSyntaxes, stx) => {
                    self.handle_define_syntaxes(&stx)?;
                }
                Classified::Core(CoreFormKind::BeginForSyntax, stx) if module_level => {
                    self.eval_phase1_form(&stx)?;
                }
                Classified::Core(CoreFormKind::Require, stx) if module_level => {
                    self.handle_require(&stx)?;
                }
                Classified::Core(CoreFormKind::Provide, stx) if module_level => {
                    self.handle_provide(&stx)?;
                }
                Classified::Done(core) => emit(BodyForm::Done(core))?,
                Classified::Core(_, stx)
                | Classified::Reference(stx, _)
                | Classified::Other(stx) => {
                    emit(BodyForm::Expr(stx))?;
                }
            }
        }
        Ok(())
    }

    fn handle_define_syntaxes(&self, stx: &Syntax) -> Result<(), RtError> {
        let (id, rhs) = parse_define_syntaxes(stx)?;
        let transformer = self.eval_phase1(&rhs)?;
        if !transformer.is_procedure() {
            return Err(syntax_error(
                "define-syntax: transformer is not a procedure",
                stx,
            ));
        }
        self.table
            .bind_id(&id, Binding::Macro(Rc::new(transformer)));
        Ok(())
    }

    /// Expands a module body (a sequence of module-level forms) to core
    /// module forms: the definition-context pass of paper §4.2's driver,
    /// then each deferred right-hand side and expression in order, each
    /// under its own `form` trace span.
    ///
    /// # Errors
    ///
    /// Returns expansion errors from either pass.
    pub fn expand_module_forms(&self, forms: Vec<Syntax>) -> Result<Vec<Syntax>, RtError> {
        let mut items = Vec::new();
        self.partial_expand(forms, true, &mut |item| {
            items.push(item);
            Ok(())
        })?;
        items
            .into_iter()
            .map(|item| match item {
                BodyForm::Define(binder, rhs, orig, surface) => {
                    let src = if surface.is_synthetic() {
                        orig.span()
                    } else {
                        surface
                    };
                    let _t = form_trace_span(binder.sym(), src);
                    let rhs_core = self.expand_expr(&rhs)?;
                    Ok(orig.with_data(SynData::List(vec![
                        crate::build::id("define-values"),
                        crate::build::lst(vec![binder]),
                        rhs_core,
                    ])))
                }
                BodyForm::Expr(e) => {
                    let _t = form_trace_span(head_sym(&e), e.span());
                    self.expand_expr(&e)
                }
                BodyForm::Done(core) => Ok(core),
            })
            .collect()
    }

    fn handle_require(&self, stx: &Syntax) -> Result<(), RtError> {
        let items = stx
            .as_list()
            .ok_or_else(|| syntax_error("malformed require", stx))?;
        for spec in &items[1..] {
            let name = spec
                .sym()
                .ok_or_else(|| syntax_error("require: expected a module name", spec))?;
            let registry = self
                .registry
                .upgrade()
                .ok_or_else(|| RtError::new(Kind::Internal, "module registry is gone"))?;
            registry.import_into(self, name, spec.span())?;
        }
        Ok(())
    }

    fn handle_provide(&self, stx: &Syntax) -> Result<(), RtError> {
        let items = stx
            .as_list()
            .ok_or_else(|| syntax_error("malformed provide", stx))?;
        for spec in &items[1..] {
            if let Some(external) = spec.sym().filter(|_| spec.is_identifier()) {
                self.provides.borrow_mut().push(ProvideItem {
                    internal: spec.clone(),
                    external,
                });
            } else if let Some(parts) = spec.as_list() {
                // (rename internal external)
                if let (3, Some(rename), true, Some(external)) = (
                    parts.len(),
                    parts.first().and_then(|p| p.sym()),
                    parts.get(1).is_some_and(|p| p.is_identifier()),
                    parts.get(2).and_then(|p| p.sym()),
                ) {
                    if rename != Symbol::intern("rename") {
                        return Err(syntax_error("malformed provide spec", spec));
                    }
                    self.provides.borrow_mut().push(ProvideItem {
                        internal: parts[1].clone(),
                        external,
                    });
                } else {
                    return Err(syntax_error("provide: malformed spec", spec));
                }
            } else {
                return Err(syntax_error("provide: malformed spec", spec));
            }
        }
        Ok(())
    }

    /// Expands a `(#%module-begin form …)` wrapper: resolves the head in
    /// the module's language (the whole-module hook of paper §2.3) and
    /// drives it to a `(#%plain-module-begin core-form …)` result.
    ///
    /// # Errors
    ///
    /// Returns expansion errors, or an error if the language's
    /// `#%module-begin` does not produce a `#%plain-module-begin` form.
    pub fn expand_module_begin(&self, stx: Syntax) -> Result<Syntax, RtError> {
        match self.classify(stx)? {
            Classified::Done(core) => {
                if crate::build::headed_by(&core, "#%plain-module-begin") {
                    Ok(core)
                } else {
                    Err(syntax_error(
                        "#%module-begin did not produce a #%plain-module-begin form",
                        &core,
                    ))
                }
            }
            Classified::Core(CoreFormKind::PlainModuleBegin, stx) => {
                self.expand_core(CoreFormKind::PlainModuleBegin, &stx)
            }
            Classified::Core(_, stx) | Classified::Reference(stx, _) | Classified::Other(stx) => {
                Err(syntax_error(
                    "module body must be wrapped by #%module-begin",
                    &stx,
                ))
            }
        }
    }
}

/// Builds a syntax error at `stx`.
pub fn syntax_error(message: impl std::fmt::Display, stx: &Syntax) -> RtError {
    RtError::user(format!("{message} in: {stx}")).with_span(stx.span())
}

/// Turns the binding an identifier resolved to into a core reference,
/// or into the error for an identifier that names no variable.
fn expand_reference(id: &Syntax, binding: Option<Binding>) -> Result<Syntax, RtError> {
    match binding {
        Some(Binding::Variable(name)) => {
            Ok(Syntax::ident(name, id.span()).copy_properties_from(id))
        }
        Some(Binding::PatternVar(name, 0)) => Ok(Syntax::ident(name, id.span())),
        Some(Binding::PatternVar(..)) => Err(syntax_error(
            "pattern variable used without enough ellipses",
            id,
        )),
        // `classify` expands every macro, so a core form is all that is left
        Some(_) => Err(syntax_error("core form used as an expression", id)),
        None => Err(
            RtError::new(Kind::Unbound, format!("{}: unbound identifier", id)).with_span(id.span()),
        ),
    }
}

/// The head identifier of a compound form (`(define …)` → `define`),
/// or the symbol itself for a bare identifier.
fn head_sym(stx: &Syntax) -> Option<Symbol> {
    match stx.as_list() {
        Some(items) => items.first().and_then(|h| h.sym()),
        None => stx.sym(),
    }
}

/// Opens a per-top-level-form span labeled with the form's defining (or
/// head) identifier and carrying its source location — the file:line
/// attribution `lagoon run --trace` shows under each module's expand
/// span. Inert (one thread-local read) when no recorder is installed.
fn form_trace_span(name: Option<Symbol>, src: Span) -> lagoon_diag::trace::SpanGuard {
    lagoon_diag::trace::start_at("form", name, src)
}

/// Builds the surface application `(#%values-check rhs n)` — at run
/// time it verifies `rhs` produced exactly `n` values.
fn values_check(rhs: Syntax, n: usize) -> Syntax {
    crate::build::lst(vec![
        crate::build::id("#%values-check"),
        rhs,
        crate::build::int(n as i64),
    ])
}

/// Builds the surface application `(#%values-ref tmp i n)` — extracts
/// the `i`-th of `n` values from a checked values package.
fn values_ref(tmp: &Syntax, i: usize, n: usize) -> Syntax {
    crate::build::lst(vec![
        crate::build::id("#%values-ref"),
        tmp.clone(),
        crate::build::int(i as i64),
        crate::build::int(n as i64),
    ])
}

/// Rewrites a `let-values`/`letrec-values` form with clauses binding a
/// number of identifiers other than one into all-single clauses over the
/// `values` runtime helpers. Temporaries are gensyms named from a
/// digest of the module's own source, with no scopes, so user code
/// cannot capture (or shadow) them.
///
/// Non-recursive: the checked packages bind in an outer `let-values`
/// (right-hand sides still see only the surrounding environment) and the
/// destructured identifiers bind in an inner one wrapping the body.
/// Recursive: everything stays one flat `letrec-values`, whose
/// sequential semantics make each package available to its refs.
fn desugar_let_values(
    head: &Syntax,
    clauses: &[(Vec<Syntax>, Syntax)],
    body: &[Syntax],
    rec: bool,
) -> Syntax {
    let mut outer: Vec<Syntax> = Vec::new();
    let mut inner: Vec<Syntax> = Vec::new();
    for (ids, rhs) in clauses {
        if let [id] = ids.as_slice() {
            outer.push(crate::build::lst(vec![
                crate::build::lst(vec![id.clone()]),
                rhs.clone(),
            ]));
            continue;
        }
        let n = ids.len();
        let tmp = Syntax::ident(Symbol::fresh("mv"), rhs.span());
        outer.push(crate::build::lst(vec![
            crate::build::lst(vec![tmp.clone()]),
            values_check(rhs.clone(), n),
        ]));
        let refs = ids.iter().enumerate().map(|(i, id)| {
            crate::build::lst(vec![
                crate::build::lst(vec![id.clone()]),
                values_ref(&tmp, i, n),
            ])
        });
        if rec {
            outer.extend(refs);
        } else {
            inner.extend(refs);
        }
    }
    let mut out = vec![head.clone(), crate::build::lst(outer)];
    if inner.is_empty() {
        out.extend(body.iter().cloned());
    } else {
        let mut inner_form = vec![head.clone(), crate::build::lst(inner)];
        inner_form.extend(body.iter().cloned());
        out.push(crate::build::lst(inner_form));
    }
    crate::build::lst(out)
}

/// Splits `(define-values (id ...) rhs)` binding a number of identifiers
/// other than one into a temporary define of the checked values package
/// plus one single-identifier define per bound name. Each emitted form
/// reuses the original head identifier, so re-classification routes it
/// back to the `DefineValues` core form.
fn desugar_define_values(
    stx: &Syntax,
    ids: &[Syntax],
    rhs: &Syntax,
) -> Result<Vec<Syntax>, RtError> {
    let items = stx
        .as_list()
        .ok_or_else(|| syntax_error("malformed define-values", stx))?;
    let head = items[0].clone();
    let n = ids.len();
    let tmp = Syntax::ident(Symbol::fresh("mv"), stx.span());
    let mut out = vec![stx.with_data(SynData::List(vec![
        head.clone(),
        crate::build::lst(vec![tmp.clone()]),
        values_check(rhs.clone(), n),
    ]))];
    for (i, id) in ids.iter().enumerate() {
        out.push(stx.with_data(SynData::List(vec![
            head.clone(),
            crate::build::lst(vec![id.clone()]),
            values_ref(&tmp, i, n),
        ])));
    }
    Ok(out)
}

/// Parses `(define-values (id ...) rhs)`, allowing any number of bound
/// identifiers (the desugaring above handles n != 1).
fn parse_define_values_ids(stx: &Syntax) -> Result<(Vec<Syntax>, Syntax), RtError> {
    let items = stx
        .as_list()
        .ok_or_else(|| syntax_error("malformed define-values", stx))?;
    if items.len() != 3 {
        return Err(syntax_error(
            "define-values: expects (id ...) and a value",
            stx,
        ));
    }
    let ids = items[1]
        .as_list()
        .filter(|ids| ids.iter().all(|id| id.is_identifier()))
        .ok_or_else(|| syntax_error("define-values: expects identifiers", &items[1]))?;
    Ok((ids.to_vec(), items[2].clone()))
}

fn parse_define_syntaxes(stx: &Syntax) -> Result<(Syntax, Syntax), RtError> {
    let items = stx
        .as_list()
        .ok_or_else(|| syntax_error("malformed define-syntaxes", stx))?;
    if items.len() != 3 {
        return Err(syntax_error(
            "define-syntaxes: expects (id) and a transformer",
            stx,
        ));
    }
    let ids = items[1]
        .as_list()
        .filter(|ids| ids.len() == 1 && ids[0].is_identifier())
        .ok_or_else(|| syntax_error("define-syntaxes: expects a single identifier", &items[1]))?;
    Ok((ids[0].clone(), items[2].clone()))
}
