//! The base language's surface forms and library.
//!
//! Everything here is implemented *on top of* the core forms — the surface
//! macros are native transformers (the compiled-library analogue of
//! `racket/base`'s macros), and the library functions are hosted Lagoon
//! code compiled by the ordinary pipeline. “Most forms can be reduced to
//! simpler forms via rewrite rules implemented as macros” (paper §3.1).

use crate::binding::{Expanded, NativeMacro};
use crate::build::{self, id, lst};
use crate::expander::syntax_error;
use crate::stxparse::native;
use lagoon_syntax::{Symbol, Syntax};
use std::rc::Rc;

/// The hosted portion of the base library, compiled during bootstrap.
pub const PRELUDE_SOURCE: &str = r#"
(define (map1 f lst)
  (if (null? lst) '() (cons (f (car lst)) (map1 f (cdr lst)))))
(define (map2 f a b)
  (if (null? a) '() (cons (f (car a) (car b)) (map2 f (cdr a) (cdr b)))))
(define (map f lst . more)
  (if (null? more) (map1 f lst) (map2 f lst (car more))))
(define (for-each f lst)
  (if (null? lst) (void) (begin (f (car lst)) (for-each f (cdr lst)))))
(define (filter p lst)
  (cond [(null? lst) '()]
        [(p (car lst)) (cons (car lst) (filter p (cdr lst)))]
        [else (filter p (cdr lst))]))
(define (foldl f init lst)
  (if (null? lst) init (foldl f (f (car lst) init) (cdr lst))))
(define (foldr f init lst)
  (if (null? lst) init (f (car lst) (foldr f init (cdr lst)))))
(define (andmap p lst)
  (if (null? lst) #t (if (p (car lst)) (andmap p (cdr lst)) #f)))
(define (ormap p lst)
  (if (null? lst) #f (let ([r (p (car lst))]) (if r r (ormap p (cdr lst))))))
(define (build-list n f)
  (letrec ([go (lambda (i) (if (= i n) '() (cons (f i) (go (+ i 1)))))])
    (go 0)))
(define (list-copy lst) (map1 (lambda (x) x) lst))
(define (vector-map f v)
  (let ([n (vector-length v)])
    (let ([out (make-vector n 0)])
      (letrec ([go (lambda (i)
                     (if (= i n)
                         out
                         (begin (vector-set! out i (f (vector-ref v i)))
                                (go (+ i 1)))))])
        (go 0)))))
(define (vector-for-each f v)
  (let ([n (vector-length v)])
    (letrec ([go (lambda (i)
                   (if (= i n) (void)
                       (begin (f (vector-ref v i)) (go (+ i 1)))))])
      (go 0))))
(define (assoc-ref alist key default)
  (let ([hit (assoc key alist)])
    (if hit (cdr hit) default)))
(define (iota n) (build-list n (lambda (i) i)))
(define (range a b)
  (if (>= a b) '() (cons a (range (+ a 1) b))))
(define (sum lst) (foldl + 0 lst))
(define (list-max lst) (foldl max (car lst) (cdr lst)))
(define (take lst n)
  (if (or (= n 0) (null? lst)) '() (cons (car lst) (take (cdr lst) (- n 1)))))
(define (drop lst n)
  (if (or (= n 0) (null? lst)) lst (drop (cdr lst) (- n 1))))
(define (list-index p lst)
  (letrec ([go (lambda (l i)
                 (cond [(null? l) -1]
                       [(p (car l)) i]
                       [else (go (cdr l) (+ i 1))]))])
    (go lst 0)))
(define (merge-sorted a b less?)
  (cond [(null? a) b]
        [(null? b) a]
        [(less? (car b) (car a)) (cons (car b) (merge-sorted a (cdr b) less?))]
        [else (cons (car a) (merge-sorted (cdr a) b less?))]))
(define (sort lst less?)
  (if (or (null? lst) (null? (cdr lst)))
      lst
      (letrec ([split (lambda (l a b)
                        (if (null? l)
                            (merge-sorted (sort a less?) (sort b less?) less?)
                            (split (cdr l) (cons (car l) b) a)))])
        (split lst '() '()))))
(define (string-join strs sep)
  (cond [(null? strs) ""]
        [(null? (cdr strs)) (car strs)]
        [else (string-append (car strs) sep (string-join (cdr strs) sep))]))
(define (string-repeat s n)
  (if (= n 0) "" (string-append s (string-repeat s (- n 1)))))
(define (flatten lst)
  (cond [(null? lst) '()]
        [(pair? (car lst)) (append (flatten (car lst)) (flatten (cdr lst)))]
        [(null? (car lst)) (flatten (cdr lst))]
        [else (cons (car lst) (flatten (cdr lst)))]))
(define (count-if p lst)
  (foldl (lambda (x acc) (if (p x) (+ acc 1) acc)) 0 lst))
(define (remove-if p lst) (filter (lambda (x) (not (p x))) lst))
(define (zip a b) (map2 (lambda (x y) (list x y)) a b))
(define (in-range a . maybe-b)
  (if (null? maybe-b) (range 0 a) (range a (car maybe-b))))
(define-syntax for
  (syntax-rules ()
    [(_ ([x seq]) body ...)
     (for-each (lambda (x) body ...) seq)]))
(define-syntax for/list
  (syntax-rules ()
    [(_ ([x seq]) body ...)
     (map (lambda (x) (begin body ...)) seq)]))
(define-syntax for/sum
  (syntax-rules ()
    [(_ ([x seq]) body ...)
     (foldl (lambda (x acc) (+ acc (begin body ...))) 0 seq)]))
(define-syntax while
  (syntax-rules ()
    [(_ test body ...)
     (letrec ([loop (lambda ()
                      (when test body ... (loop)))])
       (loop))]))
(provide for for/list for/sum while in-range)
(provide map map1 map2 for-each filter foldl foldr andmap ormap
         build-list list-copy vector-map vector-for-each assoc-ref
         iota range sum list-max take drop list-index merge-sorted sort
         string-join string-repeat flatten count-if remove-if zip)
"#;

fn define_macro() -> Rc<NativeMacro> {
    native("define", |_exp, stx| {
        let items = stx
            .to_list()
            .ok_or_else(|| syntax_error("define: bad syntax", &stx))?;
        if items.len() < 3 {
            return Err(syntax_error("define: expects a name and a value", &stx));
        }
        if items[1].is_identifier() {
            if items.len() != 3 {
                return Err(syntax_error(
                    "define: multiple expressions after identifier",
                    &stx,
                ));
            }
            return Ok(Expanded::Surface(lst(vec![
                id("define-values"),
                lst(vec![items[1].clone()]),
                items[2].clone(),
            ])));
        }
        // function shorthand: (define (f arg …) body …) — the header may
        // be improper for rest arguments
        let (name, formals) = match items[1].e() {
            lagoon_syntax::SynData::List(header) if !header.is_empty() => (
                header[0].clone(),
                items[1].with_data(lagoon_syntax::SynData::List(header[1..].to_vec())),
            ),
            lagoon_syntax::SynData::Improper(header, tail) if !header.is_empty() => (
                header[0].clone(),
                if header.len() == 1 {
                    (**tail).clone()
                } else {
                    items[1].with_data(lagoon_syntax::SynData::Improper(
                        header[1..].to_vec(),
                        tail.clone(),
                    ))
                },
            ),
            _ => return Err(syntax_error("define: malformed header", &items[1])),
        };
        let mut lam = vec![id("lambda"), formals];
        lam.extend(items[2..].iter().cloned());
        Ok(Expanded::Surface(lst(vec![
            id("define-values"),
            lst(vec![name]),
            lst(lam),
        ])))
    })
}

fn let_macro() -> Rc<NativeMacro> {
    native("let", |_exp, stx| {
        let items = stx
            .to_list()
            .ok_or_else(|| syntax_error("let: bad syntax", &stx))?;
        if items.len() < 3 {
            return Err(syntax_error("let: expects bindings and a body", &stx));
        }
        // named let: (let loop ([x e] …) body …)
        if items[1].is_identifier() {
            if items.len() < 4 {
                return Err(syntax_error(
                    "let: named let expects bindings and a body",
                    &stx,
                ));
            }
            let name = items[1].clone();
            let clauses = parse_let_clauses(&items[2])?;
            let formals: Vec<Syntax> = clauses.iter().map(|(x, _)| x.clone()).collect();
            let inits: Vec<Syntax> = clauses.iter().map(|(_, e)| e.clone()).collect();
            let mut lam = vec![id("lambda"), lst(formals)];
            lam.extend(items[3..].iter().cloned());
            let rec = lst(vec![
                id("letrec-values"),
                lst(vec![lst(vec![lst(vec![name.clone()]), lst(lam)])]),
                name,
            ]);
            let mut call = vec![rec];
            call.extend(inits);
            return Ok(Expanded::Surface(lst(call)));
        }
        let clauses = parse_let_clauses(&items[1])?;
        let core_clauses = clauses
            .into_iter()
            .map(|(x, e)| lst(vec![lst(vec![x]), e]))
            .collect();
        let mut out = vec![id("let-values"), lst(core_clauses)];
        out.extend(items[2..].iter().cloned());
        Ok(Expanded::Surface(lst(out)))
    })
}

fn parse_let_clauses(stx: &Syntax) -> Result<Vec<(Syntax, Syntax)>, lagoon_runtime::RtError> {
    stx.to_list()
        .ok_or_else(|| syntax_error("let: malformed bindings", stx))?
        .iter()
        .map(|clause| {
            clause
                .to_list()
                .filter(|p| p.len() == 2 && p[0].is_identifier())
                .map(|p| (p[0].clone(), p[1].clone()))
                .ok_or_else(|| syntax_error("let: malformed clause", clause))
        })
        .collect()
}

fn let_star_macro() -> Rc<NativeMacro> {
    native("let*", |_exp, stx| {
        let items = stx
            .to_list()
            .ok_or_else(|| syntax_error("let*: bad syntax", &stx))?;
        if items.len() < 3 {
            return Err(syntax_error("let*: expects bindings and a body", &stx));
        }
        let clauses = parse_let_clauses(&items[1])?;
        let mut out = build::begin(items[2..].to_vec());
        for (x, e) in clauses.into_iter().rev() {
            out = lst(vec![id("let"), lst(vec![lst(vec![x, e])]), out]);
        }
        Ok(Expanded::Surface(out))
    })
}

fn letrec_macro() -> Rc<NativeMacro> {
    native("letrec", |_exp, stx| {
        let items = stx
            .to_list()
            .ok_or_else(|| syntax_error("letrec: bad syntax", &stx))?;
        if items.len() < 3 {
            return Err(syntax_error("letrec: expects bindings and a body", &stx));
        }
        let clauses = parse_let_clauses(&items[1])?;
        let core_clauses = clauses
            .into_iter()
            .map(|(x, e)| lst(vec![lst(vec![x]), e]))
            .collect();
        let mut out = vec![id("letrec-values"), lst(core_clauses)];
        out.extend(items[2..].iter().cloned());
        Ok(Expanded::Surface(lst(out)))
    })
}

fn cond_macro() -> Rc<NativeMacro> {
    native("cond", |_exp, stx| {
        let items = stx
            .to_list()
            .ok_or_else(|| syntax_error("cond: bad syntax", &stx))?;
        let mut out = build::app(id("void"), vec![]);
        for clause in items[1..].iter().rev() {
            let parts = clause
                .to_list()
                .filter(|p| !p.is_empty())
                .ok_or_else(|| syntax_error("cond: malformed clause", clause))?;
            let is_else = parts[0].sym() == Some(Symbol::intern("else"));
            if is_else {
                if parts.len() < 2 {
                    return Err(syntax_error("cond: else clause needs a body", clause));
                }
                out = build::begin(parts[1..].to_vec());
            } else if parts.len() == 1 {
                // (cond [test]) — the test's value when true
                let t = Symbol::fresh("t");
                out = build::let1(
                    t,
                    parts[0].clone(),
                    vec![build::if3(build::id_sym(t), build::id_sym(t), out)],
                );
            } else {
                out = build::if3(parts[0].clone(), build::begin(parts[1..].to_vec()), out);
            }
        }
        Ok(Expanded::Surface(out))
    })
}

fn case_macro() -> Rc<NativeMacro> {
    native("case", |_exp, stx| {
        let items = stx
            .to_list()
            .ok_or_else(|| syntax_error("case: bad syntax", &stx))?;
        if items.len() < 2 {
            return Err(syntax_error("case: expects a scrutinee", &stx));
        }
        let t = Symbol::fresh("case-t");
        let mut out = build::app(id("void"), vec![]);
        for clause in items[2..].iter().rev() {
            let parts = clause
                .to_list()
                .filter(|p| p.len() >= 2)
                .ok_or_else(|| syntax_error("case: malformed clause", clause))?;
            if parts[0].sym() == Some(Symbol::intern("else")) {
                out = build::begin(parts[1..].to_vec());
            } else {
                let data = parts[0].clone();
                let test = build::app(
                    id("memv"),
                    vec![build::id_sym(t), lst(vec![id("quote"), data])],
                );
                out = build::if3(test, build::begin(parts[1..].to_vec()), out);
            }
        }
        Ok(Expanded::Surface(build::let1(
            t,
            items[1].clone(),
            vec![out],
        )))
    })
}

fn when_macro() -> Rc<NativeMacro> {
    native("when", |_exp, stx| {
        let items = stx
            .to_list()
            .filter(|p| p.len() >= 3)
            .ok_or_else(|| syntax_error("when: expects a test and a body", &stx))?;
        Ok(Expanded::Surface(build::if3(
            items[1].clone(),
            build::begin(items[2..].to_vec()),
            build::app(id("void"), vec![]),
        )))
    })
}

fn unless_macro() -> Rc<NativeMacro> {
    native("unless", |_exp, stx| {
        let items = stx
            .to_list()
            .filter(|p| p.len() >= 3)
            .ok_or_else(|| syntax_error("unless: expects a test and a body", &stx))?;
        Ok(Expanded::Surface(build::if3(
            items[1].clone(),
            build::app(id("void"), vec![]),
            build::begin(items[2..].to_vec()),
        )))
    })
}

fn and_macro() -> Rc<NativeMacro> {
    native("and", |_exp, stx| {
        let items = stx
            .to_list()
            .ok_or_else(|| syntax_error("and: bad syntax", &stx))?;
        let out = match items.len() {
            1 => Syntax::atom(lagoon_syntax::Datum::Bool(true), stx.span()),
            2 => items[1].clone(),
            _ => {
                let mut rest = vec![id("and")];
                rest.extend(items[2..].iter().cloned());
                build::if3(
                    items[1].clone(),
                    lst(rest),
                    Syntax::atom(lagoon_syntax::Datum::Bool(false), stx.span()),
                )
            }
        };
        Ok(Expanded::Surface(out))
    })
}

fn or_macro() -> Rc<NativeMacro> {
    native("or", |_exp, stx| {
        let items = stx
            .to_list()
            .ok_or_else(|| syntax_error("or: bad syntax", &stx))?;
        let out = match items.len() {
            1 => Syntax::atom(lagoon_syntax::Datum::Bool(false), stx.span()),
            2 => items[1].clone(),
            _ => {
                let t = Symbol::fresh("or-t");
                let mut rest = vec![id("or")];
                rest.extend(items[2..].iter().cloned());
                build::let1(
                    t,
                    items[1].clone(),
                    vec![build::if3(build::id_sym(t), build::id_sym(t), lst(rest))],
                )
            }
        };
        Ok(Expanded::Surface(out))
    })
}

fn quasiquote_macro() -> Rc<NativeMacro> {
    native("quasiquote", |_exp, stx| {
        let items = stx
            .to_list()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| syntax_error("quasiquote: expects one template", &stx))?;
        Ok(Expanded::Surface(qq_expand(&items[1])))
    })
}

/// Rewrites a quasiquote template to `cons`/`append`/`quote` calls.
fn qq_expand(tmpl: &Syntax) -> Syntax {
    if let Some(items) = tmpl.as_list() {
        if items.len() == 2 && items[0].sym() == Some(Symbol::intern("unquote")) {
            return items[1].clone();
        }
        // build the list right-to-left
        let mut out = lst(vec![id("quote"), lst(vec![])]);
        for item in items.iter().rev() {
            if let Some(parts) = item.as_list() {
                if parts.len() == 2 && parts[0].sym() == Some(Symbol::intern("unquote-splicing")) {
                    out = build::app(id("append"), vec![parts[1].clone(), out]);
                    continue;
                }
            }
            out = build::app(id("cons"), vec![qq_expand(item), out]);
        }
        return out;
    }
    lst(vec![id("quote"), tmpl.clone()])
}

fn provide_macro() -> Rc<NativeMacro> {
    native("provide", |_exp, stx| {
        let items = stx
            .to_list()
            .ok_or_else(|| syntax_error("provide: bad syntax", &stx))?;
        let mut out = vec![id("#%provide")];
        for spec in &items[1..] {
            if spec.is_identifier() {
                out.push(spec.clone());
            } else if let Some(parts) = spec.as_list() {
                // (rename-out [int ext] …)
                if parts
                    .first()
                    .and_then(Syntax::sym)
                    .map(|s| s == Symbol::intern("rename-out"))
                    .unwrap_or(false)
                {
                    for pair in &parts[1..] {
                        let p = pair
                            .to_list()
                            .filter(|p| p.len() == 2)
                            .ok_or_else(|| syntax_error("provide: malformed rename-out", pair))?;
                        out.push(lst(vec![id("rename"), p[0].clone(), p[1].clone()]));
                    }
                } else {
                    return Err(syntax_error("provide: unknown spec", spec));
                }
            } else {
                return Err(syntax_error("provide: unknown spec", spec));
            }
        }
        Ok(Expanded::Surface(lst(out)))
    })
}

fn require_macro() -> Rc<NativeMacro> {
    native("require", |_exp, stx| {
        let items = stx
            .to_list()
            .ok_or_else(|| syntax_error("require: bad syntax", &stx))?;
        let mut out = vec![id("#%require")];
        out.extend(items[1..].iter().cloned());
        Ok(Expanded::Surface(lst(out)))
    })
}

/// The base language's `#%module-begin`: no extra whole-module semantics,
/// just the plain wrapper (paper §2.3).
fn default_module_begin() -> Rc<NativeMacro> {
    native("#%module-begin", |_exp, stx| {
        let items = stx
            .to_list()
            .ok_or_else(|| syntax_error("#%module-begin: bad syntax", &stx))?;
        let mut out = vec![id("#%plain-module-begin")];
        out.extend(items[1..].iter().cloned());
        Ok(Expanded::Surface(lst(out)))
    })
}

/// All surface macros of the base language, as `(name, transformer)`
/// pairs ready to bind in the base environment.
pub fn surface_macros() -> Vec<(&'static str, Rc<NativeMacro>)> {
    vec![
        ("define", define_macro()),
        ("let", let_macro()),
        ("let*", let_star_macro()),
        ("letrec", letrec_macro()),
        ("cond", cond_macro()),
        ("case", case_macro()),
        ("when", when_macro()),
        ("unless", unless_macro()),
        ("and", and_macro()),
        ("or", or_macro()),
        ("quasiquote", quasiquote_macro()),
        ("provide", provide_macro()),
        ("require", require_macro()),
        ("#%module-begin", default_module_begin()),
        ("define-syntax", crate::stxparse::define_syntax_macro()),
        ("syntax", crate::stxparse::syntax_macro()),
        ("quasisyntax", crate::stxparse::quasisyntax_macro()),
        ("syntax-parse", crate::stxparse::syntax_parse_macro()),
        ("with-syntax", crate::stxparse::with_syntax_macro()),
        ("syntax-rules", crate::stxparse::syntax_rules_macro()),
    ]
}
