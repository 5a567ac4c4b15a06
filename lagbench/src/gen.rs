//! Seeded input generation: the `cold-build` module corpus and the
//! `serve-mixed` request sources. The program under test never sees the
//! seed, only the generated sources.

use std::collections::BTreeMap;

/// SplitMix64: a small, fast, well-mixed generator; the same seed gives
/// the same stream on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// One generated module. `body` is written in typed style (with `(: …)`
/// declarations); [`Module::source`] derives the untyped variant by
/// stripping them, the same relation the Fig 6–9 programs have.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Module {
    pub name: String,
    pub typed: bool,
    pub body: String,
}

/// A `#lang` a module can be compiled under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lang {
    Untyped,
    TypedNoOpt,
    Typed,
}

impl Lang {
    pub const ALL: [Lang; 3] = [Lang::Untyped, Lang::TypedNoOpt, Lang::Typed];

    pub fn line(self) -> &'static str {
        match self {
            Lang::Untyped => "#lang lagoon",
            Lang::TypedNoOpt => "#lang typed/no-opt",
            Lang::Typed => "#lang typed/lagoon",
        }
    }
}

/// `body` as a module in `lang`.
pub fn source_in(body: &str, lang: Lang) -> String {
    match lang {
        Lang::Untyped => format!(
            "{}\n{}\n",
            lang.line(),
            lagoon_bench::strip_type_declarations(body)
        ),
        _ => format!("{}\n{body}", lang.line()),
    }
}

impl Module {
    /// The module's source in its own language.
    pub fn source(&self) -> String {
        source_in(
            &self.body,
            if self.typed {
                Lang::Typed
            } else {
                Lang::Untyped
            },
        )
    }
}

/// The `cold-build` corpus: a `require` DAG of typed and untyped library
/// modules plus untyped entry modules that compute a value from them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Corpus {
    /// Library modules in dependency order (each requires only earlier ones).
    pub libs: Vec<Module>,
    /// Entry modules, last in dependency order.
    pub entries: Vec<Module>,
}

impl Corpus {
    /// Every module, in dependency order.
    pub fn modules(&self) -> impl Iterator<Item = &Module> {
        self.libs.iter().chain(&self.entries)
    }

    /// Name → source, as the build scheduler takes it.
    pub fn source_map(&self) -> BTreeMap<String, String> {
        self.modules()
            .map(|m| (m.name.clone(), m.source()))
            .collect()
    }
}

fn float_literal(rng: &mut Rng) -> String {
    format!("{}.{}", 1 + rng.below(3), rng.below(10))
}

/// One library module: integer and float functions, two user
/// `syntax-rules` macros (one recursive, with an ellipsis), and calls
/// into its dependencies.
fn library_module(rng: &mut Rng, index: usize, typed: bool, deps: &[(usize, bool)]) -> Module {
    let p = format!("c{index}");
    let a = 1 + rng.below(9);
    let k = 1 + rng.below(20);
    let (fa, fb, fc) = (float_literal(rng), float_literal(rng), float_literal(rng));
    let mut body = String::new();
    if !deps.is_empty() {
        let names: Vec<String> = deps.iter().map(|(d, _)| format!("c{d}")).collect();
        body.push_str(&format!("(require {})\n", names.join(" ")));
    }
    body.push_str(&format!(
        "(define-syntax {p}-twice (syntax-rules () [(_ e) (+ e e)]))\n\
         (define-syntax {p}-sum (syntax-rules () [(_ a) a] [(_ a b ...) (+ a ({p}-sum b ...))]))\n\
         (: {p}-isum : Integer Integer -> Integer)\n\
         (define ({p}-isum n acc) (if (= n 0) acc ({p}-isum (- n 1) (+ acc (* n {a})))))\n\
         (: {p}-fpoly : Float -> Float)\n\
         (define ({p}-fpoly x) (+ (* {fa} x x) (* {fb} x) {fc}))\n\
         (: {p}-floop : Float Float -> Float)\n\
         (define ({p}-floop x acc) (if (< x 0.5) acc ({p}-floop (- x 1.0) (+ acc ({p}-fpoly x)))))\n"
    ));
    // The mixers call every dependency, so the DAG is live at run time;
    // the integer one recurses on `n`, which bounds the call tree.
    let mut terms = vec![format!("({p}-twice n)"), k.to_string()];
    let mut fterms = vec![format!("({p}-fpoly x)")];
    for (d, _) in deps {
        terms.push(format!("(c{d}-mix (- n 1))"));
        fterms.push(format!("(c{d}-fpoly (* x 0.5))"));
    }
    body.push_str(&format!(
        "(: {p}-mix : Integer -> Integer)\n\
         (define ({p}-mix n) (if (< n 1) {k} ({p}-sum ({p}-isum n 0) {})))\n\
         (: {p}-fmix : Float -> Float)\n\
         (define ({p}-fmix x) (+ ({p}-floop x 0.0) {}))\n\
         (provide {p}-isum {p}-fpoly {p}-floop {p}-mix {p}-fmix)\n",
        terms.join(" "),
        fterms.join(" "),
    ));
    Module {
        name: p,
        typed,
        body,
    }
}

/// Generates the corpus: `libs` library modules (about two thirds typed)
/// and `entries` untyped entry modules. Typed modules require only typed
/// modules; untyped modules may require either kind.
pub fn corpus(seed: u64, libs: usize, entries: usize) -> Corpus {
    let mut rng = Rng::new(seed);
    let mut out: Vec<Module> = Vec::with_capacity(libs);
    for i in 0..libs {
        let typed = rng.below(3) != 0;
        let mut deps: Vec<(usize, bool)> = Vec::new();
        for _ in 0..rng.below(3) {
            if i == 0 {
                break;
            }
            let d = rng.below(i as u64) as usize;
            let ok = !typed || out[d].typed;
            if ok && !deps.iter().any(|(x, _)| *x == d) {
                deps.push((d, out[d].typed));
            }
        }
        out.push(library_module(&mut rng, i, typed, &deps));
    }
    let mut tops = Vec::with_capacity(entries);
    for t in 0..entries {
        let picks: Vec<usize> = (0..3).map(|_| rng.below(libs as u64) as usize).collect();
        let mut requires: Vec<String> = picks.iter().map(|d| format!("c{d}")).collect();
        requires.sort();
        requires.dedup();
        let n = 3 + rng.below(6);
        let x = float_literal(&mut rng);
        let body = format!(
            "(require {})\n(list (c{}-mix {n}) (c{}-isum {n} 0) (c{}-fmix {x}))\n",
            requires.join(" "),
            picks[0],
            picks[1],
            picks[2],
        );
        tops.push(Module {
            name: format!("top{t}"),
            typed: false,
            body,
        });
    }
    Corpus {
        libs: out,
        entries: tops,
    }
}

/// The `serve-mixed` named module graph: a chain of typed modules under
/// one untyped top module. The top module's value is checked.
pub fn service_graph(seed: u64) -> Vec<Module> {
    let mut rng = Rng::new(seed ^ 0x5e7e);
    let depth = 3;
    let mut mods = Vec::new();
    for d in (0..depth).rev() {
        let callee = if d + 1 < depth {
            format!("svc{}-f", d + 1)
        } else {
            "add1".to_string()
        };
        let require = if d + 1 < depth {
            format!("(require svc{})\n", d + 1)
        } else {
            String::new()
        };
        let c = 1 + rng.below(5);
        mods.push(Module {
            name: format!("svc{d}"),
            typed: true,
            body: format!(
                "{require}(: svc{d}-f : Integer -> Integer)\n\
                 (define (svc{d}-f n) (if (= n 0) 1 (+ ({callee} (- n 1)) {c})))\n\
                 (provide svc{d}-f)\n"
            ),
        });
    }
    // Sizes are fixed; the seed varies only constants, so every seed
    // asks the same amount of work.
    let iters = 250;
    mods.push(Module {
        name: "svc-top".to_string(),
        typed: false,
        body: format!(
            "(require svc0)\n\
             (: go : Integer Integer -> Integer)\n\
             (define (go i acc) (if (= i 0) acc (go (- i 1) (+ acc (svc0-f 16)))))\n\
             (go {iters} 0)\n"
        ),
    });
    mods
}

/// An inline program body for a `run` or `check` request: a small loop
/// with a user macro. `variant` picks the constants; the value depends
/// only on `variant`, so expected values are computed once per variant.
pub fn inline_body(variant: u64) -> String {
    let mut rng = Rng::new(variant ^ 0x1a1e);
    let k = 1 + rng.below(9);
    let n = 150;
    let x = float_literal(&mut rng);
    format!(
        "(define-syntax twice (syntax-rules () [(_ e) (+ e e)]))\n\
         (: loop : Integer Integer -> Integer)\n\
         (define (loop i acc) (if (= i 0) acc (loop (- i 1) (+ acc (twice {k})))))\n\
         (: scale : Float -> Float)\n\
         (define (scale y) (* y {x}))\n\
         (list (loop {n} 0) (scale 2.0))\n"
    )
}

/// Makes a request's source unique without changing its value: an unused
/// definition tagged with the request index. The daemon never caches
/// inline sources, so every one is a full cold compile either way.
pub fn tagged(body: &str, request: usize) -> String {
    format!("(define request-tag {request})\n{body}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_corpus_other_seed_differs() {
        let a = corpus(7, 12, 3);
        let b = corpus(7, 12, 3);
        let c = corpus(8, 12, 3);
        assert_eq!(a, b);
        assert_ne!(a.source_map(), c.source_map());
        assert_eq!(service_graph(7), service_graph(7));
        assert_ne!(service_graph(7), service_graph(8));
        assert_eq!(inline_body(3), inline_body(3));
    }

    #[test]
    fn typed_modules_require_only_typed_modules() {
        let c = corpus(11, 30, 4);
        for (i, m) in c.libs.iter().enumerate() {
            let Some(line) = m.body.lines().find(|l| l.starts_with("(require")) else {
                continue;
            };
            for dep in line
                .trim_start_matches("(require ")
                .trim_end_matches(')')
                .split(' ')
            {
                let d: usize = dep[1..].parse().expect("cN module name");
                assert!(d < i, "{} requires a later module", m.name);
                assert!(
                    !m.typed || c.libs[d].typed,
                    "{} requires untyped {dep}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(1).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
