//! The on-disk compiled-module store: serialization of
//! [`CompiledModule`]s to content-addressed `.lagc` artifacts.
//!
//! This is the paper's §5 separate-compilation story made persistent: a
//! compiled module — exports, core forms, runtime requires, and the
//! *persisted compile-time declarations* that must replay when the
//! module is imported — survives the process, so a later `lagoon run`
//! decodes it straight into the registry and skips
//! read→expand→typecheck entirely. The artifact holds one program, the
//! core forms: the interpreter runs them as decoded, and the load
//! compiles the VM's bytecode from them ([`Compiler::compile_module`]).
//! Compiling costs a load more than decoding persisted bytecode did,
//! but a persisted second program made every artifact about a sixth
//! larger and tied the format to the instruction set; with the smaller
//! artifacts, a warm run that loads every module is no slower end to
//! end (EXPERIMENTS.md, "Artifacts without bytecode").
//!
//! ## Validity
//!
//! Checking an artifact splits in two. The **header checks** need only
//! the frame and the header ([`decode_header`]), so a rebuild applies
//! them to decide which modules are up to date
//! ([`ModuleRegistry::verify_artifact`](crate::module::ModuleRegistry::verify_artifact)),
//! and a load applies them first:
//!
//! * the `"LAGC"` magic, [`FORMAT_VERSION`], and the **content digest**
//!   — a hash of the body, so a flipped or truncated byte reads as
//!   corrupt before anything is decoded;
//! * the **module name** the artifact was written for;
//! * the **environment digest** — a hash of the base environment's
//!   global names. The prelude's definitions are alpha-renamed inside a
//!   gensym scope keyed on the prelude's source, so every registry
//!   names them alike, and an artifact makes sense only against a base
//!   environment with the names it was compiled for;
//! * the **source digest** — a hash of the module's current source
//!   text (which includes its `#lang` line);
//! * every recorded **dependency digest** — [`language_digest`] for a
//!   registered language, otherwise the dependency artifact's content
//!   digest, and that artifact must itself pass these checks. This rule
//!   is what makes editing one module invalidate its dependents, and
//!   the recorded list includes requires a macro generated, which no
//!   scan of the source text sees.
//!
//! The header also carries the module's **static require list**: the
//! modules its source's top-level `require` forms name
//! ([`static_requires`](crate::module::static_requires)). It is graph
//! data for a rebuild's discovery, not a validity check. When the frame,
//! name, environment and source checks pass, discovery takes the
//! module's graph edges from the list instead of parsing the source; the
//! content digest is a hash, not a MAC, so discovery still parses the
//! source when the list names a module its loader cannot find.
//!
//! The **load checks** need the decoded body or a live registry, so
//! only a load (`lagoon run`, the daemon, a build worker's
//! dependencies) applies them, after the header checks:
//!
//! * every native-transformer export **rehydrates** from a registered
//!   recipe;
//! * no global the module defines **collides** with a name visible to
//!   it, since decoding interns the names the artifact recorded.
//!
//! A load compares a module dependency's recorded digest with that of
//! the artifact the registry loaded for it or wrote when it compiled
//! it: either way the dependency names its globals with the same
//! symbols, because a compile's gensyms are interned
//! ([`Symbol::fresh`]), so the importer links against it alike.
//!
//! A rebuild skips the load checks for a module whose header checks
//! pass, because it loads nothing. Which recipes are registered and
//! which names are visible are fixed by the binary, the base
//! environment and the dependencies' artifacts, and the header checks
//! compare the last two by digest, so for an artifact this binary wrote
//! the load checks cannot fail once the header checks pass.
//!
//! Decoding the body ends by compiling the decoded forms to bytecode, so
//! every index the machine reads (locals, captures, constants, globals,
//! child protos, operand addresses and jump targets) comes from the
//! compiler, never from disk.
//!
//! Failing the version or digest checks is *stale*; bytes that cannot
//! be decoded, or forms that do not compile, are *corrupt*. Both fall
//! back to recompilation with a structured diagnostic — never a panic
//! (the wire layer is fully bounds-checked). A recorded dependency that
//! names no module or closes a cycle, which only a damaged or crafted
//! artifact holds, is stale too. A recorded dependency that exists but
//! fails to compile fails the load with its own error, after one
//! compile: the importer's unchanged source requires it.
//!
//! ## What cannot be cached
//!
//! Exports that close over live compile-time state — hosted macros,
//! pattern variables, and native transformers without a registered
//! [rehydration recipe](crate::binding::NativeMacro::recipe) — and
//! constants with no datum form make a module *uncacheable*: encoding
//! returns an error, the module is compiled from source every run, and
//! so is everything that imports it.

use crate::binding::{Binding, CoreFormKind, NativeMacro};
use crate::module::CompiledModule;
use lagoon_syntax::{digest, Datum, Symbol, WireError, WireReader, WireWriter};
use lagoon_vm::codec;
use lagoon_vm::{Compiler, CoreForm};
use std::rc::Rc;

/// Bumped whenever the artifact layout (or anything it embeds, like the
/// core-form or constant encoding) changes incompatibly. Old artifacts
/// read as stale. The instruction set is not part of the format: an
/// instruction change needs no bump.
///
/// History: 2 added the peephole superinstruction opcodes and the
/// artifact's `peephole` flag. 3 switched [`Value`](lagoon_runtime::Value)
/// to the tagged word representation, changing constant encoding (NaN
/// canonicalization means float constants round-trip through one bit
/// pattern per NaN) and the opcode operand layout. 4 gave instructions
/// operand addresses and branch forms, retiring the float-stack and
/// superinstruction opcodes and the `peephole` flag. 5 drops the
/// persisted bytecode; the VM compiles it from the forms at load, and
/// importers record a dependency's content digest rather than a hash
/// of its whole file. 6 records the static require list. 7 computes
/// every digest with XXH64 ([`lagoon_syntax::digest`]) instead of
/// FNV-1a, and so freshens gensyms from different seeds.
pub const FORMAT_VERSION: u32 = 7;

const MAGIC: &[u8; 4] = b"LAGC";

/// Why an artifact could not be used.
#[derive(Debug)]
pub enum DecodeError {
    /// The artifact was written by a different format version — stale,
    /// not corrupt.
    Version {
        /// The version found in the header.
        found: u32,
    },
    /// The bytes are structurally invalid.
    Corrupt(WireError),
}

impl From<WireError> for DecodeError {
    fn from(e: WireError) -> DecodeError {
        DecodeError::Corrupt(e)
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Version { found } => {
                write!(f, "format version {found} (expected {FORMAT_VERSION})")
            }
            DecodeError::Corrupt(e) => write!(f, "{e}"),
        }
    }
}

/// An artifact's header: the digests a rebuild compares to decide
/// whether the module is up to date, readable without decoding the body.
#[derive(Debug)]
pub struct Header {
    /// The content digest: the hash of the body that [`decode_header`]
    /// checked, and the digest importers record for this artifact.
    pub digest: u64,
    /// Digest of the base environment the artifact was compiled against.
    pub env_digest: u64,
    /// Digest of the module's source text at compile time.
    pub source_digest: u64,
    /// The module's name.
    pub name: Symbol,
    /// The module's language.
    pub lang: Symbol,
    /// Runtime requires, each with the content digest of the
    /// dependency's artifact (or [`language_digest`] for registered
    /// languages).
    pub dep_digests: Vec<(Symbol, u64)>,
    /// The modules the source's top-level `require` forms name
    /// ([`CompiledModule::static_requires`]): graph data for a rebuild's
    /// discovery, not a validity check.
    pub static_requires: Vec<Symbol>,
}

/// The undecoded rest of an artifact whose frame and header
/// [`decode_header`] accepted.
pub struct Body<'a>(WireReader<'a>);

/// A decoded artifact: everything in a [`CompiledModule`] plus the
/// header the registry validates before trusting it.
pub struct Artifact {
    /// The header.
    pub header: Header,
    /// Exports: external name → binding.
    pub exports: Vec<(Symbol, Binding)>,
    /// Persisted compile-time declarations to replay on import.
    pub persisted: Vec<(Symbol, Symbol, Datum)>,
    /// Core forms (interpreter engine).
    pub forms: Vec<CoreForm>,
    /// Bytecode (VM engine), compiled from `forms` by the decode.
    pub code: lagoon_vm::bytecode::ModuleCode,
}

impl Artifact {
    /// Converts into a registry-ready [`CompiledModule`]. The expanded
    /// syntax is not persisted (it exists only for tooling, which
    /// expands a loaded module's source again; see
    /// [`ModuleRegistry::expanded_body`](crate::module::ModuleRegistry::expanded_body)).
    pub fn into_compiled(self) -> CompiledModule {
        CompiledModule {
            name: self.header.name,
            lang: self.header.lang,
            exports: self.exports,
            expanded: Vec::new(),
            forms: self.forms,
            code: self.code,
            requires: self
                .header
                .dep_digests
                .iter()
                .map(|(dep, _)| *dep)
                .collect(),
            static_requires: self.header.static_requires,
            persisted: self.persisted,
        }
    }
}

/// The dependency digest used for registered (Rust-implemented)
/// languages, which have no artifact bytes of their own: their
/// compatibility is tracked by [`FORMAT_VERSION`].
pub fn language_digest(name: Symbol) -> u64 {
    let mut bytes = Vec::new();
    name.with_str(|s| bytes.extend_from_slice(s.as_bytes()));
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    digest(&bytes)
}

/// Digest of a module's source text.
pub fn source_digest(source: &str) -> u64 {
    digest(source.as_bytes())
}

/// Whether `name` names a file directly inside one directory: non-empty,
/// with no path separator and no `..`. Such names key the store's
/// artifacts (`<dir>/<name>.lagc`), and source loaders resolve only
/// such names (`<root>/<name>.lag`); any other module name is compiled
/// but never stored or loaded from a file.
pub fn is_module_file_name(name: &str) -> bool {
    !name.is_empty() && !name.contains(['/', '\\']) && !name.contains("..")
}

fn encode_binding(w: &mut WireWriter, binding: &Binding) -> Result<(), WireError> {
    match binding {
        Binding::Variable(sym) => {
            w.u8(0);
            w.symbol(*sym);
            Ok(())
        }
        Binding::Core(kind) => {
            w.u8(1);
            w.u8(kind.wire_tag());
            Ok(())
        }
        Binding::Native(native) => match &native.recipe {
            Some((tag, datum)) => {
                w.u8(2);
                w.symbol(native.name);
                w.symbol(*tag);
                w.datum(datum);
                Ok(())
            }
            None => Err(WireError::new(
                format!(
                    "export {} is a native transformer without a rehydration recipe",
                    native.name
                ),
                w.bytes().len(),
            )),
        },
        Binding::Macro(_) => Err(WireError::new(
            "hosted macros cannot be persisted",
            w.bytes().len(),
        )),
        Binding::PatternVar(..) => Err(WireError::new(
            "pattern variables cannot be persisted",
            w.bytes().len(),
        )),
    }
}

fn decode_binding(
    r: &mut WireReader,
    rehydrate: &dyn Fn(Symbol, &Datum) -> Option<Rc<NativeMacro>>,
) -> Result<Binding, WireError> {
    let at = r.position();
    match r.u8()? {
        0 => Ok(Binding::Variable(r.symbol()?)),
        1 => {
            let tag = r.u8()?;
            CoreFormKind::from_wire_tag(tag)
                .map(Binding::Core)
                .ok_or_else(|| WireError::new(format!("unknown core-form tag {tag}"), at))
        }
        2 => {
            let name = r.symbol()?;
            let tag = r.symbol()?;
            let datum = r.datum()?;
            rehydrate(tag, &datum).map(Binding::Native).ok_or_else(|| {
                WireError::new(
                    format!("no rehydrator registered for {tag} (export {name})"),
                    at,
                )
            })
        }
        t => Err(WireError::new(format!("unknown binding tag {t}"), at)),
    }
}

/// Encodes a compiled module as artifact bytes.
///
/// # Errors
///
/// Fails when the module is uncacheable: an export without a serialized
/// form, or a quoted constant with no datum representation.
pub fn encode(
    module: &CompiledModule,
    env_digest: u64,
    src_digest: u64,
    dep_digests: &[(Symbol, u64)],
) -> Result<Vec<u8>, WireError> {
    encode_with_digest(module, env_digest, src_digest, dep_digests).map(|(bytes, _)| bytes)
}

/// [`encode`], also returning the content digest the frame carries —
/// the digest importers record ([`Header::digest`] on a load).
///
/// # Errors
///
/// As [`encode`].
pub(crate) fn encode_with_digest(
    module: &CompiledModule,
    env_digest: u64,
    src_digest: u64,
    dep_digests: &[(Symbol, u64)],
) -> Result<(Vec<u8>, u64), WireError> {
    let mut w = WireWriter::new();
    w.uint(env_digest);
    w.uint(src_digest);
    w.symbol(module.name);
    w.symbol(module.lang);
    w.len(dep_digests.len());
    for (dep, digest) in dep_digests {
        w.symbol(*dep);
        w.uint(*digest);
    }
    w.len(module.static_requires.len());
    for dep in &module.static_requires {
        w.symbol(*dep);
    }
    w.len(module.exports.len());
    for (external, binding) in &module.exports {
        w.symbol(*external);
        encode_binding(&mut w, binding)?;
    }
    w.len(module.persisted.len());
    for (tag, key, datum) in &module.persisted {
        w.symbol(*tag);
        w.symbol(*key);
        w.datum(datum);
    }
    w.len(module.forms.len());
    for form in &module.forms {
        codec::encode_form(&mut w, form)?;
    }
    // frame the body behind a content digest so any byte flip is caught
    // here, as corruption, rather than reaching the engines as silently
    // mutated forms
    let body = w.into_bytes();
    let content_digest = digest(&body);
    let mut framed = WireWriter::new();
    framed.raw(MAGIC);
    framed.u32(FORMAT_VERSION);
    framed.uint(content_digest);
    framed.raw(&body);
    Ok((framed.into_bytes(), content_digest))
}

/// Reads an artifact's frame — the magic, the format version and the
/// content digest, checked against the body — and then its [`Header`].
/// The returned [`Body`] decodes the rest.
///
/// # Errors
///
/// [`DecodeError::Version`] for a format-version mismatch (stale);
/// [`DecodeError::Corrupt`] for anything structurally invalid.
pub fn decode_header(bytes: &[u8]) -> Result<(Header, Body<'_>), DecodeError> {
    let mut outer = WireReader::new(bytes);
    let magic = outer.raw(4)?;
    if magic != MAGIC {
        return Err(DecodeError::Corrupt(WireError::new(
            "bad magic (not a .lagc artifact)",
            0,
        )));
    }
    let found = outer.u32()?;
    if found != FORMAT_VERSION {
        return Err(DecodeError::Version { found });
    }
    let content_digest = outer.uint()?;
    let body = outer.raw(outer.remaining())?;
    if digest(body) != content_digest {
        return Err(DecodeError::Corrupt(WireError::new(
            "content digest mismatch (artifact bytes were altered)",
            0,
        )));
    }
    let mut r = WireReader::new(body);
    let env_digest = r.uint()?;
    let source_digest = r.uint()?;
    let name = r.symbol()?;
    let lang = r.symbol()?;
    let ndeps = r.len()?;
    let mut dep_digests = Vec::with_capacity(ndeps);
    for _ in 0..ndeps {
        let dep = r.symbol()?;
        let digest = r.uint()?;
        dep_digests.push((dep, digest));
    }
    let nstatic = r.len()?;
    let mut static_requires = Vec::with_capacity(nstatic);
    for _ in 0..nstatic {
        static_requires.push(r.symbol()?);
    }
    let header = Header {
        digest: content_digest,
        env_digest,
        source_digest,
        name,
        lang,
        dep_digests,
        static_requires,
    };
    Ok((header, Body(r)))
}

impl Body<'_> {
    /// Decodes the body behind `header` and compiles its forms to
    /// bytecode. `rehydrate` maps a recipe tag + datum back to a live
    /// native transformer (see
    /// [`ModuleRegistry::register_rehydrator`](crate::module::ModuleRegistry::register_rehydrator)).
    ///
    /// # Errors
    ///
    /// Anything structurally invalid, an export whose recipe has no
    /// rehydrator, or forms the compiler rejects: the artifact is corrupt.
    pub fn decode(
        self,
        header: Header,
        rehydrate: &dyn Fn(Symbol, &Datum) -> Option<Rc<NativeMacro>>,
    ) -> Result<Artifact, WireError> {
        let mut r = self.0;
        let nexports = r.len()?;
        let mut exports = Vec::with_capacity(nexports);
        for _ in 0..nexports {
            let external = r.symbol()?;
            let binding = decode_binding(&mut r, rehydrate)?;
            exports.push((external, binding));
        }
        let npersisted = r.len()?;
        let mut persisted = Vec::with_capacity(npersisted);
        for _ in 0..npersisted {
            let tag = r.symbol()?;
            let key = r.symbol()?;
            let datum = r.datum()?;
            persisted.push((tag, key, datum));
        }
        let nforms = r.len()?;
        let mut forms = Vec::with_capacity(nforms);
        for _ in 0..nforms {
            forms.push(codec::decode_form(&mut r)?);
        }
        if !r.is_empty() {
            return Err(WireError::new(
                format!("{} trailing bytes after artifact", r.remaining()),
                r.position(),
            ));
        }
        let code = Compiler::compile_module(&forms)
            .map_err(|e| WireError::new(format!("core forms do not compile: {e}"), r.position()))?;
        Ok(Artifact {
            header,
            exports,
            persisted,
            forms,
            code,
        })
    }
}

/// Decodes artifact bytes: [`decode_header`], then [`Body::decode`].
///
/// # Errors
///
/// [`DecodeError::Version`] for a format-version mismatch (stale);
/// [`DecodeError::Corrupt`] for anything structurally invalid.
pub fn decode(
    bytes: &[u8],
    rehydrate: &dyn Fn(Symbol, &Datum) -> Option<Rc<NativeMacro>>,
) -> Result<Artifact, DecodeError> {
    let (header, body) = decode_header(bytes)?;
    Ok(body.decode(header, rehydrate)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagoon_runtime::{Arity, Value};
    use lagoon_syntax::Span;
    use lagoon_vm::bytecode::{ModuleCode, Op, Proto};
    use lagoon_vm::CoreExpr;

    fn sample_module(exports: Vec<(Symbol, Binding)>) -> CompiledModule {
        CompiledModule {
            name: Symbol::intern("m"),
            lang: Symbol::intern("lagoon"),
            exports,
            expanded: Vec::new(),
            forms: vec![CoreForm::Define(
                Symbol::intern("x~1"),
                CoreExpr::Quote(Value::Int(42)),
                Span::synthetic(),
            )],
            code: ModuleCode {
                top: Rc::new(Proto {
                    name: None,
                    arity: Arity::exactly(0),
                    nlocals: 0,
                    captures: vec![],
                    code: vec![Op::Const(0), Op::StoreGlobal(0), Op::Void, Op::Return],
                    consts: vec![Value::Int(42)],
                    protos: vec![],
                }),
                global_names: vec![Symbol::intern("x~1")],
                defined: vec![0],
            },
            requires: vec![Symbol::intern("dep")],
            static_requires: vec![Symbol::intern("dep"), Symbol::intern("other")],
            persisted: vec![(
                Symbol::intern("typed-type"),
                Symbol::intern("x"),
                Datum::sym("Integer"),
            )],
        }
    }

    fn no_rehydrate(_: Symbol, _: &Datum) -> Option<Rc<NativeMacro>> {
        None
    }

    #[test]
    fn round_trips_a_module() {
        let m = sample_module(vec![(
            Symbol::intern("x"),
            Binding::Variable(Symbol::intern("x~1")),
        )]);
        let deps = vec![(Symbol::intern("dep"), 77u64)];
        let (bytes, digest) = encode_with_digest(&m, 11, 22, &deps).unwrap();
        let a = decode(&bytes, &no_rehydrate).unwrap();
        assert_eq!(a.header.digest, digest);
        assert_eq!(a.header.env_digest, 11);
        assert_eq!(a.header.source_digest, 22);
        assert_eq!(a.header.name, m.name);
        assert_eq!(a.header.lang, m.lang);
        assert_eq!(a.header.dep_digests, deps);
        assert_eq!(a.header.static_requires, m.static_requires);
        assert_eq!(a.persisted, m.persisted);
        let back = a.into_compiled();
        assert_eq!(back.requires, m.requires);
        assert_eq!(back.static_requires, m.static_requires);
        assert_eq!(back.exports.len(), 1);
        assert_eq!(back.code.global_names, m.code.global_names);
        assert_eq!(back.code.top.disassemble(), m.code.top.disassemble());
    }

    #[test]
    fn forms_that_do_not_compile_are_corrupt() {
        // a lambda with no body decodes, but the compiler rejects it
        let mut m = sample_module(vec![]);
        m.forms = vec![CoreForm::Expr(CoreExpr::Lambda(Rc::new(
            lagoon_vm::LambdaCore {
                name: None,
                formals: vec![],
                rest: None,
                body: vec![],
                span: Span::synthetic(),
            },
        )))];
        let bytes = encode(&m, 0, 0, &[]).unwrap();
        assert!(decode_header(&bytes).is_ok());
        match decode(&bytes, &no_rehydrate) {
            Err(DecodeError::Corrupt(e)) => {
                assert!(e.to_string().contains("do not compile"), "{e}")
            }
            other => panic!("expected corrupt, got {:?}", other.err()),
        }
    }

    #[test]
    fn module_file_names_stay_inside_their_directory() {
        for ok in ["m", "typed-util", "a.b"] {
            assert!(is_module_file_name(ok), "{ok}");
        }
        for bad in ["", "a/b", "a\\b", "..", "x..y", "/abs"] {
            assert!(!is_module_file_name(bad), "{bad}");
        }
    }

    #[test]
    fn version_mismatch_is_stale_not_corrupt() {
        let m = sample_module(vec![]);
        let mut bytes = encode(&m, 0, 0, &[]).unwrap();
        bytes[4] = bytes[4].wrapping_add(1); // varint version bump
        match decode(&bytes, &no_rehydrate) {
            Err(DecodeError::Version { .. }) => {}
            other => panic!("expected version error, got {other:?}", other = other.err()),
        }
        assert!(matches!(
            decode_header(&bytes),
            Err(DecodeError::Version { .. })
        ));
    }

    #[test]
    fn corruption_is_an_error_never_a_panic() {
        let m = sample_module(vec![(
            Symbol::intern("x"),
            Binding::Variable(Symbol::intern("x~1")),
        )]);
        let bytes = encode(&m, 1, 2, &[(Symbol::intern("dep"), 3)]).unwrap();
        let (header, _) = decode_header(&bytes).unwrap();
        assert_eq!(header.dep_digests, vec![(Symbol::intern("dep"), 3)]);
        // the header check rejects exactly what the full decode's frame
        // rejects: every truncation and flip, before any body decoding
        let agree = |b: &[u8], what: &str| {
            let full = decode(b, &no_rehydrate).is_ok();
            assert_eq!(decode_header(b).is_ok(), full, "{what}");
            full
        };
        // truncations
        for cut in 0..bytes.len() {
            assert!(!agree(&bytes[..cut], &format!("truncation at {cut}")));
        }
        // single-byte flips: the content digest guarantees every one is
        // rejected (no flip can silently mutate the decoded artifact)
        for i in 0..bytes.len() {
            let mut dup = bytes.clone();
            dup[i] ^= 0x55;
            assert!(!agree(&dup, &format!("flip at byte {i}")));
        }
    }

    #[test]
    fn uncacheable_exports_fail_encoding() {
        let mac = crate::stxparse::native("m", |_, stx| Ok(crate::binding::Expanded::Surface(stx)));
        let m = sample_module(vec![(Symbol::intern("m"), Binding::Native(mac))]);
        assert!(encode(&m, 0, 0, &[]).is_err());
    }

    #[test]
    fn recipes_rehydrate() {
        let mac = crate::stxparse::native_with_recipe(
            "m",
            "test-recipe",
            Datum::sym("payload"),
            |_, stx| Ok(crate::binding::Expanded::Surface(stx)),
        );
        let m = sample_module(vec![(Symbol::intern("m"), Binding::Native(mac))]);
        let bytes = encode(&m, 0, 0, &[]).unwrap();
        // without a rehydrator: the header is sound, the body corrupt
        assert!(decode_header(&bytes).is_ok());
        assert!(matches!(
            decode(&bytes, &no_rehydrate),
            Err(DecodeError::Corrupt(_))
        ));
        // with one: the recipe datum comes back
        let a = decode(&bytes, &|tag, d| {
            assert_eq!(tag, Symbol::intern("test-recipe"));
            assert_eq!(d, &Datum::sym("payload"));
            Some(crate::stxparse::native("m", |_, stx| {
                Ok(crate::binding::Expanded::Surface(stx))
            }))
        })
        .unwrap();
        assert!(matches!(a.exports[0].1, Binding::Native(_)));
    }

    #[test]
    fn language_digest_is_stable_per_name() {
        assert_eq!(
            language_digest(Symbol::intern("typed/lagoon")),
            language_digest(Symbol::intern("typed/lagoon"))
        );
        assert_ne!(
            language_digest(Symbol::intern("typed/lagoon")),
            language_digest(Symbol::intern("typed/no-opt"))
        );
    }
}
