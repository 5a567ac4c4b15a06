//! # lagoon-core
//!
//! The language-extension substrate of Lagoon — the machinery the paper
//! *Languages as Libraries* (PLDI 2011) describes:
//!
//! * a sets-of-scopes **hygienic macro expander** ([`expander`]) with
//!   alpha-renaming to globally unique names;
//! * **binding tables** and `free-identifier=?` resolution ([`binding`]);
//! * `syntax-parse`, `#'` templates, `with-syntax`, `syntax-rules`, and
//!   `define-syntax` ([`stxparse`], [`template`]);
//! * `local-expand` to the core-forms grammar (paper §2.2);
//! * a **module system** with `#lang` languages, `#%module-begin` hooks,
//!   separate compilation, and persisted compile-time declarations
//!   ([`module`]);
//! * the base language's surface macros and hosted prelude ([`prelude`]).
//!
//! Language implementations — such as `lagoon-typed`, the typed sister
//! language — plug in exclusively through the public API here: native
//! transformers, syntax properties, `local-expand`, and the compile-time
//! declaration table. No expander or compiler internals are special-cased
//! for them, which is the paper's thesis.

#![warn(missing_docs)]
// panic-free core: unwrap/expect in non-test code must be justified
// with an explicit #[allow] (CI promotes these to errors)
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod binding;
pub mod build;
pub mod expander;
pub mod module;
pub mod prelude;
pub mod store;
pub mod stxparse;
pub mod template;

pub use binding::{Binding, BindingTable, CoreFormKind, Expanded, NativeMacro};
pub use expander::{current_expander, syntax_error, Expander, ProvideItem};
pub use module::{
    contained, link_only_export, static_requires, CompiledModule, EngineKind, HeaderWalk, Language,
    ModuleRegistry, Outcome, Step,
};
pub use stxparse::{native, native_with_recipe, phase1_natives};
