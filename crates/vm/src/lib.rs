//! # lagoon-vm
//!
//! Lagoon's execution engines over the fully-expanded core-forms grammar:
//!
//! * [`ir`] — the structured core-forms IR parsed from expanded syntax;
//! * [`interp`] — a tree-walking reference interpreter (also used for
//!   phase-1 macro-transformer evaluation);
//! * [`compile`] + [`bytecode`] + [`machine`] — a bytecode compiler and
//!   stack VM whose instruction set includes both generic
//!   (tag-dispatching) and `unsafe-*` type-specialized operations. The
//!   specialized instructions are the backend channel the paper's
//!   type-driven optimizer communicates through (§7.1).
//! * [`engine`] — the engine abstraction and the contract-checked
//!   application shared by both engines (paper §6).

#![warn(missing_docs)]
// panic-free core: unwrap/expect in non-test code must be justified
// with an explicit #[allow] (CI promotes these to errors)
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod bytecode;
pub mod compile;
pub mod counters;
pub mod engine;
pub mod interp;
pub mod ir;
pub mod machine;
pub mod peephole;

pub mod codec;

pub use compile::Compiler;
pub use engine::{apply_placeholder, cwv_placeholder, Engine};
pub use interp::{Env, Interp};
pub use ir::{parse_expr, parse_form, CoreExpr, CoreForm, LambdaCore};
pub use machine::{Globals, Vm, VmEnv};
