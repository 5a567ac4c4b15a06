//! # lagoon-runtime
//!
//! The runtime substrate of Lagoon: the uniform tagged [`Value`]
//! representation, the generic (tag-dispatching) numeric tower
//! ([`number`]), the primitive library ([`prim::primitives`]) including
//! the `unsafe-*` type-specialized operations the paper's optimizer
//! targets, and run-time [`Contract`]s for typed/untyped interoperation.
//!
//! The evaluation engines live in `lagoon-vm`; this crate is engine
//! agnostic.

#![warn(missing_docs)]

pub mod contract;
pub mod error;
pub mod io;
pub mod number;
pub mod prim;
pub mod value;

pub use contract::{apply_contract, Contract};
pub use error::{Kind, RtError};
pub use value::{Arity, Closure, Contracted, Intercept, Native, NativeFn, Pair, Unpacked, Value};
