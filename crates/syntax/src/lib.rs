//! # lagoon-syntax
//!
//! The reader layer of Lagoon, a Rust reproduction of *Languages as
//! Libraries* (Tobin-Hochstadt et al., PLDI 2011): interned symbols, plain
//! S-expression [`Datum`]s, attributed [`Syntax`] objects with source
//! [`Span`]s, hygiene [`ScopeSet`]s, and syntax properties, plus the
//! [`read_syntax`]/[`read_module`] readers.
//!
//! Syntax objects are the compile-time data structure everything else in
//! the system communicates through: the expander resolves identifiers via
//! their scope sets, and the typed sister language attaches type
//! annotations as out-of-band properties.
//!
//! # Examples
//!
//! ```
//! use lagoon_syntax::{read_module, read_syntax};
//!
//! let stx = read_syntax("(define (f x) (* x x))", "<doc>")?;
//! assert!(stx.as_list().unwrap()[0].is_identifier());
//!
//! let m = read_module("#lang lagoon\n(f 2)\n", "<doc>")?;
//! assert_eq!(m.lang.as_str(), "lagoon");
//! # Ok::<(), lagoon_syntax::ReadError>(())
//! ```

#![warn(missing_docs)]
// panic-free core: unwrap/expect in non-test code must be justified
// with an explicit #[allow] (CI promotes these to errors)
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod datum;
mod lexer;
mod reader;
mod scope;
mod span;
mod symbol;
mod syntax;
pub mod wire;

pub use datum::Datum;
pub use lexer::{parse_number, Lexer, ReadError, Token};
pub use reader::{
    read_all, read_all_recover, read_datum, read_module, read_module_recover, read_syntax,
    ModuleSource,
};
pub use scope::{Scope, ScopeSet};
pub use span::Span;
pub use symbol::{
    epoch_mark, epoch_reset, epoch_truncate, fresh_scope, interned_count, strip_gensym, EpochMark,
    FreshScope, Symbol,
};
pub use syntax::{PropValue, SynData, Syntax};
pub use wire::{digest, Reader as WireReader, WireError, Writer as WireWriter};
