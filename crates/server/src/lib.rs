//! # lagoon-server
//!
//! The serving layer of Lagoon: parallel module-graph builds and a
//! multi-worker evaluation daemon.
//!
//! Lagoon's values are `Rc`-based and single-threaded by design, so
//! neither subsystem shares live objects across threads. Instead, every
//! worker owns a full world (registry + languages), and workers
//! cooperate through the *serialized* layer: the content-addressed
//! `.lagc` store, whose artifacts are byte-identical no matter which
//! worker produced them (deterministic gensym freshening makes compiled
//! output a pure function of module content).
//!
//! - [`build()`] schedules the static `require` graph as a
//!   wavefront over N compile workers (`lagoon build --jobs N`).
//! - [`daemon`] serves `run`/`expand`/`check` requests over HTTP with a
//!   bounded queue, per-request resource limits, and graceful drain
//!   (`lagoon serve`).
//! - [`http`] is the one wire protocol: the HTTP/1.1 parser, writer and
//!   keep-alive client, and the accept and connection loops that the
//!   daemon and the gateway both run.
//! - [`cli`] is the one parser every `lagoon` subcommand reads its
//!   arguments through.
//! - [`client`] adds retry with jittered backoff to the HTTP client
//!   (`lagoon remote`, against a daemon or a gateway).

#![warn(missing_docs)]
// panic-free core: unwrap/expect in non-test code must be justified
// with an explicit #[allow] (CI promotes these to errors)
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod build;
pub mod cli;
pub mod client;
pub mod daemon;
pub mod http;

/// The JSON value, which moved to [`lagoon_diag::json`]; re-exported
/// under its old path for the benchmark, which still imports it here.
pub use lagoon_diag::json;

pub use build::{build, build_from_map, dir_source, BuildOptions, BuildReport, ModuleStatus};
pub use daemon::{ServeOptions, Server};
pub use http::install_sigterm_handler;
