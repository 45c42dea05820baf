//! `treenet-serve` — an online scheduling service over the warm-started
//! [`DeltaEngine`](treenet_core::DeltaEngine).
//!
//! The service speaks a **line-delimited JSON** admission protocol: one
//! request object per line in, one response object per line out, over
//! stdin/stdout or a TCP socket (the `treenet-serve` binary runs it). Clients
//! submit and withdraw demands under their own `u64` ids; the server maps
//! them onto the engine's dense internal ids, invalidates only the
//! conflict component a delta touches, and re-solves warm.
//!
//! # Protocol
//!
//! | op | request fields | response (beyond `ok`, `op`) |
//! |---|---|---|
//! | `submit` | `id`, `u`, `v` *or* `release`/`deadline`/`processing`, `profit`, optional `networks` | `instances` admitted |
//! | `withdraw` | `id` | `id` echoed |
//! | `resolve` | — | `lambda`, `selected`, `components_resolved`, `instances_resolved`, `live_instances` |
//! | `query` | — | `lambda` plus the full schedule (client ids) |
//! | `check` | — | `identical` — warm vs from-scratch oracle, bitwise |
//! | `snapshot` | — | every demand with its live flag |
//! | `stats` | — | lifetime engine and server counters |
//! | `drain` | — | final `lambda`/`selected`; the connection then closes |
//!
//! Every error — malformed JSON, duplicate id, withdraw-before-admit,
//! double withdraw, non-unit height — is an in-band
//! `{"ok":false,"op":…,"error":…}` response; the server never tears down
//! a connection on bad input.
//!
//! # Examples
//!
//! Submitting a demand and resolving (the exact wire format):
//!
//! ```
//! use treenet_core::SolverConfig;
//! use treenet_graph::Tree;
//! use treenet_model::ProblemBuilder;
//! use treenet_serve::Server;
//!
//! let mut b = ProblemBuilder::new();
//! b.add_network(Tree::line(8)).unwrap();
//! let mut server = Server::new(b.build().unwrap(), &SolverConfig::default()).unwrap();
//!
//! let resp = server.handle_line(r#"{"op":"submit","id":7,"u":1,"v":5,"profit":2.5}"#);
//! assert_eq!(resp, r#"{"ok":true,"op":"submit","id":7,"instances":1}"#);
//!
//! let resp = server.handle_line(r#"{"op":"resolve"}"#);
//! assert!(resp.starts_with(r#"{"ok":true,"op":"resolve","lambda":"#));
//! ```
//!
//! Withdraw-before-admit and duplicate ids come back as in-band errors:
//!
//! ```
//! # use treenet_core::SolverConfig;
//! # use treenet_graph::Tree;
//! # use treenet_model::ProblemBuilder;
//! # use treenet_serve::Server;
//! # let mut b = ProblemBuilder::new();
//! # b.add_network(Tree::line(8)).unwrap();
//! # let mut server = Server::new(b.build().unwrap(), &SolverConfig::default()).unwrap();
//! let resp = server.handle_line(r#"{"op":"withdraw","id":99}"#);
//! assert_eq!(
//!     resp,
//!     r#"{"ok":false,"op":"withdraw","error":"demand id 99 was never admitted"}"#
//! );
//!
//! server.handle_line(r#"{"op":"submit","id":1,"u":0,"v":3,"profit":1.0}"#);
//! let resp = server.handle_line(r#"{"op":"submit","id":1,"u":2,"v":4,"profit":1.0}"#);
//! assert_eq!(
//!     resp,
//!     r#"{"ok":false,"op":"submit","error":"demand id 1 already admitted"}"#
//! );
//! ```
//!
//! The `check` op runs the from-scratch oracle in-process and reports
//! whether the warm state matches it bit-for-bit — the invariant CI's
//! serve smoke greps for:
//!
//! ```
//! # use treenet_core::SolverConfig;
//! # use treenet_graph::Tree;
//! # use treenet_model::ProblemBuilder;
//! # use treenet_serve::Server;
//! # let mut b = ProblemBuilder::new();
//! # b.add_network(Tree::line(8)).unwrap();
//! # let mut server = Server::new(b.build().unwrap(), &SolverConfig::default()).unwrap();
//! server.handle_line(r#"{"op":"submit","id":1,"u":0,"v":4,"profit":2.0}"#);
//! server.handle_line(r#"{"op":"submit","id":2,"u":3,"v":7,"profit":1.0}"#);
//! let resp = server.handle_line(r#"{"op":"check"}"#);
//! assert!(resp.contains(r#""identical":true"#));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generator;
mod protocol;
mod server;

pub use generator::OpenLoop;
pub use protocol::{Request, Shape};
pub use server::Server;
