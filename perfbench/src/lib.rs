//! Seeded benchmark of the treenet schedulers.
//!
//! Three workloads, each one caller in a closed loop inside its own
//! single-threaded process:
//!
//! * `serve-churn` — the online service: pre-rendered NDJSON requests into
//!   [`treenet_serve::Server::handle_line`];
//! * `solve-flat` — the central solver: [`treenet_core::solve_auto`] over a
//!   pool of dense flat tree problems;
//! * `dist-lossy` — the message-passing runner:
//!   [`treenet_dist::run_distributed_auto`] over lossy links.
//!
//! An untraced run calls only those entry points and reports the
//! end-to-end metrics. A traced run replays the same seeded ops through
//! the public functions beneath them, records a span around each call,
//! and reports per-layer self times and counts (see `README.md`).

pub mod cli;
pub mod procfs;
pub mod report;
pub mod trace;
pub mod workloads;
