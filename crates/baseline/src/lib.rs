//! Baselines the paper compares against, plus exact reference solvers.
//!
//! * [`ps_line_unit`] — the Panconesi–Sozio distributed algorithm for the
//!   unit height case of line-networks ([15, 16] in the paper): the same
//!   two-phase framework and `Δ = 3` length-class grouping, but a *single
//!   stage per epoch* in which any instance that becomes
//!   `1/(5+ε)`-satisfied is dropped for the rest of the first phase.
//!   That yields slackness `λ = 1/(5+ε)` and the `(20+ε)` ratio the paper
//!   improves to `(4+ε)`. PS is `treenet_core::run_two_phase` at a
//!   one-stage schedule ([`PsConfig::framework_config`]).
//! * [`ps_line_arbitrary`] — a PS-style wide/narrow extension (their
//!   `(55+ε)` algorithm; we reproduce the *structure* — single-stage
//!   drop-out — and report measured certified ratios, since \[16\] is not
//!   reproduced verbatim here).
//! * [`barnoy_line_unit`] / [`barnoy_line_arbitrary`] — the *sequential*
//!   state of the art the paper cites (\[4, 5\]): 2- and 5-approximations
//!   for line-networks with windows, via end-time ordering (`Δ = 1`),
//!   raising through the framework's `RaiseRule::raise` and returning
//!   core's `SequentialOutcome`.
//! * [`exact_max_profit`] — branch-and-bound exact optimum for small
//!   instances (certifies the approximation ratios end-to-end).
//! * [`weighted_interval_dp`] — `O(k log k)` exact optimum for the
//!   special case of one line resource, unit heights, fixed intervals.
//! * [`greedy_profit`] — the profit-greedy heuristic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod barnoy;
mod exact;
mod greedy;
mod ps;

pub use barnoy::{barnoy_line_arbitrary, barnoy_line_unit};
pub use exact::{exact_max_profit, weighted_interval_dp, ExactError};
pub use greedy::{greedy_profit, GreedyOrder};
pub use ps::{ps_line_arbitrary, ps_line_unit, PsConfig};
