//! The paper's primary contribution: primal-dual schedulers for the
//! throughput maximization problem on line and tree networks.
//!
//! Contents, mapped to the paper:
//!
//! | Module / item | Paper section |
//! |---|---|
//! | [`DualState`], [`DualForm`] | 3.1, 6.1 (LP duals) |
//! | [`run_two_phase`], [`RaiseRule`], [`FrameworkConfig`] | 3.2 framework + Section 5 epochs/stages/steps (Figure 7) |
//! | [`check_interference`] | the interference property of Section 3.2 |
//! | [`solve`] with [`AutoChoice::TreeUnit`] | Theorem 5.3 — `(7+ε)`-approximation |
//! | [`solve`] with [`AutoChoice::TreeArbitrary`] | Theorem 6.3 — `(80+ε)`-approximation |
//! | [`solve`] with [`AutoChoice::LineUnit`] | Theorem 7.1 — `(4+ε)`-approximation |
//! | [`solve`] with [`AutoChoice::LineArbitrary`] | Theorem 7.2 — `(23+ε)`-approximation |
//! | [`AutoChoice::layering`], [`AutoChoice::halves`] | a theorem as data: its layered decomposition (Section 4 / 7) and its raise rules and `ξ` |
//! | [`DeltaEngine`] | the same theorems online: warm re-solve of the touched conflict components under arrivals and departures, running [`AutoChoice::halves`] at the a-priori `Δ` bound |
//! | [`solve_sequential_tree`] | Appendix A — 3-approximation (2 for one tree) |
//!
//! The schedulers run the *logical* distributed execution: the exact
//! pseudocode of Figure 7, with Luby-MIS rounds counted faithfully and
//! all randomness drawn from a seeded hash shared with the real
//! message-passing implementation in `treenet-dist` (which provably
//! produces identical results).
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use treenet_model::workload::TreeWorkload;
//! use treenet_core::{solve, AutoChoice, SolverConfig};
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let problem = TreeWorkload::new(32, 30).generate(&mut rng);
//! let outcome = solve(&problem, AutoChoice::TreeUnit, &SolverConfig::default()).unwrap();
//!
//! outcome.solution.verify(&problem).unwrap();
//! // Certified a-posteriori approximation factor (Theorem 5.3 guarantees
//! // at most 7/(1-ε)):
//! assert!(outcome.certified_ratio(&problem) <= 7.0 / 0.9 + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod certificate;
mod delta;
mod dual;
mod framework;
mod sequential;
mod solvers;

pub use certificate::{certified_ratio, Certificate};
pub use delta::{
    DeltaEngine, DeltaEngineError, DeltaEngineStats, ReferenceSolve, ResolveOutcome,
    IDEAL_DELTA_BOUND, LINE_DELTA_BOUND,
};
pub use dual::{DualForm, DualState};
pub use framework::{
    check_interference, echo_sweep_rounds, mis_tag, prologue_rounds, retransmit_round_bound,
    run_two_phase, run_two_phase_reference, stage_threshold, stages_for, step_comm_rounds,
    validate_epsilon, FrameworkConfig, FrameworkError, Outcome, RaiseEvent, RaiseRule, RunStats,
    StackEntry, SATISFACTION_GUARD,
};
pub use sequential::{solve_sequential_tree, SequentialOutcome};
pub use solvers::{
    auto_choice, combine_by_network, combine_decision, narrow_xi, resolve_narrow_hmin, solve,
    solve_auto, unit_xi, AutoChoice, AutoOutcome, AutoRun, CombinedOutcome, Half, SolverConfig,
};
