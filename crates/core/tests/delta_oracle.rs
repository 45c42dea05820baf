//! The online [`DeltaEngine`] against the from-scratch oracle, under
//! random arrival/departure interleavings.
//!
//! Every script mixes valid deltas with deliberately invalid ones
//! (withdraw-before-admit, double-withdraw) and interleaved resolve
//! points; at each resolve the warm engine's λ must equal the reference
//! solve **bitwise** and the schedules must be identical. The vendored
//! proptest has no shrinking, so a divergence is minimized by the
//! shared [`common::ddmin`] over the delta script before it is
//! reported — the same idiom as the netsim drop-set shrinker.

mod common;

use common::ddmin;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use treenet_core::{DeltaEngine, DeltaEngineError, SolverConfig};
use treenet_graph::VertexId;
use treenet_model::workload::TreeWorkload;
use treenet_model::{Demand, DemandId, ModelError, NetworkId, Problem, ProblemDelta};

const VERTICES: usize = 16;
const NETWORKS: u32 = 2;

/// One replayable script operation. Ops are self-contained relative to
/// the evolving engine state (a departure names the *n-th live* demand,
/// not a raw id), so any subsequence of a script is itself a valid
/// script — the property ddmin needs.
#[derive(Clone, Debug, PartialEq)]
enum Op {
    /// Admit a pair demand between two vertices with a network subset
    /// encoded as `1 = {T0}, 2 = {T1}, 3 = {T0, T1}`.
    Arrive {
        u: u32,
        v: u32,
        profit: f64,
        nets: u8,
    },
    /// Withdraw the `nth` live demand (mod the live count); skipped when
    /// nothing is live.
    Depart { nth: u32 },
    /// Withdraw a demand id that was never admitted — must error with
    /// `UnknownDemand` and change nothing.
    DepartUnknown,
    /// Withdraw the most recently departed demand again — must error
    /// with `AlreadyDeparted` and change nothing.
    DepartTwice,
    /// Warm-resolve and compare against the from-scratch reference.
    Resolve,
}

fn seed_problem(seed: u64) -> Problem {
    TreeWorkload::new(VERTICES, 10)
        .with_networks(NETWORKS as usize)
        .generate(&mut SmallRng::seed_from_u64(seed))
}

fn random_script(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xde17a);
    let mut script = Vec::with_capacity(len);
    for _ in 0..len {
        let op = match rng.gen_range(0..10u32) {
            0..=3 => {
                let u = rng.gen_range(0..VERTICES as u32);
                let mut v = rng.gen_range(0..VERTICES as u32);
                if v == u {
                    v = (v + 1) % VERTICES as u32;
                }
                Op::Arrive {
                    u,
                    v,
                    profit: 1.0 + rng.gen_range(0..12u32) as f64 / 3.0,
                    nets: rng.gen_range(1..=3u8),
                }
            }
            4..=6 => Op::Depart {
                nth: rng.gen_range(0..64u32),
            },
            7 => Op::DepartUnknown,
            8 => Op::DepartTwice,
            _ => Op::Resolve,
        };
        script.push(op);
    }
    // Always end on a resolve so every script checks the final state.
    script.push(Op::Resolve);
    script
}

fn access_of(nets: u8) -> Vec<NetworkId> {
    match nets {
        1 => vec![NetworkId(0)],
        2 => vec![NetworkId(1)],
        _ => vec![NetworkId(0), NetworkId(1)],
    }
}

/// Replays a script; returns a human-readable divergence (engine vs
/// reference mismatch, or an invariant violation) or `None` when the
/// engine tracked the oracle through the whole script.
fn diverges(seed: u64, script: &[Op]) -> Option<String> {
    let mut engine = match DeltaEngine::new(seed_problem(seed), &SolverConfig::default()) {
        Ok(engine) => engine,
        Err(e) => return Some(format!("engine construction failed: {e}")),
    };
    let mut last_departed: Option<DemandId> = None;
    for (i, op) in script.iter().enumerate() {
        match op {
            Op::Arrive { u, v, profit, nets } => {
                let delta = ProblemDelta::Arrival {
                    demand: Demand::pair(VertexId(*u), VertexId(*v), *profit),
                    access: access_of(*nets),
                };
                if let Err(e) = engine.apply(delta) {
                    return Some(format!("op {i}: valid arrival rejected: {e}"));
                }
            }
            Op::Depart { nth } => {
                let live: Vec<DemandId> = engine.problem().live_demands().collect();
                if live.is_empty() {
                    continue;
                }
                let target = live[*nth as usize % live.len()];
                if let Err(e) = engine.apply(ProblemDelta::Departure { demand: target }) {
                    return Some(format!("op {i}: valid departure rejected: {e}"));
                }
                last_departed = Some(target);
            }
            Op::DepartUnknown => {
                let bogus = DemandId(engine.problem().demand_count() as u32 + 7);
                match engine.apply(ProblemDelta::Departure { demand: bogus }) {
                    Err(DeltaEngineError::Model(ModelError::UnknownDemand { .. })) => {}
                    other => {
                        return Some(format!(
                            "op {i}: withdraw-before-admit produced {other:?} instead of \
                             UnknownDemand"
                        ))
                    }
                }
            }
            Op::DepartTwice => {
                let Some(target) = last_departed else {
                    continue;
                };
                match engine.apply(ProblemDelta::Departure { demand: target }) {
                    Err(DeltaEngineError::Model(ModelError::AlreadyDeparted { .. })) => {}
                    other => {
                        return Some(format!(
                            "op {i}: double withdraw produced {other:?} instead of \
                             AlreadyDeparted"
                        ))
                    }
                }
            }
            Op::Resolve => {
                let warm = match engine.resolve() {
                    Ok(out) => out,
                    Err(e) => return Some(format!("op {i}: warm resolve failed: {e}")),
                };
                let reference = match engine.reference_solve() {
                    Ok(out) => out,
                    Err(e) => return Some(format!("op {i}: reference resolve failed: {e}")),
                };
                if warm.lambda.to_bits() != reference.lambda.to_bits() {
                    return Some(format!(
                        "op {i}: λ diverged: warm {} vs reference {}",
                        warm.lambda, reference.lambda
                    ));
                }
                if warm.solution.selected() != reference.solution.selected() {
                    return Some(format!(
                        "op {i}: schedules diverged: warm {:?} vs reference {:?}",
                        warm.solution.selected(),
                        reference.solution.selected()
                    ));
                }
                if warm.solution.verify(engine.problem()).is_err() {
                    return Some(format!("op {i}: warm solution infeasible"));
                }
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random delta interleavings: the warm engine must track the
    /// from-scratch oracle bit-for-bit at every resolve point. On
    /// divergence, the failing script is ddmin-minimized first so the
    /// report names the smallest reproducing delta sequence.
    #[test]
    fn delta_scripts_match_reference(seed in 0u64..200) {
        let script = random_script(seed, 28);
        if let Some(msg) = diverges(seed, &script) {
            let minimal = ddmin(&script, |s| diverges(seed, s).is_some());
            let final_msg = diverges(seed, &minimal).unwrap_or_default();
            prop_assert!(
                false,
                "seed {}: {}\nminimal script ({} of {} ops): {:?}\nminimal failure: {}",
                seed, msg, minimal.len(), script.len(), minimal, final_msg
            );
        }
    }

    /// Scripts that run against an initially *empty-ish* engine (single
    /// demand) grow the problem dominated by online arrivals.
    #[test]
    fn arrival_heavy_scripts_match_reference(seed in 1000u64..1100) {
        let mut script = Vec::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..16 {
            let u = rng.gen_range(0..VERTICES as u32);
            let v = (u + 1 + rng.gen_range(0..8u32)) % VERTICES as u32;
            script.push(Op::Arrive {
                u,
                v,
                profit: 1.0 + rng.gen_range(0..9u32) as f64,
                nets: rng.gen_range(1..=3u8),
            });
            if rng.gen_range(0..3u32) == 0 {
                script.push(Op::Resolve);
            }
        }
        script.push(Op::Resolve);
        if let Some(msg) = diverges(seed, &script) {
            let minimal = ddmin(&script, |s| diverges(seed, s).is_some());
            prop_assert!(false, "seed {}: {}\nminimal: {:?}", seed, msg, minimal);
        }
    }
}

#[test]
fn withdraw_before_admit_and_double_withdraw_error_cleanly() {
    let script = vec![
        Op::DepartUnknown,
        Op::Resolve,
        Op::Depart { nth: 0 },
        Op::DepartTwice,
        Op::Resolve,
        Op::DepartUnknown,
        Op::Resolve,
    ];
    assert_eq!(diverges(42, &script), None);
}

/// The shrinker contracts a long script to exactly the ops a synthetic
/// failure needs: here, "contains an unknown-withdraw after at least one
/// arrival" minimizes to two ops.
#[test]
fn ddmin_minimizes_to_the_relevant_ops() {
    let script = random_script(7, 40);
    let fails = |s: &[Op]| {
        let arrival = s.iter().position(|op| matches!(op, Op::Arrive { .. }));
        let unknown = s.iter().rposition(|op| matches!(op, Op::DepartUnknown));
        matches!((arrival, unknown), (Some(a), Some(u)) if a < u)
    };
    assert!(fails(&script), "the 40-op script contains both op kinds");
    let minimal = ddmin(&script, fails);
    assert_eq!(minimal.len(), 2, "minimal: {minimal:?}");
    assert!(matches!(minimal[0], Op::Arrive { .. }));
    assert!(matches!(minimal[1], Op::DepartUnknown));
}

/// ddmin on an always-failing predicate terminates at a single op.
#[test]
fn ddmin_handles_degenerate_predicates() {
    let script = random_script(9, 10);
    let minimal = ddmin(&script, |s| !s.is_empty());
    assert_eq!(minimal.len(), 1);
}
