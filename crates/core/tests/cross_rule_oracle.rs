//! Cross-rule differential oracle: every (family × rule ×
//! delta-interleaving) cell against the from-scratch references.
//!
//! Two layers, both parameterized over the full grid
//! `{tree, line} × {unit, narrow, capacitated}`:
//!
//! 1. **Static cells** — [`run_two_phase`] vs [`run_two_phase_reference`]
//!    on workloads shaped for the rule (unit heights, all-narrow
//!    bimodal, mixed bimodal), demanding byte-identical λ (`to_bits`),
//!    selections, stats, stack, and raise traces. The capacitated cell
//!    is the wide unit-rule run plus the narrow rule run over the
//!    height-class split, each pinned separately. Every run is pinned
//!    twice: at the theorem's `ξ`, and at the one-stage schedule the
//!    Panconesi–Sozio baseline runs (`ε = ξ = 1 - 1/5.1`).
//! 2. **Dynamic cells** — random arrival/departure/resolve scripts
//!    through [`DeltaEngine`] (unit and capacitated modes, tree and
//!    line families) against [`DeltaEngine::reference_solve`], bitwise
//!    at every resolve point.
//!
//! Failing scripts shrink through the shared [`common::ddmin`]; the
//! shrinker is rule-agnostic because the ops carry their height
//! selector, so the same reduction loop minimizes a failure from any
//! cell.

mod common;

use common::ddmin;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use treenet_core::{
    narrow_xi, run_two_phase, run_two_phase_reference, unit_xi, DeltaEngine, FrameworkConfig,
    RaiseRule, SolverConfig,
};
use treenet_decomp::{LayeredDecomposition, Strategy};
use treenet_graph::{Tree, VertexId};
use treenet_mis::MisBackend;
use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
use treenet_model::{
    Demand, DemandId, HeightClass, InstanceId, NetworkId, Problem, ProblemBuilder, ProblemDelta,
};

const VERTICES: usize = 16;
const HMIN: f64 = 0.25;
/// `ε = ξ` of the one-stage schedule: a single stage per epoch at
/// threshold `1/5.1`, the Panconesi–Sozio drop-out at `ε = 0.1`.
const ONE_STAGE: f64 = 1.0 - 1.0 / 5.1;

/// One axis of the grid: which network family the cell runs on.
#[derive(Copy, Clone, Debug, PartialEq)]
enum Family {
    Tree,
    Line,
}

/// The other axis: which raise rule (and engine mode) the cell pins.
/// `Narrow` is the capacitated machinery with every demand narrow, so
/// the wide side stays empty; `Capacitated` mixes both classes.
#[derive(Copy, Clone, Debug, PartialEq)]
enum RuleCell {
    Unit,
    Narrow,
    Capacitated,
}

const FAMILIES: [Family; 2] = [Family::Tree, Family::Line];
const RULES: [RuleCell; 3] = [RuleCell::Unit, RuleCell::Narrow, RuleCell::Capacitated];

fn height_mode(rule: RuleCell) -> HeightMode {
    match rule {
        RuleCell::Unit => HeightMode::Unit,
        RuleCell::Narrow => HeightMode::Bimodal {
            narrow_frac: 1.0,
            hmin: HMIN,
        },
        RuleCell::Capacitated => HeightMode::Bimodal {
            narrow_frac: 0.5,
            hmin: HMIN,
        },
    }
}

// ---------------------------------------------------------------------
// Static cells: run_two_phase vs run_two_phase_reference per rule.
// ---------------------------------------------------------------------

fn static_problem(family: Family, rule: RuleCell, seed: u64) -> Problem {
    let mut rng = SmallRng::seed_from_u64(seed);
    match family {
        Family::Tree => TreeWorkload::new(14, 12)
            .with_networks(2)
            .with_profit_ratio(6.0)
            .with_heights(height_mode(rule))
            .generate(&mut rng),
        Family::Line => LineWorkload::new(24, 10)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(1, 6)
            .with_heights(height_mode(rule))
            .generate(&mut rng),
    }
}

/// Runs one (rule, participant-set) pair through the incremental engine
/// and the preserved from-scratch reference at stage schedule
/// `(ε, ξ)`, asserting byte identity of every observable: solution,
/// stats, stack, trace (δ by `to_bits`), and λ.
fn compare_run(
    problem: &Problem,
    layers: &LayeredDecomposition,
    rule: RaiseRule,
    (epsilon, xi): (f64, f64),
    participants: &[InstanceId],
    backend: MisBackend,
    seed: u64,
) -> Result<(), TestCaseError> {
    let config = FrameworkConfig {
        seed,
        record_trace: true,
        mis_backend: backend,
        epsilon,
        xi,
        ..FrameworkConfig::default()
    };
    let fast = run_two_phase(problem, layers, rule, &config, participants).unwrap();
    let oracle = run_two_phase_reference(problem, layers, rule, &config, participants).unwrap();
    prop_assert_eq!(&fast.solution, &oracle.solution);
    prop_assert_eq!(&fast.stats, &oracle.stats);
    prop_assert_eq!(&fast.stack, &oracle.stack);
    prop_assert_eq!(fast.lambda.to_bits(), oracle.lambda.to_bits());
    let fast_trace = fast.trace.as_deref().unwrap_or(&[]);
    let oracle_trace = oracle.trace.as_deref().unwrap_or(&[]);
    prop_assert_eq!(fast_trace.len(), oracle_trace.len());
    for (a, b) in fast_trace.iter().zip(oracle_trace.iter()) {
        prop_assert_eq!(a.instance, b.instance);
        prop_assert_eq!(a.at, b.at);
        prop_assert_eq!(
            a.delta.to_bits(),
            b.delta.to_bits(),
            "raise δ diverged at {:?}",
            a.at
        );
    }
    Ok(())
}

/// One static grid cell. The capacitated cell splits participants by
/// height class and pins the wide (unit-rule) and narrow (narrow-rule)
/// runs separately — exactly the two runs the combined solvers and the
/// capacitated `DeltaEngine` compose. Each run is pinned at the
/// theorem's `ξ` (with the default `ε`) and at the one-stage schedule.
fn check_static_cell(
    family: Family,
    rule: RuleCell,
    seed: u64,
    backend: MisBackend,
) -> Result<(), TestCaseError> {
    let problem = static_problem(family, rule, seed);
    let layers = match family {
        Family::Tree => LayeredDecomposition::for_trees(&problem, Strategy::Ideal),
        Family::Line => LayeredDecomposition::for_lines(&problem),
    };
    let all: Vec<InstanceId> = problem.instances().map(|d| d.id).collect();
    let unit = (RaiseRule::Unit, unit_xi(layers.delta()));
    let narrow = (RaiseRule::Narrow, narrow_xi(layers.delta(), HMIN));
    let runs = match rule {
        RuleCell::Unit => vec![(unit, all)],
        RuleCell::Narrow => vec![(narrow, all)],
        RuleCell::Capacitated => {
            let (wide_ids, narrow_ids) =
                HeightClass::split(&problem, problem.instances().map(|inst| inst.id));
            vec![(unit, wide_ids), (narrow, narrow_ids)]
        }
    };
    let epsilon = FrameworkConfig::default().epsilon;
    for ((raise, xi), participants) in &runs {
        for schedule in [(epsilon, *xi), (ONE_STAGE, ONE_STAGE)] {
            compare_run(
                &problem,
                &layers,
                *raise,
                schedule,
                participants,
                backend,
                seed,
            )?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Dynamic cells: DeltaEngine scripts vs reference_solve per cell.
// ---------------------------------------------------------------------

/// One replayable script op, shared by every cell. `hsel` indexes a
/// rule-dependent height palette so the *same* script replays in any
/// cell; departures name the n-th live demand so any subsequence is a
/// valid script — the property the shared ddmin needs.
#[derive(Clone, Debug, PartialEq)]
enum Op {
    Arrive {
        u: u32,
        v: u32,
        profit: f64,
        nets: u8,
        hsel: u8,
    },
    Depart {
        nth: u32,
    },
    Resolve,
}

/// Height palette per rule cell. Every value respects the engine floor
/// (`HMIN`) and the narrow cell stays ≤ 1/2 so its wide side is empty.
fn height_of(rule: RuleCell, hsel: u8) -> f64 {
    match rule {
        RuleCell::Unit => 1.0,
        RuleCell::Narrow => [0.25, 0.3, 0.4, 0.5][hsel as usize % 4],
        RuleCell::Capacitated => [1.0, 0.8, 0.6, 0.5, 0.3, 0.25][hsel as usize % 6],
    }
}

fn access_of(nets: u8) -> Vec<NetworkId> {
    match nets {
        1 => vec![NetworkId(0)],
        2 => vec![NetworkId(1)],
        _ => vec![NetworkId(0), NetworkId(1)],
    }
}

/// Seed problem for a dynamic cell. Trees come from the workload
/// generator; lines are hand-built on two line networks with a length-1
/// seed demand, pinning `Lmin = 1` so every scripted pair arrival is
/// admissible regardless of span.
fn dynamic_seed_problem(family: Family, rule: RuleCell, seed: u64) -> Problem {
    match family {
        Family::Tree => TreeWorkload::new(VERTICES, 8)
            .with_networks(2)
            .with_heights(height_mode(rule))
            .generate(&mut SmallRng::seed_from_u64(seed)),
        Family::Line => {
            let mut b = ProblemBuilder::new();
            let t0 = b.add_network(Tree::line(VERTICES)).unwrap();
            let t1 = b.add_network(Tree::line(VERTICES)).unwrap();
            let h = |sel| height_of(rule, sel);
            b.add_demand(
                Demand::pair(VertexId(0), VertexId(1), 2.0).with_height(h(3)),
                &[t0, t1],
            )
            .unwrap();
            b.add_demand(
                Demand::pair(VertexId(5), VertexId(9), 3.0).with_height(h(1)),
                &[t0],
            )
            .unwrap();
            b.add_demand(
                Demand::pair(VertexId(8), VertexId(14), 1.5).with_height(h(4)),
                &[t1],
            )
            .unwrap();
            b.build().unwrap()
        }
    }
}

fn engine_config(rule: RuleCell) -> SolverConfig {
    match rule {
        RuleCell::Unit => SolverConfig::default(),
        RuleCell::Narrow | RuleCell::Capacitated => SolverConfig::default().with_hmin(HMIN),
    }
}

fn random_script(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc0552e);
    let mut script = Vec::with_capacity(len + 1);
    for _ in 0..len {
        let op = match rng.gen_range(0..10u32) {
            0..=4 => {
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
                    hsel: rng.gen_range(0..12u8),
                }
            }
            5..=7 => Op::Depart {
                nth: rng.gen_range(0..64u32),
            },
            _ => Op::Resolve,
        };
        script.push(op);
    }
    // Always end on a resolve so every script checks the final state.
    script.push(Op::Resolve);
    script
}

/// Replays a script in one (family, rule) cell; returns a divergence
/// message, or `None` when the warm engine tracked the reference
/// bitwise through every resolve point.
fn diverges(family: Family, rule: RuleCell, seed: u64, script: &[Op]) -> Option<String> {
    let problem = dynamic_seed_problem(family, rule, seed);
    let mut engine = match DeltaEngine::new(problem, &engine_config(rule)) {
        Ok(engine) => engine,
        Err(e) => return Some(format!("engine construction failed: {e}")),
    };
    for (i, op) in script.iter().enumerate() {
        match op {
            Op::Arrive {
                u,
                v,
                profit,
                nets,
                hsel,
            } => {
                let demand = Demand::pair(VertexId(*u), VertexId(*v), *profit)
                    .with_height(height_of(rule, *hsel));
                let delta = ProblemDelta::Arrival {
                    demand,
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
            }
            Op::Resolve => {
                let warm = match engine.resolve() {
                    Ok(out) => out,
                    Err(e) => return Some(format!("op {i}: warm resolve failed: {e}")),
                };
                let reference = match engine.reference_solve() {
                    Ok(out) => out,
                    Err(e) => return Some(format!("op {i}: reference solve failed: {e}")),
                };
                if warm.lambda.to_bits() != reference.lambda.to_bits() {
                    return Some(format!(
                        "op {i}: λ diverged: warm {} vs reference {}",
                        warm.lambda, reference.lambda
                    ));
                }
                let solution = engine.solution();
                if warm.selected != solution.len() {
                    return Some(format!(
                        "op {i}: resolve reported {} selected, the schedule holds {}",
                        warm.selected,
                        solution.len()
                    ));
                }
                if solution.selected() != reference.solution.selected() {
                    return Some(format!(
                        "op {i}: schedules diverged: warm {:?} vs reference {:?}",
                        solution.selected(),
                        reference.solution.selected()
                    ));
                }
                if solution.verify(engine.problem()).is_err() {
                    return Some(format!("op {i}: warm solution infeasible"));
                }
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Static grid: all six (family × rule) cells must be byte-identical
    /// to the from-scratch reference — λ, selections, stats, stack, and
    /// raise traces.
    #[test]
    fn static_cells_match_reference(seed in 0u64..200) {
        let backend = if seed % 2 == 0 {
            MisBackend::Luby
        } else {
            MisBackend::DeterministicGreedy
        };
        for family in FAMILIES {
            for rule in RULES {
                check_static_cell(family, rule, seed, backend)?;
            }
        }
    }

    /// Dynamic grid: one random delta script replayed in every cell;
    /// the warm engine must track `reference_solve` bitwise at each
    /// resolve. A divergence is ddmin-minimized inside the failing cell
    /// before it is reported.
    #[test]
    fn dynamic_cells_match_reference(seed in 0u64..120) {
        let script = random_script(seed, 24);
        for family in FAMILIES {
            for rule in RULES {
                if let Some(msg) = diverges(family, rule, seed, &script) {
                    let minimal =
                        ddmin(&script, |s| diverges(family, rule, seed, s).is_some());
                    let final_msg =
                        diverges(family, rule, seed, &minimal).unwrap_or_default();
                    prop_assert!(
                        false,
                        "cell ({:?}, {:?}) seed {}: {}\nminimal script ({} of {} ops): \
                         {:?}\nminimal failure: {}",
                        family, rule, seed, msg, minimal.len(), script.len(), minimal,
                        final_msg
                    );
                }
            }
        }
    }
}

/// The shared shrinker reduces a cross-rule failure no matter which cell
/// it came from: a synthetic "narrow arrival followed by a resolve"
/// predicate minimizes to exactly those two ops.
#[test]
fn ddmin_shrinks_across_rule_variants() {
    let script = random_script(11, 40);
    let fails = |s: &[Op]| {
        let narrow_arrival = s.iter().position(
            |op| matches!(op, Op::Arrive { hsel, .. } if height_of(RuleCell::Capacitated, *hsel) <= 0.5),
        );
        let resolve = s.iter().rposition(|op| matches!(op, Op::Resolve));
        matches!((narrow_arrival, resolve), (Some(a), Some(r)) if a < r)
    };
    assert!(fails(&script), "the 40-op script contains both op kinds");
    let minimal = ddmin(&script, fails);
    assert_eq!(minimal.len(), 2, "minimal: {minimal:?}");
    assert!(matches!(minimal[0], Op::Arrive { .. }));
    assert!(matches!(minimal[1], Op::Resolve));
}

/// Narrow-cell scripts keep the wide class empty: the engine must agree
/// with the reference even when every cached component has a neutral
/// wide slot.
#[test]
fn narrow_cell_keeps_wide_side_neutral() {
    let script = vec![
        Op::Arrive {
            u: 1,
            v: 6,
            profit: 4.0,
            nets: 3,
            hsel: 0,
        },
        Op::Resolve,
        Op::Depart { nth: 0 },
        Op::Resolve,
    ];
    for family in FAMILIES {
        assert_eq!(diverges(family, RuleCell::Narrow, 77, &script), None);
    }
}
