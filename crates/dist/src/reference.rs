//! The driver-counted reference path — the executable oracle of the
//! in-network runners, mirroring the `run_two_phase_reference` pattern
//! in `treenet-core`.
//!
//! This is the pre-combiner formulation: the driver counts unsatisfied
//! instances between rounds to decide stage/epoch boundaries, the
//! wide/narrow halves of an arbitrary-height run execute as two *serial*
//! engine passes (the off-class half staying silent), and the
//! per-network combination is evaluated by the driver via the logical
//! `combine_by_network`. It exchanges exactly the same data-plane
//! messages as the in-network path, so the two must produce identical
//! solutions, bit-identical λ and identical compute schedules — the
//! property `tests/prop_line_equiv.rs` pins down.

use std::sync::Arc;

use crate::node::{Mode, ProcessorNode, PublicInfo, RunTag, SATISFACTION_GUARD};
use crate::{
    build_engine, descriptor_of, public_info, resolve_hmin, validate, DistCombinedOutcome,
    DistConfig, DistError, DistOutcome, DistRunReport, DistSchedule, StepRecord,
};
use treenet_core::{
    auto_choice, combine_by_network, mis_tag, narrow_xi, stages_for, unit_xi, AutoChoice, RaiseRule,
};
use treenet_decomp::{LayeredDecomposition, Layering};
use treenet_model::{HeightClass, Problem, Solution};

/// Parameters of one serial reference run.
struct RunParams {
    rule: RaiseRule,
    xi: f64,
    num_groups: u32,
    class: Option<HeightClass>,
}

/// Executes one full two-phase message-passing run with the driver
/// counting unsatisfied instances between rounds (the pre-PR control
/// plane). All data still flows through single-hop `O(M)`-bit messages.
fn execute_reference(
    problem: &Problem,
    config: &DistConfig,
    public: &Arc<PublicInfo>,
    params: &RunParams,
) -> Result<DistOutcome, DistError> {
    let stages_per_epoch = stages_for(config.epsilon, params.xi);

    let nodes: Vec<ProcessorNode> = problem
        .demands()
        .map(|a| {
            let participating = params
                .class
                .is_none_or(|c| problem.demand(a).height_class() == c);
            ProcessorNode::new(
                Arc::clone(public),
                descriptor_of(problem, a),
                problem.instances_of(a).to_vec(),
                params.rule,
                RunTag::Primary,
                participating,
            )
        })
        .collect();
    let mut engine = build_engine(nodes, problem, config);

    // Setup round: every participating processor broadcasts its demand
    // descriptor to its communication neighbors (one O(M)-bit message
    // each). This is the single extra engine round on top of the
    // schedule: Metrics::rounds == schedule.total_rounds() + 1.
    engine.step();

    // ---- Phase 1: epochs / stages / steps (Figure 7). ----
    let mut schedule = DistSchedule::default();
    for epoch in 1..=params.num_groups {
        if !engine.nodes().iter().any(|n| n.has_group(epoch)) {
            continue;
        }
        for stage in 1..=stages_per_epoch {
            let threshold = 1.0 - params.xi.powi(stage as i32);
            let mut step_in_stage = 0u64;
            loop {
                let unsatisfied: usize = engine
                    .nodes()
                    .iter()
                    .map(|n| n.count_unsatisfied(epoch, threshold))
                    .sum();
                if unsatisfied == 0 {
                    break;
                }
                if let Some(limit) = config.max_steps_per_stage {
                    if step_in_stage >= limit {
                        return Err(DistError::StageDiverged { epoch, stage });
                    }
                }
                // Step boundary (public schedule): participation announce.
                let namespace = mis_tag(epoch, stage, step_in_stage);
                let global_step = schedule.steps.len() as u32;
                for n in engine.nodes_mut() {
                    n.begin_step(epoch, namespace, threshold, global_step);
                }
                engine.step();
                // Luby iterations: two rounds each, until quiescent.
                let mut luby_rounds = 0u64;
                let budget = unsatisfied as u64 + 4;
                loop {
                    for n in engine.nodes_mut() {
                        n.mode = Mode::LubyEval;
                    }
                    engine.step();
                    for n in engine.nodes_mut() {
                        n.mode = Mode::LubyCleanup;
                    }
                    engine.step();
                    luby_rounds += 1;
                    if !engine.nodes().iter().any(|n| n.has_active()) {
                        break;
                    }
                    if luby_rounds >= budget {
                        // Every shipped backend removes at least one vertex
                        // per iteration, so only a broken backend lands
                        // here. Abort hard: a schedule built from a
                        // truncated phase 1 must never reach phase 2.
                        return Err(DistError::MisBudgetExhausted {
                            epoch,
                            stage,
                            step: step_in_stage,
                        });
                    }
                }
                schedule.steps.push(StepRecord {
                    epoch,
                    stage,
                    step: step_in_stage,
                    luby_rounds,
                });
                step_in_stage += 1;
            }
        }
    }

    // ---- Phase 2: pop the framework stack, one round per entry. ----
    schedule.pops = schedule.steps.len() as u64;
    for step in (0..schedule.steps.len() as u32).rev() {
        for n in engine.nodes_mut() {
            n.mode = Mode::Pop(step);
        }
        engine.step();
    }

    // ---- Collect results (instance-id order mirrors the logical run).
    let mut selected = Vec::new();
    for node in engine.nodes() {
        selected.extend_from_slice(node.selected());
    }
    let solution = Solution::new(selected);

    let mut lambda = 1.0f64;
    let mut final_unsatisfied = false;
    for a in problem.demands() {
        let node = &engine.nodes()[a.index()];
        if !node.is_participating() {
            continue;
        }
        for local in 0..problem.instances_of(a).len() {
            let satisfaction = node.satisfaction(local);
            lambda = lambda.min(satisfaction);
            if satisfaction < 1.0 - config.epsilon - SATISFACTION_GUARD {
                final_unsatisfied = true;
            }
        }
    }

    Ok(DistOutcome {
        solution,
        lambda,
        final_unsatisfied,
        metrics: engine.metrics(),
        schedule,
    })
}

/// The serial wide/narrow split: two engine passes, then the logical
/// `combine_by_network` evaluated by the driver (the oracle of the
/// in-network convergecast combiner).
fn run_split_reference(
    problem: &Problem,
    config: &DistConfig,
    public: &Arc<PublicInfo>,
    layers: &LayeredDecomposition,
) -> Result<DistCombinedOutcome, DistError> {
    let delta = layers.delta();
    let num_groups = layers.num_groups() as u32;
    let wide = execute_reference(
        problem,
        config,
        public,
        &RunParams {
            rule: RaiseRule::Unit,
            xi: unit_xi(delta),
            num_groups,
            class: Some(HeightClass::Wide),
        },
    )?;
    let hmin = resolve_hmin(problem, config)?;
    let narrow = execute_reference(
        problem,
        config,
        public,
        &RunParams {
            rule: RaiseRule::Narrow,
            xi: narrow_xi(delta, hmin),
            num_groups,
            class: Some(HeightClass::Narrow),
        },
    )?;
    let solution = combine_by_network(problem, &wide.solution, &narrow.solution);
    let metrics = wide.metrics.merged(narrow.metrics);
    Ok(DistCombinedOutcome {
        solution,
        wide: DistRunReport {
            solution: wide.solution,
            lambda: wide.lambda,
            final_unsatisfied: wide.final_unsatisfied,
            schedule: wide.schedule,
        },
        narrow: DistRunReport {
            solution: narrow.solution,
            lambda: narrow.lambda,
            final_unsatisfied: narrow.final_unsatisfied,
            schedule: narrow.schedule,
        },
        metrics,
    })
}

fn run_solo_reference(
    problem: &Problem,
    config: &DistConfig,
    public: &Arc<PublicInfo>,
    layers: &LayeredDecomposition,
) -> Result<DistOutcome, DistError> {
    execute_reference(
        problem,
        config,
        public,
        &RunParams {
            rule: RaiseRule::Unit,
            xi: unit_xi(layers.delta()),
            num_groups: layers.num_groups() as u32,
            class: None,
        },
    )
}

/// The driver-counted oracle of [`crate::run_distributed_tree_unit`]:
/// identical solutions, bit-identical λ, identical compute schedule —
/// but stage/epoch boundaries decided by the driver (no sweeps), so
/// `Metrics::rounds == schedule.total_rounds() + 1`.
///
/// # Errors
///
/// Same contract as [`crate::run_distributed_tree_unit`].
pub fn run_distributed_tree_unit_reference(
    problem: &Problem,
    config: &DistConfig,
) -> Result<DistOutcome, DistError> {
    validate(config)?;
    let (public, layers) = public_info(
        problem,
        config,
        Layering::for_trees(problem, config.strategy),
    );
    run_solo_reference(problem, config, &public, &layers)
}

/// The driver-counted oracle of [`crate::run_distributed_line_unit`].
///
/// # Errors
///
/// Same contract as [`crate::run_distributed_line_unit`].
///
/// # Panics
///
/// Panics if some network is not a canonical line.
pub fn run_distributed_line_unit_reference(
    problem: &Problem,
    config: &DistConfig,
) -> Result<DistOutcome, DistError> {
    validate(config)?;
    let (public, layers) = public_info(problem, config, Layering::for_lines(problem));
    run_solo_reference(problem, config, &public, &layers)
}

/// The driver-counted, serial oracle of
/// [`crate::run_distributed_tree_arbitrary`]: two engine passes plus the
/// driver-evaluated combiner.
///
/// # Errors
///
/// Same contract as [`crate::run_distributed_tree_arbitrary`].
pub fn run_distributed_tree_arbitrary_reference(
    problem: &Problem,
    config: &DistConfig,
) -> Result<DistCombinedOutcome, DistError> {
    validate(config)?;
    let (public, layers) = public_info(
        problem,
        config,
        Layering::for_trees(problem, config.strategy),
    );
    run_split_reference(problem, config, &public, &layers)
}

/// The driver-counted, serial oracle of
/// [`crate::run_distributed_line_arbitrary`].
///
/// # Errors
///
/// Same contract as [`crate::run_distributed_line_arbitrary`].
///
/// # Panics
///
/// Panics if some network is not a canonical line.
pub fn run_distributed_line_arbitrary_reference(
    problem: &Problem,
    config: &DistConfig,
) -> Result<DistCombinedOutcome, DistError> {
    validate(config)?;
    let (public, layers) = public_info(problem, config, Layering::for_lines(problem));
    run_split_reference(problem, config, &public, &layers)
}

/// The driver-counted oracle of [`crate::run_distributed_auto`]: the
/// same `auto_choice` dispatch over the reference runners.
///
/// # Errors
///
/// Same contract as the dispatched reference runner.
pub fn run_distributed_auto_reference(
    problem: &Problem,
    config: &DistConfig,
) -> Result<crate::DistAutoOutcome, DistError> {
    let choice = auto_choice(problem);
    let (solution, lambda, run) = match choice {
        AutoChoice::LineUnit => {
            let out = run_distributed_line_unit_reference(problem, config)?;
            (
                out.solution.clone(),
                out.lambda,
                crate::DistAutoRun::Single(out),
            )
        }
        AutoChoice::LineArbitrary => {
            let out = run_distributed_line_arbitrary_reference(problem, config)?;
            (
                out.solution.clone(),
                out.lambda(),
                crate::DistAutoRun::Split(out),
            )
        }
        AutoChoice::TreeUnit => {
            let out = run_distributed_tree_unit_reference(problem, config)?;
            (
                out.solution.clone(),
                out.lambda,
                crate::DistAutoRun::Single(out),
            )
        }
        AutoChoice::TreeArbitrary => {
            let out = run_distributed_tree_arbitrary_reference(problem, config)?;
            (
                out.solution.clone(),
                out.lambda(),
                crate::DistAutoRun::Split(out),
            )
        }
    };
    Ok(crate::DistAutoOutcome {
        solution,
        choice,
        lambda,
        run,
    })
}
