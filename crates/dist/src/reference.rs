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
    build_engine, descriptor_of, plan, DistAutoOutcome, DistConfig, DistError, DistRunReport,
    DistSchedule, HalfPlan, StepRecord,
};
use treenet_core::{combine_by_network, mis_tag, stage_threshold, stages_for, AutoChoice};
use treenet_model::{Problem, Solution};
use treenet_netsim::Metrics;

/// Executes one half as a full two-phase message-passing run in its own
/// engine, with the driver counting unsatisfied instances between rounds
/// (the pre-combiner control plane). All data still flows through
/// single-hop `O(M)`-bit messages. Each half has the engine to itself,
/// so every half uses the primary message namespace.
fn execute_reference(
    problem: &Problem,
    config: &DistConfig,
    public: &Arc<PublicInfo>,
    half: &HalfPlan,
) -> Result<(DistRunReport, Metrics), DistError> {
    let stages_per_epoch = stages_for(config.epsilon, half.xi);

    let nodes: Vec<ProcessorNode> = problem
        .demands()
        .map(|a| {
            let participating = !problem.is_departed(a)
                && half
                    .class
                    .is_none_or(|c| problem.demand(a).height_class() == c);
            ProcessorNode::new(
                Arc::clone(public),
                descriptor_of(problem, a),
                problem.instances_of(a).to_vec(),
                half.rule,
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
    for epoch in 1..=half.num_groups {
        if !engine.nodes().iter().any(|n| n.has_group(epoch)) {
            continue;
        }
        for stage in 1..=stages_per_epoch {
            let threshold = stage_threshold(half.xi, stage);
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

    let report = DistRunReport {
        solution,
        lambda,
        final_unsatisfied,
        schedule,
    };
    Ok((report, engine.metrics()))
}

/// The driver-counted oracle of [`crate::run_distributed`]: the same
/// halves, each run serially in its own engine with stage/epoch
/// boundaries decided by the driver (no sweeps), and a split's
/// per-network combination evaluated by the driver via the logical
/// `combine_by_network`. Identical solutions, bit-identical λ and
/// identical compute schedules; `Metrics::rounds` (both engines merged
/// for a split) sums `schedule.total_rounds() + 1` over the halves.
///
/// # Errors
///
/// Same contract as [`crate::run_distributed`].
pub fn run_distributed_reference(
    problem: &Problem,
    choice: AutoChoice,
    config: &DistConfig,
) -> Result<DistAutoOutcome, DistError> {
    let (public, plans) = plan(problem, choice, config)?;
    let mut reports = Vec::with_capacity(plans.len());
    let mut metrics = Metrics::default();
    for half in &plans {
        let (report, half_metrics) = execute_reference(problem, config, &public, half)?;
        reports.push(report);
        metrics = metrics.merged(half_metrics);
    }
    let combined = match reports.as_slice() {
        [wide, narrow] => Some(combine_by_network(
            problem,
            &wide.solution,
            &narrow.solution,
        )),
        _ => None,
    };
    Ok(DistAutoOutcome::assemble(
        choice, reports, combined, metrics,
    ))
}
