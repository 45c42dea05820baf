//! The incremental phase-1 engine against the from-scratch oracle.
//!
//! Two layers of evidence that running each step's MIS on the epoch graph
//! under an activity mask changes *nothing* about the computation:
//!
//! 1. A step replay that walks phase 1 itself — one epoch conflict graph
//!    masked to the unsatisfied members on one side, `ConflictGraph::build`
//!    over the unsatisfied members on the other — asserting the same
//!    unsatisfied set, **the same MIS (as instance ids) and round count at
//!    every step**, and a bitwise-fresh satisfaction cache.
//! 2. End-to-end: [`run_two_phase`] vs [`run_two_phase_reference`]
//!    (the preserved from-scratch formulation) must agree on solution,
//!    stats, stack, trace, and bit-identical λ.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_core::{
    mis_tag, narrow_xi, run_two_phase, run_two_phase_reference, stage_threshold, stages_for,
    unit_xi, DualState, FrameworkConfig, RaiseRule, SATISFACTION_GUARD,
};
use treenet_decomp::{LayeredDecomposition, Strategy};
use treenet_mis::{CsrAdjacency, MisBackend, MisScratch};
use treenet_model::conflict::ConflictGraph;
use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
use treenet_model::{InstanceId, Problem};

/// Replays phase 1 with both engines side by side, checking that every
/// step's masked MIS on the epoch graph equals the MIS of a fresh graph
/// over the unsatisfied members. Parameterized over the raise rule so the
/// same walk pins the unit and narrow machinery.
fn replay_phase1(
    problem: &Problem,
    layers: &LayeredDecomposition,
    backend: MisBackend,
    seed: u64,
    epsilon: f64,
    rule: RaiseRule,
    xi: f64,
) -> Result<(), TestCaseError> {
    let stages = stages_for(epsilon, xi);
    let participants: Vec<InstanceId> = problem.instances().map(|d| d.id).collect();
    let num_groups = layers.num_groups() as u32;
    let mut groups: Vec<Vec<InstanceId>> = vec![Vec::new(); num_groups as usize + 1];
    for &d in &participants {
        groups[layers.group_of(d) as usize].push(d);
    }

    // Every instance participates, so the cache holds one slot each.
    let mut dual = DualState::for_participants(problem, rule.dual_form(), &participants);
    let mut scratch = MisScratch::default();
    let (mut mis_masked, mut mis_fresh) = (Vec::new(), Vec::new());

    for k in 1..=num_groups {
        let members = &groups[k as usize];
        if members.is_empty() {
            continue;
        }
        let epoch_graph = ConflictGraph::build(problem, members);
        let epoch_adjacency = CsrAdjacency::new(epoch_graph.offsets(), epoch_graph.adjacency());
        let epoch_keys: Vec<u64> = members
            .iter()
            .map(|&d| problem.instance(d).canonical_key())
            .collect();
        for j in 1..=stages {
            let threshold = stage_threshold(xi, j);
            let mut step = 0u64;
            loop {
                // Oracle side: from-scratch filter and build.
                let unsatisfied: Vec<InstanceId> = members
                    .iter()
                    .copied()
                    .filter(|&d| dual.satisfaction(problem, d) < threshold - SATISFACTION_GUARD)
                    .collect();
                // Cached satisfactions must agree with recomputation
                // bitwise for every member, every step.
                for &d in members.iter() {
                    prop_assert_eq!(
                        dual.cached_satisfaction(problem, dual.slot(d).unwrap())
                            .to_bits(),
                        dual.satisfaction(problem, d).to_bits(),
                        "epoch {} stage {} step {}: stale cache for {}",
                        k,
                        j,
                        step,
                        d
                    );
                }
                if unsatisfied.is_empty() {
                    break;
                }
                prop_assert!(step < 10_000, "runaway stage");
                let fresh = ConflictGraph::build(problem, &unsatisfied);
                let fresh_keys: Vec<u64> = fresh
                    .instances()
                    .iter()
                    .map(|&d| problem.instance(d).canonical_key())
                    .collect();

                // Incremental side: mask the epoch graph by the cached
                // satisfactions; it selects exactly the unsatisfied.
                let active: Vec<bool> = members
                    .iter()
                    .map(|&d| {
                        dual.cached_satisfaction(problem, dual.slot(d).unwrap())
                            < threshold - SATISFACTION_GUARD
                    })
                    .collect();
                let selected: Vec<InstanceId> = members
                    .iter()
                    .zip(&active)
                    .filter(|(_, &a)| a)
                    .map(|(&d, _)| d)
                    .collect();
                prop_assert_eq!(&selected, &unsatisfied);

                // Identical MIS, as instance ids, and round count.
                let tag = mis_tag(k, j, step);
                let masked_rounds = backend.run(
                    &epoch_adjacency,
                    &epoch_keys,
                    &active,
                    seed,
                    tag,
                    &mut scratch,
                    &mut mis_masked,
                );
                let fresh_rounds = backend.run(
                    &CsrAdjacency::new(fresh.offsets(), fresh.adjacency()),
                    &fresh_keys,
                    &vec![true; fresh.len()],
                    seed,
                    tag,
                    &mut scratch,
                    &mut mis_fresh,
                );
                let raised: Vec<InstanceId> =
                    mis_masked.iter().map(|&v| members[v as usize]).collect();
                let oracle: Vec<InstanceId> = mis_fresh
                    .iter()
                    .map(|&v| fresh.instance(v as usize))
                    .collect();
                prop_assert_eq!(&raised, &oracle);
                prop_assert_eq!(masked_rounds, fresh_rounds);

                // Raise the MIS members (shared arithmetic), then refresh
                // the touched constraints: the demand's instances and every
                // instance on the network active on a critical edge.
                let mut pi = Vec::new();
                for &d in &raised {
                    let critical = layers.critical_of(problem, d, &mut pi);
                    let _ = rule.raise(problem, &mut dual, d, critical);
                    let inst = problem.instance(d);
                    for &sib in problem.instances_of(inst.demand) {
                        dual.refresh_cached_lhs(problem, dual.slot(sib).unwrap());
                    }
                    for &user in problem.instances_on(inst.network) {
                        if critical
                            .iter()
                            .any(|&e| problem.instance(user).active_on(e))
                        {
                            dual.refresh_cached_lhs(problem, dual.slot(user).unwrap());
                        }
                    }
                }
                step += 1;
            }
        }
    }
    // Every slot of the cache equals a re-walked path, bitwise — so any
    // minimum read off it equals the re-walked λ.
    for (i, &d) in participants.iter().enumerate() {
        prop_assert_eq!(
            dual.cached_satisfaction(problem, i).to_bits(),
            dual.satisfaction(problem, d).to_bits(),
            "final cache slot of {}",
            d
        );
    }
    Ok(())
}

/// End-to-end equality of the incremental engine and the preserved
/// from-scratch runner.
fn assert_end_to_end(
    problem: &Problem,
    layers: &LayeredDecomposition,
    backend: MisBackend,
    seed: u64,
    rule: RaiseRule,
    xi: f64,
) -> Result<(), TestCaseError> {
    let config = FrameworkConfig {
        seed,
        record_trace: true,
        mis_backend: backend,
        xi,
        ..FrameworkConfig::default()
    };
    let participants: Vec<InstanceId> = problem.instances().map(|d| d.id).collect();
    let fast = run_two_phase(problem, layers, rule, &config, &participants).unwrap();
    let oracle = run_two_phase_reference(problem, layers, rule, &config, &participants).unwrap();
    prop_assert_eq!(&fast.solution, &oracle.solution);
    prop_assert_eq!(&fast.stats, &oracle.stats);
    prop_assert_eq!(&fast.stack, &oracle.stack);
    prop_assert_eq!(&fast.trace, &oracle.trace);
    prop_assert_eq!(fast.lambda.to_bits(), oracle.lambda.to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tree problems, Luby backend: byte-identical per-step MIS inputs
    /// and outputs, fresh cache, and memoized λ.
    #[test]
    fn tree_steps_match_oracle(seed in 0u64..500) {
        let p = TreeWorkload::new(14, 12)
            .with_networks(2)
            .with_profit_ratio(6.0)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let layers = LayeredDecomposition::for_trees(&p, Strategy::Ideal);
        replay_phase1(
            &p,
            &layers,
            MisBackend::Luby,
            seed,
            0.2,
            RaiseRule::Unit,
            unit_xi(layers.delta()),
        )?;
    }

    /// Line problems with windows, deterministic backend.
    #[test]
    fn line_steps_match_oracle(seed in 0u64..500) {
        let p = LineWorkload::new(24, 10)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(1, 6)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let layers = LayeredDecomposition::for_lines(&p);
        replay_phase1(
            &p,
            &layers,
            MisBackend::DeterministicGreedy,
            seed,
            0.25,
            RaiseRule::Unit,
            unit_xi(layers.delta()),
        )?;
    }

    /// Narrow-rule replay: the lazy dual-LHS cache must stay bitwise
    /// fresh under the capacitated LHS scaling at every step.
    #[test]
    fn narrow_steps_match_oracle(seed in 0u64..500) {
        let p = TreeWorkload::new(14, 12)
            .with_networks(2)
            .with_profit_ratio(6.0)
            .with_heights(HeightMode::Bimodal { narrow_frac: 1.0, hmin: 0.25 })
            .generate(&mut SmallRng::seed_from_u64(seed));
        let layers = LayeredDecomposition::for_trees(&p, Strategy::Ideal);
        replay_phase1(
            &p,
            &layers,
            MisBackend::Luby,
            seed,
            0.2,
            RaiseRule::Narrow,
            narrow_xi(layers.delta(), 0.25),
        )?;
    }

    /// End-to-end: the shipped `run_two_phase` equals the preserved
    /// from-scratch reference on trees...
    #[test]
    fn tree_end_to_end_matches_reference(seed in 0u64..500) {
        let p = TreeWorkload::new(16, 14)
            .with_networks(2)
            .with_profit_ratio(8.0)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let layers = LayeredDecomposition::for_trees(&p, Strategy::Ideal);
        assert_end_to_end(
            &p,
            &layers,
            MisBackend::Luby,
            seed,
            RaiseRule::Unit,
            unit_xi(layers.delta()),
        )?;
    }

    /// ... and on lines, under both MIS backends.
    #[test]
    fn line_end_to_end_matches_reference(seed in 0u64..500) {
        let p = LineWorkload::new(30, 12)
            .with_resources(2)
            .with_window_slack(3)
            .with_len_range(2, 8)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let layers = LayeredDecomposition::for_lines(&p);
        let backend = if seed % 2 == 0 {
            MisBackend::Luby
        } else {
            MisBackend::DeterministicGreedy
        };
        assert_end_to_end(
            &p,
            &layers,
            backend,
            seed,
            RaiseRule::Unit,
            unit_xi(layers.delta()),
        )?;
    }

    /// Narrow-rule end-to-end on lines: `run_two_phase` equals the
    /// reference under the capacitated dual form and narrow ξ.
    #[test]
    fn narrow_line_end_to_end_matches_reference(seed in 0u64..500) {
        let p = LineWorkload::new(30, 12)
            .with_resources(2)
            .with_window_slack(3)
            .with_len_range(2, 8)
            .with_heights(HeightMode::Bimodal { narrow_frac: 1.0, hmin: 0.25 })
            .generate(&mut SmallRng::seed_from_u64(seed));
        let layers = LayeredDecomposition::for_lines(&p);
        let backend = if seed % 2 == 0 {
            MisBackend::Luby
        } else {
            MisBackend::DeterministicGreedy
        };
        assert_end_to_end(
            &p,
            &layers,
            backend,
            seed,
            RaiseRule::Narrow,
            narrow_xi(layers.delta(), 0.25),
        )?;
    }
}
