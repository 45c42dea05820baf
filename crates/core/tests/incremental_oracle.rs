//! The incremental phase-1 engine against the from-scratch oracle.
//!
//! Two layers of evidence that the active-subgraph filtering changes
//! *nothing* about the computation:
//!
//! 1. A step replay that walks phase 1 itself — one epoch conflict graph
//!    plus an [`ActiveSubgraph`] on one side, `ConflictGraph::build` over
//!    the unsatisfied members on the other — asserting **byte-identical
//!    adjacency, keys, and MIS outcomes at every step**, plus equal raise
//!    sets.
//! 2. End-to-end: [`run_two_phase`] vs [`run_two_phase_reference`]
//!    (the preserved from-scratch formulation) must agree on solution,
//!    stats, stack, trace, and bit-identical λ.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_core::{
    mis_tag, narrow_xi, run_two_phase, run_two_phase_reference, stages_for, unit_xi, DualState,
    FrameworkConfig, RaiseRule, SATISFACTION_GUARD,
};
use treenet_decomp::{LayeredDecomposition, Strategy};
use treenet_mis::{CsrAdjacency, MisBackend, MisScratch};
use treenet_model::conflict::{ActiveSubgraph, ConflictGraph};
use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
use treenet_model::{InstanceId, Problem};

/// Replays phase 1 with both engines side by side, checking byte
/// identity of every step's MIS input and output. Parameterized over
/// the raise rule so the same walk pins the unit and narrow machinery.
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
    let mut view = ActiveSubgraph::new();
    let mut scratch = MisScratch::default();
    let mut mis_inc: Vec<u32> = Vec::new();

    for k in 1..=num_groups {
        let members = &groups[k as usize];
        if members.is_empty() {
            continue;
        }
        let epoch_graph = ConflictGraph::build(problem, members);
        let epoch_keys: Vec<u64> = members
            .iter()
            .map(|&d| problem.instance(d).canonical_key())
            .collect();
        for j in 1..=stages {
            let threshold = 1.0 - xi.powi(j as i32);
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

                // Incremental side: filter the epoch graph.
                let active: Vec<bool> = members
                    .iter()
                    .map(|&d| {
                        dual.cached_satisfaction(problem, dual.slot(d).unwrap())
                            < threshold - SATISFACTION_GUARD
                    })
                    .collect();
                view.rebuild(&epoch_graph, &epoch_keys, &active);

                // Byte-identical adjacency and keys.
                prop_assert_eq!(view.active_len(), fresh.len());
                prop_assert_eq!(view.offsets(), fresh.offsets());
                prop_assert_eq!(view.adjacency(), fresh.adjacency());
                prop_assert_eq!(view.keys(), &fresh_keys[..]);

                // Identical MIS outcome and round count.
                let tag = mis_tag(k, j, step);
                let oracle_out = {
                    let adj: Vec<Vec<u32>> = (0..fresh.len())
                        .map(|v| fresh.neighbors(v).to_vec())
                        .collect();
                    backend.run(&adj, &fresh_keys, seed, tag)
                };
                let rounds = backend.run_with(
                    &CsrAdjacency::new(view.offsets(), view.adjacency()),
                    view.keys(),
                    seed,
                    tag,
                    &mut scratch,
                    &mut mis_inc,
                );
                prop_assert_eq!(&mis_inc, &oracle_out.mis);
                prop_assert_eq!(rounds, oracle_out.rounds);

                // Raise the MIS members (shared arithmetic), then refresh
                // the touched constraints through the inverted index.
                for &v in &mis_inc {
                    let d = members[view.base_vertex(v as usize)];
                    prop_assert_eq!(d, fresh.instance(v as usize));
                    let critical = layers.critical_of(d);
                    let _ = rule.raise(problem, &mut dual, d, critical);
                    let inst = problem.instance(d);
                    let network = inst.network;
                    for &sib in problem.instances_of(inst.demand) {
                        dual.refresh_cached_lhs(problem, dual.slot(sib).unwrap());
                    }
                    for &e in critical {
                        for &user in problem.instances_using(network, e) {
                            dual.refresh_cached_lhs(problem, dual.slot(user).unwrap());
                        }
                    }
                }
                step += 1;
            }
        }
    }
    // λ read from the cache equals the re-walked minimum, bitwise.
    prop_assert_eq!(
        dual.min_satisfaction_cached(problem).to_bits(),
        dual.min_satisfaction(problem, &participants).to_bits()
    );
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
