//! Sweep-amortization equivalence: the termination detector's sweep
//! cadence (`DistConfig::sweep_interval_log2`, refresh every `2^k`
//! completed steps) is a pure performance knob. For every `k` the pacing
//! decisions — epochs entered, stages advanced, steps run, pops — must
//! be identical to the `k = 0` reference (a sweep after every step, the
//! densest audit), and solutions and λ must match the driver-counted
//! logical oracle bit-exactly. Termination can neither happen early nor
//! be missed: every armed sweep's in-network verdict is asserted against
//! the hint snapshot inside the driver, so a divergence panics the run
//! rather than skewing results.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_dist::{run_distributed_auto, run_distributed_reference, DistConfig, StepRecord};
use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
use treenet_model::Problem;

fn mixed_problem(seed: u64, shape: usize) -> Problem {
    let mut rng = SmallRng::seed_from_u64(seed);
    match shape {
        0 => LineWorkload::new(30, 12)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(1, 8)
            .generate(&mut rng),
        1 => LineWorkload::new(30, 12)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(1, 8)
            .with_heights(HeightMode::Bimodal {
                narrow_frac: 0.5,
                hmin: 0.2,
            })
            .generate(&mut rng),
        2 => TreeWorkload::new(10, 8)
            .with_networks(2)
            .with_profit_ratio(4.0)
            .generate(&mut rng),
        _ => TreeWorkload::new(10, 8)
            .with_networks(2)
            .with_heights(HeightMode::Bimodal {
                narrow_frac: 0.5,
                hmin: 0.25,
            })
            .generate(&mut rng),
    }
}

/// The cadence-independent surface of an auto run: solution, λ bits,
/// per-half step schedules and pop counts — everything the paper's
/// algorithm determines — plus the sweep count for the amortization
/// checks.
#[allow(clippy::type_complexity)]
fn cadence_surface(
    problem: &Problem,
    k: u32,
    seed: u64,
) -> (
    treenet_model::Solution,
    u64,
    Vec<(Vec<StepRecord>, u64)>,
    u64,
) {
    let cfg = DistConfig {
        epsilon: 0.3,
        seed,
        sweep_interval_log2: k,
        ..DistConfig::default()
    };
    let out = run_distributed_auto(problem, &cfg).expect("run succeeds");
    let halves = out.run.schedules();
    let sweeps = halves.iter().map(|s| s.sweeps).sum();
    let schedules = halves
        .into_iter()
        .map(|s| (s.steps.clone(), s.pops))
        .collect();
    (out.solution, out.lambda.to_bits(), schedules, sweeps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance property: every cadence `k ∈ 0..=6` reproduces the
    /// per-step reference exactly — same steps, same pops, same
    /// solution, same λ — and matches the logical oracle.
    #[test]
    fn every_cadence_matches_the_per_step_reference(seed in 0u64..2000, shape in 0usize..4, k in 1u32..7) {
        let problem = mixed_problem(seed, shape);
        let (sol_ref, lambda_ref, sched_ref, sweeps_ref) = cadence_surface(&problem, 0, seed);
        let (sol_k, lambda_k, sched_k, sweeps_k) = cadence_surface(&problem, k, seed);
        prop_assert_eq!(&sol_ref, &sol_k, "solutions diverged at k={}", k);
        prop_assert_eq!(lambda_ref, lambda_k, "λ bits diverged at k={}", k);
        prop_assert_eq!(&sched_ref, &sched_k, "pacing diverged at k={}", k);
        // Amortization is monotone: a sparser refresh cadence never
        // arms more sweeps than the densest one (certifications are
        // schedule-determined and identical; refreshes only thin out).
        prop_assert!(
            sweeps_k <= sweeps_ref,
            "k={} armed {} sweeps, reference {}", k, sweeps_k, sweeps_ref
        );
        // Termination was detected, not assumed: whenever steps ran, at
        // least the per-epoch certification sweep audited them.
        let steps: usize = sched_k.iter().map(|(s, _)| s.len()).sum();
        if steps > 0 {
            prop_assert!(sweeps_k >= 1, "no sweep certified {} steps", steps);
        }
        // And the logical oracle agrees with both.
        let cfg = DistConfig { epsilon: 0.3, seed, ..DistConfig::default() };
        let choice = treenet_core::auto_choice(&problem);
        let oracle = run_distributed_reference(&problem, choice, &cfg).expect("oracle succeeds");
        prop_assert_eq!(&oracle.solution, &sol_k);
        prop_assert_eq!(oracle.lambda.to_bits(), lambda_k);
    }
}
