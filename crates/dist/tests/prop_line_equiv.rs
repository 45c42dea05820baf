//! Property-based distributed-vs-logical equivalence: across randomized
//! line workloads (unit and arbitrary heights) and mixed tree/line
//! problems dispatched through the auto runner, the message-passing
//! execution reproduces the logical solver exactly — identical solutions
//! and `to_bits()`-exact λ — and the fully in-network control plane
//! (echo termination + convergecast combiner) reproduces the
//! driver-counted reference oracle: identical schedules, λ and
//! solutions.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_core::{solve, solve_auto, AutoChoice, AutoRun, SolverConfig};
use treenet_dist::{
    run_distributed, run_distributed_auto, run_distributed_reference, DistAutoRun, DistConfig,
    COMBINE_ROUNDS,
};
use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Theorem 7.1 as a message-passing computation: bit-identical to
    /// the logical solver on window workloads, including the shared
    /// compute-round accounting and the exact engine-round relation
    /// (setup + compute + in-network control).
    #[test]
    fn line_unit_distributed_equals_logical(seed in 0u64..3000, slack in 0u32..4) {
        let p = LineWorkload::new(30, 12)
            .with_resources(2)
            .with_window_slack(slack)
            .with_len_range(1, 8)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let cfg = SolverConfig::default().with_epsilon(0.3).with_seed(seed);
        let logical = solve(&p, AutoChoice::LineUnit, &cfg).unwrap();
        let distributed =
            run_distributed(&p, AutoChoice::LineUnit, &DistConfig::from(&cfg)).unwrap();
        prop_assert_eq!(&logical.solution, &distributed.solution);
        prop_assert_eq!(logical.lambda.to_bits(), distributed.lambda.to_bits());
        let schedule = distributed.run.schedules()[0];
        prop_assert_eq!(schedule.total_rounds(), logical.run.halves()[0].stats.comm_rounds);
        prop_assert_eq!(
            distributed.run.metrics().rounds,
            schedule.total_rounds() + schedule.control_rounds() + 1
        );
        prop_assert!(distributed.solution.verify(&p).is_ok());
    }

    /// The in-network control plane vs the driver-counted oracle
    /// (mirroring `run_two_phase_reference`): identical solutions,
    /// bit-identical λ, and the *same compute schedule* — in-network
    /// termination detection decides exactly the boundaries the driver
    /// would have counted.
    #[test]
    fn line_unit_in_network_equals_reference(seed in 0u64..3000, slack in 0u32..4) {
        let p = LineWorkload::new(30, 12)
            .with_resources(2)
            .with_window_slack(slack)
            .with_len_range(1, 8)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let cfg = DistConfig { epsilon: 0.3, seed, ..DistConfig::default() };
        let fast = run_distributed(&p, AutoChoice::LineUnit, &cfg).unwrap();
        let oracle = run_distributed_reference(&p, AutoChoice::LineUnit, &cfg).unwrap();
        prop_assert_eq!(&fast.solution, &oracle.solution);
        prop_assert_eq!(fast.lambda.to_bits(), oracle.lambda.to_bits());
        let (fast, oracle) = (fast.run.schedules()[0], oracle.run.schedules()[0]);
        prop_assert_eq!(&fast.steps, &oracle.steps);
        prop_assert_eq!(fast.pops, oracle.pops);
        prop_assert_eq!(oracle.sweeps, 0);
    }

    /// Theorem 7.2 as one merged message-passing computation plus the
    /// in-network combiner: the combined solution and both per-class λ
    /// match the logical solver bitwise, and the engine-round relation
    /// is exact.
    #[test]
    fn line_arbitrary_distributed_equals_logical(seed in 0u64..3000) {
        let p = LineWorkload::new(30, 12)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(1, 8)
            .with_heights(HeightMode::Bimodal { narrow_frac: 0.5, hmin: 0.2 })
            .generate(&mut SmallRng::seed_from_u64(seed));
        let cfg = SolverConfig::default().with_epsilon(0.3).with_seed(seed);
        let logical = solve(&p, AutoChoice::LineArbitrary, &cfg).unwrap();
        let distributed =
            run_distributed(&p, AutoChoice::LineArbitrary, &DistConfig::from(&cfg)).unwrap();
        prop_assert_eq!(&logical.solution, &distributed.solution);
        let (AutoRun::Split(logical), DistAutoRun::Split(distributed)) =
            (&logical.run, &distributed.run)
        else {
            unreachable!("arbitrary heights run a wide/narrow split");
        };
        prop_assert_eq!(logical.wide.lambda.to_bits(), distributed.wide.lambda.to_bits());
        prop_assert_eq!(logical.narrow.lambda.to_bits(), distributed.narrow.lambda.to_bits());
        prop_assert_eq!(logical.lambda().to_bits(), distributed.lambda().to_bits());
        prop_assert_eq!(
            distributed.wide.schedule.total_rounds(),
            logical.wide.stats.comm_rounds
        );
        prop_assert_eq!(
            distributed.narrow.schedule.total_rounds(),
            logical.narrow.stats.comm_rounds
        );
        prop_assert_eq!(
            distributed.metrics.rounds,
            distributed.wide.schedule.engine_rounds()
                .max(distributed.narrow.schedule.engine_rounds()) + 1 + COMBINE_ROUNDS
        );
        prop_assert!(distributed.solution.verify(&p).is_ok());
    }

    /// The merged combiner-distributed split vs the serial driver-counted
    /// oracle: identical combined solutions (the convergecast combiner
    /// reproduces `combine_by_network` bit-exactly), identical per-half
    /// schedules, λ and solutions.
    #[test]
    fn line_arbitrary_in_network_equals_reference(seed in 0u64..3000) {
        let p = LineWorkload::new(30, 12)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(1, 8)
            .with_heights(HeightMode::Bimodal { narrow_frac: 0.5, hmin: 0.2 })
            .generate(&mut SmallRng::seed_from_u64(seed));
        let cfg = DistConfig { epsilon: 0.3, seed, ..DistConfig::default() };
        let fast = run_distributed(&p, AutoChoice::LineArbitrary, &cfg).unwrap();
        let oracle = run_distributed_reference(&p, AutoChoice::LineArbitrary, &cfg).unwrap();
        prop_assert_eq!(&fast.solution, &oracle.solution);
        let (DistAutoRun::Split(fast), DistAutoRun::Split(oracle)) = (&fast.run, &oracle.run) else {
            unreachable!("arbitrary heights run a wide/narrow split");
        };
        for (a, b) in [(&fast.wide, &oracle.wide), (&fast.narrow, &oracle.narrow)] {
            prop_assert_eq!(&a.solution, &b.solution);
            prop_assert_eq!(a.lambda.to_bits(), b.lambda.to_bits());
            prop_assert_eq!(&a.schedule.steps, &b.schedule.steps);
            prop_assert_eq!(a.schedule.pops, b.schedule.pops);
        }
    }

    /// The auto dispatch over the mixed grid: every topology/height
    /// combination picks the same theorem as `solve_auto`, reproduces
    /// its solution and λ bitwise, and agrees with the reference oracle.
    #[test]
    fn auto_distributed_equals_logical(seed in 0u64..3000, shape in 0usize..4) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let p = match shape {
            0 => LineWorkload::new(24, 10).generate(&mut rng),
            1 => LineWorkload::new(24, 10)
                .with_heights(HeightMode::Uniform { hmin: 0.25 })
                .generate(&mut rng),
            2 => TreeWorkload::new(10, 8).with_networks(2).generate(&mut rng),
            _ => TreeWorkload::new(10, 8)
                .with_networks(2)
                .with_heights(HeightMode::Bimodal { narrow_frac: 0.5, hmin: 0.25 })
                .generate(&mut rng),
        };
        let cfg = SolverConfig::default().with_epsilon(0.3).with_seed(seed);
        let logical = solve_auto(&p, &cfg).unwrap();
        let distributed = run_distributed_auto(&p, &DistConfig::from(&cfg)).unwrap();
        prop_assert_eq!(logical.choice, distributed.choice);
        prop_assert_eq!(&logical.solution, &distributed.solution);
        prop_assert_eq!(logical.lambda.to_bits(), distributed.lambda.to_bits());
        prop_assert!(distributed.solution.verify(&p).is_ok());

        let oracle =
            run_distributed_reference(&p, distributed.choice, &DistConfig::from(&cfg)).unwrap();
        prop_assert_eq!(&oracle.solution, &distributed.solution);
        prop_assert_eq!(oracle.lambda.to_bits(), distributed.lambda.to_bits());
        let steps = |run: &DistAutoRun| -> Vec<_> {
            run.schedules().iter().map(|s| s.steps.clone()).collect()
        };
        prop_assert_eq!(steps(&distributed.run), steps(&oracle.run));
    }
}
