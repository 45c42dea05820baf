//! Property tests for the baselines: every solver is feasible and honors
//! its certified bound on randomized workloads; the exact solvers agree
//! with each other and dominate every heuristic.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_baseline::{
    barnoy_line_arbitrary, barnoy_line_unit, exact_max_profit, greedy_profit, ps_line_unit,
    weighted_interval_dp, GreedyOrder, PsConfig,
};
use treenet_model::workload::{HeightMode, LineWorkload};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// PS and Bar-Noy both produce feasible solutions within their
    /// certified bounds; Bar-Noy's certificate is the tighter one.
    #[test]
    fn line_baselines_bounded(seed in 0u64..2000, slack in 0u32..4) {
        let p = LineWorkload::new(32, 18)
            .with_resources(2)
            .with_window_slack(slack)
            .with_len_range(1, 8)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let ps = ps_line_unit(&p, &PsConfig { seed, ..PsConfig::default() }).unwrap();
        prop_assert!(ps.solution.verify(&p).is_ok());
        prop_assert!(ps.certified_ratio(&p) <= 4.0 * 5.1 + 1e-6);
        let bn = barnoy_line_unit(&p);
        prop_assert!(bn.solution.verify(&p).is_ok());
        prop_assert!(bn.certified_ratio(&p) <= 2.0 + 1e-9);
    }

    /// Exact branch-and-bound dominates every heuristic and both
    /// baselines (it is, after all, exact).
    #[test]
    fn exact_dominates_everything(seed in 0u64..1000) {
        let p = LineWorkload::new(24, 10)
            .with_resources(2)
            .with_len_range(1, 6)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let opt = exact_max_profit(&p, 10_000_000).unwrap();
        prop_assert!(opt.verify(&p).is_ok());
        let po = opt.profit(&p);
        for order in [GreedyOrder::Profit, GreedyOrder::Density, GreedyOrder::Shortest] {
            prop_assert!(po + 1e-9 >= greedy_profit(&p, order).profit(&p));
        }
        prop_assert!(po + 1e-9 >= ps_line_unit(&p, &PsConfig::default()).unwrap().profit(&p));
        prop_assert!(po + 1e-9 >= barnoy_line_unit(&p).profit(&p));
    }

    /// On single-resource unit-height fixed intervals, the DP and the
    /// branch-and-bound compute the same optimum, and Bar-Noy's realized
    /// solution is within its factor 2 of it.
    #[test]
    fn dp_bb_agree_and_barnoy_within_two(seed in 0u64..1000) {
        let p = LineWorkload::new(28, 12)
            .with_resources(1)
            .with_window_slack(0)
            .with_len_range(1, 7)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let dp = weighted_interval_dp(&p).unwrap();
        let bb = exact_max_profit(&p, 10_000_000).unwrap();
        prop_assert!((dp.profit(&p) - bb.profit(&p)).abs() < 1e-9);
        let bn = barnoy_line_unit(&p);
        prop_assert!(dp.profit(&p) <= 2.0 * bn.profit(&p) + 1e-9);
    }

    /// The arbitrary-height Bar-Noy combination stays feasible and within
    /// its certified factor 5 on mixed workloads.
    #[test]
    fn barnoy_arbitrary_bounded(seed in 0u64..1000) {
        let p = LineWorkload::new(24, 14)
            .with_resources(2)
            .with_len_range(1, 6)
            .with_heights(HeightMode::Bimodal { narrow_frac: 0.5, hmin: 0.15 })
            .generate(&mut SmallRng::seed_from_u64(seed));
        let (combined, wide, narrow) = barnoy_line_arbitrary(&p);
        prop_assert!(combined.verify(&p).is_ok());
        let profit = combined.profit(&p);
        prop_assume!(profit > 0.0);
        let bound = wide.opt_upper_bound() + narrow.opt_upper_bound();
        prop_assert!(bound / profit <= 5.0 + 1e-9);
    }
}
