//! Property-based tests: the paper's guarantees hold on randomized
//! workloads for every solver.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_core::{
    check_interference, run_two_phase, solve, solve_sequential_tree, AutoChoice, FrameworkConfig,
    RaiseRule, SolverConfig,
};
use treenet_decomp::{LayeredDecomposition, Strategy};
use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
use treenet_model::InstanceId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 5.3 end-to-end: feasibility, λ ≥ 1-ε, certified ratio ≤
    /// (Δ+1)/(1-ε), and the interference property on the full trace.
    #[test]
    fn tree_unit_guarantees(seed in 0u64..3000, eps_i in 0usize..3) {
        let eps = [0.05, 0.1, 0.3][eps_i];
        let p = TreeWorkload::new(14, 12)
            .with_networks(2)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let cfg = SolverConfig::default().with_epsilon(eps).with_seed(seed).with_trace(true);
        let run = solve(&p, AutoChoice::TreeUnit, &cfg).unwrap().run;
        let out = run.halves()[0];
        prop_assert!(out.solution.verify(&p).is_ok());
        prop_assert!(out.lambda >= 1.0 - eps - 1e-9);
        prop_assert!(out.delta <= 6);
        prop_assert!(out.certified_ratio(&p) <= (out.delta as f64 + 1.0) / (1.0 - eps) + 1e-6);
        let layers = LayeredDecomposition::for_trees(&p, Strategy::Ideal);
        prop_assert_eq!(check_interference(&p, &layers, out.trace.as_ref().unwrap()), None);
    }

    /// Theorem 7.1/7.2 on line workloads with windows.
    #[test]
    fn line_guarantees(seed in 0u64..3000, slack in 0u32..4) {
        let p = LineWorkload::new(30, 14)
            .with_resources(2)
            .with_window_slack(slack)
            .with_len_range(1, 8)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let cfg = SolverConfig::default().with_seed(seed);
        let run = solve(&p, AutoChoice::LineUnit, &cfg).unwrap().run;
        let out = run.halves()[0];
        prop_assert!(out.solution.verify(&p).is_ok());
        prop_assert!(out.delta <= 3);
        prop_assert!(out.certified_ratio(&p) <= 4.0 / 0.9 + 1e-6);
    }

    /// Theorem 6.3: the arbitrary-height combiner stays feasible and
    /// certified within (80+ε) on mixed-height workloads.
    #[test]
    fn tree_arbitrary_guarantees(seed in 0u64..3000) {
        let p = TreeWorkload::new(12, 14)
            .with_networks(2)
            .with_heights(HeightMode::Bimodal { narrow_frac: 0.5, hmin: 0.2 })
            .generate(&mut SmallRng::seed_from_u64(seed));
        let cfg = SolverConfig::default().with_seed(seed);
        let out = solve(&p, AutoChoice::TreeArbitrary, &cfg).unwrap();
        prop_assert!(out.solution.verify(&p).is_ok());
        prop_assert!(out.certified_ratio(&p) <= 80.0 / 0.9 + 1e-6);
        // The combiner never loses to either side.
        let best_half = out.run.halves().iter().map(|half| half.profit(&p)).fold(0.0, f64::max);
        prop_assert!(out.solution.profit(&p) + 1e-9 >= best_half);
    }

    /// Line arbitrary-height: feasible and certified within (23+ε).
    #[test]
    fn line_arbitrary_guarantees(seed in 0u64..3000) {
        let p = LineWorkload::new(26, 12)
            .with_resources(2)
            .with_len_range(1, 6)
            .with_heights(HeightMode::Uniform { hmin: 0.2 })
            .generate(&mut SmallRng::seed_from_u64(seed));
        let cfg = SolverConfig::default().with_seed(seed);
        let out = solve(&p, AutoChoice::LineArbitrary, &cfg).unwrap();
        prop_assert!(out.solution.verify(&p).is_ok());
        prop_assert!(out.certified_ratio(&p) <= 23.0 / 0.9 + 1e-6);
    }

    /// Appendix A: sequential 3-approximation (2 for one network), λ = 1.
    #[test]
    fn sequential_guarantees(seed in 0u64..3000, r in 1usize..4) {
        let p = TreeWorkload::new(12, 10)
            .with_networks(r)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let out = solve_sequential_tree(&p);
        prop_assert!(out.solution.verify(&p).is_ok());
        let cap = if r == 1 { 2.0 } else { 3.0 };
        prop_assert!(out.certified_ratio(&p) <= cap + 1e-6);
        let ids: Vec<InstanceId> = p.instances().map(|d| d.id).collect();
        prop_assert!(out.dual.min_satisfaction(&p, &ids) >= 1.0 - 1e-6);
    }

    /// The framework works under any decomposition strategy (Lemma 4.2 is
    /// strategy-generic); certified ratio respects the strategy's Δ.
    #[test]
    fn framework_strategy_generic(seed in 0u64..1000, strat in 0usize..3) {
        let strategy = Strategy::ALL[strat];
        let p = TreeWorkload::new(12, 10).generate(&mut SmallRng::seed_from_u64(seed));
        let layers = LayeredDecomposition::for_trees(&p, strategy);
        let all: Vec<InstanceId> = p.instances().map(|d| d.id).collect();
        let xi = treenet_core::unit_xi(layers.delta());
        let cfg = FrameworkConfig { xi, seed, ..FrameworkConfig::default() };
        let out = run_two_phase(&p, &layers, RaiseRule::Unit, &cfg, &all).unwrap();
        prop_assert!(out.solution.verify(&p).is_ok());
        prop_assert!(
            out.dual.value() <= (layers.delta() as f64 + 1.0) * out.profit(&p) + 1e-6
        );
    }

    /// The narrow raise rule satisfies Lemma 6.1's accounting:
    /// val(α,β) ≤ (2Δ²+1)·p(S).
    #[test]
    fn narrow_rule_objective_cap(seed in 0u64..1000) {
        let p = TreeWorkload::new(12, 12)
            .with_heights(HeightMode::Uniform { hmin: 0.1 })
            .generate(&mut SmallRng::seed_from_u64(seed));
        let narrow_ids: Vec<InstanceId> = p
            .instances()
            .filter(|d| p.height_of(d.id) <= 0.5)
            .map(|d| d.id)
            .collect();
        prop_assume!(!narrow_ids.is_empty());
        let layers = LayeredDecomposition::for_trees(&p, Strategy::Ideal);
        let hmin = narrow_ids.iter().map(|&d| p.height_of(d)).fold(0.5, f64::min);
        let xi = treenet_core::narrow_xi(layers.delta(), hmin);
        let cfg = FrameworkConfig { xi, seed, ..FrameworkConfig::default() };
        let out = run_two_phase(&p, &layers, RaiseRule::Narrow, &cfg, &narrow_ids).unwrap();
        prop_assert!(out.solution.verify(&p).is_ok());
        let cap = 2.0 * (layers.delta() as f64).powi(2) + 1.0;
        prop_assert!(out.dual.value() <= cap * out.profit(&p) + 1e-6);
        prop_assert!(out.lambda >= 0.9 - 1e-9);
    }
}
