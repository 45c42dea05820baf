//! Cross-crate invariant tests: the framework's proof obligations hold on
//! randomized workloads for every decomposition strategy and raise rule.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet::core::{check_interference, run_two_phase, FrameworkConfig, RaiseRule, SolverConfig};
use treenet::decomp::{LayeredDecomposition, Strategy};
use treenet::model::workload::{HeightMode, LineWorkload, TreeWorkload};
use treenet::model::InstanceId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Lemma 3.1's accounting identity val(α,β) ≤ (Δ+1)·p(S) holds for
    /// every strategy on trees, with the interference property verified
    /// on the trace.
    #[test]
    fn lemma_3_1_accounting(seed in 0u64..500, strat in 0usize..3) {
        let strategy = Strategy::ALL[strat];
        let p = TreeWorkload::new(12, 10)
            .with_networks(2)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let layers = LayeredDecomposition::for_trees(&p, strategy);
        let all: Vec<InstanceId> = p.instances().map(|d| d.id).collect();
        let cfg = FrameworkConfig {
            xi: treenet::core::unit_xi(layers.delta()),
            seed,
            record_trace: true,
            ..FrameworkConfig::default()
        };
        let out = run_two_phase(&p, &layers, RaiseRule::Unit, &cfg, &all).unwrap();
        prop_assert!(out.solution.verify(&p).is_ok());
        prop_assert!(out.dual.value() <= (layers.delta() as f64 + 1.0) * out.profit(&p) + 1e-6);
        prop_assert_eq!(check_interference(&p, &layers, out.trace.as_ref().unwrap()), None);
    }

    /// Same identity for the narrow rule on lines: val ≤ (2Δ²+1)·p(S).
    #[test]
    fn lemma_6_1_accounting(seed in 0u64..500) {
        let p = LineWorkload::new(24, 12)
            .with_resources(2)
            .with_len_range(1, 6)
            .with_heights(HeightMode::Uniform { hmin: 0.1 })
            .generate(&mut SmallRng::seed_from_u64(seed));
        let narrow: Vec<InstanceId> = p
            .instances()
            .filter(|d| p.height_of(d.id) <= 0.5)
            .map(|d| d.id)
            .collect();
        prop_assume!(!narrow.is_empty());
        let layers = LayeredDecomposition::for_lines(&p);
        let hmin = narrow.iter().map(|&d| p.height_of(d)).fold(0.5, f64::min);
        let cfg = FrameworkConfig {
            xi: treenet::core::narrow_xi(layers.delta(), hmin),
            seed,
            record_trace: true,
            ..FrameworkConfig::default()
        };
        let out = run_two_phase(&p, &layers, RaiseRule::Narrow, &cfg, &narrow).unwrap();
        prop_assert!(out.solution.verify(&p).is_ok());
        let cap = 2.0 * (layers.delta() as f64).powi(2) + 1.0;
        prop_assert!(out.dual.value() <= cap * out.profit(&p) + 1e-6);
        prop_assert_eq!(check_interference(&p, &layers, out.trace.as_ref().unwrap()), None);
    }

    /// Stack/solution consistency: every selected instance was raised, and
    /// every raised instance either entered the solution or conflicts with
    /// a later-raised selected one (the phase-2 guarantee behind Lemma
    /// 3.1's inequality (3)).
    #[test]
    fn phase_two_successor_property(seed in 0u64..300) {
        let p = TreeWorkload::new(12, 10)
            .with_networks(2)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let cfg = SolverConfig::default().with_seed(seed);
        let run = treenet::core::solve(&p, treenet::core::AutoChoice::TreeUnit, &cfg).unwrap().run;
        let out = run.halves()[0];
        let raised_order: Vec<InstanceId> =
            out.stack.iter().flat_map(|entry| entry.instances.iter().copied()).collect();
        // Selected ⊆ raised.
        for &d in out.solution.selected() {
            prop_assert!(raised_order.contains(&d));
        }
        // Every raised instance has itself-or-a-successor in S.
        for (i, &d) in raised_order.iter().enumerate() {
            let ok = out.solution.contains(d)
                || raised_order[i..].iter().any(|&later| {
                    out.solution.contains(later) && p.conflicting(d, later)
                });
            prop_assert!(ok, "raised {d} has no successor in S");
        }
    }
}
