//! Property-based tests for tree and layered decompositions.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_decomp::{
    capture_node, ideal_depth_bound, ideal_with_stats, LayeredDecomposition, Strategy,
};
use treenet_graph::generators::{random_tree, TreeFamily};
use treenet_model::workload::{LineWorkload, TreeWorkload};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Lemma 4.1: the ideal decomposition always has pivot ≤ 2 and depth
    /// ≤ 2⌈log n⌉ + 1, and satisfies both defining properties.
    #[test]
    fn ideal_parameters_hold(seed in 0u64..3000, n in 2usize..60) {
        let tree = random_tree(n, &mut SmallRng::seed_from_u64(seed));
        let (h, _) = ideal_with_stats(&tree);
        prop_assert!(h.pivot_size() <= 2);
        prop_assert!(h.depth() <= ideal_depth_bound(n));
        prop_assert!(h.verify(&tree).is_ok());
    }

    /// All strategies produce valid tree decompositions on all families.
    #[test]
    fn all_strategies_valid(seed in 0u64..500, n in 2usize..40, fam in 0usize..7) {
        let family = TreeFamily::ALL[fam];
        let tree = family.generate(n, &mut SmallRng::seed_from_u64(seed));
        for strategy in Strategy::ALL {
            let h = strategy.build(&tree);
            prop_assert!(h.verify(&tree).is_ok(), "{} on {}", strategy.name(), family.name());
        }
    }

    /// Lemma 4.3: tree layered decompositions from the ideal strategy have
    /// Δ ≤ 6 and satisfy the layered property; the capture node lies on
    /// every instance's path.
    #[test]
    fn tree_layers_sound(seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let p = TreeWorkload::new(18, 16).with_networks(2).generate(&mut rng);
        let layers = LayeredDecomposition::for_trees(&p, Strategy::Ideal);
        prop_assert!(layers.delta() <= 6);
        prop_assert!(layers.verify(&p).is_ok());
        for t in p.networks() {
            let h = Strategy::Ideal.build(p.network(t));
            for &d in p.instances_on(t) {
                let path = p.instance(d).path();
                let mu = capture_node(&h, path);
                let route = p.rooted(t).path(path.source(), path.target());
                prop_assert!(route.contains_vertex(mu));
            }
        }
    }

    /// Section 7: line layered decompositions have Δ ≤ 3 and satisfy the
    /// layered property, windows included.
    #[test]
    fn line_layers_sound(seed in 0u64..1000, slack in 0u32..5) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let p = LineWorkload::new(48, 24)
            .with_resources(2)
            .with_window_slack(slack)
            .with_len_range(1, 12)
            .generate(&mut rng);
        let layers = LayeredDecomposition::for_lines(&p);
        prop_assert!(layers.delta() <= 3);
        prop_assert!(layers.verify(&p).is_ok());
    }

    /// Group indexes are 1-based, bounded by the group count, and the
    /// critical sets are non-empty path edges.
    #[test]
    fn layer_indexes_consistent(seed in 0u64..500) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let p = TreeWorkload::new(14, 10).generate(&mut rng);
        for strategy in Strategy::ALL {
            let layers = LayeredDecomposition::for_trees(&p, strategy);
            let mut buf = Vec::new();
            for inst in p.instances() {
                let g = layers.group_of(inst.id);
                prop_assert!(g >= 1);
                prop_assert!(g as usize <= layers.num_groups());
                let pi = layers.critical_of(&p, inst.id, &mut buf);
                prop_assert!(!pi.is_empty());
                prop_assert!(pi.iter().all(|&e| inst.path().contains_edge(e)));
            }
        }
    }
}
