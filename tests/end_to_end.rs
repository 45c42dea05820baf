//! End-to-end integration tests spanning every crate: fixtures →
//! workloads → solvers → verifiers → exact references.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet::baseline::{
    exact_max_profit, greedy_profit, ps_line_unit, weighted_interval_dp, GreedyOrder, PsConfig,
};
use treenet::core::{solve, solve_sequential_tree, AutoChoice, SolverConfig};
use treenet::model::fixtures::{figure1, figure2};
use treenet::model::workload::{HeightMode, LineWorkload, TreeWorkload};

#[test]
fn figure1_pipeline() {
    let (p, _) = figure1();
    // Every algorithm that accepts heights must return feasible solutions
    // within its bound; exact OPT = 11 ({B, C}).
    let opt = exact_max_profit(&p, 1_000_000).unwrap();
    assert_eq!(opt.profit(&p), 11.0);
    let ours = solve(&p, AutoChoice::LineArbitrary, &SolverConfig::default()).unwrap();
    ours.solution.verify(&p).unwrap();
    let profit = ours.solution.profit(&p);
    assert!(profit > 0.0);
    assert!(opt.profit(&p) / profit <= 23.0 / 0.9);
}

#[test]
fn figure2_pipeline() {
    let (p, _) = figure2();
    let opt = exact_max_profit(&p, 1_000_000).unwrap();
    assert_eq!(opt.profit(&p), 4.0);
    let combined = solve(&p, AutoChoice::TreeArbitrary, &SolverConfig::default()).unwrap();
    combined.solution.verify(&p).unwrap();
    assert!(opt.profit(&p) / combined.solution.profit(&p).max(1e-9) <= 80.0 / 0.9 + 1e-6);
}

#[test]
fn tree_unit_certified_against_exact_optimum() {
    // Theorem 5.3's guarantee is against the true OPT — check it, not
    // just the dual bound.
    for seed in 0..6u64 {
        let p = TreeWorkload::new(14, 10)
            .with_networks(2)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let cfg = SolverConfig::default().with_seed(seed);
        let out = solve(&p, AutoChoice::TreeUnit, &cfg).unwrap();
        out.solution.verify(&p).unwrap();
        let opt = exact_max_profit(&p, 20_000_000).unwrap();
        let ratio = opt.profit(&p) / out.solution.profit(&p).max(1e-9);
        assert!(
            ratio <= 7.0 / 0.9 + 1e-6,
            "seed {seed}: exact ratio {ratio}"
        );
        // The dual bound really does upper-bound OPT (weak duality).
        assert!(out.opt_upper_bound + 1e-6 >= opt.profit(&p), "seed {seed}");
    }
}

#[test]
fn line_unit_certified_against_dp_optimum() {
    for seed in 0..6u64 {
        let p = LineWorkload::new(40, 16)
            .with_resources(1)
            .with_window_slack(0)
            .with_len_range(1, 10)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let cfg = SolverConfig::default().with_seed(seed);
        let out = solve(&p, AutoChoice::LineUnit, &cfg).unwrap();
        let opt = weighted_interval_dp(&p).unwrap();
        let ratio = opt.profit(&p) / out.solution.profit(&p).max(1e-9);
        assert!(ratio <= 4.0 / 0.9 + 1e-6, "seed {seed}: {ratio}");
        assert!(out.opt_upper_bound + 1e-6 >= opt.profit(&p));
        // PS also stays within its (weaker) bound.
        let ps = ps_line_unit(
            &p,
            &PsConfig {
                seed,
                ..PsConfig::default()
            },
        )
        .unwrap();
        let ps_ratio = opt.profit(&p) / ps.profit(&p).max(1e-9);
        assert!(ps_ratio <= 4.0 * 5.1 + 1e-6, "seed {seed}: PS {ps_ratio}");
    }
}

#[test]
fn our_certified_bound_beats_ps_substantially() {
    // The paper's factor-5 improvement shows up as certified bounds ~5×
    // tighter on average.
    let mut ours_total = 0.0;
    let mut ps_total = 0.0;
    for seed in 0..8u64 {
        let p = LineWorkload::new(40, 30)
            .with_resources(2)
            .with_len_range(1, 10)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let cfg = SolverConfig::default().with_seed(seed);
        let ours = solve(&p, AutoChoice::LineUnit, &cfg).unwrap();
        let ps = ps_line_unit(
            &p,
            &PsConfig {
                seed,
                ..PsConfig::default()
            },
        )
        .unwrap();
        ours_total += ours.certified_ratio(&p);
        ps_total += ps.certified_ratio(&p);
    }
    assert!(
        ps_total > 2.0 * ours_total,
        "expected a large certified-bound gap, got ours {ours_total} vs PS {ps_total}"
    );
}

#[test]
fn arbitrary_height_stack() {
    for seed in 0..4u64 {
        let p = TreeWorkload::new(16, 18)
            .with_networks(2)
            .with_heights(HeightMode::Bimodal {
                narrow_frac: 0.5,
                hmin: 0.15,
            })
            .generate(&mut SmallRng::seed_from_u64(seed));
        let cfg = SolverConfig::default().with_seed(seed);
        let combined = solve(&p, AutoChoice::TreeArbitrary, &cfg).unwrap();
        combined.solution.verify(&p).unwrap();
        let seq = solve_sequential_tree(&p);
        seq.solution.verify(&p).unwrap();
        let greedy = greedy_profit(&p, GreedyOrder::Density);
        greedy.verify(&p).unwrap();
    }
}

#[test]
fn all_solvers_handle_single_demand() {
    // Degenerate but legal: one demand, one network.
    let mut b = treenet::model::ProblemBuilder::new();
    let t = b.add_network(treenet::graph::Tree::line(4)).unwrap();
    b.add_demand(
        treenet::model::Demand::pair(
            treenet::graph::VertexId(0),
            treenet::graph::VertexId(3),
            2.0,
        ),
        &[t],
    )
    .unwrap();
    let p = b.build().unwrap();
    let out = solve(&p, AutoChoice::TreeUnit, &SolverConfig::default()).unwrap();
    assert_eq!(out.solution.len(), 1);
    assert_eq!(out.solution.profit(&p), 2.0);
    let seq = solve_sequential_tree(&p);
    assert_eq!(seq.profit(&p), 2.0);
    let line = solve(&p, AutoChoice::LineUnit, &SolverConfig::default()).unwrap();
    assert_eq!(line.solution.profit(&p), 2.0);
}
