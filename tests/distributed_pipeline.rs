//! Integration: the message-passing scheduler reproduces the logical one
//! across problem shapes, and its communication metrics respect the
//! paper's model (single-hop messages of O(M) bits).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet::core::{solve, solve_auto, AutoChoice, SolverConfig};
use treenet::dist::{run_distributed, run_distributed_auto, DistAutoRun, DistConfig};
use treenet::model::workload::{HeightMode, LineWorkload, TreeWorkload};

#[test]
fn distributed_equals_logical_across_shapes() {
    use treenet::graph::generators::TreeFamily;
    for family in [TreeFamily::Path, TreeFamily::Star, TreeFamily::Uniform] {
        let p = TreeWorkload::new(9, 7)
            .with_networks(2)
            .with_family(family)
            .with_profit_ratio(4.0)
            .generate(&mut SmallRng::seed_from_u64(17));
        let cfg = SolverConfig::default().with_epsilon(0.35).with_seed(17);
        let logical = solve(&p, AutoChoice::TreeUnit, &cfg).unwrap();
        let distributed =
            run_distributed(&p, AutoChoice::TreeUnit, &DistConfig::from(&cfg)).unwrap();
        let DistAutoRun::Single(run) = &distributed.run else {
            unreachable!("unit heights run one half");
        };
        assert!(!run.final_unsatisfied);
        assert_eq!(logical.solution, distributed.solution, "{}", family.name());
        distributed.solution.verify(&p).unwrap();
    }
}

#[test]
fn distributed_line_runner_equals_logical() {
    let p = LineWorkload::new(36, 14)
        .with_resources(2)
        .with_window_slack(3)
        .with_len_range(1, 9)
        .generate(&mut SmallRng::seed_from_u64(7));
    let cfg = SolverConfig::default().with_epsilon(0.3).with_seed(7);
    let logical = solve(&p, AutoChoice::LineUnit, &cfg).unwrap();
    let distributed = run_distributed(&p, AutoChoice::LineUnit, &DistConfig::from(&cfg)).unwrap();
    assert_eq!(logical.solution, distributed.solution);
    assert_eq!(logical.lambda.to_bits(), distributed.lambda.to_bits());
    assert_eq!(
        distributed.run.schedules()[0].total_rounds(),
        logical.run.halves()[0].stats.comm_rounds
    );
    distributed.solution.verify(&p).unwrap();
}

#[test]
fn distributed_auto_matches_logical_dispatch() {
    let mut rng = SmallRng::seed_from_u64(5);
    let problems = [
        LineWorkload::new(24, 10).generate(&mut rng),
        LineWorkload::new(24, 10)
            .with_heights(HeightMode::Uniform { hmin: 0.3 })
            .generate(&mut rng),
        TreeWorkload::new(10, 8).with_networks(2).generate(&mut rng),
    ];
    for (i, p) in problems.iter().enumerate() {
        let cfg = SolverConfig::default()
            .with_epsilon(0.3)
            .with_seed(i as u64);
        let logical = solve_auto(p, &cfg).unwrap();
        let distributed = run_distributed_auto(p, &DistConfig::from(&cfg)).unwrap();
        assert_eq!(logical.choice, distributed.choice, "case {i}");
        assert_eq!(logical.solution, distributed.solution, "case {i}");
        assert_eq!(
            logical.lambda.to_bits(),
            distributed.lambda.to_bits(),
            "case {i}"
        );
    }
}

#[test]
fn distributed_round_count_follows_fixed_schedule() {
    let p = TreeWorkload::new(8, 6)
        .with_networks(2)
        .with_profit_ratio(4.0)
        .generate(&mut SmallRng::seed_from_u64(3));
    let cfg = DistConfig {
        epsilon: 0.4,
        ..DistConfig::default()
    };
    let out = run_distributed(&p, AutoChoice::TreeUnit, &cfg).unwrap();
    // Engine rounds = compute schedule + in-network control sweeps +
    // exactly one setup round.
    let schedule = out.run.schedules()[0];
    assert_eq!(
        out.run.metrics().rounds,
        schedule.total_rounds() + schedule.control_rounds() + 1
    );
    // λ reached the (1-ε) target.
    assert!(out.lambda >= 1.0 - 0.4 - 1e-9);
}

#[test]
fn solo_processor_runs_clean() {
    // m = 1: no neighbors, no messages, still correct.
    let mut b = treenet::model::ProblemBuilder::new();
    let t = b.add_network(treenet::graph::Tree::line(5)).unwrap();
    b.add_demand(
        treenet::model::Demand::pair(
            treenet::graph::VertexId(1),
            treenet::graph::VertexId(4),
            3.0,
        ),
        &[t],
    )
    .unwrap();
    let p = b.build().unwrap();
    let out = run_distributed(&p, AutoChoice::TreeUnit, &DistConfig::default()).unwrap();
    assert_eq!(out.solution.len(), 1);
    assert_eq!(out.run.metrics().messages, 0);
}
