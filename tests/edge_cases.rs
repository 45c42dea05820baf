//! Edge cases every public entry point must survive: empty problems,
//! degenerate parameters, single instances, saturated workloads.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet::baseline::{exact_max_profit, greedy_profit, GreedyOrder};
use treenet::core::{solve, solve_sequential_tree, AutoChoice, SolverConfig};
use treenet::graph::{Tree, VertexId};
use treenet::model::workload::TreeWorkload;
use treenet::model::{Demand, ProblemBuilder, Solution};

fn empty_problem() -> treenet::model::Problem {
    let mut b = ProblemBuilder::new();
    b.add_network(Tree::line(4)).unwrap();
    b.build().unwrap()
}

#[test]
fn zero_demand_problem_everywhere() {
    let p = empty_problem();
    assert_eq!(p.demand_count(), 0);
    assert_eq!(p.instance_count(), 0);
    let out = solve(&p, AutoChoice::TreeUnit, &SolverConfig::default()).unwrap();
    assert!(out.solution.is_empty());
    assert_eq!(out.lambda, 1.0);
    assert_eq!(out.certified_ratio(&p), 1.0);
    for choice in [AutoChoice::LineUnit, AutoChoice::TreeArbitrary] {
        let out = solve(&p, choice, &SolverConfig::default()).unwrap();
        assert!(out.solution.is_empty());
    }
    let seq = solve_sequential_tree(&p);
    assert!(seq.solution.is_empty());
    assert!(greedy_profit(&p, GreedyOrder::Profit).is_empty());
    assert!(exact_max_profit(&p, 100).unwrap().is_empty());
    assert!(Solution::empty().verify(&p).is_ok());
}

#[test]
fn extreme_epsilons() {
    let p = TreeWorkload::new(10, 8).generate(&mut SmallRng::seed_from_u64(1));
    // Very loose: one stage per epoch.
    let run = |epsilon| {
        let cfg = SolverConfig::default().with_epsilon(epsilon);
        solve(&p, AutoChoice::TreeUnit, &cfg).unwrap()
    };
    let loose = run(0.9);
    loose.solution.verify(&p).unwrap();
    assert!(loose.lambda >= 0.1 - 1e-9);
    // Very tight: λ within 1% of 1.
    let tight = run(0.01);
    tight.solution.verify(&p).unwrap();
    assert!(tight.lambda >= 0.99 - 1e-9);
    // Tight costs more stages.
    assert!(tight.run.halves()[0].stats.stages > loose.run.halves()[0].stats.stages);
}

#[test]
fn two_vertex_network() {
    // The smallest legal network: one edge.
    let mut b = ProblemBuilder::new();
    let t = b.add_network(Tree::line(2)).unwrap();
    for i in 0..3 {
        b.add_demand(Demand::pair(VertexId(0), VertexId(1), (i + 1) as f64), &[t])
            .unwrap();
    }
    let p = b.build().unwrap();
    let out = solve(&p, AutoChoice::TreeUnit, &SolverConfig::default()).unwrap();
    out.solution.verify(&p).unwrap();
    // Only one of the three all-conflicting demands fits; the certified
    // bound still holds and OPT = 3 is within it.
    assert_eq!(out.solution.len(), 1);
    assert!(out.opt_upper_bound + 1e-9 >= 3.0);
}

#[test]
fn fully_saturated_clique_workload() {
    // Every demand wants the same full-length route.
    let mut b = ProblemBuilder::new();
    let t = b.add_network(Tree::line(6)).unwrap();
    for i in 0..10 {
        b.add_demand(Demand::pair(VertexId(0), VertexId(5), 1.0 + i as f64), &[t])
            .unwrap();
    }
    let p = b.build().unwrap();
    let out = solve(&p, AutoChoice::TreeUnit, &SolverConfig::default()).unwrap();
    out.solution.verify(&p).unwrap();
    assert_eq!(out.solution.len(), 1);
    // The second phase must keep the most profitable raised demand or a
    // successor — certified ratio stays within 7/(1-ε).
    assert!(out.certified_ratio(&p) <= 7.0 / 0.9 + 1e-6);
    let opt = exact_max_profit(&p, 10_000).unwrap();
    assert_eq!(opt.profit(&p), 10.0);
    assert!(opt.profit(&p) / out.solution.profit(&p) <= 7.0 / 0.9);
}

#[test]
fn identical_profits_break_ties_deterministically() {
    let mut b = ProblemBuilder::new();
    let t = b.add_network(Tree::line(8)).unwrap();
    for s in 0..4 {
        b.add_demand(Demand::pair(VertexId(s), VertexId(s + 4), 1.0), &[t])
            .unwrap();
    }
    let p = b.build().unwrap();
    let cfg = SolverConfig::default().with_seed(5);
    let a = solve(&p, AutoChoice::TreeUnit, &cfg).unwrap();
    let b2 = solve(&p, AutoChoice::TreeUnit, &cfg).unwrap();
    assert_eq!(a.solution, b2.solution);
    a.solution.verify(&p).unwrap();
}

#[test]
fn star_network_hub_contention() {
    // A star: every path crosses the hub, so paths between distinct leaf
    // pairs still only conflict when they share an edge (spoke).
    let star = Tree::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]).unwrap();
    let mut b = ProblemBuilder::new();
    let t = b.add_network(star).unwrap();
    b.add_demand(Demand::pair(VertexId(1), VertexId(2), 3.0), &[t])
        .unwrap();
    b.add_demand(Demand::pair(VertexId(3), VertexId(4), 2.0), &[t])
        .unwrap();
    b.add_demand(Demand::pair(VertexId(1), VertexId(5), 1.0), &[t])
        .unwrap();
    let p = b.build().unwrap();
    let out = solve(&p, AutoChoice::TreeUnit, &SolverConfig::default()).unwrap();
    out.solution.verify(&p).unwrap();
    // Demands 0 and 1 are spoke-disjoint; 2 shares spoke 0-1 with 0.
    assert!(out.solution.len() >= 2);
    let opt = exact_max_profit(&p, 10_000).unwrap();
    assert_eq!(opt.profit(&p), 5.0);
}
