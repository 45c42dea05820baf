//! Scale tests: moderate sizes run in the default suite; the large ones
//! are `#[ignore]`d (run with `cargo test --release -- --ignored`).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet::core::{solve, solve_sequential_tree, AutoChoice, SolverConfig};
use treenet::model::workload::{LineWorkload, TreeWorkload};

#[test]
fn moderate_tree_instance() {
    // n = 200 vertices, 400 demands, 4 networks: a realistic mid-size run.
    let p = TreeWorkload::new(200, 400)
        .with_networks(4)
        .with_profit_ratio(32.0)
        .generate(&mut SmallRng::seed_from_u64(1));
    let out = solve(&p, AutoChoice::TreeUnit, &SolverConfig::default()).unwrap();
    out.solution.verify(&p).unwrap();
    assert!(out.lambda >= 0.9 - 1e-9);
    assert!(out.certified_ratio(&p) <= 7.0 / 0.9 + 1e-6);
    // Epoch count stays logarithmic.
    let epochs = out.run.halves()[0].stats.epochs;
    assert!(epochs as f64 <= 2.0 * (200f64).log2().ceil() + 1.0);
}

#[test]
fn moderate_line_instance() {
    let p = LineWorkload::new(300, 500)
        .with_resources(4)
        .with_window_slack(4)
        .with_len_range(1, 40)
        .generate(&mut SmallRng::seed_from_u64(2));
    let out = solve(&p, AutoChoice::LineUnit, &SolverConfig::default()).unwrap();
    out.solution.verify(&p).unwrap();
    assert!(out.run.halves()[0].delta <= 3);
    assert!(out.certified_ratio(&p) <= 4.0 / 0.9 + 1e-6);
}

#[test]
#[ignore = "large: ~n=2048, run with --ignored in release"]
fn large_tree_instance() {
    let p = TreeWorkload::new(2048, 4096)
        .with_networks(3)
        .with_profit_ratio(64.0)
        .generate(&mut SmallRng::seed_from_u64(3));
    let out = solve(&p, AutoChoice::TreeUnit, &SolverConfig::default()).unwrap();
    out.solution.verify(&p).unwrap();
    assert!(out.lambda >= 0.9 - 1e-9);
    let epochs = out.run.halves()[0].stats.epochs;
    assert!(epochs as f64 <= 2.0 * (2048f64).log2().ceil() + 1.0);
    let seq = solve_sequential_tree(&p);
    seq.solution.verify(&p).unwrap();
}

#[test]
#[ignore = "large: dense windows, run with --ignored in release"]
fn large_line_instance() {
    let p = LineWorkload::new(1000, 2000)
        .with_resources(4)
        .with_window_slack(8)
        .with_len_range(1, 100)
        .generate(&mut SmallRng::seed_from_u64(4));
    let out = solve(&p, AutoChoice::LineUnit, &SolverConfig::default()).unwrap();
    out.solution.verify(&p).unwrap();
    assert!(out.certified_ratio(&p) <= 4.0 / 0.9 + 1e-6);
}
