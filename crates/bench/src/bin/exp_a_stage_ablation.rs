//! **Ablation A-stage** — isolating the paper's second contribution: the
//! multi-stage schedule (λ = 1-ε) vs the single-stage PS drop-out
//! (λ = 1/(5+ε)) *on the same ideal tree decomposition*. Both columns
//! are `run_two_phase`; PS is its one-stage schedule
//! (`PsConfig::framework_config`: `ε = ξ = 1 - 1/(5+ε)`). The only
//! difference between the two columns is the stage schedule, so the
//! certified-ratio gap is exactly what the `(20+ε) → (7+ε)`-style
//! improvement buys — at the price of a `log(1/ε)` factor more rounds.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_baseline::PsConfig;
use treenet_bench::report::f3;
use treenet_bench::stats::summarize;
use treenet_bench::{seeds, Scale, Table};
use treenet_core::{run_two_phase, solve, AutoChoice, RaiseRule, SolverConfig};
use treenet_decomp::{LayeredDecomposition, Strategy};
use treenet_model::workload::TreeWorkload;
use treenet_model::InstanceId;

fn main() {
    let scale = Scale::from_env();
    let runs = seeds(scale.pick(6, 20));
    let mut multi_lambda = Vec::new();
    let mut multi_cert = Vec::new();
    let mut multi_steps = Vec::new();
    let mut single_lambda = Vec::new();
    let mut single_cert = Vec::new();
    let mut single_steps = Vec::new();
    for &seed in &runs {
        let p = TreeWorkload::new(32, 64)
            .with_networks(2)
            .generate(&mut SmallRng::seed_from_u64(seed));
        // Multi-stage (ours).
        let cfg = SolverConfig::default().with_seed(seed);
        let ours = solve(&p, AutoChoice::TreeUnit, &cfg).unwrap();
        multi_lambda.push(ours.lambda);
        multi_cert.push(ours.certified_ratio(&p));
        multi_steps.push(ours.run.halves()[0].stats.steps as f64);
        // The one-stage PS schedule on the same ideal decomposition.
        let layers = LayeredDecomposition::for_trees(&p, Strategy::Ideal);
        let all: Vec<InstanceId> = p.instances().map(|d| d.id).collect();
        let one_stage = PsConfig {
            seed,
            ..PsConfig::default()
        }
        .framework_config()
        .unwrap();
        let ps = run_two_phase(&p, &layers, RaiseRule::Unit, &one_stage, &all).unwrap();
        ps.solution.verify(&p).unwrap();
        single_lambda.push(ps.lambda);
        single_cert.push(ps.certified_ratio(&p));
        single_steps.push(ps.stats.steps as f64);
    }
    let mut table = Table::new(
        "A-stage — multi-stage vs single-stage on the SAME ideal decomposition (tree unit, n = 32, m = 64)",
        &["discipline", "λ min", "certified mean", "certified max", "steps mean"],
    );
    table.row(&[
        "multi-stage (ours, ξ=14/15)".into(),
        f3(summarize(&multi_lambda).min),
        f3(summarize(&multi_cert).mean),
        f3(summarize(&multi_cert).max),
        f3(summarize(&multi_steps).mean),
    ]);
    table.row(&[
        "single-stage (PS drop-out)".into(),
        f3(summarize(&single_lambda).min),
        f3(summarize(&single_cert).mean),
        f3(summarize(&single_cert).max),
        f3(summarize(&single_steps).mean),
    ]);
    table.print();
    let gap = summarize(&single_cert).mean / summarize(&multi_cert).mean;
    println!(
        "certified-bound gap (single/multi) = {} — the multi-stage refinement alone",
        f3(gap)
    );
    assert!(summarize(&multi_lambda).min >= 0.9 - 1e-9);
    assert!(
        summarize(&single_lambda).min >= 1.0 / 5.1 - 1e-9,
        "the one-stage schedule must reach 1/(5+ε)"
    );
    assert!(
        gap > 1.5,
        "multi-stage should certify substantially tighter"
    );
}
