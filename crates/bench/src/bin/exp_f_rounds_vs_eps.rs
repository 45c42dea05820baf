//! **Experiment F-rounds-eps** — Theorem 5.3: the stage count per epoch
//! is exactly `⌈log_ξ ε⌉` (ξ = 14/15), so rounds grow as `log(1/ε)`
//! while the certified approximation factor approaches `Δ+1 = 7`.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_bench::report::{f2, f3};
use treenet_bench::stats::summarize;
use treenet_bench::{seeds, Scale, Table};
use treenet_core::{solve, stages_for, AutoChoice, SolverConfig};
use treenet_model::workload::TreeWorkload;

fn main() {
    let scale = Scale::from_env();
    let epsilons: Vec<f64> = scale.pick(
        vec![0.5, 0.3, 0.1, 0.05],
        vec![0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01],
    );
    let runs = seeds(scale.pick(3, 10));
    let xi = 14.0 / 15.0;
    let mut table = Table::new(
        "F-rounds-eps — rounds and certified ratio vs ε (tree unit, n = 32, m = 64)",
        &[
            "ε",
            "stages/epoch = ceil(log_ξ ε)",
            "λ (min)",
            "certified ratio (max)",
            "7/(1-ε)",
            "comm rounds (mean)",
        ],
    );
    for &eps in &epsilons {
        let mut lambdas = Vec::new();
        let mut ratios = Vec::new();
        let mut rounds = Vec::new();
        for &seed in &runs {
            let p = TreeWorkload::new(32, 64)
                .with_networks(3)
                .generate(&mut SmallRng::seed_from_u64(seed));
            let cfg = SolverConfig::default().with_epsilon(eps).with_seed(seed);
            let out = solve(&p, AutoChoice::TreeUnit, &cfg).unwrap();
            lambdas.push(out.lambda);
            ratios.push(out.certified_ratio(&p));
            rounds.push(out.run.halves()[0].stats.comm_rounds as f64);
        }
        let bound = 7.0 / (1.0 - eps);
        table.row(&[
            f3(eps),
            stages_for(eps, xi).to_string(),
            f3(summarize(&lambdas).min),
            f3(summarize(&ratios).max),
            f3(bound),
            f2(summarize(&rounds).mean),
        ]);
        assert!(summarize(&lambdas).min >= 1.0 - eps - 1e-9);
        assert!(summarize(&ratios).max <= bound + 1e-6);
    }
    table.print();
    println!("stage count follows ceil(log_ξ ε) exactly; rounds grow ∝ log(1/ε).");
}
