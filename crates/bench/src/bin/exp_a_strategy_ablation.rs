//! **Ablation A-strategy** — why the ideal tree decomposition matters
//! (the design choice DESIGN.md calls out): run the full tree-network
//! scheduler with each of the three decompositions and observe the
//! trade-off the paper describes in Section 4:
//!
//! * root-fixing: `θ = 1` → small `Δ` (≤ 4, better ratio constant) but up
//!   to `n` epochs → linear round blow-up;
//! * balancing: `O(log n)` epochs but `θ` up to `log n` → `Δ` grows, the
//!   certified ratio constant degrades with `n`;
//! * ideal: `O(log n)` epochs *and* `Δ ≤ 6` — the only column where both
//!   the rounds and the guarantee stay bounded.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_bench::report::f3;
use treenet_bench::stats::summarize;
use treenet_bench::{seeds, Scale, Table};
use treenet_core::{solve, AutoChoice, SolverConfig};
use treenet_decomp::Strategy;
use treenet_model::workload::TreeWorkload;

fn main() {
    let scale = Scale::from_env();
    let runs = seeds(scale.pick(3, 10));
    let ns: Vec<usize> = scale.pick(vec![32, 128], vec![32, 128, 512]);
    let mut table = Table::new(
        "A-strategy — the scheduler under each tree decomposition (unit height, m = 2n)",
        &[
            "n",
            "strategy",
            "Δ",
            "epochs (mean)",
            "comm rounds (mean)",
            "guarantee (Δ+1)/λ",
            "certified (mean)",
        ],
    );
    for &n in &ns {
        for strategy in Strategy::ALL {
            let mut epochs = Vec::new();
            let mut rounds = Vec::new();
            let mut certified = Vec::new();
            let mut delta = 0usize;
            let mut lambda_min = 1.0f64;
            for &seed in &runs {
                let p = TreeWorkload::new(n, 2 * n)
                    .with_networks(2)
                    .generate(&mut SmallRng::seed_from_u64(seed));
                let cfg = SolverConfig::default()
                    .with_strategy(strategy)
                    .with_seed(seed);
                let out = solve(&p, AutoChoice::TreeUnit, &cfg).unwrap();
                out.solution.verify(&p).unwrap();
                let run = out.run.halves()[0];
                epochs.push(run.stats.epochs as f64);
                rounds.push(run.stats.comm_rounds as f64);
                certified.push(out.certified_ratio(&p));
                delta = delta.max(run.delta);
                lambda_min = lambda_min.min(out.lambda);
            }
            let guarantee = (delta as f64 + 1.0) / lambda_min;
            table.row(&[
                n.to_string(),
                strategy.name().into(),
                delta.to_string(),
                f3(summarize(&epochs).mean),
                f3(summarize(&rounds).mean),
                f3(guarantee),
                f3(summarize(&certified).mean),
            ]);
            assert!(summarize(&certified).max <= guarantee + 1e-6);
        }
    }
    table.print();
    println!(
        "the ablation reproduces Section 4's trade-off: root-fixing keeps Δ small but \
         inflates epochs (rounds ∝ depth, up to n), while the log-depth strategies \
         keep epochs ~log n. On random trees the balancing pivot happens to stay \
         small; F-decomp shows it growing past 2 (up to Θ(log n) worst case), which \
         is exactly the degradation the ideal decomposition's θ ≤ 2 rules out."
    );
}
