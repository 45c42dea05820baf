//! **Experiment F-narrow-wide** — Theorem 6.3: the arbitrary-height tree
//! scheduler (wide→unit + narrow→modified-raising + per-network combine)
//! stays within the certified (80+ε) bound, and its stage count grows as
//! `O(1/hmin)` (the `ξ = c/(c+hmin)` schedule).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_bench::report::{f2, f3};
use treenet_bench::stats::summarize;
use treenet_bench::{seeds, Scale, Table};
use treenet_core::{narrow_xi, solve, stages_for, AutoChoice, AutoRun, SolverConfig};
use treenet_model::workload::{HeightMode, TreeWorkload};

fn main() {
    let scale = Scale::from_env();
    let runs = seeds(scale.pick(4, 12));
    let hmins: Vec<f64> = scale.pick(
        vec![0.5, 0.25, 0.125],
        vec![0.5, 0.25, 0.125, 0.0625, 0.03125],
    );
    let eps = 0.1;
    let mut table = Table::new(
        "F-narrow-wide — arbitrary heights on trees (n = 24, m = 30, ε = 0.1)",
        &[
            "hmin",
            "stages/epoch (ξ=c/(c+hmin))",
            "certified ratio mean",
            "certified ratio max",
            "80/(1-ε)",
            "combine gain mean [%]",
        ],
    );
    for &hmin in &hmins {
        let stages = stages_for(eps, narrow_xi(6, hmin));
        let mut ratios = Vec::new();
        let mut gain = Vec::new();
        for &seed in &runs {
            let p = TreeWorkload::new(24, 30)
                .with_networks(2)
                .with_heights(HeightMode::Bimodal {
                    narrow_frac: 0.6,
                    hmin,
                })
                .generate(&mut SmallRng::seed_from_u64(seed));
            let cfg = SolverConfig::default().with_epsilon(eps).with_seed(seed);
            let AutoRun::Split(out) = solve(&p, AutoChoice::TreeArbitrary, &cfg).unwrap().run
            else {
                unreachable!("Theorem 6.3 splits wide and narrow demands");
            };
            out.solution.verify(&p).unwrap();
            ratios.push(out.certified_ratio(&p));
            let best_side = out.wide.profit(&p).max(out.narrow.profit(&p));
            if best_side > 0.0 {
                gain.push(100.0 * (out.profit(&p) / best_side - 1.0));
            }
        }
        let bound = 80.0 / (1.0 - eps);
        let r = summarize(&ratios);
        table.row(&[
            f3(hmin),
            stages.to_string(),
            f3(r.mean),
            f3(r.max),
            f3(bound),
            f2(summarize(&gain).mean),
        ]);
        assert!(
            r.max <= bound + 1e-6,
            "Theorem 6.3 bound violated at hmin = {hmin}"
        );
    }
    table.print();
    println!(
        "stages/epoch doubles as hmin halves (the O(1/hmin) factor of Theorem 6.3); \
         the certified ratio stays far below 80/(1-ε)."
    );
}
