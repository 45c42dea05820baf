//! **Ablation A-MIS** — the pluggable `Time(MIS)` factor: Luby's
//! randomized algorithm vs the deterministic local-minimum rule inside
//! the full scheduler. Both yield valid MIS's (so the approximation
//! guarantee is identical); they differ in round behaviour — Luby is
//! `O(log N)` whp, the deterministic rule can serialize along decreasing
//! key chains — and in reproducibility (the deterministic backend is
//! seed-independent).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_bench::report::f3;
use treenet_bench::stats::summarize;
use treenet_bench::{seeds, Scale, Table};
use treenet_core::{solve, AutoChoice, SolverConfig};
use treenet_mis::MisBackend;
use treenet_model::workload::TreeWorkload;

fn main() {
    let scale = Scale::from_env();
    let runs = seeds(scale.pick(5, 15));
    let ns: Vec<usize> = scale.pick(vec![32, 128], vec![32, 128, 512]);
    let mut table = Table::new(
        "A-MIS — scheduler behaviour under each MIS backend (tree unit, m = 2n)",
        &[
            "n",
            "backend",
            "MIS iters (mean)",
            "comm rounds (mean)",
            "certified mean",
            "λ min",
        ],
    );
    for &n in &ns {
        for backend in [MisBackend::Luby, MisBackend::DeterministicGreedy] {
            let mut iters = Vec::new();
            let mut rounds = Vec::new();
            let mut cert = Vec::new();
            let mut lam = 1.0f64;
            for &seed in &runs {
                let p = TreeWorkload::new(n, 2 * n)
                    .with_networks(2)
                    .generate(&mut SmallRng::seed_from_u64(seed));
                let cfg = SolverConfig::default()
                    .with_seed(seed)
                    .with_mis_backend(backend);
                let out = solve(&p, AutoChoice::TreeUnit, &cfg).unwrap();
                out.solution.verify(&p).unwrap();
                let stats = out.run.halves()[0].stats;
                iters.push(stats.mis_rounds as f64);
                rounds.push(stats.comm_rounds as f64);
                cert.push(out.certified_ratio(&p));
                lam = lam.min(out.lambda);
            }
            table.row(&[
                n.to_string(),
                backend.name().into(),
                f3(summarize(&iters).mean),
                f3(summarize(&rounds).mean),
                f3(summarize(&cert).mean),
                f3(lam),
            ]);
            assert!(lam >= 0.9 - 1e-9, "λ target holds under {}", backend.name());
            assert!(summarize(&cert).max <= 7.0 / lam + 1e-6);
        }
    }
    table.print();
    println!(
        "both backends satisfy Theorem 5.3 (the guarantee only needs *some* MIS); the \
         backend choice trades rounds for determinism, exactly the paper's \
         Luby-vs-deterministic discussion."
    );
}
