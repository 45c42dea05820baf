//! **Experiment F-rounds-n** — Theorem 5.3: with ε and pmax/pmin fixed,
//! the number of communication rounds of the tree-network scheduler grows
//! as `O(Time(MIS) · log n)`. We sweep `n` geometrically and report the
//! epoch count (≤ 2⌈log n⌉+1 by Lemma 4.1), steps, Luby iterations and
//! the derived communication rounds; the fitted slope of rounds against
//! `log₂ n` should dominate the growth (correlation near 1).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_bench::report::{f2, f3};
use treenet_bench::stats::{correlation, summarize};
use treenet_bench::{seeds, Scale, Table};
use treenet_core::{solve, AutoChoice, SolverConfig};
use treenet_model::workload::TreeWorkload;

fn main() {
    let scale = Scale::from_env();
    let ns: Vec<usize> = scale.pick(
        vec![16, 32, 64, 128, 256],
        vec![16, 32, 64, 128, 256, 512, 1024],
    );
    let runs = seeds(scale.pick(3, 10));
    let mut table = Table::new(
        "F-rounds-n — round complexity vs n (tree unit, ε = 0.1, pmax/pmin = 8, m = 2n demands)",
        &[
            "n",
            "2*ceil(log2 n)+1",
            "epochs (mean)",
            "steps (mean)",
            "MIS iters (mean)",
            "comm rounds (mean)",
            "rounds/log2(n)",
        ],
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &n in &ns {
        let mut epochs = Vec::new();
        let mut steps = Vec::new();
        let mut mis = Vec::new();
        let mut rounds = Vec::new();
        for &seed in &runs {
            let p = TreeWorkload::new(n, 2 * n)
                .with_networks(3)
                .with_profit_ratio(8.0)
                .generate(&mut SmallRng::seed_from_u64(seed));
            let cfg = SolverConfig::default().with_seed(seed);
            let out = solve(&p, AutoChoice::TreeUnit, &cfg).unwrap();
            out.solution.verify(&p).unwrap();
            let stats = out.run.halves()[0].stats;
            epochs.push(stats.epochs as f64);
            steps.push(stats.steps as f64);
            mis.push(stats.mis_rounds as f64);
            rounds.push(stats.comm_rounds as f64);
        }
        let log2n = (n as f64).log2();
        let bound = 2.0 * log2n.ceil() + 1.0;
        let r = summarize(&rounds);
        table.row(&[
            n.to_string(),
            f2(bound),
            f2(summarize(&epochs).mean),
            f2(summarize(&steps).mean),
            f2(summarize(&mis).mean),
            f2(r.mean),
            f2(r.mean / log2n),
        ]);
        assert!(
            summarize(&epochs).max <= bound,
            "epoch count exceeded the Lemma 4.1 depth bound at n = {n}"
        );
        xs.push(log2n);
        ys.push(r.mean);
    }
    table.print();
    let corr = correlation(&xs, &ys);
    println!("correlation(comm rounds, log2 n) = {}", f3(corr));
    assert!(corr > 0.9, "rounds should track log n");
}
