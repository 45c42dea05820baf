//! **Experiment T1 — the approximation-ratio table** (the paper's headline
//! comparison, Section 1):
//!
//! | setting | prior work | this paper |
//! |---|---|---|
//! | line, unit height | PS (20+ε) | (4+ε) |
//! | line, arbitrary height | PS (55+ε) | (23+ε) |
//! | tree, unit height | — | (7+ε) |
//! | tree, arbitrary height | — | (80+ε) |
//! | tree, sequential | 3 (2 for r = 1) | — |
//!
//! For each row we measure, over seeded random workloads: the certified
//! a-posteriori ratio (dual bound / achieved profit), the exact ratio
//! against branch-and-bound OPT (small instances), and check both stay
//! below the theorem's guarantee.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_baseline::{
    barnoy_line_arbitrary, barnoy_line_unit, exact_max_profit, ps_line_arbitrary, ps_line_unit,
    PsConfig,
};
use treenet_bench::report::f3;
use treenet_bench::{seeds, Scale, Table};
use treenet_core::{certified_ratio, solve, solve_sequential_tree, AutoChoice, SolverConfig};
use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
use treenet_model::Problem;

struct Row {
    setting: &'static str,
    algorithm: &'static str,
    guarantee: f64,
    certified: Vec<f64>,
    vs_opt: Vec<f64>,
}

fn vs_opt(problem: &Problem, profit: f64) -> Option<f64> {
    exact_max_profit(problem, 40_000_000)
        .ok()
        .map(|opt| certified_ratio(opt.profit(problem), profit))
}

/// One seed's worth of measurements, run on a worker thread (the exact
/// solvers dominate the cost).
struct SeedResult {
    /// (row index, certified ratio, optional vs-OPT ratio).
    entries: Vec<(usize, f64, Option<f64>)>,
}

fn main() {
    let scale = Scale::from_env();
    let eps = 0.1;
    let runs = seeds(scale.pick(5, 20));
    let cfg = SolverConfig::default().with_epsilon(eps);
    let mut rows: Vec<Row> = vec![
        Row {
            setting: "line unit",
            algorithm: "ours (4+eps)",
            guarantee: 4.0 / (1.0 - eps),
            certified: vec![],
            vs_opt: vec![],
        },
        Row {
            setting: "line unit",
            algorithm: "PS (20+eps)",
            guarantee: 4.0 * (5.0 + eps),
            certified: vec![],
            vs_opt: vec![],
        },
        Row {
            setting: "line arbitrary",
            algorithm: "ours (23+eps)",
            guarantee: 23.0 / (1.0 - eps),
            certified: vec![],
            vs_opt: vec![],
        },
        Row {
            setting: "line arbitrary",
            algorithm: "PS-style (55+eps)",
            guarantee: 55.0,
            certified: vec![],
            vs_opt: vec![],
        },
        Row {
            setting: "line unit (sequential)",
            algorithm: "Bar-Noy et al. (2)",
            guarantee: 2.0,
            certified: vec![],
            vs_opt: vec![],
        },
        Row {
            setting: "line arbitrary (sequential)",
            algorithm: "Bar-Noy et al. (5)",
            guarantee: 5.0,
            certified: vec![],
            vs_opt: vec![],
        },
        Row {
            setting: "tree unit",
            algorithm: "ours (7+eps)",
            guarantee: 7.0 / (1.0 - eps),
            certified: vec![],
            vs_opt: vec![],
        },
        Row {
            setting: "tree arbitrary",
            algorithm: "ours (80+eps)",
            guarantee: 80.0 / (1.0 - eps),
            certified: vec![],
            vs_opt: vec![],
        },
        Row {
            setting: "tree sequential",
            algorithm: "Appendix A (3)",
            guarantee: 3.0,
            certified: vec![],
            vs_opt: vec![],
        },
        Row {
            setting: "single-tree sequential",
            algorithm: "Appendix A (2)",
            guarantee: 2.0,
            certified: vec![],
            vs_opt: vec![],
        },
    ];

    // One worker per seed: exact branch-and-bound dominates, so spread it.
    let results: Vec<SeedResult> = treenet_bench::parallel_map(runs.clone(), |seed| {
        let mut entries: Vec<(usize, f64, Option<f64>)> = Vec::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        // Lines (unit).
        let lp = LineWorkload::new(40, 14)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(1, 10)
            .generate(&mut rng);
        let cfg = cfg.clone().with_seed(seed);
        let ours = solve(&lp, AutoChoice::LineUnit, &cfg).unwrap();
        ours.solution.verify(&lp).unwrap();
        let profit = ours.solution.profit(&lp);
        entries.push((0, ours.certified_ratio(&lp), vs_opt(&lp, profit)));
        let ps = ps_line_unit(
            &lp,
            &PsConfig {
                seed,
                ..PsConfig::default()
            },
        )
        .unwrap();
        ps.solution.verify(&lp).unwrap();
        entries.push((1, ps.certified_ratio(&lp), vs_opt(&lp, ps.profit(&lp))));

        // Lines (arbitrary heights).
        let la = LineWorkload::new(36, 12)
            .with_resources(2)
            .with_len_range(1, 8)
            .with_heights(HeightMode::Bimodal {
                narrow_frac: 0.5,
                hmin: 0.2,
            })
            .generate(&mut rng);
        let ours = solve(&la, AutoChoice::LineArbitrary, &cfg).unwrap();
        ours.solution.verify(&la).unwrap();
        let profit = ours.solution.profit(&la);
        entries.push((2, ours.certified_ratio(&la), vs_opt(&la, profit)));
        let ps = ps_line_arbitrary(
            &la,
            &PsConfig {
                seed,
                ..PsConfig::default()
            },
        )
        .unwrap();
        ps.solution.verify(&la).unwrap();
        entries.push((3, ps.certified_ratio(&la), vs_opt(&la, ps.profit(&la))));

        // Sequential Bar-Noy baselines on the same line workloads.
        let bn = barnoy_line_unit(&lp);
        bn.solution.verify(&lp).unwrap();
        entries.push((4, bn.certified_ratio(&lp), vs_opt(&lp, bn.profit(&lp))));
        let (bn_sol, bn_w, bn_n) = barnoy_line_arbitrary(&la);
        bn_sol.verify(&la).unwrap();
        let bn_bound = bn_w.opt_upper_bound() + bn_n.opt_upper_bound();
        let bn_profit = bn_sol.profit(&la);
        entries.push((
            5,
            certified_ratio(bn_bound, bn_profit),
            vs_opt(&la, bn_profit),
        ));

        // Trees (unit).
        let tp = TreeWorkload::new(24, 12)
            .with_networks(2)
            .generate(&mut rng);
        let ours = solve(&tp, AutoChoice::TreeUnit, &cfg).unwrap();
        ours.solution.verify(&tp).unwrap();
        let profit = ours.solution.profit(&tp);
        entries.push((6, ours.certified_ratio(&tp), vs_opt(&tp, profit)));

        // Trees (arbitrary heights).
        let ta = TreeWorkload::new(20, 11)
            .with_networks(2)
            .with_heights(HeightMode::Bimodal {
                narrow_frac: 0.5,
                hmin: 0.2,
            })
            .generate(&mut rng);
        let ours = solve(&ta, AutoChoice::TreeArbitrary, &cfg).unwrap();
        ours.solution.verify(&ta).unwrap();
        let profit = ours.solution.profit(&ta);
        entries.push((7, ours.certified_ratio(&ta), vs_opt(&ta, profit)));

        // Sequential (multi-tree and single-tree).
        let seq = solve_sequential_tree(&tp);
        seq.solution.verify(&tp).unwrap();
        entries.push((8, seq.certified_ratio(&tp), vs_opt(&tp, seq.profit(&tp))));
        let single = TreeWorkload::new(20, 10)
            .with_networks(1)
            .generate(&mut rng);
        let seq1 = solve_sequential_tree(&single);
        seq1.solution.verify(&single).unwrap();
        entries.push((
            9,
            seq1.certified_ratio(&single),
            vs_opt(&single, seq1.profit(&single)),
        ));
        SeedResult { entries }
    });
    for result in results {
        for (idx, certified, opt) in result.entries {
            rows[idx].certified.push(certified);
            if let Some(r) = opt {
                rows[idx].vs_opt.push(r);
            }
        }
    }

    let mut table = Table::new(
        "T1 — approximation ratios (certified = dual bound / profit; vs-OPT = exact optimum / profit)",
        &["setting", "algorithm", "guarantee", "certified mean", "certified max", "vs-OPT mean", "vs-OPT max", "within bound"],
    );
    for row in &rows {
        let cert = treenet_bench::stats::summarize(&row.certified);
        let opt = if row.vs_opt.is_empty() {
            None
        } else {
            Some(treenet_bench::stats::summarize(&row.vs_opt))
        };
        let ok =
            cert.max <= row.guarantee + 1e-6 && opt.is_none_or(|o| o.max <= row.guarantee + 1e-6);
        table.row(&[
            row.setting.into(),
            row.algorithm.into(),
            f3(row.guarantee),
            f3(cert.mean),
            f3(cert.max),
            opt.map_or("-".into(), |o| f3(o.mean)),
            opt.map_or("-".into(), |o| f3(o.max)),
            if ok { "yes".into() } else { "VIOLATED".into() },
        ]);
        assert!(
            ok,
            "{} / {}: guarantee violated",
            row.setting, row.algorithm
        );
    }
    table.print();
    println!("runs per row: {}", runs.len());
}
