//! **Experiment F-dist** — Sections 5–7 as real message-passing
//! computations: the distributed runners of all four theorem families
//! (tree/line × unit/arbitrary heights, Theorems 5.3, 6.3, 7.1 and 7.2)
//! reproduce the logical schedulers exactly — same solutions,
//! bit-identical λ (per half for the wide/narrow splits) — with every
//! message bounded by one demand descriptor (the paper's `O(M)` bits)
//! and the engine round count following the documented setup + compute
//! + in-network-control (+ combiner for splits) relation exactly.
//!
//! Scenarios are named `<tree|line>-<unit|arbitrary>-<size>x<m>`, where
//! `size` is the vertex count of a tree or the slot count of a line;
//! `--scenarios` (shared across the dist bench bins via
//! `treenet_bench::DistArgs`) selects by substring and `--smoke` forces
//! the reduced grid.
//!
//! The CI determinism job runs this bin twice — `--threads 1` and
//! `--threads 4`, both with `--shuffle <seed>` — and diffs the files
//! written by `--out` byte-for-byte: every run's full solution, schedule
//! and λ bit pattern, so any thread-count-dependent divergence of the
//! sharded engine fails the lane.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_bench::report::f3;
use treenet_bench::{seeds, DistArgs, Scale, Table};
use treenet_core::{
    solve_line_arbitrary, solve_line_unit, solve_tree_arbitrary, solve_tree_unit, CombinedOutcome,
    Outcome, SolverConfig,
};
use treenet_dist::{
    descriptor_bits, run_distributed_line_arbitrary, run_distributed_line_unit,
    run_distributed_tree_arbitrary, run_distributed_tree_unit, DistCombinedOutcome, DistConfig,
    DistOutcome, COMBINE_ROUNDS,
};
use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
use treenet_model::Problem;
use treenet_netsim::Metrics;

/// The height mix of the arbitrary-height scenarios.
const BIMODAL: HeightMode = HeightMode::Bimodal {
    narrow_frac: 0.5,
    hmin: 0.2,
};

/// One distributed run compared with its logical twin.
struct Checked {
    solutions_equal: bool,
    /// Bitwise, per half for a wide/narrow split.
    lambdas_equal: bool,
    /// `O(M)`-bit messages, the exact engine-round relation, and every
    /// participant `(1-ε)`-satisfied at the end of phase 1.
    invariants_hold: bool,
    control_rounds: u64,
    metrics: Metrics,
    /// Everything the run decided, in a stable text form, so two
    /// invocations at different thread counts can be compared
    /// byte-for-byte.
    record: String,
}

/// A solo run: one setup round plus the compute schedule plus the
/// control stalls (the rounds spent idling on an in-flight echo sweep or
/// the BFS prologue; the sweeps themselves ride the data rounds).
fn check_solo(problem: &Problem, logical: &Outcome, out: &DistOutcome) -> Checked {
    Checked {
        solutions_equal: logical.solution == out.solution,
        lambdas_equal: logical.lambda.to_bits() == out.lambda.to_bits(),
        invariants_hold: !out.final_unsatisfied
            && out.metrics.max_message_bits <= descriptor_bits(problem.network_count())
            && out.metrics.rounds == out.schedule.engine_rounds() + 1,
        control_rounds: out.schedule.control_rounds(),
        metrics: out.metrics,
        record: format!(
            "lambda_bits={:016x} rounds={} messages={} bits={} solution={:?} schedule={:?}",
            out.lambda.to_bits(),
            out.metrics.rounds,
            out.metrics.messages,
            out.metrics.bits,
            out.solution,
            out.schedule,
        ),
    }
}

/// A merged wide/narrow run: the longer half, one setup round, and the
/// in-network combiner's rounds.
fn check_split(problem: &Problem, logical: &CombinedOutcome, out: &DistCombinedOutcome) -> Checked {
    let (wide, narrow) = (&out.wide, &out.narrow);
    Checked {
        solutions_equal: logical.solution == out.solution,
        lambdas_equal: logical.wide.lambda.to_bits() == wide.lambda.to_bits()
            && logical.narrow.lambda.to_bits() == narrow.lambda.to_bits(),
        invariants_hold: !wide.final_unsatisfied
            && !narrow.final_unsatisfied
            && out.metrics.max_message_bits <= descriptor_bits(problem.network_count())
            && out.metrics.rounds
                == wide
                    .schedule
                    .engine_rounds()
                    .max(narrow.schedule.engine_rounds())
                    + 1
                    + COMBINE_ROUNDS,
        control_rounds: wide.schedule.control_rounds() + narrow.schedule.control_rounds(),
        metrics: out.metrics,
        record: format!(
            "wide_lambda_bits={:016x} narrow_lambda_bits={:016x} rounds={} messages={} bits={} \
             solution={:?} wide={:?} narrow={:?}",
            wide.lambda.to_bits(),
            narrow.lambda.to_bits(),
            out.metrics.rounds,
            out.metrics.messages,
            out.metrics.bits,
            out.solution,
            wide,
            narrow,
        ),
    }
}

fn main() {
    let args = DistArgs::from_env();
    let scale = if args.smoke {
        Scale::Small
    } else {
        Scale::from_env()
    };
    let runs = seeds(scale.pick(3, 8));
    let tree_sizes: Vec<(usize, usize)> = scale.pick(
        vec![(8, 6), (12, 10)],
        vec![(8, 6), (12, 10), (16, 14), (24, 20)],
    );
    let line_sizes: Vec<(usize, usize)> = scale.pick(
        vec![(24, 10), (30, 14)],
        vec![(24, 10), (30, 14), (48, 24), (64, 36)],
    );
    let dist_config = |cfg: &SolverConfig| {
        let mut dist = DistConfig::from(cfg);
        if let Some(threads) = args.threads {
            dist.threads = threads;
        }
        dist.shuffle_delivery = args.shuffle;
        dist
    };
    let mut table = Table::new(
        "F-dist — message-passing vs logical execution (Theorems 5.3/6.3/7.1/7.2, ε = 0.3)",
        &[
            "scenario",
            "seed",
            "solutions equal",
            "λ equal (bitwise)",
            "invariants hold",
            "rounds",
            "control rounds",
            "messages",
            "max msg [bits]",
        ],
    );
    let mut all_equal = true;
    let mut ran_any = false;
    let mut emitted = String::new();
    for family in ["tree-unit", "tree-arbitrary", "line-unit", "line-arbitrary"] {
        let sizes = if family.starts_with("tree") {
            &tree_sizes
        } else {
            &line_sizes
        };
        for &(size, m) in sizes {
            let name = format!("{family}-{size}x{m}");
            if !args.selects(&name) {
                continue;
            }
            ran_any = true;
            for &seed in &runs {
                let rng = &mut SmallRng::seed_from_u64(seed);
                let cfg = SolverConfig::default().with_epsilon(0.3).with_seed(seed);
                let dist = dist_config(&cfg);
                let trees = TreeWorkload::new(size, m)
                    .with_networks(2)
                    .with_profit_ratio(4.0);
                let lines = LineWorkload::new(size, m)
                    .with_resources(2)
                    .with_len_range(1, 8);
                let checked = match family {
                    "tree-unit" => {
                        let p = trees.generate(rng);
                        let logical = solve_tree_unit(&p, &cfg).unwrap();
                        check_solo(&p, &logical, &run_distributed_tree_unit(&p, &dist).unwrap())
                    }
                    "tree-arbitrary" => {
                        let p = trees.with_heights(BIMODAL).generate(rng);
                        let logical = solve_tree_arbitrary(&p, &cfg).unwrap();
                        let out = run_distributed_tree_arbitrary(&p, &dist).unwrap();
                        check_split(&p, &logical, &out)
                    }
                    "line-unit" => {
                        let p = lines.with_window_slack(3).generate(rng);
                        let logical = solve_line_unit(&p, &cfg).unwrap();
                        check_solo(&p, &logical, &run_distributed_line_unit(&p, &dist).unwrap())
                    }
                    _ => {
                        let p = lines
                            .with_window_slack(2)
                            .with_heights(BIMODAL)
                            .generate(rng);
                        let logical = solve_line_arbitrary(&p, &cfg).unwrap();
                        let out = run_distributed_line_arbitrary(&p, &dist).unwrap();
                        check_split(&p, &logical, &out)
                    }
                };
                all_equal &=
                    checked.solutions_equal && checked.lambdas_equal && checked.invariants_hold;
                emitted.push_str(&format!("{name} seed={seed} {}\n", checked.record));
                table.row(&[
                    name.clone(),
                    seed.to_string(),
                    checked.solutions_equal.to_string(),
                    checked.lambdas_equal.to_string(),
                    checked.invariants_hold.to_string(),
                    checked.metrics.rounds.to_string(),
                    checked.control_rounds.to_string(),
                    checked.metrics.messages.to_string(),
                    checked.metrics.max_message_bits.to_string(),
                ]);
            }
        }
    }
    table.print();
    assert!(ran_any, "--scenarios filtered out every scenario");
    if let Some(out) = &args.out {
        std::fs::write(out, emitted).expect("write --out file");
        println!("wrote {out}");
    }
    assert!(
        all_equal,
        "distributed execution diverged from the logical one"
    );
    println!(
        "every run: identical solutions, bit-identical λ, max message size at one \
         demand descriptor (the paper's O(M) bits), engine rounds = setup + compute \
         + in-network control (+ combiner for splits), exactly. λ achieved: {}.",
        f3(1.0 - 0.3)
    );
}
