//! **Experiment F-dist-loss** — fault tolerance of the message-passing
//! schedulers: runs the distributed runners over lossy links (seeded
//! Bernoulli drop rates `p ∈ {0, 0.01, 0.05, 0.2}`, recovered by
//! `treenet-netsim`'s reliable-delivery sublayer) and charts the
//! round/message inflation against the lossless baseline. The bin
//! **asserts** the reliability contract and exits non-zero on any
//! violation:
//!
//! * at every `p`, solutions, λ (`to_bits()`-exact) and schedules equal
//!   the lossless run — the sublayer is invisible to the protocol;
//! * the logical traffic (`messages`, `bits`) is identical at every
//!   `p`; overhead lives only in `retransmits`/`acks`/`dup_suppressed`;
//! * recovery-slot inflation respects the shared windowed bound
//!   `treenet_core::retransmit_round_bound(dropped, delayed, window)`;
//! * with the sliding-window ARQ, the heavy `p = 0.2` end inflates
//!   rounds by **less than 1.6×** in every scenario (the pipelined
//!   window keeps most losses off the critical path);
//! * `p = 0` is a byte-identical passthrough, cross-checked — when
//!   `--baseline <BENCH_dist_rounds.json>` is given — against the
//!   committed budget baseline's exact rounds/messages.
//!
//! Every row records the ARQ `window` it ran under (schema
//! `dist-loss/v2`), so the committed numbers are reproducible knob for
//! knob.
//!
//! Writes `BENCH_dist_loss.json`. Flags (shared via
//! `treenet_bench::DistArgs`): `--smoke` runs the reduced grid,
//! `--scenarios a,b` filters by name, `--out <path>` picks the output
//! file, `--baseline <path>` enables the p=0 budget cross-check.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use treenet_bench::{DistArgs, Table};
use treenet_core::{auto_choice, retransmit_round_bound, AutoChoice};
use treenet_dist::{run_distributed, DistConfig};
use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
use treenet_model::{Problem, Solution};
use treenet_netsim::{LossModel, Metrics, DEFAULT_ARQ_WINDOW};

/// Schema tag checked on read-back (bump on layout changes).
const SCHEMA: &str = "treenet-bench/dist-loss/v2";

/// The loss grid. `0.0` is the passthrough row every other row inflates
/// against.
const LOSS_RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.2];

/// Seed of the loss RNG stream (independent of the protocol seed).
const LOSS_SEED: u64 = 0x10ff;

struct Scenario {
    name: &'static str,
    /// The theorem to run; `None` dispatches through `auto_choice`.
    theorem: Option<AutoChoice>,
    smoke: bool,
}

/// The same deterministic scenarios (names, workloads, protocol config)
/// as `exp_f_dist_budget`, so the `--baseline` cross-check can match
/// rows of the committed `BENCH_dist_rounds.json` by name.
const GRID: &[Scenario] = &[
    Scenario {
        name: "tree-unit-10x8",
        theorem: Some(AutoChoice::TreeUnit),
        smoke: true,
    },
    Scenario {
        name: "tree-arbitrary-10x8",
        theorem: Some(AutoChoice::TreeArbitrary),
        smoke: true,
    },
    Scenario {
        name: "line-unit-30x12",
        theorem: Some(AutoChoice::LineUnit),
        smoke: true,
    },
    Scenario {
        name: "line-arbitrary-30x12",
        theorem: Some(AutoChoice::LineArbitrary),
        smoke: true,
    },
    Scenario {
        name: "auto-mixed-24x10",
        theorem: None,
        smoke: true,
    },
    Scenario {
        name: "line-unit-48x24",
        theorem: Some(AutoChoice::LineUnit),
        smoke: false,
    },
    Scenario {
        name: "line-arbitrary-48x24",
        theorem: Some(AutoChoice::LineArbitrary),
        smoke: false,
    },
];

fn problem_for(s: &Scenario) -> Problem {
    let mut rng = SmallRng::seed_from_u64(0xd157_b0d6);
    match s.name {
        "tree-unit-10x8" => TreeWorkload::new(10, 8)
            .with_networks(2)
            .with_profit_ratio(4.0)
            .generate(&mut rng),
        "tree-arbitrary-10x8" => TreeWorkload::new(10, 8)
            .with_networks(2)
            .with_heights(HeightMode::Bimodal {
                narrow_frac: 0.5,
                hmin: 0.25,
            })
            .generate(&mut rng),
        "line-unit-30x12" => LineWorkload::new(30, 12)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(1, 8)
            .generate(&mut rng),
        "line-arbitrary-30x12" => LineWorkload::new(30, 12)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(1, 8)
            .with_heights(HeightMode::Bimodal {
                narrow_frac: 0.5,
                hmin: 0.2,
            })
            .generate(&mut rng),
        "auto-mixed-24x10" => LineWorkload::new(24, 10)
            .with_heights(HeightMode::Uniform { hmin: 0.25 })
            .generate(&mut rng),
        "line-unit-48x24" => LineWorkload::new(48, 24)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(1, 8)
            .generate(&mut rng),
        "line-arbitrary-48x24" => LineWorkload::new(48, 24)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(1, 8)
            .with_heights(HeightMode::Bimodal {
                narrow_frac: 0.5,
                hmin: 0.2,
            })
            .generate(&mut rng),
        other => unreachable!("unknown scenario {other}"),
    }
}

fn run_once(s: &Scenario, problem: &Problem, loss: Option<LossModel>) -> (Solution, u64, Metrics) {
    let config = DistConfig {
        epsilon: 0.3,
        seed: 0x7ee5,
        loss,
        ..DistConfig::default()
    };
    let theorem = s.theorem.unwrap_or_else(|| auto_choice(problem));
    let out = run_distributed(problem, theorem, &config).unwrap();
    (out.solution, out.lambda.to_bits(), out.run.metrics())
}

/// One (scenario, p) measurement as persisted to `BENCH_dist_loss.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct LossReport {
    name: String,
    /// Bernoulli drop rate of this row.
    p: f64,
    /// Engine rounds, recovery slots included.
    rounds: u64,
    /// Recovery slots alone (`rounds - retransmit_rounds` is the
    /// logical, loss-independent round count).
    retransmit_rounds: u64,
    /// Logical protocol messages (loss-independent by construction).
    messages: u64,
    /// Data retransmissions sent by the reliable layer.
    retransmits: u64,
    /// Standalone cumulative acks sent by the reliable layer.
    acks: u64,
    /// Duplicate deliveries suppressed.
    dup_suppressed: u64,
    /// Transmissions the loss process dropped (data + acks).
    dropped: u64,
    /// The sliding-window ARQ window this row ran under
    /// (`DistConfig::arq_window`; 1 degenerates to stop-and-wait).
    window: u32,
    /// Round inflation vs the p=0 row of the same scenario.
    round_inflation: f64,
    /// Message overhead vs the logical traffic:
    /// `(retransmits + acks) / messages`.
    message_overhead: f64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct LossGridReport {
    schema: String,
    mode: String,
    scenarios: Vec<LossReport>,
}

/// The subset of `BENCH_dist_rounds.json` the p=0 cross-check needs.
#[derive(Clone, Debug, Deserialize)]
struct BudgetScenario {
    name: String,
    rounds: u64,
    messages: u64,
}

#[derive(Clone, Debug, Deserialize)]
struct BudgetBaseline {
    schema: String,
    scenarios: Vec<BudgetScenario>,
}

fn validate_json(path: &str) -> Result<LossGridReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let report: LossGridReport =
        serde_json::from_str(&text).map_err(|e| format!("malformed {path}: {e}"))?;
    if report.schema != SCHEMA {
        return Err(format!(
            "schema tag mismatch in {path}: {} != {SCHEMA}",
            report.schema
        ));
    }
    if report.scenarios.is_empty() {
        return Err(format!("{path} contains no scenarios"));
    }
    Ok(report)
}

fn main() {
    let args = DistArgs::from_env();
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_dist_loss.json".to_string());

    let scenarios: Vec<&Scenario> = GRID
        .iter()
        .filter(|s| (!args.smoke || s.smoke) && args.selects(s.name))
        .collect();
    assert!(
        !scenarios.is_empty(),
        "--scenarios filtered out every scenario"
    );

    let baseline: Option<BudgetBaseline> = args.baseline.as_ref().map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let b: BudgetBaseline = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("malformed baseline {path}: {e}"));
        assert_eq!(
            b.schema, "treenet-bench/dist-budget/v2",
            "--baseline expects the budget-gate baseline"
        );
        b
    });

    let mut table = Table::new(
        "F-dist-loss — round/message inflation of the reliable layer vs loss rate",
        &[
            "scenario",
            "p",
            "rounds",
            "recovery",
            "messages",
            "retransmits",
            "acks",
            "dups",
            "round x",
            "msg overhead",
        ],
    );
    let mut rows = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    for s in &scenarios {
        let problem = problem_for(s);
        // The lossless reference every p-row must reproduce exactly.
        let (ref_solution, ref_lambda, ref_metrics) = run_once(s, &problem, None);

        for &p in &LOSS_RATES {
            let (solution, lambda, metrics) =
                run_once(s, &problem, Some(LossModel::bernoulli(p, LOSS_SEED)));
            if solution != ref_solution {
                failures.push(format!("{} p={p}: solution diverged", s.name));
            }
            if lambda != ref_lambda {
                failures.push(format!("{} p={p}: λ bits diverged", s.name));
            }
            if (metrics.messages, metrics.bits) != (ref_metrics.messages, ref_metrics.bits) {
                failures.push(format!(
                    "{} p={p}: logical traffic diverged ({} vs {} msgs)",
                    s.name, metrics.messages, ref_metrics.messages
                ));
            }
            if metrics.rounds != ref_metrics.rounds + metrics.retransmit_rounds {
                failures.push(format!(
                    "{} p={p}: rounds {} != lossless {} + recovery {}",
                    s.name, metrics.rounds, ref_metrics.rounds, metrics.retransmit_rounds
                ));
            }
            let bound =
                retransmit_round_bound(metrics.dropped, metrics.delayed, DEFAULT_ARQ_WINDOW as u64);
            if metrics.retransmit_rounds > bound {
                failures.push(format!(
                    "{} p={p}: {} recovery slots exceed the bound {bound}",
                    s.name, metrics.retransmit_rounds
                ));
            }
            if p == 0.0 {
                // Byte-identical passthrough...
                if metrics != ref_metrics {
                    failures.push(format!("{}: p=0 is not a passthrough", s.name));
                }
                // ...and exact agreement with the committed budget
                // baseline, proving the layer changed nothing at p=0. A
                // scenario the baseline does not know is a hard failure
                // — a silently skipped comparison would make the
                // passthrough claim vacuous (same policy as the budget
                // gate's "missing from this run").
                if let Some(b) = &baseline {
                    match b.scenarios.iter().find(|r| r.name == s.name) {
                        None => failures.push(format!(
                            "{}: scenario missing from the budget baseline — nothing to \
                             prove the p=0 passthrough against",
                            s.name
                        )),
                        Some(row) => {
                            if (row.rounds, row.messages) != (metrics.rounds, metrics.messages) {
                                failures.push(format!(
                                    "{}: p=0 rounds/messages {}/{} differ from the committed \
                                     baseline {}/{}",
                                    s.name,
                                    metrics.rounds,
                                    metrics.messages,
                                    row.rounds,
                                    row.messages
                                ));
                            }
                        }
                    }
                }
            }
            let round_inflation = metrics.rounds as f64 / ref_metrics.rounds.max(1) as f64;
            // The headline fault-tolerance number: even the heavy end of
            // the grid must stay under 1.6× — the windowed ARQ keeps
            // most recovery off the critical path.
            if p >= 0.2 && round_inflation >= 1.6 {
                failures.push(format!(
                    "{} p={p}: round inflation {round_inflation:.2}x breaches the 1.6x ceiling",
                    s.name
                ));
            }
            let message_overhead =
                (metrics.retransmits + metrics.acks) as f64 / ref_metrics.messages.max(1) as f64;
            table.row(&[
                s.name.to_string(),
                format!("{p}"),
                metrics.rounds.to_string(),
                metrics.retransmit_rounds.to_string(),
                metrics.messages.to_string(),
                metrics.retransmits.to_string(),
                metrics.acks.to_string(),
                metrics.dup_suppressed.to_string(),
                format!("{round_inflation:.2}"),
                format!("{message_overhead:.2}"),
            ]);
            rows.push(LossReport {
                name: s.name.to_string(),
                p,
                rounds: metrics.rounds,
                retransmit_rounds: metrics.retransmit_rounds,
                messages: metrics.messages,
                retransmits: metrics.retransmits,
                acks: metrics.acks,
                dup_suppressed: metrics.dup_suppressed,
                dropped: metrics.dropped,
                window: DEFAULT_ARQ_WINDOW,
                round_inflation,
                message_overhead,
            });
        }
    }
    table.print();

    let report = LossGridReport {
        schema: SCHEMA.to_string(),
        mode: if args.smoke { "smoke" } else { "full" }.to_string(),
        scenarios: rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json).expect("write BENCH_dist_loss.json");
    println!("wrote {out_path}");

    if let Err(e) = validate_json(&out_path) {
        eprintln!("{out_path} failed validation: {e}");
        std::process::exit(1);
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("LOSS GATE: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "loss gate passed: {} scenario(s) × {} loss rates bit-identical to the lossless \
         runs, recovery within the retransmit-round bound{}",
        scenarios.len(),
        LOSS_RATES.len(),
        if baseline.is_some() {
            ", p=0 exactly matching the committed budget baseline"
        } else {
            ""
        }
    );
}
