//! **Experiment perf-phase1** — the repo's performance baseline for the
//! incremental phase-1 engine: times end-to-end `run_two_phase` solves
//! against the preserved from-scratch reference
//! (`run_two_phase_reference`) across a tree/line × rule × size × ε
//! scenario grid (unit, narrow, and capacitated raise rules), asserts
//! the engines stay bit-identical while the clock runs, and writes the
//! results to `BENCH_phase1.json` (schema `phase1/v3`). Each row also
//! times `ProblemSpec::build` of its problem, the problem/instance build
//! layer every solve starts from.
//!
//! The engines are timed rep by rep in alternating order, each keeping
//! its best over the same reps, so a slow host episode slows both sides
//! of a speedup alike instead of one of them.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p treenet-bench --bin exp_perf_phase1            # full grid
//! cargo run --release -p treenet-bench --bin exp_perf_phase1 -- --smoke
//! cargo run --release -p treenet-bench --bin exp_perf_phase1 -- --out path.json
//! ```
//!
//! `--smoke` runs only the small scenarios and then re-reads the emitted
//! JSON through the typed schema, exiting non-zero if it is malformed —
//! the CI guard keeping the bench trajectory alive on every PR.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;
use treenet_bench::report::f2;
use treenet_bench::{DistArgs, Table};
use treenet_core::{
    narrow_xi, run_two_phase, run_two_phase_reference, unit_xi, FrameworkConfig, Outcome, RaiseRule,
};
use treenet_decomp::{LayeredDecomposition, Strategy};
use treenet_model::spec::ProblemSpec;
use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
use treenet_model::{HeightClass, InstanceId, Problem};

/// Schema tag checked by the smoke validation (bump on layout changes).
const SCHEMA: &str = "treenet-bench/phase1/v3";

/// Narrow-height floor of the narrow/capacitated scenarios.
const HMIN: f64 = 0.25;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Family {
    Tree,
    Line,
}

impl Family {
    fn name(self) -> &'static str {
        match self {
            Family::Tree => "tree",
            Family::Line => "line",
        }
    }
}

/// Which raise rule a scenario times. `Capacitated` times the wide
/// (unit-rule) and narrow (narrow-rule) runs of the height-class split
/// back to back — the exact composition the combined solvers and the
/// capacitated `DeltaEngine` execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rule {
    Unit,
    Narrow,
    Capacitated,
}

impl Rule {
    fn name(self) -> &'static str {
        match self {
            Rule::Unit => "unit",
            Rule::Narrow => "narrow",
            Rule::Capacitated => "capacitated",
        }
    }

    fn heights(self) -> HeightMode {
        match self {
            Rule::Unit => HeightMode::Unit,
            Rule::Narrow => HeightMode::Bimodal {
                narrow_frac: 1.0,
                hmin: HMIN,
            },
            Rule::Capacitated => HeightMode::Bimodal {
                narrow_frac: 0.5,
                hmin: HMIN,
            },
        }
    }
}

/// One point of the scenario grid.
struct Scenario {
    name: &'static str,
    family: Family,
    rule: Rule,
    n: usize,
    m: usize,
    epsilon: f64,
    /// Whether the smoke grid includes this scenario.
    smoke: bool,
    /// Pod count of the huge scenarios (`0` = flat sampling): demands
    /// are confined to independent pods of 2 networks each, the regime
    /// the sharded netsim engine scales to.
    pods: usize,
}

/// The grid: both network families, three sizes, two slackness targets.
/// Ordered by cost; the last entry is "the largest scenario" the
/// ≥5×-speedup goal refers to.
const GRID: &[Scenario] = &[
    Scenario {
        name: "tree-small-e3",
        family: Family::Tree,
        rule: Rule::Unit,
        n: 16,
        m: 14,
        epsilon: 0.3,
        smoke: true,
        pods: 0,
    },
    Scenario {
        name: "line-small-e3",
        family: Family::Line,
        rule: Rule::Unit,
        n: 32,
        m: 20,
        epsilon: 0.3,
        smoke: true,
        pods: 0,
    },
    Scenario {
        name: "tree-small-e1",
        family: Family::Tree,
        rule: Rule::Unit,
        n: 16,
        m: 14,
        epsilon: 0.1,
        smoke: false,
        pods: 0,
    },
    Scenario {
        name: "line-small-e1",
        family: Family::Line,
        rule: Rule::Unit,
        n: 32,
        m: 20,
        epsilon: 0.1,
        smoke: false,
        pods: 0,
    },
    Scenario {
        name: "tree-mid-e3",
        family: Family::Tree,
        rule: Rule::Unit,
        n: 48,
        m: 120,
        epsilon: 0.3,
        smoke: false,
        pods: 0,
    },
    Scenario {
        name: "line-mid-e3",
        family: Family::Line,
        rule: Rule::Unit,
        n: 96,
        m: 120,
        epsilon: 0.3,
        smoke: false,
        pods: 0,
    },
    Scenario {
        name: "tree-mid-e1",
        family: Family::Tree,
        rule: Rule::Unit,
        n: 48,
        m: 120,
        epsilon: 0.1,
        smoke: false,
        pods: 0,
    },
    Scenario {
        name: "line-mid-e1",
        family: Family::Line,
        rule: Rule::Unit,
        n: 96,
        m: 120,
        epsilon: 0.1,
        smoke: false,
        pods: 0,
    },
    Scenario {
        name: "line-large-e1",
        family: Family::Line,
        rule: Rule::Unit,
        n: 160,
        m: 320,
        epsilon: 0.1,
        smoke: false,
        pods: 0,
    },
    Scenario {
        name: "tree-large-e1",
        family: Family::Tree,
        rule: Rule::Unit,
        n: 96,
        m: 400,
        epsilon: 0.1,
        smoke: false,
        pods: 0,
    },
    Scenario {
        name: "line-xl-e1",
        family: Family::Line,
        rule: Rule::Unit,
        n: 320,
        m: 1200,
        epsilon: 0.1,
        smoke: false,
        pods: 0,
    },
    Scenario {
        name: "tree-xl-e1",
        family: Family::Tree,
        rule: Rule::Unit,
        n: 192,
        m: 1600,
        epsilon: 0.1,
        smoke: false,
        pods: 0,
    },
    Scenario {
        name: "line-xxl-e1",
        family: Family::Line,
        rule: Rule::Unit,
        n: 640,
        m: 4800,
        epsilon: 0.1,
        smoke: false,
        pods: 0,
    },
    Scenario {
        name: "tree-xxl-e1",
        family: Family::Tree,
        rule: Rule::Unit,
        n: 384,
        m: 6400,
        epsilon: 0.1,
        smoke: false,
        pods: 0,
    },
    // The huge pod grid (10⁵ demands in 2048 independent pods of two
    // networks, the 4,096 networks a problem holds): the problem scale
    // the sharded netsim engine simulates; here the central engines chew
    // through it to keep the phase-1 trajectory honest at that size.
    Scenario {
        name: "line-huge-e3",
        family: Family::Line,
        rule: Rule::Unit,
        n: 30,
        m: 100_000,
        epsilon: 0.3,
        smoke: false,
        pods: 2048,
    },
    Scenario {
        name: "tree-huge-e3",
        family: Family::Tree,
        rule: Rule::Unit,
        n: 24,
        m: 100_000,
        epsilon: 0.3,
        smoke: false,
        pods: 2048,
    },
    // Narrow and capacitated rows: the same families under the
    // arbitrary-height machinery (all-narrow, and the wide/narrow
    // split timed back to back).
    Scenario {
        name: "tree-narrow-small-e3",
        family: Family::Tree,
        rule: Rule::Narrow,
        n: 16,
        m: 14,
        epsilon: 0.3,
        smoke: true,
        pods: 0,
    },
    Scenario {
        name: "line-narrow-small-e3",
        family: Family::Line,
        rule: Rule::Narrow,
        n: 32,
        m: 20,
        epsilon: 0.3,
        smoke: false,
        pods: 0,
    },
    Scenario {
        name: "line-cap-small-e3",
        family: Family::Line,
        rule: Rule::Capacitated,
        n: 32,
        m: 20,
        epsilon: 0.3,
        smoke: true,
        pods: 0,
    },
    Scenario {
        name: "tree-cap-small-e3",
        family: Family::Tree,
        rule: Rule::Capacitated,
        n: 16,
        m: 14,
        epsilon: 0.3,
        smoke: false,
        pods: 0,
    },
    Scenario {
        name: "tree-narrow-mid-e3",
        family: Family::Tree,
        rule: Rule::Narrow,
        n: 48,
        m: 120,
        epsilon: 0.3,
        smoke: false,
        pods: 0,
    },
    Scenario {
        name: "line-cap-mid-e3",
        family: Family::Line,
        rule: Rule::Capacitated,
        n: 96,
        m: 120,
        epsilon: 0.3,
        smoke: false,
        pods: 0,
    },
    // Pod-structured huge capacitated rows: the serve-path workload
    // shape (many independent pods, mixed heights) at netsim scale.
    Scenario {
        name: "line-cap-huge-e3",
        family: Family::Line,
        rule: Rule::Capacitated,
        n: 30,
        m: 100_000,
        epsilon: 0.3,
        smoke: false,
        pods: 2048,
    },
    Scenario {
        name: "tree-cap-huge-e3",
        family: Family::Tree,
        rule: Rule::Capacitated,
        n: 24,
        m: 100_000,
        epsilon: 0.3,
        smoke: false,
        pods: 2048,
    },
];

/// Per-scenario measurements as persisted to `BENCH_phase1.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct ScenarioReport {
    name: String,
    family: String,
    rule: String,
    n: u64,
    m: u64,
    epsilon: f64,
    instances: u64,
    steps: u64,
    build_ms: f64,
    reference_ms: f64,
    incremental_ms: f64,
    speedup: f64,
}

/// The file-level report.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Phase1Report {
    schema: String,
    mode: String,
    repeats: u64,
    scenarios: Vec<ScenarioReport>,
    /// The last — and, in full mode, most expensive — scenario of the
    /// executed grid. The ≥5× headline number refers to the largest
    /// *flat* scenario (`tree-xxl-e1`); the huge pod rows that follow it
    /// trade depth-per-pod for breadth, where the incremental engine's
    /// edge is structurally smaller.
    final_scenario: String,
    final_speedup: f64,
}

fn problem_for(s: &Scenario) -> Problem {
    let mut rng = SmallRng::seed_from_u64(0x5eed_ba5e);
    match s.family {
        Family::Tree => TreeWorkload::new(s.n, s.m)
            .with_networks(2)
            .with_pods(s.pods)
            .with_profit_ratio(8.0)
            .with_heights(s.rule.heights())
            .generate(&mut rng),
        Family::Line => LineWorkload::new(s.n, s.m)
            .with_resources(2)
            .with_pods(s.pods)
            .with_window_slack(2)
            .with_len_range(2, (s.n as u32 / 8).max(3))
            .with_heights(s.rule.heights())
            .generate(&mut rng),
    }
}

fn layers_for(problem: &Problem, family: Family) -> LayeredDecomposition {
    match family {
        Family::Tree => LayeredDecomposition::for_trees(problem, Strategy::Ideal),
        Family::Line => LayeredDecomposition::for_lines(problem),
    }
}

/// Repeats beyond which a sub-millisecond scenario stops re-running.
/// High enough that even a ~5µs micro scenario accumulates well over
/// [`MIN_TOTAL_MS`] of samples before the cap binds — with only a few
/// hundred reps the min is still hostage to scheduler noise.
const MAX_REPEATS: u32 = 20_000;

/// Accumulated wall time after which the timing loop is satisfied, ms.
const MIN_TOTAL_MS: f64 = 20.0;

/// The best and the accumulated wall time of one timed measurement, ms.
struct Clock {
    best: f64,
    total: f64,
}

impl Clock {
    fn new() -> Self {
        Clock {
            best: f64::INFINITY,
            total: 0.0,
        }
    }

    /// Times one run; its result is returned, and dropped, off the clock.
    fn time<T>(&mut self, run: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let outcome = run();
        let elapsed = t0.elapsed().as_secs_f64() * 1e3;
        self.best = self.best.min(elapsed);
        self.total += elapsed;
        outcome
    }
}

/// How many framework runs a scenario requires: one for the unit and narrow
/// rules, two for the capacitated rule (a wide unit-rule run plus a
/// narrow narrow-rule run over the height-class split, mirroring the
/// paper's composition).
fn runs_for(
    s: &Scenario,
    problem: &Problem,
    delta: usize,
) -> Vec<(RaiseRule, FrameworkConfig, Vec<InstanceId>)> {
    let config = |xi: f64| FrameworkConfig {
        epsilon: s.epsilon,
        xi,
        seed: 0x7ee5,
        ..FrameworkConfig::default()
    };
    let all: Vec<InstanceId> = problem.instances().map(|d| d.id).collect();
    match s.rule {
        Rule::Unit => vec![(RaiseRule::Unit, config(unit_xi(delta)), all)],
        Rule::Narrow => vec![(RaiseRule::Narrow, config(narrow_xi(delta, HMIN)), all)],
        Rule::Capacitated => {
            let (wide, narrow) = HeightClass::split(problem, all);
            vec![
                (RaiseRule::Unit, config(unit_xi(delta)), wide),
                (RaiseRule::Narrow, config(narrow_xi(delta, HMIN)), narrow),
            ]
        }
    }
}

/// Times the row's problem build and both engines rep by rep, each keeping
/// its best over the same reps; the engines alternate which runs first.
/// Runs at least `min_repeats` reps and keeps repeating until every
/// measurement has accumulated [`MIN_TOTAL_MS`] (capped at
/// [`MAX_REPEATS`]), so microsecond-scale scenarios are timed over
/// hundreds of runs instead of a noise-dominated handful, while
/// second-scale scenarios stop at `min_repeats`.
fn run_scenario(s: &Scenario, repeats: u32) -> ScenarioReport {
    let problem = problem_for(s);
    let spec = ProblemSpec::from_problem(&problem);
    let layers = layers_for(&problem, s.family);
    let runs = runs_for(s, &problem, layers.delta());
    let reference = || -> Vec<Outcome> {
        runs.iter()
            .map(|(rule, config, participants)| {
                run_two_phase_reference(&problem, &layers, *rule, config, participants)
                    .expect("reference run")
            })
            .collect()
    };
    let incremental = || -> Vec<Outcome> {
        runs.iter()
            .map(|(rule, config, participants)| {
                run_two_phase(&problem, &layers, *rule, config, participants)
                    .expect("incremental run")
            })
            .collect()
    };
    let (mut build_clock, mut reference_clock, mut incremental_clock) =
        (Clock::new(), Clock::new(), Clock::new());
    let (mut oracles, mut fasts) = (Vec::new(), Vec::new());
    for rep in 0..MAX_REPEATS {
        let rebuilt = build_clock.time(|| spec.build().expect("the row's spec rebuilds"));
        assert_eq!(rebuilt.instance_count(), problem.instance_count());
        drop(rebuilt);
        if rep % 2 == 0 {
            oracles = reference_clock.time(reference);
            fasts = incremental_clock.time(incremental);
        } else {
            fasts = incremental_clock.time(incremental);
            oracles = reference_clock.time(reference);
        }
        let clocks = [&build_clock, &reference_clock, &incremental_clock];
        if rep + 1 >= repeats && clocks.iter().all(|c| c.total >= MIN_TOTAL_MS) {
            break;
        }
    }
    // The clock only counts if the engines stay bit-identical, run by
    // run (for capacitated scenarios: the wide and the narrow run).
    for (fast, oracle) in fasts.iter().zip(oracles.iter()) {
        assert_eq!(
            fast.solution, oracle.solution,
            "{}: solutions diverged",
            s.name
        );
        assert_eq!(fast.stack, oracle.stack, "{}: stacks diverged", s.name);
        assert_eq!(fast.stats, oracle.stats, "{}: stats diverged", s.name);
        assert_eq!(
            fast.lambda.to_bits(),
            oracle.lambda.to_bits(),
            "{}: λ diverged",
            s.name
        );
    }
    ScenarioReport {
        name: s.name.to_string(),
        family: s.family.name().to_string(),
        rule: s.rule.name().to_string(),
        n: s.n as u64,
        m: s.m as u64,
        epsilon: s.epsilon,
        instances: problem.instance_count() as u64,
        steps: fasts.iter().map(|f| f.stats.steps).sum(),
        build_ms: build_clock.best,
        reference_ms: reference_clock.best,
        incremental_ms: incremental_clock.best,
        speedup: reference_clock.best / incremental_clock.best,
    }
}

/// Re-reads the emitted file through the typed schema; any shape drift
/// (missing field, wrong type, bad tag) fails loudly.
fn validate_json(path: &str) -> Result<Phase1Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let report: Phase1Report =
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
    for s in &report.scenarios {
        if !matches!(s.rule.as_str(), "unit" | "narrow" | "capacitated") {
            return Err(format!(
                "{path}: scenario {} has unknown rule `{}`",
                s.name, s.rule
            ));
        }
        if !(s.speedup.is_finite() && s.speedup > 0.0) {
            return Err(format!("{path}: scenario {} has bad speedup", s.name));
        }
        if s.build_ms < 0.0 || s.reference_ms < 0.0 || s.incremental_ms < 0.0 {
            return Err(format!("{path}: scenario {} has negative timing", s.name));
        }
        // The headline claim is "never slower than from scratch"; a
        // single-repeat smoke run is too noisy to hold that line, but a
        // full run must.
        if report.mode == "full" && s.speedup < 1.0 {
            return Err(format!(
                "{path}: scenario {} regressed below 1.0x ({:.2}x)",
                s.name, s.speedup
            ));
        }
    }
    Ok(report)
}

fn main() {
    let args = DistArgs::from_env();
    let smoke = args.smoke;
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_phase1.json".to_string());

    // At least five reps in a full run: second-scale rows stop at the
    // minimum, and their min over five reps is steadier than over three.
    let repeats: u32 = if smoke { 1 } else { 5 };
    let scenarios: Vec<&Scenario> = GRID
        .iter()
        .filter(|s| (!smoke || s.smoke) && args.selects(s.name))
        .collect();
    assert!(
        !scenarios.is_empty(),
        "--scenarios filtered out every scenario"
    );

    let mut table = Table::new(
        "perf-phase1 — incremental engine vs from-scratch reference",
        &[
            "scenario",
            "family",
            "rule",
            "n",
            "m",
            "eps",
            "instances",
            "steps",
            "build [ms]",
            "reference [ms]",
            "incremental [ms]",
            "speedup",
        ],
    );
    let mut rows = Vec::new();
    for s in &scenarios {
        let row = run_scenario(s, repeats);
        table.row(&[
            row.name.clone(),
            row.family.clone(),
            row.rule.clone(),
            row.n.to_string(),
            row.m.to_string(),
            format!("{}", row.epsilon),
            row.instances.to_string(),
            row.steps.to_string(),
            f2(row.build_ms),
            f2(row.reference_ms),
            f2(row.incremental_ms),
            format!("{:.2}x", row.speedup),
        ]);
        rows.push(row);
    }
    table.print();

    let last = rows.last().expect("grid is non-empty");
    let report = Phase1Report {
        schema: SCHEMA.to_string(),
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        repeats: repeats as u64,
        final_scenario: last.name.clone(),
        final_speedup: last.speedup,
        scenarios: rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json).expect("write BENCH_phase1.json");
    println!("wrote {out_path}");

    match validate_json(&out_path) {
        Ok(read_back) => println!(
            "schema ok ({} scenarios); final {} scenario {}: {:.2}x speedup",
            read_back.scenarios.len(),
            read_back.mode,
            read_back.final_scenario,
            read_back.final_speedup
        ),
        Err(e) => {
            eprintln!("BENCH_phase1.json failed validation: {e}");
            std::process::exit(1);
        }
    }
}
