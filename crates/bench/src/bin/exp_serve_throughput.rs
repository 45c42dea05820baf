//! **Experiment serve-throughput** — sustained throughput and re-solve
//! latency of the online scheduling service: boots a `treenet-serve`
//! [`Server`] over a pod-structured workload with 10⁴–10⁶ queued
//! demands, drives a seeded open-loop submit/withdraw stream through the
//! wire protocol, and compares the warm per-delta re-solve latency
//! against the cold from-scratch solve. Runs both server modes:
//! unit-height and capacitated (`hmin = 0.25`, bimodal narrow/wide
//! heights on every demand and on the delta stream). Writes
//! `BENCH_serve.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p treenet-bench --bin exp_serve_throughput             # 1e4 + 1e5
//! cargo run --release -p treenet-bench --bin exp_serve_throughput -- --smoke  # 1e4 only
//! cargo run --release -p treenet-bench --bin exp_serve_throughput -- --scenarios serve-1e6
//! ```
//!
//! Hard gates (exit non-zero):
//!
//! * every scenario's final `check` must be **bit-identical** to the
//!   from-scratch oracle;
//! * at ≥10⁵ queued demands, the warm median re-solve must be at least
//!   **5×** faster than the cold solve — in *both* modes: the
//!   capacitated 10⁵ row holds the same line as the unit one;
//! * the warm path is scale-free: when a rule's 10⁴ and 10⁵ rows both
//!   ran, its 10⁵ warm median is at most **2×** its 10⁴ warm median;
//! * the emitted JSON must re-read through the typed schema.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;
use treenet_bench::report::f2;
use treenet_bench::{DistArgs, Table};
use treenet_core::SolverConfig;
use treenet_model::workload::{HeightMode, TreeWorkload};
use treenet_serve::{OpenLoop, Request, Server};

/// Schema tag checked by the smoke validation (bump on layout changes).
const SCHEMA: &str = "treenet-bench/serve/v3";

/// Height floor served by capacitated scenarios.
const HMIN: f64 = 0.25;

/// Queued-demand count at which the ≥5× warm-vs-cold gate binds.
const GATE_DEMANDS: u64 = 100_000;

/// Required warm-vs-cold median speedup at the gate size.
const GATE_SPEEDUP: f64 = 5.0;

/// Queued-demand count of the rows every row's warm median is compared
/// against (`scale_ratio`).
const SCALE_BASE_DEMANDS: u64 = 10_000;

/// Queued-demand count at which the scale gate binds.
const SCALE_GATE_DEMANDS: u64 = 100_000;

/// Largest allowed `scale_ratio` at the scale gate's size.
const SCALE_GATE: f64 = 2.0;

/// Which server mode a scenario boots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rule {
    /// Unit heights everywhere; the engine runs the unit raise rule.
    Unit,
    /// Bimodal narrow/wide heights over an `hmin = 0.25` floor; the
    /// engine composes a wide unit-rule run with a narrow narrow-rule
    /// run per component.
    Capacitated,
}

impl Rule {
    fn name(self) -> &'static str {
        match self {
            Rule::Unit => "unit",
            Rule::Capacitated => "capacitated",
        }
    }
}

struct Scenario {
    name: &'static str,
    rule: Rule,
    /// Vertices per tree-network.
    n: usize,
    /// Bootstrap (queued) demand count.
    m: usize,
    /// Independent pods of 2 networks each; demands never cross pods.
    /// At most 2048: a problem holds at most 4,096 networks.
    pods: usize,
    epsilon: f64,
    /// Open-loop requests to time after bootstrap.
    deltas: usize,
    /// Cold from-scratch solves to sample (median is reported).
    cold_samples: usize,
    smoke: bool,
    /// Whether the scenario runs without being named in `--scenarios`
    /// (the 10⁶ row is nightly-only: ~minutes of cold solves).
    default_run: bool,
}

const GRID: &[Scenario] = &[
    Scenario {
        name: "serve-1e4",
        rule: Rule::Unit,
        n: 24,
        m: 10_000,
        pods: 250,
        epsilon: 0.3,
        deltas: 120,
        cold_samples: 3,
        smoke: true,
        default_run: true,
    },
    Scenario {
        name: "serve-cap-1e4",
        rule: Rule::Capacitated,
        n: 24,
        m: 10_000,
        pods: 250,
        epsilon: 0.3,
        deltas: 120,
        cold_samples: 3,
        smoke: true,
        default_run: true,
    },
    Scenario {
        name: "serve-1e5",
        rule: Rule::Unit,
        n: 24,
        m: 100_000,
        pods: 2048,
        epsilon: 0.3,
        deltas: 120,
        cold_samples: 3,
        smoke: false,
        default_run: true,
    },
    Scenario {
        name: "serve-cap-1e5",
        rule: Rule::Capacitated,
        n: 24,
        m: 100_000,
        pods: 2048,
        epsilon: 0.3,
        deltas: 120,
        cold_samples: 3,
        smoke: false,
        default_run: true,
    },
    Scenario {
        name: "serve-1e6",
        rule: Rule::Unit,
        n: 24,
        m: 1_000_000,
        pods: 2048,
        epsilon: 0.3,
        deltas: 60,
        cold_samples: 1,
        smoke: false,
        default_run: false,
    },
];

/// Per-scenario measurements as persisted to `BENCH_serve.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct ScenarioReport {
    scenario: String,
    rule: String,
    demands: u64,
    instances: u64,
    pods: u64,
    networks: u64,
    epsilon: f64,
    /// Open-loop requests timed (each = one mutation + one resolve).
    deltas: u64,
    /// First warm resolve after bootstrap: every component solves once.
    bootstrap_resolve_ms: f64,
    warm_p50_us: f64,
    warm_p90_us: f64,
    warm_p99_us: f64,
    cold_median_us: f64,
    /// `cold_median_us / warm_p50_us`.
    speedup: f64,
    /// Wire-level requests per second over the timed delta stream.
    requests_per_sec: f64,
    /// `warm_p50_us` over the warm p50 of the same rule's 10⁴ row
    /// (`None` when that row did not run).
    scale_ratio: Option<f64>,
    /// Final warm state bit-identical to the from-scratch oracle.
    identical: bool,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct ServeReport {
    schema: String,
    mode: String,
    gate_demands: u64,
    gate_speedup: f64,
    scale_gate_demands: u64,
    scale_gate: f64,
    scenarios: Vec<ScenarioReport>,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    assert!(!sorted_us.is_empty());
    let idx = ((p / 100.0) * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn run_scenario(s: &Scenario) -> ScenarioReport {
    let heights = match s.rule {
        Rule::Unit => HeightMode::Unit,
        Rule::Capacitated => HeightMode::Bimodal {
            narrow_frac: 0.5,
            hmin: HMIN,
        },
    };
    let problem = TreeWorkload::new(s.n, s.m)
        .with_networks(2)
        .with_pods(s.pods)
        .with_profit_ratio(8.0)
        .with_heights(heights)
        .generate(&mut SmallRng::seed_from_u64(0x5eed_ba5e));
    let instances = problem.instance_count() as u64;
    let networks = problem.network_count() as u64;
    let vertices = problem.vertex_count() as u32;
    let mut config = SolverConfig::default().with_epsilon(s.epsilon);
    if s.rule == Rule::Capacitated {
        config = config.with_hmin(HMIN);
    }
    let mut server = Server::new(problem, &config).expect("workload admits");

    // Bootstrap: the first warm resolve pays for every component once —
    // the cost a cold client sees before the warm regime begins.
    let t0 = Instant::now();
    let resp = server.apply(&Request::Resolve);
    let bootstrap_resolve_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(resp["ok"], true, "bootstrap resolve failed: {resp:?}");

    // Cold baseline: the from-scratch oracle over all live instances
    // (`reference_solve` covers both modes; in capacitated mode it
    // composes the wide and narrow reference runs like the engine does).
    let mut cold_us = Vec::with_capacity(s.cold_samples);
    for _ in 0..s.cold_samples {
        let t0 = Instant::now();
        server.engine().reference_solve().expect("reference solve");
        cold_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    cold_us.sort_by(f64::total_cmp);
    let cold_median_us = percentile(&cold_us, 50.0);

    // Warm regime: a seeded open-loop submit/withdraw stream through the
    // wire protocol, resolving after every mutation. Timing includes the
    // JSON round-trip — this is what a client experiences per request.
    let mut generator = OpenLoop::new(17, vertices, networks as u32).with_id_floor(s.m as u64);
    if s.rule == Rule::Capacitated {
        generator = generator.with_heights(HMIN, 50);
    }
    let resolve_line = r#"{"op":"resolve"}"#;
    let mut warm_us = Vec::with_capacity(s.deltas);
    let mut total_secs = 0.0;
    for _ in 0..s.deltas {
        let line = generator.next_request().to_json();
        let t0 = Instant::now();
        let mutation = server.handle_line(&line);
        let resolve = server.handle_line(resolve_line);
        let elapsed = t0.elapsed().as_secs_f64();
        total_secs += elapsed;
        warm_us.push(elapsed * 1e6);
        assert!(mutation.contains(r#""ok":true"#), "{line} -> {mutation}");
        assert!(resolve.contains(r#""ok":true"#), "{resolve}");
    }
    warm_us.sort_by(f64::total_cmp);
    let warm_p50_us = percentile(&warm_us, 50.0);

    // Bit-identity: the whole exercise only counts if the warm state
    // still equals the from-scratch oracle after the delta storm.
    let check = server.apply(&Request::Check);
    let identical = check["identical"] == true;

    ScenarioReport {
        scenario: s.name.to_string(),
        rule: s.rule.name().to_string(),
        demands: s.m as u64,
        instances,
        pods: s.pods as u64,
        networks,
        epsilon: s.epsilon,
        deltas: s.deltas as u64,
        bootstrap_resolve_ms,
        warm_p50_us,
        warm_p90_us: percentile(&warm_us, 90.0),
        warm_p99_us: percentile(&warm_us, 99.0),
        cold_median_us,
        speedup: cold_median_us / warm_p50_us,
        requests_per_sec: (2 * s.deltas) as f64 / total_secs,
        scale_ratio: None,
        identical,
    }
}

/// Fills each row's `scale_ratio` from the same rule's 10⁴ row, if it ran.
fn record_scale_ratios(rows: &mut [ScenarioReport]) {
    let base: Vec<(String, f64)> = rows
        .iter()
        .filter(|r| r.demands == SCALE_BASE_DEMANDS)
        .map(|r| (r.rule.clone(), r.warm_p50_us))
        .collect();
    for row in rows {
        row.scale_ratio = base
            .iter()
            .find(|(rule, _)| *rule == row.rule)
            .map(|(_, p50)| row.warm_p50_us / p50);
    }
}

/// Re-reads the emitted file through the typed schema; any shape drift
/// (missing field, wrong type, bad tag) fails loudly.
fn validate_json(path: &str) -> Result<ServeReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let report: ServeReport =
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
        if !matches!(s.rule.as_str(), "unit" | "capacitated") {
            return Err(format!(
                "{path}: scenario {} has unknown rule `{}`",
                s.scenario, s.rule
            ));
        }
        if !s.identical {
            return Err(format!("{path}: scenario {} diverged", s.scenario));
        }
        if !(s.speedup.is_finite() && s.speedup > 0.0) {
            return Err(format!("{path}: scenario {} has bad speedup", s.scenario));
        }
        if s.demands >= report.gate_demands && s.speedup < report.gate_speedup {
            return Err(format!(
                "{path}: scenario {} speedup {:.2}x below the {:.0}x gate",
                s.scenario, s.speedup, report.gate_speedup
            ));
        }
        if let Some(ratio) = s.scale_ratio {
            if s.demands == report.scale_gate_demands
                && (ratio.is_nan() || ratio > report.scale_gate)
            {
                return Err(format!(
                    "{path}: scenario {} warm p50 is {ratio:.2}x its 10^4 row's, \
                     above the {:.0}x scale gate",
                    s.scenario, report.scale_gate
                ));
            }
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
        .unwrap_or_else(|| "BENCH_serve.json".to_string());

    let named = |name: &str| {
        args.scenarios
            .as_ref()
            .is_some_and(|list| list.iter().any(|s| s == name))
    };
    let scenarios: Vec<&Scenario> = GRID
        .iter()
        .filter(|s| {
            if smoke {
                return s.smoke && args.selects(s.name);
            }
            if !s.default_run {
                return named(s.name);
            }
            args.selects(s.name)
        })
        .collect();
    assert!(
        !scenarios.is_empty(),
        "--scenarios filtered out every scenario"
    );

    let mut table = Table::new(
        "serve-throughput — warm re-solve vs cold solve over the wire protocol",
        &[
            "scenario",
            "rule",
            "demands",
            "instances",
            "pods",
            "deltas",
            "boot [ms]",
            "warm p50 [µs]",
            "warm p90 [µs]",
            "warm p99 [µs]",
            "cold med [µs]",
            "speedup",
            "scale",
            "req/s",
            "identical",
        ],
    );
    let mut rows: Vec<ScenarioReport> = scenarios.iter().map(|s| run_scenario(s)).collect();
    record_scale_ratios(&mut rows);
    for row in &rows {
        table.row(&[
            row.scenario.clone(),
            row.rule.clone(),
            row.demands.to_string(),
            row.instances.to_string(),
            row.pods.to_string(),
            row.deltas.to_string(),
            f2(row.bootstrap_resolve_ms),
            f2(row.warm_p50_us),
            f2(row.warm_p90_us),
            f2(row.warm_p99_us),
            f2(row.cold_median_us),
            format!("{:.1}x", row.speedup),
            row.scale_ratio
                .map_or_else(|| "-".to_string(), |r| format!("{r:.2}x")),
            f2(row.requests_per_sec),
            row.identical.to_string(),
        ]);
    }
    table.print();

    let report = ServeReport {
        schema: SCHEMA.to_string(),
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        gate_demands: GATE_DEMANDS,
        gate_speedup: GATE_SPEEDUP,
        scale_gate_demands: SCALE_GATE_DEMANDS,
        scale_gate: SCALE_GATE,
        scenarios: rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json).expect("write BENCH_serve.json");
    println!("wrote {out_path}");

    match validate_json(&out_path) {
        Ok(read_back) => {
            for s in &read_back.scenarios {
                println!(
                    "{}: warm p50 {:.0}µs vs cold {:.0}µs = {:.1}x, {:.0} req/s, identical={}",
                    s.scenario,
                    s.warm_p50_us,
                    s.cold_median_us,
                    s.speedup,
                    s.requests_per_sec,
                    s.identical
                );
            }
        }
        Err(e) => {
            eprintln!("{out_path} failed validation: {e}");
            std::process::exit(1);
        }
    }
}
