//! `treenet` — command-line front end.
//!
//! ```text
//! treenet generate --kind tree|line --n 64 --m 128 --seed 7 OUT.json
//! treenet solve [--algorithm tree-unit|tree-arbitrary|line-unit|
//!                line-arbitrary|sequential|ps-line] [--epsilon 0.1]
//!               [--seed 7] SPEC.json
//! treenet decompose [--strategy ideal|balancing|root-fixing] SPEC.json
//! ```
//!
//! Problem files are [`treenet::model::spec::ProblemSpec`] JSON; `solve`
//! prints the solution and its audited [`treenet::core::Certificate`];
//! `decompose` emits Graphviz DOT for network 0's tree decomposition.
//! The online scheduling service is the separate `treenet-serve` binary.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::process::ExitCode;
use treenet::baseline::{ps_line_unit, PsConfig};
use treenet::core::{solve_sequential_tree, AutoChoice, AutoRun, Certificate, SolverConfig};
use treenet::decomp::Strategy;
use treenet::model::spec::ProblemSpec;
use treenet::model::workload::{HeightMode, LineWorkload, TreeWorkload};
use treenet::model::{InstanceId, Problem, Solution};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  treenet generate --kind tree|line [--n N] [--m M] [--heights unit|mixed] [--seed S] OUT.json
  treenet solve [--algorithm ALGO] [--epsilon E] [--seed S] SPEC.json
      ALGO: tree-unit | tree-arbitrary | line-unit | line-arbitrary | sequential | ps-line
  treenet decompose [--strategy ideal|balancing|root-fixing] SPEC.json";

/// Minimal flag parser: `--key value` pairs plus positional arguments.
struct Args {
    flags: std::collections::HashMap<String, String>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut flags = std::collections::HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(key) = arg.strip_prefix("--") {
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            flags.insert(key.to_string(), value.clone());
        } else {
            positional.push(arg.clone());
        }
    }
    Ok(Args { flags, positional })
}

impl Args {
    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("bad value for --{key}: {raw}")),
        }
    }

    fn str(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let command = args.first().ok_or("missing command")?;
    let rest = parse(&args[1..])?;
    match command.as_str() {
        "generate" => generate(&rest),
        "solve" => solve(&rest),
        "decompose" => decompose(&rest),
        other => Err(format!("unknown command {other}")),
    }
}

fn load(path: &str) -> Result<Problem, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let spec: ProblemSpec =
        serde_json::from_str(&raw).map_err(|e| format!("parsing {path}: {e}"))?;
    spec.build().map_err(|e| format!("building problem: {e}"))
}

fn generate(args: &Args) -> Result<(), String> {
    let out = args
        .positional
        .first()
        .ok_or("generate needs an output path")?;
    let kind = args.str("kind", "tree");
    let n: usize = args.get("n", 32)?;
    let m: usize = args.get("m", 2 * n)?;
    let seed: u64 = args.get("seed", 7)?;
    let heights = match args.str("heights", "unit").as_str() {
        "unit" => HeightMode::Unit,
        "mixed" => HeightMode::Bimodal {
            narrow_frac: 0.5,
            hmin: 0.2,
        },
        other => return Err(format!("unknown height mode {other}")),
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let problem = match kind.as_str() {
        "tree" => TreeWorkload::new(n, m)
            .with_heights(heights)
            .try_generate(&mut rng),
        "line" => LineWorkload::new(n, m)
            .with_window_slack(3)
            .with_len_range(1, (n / 4).max(1) as u32)
            .with_heights(heights)
            .try_generate(&mut rng),
        other => return Err(format!("unknown kind {other}")),
    }
    .map_err(|e| format!("building problem: {e}"))?;
    let spec = ProblemSpec::from_problem(&problem);
    let json = serde_json::to_string_pretty(&spec).expect("specs serialize");
    std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {out}: {} vertices, {} networks, {} demands, {} instances",
        problem.vertex_count(),
        problem.network_count(),
        problem.demand_count(),
        problem.instance_count()
    );
    Ok(())
}

fn print_solution(problem: &Problem, solution: &Solution) {
    println!(
        "selected {} instances, profit {:.4}:",
        solution.len(),
        solution.profit(problem)
    );
    for &d in solution.selected() {
        let inst = problem.instance(d);
        let path = inst.path();
        let route: Vec<String> = problem
            .rooted(inst.network)
            .path(path.source(), path.target())
            .vertices()
            .iter()
            .map(|v| v.0.to_string())
            .collect();
        println!(
            "  {} ← demand {} on {} via {}",
            d,
            inst.demand,
            inst.network,
            route.join("-")
        );
    }
}

fn solve(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("solve needs a problem file")?;
    let problem = load(path)?;
    let algorithm = args.str("algorithm", "tree-unit");
    let epsilon: f64 = args.get("epsilon", 0.1)?;
    let seed: u64 = args.get("seed", 0x7ee5)?;
    let cfg = SolverConfig::default()
        .with_epsilon(epsilon)
        .with_seed(seed);
    match algorithm.as_str() {
        "sequential" => {
            let outcome = solve_sequential_tree(&problem);
            print_solution(&problem, &outcome.solution);
            println!("certified ratio = {:.4}", outcome.certified_ratio(&problem));
        }
        "ps-line" => {
            let outcome = ps_line_unit(
                &problem,
                &PsConfig {
                    epsilon,
                    seed,
                    ..PsConfig::default()
                },
            )
            .map_err(|e| e.to_string())?;
            print_solution(&problem, &outcome.solution);
            println!(
                "certified ratio = {:.4} (λ = {:.4})",
                outcome.certified_ratio(&problem),
                outcome.lambda
            );
        }
        theorem => {
            let choice = match theorem {
                "tree-unit" => AutoChoice::TreeUnit,
                "tree-arbitrary" => AutoChoice::TreeArbitrary,
                "line-unit" => AutoChoice::LineUnit,
                "line-arbitrary" => AutoChoice::LineArbitrary,
                other => return Err(format!("unknown algorithm {other}")),
            };
            let outcome =
                treenet::core::solve(&problem, choice, &cfg).map_err(|e| e.to_string())?;
            print_solution(&problem, &outcome.solution);
            match &outcome.run {
                AutoRun::Single(run) => {
                    let all: Vec<InstanceId> = problem.instances().map(|d| d.id).collect();
                    println!("{}", Certificate::audit(&problem, run, &all));
                    println!(
                        "rounds: {} steps, {} MIS iterations, ~{} communication rounds",
                        run.stats.steps, run.stats.mis_rounds, run.stats.comm_rounds
                    );
                }
                AutoRun::Split(_) => {
                    println!("certified ratio = {:.4}", outcome.certified_ratio(&problem))
                }
            }
        }
    }
    Ok(())
}

fn decompose(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("decompose needs a problem file")?;
    let problem = load(path)?;
    let strategy = match args.str("strategy", "ideal").as_str() {
        "ideal" => Strategy::Ideal,
        "balancing" => Strategy::Balancing,
        "root-fixing" => Strategy::RootFixing,
        other => return Err(format!("unknown strategy {other}")),
    };
    let tree = problem.network(treenet::model::NetworkId(0));
    let h = strategy.build(tree);
    h.verify(tree)
        .map_err(|e| format!("invalid decomposition: {e}"))?;
    eprintln!(
        "{} decomposition of network T0: depth {}, pivot size {}",
        strategy.name(),
        h.depth(),
        h.pivot_size()
    );
    // DOT of the decomposition H (parent edges), annotated with pivots.
    println!("digraph decomposition {{");
    for v in tree.vertices() {
        let pivots: Vec<String> = h.pivot(v).iter().map(|u| u.0.to_string()).collect();
        println!(
            "  {} [label=\"{} | χ={{{}}}\"];",
            v.0,
            v.0,
            pivots.join(",")
        );
        if let Some(parent) = h.parent(v) {
            println!("  {} -> {};", parent.0, v.0);
        }
    }
    println!("}}");
    Ok(())
}
