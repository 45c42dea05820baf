//! Command line: `perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]`.

use std::path::PathBuf;
use std::process::Command;

use crate::report::Report;
use crate::workloads::dist_lossy::DistLossy;
use crate::workloads::serve_churn::ServeChurn;
use crate::workloads::solve_flat::SolveFlat;
use crate::workloads::{run_workload, RunConfig, NAMES};

/// Input seed when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;

/// Timed-phase length when `--seconds` is absent.
pub const DEFAULT_SECONDS: u64 = 30;

const USAGE: &str = "usage: perfbench --workload <serve-churn|solve-flat|dist-lossy|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Parsed arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// A workload name, or `all`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Target timed-phase length.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// Parses `args` (without the program name).
///
/// # Errors
///
/// A readable message for a missing, unknown or malformed argument.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.workload != "all" && !NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload `{}`", parsed.workload));
    }
    Ok(parsed)
}

/// Runs one named workload in this process.
pub fn run(args: &Args, trace_path: Option<PathBuf>) -> Report {
    let config = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        trace_path,
    };
    match args.workload.as_str() {
        "serve-churn" => run_workload(&ServeChurn::default(), &config),
        "solve-flat" => run_workload(&SolveFlat::default(), &config),
        "dist-lossy" => run_workload(&DistLossy::default(), &config),
        other => unreachable!("parse admits no workload `{other}`"),
    }
}

/// Where a traced run writes its spans: beside the build output.
fn trace_path(args: &Args) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?.parent()?.join("perfbench-trace");
    Some(dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed)))
}

/// Runs every workload, each in its own child process, one after another.
fn run_all(args: &Args) -> i32 {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate the benchmark executable");
        return 2;
    };
    let mut code = 0;
    for name in NAMES {
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{name}: exited with {s}");
                code = 1;
            }
            Err(e) => {
                eprintln!("{name}: cannot start: {e}");
                code = 2;
            }
        }
    }
    code
}

/// Entry point; returns the process exit code: 0 when every output check
/// passed, 1 when one failed, 2 on a usage error.
pub fn main() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return 2;
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let path = args.trace.then(|| trace_path(&args)).flatten();
    let report = run(&args, path.clone());
    println!(
        "# {} seed={} seconds={} trace={} attempted={} failed={}",
        args.workload, args.seed, args.seconds, args.trace as u8, report.attempted, report.failed
    );
    for m in &report.metrics {
        println!("# {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = path {
        println!("# spans written to {}", path.display());
    }
    for e in &report.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", report.json_line());
    i32::from(!report.correct)
}
