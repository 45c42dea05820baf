//! `treenet-serve` — the online scheduling service.
//!
//! ```text
//! treenet-serve [--spec FILE | --networks K --n V --m M --seed S]
//!               [--epsilon E] [--solver-seed S] [--hmin H]
//!               [--tcp ADDR] [--gen N [--gen-seed S]]
//! ```
//!
//! Bootstraps a problem (from a `ProblemSpec` JSON file, or a seeded
//! random tree workload, default two 32-vertex trees with no demands),
//! then serves the line-delimited JSON admission protocol:
//!
//! * default — blocking loop over stdin/stdout;
//! * `--tcp ADDR` — listen on `ADDR` (e.g. `127.0.0.1:7401`), serving
//!   one connection at a time; a `drain` ends the connection, not the
//!   process;
//! * `--gen N` — self-drive: feed `N` seeded open-loop requests through
//!   the server, then a `check` and a `drain`, printing every response.
//!   Exits non-zero if the final check is not bit-identical.

use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_core::SolverConfig;
use treenet_model::spec::ProblemSpec;
use treenet_model::workload::TreeWorkload;
use treenet_model::Problem;
use treenet_serve::{OpenLoop, Server};

const USAGE: &str = "usage:
  treenet-serve [--spec FILE | --networks K --n V --m M --seed S]
                [--epsilon E] [--solver-seed S] [--hmin H]
                [--tcp ADDR] [--gen N [--gen-seed S]]

  --hmin H  serve capacitated demands: admit any height >= H (H in
            (0, 1]); submits may then carry a `height` field, and
            `--gen` streams mixed narrow/wide heights";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn flag(args: &[String], key: &str) -> Result<Option<String>, String> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == key {
            return match it.next() {
                Some(value) => Ok(Some(value.clone())),
                None => Err(format!("flag {key} needs a value")),
            };
        }
    }
    Ok(None)
}

fn parsed<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match flag(args, key)? {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("bad value for {key}: {raw}")),
    }
}

fn bootstrap(args: &[String]) -> Result<Problem, String> {
    if let Some(path) = flag(args, "--spec")? {
        let raw = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        let spec: ProblemSpec =
            serde_json::from_str(&raw).map_err(|e| format!("parsing {path}: {e}"))?;
        return spec.build().map_err(|e| format!("building problem: {e}"));
    }
    let networks: usize = parsed(args, "--networks", 2)?;
    let n: usize = parsed(args, "--n", 32)?;
    let m: usize = parsed(args, "--m", 0)?;
    let seed: u64 = parsed(args, "--seed", 7)?;
    TreeWorkload::new(n, m)
        .with_networks(networks)
        .try_generate(&mut SmallRng::seed_from_u64(seed))
        .map_err(|e| format!("building problem: {e}"))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    for arg in args {
        if arg.starts_with("--")
            && ![
                "--spec",
                "--networks",
                "--n",
                "--m",
                "--seed",
                "--epsilon",
                "--solver-seed",
                "--hmin",
                "--tcp",
                "--gen",
                "--gen-seed",
            ]
            .contains(&arg.as_str())
        {
            return Err(format!("unknown flag {arg}"));
        }
    }
    let problem = bootstrap(args)?;
    let hmin: Option<f64> = match flag(args, "--hmin")? {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("bad value for --hmin: {raw}"))?,
        ),
    };
    let mut config = SolverConfig::default()
        .with_epsilon(parsed(args, "--epsilon", 0.1)?)
        .with_seed(parsed(args, "--solver-seed", 0x7ee5)?);
    if let Some(h) = hmin {
        config = config.with_hmin(h);
    }
    let vertices = problem.vertex_count() as u32;
    let networks = problem.network_count() as u32;
    let bootstrap_demands = problem.demand_count() as u64;
    let mut server = Server::new(problem, &config).map_err(|e| e.to_string())?;

    if let Some(count) = flag(args, "--gen")? {
        let count: u64 = count
            .parse()
            .map_err(|_| format!("bad value for --gen: {count}"))?;
        let gen_seed: u64 = parsed(args, "--gen-seed", 11)?;
        let mut generator =
            OpenLoop::new(gen_seed, vertices, networks).with_id_floor(bootstrap_demands);
        if let Some(h) = hmin {
            // Capacitated self-drive: mixed narrow/wide heights above
            // the served floor (capped at 1/2 so narrow heights exist).
            generator = generator.with_heights(h.min(0.5), 50);
        }
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for _ in 0..count {
            let request = generator.next_request();
            let response = server.handle_line(&request.to_json());
            writeln!(out, "{response}").map_err(|e| e.to_string())?;
        }
        let check = server.handle_line(r#"{"op":"check"}"#);
        writeln!(out, "{check}").map_err(|e| e.to_string())?;
        let drain = server.handle_line(r#"{"op":"drain"}"#);
        writeln!(out, "{drain}").map_err(|e| e.to_string())?;
        return Ok(if check.contains(r#""identical":true"#) {
            ExitCode::SUCCESS
        } else {
            eprintln!("check failed: warm state diverged from the reference solve");
            ExitCode::FAILURE
        });
    }

    if let Some(addr) = flag(args, "--tcp")? {
        let listener =
            std::net::TcpListener::bind(&addr).map_err(|e| format!("binding {addr}: {e}"))?;
        eprintln!("treenet-serve listening on {addr}");
        for stream in listener.incoming() {
            let stream = stream.map_err(|e| format!("accepting: {e}"))?;
            let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
            serve_connection(&mut server, reader, stream)?;
        }
        return Ok(ExitCode::SUCCESS);
    }

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_connection(&mut server, stdin.lock(), stdout.lock())?;
    Ok(ExitCode::SUCCESS)
}

fn serve_connection<R: BufRead, W: Write>(
    server: &mut Server,
    reader: R,
    writer: W,
) -> Result<(), String> {
    server.run(reader, writer).map_err(|e| e.to_string())
}
