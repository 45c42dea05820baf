//! Job scheduling with release times and deadlines on shared machines —
//! the line-networks-with-windows setting of Section 7.
//!
//! The timeline is a line-network (timeslot `i` = edge `i`); each machine
//! is one resource; a job has a window `[release, deadline]`, a
//! processing time, a profit, and a capacity share (height) — e.g. the
//! fraction of the machine's memory it pins. The scheduler picks jobs,
//! machines and start times, keeping every machine within capacity at
//! every timeslot.
//!
//! ```sh
//! cargo run --example job_scheduling
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use treenet::baseline::{barnoy_line_arbitrary, ps_line_arbitrary, PsConfig};
use treenet::core::{solve, AutoChoice, AutoRun, SolverConfig};
use treenet::graph::Tree;
use treenet::model::{Demand, ProblemBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SmallRng::seed_from_u64(99);
    let horizon = 48usize; // timeslots (e.g. half-hour slots over a day)
    let machines = 3;
    let jobs = 60;

    let mut builder = ProblemBuilder::new();
    let pool: Vec<_> = (0..machines)
        .map(|_| builder.add_network(Tree::line(horizon + 1)))
        .collect::<Result<_, _>>()?;

    for _ in 0..jobs {
        let processing = rng.gen_range(2..10u32);
        let slack = rng.gen_range(0..8u32);
        let window = (processing + slack).min(horizon as u32);
        let release = rng.gen_range(0..=(horizon as u32 - window));
        let deadline = release + window - 1;
        let profit = rng.gen_range(1.0..20.0f64);
        // A third of the jobs are heavyweight (wide), the rest share.
        let height = if rng.gen_bool(0.33) {
            rng.gen_range(0.6..1.0)
        } else {
            rng.gen_range(0.15..0.5)
        };
        // Jobs can run on a random subset of machines.
        let mut eligible: Vec<_> = pool.iter().copied().filter(|_| rng.gen_bool(0.6)).collect();
        if eligible.is_empty() {
            eligible.push(pool[rng.gen_range(0..pool.len())]);
        }
        builder.add_demand(
            Demand::window(release, deadline, processing, profit).with_height(height),
            &eligible,
        )?;
    }
    let problem = builder.build()?;
    println!(
        "scheduling {jobs} windowed jobs on {machines} machines over {horizon} slots \
         ({} start-time instances)",
        problem.instance_count()
    );

    // Ours: (23+ε)-approximation (Theorem 7.2) vs the PS-style baseline.
    let config = SolverConfig::default().with_seed(5);
    let AutoRun::Split(ours) = solve(&problem, AutoChoice::LineArbitrary, &config)?.run else {
        unreachable!("Theorem 7.2 splits wide and narrow jobs");
    };
    ours.solution.verify(&problem)?;
    let ps = ps_line_arbitrary(&problem, &PsConfig::default())?;
    ps.solution.verify(&problem)?;

    println!("\nours (Theorem 7.2):");
    println!(
        "  scheduled {} jobs, profit {:.1}",
        ours.solution.len(),
        ours.profit(&problem)
    );
    println!(
        "  certified ratio {:.3} (bound 23/(1-ε) = {:.2})",
        ours.certified_ratio(&problem),
        23.0 / 0.9
    );
    println!(
        "  wide sub-run: {} jobs; narrow sub-run: {} jobs",
        ours.wide.solution.len(),
        ours.narrow.solution.len()
    );

    let ps_profit = ps.profit(&problem);
    println!("\nPanconesi–Sozio style baseline (distributed, single-stage):");
    println!(
        "  scheduled {} jobs, profit {:.1}",
        ps.solution.len(),
        ps_profit
    );
    println!(
        "  certified ratio {:.3}",
        ps.opt_upper_bound() / ps_profit.max(1e-9)
    );

    // The sequential state of the art the paper starts from: Bar-Noy et
    // al.'s 5-approximation — tightest certificate, but inherently serial.
    let (bn_solution, bn_wide, bn_narrow) = barnoy_line_arbitrary(&problem)?;
    bn_solution.verify(&problem)?;
    let bn_bound = bn_wide.opt_upper_bound() + bn_narrow.opt_upper_bound();
    let bn_profit = bn_solution.profit(&problem);
    println!("\nBar-Noy et al. baseline (sequential 5-approx):");
    println!(
        "  scheduled {} jobs, profit {:.1}",
        bn_solution.len(),
        bn_profit
    );
    println!(
        "  certified ratio {:.3} after {} serialized raises",
        bn_bound / bn_profit.max(1e-9),
        bn_wide.raises + bn_narrow.raises
    );

    // Print a small Gantt-like view of machine 0 under our solution.
    println!("\nmachine 0 occupancy (our solution, '#' ≥ 80% load, '+' ≥ 40%, '.' busy):");
    let mut load = vec![0.0f64; horizon];
    for &d in ours.solution.selected() {
        let inst = problem.instance(d);
        if inst.network == pool[0] {
            for &e in inst.path.edges() {
                load[e.index()] += problem.height_of(d);
            }
        }
    }
    let row: String = load
        .iter()
        .map(|&l| {
            if l >= 0.8 {
                '#'
            } else if l >= 0.4 {
                '+'
            } else if l > 0.0 {
                '.'
            } else {
                ' '
            }
        })
        .collect();
    println!("  |{row}|");
    Ok(())
}
