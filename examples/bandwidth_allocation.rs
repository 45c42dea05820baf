//! Bandwidth allocation on an aggregation tree — the arbitrary height
//! case of Section 6.
//!
//! A datacenter aggregation network is a tree; tenants request a
//! bandwidth share (height ∈ (0,1]) between two hosts, over one of
//! several redundant fabric planes (tree-networks). The scheduler admits
//! a max-profit subset subject to every link's capacity, using the
//! wide/narrow split and the per-plane combiner of Theorem 6.3, and
//! cross-checks against the exact optimum.
//!
//! ```sh
//! cargo run --example bandwidth_allocation
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use treenet::baseline::exact_max_profit;
use treenet::core::{solve, AutoChoice, AutoRun, SolverConfig};
use treenet::graph::generators::TreeFamily;
use treenet::model::{Demand, HeightClass, ProblemBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SmallRng::seed_from_u64(314);
    let hosts = 24;
    let planes = 2;
    let flows = 14; // small enough for the exact reference

    let mut builder = ProblemBuilder::new();
    let fabric: Vec<_> = (0..planes)
        .map(|_| builder.add_network(TreeFamily::BalancedBinary.generate(hosts, &mut rng)))
        .collect::<Result<_, _>>()?;

    for _ in 0..flows {
        let u = rng.gen_range(0..hosts as u32);
        let mut v = rng.gen_range(0..hosts as u32 - 1);
        if v >= u {
            v += 1;
        }
        let value = rng.gen_range(1.0..10.0f64);
        // Elephants want most of a link; mice share.
        let share = if rng.gen_bool(0.4) {
            rng.gen_range(0.55..0.95)
        } else {
            rng.gen_range(0.1..0.5)
        };
        builder.add_demand(
            Demand::pair(u.into(), v.into(), value).with_height(share),
            &fabric,
        )?;
    }
    let problem = builder.build()?;
    let wide = problem
        .demands()
        .filter(|&a| problem.demand(a).height_class() == HeightClass::Wide)
        .count();
    println!(
        "{} flows ({} elephants, {} mice) over {} fabric planes of {} hosts",
        flows,
        wide,
        flows - wide,
        planes,
        hosts
    );

    let config = SolverConfig::default().with_seed(11);
    let AutoRun::Split(outcome) = solve(&problem, AutoChoice::TreeArbitrary, &config)?.run else {
        unreachable!("Theorem 6.3 splits wide and narrow flows");
    };
    outcome.solution.verify(&problem)?;
    println!(
        "\nadmitted {} flows, value {:.2}",
        outcome.solution.len(),
        outcome.profit(&problem)
    );
    println!(
        "  wide sub-solution: {:.2}; narrow sub-solution: {:.2}; combined: {:.2}",
        outcome.wide.solution.profit(&problem),
        outcome.narrow.solution.profit(&problem),
        outcome.profit(&problem),
    );
    println!(
        "certified ratio {:.3} (Theorem 6.3 bound: 80/(1-ε) = {:.1})",
        outcome.certified_ratio(&problem),
        80.0 / 0.9
    );

    match exact_max_profit(&problem, 50_000_000) {
        Ok(opt) => {
            let ratio = opt.profit(&problem) / outcome.profit(&problem).max(1e-9);
            println!(
                "exact optimum {:.2} → true ratio {:.3} (far below the worst-case bound)",
                opt.profit(&problem),
                ratio
            );
        }
        Err(e) => println!("exact reference skipped: {e}"),
    }

    // Show the per-plane choice the combiner made.
    for (i, &plane) in fabric.iter().enumerate() {
        let from_wide = outcome
            .solution
            .selected()
            .iter()
            .filter(|&&d| {
                problem.instance(d).network == plane
                    && problem.demand(problem.instance(d).demand).height_class()
                        == HeightClass::Wide
            })
            .count();
        let total = outcome
            .solution
            .selected()
            .iter()
            .filter(|&&d| problem.instance(d).network == plane)
            .count();
        println!(
            "plane {i}: {total} flows admitted ({from_wide} wide / {} narrow)",
            total - from_wide
        );
    }
    Ok(())
}
