//! Wavelength routing in an optical access network — the scenario the
//! paper's introduction motivates: processors compete for exclusive
//! routes/channels.
//!
//! A passive optical network has a physical fiber tree; each WDM
//! wavelength is an independent tree-network over the same sites. A
//! lightpath request ⟨u, v⟩ needs exclusive use of its wavelength on
//! every fiber segment along the route (the unit height case: two
//! lightpaths on one wavelength must be edge-disjoint). Not every
//! transceiver is tunable to every wavelength — that is the paper's
//! accessibility relation `Acc(P)`.
//!
//! ```sh
//! cargo run --example wavelength_routing
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use treenet::baseline::{greedy_profit, GreedyOrder};
use treenet::core::{solve, solve_sequential_tree, AutoChoice, AutoRun, SolverConfig};
use treenet::graph::generators::TreeFamily;
use treenet::model::{Demand, ProblemBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SmallRng::seed_from_u64(2026);
    let sites = 48; // splitters/ONUs in the fiber plant
    let wavelengths = 4;
    let requests = 80;

    // The same physical tree carries every wavelength.
    let fiber = TreeFamily::Caterpillar.generate(sites, &mut rng);
    let mut builder = ProblemBuilder::new();
    let lambdas: Vec<_> = (0..wavelengths)
        .map(|_| builder.add_network(fiber.clone()))
        .collect::<Result<_, _>>()?;

    // Lightpath requests with revenue; each transceiver tunes to a random
    // subset of wavelengths.
    for _ in 0..requests {
        let u = rng.gen_range(0..sites as u32);
        let mut v = rng.gen_range(0..sites as u32 - 1);
        if v >= u {
            v += 1;
        }
        let revenue = rng.gen_range(1.0..16.0f64);
        let mut tunable: Vec<_> = lambdas
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(0.5))
            .collect();
        if tunable.is_empty() {
            tunable.push(lambdas[rng.gen_range(0..lambdas.len())]);
        }
        builder.add_demand(Demand::pair(u.into(), v.into(), revenue), &tunable)?;
    }
    let problem = builder.build()?;
    println!(
        "PON: {sites} sites, {wavelengths} wavelengths, {requests} lightpath requests \
         ({} schedulable instances)",
        problem.instance_count()
    );

    // Distributed (7+ε)-approximation vs the sequential 3-approximation
    // vs revenue-greedy.
    let config = SolverConfig::default().with_seed(7);
    let AutoRun::Single(distributed) = solve(&problem, AutoChoice::TreeUnit, &config)?.run else {
        unreachable!("Theorem 5.3 is one framework run");
    };
    distributed.solution.verify(&problem)?;
    let sequential = solve_sequential_tree(&problem);
    sequential.solution.verify(&problem)?;
    let greedy = greedy_profit(&problem, GreedyOrder::Profit);

    let total: f64 = problem.total_profit();
    println!(
        "\n{:<28}{:>10}{:>12}{:>16}",
        "algorithm", "revenue", "requests", "certified ratio"
    );
    println!(
        "{:<28}{:>10.1}{:>12}{:>16.3}",
        "distributed (7+eps)",
        distributed.profit(&problem),
        distributed.solution.len(),
        distributed.certified_ratio(&problem),
    );
    println!(
        "{:<28}{:>10.1}{:>12}{:>16.3}",
        "sequential (3-approx)",
        sequential.profit(&problem),
        sequential.solution.len(),
        sequential.certified_ratio(&problem),
    );
    println!(
        "{:<28}{:>10.1}{:>12}{:>16}",
        "revenue-greedy",
        greedy.profit(&problem),
        greedy.len(),
        "-",
    );
    println!("\ntotal offered revenue: {total:.1}");
    println!(
        "distributed run used {} communication rounds ({} MIS iterations) — \
         polylogarithmic, while the sequential algorithm performed {} strictly \
         serialized raises.",
        distributed.stats.comm_rounds, distributed.stats.mis_rounds, sequential.raises,
    );
    Ok(())
}
