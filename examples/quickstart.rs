//! Quickstart: build a small tree-network instance, run the distributed
//! (7+ε)-approximation scheduler (Theorem 5.3), and inspect the result.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use treenet::core::{solve, AutoChoice, SolverConfig};
use treenet::graph::{Tree, VertexId};
use treenet::model::{Demand, ProblemBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two tree-networks over the same 8 vertices: a path and a star-ish
    // tree. Think of them as two independent channels over the same sites.
    let mut builder = ProblemBuilder::new();
    let path = builder.add_network(Tree::line(8))?;
    let star = builder.add_network(Tree::from_edges(
        8,
        &[(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (5, 6), (5, 7)],
    )?)?;

    // Five processors, each owning one demand ⟨u, v⟩ with a profit.
    // Access sets differ: some processors can use both channels.
    builder.add_demand(Demand::pair(VertexId(0), VertexId(4), 5.0), &[path, star])?;
    builder.add_demand(Demand::pair(VertexId(2), VertexId(6), 4.0), &[path])?;
    builder.add_demand(Demand::pair(VertexId(1), VertexId(7), 3.0), &[star])?;
    builder.add_demand(Demand::pair(VertexId(5), VertexId(7), 2.0), &[path, star])?;
    builder.add_demand(Demand::pair(VertexId(0), VertexId(2), 1.5), &[star])?;
    let problem = builder.build()?;

    println!(
        "problem: n = {} vertices, r = {} networks, m = {} demands, |D| = {} instances",
        problem.vertex_count(),
        problem.network_count(),
        problem.demand_count(),
        problem.instance_count(),
    );

    // Run the scheduler: ε = 0.1 targets (1-ε)-satisfied duals and a
    // certified factor of at most 7/(1-ε).
    let config = SolverConfig::default().with_epsilon(0.1).with_seed(42);
    let outcome = solve(&problem, AutoChoice::TreeUnit, &config)?;
    outcome.solution.verify(&problem)?;

    println!("\nselected instances:");
    for &d in outcome.solution.selected() {
        let inst = problem.instance(d);
        let path = inst.path();
        let path_str: Vec<String> = problem
            .rooted(inst.network)
            .path(path.source(), path.target())
            .vertices()
            .iter()
            .map(|v| v.0.to_string())
            .collect();
        println!(
            "  demand {} on {}: route {} (profit {})",
            inst.demand,
            inst.network,
            path_str.join("-"),
            problem.profit_of(d),
        );
    }

    println!(
        "\nprofit p(S)            = {:.2}",
        outcome.solution.profit(&problem)
    );
    println!("dual bound on OPT      = {:.2}", outcome.opt_upper_bound);
    println!(
        "certified approx ratio = {:.3}  (Theorem 5.3 guarantees ≤ {:.3})",
        outcome.certified_ratio(&problem),
        7.0 / 0.9,
    );
    // Theorem 5.3 is one framework run; its counters bound the rounds.
    let stats = outcome.run.halves()[0].stats;
    println!(
        "rounds: {} epochs, {} stages, {} steps, {} Luby iterations (~{} comm rounds)",
        stats.epochs, stats.stages, stats.steps, stats.mis_rounds, stats.comm_rounds,
    );
    Ok(())
}
