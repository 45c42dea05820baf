//! Decomposition explorer: builds all three tree decompositions of
//! Section 4 for the paper's example tree (Figure 6) and prints their
//! structure, pivot sets, and the capture node / critical edges of the
//! running-example demand ⟨4, 13⟩ — reproducing the discussion around
//! Figures 3 and 6.
//!
//! ```sh
//! cargo run --example decomposition_explorer
//! ```

use treenet::decomp::{capture_node, critical_edges, Strategy};
use treenet::graph::{RootedTree, VertexId};
use treenet::model::fixtures::{figure6_tree, paper_vertex};

fn label(v: VertexId) -> u32 {
    v.0 + 1 // paper labels are 1-based
}

fn main() {
    let tree = figure6_tree();
    let rooted = RootedTree::new(&tree, VertexId(0));
    println!("the paper's Figure-6 tree ({} vertices):", tree.len());
    for (e, (u, v)) in tree.edges() {
        print!("  {}-{}", label(u), label(v));
        if e.0 % 5 == 4 {
            println!();
        }
    }
    println!("\n");

    // The running example: demand ⟨4, 13⟩ routes 4-2-5-8-13.
    let path = rooted.path(paper_vertex(4), paper_vertex(13));
    let labels: Vec<String> = path
        .vertices()
        .iter()
        .map(|&v| label(v).to_string())
        .collect();
    println!("demand ⟨4, 13⟩ routes along {}", labels.join("-"));

    for strategy in Strategy::ALL {
        let h = strategy.build(&tree);
        h.verify(&tree).expect("valid decomposition");
        println!("\n=== {} decomposition ===", strategy.name());
        println!("depth = {}, pivot size θ = {}", h.depth(), h.pivot_size());

        // Print H as an indented tree.
        fn dump(h: &treenet::decomp::TreeDecomposition, z: VertexId, indent: usize) {
            let pivots: Vec<String> = h.pivot(z).iter().map(|&u| label(u).to_string()).collect();
            println!(
                "{}{}  χ = {{{}}}",
                "  ".repeat(indent),
                label(z),
                pivots.join(", ")
            );
            for &c in h.children(z) {
                dump(h, c, indent + 1);
            }
        }
        dump(&h, h.root(), 1);

        let mu = capture_node(&h, path.view());
        let pi = critical_edges(&h, &rooted, path.view());
        let pi_str: Vec<String> = pi
            .iter()
            .map(|&e| {
                let (u, v) = tree.endpoints(e);
                format!("⟨{},{}⟩", label(u), label(v))
            })
            .collect();
        println!(
            "⟨4,13⟩ captured at µ = {}, critical edges π = {{{}}} (|π| = {} ≤ 2(θ+1) = {})",
            label(mu),
            pi_str.join(", "),
            pi.len(),
            2 * (h.pivot_size() + 1)
        );
    }

    println!(
        "\nthe trade-off of Section 4: root-fixing = ⟨deep, θ=1⟩, balancing = \
         ⟨log n, θ up to log n⟩, ideal = ⟨2 log n, θ ≤ 2⟩ — only the ideal \
         decomposition gives both a polylogarithmic epoch count and constant Δ."
    );
}
