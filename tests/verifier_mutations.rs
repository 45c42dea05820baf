//! Mutation tests: the verifiers must *reject* corrupted artifacts — a
//! verifier that accepts everything proves nothing.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet::core::{check_interference, solve, AutoChoice, RaiseEvent, SolverConfig};
use treenet::decomp::{LayeredDecomposition, Strategy, TreeDecomposition};
use treenet::graph::{Tree, VertexId};
use treenet::model::workload::TreeWorkload;
use treenet::model::{InstanceId, Solution};

#[test]
fn tree_decomposition_verifier_rejects_wrong_parents() {
    // A decomposition of the 5-path with vertex 4 hung under vertex 0
    // violates LCA closure (path 3~4 misses LCA_H(3,4)).
    let tree = Tree::line(5);
    let parent = vec![
        None,
        Some(VertexId(0)),
        Some(VertexId(1)),
        Some(VertexId(2)),
        Some(VertexId(0)),
    ];
    let h = TreeDecomposition::from_parents(&tree, parent);
    assert!(h.verify(&tree).is_err());
}

#[test]
fn layered_verifier_rejects_shuffled_groups() {
    // Swap the group ordering (process shallow captures first): overlapping
    // pairs across groups lose the critical-edge guarantee.
    let p = TreeWorkload::new(16, 20)
        .with_networks(1)
        .generate(&mut SmallRng::seed_from_u64(3));
    let layers = LayeredDecomposition::for_trees(&p, Strategy::Ideal);
    let max_group = layers.num_groups() as u32;
    // Rebuild with inverted group indices and *empty-ish* critical sets:
    // keep only the first critical edge of each instance.
    let group: Vec<u32> = p
        .instances()
        .map(|d| max_group + 1 - layers.group_of(d.id))
        .collect();
    let mut pi = Vec::new();
    let critical: Vec<Vec<treenet::graph::EdgeId>> = p
        .instances()
        .map(|d| {
            let pi = layers.critical_of(&p, d.id, &mut pi);
            pi.iter().copied().take(1).collect()
        })
        .collect();
    let mutated = LayeredDecomposition::from_parts_for_tests(group, critical);
    // The original verifies; the mutation must not (on workloads with
    // real cross-group overlap, which this seed has).
    assert!(layers.verify(&p).is_ok());
    assert!(
        mutated.verify(&p).is_err(),
        "mutated decomposition accepted"
    );
}

#[test]
fn interference_checker_rejects_fabricated_traces() {
    let p = TreeWorkload::new(12, 14)
        .with_networks(1)
        .generate(&mut SmallRng::seed_from_u64(5));
    let layers = LayeredDecomposition::for_trees(&p, Strategy::Ideal);
    // Find an overlapping pair and fabricate a trace raising them in an
    // order that skips the critical edges: claim the *later-group* one
    // was raised first with an empty-critical mutation — simplest: build
    // a trace where d1's critical edges never intersect path(d2). We
    // fabricate by swapping roles of a known-overlapping pair where only
    // one direction satisfies the property.
    let mut found = None;
    let mut pi = Vec::new();
    'outer: for a in p.instances() {
        for b in p.instances() {
            if a.id != b.id && a.overlaps(b) {
                let a_covers_b = layers
                    .critical_of(&p, a.id, &mut pi)
                    .iter()
                    .any(|&e| b.active_on(e));
                let b_covers_a = layers
                    .critical_of(&p, b.id, &mut pi)
                    .iter()
                    .any(|&e| a.active_on(e));
                if a_covers_b && !b_covers_a {
                    found = Some((b.id, a.id)); // raising b first violates
                    break 'outer;
                }
            }
        }
    }
    if let Some((first, second)) = found {
        let trace = vec![
            RaiseEvent {
                instance: first,
                delta: 1.0,
                at: (1, 1, 0),
            },
            RaiseEvent {
                instance: second,
                delta: 1.0,
                at: (1, 1, 1),
            },
        ];
        assert_eq!(
            check_interference(&p, &layers, &trace),
            Some((first, second))
        );
    }
    // Regardless: the real trace from a real run passes.
    let cfg = SolverConfig::default().with_trace(true);
    let run = solve(&p, AutoChoice::TreeUnit, &cfg).unwrap().run;
    assert_eq!(
        check_interference(&p, &layers, run.halves()[0].trace.as_ref().unwrap()),
        None
    );
}

#[test]
fn solution_verifier_rejects_all_corruptions() {
    let p = TreeWorkload::new(10, 12)
        .with_networks(1)
        .generate(&mut SmallRng::seed_from_u64(8));
    // Everything at once: guaranteed overlaps on one shared network.
    let all: Vec<InstanceId> = p.instances().map(|d| d.id).collect();
    let everything = Solution::new(all);
    assert!(everything.verify(&p).is_err());
    // Unknown instance id.
    let bogus = Solution::new(vec![InstanceId(10_000)]);
    assert!(bogus.verify(&p).is_err());
}
