//! Adversarial coverage for the `ConvergecastForest` edge cases the
//! termination detector leans on: singleton components, star and path
//! extremes — both the bare forest shapes and full distributed runs
//! whose *communication graphs* take those shapes — plus the sweep
//! every ack protocol dreads: the one where the component root's own
//! verdict broadcast is the message that gets dropped. Termination must
//! come from the retransmission timer, with results unchanged.

use treenet_core::{retransmit_round_bound, AutoChoice};
use treenet_decomp::ConvergecastForest;
use treenet_dist::{run_distributed, DistAutoOutcome, DistConfig};
use treenet_graph::{Tree, VertexId};
use treenet_model::{Demand, NetworkId, Problem, ProblemBuilder};
use treenet_netsim::{LossModel, DEFAULT_ARQ_WINDOW};

/// The echo layer's traffic class (see `DistMsg::traffic_class`).
const ECHO_CLASS: usize = 3;

// ---------------------------------------------------------------------
// Bare forest shapes.
// ---------------------------------------------------------------------

#[test]
fn path_forest_is_a_single_spine() {
    let n = 7;
    let adj: Vec<Vec<usize>> = (0..n)
        .map(|v| {
            let mut list = Vec::new();
            if v > 0 {
                list.push(v - 1);
            }
            if v + 1 < n {
                list.push(v + 1);
            }
            list
        })
        .collect();
    let f = ConvergecastForest::from_adjacency(&adj);
    assert_eq!(f.roots(), &[0]);
    assert_eq!(f.height(), (n - 1) as u32);
    for v in 1..n {
        assert_eq!(f.parent(v), Some(v - 1));
        assert_eq!(f.depth(v), v as u32);
        assert_eq!(f.children(v - 1), &[v as u32]);
    }
    assert!(f.children(n - 1).is_empty());
}

#[test]
fn star_forest_hangs_every_leaf_off_the_hub() {
    // Hub at 0: a height-1 forest regardless of the leaf count.
    let n = 9;
    let mut adj = vec![Vec::new(); n];
    for v in 1..n {
        adj[0].push(v);
        adj[v].push(0);
    }
    let f = ConvergecastForest::from_adjacency(&adj);
    assert_eq!(f.roots(), &[0]);
    assert_eq!(f.height(), 1);
    assert_eq!(f.children(0).len(), n - 1);
    for v in 1..n {
        assert_eq!(f.parent(v), Some(0));
        assert_eq!(f.depth(v), 1);
    }
    // Leaf-id-led star: the *smallest* id roots the component even when
    // it is a leaf of the star, so the forest height doubles.
    let mut adj = vec![Vec::new(); n];
    for v in (0..n).filter(|&v| v != 4) {
        adj[4].push(v);
        adj[v].push(4);
    }
    adj[4].sort_unstable();
    let f = ConvergecastForest::from_adjacency(&adj);
    assert_eq!(f.roots(), &[0]);
    assert_eq!(f.parent(4), Some(0));
    assert_eq!(f.height(), 2, "leaf-rooted star: root → hub → leaves");
}

#[test]
fn singleton_components_are_their_own_roots() {
    // A mix: isolated vertices among a small component.
    let adj = vec![Vec::new(), vec![2], vec![1], Vec::new(), Vec::new()];
    let f = ConvergecastForest::from_adjacency(&adj);
    assert_eq!(f.roots(), &[0, 1, 3, 4]);
    assert_eq!(f.height(), 1);
    for v in [0usize, 3, 4] {
        assert_eq!(f.parent(v), None);
        assert!(f.children(v).is_empty());
        assert_eq!(f.depth(v), 0);
    }
}

// ---------------------------------------------------------------------
// Distributed runs over extreme communication graphs, under loss.
// ---------------------------------------------------------------------

/// A problem whose communication graph is a k-leaf star centered on
/// demand 0: k disjoint line networks, demand 0 accesses all of them,
/// demand i accesses only network i-1.
fn star_problem(k: usize) -> Problem {
    let mut b = ProblemBuilder::new();
    let networks: Vec<NetworkId> = (0..k)
        .map(|_| b.add_network(Tree::line(5)).unwrap())
        .collect();
    b.add_demand(Demand::pair(VertexId(0), VertexId(3), 3.0), &networks)
        .unwrap();
    for &t in &networks {
        b.add_demand(Demand::pair(VertexId(1), VertexId(4), 2.0), &[t])
            .unwrap();
    }
    b.build().unwrap()
}

/// A problem whose communication graph is a path: demand i shares
/// network i-1 with demand i-1 and network i with demand i+1.
fn path_problem(k: usize) -> Problem {
    let mut b = ProblemBuilder::new();
    let networks: Vec<NetworkId> = (0..k - 1)
        .map(|_| b.add_network(Tree::line(5)).unwrap())
        .collect();
    for i in 0..k {
        let access: Vec<NetworkId> = match i {
            0 => vec![networks[0]],
            i if i == k - 1 => vec![networks[k - 2]],
            i => vec![networks[i - 1], networks[i]],
        };
        b.add_demand(Demand::pair(VertexId(0), VertexId(2), 2.0), &access)
            .unwrap();
    }
    b.build().unwrap()
}

fn comm_adjacency(problem: &Problem) -> Vec<Vec<usize>> {
    problem
        .communication_graph()
        .into_iter()
        .map(|list| list.into_iter().map(|d| d.index()).collect())
        .collect()
}

/// Theorem 5.3's in-network run of `problem` under `config`.
fn tree_unit(problem: &Problem, config: &DistConfig) -> DistAutoOutcome {
    run_distributed(problem, AutoChoice::TreeUnit, config).unwrap()
}

fn assert_same_outcome(lossless: &DistAutoOutcome, lossy: &DistAutoOutcome, label: &str) {
    assert_eq!(lossless.solution, lossy.solution, "{label}");
    assert_eq!(lossless.lambda.to_bits(), lossy.lambda.to_bits(), "{label}");
    assert_eq!(lossless.run.schedules(), lossy.run.schedules(), "{label}");
    let (plain, metrics) = (lossless.run.metrics(), lossy.run.metrics());
    assert_eq!(plain.messages, metrics.messages, "{label}");
    assert_eq!(
        metrics.rounds,
        plain.rounds + metrics.retransmit_rounds,
        "{label}"
    );
    assert!(
        metrics.retransmit_rounds
            <= retransmit_round_bound(metrics.dropped, metrics.delayed, DEFAULT_ARQ_WINDOW as u64),
        "{label}"
    );
}

#[test]
fn dropping_the_roots_own_echo_broadcast_still_terminates() {
    // The star's first sweep: k EchoUps climb to the root (class-3
    // originals 0..k-1), then the root's k EchoDown verdicts flood back
    // (originals k..2k-1). Drop exactly the root's own broadcast — the
    // sweep must complete via the retransmission timer, bit-identically.
    let k = 4;
    let p = star_problem(k);
    let forest = ConvergecastForest::from_adjacency(&comm_adjacency(&p));
    assert_eq!(forest.roots(), &[0], "demand 0 roots the star");
    assert_eq!(forest.height(), 1);

    let lossless = tree_unit(&p, &DistConfig::default());
    assert!(
        lossless.run.schedules()[0].sweeps > 0,
        "sweeps actually ran"
    );
    assert!(
        lossless.run.metrics().by_class[ECHO_CLASS].messages >= 2 * k as u64,
        "the first sweep alone exchanges 2k echo messages"
    );

    let cfg = DistConfig {
        loss: Some(LossModel::lossless(0).with_class_window(ECHO_CLASS, k as u64, k as u64)),
        ..DistConfig::default()
    };
    let lossy = tree_unit(&p, &cfg);
    assert_same_outcome(&lossless, &lossy, "root-echo-drop");
    // Exactly the root's broadcast was dropped and retransmitted.
    let metrics = lossy.run.metrics();
    assert_eq!(metrics.dropped, k as u64);
    assert_eq!(metrics.retransmits, k as u64);
    assert_eq!(metrics.by_class[ECHO_CLASS].retransmits, k as u64);
    // One recovery episode: the sliding-window ARQ detects the gap from
    // the ack pass and retransmits in a single recovery slot.
    assert_eq!(metrics.retransmit_rounds, 1);
}

#[test]
fn dropping_the_leaves_reports_also_recovers() {
    // The convergecast half: every EchoUp of the first sweep lost.
    let k = 4;
    let p = star_problem(k);
    let lossless = tree_unit(&p, &DistConfig::default());
    let cfg = DistConfig {
        loss: Some(LossModel::lossless(0).with_class_window(ECHO_CLASS, 0, k as u64)),
        ..DistConfig::default()
    };
    let lossy = tree_unit(&p, &cfg);
    assert_same_outcome(&lossless, &lossy, "leaf-echo-drop");
    let metrics = lossy.run.metrics();
    assert_eq!(metrics.dropped, k as u64);
    assert_eq!(metrics.by_class[ECHO_CLASS].retransmits, k as u64);
}

#[test]
fn star_and_path_extremes_survive_bernoulli_loss() {
    for (label, problem) in [("star", star_problem(5)), ("path", path_problem(6))] {
        let forest = ConvergecastForest::from_adjacency(&comm_adjacency(&problem));
        if label == "path" {
            assert_eq!(forest.height(), 5, "path comm graph: one spine");
        }
        let lossless = tree_unit(&problem, &DistConfig::default());
        for loss_seed in [1u64, 2, 3] {
            let cfg = DistConfig {
                loss: Some(
                    LossModel::bernoulli(0.2, loss_seed)
                        .with_duplicates(0.1)
                        .with_delays(0.1),
                ),
                ..DistConfig::default()
            };
            let lossy = tree_unit(&problem, &cfg);
            assert_same_outcome(&lossless, &lossy, label);
            assert!(lossy.run.metrics().dropped > 0, "{label}: loss fired");
        }
    }
}

#[test]
fn singleton_component_is_lossproof_for_free() {
    // An isolated processor exchanges zero messages, so even an extreme
    // loss model has nothing to drop: zero overhead, identical metrics.
    let mut b = ProblemBuilder::new();
    let t = b.add_network(Tree::line(6)).unwrap();
    b.add_demand(Demand::pair(VertexId(0), VertexId(5), 2.0), &[t])
        .unwrap();
    let p = b.build().unwrap();
    let lossless = tree_unit(&p, &DistConfig::default());
    let cfg = DistConfig {
        loss: Some(
            LossModel::bernoulli(0.9, 7)
                .with_duplicates(0.9)
                .with_delays(0.9),
        ),
        ..DistConfig::default()
    };
    let lossy = tree_unit(&p, &cfg);
    let metrics = lossy.run.metrics();
    assert_eq!(lossless.run.metrics(), metrics);
    assert_eq!(metrics.messages, 0);
    assert_eq!(metrics.dropped, 0);
    assert_eq!(metrics.retransmit_rounds, 0);
    assert_eq!(lossless.solution, lossy.solution);
}
