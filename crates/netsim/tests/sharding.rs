//! The sharded round executor: at any thread count the engine must be
//! observationally identical to the single-threaded one — every node
//! sees the same inbox *in the same order* every round, and `Metrics`
//! (including `by_class` and the reliable layer's retransmit counters)
//! match bit for bit. The suite drives adversarial topologies (star,
//! path, disconnected forests) plus a seeded proptest over random
//! forests with delivery shuffle and loss, pins the longest-processing-
//! time shapes of `ShardPlan::by_components`, and pins the shard-plan
//! validation panics (cross-shard edges, incomplete plans).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use treenet_netsim::{
    Context, Engine, Envelope, LossModel, MessageSize, Metrics, Protocol, ShardPlan, Topology,
};

/// A tagged gossip message; the tag doubles as the traffic class so the
/// per-class counters differ across classes and any merge mistake shows.
#[derive(Clone, Debug, PartialEq)]
struct Tagged {
    payload: u64,
    tag: usize,
}

impl MessageSize for Tagged {
    fn size_bits(&self) -> u64 {
        64 + self.tag as u64
    }
    fn traffic_class(&self) -> usize {
        self.tag
    }
}

/// Broadcasts a fresh value each round and logs every inbox verbatim —
/// the order-sensitive witness of delivery order.
struct Gossip {
    id: u64,
    rounds: u64,
    log: Vec<Vec<(usize, Tagged)>>,
}

impl Gossip {
    fn new(id: usize, rounds: u64) -> Self {
        Gossip {
            id: id as u64,
            rounds,
            log: Vec::new(),
        }
    }
}

impl Protocol for Gossip {
    type Msg = Tagged;

    fn on_start(&mut self, ctx: &mut Context<'_, Tagged>) {
        ctx.broadcast(Tagged {
            payload: self.id * 1000,
            tag: (self.id % 3) as usize,
        });
    }

    fn on_round(&mut self, round: u64, inbox: &[Envelope<Tagged>], ctx: &mut Context<'_, Tagged>) {
        self.log
            .push(inbox.iter().map(|e| (e.from, e.msg.clone())).collect());
        if round < self.rounds {
            ctx.broadcast(Tagged {
                payload: self.id * 1000 + round,
                tag: ((self.id + round) % 3) as usize,
            });
        }
    }

    fn is_done(&self) -> bool {
        self.log.len() as u64 > self.rounds
    }
}

/// Runs `Gossip` over `topology` twice — single-threaded and with
/// `threads` shards — and asserts identical metrics and identical
/// per-node inbox logs.
fn assert_thread_invariant(
    topology: &Topology,
    threads: usize,
    configure: impl Fn(Engine<Gossip>) -> Engine<Gossip>,
) {
    let rounds = 5;
    let nodes = |n: usize| (0..n).map(|v| Gossip::new(v, rounds)).collect::<Vec<_>>();
    let mut serial = configure(Engine::new(nodes(topology.len()), topology.clone()));
    let mut sharded =
        configure(Engine::new(nodes(topology.len()), topology.clone()).with_threads(threads));
    let a = serial.run(1000).expect("serial run");
    let b = sharded.run(1000).expect("sharded run");
    assert_eq!(a, b, "metrics diverged at {threads} threads");
    for (v, (s, p)) in serial.nodes().iter().zip(sharded.nodes()).enumerate() {
        assert_eq!(
            s.log, p.log,
            "node {v}: inbox order diverged at {threads} threads"
        );
    }
}

/// A forest of `blocks` random trees over disjoint, interleaved node id
/// ranges, so component ids are non-contiguous (the adversarial case for
/// the shard-local index maps).
fn random_forest(seed: u64) -> Topology {
    let mut rng = SmallRng::seed_from_u64(seed);
    let blocks = rng.gen_range(2..6usize);
    let per_block = rng.gen_range(2..8usize);
    let n = blocks * per_block;
    let mut t = Topology::new(n);
    // Node v belongs to block v % blocks: members of a block are spread
    // across the whole id range instead of sitting in one contiguous run.
    for b in 0..blocks {
        let members: Vec<usize> = (0..n).filter(|v| v % blocks == b).collect();
        for i in 1..members.len() {
            let parent = members[rng.gen_range(0..i)];
            t.add_edge(parent, members[i]);
        }
    }
    t
}

#[test]
fn star_is_thread_invariant() {
    let mut t = Topology::new(9);
    for leaf in 1..9 {
        t.add_edge(0, leaf);
    }
    for threads in [2, 4, 8] {
        assert_thread_invariant(&t, threads, |e| e);
    }
}

#[test]
fn path_is_thread_invariant() {
    let mut t = Topology::new(12);
    for v in 0..11 {
        t.add_edge(v, v + 1);
    }
    assert_thread_invariant(&t, 8, |e| e);
}

#[test]
fn disconnected_forest_is_thread_invariant() {
    // Three components of different shapes: a triangle, a path, a pair —
    // with interleaved ids, so shard-local indices differ from node ids.
    let mut t = Topology::new(9);
    t.add_edge(0, 3);
    t.add_edge(3, 6);
    t.add_edge(6, 0);
    t.add_edge(1, 4);
    t.add_edge(4, 7);
    t.add_edge(2, 5);
    for threads in [2, 3, 8] {
        assert_thread_invariant(&t, threads, |e| e);
    }
}

#[test]
fn shuffled_delivery_is_thread_invariant() {
    let t = random_forest(0xf0_11);
    assert_thread_invariant(&t, 4, |e| e.with_delivery_shuffle(0xabcd));
}

#[test]
fn lossy_links_are_thread_invariant() {
    let t = random_forest(0xf0_22);
    let model = LossModel::bernoulli(0.2, 0x5eed)
        .with_duplicates(0.1)
        .with_delays(0.2);
    assert_thread_invariant(&t, 4, |e| e.with_loss_model(model.clone()));
}

#[test]
fn by_components_covers_every_node_once() {
    let t = random_forest(0xf0_33);
    let plan = ShardPlan::by_components(&t, 3);
    let mut seen = vec![false; t.len()];
    for shard in plan.shards() {
        for &v in shard {
            assert!(!seen[v], "node {v} in two shards");
            seen[v] = true;
        }
        assert!(shard.windows(2).all(|w| w[0] < w[1]), "shard not sorted");
    }
    assert!(seen.iter().all(|&s| s), "plan dropped a node");
    assert!(plan.len() <= 3);
}

#[test]
fn by_components_packs_largest_component_first() {
    // Components: {0,1,2,3} (path), {4,5} (edge), {6} and {7}.
    let mut t = Topology::new(8);
    for v in 0..3 {
        t.add_edge(v, v + 1);
    }
    t.add_edge(4, 5);
    assert_eq!(
        t.components(),
        vec![vec![0, 1, 2, 3], vec![4, 5], vec![6], vec![7]]
    );
    // Two shards, LPT: the big path alone, everything else together.
    let plan = ShardPlan::by_components(&t, 2);
    assert_eq!(plan.shards(), &[vec![0, 1, 2, 3], vec![4, 5, 6, 7]]);
    // More shards than components: one component per shard.
    let plan = ShardPlan::by_components(&t, 16);
    assert_eq!(
        plan.shards(),
        &[vec![0, 1, 2, 3], vec![4, 5], vec![6], vec![7]]
    );
    // One shard (or zero, clamped): everything together.
    let all = [(0..8).collect::<Vec<usize>>()];
    assert_eq!(ShardPlan::by_components(&t, 1).shards(), &all);
    assert_eq!(ShardPlan::by_components(&t, 0).shards(), &all);
    // No nodes, no shards.
    let empty = ShardPlan::by_components(&Topology::new(0), 4);
    assert!(empty.is_empty());
    assert_eq!(empty.node_count(), 0);
}

#[test]
#[should_panic(expected = "crosses shards")]
fn cross_shard_edges_are_rejected() {
    let mut t = Topology::new(4);
    t.add_edge(0, 1);
    t.add_edge(2, 3);
    // {0, 2} / {1, 3} splits both edges across the shard boundary.
    let plan = ShardPlan::from_groups(4, vec![vec![0, 2], vec![1, 3]]);
    let nodes: Vec<Gossip> = (0..4).map(|v| Gossip::new(v, 1)).collect();
    let _ = Engine::new(nodes, t).with_shards(plan);
}

#[test]
#[should_panic(expected = "missing from the shard plan")]
fn incomplete_plans_are_rejected() {
    let _ = ShardPlan::from_groups(3, vec![vec![0, 2]]);
}

#[test]
#[should_panic(expected = "more than one shard")]
fn overlapping_plans_are_rejected() {
    let _ = ShardPlan::from_groups(3, vec![vec![0, 1], vec![1, 2]]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any random forest, any thread count in {1, 2, 8}, with delivery
    /// shuffle and a lossy link model: identical `Metrics` — including
    /// `by_class` and the retransmit/ack counters — and identical logs.
    #[test]
    fn threads_do_not_change_metrics(seed in 0u64..3000, loss in 0usize..2) {
        let t = random_forest(seed);
        let rounds = 4;
        let build = |threads: usize| {
            let nodes: Vec<Gossip> = (0..t.len()).map(|v| Gossip::new(v, rounds)).collect();
            let mut engine = Engine::new(nodes, t.clone()).with_delivery_shuffle(seed ^ 0x51ff);
            if loss == 1 {
                engine = engine.with_loss_model(LossModel::bernoulli(0.15, seed ^ 0x1055));
            }
            if threads > 1 {
                engine = engine.with_threads(threads);
            }
            engine
        };
        let mut baseline = build(1);
        let reference: Metrics = baseline.run(1000).expect("baseline run");
        if loss == 1 {
            prop_assert!(reference.retransmits > 0 || reference.messages == 0);
        }
        for threads in [2usize, 8] {
            let mut engine = build(threads);
            let metrics = engine.run(1000).expect("sharded run");
            prop_assert_eq!(metrics, reference);
            for (s, p) in baseline.nodes().iter().zip(engine.nodes()) {
                prop_assert_eq!(&s.log, &p.log);
            }
        }
    }
}
