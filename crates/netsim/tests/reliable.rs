//! The reliable-delivery sublayer: lossy links must be invisible to the
//! protocol (byte-identical inboxes, identical results, identical
//! logical traffic), `p = 0` must be a literal zero-overhead
//! passthrough, overhead must land in the dedicated counters, and the
//! loss RNG and the delivery-shuffle RNG must be independent streams.

use treenet_netsim::{
    Context, Engine, Envelope, LossModel, MessageSize, Metrics, Protocol, Topology, ACK_BITS,
};

/// Floods the maximum id — a multi-round protocol whose result and
/// traffic are deterministic, so lossless and lossy runs are comparable
/// field by field.
struct MaxFlood {
    best: u64,
    changed: bool,
}

impl Protocol for MaxFlood {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.broadcast(self.best);
    }
    fn on_round(&mut self, _round: u64, inbox: &[Envelope<u64>], ctx: &mut Context<'_, u64>) {
        self.changed = false;
        for env in inbox {
            if env.msg > self.best {
                self.best = env.msg;
                self.changed = true;
            }
        }
        if self.changed {
            ctx.broadcast(self.best);
        }
    }
    fn is_done(&self) -> bool {
        !self.changed
    }
}

/// Records the exact inbox order every round — the probe for canonical
/// reassembly and for the shuffle/loss stream split.
struct Recorder {
    log: Vec<Vec<(usize, u64)>>,
}

impl Protocol for Recorder {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        // Everyone floods three distinguishable payloads at its
        // neighbors, so inboxes hold several same-round messages whose
        // order matters.
        for k in 0..3 {
            ctx.broadcast(ctx.node() as u64 * 10 + k);
        }
    }
    fn on_round(&mut self, _round: u64, inbox: &[Envelope<u64>], _ctx: &mut Context<'_, u64>) {
        if !inbox.is_empty() {
            self.log
                .push(inbox.iter().map(|e| (e.from, e.msg)).collect());
        }
    }
    fn is_done(&self) -> bool {
        true
    }
}

fn line_topology(n: usize) -> Topology {
    let mut t = Topology::new(n);
    for i in 0..n - 1 {
        t.add_edge(i, i + 1);
    }
    t
}

fn flood_nodes(n: usize) -> Vec<MaxFlood> {
    (0..n)
        .map(|i| MaxFlood {
            best: i as u64,
            changed: true,
        })
        .collect()
}

fn star_topology(n: usize) -> Topology {
    let mut t = Topology::new(n);
    for v in 1..n {
        t.add_edge(0, v);
    }
    t
}

/// Runs MaxFlood on a line under `build`'s engine decoration and returns
/// (metrics, final node states).
fn flood_run(
    n: usize,
    decorate: impl FnOnce(Engine<MaxFlood>) -> Engine<MaxFlood>,
) -> (Metrics, Vec<u64>) {
    let mut engine = decorate(Engine::new(flood_nodes(n), line_topology(n)));
    let metrics = engine.run(500).unwrap();
    let best: Vec<u64> = engine.nodes().iter().map(|x| x.best).collect();
    (metrics, best)
}

#[test]
fn lossless_model_is_zero_overhead_passthrough() {
    let (plain, plain_best) = flood_run(8, |e| e);
    let (lossy, lossy_best) = flood_run(8, |e| e.with_loss_model(LossModel::bernoulli(0.0, 42)));
    // Byte-identical metrics — including every overhead counter at zero.
    assert_eq!(plain, lossy);
    assert_eq!(plain_best, lossy_best);
    assert_eq!(lossy.retransmits, 0);
    assert_eq!(lossy.acks, 0);
    assert_eq!(lossy.ack_bits, 0);
    assert_eq!(lossy.dup_suppressed, 0);
    assert_eq!(lossy.retransmit_rounds, 0);
    assert_eq!(lossy.dropped, 0);
    assert_eq!(lossy.delayed, 0);
    assert!(LossModel::bernoulli(0.0, 42).is_lossless());
}

#[test]
fn drops_are_recovered_with_identical_results_and_logical_traffic() {
    let (plain, plain_best) = flood_run(8, |e| e);
    for seed in [1u64, 7, 0xbeef] {
        let (lossy, lossy_best) =
            flood_run(8, |e| e.with_loss_model(LossModel::bernoulli(0.3, seed)));
        // The protocol cannot tell: same result...
        assert_eq!(plain_best, lossy_best, "seed {seed}");
        // ...and the *logical* traffic is identical — every unique
        // payload delivered exactly once; overhead lives elsewhere.
        assert_eq!(plain.messages, lossy.messages, "seed {seed}");
        assert_eq!(plain.bits, lossy.bits, "seed {seed}");
        assert_eq!(plain.by_class[0].messages, lossy.by_class[0].messages);
        assert_eq!(plain.max_message_bits, lossy.max_message_bits);
        // Loss actually happened and was recovered. (The proactive salvo
        // may absorb every drop without a single recovery slot — that is
        // the point — so only the retransmission traffic is asserted.)
        assert!(lossy.dropped > 0, "seed {seed}: no drop fired at p=0.3");
        assert!(lossy.retransmits > 0, "seed {seed}");
        // Round inflation is exactly the recovery slots, and bounded by
        // the windowed-ARQ formula (window ≥ 2).
        assert_eq!(lossy.rounds, plain.rounds + lossy.retransmit_rounds);
        assert!(
            lossy.retransmit_rounds <= 2 * (lossy.dropped + lossy.delayed),
            "seed {seed}: {} recovery slots > 2·({} dropped + {} delayed)",
            lossy.retransmit_rounds,
            lossy.dropped,
            lossy.delayed
        );
        // Determinism: the same seed reproduces the same trace.
        let (again, _) = flood_run(8, |e| e.with_loss_model(LossModel::bernoulli(0.3, seed)));
        assert_eq!(lossy, again, "seed {seed}");
    }
}

#[test]
fn duplicates_are_suppressed() {
    let (plain, plain_best) = flood_run(8, |e| e);
    let model = LossModel::bernoulli(0.0, 5).with_duplicates(0.5);
    let (lossy, lossy_best) = flood_run(8, |e| e.with_loss_model(model));
    assert_eq!(plain_best, lossy_best);
    assert_eq!(plain.messages, lossy.messages);
    assert!(lossy.duplicated > 0, "duplication should have fired");
    // Every fault-created copy was discarded by sequence tracking, and
    // pure duplication needs no recovery slots at all.
    assert_eq!(lossy.dup_suppressed, lossy.duplicated);
    assert_eq!(lossy.by_class[0].dup_suppressed, lossy.dup_suppressed);
    assert_eq!(lossy.retransmit_rounds, 0);
    assert_eq!(lossy.rounds, plain.rounds);
}

#[test]
fn delays_are_recovered() {
    let (plain, plain_best) = flood_run(8, |e| e);
    let model = LossModel::bernoulli(0.0, 9).with_delays(0.4);
    let (lossy, lossy_best) = flood_run(8, |e| e.with_loss_model(model));
    assert_eq!(plain_best, lossy_best);
    assert_eq!(plain.messages, lossy.messages);
    assert!(lossy.delayed > 0, "delay should have fired");
    assert!(
        lossy.retransmit_rounds > 0,
        "a delayed packet stalls the round"
    );
    assert!(lossy.retransmit_rounds <= 2 * (lossy.dropped + lossy.delayed));
}

#[test]
fn heavy_mixed_loss_still_converges_exactly() {
    let (plain, plain_best) = flood_run(10, |e| e);
    let model = LossModel::bernoulli(0.25, 0xabcd)
        .with_duplicates(0.25)
        .with_delays(0.25);
    let (lossy, lossy_best) = flood_run(10, |e| e.with_loss_model(model));
    assert_eq!(plain_best, lossy_best);
    assert_eq!(plain.messages, lossy.messages);
    assert!(lossy.dropped > 0 && lossy.duplicated > 0 && lossy.delayed > 0);
    assert!(lossy.retransmit_rounds <= 2 * (lossy.dropped + lossy.delayed));
}

#[test]
fn inbox_order_is_canonical_under_loss() {
    let build = || {
        Engine::new(
            (0..5).map(|_| Recorder { log: Vec::new() }).collect(),
            star_topology(5),
        )
    };
    let mut plain = build();
    plain.run(10).unwrap();
    let mut lossy = build().with_loss_model(
        LossModel::bernoulli(0.4, 3)
            .with_duplicates(0.3)
            .with_delays(0.3),
    );
    lossy.run(10).unwrap();
    // Reassembly restores the lossless (sender, send-order) delivery
    // order exactly, for every node and round.
    for (a, b) in plain.nodes().iter().zip(lossy.nodes()) {
        assert_eq!(a.log, b.log);
    }
}

#[test]
fn shuffle_and_loss_are_independent_rng_streams() {
    let build = || {
        Engine::new(
            (0..5).map(|_| Recorder { log: Vec::new() }).collect(),
            star_topology(5),
        )
    };
    // Shuffle only.
    let mut shuffled = build().with_delivery_shuffle(0x5eed);
    shuffled.run(10).unwrap();
    // Shuffle + lossless model: adding the (inactive) loss model must
    // not perturb the shuffle sequence — the streams are split.
    let mut with_model = build()
        .with_delivery_shuffle(0x5eed)
        .with_loss_model(LossModel::bernoulli(0.0, 0x1055));
    with_model.run(10).unwrap();
    for (a, b) in shuffled.nodes().iter().zip(with_model.nodes()) {
        assert_eq!(a.log, b.log);
    }
    // Shuffle + real loss: the shuffle RNG is consumed once per node per
    // *logical* round (never per recovery slot), and reassembly is
    // canonical, so even the shuffled orders are identical.
    let mut with_loss = build()
        .with_delivery_shuffle(0x5eed)
        .with_loss_model(LossModel::bernoulli(0.3, 77));
    with_loss.run(10).unwrap();
    for (a, b) in shuffled.nodes().iter().zip(with_loss.nodes()) {
        assert_eq!(a.log, b.log);
    }
    // The shuffle genuinely does something (differs from unshuffled).
    let mut plain = build();
    plain.run(10).unwrap();
    assert_ne!(plain.nodes()[0].log, shuffled.nodes()[0].log);
}

/// Sends `k` one-way pings on start; the far side never replies, so
/// every ack in a recovery episode must travel as a standalone message.
struct Pinger {
    to_send: u64,
    received: u64,
}

impl Protocol for Pinger {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        for i in 0..self.to_send {
            if !ctx.neighbors().is_empty() {
                ctx.send(ctx.neighbors()[0], i);
            }
        }
    }
    fn on_round(&mut self, _r: u64, inbox: &[Envelope<u64>], _c: &mut Context<'_, u64>) {
        self.received += inbox.len() as u64;
    }
    fn is_done(&self) -> bool {
        true
    }
}

#[test]
fn forced_drop_episode_has_the_textbook_shape() {
    // Three packets, the middle original forced-dropped (the class is
    // lossless, so no proactive salvo fires). Episode: in recovery slot
    // 1 the receiver's cumulative+SACK ack (one standalone message — no
    // reverse traffic to piggyback on) rides ahead of the slot's
    // retransmissions, so the sender repairs exactly the missing packet
    // eagerly in the same slot. One recovery slot, one retransmission,
    // one ack, no duplicates.
    let mut topology = Topology::new(2);
    topology.add_edge(0, 1);
    let nodes = vec![
        Pinger {
            to_send: 3,
            received: 0,
        },
        Pinger {
            to_send: 0,
            received: 0,
        },
    ];
    let mut engine = Engine::new(nodes, topology)
        .with_loss_model(LossModel::lossless(0).with_forced_drops(vec![1]));
    let metrics = engine.run(10).unwrap();
    assert_eq!(engine.nodes()[1].received, 3, "all three pings arrive");
    assert_eq!(metrics.messages, 3);
    assert_eq!(metrics.dropped, 1);
    assert_eq!(metrics.retransmits, 1);
    assert_eq!(metrics.by_class[0].retransmits, 1);
    assert_eq!(metrics.retransmit_rounds, 1);
    assert_eq!(metrics.acks, 1);
    assert_eq!(metrics.ack_bits, ACK_BITS);
    assert_eq!(metrics.dup_suppressed, 0);
    // Acks are link-layer control: the O(M) payload accounting ignores
    // them.
    assert_eq!(metrics.bits, 3 * 64);
    assert_eq!(metrics.max_message_bits, 64);
    // Ordering survives the gap: seq 1 is slotted back between 0 and 2.
    assert!(metrics.retransmit_rounds <= 2 * (metrics.dropped + metrics.delayed));
}

#[test]
fn class_window_targets_one_traffic_class_only() {
    /// Messages alternate classes by parity (like the engine unit test).
    #[derive(Clone)]
    struct ClassyMsg(u64);
    impl MessageSize for ClassyMsg {
        fn size_bits(&self) -> u64 {
            64
        }
        fn traffic_class(&self) -> usize {
            (self.0 % 2) as usize
        }
    }
    struct ClassSender;
    impl Protocol for ClassSender {
        type Msg = ClassyMsg;
        fn on_start(&mut self, ctx: &mut Context<'_, ClassyMsg>) {
            if ctx.node() == 0 {
                for i in 0..6 {
                    ctx.send(1, ClassyMsg(i));
                }
            }
        }
        fn on_round(
            &mut self,
            _r: u64,
            _i: &[Envelope<ClassyMsg>],
            _c: &mut Context<'_, ClassyMsg>,
        ) {
        }
        fn is_done(&self) -> bool {
            true
        }
    }
    let mut topology = Topology::new(2);
    topology.add_edge(0, 1);
    // Drop the first two class-1 originals (payloads 1 and 3); class 0
    // is untouched.
    let mut engine = Engine::new(vec![ClassSender, ClassSender], topology)
        .with_loss_model(LossModel::lossless(0).with_class_window(1, 0, 2));
    let metrics = engine.run(10).unwrap();
    assert_eq!(metrics.dropped, 2);
    assert_eq!(metrics.retransmits, 2);
    assert_eq!(metrics.by_class[1].retransmits, 2);
    assert_eq!(metrics.by_class[0].retransmits, 0);
    // Still delivered exactly once each.
    assert_eq!(metrics.by_class[0].messages, 3);
    assert_eq!(metrics.by_class[1].messages, 3);
}

#[test]
#[should_panic(expected = "reliable layer starved")]
fn certain_loss_is_detected_not_spun_forever() {
    let mut engine =
        Engine::new(flood_nodes(2), line_topology(2)).with_loss_model(LossModel::bernoulli(1.0, 0));
    let _ = engine.run(10);
}

#[test]
fn topology_edges_enumerate_canonically() {
    let t = star_topology(4);
    let edges: Vec<(usize, usize)> = t.edges().collect();
    assert_eq!(edges, vec![(0, 1), (0, 2), (0, 3)]);
    let line = line_topology(3);
    assert_eq!(line.edges().collect::<Vec<_>>(), vec![(0, 1), (1, 2)]);
    assert_eq!(line.edges().count(), line.edge_count());
}
