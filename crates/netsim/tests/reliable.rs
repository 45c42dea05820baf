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

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `words` into an FNV-1a digest, written out so the pinned values
/// do not depend on `std`'s hasher.
fn fnv1a(hash: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(hash, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// A golden-trace message: a traffic class and a heap payload whose
/// length sets the size, so every copy of it is a real allocation.
#[derive(Clone)]
struct Chunk {
    class: usize,
    words: Vec<u64>,
}

impl MessageSize for Chunk {
    fn size_bits(&self) -> u64 {
        8 + 64 * self.words.len() as u64
    }
    fn traffic_class(&self) -> usize {
        self.class
    }
}

/// Logical rounds the gossip runs for.
const GOSSIP_ROUNDS: u64 = 8;

/// Gossips for [`GOSSIP_ROUNDS`] logical rounds. Each node folds every
/// inbox, in delivery order, into a running FNV-1a digest and derives
/// the number, classes and payloads of its next chunks from it, so a
/// reordered or missing delivery changes all later traffic.
struct Gossip {
    digest: u64,
    rounds: u64,
}

impl Gossip {
    fn send_all(&self, ctx: &mut Context<'_, Chunk>) {
        for i in 0..ctx.neighbors().len() {
            let to = ctx.neighbors()[i];
            let seed = self.digest ^ (to as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for j in 0..1 + seed % 3 {
                let len = 1 + (seed >> 16) % 3 + j;
                ctx.send(
                    to,
                    Chunk {
                        class: ((seed >> 8) + j) as usize % 3,
                        words: (0..len).map(|k| seed.rotate_left(k as u32)).collect(),
                    },
                );
            }
        }
    }
}

impl Protocol for Gossip {
    type Msg = Chunk;
    fn on_start(&mut self, ctx: &mut Context<'_, Chunk>) {
        self.digest = fnv1a(FNV_OFFSET, [ctx.node() as u64]);
        self.send_all(ctx);
    }
    // The engine's round argument counts recovery slots too, so the
    // node counts its own logical rounds.
    fn on_round(&mut self, _round: u64, inbox: &[Envelope<Chunk>], ctx: &mut Context<'_, Chunk>) {
        self.digest = fnv1a(self.digest, [self.rounds, inbox.len() as u64]);
        for env in inbox {
            self.digest = fnv1a(self.digest, [env.from as u64, env.msg.class as u64]);
            self.digest = fnv1a(self.digest, env.msg.words.iter().copied());
        }
        self.rounds += 1;
        if self.rounds < GOSSIP_ROUNDS {
            self.send_all(ctx);
        }
    }
    fn is_done(&self) -> bool {
        self.rounds >= GOSSIP_ROUNDS
    }
}

/// Seven nodes: a ring over 0..=5 with the chords 0–3 and 1–4, node 6
/// hanging off 2, and the one-way edge 5 → 2 (node 2 does not list 5,
/// so that link has no reverse for its acks to piggyback on).
fn golden_topology() -> Topology {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); 7];
    for (a, b) in [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 0),
        (0, 3),
        (1, 4),
        (2, 6),
    ] {
        adj[a].push(b);
        adj[b].push(a);
    }
    adj[5].push(2);
    Topology::from_adjacency(adj)
}

/// The golden loss configurations: Bernoulli drops with and without
/// delays and duplicates, and one forced-drop list, each at windows
/// 1 (stop-and-wait), 2 and the default 6.
fn golden_cases() -> Vec<(String, LossModel, u32)> {
    let mut cases = Vec::new();
    for (i, drop) in [0.05, 0.2, 0.5].into_iter().enumerate() {
        for mixed in [false, true] {
            for window in [1, 2, 6] {
                let mut model = LossModel::bernoulli(drop, 0x601d + i as u64);
                let mut label = format!("drop {drop}");
                if mixed {
                    model = model.with_delays(0.2).with_duplicates(0.2);
                    label.push_str(" delay 0.2 dup 0.2");
                }
                cases.push((format!("{label} window {window}"), model, window));
            }
        }
    }
    for window in [1, 2, 6] {
        let forced = vec![0, 5, 6, 7, 40, 99, 100, 101, 250];
        cases.push((
            format!("forced window {window}"),
            LossModel::lossless(0x601d).with_forced_drops(forced),
            window,
        ));
    }
    cases
}

/// Every field of a [`Metrics`]: the twelve counters in declaration
/// order, and an FNV-1a digest of every class's four counters.
fn metrics_row(m: &Metrics) -> ([u64; 12], u64) {
    let classes = m
        .by_class
        .iter()
        .flat_map(|c| [c.messages, c.bits, c.retransmits, c.dup_suppressed]);
    let counters = [
        m.rounds,
        m.messages,
        m.bits,
        m.max_message_bits,
        m.dropped,
        m.duplicated,
        m.delayed,
        m.retransmits,
        m.acks,
        m.ack_bits,
        m.dup_suppressed,
        m.retransmit_rounds,
    ];
    (counters, fnv1a(FNV_OFFSET, classes))
}

/// Digest of every inbox the gossip delivered, in order.
const GOLDEN_INBOXES: u64 = 0x922ba7acc02bcadd;

/// Metrics of the lossless run and of each [`golden_cases`] row.
const GOLDEN_METRICS: &[(&str, [u64; 12], u64)] = &[
    (
        "lossless",
        [8, 298, 53904, 328, 0, 0, 0, 0, 0, 0, 0, 0],
        0xc188a71da73a9c51,
    ),
    (
        "drop 0.05 window 1",
        [20, 298, 53904, 328, 19, 0, 0, 23, 6, 576, 10, 12],
        0x4716d638deefc402,
    ),
    (
        "drop 0.05 window 2",
        [14, 298, 53904, 328, 19, 0, 0, 23, 6, 576, 10, 6],
        0x4716d638deefc402,
    ),
    (
        "drop 0.05 window 6",
        [8, 298, 53904, 328, 41, 0, 0, 596, 0, 0, 555, 0],
        0xc342b4ea1536a1c2,
    ),
    (
        "drop 0.05 delay 0.2 dup 0.2 window 1",
        [29, 298, 53904, 328, 29, 44, 92, 33, 50, 4800, 57, 21],
        0x444dd21817453301,
    ),
    (
        "drop 0.05 delay 0.2 dup 0.2 window 2",
        [22, 298, 53904, 328, 33, 51, 109, 98, 61, 5856, 130, 14],
        0xe0dc158ac218c8bb,
    ),
    (
        "drop 0.05 delay 0.2 dup 0.2 window 6",
        [26, 298, 53904, 328, 64, 49, 126, 683, 79, 7584, 681, 18],
        0xadba05eb36c24c6b,
    ),
    (
        "drop 0.2 window 1",
        [44, 298, 53904, 328, 124, 0, 0, 136, 40, 3840, 54, 36],
        0xe7232d40305b53e3,
    ),
    (
        "drop 0.2 window 2",
        [36, 298, 53904, 328, 124, 0, 0, 136, 40, 3840, 54, 28],
        0xe7232d40305b53e3,
    ),
    (
        "drop 0.2 window 6",
        [9, 298, 53904, 328, 232, 0, 0, 895, 1, 96, 663, 1],
        0xc6fe0412a3359904,
    ),
    (
        "drop 0.2 delay 0.2 dup 0.2 window 1",
        [48, 298, 53904, 328, 131, 62, 103, 132, 72, 6912, 113, 40],
        0xcfc61d87f9556186,
    ),
    (
        "drop 0.2 delay 0.2 dup 0.2 window 2",
        [34, 298, 53904, 328, 140, 61, 114, 180, 80, 7680, 146, 26],
        0x1868660bbfebbc13,
    ),
    (
        "drop 0.2 delay 0.2 dup 0.2 window 6",
        [29, 298, 53904, 328, 312, 56, 117, 1057, 91, 8736, 858, 21],
        0x0bc815d00695f698,
    ),
    (
        "drop 0.5 window 1",
        [84, 298, 53904, 328, 615, 0, 0, 607, 69, 6624, 157, 76],
        0x285205d29607c35f,
    ),
    (
        "drop 0.5 window 2",
        [76, 298, 53904, 328, 615, 0, 0, 607, 69, 6624, 157, 68],
        0x285205d29607c35f,
    ),
    (
        "drop 0.5 window 6",
        [29, 298, 53904, 328, 941, 0, 0, 1374, 34, 3264, 504, 21],
        0x1f5e048761d81fc6,
    ),
    (
        "drop 0.5 delay 0.2 dup 0.2 window 1",
        [96, 298, 53904, 328, 663, 71, 137, 624, 98, 9408, 226, 88],
        0x19b7e60d2dc1a4a9,
    ),
    (
        "drop 0.5 delay 0.2 dup 0.2 window 2",
        [97, 298, 53904, 328, 698, 68, 138, 679, 107, 10272, 251, 89],
        0xb0a61012deae9dd5,
    ),
    (
        "drop 0.5 delay 0.2 dup 0.2 window 6",
        [43, 298, 53904, 328, 1033, 38, 95, 1477, 74, 7104, 617, 35],
        0x5d158659de91ab88,
    ),
    (
        "forced window 1",
        [16, 298, 53904, 328, 9, 0, 0, 9, 4, 384, 0, 8],
        0xdcda9bd71f98b1c6,
    ),
    (
        "forced window 2",
        [12, 298, 53904, 328, 9, 0, 0, 9, 4, 384, 0, 4],
        0xdcda9bd71f98b1c6,
    ),
    (
        "forced window 6",
        [12, 298, 53904, 328, 9, 0, 0, 9, 4, 384, 0, 4],
        0xdcda9bd71f98b1c6,
    ),
];

/// Pins the loss trace where `BENCH_dist_loss.json` is silent (it holds
/// Bernoulli drops at window 6 only): every [`Metrics`] field of each
/// [`golden_cases`] row, on a topology with a one-way edge, and a digest
/// of every delivered inbox. The values were recorded while the layer
/// still kept its links in an ordered map and cloned a payload for every
/// copy; a change to how the layer stores or copies packets must leave
/// them unchanged. On a mismatch the test prints this build's values.
#[test]
fn loss_trace_matches_the_recorded_golden() {
    let run = |loss: Option<(LossModel, u32)>| {
        let nodes = (0..7)
            .map(|_| Gossip {
                digest: 0,
                rounds: 0,
            })
            .collect();
        let mut engine = Engine::new(nodes, golden_topology());
        if let Some((model, window)) = loss {
            engine = engine.with_arq_window(window).with_loss_model(model);
        }
        let metrics = engine.run(10_000).unwrap();
        let inboxes = fnv1a(FNV_OFFSET, engine.nodes().iter().map(|g| g.digest));
        (metrics, inboxes)
    };
    let (lossless, lossless_inboxes) = run(None);
    let mut rows = vec![("lossless".to_string(), metrics_row(&lossless))];
    for (label, model, window) in golden_cases() {
        let (metrics, inboxes) = run(Some((model, window)));
        assert_eq!(
            inboxes, lossless_inboxes,
            "{label}: inboxes differ from the lossless run"
        );
        rows.push((label, metrics_row(&metrics)));
    }
    let golden: Vec<(String, ([u64; 12], u64))> = GOLDEN_METRICS
        .iter()
        .map(|&(label, counters, classes)| (label.to_string(), (counters, classes)))
        .collect();
    if (lossless_inboxes, &rows) != (GOLDEN_INBOXES, &golden) {
        println!("const GOLDEN_INBOXES: u64 = {lossless_inboxes:#018x};");
        for (label, (counters, classes)) in &rows {
            println!("    (\"{label}\", {counters:?}, {classes:#018x}),");
        }
        panic!("the loss trace moved: the values above are this build's");
    }
}
