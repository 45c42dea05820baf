//! The synchronous round engine.

use crate::reliable::Reliable;
use crate::{LossModel, MessageSize, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;

/// A received message with its sender.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// The sending node.
    pub from: usize,
    /// The payload.
    pub msg: M,
}

/// Per-round send interface handed to protocol nodes.
///
/// Sends are restricted to topology neighbors, matching the paper's model
/// where a processor talks only to processors sharing a resource.
#[derive(Debug)]
pub struct Context<'a, M> {
    node: usize,
    neighbors: &'a [usize],
    /// Pooled per-node out-buffer from the engine's [`MailboxArena`]:
    /// capacity persists across rounds, so steady-state sends allocate
    /// nothing.
    out: &'a mut Vec<(usize, M)>,
}

impl<M> Context<'_, M> {
    /// The id of the node this context belongs to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The node's topology neighbors, sorted.
    pub fn neighbors(&self) -> &[usize] {
        self.neighbors
    }

    /// Queues `msg` for delivery to `to` at the start of the next round.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a topology neighbor — single-hop communication
    /// is a model invariant, so violating it is a programming error.
    pub fn send(&mut self, to: usize, msg: M) {
        assert!(
            self.neighbors.binary_search(&to).is_ok(),
            "node {} cannot send to non-neighbor {}",
            self.node,
            to
        );
        self.out.push((to, msg));
    }

    /// Sends a clone of `msg` to every neighbor.
    ///
    /// Routes through [`Context::send`] so the single-hop neighbor
    /// assertion — the model invariant — lives in exactly one place.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for i in 0..self.neighbors.len() {
            let w = self.neighbors[i];
            self.send(w, msg.clone());
        }
    }
}

/// A node of a synchronous distributed protocol.
pub trait Protocol {
    /// The message type exchanged by this protocol.
    type Msg: Clone + MessageSize;

    /// Called once before the first round; typically seeds initial sends.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// One synchronous round: `inbox` holds everything sent to this node
    /// in the previous round.
    fn on_round(
        &mut self,
        round: u64,
        inbox: &[Envelope<Self::Msg>],
        ctx: &mut Context<'_, Self::Msg>,
    );

    /// Local termination flag. The engine stops once every node is done
    /// *and* no messages are in flight.
    fn is_done(&self) -> bool;
}

/// Number of traffic-class buckets in [`Metrics::by_class`].
pub const MESSAGE_CLASSES: usize = 8;

/// Per-traffic-class message counters (see
/// [`MessageSize::traffic_class`](crate::MessageSize::traffic_class)).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassMetrics {
    /// Messages delivered in this class.
    pub messages: u64,
    /// Delivered payload bits in this class.
    pub bits: u64,
    /// Retransmissions sent in this class by the reliable-delivery layer
    /// (zero without a loss model, and at `p = 0`).
    pub retransmits: u64,
    /// Duplicate deliveries of this class discarded by the reliable
    /// layer's sequence tracking (loss-model duplicates and redundant
    /// retransmissions alike).
    pub dup_suppressed: u64,
}

/// Communication metrics of one engine run — the quantities the paper's
/// theorems bound.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Number of synchronous rounds executed.
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Total delivered payload size in bits (via [`MessageSize`]).
    pub bits: u64,
    /// Largest single-message size observed, in bits.
    pub max_message_bits: u64,
    /// Transmissions discarded by the loss model beneath the reliable
    /// layer (data and acks alike).
    pub dropped: u64,
    /// Extra deliveries created by the loss model.
    pub duplicated: u64,
    /// Transmissions the loss model delayed by one slot.
    pub delayed: u64,
    /// Data retransmissions sent by the reliable-delivery layer. Under a
    /// loss model, `messages` keeps counting each unique payload exactly
    /// once (the logical traffic), so `retransmits` (plus `acks`) *is*
    /// the message overhead of reliability.
    pub retransmits: u64,
    /// Standalone cumulative-ack messages sent by the reliable layer
    /// (acks piggybacked on reverse-direction retransmissions are free
    /// and not counted).
    pub acks: u64,
    /// Bits spent on standalone acks ([`crate::ACK_BITS`] each). Acks
    /// are link-layer control: excluded from `bits`, `by_class` and
    /// `max_message_bits`, which account protocol payloads (the paper's
    /// `O(M)` bound).
    pub ack_bits: u64,
    /// Duplicate deliveries discarded by the reliable layer's sequence
    /// tracking.
    pub dup_suppressed: u64,
    /// Extra link-layer recovery slots the reliable layer ran — the
    /// round inflation of lossy links: `rounds` includes them, and the
    /// logical round count is `rounds - retransmit_rounds`. Bounded by
    /// `treenet_core::retransmit_round_bound(dropped, delayed, window)`
    /// where `window` is the ARQ send window
    /// ([`Engine::with_arq_window`]).
    pub retransmit_rounds: u64,
    /// Per-traffic-class message/bit counters, indexed by
    /// [`MessageSize::traffic_class`](crate::MessageSize::traffic_class)
    /// (clamped to the last bucket).
    pub by_class: [ClassMetrics; MESSAGE_CLASSES],
}

impl Metrics {
    /// Combines the metrics of two sequential engine runs: counters add
    /// (saturating, so pathological inputs cannot wrap), the maximum
    /// message size is the larger of the two. Used when a protocol
    /// executes as several engine passes (e.g. the serial reference path
    /// of the wide/narrow split schedulers).
    #[must_use]
    pub fn merged(mut self, other: Metrics) -> Metrics {
        self.rounds = self.rounds.saturating_add(other.rounds);
        self.messages = self.messages.saturating_add(other.messages);
        self.bits = self.bits.saturating_add(other.bits);
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
        self.dropped = self.dropped.saturating_add(other.dropped);
        self.duplicated = self.duplicated.saturating_add(other.duplicated);
        self.delayed = self.delayed.saturating_add(other.delayed);
        self.retransmits = self.retransmits.saturating_add(other.retransmits);
        self.acks = self.acks.saturating_add(other.acks);
        self.ack_bits = self.ack_bits.saturating_add(other.ack_bits);
        self.dup_suppressed = self.dup_suppressed.saturating_add(other.dup_suppressed);
        self.retransmit_rounds = self
            .retransmit_rounds
            .saturating_add(other.retransmit_rounds);
        for (mine, theirs) in self.by_class.iter_mut().zip(other.by_class.iter()) {
            mine.messages = mine.messages.saturating_add(theirs.messages);
            mine.bits = mine.bits.saturating_add(theirs.bits);
            mine.retransmits = mine.retransmits.saturating_add(theirs.retransmits);
            mine.dup_suppressed = mine.dup_suppressed.saturating_add(theirs.dup_suppressed);
        }
        self
    }
}

/// Engine failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The round budget was exhausted before quiescence.
    RoundLimitExceeded {
        /// The budget that was exceeded.
        limit: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::RoundLimitExceeded { limit } => {
                write!(f, "protocol did not quiesce within {limit} rounds")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Reusable per-round buffer arena of one engine: the consumed-inbox set
/// and the per-node out-buffers.
///
/// Every round the engine swaps the whole mailbox vector with the arena's
/// inbox set (two pointer swaps, no per-message work), hands each node a
/// pooled out-buffer, and clears — rather than drops — everything
/// afterwards. Buffers therefore keep their high-water-mark capacity and
/// the steady-state round loop performs no per-message `Vec` allocation,
/// which is what lets the sharded executor scale to 10⁵–10⁶ nodes.
#[derive(Debug)]
pub struct MailboxArena<M> {
    /// Last round's inboxes, swapped out of the engine's live mailboxes
    /// at the start of each step and cleared (capacity kept) at its end.
    inboxes: Vec<Vec<Envelope<M>>>,
    /// Pooled per-node out-buffers lent to [`Context`]; drained by
    /// delivery, never dropped.
    outs: Vec<Vec<(usize, M)>>,
}

impl<M> MailboxArena<M> {
    /// An empty arena for `n` nodes.
    pub fn new(n: usize) -> Self {
        MailboxArena {
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            outs: (0..n).map(|_| Vec::new()).collect(),
        }
    }
}

/// A node's pooled out-buffer: `(destination, message)` pairs.
type OutBuf<M> = Vec<(usize, M)>;

/// Per-node `&mut` borrows handed out to shard threads; each shard
/// `take`s its members' slots, proving at runtime the borrows are
/// disjoint without `unsafe`.
type Slots<'a, T> = Vec<Option<&'a mut T>>;

/// A partition of the engine's nodes into shards that the sharded round
/// executor runs on scoped threads — one thread per shard per round.
///
/// Determinism requires every shard to be *component-closed*: all of a
/// node's topology neighbors live in its own shard, so each shard's
/// compute-and-deliver pass touches only shard-local mailboxes and the
/// per-inbox delivery order (ascending sender id) is byte-identical to
/// the single-threaded loop. [`Engine::with_shards`] re-validates the
/// closure against the engine's topology on installation.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Shard member lists, each sorted ascending; non-empty.
    shards: Vec<Vec<usize>>,
    /// `node -> shard index`.
    shard_of: Vec<u32>,
    /// `node -> position within its shard` (dense, for O(1) shard-local
    /// mailbox lookup during fused delivery).
    local_of: Vec<u32>,
}

impl ShardPlan {
    /// Builds a plan from explicit member groups over nodes `0..n`.
    /// Groups are sorted internally; empty groups are dropped.
    ///
    /// # Panics
    ///
    /// Panics unless the groups form an exact partition of `0..n` (every
    /// node in exactly one group, no out-of-range members).
    pub fn from_groups(n: usize, groups: Vec<Vec<usize>>) -> Self {
        const UNASSIGNED: u32 = u32::MAX;
        let mut shards: Vec<Vec<usize>> = groups.into_iter().filter(|g| !g.is_empty()).collect();
        let mut shard_of = vec![UNASSIGNED; n];
        let mut local_of = vec![UNASSIGNED; n];
        for (s, shard) in shards.iter_mut().enumerate() {
            shard.sort_unstable();
            for (i, &v) in shard.iter().enumerate() {
                assert!(v < n, "shard member {v} out of range (n = {n})");
                assert!(
                    shard_of[v] == UNASSIGNED,
                    "node {v} appears in more than one shard"
                );
                shard_of[v] = s as u32;
                local_of[v] = i as u32;
            }
        }
        if let Some(v) = shard_of.iter().position(|&s| s == UNASSIGNED) {
            panic!("node {v} is missing from the shard plan");
        }
        ShardPlan {
            shards,
            shard_of,
            local_of,
        }
    }

    /// Partitions a topology's connected components into at most
    /// `max_shards` shards, balancing by component size (longest
    /// processing time first, deterministic tie-breaks: larger component
    /// first, then smaller minimum id, assigned to the least-loaded
    /// lowest-index shard).
    pub fn by_components(topology: &Topology, max_shards: usize) -> Self {
        let components = topology.components();
        let bins = max_shards.max(1).min(components.len().max(1));
        let mut order: Vec<usize> = (0..components.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(components[i].len()), components[i][0]));
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); bins];
        let mut load = vec![0usize; bins];
        for i in order {
            let b = (0..bins)
                .min_by_key(|&b| (load[b], b))
                .expect("at least one bin");
            load[b] += components[i].len();
            groups[b].extend(&components[i]);
        }
        ShardPlan::from_groups(topology.len(), groups)
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the plan has zero shards (only for zero nodes).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard member lists, each sorted ascending.
    pub fn shards(&self) -> &[Vec<usize>] {
        &self.shards
    }

    /// The shard index of `v`.
    pub fn shard_of(&self, v: usize) -> usize {
        self.shard_of[v] as usize
    }

    /// Number of nodes covered by the plan.
    pub fn node_count(&self) -> usize {
        self.shard_of.len()
    }

    fn local_of(&self, v: usize) -> usize {
        self.local_of[v] as usize
    }
}

/// Drives a set of [`Protocol`] nodes over a [`Topology`] in synchronous
/// rounds (see the crate-level example).
pub struct Engine<P: Protocol> {
    nodes: Vec<P>,
    topology: Topology,
    mailboxes: Vec<Vec<Envelope<P::Msg>>>,
    arena: MailboxArena<P::Msg>,
    metrics: Metrics,
    started: bool,
    shuffle: Option<SmallRng>,
    reliable: Option<Reliable<P::Msg>>,
    arq_window: u32,
    shards: Option<ShardPlan>,
}

impl<P: Protocol + fmt::Debug> fmt::Debug for Engine<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("nodes", &self.nodes)
            .field("topology", &self.topology)
            .field("metrics", &self.metrics)
            .field("started", &self.started)
            .field("shuffled", &self.shuffle.is_some())
            .field("reliable", &self.reliable.is_some())
            .field("shards", &self.shards.as_ref().map(ShardPlan::len))
            .finish_non_exhaustive()
    }
}

impl<P: Protocol> Engine<P> {
    /// Creates an engine; `nodes[i]` sits at topology node `i`.
    ///
    /// # Panics
    ///
    /// Panics if the node count differs from the topology size.
    pub fn new(nodes: Vec<P>, topology: Topology) -> Self {
        assert_eq!(
            nodes.len(),
            topology.len(),
            "one protocol node per topology node"
        );
        let n = nodes.len();
        Engine {
            nodes,
            topology,
            mailboxes: vec![Vec::new(); n],
            arena: MailboxArena::new(n),
            metrics: Metrics::default(),
            started: false,
            shuffle: None,
            reliable: None,
            arq_window: crate::reliable::DEFAULT_ARQ_WINDOW,
            shards: None,
        }
    }

    /// Installs a shard plan (builder style): each round's node steps run
    /// on one scoped thread per shard, with fused shard-local delivery
    /// when no loss model is active. Results — inbox
    /// contents and order, metrics, RNG traces — are bit-identical to the
    /// single-threaded executor at any shard count, because shards are
    /// component-closed and each shard delivers in ascending sender
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not cover exactly this engine's nodes, or
    /// if any topology edge crosses shards (shards must be unions of
    /// connected components).
    #[must_use]
    pub fn with_shards(mut self, plan: ShardPlan) -> Self {
        assert_eq!(
            plan.node_count(),
            self.topology.len(),
            "shard plan must cover every node"
        );
        for (a, b) in self.topology.edges() {
            assert_eq!(
                plan.shard_of(a),
                plan.shard_of(b),
                "edge {a}-{b} crosses shards: shards must be unions of connected components"
            );
        }
        self.shards = Some(plan);
        self
    }

    /// Shards the engine by connected components into at most `threads`
    /// shards (builder style); `threads <= 1` restores the
    /// single-threaded executor. See [`Engine::with_shards`].
    #[must_use]
    pub fn with_threads(self, threads: usize) -> Self {
        if threads <= 1 {
            let mut engine = self;
            engine.shards = None;
            engine
        } else {
            let plan = ShardPlan::by_components(&self.topology, threads);
            self.with_shards(plan)
        }
    }

    /// Enables the reliable-delivery sublayer over a lossy link model
    /// (builder style): per-edge sequence numbers, a sliding send window
    /// with eager pipelined retransmission, proactive repetition on
    /// known-lossy classes, cumulative+SACK acks and duplicate
    /// suppression keep every *logical* round's inbox byte-identical to
    /// a lossless run, at the cost of extra recovery slots and
    /// retransmission/ack traffic (tracked by the new [`Metrics`]
    /// counters). A lossless model is a literal zero-overhead
    /// passthrough. See [`crate::reliable`] for the protocol and its
    /// determinism contract.
    #[must_use]
    pub fn with_loss_model(mut self, model: LossModel) -> Self {
        self.reliable = Some(Reliable::new(model, self.arq_window));
        self
    }

    /// Sets the ARQ send window (builder style): the per-packet
    /// in-flight transmission budget of the reliable layer, i.e. how
    /// many copies of one packet may be sent eagerly (initial salvo plus
    /// back-to-back recovery-slot repairs) before the two-slot pacing
    /// timer takes over. `window = 1` degenerates to classic
    /// stop-and-wait (the `4·(dropped+delayed)` bound regime);
    /// `window ≥ 2` enables pipelined repair and the
    /// `2·(dropped+delayed)` bound. Values are clamped to at least 1;
    /// the default is [`crate::DEFAULT_ARQ_WINDOW`]. No effect unless a
    /// loss model is (or becomes) installed.
    #[must_use]
    pub fn with_arq_window(mut self, window: u32) -> Self {
        self.arq_window = window.max(1);
        if let Some(reliable) = self.reliable.as_mut() {
            reliable.set_window(self.arq_window);
        }
        self
    }

    /// Enables adversarial (but reproducible, seeded) shuffling of each
    /// node's per-round inbox before delivery. The synchronous model
    /// fixes *which* round a message arrives in but not the order within
    /// the inbox — protocols must not depend on it, and the scheduler
    /// tests use this knob to prove they don't.
    #[must_use]
    pub fn with_delivery_shuffle(mut self, seed: u64) -> Self {
        self.shuffle = Some(SmallRng::seed_from_u64(seed));
        self
    }

    /// Immutable access to the protocol nodes (e.g. to read results).
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Mutable access to the protocol nodes (e.g. to reconfigure between
    /// phases).
    pub fn nodes_mut(&mut self) -> &mut [P] {
        &mut self.nodes
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Runs `on_start` (once) and then rounds until quiescence — all nodes
    /// done and no in-flight messages — or until `max_rounds` is hit.
    ///
    /// Returns the accumulated metrics on success. Can be called again
    /// after new work is injected via [`Engine::nodes_mut`]; metrics keep
    /// accumulating.
    ///
    /// # Errors
    ///
    /// [`EngineError::RoundLimitExceeded`] if the protocol does not
    /// quiesce in time (metrics keep whatever was accumulated).
    pub fn run(&mut self, max_rounds: u64) -> Result<Metrics, EngineError>
    where
        P: Send,
        P::Msg: Send + Sync,
    {
        if !self.started {
            self.started = true;
            // on_start runs serially (it happens once); the sends land in
            // the arena's pooled out-buffers like any round's.
            for (v, node) in self.nodes.iter_mut().enumerate() {
                let mut ctx = Context {
                    node: v,
                    neighbors: self.topology.neighbors(v),
                    out: &mut self.arena.outs[v],
                };
                node.on_start(&mut ctx);
            }
            self.deliver();
        }
        let mut executed = 0u64;
        while !self.quiescent() {
            if executed >= max_rounds {
                return Err(EngineError::RoundLimitExceeded { limit: max_rounds });
            }
            self.step();
            executed += 1;
        }
        Ok(self.metrics)
    }

    /// Executes exactly one synchronous round.
    ///
    /// With a [`ShardPlan`] installed ([`Engine::with_shards`]) the node
    /// steps run on one scoped thread per shard; everything the protocol
    /// or the metrics can observe is bit-identical to the single-threaded
    /// executor. The delivery-shuffle RNG is consumed in a serial
    /// pre-pass (once per node per round, in node order) and the loss
    /// RNG in a serial delivery pass, so those traces are
    /// thread-count-invariant too.
    pub fn step(&mut self)
    where
        P: Send,
        P::Msg: Send + Sync,
    {
        let round = self.metrics.rounds;
        // Whole-vector swap: the live mailboxes become this round's
        // inboxes, the arena's cleared buffers (capacity intact) become
        // the landing zone for next round's messages.
        std::mem::swap(&mut self.mailboxes, &mut self.arena.inboxes);
        if let Some(rng) = self.shuffle.as_mut() {
            use rand::seq::SliceRandom;
            for inbox in &mut self.arena.inboxes {
                inbox.shuffle(rng);
            }
        }
        let sharded = self.shards.as_ref().is_some_and(|plan| plan.len() > 1);
        if !sharded {
            for (v, node) in self.nodes.iter_mut().enumerate() {
                let mut ctx = Context {
                    node: v,
                    neighbors: self.topology.neighbors(v),
                    out: &mut self.arena.outs[v],
                };
                node.on_round(round, &self.arena.inboxes[v], &mut ctx);
            }
            self.deliver();
        } else if self.reliable.is_some() {
            // The loss RNG is a single serial stream: compute in
            // parallel, deliver serially in global node order so the
            // trace is identical at any thread count.
            self.compute_sharded(round);
            self.deliver();
        } else {
            self.step_sharded_fused(round);
        }
        for inbox in &mut self.arena.inboxes {
            inbox.clear();
        }
        self.metrics.rounds += 1;
    }

    /// Parallel node compute only: each shard thread fills its members'
    /// out-buffers; delivery is left to the caller.
    fn compute_sharded(&mut self, round: u64)
    where
        P: Send,
        P::Msg: Send + Sync,
    {
        let plan = self.shards.as_ref().expect("sharded path requires a plan");
        let topology = &self.topology;
        let inboxes: &[Vec<Envelope<P::Msg>>] = &self.arena.inboxes;
        let mut node_slots: Slots<'_, P> = self.nodes.iter_mut().map(Some).collect();
        let mut out_slots: Slots<'_, OutBuf<P::Msg>> =
            self.arena.outs.iter_mut().map(Some).collect();
        type ComputeWork<'a, P> = (
            &'a [usize],
            Vec<&'a mut P>,
            Vec<&'a mut OutBuf<<P as Protocol>::Msg>>,
        );
        let work: Vec<ComputeWork<'_, P>> = plan
            .shards()
            .iter()
            .map(|members| {
                (
                    members.as_slice(),
                    members
                        .iter()
                        .map(|&v| node_slots[v].take().expect("partition"))
                        .collect(),
                    members
                        .iter()
                        .map(|&v| out_slots[v].take().expect("partition"))
                        .collect(),
                )
            })
            .collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = work
                .into_iter()
                .map(|(members, mut nodes, mut outs)| {
                    scope.spawn(move || {
                        for (i, &v) in members.iter().enumerate() {
                            let mut ctx = Context {
                                node: v,
                                neighbors: topology.neighbors(v),
                                out: outs[i],
                            };
                            nodes[i].on_round(round, &inboxes[v], &mut ctx);
                        }
                    })
                })
                .collect();
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    /// The fully in-shard round: compute and local delivery fused on each
    /// shard thread (valid because component closure keeps every
    /// destination in-shard), with per-shard metrics deltas merged
    /// afterwards. Delivery within a shard walks members in ascending id
    /// order, so every inbox receives exactly the single-threaded order.
    fn step_sharded_fused(&mut self, round: u64)
    where
        P: Send,
        P::Msg: Send + Sync,
    {
        let plan = self.shards.as_ref().expect("sharded path requires a plan");
        let topology = &self.topology;
        let MailboxArena { inboxes, outs } = &mut self.arena;
        let inboxes: &[Vec<Envelope<P::Msg>>] = inboxes;
        let mut node_slots: Slots<'_, P> = self.nodes.iter_mut().map(Some).collect();
        let mut out_slots: Slots<'_, OutBuf<P::Msg>> = outs.iter_mut().map(Some).collect();
        let mut mail_slots: Slots<'_, Vec<Envelope<P::Msg>>> =
            self.mailboxes.iter_mut().map(Some).collect();
        type ShardWork<'a, P> = (
            &'a [usize],
            Vec<&'a mut P>,
            Vec<&'a mut OutBuf<<P as Protocol>::Msg>>,
            Vec<&'a mut Vec<Envelope<<P as Protocol>::Msg>>>,
        );
        let work: Vec<ShardWork<'_, P>> = plan
            .shards()
            .iter()
            .map(|members| {
                (
                    members.as_slice(),
                    members
                        .iter()
                        .map(|&v| node_slots[v].take().expect("partition"))
                        .collect(),
                    members
                        .iter()
                        .map(|&v| out_slots[v].take().expect("partition"))
                        .collect(),
                    members
                        .iter()
                        .map(|&v| mail_slots[v].take().expect("partition"))
                        .collect(),
                )
            })
            .collect();
        let deltas = std::thread::scope(|scope| {
            let handles: Vec<_> = work
                .into_iter()
                .map(|(members, mut nodes, mut outs, mut mailboxes)| {
                    scope.spawn(move || {
                        let mut delta = Metrics::default();
                        for (i, &v) in members.iter().enumerate() {
                            {
                                let mut ctx = Context {
                                    node: v,
                                    neighbors: topology.neighbors(v),
                                    out: outs[i],
                                };
                                nodes[i].on_round(round, &inboxes[v], &mut ctx);
                            }
                            for (to, msg) in outs[i].drain(..) {
                                let bits = msg.size_bits();
                                let class = msg.traffic_class().min(MESSAGE_CLASSES - 1);
                                delta.messages += 1;
                                delta.bits += bits;
                                delta.max_message_bits = delta.max_message_bits.max(bits);
                                delta.by_class[class].messages += 1;
                                delta.by_class[class].bits += bits;
                                debug_assert_eq!(
                                    plan.shard_of(to),
                                    plan.shard_of(v),
                                    "component closure keeps destinations in-shard"
                                );
                                mailboxes[plan.local_of(to)].push(Envelope { from: v, msg });
                            }
                        }
                        delta
                    })
                })
                .collect();
            let mut deltas = Vec::with_capacity(handles.len());
            for handle in handles {
                match handle.join() {
                    Ok(delta) => deltas.push(delta),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            deltas
        });
        // Saturating counter adds and a max are commutative, so the merge
        // order cannot matter; `rounds` deltas are zero by construction.
        for delta in deltas {
            self.metrics = self.metrics.merged(delta);
        }
    }

    /// Drains the arena's out-buffers into the live mailboxes — the
    /// single-threaded delivery path, also used after a sharded compute
    /// when a loss model needs its serial RNG trace.
    fn deliver(&mut self) {
        if let Some(reliable) = self.reliable.as_mut() {
            // The reliable path: the layer transmits, recovers every
            // loss (charging recovery slots to the metrics) and returns
            // the round's inboxes in canonical lossless order.
            let inboxes = reliable.exchange(&mut self.arena.outs, &mut self.metrics);
            for (to, inbox) in inboxes.into_iter().enumerate() {
                self.mailboxes[to].extend(inbox);
            }
            return;
        }
        for from in 0..self.arena.outs.len() {
            // Take the buffer out of the arena for the duration of the
            // drain (delivery borrows mailboxes/metrics), then put it
            // back so its capacity is reused next round.
            let mut out = std::mem::take(&mut self.arena.outs[from]);
            for (to, msg) in out.drain(..) {
                let bits = msg.size_bits();
                let class = msg.traffic_class().min(MESSAGE_CLASSES - 1);
                self.metrics.messages += 1;
                self.metrics.bits += bits;
                self.metrics.max_message_bits = self.metrics.max_message_bits.max(bits);
                self.metrics.by_class[class].messages += 1;
                self.metrics.by_class[class].bits += bits;
                self.mailboxes[to].push(Envelope { from, msg });
            }
            self.arena.outs[from] = out;
        }
    }

    /// Whether every node is done and no message is in flight.
    pub fn quiescent(&self) -> bool {
        self.nodes.iter().all(Protocol::is_done) && self.mailboxes.iter().all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts messages received; sends `k` pings on start and stops.
    struct Pinger {
        to_send: u64,
        received: u64,
    }

    impl Protocol for Pinger {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            for i in 0..self.to_send {
                if !ctx.neighbors().is_empty() {
                    let target = ctx.neighbors()[i as usize % ctx.neighbors().len()];
                    ctx.send(target, i);
                }
            }
        }
        fn on_round(&mut self, _round: u64, inbox: &[Envelope<u64>], _ctx: &mut Context<'_, u64>) {
            self.received += inbox.len() as u64;
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    #[test]
    fn delivers_messages_and_counts_metrics() {
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
        let mut engine = Engine::new(nodes, topology);
        let metrics = engine.run(10).unwrap();
        assert_eq!(engine.nodes()[1].received, 3);
        assert_eq!(metrics.messages, 3);
        assert_eq!(metrics.bits, 3 * 64);
        assert_eq!(metrics.max_message_bits, 64);
        // One round to drain the start messages.
        assert_eq!(metrics.rounds, 1);
    }

    /// Relays a token along a path; node i forwards to i+1.
    struct Relay {
        id: usize,
        last: usize,
        got: bool,
    }

    impl Protocol for Relay {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            if self.id == 0 {
                ctx.send(1, 42);
            }
        }
        fn on_round(&mut self, _round: u64, inbox: &[Envelope<u64>], ctx: &mut Context<'_, u64>) {
            if inbox.iter().any(|e| e.msg == 42) {
                self.got = true;
                if self.id < self.last {
                    ctx.send(self.id + 1, 42);
                }
            }
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    #[test]
    fn token_takes_one_round_per_hop() {
        let n = 6;
        let mut topology = Topology::new(n);
        for i in 0..n - 1 {
            topology.add_edge(i, i + 1);
        }
        let nodes = (0..n)
            .map(|id| Relay {
                id,
                last: n - 1,
                got: false,
            })
            .collect();
        let mut engine = Engine::new(nodes, topology);
        let metrics = engine.run(20).unwrap();
        assert!(engine.nodes().iter().skip(1).all(|r| r.got));
        // n-1 hops, one round each.
        assert_eq!(metrics.rounds, (n - 1) as u64);
        assert_eq!(metrics.messages, (n - 1) as u64);
    }

    /// Never finishes: tests the round limit.
    struct Chatter;
    impl Protocol for Chatter {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.broadcast(0);
        }
        fn on_round(&mut self, _round: u64, _inbox: &[Envelope<u64>], ctx: &mut Context<'_, u64>) {
            ctx.broadcast(0);
        }
        fn is_done(&self) -> bool {
            false
        }
    }

    #[test]
    fn round_limit_is_enforced() {
        let topology = Topology::complete(3);
        let mut engine = Engine::new(vec![Chatter, Chatter, Chatter], topology);
        let err = engine.run(5).unwrap_err();
        assert_eq!(err, EngineError::RoundLimitExceeded { limit: 5 });
        assert!(err.to_string().contains("5 rounds"));
    }

    /// Ignores the topology and fires at node 1 directly — a model
    /// violation the engine must reject.
    struct BadSender;
    impl Protocol for BadSender {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.send(1, 0);
        }
        fn on_round(&mut self, _r: u64, _i: &[Envelope<u64>], _c: &mut Context<'_, u64>) {}
        fn is_done(&self) -> bool {
            true
        }
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn sends_to_non_neighbors_panic() {
        let topology = Topology::new(2); // no edges
        let mut engine = Engine::new(vec![BadSender, BadSender], topology);
        let _ = engine.run(5);
    }

    /// Waits one round, then fires at a non-neighbor mid-protocol: the
    /// single-hop assertion must also guard sends issued from `on_round`.
    struct LateBadSender;
    impl Protocol for LateBadSender {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.broadcast(7);
        }
        fn on_round(&mut self, _r: u64, _i: &[Envelope<u64>], ctx: &mut Context<'_, u64>) {
            // Node ids are 0..3 on a path 0-1-2; node 0's neighbors are
            // just {1}, so 2 is one hop too far.
            if ctx.node() == 0 {
                ctx.send(2, 9);
            }
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn on_round_sends_to_non_neighbors_panic() {
        let mut topology = Topology::new(3);
        topology.add_edge(0, 1);
        topology.add_edge(1, 2);
        let mut engine = Engine::new(vec![LateBadSender, LateBadSender, LateBadSender], topology);
        let _ = engine.run(5);
    }

    /// Broadcasts once from node 0, counts receipts everywhere.
    struct Caster {
        received: u64,
    }
    impl Protocol for Caster {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            if ctx.node() == 0 {
                ctx.broadcast(1);
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
    fn broadcast_reaches_exactly_the_neighbors() {
        // Broadcast routes through send: every topology neighbor gets one
        // copy, nobody else does, and the neighbor assertion holds.
        let mut topology = Topology::new(4);
        topology.add_edge(0, 1);
        topology.add_edge(0, 2); // node 3 is not adjacent to node 0
        let mut engine = Engine::new((0..4).map(|_| Caster { received: 0 }).collect(), topology);
        let metrics = engine.run(5).unwrap();
        assert_eq!(metrics.messages, 2);
        assert_eq!(engine.nodes()[0].received, 0);
        assert_eq!(engine.nodes()[1].received, 1);
        assert_eq!(engine.nodes()[2].received, 1);
        assert_eq!(engine.nodes()[3].received, 0);
    }

    /// Messages alternate between class 0 and class 1 by parity.
    struct ClassyMsg(u64);
    impl Clone for ClassyMsg {
        fn clone(&self) -> Self {
            ClassyMsg(self.0)
        }
    }
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
                for i in 0..5 {
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

    #[test]
    fn per_class_counters_split_traffic() {
        let mut topology = Topology::new(2);
        topology.add_edge(0, 1);
        let mut engine = Engine::new(vec![ClassSender, ClassSender], topology);
        let metrics = engine.run(5).unwrap();
        assert_eq!(metrics.messages, 5);
        assert_eq!(metrics.by_class[0].messages, 3); // 0, 2, 4
        assert_eq!(metrics.by_class[1].messages, 2); // 1, 3
        assert_eq!(metrics.by_class[0].bits, 3 * 64);
        assert_eq!(metrics.by_class[1].bits, 2 * 64);
        // Class totals add up to the global counters.
        let (m, b) = metrics
            .by_class
            .iter()
            .fold((0, 0), |(m, b), c| (m + c.messages, b + c.bits));
        assert_eq!((m, b), (metrics.messages, metrics.bits));
    }

    #[test]
    fn merged_metrics_add_counters_and_max_sizes() {
        let a = Metrics {
            rounds: 3,
            messages: 10,
            bits: 640,
            max_message_bits: 64,
            ..Metrics::default()
        };
        let b = Metrics {
            rounds: 2,
            messages: 4,
            bits: 512,
            max_message_bits: 128,
            ..Metrics::default()
        };
        let m = a.merged(b);
        assert_eq!(m.rounds, 5);
        assert_eq!(m.messages, 14);
        assert_eq!(m.bits, 1152);
        assert_eq!(m.max_message_bits, 128);
    }

    /// Sums received payloads — order-insensitive, so shuffled delivery
    /// must not change the result while the inbox order does change.
    struct Summer {
        sum: u64,
        order: Vec<u64>,
    }
    impl Protocol for Summer {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            if ctx.node() != 0 {
                ctx.send(0, ctx.node() as u64);
            }
        }
        fn on_round(&mut self, _r: u64, inbox: &[Envelope<u64>], _c: &mut Context<'_, u64>) {
            for env in inbox {
                self.sum += env.msg;
                self.order.push(env.msg);
            }
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    #[test]
    fn delivery_shuffle_reorders_within_a_round_only() {
        let build = || {
            let mut topology = Topology::new(5);
            for v in 1..5 {
                topology.add_edge(0, v);
            }
            Engine::new(
                (0..5)
                    .map(|_| Summer {
                        sum: 0,
                        order: Vec::new(),
                    })
                    .collect(),
                topology,
            )
        };
        let mut plain = build();
        plain.run(5).unwrap();
        let mut shuffled = build().with_delivery_shuffle(0xbeef);
        shuffled.run(5).unwrap();
        // Same metrics, same (order-insensitive) result…
        assert_eq!(plain.metrics(), shuffled.metrics());
        assert_eq!(plain.nodes()[0].sum, shuffled.nodes()[0].sum);
        // …but a genuinely different delivery order (all four messages
        // arrive in the same round, so only the inbox order can differ).
        assert_eq!(plain.nodes()[0].order, vec![1, 2, 3, 4]);
        assert_ne!(plain.nodes()[0].order, shuffled.nodes()[0].order);
        // And the shuffle is reproducible per seed.
        let mut again = build().with_delivery_shuffle(0xbeef);
        again.run(5).unwrap();
        assert_eq!(shuffled.nodes()[0].order, again.nodes()[0].order);
    }

    #[test]
    fn multi_phase_runs_accumulate_metrics() {
        let mut topology = Topology::new(2);
        topology.add_edge(0, 1);
        let nodes = vec![
            Pinger {
                to_send: 2,
                received: 0,
            },
            Pinger {
                to_send: 0,
                received: 0,
            },
        ];
        let mut engine = Engine::new(nodes, topology);
        let m1 = engine.run(10).unwrap();
        // Inject more work.
        engine.nodes_mut()[0].to_send = 0;
        let m2 = engine.run(10).unwrap();
        assert_eq!(m1.messages, 2);
        assert_eq!(m2.messages, 2, "no new messages sent in phase 2");
        assert_eq!(engine.metrics().messages, 2);
    }
}
