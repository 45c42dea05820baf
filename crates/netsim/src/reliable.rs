//! Reliable delivery over lossy links: per-edge sequence numbers, a
//! sliding send window with eager pipelined retransmission, proactive
//! repetition under a known drop rate, cumulative+SACK acknowledgements
//! and duplicate suppression, beneath the synchronous round abstraction.
//!
//! The paper's schedulers assume reliable synchronous delivery. This
//! module closes the gap between that model and a lossy network: the
//! engine keeps presenting the protocol with perfect synchronous rounds,
//! while underneath each *logical* round expands into one transmission
//! slot plus as many link-layer *recovery slots* as the loss process
//! demands. The application layer idles during recovery (a synchronizer);
//! once every packet of the round is through, the inbox is reassembled in
//! canonical `(sender, sequence)` order — exactly the delivery order of a
//! lossless run — and the protocol resumes. A protocol therefore observes
//! byte-identical inboxes at any loss rate, which is what makes the
//! distributed schedulers' results bit-identical under loss *by
//! construction*.
//!
//! # The link protocol
//!
//! * **Sequence numbers.** Every directed edge carries its own sequence
//!   counter; each payload is stamped once, at first transmission. On the
//!   wire a sequence number is a 16-bit wrapping counter; the receiver
//!   reconstructs the full (virtual) sequence from its monotone
//!   watermark, serial-number-arithmetic style, which is exact as long as
//!   fewer than 2¹⁵ packets of one edge are in flight at once (asserted).
//! * **Proactive repetition.** When the configured drop probability is
//!   nonzero, every first transmission is a salvo of several identical
//!   copies (enough to push the residual per-packet loss probability
//!   below ~0.2%, capped by the send window). Redundant copies are
//!   charged to
//!   [`Metrics::retransmits`](crate::Metrics::retransmits), roll only
//!   the drop process, and are suppressed by the receiver's sequence
//!   tracking when the packet already landed. This is what keeps most
//!   logical rounds at *zero* recovery slots even at high loss rates.
//! * **Sliding-window eager retransmission.** An unacknowledged packet
//!   is retransmitted in **every** recovery slot until `window` copies
//!   have been sent (the per-packet in-flight budget, see
//!   [`Engine::with_arq_window`](crate::Engine::with_arq_window));
//!   past the window the classic two-slot pacing timer (the link RTT)
//!   takes over. With the one-slot ack turnaround below, a packet that
//!   missed its salvo is usually repaired in a single recovery slot.
//! * **Cumulative + SACK acks, one-slot turnaround.** In every recovery
//!   slot, a node that accepted data on an edge in the previous slot
//!   returns the edge's cumulative sequence watermark plus the
//!   received-ahead set (SACK), so a gap never triggers spurious
//!   retransmission of packets behind it. Acks ride ahead of data within
//!   a slot: they are generated and applied *before* the slot's
//!   retransmission decisions, so the first recovery slot already
//!   retransmits selectively. An ack piggybacks for free when the
//!   reverse direction still has unacknowledged traffic in flight (its
//!   channel is active this slot); otherwise it is a standalone
//!   [`ACK_BITS`]-bit message, counted in
//!   [`Metrics::acks`](crate::Metrics::acks). The *logical round
//!   barrier* itself acts as the final cumulative ack: when every packet
//!   of the round is through, completing the barrier is common knowledge
//!   (that is exactly the guarantee a synchronizer provides), so
//!   outstanding state clears without a trailing ack exchange. This is
//!   what makes `p = 0` a literal zero-overhead passthrough: no acks, no
//!   retransmissions, no redundant copies, no extra slots, byte-identical
//!   metrics.
//!
//! # Determinism and RNG stream split
//!
//! The loss process draws from its **own** seeded RNG
//! ([`LossModel::seed`]); the engine's delivery-shuffle RNG
//! ([`Engine::with_delivery_shuffle`](crate::Engine::with_delivery_shuffle))
//! is a separate stream that is consumed exactly once per node per
//! *logical* round, never per recovery slot. The two streams therefore
//! compose deterministically: enabling a loss model — at any `p`,
//! including 0 — does not perturb the shuffle sequence, and enabling the
//! shuffle does not perturb the loss trace. Links are processed in
//! ascending `(from, to)` order within a slot, probabilities of zero
//! consume no randomness, and redundant copies draw exactly one drop
//! decision each, so the loss trace is a pure function of the model's
//! seed, the window configuration and the protocol's traffic.
//!
//! # What a copy costs
//!
//! The link table is built once, with the engine: one link per directed
//! edge of the [`Topology`](crate::Topology), laid out per sender over
//! its sorted neighbours, so the table's index order is the ascending
//! `(from, to)` order above. A reverse link that an asymmetric topology
//! lacks reads as nothing outstanding. A payload moves into its
//! sender's outstanding packet at first transmission; every copy on the
//! wire (salvo, repair or delayed) refers to that packet, and only the
//! first copy to land clones the payload into the receiver's staging
//! inbox. The staging inboxes are kept across rounds and drained
//! straight into the engine's mailboxes at the round barrier.
//!
//! # Round inflation bound
//!
//! A recovery slot is only charged while some packet of the round is
//! undelivered or a delayed copy is in flight. Under eager pipelining
//! every such slot consumes a fresh drop or delay event (a copy is
//! re-lost or lands one slot late), and past the send window the pacing
//! timer adds at most two slots per further event — so the physical
//! expansion is bounded by `treenet_core::retransmit_round_bound`, i.e.
//! `retransmit_rounds ≤ 2 · (dropped + delayed)` at `window ≥ 2`
//! (`4 · (dropped + delayed)` in the stop-and-wait degenerate case
//! `window = 1`). The fault-injection proptests in `treenet-dist` assert
//! this bound on every run.

use crate::{Envelope, MessageSize, Metrics, Topology, MESSAGE_CLASSES};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Wire size of a standalone cumulative+SACK ack, in bits: edge
/// endpoint, sequence watermark, a compact SACK block and a tag word.
/// Acks are link-layer control — they are accounted in
/// [`Metrics::acks`](crate::Metrics::acks) /
/// [`Metrics::ack_bits`](crate::Metrics::ack_bits), never in the
/// per-class protocol counters, and never touch `max_message_bits` (the
/// paper's `O(M)` bound concerns protocol payloads).
pub const ACK_BITS: u64 = 96;

/// Default per-packet in-flight transmission budget of the sliding
/// window (see [`Engine::with_arq_window`](crate::Engine::with_arq_window)):
/// room for a proactive salvo plus at least one eager repair copy.
pub const DEFAULT_ARQ_WINDOW: u32 = 6;

/// Residual per-packet loss probability the proactive-repetition salvo
/// aims for under a nonzero drop probability.
const SPRAY_RESIDUAL_TARGET: f64 = 2e-3;

/// Hard cap on salvo size, independent of the window.
const SPRAY_MAX_COPIES: u32 = 5;

/// Safety valve: recovery slots per logical round before the layer
/// declares the loss process adversarially starving (e.g. a drop
/// probability of 1.0, under which no retransmission can ever succeed).
const MAX_RECOVERY_SLOTS: u64 = 100_000;

/// Half the 16-bit wire sequence space: the serial-number reconstruction
/// is exact while fewer packets than this are in flight per edge.
const WIRE_SEQ_HORIZON: usize = 32_768;

/// Reconstructs a full (virtual) sequence number from its 16-bit wire
/// form, relative to a reference the true value is known to sit within
/// ±2¹⁵ of (serial number arithmetic, RFC 1982 style).
fn unwrap_wire(reference: u64, wire: u16) -> u64 {
    let delta = wire.wrapping_sub(reference as u16) as i16 as i64;
    reference
        .checked_add_signed(delta)
        .expect("wire sequence outside the ±2^15 reconstruction horizon")
}

/// The loss probabilities of one [`LossModel`], alike on every traffic
/// class.
#[derive(Copy, Clone, Debug, PartialEq)]
struct ClassLoss {
    /// Probability a transmission is silently dropped.
    drop: f64,
    /// Probability a delivered transmission arrives twice (the copy is
    /// suppressed by the receiver's sequence tracking).
    duplicate: f64,
    /// Probability a transmission is delayed by one slot.
    delay: f64,
}

impl ClassLoss {
    /// No loss at all.
    const NONE: ClassLoss = ClassLoss {
        drop: 0.0,
        duplicate: 0.0,
        delay: 0.0,
    };

    fn validated(self) -> Self {
        for (label, p) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("delay", self.delay),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{label} probability must lie in [0,1], got {p}"
            );
        }
        self
    }

    fn is_lossless(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0 && self.delay == 0.0
    }
}

/// A seeded loss process for the reliable-delivery sublayer (see the
/// module docs), alike on every traffic class. Enable with
/// [`Engine::with_loss_model`](crate::Engine::with_loss_model).
///
/// Besides the Bernoulli processes, the model supports *deterministic*
/// adversarial drops for tests: an explicit global index list
/// ([`LossModel::with_forced_drops`]) and per-class index windows
/// ([`LossModel::with_class_window`]). Both count original transmissions
/// only — retransmissions and redundant salvo copies always face just
/// the Bernoulli process, so a forced drop is recovered, not repeated
/// forever.
#[derive(Clone, Debug, PartialEq)]
pub struct LossModel {
    /// Seed of the loss RNG — an independent stream from the engine's
    /// delivery-shuffle RNG (see the module docs on the stream split).
    pub seed: u64,
    /// The loss process of every data transmission; acks roll it without
    /// duplication ([`LossModel::ack_loss`]).
    loss: ClassLoss,
    forced_drops: Vec<u64>,
    class_windows: Vec<(usize, u64, u64)>,
}

impl LossModel {
    /// A loss model that never loses anything — the zero-overhead
    /// passthrough configuration (proven by the p=0 tests and the CI
    /// budget gate).
    pub fn lossless(seed: u64) -> Self {
        LossModel {
            seed,
            loss: ClassLoss::NONE,
            forced_drops: Vec::new(),
            class_windows: Vec::new(),
        }
    }

    /// Uniform Bernoulli drops with probability `p` on every traffic
    /// class, acks included.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn bernoulli(p: f64, seed: u64) -> Self {
        LossModel {
            seed,
            loss: ClassLoss {
                drop: p,
                ..ClassLoss::NONE
            }
            .validated(),
            forced_drops: Vec::new(),
            class_windows: Vec::new(),
        }
    }

    /// Sets the duplication probability on every class (builder style).
    /// Acks are cumulative and idempotent, so they never duplicate.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    #[must_use]
    pub fn with_duplicates(mut self, p: f64) -> Self {
        self.loss.duplicate = p;
        self.loss = self.loss.validated();
        self
    }

    /// Sets the one-slot delay probability on every class, acks included
    /// (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    #[must_use]
    pub fn with_delays(mut self, p: f64) -> Self {
        self.loss.delay = p;
        self.loss = self.loss.validated();
        self
    }

    /// The loss process of the link-layer acks: the data process without
    /// duplication.
    fn ack_loss(&self) -> ClassLoss {
        ClassLoss {
            duplicate: 0.0,
            ..self.loss
        }
    }

    /// Deterministically drops the original transmissions with these
    /// global indices (0-based, counted across all classes in send
    /// order). Retransmissions and salvo copies are exempt, so every
    /// forced drop is recovered. The proptest shrinker minimizes exactly
    /// this set.
    #[must_use]
    pub fn with_forced_drops(mut self, mut indices: Vec<u64>) -> Self {
        indices.sort_unstable();
        indices.dedup();
        self.forced_drops = indices;
        self
    }

    /// Deterministically drops original transmissions `start..start+len`
    /// of traffic class `class` (0-based per-class send order).
    /// Retransmissions and salvo copies are exempt.
    ///
    /// # Panics
    ///
    /// Panics if `class ≥ MESSAGE_CLASSES`.
    #[must_use]
    pub fn with_class_window(mut self, class: usize, start: u64, len: u64) -> Self {
        assert!(class < MESSAGE_CLASSES, "class {class} out of range");
        self.class_windows.push((class, start, len));
        self
    }

    /// Whether the model can never lose anything — used by the engine to
    /// prove the passthrough claim in debug assertions.
    pub fn is_lossless(&self) -> bool {
        self.loss.is_lossless()
            && self.forced_drops.is_empty()
            && self.class_windows.iter().all(|&(_, _, len)| len == 0)
    }

    fn forces_drop(&self, global_index: u64, class: usize, class_index: u64) -> bool {
        self.forced_drops.binary_search(&global_index).is_ok()
            || self.class_windows.iter().any(|&(c, start, len)| {
                c == class && class_index >= start && class_index < start.saturating_add(len)
            })
    }
}

/// Salvo size under the given drop probability and send window: enough
/// copies to push the residual drop probability below
/// [`SPRAY_RESIDUAL_TARGET`], capped by [`SPRAY_MAX_COPIES`] and by
/// `window - 1` so at least one eager repair copy always fits inside the
/// window. A zero drop probability (and the stop-and-wait window of 1)
/// sends exactly one copy.
fn salvo_copies(drop: f64, window: u32) -> u32 {
    if window <= 1 || drop <= 0.0 {
        return 1;
    }
    let wanted = if drop >= 1.0 {
        u32::MAX
    } else {
        (SPRAY_RESIDUAL_TARGET.ln() / drop.ln()).ceil() as u32
    };
    wanted.clamp(1, SPRAY_MAX_COPIES).min(window - 1).max(1)
}

/// Marks a link whose reverse direction is missing from the topology
/// (a one-way edge of an asymmetric `Topology::from_adjacency`).
const NO_LINK: u32 = u32::MAX;

/// One unacknowledged packet on a sender's directed edge. It owns the
/// payload from its first transmission to the round barrier; every
/// copy on the wire refers to it, and the receiver clones the payload
/// only for the copy that lands first.
struct Outstanding<M> {
    seq: u64,
    msg: M,
    class: usize,
    bits: u64,
    /// Slot of the most recent transmission (the pacing timer).
    last_sent: u64,
    /// Copies sent so far (salvo included) — the in-flight count the
    /// send window caps.
    sends: u64,
    /// Whether an ack covering this packet arrived. The sender's
    /// retransmission decisions look exclusively at this; the
    /// round-completion barrier tracks delivery separately (the
    /// `undelivered` counter in `exchange`, the simulator's ground
    /// truth standing in for the synchronizer).
    acked: bool,
}

/// Receiver-side state of one directed edge: duplicate suppression and
/// the ack trigger.
#[derive(Default)]
struct Receiver {
    /// All sequence numbers below this were accepted; compacted to the
    /// sender's `next_seq` at every round barrier.
    recv_cum: u64,
    /// Accepted sequence numbers at or above `recv_cum`.
    recv_ahead: Vec<u64>,
    /// Whether data arrived on this edge in the previous slot — the ack
    /// trigger.
    got_data_last_slot: bool,
    got_data_this_slot: bool,
}

impl Receiver {
    fn already_received(&self, seq: u64) -> bool {
        seq < self.recv_cum || self.recv_ahead.contains(&seq)
    }

    /// Reconstruction reference: the next virtual sequence number not
    /// yet seen on this edge. Every in-flight wire sequence sits within
    /// the ±2¹⁵ horizon of it.
    fn expected(&self) -> u64 {
        self.recv_ahead
            .iter()
            .copied()
            .max()
            .map_or(self.recv_cum, |m| (m + 1).max(self.recv_cum))
    }

    /// Cumulative watermark: every seq below it accepted.
    fn cumulative(&self) -> u64 {
        let mut cum = self.recv_cum;
        let mut ahead: Vec<u64> = self.recv_ahead.clone();
        ahead.sort_unstable();
        for seq in ahead {
            if seq == cum {
                cum += 1;
            }
        }
        cum
    }
}

/// One directed edge `from → to`: the sender's sequence counter and
/// unacknowledged packets, and the receiver's state for the same
/// direction. Sequence state is virtual (u64) internally; only the
/// 16-bit wire form travels.
struct LinkState<M> {
    from: u32,
    to: u32,
    /// Index of the `to → from` link, or [`NO_LINK`] on a one-way edge.
    reverse: u32,
    /// Next sequence number to stamp (sender side, virtual).
    next_seq: u64,
    /// Unacknowledged packets, ascending by `seq` (sender side).
    outstanding: Vec<Outstanding<M>>,
    rx: Receiver,
}

/// An in-flight delayed data copy: arrives at the start of the next
/// slot. Carries the 16-bit wire sequence form, like the channel does;
/// its payload stays in the sender's outstanding packet, which lives
/// until the round barrier, after every delayed copy has landed.
struct DelayedData {
    link: u32,
    /// Index of the packet in its link's outstanding list.
    packet: u32,
    wire: u16,
}

/// An in-flight (or just-generated) ack for the data on `link`:
/// cumulative watermark plus the selectively-acknowledged set above it
/// (SACK), both in 16-bit wire form, so a gap does not trigger spurious
/// retransmissions of everything behind it.
struct DelayedAck {
    link: u32,
    cumulative_wire: u16,
    ahead_wire: Vec<u16>,
}

/// The reliable-delivery sublayer of one engine: the per-edge link state
/// plus the loss process. Owned by [`Engine`](crate::Engine) when
/// [`Engine::with_loss_model`](crate::Engine::with_loss_model) is set;
/// the protocol nodes never see it — they keep exchanging plain
/// messages over perfect logical rounds.
pub struct Reliable<M> {
    model: LossModel,
    /// Per-packet in-flight transmission budget (≥ 1); see
    /// [`Engine::with_arq_window`](crate::Engine::with_arq_window).
    window: u32,
    /// Salvo size, derived from the model's drop probability and the
    /// window.
    salvo: u32,
    rng: SmallRng,
    /// One link per directed topology edge, built once: node `v`'s links
    /// are `links[first_link[v]..first_link[v + 1]]`, ascending by `to`,
    /// so index order is ascending `(from, to)` and every slot consumes
    /// the loss RNG in a deterministic order.
    links: Vec<LinkState<M>>,
    first_link: Vec<u32>,
    delayed_data: Vec<DelayedData>,
    delayed_acks: Vec<DelayedAck>,
    /// Per-node inbox staging, `(sender, sequence, payload)`: filled as
    /// copies land, drained into the mailboxes at the round barrier, and
    /// kept (capacity intact) across rounds.
    staging: Vec<Vec<(usize, u64, M)>>,
    /// The acks of one recovery slot as `(link, piggyback)`, reused
    /// across slots.
    acks: Vec<(u32, bool)>,
    /// Original transmissions so far, globally and per class (the
    /// deterministic-drop coordinates).
    originals: u64,
    class_originals: [u64; MESSAGE_CLASSES],
}

/// What the loss process decided for one transmission.
enum Fate {
    Deliver { duplicate: bool },
    Drop,
    Delay,
}

impl<M: Clone + MessageSize> Reliable<M> {
    /// Creates the layer for a fresh engine over `topology` with the
    /// given send window.
    pub(crate) fn new(model: LossModel, window: u32, topology: &Topology) -> Self {
        let n = topology.len();
        let mut first_link = Vec::with_capacity(n + 1);
        let mut links = Vec::with_capacity(2 * topology.edge_count());
        for v in 0..n {
            first_link.push(links.len() as u32);
            links.extend(topology.neighbors(v).iter().map(|&w| LinkState {
                from: v as u32,
                to: w as u32,
                reverse: NO_LINK,
                next_seq: 0,
                outstanding: Vec::new(),
                rx: Receiver::default(),
            }));
        }
        first_link.push(links.len() as u32);
        for link in &mut links {
            let (v, w) = (link.from as usize, link.to as usize);
            if let Ok(i) = topology.neighbors(w).binary_search(&v) {
                link.reverse = first_link[w] + i as u32;
            }
        }
        let mut layer = Reliable {
            rng: SmallRng::seed_from_u64(model.seed),
            model,
            window: 1,
            salvo: 1,
            links,
            first_link,
            delayed_data: Vec::new(),
            delayed_acks: Vec::new(),
            staging: (0..n).map(|_| Vec::new()).collect(),
            acks: Vec::new(),
            originals: 0,
            class_originals: [0; MESSAGE_CLASSES],
        };
        layer.set_window(window);
        layer
    }

    /// Re-derives the window-dependent state (the salvo schedule).
    pub(crate) fn set_window(&mut self, window: u32) {
        self.window = window.max(1);
        self.salvo = salvo_copies(self.model.loss.drop, self.window);
    }

    /// Index of the link `from → to`.
    fn link(&self, from: usize, to: usize) -> usize {
        let first = self.first_link[from] as usize;
        let last = self.first_link[from + 1] as usize;
        first
            + self.links[first..last]
                .binary_search_by_key(&(to as u32), |link| link.to)
                .expect("sends travel topology edges")
    }

    /// Rolls the loss process for one transmission. Probabilities of
    /// zero consume no randomness, so a lossless model leaves the RNG
    /// stream untouched (part of the determinism contract).
    fn fate(rng: &mut SmallRng, loss: &ClassLoss) -> Fate {
        if loss.drop > 0.0 && rng.gen_bool(loss.drop) {
            return Fate::Drop;
        }
        if loss.delay > 0.0 && rng.gen_bool(loss.delay) {
            return Fate::Delay;
        }
        if loss.duplicate > 0.0 && rng.gen_bool(loss.duplicate) {
            return Fate::Deliver { duplicate: true };
        }
        Fate::Deliver { duplicate: false }
    }

    /// Accepts one arriving copy of `packet` from `from`: reconstructs
    /// the virtual sequence from the wire form, suppresses duplicates,
    /// otherwise stages a clone of the payload in the receiver's `inbox`
    /// and counts the delivery. Returns whether the copy was new (a
    /// first delivery).
    fn receive(
        rx: &mut Receiver,
        inbox: &mut Vec<(usize, u64, M)>,
        metrics: &mut Metrics,
        from: usize,
        wire: u16,
        packet: &Outstanding<M>,
    ) -> bool {
        rx.got_data_this_slot = true;
        let seq = unwrap_wire(rx.expected(), wire);
        let class = packet.class;
        if rx.already_received(seq) {
            metrics.dup_suppressed += 1;
            metrics.by_class[class].dup_suppressed += 1;
            return false;
        }
        rx.recv_ahead.push(seq);
        let bits = packet.bits;
        metrics.messages += 1;
        metrics.bits += bits;
        metrics.max_message_bits = metrics.max_message_bits.max(bits);
        metrics.by_class[class].messages += 1;
        metrics.by_class[class].bits += bits;
        inbox.push((from, seq, packet.msg.clone()));
        true
    }

    /// The ack the receiver of `link` returns for the data it accepted.
    fn ack_of(&self, link: usize) -> DelayedAck {
        let rx = &self.links[link].rx;
        DelayedAck {
            link: link as u32,
            cumulative_wire: rx.cumulative() as u16,
            ahead_wire: rx.recv_ahead.iter().map(|&s| s as u16).collect(),
        }
    }

    /// Applies one cumulative+SACK ack to the sender state of its link,
    /// reconstructing the virtual sequences against the sender's own
    /// counter (all outstanding packets sit within the wire horizon).
    fn apply_ack(link: &mut LinkState<M>, ack: &DelayedAck) {
        let cum = unwrap_wire(link.next_seq, ack.cumulative_wire);
        let ahead: Vec<u64> = ack
            .ahead_wire
            .iter()
            .map(|&w| unwrap_wire(link.next_seq, w))
            .collect();
        for packet in &mut link.outstanding {
            if packet.seq < cum || ahead.contains(&packet.seq) {
                packet.acked = true;
            }
        }
    }

    /// Runs one logical round's exchange: transmits `outs` (salvo
    /// included), recovers every loss, and appends the round's inboxes
    /// to `mailboxes` in canonical `(sender, sequence)` order — the
    /// lossless delivery order. Recovery slots are charged to
    /// `metrics.rounds` and `metrics.retransmit_rounds`.
    ///
    /// # Panics
    ///
    /// Panics if the loss process starves recovery for
    /// `MAX_RECOVERY_SLOTS` slots (a drop probability of ~1.0), or if a
    /// single edge carries ≥ 2¹⁵ packets in one round (the wire sequence
    /// horizon).
    pub(crate) fn exchange(
        &mut self,
        outs: &mut [Vec<(usize, M)>],
        mailboxes: &mut [Vec<Envelope<M>>],
        metrics: &mut Metrics,
    ) {
        let mut undelivered = 0u64;

        // ---- Slot 0: original transmissions plus their proactive
        // salvos, in sender order (the lossless delivery order, which
        // canonical reassembly restores).
        for (from, out) in outs.iter_mut().enumerate() {
            for (to, msg) in out.drain(..) {
                let class = msg.traffic_class().min(MESSAGE_CLASSES - 1);
                let bits = msg.size_bits();
                let global_index = self.originals;
                let class_index = self.class_originals[class];
                self.originals += 1;
                self.class_originals[class] += 1;
                let forced = self.model.forces_drop(global_index, class, class_index);
                let loss = self.model.loss;
                let copies = self.salvo;
                let l = self.link(from, to);
                let link = &mut self.links[l];
                let seq = link.next_seq;
                link.next_seq += 1;
                let wire = seq as u16;
                assert!(
                    link.outstanding.len() < WIRE_SEQ_HORIZON,
                    "more than {WIRE_SEQ_HORIZON} packets on one edge in a single round \
                     (wire sequence horizon)"
                );
                let p = link.outstanding.len();
                link.outstanding.push(Outstanding {
                    seq,
                    msg,
                    class,
                    bits,
                    last_sent: 0,
                    sends: copies as u64,
                    acked: false,
                });
                undelivered += 1;
                let packet = &link.outstanding[p];
                let inbox = &mut self.staging[to];
                // The original copy rolls the full loss process (and the
                // deterministic drop coordinates apply to it alone).
                let fate = if forced {
                    Fate::Drop
                } else {
                    Self::fate(&mut self.rng, &loss)
                };
                match fate {
                    Fate::Drop => metrics.dropped += 1,
                    Fate::Delay => {
                        metrics.delayed += 1;
                        self.delayed_data.push(DelayedData {
                            link: l as u32,
                            packet: p as u32,
                            wire,
                        });
                    }
                    Fate::Deliver { duplicate } => {
                        if duplicate {
                            metrics.duplicated += 1;
                            if Self::receive(&mut link.rx, inbox, metrics, from, wire, packet) {
                                undelivered -= 1;
                            }
                        }
                        if Self::receive(&mut link.rx, inbox, metrics, from, wire, packet) {
                            undelivered -= 1;
                        }
                    }
                }
                // Redundant salvo copies: link-layer repetition, charged
                // as retransmissions; they roll only the drop process
                // (a redundant copy is never delayed or duplicated).
                for _ in 1..copies {
                    metrics.retransmits += 1;
                    metrics.by_class[class].retransmits += 1;
                    if loss.drop > 0.0 && self.rng.gen_bool(loss.drop) {
                        metrics.dropped += 1;
                    } else if Self::receive(&mut link.rx, inbox, metrics, from, wire, packet) {
                        undelivered -= 1;
                    }
                }
            }
        }

        // ---- Recovery slots until the round's data is fully through.
        let mut slot = 0u64;
        while undelivered > 0 || !self.delayed_data.is_empty() {
            slot += 1;
            assert!(
                slot <= MAX_RECOVERY_SLOTS,
                "reliable layer starved: {MAX_RECOVERY_SLOTS} recovery slots without completing \
                 the round (is a drop probability ≈ 1.0?)"
            );
            metrics.rounds += 1;
            metrics.retransmit_rounds += 1;

            // Shift the ack triggers to "previous slot".
            for link in &mut self.links {
                link.rx.got_data_last_slot = link.rx.got_data_this_slot;
                link.rx.got_data_this_slot = false;
            }

            // (a) Delayed arrivals from the previous slot land first.
            for d in &self.delayed_data {
                let link = &mut self.links[d.link as usize];
                let (from, to) = (link.from as usize, link.to as usize);
                let packet = &link.outstanding[d.packet as usize];
                if Self::receive(
                    &mut link.rx,
                    &mut self.staging[to],
                    metrics,
                    from,
                    d.wire,
                    packet,
                ) {
                    undelivered -= 1;
                }
            }
            self.delayed_data.clear();
            for ack in self.delayed_acks.drain(..) {
                Self::apply_ack(&mut self.links[ack.link as usize], &ack);
            }

            // (b) Cumulative + SACK acks for edges that carried data in
            // the previous slot, in ascending edge order — generated and
            // applied *before* this slot's retransmission decisions (the
            // one-slot control turnaround: acks ride ahead of data
            // within a slot), so the first recovery slot already
            // retransmits selectively. An ack piggybacks for free when
            // the reverse direction still has unacknowledged traffic in
            // flight; standalone ACK_BITS messages otherwise. Every
            // piggyback decision is taken before any ack applies.
            self.acks.clear();
            for (l, link) in self.links.iter().enumerate() {
                if link.rx.got_data_last_slot {
                    let piggyback = link.reverse != NO_LINK
                        && self.links[link.reverse as usize]
                            .outstanding
                            .iter()
                            .any(|p| !p.acked);
                    self.acks.push((l as u32, piggyback));
                }
            }
            let ack_loss = self.model.ack_loss();
            for i in 0..self.acks.len() {
                let (l, piggyback) = self.acks[i];
                let l = l as usize;
                if !piggyback {
                    metrics.acks += 1;
                    metrics.ack_bits += ACK_BITS;
                }
                match Self::fate(&mut self.rng, &ack_loss) {
                    Fate::Drop => metrics.dropped += 1,
                    Fate::Delay => {
                        metrics.delayed += 1;
                        let ack = self.ack_of(l);
                        self.delayed_acks.push(ack);
                    }
                    // Acks are cumulative and idempotent: duplication is
                    // a no-op, so both delivery fates collapse.
                    Fate::Deliver { .. } => {
                        let ack = self.ack_of(l);
                        Self::apply_ack(&mut self.links[l], &ack);
                    }
                }
            }

            // (c) Retransmissions, decided after the ack pass: a packet
            // is due eagerly while its in-flight budget (the window) has
            // room, and on the two-slot pacing timer past it. Sending a
            // copy never changes another packet's due-ness, so each is
            // sent as it is decided, in ascending edge order.
            let window = self.window as u64;
            let loss = self.model.loss;
            for (l, link) in self.links.iter_mut().enumerate() {
                let (from, to) = (link.from as usize, link.to as usize);
                for (p, packet) in link.outstanding.iter_mut().enumerate() {
                    if packet.acked || (packet.sends >= window && slot - packet.last_sent < 2) {
                        continue;
                    }
                    packet.last_sent = slot;
                    packet.sends += 1;
                    metrics.retransmits += 1;
                    metrics.by_class[packet.class].retransmits += 1;
                    let wire = packet.seq as u16;
                    match Self::fate(&mut self.rng, &loss) {
                        Fate::Drop => metrics.dropped += 1,
                        Fate::Delay => {
                            metrics.delayed += 1;
                            self.delayed_data.push(DelayedData {
                                link: l as u32,
                                packet: p as u32,
                                wire,
                            });
                        }
                        Fate::Deliver { duplicate } => {
                            let inbox = &mut self.staging[to];
                            if duplicate {
                                // Same shape as the slot-0 path: the copy
                                // is genuinely delivered, then suppressed
                                // by sequence tracking.
                                metrics.duplicated += 1;
                                if Self::receive(&mut link.rx, inbox, metrics, from, wire, packet) {
                                    undelivered -= 1;
                                }
                            }
                            if Self::receive(&mut link.rx, inbox, metrics, from, wire, packet) {
                                undelivered -= 1;
                            }
                        }
                    }
                }
            }
        }

        // ---- Round barrier: completion is common knowledge (the
        // synchronizer's guarantee), which acts as the final cumulative
        // ack — outstanding state clears, receive windows compact. The
        // virtual sequence counters keep running across rounds; only
        // their 16-bit wire form ever wraps.
        for link in &mut self.links {
            link.outstanding.clear();
            link.rx.recv_cum = link.next_seq;
            link.rx.recv_ahead.clear();
            link.rx.got_data_last_slot = false;
            link.rx.got_data_this_slot = false;
        }
        self.delayed_acks.clear();

        // ---- Canonical reassembly: ascending (sender, sequence) is the
        // delivery order of a lossless run, so the protocol observes
        // byte-identical inboxes at any loss rate.
        for (inbox, mailbox) in self.staging.iter_mut().zip(mailboxes) {
            inbox.sort_unstable_by_key(|&(from, seq, _)| (from, seq));
            mailbox.extend(inbox.drain(..).map(|(from, _, msg)| Envelope { from, msg }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acks_roll_the_data_process_without_duplication() {
        let model = LossModel::bernoulli(0.5, 0)
            .with_duplicates(0.3)
            .with_delays(0.2);
        let data = ClassLoss {
            drop: 0.5,
            duplicate: 0.3,
            delay: 0.2,
        };
        assert_eq!(model.loss, data);
        assert_eq!(
            model.ack_loss(),
            ClassLoss {
                duplicate: 0.0,
                ..data
            }
        );
    }

    #[test]
    #[should_panic(expected = "probability must lie in [0,1]")]
    fn loss_model_rejects_bad_probability() {
        let _ = LossModel::bernoulli(1.5, 0);
    }

    #[test]
    fn lossless_detection_accounts_for_every_knob() {
        assert!(LossModel::lossless(7).is_lossless());
        assert!(LossModel::bernoulli(0.0, 7).is_lossless());
        assert!(!LossModel::bernoulli(0.1, 7).is_lossless());
        assert!(!LossModel::lossless(7).with_duplicates(0.2).is_lossless());
        assert!(!LossModel::lossless(7).with_delays(0.2).is_lossless());
        assert!(!LossModel::lossless(7)
            .with_forced_drops(vec![3])
            .is_lossless());
        assert!(!LossModel::lossless(7)
            .with_class_window(0, 0, 2)
            .is_lossless());
        // A zero-length window drops nothing.
        assert!(LossModel::lossless(7)
            .with_class_window(0, 5, 0)
            .is_lossless());
    }

    #[test]
    fn forced_drops_hit_exact_coordinates() {
        let model = LossModel::lossless(0)
            .with_forced_drops(vec![4, 2, 2])
            .with_class_window(3, 10, 2);
        assert!(model.forces_drop(2, 0, 0));
        assert!(model.forces_drop(4, 1, 7));
        assert!(!model.forces_drop(3, 0, 0));
        assert!(model.forces_drop(100, 3, 10));
        assert!(model.forces_drop(100, 3, 11));
        assert!(!model.forces_drop(100, 3, 12));
        assert!(!model.forces_drop(100, 2, 10));
    }

    #[test]
    fn cumulative_watermark_skips_gaps() {
        let mut rx = Receiver {
            recv_cum: 2,
            recv_ahead: vec![4, 2],
            ..Receiver::default()
        };
        assert_eq!(rx.cumulative(), 3, "gap at 3 stops the watermark");
        rx.recv_ahead = vec![3, 2, 4];
        assert_eq!(rx.cumulative(), 5);
        assert!(rx.already_received(1));
        assert!(rx.already_received(3));
        assert!(!rx.already_received(5));
        assert_eq!(rx.expected(), 5);
    }

    #[test]
    fn salvo_schedule_matches_the_residual_target() {
        // No drops, or the stop-and-wait window: one copy.
        assert_eq!(salvo_copies(0.0, 6), 1);
        assert_eq!(salvo_copies(0.2, 1), 1);
        // ceil(ln 0.002 / ln p): 0.2 → 4 copies, 0.05 → 3, 0.01 → 2.
        assert_eq!(salvo_copies(0.2, 6), 4);
        assert_eq!(salvo_copies(0.05, 6), 3);
        assert_eq!(salvo_copies(0.01, 6), 2);
        // A drop probability already below the residual target needs no
        // redundancy at all.
        assert_eq!(salvo_copies(0.001, 6), 1);
        // Capped by the window (room for one eager repair copy) and by
        // the hard cap.
        assert_eq!(salvo_copies(0.2, 3), 2);
        assert_eq!(salvo_copies(0.9, 16), 5);
        assert_eq!(salvo_copies(1.0, 16), 5);
    }

    #[test]
    fn wire_reconstruction_is_exact_within_the_horizon() {
        // Identity near zero.
        assert_eq!(unwrap_wire(0, 0), 0);
        assert_eq!(unwrap_wire(0, 5), 5);
        assert_eq!(unwrap_wire(10, 7), 7);
        // Across the wrap, forwards and backwards.
        assert_eq!(unwrap_wire(65_530, 65_535), 65_535);
        assert_eq!(unwrap_wire(65_534, 2), 65_538);
        assert_eq!(unwrap_wire(65_540, 65_533), 65_533);
        assert_eq!(unwrap_wire(131_070, 3), 131_075);
        // Large virtual values far past the first wrap.
        let v = 1_000_000u64;
        assert_eq!(unwrap_wire(v, v as u16), v);
        assert_eq!(unwrap_wire(v, (v + 100) as u16), v + 100);
        assert_eq!(unwrap_wire(v, (v - 100) as u16), v - 100);
    }

    #[test]
    fn wire_sequence_numbers_survive_wrap() {
        // Drive one edge through > 2^16 sequence numbers across many
        // rounds, with forced drops straddling the wrap boundary: the
        // virtual-sequence reconstruction must keep delivery exact and
        // canonical. (The u64 payload doubles as the expected sequence.)
        let per_round = 48u64;
        let rounds = 1_500u64; // 72_000 packets on edge (0, 1)
        let model = LossModel::lossless(3).with_forced_drops(vec![
            65_533, 65_534, 65_535, 65_536, 65_537, // the wrap itself
            70_001, // and a straggler past it
        ]);
        let mut topology = Topology::new(2);
        topology.add_edge(0, 1);
        let mut layer: Reliable<u64> = Reliable::new(model, DEFAULT_ARQ_WINDOW, &topology);
        let mut metrics = Metrics::default();
        for r in 0..rounds {
            let mut outs: Vec<Vec<(usize, u64)>> = vec![Vec::new(), Vec::new()];
            for k in 0..per_round {
                outs[0].push((1, r * per_round + k));
            }
            let mut inboxes = vec![Vec::new(), Vec::new()];
            layer.exchange(&mut outs, &mut inboxes, &mut metrics);
            let got: Vec<u64> = inboxes[1].iter().map(|e| e.msg).collect();
            let expect: Vec<u64> = (r * per_round..(r + 1) * per_round).collect();
            assert_eq!(got, expect, "round {r} lost canonical order");
            assert!(inboxes[0].is_empty());
        }
        assert!(per_round * rounds > u16::MAX as u64);
        assert_eq!(metrics.messages, per_round * rounds);
        assert_eq!(metrics.dropped, 6, "every forced drop fired");
        assert!(metrics.retransmits >= 6, "and was repaired");
    }
}
