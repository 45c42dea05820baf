//! A synchronous message-passing network simulator.
//!
//! The paper assumes "the standard synchronous, message passing model of
//! computation: in a given network of processors, each processor can
//! communicate in one step with all other processors it is directly
//! connected to. The running time of the algorithm is given by the number
//! of communication rounds." This crate implements exactly that model:
//!
//! * a [`Topology`] fixes who may talk to whom (in the scheduling problem:
//!   processors sharing a resource);
//! * each node implements [`Protocol`]; in every round it consumes the
//!   messages sent to it in the previous round and emits messages for the
//!   next one;
//! * the [`Engine`] drives rounds until every node reports done and no
//!   message is in flight, collecting [`Metrics`] (rounds, message count,
//!   message bits) — the quantities the paper's theorems bound.
//!
//! Message sizes are accounted through [`MessageSize`], mirroring the
//! paper's `O(M)`-bits-per-message statement.
//!
//! Links need not be reliable: [`Engine::with_loss_model`] slides the
//! [`reliable`] sublayer (per-edge sequence numbers, a sliding send
//! window with eager pipelined retransmission and proactive repetition,
//! cumulative+SACK acks, duplicate suppression) beneath the synchronous
//! rounds, so protocols written for the reliable model run unchanged —
//! and produce identical results — over seeded Bernoulli
//! drop/duplicate/delay processes, at a measurable round/message
//! overhead. The send window is configurable via
//! [`Engine::with_arq_window`] (default [`DEFAULT_ARQ_WINDOW`]).
//!
//! # Example
//!
//! ```
//! use treenet_netsim::{Engine, Topology, Protocol, Context, Envelope, MessageSize};
//!
//! /// Each node learns the maximum id in the network by flooding.
//! struct MaxFlood { id: u64, best: u64, changed: bool }
//!
//! impl Protocol for MaxFlood {
//!     type Msg = u64;
//!     fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
//!         ctx.broadcast(self.best);
//!     }
//!     fn on_round(&mut self, _round: u64, inbox: &[Envelope<u64>], ctx: &mut Context<'_, u64>) {
//!         self.changed = false;
//!         for env in inbox {
//!             if env.msg > self.best {
//!                 self.best = env.msg;
//!                 self.changed = true;
//!             }
//!         }
//!         if self.changed {
//!             ctx.broadcast(self.best);
//!         }
//!     }
//!     fn is_done(&self) -> bool { !self.changed }
//! }
//!
//! let mut topology = Topology::new(3);
//! topology.add_edge(0, 1);
//! topology.add_edge(1, 2);
//! let nodes = (0..3).map(|i| MaxFlood { id: i, best: i, changed: true }).collect();
//! let mut engine = Engine::new(nodes, topology);
//! let metrics = engine.run(100).unwrap();
//! assert!(engine.nodes().iter().all(|n| n.best == 2));
//! assert!(metrics.rounds <= 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
/// Loss, ARQ and sliding-window delivery on top of the engine.
pub mod reliable;
mod topology;

pub use engine::{
    ClassMetrics, Context, Engine, EngineError, Envelope, MailboxArena, Metrics, Protocol,
    ShardPlan, MESSAGE_CLASSES,
};
pub use reliable::{LossModel, ACK_BITS, DEFAULT_ARQ_WINDOW};
pub use topology::Topology;

/// Size accounting for messages, in bits.
///
/// The paper states each message carries `O(M)` bits where `M` encodes one
/// demand (end-points, profit, height). Implement this for protocol
/// message types so [`Metrics::bits`] reflects real payloads; the default
/// of 64 bits suits plain word-sized messages.
pub trait MessageSize {
    /// Estimated wire size of this message in bits.
    fn size_bits(&self) -> u64 {
        64
    }

    /// Traffic class of this message for the per-class counters in
    /// [`Metrics::by_class`] (namespaced protocols map each message tag —
    /// setup, per-sub-run data, control, … — to its own class). Classes
    /// at or above [`MESSAGE_CLASSES`] are clamped into the last bucket.
    /// The default of 0 suits untagged protocols.
    fn traffic_class(&self) -> usize {
        0
    }
}

impl MessageSize for u64 {}
impl MessageSize for u32 {
    fn size_bits(&self) -> u64 {
        32
    }
}
impl MessageSize for () {
    fn size_bits(&self) -> u64 {
        1
    }
}

impl<A: MessageSize, B: MessageSize> MessageSize for (A, B) {
    fn size_bits(&self) -> u64 {
        self.0.size_bits() + self.1.size_bits()
    }
}

impl<T: MessageSize> MessageSize for Vec<T> {
    fn size_bits(&self) -> u64 {
        self.iter().map(MessageSize::size_bits).sum::<u64>().max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_size_defaults() {
        assert_eq!(7u64.size_bits(), 64);
        assert_eq!(7u32.size_bits(), 32);
        assert_eq!(().size_bits(), 1);
        assert_eq!((1u32, 2u32).size_bits(), 64);
        assert_eq!(vec![1u32, 2, 3].size_bits(), 96);
        let empty: Vec<u32> = vec![];
        assert_eq!(empty.size_bits(), 1);
    }
}
