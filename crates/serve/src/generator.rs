//! Seeded open-loop workload generator: an unbounded, reproducible
//! stream of submit/withdraw requests for smoke runs and the
//! `exp_serve_throughput` bench.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::protocol::{Request, Shape};

/// An open-loop arrival/departure process.
///
/// "Open loop" in the queueing sense: the generator emits requests at
/// its own pace without waiting on responses. Every stream is fully
/// determined by the seed; ids are unique for the generator's lifetime
/// and start at a configurable floor (set it above the server's
/// bootstrap demand count).
///
/// Demand `id` is confined to network `id % networks` (pod-local
/// routing), which keeps conflict components small and independent —
/// the regime where warm re-solves shine.
#[derive(Clone, Debug)]
pub struct OpenLoop {
    rng: SmallRng,
    vertices: u32,
    networks: u32,
    depart_percent: u32,
    /// `Some((hmin, narrow_percent))` emits capacitated submits: with
    /// probability `narrow_percent` a narrow height in `[hmin, 1/2]`,
    /// otherwise a wide height in `(1/2, 1]`. `None` emits unit-height
    /// submits (no `height` field on the wire).
    heights: Option<(f64, u32)>,
    next_id: u64,
    live: Vec<u64>,
}

impl OpenLoop {
    /// A generator over `networks` tree-networks on `vertices` vertices.
    /// Defaults: 30% departures, ids from 0.
    pub fn new(seed: u64, vertices: u32, networks: u32) -> OpenLoop {
        assert!(vertices >= 2, "need at least one edge to route over");
        assert!(networks >= 1, "need at least one network");
        OpenLoop {
            rng: SmallRng::seed_from_u64(seed ^ 0x5e7e),
            vertices,
            networks,
            depart_percent: 30,
            heights: None,
            next_id: 0,
            live: Vec::new(),
        }
    }

    /// Emits capacitated submits: with probability `narrow_percent` a
    /// narrow height in `[hmin, 1/2]`, otherwise a wide height in
    /// `(1/2, 1]`. The serving engine must run with the same (or lower)
    /// `hmin` floor to admit the stream.
    #[must_use]
    pub fn with_heights(mut self, hmin: f64, narrow_percent: u32) -> OpenLoop {
        assert!(
            hmin > 0.0 && hmin <= 0.5,
            "hmin must be in (0, 1/2] for narrow heights to exist"
        );
        self.heights = Some((hmin, narrow_percent.min(100)));
        self
    }

    /// Sets the percentage of requests that withdraw (when anything is
    /// live to withdraw).
    #[must_use]
    pub fn with_depart_percent(mut self, percent: u32) -> OpenLoop {
        self.depart_percent = percent.min(100);
        self
    }

    /// Starts client ids at `floor` (use the server's bootstrap demand
    /// count to avoid colliding with pre-registered ids).
    #[must_use]
    pub fn with_id_floor(mut self, floor: u64) -> OpenLoop {
        self.next_id = floor;
        self
    }

    /// Demands currently live according to the generator's own ledger.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// The next request in the stream: a withdraw of a random live demand
    /// with probability `depart_percent`, else a fresh submit.
    pub fn next_request(&mut self) -> Request {
        let depart = !self.live.is_empty() && self.rng.gen_range(0..100u32) < self.depart_percent;
        if depart {
            let i = self.rng.gen_range(0..self.live.len());
            let id = self.live.swap_remove(i);
            return Request::Withdraw { id };
        }
        let id = self.next_id;
        self.next_id += 1;
        self.live.push(id);
        let u = self.rng.gen_range(0..self.vertices);
        let mut v = self.rng.gen_range(0..self.vertices);
        if v == u {
            v = (v + 1) % self.vertices;
        }
        let network = (id % u64::from(self.networks)) as u32;
        let height = self.heights.map(|(hmin, narrow_percent)| {
            if self.rng.gen_range(0..100u32) < narrow_percent {
                hmin + (0.5 - hmin) * self.rng.gen::<f64>()
            } else {
                (0.5 + 0.5 * self.rng.gen::<f64>()).clamp(0.5000001, 1.0)
            }
        });
        Request::Submit {
            id,
            shape: Shape::Pair { u, v },
            profit: 1.0 + f64::from(self.rng.gen_range(0..16u32)) / 4.0,
            height,
            networks: Some(vec![network]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn streams_are_reproducible_and_ids_unique() {
        let mut a = OpenLoop::new(9, 12, 3);
        let mut b = OpenLoop::new(9, 12, 3);
        let mut submitted = BTreeSet::new();
        for _ in 0..500 {
            let req = a.next_request();
            assert_eq!(req, b.next_request());
            if let Request::Submit { id, networks, .. } = &req {
                assert!(submitted.insert(*id), "duplicate id {id}");
                assert_eq!(networks.as_deref(), Some(&[(*id % 3) as u32][..]));
            }
        }
        assert!(a.live_count() > 0);
    }

    #[test]
    fn withdraws_only_name_live_demands() {
        let mut g = OpenLoop::new(3, 8, 2).with_depart_percent(60);
        let mut live = BTreeSet::new();
        for _ in 0..300 {
            match g.next_request() {
                Request::Submit { id, .. } => {
                    live.insert(id);
                }
                Request::Withdraw { id } => {
                    assert!(live.remove(&id), "withdrew dead id {id}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(live.len(), g.live_count());
    }

    #[test]
    fn height_streams_respect_the_floor_and_mix_classes() {
        let mut g = OpenLoop::new(5, 10, 2)
            .with_depart_percent(0)
            .with_heights(0.25, 50);
        let (mut narrow, mut wide) = (0u32, 0u32);
        for _ in 0..200 {
            match g.next_request() {
                Request::Submit {
                    height: Some(h), ..
                } => {
                    assert!((0.25..=1.0).contains(&h), "height {h} out of range");
                    if h <= 0.5 {
                        narrow += 1;
                    } else {
                        wide += 1;
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(narrow > 0 && wide > 0, "narrow {narrow}, wide {wide}");
    }

    #[test]
    fn id_floor_offsets_the_stream() {
        let mut g = OpenLoop::new(1, 6, 1)
            .with_id_floor(100)
            .with_depart_percent(0);
        for expect in 100..110u64 {
            match g.next_request() {
                Request::Submit { id, .. } => assert_eq!(id, expect),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
