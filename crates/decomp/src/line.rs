//! The line-network layered decomposition (Section 7): length classes with
//! `Δ = 3`.
//!
//! Demand instances on a canonical line are intervals of timeslots. They
//! are grouped by length class — group `i` holds instances with
//! `2^(i-1)·Lmin ≤ len < 2^i·Lmin` — and the critical slots of an instance
//! are its start, mid-point and end: `π(d) = {s(d), mid(d), e(d)}`.
//!
//! Why this works (implicit in Panconesi–Sozio and re-proved in our tests):
//! if `d₂` overlaps `d₁` and sits in the same or a later class, then
//! `len(d₂) > len(d₁)/2`, and a contiguous interval that long cannot fit
//! strictly inside either open half `(s, mid)` or `(mid, e)` of `d₁` — so
//! it must cover `s`, `mid` or `e`.

use treenet_graph::EdgeId;
use treenet_model::Problem;

/// The public minimum instance length `Lmin` a line-network layered
/// decomposition is keyed on. The paper assumes every processor knows it;
/// the message-passing runner in `treenet-dist` reads it from the same
/// definition so both sides classify instances identically.
pub fn line_lmin(problem: &Problem) -> f64 {
    let (lmin, _) = problem.length_bounds();
    lmin.max(1) as f64
}

/// The length-class group index and critical slots of one line instance
/// given its path edges (in path order) and the public `Lmin`:
/// group `⌊log₂(len/Lmin)⌋ + 1`, critical slots start/mid/end (`Δ ≤ 3`).
///
/// # Panics
///
/// Panics if `edges` is empty.
pub(crate) fn length_class(lmin: f64, edges: &[EdgeId]) -> (u32, Vec<EdgeId>) {
    let len = edges.len();
    assert!(len >= 1, "demand instances use at least one timeslot");
    // Class index: ⌊log₂(len / Lmin)⌋ + 1, computed from the exact length
    // ratio to avoid floating-point edge cases at powers of two.
    let ratio = (len as f64 / lmin).log2().floor() as u32;
    // Slots are edge indices on the canonical line.
    let s = edges[0];
    let e = edges[len - 1];
    let mid = EdgeId((s.0 + e.0) / 2);
    let mut pi = vec![s, mid, e];
    pi.sort_unstable();
    pi.dedup();
    (ratio + 1, pi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayeredDecomposition;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treenet_graph::{Tree, VertexId};
    use treenet_model::workload::LineWorkload;
    use treenet_model::{Demand, ProblemBuilder};

    #[test]
    fn delta_is_at_most_three() {
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let p = LineWorkload::new(60, 40)
                .with_resources(3)
                .with_window_slack(3)
                .with_len_range(1, 15)
                .generate(&mut rng);
            let layers = LayeredDecomposition::for_lines(&p);
            assert!(layers.delta() <= 3, "Δ = {}", layers.delta());
            assert!(layers.verify(&p).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn group_count_is_log_length_ratio() {
        let mut rng = SmallRng::seed_from_u64(42);
        let p = LineWorkload::new(128, 60)
            .with_len_range(1, 64)
            .generate(&mut rng);
        let layers = LayeredDecomposition::for_lines(&p);
        let (lmin, lmax) = p.length_bounds();
        let bound = ((lmax as f64 / lmin as f64).log2().floor() as usize) + 1;
        assert!(
            layers.num_groups() <= bound,
            "{} > {}",
            layers.num_groups(),
            bound
        );
    }

    #[test]
    fn same_length_instances_share_group() {
        let mut b = ProblemBuilder::new();
        let t = b.add_network(Tree::line(30)).unwrap();
        b.add_demand(Demand::pair(VertexId(0), VertexId(4), 1.0), &[t])
            .unwrap();
        b.add_demand(Demand::pair(VertexId(10), VertexId(14), 1.0), &[t])
            .unwrap();
        b.add_demand(Demand::pair(VertexId(0), VertexId(20), 1.0), &[t])
            .unwrap();
        let p = b.build().unwrap();
        let layers = LayeredDecomposition::for_lines(&p);
        let g: Vec<u32> = p.instances().map(|d| layers.group_of(d.id)).collect();
        assert_eq!(g[0], g[1]);
        assert!(g[2] > g[0], "length 20 is in a later class than length 4");
    }

    #[test]
    fn critical_slots_are_start_mid_end() {
        let mut b = ProblemBuilder::new();
        let t = b.add_network(Tree::line(30)).unwrap();
        // Slots 4..=12 (vertices 4 ↝ 13).
        b.add_demand(Demand::pair(VertexId(4), VertexId(13), 1.0), &[t])
            .unwrap();
        let p = b.build().unwrap();
        let layers = LayeredDecomposition::for_lines(&p);
        assert_eq!(
            layers.critical_of(treenet_model::InstanceId(0)),
            &[EdgeId(4), EdgeId(8), EdgeId(12)]
        );
    }

    #[test]
    fn unit_length_instance_has_single_critical_slot() {
        let mut b = ProblemBuilder::new();
        let t = b.add_network(Tree::line(10)).unwrap();
        b.add_demand(Demand::pair(VertexId(3), VertexId(4), 1.0), &[t])
            .unwrap();
        let p = b.build().unwrap();
        let layers = LayeredDecomposition::for_lines(&p);
        assert_eq!(
            layers.critical_of(treenet_model::InstanceId(0)),
            &[EdgeId(3)]
        );
        assert_eq!(layers.group_of(treenet_model::InstanceId(0)), 1);
    }

    #[test]
    #[should_panic(expected = "canonical line")]
    fn rejects_non_line_networks() {
        let mut b = ProblemBuilder::new();
        let star = Tree::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let t = b.add_network(star).unwrap();
        b.add_demand(Demand::pair(VertexId(1), VertexId(2), 1.0), &[t])
            .unwrap();
        let p = b.build().unwrap();
        let _ = LayeredDecomposition::for_lines(&p);
    }

    #[test]
    fn window_instances_of_same_demand_verify() {
        // Overlapping same-demand instances sit in the same group; the
        // property must hold between them too.
        let mut rng = SmallRng::seed_from_u64(9);
        let p = LineWorkload::new(40, 10)
            .with_resources(1)
            .with_window_slack(6)
            .with_len_range(3, 8)
            .generate(&mut rng);
        let layers = LayeredDecomposition::for_lines(&p);
        assert!(layers.verify(&p).is_ok());
    }
}
