//! The concrete examples drawn in the paper's figures, as reusable
//! fixtures for tests and examples.

use crate::{Demand, DemandId, Problem, ProblemBuilder};
use treenet_graph::{Tree, VertexId};

/// Figure 1: three demands A, B, C on a single line resource with heights
/// 0.5, 0.7 and 0.4. `{A, C}` and `{B, C}` fit on the resource, `{A, B}`
/// does not.
///
/// Returns the problem and the demand ids `(A, B, C)`; each demand has
/// exactly one instance, with the same index as its demand.
pub fn figure1() -> (Problem, [DemandId; 3]) {
    let mut b = ProblemBuilder::new();
    let t = b.add_network(Tree::line(11)).expect("line");
    // A: slots [0, 5] with height 0.5 — overlaps B on [3, 5].
    let a = b
        .add_demand(
            Demand::pair(VertexId(0), VertexId(6), 5.0).with_height(0.5),
            &[t],
        )
        .expect("A");
    // B: slots [3, 9] with height 0.7.
    let bd = b
        .add_demand(
            Demand::pair(VertexId(3), VertexId(10), 7.0).with_height(0.7),
            &[t],
        )
        .expect("B");
    // C: slots [0, 2] with height 0.4 — overlaps A only.
    let c = b
        .add_demand(
            Demand::pair(VertexId(0), VertexId(3), 4.0).with_height(0.4),
            &[t],
        )
        .expect("C");
    (b.build().expect("figure 1 problem"), [a, bd, c])
}

/// The example tree of Figures 2/3/6 (14 vertices, labelled 1..14 in the
/// paper, 0..13 here), reconstructed from the narrative constraints:
///
/// * `path(⟨4, 13⟩) = 4-2-5-8-13`, captured at node 2 under root 1 with
///   `π = {⟨2,4⟩, ⟨2,5⟩}` (Appendix A);
/// * `C(2) = {2, 4}` with `χ(2) = {1, 5}`; `C(5) = {5, 9, 8, 2, 12, 13,
///   4}` with `χ(5) = {1}` (Section 4.1, Figure 3);
/// * bending points of `⟨4, 13⟩` w.r.t. nodes 3 and 9 are 2 and 5
///   (Section 4.4, Figure 6).
pub fn figure6_tree() -> Tree {
    Tree::from_edges(
        14,
        &[
            (0, 1),   // 1-2
            (1, 3),   // 2-4
            (1, 4),   // 2-5
            (4, 7),   // 5-8
            (4, 8),   // 5-9
            (7, 12),  // 8-13
            (7, 11),  // 8-12
            (0, 5),   // 1-6
            (5, 2),   // 6-3
            (2, 6),   // 3-7
            (0, 13),  // 1-14
            (13, 9),  // 14-10
            (13, 10), // 14-11
        ],
    )
    .expect("figure 6 tree")
}

/// Converts a 1-based paper vertex label to the 0-based [`VertexId`] used
/// by [`figure6_tree`].
pub fn paper_vertex(label: u32) -> VertexId {
    assert!((1..=14).contains(&label), "paper labels are 1..14");
    VertexId(label - 1)
}

/// The tree-network of Figure 2 (13 vertices, labelled 1..13 in the
/// paper): the paths of the demands ⟨1,10⟩, ⟨2,3⟩ and ⟨12,13⟩ all traverse
/// the edge ⟨4,5⟩.
pub fn figure2_tree() -> Tree {
    Tree::from_edges(
        13,
        &[
            (0, 3),   // 1-4
            (1, 3),   // 2-4
            (11, 3),  // 12-4
            (3, 4),   // 4-5
            (4, 9),   // 5-10
            (4, 2),   // 5-3
            (4, 12),  // 5-13
            (5, 0),   // 6-1
            (6, 1),   // 7-2
            (7, 9),   // 8-10
            (8, 2),   // 9-3
            (10, 11), // 11-12
        ],
    )
    .expect("figure 2 tree")
}

/// Figure 2: the tree of [`figure2_tree`] with the three demands ⟨1,10⟩,
/// ⟨2,3⟩ and ⟨12,13⟩, all sharing the edge ⟨4,5⟩. In the unit height case
/// only one of them can be scheduled; with heights 0.4/0.7/0.3 the first
/// and third fit together (the paper's illustration).
///
/// Returns the problem and the three demand ids.
pub fn figure2() -> (Problem, [DemandId; 3]) {
    let mut b = ProblemBuilder::new();
    let t = b.add_network(figure2_tree()).expect("tree");
    // Heights chosen as in the paper's arbitrary-height illustration.
    let d1 = b
        .add_demand(
            Demand::pair(paper_vertex(1), paper_vertex(10), 3.0).with_height(0.4),
            &[t],
        )
        .expect("⟨1,10⟩");
    let d2 = b
        .add_demand(
            Demand::pair(paper_vertex(2), paper_vertex(3), 2.0).with_height(0.7),
            &[t],
        )
        .expect("⟨2,3⟩");
    let d3 = b
        .add_demand(
            Demand::pair(paper_vertex(12), paper_vertex(13), 1.0).with_height(0.3),
            &[t],
        )
        .expect("⟨12,13⟩");
    (b.build().expect("figure 2 problem"), [d1, d2, d3])
}

/// The Appendix-A running example: the Figure 6 tree with the single
/// demand ⟨4, 13⟩ (unit height), whose path is 4-2-5-8-13.
pub fn figure6_demand() -> (Problem, DemandId) {
    let mut b = ProblemBuilder::new();
    let t = b.add_network(figure6_tree()).expect("tree");
    let d = b
        .add_demand(Demand::pair(paper_vertex(4), paper_vertex(13), 1.0), &[t])
        .expect("⟨4,13⟩");
    (b.build().expect("figure 6 problem"), d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Solution;

    #[test]
    fn figure1_feasibility_pattern() {
        let (p, [a, b, c]) = figure1();
        let inst = |d: DemandId| p.instances_of(d)[0];
        // {A, C} feasible.
        assert!(Solution::new(vec![inst(a), inst(c)]).verify(&p).is_ok());
        // {B, C} feasible.
        assert!(Solution::new(vec![inst(b), inst(c)]).verify(&p).is_ok());
        // {A, B} infeasible (0.5 + 0.7 > 1 on shared slots).
        assert!(Solution::new(vec![inst(a), inst(b)]).verify(&p).is_err());
    }

    #[test]
    fn figure6_path_is_4_2_5_8_13() {
        let (p, d) = figure6_demand();
        let path = p.instance(p.instances_of(d)[0]).path();
        let route = p
            .rooted(crate::NetworkId(0))
            .path(path.source(), path.target());
        assert_eq!(route.edges(), path.edges());
        let labels: Vec<u32> = route.vertices().iter().map(|v| v.0 + 1).collect();
        assert_eq!(labels, vec![4, 2, 5, 8, 13]);
    }

    #[test]
    fn figure2_unit_height_admits_only_one() {
        let (p, demands) = figure2();
        // All three paths share the edge ⟨4,5⟩, so with unit heights no two
        // of them fit — check pairwise conflicts and the shared edge.
        let shared = p
            .network(crate::NetworkId(0))
            .edge_between(paper_vertex(4), paper_vertex(5))
            .expect("edge 4-5 exists");
        for (i, &x) in demands.iter().enumerate() {
            let dx = p.instances_of(x)[0];
            assert!(p.instance(dx).active_on(shared), "{x} crosses ⟨4,5⟩");
            for &y in &demands[i + 1..] {
                let dy = p.instances_of(y)[0];
                assert!(p.conflicting(dx, dy), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn figure2_heights_admit_first_and_third() {
        let (p, [d1, d2, d3]) = figure2();
        let inst = |d: DemandId| p.instances_of(d)[0];
        // Heights 0.4 + 0.3 fit together (the paper's illustration).
        assert!(Solution::new(vec![inst(d1), inst(d3)]).verify(&p).is_ok());
        // 0.4 + 0.7 exceeds the unit capacity on the shared edge ⟨4,5⟩.
        assert!(Solution::new(vec![inst(d1), inst(d2)]).verify(&p).is_err());
        // 0.7 + 0.3 fills the edge exactly — still feasible.
        assert!(Solution::new(vec![inst(d2), inst(d3)]).verify(&p).is_ok());
        // All three together overflow.
        assert!(Solution::new(vec![inst(d1), inst(d2), inst(d3)])
            .verify(&p)
            .is_err());
    }

    #[test]
    #[should_panic(expected = "paper labels")]
    fn paper_vertex_rejects_zero() {
        let _ = paper_vertex(0);
    }
}
