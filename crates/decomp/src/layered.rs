//! Layered decompositions (Section 4.4, Lemmas 4.2 and 4.3).
//!
//! A layered decomposition of the demand instances is a partition into
//! ordered groups `G₁, …, G_ℓ` plus a critical-edge set `π(d)` per
//! instance such that for any overlapping `d₁ ∈ G_i`, `d₂ ∈ G_j` with
//! `i ≤ j`, `path(d₂)` includes an edge of `π(d₁)`. The distributed
//! algorithm processes one group per epoch; the group count bounds the
//! epoch count and `Δ = max |π(d)|` drives the approximation ratio.

use crate::capture::push_critical_edges;
use crate::line::{length_class, line_lmin};
use crate::{capture_node, Strategy, TreeDecomposition};
use std::fmt;
use treenet_graph::{EdgeId, RootedTree, TreePath};
use treenet_model::{InstanceId, NetworkId, Problem};

/// How the instances of one problem are layered: one tree decomposition
/// per network (Section 4.4) or, on canonical line-networks, length
/// classes over the public minimum length `Lmin` (Section 7).
///
/// Everything here derives from the networks and `Lmin`, which the paper
/// assumes every processor knows. [`Layering::layer`] is the single
/// per-instance definition behind [`LayeredDecomposition::new`], the
/// online engine's arrivals and the distributed processors, which derive
/// each neighbor's layer from its demand descriptor — all of them must
/// compute identically for the executions to stay bit-identical.
#[derive(Clone, Debug)]
pub struct Layering(Family);

#[derive(Clone, Debug)]
enum Family {
    /// One decomposition per network and its depth, in network order.
    Tree {
        decompositions: Vec<TreeDecomposition>,
        depths: Vec<u32>,
    },
    /// Length classes keyed on the public `Lmin`.
    Line { lmin: f64 },
}

impl Layering {
    /// The tree layering of Lemma 4.3: one tree decomposition per network,
    /// built by `strategy` (the ideal one gives `Δ ≤ 6` and at most
    /// `2⌈log n⌉ + 1` groups).
    pub fn for_trees(problem: &Problem, strategy: Strategy) -> Self {
        let decompositions: Vec<TreeDecomposition> = problem
            .networks()
            .map(|t| strategy.build(problem.network(t)))
            .collect();
        let depths = decompositions
            .iter()
            .map(TreeDecomposition::depth)
            .collect();
        Layering(Family::Tree {
            decompositions,
            depths,
        })
    }

    /// The line layering of Section 7: length classes keyed on the
    /// public [`line_lmin`] (`Δ ≤ 3`, `⌈log(Lmax/Lmin)⌉ + 1` groups).
    ///
    /// # Errors
    ///
    /// The reason, if some network is not a canonical line (window
    /// problems built through [`treenet_model::ProblemBuilder`] never
    /// fail).
    pub fn for_lines(problem: &Problem) -> Result<Self, String> {
        if let Some(t) = problem
            .networks()
            .find(|&t| !problem.network(t).is_canonical_line())
        {
            return Err(format!(
                "line layered decomposition requires canonical line networks; {t} is not one"
            ));
        }
        Ok(Layering(Family::Line {
            lmin: line_lmin(problem),
        }))
    }

    /// The public `Lmin` a line layering is keyed on (`None` for a tree
    /// layering).
    pub fn lmin(&self) -> Option<f64> {
        match self.0 {
            Family::Tree { .. } => None,
            Family::Line { lmin } => Some(lmin),
        }
    }

    /// The 1-based epoch group of one instance routed along `path` in
    /// `network`, whose rooted view is `rooted`; appends the instance's
    /// sorted critical edges `π(d)` to `critical`.
    ///
    /// Tree layering: groups by reversed capture depth (deepest captures
    /// first, Lemma 4.2), critical edges per
    /// [`critical_edges`](crate::critical_edges), with the capture node
    /// computed once. Line layering: group `⌊log₂(len/Lmin)⌋ + 1`,
    /// critical slots start/mid/end.
    ///
    /// # Panics
    ///
    /// Panics if `network` is out of range or `path` has no edge.
    pub fn layer(
        &self,
        rooted: &RootedTree,
        network: NetworkId,
        path: &TreePath,
        critical: &mut Vec<EdgeId>,
    ) -> u32 {
        match &self.0 {
            Family::Tree {
                decompositions,
                depths,
            } => {
                let decomposition = &decompositions[network.index()];
                let mu = capture_node(decomposition, path);
                push_critical_edges(decomposition, rooted, path, mu, critical);
                depths[network.index()] - decomposition.node_depth(mu) + 1
            }
            Family::Line { lmin } => length_class(*lmin, path.edges(), critical),
        }
    }
}

/// A layered decomposition of all demand instances of a [`Problem`]
/// (the per-network orderings `σ_q` merged by group index `k`, as used by
/// the distributed algorithm of Section 5).
#[derive(Clone, Debug)]
pub struct LayeredDecomposition {
    /// 1-based group index per instance (`G_k`; `k = 1` is raised first).
    group: Vec<u32>,
    /// The critical edges `π(d)` (edges of `d`'s own network, sorted) as
    /// CSR: `critical[offsets[d]..offsets[d + 1]]`.
    offsets: Vec<usize>,
    critical: Vec<EdgeId>,
    /// Number of groups `ℓmax`.
    num_groups: usize,
    /// `Δ = max_d |π(d)|`.
    delta: usize,
}

/// A violation of the layered-decomposition property, reported by
/// [`LayeredDecomposition::verify`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayeredError {
    /// The earlier-or-equal-group instance.
    pub d1: InstanceId,
    /// The overlapping later-group instance whose path misses `π(d1)`.
    pub d2: InstanceId,
}

impl fmt::Display for LayeredError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "layered property violated: path({}) misses all critical edges of {}",
            self.d2, self.d1
        )
    }
}

impl std::error::Error for LayeredError {}

impl LayeredDecomposition {
    /// Layers every instance of `problem` by [`Layering::layer`].
    pub fn new(problem: &Problem, layering: &Layering) -> Self {
        let mut layers = LayeredDecomposition {
            group: Vec::with_capacity(problem.instance_count()),
            offsets: Vec::with_capacity(problem.instance_count() + 1),
            critical: Vec::new(),
            num_groups: 0,
            delta: 0,
        };
        layers.offsets.push(0);
        for inst in problem.instances() {
            layers.push_instance(
                layering,
                problem.rooted(inst.network),
                inst.network,
                &inst.path,
            );
        }
        layers
    }

    /// The tree-network layered decomposition of Lemma 4.3 over
    /// [`Layering::for_trees`].
    ///
    /// For the ideal strategy this guarantees `Δ ≤ 6` and at most
    /// `2⌈log n⌉ + 1` groups.
    pub fn for_trees(problem: &Problem, strategy: Strategy) -> Self {
        Self::new(problem, &Layering::for_trees(problem, strategy))
    }

    /// The line-network layered decomposition of Section 7 over
    /// [`Layering::for_lines`] (length classes, `Δ ≤ 3`,
    /// `⌈log(Lmax/Lmin)⌉ + 1` groups).
    ///
    /// # Panics
    ///
    /// Panics if some network is not a canonical line.
    pub fn for_lines(problem: &Problem) -> Self {
        let layering = Layering::for_lines(problem).unwrap_or_else(|reason| panic!("{reason}"));
        Self::new(problem, &layering)
    }

    /// Builds a decomposition from raw parts **without any validity
    /// guarantee** — exists so mutation tests can hand [`Self::verify`]
    /// deliberately broken inputs. Not for production use.
    #[doc(hidden)]
    pub fn from_parts_for_tests(group: Vec<u32>, critical: Vec<Vec<EdgeId>>) -> Self {
        let mut offsets = vec![0];
        offsets.extend(critical.iter().scan(0, |end, pi| {
            *end += pi.len();
            Some(*end)
        }));
        LayeredDecomposition {
            num_groups: group.iter().copied().max().unwrap_or(0) as usize,
            delta: critical.iter().map(Vec::len).max().unwrap_or(0),
            group,
            offsets,
            critical: critical.concat(),
        }
    }

    /// Layers one more instance, the next id, by [`Layering::layer`]:
    /// [`LayeredDecomposition::new`] pushes every instance this way, and
    /// the online engine pushes the instances an arrival materialized, in
    /// order.
    ///
    /// `num_groups` and `delta` are running maxima, so they only grow;
    /// the two-phase engine skips empty groups, so a stale-high group
    /// count changes no observable behavior. Pass the *same* [`Layering`]
    /// the decomposition was built with — the networks and `Lmin` are
    /// fixed, so layer assignments of existing instances never change.
    pub fn push_instance(
        &mut self,
        layering: &Layering,
        rooted: &RootedTree,
        network: NetworkId,
        path: &TreePath,
    ) {
        let start = self.critical.len();
        let group = layering.layer(rooted, network, path, &mut self.critical);
        self.num_groups = self.num_groups.max(group as usize);
        self.delta = self.delta.max(self.critical.len() - start);
        self.group.push(group);
        self.offsets.push(self.critical.len());
    }

    /// Number of instances covered (== the problem's instance count).
    #[inline]
    pub fn len(&self) -> usize {
        self.group.len()
    }

    /// Whether the decomposition covers no instances.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.group.is_empty()
    }

    /// The 1-based group index of instance `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    #[inline]
    pub fn group_of(&self, d: InstanceId) -> u32 {
        self.group[d.index()]
    }

    /// The critical edges `π(d)` (edges of `d`'s own network), sorted.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    #[inline]
    pub fn critical_of(&self, d: InstanceId) -> &[EdgeId] {
        &self.critical[self.offsets[d.index()]..self.offsets[d.index() + 1]]
    }

    /// Number of groups `ℓmax` (= number of epochs).
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// The critical set size `Δ = max_d |π(d)|`.
    #[inline]
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// The members of group `k` (1-based), in instance-id order.
    pub fn group_members(&self, k: u32) -> Vec<InstanceId> {
        self.group
            .iter()
            .enumerate()
            .filter(|&(_, g)| *g == k)
            .map(|(i, _)| InstanceId(i as u32))
            .collect()
    }

    /// Exhaustively verifies the defining property: for any overlapping
    /// pair `d₁ ∈ G_i, d₂ ∈ G_j` with `i ≤ j`, `path(d₂)` includes a
    /// critical edge of `d₁`. `O(|D|²·Δ)` per network — for tests.
    ///
    /// # Errors
    ///
    /// Returns the first violating pair.
    pub fn verify(&self, problem: &Problem) -> Result<(), LayeredError> {
        for t in problem.networks() {
            let members = problem.instances_on(t);
            for &d1 in members {
                for &d2 in members {
                    if d1 == d2 || self.group_of(d1) > self.group_of(d2) {
                        continue;
                    }
                    let i1 = problem.instance(d1);
                    let i2 = problem.instance(d2);
                    if !i1.overlaps(i2) {
                        continue;
                    }
                    if !self.critical_of(d1).iter().any(|&e| i2.active_on(e)) {
                        return Err(LayeredError { d1, d2 });
                    }
                }
            }
        }
        Ok(())
    }

    /// The per-network group counts `(network, max group index)` — useful
    /// for diagnostics and experiments.
    pub fn groups_per_network(&self, problem: &Problem) -> Vec<(NetworkId, u32)> {
        problem
            .networks()
            .map(|t| {
                let max = problem
                    .instances_on(t)
                    .iter()
                    .map(|&d| self.group_of(d))
                    .max()
                    .unwrap_or(0);
                (t, max)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treenet_graph::generators::TreeFamily;
    use treenet_model::workload::TreeWorkload;

    fn workload(seed: u64, family: TreeFamily) -> Problem {
        let mut rng = SmallRng::seed_from_u64(seed);
        TreeWorkload::new(24, 30)
            .with_networks(3)
            .with_family(family)
            .generate(&mut rng)
    }

    #[test]
    fn tree_layers_have_delta_at_most_six() {
        for family in [
            TreeFamily::Uniform,
            TreeFamily::Path,
            TreeFamily::Caterpillar,
        ] {
            for seed in 0..5u64 {
                let p = workload(seed, family);
                let layers = LayeredDecomposition::for_trees(&p, Strategy::Ideal);
                assert!(
                    layers.delta() <= 6,
                    "{}: Δ = {}",
                    family.name(),
                    layers.delta()
                );
                assert!(layers.verify(&p).is_ok(), "{}", family.name());
            }
        }
    }

    #[test]
    fn group_count_is_logarithmic_for_ideal() {
        let p = workload(3, TreeFamily::Uniform);
        let layers = LayeredDecomposition::for_trees(&p, Strategy::Ideal);
        let n = p.vertex_count();
        let bound = crate::ideal::ideal_depth_bound(n) as usize;
        assert!(layers.num_groups() <= bound);
        assert!(layers.num_groups() >= 1);
    }

    #[test]
    fn every_instance_gets_group_and_critical_edges() {
        let p = workload(4, TreeFamily::Uniform);
        let layers = LayeredDecomposition::for_trees(&p, Strategy::Ideal);
        for inst in p.instances() {
            let g = layers.group_of(inst.id);
            assert!(g >= 1 && g as usize <= layers.num_groups());
            let pi = layers.critical_of(inst.id);
            assert!(!pi.is_empty());
            for &e in pi {
                assert!(inst.path.contains_edge(e), "critical edges lie on the path");
            }
        }
        // group_members partitions the instance set.
        let total: usize = (1..=layers.num_groups() as u32)
            .map(|k| layers.group_members(k).len())
            .sum();
        assert_eq!(total, p.instance_count());
    }

    #[test]
    fn root_fixing_layers_also_satisfy_property() {
        // Lemma 4.2 holds for any tree decomposition; with θ = 1 the bound
        // is Δ ≤ 4.
        let p = workload(5, TreeFamily::Uniform);
        let layers = LayeredDecomposition::for_trees(&p, Strategy::RootFixing);
        assert!(layers.delta() <= 4, "Δ = {}", layers.delta());
        assert!(layers.verify(&p).is_ok());
    }

    #[test]
    fn balancing_layers_satisfy_property() {
        let p = workload(6, TreeFamily::Uniform);
        let layers = LayeredDecomposition::for_trees(&p, Strategy::Balancing);
        assert!(layers.verify(&p).is_ok());
        let theta = 5; // ⌈log₂ 24⌉ = 5
        assert!(layers.delta() <= 2 * (theta + 1));
    }

    #[test]
    fn groups_per_network_reports_all_networks() {
        let p = workload(7, TreeFamily::Uniform);
        let layers = LayeredDecomposition::for_trees(&p, Strategy::Ideal);
        let per = layers.groups_per_network(&p);
        assert_eq!(per.len(), p.network_count());
    }

    #[test]
    fn push_instance_matches_batch_layering() {
        use treenet_graph::VertexId;
        use treenet_model::workload::LineWorkload;
        use treenet_model::{Demand, ProblemDelta};
        // Grow a workload by one arrival; pushing the new instances'
        // layers incrementally must agree with re-layering from scratch,
        // for the tree and the line family alike.
        let tree = workload(8, TreeFamily::Uniform);
        let line = LineWorkload::new(40, 12)
            .with_resources(2)
            .with_window_slack(3)
            .with_len_range(2, 9)
            .generate(&mut SmallRng::seed_from_u64(8));
        let cases = [
            (
                Layering::for_trees(&tree, Strategy::Ideal),
                tree,
                Demand::pair(VertexId(0), VertexId(17), 2.5),
            ),
            (
                Layering::for_lines(&line).unwrap(),
                line,
                Demand::window(5, 30, 6, 2.5),
            ),
        ];
        for (layering, mut p, demand) in cases {
            let mut layers = LayeredDecomposition::new(&p, &layering);
            assert_eq!(layers.len(), p.instance_count());
            assert!(!layers.is_empty());
            let effect = p
                .apply_delta(ProblemDelta::Arrival {
                    demand,
                    access: p.networks().collect(),
                })
                .unwrap();
            assert!(!effect.new_instances.is_empty());
            for &d in &effect.new_instances {
                let inst = p.instance(d);
                layers.push_instance(&layering, p.rooted(inst.network), inst.network, &inst.path);
            }
            let batch = LayeredDecomposition::new(&p, &layering);
            assert_eq!(layers.len(), batch.len());
            for inst in p.instances() {
                assert_eq!(layers.group_of(inst.id), batch.group_of(inst.id));
                assert_eq!(layers.critical_of(inst.id), batch.critical_of(inst.id));
            }
            assert_eq!(layers.num_groups(), batch.num_groups());
            assert_eq!(layers.delta(), batch.delta());
            assert!(layers.verify(&p).is_ok());
        }
    }

    #[test]
    fn error_display() {
        let e = LayeredError {
            d1: InstanceId(1),
            d2: InstanceId(2),
        };
        assert!(e.to_string().contains("d1"));
        assert!(e.to_string().contains("d2"));
    }
}
