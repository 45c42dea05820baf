//! Layered decompositions (Section 4.4, Lemmas 4.2 and 4.3).
//!
//! A layered decomposition of the demand instances is a partition into
//! ordered groups `G₁, …, G_ℓ` plus a critical-edge set `π(d)` per
//! instance such that for any overlapping `d₁ ∈ G_i`, `d₂ ∈ G_j` with
//! `i ≤ j`, `path(d₂)` includes an edge of `π(d₁)`. The distributed
//! algorithm processes one group per epoch; the group count bounds the
//! epoch count and `Δ = max |π(d)|` drives the approximation ratio.
//!
//! Every epoch reads every participant's group, but a run reads `π(d)`
//! only for the instances it raises. So [`LayeredDecomposition`] stores
//! the groups and derives `π(d)` on read
//! ([`LayeredDecomposition::critical_of`]) by [`Layering::layer`], the
//! definition the distributed processors share. `Δ` stays exact without
//! deriving every `π(d)`: no `|π(d)|` exceeds the layering's a-priori
//! [`Layering::delta_ceiling`], so once the running maximum reaches it,
//! it is final, and later instances get their group alone.

use crate::capture::push_critical_edges;
use crate::line::{length_class, line_lmin, push_critical_slots};
use crate::{capture_node, Strategy, TreeDecomposition};
use std::fmt;
use treenet_graph::{EdgeId, PathView, RootedTree, VertexId};
use treenet_model::{DemandInstance, InstanceId, NetworkId, Problem};

/// How the instances of one problem are layered: one tree decomposition
/// per network (Section 4.4) or, on canonical line-networks, length
/// classes over the public minimum length `Lmin` (Section 7).
///
/// Everything here derives from the networks and `Lmin`, which the paper
/// assumes every processor knows. [`Layering::layer`] is the single
/// per-instance definition behind [`LayeredDecomposition`], the online
/// engine's arrivals and the distributed processors, which derive each
/// neighbor's layer from its demand descriptor — all of them must
/// compute identically for the executions to stay bit-identical.
#[derive(Clone, Debug)]
pub struct Layering(Family);

#[derive(Clone, Debug)]
enum Family {
    /// One decomposition per network and its depth, in network order.
    Tree {
        decompositions: Vec<TreeDecomposition>,
        depths: Vec<u32>,
        /// `max_T 2(θ_T + 1)`, the bound of Lemma 4.2.
        ceiling: usize,
    },
    /// Length classes keyed on the public `Lmin`.
    Line { lmin: f64 },
}

/// Every line instance has at most three critical slots (start, mid,
/// end).
const LINE_CEILING: usize = 3;

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
        let ceiling = decompositions
            .iter()
            .map(|h| 2 * (h.pivot_size() + 1))
            .max()
            .unwrap_or(0);
        Layering(Family::Tree {
            decompositions,
            depths,
            ceiling,
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

    /// The a-priori bound on every `|π(d)|` of this layering:
    /// `max_T 2(θ_T + 1)` over the pivot sizes `θ_T` of the networks'
    /// decompositions (Lemma 4.2; at most 6 for the ideal strategy), or
    /// 3 on lines.
    pub fn delta_ceiling(&self) -> usize {
        match self.0 {
            Family::Tree { ceiling, .. } => ceiling,
            Family::Line { .. } => LINE_CEILING,
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
        path: PathView<'_>,
        critical: &mut Vec<EdgeId>,
    ) -> u32 {
        let start = critical.len();
        let group = match &self.0 {
            Family::Tree {
                decompositions,
                depths,
                ..
            } => {
                let decomposition = &decompositions[network.index()];
                let mu = capture_node(decomposition, path);
                push_critical_edges(decomposition, rooted, path, mu, critical);
                capture_group(depths[network.index()], decomposition, mu)
            }
            Family::Line { lmin } => {
                push_critical_slots(path.edges(), critical);
                length_class(*lmin, path.len())
            }
        };
        debug_assert!(
            critical.len() - start <= self.delta_ceiling(),
            "|π(d)| = {} exceeds the ceiling {}",
            critical.len() - start,
            self.delta_ceiling()
        );
        group
    }

    /// [`Layering::layer`]'s group alone, for an instance of `network`
    /// with end-points `source` and `target`: a tree instance's capture
    /// node is `LCA_H(source, target)`, and a line instance spans
    /// `|target − source|` timeslots.
    fn group(&self, network: NetworkId, source: VertexId, target: VertexId) -> u32 {
        match &self.0 {
            Family::Tree {
                decompositions,
                depths,
                ..
            } => {
                let decomposition = &decompositions[network.index()];
                let mu = decomposition.lca(source, target);
                capture_group(depths[network.index()], decomposition, mu)
            }
            Family::Line { lmin } => length_class(*lmin, source.0.abs_diff(target.0) as usize),
        }
    }
}

/// The group of a tree instance captured at `mu` in a decomposition of
/// depth `depth`: deepest captures first.
fn capture_group(depth: u32, decomposition: &TreeDecomposition, mu: VertexId) -> u32 {
    depth - decomposition.node_depth(mu) + 1
}

/// A layered decomposition of all demand instances of a [`Problem`]
/// (the per-network orderings `σ_q` merged by group index `k`, as used by
/// the distributed algorithm of Section 5).
///
/// It owns its [`Layering`] and stores each instance's group, `ℓmax` and
/// `Δ`; `π(d)` is not stored but derived on read
/// ([`LayeredDecomposition::critical_of`]). `Δ` is exact: `π(d)` is
/// derived while the running maximum is below
/// [`Layering::delta_ceiling`], and once it reaches the ceiling it is
/// final.
#[derive(Clone, Debug)]
pub struct LayeredDecomposition {
    /// 1-based group index per instance (`G_k`; `k = 1` is raised first).
    group: Vec<u32>,
    /// Number of groups `ℓmax`.
    num_groups: usize,
    /// `Δ = max_d |π(d)|`.
    delta: usize,
    /// Where `π(d)` comes from.
    critical: Critical,
}

/// The source of a decomposition's critical edges.
#[derive(Clone, Debug)]
enum Critical {
    /// Derived on read by [`Layering::layer`].
    Derived(Layering),
    /// Explicit sets, one per instance
    /// ([`LayeredDecomposition::from_parts_for_tests`]).
    Explicit(Vec<Vec<EdgeId>>),
}

impl Critical {
    fn layering(&self) -> &Layering {
        match self {
            Critical::Derived(layering) => layering,
            Critical::Explicit(_) => panic!("a decomposition from explicit parts has no layering"),
        }
    }
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
    /// Layers every instance of `problem` by `layering`, which the
    /// decomposition keeps.
    pub fn new(problem: &Problem, layering: Layering) -> Self {
        let mut layers = LayeredDecomposition {
            group: Vec::with_capacity(problem.instance_count()),
            num_groups: 0,
            delta: 0,
            critical: Critical::Derived(layering),
        };
        let mut scratch = Vec::new();
        for inst in problem.instances() {
            layers.push(problem, inst, &mut scratch);
        }
        layers
    }

    /// The tree-network layered decomposition of Lemma 4.3 over
    /// [`Layering::for_trees`].
    ///
    /// For the ideal strategy this guarantees `Δ ≤ 6` and at most
    /// `2⌈log n⌉ + 1` groups.
    pub fn for_trees(problem: &Problem, strategy: Strategy) -> Self {
        Self::new(problem, Layering::for_trees(problem, strategy))
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
        Self::new(problem, layering)
    }

    /// Builds a decomposition from raw parts **without any validity
    /// guarantee** — exists so mutation tests can hand [`Self::verify`]
    /// deliberately broken inputs. Not for production use: it has no
    /// [`Layering`], so it cannot grow or hand one back.
    #[doc(hidden)]
    pub fn from_parts_for_tests(group: Vec<u32>, critical: Vec<Vec<EdgeId>>) -> Self {
        LayeredDecomposition {
            num_groups: group.iter().copied().max().unwrap_or(0) as usize,
            delta: critical.iter().map(Vec::len).max().unwrap_or(0),
            group,
            critical: Critical::Explicit(critical),
        }
    }

    /// Layers instance `d`, the next id, by the decomposition's own
    /// [`Layering`]: the online engine pushes the instances an arrival
    /// materialized, in order, exactly as [`LayeredDecomposition::new`]
    /// pushes every instance.
    ///
    /// `num_groups` and `delta` are running maxima, so they only grow;
    /// the two-phase engine skips empty groups, so a stale-high group
    /// count changes no observable behavior. The networks and `Lmin` are
    /// fixed, so layer assignments of existing instances never change.
    ///
    /// # Panics
    ///
    /// Panics unless `d` is the next id, or for a decomposition from
    /// [`Self::from_parts_for_tests`].
    pub fn push_instance(&mut self, problem: &Problem, d: InstanceId) {
        assert_eq!(d.index(), self.len(), "instances are layered in id order");
        self.push(problem, problem.instance(d), &mut Vec::new());
    }

    /// Gives `inst` its group; derives `π(inst)`, in `scratch`, only
    /// while `Δ` is below the ceiling.
    fn push(&mut self, problem: &Problem, inst: DemandInstance<'_>, scratch: &mut Vec<EdgeId>) {
        let layering = self.critical.layering();
        let path = inst.path();
        let group = if self.delta < layering.delta_ceiling() {
            scratch.clear();
            let rooted = problem.rooted(inst.network);
            let group = layering.layer(rooted, inst.network, path, scratch);
            self.delta = self.delta.max(scratch.len());
            group
        } else {
            layering.group(inst.network, path.source(), path.target())
        };
        self.num_groups = self.num_groups.max(group as usize);
        self.group.push(group);
    }

    /// The layering `π(d)` is derived from.
    ///
    /// # Panics
    ///
    /// Panics for a decomposition from [`Self::from_parts_for_tests`].
    pub fn layering(&self) -> &Layering {
        self.critical.layering()
    }

    /// Hands back the layering `π(d)` is derived from, for a caller that
    /// keeps only the groups' summary: the distributed runner moves it
    /// into the processors' public information.
    ///
    /// # Panics
    ///
    /// Panics for a decomposition from [`Self::from_parts_for_tests`].
    pub fn into_layering(self) -> Layering {
        match self.critical {
            Critical::Derived(layering) => layering,
            Critical::Explicit(_) => panic!("a decomposition from explicit parts has no layering"),
        }
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

    /// The critical edges `π(d)` of instance `d` of `problem` (edges of
    /// `d`'s own network, sorted), derived into `buf` by
    /// [`Layering::layer`]; `buf` is cleared first.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn critical_of<'b>(
        &self,
        problem: &Problem,
        d: InstanceId,
        buf: &'b mut Vec<EdgeId>,
    ) -> &'b [EdgeId] {
        buf.clear();
        match &self.critical {
            Critical::Derived(layering) => {
                let inst = problem.instance(d);
                layering.layer(problem.rooted(inst.network), inst.network, inst.path(), buf);
            }
            Critical::Explicit(sets) => buf.extend_from_slice(&sets[d.index()]),
        }
        buf
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
        let mut buf = Vec::new();
        for t in problem.networks() {
            let members = problem.instances_on(t);
            for &d1 in members {
                let i1 = problem.instance(d1);
                let critical = self.critical_of(problem, d1, &mut buf);
                for &d2 in members {
                    if d1 == d2 || self.group_of(d1) > self.group_of(d2) {
                        continue;
                    }
                    let i2 = problem.instance(d2);
                    if !i1.overlaps(i2) {
                        continue;
                    }
                    if !critical.iter().any(|&e| i2.active_on(e)) {
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

    /// A tree workload whose ideal layering reaches `Δ = 6`, its
    /// ceiling, after some instances but before the last.
    fn workload_at_ceiling() -> Problem {
        TreeWorkload::new(64, 200)
            .with_networks(3)
            .with_family(TreeFamily::Uniform)
            .generate(&mut SmallRng::seed_from_u64(2))
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
        let mut buf = Vec::new();
        for inst in p.instances() {
            let g = layers.group_of(inst.id);
            assert!(g >= 1 && g as usize <= layers.num_groups());
            let pi = layers.critical_of(&p, inst.id, &mut buf);
            assert!(!pi.is_empty());
            for &e in pi {
                assert!(
                    inst.path().contains_edge(e),
                    "critical edges lie on the path"
                );
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

    /// The eager π(d) of every instance of `p` under `layering`: the
    /// `critical_edges` of its capture node for a tree layering, its
    /// start/mid/end slots for a line layering.
    fn eager_critical(p: &Problem, strategy: Option<Strategy>) -> Vec<Vec<EdgeId>> {
        let decompositions: Vec<TreeDecomposition> = match strategy {
            Some(s) => p.networks().map(|t| s.build(p.network(t))).collect(),
            None => Vec::new(),
        };
        p.instances()
            .map(|inst| match strategy {
                Some(_) => crate::critical_edges(
                    &decompositions[inst.network.index()],
                    p.rooted(inst.network),
                    inst.path(),
                ),
                None => {
                    let edges = inst.path().edges();
                    let (s, e) = (edges[0].0, edges[edges.len() - 1].0);
                    let mut slots = vec![EdgeId(s.min(e)), EdgeId((s + e) / 2), EdgeId(s.max(e))];
                    slots.dedup();
                    slots
                }
            })
            .collect()
    }

    #[test]
    fn on_demand_critical_edges_equal_the_eager_sets() {
        use treenet_model::workload::LineWorkload;
        let line = LineWorkload::new(60, 40)
            .with_resources(3)
            .with_window_slack(3)
            .with_len_range(1, 15)
            .generate(&mut SmallRng::seed_from_u64(9));
        // |π| grows 1, 2, 3 along the instances, so Δ passes every value
        // below its ceiling before reaching it.
        let mut b = treenet_model::ProblemBuilder::new();
        let t = b.add_network(treenet_graph::Tree::line(12)).unwrap();
        for (u, v) in [(0, 1), (2, 4), (5, 10)] {
            b.add_demand(
                treenet_model::Demand::pair(VertexId(u), VertexId(v), 1.0),
                &[t],
            )
            .unwrap();
        }
        let mut cases: Vec<(Problem, Option<Strategy>)> = vec![
            (line, None),
            (b.build().unwrap(), None),
            (workload_at_ceiling(), Some(Strategy::Ideal)),
        ];
        for strategy in Strategy::ALL {
            for seed in 0..3 {
                cases.push((workload(seed, TreeFamily::Uniform), Some(strategy)));
            }
        }
        let (mut below_ceiling, mut at_ceiling) = (0, 0);
        let mut buf = Vec::new();
        for (p, strategy) in cases {
            let layers = match strategy {
                Some(s) => LayeredDecomposition::for_trees(&p, s),
                None => LayeredDecomposition::for_lines(&p),
            };
            let ceiling = layers.layering().delta_ceiling();
            let eager = eager_critical(&p, strategy);
            let label = format!("{strategy:?}");
            for inst in p.instances() {
                let pi = layers.critical_of(&p, inst.id, &mut buf).to_vec();
                assert_eq!(pi, eager[inst.id.index()], "{label}: π({})", inst.id);
                assert!(pi.len() <= ceiling, "{label}: |π({})| > {ceiling}", inst.id);
                // The group from the path equals the one from the
                // demand's end-points.
                let group = layers.layering().layer(
                    p.rooted(inst.network),
                    inst.network,
                    inst.path(),
                    &mut buf,
                );
                assert_eq!(group, layers.group_of(inst.id), "{label}: group");
            }
            // Δ is the full maximum, whether or not it reached the
            // ceiling.
            let full = eager.iter().map(Vec::len).max().unwrap_or(0);
            assert_eq!(layers.delta(), full, "{label}");
            below_ceiling += usize::from(full < ceiling);
            at_ceiling += usize::from(full == ceiling && strategy.is_some());
            assert!(layers.verify(&p).is_ok(), "{label}");
        }
        assert!(below_ceiling > 0, "no case left Δ below its ceiling");
        assert!(at_ceiling > 0, "no tree case reached its ceiling");
    }

    #[test]
    fn push_instance_matches_batch_layering() {
        use treenet_graph::VertexId;
        use treenet_model::workload::LineWorkload;
        use treenet_model::{Demand, ProblemDelta};
        // Grow a workload by one arrival; pushing the new instances'
        // layers incrementally must agree with re-layering from scratch,
        // for the tree and the line family alike, with Δ already at its
        // ceiling (so the arrivals get their groups alone) and below it
        // (so they derive π).
        let tree = workload_at_ceiling();
        let line = LineWorkload::new(40, 12)
            .with_resources(2)
            .with_window_slack(3)
            .with_len_range(2, 9)
            .generate(&mut SmallRng::seed_from_u64(8));
        let cases = [
            (
                Layering::for_trees(&tree, Strategy::Ideal),
                tree.clone(),
                Demand::pair(VertexId(0), VertexId(47), 2.5),
                true,
            ),
            (
                Layering::for_trees(&tree, Strategy::RootFixing),
                tree,
                Demand::pair(VertexId(0), VertexId(47), 2.5),
                false,
            ),
            (
                Layering::for_lines(&line).unwrap(),
                line,
                Demand::window(5, 30, 6, 2.5),
                true,
            ),
        ];
        let mut buf = Vec::new();
        for (layering, mut p, demand, at_ceiling) in cases {
            let mut layers = LayeredDecomposition::new(&p, layering.clone());
            assert_eq!(layers.len(), p.instance_count());
            assert!(!layers.is_empty());
            assert_eq!(layers.delta() == layering.delta_ceiling(), at_ceiling);
            let effect = p
                .apply_delta(ProblemDelta::Arrival {
                    demand,
                    access: p.networks().collect(),
                })
                .unwrap();
            assert!(!effect.new_instances.is_empty());
            for &d in &effect.new_instances {
                layers.push_instance(&p, d);
            }
            let batch = LayeredDecomposition::new(&p, layering);
            assert_eq!(layers.len(), batch.len());
            let mut batch_buf = Vec::new();
            for inst in p.instances() {
                assert_eq!(layers.group_of(inst.id), batch.group_of(inst.id));
                assert_eq!(
                    layers.critical_of(&p, inst.id, &mut buf),
                    batch.critical_of(&p, inst.id, &mut batch_buf)
                );
            }
            assert_eq!(layers.num_groups(), batch.num_groups());
            assert_eq!(layers.delta(), batch.delta());
            assert!(layers.verify(&p).is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "id order")]
    fn push_instance_refuses_an_id_out_of_order() {
        let p = workload(2, TreeFamily::Uniform);
        let mut layers = LayeredDecomposition::for_trees(&p, Strategy::Ideal);
        layers.push_instance(&p, InstanceId(0));
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
