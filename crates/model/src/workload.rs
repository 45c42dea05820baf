//! Random problem generators for tests and the experiment harness.
//!
//! Workloads mirror the paper's parameter space: number of vertices `n`,
//! demands `m`, networks `r`, the profit spread `pmax/pmin`, the minimum
//! height `hmin`, path locality, and (for line-networks) window shapes.

use crate::{Demand, ModelError, Problem, ProblemBuilder};
use rand::Rng;
use treenet_graph::generators::TreeFamily;
use treenet_graph::{Tree, VertexId};

/// How demand heights are drawn.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum HeightMode {
    /// Every demand has height 1 (the paper's unit height case).
    Unit,
    /// Heights uniform in `[hmin, 1]`.
    Uniform {
        /// Lower bound `hmin ∈ (0, 1]`.
        hmin: f64,
    },
    /// A mix: with probability `narrow_frac` a narrow height in
    /// `[hmin, 1/2]`, otherwise a wide height in `(1/2, 1]`.
    Bimodal {
        /// Fraction of narrow demands.
        narrow_frac: f64,
        /// Lower bound for narrow heights.
        hmin: f64,
    },
}

impl HeightMode {
    fn sample<R: Rng>(self, rng: &mut R) -> f64 {
        match self {
            HeightMode::Unit => 1.0,
            HeightMode::Uniform { hmin } => rng.gen_range(hmin..=1.0),
            HeightMode::Bimodal { narrow_frac, hmin } => {
                if rng.gen_bool(narrow_frac) {
                    rng.gen_range(hmin..=0.5)
                } else {
                    rng.gen_range(0.5..=1.0f64).clamp(0.5000001, 1.0)
                }
            }
        }
    }
}

/// Draws a profit log-uniformly in `[1, ratio]` so that `pmax/pmin ≤ ratio`
/// (the quantity the paper's round bounds depend on).
fn sample_profit<R: Rng>(ratio: f64, rng: &mut R) -> f64 {
    debug_assert!(ratio >= 1.0);
    (rng.gen::<f64>() * ratio.ln()).exp()
}

/// Configuration for random tree-network workloads.
#[derive(Clone, Debug)]
pub struct TreeWorkload {
    /// Number of vertices `n` (≥ 2).
    pub n: usize,
    /// Number of demands/processors `m`.
    pub m: usize,
    /// Number of tree-networks `r` (≥ 1).
    pub r: usize,
    /// Shape family for each generated network.
    pub family: TreeFamily,
    /// Probability that a processor can access each network beyond its
    /// first (every processor gets at least one network).
    pub access_prob: f64,
    /// Target profit spread `pmax/pmin` (≥ 1).
    pub profit_ratio: f64,
    /// Height distribution.
    pub heights: HeightMode,
    /// When set, demand end-points are sampled at tree distance at most
    /// this value on network 0 (locality; `None` = uniform pairs).
    pub locality: Option<usize>,
    /// Pod-structured workloads for the huge-scale benches: `p > 0`
    /// generates `p` independent pods of `r` networks each and confines
    /// every demand's access set to its own pod, so the communication
    /// graph splits into ≥ `p` connected components (the unit of
    /// parallelism for the sharded engine). `0` keeps the flat
    /// single-pool sampling, bit-identical to the pre-pod generator.
    pub pods: usize,
}

impl TreeWorkload {
    /// A reasonable default configuration for `n` vertices and `m` demands.
    pub fn new(n: usize, m: usize) -> Self {
        TreeWorkload {
            n,
            m,
            r: 3,
            family: TreeFamily::Uniform,
            access_prob: 0.5,
            profit_ratio: 8.0,
            heights: HeightMode::Unit,
            locality: None,
            pods: 0,
        }
    }

    /// Builder-style setter for the pod count (`0` disables pods).
    #[must_use]
    pub fn with_pods(mut self, pods: usize) -> Self {
        self.pods = pods;
        self
    }

    /// Builder-style setter for the number of networks.
    #[must_use]
    pub fn with_networks(mut self, r: usize) -> Self {
        self.r = r;
        self
    }

    /// Builder-style setter for the tree family.
    #[must_use]
    pub fn with_family(mut self, family: TreeFamily) -> Self {
        self.family = family;
        self
    }

    /// Builder-style setter for the profit spread.
    #[must_use]
    pub fn with_profit_ratio(mut self, ratio: f64) -> Self {
        self.profit_ratio = ratio;
        self
    }

    /// Builder-style setter for the height mode.
    #[must_use]
    pub fn with_heights(mut self, heights: HeightMode) -> Self {
        self.heights = heights;
        self
    }

    /// Generates a problem instance.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (`n < 2`, `r == 0`) or
    /// asks for more networks than a problem holds.
    pub fn generate<R: Rng>(&self, rng: &mut R) -> Problem {
        self.try_generate(rng).expect("generated problem is valid")
    }

    /// [`TreeWorkload::generate`], handing back the builder's refusal of
    /// the configuration instead of panicking.
    ///
    /// # Errors
    ///
    /// [`ModelError::TooFewVertices`] below two vertices,
    /// [`ModelError::NoNetworks`] for zero networks per pod and
    /// [`ModelError::TooManyNetworks`] past 4,096 networks.
    pub fn try_generate<R: Rng>(&self, rng: &mut R) -> Result<Problem, ModelError> {
        if self.n < 2 {
            return Err(ModelError::TooFewVertices { vertices: self.n });
        }
        if self.r == 0 {
            return Err(ModelError::NoNetworks);
        }
        let pods = self.pods.max(1);
        let mut builder = ProblemBuilder::new();
        let mut nets = Vec::with_capacity(pods * self.r);
        for _ in 0..pods * self.r {
            let tree = self.family.generate(self.n, rng);
            nets.push(builder.add_network(tree)?);
        }
        // Locality sampling walks a bounded random path from a start vertex
        // on network 0; the same end-points are used on every accessible
        // network (paths there may be longer, as in the paper's model where
        // networks have different edge sets).
        let first = builder_network_zero_tree(&self.family, self.n, rng);
        for j in 0..self.m {
            let (u, v) = match self.locality {
                None => {
                    let u = rng.gen_range(0..self.n as u32);
                    let mut v = rng.gen_range(0..self.n as u32 - 1);
                    if v >= u {
                        v += 1;
                    }
                    (VertexId(u), VertexId(v))
                }
                Some(radius) => local_pair(&first, radius.max(1), rng),
            };
            let profit = sample_profit(self.profit_ratio, rng);
            let height = self.heights.sample(rng);
            let demand = Demand::pair(u, v, profit).with_height(height);
            // Random non-empty access set, drawn from the demand's pod
            // only (demand j lives in pod j mod pods, so pods stay
            // balanced and the assignment is deterministic).
            let pod = &nets[(j % pods) * self.r..(j % pods) * self.r + self.r];
            let mut access: Vec<_> = pod
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(self.access_prob))
                .collect();
            if access.is_empty() {
                access.push(pod[rng.gen_range(0..pod.len())]);
            }
            builder.add_demand(demand, &access)?;
        }
        builder.build()
    }
}

/// A helper tree used only for locality sampling (shape statistics match
/// network 0's family; exact topology does not need to match).
fn builder_network_zero_tree<R: Rng>(family: &TreeFamily, n: usize, rng: &mut R) -> Tree {
    family.generate(n, rng)
}

/// Samples a pair of distinct vertices at tree distance ≤ `radius` by a
/// random walk.
fn local_pair<R: Rng>(tree: &Tree, radius: usize, rng: &mut R) -> (VertexId, VertexId) {
    let start = VertexId(rng.gen_range(0..tree.len() as u32));
    let mut current = start;
    let mut prev: Option<VertexId> = None;
    let steps = rng.gen_range(1..=radius);
    for _ in 0..steps {
        let neighbors = tree.neighbors(current);
        let candidates: Vec<VertexId> = neighbors
            .iter()
            .map(|&(v, _)| v)
            .filter(|&v| Some(v) != prev)
            .collect();
        let pool = if candidates.is_empty() {
            neighbors.iter().map(|&(v, _)| v).collect::<Vec<_>>()
        } else {
            candidates
        };
        if pool.is_empty() {
            break;
        }
        prev = Some(current);
        current = pool[rng.gen_range(0..pool.len())];
    }
    if current == start {
        // Degenerate walk (n == 1 cannot happen; bounce one step).
        let (v, _) = tree.neighbors(start)[0];
        (start, v)
    } else {
        (start, current)
    }
}

/// Configuration for random line-network workloads (Section 7 setting).
#[derive(Clone, Debug)]
pub struct LineWorkload {
    /// Number of timeslots (the line has `slots + 1` vertices).
    pub slots: usize,
    /// Number of demands/processors `m`.
    pub m: usize,
    /// Number of line resources `r`.
    pub r: usize,
    /// Range of processing times `[lo, hi]` (timeslots).
    pub len_range: (u32, u32),
    /// Extra slack of the window beyond the processing time, in timeslots:
    /// the window length is `ρ + slack` (0 = no windows, fixed intervals).
    pub window_slack: u32,
    /// Probability that a processor can access each resource.
    pub access_prob: f64,
    /// Target profit spread `pmax/pmin`.
    pub profit_ratio: f64,
    /// Height distribution.
    pub heights: HeightMode,
    /// Pod count for huge-scale benches (see [`TreeWorkload::pods`]);
    /// `0` keeps the flat sampling.
    pub pods: usize,
}

impl LineWorkload {
    /// A reasonable default configuration.
    pub fn new(slots: usize, m: usize) -> Self {
        LineWorkload {
            slots,
            m,
            r: 3,
            len_range: (1, (slots / 4).max(1) as u32),
            window_slack: 0,
            access_prob: 0.5,
            profit_ratio: 8.0,
            heights: HeightMode::Unit,
            pods: 0,
        }
    }

    /// Builder-style setter for the pod count (`0` disables pods).
    #[must_use]
    pub fn with_pods(mut self, pods: usize) -> Self {
        self.pods = pods;
        self
    }

    /// Builder-style setter for the number of resources.
    #[must_use]
    pub fn with_resources(mut self, r: usize) -> Self {
        self.r = r;
        self
    }

    /// Builder-style setter for window slack (0 disables windows).
    #[must_use]
    pub fn with_window_slack(mut self, slack: u32) -> Self {
        self.window_slack = slack;
        self
    }

    /// Builder-style setter for the processing-time range.
    #[must_use]
    pub fn with_len_range(mut self, lo: u32, hi: u32) -> Self {
        self.len_range = (lo, hi);
        self
    }

    /// Builder-style setter for the profit spread.
    #[must_use]
    pub fn with_profit_ratio(mut self, ratio: f64) -> Self {
        self.profit_ratio = ratio;
        self
    }

    /// Builder-style setter for the height mode.
    #[must_use]
    pub fn with_heights(mut self, heights: HeightMode) -> Self {
        self.heights = heights;
        self
    }

    /// Generates a problem instance. All resources are canonical lines, so
    /// both pair and window demands are supported.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (`slots == 0`, `r == 0`,
    /// empty length range), or on lines or resources past what a problem
    /// holds.
    pub fn generate<R: Rng>(&self, rng: &mut R) -> Problem {
        self.try_generate(rng).expect("generated problem is valid")
    }

    /// [`LineWorkload::generate`], handing back the builder's refusal of
    /// the configuration instead of panicking.
    ///
    /// # Errors
    ///
    /// [`ModelError::TooFewVertices`] for zero timeslots,
    /// [`ModelError::NoNetworks`] for zero lines per pod,
    /// [`ModelError::TooManyNetworks`] past 4,096 lines, and
    /// [`ModelError::WindowStartOutOfRange`] for a window that could
    /// start at timeslot 2^20 or later.
    ///
    /// # Panics
    ///
    /// Panics on an empty or oversized length range.
    pub fn try_generate<R: Rng>(&self, rng: &mut R) -> Result<Problem, ModelError> {
        if self.slots == 0 {
            return Err(ModelError::TooFewVertices { vertices: 1 });
        }
        if self.r == 0 {
            return Err(ModelError::NoNetworks);
        }
        let (lo, hi) = self.len_range;
        assert!(
            lo >= 1 && lo <= hi && hi as usize <= self.slots,
            "bad length range"
        );
        let pods = self.pods.max(1);
        let mut builder = ProblemBuilder::new();
        let nets = (0..pods * self.r)
            .map(|_| builder.add_network(Tree::line(self.slots + 1)))
            .collect::<Result<Vec<_>, _>>()?;
        for j in 0..self.m {
            let rho = rng.gen_range(lo..=hi);
            let window_len = (rho + self.window_slack).min(self.slots as u32);
            let release = rng.gen_range(0..=(self.slots as u32 - window_len));
            let deadline = release + window_len - 1;
            let profit = sample_profit(self.profit_ratio, rng);
            let height = self.heights.sample(rng);
            let demand = Demand::window(release, deadline, rho, profit).with_height(height);
            let pod = &nets[(j % pods) * self.r..(j % pods) * self.r + self.r];
            let mut access: Vec<_> = pod
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(self.access_prob))
                .collect();
            if access.is_empty() {
                access.push(pod[rng.gen_range(0..pod.len())]);
            }
            builder.add_demand(demand, &access)?;
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn tree_workload_generates_valid_problems() {
        let mut rng = SmallRng::seed_from_u64(1);
        let cfg = TreeWorkload::new(32, 40)
            .with_networks(4)
            .with_profit_ratio(16.0)
            .with_family(TreeFamily::Caterpillar);
        let p = cfg.generate(&mut rng);
        assert_eq!(p.vertex_count(), 32);
        assert_eq!(p.demand_count(), 40);
        assert_eq!(p.network_count(), 4);
        assert!(p.instance_count() >= 40);
        let (pmin, pmax) = p.profit_bounds();
        assert!(pmax / pmin <= 16.0 + 1e-6);
        assert!(p.is_unit_height());
    }

    #[test]
    fn heights_respect_mode() {
        let mut rng = SmallRng::seed_from_u64(2);
        let cfg = TreeWorkload::new(16, 30).with_heights(HeightMode::Uniform { hmin: 0.25 });
        let p = cfg.generate(&mut rng);
        assert!(!p.is_unit_height());
        assert!(p.min_height() >= 0.25);
        let cfg = TreeWorkload::new(16, 30).with_heights(HeightMode::Bimodal {
            narrow_frac: 0.5,
            hmin: 0.1,
        });
        let p = cfg.generate(&mut rng);
        assert!(p.min_height() >= 0.1);
    }

    #[test]
    fn locality_bounds_path_length_on_sampling_tree() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut cfg = TreeWorkload::new(64, 50).with_family(TreeFamily::Path);
        cfg.locality = Some(4);
        cfg.r = 1;
        let p = cfg.generate(&mut rng);
        // On a path family, all networks are the same line, so path length
        // equals walk distance ≤ radius.
        let (_, lmax) = p.length_bounds();
        assert!(lmax <= 4, "lmax = {lmax}");
    }

    #[test]
    fn line_workload_windows() {
        let mut rng = SmallRng::seed_from_u64(4);
        let cfg = LineWorkload::new(40, 25)
            .with_resources(2)
            .with_window_slack(5)
            .with_len_range(2, 6)
            .with_profit_ratio(4.0);
        let p = cfg.generate(&mut rng);
        assert_eq!(p.demand_count(), 25);
        // Window slack 5 yields up to 6 start times per accessible resource.
        assert!(p.instance_count() > 25);
        for inst in p.instances() {
            assert!(inst.start.is_some());
            let len = inst.len() as u32;
            assert!((2..=6).contains(&len));
        }
    }

    #[test]
    fn line_workload_without_windows_is_one_start_per_resource() {
        let mut rng = SmallRng::seed_from_u64(5);
        let cfg = LineWorkload::new(30, 10)
            .with_resources(1)
            .with_window_slack(0);
        let p = cfg.generate(&mut rng);
        assert_eq!(p.instance_count(), 10);
    }

    #[test]
    fn pods_confine_access_and_split_the_communication_graph() {
        let mut rng = SmallRng::seed_from_u64(6);
        let pods = 5;
        let cfg = TreeWorkload::new(8, 30).with_networks(2).with_pods(pods);
        let p = cfg.generate(&mut rng);
        assert_eq!(p.network_count(), pods * 2);
        // Demand j lives in pod j mod pods: access never leaves the pod.
        for (j, d) in p.demands().enumerate() {
            for t in p.access(d) {
                assert_eq!(t.index() / 2, j % pods, "demand {j} escaped its pod");
            }
        }
        // Processors in different pods share no network, so the
        // communication graph has at least one component per pod.
        let adj = p.communication_graph();
        for (a, list) in adj.iter().enumerate() {
            for b in list {
                assert_eq!(a % pods, b.index() % pods);
            }
        }
        // pods = 0 and pods = 1 draw identical RNG streams.
        let flat = TreeWorkload::new(8, 30).with_networks(2);
        let one = flat.clone().with_pods(1);
        let pa = flat.generate(&mut SmallRng::seed_from_u64(7));
        let pb = one.generate(&mut SmallRng::seed_from_u64(7));
        assert_eq!(pa.instance_count(), pb.instance_count());
        assert_eq!(pa.profit_bounds(), pb.profit_bounds());

        let line = LineWorkload::new(20, 12).with_resources(2).with_pods(3);
        let p = line.generate(&mut SmallRng::seed_from_u64(8));
        assert_eq!(p.network_count(), 6);
        for (j, d) in p.demands().enumerate() {
            for t in p.access(d) {
                assert_eq!(t.index() / 2, j % 3);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = TreeWorkload::new(20, 15);
        let a = cfg.generate(&mut SmallRng::seed_from_u64(9));
        let b = cfg.generate(&mut SmallRng::seed_from_u64(9));
        assert_eq!(a.instance_count(), b.instance_count());
        assert_eq!(a.profit_bounds(), b.profit_bounds());
    }

    #[test]
    fn degenerate_sizes_are_refused() {
        let rng = &mut SmallRng::seed_from_u64(10);
        for n in [0, 1] {
            assert_eq!(
                TreeWorkload::new(n, 4).try_generate(rng).unwrap_err(),
                ModelError::TooFewVertices { vertices: n }
            );
        }
        assert_eq!(
            TreeWorkload::new(8, 4)
                .with_networks(0)
                .try_generate(rng)
                .unwrap_err(),
            ModelError::NoNetworks
        );
        assert_eq!(
            LineWorkload::new(0, 4)
                .with_len_range(1, 1)
                .try_generate(rng)
                .unwrap_err(),
            ModelError::TooFewVertices { vertices: 1 }
        );
        assert_eq!(
            LineWorkload::new(8, 4)
                .with_resources(0)
                .try_generate(rng)
                .unwrap_err(),
            ModelError::NoNetworks
        );
        assert!(ModelError::TooFewVertices { vertices: 1 }
            .to_string()
            .contains("at least 2 vertices"));
        // The smallest sizes still generate.
        assert_eq!(TreeWorkload::new(2, 3).generate(rng).vertex_count(), 2);
        let line = LineWorkload::new(1, 3).with_len_range(1, 1).generate(rng);
        assert_eq!(line.vertex_count(), 2);
    }
}
