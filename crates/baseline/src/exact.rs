//! Exact reference solvers for small instances.

use std::fmt;
use treenet_model::{InstanceId, Problem, Solution, EPS};

/// Exact-solver failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExactError {
    /// The branch-and-bound node budget was exhausted before the search
    /// completed — the instance is too large for exact solving.
    BudgetExhausted {
        /// The budget that was exceeded.
        budget: u64,
    },
    /// [`weighted_interval_dp`] preconditions violated.
    NotAnIntervalInstance {
        /// Which precondition failed.
        reason: String,
    },
}

impl fmt::Display for ExactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExactError::BudgetExhausted { budget } => {
                write!(f, "exact search exceeded {budget} nodes")
            }
            ExactError::NotAnIntervalInstance { reason } => {
                write!(f, "not a single-line interval instance: {reason}")
            }
        }
    }
}

impl std::error::Error for ExactError {}

struct Search<'p> {
    problem: &'p Problem,
    /// Demands ordered by decreasing best-instance profit (strong early
    /// bounds).
    order: Vec<u32>,
    /// Suffix sums of the order's profits (admissible optimistic bound).
    suffix: Vec<f64>,
    residual: Vec<Vec<f64>>,
    best_profit: f64,
    best: Vec<InstanceId>,
    current: Vec<InstanceId>,
    nodes: u64,
    budget: u64,
}

impl Search<'_> {
    fn fits(&self, d: InstanceId) -> bool {
        let inst = self.problem.instance(d);
        let h = self.problem.height_of(d);
        self.problem
            .path_edges(d)
            .iter()
            .all(|&e| self.residual[inst.network.index()][e.index()] + EPS >= h)
    }

    fn apply(&mut self, d: InstanceId, sign: f64) {
        let inst = self.problem.instance(d);
        let h = self.problem.height_of(d) * sign;
        for &e in self.problem.path_edges(d) {
            self.residual[inst.network.index()][e.index()] -= h;
        }
    }

    fn dfs(&mut self, pos: usize, profit: f64) -> Result<(), ExactError> {
        self.nodes += 1;
        if self.nodes > self.budget {
            return Err(ExactError::BudgetExhausted {
                budget: self.budget,
            });
        }
        if profit > self.best_profit {
            self.best_profit = profit;
            self.best = self.current.clone();
        }
        if pos == self.order.len() {
            return Ok(());
        }
        // Optimistic bound: everything remaining fits.
        if profit + self.suffix[pos] <= self.best_profit + EPS {
            return Ok(());
        }
        let a = treenet_model::DemandId(self.order[pos]);
        let p = self.problem.demand(a).profit;
        // Branch: schedule one of the demand's instances...
        for &d in self.problem.instances_of(a) {
            if self.fits(d) {
                self.apply(d, 1.0);
                self.current.push(d);
                self.dfs(pos + 1, profit + p)?;
                self.current.pop();
                self.apply(d, -1.0);
            }
        }
        // ...or skip it.
        self.dfs(pos + 1, profit)
    }
}

/// Exact maximum-profit solution by branch-and-bound over demands, with a
/// node budget (default callers use ~10⁷). Exponential in the worst case
/// — intended for the small instances the experiment harness uses to
/// certify approximation ratios against the true optimum.
///
/// # Errors
///
/// [`ExactError::BudgetExhausted`] when the search tree outgrows
/// `budget`.
///
/// # Example
///
/// ```
/// use treenet_model::fixtures::figure1;
/// use treenet_baseline::exact_max_profit;
///
/// let (problem, _) = figure1();
/// let optimal = exact_max_profit(&problem, 1_000_000).unwrap();
/// // Figure 1: the best feasible set is {B, C} with profit 7 + 4.
/// assert_eq!(optimal.profit(&problem), 11.0);
/// ```
pub fn exact_max_profit(problem: &Problem, budget: u64) -> Result<Solution, ExactError> {
    let mut order: Vec<u32> = (0..problem.demand_count() as u32).collect();
    order.sort_by(|&a, &b| {
        let pa = problem.demand(treenet_model::DemandId(a)).profit;
        let pb = problem.demand(treenet_model::DemandId(b)).profit;
        pb.partial_cmp(&pa).expect("profits are finite")
    });
    let mut suffix = vec![0.0f64; order.len() + 1];
    for i in (0..order.len()).rev() {
        suffix[i] = suffix[i + 1] + problem.demand(treenet_model::DemandId(order[i])).profit;
    }
    let mut search = Search {
        problem,
        order,
        suffix,
        residual: problem
            .networks()
            .map(|t| vec![1.0f64; problem.network(t).edge_count()])
            .collect(),
        best_profit: 0.0,
        best: Vec::new(),
        current: Vec::new(),
        nodes: 0,
        budget,
    };
    search.dfs(0, 0.0)?;
    Ok(Solution::new(search.best))
}

/// Exact optimum for the special case of **one line resource, unit
/// heights, one instance per demand** (fixed intervals): the classic
/// weighted interval scheduling DP, `O(k log k)`.
///
/// # Errors
///
/// [`ExactError::NotAnIntervalInstance`] if the problem has several
/// networks, non-unit heights, window demands, or a non-line network.
pub fn weighted_interval_dp(problem: &Problem) -> Result<Solution, ExactError> {
    if problem.network_count() != 1 {
        return Err(ExactError::NotAnIntervalInstance {
            reason: format!("{} networks, need exactly 1", problem.network_count()),
        });
    }
    let t = treenet_model::NetworkId(0);
    if !problem.network(t).is_canonical_line() {
        return Err(ExactError::NotAnIntervalInstance {
            reason: "network is not a canonical line".into(),
        });
    }
    if !problem.is_unit_height() {
        return Err(ExactError::NotAnIntervalInstance {
            reason: "non-unit heights".into(),
        });
    }
    for a in problem.demands() {
        if problem.instances_of(a).len() != 1 {
            return Err(ExactError::NotAnIntervalInstance {
                reason: format!("demand {a} has several instances"),
            });
        }
    }
    // Intervals (start_slot, end_slot inclusive, profit, id), sorted by
    // end.
    let mut intervals: Vec<(u32, u32, f64, InstanceId)> = problem
        .instances()
        .map(|inst| {
            let edges = inst.path().edges();
            let (s, e) = (edges[0].0, edges[edges.len() - 1].0);
            (s, e, problem.profit_of(inst.id), inst.id)
        })
        .collect();
    intervals.sort_by_key(|&(_, e, _, _)| e);
    let k = intervals.len();
    // dp[i] = best profit using the first i intervals; keep take/skip
    // decisions for reconstruction.
    let mut dp = vec![0.0f64; k + 1];
    let mut take = vec![false; k + 1];
    let mut pred = vec![0usize; k + 1];
    for i in 1..=k {
        let (s, _, p, _) = intervals[i - 1];
        // Last interval ending strictly before slot s.
        let mut lo = 0usize;
        let mut hi = i - 1;
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if intervals[mid - 1].1 < s {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        pred[i] = lo;
        let with = dp[lo] + p;
        if with > dp[i - 1] {
            dp[i] = with;
            take[i] = true;
        } else {
            dp[i] = dp[i - 1];
        }
    }
    let mut chosen = Vec::new();
    let mut i = k;
    while i > 0 {
        if take[i] {
            chosen.push(intervals[i - 1].3);
            i = pred[i];
        } else {
            i -= 1;
        }
    }
    Ok(Solution::new(chosen))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treenet_graph::{Tree, VertexId};
    use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
    use treenet_model::{Demand, ProblemBuilder};

    #[test]
    fn figure1_optimum() {
        let (p, _) = treenet_model::fixtures::figure1();
        let opt = exact_max_profit(&p, 100_000).unwrap();
        assert!(opt.verify(&p).is_ok());
        assert_eq!(opt.profit(&p), 11.0); // {B, C}
    }

    #[test]
    fn figure2_optimum_uses_heights() {
        let (p, _) = treenet_model::fixtures::figure2();
        let opt = exact_max_profit(&p, 100_000).unwrap();
        // 0.7+0.3 fit: {⟨1,10⟩ (3.0), ⟨12,13⟩ (1.0)} = 4.0 beats
        // {⟨2,3⟩ (2.0), ⟨12,13⟩ (1.0)} = 3.0.
        assert_eq!(opt.profit(&p), 4.0);
    }

    #[test]
    fn exact_beats_or_equals_every_heuristic() {
        for seed in 0..5u64 {
            let p = TreeWorkload::new(10, 9)
                .with_networks(2)
                .with_heights(HeightMode::Uniform { hmin: 0.3 })
                .generate(&mut SmallRng::seed_from_u64(seed));
            let opt = exact_max_profit(&p, 5_000_000).unwrap();
            assert!(opt.verify(&p).is_ok());
            let ours = treenet_core::solve(
                &p,
                treenet_core::AutoChoice::TreeArbitrary,
                &treenet_core::SolverConfig::default(),
            )
            .unwrap();
            assert!(
                opt.profit(&p) + 1e-9 >= ours.solution.profit(&p),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn budget_exhaustion_reported() {
        let p = TreeWorkload::new(12, 14)
            .with_networks(3)
            .generate(&mut SmallRng::seed_from_u64(1));
        assert!(matches!(
            exact_max_profit(&p, 3),
            Err(ExactError::BudgetExhausted { budget: 3 })
        ));
    }

    #[test]
    fn dp_matches_branch_and_bound() {
        for seed in 0..8u64 {
            let p = LineWorkload::new(30, 12)
                .with_resources(1)
                .with_window_slack(0)
                .with_len_range(1, 8)
                .generate(&mut SmallRng::seed_from_u64(seed));
            let dp = weighted_interval_dp(&p).unwrap();
            let bb = exact_max_profit(&p, 10_000_000).unwrap();
            assert!(dp.verify(&p).is_ok());
            assert!(
                (dp.profit(&p) - bb.profit(&p)).abs() < 1e-9,
                "seed {seed}: dp {} vs bb {}",
                dp.profit(&p),
                bb.profit(&p)
            );
        }
    }

    #[test]
    fn dp_on_touching_intervals() {
        // Intervals [0,2] and [3,5] (slots): disjoint, both schedulable;
        // [0,2] and [2,4] share slot 2: not both.
        let mut b = ProblemBuilder::new();
        let t = b.add_network(Tree::line(7)).unwrap();
        b.add_demand(Demand::pair(VertexId(0), VertexId(3), 2.0), &[t])
            .unwrap();
        b.add_demand(Demand::pair(VertexId(3), VertexId(6), 3.0), &[t])
            .unwrap();
        b.add_demand(Demand::pair(VertexId(2), VertexId(5), 4.0), &[t])
            .unwrap();
        let p = b.build().unwrap();
        let dp = weighted_interval_dp(&p).unwrap();
        // Best: {0,1} = 5.0 > {2} = 4.0.
        assert_eq!(dp.profit(&p), 5.0);
    }

    #[test]
    fn dp_rejects_invalid_shapes() {
        let mut rng = SmallRng::seed_from_u64(2);
        let two = LineWorkload::new(20, 6)
            .with_resources(2)
            .generate(&mut rng);
        assert!(matches!(
            weighted_interval_dp(&two),
            Err(ExactError::NotAnIntervalInstance { .. })
        ));
        let windows = LineWorkload::new(20, 6)
            .with_resources(1)
            .with_window_slack(2)
            .generate(&mut rng);
        assert!(weighted_interval_dp(&windows).is_err());
        let heights = LineWorkload::new(20, 6)
            .with_resources(1)
            .with_heights(HeightMode::Uniform { hmin: 0.3 })
            .generate(&mut rng);
        assert!(weighted_interval_dp(&heights).is_err());
    }

    #[test]
    fn error_display() {
        assert!(ExactError::BudgetExhausted { budget: 7 }
            .to_string()
            .contains("7"));
        let e = ExactError::NotAnIntervalInstance { reason: "x".into() };
        assert!(e.to_string().contains("x"));
    }
}
