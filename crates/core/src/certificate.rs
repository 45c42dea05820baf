//! Machine-checkable optimality certificates.
//!
//! Every scheduler run carries a dual assignment whose scaled objective
//! upper-bounds `p(OPT)` by weak duality (the device behind Lemma 3.1).
//! [`Certificate::audit`] re-derives that argument from scratch against
//! the problem — independent of the solver's own bookkeeping — so a
//! downstream user can trust a run without trusting the run's code path:
//!
//! 1. the solution is feasible;
//! 2. every demand instance is `λ`-satisfied under the recorded duals;
//! 3. the accounting inequality `val(α,β) ≤ cap·p(S)` holds;
//! 4. therefore `p(OPT) ≤ val/λ ≤ (cap/λ)·p(S)`.

use crate::framework::Outcome;
use std::fmt;
use treenet_model::{InstanceId, Problem};

/// The certified approximation ratio `opt_upper_bound / profit` of a
/// schedule with total `profit`, given a proven upper bound on `p(OPT)`.
/// An empty schedule (`profit = 0`; profits are positive otherwise)
/// certifies `1` when the bound is `0` as well and `∞` when it is not.
pub fn certified_ratio(opt_upper_bound: f64, profit: f64) -> f64 {
    if profit > 0.0 {
        opt_upper_bound / profit
    } else if opt_upper_bound == 0.0 {
        1.0
    } else {
        f64::INFINITY
    }
}

/// An audited a-posteriori guarantee for one scheduler run.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// Achieved profit `p(S)`.
    pub profit: f64,
    /// Dual objective `val(α, β)`.
    pub dual_value: f64,
    /// Re-measured slackness λ (min satisfaction over participants).
    pub lambda: f64,
    /// The per-raise objective cap (`Δ+1` or `2Δ²+1`).
    pub objective_cap: f64,
    /// `val/λ ≥ p(OPT)`.
    pub opt_upper_bound: f64,
    /// `opt_upper_bound / profit` — the certified factor.
    pub certified_ratio: f64,
    /// Whether the solution passed feasibility verification.
    pub feasible: bool,
    /// Whether `val ≤ cap·p(S)` held (the Lemma 3.1/6.1 accounting).
    pub accounting_holds: bool,
}

impl Certificate {
    /// Audits `outcome` against `problem`, re-deriving every quantity
    /// from the problem and the dual assignment (`participants` = the
    /// instances the run was responsible for; pass all instances for the
    /// plain solvers).
    pub fn audit(problem: &Problem, outcome: &Outcome, participants: &[InstanceId]) -> Self {
        let profit = outcome.solution.profit(problem);
        let feasible = outcome.solution.verify(problem).is_ok();
        let dual_value = outcome.dual.value();
        let lambda = outcome
            .dual
            .min_satisfaction(problem, participants)
            .clamp(f64::MIN_POSITIVE, 1.0);
        let opt_upper_bound = dual_value / lambda;
        let certified_ratio = certified_ratio(opt_upper_bound, profit);
        let cap = outcome.objective_cap;
        let accounting_holds = dual_value <= cap * profit + 1e-6 * (1.0 + dual_value.abs());
        Certificate {
            profit,
            dual_value,
            lambda,
            objective_cap: cap,
            opt_upper_bound,
            certified_ratio,
            feasible,
            accounting_holds,
        }
    }

    /// Whether the certificate establishes the guarantee: feasible
    /// solution and valid accounting.
    pub fn is_valid(&self) -> bool {
        self.feasible && self.accounting_holds && self.certified_ratio.is_finite()
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "certificate:")?;
        writeln!(f, "  profit p(S)        = {:.4}", self.profit)?;
        writeln!(f, "  dual value val(α,β) = {:.4}", self.dual_value)?;
        writeln!(f, "  slackness λ        = {:.4}", self.lambda)?;
        writeln!(f, "  p(OPT) ≤ val/λ     = {:.4}", self.opt_upper_bound)?;
        writeln!(f, "  certified ratio    = {:.4}", self.certified_ratio)?;
        write!(
            f,
            "  status             = {}",
            if self.is_valid() { "VALID" } else { "INVALID" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve, AutoChoice, SolverConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treenet_model::workload::TreeWorkload;

    #[test]
    fn audits_valid_runs() {
        for seed in 0..5u64 {
            let p = TreeWorkload::new(14, 12)
                .with_networks(2)
                .generate(&mut SmallRng::seed_from_u64(seed));
            let cfg = SolverConfig::default().with_seed(seed);
            let run = solve(&p, AutoChoice::TreeUnit, &cfg).unwrap().run;
            let out = run.halves()[0];
            let all: Vec<InstanceId> = p.instances().map(|d| d.id).collect();
            let cert = Certificate::audit(&p, out, &all);
            assert!(cert.is_valid(), "seed {seed}: {cert}");
            assert!((cert.lambda - out.lambda).abs() < 1e-12);
            assert!((cert.certified_ratio - out.certified_ratio(&p)).abs() < 1e-9);
            assert!(cert.to_string().contains("VALID"));
        }
    }

    #[test]
    fn detects_tampered_solutions() {
        let p = TreeWorkload::new(12, 10)
            .with_networks(1)
            .generate(&mut SmallRng::seed_from_u64(3));
        let run = solve(&p, AutoChoice::TreeUnit, &SolverConfig::default())
            .unwrap()
            .run;
        let mut out = run.halves()[0].clone();
        // Tamper: claim every instance was selected (infeasible on any
        // contended workload).
        out.solution = treenet_model::Solution::new(p.instances().map(|d| d.id).collect());
        let all: Vec<InstanceId> = p.instances().map(|d| d.id).collect();
        let cert = Certificate::audit(&p, &out, &all);
        if out.solution.verify(&p).is_err() {
            assert!(!cert.feasible);
            assert!(!cert.is_valid());
        }
    }

    #[test]
    fn empty_run_is_trivially_valid() {
        let mut b = treenet_model::ProblemBuilder::new();
        b.add_network(treenet_graph::Tree::line(3)).unwrap();
        let p = b.build().unwrap();
        let run = solve(&p, AutoChoice::TreeUnit, &SolverConfig::default())
            .unwrap()
            .run;
        let cert = Certificate::audit(&p, run.halves()[0], &[]);
        assert!(cert.is_valid());
        assert_eq!(cert.certified_ratio, 1.0);
    }
}
