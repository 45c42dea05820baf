//! Dual variables of the LP relaxation (Section 3.1 / Section 6.1).
//!
//! The dual has one variable `α(a)` per demand and one `β(e)` per edge of
//! the global edge set `E = Σ_T edges(T)`. The dual constraint of a demand
//! instance `d` reads
//!
//! * unit height: `α(a_d) + Σ_{e : d∼e} β(e) ≥ p(d)`,
//! * arbitrary height: `α(a_d) + h(d)·Σ_{e : d∼e} β(e) ≥ p(d)`,
//!
//! and `d` is `ξ`-*satisfied* when the LHS reaches `ξ·p(d)`.
//!
//! # Frames
//!
//! A [`DualState`] stores values for a *frame*. [`DualState::new`] frames
//! the whole problem: every demand and every edge, the state the
//! from-scratch reference runner and the baselines raise.
//! [`DualState::for_participants`] frames one run's participants: their
//! demands, the networks they touch (one dense `β` array each) and one
//! LHS cache slot per participant, so building it costs
//! `O(|P| + Σ_{touched T} |E(T)|)` whatever the size of the problem. A
//! run raises only its participants' duals, so every variable outside its
//! frame is zero: the reads ([`DualState::alpha`], [`DualState::beta`],
//! [`DualState::lhs`], [`DualState::value`]) answer for every id of the
//! problem, bit for bit what a whole-problem state would answer.

use treenet_graph::EdgeId;
use treenet_model::{DemandId, InstanceId, NetworkId, Problem};

/// Which LP/raising scheme is in force.
///
/// `Unit` is the Section 3 scheme (heights absent from the dual
/// constraint); `Capacitated` is the Section 6.1 narrow-instance scheme
/// where the `β` sum is scaled by `h(d)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum DualForm {
    /// `α + Σβ ≥ p` — the unit height case.
    Unit,
    /// `α + h·Σβ ≥ p` — the arbitrary height (narrow) case.
    Capacitated,
}

/// The demand or network ids a frame holds variables for.
#[derive(Clone, Debug)]
enum Ids {
    /// Every id of the problem: id `i` lives in slot `i`.
    All,
    /// A strictly ascending subset: an id lives in the slot of its rank.
    Listed(Vec<u32>),
}

impl Ids {
    fn slot(&self, id: u32) -> Option<usize> {
        match self {
            Ids::All => Some(id as usize),
            Ids::Listed(ids) => ids.binary_search(&id).ok(),
        }
    }
}

/// The dual variable assignment `⟨α, β⟩` over a frame (see the module
/// docs), with a per-participant cache of the dual LHS values when the
/// frame is a run's participants.
///
/// The cache exists for the incremental phase-1 engine: instead of
/// re-walking every member's path edges on every step, the engine marks
/// the epoch members a raise touches as *stale* (an `O(1)` flag per cache
/// slot) and recomputes at the next read, at most once per member per
/// step no matter how many raises touched it; other participants are
/// recomputed when they are next read. Refreshing *recomputes* the LHS
/// with the same summation order as [`DualState::lhs`], so cached values
/// are bit-identical to a from-scratch evaluation — the property that
/// keeps the logical and message-passing executions equal. Cache slot `i`
/// holds [`DualState::participants`]`[i]`.
///
/// Every slot holds a *lower bound* on its participant's current LHS:
/// either the `+0.0` fill or an exact LHS from an earlier refresh. Duals
/// only grow, and every float operation of the fixed-order `α + h·Σβ`
/// (and the `/p` of a satisfaction) is monotone, so an LHS computed from
/// smaller duals is never larger. A slot that is fresh and was refreshed
/// since the last raise touching it is exact; the final λ of
/// [`run_two_phase`](crate::run_two_phase) re-walks only the slots whose
/// bound could lower it and flags the rest stale.
#[derive(Clone, Debug)]
pub struct DualState {
    form: DualForm,
    /// Demands with an `α` slot.
    demands: Ids,
    alpha: Vec<f64>,
    /// Networks with a dense `β` array.
    networks: Ids,
    beta: Vec<Vec<f64>>,
    /// The cached participants, ascending; empty for a whole-problem
    /// frame.
    participants: Vec<InstanceId>,
    /// Per cache slot: the `α` slot of its demand and the `β` slot of its
    /// network.
    var_slots: Vec<(u32, u32)>,
    lhs_cache: Vec<f64>,
    /// `stale[i]` means `lhs_cache[i]` may predate a raise that touched
    /// the constraint: it is only a lower bound and must be recomputed
    /// before use. Inside a run, only the current epoch's members are
    /// flagged; after it, every slot the final λ did not re-walk is.
    stale: Vec<bool>,
    /// Whether the problem has a demand and an edge: the dense sums
    /// [`DualState::value`] reproduces start from `+0.0` exactly then.
    has_demands: bool,
    has_edges: bool,
}

impl DualState {
    /// All-zero duals for every demand and every edge of `problem`,
    /// without an LHS cache — the whole-problem frame.
    pub fn new(problem: &Problem, form: DualForm) -> Self {
        DualState {
            form,
            demands: Ids::All,
            alpha: vec![0.0; problem.demand_count()],
            networks: Ids::All,
            beta: problem
                .networks()
                .map(|t| vec![0.0; problem.network(t).edge_count()])
                .collect(),
            participants: Vec::new(),
            var_slots: Vec::new(),
            lhs_cache: Vec::new(),
            stale: Vec::new(),
            has_demands: problem.demand_count() > 0,
            has_edges: problem.vertex_count() > 1,
        }
    }

    /// All-zero duals over the participant frame of a run: an `α` per
    /// participant demand, a dense `β` array per network a participant
    /// uses, and one fresh LHS cache slot per participant, in order.
    ///
    /// Zero duals give every LHS `+0.0` (`α + h·Σβ` over `+0.0` terms),
    /// so the cache starts filled without walking a path.
    ///
    /// # Panics
    ///
    /// Panics unless `participants` is strictly ascending.
    pub fn for_participants(
        problem: &Problem,
        form: DualForm,
        participants: &[InstanceId],
    ) -> Self {
        assert!(
            participants.windows(2).all(|w| w[0] < w[1]),
            "participants must be strictly ascending"
        );
        let mut networks: Vec<u32> = participants
            .iter()
            .map(|&d| problem.instance(d).network.0)
            .collect();
        // A demand's instances often share a network, so dropping repeats
        // first leaves little to sort.
        networks.dedup();
        networks.sort_unstable();
        networks.dedup();
        let mut demands: Vec<u32> = Vec::new();
        let mut var_slots = Vec::with_capacity(participants.len());
        for &d in participants {
            let inst = problem.instance(d);
            // Instance ids are issued demand by demand, so the demands of
            // ascending participants ascend too.
            if demands.last() != Some(&inst.demand.0) {
                debug_assert!(demands.last() < Some(&inst.demand.0));
                demands.push(inst.demand.0);
            }
            let t = networks.partition_point(|&t| t < inst.network.0);
            var_slots.push(((demands.len() - 1) as u32, t as u32));
        }
        DualState {
            form,
            alpha: vec![0.0; demands.len()],
            demands: Ids::Listed(demands),
            beta: networks
                .iter()
                .map(|&t| vec![0.0; problem.network(NetworkId(t)).edge_count()])
                .collect(),
            networks: Ids::Listed(networks),
            participants: participants.to_vec(),
            var_slots,
            lhs_cache: vec![0.0; participants.len()],
            stale: vec![false; participants.len()],
            has_demands: problem.demand_count() > 0,
            has_edges: problem.vertex_count() > 1,
        }
    }

    /// The dual form this state is maintained under.
    pub fn form(&self) -> DualForm {
        self.form
    }

    /// `α(a)`; zero outside the frame.
    #[inline]
    pub fn alpha(&self, a: DemandId) -> f64 {
        self.demands.slot(a.0).map_or(0.0, |s| self.alpha[s])
    }

    /// `β(e)` for edge `e` of network `t`; zero outside the frame.
    #[inline]
    pub fn beta(&self, t: NetworkId, e: EdgeId) -> f64 {
        self.networks
            .slot(t.0)
            .map_or(0.0, |s| self.beta[s][e.index()])
    }

    /// Adds `amount` to `α(a)`.
    ///
    /// # Panics
    ///
    /// Panics if `a` lies outside the frame.
    #[inline]
    pub fn raise_alpha(&mut self, a: DemandId, amount: f64) {
        let s = self.alpha_slot(a);
        self.alpha[s] += amount;
    }

    /// Adds `amount` to `β(e)` of network `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` lies outside the frame.
    #[inline]
    pub fn raise_beta(&mut self, t: NetworkId, e: EdgeId, amount: f64) {
        let s = self.beta_slot(t);
        self.beta[s][e.index()] += amount;
    }

    fn alpha_slot(&self, a: DemandId) -> usize {
        self.demands
            .slot(a.0)
            .unwrap_or_else(|| panic!("demand {a} lies outside the dual's frame"))
    }

    fn beta_slot(&self, t: NetworkId) -> usize {
        self.networks
            .slot(t.0)
            .unwrap_or_else(|| panic!("network {t} lies outside the dual's frame"))
    }

    /// LHS of the dual constraint of instance `d`.
    pub fn lhs(&self, problem: &Problem, d: InstanceId) -> f64 {
        let inst = problem.instance(d);
        let beta = self
            .networks
            .slot(inst.network.0)
            .map(|s| &self.beta[s][..]);
        self.lhs_with(problem, d, self.alpha(inst.demand), beta)
    }

    /// The LHS of `d` from its `α` and its network's `β` array (`None`
    /// outside the frame, where every `β` is zero) — the one summation
    /// order behind every read, cached or not.
    #[inline]
    fn lhs_with(&self, problem: &Problem, d: InstanceId, alpha: f64, beta: Option<&[f64]>) -> f64 {
        let edges = problem.instance(d).path.edges();
        let beta_sum: f64 = match beta {
            Some(beta) => edges.iter().map(|&e| beta[e.index()]).sum(),
            None => edges.iter().map(|_| 0.0).sum(),
        };
        let scale = match self.form {
            DualForm::Unit => 1.0,
            DualForm::Capacitated => problem.height_of(d),
        };
        alpha + scale * beta_sum
    }

    /// Slack `p(d) - LHS(d)` (negative when over-satisfied).
    pub fn slack(&self, problem: &Problem, d: InstanceId) -> f64 {
        problem.profit_of(d) - self.lhs(problem, d)
    }

    /// The satisfaction ratio `LHS(d) / p(d)` — `d` is `ξ`-satisfied when
    /// this reaches `ξ` (Section 3.2).
    pub fn satisfaction(&self, problem: &Problem, d: InstanceId) -> f64 {
        self.lhs(problem, d) / problem.profit_of(d)
    }

    /// The `(α, β)` slots of instance `d`'s demand and network.
    ///
    /// # Panics
    ///
    /// Panics if either lies outside the frame.
    pub(crate) fn var_slots_of(&self, problem: &Problem, d: InstanceId) -> (usize, usize) {
        let inst = problem.instance(d);
        (self.alpha_slot(inst.demand), self.beta_slot(inst.network))
    }

    /// The `(α, β)` slots of cache slot `i`'s demand and network.
    #[inline]
    pub(crate) fn var_slots(&self, i: usize) -> (usize, usize) {
        let (a, t) = self.var_slots[i];
        (a as usize, t as usize)
    }

    /// The LHS of `d` whose demand and network sit in `α` slot `a` and
    /// `β` slot `t`.
    #[inline]
    pub(crate) fn lhs_in(&self, problem: &Problem, d: InstanceId, (a, t): (usize, usize)) -> f64 {
        self.lhs_with(problem, d, self.alpha[a], Some(&self.beta[t]))
    }

    /// Adds `alpha` to `α` slot `a` and `beta` to `β(e)` of `β` slot `t`
    /// for every `e` in `edges`.
    #[inline]
    pub(crate) fn raise_in(
        &mut self,
        (a, t): (usize, usize),
        alpha: f64,
        edges: &[EdgeId],
        beta: f64,
    ) {
        self.alpha[a] += alpha;
        let row = &mut self.beta[t];
        for &e in edges {
            row[e.index()] += beta;
        }
    }

    /// The participants whose LHS values are cached, ascending (empty for
    /// a whole-problem frame); cache slot `i` holds the `i`-th.
    pub fn participants(&self) -> &[InstanceId] {
        &self.participants
    }

    /// The cache slot of participant `d` (`None` when `d` does not
    /// participate).
    pub fn slot(&self, d: InstanceId) -> Option<usize> {
        self.participants.binary_search(&d).ok()
    }

    /// Flags cache slot `i` as stale — `O(1)`, no path walk. Returns
    /// whether it was fresh before.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub(crate) fn mark_stale(&mut self, i: usize) -> bool {
        !std::mem::replace(&mut self.stale[i], true)
    }

    /// Recomputes cache slot `i` if (and only if) it is stale.
    #[inline]
    fn refresh_if_stale(&mut self, problem: &Problem, i: usize) {
        if self.stale[i] {
            self.refresh_cached_lhs(problem, i);
        }
    }

    /// Unconditionally recomputes and stores the LHS in cache slot `i`,
    /// clearing its staleness flag.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn refresh_cached_lhs(&mut self, problem: &Problem, i: usize) {
        self.lhs_cache[i] = self.lhs_in(problem, self.participants[i], self.var_slots(i));
        self.stale[i] = false;
    }

    /// Cache slot `i`'s stored LHS and whether it is flagged stale.
    #[cfg(test)]
    pub(crate) fn cache_entry(&self, i: usize) -> (f64, bool) {
        (self.lhs_cache[i], self.stale[i])
    }

    /// The satisfaction ratio in cache slot `i` — bitwise equal to
    /// [`DualState::satisfaction`] of its participant whenever the slot
    /// is fresh.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range. Debug builds additionally assert the
    /// slot is fresh.
    #[inline]
    pub fn cached_satisfaction(&self, problem: &Problem, i: usize) -> f64 {
        debug_assert!(!self.stale[i], "stale cache read for slot {i}");
        self.lhs_cache[i] / problem.profit_of(self.participants[i])
    }

    /// [`DualState::min_satisfaction`] over the participants, read off the
    /// cache instead of re-walking every path. Refreshes stale slots on
    /// the way (hence `&mut`).
    pub fn min_satisfaction_cached(&mut self, problem: &Problem) -> f64 {
        (0..self.participants.len())
            .map(|i| {
                self.refresh_if_stale(problem, i);
                self.cached_satisfaction(problem, i)
            })
            .fold(1.0f64, f64::min)
    }

    /// The memoized λ of the first phase: [`DualState::min_satisfaction`]
    /// over the participants, bit for bit, given that the `exact` slots
    /// (ascending) are fresh; every other slot is a lower bound (see the
    /// type docs).
    ///
    /// λ starts as the exact minimum over `exact`. Another slot is
    /// re-walked only if its bound is below the running minimum, as
    /// otherwise it cannot lower λ, and is flagged stale if not. All
    /// satisfactions are non-negative and never NaN, so their minimum
    /// does not depend on the order of the fold.
    pub(crate) fn min_satisfaction_bounded(&mut self, problem: &Problem, exact: &[u32]) -> f64 {
        let mut lambda = exact
            .iter()
            .map(|&i| self.cached_satisfaction(problem, i as usize))
            .fold(1.0f64, f64::min);
        let mut exact = exact.iter().peekable();
        for i in 0..self.participants.len() {
            if exact.next_if(|&&x| x as usize == i).is_some() {
                continue;
            }
            let bound = self.lhs_cache[i] / problem.profit_of(self.participants[i]);
            if bound < lambda {
                self.refresh_cached_lhs(problem, i);
                lambda = lambda.min(self.cached_satisfaction(problem, i));
            } else {
                self.stale[i] = true;
            }
        }
        lambda
    }

    /// The dual objective `val(α, β) = Σ_a α(a) + Σ_e β(e)`, summed in
    /// dense order (demands, then networks edge by edge).
    pub fn value(&self) -> f64 {
        // Every variable is a sum of positive raises onto +0.0, so it is
        // never -0.0, and adding +0.0 to a partial sum that is not -0.0
        // changes nothing. The dense sums therefore equal the frame's
        // entries summed from +0.0 — or the empty sum, -0.0, when the
        // dense array has no entry at all.
        let zero = |dense_nonempty: bool| if dense_nonempty { 0.0 } else { -0.0 };
        let a = self
            .alpha
            .iter()
            .fold(zero(self.has_demands), |s, &x| s + x);
        let b = self
            .beta
            .iter()
            .map(|per| per.iter().sum::<f64>())
            .fold(zero(self.has_edges), |s, x| s + x);
        a + b
    }

    /// The minimum satisfaction ratio over `instances` — the *measured*
    /// slackness parameter λ at the end of the first phase. Returns 1.0
    /// for an empty set.
    pub fn min_satisfaction<'a, I>(&self, problem: &Problem, instances: I) -> f64
    where
        I: IntoIterator<Item = &'a InstanceId>,
    {
        instances
            .into_iter()
            .map(|&d| self.satisfaction(problem, d))
            .fold(1.0f64, f64::min)
    }

    /// Scaled dual objective `val(α, β) / λ`: by weak duality (after
    /// scaling into feasibility, Lemma 3.1 proof) this upper-bounds
    /// `p(OPT)` whenever every instance is `λ`-satisfied.
    pub fn opt_upper_bound(&self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "λ must be positive");
        self.value() / lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treenet_graph::{Tree, VertexId};
    use treenet_model::{Demand, ProblemBuilder};

    fn problem() -> Problem {
        let mut b = ProblemBuilder::new();
        let t = b.add_network(Tree::line(5)).unwrap();
        b.add_demand(Demand::pair(VertexId(0), VertexId(2), 4.0), &[t])
            .unwrap();
        b.add_demand(
            Demand::pair(VertexId(1), VertexId(4), 6.0).with_height(0.5),
            &[t],
        )
        .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn zero_initialized() {
        let p = problem();
        let dual = DualState::new(&p, DualForm::Unit);
        assert_eq!(dual.value(), 0.0);
        assert_eq!(dual.lhs(&p, InstanceId(0)), 0.0);
        assert_eq!(dual.slack(&p, InstanceId(0)), 4.0);
        assert_eq!(dual.satisfaction(&p, InstanceId(0)), 0.0);
        assert_eq!(dual.form(), DualForm::Unit);
    }

    #[test]
    fn unit_lhs_sums_alpha_and_path_betas() {
        let p = problem();
        let mut dual = DualState::new(&p, DualForm::Unit);
        dual.raise_alpha(DemandId(0), 1.0);
        dual.raise_beta(NetworkId(0), EdgeId(0), 0.5);
        dual.raise_beta(NetworkId(0), EdgeId(3), 2.0); // off d0's path [0,2)
        assert_eq!(dual.lhs(&p, InstanceId(0)), 1.5);
        assert_eq!(dual.alpha(DemandId(0)), 1.0);
        assert_eq!(dual.beta(NetworkId(0), EdgeId(0)), 0.5);
        assert_eq!(dual.value(), 3.5);
        assert!((dual.satisfaction(&p, InstanceId(0)) - 1.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn capacitated_lhs_scales_beta_by_height() {
        let p = problem();
        let mut dual = DualState::new(&p, DualForm::Capacitated);
        // d1 = demand 1 (height 0.5), path edges 1..3.
        dual.raise_beta(NetworkId(0), EdgeId(1), 2.0);
        dual.raise_beta(NetworkId(0), EdgeId(2), 2.0);
        assert_eq!(dual.lhs(&p, InstanceId(1)), 0.5 * 4.0);
        dual.raise_alpha(DemandId(1), 1.0);
        assert_eq!(dual.lhs(&p, InstanceId(1)), 3.0);
    }

    #[test]
    fn min_satisfaction_and_bound() {
        let p = problem();
        let mut dual = DualState::new(&p, DualForm::Unit);
        dual.raise_alpha(DemandId(0), 4.0); // d0 fully satisfied
        dual.raise_alpha(DemandId(1), 3.0); // d1 half satisfied
        let ids = [InstanceId(0), InstanceId(1)];
        let lam = dual.min_satisfaction(&p, &ids);
        assert!((lam - 0.5).abs() < 1e-12);
        assert!((dual.opt_upper_bound(0.5) - 14.0).abs() < 1e-12);
        // Empty set → 1.0 by convention.
        assert_eq!(dual.min_satisfaction(&p, &[]), 1.0);
    }

    #[test]
    fn cache_tracks_recomputation_bitwise() {
        let p = problem();
        let ids = [InstanceId(0), InstanceId(1)];
        let mut dual = DualState::for_participants(&p, DualForm::Unit, &ids);
        assert_eq!(dual.participants(), &ids);
        for (i, &d) in ids.iter().enumerate() {
            assert_eq!(dual.slot(d), Some(i));
            // The zero-filled cache is what a path walk computes.
            assert_eq!(
                dual.cached_satisfaction(&p, i).to_bits(),
                dual.satisfaction(&p, d).to_bits()
            );
        }
        dual.raise_alpha(DemandId(0), 1.25);
        dual.raise_beta(NetworkId(0), EdgeId(1), 0.375);
        for (i, &d) in ids.iter().enumerate() {
            assert!(dual.mark_stale(i));
            assert!(!dual.mark_stale(i), "already stale");
            dual.refresh_if_stale(&p, i);
            assert!(dual.mark_stale(i), "refreshed");
            // The unconditional refresh recomputes to the same bits.
            dual.refresh_cached_lhs(&p, i);
            assert_eq!(
                dual.cached_satisfaction(&p, i).to_bits(),
                dual.satisfaction(&p, d).to_bits(),
                "{d}"
            );
        }
        assert_eq!(
            dual.min_satisfaction_cached(&p).to_bits(),
            dual.min_satisfaction(&p, &ids).to_bits()
        );
        let mut empty = DualState::for_participants(&p, DualForm::Unit, &[]);
        assert_eq!(empty.min_satisfaction_cached(&p), 1.0);
    }

    #[test]
    fn participant_frame_reads_zero_outside() {
        // Frame = instance 1 only (demand 1, network 0). Reads of
        // demand 0 and of instance 0 fall outside and must match a
        // whole-problem state bit for bit.
        let p = problem();
        let mut framed = DualState::for_participants(&p, DualForm::Capacitated, &[InstanceId(1)]);
        let mut whole = DualState::new(&p, DualForm::Capacitated);
        for dual in [&mut framed, &mut whole] {
            dual.raise_alpha(DemandId(1), 0.75);
            dual.raise_beta(NetworkId(0), EdgeId(2), 1.5);
        }
        assert_eq!(framed.alpha(DemandId(0)), 0.0);
        for d in [InstanceId(0), InstanceId(1)] {
            assert_eq!(framed.lhs(&p, d).to_bits(), whole.lhs(&p, d).to_bits());
        }
        for e in 0..4 {
            let e = EdgeId(e);
            assert_eq!(framed.beta(NetworkId(0), e), whole.beta(NetworkId(0), e));
        }
        assert_eq!(framed.value().to_bits(), whole.value().to_bits());
        // An empty frame sums to the dense +0.0, not the empty sum -0.0.
        let empty = DualState::for_participants(&p, DualForm::Unit, &[]);
        assert_eq!(empty.value().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "outside the dual's frame")]
    fn raising_outside_the_frame_is_refused() {
        let p = problem();
        let mut dual = DualState::for_participants(&p, DualForm::Unit, &[InstanceId(1)]);
        dual.raise_alpha(DemandId(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_participants_are_refused() {
        let p = problem();
        let _ = DualState::for_participants(&p, DualForm::Unit, &[InstanceId(1), InstanceId(0)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lambda_rejected() {
        let p = problem();
        let dual = DualState::new(&p, DualForm::Unit);
        let _ = dual.opt_upper_bound(0.0);
    }
}
