//! The online scheduling engine: warm-started re-solve under
//! arrival/departure deltas.
//!
//! # How the warm start works
//!
//! The two-phase framework factorizes over **conflict components**:
//! running [`run_two_phase`] with the participant set restricted to one
//! component of the conflict graph produces bit-identical duals, λ
//! contribution and selections to the same component inside a global run.
//! The mechanics behind that guarantee:
//!
//! * MIS joins are neighbor-local, and the per-stage step counter resets,
//!   so `mis_tag(epoch, stage, step)` values line up across runs — a
//!   component that finishes a stage early simply contributes no active
//!   members while another component keeps stepping;
//! * every dual variable is touched by exactly one component (`α` by the
//!   demand's own component, `β(e)` by the instances sharing edge `e`,
//!   which by definition conflict);
//! * the phase-2 stack pops preserve per-component relative order, and
//!   [`Solution::new`] sorts, so the union of per-component selections is
//!   the global selection;
//! * λ is a `min`-fold seeded at `1.0` over non-negative satisfactions,
//!   so min-of-component-λs is bitwise equal to the global fold.
//!
//! Moreover the factorization tolerates **conflict-closed supersets**: a
//! merged blob of several true components still solves bit-identically
//! (each true component inside it is independent). That means components
//! may only ever *grow* — an arrival unions, a departure never splits —
//! which is exactly what a union-find maintains cheaply.
//!
//! # The theorem
//!
//! The engine runs one of the paper's four theorems, fixed at
//! construction ([`DeltaEngine::choice`]) and executed through
//! [`AutoChoice::layering`] and [`AutoChoice::halves`] — the same map
//! [`solve`](crate::solve) runs:
//!
//! * **Layering.** Networks are fixed at construction. When every network
//!   is a canonical line the engine layers arrivals by *length class*
//!   against the public minimum length [`DeltaEngine::lmin`]; otherwise
//!   it retains the per-network ideal tree decompositions and layers
//!   arrivals against them.
//! * **Halves.** An a-priori `hmin` ([`SolverConfig::hmin`]) selects the
//!   arbitrary-height theorem (Section 6): each component caches one
//!   solve per half — the unit rule over its wide instances (`h > 1/2`)
//!   and the narrow rule over its narrow ones — and the global schedule
//!   is the per-network combination ([`combine_by_network`]) of the two
//!   assembled half solutions. Without `hmin` the engine runs the
//!   unit-height theorem, one half over every instance, and rejects
//!   non-unit heights. The factorization argument applies per half: two
//!   same-class instances that conflict share an edge, so a union-find
//!   component over *all* demands is a conflict-closed superset within
//!   each class, and the per-half unions/min-folds are bitwise equal to
//!   the global half runs.
//! * **Stage factors.** The halves' `ξ` come from the a-priori `Δ`
//!   bound of the layering ([`LINE_DELTA_BOUND`] or
//!   [`IDEAL_DELTA_BOUND`]), never from the measured `Δ`: arrivals change
//!   the measured `Δ`, and a `ξ` that followed it would put warm and cold
//!   solves on different stage schedules.
//!
//! [`DeltaEngine`] exploits the factorization: it keeps a union-find
//! over demands, a per-component cache of `(λ, selected)` per half, and
//! a dirty set. The union-find is fed by one anchor per network edge, so
//! an arrival unions in O(|path|). A delta invalidates only the touched
//! component; [`DeltaEngine::resolve`] re-runs the two-phase engine over
//! dirty components only and reuses every clean component's cached
//! result. The from-scratch oracle [`DeltaEngine::reference_solve`]
//! re-solves everything with [`run_two_phase_reference`] and must agree
//! bit-for-bit after **any** delta sequence — the invariant the proptest
//! oracles and `treenet-serve`'s `check` op enforce.
//!
//! # Cost of a warm write
//!
//! Every step of a write is local to the touched component:
//!
//! * [`run_two_phase`] works in its participants' frame, so a component's
//!   run costs what its instances, their paths and their networks' edges
//!   cost, never what the problem costs;
//! * the global assembly is kept incrementally, in step with the cache:
//!   per half, an ordered multiset of the component λs (its first key is
//!   the global min-fold, bitwise) and the union of the selections ordered
//!   by `(network, instance)`. A wide/narrow split re-decides the
//!   per-network combination ([`combine_by_network`]) only on networks
//!   whose selection changed, and [`Problem`] counts its live instances,
//!   so [`DeltaEngine::resolve`] reports λ, the schedule's size and the
//!   live count without assembling the schedule.
//!   [`DeltaEngine::solution`] assembles it on demand.
//!
//! The bootstrap resolve is the sum of the components' local runs.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::framework::{
    run_two_phase, run_two_phase_reference, validate_epsilon, FrameworkConfig, FrameworkError,
    RaiseRule,
};
use crate::solvers::{
    all_canonical_lines, combine_by_network, combine_decision, framework_config, AutoChoice,
    SolverConfig,
};
use treenet_decomp::{LayeredDecomposition, Strategy};
use treenet_graph::{EdgeId, UnionFind};
use treenet_model::{
    DeltaEffect, Demand, DemandId, DemandKind, HeightClass, InstanceId, ModelError, NetworkId,
    Problem, ProblemDelta, Solution, EPS,
};

/// The a-priori critical-set bound of the ideal tree decomposition
/// (Lemma 4.3): `Δ ≤ 6` for every tree, hence a fixed stage factor
/// `ξ = 14/15` that cannot drift as arrivals change the measured `Δ`.
pub const IDEAL_DELTA_BOUND: usize = 6;

/// The a-priori critical-set bound of the line length-class decomposition
/// (Section 7): every instance has at most 3 critical slots
/// (start/mid/end), hence a fixed unit-rule stage factor `ξ = 8/9`.
pub const LINE_DELTA_BOUND: usize = 3;

/// Error raised by [`DeltaEngine`] construction or delta admission.
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaEngineError {
    /// The underlying model rejected the delta (see [`ModelError`]).
    Model(ModelError),
    /// The configuration fails the check [`solve`](crate::solve) applies
    /// to it: `ε` outside `(0, 1)`, or an a-priori `hmin` outside
    /// `(0, 1]`.
    Framework(FrameworkError),
    /// Without an a-priori `hmin` the engine runs the unit-height rule
    /// with a fixed `ξ`; a non-unit height demand cannot be admitted
    /// online (configure [`SolverConfig::with_hmin`] to serve arbitrary
    /// heights).
    NonUnitHeight {
        /// The offending height.
        height: f64,
    },
    /// A narrow demand's height undercuts the engine's a-priori `hmin`
    /// (Section 6's fixed-floor assumption).
    HeightBelowFloor {
        /// The offending height.
        height: f64,
        /// The a-priori floor fixed at construction.
        hmin: f64,
    },
    /// A line-family arrival is shorter than the public `Lmin` the
    /// length-class layering is keyed on — admitting it would break the
    /// layered property for every already-layered instance.
    InstanceTooShort {
        /// The arrival's instance length (timeslots).
        len: usize,
        /// The engine's public minimum length.
        lmin: f64,
    },
}

impl fmt::Display for DeltaEngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaEngineError::Model(e) => write!(f, "{e}"),
            DeltaEngineError::Framework(e) => write!(f, "{e}"),
            DeltaEngineError::NonUnitHeight { height } => write!(
                f,
                "online admission requires unit height, got {height} \
                 (fix an a-priori hmin to serve arbitrary heights)"
            ),
            DeltaEngineError::HeightBelowFloor { height, hmin } => write!(
                f,
                "height {height} undercuts the a-priori hmin = {hmin} \
                 fixed at engine construction"
            ),
            DeltaEngineError::InstanceTooShort { len, lmin } => write!(
                f,
                "instance length {len} undercuts the public Lmin = {lmin} \
                 the line length-class layering is keyed on"
            ),
        }
    }
}

impl std::error::Error for DeltaEngineError {}

impl From<ModelError> for DeltaEngineError {
    fn from(e: ModelError) -> Self {
        DeltaEngineError::Model(e)
    }
}

/// One half of the engine's theorem, as [`AutoChoice::halves`] maps it:
/// the participating height class (`None`: every instance), the raise
/// rule, and the framework configuration at the half's a-priori `ξ`.
#[derive(Clone, Debug)]
struct EngineHalf {
    class: Option<HeightClass>,
    rule: RaiseRule,
    config: FrameworkConfig,
}

impl EngineHalf {
    /// The members of `instances` in this half's height class, in order.
    fn participants(&self, problem: &Problem, instances: &[InstanceId]) -> Vec<InstanceId> {
        instances
            .iter()
            .copied()
            .filter(|&d| {
                self.class
                    .is_none_or(|c| problem.demand(problem.instance(d).demand).height_class() == c)
            })
            .collect()
    }
}

/// The cached result of one conflict component's run of one half.
#[derive(Clone, Debug)]
struct ComponentSolve {
    /// The component's λ: min satisfaction over its participants.
    lambda: f64,
    /// The component's selected instances (sorted, as extracted).
    selected: Vec<InstanceId>,
}

/// One half's share of the global assembly: what the cached components
/// of that half add up to.
#[derive(Clone, Debug, Default)]
struct HalfAssembly {
    /// The multiset of cached component λs, keyed by their bits. λs are
    /// non-negative, and non-negative floats order like their bits, so
    /// the first key is the min-fold of the multiset.
    lambdas: BTreeMap<u64, usize>,
    /// The union of the cached selections, ordered by network, then
    /// instance.
    selected: BTreeSet<(NetworkId, InstanceId)>,
}

impl HalfAssembly {
    /// The profit and the number of this half's selected instances on
    /// network `t`; the profit sums in ascending instance order, as
    /// [`combine_by_network`] sums it.
    fn on_network(&self, problem: &Problem, t: NetworkId) -> (f64, usize) {
        let range = (t, InstanceId(0))..=(t, InstanceId(u32::MAX));
        self.selected
            .range(range)
            .fold((0.0, 0), |(profit, count), &(_, d)| {
                (profit + problem.profit_of(d), count + 1)
            })
    }
}

/// The global schedule's λ and size over the cached component solves,
/// kept in step with the cache so that a resolve touches only what its
/// dirty components touch.
#[derive(Clone, Debug)]
struct Assembly {
    /// One per half, in [`AutoChoice::halves`] order.
    halves: Vec<HalfAssembly>,
    /// Wide/narrow split only: per network, how many instances the
    /// per-network combination keeps there (absent: none).
    kept: BTreeMap<NetworkId, usize>,
    /// Wide/narrow split only: networks whose selection changed since
    /// `kept` was last brought up to date.
    changed: BTreeSet<NetworkId>,
    /// Wide/narrow split only: the sum of `kept`.
    combined: usize,
}

impl Assembly {
    fn new(halves: usize) -> Self {
        Assembly {
            halves: vec![HalfAssembly::default(); halves],
            kept: BTreeMap::new(),
            changed: BTreeSet::new(),
            combined: 0,
        }
    }

    /// Adds (`add`) or removes one component's solves, one per half.
    fn update(&mut self, problem: &Problem, solves: &[ComponentSolve], add: bool) {
        let split = self.halves.len() == 2;
        for (half, solve) in self.halves.iter_mut().zip(solves) {
            let bits = solve.lambda.to_bits();
            if add {
                *half.lambdas.entry(bits).or_default() += 1;
            } else if let Some(count) = half.lambdas.get_mut(&bits) {
                *count -= 1;
                if *count == 0 {
                    half.lambdas.remove(&bits);
                }
            }
            for &d in &solve.selected {
                let key = (problem.instance(d).network, d);
                if add {
                    half.selected.insert(key);
                } else {
                    half.selected.remove(&key);
                }
                if split {
                    self.changed.insert(key.0);
                }
            }
        }
    }

    /// The global λ: the min-fold, seeded at `1.0`, of every half's
    /// smallest component λ.
    fn lambda(&self) -> f64 {
        self.halves
            .iter()
            .filter_map(|half| half.lambdas.keys().next())
            .map(|&bits| f64::from_bits(bits))
            .fold(1.0f64, f64::min)
    }

    /// The size of the assembled schedule: a single half's selection, or
    /// what [`combine_by_network`] keeps of a split, re-deciding only the
    /// networks whose selection changed.
    fn selected(&mut self, problem: &Problem) -> usize {
        let [wide, narrow] = &self.halves[..] else {
            return self.halves[0].selected.len();
        };
        for t in std::mem::take(&mut self.changed) {
            let (wide_profit, wide_count) = wide.on_network(problem, t);
            let (narrow_profit, narrow_count) = narrow.on_network(problem, t);
            let keep = if combine_decision(wide_profit, narrow_profit) {
                wide_count
            } else {
                narrow_count
            };
            let old = if keep == 0 {
                self.kept.remove(&t)
            } else {
                self.kept.insert(t, keep)
            };
            self.combined = self.combined - old.unwrap_or(0) + keep;
        }
        self.combined
    }

    /// Per half, the sorted union of the cached selections.
    fn unions(&self) -> Vec<Solution> {
        self.halves
            .iter()
            .map(|half| Solution::new(half.selected.iter().map(|&(_, d)| d).collect()))
            .collect()
    }
}

/// One anchor per network edge, flat over all networks: some demand
/// with an instance on that edge, or [`EdgeAnchors::NONE`] until one
/// uses it. Every instance, at bootstrap and on arrival, is unioned with
/// the anchor of each edge on its path, and components never split, so
/// the components are exactly the conflict components.
#[derive(Clone, Debug)]
struct EdgeAnchors {
    /// Where network `t`'s edges start in `anchors`.
    offsets: Vec<usize>,
    /// The anchor demand of every edge, network by network.
    anchors: Vec<u32>,
}

impl EdgeAnchors {
    /// The anchor of an edge no demand has used yet.
    const NONE: u32 = u32::MAX;

    fn new(problem: &Problem) -> Self {
        let mut offsets = Vec::with_capacity(problem.network_count());
        let mut edges = 0;
        for t in problem.networks() {
            offsets.push(edges);
            edges += problem.network(t).edge_count();
        }
        EdgeAnchors {
            offsets,
            anchors: vec![Self::NONE; edges],
        }
    }

    /// The anchor of edge `e` of network `t`; `demand` becomes it if the
    /// edge has none yet.
    fn anchor(&mut self, t: NetworkId, e: EdgeId, demand: u32) -> u32 {
        let slot = &mut self.anchors[self.offsets[t.index()] + e.index()];
        if *slot == Self::NONE {
            *slot = demand;
        }
        *slot
    }
}

/// Cumulative counters of an engine's lifetime, for the serve `stats` op
/// and the throughput bench.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaEngineStats {
    /// Deltas successfully applied.
    pub deltas_applied: u64,
    /// [`DeltaEngine::resolve`] calls.
    pub resolves: u64,
    /// Components re-solved across all resolves (the warm-start win is
    /// this staying near `resolves`, not near `resolves × components`).
    pub components_resolved: u64,
    /// Participant instances across all component re-solves.
    pub instances_resolved: u64,
}

/// What a [`DeltaEngine::resolve`] call produced: the global λ and the
/// size of the global schedule, plus how much work the warm start
/// actually did. [`DeltaEngine::solution`] assembles the schedule itself.
#[derive(Clone, Debug)]
pub struct ResolveOutcome {
    /// Measured slackness λ over all live instances (min of component λs;
    /// `1.0` when nothing is live).
    pub lambda: f64,
    /// The number of instances the global schedule selects (the union of
    /// component selections; for a wide/narrow split, what the
    /// per-network combination of the two halves keeps).
    pub selected: usize,
    /// Components re-solved by this call (dirty ones only).
    pub components_resolved: usize,
    /// Participant instances of the re-solved components.
    pub instances_resolved: usize,
    /// Live instances overall — the size a cold solve would have paid.
    pub live_instances: usize,
}

/// The from-scratch oracle's result: what [`DeltaEngine::reference_solve`]
/// computed cold. After any delta sequence and a
/// [`DeltaEngine::resolve`], the warm
/// [`DeltaEngine::lambda`]/[`DeltaEngine::solution`] must equal these
/// bit-for-bit.
#[derive(Clone, Debug)]
pub struct ReferenceSolve {
    /// The reference λ (for a wide/narrow split, the min of the two half
    /// run λs).
    pub lambda: f64,
    /// The reference schedule (for a wide/narrow split, the per-network
    /// combination of the two half solutions).
    pub solution: Solution,
}

/// The online scheduling engine (the module-level docs above lay out
/// the component-factorization argument it rests on).
///
/// Workflow: [`DeltaEngine::new`] over an initial (possibly empty)
/// problem, then interleave [`DeltaEngine::apply`] and
/// [`DeltaEngine::resolve`] freely; [`DeltaEngine::reference_solve`]
/// re-solves from scratch and must match bit-for-bit at any point.
#[derive(Clone, Debug)]
pub struct DeltaEngine {
    problem: Problem,
    /// Owns the layering, fixed at construction, so arrivals are layered
    /// against the same decompositions (or the same `Lmin`) as the
    /// initial batch.
    layers: LayeredDecomposition,
    choice: AutoChoice,
    /// The a-priori narrow height floor every admission checks.
    hmin: Option<f64>,
    /// The theorem's halves, in [`AutoChoice::halves`] order.
    halves: Vec<EngineHalf>,
    /// Conflict components over demands: merged on arrival, never split.
    comps: UnionFind,
    /// The demand each network edge's users are unioned with.
    anchors: EdgeAnchors,
    /// Component root → member demands (live and departed).
    comp_demands: BTreeMap<u32, Vec<u32>>,
    /// Component root → cached solve of its live participants, one per
    /// half.
    cache: BTreeMap<u32, Vec<ComponentSolve>>,
    /// What the cached solves add up to, kept in step with `cache`.
    assembly: Assembly,
    /// Demand keys touched since the last resolve (mapped to their
    /// *current* roots lazily, since later unions can re-root them).
    dirty: BTreeSet<u32>,
    stats: DeltaEngineStats,
}

/// Admission check for a demand: the theorem's height constraint (unit
/// heights, or heights at least the a-priori `hmin`) and the line
/// layering's public `Lmin`, before any state changes.
fn admit(hmin: Option<f64>, lmin: Option<f64>, demand: &Demand) -> Result<(), DeltaEngineError> {
    match hmin {
        None => {
            if !demand.is_unit_height() {
                return Err(DeltaEngineError::NonUnitHeight {
                    height: demand.height,
                });
            }
        }
        Some(hmin) => {
            if demand.height_class() == HeightClass::Narrow && demand.height < hmin - EPS {
                return Err(DeltaEngineError::HeightBelowFloor {
                    height: demand.height,
                    hmin,
                });
            }
        }
    }
    if let Some(lmin) = lmin {
        // The instance length is known before materialization: a pair
        // on a canonical line spans |u - v| slots, a window instance
        // always spans its processing time. Degenerate (zero-length)
        // demands fall through to the model's own rejection.
        let len = match demand.kind {
            DemandKind::Pair { u, v } => u.0.abs_diff(v.0) as usize,
            DemandKind::Window { processing, .. } => processing as usize,
        };
        if len >= 1 && (len as f64) < lmin {
            return Err(DeltaEngineError::InstanceTooShort { len, lmin });
        }
    }
    Ok(())
}

impl DeltaEngine {
    /// Builds the engine over an initial problem.
    ///
    /// The theorem ([`DeltaEngine::choice`]) is derived from the inputs:
    /// the line theorems when every network is a canonical line, else the
    /// tree theorems on [`Strategy::Ideal`] decompositions; the
    /// arbitrary-height theorem when `config` fixes an a-priori `hmin`,
    /// else the unit-height one. The halves' stage factors use the
    /// a-priori `Δ` bound, never the measured `Δ` (see the module docs).
    /// Of `config`, the engine honors `epsilon`, `seed`, `mis_backend`
    /// and `hmin`.
    ///
    /// Checks run in this order: `ε`, then the admission check of
    /// [`DeltaEngine::apply`] over every initial demand, then the
    /// theorem's halves (which check `hmin`).
    ///
    /// # Errors
    ///
    /// [`DeltaEngineError::Framework`] for an `ε` outside `(0, 1)` or an
    /// `hmin` outside `(0, 1]` — the error [`solve`](crate::solve)
    /// returns for the same config;
    /// [`DeltaEngineError::NonUnitHeight`] if no `hmin` is fixed and some
    /// initial demand has non-unit height;
    /// [`DeltaEngineError::HeightBelowFloor`] for an initial demand under
    /// the fixed `hmin`.
    pub fn new(problem: Problem, config: &SolverConfig) -> Result<DeltaEngine, DeltaEngineError> {
        let bad = |reason| DeltaEngineError::Framework(FrameworkError::BadParameters { reason });
        let lines = all_canonical_lines(&problem);
        let choice = AutoChoice::of(lines, config.hmin.is_some());
        validate_epsilon(config.epsilon).map_err(bad)?;
        let layering = choice.layering(&problem, Strategy::Ideal).map_err(bad)?;
        for a in problem.demands() {
            admit(config.hmin, layering.lmin(), problem.demand(a))?;
        }
        let delta_bound = if lines {
            LINE_DELTA_BOUND
        } else {
            IDEAL_DELTA_BOUND
        };
        let halves: Vec<EngineHalf> = choice
            .halves(&problem, delta_bound, config.hmin)
            .map_err(bad)?
            .into_iter()
            .map(|half| EngineHalf {
                class: half.class,
                rule: half.rule,
                config: FrameworkConfig {
                    record_trace: false,
                    ..framework_config(config, half.xi)
                },
            })
            .collect();
        let layers = LayeredDecomposition::new(&problem, layering);

        let assembly = Assembly::new(halves.len());
        let mut comps = UnionFind::new(problem.demand_count());
        // Demands conflict iff some pair of their instances shares an
        // edge; unioning every instance with its edges' anchors links
        // exactly the conflicting demands, in O(Σ path lengths).
        let mut anchors = EdgeAnchors::new(&problem);
        for inst in problem.instances() {
            let a = inst.demand.0;
            for &e in problem.path_edges(inst.id) {
                comps.union(anchors.anchor(inst.network, e, a), a);
            }
        }
        let mut comp_demands: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        let mut dirty = BTreeSet::new();
        for a in problem.demands() {
            comp_demands.entry(comps.find(a.0)).or_default().push(a.0);
            dirty.insert(a.0);
        }

        Ok(DeltaEngine {
            problem,
            layers,
            choice,
            hmin: config.hmin,
            halves,
            comps,
            anchors,
            comp_demands,
            cache: BTreeMap::new(),
            assembly,
            dirty,
            stats: DeltaEngineStats::default(),
        })
    }

    /// The current problem (append-only; departed demands tombstoned).
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The theorem the engine runs, fixed at construction.
    pub fn choice(&self) -> AutoChoice {
        self.choice
    }

    /// The public minimum instance length `Lmin` the line length-class
    /// layering is keyed on (`None` for the tree theorems). Fixed at
    /// construction; arrivals shorter than this are rejected.
    pub fn lmin(&self) -> Option<f64> {
        self.layers.layering().lmin()
    }

    /// The a-priori narrow height floor (`None` for the unit-height
    /// theorems).
    pub fn hmin(&self) -> Option<f64> {
        self.hmin
    }

    /// Lifetime counters.
    pub fn stats(&self) -> DeltaEngineStats {
        self.stats
    }

    /// Number of conflict components currently tracked (over-merged
    /// components from departures count as one).
    pub fn component_count(&self) -> usize {
        self.comp_demands.len()
    }

    /// Applies one delta, invalidating exactly the touched component.
    ///
    /// An arrival unions the new demand with the anchor of every edge its
    /// instances use (so with every demand it conflicts with, in
    /// O(|path|) per instance) and layers its new instances
    /// incrementally (tree theorems: against the retained decompositions;
    /// line theorems: against the public `Lmin`); a departure only
    /// tombstones and marks dirty. The re-solve itself is deferred to
    /// [`DeltaEngine::resolve`].
    ///
    /// # Errors
    ///
    /// [`DeltaEngineError::NonUnitHeight`] for non-unit arrivals under a
    /// unit-height theorem, [`DeltaEngineError::HeightBelowFloor`] for
    /// arrivals under the a-priori `hmin`,
    /// [`DeltaEngineError::InstanceTooShort`] for line arrivals under
    /// `Lmin`, else whatever the model layer rejects ([`ModelError`]). A
    /// rejected delta leaves the engine unchanged.
    pub fn apply(&mut self, delta: ProblemDelta) -> Result<DeltaEffect, DeltaEngineError> {
        if let ProblemDelta::Arrival { demand, .. } = &delta {
            admit(self.hmin, self.lmin(), demand)?;
        }
        let arrival = matches!(delta, ProblemDelta::Arrival { .. });
        let effect = self.problem.apply_delta(delta)?;
        self.stats.deltas_applied += 1;
        if arrival {
            let key = self.comps.make_set();
            debug_assert_eq!(key as usize, effect.demand.index());
            self.comp_demands.insert(key, vec![key]);

            // Layer the new instances exactly as a from-scratch layering
            // of the grown problem would.
            for &d in &effect.new_instances {
                self.layers.push_instance(&self.problem, d);
            }

            // Union with the anchor of every edge on the new paths: every
            // earlier user of an edge is already in its anchor's component.
            // Each anchor's root is recorded *before* its union so the
            // final root is always among `old_roots`.
            let mut old_roots: BTreeSet<u32> = BTreeSet::new();
            old_roots.insert(self.comps.find(key));
            for &d in &effect.new_instances {
                let network = self.problem.instance(d).network;
                for &e in self.problem.path_edges(d) {
                    let anchor = self.anchors.anchor(network, e, key);
                    old_roots.insert(self.comps.find(anchor));
                    self.comps.union(key, anchor);
                }
            }
            let root = self.comps.find(key);
            let mut members = Vec::new();
            for r in old_roots {
                self.evict(r);
                if let Some(mut list) = self.comp_demands.remove(&r) {
                    members.append(&mut list);
                }
            }
            members.sort_unstable();
            self.comp_demands.insert(root, members);
        } else {
            let root = self.comps.find(effect.demand.0);
            self.evict(root);
        }
        self.dirty.insert(effect.demand.0);
        Ok(effect)
    }

    /// Drops component `root`'s cached solves and their share of the
    /// assembly.
    fn evict(&mut self, root: u32) {
        if let Some(solves) = self.cache.remove(&root) {
            self.assembly.update(&self.problem, &solves, false);
        }
    }

    /// Warm re-solve: re-runs each half of the theorem over the dirty
    /// components' live instances only, keeping every clean component's
    /// cached `(λ, selected)`, then reports the global λ and the size of
    /// the global schedule from the incrementally kept assembly.
    ///
    /// Every dirty component solves before any result is committed, so a
    /// failed resolve changes nothing: the dirty components stay dirty and
    /// the next resolve re-solves them.
    ///
    /// # Errors
    ///
    /// Propagates [`FrameworkError`] from a component run.
    pub fn resolve(&mut self) -> Result<ResolveOutcome, FrameworkError> {
        let roots: BTreeSet<u32> = self.dirty.iter().map(|&a| self.comps.find(a)).collect();
        let mut solved = Vec::with_capacity(roots.len());
        let mut instances_resolved = 0usize;
        for root in roots {
            let mut participants: Vec<InstanceId> = Vec::new();
            for &a in self.comp_demands.get(&root).map_or(&[][..], Vec::as_slice) {
                if !self.problem.is_departed(DemandId(a)) {
                    participants.extend_from_slice(self.problem.instances_of(DemandId(a)));
                }
            }
            participants.sort_unstable();
            if participants.is_empty() {
                solved.push((root, None));
                continue;
            }
            let solves = self
                .halves
                .iter()
                .map(|half| self.component_solve(half, &participants))
                .collect::<Result<Vec<_>, _>>()?;
            instances_resolved += participants.len();
            solved.push((root, Some(solves)));
        }
        self.dirty.clear();
        let mut components_resolved = 0usize;
        for (root, solves) in solved {
            self.evict(root);
            if let Some(solves) = solves {
                self.assembly.update(&self.problem, &solves, true);
                self.cache.insert(root, solves);
                components_resolved += 1;
            }
        }
        self.stats.resolves += 1;
        self.stats.components_resolved += components_resolved as u64;
        self.stats.instances_resolved += instances_resolved as u64;
        Ok(ResolveOutcome {
            lambda: self.lambda(),
            selected: self.assembly.selected(&self.problem),
            components_resolved,
            instances_resolved,
            live_instances: self.problem.live_instance_count(),
        })
    }

    /// One half's run over one component's live instances.
    fn component_solve(
        &self,
        half: &EngineHalf,
        instances: &[InstanceId],
    ) -> Result<ComponentSolve, FrameworkError> {
        let outcome = run_two_phase(
            &self.problem,
            &self.layers,
            half.rule,
            &half.config,
            &half.participants(&self.problem, instances),
        )?;
        Ok(ComponentSolve {
            lambda: outcome.lambda,
            selected: outcome.solution.selected().to_vec(),
        })
    }

    /// The current global λ: min over the cached component λs of every
    /// half, `1.0` when nothing is cached. Bitwise equal to the reference
    /// λ after a [`DeltaEngine::resolve`] (min-folds of the same
    /// non-negative satisfaction multiset associate freely).
    pub fn lambda(&self) -> f64 {
        self.assembly.lambda()
    }

    /// The current global schedule, assembled: per half, the sorted union
    /// of the cached component selections; for a wide/narrow split, the
    /// per-network combination of the two (bitwise the reference
    /// combination, since both half unions are).
    pub fn solution(&self) -> Solution {
        self.assemble(self.assembly.unions())
    }

    /// Assembles the halves' solutions exactly as [`solve`](crate::solve)
    /// does: a single half is the schedule; a wide/narrow split keeps the
    /// better half per network ([`combine_by_network`]).
    fn assemble(&self, halves: Vec<Solution>) -> Solution {
        let mut halves = halves.into_iter();
        match (halves.next(), halves.next()) {
            (Some(wide), Some(narrow)) => combine_by_network(&self.problem, &wide, &narrow),
            (Some(single), None) => single,
            _ => unreachable!("every theorem runs one or two halves"),
        }
    }

    /// The from-scratch oracle: one reference (non-incremental)
    /// two-phase run per half over **all** live instances of its class,
    /// with the engine's own layering and configurations, assembled as
    /// [`DeltaEngine::solution`] assembles the warm halves. After any
    /// delta sequence and a [`DeltaEngine::resolve`], its `lambda` and
    /// `solution` must equal the warm results bit-for-bit.
    ///
    /// # Errors
    ///
    /// Propagates [`FrameworkError`].
    pub fn reference_solve(&self) -> Result<ReferenceSolve, FrameworkError> {
        let live = self.problem.live_instances();
        let mut lambda = 1.0f64;
        let mut solutions = Vec::with_capacity(self.halves.len());
        for half in &self.halves {
            let out = run_two_phase_reference(
                &self.problem,
                &self.layers,
                half.rule,
                &half.config,
                &half.participants(&self.problem, &live),
            )?;
            lambda = lambda.min(out.lambda);
            solutions.push(out.solution);
        }
        Ok(ReferenceSolve {
            lambda,
            solution: self.assemble(solutions),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treenet_graph::VertexId;
    use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
    use treenet_model::{Demand, DemandId, NetworkId, ProblemBuilder};

    fn seed_problem(seed: u64) -> Problem {
        TreeWorkload::new(16, 18)
            .with_networks(2)
            .generate(&mut SmallRng::seed_from_u64(seed))
    }

    fn engine(seed: u64) -> DeltaEngine {
        DeltaEngine::new(seed_problem(seed), &SolverConfig::default()).unwrap()
    }

    fn assert_matches_reference(engine: &DeltaEngine) {
        let reference = engine.reference_solve().unwrap();
        assert_eq!(engine.lambda().to_bits(), reference.lambda.to_bits());
        assert_eq!(engine.solution().selected(), reference.solution.selected());
    }

    #[test]
    fn initial_resolve_matches_reference() {
        for seed in 0..4u64 {
            let mut e = engine(seed);
            assert_eq!(e.choice(), AutoChoice::TreeUnit);
            assert_eq!(e.lmin(), None);
            assert_eq!(e.hmin(), None);
            let out = e.resolve().unwrap();
            assert!(out.components_resolved >= 1);
            assert!(e.solution().verify(e.problem()).is_ok());
            assert_eq!(out.selected, e.solution().len());
            assert_matches_reference(&e);
        }
    }

    #[test]
    fn arrivals_and_departures_stay_bit_identical() {
        let mut e = engine(7);
        e.resolve().unwrap();
        let eff = e
            .apply(ProblemDelta::Arrival {
                demand: Demand::pair(VertexId(2), VertexId(11), 3.5),
                access: vec![NetworkId(0), NetworkId(1)],
            })
            .unwrap();
        e.resolve().unwrap();
        assert_matches_reference(&e);
        e.apply(ProblemDelta::Departure { demand: eff.demand })
            .unwrap();
        e.apply(ProblemDelta::Departure {
            demand: DemandId(3),
        })
        .unwrap();
        e.resolve().unwrap();
        assert_matches_reference(&e);
    }

    #[test]
    fn warm_resolve_touches_only_dirty_components() {
        // Two disjoint pods: perturbing pod 1 must not re-solve pod 0.
        let mut b = ProblemBuilder::new();
        let t0 = b.add_network(treenet_graph::Tree::line(8)).unwrap();
        let t1 = b.add_network(treenet_graph::Tree::line(8)).unwrap();
        for s in [0u32, 3] {
            b.add_demand(Demand::pair(VertexId(s), VertexId(s + 3), 2.0), &[t0])
                .unwrap();
            b.add_demand(Demand::pair(VertexId(s), VertexId(s + 3), 1.0), &[t1])
                .unwrap();
        }
        let mut e = DeltaEngine::new(b.build().unwrap(), &SolverConfig::default()).unwrap();
        // All networks are canonical lines → length-class layering.
        assert_eq!(e.choice(), AutoChoice::LineUnit);
        let first = e.resolve().unwrap();
        assert_eq!(first.components_resolved, e.component_count());
        e.apply(ProblemDelta::Arrival {
            demand: Demand::pair(VertexId(1), VertexId(6), 9.0),
            access: vec![t1],
        })
        .unwrap();
        let warm = e.resolve().unwrap();
        // Only the t1 component is dirty.
        assert_eq!(warm.components_resolved, 1);
        assert!(warm.instances_resolved < warm.live_instances);
        assert_matches_reference(&e);
    }

    #[test]
    fn resolve_without_dirt_is_free() {
        let mut e = engine(3);
        e.resolve().unwrap();
        let again = e.resolve().unwrap();
        assert_eq!(again.components_resolved, 0);
        assert_eq!(again.instances_resolved, 0);
        assert_matches_reference(&e);
        assert_eq!(e.stats().resolves, 2);
    }

    #[test]
    fn departing_everything_empties_the_schedule() {
        let mut e = engine(5);
        e.resolve().unwrap();
        let demands: Vec<DemandId> = e.problem().demands().collect();
        for a in demands {
            e.apply(ProblemDelta::Departure { demand: a }).unwrap();
        }
        let out = e.resolve().unwrap();
        assert_eq!(out.lambda, 1.0);
        assert_eq!(out.selected, 0);
        assert!(e.solution().is_empty());
        assert_eq!(out.live_instances, 0);
        assert_matches_reference(&e);
    }

    #[test]
    fn non_unit_heights_are_rejected() {
        let mut e = engine(1);
        let err = e.apply(ProblemDelta::Arrival {
            demand: Demand::pair(VertexId(0), VertexId(1), 1.0).with_height(0.5),
            access: vec![NetworkId(0)],
        });
        assert!(matches!(err, Err(DeltaEngineError::NonUnitHeight { .. })));
        let mut b = ProblemBuilder::new();
        let t = b.add_network(treenet_graph::Tree::line(4)).unwrap();
        b.add_demand(
            Demand::pair(VertexId(0), VertexId(2), 1.0).with_height(0.25),
            &[t],
        )
        .unwrap();
        assert!(matches!(
            DeltaEngine::new(b.build().unwrap(), &SolverConfig::default()),
            Err(DeltaEngineError::NonUnitHeight { .. })
        ));
    }

    #[test]
    fn model_rejections_pass_through_and_leave_engine_usable() {
        let mut e = engine(2);
        e.resolve().unwrap();
        let err = e.apply(ProblemDelta::Departure {
            demand: DemandId(9999),
        });
        assert!(matches!(
            err,
            Err(DeltaEngineError::Model(ModelError::UnknownDemand { .. }))
        ));
        assert!(err.unwrap_err().to_string().contains("a9999"));
        e.resolve().unwrap();
        assert_matches_reference(&e);
    }

    fn capacitated_problem(seed: u64) -> Problem {
        TreeWorkload::new(16, 18)
            .with_networks(2)
            .with_heights(HeightMode::Bimodal {
                narrow_frac: 0.5,
                hmin: 0.2,
            })
            .generate(&mut SmallRng::seed_from_u64(seed))
    }

    #[test]
    fn capacitated_mode_matches_reference() {
        for seed in 0..4u64 {
            let p = capacitated_problem(seed);
            let mut e = DeltaEngine::new(p, &SolverConfig::default().with_hmin(0.2)).unwrap();
            assert_eq!(e.hmin(), Some(0.2));
            let out = e.resolve().unwrap();
            assert!(e.solution().verify(e.problem()).is_ok());
            assert_eq!(out.selected, e.solution().len());
            assert_matches_reference(&e);
            // Warm deltas: a narrow arrival, a wide arrival, a departure.
            e.apply(ProblemDelta::Arrival {
                demand: Demand::pair(VertexId(1), VertexId(9), 2.5).with_height(0.3),
                access: vec![NetworkId(0)],
            })
            .unwrap();
            e.apply(ProblemDelta::Arrival {
                demand: Demand::pair(VertexId(4), VertexId(12), 1.5).with_height(0.8),
                access: vec![NetworkId(1)],
            })
            .unwrap();
            e.apply(ProblemDelta::Departure {
                demand: DemandId(seed as u32 % 18),
            })
            .unwrap();
            e.resolve().unwrap();
            assert_matches_reference(&e);
        }
    }

    #[test]
    fn capacitated_floor_is_enforced() {
        let p = capacitated_problem(1);
        let mut e = DeltaEngine::new(p, &SolverConfig::default().with_hmin(0.2)).unwrap();
        let err = e.apply(ProblemDelta::Arrival {
            demand: Demand::pair(VertexId(0), VertexId(3), 1.0).with_height(0.1),
            access: vec![NetworkId(0)],
        });
        assert!(matches!(
            err,
            Err(DeltaEngineError::HeightBelowFloor { .. })
        ));
        // Construction over a problem violating the floor fails too.
        let p = capacitated_problem(1);
        assert!(matches!(
            DeltaEngine::new(p, &SolverConfig::default().with_hmin(0.45)),
            Err(DeltaEngineError::HeightBelowFloor { .. })
        ));
        // And a nonsensical floor is rejected outright, as `solve`
        // rejects it.
        let p = capacitated_problem(1);
        assert!(matches!(
            DeltaEngine::new(p, &SolverConfig::default().with_hmin(0.0)),
            Err(DeltaEngineError::Framework(FrameworkError::BadParameters { reason }))
                if reason.contains("hmin")
        ));
    }

    #[test]
    fn line_family_layers_by_length_class() {
        let p = LineWorkload::new(40, 20)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(2, 10)
            .generate(&mut SmallRng::seed_from_u64(3));
        let lmin = treenet_decomp::line_lmin(&p);
        let mut e = DeltaEngine::new(p, &SolverConfig::default()).unwrap();
        assert_eq!(e.choice(), AutoChoice::LineUnit);
        assert_eq!(e.lmin(), Some(lmin));
        e.resolve().unwrap();
        assert_matches_reference(&e);
        // A long arrival layers into a later length class and still
        // matches the reference.
        e.apply(ProblemDelta::Arrival {
            demand: Demand::pair(VertexId(0), VertexId(35), 4.0),
            access: vec![NetworkId(0)],
        })
        .unwrap();
        e.resolve().unwrap();
        assert_matches_reference(&e);
    }

    #[test]
    fn pushed_layers_equal_a_batch_layering_of_the_grown_problem() {
        use rand::Rng;
        // Arrivals are layered one instance at a time. After a seeded
        // arrival/departure script the pushed layers must equal a
        // from-scratch layering of the grown problem under the engine's
        // own Layering — the reference oracles reuse the engine's layers,
        // so only this comparison sees a drift between the two paths.
        // Whether Δ already sits at its ceiling when the script starts
        // decides whether arrivals derive π: both cases run.
        let tree = seed_problem(11);
        let tree_at_ceiling = TreeWorkload::new(64, 200)
            .with_networks(3)
            .generate(&mut SmallRng::seed_from_u64(2));
        let line = LineWorkload::new(40, 20)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(2, 10)
            .generate(&mut SmallRng::seed_from_u64(11));
        for (problem, choice, at_ceiling) in [
            (tree, AutoChoice::TreeUnit, false),
            (tree_at_ceiling, AutoChoice::TreeUnit, true),
            (line, AutoChoice::LineUnit, true),
        ] {
            let mut e = DeltaEngine::new(problem, &SolverConfig::default()).unwrap();
            assert_eq!(e.choice(), choice);
            assert_eq!(
                e.layers.delta() == e.layers.layering().delta_ceiling(),
                at_ceiling,
                "{choice:?}: Δ = {}",
                e.layers.delta()
            );
            let mut rng = SmallRng::seed_from_u64(0x1a7e);
            let vertices = e.problem().network(NetworkId(0)).len() as u32;
            let mut arrived = 0;
            for step in 0..40 {
                let delta = if step % 4 == 3 {
                    let a = rng.gen_range(0..e.problem().demand_count() as u32);
                    ProblemDelta::Departure {
                        demand: DemandId(a),
                    }
                } else {
                    let u = rng.gen_range(0..vertices - 1);
                    let v = rng.gen_range(u + 1..vertices);
                    let demand = match choice {
                        AutoChoice::TreeUnit => Demand::pair(VertexId(u), VertexId(v), 1.5),
                        _ => Demand::window(u, v - 1, (v - u).min(3), 1.5),
                    };
                    let access = e.problem().networks().collect();
                    ProblemDelta::Arrival { demand, access }
                };
                let is_arrival = matches!(delta, ProblemDelta::Arrival { .. });
                // Repeat departures and too-short arrivals are refused
                // in-band and leave the engine unchanged.
                if e.apply(delta).is_ok() && is_arrival {
                    arrived += 1;
                }
            }
            assert!(
                arrived >= 10,
                "{choice:?}: only {arrived} arrivals admitted"
            );
            let batch = LayeredDecomposition::new(e.problem(), e.layers.layering().clone());
            assert_eq!(e.layers.len(), batch.len());
            let (mut pushed_pi, mut batch_pi) = (Vec::new(), Vec::new());
            for inst in e.problem().instances() {
                assert_eq!(e.layers.group_of(inst.id), batch.group_of(inst.id));
                assert_eq!(
                    e.layers.critical_of(e.problem(), inst.id, &mut pushed_pi),
                    batch.critical_of(e.problem(), inst.id, &mut batch_pi)
                );
            }
            assert_eq!(e.layers.num_groups(), batch.num_groups());
            assert_eq!(e.layers.delta(), batch.delta());
        }
    }

    /// Asserts that two demands share an engine component iff the
    /// pairwise conflicting relation over every instance ever admitted
    /// (departed included) connects them, and that the member lists
    /// follow the union-find. The bit-identity oracles cannot see an
    /// over-merged component: a conflict-closed superset solves the same.
    fn assert_components_are_conflict_components(e: &DeltaEngine) {
        let problem = e.problem();
        let mut oracle = UnionFind::new(problem.demand_count());
        for a in problem.instances() {
            for b in problem.instances().skip(a.id.index() + 1) {
                if problem.conflicting(a.id, b.id) {
                    oracle.union(a.demand.0, b.demand.0);
                }
            }
        }
        let mut comps = e.comps.clone();
        let m = problem.demand_count() as u32;
        for a in 0..m {
            for b in a + 1..m {
                let engine = comps.find(a) == comps.find(b);
                assert_eq!(engine, oracle.find(a) == oracle.find(b), "a{a} and a{b}");
            }
            assert!(e.comp_demands[&comps.find(a)].binary_search(&a).is_ok());
        }
        assert_eq!(e.component_count(), oracle.set_count());
    }

    #[test]
    fn components_are_exactly_the_conflict_components() {
        use rand::Rng;
        // Six single-network pods, so the problems start with several
        // components and most arrivals (one network each) stay apart.
        let tree = |heights| {
            TreeWorkload::new(24, 16)
                .with_networks(1)
                .with_pods(6)
                .with_heights(heights)
                .generate(&mut SmallRng::seed_from_u64(17))
        };
        let line = |heights| {
            LineWorkload::new(40, 16)
                .with_resources(1)
                .with_pods(6)
                .with_window_slack(2)
                .with_len_range(2, 6)
                .with_heights(heights)
                .generate(&mut SmallRng::seed_from_u64(17))
        };
        let bimodal = HeightMode::Bimodal {
            narrow_frac: 0.5,
            hmin: 0.25,
        };
        let unit = SolverConfig::default();
        let capacitated = SolverConfig::default().with_hmin(0.25);
        let cases = [
            (tree(HeightMode::Unit), &unit),
            (tree(bimodal), &capacitated),
            (line(HeightMode::Unit), &unit),
            (line(bimodal), &capacitated),
        ];
        for (problem, config) in cases {
            let mut e = DeltaEngine::new(problem, config).unwrap();
            let choice = e.choice();
            assert!(e.component_count() > 1, "{choice:?}");
            assert_components_are_conflict_components(&e);
            let mut rng = SmallRng::seed_from_u64(0xa9c4);
            let vertices = e.problem().network(NetworkId(0)).len() as u32;
            let networks = e.problem().network_count() as u32;
            let mut arrived = 0;
            for step in 0..48 {
                let delta = if step % 4 == 3 {
                    let a = rng.gen_range(0..e.problem().demand_count() as u32);
                    ProblemDelta::Departure {
                        demand: DemandId(a),
                    }
                } else {
                    let u = rng.gen_range(0..vertices - 1);
                    let v = rng.gen_range(u + 1..(u + 8).min(vertices));
                    let lines = matches!(choice, AutoChoice::LineUnit | AutoChoice::LineArbitrary);
                    let mut demand = if lines && step % 2 == 0 {
                        Demand::window(u, v - 1, (v - u).min(3), 1.5)
                    } else {
                        Demand::pair(VertexId(u), VertexId(v), 1.5)
                    };
                    if config.hmin.is_some() {
                        demand = demand.with_height(if rng.gen_bool(0.5) { 0.3 } else { 0.9 });
                    }
                    let t = rng.gen_range(0..networks);
                    let access = if step % 8 == 0 {
                        vec![NetworkId(t), NetworkId((t + 1) % networks)]
                    } else {
                        vec![NetworkId(t)]
                    };
                    ProblemDelta::Arrival { demand, access }
                };
                let is_arrival = matches!(delta, ProblemDelta::Arrival { .. });
                if e.apply(delta).is_ok() && is_arrival {
                    arrived += 1;
                }
                assert_components_are_conflict_components(&e);
            }
            assert!(arrived >= 12, "{choice:?}: only {arrived} arrivals");
            assert!(e.component_count() > 1, "{choice:?}");
        }
    }

    #[test]
    fn line_arrivals_shorter_than_lmin_are_rejected() {
        let mut b = ProblemBuilder::new();
        let t = b.add_network(treenet_graph::Tree::line(20)).unwrap();
        b.add_demand(Demand::pair(VertexId(0), VertexId(4), 1.0), &[t])
            .unwrap();
        let mut e = DeltaEngine::new(b.build().unwrap(), &SolverConfig::default()).unwrap();
        assert_eq!(e.lmin(), Some(4.0));
        let err = e.apply(ProblemDelta::Arrival {
            demand: Demand::pair(VertexId(8), VertexId(10), 1.0),
            access: vec![t],
        });
        assert!(matches!(
            err,
            Err(DeltaEngineError::InstanceTooShort { len: 2, .. })
        ));
        // Window arrivals are length-checked by their processing time.
        let err = e.apply(ProblemDelta::Arrival {
            demand: Demand::window(0, 10, 3, 1.0),
            access: vec![t],
        });
        assert!(matches!(
            err,
            Err(DeltaEngineError::InstanceTooShort { len: 3, .. })
        ));
        // Engine still usable and consistent after rejections.
        e.resolve().unwrap();
        assert_matches_reference(&e);
    }

    #[test]
    fn capacitated_line_mode_matches_reference() {
        let p = LineWorkload::new(36, 16)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(2, 9)
            .with_heights(HeightMode::Bimodal {
                narrow_frac: 0.6,
                hmin: 0.25,
            })
            .generate(&mut SmallRng::seed_from_u64(5));
        let mut e = DeltaEngine::new(p, &SolverConfig::default().with_hmin(0.25)).unwrap();
        assert_eq!(e.choice(), AutoChoice::LineArbitrary);
        e.resolve().unwrap();
        assert_matches_reference(&e);
        e.apply(ProblemDelta::Arrival {
            demand: Demand::pair(VertexId(2), VertexId(8), 3.0).with_height(0.4),
            access: vec![NetworkId(1)],
        })
        .unwrap();
        e.apply(ProblemDelta::Departure {
            demand: DemandId(2),
        })
        .unwrap();
        e.resolve().unwrap();
        assert_matches_reference(&e);
    }

    #[test]
    fn failed_resolve_keeps_its_dirty_components() {
        // A component run that fails must leave every dirty component
        // dirty: the retry re-solves them all instead of serving the
        // schedule of whatever had been committed (here: nothing).
        let mut e = engine(3);
        let budget = e.halves[0].config.max_steps_per_stage;
        e.halves[0].config.max_steps_per_stage = Some(0);
        assert!(matches!(
            e.resolve(),
            Err(FrameworkError::StageDiverged { .. })
        ));
        e.halves[0].config.max_steps_per_stage = budget;
        let out = e.resolve().unwrap();
        assert_eq!(out.components_resolved, e.component_count());
        let reference = e.reference_solve().unwrap();
        assert_eq!(out.lambda.to_bits(), reference.lambda.to_bits());
        assert_eq!(out.selected, reference.solution.len());
        assert!(!reference.solution.is_empty());
        assert_matches_reference(&e);
    }

    #[test]
    fn split_selection_count_follows_the_per_network_combination() {
        // The incrementally kept size of a wide/narrow schedule equals the
        // assembled combination's after every resolve of a churn script.
        let mut e = DeltaEngine::new(
            capacitated_problem(2),
            &SolverConfig::default().with_hmin(0.2),
        )
        .unwrap();
        let out = e.resolve().unwrap();
        assert_eq!(out.selected, e.solution().len());
        for step in 0..12u32 {
            let delta = if step % 3 == 2 {
                ProblemDelta::Departure {
                    demand: DemandId(step),
                }
            } else {
                let u = step % 7;
                ProblemDelta::Arrival {
                    demand: Demand::pair(VertexId(u), VertexId(u + 6), 1.0 + f64::from(step))
                        .with_height(if step % 2 == 0 { 0.3 } else { 0.9 }),
                    access: vec![NetworkId(step % 2)],
                }
            };
            e.apply(delta).unwrap();
            let out = e.resolve().unwrap();
            assert_eq!(out.selected, e.solution().len(), "step {step}");
            assert_matches_reference(&e);
        }
    }

    #[test]
    fn error_displays_name_the_constraint() {
        let e = DeltaEngineError::HeightBelowFloor {
            height: 0.1,
            hmin: 0.2,
        };
        assert!(e.to_string().contains("hmin"));
        let e = DeltaEngineError::InstanceTooShort { len: 2, lmin: 4.0 };
        assert!(e.to_string().contains("Lmin"));
        let e = DeltaEngineError::NonUnitHeight { height: 0.5 };
        assert!(e.to_string().contains("hmin"));
    }
}
