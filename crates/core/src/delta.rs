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
//! # Rules and families
//!
//! The engine serves all four theorem variants of the paper:
//!
//! * **Family.** Networks are fixed at construction. When every network
//!   is a canonical line the engine layers arrivals by *length class*
//!   against the public minimum length [`DeltaEngine::lmin`]
//!   (`Δ ≤ `[`LINE_DELTA_BOUND`]); otherwise it retains the per-network
//!   ideal tree decompositions and layers arrivals against them
//!   (`Δ ≤ `[`IDEAL_DELTA_BOUND`]). Both bounds are a-priori, so the
//!   stage factor ξ cannot drift as arrivals change the measured `Δ`.
//! * **Rule.** Without an a-priori `hmin` ([`SolverConfig::hmin`]) the
//!   engine runs the unit rule and rejects non-unit heights. With
//!   `hmin` fixed it runs the capacitated wide/narrow split of
//!   Section 6: each component caches a *pair* of solves — the unit
//!   rule over its wide instances (`h > 1/2`) and the narrow rule
//!   (`ξ = c/(c+hmin)`) over its narrow ones — and the global schedule
//!   is the per-network combination ([`combine_by_network`]) of the two
//!   assembled class solutions. The factorization argument applies per
//!   class: two same-class instances that conflict share an edge, so a
//!   union-find component over *all* demands is a conflict-closed
//!   superset within each class, and the per-class unions/min-folds are
//!   bitwise equal to the global class runs.
//!
//! [`DeltaEngine`] exploits this: it keeps a union-find over demands, a
//! per-component cache of `(λ, selected)` per class, and a dirty set. A
//! delta invalidates only the touched component; [`DeltaEngine::resolve`]
//! re-runs the two-phase engine over dirty components only and reuses
//! every clean component's cached result. The from-scratch oracle
//! [`DeltaEngine::reference_solve`] re-solves everything with
//! [`run_two_phase_reference`] and must agree bit-for-bit after **any**
//! delta sequence — the invariant the proptest oracles and the `treenet
//! serve` `check` op enforce.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::framework::{
    run_two_phase, run_two_phase_reference, FrameworkConfig, FrameworkError, RaiseRule,
};
use crate::solvers::{combine_by_network, narrow_xi, unit_xi, SolverConfig};
use treenet_decomp::{LayeredDecomposition, Layering, Strategy};
use treenet_graph::UnionFind;
use treenet_model::{
    DeltaEffect, Demand, DemandKind, HeightClass, InstanceId, ModelError, Problem, ProblemDelta,
    Solution, EPS,
};

/// The a-priori critical-set bound of the ideal tree decomposition
/// (Lemma 4.3): `Δ ≤ 6` for every tree, hence a fixed stage factor
/// `ξ = 14/15` that cannot drift as arrivals change the measured `Δ`.
pub const IDEAL_DELTA_BOUND: usize = 6;

/// The a-priori critical-set bound of the line length-class decomposition
/// (Section 7): every instance has at most 3 critical slots
/// (start/mid/end), hence a fixed unit-rule stage factor `ξ = 8/9`.
pub const LINE_DELTA_BOUND: usize = 3;

/// Which layered decomposition the engine runs on (fixed at
/// construction from the networks' shapes).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum EngineFamily {
    /// General tree networks: per-network ideal decompositions,
    /// `Δ ≤ `[`IDEAL_DELTA_BOUND`].
    Tree,
    /// Every network is a canonical line: length-class layering keyed on
    /// the public [`DeltaEngine::lmin`], `Δ ≤ `[`LINE_DELTA_BOUND`].
    Line,
}

/// Error raised by [`DeltaEngine`] construction or delta admission.
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaEngineError {
    /// The underlying model rejected the delta (see [`ModelError`]).
    Model(ModelError),
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
    /// The configured a-priori `hmin` is not a height (must lie in
    /// `(0, 1]`).
    BadHmin {
        /// The offending value.
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
            DeltaEngineError::BadHmin { hmin } => {
                write!(f, "a-priori hmin must lie in (0, 1], got {hmin}")
            }
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

/// The raising mode, decided at construction from [`SolverConfig::hmin`].
#[derive(Clone, Debug)]
enum Mode {
    /// Unit rule only; non-unit heights are rejected.
    Unit,
    /// Wide/narrow split with an a-priori height floor.
    Capacitated {
        /// The raw configured floor (admission checks use this).
        hmin: f64,
        /// The narrow-rule configuration (`ξ = narrow_xi(Δbound, hmin)`).
        narrow_config: FrameworkConfig,
    },
}

/// The cached result of one conflict component's two-phase run.
#[derive(Clone, Debug)]
struct ComponentSolve {
    /// The component's λ: min satisfaction over its participants.
    lambda: f64,
    /// The component's selected instances (sorted, as extracted).
    selected: Vec<InstanceId>,
}

impl ComponentSolve {
    /// The solve of an empty participant set: λ = 1.0 (the min-fold
    /// seed), nothing selected — bitwise what [`run_two_phase`] returns
    /// for no participants, without paying for the run.
    fn neutral() -> ComponentSolve {
        ComponentSolve {
            lambda: 1.0,
            selected: Vec::new(),
        }
    }
}

/// One component's cache line: the wide-class and narrow-class solves.
/// In unit mode the whole component solves as the wide class and the
/// narrow slot stays neutral.
#[derive(Clone, Debug)]
struct CacheEntry {
    wide: ComponentSolve,
    narrow: ComponentSolve,
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

/// What a [`DeltaEngine::resolve`] call produced: the globally assembled
/// schedule plus how much work the warm start actually did.
#[derive(Clone, Debug)]
pub struct ResolveOutcome {
    /// Measured slackness λ over all live instances (min of component λs;
    /// `1.0` when nothing is live).
    pub lambda: f64,
    /// The assembled feasible solution (union of component selections;
    /// in capacitated mode, the per-network wide/narrow combination).
    pub solution: Solution,
    /// Components re-solved by this call (dirty ones only).
    pub components_resolved: usize,
    /// Participant instances of the re-solved components.
    pub instances_resolved: usize,
    /// Live instances overall — the size a cold solve would have paid.
    pub live_instances: usize,
}

/// The from-scratch oracle's result, mode-independent: what
/// [`DeltaEngine::reference_solve`] computed cold. After any delta
/// sequence and a [`DeltaEngine::resolve`], the warm
/// [`DeltaEngine::lambda`]/[`DeltaEngine::solution`] must equal these
/// bit-for-bit.
#[derive(Clone, Debug)]
pub struct ReferenceSolve {
    /// The reference λ (in capacitated mode, the min of the wide and
    /// narrow run λs).
    pub lambda: f64,
    /// The reference schedule (in capacitated mode, the per-network
    /// combination of the wide and narrow solutions).
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
    layers: LayeredDecomposition,
    /// Fixed at construction, so arrivals are layered against the same
    /// decompositions (or the same `Lmin`) as the initial batch.
    layering: Layering,
    mode: Mode,
    /// The unit/wide-class framework configuration (the narrow-class one
    /// lives in [`Mode::Capacitated`]).
    config: FrameworkConfig,
    /// Conflict components over demands: merged on arrival, never split.
    comps: UnionFind,
    /// Component root → member demands (live and departed).
    comp_demands: BTreeMap<u32, Vec<u32>>,
    /// Component root → cached per-class solves of its live participants.
    cache: BTreeMap<u32, CacheEntry>,
    /// Demand keys touched since the last resolve (mapped to their
    /// *current* roots lazily, since later unions can re-root them).
    dirty: BTreeSet<u32>,
    stats: DeltaEngineStats,
}

impl DeltaEngine {
    /// Builds the engine over an initial problem.
    ///
    /// The family is detected from the networks (all canonical lines →
    /// length-class layering, else [`Strategy::Ideal`] tree
    /// decompositions) and the stage factors use the a-priori `Δ` bounds
    /// ([`IDEAL_DELTA_BOUND`]/[`LINE_DELTA_BOUND`]), independent of the
    /// measured `Δ` — fixed factors are what keep warm and cold solves
    /// on the same stage schedule while the instance set changes. Of
    /// `config`, the engine honors `epsilon`, `seed`, `mis_backend` and
    /// `hmin` (whose presence selects the capacitated wide/narrow mode).
    ///
    /// # Errors
    ///
    /// [`DeltaEngineError::NonUnitHeight`] if no `hmin` is fixed and
    /// some initial demand has non-unit height;
    /// [`DeltaEngineError::BadHmin`]/[`DeltaEngineError::HeightBelowFloor`]
    /// for a bad or violated a-priori floor.
    pub fn new(problem: Problem, config: &SolverConfig) -> Result<DeltaEngine, DeltaEngineError> {
        let line_family = problem.network_count() > 0
            && problem
                .networks()
                .all(|t| problem.network(t).is_canonical_line());
        let delta_bound = if line_family {
            LINE_DELTA_BOUND
        } else {
            IDEAL_DELTA_BOUND
        };
        let base = |xi: f64| FrameworkConfig {
            epsilon: config.epsilon,
            xi,
            seed: config.seed,
            max_steps_per_stage: Some(1_000_000),
            record_trace: false,
            mis_backend: config.mis_backend,
        };
        let framework_config = base(unit_xi(delta_bound));
        let mode = match config.hmin {
            None => {
                if let Some(a) = problem
                    .demands()
                    .find(|&a| !problem.demand(a).is_unit_height())
                {
                    return Err(DeltaEngineError::NonUnitHeight {
                        height: problem.demand(a).height,
                    });
                }
                Mode::Unit
            }
            Some(hmin) => {
                if !(hmin > 0.0 && hmin <= 1.0) {
                    return Err(DeltaEngineError::BadHmin { hmin });
                }
                if let Some(a) = problem.demands().find(|&a| {
                    let d = problem.demand(a);
                    d.height_class() == HeightClass::Narrow && d.height < hmin - EPS
                }) {
                    return Err(DeltaEngineError::HeightBelowFloor {
                        height: problem.demand(a).height,
                        hmin,
                    });
                }
                Mode::Capacitated {
                    hmin,
                    narrow_config: base(narrow_xi(delta_bound, hmin.min(0.5))),
                }
            }
        };
        let layering = if line_family {
            Layering::for_lines(&problem)
        } else {
            Layering::for_trees(&problem, Strategy::Ideal)
        };
        let layers = LayeredDecomposition::new(&problem, &layering);

        let mut comps = UnionFind::new(problem.demand_count());
        // Demands conflict iff some pair of their instances shares an
        // edge; instances_using lists each edge's users in id order, so
        // unioning consecutive users links exactly the conflicting
        // demands, in O(Σ path lengths).
        for t in problem.networks() {
            for e in 0..problem.network(t).edge_count() {
                let users = problem.instances_using(t, treenet_graph::EdgeId(e as u32));
                for pair in users.windows(2) {
                    let a = problem.instance(pair[0]).demand.0;
                    let b = problem.instance(pair[1]).demand.0;
                    comps.union(a, b);
                }
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
            layering,
            mode,
            config: framework_config,
            comps,
            comp_demands,
            cache: BTreeMap::new(),
            dirty,
            stats: DeltaEngineStats::default(),
        })
    }

    /// The current problem (append-only; departed demands tombstoned).
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The unit/wide-class framework configuration every solve (warm or
    /// reference) uses.
    pub fn framework_config(&self) -> &FrameworkConfig {
        &self.config
    }

    /// The narrow-class framework configuration (`None` in unit mode).
    pub fn narrow_framework_config(&self) -> Option<&FrameworkConfig> {
        match &self.mode {
            Mode::Unit => None,
            Mode::Capacitated { narrow_config, .. } => Some(narrow_config),
        }
    }

    /// Which layered decomposition family the engine runs on.
    pub fn family(&self) -> EngineFamily {
        match self.layering.lmin() {
            None => EngineFamily::Tree,
            Some(_) => EngineFamily::Line,
        }
    }

    /// The public minimum instance length `Lmin` the line length-class
    /// layering is keyed on (`None` for the tree family). Fixed at
    /// construction; arrivals shorter than this are rejected.
    pub fn lmin(&self) -> Option<f64> {
        self.layering.lmin()
    }

    /// The a-priori narrow height floor (`None` in unit mode).
    pub fn hmin(&self) -> Option<f64> {
        match self.mode {
            Mode::Unit => None,
            Mode::Capacitated { hmin, .. } => Some(hmin),
        }
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

    /// Admission check for an arriving demand: rule mode (heights) and
    /// line family (public `Lmin`) constraints, before any state changes.
    fn admit(&self, demand: &Demand) -> Result<(), DeltaEngineError> {
        match &self.mode {
            Mode::Unit => {
                if !demand.is_unit_height() {
                    return Err(DeltaEngineError::NonUnitHeight {
                        height: demand.height,
                    });
                }
            }
            Mode::Capacitated { hmin, .. } => {
                if demand.height_class() == HeightClass::Narrow && demand.height < hmin - EPS {
                    return Err(DeltaEngineError::HeightBelowFloor {
                        height: demand.height,
                        hmin: *hmin,
                    });
                }
            }
        }
        if let Some(lmin) = self.layering.lmin() {
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

    /// Applies one delta, invalidating exactly the touched component.
    ///
    /// An arrival unions the new demand with every demand it conflicts
    /// with (via the inverted edge index) and layers its new instances
    /// incrementally (tree family: against the retained decompositions;
    /// line family: against the public `Lmin`); a departure only
    /// tombstones and marks dirty. The re-solve itself is deferred to
    /// [`DeltaEngine::resolve`].
    ///
    /// # Errors
    ///
    /// [`DeltaEngineError::NonUnitHeight`] for non-unit arrivals in unit
    /// mode, [`DeltaEngineError::HeightBelowFloor`] for arrivals under
    /// the capacitated floor, [`DeltaEngineError::InstanceTooShort`] for
    /// line arrivals under `Lmin`, else whatever the model layer rejects
    /// ([`ModelError`]). A rejected delta leaves the engine unchanged.
    pub fn apply(&mut self, delta: ProblemDelta) -> Result<DeltaEffect, DeltaEngineError> {
        if let ProblemDelta::Arrival { demand, .. } = &delta {
            self.admit(demand)?;
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
                let inst = self.problem.instance(d);
                let (g, pi) = self.layering.layer(
                    self.problem.rooted(inst.network),
                    inst.network,
                    &inst.path,
                );
                self.layers.push_instance(g, pi);
            }

            // Union with every demand sharing an edge. Each counterparty's
            // root is recorded *before* its union so the final root is
            // always among `old_roots`.
            let mut old_roots: BTreeSet<u32> = BTreeSet::new();
            old_roots.insert(self.comps.find(key));
            for &d in &effect.new_instances {
                let network = self.problem.instance(d).network;
                let edges: Vec<treenet_graph::EdgeId> =
                    self.problem.instance(d).path.edges().to_vec();
                for e in edges {
                    for i in 0..self.problem.instances_using(network, e).len() {
                        let other = self.problem.instances_using(network, e)[i];
                        let other = self.problem.instance(other).demand.0;
                        old_roots.insert(self.comps.find(other));
                        self.comps.union(key, other);
                    }
                }
            }
            let root = self.comps.find(key);
            let mut members = Vec::new();
            for r in old_roots {
                self.cache.remove(&r);
                if let Some(mut list) = self.comp_demands.remove(&r) {
                    members.append(&mut list);
                }
            }
            members.sort_unstable();
            self.comp_demands.insert(root, members);
        } else {
            let root = self.comps.find(effect.demand.0);
            self.cache.remove(&root);
        }
        self.dirty.insert(effect.demand.0);
        Ok(effect)
    }

    /// Warm re-solve: re-runs the two-phase engine over the dirty
    /// components' live instances only (per height class in capacitated
    /// mode), keeping every clean component's cached `(λ, selected)`,
    /// then assembles the global schedule.
    ///
    /// # Errors
    ///
    /// Propagates [`FrameworkError`] from a component run.
    pub fn resolve(&mut self) -> Result<ResolveOutcome, FrameworkError> {
        let dirty: Vec<u32> = std::mem::take(&mut self.dirty).into_iter().collect();
        let mut roots: BTreeSet<u32> = BTreeSet::new();
        for d in dirty {
            roots.insert(self.comps.find(d));
        }
        let mut components_resolved = 0usize;
        let mut instances_resolved = 0usize;
        for root in roots {
            let members = self.comp_demands.get(&root).cloned().unwrap_or_default();
            let mut participants: Vec<InstanceId> = Vec::new();
            for a in members {
                let a = treenet_model::DemandId(a);
                if !self.problem.is_departed(a) {
                    participants.extend_from_slice(self.problem.instances_of(a));
                }
            }
            participants.sort_unstable();
            if participants.is_empty() {
                self.cache.remove(&root);
                continue;
            }
            let entry = match &self.mode {
                Mode::Unit => CacheEntry {
                    wide: self.component_solve(RaiseRule::Unit, &self.config, &participants)?,
                    narrow: ComponentSolve::neutral(),
                },
                Mode::Capacitated { narrow_config, .. } => {
                    let (wide_ids, narrow_ids) = split_by_class(&self.problem, &participants);
                    CacheEntry {
                        wide: self.component_solve(RaiseRule::Unit, &self.config, &wide_ids)?,
                        narrow: self.component_solve(
                            RaiseRule::Narrow,
                            narrow_config,
                            &narrow_ids,
                        )?,
                    }
                }
            };
            components_resolved += 1;
            instances_resolved += participants.len();
            self.cache.insert(root, entry);
        }
        self.stats.resolves += 1;
        self.stats.components_resolved += components_resolved as u64;
        self.stats.instances_resolved += instances_resolved as u64;
        Ok(ResolveOutcome {
            lambda: self.lambda(),
            solution: self.solution(),
            components_resolved,
            instances_resolved,
            live_instances: self.problem.live_instances().len(),
        })
    }

    /// One class run over one component's participants (neutral when the
    /// class is empty — bitwise what the empty run would return).
    fn component_solve(
        &self,
        rule: RaiseRule,
        config: &FrameworkConfig,
        participants: &[InstanceId],
    ) -> Result<ComponentSolve, FrameworkError> {
        if participants.is_empty() {
            return Ok(ComponentSolve::neutral());
        }
        let outcome = run_two_phase(&self.problem, &self.layers, rule, config, participants)?;
        Ok(ComponentSolve {
            lambda: outcome.lambda,
            selected: outcome.solution.selected().to_vec(),
        })
    }

    /// The current global λ: min over the cached per-class component λs,
    /// `1.0` when nothing is cached. Bitwise equal to the reference λ
    /// after a [`DeltaEngine::resolve`] (min-folds of the same
    /// non-negative satisfaction multiset associate freely).
    pub fn lambda(&self) -> f64 {
        self.cache
            .values()
            .map(|c| c.wide.lambda.min(c.narrow.lambda))
            .fold(1.0f64, f64::min)
    }

    /// The current global schedule: the sorted union of the cached
    /// component selections; in capacitated mode, the per-network
    /// combination of the assembled wide and narrow class solutions
    /// (bitwise the reference combination, since both class unions are).
    pub fn solution(&self) -> Solution {
        let class_union = |pick: fn(&CacheEntry) -> &ComponentSolve| -> Solution {
            Solution::new(
                self.cache
                    .values()
                    .flat_map(|c| pick(c).selected.iter().copied())
                    .collect(),
            )
        };
        match self.mode {
            Mode::Unit => class_union(|c| &c.wide),
            Mode::Capacitated { .. } => {
                let wide = class_union(|c| &c.wide);
                let narrow = class_union(|c| &c.narrow);
                combine_by_network(&self.problem, &wide, &narrow)
            }
        }
    }

    /// The mode-independent from-scratch oracle: reference
    /// (non-incremental) two-phase runs over **all** live instances with
    /// the engine's own layering and configurations — one unit run in
    /// unit mode, a wide and a narrow run combined per network in
    /// capacitated mode. After any delta sequence and a
    /// [`DeltaEngine::resolve`], its `lambda` and `solution` must equal
    /// the warm results bit-for-bit.
    ///
    /// # Errors
    ///
    /// Propagates [`FrameworkError`].
    pub fn reference_solve(&self) -> Result<ReferenceSolve, FrameworkError> {
        let live = self.problem.live_instances();
        match &self.mode {
            Mode::Unit => {
                let out = run_two_phase_reference(
                    &self.problem,
                    &self.layers,
                    RaiseRule::Unit,
                    &self.config,
                    &live,
                )?;
                Ok(ReferenceSolve {
                    lambda: out.lambda,
                    solution: out.solution,
                })
            }
            Mode::Capacitated { narrow_config, .. } => {
                let (wide_ids, narrow_ids) = split_by_class(&self.problem, &live);
                let wide = run_two_phase_reference(
                    &self.problem,
                    &self.layers,
                    RaiseRule::Unit,
                    &self.config,
                    &wide_ids,
                )?;
                let narrow = run_two_phase_reference(
                    &self.problem,
                    &self.layers,
                    RaiseRule::Narrow,
                    narrow_config,
                    &narrow_ids,
                )?;
                Ok(ReferenceSolve {
                    lambda: wide.lambda.min(narrow.lambda),
                    solution: combine_by_network(&self.problem, &wide.solution, &narrow.solution),
                })
            }
        }
    }
}

/// Splits participant instances into (wide, narrow) by their demand's
/// height class, preserving order.
fn split_by_class(
    problem: &Problem,
    participants: &[InstanceId],
) -> (Vec<InstanceId>, Vec<InstanceId>) {
    let mut wide = Vec::new();
    let mut narrow = Vec::new();
    for &d in participants {
        match problem.demand(problem.instance(d).demand).height_class() {
            HeightClass::Wide => wide.push(d),
            HeightClass::Narrow => narrow.push(d),
        }
    }
    (wide, narrow)
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
            assert_eq!(e.family(), EngineFamily::Tree);
            assert_eq!(e.lmin(), None);
            assert_eq!(e.hmin(), None);
            let out = e.resolve().unwrap();
            assert!(out.components_resolved >= 1);
            assert!(out.solution.verify(e.problem()).is_ok());
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
        assert_eq!(e.family(), EngineFamily::Line);
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
        assert!(out.solution.is_empty());
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
            assert!(out.solution.verify(e.problem()).is_ok());
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
        // And a nonsensical floor is rejected outright.
        let p = capacitated_problem(1);
        assert!(matches!(
            DeltaEngine::new(p, &SolverConfig::default().with_hmin(0.0)),
            Err(DeltaEngineError::BadHmin { .. })
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
        assert_eq!(e.family(), EngineFamily::Line);
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
        let tree = seed_problem(11);
        let line = LineWorkload::new(40, 20)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(2, 10)
            .generate(&mut SmallRng::seed_from_u64(11));
        for (problem, family) in [(tree, EngineFamily::Tree), (line, EngineFamily::Line)] {
            let mut e = DeltaEngine::new(problem, &SolverConfig::default()).unwrap();
            assert_eq!(e.family(), family);
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
                    let demand = match family {
                        EngineFamily::Tree => Demand::pair(VertexId(u), VertexId(v), 1.5),
                        EngineFamily::Line => Demand::window(u, v - 1, (v - u).min(3), 1.5),
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
                "{family:?}: only {arrived} arrivals admitted"
            );
            let batch = LayeredDecomposition::new(e.problem(), &e.layering);
            assert_eq!(e.layers.len(), batch.len());
            for inst in e.problem().instances() {
                assert_eq!(e.layers.group_of(inst.id), batch.group_of(inst.id));
                assert_eq!(e.layers.critical_of(inst.id), batch.critical_of(inst.id));
            }
            assert_eq!(e.layers.num_groups(), batch.num_groups());
            assert_eq!(e.layers.delta(), batch.delta());
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
        assert_eq!(e.family(), EngineFamily::Line);
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
    fn error_displays_name_the_constraint() {
        let e = DeltaEngineError::HeightBelowFloor {
            height: 0.1,
            hmin: 0.2,
        };
        assert!(e.to_string().contains("hmin"));
        let e = DeltaEngineError::BadHmin { hmin: -1.0 };
        assert!(e.to_string().contains("(0, 1]"));
        let e = DeltaEngineError::InstanceTooShort { len: 2, lmin: 4.0 };
        assert!(e.to_string().contains("Lmin"));
        let e = DeltaEngineError::NonUnitHeight { height: 0.5 };
        assert!(e.to_string().contains("hmin"));
    }
}
