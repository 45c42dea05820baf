//! Validated problem instances with materialized demand instances.

use crate::demand::{window_starts, Demand, DemandKind};
use crate::{DemandId, InstanceId, NetworkId};
use std::fmt;
use treenet_graph::{EdgeId, PathView, RootedTree, Tree, TreePath, VertexId};

/// The most networks a problem holds: [`canonical_instance_key`] packs a
/// network id in 12 bits.
const MAX_NETWORKS: usize = 1 << 12;

/// Every window start lies below this slot: [`canonical_instance_key`]
/// packs a start in 20 bits.
const START_LIMIT: u32 = 1 << 20;

/// A materialized demand instance `d`: one copy of a demand on one
/// accessible network (Section 2 of the paper), with its routing path and
/// a bitmask over the network's edges for `O(E/64)` overlap tests.
///
/// A `Copy` view into its [`Problem`]'s flat instance store: the public
/// fields are the instance's record, and its path and bitmask are read
/// from the problem's shared arrays when asked for.
#[derive(Copy, Clone)]
pub struct DemandInstance<'p> {
    /// Dense instance id (index into [`Problem::instances`]).
    pub id: InstanceId,
    /// The demand `a_d` this instance belongs to.
    pub demand: DemandId,
    /// The network the instance is scheduled on.
    pub network: NetworkId,
    /// For window instances: the chosen start timeslot `s(d)`.
    pub start: Option<u32>,
    problem: &'p Problem,
}

impl<'p> DemandInstance<'p> {
    /// The routing path `path(d)` in the instance's network: its
    /// end-points and edges. To print its vertices, rebuild it as
    /// `problem.rooted(network).path(source, target)`.
    #[inline]
    pub fn path(&self) -> PathView<'p> {
        let (source, target) = match (self.problem.demand(self.demand).kind, self.start) {
            (DemandKind::Pair { u, v }, _) => (u, v),
            (DemandKind::Window { processing, .. }, Some(s)) => {
                (VertexId(s), VertexId(s + processing))
            }
            (DemandKind::Window { .. }, None) => unreachable!("a window instance has a start"),
        };
        PathView::new(source, target, self.problem.path_edges(self.id))
    }

    /// Whether the instance is active on edge `e` of its own network
    /// (the paper's `d ∼ e`).
    #[inline]
    pub fn active_on(&self, e: EdgeId) -> bool {
        self.problem.store.mask(self.id)[e.index() / 64] & (1 << (e.index() % 64)) != 0
    }

    /// A globally unique key computable from *public* information
    /// (demand id, network id, start slot) — unlike the dense
    /// [`InstanceId`], a distributed processor can derive it without
    /// global coordination. Used as the common-randomness key so the
    /// logical and message-passing executions draw identical Luby values.
    ///
    /// Layout: `demand (32 bits) | network (12 bits) | start (20 bits)`.
    #[inline]
    pub fn canonical_key(&self) -> u64 {
        canonical_instance_key(self.demand, self.network, self.start)
    }

    /// Whether this instance and `other` are *overlapping*: same network
    /// and at least one shared edge.
    #[inline]
    pub fn overlaps(&self, other: DemandInstance<'_>) -> bool {
        self.network == other.network
            && self
                .problem
                .store
                .mask(self.id)
                .iter()
                .zip(other.problem.store.mask(other.id))
                .any(|(a, b)| a & b != 0)
    }

    /// Number of edges on the routing path (the instance *length*
    /// `len(d)`, which for window instances equals the processing time).
    #[inline]
    pub fn len(&self) -> usize {
        self.problem.path_edges(self.id).len()
    }

    /// True when the path uses no edges (never the case for valid demands).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for DemandInstance<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DemandInstance")
            .field("id", &self.id)
            .field("demand", &self.demand)
            .field("network", &self.network)
            .field("start", &self.start)
            .field("path", &self.path())
            .finish()
    }
}

/// One instance in the flat store: the demand it copies, its network,
/// and its start slot (windows only).
#[derive(Copy, Clone, Debug)]
struct Record {
    demand: DemandId,
    network: NetworkId,
    start: Option<u32>,
}

/// Every demand instance of a [`Problem`] in flat arrays, in id order:
/// one [`Record`] per instance, every path's edges in one CSR array, and
/// every edge bitmask in one array of `words` words per instance. Path
/// vertices are not stored. Building or growing the store allocates per
/// array, never per instance.
#[derive(Clone, Debug)]
struct InstanceStore {
    records: Vec<Record>,
    /// Instance `d`'s path is `edges[offsets[d]..offsets[d + 1]]`, in
    /// path order.
    offsets: Vec<u32>,
    edges: Vec<EdgeId>,
    /// Instance `d`'s mask is `masks[d·words..(d + 1)·words]`: bit `e`
    /// set iff `d ∼ e`.
    masks: Vec<u64>,
    /// `⌈(n − 1)/64⌉`: every network spans the same `n` vertices, so
    /// every mask has the same width.
    words: usize,
}

impl InstanceStore {
    /// An empty store sized for exactly `instances` instances whose paths
    /// hold at most `edges` edges in total, with masks over `edge_count`
    /// edges.
    fn with_capacity(instances: usize, edges: usize, edge_count: usize) -> Self {
        let words = edge_count.div_ceil(64);
        let mut offsets = Vec::with_capacity(instances + 1);
        offsets.push(0);
        InstanceStore {
            records: Vec::with_capacity(instances),
            offsets,
            edges: Vec::with_capacity(edges),
            masks: Vec::with_capacity(instances * words),
            words,
        }
    }

    /// Makes room for `instances` more instances with at most `edges`
    /// more path edges, growing each array at most once.
    fn reserve(&mut self, instances: usize, edges: usize) {
        self.records.reserve(instances);
        self.offsets.reserve(instances);
        self.edges.reserve(edges);
        self.masks.reserve(instances * self.words);
    }

    fn len(&self) -> usize {
        self.records.len()
    }

    /// Appends the instance `record` routed along `path`.
    ///
    /// # Panics
    ///
    /// Panics if the store would hold more than `u32::MAX` path edges.
    fn push(&mut self, record: Record, path: &[EdgeId]) -> InstanceId {
        let id = InstanceId(self.records.len() as u32);
        self.records.push(record);
        self.edges.extend_from_slice(path);
        let end = u32::try_from(self.edges.len()).expect("at most u32::MAX path edges in total");
        self.offsets.push(end);
        let from = self.masks.len();
        self.masks.resize(from + self.words, 0);
        let mask = &mut self.masks[from..];
        for &e in path {
            mask[e.index() / 64] |= 1 << (e.index() % 64);
        }
        id
    }

    #[inline]
    fn edges(&self, d: InstanceId) -> &[EdgeId] {
        let i = d.index();
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    #[inline]
    fn mask(&self, d: InstanceId) -> &[u64] {
        let i = d.index();
        &self.masks[i * self.words..(i + 1) * self.words]
    }
}

/// The canonical common-randomness key of a demand instance, computable
/// from *public* information alone (demand id, network id, start slot).
/// This is the single definition shared by the logical schedulers (via
/// [`DemandInstance::canonical_key`]) and the message-passing processors
/// in `treenet-dist`, which derive neighbor keys from received demand
/// descriptors — both sides must pack identically for the executions to
/// draw the same Luby values.
///
/// Layout: `demand (32 bits) | network (12 bits) | start (20 bits)`.
/// [`ProblemBuilder`] and [`Problem::apply_delta`] refuse the networks
/// and window starts that would not fit, so distinct instances of one
/// problem have distinct keys.
#[inline]
pub fn canonical_instance_key(demand: DemandId, network: NetworkId, start: Option<u32>) -> u64 {
    debug_assert!(network.index() < MAX_NETWORKS, "at most 4096 networks");
    debug_assert!(start.unwrap_or(0) < START_LIMIT, "at most 2^20 timeslots");
    ((demand.0 as u64) << 32) | ((network.0 as u64) << 20) | start.unwrap_or(0) as u64
}

/// Error constructing a [`Problem`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelError {
    /// The problem needs at least one network.
    NoNetworks,
    /// All networks must span the same vertex set `V`.
    VertexCountMismatch {
        /// Vertex count of network 0.
        expected: usize,
        /// Vertex count of the offending network.
        got: usize,
        /// The offending network.
        network: NetworkId,
    },
    /// A demand failed its own validation (profit/height/window shape).
    InvalidDemand {
        /// Index the demand would have received.
        demand: DemandId,
        /// Human-readable reason.
        reason: String,
    },
    /// A demand end-point is not a vertex of the networks.
    EndpointOutOfRange {
        /// The offending demand.
        demand: DemandId,
        /// The offending vertex.
        vertex: VertexId,
    },
    /// Every processor must access at least one network.
    EmptyAccess {
        /// The offending demand/processor.
        demand: DemandId,
    },
    /// An access list referenced a network id that was never added.
    UnknownNetwork {
        /// The offending demand/processor.
        demand: DemandId,
        /// The unknown network id.
        network: NetworkId,
    },
    /// A window demand was given access to a network that is not a
    /// canonical line (`Tree::line` layout), so timeslots are undefined.
    WindowOnNonLine {
        /// The offending demand.
        demand: DemandId,
        /// The non-line network.
        network: NetworkId,
    },
    /// A window demand's deadline exceeds the timeline length.
    WindowOutOfRange {
        /// The offending demand.
        demand: DemandId,
        /// The deadline requested.
        deadline: u32,
        /// Number of timeslots available (edges of the line).
        slots: usize,
    },
    /// A delta referenced a demand id that was never admitted.
    UnknownDemand {
        /// The unknown demand id.
        demand: DemandId,
    },
    /// A departure delta targeted a demand that already departed.
    AlreadyDeparted {
        /// The doubly-departed demand.
        demand: DemandId,
    },
    /// A problem holds at most `limit` networks: an instance's
    /// canonical key packs its network id in 12 bits.
    TooManyNetworks {
        /// The most networks a problem holds.
        limit: usize,
    },
    /// A generated network would have fewer than two vertices (a line
    /// fewer than one timeslot): it would have no edge to route along.
    TooFewVertices {
        /// The vertex count asked for.
        vertices: usize,
    },
    /// A window demand could start at a slot its instances' canonical
    /// keys cannot hold: they pack a start in 20 bits.
    WindowStartOutOfRange {
        /// The offending demand.
        demand: DemandId,
        /// Its last start, `deadline + 1 − processing`.
        start: u32,
        /// Every start must lie below this slot.
        limit: u32,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NoNetworks => write!(f, "problem needs at least one network"),
            ModelError::VertexCountMismatch {
                expected,
                got,
                network,
            } => write!(
                f,
                "network {network} has {got} vertices, expected {expected} (all networks share V)"
            ),
            ModelError::InvalidDemand { demand, reason } => {
                write!(f, "demand {demand} is invalid: {reason}")
            }
            ModelError::EndpointOutOfRange { demand, vertex } => {
                write!(f, "demand {demand} end-point {vertex} is out of range")
            }
            ModelError::EmptyAccess { demand } => {
                write!(f, "demand {demand} must access at least one network")
            }
            ModelError::UnknownNetwork { demand, network } => {
                write!(f, "demand {demand} references unknown network {network}")
            }
            ModelError::WindowOnNonLine { demand, network } => {
                write!(
                    f,
                    "window demand {demand} requires canonical line, network {network} is not"
                )
            }
            ModelError::WindowOutOfRange {
                demand,
                deadline,
                slots,
            } => {
                write!(
                    f,
                    "window demand {demand} deadline {deadline} exceeds {slots} timeslots"
                )
            }
            ModelError::UnknownDemand { demand } => {
                write!(f, "demand {demand} was never admitted")
            }
            ModelError::AlreadyDeparted { demand } => {
                write!(f, "demand {demand} has already departed")
            }
            ModelError::TooManyNetworks { limit } => {
                write!(f, "a problem holds at most {limit} networks")
            }
            ModelError::TooFewVertices { vertices } => write!(
                f,
                "a network needs at least 2 vertices (a line at least 1 timeslot), got {vertices}"
            ),
            ModelError::WindowStartOutOfRange {
                demand,
                start,
                limit,
            } => write!(
                f,
                "window demand {demand} could start at timeslot {start}; starts must lie below {limit}"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

/// Incremental builder for [`Problem`] (see the crate-level example).
#[derive(Debug, Default)]
pub struct ProblemBuilder {
    networks: Vec<Tree>,
    demands: Vec<Demand>,
    access: Vec<Vec<NetworkId>>,
}

impl ProblemBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a network and returns its id.
    ///
    /// # Errors
    ///
    /// Fails with [`ModelError::TooManyNetworks`] past 4,096 networks, or
    /// with [`ModelError::VertexCountMismatch`] if the tree's vertex count
    /// differs from previously added networks.
    pub fn add_network(&mut self, tree: Tree) -> Result<NetworkId, ModelError> {
        if self.networks.len() >= MAX_NETWORKS {
            return Err(ModelError::TooManyNetworks {
                limit: MAX_NETWORKS,
            });
        }
        if let Some(first) = self.networks.first() {
            if first.len() != tree.len() {
                return Err(ModelError::VertexCountMismatch {
                    expected: first.len(),
                    got: tree.len(),
                    network: NetworkId(self.networks.len() as u32),
                });
            }
        }
        let id = NetworkId(self.networks.len() as u32);
        self.networks.push(tree);
        Ok(id)
    }

    /// Adds a demand owned by a fresh processor with the given accessible
    /// networks, returning the demand id.
    ///
    /// # Errors
    ///
    /// Fails if the demand is self-invalid, the access list is empty, or it
    /// references an unknown network. (Range checks against the vertex set
    /// happen in [`ProblemBuilder::build`].)
    pub fn add_demand(
        &mut self,
        demand: Demand,
        access: &[NetworkId],
    ) -> Result<DemandId, ModelError> {
        let id = DemandId(self.demands.len() as u32);
        demand
            .validate()
            .map_err(|reason| ModelError::InvalidDemand { demand: id, reason })?;
        if access.is_empty() {
            return Err(ModelError::EmptyAccess { demand: id });
        }
        let mut acc: Vec<NetworkId> = access.to_vec();
        acc.sort_unstable();
        acc.dedup();
        for &t in &acc {
            if t.index() >= self.networks.len() {
                return Err(ModelError::UnknownNetwork {
                    demand: id,
                    network: t,
                });
            }
        }
        self.demands.push(demand);
        self.access.push(acc);
        Ok(id)
    }

    /// Validates everything and materializes the demand instances.
    ///
    /// # Errors
    ///
    /// See [`ModelError`] for the conditions checked.
    pub fn build(self) -> Result<Problem, ModelError> {
        if self.networks.is_empty() {
            return Err(ModelError::NoNetworks);
        }
        for (ai, demand) in self.demands.iter().enumerate() {
            validate_demand_shape(
                DemandId(ai as u32),
                demand,
                &self.access[ai],
                &self.networks,
            )?;
        }
        let rooted: Vec<RootedTree> = self
            .networks
            .iter()
            .map(|t| RootedTree::new(t, VertexId(0)))
            .collect();
        // Every list is sized before the first instance exists, so none is
        // regrown mid-build: exactly, but for the path edges, which are
        // reserved by a bound and shrunk to fit afterwards.
        let mut network_sizes = vec![0usize; self.networks.len()];
        let (mut instance_total, mut edge_total) = (0, 0);
        let mut by_demand: Vec<Vec<InstanceId>> = self
            .demands
            .iter()
            .zip(&self.access)
            .map(|(demand, access)| {
                let mut row = 0;
                for &t in access {
                    let (instances, edges) = instance_sizes(demand, &rooted[t.index()]);
                    network_sizes[t.index()] += instances;
                    row += instances;
                    edge_total += edges;
                }
                instance_total += row;
                Vec::with_capacity(row)
            })
            .collect();
        let mut by_network: Vec<Vec<InstanceId>> = network_sizes
            .iter()
            .map(|&size| Vec::with_capacity(size))
            .collect();
        let mut store =
            InstanceStore::with_capacity(instance_total, edge_total, self.networks[0].edge_count());
        let mut path = TreePath::new(vec![VertexId(0)], Vec::new());
        for (ai, demand) in self.demands.iter().enumerate() {
            materialize_demand(
                DemandId(ai as u32),
                demand,
                &self.access[ai],
                &rooted,
                &mut store,
                &mut by_demand[ai],
                &mut by_network,
                &mut path,
            );
        }
        store.edges.shrink_to_fit();

        Ok(Problem {
            departed: vec![false; self.demands.len()],
            live_demands: self.demands.len(),
            live_instances: store.len(),
            networks: self.networks,
            rooted,
            demands: self.demands,
            access: self.access,
            store,
            by_demand,
            by_network,
        })
    }
}

/// Build-time validation shared by [`ProblemBuilder::build`] and
/// [`Problem::apply_delta`]: endpoint range checks for pair demands and
/// line/timeline checks for window demands. Runs *before* any state is
/// mutated so a rejected arrival leaves the problem untouched.
fn validate_demand_shape(
    a: DemandId,
    demand: &Demand,
    access: &[NetworkId],
    networks: &[Tree],
) -> Result<(), ModelError> {
    let n = networks[0].len();
    match demand.kind {
        DemandKind::Pair { u, v } => {
            for &vx in [u, v].iter() {
                if vx.index() >= n {
                    return Err(ModelError::EndpointOutOfRange {
                        demand: a,
                        vertex: vx,
                    });
                }
            }
        }
        DemandKind::Window {
            deadline,
            processing,
            ..
        } => {
            for &t in access {
                let tree = &networks[t.index()];
                if !tree.is_canonical_line() {
                    return Err(ModelError::WindowOnNonLine {
                        demand: a,
                        network: t,
                    });
                }
                let slots = tree.edge_count();
                if deadline as usize >= slots {
                    return Err(ModelError::WindowOutOfRange {
                        demand: a,
                        deadline,
                        slots,
                    });
                }
            }
            // `Demand::validate` passed, so `processing - 1 ≤ deadline`.
            let last_start = deadline - (processing - 1);
            if last_start >= START_LIMIT {
                return Err(ModelError::WindowStartOutOfRange {
                    demand: a,
                    start: last_start,
                    limit: START_LIMIT,
                });
            }
        }
    }
    Ok(())
}

/// Materializes the instances of one (pre-validated) demand, appending to
/// the instance store and the per-demand / per-network indexes, through
/// the refilled buffer `path`. The single definition shared by the batch
/// builder and the arrival delta path, so an admitted demand gets
/// bit-identical instances either way.
#[allow(clippy::too_many_arguments)]
fn materialize_demand(
    a: DemandId,
    demand: &Demand,
    access: &[NetworkId],
    rooted: &[RootedTree],
    store: &mut InstanceStore,
    demand_row: &mut Vec<InstanceId>,
    by_network: &mut [Vec<InstanceId>],
    path: &mut TreePath,
) {
    for &network in access {
        demand.for_each_instance_path_in(&rooted[network.index()], path, |path, start| {
            let record = Record {
                demand: a,
                network,
                start,
            };
            let id = store.push(record, path.edges());
            demand_row.push(id);
            by_network[network.index()].push(id);
        });
    }
}

/// How many instances a (pre-validated) demand materializes on the
/// network `rooted` views, and a bound on the path edges they hold in
/// total: one `u ↝ v` path for a pair, of at most `depth(u) + depth(v)`
/// edges (exact would take an LCA per pair), and one `ρ`-slot path per
/// start for a window.
fn instance_sizes(demand: &Demand, rooted: &RootedTree) -> (usize, usize) {
    match demand.kind {
        DemandKind::Pair { u, v } => (1, (rooted.depth(u) + rooted.depth(v)) as usize),
        DemandKind::Window {
            release,
            deadline,
            processing,
        } => {
            let starts = window_starts(release, deadline, processing).len();
            (starts, starts * processing as usize)
        }
    }
}

/// One online change to a [`Problem`]: a demand arriving (with its
/// accessible networks) or a previously admitted demand departing.
///
/// Applied with [`Problem::apply_delta`]. The problem is append-only:
/// arrivals extend the demand/instance arrays (so every id ever issued
/// stays stable, which keeps [`canonical_instance_key`] stable too), and
/// departures set a tombstone instead of removing state.
#[derive(Clone, Debug)]
pub enum ProblemDelta {
    /// A new demand arrives and is admitted with the given access list.
    Arrival {
        /// The arriving demand.
        demand: Demand,
        /// Networks the owning processor can access.
        access: Vec<NetworkId>,
    },
    /// The demand departs: its instances stop participating in any
    /// subsequent solve.
    Departure {
        /// The departing demand.
        demand: DemandId,
    },
}

/// What a successfully applied delta touched — the "affected
/// neighborhood" an incremental solver needs to invalidate.
#[derive(Clone, Debug)]
pub struct DeltaEffect {
    /// The demand admitted (arrival) or tombstoned (departure).
    pub demand: DemandId,
    /// Instances materialized by an arrival, in id order (empty for a
    /// departure).
    pub new_instances: Vec<InstanceId>,
}

/// A validated problem instance: networks, demands with accessibility, and
/// all materialized demand instances (the set `D` of the paper).
#[derive(Clone, Debug)]
pub struct Problem {
    networks: Vec<Tree>,
    rooted: Vec<RootedTree>,
    demands: Vec<Demand>,
    access: Vec<Vec<NetworkId>>,
    store: InstanceStore,
    by_demand: Vec<Vec<InstanceId>>,
    by_network: Vec<Vec<InstanceId>>,
    /// Tombstones: `departed[a]` iff demand `a` has departed. The demand
    /// and its instances stay materialized (ids are append-only-stable);
    /// online solvers simply exclude them from the participant set.
    departed: Vec<bool>,
    /// Number of live demands, kept by [`Problem::apply_delta`].
    live_demands: usize,
    /// Number of instances of live demands, kept by
    /// [`Problem::apply_delta`].
    live_instances: usize,
}

impl Problem {
    /// Number of vertices `n` of the common vertex set.
    pub fn vertex_count(&self) -> usize {
        self.networks[0].len()
    }

    /// Number of networks `r`.
    pub fn network_count(&self) -> usize {
        self.networks.len()
    }

    /// Number of demands `m` (= number of processors).
    pub fn demand_count(&self) -> usize {
        self.demands.len()
    }

    /// Number of materialized demand instances `|D|`.
    pub fn instance_count(&self) -> usize {
        self.store.len()
    }

    /// The tree of network `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn network(&self, t: NetworkId) -> &Tree {
        &self.networks[t.index()]
    }

    /// A rooted view (root = vertex 0) of network `t`, shared by all
    /// processors for deterministic path and decomposition computations.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn rooted(&self, t: NetworkId) -> &RootedTree {
        &self.rooted[t.index()]
    }

    /// The demand `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn demand(&self, a: DemandId) -> &Demand {
        &self.demands[a.index()]
    }

    /// The demand instance `d`, as a view into the problem.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    #[inline]
    pub fn instance(&self, d: InstanceId) -> DemandInstance<'_> {
        let Record {
            demand,
            network,
            start,
        } = self.store.records[d.index()];
        DemandInstance {
            id: d,
            demand,
            network,
            start,
            problem: self,
        }
    }

    /// Iterator over all demand instances in id order.
    pub fn instances(&self) -> impl ExactSizeIterator<Item = DemandInstance<'_>> {
        (0..self.store.len() as u32).map(|d| self.instance(InstanceId(d)))
    }

    /// The edges of `path(d)`, in path order: what the dual constraint
    /// `α(a_d) + h·Σ_{e ∈ path(d)} β(e)` sums over.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    #[inline]
    pub fn path_edges(&self, d: InstanceId) -> &[EdgeId] {
        self.store.edges(d)
    }

    /// Iterator over all demand ids.
    pub fn demands(&self) -> impl ExactSizeIterator<Item = DemandId> {
        (0..self.demands.len() as u32).map(DemandId)
    }

    /// Iterator over all network ids.
    pub fn networks(&self) -> impl ExactSizeIterator<Item = NetworkId> {
        (0..self.networks.len() as u32).map(NetworkId)
    }

    /// The instances of demand `a` (the paper's `Inst(a)`).
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn instances_of(&self, a: DemandId) -> &[InstanceId] {
        &self.by_demand[a.index()]
    }

    /// The instances on network `t` (the paper's `D(T)`).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn instances_on(&self, t: NetworkId) -> &[InstanceId] {
        &self.by_network[t.index()]
    }

    /// The networks accessible to the processor owning demand `a`
    /// (the paper's `Acc(P)`), sorted.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn access(&self, a: DemandId) -> &[NetworkId] {
        &self.access[a.index()]
    }

    /// Profit of instance `d` (same as its demand's profit).
    #[inline]
    pub fn profit_of(&self, d: InstanceId) -> f64 {
        self.demands[self.store.records[d.index()].demand.index()].profit
    }

    /// Height of instance `d` (same as its demand's height).
    #[inline]
    pub fn height_of(&self, d: InstanceId) -> f64 {
        self.demands[self.store.records[d.index()].demand.index()].height
    }

    /// `(pmin, pmax)` over all demands; `(0, 0)` when there are none.
    pub fn profit_bounds(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for d in &self.demands {
            lo = lo.min(d.profit);
            hi = hi.max(d.profit);
        }
        if self.demands.is_empty() {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }

    /// `(Lmin, Lmax)` over all instance path lengths; `(0, 0)` when there
    /// are no instances.
    pub fn length_bounds(&self) -> (usize, usize) {
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        for run in self.store.offsets.windows(2) {
            let len = (run[1] - run[0]) as usize;
            lo = lo.min(len);
            hi = hi.max(len);
        }
        if self.store.len() == 0 {
            (0, 0)
        } else {
            (lo, hi)
        }
    }

    /// Minimum height over all demands (`hmin`); 1.0 when there are none.
    pub fn min_height(&self) -> f64 {
        self.demands.iter().map(|d| d.height).fold(1.0, f64::min)
    }

    /// Whether every demand has unit height.
    pub fn is_unit_height(&self) -> bool {
        self.demands.iter().all(Demand::is_unit_height)
    }

    /// Sum of all demand profits (an upper bound on any solution).
    pub fn total_profit(&self) -> f64 {
        self.demands.iter().map(|d| d.profit).sum()
    }

    /// The paper's *conflicting* relation: same demand, or overlapping
    /// paths on the same network.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn conflicting(&self, a: InstanceId, b: InstanceId) -> bool {
        if a == b {
            return true;
        }
        let (da, db) = (self.instance(a), self.instance(b));
        da.demand == db.demand || da.overlaps(db)
    }

    /// Whether demand `a` has departed (tombstoned by a
    /// [`ProblemDelta::Departure`]).
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[inline]
    pub fn is_departed(&self, a: DemandId) -> bool {
        self.departed[a.index()]
    }

    /// Whether instance `d` belongs to a live (non-departed) demand.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    #[inline]
    pub fn is_live_instance(&self, d: InstanceId) -> bool {
        !self.departed[self.store.records[d.index()].demand.index()]
    }

    /// Number of live (non-departed) demands, in `O(1)`.
    pub fn live_demand_count(&self) -> usize {
        self.live_demands
    }

    /// Number of instances of live demands — the length of
    /// [`Problem::live_instances`] — in `O(1)`.
    pub fn live_instance_count(&self) -> usize {
        self.live_instances
    }

    /// Iterator over live demand ids, in id order.
    pub fn live_demands(&self) -> impl Iterator<Item = DemandId> + '_ {
        self.departed
            .iter()
            .enumerate()
            .filter(|(_, &gone)| !gone)
            .map(|(i, _)| DemandId(i as u32))
    }

    /// All instances of live demands, in instance-id order — the
    /// participant set an online solve runs over.
    pub fn live_instances(&self) -> Vec<InstanceId> {
        (0..self.store.len() as u32)
            .map(InstanceId)
            .filter(|&d| self.is_live_instance(d))
            .collect()
    }

    /// Applies one online [`ProblemDelta`] and reports the affected
    /// neighborhood.
    ///
    /// An **arrival** is validated exactly like
    /// [`ProblemBuilder::add_demand`] + [`ProblemBuilder::build`] (so the
    /// grown problem is bit-identical to one built from scratch with the
    /// same demand sequence), then materialized append-only. A
    /// **departure** sets a tombstone and touches no index at all.
    ///
    /// # Errors
    ///
    /// Arrival: any [`ModelError`] the batch builder would raise for the
    /// same demand. Departure: [`ModelError::UnknownDemand`] /
    /// [`ModelError::AlreadyDeparted`]. A rejected delta leaves the
    /// problem unchanged.
    pub fn apply_delta(&mut self, delta: ProblemDelta) -> Result<DeltaEffect, ModelError> {
        match delta {
            ProblemDelta::Arrival { demand, access } => self.apply_arrival(demand, access),
            ProblemDelta::Departure { demand } => self.apply_departure(demand),
        }
    }

    fn apply_arrival(
        &mut self,
        demand: Demand,
        access: Vec<NetworkId>,
    ) -> Result<DeltaEffect, ModelError> {
        let a = DemandId(self.demands.len() as u32);
        demand
            .validate()
            .map_err(|reason| ModelError::InvalidDemand { demand: a, reason })?;
        if access.is_empty() {
            return Err(ModelError::EmptyAccess { demand: a });
        }
        let mut acc = access;
        acc.sort_unstable();
        acc.dedup();
        for &t in &acc {
            if t.index() >= self.networks.len() {
                return Err(ModelError::UnknownNetwork {
                    demand: a,
                    network: t,
                });
            }
        }
        validate_demand_shape(a, &demand, &acc, &self.networks)?;

        // All checks passed — mutate. Everything below is infallible, so
        // a rejected arrival above left the problem untouched. Each list
        // grows at most once, however many instances the demand has.
        let first_new = self.store.len();
        let (mut instances, mut edges) = (0, 0);
        for &t in &acc {
            let (on_t, edges_on_t) = instance_sizes(&demand, &self.rooted[t.index()]);
            self.by_network[t.index()].reserve(on_t);
            instances += on_t;
            edges += edges_on_t;
        }
        self.store.reserve(instances, edges);
        let mut row = Vec::with_capacity(instances);
        materialize_demand(
            a,
            &demand,
            &acc,
            &self.rooted,
            &mut self.store,
            &mut row,
            &mut self.by_network,
            &mut TreePath::new(vec![VertexId(0)], Vec::new()),
        );
        let new_instances = row.clone();
        self.demands.push(demand);
        self.by_demand.push(row);
        self.departed.push(false);
        self.live_demands += 1;
        self.live_instances += new_instances.len();
        debug_assert_eq!(self.store.len() - first_new, new_instances.len());
        self.access.push(acc);
        Ok(DeltaEffect {
            demand: a,
            new_instances,
        })
    }

    fn apply_departure(&mut self, a: DemandId) -> Result<DeltaEffect, ModelError> {
        if a.index() >= self.demands.len() {
            return Err(ModelError::UnknownDemand { demand: a });
        }
        if self.departed[a.index()] {
            return Err(ModelError::AlreadyDeparted { demand: a });
        }
        self.departed[a.index()] = true;
        self.live_demands -= 1;
        self.live_instances -= self.by_demand[a.index()].len();
        Ok(DeltaEffect {
            demand: a,
            new_instances: Vec::new(),
        })
    }

    /// The processor communication graph: processors (demands) `P₁, P₂`
    /// are adjacent iff `Acc(P₁) ∩ Acc(P₂) ≠ ∅`. Returned as sorted
    /// adjacency lists indexed by demand.
    pub fn communication_graph(&self) -> Vec<Vec<DemandId>> {
        let m = self.demands.len();
        let mut by_network: Vec<Vec<DemandId>> = vec![Vec::new(); self.networks.len()];
        for (ai, acc) in self.access.iter().enumerate() {
            for &t in acc {
                by_network[t.index()].push(DemandId(ai as u32));
            }
        }
        let mut adj: Vec<Vec<DemandId>> = vec![Vec::new(); m];
        for members in &by_network {
            for &p in members {
                for &q in members {
                    if p != q {
                        adj[p.index()].push(q);
                    }
                }
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Demand;

    fn two_line_problem() -> Problem {
        let mut b = ProblemBuilder::new();
        let t0 = b.add_network(Tree::line(6)).unwrap();
        let t1 = b.add_network(Tree::line(6)).unwrap();
        b.add_demand(Demand::pair(VertexId(0), VertexId(3), 4.0), &[t0, t1])
            .unwrap();
        b.add_demand(Demand::pair(VertexId(2), VertexId(5), 2.0), &[t0])
            .unwrap();
        b.add_demand(Demand::pair(VertexId(4), VertexId(5), 1.0), &[t1])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn paths_run_between_their_end_points() {
        use crate::workload::{LineWorkload, TreeWorkload};
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(4);
        let tree = TreeWorkload::new(20, 30)
            .with_networks(2)
            .generate(&mut rng);
        let windows = LineWorkload::new(30, 12)
            .with_resources(2)
            .with_window_slack(3)
            .generate(&mut rng);
        for p in [two_line_problem(), tree, windows] {
            for inst in p.instances() {
                let path = inst.path();
                let route = p.rooted(inst.network).path(path.source(), path.target());
                assert_eq!(path.edges(), route.edges());
                if let Some(s) = inst.start {
                    assert_eq!(path.source(), VertexId(s));
                }
            }
        }
    }

    #[test]
    fn builder_materializes_instances() {
        let p = two_line_problem();
        assert_eq!(p.vertex_count(), 6);
        assert_eq!(p.network_count(), 2);
        assert_eq!(p.demand_count(), 3);
        // Demand 0 has two instances (both networks), 1 and 2 have one.
        assert_eq!(p.instance_count(), 4);
        assert_eq!(p.instances_of(DemandId(0)).len(), 2);
        assert_eq!(p.instances_of(DemandId(1)).len(), 1);
        assert_eq!(p.instances_on(NetworkId(0)).len(), 2);
        assert_eq!(p.instances_on(NetworkId(1)).len(), 2);
        assert_eq!(p.access(DemandId(0)), &[NetworkId(0), NetworkId(1)]);
        assert!(p.is_unit_height());
        assert_eq!(p.profit_bounds(), (1.0, 4.0));
        assert_eq!(p.length_bounds(), (1, 3));
        assert_eq!(p.total_profit(), 7.0);
        assert_eq!(p.min_height(), 1.0);
        assert_eq!(p.demands().count(), 3);
        assert_eq!(p.networks().count(), 2);
    }

    #[test]
    fn conflict_relation() {
        let p = two_line_problem();
        let d0 = p.instances_of(DemandId(0)); // on t0: [0,3); on t1: [0,3)
        let d1 = p.instances_of(DemandId(1))[0]; // on t0: [2,5)
        let d2 = p.instances_of(DemandId(2))[0]; // on t1: [4,5)
                                                 // Same demand conflicts.
        assert!(p.conflicting(d0[0], d0[1]));
        // Overlap on t0 (share edge 2).
        assert!(p.conflicting(d0[0], d1));
        // Different networks never overlap.
        assert!(!p.conflicting(d1, d2));
        // d0 on t1 covers edges 0..2, d2 covers edge 4: no conflict.
        assert!(!p.conflicting(d0[1], d2));
        // Reflexive by convention.
        assert!(p.conflicting(d1, d1));
    }

    #[test]
    fn active_on_matches_path() {
        let p = two_line_problem();
        let inst = p.instance(p.instances_of(DemandId(1))[0]);
        assert!(inst.active_on(EdgeId(2)));
        assert!(inst.active_on(EdgeId(4)));
        assert!(!inst.active_on(EdgeId(0)));
        assert_eq!(inst.len(), 3);
        assert!(!inst.is_empty());
    }

    #[test]
    fn window_demands_expand_to_start_times() {
        let mut b = ProblemBuilder::new();
        let t = b.add_network(Tree::line(11)).unwrap(); // 10 timeslots
        b.add_demand(Demand::window(2, 6, 3, 1.0), &[t]).unwrap();
        let p = b.build().unwrap();
        // Starts 2, 3, 4 fit [s, s+2] inside [2, 6].
        assert_eq!(p.instance_count(), 3);
        let starts: Vec<u32> = p.instances().map(|d| d.start.unwrap()).collect();
        assert_eq!(starts, vec![2, 3, 4]);
        for inst in p.instances() {
            assert_eq!(inst.len(), 3);
            let s = inst.start.unwrap();
            assert!(inst.active_on(EdgeId(s)));
            assert!(inst.active_on(EdgeId(s + 2)));
        }
    }

    #[test]
    fn build_sizes_every_list_exactly() {
        let mut b = ProblemBuilder::new();
        let t0 = b.add_network(Tree::line(11)).unwrap();
        let t1 = b.add_network(Tree::line(11)).unwrap();
        let _idle = b.add_network(Tree::line(11)).unwrap();
        b.add_demand(Demand::pair(VertexId(0), VertexId(3), 4.0), &[t0, t1])
            .unwrap();
        b.add_demand(Demand::window(2, 6, 3, 1.0), &[t1, t0])
            .unwrap();
        b.add_demand(Demand::window(0, 9, 1, 2.0), &[t0]).unwrap();
        b.add_demand(Demand::pair(VertexId(7), VertexId(2), 1.0), &[t1])
            .unwrap();
        let p = b.build().unwrap();
        assert_eq!(p.instance_count(), 2 + 2 * 3 + 10 + 1);
        let store = &p.store;
        assert_eq!(store.records.capacity(), store.records.len());
        assert_eq!(store.offsets.capacity(), store.len() + 1);
        // Pairs 0 ↝ 3 and 7 ↝ 2, 3-slot and 1-slot windows.
        assert_eq!(store.edges.len(), 2 * 3 + 2 * 3 * 3 + 10 + 5);
        assert_eq!(store.edges.capacity(), store.edges.len());
        assert_eq!(store.masks.len(), store.len() * store.words);
        assert_eq!(store.masks.capacity(), store.masks.len());
        for row in p.by_network.iter().chain(&p.by_demand) {
            assert_eq!(row.capacity(), row.len());
        }
    }

    #[test]
    fn window_on_non_line_is_rejected() {
        let mut b = ProblemBuilder::new();
        let star = Tree::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let t = b.add_network(star).unwrap();
        b.add_demand(Demand::window(0, 1, 1, 1.0), &[t]).unwrap();
        assert!(matches!(b.build(), Err(ModelError::WindowOnNonLine { .. })));
    }

    #[test]
    fn window_deadline_must_fit_timeline() {
        let mut b = ProblemBuilder::new();
        let t = b.add_network(Tree::line(5)).unwrap(); // 4 timeslots: 0..3
        b.add_demand(Demand::window(1, 4, 2, 1.0), &[t]).unwrap();
        assert!(matches!(
            b.build(),
            Err(ModelError::WindowOutOfRange { .. })
        ));
    }

    #[test]
    fn builder_rejects_mismatched_vertex_counts() {
        let mut b = ProblemBuilder::new();
        b.add_network(Tree::line(4)).unwrap();
        assert!(matches!(
            b.add_network(Tree::line(5)),
            Err(ModelError::VertexCountMismatch { .. })
        ));
    }

    #[test]
    fn builder_rejects_bad_access() {
        let mut b = ProblemBuilder::new();
        let _ = b.add_network(Tree::line(4)).unwrap();
        assert!(matches!(
            b.add_demand(Demand::pair(VertexId(0), VertexId(1), 1.0), &[]),
            Err(ModelError::EmptyAccess { .. })
        ));
        assert!(matches!(
            b.add_demand(Demand::pair(VertexId(0), VertexId(1), 1.0), &[NetworkId(7)]),
            Err(ModelError::UnknownNetwork { .. })
        ));
    }

    #[test]
    fn builder_rejects_out_of_range_endpoints() {
        let mut b = ProblemBuilder::new();
        let t = b.add_network(Tree::line(4)).unwrap();
        b.add_demand(Demand::pair(VertexId(0), VertexId(9), 1.0), &[t])
            .unwrap();
        assert!(matches!(
            b.build(),
            Err(ModelError::EndpointOutOfRange { .. })
        ));
    }

    #[test]
    fn build_reports_the_first_invalid_demand() {
        let mut b = ProblemBuilder::new();
        let t = b.add_network(Tree::line(5)).unwrap(); // 4 timeslots: 0..3
        b.add_demand(Demand::pair(VertexId(0), VertexId(1), 1.0), &[t])
            .unwrap();
        b.add_demand(Demand::window(1, 4, 2, 1.0), &[t]).unwrap();
        b.add_demand(Demand::pair(VertexId(0), VertexId(9), 1.0), &[t])
            .unwrap();
        assert!(matches!(
            b.build(),
            Err(ModelError::WindowOutOfRange {
                demand: DemandId(1),
                ..
            })
        ));
    }

    #[test]
    fn window_bounds_near_u32_max_are_refused_for_the_right_reason() {
        // `release + processing` and `deadline + 1` wrap in u32: each
        // window is refused for its real reason, by the builder and by an
        // arrival alike, never admitted without an instance or panicking.
        let windows = [
            (u32::MAX, 5, 1, "too short"),
            (u32::MAX - 1, 5, 2, "too short"),
            (0, u32::MAX, 1, "exceeds 5 timeslots"),
        ];
        for (release, deadline, processing, reason) in windows {
            let demand = Demand::window(release, deadline, processing, 1.0);
            let mut b = ProblemBuilder::new();
            let t = b.add_network(Tree::line(6)).unwrap();
            let built = b.add_demand(demand, &[t]).and_then(|_| b.build());
            let mut p = two_line_problem();
            let arrived = p.apply_delta(ProblemDelta::Arrival {
                demand,
                access: vec![t],
            });
            for err in [built.unwrap_err(), arrived.unwrap_err()] {
                assert!(err.to_string().contains(reason), "{err}");
            }
            assert_eq!(p.demand_count(), 3);
        }
    }

    #[test]
    fn networks_past_the_key_width_are_refused() {
        // Network 4096 would carry into the demand bits of the canonical
        // key: demand 1's instance on it would share demand 0's key on
        // network 1, and the MIS would never order the two.
        let mut b = ProblemBuilder::new();
        for _ in 0..4096 {
            b.add_network(Tree::line(2)).unwrap();
        }
        assert_eq!(
            b.add_network(Tree::line(2)),
            Err(ModelError::TooManyNetworks { limit: 4096 })
        );
        let pair = Demand::pair(VertexId(0), VertexId(1), 1.0);
        b.add_demand(pair, &[NetworkId(1)]).unwrap();
        b.add_demand(pair, &[NetworkId(0), NetworkId(4095)])
            .unwrap();
        let p = b.build().unwrap();
        let mut keys: Vec<u64> = p.instances().map(|d| d.canonical_key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 3);
    }

    #[test]
    fn window_starts_past_the_key_width_are_refused() {
        // A line of 2^20 + 1 timeslots: the last one, 2^20, is the first
        // start the key's 20 start bits cannot hold.
        let limit = START_LIMIT;
        let line = Tree::line(limit as usize + 2);
        let late = Demand::window(0, limit, 1, 1.0);
        let refusal = ModelError::WindowStartOutOfRange {
            demand: DemandId(1),
            start: limit,
            limit,
        };
        let mut b = ProblemBuilder::new();
        let t = b.add_network(line.clone()).unwrap();
        b.add_demand(Demand::pair(VertexId(0), VertexId(1), 1.0), &[t])
            .unwrap();
        b.add_demand(late, &[t]).unwrap();
        assert_eq!(b.build().unwrap_err(), refusal);

        // The same deadline with two slots of processing last starts at
        // 2^20 − 1, which fits.
        let mut b = ProblemBuilder::new();
        let t = b.add_network(line).unwrap();
        b.add_demand(Demand::pair(VertexId(0), VertexId(1), 1.0), &[t])
            .unwrap();
        let mut p = b.build().unwrap();
        let before = (p.demand_count(), p.instance_count(), p.store.edges.len());
        let arrival = |demand| ProblemDelta::Arrival {
            demand,
            access: vec![t],
        };
        assert_eq!(p.apply_delta(arrival(late)).unwrap_err(), refusal);
        let after = (p.demand_count(), p.instance_count(), p.store.edges.len());
        assert_eq!(after, before);
        let fits = p.apply_delta(arrival(Demand::window(limit - 2, limit, 2, 1.0)));
        let starts: Vec<_> = fits
            .unwrap()
            .new_instances
            .iter()
            .map(|&d| p.instance(d).start)
            .collect();
        assert_eq!(starts, [Some(limit - 2), Some(limit - 1)]);
    }

    #[test]
    fn build_requires_networks() {
        assert!(matches!(
            ProblemBuilder::new().build(),
            Err(ModelError::NoNetworks)
        ));
    }

    #[test]
    fn communication_graph_links_shared_access() {
        let p = two_line_problem();
        let g = p.communication_graph();
        // Demand 0 shares t0 with demand 1 and t1 with demand 2.
        assert_eq!(g[0], vec![DemandId(1), DemandId(2)]);
        assert_eq!(g[1], vec![DemandId(0)]);
        assert_eq!(g[2], vec![DemandId(0)]);
    }

    /// Builds the same three demands as [`two_line_problem`] but online:
    /// start from the first demand only, then admit the rest as deltas.
    fn grown_two_line_problem() -> Problem {
        let mut b = ProblemBuilder::new();
        let t0 = b.add_network(Tree::line(6)).unwrap();
        let t1 = b.add_network(Tree::line(6)).unwrap();
        b.add_demand(Demand::pair(VertexId(0), VertexId(3), 4.0), &[t0, t1])
            .unwrap();
        let mut p = b.build().unwrap();
        let eff = p
            .apply_delta(ProblemDelta::Arrival {
                demand: Demand::pair(VertexId(2), VertexId(5), 2.0),
                access: vec![t0],
            })
            .unwrap();
        assert_eq!(eff.demand, DemandId(1));
        let eff = p
            .apply_delta(ProblemDelta::Arrival {
                demand: Demand::pair(VertexId(4), VertexId(5), 1.0),
                access: vec![t1],
            })
            .unwrap();
        assert_eq!(eff.demand, DemandId(2));
        assert_eq!(eff.new_instances.len(), 1);
        p
    }

    #[test]
    fn arrivals_grow_bit_identically_to_batch_build() {
        let batch = two_line_problem();
        let grown = grown_two_line_problem();
        assert_eq!(grown.instance_count(), batch.instance_count());
        assert_eq!(grown.live_instance_count(), batch.instance_count());
        assert_eq!(grown.live_demand_count(), batch.demand_count());
        for (a, b) in grown.instances().zip(batch.instances()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.demand, b.demand);
            assert_eq!(a.network, b.network);
            assert_eq!(a.path(), b.path());
            assert_eq!(a.canonical_key(), b.canonical_key());
        }
        for t in batch.networks() {
            assert_eq!(grown.instances_on(t), batch.instances_on(t));
        }
        for a in batch.demands() {
            assert_eq!(grown.instances_of(a), batch.instances_of(a));
            assert_eq!(grown.access(a), batch.access(a));
        }
    }

    #[test]
    fn departure_tombstones_without_touching_indexes() {
        let mut p = two_line_problem();
        assert_eq!(p.live_demand_count(), 3);
        let eff = p
            .apply_delta(ProblemDelta::Departure {
                demand: DemandId(0),
            })
            .unwrap();
        assert!(eff.new_instances.is_empty());
        assert!(p.is_departed(DemandId(0)));
        assert!(!p.is_departed(DemandId(1)));
        assert_eq!(p.live_demand_count(), 2);
        assert_eq!(
            p.live_demands().collect::<Vec<_>>(),
            vec![DemandId(1), DemandId(2)]
        );
        // Instances stay materialized (ids stable) but drop out of the
        // live participant set.
        assert_eq!(p.instance_count(), 4);
        let live = p.live_instances();
        assert_eq!(live.len(), 2);
        assert_eq!(p.live_instance_count(), 2);
        assert!(live.iter().all(|&d| p.is_live_instance(d)));
        assert!(!p.is_live_instance(p.instances_of(DemandId(0))[0]));
    }

    #[test]
    fn delta_errors_leave_problem_unchanged() {
        let mut p = two_line_problem();
        assert!(matches!(
            p.apply_delta(ProblemDelta::Departure {
                demand: DemandId(99)
            }),
            Err(ModelError::UnknownDemand { .. })
        ));
        p.apply_delta(ProblemDelta::Departure {
            demand: DemandId(2),
        })
        .unwrap();
        assert!(matches!(
            p.apply_delta(ProblemDelta::Departure {
                demand: DemandId(2)
            }),
            Err(ModelError::AlreadyDeparted { .. })
        ));
        let before = p.instance_count();
        assert!(matches!(
            p.apply_delta(ProblemDelta::Arrival {
                demand: Demand::pair(VertexId(0), VertexId(9), 1.0),
                access: vec![NetworkId(0)],
            }),
            Err(ModelError::EndpointOutOfRange { .. })
        ));
        assert!(matches!(
            p.apply_delta(ProblemDelta::Arrival {
                demand: Demand::pair(VertexId(0), VertexId(1), 1.0),
                access: vec![],
            }),
            Err(ModelError::EmptyAccess { .. })
        ));
        assert!(matches!(
            p.apply_delta(ProblemDelta::Arrival {
                demand: Demand::pair(VertexId(0), VertexId(1), 1.0),
                access: vec![NetworkId(42)],
            }),
            Err(ModelError::UnknownNetwork { .. })
        ));
        assert!(matches!(
            p.apply_delta(ProblemDelta::Arrival {
                demand: Demand::window(0, 9, 2, 1.0),
                access: vec![NetworkId(0)],
            }),
            Err(ModelError::WindowOutOfRange { .. })
        ));
        assert_eq!(p.instance_count(), before);
        assert_eq!(p.demand_count(), 3);
    }

    #[test]
    fn window_arrivals_expand_like_the_builder() {
        let mut b = ProblemBuilder::new();
        let t = b.add_network(Tree::line(11)).unwrap();
        b.add_demand(Demand::pair(VertexId(0), VertexId(1), 1.0), &[t])
            .unwrap();
        let mut p = b.build().unwrap();
        let eff = p
            .apply_delta(ProblemDelta::Arrival {
                demand: Demand::window(2, 6, 3, 1.0),
                access: vec![t],
            })
            .unwrap();
        let starts: Vec<u32> = eff
            .new_instances
            .iter()
            .map(|&d| p.instance(d).start.unwrap())
            .collect();
        assert_eq!(starts, vec![2, 3, 4]);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ModelError::EmptyAccess {
            demand: DemandId(3),
        };
        assert!(e.to_string().contains("a3"));
        let e = ModelError::WindowOutOfRange {
            demand: DemandId(0),
            deadline: 9,
            slots: 5,
        };
        assert!(e.to_string().contains("9"));
    }
}
