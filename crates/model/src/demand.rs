//! Demands: profit, height, and either fixed end-points or a time window.

use crate::{InstanceId, Problem};
use serde::{Deserialize, Serialize};
use treenet_graph::{EdgeId, RootedTree, TreePath, VertexId};

/// What a demand asks for: a fixed vertex pair, or (on line-networks) a
/// window with a processing time (Section 7 of the paper).
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum DemandKind {
    /// Route between two fixed vertices `⟨u, v⟩`; on a tree the path is the
    /// unique tree path.
    Pair {
        /// First end-point.
        u: VertexId,
        /// Second end-point.
        v: VertexId,
    },
    /// Execute for `processing` consecutive timeslots anywhere inside
    /// `[release, deadline]` (timeslot indices, inclusive). Only valid on
    /// canonical line networks, where timeslot `i` is edge `i`.
    Window {
        /// First timeslot of the window (`rt`).
        release: u32,
        /// Last timeslot of the window (`dl`), inclusive.
        deadline: u32,
        /// Number of consecutive timeslots needed (`ρ ≥ 1`).
        processing: u32,
    },
}

/// A demand `a`: what to route/schedule, its profit `p(a) > 0` and its
/// bandwidth requirement (height) `0 < h(a) ≤ 1`.
///
/// The *unit height case* of the paper corresponds to `height == 1.0` for
/// every demand; the `arbitrary height case` allows any height in `(0, 1]`.
///
/// # Example
///
/// ```
/// use treenet_graph::VertexId;
/// use treenet_model::{Demand, HeightClass};
///
/// let d = Demand::pair(VertexId(0), VertexId(5), 10.0).with_height(0.3);
/// assert_eq!(d.height_class(), HeightClass::Narrow);
/// assert!(Demand::pair(VertexId(0), VertexId(5), 10.0).is_unit_height());
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Demand {
    /// What the demand asks for.
    pub kind: DemandKind,
    /// Profit `p(a)`, must be strictly positive.
    pub profit: f64,
    /// Height `h(a) ∈ (0, 1]`; `1.0` in the unit height case.
    pub height: f64,
}

/// The paper's classification of demand heights (Section 6): *narrow*
/// (`h ≤ 1/2`) instances are handled by the modified raising rule, *wide*
/// (`h > 1/2`) instances reduce to the unit height case because two
/// overlapping wide instances can never be scheduled together.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum HeightClass {
    /// `h(a) ≤ 1/2`.
    Narrow,
    /// `h(a) > 1/2`.
    Wide,
}

impl HeightClass {
    /// Splits `instances` into `(wide, narrow)` by their demand's height
    /// class, preserving order — the partition behind the wide/narrow
    /// runs of Theorems 6.3 and 7.2.
    pub fn split(
        problem: &Problem,
        instances: impl IntoIterator<Item = InstanceId>,
    ) -> (Vec<InstanceId>, Vec<InstanceId>) {
        let mut wide = Vec::new();
        let mut narrow = Vec::new();
        for d in instances {
            match problem.demand(problem.instance(d).demand).height_class() {
                HeightClass::Wide => wide.push(d),
                HeightClass::Narrow => narrow.push(d),
            }
        }
        (wide, narrow)
    }
}

impl Demand {
    /// A unit-height demand between two vertices.
    pub fn pair(u: VertexId, v: VertexId, profit: f64) -> Self {
        Demand {
            kind: DemandKind::Pair { u, v },
            profit,
            height: 1.0,
        }
    }

    /// A unit-height window demand: execute `processing` consecutive
    /// timeslots within `[release, deadline]` (inclusive timeslots).
    pub fn window(release: u32, deadline: u32, processing: u32, profit: f64) -> Self {
        Demand {
            kind: DemandKind::Window {
                release,
                deadline,
                processing,
            },
            profit,
            height: 1.0,
        }
    }

    /// Sets the height (builder style).
    #[must_use]
    pub fn with_height(mut self, height: f64) -> Self {
        self.height = height;
        self
    }

    /// Whether this demand has the full unit height.
    pub fn is_unit_height(&self) -> bool {
        self.height == 1.0
    }

    /// Narrow (`h ≤ 1/2`) or wide (`h > 1/2`), per Section 6.
    pub fn height_class(&self) -> HeightClass {
        if self.height <= 0.5 {
            HeightClass::Narrow
        } else {
            HeightClass::Wide
        }
    }

    /// Calls `f` with the path and start slot of each instance this
    /// demand materializes on `network`, in canonical order (a pair has
    /// one, with no start; a window one per feasible start, ascending):
    /// the one definition [`Problem`] and the distributed processors
    /// share. Each path is lent in `path`, refilled per instance, so once
    /// the buffer holds the longest path nothing is allocated. The demand
    /// must be valid: a window's starts assume `release + processing ≤
    /// deadline + 1`.
    pub fn for_each_instance_path_in(
        &self,
        network: &RootedTree,
        path: &mut TreePath,
        mut f: impl FnMut(&TreePath, Option<u32>),
    ) {
        match self.kind {
            DemandKind::Pair { u, v } => {
                network.path_in(u, v, path);
                f(path, None);
            }
            DemandKind::Window {
                release,
                deadline,
                processing,
            } => {
                for s in window_starts(release, deadline, processing) {
                    let (vertices, edges) = window_slots(s, processing);
                    path.refill(vertices, edges);
                    f(path, Some(s));
                }
            }
        }
    }

    /// Validates profit, height and (for windows) the window shape.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.profit > 0.0 && self.profit.is_finite()) {
            return Err(format!(
                "profit must be positive and finite, got {}",
                self.profit
            ));
        }
        if !(self.height > 0.0 && self.height <= 1.0) {
            return Err(format!("height must lie in (0, 1], got {}", self.height));
        }
        match self.kind {
            DemandKind::Pair { u, v } => {
                if u == v {
                    return Err(format!("demand end-points must differ, got {u} twice"));
                }
            }
            DemandKind::Window {
                release,
                deadline,
                processing,
            } => {
                if processing == 0 {
                    return Err("processing time must be at least one timeslot".into());
                }
                // In u64: near `u32::MAX` the u32 sums would wrap.
                if u64::from(release) + u64::from(processing) > u64::from(deadline) + 1 {
                    return Err(format!(
                        "window [{release}, {deadline}] too short for processing time {processing}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The start timeslots of a (valid) window demand, one instance each:
/// the execution segment `[s, s + ρ - 1]` must fit inside
/// `[release, deadline]`.
pub(crate) fn window_starts(release: u32, deadline: u32, processing: u32) -> std::ops::Range<u32> {
    release..deadline + 2 - processing
}

/// The path of the window instance that starts at `s`: vertices
/// `s..=s + ρ` and timeslots (edges) `s..s + ρ`.
fn window_slots(
    s: u32,
    processing: u32,
) -> (impl Iterator<Item = VertexId>, impl Iterator<Item = EdgeId>) {
    (
        (s..=s + processing).map(VertexId),
        (s..s + processing).map(EdgeId),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_builder() {
        let d = Demand::pair(VertexId(1), VertexId(2), 5.0);
        assert!(d.is_unit_height());
        assert_eq!(d.height_class(), HeightClass::Wide);
        let d = d.with_height(0.5);
        assert_eq!(d.height_class(), HeightClass::Narrow);
        assert!(!d.is_unit_height());
        let w = Demand::window(2, 8, 3, 1.0);
        assert!(w.validate().is_ok());
    }

    #[test]
    fn narrow_wide_boundary_is_half() {
        assert_eq!(
            Demand::pair(VertexId(0), VertexId(1), 1.0)
                .with_height(0.5)
                .height_class(),
            HeightClass::Narrow
        );
        assert_eq!(
            Demand::pair(VertexId(0), VertexId(1), 1.0)
                .with_height(0.500001)
                .height_class(),
            HeightClass::Wide
        );
    }

    #[test]
    fn validation_rejects_bad_demands() {
        assert!(Demand::pair(VertexId(0), VertexId(0), 1.0)
            .validate()
            .is_err());
        assert!(Demand::pair(VertexId(0), VertexId(1), 0.0)
            .validate()
            .is_err());
        assert!(Demand::pair(VertexId(0), VertexId(1), -3.0)
            .validate()
            .is_err());
        assert!(Demand::pair(VertexId(0), VertexId(1), f64::NAN)
            .validate()
            .is_err());
        assert!(Demand::pair(VertexId(0), VertexId(1), 1.0)
            .with_height(0.0)
            .validate()
            .is_err());
        assert!(Demand::pair(VertexId(0), VertexId(1), 1.0)
            .with_height(1.5)
            .validate()
            .is_err());
        // Window too short for its processing time.
        assert!(Demand::window(5, 6, 3, 1.0).validate().is_err());
        // Zero processing time.
        assert!(Demand::window(5, 6, 0, 1.0).validate().is_err());
        // Exactly fitting window is fine.
        assert!(Demand::window(5, 7, 3, 1.0).validate().is_ok());
    }
}
