//! `Problem::apply_delta` edge cases, each pinned against a fresh
//! batch build: withdraw of a nonexistent or already-withdrawn demand,
//! re-submit after withdraw, and draining to empty then refilling.
//!
//! The invariant under test is the one the incremental engines rely on:
//! a problem grown online (arrivals + departure tombstones) must be
//! structurally identical — demands, access lists, materialized
//! instances, per-network instance lists, live mask, and the conflicting
//! relation the conflict union-find is built from — to a problem built
//! from scratch with the same demand sequence and the same departures.

use treenet_graph::{Tree, VertexId};
use treenet_model::{
    Demand, DemandId, ModelError, NetworkId, Problem, ProblemBuilder, ProblemDelta,
};

/// Full structural comparison of two problems: everything an
/// incremental solver observes, including the per-network instance
/// lists and the pairwise conflicting relation (the union-find's input).
fn assert_same_build(grown: &Problem, fresh: &Problem) {
    assert_eq!(grown.network_count(), fresh.network_count());
    assert_eq!(grown.demand_count(), fresh.demand_count());
    assert_eq!(grown.instance_count(), fresh.instance_count());
    for a in grown.demands() {
        assert_eq!(grown.demand(a), fresh.demand(a), "demand {a:?}");
        assert_eq!(grown.access(a), fresh.access(a), "access of {a:?}");
        assert_eq!(grown.instances_of(a), fresh.instances_of(a));
        assert_eq!(grown.is_departed(a), fresh.is_departed(a), "mask of {a:?}");
    }
    for (gi, fi) in grown.instances().zip(fresh.instances()) {
        assert_eq!(gi.id, fi.id);
        assert_eq!(gi.demand, fi.demand);
        assert_eq!(gi.network, fi.network);
        assert_eq!(gi.path(), fi.path());
        assert_eq!(gi.start, fi.start);
        assert_eq!(gi.canonical_key(), fi.canonical_key());
    }
    // Live mask, in both demand and instance form.
    assert_eq!(grown.live_demand_count(), fresh.live_demand_count());
    assert_eq!(
        grown.live_demands().collect::<Vec<_>>(),
        fresh.live_demands().collect::<Vec<_>>()
    );
    assert_eq!(grown.live_instances(), fresh.live_instances());
    for t in grown.networks() {
        assert_eq!(grown.instances_on(t), fresh.instances_on(t));
    }
    // The conflicting relation itself.
    let n = grown.instance_count() as u32;
    for a in 0..n {
        for b in 0..n {
            let (a, b) = (treenet_model::InstanceId(a), treenet_model::InstanceId(b));
            assert_eq!(grown.conflicting(a, b), fresh.conflicting(a, b));
        }
    }
}

/// Two line networks, one pair demand and one window demand — small but
/// multi-network and multi-kind.
fn seed_problem() -> Problem {
    let mut b = ProblemBuilder::new();
    let t0 = b.add_network(Tree::line(12)).unwrap();
    let t1 = b.add_network(Tree::line(12)).unwrap();
    b.add_demand(Demand::pair(VertexId(1), VertexId(5), 2.0), &[t0, t1])
        .unwrap();
    b.add_demand(Demand::window(2, 9, 3, 4.0), &[t1]).unwrap();
    b.add_demand(
        Demand::pair(VertexId(4), VertexId(9), 1.5).with_height(0.5),
        &[t0],
    )
    .unwrap();
    b.build().unwrap()
}

/// Rebuilds a problem from scratch: all demands batch-built in id
/// order, then the given departures applied. This is the oracle every
/// grown problem is compared against.
fn fresh_build(reference: &Problem, departed: &[DemandId]) -> Problem {
    let mut b = ProblemBuilder::new();
    for t in reference.networks() {
        b.add_network(reference.network(t).clone()).unwrap();
    }
    for a in reference.demands() {
        b.add_demand(*reference.demand(a), reference.access(a))
            .unwrap();
    }
    let mut p = b.build().unwrap();
    for &a in departed {
        p.apply_delta(ProblemDelta::Departure { demand: a })
            .unwrap();
    }
    p
}

#[test]
fn withdraw_of_nonexistent_demand_changes_nothing() {
    let mut p = seed_problem();
    let bogus = DemandId(99);
    let err = p
        .apply_delta(ProblemDelta::Departure { demand: bogus })
        .unwrap_err();
    assert_eq!(err, ModelError::UnknownDemand { demand: bogus });
    assert_same_build(&p, &fresh_build(&seed_problem(), &[]));
}

#[test]
fn double_withdraw_is_rejected_and_state_preserved() {
    let mut p = seed_problem();
    p.apply_delta(ProblemDelta::Departure {
        demand: DemandId(1),
    })
    .unwrap();
    let err = p
        .apply_delta(ProblemDelta::Departure {
            demand: DemandId(1),
        })
        .unwrap_err();
    assert_eq!(
        err,
        ModelError::AlreadyDeparted {
            demand: DemandId(1)
        }
    );
    // The tombstone from the first (valid) departure survives; nothing
    // else moved.
    assert_same_build(&p, &fresh_build(&seed_problem(), &[DemandId(1)]));
}

#[test]
fn resubmit_after_withdraw_gets_a_fresh_identity() {
    let mut p = seed_problem();
    p.apply_delta(ProblemDelta::Departure {
        demand: DemandId(0),
    })
    .unwrap();
    // Re-submitting the same demand shape admits a *new* demand id; the
    // departed original stays tombstoned.
    let effect = p
        .apply_delta(ProblemDelta::Arrival {
            demand: Demand::pair(VertexId(1), VertexId(5), 2.0),
            access: vec![NetworkId(0), NetworkId(1)],
        })
        .unwrap();
    assert_eq!(effect.demand, DemandId(3));
    assert!(p.is_departed(DemandId(0)));
    assert!(!p.is_departed(DemandId(3)));
    assert_same_build(&p, &fresh_build(&p, &[DemandId(0)]));
}

#[test]
fn drain_to_empty_then_refill_matches_fresh_build() {
    let mut p = seed_problem();
    for a in 0..3 {
        p.apply_delta(ProblemDelta::Departure {
            demand: DemandId(a),
        })
        .unwrap();
    }
    assert_eq!(p.live_demand_count(), 0);
    assert!(p.live_instances().is_empty());
    assert_same_build(
        &p,
        &fresh_build(&p, &[DemandId(0), DemandId(1), DemandId(2)]),
    );

    // Refill: new arrivals land after the tombstoned prefix, and the
    // whole grown object still equals a batch build with the same
    // history.
    p.apply_delta(ProblemDelta::Arrival {
        demand: Demand::window(0, 7, 2, 3.0),
        access: vec![NetworkId(1)],
    })
    .unwrap();
    p.apply_delta(ProblemDelta::Arrival {
        demand: Demand::pair(VertexId(2), VertexId(10), 5.0).with_height(0.4),
        access: vec![NetworkId(0), NetworkId(1)],
    })
    .unwrap();
    assert_eq!(p.live_demand_count(), 2);
    assert_eq!(
        p.live_demands().collect::<Vec<_>>(),
        vec![DemandId(3), DemandId(4)]
    );
    assert_same_build(
        &p,
        &fresh_build(&p, &[DemandId(0), DemandId(1), DemandId(2)]),
    );
}
