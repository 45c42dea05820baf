//! Property-based tests for the problem model.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_graph::EdgeId;
use treenet_model::conflict::ConflictGraph;
use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
use treenet_model::{Problem, ProblemBuilder, ProblemDelta, Solution, SolutionTracker};

/// Checks `ConflictGraph::build` over every instance of `p` against an
/// oracle that shares none of the problem's stored paths or edge masks:
/// two instances conflict iff they copy one demand, or they share a
/// network and an edge of the paths `rooted.path(source, target)`
/// recomputed from their end-points.
fn conflict_graph_matches_recomputed_paths(p: &Problem) -> Result<(), TestCaseError> {
    let ids: Vec<_> = p.instances().map(|d| d.id).collect();
    let routes: Vec<Vec<EdgeId>> = p
        .instances()
        .map(|inst| {
            let path = inst.path();
            let mut edges = p
                .rooted(inst.network)
                .path(path.source(), path.target())
                .edges()
                .to_vec();
            edges.sort_unstable();
            edges
        })
        .collect();
    let g = ConflictGraph::build(p, &ids);
    for i in 0..ids.len() {
        let (di, ri) = (p.instance(ids[i]), &routes[i]);
        for j in 0..ids.len() {
            let dj = p.instance(ids[j]);
            let shared = ri.iter().any(|e| routes[j].binary_search(e).is_ok());
            let oracle = i != j && (di.demand == dj.demand || (di.network == dj.network && shared));
            let edge = g.neighbors(i).contains(&(j as u32));
            prop_assert_eq!(edge, oracle, "i={} j={}", i, j);
        }
    }
    Ok(())
}

/// `p`'s demands admitted online: the first `prefix` built in a batch,
/// every later one arriving through `Problem::apply_delta`.
fn grown(p: &Problem, prefix: usize) -> Problem {
    let mut b = ProblemBuilder::new();
    for t in p.networks() {
        b.add_network(p.network(t).clone()).unwrap();
    }
    for a in p.demands().take(prefix) {
        b.add_demand(*p.demand(a), p.access(a)).unwrap();
    }
    let mut q = b.build().unwrap();
    for a in p.demands().skip(prefix) {
        q.apply_delta(ProblemDelta::Arrival {
            demand: *p.demand(a),
            access: p.access(a).to_vec(),
        })
        .unwrap();
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated problems are internally consistent: instance indexes agree
    /// with the per-demand and per-network lookup tables, and every
    /// instance's path connects its demand's end-points within one network.
    #[test]
    fn workload_problems_are_consistent(seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = TreeWorkload::new(24, 20).with_networks(3);
        let p = cfg.generate(&mut rng);
        let mut seen = 0usize;
        for a in p.demands() {
            for &d in p.instances_of(a) {
                let inst = p.instance(d);
                prop_assert_eq!(inst.demand, a);
                prop_assert!(p.access(a).contains(&inst.network));
                seen += 1;
            }
        }
        prop_assert_eq!(seen, p.instance_count());
        for t in p.networks() {
            for &d in p.instances_on(t) {
                prop_assert_eq!(p.instance(d).network, t);
            }
        }
    }

    /// The conflict relation is symmetric and matches the path-overlap
    /// definition; the conflict graph encodes exactly that relation.
    #[test]
    fn conflict_graph_matches_predicate(seed in 0u64..500) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = TreeWorkload::new(16, 12).with_networks(2);
        let p = cfg.generate(&mut rng);
        let ids: Vec<_> = p.instances().map(|d| d.id).collect();
        let g = ConflictGraph::build(&p, &ids);
        for i in 0..ids.len() {
            for j in 0..ids.len() {
                let edge = g.neighbors(i).contains(&(j as u32));
                let conflict = i != j && p.conflicting(ids[i], ids[j]);
                prop_assert_eq!(edge, conflict, "i={} j={}", i, j);
                prop_assert_eq!(p.conflicting(ids[i], ids[j]), p.conflicting(ids[j], ids[i]));
            }
        }
    }

    /// The conflict graph against recomputed paths: on trees, on window
    /// lines of 150 timeslots (three mask words per instance), and on the
    /// same lines grown demand by demand, which pins the offsets of the
    /// stored edge and mask arrays.
    #[test]
    fn conflict_graph_matches_path_intersections(seed in 0u64..200) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tree = TreeWorkload::new(16, 12).with_networks(2).generate(&mut rng);
        conflict_graph_matches_recomputed_paths(&tree)?;
        let line = LineWorkload::new(150, 14)
            .with_resources(2)
            .with_window_slack(3)
            .with_len_range(1, 70)
            .generate(&mut rng);
        prop_assert!(line.vertex_count() > 65);
        conflict_graph_matches_recomputed_paths(&line)?;
        conflict_graph_matches_recomputed_paths(&grown(&line, 4))?;
        conflict_graph_matches_recomputed_paths(&grown(&tree, 3))?;
    }

    /// Greedily packing instances with the tracker always yields a feasible
    /// solution, including with fractional heights.
    #[test]
    fn tracker_builds_feasible_solutions(seed in 0u64..500) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = TreeWorkload::new(20, 25)
            .with_networks(2)
            .with_heights(HeightMode::Uniform { hmin: 0.2 });
        let p = cfg.generate(&mut rng);
        let mut tracker = SolutionTracker::new(&p);
        for d in p.instances().map(|i| i.id) {
            let _ = tracker.try_add(d);
        }
        let s = tracker.into_solution();
        prop_assert!(s.verify(&p).is_ok());
        prop_assert!(!s.is_empty());
    }

    /// Window instances stay inside their windows and have the demanded
    /// processing time.
    #[test]
    fn window_instances_respect_windows(seed in 0u64..500) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = LineWorkload::new(30, 15).with_window_slack(4).with_len_range(1, 5);
        let p = cfg.generate(&mut rng);
        for inst in p.instances() {
            let demand = p.demand(inst.demand);
            if let treenet_model::DemandKind::Window { release, deadline, processing } =
                demand.kind
            {
                let s = inst.start.expect("window instances carry a start");
                prop_assert!(s >= release);
                prop_assert!(s + processing - 1 <= deadline);
                prop_assert_eq!(inst.len() as u32, processing);
            } else {
                prop_assert!(false, "line workload generates window demands");
            }
        }
    }

    /// A singleton solution of any instance is feasible; adding a
    /// same-demand sibling never is.
    #[test]
    fn singletons_feasible_siblings_conflict(seed in 0u64..300) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = TreeWorkload::new(12, 8).with_networks(3);
        let p = cfg.generate(&mut rng);
        for a in p.demands() {
            let insts = p.instances_of(a);
            let single = Solution::new(vec![insts[0]]);
            prop_assert!(single.verify(&p).is_ok());
            if insts.len() > 1 {
                let pair = Solution::new(vec![insts[0], insts[1]]);
                prop_assert!(pair.verify(&p).is_err());
            }
        }
    }
}
