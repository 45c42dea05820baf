//! **Experiment F-MIS** — the `Time(MIS)` factor: Luby's algorithm
//! finishes in `O(log N)` iterations on conflict graphs drawn from real
//! scheduling workloads (and on Erdős–Rényi controls).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use treenet_bench::report::f2;
use treenet_bench::stats::{correlation, summarize};
use treenet_bench::{seeds, Scale, Table};
use treenet_mis::{verify_mis, MisBackend, MisScratch};
use treenet_model::conflict::ConflictGraph;
use treenet_model::workload::TreeWorkload;
use treenet_model::InstanceId;

fn erdos_renyi(n: usize, p: f64, rng: &mut SmallRng) -> Vec<Vec<u32>> {
    let mut adj = vec![Vec::new(); n];
    for a in 0..n {
        for b in a + 1..n {
            if rng.gen_bool(p) {
                adj[a].push(b as u32);
                adj[b].push(a as u32);
            }
        }
    }
    adj
}

/// One Luby MIS over the whole graph: the set and the iteration count.
fn luby(adj: &[Vec<u32>], keys: &[u64], seed: u64, tag: u64) -> (Vec<u32>, u64) {
    let mut mis = Vec::new();
    let all = vec![true; adj.len()];
    let mut scratch = MisScratch::default();
    let rounds = MisBackend::Luby.run(adj, keys, &all, seed, tag, &mut scratch, &mut mis);
    (mis, rounds)
}

fn main() {
    let scale = Scale::from_env();
    let runs = seeds(scale.pick(5, 20));
    let mut table = Table::new(
        "F-MIS — Luby iterations vs graph size",
        &[
            "graph",
            "N",
            "avg degree",
            "Luby iters mean",
            "Luby iters max",
            "4·log2 N",
        ],
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();

    // Conflict graphs from scheduling workloads.
    for &n in &scale.pick(vec![16, 64, 256], vec![16, 64, 256, 1024]) {
        let mut iters = Vec::new();
        let mut degs = Vec::new();
        let mut size = 0usize;
        for &seed in &runs {
            let p = TreeWorkload::new(n, 2 * n)
                .with_networks(3)
                .generate(&mut SmallRng::seed_from_u64(seed));
            let ids: Vec<InstanceId> = p.instances().map(|d| d.id).collect();
            let g = ConflictGraph::build(&p, &ids);
            size = g.len();
            degs.push(2.0 * g.edge_count() as f64 / g.len().max(1) as f64);
            let adj: Vec<Vec<u32>> = (0..g.len()).map(|v| g.neighbors(v).to_vec()).collect();
            let keys: Vec<u64> = (0..g.len() as u64).collect();
            let (mis, rounds) = luby(&adj, &keys, seed, 1);
            assert!(verify_mis(&adj, &mis));
            iters.push(rounds as f64);
        }
        let s = summarize(&iters);
        let bound = 4.0 * (size.max(2) as f64).log2();
        table.row(&[
            "conflict graph".into(),
            size.to_string(),
            f2(summarize(&degs).mean),
            f2(s.mean),
            f2(s.max),
            f2(bound),
        ]);
        xs.push((size.max(2) as f64).log2());
        ys.push(s.mean);
        assert!(s.max <= bound, "Luby exceeded 4 log2 N at N = {size}");
    }

    // Erdős–Rényi controls.
    for &n in &scale.pick(vec![64, 512], vec![64, 512, 4096]) {
        let mut iters = Vec::new();
        for &seed in &runs {
            let mut rng = SmallRng::seed_from_u64(seed);
            let adj = erdos_renyi(n, (8.0 / n as f64).min(0.5), &mut rng);
            let keys: Vec<u64> = (0..n as u64).collect();
            let (mis, rounds) = luby(&adj, &keys, seed, 2);
            assert!(verify_mis(&adj, &mis));
            iters.push(rounds as f64);
        }
        let s = summarize(&iters);
        table.row(&[
            "Erdős–Rényi (deg≈8)".into(),
            n.to_string(),
            "8.00".into(),
            f2(s.mean),
            f2(s.max),
            f2(4.0 * (n as f64).log2()),
        ]);
    }
    table.print();
    let corr = correlation(&xs, &ys);
    println!("correlation(Luby iterations, log2 N) = {corr:.3} — the O(log N) Time(MIS) factor.");
}
