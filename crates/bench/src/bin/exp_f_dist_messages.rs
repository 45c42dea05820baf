//! **Experiment F-dist-messages** — message complexity of the
//! message-passing scheduler: the paper bounds the *size* of each message
//! by `O(M)` bits (one demand descriptor); this experiment measures how
//! total message count and traffic scale with the number of processors
//! and how the maximum message size stays flat.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_bench::report::f2;
use treenet_bench::stats::summarize;
use treenet_bench::{seeds, Scale, Table};
use treenet_core::AutoChoice;
use treenet_dist::{run_distributed, DistConfig};
use treenet_model::workload::TreeWorkload;

fn main() {
    let scale = Scale::from_env();
    let runs = seeds(scale.pick(3, 6));
    let ms: Vec<usize> = scale.pick(vec![4, 8, 16], vec![4, 8, 16, 32, 48]);
    let mut table = Table::new(
        "F-dist-messages — distributed traffic vs processor count (tree unit, n = 10, ε = 0.3)",
        &[
            "m",
            "rounds",
            "messages (mean)",
            "kbits (mean)",
            "max msg [bits]",
            "msgs/processor/round",
        ],
    );
    for &m in &ms {
        let mut rounds = Vec::new();
        let mut msgs = Vec::new();
        let mut bits = Vec::new();
        let mut max_bits = 0u64;
        for &seed in &runs {
            let p = TreeWorkload::new(10, m)
                .with_networks(2)
                .with_profit_ratio(4.0)
                .generate(&mut SmallRng::seed_from_u64(seed));
            let cfg = DistConfig {
                epsilon: 0.3,
                seed,
                ..DistConfig::default()
            };
            let out = run_distributed(&p, AutoChoice::TreeUnit, &cfg).unwrap();
            // Every participant ended phase 1 (1-ε)-satisfied.
            assert!(out.lambda >= 0.7 - 1e-9);
            out.solution.verify(&p).unwrap();
            let metrics = out.run.metrics();
            rounds.push(metrics.rounds as f64);
            msgs.push(metrics.messages as f64);
            bits.push(metrics.bits as f64 / 1000.0);
            max_bits = max_bits.max(metrics.max_message_bits);
        }
        let r = summarize(&rounds);
        let mm = summarize(&msgs);
        table.row(&[
            m.to_string(),
            f2(r.mean),
            f2(mm.mean),
            f2(summarize(&bits).mean),
            max_bits.to_string(),
            f2(mm.mean / (m as f64 * r.mean)),
        ]);
        // O(M) bits: one demand descriptor regardless of m.
        let descriptor_bound = treenet_dist::descriptor_bits(2);
        assert!(
            max_bits <= descriptor_bound,
            "message size grew with m: {max_bits} > {descriptor_bound}"
        );
    }
    table.print();
    println!(
        "max message size is flat (one demand descriptor = the paper's O(M) bits); \
         per-processor-per-round traffic stays bounded by the neighborhood size, so \
         total traffic grows with m while the schedule length does not."
    );
}
