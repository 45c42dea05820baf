//! Experiment harness: regenerates every quantitative claim of the paper.
//!
//! The paper is a theory paper — its "tables and figures" are the
//! approximation-ratio statements (the implicit comparison table of
//! Section 1) and the round-complexity bounds of Theorems 5.3/6.3/7.1/7.2
//! and Lemmas 4.1/4.3/5.1. Each claim maps to one binary in `src/bin`
//! (see DESIGN.md's experiment index and EXPERIMENTS.md for the recorded
//! paper-vs-measured outcomes):
//!
//! | binary | claim |
//! |---|---|
//! | `exp_t1_ratio_table` | the ratio table: PS 20/55 vs ours 4/23 (lines), 7/80 (trees), 3 & 2 (sequential) |
//! | `exp_f_rounds_vs_n` | rounds scale as `O(log n)` (Thm 5.3) |
//! | `exp_f_rounds_vs_profits` | rounds ∝ `log(pmax/pmin)`; Lemma 5.1 step bound |
//! | `exp_f_rounds_vs_eps` | rounds ∝ `log(1/ε)` |
//! | `exp_f_decomp_params` | decomposition trade-offs `⟨n,1⟩`, `⟨log n, log n⟩`, `⟨2 log n, 2⟩` (Lemma 4.1) |
//! | `exp_f_layered_delta` | `Δ ≤ 6` trees / `Δ ≤ 3` lines (Lemma 4.3, Sec. 7) |
//! | `exp_f_lambda` | slackness `λ = 1-ε` vs PS `1/(5+ε)` |
//! | `exp_f_vs_ps_profit` | realized-profit comparison vs PS on identical inputs |
//! | `exp_f_narrow_wide` | the (80+ε) combiner; rounds ∝ `1/hmin` (Thm 6.3) |
//! | `exp_f_mis_rounds` | Luby `Time(MIS) = O(log N)` |
//! | `exp_f_dist_equiv` | message-passing ≡ logical on trees and lines, unit and arbitrary heights (Thms 5.3/6.3/7.1/7.2); `O(M)`-bit messages, exact setup/compute/control round relation |
//! | `exp_f_dist_budget` | round/message budgets of the in-network runners; CI regression gate vs `BENCH_dist_rounds.json` |
//! | `exp_f_seq_ratio` | sequential 3- and 2-approximations (Appendix A) |
//! | `exp_perf_phase1` | incremental phase-1 engine vs from-scratch reference; writes `BENCH_phase1.json` |
//!
//! Running `cargo run --release -p treenet-bench --bin <name>` prints a
//! markdown table; `EXP_SCALE=small|full` adjusts sizes (default small).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod report;
pub mod stats;

pub use cli::DistArgs;
pub use report::Table;

/// Experiment scale, from the `EXP_SCALE` environment variable.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Fast smoke-scale runs (CI-friendly, default).
    Small,
    /// The full sweeps recorded in EXPERIMENTS.md.
    Full,
}

impl Scale {
    /// Reads `EXP_SCALE` (`small`/`full`; default small).
    pub fn from_env() -> Self {
        match std::env::var("EXP_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            _ => Scale::Small,
        }
    }

    /// Picks between the small and full variant of a parameter.
    pub fn pick<T>(self, small: T, full: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Full => full,
        }
    }
}

/// Seeds used across experiments (deterministic sweeps).
pub fn seeds(count: usize) -> Vec<u64> {
    (0..count as u64).map(|i| 0x5eed_0000 + i).collect()
}

/// Runs `f` over `items` on scoped worker threads (one per item, capped
/// by the machine), preserving input order — used by the heavier
/// experiments to spread exact-solver work across cores. Results are
/// deterministic because every work item carries its own seed.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(4);
    let n = items.len();
    let work: Vec<std::sync::Mutex<Option<T>>> = items
        .into_iter()
        .map(|item| std::sync::Mutex::new(Some(item)))
        .collect();
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // Each index is claimed exactly once, so the mutex-per-slot
                // accesses below are contention-free.
                let item = work[i]
                    .lock()
                    .expect("work lock")
                    .take()
                    .expect("item unclaimed");
                let out = f(item);
                *slots[i].lock().expect("slot lock") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every slot filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_small() {
        // Cannot set env vars safely in parallel tests; just check pick.
        assert_eq!(Scale::Small.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
        assert_eq!(seeds(3).len(), 3);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100u64).collect(), |x| x * 2);
        assert_eq!(out, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<u64> = parallel_map(Vec::<u64>::new(), |x| x);
        assert!(out.is_empty());
    }
}
