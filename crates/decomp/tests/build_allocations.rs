//! The decomposition builders run on flat scratch sized to the tree
//! once, and a decomposition keeps its arrays flat, so building one
//! makes as many allocations on a 4,096-vertex tree as on a 64-vertex
//! one, for every strategy and tree family, and so does a problem's
//! tree layering. A whole `solve_auto` on a problem of the perfbench
//! `solve-flat` shape stays under a fixed ceiling, which may only go
//! down.
//!
//! Its own test binary, because it counts allocations through a
//! `#[global_allocator]`; the count is per thread, so the harness's
//! threads do not leak into it.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use treenet_core::{solve_auto, SolverConfig};
use treenet_decomp::{Layering, Strategy};
use treenet_graph::generators::TreeFamily;
use treenet_model::workload::{HeightMode, TreeWorkload};

/// The system allocator, counting the allocations and reallocations of
/// the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down has no counter left; it is not measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; counting
// touches only a `const`-initialized thread-local without a destructor,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The most allocations one `solve_auto` on the `solve-flat` shape may
/// make: a ratchet, lowered with the code and never raised.
const SOLVE_AUTO_CEILING: usize = 1_000;

#[test]
fn builders_allocate_the_same_on_small_and_large_trees() {
    for family in TreeFamily::ALL {
        let [small, large] =
            [64, 4096].map(|n| family.generate(n, &mut SmallRng::seed_from_u64(5)));
        // `Strategy::build` runs `ideal`, `balancing` and `root_fixing`.
        for strategy in Strategy::ALL {
            let (_, few) = allocations(|| strategy.build(&small));
            let (_, many) = allocations(|| strategy.build(&large));
            assert_eq!(
                few,
                many,
                "{} on {}: 64 vs 4,096 vertices",
                strategy.name(),
                family.name()
            );
        }
        let [small, large] = [64, 4096].map(|n| {
            TreeWorkload::new(n, 20)
                .with_networks(3)
                .with_family(family)
                .generate(&mut SmallRng::seed_from_u64(6))
        });
        for strategy in Strategy::ALL {
            let (_, few) = allocations(|| Layering::for_trees(&small, strategy));
            let (_, many) = allocations(|| Layering::for_trees(&large, strategy));
            assert_eq!(
                few,
                many,
                "Layering::for_trees({}) on {}",
                strategy.name(),
                family.name()
            );
        }
    }
}

#[test]
fn solve_auto_stays_under_its_allocation_ceiling() {
    // One pool problem of perfbench's solve-flat workload: three
    // 384-vertex trees, 6,400 demands, bimodal heights, ε = 0.1.
    let problem = TreeWorkload::new(384, 6400)
        .with_networks(3)
        .with_profit_ratio(8.0)
        .with_heights(HeightMode::Bimodal {
            narrow_frac: 0.5,
            hmin: 0.25,
        })
        .generate(&mut SmallRng::seed_from_u64(1));
    let config = SolverConfig::default().with_epsilon(0.1);
    let (outcome, count) = allocations(|| solve_auto(&problem, &config));
    assert!(outcome.is_ok());
    assert!(
        count < SOLVE_AUTO_CEILING,
        "solve_auto made {count} allocations, ceiling {SOLVE_AUTO_CEILING}"
    );
}
