//! A problem stores its instances in flat arrays, so materializing
//! them allocates per array, never per instance: building a problem, or
//! admitting an arrival, makes as many allocations for a window demand
//! with 50 starts as for one with a single start.
//!
//! Its own test binary, because it counts allocations through a
//! `#[global_allocator]`; the count is per thread, so the harness's
//! threads do not leak into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use treenet_graph::{Tree, VertexId};
use treenet_model::{Demand, NetworkId, Problem, ProblemBuilder, ProblemDelta};

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

/// Five-slot windows on a 100-slot line: starts 10..=10 and 10..=59.
fn window(starts: u32) -> Demand {
    Demand::window(10, 13 + starts, 5, 1.0)
}

/// A builder holding two lines, a pair demand on both and `extra` (if
/// any) on both.
fn builder(extra: Option<Demand>) -> ProblemBuilder {
    let mut b = ProblemBuilder::new();
    let both = [NetworkId(0), NetworkId(1)];
    for _ in both {
        b.add_network(Tree::line(101)).unwrap();
    }
    b.add_demand(Demand::pair(VertexId(2), VertexId(40), 1.0), &both)
        .unwrap();
    if let Some(demand) = extra {
        b.add_demand(demand, &both).unwrap();
    }
    b
}

#[test]
fn materializing_instances_allocates_per_array_not_per_instance() {
    // Batch build: the builder's set-up is not counted.
    let (few, many) = (builder(Some(window(1))), builder(Some(window(50))));
    let (few, few_allocs) = allocations(|| few.build().unwrap());
    let (many, many_allocs) = allocations(|| many.build().unwrap());
    assert_eq!(many.instance_count(), few.instance_count() + 2 * 49);
    assert_eq!(many_allocs, few_allocs, "build");

    // Arrival into a freshly built problem, whose lists are all full.
    let arrive = |demand: Demand| {
        let mut p: Problem = builder(None).build().unwrap();
        let access = vec![NetworkId(0), NetworkId(1)];
        let (effect, allocs) = allocations(|| {
            p.apply_delta(ProblemDelta::Arrival { demand, access })
                .unwrap()
        });
        (effect.new_instances.len(), allocs)
    };
    let (few, few_allocs) = arrive(window(1));
    let (many, many_allocs) = arrive(window(50));
    assert_eq!((few, many), (2, 100));
    assert_eq!(many_allocs, few_allocs, "arrival");
}
