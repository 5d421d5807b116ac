//! What leaving the fault-tolerance bookkeeping switched on costs a
//! `BarrierGroup::tick`, as a deterministic count: an idle tick allocates
//! nothing, and a releasing tick a small number that does not grow with
//! the group — the membership view is cached per epoch and the always-on
//! flight recorder stores its events in place. No timing involved.

use ftbarrier_runtime::detector::TestClock;
use ftbarrier_server::group::{BarrierGroup, GroupConfig};
use ftbarrier_telemetry::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (the test harness's other threads
    /// allocate on their own schedule and must not be counted).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// `alloc_zeroed` and `realloc` default to `alloc`, so they are counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn tick_allocations_do_not_grow_with_the_group() {
    assert_eq!(allocations(|| Box::new(7u64)).0, 1, "the counter counts");

    let mut per_release = Vec::new();
    for size in [4usize, 128] {
        let clock = TestClock::new();
        let mut g = BarrierGroup::new(
            size,
            &GroupConfig::default(),
            clock.clone(),
            Telemetry::off(),
        );
        // Warm up past the flight recorder's capacity (4 events per member
        // per phase), so it is evicting while we count.
        for _ in 0..40 {
            (0..size).for_each(|m| g.arrive(m));
            clock.advance(0.001);
            assert_eq!(g.tick().releases.len(), 1);
        }
        for _ in 0..10 {
            clock.advance(0.001);
            let (idle, tick) = allocations(|| g.tick());
            assert!(tick.releases.is_empty());
            assert_eq!(idle, 0, "idle tick, {size} members");

            let (arriving, ()) = allocations(|| (0..size).for_each(|m| g.arrive(m)));
            assert_eq!(arriving, 0, "{size} arrivals");

            clock.advance(0.001);
            let (releasing, tick) = allocations(|| g.tick());
            assert_eq!(tick.releases.len(), 1);
            assert!(
                releasing <= 4,
                "releasing tick, {size} members: {releasing}"
            );
            per_release.push(releasing);
        }
    }
    per_release.dedup();
    assert_eq!(
        per_release.len(),
        1,
        "same count at 4 and 128: {per_release:?}"
    );
}
