//! The flight recorder's per-event cost contract, as a deterministic count:
//! recording an event with a `&'static str` label and at most two
//! predecessors (program order + one delivery) into a full ring allocates
//! nothing. No timing involved.

use ftbarrier_telemetry::{CausalRecorder, EventId};
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

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn recording_into_a_full_ring_allocates_nothing() {
    assert_eq!(
        allocations(|| drop(Box::new(7u64))),
        1,
        "the counter counts"
    );

    let r = CausalRecorder::bounded(64);
    let mut tag: Option<EventId> = None;
    let mut step = |i: usize| {
        // Eight seats; every other event also absorbed one delivery.
        let deliveries = if i.is_multiple_of(2) {
            tag.as_slice()
        } else {
            &[]
        };
        tag = r.record_next(i % 8, "cp:Ready->Execute", i as f64, Some(3), deliveries);
    };
    (0..100).for_each(&mut step);
    assert!(r.dropped() > 0, "the ring is full and evicting");

    assert_eq!(allocations(|| (100..10_100).for_each(&mut step)), 0);
    assert_eq!(r.dropped(), 10_100 - 64);

    // Outside the contract the cost is one allocation, not a cliff: a third
    // predecessor spills the list, a built label is owned.
    let ids = [tag.unwrap(), EventId { pid: 9, seq: 1 }];
    let spilled = allocations(|| {
        r.record_next(0, "spill", 0.0, None, &ids);
    });
    let built = allocations(|| {
        r.record_next(0, String::from("built"), 0.0, None, &[]);
    });
    assert_eq!((spilled, built), (1, 1));
}
