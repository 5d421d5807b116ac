//! The flight recorder's per-event cost contract, as a deterministic count:
//! once a lane's storage exists, recording into it allocates nothing,
//! whether the event's predecessors fit inline (program order, plus one
//! delivery) or spill to the lane's spill ring. No timing involved.

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
fn recording_into_wrapped_lanes_allocates_nothing() {
    assert_eq!(
        allocations(|| drop(Box::new(7u64))),
        1,
        "the counter counts"
    );

    // Eight lanes of eight events each.
    let r = CausalRecorder::bounded(8, 64);
    let mut tags: Vec<EventId> = Vec::with_capacity(4);
    let mut step = |i: usize| {
        // Program order alone, plus one delivery, plus four: 1, 2 and 5
        // predecessors, the last spilled.
        let deliveries = match i % 3 {
            0 => &tags[..0],
            1 => &tags[..tags.len().min(1)],
            _ => &tags[..],
        };
        let label = ["cp:Ready->Execute", "fault:detectable"][usize::from(i % 3 == 2)];
        let tag = r.record_next(i % 8, label, i as f64, Some(3), deliveries);
        if tags.len() == 4 {
            tags.remove(0);
        }
        tags.extend(tag);
    };
    // Every lane wraps its slots and its spill ring.
    (0..1000).for_each(&mut step);
    assert_eq!(allocations(|| (1000..11_000).for_each(&mut step)), 0);
    let g = r.snapshot();
    assert_eq!((g.events.len(), g.dropped), (64, 11_000 - 64));
    assert!(g.events.iter().any(|e| e.preds.len() == 5));
}
