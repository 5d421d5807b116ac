//! The crossing's cost contract, as a deterministic count: once the flight
//! recorder's rings are full, `arrive()` and `arrive_failed()` allocate
//! nothing — on a leaf, on the root, and on an interior node that consumes
//! two children — with the recorder on, as it always is. No timing involved.

use ftbarrier_runtime::{FtBarrier, Participant};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread: every participant counts its own.
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

/// Crossings before counting: more events than any one ring of the default
/// 8192-event recorder holds (at most two per crossing, 4096 slots for
/// `n = 2`), so every ring is evicting while we count.
const WARM_UP: u64 = 2_500;
const COUNTED: u64 = 400;

/// Cross `crossings` times; every eighth crossing, starting at this
/// participant's own id, reports a detectable fault.
fn cross(p: &mut Participant, from: u64, crossings: u64) {
    for i in from..from + crossings {
        let outcome = if i % 8 == p.id() as u64 {
            p.arrive_failed()
        } else {
            p.arrive()
        };
        outcome.expect("crossing");
    }
}

/// Allocations each participant of `FtBarrier::new(n)` made over `COUNTED`
/// warm crossings, by participant id.
fn counted_allocations(n: usize) -> Vec<u64> {
    let (_barrier, parts) = FtBarrier::new(n);
    let handles: Vec<_> = parts
        .into_iter()
        .map(|mut p| {
            std::thread::spawn(move || {
                cross(&mut p, 0, WARM_UP);
                allocations(|| cross(&mut p, WARM_UP, COUNTED)).0
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("participant thread panicked"))
        .collect()
}

#[test]
fn a_warm_crossing_allocates_nothing() {
    assert_eq!(allocations(|| Box::new(7u64)).0, 1, "the counter counts");
    // Root and leaf.
    assert_eq!(counted_allocations(2), [0, 0]);
    // Participant 1 of seven is an interior node with children 3 and 4;
    // the root has two children as well.
    assert_eq!(counted_allocations(7), [0; 7]);
}
