//! What the simulated network costs the deterministic simulators per
//! message, as a deterministic count: once the event queue, the inbox and
//! the caller's `advance_to` buffer have grown to the working size, a send
//! allocates nothing under any fault class and neither does a delivery.
//! No timing involved.

use ftbarrier_gcs::Time;
use ftbarrier_mp::channel::ChannelFaults;
use ftbarrier_mp::simnet::{LatencyModel, LinkConfig, SimNet};
use ftbarrier_mp::{StateMsg, WireMsg};
use ftbarrier_telemetry::EventId;
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

const BURST: u32 = 64;

/// One burst of `BURST` sends, then one delivery step and a drained inbox:
/// `(allocations by the sends, allocations by advance_to, deliveries)`.
fn round(net: &mut SimNet<WireMsg>, touched: &mut Vec<usize>) -> (u64, u64, usize) {
    let msg = WireMsg {
        epoch: 0,
        msg: StateMsg::initial(),
    };
    let (sends, ()) = allocations(|| {
        for seq in 0..BURST {
            net.send_tagged(0, msg, Some(EventId { pid: 0, seq }));
        }
    });
    let t = net.now() + Time::new(1.0);
    let (advance, ()) = allocations(|| net.advance_to(t, touched));
    let (pops, ()) = allocations(|| while net.pop_inbox_tagged(0).is_some() {});
    assert_eq!(pops, 0, "popping the inbox");
    (sends, advance, touched.len())
}

#[test]
fn sends_and_deliveries_allocate_nothing_after_warm_up() {
    assert_eq!(allocations(|| Box::new(7u64)).0, 1, "the counter counts");

    let only = |set: fn(&mut ChannelFaults)| {
        let mut f = ChannelFaults::NONE;
        set(&mut f);
        f
    };
    let cases: [(&str, ChannelFaults, bool); 6] = [
        ("perfect", ChannelFaults::NONE, false),
        ("loss", only(|f| f.loss = 1.0), false),
        ("corruption", only(|f| f.corruption = 1.0), false),
        ("duplication", only(|f| f.duplication = 1.0), false),
        ("reorder", only(|f| f.reorder = 1.0), false),
        ("partition", ChannelFaults::NONE, true),
    ];
    for (name, faults, cut) in cases {
        let link = LinkConfig {
            latency: LatencyModel::Uniform { lo: 0.0, hi: 0.5 },
            faults,
        };
        let mut net: SimNet<WireMsg> = SimNet::new(vec![link], 7);
        net.set_partitioned(0, cut);
        let mut touched = Vec::new();
        for _ in 0..4 {
            round(&mut net, &mut touched);
        }
        for _ in 0..4 {
            let (sends, advance, delivered) = round(&mut net, &mut touched);
            assert_eq!(sends, 0, "{name}: {BURST} sends");
            assert_eq!(advance, 0, "{name}: advance_to");
            // Each class really took its path: nothing, one copy, or two.
            let expected = match name {
                "loss" | "partition" => 0,
                "duplication" => 2 * BURST as usize,
                _ => BURST as usize,
            };
            assert_eq!(delivered, expected, "{name}: deliveries");
        }
    }
}
