//! `CausalRecorder::record_next` is the predecessor-list assembly every
//! backend used to hand-roll — `last()` + extend + sort + dedup + `record()`
//! — and nothing else: same ids, same lanes, same dump, whatever the
//! deliveries (duplicates, ids long evicted, ids never recorded, more than
//! the two a slot keeps inline).

use ftbarrier_telemetry::{CausalRecorder, EventId};
use proptest::prelude::*;

/// What `mp::proc::record_causal`, `runtime::barrier::Shared::record` and
/// `gcs::causal::observe_fault` each spelled out before `record_next`.
fn record_by_hand(
    r: &CausalRecorder,
    pid: usize,
    at: f64,
    phase: Option<u32>,
    deliveries: &[EventId],
) -> Option<EventId> {
    let mut preds: Vec<EventId> = Vec::with_capacity(deliveries.len() + 1);
    preds.extend(r.last(pid));
    preds.extend_from_slice(deliveries);
    preds.sort_unstable();
    preds.dedup();
    r.record(pid, "step", at, phase, &preds)
}

proptest! {
    #[test]
    fn record_next_is_the_hand_rolled_sequence(
        script in proptest::collection::vec(
            (0usize..4, proptest::collection::vec(0usize..40, 0..24)),
            1..40,
        ),
    ) {
        // Capacity 20 over four lanes (five events each) against up to 39
        // events: many referenced ids are evicted by the time they are
        // named. Up to 23 deliveries: lists longer than the 16 a lane
        // once sorted on the stack, and long enough to lap a lane's
        // 32-word spill ring.
        let by_hand = CausalRecorder::bounded(4, 20);
        let next = CausalRecorder::bounded(4, 20);
        let mut recorded: Vec<EventId> = Vec::new();
        for (step, (pid, picks)) in script.iter().enumerate() {
            let deliveries: Vec<EventId> = picks
                .iter()
                .map(|&k| match recorded.len() {
                    // Early on, and every so often: an id nobody recorded.
                    0 => EventId { pid: 9, seq: k as u32 + 1 },
                    _ if k == 11 => EventId { pid: 9, seq: 1 },
                    n => recorded[(step * 7 + k) % n],
                })
                .collect();
            let (at, phase) = (step as f64 * 0.5, Some(step as u32 / 8));
            let a = record_by_hand(&by_hand, *pid, at, phase, &deliveries);
            let b = next.record_next(*pid, "step", at, phase, &deliveries);
            prop_assert_eq!(a, b);
            prop_assert_eq!(by_hand.last(*pid), next.last(*pid));
            recorded.push(b.unwrap());
        }
        prop_assert_eq!(by_hand.snapshot(), next.snapshot());
        prop_assert_eq!(
            by_hand.snapshot().to_flight_json("p", 4, "wedge", "r"),
            next.snapshot().to_flight_json("p", 4, "wedge", "r")
        );
    }
}
