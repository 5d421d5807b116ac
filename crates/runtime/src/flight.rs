//! The barrier's always-on flight recorder: one bounded ring per
//! participant, so that recording a crossing shares nothing between
//! participants.
//!
//! A participant writes only its own [`Lane`]: its ring, under a lock no
//! other participant takes on the fault-free path, and one atomic word
//! naming its latest event. A participant that acts on another's
//! publication (a parent consuming an arrival, a waiter observing the
//! release) reads that word — nothing else — to get the happens-before edge
//! for its own next event. The owner stores the word *before* the slot or
//! release word that makes the event observable, so whoever sees the
//! publication sees an event at least as late as the one behind it.
//!
//! Events are stamped with a logical clock counted in crossings, not with
//! the wall clock (a crossing reads no clock unless it was given a
//! deadline): an event's time is the largest of its participant's epoch,
//! its participant's previous event, and the events it depends on, so time
//! never runs backwards along an edge even when a timed-out root has run
//! epochs ahead of a straggler. "Silent since crossing k" is what
//! [`CausalGraph::blame`] needs. Timestamps tie across participants all the
//! time; [`CausalGraph::merge`] orders a snapshot by predecessors first.
//!
//! Recording never allocates: the rings are sized at construction and
//! labels are `&'static str`.

use crossbeam::utils::CachePadded;
use ftbarrier_telemetry::{CausalEvent, CausalGraph, EventId};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Another participant's latest event, as a predecessor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dep {
    id: EventId,
    /// The event's logical time.
    at: u64,
}

/// What a participant records: a byte in every slot rather than a label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    Arrive,
    ArriveFailed,
    Release,
    Leave,
    Timeout,
}

impl Step {
    fn label(self) -> &'static str {
        match self {
            Step::Arrive => "arrive",
            Step::ArriveFailed => "arrive:failed",
            Step::Release => "release",
            Step::Leave => "leave",
            Step::Timeout => "fault:timeout",
        }
    }
}

struct Slot {
    at: u64,
    seq: u32,
    phase: u32,
    /// How many entries of `Ring::deps` belong to this event.
    deps: u32,
    step: Step,
}

struct Ring {
    capacity: usize,
    /// Allocated at `capacity` up front; never grows.
    events: VecDeque<Slot>,
    /// The cross-participant predecessors of `events`, concatenated.
    /// Allocated for `capacity` events of the most an event here can have.
    deps: VecDeque<EventId>,
    /// `seq` and logical time of the latest event; 0 before the first.
    seq: u32,
    at: u64,
    /// Events evicted so far: the oldest one held is the owner's
    /// `dropped`-th.
    dropped: u64,
}

struct Lane {
    /// `time << 32 | seq` of the owner's latest event, 0 before the first:
    /// the low halves of both, which is all a reader within 2³¹ crossings
    /// and 2³² events of the owner needs.
    last: AtomicU64,
    ring: Mutex<Ring>,
}

pub(crate) struct Flight {
    lanes: Vec<CachePadded<Lane>>,
}

impl Flight {
    /// `capacity` recent events in all, shared out evenly; participant `i`
    /// records at most `max_deps(i)` cross-participant predecessors on any
    /// one event.
    pub(crate) fn new(n: usize, capacity: usize, max_deps: impl Fn(usize) -> usize) -> Flight {
        assert!(capacity > 0, "flight recorder needs capacity >= 1");
        let capacity = capacity.div_ceil(n);
        let lanes = (0..n)
            .map(|i| {
                CachePadded::new(Lane {
                    last: AtomicU64::new(0),
                    ring: Mutex::new(Ring {
                        capacity,
                        events: VecDeque::with_capacity(capacity),
                        deps: VecDeque::with_capacity(capacity * max_deps(i)),
                        seq: 0,
                        at: 0,
                        dropped: 0,
                    }),
                })
            })
            .collect();
        Flight { lanes }
    }

    /// Record `pid`'s next event, in `epoch`: predecessors are its own
    /// previous event plus `deps`.
    pub(crate) fn record(&self, pid: usize, step: Step, epoch: u64, phase: u64, deps: &[Dep]) {
        let lane = &self.lanes[pid];
        let mut ring = lane.ring.lock();
        let ring = &mut *ring;
        let at = deps
            .iter()
            .fold(ring.at.max(epoch), |at, dep| at.max(dep.at));
        // 2^32 events on one participant is hours of back-to-back
        // crossings: wrap past 0, which stays the "no event yet" marker.
        let seq = match ring.seq.wrapping_add(1) {
            0 => 1,
            seq => seq,
        };
        if ring.events.len() >= ring.capacity {
            if let Some(evicted) = ring.events.pop_front() {
                ring.deps.drain(..evicted.deps as usize);
                ring.dropped += 1;
            }
        }
        ring.events.push_back(Slot {
            at,
            seq,
            phase: phase as u32,
            deps: deps.len() as u32,
            step,
        });
        ring.deps.extend(deps.iter().map(|dep| dep.id));
        ring.seq = seq;
        ring.at = at;
        // Release: pairs with the Acquire in `last`, though the word
        // carries its whole message itself (ring contents are only ever
        // read under the lock).
        lane.last
            .store((at as u32 as u64) << 32 | seq as u64, Ordering::Release);
    }

    /// `pid`'s latest event (`None` before its first), for a reader whose
    /// own clock reads `near`.
    pub(crate) fn last(&self, pid: usize, near: u64) -> Option<Dep> {
        let word = self.lanes[pid].last.load(Ordering::Acquire);
        let seq = word as u32;
        if seq == 0 {
            return None;
        }
        // Widen the event's time from its low half: it is within 2³¹ of
        // the reader's.
        let ahead = ((word >> 32) as u32).wrapping_sub(near as u32) as i32;
        Some(Dep {
            id: EventId {
                pid: pid as u32,
                seq,
            },
            at: near.wrapping_add_signed(ahead.into()),
        })
    }

    /// Every ring, merged predecessors-first. Locks one ring at a time, so
    /// a snapshot of a running barrier may hold an event whose predecessor
    /// was recorded after its ring was read; analysis ignores such edges
    /// like any other it cannot resolve.
    pub(crate) fn snapshot(&self) -> CausalGraph {
        let mut dropped = 0;
        let rings = self
            .lanes
            .iter()
            .enumerate()
            .map(|(pid, lane)| {
                let ring = lane.ring.lock();
                dropped += ring.dropped;
                let pid = pid as u32;
                let mut deps = ring.deps.iter().copied();
                ring.events
                    .iter()
                    .enumerate()
                    .map(|(i, slot)| {
                        // Program order: every event but the owner's very
                        // first follows the one numbered before it.
                        let own = (ring.dropped > 0 || i > 0).then_some(EventId {
                            pid,
                            seq: match slot.seq - 1 {
                                0 => u32::MAX,
                                seq => seq,
                            },
                        });
                        let mut preds: Vec<EventId> = own
                            .into_iter()
                            .chain(deps.by_ref().take(slot.deps as usize))
                            .collect();
                        preds.sort_unstable();
                        preds.dedup();
                        CausalEvent {
                            id: EventId { pid, seq: slot.seq },
                            at: slot.at as f64,
                            label: slot.step.label().to_owned(),
                            phase: Some(slot.phase),
                            preds,
                        }
                    })
                    .collect()
            })
            .collect();
        CausalGraph::merge(rings, dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(pid: u32, seq: u32) -> EventId {
        EventId { pid, seq }
    }

    #[test]
    fn a_crossing_is_recorded_with_its_edges_and_one_clock() {
        let f = Flight::new(2, 16, |_| 1);
        assert!(f.last(1, 1).is_none());
        f.record(1, Step::Arrive, 1, 0, &[]);
        let child = f.last(1, 1).expect("participant 1 recorded");
        f.record(0, Step::Arrive, 1, 0, &[child]);
        f.record(0, Step::Release, 1, 1, &[]);
        let release = f.last(0, 1).expect("participant 0 recorded");
        f.record(1, Step::Leave, 1, 1, &[release]);
        let g = f.snapshot();
        let seen: Vec<_> = g
            .events
            .iter()
            .map(|e| (e.id, e.label.as_str(), e.at, e.preds.clone()))
            .collect();
        assert_eq!(
            seen,
            [
                (id(1, 1), "arrive", 1.0, vec![]),
                (id(0, 1), "arrive", 1.0, vec![id(1, 1)]),
                (id(0, 2), "release", 1.0, vec![id(0, 1)]),
                (id(1, 2), "leave", 1.0, vec![id(0, 2), id(1, 1)]),
            ]
        );
        assert_eq!(g.dropped, 0);
    }

    /// A root that timed out runs epochs ahead of a straggler; the
    /// straggler's events must not be stamped earlier than the root events
    /// they depend on, nor its later events earlier than its own.
    #[test]
    fn time_never_runs_backwards_along_an_edge() {
        let f = Flight::new(2, 16, |_| 1);
        for epoch in 1..=5 {
            f.record(0, Step::Timeout, epoch, 0, &[]);
        }
        f.record(1, Step::Arrive, 1, 0, &[]);
        let root = f.last(0, 1).expect("root recorded");
        assert_eq!((root.id, root.at), (id(0, 5), 5));
        f.record(1, Step::Leave, 1, 0, &[root]);
        f.record(1, Step::Arrive, 2, 0, &[]);
        let g = f.snapshot();
        let ats: Vec<f64> = g
            .events
            .iter()
            .filter(|e| e.id.pid == 1)
            .map(|e| e.at)
            .collect();
        assert_eq!(ats, [1.0, 5.0, 5.0]);
        // The published word carries only the low half of the time.
        let far = Flight::new(2, 4, |_| 1);
        let epoch = (7 << 32) + 3;
        far.record(0, Step::Release, epoch, 0, &[]);
        assert_eq!(far.last(0, epoch - 2).map(|d| d.at), Some(epoch));
        assert_eq!(far.last(0, epoch + 2).map(|d| d.at), Some(epoch));
    }

    #[test]
    fn each_ring_evicts_its_own_oldest_and_dropped_is_the_sum() {
        // Capacity 4 over 2 participants: 2 events each.
        let f = Flight::new(2, 4, |_| 3);
        let dep = |seq| Dep {
            id: id(1, seq),
            at: 1,
        };
        f.record(1, Step::Arrive, 1, 0, &[]);
        f.record(0, Step::Arrive, 1, 0, &[dep(1), dep(7)]);
        f.record(0, Step::Release, 1, 0, &[]);
        f.record(0, Step::Timeout, 2, 0, &[dep(1)]);
        f.record(0, Step::ArriveFailed, 2, 0, &[dep(8), dep(1), dep(1)]);
        f.record(1, Step::Leave, 2, 0, &[]);
        f.record(1, Step::Arrive, 2, 0, &[]);
        let g = f.snapshot();
        assert_eq!(g.dropped, 2 + 1);
        let p0: Vec<_> = g
            .events
            .iter()
            .filter(|e| e.id.pid == 0)
            .map(|e| (e.label.as_str(), e.preds.clone()))
            .collect();
        // Evicting the first two took exactly their predecessors with them.
        assert_eq!(
            p0,
            [
                ("fault:timeout", vec![id(0, 2), id(1, 1)]),
                ("arrive:failed", vec![id(0, 3), id(1, 1), id(1, 8)]),
            ]
        );
        assert_eq!(g.events.iter().filter(|e| e.id.pid == 1).count(), 2);
    }

    #[test]
    fn seq_wraps_past_zero() {
        let f = Flight::new(1, 8, |_| 1);
        f.lanes[0].ring.lock().seq = u32::MAX - 1;
        f.record(0, Step::Arrive, 1, 0, &[]);
        f.record(0, Step::Release, 1, 0, &[]);
        assert_eq!(f.last(0, 1).map(|d| d.id), Some(id(0, 1)));
        let g = f.snapshot();
        assert_eq!(g.events[1].preds, vec![id(0, u32::MAX)]);
    }
}
