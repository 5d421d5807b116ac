//! The barrier's always-on flight recorder: a [`CausalRecorder`] with one
//! lane per participant, so that recording a crossing shares nothing
//! between participants.
//!
//! A participant writes only its own lane, which publishes one atomic word
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
//! epochs ahead of a straggler. The lane's word carries the low 32 bits of
//! the event's time beside its `seq`; a reader widens them against its own
//! epoch; a participant keeps its own latest time itself, so stamping an
//! event reads no lane word. "Silent since crossing k" is what
//! [`CausalGraph::blame`] needs.
//! Timestamps tie across participants all the time; [`CausalGraph::merge`]
//! orders a snapshot by predecessors first.
//!
//! Recording takes no lock and, once a lane's storage exists, allocates
//! nothing.

use ftbarrier_telemetry::{CausalGraph, CausalRecorder, EventId};

/// What a participant records.
pub(crate) const ARRIVE: &str = "arrive";
pub(crate) const ARRIVE_FAILED: &str = "arrive:failed";
pub(crate) const RELEASE: &str = "release";
pub(crate) const LEAVE: &str = "leave";
pub(crate) const TIMEOUT: &str = "fault:timeout";

/// A participant's recording state: the other participants' latest
/// events its next event depends on (their ids, and the latest of their
/// logical times), and its own latest event's logical time — kept here by
/// the lane's one writer, so recording reads no lane word.
#[derive(Debug, Default)]
pub(crate) struct Deps {
    ids: Vec<EventId>,
    at: u64,
    own: u64,
}

impl Deps {
    /// Room for `n` dependencies, allocated once.
    pub(crate) fn with_capacity(n: usize) -> Deps {
        let ids = Vec::with_capacity(n);
        Deps {
            ids,
            ..Deps::default()
        }
    }

    /// Forget the dependencies; the participant's own time stays.
    pub(crate) fn clear(&mut self) {
        self.ids.clear();
        self.at = 0;
    }

    /// Add `(id, logical time)`, if there is one.
    pub(crate) fn push(&mut self, dep: Option<(EventId, u64)>) {
        if let Some((id, at)) = dep {
            self.ids.push(id);
            self.at = self.at.max(at);
        }
    }
}

/// `n` lanes keeping `capacity` recent events in all, shared out evenly.
pub(crate) struct Flight(pub(crate) CausalRecorder);

impl Flight {
    /// Record `pid`'s next event, in `epoch`: predecessors are its own
    /// previous event plus `deps`, which must be `pid`'s own state.
    pub(crate) fn record(
        &self,
        pid: usize,
        label: &'static str,
        epoch: u64,
        phase: u64,
        deps: &mut Deps,
    ) {
        deps.own = deps.own.max(epoch).max(deps.at);
        let at = deps.own as f64;
        self.0
            .record_next(pid, label, at, Some(phase as u32), &deps.ids);
    }

    /// `pid`'s latest event and its logical time (`None` before its
    /// first), for a reader whose own clock reads `near`.
    pub(crate) fn last(&self, pid: usize, near: u64) -> Option<(EventId, u64)> {
        let (id, low) = self.0.last_stamped(pid)?;
        // Widen the event's time from its low half: it is within 2³¹ of
        // the reader's.
        let ahead = low.wrapping_sub(near as u32) as i32;
        Some((id, near.wrapping_add_signed(ahead.into())))
    }

    /// Every lane, merged predecessors-first. A snapshot of a running
    /// barrier may hold an event whose predecessor was recorded after its
    /// lane was read; analysis ignores such edges like any other it cannot
    /// resolve.
    pub(crate) fn snapshot(&self) -> CausalGraph {
        self.0.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(pid: u32, seq: u32) -> EventId {
        EventId { pid, seq }
    }

    /// Participant `pid`'s next event on `f`, depending on `on`.
    fn step(
        f: &Flight,
        state: &mut [Deps],
        pid: usize,
        (label, epoch): (&'static str, u64),
        on: &[(EventId, u64)],
    ) {
        state[pid].clear();
        on.iter().for_each(|&dep| state[pid].push(Some(dep)));
        f.record(pid, label, epoch, 0, &mut state[pid]);
    }

    fn states() -> [Deps; 2] {
        Default::default()
    }

    #[test]
    fn a_crossing_is_recorded_with_its_edges_and_one_clock() {
        let (f, mut p) = (Flight(CausalRecorder::bounded(2, 16)), states());
        assert!(f.last(1, 1).is_none());
        step(&f, &mut p, 1, (ARRIVE, 1), &[]);
        let child = f.last(1, 1).expect("participant 1 recorded");
        step(&f, &mut p, 0, (ARRIVE, 1), &[child]);
        step(&f, &mut p, 0, (RELEASE, 1), &[]);
        let release = f.last(0, 1).expect("participant 0 recorded");
        step(&f, &mut p, 1, (LEAVE, 1), &[release]);
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
        let (f, mut p) = (Flight(CausalRecorder::bounded(2, 16)), states());
        for epoch in 1..=5 {
            step(&f, &mut p, 0, (TIMEOUT, epoch), &[]);
        }
        step(&f, &mut p, 1, (ARRIVE, 1), &[]);
        let root = f.last(0, 1).expect("root recorded");
        assert_eq!(root, (id(0, 5), 5));
        step(&f, &mut p, 1, (LEAVE, 1), &[root]);
        step(&f, &mut p, 1, (ARRIVE, 2), &[]);
        let g = f.snapshot();
        let ats: Vec<f64> = g
            .events
            .iter()
            .filter(|e| e.id.pid == 1)
            .map(|e| e.at)
            .collect();
        assert_eq!(ats, [1.0, 5.0, 5.0]);
        // The published word carries only the low half of the time.
        let (far, mut p) = (Flight(CausalRecorder::bounded(2, 4)), states());
        let epoch = (7 << 32) + 3;
        step(&far, &mut p, 0, (RELEASE, epoch), &[]);
        assert_eq!(far.last(0, epoch - 2).map(|(_, at)| at), Some(epoch));
        assert_eq!(far.last(0, epoch + 2).map(|(_, at)| at), Some(epoch));
    }

    #[test]
    fn each_lane_evicts_its_own_oldest_and_dropped_is_the_sum() {
        // Capacity 4 over 2 participants: 2 events each.
        let (f, mut p) = (Flight(CausalRecorder::bounded(2, 4)), states());
        let dep = |seq| (id(1, seq), 1);
        step(&f, &mut p, 1, (ARRIVE, 1), &[]);
        step(&f, &mut p, 0, (ARRIVE, 1), &[dep(1), dep(7)]);
        step(&f, &mut p, 0, (RELEASE, 1), &[]);
        step(&f, &mut p, 0, (TIMEOUT, 2), &[dep(1)]);
        step(&f, &mut p, 0, (ARRIVE_FAILED, 2), &[dep(8), dep(1), dep(1)]);
        step(&f, &mut p, 1, (LEAVE, 2), &[]);
        step(&f, &mut p, 1, (ARRIVE, 2), &[]);
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
}
