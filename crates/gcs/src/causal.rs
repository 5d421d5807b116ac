//! Causal happens-before recording for the shared-memory engines.
//!
//! [`CausalMonitor`] turns every committed transition into a
//! [`ftbarrier_telemetry::CausalEvent`] whose predecessor set is derived
//! from the protocol's *declared read-sets*: inverting
//! [`Protocol::readers_of`] yields, for each process, exactly the
//! processes its guards read, so a commit at `pid` is causally linked to
//! the last event of every process whose state the deciding guard could
//! have observed — plus `pid`'s own previous event (program order).
//! Faults link to the victim's own previous event only.
//!
//! The engine's incremental and full-rescan schedulers fire transition
//! callbacks in the same committed order — pinned by the byte-identity
//! differential suite — so the causal dumps of the two schedulers on the
//! same seed are byte-identical too (the `core::testkit` conformance
//! battery asserts exactly that).
//!
//! Like every monitor this is a pure observer: with a disabled recorder
//! every hook is a single branch, and an enabled recorder never touches
//! engine RNG or scheduling.

use crate::fault::FaultKind;
use crate::monitor::Monitor;
use crate::protocol::{ActionId, Pid, Protocol, ReaderSet};
use crate::time::Time;
use ftbarrier_telemetry::{CausalRecorder, EventId};

/// Optional projection from a committed state to its barrier phase, so
/// recorded events carry a `phase` label for per-phase critical paths.
pub type CausalPhaseProjector<S> = Box<dyn Fn(&S) -> Option<u32> + Send>;

/// Records the causal event graph of an engine run (see module docs).
pub struct CausalMonitor<S> {
    recorder: CausalRecorder,
    /// `reads[p]` = processes whose state `p`'s guards read (sorted,
    /// includes `p` itself) — the inverse of `readers_of`.
    reads: Vec<Vec<Pid>>,
    phase_of: Option<CausalPhaseProjector<S>>,
    scratch: Vec<EventId>,
}

/// `reads[p]` for every process `p`: the inverse of
/// [`Protocol::readers_of`], plus `p` itself, sorted.
fn read_sets<P: Protocol>(protocol: &P) -> Vec<Vec<Pid>> {
    let n = protocol.num_processes();
    let mut reads: Vec<Vec<Pid>> = vec![Vec::new(); n];
    for q in 0..n {
        match protocol.readers_of(q) {
            ReaderSet::All => {
                for r in reads.iter_mut() {
                    r.push(q);
                }
            }
            ReaderSet::These(ps) => {
                for p in ps {
                    debug_assert!(p < n, "readers_of({q}) names pid {p} out of range");
                    reads[p].push(q);
                }
            }
        }
    }
    for (p, r) in reads.iter_mut().enumerate() {
        r.push(p); // program order: every process reads itself
        r.sort_unstable();
        r.dedup();
    }
    reads
}

impl<S> CausalMonitor<S> {
    /// Build from a protocol's declared read-sets. With a disabled
    /// recorder the monitor is a no-op, construction included: the read
    /// table is built only for a recorder that is on.
    pub fn from_protocol<P: Protocol<State = S>>(
        protocol: &P,
        recorder: CausalRecorder,
    ) -> CausalMonitor<S> {
        let reads = if recorder.is_enabled() {
            let (lanes, n) = (recorder.lanes(), protocol.num_processes());
            assert!(
                lanes >= n,
                "the recorder has {lanes} lanes for {n} processes"
            );
            read_sets(protocol)
        } else {
            Vec::new()
        };
        CausalMonitor {
            recorder,
            reads,
            phase_of: None,
            scratch: Vec::new(),
        }
    }

    /// Label every event with the phase projected from the new state.
    pub fn with_phase(mut self, f: CausalPhaseProjector<S>) -> CausalMonitor<S> {
        self.phase_of = Some(f);
        self
    }

    /// The recorder events are flowing into (cloneable handle).
    pub fn recorder(&self) -> &CausalRecorder {
        &self.recorder
    }
}

impl<S> Monitor<S> for CausalMonitor<S> {
    fn on_transition(
        &mut self,
        now: Time,
        pid: Pid,
        _action: ActionId,
        name: &'static str,
        _old: &S,
        new: &S,
        _global: &[S],
    ) {
        if !self.recorder.is_enabled() {
            return;
        }
        self.scratch.clear();
        for &q in &self.reads[pid] {
            if let Some(id) = self.recorder.last(q) {
                self.scratch.push(id);
            }
        }
        let phase = self.phase_of.as_ref().and_then(|f| f(new));
        self.recorder
            .record(pid, name, now.as_f64(), phase, &self.scratch);
    }

    fn on_fault(&mut self, now: Time, pid: Pid, kind: FaultKind, _old: &S, new: &S, _global: &[S]) {
        if !self.recorder.is_enabled() {
            return;
        }
        let label = match kind {
            FaultKind::Detectable => "fault:detectable",
            FaultKind::Undetectable => "fault:undetectable",
        };
        let phase = self.phase_of.as_ref().and_then(|f| f(new));
        self.recorder
            .record_next(pid, label, now.as_f64(), phase, &[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::fault::NoFaults;
    use crate::protocol::testutil::DijkstraRing;

    fn run_ring(recorder: CausalRecorder) -> CausalRecorder {
        let ring = DijkstraRing {
            n: 4,
            k: 7,
            cost: Time::new(0.1),
        };
        let mut monitor = CausalMonitor::from_protocol(&ring, recorder.clone());
        let mut engine = Engine::new(&ring, 7);
        let cfg = EngineConfig {
            max_time: Some(Time::new(5.0)),
            ..Default::default()
        };
        engine.run(&cfg, &mut NoFaults, &mut monitor);
        recorder
    }

    #[test]
    fn read_sets_invert_into_causal_edges() {
        let rec = run_ring(CausalRecorder::bounded(4, 4096));
        let g = rec.snapshot();
        assert!(!g.events.is_empty());
        // Every event's predecessors were recorded before it, and each
        // pred's pid is either the event's own pid (program order) or a
        // ring neighbor (the only states a DijkstraRing guard reads).
        let mut seen = std::collections::BTreeSet::new();
        for e in &g.events {
            for p in &e.preds {
                assert!(seen.contains(p), "dangling pred {p:?}");
                let (a, b) = (e.id.pid as i64, p.pid as i64);
                let d = (a - b).rem_euclid(4);
                assert!(d == 0 || d == 1, "p{b} is not read by p{a}'s guards");
            }
            seen.insert(e.id);
        }
        // The run's critical path is a real chain with positive span.
        let path = g.critical_path();
        assert!(path.len > 1);
        assert!(path.elapsed > 0.0);
    }

    #[test]
    fn off_recorder_records_nothing() {
        let rec = run_ring(CausalRecorder::off());
        assert!(rec.snapshot().events.is_empty());
    }

    #[test]
    fn off_recorder_builds_no_read_table() {
        let ring = DijkstraRing {
            n: 4,
            k: 7,
            cost: Time::new(0.1),
        };
        let off = CausalMonitor::<u64>::from_protocol(&ring, CausalRecorder::off());
        assert!(off.reads.is_empty());
        let on = CausalMonitor::<u64>::from_protocol(&ring, CausalRecorder::bounded(4, 16));
        assert_eq!(
            on.reads,
            vec![vec![0, 3], vec![0, 1], vec![1, 2], vec![2, 3]]
        );
    }

    #[test]
    #[should_panic(expected = "the recorder has 3 lanes for 4 processes")]
    fn a_recorder_without_a_lane_per_process_is_refused() {
        let ring = DijkstraRing {
            n: 4,
            k: 7,
            cost: Time::new(0.1),
        };
        CausalMonitor::<u64>::from_protocol(&ring, CausalRecorder::bounded(3, 16));
    }

    #[test]
    fn same_seed_yields_identical_dumps() {
        let a = run_ring(CausalRecorder::bounded(4, 4096))
            .snapshot()
            .to_flight_json("dijkstra", 4, "test", "end");
        let b = run_ring(CausalRecorder::bounded(4, 4096))
            .snapshot()
            .to_flight_json("dijkstra", 4, "test", "end");
        assert_eq!(a, b);
    }
}
