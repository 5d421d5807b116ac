//! Trace recording: a monitor that keeps every transition and fault, for
//! debugging protocol runs and for assertion-rich tests.

use crate::fault::FaultKind;
use crate::monitor::Monitor;
use crate::protocol::{ActionId, Pid};
use crate::time::Time;

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent<S> {
    Transition {
        now: Time,
        pid: Pid,
        action: ActionId,
        name: String,
        old: S,
        new: S,
    },
    Fault {
        now: Time,
        pid: Pid,
        kind: FaultKind,
        old: S,
        new: S,
    },
}

impl<S> TraceEvent<S> {
    pub fn time(&self) -> Time {
        match self {
            TraceEvent::Transition { now, .. } | TraceEvent::Fault { now, .. } => *now,
        }
    }

    pub fn pid(&self) -> Pid {
        match self {
            TraceEvent::Transition { pid, .. } | TraceEvent::Fault { pid, .. } => *pid,
        }
    }
}

/// A bounded event recorder. When `capacity` is exceeded the oldest events
/// are dropped (the tail of a run is usually what matters when debugging).
#[derive(Debug, Clone)]
pub struct Trace<S> {
    events: std::collections::VecDeque<TraceEvent<S>>,
    capacity: usize,
    dropped: usize,
}

impl<S: Clone> Trace<S> {
    pub fn unbounded() -> Self {
        Self::with_capacity(usize::MAX)
    }

    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            events: std::collections::VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    fn push(&mut self, event: TraceEvent<S>) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    pub fn events(&self) -> impl Iterator<Item = &TraceEvent<S>> {
        self.events.iter()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events discarded due to the capacity bound.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// All transitions executed by `pid`, in order.
    pub fn transitions_of(&self, pid: Pid) -> Vec<&TraceEvent<S>> {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Transition { .. }) && e.pid() == pid)
            .collect()
    }

    /// Count of transitions with the given action name.
    pub fn count_action(&self, name: &str) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Transition { name: n, .. } if n == name))
            .count()
    }
}

impl<S: Clone> Monitor<S> for Trace<S> {
    fn on_transition(
        &mut self,
        now: Time,
        pid: Pid,
        action: ActionId,
        name: &str,
        old: &S,
        new: &S,
        _global: &[S],
    ) {
        self.push(TraceEvent::Transition {
            now,
            pid,
            action,
            name: name.to_owned(),
            old: old.clone(),
            new: new.clone(),
        });
    }

    fn on_fault(&mut self, now: Time, pid: Pid, kind: FaultKind, old: &S, new: &S, _global: &[S]) {
        self.push(TraceEvent::Fault {
            now,
            pid,
            kind,
            old: old.clone(),
            new: new.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut trace: Trace<u64> = Trace::unbounded();
        let g = [0u64];
        trace.on_transition(Time::new(0.5), 1, 0, "a", &0, &1, &g);
        trace.on_fault(Time::new(1.0), 2, FaultKind::Detectable, &1, &9, &g);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.count_action("a"), 1);
        assert_eq!(trace.transitions_of(1).len(), 1);
        assert_eq!(trace.transitions_of(2).len(), 0);
        let times: Vec<Time> = trace.events().map(|e| e.time()).collect();
        assert_eq!(times, vec![Time::new(0.5), Time::new(1.0)]);
    }

    #[test]
    fn capacity_drops_oldest() {
        let mut trace: Trace<u64> = Trace::with_capacity(2);
        let g = [0u64];
        for i in 0..5u64 {
            trace.on_transition(Time::new(i as f64), 0, 0, "x", &i, &(i + 1), &g);
        }
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.dropped(), 3);
        let first = trace.events().next().unwrap();
        assert_eq!(first.time(), Time::new(3.0));
    }
}
