//! Observation hooks: monitors see every state transition and fault as it is
//! applied, with the global time. The barrier specification oracle in
//! `ftbarrier-core` is a monitor; traces and statistics collectors are too.

use crate::fault::FaultKind;
use crate::protocol::{ActionId, Pid};
use crate::time::Time;

/// Observer of a simulation run over per-process states `S`.
///
/// `global` is the state *after* the transition/fault has been applied.
pub trait Monitor<S> {
    /// An action `(pid, action)` named `name` executed at time `now`,
    /// changing `pid`'s state from `old` to `new`.
    #[allow(clippy::too_many_arguments)]
    fn on_transition(
        &mut self,
        now: Time,
        pid: Pid,
        action: ActionId,
        name: &'static str,
        old: &S,
        new: &S,
        global: &[S],
    );

    /// A fault of kind `kind` hit `pid` at time `now`.
    fn on_fault(
        &mut self,
        _now: Time,
        _pid: Pid,
        _kind: FaultKind,
        _old: &S,
        _new: &S,
        _global: &[S],
    ) {
    }

    /// Asked after every applied event; returning `true` stops the run.
    fn should_stop(&mut self) -> bool {
        false
    }
}

/// A monitor that observes nothing. Useful as a default.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullMonitor;

impl<S> Monitor<S> for NullMonitor {
    fn on_transition(
        &mut self,
        _now: Time,
        _pid: Pid,
        _action: ActionId,
        _name: &'static str,
        _old: &S,
        _new: &S,
        _global: &[S],
    ) {
    }
}

/// Combine several monitors; stops when any member asks to stop.
pub struct MonitorSet<'a, S> {
    members: Vec<&'a mut dyn Monitor<S>>,
}

impl<'a, S> MonitorSet<'a, S> {
    pub fn new() -> Self {
        MonitorSet {
            members: Vec::new(),
        }
    }

    pub fn with(mut self, monitor: &'a mut dyn Monitor<S>) -> Self {
        self.members.push(monitor);
        self
    }

    pub fn push(&mut self, monitor: &'a mut dyn Monitor<S>) {
        self.members.push(monitor);
    }
}

impl<'a, S> Default for MonitorSet<'a, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a, S> Monitor<S> for MonitorSet<'a, S> {
    fn on_transition(
        &mut self,
        now: Time,
        pid: Pid,
        action: ActionId,
        name: &'static str,
        old: &S,
        new: &S,
        global: &[S],
    ) {
        for m in &mut self.members {
            m.on_transition(now, pid, action, name, old, new, global);
        }
    }

    fn on_fault(&mut self, now: Time, pid: Pid, kind: FaultKind, old: &S, new: &S, global: &[S]) {
        for m in &mut self.members {
            m.on_fault(now, pid, kind, old, new, global);
        }
    }

    fn should_stop(&mut self) -> bool {
        self.members.iter_mut().any(|m| m.should_stop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        transitions: usize,
        stop_after: usize,
    }

    impl Monitor<u64> for Counter {
        fn on_transition(
            &mut self,
            _now: Time,
            _pid: Pid,
            _action: ActionId,
            _name: &'static str,
            _old: &u64,
            _new: &u64,
            _global: &[u64],
        ) {
            self.transitions += 1;
        }

        fn should_stop(&mut self) -> bool {
            self.transitions >= self.stop_after
        }
    }

    #[test]
    fn set_fans_out_and_stops() {
        let mut a = Counter {
            transitions: 0,
            stop_after: 2,
        };
        let mut b = Counter {
            transitions: 0,
            stop_after: 100,
        };
        let mut set = MonitorSet::new().with(&mut a).with(&mut b);
        let g = [0u64];
        set.on_transition(Time::ZERO, 0, 0, "t", &0, &1, &g);
        assert!(!set.should_stop());
        set.on_transition(Time::ZERO, 0, 0, "t", &1, &2, &g);
        assert!(set.should_stop());
        assert_eq!(a.transitions, 2);
        assert_eq!(b.transitions, 2);
    }
}
