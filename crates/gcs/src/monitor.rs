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

/// A borrowed monitor observes as its referent does, so `&mut m` and
/// `&mut dyn Monitor<S>` can be combined by value.
impl<S, M: Monitor<S> + ?Sized> Monitor<S> for &mut M {
    #[inline]
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
        (**self).on_transition(now, pid, action, name, old, new, global);
    }

    #[inline]
    fn on_fault(&mut self, now: Time, pid: Pid, kind: FaultKind, old: &S, new: &S, global: &[S]) {
        (**self).on_fault(now, pid, kind, old, new, global);
    }

    #[inline]
    fn should_stop(&mut self) -> bool {
        (**self).should_stop()
    }
}

/// An optional observer: `None` observes nothing and never stops the run.
impl<S, M: Monitor<S>> Monitor<S> for Option<M> {
    #[inline]
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
        if let Some(m) = self {
            m.on_transition(now, pid, action, name, old, new, global);
        }
    }

    #[inline]
    fn on_fault(&mut self, now: Time, pid: Pid, kind: FaultKind, old: &S, new: &S, global: &[S]) {
        if let Some(m) = self {
            m.on_fault(now, pid, kind, old, new, global);
        }
    }

    #[inline]
    fn should_stop(&mut self) -> bool {
        self.as_mut().is_some_and(|m| m.should_stop())
    }
}

/// Two observers in order: each callback reaches the first, then the second,
/// and `should_stop` asks the second only when the first declines. Nest pairs
/// for more members, and wrap a conditional member in an [`Option`]:
/// `(&mut oracle, (&mut trace, record.then_some(&mut extra)))`.
impl<S, A: Monitor<S>, B: Monitor<S>> Monitor<S> for (A, B) {
    #[inline]
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
        self.0
            .on_transition(now, pid, action, name, old, new, global);
        self.1
            .on_transition(now, pid, action, name, old, new, global);
    }

    #[inline]
    fn on_fault(&mut self, now: Time, pid: Pid, kind: FaultKind, old: &S, new: &S, global: &[S]) {
        self.0.on_fault(now, pid, kind, old, new, global);
        self.1.on_fault(now, pid, kind, old, new, global);
    }

    #[inline]
    fn should_stop(&mut self) -> bool {
        self.0.should_stop() || self.1.should_stop()
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
    fn pair_fans_out_and_stops() {
        let mut a = Counter {
            transitions: 0,
            stop_after: 2,
        };
        let mut b = Counter {
            transitions: 0,
            stop_after: 100,
        };
        let mut pair = (&mut a, &mut b);
        let g = [0u64];
        pair.on_transition(Time::ZERO, 0, 0, "t", &0, &1, &g);
        assert!(!pair.should_stop());
        pair.on_transition(Time::ZERO, 0, 0, "t", &1, &2, &g);
        assert!(pair.should_stop());
        assert_eq!(a.transitions, 2);
        assert_eq!(b.transitions, 2);
    }

    type Log = std::rc::Rc<std::cell::RefCell<Vec<String>>>;

    /// Logs every callback it receives, tagged, into a shared log; asks to
    /// stop once it has seen `stop_after` transitions.
    struct Logger {
        tag: &'static str,
        stop_after: usize,
        seen: usize,
        log: Log,
    }

    impl Monitor<u64> for Logger {
        fn on_transition(
            &mut self,
            now: Time,
            pid: Pid,
            _action: ActionId,
            _name: &'static str,
            old: &u64,
            new: &u64,
            _global: &[u64],
        ) {
            self.seen += 1;
            self.log.borrow_mut().push(format!(
                "{} t {} p{pid} {old}->{new}",
                self.tag,
                now.as_f64()
            ));
        }

        fn on_fault(
            &mut self,
            _now: Time,
            pid: Pid,
            _kind: FaultKind,
            _old: &u64,
            _new: &u64,
            _global: &[u64],
        ) {
            self.log.borrow_mut().push(format!("{} f p{pid}", self.tag));
        }

        fn should_stop(&mut self) -> bool {
            let stop = self.seen >= self.stop_after;
            self.log
                .borrow_mut()
                .push(format!("{} stop? {stop}", self.tag));
            stop
        }
    }

    /// Feed two steps (a transition, a fault, a stop question) to `m` and
    /// return the log, each step closed by the combined answer.
    fn drive<M: Monitor<u64>>(m: &mut M, log: &Log) -> Vec<String> {
        let g = [3u64, 4];
        for step in 0..2u64 {
            let now = Time::new(step as f64 * 0.5);
            m.on_transition(now, 1, 0, "t", &step, &(step + 1), &g);
            m.on_fault(now, 0, FaultKind::Detectable, &7, &0, &g);
            let stop = m.should_stop();
            log.borrow_mut().push(format!("= {stop}"));
        }
        log.take()
    }

    #[test]
    fn nested_pairs_and_options_call_members_in_order_and_short_circuit() {
        let log = Log::default();
        let logger = |tag, stop_after| Logger {
            tag,
            stop_after,
            seen: 0,
            log: log.clone(),
        };

        // All three present: b stops first, so c is never asked.
        let (mut a, mut b, mut c) = (logger("a", 2), logger("b", 1), logger("c", 9));
        let got = drive(&mut (&mut a, (Some(&mut b), Some(&mut c))), &log);
        #[rustfmt::skip]
        let want = [
            "a t 0 p1 0->1", "b t 0 p1 0->1", "c t 0 p1 0->1",
            "a f p0", "b f p0", "c f p0",
            "a stop? false", "b stop? true", "= true",
            "a t 0.5 p1 1->2", "b t 0.5 p1 1->2", "c t 0.5 p1 1->2",
            "a f p0", "b f p0", "c f p0",
            "a stop? true", "= true",
        ];
        assert_eq!(got, want);

        // An absent middle member sees nothing and is never asked.
        let (mut a, mut c) = (logger("a", 9), logger("c", 2));
        let got = drive(&mut (&mut a, (None::<&mut Logger>, &mut c)), &log);
        #[rustfmt::skip]
        let want = [
            "a t 0 p1 0->1", "c t 0 p1 0->1",
            "a f p0", "c f p0",
            "a stop? false", "c stop? false", "= false",
            "a t 0.5 p1 1->2", "c t 0.5 p1 1->2",
            "a f p0", "c f p0",
            "a stop? false", "c stop? true", "= true",
        ];
        assert_eq!(got, want);

        // A `&mut dyn` member dispatches like a concrete one.
        let (mut a, mut c) = (logger("a", 1), logger("c", 1));
        let dynamic: &mut dyn Monitor<u64> = &mut c;
        let got = drive(&mut (&mut a, dynamic), &log);
        assert_eq!(
            got[..5],
            [
                "a t 0 p1 0->1",
                "c t 0 p1 0->1",
                "a f p0",
                "c f p0",
                "a stop? true"
            ]
        );
    }
}
