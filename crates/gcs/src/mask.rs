//! Fail-stop masking of a guarded-command program.
//!
//! A crashed process executes nothing: [`Masked`] wraps any [`Protocol`] and
//! forces the guards of a *masked* set of processes to false, leaving every
//! other observable of the program untouched. This is how the engine backend
//! models permanent fail-stop between reconfigurations — the dead process's
//! state is still *readable* (its neighbors may fold it once more), it just
//! never acts again, exactly the fail-stop fault of §2.
//!
//! Masking is deliberately RNG- and schedule-neutral: with an all-alive mask
//! the wrapper delegates every call unchanged, so a run over
//! `Masked::new(p, vec![true; n])` is byte-identical to a run over `p`
//! itself. The churn driver in `ftbarrier-core` relies on this for its
//! fault-free differential guarantee.

use crate::protocol::{ActionId, Pid, Protocol, ReaderSet};
use crate::rng::SimRng;
use crate::time::Time;

/// A protocol with a subset of its processes masked as crashed.
pub struct Masked<'a, P: Protocol> {
    inner: &'a P,
    alive: Vec<bool>,
}

impl<'a, P: Protocol> Masked<'a, P> {
    /// Wrap `inner`, masking every process whose `alive` entry is false.
    ///
    /// # Panics
    /// If `alive` does not have exactly one entry per process.
    pub fn new(inner: &'a P, alive: Vec<bool>) -> Masked<'a, P> {
        assert_eq!(
            alive.len(),
            inner.num_processes(),
            "one liveness flag per process"
        );
        Masked { inner, alive }
    }

    pub fn inner(&self) -> &P {
        self.inner
    }

    pub fn is_alive(&self, pid: Pid) -> bool {
        self.alive[pid]
    }

    /// Processes that are masked but have an enabled action in the *inner*
    /// program — the processes whose silence is holding the run at its
    /// current fixpoint. At a masked fixpoint these are exactly the crashed
    /// processes a token-timeout detector would (correctly) suspect.
    pub fn stalled_processes(&self, global: &[P::State]) -> Vec<Pid> {
        let mut actions = Vec::new();
        (0..self.inner.num_processes())
            .filter(|&p| {
                !self.alive[p] && {
                    self.inner.enabled_actions(global, p, &mut actions);
                    !actions.is_empty()
                }
            })
            .collect()
    }
}

impl<P: Protocol> Protocol for Masked<'_, P> {
    type State = P::State;

    fn num_processes(&self) -> usize {
        self.inner.num_processes()
    }

    fn num_actions(&self, pid: Pid) -> usize {
        self.inner.num_actions(pid)
    }

    fn action_name(&self, pid: Pid, action: ActionId) -> &'static str {
        self.inner.action_name(pid, action)
    }

    fn enabled(&self, global: &[Self::State], pid: Pid, action: ActionId) -> bool {
        self.alive[pid] && self.inner.enabled(global, pid, action)
    }

    /// A dead process has nothing enabled; a live one has exactly the inner
    /// program's list (so the inner program's fused pass still applies).
    fn enabled_actions(&self, global: &[Self::State], pid: Pid, out: &mut Vec<ActionId>) {
        if self.alive[pid] {
            self.inner.enabled_actions(global, pid, out);
        } else {
            out.clear();
        }
    }

    fn execute(
        &self,
        global: &[Self::State],
        pid: Pid,
        action: ActionId,
        rng: &mut SimRng,
    ) -> Self::State {
        self.inner.execute(global, pid, action, rng)
    }

    fn cost(&self, pid: Pid, action: ActionId) -> Time {
        self.inner.cost(pid, action)
    }

    fn initial_state(&self) -> Vec<Self::State> {
        self.inner.initial_state()
    }

    fn arbitrary_state(&self, pid: Pid, rng: &mut SimRng) -> Self::State {
        self.inner.arbitrary_state(pid, rng)
    }

    fn readers_of(&self, pid: Pid) -> ReaderSet {
        self.inner.readers_of(pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::fault::NoFaults;
    use crate::monitor::NullMonitor;
    use crate::protocol::testutil::DijkstraRing;
    use crate::trace::{Trace, TraceEvent};

    fn ring() -> DijkstraRing {
        DijkstraRing {
            n: 4,
            k: 7,
            cost: Time::new(1.0),
        }
    }

    #[test]
    fn all_alive_mask_runs_byte_identical() {
        let p = ring();
        let cfg = EngineConfig {
            max_time: Some(Time::new(40.0)),
            ..EngineConfig::default()
        };
        let mut bare_trace: Trace<u64> = Trace::unbounded();
        let mut bare = Engine::new(&p, 11);
        let bare_out = bare.run(&cfg, &mut NoFaults, &mut bare_trace);

        let masked = Masked::new(&p, vec![true; 4]);
        let mut wrapped_trace: Trace<u64> = Trace::unbounded();
        let mut wrapped = Engine::new(&masked, 11);
        let wrapped_out = wrapped.run(&cfg, &mut NoFaults, &mut wrapped_trace);

        let bare_events: Vec<&TraceEvent<u64>> = bare_trace.events().collect();
        let wrapped_events: Vec<&TraceEvent<u64>> = wrapped_trace.events().collect();
        assert_eq!(
            bare_events, wrapped_events,
            "all-alive mask must be a no-op"
        );
        assert_eq!(bare_out.stats, wrapped_out.stats);
        assert_eq!(bare.global(), wrapped.global());
    }

    #[test]
    fn masked_process_never_acts_and_is_reported_stalled() {
        let p = ring();
        let masked = Masked::new(&p, vec![true, true, false, true]);
        let cfg = EngineConfig {
            max_time: Some(Time::new(200.0)),
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(&masked, 3);
        let out = engine.run(&cfg, &mut NoFaults, &mut NullMonitor);
        // The token ring stalls at the dead process: nothing is enabled in
        // the masked program, and the dead process is the only stalled one.
        assert_eq!(out.reason, crate::engine::StopReason::Fixpoint);
        let global = engine.global().to_vec();
        assert!(
            !masked.any_enabled(&global),
            "masked ring must reach fixpoint"
        );
        assert_eq!(masked.stalled_processes(&global), vec![2]);
        assert!(masked.inner().any_enabled(&global));
        assert!(!masked.is_alive(2) && masked.is_alive(1));
    }

    #[test]
    #[should_panic(expected = "one liveness flag per process")]
    fn wrong_mask_length_panics() {
        let p = ring();
        let _ = Masked::new(&p, vec![true; 3]);
    }
}
