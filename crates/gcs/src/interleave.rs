//! Untimed weakly-fair interleaving executor (§2 semantics).
//!
//! "Each computation of the program is a fair interleaving of steps: in every
//! step, some action that is enabled in the current state is chosen and its
//! statement is executed atomically." This executor implements that semantics
//! and is the workhorse for the correctness/stabilization tests, where time
//! does not matter but adversarial scheduling does.
//!
//! Two choice policies are offered: uniformly random (almost-surely fair, and
//! a good randomized adversary) and round-robin (deterministically weakly
//! fair).

use crate::fault::FaultAction;
use crate::monitor::Monitor;
use crate::protocol::{ActionId, Pid, Protocol};
use crate::rng::SimRng;
use crate::stats::RunStats;
use crate::time::Time;

/// How the next enabled action is chosen among all enabled actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChoicePolicy {
    /// Uniformly random among all enabled `(pid, action)` pairs.
    #[default]
    UniformRandom,
    /// Rotate over processes; within the scheduled process, take its first
    /// enabled action. Deterministically weakly fair.
    RoundRobin,
}

#[derive(Debug, Clone)]
pub struct InterleavingConfig {
    pub seed: u64,
    pub policy: ChoicePolicy,
}

impl Default for InterleavingConfig {
    fn default() -> Self {
        InterleavingConfig {
            seed: 0xF7BA_221E,
            policy: ChoicePolicy::UniformRandom,
        }
    }
}

/// The interleaving executor. Owns the global state.
pub struct Interleaving<'p, P: Protocol> {
    protocol: &'p P,
    global: Vec<P::State>,
    rng: SimRng,
    stats: RunStats,
    policy: ChoicePolicy,
    rr_cursor: usize,
    /// Every enabled `(pid, action)` pair of the current step.
    scratch: Vec<(Pid, ActionId)>,
    /// One process's enabled actions.
    actions: Vec<ActionId>,
}

impl<'p, P: Protocol> Interleaving<'p, P> {
    /// Start from the program's initial state.
    pub fn new(protocol: &'p P, config: InterleavingConfig) -> Self {
        let global = protocol.initial_state();
        Self::from_state(protocol, config, global)
    }

    /// Start from an explicit state (e.g. an adversarially corrupted one).
    pub fn from_state(protocol: &'p P, config: InterleavingConfig, global: Vec<P::State>) -> Self {
        assert_eq!(global.len(), protocol.num_processes());
        Interleaving {
            protocol,
            global,
            rng: SimRng::seed_from_u64(config.seed),
            stats: RunStats::default(),
            policy: config.policy,
            rr_cursor: 0,
            scratch: Vec::new(),
            actions: Vec::new(),
        }
    }

    pub fn global(&self) -> &[P::State] {
        &self.global
    }

    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Overwrite one process's state (test setup).
    pub fn set_state(&mut self, pid: Pid, state: P::State) {
        self.global[pid] = state;
    }

    /// Replace every process's state with an arbitrary one from its domain —
    /// the aggregate effect of undetectable faults everywhere.
    pub fn perturb_all(&mut self) {
        for pid in 0..self.protocol.num_processes() {
            self.global[pid] = self.protocol.arbitrary_state(pid, &mut self.rng);
        }
    }

    /// Apply a fault action at `pid` mid-computation.
    pub fn apply_fault(
        &mut self,
        pid: Pid,
        action: &dyn FaultAction<P::State>,
        monitor: &mut dyn Monitor<P::State>,
    ) {
        let old = self.global[pid].clone();
        action.apply(pid, &mut self.global[pid], &mut self.rng);
        self.stats.faults += 1;
        monitor.on_fault(
            Time::ZERO,
            pid,
            action.kind(),
            &old,
            &self.global[pid],
            &self.global,
        );
    }

    fn pick(&mut self) -> Option<(Pid, ActionId)> {
        let n = self.protocol.num_processes();
        match self.policy {
            ChoicePolicy::UniformRandom => {
                self.scratch.clear();
                for pid in 0..n {
                    self.protocol
                        .enabled_actions(&self.global, pid, &mut self.actions);
                    self.scratch.extend(self.actions.iter().map(|&a| (pid, a)));
                }
                if self.scratch.is_empty() {
                    None
                } else {
                    Some(self.scratch[self.rng.below(self.scratch.len())])
                }
            }
            ChoicePolicy::RoundRobin => {
                for off in 0..n {
                    let pid = (self.rr_cursor + off) % n;
                    self.protocol
                        .enabled_actions(&self.global, pid, &mut self.actions);
                    if let Some(&a) = self.actions.first() {
                        self.rr_cursor = (pid + 1) % n;
                        return Some((pid, a));
                    }
                }
                None
            }
        }
    }

    /// Execute one interleaving step. Returns `false` at a fixpoint (no
    /// action enabled anywhere).
    pub fn step(&mut self, monitor: &mut dyn Monitor<P::State>) -> bool {
        let Some((pid, action)) = self.pick() else {
            return false;
        };
        let mut old = self
            .protocol
            .execute(&self.global, pid, action, &mut self.rng);
        // Swap the new state in; `old` then holds the pre-step state for
        // the monitor callback — no extra clone.
        std::mem::swap(&mut self.global[pid], &mut old);
        self.stats.steps += 1;
        self.stats
            .record_action(self.protocol.action_name(pid, action));
        monitor.on_transition(
            Time::ZERO,
            pid,
            action,
            self.protocol.action_name(pid, action),
            &old,
            &self.global[pid],
            &self.global,
        );
        true
    }

    /// Run up to `max_steps` steps; returns the number actually executed
    /// (fewer only at a fixpoint or monitor stop).
    pub fn run(&mut self, max_steps: u64, monitor: &mut dyn Monitor<P::State>) -> u64 {
        let mut done = 0;
        while done < max_steps {
            if !self.step(monitor) {
                break;
            }
            done += 1;
            if monitor.should_stop() {
                break;
            }
        }
        done
    }

    /// Run until `pred` holds on the global state (checked after each step,
    /// and once before the first). Returns the number of steps taken, or
    /// `None` if `max_steps` elapsed first.
    pub fn run_until(
        &mut self,
        max_steps: u64,
        monitor: &mut dyn Monitor<P::State>,
        mut pred: impl FnMut(&[P::State]) -> bool,
    ) -> Option<u64> {
        if pred(&self.global) {
            return Some(0);
        }
        for done in 1..=max_steps {
            if !self.step(monitor) {
                // Fixpoint: predicate can never change again.
                return if pred(&self.global) {
                    Some(done - 1)
                } else {
                    None
                };
            }
            if pred(&self.global) {
                return Some(done);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::NullMonitor;
    use crate::protocol::testutil::{tokens, DijkstraRing};

    fn ring(n: usize) -> DijkstraRing {
        DijkstraRing {
            n,
            k: 2 * n as u64 + 1,
            cost: Time::ZERO,
        }
    }

    #[test]
    fn token_circulates_fairly() {
        let r = ring(5);
        let mut exec = Interleaving::new(&r, InterleavingConfig::default());
        let mut m = NullMonitor;
        let steps = exec.run(100, &mut m);
        assert_eq!(steps, 100, "ring never reaches a fixpoint");
        assert_eq!(
            tokens(&r, exec.global()),
            1,
            "exactly one token in legal states"
        );
    }

    #[test]
    fn stabilizes_from_arbitrary_state_random_policy() {
        let r = ring(7);
        for seed in 0..20 {
            let mut exec = Interleaving::new(
                &r,
                InterleavingConfig {
                    seed,
                    policy: ChoicePolicy::UniformRandom,
                },
            );
            exec.perturb_all();
            let mut m = NullMonitor;
            // Dijkstra's ring self-stabilizes to exactly one token.
            let steps = exec.run_until(100_000, &mut m, |g| tokens(&r, g) == 1 && { true });
            assert!(steps.is_some(), "seed {seed} did not stabilize");
            // Once stabilized, the one-token property is invariant.
            for _ in 0..200 {
                exec.step(&mut m);
                assert_eq!(tokens(&r, exec.global()), 1);
            }
        }
    }

    #[test]
    fn round_robin_is_weakly_fair() {
        let r = ring(4);
        let mut exec = Interleaving::new(
            &r,
            InterleavingConfig {
                seed: 1,
                policy: ChoicePolicy::RoundRobin,
            },
        );
        let mut m = NullMonitor;
        exec.run(400, &mut m);
        // Every process must have executed roughly the same number of actions
        // (the token visits everyone).
        let per = exec.stats().actions_executed as usize;
        assert_eq!(per, 400);
        assert!(exec.stats().count_of("bottom") >= 90);
        assert!(exec.stats().count_of("other") >= 250);
    }

    #[test]
    fn run_until_reports_zero_when_already_true() {
        let r = ring(3);
        let mut exec = Interleaving::new(&r, InterleavingConfig::default());
        let mut m = NullMonitor;
        assert_eq!(exec.run_until(10, &mut m, |_| true), Some(0));
    }

    #[test]
    fn run_until_gives_up_at_budget() {
        let r = ring(3);
        let mut exec = Interleaving::new(&r, InterleavingConfig::default());
        let mut m = NullMonitor;
        assert_eq!(exec.run_until(10, &mut m, |_| false), None);
    }
}
