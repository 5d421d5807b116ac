//! The guarded-command program abstraction.
//!
//! A [`Protocol`] is the paper's "program": `num_processes` processes, each
//! with a finite set of named actions of the form `guard → statement`. Guards
//! may read the whole global state (the coarse-grain program CB does; the
//! refinements RB/MB read only neighbors — the trait does not care), while a
//! statement computes a *new state for its own process only*, which is what
//! makes maximal-parallel steps well defined (concurrent statements write
//! disjoint state).

use crate::rng::SimRng;
use crate::time::Time;

/// Process identifier: index into the global state vector.
pub type Pid = usize;

/// Action identifier: index into a process's action list.
pub type ActionId = usize;

/// Answer of [`Protocol::readers_of`]: which processes' guards read a given
/// process's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReaderSet {
    /// Unknown / potentially everyone. Always sound; every change of this
    /// process's state makes the engine re-check every guard.
    All,
    /// Exactly (or a superset of) the processes whose guards read the
    /// queried process's state.
    These(Vec<Pid>),
}

/// A guarded-command program over per-process states of type `Self::State`.
pub trait Protocol {
    /// The state of a single process (all of its variables).
    type State: Clone + PartialEq + std::fmt::Debug;

    /// Number of processes in the system.
    fn num_processes(&self) -> usize;

    /// Number of actions at process `pid`.
    fn num_actions(&self, pid: Pid) -> usize;

    /// Human-readable name of an action (the paper's `⟨name⟩ ::` label),
    /// e.g. `"CB1"`, `"T2"`.
    fn action_name(&self, pid: Pid, action: ActionId) -> &'static str;

    /// Evaluate the guard of `(pid, action)` against the global state.
    fn enabled(&self, global: &[Self::State], pid: Pid, action: ActionId) -> bool;

    /// Execute the statement of `(pid, action)`: return the new state of
    /// `pid`. Must only be called when the guard holds. Statements in the
    /// paper are deterministic except for explicit nondeterministic choice
    /// (`any k : …`), for which the RNG is provided.
    fn execute(
        &self,
        global: &[Self::State],
        pid: Pid,
        action: ActionId,
        rng: &mut SimRng,
    ) -> Self::State;

    /// Real-time cost of an action, for the timed maximal-parallelism engine
    /// (§6: "a real-time value is associated with each action"). The default
    /// of zero corresponds to the untimed semantics.
    fn cost(&self, _pid: Pid, _action: ActionId) -> Time {
        Time::ZERO
    }

    /// The initial ("start") global state of the program.
    fn initial_state(&self) -> Vec<Self::State>;

    /// Sample an *arbitrary* state for process `pid` — every variable set to
    /// a nondeterministically chosen value from its domain. This is exactly
    /// the paper's undetectable-fault action, and is also used to start
    /// stabilization experiments from arbitrary states (Fig 7).
    fn arbitrary_state(&self, pid: Pid, rng: &mut SimRng) -> Self::State;

    /// Dependency hint for incremental scheduling: the processes whose
    /// *guards* read `pid`'s state (the `affects` inverse). When `pid`'s
    /// state changes, only these processes can change enabled-status —
    /// the paper's low-atomicity programs read at most their topological
    /// neighbors, which is what makes event-incremental scheduling pay.
    ///
    /// The returned set may over-approximate but must never omit a true
    /// reader; the engine additionally treats every process as a reader of
    /// itself, and skips re-checking a committed guard at maturity when no
    /// writer it reads has changed. The default, [`ReaderSet::All`], is
    /// always sound and makes every change of `pid`'s state re-check every
    /// guard.
    fn readers_of(&self, _pid: Pid) -> ReaderSet {
        ReaderSet::All
    }

    /// Replace the contents of `out` with the ids of every action enabled
    /// at `pid`, in ascending order.
    ///
    /// Contract: afterwards `out` equals
    /// `(0..num_actions(pid)).filter(|&a| enabled(global, pid, a))`, item
    /// for item. Every executor asks for a process's enabled set through
    /// this one call, so a protocol can override it with a fused pass that
    /// loads its neighbourhood once instead of once per guard; the
    /// override must keep the contract, since the executors' RNG draws
    /// depend on the exact list.
    fn enabled_actions(&self, global: &[Self::State], pid: Pid, out: &mut Vec<ActionId>) {
        out.clear();
        out.extend((0..self.num_actions(pid)).filter(|&a| self.enabled(global, pid, a)));
    }

    /// Convenience: true iff some action is enabled anywhere (the program is
    /// not in a fixpoint).
    fn any_enabled(&self, global: &[Self::State]) -> bool {
        (0..self.num_processes())
            .any(|p| (0..self.num_actions(p)).any(|a| self.enabled(global, p, a)))
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! A tiny token-passing protocol used to unit-test the executors:
    //! process j is enabled iff `x[j] == x[(j-1) mod n]` for j == 0 (then
    //! increments) or `x[j] != x[j-1]` otherwise (then copies) — Dijkstra's
    //! K-state token ring, a natural fit since the paper builds on a token
    //! ring too.
    use super::*;

    pub struct DijkstraRing {
        pub n: usize,
        pub k: u64,
        pub cost: Time,
    }

    impl Protocol for DijkstraRing {
        type State = u64;

        fn num_processes(&self) -> usize {
            self.n
        }

        fn num_actions(&self, _pid: Pid) -> usize {
            1
        }

        fn action_name(&self, pid: Pid, _action: ActionId) -> &'static str {
            if pid == 0 {
                "bottom"
            } else {
                "other"
            }
        }

        fn enabled(&self, global: &[u64], pid: Pid, _action: ActionId) -> bool {
            if pid == 0 {
                global[0] == global[self.n - 1]
            } else {
                global[pid] != global[pid - 1]
            }
        }

        fn execute(&self, global: &[u64], pid: Pid, _action: ActionId, _rng: &mut SimRng) -> u64 {
            if pid == 0 {
                (global[0] + 1) % self.k
            } else {
                global[pid - 1]
            }
        }

        fn cost(&self, _pid: Pid, _action: ActionId) -> Time {
            self.cost
        }

        fn initial_state(&self) -> Vec<u64> {
            vec![0; self.n]
        }

        fn arbitrary_state(&self, _pid: Pid, rng: &mut SimRng) -> u64 {
            rng.range_u64(0, self.k)
        }

        fn readers_of(&self, pid: Pid) -> ReaderSet {
            // The guard of j reads x[j] and x[j-1] (x[n-1] for j == 0), so
            // the readers of q are q itself and its ring successor.
            let mut readers = vec![pid, (pid + 1) % self.n];
            readers.sort_unstable();
            readers.dedup();
            ReaderSet::These(readers)
        }
    }

    /// Number of processes holding the token (enabled processes).
    pub fn tokens(ring: &DijkstraRing, global: &[u64]) -> usize {
        (0..ring.n).filter(|&p| ring.enabled(global, p, 0)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn dijkstra_ring_initial_has_one_token() {
        let ring = DijkstraRing {
            n: 5,
            k: 7,
            cost: Time::ZERO,
        };
        let global = ring.initial_state();
        assert_eq!(tokens(&ring, &global), 1);
        let mut actions = vec![7];
        ring.enabled_actions(&global, 0, &mut actions);
        assert_eq!(actions, vec![0]);
        ring.enabled_actions(&global, 1, &mut actions);
        assert!(actions.is_empty());
        assert!(ring.any_enabled(&global));
    }

    #[test]
    fn execute_moves_token() {
        let ring = DijkstraRing {
            n: 3,
            k: 5,
            cost: Time::ZERO,
        };
        let mut rng = SimRng::seed_from_u64(0);
        let mut global = ring.initial_state();
        global[0] = ring.execute(&global, 0, 0, &mut rng);
        assert_eq!(global, vec![1, 0, 0]);
        // Now process 1 holds the token.
        assert!(ring.enabled(&global, 1, 0));
        assert!(!ring.enabled(&global, 0, 0));
    }
}
