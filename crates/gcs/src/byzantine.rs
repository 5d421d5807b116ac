//! Byzantine fault environment (§7's `good` processes, made concrete).
//!
//! The paper's §7 sketches Byzantine tolerance with an auxiliary variable
//! `good.j`: a process that is not good may write *arbitrary* values to its
//! own variables, arbitrarily often. This module supplies the environment
//! side of that model as a [`FaultPlan`]: a fixed set of Byzantine processes
//! ([`ByzantineProcess`]), each with a *corruption budget* bounding how many
//! adversarial writes it gets, attacking at Poisson arrival times with an
//! *arsenal* of [`FaultAction`]s to draw from (in-domain scrambles,
//! out-of-domain forgeries, protocol-specific corruption — the plan does not
//! care).
//!
//! Two deliberate modeling choices:
//!
//! * **Equivocation.** A Byzantine process that owns several state slots
//!   (the §5 refinement's real variable plus local copies, a double tree's
//!   up/down positions) gets an *independent* corruption draw per slot, so
//!   it can present *different* lies to different readers — the shared-state
//!   rendering of equivocation. (Message-level equivocation lives in
//!   `ftbarrier_mp::sweep_sim`'s forgery hooks.)
//! * **Budgets.** Self-stabilization arguments are relative to faults
//!   eventually ceasing; an unbounded adversary can trivially deny progress
//!   forever. The per-process budget is the knob that separates "transient
//!   Byzantine" (stabilization applies) from "persistent Byzantine"
//!   (quarantine must win the race instead).
//!
//! Each event draws from the engine RNG in a fixed order: the attacker, the
//! arsenal entry, then the action's own draws per slot ascending.

use crate::fault::{FaultAction, FaultHit, FaultPlan};
use crate::protocol::Pid;
use crate::rng::SimRng;
use crate::time::Time;

/// One Byzantine process: who it is, which state slots it may corrupt, and
/// how many corruption events it has left.
#[derive(Debug, Clone)]
pub struct ByzantineProcess {
    /// The process identity, passed to [`FaultAction::apply`] and useful for
    /// mapping hits back to the attacker.
    pub pid: Pid,
    /// The state slots (indices into the global state) this process may
    /// write. Sorted ascending at construction.
    pub positions: Vec<usize>,
    /// Corruption events remaining; the plan falls silent when every
    /// attacker's budget reaches zero.
    pub budget: usize,
}

impl ByzantineProcess {
    /// An attacker owning exactly its own slot (`positions = [pid]`).
    pub fn new(pid: Pid, budget: usize) -> ByzantineProcess {
        ByzantineProcess {
            pid,
            positions: vec![pid],
            budget,
        }
    }

    /// An attacker owning several slots (multi-position processes).
    pub fn with_positions(pid: Pid, mut positions: Vec<usize>, budget: usize) -> ByzantineProcess {
        assert!(!positions.is_empty(), "attacker needs at least one slot");
        positions.sort_unstable();
        positions.dedup();
        ByzantineProcess {
            pid,
            positions,
            budget,
        }
    }
}

/// Poisson-timed Byzantine corruption by a budgeted set of attackers, each
/// event applying one arsenal action to every slot of one attacker (with
/// independent draws per slot — equivocation).
pub struct ByzantineFaults<S> {
    rate: f64,
    attackers: Vec<ByzantineProcess>,
    arsenal: Vec<Box<dyn FaultAction<S>>>,
    next: Option<Time>,
    spent: usize,
}

impl<S> ByzantineFaults<S> {
    /// Build from a Poisson rate (corruption events per time unit), the
    /// attacker set, and the corruption arsenal (uniformly drawn per event).
    pub fn new(
        rate: f64,
        attackers: Vec<ByzantineProcess>,
        arsenal: Vec<Box<dyn FaultAction<S>>>,
    ) -> ByzantineFaults<S> {
        assert!(rate >= 0.0, "rate must be non-negative");
        assert!(!arsenal.is_empty(), "arsenal must not be empty");
        ByzantineFaults {
            rate,
            attackers,
            arsenal,
            next: None,
            spent: 0,
        }
    }

    /// Corruption events fired so far.
    pub fn spent(&self) -> usize {
        self.spent
    }

    /// Remaining budget per attacker, as `(pid, remaining)` pairs in the
    /// attacker order given at construction.
    pub fn budgets(&self) -> Vec<(Pid, usize)> {
        self.attackers.iter().map(|a| (a.pid, a.budget)).collect()
    }

    /// Indices of attackers that still have budget, ascending.
    fn armed(&self) -> Vec<usize> {
        (0..self.attackers.len())
            .filter(|&i| self.attackers[i].budget > 0)
            .collect()
    }
}

impl<S: Clone> FaultPlan<S> for ByzantineFaults<S> {
    fn peek(&mut self, now: Time, rng: &mut SimRng) -> Option<Time> {
        if self.rate == 0.0 || self.armed().is_empty() {
            return None;
        }
        if self.next.is_none() {
            let dt = rng.exponential(self.rate);
            if !dt.is_finite() {
                return None;
            }
            self.next = Some(now + Time::new(dt));
        }
        self.next
    }

    fn fire(
        &mut self,
        _at: Time,
        global: &mut [S],
        rng: &mut SimRng,
        touched: &mut Vec<Pid>,
    ) -> FaultHit<S> {
        let armed = self.armed();
        let attacker = armed[rng.below(armed.len())];
        let weapon = rng.below(self.arsenal.len());
        self.attackers[attacker].budget -= 1;
        self.spent += 1;
        self.next = None;
        let a = &self.attackers[attacker];
        let action = &self.arsenal[weapon];
        let old = global[a.positions[0]].clone();
        for &pos in &a.positions {
            action.apply(a.pid, &mut global[pos], rng);
            touched.push(pos);
        }
        FaultHit {
            pid: a.positions[0],
            kind: action.kind(),
            old,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    /// Writes a fresh random value — distinct draws per slot show up as
    /// distinct values (the equivocation property).
    struct Scramble;
    impl FaultAction<u64> for Scramble {
        fn kind(&self) -> FaultKind {
            FaultKind::Undetectable
        }
        fn apply(&self, _pid: Pid, state: &mut u64, rng: &mut SimRng) {
            *state = rng.range_u64(1_000, 1_000_000);
        }
    }

    fn plan(attackers: Vec<ByzantineProcess>) -> ByzantineFaults<u64> {
        ByzantineFaults::new(0.5, attackers, vec![Box::new(Scramble)])
    }

    #[test]
    fn budget_exhaustion_silences_the_plan() {
        let mut plan = plan(vec![ByzantineProcess::new(1, 2)]);
        let mut rng = SimRng::seed_from_u64(3);
        let mut g = vec![0u64; 4];
        for fired in 0..2 {
            let at = FaultPlan::peek(&mut plan, Time::ZERO, &mut rng).unwrap();
            let hit = FaultPlan::fire(&mut plan, at, &mut g, &mut rng, &mut Vec::new());
            assert_eq!(hit.pid, 1);
            assert_eq!(plan.spent(), fired + 1);
        }
        assert_eq!(FaultPlan::peek(&mut plan, Time::ZERO, &mut rng), None);
        assert_eq!(plan.budgets(), vec![(1, 0)]);
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut plan: ByzantineFaults<u64> = ByzantineFaults::new(
            0.0,
            vec![ByzantineProcess::new(1, 5)],
            vec![Box::new(Scramble)],
        );
        let mut rng = SimRng::seed_from_u64(0);
        assert_eq!(FaultPlan::peek(&mut plan, Time::ZERO, &mut rng), None);
    }

    #[test]
    fn multi_slot_attacker_equivocates() {
        // One attacker owning three slots: a single corruption event writes
        // three independently drawn values.
        let mut plan = plan(vec![ByzantineProcess::with_positions(2, vec![3, 4, 5], 1)]);
        let mut rng = SimRng::seed_from_u64(9);
        let mut g = vec![0u64; 6];
        let mut touched = Vec::new();
        let at = FaultPlan::peek(&mut plan, Time::ZERO, &mut rng).unwrap();
        let hit = FaultPlan::fire(&mut plan, at, &mut g, &mut rng, &mut touched);
        assert_eq!(hit.pid, 3, "hit reports the first slot");
        assert_eq!(touched, vec![3, 4, 5]);
        assert!(g[3] >= 1_000 && g[4] >= 1_000 && g[5] >= 1_000);
        assert!(
            !(g[3] == g[4] && g[4] == g[5]),
            "independent draws per slot: {g:?}"
        );
        assert_eq!(g[..3], [0, 0, 0], "non-owned slots untouched");
    }

    #[test]
    fn only_armed_attackers_are_drawn() {
        let mut plan = plan(vec![
            ByzantineProcess::new(0, 0), // exhausted from the start
            ByzantineProcess::new(2, 8),
        ]);
        let mut rng = SimRng::seed_from_u64(17);
        let mut g = vec![0u64; 4];
        for _ in 0..8 {
            let at = FaultPlan::peek(&mut plan, Time::ZERO, &mut rng).unwrap();
            let hit = FaultPlan::fire(&mut plan, at, &mut g, &mut rng, &mut Vec::new());
            assert_eq!(hit.pid, 2);
        }
        assert_eq!(g[0], 0);
    }
}
