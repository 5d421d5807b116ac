//! Fault-tolerant Safra-style termination detection on a ring.
//!
//! The classic shape: a token circulates from the root; every process that
//! has been re-activated since the token last passed it taints the
//! circulation; the root announces termination after observing clean
//! circulations. The fault-tolerant hardening here follows the same
//! direction as Fokkink et al.'s fault-tolerant termination detection:
//!
//! * **Sequenced token.** The token is not a separate message but a
//!   Dijkstra-style sequence number `tsn`: process `j ≠ 0` holds the token
//!   iff `tsn.(j-1) ≠ tsn.j`, the root iff `tsn.(N-1) = tsn.0`. A corrupted
//!   state may materialize spurious tokens, but the root's modulus-`k`
//!   increment (`k > N`) eventually absorbs them — the standard
//!   self-stabilization argument, shared with the barrier's token ring.
//! * **Blackened stealers.** Work moves by *pull*: an idle process with
//!   steal budget left may re-activate by stealing from its (still active)
//!   ring predecessor, and marks itself `black`. A black mark is only
//!   cleared at the process's own token pass, where it first taints the
//!   circulation — so every re-activation taints the round it happened in
//!   or the round after.
//! * **Two clean rounds.** The root announces only after two *consecutive*
//!   clean circulations (and itself being idle and unblackened), covering
//!   the steal-just-behind-the-token race that a single clean round misses.
//!
//! What this deliberately does **not** survive: a *Byzantine* ring member
//! that wipes the token's accumulated taint while passing it can induce a
//! false announcement (see `byzantine_member_can_wipe_dirt_and_force_a_
//! false_announcement` in the tests). Detection-by-inspection and
//! quarantine — the `ftbarrier_core::byz` machinery — is the answer to that
//! adversary, not more clean rounds; the test pins the limitation so the
//! motivation stays honest.

use ftbarrier_gcs::{ActionId, Pid, Protocol, ReaderSet, SimRng, Time};

/// Pass the token (adopt `tsn`, accumulate taint; the root judges instead).
pub const PASS: ActionId = 0;
/// Finish the local work: `active := false`.
pub const FINISH: ActionId = 1;
/// Steal work from the ring predecessor: re-activate and blacken.
pub const STEAL: ActionId = 2;

/// Per-process state of the termination-detection ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SafraState {
    /// Is this process still doing work?
    pub active: bool,
    /// Steals this process may still perform.
    pub budget: u8,
    /// Set on steal; cleared only at the own token pass (after tainting it).
    pub black: bool,
    /// Dijkstra-style token sequence number (mod `k`).
    pub tsn: u8,
    /// Taint the circulating token has accumulated as of this process.
    pub dirty: bool,
    /// Root only: consecutive clean circulations observed (saturates at 2).
    pub clean_rounds: u8,
    /// The root's verdict, piggybacked around the ring on the token.
    pub announced: bool,
}

/// Safra-style termination detection on a ring of `n` processes.
#[derive(Debug, Clone)]
pub struct SafraRing {
    n: usize,
    /// Token sequence modulus; must exceed `n` (the ring's `K > N`).
    k: u8,
    /// Initial steal budget per process.
    max_budget: u8,
    pass_cost: Time,
    work_cost: Time,
}

impl SafraRing {
    pub fn new(n: usize, k: u8, max_budget: u8) -> SafraRing {
        assert!(n >= 2, "a ring needs at least two processes");
        assert!((k as usize) > n, "token modulus must exceed the ring size");
        SafraRing {
            n,
            k,
            max_budget,
            pass_cost: Time::new(0.1),
            work_cost: Time::new(1.0),
        }
    }

    /// Set the token-hop and work/steal costs for the timed engine.
    pub fn with_costs(mut self, pass: Time, work: Time) -> SafraRing {
        self.pass_cost = pass;
        self.work_cost = work;
        self
    }

    fn pred(&self, j: Pid) -> Pid {
        (j + self.n - 1) % self.n
    }

    /// Does `j` hold the token? (The token is the `tsn` *discontinuity*.)
    pub fn has_token(&self, g: &[SafraState], j: Pid) -> bool {
        if j == 0 {
            g[self.n - 1].tsn == g[0].tsn
        } else {
            g[j - 1].tsn != g[j].tsn
        }
    }

    /// Is the global state genuinely terminated (no activity possible)?
    pub fn terminated(g: &[SafraState]) -> bool {
        g.iter().all(|s| !s.active)
    }
}

impl Protocol for SafraRing {
    type State = SafraState;

    fn num_processes(&self) -> usize {
        self.n
    }

    fn num_actions(&self, _pid: Pid) -> usize {
        3
    }

    fn action_name(&self, _pid: Pid, action: ActionId) -> &'static str {
        match action {
            PASS => "PASS",
            FINISH => "FINISH",
            STEAL => "STEAL",
            _ => unreachable!("safra ring has 3 actions"),
        }
    }

    fn enabled(&self, g: &[SafraState], j: Pid, action: ActionId) -> bool {
        match action {
            PASS => self.has_token(g, j),
            FINISH => g[j].active,
            STEAL => !g[j].active && g[j].budget > 0 && g[self.pred(j)].active,
            _ => false,
        }
    }

    fn execute(&self, g: &[SafraState], j: Pid, action: ActionId, _rng: &mut SimRng) -> SafraState {
        let mut s = g[j];
        match action {
            PASS if j == 0 => {
                // Judge the returned circulation, then relaunch. The root
                // keeps relaunching forever, so `announced` is re-derived
                // every round — a corrupted verdict is self-stabilizing.
                let clean = !g[self.n - 1].dirty && !s.active && !s.black;
                s.clean_rounds = if clean {
                    (s.clean_rounds + 1).min(2)
                } else {
                    0
                };
                s.announced = s.clean_rounds >= 2;
                s.dirty = s.active || s.black;
                s.black = false;
                s.tsn = (s.tsn + 1) % self.k;
            }
            PASS => {
                let p = g[j - 1];
                s.tsn = p.tsn;
                s.dirty = p.dirty || s.black || s.active;
                s.announced = p.announced;
                s.black = false;
            }
            FINISH => {
                s.active = false;
            }
            STEAL => {
                s.active = true;
                s.black = true;
                s.budget -= 1;
            }
            _ => unreachable!("safra ring has 3 actions"),
        }
        s
    }

    fn cost(&self, _pid: Pid, action: ActionId) -> Time {
        if action == PASS {
            self.pass_cost
        } else {
            self.work_cost
        }
    }

    fn initial_state(&self) -> Vec<SafraState> {
        // Everyone starts active and black (conservatively tainted), all
        // `tsn` equal — the root holds the token and launches round 1.
        vec![
            SafraState {
                active: true,
                budget: self.max_budget,
                black: true,
                tsn: 0,
                dirty: true,
                clean_rounds: 0,
                announced: false,
            };
            self.n
        ]
    }

    fn arbitrary_state(&self, _pid: Pid, rng: &mut SimRng) -> SafraState {
        SafraState {
            active: rng.chance(0.5),
            budget: rng.range_u64(0, self.max_budget as u64 + 1) as u8,
            black: rng.chance(0.5),
            tsn: rng.range_u64(0, self.k as u64) as u8,
            dirty: rng.chance(0.5),
            clean_rounds: rng.range_u64(0, 3) as u8,
            announced: rng.chance(0.5),
        }
    }

    fn readers_of(&self, pid: Pid) -> ReaderSet {
        // `j`'s state is read by `j` itself and by its ring successor
        // (token detection, taint adoption, stealing) — same footprint as
        // the barrier's token ring.
        ReaderSet::These(vec![pid, (pid + 1) % self.n])
    }
}
