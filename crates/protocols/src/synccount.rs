//! Self-stabilizing synchronous counting by majority, in the style of
//! Lenzen & Rybicki.
//!
//! Every process keeps one counter modulo `C` and repeats a single rule
//! forever: read everyone, adopt the majority value (most frequent; ties
//! break toward the smallest), add one. Under the **synchronous**
//! maximal-parallelism engine — every process reads the same pre-step
//! snapshot — this stabilizes from *any* initial state in one round: all
//! correct processes compute the same majority, so after one step they
//! agree, and from then on they count in lockstep. A Byzantine *minority*
//! cannot break the agreement either, because the correct processes form
//! the majority of every snapshot.
//!
//! The interesting failure is the model, not the rule: under *asynchronous*
//! interleaving (processes step one at a time against a drifting state) the
//! very same rule can be kept out of agreement indefinitely — the
//! `adversarial_interleaving_keeps_counters_out_of_agreement` test
//! constructs such a schedule. Closing that gap (synchronous counting with
//! Byzantine processes *and* without a synchronized start) is precisely the
//! Lenzen–Rybicki problem; this module supplies the consistent-snapshot
//! baseline the sweep-barrier engine provides for free.

use ftbarrier_gcs::{ActionId, Pid, Protocol, ReaderSet, SimRng, Time};

/// The single self-stabilizing rule: `counter := majority(all) + 1 mod C`.
pub const STEP: ActionId = 0;

/// Majority-rule synchronous counting: `n` processes, counters mod `C`.
#[derive(Debug, Clone)]
pub struct SyncCount {
    n: usize,
    modulus: u32,
    step_cost: Time,
}

impl SyncCount {
    pub fn new(n: usize, modulus: u32) -> SyncCount {
        assert!(n >= 1, "need at least one counter");
        assert!(modulus >= 2, "counting needs a modulus of at least 2");
        SyncCount {
            n,
            modulus,
            step_cost: Time::new(1.0),
        }
    }

    pub fn with_cost(mut self, step: Time) -> SyncCount {
        self.step_cost = step;
        self
    }

    pub fn modulus(&self) -> u32 {
        self.modulus
    }

    /// The most frequent counter value (folded into the domain first, so a
    /// forged out-of-domain value cannot crash the rule); ties break toward
    /// the smallest value.
    pub fn majority(&self, g: &[u32]) -> u32 {
        let mut counts = vec![0usize; self.modulus as usize];
        for &v in g {
            counts[(v % self.modulus) as usize] += 1;
        }
        let mut best = 0u32;
        for v in 1..self.modulus {
            if counts[v as usize] > counts[best as usize] {
                best = v;
            }
        }
        best
    }
}

impl Protocol for SyncCount {
    type State = u32;

    fn num_processes(&self) -> usize {
        self.n
    }

    fn num_actions(&self, _pid: Pid) -> usize {
        1
    }

    fn action_name(&self, _pid: Pid, _action: ActionId) -> &'static str {
        "STEP"
    }

    fn enabled(&self, _g: &[u32], _pid: Pid, action: ActionId) -> bool {
        action == STEP
    }

    fn execute(&self, g: &[u32], _pid: Pid, _action: ActionId, _rng: &mut SimRng) -> u32 {
        (self.majority(g) + 1) % self.modulus
    }

    fn cost(&self, _pid: Pid, _action: ActionId) -> Time {
        self.step_cost
    }

    fn initial_state(&self) -> Vec<u32> {
        vec![0; self.n]
    }

    fn arbitrary_state(&self, _pid: Pid, rng: &mut SimRng) -> u32 {
        rng.range_u64(0, self.modulus as u64) as u32
    }

    fn readers_of(&self, _pid: Pid) -> ReaderSet {
        // The majority rule really does read every counter.
        ReaderSet::All
    }
}
