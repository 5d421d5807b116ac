//! Fault-tolerant barrier synchronization for real threads.
//!
//! This crate is the deployment-side counterpart of the paper's programs: it
//! gives `std::thread` workloads the "third alternative" §1 asks MPI to
//! provide — neither abort-on-fault nor error-code-and-good-luck, but a
//! barrier that *recovers*, with the tolerance appropriate to each fault
//! class (Table 1):
//!
//! * a participant that hits a **detectable** fault in its phase body calls
//!   [`Participant::arrive_failed`]; everyone then receives
//!   [`PhaseOutcome::Repeat`] and re-executes the phase — masking tolerance,
//!   the `cp = error → repeat` path of §4.1 in shared memory;
//! * **undetectable** corruption of the barrier's own words (injectable via
//!   [`FtBarrier::corrupt`]) is caught by per-word checksums and repaired
//!   from mutex-guarded shadows; forged-but-well-formed words can spoil at
//!   most a bounded number of phases before the epoch discipline resynchronizes
//!   — stabilizing tolerance;
//! * **uncorrectable** faults under [`FailurePolicy::FailSafe`] break the
//!   barrier permanently: every participant gets [`BarrierError::Broken`]
//!   and a completion is never reported incorrectly — fail-safe tolerance;
//!   [`FailurePolicy::Abort`] reproduces MPI's first alternative.
//!
//! The barrier is a k-ary combining tree (§4.2's Fig 2(c) in shared memory):
//! arrival verdicts aggregate leaf→root in O(log N); the root publishes an
//! epoch-stamped release word. Fuzzy barriers (§8) come from splitting
//! [`Participant::arrive`] into [`Participant::enter`] /
//! [`Participant::leave`].

pub mod barrier;
pub mod baseline;
pub mod detector;
mod flight;
pub mod fuzzy;
pub mod policy;
pub mod scope;
mod wait;
pub mod word;

pub use barrier::CorruptTarget;
pub use barrier::{BarrierError, FtBarrier, FtBarrierBuilder, Participant, PhaseOutcome};
pub use baseline::{CentralBarrier, TreeBarrier};
pub use detector::{
    Clock, DetectorConfig, DetectorEvent, FailureDetector, GroupMembership, MembershipEvent,
    TestClock, WallClock,
};
pub use policy::FailurePolicy;
pub use scope::{run_phases, run_phases_instrumented, run_phases_observed, PhaseCtx, RunSummary};

use std::ops::Deref;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m` even if a thread panicked while holding it. A participant that
/// dies mid-phase is a detectable fault (§4.1): the survivors take the
/// guard and carry on instead of panicking on a poisoned lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A value aligned to 128 bytes (a pair of cache lines, the unit adjacent-
/// line prefetchers pull), so adjacent padded values never share a line.
#[repr(align(128))]
struct CachePadded<T>(T);

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::align_of;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn adjacent_padded_words_are_a_full_pad_apart() {
        assert_eq!(align_of::<CachePadded<AtomicU64>>(), 128);
        let pair = [
            CachePadded(AtomicU64::new(0)),
            CachePadded(AtomicU64::new(0)),
        ];
        let addr = |w: &CachePadded<AtomicU64>| &**w as *const AtomicU64 as usize;
        assert!(addr(&pair[1]) - addr(&pair[0]) >= 128);
    }
}
