//! The runtime's one wait loop, and the policy that sizes its spin.
//!
//! Every barrier in this crate waits the same way: poll a shared word, and
//! between polls either pause on the CPU or give the CPU away. Pausing pays
//! when the peer being waited for is running on another CPU — the word
//! arrives within a cache-line transfer, well under the cost of a
//! `sched_yield`. It is pure loss when that peer cannot be running: with
//! more participants than CPUs, some participant is always descheduled, and
//! every pause aimed at it only delays the yield that lets it run.
//!
//! So the spin budget is decided once, at barrier construction, from the
//! two numbers the code can observe: how many participants the barrier has
//! and how many CPUs the constructing thread may run on (threads inherit
//! that mask). More participants than CPUs: yield at once. Otherwise: 127
//! pauses in doubling bursts (1, 2, 4 … 64) with a poll between bursts,
//! then yield between polls.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::thread;

/// Doubling pause bursts before the first yield: 1 + 2 + … + 64 = 127.
const SPIN_BURSTS: u32 = 7;

/// How a barrier's participants wait; fixed when the barrier is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WaitPolicy {
    spin_bursts: u32,
}

impl WaitPolicy {
    /// The policy for a barrier of `participants` built on this thread.
    pub(crate) fn observe(participants: usize) -> WaitPolicy {
        WaitPolicy::decide(participants, allowed_cpus())
    }

    /// Spin only if every participant can have a CPU to itself.
    fn decide(participants: usize, cpus: usize) -> WaitPolicy {
        WaitPolicy {
            spin_bursts: if participants > cpus { 0 } else { SPIN_BURSTS },
        }
    }

    /// Poll until `poll` yields a value. `poll` runs at least once, and
    /// again after every burst and every yield, so whatever it re-asserts
    /// or checks (deadlines, break flags) is looked at for as long as the
    /// wait lasts.
    pub(crate) fn until<T>(self, mut poll: impl FnMut() -> Option<T>) -> T {
        let mut burst = 0;
        loop {
            if let Some(value) = poll() {
                return value;
            }
            if burst < self.spin_bursts {
                for _ in 0..1u32 << burst {
                    std::hint::spin_loop();
                }
                burst += 1;
            } else {
                thread::yield_now();
            }
        }
    }
}

/// CPUs the calling thread may run on, read afresh on every call: the mask
/// can change between two barriers of one process (a harness that confines
/// itself for one run and not the next), and `available_parallelism` — which
/// also walks the cgroup files, ~150 µs — is too slow to pay per barrier.
#[cfg(target_os = "linux")]
fn allowed_cpus() -> usize {
    /// The kernel's `cpu_set_t`: one bit per CPU, 1024 CPUs.
    #[repr(C)]
    struct CpuSet([u64; 16]);

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    }

    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a live, writable buffer of exactly the size passed,
    // which is all the call writes; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    let cpus: usize = set.0.iter().map(|word| word.count_ones() as usize).sum();
    // A machine with more than 1024 CPUs makes the call fail with EINVAL.
    if rc == 0 && cpus > 0 {
        cpus
    } else {
        fallback_cpus()
    }
}

#[cfg(not(target_os = "linux"))]
fn allowed_cpus() -> usize {
    fallback_cpus()
}

/// One CPU when even the standard library cannot tell: a waiter that yields
/// needlessly loses a syscall, one that spins needlessly loses its quantum.
fn fallback_cpus() -> usize {
    thread::available_parallelism().map_or(1, |cpus| cpus.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// The policy as a pure function: no spin exactly when the participants
    /// outnumber the CPUs.
    #[test]
    fn spins_iff_every_participant_can_have_a_cpu() {
        for participants in 1..=9usize {
            for cpus in 1..=9usize {
                let spins = WaitPolicy::decide(participants, cpus).spin_bursts > 0;
                assert_eq!(
                    spins,
                    participants <= cpus,
                    "{participants} participants on {cpus} CPUs"
                );
            }
        }
        assert_eq!(WaitPolicy::decide(2, 2).spin_bursts, SPIN_BURSTS);
    }

    #[test]
    fn allowed_cpus_is_at_least_one() {
        assert!(allowed_cpus() >= 1);
        assert!(fallback_cpus() >= 1);
    }

    #[test]
    fn until_polls_first_and_after_every_pause() {
        for policy in [WaitPolicy::decide(2, 1), WaitPolicy::decide(2, 2)] {
            // Ready at once: exactly one poll, no pause.
            let polls = AtomicU32::new(0);
            let got = policy.until(|| Some(polls.fetch_add(1, Ordering::Relaxed)));
            assert_eq!((got, polls.load(Ordering::Relaxed)), (0, 1));
            // Ready on the 20th poll: past the spin budget, into the yields.
            let polls = AtomicU32::new(0);
            let got = policy.until(|| {
                let seen = polls.fetch_add(1, Ordering::Relaxed) + 1;
                (seen == 20).then_some(seen)
            });
            assert_eq!(got, 20);
        }
    }
}
