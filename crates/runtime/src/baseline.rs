//! Fault-intolerant baseline barriers, for the §6 overhead comparison in
//! real code: the classic central sense-reversing barrier and a plain
//! combining-tree barrier (the `1 + 2hc` comparator — arrival sweep plus
//! release, no verdicts, no repair).

use crate::barrier::children;
use crate::wait::WaitPolicy;
use crate::CachePadded;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Central sense-reversing barrier.
// ---------------------------------------------------------------------------

struct CentralShared {
    n: usize,
    wait: WaitPolicy,
    count: CachePadded<AtomicUsize>,
    sense: CachePadded<AtomicBool>,
}

/// Classic centralized sense-reversing barrier (fault-intolerant).
pub struct CentralBarrier {
    shared: Arc<CentralShared>,
    local_sense: bool,
}

impl CentralBarrier {
    /// Create `n` connected participants.
    pub fn new(n: usize) -> Vec<CentralBarrier> {
        assert!(n >= 1);
        let shared = Arc::new(CentralShared {
            n,
            wait: WaitPolicy::observe(n),
            count: CachePadded(AtomicUsize::new(0)),
            sense: CachePadded(AtomicBool::new(false)),
        });
        (0..n)
            .map(|_| CentralBarrier {
                shared: Arc::clone(&shared),
                local_sense: false,
            })
            .collect()
    }

    /// Wait until all participants arrive.
    pub fn wait(&mut self) {
        let s = !self.local_sense;
        self.local_sense = s;
        if self.shared.count.fetch_add(1, Ordering::AcqRel) + 1 == self.shared.n {
            self.shared.count.store(0, Ordering::Release);
            self.shared.sense.store(s, Ordering::Release);
        } else {
            let sense = &self.shared.sense;
            self.shared
                .wait
                .until(|| (sense.load(Ordering::Acquire) == s).then_some(()));
        }
    }
}

// ---------------------------------------------------------------------------
// Combining-tree barrier (fault-intolerant).
// ---------------------------------------------------------------------------

struct TreeShared {
    n: usize,
    arity: usize,
    wait: WaitPolicy,
    /// Per-participant arrival epoch.
    slots: Vec<CachePadded<AtomicU64>>,
    /// Root's release epoch.
    release: CachePadded<AtomicU64>,
}

impl TreeShared {
    /// Wait until `word` carries `epoch`.
    fn reached(&self, word: &AtomicU64, epoch: u64) {
        self.wait
            .until(|| (word.load(Ordering::Acquire) >= epoch).then_some(()));
    }
}

/// Plain combining-tree barrier: the fault-*intolerant* counterpart of
/// [`FtBarrier`](crate::FtBarrier) — two sweeps, no verdicts, no checks.
pub struct TreeBarrier {
    shared: Arc<TreeShared>,
    id: usize,
    epoch: u64,
}

impl TreeBarrier {
    pub fn new(n: usize, arity: usize) -> Vec<TreeBarrier> {
        assert!(n >= 1 && arity >= 1);
        let shared = Arc::new(TreeShared {
            n,
            arity,
            wait: WaitPolicy::observe(n),
            slots: (0..n).map(|_| CachePadded(AtomicU64::new(0))).collect(),
            release: CachePadded(AtomicU64::new(0)),
        });
        (0..n)
            .map(|id| TreeBarrier {
                shared: Arc::clone(&shared),
                id,
                epoch: 1,
            })
            .collect()
    }

    pub fn wait(&mut self) {
        let e = self.epoch;
        let shared = &*self.shared;
        for c in children(shared.n, shared.arity, self.id) {
            shared.reached(&shared.slots[c], e);
        }
        if self.id == 0 {
            shared.release.store(e, Ordering::Release);
        } else {
            shared.slots[self.id].store(e, Ordering::Release);
            shared.reached(&shared.release, e);
        }
        self.epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<B: Send + 'static>(mut parts: Vec<B>, wait: fn(&mut B), rounds: u64) {
        let n = parts.len();
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = parts
            .drain(..)
            .map(|mut b| {
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for r in 1..=rounds {
                        counter.fetch_add(1, Ordering::SeqCst);
                        wait(&mut b);
                        // All n increments of this round are visible.
                        assert!(counter.load(Ordering::SeqCst) >= r * n as u64);
                        wait(&mut b); // second barrier separates rounds
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), rounds * n as u64);
    }

    #[test]
    fn central_barrier_synchronizes() {
        for n in [1, 2, 4, 9] {
            exercise(CentralBarrier::new(n), CentralBarrier::wait, 50);
        }
    }

    #[test]
    fn tree_barrier_synchronizes() {
        for n in [1, 2, 4, 9, 16] {
            exercise(TreeBarrier::new(n, 2), TreeBarrier::wait, 50);
        }
    }

    #[test]
    fn tree_barrier_wide_arity() {
        exercise(TreeBarrier::new(13, 4), TreeBarrier::wait, 30);
    }
}
