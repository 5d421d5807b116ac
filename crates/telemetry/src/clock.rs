//! The clock every wall-clock backend reads its timing through.
//!
//! The threaded message-passing drivers and the runtime's heartbeat
//! detector never call `Instant::elapsed` themselves: they read a shared
//! [`Clock`]. Production runs use [`WallClock`]; tests use a [`TestClock`]
//! that advances only when the test says so, which removes every wall-clock
//! race from the default test lane.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotone source of seconds, shared by every participant.
pub trait Clock: Send + Sync + 'static {
    /// Seconds elapsed since the run started.
    fn now(&self) -> f64;
}

/// Real time: seconds since construction.
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    pub fn start() -> Arc<WallClock> {
        Arc::new(WallClock {
            start: Instant::now(),
        })
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Manually advanced virtual time (stored as `f64` bits in an atomic).
///
/// A test thread calls [`TestClock::advance`] in a loop while the worker
/// threads spin; timeouts then fire at exactly the virtual instants the
/// test dictates, independent of machine load. To keep virtual time from
/// outrunning workers that the machine is not scheduling, the clock counts
/// the distinct threads that have read it since the last advance
/// ([`TestClock::polled`]); a driver that waits for every worker before
/// advancing gives each worker at least one look at every instant.
pub struct TestClock {
    bits: AtomicU64,
    /// Advances so far (high 32 bits) and the distinct threads that have
    /// read the clock since the last one (low 32 bits), in one word so a
    /// read is never counted against an advance it did not see.
    polls: AtomicU64,
    /// Tells this clock's readers apart from another clock's in the
    /// per-thread [`LAST_POLL`] record.
    id: u64,
}

/// Source of [`TestClock::id`].
static NEXT_CLOCK_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(clock id, advance count)` of this thread's last counted read (ids
    /// start at 1, so the initial value matches no clock).
    static LAST_POLL: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

const POLL_COUNT: u64 = (1 << 32) - 1;

impl TestClock {
    pub fn new() -> Arc<TestClock> {
        Arc::new(TestClock {
            bits: AtomicU64::new(0f64.to_bits()),
            polls: AtomicU64::new(0),
            id: NEXT_CLOCK_ID.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Advance virtual time by `by` (must be non-negative) and return the
    /// new time. Restarts the [`TestClock::polled`] count.
    pub fn advance(&self, by: f64) -> f64 {
        assert!(by >= 0.0 && by.is_finite(), "advance({by})");
        let mut cur = self.bits.load(Ordering::Acquire);
        let now = loop {
            let next = f64::from_bits(cur) + by;
            match self.bits.compare_exchange(
                cur,
                next.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break next,
                Err(actual) => cur = actual,
            }
        };
        // After the time store: a reader that sees the new advance count
        // also sees the new time.
        let _ = self
            .polls
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                Some(((w >> 32) + 1) << 32)
            });
        now
    }

    /// Distinct threads that have read the clock since the last advance.
    pub fn polled(&self) -> usize {
        (self.polls.load(Ordering::Acquire) & POLL_COUNT) as usize
    }

    /// Advance by `by` once `readers` distinct threads have read the clock
    /// since the last advance, and return the new time; `None`, without
    /// advancing, as soon as `stop()` holds. A driver stepping `readers`
    /// worker threads through this gives every worker at least one look
    /// at each instant, however loaded the machine.
    pub fn advance_after_polls(
        &self,
        by: f64,
        readers: usize,
        stop: impl Fn() -> bool,
    ) -> Option<f64> {
        loop {
            if stop() {
                return None;
            }
            if self.polled() >= readers {
                return Some(self.advance(by));
            }
            std::thread::yield_now();
        }
    }

    /// Count the calling thread as a reader of advance `seen >> 32`, once.
    fn count_poll(&self, mut seen: u64) {
        let advance = seen >> 32;
        LAST_POLL.with(|last| {
            if last.get() == (self.id, advance) {
                return;
            }
            loop {
                match self.polls.compare_exchange_weak(
                    seen,
                    seen + 1,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        last.set((self.id, advance));
                        return;
                    }
                    Err(actual) if actual >> 32 == advance => seen = actual,
                    // Advanced meanwhile: this read showed the old time,
                    // so it does not count; the next one will.
                    Err(_) => return,
                }
            }
        });
    }
}

impl Clock for TestClock {
    fn now(&self) -> f64 {
        let seen = self.polls.load(Ordering::Acquire);
        let now = f64::from_bits(self.bits.load(Ordering::Acquire));
        self.count_poll(seen);
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_clock_starts_at_zero_and_advances() {
        let c = TestClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance(0.5);
        c.advance(0.25);
        assert_eq!(c.now(), 0.75);
    }

    #[test]
    fn polled_counts_distinct_reader_threads_per_advance() {
        let c = TestClock::new();
        assert_eq!(c.polled(), 0);
        c.now();
        c.now();
        assert_eq!(c.polled(), 1, "one thread counts once");
        let other = Arc::clone(&c);
        std::thread::spawn(move || other.now()).join().unwrap();
        assert_eq!(c.polled(), 2);
        assert_eq!(c.advance(0.5), 0.5);
        assert_eq!(c.polled(), 0, "an advance restarts the count");
        c.now();
        assert_eq!(c.polled(), 1);
        // Another clock's reads are its own.
        let d = TestClock::new();
        d.now();
        assert_eq!((c.polled(), d.polled()), (1, 1));
    }

    #[test]
    fn advance_after_polls_waits_for_every_reader() {
        let c = TestClock::new();
        assert_eq!(c.advance_after_polls(1.0, 1, || true), None, "stop wins");
        let reader = Arc::clone(&c);
        let worker = std::thread::spawn(move || {
            // Wait for each instant by reading the clock until it moves.
            let mut seen = reader.now();
            while seen < 3.0 {
                let now = reader.now();
                assert!(now - seen <= 1.0, "the clock skipped an instant");
                seen = now;
                std::thread::yield_now();
            }
        });
        for step in 1..=3 {
            assert_eq!(c.advance_after_polls(1.0, 1, || false), Some(step as f64));
        }
        worker.join().unwrap();
    }

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::start();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    #[should_panic]
    fn test_clock_rejects_negative_advance() {
        TestClock::new().advance(-1.0);
    }
}
