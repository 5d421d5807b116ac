//! The clock every wall-clock backend reads its timing through.
//!
//! The threaded message-passing drivers and the runtime's heartbeat
//! detector never call `Instant::elapsed` themselves: they read a shared
//! [`Clock`]. Production runs use [`WallClock`]; tests use a [`TestClock`]
//! that advances only when the test says so, which removes every wall-clock
//! race from the default test lane.

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
/// test dictates, independent of machine load.
pub struct TestClock {
    bits: AtomicU64,
}

impl TestClock {
    pub fn new() -> Arc<TestClock> {
        Arc::new(TestClock {
            bits: AtomicU64::new(0f64.to_bits()),
        })
    }

    /// Advance virtual time by `by` (must be non-negative).
    pub fn advance(&self, by: f64) {
        assert!(by >= 0.0 && by.is_finite(), "advance({by})");
        let mut cur = self.bits.load(Ordering::Acquire);
        loop {
            let next = (f64::from_bits(cur) + by).to_bits();
            match self
                .bits
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

impl Clock for TestClock {
    fn now(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Acquire))
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
