//! Order statistics, the bound comparison, and process CPU time.

use std::time::Instant;

/// The `p`-th percentile (0–100) by linear interpolation between the two
/// nearest ranks. Panics on an empty sample: every caller takes it over a
/// repetition that ran at least one operation.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Distance between the first and third quartile as a share of the median.
/// Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
/// exclusive method), which is what the acceptance check uses.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quantile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (quantile(3) - quantile(1)) / median(&sorted)
}

/// By what share of `base` the value `new` is worse; negative when better.
pub fn worsening(base: f64, new: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (new - base) / base
    } else {
        (base - new) / base
    }
}

/// The kernel's `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system, every thread that ever ran, exited ones too)
/// this process has used so far, at nanosecond resolution. `/proc/self/stat`
/// carries the same sum but in 10 ms ticks, a tenth of what a short
/// repetition of a mostly sleeping workload uses.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` and the clock id is
    // a constant the kernel defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Wall and CPU time of one measured section.
pub struct Section {
    wall: Instant,
    cpu_s: f64,
}

impl Section {
    pub fn start() -> Section {
        Section {
            cpu_s: process_cpu_s(),
            wall: Instant::now(),
        }
    }

    /// `(wall seconds, cpu seconds)` since [`Section::start`].
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (wall, process_cpu_s() - self.cpu_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((quartile_spread(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(100.0, 108.0, true) - 0.08).abs() < 1e-12);
        assert!((worsening(100.0, 108.0, false) + 0.08).abs() < 1e-12);
        assert!(worsening(100.0, 90.0, false) > 0.0999);
    }

    #[test]
    fn process_cpu_time_counts_threads_that_have_exited() {
        let spin = || {
            let started = Instant::now();
            while started.elapsed().as_millis() < 30 {
                std::hint::spin_loop();
            }
        };
        let before = process_cpu_s();
        std::thread::spawn(spin).join().expect("spinner");
        let spun = process_cpu_s() - before;
        assert!(
            spun > 0.02,
            "an exited thread's 30 ms spin counted as {spun} CPU-s"
        );
    }
}
