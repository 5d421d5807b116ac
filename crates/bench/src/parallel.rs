//! Sweep-execution layer: fan independent experiment cells across worker
//! threads.
//!
//! Every simulated figure is a grid of mutually independent cells — each
//! `(f, c, seed)` point builds its own engine from its own fixed seed, so
//! running cells concurrently produces bit-identical rows to the serial
//! loops (the per-cell RNGs never interact). This module provides the one
//! primitive the figure generators need: an order-preserving parallel map
//! over scoped threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Detected hardware parallelism, with a serial fallback when the platform
/// cannot answer (the same `1` a one-core container reports).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parse an `FTBARRIER_WORKERS` value: a positive integer, or a clear error
/// (a typo must not silently fall back to the detected core count).
///
/// Values above the detected core count are accepted — oversubscription is a
/// legitimate request; [`parallel_map`] clamps to the number of cells.
pub fn parse_workers(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "FTBARRIER_WORKERS must be a positive integer, got `{raw}` (use 1 for the serial path)"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "FTBARRIER_WORKERS must be a positive integer, got `{raw}`"
        )),
    }
}

/// Number of worker threads the experiment fan-out uses.
///
/// `FTBARRIER_WORKERS` overrides the detected core count (set it to 1 to
/// force the serial path, e.g. when timing a single cell). An invalid value
/// is a configuration error and panics rather than being silently ignored.
pub fn worker_count() -> usize {
    if let Ok(v) = std::env::var("FTBARRIER_WORKERS") {
        return parse_workers(&v).unwrap_or_else(|e| panic!("{e}"));
    }
    available_parallelism()
}

/// Map `f` over `items` on up to [`worker_count`] scoped threads, returning
/// results in input order.
///
/// Work is handed out through a shared atomic cursor, so long cells don't
/// straggle behind a static partition. Falls back to a plain serial map for
/// one worker or zero/one items. Panics in `f` propagate to the caller.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = worker_count().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("each slot is claimed exactly once");
                let r = f(item);
                *results[i].lock().unwrap() = Some(r);
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("every slot was processed before the scope closed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_maps_everything() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items, |x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_map_on_uneven_work() {
        // Cells with wildly different costs must still land in input order.
        let items: Vec<u64> = (0..40).map(|i| (i * 7919) % 23).collect();
        let expected: Vec<u64> = items.iter().map(|&x| (0..x * 1000).sum::<u64>()).collect();
        let out = parallel_map(items, |x| (0..x * 1000).sum::<u64>());
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(parallel_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(parallel_map(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn parse_workers_accepts_positive_integers() {
        assert_eq!(parse_workers("1"), Ok(1));
        assert_eq!(parse_workers("8"), Ok(8));
        assert_eq!(
            parse_workers(" 4 "),
            Ok(4),
            "surrounding whitespace is fine"
        );
    }

    #[test]
    fn parse_workers_accepts_over_core_values() {
        // Oversubscription is allowed: parallel_map clamps to the number of
        // cells, but the parse itself must not second-guess an explicit
        // request.
        let cores = available_parallelism();
        assert_eq!(parse_workers(&format!("{}", cores * 64)), Ok(cores * 64));
        assert_eq!(parse_workers("4096"), Ok(4096));
    }

    #[test]
    fn available_parallelism_is_positive() {
        assert!(available_parallelism() >= 1);
    }

    #[test]
    fn parse_workers_rejects_zero_and_garbage() {
        for bad in ["0", "", "abc", "-2", "3.5", "4x"] {
            let err = parse_workers(bad).unwrap_err();
            assert!(
                err.contains("FTBARRIER_WORKERS") && err.contains(bad),
                "error for `{bad}` must name the variable and echo the value: {err}"
            );
        }
    }
}
