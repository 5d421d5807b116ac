//! The telemetry handle: a cheap, cloneable recorder of metrics and
//! timeline events that every execution backend threads through.
//!
//! Telemetry is **disabled by default**: [`Telemetry::off`] carries no
//! state, and every recording call on it is a branch on a `None` — no
//! allocation, no locking, no formatting. Enabling it
//! ([`Telemetry::recording`]) swaps in a shared, mutex-guarded store, so
//! one handle can be cloned into many threads (the threaded MB and runtime
//! backends) while the single-threaded simulators pay one uncontended lock
//! per event. Telemetry is a *pure observer* either way: it never feeds
//! back into scheduling, RNG streams, or protocol state, and the
//! differential tests assert byte-identical runs with it on and off.
//!
//! Timestamps are `f64` in the caller's **time domain**: virtual simulation
//! units in the gcs engine and simnet, seconds since run start in the
//! wall-clock backends. The domain is stamped on the handle at construction
//! and carried into every exporter so a trace is never read in the wrong
//! unit.

use crate::metrics::MetricsRegistry;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Which clock produced the timestamps of a recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeDomain {
    /// Virtual simulation time (the paper's phase-execution units).
    Virtual,
    /// Wall-clock seconds since the run started.
    Wall,
}

impl TimeDomain {
    pub fn as_str(self) -> &'static str {
        match self {
            TimeDomain::Virtual => "virtual",
            TimeDomain::Wall => "wall",
        }
    }
}

/// An interned timeline track (one per process/actor; rendered as one row
/// in Perfetto).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackId(pub(crate) u32);

impl TrackId {
    /// The placeholder returned by a disabled handle.
    pub const NONE: TrackId = TrackId(u32::MAX);

    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One timeline record.
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineEvent {
    /// A closed interval on a track (a barrier phase, a recovery window).
    Span {
        track: TrackId,
        name: String,
        start: f64,
        end: f64,
        args: Vec<(String, String)>,
    },
    /// A point event (a fault hit, a message drop).
    Instant {
        track: TrackId,
        name: String,
        at: f64,
        args: Vec<(String, String)>,
    },
}

impl TimelineEvent {
    pub fn start(&self) -> f64 {
        match self {
            TimelineEvent::Span { start, .. } => *start,
            TimelineEvent::Instant { at, .. } => *at,
        }
    }

    pub fn track(&self) -> TrackId {
        match self {
            TimelineEvent::Span { track, .. } | TimelineEvent::Instant { track, .. } => *track,
        }
    }

    pub fn name(&self) -> &str {
        match self {
            TimelineEvent::Span { name, .. } | TimelineEvent::Instant { name, .. } => name,
        }
    }
}

#[derive(Debug)]
struct Inner {
    domain: TimeDomain,
    tracks: Vec<String>,
    events: Vec<TimelineEvent>,
    metrics: MetricsRegistry,
}

/// Everything one recording captured, detached from the live handle —
/// what the exporters consume.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    pub domain: TimeDomain,
    /// Track names; `TrackId(i)` indexes this.
    pub tracks: Vec<String>,
    pub events: Vec<TimelineEvent>,
    pub metrics: MetricsRegistry,
}

impl TelemetrySnapshot {
    /// Events sorted by `(track, start, name)` — the order every exporter
    /// uses, so per-track timestamps are monotone by construction.
    pub fn sorted_events(&self) -> Vec<&TimelineEvent> {
        let mut evs: Vec<&TimelineEvent> = self.events.iter().collect();
        evs.sort_by(|a, b| {
            (a.track().0, a.start(), a.name())
                .partial_cmp(&(b.track().0, b.start(), b.name()))
                .expect("timestamps are finite")
        });
        evs
    }
}

/// The recorder handle. `Clone` is cheap (an `Option<Arc>`); all methods
/// take `&self` and are thread-safe.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl Telemetry {
    /// The disabled recorder: every call is a no-op.
    pub fn off() -> Telemetry {
        Telemetry { inner: None }
    }

    /// An enabled recorder stamping timestamps in `domain`.
    pub fn recording(domain: TimeDomain) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Inner {
                domain,
                tracks: Vec::new(),
                events: Vec::new(),
                metrics: MetricsRegistry::new(),
            }))),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Intern a track by name (idempotent). Disabled handles return
    /// [`TrackId::NONE`].
    pub fn track(&self, name: &str) -> TrackId {
        let Some(inner) = &self.inner else {
            return TrackId::NONE;
        };
        let mut g = lock(inner);
        if let Some(i) = g.tracks.iter().position(|t| t == name) {
            return TrackId(i as u32);
        }
        g.tracks.push(name.to_owned());
        TrackId((g.tracks.len() - 1) as u32)
    }

    /// Record a closed span on `track`.
    pub fn span(&self, track: TrackId, name: &str, start: f64, end: f64) {
        self.span_with(track, name, start, end, &[]);
    }

    pub fn span_with(
        &self,
        track: TrackId,
        name: &str,
        start: f64,
        end: f64,
        args: &[(&str, &str)],
    ) {
        let Some(inner) = &self.inner else { return };
        assert!(
            start.is_finite() && end.is_finite() && start >= 0.0 && end >= start,
            "span [{start}, {end}] invalid"
        );
        lock(inner).events.push(TimelineEvent::Span {
            track,
            name: name.to_owned(),
            start,
            end,
            args: own_args(args),
        });
    }

    /// Record a point event on `track`.
    pub fn instant(&self, track: TrackId, name: &str, at: f64) {
        self.instant_with(track, name, at, &[]);
    }

    pub fn instant_with(&self, track: TrackId, name: &str, at: f64, args: &[(&str, &str)]) {
        let Some(inner) = &self.inner else { return };
        assert!(at.is_finite() && at >= 0.0, "instant at {at} invalid");
        lock(inner).events.push(TimelineEvent::Instant {
            track,
            name: name.to_owned(),
            at,
            args: own_args(args),
        });
    }

    pub fn counter(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let Some(inner) = &self.inner else { return };
        lock(inner).metrics.add_counter(name, labels, delta);
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let Some(inner) = &self.inner else { return };
        lock(inner).metrics.set_gauge(name, labels, value);
    }

    /// Record a histogram sample.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let Some(inner) = &self.inner else { return };
        // Checked before locking: a bad sample must not poison the handle
        // every shard and the metrics thread share.
        assert!(
            value.is_finite() && value >= 0.0,
            "histogram sample must be finite and non-negative, got {value}"
        );
        lock(inner).metrics.observe(name, labels, value);
    }

    /// Fold a pre-built registry in (counters add, gauges overwrite,
    /// histograms merge) — the bridge from `RunStats`-style aggregates.
    pub fn merge_metrics(&self, registry: &MetricsRegistry) {
        let Some(inner) = &self.inner else { return };
        lock(inner).metrics.merge(registry);
    }

    /// Detach a copy of everything recorded so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        match &self.inner {
            None => TelemetrySnapshot {
                domain: TimeDomain::Virtual,
                tracks: Vec::new(),
                events: Vec::new(),
                metrics: MetricsRegistry::new(),
            },
            Some(inner) => {
                let g = lock(inner);
                TelemetrySnapshot {
                    domain: g.domain,
                    tracks: g.tracks.clone(),
                    events: g.events.clone(),
                    metrics: g.metrics.clone(),
                }
            }
        }
    }
}

/// The registry, even if a thread panicked while holding it. Samples are
/// validated before the lock is taken, so a panic under it leaves at worst
/// one update half-applied; every later call, from every shard sharing the
/// handle, keeps working.
fn lock(inner: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    inner.lock().unwrap_or_else(PoisonError::into_inner)
}

fn own_args(args: &[(&str, &str)]) -> Vec<(String, String)> {
    args.iter()
        .map(|&(k, v)| (k.to_owned(), v.to_owned()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_bad_sample_does_not_take_the_handle_down() {
        let t = Telemetry::recording(TimeDomain::Wall);
        let bad = t.clone();
        let died = std::thread::spawn(move || bad.observe("lat", &[], f64::NAN)).join();
        assert!(died.is_err(), "a NaN sample is refused loudly");
        // Even a panic while the lock is held does not wedge the handle.
        let inner = t.inner.clone().unwrap();
        let held = std::thread::spawn(move || {
            let _g = inner.lock();
            panic!("dies holding the registry");
        })
        .join();
        assert!(held.is_err());
        let other = t.clone();
        std::thread::spawn(move || {
            other.counter("served", &[], 2);
            other.observe("lat", &[], 1.5);
        })
        .join()
        .expect("later calls on another thread still work");
        let snap = t.snapshot();
        assert_eq!(snap.metrics.counter("served", &[]), 2);
        assert_eq!(snap.metrics.histograms.len(), 1);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::off();
        assert!(!t.is_enabled());
        let tr = t.track("p0");
        assert_eq!(tr, TrackId::NONE);
        t.span(tr, "phase", 0.0, 1.0);
        t.instant(tr, "fault", 0.5);
        t.counter("c", &[], 1);
        t.observe("h", &[], 0.1);
        let snap = t.snapshot();
        assert!(snap.events.is_empty());
        assert!(snap.metrics.is_empty());
        assert!(snap.tracks.is_empty());
    }

    #[test]
    fn tracks_intern_by_name() {
        let t = Telemetry::recording(TimeDomain::Virtual);
        let a = t.track("p0");
        let b = t.track("p1");
        let a2 = t.track("p0");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.snapshot().tracks, vec!["p0".to_owned(), "p1".to_owned()]);
    }

    #[test]
    fn spans_and_instants_are_captured_with_domain() {
        let t = Telemetry::recording(TimeDomain::Wall);
        let tr = t.track("worker 0");
        t.span_with(tr, "phase 3", 1.0, 2.5, &[("attempt", "1")]);
        t.instant(tr, "fault", 1.7);
        let snap = t.snapshot();
        assert_eq!(snap.domain, TimeDomain::Wall);
        assert_eq!(snap.events.len(), 2);
        match &snap.events[0] {
            TimelineEvent::Span {
                name, start, end, ..
            } => {
                assert_eq!(name, "phase 3");
                assert_eq!((*start, *end), (1.0, 2.5));
            }
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn sorted_events_are_monotone_per_track() {
        let t = Telemetry::recording(TimeDomain::Virtual);
        let a = t.track("a");
        let b = t.track("b");
        t.span(b, "late", 5.0, 6.0);
        t.span(a, "x", 2.0, 3.0);
        t.span(a, "w", 0.0, 1.0);
        t.instant(b, "i", 1.0);
        let snap = t.snapshot();
        let evs = snap.sorted_events();
        let mut last: Option<(u32, f64)> = None;
        for e in evs {
            if let Some((tr, ts)) = last {
                if e.track().0 == tr {
                    assert!(e.start() >= ts);
                }
            }
            last = Some((e.track().0, e.start()));
        }
    }

    #[test]
    fn clones_share_state_across_threads() {
        let t = Telemetry::recording(TimeDomain::Wall);
        let mut joins = Vec::new();
        for i in 0..4 {
            let t = t.clone();
            joins.push(std::thread::spawn(move || {
                t.counter("n", &[], i + 1);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(t.snapshot().metrics.counter("n", &[]), 1 + 2 + 3 + 4);
    }

    #[test]
    #[should_panic]
    fn rejects_backwards_span() {
        let t = Telemetry::recording(TimeDomain::Virtual);
        let tr = t.track("a");
        t.span(tr, "bad", 2.0, 1.0);
    }
}
