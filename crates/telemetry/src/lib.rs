//! `ftbarrier-telemetry`: a hand-rolled, zero-dependency observability
//! layer for the fault-tolerant barrier testbed.
//!
//! The build is fully offline, so instead of `tracing`/`prometheus` this
//! crate provides the minimal pieces the experiments need:
//!
//! - [`clock`]: the [`Clock`] the wall-clock backends read, real
//!   ([`WallClock`]) or advanced by a test ([`TestClock`]);
//! - [`metrics`]: a registry of counters, gauges, and log-bucketed latency
//!   histograms with order-consistent p50/p90/p99/max quantiles;
//! - [`recorder`]: the cloneable [`Telemetry`] handle recording spans and
//!   instants on per-process tracks, stamped with a [`TimeDomain`]
//!   (virtual simulation time or wall-clock seconds);
//! - [`causal`]: the happens-before event model — a bounded
//!   [`CausalRecorder`] ring (the crash flight recorder) whose snapshots
//!   support measured critical-path extraction, per-pid attribution,
//!   wedge blame, and replayable `flightrec/v1` dumps;
//! - [`export`]: deterministic renderers to Chrome `trace_event` JSON
//!   (Perfetto), JSONL structured events, and the Prometheus text
//!   exposition format;
//! - [`json`] / [`prom`]: tiny parsers for both output formats so tests
//!   and CI smokes can validate emitted artifacts without external crates.
//!
//! Telemetry is disabled by default ([`Telemetry::off`]) and is a pure
//! observer when enabled: recording never feeds back into scheduling, RNG
//! streams, or protocol state. The differential tests in `ftbarrier-core`
//! and `ftbarrier-mp` hold the backends to that contract by asserting
//! byte-identical runs with telemetry on and off.

pub mod causal;
pub mod clock;
pub mod export;
pub mod json;
pub mod metrics;
pub mod names;
pub mod prom;
pub mod recorder;

pub use causal::{CausalEvent, CausalGraph, CausalRecorder, CriticalPath, EventId, FlightDump};
pub use clock::{Clock, TestClock, WallClock};
pub use export::{metrics_to_prometheus, to_chrome_trace, to_jsonl, to_prometheus};
pub use metrics::{Histogram, MetricKey, MetricsRegistry};
pub use recorder::{Telemetry, TelemetrySnapshot, TimeDomain, TimelineEvent, TrackId};
