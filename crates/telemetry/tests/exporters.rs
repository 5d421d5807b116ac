//! Exporter validity: a busy, multi-track snapshot must export to
//! artifacts that survive their own format's parser — Chrome trace JSON
//! with per-track monotone non-negative timestamps, and a Prometheus text
//! snapshot that round-trips through the tiny text parser with every
//! sample intact and order-consistent quantiles.

use ftbarrier_telemetry::{json, prom, to_chrome_trace, to_jsonl, to_prometheus};
use ftbarrier_telemetry::{Telemetry, TimeDomain};

/// Deterministic pseudo-random stream (splitmix64) so the snapshot is busy
/// without depending on any RNG crate.
struct Mix(u64);

impl Mix {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A snapshot exercising every event and metric kind, with names that need
/// JSON escaping and out-of-order recording across several tracks.
fn busy_telemetry() -> Telemetry {
    let tele = Telemetry::recording(TimeDomain::Virtual);
    let mut rng = Mix(0xE4B0A7);
    let tracks: Vec<_> = (0..4).map(|i| tele.track(&format!("proc {i}"))).collect();
    for round in 0..50 {
        for (i, &track) in tracks.iter().enumerate() {
            let start = round as f64 + rng.next_f64() * 0.4;
            let dur = 0.1 + rng.next_f64() * 0.5;
            tele.span_with(
                track,
                &format!("phase {round}"),
                start,
                start + dur,
                &[("worker", &i.to_string()), ("note", "a\"b\\c\n")],
            );
            tele.observe("phase_duration", &[("topo", "ring")], dur);
            tele.counter("events_total", &[("kind", "span")], 1);
        }
        if round % 7 == 0 {
            tele.instant_with(
                tracks[round % 4],
                "fault:detectable",
                round as f64 + 0.5,
                &[("pid", &(round % 4).to_string())],
            );
        }
    }
    tele.gauge("in_flight", &[], 3.25);
    tele.observe("empty_tail\"quoted", &[("λ", "uni\u{1F980}code")], 0.25);
    tele
}

#[test]
fn chrome_trace_parses_with_monotone_per_track_timestamps() {
    let snap = busy_telemetry().snapshot();
    let parsed = json::parse(&to_chrome_trace(&snap)).expect("chrome trace is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(events.len() > 200, "busy snapshot exports a busy trace");
    let mut last_ts_per_tid: std::collections::BTreeMap<i64, f64> = Default::default();
    let mut spans = 0usize;
    for ev in events {
        let phase = ev.get("ph").and_then(|v| v.as_str()).expect("ph");
        if phase == "M" {
            continue; // metadata carries no timestamp ordering contract
        }
        let ts = ev.get("ts").and_then(|v| v.as_f64()).expect("ts");
        assert!(ts >= 0.0, "negative timestamp");
        let tid = ev.get("tid").and_then(|v| v.as_f64()).expect("tid") as i64;
        let last = last_ts_per_tid.entry(tid).or_insert(f64::NEG_INFINITY);
        assert!(ts >= *last, "tid {tid}: ts {ts} after {last}");
        *last = ts;
        if phase == "X" {
            spans += 1;
            let dur = ev.get("dur").and_then(|v| v.as_f64()).expect("dur");
            assert!(dur >= 0.0, "negative duration");
        }
    }
    assert_eq!(spans, 200, "50 rounds × 4 tracks");
}

#[test]
fn jsonl_lines_each_parse() {
    let snap = busy_telemetry().snapshot();
    let jsonl = to_jsonl(&snap);
    let mut lines = 0;
    for line in jsonl.lines() {
        let v = json::parse(line).expect("each JSONL line is valid JSON");
        assert!(v.get("type").is_some(), "line has a type field");
        lines += 1;
    }
    assert!(lines > 200);
}

#[test]
fn prometheus_snapshot_round_trips() {
    let snap = busy_telemetry().snapshot();
    let text = to_prometheus(&snap);
    let expo = prom::parse(&text).expect("prometheus text parses");

    assert_eq!(expo.value("events_total", &[("kind", "span")]), Some(200.0));
    assert_eq!(expo.value("in_flight", &[]), Some(3.25));

    // The histogram round-trips: count, sum, and the +Inf bucket agree
    // with the registry.
    let h = snap
        .metrics
        .histogram("phase_duration", &[("topo", "ring")])
        .expect("histogram recorded");
    assert_eq!(
        expo.value("phase_duration_count", &[("topo", "ring")]),
        Some(h.count() as f64)
    );
    let sum = expo
        .value("phase_duration_sum", &[("topo", "ring")])
        .expect("sum sample");
    assert!((sum - h.sum()).abs() < 1e-9);
    let inf_bucket = expo
        .samples_of("phase_duration_bucket")
        .into_iter()
        .find(|s| s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf"))
        .expect("+Inf bucket");
    assert_eq!(inf_bucket.value, h.count() as f64);

    // Bucket counts are cumulative (non-decreasing in `le` order — the
    // exporter emits them in ascending order).
    let buckets: Vec<f64> = expo
        .samples_of("phase_duration_bucket")
        .iter()
        .map(|s| s.value)
        .collect();
    assert!(
        buckets.windows(2).all(|w| w[0] <= w[1]),
        "non-cumulative buckets"
    );
}

#[test]
fn histogram_quantiles_are_order_consistent() {
    let snap = busy_telemetry().snapshot();
    let h = snap
        .metrics
        .histogram("phase_duration", &[("topo", "ring")])
        .expect("histogram recorded");
    let (p50, p90, p99) = (h.quantile(0.5), h.quantile(0.9), h.quantile(0.99));
    assert!(h.min() <= p50, "{} > p50 {p50}", h.min());
    assert!(p50 <= p90, "p50 {p50} > p90 {p90}");
    assert!(p90 <= p99, "p90 {p90} > p99 {p99}");
    assert!(p99 <= h.max(), "p99 {p99} > max {}", h.max());
}
