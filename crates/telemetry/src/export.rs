//! Exporters: Chrome `trace_event` JSON (Perfetto / chrome://tracing),
//! JSONL structured events, and Prometheus text exposition.
//!
//! All three render a [`TelemetrySnapshot`] deterministically: tracks in
//! interning order, events sorted `(track, time, name)`, metrics in
//! `BTreeMap` order. The Chrome export uses one *process* per snapshot and
//! one *thread* (track) per actor, `"X"` complete events for spans and
//! `"i"` instants, with timestamps scaled to microseconds as the format
//! requires; virtual-time recordings simply call one simulated unit one
//! second (1e6 µs), which Perfetto renders fine.

use crate::metrics::{sanitize_name, Histogram, MetricKey, MetricsRegistry};
use crate::recorder::{TelemetrySnapshot, TimelineEvent};
use std::fmt::Write as _;

/// The `Content-Type` an HTTP `/metrics` endpoint must send for the text
/// exposition format. The `version` parameter is part of the contract:
/// Prometheus content-negotiates on it.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Escape a `# HELP` docstring for the text exposition format. HELP text
/// escapes backslash and line feed only (`\\` and `\n`); double quotes are
/// legal raw here, unlike in label values where [`MetricKey::render`] must
/// also escape `"`.
pub fn escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a finite `f64` for JSON (no NaN/∞ — callers must not pass them).
fn json_num(x: f64) -> String {
    debug_assert!(x.is_finite(), "JSON number must be finite, got {x}");
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

fn args_json(args: &[(String, String)]) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    s.push('}');
    s
}

/// Seconds (or virtual units) → trace_event microseconds.
const TO_MICROS: f64 = 1e6;

/// Render the snapshot as a Chrome `trace_event` JSON document (the
/// `traceEvents` array form), loadable in Perfetto and chrome://tracing.
pub fn to_chrome_trace(snap: &TelemetrySnapshot) -> String {
    // The `schema` stamp is an extra top-level key; Chrome/Perfetto ignore
    // unknown keys, and CI greps for it to catch unversioned artifacts.
    let mut s = String::from(
        "{\"schema\":\"chrome-trace/v1\",\"displayTimeUnit\":\"ms\",\"otherData\":{\"timeDomain\":\"",
    );
    s.push_str(snap.domain.as_str());
    s.push_str("\"},\"traceEvents\":[");
    let mut first = true;
    let mut emit = |line: String, first: &mut bool| {
        if !*first {
            s.push(',');
        }
        *first = false;
        s.push('\n');
        s.push_str(&line);
    };
    // Track-name metadata: one Chrome "thread" per track under pid 0.
    emit(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"ftbarrier\"}}"
            .to_owned(),
        &mut first,
    );
    for (i, name) in snap.tracks.iter().enumerate() {
        emit(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{i},\"args\":{{\"name\":\"{}\"}}}}",
                json_escape(name)
            ),
            &mut first,
        );
        // Pin the Perfetto row order to the interning order.
        emit(
            format!(
                "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":{i},\"args\":{{\"sort_index\":{i}}}}}"
            ),
            &mut first,
        );
    }
    for ev in snap.sorted_events() {
        match ev {
            TimelineEvent::Span {
                track,
                name,
                start,
                end,
                args,
            } => emit(
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{}}}",
                    json_escape(name),
                    track.index(),
                    json_num(start * TO_MICROS),
                    json_num((end - start) * TO_MICROS),
                    args_json(args)
                ),
                &mut first,
            ),
            TimelineEvent::Instant {
                track,
                name,
                at,
                args,
            } => emit(
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{},\"args\":{}}}",
                    json_escape(name),
                    track.index(),
                    json_num(at * TO_MICROS),
                    args_json(args)
                ),
                &mut first,
            ),
        }
    }
    s.push_str("\n]}\n");
    s
}

/// Render the snapshot's timeline as JSONL: one structured event object per
/// line (`{"type":"span"|"instant","track":…,"name":…,…}`).
pub fn to_jsonl(snap: &TelemetrySnapshot) -> String {
    let mut s = String::new();
    let track_name = |t: crate::recorder::TrackId| -> &str {
        snap.tracks
            .get(t.index())
            .map(|s| s.as_str())
            .unwrap_or("?")
    };
    for ev in snap.sorted_events() {
        match ev {
            TimelineEvent::Span {
                track,
                name,
                start,
                end,
                args,
            } => {
                let _ = writeln!(
                    s,
                    "{{\"type\":\"span\",\"domain\":\"{}\",\"track\":\"{}\",\"name\":\"{}\",\"start\":{},\"end\":{},\"args\":{}}}",
                    snap.domain.as_str(),
                    json_escape(track_name(*track)),
                    json_escape(name),
                    json_num(*start),
                    json_num(*end),
                    args_json(args)
                );
            }
            TimelineEvent::Instant {
                track,
                name,
                at,
                args,
            } => {
                let _ = writeln!(
                    s,
                    "{{\"type\":\"instant\",\"domain\":\"{}\",\"track\":\"{}\",\"name\":\"{}\",\"at\":{},\"args\":{}}}",
                    snap.domain.as_str(),
                    json_escape(track_name(*track)),
                    json_escape(name),
                    json_num(*at),
                    args_json(args)
                );
            }
        }
    }
    s
}

fn prom_value(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_owned()
    } else if x.is_infinite() {
        if x > 0.0 { "+Inf" } else { "-Inf" }.to_owned()
    } else {
        json_num(x)
    }
}

fn key_with(key: &MetricKey, extra: &[(&str, &str)], name_suffix: &str) -> String {
    let mut labels: Vec<(String, String)> = key.labels.clone();
    for &(k, v) in extra {
        labels.push((k.to_owned(), v.to_owned()));
    }
    labels.sort();
    let k = MetricKey {
        name: format!("{}{}", key.name, name_suffix),
        labels,
    };
    k.render()
}

/// One label set's series of a histogram family; the family's header is
/// the caller's.
fn write_histogram(out: &mut String, key: &MetricKey, h: &Histogram) {
    for (bound, cum) in h.cumulative_buckets() {
        let b = prom_value(bound);
        let _ = writeln!(out, "{} {}", key_with(key, &[("le", &b)], "_bucket"), cum);
    }
    let _ = writeln!(
        out,
        "{} {}",
        key_with(key, &[("le", "+Inf")], "_bucket"),
        h.count()
    );
    let _ = writeln!(
        out,
        "{} {}",
        key_with(key, &[], "_sum"),
        prom_value(h.sum())
    );
    let _ = writeln!(out, "{} {}", key_with(key, &[], "_count"), h.count());
    // Convenience gauges Prometheus's text format has no native slot for —
    // the quantiles the experiments quote.
    for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
        let _ = writeln!(
            out,
            "{} {}",
            key_with(key, &[("quantile", label)], ""),
            prom_value(h.quantile(q))
        );
    }
    let _ = writeln!(
        out,
        "{} {}",
        key_with(key, &[], "_max"),
        prom_value(h.max())
    );
}

/// Render the snapshot's metrics in the Prometheus text exposition format.
pub fn to_prometheus(snap: &TelemetrySnapshot) -> String {
    metrics_to_prometheus(&snap.metrics)
}

/// Render a bare registry (no timeline) in the Prometheus text format.
pub fn metrics_to_prometheus(metrics: &MetricsRegistry) -> String {
    let mut out = String::new();
    let mut last_type: Option<(String, &str)> = None;
    let mut type_line = |out: &mut String, name: &str, ty: &'static str| {
        if last_type
            .as_ref()
            .is_none_or(|(n, t)| n != name || *t != ty)
        {
            let _ = writeln!(
                out,
                "# HELP {name} {}",
                escape_help(crate::names::help_text(name))
            );
            let _ = writeln!(out, "# TYPE {name} {ty}");
            last_type = Some((name.to_owned(), ty));
        }
    };
    for (key, value) in &metrics.counters {
        type_line(&mut out, &sanitize_name(&key.name), "counter");
        let _ = writeln!(out, "{} {}", key.render(), value);
    }
    for (key, value) in &metrics.gauges {
        type_line(&mut out, &sanitize_name(&key.name), "gauge");
        let _ = writeln!(out, "{} {}", key.render(), prom_value(*value));
    }
    for (key, h) in &metrics.histograms {
        type_line(&mut out, &sanitize_name(&key.name), "histogram");
        write_histogram(&mut out, key, h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Telemetry, TimeDomain};

    fn sample_snapshot() -> TelemetrySnapshot {
        let t = Telemetry::recording(TimeDomain::Virtual);
        let p0 = t.track("proc 0");
        let p1 = t.track("proc 1");
        t.span_with(p0, "phase 0", 0.0, 1.0, &[("attempt", "1")]);
        t.span(p1, "phase 0", 0.1, 1.2);
        t.instant(p1, "fault:detectable", 0.6);
        t.counter("engine_actions_total", &[("action", "tok")], 42);
        t.gauge("in_flight", &[], 3.0);
        t.observe("latency", &[("link", "0")], 0.01);
        t.observe("latency", &[("link", "0")], 0.02);
        t.snapshot()
    }

    #[test]
    fn chrome_trace_contains_tracks_and_events() {
        let s = to_chrome_trace(&sample_snapshot());
        assert!(s.contains("\"traceEvents\""));
        assert!(s.contains("thread_name"));
        assert!(s.contains("proc 0"));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"ph\":\"i\""));
        assert!(s.contains("\"dur\":1000000"));
    }

    #[test]
    fn jsonl_has_one_object_per_line() {
        let s = to_jsonl(&sample_snapshot());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(s.contains("\"type\":\"span\""));
        assert!(s.contains("\"type\":\"instant\""));
    }

    #[test]
    fn prometheus_exposition_has_help_types_and_quantiles() {
        let s = to_prometheus(&sample_snapshot());
        // Every # TYPE is preceded by a # HELP for the same metric.
        let lines: Vec<&str> = s.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(decl) = line.strip_prefix("# TYPE ") {
                let name = decl.split_whitespace().next().unwrap();
                let prev = lines[i - 1];
                assert!(
                    prev.starts_with(&format!("# HELP {name} ")),
                    "TYPE for {name} not preceded by its HELP: {prev:?}"
                );
            }
        }
        assert!(s.contains("# HELP engine_actions_total "));
        assert!(s.contains("# HELP latency "));
        assert!(s.contains("# TYPE engine_actions_total counter"));
        assert!(s.contains("engine_actions_total{action=\"tok\"} 42"));
        assert!(s.contains("# TYPE in_flight gauge"));
        assert!(s.contains("# TYPE latency histogram"));
        assert!(s.contains("latency_count{link=\"0\"} 2"));
        assert!(s.contains("quantile=\"0.99\""));
        assert!(s.contains("le=\"+Inf\""));
    }

    #[test]
    fn prometheus_declares_each_family_once_across_label_sets() {
        let mut reg = MetricsRegistry::new();
        for link in ["0", "1"] {
            reg.add_counter("net_sent_total", &[("link", link)], 1);
            reg.observe("net_delivery_latency", &[("link", link)], 0.01);
        }
        let text = metrics_to_prometheus(&reg);
        for family in ["net_sent_total", "net_delivery_latency"] {
            for decl in ["HELP", "TYPE"] {
                let header = format!("# {decl} {family} ");
                assert_eq!(text.matches(&header).count(), 1, "{header}in\n{text}");
            }
        }
        assert!(text.contains("net_delivery_latency_count{link=\"0\"} 1"));
        assert!(text.contains("net_delivery_latency_count{link=\"1\"} 1"));
    }

    #[test]
    fn escape_help_escapes_backslash_and_newline_only() {
        // Per the exposition format, HELP text escapes `\` and LF; a double
        // quote is legal raw (only label values quote-escape).
        assert_eq!(escape_help("a\\b\nc\"d"), "a\\\\b\\nc\"d");
        assert_eq!(escape_help("plain"), "plain");
    }

    #[test]
    fn prometheus_label_escapes_round_trip() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter("weird_total", &[("path", "a\\b\"c\nd")], 5);
        let text = metrics_to_prometheus(&reg);
        assert!(
            text.contains("path=\"a\\\\b\\\"c\\nd\""),
            "label specials must be escaped on the wire: {text}"
        );
        let exp = crate::prom::parse(&text).unwrap();
        assert_eq!(
            exp.value("weird_total", &[("path", "a\\b\"c\nd")]),
            Some(5.0)
        );
    }

    #[test]
    fn prometheus_help_escaping_round_trips_through_parser() {
        let help = "docs with \\ backslash\nand a second line";
        let text = format!("# HELP m {}\n# TYPE m gauge\nm 1\n", escape_help(help));
        // The embedded LF must not split the HELP declaration across lines.
        assert_eq!(text.lines().count(), 3, "{text}");
        let exp = crate::prom::parse(&text).unwrap();
        assert_eq!(exp.helps.get("m").map(String::as_str), Some(help));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
