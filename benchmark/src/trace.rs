//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around its calls into each
//! layer; nothing inside the program is instrumented. They are kept in
//! memory and written out once, after measuring, in the Chrome `trace_event`
//! shape that `results/trace_*.json` already use, so Perfetto opens them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The barrier round (or batch) every span of one operation shares.
    pub round: u64,
}

/// Records spans when on; costs one branch per call when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, round: u64) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            round,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome `trace_event` JSON: one complete ("X") event per span, the
    /// parent index and round in `args`.
    pub fn to_chrome_json(&self, workload: &str, quick: bool) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 128);
        let _ = write!(
            out,
            "{{\"schema\":\"chrome-trace/v1\",\"displayTimeUnit\":\"ns\",\
             \"otherData\":{{\"timeDomain\":\"wall\",\"workload\":\"{workload}\",\"quick\":{quick}}},\
             \"traceEvents\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"round\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.round
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Per span name: how many spans, and their summed self time — the span's
/// duration minus the part of it its child spans cover. The benchmark is
/// single-threaded where it records, so children never overlap each other.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        let entry = by_name.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("round", 0, 100, None),
            span("arrive", 10, 30, Some(0)),
            span("await", 30, 90, Some(0)),
            span("decode", 40, 45, Some(2)),
            span("round", 100, 150, None),
        ];
        let st = self_times(&spans);
        assert_eq!(st["round"], (2, 20 + 50));
        assert_eq!(st["arrive"], (1, 20));
        assert_eq!(st["await"], (1, 55));
        assert_eq!(st["decode"], (1, 5));
    }

    #[test]
    fn tracer_nests_and_is_inert_when_off() {
        let mut t = Tracer::new(true);
        t.enter("outer", 7);
        t.enter("inner", 7);
        t.exit();
        t.exit();
        t.enter("next", 8);
        t.exit();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[2].round, 8);
        let json = t.to_chrome_json("w", true);
        let parsed = ftbarrier_telemetry::json::parse(&json).expect("valid JSON");
        assert_eq!(
            parsed.get("traceEvents").unwrap().as_array().unwrap().len(),
            3
        );

        let mut off = Tracer::new(false);
        off.enter("x", 0);
        off.exit();
        assert!(off.spans().is_empty());
    }
}
