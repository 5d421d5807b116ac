//! Causal happens-before tracing and the crash flight recorder.
//!
//! Every backend records [`CausalEvent`]s — `(pid, seq)`-identified
//! protocol steps carrying explicit predecessor references — into a
//! [`CausalRecorder`]. Three edge sources exist:
//!
//! - **program order**: each event's predecessor set includes the same
//!   pid's previous event;
//! - **read dependencies** (shared-memory engines): an engine commit at
//!   `pid` links to the last event of every process whose state `pid`'s
//!   guards read, via the inverted `Protocol::readers_of` read-sets;
//! - **message deliveries** (message-passing backends): wire messages are
//!   tagged with the sender's last event id at send time, so a delivery
//!   edge points at the exact send that produced the observed state —
//!   measured, not inferred.
//!
//! The recorder doubles as the **flight recorder**: construction is
//! always bounded ([`CausalRecorder::bounded`]), so an armed recorder
//! keeps only the most recent `capacity` events (evicting from the front
//! and counting drops). The per-event cost is a contract: one lock, and no
//! allocation when the label is a `&'static str` and the event has at most
//! two predecessors — the ring is allocated once at `capacity`, labels are
//! `Cow<'static, str>`, predecessors live inline up to two, and the per-pid
//! bookkeeping is one pid-indexed vector
//! ([`CausalRecorder::record_next`] is the form every backend's program-order
//! recording goes through). A disabled recorder ([`CausalRecorder::off`]) is
//! a one-branch no-op, preserving the pure observer contract the
//! differential suites pin.
//!
//! [`CausalGraph`] (a snapshot of the ring) answers the two questions the
//! paper's latency claims raise: *which chain of events was the measured
//! critical path* ([`CausalGraph::critical_path`], per phase via
//! [`CausalGraph::phase_critical_paths`]) and *who is to blame for a
//! wedge* ([`CausalGraph::blame`]). [`CausalGraph::to_flight_json`]
//! serializes the ring as a replayable dump in the same artifact shape as
//! the audit's counterexamples (`program`/`n`/`kind`/`events`/`stuck`);
//! [`FlightDump::parse`] reads one back and [`FlightDump::replay`]
//! validates its causal structure.

use crate::export::json_escape;
use crate::json;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};

/// Globally unique event identity: the `seq`-th event recorded by `pid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    pub pid: u32,
    pub seq: u32,
}

/// One recorded causal event.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalEvent {
    pub id: EventId,
    /// Timestamp in the recorder's time domain (virtual units or seconds).
    pub at: f64,
    /// Action or fault label (`fault:*` labels render as `"type":"fault"`).
    pub label: String,
    /// Barrier phase the event belongs to, when the backend knows it.
    pub phase: Option<u32>,
    /// Happens-before predecessors (program order, reads, deliveries).
    pub preds: Vec<EventId>,
}

/// An event's predecessor list as the ring stores it: program order plus
/// one delivery — the common case — fits inline; more spill to the heap.
enum Preds {
    Inline { len: u8, ids: [EventId; 2] },
    Heap(Vec<EventId>),
}

impl Preds {
    /// The `n` ids `from` yields, in order.
    fn collect(n: usize, from: impl Iterator<Item = EventId>) -> Preds {
        if n > 2 {
            return Preds::Heap(from.collect());
        }
        let mut ids = [EventId { pid: 0, seq: 0 }; 2];
        let mut len = 0;
        for (slot, id) in ids.iter_mut().zip(from) {
            *slot = id;
            len += 1;
        }
        Preds::Inline { len, ids }
    }

    fn as_slice(&self) -> &[EventId] {
        match self {
            Preds::Inline { len, ids } => &ids[..*len as usize],
            Preds::Heap(v) => v,
        }
    }

    fn sort_dedup(&mut self) {
        match self {
            Preds::Inline { len, ids } => {
                if *len == 2 {
                    if ids[0] > ids[1] {
                        ids.swap(0, 1);
                    }
                    if ids[0] == ids[1] {
                        *len = 1;
                    }
                }
            }
            Preds::Heap(v) => {
                v.sort_unstable();
                v.dedup();
            }
        }
    }
}

/// A [`CausalEvent`] as the ring stores it.
struct Slot {
    id: EventId,
    at: f64,
    label: Cow<'static, str>,
    phase: Option<u32>,
    preds: Preds,
}

struct CausalInner {
    capacity: usize,
    /// Allocated at `capacity` up front; never grows.
    events: VecDeque<Slot>,
    /// `seq` of each pid's most recent event, indexed by pid; 0 means the
    /// pid has recorded nothing yet (a live `seq` is never 0).
    last_seq: Vec<u32>,
    dropped: u64,
}

impl CausalInner {
    fn last(&self, pid: u32) -> Option<EventId> {
        match self.last_seq.get(pid as usize) {
            Some(&seq) if seq != 0 => Some(EventId { pid, seq }),
            _ => None,
        }
    }

    fn push(
        &mut self,
        pid: u32,
        label: Cow<'static, str>,
        at: f64,
        phase: Option<u32>,
        preds: Preds,
    ) -> EventId {
        if self.last_seq.len() <= pid as usize {
            self.last_seq.resize(pid as usize + 1, 0);
        }
        let last = &mut self.last_seq[pid as usize];
        // 2^32 events on one seat is days, not years, for an always-on
        // recorder: wrap past 0, which stays the "no event yet" marker.
        *last = match last.wrapping_add(1) {
            0 => 1,
            seq => seq,
        };
        let id = EventId { pid, seq: *last };
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(Slot {
            id,
            at,
            label,
            phase,
            preds,
        });
        id
    }
}

/// Cloneable, thread-safe handle to a bounded causal event ring.
///
/// Mirrors [`crate::Telemetry`]: [`CausalRecorder::off`] is a no-op
/// observer whose every method is a single `None` branch.
#[derive(Clone)]
pub struct CausalRecorder {
    inner: Option<Arc<Mutex<CausalInner>>>,
}

impl CausalRecorder {
    /// The disabled recorder: records nothing, costs one branch.
    pub fn off() -> CausalRecorder {
        CausalRecorder { inner: None }
    }

    /// A recording ring keeping the most recent `capacity` events.
    pub fn bounded(capacity: usize) -> CausalRecorder {
        assert!(capacity > 0, "flight recorder needs capacity >= 1");
        CausalRecorder {
            inner: Some(Arc::new(Mutex::new(CausalInner {
                capacity,
                events: VecDeque::with_capacity(capacity),
                last_seq: Vec::new(),
                dropped: 0,
            }))),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The ring, locked; `None` when off.
    fn lock(&self) -> Option<MutexGuard<'_, CausalInner>> {
        let inner = self.inner.as_ref()?;
        Some(inner.lock().expect("a thread panicked mid-record"))
    }

    /// Record one event for `pid` and return its id (`None` when off).
    /// `preds` may contain duplicates or ids evicted from the ring; both
    /// are preserved verbatim (analysis ignores refs it cannot resolve).
    pub fn record(
        &self,
        pid: usize,
        label: impl Into<Cow<'static, str>>,
        at: f64,
        phase: Option<u32>,
        preds: &[EventId],
    ) -> Option<EventId> {
        let mut g = self.lock()?;
        Some(g.push(
            pid as u32,
            label.into(),
            at,
            phase,
            Preds::collect(preds.len(), preds.iter().copied()),
        ))
    }

    /// Record `pid`'s next event in program order: its predecessors are
    /// `pid`'s own previous event plus `deliveries` (the events whose
    /// effects it absorbed since), sorted and deduplicated. One lock; no
    /// allocation for a `&'static str` label and at most two predecessors.
    pub fn record_next(
        &self,
        pid: usize,
        label: impl Into<Cow<'static, str>>,
        at: f64,
        phase: Option<u32>,
        deliveries: &[EventId],
    ) -> Option<EventId> {
        let mut g = self.lock()?;
        let own = g.last(pid as u32);
        let mut preds = Preds::collect(
            own.is_some() as usize + deliveries.len(),
            own.into_iter().chain(deliveries.iter().copied()),
        );
        preds.sort_dedup();
        Some(g.push(pid as u32, label.into(), at, phase, preds))
    }

    /// The most recent event id recorded by `pid` (`None` when off or when
    /// `pid` has recorded nothing yet).
    pub fn last(&self, pid: usize) -> Option<EventId> {
        self.lock()?.last(pid as u32)
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.lock().map_or(0, |g| g.dropped)
    }

    /// Snapshot the ring for analysis. Empty graph when off.
    pub fn snapshot(&self) -> CausalGraph {
        match self.lock() {
            None => CausalGraph {
                events: Vec::new(),
                dropped: 0,
            },
            Some(g) => CausalGraph {
                events: g
                    .events
                    .iter()
                    .map(|s| CausalEvent {
                        id: s.id,
                        at: s.at,
                        label: s.label.to_string(),
                        phase: s.phase,
                        preds: s.preds.as_slice().to_vec(),
                    })
                    .collect(),
                dropped: g.dropped,
            },
        }
    }
}

/// The longest happens-before chain found in a [`CausalGraph`].
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Number of events on the chain (vertex count — directly comparable
    /// to the static `SweepDag::critical_path()` position count).
    pub len: usize,
    /// Timestamp span from the chain's first to its last event.
    pub elapsed: f64,
    /// The chain itself, in causal order.
    pub chain: Vec<EventId>,
}

/// An immutable snapshot of a [`CausalRecorder`]'s ring.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalGraph {
    /// Events in record order (predecessors always precede successors).
    pub events: Vec<CausalEvent>,
    /// Events evicted before this snapshot was taken.
    pub dropped: u64,
}

impl CausalGraph {
    /// Longest chain over the whole graph. Edges whose source was evicted
    /// from the ring are ignored (the chain restarts at the survivor).
    pub fn critical_path(&self) -> CriticalPath {
        self.longest_chain(|_| true)
    }

    /// Longest chain within each phase-labeled subgraph: only events with
    /// `phase == Some(k)` participate in phase `k`'s chain.
    pub fn phase_critical_paths(&self) -> BTreeMap<u32, CriticalPath> {
        let mut phases: Vec<u32> = self.events.iter().filter_map(|e| e.phase).collect();
        phases.sort_unstable();
        phases.dedup();
        phases
            .into_iter()
            .map(|ph| (ph, self.longest_chain(|e| e.phase == Some(ph))))
            .collect()
    }

    /// Longest chain among events with timestamps in `[t0, t1]` — the
    /// measured critical path of one episode (e.g. a recovery window).
    pub fn critical_path_between(&self, t0: f64, t1: f64) -> CriticalPath {
        self.longest_chain(|e| e.at >= t0 && e.at <= t1)
    }

    fn longest_chain(&self, keep: impl Fn(&CausalEvent) -> bool) -> CriticalPath {
        // Record order is a topological order: an event's predecessors were
        // recorded (strictly) before it, so one forward pass suffices.
        let mut index: BTreeMap<EventId, usize> = BTreeMap::new();
        let mut depth: Vec<usize> = Vec::with_capacity(self.events.len());
        let mut parent: Vec<Option<usize>> = Vec::with_capacity(self.events.len());
        let mut best: Option<usize> = None;
        for (i, e) in self.events.iter().enumerate() {
            if !keep(e) {
                depth.push(0);
                parent.push(None);
                continue;
            }
            let mut d = 1usize;
            let mut p = None;
            for pred in &e.preds {
                if let Some(&j) = index.get(pred) {
                    if depth[j] > 0 && depth[j] + 1 > d {
                        d = depth[j] + 1;
                        p = Some(j);
                    }
                }
            }
            depth.push(d);
            parent.push(p);
            index.insert(e.id, i);
            // Ties keep the earlier sink: deterministic across runs.
            if best.is_none_or(|b| d > depth[b]) {
                best = Some(i);
            }
        }
        let Some(mut i) = best else {
            return CriticalPath {
                len: 0,
                elapsed: 0.0,
                chain: Vec::new(),
            };
        };
        let mut chain = vec![self.events[i].id];
        let end_at = self.events[i].at;
        while let Some(j) = parent[i] {
            chain.push(self.events[j].id);
            i = j;
        }
        chain.reverse();
        CriticalPath {
            len: chain.len(),
            elapsed: end_at - self.events[i].at,
            chain,
        }
    }

    /// Fraction of a chain's events contributed by each pid, sorted by
    /// descending share then ascending pid. Shares sum to 1 (empty chain
    /// yields an empty vector).
    pub fn attribution(&self, path: &CriticalPath) -> Vec<(u32, f64)> {
        if path.chain.is_empty() {
            return Vec::new();
        }
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for id in &path.chain {
            *counts.entry(id.pid).or_insert(0) += 1;
        }
        let total = path.chain.len() as f64;
        let mut shares: Vec<(u32, f64)> = counts
            .into_iter()
            .map(|(pid, c)| (pid, c as f64 / total))
            .collect();
        shares.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        shares
    }

    /// The process most likely blocking progress among pids `0..n`: the
    /// one that went silent first. A pid with no events at all is blamed
    /// before any pid with events; ties break to the lowest pid. `None`
    /// only when `n == 0`.
    pub fn blame(&self, n: usize) -> Option<u32> {
        if n == 0 {
            return None;
        }
        let mut latest: Vec<Option<f64>> = vec![None; n];
        for e in &self.events {
            let pid = e.id.pid as usize;
            if pid < n {
                let slot = &mut latest[pid];
                *slot = Some(slot.map_or(e.at, |t: f64| t.max(e.at)));
            }
        }
        let mut best: Option<(u32, Option<f64>)> = None;
        for (pid, &t) in latest.iter().enumerate() {
            let candidate = (pid as u32, t);
            let wins = match &best {
                None => true,
                Some((_, bt)) => match (t, bt) {
                    (None, Some(_)) => true,
                    (Some(a), Some(b)) => a < *b,
                    _ => false,
                },
            };
            if wins {
                best = Some(candidate);
            }
        }
        best.map(|(pid, _)| pid)
    }

    /// Serialize the ring as a replayable flight-recorder dump,
    /// audit-counterexample compatible: same `program`/`n`/`kind`/
    /// `events[].type`/`stuck` top-level shape, with causal `seq`/`at`/
    /// `phase`/`preds` fields on each event and a `blamed` verdict.
    pub fn to_flight_json(&self, program: &str, n: usize, kind: &str, reason: &str) -> String {
        let blamed = self.blame(n);
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"flightrec/v1\",");
        let _ = writeln!(out, "  \"program\": \"{}\",", json_escape(program));
        let _ = writeln!(out, "  \"n\": {n},");
        let _ = writeln!(out, "  \"kind\": \"{}\",", json_escape(kind));
        let _ = writeln!(out, "  \"reason\": \"{}\",", json_escape(reason));
        match blamed {
            Some(pid) => {
                let _ = writeln!(out, "  \"blamed\": {pid},");
            }
            None => {
                let _ = writeln!(out, "  \"blamed\": null,");
            }
        }
        let _ = writeln!(out, "  \"dropped\": {},", self.dropped);
        out.push_str("  \"events\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            let comma = if i + 1 < self.events.len() { "," } else { "" };
            let ty = if e.label.starts_with("fault") {
                "fault"
            } else {
                "action"
            };
            let phase = e.phase.map_or("null".to_owned(), |p| p.to_string());
            let mut preds = String::from("[");
            for (j, p) in e.preds.iter().enumerate() {
                if j > 0 {
                    preds.push_str(", ");
                }
                let _ = write!(preds, "[{}, {}]", p.pid, p.seq);
            }
            preds.push(']');
            let _ = writeln!(
                out,
                "    {{\"type\": \"{ty}\", \"pid\": {}, \"seq\": {}, \"at\": {}, \
                 \"name\": \"{}\", \"phase\": {phase}, \"preds\": {preds}}}{comma}",
                e.id.pid,
                e.id.seq,
                fmt_f64(e.at),
                json_escape(&e.label),
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"stuck\": [");
        if let Some(pid) = blamed {
            let _ = write!(out, "\"p{pid} silent\"");
        }
        out.push_str("]\n}\n");
        out
    }
}

impl CausalGraph {
    /// One graph out of per-pid event lists, each in its pid's record order
    /// — the snapshot of a recorder that keeps one ring per pid so that
    /// recording shares nothing between pids. The result is in a record
    /// order a single ring could have produced: an event comes after every
    /// predecessor present in `rings`, whatever the timestamps say (logical
    /// clocks tie across pids all the time). Among the events free to go
    /// next the earliest timestamp wins, then the lowest list index, so the
    /// merge is deterministic. A predecessor cycle — no real recording has
    /// one — is broken at the earliest pending event rather than looped on.
    pub fn merge(rings: Vec<Vec<CausalEvent>>, dropped: u64) -> CausalGraph {
        // Every event present, and whether it has been emitted yet.
        let mut emitted: BTreeMap<EventId, bool> = rings
            .iter()
            .flatten()
            .map(|event| (event.id, false))
            .collect();
        let mut events = Vec::with_capacity(rings.iter().map(Vec::len).sum());
        let mut heads: Vec<_> = rings
            .into_iter()
            .map(|ring| ring.into_iter().peekable())
            .collect();
        loop {
            let next = heads
                .iter_mut()
                .enumerate()
                .filter_map(|(ring, head)| {
                    let event = head.peek()?;
                    let blocked = event
                        .preds
                        .iter()
                        .any(|pred| emitted.get(pred) == Some(&false));
                    Some((blocked, event.at, ring))
                })
                .min_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
            let Some((_, _, ring)) = next else {
                return CausalGraph { events, dropped };
            };
            let event = heads[ring].next().expect("peeked above");
            emitted.insert(event.id, true);
            events.push(event);
        }
    }
}

/// Render an `f64` for JSON without losing precision on integers.
fn fmt_f64(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// A parsed flight-recorder dump.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    pub program: String,
    pub n: usize,
    pub kind: String,
    pub reason: String,
    pub blamed: Option<u32>,
    pub dropped: u64,
    pub graph: CausalGraph,
}

impl FlightDump {
    /// Parse and structurally validate a `flightrec/v1` document.
    pub fn parse(input: &str) -> Result<FlightDump, String> {
        let v = json::parse(input).map_err(|e| e.to_string())?;
        let obj = v.as_object().ok_or("top level must be an object")?;
        let schema = obj
            .get("schema")
            .and_then(|s| s.as_str())
            .ok_or("missing schema")?;
        if schema != "flightrec/v1" {
            return Err(format!("unknown schema {schema:?}"));
        }
        let str_field = |k: &str| -> Result<String, String> {
            obj.get(k)
                .and_then(|s| s.as_str())
                .map(str::to_owned)
                .ok_or_else(|| format!("missing string field {k:?}"))
        };
        let n = obj.get("n").and_then(|x| x.as_f64()).ok_or("missing n")? as usize;
        let blamed = match obj.get("blamed") {
            Some(json::Value::Number(p)) => Some(*p as u32),
            _ => None,
        };
        let dropped = obj.get("dropped").and_then(|x| x.as_f64()).unwrap_or(0.0) as u64;
        let raw_events = obj
            .get("events")
            .and_then(|e| e.as_array())
            .ok_or("missing events array")?;
        let mut events = Vec::with_capacity(raw_events.len());
        for (i, ev) in raw_events.iter().enumerate() {
            let num = |k: &str| -> Result<f64, String> {
                ev.get(k)
                    .and_then(|x| x.as_f64())
                    .ok_or_else(|| format!("event {i}: missing {k:?}"))
            };
            let mut preds = Vec::new();
            for p in ev
                .get("preds")
                .and_then(|p| p.as_array())
                .ok_or_else(|| format!("event {i}: missing preds"))?
            {
                let pair = p.as_array().ok_or_else(|| format!("event {i}: bad pred"))?;
                if pair.len() != 2 {
                    return Err(format!("event {i}: pred is not a [pid, seq] pair"));
                }
                preds.push(EventId {
                    pid: pair[0].as_f64().ok_or("bad pred pid")? as u32,
                    seq: pair[1].as_f64().ok_or("bad pred seq")? as u32,
                });
            }
            events.push(CausalEvent {
                id: EventId {
                    pid: num("pid")? as u32,
                    seq: num("seq")? as u32,
                },
                at: num("at")?,
                label: ev
                    .get("name")
                    .and_then(|s| s.as_str())
                    .ok_or_else(|| format!("event {i}: missing name"))?
                    .to_owned(),
                phase: ev.get("phase").and_then(|p| p.as_f64()).map(|p| p as u32),
                preds,
            });
        }
        Ok(FlightDump {
            program: str_field("program")?,
            n,
            kind: str_field("kind")?,
            reason: str_field("reason")?,
            blamed,
            dropped,
            graph: CausalGraph { events, dropped },
        })
    }

    /// Replay-validate the dump's causal structure: per-pid `seq` strictly
    /// increasing, every resolvable predecessor recorded earlier than its
    /// successor, timestamps non-decreasing along every resolvable edge.
    pub fn replay(&self) -> Result<(), String> {
        let mut seen: BTreeMap<EventId, (usize, f64)> = BTreeMap::new();
        let mut last_seq: BTreeMap<u32, u32> = BTreeMap::new();
        for (i, e) in self.graph.events.iter().enumerate() {
            if let Some(&prev) = last_seq.get(&e.id.pid) {
                if e.id.seq <= prev {
                    return Err(format!(
                        "p{} seq regressed: {} after {}",
                        e.id.pid, e.id.seq, prev
                    ));
                }
            }
            last_seq.insert(e.id.pid, e.id.seq);
            for p in &e.preds {
                if let Some(&(j, at)) = seen.get(p) {
                    if j >= i {
                        return Err(format!("event {i}: pred recorded later"));
                    }
                    if at > e.at + 1e-9 {
                        return Err(format!(
                            "event {i} at {} precedes its predecessor at {at}",
                            e.at
                        ));
                    }
                }
                // Unresolvable preds are fine: evicted from the ring.
            }
            seen.insert(e.id, (i, e.at));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(pid: u32, seq: u32) -> EventId {
        EventId { pid, seq }
    }

    #[test]
    fn off_recorder_is_a_no_op() {
        let r = CausalRecorder::off();
        assert!(!r.is_enabled());
        assert_eq!(r.record(0, "x", 0.0, None, &[]), None);
        assert_eq!(r.last(0), None);
        assert_eq!(r.snapshot().events.len(), 0);
    }

    #[test]
    fn per_pid_seq_and_last_tracking() {
        let r = CausalRecorder::bounded(16);
        let a = r.record(0, "a", 0.0, None, &[]).unwrap();
        let b = r.record(1, "b", 0.1, None, &[a]).unwrap();
        let c = r.record(0, "c", 0.2, None, &[a, b]).unwrap();
        assert_eq!(a, id(0, 1));
        assert_eq!(b, id(1, 1));
        assert_eq!(c, id(0, 2));
        assert_eq!(r.last(0), Some(c));
        assert_eq!(r.last(1), Some(b));
        let g = r.snapshot();
        assert_eq!(g.events.len(), 3);
        assert_eq!(g.events[2].preds, vec![a, b]);
    }

    #[test]
    fn record_next_links_program_order_and_deliveries() {
        let r = CausalRecorder::bounded(16);
        let a = r.record_next(0, "a", 0.0, None, &[]).unwrap();
        let b = r.record_next(1, "b", 0.1, None, &[a, a]).unwrap();
        // Own previous event first in sort order or not, duplicates or
        // not, inline (<= 2) or spilled (> 2): always sorted and deduped.
        let c = r.record_next(0, "c", 0.2, None, &[b]).unwrap();
        let d = r
            .record_next(1, "d", 0.3, None, &[c, id(7, 7), a, c])
            .unwrap();
        assert_eq!(r.last(1), Some(d));
        let g = r.snapshot();
        assert_eq!(g.events[0].preds, vec![]);
        assert_eq!(g.events[1].preds, vec![a]);
        assert_eq!(g.events[2].preds, vec![a, b]);
        assert_eq!(g.events[3].preds, vec![a, c, b, id(7, 7)]);
        assert_eq!(
            CausalRecorder::off().record_next(0, "x", 0.0, None, &[a]),
            None
        );
    }

    /// An always-on recorder reaches 2^32 events on one seat in days; the
    /// wrap skips 0, which marks "no event yet" in the pid-indexed vector.
    #[test]
    fn seq_wraps_past_zero() {
        let r = CausalRecorder::bounded(8);
        r.lock().unwrap().last_seq = vec![0, u32::MAX - 1];
        let a = r.record_next(1, "a", 0.0, None, &[]).unwrap();
        let b = r.record_next(1, "b", 1.0, None, &[]).unwrap();
        let c = r.record_next(1, "c", 2.0, None, &[]).unwrap();
        assert_eq!([a, b, c], [id(1, u32::MAX), id(1, 1), id(1, 2)]);
        assert_eq!(r.last(1), Some(c));
        assert_eq!(r.last(0), None, "a seat that never recorded stays empty");
        let g = r.snapshot();
        assert_eq!(g.events[0].preds, vec![id(1, u32::MAX - 1)]);
        assert_eq!(g.events[1].preds, vec![a]);
        assert_eq!(g.events[2].preds, vec![b]);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let r = CausalRecorder::bounded(2);
        r.record(0, "a", 0.0, None, &[]);
        r.record(0, "b", 1.0, None, &[]);
        r.record(0, "c", 2.0, None, &[]);
        assert_eq!(r.dropped(), 1);
        let g = r.snapshot();
        assert_eq!(g.events.len(), 2);
        assert_eq!(g.events[0].label, "b");
        // Seq numbering survives eviction.
        assert_eq!(g.events[1].id, id(0, 3));
    }

    #[test]
    fn merge_puts_predecessors_first_whatever_the_timestamps() {
        let ev = |pid, seq, at, preds: &[EventId]| CausalEvent {
            id: id(pid, seq),
            at,
            label: "e".to_owned(),
            phase: None,
            preds: preds.to_vec(),
        };
        // One crossing under a logical clock: every event carries the same
        // timestamp. pid 0 consumes both arrivals and releases; pids 1 and 2
        // leave on that release. (9, 9) was evicted from its ring.
        let rings = vec![
            vec![
                ev(0, 1, 1.0, &[id(1, 1), id(2, 1)]),
                ev(0, 2, 1.0, &[id(0, 1)]),
            ],
            vec![ev(1, 1, 1.0, &[]), ev(1, 2, 1.0, &[id(0, 2), id(1, 1)])],
            vec![
                ev(2, 1, 1.0, &[id(9, 9)]),
                ev(2, 2, 1.0, &[id(0, 2), id(2, 1)]),
            ],
        ];
        let g = CausalGraph::merge(rings.clone(), 3);
        let order: Vec<EventId> = g.events.iter().map(|e| e.id).collect();
        // Sorting on (timestamp, pid) would have put (0, 1) first.
        assert_eq!(
            order,
            [id(1, 1), id(2, 1), id(0, 1), id(0, 2), id(1, 2), id(2, 2)]
        );
        assert_eq!(g.dropped, 3);
        assert_eq!(g.critical_path().len, 4);
        FlightDump::parse(&g.to_flight_json("p", 3, "snapshot", "t"))
            .expect("parses")
            .replay()
            .expect("every predecessor precedes its successor");
        // Where the predecessors allow it, the earlier timestamp goes first.
        let mut late = rings;
        late[1][0].at = 0.5;
        late[2][0].at = 0.25;
        let g = CausalGraph::merge(late, 0);
        assert_eq!(g.events[0].id, id(2, 1));
        assert_eq!(g.events[1].id, id(1, 1));
        // A garbled input with a cycle still comes out whole.
        let cyclic = vec![
            vec![ev(0, 1, 2.0, &[id(1, 1)])],
            vec![ev(1, 1, 1.0, &[id(0, 1)])],
        ];
        let g = CausalGraph::merge(cyclic, 0);
        assert_eq!(g.events.len(), 2);
        assert_eq!(g.events[0].id, id(1, 1));
    }

    #[test]
    fn critical_path_follows_the_longest_chain() {
        let r = CausalRecorder::bounded(64);
        // Chain on pid 0 of length 3; a lone event on pid 1.
        let a = r.record(0, "a", 0.0, Some(0), &[]).unwrap();
        r.record(1, "x", 0.0, Some(0), &[]).unwrap();
        let b = r.record(0, "b", 1.0, Some(0), &[a]).unwrap();
        let c = r.record(0, "c", 2.0, Some(0), &[b]).unwrap();
        let g = r.snapshot();
        let p = g.critical_path();
        assert_eq!(p.len, 3);
        assert_eq!(p.chain, vec![a, b, c]);
        assert!((p.elapsed - 2.0).abs() < 1e-12);
        let shares = g.attribution(&p);
        assert_eq!(shares, vec![(0, 1.0)]);
    }

    #[test]
    fn phase_paths_are_per_phase_subgraphs() {
        let r = CausalRecorder::bounded(64);
        let a = r.record(0, "a", 0.0, Some(0), &[]).unwrap();
        let b = r.record(1, "b", 1.0, Some(0), &[a]).unwrap();
        // Phase 1 event chained to phase 0: the cross-phase edge must not
        // extend phase 1's path.
        r.record(0, "c", 2.0, Some(1), &[b]).unwrap();
        let g = r.snapshot();
        let by_phase = g.phase_critical_paths();
        assert_eq!(by_phase[&0].len, 2);
        assert_eq!(by_phase[&1].len, 1);
    }

    #[test]
    fn evicted_predecessors_restart_the_chain() {
        let r = CausalRecorder::bounded(2);
        let a = r.record(0, "a", 0.0, None, &[]).unwrap();
        let b = r.record(0, "b", 1.0, None, &[a]).unwrap();
        let c = r.record(0, "c", 2.0, None, &[b]).unwrap();
        let d = r.record(0, "d", 3.0, None, &[c]).unwrap();
        // Ring holds only c, d; the chain is length 2, not 4.
        let p = r.snapshot().critical_path();
        assert_eq!(p.len, 2);
        assert_eq!(p.chain, vec![c, d]);
        let _ = (a, b);
    }

    #[test]
    fn blame_prefers_silent_then_stalest() {
        let r = CausalRecorder::bounded(64);
        r.record(0, "a", 5.0, None, &[]);
        r.record(1, "b", 1.0, None, &[]);
        r.record(2, "c", 9.0, None, &[]);
        let g = r.snapshot();
        // All three spoke: pid 1 went silent first.
        assert_eq!(g.blame(3), Some(1));
        // With n=4, pid 3 never spoke at all and is blamed instead.
        assert_eq!(g.blame(4), Some(3));
        assert_eq!(g.blame(0), None);
    }

    #[test]
    fn flight_dump_round_trips_and_replays() {
        let r = CausalRecorder::bounded(8);
        let a = r.record(0, "tok", 0.5, Some(2), &[]).unwrap();
        r.record(1, "fault:detectable", 0.75, Some(2), &[a, id(9, 9)]);
        let g = r.snapshot();
        let json_text = g.to_flight_json("sweep/tree", 3, "wedge", "max_time");
        let dump = FlightDump::parse(&json_text).expect("parses");
        assert_eq!(dump.program, "sweep/tree");
        assert_eq!(dump.n, 3);
        assert_eq!(dump.kind, "wedge");
        assert_eq!(dump.reason, "max_time");
        // pid 2 never spoke → blamed.
        assert_eq!(dump.blamed, Some(2));
        assert_eq!(dump.graph.events.len(), 2);
        assert_eq!(dump.graph.events[1].label, "fault:detectable");
        assert_eq!(dump.graph.events[1].preds, vec![a, id(9, 9)]);
        dump.replay().expect("replays");
        // And the audit-compatible keys are in place.
        let v = json::parse(&json_text).unwrap();
        assert_eq!(
            v.get("events").unwrap().as_array().unwrap()[1]
                .get("type")
                .unwrap()
                .as_str(),
            Some("fault")
        );
        assert!(v.get("stuck").unwrap().as_array().is_some());
    }

    #[test]
    fn replay_rejects_corrupted_dumps() {
        let r = CausalRecorder::bounded(8);
        r.record(0, "a", 0.0, None, &[]);
        r.record(0, "b", 1.0, None, &[]);
        let text = r.snapshot().to_flight_json("x", 1, "wedge", "test");
        // Swap the two seqs: per-pid monotonicity must fail.
        let broken =
            text.replacen("\"seq\": 1", "\"seq\": 9", 1)
                .replacen("\"seq\": 2", "\"seq\": 1", 1);
        let dump = FlightDump::parse(&broken).expect("still parses");
        assert!(dump.replay().is_err());
    }

    #[test]
    fn dumps_are_deterministic() {
        let build = || {
            let r = CausalRecorder::bounded(16);
            let a = r.record(0, "a", 0.25, Some(0), &[]).unwrap();
            r.record(1, "b", 0.5, Some(0), &[a]);
            r.snapshot().to_flight_json("p", 2, "wedge", "r")
        };
        assert_eq!(build(), build());
    }
}
