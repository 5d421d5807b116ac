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
//! always bounded ([`CausalRecorder::bounded`]), one lane per pid, and each
//! lane keeps only its own most recent share of `capacity` events (evicting
//! its oldest and counting drops), so a pid that falls silent keeps its
//! last events however busy the others are. A lane has one writer, the
//! pid's own recording thread, and the per-event cost is a contract: no
//! lock on [`CausalRecorder::record`], [`CausalRecorder::record_next`] or
//! [`CausalRecorder::last`], none shared between pids, and zero allocations
//! per event once a lane's storage exists. A lane is a power-of-two ring of
//! slots made of atomic words, each slot guarded by a version word (a
//! seqlock), so a snapshot taken while the lane records skips a slot being
//! written instead of tearing it; predecessor lists longer than the inline
//! two go to the lane's spill ring; the lane publishes one word naming its
//! latest event; and storage is committed as the lane fills. Labels are
//! `&'static str`, interned per recorder the first time a lane meets them —
//! the one lock left. A disabled recorder ([`CausalRecorder::off`]) is a
//! one-branch no-op, preserving the pure observer contract the differential
//! suites pin.
//!
//! [`CausalGraph`] (a snapshot of the lanes, merged predecessors-first by
//! [`CausalGraph::merge`]) answers the two questions the
//! paper's latency claims raise: *which chain of events was the measured
//! critical path* ([`CausalGraph::critical_path`], per phase via
//! [`CausalGraph::phase_critical_paths`]) and *who is to blame for a
//! wedge* ([`CausalGraph::blame`]). [`CausalGraph::to_flight_json`]
//! serializes the snapshot as a replayable dump in the same artifact shape as
//! the audit's counterexamples (`program`/`n`/`kind`/`events`/`stuck`);
//! [`FlightDump::parse`] reads one back and [`FlightDump::replay`]
//! validates its causal structure.

use crate::export::json_escape;
use crate::json;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

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

/// Values a lane's storage commits first; each later segment doubles what
/// the lane holds, so it never commits more than twice what it recorded.
const FIRST_SEGMENT: usize = 16;

/// `len` (a power of two, at least [`FIRST_SEGMENT`]) default values,
/// committed a segment at a time as indices are first reached: segment 0
/// holds `FIRST_SEGMENT` values, segment `j ≥ 1` holds
/// `FIRST_SEGMENT << (j - 1)`. Nothing ever moves, so a reader that takes
/// no lock finds a value where its writer left it.
#[derive(Default)]
struct Segments<T>(Box<[OnceLock<Box<[T]>>]>);

impl<T: Default> Segments<T> {
    fn new(len: usize) -> Segments<T> {
        let count = (len / FIRST_SEGMENT).trailing_zeros() as usize + 1;
        Segments((0..count).map(|_| OnceLock::new()).collect())
    }

    /// The segment holding index `i`, and `i`'s offset in it.
    fn locate(i: u64) -> (usize, usize) {
        let segment = (u64::BITS - (i / FIRST_SEGMENT as u64).leading_zeros()) as usize;
        let start = (FIRST_SEGMENT << segment >> 1) * usize::from(segment > 0);
        (segment, i as usize - start)
    }

    /// The value at `i`, if its segment is committed.
    fn get(&self, i: u64) -> Option<&T> {
        let (segment, offset) = Self::locate(i);
        self.0[segment].get().map(|values| &values[offset])
    }

    /// The values from `i` to the end of its segment, committing the
    /// segment first if need be: the only allocation a lane makes.
    fn grow_from(&self, i: u64) -> &[T] {
        let (segment, offset) = Self::locate(i);
        let len = FIRST_SEGMENT << segment.saturating_sub(1);
        &self.0[segment].get_or_init(|| (0..len).map(|_| T::default()).collect())[offset..]
    }
}

/// One event in a lane, as atomic words.
#[derive(Default)]
struct Slot {
    /// `2k + 1` while the lane's `k`-th event is written, `2k + 2` once it
    /// is whole: a reader keeps what it read only if the version read the
    /// same, and whole, before and after (a seqlock).
    version: AtomicU64,
    /// The timestamp's bits.
    at: AtomicU64,
    /// `label << 32 | seq`.
    seq_label: AtomicU64,
    /// `spilled << 63 | preds << 33 | has_phase << 32 | phase`.
    shape: AtomicU64,
    /// The spill ring's position when the event was recorded: where its
    /// list starts, if it spilled.
    spill_at: AtomicU64,
    /// The predecessors, unless they spilled.
    preds: [AtomicU64; 2],
}

const SPILLED: u64 = 1 << 63;
const HAS_PHASE: u64 = 1 << 32;

/// `pid << 32 | seq`.
fn pack(id: EventId) -> u64 {
    u64::from(id.pid) << 32 | u64::from(id.seq)
}

fn unpack(word: u64) -> EventId {
    let (pid, seq) = ((word >> 32) as u32, word as u32);
    EventId { pid, seq }
}

/// Slots in a lane's label cache (a power of two).
const LABEL_CACHE: usize = 32;

/// A `record_next` list up to this long is sorted on the stack; a longer
/// one by repeated minimum.
const ON_STACK: usize = 16;

/// One pid's events. Only the pid's recording thread writes a lane; any
/// thread reads it.
///
/// Orderings: the writer stores a slot's words, then its version
/// (Release), then `head` and `last` (Release), so a reader that loads a
/// version, `head` or `last` with Acquire sees every word stored before
/// it. Before overwriting anything, the writer publishes the spill ring's
/// advance, and the odd version, each followed by a Release fence; a
/// reader re-checks both after an Acquire fence and drops the event if
/// either moved past it (the seqlock pairing). Fields that are the
/// writer's own are read by no other thread and use Relaxed.
#[derive(Default)]
#[repr(align(128))]
struct Lane {
    /// `at << 32 | seq` of the latest event, 0 before the first: its `seq`
    /// and the low 32 bits of its timestamp's integer part.
    last: AtomicU64,
    /// Events recorded so far.
    head: AtomicU64,
    slots: Segments<Slot>,
    /// Predecessor lists longer than a slot holds, one after another.
    spill: Segments<AtomicU64>,
    /// Words the spill ring has taken so far: a list that starts at `s`
    /// is whole while this is at most `s` plus the ring's length.
    spilled: AtomicU64,
    /// Label addresses and `len << 32 | id`s (the writer's own).
    labels: [(AtomicUsize, AtomicU64); LABEL_CACHE],
    /// Set while an event is written; checked in debug builds only.
    writing: AtomicBool,
}

struct Lanes {
    lanes: Box<[Lane]>,
    /// Events a lane keeps: the capacity, shared out evenly.
    keep: u64,
    slot_mask: u64,
    spill_mask: u64,
    /// The one lock: taken the first time a lane meets a label, and to
    /// name labels in a snapshot. `names[id]` is the label interned as
    /// `id`.
    labels: Mutex<(Vec<&'static str>, HashMap<&'static str, u32>)>,
}

/// The ids `own` and `preds` name, packed, ascending, each once, without
/// a buffer: each id costs a pass over the list, which is cheap for the
/// short lists backends record in program order.
fn ascending<'a>(own: Option<EventId>, preds: &'a [EventId]) -> impl Iterator<Item = u64> + 'a {
    let mut prev = None;
    std::iter::from_fn(move || {
        let words = own.iter().chain(preds).map(|&id| pack(id));
        prev = words.filter(|&word| Some(word) > prev).min();
        prev
    })
}

impl Lanes {
    fn lane(&self, pid: usize) -> &Lane {
        let lanes = self.lanes.len();
        (self.lanes.get(pid))
            .unwrap_or_else(|| panic!("pid {pid} has no lane: the recorder has {lanes}"))
    }

    /// Record `pid`'s next event. `list` gets the lane's previous event and
    /// gives the predecessors: how many there are, and the ids packed. The
    /// list is cut at the spill ring's length.
    fn write<I: Iterator<Item = u64>>(
        &self,
        pid: usize,
        label: &'static str,
        (at, phase): (f64, Option<u32>),
        list: impl FnOnce(Option<EventId>) -> (usize, I),
    ) -> EventId {
        let lane = self.lane(pid);
        debug_assert!(
            !lane.writing.swap(true, Ordering::Acquire),
            "two threads record into pid {pid}'s lane at once"
        );
        let label = self.label_id(lane, label);
        let last = lane.last.load(Ordering::Relaxed) as u32;
        // 2^32 events on one pid is days, not years, for an always-on
        // recorder: wrap past 0, which stays the "no event yet" marker.
        let seq = last.wrapping_add(1).max(1);
        let (len, words) = list((last != 0).then(|| unpack((pid as u64) << 32 | u64::from(last))));
        // A list of two or fewer stays in the slot; a longer one takes its
        // length in the spill ring.
        let spill_len = self.spill_mask + 1;
        let room = (len as u64).min(spill_len);
        let (k, spilled) = (lane.head.load(Ordering::Relaxed), room > 2);
        let mut start = lane.spilled.load(Ordering::Relaxed);
        if spilled {
            // A list that would commit more of the ring starts the next lap
            // instead, if that overwrites no list the lane still keeps.
            let lap = (start | self.spill_mask) + 1;
            let end = (start + room - 1) & self.spill_mask;
            let grows = start & self.spill_mask != 0 && lane.spill.get(end).is_none();
            // The oldest kept slot is cold: read only when the ring would grow.
            let oldest = (k + 1).saturating_sub(self.keep) & self.slot_mask;
            let kept = |slot: &Slot| slot.spill_at.load(Ordering::Relaxed);
            if grows && lane.slots.get(oldest).map_or(0, kept) + spill_len >= lap + room {
                start = lap;
            }
            lane.spilled.store(start + room, Ordering::Relaxed);
        }
        // The spill ring's advance is published before the words it covers
        // are overwritten, and a version before its slot.
        fence(Ordering::Release);
        let slot = &lane.slots.grow_from(k & self.slot_mask)[0];
        slot.version.store(2 * k + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.spill_at.store(start, Ordering::Relaxed);
        // Into the slot, or run by run (a segment at a time) into the spill.
        // A list that fits the slot never empties `run`.
        let mut run: &[AtomicU64] = if spilled { &[] } else { &slot.preds };
        for (i, word) in (0..room).zip(words) {
            if run.is_empty() {
                run = lane.spill.grow_from((start + i) & self.spill_mask);
            }
            run[0].store(word, Ordering::Relaxed);
            run = &run[1..];
        }
        let shape = if spilled { SPILLED } else { 0 }
            | room << 33
            | phase.map_or(0, |ph| HAS_PHASE | u64::from(ph));
        slot.at.store(at.to_bits(), Ordering::Relaxed);
        let seq_label = u64::from(label) << 32 | u64::from(seq);
        slot.seq_label.store(seq_label, Ordering::Relaxed);
        slot.shape.store(shape, Ordering::Relaxed);
        slot.version.store(2 * k + 2, Ordering::Release);
        lane.head.store(k + 1, Ordering::Release);
        let stamp = u64::from(at as u64 as u32) << 32 | u64::from(seq);
        lane.last.store(stamp, Ordering::Release);
        debug_assert!(lane.writing.swap(false, Ordering::Release));
        unpack((pid as u64) << 32 | u64::from(seq))
    }

    /// `label`'s id, from the lane's cache when the writer has met it
    /// before; otherwise interned under the label lock.
    fn label_id(&self, lane: &Lane, label: &'static str) -> u32 {
        let addr = label.as_ptr() as usize;
        let hash = (addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let home = (hash >> (64 - LABEL_CACHE.trailing_zeros())) as usize;
        // Open addressing: a lane's labels never collide out of its cache
        // until it has met more than `LABEL_CACHE` of them.
        let free = (home..home + LABEL_CACHE).find_map(|i| {
            let (cached, id) = &lane.labels[i % LABEL_CACHE];
            let word = id.load(Ordering::Relaxed);
            match cached.load(Ordering::Relaxed) {
                0 => Some(Err((cached, id))),
                a if a == addr && (word >> 32) as usize == label.len() => Some(Ok(word as u32)),
                _ => None,
            }
        });
        if let Some(Ok(id)) = free {
            return id;
        }
        let mut labels = self.labels.lock().unwrap_or_else(PoisonError::into_inner);
        let (names, ids) = &mut *labels;
        let interned = *ids.entry(label).or_insert_with(|| {
            names.push(label);
            names.len() as u32 - 1
        });
        if let Some(Err((cached, id))) = free {
            id.store(
                (label.len() as u64) << 32 | u64::from(interned),
                Ordering::Relaxed,
            );
            cached.store(addr, Ordering::Relaxed);
        }
        interned
    }

    /// Lane `pid`'s whole events, oldest first, with their labels' ids, and
    /// how many it has evicted. A slot or spilled list overwritten while it
    /// was read counts as evicted.
    fn read(&self, pid: usize) -> (Vec<(CausalEvent, u32)>, u64) {
        let lane = self.lane(pid);
        let head = lane.head.load(Ordering::Acquire);
        let spill_len = self.spill_mask + 1;
        let mut events = Vec::with_capacity(head.min(self.keep) as usize);
        for k in head.saturating_sub(self.keep)..head {
            let Some(slot) = lane.slots.get(k & self.slot_mask) else {
                continue;
            };
            let version = slot.version.load(Ordering::Acquire);
            let load = |word: &AtomicU64| word.load(Ordering::Relaxed);
            let (at, seq_label, shape) = (load(&slot.at), load(&slot.seq_label), load(&slot.shape));
            let (start, count) = (load(&slot.spill_at), (shape & !SPILLED) >> 33);
            let spilled = shape & SPILLED != 0;
            let preds = (0..count.min(spill_len))
                .map(|i| match spilled {
                    false => slot.preds.get(i as usize).map_or(0, load),
                    true => lane
                        .spill
                        .get((start + i) & self.spill_mask)
                        .map_or(0, load),
                })
                .map(unpack)
                .collect();
            fence(Ordering::Acquire);
            let lapped = spilled && load(&lane.spilled) > start + spill_len;
            if version != 2 * k + 2 || load(&slot.version) != version || lapped {
                continue;
            }
            let event = CausalEvent {
                id: EventId {
                    pid: pid as u32,
                    seq: seq_label as u32,
                },
                at: f64::from_bits(at),
                label: String::new(),
                phase: (shape & HAS_PHASE != 0).then_some(shape as u32),
                preds,
            };
            events.push((event, (seq_label >> 32) as u32));
        }
        let dropped = head - events.len() as u64;
        (events, dropped)
    }
}

/// Cloneable, thread-safe handle to a causal recorder of per-pid lanes.
///
/// Mirrors [`crate::Telemetry`]: [`CausalRecorder::off`] is a no-op
/// observer whose every method is a single `None` branch.
#[derive(Clone)]
pub struct CausalRecorder {
    inner: Option<Arc<Lanes>>,
}

impl CausalRecorder {
    /// The disabled recorder: records nothing, costs one branch.
    pub fn off() -> CausalRecorder {
        CausalRecorder { inner: None }
    }

    /// A recorder for pids `0..lanes` keeping the most recent `capacity`
    /// events, shared out evenly: each lane keeps its own most recent
    /// `capacity / lanes` (rounded up), whatever the others record.
    pub fn bounded(lanes: usize, capacity: usize) -> CausalRecorder {
        assert!(
            lanes > 0 && capacity > 0,
            "flight recorder needs lanes >= 1 and capacity >= 1"
        );
        let keep = capacity.div_ceil(lanes);
        let slots = keep.next_power_of_two().max(FIRST_SEGMENT);
        // Room for every kept event to name every pid, its own included
        // (a read-set can): committed only as far as the lane has written.
        let spill = (keep * (lanes + 1)).next_power_of_two().max(FIRST_SEGMENT);
        let lane = |_| Lane {
            slots: Segments::new(slots),
            spill: Segments::new(spill),
            ..Lane::default()
        };
        CausalRecorder {
            inner: Some(Arc::new(Lanes {
                lanes: (0..lanes).map(lane).collect(),
                keep: keep as u64,
                slot_mask: slots as u64 - 1,
                spill_mask: spill as u64 - 1,
                labels: Mutex::default(),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The pids `0..lanes()` this recorder records (0 when off).
    pub fn lanes(&self) -> usize {
        self.inner.as_deref().map_or(0, |inner| inner.lanes.len())
    }

    /// Record one event for `pid` and return its id (`None` when off).
    /// `preds` may contain duplicates or ids evicted from the recorder;
    /// both are kept verbatim (analysis ignores refs it cannot resolve),
    /// up to the lane's spill ring: a list longer than `capacity / lanes
    /// × (lanes + 1)` ids, rounded up to a power of two, keeps its first
    /// that many. Panics if `pid` has no lane.
    pub fn record(
        &self,
        pid: usize,
        label: &'static str,
        at: f64,
        phase: Option<u32>,
        preds: &[EventId],
    ) -> Option<EventId> {
        let words = preds.iter().map(|&id| pack(id));
        Some(
            self.inner
                .as_deref()?
                .write(pid, label, (at, phase), |_| (preds.len(), words)),
        )
    }

    /// Record `pid`'s next event in program order: its predecessors are
    /// `pid`'s own previous event plus `deliveries` (the events whose
    /// effects it absorbed since), sorted and deduplicated, and cut like
    /// [`Self::record`]'s.
    pub fn record_next(
        &self,
        pid: usize,
        label: &'static str,
        at: f64,
        phase: Option<u32>,
        deliveries: &[EventId],
    ) -> Option<EventId> {
        let inner = self.inner.as_deref()?;
        let buf = &mut [0; ON_STACK];
        let list = move |own: Option<EventId>| {
            // Moved in, so that the sorted list can borrow it past the call.
            let buf = buf;
            let n = usize::from(own.is_some()) + deliveries.len();
            let (short, mut len) = (n <= ON_STACK, 0);
            if short {
                let ids = own.iter().chain(deliveries).map(|&id| pack(id));
                buf.iter_mut()
                    .zip(ids)
                    .for_each(|(slot, word)| *slot = word);
                buf[..n].sort_unstable();
                for i in 0..n {
                    if len == 0 || buf[len - 1] != buf[i] {
                        (buf[len], len) = (buf[i], len + 1);
                    }
                }
            } else {
                len = ascending(own, deliveries).count();
            }
            let long = (!short).then(|| ascending(own, deliveries));
            let sorted = &buf[..if short { len } else { 0 }];
            (
                len,
                sorted.iter().copied().chain(long.into_iter().flatten()),
            )
        };
        Some(inner.write(pid, label, (at, phase), list))
    }

    /// The most recent event id recorded by `pid` (`None` when off or when
    /// `pid` has recorded nothing yet). Panics if `pid` has no lane.
    pub fn last(&self, pid: usize) -> Option<EventId> {
        self.last_stamped(pid).map(|(id, _)| id)
    }

    /// [`Self::last`] with the low 32 bits of the event's timestamp's
    /// integer part, published in the same word: enough for a recorder
    /// whose clock counts whole steps to widen it against its own.
    pub fn last_stamped(&self, pid: usize) -> Option<(EventId, u32)> {
        let lane = self.inner.as_deref()?.lane(pid);
        let word = lane.last.load(Ordering::Acquire);
        let id = EventId {
            pid: pid as u32,
            seq: word as u32,
        };
        (id.seq != 0).then_some((id, (word >> 32) as u32))
    }

    /// Snapshot every lane for analysis, merged predecessors-first. Takes
    /// no lock a writer takes on its way through a known label, so a
    /// snapshot of a running system may hold an event whose predecessor
    /// was recorded after its lane was read; analysis ignores such edges
    /// like any other it cannot resolve. Empty graph when off.
    pub fn snapshot(&self) -> CausalGraph {
        let Some(inner) = self.inner.as_deref() else {
            return CausalGraph::merge(Vec::new(), 0);
        };
        let (read, dropped): (Vec<_>, Vec<_>) =
            (0..inner.lanes.len()).map(|pid| inner.read(pid)).unzip();
        // Named after the reads: a label id a lane holds was interned
        // before the event that carries it was published.
        let labels = inner.labels.lock().unwrap_or_else(PoisonError::into_inner);
        let name = |(mut event, label): (CausalEvent, u32)| {
            event.label = labels.0.get(label as usize).map_or("?", |l| l).to_owned();
            event
        };
        let lanes = read
            .into_iter()
            .map(|events| events.into_iter().map(name).collect())
            .collect();
        drop(labels);
        CausalGraph::merge(lanes, dropped.iter().sum())
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

/// An immutable snapshot of a [`CausalRecorder`]'s lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalGraph {
    /// Events in record order (predecessors always precede successors).
    pub events: Vec<CausalEvent>,
    /// Events evicted before this snapshot was taken.
    pub dropped: u64,
}

impl CausalGraph {
    /// Longest chain over the whole graph. Edges whose source was evicted
    /// from the recorder are ignored (the chain restarts at the survivor).
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

    /// Serialize the snapshot as a replayable flight-recorder dump,
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
    /// — the snapshot of a recorder that keeps one lane per pid so that
    /// recording shares nothing between pids. The result is in a record
    /// order a single ring could have produced: an event comes after every
    /// predecessor present in `lanes`, whatever the timestamps say (logical
    /// clocks tie across pids all the time). Among the events free to go
    /// next the earliest timestamp wins, then the lowest list index, so the
    /// merge is deterministic. A predecessor cycle — no real recording has
    /// one — is broken at the earliest pending event rather than looped on.
    ///
    /// A topological merge over a heap of the lane heads free to go:
    /// O((E + P) log L) for E events, P predecessor references and L lanes
    /// (breaking a cycle scans the heads, O(L) per break).
    pub fn merge(lanes: Vec<Vec<CausalEvent>>, dropped: u64) -> CausalGraph {
        // Every event present has a position in the lanes laid end to end,
        // and every id one of its events' positions: whether it has been
        // emitted, and the newest head waiting on it, as `(lane, that
        // lane's taken, next waiter)`. An id usually sits in lane `pid`,
        // `seq` less the lane's first seq in — `spans` holds each lane's
        // `(start, first seq, length)` — and the rest are hashed.
        let total = lanes.iter().map(Vec::len).sum();
        let (mut spans, mut ids) = (Vec::with_capacity(lanes.len()), Vec::with_capacity(total));
        for lane in &lanes {
            spans.push((ids.len(), lane.first().map_or(0, |e| e.id.seq), lane.len()));
            ids.extend(lane.iter().map(|e| e.id));
        }
        let slot = |id: &EventId| {
            let (start, seq, len) = spans.get(id.pid as usize).copied().unwrap_or_default();
            let offset = id.seq.wrapping_sub(seq) as usize;
            (offset < len && ids[start + offset] == *id).then_some(start + offset)
        };
        let mut index = HashMap::new();
        for (at, id) in ids.iter().enumerate() {
            if slot(id).is_none() {
                index.entry(*id).or_insert(at);
            }
        }
        let find = |id: &EventId| slot(id).or_else(|| index.get(id).copied());
        let (mut emitted, mut newest) = (vec![false; total], vec![usize::MAX; total]);
        let mut waiters: Vec<(usize, u64, usize)> = Vec::new();
        let mut events = Vec::with_capacity(total);
        let mut heads: Vec<_> = lanes
            .into_iter()
            .map(|l| l.into_iter().peekable())
            .collect();
        // Per lane: events emitted (which names its head), and how many of
        // the head's predecessors are known emitted. A head waits on its
        // first pending predecessor only; when that one goes, it looks for
        // the next.
        let (mut taken, mut seen) = (vec![0; heads.len()], vec![0; heads.len()]);
        let mut ready = BinaryHeap::new();
        let mut fresh: Vec<usize> = (0..heads.len()).collect();
        loop {
            for lane in fresh.drain(..) {
                let Some(head) = heads[lane].peek() else {
                    continue;
                };
                let pending = head.preds[seen[lane]..]
                    .iter()
                    .position(|pred| find(pred).is_some_and(|j| !emitted[j]));
                match pending {
                    Some(skip) => {
                        seen[lane] += skip;
                        let j = find(&head.preds[seen[lane]]).expect("pending");
                        waiters.push((lane, taken[lane], newest[j]));
                        newest[j] = waiters.len() - 1;
                    }
                    None => ready.push(Reverse((total_key(head.at), lane))),
                }
            }
            let lane = match ready.pop() {
                Some(Reverse((_, lane))) => lane,
                // Every head waits on another: take the earliest anyway.
                None => match (heads.iter_mut().enumerate())
                    .filter_map(|(lane, head)| Some((total_key(head.peek()?.at), lane)))
                    .min()
                {
                    Some((_, lane)) => lane,
                    None => return CausalGraph { events, dropped },
                },
            };
            let event = heads[lane].next().expect("a queued head is present");
            (taken[lane], seen[lane]) = (taken[lane] + 1, 0);
            let j = find(&event.id).expect("present");
            let mut waiter = if emitted[j] { usize::MAX } else { newest[j] };
            emitted[j] = true;
            while let Some(&(other, head, next)) = waiters.get(waiter) {
                if head == taken[other] {
                    fresh.push(other);
                }
                waiter = next;
            }
            events.push(event);
            fresh.push(lane);
        }
    }
}

/// Orders like `f64::total_cmp`.
fn total_key(at: f64) -> u64 {
    let bits = at.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
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
                // Unresolvable preds are fine: evicted from the recorder.
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
        let r = CausalRecorder::bounded(2, 16);
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
        let r = CausalRecorder::bounded(2, 16);
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

    /// An always-on recorder reaches 2^32 events on one pid in days; the
    /// wrap skips 0, which marks "no event yet" in a lane's latest word.
    #[test]
    fn seq_wraps_past_zero() {
        let r = CausalRecorder::bounded(2, 8);
        r.inner.as_ref().unwrap().lanes[1]
            .last
            .store(u64::from(u32::MAX - 1), Ordering::Relaxed);
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

    /// The label table is the one lock: a thread that dies holding it
    /// must not stop the others recording, meeting new labels, or dumping.
    #[test]
    fn a_recorder_poisoned_by_a_dead_writer_still_records_and_dumps() {
        let r = CausalRecorder::bounded(2, 16);
        let a = r.record_next(0, "arrive", 1.0, Some(0), &[]).unwrap();
        let inner = Arc::clone(r.inner.as_ref().unwrap());
        let died = std::thread::spawn(move || {
            let _held = inner.labels.lock();
            panic!("dies holding the label table");
        })
        .join();
        assert!(died.is_err());
        assert!(r.inner.as_ref().unwrap().labels.is_poisoned());
        // Pid 1's lane has met no label yet: this one is interned anew.
        let b = r
            .record_next(1, "fault:timeout", 2.0, Some(0), &[a])
            .unwrap();
        assert_eq!(r.last(1), Some(b));
        let dump = r.snapshot().to_flight_json("p", 2, "wedge", "poisoned");
        let dump = FlightDump::parse(&dump).expect("parses");
        dump.replay().expect("replays");
        let names: Vec<&str> = dump.graph.events.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(names, ["arrive", "fault:timeout"]);
        assert_eq!(dump.graph.events[1].preds, vec![a]);
    }

    /// A list longer than the spill ring keeps its first ring's worth, in
    /// either form: `record`'s verbatim, `record_next`'s sorted.
    #[test]
    fn a_list_longer_than_the_spill_ring_is_cut_to_it() {
        // One lane keeping one event: a spill ring of 16 words.
        let r = CausalRecorder::bounded(1, 1);
        let many: Vec<EventId> = (0..40).rev().map(|seq| id(3, seq)).collect();
        r.record(0, "wide", 0.0, None, &many);
        assert_eq!(r.snapshot().events[0].preds, many[..16]);
        r.record_next(0, "wide", 1.0, None, &many);
        // Its own previous event, (0, 1), sorts first.
        let mut sorted = [&many[..], &[id(0, 1)]].concat();
        sorted.sort_unstable();
        let g = r.snapshot();
        assert_eq!(g.events[0].preds, sorted[..16]);
        assert_eq!(g.dropped, 1);
    }

    /// Lists that lap the spill ring overwrite the kept events' lists: a
    /// snapshot counts those events as evicted rather than show them torn.
    #[test]
    fn a_kept_event_whose_list_was_lapped_counts_as_evicted() {
        // One lane keeping four events: a spill ring of 16 words, and four
        // lists of 10 laid one after another.
        let r = CausalRecorder::bounded(1, 4);
        let lists: Vec<Vec<EventId>> = (0..4)
            .map(|e| (0..10).map(|i| id(2, 10 * e + i)).collect())
            .collect();
        for (e, list) in lists.iter().enumerate() {
            r.record(0, "wide", e as f64, None, list);
        }
        let g = r.snapshot();
        assert_eq!(g.events.len(), 1);
        assert_eq!((g.events[0].id, &g.events[0].preds), (id(0, 4), &lists[3]));
        assert_eq!(g.dropped, 3);
    }

    #[test]
    #[should_panic(expected = "pid 2 has no lane: the recorder has 2")]
    fn recording_for_a_pid_without_a_lane_panics() {
        CausalRecorder::bounded(2, 16).record(2, "x", 0.0, None, &[]);
    }

    #[test]
    #[should_panic(expected = "pid 5 has no lane: the recorder has 2")]
    fn reading_a_pid_without_a_lane_panics() {
        CausalRecorder::bounded(2, 16).last(5);
    }

    #[test]
    fn labels_beyond_a_lanes_cache_still_name_their_events() {
        let r = CausalRecorder::bounded(1, 256);
        let labels: Vec<&'static str> = (0..2 * LABEL_CACHE)
            .map(|i| &*Box::leak(format!("label{i}").into_boxed_str()))
            .collect();
        for round in 0..2 {
            for (i, &label) in labels.iter().enumerate() {
                r.record_next(0, label, (round * labels.len() + i) as f64, None, &[]);
            }
        }
        let names: Vec<String> = r.snapshot().events.into_iter().map(|e| e.label).collect();
        assert_eq!(names, [&labels[..], &labels[..]].concat());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let r = CausalRecorder::bounded(1, 2);
        r.record(0, "a", 0.0, None, &[]);
        r.record(0, "b", 1.0, None, &[]);
        r.record(0, "c", 2.0, None, &[]);
        assert_eq!(r.snapshot().dropped, 1);
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
        // leave on that release. (9, 9) was evicted from its lane.
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

    /// The merge as it was before the heap of lane heads: every step scans
    /// every head. Kept as the oracle the heap merge must match.
    fn merge_by_scan(lanes: Vec<Vec<CausalEvent>>) -> Vec<EventId> {
        let mut emitted: BTreeMap<EventId, bool> = lanes
            .iter()
            .flatten()
            .map(|event| (event.id, false))
            .collect();
        let mut order = Vec::new();
        let mut heads: Vec<_> = lanes
            .into_iter()
            .map(|lane| lane.into_iter().peekable())
            .collect();
        loop {
            let next = heads
                .iter_mut()
                .enumerate()
                .filter_map(|(lane, head)| {
                    let event = head.peek()?;
                    let blocked = event
                        .preds
                        .iter()
                        .any(|pred| emitted.get(pred) == Some(&false));
                    Some((blocked, event.at, lane))
                })
                .min_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
            let Some((_, _, lane)) = next else {
                return order;
            };
            let event = heads[lane].next().expect("peeked above");
            emitted.insert(event.id, true);
            order.push(event.id);
        }
    }

    #[test]
    fn heap_merge_matches_the_scanning_merge() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |bound: u64| {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound
        };
        for case in 0..2_000 {
            let lanes = 1 + draw(6) as u32;
            let mut sizes: Vec<u32> = (0..lanes).map(|_| draw(8) as u32).collect();
            // Now and then an empty lane, and a lane with a duplicate id.
            if case % 7 == 0 {
                sizes[0] = 0;
            }
            let ids: Vec<EventId> = (0..lanes)
                .flat_map(|pid| (1..=sizes[pid as usize]).map(move |seq| id(pid, seq)))
                .collect();
            let input: Vec<Vec<CausalEvent>> = (0..lanes)
                .map(|pid| {
                    (1..=sizes[pid as usize])
                        .map(|seq| {
                            // Timestamps tie often and run backwards
                            // sometimes; predecessors point anywhere: back,
                            // forward (cycles), at the event itself, or at
                            // nothing recorded.
                            let at = match draw(4) {
                                0 => f64::from(seq) - 0.5,
                                _ => draw(4) as f64,
                            };
                            let preds = (0..draw(4))
                                .map(|_| match draw(10) {
                                    0 => id(9, 9),
                                    1 => id(pid, seq),
                                    _ if ids.is_empty() => id(9, 8),
                                    _ => ids[draw(ids.len() as u64) as usize],
                                })
                                .collect();
                            let seq = if case % 11 == 0 && seq == 2 { 1 } else { seq };
                            CausalEvent {
                                id: id(pid, seq),
                                at,
                                label: "e".to_owned(),
                                phase: None,
                                preds,
                            }
                        })
                        .collect()
                })
                .collect();
            let merged: Vec<EventId> = CausalGraph::merge(input.clone(), 0)
                .events
                .iter()
                .map(|e| e.id)
                .collect();
            assert_eq!(
                merged,
                merge_by_scan(input.clone()),
                "case {case}: {input:?}"
            );
        }
    }

    #[test]
    fn critical_path_follows_the_longest_chain() {
        let r = CausalRecorder::bounded(2, 64);
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
        let r = CausalRecorder::bounded(2, 64);
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
        let r = CausalRecorder::bounded(1, 2);
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
        let r = CausalRecorder::bounded(3, 64);
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
        let r = CausalRecorder::bounded(2, 8);
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
        let r = CausalRecorder::bounded(1, 8);
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
            let r = CausalRecorder::bounded(2, 16);
            let a = r.record(0, "a", 0.25, Some(0), &[]).unwrap();
            r.record(1, "b", 0.5, Some(0), &[a]);
            r.snapshot().to_flight_json("p", 2, "wedge", "r")
        };
        assert_eq!(build(), build());
    }

    /// The lane contract under concurrency: writers that each own a lane
    /// record as fast as they can while another thread snapshots in a loop,
    /// and every snapshot holds only whole events — no torn slot, no torn
    /// spilled list, no event twice — that parse and replay as a flight
    /// dump.
    mod lanes {
        use super::super::*;
        use std::collections::BTreeSet;

        const WRITERS: usize = 3;
        const EVENTS: u32 = 20_000;
        const SNAPSHOTS: usize = 50;
        const LABELS: [&str; 3] = [
            "cp:Ready->Execute",
            "cp:Execute->Success",
            "fault:detectable",
        ];

        /// How many deliveries event `seq` absorbed: 0 to 3, so its list holds 1 to
        /// 4 predecessors and spills from 3 on.
        fn deliveries(seq: u32) -> Vec<EventId> {
            (0..seq % 4)
                .map(|i| EventId { pid: 100 + i, seq })
                .collect()
        }

        /// Every field of event `(pid, seq)` is a function of its id, so a slot
        /// read half before and half after an overwrite cannot pass.
        fn check_whole(e: &CausalEvent) {
            let (pid, seq) = (e.id.pid, e.id.seq);
            assert_eq!(e.at, f64::from(seq), "{:?}: torn timestamp", e.id);
            assert_eq!(e.phase, Some(seq), "{:?}: torn phase", e.id);
            assert_eq!(e.label, LABELS[seq as usize % 3], "{:?}: torn label", e.id);
            let mut preds: Vec<EventId> = (seq > 1)
                .then_some(EventId { pid, seq: seq - 1 })
                .into_iter()
                .collect();
            preds.extend(deliveries(seq));
            assert_eq!(e.preds, preds, "{:?}: torn predecessors", e.id);
        }

        /// Runs its closure when dropped, unwinding included: a failed check on
        /// either side must not leave the other waiting forever.
        struct OnDrop<F: FnMut()>(F);

        impl<F: FnMut()> Drop for OnDrop<F> {
            fn drop(&mut self) {
                (self.0)()
            }
        }

        #[test]
        fn snapshots_of_running_lanes_hold_only_whole_events() {
            // 64 events per lane: every lane wraps hundreds of times.
            let r = CausalRecorder::bounded(WRITERS, WRITERS * 64);
            let (done, stop) = (AtomicUsize::new(0), AtomicBool::new(false));
            let recorded: Vec<u32> = std::thread::scope(|s| {
                let writers: Vec<_> = (0..WRITERS)
                    .map(|pid| {
                        let (r, done, stop) = (&r, &done, &stop);
                        s.spawn(move || {
                            let _done = OnDrop(|| {
                                done.fetch_add(1, Ordering::Release);
                            });
                            // Keep writing until the snapshots have raced the
                            // writers a while.
                            let mut seq = 0;
                            while seq < EVENTS || !stop.load(Ordering::Acquire) {
                                seq += 1;
                                let label = LABELS[seq as usize % 3];
                                let at = f64::from(seq);
                                let id = r.record_next(pid, label, at, Some(seq), &deliveries(seq));
                                assert_eq!(
                                    id,
                                    Some(EventId {
                                        pid: pid as u32,
                                        seq
                                    })
                                );
                            }
                            seq
                        })
                    })
                    .collect();
                let _stop = OnDrop(|| stop.store(true, Ordering::Release));
                let mut taken = 0;
                while done.load(Ordering::Acquire) < WRITERS {
                    let g = r.snapshot();
                    let mut ids = BTreeSet::new();
                    for e in &g.events {
                        assert!(ids.insert(e.id), "{:?} twice in one snapshot", e.id);
                        check_whole(e);
                    }
                    let dump = g.to_flight_json("lanes", WRITERS, "snapshot", "concurrent");
                    FlightDump::parse(&dump)
                        .expect("snapshot parses")
                        .replay()
                        .expect("snapshot replays");
                    taken += 1;
                    if taken == SNAPSHOTS {
                        stop.store(true, Ordering::Release);
                    }
                }
                writers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            // At rest every lane holds exactly its newest 64 events.
            let g = r.snapshot();
            assert_eq!(g.events.len(), WRITERS * 64);
            let evicted: u64 = recorded.iter().map(|&n| u64::from(n) - 64).sum();
            assert_eq!(g.dropped, evicted);
            g.events.iter().for_each(check_whole);
        }
    }
}
