//! The one deterministic driver: any [`Process`] core, stepped by a
//! discrete-event loop over the simulated network ([`crate::simnet`]) on
//! virtual time.
//!
//! [`crate::mb_sim`] runs [`MbCore`](crate::proc::MbCore)s on it and
//! [`crate::sweep_sim`] runs [`SweepCore`](crate::sweep_core::SweepCore)s;
//! each keeps only its configuration, its report and its fault menu, as a
//! `Program`. The driver owns everything else: the network and one port per
//! process onto it, the program's event heap, one [`Resend`] schedule, one
//! resend-timer slot and one down flag per process, the message, advance and
//! event counts, the run log ([`TraceLog`]), the oracle replay and the
//! flight dump.
//!
//! Event model: message deliveries wait in the [`SimNet`] queue, each
//! process's resend timer in its slot of `Timers`, and the program's own
//! events in a heap. Timers and program events share one control sequence
//! and are keyed `(time, seq)` like the network queue, so at equal times
//! whichever was armed or scheduled first fires first. Each step takes
//! the earliest of the three (a delivery wins a tie), advances the network
//! to its time and drives the consumer of every link that received
//! something. A send re-arms its process's slot, which replaces the timer an
//! earlier send armed. One seed determines everything, so a run is
//! byte-for-byte replayable.

use crate::channel::Delivery;
use crate::proc::{pump, CpEvent, Process, Pumped, Resend, StateMsg};
use crate::simnet::{event_key, key_time, SimNet};
use crate::telemetry::{replay_segments, Replay};
use crate::transport::{Endpoint, TaggedMsg};
use ftbarrier_gcs::Time;
use ftbarrier_telemetry::{CausalRecorder, EventId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// What actually travels on a simulated link: a process's gossip stamped
/// with the sender's believed membership epoch. Only MB under churn moves
/// epochs; everywhere else every epoch is 0 and the stamp is inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireMsg<M = StateMsg> {
    pub epoch: u64,
    pub msg: M,
}

/// One line of a [`TraceLog`]. The per-event lines are stored as the values
/// they print; the rare fault and membership lines are rendered when they
/// happen.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TraceEntry {
    /// `t {at} deliver x{count}`: a network scheduling point.
    Deliver { at: Time, count: usize },
    /// `  p{pid} -> {own:?} adv={advances}`: an MB process moved and
    /// gossiped.
    Move {
        pid: usize,
        own: StateMsg,
        advances: u64,
    },
    /// `t {at} work-done p{pid} tok={token}`: a phase body finished.
    WorkDone { at: Time, pid: usize, token: u64 },
    /// `t {at} root ph -> {ph}`: the root advanced its phase.
    RootPhase { at: Time, ph: u32 },
    /// Any other line, already rendered (without its newline).
    Text(Box<str>),
}

/// The deterministic run log of a simulated run, kept as data and formatted
/// only by [`TraceLog::render`] (or `Display`), so a run nobody reads pays
/// no formatting. Equal logs render to equal text.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    entries: Vec<TraceEntry>,
}

impl TraceLog {
    /// The log as text, one `\n`-terminated line per entry.
    pub fn render(&self) -> String {
        self.to_string()
    }

    pub(crate) fn push(&mut self, entry: TraceEntry) {
        self.entries.push(entry);
    }

    pub(crate) fn text(&mut self, line: fmt::Arguments<'_>) {
        self.push(TraceEntry::Text(line.to_string().into()));
    }
}

impl fmt::Display for TraceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            match e {
                TraceEntry::Deliver { at, count } => writeln!(f, "t {at} deliver x{count}")?,
                TraceEntry::Move { pid, own, advances } => {
                    writeln!(f, "  p{pid} -> {own:?} adv={advances}")?
                }
                TraceEntry::WorkDone { at, pid, token } => {
                    writeln!(f, "t {at} work-done p{pid} tok={token}")?
                }
                TraceEntry::RootPhase { at, ph } => writeln!(f, "t {at} root ph -> {ph}")?,
                TraceEntry::Text(line) => writeln!(f, "{line}")?,
            }
        }
        Ok(())
    }
}

/// What a program adds to the driver: its cores, its own control events and
/// the few places where the two programs' schedules differ.
pub(crate) trait Program: Sized {
    type Msg: Copy;
    type Core: Process<Msg = Self::Msg>;
    /// The program's own control events (faults, phase bodies, checks).
    type Event: Copy + Ord;
    /// Names the run in its flight dump.
    const NAME: &'static str;
    /// Gossip after every pump round of a drive (MB), rather than once after
    /// the last (the sweep). Differs only where a drive runs phase bodies
    /// inline, i.e. takes more than one round.
    const GOSSIP_EVERY_ROUND: bool;
    /// Log every delivery step as a [`TraceLog`] line (MB).
    const LOG_DELIVERIES: bool;

    /// The link `pid` reads when driven, `delivering` being the link whose
    /// delivery drives it (`None` off a delivery). MB reads its believed
    /// predecessor link whatever was delivered.
    fn read_link(&self, _pid: usize, delivering: Option<usize>) -> Option<usize> {
        delivering
    }
    /// Log one pump round of `pid`.
    fn log_round(trace: &mut TraceLog, now: Time, pid: usize, core: &Self::Core, out: Pumped);
    /// `pid` needs its phase body: run it now and say whether that changed
    /// its gossiped state, or defer it and return `None`.
    fn phase_body(sim: &mut Sim<Self>, pid: usize) -> Option<bool>;
    /// One of the program's control events fired.
    fn on_event(sim: &mut Sim<Self>, ev: Self::Event);
    /// `link` delivered while no process consumes it (its sender was spliced
    /// out).
    fn orphan(sim: &mut Sim<Self>, link: usize) {
        sim.drain(link);
    }
    /// After every scheduling point.
    fn after_event(_sim: &mut Sim<Self>) {}
}

/// One resend-timer slot per process, as a tournament tree over the slots'
/// [`event_key`]s: every node holds the least key under it and the slot
/// that holds it, so arming, re-arming or emptying a slot replays its
/// leaf-to-root path and the earliest timer is read at the root. An empty
/// slot holds `u128::MAX`, which no armed key reaches.
#[derive(Debug, Clone)]
pub(crate) struct Timers {
    /// `key[node]` and `slot[node]`: the least key under `node` and its
    /// slot. The root is node 1, node `k` has children `2k` and `2k + 1`,
    /// and slot `s` is the leaf `width + s`, padded with empty slots to a
    /// power of two.
    key: Vec<u128>,
    slot: Vec<u32>,
}

impl Timers {
    const EMPTY: u128 = u128::MAX;

    /// `n` empty slots.
    pub fn new(n: usize) -> Timers {
        let width = n.max(1).next_power_of_two();
        let leaves = u32::try_from(width).expect("fewer than 2^32 timer slots");
        let mut slot = vec![0; width];
        slot.extend(0..leaves);
        for node in (1..width).rev() {
            slot[node] = slot[2 * node];
        }
        Timers {
            key: vec![Self::EMPTY; 2 * width],
            slot,
        }
    }

    /// Arm slot `s` with `key`, replacing whatever it held.
    #[inline]
    pub fn arm(&mut self, s: usize, key: u128) {
        let mut node = self.slot.len() / 2 + s;
        self.key[node] = key;
        while node > 1 {
            let left = node & !1;
            let win = left + usize::from(self.key[left + 1] < self.key[left]);
            node /= 2;
            self.key[node] = self.key[win];
            self.slot[node] = self.slot[win];
        }
    }

    /// Empty slot `s`: it never fires until armed again.
    #[inline]
    pub fn empty(&mut self, s: usize) {
        self.arm(s, Self::EMPTY);
    }

    /// The earliest armed timer as `(key, slot)`.
    #[inline]
    pub fn peek(&self) -> Option<(u128, usize)> {
        (self.key[1] != Self::EMPTY).then(|| (self.key[1], self.slot[1] as usize))
    }
}

/// The control event a step fires: `pid`'s resend timer, or one of the
/// program's own events.
#[derive(Debug, Clone, Copy)]
enum Ctl<E> {
    Resend(usize),
    Of(E),
}

/// The network and what every process's port onto it shares.
pub(crate) struct Wire<M> {
    pub net: SimNet<WireMsg<M>>,
    /// Outgoing link ids per process.
    pub out_links: Vec<Vec<usize>>,
    /// Per process: the membership epoch it believes, stamped on every send.
    pub epoch: Vec<u64>,
    /// Deliveries dropped for carrying an epoch older than the receiver's.
    pub stale_dropped: u64,
    /// The burst a port has staged and not yet put on the wire.
    staged: Vec<TaggedMsg<M>>,
}

impl<M: Copy> Wire<M> {
    fn port(&mut self, pid: usize, rx: Option<usize>) -> Port<'_, M> {
        Port {
            wire: self,
            pid,
            rx,
        }
    }

    /// Put `pid`'s staged burst on each of its outgoing links in turn,
    /// flushing each link after its copy of the burst when `flush`.
    #[inline]
    fn send_staged(&mut self, pid: usize, flush: bool) {
        let epoch = self.epoch[pid];
        for &link in &self.out_links[pid] {
            for &(msg, tag) in &self.staged {
                self.net.send_tagged(link, WireMsg { epoch, msg }, tag);
            }
            if flush {
                self.net.flush(link);
            }
        }
        self.staged.clear();
    }
}

/// Process `pid`'s port onto the simulated network, alive for one
/// scheduling step. Sends are staged and go out link by link, and arrivals
/// are read from one link (`rx`), so the order of sends and deliveries —
/// and with it the whole run — stays a pure function of the seed. Epoch
/// stamping and stale-epoch filtering live here: the core never sees
/// membership metadata.
struct Port<'a, M> {
    wire: &'a mut Wire<M>,
    pid: usize,
    rx: Option<usize>,
}

impl<M: Copy> Endpoint<M> for Port<'_, M> {
    #[inline]
    fn send_tagged(&mut self, msg: M, tag: Option<EventId>) -> bool {
        self.wire.staged.push((msg, tag));
        true
    }

    #[inline]
    fn try_recv_tagged(&mut self) -> Option<(Delivery<M>, Option<EventId>)> {
        let w = &mut *self.wire;
        loop {
            match w.net.pop_inbox_tagged(self.rx?)? {
                // A withheld payload never reaches the core, so its causal
                // tag is withheld with it.
                (Delivery::Corrupted, _) => return Some((Delivery::Corrupted, None)),
                // A stale-epoch message is detectably from a
                // pre-reconfiguration view: masked as loss.
                (Delivery::Ok(m), _) if m.epoch < w.epoch[self.pid] => w.stale_dropped += 1,
                (Delivery::Ok(m), tag) => {
                    // Adopting a newer epoch is how the root's bump sweeps
                    // the ring.
                    w.epoch[self.pid] = m.epoch;
                    return Some((Delivery::Ok(m.msg), tag));
                }
            }
        }
    }

    fn flush(&mut self) -> bool {
        self.wire.send_staged(self.pid, true);
        true
    }
}

/// A simulated run of program `P`.
pub(crate) struct Sim<P: Program> {
    pub prog: P,
    pub cores: Vec<P::Core>,
    pub wire: Wire<P::Msg>,
    /// The consumer of each link (`None`: its sender was spliced out).
    pub dest: Vec<Option<usize>>,
    /// Per link: virtual time of its latest delivery. MB's failure detector
    /// reads it per sender: on the ring, link `j` is process `j`'s only
    /// outgoing link.
    pub last_heard: Vec<f64>,
    /// Per process: crashed or muted. A down process's inbound traffic is
    /// drained unread and its resend timer dies.
    pub down: Vec<bool>,
    resend: Vec<Resend>,
    /// Each process's one live resend timer.
    timers: Timers,
    pub messages_sent: Vec<u64>,
    /// Genuine root phase advances.
    pub advances: u64,
    /// Scheduling points processed.
    pub events_processed: u64,
    pub trace: TraceLog,
    pub now: Time,
    /// The program's own events.
    ctl: BinaryHeap<Reverse<(u128, P::Event)>>,
    /// Orders timers and program events at equal times.
    ctl_seq: u64,
    recorder: CausalRecorder,
}

impl<P: Program> Sim<P> {
    /// One process per core, one link per `(from, to)` pair of `links` in
    /// the network's link order; `recorder` is the flight recorder the
    /// cores record into.
    pub fn new(
        prog: P,
        cores: Vec<P::Core>,
        net: SimNet<WireMsg<P::Msg>>,
        links: impl IntoIterator<Item = (usize, usize)>,
        retransmit_every: f64,
        recorder: CausalRecorder,
    ) -> Sim<P> {
        assert!(
            retransmit_every > 0.0 && retransmit_every.is_finite(),
            "retransmit_every must be positive and finite, got {retransmit_every}"
        );
        let n = cores.len();
        let mut out_links = vec![Vec::new(); n];
        let mut dest = Vec::new();
        for (i, (from, to)) in links.into_iter().enumerate() {
            out_links[from].push(i);
            dest.push(Some(to));
        }
        Sim {
            prog,
            cores,
            wire: Wire {
                net,
                out_links,
                epoch: vec![0; n],
                stale_dropped: 0,
                staged: Vec::new(),
            },
            last_heard: vec![0.0; dest.len()],
            dest,
            down: vec![false; n],
            resend: vec![Resend::new(Time::new(retransmit_every)); n],
            timers: Timers::new(n),
            messages_sent: vec![0; n],
            advances: 0,
            events_processed: 0,
            trace: TraceLog::default(),
            now: Time::ZERO,
            ctl: BinaryHeap::new(),
            ctl_seq: 0,
            recorder,
        }
    }

    /// The next control key at `at`.
    fn ctl_key(&mut self, at: Time) -> u128 {
        self.ctl_seq += 1;
        event_key(at, self.ctl_seq)
    }

    /// Schedule one of the program's events at virtual time `at`.
    pub fn schedule(&mut self, at: f64, ev: P::Event) {
        assert!(at.is_finite() && at >= 0.0, "fault plan time {at} invalid");
        let key = self.ctl_key(Time::new(at));
        self.ctl.push(Reverse((key, ev)));
    }

    /// Schedule `ev(target)` at each `(time, target)` of the fault-plan
    /// field `field`, refusing by name — before the run, not mid-run — a
    /// target that is not one of the processes (on MB's ring, equally, not
    /// one of their outgoing links).
    pub fn schedule_plan(&mut self, field: &str, plan: &[(f64, usize)], ev: fn(usize) -> P::Event) {
        let n = self.cores.len();
        for &(at, target) in plan {
            assert!(target < n, "{field}: target {target} out of range 0..{n}");
            self.schedule(at, ev(target));
        }
    }

    /// Publish `pid`'s changed state and restart its resend schedule.
    pub fn gossip(&mut self, pid: usize) {
        let delay = self.resend[pid].changed();
        self.publish(pid, delay);
    }

    /// Send `pid`'s state, then arm its resend-timer slot `delay` from now,
    /// replacing the timer an earlier send armed.
    fn publish(&mut self, pid: usize, delay: Time) {
        let port = &mut self.wire.port(pid, None);
        self.messages_sent[pid] += self.cores[pid].gossip(port);
        // A core that flushed its burst (the sweep's) left nothing staged.
        if !self.wire.staged.is_empty() {
            self.wire.send_staged(pid, false);
        }
        let key = self.ctl_key(self.now + delay);
        self.timers.arm(pid, key);
    }

    /// `pid`'s resend timer fired; it still holds the slot, and this either
    /// empties or re-arms it. A down process's timer dies with it: the slot
    /// is emptied. A live one releases any reorder-held message (the link
    /// went quiet), resends its unchanged state and re-arms the slot one
    /// backoff step later. The heartbeat keeps live processes visibly fresh
    /// in the flight recorder, so a silent one stands out as stalest in a
    /// wedge dump.
    fn resend(&mut self, pid: usize) {
        if self.down[pid] {
            self.timers.empty(pid);
            return;
        }
        self.wire.send_staged(pid, true);
        self.cores[pid].record_heartbeat(self.now);
        let delay = self.resend[pid].resent();
        self.publish(pid, delay);
    }

    /// Absorb what arrived on the link `pid` reads and fire its guarded
    /// commands until none can move, running phase bodies the program runs
    /// inline; gossip every change — a move, or the adoption of a newer
    /// epoch.
    pub fn drive(&mut self, pid: usize, delivering: Option<usize>) {
        let rx = self.prog.read_link(pid, delivering);
        let now = self.now;
        let mut changed = false;
        loop {
            let epoch = self.wire.epoch[pid];
            let out = pump(&mut self.cores[pid], &mut self.wire.port(pid, rx), || now);
            self.advances += out.advances;
            P::log_round(&mut self.trace, now, pid, &self.cores[pid], out);
            changed |= out.moved || self.wire.epoch[pid] != epoch;
            if changed && P::GOSSIP_EVERY_ROUND {
                self.gossip(pid);
                changed = false;
            }
            if !self.cores[pid].needs_work() {
                break;
            }
            match P::phase_body(self, pid) {
                Some(body_changed) => changed |= body_changed,
                None => break,
            }
        }
        if changed {
            self.gossip(pid);
        }
    }

    /// Drop everything waiting on `link` unread.
    pub fn drain(&mut self, link: usize) {
        while self.wire.net.pop_inbox(link).is_some() {}
    }

    /// Run until `target` root advances: every process announces its start
    /// state and takes any enabled steps at t = 0, then the loop steps
    /// through deliveries and control events. Returns `None` on reaching the
    /// target, or the flight recorder's dump of a run that wedged — went
    /// quiescent or past `max_time` first.
    pub fn run(&mut self, target: u64, max_time: Time) -> Option<String> {
        let n = self.cores.len();
        for pid in 0..n {
            self.gossip(pid);
        }
        for pid in 0..n {
            self.drive(pid, None);
        }
        let mut touched = Vec::new();
        let reason = loop {
            if self.advances >= target {
                return None;
            }
            let t_net = self.wire.net.next_event_time();
            // The earlier of the first timer (`Some(pid)`) and the first
            // program event (`None`); keys are unique, one `ctl_seq` each.
            let timer = self.timers.peek().map(|(key, pid)| (key, Some(pid)));
            let event = self.ctl.peek().map(|&Reverse((key, _))| (key, None));
            let next_ctl = match (timer, event) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let t_ctl = next_ctl.map(|(key, _)| key_time(key));
            // Deliveries win ties against control events.
            let (t, is_net) = match (t_net, t_ctl) {
                // Quiescent: nothing can ever happen again.
                (None, None) => break "quiescent-without-completion",
                (None, Some(tc)) => (tc, false),
                (Some(tn), Some(tc)) if tc < tn => (tc, false),
                (Some(tn), _) => (tn, true),
            };
            if t > max_time {
                break "max_time";
            }
            self.now = t;
            let ev = match next_ctl {
                _ if is_net => None,
                Some((_, Some(pid))) => Some(Ctl::Resend(pid)),
                _ => Some(Ctl::Of(self.ctl.pop().expect("peeked").0 .1)),
            };
            self.events_processed += 1;
            // Always advance the network clock to the scheduling point, even
            // for control events — messages sent while handling them must be
            // timestamped at `t`, not at the network's last delivery time.
            self.wire.net.advance_to(t, &mut touched);
            if is_net && P::LOG_DELIVERIES {
                self.trace.push(TraceEntry::Deliver {
                    at: t,
                    count: touched.len(),
                });
            }
            for &link in &touched {
                self.last_heard[link] = t.as_f64();
                match self.dest[link] {
                    Some(dest) if !self.down[dest] => self.drive(dest, Some(link)),
                    Some(_) => self.drain(link),
                    None => P::orphan(self, link),
                }
            }
            match ev {
                Some(Ctl::Resend(pid)) => self.resend(pid),
                Some(Ctl::Of(ev)) => P::on_event(self, ev),
                None => {}
            }
            P::after_event(self);
        };
        let recent = self.recorder.snapshot();
        Some(recent.to_flight_json(P::NAME, n, "wedge", reason))
    }

    /// Merge every core's control-position log into global commit order and
    /// replay it through the specification oracle, one oracle per
    /// `(first event seq, members)` segment.
    pub fn replay(
        &mut self,
        n_phases: u32,
        segments: &[(u64, Vec<usize>)],
    ) -> (Vec<CpEvent>, Replay) {
        let mut events = Vec::new();
        for core in &mut self.cores {
            events.append(core.events());
        }
        events.sort_by_key(|e| e.seq);
        let replayed = replay_segments(n_phases, self.cores.len(), &events, segments);
        (events, replayed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbarrier_gcs::SimRng;

    fn key(at: f64, seq: u64) -> u128 {
        event_key(Time::new(at), seq)
    }

    /// Fire every armed timer, earliest first: `(slot, time)` per firing.
    fn drain(timers: &mut Timers) -> Vec<(usize, f64)> {
        let mut fired = Vec::new();
        while let Some((k, slot)) = timers.peek() {
            assert!(fired.len() < timers.slot.len(), "a slot fired twice");
            timers.empty(slot);
            fired.push((slot, key_time(k).as_f64()));
        }
        fired
    }

    #[test]
    fn equal_times_on_different_slots_fire_in_arming_order() {
        let mut t = Timers::new(8);
        t.arm(5, key(1.0, 3));
        t.arm(1, key(1.0, 4));
        t.arm(6, key(1.0, 2));
        t.arm(0, key(0.5, 9));
        assert_eq!(drain(&mut t), [(0, 0.5), (6, 1.0), (5, 1.0), (1, 1.0)]);
    }

    #[test]
    fn re_arming_a_slot_replaces_its_old_key() {
        let mut t = Timers::new(4);
        t.arm(2, key(1.0, 1));
        t.arm(1, key(2.0, 2));
        t.arm(2, key(3.0, 3));
        assert_eq!(t.peek(), Some((key(2.0, 2), 1)));
        // Earlier again: a re-arm may move a slot either way.
        t.arm(2, key(0.5, 4));
        assert_eq!(drain(&mut t), [(2, 0.5), (1, 2.0)], "one timer per slot");
    }

    #[test]
    fn an_emptied_slot_never_fires() {
        let mut t = Timers::new(3);
        assert_eq!(t.peek(), None);
        t.arm(0, key(1.0, 1));
        t.arm(2, key(2.0, 2));
        t.empty(0);
        t.empty(1);
        assert_eq!(drain(&mut t), [(2, 2.0)]);
        assert_eq!(t.peek(), None);
    }

    #[test]
    fn every_slot_fires_in_key_order_at_any_width() {
        for n in [1, 5, 16, 65] {
            let mut t = Timers::new(n);
            // Times descend with the slot, and every third slot shares a
            // time with its neighbour, so both halves of the key decide.
            let mut expect: Vec<(u128, usize)> = (0..n)
                .map(|slot| (key(((n - slot) / 3) as f64, slot as u64), slot))
                .collect();
            for &(k, slot) in &expect {
                t.arm(slot, k);
            }
            expect.sort();
            let fired: Vec<usize> = drain(&mut t).into_iter().map(|(s, _)| s).collect();
            let want: Vec<usize> = expect.into_iter().map(|(_, s)| s).collect();
            assert_eq!(fired, want, "n = {n}");
        }
    }

    /// The slots against the queue they replace: a heap of every timer ever
    /// armed, tagged with its slot's generation, that drops a timer unseen
    /// once its slot was re-armed or emptied. Random arm / re-arm / empty /
    /// fire sequences must fire the same timers in the same order.
    #[test]
    fn timer_slots_fire_in_the_order_of_a_stale_dropping_heap() {
        for (seed, n) in [(1, 1), (2, 3), (3, 16), (4, 65)] {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut slots = Timers::new(n);
            let mut heap = BinaryHeap::new();
            let mut gen = vec![0u64; n];
            let (mut now, mut seq) = (0.0, 0);
            let mut fired = 0;
            for _ in 0..20_000 {
                match rng.below(8) {
                    // Arm or re-arm; few distinct delays, so times tie.
                    0..=3 => {
                        let slot = rng.below(n);
                        seq += 1;
                        let k = key(now + 0.05 * rng.below(4) as f64, seq);
                        slots.arm(slot, k);
                        gen[slot] += 1;
                        heap.push(Reverse((k, slot, gen[slot])));
                    }
                    4 => {
                        let slot = rng.below(n);
                        slots.empty(slot);
                        gen[slot] += 1;
                    }
                    _ => {
                        while let Some(&Reverse((_, slot, g))) = heap.peek() {
                            if g == gen[slot] {
                                break;
                            }
                            heap.pop();
                        }
                        let want = heap.pop().map(|Reverse((k, slot, _))| (k, slot));
                        assert_eq!(slots.peek(), want, "seed {seed}");
                        if let Some((k, slot)) = want {
                            slots.empty(slot);
                            gen[slot] += 1;
                            now = key_time(k).as_f64();
                            fired += 1;
                        }
                    }
                }
            }
            assert!(fired > 1_000, "seed {seed}: only {fired} firings");
        }
    }
}
