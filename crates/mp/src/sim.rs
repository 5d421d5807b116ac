//! The one deterministic driver: any [`Process`] core, stepped by a
//! discrete-event loop over the simulated network ([`crate::simnet`]) on
//! virtual time.
//!
//! [`crate::mb_sim`] runs [`MbCore`](crate::proc::MbCore)s on it and
//! [`crate::sweep_sim`] runs [`SweepCore`](crate::sweep_core::SweepCore)s;
//! each keeps only its configuration, its report and its fault menu, as a
//! `Program`. The driver owns everything else: the network and one port per
//! process onto it, the control-event heap, one [`Resend`] schedule and one
//! down flag per process, the message, advance and event counts, the run log
//! ([`TraceLog`]), the oracle replay and the flight dump.
//!
//! Event model: message deliveries wait in the [`SimNet`] queue; everything
//! else — resend timers and the program's own events — waits in the control
//! heap, keyed `(time, seq)` like the network queue. Each step takes the
//! earliest of the two (a delivery wins a tie), advances the network to its
//! time and drives the consumer of every link that received something. A
//! superseded resend timer is dropped unseen. One seed determines
//! everything, so a run is byte-for-byte replayable.

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

/// Control events: the driver's resend timers and the program's own.
/// `Resend { pid, gen }` is `pid`'s resend timer of generation `gen`; only
/// the newest is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ctl<E> {
    Resend { pid: usize, gen: u64 },
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
    pub messages_sent: Vec<u64>,
    /// Genuine root phase advances.
    pub advances: u64,
    /// Scheduling points processed.
    pub events_processed: u64,
    pub trace: TraceLog,
    pub now: Time,
    ctl: BinaryHeap<Reverse<(u128, Ctl<P::Event>)>>,
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

    fn push_ctl(&mut self, at: f64, ev: Ctl<P::Event>) {
        assert!(at.is_finite() && at >= 0.0, "fault plan time {at} invalid");
        self.ctl_seq += 1;
        self.ctl
            .push(Reverse((event_key(Time::new(at), self.ctl_seq), ev)));
    }

    /// Schedule one of the program's events at virtual time `at`.
    pub fn schedule(&mut self, at: f64, ev: P::Event) {
        self.push_ctl(at, Ctl::Of(ev));
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
        let timer = self.resend[pid].changed();
        self.publish(pid, timer);
    }

    /// Send `pid`'s state, then arm its one resend timer, generation `gen`,
    /// `delay` from now (superseding any earlier one).
    fn publish(&mut self, pid: usize, (delay, gen): (Time, u64)) {
        let port = &mut self.wire.port(pid, None);
        self.messages_sent[pid] += self.cores[pid].gossip(port);
        // A core that flushed its burst (the sweep's) left nothing staged.
        if !self.wire.staged.is_empty() {
            self.wire.send_staged(pid, false);
        }
        self.push_ctl((self.now + delay).as_f64(), Ctl::Resend { pid, gen });
    }

    /// A live resend timer fired. A down process's timer dies with it; a
    /// live one releases any reorder-held message (the link went quiet) and
    /// resends its unchanged state one backoff step later. The heartbeat
    /// keeps live processes visibly fresh in the flight recorder, so a
    /// silent one stands out as stalest in a wedge dump.
    fn resend(&mut self, pid: usize) {
        if self.down[pid] {
            return;
        }
        self.wire.send_staged(pid, true);
        self.cores[pid].record_heartbeat(self.now);
        let timer = self.resend[pid].resent();
        self.publish(pid, timer);
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
            // A superseded resend timer is no scheduling point: drop it unseen.
            while let Some(&Reverse((_, Ctl::Resend { pid, gen }))) = self.ctl.peek() {
                if self.resend[pid].is_live(gen) {
                    break;
                }
                self.ctl.pop();
            }
            let t_net = self.wire.net.next_event_time();
            let t_ctl = self.ctl.peek().map(|&Reverse((key, _))| key_time(key));
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
            let ev = (!is_net).then(|| self.ctl.pop().expect("peeked").0 .1);
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
                Some(Ctl::Resend { pid, .. }) => self.resend(pid),
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
