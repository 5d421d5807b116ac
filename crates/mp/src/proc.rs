//! What every per-process state machine shares — the [`Process`] trait, the
//! generic [`pump`], the [`CpEvent`] log — and the program-MB core itself.
//!
//! [`MbCore`] is §5's refined per-process program: process `j` owns
//! `sn.j, cp.j, ph.j` plus a local copy of `sn.(j-1), cp.(j-1), ph.(j-1)`,
//! updated only from messages whose sequence number is ordinary. Its sibling
//! [`SweepCore`](crate::sweep_core::SweepCore) is the same refinement over an
//! arbitrary sweep topology. A driver sees either through [`Process`]:
//!
//! * the threaded driver (`threaded.rs`): one core per `std::thread`, real
//!   `std::sync::mpsc` channels or sockets, a [`Clock`](crate::Clock) for
//!   resend and deadline timing;
//! * the deterministic driver (`sim.rs`, under `mb_sim.rs` and
//!   `sweep_sim.rs`): all cores stepped by one discrete-event loop over the
//!   simulated network, on virtual time.
//!
//! Control-position changes are recorded as [`CpEvent`]s carrying the
//! caller-supplied virtual time plus a globally ordered sequence number, so
//! the merged event log replays through the barrier specification oracle
//! ([`crate::telemetry::replay`]) in an order that respects both per-process
//! program order and message causality (a state change is numbered before
//! the gossip that publishes it).

use crate::channel::Delivery;
use crate::transport::Endpoint;
use ftbarrier_core::cp::Cp;
use ftbarrier_core::sn::Sn;
use ftbarrier_gcs::{SimRng, Time};
use ftbarrier_telemetry::{CausalRecorder, EventId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The state a process gossips to its successor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateMsg {
    pub sn: Sn,
    pub cp: Cp,
    pub ph: u32,
}

impl StateMsg {
    /// The §5 start state: `sn = 0, cp = ready, ph = 0`.
    pub fn initial() -> StateMsg {
        StateMsg {
            sn: Sn::Val(0),
            cp: Cp::Ready,
            ph: 0,
        }
    }

    /// The §4.1 detectable-fault state: `sn = ⊥, cp = error`.
    pub fn poisoned(ph: u32) -> StateMsg {
        StateMsg {
            sn: Sn::Bot,
            cp: Cp::Error,
            ph,
        }
    }
}

/// A recorded control-position change, for the post-hoc oracle check.
#[derive(Debug, Clone, Copy)]
pub struct CpEvent {
    pub at: Time,
    /// Global commit order (shared counter): respects per-process program
    /// order and message causality, so sorting by `seq` yields a valid
    /// linearization even when many events share a coarse timestamp.
    pub seq: u64,
    pub pid: usize,
    pub ph: u32,
    pub old: Cp,
    pub new: Cp,
}

/// Outcome of one [`MbCore::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// No guard was enabled.
    Idle,
    /// A token action fired.
    Moved,
    /// The root's token action fired *and* genuinely advanced the phase
    /// counter after a completed success sweep (not a recovery jump).
    Advanced,
}

/// Record one happens-before event of `pid`: its predecessors are the
/// process's own previous event plus the tags of every delivery absorbed
/// since then (`pending`, drained here).
#[inline(always)]
pub(crate) fn record_causal(
    recorder: &CausalRecorder,
    pending: &mut Vec<EventId>,
    pid: usize,
    label: &'static str,
    now: Time,
    ph: u32,
) {
    recorder.record_next(pid, label, now.as_f64(), Some(ph), pending);
    pending.clear();
}

/// `cp:{old:?}->{new:?}` for every pair of control positions, indexed by
/// discriminant: the recorder's label for a control-position change is
/// looked up, never formatted.
const CP_LABELS: [[&str; 5]; 5] = {
    macro_rules! from {
        ($old:literal) => {
            [
                concat!("cp:", $old, "->Ready"),
                concat!("cp:", $old, "->Execute"),
                concat!("cp:", $old, "->Success"),
                concat!("cp:", $old, "->Error"),
                concat!("cp:", $old, "->Repeat"),
            ]
        };
    }
    [
        from!("Ready"),
        from!("Execute"),
        from!("Success"),
        from!("Error"),
        from!("Repeat"),
    ]
};

/// The flight recorder's label for the control-position change `old → new`.
pub fn cp_label(old: Cp, new: Cp) -> &'static str {
    CP_LABELS[old as usize][new as usize]
}

/// A per-process state machine as its driver sees it: [`MbCore`] on the
/// ring, [`SweepCore`](crate::sweep_core::SweepCore) on any sweep topology.
/// Everything a driver does to a process — feed it deliveries, fire its
/// guards, run its phase body, publish its state, mark its liveness — goes
/// through here, so one threaded loop, one simulated loop and one [`pump`]
/// serve both programs.
pub trait Process {
    /// What this process gossips through its [`Endpoint`].
    type Msg;

    /// Fold one delivery into the local copies. Detectably corrupted and
    /// out-of-domain deliveries are discarded — masked as loss.
    fn absorb(&mut self, d: Delivery<Self::Msg>, tag: Option<EventId>);
    /// Fire one enabled guarded command, if any.
    fn step(&mut self, now: Time) -> Step;
    /// The phase body must run before the process can move on.
    fn needs_work(&self) -> bool;
    /// The phase whose body is pending.
    fn phase(&self) -> u32;
    /// The driver ran the pending phase body.
    fn work_done(&mut self, now: Time);
    /// Publish the process's own state on its port. Returns the number of
    /// links it went out on.
    fn gossip<E: Endpoint<Self::Msg> + ?Sized>(&self, ep: &mut E) -> u64;
    /// Record a retransmission heartbeat. Liveness marker: a fail-stopped
    /// process stops heartbeating, so a wedge dump's blame lands on it.
    fn record_heartbeat(&mut self, now: Time);
    /// Record the one-time fail-stop marker: the last event a crashed or
    /// muted process ever contributes, so a wedge dump's blame names it.
    fn record_fail_stop(&mut self, now: Time);
    /// The control-position changes recorded so far.
    fn events(&mut self) -> &mut Vec<CpEvent>;
}

/// The backoff cap as a power of two: quiet state is resent at most every
/// `2^RESEND_CAP_STEP × base`, i.e. every `4 × retransmit_every`.
const RESEND_CAP_STEP: u8 = 2;

/// When a process publishes its state, the one resend policy every driver
/// obeys. §5 resends only to mask loss, so a process sends on every state
/// change and then, while nothing changes, resends after `base`, `2·base`,
/// `4·base`, `4·base`, … — the interval doubles up to a fixed cap and the
/// next change resets it. The cap keeps a bounded heartbeat, so a live
/// process never falls silent for longer than [`Resend::deadline`] allows.
///
/// Every send arms the process's one resend timer, replacing the one an
/// earlier send armed: a driver keeps one timer per process, not a queue.
#[derive(Debug, Clone, Copy)]
pub struct Resend {
    base: Time,
    step: u8,
}

impl Resend {
    /// The policy at period `base`, capped at `4 × base`.
    pub fn new(base: Time) -> Resend {
        Resend { base, step: 0 }
    }

    /// The state changed and went out: restart the schedule. Returns the
    /// delay until the first resend.
    pub fn changed(&mut self) -> Time {
        self.step = 0;
        self.delay()
    }

    /// Unchanged state was resent: back off one step. Returns the delay
    /// until the next resend.
    pub fn resent(&mut self) -> Time {
        self.step = (self.step + 1).min(RESEND_CAP_STEP);
        self.delay()
    }

    fn delay(&self) -> Time {
        self.base * f64::from(1u32 << self.step)
    }

    /// The longest the next `resends` resends of unchanged state take from
    /// the last send, `resends` intervals at the cap: a silence longer than
    /// this means every one of them was lost, or the sender stopped.
    pub fn deadline(&self, resends: u32) -> Time {
        self.base * f64::from(resends << RESEND_CAP_STEP)
    }
}

/// One MB process: §5's variables plus bookkeeping shared by both backends.
pub struct MbCore {
    pub pid: usize,
    pub n_phases: u32,
    pub sn_domain: u32,
    pub own: StateMsg,
    /// Whether the current phase body has been executed.
    pub done: bool,
    /// Local copy of the predecessor's state.
    pub copy: StateMsg,
    pub rng: SimRng,
    pub events: Vec<CpEvent>,
    /// Bumped whenever `done` is reset; lets the simulated backend discard
    /// stale phase-body-completion timers after a fault.
    pub work_token: u64,
    /// Flight recorder for happens-before events (off by default; drivers
    /// arm it). Pure observer: never touches `rng` or the protocol state.
    pub recorder: CausalRecorder,
    /// Causal tags of deliveries folded into `copy` since the last recorded
    /// event; drained into that event's predecessor list.
    pending_tags: Vec<EventId>,
    seq: Arc<AtomicU64>,
}

impl MbCore {
    /// `seq` is the run-global event counter shared by every process of the
    /// system (one counter per run, not per process).
    pub fn new(
        pid: usize,
        n_phases: u32,
        sn_domain: u32,
        seed: u64,
        seq: Arc<AtomicU64>,
    ) -> MbCore {
        MbCore {
            pid,
            n_phases,
            sn_domain,
            own: StateMsg::initial(),
            done: true,
            copy: StateMsg::initial(),
            rng: SimRng::seed_from_u64(seed),
            events: Vec::new(),
            work_token: 0,
            recorder: CausalRecorder::off(),
            pending_tags: Vec::new(),
            seq,
        }
    }

    fn record(&mut self, now: Time, old: Cp) {
        if old != self.own.cp {
            self.events.push(CpEvent {
                at: now,
                seq: self.seq.fetch_add(1, Ordering::AcqRel),
                pid: self.pid,
                ph: self.own.ph,
                old,
                new: self.own.cp,
            });
            self.causal(now, cp_label(old, self.own.cp));
        }
    }

    fn causal(&mut self, now: Time, label: &'static str) {
        if !self.recorder.is_enabled() {
            return;
        }
        record_causal(
            &self.recorder,
            &mut self.pending_tags,
            self.pid,
            label,
            now,
            self.own.ph,
        );
    }

    /// Record a retransmission heartbeat. Liveness marker: a fail-stopped
    /// process stops heartbeating, so a wedge dump's blame lands on it.
    pub fn record_heartbeat(&mut self, now: Time) {
        self.causal(now, "retransmit");
    }

    /// Record the one-time fail-stop marker: the last event a crashed or
    /// muted process ever contributes, so a wedge dump's blame names it.
    pub fn record_fail_stop(&mut self, now: Time) {
        self.causal(now, "fault:stop");
    }

    /// Record an externally driven phase-body arrival (the barrier server's
    /// clients deliver these over the wire). A connected-but-stalled client
    /// stops contributing arrivals, so its core's event stream goes stale
    /// and a wedge dump's blame lands on it.
    pub fn record_arrival(&mut self, now: Time) {
        self.causal(now, "arrive");
    }

    /// The phase body must run before the success transition can fire.
    pub fn needs_work(&self) -> bool {
        self.own.cp == Cp::Execute && !self.done
    }

    fn reset_work(&mut self) {
        self.done = false;
        self.work_token += 1;
    }

    /// Mark the phase body complete. `token` must match the value of
    /// [`MbCore::work_token`] captured when the body was scheduled; a stale
    /// token (fault in between) is ignored.
    pub fn complete_work(&mut self, token: u64) {
        if token == self.work_token && self.needs_work() {
            self.done = true;
        }
    }

    /// Fire the enabled token action, if any (T1 for the root, T2 + the
    /// superposed §5 update otherwise).
    pub fn step(&mut self, now: Time) -> Step {
        if self.pid == 0 {
            self.step_root(now)
        } else {
            self.step_nonroot(now)
        }
    }

    /// Root token action (T1 + superposed update) against the local copy of
    /// process N.
    fn step_root(&mut self, now: Time) -> Step {
        let pred = self.copy;
        let token = pred.sn.is_valid() && (self.own.sn == pred.sn || !self.own.sn.is_valid());
        if !token {
            return Step::Idle;
        }
        if self.own.cp == Cp::Execute && !self.done {
            return Step::Idle; // finish the phase body first
        }
        let old = self.own.cp;
        let mut advanced = false;
        self.own.sn = pred.sn.next(self.sn_domain);
        match self.own.cp {
            Cp::Ready => {
                if pred.cp == Cp::Ready && pred.ph == self.own.ph {
                    self.own.cp = Cp::Execute;
                    self.reset_work();
                }
            }
            Cp::Execute => self.own.cp = Cp::Success,
            Cp::Success => {
                if pred.cp == Cp::Success && pred.ph == self.own.ph {
                    // The success sweep closed the ring: every process
                    // completed this phase. This is the *genuine* advance.
                    self.own.ph = (self.own.ph + 1) % self.n_phases;
                    advanced = true;
                } else {
                    self.own.ph = pred.ph;
                }
                self.own.cp = Cp::Ready;
            }
            Cp::Error | Cp::Repeat => {
                self.own.ph = pred.ph;
                self.own.cp = Cp::Ready;
            }
        }
        self.record(now, old);
        if advanced {
            Step::Advanced
        } else {
            Step::Moved
        }
    }

    /// Non-root token action (T2 + superposed update).
    fn step_nonroot(&mut self, now: Time) -> Step {
        let pred = self.copy;
        if !pred.sn.is_valid() || self.own.sn == pred.sn {
            return Step::Idle;
        }
        if self.own.cp == Cp::Execute && !self.done && pred.cp == Cp::Success {
            return Step::Idle; // gate the success transition on the phase body
        }
        let old = self.own.cp;
        self.own.sn = pred.sn;
        self.own.ph = pred.ph;
        match (old, pred.cp) {
            (Cp::Ready, Cp::Execute) => {
                self.own.cp = Cp::Execute;
                self.reset_work();
            }
            (Cp::Execute, Cp::Success) => self.own.cp = Cp::Success,
            (cp, Cp::Ready) if cp != Cp::Execute => self.own.cp = Cp::Ready,
            (cp, pred_cp) => {
                if cp == Cp::Error || pred_cp != cp {
                    self.own.cp = Cp::Repeat;
                }
            }
        }
        self.record(now, old);
        Step::Moved
    }

    /// Inject the §4.1 detectable fault: `ph, cp, sn := ?, error, ⊥`, plus
    /// flagged local copies per §5.
    pub fn apply_poison(&mut self, now: Time) {
        let old = self.own.cp;
        let ph = self.rng.range_u64(0, self.n_phases as u64) as u32;
        self.own = StateMsg::poisoned(ph);
        self.reset_work();
        self.copy = StateMsg::poisoned(0);
        self.record(now, old);
        self.causal(now, "fault:detectable");
    }

    /// Inject an undetectable fault: every variable set to an arbitrary
    /// domain value.
    pub fn apply_scramble(&mut self, now: Time) {
        let old = self.own.cp;
        let arbitrary = |rng: &mut SimRng, n_phases: u32, l: u32| StateMsg {
            sn: Sn::arbitrary(l, rng),
            cp: *rng.choose(&Cp::RB_DOMAIN),
            ph: rng.range_u64(0, n_phases as u64) as u32,
        };
        self.own = arbitrary(&mut self.rng, self.n_phases, self.sn_domain);
        self.copy = arbitrary(&mut self.rng, self.n_phases, self.sn_domain);
        self.done = self.rng.chance(0.5);
        self.work_token += 1;
        self.record(now, old);
        self.causal(now, "fault:undetectable");
    }

    /// Inject an undetectable fault into the *local neighbor copy only*:
    /// `own` stays intact, but the cached predecessor state is replaced by an
    /// arbitrary domain value. This models a corrupted receive buffer — the
    /// §5 refinement's new failure surface relative to the shared-memory
    /// ring, where no such cache exists.
    pub fn apply_copy_scramble(&mut self, _now: Time) {
        self.copy = StateMsg {
            sn: Sn::arbitrary(self.sn_domain, &mut self.rng),
            cp: *self.rng.choose(&Cp::RB_DOMAIN),
            ph: self.rng.range_u64(0, self.n_phases as u64) as u32,
        };
    }

    /// Rejoin the barrier at a phase boundary after a graft (§4.1 reboot +
    /// membership repair): adopt the upstream neighbor's sequence number and
    /// phase with `cp = ready`, so the next token sweep picks this process up
    /// without re-executing the upstream's current phase body.
    pub fn rejoin(&mut self, now: Time, upstream: StateMsg) {
        let old = self.own.cp;
        self.own = StateMsg {
            sn: upstream.sn,
            cp: Cp::Ready,
            ph: upstream.ph,
        };
        self.done = true;
        self.work_token += 1;
        self.copy = upstream;
        self.record(now, old);
    }

    /// Fold one delivery from the predecessor into the local copy.
    ///
    /// §5: "the local copy of sn.(j-1) in j is updated only if sn.(j-1) is
    /// different from ⊥ and ⊤". Detectably corrupted deliveries are
    /// discarded — masked as loss.
    pub fn on_delivery(&mut self, d: Delivery<StateMsg>) {
        self.on_delivery_tagged(d, None);
    }

    /// [`MbCore::on_delivery`] with the sender's causal tag: when the
    /// delivery is actually folded into the local copy, the tag becomes a
    /// happens-before predecessor of this process's next recorded event —
    /// the exact message-delivery edge, not an inferred one.
    pub fn on_delivery_tagged(&mut self, d: Delivery<StateMsg>, tag: Option<EventId>) {
        if let Delivery::Ok(m) = d {
            if m.sn.is_valid() {
                self.copy = m;
                if self.recorder.is_enabled() {
                    if let Some(id) = tag {
                        self.pending_tags.push(id);
                    }
                }
            }
        }
    }
}

/// Result of draining the inbox and stepping a core to quiescence.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pumped {
    /// At least one token action fired (the process should gossip).
    pub moved: bool,
    /// Genuine root phase advances observed.
    pub advances: u64,
}

/// Drain everything pending on `ep`, then fire guarded commands until none
/// is enabled or the phase body gates progress. Every driver pumps every
/// core through this single function — the behaviour under any transport is
/// the same code path.
///
/// `now` is read *after* a drain that absorbed something (and once at the
/// start), so an event is never stamped earlier than the send of a delivery
/// it absorbed — on a live clock a thread can be preempted between reading
/// the time and draining its port.
pub fn pump<C: Process + ?Sized, E: Endpoint<C::Msg> + ?Sized>(
    core: &mut C,
    ep: &mut E,
    mut now: impl FnMut() -> Time,
) -> Pumped {
    let mut out = Pumped::default();
    let mut at = None;
    loop {
        while let Some((d, tag)) = ep.try_recv_tagged() {
            core.absorb(d, tag);
            at = None;
        }
        match core.step(*at.get_or_insert_with(&mut now)) {
            Step::Idle => break,
            Step::Moved => out.moved = true,
            Step::Advanced => {
                out.moved = true;
                out.advances += 1;
            }
        }
        if core.needs_work() {
            // The phase body gates further steps; the driver decides how the
            // body "runs" (a closure on the threaded backend, a virtual-time
            // timer on the simulated one).
            break;
        }
    }
    out
}

impl Process for MbCore {
    type Msg = StateMsg;

    fn absorb(&mut self, d: Delivery<StateMsg>, tag: Option<EventId>) {
        self.on_delivery_tagged(d, tag);
    }
    fn step(&mut self, now: Time) -> Step {
        MbCore::step(self, now)
    }
    fn needs_work(&self) -> bool {
        MbCore::needs_work(self)
    }
    fn phase(&self) -> u32 {
        self.own.ph
    }
    fn work_done(&mut self, _now: Time) {
        self.complete_work(self.work_token);
    }
    fn gossip<E: Endpoint + ?Sized>(&self, ep: &mut E) -> u64 {
        // Tagged with the sender's latest causal event.
        ep.send_tagged(self.own, self.recorder.last(self.pid));
        1
    }
    fn record_heartbeat(&mut self, now: Time) {
        MbCore::record_heartbeat(self, now);
    }
    fn record_fail_stop(&mut self, now: Time) {
        MbCore::record_fail_stop(self, now);
    }
    fn events(&mut self) -> &mut Vec<CpEvent> {
        &mut self.events
    }
}

/// The MB sequence-number domain for `n` processes: `L > 2N+1` with headroom.
pub fn sn_domain(n: usize) -> u32 {
    4 * n as u32 + 3
}

/// Validate a caller-chosen MB sequence-number domain against the paper's
/// `L > 2N+1` precondition (§5; with `n` processes and up to one message per
/// link in flight, fewer than `2N+2` distinct values can confuse a stale
/// in-flight `sn` with a live one and duplicate the token).
pub fn try_sn_domain(n: usize, l: u32) -> Result<u32, ftbarrier_core::DomainError> {
    let min = 2 * n as u32 + 2;
    if l < min {
        return Err(ftbarrier_core::DomainError::LTooSmall { l, min });
    }
    Ok(l)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The label table is the `format!` it replaced, for all 25 pairs.
    #[test]
    fn cp_label_matches_the_debug_format() {
        for old in Cp::RB_DOMAIN {
            for new in Cp::RB_DOMAIN {
                assert_eq!(cp_label(old, new), format!("cp:{old:?}->{new:?}"));
            }
        }
    }

    /// Delays until each of the next `k` resends of unchanged state.
    fn schedule(r: &mut Resend, k: usize) -> Vec<f64> {
        (0..k).map(|_| r.resent().as_f64()).collect()
    }

    #[test]
    fn resend_interval_doubles_to_the_cap_and_a_change_resets_it() {
        let mut r = Resend::new(Time::new(0.25));
        assert_eq!(r.changed().as_f64(), 0.25);
        assert_eq!(schedule(&mut r, 5), [0.5, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!(r.changed().as_f64(), 0.25, "a change resets the backoff");
        assert_eq!(schedule(&mut r, 2), [0.5, 1.0]);
    }

    #[test]
    fn deadline_is_the_sum_of_the_next_resend_intervals_at_the_cap() {
        for earlier in 0..4 {
            for k in [1, 3, 10] {
                // After a change and `earlier` resends, the next `k` resends
                // take the pending delay plus `k - 1` more intervals.
                let mut r = Resend::new(Time::new(0.05));
                let mut pending = r.changed().as_f64();
                for _ in 0..earlier {
                    pending = r.resent().as_f64();
                }
                let sum = pending + schedule(&mut r, k as usize - 1).iter().sum::<f64>();
                let deadline = r.deadline(k).as_f64();
                if earlier >= usize::from(RESEND_CAP_STEP) {
                    assert!(
                        (deadline - sum).abs() < 1e-12,
                        "{earlier}, {k}: {deadline} vs {sum}"
                    );
                } else {
                    assert!(sum < deadline, "{earlier}, {k}: {deadline} vs {sum}");
                }
            }
        }
        // The default detector's ten resends: ten intervals of 0.2.
        assert_eq!(Resend::new(Time::new(0.05)).deadline(10).as_f64(), 2.0);
    }
}
