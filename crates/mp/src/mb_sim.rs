//! Deterministic program MB: the same §5 process state machine as the
//! threaded backend ([`crate::mb`]), driven by a discrete-event loop over
//! the simulated network ([`crate::simnet`]) on virtual time.
//!
//! One seed determines everything — per-link latencies and fault draws, the
//! fault plan's random perturbation values, the event interleaving — so a
//! run is byte-for-byte replayable: the [`TraceLog`] of two runs with the
//! same [`SimMbConfig`] is identical (entry for entry, and so in its
//! rendered text), and every test and experiment on this backend is free of
//! wall-clock effects.
//!
//! The fault plan covers the paper's full fault menu: message loss,
//! duplication, reordering and detectable corruption (per-link
//! probabilities), link partitions with healing, the §4.1 detectable process
//! fault (scheduled or Poisson-arriving `poison`), the undetectable
//! `scramble`, and process crash/reboot — a crash silences the process and
//! drops its inbound traffic; the reboot re-enters through the §4.1
//! detectable-fault state (`sn = ⊥, cp = error`).
//!
//! # Dynamic membership
//!
//! With [`SimMbConfig::churn`] enabled the run carries a
//! [`Membership`] over the base ring and the
//! root (the driver, acting as the paper's distinguished detector) runs a
//! periodic membership check:
//!
//! * **Detection** — a live member whose link has been silent longer than
//!   [`ChurnConfig::suspect_after`]` / retransmit_every` resends take at
//!   the [`Resend`] backoff cap ([`Resend::deadline`]) is suspected
//!   fail-stop and *spliced* out: its ring neighbors are re-linked and the
//!   epoch is bumped. Because every process resends its full state until it
//!   changes (and publishes every change at once), the splice itself
//!   regenerates the sweep — the successor simply reads the predecessor of
//!   the dead process from then on.
//! * **Epochs on the wire** — every message is stamped with the sender's
//!   believed epoch ([`WireMsg`]). A receiver drops older-epoch messages as
//!   detectably stale (masked like loss) and adopts newer epochs — a state
//!   change it publishes at once — so the root's epoch bump sweeps the ring
//!   like any other gossip.
//! * **Rejoin** — traffic from a live spliced-out process (a healed
//!   partition), or the reboot of a spliced-out crashed process, triggers a
//!   *graft*: the ring edges its departure contracted are restored and the
//!   §4.1 rejoin handshake runs — the rejoiner adopts `sn`/`ph` from its
//!   upstream neighbor with `cp = ready` and participates from the next
//!   sweep (at worst the in-flight phase is re-executed, per §4.1).
//! * **Anti-entropy** — the periodic check also re-derives every member's
//!   routing from the membership and fast-forwards the root past the
//!   largest epoch any member believes, so a forged epoch or a scrambled
//!   membership view re-stabilizes instead of wedging the ring.
//!
//! With `churn: None` (the default) the run is byte-identical to the
//! pre-membership backend; with churn enabled but no faults firing it still
//! is — the check draws no randomness and writes no trace unless it acts.

use crate::channel::Delivery;
use crate::proc::{pump, sn_domain, try_sn_domain, CpEvent, MbCore, Process, Resend, StateMsg};
use crate::simnet::{LinkConfig, NetStats, SimNet};
use crate::telemetry::replay_segments;
use crate::transport::Endpoint;
use ftbarrier_core::spec::Violation;
use ftbarrier_core::{DomainError, Sn};
use ftbarrier_gcs::{SimRng, Time};
use ftbarrier_telemetry::{names, CausalRecorder, EventId, Telemetry};
use ftbarrier_topology::Membership;
use ftbarrier_topology::SweepDag;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A scheduled process crash: the process stops stepping and gossiping at
/// `at` and its inbound deliveries are dropped; at `reboot_at` it resumes in
/// the §4.1 detectable-fault state (or, if it was spliced out in the
/// meantime, through the membership rejoin handshake).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashPlan {
    pub pid: usize,
    pub at: f64,
    pub reboot_at: f64,
}

/// A scheduled link partition: sends on `link` are dropped in `[at, heal_at)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionPlan {
    pub link: usize,
    pub at: f64,
    pub heal_at: f64,
}

/// The scheduled (and optionally Poisson-arriving) fault injections of a
/// simulated MB run. All times are virtual.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// `(time, pid)`: §4.1 detectable process faults.
    pub poisons: Vec<(f64, usize)>,
    /// `(time, pid)`: undetectable faults (arbitrary state).
    pub scrambles: Vec<(f64, usize)>,
    /// `(time, pid)`: undetectable corruption of the *local neighbor copy*
    /// only — `own` stays intact, the cached predecessor state is replaced
    /// by an arbitrary domain value (a scrambled receive buffer).
    pub copy_scrambles: Vec<(f64, usize)>,
    /// `(time, link)`: forge the `sn` of every message in flight on `link`
    /// to one arbitrary value drawn from the full `u32` range — i.e.
    /// possibly far beyond the `L > 2N+1` window. Unlike the fault model's
    /// `corruption` probability this is undetectable: the payload is
    /// rewritten in place and the receiver sees a well-formed message.
    pub forges: Vec<(f64, usize)>,
    /// `(time, link)`: forge the membership *epoch* of every message in
    /// flight on `link` to one arbitrary `u64`. Requires churn to be
    /// enabled; the anti-entropy pass of the membership check re-stabilizes
    /// the ring afterwards.
    pub epoch_forges: Vec<(f64, usize)>,
    /// `(time, pid)`: scramble a process's *membership view* — its believed
    /// epoch and which link it reads deliveries from. Requires churn to be
    /// enabled; repaired by the next membership check.
    pub view_scrambles: Vec<(f64, usize)>,
    pub crashes: Vec<CrashPlan>,
    pub partitions: Vec<PartitionPlan>,
    /// Poisson rate of additional poisons landing on uniformly random
    /// processes (0 = none) — the figs' fault-frequency axis.
    pub poison_rate: f64,
}

/// Failure-detector parameters of the root's periodic membership check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Missed resends that suspect fail-stop, counted in base periods: a
    /// live member is suspected once its link has been silent for longer
    /// than `suspect_after / retransmit_every` (rounded, at least one)
    /// resends take at the backoff cap. The default 0.5 is ten resends at
    /// the default period, 2.0 of silence. Without backoff this would be
    /// plain silence longer than `suspect_after`; it must comfortably exceed
    /// the worst link latency, or a slow link reads as a dead process.
    pub suspect_after: f64,
    /// Period of the membership check (detection + anti-entropy).
    pub check_every: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            suspect_after: 0.5,
            check_every: 0.1,
        }
    }
}

/// Configuration of a deterministic MB run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMbConfig {
    /// Number of processes (≥ 2).
    pub n: usize,
    /// Cyclic phase domain (≥ 2).
    pub n_phases: u32,
    /// Genuine root phase advances before the run stops.
    pub target_phases: u64,
    pub seed: u64,
    /// Model of every link `j → j+1`.
    pub link: LinkConfig,
    /// Base period of the [`Resend`] policy (resends of unchanged state
    /// mask message loss), virtual time.
    pub retransmit_every: f64,
    /// Virtual duration of one phase body (the paper's unit of measure).
    pub phase_cost: f64,
    /// Virtual-time safety limit.
    pub max_time: f64,
    pub plan: FaultPlan,
    /// Sequence-number domain override; `None` uses the default
    /// [`sn_domain`]`(n)`. Validated against the paper's `L > 2N+1`
    /// precondition at run start.
    pub sn_domain: Option<u32>,
    /// Dynamic membership: `None` runs the fixed ring (the pre-membership
    /// behavior, byte-identical traces); `Some` enables fail-stop
    /// detection, splice/graft repair, and epoch-stamped messages.
    pub churn: Option<ChurnConfig>,
    /// Capacity of the always-on causal flight recorder (recent events
    /// kept per run; older ones are evicted and counted). A pure observer:
    /// the trace stays byte-identical whatever the capacity.
    pub flight_capacity: usize,
}

impl SimMbConfig {
    /// Check the paper's domain precondition `L > 2N+1` for an explicit
    /// sequence-number domain (the default is always valid).
    pub fn validate(&self) -> Result<(), DomainError> {
        if let Some(l) = self.sn_domain {
            try_sn_domain(self.n, l)?;
        }
        Ok(())
    }
}

impl Default for SimMbConfig {
    fn default() -> Self {
        SimMbConfig {
            n: 4,
            n_phases: 8,
            target_phases: 12,
            seed: 0x51B,
            link: LinkConfig::perfect(0.01),
            retransmit_every: 0.05,
            phase_cost: 1.0,
            max_time: 10_000.0,
            plan: FaultPlan::default(),
            sn_domain: None,
            churn: None,
            flight_capacity: 8192,
        }
    }
}

/// What actually travels on a simulated link: the §5 state gossip stamped
/// with the sender's believed membership epoch. With churn disabled every
/// epoch is 0 and the stamp is inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireMsg {
    pub epoch: u64,
    pub msg: StateMsg,
}

/// One line of a [`TraceLog`]. The per-event lines are stored as the values
/// they print; the rare fault and membership lines are rendered when they
/// happen.
#[derive(Debug, Clone, PartialEq)]
enum TraceEntry {
    /// `t {at} deliver x{count}`: a network scheduling point.
    Deliver { at: Time, count: usize },
    /// `  p{pid} -> {own:?} adv={advances}`: a process moved and gossiped.
    Move {
        pid: usize,
        own: StateMsg,
        advances: u64,
    },
    /// `t {at} work-done p{pid} tok={token}`: a phase body finished.
    WorkDone { at: Time, pid: usize, token: u64 },
    /// Any other line, already rendered (without its newline).
    Text(Box<str>),
}

/// The deterministic run log of [`run`]: the same lines the run always
/// logged, kept as data and formatted only by [`TraceLog::render`] (or
/// `Display`), so a run nobody reads pays no formatting. Equal logs render
/// to equal text.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    entries: Vec<TraceEntry>,
}

impl TraceLog {
    /// The log as text, one `\n`-terminated line per entry.
    pub fn render(&self) -> String {
        self.to_string()
    }

    fn text(&mut self, line: fmt::Arguments<'_>) {
        self.entries.push(TraceEntry::Text(line.to_string().into()));
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
                TraceEntry::Text(line) => writeln!(f, "{line}")?,
            }
        }
        Ok(())
    }
}

/// Result of a deterministic MB run.
#[derive(Debug)]
pub struct SimMbReport {
    /// Genuine phase advances observed at the root.
    pub root_phase_advances: u64,
    /// Specification violations found by replaying the event log through
    /// the oracle (per membership epoch when churn reconfigured the ring).
    pub violations: Vec<Violation>,
    /// Successful phases per the oracle.
    pub phases_completed: u64,
    /// Instances consumed per successful phase.
    pub instance_counts: Vec<u64>,
    /// Messages sent per process (including retransmissions).
    pub messages_sent: Vec<u64>,
    /// Whether the run hit its target (vs. the virtual-time limit).
    pub reached_target: bool,
    /// Virtual time when the run stopped.
    pub virtual_elapsed: Time,
    /// Scheduling points processed by the event loop (membership checks are
    /// counted separately in [`SimMbReport::churn_checks`]).
    pub events_processed: u64,
    pub net: NetStats,
    /// Full deterministic run log: identical across runs of the same config,
    /// diverging for different seeds. Text only on [`TraceLog::render`].
    pub trace: TraceLog,
    /// Periodic membership checks run (0 with churn disabled).
    pub churn_checks: u64,
    /// Processes suspected fail-stop and spliced out.
    pub suspicions: u64,
    /// Processes grafted back in (healed partition or reboot of a spliced
    /// process).
    pub rejoins: u64,
    /// Final membership epoch (0 with churn disabled or no reconfiguration).
    pub epoch: u64,
    /// Deliveries dropped for carrying a stale membership epoch.
    pub stale_epoch_dropped: u64,
    /// Per reconfiguration: virtual time from the epoch bump until every
    /// live member had adopted the new epoch.
    pub reconfig_latencies: Vec<f64>,
    /// Successful phases within the last membership segment (equals
    /// [`SimMbReport::phases_completed`] when no reconfiguration happened).
    pub phases_after_last_change: u64,
    /// Virtual time of the last reconfiguration (0 when none happened) —
    /// with [`SimMbReport::phases_after_last_change`], the post-repair
    /// availability numerator/denominator.
    pub last_change_at: f64,
    /// The merged control-position event log, in global commit order.
    pub cp_events: Vec<CpEvent>,
    /// Flight-recorder dump of the recent causal events (replayable JSON),
    /// written when the run stalled — it went quiescent or hit its
    /// virtual-time limit without reaching the phase target.
    pub flight_dump: Option<String>,
}

impl SimMbReport {
    pub fn mean_instances_per_phase(&self) -> f64 {
        if self.instance_counts.is_empty() {
            return f64::NAN;
        }
        self.instance_counts.iter().sum::<u64>() as f64 / self.instance_counts.len() as f64
    }
}

/// Mutable membership state shared between the driver and the endpoints:
/// who believes which epoch, and which link each process reads.
struct ChurnShared {
    /// Per-process believed membership epoch, stamped on every send.
    epoch: Vec<u64>,
    /// Per-process link to pop deliveries from (the ring predecessor in the
    /// current view; with churn disabled, always `pid - 1 mod n`).
    pred_link: Vec<usize>,
    stale_dropped: u64,
}

/// Simulated-network endpoint: the second implementation of the MB
/// transport trait (single-threaded, so the network is shared via `Rc`).
/// Epoch stamping and stale-epoch filtering live here, below the `Endpoint`
/// trait — the MB state machine never sees membership metadata.
pub struct SimEndpoint {
    net: Rc<RefCell<SimNet<WireMsg>>>,
    churn: Rc<RefCell<ChurnShared>>,
    pid: usize,
    out_link: usize,
}

impl Endpoint for SimEndpoint {
    fn flush(&mut self) -> bool {
        self.net.borrow_mut().flush(self.out_link);
        true
    }

    fn send_tagged(&mut self, msg: StateMsg, tag: Option<EventId>) -> bool {
        let epoch = self.churn.borrow().epoch[self.pid];
        self.net
            .borrow_mut()
            .send_tagged(self.out_link, WireMsg { epoch, msg }, tag);
        true
    }

    fn try_recv_tagged(&mut self) -> Option<(Delivery<StateMsg>, Option<EventId>)> {
        loop {
            let in_link = self.churn.borrow().pred_link[self.pid];
            match self.net.borrow_mut().pop_inbox_tagged(in_link)? {
                // A withheld payload never reaches the state machine, so
                // its causal tag is withheld with it.
                (Delivery::Corrupted, _) => return Some((Delivery::Corrupted, None)),
                (Delivery::Ok(w), tag) => {
                    let mut sh = self.churn.borrow_mut();
                    if w.epoch < sh.epoch[self.pid] {
                        // A stale-epoch message is detectably from a
                        // pre-reconfiguration view: masked as loss.
                        sh.stale_dropped += 1;
                        continue;
                    }
                    // Adopting a newer epoch is how the root's bump sweeps
                    // the ring.
                    sh.epoch[self.pid] = w.epoch;
                    return Some((Delivery::Ok(w.msg), tag));
                }
            }
        }
    }
}

/// Control events of the event loop (message deliveries live in the
/// [`SimNet`] queue; everything else lives here). `Resend { pid, gen }` is
/// `pid`'s resend timer of generation `gen`; only the newest is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ctl {
    Resend { pid: usize, gen: u64 },
    WorkDone { pid: usize, token: u64 },
    Poison { pid: usize },
    Scramble { pid: usize },
    ScrambleCopy { pid: usize },
    Forge { link: usize },
    EpochForge { link: usize },
    ScrambleView { pid: usize },
    Crash { pid: usize },
    Reboot { pid: usize },
    Cut { link: usize },
    Heal { link: usize },
    PoissonPoison,
    ChurnCheck,
}

struct Driver {
    cfg: SimMbConfig,
    cores: Vec<MbCore>,
    eps: Vec<SimEndpoint>,
    net: Rc<RefCell<SimNet<WireMsg>>>,
    ctl: BinaryHeap<Reverse<(Time, u64, Ctl)>>,
    ctl_seq: u64,
    now: Time,
    alive: Vec<bool>,
    /// `work_token` value for which a `WorkDone` is already scheduled.
    work_scheduled: Vec<Option<u64>>,
    messages_sent: Vec<u64>,
    /// Per process: its resend schedule, which also names its one live
    /// resend timer.
    resend: Vec<Resend>,
    advances: u64,
    fault_rng: SimRng,
    trace: TraceLog,
    events_processed: u64,
    // --- dynamic membership (inert when `cfg.churn` is `None`) ---
    membership: Option<Membership>,
    churn: Rc<RefCell<ChurnShared>>,
    seq: Arc<AtomicU64>,
    /// Current successor of each link's sender (`None`: spliced out).
    succ_of: Vec<Option<usize>>,
    /// Virtual time of the last delivery that arrived from each sender.
    last_heard: Vec<f64>,
    /// Epoch bumps not yet adopted by every live member: `(epoch, at)`.
    pending_epochs: Vec<(u64, f64)>,
    /// Oracle segmentation: `(first event seq, members)` per epoch.
    segments: Vec<(u64, Vec<usize>)>,
    /// Virtual time each segment started (index-parallel to `segments`).
    segment_times: Vec<f64>,
    churn_checks: u64,
    suspicions: u64,
    rejoins: u64,
    reconfig_latencies: Vec<f64>,
}

impl Driver {
    fn schedule(&mut self, at: f64, ev: Ctl) {
        assert!(at.is_finite() && at >= 0.0, "fault plan time {at} invalid");
        self.ctl_seq += 1;
        self.ctl.push(Reverse((Time::new(at), self.ctl_seq, ev)));
    }

    /// Publish `pid`'s changed state and restart its resend schedule.
    fn gossip(&mut self, pid: usize) {
        let timer = self.resend[pid].changed();
        self.publish(pid, timer);
    }

    /// Send `pid`'s state, then arm its one resend timer, generation `gen`,
    /// `delay` from now (superseding any earlier one).
    fn publish(&mut self, pid: usize, (delay, gen): (Time, u64)) {
        self.messages_sent[pid] += self.cores[pid].gossip(&mut self.eps[pid]);
        self.schedule((self.now + delay).as_f64(), Ctl::Resend { pid, gen });
    }

    /// A live resend timer fired. A crashed process's timer dies with it
    /// (the reboot publishes afresh); a live one releases any reorder-held
    /// message (the link went quiet) and resends its unchanged state one
    /// backoff step later. The heartbeat keeps live processes visibly fresh
    /// in the flight recorder, so a crashed one stands out as stalest in a
    /// wedge dump.
    fn resend(&mut self, pid: usize) {
        if !self.alive[pid] {
            return;
        }
        self.eps[pid].flush();
        self.cores[pid].record_heartbeat(self.now);
        let timer = self.resend[pid].resent();
        self.publish(pid, timer);
    }

    fn epoch(&self, pid: usize) -> u64 {
        self.churn.borrow().epoch[pid]
    }

    /// Pump `pid` to quiescence, publishing every change — a move, or the
    /// adoption of a newer epoch — and handling the phase-body gate
    /// (instant when `phase_cost == 0`, a scheduled timer otherwise).
    fn drive(&mut self, pid: usize) {
        let now = self.now;
        loop {
            let epoch = self.epoch(pid);
            let out = pump(&mut self.cores[pid], &mut self.eps[pid], || now);
            self.advances += out.advances;
            if out.moved {
                self.gossip(pid);
                self.trace.entries.push(TraceEntry::Move {
                    pid,
                    own: self.cores[pid].own,
                    advances: out.advances,
                });
            } else if self.epoch(pid) != epoch {
                self.gossip(pid);
            }
            if self.cores[pid].needs_work() {
                let token = self.cores[pid].work_token;
                if self.cfg.phase_cost == 0.0 {
                    self.cores[pid].complete_work(token);
                    continue;
                }
                if self.work_scheduled[pid] != Some(token) {
                    self.work_scheduled[pid] = Some(token);
                    let at = self.now.as_f64() + self.cfg.phase_cost;
                    self.schedule(at, Ctl::WorkDone { pid, token });
                }
            }
            return;
        }
    }

    fn poison(&mut self, pid: usize, kind: &str) {
        self.trace
            .text(format_args!("t {} {kind} p{pid}", self.now));
        if kind == "scramble" {
            self.cores[pid].apply_scramble(self.now);
        } else {
            self.cores[pid].apply_poison(self.now);
        }
        self.gossip(pid);
        self.drive(pid);
    }

    fn drain_link(&mut self, link: usize) {
        let mut net = self.net.borrow_mut();
        while net.pop_inbox(link).is_some() {}
    }

    /// Record the current membership as a new oracle segment, starting at
    /// the next event sequence number.
    fn push_segment(&mut self) {
        let mem = self.membership.as_ref().expect("churn enabled");
        let members: Vec<usize> = (0..self.cfg.n).filter(|&p| mem.is_alive(p)).collect();
        self.segments
            .push((self.seq.load(Ordering::Acquire), members));
        self.segment_times.push(self.now.as_f64());
    }

    /// Re-derive routing (who reads which link, who is whose successor)
    /// from the membership. Idempotent — also the anti-entropy repair for a
    /// scrambled view.
    fn sync_routing(&mut self) {
        let mem = self.membership.as_ref().expect("churn enabled");
        let view = mem.view();
        let mut sh = self.churn.borrow_mut();
        for s in self.succ_of.iter_mut() {
            *s = None;
        }
        for p in 0..self.cfg.n {
            if mem.is_alive(p) {
                // Base position == pid on the ring; the upstream neighbor
                // through any chain of spliced processes is the link to read.
                let up = view.upstream_of(p).expect("ring member has an upstream");
                sh.pred_link[p] = up;
                self.succ_of[up] = Some(p);
            }
        }
    }

    /// Suspect `pid` fail-stop and splice it out of the ring.
    fn splice_out(&mut self, pid: usize) {
        let mem = self.membership.as_mut().expect("churn enabled");
        if mem.splice(pid).is_err() {
            // The root is immortal and a 2-member ring cannot shrink.
            return;
        }
        let e = mem.epoch();
        self.suspicions += 1;
        self.trace
            .text(format_args!("t {} suspect p{pid} epoch {e}", self.now));
        self.push_segment();
        self.sync_routing();
        // The root initiates the new epoch; its gossip sweeps it around the
        // repaired ring.
        self.churn.borrow_mut().epoch[0] = e;
        self.pending_epochs.push((e, self.now.as_f64()));
        self.gossip(0);
        // The splice may hand the token to the dead process's successor
        // right away: its next read comes from the contracted predecessor.
        let old_pred = self.churn.borrow().pred_link[pid];
        if let Some(s) = self.succ_of[old_pred] {
            if self.alive[s] {
                self.drive(s);
            }
        }
    }

    /// Graft a spliced-out process back in and run the §4.1 rejoin
    /// handshake against its upstream neighbor in the repaired view.
    fn readmit(&mut self, pid: usize) {
        let mem = self.membership.as_mut().expect("churn enabled");
        if mem.graft(pid).is_err() {
            return;
        }
        let e = mem.epoch();
        self.rejoins += 1;
        self.trace
            .text(format_args!("t {} readmit p{pid} epoch {e}", self.now));
        self.push_segment();
        self.sync_routing();
        let up = self.churn.borrow().pred_link[pid];
        let upstream = self.cores[up].own;
        self.cores[pid].rejoin(self.now, upstream);
        self.work_scheduled[pid] = None;
        {
            let mut sh = self.churn.borrow_mut();
            sh.epoch[pid] = e;
            sh.epoch[0] = e;
        }
        self.pending_epochs.push((e, self.now.as_f64()));
        self.last_heard[pid] = self.now.as_f64();
        self.gossip(0);
        self.gossip(pid);
        self.drive(pid);
    }

    /// The root's periodic membership check: anti-entropy repair of the
    /// epoch/routing state, then fail-stop detection by link silence. In a
    /// fault-free run this draws no randomness, writes no trace, and every
    /// write below is value-preserving.
    fn on_churn_check(&mut self) {
        let cc = self.cfg.churn.expect("churn enabled");
        self.schedule(self.now.as_f64() + cc.check_every, Ctl::ChurnCheck);
        let n = self.cfg.n;
        // Anti-entropy: fast-forward past the largest epoch any member
        // believes (a forged future epoch must not wedge its victim), and
        // re-derive the routing (repairing any scrambled view).
        let max_e = {
            let sh = self.churn.borrow();
            let mem = self.membership.as_ref().expect("churn enabled");
            (0..n)
                .filter(|&p| mem.is_alive(p))
                .map(|p| sh.epoch[p])
                .max()
                .unwrap_or(0)
        };
        let mem = self.membership.as_mut().expect("churn enabled");
        mem.observe_epoch(max_e);
        let e = mem.epoch();
        let root_moved = std::mem::replace(&mut self.churn.borrow_mut().epoch[0], e) != e;
        self.sync_routing();
        if root_moved {
            self.gossip(0);
        }
        // Fail-stop detection: the root is immortal, everyone else must
        // have been heard from within the time `resends` resends take at the
        // backoff cap.
        let resends = ((cc.suspect_after / self.cfg.retransmit_every).round() as u32).max(1);
        let deadline = Resend::new(Time::new(self.cfg.retransmit_every))
            .deadline(resends)
            .as_f64();
        let now = self.now.as_f64();
        let mem = self.membership.as_ref().expect("churn enabled");
        let suspects: Vec<usize> = (1..n)
            .filter(|&p| mem.is_alive(p) && now - self.last_heard[p] > deadline)
            .collect();
        for p in suspects {
            self.splice_out(p);
        }
    }

    /// Retire pending epoch bumps once every live member has adopted them.
    fn check_epochs(&mut self) {
        let min_e = {
            let sh = self.churn.borrow();
            let mem = self.membership.as_ref().expect("churn enabled");
            (0..self.cfg.n)
                .filter(|&p| mem.is_alive(p) && self.alive[p])
                .map(|p| sh.epoch[p])
                .min()
                .unwrap_or(0)
        };
        let now = self.now.as_f64();
        let mut i = 0;
        while i < self.pending_epochs.len() {
            let (e, t0) = self.pending_epochs[i];
            if min_e >= e {
                self.pending_epochs.remove(i);
                self.reconfig_latencies.push(now - t0);
                self.trace.text(format_args!(
                    "t {} epoch {e} settled dt {:.3}",
                    self.now,
                    now - t0
                ));
            } else {
                i += 1;
            }
        }
    }

    fn on_ctl(&mut self, ev: Ctl) {
        match ev {
            Ctl::Resend { pid, .. } => self.resend(pid),
            Ctl::WorkDone { pid, token } => {
                if self.alive[pid] {
                    self.trace.entries.push(TraceEntry::WorkDone {
                        at: self.now,
                        pid,
                        token,
                    });
                    self.cores[pid].complete_work(token);
                    self.drive(pid);
                }
            }
            Ctl::Poison { pid } => {
                if self.alive[pid] {
                    self.poison(pid, "poison");
                }
            }
            Ctl::Scramble { pid } => {
                if self.alive[pid] {
                    self.poison(pid, "scramble");
                }
            }
            Ctl::ScrambleCopy { pid } => {
                if self.alive[pid] {
                    self.trace
                        .text(format_args!("t {} scramble-copy p{pid}", self.now));
                    self.cores[pid].apply_copy_scramble(self.now);
                    // `own` is intact, so no gossip — but the corrupted copy
                    // may enable token actions at `pid` right now.
                    self.drive(pid);
                }
            }
            Ctl::Forge { link } => {
                // Forge beyond the L window: any u32, including values no
                // honest sender could have produced.
                let forged = self.fault_rng.next_u64() as u32;
                let hit = self.net.borrow_mut().corrupt_in_flight(link, &mut |w| {
                    w.msg.sn = Sn::Val(forged);
                });
                self.trace.text(format_args!(
                    "t {} forge link {link} sn={forged} x{hit}",
                    self.now
                ));
            }
            Ctl::EpochForge { link } => {
                let forged = self.fault_rng.next_u64();
                let hit = self.net.borrow_mut().corrupt_in_flight(link, &mut |w| {
                    w.epoch = forged;
                });
                self.trace.text(format_args!(
                    "t {} forge-epoch link {link} e={forged} x{hit}",
                    self.now
                ));
            }
            Ctl::ScrambleView { pid } => {
                let e = self.fault_rng.next_u64();
                let l = self.fault_rng.below(self.cfg.n);
                {
                    let mut sh = self.churn.borrow_mut();
                    sh.epoch[pid] = e;
                    sh.pred_link[pid] = l;
                }
                self.trace.text(format_args!(
                    "t {} scramble-view p{pid} e={e} link {l}",
                    self.now
                ));
            }
            Ctl::Crash { pid } => {
                self.trace.text(format_args!("t {} crash p{pid}", self.now));
                self.alive[pid] = false;
            }
            Ctl::Reboot { pid } => {
                self.trace
                    .text(format_args!("t {} reboot p{pid}", self.now));
                self.alive[pid] = true;
                if self.membership.as_ref().is_some_and(|m| !m.is_alive(pid)) {
                    // Detected and spliced while down: rejoin through the
                    // membership handshake instead of the blind §4.1 poison.
                    self.readmit(pid);
                } else {
                    // Rebooting is the §4.1 detectable fault made literal:
                    // the process lost its state and knows it.
                    self.poison(pid, "poison");
                    if self.membership.is_some() {
                        self.last_heard[pid] = self.now.as_f64();
                    }
                }
            }
            Ctl::Cut { link } => {
                self.trace
                    .text(format_args!("t {} cut link {link}", self.now));
                self.net.borrow_mut().set_partitioned(link, true);
            }
            Ctl::Heal { link } => {
                self.trace
                    .text(format_args!("t {} heal link {link}", self.now));
                self.net.borrow_mut().set_partitioned(link, false);
            }
            Ctl::PoissonPoison => {
                let pid = self.fault_rng.below(self.cfg.n);
                let next =
                    self.now.as_f64() + self.fault_rng.exponential(self.cfg.plan.poison_rate);
                if next.is_finite() {
                    self.schedule(next, Ctl::PoissonPoison);
                }
                if self.alive[pid] {
                    self.poison(pid, "poison");
                }
            }
            Ctl::ChurnCheck => self.on_churn_check(),
        }
    }
}

/// Run program MB deterministically. Two calls with equal configs return
/// identical reports (including the [`TraceLog`] in [`SimMbReport::trace`]).
pub fn run(cfg: SimMbConfig) -> SimMbReport {
    run_with_telemetry(cfg, &Telemetry::off())
}

/// [`run`], additionally mirroring the network into per-link telemetry and
/// replaying the merged event log into phase spans / fault instants / the
/// `mb_phase_duration` histogram (see [`crate::telemetry`]), plus the
/// membership metric family when churn is enabled. With a disabled handle
/// this is exactly [`run`]; with an enabled one the [`SimMbReport::trace`]
/// is still identical — recording never draws from the simulation's
/// RNG streams.
pub fn run_with_telemetry(cfg: SimMbConfig, telemetry: &Telemetry) -> SimMbReport {
    assert!(cfg.n >= 2, "MB needs at least two processes");
    assert!(cfg.n_phases >= 2);
    assert!(
        cfg.retransmit_every > 0.0 && cfg.retransmit_every.is_finite(),
        "retransmit_every must be positive and finite, got {}",
        cfg.retransmit_every
    );
    assert!(cfg.phase_cost >= 0.0 && cfg.phase_cost.is_finite());
    assert!(
        cfg.churn.is_some()
            || (cfg.plan.epoch_forges.is_empty() && cfg.plan.view_scrambles.is_empty()),
        "epoch/view faults require churn to be enabled"
    );
    let n = cfg.n;
    let l = match cfg.sn_domain {
        Some(l) => try_sn_domain(n, l).expect("SimMbConfig.sn_domain"),
        None => sn_domain(n),
    };

    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let seq = Arc::new(AtomicU64::new(0));
    // The always-on flight recorder, shared by every core so the ring holds
    // the run's events in global commit order.
    let recorder = CausalRecorder::bounded(cfg.flight_capacity);
    let cores: Vec<MbCore> = (0..n)
        .map(|pid| {
            let mut core = MbCore::new(pid, cfg.n_phases, l, rng.next_u64(), Arc::clone(&seq));
            core.recorder = recorder.clone();
            core
        })
        .collect();
    let net = Rc::new(RefCell::new(
        SimNet::new(vec![cfg.link; n], rng.next_u64()).with_telemetry(telemetry.clone()),
    ));
    let churn_shared = Rc::new(RefCell::new(ChurnShared {
        epoch: vec![0; n],
        pred_link: (0..n).map(|pid| (pid + n - 1) % n).collect(),
        stale_dropped: 0,
    }));
    let eps: Vec<SimEndpoint> = (0..n)
        .map(|pid| SimEndpoint {
            net: Rc::clone(&net),
            churn: Rc::clone(&churn_shared),
            pid,
            out_link: pid,
        })
        .collect();

    let membership = cfg
        .churn
        .map(|_| Membership::new(SweepDag::ring(n).expect("ring(n >= 2)")));
    let mut d = Driver {
        cores,
        eps,
        net: Rc::clone(&net),
        ctl: BinaryHeap::new(),
        ctl_seq: 0,
        now: Time::ZERO,
        alive: vec![true; n],
        work_scheduled: vec![None; n],
        messages_sent: vec![0; n],
        resend: vec![Resend::new(Time::new(cfg.retransmit_every)); n],
        advances: 0,
        fault_rng: rng.fork(),
        trace: TraceLog::default(),
        events_processed: 0,
        membership,
        churn: churn_shared,
        seq: Arc::clone(&seq),
        succ_of: (0..n).map(|pid| Some((pid + 1) % n)).collect(),
        last_heard: vec![0.0; n],
        pending_epochs: Vec::new(),
        segments: vec![(0, (0..n).collect())],
        segment_times: vec![0.0],
        churn_checks: 0,
        suspicions: 0,
        rejoins: 0,
        reconfig_latencies: Vec::new(),
        cfg,
    };

    // Schedule the fault plan (resend timers are armed by each send).
    let plan = d.cfg.plan.clone();
    for &(t, pid) in &plan.poisons {
        d.schedule(t, Ctl::Poison { pid });
    }
    for &(t, pid) in &plan.scrambles {
        d.schedule(t, Ctl::Scramble { pid });
    }
    for &(t, pid) in &plan.copy_scrambles {
        d.schedule(t, Ctl::ScrambleCopy { pid });
    }
    for &(t, link) in &plan.forges {
        d.schedule(t, Ctl::Forge { link });
    }
    for &(t, link) in &plan.epoch_forges {
        d.schedule(t, Ctl::EpochForge { link });
    }
    for &(t, pid) in &plan.view_scrambles {
        d.schedule(t, Ctl::ScrambleView { pid });
    }
    for c in &plan.crashes {
        assert!(c.reboot_at >= c.at, "reboot before crash");
        d.schedule(c.at, Ctl::Crash { pid: c.pid });
        d.schedule(c.reboot_at, Ctl::Reboot { pid: c.pid });
    }
    for p in &plan.partitions {
        assert!(p.heal_at >= p.at, "heal before cut");
        d.schedule(p.at, Ctl::Cut { link: p.link });
        d.schedule(p.heal_at, Ctl::Heal { link: p.link });
    }
    if plan.poison_rate > 0.0 {
        let first = d.fault_rng.exponential(plan.poison_rate);
        d.schedule(first, Ctl::PoissonPoison);
    }
    // Scheduled last so the control-event sequence numbers of everything
    // above are unchanged from a churn-disabled run.
    if let Some(cc) = d.cfg.churn {
        d.schedule(cc.check_every, Ctl::ChurnCheck);
    }

    // t = 0: everyone announces its start state, then takes any enabled
    // steps (the root's first token action fires immediately, as in the
    // threaded backend).
    for pid in 0..n {
        d.gossip(pid);
    }
    for pid in 0..n {
        d.drive(pid);
    }

    let max_time = Time::new(d.cfg.max_time);
    let mut reached = d.advances >= d.cfg.target_phases;
    let mut wedge_reason = "target-not-reached";
    let mut touched = Vec::new();
    while !reached {
        // A superseded resend timer is no scheduling point: drop it unseen.
        while let Some(&Reverse((_, _, Ctl::Resend { pid, gen }))) = d.ctl.peek() {
            if d.resend[pid].is_live(gen) {
                break;
            }
            d.ctl.pop();
        }
        let t_net = d.net.borrow().next_event_time();
        let t_ctl = d.ctl.peek().map(|Reverse((t, _, _))| *t);
        // Deliveries win ties against control events.
        let (t, is_net) = match (t_net, t_ctl) {
            (None, None) => {
                // Quiescent: nothing can ever happen again.
                wedge_reason = "quiescent-without-completion";
                break;
            }
            (Some(tn), None) => (tn, true),
            (None, Some(tc)) => (tc, false),
            (Some(tn), Some(tc)) => {
                if tn <= tc {
                    (tn, true)
                } else {
                    (tc, false)
                }
            }
        };
        if t > max_time {
            wedge_reason = "max_time";
            break;
        }
        d.now = t;
        let ctl_ev = if is_net {
            None
        } else {
            let Reverse((_, _, ev)) = d.ctl.pop().expect("peeked");
            Some(ev)
        };
        // The membership check is bookkept separately so the event count
        // (and the end-of-trace line) of a fault-free run is unchanged by
        // merely enabling churn.
        if ctl_ev == Some(Ctl::ChurnCheck) {
            d.churn_checks += 1;
        } else {
            d.events_processed += 1;
        }
        // Always advance the network clock to the scheduling point, even for
        // control events — messages sent while handling them must be
        // timestamped at `t`, not at the network's last delivery time.
        d.net.borrow_mut().advance_to(t, &mut touched);
        if is_net {
            d.trace.entries.push(TraceEntry::Deliver {
                at: t,
                count: touched.len(),
            });
        }
        for &link in &touched {
            if d.membership.is_some() {
                d.last_heard[link] = t.as_f64();
            }
            match d.succ_of[link] {
                Some(dest) if d.alive[dest] => d.drive(dest),
                Some(_) => {
                    // A crashed process loses its inbound traffic.
                    d.drain_link(link);
                }
                None => {
                    if d.alive[link] {
                        // Traffic from a live spliced-out process: a healed
                        // partition. Graft it back in.
                        d.readmit(link);
                        if let Some(s) = d.succ_of[link] {
                            d.drive(s);
                        }
                    } else {
                        d.drain_link(link);
                    }
                }
            }
        }
        if let Some(ev) = ctl_ev {
            d.on_ctl(ev);
        }
        if !d.pending_epochs.is_empty() {
            d.check_epochs();
        }
        reached = d.advances >= d.cfg.target_phases;
    }

    // Replay the merged event log through the barrier specification oracle,
    // in global commit order (one oracle per membership segment).
    let mut events: Vec<CpEvent> = Vec::new();
    for core in &d.cores {
        events.extend(core.events.iter().copied());
    }
    events.sort_by_key(|e| e.seq);
    let replayed = replay_segments(d.cfg.n_phases, n, &events, &d.segments);
    let last_change_at = d.segment_times.last().copied().unwrap_or(0.0);

    let epoch = d.membership.as_ref().map_or(0, |m| m.epoch());
    let stale_epoch_dropped = d.churn.borrow().stale_dropped;
    if telemetry.is_enabled() {
        crate::telemetry::record_cp_timeline(telemetry, &events, d.now);
        for (pid, &sent) in d.messages_sent.iter().enumerate() {
            telemetry.counter("mb_messages_sent_total", &[("pid", &pid.to_string())], sent);
        }
        telemetry.counter("mb_root_phase_advances_total", &[], d.advances);
        if d.membership.is_some() {
            telemetry.gauge(names::MEMBERSHIP_EPOCH, &[], epoch as f64);
            telemetry.counter(names::SUSPICIONS_TOTAL, &[], d.suspicions);
            telemetry.counter(names::REJOINS_TOTAL, &[], d.rejoins);
            telemetry.counter(names::STALE_EPOCH_DROPPED_TOTAL, &[], stale_epoch_dropped);
            for &lat in &d.reconfig_latencies {
                telemetry.observe(names::RECONFIGURATION_LATENCY, &[], lat);
            }
        }
    }

    let net_stats = d.net.borrow().stats();
    d.trace.text(format_args!(
        "end t {} advances {} events {} net {:?}",
        d.now, d.advances, d.events_processed, net_stats
    ));
    let flight_dump = if reached {
        None
    } else {
        Some(
            recorder
                .snapshot()
                .to_flight_json("mb_sim", n, "wedge", wedge_reason),
        )
    };
    SimMbReport {
        root_phase_advances: d.advances,
        violations: replayed.violations,
        phases_completed: replayed.phases_completed,
        instance_counts: replayed.instance_counts,
        messages_sent: d.messages_sent,
        reached_target: reached,
        virtual_elapsed: d.now,
        events_processed: d.events_processed,
        net: net_stats,
        trace: d.trace,
        churn_checks: d.churn_checks,
        suspicions: d.suspicions,
        rejoins: d.rejoins,
        epoch,
        stale_epoch_dropped,
        reconfig_latencies: d.reconfig_latencies,
        phases_after_last_change: replayed.phases_after_last_change,
        last_change_at,
        cp_events: events,
        flight_dump,
    }
}
