//! Deterministic program MB: the same §5 process state machine as the
//! threaded backend ([`crate::mb`]), driven by the deterministic driver
//! ([`crate::sim`]) over the simulated network ([`crate::simnet`]) on
//! virtual time. This module keeps MB's configuration and report, its fault
//! menu, its membership and its phase-cost timer.
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
//! detectable-fault state (`sn = ⊥, cp = error`). The plan is checked whole
//! before the run: a pid or link outside the ring, or a negative, NaN or
//! infinite `poison_rate`, panics naming its field.
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

use crate::proc::{sn_domain, try_sn_domain, CpEvent, MbCore, Pumped, Resend, StateMsg};
use crate::sim::{Program, Sim, TraceEntry};
use crate::simnet::{LinkConfig, NetStats, SimNet};
use ftbarrier_core::spec::Violation;
use ftbarrier_core::{DomainError, Sn};
use ftbarrier_gcs::{SimRng, Time};
use ftbarrier_telemetry::{names, CausalRecorder, Telemetry};
use ftbarrier_topology::Membership;
use ftbarrier_topology::SweepDag;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use crate::sim::{TraceLog, WireMsg};

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
    /// kept per run, shared out evenly among the processes' lanes; older
    /// ones are evicted and counted). A pure observer:
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

/// MB's control events. The driver owns the resend timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
/// `WorkDone(pid, token)` ends a phase body.
enum Ctl {
    WorkDone(usize, u64),
    Poison(usize),
    Scramble(usize),
    ScrambleCopy(usize),
    Forge(usize),
    EpochForge(usize),
    ScrambleView(usize),
    Crash(usize),
    Reboot(usize),
    Cut(usize),
    Heal(usize),
    PoissonPoison,
    ChurnCheck,
}

/// What MB adds to the driver: the phase-cost timer, the fault menu and
/// the membership (inert when `cfg.churn` is `None`).
struct Mb {
    cfg: SimMbConfig,
    /// `work_token` value for which a `WorkDone` is already scheduled.
    work_scheduled: Vec<Option<u64>>,
    fault_rng: SimRng,
    /// Per process: the link it reads deliveries from (the ring predecessor
    /// in its current view; with churn disabled, always `pid - 1 mod n`).
    pred_link: Vec<usize>,
    membership: Option<Membership>,
    seq: Arc<AtomicU64>,
    /// Epoch bumps not yet adopted by every live member: `(epoch, at)`.
    pending_epochs: Vec<(u64, f64)>,
    /// Oracle segmentation: `(first event seq, members)` per epoch.
    segments: Vec<(u64, Vec<usize>)>,
    /// Virtual time the last segment started.
    last_change_at: f64,
    churn_checks: u64,
    suspicions: u64,
    rejoins: u64,
    reconfig_latencies: Vec<f64>,
}

impl Program for Mb {
    type Msg = StateMsg;
    type Core = MbCore;
    type Event = Ctl;
    const NAME: &'static str = "mb_sim";
    const GOSSIP_EVERY_ROUND: bool = true;
    const LOG_DELIVERIES: bool = true;

    fn read_link(&self, pid: usize, _delivering: Option<usize>) -> Option<usize> {
        Some(self.pred_link[pid])
    }

    fn log_round(trace: &mut TraceLog, _now: Time, pid: usize, core: &MbCore, out: Pumped) {
        if out.moved {
            trace.push(TraceEntry::Move {
                pid,
                own: core.own,
                advances: out.advances,
            });
        }
    }

    /// Instant when `phase_cost == 0`, a scheduled timer otherwise.
    fn phase_body(sim: &mut Sim<Mb>, pid: usize) -> Option<bool> {
        let token = sim.cores[pid].work_token;
        if sim.prog.cfg.phase_cost == 0.0 {
            sim.cores[pid].complete_work(token);
            return Some(false);
        }
        if sim.prog.work_scheduled[pid] != Some(token) {
            sim.prog.work_scheduled[pid] = Some(token);
            let at = sim.now.as_f64() + sim.prog.cfg.phase_cost;
            sim.schedule(at, Ctl::WorkDone(pid, token));
        }
        None
    }

    fn on_event(sim: &mut Sim<Mb>, ev: Ctl) {
        let now = sim.now;
        if let Ctl::WorkDone(pid, _)
        | Ctl::Poison(pid)
        | Ctl::Scramble(pid)
        | Ctl::ScrambleCopy(pid) = ev
        {
            if sim.down[pid] {
                return;
            }
        }
        match ev {
            Ctl::WorkDone(pid, token) => {
                sim.trace.push(TraceEntry::WorkDone {
                    at: now,
                    pid,
                    token,
                });
                sim.cores[pid].complete_work(token);
                sim.drive(pid, None);
            }
            Ctl::Poison(pid) => sim.poison(pid, "poison"),
            Ctl::Scramble(pid) => sim.poison(pid, "scramble"),
            Ctl::ScrambleCopy(pid) => {
                sim.trace.text(format_args!("t {now} scramble-copy p{pid}"));
                sim.cores[pid].apply_copy_scramble(now);
                // `own` is intact, so no gossip — but the corrupted copy may
                // enable token actions at `pid` right now.
                sim.drive(pid, None);
            }
            Ctl::Forge(link) => {
                // Forge beyond the L window: any u32, including values no
                // honest sender could have produced.
                let forged = sim.prog.fault_rng.next_u64() as u32;
                let hit =
                    (sim.wire.net).corrupt_in_flight(link, &mut |w| w.msg.sn = Sn::Val(forged));
                (sim.trace).text(format_args!("t {now} forge link {link} sn={forged} x{hit}"));
            }
            Ctl::EpochForge(link) => {
                let forged = sim.prog.fault_rng.next_u64();
                let hit = (sim.wire.net).corrupt_in_flight(link, &mut |w| w.epoch = forged);
                (sim.trace).text(format_args!(
                    "t {now} forge-epoch link {link} e={forged} x{hit}"
                ));
            }
            Ctl::ScrambleView(pid) => {
                let e = sim.prog.fault_rng.next_u64();
                let l = sim.prog.fault_rng.below(sim.prog.cfg.n);
                sim.wire.epoch[pid] = e;
                sim.prog.pred_link[pid] = l;
                (sim.trace).text(format_args!("t {now} scramble-view p{pid} e={e} link {l}"));
            }
            Ctl::Crash(pid) => {
                sim.trace.text(format_args!("t {now} crash p{pid}"));
                sim.down[pid] = true;
            }
            Ctl::Reboot(pid) => {
                sim.trace.text(format_args!("t {now} reboot p{pid}"));
                sim.down[pid] = false;
                let membership = sim.prog.membership.as_ref();
                if membership.is_some_and(|m| !m.is_alive(pid)) {
                    // Detected and spliced while down: rejoin through the
                    // membership handshake instead of the blind §4.1 poison.
                    sim.readmit(pid);
                } else {
                    // Rebooting is the §4.1 detectable fault made literal:
                    // the process lost its state and knows it.
                    sim.poison(pid, "poison");
                    sim.last_heard[pid] = now.as_f64();
                }
            }
            Ctl::Cut(link) | Ctl::Heal(link) => {
                let cut = matches!(ev, Ctl::Cut(_));
                let what = if cut { "cut" } else { "heal" };
                sim.trace.text(format_args!("t {now} {what} link {link}"));
                sim.wire.net.set_partitioned(link, cut);
            }
            Ctl::PoissonPoison => {
                let pid = sim.prog.fault_rng.below(sim.prog.cfg.n);
                let rate = sim.prog.cfg.plan.poison_rate;
                let next = now.as_f64() + sim.prog.fault_rng.exponential(rate);
                if next.is_finite() {
                    sim.schedule(next, Ctl::PoissonPoison);
                }
                if !sim.down[pid] {
                    sim.poison(pid, "poison");
                }
            }
            Ctl::ChurnCheck => sim.on_churn_check(),
        }
    }

    /// Traffic from a live spliced-out process is a healed partition: graft
    /// it back in.
    fn orphan(sim: &mut Sim<Mb>, link: usize) {
        if sim.down[link] {
            sim.drain(link);
            return;
        }
        sim.readmit(link);
        if let Some(s) = sim.dest[link] {
            sim.drive(s, None);
        }
    }

    /// Retire pending epoch bumps once every live member has adopted them.
    fn after_event(sim: &mut Sim<Mb>) {
        if sim.prog.pending_epochs.is_empty() {
            return;
        }
        let mem = sim.prog.membership.as_ref().expect("churn enabled");
        let min_e = (0..sim.prog.cfg.n)
            .filter(|&p| mem.is_alive(p) && !sim.down[p])
            .map(|p| sim.wire.epoch[p])
            .min()
            .unwrap_or(0);
        let now = sim.now;
        let (mb, trace) = (&mut sim.prog, &mut sim.trace);
        mb.pending_epochs.retain(|&(e, t0)| {
            let dt = now.as_f64() - t0;
            if min_e >= e {
                mb.reconfig_latencies.push(dt);
                trace.text(format_args!("t {now} epoch {e} settled dt {dt:.3}"));
            }
            min_e < e
        });
    }
}

impl Sim<Mb> {
    fn poison(&mut self, pid: usize, kind: &str) {
        self.trace
            .text(format_args!("t {} {kind} p{pid}", self.now));
        if kind == "scramble" {
            self.cores[pid].apply_scramble(self.now);
        } else {
            self.cores[pid].apply_poison(self.now);
        }
        self.gossip(pid);
        self.drive(pid, None);
    }

    /// The membership changed to epoch `e` by `what` (a splice or a graft)
    /// of `pid`: log it, record a new oracle segment starting at the next
    /// event sequence number, re-route, and have the root announce the
    /// epoch (settled once every live member adopts it).
    fn reconfigure(&mut self, what: &str, pid: usize, e: u64) {
        let now = self.now;
        self.trace
            .text(format_args!("t {now} {what} p{pid} epoch {e}"));
        let mb = &mut self.prog;
        let mem = mb.membership.as_ref().expect("churn enabled");
        let members: Vec<usize> = (0..mb.cfg.n).filter(|&p| mem.is_alive(p)).collect();
        mb.segments.push((mb.seq.load(Ordering::Acquire), members));
        mb.last_change_at = now.as_f64();
        mb.pending_epochs.push((e, now.as_f64()));
        self.sync_routing();
        self.wire.epoch[0] = e;
    }

    /// Re-derive routing (who reads which link, who is whose successor)
    /// from the membership. Idempotent — also the anti-entropy repair for a
    /// scrambled view.
    fn sync_routing(&mut self) {
        let mb = &mut self.prog;
        let mem = mb.membership.as_ref().expect("churn enabled");
        let view = mem.view();
        self.dest.fill(None);
        for p in 0..mb.cfg.n {
            if mem.is_alive(p) {
                // Base position == pid on the ring; the upstream neighbor
                // through any chain of spliced processes is the link to read.
                let up = view.upstream_of(p).expect("ring member has an upstream");
                mb.pred_link[p] = up;
                self.dest[up] = Some(p);
            }
        }
    }

    /// Suspect `pid` fail-stop and splice it out of the ring.
    fn splice_out(&mut self, pid: usize) {
        let mem = self.prog.membership.as_mut().expect("churn enabled");
        if mem.splice(pid).is_err() {
            // The root is immortal and a 2-member ring cannot shrink.
            return;
        }
        let e = mem.epoch();
        self.prog.suspicions += 1;
        // The root initiates the new epoch; its gossip sweeps it around the
        // repaired ring.
        self.reconfigure("suspect", pid, e);
        self.gossip(0);
        // The splice may hand the token to the dead process's successor
        // right away: its next read comes from the contracted predecessor.
        let old_pred = self.prog.pred_link[pid];
        if let Some(s) = self.dest[old_pred] {
            if !self.down[s] {
                self.drive(s, None);
            }
        }
    }

    /// Graft a spliced-out process back in and run the §4.1 rejoin
    /// handshake against its upstream neighbor in the repaired view.
    fn readmit(&mut self, pid: usize) {
        let mem = self.prog.membership.as_mut().expect("churn enabled");
        if mem.graft(pid).is_err() {
            return;
        }
        let e = mem.epoch();
        self.prog.rejoins += 1;
        self.reconfigure("readmit", pid, e);
        let upstream = self.cores[self.prog.pred_link[pid]].own;
        self.cores[pid].rejoin(self.now, upstream);
        self.prog.work_scheduled[pid] = None;
        self.wire.epoch[pid] = e;
        self.last_heard[pid] = self.now.as_f64();
        self.gossip(0);
        self.gossip(pid);
        self.drive(pid, None);
    }

    /// The root's periodic membership check: anti-entropy repair of the
    /// epoch/routing state, then fail-stop detection by link silence. In a
    /// fault-free run this draws no randomness, writes no trace, and every
    /// write below is value-preserving.
    fn on_churn_check(&mut self) {
        let cc = self.prog.cfg.churn.expect("churn enabled");
        self.prog.churn_checks += 1;
        self.schedule(self.now.as_f64() + cc.check_every, Ctl::ChurnCheck);
        let n = self.prog.cfg.n;
        // Anti-entropy: fast-forward past the largest epoch any member
        // believes (a forged future epoch must not wedge its victim), and
        // re-derive the routing (repairing any scrambled view).
        let mem = self.prog.membership.as_mut().expect("churn enabled");
        let max_e = (0..n)
            .filter(|&p| mem.is_alive(p))
            .map(|p| self.wire.epoch[p])
            .max()
            .unwrap_or(0);
        mem.observe_epoch(max_e);
        let e = mem.epoch();
        let root_moved = std::mem::replace(&mut self.wire.epoch[0], e) != e;
        self.sync_routing();
        if root_moved {
            self.gossip(0);
        }
        // Fail-stop detection: the root is immortal, everyone else must
        // have been heard from within the time `resends` resends take at the
        // backoff cap.
        let resends = ((cc.suspect_after / self.prog.cfg.retransmit_every).round() as u32).max(1);
        let deadline = Resend::new(Time::new(self.prog.cfg.retransmit_every))
            .deadline(resends)
            .as_f64();
        let now = self.now.as_f64();
        let mem = self.prog.membership.as_ref().expect("churn enabled");
        let suspects: Vec<usize> = (1..n)
            .filter(|&p| mem.is_alive(p) && now - self.last_heard[p] > deadline)
            .collect();
        for p in suspects {
            self.splice_out(p);
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
    assert!(cfg.phase_cost >= 0.0 && cfg.phase_cost.is_finite());
    assert!(
        cfg.churn.is_some()
            || (cfg.plan.epoch_forges.is_empty() && cfg.plan.view_scrambles.is_empty()),
        "epoch/view faults require churn to be enabled"
    );
    assert!(
        cfg.plan.poison_rate.is_finite() && cfg.plan.poison_rate >= 0.0,
        "FaultPlan.poison_rate must be finite and >= 0, got {}",
        cfg.plan.poison_rate
    );
    let n = cfg.n;
    let l = match cfg.sn_domain {
        Some(l) => try_sn_domain(n, l).expect("SimMbConfig.sn_domain"),
        None => sn_domain(n),
    };

    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let seq = Arc::new(AtomicU64::new(0));
    // The always-on flight recorder, one lane per core; its snapshot merges
    // the lanes back into the run's causal order.
    let recorder = CausalRecorder::bounded(n, cfg.flight_capacity);
    let cores: Vec<MbCore> = (0..n)
        .map(|pid| {
            let mut core = MbCore::new(pid, cfg.n_phases, l, rng.next_u64(), Arc::clone(&seq));
            core.recorder = recorder.clone();
            core
        })
        .collect();
    let net = SimNet::new(vec![cfg.link; n], rng.next_u64()).with_telemetry(telemetry.clone());
    let mb = Mb {
        work_scheduled: vec![None; n],
        fault_rng: rng.fork(),
        pred_link: (0..n).map(|pid| (pid + n - 1) % n).collect(),
        membership: cfg
            .churn
            .map(|_| Membership::new(SweepDag::ring(n).expect("ring(n >= 2)"))),
        seq,
        pending_epochs: Vec::new(),
        segments: vec![(0, (0..n).collect())],
        last_change_at: 0.0,
        churn_checks: 0,
        suspicions: 0,
        rejoins: 0,
        reconfig_latencies: Vec::new(),
        cfg,
    };
    let ring = (0..n).map(|pid| (pid, (pid + 1) % n));
    let retransmit_every = mb.cfg.retransmit_every;
    let mut d = Sim::new(mb, cores, net, ring, retransmit_every, recorder);

    // Schedule the fault plan (resend timers are armed by each send).
    let plan = d.prog.cfg.plan.clone();
    d.schedule_plan("FaultPlan.poisons", &plan.poisons, Ctl::Poison);
    d.schedule_plan("FaultPlan.scrambles", &plan.scrambles, Ctl::Scramble);
    d.schedule_plan(
        "FaultPlan.copy_scrambles",
        &plan.copy_scrambles,
        Ctl::ScrambleCopy,
    );
    d.schedule_plan("FaultPlan.forges", &plan.forges, Ctl::Forge);
    d.schedule_plan(
        "FaultPlan.epoch_forges",
        &plan.epoch_forges,
        Ctl::EpochForge,
    );
    d.schedule_plan(
        "FaultPlan.view_scrambles",
        &plan.view_scrambles,
        Ctl::ScrambleView,
    );
    for c in &plan.crashes {
        assert!(c.reboot_at >= c.at, "reboot before crash");
        d.schedule_plan("FaultPlan.crashes", &[(c.at, c.pid)], Ctl::Crash);
        d.schedule(c.reboot_at, Ctl::Reboot(c.pid));
    }
    for p in &plan.partitions {
        assert!(p.heal_at >= p.at, "heal before cut");
        d.schedule_plan("FaultPlan.partitions", &[(p.at, p.link)], Ctl::Cut);
        d.schedule(p.heal_at, Ctl::Heal(p.link));
    }
    if plan.poison_rate > 0.0 {
        let first = d.prog.fault_rng.exponential(plan.poison_rate);
        d.schedule(first, Ctl::PoissonPoison);
    }
    // Scheduled last so the control-event sequence numbers of everything
    // above are unchanged from a churn-disabled run.
    if let Some(cc) = d.prog.cfg.churn {
        d.schedule(cc.check_every, Ctl::ChurnCheck);
    }

    // The root's first token action fires at t = 0, as in the threaded
    // backend.
    let flight_dump = d.run(d.prog.cfg.target_phases, Time::new(d.prog.cfg.max_time));
    // One oracle per membership segment.
    let segments = std::mem::take(&mut d.prog.segments);
    let (events, replayed) = d.replay(d.prog.cfg.n_phases, &segments);
    // The membership check is bookkept apart, so the event count (and the
    // end-of-trace line) of a fault-free run is unchanged by merely
    // enabling churn.
    let events_processed = d.events_processed - d.prog.churn_checks;

    let epoch = d.prog.membership.as_ref().map_or(0, |m| m.epoch());
    let stale_epoch_dropped = d.wire.stale_dropped;
    if telemetry.is_enabled() {
        crate::telemetry::record_cp_timeline(telemetry, &events, d.now);
        for (pid, &sent) in d.messages_sent.iter().enumerate() {
            telemetry.counter("mb_messages_sent_total", &[("pid", &pid.to_string())], sent);
        }
        telemetry.counter("mb_root_phase_advances_total", &[], d.advances);
        if d.prog.membership.is_some() {
            telemetry.gauge(names::MEMBERSHIP_EPOCH, &[], epoch as f64);
            telemetry.counter(names::SUSPICIONS_TOTAL, &[], d.prog.suspicions);
            telemetry.counter(names::REJOINS_TOTAL, &[], d.prog.rejoins);
            telemetry.counter(names::STALE_EPOCH_DROPPED_TOTAL, &[], stale_epoch_dropped);
            for &lat in &d.prog.reconfig_latencies {
                telemetry.observe(names::RECONFIGURATION_LATENCY, &[], lat);
            }
        }
    }

    let net_stats = d.wire.net.stats();
    d.trace.text(format_args!(
        "end t {} advances {} events {} net {:?}",
        d.now, d.advances, events_processed, net_stats
    ));
    SimMbReport {
        root_phase_advances: d.advances,
        violations: replayed.violations,
        phases_completed: replayed.phases_completed,
        instance_counts: replayed.instance_counts,
        reached_target: flight_dump.is_none(),
        virtual_elapsed: d.now,
        events_processed,
        net: net_stats,
        flight_dump,
        messages_sent: d.messages_sent,
        trace: d.trace,
        churn_checks: d.prog.churn_checks,
        suspicions: d.prog.suspicions,
        rejoins: d.prog.rejoins,
        epoch,
        stale_epoch_dropped,
        reconfig_latencies: d.prog.reconfig_latencies,
        phases_after_last_change: replayed.phases_after_last_change,
        last_change_at: d.prog.last_change_at,
        cp_events: events,
    }
}
