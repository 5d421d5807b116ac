//! One barrier group: a full MB ring living inside the server.
//!
//! Every group is an instance of the paper's program MB — one [`MbCore`]
//! per member, ring topology, shared event counter, shared flight recorder
//! — but the "processes" are remote clients and the "phase body" is
//! whatever the client does between `Arrive` frames. The server pumps the
//! ring synchronously in memory (the gossip links are function calls, so
//! the only faults are vanished sessions), grants `needs_work` from a
//! ledger of wire arrivals, and converts each genuine root advance into a
//! `Release` broadcast.
//!
//! Vanished members are §4.1 detectable faults: an EOF or write error is
//! certain death and is spliced immediately via
//! [`GroupMembership::force_splice`]; a silent-but-connected session falls
//! to the heartbeat detector and is spliced on suspicion. Either way the
//! ring closes over the survivors and the success sweep no longer waits on
//! the dead member's arrivals.

use ftbarrier_gcs::Time;
use ftbarrier_mp::channel::Delivery;
use ftbarrier_mp::proc::{sn_domain, MbCore, Step};
use ftbarrier_runtime::detector::{Clock, DetectorConfig, GroupMembership, MembershipEvent};
use ftbarrier_telemetry::{CausalRecorder, Telemetry};
use ftbarrier_topology::{MembershipView, SweepDag};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Tuning for one group (the server applies the same profile to all).
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// Phase-counter domain of the MB cores (`ph` wraps here; any value
    /// ≥ 2 is correct, it only bounds recovery ambiguity).
    pub n_phases: u32,
    /// Seed for the cores' (unused-on-this-path) rngs.
    pub seed: u64,
    /// Heartbeat detector profile for silent sessions.
    pub detector: DetectorConfig,
    /// Seconds without a release (while ≥ 2 members live) before the group
    /// dumps its flight recorder once.
    pub wedge_timeout: f64,
    /// Seconds a non-root member may be the *sole* blocker of the ring —
    /// heartbeating (so the detector stays quiet) while every other live
    /// member has finished its phase body — before it is spliced as
    /// silent-Byzantine. Bounds how long correct members wait on a peer
    /// that sends valid frames but never `Arrive`.
    pub stall_splice_timeout: f64,
    /// Capacity of the group's causal flight recorder, shared out evenly
    /// among the members' lanes.
    pub flight_capacity: usize,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            n_phases: 8,
            seed: 0xB127_CAFE,
            detector: DetectorConfig::default(),
            wedge_timeout: 5.0,
            stall_splice_timeout: 20.0,
            flight_capacity: 512,
        }
    }
}

/// One root success-sweep completion, ready to broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupRelease {
    /// 0-based phase index (total releases since the group sealed).
    pub phase: u64,
    /// Membership epoch at release time.
    pub epoch: u64,
    /// Live member count at release time.
    pub live: u32,
}

/// What one [`BarrierGroup::tick`] produced.
#[derive(Debug, Default)]
pub struct GroupTick {
    pub releases: Vec<GroupRelease>,
    /// Members spliced by the heartbeat detector this tick (sessions the
    /// server should close).
    pub spliced: Vec<usize>,
    /// A one-shot flight-recorder dump if the group wedged.
    pub flight_dump: Option<String>,
}

/// Outcome of reporting a member's death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillOutcome {
    /// Member spliced; the group continues with the survivors.
    Spliced,
    /// The root died: the group cannot continue (§4.1's recovery authority
    /// is gone) and the server must tear it down.
    RootDied,
    /// The member was already dead; nothing changed.
    AlreadyDead,
}

pub struct BarrierGroup {
    size: usize,
    cores: Vec<MbCore>,
    membership: GroupMembership,
    /// All `pump` needs of the membership view: each member's live upstream
    /// neighbour (`None` for a spliced member, and for a ring contracted to
    /// one seat). Rebuilt only when the membership epoch moves past
    /// `upstream_epoch` — contracting the ring costs more than pumping it.
    upstream: Vec<Option<usize>>,
    upstream_epoch: u64,
    clock: Arc<dyn Clock>,
    recorder: CausalRecorder,
    /// Arrivals granted by the wire (`Arrive` frames), per member.
    arrivals: Vec<u64>,
    /// Arrivals consumed as phase-body completions, per member.
    consumed: Vec<u64>,
    /// `ph` value of the member's most recent completed body: a recovery
    /// re-execution of the same `ph` is completed for free (the paper's
    /// phases are idempotent under re-execution; the client already ran
    /// the body once).
    last_completed: Vec<Option<u32>>,
    dead: Vec<bool>,
    /// Members whose core hit `needs_work` with no banked arrival during
    /// the latest pump — the clients the ring is waiting on.
    blocked_on_arrive: Vec<bool>,
    /// When each member became the ring's sole blocker (see
    /// [`GroupConfig::stall_splice_timeout`]); cleared whenever the
    /// condition lapses.
    starved_since: Vec<Option<f64>>,
    phases_released: u64,
    last_release_at: f64,
    wedge_timeout: f64,
    stall_splice_timeout: f64,
    wedge_dumped: bool,
}

impl BarrierGroup {
    /// A sealed group of `size` members (ids `0..size`, 0 is the root).
    pub fn new(
        size: usize,
        cfg: &GroupConfig,
        clock: Arc<dyn Clock>,
        telemetry: Telemetry,
    ) -> BarrierGroup {
        assert!(size >= 2, "a barrier group needs at least 2 members");
        let seq = Arc::new(AtomicU64::new(0));
        let recorder = CausalRecorder::bounded(size, cfg.flight_capacity);
        let cores = (0..size)
            .map(|pid| {
                let mut core = MbCore::new(
                    pid,
                    cfg.n_phases,
                    sn_domain(size),
                    cfg.seed ^ (pid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    seq.clone(),
                );
                core.recorder = recorder.clone();
                core
            })
            .collect();
        let ring = SweepDag::ring(size).expect("ring(size >= 2)");
        let membership =
            GroupMembership::new(ring, cfg.detector, clock.clone()).with_telemetry(telemetry);
        let now = clock.now();
        BarrierGroup {
            size,
            cores,
            upstream: upstream_table(&membership.view(), size),
            upstream_epoch: membership.epoch(),
            membership,
            clock,
            recorder,
            arrivals: vec![0; size],
            consumed: vec![0; size],
            last_completed: vec![None; size],
            dead: vec![false; size],
            blocked_on_arrive: vec![false; size],
            starved_since: vec![None; size],
            phases_released: 0,
            last_release_at: now,
            wedge_timeout: cfg.wedge_timeout,
            stall_splice_timeout: cfg.stall_splice_timeout,
            wedge_dumped: false,
        }
    }

    pub fn size(&self) -> usize {
        self.size
    }

    pub fn phases_released(&self) -> u64 {
        self.phases_released
    }

    pub fn epoch(&self) -> u64 {
        self.membership.epoch()
    }

    /// Members whose sessions are still alive. Tracked from the group's
    /// own death ledger, not the membership view — the view refuses to
    /// drop below 2 seats, but a 2-member group really can lose one.
    pub fn live_count(&self) -> usize {
        self.dead.iter().filter(|d| !**d).count()
    }

    pub fn is_dead(&self, member: usize) -> bool {
        self.dead[member]
    }

    /// A member's `Arrive` frame: bank one phase-body completion and count
    /// it as a liveness heartbeat.
    pub fn arrive(&mut self, member: usize) {
        if self.dead[member] {
            return;
        }
        self.arrivals[member] += 1;
        let now = self.clock.now();
        self.cores[member].record_arrival(Time::new(now));
        self.membership.heartbeat_at(member, now);
    }

    /// A member's `Ping`: liveness only, no arrival.
    pub fn heartbeat(&mut self, member: usize) {
        if !self.dead[member] {
            self.membership.heartbeat(member);
        }
    }

    /// The member's session vanished (EOF, write error, or `Leave`): a
    /// certain §4.1 detectable fault, spliced immediately — no need to wait
    /// for heartbeat suspicion.
    pub fn kill(&mut self, member: usize) -> KillOutcome {
        if self.dead[member] {
            return KillOutcome::AlreadyDead;
        }
        if member == 0 {
            return KillOutcome::RootDied;
        }
        self.dead[member] = true;
        let now = Time::new(self.clock.now());
        self.cores[member].record_fail_stop(now);
        self.membership.force_splice(member);
        KillOutcome::Spliced
    }

    /// Advance the group: apply detector verdicts, pump the MB ring to
    /// quiescence, convert root advances into releases, and watch for
    /// wedges.
    pub fn tick(&mut self) -> GroupTick {
        let mut out = GroupTick::default();
        let now_f = self.clock.now();
        let now = Time::new(now_f);

        // Detector verdicts: silence splices. Once spliced by the server,
        // a member is dead for good — we close its session, so it can never
        // heartbeat its way back in (no graft path).
        for ev in self.membership.tick() {
            if let MembershipEvent::Spliced { pid, .. } = ev {
                if !self.dead[pid] {
                    self.dead[pid] = true;
                    self.cores[pid].record_fail_stop(now);
                    out.spliced.push(pid);
                }
            }
        }

        // Silent-Byzantine stall splice: a live non-root member that keeps
        // the detector quiet with heartbeats but is the ring's *sole*
        // blocker — its core waits on an `Arrive` while every other live
        // member has delivered its phase body — is spliced once the grace
        // period lapses, so correct members are never held hostage by a
        // peer that talks but never arrives. With two or more blockers the
        // group is legitimately mid-phase (or multiply wedged — the
        // flight-recorder watchdog's province), so the clock only runs for
        // a unique blocker, judged from the previous pump's ledger.
        let mut blockers = (0..self.size).filter(|&m| !self.dead[m] && self.blocked_on_arrive[m]);
        let sole_blocker = match (blockers.next(), blockers.next()) {
            (Some(m), None) => Some(m),
            _ => None,
        };
        for m in 1..self.size {
            let sole = sole_blocker == Some(m) && self.arrivals[m] == self.consumed[m];
            if !sole {
                self.starved_since[m] = None;
                continue;
            }
            let since = *self.starved_since[m].get_or_insert(now_f);
            if now_f - since > self.stall_splice_timeout && !self.dead[m] {
                self.dead[m] = true;
                self.cores[m].record_fail_stop(now);
                self.membership.force_splice(m);
                out.spliced.push(m);
            }
        }

        let advances = self.pump(now);
        for _ in 0..advances {
            out.releases.push(GroupRelease {
                phase: self.phases_released,
                epoch: self.membership.epoch(),
                live: self.live_count() as u32,
            });
            self.phases_released += 1;
        }
        if advances > 0 {
            self.last_release_at = now_f;
            self.wedge_dumped = false;
        }

        // The server never replays the oracle, so drop the per-core event
        // logs (the bounded flight recorder keeps the recent history).
        for core in &mut self.cores {
            core.events.clear();
        }

        if out.releases.is_empty()
            && !self.wedge_dumped
            && self.live_count() >= 2
            && now_f - self.last_release_at > self.wedge_timeout
        {
            self.wedge_dumped = true;
            out.flight_dump = Some(
                self.recorder
                    .snapshot()
                    .to_flight_json("server", self.size, "wedge", "stall"),
            );
        }
        out
    }

    /// Pump the ring to quiescence: deliver each live member its live
    /// predecessor's state and fire enabled token actions, granting
    /// `needs_work` from the arrival ledger. Returns the number of genuine
    /// root phase advances. Pass count is capped as a livelock valve; any
    /// residual progress carries over to the next tick.
    fn pump(&mut self, now: Time) -> u64 {
        // Kill, detector splice and stall splice have all bumped the epoch
        // by now; nothing else changes the view.
        let epoch = self.membership.epoch();
        if epoch != self.upstream_epoch {
            self.upstream = upstream_table(&self.membership.view(), self.size);
            self.upstream_epoch = epoch;
        }
        debug_assert!(self.upstream_is_current());
        self.blocked_on_arrive.fill(false);
        if (1..self.size).all(|m| self.dead[m]) {
            // The ring degenerated to the root alone (the root is never
            // spliced, so the last member standing is member 0; the
            // membership view itself refuses to drop below 2 seats, so
            // this is tracked from the group's own death ledger): there
            // is nobody left to synchronize with, and every banked
            // arrival is a completed phase by itself — including one the
            // core already consumed into a sweep that died with the last
            // peer (a mid-phase splice must not strand the root's
            // in-flight phase).
            self.consumed[0] = self.consumed[0].max(self.arrivals[0]);
            return self.arrivals[0].saturating_sub(self.phases_released);
        }
        let mut advances = 0;
        for _pass in 0..4 * self.size + 16 {
            let mut moved = false;
            for m in 0..self.size {
                let Some(up) = self.upstream[m] else {
                    continue;
                };
                let pred = self.cores[up].own;
                let core = &mut self.cores[m];
                core.on_delivery(Delivery::Ok(pred));
                loop {
                    if core.needs_work() {
                        let ph = core.own.ph;
                        let granted = if self.last_completed[m] == Some(ph) {
                            // Recovery re-execution of a body the client
                            // already ran: complete it for free.
                            true
                        } else if self.consumed[m] < self.arrivals[m] {
                            self.consumed[m] += 1;
                            self.last_completed[m] = Some(ph);
                            true
                        } else {
                            // Blocked on the client's next Arrive. Within
                            // one pump the ledger cannot change, so the
                            // flag is stable once set.
                            self.blocked_on_arrive[m] = true;
                            break;
                        };
                        if granted {
                            let token = core.work_token;
                            core.complete_work(token);
                        }
                    }
                    match core.step(now) {
                        Step::Idle => break,
                        Step::Moved => moved = true,
                        Step::Advanced => {
                            moved = true;
                            advances += 1;
                        }
                    }
                }
            }
            if !moved {
                break;
            }
        }
        advances
    }

    /// Whether `upstream` is what the membership's live set implies on a
    /// ring: every live member's nearest live predecessor. The same table
    /// [`upstream_table`] derives from a fresh view, restated over
    /// `is_member` so the check allocates nothing and debug builds keep
    /// `tick`'s allocation contract.
    fn upstream_is_current(&self) -> bool {
        let live = |m: usize| self.membership.is_member(m);
        (0..self.size).all(|m| {
            let nearest = (1..self.size)
                .map(|back| (m + self.size - back) % self.size)
                .find(|&p| live(p));
            self.upstream[m] == nearest.filter(|_| live(m))
        })
    }
}

/// Each of the `size` members' upstream neighbour in `view`: `None` for a
/// member spliced out of it, and for a ring contracted to a single seat.
fn upstream_table(view: &MembershipView, size: usize) -> Vec<Option<usize>> {
    (0..size)
        .map(|m| {
            if !view.contains(m) {
                return None;
            }
            view.upstream_of(m).filter(|&up| up != m)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbarrier_gcs::SimRng;
    use ftbarrier_runtime::detector::TestClock;
    use ftbarrier_telemetry::{FlightDump, Telemetry};

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// FNV-1a of a dump's events in `(pid, seq)` order: what was recorded,
    /// whichever order a snapshot merged it in.
    fn events_fnv1a(dump: &FlightDump) -> u64 {
        let mut events: Vec<_> = dump.graph.events.iter().collect();
        events.sort_by_key(|e| e.id);
        let text: String = events
            .iter()
            .map(|e| {
                let preds: Vec<_> = e.preds.iter().map(|p| (p.pid, p.seq)).collect();
                let (pid, seq, at) = (e.id.pid, e.id.seq, e.at.to_bits());
                format!("{pid} {seq} {at:x} {} {:?} {preds:?}\n", e.label, e.phase)
            })
            .collect();
        fnv1a(text.as_bytes())
    }

    fn quick_cfg() -> GroupConfig {
        GroupConfig {
            detector: DetectorConfig {
                base_timeout: 0.2,
                backoff: 1.0,
                max_timeout: 0.2,
                suspicion_threshold: 2,
            },
            wedge_timeout: 3.0,
            ..GroupConfig::default()
        }
    }

    fn group(size: usize, clock: Arc<TestClock>) -> BarrierGroup {
        BarrierGroup::new(size, &quick_cfg(), clock, Telemetry::off())
    }

    /// All members arrive → exactly one release; nobody arrives → none.
    #[test]
    fn releases_only_after_every_member_arrives() {
        let clock = TestClock::new();
        let mut g = group(4, clock.clone());
        for ph in 0u64..5 {
            for m in 0..3 {
                g.arrive(m);
                assert_eq!(g.tick().releases.len(), 0, "phase {ph}: partial");
                clock.advance(0.01);
            }
            g.arrive(3);
            let t = g.tick();
            assert_eq!(
                t.releases,
                vec![GroupRelease {
                    phase: ph,
                    epoch: 0,
                    live: 4
                }]
            );
            clock.advance(0.01);
        }
        assert_eq!(g.phases_released(), 5);
    }

    /// A killed member is spliced instantly and the survivors' next phase
    /// completes without its arrival.
    #[test]
    fn killed_member_is_spliced_and_survivors_release() {
        let clock = TestClock::new();
        let mut g = group(4, clock.clone());
        for m in 0..4 {
            g.arrive(m);
        }
        assert_eq!(g.tick().releases.len(), 1);

        assert_eq!(g.kill(2), KillOutcome::Spliced);
        assert_eq!(g.kill(2), KillOutcome::AlreadyDead);
        assert_eq!(g.epoch(), 1);
        for m in [0, 1, 3] {
            g.arrive(m);
            clock.advance(0.01);
        }
        let t = g.tick();
        assert_eq!(
            t.releases,
            vec![GroupRelease {
                phase: 1,
                epoch: 1,
                live: 3
            }]
        );
        // Late arrivals from the dead member are ignored.
        g.arrive(2);
        assert_eq!(g.tick().releases.len(), 0);
    }

    /// Root death is fatal for the group, not spliced.
    #[test]
    fn root_death_is_fatal() {
        let clock = TestClock::new();
        let mut g = group(3, clock);
        assert_eq!(g.kill(0), KillOutcome::RootDied);
        assert!(!g.is_dead(0));
    }

    /// A member that stops heartbeating entirely is spliced by the
    /// detector on tick, and the phase then completes.
    #[test]
    fn silent_member_is_spliced_by_the_detector() {
        let clock = TestClock::new();
        let mut g = group(3, clock.clone());
        // Members 0 and 1 arrive for phase 0; member 2 goes dark.
        g.arrive(0);
        g.arrive(1);
        assert_eq!(g.tick().releases.len(), 0);
        let mut spliced = Vec::new();
        for _ in 0..20 {
            clock.advance(0.25);
            g.heartbeat(0);
            g.heartbeat(1);
            let t = g.tick();
            spliced.extend(t.spliced);
            if g.phases_released() > 0 {
                break;
            }
        }
        assert_eq!(spliced, vec![2], "detector splices the silent member");
        assert_eq!(g.phases_released(), 1, "phase released by the survivors");
        assert!(g.is_dead(2));
    }

    /// A connected-but-stalled member (heartbeats, never arrives) wedges
    /// the group; the one-shot flight dump parses, replays, and blames it.
    #[test]
    fn stalled_member_wedges_and_is_blamed() {
        let clock = TestClock::new();
        let mut g = group(3, clock.clone());
        // A couple of clean phases so the recorder has history.
        for _ in 0..2 {
            for m in 0..3 {
                g.arrive(m);
            }
            clock.advance(0.05);
            assert_eq!(g.tick().releases.len(), 1);
        }
        // Phase 2: member 1 pings but never arrives.
        g.arrive(0);
        g.arrive(2);
        let mut dump = None;
        for _ in 0..40 {
            clock.advance(0.15);
            for m in 0..3 {
                g.heartbeat(m);
            }
            let t = g.tick();
            assert!(t.releases.is_empty(), "group must stay wedged");
            assert!(t.spliced.is_empty(), "pings keep the detector quiet");
            if let Some(d) = t.flight_dump {
                dump = Some(d);
                break;
            }
        }
        let dump = dump.expect("wedge dump fires after the timeout");
        let parsed = FlightDump::parse(&dump).expect("dump parses");
        // Pure observer: the recorded events — ids, times, labels, phases
        // and edges, in `(pid, seq)` order — are what the single-ring
        // recorder wrote before the per-pid lanes replaced it (golden taken
        // on the parent of that change). The bytes pin the merged order.
        assert_eq!(
            (parsed.graph.events.len(), events_fnv1a(&parsed)),
            (30, 0x91bb_cd17_b3b7_1901)
        );
        assert_eq!(
            (dump.len(), fnv1a(dump.as_bytes())),
            (3551, 0x8f56_cc62_18a2_24b9)
        );
        parsed.replay().expect("dump replays");
        assert_eq!(parsed.program, "server");
        assert_eq!(parsed.kind, "wedge");
        assert_eq!(parsed.reason, "stall");
        assert_eq!(parsed.blamed, Some(1), "the stalled member is the culprit");
        // One-shot: no second dump without progress in between.
        clock.advance(10.0);
        assert!(g.tick().flight_dump.is_none());
    }

    /// A member that heartbeats (detector quiet) but never arrives — the
    /// ring's sole blocker — is spliced after the stall grace period and
    /// the survivors release without it: correct members are never held
    /// hostage by a silent-Byzantine peer that talks but never `Arrive`s.
    #[test]
    fn pinging_never_arriving_member_is_stall_spliced() {
        let clock = TestClock::new();
        let cfg = GroupConfig {
            detector: DetectorConfig {
                base_timeout: 30.0,
                backoff: 1.0,
                max_timeout: 30.0,
                suspicion_threshold: 10,
            },
            // Wedge watchdog quiet: the stall splice must act first.
            wedge_timeout: 60.0,
            stall_splice_timeout: 1.0,
            ..GroupConfig::default()
        };
        let mut g = BarrierGroup::new(3, &cfg, clock.clone(), Telemetry::off());
        for m in 0..3 {
            g.arrive(m);
        }
        assert_eq!(g.tick().releases.len(), 1);
        // Phase 1: members 0 and 2 arrive; member 1 only pings.
        g.arrive(0);
        g.arrive(2);
        let mut spliced = Vec::new();
        for _ in 0..30 {
            clock.advance(0.25);
            for m in 0..3 {
                g.heartbeat(m);
            }
            let t = g.tick();
            spliced.extend(t.spliced);
            if g.phases_released() > 1 {
                break;
            }
        }
        assert_eq!(spliced, vec![1], "the stalling member is spliced");
        assert!(g.is_dead(1));
        assert_eq!(g.phases_released(), 2, "survivors release without it");
        // The splice is permanent and later phases flow normally.
        g.arrive(0);
        g.arrive(2);
        clock.advance(0.01);
        assert_eq!(g.tick().releases.len(), 1);
    }

    /// The stall clock only runs for a *sole* blocker: while every member
    /// is still computing its phase body (all blocked), nobody is starved
    /// and nobody gets spliced, however long the phase takes.
    #[test]
    fn slow_phases_with_no_sole_blocker_are_never_stall_spliced() {
        let clock = TestClock::new();
        let cfg = GroupConfig {
            detector: DetectorConfig {
                base_timeout: 30.0,
                backoff: 1.0,
                max_timeout: 30.0,
                suspicion_threshold: 10,
            },
            wedge_timeout: 60.0,
            stall_splice_timeout: 1.0,
            ..GroupConfig::default()
        };
        let mut g = BarrierGroup::new(3, &cfg, clock.clone(), Telemetry::off());
        for m in 0..3 {
            g.arrive(m);
        }
        assert_eq!(g.tick().releases.len(), 1);
        // Phase 1: everyone is "computing" — nobody arrives for a long
        // time, all heartbeat.
        for _ in 0..20 {
            clock.advance(0.5);
            for m in 0..3 {
                g.heartbeat(m);
            }
            let t = g.tick();
            assert!(t.spliced.is_empty(), "no sole blocker, no splice");
        }
        // The phase still completes once everyone arrives.
        for m in 0..3 {
            g.arrive(m);
        }
        clock.advance(0.01);
        assert_eq!(g.tick().releases.len(), 1);
    }

    /// The cached upstream table tracks the membership view through every
    /// way a member can leave — `kill`, detector splice, stall splice — in
    /// random order, down to the lone root (where the view itself refuses
    /// the last splice), and the ring keeps releasing over the survivors.
    #[test]
    fn cached_upstream_tracks_the_view_through_every_splice() {
        let cfg = GroupConfig {
            stall_splice_timeout: 1.0,
            wedge_timeout: 1e9,
            ..quick_cfg()
        };
        fn tick_checked(g: &mut BarrierGroup) -> GroupTick {
            let t = g.tick();
            assert_eq!(g.upstream_epoch, g.membership.epoch());
            assert_eq!(g.upstream, upstream_table(&g.membership.view(), g.size));
            assert!(g.upstream_is_current());
            t
        }
        let (mut kills, mut silences, mut stalls) = (0, 0, 0);
        for seed in 0..40u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let size = 2 + (seed % 7) as usize;
            let clock = TestClock::new();
            let mut g = BarrierGroup::new(size, &cfg, clock.clone(), Telemetry::off());
            let live = |g: &BarrierGroup| (0..size).filter(|&m| !g.is_dead(m)).collect::<Vec<_>>();
            tick_checked(&mut g);
            while g.live_count() > 1 {
                // A clean phase over whoever is left.
                for m in live(&g) {
                    g.arrive(m);
                }
                clock.advance(0.01);
                assert_eq!(tick_checked(&mut g).releases.len(), 1);

                let victim = *rng.choose(&live(&g)[1..]);
                // The view keeps two seats, so the detector cannot take
                // the root's last peer; the other two paths can.
                match rng.range_u64(if g.live_count() > 2 { 0 } else { 1 }, 3) {
                    0 => {
                        silences += 1;
                        while !g.is_dead(victim) {
                            clock.advance(0.25);
                            for m in live(&g).into_iter().filter(|&m| m != victim) {
                                g.heartbeat(m);
                            }
                            tick_checked(&mut g);
                        }
                    }
                    1 => {
                        kills += 1;
                        assert_eq!(g.kill(victim), KillOutcome::Spliced);
                        tick_checked(&mut g);
                    }
                    _ => {
                        stalls += 1;
                        for m in live(&g).into_iter().filter(|&m| m != victim) {
                            g.arrive(m);
                        }
                        while !g.is_dead(victim) {
                            clock.advance(0.25);
                            for m in live(&g) {
                                g.heartbeat(m);
                            }
                            tick_checked(&mut g);
                        }
                    }
                }
            }
            // Lone root: each arrival is a phase by itself.
            g.arrive(0);
            assert_eq!(tick_checked(&mut g).releases.len(), 1);
        }
        assert!(kills > 0 && silences > 0 && stalls > 0);
    }

    /// A 2-member group that loses its non-root member keeps releasing
    /// for the lone survivor: a 1-member barrier is trivially satisfied
    /// by each arrival.
    #[test]
    fn lone_root_survivor_keeps_releasing() {
        let clock = TestClock::new();
        let mut g = group(2, clock.clone());
        for m in 0..2 {
            g.arrive(m);
        }
        assert_eq!(g.tick().releases.len(), 1);
        assert_eq!(g.kill(1), KillOutcome::Spliced);
        for ph in 1u64..4 {
            g.arrive(0);
            clock.advance(0.01);
            let t = g.tick();
            assert_eq!(t.releases.len(), 1, "phase {ph}");
            assert_eq!(t.releases[0].phase, ph);
            assert_eq!(t.releases[0].live, 1);
        }
    }

    /// Arrivals may run one phase ahead of the ring (a fast client banks
    /// its next arrival before the slow ones finish the current phase).
    #[test]
    fn early_arrivals_are_banked() {
        let clock = TestClock::new();
        let mut g = group(2, clock.clone());
        // Member 1 arrives for phases 0..3 up front.
        for _ in 0..3 {
            g.arrive(1);
        }
        for ph in 0u64..3 {
            g.arrive(0);
            clock.advance(0.01);
            let t = g.tick();
            assert_eq!(t.releases.len(), 1, "phase {ph}");
            assert_eq!(t.releases[0].phase, ph);
        }
    }
}
