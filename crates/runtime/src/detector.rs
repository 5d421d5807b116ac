//! Heartbeat failure detection and group membership for the threaded
//! runtime.
//!
//! The deterministic backends detect fail-stop by token silence on virtual
//! time; real threads need a wall-clock detector. [`FailureDetector`] is the
//! classic heartbeat/timeout scheme with two robustness refinements:
//!
//! * **Exponential backoff** — each missed deadline lengthens the next one
//!   (`timeout *= backoff`, capped), so a merely-slow process gets
//!   geometrically more patience before the verdict;
//! * **Suspicion threshold** — a process is suspected only after a run of
//!   consecutive missed deadlines, so one scheduling hiccup is never read
//!   as a crash.
//!
//! All timing is read through a [`Clock`], so the entire detector runs on
//! virtual time in tests ([`TestClock`]) with not a single sleep.
//!
//! [`GroupMembership`] stacks the detector on a
//! [`Membership`] over the barrier's sweep
//! topology: a suspicion splices the process out of the view (bumping the
//! epoch), a heartbeat from a suspected process grafts it back. The root
//! (process 0, the paper's distinguished detector) is monitored but never
//! spliced — [`Membership`] refuses it, mirroring §4.1 where the root *is*
//! the recovery authority.

use crate::lock;
use ftbarrier_telemetry::{names, Telemetry};
use ftbarrier_topology::{Membership, MembershipView, SweepDag};
use std::sync::{Arc, Mutex};

pub use ftbarrier_telemetry::{Clock, TestClock, WallClock};

/// Tuning of the heartbeat detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// First heartbeat deadline after a heartbeat (seconds).
    pub base_timeout: f64,
    /// Deadline multiplier per consecutive miss (≥ 1).
    pub backoff: f64,
    /// Cap on the per-miss deadline.
    pub max_timeout: f64,
    /// Consecutive missed deadlines before a process is suspected (≥ 1).
    pub suspicion_threshold: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            base_timeout: 0.1,
            backoff: 2.0,
            max_timeout: 2.0,
            suspicion_threshold: 3,
        }
    }
}

impl DetectorConfig {
    fn validate(&self) {
        assert!(
            self.base_timeout > 0.0 && self.base_timeout.is_finite(),
            "base_timeout must be positive"
        );
        assert!(self.backoff >= 1.0, "backoff must be >= 1");
        assert!(self.max_timeout >= self.base_timeout, "max < base timeout");
        assert!(self.suspicion_threshold >= 1, "threshold must be >= 1");
    }
}

/// A verdict change of the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorEvent {
    /// The process missed `suspicion_threshold` consecutive deadlines.
    Suspected(usize),
    /// A suspected process produced a heartbeat again.
    Rejoined(usize),
}

#[derive(Debug, Clone, Copy)]
struct ProcState {
    last_heartbeat: f64,
    /// Current deadline length (grows by `backoff` per miss).
    timeout: f64,
    /// Virtual instant of the current deadline.
    deadline: f64,
    strikes: u32,
    /// When the current run of misses started (for repair latency).
    first_strike_at: Option<f64>,
    suspected: bool,
}

/// Heartbeat/timeout failure detector over `n` processes.
///
/// Workers call [`FailureDetector::heartbeat`] from their own threads; one
/// observer (typically the root) calls [`FailureDetector::poll`]
/// periodically and reacts to the returned [`DetectorEvent`]s. Interior
/// mutability makes one `Arc<FailureDetector>` shareable across the group.
pub struct FailureDetector {
    cfg: DetectorConfig,
    clock: Arc<dyn Clock>,
    procs: Mutex<Vec<ProcState>>,
}

impl FailureDetector {
    pub fn new(n: usize, cfg: DetectorConfig, clock: Arc<dyn Clock>) -> FailureDetector {
        cfg.validate();
        let now = clock.now();
        let fresh = ProcState {
            last_heartbeat: now,
            timeout: cfg.base_timeout,
            deadline: now + cfg.base_timeout,
            strikes: 0,
            first_strike_at: None,
            suspected: false,
        };
        FailureDetector {
            cfg,
            clock,
            procs: Mutex::new(vec![fresh; n]),
        }
    }

    pub fn config(&self) -> DetectorConfig {
        self.cfg
    }

    /// Record a sign of life from `pid`: strikes clear, the deadline resets
    /// to the base timeout. Returns `true` if the process was suspected
    /// until now (the caller should graft it back).
    pub fn heartbeat(&self, pid: usize) -> bool {
        self.heartbeat_at(pid, self.clock.now())
    }

    /// [`FailureDetector::heartbeat`] for a caller that already read the
    /// detector's clock: `now` must come from that clock.
    pub fn heartbeat_at(&self, pid: usize, now: f64) -> bool {
        let mut procs = lock(&self.procs);
        let p = &mut procs[pid];
        let was_suspected = p.suspected;
        p.last_heartbeat = now;
        p.timeout = self.cfg.base_timeout;
        p.deadline = now + self.cfg.base_timeout;
        p.strikes = 0;
        p.first_strike_at = None;
        p.suspected = false;
        was_suspected
    }

    /// Is `pid` currently suspected?
    pub fn is_suspected(&self, pid: usize) -> bool {
        lock(&self.procs)[pid].suspected
    }

    /// Check every deadline against the clock and return the verdict
    /// changes since the last poll. A missed deadline adds a strike and
    /// backs the next deadline off exponentially; `suspicion_threshold`
    /// consecutive strikes emit [`DetectorEvent::Suspected`]. A heartbeat
    /// from a suspected process surfaces as [`DetectorEvent::Rejoined`]
    /// (detected inside [`FailureDetector::heartbeat`], reported here for
    /// pollers that do not watch its return value).
    pub fn poll(&self) -> Vec<DetectorEvent> {
        let now = self.clock.now();
        let mut events = Vec::new();
        let mut procs = lock(&self.procs);
        for (pid, p) in procs.iter_mut().enumerate() {
            if p.suspected {
                continue;
            }
            // Consume every deadline the clock has passed; each one is a
            // strike and lengthens the next wait.
            while now >= p.deadline && p.strikes < self.cfg.suspicion_threshold {
                if p.first_strike_at.is_none() {
                    p.first_strike_at = Some(p.deadline);
                }
                p.strikes += 1;
                p.timeout = (p.timeout * self.cfg.backoff).min(self.cfg.max_timeout);
                p.deadline += p.timeout;
            }
            if p.strikes >= self.cfg.suspicion_threshold {
                p.suspected = true;
                events.push(DetectorEvent::Suspected(pid));
            }
        }
        events
    }

    /// Repair latency bookkeeping: when the current run of misses started.
    fn first_strike_at(&self, pid: usize) -> Option<f64> {
        lock(&self.procs)[pid].first_strike_at
    }

    /// Record an out-of-band death verdict (e.g. the OS reported the peer's
    /// connection closed): mark `pid` suspected *now*, without waiting out
    /// any heartbeat deadline. Idempotent; a later heartbeat clears it and
    /// reports the rejoin exactly as after a timeout-based suspicion.
    pub fn mark_suspected(&self, pid: usize) {
        let mut procs = lock(&self.procs);
        let p = &mut procs[pid];
        p.strikes = self.cfg.suspicion_threshold;
        p.suspected = true;
    }
}

/// A membership reconfiguration decided by [`GroupMembership::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEvent {
    /// Suspected and spliced out of the view; carries the new epoch.
    Spliced { pid: usize, epoch: u64 },
    /// Heartbeat after suspicion: grafted back in; carries the new epoch.
    Grafted { pid: usize, epoch: u64 },
}

/// The detector stacked on a dynamic [`Membership`]: suspicions splice, the
/// first heartbeat after a suspicion grafts, every reconfiguration bumps the
/// epoch and is mirrored into telemetry under the shared metric names.
pub struct GroupMembership {
    detector: FailureDetector,
    membership: Mutex<Membership>,
    telemetry: Telemetry,
}

impl GroupMembership {
    pub fn new(base: SweepDag, cfg: DetectorConfig, clock: Arc<dyn Clock>) -> GroupMembership {
        let n = base.num_processes();
        GroupMembership {
            detector: FailureDetector::new(n, cfg, clock),
            membership: Mutex::new(Membership::new(base)),
            telemetry: Telemetry::off(),
        }
    }

    /// Mirror reconfigurations into `telemetry` (epoch gauge, suspicion and
    /// rejoin counters, reconfiguration-latency histogram).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> GroupMembership {
        self.telemetry = telemetry;
        self
    }

    pub fn detector(&self) -> &FailureDetector {
        &self.detector
    }

    /// A worker's sign of life. A heartbeat from a spliced-out process
    /// grafts it straight back (no need to wait for the next tick).
    pub fn heartbeat(&self, pid: usize) -> Option<MembershipEvent> {
        self.heartbeat_at(pid, self.detector.clock.now())
    }

    /// [`GroupMembership::heartbeat`] for a caller that already read the
    /// group's clock (see [`FailureDetector::heartbeat_at`]).
    pub fn heartbeat_at(&self, pid: usize, now: f64) -> Option<MembershipEvent> {
        if self.detector.heartbeat_at(pid, now) {
            return self.graft(pid);
        }
        None
    }

    /// Poll the detector and apply every verdict to the membership.
    /// Suspicions of the root are refused by the membership (the root is
    /// the recovery authority) and dropped.
    pub fn tick(&self) -> Vec<MembershipEvent> {
        let mut out = Vec::new();
        for ev in self.detector.poll() {
            match ev {
                DetectorEvent::Suspected(pid) => {
                    let epoch = {
                        let mut m = lock(&self.membership);
                        match m.splice(pid) {
                            Ok(view) => view.epoch,
                            Err(_) => continue, // root, or too few survivors
                        }
                    };
                    self.telemetry.counter(names::SUSPICIONS_TOTAL, &[], 1);
                    self.telemetry
                        .gauge(names::MEMBERSHIP_EPOCH, &[], epoch as f64);
                    if let Some(t0) = self.detector.first_strike_at(pid) {
                        let now = self.detector.clock.now();
                        self.telemetry
                            .observe(names::RECONFIGURATION_LATENCY, &[], now - t0);
                    }
                    out.push(MembershipEvent::Spliced { pid, epoch });
                }
                DetectorEvent::Rejoined(pid) => {
                    if let Some(ev) = self.graft(pid) {
                        out.push(ev);
                    }
                }
            }
        }
        out
    }

    /// Splice `pid` out immediately, bypassing the heartbeat deadlines: the
    /// caller observed a *certain* death signal (a session socket hit EOF —
    /// the OS, not a timeout, says the peer is gone). The detector is
    /// marked so a later heartbeat from the process grafts it back through
    /// the normal rejoin path. Returns `None` for the root (the recovery
    /// authority is immortal) or an already-spliced process.
    pub fn force_splice(&self, pid: usize) -> Option<MembershipEvent> {
        let epoch = {
            let mut m = lock(&self.membership);
            m.splice(pid).ok()?.epoch
        };
        self.detector.mark_suspected(pid);
        self.telemetry.counter(names::SUSPICIONS_TOTAL, &[], 1);
        self.telemetry
            .gauge(names::MEMBERSHIP_EPOCH, &[], epoch as f64);
        Some(MembershipEvent::Spliced { pid, epoch })
    }

    fn graft(&self, pid: usize) -> Option<MembershipEvent> {
        let epoch = {
            let mut m = lock(&self.membership);
            m.graft(pid).ok()?.epoch
        };
        self.telemetry.counter(names::REJOINS_TOTAL, &[], 1);
        self.telemetry
            .gauge(names::MEMBERSHIP_EPOCH, &[], epoch as f64);
        Some(MembershipEvent::Grafted { pid, epoch })
    }

    pub fn epoch(&self) -> u64 {
        lock(&self.membership).epoch()
    }

    pub fn is_member(&self, pid: usize) -> bool {
        lock(&self.membership).is_alive(pid)
    }

    pub fn live_count(&self) -> usize {
        lock(&self.membership).live_count()
    }

    /// The contracted topology of the current epoch.
    pub fn view(&self) -> MembershipView {
        lock(&self.membership).view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbarrier_telemetry::TimeDomain;

    fn cfg() -> DetectorConfig {
        DetectorConfig {
            base_timeout: 0.1,
            backoff: 2.0,
            max_timeout: 1.0,
            suspicion_threshold: 3,
        }
    }

    #[test]
    fn regular_heartbeats_are_never_suspected() {
        let clock = TestClock::new();
        let d = FailureDetector::new(3, cfg(), clock.clone());
        for _ in 0..50 {
            clock.advance(0.05);
            for pid in 0..3 {
                d.heartbeat(pid);
            }
            assert!(d.poll().is_empty());
        }
    }

    #[test]
    fn suspicion_needs_threshold_misses_with_backoff() {
        // Deadlines after the last heartbeat at t=0: 0.1, then +0.2, then
        // +0.4 — the third strike (and the suspicion) completes at 0.7.
        let clock = TestClock::new();
        let d = FailureDetector::new(2, cfg(), clock.clone());
        d.heartbeat(1); // t = 0

        clock.advance(0.65); // past 2 deadlines, not the 3rd (0.7)
        assert!(d.poll().is_empty(), "only 2 strikes so far");
        assert!(!d.is_suspected(1));

        clock.advance(0.1); // t = 0.75 > 0.7
        let events = d.poll();
        assert!(events.contains(&DetectorEvent::Suspected(1)), "{events:?}");
        assert!(d.is_suspected(1));
        // Suspicion is edge-triggered: no repeat on the next poll.
        assert!(d.poll().is_empty());
    }

    #[test]
    fn one_hiccup_is_forgiven_by_a_heartbeat() {
        let clock = TestClock::new();
        let d = FailureDetector::new(2, cfg(), clock.clone());
        clock.advance(0.15); // one missed deadline
        assert!(d.poll().is_empty());
        d.heartbeat(0);
        d.heartbeat(1); // strikes reset, deadline back to base
        clock.advance(0.65); // 2 strikes from the fresh baseline
        d.heartbeat(0);
        assert!(d.poll().is_empty());
        assert!(!d.is_suspected(1));
    }

    #[test]
    fn heartbeat_after_suspicion_reports_rejoin() {
        let clock = TestClock::new();
        let d = FailureDetector::new(2, cfg(), clock.clone());
        clock.advance(10.0);
        assert!(!d.poll().is_empty());
        assert!(d.is_suspected(1));
        assert!(d.heartbeat(1), "heartbeat must report the rejoin");
        assert!(!d.is_suspected(1));
        assert!(d.poll().is_empty());
    }

    #[test]
    fn group_membership_splices_and_grafts_on_the_ring() {
        let clock = TestClock::new();
        let g = GroupMembership::new(SweepDag::ring(4).unwrap(), cfg(), clock.clone());
        // Everyone but pid 2 keeps beating.
        for _ in 0..20 {
            clock.advance(0.1);
            for pid in [0usize, 1, 3] {
                g.heartbeat(pid);
            }
            g.tick();
        }
        assert!(!g.is_member(2), "silent process must be spliced");
        assert_eq!(g.epoch(), 1);
        assert_eq!(g.live_count(), 3);
        // The contracted ring re-links around the hole: 3 now reads 1.
        assert_eq!(g.view().upstream_of(3), Some(1));

        // The process comes back: its first heartbeat grafts it.
        let ev = g.heartbeat(2);
        assert_eq!(ev, Some(MembershipEvent::Grafted { pid: 2, epoch: 2 }));
        assert!(g.is_member(2));
        assert_eq!(g.view().upstream_of(3), Some(2));
    }

    #[test]
    fn force_splice_is_immediate_and_heartbeat_grafts_back() {
        let clock = TestClock::new();
        let g = GroupMembership::new(SweepDag::ring(4).unwrap(), cfg(), clock.clone());
        // No time passes: an EOF verdict splices without any deadline.
        let ev = g.force_splice(2);
        assert_eq!(ev, Some(MembershipEvent::Spliced { pid: 2, epoch: 1 }));
        assert!(!g.is_member(2));
        assert!(g.detector().is_suspected(2));
        // Idempotent: the process is already out.
        assert_eq!(g.force_splice(2), None);
        // The root is refused.
        assert_eq!(g.force_splice(0), None);
        assert!(g.is_member(0));
        // A reconnect heartbeats and grafts through the normal path.
        let ev = g.heartbeat(2);
        assert_eq!(ev, Some(MembershipEvent::Grafted { pid: 2, epoch: 2 }));
        assert!(g.is_member(2));
        // The detector does not re-suspect it on the next poll.
        assert!(g.tick().is_empty());
    }

    #[test]
    fn root_is_monitored_but_never_spliced() {
        let clock = TestClock::new();
        let g = GroupMembership::new(SweepDag::ring(3).unwrap(), cfg(), clock.clone());
        clock.advance(10.0); // everyone silent, including the root
        let events = g.tick();
        assert!(g.is_member(0), "the root is immortal");
        assert!(events
            .iter()
            .all(|e| !matches!(e, MembershipEvent::Spliced { pid: 0, .. })));
        assert!(
            g.detector().is_suspected(0),
            "still visible to the detector"
        );
    }

    #[test]
    fn reconfigurations_are_mirrored_into_telemetry() {
        let clock = TestClock::new();
        let tele = Telemetry::recording(TimeDomain::Virtual);
        let g = GroupMembership::new(SweepDag::ring(4).unwrap(), cfg(), clock.clone())
            .with_telemetry(tele.clone());
        for _ in 0..10 {
            clock.advance(0.2);
            for pid in [0usize, 1, 3] {
                g.heartbeat(pid);
            }
            g.tick();
        }
        g.heartbeat(2);
        let snap = tele.snapshot();
        assert_eq!(snap.metrics.counter(names::SUSPICIONS_TOTAL, &[]), 1);
        assert_eq!(snap.metrics.counter(names::REJOINS_TOTAL, &[]), 1);
        assert_eq!(snap.metrics.gauge(names::MEMBERSHIP_EPOCH, &[]), Some(2.0));
        assert!(snap
            .metrics
            .histogram(names::RECONFIGURATION_LATENCY, &[])
            .is_some());
    }

    #[test]
    #[should_panic]
    fn rejects_sub_one_backoff() {
        let _ = FailureDetector::new(
            2,
            DetectorConfig {
                backoff: 0.5,
                ..cfg()
            },
            TestClock::new(),
        );
    }
}
