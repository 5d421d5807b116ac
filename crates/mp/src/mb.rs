//! Executable program MB: real threads, real (faulty) channels.
//!
//! Each process `j` runs §5's refined program via the shared
//! [`MbCore`] state machine: it owns `sn.j, cp.j, ph.j`
//! plus a local copy of `sn.(j-1), cp.(j-1), ph.(j-1)`, updated only from
//! messages whose sequence number is ordinary. This module is the façade —
//! configuration, report, fault handle; the thread loop is the shared
//! [`crate::threaded`] driver, which gossips each process's state to its
//! successor on every change and resends it on the
//! [`Resend`](crate::proc::Resend) backoff schedule while it stays unchanged.
//!
//! All timing — the resend schedule and the run deadline — flows
//! through a [`Clock`], so tests can drive a threaded run on virtual time
//! (a [`TestClock`](crate::TestClock) advanced by the test) and the
//! default test lane needs no wall-clock sleeps. The deterministic
//! single-threaded twin of this driver lives in [`crate::mb_sim`].
//!
//! Detectable process faults are injected live via [`MbProcessHandle::poison`]
//! (the §4.1 fault: `ph, cp, sn := ?, error, ⊥`, plus flagged local copies
//! per §5); undetectable ones via [`MbProcessHandle::scramble`].

use crate::channel::ChannelFaults;
use crate::proc::{sn_domain, MbCore};
use crate::threaded::{self, flags, Fault, Flags, Run, Spec, Work};
use crate::transport::{channel_ring, Endpoint};
use ftbarrier_gcs::{SimRng, Time};
use ftbarrier_telemetry::{CausalRecorder, Clock, Telemetry, WallClock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration of a threaded MB run. Times are in [`Time`] units — seconds
/// under the default [`WallClock`], virtual units under a test clock.
#[derive(Clone)]
pub struct MbConfig {
    /// Number of processes (≥ 2).
    pub n: usize,
    /// Cyclic phase domain (≥ 2).
    pub n_phases: u32,
    /// Genuine phase advances the root must observe before the run stops.
    pub target_phases: u64,
    /// Fault model of every link.
    pub faults: ChannelFaults,
    pub seed: u64,
    /// Base period of the [`Resend`](crate::proc::Resend) policy (resends
    /// of unchanged state mask message loss).
    pub retransmit_every: Time,
    /// Per-phase workload; `None` means an empty phase body.
    pub work: Work,
    /// Clock-time safety limit.
    pub deadline: Time,
    /// Observability sink (disabled by default). Recorded post-run from the
    /// merged event log; the protocol path never touches it.
    pub telemetry: Telemetry,
    /// Sequence-number domain override; `None` uses the default
    /// [`sn_domain`]`(n)`. Validated against the paper's `L > 2N+1`
    /// precondition at run start.
    pub sn_domain: Option<u32>,
    /// Capacity of the always-on causal flight recorder (recent events
    /// kept per run, shared out evenly among the processes' lanes; older
    /// ones are evicted and counted).
    pub flight_capacity: usize,
}

impl Default for MbConfig {
    fn default() -> Self {
        MbConfig {
            n: 4,
            n_phases: 8,
            target_phases: 12,
            faults: ChannelFaults::NONE,
            seed: 0x4DB,
            retransmit_every: Time::new(200e-6),
            work: None,
            deadline: Time::new(30.0),
            telemetry: Telemetry::off(),
            sn_domain: None,
            flight_capacity: 8192,
        }
    }
}

/// Result of an MB run.
pub use crate::threaded::Report as MbReport;

/// Handle for injecting faults into a running MB system.
#[derive(Clone)]
pub struct MbProcessHandle {
    poison: Flags,
    scramble: Flags,
    mute: Flags,
}

impl MbProcessHandle {
    /// Inject a detectable fault at `pid`.
    pub fn poison(&self, pid: usize) {
        self.poison[pid].store(true, Ordering::Release);
    }

    /// Inject an undetectable fault at `pid`.
    pub fn scramble(&self, pid: usize) {
        self.scramble[pid].store(true, Ordering::Release);
    }

    /// Fail-stop `pid`: it permanently stops stepping and gossiping (the
    /// observable face of a killed OS process on the socket backend). The
    /// ring wedges, the deadline fires, and the flight dump names `pid`.
    pub fn mute(&self, pid: usize) {
        self.mute[pid].store(true, Ordering::Release);
    }
}

/// A running MB system.
pub type MbRun = Run<MbCore, MbProcessHandle>;

/// Spawn an MB system on faulty `std::sync::mpsc` channels and the wall
/// clock. Use [`Run::handle`] to inject faults, then [`MbRun::join`] to
/// collect the report.
pub fn spawn(config: MbConfig) -> MbRun {
    let faults = config.faults;
    let mut rng = SimRng::seed_from_u64(config.seed);
    let endpoints = channel_ring(config.n.max(1), faults, &mut rng);
    spawn_on(config, endpoints, WallClock::start())
}

/// Spawn an MB system on caller-provided transport endpoints (one per
/// process, see [`channel_ring`]) and an explicit clock — the generic entry
/// point program MB compiles against.
pub fn spawn_on<E: Endpoint + Send + 'static>(
    config: MbConfig,
    endpoints: Vec<E>,
    clock: Arc<dyn Clock>,
) -> MbRun {
    assert!(config.n >= 2, "MB needs at least two processes");
    assert!(config.n_phases >= 2);
    let n = config.n;
    let l = match config.sn_domain {
        Some(l) => crate::proc::try_sn_domain(n, l).expect("MbConfig.sn_domain"),
        None => sn_domain(n),
    };
    let mut rng = SimRng::seed_from_u64(config.seed ^ 0xC0DE);
    let seq = Arc::new(AtomicU64::new(0));
    // The always-on flight recorder: one lane per process thread, so no
    // two threads share a lock or a cache line to record.
    let recorder = CausalRecorder::bounded(n, config.flight_capacity);
    let cores = (0..n)
        .map(|pid| {
            let mut core = MbCore::new(pid, config.n_phases, l, rng.next_u64(), seq.clone());
            core.recorder = recorder.clone();
            core
        })
        .collect();
    let handle = MbProcessHandle {
        poison: flags(n),
        scramble: flags(n),
        mute: flags(n),
    };
    let faults: Vec<Fault<MbCore>> = vec![
        (handle.poison.clone(), MbCore::apply_poison),
        (handle.scramble.clone(), MbCore::apply_scramble),
    ];
    let mute = handle.mute.clone();
    let spec = Spec {
        program: "mb",
        n_phases: config.n_phases,
        target_phases: config.target_phases,
        retransmit_every: config.retransmit_every,
        deadline: config.deadline,
        work: config.work,
        recorder,
        telemetry: config.telemetry,
    };
    threaded::spawn(cores, endpoints, clock, spec, handle, faults, mute)
}

impl MbRun {
    /// Wait for completion and replay the merged event log through the
    /// barrier specification oracle.
    pub fn join(self) -> MbReport {
        let telemetry = self.spec.telemetry.clone();
        let (report, _, events) = self.finish();
        if telemetry.is_enabled() {
            let end = events.last().map_or(Time::ZERO, |e| e.at);
            crate::telemetry::record_cp_timeline(&telemetry, &events, end);
            for (pid, &sent) in report.messages_sent.iter().enumerate() {
                telemetry.counter("mb_messages_sent_total", &[("pid", &pid.to_string())], sent);
            }
            telemetry.counter(
                "mb_root_phase_advances_total",
                &[],
                report.root_phase_advances,
            );
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbarrier_telemetry::TestClock;

    /// Drive a spawned run to completion on virtual time: advance the test
    /// clock each time every worker thread has read it, injecting planned
    /// poisons when their virtual instants pass. No wall-clock timing is
    /// asserted.
    fn drive_virtual(run: &MbRun, clock: &TestClock, plan: &[(f64, usize)]) {
        let h = run.handle();
        let mut next = 0;
        while let Some(now) = clock.advance_after_polls(0.01, run.processes(), || run.stopped()) {
            while next < plan.len() && plan[next].0 <= now {
                h.poison(plan[next].1);
                next += 1;
            }
        }
    }

    fn virtual_config(faults: ChannelFaults, target: u64, seed: u64) -> MbConfig {
        MbConfig {
            n: 4,
            target_phases: target,
            faults,
            seed,
            retransmit_every: Time::new(0.05),
            // Virtual deadline: generous, but guarantees the driver loop
            // terminates even if progress stalls.
            deadline: Time::new(2_000.0),
            ..Default::default()
        }
    }

    fn spawn_virtual(config: MbConfig) -> (MbRun, Arc<TestClock>) {
        let clock = TestClock::new();
        let mut rng = SimRng::seed_from_u64(config.seed);
        let endpoints = channel_ring(config.n, config.faults, &mut rng);
        let run = spawn_on(config, endpoints, clock.clone() as Arc<dyn Clock>);
        (run, clock)
    }

    #[test]
    fn fault_free_run_completes_cleanly_on_virtual_time() {
        let (run, clock) = spawn_virtual(virtual_config(ChannelFaults::NONE, 10, 1));
        drive_virtual(&run, &clock, &[]);
        let report = run.join();
        assert!(report.reached_target, "timed out: {report:?}");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.phases_completed >= 9, "{report:?}");
        assert!(report.instance_counts.iter().all(|&c| c == 1));
    }

    #[test]
    fn lossy_links_are_masked_by_retransmission_on_virtual_time() {
        let (run, clock) = spawn_virtual(virtual_config(
            ChannelFaults {
                loss: 0.3,
                ..ChannelFaults::NONE
            },
            8,
            2,
        ));
        drive_virtual(&run, &clock, &[]);
        let report = run.join();
        assert!(report.reached_target, "{report:?}");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn poison_plan_is_masked_on_virtual_time() {
        let (run, clock) = spawn_virtual(virtual_config(ChannelFaults::NONE, 12, 3));
        drive_virtual(&run, &clock, &[(0.5, 2), (1.5, 1)]);
        let report = run.join();
        assert!(report.reached_target, "{report:?}");
        assert!(
            report.violations.is_empty(),
            "detectable faults must be masked: {:?}",
            report.violations
        );
    }

    #[test]
    fn work_closure_runs_once_per_phase_per_process() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        let mut config = virtual_config(ChannelFaults::NONE, 5, 4);
        config.n = 3;
        config.work = Some(Arc::new(move |_pid, _ph| {
            c2.fetch_add(1, Ordering::Relaxed);
        }));
        let (run, clock) = spawn_virtual(config);
        drive_virtual(&run, &clock, &[]);
        let report = run.join();
        assert!(report.reached_target);
        let executed = counter.load(Ordering::Relaxed);
        // At least target*n executions (the final phase may be in flight).
        assert!(executed >= 5 * 3, "only {executed} phase bodies ran");
    }

    #[test]
    #[should_panic]
    fn rejects_single_process() {
        let _ = spawn(MbConfig {
            n: 1,
            ..Default::default()
        });
    }

    // ----- wall-clock stress lane (CI runs these with `-- --ignored`) -----

    #[test]
    #[ignore = "wall-clock stress; run explicitly or via the CI smoke step"]
    fn wall_clock_nasty_links_still_clean() {
        let run = spawn(MbConfig {
            n: 3,
            target_phases: 6,
            faults: ChannelFaults::nasty(),
            seed: 99,
            ..Default::default()
        });
        let report = run.join();
        assert!(report.reached_target, "{report:?}");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    #[ignore = "wall-clock stress; run explicitly or via the CI smoke step"]
    fn wall_clock_scramble_recovers_and_makes_progress() {
        let run = spawn(MbConfig {
            n: 4,
            target_phases: 14,
            seed: 5,
            ..Default::default()
        });
        let h = run.handle();
        while run.root_phase_advances() < 3 {
            std::thread::yield_now();
        }
        h.scramble(3);
        let report = run.join();
        // Progress is the stabilization guarantee; the interim may violate.
        assert!(
            report.reached_target,
            "no post-scramble progress: {report:?}"
        );
    }
}
