//! Message-passing execution of the sweep program over *arbitrary*
//! topologies — §5's refinement generalized from the ring to the trees of
//! §4.2, which yields an O(h)-latency message-passing barrier with the same
//! tolerances.
//!
//! Each process thread runs one [`SweepCore`]: it owns its positions and
//! maintains local copies of every remote position its guards read. State
//! changes are gossiped to the subscribing processes over faulty links, and
//! unchanged state is resent on the [`Resend`](crate::proc::Resend) backoff
//! schedule — so message loss, duplication, reordering, and
//! detectable corruption are all masked, exactly as in [`crate::mb`], whose
//! thread loop ([`crate::threaded`]) and [`Clock`] this backend shares. What is
//! left here is the façade — configuration, report, fault handle — and the
//! wiring of the gossip mesh.

use crate::channel::ChannelFaults;
use crate::sweep_core::{subscriptions, PosMsg, SweepCore};
use crate::threaded::{self, flags, Fault, Flags, Run, Spec, Work};
use crate::transport::{channel_mesh, Endpoint};
use ftbarrier_core::spec::Violation;
use ftbarrier_core::sweep::SweepBarrier;
use ftbarrier_gcs::{SimRng, Time};
use ftbarrier_telemetry::{CausalRecorder, Clock, Telemetry, WallClock};
use ftbarrier_topology::SweepDag;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a message-passing sweep run. The two durations are read
/// off the run's [`Clock`]: seconds under the default [`WallClock`], virtual
/// units under a test clock.
#[derive(Clone)]
pub struct SweepMpConfig {
    pub n_phases: u32,
    pub target_phases: u64,
    pub faults: ChannelFaults,
    pub seed: u64,
    pub retransmit_every: Duration,
    pub deadline: Duration,
    /// Per-phase workload, called as `(pid, phase)`.
    pub work: Work,
    /// Capacity of the always-on causal flight recorder (recent events
    /// kept per run; older ones are evicted and counted).
    pub flight_capacity: usize,
}

impl Default for SweepMpConfig {
    fn default() -> Self {
        SweepMpConfig {
            n_phases: 8,
            target_phases: 12,
            faults: ChannelFaults::NONE,
            seed: 0x57EE9,
            retransmit_every: Duration::from_micros(200),
            deadline: Duration::from_secs(30),
            work: None,
            flight_capacity: 8192,
        }
    }
}

/// Result of a run (same shape as [`crate::mb::MbReport`]).
#[derive(Debug)]
pub struct SweepMpReport {
    pub root_phase_advances: u64,
    pub violations: Vec<Violation>,
    pub phases_completed: u64,
    pub instance_counts: Vec<u64>,
    pub messages_sent: Vec<u64>,
    pub elapsed: Duration,
    pub reached_target: bool,
    /// Flight-recorder dump of the recent causal events (replayable JSON),
    /// written when the run hit its deadline instead of its target.
    pub flight_dump: Option<String>,
    /// Deliveries discarded because no honest neighbour can have sent them
    /// (see [`SweepCore::forged_dropped`]), summed over the processes.
    pub forged_dropped: u64,
}

/// Fault-injection handle.
#[derive(Clone)]
pub struct SweepMpHandle {
    poison: Flags,
    mute: Flags,
}

impl SweepMpHandle {
    /// Detectable fault at `pid`: all of its positions are flagged.
    pub fn poison(&self, pid: usize) {
        self.poison[pid].store(true, Ordering::Release);
    }

    /// Fail-stop `pid`: it permanently stops evaluating guards and
    /// gossiping. The barrier wedges (no repair wave can pass a silent
    /// process), the deadline fires, and the flight dump names `pid`.
    pub fn mute(&self, pid: usize) {
        self.mute[pid].store(true, Ordering::Release);
    }
}

/// A running message-passing sweep system.
pub type SweepMpRun = Run<SweepCore, SweepMpHandle>;

/// Spawn one thread per process over the given topology, on faulty
/// `std::sync::mpsc` channels and the wall clock.
pub fn spawn(dag: SweepDag, config: SweepMpConfig) -> SweepMpRun {
    let mut rng = SimRng::seed_from_u64(config.seed);
    let endpoints = channel_mesh(
        dag.num_processes(),
        subscriptions(&dag),
        config.faults,
        &mut rng,
    );
    spawn_on(dag, config, endpoints, WallClock::start())
}

/// Spawn a sweep system on caller-provided ports (one per process, linked
/// as [`subscriptions`] of `dag` says — see [`channel_mesh`]) and an explicit
/// clock, mirroring [`crate::mb::spawn_on`].
pub fn spawn_on<E: Endpoint<PosMsg> + Send + 'static>(
    dag: SweepDag,
    config: SweepMpConfig,
    endpoints: Vec<E>,
    clock: Arc<dyn Clock>,
) -> SweepMpRun {
    let program = Arc::new(SweepBarrier::new(dag, config.n_phases));
    let n = program.dag().num_processes();
    let links = subscriptions(program.dag());
    let mut rng = SimRng::seed_from_u64(config.seed ^ 0xC0DE);
    let seq = Arc::new(AtomicU64::new(0));
    // The always-on flight recorder: one bounded ring shared by every
    // process thread (events interleave in global commit order).
    let recorder = CausalRecorder::bounded(config.flight_capacity);
    let cores = (0..n)
        .map(|pid| {
            let seed = rng.next_u64();
            SweepCore::new(
                program.clone(),
                pid,
                &links,
                seed,
                seq.clone(),
                recorder.clone(),
            )
        })
        .collect();
    let handle = SweepMpHandle {
        poison: flags(n),
        mute: flags(n),
    };
    let faults: Vec<Fault<SweepCore>> = vec![(handle.poison.clone(), SweepCore::apply_poison)];
    let mute = handle.mute.clone();
    let spec = Spec {
        program: "sweep_mp",
        n_phases: config.n_phases,
        target_phases: config.target_phases,
        retransmit_every: Time::new(config.retransmit_every.as_secs_f64()),
        deadline: Time::new(config.deadline.as_secs_f64()),
        work: config.work,
        recorder,
        telemetry: Telemetry::off(),
    };
    threaded::spawn(cores, endpoints, clock, spec, handle, faults, mute)
}

impl SweepMpRun {
    /// Join and replay the merged event log through the oracle.
    pub fn join(self) -> SweepMpReport {
        let (run, cores, _) = self.finish();
        SweepMpReport {
            root_phase_advances: run.root_phase_advances,
            violations: run.violations,
            phases_completed: run.phases_completed,
            instance_counts: run.instance_counts,
            messages_sent: run.messages_sent,
            elapsed: run.elapsed,
            reached_target: run.reached_target,
            flight_dump: run.flight_dump,
            forged_dropped: cores.iter().map(|c| c.forged_dropped).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbarrier_telemetry::TestClock;

    /// Spawn on a [`TestClock`]; times in `config` are virtual.
    fn spawn_virtual(dag: SweepDag, config: SweepMpConfig) -> (SweepMpRun, Arc<TestClock>) {
        let clock = TestClock::new();
        let mut rng = SimRng::seed_from_u64(config.seed);
        let endpoints = channel_mesh(
            dag.num_processes(),
            subscriptions(&dag),
            config.faults,
            &mut rng,
        );
        let run = spawn_on(dag, config, endpoints, clock.clone() as Arc<dyn Clock>);
        (run, clock)
    }

    /// Advance the test clock each time every worker thread has read it,
    /// until the run stops. No wall-clock timing is asserted.
    fn drive_virtual(run: &SweepMpRun, clock: &TestClock) {
        while clock
            .advance_after_polls(0.01, run.processes(), || run.stopped())
            .is_some()
        {}
    }

    fn virtual_config(faults: ChannelFaults, target_phases: u64, seed: u64) -> SweepMpConfig {
        SweepMpConfig {
            target_phases,
            faults,
            seed,
            retransmit_every: Duration::from_millis(50),
            // Virtual deadline: generous, but guarantees the driver loop
            // terminates even if progress stalls.
            deadline: Duration::from_secs(2_000),
            ..Default::default()
        }
    }

    #[test]
    fn tree_barrier_over_clean_links() {
        let run = spawn(
            SweepDag::tree(8, 2).unwrap(),
            SweepMpConfig {
                target_phases: 10,
                ..Default::default()
            },
        );
        let report = run.join();
        assert!(report.reached_target, "{report:?}");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.phases_completed >= 9);
        assert_eq!(report.forged_dropped, 0);
    }

    #[test]
    fn tree_barrier_over_nasty_links_on_virtual_time() {
        let (run, clock) = spawn_virtual(
            SweepDag::tree(8, 2).unwrap(),
            virtual_config(ChannelFaults::nasty(), 8, 0xABBA),
        );
        drive_virtual(&run, &clock);
        let report = run.join();
        assert!(report.reached_target, "{report:?}");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn poison_masks_on_a_tree() {
        let run = spawn(
            SweepDag::tree(8, 2).unwrap(),
            SweepMpConfig {
                target_phases: 14,
                ..Default::default()
            },
        );
        let h = run.handle();
        while run.root_phase_advances() < 4 {
            std::thread::yield_now();
        }
        h.poison(5);
        while run.root_phase_advances() < 8 {
            std::thread::yield_now();
        }
        h.poison(2);
        let report = run.join();
        assert!(report.reached_target, "{report:?}");
        assert!(
            report.violations.is_empty(),
            "detectable faults must be masked on trees too: {:?}",
            report.violations
        );
    }

    #[test]
    fn lossy_ring_matches_mb_semantics_on_virtual_time() {
        // The generalized runner on a plain ring is RB-over-messages.
        let lossy = ChannelFaults {
            loss: 0.2,
            ..ChannelFaults::NONE
        };
        let (run, clock) = spawn_virtual(
            SweepDag::ring(5).unwrap(),
            virtual_config(lossy, 8, SweepMpConfig::default().seed),
        );
        drive_virtual(&run, &clock);
        let report = run.join();
        assert!(report.reached_target, "{report:?}");
        assert!(report.violations.is_empty());
    }

    #[test]
    fn muted_process_wedges_the_run_and_is_blamed_in_the_flight_dump() {
        use ftbarrier_telemetry::FlightDump;
        // Deliberately wedge a run: fail-stop a leaf once the barrier is in
        // steady state. The (virtual) deadline fires and the dump's causal
        // graph must end at the culpable process.
        let (run, clock) = spawn_virtual(
            SweepDag::tree(4, 2).unwrap(),
            SweepMpConfig {
                target_phases: 1_000_000,
                deadline: Duration::from_secs(5),
                flight_capacity: 1 << 16,
                ..virtual_config(ChannelFaults::NONE, 0, 1)
            },
        );
        while run.root_phase_advances() < 3 {
            std::thread::yield_now();
        }
        run.handle().mute(3);
        drive_virtual(&run, &clock);
        let report = run.join();
        assert!(!report.reached_target, "{report:?}");
        let dump = report.flight_dump.as_deref().expect("wedged run dumps");
        let parsed = FlightDump::parse(dump).expect("dump parses");
        parsed.replay().expect("dump replays");
        assert_eq!(parsed.program, "sweep_mp");
        assert_eq!(parsed.kind, "wedge");
        assert_eq!(parsed.reason, "deadline");
        assert_eq!(parsed.blamed, Some(3), "the muted process is the culprit");
        let last_of_3 = parsed
            .graph
            .events
            .iter()
            .rev()
            .find(|e| e.id.pid == 3)
            .expect("p3 recorded events");
        assert_eq!(last_of_3.label, "fault:stop");

        // A healthy run dumps nothing.
        let ok = spawn(
            SweepDag::tree(4, 2).unwrap(),
            SweepMpConfig {
                target_phases: 5,
                ..Default::default()
            },
        )
        .join();
        assert!(ok.reached_target);
        assert!(ok.flight_dump.is_none());
    }

    #[test]
    fn work_closure_runs_per_phase() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        let run = spawn(
            SweepDag::tree(4, 2).unwrap(),
            SweepMpConfig {
                target_phases: 5,
                work: Some(Arc::new(move |_pid, _ph| {
                    c2.fetch_add(1, Ordering::Relaxed);
                })),
                ..Default::default()
            },
        );
        let report = run.join();
        assert!(report.reached_target);
        assert!(counter.load(Ordering::Relaxed) >= 5 * 4);
    }
}
