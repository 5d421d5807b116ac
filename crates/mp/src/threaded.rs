//! The threaded driver: one OS thread per process core, any [`Endpoint`],
//! all timing through a [`Clock`].
//!
//! Each thread pumps its core ([`pump`]), runs the phase body when the core
//! asks for it, gossips on every change and on a retransmission tick — which
//! masks message loss/duplication/reordering/detectable-corruption exactly
//! as the guarded-command formulation assumes ("j can read the state of j-1
//! at any time") — and stops at the phase target or the deadline.
//! [`crate::mb`] runs [`MbCore`](crate::proc::MbCore)s on it,
//! [`crate::sweep_mp`] runs [`SweepCore`](crate::sweep_core::SweepCore)s;
//! neither has a loop of its own.

use crate::clock::Clock;
use crate::proc::{pump, CpEvent, Process};
use crate::telemetry::replay;
use crate::transport::Endpoint;
use ftbarrier_core::spec::Violation;
use ftbarrier_gcs::Time;
use ftbarrier_telemetry::{CausalRecorder, Telemetry};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-phase workload, called as `(pid, phase)`.
pub type Work = Option<Arc<dyn Fn(usize, u32) + Send + Sync>>;

/// One switch per process, flipped through a run's fault-injection handle.
pub(crate) type Flags = Arc<Vec<AtomicBool>>;

pub(crate) fn flags(n: usize) -> Flags {
    Arc::new((0..n).map(|_| AtomicBool::new(false)).collect())
}

/// A live fault: the switches that request it and what it does to a core.
pub(crate) type Fault<C> = (Flags, fn(&mut C, Time));

/// What the driver needs to know of a run's configuration.
pub(crate) struct Spec {
    /// Names the run in its flight dump.
    pub program: &'static str,
    pub n_phases: u32,
    pub target_phases: u64,
    pub retransmit_every: Time,
    pub deadline: Time,
    pub work: Work,
    /// The flight recorder the cores were built with.
    pub recorder: CausalRecorder,
    /// Observability sink of the finished run (off where the façade has
    /// none to offer).
    pub telemetry: Telemetry,
}

/// A running system of process threads: [`crate::mb::MbRun`] with
/// [`MbCore`](crate::proc::MbCore)s and an MB fault handle `H`,
/// [`crate::sweep_mp::SweepMpRun`] with
/// [`SweepCore`](crate::sweep_core::SweepCore)s and a sweep one.
pub struct Run<C, H> {
    threads: Vec<JoinHandle<(C, u64)>>,
    handle: H,
    stop: Arc<AtomicBool>,
    root_advances: Arc<AtomicU64>,
    started: Instant,
    pub(crate) spec: Arc<Spec>,
}

/// Result of a threaded run.
#[derive(Debug)]
pub struct Report {
    /// Genuine phase advances observed at the root.
    pub root_phase_advances: u64,
    /// Specification violations found by replaying the event log through
    /// the oracle.
    pub violations: Vec<Violation>,
    /// Successful phases per the oracle.
    pub phases_completed: u64,
    /// Instances consumed per successful phase.
    pub instance_counts: Vec<u64>,
    /// Messages sent per process (including retransmissions).
    pub messages_sent: Vec<u64>,
    pub elapsed: Duration,
    /// Whether the run hit its target (vs. the deadline).
    pub reached_target: bool,
    /// Flight-recorder dump of the recent causal events (replayable JSON),
    /// written when the run hit its deadline instead of its target.
    pub flight_dump: Option<String>,
}

/// Spawn one thread per `(core, endpoint)` pair. A raised `mute` switch
/// fail-stops its process: it permanently stops stepping and gossiping, the
/// system wedges, the deadline fires, and the flight dump names it.
pub(crate) fn spawn<C, E, H>(
    cores: Vec<C>,
    endpoints: Vec<E>,
    clock: Arc<dyn Clock>,
    spec: Spec,
    handle: H,
    faults: Vec<Fault<C>>,
    mute: Flags,
) -> Run<C, H>
where
    C: Process + Send + 'static,
    E: Endpoint<C::Msg> + Send + 'static,
{
    assert_eq!(endpoints.len(), cores.len(), "one endpoint per process");
    let stop = Arc::new(AtomicBool::new(false));
    let root_advances = Arc::new(AtomicU64::new(0));
    let spec = Arc::new(spec);
    let faults = Arc::new(faults);
    let started = Instant::now();
    let threads = cores
        .into_iter()
        .zip(endpoints)
        .enumerate()
        .map(|(pid, (mut core, mut ep))| {
            let stop = Arc::clone(&stop);
            let root_advances = Arc::clone(&root_advances);
            let spec = Arc::clone(&spec);
            let faults = Arc::clone(&faults);
            let mute = Arc::clone(&mute);
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || {
                core.events().reserve(256);
                let mut now = clock.now();
                let mut last_gossip = now;
                let mut sent = core.gossip(&mut ep);
                let mut fault_stopped = false;
                while !stop.load(Ordering::Acquire) {
                    if mute[pid].load(Ordering::Acquire) {
                        // Fail-stop: fall permanently silent. The one-time
                        // marker is the last event this pid ever records.
                        now = clock.now();
                        if !fault_stopped {
                            fault_stopped = true;
                            core.record_fail_stop(now);
                        }
                        if now > spec.deadline {
                            stop.store(true, Ordering::Release);
                        }
                        std::thread::yield_now();
                        continue;
                    }
                    for (requested, apply) in faults.iter() {
                        if requested[pid].swap(false, Ordering::AcqRel) {
                            apply(&mut core, now);
                            sent += core.gossip(&mut ep);
                        }
                    }
                    // The pump reads the clock after it drains the port, so
                    // nothing below is stamped earlier than a delivery
                    // already absorbed.
                    let mut tick = || {
                        now = clock.now();
                        now
                    };
                    let mut out = pump(&mut core, &mut ep, &mut tick);
                    while core.needs_work() {
                        // Run the phase body, then let the gated steps fire.
                        if let Some(work) = &spec.work {
                            work(pid, core.phase());
                        }
                        core.work_done(tick());
                        let more = pump(&mut core, &mut ep, &mut tick);
                        out.moved |= more.moved;
                        out.advances += more.advances;
                    }
                    if out.advances > 0 {
                        let total =
                            root_advances.fetch_add(out.advances, Ordering::AcqRel) + out.advances;
                        if total >= spec.target_phases {
                            stop.store(true, Ordering::Release);
                        }
                    }
                    if out.moved {
                        sent += core.gossip(&mut ep);
                        last_gossip = now;
                    } else if now.saturating_sub(last_gossip) >= spec.retransmit_every {
                        // The link went quiet: release any reorder-held message
                        // and retransmit. The heartbeat event keeps live
                        // processes visibly fresh in the flight recorder.
                        ep.flush();
                        core.record_heartbeat(now);
                        sent += core.gossip(&mut ep);
                        last_gossip = now;
                    } else {
                        std::thread::yield_now();
                    }
                    if now > spec.deadline {
                        stop.store(true, Ordering::Release);
                    }
                }
                (core, sent)
            })
        })
        .collect();
    Run {
        threads,
        handle,
        stop,
        root_advances,
        started,
        spec,
    }
}

impl<C: Process, H: Clone> Run<C, H> {
    /// The run's fault-injection handle.
    pub fn handle(&self) -> H {
        self.handle.clone()
    }

    /// Genuine phase advances observed at the root so far.
    pub fn root_phase_advances(&self) -> u64 {
        self.root_advances.load(Ordering::Acquire)
    }

    /// Whether the run has stopped (target, deadline, or [`Run::stop`]).
    /// After this returns `true`, `join` will not block.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Request an early stop.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Wait for completion and replay the merged event log (returned in
    /// global commit order) through the barrier specification oracle.
    pub(crate) fn finish(self) -> (Report, Vec<C>, Vec<CpEvent>) {
        let n = self.threads.len();
        let mut cores = Vec::with_capacity(n);
        let mut events = Vec::new();
        let mut messages_sent = Vec::with_capacity(n);
        for t in self.threads {
            let (mut core, sent) = t.join().expect("process thread panicked");
            events.append(core.events());
            messages_sent.push(sent);
            cores.push(core);
        }
        let replay = replay(self.spec.n_phases, n, &mut events);
        let root_phase_advances = self.root_advances.load(Ordering::Acquire);
        let reached_target = root_phase_advances >= self.spec.target_phases;
        let flight_dump = (!reached_target).then(|| {
            let recent = self.spec.recorder.snapshot();
            recent.to_flight_json(self.spec.program, n, "wedge", "deadline")
        });
        let report = Report {
            root_phase_advances,
            violations: replay.violations,
            phases_completed: replay.phases_completed,
            instance_counts: replay.instance_counts,
            messages_sent,
            elapsed: self.started.elapsed(),
            reached_target,
            flight_dump,
        };
        (report, cores, events)
    }
}
