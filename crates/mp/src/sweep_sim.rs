//! Deterministic simnet execution of the sweep program over *arbitrary*
//! topologies — the discrete-event analogue of the threaded
//! [`crate::sweep_mp`] backend, on the same simulated network and the same
//! driver ([`crate::sim`]) as the MB ring.
//!
//! The processes are the same [`SweepCore`]s the threaded backend runs; this
//! module keeps only the configuration, the report, and the mute and forge
//! faults. The driver gives each process one link per subscription — which
//! is where the per-round partner schedule of the log-depth topologies
//! materializes; nothing here is topology-specific.
//!
//! One seed determines everything — link latencies and fault draws, the
//! perturbation values of scheduled poisons, the event interleaving — so a
//! run is byte-for-byte replayable: [`SweepSimReport::trace`] of two runs
//! with the same config is identical.

use crate::proc::{Process, Pumped};
use crate::sim::{Program, Sim, TraceEntry, TraceLog, WireMsg};
use crate::simnet::{LinkConfig, NetStats, SimNet};
use crate::sweep_core::{subscriptions, PosMsg, SweepCore};
use ftbarrier_core::spec::Violation;
use ftbarrier_core::sweep::SweepBarrier;
use ftbarrier_gcs::{SimRng, Time};
use ftbarrier_telemetry::CausalRecorder;
use ftbarrier_topology::SweepDag;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Configuration of a deterministic sweep run over the simulated network.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSimConfig {
    pub n_phases: u32,
    /// Genuine root phase advances before the run stops.
    pub target_phases: u64,
    pub seed: u64,
    /// Model of every gossip link.
    pub link: LinkConfig,
    /// Base period of the [`Resend`](crate::Resend) policy (resends of
    /// unchanged state mask message loss), virtual time.
    pub retransmit_every: f64,
    /// Virtual-time safety limit.
    pub max_time: f64,
    /// `(time, pid)`: §4.1 detectable process faults.
    pub poisons: Vec<(f64, usize)>,
    /// `(time, pid)`: fail-stop the process — it stops gossiping and
    /// evaluating guards forever, wedging the barrier (the stalled-simnet
    /// scenario the flight recorder exists for).
    pub mutes: Vec<(f64, usize)>,
    /// `(time, pid)`: Byzantine message forgery — the process gossips forged
    /// *out-of-domain* position states (`sn` beyond the `L`-window, `ph`
    /// beyond `n_phases`) on every outgoing link, equivocating: each link
    /// gets an independent forgery draw. Its own view stays intact, modeling
    /// an in-flight forger rather than a corrupted process; the next resend
    /// of the true state heals the receivers.
    pub forgeries: Vec<(f64, usize)>,
    /// Capacity of the always-armed flight recorder, shared out evenly
    /// among the processes' lanes.
    pub flight_capacity: usize,
}

impl Default for SweepSimConfig {
    fn default() -> Self {
        SweepSimConfig {
            n_phases: 8,
            target_phases: 12,
            seed: 0x57EE5,
            link: LinkConfig::perfect(0.01),
            retransmit_every: 0.05,
            max_time: 10_000.0,
            poisons: Vec::new(),
            mutes: Vec::new(),
            forgeries: Vec::new(),
            flight_capacity: 8192,
        }
    }
}

/// Result of a deterministic sweep run (the simnet analogue of
/// [`crate::sweep_mp::SweepMpReport`]).
#[derive(Debug)]
pub struct SweepSimReport {
    /// Genuine phase advances observed at the root position.
    pub root_phase_advances: u64,
    /// Violations found by replaying the worker event log through the
    /// barrier specification oracle.
    pub violations: Vec<Violation>,
    pub phases_completed: u64,
    /// Messages sent per process (including retransmissions).
    pub messages_sent: Vec<u64>,
    pub reached_target: bool,
    pub virtual_elapsed: Time,
    /// Deliveries discarded because the carried position state was outside
    /// the program's variable domains — forged gossip convicted by
    /// inspection at the receiver (the paper's detectable-fault premise
    /// applied to Byzantine messages).
    pub forged_dropped: u64,
    pub net: NetStats,
    /// Full deterministic run log: identical across runs of the same
    /// config, diverging for different seeds. Text only on
    /// [`TraceLog::render`].
    pub trace: TraceLog,
    /// Flight-recorder dump (`flightrec/v1` JSON), written iff the run
    /// ended without reaching its target — the network went quiescent with
    /// the barrier incomplete, or `max_time` expired. Replayable via
    /// `FlightDump::parse` and naming the blocking process.
    pub flight_dump: Option<String>,
}

/// The sweep's control events. The driver owns the resend timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ctl {
    Poison(usize),
    Mute(usize),
    Forge(usize),
}

/// What the sweep adds to the driver: mutes and forgeries. Its phase body is
/// empty and completes on the spot.
struct Sweep;

impl Program for Sweep {
    type Msg = PosMsg;
    type Core = SweepCore;
    type Event = Ctl;
    const NAME: &'static str = "sweep_sim";
    const GOSSIP_EVERY_ROUND: bool = false;
    const LOG_DELIVERIES: bool = false;

    fn log_round(trace: &mut TraceLog, now: Time, _pid: usize, core: &SweepCore, out: Pumped) {
        if out.advances > 0 {
            trace.push(TraceEntry::RootPhase {
                at: now,
                ph: core.root_phase(),
            });
        }
    }

    fn phase_body(sim: &mut Sim<Sweep>, pid: usize) -> Option<bool> {
        sim.cores[pid].work_done(sim.now);
        Some(true)
    }

    fn on_event(sim: &mut Sim<Sweep>, ev: Ctl) {
        let now = sim.now;
        match ev {
            // §4.1 detectable fault: every position of `pid` is flagged.
            Ctl::Poison(pid) => {
                sim.trace.text(format_args!("t {now} poison p{pid}"));
                sim.cores[pid].apply_poison(now);
                if !sim.down[pid] {
                    sim.gossip(pid);
                    sim.drive(pid, None);
                }
            }
            // Fail-stop `pid`: record the stop, then never gossip or drive
            // again.
            Ctl::Mute(pid) => {
                sim.trace.text(format_args!("t {now} mute p{pid}"));
                sim.cores[pid].record_fail_stop(now);
                sim.down[pid] = true;
            }
            // Byzantine message forgery: put `pid`'s lies on the wire, a
            // different set per outgoing link, bypassing its honest port.
            // The receivers convict them by inspection; anything that slips
            // through is overwritten by the next honest resend.
            Ctl::Forge(pid) if !sim.down[pid] => {
                sim.trace.text(format_args!("t {now} forge p{pid}"));
                let lies = sim.cores[pid].forge(now);
                let tag = sim.cores[pid].causal_tag();
                let wire = &mut sim.wire;
                let epoch = wire.epoch[pid];
                for (&link, burst) in wire.out_links[pid].iter().zip(lies) {
                    for msg in burst {
                        wire.net.send_tagged(link, WireMsg { epoch, msg }, tag);
                    }
                    wire.net.flush(link);
                    sim.messages_sent[pid] += 1;
                }
            }
            Ctl::Forge(_) => {}
        }
    }
}

/// Run the sweep program over `dag` deterministically on the simulated
/// network. Two calls with equal inputs return identical reports (including
/// the [`TraceLog`] in [`SweepSimReport::trace`]).
pub fn run(dag: SweepDag, cfg: SweepSimConfig) -> SweepSimReport {
    assert!(cfg.n_phases >= 2);
    let program = Arc::new(SweepBarrier::new(dag, cfg.n_phases));
    let n = program.dag().num_processes();
    let mut rng = SimRng::seed_from_u64(cfg.seed);

    // One link per subscription, numbered in link order. This is where the
    // partner schedule of the log-depth grids materializes as links.
    let links = subscriptions(program.dag());
    let net = SimNet::new(vec![cfg.link; links.len()], rng.next_u64());
    let seq = Arc::new(AtomicU64::new(0));
    let recorder = CausalRecorder::bounded(n, cfg.flight_capacity);
    let cores = (0..n)
        .map(|pid| {
            SweepCore::new(
                program.clone(),
                pid,
                &links,
                rng.next_u64(),
                seq.clone(),
                recorder.clone(),
            )
        })
        .collect();
    let mut d = Sim::new(
        Sweep,
        cores,
        net,
        links.iter().copied(),
        cfg.retransmit_every,
        recorder,
    );
    d.schedule_plan("SweepSimConfig.poisons", &cfg.poisons, Ctl::Poison);
    d.schedule_plan("SweepSimConfig.mutes", &cfg.mutes, Ctl::Mute);
    d.schedule_plan("SweepSimConfig.forgeries", &cfg.forgeries, Ctl::Forge);

    let flight_dump = d.run(cfg.target_phases, Time::new(cfg.max_time));
    let (_, replayed) = d.replay(cfg.n_phases, &[(0, (0..n).collect())]);
    let net_stats = d.wire.net.stats();
    d.trace.text(format_args!(
        "end t {} advances {} net {:?}",
        d.now, d.advances, net_stats
    ));
    SweepSimReport {
        root_phase_advances: d.advances,
        violations: replayed.violations,
        phases_completed: replayed.phases_completed,
        reached_target: flight_dump.is_none(),
        virtual_elapsed: d.now,
        forged_dropped: d.cores.iter().map(|c| c.forged_dropped).sum(),
        net: net_stats,
        flight_dump,
        messages_sent: d.messages_sent,
        trace: d.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelFaults;
    use crate::simnet::LatencyModel;

    fn lossy() -> LinkConfig {
        LinkConfig {
            latency: LatencyModel::Fixed(0.01),
            faults: ChannelFaults {
                loss: 0.15,
                duplication: 0.05,
                corruption: 0.05,
                ..ChannelFaults::NONE
            },
        }
    }

    #[test]
    fn every_family_reaches_its_target_over_lossy_links() {
        for (name, dag) in [
            ("ring", SweepDag::ring(5).unwrap()),
            ("tree", SweepDag::tree(8, 2).unwrap()),
            ("dissemination", SweepDag::dissemination(8, 2).unwrap()),
            ("hypercube", SweepDag::hypercube(8).unwrap()),
            ("butterfly", SweepDag::butterfly(8).unwrap()),
        ] {
            let report = run(
                dag,
                SweepSimConfig {
                    target_phases: 8,
                    link: lossy(),
                    ..Default::default()
                },
            );
            assert!(report.reached_target, "{name}: {report:?}");
            assert!(
                report.violations.is_empty(),
                "{name}: {:?}",
                report.violations
            );
            assert!(report.phases_completed >= 7, "{name}: {report:?}");
        }
    }

    #[test]
    fn trace_is_byte_identical_across_runs_and_seed_sensitive() {
        let cfg = SweepSimConfig {
            target_phases: 6,
            link: lossy(),
            poisons: vec![(0.3, 3)],
            ..Default::default()
        };
        let a = run(SweepDag::dissemination(8, 2).unwrap(), cfg.clone());
        let b = run(SweepDag::dissemination(8, 2).unwrap(), cfg.clone());
        assert_eq!(a.trace, b.trace, "same config must replay byte-identically");
        assert_eq!(a.messages_sent, b.messages_sent);
        let c = run(
            SweepDag::dissemination(8, 2).unwrap(),
            SweepSimConfig {
                seed: cfg.seed ^ 1,
                ..cfg
            },
        );
        assert_ne!(a.trace, c.trace, "a different seed must diverge");
    }

    #[test]
    fn stalled_run_dumps_a_flight_record_naming_the_muted_process() {
        use ftbarrier_telemetry::FlightDump;
        let muted = 5;
        let report = run(
            SweepDag::tree(8, 2).unwrap(),
            SweepSimConfig {
                target_phases: 50,
                max_time: 10.0,
                mutes: vec![(2.0, muted)],
                ..Default::default()
            },
        );
        assert!(!report.reached_target, "a fail-stopped process must wedge");
        let text = report.flight_dump.expect("wedged run must dump");
        let dump = FlightDump::parse(&text).expect("dump parses");
        dump.replay().expect("dump replays");
        assert_eq!(dump.kind, "wedge");
        assert_eq!(dump.reason, "max_time");
        assert_eq!(
            dump.blamed,
            Some(muted as u32),
            "the causal graph must end at the muted process"
        );
        // The muted process's last event is the fail-stop itself, and no
        // event of its follows it.
        let last_of_muted = dump
            .graph
            .events
            .iter()
            .rfind(|e| e.id.pid == muted as u32)
            .expect("mute event on record");
        assert_eq!(last_of_muted.label, "fault:stop");
        // Everyone else stayed live (heartbeats) strictly later.
        for pid in 0..8u32 {
            if pid == muted as u32 {
                continue;
            }
            let last = dump
                .graph
                .events
                .iter()
                .rfind(|e| e.id.pid == pid)
                .unwrap_or_else(|| panic!("p{pid} has no events"));
            assert!(last.at > last_of_muted.at, "p{pid} went silent too");
        }
        // A healthy run of the same config does not dump.
        let ok = run(
            SweepDag::tree(8, 2).unwrap(),
            SweepSimConfig {
                target_phases: 8,
                ..Default::default()
            },
        );
        assert!(ok.reached_target);
        assert!(ok.flight_dump.is_none());
    }

    /// One lane per pid: a fail-stopped process's last events outlive a
    /// wedge long enough for every live process to wrap its own lane (one
    /// ring shared by every pid evicted them), and blame still lands on it.
    #[test]
    fn a_muted_process_keeps_its_last_events_while_live_lanes_wrap() {
        let muted = 5;
        let report = run(
            SweepDag::tree(8, 2).unwrap(),
            SweepSimConfig {
                target_phases: 50,
                max_time: 60.0,
                mutes: vec![(2.0, muted)],
                // Eight events per lane.
                flight_capacity: 64,
                ..Default::default()
            },
        );
        let text = report.flight_dump.expect("wedged run must dump");
        let dump = ftbarrier_telemetry::FlightDump::parse(&text).expect("dump parses");
        dump.replay().expect("dump replays");
        let kept = |pid: usize| -> Vec<_> {
            let pid = pid as u32;
            dump.graph
                .events
                .iter()
                .filter(|e| e.id.pid == pid)
                .collect()
        };
        for pid in (0..8).filter(|&pid| pid != muted) {
            let events = kept(pid);
            assert_eq!(events.len(), 8, "p{pid}'s lane is full");
            assert!(events[0].at > 2.0, "p{pid}'s lane wrapped after the mute");
        }
        let last = kept(muted);
        assert_eq!(last.len(), 8, "the muted lane kept its last events");
        assert_eq!(last[7].label, "fault:stop");
        assert_eq!(dump.blamed, Some(muted as u32));
    }

    #[test]
    fn forged_messages_are_healed_by_honest_retransmission() {
        // Equivocating in-flight forgeries (out-of-domain sn/ph gossiped to
        // every neighbor, a different lie per link) must be transient: the
        // forger's own view is intact, so its resends of the true state
        // overwrite the lies and the barrier still completes cleanly.
        for (name, dag) in [
            ("ring", SweepDag::ring(5).unwrap()),
            ("tree", SweepDag::tree(8, 2).unwrap()),
            ("dissemination", SweepDag::dissemination(8, 2).unwrap()),
        ] {
            let report = run(
                dag,
                SweepSimConfig {
                    target_phases: 10,
                    forgeries: vec![(0.4, 1), (0.9, 2), (1.3, 1)],
                    ..Default::default()
                },
            );
            assert!(report.reached_target, "{name}: {report:?}");
            assert!(
                report.violations.is_empty(),
                "{name}: forged gossip must be masked: {:?}",
                report.violations
            );
            assert!(
                report.forged_dropped > 0,
                "{name}: receivers must convict the forgeries by inspection"
            );
            assert!(
                report.trace.render().contains("forge p1"),
                "{name} trace logs it"
            );
        }
    }

    #[test]
    fn forgery_trace_is_deterministic_and_diverges_from_clean() {
        let cfg = SweepSimConfig {
            target_phases: 6,
            forgeries: vec![(0.5, 3)],
            ..Default::default()
        };
        let a = run(SweepDag::hypercube(8).unwrap(), cfg.clone());
        let b = run(SweepDag::hypercube(8).unwrap(), cfg.clone());
        assert_eq!(a.trace, b.trace, "forgery draws are seed-deterministic");
        let clean = run(
            SweepDag::hypercube(8).unwrap(),
            SweepSimConfig {
                forgeries: Vec::new(),
                ..cfg
            },
        );
        assert!(clean.reached_target);
        assert!(!clean.trace.render().contains("forge"));
    }

    #[test]
    fn poisons_are_masked_on_the_log_depth_grids() {
        for (name, dag) in [
            ("dissemination", SweepDag::dissemination(8, 2).unwrap()),
            ("hypercube", SweepDag::hypercube(8).unwrap()),
            ("butterfly", SweepDag::butterfly(8).unwrap()),
        ] {
            let report = run(
                dag,
                SweepSimConfig {
                    target_phases: 10,
                    poisons: vec![(0.5, 2), (1.1, 5)],
                    ..Default::default()
                },
            );
            assert!(report.reached_target, "{name}: {report:?}");
            assert!(
                report.violations.is_empty(),
                "{name}: detectable faults must be masked: {:?}",
                report.violations
            );
        }
    }

    #[test]
    #[should_panic(expected = "SweepSimConfig.mutes: target 9 out of range 0..8")]
    fn a_mute_of_a_missing_process_is_refused_by_name() {
        let _ = run(
            SweepDag::tree(8, 2).unwrap(),
            SweepSimConfig {
                mutes: vec![(1.0, 9)],
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "SweepSimConfig.forgeries: target 8 out of range 0..8")]
    fn a_forgery_by_a_missing_process_is_refused_by_name() {
        let _ = run(
            SweepDag::tree(8, 2).unwrap(),
            SweepSimConfig {
                forgeries: vec![(1.0, 8)],
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "ChannelFaults.duplication probability -0.1 out of range")]
    fn a_negative_link_duplication_is_refused_by_name() {
        let mut link = LinkConfig::perfect(0.01);
        link.faults.duplication = -0.1;
        let _ = run(
            SweepDag::ring(3).unwrap(),
            SweepSimConfig {
                link,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "retransmit_every must be positive and finite, got inf")]
    fn infinite_retransmit_period_is_rejected_by_name() {
        let _ = run(
            SweepDag::ring(3).unwrap(),
            SweepSimConfig {
                retransmit_every: f64::INFINITY,
                ..Default::default()
            },
        );
    }
}
