//! Deterministic simnet execution of the sweep program over *arbitrary*
//! topologies — the discrete-event analogue of the threaded
//! [`crate::sweep_mp`] backend, on the same simulated network the MB ring
//! uses ([`crate::simnet`]).
//!
//! The processes are the same [`SweepCore`]s the threaded backend runs,
//! pumped by the same [`pump`]; this module keeps only *scheduling*: the
//! network-vs-control event loop, one [`Resend`] timer per process, the
//! poison / mute / forge timers, and a [`SimNet`]-backed [`Endpoint`] per
//! process (one link per subscription — which is where the per-round
//! partner schedule of the log-depth topologies materializes; nothing here
//! is topology-specific).
//!
//! One seed determines everything — link latencies and fault draws, the
//! perturbation values of scheduled poisons, the event interleaving — so a
//! run is byte-for-byte replayable: [`SweepSimReport::trace`] of two runs
//! with the same config is identical.

use crate::channel::Delivery;
use crate::proc::{pump, Process, Resend};
use crate::simnet::{event_key, key_time, LinkConfig, NetStats, SimNet};
use crate::sweep_core::{subscriptions, PosMsg, SweepCore};
use crate::telemetry::replay;
use crate::transport::{Endpoint, TaggedMsg};
use ftbarrier_core::spec::Violation;
use ftbarrier_core::sweep::SweepBarrier;
use ftbarrier_gcs::{SimRng, Time};
use ftbarrier_telemetry::{CausalRecorder, EventId};
use ftbarrier_topology::SweepDag;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
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
    /// Base period of the [`Resend`] policy (resends of unchanged state
    /// mask message loss), virtual time.
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
    /// Full deterministic run log: byte-identical across runs of the same
    /// config, diverging for different seeds.
    pub trace: String,
    /// Flight-recorder dump (`flightrec/v1` JSON), written iff the run
    /// ended without reaching its target — the network went quiescent with
    /// the barrier incomplete, or `max_time` expired. Replayable via
    /// `FlightDump::parse` and naming the blocking process.
    pub flight_dump: Option<String>,
}

/// Control events of the event loop. `Resend { pid, gen }` is `pid`'s
/// resend timer of generation `gen`; only the newest is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ctl {
    Resend { pid: usize, gen: u64 },
    Poison(usize),
    Mute(usize),
    Forge(usize),
}

/// A process's port onto the simulated network, alive for one scheduling
/// step. A gossip burst is staged and goes out on [`Endpoint::flush`], link
/// by link, and arrivals are read from the one link the scheduler is
/// delivering — so the order of sends and deliveries, and with it the whole
/// run, stays a pure function of the seed.
struct SimPort<'a> {
    net: &'a mut SimNet<PosMsg>,
    out_links: &'a [usize],
    /// The link being delivered (`None` on a control event: every inbox is
    /// empty then).
    rx: Option<usize>,
    staged: &'a mut Vec<TaggedMsg<PosMsg>>,
}

impl Endpoint<PosMsg> for SimPort<'_> {
    fn send_tagged(&mut self, msg: PosMsg, tag: Option<EventId>) -> bool {
        self.staged.push((msg, tag));
        true
    }

    fn try_recv_tagged(&mut self) -> Option<(Delivery<PosMsg>, Option<EventId>)> {
        self.net.pop_inbox_tagged(self.rx?)
    }

    fn flush(&mut self) -> bool {
        for &link in self.out_links {
            for &(msg, tag) in self.staged.iter() {
                self.net.send_tagged(link, msg, tag);
            }
            self.net.flush(link);
        }
        self.staged.clear();
        true
    }
}

struct Driver {
    cfg: SweepSimConfig,
    net: SimNet<PosMsg>,
    ctl: BinaryHeap<Reverse<(u128, Ctl)>>,
    ctl_seq: u64,
    now: Time,
    cores: Vec<SweepCore>,
    /// Outgoing link ids per process, and the consumer behind each link.
    out_links: Vec<Vec<usize>>,
    dest_of: Vec<usize>,
    /// Backing store of every [`SimPort`]'s staged burst.
    staged: Vec<TaggedMsg<PosMsg>>,
    messages_sent: Vec<u64>,
    /// Per process: its resend schedule, which also names its one live
    /// resend timer.
    resend: Vec<Resend>,
    advances: u64,
    trace: String,
    muted: Vec<bool>,
}

impl Driver {
    fn schedule(&mut self, at: f64, ev: Ctl) {
        assert!(at.is_finite() && at >= 0.0, "fault plan time {at} invalid");
        self.ctl_seq += 1;
        self.ctl
            .push(Reverse((event_key(Time::new(at), self.ctl_seq), ev)));
    }

    /// Publish `pid`'s changed state and restart its resend schedule.
    fn gossip(&mut self, pid: usize) {
        if self.muted[pid] {
            return;
        }
        let timer = self.resend[pid].changed();
        self.publish(pid, timer);
    }

    /// Put `pid`'s state on every outgoing link, then arm its one resend
    /// timer, generation `gen`, `delay` from now (superseding any earlier
    /// one).
    fn publish(&mut self, pid: usize, (delay, gen): (Time, u64)) {
        let mut port = SimPort {
            net: &mut self.net,
            out_links: &self.out_links[pid],
            rx: None,
            staged: &mut self.staged,
        };
        self.messages_sent[pid] += self.cores[pid].gossip(&mut port);
        self.schedule((self.now + delay).as_f64(), Ctl::Resend { pid, gen });
    }

    /// A live resend timer fired: resend the unchanged state one backoff
    /// step later. The heartbeat keeps a live process visibly fresh in the
    /// flight recorder, so a silent one stands out in a wedge dump.
    fn resend(&mut self, pid: usize) {
        if self.muted[pid] {
            return;
        }
        self.cores[pid].record_heartbeat(self.now);
        let timer = self.resend[pid].resent();
        self.publish(pid, timer);
    }

    /// Absorb what arrived on `rx` and fire `pid`'s guarded commands until
    /// none can move, then gossip if anything changed.
    fn drive(&mut self, pid: usize, rx: Option<usize>) {
        if self.muted[pid] {
            // A fail-stopped process loses its inbound traffic.
            while rx.is_some_and(|link| self.net.pop_inbox(link).is_some()) {}
            return;
        }
        let now = self.now;
        let core = &mut self.cores[pid];
        let mut port = SimPort {
            net: &mut self.net,
            out_links: &self.out_links[pid],
            rx,
            staged: &mut self.staged,
        };
        let mut moved = false;
        loop {
            let out = pump(core, &mut port, || now);
            moved |= out.moved;
            if out.advances > 0 {
                self.advances += out.advances;
                let _ = writeln!(self.trace, "t {now} root ph -> {}", core.root_phase());
            }
            if !core.needs_work() {
                break;
            }
            // The simulated phase body is empty: it completes on the spot.
            core.work_done(now);
            moved = true;
        }
        if moved {
            self.gossip(pid);
        }
    }

    /// §4.1 detectable fault: every position of `pid` is flagged.
    fn poison(&mut self, pid: usize) {
        let _ = writeln!(self.trace, "t {} poison p{pid}", self.now);
        self.cores[pid].apply_poison(self.now);
        self.gossip(pid);
        self.drive(pid, None);
    }

    /// Byzantine message forgery: put `pid`'s lies on the wire, a different
    /// set per outgoing link, bypassing its honest port. The receivers
    /// convict them by inspection; anything that slips through is
    /// overwritten by the next honest resend.
    fn forge(&mut self, pid: usize) {
        if self.muted[pid] {
            return;
        }
        let _ = writeln!(self.trace, "t {} forge p{pid}", self.now);
        let lies = self.cores[pid].forge(self.now);
        let tag = self.cores[pid].causal_tag();
        for (&link, burst) in self.out_links[pid].iter().zip(lies) {
            for msg in burst {
                self.net.send_tagged(link, msg, tag);
            }
            self.net.flush(link);
            self.messages_sent[pid] += 1;
        }
    }

    /// Fail-stop `pid`: record the stop, then never gossip or drive again.
    fn mute(&mut self, pid: usize) {
        let _ = writeln!(self.trace, "t {} mute p{pid}", self.now);
        self.cores[pid].record_fail_stop(self.now);
        self.muted[pid] = true;
    }
}

/// Run the sweep program over `dag` deterministically on the simulated
/// network. Two calls with equal inputs return byte-identical reports
/// (including [`SweepSimReport::trace`]).
pub fn run(dag: SweepDag, cfg: SweepSimConfig) -> SweepSimReport {
    assert!(cfg.n_phases >= 2);
    assert!(
        cfg.retransmit_every > 0.0 && cfg.retransmit_every.is_finite(),
        "retransmit_every must be positive and finite, got {}",
        cfg.retransmit_every
    );
    let program = Arc::new(SweepBarrier::new(dag, cfg.n_phases));
    let n = program.dag().num_processes();
    let mut rng = SimRng::seed_from_u64(cfg.seed);

    // One link per subscription, numbered in link order. This is where the
    // partner schedule of the log-depth grids materializes as links.
    let links = subscriptions(program.dag());
    let mut out_links: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut dest_of: Vec<usize> = Vec::with_capacity(links.len());
    for (i, &(from, to)) in links.iter().enumerate() {
        out_links[from].push(i);
        dest_of.push(to);
    }

    let net: SimNet<PosMsg> = SimNet::new(vec![cfg.link; links.len()], rng.next_u64());
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
    let mut d = Driver {
        net,
        ctl: BinaryHeap::new(),
        ctl_seq: 0,
        now: Time::ZERO,
        cores,
        out_links,
        dest_of,
        staged: Vec::new(),
        messages_sent: vec![0; n],
        resend: vec![Resend::new(Time::new(cfg.retransmit_every)); n],
        advances: 0,
        trace: String::new(),
        muted: vec![false; n],
        cfg,
    };

    for (plan, ctl) in [
        (d.cfg.poisons.clone(), Ctl::Poison as fn(usize) -> Ctl),
        (d.cfg.mutes.clone(), Ctl::Mute),
        (d.cfg.forgeries.clone(), Ctl::Forge),
    ] {
        for (t, pid) in plan {
            assert!(pid < n, "fault-plan target {pid} out of range");
            d.schedule(t, ctl(pid));
        }
    }

    // t = 0: everyone announces its start state, then takes any enabled
    // steps (the root's first token action fires immediately).
    for pid in 0..n {
        d.gossip(pid);
    }
    for pid in 0..n {
        d.drive(pid, None);
    }

    let max_time = Time::new(d.cfg.max_time);
    let mut reached = d.advances >= d.cfg.target_phases;
    let mut wedge_reason: Option<&str> = None;
    let mut touched = Vec::new();
    while !reached {
        // A superseded resend timer is no scheduling point: drop it unseen.
        while let Some(&Reverse((_, Ctl::Resend { pid, gen }))) = d.ctl.peek() {
            if d.resend[pid].is_live(gen) {
                break;
            }
            d.ctl.pop();
        }
        let t_net = d.net.next_event_time();
        let t_ctl = d.ctl.peek().map(|&Reverse((key, _))| key_time(key));
        // Deliveries win ties against control events.
        let (t, is_net) = match (t_net, t_ctl) {
            (None, None) => {
                // Quiescent: nothing can ever happen again.
                wedge_reason = Some("quiescent-without-completion");
                break;
            }
            (None, Some(tc)) => (tc, false),
            (Some(tn), Some(tc)) if tc < tn => (tc, false),
            (Some(tn), _) => (tn, true),
        };
        if t > max_time {
            wedge_reason = Some("max_time");
            break;
        }
        d.now = t;
        let ctl_ev = if is_net {
            None
        } else {
            let Reverse((_, ev)) = d.ctl.pop().expect("peeked");
            Some(ev)
        };
        d.net.advance_to(t, &mut touched);
        for &link in &touched {
            d.drive(d.dest_of[link], Some(link));
        }
        match ctl_ev {
            Some(Ctl::Resend { pid, .. }) => d.resend(pid),
            Some(Ctl::Poison(pid)) => d.poison(pid),
            Some(Ctl::Mute(pid)) => d.mute(pid),
            Some(Ctl::Forge(pid)) => d.forge(pid),
            None => {}
        }
        reached = d.advances >= d.cfg.target_phases;
    }

    let mut events = Vec::new();
    for core in &mut d.cores {
        events.append(core.events());
    }
    let replayed = replay(d.cfg.n_phases, n, &mut events);

    let net_stats = d.net.stats();
    let _ = writeln!(
        d.trace,
        "end t {} advances {} net {:?}",
        d.now, d.advances, net_stats
    );
    let flight_dump = if reached {
        None
    } else {
        Some(recorder.snapshot().to_flight_json(
            "sweep_sim",
            n,
            "wedge",
            wedge_reason.unwrap_or("target-not-reached"),
        ))
    };
    SweepSimReport {
        root_phase_advances: d.advances,
        violations: replayed.violations,
        phases_completed: replayed.phases_completed,
        messages_sent: d.messages_sent,
        reached_target: reached,
        virtual_elapsed: d.now,
        forged_dropped: d.cores.iter().map(|c| c.forged_dropped).sum(),
        net: net_stats,
        trace: d.trace,
        flight_dump,
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
            assert!(report.trace.contains("forge p1"), "{name} trace logs it");
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
        assert!(!clean.trace.contains("forge"));
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
