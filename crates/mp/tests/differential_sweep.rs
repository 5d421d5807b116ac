//! Differential suite for the sweep program: one state machine
//! ([`SweepCore`](ftbarrier_mp::SweepCore)) under two drivers — real threads
//! over faulty channels on a [`TestClock`], and the seeded discrete-event
//! simulated network.
//!
//! The golden fixtures pin `sweep_sim::run` bit for bit: the rng draw order,
//! the link numbering, the gossip order and the resend schedule. They were
//! first recorded before the sweep backends were merged onto `SweepCore`,
//! and proved the merge changed none of these. They were re-recorded once
//! since, when fixed-period retransmission gave way to the [`Resend`]
//! backoff (send on change, resend quiet state at a doubling interval):
//! that change moves every resend, and so every trace and message count,
//! by construction. The exact messages-per-phase ratchet lives in
//! `tests/message_counts.rs`.
//!
//! [`Resend`]: ftbarrier_mp::Resend

use ftbarrier_gcs::SimRng;
use ftbarrier_mp::channel::ChannelFaults;
use ftbarrier_mp::simnet::{LatencyModel, LinkConfig};
use ftbarrier_mp::sweep_mp::{self, SweepMpConfig, SweepMpReport};
use ftbarrier_mp::sweep_sim::{self, SweepSimConfig, SweepSimReport};
use ftbarrier_mp::{channel_mesh, subscriptions};
use ftbarrier_mp::{Clock, TestClock};
use ftbarrier_telemetry::FlightDump;
use ftbarrier_topology::SweepDag;
use std::sync::Arc;
use std::time::Duration;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn link(loss: f64, duplication: f64, corruption: f64) -> LinkConfig {
    LinkConfig {
        latency: LatencyModel::Fixed(0.01),
        faults: ChannelFaults {
            loss,
            duplication,
            corruption,
            ..ChannelFaults::NONE
        },
    }
}

fn assert_golden(report: &SweepSimReport, trace_fnv1a: u64, messages_sent: &[u64]) {
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.messages_sent, messages_sent);
    assert_eq!(
        fnv1a(report.trace.render().as_bytes()),
        trace_fnv1a,
        "trace diverged from the pre-merge recording:\n{}",
        report.trace
    );
}

#[test]
fn golden_dissemination_lossy_with_one_poison() {
    let report = sweep_sim::run(
        SweepDag::dissemination(8, 2).unwrap(),
        SweepSimConfig {
            target_phases: 6,
            link: link(0.15, 0.05, 0.05),
            poisons: vec![(0.3, 3)],
            ..Default::default()
        },
    );
    assert_golden(
        &report,
        0xbfc1_0069_7418_cda4,
        &[749, 455, 485, 594, 495, 558, 495, 485],
    );
    assert_eq!(report.forged_dropped, 0, "honest gossip is never convicted");
}

#[test]
fn golden_tree_with_two_forgeries() {
    let report = sweep_sim::run(
        SweepDag::tree(8, 2).unwrap(),
        SweepSimConfig {
            target_phases: 10,
            forgeries: vec![(0.4, 1), (0.9, 2)],
            ..Default::default()
        },
    );
    assert_golden(
        &report,
        0x57c4_aac2_d29f_f997,
        &[186, 93, 93, 60, 60, 60, 60, 60],
    );
    assert_eq!(report.forged_dropped, 6, "every lie is convicted");
}

/// The shape of the benchmark's `mp_sim_n16` ring chunk.
#[test]
fn golden_ring16_at_five_percent_loss() {
    let report = sweep_sim::run(
        SweepDag::ring(16).unwrap(),
        SweepSimConfig {
            target_phases: 125,
            link: link(0.05, 0.0, 0.0),
            max_time: 125.0 * 20.0 + 1000.0,
            ..Default::default()
        },
    );
    let sent = [
        2276, 2272, 2268, 2268, 2262, 2264, 2266, 2262, 2264, 2264, 2262, 2270, 2268, 2268, 2270,
        2272,
    ];
    assert_golden(&report, 0x50e5_6535_e69f_12b7, &sent);
}

/// The causal graph — who recorded what, in which order, after which
/// deliveries — is pinned through a wedged run's flight dump.
#[test]
fn golden_flight_dump_of_a_muted_tree() {
    let report = sweep_sim::run(
        SweepDag::tree(8, 2).unwrap(),
        SweepSimConfig {
            target_phases: 50,
            max_time: 10.0,
            mutes: vec![(2.0, 5)],
            ..Default::default()
        },
    );
    assert!(!report.reached_target);
    assert_eq!(
        fnv1a(report.trace.render().as_bytes()),
        0x3e5a_6ce4_7348_0955
    );
    let dump = report.flight_dump.expect("wedged run dumps");
    // The recorded events, in `(pid, seq)` order, as the single-ring
    // recorder wrote them before the per-pid lanes replaced it; then the
    // bytes, which also pin the merged order.
    let parsed = FlightDump::parse(&dump).expect("dump parses");
    assert_eq!(
        (parsed.graph.events.len(), events_fnv1a(&parsed)),
        (831, 0xc535_73c5_d04b_a3c2)
    );
    assert_eq!(fnv1a(dump.as_bytes()), 0x90e4_ffee_da4c_9ebf);
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

/// A threaded sweep run on virtual time: the test advances the clock each
/// time every process thread has read it. No wall-clock timing is asserted.
fn run_threaded(dag: SweepDag, target_phases: u64, step: f64) -> SweepMpReport {
    let config = SweepMpConfig {
        target_phases,
        retransmit_every: Duration::from_millis(50),
        deadline: Duration::from_secs(2_000),
        ..Default::default()
    };
    let clock = TestClock::new();
    let mut rng = SimRng::seed_from_u64(config.seed);
    let endpoints = channel_mesh(
        dag.num_processes(),
        subscriptions(&dag),
        config.faults,
        &mut rng,
    );
    let run = sweep_mp::spawn_on(dag, config, endpoints, clock.clone() as Arc<dyn Clock>);
    while clock
        .advance_after_polls(step, run.processes(), || run.stopped())
        .is_some()
    {}
    run.join()
}

#[test]
fn every_family_reaches_its_target_on_both_drivers() {
    const TARGET: u64 = 6;
    for (name, dag) in [
        ("ring", SweepDag::ring(5).unwrap()),
        ("tree", SweepDag::tree(8, 2).unwrap()),
        ("double_tree", SweepDag::double_tree(7, 2).unwrap()),
        ("two_ring", SweepDag::two_ring(3, 3).unwrap()),
        ("dissemination", SweepDag::dissemination(4, 2).unwrap()),
        ("hypercube", SweepDag::hypercube(4).unwrap()),
        ("butterfly", SweepDag::butterfly(4).unwrap()),
    ] {
        let sim = sweep_sim::run(
            dag.clone(),
            SweepSimConfig {
                target_phases: TARGET,
                ..Default::default()
            },
        );
        let thr = run_threaded(dag, TARGET, 0.01);
        assert!(sim.reached_target, "{name} sim: {sim:?}");
        assert!(thr.reached_target, "{name} threaded: {thr:?}");
        assert!(sim.violations.is_empty(), "{name}: {:?}", sim.violations);
        assert!(thr.violations.is_empty(), "{name}: {:?}", thr.violations);
        assert_eq!(sim.forged_dropped + thr.forged_dropped, 0, "{name}");
        // The target counts root advances; the oracle may still be waiting
        // for the last phase's stragglers when the run stops.
        for (driver, phases) in [("sim", sim.phases_completed), ("thr", thr.phases_completed)] {
            assert!(phases >= TARGET - 1, "{name} {driver}: {phases} phases");
        }
    }
}

/// The clock never moves, so every event of the run carries the same
/// timestamp: only the run-global `seq` counter can order the merged log.
/// (Sorting it by time, as `sweep_mp` once did, feeds the oracle causally
/// ordered events of different processes in thread-join order.)
#[test]
fn a_frozen_clock_still_replays_in_causal_order() {
    let report = run_threaded(SweepDag::tree(8, 2).unwrap(), 12, 0.0);
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.phases_completed >= 11, "{report:?}");
}

/// Golden run over reordering links: a log-depth grid on nasty links
/// (reorder 0.1, so gossip bursts flush held messages), poisons, forgeries
/// and a mute, which wedges the run and pins its flight dump too.
#[test]
fn golden_butterfly_on_nasty_links_with_every_fault() {
    let report = sweep_sim::run(
        SweepDag::butterfly(8).unwrap(),
        SweepSimConfig {
            target_phases: 30,
            link: LinkConfig {
                latency: LatencyModel::Fixed(0.01),
                faults: ChannelFaults::nasty(),
            },
            max_time: 40.0,
            poisons: vec![(0.5, 2), (1.7, 6)],
            forgeries: vec![(0.9, 3), (2.4, 5)],
            mutes: vec![(6.0, 4)],
            ..Default::default()
        },
    );
    assert!(!report.reached_target, "the mute wedges the run");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    let dump = report.flight_dump.as_deref().expect("wedged run dumps");
    assert_eq!(
        (
            fnv1a(report.trace.to_string().as_bytes()),
            report.messages_sent.clone(),
            fnv1a(dump.as_bytes())
        ),
        (
            0x741e_bf30_1f86_96ae,
            vec![2100, 837, 900, 1156, 375, 1184, 1172, 1148],
            0xf375_07b0_5e42_74d6
        )
    );
}
