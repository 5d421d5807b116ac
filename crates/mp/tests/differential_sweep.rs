//! Differential suite for the sweep program: one state machine
//! ([`SweepCore`](ftbarrier_mp::SweepCore)) under two drivers — real threads
//! over faulty channels on a [`TestClock`], and the seeded discrete-event
//! simulated network.
//!
//! The golden fixtures pin `sweep_sim::run` bit for bit. They were recorded
//! on the commit *before* the sweep backends were merged onto `SweepCore`
//! (the two hand-rolled gossip loops), so they prove the merge kept the rng
//! draw order, the link numbering and the gossip order; the benchmark's
//! `sweep_sim.*_msgs_per_phase` counters are unchanged by construction.

use ftbarrier_gcs::SimRng;
use ftbarrier_mp::channel::ChannelFaults;
use ftbarrier_mp::clock::{Clock, TestClock};
use ftbarrier_mp::simnet::{LatencyModel, LinkConfig};
use ftbarrier_mp::sweep_mp::{self, SweepMpConfig, SweepMpReport};
use ftbarrier_mp::sweep_sim::{self, SweepSimConfig, SweepSimReport};
use ftbarrier_mp::{channel_mesh, subscriptions};
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
        fnv1a(report.trace.as_bytes()),
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
        0x67f9_a9a7_01ac_08c2,
        &[882, 505, 590, 708, 605, 720, 605, 595],
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
        0x49f1_4d28_49be_dbb2,
        &[324, 162, 162, 106, 106, 106, 106, 106],
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
    let mut sent = [3402; 16];
    sent[0] = 3404;
    assert_golden(&report, 0xb2ff_ae03_9966_4d90, &sent);
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
    assert_eq!(fnv1a(report.trace.as_bytes()), 0x3b39_663f_5cd7_513c);
    let dump = report.flight_dump.expect("wedged run dumps");
    assert_eq!(fnv1a(dump.as_bytes()), 0xa093_be91_2d9b_564e);
}

/// A threaded sweep run on virtual time: the test advances the clock while
/// the process threads spin. No wall-clock timing is asserted.
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
    while !run.stopped() {
        clock.advance(step);
        std::thread::yield_now();
    }
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
