//! Differential suite: program MB is one state machine ([`MbCore`]) compiled
//! against two transports — real threads over faulty channels (driven on
//! virtual time by a [`TestClock`]) and the seeded discrete-event simulated
//! network. The same topology, fault plan, and seed must produce oracle-clean
//! runs with identical successful-phase counts on both; the sim backend must
//! additionally be byte-for-byte replayable. Mirrors the style of
//! `crates/core/tests/differential.rs` (engine vs. incremental scheduler).

use ftbarrier_gcs::{SimRng, Time};
use ftbarrier_mp::channel::ChannelFaults;
use ftbarrier_mp::clock::{Clock, TestClock};
use ftbarrier_mp::mb::{spawn_on, MbConfig, MbReport, MbRun};
use ftbarrier_mp::mb_sim::{self, FaultPlan, SimMbConfig, SimMbReport};
use ftbarrier_mp::simnet::{LatencyModel, LinkConfig};
use ftbarrier_mp::transport::channel_ring;
use std::sync::Arc;

/// One scenario, expressed once and lowered onto both backends.
#[derive(Clone)]
struct Scenario {
    n: usize,
    target_phases: u64,
    seed: u64,
    faults: ChannelFaults,
    /// `(virtual time, pid)` detectable-fault injections.
    poisons: Vec<(f64, usize)>,
}

fn run_sim(s: &Scenario) -> SimMbReport {
    mb_sim::run(SimMbConfig {
        n: s.n,
        target_phases: s.target_phases,
        seed: s.seed,
        link: LinkConfig {
            latency: LatencyModel::Fixed(0.01),
            faults: s.faults,
        },
        plan: FaultPlan {
            poisons: s.poisons.clone(),
            ..Default::default()
        },
        // Poisons land mid-phase only if phases take time; match the
        // threaded run, whose phase body is empty, by keeping cost small
        // relative to the poison schedule.
        phase_cost: 0.0,
        ..Default::default()
    })
}

/// Drive a spawned threaded run to completion on virtual time, injecting the
/// scenario's poisons as their virtual instants pass. No sleeps.
fn drive_virtual(run: &MbRun, clock: &TestClock, plan: &[(f64, usize)]) {
    let h = run.handle();
    let mut next = 0;
    while !run.stopped() {
        clock.advance(0.01);
        let now = clock.now().as_f64();
        while next < plan.len() && plan[next].0 <= now {
            h.poison(plan[next].1);
            next += 1;
        }
        std::thread::yield_now();
    }
}

fn run_threaded(s: &Scenario) -> MbReport {
    let config = MbConfig {
        n: s.n,
        target_phases: s.target_phases,
        faults: s.faults,
        seed: s.seed,
        retransmit_every: Time::new(0.05),
        deadline: Time::new(2_000.0),
        ..Default::default()
    };
    let clock = TestClock::new();
    let mut rng = SimRng::seed_from_u64(s.seed);
    let endpoints = channel_ring(s.n, s.faults, &mut rng);
    let run = spawn_on(config, endpoints, clock.clone() as Arc<dyn Clock>);
    drive_virtual(&run, &clock, &s.poisons);
    run.join()
}

/// The differential invariant: both backends mask the scenario's faults
/// (oracle-clean), reach the target, and agree on the number of
/// successfully completed phases.
fn assert_agreement(s: &Scenario) {
    let sim = run_sim(s);
    let thr = run_threaded(s);

    assert!(sim.reached_target, "sim timed out: {sim:?}");
    assert!(thr.reached_target, "threaded timed out: {thr:?}");
    assert!(
        sim.violations.is_empty(),
        "sim violations: {:?}",
        sim.violations
    );
    assert!(
        thr.violations.is_empty(),
        "threaded violations: {:?}",
        thr.violations
    );
    assert_eq!(
        sim.phases_completed, thr.phases_completed,
        "backends disagree on successful phases (sim {:?} vs threaded {:?})",
        sim.instance_counts, thr.instance_counts
    );
    assert_eq!(sim.phases_completed, s.target_phases);
}

#[test]
fn fault_free_backends_agree() {
    assert_agreement(&Scenario {
        n: 4,
        target_phases: 10,
        seed: 11,
        faults: ChannelFaults::NONE,
        poisons: vec![],
    });
}

#[test]
fn lossy_backends_agree() {
    assert_agreement(&Scenario {
        n: 4,
        target_phases: 8,
        seed: 22,
        faults: ChannelFaults {
            loss: 0.25,
            ..ChannelFaults::NONE
        },
        poisons: vec![],
    });
}

#[test]
fn nasty_backends_agree() {
    assert_agreement(&Scenario {
        n: 3,
        target_phases: 6,
        seed: 33,
        faults: ChannelFaults::nasty(),
        poisons: vec![],
    });
}

#[test]
fn poisoned_backends_agree() {
    assert_agreement(&Scenario {
        n: 4,
        target_phases: 12,
        seed: 44,
        faults: ChannelFaults {
            loss: 0.1,
            ..ChannelFaults::NONE
        },
        poisons: vec![(0.4, 2), (1.1, 1)],
    });
}

#[test]
fn many_seeds_agree() {
    for seed in [1u64, 7, 1998] {
        assert_agreement(&Scenario {
            n: 4,
            target_phases: 6,
            seed,
            faults: ChannelFaults {
                loss: 0.15,
                duplication: 0.1,
                ..ChannelFaults::NONE
            },
            poisons: vec![],
        });
    }
}

/// The sim half of the differential promise: determinism. Two runs of the
/// same seed are byte-identical down to the trace; a different seed takes a
/// visibly different run.
#[test]
fn sim_is_replayable_threads_need_not_be() {
    let s = Scenario {
        n: 4,
        target_phases: 8,
        seed: 55,
        faults: ChannelFaults {
            loss: 0.2,
            reorder: 0.1,
            ..ChannelFaults::NONE
        },
        poisons: vec![(0.7, 3)],
    };
    let a = run_sim(&s);
    let b = run_sim(&s);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.instance_counts, b.instance_counts);
    assert_eq!(a.messages_sent, b.messages_sent);
    assert_eq!(a.virtual_elapsed, b.virtual_elapsed);
    assert_eq!(a.net, b.net);

    let c = run_sim(&Scenario { seed: 56, ..s });
    assert_ne!(a.trace.render(), c.trace.render());
}
