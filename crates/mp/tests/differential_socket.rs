//! Loopback-socket differential suite: program MB is one state machine
//! compiled against the threaded channel transport and the real-TCP
//! [`SocketEndpoint`] transport. The same topology, fault plan, and seed
//! must produce oracle-clean runs with identical successful-phase counts on
//! both — the wire adds latency and framing but no new behaviour. Mirrors
//! `tests/differential_mb.rs` (threaded vs. simulated network).
//!
//! Also the socket half of the crash story: a fail-stopped (killed) process
//! wedges the ring over real sockets and the flight dump names it.

use ftbarrier_gcs::{SimRng, Time};
use ftbarrier_mp::channel::ChannelFaults;
use ftbarrier_mp::mb::{spawn_on, MbConfig, MbReport, MbRun};
use ftbarrier_mp::socket::{socket_ring, SocketEndpoint};
use ftbarrier_mp::transport::channel_ring;
use ftbarrier_mp::{Clock, TestClock};
use ftbarrier_telemetry::FlightDump;
use std::sync::Arc;

/// One scenario, expressed once and lowered onto both transports.
#[derive(Clone)]
struct Scenario {
    n: usize,
    target_phases: u64,
    seed: u64,
    faults: ChannelFaults,
    /// `(virtual time, pid)` detectable-fault injections.
    poisons: Vec<(f64, usize)>,
}

fn config_for(s: &Scenario) -> MbConfig {
    MbConfig {
        n: s.n,
        target_phases: s.target_phases,
        faults: s.faults,
        seed: s.seed,
        retransmit_every: Time::new(0.05),
        deadline: Time::new(2_000.0),
        ..Default::default()
    }
}

/// Drive a spawned run to completion on virtual time, injecting the
/// scenario's poisons as their virtual instants pass. The clock moves only
/// after every process thread has read it since its last move, so virtual
/// time cannot outrun threads the machine is not scheduling. No sleeps.
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

fn run_on_channels(s: &Scenario) -> MbReport {
    let clock = TestClock::new();
    let mut rng = SimRng::seed_from_u64(s.seed);
    let endpoints = channel_ring(s.n, s.faults, &mut rng);
    let run = spawn_on(config_for(s), endpoints, clock.clone() as Arc<dyn Clock>);
    drive_virtual(&run, &clock, &s.poisons);
    run.join()
}

fn run_on_sockets(s: &Scenario) -> MbReport {
    let clock = TestClock::new();
    let mut rng = SimRng::seed_from_u64(s.seed);
    let endpoints: Vec<SocketEndpoint> =
        socket_ring(s.n, s.faults, &mut rng).expect("loopback ring");
    let run = spawn_on(config_for(s), endpoints, clock.clone() as Arc<dyn Clock>);
    drive_virtual(&run, &clock, &s.poisons);
    run.join()
}

/// The differential invariant: both transports mask the scenario's faults
/// (oracle-clean), reach the target, and agree on the number of
/// successfully completed phases.
fn assert_agreement(s: &Scenario) {
    let chan = run_on_channels(s);
    let sock = run_on_sockets(s);

    assert!(chan.reached_target, "channel run timed out: {chan:?}");
    assert!(sock.reached_target, "socket run timed out: {sock:?}");
    assert!(
        chan.violations.is_empty(),
        "channel violations: {:?}",
        chan.violations
    );
    assert!(
        sock.violations.is_empty(),
        "socket violations: {:?}",
        sock.violations
    );
    assert_eq!(
        chan.phases_completed, sock.phases_completed,
        "transports disagree on successful phases (channel {:?} vs socket {:?})",
        chan.instance_counts, sock.instance_counts
    );
    assert_eq!(chan.phases_completed, s.target_phases);
}

#[test]
fn fault_free_transports_agree_across_seeds() {
    for seed in [1u64, 2, 3] {
        assert_agreement(&Scenario {
            n: 4,
            target_phases: 8,
            seed,
            faults: ChannelFaults::NONE,
            poisons: vec![],
        });
    }
}

#[test]
fn lossy_transports_agree_across_seeds() {
    for seed in [1u64, 2, 3] {
        assert_agreement(&Scenario {
            n: 4,
            target_phases: 6,
            seed,
            faults: ChannelFaults {
                loss: 0.25,
                ..ChannelFaults::NONE
            },
            poisons: vec![],
        });
    }
}

#[test]
fn nasty_transports_agree_across_seeds() {
    for seed in [1u64, 2, 3] {
        assert_agreement(&Scenario {
            n: 3,
            target_phases: 6,
            seed,
            faults: ChannelFaults::nasty(),
            poisons: vec![],
        });
    }
}

#[test]
fn poisoned_transports_agree() {
    assert_agreement(&Scenario {
        n: 4,
        target_phases: 10,
        seed: 44,
        faults: ChannelFaults {
            loss: 0.1,
            ..ChannelFaults::NONE
        },
        poisons: vec![(0.4, 2), (1.1, 1)],
    });
}

/// A killed client over sockets: once the barrier is in steady state,
/// fail-stop one process. No repair wave can pass a silent ring member, so
/// the run wedges, the deadline fires, and the flight dump must blame the
/// exact pid that went dark.
#[test]
fn killed_socket_process_is_blamed_in_the_flight_dump() {
    let clock = TestClock::new();
    let mut rng = SimRng::seed_from_u64(77);
    let endpoints = socket_ring(4, ChannelFaults::NONE, &mut rng).expect("loopback ring");
    let config = MbConfig {
        n: 4,
        target_phases: 1_000,
        seed: 77,
        retransmit_every: Time::new(0.05),
        deadline: Time::new(60.0),
        ..Default::default()
    };
    let run = spawn_on(config, endpoints, clock.clone() as Arc<dyn Clock>);
    let h = run.handle();
    while run.root_phase_advances() < 3 {
        clock
            .advance_after_polls(0.01, run.processes(), || run.stopped())
            .expect("the run stopped before steady state");
    }
    h.mute(2);
    while clock
        .advance_after_polls(0.01, run.processes(), || run.stopped())
        .is_some()
    {}
    let report = run.join();
    assert!(!report.reached_target, "{report:?}");
    let dump = report.flight_dump.as_deref().expect("wedged run dumps");
    let parsed = FlightDump::parse(dump).expect("dump parses");
    parsed.replay().expect("dump replays");
    assert_eq!(parsed.program, "mb");
    assert_eq!(parsed.kind, "wedge");
    assert_eq!(parsed.reason, "deadline");
    assert_eq!(parsed.blamed, Some(2), "the killed process is the culprit");
    let last_of_2 = parsed
        .graph
        .events
        .iter()
        .rev()
        .find(|e| e.id.pid == 2)
        .expect("p2 recorded events");
    assert_eq!(last_of_2.label, "fault:stop");
}
