//! Differential tests: the event-incremental scheduler must be byte-for-byte
//! equivalent to the full-rescan reference scheduler on every protocol that
//! provides `readers_of` hints.
//!
//! `EngineConfig::full_rescan = true` forces the reference path (rescan every
//! guard after every event); the default path re-checks only the dirty set.
//! Both must produce the identical event trace, final global state, and run
//! statistics — with and without faults — or the reader sets are wrong.

use ftbarrier_core::churn::{run_churn, ChurnExperiment};
use ftbarrier_core::sim::{
    measure_phases, measure_phases_with_telemetry, PhaseExperiment, SweepOracleMonitor,
    TopologySpec,
};
use ftbarrier_core::spec::Anchor;
use ftbarrier_core::sweep::{PosState, SweepBarrier};
use ftbarrier_core::testkit::{
    assert_identical, differential_config as config, run_classic as run_sweep,
    run_classic_telemetry as run_sweep_telemetry, RunRecord,
};
use ftbarrier_core::token_ring::TokenRing;
use ftbarrier_core::Sn;
use ftbarrier_gcs::fault::NoFaults;
use ftbarrier_gcs::trace::{Trace, TraceEvent};
use ftbarrier_gcs::{Engine, EngineConfig, Time};
use ftbarrier_telemetry::{Telemetry, TimeDomain};

fn run_token_ring(seed: u64, full_rescan: bool) -> RunRecord<Sn> {
    // A nonzero hop cost makes simulated time advance, so the max_time
    // horizon terminates the run (the ring never reaches a fixpoint).
    let mut program = TokenRing::new(7);
    program.hop_cost = Time::new(0.05);
    let mut engine = Engine::new(&program, seed);
    engine.perturb_all();
    let mut trace = Trace::unbounded();
    let out = engine.run(&config(25.0, full_rescan), &mut NoFaults, &mut trace);
    (
        trace.events().cloned().collect(),
        engine.global().to_vec(),
        [
            out.stats.actions_executed,
            out.stats.commits_dropped,
            out.stats.faults,
        ],
    )
}

const TOPOLOGIES: [(&str, TopologySpec); 6] = [
    ("ring", TopologySpec::Ring { n: 8 }),
    ("tree", TopologySpec::Tree { n: 16, arity: 2 }),
    ("mb-ring", TopologySpec::MbRing { n: 8 }),
    (
        "dissemination",
        TopologySpec::Dissemination { n: 8, radix: 2 },
    ),
    ("hypercube", TopologySpec::Hypercube { n: 8 }),
    ("butterfly", TopologySpec::Butterfly { n: 8 }),
];

#[test]
fn sweep_topologies_match_full_rescan_without_faults() {
    for (name, spec) in TOPOLOGIES {
        for seed in [0xD1F1u64, 0xD1F2, 0xD1F3] {
            assert_identical(
                &format!("{name} seed {seed:#x}"),
                run_sweep(spec, seed, 0.0, false),
                run_sweep(spec, seed, 0.0, true),
            );
        }
    }
}

#[test]
fn sweep_topologies_match_full_rescan_under_process_faults() {
    for (name, spec) in TOPOLOGIES {
        for seed in [0xFA01u64, 0xFA02, 0xFA03] {
            assert_identical(
                &format!("{name} faulted seed {seed:#x}"),
                run_sweep(spec, seed, 0.3, false),
                run_sweep(spec, seed, 0.3, true),
            );
        }
    }
}

#[test]
fn token_ring_matches_full_rescan() {
    for seed in [7u64, 8, 9] {
        assert_identical(
            &format!("token ring seed {seed}"),
            run_token_ring(seed, false),
            run_token_ring(seed, true),
        );
    }
}

#[test]
fn telemetry_monitors_leave_engine_trace_byte_identical() {
    // The whole telemetry layer is a pure observer: attaching a *recording*
    // handle must not change a single trace event, final state, or stat.
    for (name, spec) in TOPOLOGIES {
        for seed in [0x7E1Eu64, 0x7E2E] {
            let tele = Telemetry::recording(TimeDomain::Virtual);
            let on = run_sweep_telemetry(spec, seed, 0.3, false, &tele);
            let off = run_sweep(spec, seed, 0.3, false);
            assert_identical(&format!("{name} telemetry seed {seed:#x}"), on, off);
            assert!(
                !tele.snapshot().metrics.is_empty(),
                "{name}: telemetry actually recorded"
            );
        }
    }
}

#[test]
fn measure_phases_identical_with_telemetry_on_and_off() {
    for (name, spec) in TOPOLOGIES {
        for seed in [0xABC1u64, 0xABC2] {
            let exp = PhaseExperiment {
                topology: spec,
                c: 0.02,
                f: 0.05,
                seed,
                target_phases: 30,
                ..Default::default()
            };
            let tele = Telemetry::recording(TimeDomain::Virtual);
            let on = measure_phases_with_telemetry(&exp, &tele);
            let off = measure_phases(&exp);
            assert_eq!(on, off, "{name} seed {seed:#x}: measurements diverge");
        }
    }
}

/// Replicate exactly what the churn driver's first (and, fault-free, only)
/// segment does — same program construction, initial states, RNG seeds, and
/// monitor-driven stop — but on the *bare* program with no membership
/// machinery at all.
fn plain_churn_reference(
    spec: TopologySpec,
    seed: u64,
    target: u64,
    horizon: f64,
) -> (Vec<TraceEvent<PosState>>, Vec<PosState>) {
    let dag = spec.build().unwrap();
    let n_positions = dag.num_positions();
    let program = SweepBarrier::new(dag, 8)
        .with_sn_domain(2 * n_positions as u32 + 3)
        .with_costs(Time::new(0.01), Time::new(1.0));
    let mut engine = Engine::from_state(&program, seed, vec![PosState::start(); n_positions]);
    let mut oracle = SweepOracleMonitor::new(&program, Anchor::StrictFromZero).stop_after(target);
    let mut trace = Trace::unbounded();
    let cfg = EngineConfig {
        max_time: Some(Time::new(horizon)),
        ..Default::default()
    };
    engine.run(&cfg, &mut NoFaults, &mut (&mut oracle, &mut trace));
    (trace.events().cloned().collect(), engine.global().to_vec())
}

#[test]
fn churn_driver_with_no_events_is_byte_identical_to_a_plain_run() {
    // The membership layer (masked protocol wrapper, view mapping, oracle
    // segmentation) must be invisible when nothing churns: the recorded
    // trace and final states match a bare engine run byte for byte.
    for (name, spec) in TOPOLOGIES {
        for seed in [0xC0AAu64, 0xC0BB] {
            let m = run_churn(&ChurnExperiment {
                topology: spec,
                seed,
                target_phases: 25,
                horizon: 120.0,
                record_trace: true,
                ..Default::default()
            });
            let (ref_trace, ref_states) = plain_churn_reference(spec, seed, 25, 120.0);
            assert_eq!(
                m.trace, ref_trace,
                "{name} seed {seed:#x}: churn-layer trace diverges from the bare run"
            );
            assert_eq!(
                m.final_states, ref_states,
                "{name} seed {seed:#x}: final states diverge"
            );
            assert!(!m.trace.is_empty(), "{name}: run did nothing");
            assert_eq!(m.violations, 0, "{name} seed {seed:#x}");
            assert_eq!((m.suspicions, m.rejoins, m.epoch), (0, 0, 0), "{name}");
        }
    }
}

#[test]
fn measure_phases_is_deterministic() {
    // Two identical experiment descriptions must yield byte-identical
    // measurements — the regression guard for the parallel sweep harness,
    // whose correctness rests on cells being pure functions of their seeds.
    let exp = PhaseExperiment {
        topology: TopologySpec::Tree { n: 16, arity: 2 },
        c: 0.02,
        f: 0.05,
        target_phases: 30,
        ..Default::default()
    };
    let a = measure_phases(&exp);
    let b = measure_phases(&exp);
    assert_eq!(a, b);
}
