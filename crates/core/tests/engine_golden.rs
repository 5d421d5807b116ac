//! Golden runs of the executors.
//!
//! The differential suite compares the incremental scheduler against the
//! full rescan; a change to guard evaluation that every executor shares
//! would pass that comparison. These tests pin each run to an absolute value instead: an
//! FNV-1a hash over the `Debug` rendering of the trace events, the final
//! global state and the run statistics (action and fault counts, dropped
//! commits, the per-action histogram). The hashes were recorded before the
//! executors switched to one fused enabled-actions pass, so a run that
//! changes a single trace byte fails here.
//!
//! The fused pass itself is held to its contract by a seeded property test
//! at the end: on arbitrary global states of every topology kind, the
//! enabled list equals filtering the individual guards.

use std::fmt::{Debug, Write};

use ftbarrier_core::sim::{measure_phases, PhaseExperiment, TopologySpec};
use ftbarrier_core::sweep::{
    PosState, ProcessFaults, SweepBarrier, SweepDetectableFault, POSTWORK, RECV, T3, T4, T5, WORK,
};
use ftbarrier_gcs::fault::NoFaults;
use ftbarrier_gcs::trace::Trace;
use ftbarrier_gcs::{
    ActionId, ChoicePolicy, Engine, EngineConfig, Interleaving, InterleavingConfig, Masked,
    Protocol, RunStats, SimRng, Time,
};

/// 64-bit FNV-1a over everything written into it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, value: &impl Debug) {
        write!(self, "{value:?}|").expect("hashing never fails");
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

fn hash_run(trace: &Trace<PosState>, global: &[PosState], stats: &RunStats) -> u64 {
    let mut h = Fnv::new();
    for event in trace.events() {
        h.add(event);
    }
    h.add(&global);
    h.add(&stats.actions_executed);
    h.add(&stats.commits_dropped);
    h.add(&stats.faults);
    h.add(&stats.by_action);
    h.0
}

/// One timed-engine run of the sweep program.
#[derive(Clone, Copy)]
struct EngineCase {
    topology: TopologySpec,
    /// Detectable-fault frequency per process and unit time.
    f: f64,
    /// §8 fuzzy `(pre, post)` split of the unit phase body.
    split: Option<(f64, f64)>,
    /// Start from `perturb_all` (an arbitrary state) instead of the start
    /// state.
    perturb: bool,
    horizon: f64,
    seed: u64,
}

fn program(topology: TopologySpec, split: Option<(f64, f64)>) -> SweepBarrier {
    let program = SweepBarrier::new(topology.build().expect("valid topology"), 8)
        .with_costs(Time::new(0.01), Time::new(1.0));
    match split {
        Some((pre, post)) => program.with_fuzzy_split(Time::new(pre), Time::new(post)),
        None => program,
    }
}

fn run_engine<P: Protocol<State = PosState>>(
    program: &P,
    faults_from: &SweepBarrier,
    case: EngineCase,
    full_rescan: bool,
) -> (u64, RunStats) {
    let mut engine = Engine::new(program, case.seed);
    if case.perturb {
        engine.perturb_all();
    }
    let mut trace = Trace::unbounded();
    let cfg = EngineConfig {
        max_time: Some(Time::new(case.horizon)),
        max_commits: Some(2_000_000),
        full_rescan,
    };
    let out = if case.f > 0.0 {
        let mut faults =
            ProcessFaults::new(faults_from, case.f, SweepDetectableFault { n_phases: 8 });
        engine.run(&cfg, &mut faults, &mut trace)
    } else {
        engine.run(&cfg, &mut NoFaults, &mut trace)
    };
    (hash_run(&trace, engine.global(), &out.stats), out.stats)
}

/// Run `case` under both scheduler modes, which must agree; returns the
/// run's hash and statistics.
fn engine_hash(name: &str, case: EngineCase) -> (u64, RunStats) {
    let mut program = program(case.topology, case.split);
    if case.perturb {
        // The smallest legal sequence-number domain makes ⊥/⊤ common in
        // arbitrary states, so the repair actions T3/T4/T5 get to run.
        let positions = program.dag().num_positions() as u32;
        program = program.with_sn_domain(positions + 1);
    }
    let (incremental, stats) = run_engine(&program, &program, case, false);
    let (full, _) = run_engine(&program, &program, case, true);
    assert_eq!(
        incremental, full,
        "{name}: incremental {incremental:#018x} != full rescan {full:#018x}"
    );
    (incremental, stats)
}

/// Run `case` under both scheduler modes; both must hit `golden`.
fn check_engine(name: &str, case: EngineCase, golden: u64) -> RunStats {
    let (h, stats) = engine_hash(name, case);
    assert_eq!(
        h, golden,
        "{name}: run hashes to {h:#018x}, golden is {golden:#018x}"
    );
    stats
}

const TREE32: TopologySpec = TopologySpec::Tree { n: 32, arity: 2 };

fn strict(topology: TopologySpec, f: f64, horizon: f64, seed: u64) -> EngineCase {
    EngineCase {
        topology,
        f,
        split: None,
        perturb: false,
        horizon,
        seed,
    }
}

#[test]
fn tree32_fault_free() {
    check_engine(
        "tree(32,2) f=0",
        strict(TREE32, 0.0, 40.0, 0xBA44),
        0x8509_9be3_156d_4962,
    );
}

#[test]
fn tree32_detectable_faults() {
    let stats = check_engine(
        "tree(32,2) f=0.05",
        strict(TREE32, 0.05, 200.0, 0xBA45),
        0x1f3c_df1b_729b_49d3,
    );
    assert!(stats.faults > 0);
}

#[test]
fn ring64_detectable_faults() {
    let stats = check_engine(
        "ring(64) f=0.05",
        strict(TopologySpec::Ring { n: 64 }, 0.05, 150.0, 0xBA46),
        0xab14_c82b_fb4f_7592,
    );
    assert!(stats.faults > 0);
}

#[test]
fn fuzzy_split_tree16() {
    let stats = check_engine(
        "fuzzy (0.5, 0.5) tree(16,2)",
        EngineCase {
            split: Some((0.5, 0.5)),
            ..strict(TopologySpec::Tree { n: 16, arity: 2 }, 0.05, 100.0, 0xBA47)
        },
        0x0103_9925_b6b2_fa86,
    );
    assert!(stats.count_of("POSTWORK") > 0);
}

#[test]
fn mb_ring8() {
    check_engine(
        "mb_ring(8)",
        strict(TopologySpec::MbRing { n: 8 }, 0.05, 100.0, 0xBA48),
        0x9982_bc7e_8b1a_8bd9,
    );
}

#[test]
fn dissemination16() {
    check_engine(
        "dissemination(16,2)",
        strict(
            TopologySpec::Dissemination { n: 16, radix: 2 },
            0.05,
            100.0,
            0xBA49,
        ),
        0x4c47_e8a3_3543_4d21,
    );
}

#[test]
fn recovery_from_arbitrary_states_runs_the_repair_actions() {
    // perturb_all is the only start that enables T3/T4/T5: detectable
    // faults never forge ⊥/⊤ sequence numbers. 128 arbitrary starts per
    // topology, hashed together.
    let mut repairs = RunStats::default();
    for (name, topology, golden) in [
        (
            "recovery ring(8)",
            TopologySpec::Ring { n: 8 },
            0x611f_e7b9_d552_e7fa_u64,
        ),
        (
            "recovery tree(7,2)",
            TopologySpec::Tree { n: 7, arity: 2 },
            0xbd8c_7fcc_9b29_cde2,
        ),
    ] {
        let mut h = Fnv::new();
        for seed in 0xFA00..0xFA80 {
            let case = EngineCase {
                perturb: true,
                ..strict(topology, 0.0, 30.0, seed)
            };
            let (run, stats) = engine_hash(name, case);
            h.add(&run);
            for action in ["T3", "T4", "T5"] {
                repairs.add_action_count(action, stats.count_of(action));
            }
        }
        assert_eq!(h.0, golden, "{name}: runs hash to {:#018x}", h.0);
    }
    for action in ["T3", "T4", "T5"] {
        assert!(
            repairs.count_of(action) > 0,
            "no recovery run executed {action}"
        );
    }
}

#[test]
fn masked_tree16_stalls_at_the_dead_position() {
    // A dead position's guards are forced false: the fault-free sweep
    // stalls there, and the masked wrapper must agree with the bare
    // program everywhere else.
    let bare = program(TopologySpec::Tree { n: 16, arity: 2 }, None);
    let mut alive = vec![true; bare.num_processes()];
    alive[5] = false;
    let masked = Masked::new(&bare, alive);
    let case = EngineCase {
        perturb: true,
        ..strict(TopologySpec::Tree { n: 16, arity: 2 }, 0.0, 30.0, 0xDEAD)
    };
    let (incremental, _) = run_engine(&masked, &bare, case, false);
    let (full, _) = run_engine(&masked, &bare, case, true);
    let golden = 0x85e4_c970_7900_bcfa;
    assert_eq!(incremental, golden, "masked: {incremental:#018x}");
    assert_eq!(full, golden, "masked full rescan: {full:#018x}");
}

fn run_interleaving(policy: ChoicePolicy, seed: u64) -> u64 {
    let program = program(TopologySpec::Tree { n: 16, arity: 2 }, Some((0.5, 0.5)));
    let mut exec = Interleaving::new(&program, InterleavingConfig { seed, policy });
    exec.perturb_all();
    let mut trace = Trace::unbounded();
    exec.run(5_000, &mut trace);
    hash_run(&trace, exec.global(), exec.stats())
}

#[test]
fn interleaving_uniform_random_from_an_arbitrary_state() {
    let h = run_interleaving(ChoicePolicy::UniformRandom, 0x1A7E);
    assert_eq!(h, 0x14d7_f237_900b_8903, "uniform random: {h:#018x}");
}

#[test]
fn interleaving_round_robin_from_an_arbitrary_state() {
    let h = run_interleaving(ChoicePolicy::RoundRobin, 0x1A7F);
    assert_eq!(h, 0x200d_23ce_9b3a_e710, "round robin: {h:#018x}");
}

#[test]
fn measure_phases_counts() {
    // The harness `sim_paper` times, with its observers switched off.
    for (topology, f, golden) in [
        (TREE32, 0.0, 0x65dc_51fc_2906_884e_u64),
        (TREE32, 0.05, 0x25d5_c244_7621_8ea5),
        (TopologySpec::Ring { n: 64 }, 0.05, 0xaa0f_1d27_8662_5814),
    ] {
        let m = measure_phases(&PhaseExperiment {
            topology,
            f,
            target_phases: 200,
            ..Default::default()
        });
        let mut h = Fnv::new();
        h.add(&m);
        assert_eq!(
            h.0, golden,
            "{topology:?} f={f}: {m:?} hashes to {:#018x}",
            h.0
        );
    }
}

/// One topology of every kind the sweep program runs on.
const SHAPES: [TopologySpec; 8] = [
    TopologySpec::Ring { n: 8 },
    TopologySpec::TwoRing { a: 3, b: 2 },
    TopologySpec::Tree { n: 16, arity: 2 },
    TopologySpec::DoubleTree { n: 7, arity: 2 },
    TopologySpec::MbRing { n: 6 },
    TopologySpec::Dissemination { n: 8, radix: 2 },
    TopologySpec::Hypercube { n: 8 },
    TopologySpec::Butterfly { n: 4 },
];

/// Arbitrary global states drawn per topology and per program variant.
const SAMPLES: usize = 10_000;

#[test]
fn fused_enabled_actions_equal_filtering_enabled() {
    let mut rng = SimRng::seed_from_u64(0xF05E);
    let (mut fused, mut masked_fused) = (Vec::new(), Vec::new());
    for topology in SHAPES {
        for split in [None, Some((0.5, 0.5))] {
            let base = program(topology, split);
            let positions = base.dag().num_positions();
            // Half the states come from the smallest legal sequence-number
            // domain, where ⊥ and ⊤ are common enough for T3/T4/T5.
            let variants = [
                base.clone(),
                base.clone().with_sn_domain(positions as u32 + 1),
            ];
            let alive: Vec<bool> = (0..positions).map(|_| rng.chance(0.8)).collect();
            let mut seen = [false; 6];
            for program in &variants {
                let masked = Masked::new(program, alive.clone());
                for _ in 0..SAMPLES / 2 {
                    let global: Vec<PosState> = (0..positions)
                        .map(|pos| program.arbitrary_state(pos, &mut rng))
                        .collect();
                    for pos in 0..positions {
                        let filtered: Vec<ActionId> = (0..program.num_actions(pos))
                            .filter(|&a| program.enabled(&global, pos, a))
                            .collect();
                        program.enabled_actions(&global, pos, &mut fused);
                        masked.enabled_actions(&global, pos, &mut masked_fused);
                        let context =
                            || format!("{topology:?} split {split:?} pos {pos} in {global:?}");
                        assert_eq!(fused, filtered, "enabled_actions: {}", context());
                        let masked_filtered: Vec<ActionId> = (0..masked.num_actions(pos))
                            .filter(|&a| masked.enabled(&global, pos, a))
                            .collect();
                        assert_eq!(masked_fused, masked_filtered, "masked: {}", context());
                        for &a in &filtered {
                            seen[a] = true;
                        }
                    }
                }
            }
            // Every guard was exercised both ways (POSTWORK exists only in
            // the fuzzy program).
            for (action, name) in [
                (RECV, "RECV"),
                (WORK, "WORK"),
                (T3, "T3"),
                (T4, "T4"),
                (T5, "T5"),
            ] {
                assert!(
                    seen[action],
                    "{topology:?} split {split:?}: {name} never enabled"
                );
            }
            assert_eq!(
                seen[POSTWORK],
                split.is_some(),
                "{topology:?} split {split:?}: POSTWORK"
            );
        }
    }
}
