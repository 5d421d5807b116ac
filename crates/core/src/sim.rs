//! The experiment harness behind §6.2's simulation results.
//!
//! Wires a sweep program, the timed maximal-parallelism engine, a fault
//! environment, and the specification oracle together, and reports the
//! quantities the paper plots: instances per successful phase (Fig 5), time
//! per successful phase and overhead (Fig 6), and recovery time from an
//! arbitrary state (Fig 7).

use crate::cp::Cp;
use crate::intolerant::{IntolerantBarrier, IntolerantState, Phase2Cp};
use crate::spec::{Anchor, BarrierOracle, OracleConfig, Violation};
use crate::sweep::{PosState, ProcessFaults, SweepBarrier, SweepDetectableFault};
use crate::telemetry::{EpisodeAttribution, SweepLatencyMonitor};
use ftbarrier_gcs::fault::NoFaults;
use ftbarrier_gcs::{
    ActionId, CausalMonitor, Engine, EngineConfig, FaultKind, Monitor, Pid, StopReason, Time,
};
use ftbarrier_telemetry::{CausalRecorder, Telemetry};
use ftbarrier_topology::{SweepDag, TopologyError};

/// Which topology to run (§4's refinements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// Program RB: a ring of `n` processes.
    Ring { n: usize },
    /// Program RB′: two rings sharing the root.
    TwoRing { a: usize, b: usize },
    /// Fig 2(c): `arity`-ary tree over `n` processes, leaves wired to root.
    Tree { n: usize, arity: usize },
    /// Fig 2(d): double tree.
    DoubleTree { n: usize, arity: usize },
    /// Program MB: the 2(N+1)-position message-passing ring.
    MbRing { n: usize },
    /// Radix-`radix` dissemination partner schedule folded into a layered
    /// sweep (O(log n) critical path).
    Dissemination { n: usize, radix: usize },
    /// Hypercube binomial double tree (`n` a power of two).
    Hypercube { n: usize },
    /// Butterfly exchange grid (`n` a power of two).
    Butterfly { n: usize },
}

impl TopologySpec {
    pub fn build(self) -> Result<SweepDag, TopologyError> {
        match self {
            TopologySpec::Ring { n } => SweepDag::ring(n),
            TopologySpec::TwoRing { a, b } => SweepDag::two_ring(a, b),
            TopologySpec::Tree { n, arity } => SweepDag::tree(n, arity),
            TopologySpec::DoubleTree { n, arity } => SweepDag::double_tree(n, arity),
            TopologySpec::MbRing { n } => crate::sweep::mb_ring(n),
            TopologySpec::Dissemination { n, radix } => SweepDag::dissemination(n, radix),
            TopologySpec::Hypercube { n } => SweepDag::hypercube(n),
            TopologySpec::Butterfly { n } => SweepDag::butterfly(n),
        }
    }

    pub fn num_processes(self) -> usize {
        match self {
            TopologySpec::Ring { n }
            | TopologySpec::Tree { n, .. }
            | TopologySpec::DoubleTree { n, .. }
            | TopologySpec::MbRing { n }
            | TopologySpec::Dissemination { n, .. }
            | TopologySpec::Hypercube { n }
            | TopologySpec::Butterfly { n } => n,
            TopologySpec::TwoRing { a, b } => 1 + a + b,
        }
    }

    /// Short label for metric keys (`topo="ring"` etc.).
    pub fn label(self) -> &'static str {
        match self {
            TopologySpec::Ring { .. } => "ring",
            TopologySpec::TwoRing { .. } => "two-ring",
            TopologySpec::Tree { .. } => "tree",
            TopologySpec::DoubleTree { .. } => "double-tree",
            TopologySpec::MbRing { .. } => "mb-ring",
            TopologySpec::Dissemination { .. } => "dissemination",
            TopologySpec::Hypercube { .. } => "hypercube",
            TopologySpec::Butterfly { .. } => "butterfly",
        }
    }
}

/// Monitor adapter: feeds worker-position `cp` transitions of a sweep
/// program into the oracle, and stops the run after `stop_after_phases`.
pub struct SweepOracleMonitor {
    pub oracle: BarrierOracle,
    owner: Vec<Pid>,
    worker: Vec<bool>,
    pub stop_after_phases: Option<u64>,
    pub stop_at: Option<Time>,
    now: Time,
}

impl SweepOracleMonitor {
    pub fn new(program: &SweepBarrier, anchor: Anchor) -> SweepOracleMonitor {
        let dag = program.dag();
        let oracle = BarrierOracle::new(OracleConfig {
            n_processes: dag.num_processes(),
            n_phases: program.n_phases,
            anchor,
        });
        SweepOracleMonitor {
            oracle,
            owner: (0..dag.num_positions()).map(|p| dag.owner(p)).collect(),
            worker: (0..dag.num_positions())
                .map(|p| program.is_worker(p))
                .collect(),
            stop_after_phases: None,
            stop_at: None,
            now: Time::ZERO,
        }
    }

    pub fn stop_after(mut self, phases: u64) -> SweepOracleMonitor {
        self.stop_after_phases = Some(phases);
        self
    }

    fn observe(&mut self, now: Time, pos: usize, old: &PosState, new: &PosState) {
        self.now = now;
        if self.worker[pos] {
            self.oracle
                .observe_cp(now, self.owner[pos], new.ph, old.cp, new.cp);
        }
    }
}

impl Monitor<PosState> for SweepOracleMonitor {
    fn on_transition(
        &mut self,
        now: Time,
        pos: Pid,
        _action: ActionId,
        _name: &str,
        old: &PosState,
        new: &PosState,
        _global: &[PosState],
    ) {
        self.observe(now, pos, old, new);
    }

    fn on_fault(
        &mut self,
        now: Time,
        pos: Pid,
        _kind: FaultKind,
        old: &PosState,
        new: &PosState,
        _global: &[PosState],
    ) {
        self.observe(now, pos, old, new);
    }

    fn should_stop(&mut self) -> bool {
        if let Some(target) = self.stop_after_phases {
            if self.oracle.phases_completed() >= target {
                return true;
            }
        }
        if let Some(horizon) = self.stop_at {
            if self.now >= horizon {
                return true;
            }
        }
        false
    }
}

/// One phase-measurement experiment (Figs 5 and 6).
#[derive(Debug, Clone, Copy)]
pub struct PhaseExperiment {
    pub topology: TopologySpec,
    pub n_phases: u32,
    /// Communication latency `c` per hop.
    pub c: f64,
    /// Detectable-fault frequency `f` per unit time (0 disables faults).
    pub f: f64,
    pub seed: u64,
    /// Successful phases to run before stopping.
    pub target_phases: u64,
    /// §8 fuzzy barriers: split the unit phase body into `(pre, post)` work
    /// (post-work overlaps the barrier sweeps). `None` = the strict barrier
    /// with one unit of pre-work.
    pub work_split: Option<(f64, f64)>,
}

impl Default for PhaseExperiment {
    fn default() -> Self {
        PhaseExperiment {
            topology: TopologySpec::Tree { n: 32, arity: 2 },
            n_phases: 8,
            c: 0.01,
            f: 0.0,
            seed: 0xBA44,
            target_phases: 200,
            work_split: None,
        }
    }
}

/// What a phase experiment measured.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMeasurement {
    pub phases: u64,
    /// Mean instances per successful phase (Fig 3/5's y-axis).
    pub mean_instances: f64,
    /// Mean time per successful phase in steady state (first phase dropped
    /// as warmup).
    pub mean_phase_time: f64,
    pub violations: usize,
    pub aborted_instances: u64,
    pub faults: u64,
    pub elapsed: Time,
}

/// Run a sweep barrier under detectable faults and measure phase behaviour.
pub fn measure_phases(exp: &PhaseExperiment) -> PhaseMeasurement {
    measure_phases_with_telemetry(exp, &Telemetry::off())
}

/// [`measure_phases`], additionally recording detection/recovery latency
/// histograms, per-phase timings, and recovery-window spans into
/// `telemetry` (see [`crate::telemetry::SweepLatencyMonitor`]). With a
/// disabled handle this is exactly `measure_phases` — the differential
/// tests assert the measurements are identical either way.
pub fn measure_phases_with_telemetry(
    exp: &PhaseExperiment,
    telemetry: &Telemetry,
) -> PhaseMeasurement {
    measure_phases_causal(exp, telemetry, &CausalRecorder::off()).0
}

/// [`measure_phases_with_telemetry`], additionally recording the causal
/// happens-before graph into `recorder` and returning the per-episode
/// attribution report: for every completed fault→detection→recovery
/// episode, the measured critical path inside the episode window and each
/// position's share of it. With a disabled recorder the report is empty
/// and the run is exactly [`measure_phases_with_telemetry`].
pub fn measure_phases_causal(
    exp: &PhaseExperiment,
    telemetry: &Telemetry,
    recorder: &CausalRecorder,
) -> (PhaseMeasurement, Vec<EpisodeAttribution>) {
    let dag = exp.topology.build().expect("valid topology");
    let mut program =
        SweepBarrier::new(dag, exp.n_phases).with_costs(Time::new(exp.c), Time::new(1.0));
    if let Some((pre, post)) = exp.work_split {
        program = program.with_fuzzy_split(Time::new(pre), Time::new(post));
    }
    let mut monitor =
        SweepOracleMonitor::new(&program, Anchor::StrictFromZero).stop_after(exp.target_phases);
    // Observers the caller switched off are not built at all: each would
    // only return early from every callback.
    let mut latency = telemetry.is_enabled().then(|| {
        SweepLatencyMonitor::new(&program, exp.topology.label(), telemetry.clone())
            .with_causal(recorder.clone())
    });
    let mut causal = recorder.is_enabled().then(|| {
        CausalMonitor::from_protocol(&program, recorder.clone())
            .with_phase(Box::new(|s: &PosState| Some(s.ph)))
    });
    let mut engine = Engine::new(&program, exp.seed);
    let config = EngineConfig {
        max_time: Some(Time::new(
            // Generous horizon: expected phase time times target, times 50
            // headroom for unlucky fault streaks.
            (1.0 + 3.0 * program.dag().height() as f64 * exp.c) * exp.target_phases as f64 * 50.0
                + 100.0,
        )),
        ..Default::default()
    };
    let mut faults = (exp.f > 0.0).then(|| {
        ProcessFaults::new(
            &program,
            exp.f,
            SweepDetectableFault {
                n_phases: exp.n_phases,
            },
        )
    });
    // One concrete observer, so the engine loop dispatches statically: the
    // oracle first, then the optional latency and causal monitors.
    let mut observer = (&mut monitor, (latency.as_mut(), causal.as_mut()));
    let outcome = engine.run(&config, &mut faults, &mut observer);
    assert_ne!(
        outcome.reason,
        StopReason::Fixpoint,
        "barrier program must never deadlock"
    );
    let oracle = &monitor.oracle;
    if telemetry.is_enabled() {
        let topo = exp.topology.label();
        for pair in oracle.completion_times().windows(2) {
            telemetry.observe(
                "phase_time",
                &[("topo", topo)],
                (pair[1] - pair[0]).as_f64(),
            );
        }
        telemetry.merge_metrics(&outcome.stats.to_metrics());
    }
    let times = oracle.completion_times();
    let mean_phase_time = if times.len() >= 2 {
        (*times.last().unwrap() - times[0]).as_f64() / (times.len() - 1) as f64
    } else {
        f64::NAN
    };
    // Total instances per successful phase — §6.1's definition. (This also
    // attributes "benign" re-executions — a fault landing between an
    // instance's completion and the root's verdict — to the fault bill,
    // exactly as the analytic model's exposure window does.)
    let mean_instances = if oracle.phases_completed() > 0 {
        (oracle.successful_instances() + oracle.aborted_instances()) as f64
            / oracle.phases_completed() as f64
    } else {
        f64::NAN
    };
    let attribution = latency.map_or_else(Vec::new, |l| l.attribution_report());
    (
        PhaseMeasurement {
            phases: oracle.phases_completed(),
            mean_instances,
            mean_phase_time,
            violations: oracle.violations().len(),
            aborted_instances: oracle.aborted_instances(),
            faults: outcome.stats.faults,
            elapsed: outcome.stats.elapsed,
        },
        attribution,
    )
}

/// Measure the fault-intolerant baseline's steady-state time per phase
/// (Fig 6's denominator), by simulation.
pub fn measure_intolerant_phase_time(
    topology: TopologySpec,
    n_phases: u32,
    c: f64,
    seed: u64,
    target_phases: u64,
) -> f64 {
    let dag = topology.build().expect("valid topology");
    let program = IntolerantBarrier::new(dag, n_phases).with_costs(Time::new(c), Time::new(1.0));

    /// Record the time of each phase increment at the root.
    struct RootPhaseTimes {
        times: Vec<Time>,
        target: usize,
    }
    impl Monitor<IntolerantState> for RootPhaseTimes {
        fn on_transition(
            &mut self,
            now: Time,
            pos: Pid,
            _action: ActionId,
            _name: &str,
            old: &IntolerantState,
            new: &IntolerantState,
            _global: &[IntolerantState],
        ) {
            if pos == 0 && new.cp == Phase2Cp::Working && old.cp == Phase2Cp::Arrived {
                self.times.push(now);
            }
        }
        fn should_stop(&mut self) -> bool {
            self.times.len() >= self.target
        }
    }

    let mut monitor = RootPhaseTimes {
        times: Vec::new(),
        target: target_phases as usize,
    };
    let mut engine = Engine::new(&program, seed);
    let out = engine.run(&EngineConfig::default(), &mut NoFaults, &mut monitor);
    assert_ne!(out.reason, StopReason::Fixpoint);
    let times = &monitor.times;
    assert!(times.len() >= 2, "need at least two phase completions");
    (*times.last().unwrap() - times[0]).as_f64() / (times.len() - 1) as f64
}

/// One recovery experiment (Fig 7).
#[derive(Debug, Clone, Copy)]
pub struct RecoveryExperiment {
    pub topology: TopologySpec,
    pub n_phases: u32,
    pub c: f64,
    pub seed: u64,
    /// Observation horizon after the perturbation.
    pub horizon: f64,
    /// Successful phases that must complete violation-free at the end of
    /// the horizon for the run to count as recovered.
    pub confirm_phases: u64,
}

impl Default for RecoveryExperiment {
    fn default() -> Self {
        RecoveryExperiment {
            topology: TopologySpec::Tree { n: 32, arity: 2 },
            n_phases: 8,
            c: 0.01,
            seed: 0xFACE,
            horizon: 60.0,
            confirm_phases: 3,
        }
    }
}

#[derive(Debug, Clone)]
pub struct RecoveryMeasurement {
    /// Time of the last specification violation after the perturbation
    /// (zero when the arbitrary state happened to be legal).
    pub recovery_time: f64,
    pub violations: Vec<Violation>,
    /// Distinct phases the faults scattered the worker positions into
    /// (Lemma 3.4's `m`).
    pub m_distinct_phases: usize,
    pub phases_completed_after_recovery: u64,
    pub recovered: bool,
}

/// Perturb every position to an arbitrary state and measure how long until
/// the computation satisfies the barrier specification again.
pub fn measure_recovery(exp: &RecoveryExperiment) -> RecoveryMeasurement {
    let dag = exp.topology.build().expect("valid topology");
    let program = SweepBarrier::new(dag, exp.n_phases).with_costs(Time::new(exp.c), Time::new(1.0));
    let mut engine = Engine::new(&program, exp.seed);
    engine.perturb_all();

    let m_distinct_phases = {
        let mut phases: Vec<u32> = (0..program.dag().num_positions())
            .filter(|&p| program.is_worker(p))
            .map(|p| engine.global()[p].ph)
            .collect();
        phases.sort_unstable();
        phases.dedup();
        phases.len()
    };

    // Processes perturbed into `execute` have already "started" as far as
    // the oracle is concerned; prime it so their completions are tracked.
    let mut monitor = SweepOracleMonitor::new(&program, Anchor::Free);
    for pos in 0..program.dag().num_positions() {
        let s = engine.global()[pos];
        if program.is_worker(pos) && s.cp == Cp::Execute {
            monitor.oracle.observe_cp(
                Time::ZERO,
                program.dag().owner(pos),
                s.ph,
                Cp::Ready,
                Cp::Execute,
            );
        }
    }
    // Priming itself may record violations (e.g. two positions forged into
    // different phases); those stem from the perturbation, which is correct.

    let config = EngineConfig {
        max_time: Some(Time::new(exp.horizon)),
        ..Default::default()
    };
    let outcome = engine.run(&config, &mut NoFaults, &mut monitor);
    assert_ne!(
        outcome.reason,
        StopReason::Fixpoint,
        "sweep barrier must recover, not deadlock, from arbitrary states"
    );

    let oracle = &monitor.oracle;
    let recovery_time = oracle.last_violation().map_or(0.0, |t| t.as_f64());
    let completed_after = oracle
        .completion_times()
        .iter()
        .filter(|&&t| t.as_f64() >= recovery_time)
        .count() as u64;
    RecoveryMeasurement {
        recovery_time,
        violations: oracle.violations().to_vec(),
        m_distinct_phases,
        phases_completed_after_recovery: completed_after,
        recovered: completed_after >= exp.confirm_phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_is_clean_and_single_instance() {
        let m = measure_phases(&PhaseExperiment {
            topology: TopologySpec::Tree { n: 8, arity: 2 },
            target_phases: 20,
            c: 0.01,
            f: 0.0,
            ..Default::default()
        });
        assert_eq!(m.phases, 20);
        assert_eq!(m.violations, 0);
        assert_eq!(m.mean_instances, 1.0);
        assert_eq!(m.aborted_instances, 0);
        assert_eq!(m.faults, 0);
        // 1 + 3hc with h=3, c=0.01 → ≈ 1.09; allow pipeline slack.
        assert!(
            (m.mean_phase_time - 1.09).abs() < 0.1,
            "{}",
            m.mean_phase_time
        );
    }

    #[test]
    fn detectable_faults_are_masked_and_cost_reexecutions() {
        let m = measure_phases(&PhaseExperiment {
            topology: TopologySpec::Tree { n: 8, arity: 2 },
            target_phases: 60,
            c: 0.01,
            f: 0.05,
            seed: 42,
            ..Default::default()
        });
        assert_eq!(m.phases, 60);
        assert_eq!(m.violations, 0, "detectable faults must be masked");
        assert!(m.faults > 0, "faults should actually have fired");
        assert!(m.mean_instances >= 1.0);
        assert!(m.mean_phase_time > 1.0);
    }

    #[test]
    fn ring_and_mb_also_mask_detectable_faults() {
        for topology in [
            TopologySpec::Ring { n: 6 },
            TopologySpec::MbRing { n: 6 },
            TopologySpec::TwoRing { a: 3, b: 2 },
            TopologySpec::DoubleTree { n: 7, arity: 2 },
            TopologySpec::Dissemination { n: 6, radix: 2 },
            TopologySpec::Hypercube { n: 8 },
            TopologySpec::Butterfly { n: 4 },
        ] {
            let m = measure_phases(&PhaseExperiment {
                topology,
                target_phases: 25,
                c: 0.005,
                f: 0.03,
                seed: 7,
                ..Default::default()
            });
            assert_eq!(m.phases, 25, "{topology:?}");
            assert_eq!(m.violations, 0, "{topology:?} must mask detectable faults");
        }
    }

    #[test]
    fn intolerant_baseline_time_is_lower() {
        let topology = TopologySpec::Tree { n: 16, arity: 2 };
        let base = measure_intolerant_phase_time(topology, 8, 0.02, 3, 20);
        let tolerant = measure_phases(&PhaseExperiment {
            topology,
            target_phases: 20,
            c: 0.02,
            f: 0.0,
            ..Default::default()
        });
        assert!(
            base < tolerant.mean_phase_time,
            "baseline {base} must beat tolerant {}",
            tolerant.mean_phase_time
        );
    }

    #[test]
    fn recovery_from_arbitrary_states() {
        for seed in 0..8 {
            let m = measure_recovery(&RecoveryExperiment {
                topology: TopologySpec::Tree { n: 16, arity: 2 },
                c: 0.01,
                seed,
                ..Default::default()
            });
            assert!(m.recovered, "seed {seed}: not recovered ({m:?})");
            assert!(
                m.recovery_time < 10.0,
                "seed {seed}: recovery took {}",
                m.recovery_time
            );
        }
    }

    #[test]
    fn recovery_violations_bounded_by_m() {
        // Lemma 4.1.4: at most m phases execute incorrectly.
        for seed in 20..30 {
            let m = measure_recovery(&RecoveryExperiment {
                topology: TopologySpec::Ring { n: 6 },
                n_phases: 16,
                c: 0.01,
                seed,
                ..Default::default()
            });
            let distinct: usize = {
                let mut v: Vec<u32> = m.violations.iter().map(|x| x.phase()).collect();
                v.sort_unstable();
                v.dedup();
                v.len()
            };
            assert!(
                distinct <= m.m_distinct_phases,
                "seed {seed}: {distinct} incorrect phases from m={} perturbation",
                m.m_distinct_phases
            );
        }
    }

    #[test]
    fn topology_spec_process_counts() {
        assert_eq!(TopologySpec::Ring { n: 5 }.num_processes(), 5);
        assert_eq!(TopologySpec::TwoRing { a: 3, b: 2 }.num_processes(), 6);
        assert_eq!(TopologySpec::Tree { n: 32, arity: 2 }.num_processes(), 32);
        assert_eq!(TopologySpec::MbRing { n: 4 }.num_processes(), 4);
        assert_eq!(
            TopologySpec::Dissemination { n: 16, radix: 4 }.num_processes(),
            16
        );
        assert_eq!(TopologySpec::Hypercube { n: 8 }.num_processes(), 8);
        assert_eq!(TopologySpec::Butterfly { n: 16 }.num_processes(), 16);
    }
}
