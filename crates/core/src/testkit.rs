//! Topology-generic conformance harness for sweep topologies.
//!
//! Every topology that produces a valid [`ftbarrier_topology::SweepDag`]
//! must satisfy the same battery, regardless of its shape:
//!
//! 1. **Sweep completeness** — structurally, every position is reachable
//!    from the root and reaches a sink; dynamically, every token sweep
//!    visits every position (each position executes `RECV` at least once
//!    per completed phase) and the barrier specification holds.
//! 2. **Legal-set / coset structure** — the fault-free run advances the
//!    quiescent `(sn, ph)` pair by exactly `(3, 1)` per phase (three token
//!    waves per phase), i.e. the reachable quiescent states form the coset
//!    `⟨(3, 1)⟩` of `Z_L × Z_phases` — and this holds for *adversarial*
//!    sequence-number domains with `gcd(3, L) ≠ 1` or `L` even, the PR-5
//!    audit pitfall: the protocol itself never livelocks on such domains,
//!    only a reachable-set-based audit goal does.
//! 3. **Classic ≡ dense differential** — the incremental scheduler, the
//!    full-rescan reference, and the sharded struct-of-arrays engine at
//!    every worker count produce byte-identical traces, final states, and
//!    stats, with and without fault plans, with telemetry on and off.
//! 4. **Fault recovery** — detectable faults are masked (zero violations),
//!    the latency monitor accounts for every observed fault wave, and the
//!    program stabilizes from arbitrary states.
//! 5. **Churn splice/graft** — membership contraction of the topology stays
//!    valid, a graft restores the exact base edge set, and a scripted
//!    crash → detect → splice → reboot → graft round-trip completes phases
//!    with the rejoined process participating.
//! 6. **Causal determinism** — with the happens-before recorder (the
//!    flight-recorder configuration) armed, classic and dense engines at
//!    every worker count dump byte-identical causal graphs, and arming the
//!    recorder never perturbs the run itself.
//!
//! The differential runners ([`run_classic`], [`run_dense`],
//! [`assert_identical`]) are shared with `crates/core/tests/differential.rs`
//! so the conformance suite and the differential suite cannot drift apart.
//! New topologies get the whole battery by calling
//! [`check_conformance`] on their [`TopologySpec`].

use crate::churn::{run_churn, ChurnEvent, ChurnExperiment};
use crate::cp::Cp;
use crate::sim::{
    measure_phases_with_telemetry, measure_recovery, PhaseExperiment, RecoveryExperiment,
    SweepOracleMonitor, TopologySpec,
};
use crate::spec::Anchor;
use crate::sweep::{PosState, ProcessFaults, SweepBarrier, SweepDetectableFault, RECV};
use crate::telemetry::SweepLatencyMonitor;
use ftbarrier_gcs::fault::NoFaults;
use ftbarrier_gcs::trace::{Trace, TraceEvent};
use ftbarrier_gcs::{
    ActionId, CausalMonitor, DenseEngine, DenseEngineConfig, Engine, EngineConfig, Monitor,
    MonitorSet, Pid, TelemetryMonitor, Time,
};
use ftbarrier_telemetry::{CausalRecorder, Telemetry, TimeDomain};
use ftbarrier_topology::membership::Membership;

/// What one differential run records: the committed event trace, the final
/// global state, and `[actions_executed, commits_dropped, faults]`.
pub type RunRecord<S> = (Vec<TraceEvent<S>>, Vec<S>, [u64; 3]);

/// The engine configuration every differential run uses (the `max_commits`
/// ceiling is a safety net against zero-cost livelock, far above any
/// legitimate run here).
pub fn differential_config(seed: u64, horizon: f64, full_rescan: bool) -> EngineConfig {
    EngineConfig {
        seed: seed ^ 0xD1FF,
        max_time: Some(Time::new(horizon)),
        max_commits: Some(2_000_000),
        full_rescan,
    }
}

/// Run the sweep program over `spec` from a perturbed state on the classic
/// engine and record the run.
pub fn run_classic(
    spec: TopologySpec,
    seed: u64,
    fault_rate: f64,
    full_rescan: bool,
) -> RunRecord<PosState> {
    run_classic_telemetry(spec, seed, fault_rate, full_rescan, &Telemetry::off())
}

/// Like [`run_classic`], but with the telemetry monitors attached alongside
/// the trace — exactly the set `measure_phases_with_telemetry` uses. With a
/// recording handle the returned record must still be byte-identical.
pub fn run_classic_telemetry(
    spec: TopologySpec,
    seed: u64,
    fault_rate: f64,
    full_rescan: bool,
    telemetry: &Telemetry,
) -> RunRecord<PosState> {
    let program =
        SweepBarrier::new(spec.build().unwrap(), 8).with_costs(Time::new(0.02), Time::new(1.0));
    let mut engine = Engine::new(&program, seed);
    engine.perturb_all();
    let mut trace = Trace::unbounded();
    let mut tmon =
        TelemetryMonitor::<PosState>::new(telemetry.clone(), program.dag().num_positions());
    let mut lmon = SweepLatencyMonitor::new(&program, spec.label(), telemetry.clone());
    let cfg = differential_config(seed, 30.0, full_rescan);
    let out = {
        let mut set = MonitorSet::new()
            .with(&mut trace)
            .with(&mut tmon)
            .with(&mut lmon);
        if fault_rate > 0.0 {
            let mut faults =
                ProcessFaults::new(&program, fault_rate, SweepDetectableFault { n_phases: 8 });
            engine.run(&cfg, &mut faults, &mut set)
        } else {
            engine.run(&cfg, &mut NoFaults, &mut set)
        }
    };
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

/// Capacity of the causal recorders in the determinism check — large enough
/// that no conformance run evicts (eviction is deterministic too, but a
/// non-evicting dump is the stronger pin).
const CAUSAL_CAPACITY: usize = 1 << 20;

/// Like [`run_classic`], but with a causal recorder (the flight-recorder
/// configuration) armed alongside the usual monitors. Returns the run record
/// plus the causal graph dumped as flight-recorder JSON.
pub fn run_classic_causal(
    spec: TopologySpec,
    seed: u64,
    fault_rate: f64,
    full_rescan: bool,
) -> (RunRecord<PosState>, String) {
    let program =
        SweepBarrier::new(spec.build().unwrap(), 8).with_costs(Time::new(0.02), Time::new(1.0));
    let recorder = CausalRecorder::bounded(program.dag().num_positions(), CAUSAL_CAPACITY);
    let mut cmon = CausalMonitor::from_protocol(&program, recorder.clone())
        .with_phase(Box::new(|s: &PosState| Some(s.ph)));
    let mut engine = Engine::new(&program, seed);
    engine.perturb_all();
    let mut trace = Trace::unbounded();
    let cfg = differential_config(seed, 30.0, full_rescan);
    let out = {
        let mut set = MonitorSet::new().with(&mut trace).with(&mut cmon);
        if fault_rate > 0.0 {
            let mut faults =
                ProcessFaults::new(&program, fault_rate, SweepDetectableFault { n_phases: 8 });
            engine.run(&cfg, &mut faults, &mut set)
        } else {
            engine.run(&cfg, &mut NoFaults, &mut set)
        }
    };
    let dump = recorder.snapshot().to_flight_json(
        "sweep",
        program.dag().num_positions(),
        "conformance",
        "end-of-run",
    );
    (
        (
            trace.events().cloned().collect(),
            engine.global().to_vec(),
            [
                out.stats.actions_executed,
                out.stats.commits_dropped,
                out.stats.faults,
            ],
        ),
        dump,
    )
}

/// The causal-armed run of [`run_dense`]: same engine configuration with a
/// [`CausalMonitor`] attached, returning final states, stats, and the
/// flight-recorder dump (the dense engine takes a single monitor, so the
/// trace half of the differential stays with [`run_dense`]).
pub fn run_dense_causal(
    spec: TopologySpec,
    seed: u64,
    fault_rate: f64,
    workers: usize,
) -> (Vec<PosState>, [u64; 3], String) {
    let program =
        SweepBarrier::new(spec.build().unwrap(), 8).with_costs(Time::new(0.02), Time::new(1.0));
    let recorder = CausalRecorder::bounded(program.dag().num_positions(), CAUSAL_CAPACITY);
    let mut cmon = CausalMonitor::from_protocol(&program, recorder.clone())
        .with_phase(Box::new(|s: &PosState| Some(s.ph)));
    let mut engine = DenseEngine::new(&program, seed).with_shards(4);
    engine.perturb_all();
    let cfg = DenseEngineConfig {
        max_time: Some(Time::new(30.0)),
        max_commits: Some(2_000_000),
        workers: Some(workers),
        parallel_threshold: 1,
        ..Default::default()
    };
    let out = if fault_rate > 0.0 {
        let mut faults =
            ProcessFaults::new(&program, fault_rate, SweepDetectableFault { n_phases: 8 });
        engine.run(&cfg, &mut faults, &mut cmon)
    } else {
        engine.run(&cfg, &mut NoFaults, &mut cmon)
    };
    let dump = recorder.snapshot().to_flight_json(
        "sweep",
        program.dag().num_positions(),
        "conformance",
        "end-of-run",
    );
    (
        engine.global_states(),
        [
            out.stats.actions_executed,
            out.stats.commits_dropped,
            out.stats.faults,
        ],
        dump,
    )
}

/// The same run as [`run_classic`], executed on the sharded struct-of-arrays
/// engine with the given worker count. Shard count is fixed (not derived
/// from the worker count) so every worker configuration schedules the same
/// shard boundaries — the trace must be identical for any worker count.
pub fn run_dense(
    spec: TopologySpec,
    seed: u64,
    fault_rate: f64,
    workers: usize,
) -> RunRecord<PosState> {
    let program =
        SweepBarrier::new(spec.build().unwrap(), 8).with_costs(Time::new(0.02), Time::new(1.0));
    let mut engine = DenseEngine::new(&program, seed).with_shards(4);
    engine.perturb_all();
    let mut trace = Trace::unbounded();
    let cfg = DenseEngineConfig {
        max_time: Some(Time::new(30.0)),
        max_commits: Some(2_000_000),
        workers: Some(workers),
        parallel_threshold: 1,
        ..Default::default()
    };
    let out = if fault_rate > 0.0 {
        let mut faults =
            ProcessFaults::new(&program, fault_rate, SweepDetectableFault { n_phases: 8 });
        engine.run(&cfg, &mut faults, &mut trace)
    } else {
        engine.run(&cfg, &mut NoFaults, &mut trace)
    };
    (
        trace.events().cloned().collect(),
        engine.global_states(),
        [
            out.stats.actions_executed,
            out.stats.commits_dropped,
            out.stats.faults,
        ],
    )
}

/// Protocol-generic engine differential: the classic engine and the sharded
/// dense engine at workers {1, 2, 4} must produce byte-identical traces,
/// final states, and stats from the same perturbed start — for **any**
/// [`DenseProtocol`](ftbarrier_gcs::DenseProtocol), not just the sweep. Sibling protocols
/// (`ftbarrier-protocols`) get the classic ≡ dense half of the conformance
/// battery by calling this.
pub fn check_protocol_classic_dense_differential<P>(
    label: &str,
    protocol: &P,
    seed: u64,
    horizon: f64,
) where
    P: ftbarrier_gcs::DenseProtocol,
{
    let cfg = differential_config(seed, horizon, false);
    let mut classic = Engine::new(protocol, seed);
    classic.perturb_all();
    let mut trace = Trace::unbounded();
    let out = classic.run(&cfg, &mut NoFaults, &mut trace);
    let reference: RunRecord<P::State> = (
        trace.events().cloned().collect(),
        classic.global().to_vec(),
        [
            out.stats.actions_executed,
            out.stats.commits_dropped,
            out.stats.faults,
        ],
    );
    for workers in [1usize, 2, 4] {
        let mut dense = DenseEngine::new(protocol, seed).with_shards(4);
        dense.perturb_all();
        let mut dtrace = Trace::unbounded();
        let dcfg = DenseEngineConfig {
            max_time: Some(Time::new(horizon)),
            max_commits: Some(2_000_000),
            workers: Some(workers),
            parallel_threshold: 1,
            ..Default::default()
        };
        let dout = dense.run(&dcfg, &mut NoFaults, &mut dtrace);
        assert_identical(
            &format!("{label} dense w={workers}"),
            (
                dtrace.events().cloned().collect(),
                dense.global_states(),
                [
                    dout.stats.actions_executed,
                    dout.stats.commits_dropped,
                    dout.stats.faults,
                ],
            ),
            reference.clone(),
        );
    }
}

/// Two run records must agree byte for byte (and actually have run).
pub fn assert_identical<S: PartialEq + std::fmt::Debug>(
    label: &str,
    incremental: RunRecord<S>,
    reference: RunRecord<S>,
) {
    assert_eq!(incremental.0, reference.0, "{label}: traces diverge");
    assert_eq!(incremental.1, reference.1, "{label}: final states diverge");
    assert_eq!(incremental.2, reference.2, "{label}: stats diverge");
    assert!(!incremental.0.is_empty(), "{label}: run did nothing");
}

/// Per-position RECV counter (the token's visit log).
struct SweepCoverage {
    recvs: Vec<u64>,
}

impl Monitor<PosState> for SweepCoverage {
    fn on_transition(
        &mut self,
        _now: Time,
        pos: Pid,
        action: ActionId,
        _name: &str,
        _old: &PosState,
        _new: &PosState,
        _global: &[PosState],
    ) {
        if action == RECV {
            self.recvs[pos] += 1;
        }
    }
}

/// Conformance check 1: every token sweep covers the whole topology.
///
/// Structurally: every position is reachable from the root and reaches a
/// sink, and every process owns at least one position. Dynamically: a
/// fault-free run completes its phases with zero violations, exactly one
/// instance per phase, and every position (worker or relay) executes `RECV`
/// at least once per completed phase — the token visited everyone.
pub fn check_sweep_completeness(spec: TopologySpec) {
    let label = spec.label();
    let dag = spec.build().unwrap_or_else(|e| panic!("{label}: {e}"));

    // Structural sweep-coverage, re-derived independently of the builder's
    // own validation: forward reachability from the root…
    let p = dag.num_positions();
    let mut seen = vec![false; p];
    seen[0] = true;
    let mut stack = vec![0usize];
    while let Some(u) = stack.pop() {
        for &v in dag.succs(u) {
            if v != 0 && !seen[v] {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
    assert!(
        seen.iter().all(|&s| s),
        "{label}: positions unreachable from the root"
    );
    // …and backward reachability from the sinks.
    let mut reaches = vec![false; p];
    let mut stack: Vec<usize> = dag.sinks().to_vec();
    for &s in dag.sinks() {
        reaches[s] = true;
    }
    while let Some(u) = stack.pop() {
        for &q in dag.preds(u) {
            if !reaches[q] {
                reaches[q] = true;
                stack.push(q);
            }
        }
    }
    reaches[0] = true;
    assert!(
        reaches.iter().all(|&r| r),
        "{label}: positions that never reach a sink"
    );
    for pid in 0..dag.num_processes() {
        assert!(
            !dag.positions_of(pid).is_empty(),
            "{label}: process {pid} owns no position"
        );
    }

    // Dynamic coverage over a fault-free run.
    let target = 5u64;
    let program = SweepBarrier::new(dag, 8).with_costs(Time::new(0.01), Time::new(1.0));
    let mut oracle = SweepOracleMonitor::new(&program, Anchor::StrictFromZero).stop_after(target);
    let mut coverage = SweepCoverage { recvs: vec![0; p] };
    let mut engine = Engine::new(&program, 0x5EED);
    let cfg = EngineConfig {
        seed: 0x5EED ^ 0xC0F,
        max_time: Some(Time::new(200.0)),
        ..Default::default()
    };
    {
        let mut set = MonitorSet::new().with(&mut oracle).with(&mut coverage);
        engine.run(&cfg, &mut NoFaults, &mut set);
    }
    assert_eq!(
        oracle.oracle.phases_completed(),
        target,
        "{label}: fault-free run did not complete its phases"
    );
    assert_eq!(oracle.oracle.violations().len(), 0, "{label}");
    assert_eq!(
        oracle.oracle.aborted_instances(),
        0,
        "{label}: fault-free run aborted instances"
    );
    for (pos, &count) in coverage.recvs.iter().enumerate() {
        assert!(
            count >= target,
            "{label}: position {pos} saw only {count} RECVs over {target} phases — \
             the sweep does not cover it"
        );
    }
}

/// Quiescent-state recorder: each time the global state is quiescent (every
/// position `ready` with one shared ordinary `sn` and one shared `ph` — the
/// audit's recurring goal) with a pair not yet recorded, log it.
struct QuiescenceLog {
    records: Vec<(u32, u32)>,
    want: usize,
}

impl QuiescenceLog {
    fn scan(&mut self, global: &[PosState]) {
        let first = global[0];
        let Some(sn) = first.sn.value() else { return };
        if !global
            .iter()
            .all(|s| s.cp == Cp::Ready && s.ph == first.ph && s.sn == first.sn)
        {
            return;
        }
        if self.records.last() != Some(&(sn, first.ph)) {
            self.records.push((sn, first.ph));
        }
    }
}

impl Monitor<PosState> for QuiescenceLog {
    fn on_transition(
        &mut self,
        _now: Time,
        _pos: Pid,
        _action: ActionId,
        _name: &str,
        _old: &PosState,
        _new: &PosState,
        global: &[PosState],
    ) {
        self.scan(global);
    }

    fn should_stop(&mut self) -> bool {
        self.records.len() >= self.want
    }
}

/// Conformance check 2: the legal-set / coset structure.
///
/// The sweep advances `sn` by exactly 3 per phase (one wave to start work,
/// one to collect completion, one to reset), so the fault-free quiescent
/// states form the coset `⟨(3, 1)⟩ ≤ Z_L × Z_phases` through `(0, 0)` — a
/// *proper* subset of the legal states whenever `gcd(3, L) ≠ 1` or `L` is
/// even. That was the PR-5 audit pitfall: an audit goal built from the
/// reachable set falsely reports livelock on such domains. Here we pin the
/// other half of the argument: the protocol itself runs cleanly on
/// adversarial domains (`L` even, `L ≡ 0 mod 3`), advancing the quiescent
/// pair by `(3, 1)` each phase, so only the audit goal — never the program —
/// must be topology- and domain-aware.
pub fn check_legal_set_structure(spec: TopologySpec) {
    let label = spec.label();
    let dag = spec.build().unwrap_or_else(|e| panic!("{label}: {e}"));
    let positions = dag.num_positions() as u32;
    let default_l = 2 * positions + 3;
    let even_l = 2 * positions + 4;
    let mut mult3_l = 2 * positions + 3;
    while !mult3_l.is_multiple_of(3) {
        mult3_l += 1;
    }
    let n_phases = 8u32;
    for l in [default_l, even_l, mult3_l] {
        let program = SweepBarrier::new(dag.clone(), n_phases)
            .try_with_sn_domain(l)
            .unwrap_or_else(|e| panic!("{label}: sn domain {l}: {e}"))
            .with_costs(Time::new(0.01), Time::new(1.0));
        let mut log = QuiescenceLog {
            records: Vec::new(),
            want: 6,
        };
        let mut engine = Engine::new(&program, 0x1E6A);
        let cfg = EngineConfig {
            seed: 0x1E6A ^ u64::from(l),
            max_time: Some(Time::new(200.0)),
            ..Default::default()
        };
        engine.run(&cfg, &mut NoFaults, &mut log);
        assert!(
            log.records.len() >= 6,
            "{label} L={l}: only {} quiescent states reached — livelock on \
             an adversarial domain?",
            log.records.len()
        );
        // The run starts from the quiescent (0, 0), so the first *observed*
        // quiescent state is the end of phase 1: (3 mod L, 1).
        assert_eq!(
            log.records[0],
            (3 % l, 1),
            "{label} L={l}: coset offset from the start state"
        );
        for pair in log.records.windows(2) {
            let ((sn_a, ph_a), (sn_b, ph_b)) = (pair[0], pair[1]);
            assert_eq!(
                (sn_b + l - sn_a) % l,
                3 % l,
                "{label} L={l}: sn must advance by exactly 3 per phase"
            );
            assert_eq!(
                ph_b,
                (ph_a + 1) % n_phases,
                "{label} L={l}: ph must advance by exactly 1 per phase"
            );
        }
    }
}

/// Conformance check 3: classic incremental ≡ classic full-rescan ≡ dense
/// engine at workers {1, 2, 4}, with and without a fault plan, telemetry on
/// and off — all byte-identical.
pub fn check_classic_dense_differential(spec: TopologySpec) {
    let label = spec.label();
    let seed = 0xC0DE;
    for fault_rate in [0.0, 0.3] {
        let reference = run_classic(spec, seed, fault_rate, true);
        assert_identical(
            &format!("{label} f={fault_rate} incremental"),
            run_classic(spec, seed, fault_rate, false),
            reference.clone(),
        );
        for workers in [1usize, 2, 4] {
            assert_identical(
                &format!("{label} f={fault_rate} dense w={workers}"),
                run_dense(spec, seed, fault_rate, workers),
                reference.clone(),
            );
        }
        let tele = Telemetry::recording(TimeDomain::Virtual);
        assert_identical(
            &format!("{label} f={fault_rate} telemetry"),
            run_classic_telemetry(spec, seed, fault_rate, false, &tele),
            reference,
        );
        assert!(
            !tele.snapshot().metrics.is_empty(),
            "{label}: telemetry recorded nothing"
        );
    }
}

/// Conformance check 4: fault masking, latency accounting, stabilization.
///
/// A run under detectable faults completes every phase with zero violations
/// (masking); the latency monitor accounts each observed fault wave as
/// masked or detected, and every detection closes a recovery window; and
/// the program recovers from arbitrary states (stabilization) across seeds.
pub fn check_fault_recovery(spec: TopologySpec) {
    let label = spec.label();
    let tele = Telemetry::recording(TimeDomain::Virtual);
    let m = measure_phases_with_telemetry(
        &PhaseExperiment {
            topology: spec,
            target_phases: 40,
            c: 0.02,
            f: 0.05,
            seed: 0xFA17,
            ..Default::default()
        },
        &tele,
    );
    assert_eq!(m.phases, 40, "{label}: run under faults did not complete");
    assert_eq!(m.violations, 0, "{label}: detectable faults must be masked");
    assert!(m.faults > 0, "{label}: no faults fired at f=0.05");
    let snap = tele.snapshot();
    let labels = [("topo", label)];
    let masked = snap.metrics.counter("sweep_masked_faults_total", &labels);
    let detections = snap
        .metrics
        .histogram("detection_latency", &labels)
        .map_or(0, |h| h.count());
    let recoveries = snap
        .metrics
        .histogram("recovery_latency", &labels)
        .map_or(0, |h| h.count());
    assert!(
        masked + detections > 0,
        "{label}: {} faults fired but none were accounted as masked or detected",
        m.faults
    );
    assert!(
        recoveries <= detections,
        "{label}: more recoveries ({recoveries}) than detections ({detections})"
    );
    if detections > 0 {
        assert!(
            recoveries > 0,
            "{label}: {detections} detections but no recovery window ever closed"
        );
    }

    // Stabilization from arbitrary states.
    for seed in 0..4u64 {
        let r = measure_recovery(&RecoveryExperiment {
            topology: spec,
            c: 0.01,
            seed,
            ..Default::default()
        });
        assert!(
            r.recovered,
            "{label} seed {seed}: not recovered from an arbitrary state ({r:?})"
        );
    }
}

/// The default process the churn check crashes: mid-range, never the root.
fn churn_victim(spec: TopologySpec) -> usize {
    (spec.num_processes() / 2).max(1)
}

/// Conformance check 5: membership splice/graft over the topology.
///
/// Structurally, splicing any non-root process yields a valid contracted
/// view without it, and grafting it back restores the exact base edge set.
/// Dynamically, a scripted crash → token-timeout detection → splice →
/// reboot → graft round-trip keeps completing phases, and the rejoined
/// process participates in the final view's sweeps.
pub fn check_churn_splice_graft(spec: TopologySpec) {
    let label = spec.label();
    let base = spec.build().unwrap_or_else(|e| panic!("{label}: {e}"));
    let pid = churn_victim(spec);

    // Structural splice/graft round-trip.
    let mut membership = Membership::new(base.clone());
    let v = membership
        .splice(pid)
        .unwrap_or_else(|e| panic!("{label}: splice({pid}): {e}"));
    assert!(!v.contains(pid), "{label}");
    assert_eq!(
        v.dag.num_positions(),
        base.num_positions() - base.positions_of(pid).len(),
        "{label}: splice must remove exactly the victim's positions"
    );
    let v = membership
        .graft(pid)
        .unwrap_or_else(|e| panic!("{label}: graft({pid}): {e}"));
    assert_eq!(v.dag.num_positions(), base.num_positions(), "{label}");
    for pos in 0..base.num_positions() {
        assert_eq!(v.positions[pos], pos, "{label}: graft must restore ids");
        let preds: Vec<usize> = v.dag.preds(pos).iter().map(|&q| v.positions[q]).collect();
        assert_eq!(
            preds,
            base.preds(pos),
            "{label}: graft must restore the base edge set at position {pos}"
        );
    }

    // Dynamic crash/reboot round-trip through the churn driver.
    let m = run_churn(&ChurnExperiment {
        topology: spec,
        target_phases: u64::MAX,
        horizon: 120.0,
        token_timeout: 2.0,
        events: vec![
            ChurnEvent::Crash { at: 10.0, pid },
            ChurnEvent::Reboot { at: 40.0, pid },
        ],
        ..Default::default()
    });
    assert_eq!(m.suspicions, 1, "{label}: crash must be detected");
    assert_eq!(m.rejoins, 1, "{label}: reboot must rejoin");
    assert_eq!(m.epoch, 2, "{label}: splice + graft");
    assert_eq!(
        m.final_live.len(),
        spec.num_processes(),
        "{label}: everyone alive at the end"
    );
    assert!(
        m.recv_after_last_change[pid] > 0,
        "{label}: rejoined process {pid} must participate again ({:?})",
        m.recv_after_last_change
    );
    assert!(
        m.phases_after_last_change > 5,
        "{label}: only {} phases after the graft",
        m.phases_after_last_change
    );
}

/// Conformance check 6: causal-graph determinism across engines.
///
/// With a causal recorder (the flight-recorder configuration) armed, the
/// classic engine and the dense engine at every worker count must produce
/// **byte-identical** flight-recorder dumps for the same seed — the causal
/// graph is part of the deterministic output, not a best-effort log. The
/// causal-armed classic run must also stay byte-identical to the plain
/// reference run: recording happens-before edges is a pure observation.
pub fn check_causal_determinism(spec: TopologySpec) {
    let label = spec.label();
    let seed = 0xCA05;
    for fault_rate in [0.0, 0.3] {
        let reference = run_classic(spec, seed, fault_rate, true);
        let (record, classic_dump) = run_classic_causal(spec, seed, fault_rate, false);
        assert_identical(
            &format!("{label} f={fault_rate} causal-armed"),
            record,
            reference.clone(),
        );
        assert!(
            classic_dump.contains("\"schema\": \"flightrec/v1\""),
            "{label}: dump missing schema stamp"
        );
        for workers in [1usize, 2, 4] {
            let (states, stats, dense_dump) = run_dense_causal(spec, seed, fault_rate, workers);
            assert_eq!(
                classic_dump, dense_dump,
                "{label} f={fault_rate} dense w={workers}: causal dumps diverge"
            );
            assert_eq!(
                states, reference.1,
                "{label} f={fault_rate} dense w={workers}: final states diverge"
            );
            assert_eq!(
                stats, reference.2,
                "{label} f={fault_rate} dense w={workers}: stats diverge"
            );
        }
    }
}

/// The full conformance battery for one topology. Every sweep topology —
/// present and future — must pass all six checks.
pub fn check_conformance(spec: TopologySpec) {
    check_sweep_completeness(spec);
    check_legal_set_structure(spec);
    check_classic_dense_differential(spec);
    check_fault_recovery(spec);
    check_churn_splice_graft(spec);
    check_causal_determinism(spec);
}
