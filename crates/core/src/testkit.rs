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
//! 3. **Scheduler differential** — the engine's incremental scheduler and
//!    its full-rescan reference produce byte-identical traces, final
//!    states, and stats, with and without fault plans, with telemetry on
//!    and off.
//! 4. **Fault recovery** — detectable faults are masked (zero violations),
//!    the latency monitor accounts for every observed fault wave, and the
//!    program stabilizes from arbitrary states.
//! 5. **Churn splice/graft** — membership contraction of the topology stays
//!    valid, a graft restores the exact base edge set, and a scripted
//!    crash → detect → splice → reboot → graft round-trip completes phases
//!    with the rejoined process participating.
//! 6. **Causal scheduler differential** — with the happens-before recorder
//!    (the flight-recorder configuration) armed, both schedulers dump
//!    byte-identical causal graphs, and arming the recorder never perturbs
//!    the run itself.
//!
//! The differential runners ([`run_classic`], [`assert_identical`]) are
//! shared with `crates/core/tests/differential.rs` so the conformance suite
//! and the differential suite cannot drift apart. New topologies get the
//! whole battery by calling [`check_conformance`] on their
//! [`TopologySpec`]; any other [`Protocol`] gets checks 3 and 6 from
//! [`check_protocol_scheduler_differential`].

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
    ActionId, CausalMonitor, Engine, EngineConfig, FaultAction, FaultKind, Monitor, Pid,
    PoissonFaults, Protocol, SimRng, TelemetryMonitor, Time, VictimPolicy,
};
use ftbarrier_telemetry::{CausalRecorder, Telemetry, TimeDomain};
use ftbarrier_topology::membership::Membership;

/// What one differential run records: the committed event trace, the final
/// global state, and `[actions_executed, commits_dropped, faults]`.
pub type RunRecord<S> = (Vec<TraceEvent<S>>, Vec<S>, [u64; 3]);

/// The engine configuration every differential run uses (the `max_commits`
/// ceiling is a safety net against zero-cost livelock, far above any
/// legitimate run here).
pub fn differential_config(horizon: f64, full_rescan: bool) -> EngineConfig {
    EngineConfig {
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
    let cfg = differential_config(30.0, full_rescan);
    let out = {
        let mut set = (&mut trace, (&mut tmon, &mut lmon));
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
    let cfg = differential_config(30.0, full_rescan);
    let out = {
        let mut set = (&mut trace, &mut cmon);
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

/// Undetectable fault that overwrites the victim with one of the protocol's
/// own arbitrary states, so the protocol-generic differential can run a
/// fault plan on any [`Protocol`].
struct ArbitraryFault<'p, P>(&'p P);

impl<P: Protocol> FaultAction<P::State> for ArbitraryFault<'_, P> {
    fn kind(&self) -> FaultKind {
        FaultKind::Undetectable
    }

    fn apply(&self, pid: Pid, state: &mut P::State, rng: &mut SimRng) {
        *state = self.0.arbitrary_state(pid, rng);
    }
}

/// One run of any protocol from a perturbed start under Poisson
/// arbitrary-state faults (none at rate 0), with the trace, the engine
/// telemetry monitor and a causal recorder attached. `armed` switches the
/// telemetry and the recorder on; the causal dump is empty when it is off.
fn run_protocol<P: Protocol>(
    protocol: &P,
    seed: u64,
    horizon: f64,
    fault_rate: f64,
    full_rescan: bool,
    armed: bool,
) -> (RunRecord<P::State>, String) {
    let n = protocol.num_processes();
    let (telemetry, recorder) = if armed {
        (
            Telemetry::recording(TimeDomain::Virtual),
            CausalRecorder::bounded(n, CAUSAL_CAPACITY),
        )
    } else {
        (Telemetry::off(), CausalRecorder::off())
    };
    let mut tmon = TelemetryMonitor::<P::State>::new(telemetry, n);
    let mut cmon = CausalMonitor::from_protocol(protocol, recorder.clone());
    let mut engine = Engine::new(protocol, seed);
    engine.perturb_all();
    let mut trace = Trace::unbounded();
    let mut faults =
        PoissonFaults::with_rate(fault_rate, VictimPolicy::Random, ArbitraryFault(protocol));
    let cfg = differential_config(horizon, full_rescan);
    let out = engine.run(&cfg, &mut faults, &mut (&mut trace, (&mut tmon, &mut cmon)));
    let dump = if armed {
        recorder
            .snapshot()
            .to_flight_json("protocol", n, "conformance", "end-of-run")
    } else {
        String::new()
    };
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

/// Protocol-generic scheduler differential (checks 3 and 6 for **any**
/// [`Protocol`], not just the sweep): from the same perturbed start, the
/// incremental scheduler and the full-rescan reference produce
/// byte-identical traces, final states, and stats, with and without an
/// arbitrary-state fault plan, with telemetry and the causal recorder off
/// and armed; the two armed runs dump byte-identical causal graphs. Sibling
/// protocols (`ftbarrier-protocols`) get this half of the conformance
/// battery by calling it.
pub fn check_protocol_scheduler_differential<P: Protocol>(
    label: &str,
    protocol: &P,
    seed: u64,
    horizon: f64,
) {
    for fault_rate in [0.0, 0.3] {
        let (reference, _) = run_protocol(protocol, seed, horizon, fault_rate, true, false);
        let (incremental, _) = run_protocol(protocol, seed, horizon, fault_rate, false, false);
        assert_identical(
            &format!("{label} f={fault_rate} incremental"),
            incremental,
            reference.clone(),
        );
        let (armed_full, full_dump) = run_protocol(protocol, seed, horizon, fault_rate, true, true);
        let (armed_inc, inc_dump) = run_protocol(protocol, seed, horizon, fault_rate, false, true);
        assert_identical(
            &format!("{label} f={fault_rate} armed full rescan"),
            armed_full,
            reference.clone(),
        );
        assert_identical(
            &format!("{label} f={fault_rate} armed incremental"),
            armed_inc,
            reference,
        );
        assert!(
            inc_dump.contains("\"schema\": \"flightrec/v1\""),
            "{label}: dump missing schema stamp"
        );
        assert_eq!(
            inc_dump, full_dump,
            "{label} f={fault_rate}: causal dumps diverge between the schedulers"
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
        max_time: Some(Time::new(200.0)),
        ..Default::default()
    };
    engine.run(&cfg, &mut NoFaults, &mut (&mut oracle, &mut coverage));
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

/// Conformance check 3: the incremental scheduler ≡ the full-rescan
/// reference, with and without a fault plan, telemetry on and off (on
/// both schedulers) — all byte-identical.
pub fn check_scheduler_differential(spec: TopologySpec) {
    let label = spec.label();
    let seed = 0xC0DE;
    for fault_rate in [0.0, 0.3] {
        let reference = run_classic(spec, seed, fault_rate, true);
        assert_identical(
            &format!("{label} f={fault_rate} incremental"),
            run_classic(spec, seed, fault_rate, false),
            reference.clone(),
        );
        for full_rescan in [false, true] {
            let tele = Telemetry::recording(TimeDomain::Virtual);
            assert_identical(
                &format!("{label} f={fault_rate} telemetry full_rescan={full_rescan}"),
                run_classic_telemetry(spec, seed, fault_rate, full_rescan, &tele),
                reference.clone(),
            );
            assert!(
                !tele.snapshot().metrics.is_empty(),
                "{label}: telemetry recorded nothing"
            );
        }
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

/// Conformance check 6: causal-graph determinism across the schedulers.
///
/// With a causal recorder (the flight-recorder configuration) armed, the
/// incremental scheduler and the full-rescan reference must produce
/// **byte-identical** flight-recorder dumps for the same seed — the causal
/// graph is part of the deterministic output, not a best-effort log. Both
/// causal-armed runs must also stay byte-identical to the plain reference
/// run: recording happens-before edges is a pure observation.
pub fn check_causal_scheduler_differential(spec: TopologySpec) {
    let label = spec.label();
    let seed = 0xCA05;
    for fault_rate in [0.0, 0.3] {
        let reference = run_classic(spec, seed, fault_rate, true);
        let (record, incremental_dump) = run_classic_causal(spec, seed, fault_rate, false);
        assert_identical(
            &format!("{label} f={fault_rate} causal-armed incremental"),
            record,
            reference.clone(),
        );
        assert!(
            incremental_dump.contains("\"schema\": \"flightrec/v1\""),
            "{label}: dump missing schema stamp"
        );
        let (record, full_dump) = run_classic_causal(spec, seed, fault_rate, true);
        assert_identical(
            &format!("{label} f={fault_rate} causal-armed full rescan"),
            record,
            reference,
        );
        assert_eq!(
            incremental_dump, full_dump,
            "{label} f={fault_rate}: causal dumps diverge between the schedulers"
        );
    }
}

/// The full conformance battery for one topology. Every sweep topology —
/// present and future — must pass all six checks.
pub fn check_conformance(spec: TopologySpec) {
    check_sweep_completeness(spec);
    check_legal_set_structure(spec);
    check_scheduler_differential(spec);
    check_fault_recovery(spec);
    check_churn_splice_graft(spec);
    check_causal_scheduler_differential(spec);
}
