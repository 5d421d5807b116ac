//! Byzantine containment for the sweep barrier: §7's `up`/`good` auxiliary
//! variables superposed on the engine backend.
//!
//! §7 of the paper sketches tolerance to Byzantine processes with an
//! auxiliary variable `good.j`: a process that is not good may write
//! arbitrary values to its own variables, and the system should degrade
//! gracefully rather than wedge. This module makes the sketch concrete in
//! three pieces:
//!
//! 1. **The environment** is [`ByzantineFaults`]: budgeted attackers striking
//!    at Poisson times with an arsenal of in-domain scrambles
//!    ([`SweepUndetectableFault`] — the §2 fault class the program already
//!    stabilizes from) and out-of-domain forgeries ([`SweepByzantineFault`] —
//!    writes no program action and no §2 fault can produce).
//!
//! 2. **The superposition** is [`GoodGate`]: a wrapper protocol that computes
//!    `good.j` from the state itself — `good.j ≡` every variable of `j` is
//!    inside its domain — and gates every action of `j` on `good.j ∧
//!    (∀ pred q of j : good.q)`. A not-good process is frozen (the §7 reading
//!    of withdrawn `up`: treated as halted), so forged evidence *persists*
//!    instead of being instantly overwritten by the process's own `RECV`;
//!    and no correct process ever copies a forged value through the sweep's
//!    adoption paths, so out-of-domain state is attributable to its writer.
//!
//! 3. **The recovery authority** is the segmented driver [`run_byz`]: a
//!    not-good process eventually stalls the sweep (its successors wait on a
//!    frozen predecessor), the engine reports a fixpoint, the driver charges
//!    a detection latency, convicts exactly the processes holding
//!    out-of-domain state, and **quarantines them by splice** — the same
//!    graceful-degradation path the churn driver uses for crashes. The
//!    authority may quarantine at most `quorum − 1` processes; asked to
//!    exceed that bound it refuses and the run wedges, which is the honest
//!    outcome once a majority could be adversarial.
//!
//! The containment gate this supports (checked by `repro byz` and the audit
//! crate): for `f` Byzantine processes with `f <` [`quorum`], every correct
//! process completes every phase, and no correct process is ever quarantined.

use std::collections::{BTreeMap, BTreeSet};

use crate::cp::Cp;
use crate::sim::{SweepOracleMonitor, TopologySpec};
use crate::sn::Sn;
use crate::spec::Anchor;
use crate::sweep::{
    pos_in_domain, PosState, SweepBarrier, SweepByzantineFault, SweepUndetectableFault,
};
use ftbarrier_gcs::{
    ActionId, ByzantineFaults, ByzantineProcess, Engine, EngineConfig, FaultAction, Pid, Protocol,
    ReaderSet, SimRng, StopReason, Time,
};
use ftbarrier_telemetry::{names, Telemetry};
use ftbarrier_topology::membership::Membership;

/// The smallest majority of `n` processes. The splice authority quarantines
/// at most `quorum(n) - 1` processes over a run's lifetime: tolerating `f`
/// Byzantine processes is only meaningful while the correct processes
/// outnumber them.
pub fn quorum(n: usize) -> usize {
    n / 2 + 1
}

/// The paper's `good.j` superposed on the sweep barrier as an action gate.
///
/// `good.j` is *computed*, not stored: a position is good iff its state is
/// inside the program's variable domains ([`pos_in_domain`]). Every action of
/// position `j` is gated on `good.j` and on `good.q` for every predecessor
/// `q` of `j`:
///
/// * gating on `good.j` freezes a convicted position — without it the
///   position's own `RECV` would overwrite the evidence within one
///   communication delay and the forgery could never be attributed;
/// * gating on the predecessors keeps the sweep's adoption paths (`sn`/`ph`
///   copied from a predecessor) from laundering a forged value into a
///   correct process's state, so out-of-domain state only ever exists at
///   positions its owner wrote.
///
/// Everything else — guards, statements, costs, readers — delegates to the
/// wrapped [`SweepBarrier`].
pub struct GoodGate {
    program: SweepBarrier,
}

impl GoodGate {
    pub fn new(program: SweepBarrier) -> GoodGate {
        GoodGate { program }
    }

    /// The wrapped program (for oracles and topology queries).
    pub fn program(&self) -> &SweepBarrier {
        &self.program
    }

    /// §7's auxiliary `good`, computed from the state.
    pub fn good(&self, s: &PosState) -> bool {
        pos_in_domain(s, self.program.n_phases(), self.program.sn_domain())
    }
}

impl Protocol for GoodGate {
    type State = PosState;

    fn num_processes(&self) -> usize {
        self.program.num_processes()
    }

    fn num_actions(&self, pid: Pid) -> usize {
        self.program.num_actions(pid)
    }

    fn action_name(&self, pid: Pid, action: ActionId) -> &'static str {
        self.program.action_name(pid, action)
    }

    fn enabled(&self, global: &[PosState], pid: Pid, action: ActionId) -> bool {
        self.good(&global[pid])
            && self
                .program
                .dag()
                .preds(pid)
                .iter()
                .all(|&q| self.good(&global[q]))
            && self.program.enabled(global, pid, action)
    }

    fn execute(
        &self,
        global: &[PosState],
        pid: Pid,
        action: ActionId,
        rng: &mut SimRng,
    ) -> PosState {
        self.program.execute(global, pid, action, rng)
    }

    fn cost(&self, pid: Pid, action: ActionId) -> Time {
        self.program.cost(pid, action)
    }

    fn initial_state(&self) -> Vec<PosState> {
        self.program.initial_state()
    }

    fn arbitrary_state(&self, pid: Pid, rng: &mut SimRng) -> PosState {
        self.program.arbitrary_state(pid, rng)
    }

    fn readers_of(&self, pid: Pid) -> ReaderSet {
        // The gate reads pid and its predecessors, both already inside the
        // program's reader set (guards read preds and succs).
        self.program.readers_of(pid)
    }
}

/// A Byzantine containment experiment over one topology.
#[derive(Debug, Clone)]
pub struct ByzExperiment {
    pub topology: TopologySpec,
    pub n_phases: u32,
    /// Communication latency `c` per hop.
    pub c: f64,
    pub seed: u64,
    /// Stop once this many successful phases completed (across all views).
    pub target_phases: u64,
    /// Virtual-time horizon for the whole run.
    pub horizon: f64,
    /// Modeled latency from the stall to the quarantine taking effect.
    pub detect_latency: f64,
    /// The Byzantine set (base pids; never the root).
    pub byzantine: Vec<usize>,
    /// Corruption budget per Byzantine process.
    pub budget: usize,
    /// Poisson rate of corruption events while any budget remains.
    pub attack_rate: f64,
    /// The splice authority's bound: at most this many quarantines before it
    /// refuses and the run wedges. `quorum(n) - 1` is the honest setting.
    pub max_quarantined: usize,
}

impl Default for ByzExperiment {
    fn default() -> Self {
        ByzExperiment {
            topology: TopologySpec::Ring { n: 16 },
            n_phases: 8,
            c: 0.01,
            seed: 0xB12_AD7E,
            target_phases: 100,
            horizon: 600.0,
            detect_latency: 2.0,
            byzantine: Vec::new(),
            budget: 4,
            attack_rate: 0.5,
            max_quarantined: quorum(16) - 1,
        }
    }
}

/// What a Byzantine containment run measured.
#[derive(Debug, Clone)]
pub struct ByzMeasurement {
    /// Successful phases completed across all membership views.
    pub phases: u64,
    /// The phase target the run was asked to reach.
    pub target: u64,
    /// Oracle violations across all segments (transients around corruption
    /// and quarantine are expected; fault-free runs must report zero).
    pub violations: usize,
    /// Processes quarantined by splice, in conviction order.
    pub quarantined: Vec<usize>,
    /// Quarantined processes that were *not* in the Byzantine set — any
    /// entry here is a containment failure (a framed correct process).
    pub correct_quarantined: Vec<usize>,
    /// The splice authority refused (bound reached) and the run wedged.
    pub wedged: bool,
    /// Corruption events fired across all segments.
    pub budget_spent: usize,
    /// Final membership epoch.
    pub epoch: u64,
    /// Virtual time consumed.
    pub elapsed: f64,
    /// Base pids alive at the end of the run.
    pub final_live: Vec<usize>,
}

impl ByzMeasurement {
    /// Fraction of the phase target the correct survivors completed.
    pub fn completion(&self) -> f64 {
        if self.target == 0 {
            return 1.0;
        }
        (self.phases as f64 / self.target as f64).min(1.0)
    }

    /// The containment gate: the run neither wedged nor framed a correct
    /// process, and every phase the run targeted was completed.
    pub fn contained(&self) -> bool {
        !self.wedged && self.correct_quarantined.is_empty() && self.phases >= self.target
    }
}

/// The detectable-fault state of §4.1 (`sn = ⊥, cp = error`), applied to the
/// root to restart the sweep after a quarantine.
fn poison(state: &mut PosState) {
    state.sn = Sn::Bot;
    state.cp = Cp::Error;
}

/// Run a Byzantine containment experiment: execute the sweep under the
/// [`GoodGate`] superposition with budgeted Byzantine corruption, convicting
/// and quarantining processes whose out-of-domain writes stall the sweep.
pub fn run_byz(exp: &ByzExperiment) -> ByzMeasurement {
    run_byz_with_telemetry(exp, &Telemetry::off())
}

/// [`run_byz`], additionally publishing `byz_corruptions_total`,
/// `byz_quarantines_total`, `byz_wedges_total`, and `membership_epoch` after
/// the run. Telemetry is recorded post-hoc from the measurement, so an
/// enabled handle cannot perturb the run.
pub fn run_byz_with_telemetry(exp: &ByzExperiment, telemetry: &Telemetry) -> ByzMeasurement {
    let base = exp.topology.build().expect("valid topology");
    let n_procs = base.num_processes();
    let n_positions = base.num_positions();
    let sn_domain = 2 * n_positions as u32 + 3;

    let byz: BTreeSet<usize> = exp.byzantine.iter().copied().collect();
    assert!(
        !byz.contains(&0),
        "the root is the recovery authority and cannot be Byzantine here"
    );
    assert!(
        byz.iter().all(|&p| p < n_procs),
        "Byzantine pids must be in 0..{n_procs}"
    );

    let mut membership = Membership::new(base.clone());
    let mut base_states: Vec<PosState> = vec![PosState::start(); n_positions];
    let mut budgets: BTreeMap<usize, usize> = byz.iter().map(|&p| (p, exp.budget)).collect();

    let mut t = 0.0f64;
    let mut phases = 0u64;
    let mut violations = 0usize;
    let mut budget_spent = 0usize;
    let mut quarantined: Vec<usize> = Vec::new();
    let mut wedged = false;
    let mut segment = 0u64;

    'segments: while phases < exp.target_phases && t < exp.horizon {
        let view = membership.view();
        let program = SweepBarrier::new(view.dag.clone(), exp.n_phases)
            .with_sn_domain(sn_domain)
            .with_costs(Time::new(exp.c), Time::new(1.0));
        let gate = GoodGate::new(program);

        let view_states: Vec<PosState> = view.positions.iter().map(|&bp| base_states[bp]).collect();
        let mut engine = Engine::from_state(&gate, exp.seed ^ segment, view_states);

        let mut oracle = if segment == 0 {
            SweepOracleMonitor::new(gate.program(), Anchor::StrictFromZero)
        } else {
            let mut m = SweepOracleMonitor::new(gate.program(), Anchor::Free);
            for vp in 0..view.dag.num_positions() {
                let s = engine.global()[vp];
                if gate.program().is_worker(vp) && s.cp == Cp::Execute {
                    m.oracle.observe_cp(
                        Time::ZERO,
                        view.dag.owner(vp),
                        s.ph,
                        Cp::Ready,
                        Cp::Execute,
                    );
                }
            }
            m
        }
        .stop_after(exp.target_phases - phases);

        // Attackers still alive and still funded, with slots in view
        // coordinates (a Byzantine process equivocates across all of its
        // positions — real variable plus local copies).
        let attackers: Vec<ByzantineProcess> = byz
            .iter()
            .filter(|&&p| membership.is_alive(p) && budgets[&p] > 0)
            .map(|&p| {
                let positions: Vec<usize> = base
                    .positions_of(p)
                    .iter()
                    .map(|&bp| view.pos_of[bp].expect("alive process's positions are in view"))
                    .collect();
                ByzantineProcess::with_positions(p, positions, budgets[&p])
            })
            .collect();
        let arsenal: Vec<Box<dyn FaultAction<PosState>>> = vec![
            Box::new(SweepUndetectableFault {
                n_phases: exp.n_phases,
                sn_domain,
            }),
            Box::new(SweepByzantineFault {
                n_phases: exp.n_phases,
                sn_domain,
            }),
        ];
        let mut plan = ByzantineFaults::new(exp.attack_rate, attackers, arsenal);

        let config = EngineConfig {
            max_time: Some(Time::new(exp.horizon - t)),
            ..Default::default()
        };
        let outcome = engine.run(&config, &mut plan, &mut oracle);
        segment += 1;

        for (pid, remaining) in plan.budgets() {
            budgets.insert(pid, remaining);
        }
        budget_spent += plan.spent();
        for (vp, &bp) in view.positions.iter().enumerate() {
            base_states[bp] = engine.global()[vp];
        }
        phases += oracle.oracle.phases_completed();
        violations += oracle.oracle.violations().len();

        match outcome.reason {
            StopReason::MonitorStop => {
                t += outcome.stats.elapsed.as_f64();
                break 'segments;
            }
            StopReason::MaxTime => {
                t = exp.horizon;
            }
            StopReason::Fixpoint => {
                // A stall under the gate means some position froze not-good:
                // convict exactly the owners of out-of-domain state. The
                // pred-gate guarantees no correct process adopted a forged
                // value, so conviction by inspection is sound.
                let convicted: Vec<usize> = (0..n_procs)
                    .filter(|&pid| {
                        membership.is_alive(pid)
                            && base.positions_of(pid).iter().any(|&bp| {
                                !pos_in_domain(&base_states[bp], exp.n_phases, sn_domain)
                            })
                    })
                    .collect();
                assert!(
                    !convicted.is_empty(),
                    "sweep stalled under the good-gate without Byzantine evidence"
                );
                let t_detect = t + outcome.stats.elapsed.as_f64() + exp.detect_latency;
                if t_detect >= exp.horizon {
                    t = exp.horizon;
                    break 'segments;
                }
                t = t_detect;
                for pid in convicted {
                    if quarantined.len() >= exp.max_quarantined {
                        // The splice authority's bound: quarantining further
                        // would leave the correct processes outnumbered, so
                        // it refuses and the run wedges (the honest outcome).
                        wedged = true;
                        break 'segments;
                    }
                    membership
                        .splice(pid)
                        .expect("convicted process is a live non-root");
                    quarantined.push(pid);
                }
                poison(&mut base_states[0]);
            }
            StopReason::MaxCommits => {
                panic!("byz segment exhausted its commit budget");
            }
        }
    }

    let measurement = ByzMeasurement {
        phases,
        target: exp.target_phases,
        violations,
        correct_quarantined: quarantined
            .iter()
            .copied()
            .filter(|p| !byz.contains(p))
            .collect(),
        quarantined,
        wedged,
        budget_spent,
        epoch: membership.epoch(),
        elapsed: t,
        final_live: (0..n_procs).filter(|&p| membership.is_alive(p)).collect(),
    };

    if telemetry.is_enabled() {
        let labels = [("topo", exp.topology.label())];
        telemetry.gauge(names::MEMBERSHIP_EPOCH, &labels, measurement.epoch as f64);
        telemetry.counter(
            names::BYZ_CORRUPTIONS_TOTAL,
            &labels,
            measurement.budget_spent as u64,
        );
        telemetry.counter(
            names::BYZ_QUARANTINES_TOTAL,
            &labels,
            measurement.quarantined.len() as u64,
        );
        telemetry.counter(names::BYZ_WEDGES_TOTAL, &labels, measurement.wedged as u64);
    }
    measurement
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_completes_cleanly() {
        let m = run_byz(&ByzExperiment {
            topology: TopologySpec::Ring { n: 8 },
            target_phases: 30,
            max_quarantined: quorum(8) - 1,
            ..Default::default()
        });
        assert_eq!(m.phases, 30);
        assert_eq!(m.violations, 0);
        assert!(m.quarantined.is_empty());
        assert!(!m.wedged);
        assert_eq!(m.epoch, 0);
        assert!(m.contained());
        assert_eq!(m.completion(), 1.0);
    }

    #[test]
    fn single_byzantine_process_is_quarantined_and_survivors_complete() {
        for topology in [
            TopologySpec::Ring { n: 16 },
            TopologySpec::Tree { n: 16, arity: 2 },
        ] {
            let m = run_byz(&ByzExperiment {
                topology,
                byzantine: vec![5],
                budget: 6,
                ..Default::default()
            });
            assert!(m.contained(), "{topology:?}: {m:?}");
            assert_eq!(m.completion(), 1.0, "{topology:?}");
            assert!(m.correct_quarantined.is_empty(), "{topology:?}");
            // The attacker either got quarantined (it forged out-of-domain)
            // or only scrambled in-domain and stabilization absorbed it;
            // either way no *correct* process was harmed.
            assert!(
                m.quarantined.iter().all(|&p| p == 5),
                "{topology:?}: quarantined {:?}",
                m.quarantined
            );
            assert!(m.final_live.contains(&0), "{topology:?}");
        }
    }

    #[test]
    fn byzantine_majority_wedges_instead_of_splicing_past_quorum() {
        // 12 attackers at n=16: the authority may splice at most
        // quorum(16)-1 = 8; with enough budget it must eventually refuse.
        let byzantine: Vec<usize> = (1..13).collect();
        let m = run_byz(&ByzExperiment {
            topology: TopologySpec::Ring { n: 16 },
            byzantine,
            budget: 20,
            attack_rate: 2.0,
            target_phases: 5_000,
            horizon: 3_000.0,
            ..Default::default()
        });
        assert!(
            m.wedged || m.phases < m.target,
            "a Byzantine majority must not be silently absorbed: {m:?}"
        );
        assert!(
            m.quarantined.len() < quorum(16),
            "authority spliced past its bound: {:?}",
            m.quarantined
        );
        assert!(m.correct_quarantined.is_empty(), "{m:?}");
    }

    #[test]
    fn good_gate_freezes_out_of_domain_state_and_blocks_adoption() {
        let program = SweepBarrier::new(ftbarrier_topology::SweepDag::ring(4).unwrap(), 4);
        let sn_domain = program.sn_domain();
        let gate = GoodGate::new(program);
        let mut g = gate.initial_state();
        // Forge position 2's state out of domain.
        g[2].sn = Sn::Val(sn_domain + 7);
        for a in 0..gate.num_actions(2) {
            assert!(!gate.enabled(&g, 2, a), "frozen position must not act");
        }
        // Its successor (3) is pred-gated; everyone else may still act.
        for a in 0..gate.num_actions(3) {
            assert!(!gate.enabled(&g, 3, a), "successor must not adopt forgery");
        }
        let plain = GoodGate::new(SweepBarrier::new(
            ftbarrier_topology::SweepDag::ring(4).unwrap(),
            4,
        ));
        let clean = plain.initial_state();
        assert!(
            (0..4).any(|p| (0..plain.num_actions(p)).any(|a| plain.enabled(&clean, p, a))),
            "gate must be transparent on in-domain states"
        );
    }

    #[test]
    fn quorum_is_a_strict_majority() {
        assert_eq!(quorum(16), 9);
        assert_eq!(quorum(15), 8);
        assert_eq!(quorum(2), 2);
    }
}
