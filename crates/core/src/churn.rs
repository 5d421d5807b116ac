//! Dynamic membership for the engine backend: fail-stop crashes, token-
//! timeout detection, topology repair, and reboot rejoin.
//!
//! The phase experiments in [`crate::sim`] run a *fixed* membership — a
//! permanently crashed process would stall the sweep forever. This module
//! adds the reconfiguration layer of the paper's §2/§7 fault class (fail-stop
//! *and repair*): a scripted churn plan crashes and reboots processes at
//! virtual times, and the driver detects each stall, splices the dead process
//! out of the topology ([`ftbarrier_topology::Membership`]), and completes
//! the barrier with the surviving set.
//!
//! The run is segmented at every churn event and every reconfiguration. Each
//! segment executes the sweep program over the current membership view, with
//! crashed-but-undetected processes masked fail-stop
//! ([`ftbarrier_gcs::Masked`]: state readable, actions disabled). Detection
//! is the token timeout superposed on T1–T5: at a masked fixpoint nothing
//! can move, and the positions whose (unmasked) guards are still enabled are
//! exactly the dead ones a timeout detector would suspect — the driver
//! charges the configured [`ChurnExperiment::token_timeout`] to the clock
//! and splices those owners out. The repaired view's root is marked with the
//! detectable-fault state (`sn = ⊥, cp = error`): per §4.1 the sweep
//! regenerates the token from the root (`root_recv_sn` adopts a sink's
//! sequence number) and at worst re-executes one phase — graceful
//! degradation, never deadlock.
//!
//! A rebooted process rejoins at a phase boundary: its positions are grafted
//! back into the view with `cp = ready` and `sn`/`ph` adopted from the
//! upstream neighbor, so the next sweep flows through it; the root is again
//! poisoned to force resynchronization within one re-executed phase. A
//! process that reboots *before* the detector fires rejoins in place — its
//! positions restart in the detectable-fault state (memory lost, §4.1's
//! crash/reboot) and no epoch is bumped.
//!
//! With an empty churn plan the driver is byte-identical to a plain
//! [`Engine`] run of the bare program — the differential tests in
//! `crates/core/tests/differential.rs` pin this down.

use std::collections::BTreeSet;

use crate::cp::Cp;
use crate::sim::{SweepOracleMonitor, TopologySpec};
use crate::sn::Sn;
use crate::spec::Anchor;
use crate::sweep::{PosState, SweepBarrier, RECV};
use ftbarrier_gcs::fault::NoFaults;
use ftbarrier_gcs::trace::TraceEvent;
use ftbarrier_gcs::{
    ActionId, Engine, EngineConfig, Masked, Monitor, Pid, StopReason, Time, Trace,
};
use ftbarrier_telemetry::{names, Telemetry};
use ftbarrier_topology::membership::Membership;

/// One scripted churn event, at a virtual time from the start of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnEvent {
    /// Fail-stop crash of a (base) process: its state freezes and its
    /// actions stop executing. Detected only when the sweep stalls on it.
    Crash { at: f64, pid: usize },
    /// Reboot of a previously crashed process with its memory lost.
    Reboot { at: f64, pid: usize },
}

impl ChurnEvent {
    pub fn at(self) -> f64 {
        match self {
            ChurnEvent::Crash { at, .. } | ChurnEvent::Reboot { at, .. } => at,
        }
    }
}

/// A churn experiment over one topology.
#[derive(Debug, Clone)]
pub struct ChurnExperiment {
    pub topology: TopologySpec,
    pub n_phases: u32,
    /// Communication latency `c` per hop.
    pub c: f64,
    pub seed: u64,
    /// Stop once this many successful phases completed (across all views).
    pub target_phases: u64,
    /// Virtual-time horizon for the whole run.
    pub horizon: f64,
    /// Modeled latency of the token-timeout detector: charged to the clock
    /// between a stall and the repaired view taking effect.
    pub token_timeout: f64,
    /// The churn plan, in any order (sorted internally by time).
    pub events: Vec<ChurnEvent>,
    /// Record the full engine trace (for differential tests).
    pub record_trace: bool,
}

impl Default for ChurnExperiment {
    fn default() -> Self {
        ChurnExperiment {
            topology: TopologySpec::Ring { n: 16 },
            n_phases: 8,
            c: 0.01,
            seed: 0xC0_FFEE,
            target_phases: 200,
            horizon: 600.0,
            token_timeout: 2.0,
            events: Vec::new(),
            record_trace: false,
        }
    }
}

/// What a churn run measured.
#[derive(Debug, Clone)]
pub struct ChurnMeasurement {
    /// Successful phases completed across all membership views.
    pub phases: u64,
    /// Oracle violations across all segments (transients around
    /// reconfigurations are expected; fault-free runs must report zero).
    pub violations: usize,
    /// Processes spliced out after a token-timeout suspicion.
    pub suspicions: u64,
    /// Processes readmitted (graft after detection, or in-place reboot).
    pub rejoins: u64,
    /// Final membership epoch.
    pub epoch: u64,
    /// Latency of each reconfiguration (stall → repaired view in effect).
    pub reconfig_latencies: Vec<f64>,
    /// Virtual time consumed.
    pub elapsed: f64,
    /// Successful phases completed after the last membership change.
    pub phases_after_last_change: u64,
    /// Virtual-time span from the last membership change to the end.
    pub span_after_last_change: f64,
    /// RECV executions per *base* process after the last membership change —
    /// nonzero entries are the processes actually participating in the final
    /// view's sweeps.
    pub recv_after_last_change: Vec<u64>,
    /// Base pids alive at the end of the run.
    pub final_live: Vec<usize>,
    /// Final per-position states, indexed by base position.
    pub final_states: Vec<PosState>,
    /// Engine trace (only when [`ChurnExperiment::record_trace`]; times are
    /// per-segment, matching a plain engine run when no churn occurred).
    pub trace: Vec<TraceEvent<PosState>>,
}

impl ChurnMeasurement {
    /// Fraction of expected phases the surviving set completed after the
    /// last membership change, against a fault-free run of the repaired
    /// topology over the same span.
    pub fn post_change_completion(&self, expected: u64) -> f64 {
        if expected == 0 {
            return 1.0;
        }
        self.phases_after_last_change as f64 / expected as f64
    }
}

/// Per-position RECV counter, folded to base pids through the view map.
struct RecvCounter {
    /// view position → base pid
    owner_base: Vec<usize>,
    counts: Vec<u64>,
}

impl Monitor<PosState> for RecvCounter {
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
            self.counts[self.owner_base[pos]] += 1;
        }
    }
}

/// The detectable-fault state of §4.1: `sn = ⊥, cp = error`. Applied to the
/// root to (re)start a sweep after a reconfiguration, and to every position
/// of a process that reboots with its memory lost.
fn poison(state: &mut PosState) {
    state.sn = Sn::Bot;
    state.cp = Cp::Error;
}

/// Run a churn experiment: execute the sweep program under the scripted
/// crash/reboot plan, detecting stalls and repairing the topology as they
/// happen.
pub fn run_churn(exp: &ChurnExperiment) -> ChurnMeasurement {
    run_churn_with_telemetry(exp, &Telemetry::off())
}

/// [`run_churn`], additionally publishing the membership metrics
/// (`membership_epoch`, `suspicions_total`, `rejoins_total`,
/// `reconfiguration_latency`) after the run. Telemetry is recorded post-hoc
/// from the measurement, so an enabled handle cannot perturb the run.
pub fn run_churn_with_telemetry(exp: &ChurnExperiment, telemetry: &Telemetry) -> ChurnMeasurement {
    let base = exp.topology.build().expect("valid topology");
    let n_procs = base.num_processes();
    let n_positions = base.num_positions();
    // One sn domain for the whole run (the base program's default): a view
    // never has more positions than the base, so `L > 2N+1` keeps holding.
    let sn_domain = 2 * n_positions as u32 + 3;

    let mut events = exp.events.clone();
    events.sort_by(|a, b| a.at().total_cmp(&b.at()));

    let mut membership = Membership::new(base.clone());
    let mut undetected: BTreeSet<usize> = BTreeSet::new();
    let mut base_states: Vec<PosState> = vec![PosState::start(); n_positions];

    let mut t_base = 0.0f64;
    let mut phases_total = 0u64;
    let mut violations = 0usize;
    let mut suspicions = 0u64;
    let mut rejoins = 0u64;
    let mut reconfig_latencies: Vec<f64> = Vec::new();
    let mut trace_events: Vec<TraceEvent<PosState>> = Vec::new();
    // Participation accounting, reset at every membership change.
    let mut t_last_change = 0.0f64;
    let mut phases_at_last_change = 0u64;
    let mut recv_since_change: Vec<u64> = vec![0; n_procs];

    let mut next_event = 0usize;
    let mut segment = 0u64;

    'segments: while phases_total < exp.target_phases && t_base < exp.horizon {
        let next_event_t = events.get(next_event).map_or(f64::INFINITY, |e| e.at());
        let seg_end = next_event_t.min(exp.horizon);

        if seg_end > t_base {
            let view = membership.view();
            let program = SweepBarrier::new(view.dag.clone(), exp.n_phases)
                .with_sn_domain(sn_domain)
                .with_costs(Time::new(exp.c), Time::new(1.0));
            let alive: Vec<bool> = (0..view.dag.num_positions())
                .map(|p| !undetected.contains(&view.pids[view.dag.owner(p)]))
                .collect();
            let masked = Masked::new(&program, alive);

            let view_states: Vec<PosState> =
                view.positions.iter().map(|&bp| base_states[bp]).collect();
            let mut engine = Engine::from_state(&masked, exp.seed ^ segment, view_states);

            let mut oracle = if segment == 0 {
                SweepOracleMonitor::new(&program, Anchor::StrictFromZero)
            } else {
                let mut m = SweepOracleMonitor::new(&program, Anchor::Free);
                // Positions carried over in `execute` have already started
                // their phase as far as the oracle is concerned.
                for vp in 0..view.dag.num_positions() {
                    let s = engine.global()[vp];
                    if program.is_worker(vp) && s.cp == Cp::Execute {
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
            .stop_after(exp.target_phases - phases_total);
            let mut recvs = RecvCounter {
                owner_base: (0..view.dag.num_positions())
                    .map(|p| view.pids[view.dag.owner(p)])
                    .collect(),
                counts: vec![0; n_procs],
            };
            let mut trace: Trace<PosState> = Trace::unbounded();

            let config = EngineConfig {
                max_time: Some(Time::new(seg_end - t_base)),
                ..Default::default()
            };
            let outcome = engine.run(
                &config,
                &mut NoFaults,
                &mut (
                    &mut oracle,
                    (&mut recvs, exp.record_trace.then_some(&mut trace)),
                ),
            );
            segment += 1;

            // Fold the segment back into base coordinates.
            for (vp, &bp) in view.positions.iter().enumerate() {
                base_states[bp] = engine.global()[vp];
            }
            phases_total += oracle.oracle.phases_completed();
            violations += oracle.oracle.violations().len();
            for (pid, &c) in recvs.counts.iter().enumerate() {
                recv_since_change[pid] += c;
            }
            if exp.record_trace {
                trace_events.extend(trace.events().cloned());
            }

            match outcome.reason {
                StopReason::MonitorStop => {
                    t_base += outcome.stats.elapsed.as_f64();
                    break 'segments;
                }
                StopReason::MaxTime => {
                    t_base = seg_end;
                }
                StopReason::Fixpoint => {
                    let t_fix = t_base + outcome.stats.elapsed.as_f64();
                    assert!(
                        !undetected.is_empty(),
                        "sweep barrier reached a fixpoint with all processes live"
                    );
                    let t_detect = t_fix + exp.token_timeout;
                    if next_event_t <= t_detect {
                        // A scripted event (e.g. the reboot of the very
                        // process we are stalled on) lands before the
                        // detector fires; handle it first.
                        t_base = next_event_t;
                    } else if t_detect >= exp.horizon {
                        t_base = exp.horizon;
                        break 'segments;
                    } else {
                        // Detection: the owners of positions still enabled
                        // in the unmasked program are exactly the dead
                        // processes the stalled sweep is waiting on.
                        t_base = t_detect;
                        let stalled = masked.stalled_processes(engine.global());
                        let mut dead: Vec<usize> = stalled
                            .iter()
                            .map(|&vp| view.pids[view.dag.owner(vp)])
                            .collect();
                        dead.sort_unstable();
                        dead.dedup();
                        assert!(!dead.is_empty(), "stall without a stalled process");
                        for pid in dead {
                            membership
                                .splice(pid)
                                .expect("suspected process is a live non-root");
                            undetected.remove(&pid);
                            suspicions += 1;
                        }
                        poison(&mut base_states[0]);
                        reconfig_latencies.push(exp.token_timeout);
                        t_last_change = t_base;
                        phases_at_last_change = phases_total;
                        recv_since_change.fill(0);
                        continue 'segments;
                    }
                }
                StopReason::MaxCommits => {
                    panic!("churn segment exhausted its commit budget");
                }
            }
        } else {
            t_base = seg_end;
        }

        // Consume the scripted event at `t_base`.
        let Some(&event) = events.get(next_event) else {
            break 'segments;
        };
        if event.at() > t_base {
            continue 'segments;
        }
        next_event += 1;
        match event {
            ChurnEvent::Crash { pid, .. } => {
                assert!(pid != 0, "the root process cannot crash in this model");
                if membership.is_alive(pid) && !undetected.contains(&pid) {
                    undetected.insert(pid);
                }
            }
            ChurnEvent::Reboot { pid, .. } => {
                if undetected.remove(&pid) {
                    // Rebooted before the detector fired: rejoin in place
                    // with memory lost — §4.1's crash/reboot detectable
                    // fault. No membership change.
                    for &bp in base.positions_of(pid) {
                        base_states[bp] = PosState::start();
                        poison(&mut base_states[bp]);
                    }
                    rejoins += 1;
                } else if !membership.is_alive(pid) {
                    // Graft back into the topology; the rejoin handshake
                    // adopts `sn`/`ph` from the upstream neighbor and waits
                    // at the phase boundary with `cp = ready`.
                    let view = membership.graft(pid).expect("rebooted pid is known");
                    for &bp in base.positions_of(pid) {
                        let vp = view.pos_of[bp].expect("grafted position is live");
                        let upstream_bp = view.positions[view.dag.preds(vp)[0]];
                        let u = base_states[upstream_bp];
                        base_states[bp] = PosState {
                            sn: u.sn,
                            cp: Cp::Ready,
                            ph: u.ph,
                            done: true,
                            post: true,
                        };
                    }
                    poison(&mut base_states[0]);
                    rejoins += 1;
                    t_last_change = t_base;
                    phases_at_last_change = phases_total;
                    recv_since_change.fill(0);
                }
                // Reboot of a live process: nothing to do.
            }
        }
    }

    let measurement = ChurnMeasurement {
        phases: phases_total,
        violations,
        suspicions,
        rejoins,
        epoch: membership.epoch(),
        reconfig_latencies,
        elapsed: t_base,
        phases_after_last_change: phases_total - phases_at_last_change,
        span_after_last_change: t_base - t_last_change,
        recv_after_last_change: recv_since_change,
        final_live: (0..n_procs).filter(|&p| membership.is_alive(p)).collect(),
        final_states: base_states,
        trace: trace_events,
    };

    if telemetry.is_enabled() {
        let topo = exp.topology.label();
        let labels = [("topo", topo)];
        telemetry.gauge(names::MEMBERSHIP_EPOCH, &labels, measurement.epoch as f64);
        telemetry.counter(names::SUSPICIONS_TOTAL, &labels, measurement.suspicions);
        telemetry.counter(names::REJOINS_TOTAL, &labels, measurement.rejoins);
        for &l in &measurement.reconfig_latencies {
            telemetry.observe(names::RECONFIGURATION_LATENCY, &labels, l);
        }
    }
    measurement
}

/// Successful phases a fault-free run of `topology` completes within `span`
/// virtual time — the baseline for availability ratios.
pub fn fault_free_phases(
    topology: TopologySpec,
    n_phases: u32,
    c: f64,
    seed: u64,
    span: f64,
) -> u64 {
    let exp = ChurnExperiment {
        topology,
        n_phases,
        c,
        seed,
        target_phases: u64::MAX,
        horizon: span,
        token_timeout: 1.0,
        events: Vec::new(),
        record_trace: false,
    };
    run_churn(&exp).phases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_churn_run_matches_plain_measurement() {
        let m = run_churn(&ChurnExperiment {
            topology: TopologySpec::Ring { n: 8 },
            target_phases: 30,
            horizon: 200.0,
            ..Default::default()
        });
        assert_eq!(m.phases, 30);
        assert_eq!(m.violations, 0);
        assert_eq!(m.suspicions, 0);
        assert_eq!(m.rejoins, 0);
        assert_eq!(m.epoch, 0);
        assert_eq!(m.final_live.len(), 8);
        // Every process participated.
        assert!(m.recv_after_last_change.iter().all(|&c| c > 0));
    }

    #[test]
    fn permanent_crash_is_detected_and_survivors_complete_phases() {
        for topology in [
            TopologySpec::Ring { n: 16 },
            TopologySpec::Tree { n: 16, arity: 2 },
        ] {
            let m = run_churn(&ChurnExperiment {
                topology,
                target_phases: u64::MAX,
                horizon: 120.0,
                token_timeout: 2.0,
                events: vec![ChurnEvent::Crash { at: 10.0, pid: 5 }],
                ..Default::default()
            });
            assert_eq!(m.suspicions, 1, "{topology:?}");
            assert_eq!(m.epoch, 1, "{topology:?}");
            assert_eq!(m.final_live.len(), 15, "{topology:?}");
            assert!(!m.final_live.contains(&5), "{topology:?}");
            // The survivors keep completing phases after the repair.
            assert!(
                m.phases_after_last_change > 50,
                "{topology:?}: only {} phases after repair",
                m.phases_after_last_change
            );
            assert_eq!(m.recv_after_last_change[5], 0, "{topology:?}");
            assert!(
                m.recv_after_last_change
                    .iter()
                    .enumerate()
                    .all(|(p, &c)| p == 5 || c > 0),
                "{topology:?}: all survivors participate"
            );
        }
    }

    #[test]
    fn crashed_then_rebooted_process_rejoins_and_participates() {
        let m = run_churn(&ChurnExperiment {
            topology: TopologySpec::Ring { n: 16 },
            target_phases: u64::MAX,
            horizon: 120.0,
            token_timeout: 2.0,
            events: vec![
                ChurnEvent::Crash { at: 10.0, pid: 7 },
                ChurnEvent::Reboot { at: 40.0, pid: 7 },
            ],
            ..Default::default()
        });
        assert_eq!(m.suspicions, 1);
        assert_eq!(m.rejoins, 1);
        assert_eq!(m.epoch, 2, "splice + graft");
        assert_eq!(m.final_live.len(), 16);
        // The rejoined process executes RECV again after the graft.
        assert!(
            m.recv_after_last_change[7] > 0,
            "rejoined process must participate: {:?}",
            m.recv_after_last_change
        );
        assert!(m.phases_after_last_change > 30);
    }

    #[test]
    fn reboot_before_detection_rejoins_in_place_without_epoch_bump() {
        let m = run_churn(&ChurnExperiment {
            topology: TopologySpec::Ring { n: 8 },
            target_phases: u64::MAX,
            horizon: 80.0,
            token_timeout: 50.0, // detector far slower than the reboot
            events: vec![
                ChurnEvent::Crash { at: 5.0, pid: 3 },
                ChurnEvent::Reboot { at: 6.0, pid: 3 },
            ],
            ..Default::default()
        });
        assert_eq!(m.suspicions, 0);
        assert_eq!(m.rejoins, 1);
        assert_eq!(m.epoch, 0, "in-place reboot is not a reconfiguration");
        assert!(m.recv_after_last_change[3] > 0);
    }

    #[test]
    fn availability_after_repair_is_high() {
        // The acceptance bar: ≥99% of subsequent phases complete.
        let m = run_churn(&ChurnExperiment {
            topology: TopologySpec::Ring { n: 16 },
            target_phases: u64::MAX,
            horizon: 400.0,
            token_timeout: 2.0,
            events: vec![ChurnEvent::Crash { at: 10.0, pid: 9 }],
            ..Default::default()
        });
        let expected = fault_free_phases(
            TopologySpec::Ring { n: 15 },
            8,
            0.01,
            0xC0_FFEE,
            m.span_after_last_change,
        );
        let completion = m.post_change_completion(expected);
        assert!(
            completion >= 0.99,
            "post-repair completion {completion} ({} of {expected})",
            m.phases_after_last_change
        );
    }
}
