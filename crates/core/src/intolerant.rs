//! The fault-intolerant baseline barrier (§6.1's `1 + 2hc` comparator).
//!
//! "In the absence of faults, barrier synchronization can be achieved in
//! time 1 + 2hc — one communication over the tree suffices to detect that
//! all processes have completed execution of their phase and another to
//! inform them to start the next phase."
//!
//! This program is the sweep barrier stripped of everything that buys fault
//! tolerance: no ⊥/⊤ repair, no `ready` sweep, no `error`/`repeat` control
//! positions. Two sweeps per phase: an *arrival* sweep (everyone finished)
//! and a *release* sweep (start the next phase). It exists so the simulated
//! overhead of fault tolerance (Fig 6) is measured against a real simulated
//! baseline, not just the closed form.

use ftbarrier_gcs::{ActionId, Pid, Protocol, ReaderSet, SimRng, Time};
use ftbarrier_topology::{Pos, SweepDag};

/// Barrier-relevant control state: working on the phase, or arrived at the
/// barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase2Cp {
    Working,
    Arrived,
}

/// Per-position state of the intolerant barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntolerantState {
    /// Token sequence number — plain modular counter, no fault flags.
    pub sn: u32,
    pub cp: Phase2Cp,
    pub ph: u32,
    pub done: bool,
}

pub const RECV: ActionId = 0;
pub const WORK: ActionId = 1;

/// The fault-intolerant two-sweep barrier over a sweep topology.
#[derive(Debug, Clone)]
pub struct IntolerantBarrier {
    dag: SweepDag,
    pub n_phases: u32,
    pub sn_domain: u32,
    pub comm_cost: Time,
    pub work_cost: Time,
    worker: Vec<bool>,
}

impl IntolerantBarrier {
    pub fn new(dag: SweepDag, n_phases: u32) -> IntolerantBarrier {
        assert!(n_phases >= 2);
        let mut worker = vec![false; dag.num_positions()];
        for pid in 0..dag.num_processes() {
            worker[dag.positions_of(pid)[0]] = true;
        }
        let sn_domain = dag.num_positions() as u32 + 1;
        IntolerantBarrier {
            dag,
            n_phases,
            sn_domain,
            comm_cost: Time::ZERO,
            work_cost: Time::new(1.0),
            worker,
        }
    }

    pub fn with_costs(mut self, comm: Time, work: Time) -> IntolerantBarrier {
        self.comm_cost = comm;
        self.work_cost = work;
        self
    }

    pub fn dag(&self) -> &SweepDag {
        &self.dag
    }

    pub fn is_worker(&self, pos: Pos) -> bool {
        self.worker[pos]
    }

    fn pred_sn(&self, g: &[IntolerantState], pos: Pos) -> Option<u32> {
        let preds = self.dag.preds(pos);
        let first = g[preds[0]].sn;
        if preds[1..].iter().all(|&q| g[q].sn == first) {
            Some(first)
        } else {
            None
        }
    }

    fn has_token(&self, g: &[IntolerantState], pos: Pos) -> bool {
        match self.pred_sn(g, pos) {
            Some(v) => {
                if pos == SweepDag::ROOT {
                    g[pos].sn == v
                } else {
                    g[pos].sn != v
                }
            }
            None => false,
        }
    }

    fn blocked_on_work(&self, g: &[IntolerantState], pos: Pos) -> bool {
        let s = &g[pos];
        if !self.worker[pos] || s.cp != Phase2Cp::Working || s.done {
            return false;
        }
        if pos == SweepDag::ROOT {
            true
        } else {
            let preds = self.dag.preds(pos);
            preds.iter().all(|&q| g[q].cp == Phase2Cp::Arrived)
        }
    }
}

impl Protocol for IntolerantBarrier {
    type State = IntolerantState;

    fn num_processes(&self) -> usize {
        self.dag.num_positions()
    }

    fn num_actions(&self, _pos: Pid) -> usize {
        2
    }

    fn action_name(&self, _pos: Pid, action: ActionId) -> &'static str {
        match action {
            RECV => "RECV",
            WORK => "WORK",
            _ => unreachable!("intolerant barrier has 2 actions"),
        }
    }

    fn enabled(&self, g: &[IntolerantState], pos: Pid, action: ActionId) -> bool {
        let s = &g[pos];
        match action {
            RECV => self.has_token(g, pos) && !self.blocked_on_work(g, pos),
            WORK => self.worker[pos] && s.cp == Phase2Cp::Working && !s.done,
            _ => false,
        }
    }

    fn execute(
        &self,
        g: &[IntolerantState],
        pos: Pid,
        action: ActionId,
        _rng: &mut SimRng,
    ) -> IntolerantState {
        let mut s = g[pos];
        match action {
            RECV => {
                let v = self
                    .pred_sn(g, pos)
                    .expect("RECV only enabled with a token");
                if pos == SweepDag::ROOT {
                    s.sn = (v + 1) % self.sn_domain;
                    let sinks = self.dag.sinks();
                    match s.cp {
                        Phase2Cp::Working => s.cp = Phase2Cp::Arrived, // gated on done
                        Phase2Cp::Arrived => {
                            if sinks.iter().all(|&q| g[q].cp == Phase2Cp::Arrived) {
                                // Everyone arrived: release the next phase.
                                s.ph = (s.ph + 1) % self.n_phases;
                                s.cp = Phase2Cp::Working;
                                s.done = false;
                            }
                            // else keep circulating.
                        }
                    }
                } else {
                    s.sn = v;
                    let pred0 = &g[self.dag.preds(pos)[0]];
                    let pred_cp = if self.dag.preds(pos).iter().all(|&q| g[q].cp == pred0.cp) {
                        Some(pred0.cp)
                    } else {
                        None
                    };
                    match (s.cp, pred_cp) {
                        (Phase2Cp::Working, Some(Phase2Cp::Arrived)) => {
                            s.cp = Phase2Cp::Arrived; // gated on done
                        }
                        (Phase2Cp::Arrived, Some(Phase2Cp::Working)) => {
                            s.ph = pred0.ph;
                            s.cp = Phase2Cp::Working;
                            s.done = !self.worker[pos];
                        }
                        _ => {}
                    }
                }
            }
            WORK => s.done = true,
            _ => unreachable!("intolerant barrier has 2 actions"),
        }
        s
    }

    fn cost(&self, _pos: Pid, action: ActionId) -> Time {
        if action == WORK {
            self.work_cost
        } else {
            self.comm_cost
        }
    }

    fn initial_state(&self) -> Vec<IntolerantState> {
        // Everyone starts working on phase 0 immediately; the barrier sits
        // at the end of each phase.
        (0..self.dag.num_positions())
            .map(|pos| IntolerantState {
                sn: 0,
                cp: Phase2Cp::Working,
                ph: 0,
                done: !self.worker[pos],
            })
            .collect()
    }

    fn arbitrary_state(&self, _pos: Pid, rng: &mut SimRng) -> IntolerantState {
        IntolerantState {
            sn: rng.range_u64(0, self.sn_domain as u64) as u32,
            cp: if rng.chance(0.5) {
                Phase2Cp::Working
            } else {
                Phase2Cp::Arrived
            },
            ph: rng.range_u64(0, self.n_phases as u64) as u32,
            done: rng.chance(0.5),
        }
    }

    fn readers_of(&self, pos: Pid) -> ReaderSet {
        // Guards read only predecessors (RECV's has_token/blocked_on_work
        // read preds' sn and cp) and local state (WORK), so the readers of
        // pos are pos itself and its successors.
        let mut readers = vec![pos];
        readers.extend_from_slice(self.dag.succs(pos));
        readers.sort_unstable();
        readers.dedup();
        ReaderSet::These(readers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbarrier_gcs::fault::NoFaults;
    use ftbarrier_gcs::{Engine, EngineConfig, Interleaving, InterleavingConfig, NullMonitor};

    #[test]
    fn cycles_phases_fault_free() {
        let b = IntolerantBarrier::new(SweepDag::tree(8, 2).unwrap(), 4);
        let mut exec = Interleaving::new(&b, InterleavingConfig::default());
        let mut m = NullMonitor;
        let steps = exec.run_until(200_000, &mut m, |g| g[0].ph == 3);
        assert!(steps.is_some(), "no progress");
    }

    #[test]
    fn workers_gate_arrival_on_done() {
        let b = IntolerantBarrier::new(SweepDag::ring(3).unwrap(), 4);
        let g = b.initial_state();
        // Root has the token but hasn't finished its phase body.
        assert!(b.has_token(&g, 0));
        assert!(!b.enabled(&g, 0, RECV));
        assert!(b.enabled(&g, 0, WORK));
    }

    #[test]
    fn timed_phase_duration_tracks_1_plus_2hc() {
        // Steady-state phase period on a binary tree of 32 processes with
        // c = 0.02 must be near 1 + 2hc (the sweep pipeline adds small
        // constant terms; the paper's closed form is the leading behaviour).
        let c = 0.02;
        let h = 5;
        let b = IntolerantBarrier::new(SweepDag::tree(32, 2).unwrap(), 4)
            .with_costs(Time::new(c), Time::new(1.0));
        let mut engine = Engine::new(&b, 9);
        struct PhaseWatch {
            target: u32,
            hit: bool,
        }
        impl ftbarrier_gcs::Monitor<IntolerantState> for PhaseWatch {
            fn on_transition(
                &mut self,
                _now: Time,
                _pid: Pid,
                _action: ActionId,
                _name: &str,
                _old: &IntolerantState,
                new: &IntolerantState,
                global: &[IntolerantState],
            ) {
                if global[0].ph == self.target && new.ph == self.target {
                    self.hit = true;
                }
            }
            fn should_stop(&mut self) -> bool {
                self.hit
            }
        }
        // Time for 3 phase completions at the root (ph reaches 3).
        let mut watch = PhaseWatch {
            target: 3,
            hit: false,
        };
        let out = engine.run(&EngineConfig::default(), &mut NoFaults, &mut watch);
        let per_phase = out.stats.elapsed.as_f64() / 3.0;
        let predicted = 1.0 + 2.0 * h as f64 * c;
        assert!(
            (per_phase - predicted).abs() < 0.15,
            "per-phase {per_phase} vs predicted {predicted}"
        );
    }
}
