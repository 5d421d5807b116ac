//! Fault actions and the process-level fault environment for the sweep
//! program (§4.1's fault representation).

use crate::cp::Cp;
use crate::sn::Sn;
use crate::sweep::program::SweepBarrier;
use crate::sweep::state::PosState;
use ftbarrier_gcs::{
    rate_for_frequency, FaultAction, FaultHit, FaultKind, FaultPlan, Pid, SimRng, Time,
};

/// The detectable fault of §4.1: `true → ph.j, cp.j, sn.j := ?, error, ⊥`
/// (§5 additionally flags the local copies, which are separate positions
/// here and get the same treatment).
#[derive(Debug, Clone, Copy)]
pub struct SweepDetectableFault {
    pub n_phases: u32,
}

impl FaultAction<PosState> for SweepDetectableFault {
    fn kind(&self) -> FaultKind {
        FaultKind::Detectable
    }

    fn apply(&self, _pid: Pid, s: &mut PosState, rng: &mut SimRng) {
        s.ph = rng.range_u64(0, self.n_phases as u64) as u32;
        s.cp = Cp::Error;
        s.sn = Sn::Bot;
        s.done = false;
        s.post = false;
    }
}

/// The undetectable fault: every variable gets an arbitrary domain value.
#[derive(Debug, Clone, Copy)]
pub struct SweepUndetectableFault {
    pub n_phases: u32,
    pub sn_domain: u32,
}

impl FaultAction<PosState> for SweepUndetectableFault {
    fn kind(&self) -> FaultKind {
        FaultKind::Undetectable
    }

    fn apply(&self, _pid: Pid, s: &mut PosState, rng: &mut SimRng) {
        s.ph = rng.range_u64(0, self.n_phases as u64) as u32;
        s.cp = *rng.choose(&Cp::RB_DOMAIN);
        s.sn = Sn::arbitrary(self.sn_domain, rng);
        s.done = rng.chance(0.5);
        s.post = rng.chance(0.5);
    }
}

/// A Byzantine forgery *beyond* the in-domain scramble class: every variable
/// is written a value **outside** its domain (`sn ≥ L` as a forged ordinary
/// value, `ph ≥ n_phases`). Such a write is never produced by the program or
/// by §2's fault classes, so it is *evidence* — any peer (or the recovery
/// authority) that inspects the state can convict the writer, which is what
/// lets detectable Byzantine behavior be quarantined by splice (§7's `good`
/// bit withdrawn) instead of wedging the ring.
#[derive(Debug, Clone, Copy)]
pub struct SweepByzantineFault {
    pub n_phases: u32,
    pub sn_domain: u32,
}

impl FaultAction<PosState> for SweepByzantineFault {
    fn kind(&self) -> FaultKind {
        // No self-flag is raised (`cp` is *not* set to `error`): the writer
        // does not announce the fault. Detection is by inspection.
        FaultKind::Undetectable
    }

    fn apply(&self, _pid: Pid, s: &mut PosState, rng: &mut SimRng) {
        // Forged "ordinary" sequence number strictly outside {0..L-1}.
        s.sn = Sn::Val(
            self.sn_domain
                .saturating_add(rng.range_u64(0, 1 << 16) as u32),
        );
        // Phase counter outside {0..n_phases-1} (bounded, so downstream
        // arithmetic like `(ph + 1) % n_phases` cannot overflow).
        s.ph = self.n_phases + rng.range_u64(0, self.n_phases as u64) as u32;
        s.cp = *rng.choose(&Cp::RB_DOMAIN);
        s.done = rng.chance(0.5);
        s.post = rng.chance(0.5);
    }
}

/// Is this state inside the sweep program's variable domains? `⊥`/`⊤` are
/// legitimate flag values (detectable faults), so they are in-domain; a
/// forged ordinary `sn ≥ L` or a `ph ≥ n_phases` is not — it is Byzantine
/// evidence ([`SweepByzantineFault`] is exactly the writer of such values).
pub fn pos_in_domain(s: &PosState, n_phases: u32, sn_domain: u32) -> bool {
    let sn_ok = match s.sn {
        Sn::Bot | Sn::Top => true,
        Sn::Val(v) => v < sn_domain,
    };
    sn_ok && s.ph < n_phases
}

/// Poisson fault arrivals that strike a uniformly random *process* and
/// perturb **all of its positions** (a fault hits the process, which owns
/// its real variables *and* its local copies of neighbors' variables, §5).
///
/// The rate reproduces the paper's survival function: `λ = -ln(1-f)` gives
/// `P(no fault during a duration-d phase) = (1-f)^d`.
pub struct ProcessFaults<A> {
    rate: f64,
    action: A,
    /// positions_of\[pid\] from the program's topology; the first entry is
    /// the worker position, which is reported as the hit.
    positions_of: Vec<Vec<usize>>,
    next: Option<Time>,
}

impl<A> ProcessFaults<A> {
    pub fn new(program: &SweepBarrier, frequency: f64, action: A) -> ProcessFaults<A> {
        let dag = program.dag();
        let positions_of = (0..dag.num_processes())
            .map(|pid| dag.positions_of(pid).to_vec())
            .collect();
        ProcessFaults {
            rate: rate_for_frequency(frequency),
            action,
            positions_of,
            next: None,
        }
    }
}

impl<A: FaultAction<PosState>> FaultPlan<PosState> for ProcessFaults<A> {
    fn peek(&mut self, now: Time, rng: &mut SimRng) -> Option<Time> {
        if self.rate == 0.0 {
            return None;
        }
        if self.next.is_none() {
            let dt = rng.exponential(self.rate);
            if !dt.is_finite() {
                return None;
            }
            self.next = Some(now + Time::new(dt));
        }
        self.next
    }

    fn fire(
        &mut self,
        _at: Time,
        global: &mut [PosState],
        rng: &mut SimRng,
        touched: &mut Vec<Pid>,
    ) -> FaultHit<PosState> {
        let victim = rng.below(self.positions_of.len());
        let old = global[self.positions_of[victim][0]];
        for &pos in &self.positions_of[victim] {
            self.action.apply(victim, &mut global[pos], rng);
            touched.push(pos);
        }
        self.next = None;
        FaultHit {
            pid: self.positions_of[victim][0],
            kind: self.action.kind(),
            old,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbarrier_gcs::Protocol;
    use ftbarrier_topology::SweepDag;

    #[test]
    fn detectable_fault_flags_everything() {
        let f = SweepDetectableFault { n_phases: 4 };
        let mut rng = SimRng::seed_from_u64(0);
        let mut s = PosState::start();
        f.apply(0, &mut s, &mut rng);
        assert_eq!(s.sn, Sn::Bot);
        assert_eq!(s.cp, Cp::Error);
        assert!(!s.done);
        assert!(s.ph < 4);
    }

    #[test]
    fn undetectable_fault_spans_domain() {
        let f = SweepUndetectableFault {
            n_phases: 4,
            sn_domain: 6,
        };
        let mut rng = SimRng::seed_from_u64(1);
        let mut saw_repeat = false;
        let mut saw_flag_sn = false;
        for _ in 0..500 {
            let mut s = PosState::start();
            f.apply(0, &mut s, &mut rng);
            assert!(Cp::RB_DOMAIN.contains(&s.cp));
            assert!(s.ph < 4);
            saw_repeat |= s.cp == Cp::Repeat;
            saw_flag_sn |= !s.sn.is_valid();
        }
        assert!(saw_repeat && saw_flag_sn);
    }

    #[test]
    fn process_faults_hit_all_positions_of_victim() {
        // Double tree: processes own two positions each (but the root).
        let program = SweepBarrier::new(SweepDag::double_tree(3, 2).unwrap(), 4);
        let mut plan = ProcessFaults::new(&program, 0.5, SweepDetectableFault { n_phases: 4 });
        let mut rng = SimRng::seed_from_u64(7);
        let mut found_multi = false;
        for _ in 0..20 {
            let mut g = program.initial_state();
            let at = plan.peek(Time::ZERO, &mut rng).unwrap();
            let mut touched = Vec::new();
            let hit = plan.fire(at, &mut g, &mut rng, &mut touched);
            let corrupted: Vec<usize> = (0..g.len()).filter(|&p| g[p].sn == Sn::Bot).collect();
            let victim = program.dag().owner(hit.pid);
            assert_eq!(corrupted, program.dag().positions_of(victim));
            assert_eq!(touched, program.dag().positions_of(victim));
            if corrupted.len() == 2 {
                found_multi = true;
            }
        }
        assert!(found_multi, "non-root victims must corrupt both positions");
    }

    #[test]
    fn byzantine_fault_writes_out_of_domain_evidence() {
        let f = SweepByzantineFault {
            n_phases: 4,
            sn_domain: 11,
        };
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..200 {
            let mut s = PosState::start();
            assert!(pos_in_domain(&s, 4, 11));
            f.apply(0, &mut s, &mut rng);
            assert!(!pos_in_domain(&s, 4, 11), "forgery must be evidence: {s}");
            let Sn::Val(v) = s.sn else {
                panic!("forgery writes an ordinary-looking sn")
            };
            assert!(v >= 11);
            assert!(s.ph >= 4 && s.ph < 8);
        }
    }

    #[test]
    fn in_domain_accepts_flags_and_rejects_forgeries() {
        let mut s = PosState::start();
        s.sn = Sn::Bot;
        assert!(pos_in_domain(&s, 4, 11), "⊥ is a legitimate flag value");
        s.sn = Sn::Top;
        assert!(pos_in_domain(&s, 4, 11), "⊤ is a legitimate flag value");
        s.sn = Sn::Val(10);
        assert!(pos_in_domain(&s, 4, 11));
        s.sn = Sn::Val(11);
        assert!(!pos_in_domain(&s, 4, 11));
        s.sn = Sn::Val(0);
        s.ph = 4;
        assert!(!pos_in_domain(&s, 4, 11));
    }

    #[test]
    fn zero_frequency_is_silent() {
        let program = SweepBarrier::new(SweepDag::ring(3).unwrap(), 4);
        let mut plan = ProcessFaults::new(&program, 0.0, SweepDetectableFault { n_phases: 4 });
        let mut rng = SimRng::seed_from_u64(0);
        assert_eq!(plan.peek(Time::ZERO, &mut rng), None);
    }
}
