//! Fault modeling.
//!
//! The paper represents each fault as an action that perturbs the variables
//! of one process: a *detectable* fault assigns flagged "reset" values (the
//! process knows it was hit — `cp := error`, `sn := ⊥`), an *undetectable*
//! fault assigns arbitrary values from the variable domains.
//!
//! What perturbation to apply is protocol-specific, so it is supplied as a
//! [`FaultAction`] by the protocol crate. *When* and *where* faults strike is
//! the environment's choice, captured by a [`FaultPlan`]:
//!
//! * [`PoissonFaults`] — arrivals with rate `λ = -ln(1-f)` per time unit,
//!   which reproduces the paper's survival function `(1-f)^d` for "no fault
//!   during a duration-`d` phase" exactly.
//! * [`ScriptedFaults`] — a fixed schedule, for deterministic tests.

use crate::protocol::Pid;
use crate::rng::SimRng;
use crate::time::Time;

/// The paper's two fault classes (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// State is reset to flagged values before any process accesses it
    /// (message loss, fail-stop, reboot, FP exceptions, …).
    Detectable,
    /// State is corrupted to arbitrary values without any flag (design
    /// errors, memory corruption, hanging processes, …).
    Undetectable,
}

/// A protocol-specific fault perturbation applied to one process's state.
pub trait FaultAction<S> {
    fn kind(&self) -> FaultKind;
    fn apply(&self, pid: Pid, state: &mut S, rng: &mut SimRng);
}

/// Record of an applied fault, reported back to the executor for monitors.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultHit<S> {
    pub pid: Pid,
    pub kind: FaultKind,
    /// The reported victim's state immediately before the perturbation,
    /// captured by the plan so the executor never has to snapshot the whole
    /// global state around a fault.
    pub old: S,
}

/// Chooses which process a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimPolicy {
    /// Uniformly random process (the paper: "at any process").
    Random,
    /// Always the same process.
    Fixed(Pid),
}

impl VictimPolicy {
    fn pick(&self, n: usize, rng: &mut SimRng) -> Pid {
        match *self {
            VictimPolicy::Random => rng.below(n),
            VictimPolicy::Fixed(pid) => {
                assert!(pid < n, "fixed victim {pid} out of range (n={n})");
                pid
            }
        }
    }
}

/// Environment that decides when/where faults strike during a timed run.
pub trait FaultPlan<S> {
    /// The time of the next fault at or after `now`, if any. Must be stable
    /// between calls until [`FaultPlan::fire`] consumes it.
    fn peek(&mut self, now: Time, rng: &mut SimRng) -> Option<Time>;

    /// Apply the fault previously returned by `peek`. Mutates the state of
    /// one or more processes, pushes every perturbed pid into `touched`
    /// (the executor uses this to dirty-mark dependent guards), and reports
    /// the primary victim together with its pre-fault state.
    fn fire(
        &mut self,
        at: Time,
        global: &mut [S],
        rng: &mut SimRng,
        touched: &mut Vec<Pid>,
    ) -> FaultHit<S>;
}

/// The empty fault environment.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFaults;

impl<S> FaultPlan<S> for NoFaults {
    fn peek(&mut self, _now: Time, _rng: &mut SimRng) -> Option<Time> {
        None
    }

    fn fire(
        &mut self,
        _at: Time,
        _global: &mut [S],
        _rng: &mut SimRng,
        _touched: &mut Vec<Pid>,
    ) -> FaultHit<S> {
        unreachable!("NoFaults never schedules a fault")
    }
}

/// An optional environment: `None` schedules no fault, as [`NoFaults`] does.
impl<S, F: FaultPlan<S>> FaultPlan<S> for Option<F> {
    #[inline]
    fn peek(&mut self, now: Time, rng: &mut SimRng) -> Option<Time> {
        self.as_mut()?.peek(now, rng)
    }

    fn fire(
        &mut self,
        at: Time,
        global: &mut [S],
        rng: &mut SimRng,
        touched: &mut Vec<Pid>,
    ) -> FaultHit<S> {
        self.as_mut()
            .expect("a `None` fault plan never schedules a fault")
            .fire(at, global, rng, touched)
    }
}

/// Convert the paper's per-unit-time fault frequency `f` into a Poisson rate
/// `λ` such that `P(no arrival in duration d) = (1-f)^d`.
///
/// Panics if `f` is not in `[0, 1)`.
pub fn rate_for_frequency(f: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&f),
        "fault frequency must be in [0,1), got {f}"
    );
    -(1.0 - f).ln()
}

/// Poisson fault arrivals applying one fixed [`FaultAction`].
pub struct PoissonFaults<A> {
    rate: f64,
    victims: VictimPolicy,
    action: A,
    next: Option<Time>,
}

impl<A> PoissonFaults<A> {
    /// Build from a Poisson rate (arrivals per time unit).
    pub fn with_rate(rate: f64, victims: VictimPolicy, action: A) -> Self {
        assert!(rate >= 0.0, "rate must be non-negative");
        PoissonFaults {
            rate,
            victims,
            action,
            next: None,
        }
    }

    /// Build from the paper's fault frequency `f` (see [`rate_for_frequency`]).
    pub fn with_frequency(f: f64, victims: VictimPolicy, action: A) -> Self {
        Self::with_rate(rate_for_frequency(f), victims, action)
    }
}

impl<S: Clone, A: FaultAction<S>> FaultPlan<S> for PoissonFaults<A> {
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
        global: &mut [S],
        rng: &mut SimRng,
        touched: &mut Vec<Pid>,
    ) -> FaultHit<S> {
        let pid = self.victims.pick(global.len(), rng);
        let old = global[pid].clone();
        self.action.apply(pid, &mut global[pid], rng);
        self.next = None;
        touched.push(pid);
        FaultHit {
            pid,
            kind: self.action.kind(),
            old,
        }
    }
}

/// One entry of a scripted fault schedule.
pub struct ScriptedFault<S> {
    pub at: Time,
    pub pid: Pid,
    pub action: Box<dyn FaultAction<S>>,
}

/// A deterministic fault schedule, fired in time order.
pub struct ScriptedFaults<S> {
    script: Vec<ScriptedFault<S>>,
    cursor: usize,
}

impl<S> ScriptedFaults<S> {
    pub fn new(mut script: Vec<ScriptedFault<S>>) -> Self {
        script.sort_by_key(|e| e.at);
        ScriptedFaults { script, cursor: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.script.len() - self.cursor
    }
}

impl<S: Clone> FaultPlan<S> for ScriptedFaults<S> {
    fn peek(&mut self, _now: Time, _rng: &mut SimRng) -> Option<Time> {
        self.script.get(self.cursor).map(|e| e.at)
    }

    fn fire(
        &mut self,
        _at: Time,
        global: &mut [S],
        rng: &mut SimRng,
        touched: &mut Vec<Pid>,
    ) -> FaultHit<S> {
        let entry = &self.script[self.cursor];
        self.cursor += 1;
        let old = global[entry.pid].clone();
        entry.action.apply(entry.pid, &mut global[entry.pid], rng);
        touched.push(entry.pid);
        FaultHit {
            pid: entry.pid,
            kind: entry.action.kind(),
            old,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Zap;
    impl FaultAction<u64> for Zap {
        fn kind(&self) -> FaultKind {
            FaultKind::Detectable
        }
        fn apply(&self, _pid: Pid, state: &mut u64, _rng: &mut SimRng) {
            *state = 999;
        }
    }

    #[test]
    fn rate_matches_survival_function() {
        // P(no fault in d) = exp(-λ d) must equal (1-f)^d.
        for &f in &[0.001, 0.01, 0.1, 0.5] {
            let lambda = rate_for_frequency(f);
            for &d in &[0.5, 1.0, 2.0, 7.3] {
                let poisson = (-lambda * d).exp();
                let paper = (1.0 - f).powf(d);
                assert!((poisson - paper).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn zero_frequency_never_fires() {
        let mut plan = PoissonFaults::with_frequency(0.0, VictimPolicy::Random, Zap);
        let mut rng = SimRng::seed_from_u64(0);
        assert_eq!(
            FaultPlan::<u64>::peek(&mut plan, Time::ZERO, &mut rng),
            None
        );
    }

    #[test]
    fn poisson_peek_is_stable_until_fired() {
        let mut plan = PoissonFaults::with_frequency(0.5, VictimPolicy::Fixed(1), Zap);
        let mut rng = SimRng::seed_from_u64(0);
        let t1 = FaultPlan::<u64>::peek(&mut plan, Time::ZERO, &mut rng).unwrap();
        let t2 = FaultPlan::<u64>::peek(&mut plan, Time::ZERO, &mut rng).unwrap();
        assert_eq!(t1, t2);
        let mut global = vec![7u64, 5, 3];
        let mut touched = Vec::new();
        let hit = plan.fire(t1, &mut global, &mut rng, &mut touched);
        assert_eq!(hit.pid, 1);
        assert_eq!(hit.old, 5);
        assert_eq!(touched, vec![1]);
        assert_eq!(global, vec![7, 999, 3]);
        let t3 = FaultPlan::<u64>::peek(&mut plan, t1, &mut rng).unwrap();
        assert!(t3 > t1);
    }

    #[test]
    fn poisson_interarrival_mean() {
        let mut plan = PoissonFaults::with_frequency(0.2, VictimPolicy::Random, Zap);
        let mut rng = SimRng::seed_from_u64(11);
        let lambda = rate_for_frequency(0.2);
        let mut now = Time::ZERO;
        let n = 5000;
        for _ in 0..n {
            let at = FaultPlan::<u64>::peek(&mut plan, now, &mut rng).unwrap();
            let mut g = vec![0u64; 4];
            plan.fire(at, &mut g, &mut rng, &mut Vec::new());
            now = at;
        }
        let mean = now.as_f64() / n as f64;
        assert!(
            (mean - 1.0 / lambda).abs() < 0.15,
            "mean {mean}, want {}",
            1.0 / lambda
        );
    }

    #[test]
    fn scripted_fires_in_time_order() {
        let script = vec![
            ScriptedFault {
                at: Time::new(2.0),
                pid: 0,
                action: Box::new(Zap) as Box<dyn FaultAction<u64>>,
            },
            ScriptedFault {
                at: Time::new(1.0),
                pid: 1,
                action: Box::new(Zap),
            },
        ];
        let mut plan = ScriptedFaults::new(script);
        let mut rng = SimRng::seed_from_u64(0);
        let mut global = vec![0u64; 2];
        let mut touched = Vec::new();
        assert_eq!(plan.peek(Time::ZERO, &mut rng), Some(Time::new(1.0)));
        let hit = plan.fire(Time::new(1.0), &mut global, &mut rng, &mut touched);
        assert_eq!(hit.pid, 1);
        assert_eq!(hit.old, 0);
        assert_eq!(plan.peek(Time::ZERO, &mut rng), Some(Time::new(2.0)));
        assert_eq!(plan.remaining(), 1);
        plan.fire(Time::new(2.0), &mut global, &mut rng, &mut touched);
        assert_eq!(touched, vec![1, 0]);
        assert_eq!(plan.peek(Time::ZERO, &mut rng), None);
    }

    #[test]
    #[should_panic]
    fn frequency_must_be_below_one() {
        let _ = rate_for_frequency(1.0);
    }
}
