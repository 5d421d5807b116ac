//! The multitolerant token ring underlying program RB (§4.1).
//!
//! Each process `j` in a ring `0..=N` holds a sequence number
//! `sn.j ∈ {0..K-1} ∪ {⊥, ⊤}` with `K > N`. The paper's five actions,
//! verbatim:
//!
//! ```text
//! T1 :: j=0 ∧ sn.N ≠ ⊥ ∧ sn.N ≠ ⊤ ∧ (sn.0 = sn.N ∨ sn.0 = ⊥ ∨ sn.0 = ⊤) → sn.0 := sn.N + 1
//! T2 :: j≠0 ∧ sn.(j-1) ≠ ⊥ ∧ sn.(j-1) ≠ ⊤ ∧ sn.j ≠ sn.(j-1)              → sn.j := sn.(j-1)
//! T3 :: sn.N = ⊥                                                          → sn.N := ⊤
//! T4 :: j≠N ∧ sn.j = ⊥ ∧ sn.(j+1) = ⊤                                    → sn.j := ⊤
//! T5 :: sn.0 = ⊤                                                          → sn.0 := 0
//! ```
//!
//! Properties (proved in \[10\], tested here): fault-free, exactly one token
//! circulates; under detectable faults at most one token exists and
//! eventually exactly one, each process can detect its own corruption
//! (⊥/⊤), and process 0 never executes T4/T5; under undetectable faults the
//! ring eventually again contains exactly one token.

use crate::sn::{validate_modulus, DomainError, Sn};
use ftbarrier_gcs::{ActionId, FaultAction, FaultKind, Pid, Protocol, ReaderSet, SimRng, Time};

/// Action indices (uniform across processes; guards gate applicability).
pub const T1: ActionId = 0;
pub const T2: ActionId = 1;
pub const T3: ActionId = 2;
pub const T4: ActionId = 3;
pub const T5: ActionId = 4;

/// The token ring program over `n` processes (the paper's `N = n - 1`).
#[derive(Debug, Clone)]
pub struct TokenRing {
    pub n: usize,
    /// Sequence number domain size, `K > N`.
    pub k: u32,
    /// Cost of one hop (communication latency `c`).
    pub hop_cost: Time,
}

impl TokenRing {
    pub fn new(n: usize) -> TokenRing {
        assert!(n >= 2);
        TokenRing {
            n,
            k: n as u32 + 1,
            hop_cost: Time::ZERO,
        }
    }

    /// Like [`TokenRing::with_domain`] but returns a typed error instead of
    /// panicking when `K` violates the paper's `K > N` precondition (or the
    /// absolute floor `K ≥ 2`, below which `sn + 1 = sn` and the ring cannot
    /// represent progress at all).
    pub fn try_with_domain(mut self, k: u32) -> Result<TokenRing, DomainError> {
        // The ring's N is `n - 1`, so `K > N` means `K ≥ n`.
        self.k = validate_modulus(k, self.n as u32)?;
        Ok(self)
    }

    pub fn with_domain(self, k: u32) -> TokenRing {
        self.try_with_domain(k)
            .expect("the paper requires K > N (and K ≥ 2)")
    }

    fn last(&self) -> Pid {
        self.n - 1
    }

    /// The paper's token predicate: `j ≠ N` holds the token iff
    /// `sn.j ≠ sn.(j+1)` (both ordinary); `N` holds it iff `sn.N = sn.0`
    /// (both ordinary).
    pub fn has_token(&self, g: &[Sn], j: Pid) -> bool {
        if j == self.last() {
            g[j].is_valid() && g[0].is_valid() && g[j] == g[0]
        } else {
            g[j].is_valid() && g[j + 1].is_valid() && g[j] != g[j + 1]
        }
    }

    pub fn count_tokens(&self, g: &[Sn]) -> usize {
        (0..self.n).filter(|&j| self.has_token(g, j)).count()
    }
}

impl Protocol for TokenRing {
    type State = Sn;

    fn num_processes(&self) -> usize {
        self.n
    }

    fn num_actions(&self, _pid: Pid) -> usize {
        5
    }

    fn action_name(&self, _pid: Pid, action: ActionId) -> &'static str {
        match action {
            T1 => "T1",
            T2 => "T2",
            T3 => "T3",
            T4 => "T4",
            T5 => "T5",
            _ => unreachable!("token ring has 5 actions"),
        }
    }

    fn enabled(&self, g: &[Sn], j: Pid, action: ActionId) -> bool {
        let last = self.last();
        match action {
            T1 => j == 0 && g[last].is_valid() && (g[0] == g[last] || !g[0].is_valid()),
            T2 => j != 0 && g[j - 1].is_valid() && g[j] != g[j - 1],
            T3 => j == last && g[j] == Sn::Bot,
            T4 => j != last && g[j] == Sn::Bot && g[j + 1] == Sn::Top,
            T5 => j == 0 && g[0] == Sn::Top,
            _ => false,
        }
    }

    fn execute(&self, g: &[Sn], j: Pid, action: ActionId, _rng: &mut SimRng) -> Sn {
        match action {
            T1 => g[self.last()].next(self.k),
            T2 => g[j - 1],
            T3 | T4 => Sn::Top,
            T5 => Sn::Val(0),
            _ => unreachable!("token ring has 5 actions"),
        }
    }

    fn cost(&self, _pid: Pid, _action: ActionId) -> Time {
        self.hop_cost
    }

    fn initial_state(&self) -> Vec<Sn> {
        vec![Sn::Val(0); self.n]
    }

    fn arbitrary_state(&self, _pid: Pid, rng: &mut SimRng) -> Sn {
        Sn::arbitrary(self.k, rng)
    }

    fn readers_of(&self, j: Pid) -> ReaderSet {
        // T2 at j+1 reads sn.j (T1 at 0 reads sn.N, the ring-wrap case),
        // T4 at j-1 reads sn.j, and j's own guards read sn.j.
        let mut readers = vec![(j + self.n - 1) % self.n, j, (j + 1) % self.n];
        readers.sort_unstable();
        readers.dedup();
        ReaderSet::These(readers)
    }
}

/// Detectable fault: "when the sequence number of a process is corrupted,
/// it is set to ⊥".
#[derive(Debug, Clone, Copy)]
pub struct SnDetectableFault;

impl FaultAction<Sn> for SnDetectableFault {
    fn kind(&self) -> FaultKind {
        FaultKind::Detectable
    }

    fn apply(&self, _pid: Pid, state: &mut Sn, _rng: &mut SimRng) {
        *state = Sn::Bot;
    }
}

/// Undetectable fault: arbitrary value from the whole domain.
#[derive(Debug, Clone, Copy)]
pub struct SnUndetectableFault {
    pub k: u32,
}

impl FaultAction<Sn> for SnUndetectableFault {
    fn kind(&self) -> FaultKind {
        FaultKind::Undetectable
    }

    fn apply(&self, _pid: Pid, state: &mut Sn, rng: &mut SimRng) {
        *state = Sn::arbitrary(self.k, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbarrier_gcs::{Interleaving, InterleavingConfig, NullMonitor};

    #[test]
    fn fault_free_exactly_one_token_forever() {
        let ring = TokenRing::new(6);
        for seed in 0..10 {
            let mut exec = Interleaving::new(
                &ring,
                InterleavingConfig {
                    seed,
                    ..Default::default()
                },
            );
            let mut m = NullMonitor;
            assert_eq!(ring.count_tokens(exec.global()), 1);
            for _ in 0..500 {
                assert!(exec.step(&mut m), "ring never deadlocks");
                assert_eq!(ring.count_tokens(exec.global()), 1, "seed {seed}");
            }
            // T3/T4/T5 never fire without faults.
            assert_eq!(exec.stats().count_of("T3"), 0);
            assert_eq!(exec.stats().count_of("T4"), 0);
            assert_eq!(exec.stats().count_of("T5"), 0);
        }
    }

    #[test]
    fn token_visits_every_process() {
        let ring = TokenRing::new(5);
        let mut exec = Interleaving::new(&ring, InterleavingConfig::default());
        let mut m = NullMonitor;
        exec.run(500, &mut m);
        // Every process executed its receive action many times.
        assert!(exec.stats().count_of("T1") >= 50);
        assert!(exec.stats().count_of("T2") >= 200);
    }

    #[test]
    fn detectable_fault_yields_at_most_one_token_and_recovers() {
        let ring = TokenRing::new(6);
        let fault = SnDetectableFault;
        for seed in 0..20 {
            let mut exec = Interleaving::new(
                &ring,
                InterleavingConfig {
                    seed,
                    ..Default::default()
                },
            );
            let mut m = NullMonitor;
            for round in 0..30 {
                // Never corrupt everyone at once (that is the undetectable
                // regime per footnote 2); pick one victim per round.
                let victim = (seed as usize + round) % ring.n;
                exec.apply_fault(victim, &fault, &mut m);
                for _ in 0..5 {
                    exec.step(&mut m);
                    assert!(
                        ring.count_tokens(exec.global()) <= 1,
                        "seed {seed}: token duplicated under a detectable fault"
                    );
                }
                // Let the ring repair fully before the next fault.
                let steps = exec.run_until(10_000, &mut m, |g| {
                    ring.count_tokens(g) == 1 && g.iter().all(|s| s.is_valid())
                });
                assert!(steps.is_some(), "seed {seed}: ring did not recover");
            }
        }
    }

    #[test]
    fn corrupted_process_detects_itself() {
        // Property (b): a process is corrupted iff its sn is ⊥ or ⊤.
        let ring = TokenRing::new(4);
        let mut exec = Interleaving::new(&ring, InterleavingConfig::default());
        let mut m = NullMonitor;
        exec.apply_fault(2, &SnDetectableFault, &mut m);
        assert!(!exec.global()[2].is_valid());
        assert!(exec
            .global()
            .iter()
            .enumerate()
            .all(|(j, s)| j == 2 || s.is_valid()));
    }

    #[test]
    fn process_zero_never_repairs_under_detectable_faults() {
        // Property (c): 0 executes T4/T5 only for undetectable faults.
        let ring = TokenRing::new(5);
        for seed in 0..10 {
            let mut exec = Interleaving::new(
                &ring,
                InterleavingConfig {
                    seed,
                    ..Default::default()
                },
            );
            let mut m = NullMonitor;
            for round in 0..50 {
                let victim = (seed as usize + round * 3) % ring.n;
                exec.apply_fault(victim, &SnDetectableFault, &mut m);
                exec.run(100, &mut m);
            }
            assert_eq!(exec.stats().count_of("T5"), 0, "seed {seed}");
        }
    }

    #[test]
    fn stabilizes_from_arbitrary_states() {
        let ring = TokenRing::new(7);
        for seed in 0..30 {
            let mut exec = Interleaving::new(
                &ring,
                InterleavingConfig {
                    seed,
                    ..Default::default()
                },
            );
            exec.perturb_all();
            let mut m = NullMonitor;
            let steps = exec.run_until(50_000, &mut m, |g| {
                ring.count_tokens(g) == 1 && g.iter().all(|s| s.is_valid())
            });
            assert!(steps.is_some(), "seed {seed}: no stabilization");
            // Stays at one token afterwards.
            for _ in 0..100 {
                exec.step(&mut m);
                assert_eq!(ring.count_tokens(exec.global()), 1);
            }
        }
    }

    #[test]
    fn all_bot_recovers_via_top_wave() {
        // Everyone detectably corrupted at once = undetectable regime:
        // T3 at N, T4 wave back to 0, T5 resets.
        let ring = TokenRing::new(5);
        let mut exec =
            Interleaving::from_state(&ring, InterleavingConfig::default(), vec![Sn::Bot; 5]);
        let mut m = NullMonitor;
        let steps = exec.run_until(10_000, &mut m, |g| {
            ring.count_tokens(g) == 1 && g.iter().all(|s| s.is_valid())
        });
        assert!(steps.is_some());
        assert!(exec.stats().count_of("T3") >= 1);
        assert!(exec.stats().count_of("T4") >= 1);
        assert!(exec.stats().count_of("T5") >= 1);
    }

    #[test]
    fn t1_guard_matches_paper() {
        let ring = TokenRing::new(3);
        // sn = [0,0,0]: N holds token, T1 enabled at 0.
        let g = vec![Sn::Val(0); 3];
        assert!(ring.enabled(&g, 0, T1));
        assert!(ring.has_token(&g, 2));
        // After T1: 0 has a fresh value, T2 enabled at 1 only.
        let g = vec![Sn::Val(1), Sn::Val(0), Sn::Val(0)];
        assert!(!ring.enabled(&g, 0, T1));
        assert!(ring.enabled(&g, 1, T2));
        assert!(!ring.enabled(&g, 2, T2));
        assert!(ring.has_token(&g, 0));
        // A ⊥ predecessor blocks T2.
        let g = vec![Sn::Bot, Sn::Val(0), Sn::Val(0)];
        assert!(!ring.enabled(&g, 1, T2));
        // ⊥ at 0 lets T1 re-acquire from a valid N.
        let g = vec![Sn::Bot, Sn::Val(2), Sn::Val(2)];
        assert!(ring.enabled(&g, 0, T1));
    }

    #[test]
    fn domain_must_exceed_ring_length() {
        let ring = TokenRing::new(4);
        assert!(ring.k > 3);
    }

    #[test]
    #[should_panic]
    fn with_domain_rejects_small_k() {
        let _ = TokenRing::new(8).with_domain(7);
    }

    #[test]
    fn try_with_domain_reports_typed_errors() {
        use crate::sn::DomainError;
        assert_eq!(
            TokenRing::new(8).try_with_domain(7).unwrap_err(),
            DomainError::KTooSmall { k: 7, min: 8 }
        );
        // K = 1 is rejected even for the smallest ring: sn + 1 = sn.
        assert_eq!(
            TokenRing::new(2).try_with_domain(1).unwrap_err(),
            DomainError::KTooSmall { k: 1, min: 2 }
        );
        assert_eq!(TokenRing::new(8).try_with_domain(9).unwrap().k, 9);
    }
}
