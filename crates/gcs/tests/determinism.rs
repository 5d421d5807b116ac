//! Reproducibility: a run is a pure function of (protocol, seed, config).
//! Every stochastic choice flows through the seeded RNG, so identical seeds
//! give identical traces, and different seeds genuinely differ.

use ftbarrier_gcs::fault::{FaultAction, NoFaults, PoissonFaults, VictimPolicy};
use ftbarrier_gcs::*;
use proptest::prelude::*;

/// Dijkstra's K-state ring (the same protocol as the crate's unit tests,
/// reconstructed here since test utilities are crate-private).
struct Ring {
    n: usize,
    k: u64,
    cost: Time,
}

impl Protocol for Ring {
    type State = u64;
    fn num_processes(&self) -> usize {
        self.n
    }
    fn num_actions(&self, _p: Pid) -> usize {
        1
    }
    fn action_name(&self, pid: Pid, _a: ActionId) -> &'static str {
        if pid == 0 {
            "bottom"
        } else {
            "other"
        }
    }
    fn enabled(&self, g: &[u64], p: Pid, _a: ActionId) -> bool {
        if p == 0 {
            g[0] == g[self.n - 1]
        } else {
            g[p] != g[p - 1]
        }
    }
    fn execute(&self, g: &[u64], p: Pid, _a: ActionId, _r: &mut SimRng) -> u64 {
        if p == 0 {
            (g[0] + 1) % self.k
        } else {
            g[p - 1]
        }
    }
    fn cost(&self, _p: Pid, _a: ActionId) -> Time {
        self.cost
    }
    fn initial_state(&self) -> Vec<u64> {
        vec![0; self.n]
    }
    fn arbitrary_state(&self, _p: Pid, r: &mut SimRng) -> u64 {
        r.range_u64(0, self.k)
    }
}

struct Zap;
impl FaultAction<u64> for Zap {
    fn kind(&self) -> FaultKind {
        FaultKind::Undetectable
    }
    fn apply(&self, _p: Pid, s: &mut u64, rng: &mut SimRng) {
        *s = rng.range_u64(0, 100);
    }
}

fn run_fingerprint(seed: u64) -> (Vec<u64>, u64, u64, String) {
    let ring = Ring {
        n: 6,
        k: 13,
        cost: Time::new(0.25),
    };
    let mut engine = Engine::new(&ring, seed);
    let mut trace: Trace<u64> = Trace::unbounded();
    let mut faults = PoissonFaults::with_frequency(0.3, VictimPolicy::Random, Zap);
    let config = EngineConfig {
        max_time: Some(Time::new(40.0)),
        ..Default::default()
    };
    let out = engine.run(&config, &mut faults, &mut trace);
    let log: String = trace
        .events()
        .map(|e| format!("{:?}@{:?};", e.pid(), e.time()))
        .collect();
    (
        engine.global().to_vec(),
        out.stats.actions_executed,
        out.stats.faults,
        log,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Same seed ⇒ byte-identical trace, final state, and statistics.
    #[test]
    fn identical_seeds_identical_runs(seed in 0u64..10_000) {
        let a = run_fingerprint(seed);
        let b = run_fingerprint(seed);
        prop_assert_eq!(a, b);
    }

    /// The untimed executor is equally deterministic.
    #[test]
    fn interleaving_is_deterministic(seed in 0u64..10_000) {
        let ring = Ring { n: 5, k: 11, cost: Time::ZERO };
        let run = |seed| {
            let mut exec = Interleaving::new(
                &ring,
                InterleavingConfig { seed, ..Default::default() },
            );
            exec.perturb_all();
            exec.run(500, &mut NullMonitor);
            (exec.global().to_vec(), exec.stats().count_of("bottom"))
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}

#[test]
fn different_seeds_differ_somewhere() {
    // Not a theorem, but over 20 seeds the traces must not all collide.
    let distinct: std::collections::HashSet<String> =
        (0..20).map(|s| run_fingerprint(s).3).collect();
    assert!(
        distinct.len() > 15,
        "only {} distinct traces",
        distinct.len()
    );
}

#[test]
fn fault_free_timed_run_is_schedule_invariant() {
    // Without faults and with deterministic guards, the engine's outcome
    // depends only on the protocol (the RNG is only consulted for
    // tie-breaks that don't exist here).
    let ring = Ring {
        n: 4,
        k: 9,
        cost: Time::new(1.0),
    };
    let mut finals = Vec::new();
    for seed in 0..10 {
        let mut engine = Engine::new(&ring, seed);
        let config = EngineConfig {
            max_time: Some(Time::new(25.0)),
            ..Default::default()
        };
        engine.run(&config, &mut NoFaults, &mut NullMonitor);
        finals.push(engine.global().to_vec());
    }
    assert!(finals.windows(2).all(|w| w[0] == w[1]));
}
