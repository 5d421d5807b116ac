//! Conformance and fault-model tests for the sibling protocols: scheduler
//! differentials (incremental ≡ full rescan), safety/liveness of the termination
//! detector, lockstep agreement of the synchronous counter, Byzantine
//! behavior under `WithByzantine`, and the documented limitations that
//! motivate quarantine.

use ftbarrier_core::faults::{ByzState, WithByzantine};
use ftbarrier_core::testkit::check_protocol_scheduler_differential;
use ftbarrier_gcs::fault::NoFaults;
use ftbarrier_gcs::{
    ActionId, Engine, EngineConfig, Monitor, Pid, Protocol, SimRng, TelemetryMonitor, Time,
};
use ftbarrier_protocols::safra::{SafraRing, SafraState, PASS};
use ftbarrier_protocols::synccount::SyncCount;
use ftbarrier_telemetry::{Telemetry, TimeDomain};

// ---------------------------------------------------------------- Safra ---

/// Asserts that whenever the root's verdict flips to `announced`, the system
/// is genuinely terminated — the detector's safety property.
struct AnnounceChecker {
    announcements: u64,
    unsafe_announcements: u64,
}

impl Monitor<SafraState> for AnnounceChecker {
    fn on_transition(
        &mut self,
        _now: Time,
        pid: Pid,
        action: ActionId,
        _name: &str,
        old: &SafraState,
        new: &SafraState,
        global: &[SafraState],
    ) {
        if pid == 0 && action == PASS && new.announced && !old.announced {
            self.announcements += 1;
            if !SafraRing::terminated(global) {
                self.unsafe_announcements += 1;
            }
        }
    }
}

#[test]
fn termination_is_announced_and_never_before_all_work_finishes() {
    for seed in 0..8u64 {
        let ring = SafraRing::new(8, 11, 2).with_costs(Time::new(0.05), Time::new(1.0));
        let mut engine = Engine::new(&ring, seed);
        let mut checker = AnnounceChecker {
            announcements: 0,
            unsafe_announcements: 0,
        };
        let cfg = EngineConfig {
            max_time: Some(Time::new(300.0)),
            ..Default::default()
        };
        engine.run(&cfg, &mut NoFaults, &mut checker);
        assert_eq!(
            checker.unsafe_announcements, 0,
            "seed {seed}: announced before termination"
        );
        assert!(
            checker.announcements >= 1,
            "seed {seed}: work finished but termination was never announced"
        );
        let g = engine.global();
        assert!(SafraRing::terminated(g), "seed {seed}");
        assert!(g[0].announced, "seed {seed}: verdict lost at the root");
        assert!(
            g.iter().all(|s| s.announced),
            "seed {seed}: verdict must reach every ring member"
        );
    }
}

#[test]
fn detector_stabilizes_from_arbitrary_states() {
    // From an arbitrary state the detector may transiently lie (arbitrary
    // `announced`/`dirty` bits), but once activity dies down the root's
    // round-by-round re-derivation converges on the true verdict.
    for seed in 0..6u64 {
        let ring = SafraRing::new(6, 7, 1).with_costs(Time::new(0.05), Time::new(1.0));
        let mut engine = Engine::new(&ring, seed);
        engine.perturb_all();
        let cfg = EngineConfig {
            max_time: Some(Time::new(300.0)),
            ..Default::default()
        };
        engine.run(&cfg, &mut NoFaults, &mut ftbarrier_gcs::NullMonitor);
        let g = engine.global();
        assert!(SafraRing::terminated(g), "seed {seed}: activity must cease");
        assert!(
            g[0].announced,
            "seed {seed}: root must eventually announce the real termination"
        );
    }
}

#[test]
fn byzantine_member_can_wipe_dirt_and_force_a_false_announcement() {
    // The documented limitation: a Byzantine ring member that passes the
    // token with its accumulated taint wiped can make the root see a clean
    // circulation while work is still running — detection alone cannot
    // survive an in-protocol liar, which is what the quarantine machinery
    // (ftbarrier-core::byz) is for.
    let ring = SafraRing::new(4, 5, 1);
    let idle = |tsn: u8| SafraState {
        active: false,
        budget: 0,
        black: false,
        tsn,
        dirty: false,
        clean_rounds: 0,
        announced: false,
    };
    let mut g = vec![idle(1); 4];
    // Process 3 is still active — but (lying) passed the token onward with
    // `dirty = false`. The root has already banked one clean round.
    g[3].active = true;
    g[0].clean_rounds = 1;
    assert!(ring.has_token(&g, 0), "token is back at the root");
    assert!(!SafraRing::terminated(&g));
    let mut rng = SimRng::seed_from_u64(0);
    let verdict = ring.execute(&g, 0, PASS, &mut rng);
    assert!(
        verdict.announced,
        "the wiped circulation reads as clean — a false announcement"
    );
}

#[test]
fn byzantine_wrapper_propagates_forged_announcements_to_correct_members() {
    // WithByzantine composes with the ring: a bad process rewrites its own
    // state arbitrarily, and since members adopt `announced` from their
    // predecessor, a forged verdict can reach correct processes that are
    // still active. (The root is immune — it re-derives the verdict.)
    let ring = SafraRing::new(5, 7, 2);
    let wrapped = WithByzantine { inner: ring };
    let mut states: Vec<ByzState<SafraState>> = wrapped.initial_state();
    states[2].good = false;
    let mut engine = Engine::from_state(&wrapped, 0xBAD, states);
    let cfg = EngineConfig {
        max_time: Some(Time::new(60.0)),
        ..Default::default()
    };
    engine.run(&cfg, &mut NoFaults, &mut ftbarrier_gcs::NullMonitor);
    let g = engine.global();
    assert!(!g[2].good, "a Byzantine process stays Byzantine");
    // The run neither wedged nor crashed: correct processes kept acting.
    assert!(
        g.iter().enumerate().any(|(i, s)| i != 2 && !s.inner.active),
        "correct processes made progress around the Byzantine member"
    );
}

#[test]
fn safra_schedulers_are_byte_identical() {
    check_protocol_scheduler_differential(
        "safra",
        &SafraRing::new(8, 11, 2).with_costs(Time::new(0.05), Time::new(1.0)),
        0x5AF2,
        40.0,
    );
}

#[test]
fn safra_run_records_telemetry() {
    let tele = Telemetry::recording(TimeDomain::Virtual);
    let ring = SafraRing::new(6, 7, 1);
    let mut tmon = TelemetryMonitor::<SafraState>::new(tele.clone(), 6);
    let mut engine = Engine::new(&ring, 7);
    let cfg = EngineConfig {
        max_time: Some(Time::new(50.0)),
        ..Default::default()
    };
    engine.run(&cfg, &mut NoFaults, &mut tmon);
    let metrics = tele.snapshot().metrics;
    let passes = metrics.counter("engine_actions_total", &[("action", "PASS")]);
    let finishes = metrics.counter("engine_actions_total", &[("action", "FINISH")]);
    assert!(
        passes > 0 && finishes > 0,
        "engine telemetry must record the sibling protocol's actions \
         (PASS={passes}, FINISH={finishes})"
    );
}

// ------------------------------------------------------------ SyncCount ---

/// One synchronous round: every process applies the rule to the same
/// snapshot (exactly what the maximal-parallelism engine does with equal
/// costs).
fn sync_round(p: &SyncCount, g: &[u32]) -> Vec<u32> {
    let mut rng = SimRng::seed_from_u64(0);
    (0..g.len()).map(|j| p.execute(g, j, 0, &mut rng)).collect()
}

#[test]
fn synchronous_rounds_agree_after_one_step_and_count_in_lockstep() {
    let p = SyncCount::new(7, 10);
    let mut rng = SimRng::seed_from_u64(42);
    for _ in 0..20 {
        let start: Vec<u32> = (0..7).map(|j| p.arbitrary_state(j, &mut rng)).collect();
        let mut g = sync_round(&p, &start);
        let first = g[0];
        assert!(
            g.iter().all(|&v| v == first),
            "one synchronous round must reach agreement: {start:?} -> {g:?}"
        );
        for round in 1..=5u32 {
            g = sync_round(&p, &g);
            assert!(
                g.iter().all(|&v| v == (first + round) % 10),
                "lockstep counting broke at round {round}: {g:?}"
            );
        }
    }
}

#[test]
fn engine_run_reaches_agreement_from_perturbed_states() {
    let p = SyncCount::new(8, 16);
    let mut engine = Engine::new(&p, 0xC0);
    engine.perturb_all();
    let cfg = EngineConfig {
        max_time: Some(Time::new(10.0)),
        ..Default::default()
    };
    engine.run(&cfg, &mut NoFaults, &mut ftbarrier_gcs::NullMonitor);
    let g = engine.global();
    assert!(
        g.iter().all(|&v| v == g[0]),
        "engine rounds are synchronous, so counters must agree: {g:?}"
    );
}

#[test]
fn byzantine_minority_cannot_break_correct_lockstep() {
    // 2 Byzantine of 5: the 3 correct processes are the majority of every
    // snapshot, so after one round they agree and count in lockstep no
    // matter what the liars write.
    let p = SyncCount::new(5, 12);
    let wrapped = WithByzantine { inner: p };
    let mut rng = SimRng::seed_from_u64(0xB12);
    let mut g: Vec<ByzState<u32>> = wrapped.initial_state();
    g[1].good = false;
    g[1].inner = 7;
    g[4].good = false;
    g[4].inner = 3;
    let mut correct_value: Option<u32> = None;
    for round in 0..6 {
        g = (0..5)
            .map(|j| wrapped.execute(&g, j, 0, &mut rng))
            .collect();
        let correct: Vec<u32> = [0usize, 2, 3].iter().map(|&j| g[j].inner).collect();
        assert!(
            correct.iter().all(|&v| v == correct[0]),
            "round {round}: correct processes disagree: {correct:?}"
        );
        if let Some(prev) = correct_value {
            assert_eq!(correct[0], (prev + 1) % 12, "round {round}: lockstep broke");
        }
        correct_value = Some(correct[0]);
        assert!(!g[1].good && !g[4].good);
    }
}

#[test]
fn adversarial_interleaving_keeps_counters_out_of_agreement() {
    // The same rule under *asynchronous* interleaving: processes step one
    // at a time against a drifting state, and a round-robin schedule keeps
    // them out of agreement indefinitely — the gap between consistent-
    // snapshot synchrony (free on this engine) and the Lenzen–Rybicki
    // problem of achieving it self-stabilizingly.
    let p = SyncCount::new(4, 4);
    let mut rng = SimRng::seed_from_u64(0);
    let mut g: Vec<u32> = vec![0, 0, 2, 2];
    for step in 0..32 {
        let j = step % 4;
        g[j] = p.execute(&g, j, 0, &mut rng);
        assert!(
            !g.iter().all(|&v| v == g[0]),
            "step {step}: interleaved stepping happened to agree: {g:?}"
        );
    }
    // …while one synchronous round from the very same start agrees at once.
    let sync = sync_round(&p, &[0, 0, 2, 2]);
    assert!(sync.iter().all(|&v| v == sync[0]));
}

#[test]
fn synccount_schedulers_are_byte_identical() {
    check_protocol_scheduler_differential("synccount", &SyncCount::new(8, 16), 0x51C, 12.0);
}
