//! The fault-tolerant tree barrier.
//!
//! Participants form a k-ary combining tree (participant 0 at the root).
//! One barrier crossing is one *epoch*:
//!
//! 1. **Arrival sweep** (leaf → root): a participant waits until all of its
//!    children's slots carry the current epoch, ORs their verdicts into its
//!    own, and publishes its slot. This is §4.1's token sweep carrying the
//!    `success`-or-`repeat` verdict.
//! 2. **Release** (root → everyone): the root turns the aggregate verdict
//!    into an outcome per the [`FailurePolicy`], stamps the new phase, and
//!    publishes an epoch-stamped release word that every participant spins
//!    on.
//!
//! Every shared word is a [`CheckedWord`]: detectable corruption repairs
//! from the shadow; forged-but-well-formed words are bounded by the epoch
//! discipline (a participant only acts on *exactly* its own epoch).
//!
//! # What a fault-free crossing costs
//!
//! No allocation, no clock read (unless a deadline was asked for), no
//! reference-count update, and no lock that two participants take. A
//! participant writes its own flight-recorder lane (no lock at all) and
//! locks the shadow of the word it publishes (its slot; for the root, the
//! phase and release words); it reads its children's slot words and
//! recorder words, and the release, phase and break words. Everything else
//! it touches is its own. Another participant's shadow is locked only to
//! repair a corrupted word; a dump reads the lanes without locking them.

use crate::flight::{self, Deps, Flight};
use crate::policy::FailurePolicy;
use crate::wait::WaitPolicy;
use crate::word::CheckedWord;
use crate::{lock, CachePadded};
use ftbarrier_telemetry::CausalRecorder;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Slot payloads.
const EMPTY: u8 = 0;
const ARRIVED_OK: u8 = 1;
const ARRIVED_FAILED: u8 = 2;

/// Release payloads.
const ADVANCE: u8 = 1;
const REPEAT: u8 = 2;
const BROKEN: u8 = 3;

/// What a completed barrier crossing tells the caller to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseOutcome {
    /// Every participant completed the phase: proceed to `phase`.
    Advance { phase: u64 },
    /// A participant reported a detectable fault: re-execute `phase`.
    Repeat { phase: u64 },
}

impl PhaseOutcome {
    pub fn phase(self) -> u64 {
        match self {
            PhaseOutcome::Advance { phase } | PhaseOutcome::Repeat { phase } => phase,
        }
    }

    pub fn is_advance(self) -> bool {
        matches!(self, PhaseOutcome::Advance { .. })
    }
}

/// Barrier failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierError {
    /// An uncorrectable fault was reported under
    /// [`FailurePolicy::FailSafe`]: the barrier is permanently broken and
    /// will never (incorrectly) report completion again.
    Broken,
    /// The caller violated the enter/leave protocol (double `enter`,
    /// `leave` without `enter`). Returned instead of panicking so one
    /// confused participant degrades gracefully rather than cascading a
    /// panic across the process group; the participant's own state is left
    /// untouched and a correct retry may proceed.
    Misuse(&'static str),
}

impl std::fmt::Display for BarrierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BarrierError::Broken => {
                write!(f, "barrier permanently broken by an uncorrectable fault")
            }
            BarrierError::Misuse(what) => write!(f, "barrier protocol misuse: {what}"),
        }
    }
}

impl std::error::Error for BarrierError {}

/// Children of participant `i` in the `arity`-ary tree over `0..n`.
pub(crate) fn children(n: usize, arity: usize, i: usize) -> impl Iterator<Item = usize> {
    let first = arity * i + 1;
    (first..first + arity).take_while(move |&c| c < n)
}

struct Shared {
    n: usize,
    arity: usize,
    policy: FailurePolicy,
    wait: WaitPolicy,
    slots: Vec<CachePadded<CheckedWord>>,
    release: CachePadded<CheckedWord>,
    /// Epoch field carries the current phase number.
    phase_word: CachePadded<CheckedWord>,
    broken: AtomicBool,
    /// Always-on causal flight recorder: arrivals, releases, and timeout
    /// detections of every participant, each in its own bounded ring.
    recorder: Flight,
    /// The most recent wedge dump (written by a firing fail-stop detector).
    flight: Mutex<Option<String>>,
}

impl Shared {
    /// Re-publish the root's last release (and the phase word it covers) if
    /// an undetectable fault overwrote either with a different well-formed
    /// word. Phase first, release second — same order as the original
    /// publish, so a waiter that sees the release also sees its phase.
    fn reassert_root(&self, epoch: u64, outcome: u8, phase: u64) {
        if self.phase_word.load() != (phase, 0) {
            self.phase_word.store(phase, 0);
        }
        if self.release.load() != (epoch, outcome) {
            self.release.store(epoch, outcome);
        }
    }

    /// Re-publish participant `id`'s arrival if a fault erased it before
    /// the parent consumed it.
    fn reassert_slot(&self, id: usize, epoch: u64, payload: u8) {
        if self.slots[id].load() != (epoch, payload) {
            self.slots[id].store(epoch, payload);
        }
    }

    /// Dump the flight recorder as `kind`, blaming the silent participant.
    fn flight_json(&self, kind: &str, reason: &str) -> String {
        self.recorder
            .snapshot()
            .to_flight_json("ft_barrier", self.n, kind, reason)
    }
}

/// How a parent's wait for one child's arrival ended.
enum ChildWait {
    Arrived(u8),
    Broken,
    TimedOut,
}

/// Targets for fault injection (see [`FtBarrier::corrupt`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptTarget {
    /// A participant's arrival slot.
    Slot(usize),
    /// The root's release word.
    Release,
    /// The phase word.
    Phase,
}

/// Handle to a barrier: inspection and fault injection. Cloneable.
#[derive(Clone)]
pub struct FtBarrier {
    shared: Arc<Shared>,
}

/// A participant's capability to cross the barrier. One per thread; obtain
/// from [`FtBarrierBuilder::build`].
pub struct Participant {
    shared: Arc<Shared>,
    id: usize,
    /// Next epoch to use (starts at 1; slot/release words start at epoch 0).
    epoch: u64,
    /// Current phase. The root's copy is authoritative.
    phase: u64,
    /// Fuzzy-barrier state: outcome pending between `enter` and `leave`
    /// (root only — it computes the outcome at publish time).
    pending_root: Option<(u8, u64)>,
    /// Root only: the last published `(epoch, outcome, phase)`. The root
    /// re-asserts these words whenever it waits (and on [`reassert`]), so a
    /// forged-but-well-formed overwrite of a release a waiter has not yet
    /// observed is transient rather than a permanent wedge.
    ///
    /// [`reassert`]: Participant::reassert
    published_root: Option<(u64, u8, u64)>,
    /// Non-root only: the last published `(epoch, payload)` arrival,
    /// re-asserted while waiting for the matching release.
    published_slot: Option<(u64, u8)>,
    /// The recorder events this crossing's arrival depends on, one per
    /// child consumed (or the release a departure observed); allocated
    /// once, for all the children.
    deps: Deps,
    entered: bool,
    broken: bool,
}

/// Builder for an [`FtBarrier`].
#[derive(Debug, Clone)]
pub struct FtBarrierBuilder {
    n: usize,
    arity: usize,
    policy: FailurePolicy,
    flight_capacity: usize,
}

impl FtBarrierBuilder {
    pub fn new(n: usize) -> FtBarrierBuilder {
        FtBarrierBuilder {
            n,
            arity: 2,
            policy: FailurePolicy::Tolerate,
            flight_capacity: 8192,
        }
    }

    /// Tree arity (default 2 — the paper's binary tree, h = log₂N).
    pub fn arity(mut self, arity: usize) -> FtBarrierBuilder {
        assert!(arity >= 1);
        self.arity = arity;
        self
    }

    pub fn policy(mut self, policy: FailurePolicy) -> FtBarrierBuilder {
        self.policy = policy;
        self
    }

    /// Capacity of the always-on causal flight recorder (default 8192
    /// recent events, shared out evenly among the participants' lanes;
    /// older ones are evicted and counted).
    pub fn flight_capacity(mut self, capacity: usize) -> FtBarrierBuilder {
        self.flight_capacity = capacity;
        self
    }

    pub fn build(self) -> (FtBarrier, Vec<Participant>) {
        assert!(self.n >= 1, "a barrier needs at least one participant");
        let (n, arity) = (self.n, self.arity);
        let shared = Arc::new(Shared {
            n,
            arity,
            policy: self.policy,
            wait: WaitPolicy::observe(n),
            slots: (0..n)
                .map(|_| CachePadded(CheckedWord::new(0, EMPTY)))
                .collect(),
            release: CachePadded(CheckedWord::new(0, ADVANCE)),
            phase_word: CachePadded(CheckedWord::new(0, 0)),
            broken: AtomicBool::new(false),
            recorder: Flight(CausalRecorder::bounded(n, self.flight_capacity)),
            flight: Mutex::new(None),
        });
        let participants = (0..n)
            .map(|id| Participant {
                shared: Arc::clone(&shared),
                id,
                epoch: 1,
                phase: 0,
                pending_root: None,
                published_root: None,
                published_slot: None,
                deps: Deps::with_capacity(children(n, arity, id).count().max(1)),
                entered: false,
                broken: false,
            })
            .collect();
        (FtBarrier { shared }, participants)
    }
}

impl FtBarrier {
    /// Shorthand for the default builder.
    pub fn new(n: usize) -> (FtBarrier, Vec<Participant>) {
        FtBarrierBuilder::new(n).build()
    }

    pub fn num_participants(&self) -> usize {
        self.shared.n
    }

    /// Height of the arrival tree.
    pub fn height(&self) -> usize {
        let mut h = 0;
        let mut i = self.shared.n.saturating_sub(1);
        while i > 0 {
            i = (i - 1) / self.shared.arity;
            h += 1;
        }
        h
    }

    /// Whether a fail-safe break has occurred.
    pub fn is_broken(&self) -> bool {
        self.shared.broken.load(Ordering::Acquire)
    }

    /// The phase most recently published by the root.
    pub fn published_phase(&self) -> u64 {
        self.shared.phase_word.load().0
    }

    /// The wedge dump most recently written by a firing fail-stop detector
    /// ([`Participant::arrive_timeout`]), if any. Taking it clears the
    /// slot; the next detection writes a fresh dump.
    pub fn take_flight_dump(&self) -> Option<String> {
        lock(&self.shared.flight).take()
    }

    /// Dump the flight recorder's current contents on demand (for a
    /// watchdog outside the barrier, or post-mortem inspection).
    pub fn flight_snapshot(&self, reason: &str) -> String {
        self.shared.flight_json("snapshot", reason)
    }

    /// Fault injection: scribble a raw value over one of the barrier's
    /// shared words, exactly as memory corruption would (bypassing the
    /// shadow). Ill-formed values are detected and repaired by the next
    /// reader; well-formed forgeries exercise the stabilizing path.
    pub fn corrupt(&self, target: CorruptTarget, raw: u64) {
        match target {
            CorruptTarget::Slot(i) => self.shared.slots[i].corrupt(raw),
            CorruptTarget::Release => self.shared.release.corrupt(raw),
            CorruptTarget::Phase => self.shared.phase_word.corrupt(raw),
        }
    }
}

impl Participant {
    pub fn id(&self) -> usize {
        self.id
    }

    /// The participant's current phase number.
    pub fn phase(&self) -> u64 {
        self.phase
    }

    /// Cross the barrier, reporting successful completion of the phase body.
    pub fn arrive(&mut self) -> Result<PhaseOutcome, BarrierError> {
        self.enter(true)?;
        self.leave()
    }

    /// Cross the barrier, reporting that this participant's phase body hit a
    /// detectable fault (exception, I/O error, lost message, …). Under
    /// [`FailurePolicy::Tolerate`] everyone will get
    /// [`PhaseOutcome::Repeat`].
    pub fn arrive_failed(&mut self) -> Result<PhaseOutcome, BarrierError> {
        self.enter(false)?;
        self.leave()
    }

    /// Cross the barrier with a fail-stop detector: if some subtree fails to
    /// arrive within `deadline`, treat the missing participants as
    /// detectably faulted (the timeout *is* the detection mechanism the
    /// paper's fail-stop class presumes). Under
    /// [`FailurePolicy::Tolerate`] everyone then gets
    /// [`PhaseOutcome::Repeat`]; a late straggler resynchronizes through the
    /// epoch discipline on its next crossing.
    ///
    /// The root's release is still awaited unconditionally: a crashed *root*
    /// is outside this detector's scope (the paper's process 0 is equally
    /// distinguished; restart it to make the fault eventually correctable).
    pub fn arrive_timeout(&mut self, deadline: Duration) -> Result<PhaseOutcome, BarrierError> {
        self.enter_with_timeout(true, Some(deadline))?;
        self.leave()
    }

    /// Fuzzy barrier, first half (§8: "the transition from execute to
    /// success is the same as entering the barrier"): publish this
    /// participant's arrival and verdict. After `enter`, the caller may do
    /// useful work that needs no synchronization, then call [`leave`].
    ///
    /// Note: an interior tree node's `enter` waits for its subtree's
    /// arrivals; leaves never block here.
    ///
    /// [`leave`]: Participant::leave
    pub fn enter(&mut self, ok: bool) -> Result<(), BarrierError> {
        self.enter_with_timeout(ok, None)
    }

    fn enter_with_timeout(
        &mut self,
        ok: bool,
        deadline: Option<Duration>,
    ) -> Result<(), BarrierError> {
        if self.broken || self.shared.broken.load(Ordering::Acquire) {
            self.broken = true;
            return Err(BarrierError::Broken);
        }
        if self.entered {
            return Err(BarrierError::Misuse("enter() called twice without leave()"));
        }
        let shared = &*self.shared;
        // The only clock this crossing reads; a deadline too far off to
        // represent is no deadline.
        let give_up_at = deadline.and_then(|d| Instant::now().checked_add(d));
        let e = self.epoch;
        let mut failed = !ok;
        // Happens-before edges into this crossing's arrival: the latest
        // event of each child whose slot we consumed.
        self.deps.clear();
        let published_root = self.published_root;
        for c in children(shared.n, shared.arity, self.id) {
            let waited = shared.wait.until(|| {
                let (ce, payload) = shared.slots[c].load();
                if ce == e && payload != EMPTY {
                    return Some(ChildWait::Arrived(payload));
                }
                if shared.broken.load(Ordering::Acquire) {
                    return Some(ChildWait::Broken);
                }
                if give_up_at.is_some_and(|at| Instant::now() >= at) {
                    return Some(ChildWait::TimedOut);
                }
                // A missing child may itself be stuck on the previous
                // release if a fault erased it after we published; keep the
                // last publication asserted while we wait.
                if let Some((pe, outcome, phase)) = published_root {
                    shared.reassert_root(pe, outcome, phase);
                }
                None
            });
            match waited {
                ChildWait::Arrived(payload) => {
                    failed |= payload != ARRIVED_OK;
                    self.deps.push(shared.recorder.last(c, e));
                }
                ChildWait::Broken => {
                    self.broken = true;
                    return Err(BarrierError::Broken);
                }
                ChildWait::TimedOut => {
                    // Fail-stop detected: the missing subtree counts as a
                    // detectable fault. Dump the flight recorder — the
                    // silent subtree's causal trail ends exactly at the
                    // culpable participants.
                    failed = true;
                    shared
                        .recorder
                        .record(self.id, flight::TIMEOUT, e, self.phase, &mut self.deps);
                    *lock(&shared.flight) = Some(shared.flight_json("wedge", "arrive-timeout"));
                    break;
                }
            }
        }
        // Record before publishing, so whoever consumes the publication
        // (the parent this arrival, a waiter the root's release) sees the
        // event as this participant's latest.
        let step = if failed {
            flight::ARRIVE_FAILED
        } else {
            flight::ARRIVE
        };
        shared
            .recorder
            .record(self.id, step, e, self.phase, &mut self.deps);
        if self.id == 0 {
            self.root_publish(e, failed);
        } else {
            let payload = if failed { ARRIVED_FAILED } else { ARRIVED_OK };
            shared.slots[self.id].store(e, payload);
            self.published_slot = Some((e, payload));
        }
        self.entered = true;
        Ok(())
    }

    fn root_publish(&mut self, epoch: u64, failed: bool) {
        let outcome = if !failed {
            ADVANCE
        } else {
            match self.shared.policy {
                FailurePolicy::Tolerate => REPEAT,
                FailurePolicy::FailSafe => BROKEN,
                FailurePolicy::Abort => {
                    // MPI's first alternative.
                    std::process::abort();
                }
            }
        };
        let new_phase = if outcome == ADVANCE {
            self.phase + 1
        } else {
            self.phase
        };
        if outcome == BROKEN {
            self.shared.broken.store(true, Ordering::Release);
        }
        // Recorded before it is published, like the arrival.
        self.deps.clear();
        self.shared
            .recorder
            .record(0, flight::RELEASE, epoch, new_phase, &mut self.deps);
        // Publish the phase before the release that covers it.
        self.shared.phase_word.store(new_phase, 0);
        self.shared.release.store(epoch, outcome);
        self.pending_root = Some((outcome, new_phase));
        self.published_root = Some((epoch, outcome, new_phase));
    }

    /// Fuzzy barrier, second half: wait for the release and learn the
    /// outcome.
    pub fn leave(&mut self) -> Result<PhaseOutcome, BarrierError> {
        if !self.entered {
            return Err(BarrierError::Misuse("leave() without enter()"));
        }
        let e = self.epoch;
        let (outcome, phase) = if let Some(pending) = self.pending_root.take() {
            // The root computed the outcome itself; its copy is
            // authoritative (immune to phase-word forgery).
            pending
        } else {
            let shared = &*self.shared;
            let (id, published_slot) = (self.id, self.published_slot);
            let outcome = shared.wait.until(|| {
                let (re, o) = shared.release.load();
                if re == e {
                    return Some(o);
                }
                // The fail-safe break flag is authoritative even if the
                // BROKEN release word itself was erased by a fault (the
                // root returns an error and never re-asserts it).
                if shared.broken.load(Ordering::Acquire) {
                    return Some(BROKEN);
                }
                // Keep our arrival asserted: a fault that erased the slot
                // before the parent consumed it would otherwise stall the
                // sweep — and this release — forever.
                if let Some((se, payload)) = published_slot {
                    shared.reassert_slot(id, se, payload);
                }
                None
            });
            let (phase, _) = shared.phase_word.load();
            // The observed release happens-before this departure.
            self.deps.clear();
            self.deps.push(shared.recorder.last(0, e));
            shared
                .recorder
                .record(id, flight::LEAVE, e, phase, &mut self.deps);
            (outcome, phase)
        };
        self.epoch += 1;
        self.entered = false;
        match outcome {
            ADVANCE => {
                self.phase = phase;
                Ok(PhaseOutcome::Advance { phase })
            }
            BROKEN if self.shared.policy == FailurePolicy::FailSafe => {
                self.broken = true;
                Err(BarrierError::Broken)
            }
            // REPEAT — and, under Tolerate, any forged payload degrades to a
            // (safe) repeat rather than a spurious break.
            _ => {
                self.phase = phase;
                Ok(PhaseOutcome::Repeat { phase })
            }
        }
    }

    /// Re-assert this participant's most recent publications against
    /// undetectable overwrites. The waiting loops do this automatically; a
    /// caller whose *final* crossing's release may not yet have been
    /// observed by every other participant (after which this participant
    /// stops crossing, so nothing would re-assert it) should keep calling
    /// this until the others have finished — see the drain in
    /// [`run_phases_observed`](crate::scope::run_phases_observed).
    pub fn reassert(&self) {
        if let Some((epoch, outcome, phase)) = self.published_root {
            self.shared.reassert_root(epoch, outcome, phase);
        }
        if let Some((epoch, payload)) = self.published_slot {
            self.shared.reassert_slot(self.id, epoch, payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn run_threads<F>(participants: Vec<Participant>, f: F)
    where
        F: Fn(Participant) + Send + Sync + Clone + 'static,
    {
        let handles: Vec<_> = participants
            .into_iter()
            .map(|p| {
                let f = f.clone();
                std::thread::spawn(move || f(p))
            })
            .collect();
        for h in handles {
            h.join().expect("participant thread panicked");
        }
    }

    #[test]
    fn phases_advance_in_lockstep() {
        for n in [1usize, 2, 3, 8, 17] {
            let (_b, parts) = FtBarrier::new(n);
            let counters: Arc<Vec<AtomicU64>> =
                Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
            let c = Arc::clone(&counters);
            run_threads(parts, move |mut p| {
                for expected in 1..=50u64 {
                    c[p.id()].fetch_add(1, Ordering::SeqCst);
                    let out = p.arrive().unwrap();
                    assert_eq!(out, PhaseOutcome::Advance { phase: expected });
                    // After the barrier, everyone has done `expected` units.
                    for q in c.iter() {
                        assert!(q.load(Ordering::SeqCst) >= expected);
                    }
                }
            });
            for q in counters.iter() {
                assert_eq!(q.load(Ordering::SeqCst), 50);
            }
        }
    }

    #[test]
    fn failed_arrival_repeats_the_phase_for_everyone() {
        let n = 6;
        let (_b, parts) = FtBarrier::new(n);
        run_threads(parts, move |mut p| {
            // Phase 0: participant 3 fails on the first attempt.
            let first = if p.id() == 3 {
                p.arrive_failed().unwrap()
            } else {
                p.arrive().unwrap()
            };
            assert_eq!(
                first,
                PhaseOutcome::Repeat { phase: 0 },
                "everyone must re-execute phase 0"
            );
            // Retry succeeds.
            let second = p.arrive().unwrap();
            assert_eq!(second, PhaseOutcome::Advance { phase: 1 });
        });
    }

    #[test]
    fn flaky_workload_converges() {
        // Each phase fails at a rotating participant on the first attempt;
        // total work executed per phase must still be exactly once per
        // *successful* instance.
        let n = 4;
        let (_b, parts) = FtBarrier::new(n);
        let committed: Arc<Vec<AtomicU64>> = Arc::new((0..10).map(|_| AtomicU64::new(0)).collect());
        let c = Arc::clone(&committed);
        run_threads(parts, move |mut p| {
            let mut attempts_this_phase = 0;
            loop {
                let phase = p.phase();
                if phase >= 10 {
                    break;
                }
                attempts_this_phase += 1;
                let faulty = (phase as usize % n) == p.id() && attempts_this_phase == 1;
                let out = if faulty {
                    p.arrive_failed().unwrap()
                } else {
                    p.arrive().unwrap()
                };
                if out.is_advance() {
                    // The phase committed exactly once.
                    c[phase as usize].fetch_add(1, Ordering::SeqCst);
                    attempts_this_phase = 0;
                }
            }
        });
        for (i, q) in committed.iter().enumerate() {
            assert_eq!(q.load(Ordering::SeqCst), n as u64, "phase {i}");
        }
    }

    #[test]
    fn failsafe_breaks_permanently() {
        let n = 4;
        let (b, parts) = FtBarrierBuilder::new(n)
            .policy(FailurePolicy::FailSafe)
            .build();
        run_threads(parts, move |mut p| {
            let r = if p.id() == 2 {
                p.arrive_failed()
            } else {
                p.arrive()
            };
            assert_eq!(r, Err(BarrierError::Broken));
            // And it stays broken.
            assert_eq!(p.arrive(), Err(BarrierError::Broken));
        });
        assert!(b.is_broken());
    }

    #[test]
    fn detectable_corruption_is_repaired_transparently() {
        let n = 8;
        let (b, parts) = FtBarrier::new(n);
        let stop = Arc::new(AtomicBool::new(false));
        let corruptor = {
            let stop = Arc::clone(&stop);
            let b = b.clone();
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Acquire) {
                    // Ill-formed scribbles only (detectable).
                    let mut raw = i.wrapping_mul(0x1234_5678_9ABC_DEF1) | 1;
                    if crate::word::unpack(raw).is_some() {
                        raw ^= 0xFF;
                    }
                    match i % 3 {
                        0 => b.corrupt(CorruptTarget::Slot((i % n as u64) as usize), raw),
                        1 => b.corrupt(CorruptTarget::Release, raw),
                        _ => b.corrupt(CorruptTarget::Phase, raw),
                    }
                    i += 1;
                    std::thread::yield_now();
                }
            })
        };
        run_threads(parts, move |mut p| {
            let mut advanced = 0;
            while advanced < 30 {
                if p.arrive().unwrap().is_advance() {
                    advanced += 1;
                }
            }
        });
        stop.store(true, Ordering::Release);
        corruptor.join().unwrap();
    }

    #[test]
    fn forged_slot_resynchronizes_within_bounded_phases() {
        // Undetectable corruption: forge participant 1's arrival for the
        // current epoch while it is slow. The barrier may complete one phase
        // early, then must resynchronize.
        let n = 2;
        let (b, mut parts) = FtBarrier::new(n);
        let p1 = parts.pop().unwrap();
        let mut p0 = parts.pop().unwrap();

        // Forge p1's arrival for epoch 1.
        b.corrupt(CorruptTarget::Slot(1), crate::word::pack(1, ARRIVED_OK));
        // p0 sails through epoch 1 without p1 — the incorrect phase.
        let out = p0.arrive().unwrap();
        assert_eq!(out, PhaseOutcome::Advance { phase: 1 });

        // p1 now arrives for epoch 1: its slot write is absorbed, it reads
        // the epoch-1 release, and both proceed in lockstep afterwards. p1
        // crosses once more than p0 from here on, because p0 already
        // consumed epoch 1 on the forged arrival.
        let h = std::thread::spawn(move || {
            let mut p1 = p1;
            for _ in 0..6 {
                p1.arrive().unwrap();
            }
            p1.phase()
        });
        let mut last = 0;
        for _ in 0..5 {
            last = p0.arrive().unwrap().phase();
        }
        let p1_phase = h.join().unwrap();
        assert_eq!(last, 6);
        assert_eq!(p1_phase, 6, "participants resynchronize after the forgery");
    }

    /// Pinned by the corruption campaign: a well-formed *erasure* of the
    /// release word (overwriting it with a stale epoch) after the root
    /// published it but before a waiter read it used to wedge the waiter
    /// forever — nothing ever re-published the release. The root now
    /// re-asserts its last publication while it waits for the next epoch's
    /// arrivals.
    #[test]
    fn forged_release_erasure_does_not_wedge() {
        let n = 2;
        let (b, mut parts) = FtBarrier::new(n);
        let p1 = parts.pop().unwrap();
        let mut p0 = parts.pop().unwrap();

        // Forge p1's arrival so the root completes epoch 1 alone…
        b.corrupt(CorruptTarget::Slot(1), crate::word::pack(1, ARRIVED_OK));
        assert_eq!(p0.arrive().unwrap(), PhaseOutcome::Advance { phase: 1 });
        // …then erase the release p1 has not yet observed.
        b.corrupt(CorruptTarget::Release, crate::word::pack(0, ADVANCE));

        // p1 crosses twice: epoch 1 (spinning on the erased release until
        // the root's next child-wait re-asserts it) and epoch 2 in lockstep.
        let h = std::thread::spawn(move || {
            let mut p1 = p1;
            let first = p1.arrive().unwrap();
            let second = p1.arrive().unwrap();
            (first, second)
        });
        assert_eq!(p0.arrive().unwrap(), PhaseOutcome::Advance { phase: 2 });
        let (first, second) = h.join().unwrap();
        assert_eq!(first, PhaseOutcome::Advance { phase: 1 });
        assert_eq!(second, PhaseOutcome::Advance { phase: 2 });
    }

    /// Pinned by the corruption campaign: a well-formed erasure of a
    /// participant's arrival slot (back to an EMPTY stale epoch) before the
    /// parent consumed it used to stall the sweep forever. The participant
    /// now re-asserts its arrival while it waits for the release.
    #[test]
    fn forged_slot_erasure_does_not_wedge() {
        let n = 2;
        let (b, mut parts) = FtBarrier::new(n);
        let p1 = parts.pop().unwrap();
        let mut p0 = parts.pop().unwrap();

        let arrived = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&arrived);
        let h = std::thread::spawn(move || {
            let mut p1 = p1;
            p1.enter(true).unwrap();
            flag.store(true, Ordering::Release);
            p1.leave().unwrap()
        });
        // Wait for p1's arrival to be published, then erase it before the
        // root has looked at it.
        while !arrived.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        b.corrupt(CorruptTarget::Slot(1), crate::word::pack(0, EMPTY));
        // The root still completes: p1's release-wait re-asserts the slot.
        assert_eq!(p0.arrive().unwrap(), PhaseOutcome::Advance { phase: 1 });
        assert_eq!(h.join().unwrap(), PhaseOutcome::Advance { phase: 1 });
    }

    /// After a participant's *final* crossing nothing re-asserts its last
    /// publication automatically — that is what [`Participant::reassert`]
    /// is for (the scoped driver drains a run with it).
    #[test]
    fn reassert_unwedges_a_waiter_after_the_final_crossing() {
        let (b, mut parts) = FtBarrier::new(2);
        let p1 = parts.pop().unwrap();
        let mut p0 = parts.pop().unwrap();

        // The root's final crossing completes alone over a forged arrival,
        // and its release is then erased before p1 ever ran.
        b.corrupt(CorruptTarget::Slot(1), crate::word::pack(1, ARRIVED_OK));
        assert_eq!(p0.arrive().unwrap(), PhaseOutcome::Advance { phase: 1 });
        b.corrupt(CorruptTarget::Release, crate::word::pack(0, ADVANCE));

        let h = std::thread::spawn(move || {
            let mut p1 = p1;
            p1.arrive().unwrap()
        });
        // p1 is wedged on the erased release until the finished root
        // re-asserts it.
        while !h.is_finished() {
            p0.reassert();
            std::thread::yield_now();
        }
        assert_eq!(h.join().unwrap(), PhaseOutcome::Advance { phase: 1 });
    }

    #[test]
    fn fuzzy_enter_leave_overlap() {
        let n = 4;
        let (_b, parts) = FtBarrier::new(n);
        let overlap_work: Arc<Vec<AtomicU64>> =
            Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let w = Arc::clone(&overlap_work);
        run_threads(parts, move |mut p| {
            for _ in 0..20 {
                p.enter(true).unwrap();
                // Useful work between entering and leaving (§8).
                w[p.id()].fetch_add(1, Ordering::SeqCst);
                let out = p.leave().unwrap();
                assert!(out.is_advance());
            }
        });
        for q in overlap_work.iter() {
            assert_eq!(q.load(Ordering::SeqCst), 20);
        }
    }

    #[test]
    fn single_participant_degenerate_case() {
        let (_b, mut parts) = FtBarrier::new(1);
        let mut p = parts.pop().unwrap();
        assert_eq!(p.arrive().unwrap(), PhaseOutcome::Advance { phase: 1 });
        assert_eq!(
            p.arrive_failed().unwrap(),
            PhaseOutcome::Repeat { phase: 1 }
        );
        assert_eq!(p.arrive().unwrap(), PhaseOutcome::Advance { phase: 2 });
    }

    #[test]
    fn wide_arity_tree() {
        let (b, parts) = FtBarrierBuilder::new(16).arity(4).build();
        assert_eq!(b.height(), 2);
        run_threads(parts, move |mut p| {
            for i in 1..=10 {
                assert_eq!(p.arrive().unwrap().phase(), i);
            }
        });
    }

    #[test]
    fn published_phase_tracks_root() {
        let (b, parts) = FtBarrier::new(3);
        run_threads(parts, |mut p| {
            for _ in 0..7 {
                p.arrive().unwrap();
            }
        });
        assert_eq!(b.published_phase(), 7);
        assert_eq!(b.num_participants(), 3);
    }

    #[test]
    fn timeout_detects_straggler_and_resynchronizes() {
        use std::time::Duration;
        let n = 2;
        let (_b, mut parts) = FtBarrier::new(n);
        let p1 = parts.pop().unwrap();
        let mut p0 = parts.pop().unwrap();

        // p1 is wedged; p0's detector fires and the phase repeats.
        let out = p0.arrive_timeout(Duration::from_millis(50)).unwrap();
        assert_eq!(out, PhaseOutcome::Repeat { phase: 0 });

        // p1 comes back (fail-stop was transient). It consumes the epoch-1
        // release (Repeat) and both cross epochs in lockstep afterwards.
        let h = std::thread::spawn(move || {
            let mut p1 = p1;
            let first = p1.arrive().unwrap();
            assert_eq!(first, PhaseOutcome::Repeat { phase: 0 });
            for _ in 0..4 {
                p1.arrive().unwrap();
            }
            p1.phase()
        });
        let mut last = 0;
        for _ in 0..4 {
            last = p0.arrive_timeout(Duration::from_secs(5)).unwrap().phase();
        }
        assert_eq!(h.join().unwrap(), 4);
        assert_eq!(last, 4);
    }

    /// Pinned: a wedged crossing must leave behind a replayable flight
    /// dump whose causal graph ends at the participant that never arrived.
    #[test]
    fn wedged_crossing_dumps_a_flight_record_blaming_the_missing_participant() {
        use ftbarrier_telemetry::FlightDump;
        use std::time::Duration;
        let (b, mut parts) = FtBarrier::new(2);
        let p1 = parts.pop().unwrap();
        let mut p0 = parts.pop().unwrap();

        // p1 never arrives; p0's fail-stop detector fires and writes a dump.
        let out = p0.arrive_timeout(Duration::from_millis(50)).unwrap();
        assert_eq!(out, PhaseOutcome::Repeat { phase: 0 });

        let dump = b
            .take_flight_dump()
            .expect("a firing fail-stop detector writes a flight dump");
        let parsed = FlightDump::parse(&dump).expect("flight dump parses");
        parsed.replay().expect("flight dump replays consistently");
        assert_eq!(parsed.program, "ft_barrier");
        assert_eq!(parsed.kind, "wedge");
        assert_eq!(parsed.reason, "arrive-timeout");
        assert_eq!(parsed.n, 2);
        // The silent participant recorded nothing: blame lands on it.
        assert_eq!(parsed.blamed, Some(1));
        assert!(parsed.graph.events.iter().all(|ev| ev.id.pid != 1));
        // The detector's own trail ends with the timeout detection.
        let last0 = parsed
            .graph
            .events
            .iter()
            .rev()
            .find(|ev| ev.id.pid == 0)
            .expect("the detector recorded its side of the wedge");
        assert_eq!(last0.label, "fault:timeout");
        // The dump is one-shot until the next detection fires.
        assert!(b.take_flight_dump().is_none());

        // The straggler comes back: healthy crossings write no new dump,
        // and the on-demand snapshot still renders the whole history.
        let h = std::thread::spawn(move || {
            let mut p1 = p1;
            p1.arrive().unwrap();
            p1.arrive().unwrap()
        });
        assert_eq!(
            p0.arrive_timeout(Duration::from_secs(5)).unwrap(),
            PhaseOutcome::Advance { phase: 1 }
        );
        assert!(h.join().unwrap().is_advance());
        assert!(b.take_flight_dump().is_none());
        let snap = FlightDump::parse(&b.flight_snapshot("inspect")).unwrap();
        snap.replay().unwrap();
        assert!(snap.graph.events.iter().any(|ev| ev.id.pid == 1));
    }

    /// The recorder keeps one lane per participant and stamps events with
    /// the crossing they belong to, so timestamps tie across participants
    /// all the time: a snapshot must still put every consumed arrival before
    /// the parent's own, and the release before every departure.
    #[test]
    fn snapshot_merges_the_rings_predecessors_first_and_sums_their_drops() {
        use ftbarrier_telemetry::FlightDump;
        // 12 events in all: 4 per lane, i.e. each participant's last two
        // crossings (arrive + release on the root, arrive + leave elsewhere).
        let (b, parts) = FtBarrierBuilder::new(3).flight_capacity(12).build();
        run_threads(parts, |mut p| {
            for _ in 0..10 {
                p.arrive().unwrap();
            }
        });
        let snap = FlightDump::parse(&b.flight_snapshot("inspect")).expect("snapshot parses");
        snap.replay().expect("predecessors precede successors");
        assert_eq!(snap.graph.events.len(), 12);
        assert_eq!(snap.dropped, 3 * (20 - 4), "the sum over the lanes");
        let position = |pid: u32, label: &str, at: f64| {
            snap.graph
                .events
                .iter()
                .position(|ev| ev.id.pid == pid && ev.label == label && ev.at == at)
                .unwrap_or_else(|| panic!("p{pid} {label} at {at} is in the snapshot"))
        };
        for crossing in [9.0, 10.0] {
            let arrived = position(0, "arrive", crossing);
            let released = position(0, "release", crossing);
            assert!(arrived < released);
            for child in [1, 2] {
                assert!(position(child, "arrive", crossing) < arrived);
                assert!(released < position(child, "leave", crossing));
            }
        }
    }

    #[test]
    fn protocol_misuse_is_a_typed_error_not_a_panic() {
        let (_b, mut parts) = FtBarrier::new(1);
        let p = &mut parts[0];
        // leave() before any enter() is a usage bug — reported, not a panic.
        assert!(matches!(p.leave(), Err(BarrierError::Misuse(_))));
        p.enter(true).unwrap();
        // Entering again without leave is equally a usage bug.
        assert!(matches!(p.enter(true), Err(BarrierError::Misuse(_))));
        // The participant is still healthy: the crossing completes normally.
        assert_eq!(p.leave().unwrap(), PhaseOutcome::Advance { phase: 1 });
        assert_eq!(p.arrive().unwrap(), PhaseOutcome::Advance { phase: 2 });
    }
}
