//! Timed maximal-parallelism engine (§6 semantics).
//!
//! The paper evaluates its programs under "maximum parallel semantics, i.e.,
//! time is computed in terms of steps, where in each step every process
//! executes one of its enabled actions unless all its actions are disabled",
//! with "a real-time value associated with each action to model the time
//! required to execute that action" (the SIEFAST model).
//!
//! This engine realizes that model as a discrete-event simulation:
//!
//! * An idle process whose guard holds **commits** to that action; the commit
//!   completes `cost(pid, action)` time later.
//! * At the commit time the guard must still hold against the then-current
//!   state, and the statement executes atomically; if the guard no longer
//!   holds the commit is dropped (counted in [`RunStats::commits_dropped`])
//!   and the process simply reschedules. In the paper's programs guards are
//!   *locally stable* — once process j holds the token only j can give it up —
//!   so drops occur only around fault hits, exactly where re-execution is the
//!   right model.
//! * All commits that complete at the same instant form one *maximal-parallel
//!   step*: each reads the pre-step state and writes its own post-state.
//! * Fault events from a [`FaultPlan`] interleave with commits in time order.
//!   A fault that strikes a process **aborts that process's in-flight
//!   action** (its state was just perturbed), which models a fault hitting a
//!   process mid-phase.
//!
//! # Engine internals: event-incremental scheduling
//!
//! A naive implementation rescans every guard and linearly scans every
//! pending commit after every event — O(n) work per event even though the
//! paper's programs only ever change a constant-size neighborhood. This
//! engine is incremental in both dimensions:
//!
//! * **Dirty-set scheduling.** [`Protocol::readers_of`] names, per writer,
//!   the processes whose guards read it; a writer that answers
//!   [`ReaderSet::All`] is read by every process, and only that writer's
//!   changes wake everyone — one word fill per scheduling pass, however
//!   many such writers change in it. The engine re-evaluates guards only
//!   for the *dirty set*: processes whose state changed since the last
//!   scheduling pass, plus their readers. This is sound because guard
//!   truth at an untouched process cannot change when no state it reads
//!   changed — an idle, non-dirty process provably has no enabled action,
//!   so skipping it is exact, not approximate. The dirty set is a bitset
//!   of `u64` words plus the list of words that hold a set bit; a
//!   scheduling pass sorts that short list and walks each word's bits from
//!   low to high, so dirty pids are visited in ascending pid order and the
//!   RNG consumes the identical stream the full rescan would (idle
//!   non-dirty pids never reach the nondeterministic choice), making both
//!   modes produce byte-identical runs.
//! * **Stale-only re-check.** A commit's guard is re-evaluated at maturity
//!   only if the commit is *stale*: some state its guard reads changed after
//!   it committed, which is exactly when a write, a [`Engine::set_state`] or
//!   a fault's touched pid reaches it through its writer's reader set. A
//!   commit nothing reached still reads the state its guard held on, so the
//!   guard provably still holds — the argument that lets the scheduler skip
//!   idle non-dirty pids. `enabled` is pure and draws no randomness, so the
//!   skip changes no run. The full rescan re-checks every commit and stays
//!   the reference; debug builds re-evaluate every skipped guard and assert
//!   that it holds.
//! * **Commit heap.** Pending commits live in a min-heap of one integer key
//!   per commit, `(time bits << 64) | pid`: a [`Time`] is finite,
//!   non-negative and never `-0.0`, so its bits order as its value does and
//!   the key orders as `(Time, Pid)`, equal times in ascending pid order.
//!   The heap uses *lazy invalidation*: aborting a commit (fault hit) just
//!   clears the per-process slot; stale heap entries are discarded when
//!   popped. Finding the next event is O(log n) instead of an O(n) scan.
//! * **No per-event snapshots.** Maximal-parallel steps read pre-step state
//!   by computing all updates *before* applying any (the statements only
//!   read `global` and write their own process), and the old state each
//!   monitor callback needs is recovered by swapping new states in — the
//!   engine never clones the global state vector. Fault observers get the
//!   victim's pre-fault state from [`FaultHit::old`], captured by the plan.
//! * **One guard pass per process.** Scheduling a process asks the
//!   protocol once for its whole enabled set
//!   ([`Protocol::enabled_actions`]) instead of evaluating each guard in
//!   turn, so a protocol with a fused pass (the sweep program reads its
//!   own lanes once and checks local conditions before its neighbours')
//!   pays for one neighbourhood load, not one per action. The reader sets
//!   are one flat compressed-row table (an offset array over a single
//!   `u32` pid array) filled from [`Protocol::readers_of`] once, not one
//!   heap `Vec` per process.
//! * **Static dispatch.** [`Engine::run`] is generic over its fault plan and
//!   its monitor, so a concrete observer (a pair of monitors, an optional
//!   one) is inlined into the loop; `&mut dyn` arguments still work.
//!
//! [`EngineConfig::full_rescan`] forces the reference O(n)-per-event
//! scheduler; the differential tests run both modes and assert identical
//! traces.
//!
//! [`FaultHit::old`]: crate::fault::FaultHit

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::fault::{FaultPlan, NoFaults};
use crate::monitor::{Monitor, NullMonitor};
use crate::protocol::{ActionId, Pid, Protocol, ReaderSet};
use crate::rng::SimRng;
use crate::stats::RunStats;
use crate::time::Time;

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No action enabled anywhere and no fault pending: a global fixpoint.
    Fixpoint,
    /// The configured time horizon was reached.
    MaxTime,
    /// The configured commit budget was exhausted.
    MaxCommits,
    /// A monitor requested the stop.
    MonitorStop,
}

/// Result of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    pub reason: StopReason,
    pub stats: RunStats,
}

#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Stop when simulation time reaches this horizon.
    pub max_time: Option<Time>,
    /// Stop after this many committed actions (guards against zero-cost
    /// livelock in buggy protocols).
    pub max_commits: Option<u64>,
    /// Force the reference scheduler that rescans every guard after every
    /// event and re-checks every commit at maturity. Produces
    /// byte-identical runs to the incremental scheduler; exists for
    /// differential tests and baseline benchmarks.
    pub full_rescan: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_time: None,
            max_commits: Some(100_000_000),
            full_rescan: false,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    action: ActionId,
    at: Time,
    /// Some state the committed guard reads changed after the commit.
    stale: bool,
}

/// The commit heap's key: orders as `(at, pid)` (see the module docs).
#[inline]
fn commit_key(at: Time, pid: Pid) -> u128 {
    (u128::from(at.to_bits()) << 64) | pid as u128
}

#[inline]
fn key_time(key: u128) -> Time {
    Time::from_bits((key >> 64) as u64)
}

#[inline]
fn key_pid(key: u128) -> Pid {
    key as u64 as Pid
}

/// Every process's guard readers in one compressed-row table:
/// `readers[offsets[q]..offsets[q + 1]]` are the sorted, deduped pids whose
/// guards read q's state, always including q itself — so a row is empty only
/// when q answered [`ReaderSet::All`].
struct ReaderTable {
    offsets: Vec<u32>,
    readers: Vec<u32>,
}

impl ReaderTable {
    /// Collect [`Protocol::readers_of`] for every pid.
    fn build<P: Protocol>(protocol: &P) -> ReaderTable {
        let n = protocol.num_processes();
        assert!(n <= u32::MAX as usize, "pids must fit the u32 reader table");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut readers = Vec::new();
        offsets.push(0);
        for pid in 0..n {
            if let ReaderSet::These(mut these) = protocol.readers_of(pid) {
                these.push(pid);
                these.sort_unstable();
                these.dedup();
                assert!(
                    these.iter().all(|&r| r < n),
                    "readers_of({pid}) names a pid out of range (n={n})"
                );
                readers.extend(these.iter().map(|&r| r as u32));
            }
            offsets.push(u32::try_from(readers.len()).expect("reader table overflows u32"));
        }
        ReaderTable { offsets, readers }
    }

    /// The readers of `pid`, or `None` when every pid reads it.
    #[inline]
    fn of(&self, pid: Pid) -> Option<&[u32]> {
        let row = &self.readers[self.offsets[pid] as usize..self.offsets[pid + 1] as usize];
        (!row.is_empty()).then_some(row)
    }
}

/// The dirty set: one bit per pid in `words`, and in `listed` the index of
/// every word that has a bit set, so a pass touches only those words.
/// `full` is set from a [`DirtySet::fill`] until the set is next emptied.
struct DirtySet {
    words: Vec<u64>,
    listed: Vec<u32>,
    full: bool,
}

impl DirtySet {
    fn new(n: usize) -> DirtySet {
        let words = n.div_ceil(64);
        DirtySet {
            words: vec![0; words],
            listed: Vec::with_capacity(words),
            full: false,
        }
    }

    #[inline]
    fn insert(&mut self, pid: Pid) {
        let w = pid / 64;
        if self.words[w] == 0 {
            self.listed.push(w as u32);
        }
        self.words[w] |= 1 << (pid % 64);
    }

    /// Mark every one of the `n` pids: a word fill.
    fn fill(&mut self, n: usize) {
        self.words.fill(!0);
        let tail = n % 64;
        if tail != 0 {
            *self.words.last_mut().expect("a partial word exists") = (1 << tail) - 1;
        }
        self.listed.clear();
        self.listed.extend(0..self.words.len() as u32);
        self.full = true;
    }

    fn clear(&mut self) {
        for &w in &self.listed {
            self.words[w as usize] = 0;
        }
        self.listed.clear();
        self.full = false;
    }
}

/// The timed engine. Owns the global state between runs so that experiments
/// can inspect or perturb it.
///
/// ```
/// use ftbarrier_gcs::*;
///
/// // Any Protocol runs; here, the crate's doctest-friendly example is a
/// // trivial one-action counter protocol.
/// struct Count;
/// impl Protocol for Count {
///     type State = u32;
///     fn num_processes(&self) -> usize { 2 }
///     fn num_actions(&self, _p: Pid) -> usize { 1 }
///     fn action_name(&self, _p: Pid, _a: ActionId) -> &'static str { "tick" }
///     fn enabled(&self, g: &[u32], p: Pid, _a: ActionId) -> bool { g[p] < 5 }
///     fn execute(&self, g: &[u32], p: Pid, _a: ActionId, _r: &mut SimRng) -> u32 { g[p] + 1 }
///     fn cost(&self, _p: Pid, _a: ActionId) -> Time { Time::new(0.5) }
///     fn initial_state(&self) -> Vec<u32> { vec![0, 0] }
///     fn arbitrary_state(&self, _p: Pid, r: &mut SimRng) -> u32 { r.range_u64(0, 6) as u32 }
/// }
///
/// let protocol = Count;
/// let mut engine = Engine::new(&protocol, 1);
/// let out = engine.run(&EngineConfig::default(), &mut fault::NoFaults, &mut NullMonitor);
/// assert_eq!(out.reason, StopReason::Fixpoint);
/// assert_eq!(engine.global(), &[5, 5]);
/// assert_eq!(out.stats.elapsed, Time::new(2.5)); // 5 ticks of 0.5, in parallel
/// ```
pub struct Engine<'p, P: Protocol> {
    protocol: &'p P,
    global: Vec<P::State>,
    pending: Vec<Option<Pending>>,
    now: Time,
    rng: SimRng,
    enabled_scratch: Vec<ActionId>,
    /// Guard readers of every process.
    readers: ReaderTable,
    /// Pids whose guards must be re-evaluated at the next scheduling pass.
    dirty: DirtySet,
    /// Commit queue of [`commit_key`]s with lazy invalidation: an entry is
    /// live iff `pending[pid]` still matures at exactly that time; stale
    /// entries are dropped when they surface at the top.
    commits: BinaryHeap<Reverse<u128>>,
    /// Scratch buffers reused across steps (no per-step allocation).
    batch: Vec<Pid>,
    updates: Vec<(Pid, ActionId, P::State)>,
    touched: Vec<Pid>,
    /// Dense per-(pid, action) execution counters, folded into the
    /// name-keyed histogram once per run; `action_offsets[pid] + action`
    /// indexes `action_counts`.
    action_counts: Vec<u64>,
    action_offsets: Vec<usize>,
}

impl<'p, P: Protocol> Engine<'p, P> {
    pub fn new(protocol: &'p P, seed: u64) -> Self {
        let global = protocol.initial_state();
        Self::from_state(protocol, seed, global)
    }

    pub fn from_state(protocol: &'p P, seed: u64, global: Vec<P::State>) -> Self {
        assert_eq!(global.len(), protocol.num_processes());
        let n = protocol.num_processes();

        let mut action_offsets = Vec::with_capacity(n);
        let mut total_actions = 0;
        for pid in 0..n {
            action_offsets.push(total_actions);
            total_actions += protocol.num_actions(pid);
        }

        let mut engine = Engine {
            protocol,
            global,
            pending: vec![None; n],
            now: Time::ZERO,
            rng: SimRng::seed_from_u64(seed),
            enabled_scratch: Vec::new(),
            readers: ReaderTable::build(protocol),
            dirty: DirtySet::new(n),
            commits: BinaryHeap::with_capacity(n),
            batch: Vec::new(),
            updates: Vec::new(),
            touched: Vec::new(),
            action_counts: vec![0; total_actions],
            action_offsets,
        };
        engine.dirty.fill(n);
        engine
    }

    pub fn now(&self) -> Time {
        self.now
    }

    pub fn global(&self) -> &[P::State] {
        &self.global
    }

    pub fn set_state(&mut self, pid: Pid, state: P::State) {
        self.global[pid] = state;
        self.pending[pid] = None;
        self.mark_readers_of(pid);
    }

    /// Replace every process's state with an arbitrary domain value — used to
    /// start recovery experiments (Fig 7) from an adversarial state.
    pub fn perturb_all(&mut self) {
        for pid in 0..self.protocol.num_processes() {
            self.global[pid] = self.protocol.arbitrary_state(pid, &mut self.rng);
            self.pending[pid] = None;
        }
        self.dirty.fill(self.pending.len());
    }

    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// State of `pid` changed: every process whose guard reads it (itself
    /// included) may have flipped enabled-status, and every commit among
    /// them is stale.
    fn mark_readers_of(&mut self, pid: Pid) {
        match self.readers.of(pid) {
            Some(readers) => {
                for &r in readers {
                    let r = r as Pid;
                    self.dirty.insert(r);
                    if let Some(p) = &mut self.pending[r] {
                        p.stale = true;
                    }
                }
            }
            // Commits are made only by `schedule`, which empties the set, so
            // while it stays full every pending commit was already marked
            // (or emptied by `set_state`/`perturb_all`) when it filled: a
            // second `All` write before the next pass changes nothing.
            None if self.dirty.full => {}
            None => {
                self.dirty.fill(self.pending.len());
                for p in self.pending.iter_mut().flatten() {
                    p.stale = true;
                }
            }
        }
    }

    /// Evaluate `pid`'s guards against the current state and commit to one
    /// enabled action, if any.
    fn try_commit(&mut self, pid: Pid) {
        self.protocol
            .enabled_actions(&self.global, pid, &mut self.enabled_scratch);
        let action = match self.enabled_scratch.len() {
            0 => return,
            1 => self.enabled_scratch[0],
            _ => *self.rng.choose(&self.enabled_scratch),
        };
        let at = self.now + self.protocol.cost(pid, action);
        self.pending[pid] = Some(Pending {
            action,
            at,
            stale: false,
        });
        self.commits.push(Reverse(commit_key(at, pid)));
    }

    /// Schedule commits for all idle processes with an enabled action.
    ///
    /// In incremental mode only the dirty set is examined, in ascending pid
    /// order — the same order the full rescan uses, and idle non-dirty pids
    /// cannot have an enabled action, so both modes drive the RNG
    /// identically.
    fn schedule(&mut self, incremental: bool) {
        if incremental {
            self.dirty.listed.sort_unstable();
            for i in 0..self.dirty.listed.len() {
                let w = self.dirty.listed[i] as usize;
                let mut bits = std::mem::take(&mut self.dirty.words[w]);
                while bits != 0 {
                    let pid = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if self.pending[pid].is_none() {
                        self.try_commit(pid);
                    }
                }
            }
            self.dirty.listed.clear();
            self.dirty.full = false;
        } else {
            // Reference path: rescan every guard. Dirty bookkeeping is
            // still cleared so a later incremental run starts from the same
            // invariant (every idle process has just been checked).
            self.dirty.clear();
            for pid in 0..self.pending.len() {
                if self.pending[pid].is_none() {
                    self.try_commit(pid);
                }
            }
        }
    }

    /// Time of the next maturing commit, discarding stale heap entries
    /// (lazily invalidated by fault aborts) from the top.
    fn earliest_commit(&mut self) -> Option<Time> {
        while let Some(&Reverse(key)) = self.commits.peek() {
            let at = key_time(key);
            if matches!(self.pending[key_pid(key)], Some(p) if p.at == at) {
                return Some(at);
            }
            self.commits.pop();
        }
        None
    }

    /// Run until a stop condition. `faults` injects the fault environment;
    /// `monitor` observes every transition and fault.
    pub fn run<F, M>(
        &mut self,
        config: &EngineConfig,
        faults: &mut F,
        monitor: &mut M,
    ) -> RunOutcome
    where
        F: FaultPlan<P::State> + ?Sized,
        M: Monitor<P::State> + ?Sized,
    {
        let incremental = !config.full_rescan;
        let mut stats = RunStats::default();
        self.action_counts.fill(0);

        let reason = 'run: loop {
            self.schedule(incremental);

            let next_commit = self.earliest_commit();
            let next_fault = faults.peek(self.now, &mut self.rng);

            let next_event = match (next_commit, next_fault) {
                (None, None) => break 'run StopReason::Fixpoint,
                (Some(c), None) => c,
                (None, Some(f)) => f,
                (Some(c), Some(f)) => c.min(f),
            };

            if let Some(horizon) = config.max_time {
                if next_event > horizon {
                    self.now = horizon;
                    break 'run StopReason::MaxTime;
                }
            }
            self.now = self.now.max(next_event);

            // Faults strictly before (or tying with) commits fire first: the
            // perturbation lands before the action's atomic execution.
            if let Some(f) = next_fault {
                if f <= next_event {
                    self.touched.clear();
                    let hit = faults.fire(f, &mut self.global, &mut self.rng, &mut self.touched);
                    // The fault aborts the victim's in-flight action (its
                    // heap entry goes stale and is dropped lazily).
                    self.pending[hit.pid] = None;
                    for i in 0..self.touched.len() {
                        let p = self.touched[i];
                        self.mark_readers_of(p); // includes p itself
                    }
                    self.dirty.insert(hit.pid); // must reschedule after the abort
                    stats.faults += 1;
                    monitor.on_fault(
                        self.now,
                        hit.pid,
                        hit.kind,
                        &hit.old,
                        &self.global[hit.pid],
                        &self.global,
                    );
                    if monitor.should_stop() {
                        break 'run StopReason::MonitorStop;
                    }
                    continue;
                }
            }

            // Commit batch: all pending actions maturing exactly now execute
            // as one maximal-parallel step against the pre-step state. The
            // heap yields equal-time entries in ascending pid order; a pid
            // may surface twice (abort + reschedule at the same instant),
            // which the `take()` below collapses.
            self.batch.clear();
            while let Some(&Reverse(key)) = self.commits.peek() {
                let at = key_time(key);
                if at != next_event {
                    break;
                }
                self.commits.pop();
                let pid = key_pid(key);
                if matches!(self.pending[pid], Some(p) if p.at == at) {
                    self.batch.push(pid);
                }
            }
            debug_assert!(!self.batch.is_empty(), "an event time with no commits");

            // Compute phase: `global` is not mutated yet, so every statement
            // reads the pre-step state — no snapshot clone needed.
            self.updates.clear();
            for i in 0..self.batch.len() {
                let pid = self.batch[i];
                let Some(p) = self.pending[pid].take() else {
                    continue; // duplicate heap entry already consumed
                };
                // A commit nothing reached since it committed reads the state
                // its guard held on (see "Stale-only re-check").
                let holds = if p.stale || !incremental {
                    self.protocol.enabled(&self.global, pid, p.action)
                } else {
                    debug_assert!(
                        self.protocol.enabled(&self.global, pid, p.action),
                        "pid {pid}'s guard failed with nothing it reads changed: \
                         readers_of under-reports a reader of its inputs"
                    );
                    true
                };
                if holds {
                    let new = self
                        .protocol
                        .execute(&self.global, pid, p.action, &mut self.rng);
                    self.updates.push((pid, p.action, new));
                } else {
                    stats.commits_dropped += 1;
                    self.dirty.insert(pid);
                }
            }

            // Apply phase: swap each new state in; the update slot then
            // holds the *old* state for the monitor callbacks below.
            for u in self.updates.iter_mut() {
                std::mem::swap(&mut self.global[u.0], &mut u.2);
            }
            for i in 0..self.updates.len() {
                let (pid, action, ref old) = self.updates[i];
                self.action_counts[self.action_offsets[pid] + action] += 1;
                stats.actions_executed += 1;
                let name = self.protocol.action_name(pid, action);
                monitor.on_transition(
                    self.now,
                    pid,
                    action,
                    name,
                    old,
                    &self.global[pid],
                    &self.global,
                );
            }
            for i in 0..self.updates.len() {
                // Writer changed state → its readers re-check; the writer
                // itself (now idle) is in its own reader set.
                let pid = self.updates[i].0;
                self.mark_readers_of(pid);
            }

            if monitor.should_stop() {
                break 'run StopReason::MonitorStop;
            }
            if let Some(max) = config.max_commits {
                if stats.actions_executed >= max {
                    break 'run StopReason::MaxCommits;
                }
            }
        };

        stats.elapsed = self.now;
        for pid in 0..self.protocol.num_processes() {
            for a in 0..self.protocol.num_actions(pid) {
                let count = self.action_counts[self.action_offsets[pid] + a];
                if count > 0 {
                    stats.add_action_count(self.protocol.action_name(pid, a), count);
                }
            }
        }
        RunOutcome { reason, stats }
    }
}

/// Exists only for the benchmark's two `gcs.dense_events_per_s.*` rows, which
/// now time the classic [`Engine`] (the sharded engine is gone); the shim and
/// those rows go together in the next benchmark change (ROADMAP 11(a)).
pub struct DenseEngine<'p, P: Protocol>(Engine<'p, P>);

#[derive(Debug, Clone, Default)]
pub struct DenseEngineConfig {
    pub max_commits: Option<u64>,
    pub workers: Option<usize>,
}

impl<'p, P: Protocol> DenseEngine<'p, P> {
    pub fn new(protocol: &'p P, seed: u64) -> Self {
        DenseEngine(Engine::new(protocol, seed))
    }

    pub fn run(
        &mut self,
        c: &DenseEngineConfig,
        f: &mut NoFaults,
        m: &mut NullMonitor,
    ) -> RunOutcome {
        assert!(c.workers.unwrap_or(1) == 1, "DenseEngineConfig.workers ≠ 1");
        let config = EngineConfig {
            max_commits: c.max_commits,
            ..EngineConfig::default()
        };
        self.0.run(&config, f, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{
        FaultAction, FaultKind, NoFaults, PoissonFaults, ScriptedFault, ScriptedFaults,
        VictimPolicy,
    };
    use crate::monitor::NullMonitor;
    use crate::protocol::testutil::{tokens, DijkstraRing};
    use crate::trace::Trace;

    fn ring(n: usize, cost: f64) -> DijkstraRing {
        DijkstraRing {
            n,
            k: 2 * n as u64 + 1,
            cost: Time::new(cost),
        }
    }

    #[test]
    fn timing_matches_hop_cost() {
        // One full circulation of the token over n processes = n hops of
        // cost c each.
        let n = 8;
        let c = 0.25;
        let r = ring(n, c);
        let mut engine = Engine::new(&r, 1);
        let mut m = NullMonitor;
        let config = EngineConfig {
            max_commits: Some(3 * n as u64), // three circulations
            ..Default::default()
        };
        let out = engine.run(&config, &mut NoFaults, &mut m);
        assert_eq!(out.reason, StopReason::MaxCommits);
        let expect = 3.0 * n as f64 * c;
        assert!(
            (out.stats.elapsed.as_f64() - expect).abs() < 1e-9,
            "elapsed {} vs expected {expect}",
            out.stats.elapsed
        );
    }

    #[test]
    fn max_time_stops_run() {
        let r = ring(4, 1.0);
        let mut engine = Engine::new(&r, 2);
        let mut m = NullMonitor;
        let config = EngineConfig {
            max_time: Some(Time::new(10.5)),
            ..Default::default()
        };
        let out = engine.run(&config, &mut NoFaults, &mut m);
        assert_eq!(out.reason, StopReason::MaxTime);
        assert_eq!(out.stats.elapsed, Time::new(10.5));
        // 10 actions of cost 1 fit in 10.5 time units.
        assert_eq!(out.stats.actions_executed, 10);
    }

    #[test]
    fn zero_cost_actions_execute_at_same_instant() {
        let r = ring(4, 0.0);
        let mut engine = Engine::new(&r, 3);
        let mut m = NullMonitor;
        let config = EngineConfig {
            max_commits: Some(100),
            ..Default::default()
        };
        let out = engine.run(&config, &mut NoFaults, &mut m);
        assert_eq!(out.reason, StopReason::MaxCommits);
        assert_eq!(out.stats.elapsed, Time::ZERO);
        assert_eq!(tokens(&r, engine.global()), 1);
    }

    struct Scramble;
    impl FaultAction<u64> for Scramble {
        fn kind(&self) -> FaultKind {
            FaultKind::Undetectable
        }
        fn apply(&self, _pid: Pid, state: &mut u64, rng: &mut SimRng) {
            *state = rng.range_u64(0, 1000);
        }
    }

    #[test]
    fn scripted_fault_interleaves_and_is_observed() {
        let r = ring(4, 1.0);
        let mut engine = Engine::new(&r, 4);
        let mut trace: Trace<u64> = Trace::unbounded();
        let plan = vec![ScriptedFault {
            at: Time::new(2.5),
            pid: 2,
            action: Box::new(Scramble) as Box<dyn FaultAction<u64>>,
        }];
        let mut faults = ScriptedFaults::new(plan);
        let config = EngineConfig {
            max_time: Some(Time::new(6.0)),
            ..Default::default()
        };
        let out = engine.run(&config, &mut faults, &mut trace);
        assert_eq!(out.stats.faults, 1);
        let fault_events: Vec<_> = trace
            .events()
            .filter(|e| matches!(e, crate::trace::TraceEvent::Fault { .. }))
            .collect();
        assert_eq!(fault_events.len(), 1);
        assert_eq!(fault_events[0].time(), Time::new(2.5));
        assert_eq!(fault_events[0].pid(), 2);
    }

    #[test]
    fn stabilizes_under_engine_from_arbitrary_state() {
        let r = ring(6, 0.1);
        for seed in 0..10 {
            let mut engine = Engine::new(&r, seed);
            engine.perturb_all();
            let mut m = NullMonitor;
            let config = EngineConfig {
                max_time: Some(Time::new(50.0)),
                ..Default::default()
            };
            engine.run(&config, &mut NoFaults, &mut m);
            assert_eq!(tokens(&r, engine.global()), 1, "seed {seed}");
        }
    }

    #[test]
    fn monitor_stop_is_honored() {
        struct StopAfter(u64, u64);
        impl Monitor<u64> for StopAfter {
            fn on_transition(
                &mut self,
                _now: Time,
                _pid: Pid,
                _action: ActionId,
                _name: &str,
                _old: &u64,
                _new: &u64,
                _global: &[u64],
            ) {
                self.0 += 1;
            }
            fn should_stop(&mut self) -> bool {
                self.0 >= self.1
            }
        }
        let r = ring(4, 1.0);
        let mut engine = Engine::new(&r, 5);
        let mut m = StopAfter(0, 7);
        let out = engine.run(&EngineConfig::default(), &mut NoFaults, &mut m);
        assert_eq!(out.reason, StopReason::MonitorStop);
        assert_eq!(out.stats.actions_executed, 7);
    }

    /// Run a full faulted scenario in both scheduler modes and return
    /// everything observable: the trace, the final state, and the stats.
    fn faulted_run(
        r: &DijkstraRing,
        seed: u64,
        fault_rate: f64,
        full_rescan: bool,
    ) -> (Vec<crate::trace::TraceEvent<u64>>, Vec<u64>, RunStats) {
        let mut engine = Engine::new(r, seed);
        engine.perturb_all();
        let mut trace: Trace<u64> = Trace::unbounded();
        let config = EngineConfig {
            max_time: Some(Time::new(40.0)),
            full_rescan,
            ..Default::default()
        };
        let out = if fault_rate > 0.0 {
            let mut faults = PoissonFaults::with_rate(fault_rate, VictimPolicy::Random, Scramble);
            engine.run(&config, &mut faults, &mut trace)
        } else {
            engine.run(&config, &mut NoFaults, &mut trace)
        };
        (
            trace.events().cloned().collect(),
            engine.global().to_vec(),
            out.stats,
        )
    }

    #[test]
    fn incremental_scheduler_matches_full_rescan_exactly() {
        // The dirty-set scheduler must be observationally identical to the
        // reference full-rescan scheduler: same trace, same final state,
        // same stats — including under faults, which exercise commit drops
        // and lazy heap invalidation.
        let r = ring(7, 0.3);
        for seed in [11, 12, 13, 14] {
            for &rate in &[0.0, 0.4] {
                let (ev_inc, g_inc, s_inc) = faulted_run(&r, seed, rate, false);
                let (ev_full, g_full, s_full) = faulted_run(&r, seed, rate, true);
                assert_eq!(ev_inc, ev_full, "trace diverged (seed {seed}, rate {rate})");
                assert_eq!(g_inc, g_full, "state diverged (seed {seed}, rate {rate})");
                assert_eq!(s_inc.actions_executed, s_full.actions_executed);
                assert_eq!(s_inc.commits_dropped, s_full.commits_dropped);
                assert_eq!(s_inc.faults, s_full.faults);
                assert_eq!(s_inc.by_action, s_full.by_action);
            }
        }
    }

    #[test]
    fn set_state_wakes_incremental_scheduler() {
        // After a quiescent run, injecting state through set_state must
        // dirty-mark enough processes for the incremental scheduler to pick
        // the change up (a stale scheduler would report a false fixpoint).
        let r = ring(5, 1.0);
        let mut engine = Engine::new(&r, 9);
        let config = EngineConfig {
            max_time: Some(Time::new(3.5)),
            ..Default::default()
        };
        engine.run(&config, &mut NoFaults, &mut NullMonitor);
        let moved_before = engine.global().to_vec();
        engine.set_state(2, engine.global()[2] + 1); // forge a second token
        let out = engine.run(
            &EngineConfig {
                max_time: Some(Time::new(40.0)),
                ..Default::default()
            },
            &mut NoFaults,
            &mut NullMonitor,
        );
        assert!(out.stats.actions_executed > 0, "injected token was ignored");
        assert_eq!(tokens(&r, engine.global()), 1);
        assert_ne!(engine.global(), &moved_before[..]);
    }

    #[test]
    fn histogram_matches_dense_counter_fold() {
        let r = ring(4, 1.0);
        let mut engine = Engine::new(&r, 6);
        let config = EngineConfig {
            max_commits: Some(9),
            ..Default::default()
        };
        let out = engine.run(&config, &mut NoFaults, &mut NullMonitor);
        let total: u64 = out.stats.by_action.values().sum();
        assert_eq!(total, out.stats.actions_executed);
        assert_eq!(
            out.stats.count_of("bottom") + out.stats.count_of("other"),
            9
        );
    }

    /// Two actions that are both enabled until `limit`, so nearly every
    /// commit draws its action from the RNG: the schedulers must agree on
    /// those choice draws as well as on the commits.
    struct TwoTick {
        n: usize,
        limit: u64,
    }

    impl Protocol for TwoTick {
        type State = u64;

        fn num_processes(&self) -> usize {
            self.n
        }
        fn num_actions(&self, _pid: Pid) -> usize {
            2
        }
        fn action_name(&self, _pid: Pid, action: ActionId) -> &'static str {
            if action == 0 {
                "tick1"
            } else {
                "tick2"
            }
        }
        fn enabled(&self, global: &[u64], pid: Pid, _action: ActionId) -> bool {
            global[pid] < self.limit
        }
        fn execute(&self, global: &[u64], pid: Pid, action: ActionId, _rng: &mut SimRng) -> u64 {
            global[pid] + if action == 0 { 1 } else { 2 }
        }
        fn cost(&self, _pid: Pid, action: ActionId) -> Time {
            if action == 0 {
                Time::new(0.5)
            } else {
                Time::new(0.75)
            }
        }
        fn initial_state(&self) -> Vec<u64> {
            vec![0; self.n]
        }
        fn arbitrary_state(&self, _pid: Pid, rng: &mut SimRng) -> u64 {
            rng.range_u64(0, self.limit + 2)
        }
        fn readers_of(&self, pid: Pid) -> ReaderSet {
            ReaderSet::These(vec![pid])
        }
    }

    #[test]
    fn two_tick_choice_draws_match_full_rescan() {
        let tt = TwoTick { n: 13, limit: 40 };
        for (rate, perturb) in [(0.0, false), (0.4, true)] {
            for seed in [3u64, 4] {
                let run = |full_rescan: bool| {
                    let mut engine = Engine::new(&tt, seed);
                    if perturb {
                        engine.perturb_all();
                    }
                    let mut trace = Trace::unbounded();
                    let mut faults = PoissonFaults::with_rate(rate, VictimPolicy::Random, Scramble);
                    let config = EngineConfig {
                        max_time: Some(Time::new(35.0)),
                        full_rescan,
                        ..Default::default()
                    };
                    let out = engine.run(&config, &mut faults, &mut trace);
                    let events: Vec<_> = trace.events().cloned().collect();
                    (out, engine.global().to_vec(), events)
                };
                let (inc, full) = (run(false), run(true));
                assert_eq!(inc, full, "seed {seed}, rate {rate}");
                assert!(
                    inc.0.stats.count_of("tick1") > 0 && inc.0.stats.count_of("tick2") > 0,
                    "both actions were drawn (seed {seed}, rate {rate})"
                );
            }
        }
    }

    #[test]
    fn max_commits_is_honored() {
        let tt = TwoTick { n: 8, limit: 1000 };
        let mut engine = Engine::new(&tt, 1);
        let config = EngineConfig {
            max_commits: Some(20),
            ..Default::default()
        };
        let out = engine.run(&config, &mut NoFaults, &mut NullMonitor);
        assert_eq!(out.reason, StopReason::MaxCommits);
        // A step commits all its maturing actions, so the run can overshoot
        // the budget by at most one step's worth.
        assert!((20..20 + 8).contains(&out.stats.actions_executed));
    }

    #[test]
    fn dense_engine_shim_is_the_classic_engine_on_one_thread() {
        let r = ring(16, 0.25);
        let run = |workers| {
            let config = DenseEngineConfig {
                max_commits: Some(500),
                workers,
            };
            DenseEngine::new(&r, 7).run(&config, &mut NoFaults, &mut NullMonitor)
        };
        let classic = Engine::new(&r, 7).run(
            &EngineConfig {
                max_commits: Some(500),
                ..Default::default()
            },
            &mut NoFaults,
            &mut NullMonitor,
        );
        assert_eq!(run(None).stats, classic.stats);
        assert_eq!(run(Some(1)).stats, classic.stats);
        let refused = std::panic::catch_unwind(|| run(Some(2)));
        let message = refused.expect_err("workers: Some(2) must be refused");
        let message = message.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("DenseEngineConfig.workers"), "{message}");
    }

    #[test]
    fn commit_key_orders_by_time_value_then_pid() {
        let times = [
            Time::new(-0.0),
            Time::ZERO,
            Time::new(5e-324), // smallest subnormal
            Time::new(1e-310),
            Time::new(f64::MIN_POSITIVE),
            Time::new(0.25),
            Time::new(1.0),
            Time::new(1.0 + f64::EPSILON),
            Time::new(1e300),
            Time::new(f64::MAX),
        ];
        let pids = [0, 1, 63, 64, u32::MAX as Pid];
        let entries: Vec<(Time, Pid)> = times
            .iter()
            .flat_map(|&t| pids.iter().map(move |&p| (t, p)))
            .collect();
        for &(ta, pa) in &entries {
            let key = commit_key(ta, pa);
            assert_eq!((key_time(key), key_pid(key)), (ta, pa));
            for &(tb, pb) in &entries {
                let by_value = ta.as_f64().partial_cmp(&tb.as_f64()).unwrap();
                assert_eq!(
                    key.cmp(&commit_key(tb, pb)),
                    by_value.then(pa.cmp(&pb)),
                    "({ta:?}, {pa}) vs ({tb:?}, {pb})"
                );
            }
        }
        assert_eq!(commit_key(Time::new(-0.0), 3), commit_key(Time::ZERO, 3));
    }

    /// Pid 1 sets a flag after 1 time unit; pid 0 committed at 0 to a
    /// 2-unit action whose guard needs the flag clear.
    struct Race;

    impl Protocol for Race {
        type State = u64;

        fn num_processes(&self) -> usize {
            2
        }
        fn num_actions(&self, _pid: Pid) -> usize {
            1
        }
        fn action_name(&self, pid: Pid, _action: ActionId) -> &'static str {
            ["slow", "set"][pid]
        }
        fn enabled(&self, global: &[u64], _pid: Pid, _action: ActionId) -> bool {
            global[1] == 0
        }
        fn execute(&self, global: &[u64], pid: Pid, _action: ActionId, _rng: &mut SimRng) -> u64 {
            global[pid] + 1
        }
        fn cost(&self, pid: Pid, _action: ActionId) -> Time {
            Time::new([2.0, 1.0][pid])
        }
        fn initial_state(&self) -> Vec<u64> {
            vec![0, 0]
        }
        fn arbitrary_state(&self, _pid: Pid, rng: &mut SimRng) -> u64 {
            rng.range_u64(0, 2)
        }
        fn readers_of(&self, pid: Pid) -> ReaderSet {
            ReaderSet::These(if pid == 1 { vec![0] } else { vec![] })
        }
    }

    #[test]
    fn neighbour_write_drops_an_in_flight_commit_under_both_schedulers() {
        for full_rescan in [false, true] {
            let mut engine = Engine::new(&Race, 1);
            let config = EngineConfig {
                full_rescan,
                ..Default::default()
            };
            let out = engine.run(&config, &mut NoFaults, &mut NullMonitor);
            assert_eq!(
                out.reason,
                StopReason::Fixpoint,
                "full_rescan {full_rescan}"
            );
            assert_eq!(out.stats.commits_dropped, 1, "full_rescan {full_rescan}");
            assert_eq!(out.stats.count_of("set"), 1);
            assert_eq!(out.stats.count_of("slow"), 0);
            assert_eq!(out.stats.elapsed, Time::new(2.0));
            assert_eq!(engine.global(), &[0, 1]);
        }
    }

    /// A leader (pid 0) that every follower reads — it answers
    /// [`ReaderSet::All`] — and followers that copy its value. The leader
    /// steps by 1 or 2 (mod 3) whenever follower 1, the only process it
    /// reads, has caught up, so its writes often disable followers' commits
    /// in flight. `hide_follower` under-reports: follower 1 claims no
    /// reader, so the leader is never woken by it.
    struct Leader {
        n: usize,
        hide_follower: bool,
    }

    impl Protocol for Leader {
        type State = u64;

        fn num_processes(&self) -> usize {
            self.n
        }
        fn num_actions(&self, pid: Pid) -> usize {
            if pid == 0 {
                2
            } else {
                1
            }
        }
        fn action_name(&self, pid: Pid, action: ActionId) -> &'static str {
            match (pid, action) {
                (0, 0) => "step1",
                (0, _) => "step2",
                _ => "follow",
            }
        }
        fn enabled(&self, global: &[u64], pid: Pid, _action: ActionId) -> bool {
            if pid == 0 {
                global[1] == global[0]
            } else {
                global[pid] != global[0]
            }
        }
        fn execute(&self, global: &[u64], pid: Pid, action: ActionId, _rng: &mut SimRng) -> u64 {
            if pid == 0 {
                (global[0] + 1 + action as u64) % 3
            } else {
                global[0]
            }
        }
        fn cost(&self, pid: Pid, action: ActionId) -> Time {
            if pid == 0 {
                Time::new(0.5 + 0.25 * action as f64)
            } else {
                Time::new(0.25 * (1 + pid % 5) as f64)
            }
        }
        fn initial_state(&self) -> Vec<u64> {
            vec![0; self.n]
        }
        fn arbitrary_state(&self, _pid: Pid, rng: &mut SimRng) -> u64 {
            rng.range_u64(0, 3)
        }
        fn readers_of(&self, pid: Pid) -> ReaderSet {
            match pid {
                0 => ReaderSet::All,
                1 if !self.hide_follower => ReaderSet::These(vec![0]),
                _ => ReaderSet::These(vec![]),
            }
        }
    }

    fn leader_run(
        protocol: &Leader,
        seed: u64,
        rate: f64,
        full_rescan: bool,
    ) -> (RunOutcome, Vec<u64>, Vec<crate::trace::TraceEvent<u64>>) {
        let mut engine = Engine::new(protocol, seed);
        engine.perturb_all();
        let mut trace = Trace::unbounded();
        let mut faults = PoissonFaults::with_rate(rate, VictimPolicy::Random, Scramble);
        let config = EngineConfig {
            max_time: Some(Time::new(30.0)),
            full_rescan,
            ..Default::default()
        };
        let out = engine.run(&config, &mut faults, &mut trace);
        (
            out,
            engine.global().to_vec(),
            trace.events().cloned().collect(),
        )
    }

    #[test]
    fn an_all_writer_keeps_the_other_writers_incremental() {
        // 70 pids span two dirty-set words.
        let exact = Leader {
            n: 70,
            hide_follower: false,
        };
        for seed in [5u64, 6] {
            for rate in [0.0, 0.4] {
                let inc = leader_run(&exact, seed, rate, false);
                let full = leader_run(&exact, seed, rate, true);
                assert_eq!(inc, full, "seed {seed}, rate {rate}");
                let stats = &inc.0.stats;
                assert!(
                    stats.count_of("step1") > 0 && stats.count_of("step2") > 0,
                    "the leader drew both steps (seed {seed}, rate {rate})"
                );
                assert!(
                    stats.commits_dropped > 0,
                    "the leader's writes dropped commits (seed {seed}, rate {rate})"
                );
            }
        }
        // With follower 1's reader hidden, only an incremental scheduler
        // misses the leader's wake-ups: the differential sees the fault even
        // though pid 0 answers `All`.
        let hidden = Leader {
            n: 70,
            hide_follower: true,
        };
        let inc = leader_run(&hidden, 5, 0.0, false);
        let full = leader_run(&hidden, 5, 0.0, true);
        assert_eq!(inc.0.reason, StopReason::Fixpoint);
        assert_eq!(full.0.reason, StopReason::MaxTime);
        assert!(inc.0.stats.actions_executed < full.0.stats.actions_executed);
    }
}
