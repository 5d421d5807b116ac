//! The sweep program: token circulation (T1/T2 generalized to `RECV`, plus
//! the repair actions T3–T5) with the barrier's `cp`/`ph` updates superposed
//! on token receipt, exactly as §4.1 prescribes.

use crate::cp::Cp;
use crate::sn::Sn;
use crate::sweep::state::PosState;
use ftbarrier_gcs::{ActionId, Pid, Protocol, ReaderSet, SimRng, Time};
use ftbarrier_topology::{CsrDag, Pos, SweepDag};

/// Token receipt + superposed `cp`/`ph` update (the paper's T1 at the root,
/// T2 elsewhere).
pub const RECV: ActionId = 0;
/// Execute the body of the current phase (unit cost).
pub const WORK: ActionId = 1;
/// Sink repair: `sn = ⊥ → sn := ⊤`.
pub const T3: ActionId = 2;
/// Backward ⊤ wave: `sn = ⊥ ∧ (∀ successors :: sn = ⊤) → sn := ⊤`.
pub const T4: ActionId = 3;
/// Root reset: `sn = ⊤ → sn := 0`.
pub const T5: ActionId = 4;
/// §8 fuzzy extension: execute the *post*-phase work, between entering the
/// barrier (`execute → success`) and leaving it (`ready → execute`).
pub const POSTWORK: ActionId = 5;

/// The refined barrier program over an arbitrary sweep topology.
///
/// ```
/// use ftbarrier_core::sweep::SweepBarrier;
/// use ftbarrier_gcs::{Interleaving, InterleavingConfig, NullMonitor};
/// use ftbarrier_topology::SweepDag;
///
/// // Program RB: the barrier on a 4-process ring, 8 cyclic phases.
/// let rb = SweepBarrier::new(SweepDag::ring(4).unwrap(), 8);
/// let mut exec = Interleaving::new(&rb, InterleavingConfig::default());
/// let steps = exec.run_until(100_000, &mut NullMonitor, |g| g[0].ph == 2);
/// assert!(steps.is_some(), "the root reaches phase 2");
/// ```
#[derive(Debug, Clone)]
pub struct SweepBarrier {
    dag: SweepDag,
    /// Flat adjacency mirror of `dag` — the guards walk this, not the
    /// `Vec<Vec<_>>` form (one indirection per position adds up at N=10⁶).
    csr: CsrDag,
    /// Length of the cyclic phase sequence (the paper's `n`, at least 2).
    pub n_phases: u32,
    /// Sequence number domain size. Defaults to `2·positions + 3`, which
    /// covers both the ring's `K > N` and MB's `L > 2N + 1` requirements.
    pub sn_domain: u32,
    /// Communication latency per hop (the paper's `c`).
    pub comm_cost: Time,
    /// Phase body execution time (the paper's unit).
    pub work_cost: Time,
    /// §8 fuzzy barriers: time of the post-phase work performed inside the
    /// barrier window. Zero disables the extension (the `post` bit becomes
    /// inert).
    pub post_work_cost: Time,
    /// Positions that execute the phase body (exactly one per process; the
    /// rest are relays: §5 local copies, §4.2 up-tree duplicates).
    worker: Vec<bool>,
}

impl SweepBarrier {
    /// Build over a topology with unit work cost and zero latency. Each
    /// process's first position is its worker position (our builders order
    /// positions so this is the real/down position).
    pub fn new(dag: SweepDag, n_phases: u32) -> SweepBarrier {
        assert!(n_phases >= 2, "the paper assumes at least two phases (§3)");
        let mut worker = vec![false; dag.num_positions()];
        for pid in 0..dag.num_processes() {
            worker[dag.positions_of(pid)[0]] = true;
        }
        let sn_domain = 2 * dag.num_positions() as u32 + 3;
        let csr = CsrDag::new(&dag);
        SweepBarrier {
            dag,
            csr,
            n_phases,
            sn_domain,
            comm_cost: Time::ZERO,
            work_cost: Time::new(1.0),
            post_work_cost: Time::ZERO,
            worker,
        }
    }

    /// Set the paper's timing parameters: latency `c` per hop and the phase
    /// time (unit in the paper).
    pub fn with_costs(mut self, comm: Time, work: Time) -> SweepBarrier {
        self.comm_cost = comm;
        self.work_cost = work;
        self
    }

    /// §8: split the phase body into `pre` (required before entering the
    /// barrier) and `post` (performed inside the barrier window,
    /// overlapping other processes' arrivals). `pre + post` should equal
    /// the strict program's `work` for a fair comparison.
    pub fn with_fuzzy_split(mut self, pre: Time, post: Time) -> SweepBarrier {
        self.work_cost = pre;
        self.post_work_cost = post;
        self
    }

    fn fuzzy(&self) -> bool {
        self.post_work_cost > Time::ZERO
    }

    /// Shrink or grow the sequence-number domain (tests use small domains to
    /// exercise wraparound). Must stay above the number of positions.
    pub fn with_sn_domain(self, l: u32) -> SweepBarrier {
        self.try_with_sn_domain(l)
            .expect("sequence number domain must exceed the number of positions")
    }

    /// Like [`SweepBarrier::with_sn_domain`] but returns a typed error
    /// instead of panicking when `L` is at or below the number of positions
    /// (the sweep analogue of the ring's `K > N` precondition).
    pub fn try_with_sn_domain(mut self, l: u32) -> Result<SweepBarrier, crate::sn::DomainError> {
        self.sn_domain = crate::sn::validate_modulus(l, self.dag.num_positions() as u32 + 1)?;
        Ok(self)
    }

    pub fn dag(&self) -> &SweepDag {
        &self.dag
    }

    /// Number of phases `ph` counts modulo.
    pub fn n_phases(&self) -> u32 {
        self.n_phases
    }

    /// The sequence-number modulus `L` (ordinary values are `0..L`).
    pub fn sn_domain(&self) -> u32 {
        self.sn_domain
    }

    /// Does `pos` execute the phase body (as opposed to relaying)?
    pub fn is_worker(&self, pos: Pos) -> bool {
        self.worker[pos]
    }

    /// The worker position of a process.
    pub fn worker_position(&self, pid: Pid) -> Pos {
        self.dag.positions_of(pid)[0]
    }

    /// If all predecessors of `pos` carry the same ordinary sequence number,
    /// return it.
    fn pred_sn(&self, g: &[PosState], pos: Pos) -> Option<Sn> {
        let preds = self.csr.preds(pos);
        let first = g[preds[0] as Pos].sn;
        if !first.is_valid() {
            return None;
        }
        for &q in &preds[1..] {
            if g[q as Pos].sn != first {
                return None;
            }
        }
        Some(first)
    }

    /// The sequence number the root adopts on T1: the sinks' common value
    /// when they agree, else — only relevant when the root itself is flagged
    /// and repairing — the value of any ordinary sink.
    fn root_recv_sn(&self, g: &[PosState], own: Sn) -> Option<Sn> {
        if let Some(v) = self.pred_sn(g, SweepDag::ROOT) {
            if g[SweepDag::ROOT].sn == v || !own.is_valid() {
                return Some(v);
            }
            return None;
        }
        if !own.is_valid() {
            // Repair: a flagged root re-acquires from any ordinary sink
            // (generalizes the ring's T1, whose single sink makes
            // "agreement" trivial; without this, a ⊥ root above
            // disagreeing sinks would deadlock the tree).
            return self
                .csr
                .sinks()
                .iter()
                .map(|&q| g[q as Pos].sn)
                .find(|sn| sn.is_valid());
        }
        None
    }

    /// A sink whose sequence number is ordinary — under detectable faults
    /// this is exactly a sink whose `ph` is trustworthy (a corrupted sink is
    /// flagged until its own RECV repairs both `sn` and `ph`).
    fn trusted_sink(&self, g: &[PosState], fallback: Pos) -> Pos {
        self.csr
            .sinks()
            .iter()
            .map(|&q| q as Pos)
            .find(|&q| g[q].sn.is_valid())
            .unwrap_or(fallback)
    }

    /// The control position all predecessors agree on, if they agree.
    fn pred_cp(&self, g: &[PosState], pos: Pos) -> Option<Cp> {
        let preds = self.csr.preds(pos);
        let first = g[preds[0] as Pos].cp;
        if preds[1..].iter().all(|&q| g[q as Pos].cp == first) {
            Some(first)
        } else {
            None
        }
    }

    fn pred_ph_agree(&self, g: &[PosState], pos: Pos) -> bool {
        let preds = self.csr.preds(pos);
        let first = g[preds[0] as Pos].ph;
        preds[1..].iter().all(|&q| g[q as Pos].ph == first)
    }

    /// Does `pos` currently hold the token (may it execute `RECV`)?
    pub fn has_token(&self, g: &[PosState], pos: Pos) -> bool {
        if pos == SweepDag::ROOT {
            return self.root_recv_sn(g, g[pos].sn).is_some();
        }
        // T2's guard: predecessors ordinary and all differing from our own
        // sequence number. (With one predecessor this is the paper's guard
        // verbatim; with several it is the natural aggregation — we move
        // only once every predecessor has moved past us.)
        let preds = self.csr.preds(pos);
        let own = g[pos].sn;
        preds.iter().all(|&q| {
            let sn = g[q as Pos].sn;
            sn.is_valid() && sn != own
        })
    }

    /// RECV is gated until the phase body finishes when the superposed
    /// update would take `execute → success` ("the process executes [the
    /// token action] at its action point", i.e. not mid-phase) — and, in the
    /// fuzzy extension, while post-work is still running (the process is
    /// busy; it neither relays nor leaves the barrier).
    fn recv_blocked_on_work(&self, g: &[PosState], pos: Pos) -> bool {
        if !self.worker[pos] {
            return false;
        }
        let cp = g[pos].cp;
        if self.fuzzy() && !g[pos].post && matches!(cp, Cp::Success | Cp::Ready) {
            return true;
        }
        if cp != Cp::Execute || g[pos].done {
            return false;
        }
        if pos == SweepDag::ROOT {
            // The root's execute → success branch is unconditional.
            true
        } else {
            self.pred_cp(g, pos) == Some(Cp::Success)
        }
    }

    /// The superposed update at the root (the paper's "updating ph.0 and
    /// cp.0 in process 0", with the sinks in the role of process N).
    fn root_update(&self, g: &[PosState], s: &mut PosState) {
        let sinks = self.csr.sinks();
        let all_sinks = |cp: Cp| sinks.iter().all(|&q| g[q as Pos].cp == cp);
        // Phase re-learned from a sink with a trustworthy (ordinary) sn.
        let sink_ph = g[self.trusted_sink(g, sinks[0] as Pos)].ph;
        let sinks_ph_agree = sinks.iter().all(|&q| g[q as Pos].ph == sink_ph);
        match s.cp {
            Cp::Ready => {
                if all_sinks(Cp::Ready) && sinks_ph_agree && sink_ph == s.ph {
                    s.cp = Cp::Execute;
                    s.done = false;
                }
                // Otherwise: keep circulating the token unchanged.
            }
            Cp::Execute => {
                // Gated on `done` by `recv_blocked_on_work`.
                s.cp = Cp::Success;
                // Entering the barrier opens the fuzzy window (§8).
                s.post = !self.fuzzy();
            }
            Cp::Success => {
                if all_sinks(Cp::Success) && sinks_ph_agree && sink_ph == s.ph {
                    // Phase executed successfully everywhere: advance.
                    s.ph = (s.ph + 1) % self.n_phases;
                } else {
                    // Someone repeated/erred or phases disagree: re-execute.
                    s.ph = sink_ph;
                }
                s.cp = Cp::Ready;
            }
            Cp::Error | Cp::Repeat => {
                // Detectably corrupted root rejoins at the sinks' phase
                // (Lemma 4.1.2's "copied a different phase number from N").
                s.ph = sink_ph;
                s.cp = Cp::Ready;
            }
        }
    }

    /// The superposed update at a non-root position (the paper's "updating
    /// ph.j and cp.j in process j, j ≠ 0").
    fn nonroot_update(&self, g: &[PosState], pos: Pos, s: &mut PosState) {
        let pred_cp = self.pred_cp(g, pos);
        let ph_agree = self.pred_ph_agree(g, pos);
        let old_cp = s.cp;
        // "ph.j := ph.(j-1)" — unconditional first line.
        s.ph = g[self.csr.preds(pos)[0] as Pos].ph;
        match (old_cp, pred_cp) {
            (Cp::Ready, Some(Cp::Execute)) if ph_agree => {
                s.cp = Cp::Execute;
                s.done = !self.worker[pos];
            }
            (Cp::Execute, Some(Cp::Success)) if ph_agree => {
                // Gated on `done` for workers by `recv_blocked_on_work`.
                s.cp = Cp::Success;
                if self.worker[pos] {
                    // Entering the barrier opens the fuzzy window (§8).
                    s.post = !self.fuzzy();
                }
            }
            (cp, Some(Cp::Ready)) if cp != Cp::Execute && ph_agree => {
                s.cp = Cp::Ready;
            }
            (cp, agreed) => {
                // "elseif cp.j = error ∨ cp.(j-1) ≠ cp.j → cp.j := repeat",
                // extended to disagreeing predecessors (only possible in
                // multi-predecessor topologies, only after faults).
                if cp == Cp::Error || agreed != Some(cp) || !ph_agree {
                    s.cp = Cp::Repeat;
                }
            }
        }
    }

    /// T4's wave condition: all successors carry ⊤ — or, generalized closing
    /// of the ⊤ wave, a ⊥ root also accepts the wave from its *sinks* (the
    /// ring's T4 reads the successor, which for the ring's 0 is on the same
    /// path; in a tree the wave otherwise stalls at stale-valid inner nodes).
    fn top_wave_arrived(&self, g: &[PosState], pos: Pos) -> bool {
        self.csr
            .succs(pos)
            .iter()
            .all(|&q| g[q as Pos].sn == Sn::Top)
            || (pos == SweepDag::ROOT
                && self.csr.sinks().iter().all(|&q| g[q as Pos].sn == Sn::Top))
    }
}

impl Protocol for SweepBarrier {
    type State = PosState;

    fn num_processes(&self) -> usize {
        self.dag.num_positions()
    }

    fn num_actions(&self, _pos: Pid) -> usize {
        6
    }

    fn action_name(&self, pos: Pid, action: ActionId) -> &'static str {
        match action {
            RECV => {
                if pos == SweepDag::ROOT {
                    "T1"
                } else {
                    "T2"
                }
            }
            WORK => "WORK",
            T3 => "T3",
            T4 => "T4",
            T5 => "T5",
            POSTWORK => "POSTWORK",
            _ => unreachable!("sweep program has 6 actions"),
        }
    }

    fn enabled(&self, g: &[PosState], pos: Pid, action: ActionId) -> bool {
        match action {
            RECV => self.has_token(g, pos) && !self.recv_blocked_on_work(g, pos),
            WORK => self.worker[pos] && g[pos].cp == Cp::Execute && !g[pos].done,
            T3 => self.csr.is_sink(pos) && g[pos].sn == Sn::Bot,
            T4 => !self.csr.is_sink(pos) && g[pos].sn == Sn::Bot && self.top_wave_arrived(g, pos),
            T5 => pos == SweepDag::ROOT && g[pos].sn == Sn::Top,
            POSTWORK => {
                self.fuzzy()
                    && self.worker[pos]
                    && !g[pos].post
                    && matches!(g[pos].cp, Cp::Success | Cp::Ready)
            }
            _ => false,
        }
    }

    /// Every enabled action at `pos`, ascending, in one pass: it reads
    /// `pos`'s own state once and gates each guard on those local conditions
    /// before touching the neighbourhood, instead of re-reading the state
    /// for each of the six actions; the result equals filtering
    /// [`Protocol::enabled`] over them.
    fn enabled_actions(&self, g: &[PosState], pos: Pid, out: &mut Vec<ActionId>) {
        out.clear();
        let sn = g[pos].sn;
        let cp = g[pos].cp;
        let done = g[pos].done;
        let worker = self.worker[pos];

        if self.has_token(g, pos) && !self.recv_blocked_on_work(g, pos) {
            out.push(RECV);
        }
        if worker && cp == Cp::Execute && !done {
            out.push(WORK);
        }
        if sn == Sn::Bot {
            if self.csr.is_sink(pos) {
                out.push(T3);
            } else if self.top_wave_arrived(g, pos) {
                out.push(T4);
            }
        }
        if pos == SweepDag::ROOT && sn == Sn::Top {
            out.push(T5);
        }
        if self.fuzzy() && worker && !g[pos].post && matches!(cp, Cp::Success | Cp::Ready) {
            out.push(POSTWORK);
        }
    }

    fn execute(&self, g: &[PosState], pos: Pid, action: ActionId, _rng: &mut SimRng) -> PosState {
        let mut s = g[pos];
        match action {
            RECV => {
                if pos == SweepDag::ROOT {
                    let v = self
                        .root_recv_sn(g, s.sn)
                        .expect("T1 only enabled with a usable sink value");
                    s.sn = v.next(self.sn_domain);
                    self.root_update(g, &mut s);
                } else {
                    s.sn = g[self.csr.preds(pos)[0] as Pos].sn;
                    self.nonroot_update(g, pos, &mut s);
                }
            }
            WORK => {
                s.done = true;
            }
            T3 | T4 => {
                s.sn = Sn::Top;
            }
            T5 => {
                s.sn = Sn::Val(0);
            }
            POSTWORK => {
                s.post = true;
            }
            _ => unreachable!("sweep program has 6 actions"),
        }
        s
    }

    fn cost(&self, _pos: Pid, action: ActionId) -> Time {
        match action {
            WORK => self.work_cost,
            POSTWORK => self.post_work_cost,
            _ => self.comm_cost,
        }
    }

    fn initial_state(&self) -> Vec<PosState> {
        vec![PosState::start(); self.dag.num_positions()]
    }

    fn arbitrary_state(&self, _pos: Pid, rng: &mut SimRng) -> PosState {
        PosState {
            sn: Sn::arbitrary(self.sn_domain, rng),
            cp: *rng.choose(&Cp::RB_DOMAIN),
            ph: rng.range_u64(0, self.n_phases as u64) as u32,
            done: rng.chance(0.5),
            post: !self.fuzzy() || rng.chance(0.5),
        }
    }

    fn readers_of(&self, pos: Pid) -> ReaderSet {
        // Who reads pos's state in a *guard*: RECV at p reads preds(p)
        // (sn and cp), so every successor of pos reads it; T4 at p reads
        // succs(p) (sn), so every predecessor of pos reads it; everything
        // else (WORK, T3, T5, POSTWORK) is local. The dag's succs() of a
        // sink already includes the root, covering the root's T1/T4 guards
        // that read every sink.
        let mut readers = vec![pos];
        readers.extend_from_slice(self.dag.preds(pos));
        readers.extend_from_slice(self.dag.succs(pos));
        readers.sort_unstable();
        readers.dedup();
        ReaderSet::These(readers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbarrier_gcs::{Interleaving, InterleavingConfig, NullMonitor};

    fn ring_barrier(n: usize) -> SweepBarrier {
        SweepBarrier::new(SweepDag::ring(n).unwrap(), 4)
    }

    #[test]
    fn initial_token_at_root() {
        let rb = ring_barrier(4);
        let g = rb.initial_state();
        assert!(rb.has_token(&g, 0));
        for pos in 1..4 {
            assert!(!rb.has_token(&g, pos));
        }
        assert!(rb.enabled(&g, 0, RECV));
    }

    #[test]
    fn root_first_recv_starts_execute_sweep() {
        let rb = ring_barrier(3);
        let mut rng = SimRng::seed_from_u64(0);
        let g = rb.initial_state();
        let s = rb.execute(&g, 0, RECV, &mut rng);
        assert_eq!(s.cp, Cp::Execute);
        assert_eq!(s.sn, Sn::Val(1));
        assert!(!s.done, "entering execute resets the work bit");
    }

    #[test]
    fn execute_sweep_propagates() {
        let rb = ring_barrier(3);
        let mut rng = SimRng::seed_from_u64(0);
        let mut g = rb.initial_state();
        g[0] = rb.execute(&g, 0, RECV, &mut rng);
        assert!(rb.has_token(&g, 1));
        let s1 = rb.execute(&g, 1, RECV, &mut rng);
        assert_eq!(s1.cp, Cp::Execute);
        assert_eq!(s1.sn, Sn::Val(1));
    }

    #[test]
    fn success_transition_waits_for_work() {
        let rb = ring_barrier(3);
        let mut g = rb.initial_state();
        // Mid-success-sweep: root succeeded, position 1 still computing.
        g[0] = PosState {
            sn: Sn::Val(2),
            cp: Cp::Success,
            ph: 0,
            done: true,
            post: true,
        };
        g[1] = PosState {
            sn: Sn::Val(1),
            cp: Cp::Execute,
            ph: 0,
            done: false,
            post: true,
        };
        g[2] = PosState {
            sn: Sn::Val(1),
            cp: Cp::Execute,
            ph: 0,
            done: false,
            post: true,
        };
        // Position 1 has the token but must WORK first.
        assert!(rb.has_token(&g, 1));
        assert!(!rb.enabled(&g, 1, RECV));
        assert!(rb.enabled(&g, 1, WORK));
        g[1].done = true;
        assert!(rb.enabled(&g, 1, RECV));
    }

    #[test]
    fn corrupted_position_flags_repeat_on_token_receipt() {
        let rb = ring_barrier(3);
        let mut rng = SimRng::seed_from_u64(0);
        let mut g = rb.initial_state();
        g[0] = PosState {
            sn: Sn::Val(1),
            cp: Cp::Execute,
            ph: 0,
            done: false,
            post: true,
        };
        g[1] = PosState {
            sn: Sn::Bot,
            cp: Cp::Error,
            ph: 3,
            done: false,
            post: true,
        };
        // Token present at 1 (pred ordinary and differing from ⊥).
        assert!(rb.enabled(&g, 1, RECV));
        let s = rb.execute(&g, 1, RECV, &mut rng);
        assert_eq!(s.cp, Cp::Repeat, "error turns to repeat on receipt");
        assert_eq!(s.ph, 0, "phase is re-learned from the predecessor");
        assert_eq!(s.sn, Sn::Val(1));
    }

    #[test]
    fn repeat_propagates_with_token() {
        let rb = ring_barrier(3);
        let mut rng = SimRng::seed_from_u64(0);
        let mut g = rb.initial_state();
        g[1] = PosState {
            sn: Sn::Val(1),
            cp: Cp::Repeat,
            ph: 0,
            done: false,
            post: true,
        };
        g[2] = PosState {
            sn: Sn::Val(0),
            cp: Cp::Execute,
            ph: 0,
            done: true,
            post: true,
        };
        let s = rb.execute(&g, 2, RECV, &mut rng);
        assert_eq!(s.cp, Cp::Repeat);
    }

    #[test]
    fn root_reexecutes_phase_on_repeat_verdict() {
        let rb = ring_barrier(3);
        let mut rng = SimRng::seed_from_u64(0);
        let mut g = rb.initial_state();
        g[0] = PosState {
            sn: Sn::Val(1),
            cp: Cp::Success,
            ph: 2,
            done: true,
            post: true,
        };
        g[1] = PosState {
            sn: Sn::Val(1),
            cp: Cp::Success,
            ph: 2,
            done: true,
            post: true,
        };
        g[2] = PosState {
            sn: Sn::Val(1),
            cp: Cp::Repeat,
            ph: 2,
            done: false,
            post: true,
        };
        let s = rb.execute(&g, 0, RECV, &mut rng);
        assert_eq!(s.cp, Cp::Ready);
        assert_eq!(s.ph, 2, "repeat verdict: do not advance the phase");
    }

    #[test]
    fn root_advances_phase_on_clean_sweep() {
        let rb = ring_barrier(3);
        let mut rng = SimRng::seed_from_u64(0);
        let g = vec![
            PosState {
                sn: Sn::Val(1),
                cp: Cp::Success,
                ph: 2,
                done: true,
                post: true
            };
            3
        ];
        let s = rb.execute(&g, 0, RECV, &mut rng);
        assert_eq!(s.cp, Cp::Ready);
        assert_eq!(s.ph, 3);
    }

    #[test]
    fn fault_free_interleaved_run_cycles_phases() {
        let rb = ring_barrier(4);
        for seed in 0..10 {
            let mut exec = Interleaving::new(
                &rb,
                InterleavingConfig {
                    seed,
                    ..Default::default()
                },
            );
            let mut m = NullMonitor;
            // Run until phase 2 is visible at the root.
            let steps = exec.run_until(100_000, &mut m, |g| g[0].ph == 2);
            assert!(steps.is_some(), "seed {seed}: no progress to phase 2");
            // T3/T4/T5 never fire without faults.
            assert_eq!(exec.stats().count_of("T3"), 0);
            assert_eq!(exec.stats().count_of("T4"), 0);
            assert_eq!(exec.stats().count_of("T5"), 0);
        }
    }

    #[test]
    fn tree_barrier_also_cycles() {
        let tb = SweepBarrier::new(SweepDag::tree(8, 2).unwrap(), 4);
        let mut exec = Interleaving::new(&tb, InterleavingConfig::default());
        let mut m = NullMonitor;
        let steps = exec.run_until(200_000, &mut m, |g| g[0].ph == 3);
        assert!(steps.is_some(), "tree barrier made no progress");
    }

    #[test]
    fn double_tree_relays_do_not_work() {
        let dt = SweepBarrier::new(SweepDag::double_tree(7, 2).unwrap(), 4);
        // Process 1's worker position is its down position (1); its up
        // position is a relay.
        assert!(dt.is_worker(1));
        assert_eq!(dt.worker_position(1), 1);
        let relays: usize = (0..dt.dag().num_positions())
            .filter(|&p| !dt.is_worker(p))
            .count();
        assert_eq!(relays, 6, "7-process double tree has 6 relay positions");
        // Relays never enable WORK.
        let mut g = dt.initial_state();
        for s in g.iter_mut() {
            s.cp = Cp::Execute;
            s.done = false;
        }
        for pos in 0..g.len() {
            assert_eq!(dt.enabled(&g, pos, WORK), dt.is_worker(pos));
        }
    }

    #[test]
    fn relay_enters_execute_with_done_set() {
        let dt = SweepBarrier::new(SweepDag::double_tree(3, 2).unwrap(), 4);
        // positions: 0=root, 1,2=down, 3,4=up relays (preds: up(1)=3 <- 1).
        let mut rng = SimRng::seed_from_u64(0);
        let mut g = dt.initial_state();
        g[1] = PosState {
            sn: Sn::Val(1),
            cp: Cp::Execute,
            ph: 0,
            done: false,
            post: true,
        };
        // Relay 3 (up of process 1) receives the token.
        assert!(dt.enabled(&g, 3, RECV));
        let s = dt.execute(&g, 3, RECV, &mut rng);
        assert_eq!(s.cp, Cp::Execute);
        assert!(
            s.done,
            "relays carry done=true so they never gate the sweep"
        );
    }

    #[test]
    fn t3_t4_t5_repair_chain() {
        let rb = ring_barrier(3);
        let mut rng = SimRng::seed_from_u64(0);
        let mut g = vec![
            PosState {
                sn: Sn::Bot,
                cp: Cp::Error,
                ph: 0,
                done: false,
                post: true
            };
            3
        ];
        // T3 at the sink (position 2).
        assert!(rb.enabled(&g, 2, T3));
        assert!(!rb.enabled(&g, 1, T3));
        g[2] = rb.execute(&g, 2, T3, &mut rng);
        assert_eq!(g[2].sn, Sn::Top);
        // T4 propagates backward.
        assert!(rb.enabled(&g, 1, T4));
        g[1] = rb.execute(&g, 1, T4, &mut rng);
        assert!(rb.enabled(&g, 0, T4));
        g[0] = rb.execute(&g, 0, T4, &mut rng);
        // T5 resets the root.
        assert!(rb.enabled(&g, 0, T5));
        g[0] = rb.execute(&g, 0, T5, &mut rng);
        assert_eq!(g[0].sn, Sn::Val(0));
        // The RECV wave now repairs the rest.
        assert!(rb.enabled(&g, 1, RECV));
    }

    #[test]
    fn sn_domain_default_satisfies_both_bounds() {
        let rb = ring_barrier(5);
        // K > N and L > 2N+1.
        assert!(rb.sn_domain > 2 * 5 + 1);
    }

    #[test]
    #[should_panic]
    fn sn_domain_must_exceed_positions() {
        let _ = ring_barrier(5).with_sn_domain(5);
    }
}
