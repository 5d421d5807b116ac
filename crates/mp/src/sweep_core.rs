//! The sweep-program process state machine, backend-independent.
//!
//! [`SweepCore`] is §5's refinement — own variables plus local copies of
//! what the guards read — over an *arbitrary* sweep topology: process `pid`
//! owns its positions of the [`SweepDag`] and keeps a copy of every position
//! of every neighbour it hears from. The *logic* is not re-implemented: the
//! core evaluates the verified [`SweepBarrier`] guarded commands against its
//! local view, which is accurate wherever the guards look. Who hears from
//! whom is derived once, by [`subscriptions`]; the per-round partner schedule
//! of the log-depth topologies (dissemination, hypercube, butterfly) falls
//! out of it — nothing here is topology-specific.
//!
//! Like [`MbCore`](crate::proc::MbCore), the core knows no transport and no
//! clock: drivers see it as a [`Process`] and move its gossip through an
//! [`Endpoint`]`<`[`PosMsg`]`>`.

use crate::channel::Delivery;
use crate::proc::{record_causal, CpEvent, Process, Step};
use crate::transport::Endpoint;
use ftbarrier_core::sweep::{
    pos_in_domain, PosState, SweepBarrier, SweepByzantineFault, SweepDetectableFault, RECV, T3, T4,
    T5, WORK,
};
use ftbarrier_gcs::{ActionId, FaultAction, Protocol, SimRng, Time};
use ftbarrier_telemetry::{CausalRecorder, EventId};
use ftbarrier_topology::{Pos, SweepDag};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a sweep process gossips: the absolute state of one position it owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PosMsg {
    pub pos: Pos,
    pub state: PosState,
}

/// The gossip links of the sweep program over `dag`, as `(from, to)` process
/// pairs in link order: `to` hears from `from` iff a guard of `to` reads a
/// position `from` owns — a predecessor (RECV) or a successor (the T4 repair
/// wave) of one of its own.
pub fn subscriptions(dag: &SweepDag) -> BTreeSet<(usize, usize)> {
    let mut links = BTreeSet::new();
    for p in 0..dag.num_positions() {
        for &q in dag.preds(p).iter().chain(dag.succs(p)) {
            if dag.owner(q) != dag.owner(p) {
                links.insert((dag.owner(q), dag.owner(p)));
            }
        }
    }
    links
}

/// One sweep process: its view of the position states plus the bookkeeping
/// every driver shares.
pub struct SweepCore {
    pid: usize,
    program: Arc<SweepBarrier>,
    /// Own positions (authoritative) and copies of the neighbours'; the
    /// rest of the vector is never read.
    view: Vec<PosState>,
    /// Positions whose gossip this process accepts: every position of every
    /// process it hears from (a neighbour gossips all it owns on every link).
    hears: Vec<bool>,
    fan_out: u64,
    rng: SimRng,
    events: Vec<CpEvent>,
    seq: Arc<AtomicU64>,
    recorder: CausalRecorder,
    /// Causal tags of deliveries folded into `view` since the last recorded
    /// event; drained into that event's predecessor list.
    pending_tags: Vec<EventId>,
    /// Deliveries discarded because no honest neighbour can have sent them:
    /// a state outside the program's variable domains, or a position this
    /// process does not hear about — forged gossip convicted by inspection.
    pub forged_dropped: u64,
}

impl SweepCore {
    /// `links` is [`subscriptions`] of the program's topology; `seq` the
    /// run-global event counter and `recorder` the run's flight recorder,
    /// both shared by every process of the system.
    pub fn new(
        program: Arc<SweepBarrier>,
        pid: usize,
        links: &BTreeSet<(usize, usize)>,
        seed: u64,
        seq: Arc<AtomicU64>,
        recorder: CausalRecorder,
    ) -> SweepCore {
        let dag = program.dag();
        let mut hears = vec![false; dag.num_positions()];
        for &(from, _) in links.iter().filter(|&&(_, to)| to == pid) {
            for &q in dag.positions_of(from) {
                hears[q] = true;
            }
        }
        SweepCore {
            pid,
            view: program.initial_state(),
            hears,
            fan_out: links.iter().filter(|&&(from, _)| from == pid).count() as u64,
            rng: SimRng::seed_from_u64(seed),
            events: Vec::new(),
            seq,
            recorder,
            pending_tags: Vec::new(),
            forged_dropped: 0,
            program,
        }
    }

    fn worker(&self) -> Pos {
        self.program.worker_position(self.pid)
    }

    fn causal(&mut self, now: Time, label: &'static str) {
        let ph = self.view[self.worker()].ph;
        record_causal(
            &self.recorder,
            &mut self.pending_tags,
            self.pid,
            label,
            now,
            ph,
        );
    }

    /// Overwrite owned position `p`, logging a worker control-position
    /// change for the oracle.
    fn commit(&mut self, p: Pos, new: PosState, now: Time) {
        let old = std::mem::replace(&mut self.view[p], new);
        if p == self.worker() && old.cp != new.cp {
            self.events.push(CpEvent {
                at: now,
                seq: self.seq.fetch_add(1, Ordering::AcqRel),
                pid: self.pid,
                ph: new.ph,
                old: old.cp,
                new: new.cp,
            });
        }
    }

    /// Execute the enabled `action` at owned position `p`.
    fn fire(&mut self, p: Pos, action: ActionId, now: Time) -> Step {
        let old_ph = self.view[p].ph;
        let new = self.program.execute(&self.view, p, action, &mut self.rng);
        self.commit(p, new, now);
        self.causal(now, self.program.action_name(p, action));
        if p == SweepDag::ROOT && old_ph != new.ph {
            Step::Advanced
        } else {
            Step::Moved
        }
    }

    /// Inject the §4.1 detectable fault: every position of the process is
    /// flagged (`ph, cp, sn := ?, error, ⊥`).
    pub fn apply_poison(&mut self, now: Time) {
        let program = Arc::clone(&self.program);
        let detect = SweepDetectableFault {
            n_phases: program.n_phases(),
        };
        for &p in program.dag().positions_of(self.pid) {
            let mut s = self.view[p];
            detect.apply(self.pid, &mut s, &mut self.rng);
            self.commit(p, s, now);
        }
        self.causal(now, "fault:detectable");
    }

    /// Byzantine message forgery: one independent set of *out-of-domain*
    /// lies about the owned positions per outgoing link — the forger
    /// equivocates, telling every neighbour something different. The local
    /// view stays intact, modeling an in-flight forger rather than a
    /// corrupted process; the driver puts the lies on the wire.
    pub fn forge(&mut self, now: Time) -> Vec<Vec<PosMsg>> {
        self.causal(now, "fault:forgery");
        let byz = SweepByzantineFault {
            n_phases: self.program.n_phases(),
            sn_domain: self.program.sn_domain(),
        };
        (0..self.fan_out)
            .map(|_| {
                let owned = self.program.dag().positions_of(self.pid);
                owned
                    .iter()
                    .map(|&pos| {
                        let mut state = self.view[pos];
                        byz.apply(self.pid, &mut state, &mut self.rng);
                        PosMsg { pos, state }
                    })
                    .collect()
            })
            .collect()
    }

    /// The causal tag for outgoing gossip: this process's latest event.
    pub fn causal_tag(&self) -> Option<EventId> {
        self.recorder.last(self.pid)
    }

    /// Current phase of the process's ROOT position (meaningful at the
    /// process that owns it).
    pub fn root_phase(&self) -> u32 {
        self.view[SweepDag::ROOT].ph
    }
}

impl Process for SweepCore {
    type Msg = PosMsg;

    fn absorb(&mut self, d: Delivery<PosMsg>, tag: Option<EventId>) {
        let Delivery::Ok(m) = d else { return };
        // An honest neighbour only ever gossips in-domain states of its own
        // positions. Anything else — a position out of range, owned by this
        // process, or owned by a process it does not hear from — cannot
        // have been honestly produced and must not launder into the view.
        let heard = self.hears.get(m.pos).copied().unwrap_or(false);
        if !heard || !pos_in_domain(&m.state, self.program.n_phases(), self.program.sn_domain()) {
            self.forged_dropped += 1;
            return;
        }
        self.view[m.pos] = m.state;
        self.pending_tags.extend(tag);
    }

    /// Fire the first enabled guarded command over the owned positions. The
    /// phase body (`WORK`) is the driver's to run: reaching it stops the
    /// scan with [`Process::needs_work`] set.
    fn step(&mut self, now: Time) -> Step {
        let owned = self.program.dag().positions_of(self.pid);
        let enabled = owned.iter().find_map(|&p| {
            [RECV, WORK, T3, T4, T5]
                .into_iter()
                .find(|&a| self.program.enabled(&self.view, p, a))
                .map(|a| (p, a))
        });
        match enabled {
            None | Some((_, WORK)) => Step::Idle,
            Some((p, action)) => self.fire(p, action, now),
        }
    }

    fn needs_work(&self) -> bool {
        self.program.enabled(&self.view, self.worker(), WORK)
    }

    fn phase(&self) -> u32 {
        self.view[self.worker()].ph
    }

    fn work_done(&mut self, now: Time) {
        self.fire(self.worker(), WORK, now);
    }

    fn gossip<E: Endpoint<PosMsg> + ?Sized>(&self, ep: &mut E) -> u64 {
        let tag = self.causal_tag();
        for &pos in self.program.dag().positions_of(self.pid) {
            let state = self.view[pos];
            ep.send_tagged(PosMsg { pos, state }, tag);
        }
        ep.flush();
        self.fan_out
    }

    fn record_heartbeat(&mut self, now: Time) {
        self.causal(now, "retransmit");
    }

    fn record_fail_stop(&mut self, now: Time) {
        self.causal(now, "fault:stop");
    }

    fn events(&mut self) -> &mut Vec<CpEvent> {
        &mut self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbarrier_core::{Cp, Sn};

    fn core_on(dag: SweepDag, pid: usize) -> SweepCore {
        let links = subscriptions(&dag);
        SweepCore::new(
            Arc::new(SweepBarrier::new(dag, 8)),
            pid,
            &links,
            7,
            Arc::new(AtomicU64::new(0)),
            CausalRecorder::off(),
        )
    }

    /// Process 1 of `ring(4)`: owns position 1, hears from 0 (position 0)
    /// and from 2 (position 2), not from 3.
    fn core() -> SweepCore {
        core_on(SweepDag::ring(4).unwrap(), 1)
    }

    fn moved() -> PosState {
        PosState {
            sn: Sn::Val(1),
            cp: Cp::Execute,
            ph: 0,
            done: false,
            post: true,
        }
    }

    fn ok(pos: Pos, state: PosState) -> Delivery<PosMsg> {
        Delivery::Ok(PosMsg { pos, state })
    }

    #[test]
    fn ring_subscriptions_are_both_neighbours() {
        let links = subscriptions(&SweepDag::ring(4).unwrap());
        let expect: BTreeSet<(usize, usize)> = (0..4)
            .flat_map(|p| [(p, (p + 1) % 4), ((p + 1) % 4, p)])
            .collect();
        assert_eq!(links, expect);
    }

    #[test]
    fn honest_gossip_is_absorbed_and_corruption_is_masked_as_loss() {
        let mut c = core();
        c.absorb(ok(0, moved()), None);
        assert_eq!(c.view[0], moved());
        c.absorb(Delivery::Corrupted, None);
        assert_eq!(c.forged_dropped, 0);
        assert_eq!(c.step(Time::ZERO), Step::Moved, "T2 fires on the new copy");

        // Process 0 of `dissemination(4, 2)` owns positions 0, 1, 5, 9 and
        // gossips all four on every link; process 1's guards read only 0
        // and 1. The rest ride along and are kept, not convicted.
        let mut c = core_on(SweepDag::dissemination(4, 2).unwrap(), 1);
        c.absorb(ok(5, moved()), None);
        assert_eq!(c.view[5], moved());
        assert_eq!(c.forged_dropped, 0);
    }

    #[test]
    fn out_of_domain_state_is_dropped_and_counted() {
        let mut c = core();
        let l = c.program.sn_domain();
        for forged in [
            PosState {
                sn: Sn::Val(l),
                ..moved()
            },
            PosState { ph: 8, ..moved() },
        ] {
            c.absorb(ok(0, forged), None);
        }
        assert_eq!(c.forged_dropped, 2);
        assert_eq!(c.view[0], PosState::start());
    }

    #[test]
    fn out_of_range_position_is_dropped_and_counted() {
        let mut c = core();
        c.absorb(ok(4, moved()), None);
        c.absorb(ok(usize::MAX, moved()), None);
        assert_eq!(c.forged_dropped, 2);
    }

    #[test]
    fn forgery_naming_the_receivers_own_position_cannot_overwrite_it() {
        let mut c = core();
        c.absorb(ok(1, moved()), None);
        assert_eq!(c.forged_dropped, 1);
        assert_eq!(c.view[1], PosState::start(), "own state is authoritative");
        assert_eq!(c.step(Time::ZERO), Step::Idle);
    }

    #[test]
    fn position_of_a_process_it_does_not_hear_from_is_dropped_and_counted() {
        let mut c = core();
        c.absorb(ok(3, moved()), None);
        assert_eq!(c.forged_dropped, 1);
        assert_eq!(c.view[3], PosState::start());
    }

    #[test]
    fn the_phase_body_gates_the_scan_until_the_driver_runs_it() {
        let mut c = core();
        c.absorb(ok(0, moved()), None);
        assert_eq!(c.step(Time::ZERO), Step::Moved);
        assert!(c.needs_work());
        assert_eq!(c.step(Time::ZERO), Step::Idle, "WORK is the driver's");
        c.work_done(Time::ZERO);
        assert!(!c.needs_work());
        assert_eq!(c.events.len(), 1, "ready -> execute was logged");
    }
}
