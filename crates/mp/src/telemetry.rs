//! What every backend does with its merged [`CpEvent`] log once the run is
//! over: [`replay`] it through the barrier specification oracle, and replay
//! it into telemetry — per-process phase spans, fault instants, and
//! phase-duration histograms.
//!
//! Telemetry is recorded *after* the run from the same event log the oracle
//! replays, so enabling it cannot perturb execution: the simulated backend
//! keeps an identical run log ([`TraceLog`](crate::sim::TraceLog)), and
//! the threaded backend's protocol path is untouched.

use crate::proc::CpEvent;
use ftbarrier_core::spec::{Anchor, BarrierOracle, OracleConfig, Violation};
use ftbarrier_core::Cp;
use ftbarrier_gcs::Time;
use ftbarrier_telemetry::Telemetry;

/// What replaying a merged [`CpEvent`] log through the barrier
/// specification oracle found.
#[derive(Debug, Default)]
pub struct Replay {
    pub violations: Vec<Violation>,
    /// Successful phases per the oracle.
    pub phases_completed: u64,
    /// Instances consumed per successful phase.
    pub instance_counts: Vec<u64>,
    /// Successful phases within the last membership segment.
    pub phases_after_last_change: u64,
}

/// Sort the merged event log of an `n`-process run into global commit order
/// (the shared `seq` counter respects per-process program order and message
/// causality even when many events share one timestamp) and replay it
/// through the oracle.
pub fn replay(n_phases: u32, n: usize, events: &mut [CpEvent]) -> Replay {
    events.sort_by_key(|e| e.seq);
    replay_segments(n_phases, n, events, &[(0, (0..n).collect())])
}

/// Replay a `seq`-ordered event log through the barrier specification
/// oracle, one oracle per membership segment `(first event seq, members)`.
/// With a single segment (no reconfiguration) this is the classic whole-run
/// strict replay. After a reconfiguration the instance straddling the
/// boundary is exempt (§4.1 allows the in-flight phase to be re-executed);
/// the oracle re-attaches at the first fresh instance the root opens in the
/// new view, with membership pids compacted to the oracle's contiguous
/// process ids.
pub fn replay_segments(
    n_phases: u32,
    n: usize,
    events: &[CpEvent],
    segments: &[(u64, Vec<usize>)],
) -> Replay {
    let mut out = Replay::default();
    for (i, (from, members)) in segments.iter().enumerate() {
        let to = segments.get(i + 1).map_or(u64::MAX, |s| s.0);
        let mut vpid: Vec<Option<usize>> = vec![None; n];
        for (v, &p) in members.iter().enumerate() {
            vpid[p] = Some(v);
        }
        let mut oracle = BarrierOracle::new(OracleConfig {
            n_processes: members.len(),
            n_phases,
            anchor: if i == 0 {
                Anchor::StrictFromZero
            } else {
                Anchor::Free
            },
        });
        let mut attached = i == 0;
        for e in events.iter().filter(|e| e.seq >= *from && e.seq < to) {
            let Some(p) = vpid[e.pid] else { continue };
            if !attached {
                // The execute sweep starts at the root, so the root's start
                // is the first event of any fresh instance.
                if e.pid == 0 && e.new == Cp::Execute {
                    attached = true;
                } else {
                    continue;
                }
            }
            oracle.observe_cp(e.at, p, e.ph, e.old, e.new);
        }
        out.violations.extend(oracle.violations().iter().cloned());
        out.phases_completed += oracle.phases_completed();
        out.instance_counts
            .extend_from_slice(oracle.instance_counts());
        out.phases_after_last_change = oracle.phases_completed();
    }
    out
}

/// Replay `events` (sorted by `seq`) into `telemetry`: a `proc <pid>` track
/// per process with one span per phase execution (`outcome` = `success` /
/// `abort`), instants for detectable faults, and an `mb_phase_duration`
/// histogram. Spans still open at `end` are closed there with
/// `outcome="unfinished"` and not counted in the histogram.
pub fn record_cp_timeline(telemetry: &Telemetry, events: &[CpEvent], end: Time) {
    if !telemetry.is_enabled() || events.is_empty() {
        return;
    }
    let n = 1 + events.iter().map(|e| e.pid).max().unwrap_or(0);
    let tracks: Vec<_> = (0..n)
        .map(|p| telemetry.track(&format!("proc {p}")))
        .collect();
    let mut open: Vec<Option<(u32, Time)>> = vec![None; n];
    let close = |pid: usize, ph: u32, start: Time, at: Time, outcome: &str| {
        telemetry.span_with(
            tracks[pid],
            &format!("phase {ph}"),
            start.as_f64(),
            at.max(start).as_f64(),
            &[("outcome", outcome)],
        );
        if outcome != "unfinished" {
            telemetry.observe(
                "mb_phase_duration",
                &[("outcome", outcome)],
                at.max(start).saturating_sub(start).as_f64(),
            );
        }
    };
    for e in events {
        if e.new == Cp::Error {
            telemetry.instant_with(
                tracks[e.pid],
                "fault:detectable",
                e.at.as_f64(),
                &[("pid", &e.pid.to_string())],
            );
        }
        if e.old != Cp::Execute && e.new == Cp::Execute {
            open[e.pid] = Some((e.ph, e.at));
        } else if e.old == Cp::Execute && e.new != Cp::Execute {
            if let Some((ph, start)) = open[e.pid].take() {
                let outcome = if e.new == Cp::Success {
                    "success"
                } else {
                    "abort"
                };
                close(e.pid, ph, start, e.at, outcome);
            }
        }
    }
    for (pid, slot) in open.iter_mut().enumerate() {
        if let Some((ph, start)) = slot.take() {
            close(pid, ph, start, end, "unfinished");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbarrier_telemetry::{TimeDomain, TimelineEvent};

    fn ev(seq: u64, pid: usize, ph: u32, old: Cp, new: Cp, at: f64) -> CpEvent {
        CpEvent {
            at: Time::new(at),
            seq,
            pid,
            ph,
            old,
            new,
        }
    }

    #[test]
    fn replay_builds_spans_and_histogram() {
        let tele = Telemetry::recording(TimeDomain::Virtual);
        let events = vec![
            ev(1, 0, 0, Cp::Ready, Cp::Execute, 0.0),
            ev(2, 1, 0, Cp::Ready, Cp::Execute, 0.1),
            ev(3, 0, 0, Cp::Execute, Cp::Success, 1.0),
            ev(4, 1, 0, Cp::Execute, Cp::Repeat, 1.2),
            ev(5, 1, 1, Cp::Ready, Cp::Execute, 1.5),
        ];
        record_cp_timeline(&tele, &events, Time::new(2.0));
        let snap = tele.snapshot();
        assert_eq!(snap.tracks, vec!["proc 0".to_owned(), "proc 1".to_owned()]);
        let spans: Vec<_> = snap
            .events
            .iter()
            .filter_map(|e| match e {
                TimelineEvent::Span {
                    name,
                    start,
                    end,
                    args,
                    ..
                } => Some((name.clone(), *start, *end, args.clone())),
                _ => None,
            })
            .collect();
        // success [0,1], abort [0.1,1.2], unfinished [1.5,2].
        assert_eq!(spans.len(), 3);
        let h = snap
            .metrics
            .histogram("mb_phase_duration", &[("outcome", "success")])
            .expect("success histogram");
        assert_eq!(h.count(), 1);
        assert!((h.sum() - 1.0).abs() < 1e-12);
        assert_eq!(
            snap.metrics
                .histogram("mb_phase_duration", &[("outcome", "abort")])
                .map(|h| h.count()),
            Some(1)
        );
        // Unfinished spans stay out of the histogram.
        assert!(snap
            .metrics
            .histogram("mb_phase_duration", &[("outcome", "unfinished")])
            .is_none());
    }

    #[test]
    fn fault_events_become_instants() {
        let tele = Telemetry::recording(TimeDomain::Wall);
        let events = vec![ev(1, 2, 3, Cp::Execute, Cp::Error, 0.5)];
        record_cp_timeline(&tele, &events, Time::new(1.0));
        let snap = tele.snapshot();
        assert!(snap.events.iter().any(
            |e| matches!(e, TimelineEvent::Instant { name, .. } if name == "fault:detectable")
        ));
    }

    #[test]
    fn disabled_handle_is_noop() {
        let tele = Telemetry::off();
        record_cp_timeline(
            &tele,
            &[ev(1, 0, 0, Cp::Ready, Cp::Execute, 0.0)],
            Time::new(1.0),
        );
        assert!(tele.snapshot().events.is_empty());
    }
}
