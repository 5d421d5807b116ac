//! Fault-detection and recovery latency instrumentation — the paper's
//! central cost claim (§4: O(N) dissemination on the ring vs O(h) on
//! trees) turned into measured histograms.
//!
//! [`SweepLatencyMonitor`] watches a sweep program's `cp` transitions and
//! records, per topology:
//!
//! - **detection latency** — a detectable fault is injected at `t_f`
//!   (`cp := error` on the victim); the fault is *detected* when any
//!   position first transitions into [`Cp::Repeat`], i.e. a sweep observed
//!   the corruption. The histogram sample is `t_detect − t_f`.
//! - **recovery latency** — from detection until every worker position is
//!   simultaneously back in [`Cp::Ready`], i.e. the re-execution wave has
//!   drained. The sample is `t_ready − t_detect`.
//!
//! Faults that land while a recovery window is open are counted
//! (`sweep_overlapping_faults_total`) but do not reopen the window — the
//! window measures one dissemination wave, and overlapping waves are
//! attributed to the first. This is the same simplification the paper's
//! analytic `(1−f)^d` model makes by treating fault arrivals per instance.
//!
//! Not every detectable fault triggers a wave: one that lands between
//! sweeps, while the victim's predecessor shows `ready`, is healed by the
//! normal `ready` propagation without any `repeat` transition (the
//! corrupted control state is simply re-copied; no phase work was lost).
//! Those faults are counted as `sweep_masked_faults_total` and excluded
//! from the detection-latency histogram rather than mis-attributed to the
//! next genuine wave.
//!
//! Like every monitor, this is a pure observer: attaching it cannot change
//! the run (asserted by the telemetry differential tests).

use crate::cp::Cp;
use crate::sweep::{PosState, SweepBarrier};
use ftbarrier_gcs::{ActionId, FaultKind, Monitor, Pid, Time};
use ftbarrier_telemetry::{CausalRecorder, CriticalPath, Telemetry, TrackId};

/// An open recovery window: detection happened, waiting for all workers to
/// re-enter `ready`.
struct Window {
    injected_at: Time,
    detected_at: Time,
    ready: Vec<bool>,
    missing: usize,
}

/// One completed fault→detection→recovery episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEpisode {
    pub injected_at: Time,
    pub detected_at: Time,
    pub recovered_at: Time,
}

/// The measured critical path of one recovery episode: the longest
/// happens-before chain inside the episode's time window and the fraction
/// of its events each position contributed.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeAttribution {
    pub episode: RecoveryEpisode,
    pub path: CriticalPath,
    /// `(position, share)` sorted by descending share then ascending
    /// position; shares sum to 1.
    pub shares: Vec<(u32, f64)>,
}

/// Records detection/recovery latency histograms and recovery-window spans
/// for one sweep-program run.
pub struct SweepLatencyMonitor {
    telemetry: Telemetry,
    topo: String,
    worker: Vec<bool>,
    track: TrackId,
    /// `(injection time, victim position)` of the oldest undetected
    /// detectable fault.
    pending_fault: Option<(Time, usize)>,
    window: Option<Window>,
    /// Completed recovery windows, in order — `(detected_at, recovered_at)`.
    pub windows: Vec<(Time, Time)>,
    /// Completed episodes with their injection times — the attribution
    /// report's unit of analysis.
    pub episodes: Vec<RecoveryEpisode>,
    /// Causal recorder consulted by [`Self::attribution_report`]; off by
    /// default (scalar latencies only, as before).
    causal: CausalRecorder,
}

impl SweepLatencyMonitor {
    pub fn new(program: &SweepBarrier, topo_label: &str, telemetry: Telemetry) -> Self {
        let dag = program.dag();
        let track = telemetry.track(&format!("recovery ({topo_label})"));
        SweepLatencyMonitor {
            telemetry,
            topo: topo_label.to_owned(),
            worker: (0..dag.num_positions())
                .map(|p| program.is_worker(p))
                .collect(),
            track,
            pending_fault: None,
            window: None,
            windows: Vec::new(),
            episodes: Vec::new(),
            causal: CausalRecorder::off(),
        }
    }

    /// Attach a causal recorder (shared with a `CausalMonitor` on the same
    /// run) so [`Self::attribution_report`] can resolve each episode's
    /// measured critical path.
    pub fn with_causal(mut self, recorder: CausalRecorder) -> Self {
        self.causal = recorder;
        self
    }

    /// Upgrade the scalar latencies into an attribution report: for every
    /// completed fault→detection→recovery episode, the longest
    /// happens-before chain inside the episode window and each position's
    /// share of it — *which* positions account for *what fraction* of the
    /// detection+recovery time, not just how long it took. Empty when no
    /// causal recorder was attached or no episode completed.
    pub fn attribution_report(&self) -> Vec<EpisodeAttribution> {
        if !self.causal.is_enabled() {
            return Vec::new();
        }
        let graph = self.causal.snapshot();
        self.episodes
            .iter()
            .map(|&episode| {
                let path = graph.critical_path_between(
                    episode.injected_at.as_f64(),
                    episode.recovered_at.as_f64(),
                );
                let shares = graph.attribution(&path);
                EpisodeAttribution {
                    episode,
                    path,
                    shares,
                }
            })
            .collect()
    }

    fn topo_labels(&self) -> [(&str, &str); 1] {
        [("topo", self.topo.as_str())]
    }

    fn observe(
        &mut self,
        now: Time,
        pos: usize,
        old: &PosState,
        new: &PosState,
        global: &[PosState],
    ) {
        if let Some(w) = &mut self.window {
            // Track the all-ready condition over worker positions.
            if self.worker[pos] {
                let was = w.ready[pos];
                let is = new.cp == Cp::Ready;
                if was != is {
                    w.ready[pos] = is;
                    if is {
                        w.missing -= 1;
                    } else {
                        w.missing += 1;
                    }
                }
                if w.missing == 0 {
                    let injected_at = w.injected_at;
                    let detected_at = w.detected_at;
                    self.window = None;
                    self.windows.push((detected_at, now));
                    self.episodes.push(RecoveryEpisode {
                        injected_at,
                        detected_at,
                        recovered_at: now,
                    });
                    self.telemetry.observe(
                        "recovery_latency",
                        &self.topo_labels(),
                        (now - detected_at).as_f64(),
                    );
                    self.telemetry.span_with(
                        self.track,
                        "recovery",
                        detected_at.as_f64(),
                        now.as_f64(),
                        &[("topo", self.topo.as_str())],
                    );
                }
            }
            return;
        }
        // No window open: look for the detection of a pending fault.
        if let Some((t_fault, victim)) = self.pending_fault {
            // Any position entering `repeat` — worker or relay — counts as
            // the computation observing the corruption.
            if new.cp == Cp::Repeat && old.cp != Cp::Repeat {
                self.pending_fault = None;
                self.telemetry.observe(
                    "detection_latency",
                    &self.topo_labels(),
                    (now - t_fault).as_f64(),
                );
                self.telemetry.instant_with(
                    self.track,
                    "detected",
                    now.as_f64(),
                    &[("topo", self.topo.as_str())],
                );
                let ready: Vec<bool> = global
                    .iter()
                    .enumerate()
                    .map(|(p, s)| self.worker[p] && s.cp == Cp::Ready)
                    .collect();
                let missing = self
                    .worker
                    .iter()
                    .zip(&ready)
                    .filter(|&(&w, &r)| w && !r)
                    .count();
                if missing == 0 {
                    // Detection observed with everyone already ready
                    // (possible when the victim itself healed first).
                    self.windows.push((now, now));
                    self.episodes.push(RecoveryEpisode {
                        injected_at: t_fault,
                        detected_at: now,
                        recovered_at: now,
                    });
                    self.telemetry
                        .observe("recovery_latency", &self.topo_labels(), 0.0);
                } else {
                    self.window = Some(Window {
                        injected_at: t_fault,
                        detected_at: now,
                        ready,
                        missing,
                    });
                }
            } else if pos == victim && old.cp == Cp::Error && new.cp != Cp::Error {
                // The victim healed without a repeat wave: its predecessor
                // showed `ready`, so the corrupted control state was simply
                // overwritten (sweep/program.rs nonroot_update, `ready`
                // arm). The fault was masked, not detected.
                self.pending_fault = None;
                self.telemetry
                    .counter("sweep_masked_faults_total", &self.topo_labels(), 1);
            }
        }
    }
}

impl Monitor<PosState> for SweepLatencyMonitor {
    fn on_transition(
        &mut self,
        now: Time,
        pos: Pid,
        _action: ActionId,
        _name: &str,
        old: &PosState,
        new: &PosState,
        global: &[PosState],
    ) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.observe(now, pos, old, new, global);
    }

    fn on_fault(
        &mut self,
        now: Time,
        pos: Pid,
        kind: FaultKind,
        old: &PosState,
        new: &PosState,
        global: &[PosState],
    ) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let kind_label = match kind {
            FaultKind::Detectable => "detectable",
            FaultKind::Undetectable => "undetectable",
        };
        self.telemetry.counter(
            "sweep_faults_total",
            &[("kind", kind_label), ("topo", self.topo.as_str())],
            1,
        );
        self.telemetry.instant_with(
            self.track,
            "fault",
            now.as_f64(),
            &[("kind", kind_label), ("pos", &pos.to_string())],
        );
        if kind == FaultKind::Detectable {
            if self.window.is_some() {
                self.telemetry
                    .counter("sweep_overlapping_faults_total", &self.topo_labels(), 1);
            } else if self.pending_fault.is_none() {
                self.pending_fault = Some((now, pos));
            }
        }
        // The fault perturbs the victim's state too (e.g. out of `ready`).
        self.observe(now, pos, old, new, global);
    }
}

#[cfg(test)]
mod tests {
    use crate::sim::{measure_phases_with_telemetry, PhaseExperiment, TopologySpec};
    use ftbarrier_telemetry::{Telemetry, TimeDomain, TimelineEvent};

    #[test]
    fn faulty_run_records_detection_and_recovery_latencies() {
        let tele = Telemetry::recording(TimeDomain::Virtual);
        let m = measure_phases_with_telemetry(
            &PhaseExperiment {
                topology: TopologySpec::Tree { n: 8, arity: 2 },
                target_phases: 60,
                c: 0.01,
                f: 0.05,
                seed: 42,
                ..Default::default()
            },
            &tele,
        );
        assert!(m.faults > 0, "faults should have fired");
        let snap = tele.snapshot();
        let det = snap
            .metrics
            .histogram("detection_latency", &[("topo", "tree")])
            .expect("detection latency recorded");
        assert!(det.count() > 0);
        assert!(det.max() > 0.0);
        let rec = snap
            .metrics
            .histogram("recovery_latency", &[("topo", "tree")])
            .expect("recovery latency recorded");
        assert!(rec.count() > 0);
        // Quantiles come out ordered.
        assert!(rec.quantile(0.5) <= rec.quantile(0.9));
        assert!(rec.quantile(0.9) <= rec.quantile(0.99));
        assert!(rec.quantile(0.99) <= rec.max());
        // Recovery windows render as spans on the recovery track.
        assert!(snap
            .events
            .iter()
            .any(|e| matches!(e, TimelineEvent::Span { name, .. } if name == "recovery")));
        // Per-phase timings were bridged in.
        assert!(snap
            .metrics
            .histogram("phase_time", &[("topo", "tree")])
            .is_some_and(|h| h.count() + 1 >= m.phases));
    }

    #[test]
    fn attribution_report_decomposes_recovery_episodes() {
        use crate::sim::measure_phases_causal;
        use ftbarrier_telemetry::CausalRecorder;

        let tele = Telemetry::recording(TimeDomain::Virtual);
        let recorder = CausalRecorder::bounded(8, 1 << 18);
        let (m, report) = measure_phases_causal(
            &PhaseExperiment {
                topology: TopologySpec::Tree { n: 8, arity: 2 },
                target_phases: 60,
                c: 0.01,
                f: 0.05,
                seed: 42,
                ..Default::default()
            },
            &tele,
            &recorder,
        );
        assert!(m.faults > 0);
        assert!(!report.is_empty(), "faulty run must complete episodes");
        for a in &report {
            assert!(a.episode.injected_at <= a.episode.detected_at);
            assert!(a.episode.detected_at <= a.episode.recovered_at);
            // The measured chain is non-trivial and its shares decompose
            // the episode: they sum to 1 and come sorted by share.
            assert!(a.path.len >= 1, "empty critical path for {:?}", a.episode);
            let total: f64 = a.shares.iter().map(|&(_, s)| s).sum();
            assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
            for w in a.shares.windows(2) {
                assert!(w[0].1 >= w[1].1, "shares not sorted: {:?}", a.shares);
            }
        }
        // The scalar histograms and the report describe the same episodes.
        let snap = tele.snapshot();
        let recoveries = snap
            .metrics
            .histogram("recovery_latency", &[("topo", "tree")])
            .map_or(0, |h| h.count());
        assert_eq!(report.len() as u64, recoveries);
    }

    #[test]
    fn causal_recording_does_not_perturb_the_measurement() {
        use crate::sim::measure_phases_causal;
        use ftbarrier_telemetry::CausalRecorder;

        let exp = PhaseExperiment {
            topology: TopologySpec::Ring { n: 6 },
            target_phases: 30,
            c: 0.01,
            f: 0.05,
            seed: 7,
            ..Default::default()
        };
        let plain = measure_phases_with_telemetry(&exp, &Telemetry::off());
        let (armed, _) = measure_phases_causal(
            &exp,
            &Telemetry::off(),
            &CausalRecorder::bounded(6, 1 << 18),
        );
        assert_eq!(plain, armed, "arming the recorder changed the run");
    }

    #[test]
    fn fault_free_run_records_no_latency_histograms() {
        let tele = Telemetry::recording(TimeDomain::Virtual);
        measure_phases_with_telemetry(
            &PhaseExperiment {
                topology: TopologySpec::Ring { n: 6 },
                target_phases: 10,
                f: 0.0,
                ..Default::default()
            },
            &tele,
        );
        let snap = tele.snapshot();
        assert!(snap
            .metrics
            .histogram("detection_latency", &[("topo", "ring")])
            .is_none());
        assert!(snap
            .metrics
            .histogram("recovery_latency", &[("topo", "ring")])
            .is_none());
    }
}
