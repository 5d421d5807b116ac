//! `repro critpath`: measured critical-path attribution across topology
//! families — the happens-before DAG actually walked, not just the static
//! structure.
//!
//! Each family runs fault-free at N = [`CRITPATH_N`] with the causal
//! recorder on; the per-phase longest happens-before chains come from
//! [`CausalGraph::phase_critical_paths`]. Two gates — checked by [`passed`]
//! and enforced by `repro critpath`'s exit status:
//!
//! 1. the measured steady-state phase chain of every log-depth family
//!    (tree, dissemination, hypercube, butterfly) is shorter than the
//!    ring's, and
//! 2. every family's measured chain is at least its static
//!    [`SweepDag::critical_path`] — the structural depth is a *lower*
//!    bound on what a real sweep traverses, so a measurement below it
//!    means the tracing lost edges.
//!
//! A second table runs each family under detectable faults at a smaller N
//! and attributes the longest fault→detection→recovery episode: which
//! positions account for what fraction of the recovery chain.
//!
//! [`CausalGraph::phase_critical_paths`]: ftbarrier_telemetry::CausalGraph::phase_critical_paths
//! [`SweepDag::critical_path`]: ftbarrier_topology::SweepDag::critical_path

use crate::topo_exp::{spec_for, FAMILIES};
use ftbarrier_core::sim::{measure_phases_causal, PhaseExperiment};
use ftbarrier_telemetry::{CausalRecorder, Telemetry, TimeDomain};

/// The process count of the phase-chain comparison — the acceptance
/// gate's N.
pub const CRITPATH_N: usize = 1024;

/// The (smaller) process count of the episode-attribution table.
pub const EPISODE_N: usize = 256;

/// Families whose measured chain must beat the ring's.
pub const LOG_DEPTH: [&str; 4] = ["tree", "dissemination", "hypercube", "butterfly"];

/// One row of the measured-vs-static phase-chain comparison.
#[derive(Debug, Clone)]
pub struct CritRow {
    pub family: &'static str,
    pub n: usize,
    pub positions: usize,
    /// Static structural depth ([`ftbarrier_topology::SweepDag::critical_path`]).
    pub static_depth: usize,
    pub phases: u64,
    /// Median measured per-phase chain length over interior phases (hops).
    pub measured_median: usize,
    /// Longest measured per-phase chain (hops).
    pub measured_max: usize,
    /// Virtual time spanned by the longest phase chain.
    pub elapsed_max: f64,
    /// Events evicted from the recorder ring; nonzero voids the row (the
    /// measurement lost edges).
    pub dropped: u64,
    /// `(position, share)` attribution of the longest phase chain, top
    /// contributors first.
    pub shares: Vec<(u32, f64)>,
}

/// One row of the episode-attribution table: the longest measured
/// fault→detection→recovery chain of the run.
#[derive(Debug, Clone)]
pub struct EpisodeRow {
    pub family: &'static str,
    pub n: usize,
    /// Completed episodes in the run.
    pub episodes: usize,
    /// Longest episode chain (hops).
    pub path_len: usize,
    /// Virtual time that chain spans.
    pub path_elapsed: f64,
    /// Its top contributors, `(position, share)`.
    pub top: Vec<(u32, f64)>,
}

/// Measure one family's per-phase happens-before chains, fault-free.
pub fn measure_family(family: &'static str, n: usize, target_phases: u64) -> CritRow {
    let spec = spec_for(family, n);
    let dag = spec.build().expect("valid topology");
    let positions = dag.num_positions();
    let static_depth = dag.critical_path();
    drop(dag);
    // Size the recorder so a full-fidelity run never evicts: a fault-free
    // phase commits a handful of transitions per position, one lane each.
    let capacity = positions * (target_phases as usize + 2) * 8;
    let recorder = CausalRecorder::bounded(positions, capacity);
    let (m, _) = measure_phases_causal(
        &PhaseExperiment {
            topology: spec,
            target_phases,
            c: 0.01,
            f: 0.0,
            seed: 0xC817,
            ..Default::default()
        },
        &Telemetry::off(),
        &recorder,
    );
    let graph = recorder.snapshot();
    let by_phase = graph.phase_critical_paths();
    // Drop the lowest and highest phase labels: the warmup ramp and the
    // final partial phase are not steady state.
    let mut interior: Vec<(u32, ftbarrier_telemetry::CriticalPath)> =
        by_phase.into_iter().collect();
    if interior.len() > 2 {
        interior.remove(0);
        interior.pop();
    }
    let mut lens: Vec<usize> = interior.iter().map(|(_, p)| p.len).collect();
    lens.sort_unstable();
    let measured_median = lens.get(lens.len() / 2).copied().unwrap_or(0);
    let (measured_max, elapsed_max, shares) = interior
        .iter()
        .max_by(|a, b| a.1.len.cmp(&b.1.len))
        .map(|(_, p)| (p.len, p.elapsed, graph.attribution(p)))
        .unwrap_or((0, 0.0, Vec::new()));
    CritRow {
        family,
        n,
        positions,
        static_depth,
        phases: m.phases,
        measured_median,
        measured_max,
        elapsed_max,
        dropped: graph.dropped,
        shares: shares.into_iter().take(5).collect(),
    }
}

/// Measure one family's longest recovery-episode chain under detectable
/// faults.
pub fn measure_episode(family: &'static str, n: usize, target_phases: u64) -> EpisodeRow {
    let spec = spec_for(family, n);
    let positions = spec.build().expect("valid topology").num_positions();
    let capacity = positions * (target_phases as usize + 2) * 16;
    let recorder = CausalRecorder::bounded(positions, capacity);
    // The latency monitor only tracks recovery windows on an enabled
    // telemetry handle; the episode report needs those windows.
    let (_, episodes) = measure_phases_causal(
        &PhaseExperiment {
            topology: spec,
            target_phases,
            c: 0.01,
            f: 0.05,
            seed: 0xC817,
            ..Default::default()
        },
        &Telemetry::recording(TimeDomain::Virtual),
        &recorder,
    );
    let longest = episodes.iter().max_by(|a, b| a.path.len.cmp(&b.path.len));
    EpisodeRow {
        family,
        n,
        episodes: episodes.len(),
        path_len: longest.map_or(0, |e| e.path.len),
        path_elapsed: longest.map_or(0.0, |e| e.path.elapsed),
        top: longest.map_or(Vec::new(), |e| e.shares.iter().take(3).copied().collect()),
    }
}

/// All five families' phase-chain rows at [`CRITPATH_N`].
pub fn crit_rows(quick: bool) -> Vec<CritRow> {
    let target = if quick { 4 } else { 10 };
    FAMILIES
        .iter()
        .map(|&f| {
            eprintln!("  critpath: {f} n={CRITPATH_N} ({target} phases, causal tracing)…");
            measure_family(f, CRITPATH_N, target)
        })
        .collect()
}

/// All five families' episode rows at [`EPISODE_N`].
pub fn episode_rows(quick: bool) -> Vec<EpisodeRow> {
    let target = if quick { 8 } else { 30 };
    FAMILIES
        .iter()
        .map(|&f| {
            eprintln!("  critpath: {f} n={EPISODE_N} ({target} phases under faults)…");
            measure_episode(f, EPISODE_N, target)
        })
        .collect()
}

/// The acceptance gate over the phase-chain rows (see module docs).
pub fn passed(rows: &[CritRow]) -> bool {
    let row = |f: &str| rows.iter().find(|r| r.family == f);
    let Some(ring) = row("ring") else {
        return false;
    };
    let healthy = rows
        .iter()
        .all(|r| r.phases > 0 && r.dropped == 0 && r.measured_median >= r.static_depth);
    healthy
        && LOG_DEPTH
            .iter()
            .all(|f| row(f).is_some_and(|r| r.measured_median < ring.measured_median))
}

/// Render the phase-chain comparison as an aligned text table.
pub fn render_crit(rows: &[CritRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Measured happens-before critical path per phase at N = {CRITPATH_N} (fault-free)\n"
    ));
    out.push_str(
        "family         pos  static  phases  med chain  max chain   elapsed  dropped  top share\n",
    );
    for r in rows {
        let top = r
            .shares
            .first()
            .map_or(String::from("-"), |(pid, s)| format!("p{pid}={s:.2}"));
        out.push_str(&format!(
            "{:<12} {:>5} {:>7} {:>7} {:>10} {:>10} {:>9.3} {:>8}  {}\n",
            r.family,
            r.positions,
            r.static_depth,
            r.phases,
            r.measured_median,
            r.measured_max,
            r.elapsed_max,
            r.dropped,
            top
        ));
    }
    out
}

/// Render the episode-attribution table.
pub fn render_episodes(rows: &[EpisodeRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Longest recovery-episode chain at N = {EPISODE_N} (f = 0.05)\n"
    ));
    out.push_str("family        episodes  chain   elapsed  top contributors\n");
    for r in rows {
        let top = r
            .top
            .iter()
            .map(|(pid, s)| format!("p{pid}={s:.2}"))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!(
            "{:<12} {:>8} {:>6} {:>9.3}  {}\n",
            r.family, r.episodes, r.path_len, r.path_elapsed, top
        ));
    }
    out
}

fn fin(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// The `results/critpath.json` artifact (schema `critpath/v1`).
pub fn to_json(rows: &[CritRow], episodes: &[EpisodeRow]) -> String {
    let shares_json = |shares: &[(u32, f64)]| {
        let inner = shares
            .iter()
            .map(|(pid, s)| format!("[{pid}, {:.5}]", fin(*s)))
            .collect::<Vec<_>>()
            .join(", ");
        format!("[{inner}]")
    };
    let mut s = String::from("{\n  \"schema\": \"critpath/v1\",\n");
    s.push_str(&format!("  \"n\": {CRITPATH_N},\n  \"rows\": [\n"));
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"positions\": {}, \"static_depth\": {}, \"phases\": {}, \"measured_median\": {}, \"measured_max\": {}, \"elapsed_max\": {:.5}, \"dropped\": {}, \"shares\": {}}}{}\n",
            r.family,
            r.n,
            r.positions,
            r.static_depth,
            r.phases,
            r.measured_median,
            r.measured_max,
            fin(r.elapsed_max),
            r.dropped,
            shares_json(&r.shares),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"episodes\": [\n");
    for (i, r) in episodes.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"episodes\": {}, \"path_len\": {}, \"path_elapsed\": {:.5}, \"top\": {}}}{}\n",
            r.family,
            r.n,
            r.episodes,
            r.path_len,
            fin(r.path_elapsed),
            shares_json(&r.top),
            if i + 1 < episodes.len() { "," } else { "" }
        ));
    }
    s.push_str(&format!(
        "  ],\n  \"gate\": {{\"measured_ge_static\": true, \"log_depth_below_ring_at\": {CRITPATH_N}, \"passed\": {}}}\n}}\n",
        passed(rows)
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbarrier_telemetry::json;

    #[test]
    fn small_rows_satisfy_both_gates_and_json_is_valid() {
        // Small N keeps the debug-build test fast; the 1024 gate itself is
        // exercised by `repro critpath --quick` in CI (release build).
        let rows: Vec<CritRow> = FAMILIES.iter().map(|&f| measure_family(f, 64, 6)).collect();
        assert_eq!(rows.len(), 5);
        let ring = rows.iter().find(|r| r.family == "ring").unwrap();
        for r in &rows {
            assert!(r.phases >= 6, "{}: incomplete run", r.family);
            assert_eq!(r.dropped, 0, "{}: recorder evicted events", r.family);
            assert!(
                r.measured_median >= r.static_depth,
                "{}: measured {} below static depth {}",
                r.family,
                r.measured_median,
                r.static_depth
            );
            let total: f64 = r.shares.iter().map(|(_, s)| s).sum();
            assert!(total <= 1.0 + 1e-9, "{}: shares exceed 1", r.family);
        }
        for f in LOG_DEPTH {
            let r = rows.iter().find(|r| r.family == f).unwrap();
            assert!(
                r.measured_median < ring.measured_median,
                "{f}: measured {} not below ring {}",
                r.measured_median,
                ring.measured_median
            );
        }
        assert!(passed(&rows));

        let episodes: Vec<EpisodeRow> = FAMILIES
            .iter()
            .map(|&f| measure_episode(f, 32, 10))
            .collect();
        assert!(
            episodes.iter().any(|e| e.episodes > 0 && e.path_len > 0),
            "no recovery episode measured anywhere"
        );

        let artifact = to_json(&rows, &episodes);
        let parsed = json::parse(&artifact).expect("critpath.json parses");
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("critpath/v1")
        );
        assert_eq!(
            parsed
                .get("rows")
                .and_then(|v| v.as_array())
                .map(|a| a.len()),
            Some(5)
        );
        assert_eq!(
            parsed.get("gate").and_then(|g| g.get("passed")),
            Some(&json::Value::Bool(true))
        );
        let table = render_crit(&rows);
        for f in FAMILIES {
            assert!(table.contains(f), "missing {f}");
        }
        assert!(render_episodes(&episodes).contains("ring"));
    }

    #[test]
    fn gate_rejects_lost_edges_and_inverted_depth() {
        let mut rows: Vec<CritRow> = FAMILIES.iter().map(|&f| measure_family(f, 32, 4)).collect();
        assert!(passed(&rows));
        rows[0].dropped = 1;
        assert!(!passed(&rows), "evicted events must void the gate");
        rows[0].dropped = 0;
        rows[0].measured_median = 0;
        assert!(
            !passed(&rows),
            "a measurement below the static lower bound must fail"
        );
    }
}
