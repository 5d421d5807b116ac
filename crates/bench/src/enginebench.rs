//! Engine-throughput benchmark behind `repro bench`.
//!
//! Measures (a) raw engine events/sec on large-N barriers under the
//! incremental scheduler and the full-rescan reference scheduler, and
//! (b) wall time of the Fig 5 sweep serial vs fanned across all cores.
//! Results are reported as a JSON document (written to `BENCH_engine.json`
//! by the `repro` binary) so throughput regressions are diffable.
//!
//! Every row records the case size `n`, and the document records
//! `available_parallelism` at the top level, so a run on a 1-core container
//! is legible as such: the Fig 5 parallel ratio is reported as `null` with a
//! reason string instead of a misleading ~1.0.

use crate::figures;
use crate::parallel::available_parallelism;
use ftbarrier_core::sweep::SweepBarrier;
use ftbarrier_gcs::fault::NoFaults;
use ftbarrier_gcs::{Engine, EngineConfig, NullMonitor, Time};
use ftbarrier_topology::SweepDag;
use std::time::Instant;

/// One engine-throughput measurement.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    pub case_name: &'static str,
    /// Nominal case size (the N in `ring_N` / `tree_N`).
    pub n: usize,
    /// `"incremental"` or `"full_rescan"` (the reference scheduler).
    pub mode: &'static str,
    pub events: u64,
    pub wall_s: f64,
    pub events_per_s: f64,
}

/// One sweep-timing measurement.
#[derive(Debug, Clone)]
pub struct SweepRow {
    pub workers: usize,
    pub wall_s: f64,
}

#[derive(Debug, Clone)]
pub struct BenchReport {
    /// `std::thread::available_parallelism()` at measurement time.
    pub available_parallelism: usize,
    pub engine: Vec<ThroughputRow>,
    pub sweep: Vec<SweepRow>,
}

/// Scheduler modes for the moderate-N cases.
const ALL_MODES: &[&str] = &["incremental", "full_rescan"];
/// Full-rescan is Θ(N) per event, which at N ≥ 10⁵ would dominate the
/// suite's wall time for no insight; the large cases time the incremental
/// scheduler only.
const LARGE_MODES: &[&str] = &["incremental"];

struct Case {
    name: &'static str,
    n: usize,
    program: SweepBarrier,
    modes: &'static [&'static str],
}

fn tree(n: usize) -> SweepBarrier {
    SweepBarrier::new(SweepDag::tree(n, 2).unwrap(), 8).with_costs(Time::new(0.01), Time::new(1.0))
}

fn ring(n: usize) -> SweepBarrier {
    SweepBarrier::new(SweepDag::ring(n).unwrap(), 8).with_costs(Time::new(0.01), Time::new(1.0))
}

fn cases(quick: bool) -> Vec<Case> {
    let mut v = vec![
        Case {
            name: "tree_1024",
            n: 1024,
            program: tree(1024),
            modes: ALL_MODES,
        },
        Case {
            name: "ring_512",
            n: 512,
            program: ring(512),
            modes: ALL_MODES,
        },
        Case {
            name: "ring_100000",
            n: 100_000,
            program: ring(100_000),
            modes: LARGE_MODES,
        },
        Case {
            name: "tree_100000",
            n: 100_000,
            program: tree(100_000),
            modes: LARGE_MODES,
        },
    ];
    if !quick {
        v.push(Case {
            name: "ring_1000000",
            n: 1_000_000,
            program: ring(1_000_000),
            modes: LARGE_MODES,
        });
    }
    v
}

fn measure_engine(program: &SweepBarrier, commits: u64, full_rescan: bool) -> (u64, f64) {
    let mut engine = Engine::new(program, 7);
    let config = EngineConfig {
        max_commits: Some(commits),
        full_rescan,
        ..Default::default()
    };
    let start = Instant::now();
    let out = engine.run(&config, &mut NoFaults, &mut NullMonitor);
    let wall = start.elapsed().as_secs_f64();
    assert!(out.stats.actions_executed >= commits);
    (out.stats.actions_executed, wall)
}

/// Run the full benchmark suite. `quick` shrinks the commit budget, drops
/// the N = 10⁶ case, and trims the sweep grid (CI smoke); throughput
/// numbers for CHANGES.md come from a full run.
pub fn run(quick: bool) -> BenchReport {
    let commits: u64 = if quick { 20_000 } else { 200_000 };
    let avail = available_parallelism();

    let mut engine = Vec::new();
    for case in cases(quick) {
        for &mode in case.modes {
            let (events, wall_s) = measure_engine(&case.program, commits, mode == "full_rescan");
            engine.push(ThroughputRow {
                case_name: case.name,
                n: case.n,
                mode,
                events,
                wall_s,
                events_per_s: events as f64 / wall_s,
            });
        }
    }

    // Fig 5 sweep wall time: serial (1 worker) vs all cores. The worker
    // count is threaded through the FTBARRIER_WORKERS override that
    // `parallel::worker_count` honours. On a 1-core machine the second
    // point would measure the same configuration twice, so it is skipped
    // and the report carries a `null` ratio with a reason instead.
    let mut sweep = Vec::new();
    let saved = std::env::var("FTBARRIER_WORKERS").ok();
    let grid: &[usize] = if avail > 1 { &[1, 0] } else { &[1] };
    for &w in grid {
        let workers = if w == 0 { avail } else { w };
        std::env::set_var("FTBARRIER_WORKERS", workers.to_string());
        let start = Instant::now();
        let rows = figures::fig5(quick);
        let wall_s = start.elapsed().as_secs_f64();
        assert!(!rows.is_empty());
        sweep.push(SweepRow { workers, wall_s });
    }
    match saved {
        Some(v) => std::env::set_var("FTBARRIER_WORKERS", v),
        None => std::env::remove_var("FTBARRIER_WORKERS"),
    }

    BenchReport {
        available_parallelism: avail,
        engine,
        sweep,
    }
}

/// Assert the serialized report carries the fields downstream tooling
/// (CHANGES.md diffs, the CI smoke job) keys on. Called by `repro bench`
/// right after rendering, so a schema drift fails the run loudly instead
/// of producing an unparseable artifact.
pub fn validate_schema(json: &str) {
    for key in [
        "\"schema\": \"enginebench/v1\"",
        "\"available_parallelism\"",
        "\"engine\"",
        "\"fig5_sweep\"",
        "\"speedup\"",
        "\"fig5_parallel\"",
        "\"case\"",
        "\"n\"",
        "\"mode\"",
        "\"workers\"",
        "\"events\"",
        "\"wall_s\"",
        "\"events_per_s\"",
    ] {
        assert!(json.contains(key), "BENCH_engine.json missing {key}");
    }
}

fn row_json(r: &ThroughputRow) -> String {
    format!(
        "{{\"case\": \"{}\", \"n\": {}, \"mode\": \"{}\", \"events\": {}, \"wall_s\": {:.4}, \"events_per_s\": {:.0}}}",
        r.case_name, r.n, r.mode, r.events, r.wall_s, r.events_per_s
    )
}

impl BenchReport {
    /// Render as a JSON document (hand-rolled; the tree only holds numbers
    /// and fixed identifiers, so no escaping is needed).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\n  \"schema\": \"enginebench/v1\",\n  \"available_parallelism\": {},\n  \"engine\": [\n",
            self.available_parallelism
        );
        for (i, r) in self.engine.iter().enumerate() {
            s.push_str(&format!(
                "    {}{}\n",
                row_json(r),
                if i + 1 < self.engine.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"fig5_sweep\": [\n");
        for (i, r) in self.sweep.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"workers\": {}, \"wall_s\": {:.4}}}{}\n",
                r.workers,
                r.wall_s,
                if i + 1 < self.sweep.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"speedup\": {\n");
        let of = |case: &str, mode: &str| {
            self.engine
                .iter()
                .find(|r| r.case_name == case && r.mode == mode)
                .map(|r| r.events_per_s)
        };
        let mut lines = Vec::new();
        for case in ["tree_1024", "ring_512"] {
            if let (Some(inc), Some(full)) = (of(case, "incremental"), of(case, "full_rescan")) {
                lines.push(format!("    \"{}\": {:.2}", case, inc / full));
            }
        }
        if self.sweep.len() == 2 && self.sweep[1].wall_s > 0.0 {
            lines.push(format!(
                "    \"fig5_parallel\": {:.2}",
                self.sweep[0].wall_s / self.sweep[1].wall_s
            ));
        } else {
            lines.push(String::from("    \"fig5_parallel\": null"));
            lines.push(format!(
                "    \"fig5_parallel_reason\": \"not measurable: {} core available\"",
                self.available_parallelism
            ));
        }
        s.push_str(&lines.join(",\n"));
        s.push_str("\n  }\n}\n");
        s
    }

    /// Human-readable summary for the terminal.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "available parallelism: {} core(s)\nengine throughput (events/sec):\n",
            self.available_parallelism
        );
        for r in &self.engine {
            s.push_str(&format!(
                "  {:>12} {:>12}: {:>12.0}  ({} events in {:.3}s)\n",
                r.case_name, r.mode, r.events_per_s, r.events, r.wall_s
            ));
        }
        s.push_str("fig5 sweep wall time:\n");
        for r in &self.sweep {
            s.push_str(&format!("  {:>2} workers: {:.3}s\n", r.workers, r.wall_s));
        }
        if self.sweep.len() < 2 {
            s.push_str("  (parallel ratio not measurable: 1 core available)\n");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(case: &'static str, n: usize, mode: &'static str) -> ThroughputRow {
        ThroughputRow {
            case_name: case,
            n,
            mode,
            events: 1000,
            wall_s: 0.5,
            events_per_s: 2000.0,
        }
    }

    fn synthetic(cores: usize, sweep: Vec<SweepRow>) -> BenchReport {
        BenchReport {
            available_parallelism: cores,
            engine: vec![
                row("tree_1024", 1024, "incremental"),
                row("tree_1024", 1024, "full_rescan"),
                row("ring_100000", 100_000, "incremental"),
            ],
            sweep,
        }
    }

    #[test]
    fn json_carries_the_schema_fields() {
        let report = synthetic(
            1,
            vec![SweepRow {
                workers: 1,
                wall_s: 0.3,
            }],
        );
        let json = report.to_json();
        validate_schema(&json);
        assert!(json.contains("\"fig5_parallel\": null"));
        assert!(json.contains("not measurable: 1 core available"));
        assert!(json.contains("\"tree_1024\": 1.00"));
    }

    #[test]
    fn multi_core_reports_a_real_ratio() {
        let report = synthetic(
            4,
            vec![
                SweepRow {
                    workers: 1,
                    wall_s: 0.8,
                },
                SweepRow {
                    workers: 4,
                    wall_s: 0.4,
                },
            ],
        );
        let json = report.to_json();
        validate_schema(&json);
        assert!(json.contains("\"fig5_parallel\": 2.00"));
        assert!(!json.contains("fig5_parallel_reason"));
    }
}
