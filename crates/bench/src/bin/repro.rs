//! Reproduce the paper's evaluation artifacts.
//!
//! ```text
//! repro [--quick] [--csv DIR] [fig3|fig4|fig5|fig6|fig7|table1|ablations|mb|audit|trace|churn|bench|all]
//! ```
//!
//! `--quick` shrinks the parameter grids and sample counts (used by CI and
//! the integration tests); `--csv DIR` additionally writes one CSV per
//! figure into DIR. `audit` (never part of `all`) runs the adversarial
//! undetectable-fault audit across all three backends, writes any minimized
//! counterexample to `results/counterexample_*.json`, and exits nonzero on
//! failure. `trace` (never part of `all`) runs the instrumented
//! scenarios and writes `results/trace_<scenario>.json` (Chrome
//! `trace_event`, open in Perfetto) plus `results/metrics_<scenario>.prom`.
//! `churn` (never part of `all`) runs the dynamic-membership
//! availability sweep across both backends and writes
//! `results/churn.json` + `results/churn_table.md`, exiting nonzero if any
//! row misses the >= 0.99 availability bar. `byz` (never part of `all`)
//! runs the Byzantine containment sweep across all five topology families,
//! writes `results/byz.json`, and exits nonzero if any `f < quorum` cell
//! misses full containment (or any cell frames a correct process). `topo` (never part of `all`)
//! measures detection/recovery latency across all five sweep topology
//! families, writes `results/topo.json`, and exits nonzero unless the
//! log-depth grids beat the ring's recovery p50 at N = 1024. `critpath`
//! (never part of `all`) measures per-phase happens-before critical paths
//! with the causal recorder on, writes `results/critpath.json`, and exits
//! nonzero unless every family's measured chain is at least its static
//! depth and the log-depth families beat the ring at N = 1024. `bench`
//! (never part of `all`) times the simulation engine and the parallel
//! sweep harness and writes `BENCH_engine.json`.

use ftbarrier_bench::{
    ablations, audit_exp, byz_exp, churn_exp, critpath_exp, enginebench, figures, mb_exp, render,
    results_dir, serve_exp, table1, topo_exp, trace_exp, write_atomic,
};
use std::path::PathBuf;

const SUBCOMMANDS: [&str; 17] = [
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table1",
    "ablations",
    "mb",
    "audit",
    "trace",
    "churn",
    "byz",
    "topo",
    "critpath",
    "serve",
    "bench",
    "all",
];

struct Options {
    quick: bool,
    csv: Option<PathBuf>,
    what: Vec<String>,
}

fn parse_args() -> Options {
    let mut quick = false;
    let mut csv = None;
    let mut what = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--csv" => {
                let dir = args
                    .next()
                    .unwrap_or_else(|| usage("--csv needs a directory"));
                csv = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
            other if SUBCOMMANDS.contains(&other) => what.push(other.to_owned()),
            other => usage(&format!(
                "unknown subcommand `{other}` (valid: {})",
                SUBCOMMANDS.join(", ")
            )),
        }
    }
    if what.is_empty() {
        what.push("all".to_owned());
    }
    Options { quick, csv, what }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: repro [--quick] [--csv DIR] [{}]...",
        SUBCOMMANDS.join("|")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn write_csv(dir: &Option<PathBuf>, name: &str, contents: &str) {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).expect("create csv directory");
        let path = dir.join(name);
        write_atomic(&path, contents);
        eprintln!("wrote {}", path.display());
    }
}

fn main() {
    let opts = parse_args();
    let all = opts.what.iter().any(|w| w == "all");
    let wants = |name: &str| all || opts.what.iter().any(|w| w == name);

    if wants("fig3") {
        let rows = figures::fig3(opts.quick);
        println!("{}", render::render_fig3(&rows));
        write_csv(&opts.csv, "fig3.csv", &render::csv_fig3(&rows));
    }
    if wants("fig4") {
        let rows = figures::fig4(opts.quick);
        println!("{}", render::render_fig4(&rows));
        write_csv(&opts.csv, "fig4.csv", &render::csv_fig4(&rows));
    }
    if wants("fig5") {
        eprintln!("running Fig 5 simulations…");
        let rows = figures::fig5(opts.quick);
        println!("{}", render::render_fig5(&rows));
        write_csv(&opts.csv, "fig5.csv", &render::csv_fig5(&rows));
    }
    if wants("fig6") {
        eprintln!("running Fig 6 simulations…");
        let rows = figures::fig6(opts.quick);
        println!("{}", render::render_fig6(&rows));
        write_csv(&opts.csv, "fig6.csv", &render::csv_fig6(&rows));
    }
    if wants("fig7") {
        eprintln!("running Fig 7 recovery simulations…");
        let rows = figures::fig7(opts.quick);
        println!("{}", render::render_fig7(&rows));
        write_csv(&opts.csv, "fig7.csv", &render::csv_fig7(&rows));
    }
    if wants("ablations") {
        eprintln!("running ablations…");
        let c = 0.02;
        println!(
            "{}",
            render::render_topologies(&ablations::topology_comparison(c, opts.quick), c)
        );
        println!(
            "{}",
            render::render_arity(&ablations::arity_sweep(c, opts.quick), c)
        );
        let cf = 0.05;
        println!(
            "{}",
            render::render_fuzzy(&ablations::fuzzy_sweep(cf, opts.quick), cf)
        );
    }
    if wants("mb") {
        eprintln!("running program MB on the simulated network…");
        let rows = mb_exp::sweep(opts.quick);
        let mask = mb_exp::masking_rows(opts.quick);
        let pareto = mb_exp::pareto(opts.quick);
        println!("{}", render::render_mb(&rows));
        println!("{}", render::render_mb_masking(&mask));
        println!("{}", render::render_mb_pareto(&pareto));
        write_csv(&opts.csv, "mb.csv", &render::csv_mb(&rows));
        write_csv(&opts.csv, "mb.json", &mb_exp::to_json(&rows, &mask));
        write_csv(&opts.csv, "mb_pareto.csv", &render::csv_mb_pareto(&pareto));
    }
    if wants("table1") {
        eprintln!("exercising Table 1 scenarios…");
        let rows = table1::rows();
        println!("{}", render::render_table1(&rows));
    }
    // The audit writes counterexample artifacts under results/ and the full
    // campaign is heavyweight, so `all` skips it; ask for it explicitly
    // (CI runs `repro audit --quick`).
    if opts.what.iter().any(|w| w == "audit") {
        eprintln!("running the adversarial undetectable-fault audit…");
        let report = audit_exp::run(opts.quick);
        println!("{}", audit_exp::render_exhaustive(&report.exhaustive));
        println!("{}", audit_exp::render_sampled(&report.sampled));
        println!("{}", audit_exp::render_campaigns(&report));
        let dir = results_dir();
        let fixture_path = dir.join("counterexample_broken_ring.json");
        write_atomic(&fixture_path, &report.fixture_json);
        eprintln!("wrote {} (fixture demonstration)", fixture_path.display());
        let byz_fixture_path = dir.join("counterexample_leaky_gate.json");
        write_atomic(&byz_fixture_path, &report.byz_fixture_json);
        eprintln!(
            "wrote {} (byzantine fixture demonstration)",
            byz_fixture_path.display()
        );
        for failure in &report.failures {
            let path = dir.join(format!("{}.json", failure.name));
            write_atomic(&path, &failure.json);
            eprintln!("wrote {}", path.display());
        }
        if !report.passed() {
            eprintln!(
                "AUDIT FAILED: {} counterexample(s) under results/",
                report.failures.len()
            );
            std::process::exit(1);
        }
        println!("audit passed: every corrupted start stabilized on every backend");
    }
    // Trace export writes files and benchmarks are machine-specific, so
    // `all` skips both; ask for them explicitly.
    if opts.what.iter().any(|w| w == "trace") {
        eprintln!("tracing instrumented scenarios…");
        let dir = results_dir();
        let artifacts = trace_exp::all(opts.quick);
        for a in &artifacts {
            let trace_path = dir.join(format!("trace_{}.json", a.scenario));
            write_atomic(&trace_path, &a.trace_json);
            eprintln!("wrote {}", trace_path.display());
            let prom_path = dir.join(format!("metrics_{}.prom", a.scenario));
            write_atomic(&prom_path, &a.metrics_prom);
            eprintln!("wrote {}", prom_path.display());
        }
        println!(
            "{}",
            trace_exp::render_latency(&trace_exp::latency_rows(&artifacts))
        );
    }
    // The churn sweep writes artifacts under results/ and gates CI on the
    // availability bar, so `all` skips it; ask for it explicitly.
    if opts.what.iter().any(|w| w == "churn") {
        eprintln!("running the dynamic-membership churn sweep\u{2026}");
        let rows = churn_exp::all_rows(opts.quick);
        println!("{}", churn_exp::render(&rows));
        let dir = results_dir();
        let json_path = dir.join("churn.json");
        write_atomic(&json_path, churn_exp::to_json(&rows));
        eprintln!("wrote {}", json_path.display());
        let md_path = dir.join("churn_table.md");
        write_atomic(&md_path, churn_exp::to_markdown(&rows));
        eprintln!("wrote {}", md_path.display());
        let violations = churn_exp::violations(&rows);
        if violations > 0 {
            eprintln!("CHURN SWEEP FAILED: {violations} row(s) under the availability bar");
            std::process::exit(1);
        }
        println!("churn sweep passed: every row at or above 0.99 availability");
    }
    // The Byzantine containment sweep writes results/byz.json and gates CI
    // on the f < quorum containment bar, so `all` skips it; ask for it
    // explicitly (CI runs `repro byz --quick`).
    if opts.what.iter().any(|w| w == "byz") {
        eprintln!("running the Byzantine containment sweep\u{2026}");
        let rows = byz_exp::rows(opts.quick);
        println!("{}", byz_exp::render(&rows));
        let dir = results_dir();
        let json_path = dir.join("byz.json");
        write_atomic(&json_path, byz_exp::to_json(&rows));
        eprintln!("wrote {}", json_path.display());
        let violations = byz_exp::violations(&rows);
        if violations > 0 {
            eprintln!("BYZ SWEEP FAILED: {violations} cell(s) under the containment gate");
            std::process::exit(1);
        }
        println!(
            "byz sweep passed: every f < quorum cell fully contained, \
             no correct process quarantined"
        );
    }
    // The topology comparison writes results/topo.json and gates CI on the
    // O(log N) recovery bar, so `all` skips it; ask for it explicitly
    // (CI runs `repro topo --quick`).
    if opts.what.iter().any(|w| w == "topo") {
        eprintln!("measuring latency across topology families…");
        let latency = topo_exp::latency_rows(opts.quick);
        let scaling = topo_exp::scaling_rows(opts.quick);
        println!("{}", topo_exp::render_latency(&latency));
        println!("{}", topo_exp::render_scaling(&scaling));
        let dir = results_dir();
        let json_path = dir.join("topo.json");
        write_atomic(&json_path, topo_exp::to_json(&latency, &scaling));
        eprintln!("wrote {}", json_path.display());
        if !topo_exp::passed(&latency) {
            eprintln!(
                "TOPO SWEEP FAILED: log-depth grids did not beat the ring's recovery p50 at N = {}",
                topo_exp::LATENCY_N
            );
            std::process::exit(1);
        }
        println!(
            "topo sweep passed: dissemination and butterfly recovery p50 beat the ring at N = {}",
            topo_exp::LATENCY_N
        );
    }
    // The critical-path comparison writes results/critpath.json and gates
    // CI on the measured-vs-static bars, so `all` skips it; ask for it
    // explicitly (CI runs `repro critpath --quick`).
    if opts.what.iter().any(|w| w == "critpath") {
        eprintln!("measuring happens-before critical paths across topology families…");
        let rows = critpath_exp::crit_rows(opts.quick);
        let episodes = critpath_exp::episode_rows(opts.quick);
        println!("{}", critpath_exp::render_crit(&rows));
        println!("{}", critpath_exp::render_episodes(&episodes));
        let dir = results_dir();
        let json_path = dir.join("critpath.json");
        write_atomic(&json_path, critpath_exp::to_json(&rows, &episodes));
        eprintln!("wrote {}", json_path.display());
        if !critpath_exp::passed(&rows) {
            eprintln!(
                "CRITPATH FAILED: measured chains below their static lower bound, \
                 or a log-depth family did not beat the ring at N = {}",
                critpath_exp::CRITPATH_N
            );
            std::process::exit(1);
        }
        println!(
            "critpath passed: every measured chain ≥ its static depth, and the \
             log-depth families beat the ring at N = {}",
            critpath_exp::CRITPATH_N
        );
    }
    // The service self-test opens real sockets and writes results/
    // artifacts, so `all` skips it; ask for it explicitly (CI runs
    // `repro serve --quick`).
    if opts.what.iter().any(|w| w == "serve") {
        eprintln!("running the barrier service self-test…");
        let report = serve_exp::run(opts.quick);
        print!("{}", serve_exp::render(&report));
        let dir = results_dir();
        let prom_path = dir.join("serve_metrics.prom");
        write_atomic(&prom_path, &report.live_metrics);
        eprintln!("wrote {}", prom_path.display());
        let log_path = dir.join("serve_server.log");
        write_atomic(&log_path, &report.server_log);
        eprintln!("wrote {}", log_path.display());
        if let Some(dump) = &report.flight_dump {
            let dump_path = dir.join("serve_flight.json");
            write_atomic(&dump_path, dump);
            eprintln!("wrote {}", dump_path.display());
        }
        if !report.passed() {
            eprintln!("SERVICE SELF-TEST FAILED");
            std::process::exit(1);
        }
        println!(
            "service self-test passed: {} sessions through {} phases with mid-run kills",
            report.sessions, report.phases
        );
    }
    if opts.what.iter().any(|w| w == "bench") {
        eprintln!("benchmarking engine and sweep harness…");
        let report = enginebench::run(opts.quick);
        print!("{}", report.summary());
        let json = report.to_json();
        enginebench::validate_schema(&json);
        let path = PathBuf::from("BENCH_engine.json");
        write_atomic(&path, json);
        eprintln!("wrote {}", path.display());
    }
}
