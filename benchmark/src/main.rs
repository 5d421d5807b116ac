//! The repository's benchmark. See README.md beside this package and
//! `BENCHMARK.json` at the repository root, which names the workloads and
//! metrics and fixes each end-to-end metric's bound.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     run    [--workload W] [--seed S] [--seconds T] [--trace 0|1]
//!     repeat [--workload W] [--seed S] [--seconds T] [--runs N]
//! ```

mod affinity;
mod layers;
mod rt;
mod sims;
mod stats;
mod svc;
mod trace;
mod workload;

use affinity::on_one_cpu;
use ftbarrier_telemetry::json::{self, Value};
use stats::{median, percentile, quartile_spread, worsening};
use std::fmt::Write as _;
use std::process::ExitCode;
use trace::Tracer;
use workload::{Ctx, Outcome, Tally, WORKLOADS};

/// A metric as `BENCHMARK.json` declares it. That file is the only list of
/// metric names and units: a run must produce exactly the metrics declared
/// for its mode, and is failed if it does not.
struct Declared {
    name: String,
    unit: String,
    /// `"better": "lower"`.
    lower: bool,
    /// End-to-end only: the share by which the metric may worsen.
    bound: Option<f64>,
}

struct Contract {
    run_seconds: f64,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

fn declared(list: &Value) -> Option<Vec<Declared>> {
    list.as_array()?
        .iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_owned(),
                unit: m.get("unit")?.as_str()?.to_owned(),
                lower: match m.get("better")?.as_str()? {
                    "lower" => true,
                    "higher" => false,
                    _ => return None,
                },
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

fn parse_contract(text: &str) -> Result<Contract, String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let field = |key: &str| doc.get(key).ok_or(format!("BENCHMARK.json: no {key:?}"));
    let workloads: Vec<&str> = field("workloads")?
        .as_array()
        .ok_or("workloads is not a list")?
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    if workloads != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?} != {WORKLOADS:?}"
        ));
    }
    let end_to_end = declared(field("end_to_end")?).ok_or("malformed end_to_end entry")?;
    if end_to_end.iter().any(|m| m.bound.is_none()) {
        return Err("end_to_end entry without a bound".into());
    }
    Ok(Contract {
        run_seconds: field("run_seconds")?
            .as_f64()
            .ok_or("run_seconds is not a number")?,
        end_to_end,
        per_layer: declared(field("per_layer")?).ok_or("malformed per_layer entry")?,
    })
}

fn load_contract() -> Result<Contract, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    parse_contract(&text)
}

/// Put `produced` in declaration order and fail the run unless it is exactly
/// the declared set.
fn in_declared_order(
    produced: Vec<(&'static str, f64)>,
    declared: &[Declared],
    tally: &mut Tally,
) -> Vec<(&'static str, f64)> {
    let ordered: Vec<_> = declared
        .iter()
        .filter_map(|d| produced.iter().find(|(name, _)| *name == d.name).copied())
        .collect();
    tally.check(
        ordered.len() == declared.len() && produced.len() == declared.len(),
        || {
            let names = |list: &mut dyn Iterator<Item = &str>| list.collect::<Vec<_>>().join(" ");
            format!(
                "BENCHMARK.json declares [{}], the run produced [{}]",
                names(&mut declared.iter().map(|d| d.name.as_str())),
                names(&mut produced.iter().map(|(name, _)| *name))
            )
        },
    );
    ordered
}

fn run_workload(name: &str, ctx: &mut Ctx) -> Outcome {
    match name {
        "svc_paced_g4" => on_one_cpu(|| svc::paced_g4(ctx)),
        "svc_paced_g128" => on_one_cpu(|| svc::paced_g128(ctx)),
        "svc_paced_32x4" => on_one_cpu(|| svc::paced_32x4(ctx)),
        "svc_kill_g8" => on_one_cpu(|| svc::kill_g8(ctx)),
        "rt_cross_t2" => on_one_cpu(|| rt::cross_t2(ctx)),
        "mp_sim_n16" => sims::mp_sim_n16(ctx),
        "sim_paper" => sims::sim_paper(ctx),
        other => unreachable!("workload {other:?} was validated at parse time"),
    }
}

/// One finished run: what the last output line carries.
struct RunResult {
    tally: Tally,
    samples: usize,
    /// One printable line per repetition, so a disturbed one can be seen.
    reps: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.tally.failed == 0 && !self.tally.fatal
    }
}

/// The best of the repetitions' values: the lowest of a time, the highest of
/// a rate. Interference on a shared sandbox only ever slows a repetition
/// down, and in a bad minute it slows most of them: over eight identical
/// 15 s runs of `svc_paced_g128` the median repetition's p50 spread 14.5 %
/// and the best repetition's 7.4 % (rate: 7.0 % and 2.8 %).
fn best(values: impl Iterator<Item = f64>, lower_is_better: bool) -> f64 {
    if lower_is_better {
        values.fold(f64::INFINITY, f64::min)
    } else {
        values.fold(f64::NEG_INFINITY, f64::max)
    }
}

fn end_to_end(mut out: Outcome, contract: &Contract) -> RunResult {
    let reps: Vec<_> = out.reps.iter().filter(|r| r.phases > 0).collect();
    let mut metrics = Vec::new();
    if !reps.is_empty() && !out.setup_s.is_empty() {
        metrics = vec![
            ("setup_s", median(&out.setup_s)),
            (
                "phase_p50_us",
                best(reps.iter().map(|r| percentile(&r.samples_us, 50.0)), true),
            ),
            (
                "phase_p90_us",
                best(reps.iter().map(|r| percentile(&r.samples_us, 90.0)), true),
            ),
            (
                "phases_per_s",
                best(reps.iter().map(|r| r.phases as f64 / r.wall_s), false),
            ),
            (
                "cpu_us_per_phase",
                best(reps.iter().map(|r| r.cpu_s * 1e6 / r.phases as f64), true),
            ),
        ];
    }
    RunResult {
        samples: reps.iter().map(|r| r.samples_us.len()).sum(),
        reps: reps
            .iter()
            .map(|r| {
                format!(
                    "p50 {:.3} us  p90 {:.3} us  {:.1} phases/s  cpu {:.3} s of {:.3} s",
                    percentile(&r.samples_us, 50.0),
                    percentile(&r.samples_us, 90.0),
                    r.phases as f64 / r.wall_s,
                    r.cpu_s,
                    r.wall_s
                )
            })
            .collect(),
        metrics: in_declared_order(metrics, &contract.end_to_end, &mut out.tally),
        tally: out.tally,
    }
}

fn untraced(workload: &str, seed: u64, seconds: f64, contract: &Contract) -> RunResult {
    let mut ctx = Ctx {
        seed,
        seconds,
        tracer: &mut Tracer::new(false),
    };
    end_to_end(run_workload(workload, &mut ctx), contract)
}

/// The traced run: a slice of the workload with spans off, the same slice
/// with spans on (their ratio is the tracing overhead, and end-to-end
/// numbers are never taken from either), then every layer probe.
fn traced(workload: &str, seed: u64, seconds: f64, contract: &Contract) -> RunResult {
    let slice = seconds / 5.0;
    let plain = untraced(workload, seed, slice, contract);
    let mut tracer = Tracer::new(true);
    let mut ctx = Ctx {
        seed,
        seconds: slice,
        tracer: &mut tracer,
    };
    let spanned = end_to_end(run_workload(workload, &mut ctx), contract);

    let mut tally = Tally::default();
    let mut metrics = layers::probe_all(seed, &mut tally);
    let rate = |r: &RunResult| {
        r.metrics
            .iter()
            .find(|(name, _)| *name == "phases_per_s")
            .map_or(f64::NAN, |&(_, v)| v)
    };
    metrics.extend([
        ("trace.overhead_ratio", rate(&spanned) / rate(&plain)),
        ("trace.spans", tracer.spans().len() as f64),
        ("trace.untraced_phases_per_s", rate(&plain)),
        ("trace.traced_phases_per_s", rate(&spanned)),
    ]);

    let path = format!("benchmark/out/trace_{workload}.json");
    let written = std::fs::create_dir_all("benchmark/out").and_then(|()| {
        let quick = seconds < contract.run_seconds;
        std::fs::write(&path, tracer.to_chrome_json(workload, quick))
    });
    tally.check(written.is_ok(), || format!("{path}: {written:?}"));
    println!("# {} spans written to {path}", tracer.spans().len());

    for part in [plain.tally, spanned.tally] {
        tally.attempted += part.attempted;
        tally.failed += part.failed;
        tally.fatal |= part.fatal;
        tally.messages.extend(part.messages);
    }
    RunResult {
        samples: spanned.samples,
        reps: spanned.reps,
        metrics: in_declared_order(metrics, &contract.per_layer, &mut tally),
        tally,
    }
}

/// The last line of a run's output: one JSON object, exactly these keys.
fn result_line(result: &RunResult, declared: &[Declared]) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.correct(),
        result.tally.attempted.max(1),
        result.tally.failed
    );
    for (i, (name, value)) in result.metrics.iter().enumerate() {
        let unit = unit_of(name, declared);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

fn unit_of<'a>(name: &str, declared: &'a [Declared]) -> &'a str {
    declared
        .iter()
        .find(|d| d.name == name)
        .map_or("", |d| d.unit.as_str())
}

struct Args {
    repeat: bool,
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        repeat: false,
        workloads: WORKLOADS.iter().map(|&w| w.to_owned()).collect(),
        seed: 1,
        seconds: None,
        trace: false,
        runs: 3,
    };
    let mut it = argv.iter();
    match it.next().map(String::as_str) {
        Some("run") => {}
        Some("repeat") => args.repeat = true,
        other => return Err(format!("expected `run` or `repeat`, got {other:?}")),
    }
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad(&format!("not one of {WORKLOADS:?}")));
                }
                args.workloads = vec![value.clone()];
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad("must be in (0, 60]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--runs" => {
                args.runs = value.parse().map_err(|_| bad("not a whole number"))?;
                if args.runs < 2 {
                    return Err(bad("quartiles need at least 2 runs per set"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.repeat && args.trace {
        return Err(
            "repeat compares end-to-end metrics, which are measured with tracing off".into(),
        );
    }
    Ok(args)
}

fn print_failures(tally: &Tally) {
    for message in &tally.messages {
        println!("# FAILED: {message}");
    }
}

fn cmd_run(args: &Args, contract: &Contract) -> bool {
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    // A shorter run than the contract's is a smoke test, and says so
    // wherever its numbers go, so it can never be read as a measurement.
    let quick = seconds < contract.run_seconds;
    let mut all_correct = true;
    for workload in &args.workloads {
        println!(
            "# workload {workload}  seed {}  seconds {seconds}  trace {}  quick {quick}  cores {}",
            args.seed,
            u8::from(args.trace),
            std::thread::available_parallelism().map_or(0, usize::from),
        );
        let (result, declared) = if args.trace {
            let result = traced(workload, args.seed, seconds, contract);
            (result, &contract.per_layer)
        } else {
            let result = untraced(workload, args.seed, seconds, contract);
            (result, &contract.end_to_end)
        };
        print_failures(&result.tally);
        for (i, rep) in result.reps.iter().enumerate() {
            println!("# repetition {i}: {rep}");
        }
        for (name, value) in &result.metrics {
            let bound = declared
                .iter()
                .find(|d| d.name == *name)
                .and_then(|d| d.bound)
                .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
            let unit = unit_of(name, declared);
            println!("{name:<36} {value:>16.4} {unit:<6}{bound}");
        }
        println!(
            "# {} samples in {} repetitions; failed {}/{} (failed_share {:.6})",
            result.samples,
            result.reps.len(),
            result.tally.failed,
            result.tally.attempted,
            result.tally.failed as f64 / result.tally.attempted.max(1) as f64,
        );
        all_correct &= result.correct() && !result.metrics.is_empty();
        println!("{}", result_line(&result, declared));
    }
    all_correct
}

/// Two interleaved sets of runs of the same code (A B A B …), each run on
/// its own seed. Per workload and end-to-end metric: both medians, each
/// set's quartile spread, and PASS when the spreads (except set-up's) stay
/// within the metric's bound and set B's median is not worse than set A's by
/// more than it — the acceptance check, runnable by hand.
fn cmd_repeat(args: &Args, contract: &Contract) -> bool {
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    let quick = seconds < contract.run_seconds;
    let mut all_pass = true;
    let mut rows = Vec::new();
    println!(
        "# repeat: 2 sets of {} runs, {seconds} s each, quick {quick}",
        args.runs
    );
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "B vs A"
    );
    for workload in &args.workloads {
        let mut sets: [Vec<RunResult>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * args.runs {
            let result = untraced(workload, args.seed + i as u64, seconds, contract);
            print_failures(&result.tally);
            all_pass &= result.correct() && !result.metrics.is_empty();
            sets[i % 2].push(result);
        }
        if !all_pass {
            continue;
        }
        for (m, metric) in contract.end_to_end.iter().enumerate() {
            let (name, bound) = (&metric.name, metric.bound.expect("checked at load"));
            let values =
                |set: &[RunResult]| -> Vec<f64> { set.iter().map(|r| r.metrics[m].1).collect() };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (med_a, med_b) = (median(&a), median(&b));
            let (iqr_a, iqr_b) = (quartile_spread(&a), quartile_spread(&b));
            let shift = worsening(med_a, med_b, metric.lower);
            let steady = name == "setup_s" || (iqr_a <= bound && iqr_b <= bound);
            let pass = steady && shift <= bound;
            all_pass &= pass;
            let verdict = if pass { "PASS" } else { "FAIL" };
            println!(
                "{workload:<16} {name:<18} {med_a:>14.4} {med_b:>14.4} {:>7.1}% {:>7.1}% {:>+7.1}%  {verdict}",
                iqr_a * 100.0,
                iqr_b * 100.0,
                shift * 100.0
            );
            rows.push(format!(
                "{{\"workload\":\"{workload}\",\"metric\":\"{name}\",\"bound\":{bound},\
                 \"median_a\":{med_a:?},\"median_b\":{med_b:?},\"spread_a\":{iqr_a:?},\
                 \"spread_b\":{iqr_b:?},\"b_worse_by\":{shift:?},\"pass\":{pass}}}"
            ));
        }
    }
    let doc = format!(
        "{{\"schema\":\"benchmark-repeat/v1\",\"quick\":{quick},\"seconds\":{seconds},\
         \"runs_per_set\":{},\"first_seed\":{},\"pass\":{all_pass},\"rows\":[\n{}\n]}}\n",
        args.runs,
        args.seed,
        rows.join(",\n")
    );
    let written = std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write("benchmark/out/repeat.json", doc));
    if let Err(e) = written {
        println!("# FAILED: benchmark/out/repeat.json: {e}");
        return false;
    }
    println!("# {}", if all_pass { "PASS" } else { "FAIL" });
    all_pass
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: (run|repeat) [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--runs N]");
            return ExitCode::from(2);
        }
    };
    let contract = match load_contract() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.repeat {
        cmd_repeat(&args, &contract)
    } else {
        cmd_run(&args, &contract)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contract() -> Contract {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        parse_contract(&text).expect("BENCHMARK.json names this program's workloads")
    }

    #[test]
    fn benchmark_json_is_well_formed() {
        let contract = contract();
        let first = &contract.end_to_end[0];
        assert!(first.name == "setup_s" && first.unit == "s" && first.lower);
        assert!(contract
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let mut names: Vec<&str> = contract
            .end_to_end
            .iter()
            .chain(&contract.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name is used twice");
    }

    #[test]
    fn a_run_must_produce_exactly_the_declared_metrics() {
        let declared = &contract().end_to_end[..2];
        let mut tally = Tally::default();
        let ordered = in_declared_order(
            vec![("phase_p50_us", 2.0), ("setup_s", 1.0)],
            declared,
            &mut tally,
        );
        assert_eq!(ordered, [("setup_s", 1.0), ("phase_p50_us", 2.0)]);
        assert_eq!(tally.failed, 0);
        in_declared_order(vec![("setup_s", 1.0)], declared, &mut tally);
        in_declared_order(
            vec![("setup_s", 1.0), ("phase_p50_us", 2.0), ("extra", 3.0)],
            declared,
            &mut tally,
        );
        assert_eq!(
            tally.failed, 2,
            "a missing and an undeclared metric both fail"
        );
    }

    #[test]
    fn the_best_repetition_is_the_lowest_time_and_the_highest_rate() {
        let reps = [11.0, 950.0, 10.5, 12.0];
        assert_eq!(best(reps.into_iter(), true), 10.5);
        assert_eq!(best(reps.into_iter(), false), 950.0);
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let result = RunResult {
            tally: Tally {
                attempted: 10,
                failed: 0,
                ..Default::default()
            },
            samples: 5,
            reps: vec![String::new()],
            metrics: vec![("setup_s", 0.25), ("phases_per_s", 1234.5678)],
        };
        let parsed =
            json::parse(&result_line(&result, &contract().end_to_end)).expect("valid JSON");
        let keys: Vec<&String> = parsed.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let rate = parsed.get("metrics").unwrap().get("phases_per_s").unwrap();
        assert_eq!(rate.get("value").unwrap().as_f64(), Some(1234.5678));
        assert_eq!(rate.get("unit").unwrap().as_str(), Some("1/s"));
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |s: &str| parse_args(&s.split(' ').map(str::to_owned).collect::<Vec<_>>());
        let driver = parse("run --workload sim_paper --seed 9 --seconds 10 --trace 1").unwrap();
        assert_eq!(driver.workloads, ["sim_paper"]);
        assert!(driver.trace && driver.seed == 9 && driver.seconds == Some(10.0));
        assert_eq!(parse("run").unwrap().workloads.len(), WORKLOADS.len());
        assert!(parse("run --workload nope").is_err());
        assert!(parse("run --seconds 0").is_err());
        assert!(parse("run --trace 2").is_err());
        assert!(parse("repeat --trace 1").is_err());
        assert!(parse("measure").is_err());
    }
}
