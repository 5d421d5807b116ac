//! The two single-threaded simulator workloads. Both are deterministic in
//! the seed: message and event counts repeat exactly, only wall time varies.

use crate::stats::Section;
use crate::workload::{check_exact_counts, fill, mix, Ctx, Outcome, Rep, Tally, SETUPS};
use ftbarrier_core::sim::{measure_phases, PhaseExperiment, PhaseMeasurement, TopologySpec};
use ftbarrier_mp::{
    mb_sim, sweep_sim, ChannelFaults, LatencyModel, LinkConfig, SimMbConfig, SweepSimConfig,
};
use ftbarrier_topology::SweepDag;
use std::hint::black_box;
use std::time::Instant;

/// What one simulator call did.
pub struct SimRun {
    pub phases: u64,
    pub messages: u64,
    /// Scheduling points the event loop processed (0 where not reported).
    pub events: u64,
    pub wall_s: f64,
}

fn lossy_link() -> LinkConfig {
    LinkConfig {
        latency: LatencyModel::Fixed(0.01),
        faults: ChannelFaults {
            loss: 0.05,
            ..ChannelFaults::NONE
        },
    }
}

/// Oracle-successful phases are what is attempted; a shortfall, a missed
/// target or any specification violation fails them.
fn check_sim(
    what: &str,
    target: u64,
    completed: u64,
    reached_target: bool,
    violations: usize,
    tally: &mut Tally,
) {
    tally.attempted += target;
    let short = target.saturating_sub(completed);
    if short > 0 || !reached_target || violations > 0 {
        tally.fail(short.max(1), || {
            format!(
                "{what}: {completed}/{target} phases, reached_target={reached_target}, \
                 {violations} oracle violations"
            )
        });
    }
}

pub const MP_N: usize = 16;

pub fn run_mb_sim(seed: u64, phases: u64, tally: &mut Tally) -> SimRun {
    let cfg = SimMbConfig {
        n: MP_N,
        target_phases: phases,
        seed,
        link: lossy_link(),
        max_time: phases as f64 * 20.0 + 1000.0,
        ..Default::default()
    };
    let start = Instant::now();
    let report = mb_sim::run(black_box(cfg));
    let wall_s = start.elapsed().as_secs_f64();
    check_sim(
        "mb_sim ring",
        phases,
        report.phases_completed,
        report.reached_target,
        report.violations.len(),
        tally,
    );
    SimRun {
        phases: report.phases_completed,
        messages: report.messages_sent.iter().sum(),
        events: report.events_processed,
        wall_s,
    }
}

pub fn run_sweep_sim(
    what: &str,
    dag: &SweepDag,
    seed: u64,
    phases: u64,
    tally: &mut Tally,
) -> SimRun {
    let cfg = SweepSimConfig {
        target_phases: phases,
        seed,
        link: lossy_link(),
        max_time: phases as f64 * 20.0 + 1000.0,
        ..Default::default()
    };
    let start = Instant::now();
    let report = sweep_sim::run(dag.clone(), black_box(cfg));
    let wall_s = start.elapsed().as_secs_f64();
    check_sim(
        what,
        phases,
        report.phases_completed,
        report.reached_target,
        report.violations.len(),
        tally,
    );
    SimRun {
        phases: report.phases_completed,
        messages: report.messages_sent.iter().sum(),
        events: 0,
        wall_s,
    }
}

const MP_CHUNKS: u64 = 6;
const MP_CHUNK_PHASES: u64 = 125;

/// Ring MB plus the general sweep on a ring and a tree, 5 % link loss. This
/// is the guard for merging the message-passing backends: the three must
/// keep their rate and their exact message counts.
pub fn mp_sim_n16(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let seed = ctx.seed;
    let tracer = &mut *ctx.tracer;

    let mut dags = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let ring = SweepDag::ring(MP_N).expect("ring(16)");
        let tree = SweepDag::tree(MP_N, 2).expect("tree(16,2)");
        // Warm-up: one chunk of each backend, checked like the rest.
        run_mb_sim(mix(seed, 0), MP_CHUNK_PHASES, &mut out.tally);
        run_sweep_sim(
            "sweep_sim ring",
            &ring,
            mix(seed, 0),
            MP_CHUNK_PHASES,
            &mut out.tally,
        );
        run_sweep_sim(
            "sweep_sim tree",
            &tree,
            mix(seed, 0),
            MP_CHUNK_PHASES,
            &mut out.tally,
        );
        out.setup_s.push(started.elapsed().as_secs_f64());
        dags = Some((ring, tree));
    }
    let (ring, tree) = dags.expect("set up at least once");

    out.reps = fill(ctx.seconds, &mut out.tally, |_, tally| {
        let section = Section::start();
        let mut rep = Rep::default();
        let mut counts = [0u64; 4];
        for chunk in 0..MP_CHUNKS {
            let chunk_seed = mix(seed, chunk + 1);
            tracer.enter("mb_sim.run", chunk);
            let mb = run_mb_sim(chunk_seed, MP_CHUNK_PHASES, tally);
            tracer.exit();
            tracer.enter("sweep_sim.run_ring", chunk);
            let sr = run_sweep_sim("sweep_sim ring", &ring, chunk_seed, MP_CHUNK_PHASES, tally);
            tracer.exit();
            tracer.enter("sweep_sim.run_tree", chunk);
            let st = run_sweep_sim("sweep_sim tree", &tree, chunk_seed, MP_CHUNK_PHASES, tally);
            tracer.exit();
            for run in [&mb, &sr, &st] {
                rep.samples_us
                    .push(run.wall_s * 1e6 / run.phases.max(1) as f64);
                rep.phases += run.phases;
            }
            counts[0] += mb.messages;
            counts[1] += mb.events;
            counts[2] += sr.messages;
            counts[3] += st.messages;
        }
        (rep.wall_s, rep.cpu_s) = section.stop();
        rep.exact = vec![
            ("mb_sim.messages", counts[0]),
            ("mb_sim.events", counts[1]),
            ("sweep_sim.ring_messages", counts[2]),
            ("sweep_sim.tree_messages", counts[3]),
        ];
        rep
    });
    check_exact_counts(&out.reps, &mut out.tally);
    out
}

pub const PAPER_TREE: TopologySpec = TopologySpec::Tree { n: 32, arity: 2 };
const PAPER_FAULT_RATES: [f64; 3] = [0.0, 0.01, 0.05];
const PAPER_CHUNKS: u64 = 6;
const PAPER_CHUNK_PHASES: u64 = 500;
const BIG_RING: TopologySpec = TopologySpec::Ring { n: 100_000 };
const BIG_RING_PHASES: u64 = 10;

/// One `measure_phases` call, checked: every phase reached, no violation.
/// Returns the measurement and the wall seconds it took.
pub fn run_paper(exp: &PhaseExperiment, tally: &mut Tally) -> (PhaseMeasurement, f64) {
    let start = Instant::now();
    let m = measure_phases(black_box(exp));
    let wall_s = start.elapsed().as_secs_f64();
    check_sim(
        exp.topology.label(),
        exp.target_phases,
        m.phases,
        m.phases >= exp.target_phases,
        m.violations,
        tally,
    );
    (m, wall_s)
}

/// The paper's own experiment (tree of 32, arity 2, c = 0.01) fault-free and
/// at two fault rates, plus a ring of 10⁵ for scale — all through
/// `measure_phases`, so the engine underneath can be swapped without
/// touching the benchmark.
pub fn sim_paper(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let seed = ctx.seed;
    let tracer = &mut *ctx.tracer;

    for _ in 0..SETUPS {
        let started = Instant::now();
        black_box(PAPER_TREE.build().expect("tree(32,2)"));
        black_box(BIG_RING.build().expect("ring(100000)"));
        let warm = PhaseExperiment {
            seed: mix(seed, 0),
            f: 0.01,
            target_phases: PAPER_CHUNK_PHASES,
            ..Default::default()
        };
        run_paper(&warm, &mut out.tally);
        out.setup_s.push(started.elapsed().as_secs_f64());
    }

    out.reps = fill(ctx.seconds, &mut out.tally, |_, tally| {
        let section = Section::start();
        let mut rep = Rep::default();
        let (mut faults, mut aborted) = (0, 0);
        for chunk in 0..PAPER_CHUNKS {
            for (i, f) in PAPER_FAULT_RATES.into_iter().enumerate() {
                let exp = PhaseExperiment {
                    topology: PAPER_TREE,
                    f,
                    seed: mix(seed, chunk * 3 + i as u64 + 1),
                    target_phases: PAPER_CHUNK_PHASES,
                    ..Default::default()
                };
                tracer.enter("core.measure_phases.tree32", chunk);
                let (m, wall_s) = run_paper(&exp, tally);
                tracer.exit();
                rep.samples_us.push(wall_s * 1e6 / m.phases.max(1) as f64);
                rep.phases += m.phases;
                faults += m.faults;
                aborted += m.aborted_instances;
            }
        }
        let big = PhaseExperiment {
            topology: BIG_RING,
            seed: mix(seed, 99),
            target_phases: BIG_RING_PHASES,
            ..Default::default()
        };
        tracer.enter("core.measure_phases.ring100000", 0);
        rep.phases += run_paper(&big, tally).0.phases;
        tracer.exit();
        (rep.wall_s, rep.cpu_s) = section.stop();
        rep.exact = vec![("sim.faults", faults), ("sim.aborted_instances", aborted)];
        rep
    });
    check_exact_counts(&out.reps, &mut out.tally);
    out
}
