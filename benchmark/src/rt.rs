//! The thread-runtime workload: two participant threads crossing an
//! `FtBarrier` as fast as they can, one of them reporting a detectable
//! fault every 64th crossing so the repeat path is part of the cost.
//!
//! As a workload the two threads share one CPU (`main` confines them): a
//! crossing is then the barrier's own instructions plus a yield hand-off each
//! way, 4.8–5.1 µs over four runs. On the sandbox's two virtual CPUs a
//! crossing is mostly the hypervisor's cache-line transfer between them
//! (2.5–2.9 µs, against ~0.1 µs on hardware), and that drifted 17 % between
//! two sets of ten runs taken minutes apart. The per-layer `runtime.*`
//! probes keep the two-CPU figures.

use crate::stats::Section;
use crate::trace::Tracer;
use crate::workload::{fill, Ctx, Outcome, Rep, Tally, SETUPS};
use ftbarrier_runtime::{CentralBarrier, FtBarrier, Participant, PhaseOutcome, TreeBarrier};
use std::thread;
use std::time::Instant;

pub const BATCH: u64 = 100;
/// Participant 1 calls `arrive_failed()` on every crossing whose index is
/// 63 mod 64.
pub const FAULT_EVERY: u64 = 64;

pub struct CrossRun {
    /// Mean time of one crossing in each batch of [`BATCH`], ns, as timed on
    /// participant 0.
    pub batch_ns: Vec<f64>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Run `p0` on this thread and `p1` on a second one, `crossings` times each.
pub fn drive(
    crossings: u64,
    tracer: &mut Tracer,
    mut p0: impl FnMut(u64),
    mut p1: impl FnMut(u64) + Send,
) -> CrossRun {
    assert_eq!(crossings % BATCH, 0);
    thread::scope(|s| {
        let section = Section::start();
        let peer = s.spawn(move || (0..crossings).for_each(&mut p1));
        let mut batch_ns = Vec::with_capacity((crossings / BATCH) as usize);
        for batch in 0..crossings / BATCH {
            tracer.enter("runtime.cross_batch", batch);
            let started = Instant::now();
            (batch * BATCH..(batch + 1) * BATCH).for_each(&mut p0);
            batch_ns.push(started.elapsed().as_nanos() as f64 / BATCH as f64);
            tracer.exit();
        }
        peer.join().expect("participant 1 panicked");
        let (wall_s, cpu_s) = section.stop();
        CrossRun {
            batch_ns,
            wall_s,
            cpu_s,
        }
    })
}

pub struct FtRun {
    pub run: CrossRun,
    /// `Repeat` outcomes participant 0 saw.
    pub repeats: u64,
    /// Crossings that returned an error or the wrong outcome.
    pub wrong: u64,
}

/// `crossings` crossings of a fresh `FtBarrier::new(2)`. With `inject`,
/// every crossing participant 1 fails must come back `Repeat` on participant
/// 0 and every other one `Advance`; the final phase must be the crossings
/// minus the repeats.
pub fn ft_cross(crossings: u64, inject: bool, tracer: &mut Tracer) -> FtRun {
    let (_barrier, mut parts) = FtBarrier::new(2);
    let mut part1: Participant = parts.pop().expect("two participants");
    let mut part0: Participant = parts.pop().expect("two participants");
    let faulty = move |i: u64| inject && i % FAULT_EVERY == FAULT_EVERY - 1;
    let (mut repeats, mut wrong) = (0u64, 0u64);
    let run = drive(
        crossings,
        tracer,
        |i| match part0.arrive() {
            Ok(PhaseOutcome::Repeat { .. }) if faulty(i) => repeats += 1,
            Ok(PhaseOutcome::Advance { .. }) if !faulty(i) => {}
            _ => wrong += 1,
        },
        |i| {
            let outcome = if faulty(i) {
                part1.arrive_failed()
            } else {
                part1.arrive()
            };
            assert!(outcome.is_ok(), "participant 1 crossing {i}: {outcome:?}");
        },
    );
    if part0.phase() != crossings - repeats {
        wrong += 1;
    }
    FtRun {
        run,
        repeats,
        wrong,
    }
}

pub fn tree_cross(crossings: u64) -> CrossRun {
    let mut parts = TreeBarrier::new(2, 2);
    let (mut b1, mut b0) = (parts.pop().expect("two"), parts.pop().expect("two"));
    drive(
        crossings,
        &mut Tracer::new(false),
        |_| b0.wait(),
        |_| b1.wait(),
    )
}

pub fn central_cross(crossings: u64) -> CrossRun {
    let mut parts = CentralBarrier::new(2);
    let (mut b1, mut b0) = (parts.pop().expect("two"), parts.pop().expect("two"));
    drive(
        crossings,
        &mut Tracer::new(false),
        |_| b0.wait(),
        |_| b1.wait(),
    )
}

pub fn std_cross(crossings: u64) -> CrossRun {
    let barrier = std::sync::Barrier::new(2);
    drive(
        crossings,
        &mut Tracer::new(false),
        |_| {
            barrier.wait();
        },
        |_| {
            barrier.wait();
        },
    )
}

const WARMUP_CROSSINGS: u64 = 20_000;
const CROSSINGS_PER_REP: u64 = 100_000;

pub fn cross_t2(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    for _ in 0..SETUPS {
        let started = Instant::now();
        let warm = ft_cross(WARMUP_CROSSINGS, true, &mut Tracer::new(false));
        out.setup_s.push(started.elapsed().as_secs_f64());
        out.tally.attempted += 2 * WARMUP_CROSSINGS;
        if warm.wrong > 0 {
            out.tally
                .fail(warm.wrong, || "warm-up crossing failed".into());
        }
    }
    let tracer = &mut *ctx.tracer;
    out.reps = fill(ctx.seconds, &mut out.tally, |_, tally: &mut Tally| {
        let ft = ft_cross(CROSSINGS_PER_REP, true, tracer);
        tally.attempted += 2 * CROSSINGS_PER_REP;
        if ft.wrong > 0 {
            tally.fail(ft.wrong, || {
                format!(
                    "{} crossings returned an error or the wrong outcome",
                    ft.wrong
                )
            });
        }
        let injected = CROSSINGS_PER_REP / FAULT_EVERY;
        tally.check(ft.repeats == injected, || {
            format!("{} repeats seen, {injected} faults injected", ft.repeats)
        });
        Rep {
            samples_us: ft.run.batch_ns.iter().map(|ns| ns / 1e3).collect(),
            phases: CROSSINGS_PER_REP,
            wall_s: ft.run.wall_s,
            cpu_s: ft.run.cpu_s,
            exact: vec![("runtime.repeats", ft.repeats)],
        }
    });
    out
}
