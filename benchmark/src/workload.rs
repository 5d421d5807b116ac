//! What every workload hands back, and the loop that fills `--seconds`.

use crate::trace::Tracer;
use std::time::Instant;

/// The seven workloads, in the order `run` without `--workload` runs them.
pub const WORKLOADS: [&str; 7] = [
    "svc_paced_g4",
    "svc_paced_g128",
    "svc_paced_32x4",
    "svc_kill_g8",
    "rt_cross_t2",
    "mp_sim_n16",
    "sim_paper",
];

/// How often a workload whose set-up is cheap and CPU-bound sets up; the
/// median is reported. (The service workloads set up five times: theirs
/// costs 0.1–0.2 s each.)
pub const SETUPS: usize = 9;

pub struct Ctx<'a> {
    pub seed: u64,
    /// How long the measured repetitions should take in total.
    pub seconds: f64,
    pub tracer: &'a mut Tracer,
}

/// One repetition: a fixed operation count, measured as one section.
#[derive(Default)]
pub struct Rep {
    /// Caller-visible time of each phase (or batch of phases), µs.
    pub samples_us: Vec<f64>,
    /// Barrier phases completed in the section.
    pub phases: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Counts that must repeat exactly in every repetition of a run.
    pub exact: Vec<(&'static str, u64)>,
}

/// Failures are counted against attempts and never dropped; the first few
/// are kept as text so a failing run says why.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    /// Set when a failure makes the rest of the run meaningless (a dead
    /// socket): the workload stops early and the run is reported incorrect.
    pub fatal: bool,
}

impl Tally {
    pub fn fail(&mut self, n: u64, message: impl FnOnce() -> String) {
        self.failed += n;
        if self.messages.len() < 5 {
            self.messages.push(message());
        }
    }

    /// A check on the run as a whole rather than on one member-phase.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, message);
        }
    }
}

#[derive(Default)]
pub struct Outcome {
    /// Each complete set-up (from nothing to ready to measure, warm-up
    /// included), seconds. The median is reported.
    pub setup_s: Vec<f64>,
    pub reps: Vec<Rep>,
    pub tally: Tally,
}

/// Run repetitions until `seconds` have passed, at least once. Stops when
/// the next repetition would overshoot by more than it undershoots.
pub fn fill(
    seconds: f64,
    tally: &mut Tally,
    mut rep: impl FnMut(usize, &mut Tally) -> Rep,
) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let before = start.elapsed().as_secs_f64();
        reps.push(rep(reps.len(), tally));
        let after = start.elapsed().as_secs_f64();
        if tally.fatal || after + (after - before) / 2.0 >= seconds {
            return reps;
        }
    }
}

/// Every repetition of a run gets the same generated inputs, so a count the
/// program makes must come out the same each time.
pub fn check_exact_counts(reps: &[Rep], tally: &mut Tally) {
    for rep in reps.iter().skip(1) {
        tally.check(rep.exact == reps[0].exact, || {
            format!(
                "exact counts differ between repetitions: {:?} vs {:?}",
                reps[0].exact, rep.exact
            )
        });
    }
}

/// SplitMix64: derives the per-repetition and per-chunk seeds from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
