//! Program MB under message faults: seeded experiments on the deterministic
//! simulated network (`ftbarrier_mp::mb_sim`).
//!
//! Two artifacts, Fig 5–7 style but for the §5 message-passing refinement:
//!
//! * [`sweep`] — instances/phase, violations, message cost, and phase period
//!   over a grid of (loss rate, link latency `c`, retransmit period `r`,
//!   process-fault rate `f`);
//! * [`masking_rows`] — one scenario per fault class of §1, measuring the §5
//!   claim that *communication* faults are masked without re-execution while
//!   *process* faults cost re-executed instances;
//! * [`pareto`] — messages per phase against virtual phase time for the two
//!   gossip simulators on 16 processes (MB on the ring, the sweep program on
//!   the ring and the binary tree) over a loss axis: what the resend policy
//!   costs in messages and buys in latency.
//!
//! Every run is a pure function of its config (one seed), so the whole
//! module is byte-for-byte reproducible — asserted by
//! `tests/mb_determinism.rs`.

use ftbarrier_mp::channel::ChannelFaults;
use ftbarrier_mp::mb_sim::{self, CrashPlan, FaultPlan, PartitionPlan, SimMbConfig, SimMbReport};
use ftbarrier_mp::simnet::{LatencyModel, LinkConfig};
use ftbarrier_mp::sweep_sim::{self, SweepSimConfig};
use ftbarrier_topology::SweepDag;

/// Base seed of every experiment; [`sweep_with_seed`] lets the determinism
/// test shift it.
pub const DEFAULT_SEED: u64 = 0x1998_0515;

/// One grid point of the MB sweep.
#[derive(Debug, Clone)]
pub struct MbRow {
    /// Message loss probability per link.
    pub loss: f64,
    /// Per-hop link latency (phase time = 1).
    pub c: f64,
    /// Gossip retransmission period.
    pub r: f64,
    /// Poisson rate of detectable process faults.
    pub f: f64,
    /// Successful phases (the run's target unless it stalled).
    pub phases: u64,
    /// Mean instances consumed per successful phase (§5's masking metric:
    /// 1.0 means faults were masked without re-execution).
    pub instances: f64,
    pub violations: usize,
    /// Total messages sent, including retransmissions.
    pub sent: u64,
    /// Messages the links dropped.
    pub lost: u64,
    /// Mean virtual time per successful phase.
    pub phase_time: f64,
}

fn row_from(report: &SimMbReport, loss: f64, c: f64, r: f64, f: f64) -> MbRow {
    let phases = report.phases_completed;
    MbRow {
        loss,
        c,
        r,
        f,
        phases,
        instances: report.mean_instances_per_phase(),
        violations: report.violations.len(),
        sent: report.messages_sent.iter().sum(),
        lost: report.net.lost,
        phase_time: if phases > 0 {
            report.virtual_elapsed.as_f64() / phases as f64
        } else {
            f64::NAN
        },
    }
}

fn grid_config(quick: bool, seed: u64, loss: f64, c: f64, r: f64, f: f64) -> SimMbConfig {
    SimMbConfig {
        n: if quick { 4 } else { 6 },
        target_phases: if quick { 12 } else { 30 },
        seed,
        link: LinkConfig {
            latency: LatencyModel::Fixed(c),
            faults: ChannelFaults {
                loss,
                ..ChannelFaults::NONE
            },
        },
        retransmit_every: r,
        plan: FaultPlan {
            poison_rate: f,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The (loss, c, r, f) sweep at an explicit base seed.
pub fn sweep_with_seed(quick: bool, seed: u64) -> Vec<MbRow> {
    let losses: &[f64] = if quick {
        &[0.0, 0.2]
    } else {
        &[0.0, 0.1, 0.2, 0.3]
    };
    let cs: &[f64] = if quick {
        &[0.005, 0.02]
    } else {
        &[0.005, 0.02, 0.05]
    };
    let rs: &[f64] = if quick { &[0.05] } else { &[0.025, 0.05, 0.1] };
    let fs: &[f64] = if quick {
        &[0.05, 0.1]
    } else {
        &[0.01, 0.02, 0.05, 0.08, 0.1]
    };

    let mut rows = Vec::new();
    let mut k = 0u64;
    // Communication-fault grid (f = 0): the §5 claim is instances == 1.
    for &loss in losses {
        for &c in cs {
            for &r in rs {
                k += 1;
                let report = mb_sim::run(grid_config(quick, seed ^ k, loss, c, r, 0.0));
                rows.push(row_from(&report, loss, c, r, 0.0));
            }
        }
    }
    // Process-fault axis (fixed moderate link): instances grows with f —
    // the Fig 5 shape for the message-passing program.
    for &f in fs {
        k += 1;
        let report = mb_sim::run(grid_config(quick, seed ^ k, 0.1, 0.02, 0.05, f));
        rows.push(row_from(&report, 0.1, 0.02, 0.05, f));
    }
    rows
}

/// The (loss, c, r, f) sweep at the default seed.
pub fn sweep(quick: bool) -> Vec<MbRow> {
    sweep_with_seed(quick, DEFAULT_SEED)
}

/// One row of the masking table: a fault class and what it measurably cost.
#[derive(Debug, Clone)]
pub struct MaskRow {
    pub class: &'static str,
    pub phases: u64,
    pub instances: f64,
    pub violations: usize,
    /// Instances re-executed beyond one per phase.
    pub reexecutions: u64,
    pub sent: u64,
    pub reached_target: bool,
}

fn mask_row(class: &'static str, report: &SimMbReport) -> MaskRow {
    let total: u64 = report.instance_counts.iter().sum();
    MaskRow {
        class,
        phases: report.phases_completed,
        instances: report.mean_instances_per_phase(),
        violations: report.violations.len(),
        reexecutions: total.saturating_sub(report.phases_completed),
        sent: report.messages_sent.iter().sum(),
        reached_target: report.reached_target,
    }
}

/// Measure every §1 fault class against MB, one scenario per class, at an
/// explicit base seed.
pub fn masking_rows_with_seed(quick: bool, seed: u64) -> Vec<MaskRow> {
    let base = |seed_off: u64| SimMbConfig {
        n: if quick { 4 } else { 6 },
        target_phases: if quick { 12 } else { 30 },
        seed: seed ^ seed_off,
        ..Default::default()
    };
    let link = |faults: ChannelFaults| LinkConfig {
        latency: LatencyModel::Fixed(0.01),
        faults,
    };
    vec![
        mask_row("none", &mb_sim::run(base(1))),
        mask_row(
            "loss",
            &mb_sim::run(SimMbConfig {
                link: link(ChannelFaults {
                    loss: 0.25,
                    ..ChannelFaults::NONE
                }),
                ..base(2)
            }),
        ),
        mask_row(
            "duplication",
            &mb_sim::run(SimMbConfig {
                link: link(ChannelFaults {
                    duplication: 0.25,
                    ..ChannelFaults::NONE
                }),
                ..base(3)
            }),
        ),
        mask_row(
            "corruption",
            &mb_sim::run(SimMbConfig {
                link: link(ChannelFaults {
                    corruption: 0.25,
                    ..ChannelFaults::NONE
                }),
                ..base(4)
            }),
        ),
        mask_row(
            "reorder",
            &mb_sim::run(SimMbConfig {
                link: link(ChannelFaults {
                    reorder: 0.25,
                    ..ChannelFaults::NONE
                }),
                ..base(5)
            }),
        ),
        mask_row(
            "nasty",
            &mb_sim::run(SimMbConfig {
                link: link(ChannelFaults::nasty()),
                ..base(6)
            }),
        ),
        mask_row(
            "partition+heal",
            &mb_sim::run(SimMbConfig {
                plan: FaultPlan {
                    partitions: vec![PartitionPlan {
                        link: 1,
                        at: 2.0,
                        heal_at: 5.0,
                    }],
                    ..Default::default()
                },
                ..base(7)
            }),
        ),
        mask_row(
            "poison",
            &mb_sim::run(SimMbConfig {
                plan: FaultPlan {
                    poisons: vec![(2.5, 1), (6.5, 2)],
                    ..Default::default()
                },
                ..base(8)
            }),
        ),
        mask_row(
            "crash+reboot",
            &mb_sim::run(SimMbConfig {
                plan: FaultPlan {
                    crashes: vec![CrashPlan {
                        pid: 2,
                        at: 3.0,
                        reboot_at: 5.0,
                    }],
                    ..Default::default()
                },
                ..base(9)
            }),
        ),
    ]
}

/// The masking table at the default seed.
pub fn masking_rows(quick: bool) -> Vec<MaskRow> {
    masking_rows_with_seed(quick, DEFAULT_SEED)
}

/// One point of the messages-against-latency table.
#[derive(Debug, Clone)]
pub struct ParetoRow {
    /// Simulator and topology, e.g. `mb_sim ring16`.
    pub backend: &'static str,
    /// Message loss probability per link.
    pub loss: f64,
    pub phases: u64,
    pub violations: usize,
    /// Messages sent per successful phase, resends included.
    pub msgs_per_phase: f64,
    /// Mean virtual time per successful phase (link latency 0.01, MB's
    /// phase body 1.0, the sweep's empty).
    pub phase_time: f64,
}

/// Messages per phase against virtual phase time on 16 processes at the
/// benchmark's link (latency 0.01) and the default resend period, over the
/// loss axis {0, 5, 10, 20, 30}%.
pub fn pareto(quick: bool) -> Vec<ParetoRow> {
    const N: usize = 16;
    let losses: &[f64] = if quick {
        &[0.0, 0.2]
    } else {
        &[0.0, 0.05, 0.1, 0.2, 0.3]
    };
    let phases: u64 = if quick { 100 } else { 2_000 };
    let max_time = phases as f64 * 20.0 + 1000.0;
    let mut rows = Vec::new();
    for &loss in losses {
        let link = LinkConfig {
            latency: LatencyModel::Fixed(0.01),
            faults: ChannelFaults {
                loss,
                ..ChannelFaults::NONE
            },
        };
        let row = |backend, phases, violations, sent: &[u64], elapsed: f64| ParetoRow {
            backend,
            loss,
            phases,
            violations,
            msgs_per_phase: sent.iter().sum::<u64>() as f64 / phases.max(1) as f64,
            phase_time: elapsed / phases.max(1) as f64,
        };
        let mb = mb_sim::run(SimMbConfig {
            n: N,
            target_phases: phases,
            seed: DEFAULT_SEED,
            link,
            max_time,
            ..Default::default()
        });
        rows.push(row(
            "mb_sim ring16",
            mb.phases_completed,
            mb.violations.len(),
            &mb.messages_sent,
            mb.virtual_elapsed.as_f64(),
        ));
        for (backend, dag) in [
            ("sweep_sim ring16", SweepDag::ring(N)),
            ("sweep_sim tree16", SweepDag::tree(N, 2)),
        ] {
            let r = sweep_sim::run(
                dag.expect("16-process topology"),
                SweepSimConfig {
                    target_phases: phases,
                    seed: DEFAULT_SEED,
                    link,
                    max_time,
                    ..Default::default()
                },
            );
            rows.push(row(
                backend,
                r.phases_completed,
                r.violations.len(),
                &r.messages_sent,
                r.virtual_elapsed.as_f64(),
            ));
        }
    }
    rows
}

/// A fixed lossy-and-poisoned run whose full trace the determinism test
/// compares byte-for-byte across invocations.
pub fn determinism_probe(seed: u64) -> SimMbReport {
    mb_sim::run(SimMbConfig {
        n: 4,
        target_phases: 10,
        seed,
        link: LinkConfig {
            latency: LatencyModel::Uniform {
                lo: 0.005,
                hi: 0.02,
            },
            faults: ChannelFaults {
                loss: 0.2,
                duplication: 0.1,
                ..ChannelFaults::NONE
            },
        },
        plan: FaultPlan {
            poisons: vec![(3.0, 2)],
            ..Default::default()
        },
        ..Default::default()
    })
}

/// Render the sweep + masking table as a JSON document (hand-rolled; the
/// tree holds only numbers and fixed identifiers, so no escaping is needed).
pub fn to_json(rows: &[MbRow], mask: &[MaskRow]) -> String {
    let mut s = String::from("{\n  \"sweep\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"loss\": {}, \"c\": {}, \"r\": {}, \"f\": {}, \"phases\": {}, \"instances\": {:.5}, \"violations\": {}, \"sent\": {}, \"lost\": {}, \"phase_time\": {:.5}}}{}\n",
            r.loss, r.c, r.r, r.f, r.phases, r.instances, r.violations, r.sent, r.lost,
            r.phase_time,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"masking\": [\n");
    for (i, r) in mask.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"class\": \"{}\", \"phases\": {}, \"instances\": {:.5}, \"violations\": {}, \"reexecutions\": {}, \"sent\": {}, \"reached_target\": {}}}{}\n",
            r.class, r.phases, r.instances, r.violations, r.reexecutions, r.sent,
            r.reached_target,
            if i + 1 < mask.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
