//! The deterministic MB correctness suite: every test runs on virtual time
//! (the discrete-event backend), so there is not a single sleep or
//! wall-clock assertion in this file — results are a pure function of the
//! configuration.

use ftbarrier_core::Cp;
use ftbarrier_gcs::Time;
use ftbarrier_mp::channel::ChannelFaults;
use ftbarrier_mp::mb_sim::{
    run, run_with_telemetry, ChurnConfig, CrashPlan, FaultPlan, PartitionPlan, SimMbConfig,
};
use ftbarrier_mp::simnet::{LatencyModel, LinkConfig};
use ftbarrier_mp::Resend;
use ftbarrier_telemetry::{FlightDump, Telemetry, TimeDomain};

fn lossy(loss: f64) -> LinkConfig {
    LinkConfig {
        latency: LatencyModel::Fixed(0.01),
        faults: ChannelFaults {
            loss,
            ..ChannelFaults::NONE
        },
    }
}

#[test]
fn fault_free_run_completes_cleanly() {
    let report = run(SimMbConfig {
        n: 4,
        target_phases: 10,
        ..Default::default()
    });
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.phases_completed >= 9, "{report:?}");
    assert!(report.instance_counts.iter().all(|&c| c == 1));
    // Fault-free: no message ever lost, every phase costs ~1 unit + sweeps.
    assert_eq!(report.net.lost, 0);
    assert!(report.virtual_elapsed.as_f64() >= 10.0 * 1.0);
}

#[test]
fn lossy_links_are_masked_by_retransmission() {
    let report = run(SimMbConfig {
        n: 4,
        target_phases: 8,
        link: lossy(0.3),
        ..Default::default()
    });
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(
        report.net.lost > 0,
        "the link was supposed to drop messages"
    );
    // Communication faults are masked *without* re-execution: §5's claim
    // that they all reduce to transient loss.
    assert!(report.instance_counts.iter().all(|&c| c == 1), "{report:?}");
}

#[test]
fn nasty_links_still_clean() {
    let report = run(SimMbConfig {
        n: 3,
        target_phases: 6,
        seed: 99,
        link: LinkConfig {
            latency: LatencyModel::Uniform { lo: 0.0, hi: 0.04 },
            faults: ChannelFaults::nasty(),
        },
        ..Default::default()
    });
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.net.corrupted > 0 && report.net.duplicated > 0);
    // Reordering can transiently fault a local copy, which the recovery
    // actions repair — occasionally at the cost of a benign re-execution —
    // so unlike pure loss we only assert masking, not instances == 1.
}

#[test]
fn poison_forces_reexecution_but_masks() {
    let report = run(SimMbConfig {
        n: 4,
        target_phases: 12,
        plan: FaultPlan {
            // Mid-phase detectable faults on two different processes.
            poisons: vec![(3.5, 2), (7.3, 1)],
            ..Default::default()
        },
        ..Default::default()
    });
    assert!(report.reached_target, "{report:?}");
    assert!(
        report.violations.is_empty(),
        "detectable faults must be masked: {:?}",
        report.violations
    );
    // The poisons cost extra instances somewhere.
    let total: u64 = report.instance_counts.iter().sum();
    assert!(total > report.phases_completed, "{report:?}");
}

#[test]
fn scramble_recovers_and_makes_progress() {
    let report = run(SimMbConfig {
        n: 4,
        target_phases: 14,
        seed: 5,
        plan: FaultPlan {
            scrambles: vec![(4.2, 3)],
            ..Default::default()
        },
        ..Default::default()
    });
    // Progress is the stabilization guarantee; the interim may violate.
    assert!(
        report.reached_target,
        "no post-scramble progress: {report:?}"
    );
}

#[test]
fn crash_and_reboot_is_masked_as_detectable_fault() {
    let report = run(SimMbConfig {
        n: 4,
        target_phases: 12,
        plan: FaultPlan {
            crashes: vec![CrashPlan {
                pid: 2,
                at: 3.0,
                reboot_at: 5.0,
            }],
            ..Default::default()
        },
        ..Default::default()
    });
    assert!(report.reached_target, "{report:?}");
    assert!(
        report.violations.is_empty(),
        "crash/reboot is the §4.1 detectable fault and must be masked: {:?}",
        report.violations
    );
    let total: u64 = report.instance_counts.iter().sum();
    assert!(total >= report.phases_completed);
}

#[test]
fn partition_with_healing_is_masked_as_loss() {
    let report = run(SimMbConfig {
        n: 4,
        target_phases: 10,
        plan: FaultPlan {
            partitions: vec![PartitionPlan {
                link: 1,
                at: 2.0,
                heal_at: 6.0,
            }],
            ..Default::default()
        },
        ..Default::default()
    });
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.net.blocked > 0, "the partition was supposed to bite");
    // A partition is pure message loss: no instance is ever aborted.
    assert!(report.instance_counts.iter().all(|&c| c == 1), "{report:?}");
}

#[test]
fn unhealed_partition_stalls_without_violation() {
    // Cut link 1 forever: the token cannot circulate, so the run times out —
    // but Safety still holds (no phase is ever skipped or overlapped).
    let report = run(SimMbConfig {
        n: 4,
        target_phases: 50,
        max_time: 50.0,
        plan: FaultPlan {
            partitions: vec![PartitionPlan {
                link: 1,
                at: 2.0,
                heal_at: 1e9,
            }],
            ..Default::default()
        },
        ..Default::default()
    });
    assert!(!report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn poisson_poison_storm_is_masked() {
    let report = run(SimMbConfig {
        n: 5,
        target_phases: 25,
        seed: 0x0570_0012,
        plan: FaultPlan {
            poison_rate: 0.15,
            ..Default::default()
        },
        ..Default::default()
    });
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    let total: u64 = report.instance_counts.iter().sum();
    assert!(total >= report.phases_completed);
}

#[test]
fn everything_at_once_is_masked() {
    // The full menu: hostile links, a partition that heals, a crash/reboot,
    // and scheduled poisons — all detectable fault classes together.
    let report = run(SimMbConfig {
        n: 5,
        target_phases: 15,
        seed: 77,
        link: LinkConfig {
            latency: LatencyModel::Uniform {
                lo: 0.005,
                hi: 0.03,
            },
            faults: ChannelFaults {
                loss: 0.2,
                duplication: 0.1,
                corruption: 0.1,
                reorder: 0.1,
            },
        },
        plan: FaultPlan {
            poisons: vec![(4.5, 3)],
            crashes: vec![CrashPlan {
                pid: 1,
                at: 8.0,
                reboot_at: 9.5,
            }],
            partitions: vec![PartitionPlan {
                link: 2,
                at: 12.0,
                heal_at: 13.0,
            }],
            ..Default::default()
        },
        ..Default::default()
    });
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn same_seed_is_byte_identical_different_seed_differs() {
    let cfg = SimMbConfig {
        n: 4,
        target_phases: 10,
        seed: 1234,
        link: lossy(0.25),
        plan: FaultPlan {
            poisons: vec![(3.0, 1)],
            ..Default::default()
        },
        ..Default::default()
    };
    let a = run(cfg.clone());
    let b = run(cfg.clone());
    assert_eq!(a.trace, b.trace, "same seed must replay byte-for-byte");
    assert_eq!(a.messages_sent, b.messages_sent);
    assert_eq!(a.instance_counts, b.instance_counts);
    assert_eq!(a.virtual_elapsed, b.virtual_elapsed);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.net, b.net);

    let c = run(SimMbConfig { seed: 1235, ..cfg });
    assert_ne!(
        a.trace.render(),
        c.trace.render(),
        "a different seed must take a different run"
    );
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Golden rendered trace. First recorded when the run log was still written
/// as text on every event, which pinned the lazily rendered log to the same
/// bytes, not merely to itself. Re-recorded once since, when fixed-period
/// retransmission gave way to the `Resend` backoff, which moves every
/// resend by construction. The config touches every kind of line:
/// deliveries, moves and work-done under jittery nasty links, Poisson and
/// scheduled poisons, a crash long enough to be spliced out, its reboot
/// and readmission, and both epoch settlements.
#[test]
fn golden_trace_of_a_nasty_churning_run() {
    let report = run(SimMbConfig {
        n: 6,
        target_phases: 20,
        seed: 0x60_1D,
        link: LinkConfig {
            latency: LatencyModel::Uniform {
                lo: 0.005,
                hi: 0.02,
            },
            faults: ChannelFaults::nasty(),
        },
        max_time: 200.0,
        plan: FaultPlan {
            poisons: vec![(8.0, 4)],
            crashes: vec![CrashPlan {
                pid: 2,
                at: 3.0,
                reboot_at: 6.0,
            }],
            poison_rate: 0.05,
            ..Default::default()
        },
        churn: Some(ChurnConfig::default()),
        ..Default::default()
    });
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!((report.suspicions, report.rejoins, report.epoch), (1, 1, 2));
    assert_eq!(report.messages_sent, [390, 389, 370, 383, 398, 401]);
    let text = report.trace.render();
    assert_eq!(text.len(), 83_556);
    assert_eq!(
        fnv1a(text.as_bytes()),
        0x7313_e60f_1071_0280,
        "trace diverged from the recording"
    );
}

#[test]
#[should_panic(expected = "retransmit_every must be positive and finite, got inf")]
fn infinite_retransmit_period_is_rejected_by_name() {
    let _ = run(SimMbConfig {
        retransmit_every: f64::INFINITY,
        ..Default::default()
    });
}

/// The loss-0 message count of ring 16, split exactly into its two
/// sources: resends of unchanged state on the [`Resend`] backoff schedule,
/// and movement gossips (the start announcements plus one per state change,
/// each a line of the trace). The resends are re-derived from the trace
/// alone: every gap between a process's changes holds exactly the resends
/// its schedule puts there. The model needs about 3N token hops per phase;
/// movement is exactly that.
///
/// Before change-driven sending, every process resent on a fixed 0.05
/// clock: 16 832 ticks beside the same 1 921 movement gossips, 468.8
/// messages per phase against 207.0 now.
#[test]
fn ring16_loss0_messages_split_into_resends_and_movement() {
    let n = 16;
    let target = 40;
    let cfg = SimMbConfig {
        n,
        target_phases: target,
        seed: 0x16,
        link: lossy(0.0),
        ..Default::default()
    };
    let report = run(cfg.clone());
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.net.lost, 0);

    // Each process's change times: its start announcement, then one per
    // move line, stamped with the scheduling point the line follows.
    let mut changes = vec![vec![0.0]; n];
    let mut now = 0.0;
    for line in report.trace.render().lines() {
        if let Some(rest) = line.strip_prefix("t ") {
            now = rest.split(' ').next().unwrap().parse().unwrap();
        } else if let Some(rest) = line.strip_prefix("  p") {
            let pid: usize = rest.split(' ').next().unwrap().parse().unwrap();
            changes[pid].push(now);
        }
    }
    let end = report.virtual_elapsed.as_f64();
    let mut resends = 0u64;
    for times in &changes {
        for (i, &from) in times.iter().enumerate() {
            let until = times.get(i + 1).copied().unwrap_or(end);
            let mut r = Resend::new(Time::new(cfg.retransmit_every));
            let mut at = from + r.changed().as_f64();
            while at < until {
                resends += 1;
                at += r.resent().as_f64();
            }
        }
    }
    let movement = changes.iter().map(|c| c.len() as u64).sum::<u64>();
    let total: u64 = report.messages_sent.iter().sum();
    // Per phase: 158.95 resends and 48.0 movement gossips (= 3N).
    assert_eq!((resends, movement), (6_358, 1_921));
    assert_eq!(
        total,
        resends + movement,
        "every message is a resend or a move"
    );
    assert!(
        movement <= 4 * n as u64 * target,
        "{movement} movement gossips over {target} phases"
    );
}

#[test]
fn telemetry_recording_leaves_replay_byte_identical() {
    // The network counters and the post-run timeline replay are pure
    // observers: a recording handle must not move a single virtual-time
    // event relative to the plain run.
    let cfg = SimMbConfig {
        n: 4,
        target_phases: 10,
        seed: 1234,
        link: lossy(0.25),
        plan: FaultPlan {
            poisons: vec![(3.0, 1)],
            ..Default::default()
        },
        ..Default::default()
    };
    let off = run(cfg.clone());
    let tele = Telemetry::recording(TimeDomain::Virtual);
    let on = run_with_telemetry(cfg, &tele);
    assert_eq!(off.trace, on.trace, "telemetry perturbed the replay");
    assert_eq!(off.messages_sent, on.messages_sent);
    assert_eq!(off.instance_counts, on.instance_counts);
    assert_eq!(off.virtual_elapsed, on.virtual_elapsed);
    assert_eq!(off.events_processed, on.events_processed);
    assert_eq!(off.net, on.net);
    let snap = tele.snapshot();
    assert!(!snap.events.is_empty(), "timeline was recorded");
    // The mirrored counters agree with the report's own accounting.
    let sent: u64 = (0..4)
        .map(|p| {
            snap.metrics
                .counter("mb_messages_sent_total", &[("pid", &p.to_string())])
        })
        .sum();
    assert_eq!(sent, on.messages_sent.iter().sum::<u64>());
}

#[test]
fn zero_phase_cost_still_sequences_phases() {
    let report = run(SimMbConfig {
        n: 4,
        target_phases: 20,
        phase_cost: 0.0,
        ..Default::default()
    });
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.phases_completed, 20);
}

#[test]
fn virtual_phase_time_scales_with_latency() {
    let time_per_phase = |latency: f64| {
        let r = run(SimMbConfig {
            n: 4,
            target_phases: 10,
            link: LinkConfig::perfect(latency),
            ..Default::default()
        });
        assert!(r.reached_target);
        r.virtual_elapsed.as_f64() / r.phases_completed as f64
    };
    let fast = time_per_phase(0.01);
    let slow = time_per_phase(0.10);
    assert!(
        slow > fast,
        "higher link latency must lengthen the phase period ({fast} vs {slow})"
    );
}

#[test]
#[should_panic]
fn rejects_single_process() {
    let _ = run(SimMbConfig {
        n: 1,
        ..Default::default()
    });
}

#[test]
fn copy_scramble_recovers_and_makes_progress() {
    // A scrambled receive buffer (local neighbor copy only) is an
    // undetectable fault: the run may transiently misbehave but must
    // re-stabilize and keep advancing phases.
    for seed in [5, 17, 901] {
        let report = run(SimMbConfig {
            n: 4,
            target_phases: 14,
            seed,
            plan: FaultPlan {
                copy_scrambles: vec![(4.2, 3), (6.1, 0)],
                ..Default::default()
            },
            ..Default::default()
        });
        assert!(
            report.reached_target,
            "seed {seed}: no post-copy-scramble progress: {report:?}"
        );
    }
}

#[test]
fn forged_in_flight_sn_recovers_and_makes_progress() {
    // Forging the sn of in-flight messages to an arbitrary u32 (far beyond
    // the L > 2N+1 window) is undetectable wire corruption; the ring must
    // still stabilize. This exercised the Sn::next overflow fixed in core.
    for seed in [1, 42, 7777] {
        let report = run(SimMbConfig {
            n: 4,
            target_phases: 14,
            seed,
            plan: FaultPlan {
                forges: vec![(3.0, 0), (3.5, 2), (5.0, 1)],
                ..Default::default()
            },
            ..Default::default()
        });
        assert!(
            report.reached_target,
            "seed {seed}: no post-forge progress: {report:?}"
        );
    }
}

#[test]
fn sn_domain_below_window_is_rejected() {
    use ftbarrier_core::DomainError;
    // n = 4: the paper needs L > 2N+1, i.e. at least 10 here.
    let cfg = SimMbConfig {
        n: 4,
        sn_domain: Some(9),
        ..Default::default()
    };
    assert_eq!(
        cfg.validate(),
        Err(DomainError::LTooSmall { l: 9, min: 10 })
    );
    let ok = SimMbConfig {
        n: 4,
        sn_domain: Some(10),
        target_phases: 6,
        ..Default::default()
    };
    assert_eq!(ok.validate(), Ok(()));
    let report = run(ok);
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
#[should_panic]
fn run_rejects_invalid_sn_domain() {
    let _ = run(SimMbConfig {
        n: 4,
        sn_domain: Some(3),
        ..Default::default()
    });
}

// ---------------------------------------------------------------------------
// Dynamic membership (fail-stop detection, splice/graft repair, epochs)
// ---------------------------------------------------------------------------

#[test]
fn churn_enabled_fault_free_run_is_byte_identical() {
    // Merely enabling the failure detector must not move a single event:
    // the membership check draws no randomness and the epoch stamps are
    // inert while every epoch is 0.
    for seed in [1234u64, 0xDEAD] {
        let base = SimMbConfig {
            n: 5,
            target_phases: 10,
            seed,
            link: lossy(0.2),
            ..Default::default()
        };
        let off = run(base.clone());
        let on = run(SimMbConfig {
            churn: Some(ChurnConfig::default()),
            ..base
        });
        assert_eq!(off.trace, on.trace, "seed {seed}: churn perturbed the run");
        assert_eq!(off.messages_sent, on.messages_sent);
        assert_eq!(off.events_processed, on.events_processed);
        assert_eq!(off.instance_counts, on.instance_counts);
        assert_eq!(off.net, on.net);
        assert!(on.churn_checks > 0, "the detector was supposed to run");
        assert_eq!(on.suspicions, 0);
        assert_eq!(on.rejoins, 0);
        assert_eq!(on.epoch, 0);
        assert_eq!(on.stale_epoch_dropped, 0);
    }
}

/// A live process in a long phase body stays quiet, so its resends back
/// off to the cap: one every 0.2, where a plain silence rule of 0.5 trips
/// on two consecutive losses. At 20% loss that happens dozens of times in
/// each of these runs. The detector waits for ten missed resends at the
/// cap instead, so it never suspects anyone, and enabling it leaves the run
/// byte-identical.
#[test]
fn quiet_live_process_at_the_backoff_cap_is_never_suspected_at_20_percent_loss() {
    for seed in [3u64, 0x20, 0xCAFE] {
        let base = SimMbConfig {
            n: 5,
            target_phases: 4,
            seed,
            phase_cost: 8.0,
            link: lossy(0.2),
            ..Default::default()
        };
        let off = run(base.clone());
        let on = run(SimMbConfig {
            churn: Some(ChurnConfig::default()),
            ..base
        });
        assert!(on.reached_target, "seed {seed}: {on:?}");
        assert!(on.violations.is_empty(), "seed {seed}: {:?}", on.violations);
        assert!(on.net.lost > 50, "seed {seed}: the links were lossy");
        assert_eq!(
            on.suspicions, 0,
            "seed {seed}: a live process was suspected"
        );
        assert_eq!(off.trace, on.trace, "seed {seed}: churn perturbed the run");
    }
}

/// p2 crashes in the middle of a long phase body, resending at the cap. The
/// detector suspects it at the first check after ten resends at the cap
/// have failed to arrive — not after the plain 0.5 of silence.
#[test]
fn crashed_process_is_suspected_exactly_one_deadline_after_it_was_last_heard() {
    let cc = ChurnConfig::default();
    let cfg = SimMbConfig {
        n: 4,
        target_phases: 3,
        phase_cost: 8.0,
        link: LinkConfig::perfect(0.01),
        plan: FaultPlan {
            crashes: vec![CrashPlan {
                pid: 2,
                at: 3.0,
                reboot_at: 1e9,
            }],
            ..Default::default()
        },
        churn: Some(cc),
        ..Default::default()
    };
    let report = run(cfg.clone());
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.suspicions, 1);
    // p2 last changed when the execute sweep reached it, at 0.02.
    let text = report.trace.render();
    let moved = text.lines().position(|l| l.starts_with("  p2 ")).unwrap();
    assert_eq!(text.lines().nth(moved - 1), Some("t 0.020000 deliver x1"));
    // Replay its resend schedule up to the crash: the last resend it sent,
    // one link latency later, is the last the root heard of it.
    let mut r = Resend::new(Time::new(cfg.retransmit_every));
    let (mut sent, mut next) = (0.02, 0.02 + r.changed().as_f64());
    while next < 3.0 {
        sent = next;
        next += r.resent().as_f64();
    }
    let heard = sent + 0.01;
    let resends = (cc.suspect_after / cfg.retransmit_every).round() as u32;
    let deadline = r.deadline(resends).as_f64();
    assert_eq!(deadline, 2.0, "ten resends of 0.2 at the cap");
    let suspected = report.last_change_at;
    assert!(
        heard + deadline < suspected && suspected <= heard + deadline + cc.check_every,
        "heard {heard}, suspected {suspected}"
    );
    assert!(suspected > heard + cc.suspect_after + 1.0);
}

#[test]
fn permanent_crash_is_detected_spliced_and_survivors_progress() {
    // Without churn this exact plan wedges the ring forever (see
    // `unhealed_partition_stalls_without_violation` for the analogous
    // stall); with the detector the dead process is spliced out and the
    // survivors keep completing barriers.
    let report = run(SimMbConfig {
        n: 8,
        target_phases: 30,
        max_time: 120.0,
        plan: FaultPlan {
            crashes: vec![CrashPlan {
                pid: 3,
                at: 3.0,
                reboot_at: 1e5, // never, within this run
            }],
            ..Default::default()
        },
        churn: Some(ChurnConfig::default()),
        ..Default::default()
    });
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.suspicions, 1);
    assert_eq!(report.rejoins, 0);
    assert_eq!(report.epoch, 1);
    assert!(report.phases_completed >= 25, "{report:?}");
    assert_eq!(report.reconfig_latencies.len(), 1, "{report:?}");
    // The dead process took no further steps after its crash.
    assert!(report
        .cp_events
        .iter()
        .all(|e| e.pid != 3 || e.at.as_f64() <= 3.0));
}

#[test]
fn crashed_then_rebooted_process_rejoins_and_participates() {
    // Crash long enough to be detected and spliced; the reboot then goes
    // through the graft + §4.1 handshake and the process executes phases
    // again in the restored ring.
    let report = run(SimMbConfig {
        n: 6,
        target_phases: 20,
        max_time: 120.0,
        plan: FaultPlan {
            crashes: vec![CrashPlan {
                pid: 2,
                at: 3.0,
                reboot_at: 6.0,
            }],
            ..Default::default()
        },
        churn: Some(ChurnConfig::default()),
        ..Default::default()
    });
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.suspicions, 1);
    assert_eq!(report.rejoins, 1);
    assert_eq!(report.epoch, 2, "splice + graft");
    assert_eq!(report.reconfig_latencies.len(), 2, "{report:?}");
    assert!(
        report
            .cp_events
            .iter()
            .any(|e| e.pid == 2 && e.new == Cp::Execute && e.at.as_f64() > 6.0),
        "the rejoined process never executed a phase: {:?}",
        report
            .cp_events
            .iter()
            .filter(|e| e.pid == 2)
            .collect::<Vec<_>>()
    );
}

#[test]
fn reboot_before_detection_stays_in_the_old_epoch() {
    // A crash shorter than the suspicion threshold is repaired by the plain
    // §4.1 reboot poison — no reconfiguration happens at all.
    let report = run(SimMbConfig {
        n: 5,
        target_phases: 15,
        plan: FaultPlan {
            crashes: vec![CrashPlan {
                pid: 2,
                at: 3.0,
                reboot_at: 3.2,
            }],
            ..Default::default()
        },
        churn: Some(ChurnConfig::default()),
        ..Default::default()
    });
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.suspicions, 0, "{report:?}");
    assert_eq!(report.rejoins, 0);
    assert_eq!(report.epoch, 0);
}

#[test]
fn crash_during_reconfiguration_does_not_wedge_the_new_epoch() {
    // The second process dies while the first splice's epoch bump is still
    // sweeping the ring (the first check fires at ~2.5; the second crash
    // lands right in the reconfiguration window). The detector must chain a
    // second splice instead of waiting forever for the dead member to adopt
    // the new epoch.
    let report = run(SimMbConfig {
        n: 8,
        target_phases: 25,
        max_time: 120.0,
        plan: FaultPlan {
            crashes: vec![
                CrashPlan {
                    pid: 2,
                    at: 2.0,
                    reboot_at: 1e5,
                },
                CrashPlan {
                    pid: 4,
                    at: 2.55,
                    reboot_at: 1e5,
                },
            ],
            ..Default::default()
        },
        churn: Some(ChurnConfig::default()),
        ..Default::default()
    });
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.suspicions, 2);
    assert_eq!(report.epoch, 2);
    // Both epoch bumps eventually settled on the surviving members.
    assert_eq!(report.reconfig_latencies.len(), 2, "{report:?}");
}

#[test]
fn healed_partition_is_suspected_then_grafted_back() {
    // An unhealed partition used to stall the run forever; with churn the
    // silenced process is spliced out (fail-stop and partition are
    // indistinguishable to a silence detector), survivors progress, and the
    // heal triggers the graft as soon as its traffic reappears.
    let report = run(SimMbConfig {
        n: 5,
        target_phases: 20,
        max_time: 120.0,
        plan: FaultPlan {
            partitions: vec![PartitionPlan {
                link: 2,
                at: 2.0,
                heal_at: 5.0,
            }],
            ..Default::default()
        },
        churn: Some(ChurnConfig::default()),
        ..Default::default()
    });
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.suspicions >= 1, "{report:?}");
    assert!(report.rejoins >= 1, "{report:?}");
    assert!(report.epoch >= 2, "{report:?}");
    // The exiled process kept executing after its graft.
    assert!(
        report
            .cp_events
            .iter()
            .any(|e| e.pid == 2 && e.new == Cp::Execute && e.at.as_f64() > 5.0),
        "{report:?}"
    );
}

#[test]
fn forged_epoch_restabilizes_via_anti_entropy() {
    // Corrupting the epoch of an in-flight message to an arbitrary u64 makes
    // the receiver drop all honest traffic as stale — until the membership
    // check's anti-entropy fast-forwards the root past the forged value and
    // the gossip wave re-unifies the ring. Each forge lands halfway through
    // the 0.01 flight of a state change its link's sender publishes (p1's
    // success at 2.11, p3's at 3.23), so a message is in flight.
    let report = run(SimMbConfig {
        n: 5,
        target_phases: 15,
        max_time: 120.0,
        plan: FaultPlan {
            epoch_forges: vec![(2.115, 1), (3.235, 3)],
            ..Default::default()
        },
        churn: Some(ChurnConfig::default()),
        ..Default::default()
    });
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(
        report.stale_epoch_dropped > 0,
        "the forged epoch was supposed to bite: {report:?}"
    );
    assert!(
        report.epoch > 0,
        "anti-entropy must fast-forward: {report:?}"
    );
    assert_eq!(report.suspicions, 0, "no false fail-stop: {report:?}");
}

#[test]
fn scrambled_membership_view_is_repaired_by_the_check() {
    // An undetectable fault on the membership state itself: the victim's
    // believed epoch and its routing are overwritten with garbage. The next
    // periodic check re-derives both from the membership, so the run keeps
    // its target without any reconfiguration.
    for seed in [7u64, 0xBEEF] {
        let report = run(SimMbConfig {
            n: 5,
            target_phases: 15,
            max_time: 120.0,
            seed,
            plan: FaultPlan {
                view_scrambles: vec![(2.0, 2), (4.0, 0)],
                ..Default::default()
            },
            churn: Some(ChurnConfig::default()),
            ..Default::default()
        });
        assert!(report.reached_target, "seed {seed}: {report:?}");
        assert!(
            report.violations.is_empty(),
            "seed {seed}: {:?}",
            report.violations
        );
        assert_eq!(report.suspicions, 0, "seed {seed}: {report:?}");
    }
}

#[test]
fn churn_metrics_are_mirrored_into_telemetry() {
    let tele = Telemetry::recording(TimeDomain::Virtual);
    let report = run_with_telemetry(
        SimMbConfig {
            n: 6,
            target_phases: 20,
            max_time: 120.0,
            plan: FaultPlan {
                crashes: vec![CrashPlan {
                    pid: 2,
                    at: 3.0,
                    reboot_at: 6.0,
                }],
                ..Default::default()
            },
            churn: Some(ChurnConfig::default()),
            ..Default::default()
        },
        &tele,
    );
    let snap = tele.snapshot();
    assert_eq!(
        snap.metrics.counter("suspicions_total", &[]),
        report.suspicions
    );
    assert_eq!(snap.metrics.counter("rejoins_total", &[]), report.rejoins);
    assert_eq!(
        snap.metrics.gauge("membership_epoch", &[]),
        Some(report.epoch as f64)
    );
    assert!(snap
        .metrics
        .histogram("reconfiguration_latency", &[])
        .is_some());
}

#[test]
#[should_panic]
fn epoch_faults_without_churn_are_rejected() {
    let _ = run(SimMbConfig {
        plan: FaultPlan {
            epoch_forges: vec![(1.0, 0)],
            ..Default::default()
        },
        ..Default::default()
    });
}

#[test]
fn crashed_process_is_blamed_in_the_flight_dump() {
    // A crash whose reboot lies beyond the horizon wedges the fixed ring:
    // the token can never pass the dead process again. The wedged run must
    // produce a replayable flight dump whose causal graph ends at the
    // culpable process — every live process keeps recording retransmission
    // heartbeats, so the crashed one is the unique stale pid.
    let report = run(SimMbConfig {
        n: 4,
        target_phases: 1_000,
        max_time: 20.0,
        plan: FaultPlan {
            crashes: vec![CrashPlan {
                pid: 2,
                at: 1.0,
                reboot_at: 1e9,
            }],
            ..Default::default()
        },
        ..Default::default()
    });
    assert!(!report.reached_target, "{report:?}");
    let dump = report.flight_dump.as_deref().expect("wedged run dumps");
    let parsed = FlightDump::parse(dump).expect("dump parses");
    parsed.replay().expect("dump replays");
    assert_eq!(parsed.program, "mb_sim");
    assert_eq!(parsed.kind, "wedge");
    assert_eq!(parsed.reason, "max_time");
    assert_eq!(parsed.n, 4);
    assert_eq!(parsed.blamed, Some(2), "the crashed process is the culprit");
    // Its last recorded event predates the crash; every live process's
    // last event is strictly later.
    let last_at = |pid: u32| {
        parsed
            .graph
            .events
            .iter()
            .filter(|e| e.id.pid == pid)
            .map(|e| e.at)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    for pid in [0, 1, 3] {
        assert!(last_at(pid) > last_at(2), "p{pid} went stale before p2");
    }

    // A healthy run dumps nothing.
    let ok = run(SimMbConfig {
        n: 4,
        target_phases: 5,
        ..Default::default()
    });
    assert!(ok.reached_target);
    assert!(ok.flight_dump.is_none());
}

/// FNV-1a of a run's rendered trace, its per-process message counts and, for
/// a run that wedged, of its flight dump: what the pins below compare.
fn pin(report: &ftbarrier_mp::SimMbReport) -> (u64, Vec<u64>, Option<u64>) {
    (
        fnv1a(report.trace.render().as_bytes()),
        report.messages_sent.clone(),
        report.flight_dump.as_deref().map(|d| fnv1a(d.as_bytes())),
    )
}

/// Golden run at `phase_cost: 0.0`, the configuration `differential_mb`
/// lowers every scenario onto: the phase body completes inside the pump
/// loop, so a process gossips after every pump round. Nasty links (reorder
/// included, so a resend flushes a held message) and two poisons.
#[test]
fn golden_trace_at_zero_phase_cost() {
    let report = run(SimMbConfig {
        n: 5,
        target_phases: 12,
        seed: 55,
        link: LinkConfig {
            latency: LatencyModel::Fixed(0.01),
            faults: ChannelFaults::nasty(),
        },
        phase_cost: 0.0,
        plan: FaultPlan {
            poisons: vec![(0.7, 3), (1.3, 0)],
            ..Default::default()
        },
        ..Default::default()
    });
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(
        pin(&report),
        (0x7e14_4738_ab4e_0450, vec![116, 108, 111, 113, 111], None)
    );
}

/// Golden churning run with every fault class the nasty churning golden
/// above lacks: scrambles, copy-scrambles, sn forges, epoch forges, view
/// scrambles and a partition that heals after the splice (a readmit).
#[test]
fn golden_trace_of_a_churning_run_under_every_other_fault_class() {
    let report = run(SimMbConfig {
        n: 6,
        target_phases: 20,
        seed: 0xC0DE,
        link: LinkConfig {
            latency: LatencyModel::Uniform {
                lo: 0.005,
                hi: 0.02,
            },
            faults: ChannelFaults::nasty(),
        },
        max_time: 300.0,
        plan: FaultPlan {
            scrambles: vec![(1.5, 3)],
            copy_scrambles: vec![(2.5, 1), (6.5, 4)],
            forges: vec![(3.065, 2), (9.246, 5)],
            epoch_forges: vec![(4.005, 1)],
            view_scrambles: vec![(5.0, 2), (7.5, 0)],
            partitions: vec![PartitionPlan {
                link: 3,
                at: 10.0,
                heal_at: 15.0,
            }],
            ..Default::default()
        },
        churn: Some(ChurnConfig::default()),
        ..Default::default()
    });
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!((report.suspicions, report.rejoins), (1, 1), "{report:?}");
    assert_eq!(
        pin(&report),
        (
            0x6141_28cd_622f_f37e,
            vec![366, 369, 366, 366, 375, 377],
            None
        )
    );
}

/// A fault plan is checked whole before the run starts: a target that does
/// not exist, or a Poisson rate that is no rate, is refused by field name
/// instead of panicking mid-run on an index or never returning.
fn run_plan(plan: FaultPlan) {
    let _ = run(SimMbConfig {
        plan,
        ..Default::default()
    });
}

#[test]
#[should_panic(expected = "FaultPlan.poisons: target 99 out of range 0..4")]
fn a_poison_of_a_missing_process_is_refused_by_name() {
    run_plan(FaultPlan {
        poisons: vec![(1.0, 99)],
        ..Default::default()
    });
}

#[test]
#[should_panic(expected = "FaultPlan.crashes: target 9 out of range 0..4")]
fn a_crash_of_a_missing_process_is_refused_by_name() {
    run_plan(FaultPlan {
        crashes: vec![CrashPlan {
            pid: 9,
            at: 1.0,
            reboot_at: 2.0,
        }],
        ..Default::default()
    });
}

#[test]
#[should_panic(expected = "FaultPlan.forges: target 9 out of range 0..4")]
fn a_forge_on_a_missing_link_is_refused_by_name() {
    run_plan(FaultPlan {
        forges: vec![(1.0, 9)],
        ..Default::default()
    });
}

#[test]
#[should_panic(expected = "FaultPlan.partitions: target 9 out of range 0..4")]
fn a_partition_of_a_missing_link_is_refused_by_name() {
    run_plan(FaultPlan {
        partitions: vec![PartitionPlan {
            link: 9,
            at: 1.0,
            heal_at: 2.0,
        }],
        ..Default::default()
    });
}

#[test]
#[should_panic(expected = "FaultPlan.poison_rate must be finite and >= 0, got NaN")]
fn a_nan_poison_rate_is_refused_by_name() {
    run_plan(FaultPlan {
        poison_rate: f64::NAN,
        ..Default::default()
    });
}

/// `exponential(∞)` is 0: an infinite rate would reschedule its poison at
/// the same instant forever.
#[test]
#[should_panic(expected = "FaultPlan.poison_rate must be finite and >= 0, got inf")]
fn an_infinite_poison_rate_is_refused_by_name() {
    run_plan(FaultPlan {
        poison_rate: f64::INFINITY,
        ..Default::default()
    });
}

#[test]
#[should_panic(expected = "FaultPlan.poison_rate must be finite and >= 0, got -1")]
fn a_negative_poison_rate_is_refused_by_name() {
    run_plan(FaultPlan {
        poison_rate: -1.0,
        ..Default::default()
    });
}

/// A link probability that is no probability is refused by name. Before,
/// a NaN loss drew as "never" and ran fault-free, and a loss of 1.5 drew
/// as "always" and wedged the ring.
#[test]
#[should_panic(expected = "ChannelFaults.loss probability NaN out of range")]
fn a_nan_link_loss_is_refused_by_name() {
    let _ = run(SimMbConfig {
        link: lossy(f64::NAN),
        ..Default::default()
    });
}

#[test]
#[should_panic(expected = "ChannelFaults.loss probability 1.5 out of range")]
fn a_link_loss_above_one_is_refused_by_name() {
    let _ = run(SimMbConfig {
        link: lossy(1.5),
        ..Default::default()
    });
}
