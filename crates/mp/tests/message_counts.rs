//! Messages per phase of the three deterministic gossip drivers, pinned
//! exactly at the benchmark's per-layer configuration: ring or tree of 16,
//! 0.01 link latency, 5% loss, the default resend period, 2 000 phases at
//! the benchmark's per-layer seed. These are the `mb_sim.msgs_per_phase`,
//! `mb_sim.events_per_phase` and `sweep_sim.*_msgs_per_phase` rows as
//! counts: a change that lowers one commits the new value here, so the pins
//! only ratchet down.

use ftbarrier_mp::channel::ChannelFaults;
use ftbarrier_mp::mb_sim::{self, SimMbConfig};
use ftbarrier_mp::simnet::{LatencyModel, LinkConfig};
use ftbarrier_mp::sweep_sim::{self, SweepSimConfig};
use ftbarrier_topology::SweepDag;

const N: usize = 16;
const PHASES: u64 = 2_000;
/// The seed the benchmark's per-layer probe hands the simulators.
const SEED: u64 = 0x71c1_8690_ee42_c90b;

fn lossy_link() -> LinkConfig {
    LinkConfig {
        latency: LatencyModel::Fixed(0.01),
        faults: ChannelFaults {
            loss: 0.05,
            ..ChannelFaults::NONE
        },
    }
}

const MAX_TIME: f64 = PHASES as f64 * 20.0 + 1000.0;

/// `(messages, phases)` of the sweep program on `dag`.
fn sweep(dag: SweepDag) -> (u64, u64) {
    let report = sweep_sim::run(
        dag,
        SweepSimConfig {
            target_phases: PHASES,
            seed: SEED,
            link: lossy_link(),
            max_time: MAX_TIME,
            ..Default::default()
        },
    );
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    (report.messages_sent.iter().sum(), report.phases_completed)
}

/// 209.4 messages and 345.3 scheduling points per phase. Before
/// change-driven sending: 489.8 and 528.4.
#[test]
fn mb_sim_ring16_at_five_percent_loss() {
    let report = mb_sim::run(SimMbConfig {
        n: N,
        target_phases: PHASES,
        seed: SEED,
        link: lossy_link(),
        max_time: MAX_TIME,
        ..Default::default()
    });
    assert!(report.reached_target, "{report:?}");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    let messages: u64 = report.messages_sent.iter().sum();
    assert_eq!(
        (messages, report.events_processed, report.phases_completed),
        (418_849, 690_571, PHASES)
    );
}

/// 290.5 messages per phase. Before change-driven sending: 439.0.
#[test]
fn sweep_sim_ring16_at_five_percent_loss() {
    assert_eq!(sweep(SweepDag::ring(N).unwrap()), (580_926, PHASES));
}

/// 245.0 messages per phase. Before change-driven sending: 320.9.
#[test]
fn sweep_sim_tree16_at_five_percent_loss() {
    assert_eq!(sweep(SweepDag::tree(N, 2).unwrap()), (489_964, PHASES));
}
