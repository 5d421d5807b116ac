//! Message-passing substrate: two process cores × three media over one
//! transport seam (§5, and §5 generalized to the topologies of §4.2).
//!
//! The core crate proves the structure (own variables + local copies of what
//! the guards read). This crate *runs* it. A program is a per-process state
//! machine that knows no transport and no clock — a [`proc::Process`]:
//!
//! * [`proc::MbCore`] — program MB on the ring: `sn.j, cp.j, ph.j` plus a
//!   copy of the predecessor's;
//! * [`sweep_core::SweepCore`] — the sweep program on any
//!   [`SweepDag`](ftbarrier_topology::SweepDag) (ring, trees, two-ring,
//!   dissemination, hypercube, butterfly): own positions plus copies of the
//!   neighbours', evaluating the verified `SweepBarrier` guards.
//!
//! Every core is pumped by the same [`proc::pump`] through the same seam,
//! [`transport::Endpoint`] — a process's port, fanning out on every outgoing
//! link and draining every incoming one — so either runs on every medium:
//!
//! | | [`proc::MbCore`] | [`sweep_core::SweepCore`] |
//! |---|---|---|
//! | threads + faulty channels ([`threaded`], [`channel`], [`Clock`]) | [`mb`] | [`sweep_mp`] |
//! | simulated network ([`sim`], [`simnet`]) | [`mb_sim`] | [`sweep_sim`] |
//! | TCP sockets ([`socket`]) | [`mb::spawn_on`] over a [`socket_ring`] | — (no socket mesh yet) |
//!
//! * threaded — real `std::thread` processes connected by faulty links, with
//!   resend/deadline timing routed through a [`Clock`] so
//!   tests can drive a run on virtual time; [`mb`] and [`sweep_mp`] are
//!   configuration/report/handle façades over the one driver;
//! * simulated — the same cores on a seeded discrete-event network, run by
//!   one driver ([`sim`]): virtual time, per-link latency models, scheduled
//!   fault plans (loss, duplication, reordering, detectable corruption,
//!   forgery, and for MB link partitions with healing, crash/reboot and
//!   membership churn), byte-for-byte replayable from one seed; [`mb_sim`]
//!   and [`sweep_sim`] keep only their configuration, report and fault
//!   menu;
//! * socket — length-prefixed TCP between OS processes: non-blocking framed
//!   reads, checksummed payloads, in-frame causal tags, and
//!   reconnect-with-backoff so a peer crash degrades to the detectable loss
//!   the protocol already masks.
//!
//! Every medium injects the same link faults — loss, detectable
//! corruption, duplication and reordering — through one model per link,
//! `channel::FaultyLink`, whose draw order [`channel`] documents; a
//! medium only maps the copies it hands back onto its wire.
//!
//! Both drivers, threaded and simulated, publish a process's state on the
//! one resend policy, [`proc::Resend`]: at once on every change, then
//! resends of unchanged state at a doubling interval up to a fixed cap,
//! reset by the next change.
//!
//! Every backend logs control-position changes as [`proc::CpEvent`]s on one
//! run-global sequence counter and replays the merged log through the
//! barrier specification oracle ([`telemetry::replay`] and its per-segment
//! form, [`telemetry::replay_segments`]).

pub mod channel;
pub mod mb;
pub mod mb_sim;
pub mod proc;
pub mod sim;
pub mod simnet;
pub mod socket;
pub mod sweep_core;
pub mod sweep_mp;
pub mod sweep_sim;
pub mod telemetry;
pub mod threaded;
pub mod transport;

pub use channel::{ChannelFaults, Delivery};
pub use ftbarrier_telemetry::{Clock, TestClock, WallClock};
pub use mb::{MbConfig, MbProcessHandle, MbReport, MbRun};
pub use mb_sim::{
    ChurnConfig, CrashPlan, FaultPlan, PartitionPlan, SimMbConfig, SimMbReport, TraceLog, WireMsg,
};
pub use proc::{sn_domain, try_sn_domain, MbCore, Process, Resend, StateMsg};
pub use simnet::{LatencyModel, LinkConfig, NetStats, SimNet};
pub use socket::{connect_endpoint, socket_ring, FrameReader, SocketEndpoint};
pub use sweep_core::{subscriptions, PosMsg, SweepCore};
pub use sweep_mp::{SweepMpConfig, SweepMpHandle, SweepMpReport, SweepMpRun};
pub use sweep_sim::{SweepSimConfig, SweepSimReport};
pub use telemetry::record_cp_timeline;
pub use transport::{channel_mesh, channel_ring, ChannelEndpoint, Endpoint};
