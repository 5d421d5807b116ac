//! Barrier-as-a-service: the paper's program MB behind a TCP accept loop.
//!
//! A long-running server ([`server::Server`]) multiplexes framed client
//! sessions onto sharded barrier groups. Each group is a complete MB ring
//! ([`group::BarrierGroup`]) whose "processes" are remote clients: an
//! `Arrive` frame is a phase-body completion, a vanished session is a
//! §4.1 detectable fault (spliced out immediately on EOF, or by the
//! heartbeat detector on silence), and each root success sweep becomes a
//! `Release` broadcast. A hand-rolled HTTP endpoint serves the live
//! Prometheus exposition.
//!
//! Layers:
//!
//! * [`wire`] — the length-prefixed client↔server frame protocol;
//! * [`group`] — one MB ring fed by an arrival ledger;
//! * `readiness` — the `epoll`/`eventfd` wrapper every server thread blocks on;
//! * [`server`] — acceptor, shard workers, `/metrics`;
//! * [`client`] — blocking client library and load generator;
//! * [`selftest`] — the `repro serve` acceptance run.

pub mod client;
pub mod group;
mod readiness;
pub mod selftest;
pub mod server;
pub mod wire;

pub use client::{run_client, BarrierClient, ClientOutcome};
pub use group::{BarrierGroup, GroupConfig, GroupRelease, GroupTick, KillOutcome};
pub use selftest::{http_get, run_selftest, SelfTestReport};
pub use server::{Server, ServerConfig};
pub use wire::{ClientFrame, FrameError, ServerFrame};
