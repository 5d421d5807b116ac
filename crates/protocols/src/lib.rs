//! Barrier-adjacent sibling protocols on the guarded-command substrate.
//!
//! The sweep barrier is one member of a family of "token circulates, global
//! predicate is decided" protocols. This crate implements two siblings from
//! the related-work constellation, as proving grounds for the Byzantine
//! fault environment in `ftbarrier-gcs` and the quarantine machinery in
//! `ftbarrier-core`:
//!
//! * [`safra::SafraRing`] — Safra-style termination detection on a ring,
//!   hardened in the fault-tolerant direction of Fokkink et al.: the token
//!   carries a sequence number (Dijkstra-style, so a lost or forged token is
//!   eventually superseded), stealing processes blacken themselves, and the
//!   root announces only after **two** consecutive clean circulations.
//! * [`synccount::SyncCount`] — majority-rule synchronous counting in the
//!   style of Lenzen & Rybicki: under the synchronous (maximal-parallelism)
//!   engine every correct process adopts the same majority value each round,
//!   so counters agree after one round and count in lockstep from then on —
//!   even with a Byzantine minority — while under *asynchronous*
//!   interleaving the same rule can be kept out of agreement forever, which
//!   is exactly the gap the self-stabilizing counting literature addresses.
//!
//! Both protocols implement [`ftbarrier_gcs::Protocol`], declare honest
//! [`ftbarrier_gcs::Protocol::readers_of`] sets, and are exercised by the
//! scheduler-differential conformance check in `ftbarrier_core::testkit`
//! (incremental ≡ full rescan) plus Byzantine tests built on
//! `ftbarrier_core::faults::WithByzantine`.

pub mod safra;
pub mod synccount;

pub use safra::{SafraRing, SafraState};
pub use synccount::SyncCount;
