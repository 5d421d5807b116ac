//! Multitolerant barrier synchronization — a full reproduction of
//! Kulkarni & Arora, *Low-cost Fault-tolerance in Barrier Synchronizations*
//! (ICPP 1998).
//!
//! The paper develops, by stepwise refinement, a barrier synchronization
//! program that is **masking** tolerant to *detectable* faults (every barrier
//! still executes correctly) and **stabilizing** tolerant to *undetectable*
//! faults (from an arbitrary state, correct execution resumes after at most
//! `m` incorrectly executed phases, where `m` is the number of distinct
//! phases the faults scattered the processes into).
//!
//! The refinement chain, and where each program lives here:
//!
//! | paper | program | module |
//! |-------|---------|--------|
//! | §3    | CB — coarse grain, instant global reads | [`cb`] |
//! | §4.1  | token ring substrate T1–T5 | [`token_ring`] |
//! | §4.1–4.2 | RB on a ring, RB′ on two rings, trees (Fig 2c/2d) | [`sweep`] over a `SweepDag` |
//! | §5    | MB — message passing via local copies | [`sweep::mb_ring`] (structural), crate `ftbarrier-mp` (executable) |
//!
//! Supporting systems: the barrier specification oracle ([`spec`]), the fault
//! taxonomy and auxiliary-variable fault modeling ([`faults`]), the §6.1
//! analytical model ([`analysis`]), the fault-intolerant baseline
//! ([`intolerant`]), the experiment harness ([`sim`], which runs every
//! program on the one timed engine, `ftbarrier_gcs::Engine`), the
//! conformance battery ([`testkit`], which also holds that engine's
//! incremental scheduler byte-identical to its full-rescan reference), and
//! the §7 instantiations ([`instantiations`]).

pub mod analysis;
pub mod byz;
pub mod cb;
pub mod churn;
pub mod cp;
pub mod faults;
pub mod instantiations;
pub mod intolerant;
pub mod results;
pub mod sim;
pub mod sn;
pub mod spec;
pub mod sweep;
pub mod telemetry;
pub mod testkit;
pub mod timeline;
pub mod token_ring;

pub use cp::Cp;
pub use sn::{DomainError, Sn};
