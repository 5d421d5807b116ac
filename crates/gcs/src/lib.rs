//! Guarded-command simulation substrate — a reimplementation of the modeling
//! power of SIEFAST, the simulator used in Kulkarni & Arora's ICPP 1998 paper
//! *Low-cost Fault-tolerance in Barrier Synchronizations*.
//!
//! Programs are expressed exactly as in the paper: each process owns a finite
//! state and a finite set of guarded actions `⟨name⟩ :: ⟨guard⟩ → ⟨statement⟩`.
//! A guard may read the state of any process (the refinements in the paper
//! restrict *which* processes a guard reads; this crate does not need to know),
//! while a statement updates only the state of its own process.
//!
//! Two execution semantics are provided, matching §2 and §6 of the paper:
//!
//! * [`interleave::Interleaving`] — the classic *weakly fair interleaving*
//!   semantics used for the correctness arguments: in every step one enabled
//!   action executes atomically, and every continuously enabled action is
//!   eventually chosen.
//! * [`engine::Engine`] — the *maximal parallelism* semantics with per-action
//!   real-time costs used for the performance evaluation (§6): "in each step
//!   every process executes one of its enabled actions unless all its actions
//!   are disabled", where each action takes a configurable amount of real time.
//!   It is the crate's one timed engine: its incremental scheduler and its
//!   full-rescan reference ([`EngineConfig::full_rescan`]) are held
//!   byte-identical by the differential suites.
//!
//! Faults are modeled as the paper models them — extra actions that perturb a
//! process's state — and are injected by a [`fault::FaultPlan`] (Poisson
//! arrivals reproducing the paper's `(1-f)^d` survival function, scripted
//! schedules, or one-shot arbitrary perturbations).

pub mod byzantine;
pub mod causal;
pub mod engine;
pub mod explore;
pub mod fault;
pub mod interleave;
pub mod mask;
pub mod monitor;
pub mod protocol;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use byzantine::{ByzantineFaults, ByzantineProcess};
pub use causal::{CausalMonitor, CausalPhaseProjector};
pub use engine::{DenseEngine, DenseEngineConfig, Engine, EngineConfig, RunOutcome, StopReason};
pub use explore::{
    universe, CheckFailure, CounterExample, Exploration, Explorer, NotClosed, StabilizationReport,
    StuckKind,
};
pub use fault::{
    rate_for_frequency, FaultAction, FaultHit, FaultKind, FaultPlan, PoissonFaults, ScriptedFault,
    ScriptedFaults, VictimPolicy,
};
pub use interleave::{ChoicePolicy, Interleaving, InterleavingConfig};
pub use mask::Masked;
pub use monitor::{Monitor, NullMonitor};
pub use protocol::{ActionId, Pid, Protocol, ReaderSet};
pub use rng::SimRng;
pub use stats::RunStats;
pub use telemetry::{PhaseProjector, TelemetryMonitor};
pub use time::Time;
pub use trace::{Trace, TraceEvent};
