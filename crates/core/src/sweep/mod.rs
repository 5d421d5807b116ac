//! The refined barrier programs (§4–§5) as one generalized *sweep* program.
//!
//! §4.1 superposes the barrier's `cp`/`ph` updates on a multitolerant token
//! ring; §4.2 parallelizes the ring into two rings and trees by "repetitively
//! using Lemma 4.2.1"; §5 splits each process into its real variables and
//! local copies of its neighbor's, observing that the result "is equivalent
//! to [the ring program] where the ring consists of 2(N+1) processes".
//!
//! All of these are the same program over different [`SweepDag`]s, with some
//! positions doing the phase work and others merely relaying (the §5 local
//! copies, the §4.2 up-tree duplicates):
//!
//! * ring ([`SweepDag::ring`]) → program **RB**;
//! * two rings ([`SweepDag::two_ring`]) → program **RB′**;
//! * tree with leaves linked to the root ([`SweepDag::tree`]) → Fig 2(c);
//! * double tree ([`SweepDag::double_tree`]) → Fig 2(d);
//! * alternating real/copy ring ([`mb_ring`]) → program **MB**.
//!
//! [`SweepDag`]: ftbarrier_topology::SweepDag
//! [`SweepDag::ring`]: ftbarrier_topology::SweepDag::ring
//! [`SweepDag::two_ring`]: ftbarrier_topology::SweepDag::two_ring
//! [`SweepDag::tree`]: ftbarrier_topology::SweepDag::tree
//! [`SweepDag::double_tree`]: ftbarrier_topology::SweepDag::double_tree

mod faults;
mod mb;
mod program;
mod state;

pub use faults::{
    pos_in_domain, ProcessFaults, SweepByzantineFault, SweepDetectableFault, SweepUndetectableFault,
};
pub use mb::mb_ring;
pub use program::{SweepBarrier, POSTWORK, RECV, T3, T4, T5, WORK};
pub use state::PosState;
