//! The topology-generic conformance suite.
//!
//! Every sweep topology family must pass the full `testkit` battery:
//! sweep-completeness, legal-set/coset structure (including adversarial
//! sequence-number domains with `gcd(3, L) ≠ 1` — the PR-5 audit pitfall),
//! byte-identical incremental-vs-full-rescan traces with and without faults
//! and telemetry, fault-plan masking and stabilization, churn splice/graft,
//! and byte-identical causal happens-before dumps across the schedulers with
//! the flight recorder armed. One test per family
//! so failures localize and the families run in parallel.
//!
//! Adding a topology? Add its `TopologySpec` here and it inherits the whole
//! battery — nothing else to write.

use ftbarrier_core::sim::TopologySpec;
use ftbarrier_core::testkit::check_conformance;

#[test]
fn ring_conforms() {
    check_conformance(TopologySpec::Ring { n: 8 });
}

#[test]
fn tree_conforms() {
    check_conformance(TopologySpec::Tree { n: 16, arity: 2 });
}

#[test]
fn double_tree_conforms() {
    check_conformance(TopologySpec::DoubleTree { n: 8, arity: 2 });
}

#[test]
fn mb_ring_conforms() {
    check_conformance(TopologySpec::MbRing { n: 8 });
}

#[test]
fn dissemination_radix2_conforms() {
    check_conformance(TopologySpec::Dissemination { n: 8, radix: 2 });
}

#[test]
fn dissemination_radix4_conforms() {
    check_conformance(TopologySpec::Dissemination { n: 16, radix: 4 });
}

#[test]
fn dissemination_non_power_size_conforms() {
    // Partner offsets collide mod n on non-power sizes and are deduped; the
    // resulting DAG must still pass everything.
    check_conformance(TopologySpec::Dissemination { n: 6, radix: 2 });
}

#[test]
fn hypercube_conforms() {
    check_conformance(TopologySpec::Hypercube { n: 8 });
}

#[test]
fn butterfly_conforms() {
    check_conformance(TopologySpec::Butterfly { n: 8 });
}
