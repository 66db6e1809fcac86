//! Adversarial campaign explorer and deterministic scenario generator.
//!
//! The paper's central claim is that the access-control mechanisms stay
//! sound under *sequences* of hostile actions — extension installs,
//! policy mutations, revocations — not just single checks. This crate
//! searches that reachable policy-state space:
//!
//! * [`world`] — a deterministic scenario generator building campus and
//!   app-store worlds from a [`WorldSpec`] (10^1–10^6 principals, deep
//!   namespaces, layered DAC + MAC policies). The same generator is the
//!   explorer's starting state and the F15 scale harness.
//! * [`op`] — the campaign vocabulary: principal/group churn, node
//!   creation and removal, grants, negative entries, guarded
//!   revocations, relabels, interior nodes hidden from a principal,
//!   extension install/run/quarantine churn,
//!   logical clock advances, and (concurrent) checks. A [`Campaign`] is
//!   a spec + seed + step list with a text codec, so every failure is a
//!   replayable artifact (`tests/corpus/`).
//! * [`invariant`] — the machine-checked invariants: no stale grant
//!   after revoke, no MAC lattice-flow violation on an allowed check,
//!   no allowed check through an interior node the subject may not
//!   see, no quarantine bypass, batch checks deciding each item as a
//!   single check does, fail-closed under injected faults, and audit
//!   gap-freedom (the session's hash-chained audit log verifies with
//!   every sequence number persisted or gap-declared).
//! * [`explorer`] — guided traversal: weighted operation selection
//!   biased toward (principal, leaf) pairs whose decisions recently
//!   flipped, with every probe checked against all invariants.
//! * [`shrink`] — ddmin-style campaign minimization: a violating
//!   campaign shrinks to a minimal step list that still reproduces the
//!   same invariant violation.
//!
//! Campaigns optionally run under a fault *storm* (`crates/faults`,
//! fail-closed by contract) and/or with planted *mutants* — known-bad
//! fail-open bugs like a silently skipped revocation — which only
//! scripted plans can arm. DESIGN.md §6.11 documents the model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rng;

pub mod explorer;
pub mod invariant;
pub mod op;
pub mod session;
pub mod shrink;
pub mod world;

pub use explorer::{explore, ExploreConfig, Outcome};
pub use invariant::{
    audit_gap_free, coherent, fail_closed, is_injected_denial, mac_flow, quarantine_honoured,
    resource_bounded, visibility, Invariant, RevocationLedger, Violation,
};
pub use op::{Campaign, Mutant, Op, Storm};
pub use session::{Session, SessionStats};
pub use shrink::{minimize, replay, MinimizeReport};
pub use world::{ExtKind, Profile, World, WorldSpec};
