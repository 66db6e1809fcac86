//! Policy bundles: versioned, validated diffs staged against a base
//! generation and activated in one snapshot publish.
//!
//! A bundle arrives as text in the [`extsec_lang::bundle`] dialect. The
//! monitor *stages* it — parses the document and compiles every edit
//! against the live directory, lattice, and name space, so an ACL that
//! names an unknown principal or a class outside the lattice is rejected
//! before it can ever be activated — and records the compiled changeset
//! under a fresh [`BundleId`]. *Activation* replays the compiled edits
//! onto a clone of the published state and swaps the result in with the
//! monitor's ordinary RCU publish, so a concurrent batch pinned to either
//! snapshot sees all of the bundle or none of it. The bundle's base
//! generation is compare-and-swapped against the active generation at
//! activation time: if any mutation (another bundle, a direct
//! administrative edit) landed in between, activation refuses with
//! [`BundleError::BaseConflict`] instead of applying a diff to a state it
//! was not authored against.
//!
//! *Shadow* mode installs the staged policy next to the active one: the
//! real check path keeps enforcing the active policy, but also evaluates
//! the staged one and counts would-be flips (allow→deny, deny→allow, per
//! principal and leaf) into telemetry. *Rollback* pops the most recent
//! pre-activation snapshot off a bounded ring and republishes its policy
//! — one more atomic publish, restoring the prior decision surface
//! byte-for-byte.

use crate::decision::Decision;
use extsec_acl::{parse_acl, Acl, Directory, PrincipalId};
use extsec_lang::bundle::{BaseRef, BundleDoc, BundleOp};
use extsec_mac::{Lattice, SecurityClass};
use extsec_namespace::{NameSpace, NsPath};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A policy generation: the stamp every published state snapshot, audit
/// record and bundle base carries. It rises with every policy mutation.
/// Distinct from [`BundleId`] by construction so a bundle id can never be
/// passed where a generation is expected.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Generation(u64);

impl Generation {
    /// The generation every monitor starts at.
    pub const ZERO: Generation = Generation(0);

    /// Wraps a raw counter value.
    pub fn from_raw(raw: u64) -> Self {
        Generation(raw)
    }

    /// The raw counter value (for wire encoding and display).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The generation after this one.
    pub(crate) fn next(self) -> Generation {
        Generation(self.0 + 1)
    }
}

impl fmt::Display for Generation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A staged bundle's handle, assigned at stage time and used to
/// activate, shadow, or discard that bundle.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct BundleId(u64);

impl BundleId {
    /// Wraps a raw id value.
    pub fn from_raw(raw: u64) -> Self {
        BundleId(raw)
    }

    /// The raw id value (for wire encoding and display).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for BundleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Why a bundle operation was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BundleError {
    /// The bundle text failed to parse or compile against the live
    /// policy (unknown path, principal, or class; bad ACL text). Carries
    /// the 1-based source line and a message.
    Compile {
        /// 1-based line of the offending statement (0 for whole-document
        /// failures).
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// The bundle's base generation no longer matches the active one:
    /// policy moved between stage (or authoring) and activation.
    BaseConflict {
        /// The base generation the bundle was staged against.
        expected: Generation,
        /// The generation actually active at activation time.
        actual: Generation,
    },
    /// No staged bundle carries this id.
    UnknownBundle(BundleId),
    /// Rollback was requested but the ring of prior snapshots is empty.
    NoHistory,
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::Compile { line, msg } => write!(f, "line {line}: {msg}"),
            BundleError::BaseConflict { expected, actual } => write!(
                f,
                "base generation conflict: bundle staged against {expected}, active is {actual}"
            ),
            BundleError::UnknownBundle(id) => write!(f, "no staged bundle with id {id}"),
            BundleError::NoHistory => write!(f, "no prior activation to roll back to"),
        }
    }
}

impl std::error::Error for BundleError {}

/// One edit compiled against the live policy: paths resolved, ACL text
/// parsed against the directory, classes validated against the lattice.
#[derive(Clone, Debug)]
pub(crate) enum CompiledOp {
    /// Replace the ACL on the node.
    SetAcl(NsPath, Acl),
    /// Append entries to the node's ACL.
    AclAdd(NsPath, Acl),
    /// Replace the node's security label.
    SetLabel(NsPath, SecurityClass),
    /// Relabel the node and everything beneath it.
    RelabelSubtree(NsPath, SecurityClass),
}

impl CompiledOp {
    /// The op's name in the bundle grammar, for status reports.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            CompiledOp::SetAcl(..) => "set-acl",
            CompiledOp::AclAdd(..) => "acl-add",
            CompiledOp::SetLabel(..) => "set-label",
            CompiledOp::RelabelSubtree(..) => "relabel-subtree",
        }
    }
}

/// A staged bundle: the compiled changeset plus the identity it was
/// staged under.
#[derive(Clone, Debug)]
pub(crate) struct CompiledBundle {
    pub(crate) id: BundleId,
    pub(crate) name: String,
    pub(crate) version: u64,
    pub(crate) base: Generation,
    pub(crate) ops: Vec<CompiledOp>,
}

/// What `stage_bundle` returns: the handle and the resolved base.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StagedBundle {
    /// The handle to activate or shadow this bundle by.
    pub id: BundleId,
    /// The bundle's declared name.
    pub name: String,
    /// The author's version counter.
    pub version: u64,
    /// The base generation the bundle is pinned to (a `base current`
    /// header resolves to the generation active at stage time).
    pub base: Generation,
    /// How many edits the bundle compiled to.
    pub ops: usize,
}

/// One principal/leaf pair whose decision would flip under the shadowed
/// policy, with counts per direction.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlipRecord {
    /// The checking subject's principal id.
    pub principal: PrincipalId,
    /// The checked path.
    pub path: String,
    /// Checks the active policy allowed that the shadowed policy would
    /// deny.
    pub allow_to_deny: u64,
    /// Checks the active policy denied that the shadowed policy would
    /// allow.
    pub deny_to_allow: u64,
}

/// The shadow-mode report inside [`BundleStatusReport`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShadowReport {
    /// The bundle currently being shadowed.
    pub bundle: BundleId,
    /// Checks dual-evaluated since shadow mode went on.
    pub checks: u64,
    /// Total allow→deny flips observed.
    pub allow_to_deny: u64,
    /// Total deny→allow flips observed.
    pub deny_to_allow: u64,
    /// Per-(principal, leaf) flip counts, most-flipped first. Bounded;
    /// once full, new pairs are dropped (the totals above still count).
    pub flips: Vec<FlipRecord>,
}

/// The monitor's answer to a bundle-status query.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BundleStatusReport {
    /// The active policy generation.
    pub active: Generation,
    /// Every staged-but-not-activated bundle.
    pub staged: Vec<StagedBundle>,
    /// The shadow report, when shadow mode is on.
    pub shadow: Option<ShadowReport>,
    /// How many prior snapshots the rollback ring holds.
    pub history: usize,
}

/// Per-(principal, leaf) flip accumulator behind shadow mode.
#[derive(Default)]
pub(crate) struct FlipCounts {
    pub(crate) allow_to_deny: u64,
    pub(crate) deny_to_allow: u64,
}

/// Bounded flip table: at most this many distinct (principal, leaf)
/// pairs are tracked; totals keep counting past the cap.
pub(crate) const FLIP_TABLE_CAP: usize = 1024;

/// Shadow-mode accumulators, reset every time shadow mode toggles on.
#[derive(Default)]
pub(crate) struct ShadowStats {
    pub(crate) checks: u64,
    pub(crate) allow_to_deny: u64,
    pub(crate) deny_to_allow: u64,
    pub(crate) flips: HashMap<(PrincipalId, String), FlipCounts>,
}

impl ShadowStats {
    /// Folds one dual-evaluation into the accumulators.
    pub(crate) fn record(
        &mut self,
        principal: PrincipalId,
        path: &NsPath,
        enforced: &Decision,
        shadowed: &Decision,
    ) {
        self.checks += 1;
        let enforced_allows = matches!(enforced, Decision::Allow);
        let shadowed_allows = matches!(shadowed, Decision::Allow);
        if enforced_allows == shadowed_allows {
            return;
        }
        if enforced_allows {
            self.allow_to_deny += 1;
        } else {
            self.deny_to_allow += 1;
        }
        let key = (principal, path.to_string());
        if self.flips.len() >= FLIP_TABLE_CAP && !self.flips.contains_key(&key) {
            return;
        }
        let counts = self.flips.entry(key).or_default();
        if enforced_allows {
            counts.allow_to_deny += 1;
        } else {
            counts.deny_to_allow += 1;
        }
    }

    /// Renders the accumulators as a report, most-flipped pairs first.
    pub(crate) fn report(&self, bundle: BundleId) -> ShadowReport {
        let mut flips: Vec<FlipRecord> = self
            .flips
            .iter()
            .map(|((principal, path), counts)| FlipRecord {
                principal: *principal,
                path: path.clone(),
                allow_to_deny: counts.allow_to_deny,
                deny_to_allow: counts.deny_to_allow,
            })
            .collect();
        flips.sort_by(|a, b| {
            (b.allow_to_deny + b.deny_to_allow, &a.path)
                .cmp(&(a.allow_to_deny + a.deny_to_allow, &b.path))
        });
        ShadowReport {
            bundle,
            checks: self.checks,
            allow_to_deny: self.allow_to_deny,
            deny_to_allow: self.deny_to_allow,
            flips,
        }
    }
}

fn compile_err<T>(line: usize, msg: impl Into<String>) -> Result<T, BundleError> {
    Err(BundleError::Compile {
        line,
        msg: msg.into(),
    })
}

/// Resolves a bundle's base reference against the active generation.
pub(crate) fn resolve_base(base: BaseRef, active: Generation) -> Generation {
    match base {
        BaseRef::Current => active,
        BaseRef::Generation(g) => Generation::from_raw(g),
    }
}

/// Compiles a parsed bundle document against the live policy. Every
/// path must resolve, every ACL entry must name a known principal or
/// group, and every class must validate against the lattice — a bundle
/// that compiles can be activated without partial application.
pub(crate) fn compile_ops(
    doc: &BundleDoc,
    namespace: &NameSpace,
    directory: &Directory,
    lattice: &Lattice,
) -> Result<Vec<CompiledOp>, BundleError> {
    let mut ops = Vec::with_capacity(doc.ops.len());
    for statement in &doc.ops {
        let line = statement.line;
        let parse_path = |text: &str| -> Result<NsPath, BundleError> {
            let path: NsPath = match text.parse() {
                Ok(path) => path,
                Err(e) => return compile_err(line, format!("bad path {text:?}: {e}")),
            };
            if let Err(e) = namespace.resolve(&path) {
                return compile_err(line, format!("path {text:?} does not resolve: {e}"));
            }
            Ok(path)
        };
        let parse_class = |text: &str| -> Result<SecurityClass, BundleError> {
            match lattice.parse_class(text) {
                Ok(class) => Ok(class),
                Err(e) => compile_err(line, format!("bad class {text:?}: {e}")),
            }
        };
        let parse_entries = |text: &str| -> Result<Acl, BundleError> {
            match parse_acl(directory, text) {
                Ok(acl) => Ok(acl),
                Err(e) => compile_err(line, format!("bad ACL {text:?}: {e}")),
            }
        };
        let op = match &statement.op {
            BundleOp::SetAcl { path, acl } => {
                CompiledOp::SetAcl(parse_path(path)?, parse_entries(acl)?)
            }
            BundleOp::AclAdd { path, acl } => {
                CompiledOp::AclAdd(parse_path(path)?, parse_entries(acl)?)
            }
            BundleOp::SetLabel { path, class } => {
                CompiledOp::SetLabel(parse_path(path)?, parse_class(class)?)
            }
            BundleOp::RelabelSubtree { path, class } => {
                CompiledOp::RelabelSubtree(parse_path(path)?, parse_class(class)?)
            }
        };
        ops.push(op);
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newtypes_do_not_cross() {
        let g = Generation::from_raw(7);
        let b = BundleId::from_raw(7);
        assert_eq!(g.raw(), b.raw());
        assert_eq!(g.to_string(), "7");
        assert_eq!(serde_json::to_string(&g).unwrap(), "7");
        let back: Generation = serde_json::from_str("7").unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn shadow_stats_count_flips_per_direction() {
        let mut stats = ShadowStats::default();
        let alice = PrincipalId::from_raw(1);
        let path: NsPath = "/svc/fs/read".parse().unwrap();
        stats.record(alice, &path, &Decision::Allow, &Decision::Allow);
        stats.record(
            alice,
            &path,
            &Decision::Allow,
            &Decision::Deny(crate::decision::DenyReason::DacNoEntry),
        );
        stats.record(
            alice,
            &path,
            &Decision::Deny(crate::decision::DenyReason::DacNoEntry),
            &Decision::Allow,
        );
        let report = stats.report(BundleId::from_raw(3));
        assert_eq!(report.checks, 3);
        assert_eq!(report.allow_to_deny, 1);
        assert_eq!(report.deny_to_allow, 1);
        assert_eq!(report.flips.len(), 1);
        assert_eq!(report.flips[0].allow_to_deny, 1);
        assert_eq!(report.flips[0].deny_to_allow, 1);
    }

    #[test]
    fn flip_table_is_bounded_but_totals_keep_counting() {
        let mut stats = ShadowStats::default();
        let deny = Decision::Deny(crate::decision::DenyReason::DacNoEntry);
        for i in 0..(FLIP_TABLE_CAP + 10) {
            let path: NsPath = format!("/svc/n{i}").parse().unwrap();
            stats.record(PrincipalId::from_raw(1), &path, &Decision::Allow, &deny);
        }
        assert_eq!(stats.flips.len(), FLIP_TABLE_CAP);
        assert_eq!(stats.allow_to_deny, (FLIP_TABLE_CAP + 10) as u64);
    }
}
