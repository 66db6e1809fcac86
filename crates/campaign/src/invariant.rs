//! The machine-checked campaign invariants.
//!
//! Each checker is a standalone function over public monitor/runtime
//! surfaces, so `tests/fault_containment.rs` and
//! `tests/attack_matrix.rs` reuse exactly the predicates the explorer
//! runs, instead of maintaining parallel ad-hoc assertions.

use extsec_core::{
    AccessMode, Acl, AuditQuery, Decision, ExtError, FlowCheck, HealthReport, HealthState, NsPath,
    PrincipalId, ReferenceMonitor, Subject, Value,
};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// The invariant classes a campaign is checked against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Invariant {
    /// A check was granted that the post-revocation ACL no longer
    /// grants: the revocation did not take effect (or a cached grant
    /// outlived it).
    StaleGrant,
    /// An allowed check whose mandatory lattice flow re-derivation
    /// fails: information flowed against the lattice.
    MacFlow,
    /// An allowed check through an interior node the subject may not
    /// see: traversal visibility was not enforced at every level.
    Visibility,
    /// A quarantined extension (with its cooldown still running) was
    /// dispatched anyway.
    QuarantineBypass,
    /// The cached decision path and the uncached oracle disagree.
    CacheCoherence,
    /// An injected fault minted a grant the fault-free oracle denies.
    FailClosed,
    /// The audit pipeline's persisted record of the campaign is not
    /// gap-accounted: the hash chain failed to verify, a sequence
    /// number is neither persisted nor covered by a declared gap, or a
    /// gap was declared with nothing shed.
    AuditGap,
    /// A memory-hog extension ran to completion: the per-execution byte
    /// budget that should have cut it off was not enforced.
    ResourceBounds,
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Invariant::StaleGrant => "stale-grant",
            Invariant::MacFlow => "mac-flow",
            Invariant::Visibility => "visibility",
            Invariant::QuarantineBypass => "quarantine-bypass",
            Invariant::CacheCoherence => "cache-coherence",
            Invariant::FailClosed => "fail-closed",
            Invariant::AuditGap => "audit-gap",
            Invariant::ResourceBounds => "resource-bounds",
        };
        write!(f, "{name}")
    }
}

impl FromStr for Invariant {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "stale-grant" => Ok(Invariant::StaleGrant),
            "mac-flow" => Ok(Invariant::MacFlow),
            "visibility" => Ok(Invariant::Visibility),
            "quarantine-bypass" => Ok(Invariant::QuarantineBypass),
            "cache-coherence" => Ok(Invariant::CacheCoherence),
            "fail-closed" => Ok(Invariant::FailClosed),
            "audit-gap" => Ok(Invariant::AuditGap),
            "resource-bounds" => Ok(Invariant::ResourceBounds),
            other => Err(format!("unknown invariant {other:?}")),
        }
    }
}

/// A detected invariant violation: which invariant, at which campaign
/// step (0 when the checker ran outside a campaign), and the evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The violated invariant.
    pub invariant: Invariant,
    /// The campaign step during which the violation was detected.
    pub step: usize,
    /// Human-readable evidence.
    pub detail: String,
}

impl Violation {
    pub(crate) fn new(invariant: Invariant, detail: String) -> Self {
        Violation {
            invariant,
            step: 0,
            detail,
        }
    }

    /// Stamps the campaign step the violation was detected at.
    pub fn at_step(mut self, step: usize) -> Self {
        self.step = step;
        self
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at step {}: {}",
            self.invariant, self.step, self.detail
        )
    }
}

/// Whether a denial names an injected fault — the one denial class a
/// fault storm is *allowed* to introduce (faults may lose grants, never
/// mint them).
pub fn is_injected_denial(decision: &Decision) -> bool {
    match decision {
        Decision::Allow => false,
        Decision::Deny(reason) => reason.to_string().contains("injected"),
    }
}

/// Decision-cache coherence: evaluates the request through the cached
/// path and through the uncached oracle and requires them to agree.
/// Under a storm (`storm = true`) the two evaluations meet independent
/// injected faults, so a disagreement is tolerated exactly when the
/// denying side names an injected fault.
pub fn coherent(
    monitor: &ReferenceMonitor,
    subject: &Subject,
    path: &NsPath,
    mode: AccessMode,
    storm: bool,
) -> Result<Decision, Violation> {
    let cached = monitor.check(subject, path, mode);
    let oracle = monitor.check_unmemoized(subject, path, mode);
    let ok = if storm {
        cached.allowed() == oracle.allowed()
            || (cached.allowed() && is_injected_denial(&oracle))
            || (oracle.allowed() && is_injected_denial(&cached))
    } else {
        cached == oracle
    };
    if ok {
        Ok(cached)
    } else {
        Err(Violation::new(
            Invariant::CacheCoherence,
            format!("{path} {mode:?}: cached {cached:?} but uncached oracle {oracle:?}"),
        ))
    }
}

/// MAC lattice flow: an allowed decision is re-derived against the
/// node's current label under the monitor's configured flow policy. A
/// denial trivially satisfies the invariant; an unresolvable node (e.g.
/// an injected resolve fault on the TCB inspection path) is skipped.
pub fn mac_flow(
    monitor: &ReferenceMonitor,
    subject: &Subject,
    path: &NsPath,
    mode: AccessMode,
    decision: &Decision,
) -> Result<(), Violation> {
    if !decision.allowed() {
        return Ok(());
    }
    let config = monitor.config();
    let Ok(prot) = monitor.protection_of(path) else {
        return Ok(());
    };
    if config
        .flow
        .permits(&subject.class, &prot.label, config.flow_check(mode))
    {
        Ok(())
    } else {
        Err(Violation::new(
            Invariant::MacFlow,
            format!(
                "{path} {mode:?} allowed, but flow {:?} from {} to {} is not permitted",
                config.flow_check(mode),
                subject.class,
                prot.label
            ),
        ))
    }
}

/// Traversal visibility: with visibility checking on, an allowed
/// decision is re-derived level by level — every interior node of the
/// path must grant the subject `list` and be observable by its class.
/// A denial trivially satisfies the invariant; an unresolvable prefix
/// (an injected resolve fault on the TCB inspection path) is skipped.
pub fn visibility(
    monitor: &ReferenceMonitor,
    subject: &Subject,
    path: &NsPath,
    mode: AccessMode,
    decision: &Decision,
) -> Result<(), Violation> {
    let config = monitor.config();
    if !decision.allowed() || !config.check_visibility {
        return Ok(());
    }
    for prefix in path.ancestors_from_root().take(path.depth()) {
        let Ok(prot) = monitor.protection_of(&prefix) else {
            continue;
        };
        let listed = monitor.directory(|d| {
            prot.acl
                .check(d, subject.principal, AccessMode::List)
                .granted()
        });
        let observed = config
            .flow
            .permits(&subject.class, &prot.label, FlowCheck::Observe);
        if !(listed && observed) {
            return Err(Violation::new(
                Invariant::Visibility,
                format!(
                    "{path} {mode:?} allowed, but interior {prefix} is hidden from {} \
                     (list {listed}, observe {observed})",
                    subject.principal
                ),
            ));
        }
    }
    Ok(())
}

/// Fail-closed: an observed decision may only be a grant if the
/// fault-free oracle also grants. Used probe-by-probe under storms.
pub fn fail_closed(oracle: &Decision, observed: &Decision) -> Result<(), Violation> {
    if observed.allowed() && !oracle.allowed() {
        Err(Violation::new(
            Invariant::FailClosed,
            format!("oracle denied ({oracle:?}) but the observed decision granted"),
        ))
    } else {
        Ok(())
    }
}

/// Quarantine honoured: given the extension's health report *before* a
/// dispatch and the dispatch outcome, a quarantined extension whose
/// cooldown is still comfortably running must have been refused with
/// the typed error. (A cooldown within 5 s of expiry is not asserted —
/// real time elapses between the report and the dispatch.)
pub fn quarantine_honoured(
    report: &HealthReport,
    outcome: &Result<Option<Value>, ExtError>,
) -> Result<(), Violation> {
    let HealthState::Quarantined { retry_after, .. } = &report.state else {
        return Ok(());
    };
    if *retry_after < Duration::from_secs(5) {
        return Ok(());
    }
    match outcome {
        Err(ExtError::Quarantined { .. }) => Ok(()),
        other => Err(Violation::new(
            Invariant::QuarantineBypass,
            format!(
                "{} quarantined ({}ms cooldown left) but dispatch returned {other:?}",
                report.id,
                retry_after.as_millis()
            ),
        )),
    }
}

/// Resource bounds honoured: a memory-hog extension's dispatch must
/// never run to completion — its accounted footprint crosses the
/// campaign world's byte budget long before its loop ends, so the only
/// legitimate outcomes are a trap (normally `OutOfMemory`; under a
/// storm, any injected error) or a quarantine refusal. A successful
/// return is exactly what the planted `vm.mem.limit_skip` mutant — the
/// interpreter's limit check silently skipped — produces.
pub fn resource_bounded(outcome: &Result<Option<Value>, ExtError>) -> Result<(), Violation> {
    match outcome {
        Ok(value) => Err(Violation::new(
            Invariant::ResourceBounds,
            format!(
                "memory-hog extension ran to completion (returned {value:?}): the \
                 per-execution byte budget never cut it off"
            ),
        )),
        Err(_) => Ok(()),
    }
}

/// Audit gap-freedom: the attached pipeline's persisted log is a
/// tamper-evident, fully accounted record of the session so far. The
/// hash chain must re-derive intact, and the persisted events plus the
/// declared gaps must tile `0..next_seq` exactly — every sequence
/// number the ring ever assigned is either on disk or covered by an
/// explicit loss declaration, never silently missing and never
/// double-covered. When the pipeline's counters show nothing was shed
/// or dropped late, declared gaps are themselves a violation: a
/// lossless run must persist a gap-free chain. Vacuous when no
/// pipeline is attached.
pub fn audit_gap_free(monitor: &ReferenceMonitor) -> Result<(), Violation> {
    if monitor.audit_pipeline().is_none() {
        return Ok(());
    }
    let fail = |detail: String| Violation::new(Invariant::AuditGap, detail);

    let report = monitor
        .audit_verify()
        .map_err(|e| fail(format!("chain verification errored: {e}")))?;
    if !report.ok {
        let broken: Vec<String> = report
            .segments
            .iter()
            .filter(|s| !s.status.is_ok())
            .map(|s| format!("{} {:?}", s.name, s.status))
            .collect();
        return Err(fail(format!(
            "chain integrity broken: [{}]",
            broken.join(", ")
        )));
    }

    // Drain every query page: events as unit ranges, declared gaps as
    // their spans. Sorted, they must tile the space below the cursor.
    let mut covered: Vec<(u64, u64)> = Vec::new();
    let mut gap_ranges = 0u64;
    let mut query = AuditQuery::default();
    let end = loop {
        let page = monitor
            .audit_query(&query)
            .map_err(|e| fail(format!("audit query errored: {e}")))?;
        covered.extend(page.records.iter().map(|r| (r.seq, r.seq)));
        covered.extend(page.gaps.iter().map(|g| (g.first, g.last)));
        gap_ranges += page.gaps.len() as u64;
        if !page.truncated {
            break page.next_seq;
        }
        query.seq_min = page.next_seq;
    };

    covered.sort_unstable();
    let mut expect = 0u64;
    for (first, last) in covered {
        if first != expect || last < first {
            return Err(fail(format!(
                "coverage hole or overlap at seq {expect}: next covered range is \
                 {first}..={last}"
            )));
        }
        expect = last + 1;
    }
    if expect != end {
        return Err(fail(format!(
            "coverage stops at seq {expect} but the persisted cursor is {end}"
        )));
    }

    // Stats are read last: by now every event shed before the query's
    // flush barrier has had its gap declared, so a lossless session
    // must show a literally gap-free log.
    let stats = monitor.audit_pipeline_stats().unwrap_or_default();
    if stats.shed == 0 && stats.late_dropped == 0 && gap_ranges > 0 {
        return Err(fail(format!(
            "nothing was shed, yet {gap_ranges} gap range(s) were declared"
        )));
    }
    Ok(())
}

/// The revocation ledger: for each leaf with a completed guarded
/// revocation, the ACL the monitor acknowledged and the principal
/// indices it revoked. Probes compare live decisions against this
/// ground truth until the next ACL-touching operation supersedes it.
#[derive(Default)]
pub struct RevocationLedger {
    expected: BTreeMap<usize, Expectation>,
}

/// One leaf's post-revocation ground truth.
pub struct Expectation {
    /// The ACL the guarded `set_acl` acknowledged.
    pub acl: Acl,
    /// Principal indices revoked against that ACL (most recent last,
    /// capped — older revocations are superseded by the newer ACL).
    pub principals: Vec<usize>,
}

impl RevocationLedger {
    /// Records a completed revocation of `principal` on `leaf`,
    /// replacing any previous expectation for the leaf.
    pub fn note(&mut self, leaf: usize, acl: Acl, principal: usize) {
        let entry = self.expected.entry(leaf).or_insert_with(|| Expectation {
            acl: Acl::new(),
            principals: Vec::new(),
        });
        entry.acl = acl;
        if !entry.principals.contains(&principal) {
            entry.principals.push(principal);
            if entry.principals.len() > 4 {
                entry.principals.remove(0);
            }
        }
    }

    /// Drops the expectation for `leaf` (its ACL was legitimately
    /// changed by a later operation).
    pub fn clear(&mut self, leaf: usize) {
        self.expected.remove(&leaf);
    }

    /// The expectation for `leaf`, if one is live.
    pub fn expectation(&self, leaf: usize) -> Option<&Expectation> {
        self.expected.get(&leaf)
    }

    /// Up to `n` live expectations in deterministic (leaf-index) order:
    /// the post-mutation re-probe targets.
    pub fn sample(&self, n: usize) -> Vec<(usize, Vec<usize>)> {
        self.expected
            .iter()
            .take(n)
            .map(|(leaf, e)| (*leaf, e.principals.clone()))
            .collect()
    }

    /// Verifies one allowed decision against the ledger: if the leaf
    /// has a live expectation covering this principal and the expected
    /// ACL no longer grants the mode, the grant is stale.
    pub fn verify_grant(
        &self,
        monitor: &ReferenceMonitor,
        leaf: usize,
        principal_index: usize,
        principal: PrincipalId,
        mode: AccessMode,
    ) -> Result<(), Violation> {
        let Some(expectation) = self.expected.get(&leaf) else {
            return Ok(());
        };
        if !expectation.principals.contains(&principal_index) {
            return Ok(());
        }
        let granted = monitor.directory(|d| expectation.acl.check(d, principal, mode).granted());
        if granted {
            Ok(())
        } else {
            Err(Violation::new(
                Invariant::StaleGrant,
                format!(
                    "leaf {leaf} still grants {mode:?} to revoked principal index \
                     {principal_index} ({principal})"
                ),
            ))
        }
    }

    /// Number of leaves with live expectations.
    pub fn len(&self) -> usize {
        self.expected.len()
    }

    /// Whether the ledger has no live expectations.
    pub fn is_empty(&self) -> bool {
        self.expected.is_empty()
    }
}
