//! Immutable telemetry snapshots and their prose rendering.

use crate::histogram::HistogramSnapshot;
use crate::{DispatchOutcome, ExtFault, ServiceKind, Stage};
use extsec_acl::AccessMode;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Audit-chain health at snapshot time: the audit ring's in-memory view
/// and the persistent pipeline (when attached). Produced by
/// the audit source a monitor registers with
/// [`Telemetry::set_audit_source`](crate::Telemetry::set_audit_source);
/// the telemetry crate itself stays decoupled from the audit types.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditSnapshot {
    /// The ring's configured capacity.
    pub ring_capacity: u64,
    /// Events currently retained in the ring.
    pub ring_retained: u64,
    /// Events evicted from the ring to stay under capacity.
    pub ring_dropped: u64,
    /// Whether a persistent audit pipeline is attached.
    pub pipeline_attached: bool,
    /// Events written into the pipeline's ring and not shed.
    pub pipeline_enqueued: u64,
    /// Events overwritten in the ring before the drainer read them
    /// (later declared as gaps).
    pub pipeline_shed: u64,
    /// Stragglers dropped after their loss was already declared.
    pub pipeline_late_dropped: u64,
    /// Event entries persisted into chained segments.
    pub pipeline_persisted: u64,
    /// Gap entries persisted.
    pub pipeline_gap_records: u64,
    /// Total sequence numbers covered by persisted gaps.
    pub pipeline_gap_missing: u64,
    /// Segments sealed into the manifest.
    pub pipeline_segments_sealed: u64,
    /// Store I/O failures observed by the drainer.
    pub pipeline_io_errors: u64,
    /// Events written into the ring but not yet drained.
    pub pipeline_queue_depth: u64,
    /// The next sequence number the pipeline expects.
    pub pipeline_next_seq: u64,
}

/// One stage's distribution at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Which pipeline stage this is.
    pub stage: Stage,
    /// The stage's latency distribution; `hist.count` is how many times
    /// the stage fired.
    pub hist: HistogramSnapshot,
}

/// An immutable, internally consistent view of every telemetry counter
/// and histogram, exported alongside
/// `cache_stats()`/`audit_stats()`. Taking a snapshot never blocks the
/// pipeline; all counters are monotone, so fields from two successive
/// snapshots of the same [`Telemetry`](crate::Telemetry) never decrease.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySnapshot {
    /// Whether collection was enabled when the snapshot was taken.
    pub enabled: bool,
    /// Per-stage latency distributions, in [`Stage::ALL`] order.
    pub stages: Vec<StageSnapshot>,
    /// Checks seen per access mode, in [`AccessMode::ALL`] order.
    pub modes: Vec<(AccessMode, u64)>,
    /// Operations seen per service, in [`ServiceKind::ALL`] order.
    pub services: Vec<(ServiceKind, u64)>,
    /// Call routings per outcome, in [`DispatchOutcome::ALL`] order.
    pub dispatch: Vec<(DispatchOutcome, u64)>,
    /// Extension faults recorded by the health ledger, in
    /// [`ExtFault::ALL`] order.
    pub ext_faults: Vec<(ExtFault, u64)>,
    /// Circuit-breaker trips (extensions entering quarantine).
    pub quarantines: u64,
    /// Dispatches refused because the extension was quarantined.
    pub quarantine_denials: u64,
    /// Probation (half-open) trial dispatches.
    pub probation_trials: u64,
    /// Probation trials that succeeded and re-admitted the extension.
    pub probation_readmits: u64,
    /// Monitor views (pinned snapshots) opened.
    pub views: u64,
    /// Operations performed through a view (one pin, many steps).
    pub view_ops: u64,
    /// Checks dual-evaluated against a shadowed policy bundle.
    pub shadow_checks: u64,
    /// Shadow-mode would-be flips from allow to deny.
    pub shadow_allow_to_deny: u64,
    /// Shadow-mode would-be flips from deny to allow.
    pub shadow_deny_to_allow: u64,
    /// Audit-chain health, when the hub has an audit source registered
    /// (the monitor registers one at construction).
    pub audit: Option<AuditSnapshot>,
}

impl TelemetrySnapshot {
    /// The distribution of one stage.
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage as usize].hist
    }

    /// Checks seen for one access mode.
    pub fn mode(&self, mode: AccessMode) -> u64 {
        self.modes[mode as usize].1
    }

    /// Operations seen by one service.
    pub fn service(&self, kind: ServiceKind) -> u64 {
        self.services[kind as usize].1
    }

    /// Call routings with one outcome.
    pub fn dispatch(&self, outcome: DispatchOutcome) -> u64 {
        self.dispatch[outcome as usize].1
    }

    /// Extension faults recorded for one class.
    pub fn ext_fault(&self, fault: ExtFault) -> u64 {
        self.ext_faults[fault as usize].1
    }

    /// Total checks observed (the `Check` stage count).
    pub fn checks(&self) -> u64 {
        self.stage(Stage::Check).count
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl fmt::Display for TelemetrySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "telemetry ({}): {} checks, {} views ({} ops through views)",
            if self.enabled { "enabled" } else { "disabled" },
            self.checks(),
            self.views,
            self.view_ops,
        )?;
        writeln!(f, "  stage timings (count, mean, p50, p99, max):")?;
        for s in &self.stages {
            if s.hist.count == 0 {
                continue;
            }
            writeln!(
                f,
                "    {:<10} {:>10} x {:>8} mean, {:>8} p50, {:>8} p99, {:>8} max",
                s.stage.name(),
                s.hist.count,
                fmt_ns(s.hist.mean_ns()),
                fmt_ns(s.hist.quantile_ns(0.5)),
                fmt_ns(s.hist.quantile_ns(0.99)),
                fmt_ns(s.hist.max_ns),
            )?;
        }
        let modes: Vec<String> = self
            .modes
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(m, n)| format!("{m}: {n}"))
            .collect();
        if !modes.is_empty() {
            writeln!(f, "  checks by mode: {}", modes.join(", "))?;
        }
        let services: Vec<String> = self
            .services
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(s, n)| format!("{}: {n}", s.name()))
            .collect();
        if !services.is_empty() {
            writeln!(f, "  service operations: {}", services.join(", "))?;
        }
        let dispatch: Vec<String> = self
            .dispatch
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(d, n)| format!("{}: {n}", d.name()))
            .collect();
        if !dispatch.is_empty() {
            writeln!(f, "  call dispatch: {}", dispatch.join(", "))?;
        }
        let faults: Vec<String> = self
            .ext_faults
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(fault, n)| format!("{}: {n}", fault.name()))
            .collect();
        if !faults.is_empty() {
            writeln!(f, "  extension faults: {}", faults.join(", "))?;
        }
        if self.quarantines > 0 || self.quarantine_denials > 0 {
            writeln!(
                f,
                "  quarantine: {} trips, {} denials, {} trials ({} re-admitted)",
                self.quarantines,
                self.quarantine_denials,
                self.probation_trials,
                self.probation_readmits,
            )?;
        }
        if self.shadow_checks > 0 {
            writeln!(
                f,
                "  shadow: {} dual-evaluated, {} allow→deny, {} deny→allow",
                self.shadow_checks, self.shadow_allow_to_deny, self.shadow_deny_to_allow,
            )?;
        }
        if let Some(audit) = &self.audit {
            writeln!(
                f,
                "  audit ring: {}/{} retained, {} evicted",
                audit.ring_retained, audit.ring_capacity, audit.ring_dropped,
            )?;
            if audit.pipeline_attached {
                writeln!(
                    f,
                    "  audit pipeline: {} enqueued, {} shed, {} persisted \
                     (+{} gap entries covering {} seqs), {} sealed, {} queued, next seq {}",
                    audit.pipeline_enqueued,
                    audit.pipeline_shed,
                    audit.pipeline_persisted,
                    audit.pipeline_gap_records,
                    audit.pipeline_gap_missing,
                    audit.pipeline_segments_sealed,
                    audit.pipeline_queue_depth,
                    audit.pipeline_next_seq,
                )?;
                if audit.pipeline_io_errors > 0 {
                    writeln!(
                        f,
                        "  audit pipeline IO ERRORS: {}",
                        audit.pipeline_io_errors
                    )?;
                }
            }
        }
        Ok(())
    }
}
