//! Pluggable snapshot exporters.

use crate::{AuditSnapshot, TelemetrySnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A destination for telemetry snapshots.
///
/// Sinks are pulled, not pushed: the pipeline never calls a sink from the
/// hot path. [`Telemetry::publish`](crate::Telemetry::publish) takes one
/// snapshot and hands the same immutable value to every registered sink,
/// so an expensive exporter costs the caller of `publish`, never a check.
pub trait TelemetrySink: Send + Sync {
    /// Exports one snapshot.
    fn export(&self, snapshot: &TelemetrySnapshot);
}

/// A sink that keeps the most recent snapshot in memory, for tests and
/// for polling-style exporters that want the latest value on demand.
#[derive(Default)]
pub struct LastSnapshotSink {
    last: Mutex<Option<TelemetrySnapshot>>,
}

impl LastSnapshotSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        LastSnapshotSink::default()
    }

    /// The most recently published snapshot, if any.
    pub fn last(&self) -> Option<TelemetrySnapshot> {
        self.last.lock().expect("snapshot sink poisoned").clone()
    }
}

impl TelemetrySink for LastSnapshotSink {
    fn export(&self, snapshot: &TelemetrySnapshot) {
        *self.last.lock().expect("snapshot sink poisoned") = Some(snapshot.clone());
    }
}

/// One stage's distribution, flattened to the summary statistics worth
/// shipping off-process (full bucket arrays stay in-memory).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JsonStage {
    /// The stage's short name (see [`Stage::name`](crate::Stage::name)).
    pub stage: String,
    /// How many times the stage fired.
    pub count: u64,
    /// Mean latency in nanoseconds.
    pub mean_ns: u64,
    /// Median latency in nanoseconds (log₂-bucket resolution).
    pub p50_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// The largest observed sample in nanoseconds.
    pub max_ns: u64,
}

/// A [`TelemetrySnapshot`] reshaped for JSON: stages are summarized and
/// the per-mode/service/dispatch counters become name-keyed maps, so the
/// document stands on its own without the enum orderings.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JsonSnapshot {
    /// Whether collection was enabled at snapshot time.
    pub enabled: bool,
    /// Total checks observed.
    pub checks: u64,
    /// Monitor views opened.
    pub views: u64,
    /// Operations performed through views.
    pub view_ops: u64,
    /// Per-stage latency summaries, in [`Stage::ALL`](crate::Stage::ALL)
    /// order.
    pub stages: Vec<JsonStage>,
    /// Checks per access mode, keyed by mode name.
    pub modes: BTreeMap<String, u64>,
    /// Operations per service, keyed by service name.
    pub services: BTreeMap<String, u64>,
    /// Dispatch routings per outcome, keyed by outcome name.
    pub dispatch: BTreeMap<String, u64>,
    /// Extension faults recorded by the health ledger, keyed by fault
    /// class name.
    pub ext_faults: BTreeMap<String, u64>,
    /// Circuit-breaker trips (extensions entering quarantine).
    pub quarantines: u64,
    /// Dispatches refused because the extension was quarantined.
    pub quarantine_denials: u64,
    /// Probation (half-open) trial dispatches.
    pub probation_trials: u64,
    /// Probation trials that re-admitted the extension.
    pub probation_readmits: u64,
    /// Checks dual-evaluated against a shadowed policy bundle.
    pub shadow_checks: u64,
    /// Shadow-mode would-be flips from allow to deny.
    pub shadow_allow_to_deny: u64,
    /// Shadow-mode would-be flips from deny to allow.
    pub shadow_deny_to_allow: u64,
    /// Audit-chain health (ring, persistent pipeline), when the
    /// hub has an audit source registered.
    pub audit: Option<AuditSnapshot>,
}

impl From<&TelemetrySnapshot> for JsonSnapshot {
    fn from(snapshot: &TelemetrySnapshot) -> Self {
        JsonSnapshot {
            enabled: snapshot.enabled,
            checks: snapshot.checks(),
            views: snapshot.views,
            view_ops: snapshot.view_ops,
            stages: snapshot
                .stages
                .iter()
                .map(|s| JsonStage {
                    stage: s.stage.name().to_string(),
                    count: s.hist.count,
                    mean_ns: s.hist.mean_ns(),
                    p50_ns: s.hist.quantile_ns(0.5),
                    p99_ns: s.hist.quantile_ns(0.99),
                    max_ns: s.hist.max_ns,
                })
                .collect(),
            modes: snapshot
                .modes
                .iter()
                .map(|(m, n)| (m.to_string(), *n))
                .collect(),
            services: snapshot
                .services
                .iter()
                .map(|(s, n)| (s.name().to_string(), *n))
                .collect(),
            dispatch: snapshot
                .dispatch
                .iter()
                .map(|(d, n)| (d.name().to_string(), *n))
                .collect(),
            ext_faults: snapshot
                .ext_faults
                .iter()
                .map(|(fault, n)| (fault.name().to_string(), *n))
                .collect(),
            quarantines: snapshot.quarantines,
            quarantine_denials: snapshot.quarantine_denials,
            probation_trials: snapshot.probation_trials,
            probation_readmits: snapshot.probation_readmits,
            shadow_checks: snapshot.shadow_checks,
            shadow_allow_to_deny: snapshot.shadow_allow_to_deny,
            shadow_deny_to_allow: snapshot.shadow_deny_to_allow,
            audit: snapshot.audit.clone(),
        }
    }
}

/// A sink rendering every published snapshot to a JSON document — the
/// bridge between the in-process pull path and anything file- or
/// wire-shaped (the server's snapshot opcode ships exactly this form).
#[derive(Default)]
pub struct JsonSink {
    last: Mutex<Option<String>>,
}

impl JsonSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        JsonSink::default()
    }

    /// The most recently exported JSON document, if any.
    pub fn last_json(&self) -> Option<String> {
        self.last.lock().expect("json sink poisoned").clone()
    }
}

impl TelemetrySink for JsonSink {
    fn export(&self, snapshot: &TelemetrySnapshot) {
        let json = serde_json::to_string(&JsonSnapshot::from(snapshot))
            .expect("telemetry snapshots always serialize");
        *self.last.lock().expect("json sink poisoned") = Some(json);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DispatchOutcome, ServiceKind, Stage, Telemetry};
    use extsec_acl::AccessMode;
    use std::sync::Arc;
    use std::time::Duration;

    /// The JSON document round-trips (`to_string` → `from_str` is the
    /// identity on [`JsonSnapshot`]) and carries the hub's counts.
    #[test]
    fn json_round_trips() {
        let tele = Telemetry::new();
        tele.set_enabled(true);
        tele.record(Stage::Check, Duration::from_nanos(900));
        tele.record(Stage::Acl, Duration::from_nanos(120));
        tele.count_mode(AccessMode::Execute);
        tele.count_service(ServiceKind::Fs);
        tele.count_dispatch(DispatchOutcome::Base);
        let shaped = JsonSnapshot::from(&tele.snapshot());
        let json = serde_json::to_string(&shaped).unwrap();
        let parsed: JsonSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, shaped);
        assert_eq!(parsed.checks, 1);
        assert_eq!(parsed.modes["execute"], 1);
        assert_eq!(parsed.services["fs"], 1);
        assert_eq!(parsed.dispatch["base"], 1);
    }

    #[test]
    fn sink_exports_on_publish() {
        let tele = Telemetry::new();
        tele.set_enabled(true);
        let sink = Arc::new(JsonSink::new());
        tele.add_sink(sink.clone());
        assert_eq!(sink.last_json(), None);
        tele.record(Stage::Check, Duration::from_nanos(64));
        tele.publish();
        let json = sink.last_json().expect("publish reached the sink");
        let parsed: JsonSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.checks, 1);
        assert!(parsed.enabled);
    }
}
