//! Runtime telemetry for the check pipeline.
//!
//! The reference monitor mediates *every* cross-extension interaction
//! (PAPER.md), which makes it both the natural choke point for security
//! and the natural vantage point for observability: stage timings,
//! access-mode mix, per-service operation counts, and dispatch outcomes
//! all flow through it. This crate provides the recording machinery —
//! [`ShardedCounter`]s and log-scale [`LatencyHistogram`]s behind a
//! single [`Telemetry`] handle — under two rules:
//!
//! 1. **Disabled telemetry is near-free.** Every recording entry point
//!    starts with one relaxed atomic load of the `enabled` flag and
//!    returns immediately when it is off. No clock reads, no allocation,
//!    no stores.
//! 2. **Enabled telemetry never blocks.** All state is relaxed atomics;
//!    recording is wait-free and snapshotting is a racy-but-monotone read
//!    (each counter in a [`TelemetrySnapshot`] never decreases across
//!    successive snapshots, and a histogram's `count` always equals the
//!    sum of its buckets).
//!
//! The intended calling pattern on a timed stage is
//! `let t = tele.start();` … work … `tele.finish(Stage::Acl, t);` —
//! `start` returns `None` when disabled so the disabled path never
//! touches the clock.

mod counter;
mod histogram;
mod sink;
mod snapshot;

pub use counter::ShardedCounter;
pub use histogram::{HistogramSnapshot, LatencyHistogram, BUCKETS};
pub use sink::{JsonSink, JsonSnapshot, JsonStage, LastSnapshotSink, TelemetrySink};
pub use snapshot::{AuditSnapshot, StageSnapshot, TelemetrySnapshot};

use extsec_acl::AccessMode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// A timed stage of the check pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Name resolution (path walk through the protected name space).
    Resolve = 0,
    /// Decision-cache probe (hit or miss).
    Cache = 1,
    /// Discretionary ACL evaluation at the resolved node.
    Acl = 2,
    /// Mandatory flow check against the lattice.
    Mac = 3,
    /// Audit-record append.
    Audit = 4,
    /// A whole `check` call, end to end.
    Check = 5,
    /// Lifetime of a pinned [`MonitorView`]: one pin, one trace.
    ViewSpan = 6,
}

impl Stage {
    /// All stages, in declaration order.
    pub const ALL: [Stage; 7] = [
        Stage::Resolve,
        Stage::Cache,
        Stage::Acl,
        Stage::Mac,
        Stage::Audit,
        Stage::Check,
        Stage::ViewSpan,
    ];

    /// Number of stages.
    pub const COUNT: usize = Stage::ALL.len();

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Resolve => "resolve",
            Stage::Cache => "cache",
            Stage::Acl => "acl",
            Stage::Mac => "mac",
            Stage::Audit => "audit",
            Stage::Check => "check",
            Stage::ViewSpan => "view-span",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A system service observed by per-service operation counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ServiceKind {
    /// File service.
    Fs = 0,
    /// Network buffer service.
    Mbuf = 1,
    /// Network service.
    Net = 2,
    /// Virtual file system switch.
    Vfs = 3,
    /// Console service.
    Console = 4,
    /// Clock service.
    Clock = 5,
    /// Applet host service.
    Applets = 6,
}

impl ServiceKind {
    /// All services, in declaration order.
    pub const ALL: [ServiceKind; 7] = [
        ServiceKind::Fs,
        ServiceKind::Mbuf,
        ServiceKind::Net,
        ServiceKind::Vfs,
        ServiceKind::Console,
        ServiceKind::Clock,
        ServiceKind::Applets,
    ];

    /// Number of services.
    pub const COUNT: usize = ServiceKind::ALL.len();

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ServiceKind::Fs => "fs",
            ServiceKind::Mbuf => "mbuf",
            ServiceKind::Net => "net",
            ServiceKind::Vfs => "vfs",
            ServiceKind::Console => "console",
            ServiceKind::Clock => "clock",
            ServiceKind::Applets => "applets",
        }
    }
}

impl std::fmt::Display for ServiceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the extension runtime routed a call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum DispatchOutcome {
    /// Routed to a specializing extension selected by the dispatcher.
    Specialized = 0,
    /// Routed to the longest-prefix base service.
    Base = 1,
    /// No service matched the call.
    Unrouted = 2,
    /// An extension body was run by the runtime.
    ExtensionRun = 3,
}

impl DispatchOutcome {
    /// All outcomes, in declaration order.
    pub const ALL: [DispatchOutcome; 4] = [
        DispatchOutcome::Specialized,
        DispatchOutcome::Base,
        DispatchOutcome::Unrouted,
        DispatchOutcome::ExtensionRun,
    ];

    /// Number of outcomes.
    pub const COUNT: usize = DispatchOutcome::ALL.len();

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DispatchOutcome::Specialized => "specialized",
            DispatchOutcome::Base => "base",
            DispatchOutcome::Unrouted => "unrouted",
            DispatchOutcome::ExtensionRun => "extension-run",
        }
    }
}

impl std::fmt::Display for DispatchOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fault class recorded by the extension health ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ExtFault {
    /// The extension trapped at runtime (divide by zero, explicit trap,
    /// a refused syscall, ...).
    Trap = 0,
    /// The extension exhausted its fuel budget.
    Fuel = 1,
    /// A module failed bytecode verification at load time.
    VerifyReject = 2,
    /// A panic crossed the dispatch boundary and was caught there.
    HostPanic = 3,
    /// The extension exhausted its per-execution memory budget.
    Memory = 4,
    /// The extension was preempted by the epoch deadline (wall-clock
    /// bound, independent of fuel).
    Preempted = 5,
}

impl ExtFault {
    /// All fault classes, in declaration order.
    pub const ALL: [ExtFault; 6] = [
        ExtFault::Trap,
        ExtFault::Fuel,
        ExtFault::VerifyReject,
        ExtFault::HostPanic,
        ExtFault::Memory,
        ExtFault::Preempted,
    ];

    /// Number of fault classes.
    pub const COUNT: usize = ExtFault::ALL.len();

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ExtFault::Trap => "trap",
            ExtFault::Fuel => "fuel",
            ExtFault::VerifyReject => "verify-reject",
            ExtFault::HostPanic => "host-panic",
            ExtFault::Memory => "memory",
            ExtFault::Preempted => "preempted",
        }
    }
}

impl std::fmt::Display for ExtFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The recording hub for one monitor's pipeline.
///
/// Collection starts disabled; flip it with [`set_enabled`]. The flag is
/// on the `Telemetry` value itself (not in `MonitorConfig`) so it can be
/// toggled at runtime without publishing a new monitor state.
///
/// [`set_enabled`]: Telemetry::set_enabled
pub struct Telemetry {
    enabled: AtomicBool,
    stages: [LatencyHistogram; Stage::COUNT],
    modes: [ShardedCounter; AccessMode::ALL.len()],
    services: [ShardedCounter; ServiceKind::COUNT],
    dispatch: [ShardedCounter; DispatchOutcome::COUNT],
    ext_faults: [ShardedCounter; ExtFault::COUNT],
    quarantines: ShardedCounter,
    quarantine_denials: ShardedCounter,
    probation_trials: ShardedCounter,
    probation_readmits: ShardedCounter,
    views: ShardedCounter,
    view_ops: ShardedCounter,
    shadow_checks: ShardedCounter,
    shadow_allow_to_deny: ShardedCounter,
    shadow_deny_to_allow: ShardedCounter,
    sinks: RwLock<Vec<Arc<dyn TelemetrySink>>>,
    /// Pulled (never pushed) when a snapshot is taken, so audit-chain
    /// health rides in every snapshot without this crate depending on
    /// the audit types.
    audit_source: RwLock<Option<Arc<dyn Fn() -> AuditSnapshot + Send + Sync>>>,
}

impl Telemetry {
    /// Creates a disabled, zeroed hub.
    pub fn new() -> Self {
        Telemetry {
            enabled: AtomicBool::new(false),
            stages: std::array::from_fn(|_| LatencyHistogram::new()),
            modes: std::array::from_fn(|_| ShardedCounter::new()),
            services: std::array::from_fn(|_| ShardedCounter::new()),
            dispatch: std::array::from_fn(|_| ShardedCounter::new()),
            ext_faults: std::array::from_fn(|_| ShardedCounter::new()),
            quarantines: ShardedCounter::new(),
            quarantine_denials: ShardedCounter::new(),
            probation_trials: ShardedCounter::new(),
            probation_readmits: ShardedCounter::new(),
            views: ShardedCounter::new(),
            view_ops: ShardedCounter::new(),
            shadow_checks: ShardedCounter::new(),
            shadow_allow_to_deny: ShardedCounter::new(),
            shadow_deny_to_allow: ShardedCounter::new(),
            sinks: RwLock::new(Vec::new()),
            audit_source: RwLock::new(None),
        }
    }

    /// A process-wide hub that is permanently disabled. Internal callers
    /// that must re-run an instrumented path without double-counting
    /// (e.g. shadow evaluation, `explain`) record into this instead.
    pub fn disabled() -> &'static Telemetry {
        static DISABLED: OnceLock<Telemetry> = OnceLock::new();
        DISABLED.get_or_init(Telemetry::new)
    }

    /// Whether collection is on. One relaxed load; this is the entire
    /// disabled-path cost of every recording entry point.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns collection on or off. Counts accumulated so far are kept.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Starts a stage timer, or `None` when disabled (no clock read).
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finishes a stage timer started with [`start`](Telemetry::start).
    /// A `None` token (telemetry was off at `start`) records nothing,
    /// even if collection was enabled in between — partial samples would
    /// skew the distribution.
    #[inline]
    pub fn finish(&self, stage: Stage, started: Option<Instant>) {
        if let Some(started) = started {
            self.stages[stage as usize].record(started.elapsed());
        }
    }

    /// Records an externally measured stage duration.
    #[inline]
    pub fn record(&self, stage: Stage, duration: std::time::Duration) {
        if self.enabled() {
            self.stages[stage as usize].record(duration);
        }
    }

    /// Counts one check of `mode`.
    #[inline]
    pub fn count_mode(&self, mode: AccessMode) {
        if self.enabled() {
            self.modes[mode as usize].incr();
        }
    }

    /// Counts one operation against `kind`.
    #[inline]
    pub fn count_service(&self, kind: ServiceKind) {
        if self.enabled() {
            self.services[kind as usize].incr();
        }
    }

    /// Counts one dispatch `outcome`.
    #[inline]
    pub fn count_dispatch(&self, outcome: DispatchOutcome) {
        if self.enabled() {
            self.dispatch[outcome as usize].incr();
        }
    }

    /// Counts one recorded extension fault of class `fault`.
    #[inline]
    pub fn count_ext_fault(&self, fault: ExtFault) {
        if self.enabled() {
            self.ext_faults[fault as usize].incr();
        }
    }

    /// Counts one circuit-breaker trip (an extension entering
    /// quarantine).
    #[inline]
    pub fn count_quarantine(&self) {
        if self.enabled() {
            self.quarantines.incr();
        }
    }

    /// Counts one dispatch refused because the extension is quarantined.
    #[inline]
    pub fn count_quarantine_denial(&self) {
        if self.enabled() {
            self.quarantine_denials.incr();
        }
    }

    /// Counts one probation (half-open) trial dispatch.
    #[inline]
    pub fn count_probation_trial(&self) {
        if self.enabled() {
            self.probation_trials.incr();
        }
    }

    /// Counts one probation trial that succeeded and re-admitted the
    /// extension.
    #[inline]
    pub fn count_probation_readmit(&self) {
        if self.enabled() {
            self.probation_readmits.incr();
        }
    }

    /// Counts one opened monitor view.
    #[inline]
    pub fn count_view(&self) {
        if self.enabled() {
            self.views.incr();
        }
    }

    /// Counts one operation performed through a view.
    #[inline]
    pub fn count_view_op(&self) {
        if self.enabled() {
            self.view_ops.incr();
        }
    }

    /// Counts one check dual-evaluated against a shadowed policy.
    #[inline]
    pub fn count_shadow_check(&self) {
        if self.enabled() {
            self.shadow_checks.incr();
        }
    }

    /// Counts one shadow-mode would-be flip from allow to deny: the
    /// active policy allowed, the shadowed policy would have denied.
    #[inline]
    pub fn count_shadow_allow_to_deny(&self) {
        if self.enabled() {
            self.shadow_allow_to_deny.incr();
        }
    }

    /// Counts one shadow-mode would-be flip from deny to allow.
    #[inline]
    pub fn count_shadow_deny_to_allow(&self) {
        if self.enabled() {
            self.shadow_deny_to_allow.incr();
        }
    }

    /// Takes an immutable snapshot of every counter and histogram.
    /// Never blocks recording; see [`TelemetrySnapshot`] for the
    /// monotonicity guarantees.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            enabled: self.enabled(),
            stages: Stage::ALL
                .into_iter()
                .map(|stage| StageSnapshot {
                    stage,
                    hist: self.stages[stage as usize].snapshot(),
                })
                .collect(),
            modes: AccessMode::ALL
                .into_iter()
                .map(|m| (m, self.modes[m as usize].get()))
                .collect(),
            services: ServiceKind::ALL
                .into_iter()
                .map(|s| (s, self.services[s as usize].get()))
                .collect(),
            dispatch: DispatchOutcome::ALL
                .into_iter()
                .map(|d| (d, self.dispatch[d as usize].get()))
                .collect(),
            ext_faults: ExtFault::ALL
                .into_iter()
                .map(|fault| (fault, self.ext_faults[fault as usize].get()))
                .collect(),
            quarantines: self.quarantines.get(),
            quarantine_denials: self.quarantine_denials.get(),
            probation_trials: self.probation_trials.get(),
            probation_readmits: self.probation_readmits.get(),
            views: self.views.get(),
            view_ops: self.view_ops.get(),
            shadow_checks: self.shadow_checks.get(),
            shadow_allow_to_deny: self.shadow_allow_to_deny.get(),
            shadow_deny_to_allow: self.shadow_deny_to_allow.get(),
            audit: self
                .audit_source
                .read()
                .expect("audit source poisoned")
                .as_ref()
                .map(|source| source()),
        }
    }

    /// Registers the audit-health source consulted by every
    /// [`snapshot`](Telemetry::snapshot). The monitor registers a closure
    /// over its audit ring and (optional) persistent pipeline at
    /// construction; the source runs on the snapshotting thread, never on
    /// a check.
    pub fn set_audit_source(&self, source: Arc<dyn Fn() -> AuditSnapshot + Send + Sync>) {
        *self.audit_source.write().expect("audit source poisoned") = Some(source);
    }

    /// Registers a sink to receive snapshots from [`publish`].
    ///
    /// [`publish`]: Telemetry::publish
    pub fn add_sink(&self, sink: Arc<dyn TelemetrySink>) {
        self.sinks
            .write()
            .expect("sink registry poisoned")
            .push(sink);
    }

    /// Takes one snapshot and exports it to every registered sink,
    /// returning it. Sinks run on the calling thread, never on a check.
    pub fn publish(&self) -> TelemetrySnapshot {
        let snapshot = self.snapshot();
        let sinks = self.sinks.read().expect("sink registry poisoned").clone();
        for sink in sinks {
            sink.export(&snapshot);
        }
        snapshot
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .field("checks", &self.stages[Stage::Check as usize])
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_records_nothing() {
        let tele = Telemetry::new();
        assert!(!tele.enabled());
        assert!(tele.start().is_none());
        tele.finish(Stage::Check, tele.start());
        tele.record(Stage::Acl, Duration::from_nanos(50));
        tele.count_mode(AccessMode::Read);
        tele.count_service(ServiceKind::Fs);
        tele.count_dispatch(DispatchOutcome::Base);
        tele.count_view();
        let snap = tele.snapshot();
        assert_eq!(snap.checks(), 0);
        assert_eq!(snap.stage(Stage::Acl).count, 0);
        assert_eq!(snap.mode(AccessMode::Read), 0);
        assert_eq!(snap.service(ServiceKind::Fs), 0);
        assert_eq!(snap.dispatch(DispatchOutcome::Base), 0);
        assert_eq!(snap.views, 0);
    }

    #[test]
    fn enabled_records_everything() {
        let tele = Telemetry::new();
        tele.set_enabled(true);
        let token = tele.start();
        assert!(token.is_some());
        tele.finish(Stage::Check, token);
        tele.record(Stage::Acl, Duration::from_nanos(64));
        tele.count_mode(AccessMode::Execute);
        tele.count_service(ServiceKind::Net);
        tele.count_dispatch(DispatchOutcome::Specialized);
        tele.count_view();
        tele.count_view_op();
        let snap = tele.snapshot();
        assert!(snap.enabled);
        assert_eq!(snap.checks(), 1);
        assert_eq!(snap.stage(Stage::Acl).count, 1);
        assert_eq!(snap.mode(AccessMode::Execute), 1);
        assert_eq!(snap.service(ServiceKind::Net), 1);
        assert_eq!(snap.dispatch(DispatchOutcome::Specialized), 1);
        assert_eq!(snap.views, 1);
        assert_eq!(snap.view_ops, 1);
    }

    #[test]
    fn stale_token_does_not_record_after_enable() {
        let tele = Telemetry::new();
        let token = tele.start(); // disabled: None
        tele.set_enabled(true);
        tele.finish(Stage::Check, token);
        assert_eq!(tele.snapshot().checks(), 0);
    }

    #[test]
    fn publish_feeds_sinks() {
        let tele = Telemetry::new();
        tele.set_enabled(true);
        let sink = Arc::new(LastSnapshotSink::new());
        tele.add_sink(sink.clone());
        tele.record(Stage::Check, Duration::from_nanos(10));
        let published = tele.publish();
        assert_eq!(sink.last().as_ref(), Some(&published));
        assert_eq!(published.checks(), 1);
    }

    #[test]
    fn display_renders_prose() {
        let tele = Telemetry::new();
        tele.set_enabled(true);
        tele.record(Stage::Check, Duration::from_micros(2));
        tele.record(Stage::Acl, Duration::from_nanos(120));
        tele.count_mode(AccessMode::Read);
        let text = tele.snapshot().to_string();
        assert!(text.contains("telemetry (enabled): 1 checks"), "{text}");
        assert!(text.contains("acl"), "{text}");
        assert!(text.contains("read: 1"), "{text}");
    }

    #[test]
    fn process_wide_disabled_hub_stays_disabled() {
        let hub = Telemetry::disabled();
        hub.record(Stage::Check, Duration::from_nanos(5));
        assert_eq!(hub.snapshot().checks(), 0);
    }
}
