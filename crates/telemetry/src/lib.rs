//! Runtime telemetry for the check pipeline.
//!
//! The reference monitor mediates *every* cross-extension interaction
//! (PAPER.md), which makes it both the natural choke point for security
//! and the natural vantage point for observability: stage timings,
//! access-mode mix, per-service operation counts, and dispatch outcomes
//! all flow through it. This crate provides the recording machinery —
//! [`ShardedCounter`]s and log-scale [`Histogram`]s behind a single
//! [`Telemetry`] handle — and the one snapshot type, [`Metrics`], that
//! names every value with a stable dotted name. Two rules:
//!
//! 1. **Disabled telemetry is near-free.** Every recording entry point
//!    starts with one relaxed atomic load of the `enabled` flag and
//!    returns immediately when it is off. No clock reads, no allocation,
//!    no stores.
//! 2. **Enabled telemetry never blocks.** All state is relaxed atomics;
//!    recording is wait-free and snapshotting is a racy-but-monotone read
//!    (each counter in a [`Metrics`] never decreases across successive
//!    snapshots, and a histogram's `count` always equals the sum of its
//!    buckets).
//!
//! The intended calling pattern on a timed stage is
//! `let t = tele.start();` … work … `tele.finish(Stage::Acl, t);` —
//! `start` returns `None` when disabled so the disabled path never
//! touches the clock.

#![forbid(unsafe_code)]

mod counter;
mod histogram;
mod metrics;

pub use counter::ShardedCounter;
pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use metrics::Metrics;

use extsec_acl::AccessMode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A timed stage of the check pipeline, exported as the histogram
/// `refmon.stage.<name>_ns`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Name resolution: the path probe through the protected name space.
    Resolve = 0,
    /// The interior-visibility climb over the nodes the walk reached.
    Visibility = 1,
    /// Discretionary ACL evaluation at the resolved node.
    Acl = 2,
    /// Mandatory flow check against the lattice.
    Mac = 3,
    /// Audit-record append.
    Audit = 4,
    /// One whole decision, end to end: a `check`, or the guard of a
    /// `list`, `create`, `remove` or administrative edit.
    Check = 5,
    /// One `ReferenceMonitor::view` closure's run: one view, one trace.
    ViewSpan = 6,
}

impl Stage {
    /// All stages, in declaration order.
    pub const ALL: [Stage; 7] = [
        Stage::Resolve,
        Stage::Visibility,
        Stage::Acl,
        Stage::Mac,
        Stage::Audit,
        Stage::Check,
        Stage::ViewSpan,
    ];

    /// Number of stages.
    pub const COUNT: usize = Stage::ALL.len();

    /// Short name, the stage's component of its metric name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Resolve => "resolve",
            Stage::Visibility => "visibility",
            Stage::Acl => "acl",
            Stage::Mac => "mac",
            Stage::Audit => "audit",
            Stage::Check => "check",
            Stage::ViewSpan => "view_span",
        }
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
            DispatchOutcome::ExtensionRun => "extension_run",
        }
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
            ExtFault::VerifyReject => "verify_reject",
            ExtFault::HostPanic => "host_panic",
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

/// One counter of the monitor's hub: a slot in one array, with one
/// name. Adding a counter means adding a variant with its name and its
/// slot (the compiler asks for both) and, for a counter outside the four
/// families, its entry in `SCALARS`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Decisions of one access mode, guards included:
    /// `refmon.mode.<mode>`.
    Mode(AccessMode),
    /// Operations against one service: `services.<service>.ops`.
    Service(ServiceKind),
    /// Call routings with one outcome: `ext.dispatch.<outcome>`.
    Dispatch(DispatchOutcome),
    /// Extension faults of one class: `ext.fault.<class>`.
    ExtFault(ExtFault),
    /// Circuit-breaker trips, extensions entering quarantine:
    /// `ext.quarantine.trips`.
    QuarantineTrips,
    /// Dispatches refused because the extension is quarantined:
    /// `ext.quarantine.denials`.
    QuarantineDenials,
    /// Probation (half-open) trial dispatches: `ext.probation.trials`.
    ProbationTrials,
    /// Probation trials that re-admitted the extension:
    /// `ext.probation.readmits`.
    ProbationReadmits,
    /// Monitor views (compound reads of one pinned snapshot) opened:
    /// `refmon.view.opened`.
    ViewsOpened,
}

const MODES: usize = AccessMode::ALL.len();
const FAMILIES: usize = MODES + ServiceKind::COUNT + DispatchOutcome::COUNT + ExtFault::COUNT;

impl Counter {
    /// The counters that are not one of a family.
    const SCALARS: [Counter; 5] = [
        Counter::QuarantineTrips,
        Counter::QuarantineDenials,
        Counter::ProbationTrials,
        Counter::ProbationReadmits,
        Counter::ViewsOpened,
    ];

    /// Number of counters.
    const COUNT: usize = FAMILIES + Counter::SCALARS.len();

    /// Every counter.
    fn all() -> impl Iterator<Item = Counter> {
        AccessMode::ALL
            .into_iter()
            .map(Counter::Mode)
            .chain(ServiceKind::ALL.into_iter().map(Counter::Service))
            .chain(DispatchOutcome::ALL.into_iter().map(Counter::Dispatch))
            .chain(ExtFault::ALL.into_iter().map(Counter::ExtFault))
            .chain(Counter::SCALARS)
    }

    /// This counter's slot in the hub's array.
    #[inline]
    fn index(self) -> usize {
        const SERVICES: usize = MODES;
        const DISPATCH: usize = SERVICES + ServiceKind::COUNT;
        const FAULTS: usize = DISPATCH + DispatchOutcome::COUNT;
        match self {
            Counter::Mode(mode) => mode as usize,
            Counter::Service(kind) => SERVICES + kind as usize,
            Counter::Dispatch(outcome) => DISPATCH + outcome as usize,
            Counter::ExtFault(fault) => FAULTS + fault as usize,
            Counter::QuarantineTrips => FAMILIES,
            Counter::QuarantineDenials => FAMILIES + 1,
            Counter::ProbationTrials => FAMILIES + 2,
            Counter::ProbationReadmits => FAMILIES + 3,
            Counter::ViewsOpened => FAMILIES + 4,
        }
    }

    /// The counter's metric name. A mode's display name, such as
    /// `write-append`, becomes snake case.
    pub fn name(self) -> String {
        match self {
            Counter::Mode(mode) => format!("refmon.mode.{}", mode.to_string().replace('-', "_")),
            Counter::Service(kind) => format!("services.{}.ops", kind.name()),
            Counter::Dispatch(outcome) => format!("ext.dispatch.{}", outcome.name()),
            Counter::ExtFault(fault) => format!("ext.fault.{}", fault.name()),
            Counter::QuarantineTrips => "ext.quarantine.trips".into(),
            Counter::QuarantineDenials => "ext.quarantine.denials".into(),
            Counter::ProbationTrials => "ext.probation.trials".into(),
            Counter::ProbationReadmits => "ext.probation.readmits".into(),
            Counter::ViewsOpened => "refmon.view.opened".into(),
        }
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
    stages: [Histogram; Stage::COUNT],
    counters: [ShardedCounter; Counter::COUNT],
}

impl Telemetry {
    /// Creates a disabled, zeroed hub.
    pub fn new() -> Self {
        Telemetry {
            enabled: AtomicBool::new(false),
            stages: std::array::from_fn(|_| Histogram::new()),
            counters: std::array::from_fn(|_| ShardedCounter::new()),
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
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.stages[stage as usize].record(ns);
        }
    }

    /// Counts one event of `counter`.
    #[inline]
    pub fn count(&self, counter: Counter) {
        if self.enabled() {
            self.counters[counter.index()].incr();
        }
    }

    /// Reads every counter and stage histogram under its name, plus
    /// `refmon.telemetry.enabled` (1 while collection is on). Never
    /// blocks recording.
    pub fn metrics(&self) -> Metrics {
        let mut metrics = Metrics::default();
        metrics.set("refmon.telemetry.enabled", u64::from(self.enabled()));
        for counter in Counter::all() {
            metrics.set(counter.name(), self.counters[counter.index()].get());
        }
        for stage in Stage::ALL {
            let name = format!("refmon.stage.{}_ns", stage.name());
            metrics.set_histogram(name, self.stages[stage as usize].snapshot());
        }
        metrics
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

    fn checks(metrics: &Metrics) -> u64 {
        metrics.histogram("refmon.stage.check_ns").unwrap().count
    }

    #[test]
    fn disabled_records_nothing() {
        let tele = Telemetry::new();
        assert!(!tele.enabled());
        assert!(tele.start().is_none());
        tele.finish(Stage::Check, tele.start());
        tele.count(Counter::Mode(AccessMode::Read));
        tele.count(Counter::Service(ServiceKind::Fs));
        tele.count(Counter::Dispatch(DispatchOutcome::Base));
        tele.count(Counter::ViewsOpened);
        let metrics = tele.metrics();
        assert_eq!(metrics.get("refmon.telemetry.enabled"), Some(0));
        assert_eq!(checks(&metrics), 0);
        assert!(metrics.values.values().all(|&v| v == 0), "{metrics}");
    }

    #[test]
    fn enabled_records_everything() {
        let tele = Telemetry::new();
        tele.set_enabled(true);
        let token = tele.start();
        assert!(token.is_some());
        tele.finish(Stage::Check, token);
        tele.count(Counter::Mode(AccessMode::WriteAppend));
        tele.count(Counter::Service(ServiceKind::Net));
        tele.count(Counter::Dispatch(DispatchOutcome::ExtensionRun));
        tele.count(Counter::ExtFault(ExtFault::HostPanic));
        tele.count(Counter::ViewsOpened);
        let metrics = tele.metrics();
        assert_eq!(metrics.get("refmon.telemetry.enabled"), Some(1));
        assert_eq!(checks(&metrics), 1);
        assert_eq!(metrics.get("refmon.mode.write_append"), Some(1));
        assert_eq!(metrics.get("services.net.ops"), Some(1));
        assert_eq!(metrics.get("ext.dispatch.extension_run"), Some(1));
        assert_eq!(metrics.get("ext.fault.host_panic"), Some(1));
        assert_eq!(metrics.get("refmon.view.opened"), Some(1));
        assert_eq!(metrics.get("refmon.mode.read"), Some(0));
    }

    #[test]
    fn every_counter_has_its_own_slot_and_name() {
        let mut slots: Vec<usize> = Counter::all().map(Counter::index).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..Counter::COUNT).collect::<Vec<_>>());
        let metrics = Telemetry::new().metrics();
        assert_eq!(metrics.values.len(), Counter::COUNT + 1);
        assert_eq!(metrics.histograms.len(), Stage::COUNT);
    }

    #[test]
    fn stale_token_does_not_record_after_enable() {
        let tele = Telemetry::new();
        let token = tele.start(); // disabled: None
        tele.set_enabled(true);
        tele.finish(Stage::Check, token);
        assert_eq!(checks(&tele.metrics()), 0);
    }

    #[test]
    fn process_wide_disabled_hub_stays_disabled() {
        let hub = Telemetry::disabled();
        hub.finish(Stage::Check, hub.start());
        hub.count(Counter::ViewsOpened);
        assert_eq!(checks(&hub.metrics()), 0);
        assert_eq!(hub.metrics().get("refmon.view.opened"), Some(0));
    }
}
