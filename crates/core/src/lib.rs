//! `extsec` — security for extensible systems.
//!
//! A full reproduction of the access-control architecture from *Security
//! for Extensible Systems* (Robert Grimm and Brian N. Bershad, HotOS VI,
//! 1997): discretionary access control with **execute** and **extend**
//! modes governing the two ways extensions interact with a system,
//! lattice-based mandatory access control providing levels of trust and
//! categories within a level, and a **universal hierarchical name space**
//! whose central reference monitor enforces all protection — for system
//! services and files alike.
//!
//! This crate is the facade: [`SystemBuilder`] wires the security lattice,
//! the principal population, the reference monitor, the extension runtime,
//! and the standard system services (file system, mbuf pool, applet
//! threads, console, clock, extensible VFS) into one
//! [`ExtensibleSystem`]. The [`scenarios`] module ships the paper's worked
//! examples as reusable setups, and everything below is re-exported for
//! direct use.
//!
//! # Quick start
//!
//! ```
//! use extsec_core::{scenarios, AccessMode};
//!
//! // The paper's §2 example: three levels of trust, four categories.
//! let sc = scenarios::applet_scenario().unwrap();
//!
//! // The department-1 applet reads its own file...
//! assert!(sc.read("dept-1/report", &sc.applet_d1).is_ok());
//! // ...but not department-2's (incomparable categories).
//! assert!(sc.read("dept-2/report", &sc.applet_d2).is_ok());
//! assert!(sc.read("dept-2/report", &sc.applet_d1).is_err());
//! // The user's applet, at `local` with every category, reads them all.
//! assert!(sc.read("dept-1/report", &sc.user).is_ok());
//! assert!(sc.read("dept-2/report", &sc.user).is_ok());
//! # let _ = AccessMode::Read;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenarios;
pub mod system;

pub use system::{ExtensibleSystem, SystemBuilder, SystemError};

// Re-export the component crates under stable names.
pub use extsec_acl as acl;
pub use extsec_baselines as baselines;
pub use extsec_ext as ext;
pub use extsec_faults as faults;
pub use extsec_lang as lang;
pub use extsec_mac as mac;
pub use extsec_namespace as namespace;
pub use extsec_refmon as refmon;
pub use extsec_services as services;
pub use extsec_vm as vm;

// Flat re-exports of the most used types.
pub use extsec_acl::{AccessMode, Acl, AclEntry, Directory, GroupId, ModeSet, PrincipalId, Who};
pub use extsec_baselines::{JavaSandboxPolicy, SpinDomainPolicy, TrustTier, UnixPerm, UnixPolicy};
pub use extsec_ext::{
    CallCtx, ExtError, ExtRuntime, ExtensionId, ExtensionManifest, HealthConfig, HealthLedger,
    HealthReport, HealthState, Origin, QuarantineInfo, Service, ServiceError,
};
pub use extsec_faults::{FaultAction, FaultPlan, FaultStats, InjectedFault};
pub use extsec_mac::{
    CategoryId, CategorySet, FlowCheck, FlowPolicy, Lattice, OverwriteRule, SecurityClass,
    TrustLevel,
};
pub use extsec_namespace::{NameSpace, NodeKind, NsPath, Protection};
pub use extsec_refmon::{
    AuditAccessError, AuditEvent, AuditLog, AuditPipeline, AuditQuery, AuditRecord, AuditRing,
    AuditSnapshot, AuditStats, CacheStats, Decision, DenyReason, DispatchOutcome, FloatingSubject,
    GapRange, HistogramSnapshot, JsonSink, JsonSnapshot, JsonStage, LastSnapshotSink,
    MacInteraction, MonitorBuilder, MonitorConfig, MonitorError, MonitorView, Outcome,
    PipelineConfig, PipelineStats, PolicyEngine, QueryResult, ReferenceMonitor, SegmentReport,
    SegmentStatus, ServiceKind, Stage, StageSnapshot, Subject, Telemetry, TelemetrySink,
    TelemetrySnapshot, ThreadId, VerifyReport,
};
pub use extsec_services::{
    AppletService, ClockService, ConsoleService, FsService, MbufService, NetService, VfsService,
};
pub use extsec_vm::{
    asm, EpochClock, EpochTicker, Machine, MachineLimits, Module, Trap, Value, VerifiedModule,
};
