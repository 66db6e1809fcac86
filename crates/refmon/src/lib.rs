//! The reference monitor: one central facility for naming and protection.
//!
//! The paper's closing argument (§3) is *economy of mechanism*: instead of
//! Java's three security "prongs", a single facility — the name server plus
//! reference monitor — mediates every access to every named object. This
//! crate is that facility.
//!
//! A [`Subject`] is a thread of control bound to a principal and a dynamic
//! [`SecurityClass`](extsec_mac::SecurityClass) (§2.2: "threads of control
//! serve as subjects and function at the same security class as the
//! associated principal"). An access is allowed only when **both** halves
//! of the model agree:
//!
//! 1. **Discretionary**: the ACL on the named node grants the requested
//!    [`AccessMode`](extsec_acl::AccessMode) to the subject's principal
//!    (negative entries dominating), and
//! 2. **Mandatory**: the information flow induced by the mode is legal for
//!    the subject's class against the node's label — reads require the
//!    subject to dominate, writes require the object to dominate, appends
//!    are blind write-ups.
//!
//! Traversal itself is protected: resolving `/svc/fs/read` visits `/`,
//! `/svc` and `/svc/fs`, and each interior node must be *visible* to the
//! subject (the `list` mode under DAC, observation under MAC) before the
//! walk may continue — "access to each level of the hierarchy is
//! protected" (§2.3).
//!
//! Every decision can be recorded in the [`AuditLog`], addressing the
//! paper's aside that auditing of security-relevant events belongs in a
//! complete model.
//!
//! # Examples
//!
//! ```
//! use extsec_acl::{AccessMode, AclEntry, ModeSet};
//! use extsec_mac::Lattice;
//! use extsec_refmon::{MonitorBuilder, Subject};
//!
//! let lattice = Lattice::build(["user", "system"], ["net"]).unwrap();
//! let mut builder = MonitorBuilder::new(lattice);
//! let alice = builder.add_principal("alice").unwrap();
//! let monitor = builder.build();
//!
//! monitor
//!     .bootstrap(|ns| {
//!         // Interior nodes must be visible (`list`) for traversal.
//!         let visible = extsec_namespace::Protection::new(
//!             extsec_acl::Acl::public(ModeSet::only(AccessMode::List)),
//!             Default::default(),
//!         );
//!         let proc_id = ns.ensure_path(
//!             &"/svc/console/print".parse().unwrap(),
//!             extsec_namespace::NodeKind::Domain,
//!             &visible,
//!         )?;
//!         ns.update_protection(proc_id, |p| {
//!             p.acl.push(AclEntry::allow_principal(alice, AccessMode::Execute));
//!         })?;
//!         Ok(proc_id)
//!     })
//!     .unwrap();
//!
//! let subject = Subject::new(alice, monitor.lattice(|l| l.parse_class("user").unwrap()));
//! let decision = monitor.check(&subject, &"/svc/console/print".parse().unwrap(), AccessMode::Execute);
//! assert!(decision.allowed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod bundle;
pub mod config;
pub mod decision;
pub mod error;
pub mod explain;
pub mod floating;
pub mod monitor;
pub mod policy;
pub mod snapshot;
pub mod subject;

pub use audit::{outcome_of, AuditEvent, AuditLog, AuditStats};
pub use bundle::{
    BundleError, BundleId, BundleStatusReport, FlipRecord, Generation, ShadowReport, StagedBundle,
};
pub use config::{MacInteraction, MonitorConfig};
pub use decision::{Decision, DenyReason};
pub use error::{Error, MonitorError};
pub use explain::{ExplainStep, Explanation};
pub use extsec_auditlog::{
    AuditPipeline, AuditQuery, AuditRecord, AuditRing, GapRange, Outcome, PipelineConfig,
    PipelineStats, QueryResult, RingEvent, SegmentReport, SegmentStatus, VerifyReport,
};
pub use extsec_telemetry::{
    Counter, DispatchOutcome, ExtFault, HistogramSnapshot, Metrics, ServiceKind, Stage, Telemetry,
};
pub use floating::FloatingSubject;
pub use monitor::{AuditAccessError, CacheStats, MonitorBuilder, MonitorView, ReferenceMonitor};
pub use policy::PolicyEngine;
pub use snapshot::{NodeRecord, PolicySnapshot};
pub use subject::{Subject, ThreadId};
