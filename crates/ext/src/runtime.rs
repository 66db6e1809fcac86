//! The extension runtime: loading, linking, calling, extending.

use crate::authenticate::{AuthError, KeyRing, ModuleSignature};
use crate::dispatch::Dispatcher;
use crate::extension::{Extension, ExtensionId, ExtensionManifest};
use crate::health::{Admit, HealthConfig, HealthLedger, HealthReport, HealthState, QuarantineInfo};
use crate::service::{CallCtx, Reenter, Service, ServiceError};
use extsec_acl::AccessMode;
use extsec_mac::SecurityClass;
use extsec_namespace::{NsPath, PathError};
use extsec_refmon::{
    Counter, Decision, DenyReason, DispatchOutcome, ExtFault, MonitorError, ReferenceMonitor,
    Subject,
};
use extsec_vm::{
    EpochClock, Machine, MachineLimits, Module, SyscallHost, Trap, Value, VerifyError,
};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Maximum nesting of gate crossings (extension → service → extension →
/// ...). A backstop against mutually recursive specializations.
pub const MAX_GATE_DEPTH: usize = 24;

/// Errors from runtime operations.
#[derive(Clone, Debug, PartialEq)]
pub enum ExtError {
    /// The extension failed bytecode verification.
    Verify(VerifyError),
    /// An import path did not parse.
    BadImportPath(String, PathError),
    /// A monitor (access-control or name-space) error.
    Monitor(MonitorError),
    /// Link-time `execute` check failed for an import.
    LinkDenied {
        /// The import's alias.
        alias: String,
        /// The import's target path.
        path: String,
    },
    /// The interface node is not marked extensible.
    NotExtensible(NsPath),
    /// No extension with the given id is loaded.
    NoSuchExtension(ExtensionId),
    /// The extension does not export the given name.
    NoSuchExport(String),
    /// No service is mounted at (a prefix of) the path.
    NoService(NsPath),
    /// A service-level failure.
    Service(ServiceError),
    /// The extension trapped at runtime.
    Trap(Trap),
    /// Too many nested gate crossings.
    GateDepthExceeded,
    /// The extension failed authentication (bad or mismatched signature).
    Auth(AuthError),
    /// The extension is quarantined by the health circuit breaker.
    Quarantined {
        /// The quarantined extension.
        id: ExtensionId,
        /// The fault class that tripped the breaker.
        cause: ExtFault,
        /// Milliseconds until a probation trial will be admitted.
        retry_after_ms: u64,
    },
    /// A panic crossed the dispatch boundary and was contained.
    HostPanic(String),
}

impl fmt::Display for ExtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtError::Verify(e) => write!(f, "verification failed: {e}"),
            ExtError::BadImportPath(p, e) => write!(f, "bad import path {p:?}: {e}"),
            ExtError::Monitor(e) => write!(f, "{e}"),
            ExtError::LinkDenied { alias, path } => {
                write!(f, "link denied: import {alias} -> {path}")
            }
            ExtError::NotExtensible(p) => write!(f, "{p} is not extensible"),
            ExtError::NoSuchExtension(id) => write!(f, "no such extension {id}"),
            ExtError::NoSuchExport(name) => write!(f, "no such export {name:?}"),
            ExtError::NoService(p) => write!(f, "no service mounted at {p}"),
            ExtError::Service(e) => write!(f, "{e}"),
            ExtError::Trap(t) => write!(f, "trap: {t}"),
            ExtError::GateDepthExceeded => write!(f, "gate depth exceeded"),
            ExtError::Auth(e) => write!(f, "authentication failed: {e}"),
            ExtError::Quarantined {
                id,
                cause,
                retry_after_ms,
            } => write!(
                f,
                "extension {id} is quarantined (cause: {cause}; probation in {retry_after_ms}ms)"
            ),
            ExtError::HostPanic(msg) => {
                write!(f, "panic contained at dispatch boundary: {msg}")
            }
        }
    }
}

impl std::error::Error for ExtError {}

impl From<AuthError> for ExtError {
    fn from(e: AuthError) -> Self {
        ExtError::Auth(e)
    }
}

impl From<VerifyError> for ExtError {
    fn from(e: VerifyError) -> Self {
        ExtError::Verify(e)
    }
}

impl From<MonitorError> for ExtError {
    fn from(e: MonitorError) -> Self {
        ExtError::Monitor(e)
    }
}

impl From<ServiceError> for ExtError {
    fn from(e: ServiceError) -> Self {
        ExtError::Service(e)
    }
}

impl From<ExtError> for ServiceError {
    fn from(e: ExtError) -> Self {
        match e {
            ExtError::Service(s) => s,
            ExtError::Monitor(MonitorError::Denied(r)) => ServiceError::Denied(r),
            ExtError::Trap(t) => ServiceError::Trap(t.to_string()),
            other => ServiceError::Failed(other.to_string()),
        }
    }
}

/// The extension runtime.
///
/// Owns the loaded extensions, the mounted services, and the dispatch
/// table, and mediates every invocation through the reference monitor.
/// See the crate docs for the model.
pub struct ExtRuntime {
    monitor: Arc<ReferenceMonitor>,
    services: RwLock<BTreeMap<NsPath, Arc<dyn Service>>>,
    extensions: RwLock<Vec<Option<Arc<Extension>>>>,
    dispatcher: RwLock<Dispatcher>,
    health: HealthLedger,
    /// Per-execution resource limits applied to every dispatch.
    machine_limits: Mutex<MachineLimits>,
    /// The shared epoch every dispatched machine samples.
    epoch: EpochClock,
    /// Epoch ticks granted per dispatch (0 = preemption disabled).
    /// Each dispatch's deadline is `epoch.now() + slice`, so a stalled
    /// extension is cut off after that many ticker periods regardless
    /// of its fuel budget.
    epoch_slice: AtomicU64,
}

impl ExtRuntime {
    /// Creates a runtime over the given monitor.
    pub fn new(monitor: Arc<ReferenceMonitor>) -> Arc<Self> {
        Arc::new(ExtRuntime {
            monitor,
            services: RwLock::new(BTreeMap::new()),
            extensions: RwLock::new(Vec::new()),
            dispatcher: RwLock::new(Dispatcher::new()),
            health: HealthLedger::new(HealthConfig::default()),
            machine_limits: Mutex::new(MachineLimits::default()),
            epoch: EpochClock::new(),
            epoch_slice: AtomicU64::new(0),
        })
    }

    /// Returns the reference monitor.
    pub fn monitor(&self) -> &Arc<ReferenceMonitor> {
        &self.monitor
    }

    /// The per-extension health ledger (circuit breaker).
    pub fn health(&self) -> &HealthLedger {
        &self.health
    }

    /// Replaces the circuit-breaker configuration.
    pub fn set_health_config(&self, config: HealthConfig) {
        self.health.set_config(config);
    }

    /// The diagnostic health report for an extension — what `explain`
    /// shows for a quarantine refusal.
    pub fn explain_health(&self, id: ExtensionId) -> HealthReport {
        self.health.report(id)
    }

    /// The breaker state of one extension, without the report's fault
    /// history — the allocation-light probe for hot paths.
    pub fn health_state(&self, id: ExtensionId) -> HealthState {
        self.health.state(id)
    }

    /// Replaces the per-execution machine limits applied to every
    /// dispatched extension (fuel, call depth, memory budget, epoch
    /// check interval).
    pub fn set_machine_limits(&self, limits: MachineLimits) {
        *self.machine_limits.lock() = limits;
    }

    /// The current per-execution machine limits.
    pub fn machine_limits(&self) -> MachineLimits {
        *self.machine_limits.lock()
    }

    /// The runtime's shared epoch clock. Drive it with an
    /// [`extsec_vm::EpochTicker`] (or manual [`EpochClock::tick`] calls
    /// in deterministic tests) and arm per-dispatch deadlines with
    /// [`ExtRuntime::set_epoch_slice`].
    pub fn epoch(&self) -> &EpochClock {
        &self.epoch
    }

    /// Grants every dispatch `slice` epoch ticks of wall clock before
    /// it is preempted; 0 disables preemption (the default, preserving
    /// deterministic fuel-only behavior).
    pub fn set_epoch_slice(&self, slice: u64) {
        self.epoch_slice.store(slice, Ordering::Relaxed);
    }

    /// Mounts a service at `prefix` (TCB operation). The service's
    /// procedure nodes must be installed in the name space separately
    /// (typically by the service's own install routine).
    pub fn mount_service(&self, prefix: NsPath, service: Arc<dyn Service>) {
        self.services.write().insert(prefix, service);
    }

    /// Returns the mounted service prefixes.
    pub fn mounted(&self) -> Vec<NsPath> {
        self.services.read().keys().cloned().collect()
    }

    // ------------------------------------------------------------------
    // Loading and linking.
    // ------------------------------------------------------------------

    /// Loads an extension: verifies the bytecode, resolves every declared
    /// import against the name space, and checks `execute` access on each
    /// import at link time.
    pub fn load(
        &self,
        module: Module,
        manifest: ExtensionManifest,
    ) -> Result<ExtensionId, ExtError> {
        let verified = match extsec_vm::verify(module) {
            Ok(v) => v,
            Err(e) => {
                // No ExtensionId exists yet for rejected code, so the
                // ledger has nothing to pin the fault to; the global
                // counter still records the rejection.
                self.monitor
                    .telemetry()
                    .count(Counter::ExtFault(ExtFault::VerifyReject));
                return Err(ExtError::Verify(e));
            }
        };
        let link_subject = self.link_subject(&manifest);
        let mut resolved = Vec::with_capacity(verified.module().imports.len());
        for import in &verified.module().imports {
            let path: NsPath = import
                .path
                .parse()
                .map_err(|e| ExtError::BadImportPath(import.path.clone(), e))?;
            if !self
                .monitor
                .check(&link_subject, &path, AccessMode::Execute)
                .allowed()
            {
                return Err(ExtError::LinkDenied {
                    alias: import.alias.clone(),
                    path: import.path.clone(),
                });
            }
            resolved.push(path);
        }
        let mut extensions = self.extensions.write();
        let id = ExtensionId::from_raw(extensions.len() as u32);
        extensions.push(Some(Arc::new(Extension {
            id,
            manifest,
            module: verified,
            resolved_imports: resolved,
        })));
        Ok(id)
    }

    /// Loads an extension only if it authenticates: the signature must
    /// verify under the key ring and name the manifest's principal
    /// (DESIGN.md: the paper defers authentication; this is the hook,
    /// with a simulated tag scheme behind it).
    pub fn load_signed(
        &self,
        module: Module,
        manifest: ExtensionManifest,
        signature: &ModuleSignature,
        keyring: &KeyRing,
    ) -> Result<ExtensionId, ExtError> {
        keyring.authenticate(&module, &manifest, signature)?;
        self.load(module, manifest)
    }

    /// Unloads an extension, removing all its interface registrations.
    pub fn unload(&self, id: ExtensionId) -> Result<(), ExtError> {
        let mut extensions = self.extensions.write();
        let slot = extensions
            .get_mut(id.raw() as usize)
            .ok_or(ExtError::NoSuchExtension(id))?;
        if slot.take().is_none() {
            return Err(ExtError::NoSuchExtension(id));
        }
        drop(extensions);
        self.dispatcher.write().unregister_extension(id);
        self.health.forget(id);
        Ok(())
    }

    /// Returns the extension record.
    pub fn extension(&self, id: ExtensionId) -> Result<Arc<Extension>, ExtError> {
        self.extensions
            .read()
            .get(id.raw() as usize)
            .and_then(Clone::clone)
            .ok_or(ExtError::NoSuchExtension(id))
    }

    /// The subject an extension acts as when no caller is involved
    /// (link-time checks, extend registration): its principal at its
    /// static class, or at the lattice bottom when none is assigned.
    pub fn extension_subject(&self, manifest: &ExtensionManifest) -> Subject {
        Subject::new(
            manifest.principal,
            manifest
                .static_class
                .clone()
                .unwrap_or_else(SecurityClass::bottom),
        )
    }

    fn link_subject(&self, manifest: &ExtensionManifest) -> Subject {
        self.extension_subject(manifest)
    }

    // ------------------------------------------------------------------
    // The `extend` mechanism.
    // ------------------------------------------------------------------

    /// Registers `export` of extension `id` as a specialization of the
    /// interface node at `interface`.
    ///
    /// Requires the node to be marked extensible and the extension's
    /// subject to hold the `extend` mode on it. The registration's
    /// dispatch class is the extension's static class (or bottom).
    pub fn extend(
        &self,
        id: ExtensionId,
        interface: &NsPath,
        export: &str,
    ) -> Result<(), ExtError> {
        let ext = self.extension(id)?;
        if ext.module.module().export(export).is_none() {
            return Err(ExtError::NoSuchExport(export.to_string()));
        }
        let extensible = self.monitor.inspect(|ns| {
            ns.resolve(interface)
                .and_then(|nid| ns.node(nid).map(|n| n.extensible()))
        });
        match extensible {
            Ok(true) => {}
            Ok(false) => return Err(ExtError::NotExtensible(interface.clone())),
            Err(e) => return Err(ExtError::Monitor(MonitorError::Ns(e))),
        }
        let subject = self.extension_subject(&ext.manifest);
        self.monitor
            .require(&subject, interface, AccessMode::Extend)
            .map_err(ExtError::Monitor)?;
        let class = ext
            .manifest
            .static_class
            .clone()
            .unwrap_or_else(SecurityClass::bottom);
        self.dispatcher
            .write()
            .register(interface.clone(), id, export, class);
        Ok(())
    }

    /// Returns the number of registrations on `interface`.
    pub fn registrations_on(&self, interface: &NsPath) -> usize {
        self.dispatcher.read().registration_count(interface)
    }

    // ------------------------------------------------------------------
    // The `call` mechanism.
    // ------------------------------------------------------------------

    /// Invokes the procedure at `path` as `subject`.
    ///
    /// The monitor checks `execute` on the node (with full traversal
    /// visibility); a statically classed node caps the effective class;
    /// then either a registered specialization (selected by the caller's
    /// class) or the base service handles the call.
    pub fn call(
        &self,
        subject: &Subject,
        path: &NsPath,
        args: &[Value],
    ) -> Result<Option<Value>, ExtError> {
        self.call_inner(subject, path, args, 0)
    }

    fn call_inner(
        &self,
        subject: &Subject,
        path: &NsPath,
        args: &[Value],
        depth: usize,
    ) -> Result<Option<Value>, ExtError> {
        if depth >= MAX_GATE_DEPTH {
            return Err(ExtError::GateDepthExceeded);
        }
        // One pinned snapshot for the check + enter pair, so a policy
        // republish between the two steps cannot split the decision.
        let effective = {
            let view = self.monitor.view();
            view.require(subject, path, AccessMode::Execute)
                .map_err(ExtError::Monitor)?;
            view.enter(subject, path).map_err(ExtError::Monitor)?
        };

        // Specialization first: §2.2 class-based selection. Quarantined
        // extensions are unrouted, so their callers fall back to the
        // base service instead of the breaker refusing the call.
        let selected = {
            let dispatcher = self.dispatcher.read();
            dispatcher
                .select_where(path, &effective.class, |reg| {
                    self.health.route_allowed(reg.ext)
                })
                .map(|reg| (reg.ext, reg.export.clone()))
        };
        if let Some((ext_id, export)) = selected {
            self.monitor
                .telemetry()
                .count(Counter::Dispatch(DispatchOutcome::Specialized));
            return self.run_extension(ext_id, &export, args, &effective, depth);
        }

        // Base service: longest mounted prefix of `path`. Walk the
        // parent chain deepest-first — O(path depth) map probes instead
        // of a linear scan over every mounted service.
        let service = {
            let services = self.services.read();
            let mut probe = Some(path.clone());
            let mut found: Option<(NsPath, Arc<dyn Service>)> = None;
            while let Some(prefix) = probe {
                if let Some(svc) = services.get(&prefix) {
                    found = Some((prefix, Arc::clone(svc)));
                    break;
                }
                probe = prefix.parent();
            }
            found
        };
        let Some((prefix, service)) = service else {
            self.monitor
                .telemetry()
                .count(Counter::Dispatch(DispatchOutcome::Unrouted));
            return Err(ExtError::NoService(path.clone()));
        };
        self.monitor
            .telemetry()
            .count(Counter::Dispatch(DispatchOutcome::Base));
        let op = path
            .strip_prefix(&prefix)
            .expect("a service prefix is an ancestor-or-self of the path");
        let reenter = RuntimeReenter {
            runtime: self,
            depth,
        };
        let ctx = CallCtx {
            subject: &effective,
            monitor: &self.monitor,
            reenter: Some(&reenter),
        };
        service.invoke(&ctx, op, args).map_err(ExtError::Service)
    }

    /// Runs an exported function of a loaded extension directly (e.g. an
    /// applet's `main`), as `subject` capped by the extension's static
    /// class.
    pub fn run(
        &self,
        id: ExtensionId,
        export: &str,
        args: &[Value],
        subject: &Subject,
    ) -> Result<Option<Value>, ExtError> {
        self.run_extension(id, export, args, subject, 0)
    }

    fn run_extension(
        &self,
        id: ExtensionId,
        export: &str,
        args: &[Value],
        subject: &Subject,
        depth: usize,
    ) -> Result<Option<Value>, ExtError> {
        if depth >= MAX_GATE_DEPTH {
            return Err(ExtError::GateDepthExceeded);
        }
        let ext = self.extension(id)?;
        let tele = self.monitor.telemetry();
        tele.count(Counter::Dispatch(DispatchOutcome::ExtensionRun));
        // Circuit-breaker gate: a quarantined extension is refused with
        // a typed error before any of its code runs.
        match self.health.admit(id) {
            Ok(Admit::Normal) => {}
            Ok(Admit::Trial) => tele.count(Counter::ProbationTrials),
            Err(refusal) => {
                // Mutant point, scripted-only: a fired `ext.admit.bypass`
                // drops the refusal and lets the quarantined extension
                // run — the planted quarantine-bypass bug the campaign
                // explorer's self-test must detect. Random fault storms
                // never reach it; release builds compile it to nothing.
                if extsec_faults::fire_mutant("ext.admit.bypass").is_none() {
                    tele.count(Counter::QuarantineDenials);
                    self.audit_quarantine(subject, id, &refusal, "dispatch refused");
                    return Err(ExtError::Quarantined {
                        id,
                        cause: refusal.cause,
                        retry_after_ms: refusal.retry_after.as_millis() as u64,
                    });
                }
            }
        }
        // Entering a statically classed extension caps the thread's class
        // (§2.2); the principal stays the caller's.
        let effective = match &ext.manifest.static_class {
            Some(static_class) => subject.capped_by(static_class),
            None => subject.clone(),
        };
        // The dispatch boundary is the one place a panic from extension
        // hosting (or an injected one) is contained: the breaker records
        // it and the caller sees a typed error, not an unwinding thread.
        // Per-execution resource bounds. Deterministic fault points let
        // storms force each new trap path: `ext.limits.oom` collapses
        // the memory budget so the entry frame itself overflows, and
        // `ext.limits.preempt` expires the epoch deadline immediately —
        // an epoch tick mid-dispatch without a ticker thread.
        let mut limits = *self.machine_limits.lock();
        let slice = self.epoch_slice.load(Ordering::Relaxed);
        let mut deadline = (slice > 0).then(|| self.epoch.now().saturating_add(slice));
        if extsec_faults::fire("ext.limits.oom").is_some() {
            limits.memory_bytes = 0;
        }
        if extsec_faults::fire("ext.limits.preempt").is_some() {
            limits.epoch_check_interval = 1;
            deadline = Some(self.epoch.now());
        }
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(fault) = extsec_faults::fire_panicky("ext.dispatch") {
                return Err(Trap::Host(fault.to_string()));
            }
            let mut host = GateHost {
                runtime: self,
                subject: &effective,
                depth,
            };
            let mut machine = Machine::with_limits(&ext.module, limits);
            if let Some(deadline) = deadline {
                machine.set_epoch(self.epoch.clone(), deadline);
            }
            machine.run(export, args, &mut host)
        }));
        let result = match outcome {
            Ok(result) => result,
            Err(payload) => {
                self.note_fault(id, subject, ExtFault::HostPanic);
                return Err(ExtError::HostPanic(panic_message(payload)));
            }
        };
        match result {
            Ok(value) => {
                if self.health.record_success(id) {
                    tele.count(Counter::ProbationReadmits);
                }
                Ok(value)
            }
            // Asking for a missing export is a caller error, not a fault
            // of the extension; the ledger ignores it.
            Err(Trap::NoSuchExport(name)) => Err(ExtError::NoSuchExport(name)),
            Err(trap) => {
                let kind = match trap {
                    Trap::OutOfFuel => ExtFault::Fuel,
                    Trap::OutOfMemory => ExtFault::Memory,
                    Trap::Preempted => ExtFault::Preempted,
                    _ => ExtFault::Trap,
                };
                // Resource kills get their own audit record even before
                // the breaker trips: an operator reviewing /ext/<id>
                // sees each cut-off, not just the eventual quarantine.
                if matches!(kind, ExtFault::Memory | ExtFault::Preempted) {
                    self.audit_resource_kill(subject, id, kind);
                }
                self.note_fault(id, subject, kind);
                Err(ExtError::Trap(trap))
            }
        }
    }

    /// Records one fault against `id`; when it trips the breaker, counts
    /// the quarantine and emits an audit event naming the cause.
    fn note_fault(&self, id: ExtensionId, subject: &Subject, kind: ExtFault) {
        let tele = self.monitor.telemetry();
        tele.count(Counter::ExtFault(kind));
        if let Some(cause) = self.health.record_fault(id, kind) {
            tele.count(Counter::QuarantineTrips);
            let info = QuarantineInfo {
                cause,
                retry_after: self.health.config().cooldown,
            };
            self.audit_quarantine(subject, id, &info, "breaker tripped");
        }
    }

    /// Appends a resource-kill event (memory budget or epoch deadline)
    /// to the audit log under the extension's `/ext/<id>` path.
    fn audit_resource_kill(&self, subject: &Subject, id: ExtensionId, kind: ExtFault) {
        if let Ok(path) = format!("/ext/{id}").parse::<NsPath>() {
            self.monitor.audit().record(
                subject,
                &path,
                AccessMode::Execute,
                &Decision::Deny(DenyReason::Structure(format!("resource kill: {kind}"))),
                self.monitor.policy_generation(),
            );
        }
    }

    /// Appends a quarantine event to the audit log under a synthetic
    /// `/ext/<id>` path, so the containment action is as reviewable as
    /// any denial the monitor itself makes.
    fn audit_quarantine(
        &self,
        subject: &Subject,
        id: ExtensionId,
        info: &QuarantineInfo,
        what: &str,
    ) {
        if let Ok(path) = format!("/ext/{id}").parse::<NsPath>() {
            self.monitor.audit().record(
                subject,
                &path,
                AccessMode::Execute,
                &Decision::Deny(DenyReason::Structure(format!(
                    "quarantine: {what} (cause: {})",
                    info.cause
                ))),
                self.monitor.policy_generation(),
            );
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl fmt::Debug for ExtRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExtRuntime")
            .field("services", &self.services.read().len())
            .field("extensions", &self.extensions.read().len())
            .field("extended_interfaces", &self.dispatcher.read().len())
            .finish()
    }
}

/// The host side of the syscall gates: routes each import invocation back
/// through [`ExtRuntime::call_inner`], carrying the current subject and
/// gate depth.
struct GateHost<'a> {
    runtime: &'a ExtRuntime,
    subject: &'a Subject,
    depth: usize,
}

impl SyscallHost for GateHost<'_> {
    fn syscall(
        &mut self,
        import: &extsec_vm::ImportDecl,
        args: &[Value],
    ) -> Result<Option<Value>, String> {
        let path: NsPath = import.path.parse().map_err(|e: PathError| e.to_string())?;
        self.runtime
            .call_inner(self.subject, &path, args, self.depth + 1)
            .map_err(|e| e.to_string())
    }
}

struct RuntimeReenter<'a> {
    runtime: &'a ExtRuntime,
    depth: usize,
}

impl Reenter for RuntimeReenter<'_> {
    fn call(
        &self,
        subject: &Subject,
        path: &NsPath,
        args: &[Value],
    ) -> Result<Option<Value>, ServiceError> {
        self.runtime
            .call_inner(subject, path, args, self.depth + 1)
            .map_err(ServiceError::from)
    }
}
