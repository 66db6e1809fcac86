//! The applet/thread registry — the *ThreadMurder* surface.
//!
//! The paper (§1.2) recounts McGraw & Felten's ThreadMurder applet, which
//! "kills the threads of all other applets that are running in the same
//! sandbox": the Java sandbox isolated applets from the *system* but not
//! from *each other*. This service reproduces the attack surface: applets
//! register logical threads, and a `kill` operation terminates a thread by
//! name.
//!
//! Under the extsec model every registered thread is a protected object at
//! `/obj/threads/<name>` — killing requires the `delete` mode on that
//! node, which only the owner (or an administrator grant) holds, and the
//! mandatory category separation keeps applets from even *seeing* each
//! other's threads when their classes are incomparable. The T1 attack
//! matrix drives exactly this code path.
//!
//! Operations (mounted at `/svc/threads`): `spawn(name) -> ()`,
//! `kill(name)`, `list() -> names`, `alive(name) -> bool`, `count() ->
//! int`.

use crate::install::{self, visible_container};
use extsec_ext::{CallCtx, Service, ServiceError};
use extsec_namespace::{NodeKind, NsPath, Protection};
use extsec_refmon::{Counter, MonitorError, ReferenceMonitor, ServiceKind, Subject, ThreadId};
use extsec_vm::Value;
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// The name-space root of thread objects.
pub const THREADS_ROOT: &str = "/obj/threads";
/// The service mount prefix.
pub const THREADS_SERVICE: &str = "/svc/threads";

/// One registered applet thread.
#[derive(Clone, Debug)]
pub struct AppletThread {
    /// The logical thread.
    pub thread: ThreadId,
    /// The owning principal.
    pub owner: extsec_acl::PrincipalId,
    /// Whether the thread is still running.
    pub alive: bool,
}

/// The applet/thread registry service.
pub struct AppletService {
    threads: RwLock<BTreeMap<String, AppletThread>>,
}

impl AppletService {
    /// Creates an empty registry.
    pub fn new() -> Self {
        AppletService {
            threads: RwLock::new(BTreeMap::new()),
        }
    }

    /// Installs the service's procedure nodes and the `/obj/threads`
    /// container.
    pub fn install(
        monitor: &ReferenceMonitor,
        op_protection: impl Fn(&str) -> Protection,
    ) -> Result<(), MonitorError> {
        let prefix: NsPath = THREADS_SERVICE.parse().expect("constant path");
        let ops = ["spawn", "kill", "list", "alive", "count"];
        let procs: Vec<(&str, Protection)> =
            ops.iter().map(|op| (*op, op_protection(op))).collect();
        install::install_procedures(monitor, &prefix, &procs)?;
        monitor.bootstrap(|ns| {
            let root: NsPath = THREADS_ROOT.parse().expect("constant path");
            let mut prot = visible_container();
            // Anyone may register (append) a thread; killing is governed
            // by the per-thread node.
            prot.acl.push(extsec_acl::AclEntry::allow_everyone(
                extsec_acl::ModeSet::only(extsec_acl::AccessMode::WriteAppend),
            ));
            ns.ensure_path(&root, NodeKind::Directory, &prot)?;
            Ok(())
        })
    }

    /// Installs with every operation publicly executable.
    pub fn install_public(monitor: &ReferenceMonitor) -> Result<(), MonitorError> {
        Self::install(monitor, |_| install::public_procedure())
    }

    fn node_path(name: &str) -> Result<NsPath, ServiceError> {
        let root: NsPath = THREADS_ROOT.parse().expect("constant path");
        root.join(name)
            .map_err(|e| ServiceError::BadArgs(format!("bad thread name: {e}")))
    }

    /// Registers a thread named `name` owned by `subject`.
    ///
    /// The registry is a *trusted subject* in the MLS sense: `/obj/threads`
    /// holds entries at every label, so inserting the node bypasses the
    /// container's flow check (which would otherwise forbid any non-bottom
    /// subject from registering). The node itself still carries the
    /// creator's ACL and label, so killing and listing stay fully
    /// mediated.
    pub fn spawn(
        &self,
        monitor: &ReferenceMonitor,
        subject: &Subject,
        name: &str,
    ) -> Result<ThreadId, ServiceError> {
        let root: NsPath = THREADS_ROOT.parse().expect("constant path");
        let _ = Self::node_path(name)?; // validate the name
        monitor
            .bootstrap(|ns| {
                let parent = ns.resolve(&root)?;
                ns.insert_at(
                    parent,
                    name,
                    NodeKind::Object,
                    install::creator_protection(subject),
                )?;
                Ok(())
            })
            .map_err(|e| match e {
                MonitorError::Ns(extsec_namespace::NsError::AlreadyExists(p)) => {
                    ServiceError::Failed(format!("{p}: already exists"))
                }
                other => ServiceError::from(other),
            })?;
        let thread = ThreadId::fresh();
        self.threads.write().insert(
            name.to_string(),
            AppletThread {
                thread,
                owner: subject.principal,
                alive: true,
            },
        );
        Ok(thread)
    }

    /// Kills the thread named `name`; requires `delete` on its node
    /// (creator-held by default). The killed thread's node is removed.
    pub fn kill(
        &self,
        monitor: &ReferenceMonitor,
        subject: &Subject,
        name: &str,
    ) -> Result<(), ServiceError> {
        let path = Self::node_path(name)?;
        monitor.remove(subject, &path)?;
        match self.threads.write().get_mut(name) {
            Some(t) => {
                t.alive = false;
                Ok(())
            }
            None => Err(ServiceError::NotFound(format!("thread {name:?}"))),
        }
    }

    /// Lists the thread names visible to `subject` (per-node read
    /// filtering: only threads whose node the subject could observe).
    pub fn list(
        &self,
        monitor: &ReferenceMonitor,
        subject: &Subject,
    ) -> Result<Vec<String>, ServiceError> {
        let root: NsPath = THREADS_ROOT.parse().expect("constant path");
        // One pinned snapshot for the list and the per-node filter, so
        // concurrent administration cannot make the filter disagree with
        // the listing it filters.
        let view = monitor.view();
        let names = view.list(subject, &root)?;
        Ok(names
            .into_iter()
            .filter(|name| {
                Self::node_path(name)
                    .map(|path| {
                        view.check(subject, &path, extsec_acl::AccessMode::Read)
                            .allowed()
                    })
                    .unwrap_or(false)
            })
            .collect())
    }

    /// Returns whether the named thread is alive (owner-visible check is
    /// the caller's responsibility; this is registry state).
    pub fn alive(&self, name: &str) -> Option<bool> {
        self.threads.read().get(name).map(|t| t.alive)
    }

    /// Returns the number of live threads.
    pub fn live_count(&self) -> usize {
        self.threads.read().values().filter(|t| t.alive).count()
    }
}

impl Default for AppletService {
    fn default() -> Self {
        AppletService::new()
    }
}

impl Service for AppletService {
    fn name(&self) -> &str {
        "threads"
    }

    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        op: &str,
        args: &[Value],
    ) -> Result<Option<Value>, ServiceError> {
        ctx.monitor
            .telemetry()
            .count(Counter::Service(ServiceKind::Applets));
        if let Some(fault) = extsec_faults::fire("svc.applets") {
            return Err(ServiceError::Failed(fault.to_string()));
        }
        let arg = |i: usize| -> Result<&str, ServiceError> {
            args.get(i)
                .and_then(Value::as_str)
                .ok_or_else(|| ServiceError::BadArgs(format!("argument {i} must be a string")))
        };
        match op {
            "spawn" => {
                self.spawn(ctx.monitor, ctx.subject, arg(0)?)?;
                Ok(None)
            }
            "kill" => {
                self.kill(ctx.monitor, ctx.subject, arg(0)?)?;
                Ok(None)
            }
            "list" => {
                let names = self.list(ctx.monitor, ctx.subject)?;
                Ok(Some(Value::Str(names.join("\n"))))
            }
            "alive" => {
                let name = arg(0)?;
                let alive = self
                    .alive(name)
                    .ok_or_else(|| ServiceError::NotFound(format!("thread {name:?}")))?;
                Ok(Some(Value::Bool(alive)))
            }
            "count" => Ok(Some(Value::Int(self.live_count() as i64))),
            other => Err(ServiceError::NoSuchOperation(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extsec_acl::PrincipalId;
    use extsec_mac::{Lattice, SecurityClass};
    use extsec_refmon::{DenyReason, MonitorBuilder};
    use std::sync::Arc;

    struct Fx {
        monitor: Arc<ReferenceMonitor>,
        svc: AppletService,
        alice: PrincipalId,
        bob: PrincipalId,
    }

    fn fixture() -> Fx {
        let lattice = Lattice::build(["low"], ["d1", "d2"]).unwrap();
        let mut builder = MonitorBuilder::new(lattice);
        let alice = builder.add_principal("alice").unwrap();
        let bob = builder.add_principal("bob").unwrap();
        let monitor = builder.build();
        AppletService::install_public(&monitor).unwrap();
        Fx {
            monitor,
            svc: AppletService::new(),
            alice,
            bob,
        }
    }

    #[test]
    fn spawn_and_kill_own_thread() {
        let fx = fixture();
        let alice = Subject::new(fx.alice, SecurityClass::bottom());
        fx.svc.spawn(&fx.monitor, &alice, "worker").unwrap();
        assert_eq!(fx.svc.alive("worker"), Some(true));
        assert_eq!(fx.svc.live_count(), 1);
        fx.svc.kill(&fx.monitor, &alice, "worker").unwrap();
        assert_eq!(fx.svc.alive("worker"), Some(false));
        assert_eq!(fx.svc.live_count(), 0);
    }

    #[test]
    fn threadmurder_is_blocked() {
        let fx = fixture();
        let alice = Subject::new(fx.alice, SecurityClass::bottom());
        let bob = Subject::new(fx.bob, SecurityClass::bottom());
        fx.svc.spawn(&fx.monitor, &alice, "victim").unwrap();
        // Bob (the murderer) cannot delete alice's thread node.
        let e = fx.svc.kill(&fx.monitor, &bob, "victim").unwrap_err();
        assert_eq!(e, ServiceError::Denied(DenyReason::DacNoEntry));
        assert_eq!(fx.svc.alive("victim"), Some(true));
    }

    #[test]
    fn category_separation_hides_threads() {
        let fx = fixture();
        let d1 = fx.monitor.lattice(|l| l.parse_class("low:{d1}").unwrap());
        let d2 = fx.monitor.lattice(|l| l.parse_class("low:{d2}").unwrap());
        let alice = Subject::new(fx.alice, d1);
        let bob = Subject::new(fx.bob, d2);
        fx.svc.spawn(&fx.monitor, &alice, "a-thread").unwrap();
        fx.svc.spawn(&fx.monitor, &bob, "b-thread").unwrap();
        // Each sees only its own thread: the other's node label is
        // incomparable, so read is denied and list filters it out.
        assert_eq!(fx.svc.list(&fx.monitor, &alice).unwrap(), vec!["a-thread"]);
        assert_eq!(fx.svc.list(&fx.monitor, &bob).unwrap(), vec!["b-thread"]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let fx = fixture();
        let alice = Subject::new(fx.alice, SecurityClass::bottom());
        fx.svc.spawn(&fx.monitor, &alice, "t").unwrap();
        let e = fx.svc.spawn(&fx.monitor, &alice, "t").unwrap_err();
        assert!(matches!(e, ServiceError::Failed(_)), "got {e:?}");
    }

    #[test]
    fn bad_names_rejected() {
        let fx = fixture();
        let alice = Subject::new(fx.alice, SecurityClass::bottom());
        assert!(fx.svc.spawn(&fx.monitor, &alice, "a/b").is_err());
        assert!(fx.svc.spawn(&fx.monitor, &alice, "").is_err());
    }

    #[test]
    fn kill_missing_thread() {
        let fx = fixture();
        let alice = Subject::new(fx.alice, SecurityClass::bottom());
        let e = fx.svc.kill(&fx.monitor, &alice, "ghost").unwrap_err();
        assert!(matches!(e, ServiceError::Denied(DenyReason::NotFound(_))));
    }
}
