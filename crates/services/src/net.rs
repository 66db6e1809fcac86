//! The loopback network service — labeled message ports.
//!
//! The paper's survey includes Inferno, extensibility "for distributed
//! services"; a network endpoint is just another named, labeled object.
//! This service provides in-process message ports registered under
//! `/obj/net/<name>`:
//!
//! * `send(port, msg)` requires `write-append` on the port node —
//!   sending is a blind append, so MAC allows sending *up* (a low
//!   process can feed a high port),
//! * `recv(port)` requires `read` — receiving observes, so only
//!   dominating subjects drain a port,
//! * together a port labeled above its writers is a **data diode**: the
//!   classic one-way channel the lattice model is built to provide, and
//!   a second end-to-end witness for the P3 flow property.
//!
//! Operations (mounted at `/svc/net`): `open(name)`, `send(name, msg)`,
//! `recv(name) -> msg`, `pending(name) -> int`, `close(name)`.

use crate::install::{self, visible_container};
use extsec_acl::AccessMode;
use extsec_ext::{CallCtx, Service, ServiceError};
use extsec_namespace::{NodeKind, NsPath, Protection};
use extsec_refmon::{Counter, MonitorError, ReferenceMonitor, ServiceKind, Subject};
use extsec_vm::Value;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};

/// The name-space root of port objects.
pub const NET_ROOT: &str = "/obj/net";
/// The service mount prefix.
pub const NET_SERVICE: &str = "/svc/net";
/// Maximum queued messages per port.
pub const MAX_QUEUE: usize = 1024;

/// The loopback network service.
pub struct NetService {
    queues: Mutex<BTreeMap<String, VecDeque<String>>>,
}

impl NetService {
    /// Creates a service with no ports.
    pub fn new() -> Self {
        NetService {
            queues: Mutex::new(BTreeMap::new()),
        }
    }

    /// Installs the service's procedure nodes and the `/obj/net` root.
    pub fn install(
        monitor: &ReferenceMonitor,
        op_protection: impl Fn(&str) -> Protection,
    ) -> Result<(), MonitorError> {
        let prefix: NsPath = NET_SERVICE.parse().expect("constant path");
        let ops = ["open", "send", "recv", "pending", "close"];
        let procs: Vec<(&str, Protection)> =
            ops.iter().map(|op| (*op, op_protection(op))).collect();
        install::install_procedures(monitor, &prefix, &procs)?;
        monitor.bootstrap(|ns| {
            ns.ensure_path(
                &NET_ROOT.parse().expect("constant path"),
                NodeKind::Directory,
                &visible_container(),
            )?;
            Ok(())
        })
    }

    /// Installs with every operation publicly executable.
    pub fn install_public(monitor: &ReferenceMonitor) -> Result<(), MonitorError> {
        Self::install(monitor, |_| install::public_procedure())
    }

    fn node_path(name: &str) -> Result<NsPath, ServiceError> {
        let root: NsPath = NET_ROOT.parse().expect("constant path");
        root.join(name)
            .map_err(|e| ServiceError::BadArgs(format!("bad port name: {e}")))
    }

    /// Opens a port owned (and labeled) by `subject`. Like the applet
    /// registry, the service is a trusted labeler: the port node carries
    /// the creator's class regardless of the container's label.
    pub fn open(
        &self,
        monitor: &ReferenceMonitor,
        subject: &Subject,
        name: &str,
    ) -> Result<(), ServiceError> {
        let _ = Self::node_path(name)?;
        let root: NsPath = NET_ROOT.parse().expect("constant path");
        monitor
            .bootstrap(|ns| {
                let parent = ns.resolve(&root)?;
                let mut prot = install::creator_protection(subject);
                // Ports are public send targets by default; receipt stays
                // creator-held. MAC still gates both directions.
                prot.acl.push(extsec_acl::AclEntry::allow_everyone(
                    extsec_acl::ModeSet::only(AccessMode::WriteAppend),
                ));
                ns.insert_at(parent, name, NodeKind::Object, prot)?;
                Ok(())
            })
            .map_err(|e| match e {
                MonitorError::Ns(extsec_namespace::NsError::AlreadyExists(p)) => {
                    ServiceError::Failed(format!("{p}: already exists"))
                }
                other => ServiceError::from(other),
            })?;
        self.queues.lock().insert(name.to_string(), VecDeque::new());
        Ok(())
    }

    /// Sends a message to `name`; requires `write-append` on the port.
    pub fn send(
        &self,
        monitor: &ReferenceMonitor,
        subject: &Subject,
        name: &str,
        msg: &str,
    ) -> Result<(), ServiceError> {
        let path = Self::node_path(name)?;
        monitor.require(subject, &path, AccessMode::WriteAppend)?;
        let mut queues = self.queues.lock();
        let queue = queues
            .get_mut(name)
            .ok_or_else(|| ServiceError::NotFound(format!("port {name:?}")))?;
        if queue.len() >= MAX_QUEUE {
            return Err(ServiceError::Failed(format!("port {name:?} is full")));
        }
        queue.push_back(msg.to_string());
        Ok(())
    }

    /// Receives the oldest message from `name`; requires `read`.
    pub fn recv(
        &self,
        monitor: &ReferenceMonitor,
        subject: &Subject,
        name: &str,
    ) -> Result<Option<String>, ServiceError> {
        let path = Self::node_path(name)?;
        monitor.require(subject, &path, AccessMode::Read)?;
        let mut queues = self.queues.lock();
        let queue = queues
            .get_mut(name)
            .ok_or_else(|| ServiceError::NotFound(format!("port {name:?}")))?;
        Ok(queue.pop_front())
    }

    /// Returns the number of queued messages; requires `read`.
    pub fn pending(
        &self,
        monitor: &ReferenceMonitor,
        subject: &Subject,
        name: &str,
    ) -> Result<usize, ServiceError> {
        let path = Self::node_path(name)?;
        monitor.require(subject, &path, AccessMode::Read)?;
        let queues = self.queues.lock();
        queues
            .get(name)
            .map(VecDeque::len)
            .ok_or_else(|| ServiceError::NotFound(format!("port {name:?}")))
    }

    /// Closes (deletes) a port; requires `delete` on the node.
    pub fn close(
        &self,
        monitor: &ReferenceMonitor,
        subject: &Subject,
        name: &str,
    ) -> Result<(), ServiceError> {
        let path = Self::node_path(name)?;
        monitor.remove(subject, &path)?;
        self.queues.lock().remove(name);
        Ok(())
    }
}

impl Default for NetService {
    fn default() -> Self {
        NetService::new()
    }
}

impl Service for NetService {
    fn name(&self) -> &str {
        "net"
    }

    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        op: &str,
        args: &[Value],
    ) -> Result<Option<Value>, ServiceError> {
        ctx.monitor
            .telemetry()
            .count(Counter::Service(ServiceKind::Net));
        if let Some(fault) = extsec_faults::fire("svc.net") {
            return Err(ServiceError::Failed(fault.to_string()));
        }
        let arg = |i: usize| -> Result<&str, ServiceError> {
            args.get(i)
                .and_then(Value::as_str)
                .ok_or_else(|| ServiceError::BadArgs(format!("argument {i} must be a string")))
        };
        match op {
            "open" => {
                self.open(ctx.monitor, ctx.subject, arg(0)?)?;
                Ok(None)
            }
            "send" => {
                self.send(ctx.monitor, ctx.subject, arg(0)?, arg(1)?)?;
                Ok(None)
            }
            "recv" => {
                let msg = self.recv(ctx.monitor, ctx.subject, arg(0)?)?;
                Ok(Some(Value::Str(msg.unwrap_or_default())))
            }
            "pending" => {
                let n = self.pending(ctx.monitor, ctx.subject, arg(0)?)?;
                Ok(Some(Value::Int(n as i64)))
            }
            "close" => {
                self.close(ctx.monitor, ctx.subject, arg(0)?)?;
                Ok(None)
            }
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
        net: NetService,
        low: Subject,
        high: Subject,
    }

    fn fixture() -> Fx {
        let lattice = Lattice::build(["low", "high"], ["k"]).unwrap();
        let mut builder = MonitorBuilder::new(lattice.clone());
        let l = builder.add_principal("lowproc").unwrap();
        let h = builder.add_principal("highproc").unwrap();
        let monitor = builder.build();
        NetService::install_public(&monitor).unwrap();
        Fx {
            monitor,
            net: NetService::new(),
            low: Subject::new(l, SecurityClass::bottom()),
            high: Subject::new(h, lattice.parse_class("high").unwrap()),
        }
    }

    #[test]
    fn open_send_recv_same_class() {
        let fx = fixture();
        fx.net.open(&fx.monitor, &fx.low, "chat").unwrap();
        fx.net.send(&fx.monitor, &fx.low, "chat", "hello").unwrap();
        fx.net.send(&fx.monitor, &fx.low, "chat", "world").unwrap();
        assert_eq!(fx.net.pending(&fx.monitor, &fx.low, "chat").unwrap(), 2);
        assert_eq!(
            fx.net.recv(&fx.monitor, &fx.low, "chat").unwrap(),
            Some("hello".to_string())
        );
        assert_eq!(
            fx.net.recv(&fx.monitor, &fx.low, "chat").unwrap(),
            Some("world".to_string())
        );
        assert_eq!(fx.net.recv(&fx.monitor, &fx.low, "chat").unwrap(), None);
    }

    #[test]
    fn diode_low_to_high() {
        // A high-owned port: low senders can feed it (append up) but can
        // never drain or even count it; the high owner reads.
        let fx = fixture();
        fx.net.open(&fx.monitor, &fx.high, "uplink").unwrap();
        fx.net
            .send(&fx.monitor, &fx.low, "uplink", "telemetry")
            .unwrap();
        // Low cannot receive or observe queue length (the creator-only
        // ACL already denies; see `diode_is_mandatory_not_just_acl` for
        // the pure-MAC witness).
        let e = fx.net.recv(&fx.monitor, &fx.low, "uplink").unwrap_err();
        assert!(matches!(e, ServiceError::Denied(_)));
        let e = fx.net.pending(&fx.monitor, &fx.low, "uplink").unwrap_err();
        assert!(matches!(e, ServiceError::Denied(_)));
        // High drains.
        assert_eq!(
            fx.net.recv(&fx.monitor, &fx.high, "uplink").unwrap(),
            Some("telemetry".to_string())
        );
    }

    #[test]
    fn diode_is_mandatory_not_just_acl() {
        // Even with a wide-open ACL, the label alone keeps low readers
        // out: the one-way property is mandatory, not discretionary.
        let fx = fixture();
        fx.net.open(&fx.monitor, &fx.high, "uplink").unwrap();
        let path = NetService::node_path("uplink").unwrap();
        fx.monitor
            .bootstrap(|ns| {
                let id = ns.resolve(&path)?;
                ns.update_protection(id, |prot| {
                    prot.acl.push(extsec_acl::AclEntry::allow_everyone(
                        extsec_acl::ModeSet::parse("rwa").unwrap(),
                    ));
                })?;
                Ok(())
            })
            .unwrap();
        fx.net.send(&fx.monitor, &fx.low, "uplink", "m").unwrap();
        let e = fx.net.recv(&fx.monitor, &fx.low, "uplink").unwrap_err();
        assert_eq!(e, ServiceError::Denied(DenyReason::MacFlow));
        assert_eq!(
            fx.net.recv(&fx.monitor, &fx.high, "uplink").unwrap(),
            Some("m".to_string())
        );
    }

    #[test]
    fn no_downlink() {
        // The reverse direction: a low-owned port cannot be *sent to* by
        // high (that would be a write-down) — the diode is one-way.
        let fx = fixture();
        fx.net.open(&fx.monitor, &fx.low, "downlink").unwrap();
        let e = fx
            .net
            .send(&fx.monitor, &fx.high, "downlink", "leak")
            .unwrap_err();
        assert_eq!(e, ServiceError::Denied(DenyReason::MacFlow));
        // Low-to-low still fine.
        fx.net.send(&fx.monitor, &fx.low, "downlink", "ok").unwrap();
    }

    #[test]
    fn close_requires_delete() {
        let fx = fixture();
        fx.net.open(&fx.monitor, &fx.high, "p").unwrap();
        // The low process cannot close the high port.
        let e = fx.net.close(&fx.monitor, &fx.low, "p").unwrap_err();
        assert!(matches!(e, ServiceError::Denied(_)));
        fx.net.close(&fx.monitor, &fx.high, "p").unwrap();
        assert!(matches!(
            fx.net.send(&fx.monitor, &fx.high, "p", "x"),
            Err(ServiceError::Denied(DenyReason::NotFound(_)))
        ));
    }

    #[test]
    fn queue_bound() {
        let fx = fixture();
        fx.net.open(&fx.monitor, &fx.low, "q").unwrap();
        for i in 0..MAX_QUEUE {
            fx.net
                .send(&fx.monitor, &fx.low, "q", &i.to_string())
                .unwrap();
        }
        assert!(matches!(
            fx.net.send(&fx.monitor, &fx.low, "q", "overflow"),
            Err(ServiceError::Failed(_))
        ));
    }

    #[test]
    fn duplicate_port_rejected() {
        let fx = fixture();
        fx.net.open(&fx.monitor, &fx.low, "p").unwrap();
        assert!(matches!(
            fx.net.open(&fx.monitor, &fx.low, "p"),
            Err(ServiceError::Failed(_))
        ));
    }

    #[test]
    fn principals_do_not_matter_only_labels_and_acls() {
        // Two distinct principals at the same class: the ACL gives
        // everyone write-append, so both send; receive stays with the
        // creator via the ACL.
        let fx = fixture();
        let other = fx
            .monitor
            .directory_mut(|d| d.add_principal("other").unwrap());
        let other_low = Subject::new(other, SecurityClass::bottom());
        fx.net.open(&fx.monitor, &fx.low, "shared").unwrap();
        fx.net
            .send(&fx.monitor, &other_low, "shared", "hi")
            .unwrap();
        let e = fx.net.recv(&fx.monitor, &other_low, "shared").unwrap_err();
        assert_eq!(e, ServiceError::Denied(DenyReason::DacNoEntry));
        let _ = PrincipalId::from_raw(0);
    }
}
