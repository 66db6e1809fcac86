//! The extensible virtual file system — the paper's §1.1 example.
//!
//! > "an extension can be used to provide a new file system that is not
//! > supported by the original system. To implement this file system, the
//! > extension ... uses existing services (such as mbuf management) and
//! > builds on them. At the same time, to access the new file system, a
//! > user invokes the existing, general file system interfaces which have
//! > been extended (or specialized) by the extension."
//!
//! The VFS mounts at `/svc/vfs` and ships one built-in type, `mem`. New
//! types plug in via the **extend** mechanism:
//!
//! 1. the extension (or its administrator) calls
//!    `register_type(name)`, which creates the *extensible* interface
//!    node `/svc/vfs/types/<name>` — guarded by `write-append` on
//!    `/svc/vfs/types`;
//! 2. the extension registers an exported handler on that node through
//!    [`ExtRuntime::extend`](extsec_ext::ExtRuntime::extend) — guarded by
//!    the `extend` mode;
//! 3. users keep calling the ordinary `read`/`write` operations; when the
//!    path resolves to a mount of the new type, the VFS re-enters the
//!    runtime on the type's interface node, and class-aware dispatch
//!    selects the extension's handler.
//!
//! Handler convention: `handle(op: str, path: str, data: str) -> str`
//! (`op` ∈ `read`/`write`/`open`; the return value is the read data, or
//! ignored for writes).

use crate::install::{self, visible_container};
use extsec_ext::{CallCtx, Service, ServiceError};
use extsec_namespace::{NodeKind, NsPath, Protection};
use extsec_refmon::{Counter, MonitorError, ReferenceMonitor, ServiceKind, Subject};
use extsec_vm::Value;
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// The service mount prefix.
pub const VFS_SERVICE: &str = "/svc/vfs";
/// The container of per-type interface nodes.
pub const VFS_TYPES: &str = "/svc/vfs/types";
/// The built-in file-system type.
pub const BUILTIN_TYPE: &str = "mem";

struct VfsState {
    /// mountpoint (first path component) → fs type name.
    mounts: BTreeMap<String, String>,
    /// Contents of the built-in `mem` type, keyed by full user path.
    mem: BTreeMap<String, String>,
}

/// The extensible VFS service.
pub struct VfsService {
    state: RwLock<VfsState>,
}

impl VfsService {
    /// Creates a VFS with no mounts.
    pub fn new() -> Self {
        VfsService {
            state: RwLock::new(VfsState {
                mounts: BTreeMap::new(),
                mem: BTreeMap::new(),
            }),
        }
    }

    /// Installs the service's procedure nodes and the types container.
    pub fn install(
        monitor: &ReferenceMonitor,
        op_protection: impl Fn(&str) -> Protection,
    ) -> Result<(), MonitorError> {
        let prefix: NsPath = VFS_SERVICE.parse().expect("constant path");
        let ops = [
            "mount",
            "register_type",
            "open",
            "read",
            "write",
            "list_mounts",
        ];
        let procs: Vec<(&str, Protection)> =
            ops.iter().map(|op| (*op, op_protection(op))).collect();
        install::install_procedures(monitor, &prefix, &procs)?;
        monitor.bootstrap(|ns| {
            ns.ensure_path(
                &VFS_TYPES.parse().expect("constant path"),
                NodeKind::Interface,
                &visible_container(),
            )?;
            Ok(())
        })
    }

    /// Installs with every operation publicly executable.
    pub fn install_public(monitor: &ReferenceMonitor) -> Result<(), MonitorError> {
        Self::install(monitor, |_| install::public_procedure())
    }

    /// Registers a new file-system type: creates the extensible interface
    /// node `/svc/vfs/types/<name>` as `subject`. The node's protection
    /// comes from the subject ([`install::creator_protection`]) plus
    /// public execute (any caller may be routed through it) and
    /// creator-held extend.
    pub fn register_type(
        &self,
        monitor: &ReferenceMonitor,
        subject: &Subject,
        name: &str,
    ) -> Result<(), ServiceError> {
        let types: NsPath = VFS_TYPES.parse().expect("constant path");
        let mut protection = install::creator_protection(subject);
        protection.acl.push(extsec_acl::AclEntry::allow_everyone(
            extsec_acl::ModeSet::only(extsec_acl::AccessMode::Execute),
        ));
        protection.acl.push(extsec_acl::AclEntry::allow_principal(
            subject.principal,
            extsec_acl::AccessMode::Extend,
        ));
        let id = monitor.create(subject, &types, name, NodeKind::Procedure, protection)?;
        monitor
            .bootstrap(|ns| ns.set_extensible(id, true))
            .map_err(ServiceError::from)?;
        Ok(())
    }

    /// Mounts `fstype` at `mountpoint` (a single path component).
    pub fn mount(&self, mountpoint: &str, fstype: &str) -> Result<(), ServiceError> {
        if !NsPath::valid_component(mountpoint) {
            return Err(ServiceError::BadArgs(format!(
                "bad mountpoint {mountpoint:?}"
            )));
        }
        let mut state = self.state.write();
        if state.mounts.contains_key(mountpoint) {
            return Err(ServiceError::Failed(format!(
                "mountpoint {mountpoint:?} already in use"
            )));
        }
        state
            .mounts
            .insert(mountpoint.to_string(), fstype.to_string());
        Ok(())
    }

    /// Returns the mounts as `(mountpoint, fstype)` pairs.
    pub fn mounts(&self) -> Vec<(String, String)> {
        self.state
            .read()
            .mounts
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Splits a user path into `(fstype, mount-relative path)`.
    fn mount_type_of(&self, user_path: &str) -> Result<(String, String), ServiceError> {
        let trimmed = user_path.trim_matches('/');
        let (first, rest) = match trimmed.split_once('/') {
            Some((first, rest)) => (first, rest),
            None => (trimmed, ""),
        };
        let fstype = self
            .state
            .read()
            .mounts
            .get(first)
            .cloned()
            .ok_or_else(|| ServiceError::NotFound(format!("no mount covers {user_path:?}")))?;
        Ok((fstype, rest.to_string()))
    }

    /// Performs `op` on `user_path`, routing to the built-in type or
    /// re-entering the runtime for extension-provided types.
    fn route(
        &self,
        ctx: &CallCtx<'_>,
        op: &str,
        user_path: &str,
        data: &str,
    ) -> Result<Option<Value>, ServiceError> {
        let (fstype, rel_path) = self.mount_type_of(user_path)?;
        if fstype == BUILTIN_TYPE {
            let mut state = self.state.write();
            return match op {
                "open" => Ok(Some(Value::Bool(state.mem.contains_key(user_path)))),
                "read" => state
                    .mem
                    .get(user_path)
                    .map(|s| Some(Value::Str(s.clone())))
                    .ok_or_else(|| ServiceError::NotFound(user_path.to_string())),
                "write" => {
                    state.mem.insert(user_path.to_string(), data.to_string());
                    Ok(None)
                }
                other => Err(ServiceError::NoSuchOperation(other.to_string())),
            };
        }
        // Extension-provided type: re-enter the runtime on the type's
        // interface node; dispatch selects the handler by caller class.
        // The handler sees the mount-relative path and its string result
        // is passed through verbatim (for `write`, handlers may return a
        // token — e.g. logfs returns the record handle).
        let Some(reenter) = ctx.reenter else {
            return Err(ServiceError::Failed(
                "no runtime available to dispatch the mounted type".into(),
            ));
        };
        let iface: NsPath = format!("{VFS_TYPES}/{fstype}")
            .parse()
            .map_err(|_| ServiceError::Failed(format!("bad type name {fstype:?}")))?;
        reenter.call(
            ctx.subject,
            &iface,
            &[
                Value::Str(op.to_string()),
                Value::Str(rel_path),
                Value::Str(data.to_string()),
            ],
        )
    }
}

impl Default for VfsService {
    fn default() -> Self {
        VfsService::new()
    }
}

impl Service for VfsService {
    fn name(&self) -> &str {
        "vfs"
    }

    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        op: &str,
        args: &[Value],
    ) -> Result<Option<Value>, ServiceError> {
        ctx.monitor
            .telemetry()
            .count(Counter::Service(ServiceKind::Vfs));
        if let Some(fault) = extsec_faults::fire("svc.vfs") {
            return Err(ServiceError::Failed(fault.to_string()));
        }
        let arg = |i: usize| -> Result<&str, ServiceError> {
            args.get(i)
                .and_then(Value::as_str)
                .ok_or_else(|| ServiceError::BadArgs(format!("argument {i} must be a string")))
        };
        match op {
            "mount" => {
                self.mount(arg(0)?, arg(1)?)?;
                Ok(None)
            }
            "register_type" => {
                self.register_type(ctx.monitor, ctx.subject, arg(0)?)?;
                Ok(None)
            }
            "open" => self.route(ctx, "open", arg(0)?, ""),
            "read" => self.route(ctx, "read", arg(0)?, ""),
            "write" => self.route(ctx, "write", arg(0)?, arg(1)?),
            "list_mounts" => {
                let mounts = self
                    .mounts()
                    .into_iter()
                    .map(|(m, t)| format!("{m}={t}"))
                    .collect::<Vec<_>>()
                    .join("\n");
                Ok(Some(Value::Str(mounts)))
            }
            // Calls routed to /svc/vfs/types/<name> with no registered
            // handler fall through to the base service; report cleanly.
            other if other.starts_with("types/") => Err(ServiceError::Failed(format!(
                "no handler registered for file-system type {:?}",
                other.trim_start_matches("types/")
            ))),
            other => Err(ServiceError::NoSuchOperation(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mounts_validate() {
        let vfs = VfsService::new();
        vfs.mount("logs", "logfs").unwrap();
        assert!(vfs.mount("logs", "other").is_err());
        assert!(vfs.mount("a/b", "x").is_err());
        assert_eq!(vfs.mounts(), vec![("logs".into(), "logfs".into())]);
    }

    #[test]
    fn mount_type_lookup() {
        let vfs = VfsService::new();
        vfs.mount("home", BUILTIN_TYPE).unwrap();
        assert_eq!(
            vfs.mount_type_of("home/notes").unwrap(),
            (BUILTIN_TYPE.to_string(), "notes".to_string())
        );
        assert!(vfs.mount_type_of("nope/x").is_err());
    }
}
