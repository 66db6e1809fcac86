//! The mbuf (message buffer) pool service.
//!
//! The paper's §1.1 example has a new file system "use existing services
//! (such as mbuf management) and build on them". This is that service: a
//! pool of byte buffers with integer handles, per-principal ownership and
//! quotas. Buffers are kernel-internal resources rather than named
//! objects, so ownership is enforced by the service itself (a TCB
//! component); reaching the service's *procedures* is what the monitor
//! guards.
//!
//! Operations (mounted at `/svc/mbuf`): `alloc(size) -> handle`,
//! `write(handle, data)`, `append(handle, data)`, `read(handle) -> data`,
//! `free(handle)`, `usage() -> bytes`.

use crate::install;
use bytes::BytesMut;
use extsec_acl::PrincipalId;
use extsec_ext::{CallCtx, Service, ServiceError};
use extsec_namespace::{NsPath, Protection};
use extsec_refmon::{Counter, MonitorError, ReferenceMonitor, ServiceKind};
use extsec_vm::Value;
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// The service mount prefix.
pub const MBUF_SERVICE: &str = "/svc/mbuf";

/// Default per-principal quota in bytes.
pub const DEFAULT_QUOTA: usize = 64 * 1024;

struct Buffer {
    owner: PrincipalId,
    data: BytesMut,
    capacity: usize,
}

struct PoolState {
    buffers: BTreeMap<i64, Buffer>,
    usage: BTreeMap<PrincipalId, usize>,
    next_handle: i64,
}

/// The mbuf pool service.
pub struct MbufService {
    state: Mutex<PoolState>,
    quota: usize,
}

impl MbufService {
    /// Creates a pool with the default quota.
    pub fn new() -> Self {
        Self::with_quota(DEFAULT_QUOTA)
    }

    /// Creates a pool with a per-principal byte quota.
    pub fn with_quota(quota: usize) -> Self {
        MbufService {
            state: Mutex::new(PoolState {
                buffers: BTreeMap::new(),
                usage: BTreeMap::new(),
                next_handle: 1,
            }),
            quota,
        }
    }

    /// Installs the service's procedure nodes.
    pub fn install(
        monitor: &ReferenceMonitor,
        op_protection: impl Fn(&str) -> Protection,
    ) -> Result<(), MonitorError> {
        let prefix: NsPath = MBUF_SERVICE.parse().expect("constant path");
        let ops = ["alloc", "write", "append", "read", "free", "usage"];
        let procs: Vec<(&str, Protection)> =
            ops.iter().map(|op| (*op, op_protection(op))).collect();
        install::install_procedures(monitor, &prefix, &procs)
    }

    /// Installs with every operation publicly executable.
    pub fn install_public(monitor: &ReferenceMonitor) -> Result<(), MonitorError> {
        Self::install(monitor, |_| install::public_procedure())
    }

    /// Allocates a buffer of `size` bytes for `owner`.
    pub fn alloc(&self, owner: PrincipalId, size: usize) -> Result<i64, ServiceError> {
        let mut state = self.state.lock();
        let used = state.usage.get(&owner).copied().unwrap_or(0);
        if used + size > self.quota {
            return Err(ServiceError::Failed(format!(
                "quota exceeded: {used} + {size} > {}",
                self.quota
            )));
        }
        let handle = state.next_handle;
        state.next_handle += 1;
        state.buffers.insert(
            handle,
            Buffer {
                owner,
                data: BytesMut::with_capacity(size),
                capacity: size,
            },
        );
        *state.usage.entry(owner).or_insert(0) += size;
        Ok(handle)
    }

    /// Frees a buffer; only the owner may free it.
    pub fn free(&self, owner: PrincipalId, handle: i64) -> Result<(), ServiceError> {
        let mut state = self.state.lock();
        let Some(buffer) = state.buffers.get(&handle) else {
            return Err(ServiceError::NotFound(format!("mbuf {handle}")));
        };
        if buffer.owner != owner {
            return Err(ServiceError::Failed("not the buffer owner".into()));
        }
        let capacity = buffer.capacity;
        state.buffers.remove(&handle);
        if let Some(used) = state.usage.get_mut(&owner) {
            *used = used.saturating_sub(capacity);
        }
        Ok(())
    }

    /// Overwrites a buffer's contents; only the owner may write.
    pub fn write(&self, owner: PrincipalId, handle: i64, data: &[u8]) -> Result<(), ServiceError> {
        let mut state = self.state.lock();
        let Some(buffer) = state.buffers.get_mut(&handle) else {
            return Err(ServiceError::NotFound(format!("mbuf {handle}")));
        };
        if buffer.owner != owner {
            return Err(ServiceError::Failed("not the buffer owner".into()));
        }
        if data.len() > buffer.capacity {
            return Err(ServiceError::Failed(format!(
                "buffer overflow: {} > {}",
                data.len(),
                buffer.capacity
            )));
        }
        buffer.data.clear();
        buffer.data.extend_from_slice(data);
        Ok(())
    }

    /// Appends to a buffer; only the owner may append.
    pub fn append(&self, owner: PrincipalId, handle: i64, data: &[u8]) -> Result<(), ServiceError> {
        let mut state = self.state.lock();
        let Some(buffer) = state.buffers.get_mut(&handle) else {
            return Err(ServiceError::NotFound(format!("mbuf {handle}")));
        };
        if buffer.owner != owner {
            return Err(ServiceError::Failed("not the buffer owner".into()));
        }
        if buffer.data.len() + data.len() > buffer.capacity {
            return Err(ServiceError::Failed(format!(
                "buffer overflow: {} + {} > {}",
                buffer.data.len(),
                data.len(),
                buffer.capacity
            )));
        }
        buffer.data.extend_from_slice(data);
        Ok(())
    }

    /// Reads a buffer; only the owner may read.
    pub fn read(&self, owner: PrincipalId, handle: i64) -> Result<Vec<u8>, ServiceError> {
        let state = self.state.lock();
        let Some(buffer) = state.buffers.get(&handle) else {
            return Err(ServiceError::NotFound(format!("mbuf {handle}")));
        };
        if buffer.owner != owner {
            return Err(ServiceError::Failed("not the buffer owner".into()));
        }
        Ok(buffer.data.to_vec())
    }

    /// Returns the bytes currently reserved by `owner`.
    pub fn usage(&self, owner: PrincipalId) -> usize {
        self.state.lock().usage.get(&owner).copied().unwrap_or(0)
    }

    fn arg_int(args: &[Value], i: usize) -> Result<i64, ServiceError> {
        args.get(i)
            .and_then(Value::as_int)
            .ok_or_else(|| ServiceError::BadArgs(format!("argument {i} must be an int")))
    }

    fn arg_str(args: &[Value], i: usize) -> Result<&str, ServiceError> {
        args.get(i)
            .and_then(Value::as_str)
            .ok_or_else(|| ServiceError::BadArgs(format!("argument {i} must be a string")))
    }
}

impl Default for MbufService {
    fn default() -> Self {
        MbufService::new()
    }
}

impl Service for MbufService {
    fn name(&self) -> &str {
        "mbuf"
    }

    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        op: &str,
        args: &[Value],
    ) -> Result<Option<Value>, ServiceError> {
        ctx.monitor
            .telemetry()
            .count(Counter::Service(ServiceKind::Mbuf));
        if let Some(fault) = extsec_faults::fire("svc.mbuf") {
            return Err(ServiceError::Failed(fault.to_string()));
        }
        let who = ctx.subject.principal;
        match op {
            "alloc" => {
                let size = Self::arg_int(args, 0)?;
                if size < 0 {
                    return Err(ServiceError::BadArgs("size must be non-negative".into()));
                }
                let handle = self.alloc(who, size as usize)?;
                Ok(Some(Value::Int(handle)))
            }
            "write" => {
                let handle = Self::arg_int(args, 0)?;
                let data = Self::arg_str(args, 1)?;
                self.write(who, handle, data.as_bytes())?;
                Ok(None)
            }
            "append" => {
                let handle = Self::arg_int(args, 0)?;
                let data = Self::arg_str(args, 1)?;
                self.append(who, handle, data.as_bytes())?;
                Ok(None)
            }
            "read" => {
                let handle = Self::arg_int(args, 0)?;
                let data = self.read(who, handle)?;
                let text = String::from_utf8(data)
                    .map_err(|_| ServiceError::Failed("buffer is not valid UTF-8".into()))?;
                Ok(Some(Value::Str(text)))
            }
            "free" => {
                self.free(who, Self::arg_int(args, 0)?)?;
                Ok(None)
            }
            "usage" => Ok(Some(Value::Int(self.usage(who) as i64))),
            other => Err(ServiceError::NoSuchOperation(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(raw: u32) -> PrincipalId {
        PrincipalId::from_raw(raw)
    }

    #[test]
    fn alloc_write_read_free() {
        let pool = MbufService::with_quota(1024);
        let h = pool.alloc(p(1), 16).unwrap();
        pool.write(p(1), h, b"hello").unwrap();
        assert_eq!(pool.read(p(1), h).unwrap(), b"hello");
        pool.append(p(1), h, b" world").unwrap();
        assert_eq!(pool.read(p(1), h).unwrap(), b"hello world");
        assert_eq!(pool.usage(p(1)), 16);
        pool.free(p(1), h).unwrap();
        assert_eq!(pool.usage(p(1)), 0);
        assert!(matches!(pool.read(p(1), h), Err(ServiceError::NotFound(_))));
    }

    #[test]
    fn ownership_enforced() {
        let pool = MbufService::new();
        let h = pool.alloc(p(1), 16).unwrap();
        assert!(pool.write(p(2), h, b"x").is_err());
        assert!(pool.read(p(2), h).is_err());
        assert!(pool.free(p(2), h).is_err());
        // Owner still works.
        pool.write(p(1), h, b"x").unwrap();
    }

    #[test]
    fn quota_enforced_per_principal() {
        let pool = MbufService::with_quota(100);
        pool.alloc(p(1), 80).unwrap();
        assert!(pool.alloc(p(1), 40).is_err());
        // Another principal has its own quota.
        pool.alloc(p(2), 80).unwrap();
        // Freeing restores headroom.
    }

    #[test]
    fn capacity_enforced() {
        let pool = MbufService::new();
        let h = pool.alloc(p(1), 4).unwrap();
        assert!(pool.write(p(1), h, b"too long").is_err());
        pool.write(p(1), h, b"1234").unwrap();
        assert!(pool.append(p(1), h, b"5").is_err());
    }

    #[test]
    fn free_restores_quota() {
        let pool = MbufService::with_quota(100);
        let h = pool.alloc(p(1), 100).unwrap();
        assert!(pool.alloc(p(1), 1).is_err());
        pool.free(p(1), h).unwrap();
        pool.alloc(p(1), 100).unwrap();
    }
}
