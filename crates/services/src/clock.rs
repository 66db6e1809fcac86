//! The logical clock service.
//!
//! Operations (mounted at `/svc/clock`): `now() -> int` (a monotonically
//! increasing logical tick, advanced on every read), `ticks() -> int`
//! (the current value without advancing). A logical clock keeps the
//! simulation deterministic.

use crate::install;
use extsec_ext::{CallCtx, Service, ServiceError};
use extsec_namespace::{NsPath, Protection};
use extsec_refmon::{Counter, MonitorError, ReferenceMonitor, ServiceKind};
use extsec_vm::Value;
use std::sync::atomic::{AtomicI64, Ordering};

/// The service mount prefix.
pub const CLOCK_SERVICE: &str = "/svc/clock";

/// The logical clock service.
pub struct ClockService {
    ticks: AtomicI64,
}

impl ClockService {
    /// Creates a clock at tick zero.
    pub fn new() -> Self {
        ClockService {
            ticks: AtomicI64::new(0),
        }
    }

    /// Installs the service's procedure nodes.
    pub fn install(
        monitor: &ReferenceMonitor,
        op_protection: impl Fn(&str) -> Protection,
    ) -> Result<(), MonitorError> {
        let prefix: NsPath = CLOCK_SERVICE.parse().expect("constant path");
        let procs = [
            ("now", op_protection("now")),
            ("ticks", op_protection("ticks")),
        ];
        install::install_procedures(monitor, &prefix, &procs)
    }

    /// Installs with every operation publicly executable.
    pub fn install_public(monitor: &ReferenceMonitor) -> Result<(), MonitorError> {
        Self::install(monitor, |_| install::public_procedure())
    }

    /// Advances and returns the logical time.
    pub fn now(&self) -> i64 {
        self.ticks.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Returns the current tick without advancing.
    pub fn ticks(&self) -> i64 {
        self.ticks.load(Ordering::Relaxed)
    }
}

impl Default for ClockService {
    fn default() -> Self {
        ClockService::new()
    }
}

impl Service for ClockService {
    fn name(&self) -> &str {
        "clock"
    }

    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        op: &str,
        _args: &[Value],
    ) -> Result<Option<Value>, ServiceError> {
        ctx.monitor
            .telemetry()
            .count(Counter::Service(ServiceKind::Clock));
        if let Some(fault) = extsec_faults::fire("svc.clock") {
            return Err(ServiceError::Failed(fault.to_string()));
        }
        match op {
            "now" => Ok(Some(Value::Int(self.now()))),
            "ticks" => Ok(Some(Value::Int(self.ticks()))),
            other => Err(ServiceError::NoSuchOperation(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_advance() {
        let clock = ClockService::new();
        assert_eq!(clock.ticks(), 0);
        assert_eq!(clock.now(), 1);
        assert_eq!(clock.now(), 2);
        assert_eq!(clock.ticks(), 2);
    }
}
