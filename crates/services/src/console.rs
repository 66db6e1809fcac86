//! The console (append-only output) service.
//!
//! Operations (mounted at `/svc/console`): `print(line)`,
//! `lines() -> int`. Output is retained in memory for tests and examples
//! ([`ConsoleService::take_output`]). Each line is tagged with the
//! printing principal so examples can show interleaved output.

use crate::install;
use extsec_acl::PrincipalId;
use extsec_ext::{CallCtx, Service, ServiceError};
use extsec_namespace::{NsPath, Protection};
use extsec_refmon::{Counter, MonitorError, ReferenceMonitor, ServiceKind};
use extsec_vm::Value;
use parking_lot::Mutex;

/// The service mount prefix.
pub const CONSOLE_SERVICE: &str = "/svc/console";

/// The console service.
pub struct ConsoleService {
    lines: Mutex<Vec<(PrincipalId, String)>>,
    echo_to_stdout: bool,
}

impl ConsoleService {
    /// Creates a console that retains output silently.
    pub fn new() -> Self {
        ConsoleService {
            lines: Mutex::new(Vec::new()),
            echo_to_stdout: false,
        }
    }

    /// Creates a console that also echoes to the process stdout (used by
    /// the runnable examples).
    pub fn echoing() -> Self {
        ConsoleService {
            lines: Mutex::new(Vec::new()),
            echo_to_stdout: true,
        }
    }

    /// Installs the service's procedure nodes.
    pub fn install(
        monitor: &ReferenceMonitor,
        op_protection: impl Fn(&str) -> Protection,
    ) -> Result<(), MonitorError> {
        let prefix: NsPath = CONSOLE_SERVICE.parse().expect("constant path");
        let procs = [
            ("print", op_protection("print")),
            ("lines", op_protection("lines")),
        ];
        install::install_procedures(monitor, &prefix, &procs)
    }

    /// Installs with every operation publicly executable.
    pub fn install_public(monitor: &ReferenceMonitor) -> Result<(), MonitorError> {
        Self::install(monitor, |_| install::public_procedure())
    }

    /// Appends a line.
    pub fn print(&self, who: PrincipalId, line: &str) {
        if self.echo_to_stdout {
            println!("[{who}] {line}");
        }
        self.lines.lock().push((who, line.to_string()));
    }

    /// Returns and clears the retained output.
    pub fn take_output(&self) -> Vec<(PrincipalId, String)> {
        std::mem::take(&mut self.lines.lock())
    }

    /// Returns the number of retained lines.
    pub fn len(&self) -> usize {
        self.lines.lock().len()
    }

    /// Returns whether no lines are retained.
    pub fn is_empty(&self) -> bool {
        self.lines.lock().is_empty()
    }
}

impl Default for ConsoleService {
    fn default() -> Self {
        ConsoleService::new()
    }
}

impl Service for ConsoleService {
    fn name(&self) -> &str {
        "console"
    }

    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        op: &str,
        args: &[Value],
    ) -> Result<Option<Value>, ServiceError> {
        ctx.monitor
            .telemetry()
            .count(Counter::Service(ServiceKind::Console));
        if let Some(fault) = extsec_faults::fire("svc.console") {
            return Err(ServiceError::Failed(fault.to_string()));
        }
        match op {
            "print" => {
                let line = args
                    .first()
                    .and_then(Value::as_str)
                    .ok_or_else(|| ServiceError::BadArgs("print takes a string".into()))?;
                self.print(ctx.subject.principal, line);
                Ok(None)
            }
            "lines" => Ok(Some(Value::Int(self.len() as i64))),
            other => Err(ServiceError::NoSuchOperation(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_and_take() {
        let console = ConsoleService::new();
        console.print(PrincipalId::from_raw(1), "hello");
        console.print(PrincipalId::from_raw(2), "world");
        assert_eq!(console.len(), 2);
        let out = console.take_output();
        assert_eq!(out[0], (PrincipalId::from_raw(1), "hello".to_string()));
        assert!(console.is_empty());
    }
}
