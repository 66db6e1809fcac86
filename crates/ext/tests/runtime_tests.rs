//! End-to-end tests of the extension runtime: linking, gate crossings,
//! extend registration, and class-aware dispatch.

use extsec_acl::{AccessMode, Acl, AclEntry, ModeSet, PrincipalId};
use extsec_ext::{CallCtx, ExtError, ExtRuntime, ExtensionManifest, Origin, Service, ServiceError};
use extsec_mac::{Lattice, SecurityClass};
use extsec_namespace::{NodeKind, NsPath, Protection};
use extsec_refmon::{DenyReason, MonitorBuilder, MonitorError, ReferenceMonitor, Subject};
use extsec_vm::{asm, Value};
use std::sync::Arc;

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

/// A trivial service: `echo` returns its argument, `add` adds two ints,
/// `fail` always errors.
struct EchoService;

impl Service for EchoService {
    fn name(&self) -> &str {
        "echo"
    }

    fn invoke(
        &self,
        _ctx: &CallCtx<'_>,
        op: &str,
        args: &[Value],
    ) -> Result<Option<Value>, ServiceError> {
        match op {
            "echo" => Ok(args.first().cloned()),
            "add" => {
                let a = args[0]
                    .as_int()
                    .ok_or_else(|| ServiceError::BadArgs("int".into()))?;
                let b = args[1]
                    .as_int()
                    .ok_or_else(|| ServiceError::BadArgs("int".into()))?;
                Ok(Some(Value::Int(a + b)))
            }
            "fail" => Err(ServiceError::Failed("deliberate".into())),
            other => Err(ServiceError::NoSuchOperation(other.to_string())),
        }
    }
}

struct Fixture {
    monitor: Arc<ReferenceMonitor>,
    runtime: Arc<ExtRuntime>,
    alice: PrincipalId,
    bob: PrincipalId,
}

/// Lattice low < high; /svc/echo/{echo,add,fail} mounted, executable by
/// alice only; /svc/iface/handler is an extensible procedure alice may
/// extend.
fn fixture() -> Fixture {
    let lattice = Lattice::build(["low", "high"], ["c0"]).unwrap();
    let mut builder = MonitorBuilder::new(lattice);
    let alice = builder.add_principal("alice").unwrap();
    let bob = builder.add_principal("bob").unwrap();
    let monitor = builder.build();

    monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                Acl::public(ModeSet::only(AccessMode::List)),
                SecurityClass::bottom(),
            );
            ns.ensure_path(&p("/svc/echo"), NodeKind::Domain, &visible)?;
            for op in ["echo", "add", "fail"] {
                let id = ns.insert(
                    &p("/svc/echo"),
                    op,
                    NodeKind::Procedure,
                    Protection::default(),
                )?;
                ns.update_protection(id, |prot| {
                    prot.acl
                        .push(AclEntry::allow_principal(alice, AccessMode::Execute));
                })?;
            }
            ns.ensure_path(&p("/svc/iface"), NodeKind::Interface, &visible)?;
            let handler = ns.insert(
                &p("/svc/iface"),
                "handler",
                NodeKind::Procedure,
                Protection::default(),
            )?;
            ns.set_extensible(handler, true)?;
            ns.update_protection(handler, |prot| {
                prot.acl.push(AclEntry::allow_principal_modes(
                    alice,
                    ModeSet::of(&[AccessMode::Execute, AccessMode::Extend]),
                ));
                prot.acl
                    .push(AclEntry::allow_principal(bob, AccessMode::Execute));
            })?;
            Ok(())
        })
        .unwrap();

    let runtime = ExtRuntime::new(Arc::clone(&monitor));
    runtime.mount_service(p("/svc/echo"), Arc::new(EchoService));
    Fixture {
        monitor,
        runtime,
        alice,
        bob,
    }
}

fn low(f: &Fixture, principal: PrincipalId) -> Subject {
    Subject::new(
        principal,
        f.monitor.lattice(|l| l.parse_class("low").unwrap()),
    )
}

fn manifest(_f: &Fixture, principal: PrincipalId) -> ExtensionManifest {
    ExtensionManifest {
        name: "test-ext".into(),
        principal,
        origin: Origin::Local,
        static_class: None,
    }
}

const CALLER_SRC: &str = r#"
module caller
import add = "/svc/echo/add" (int, int) -> int
func main(x: int) -> int
  load_local x
  push_int 2
  syscall add
  ret
end
export main = main
"#;

#[test]
fn direct_service_call_through_monitor() {
    let f = fixture();
    let alice = low(&f, f.alice);
    let r = f
        .runtime
        .call(
            &alice,
            &p("/svc/echo/add"),
            &[Value::Int(40), Value::Int(2)],
        )
        .unwrap();
    assert_eq!(r, Some(Value::Int(42)));
    // Bob holds no execute right on the echo service.
    let bob = low(&f, f.bob);
    let e = f
        .runtime
        .call(&bob, &p("/svc/echo/add"), &[Value::Int(1), Value::Int(2)])
        .unwrap_err();
    assert_eq!(
        e,
        ExtError::Monitor(MonitorError::Denied(DenyReason::DacNoEntry))
    );
}

#[test]
fn extension_syscall_gates_work() {
    let f = fixture();
    let id = f
        .runtime
        .load(asm::assemble(CALLER_SRC).unwrap(), manifest(&f, f.alice))
        .unwrap();
    let alice = low(&f, f.alice);
    let r = f
        .runtime
        .run(id, "main", &[Value::Int(40)], &alice)
        .unwrap();
    assert_eq!(r, Some(Value::Int(42)));
}

#[test]
fn link_time_check_rejects_unauthorized_imports() {
    let f = fixture();
    // Bob has no execute right on /svc/echo/add.
    let e = f
        .runtime
        .load(asm::assemble(CALLER_SRC).unwrap(), manifest(&f, f.bob))
        .unwrap_err();
    assert_eq!(
        e,
        ExtError::LinkDenied {
            alias: "add".into(),
            path: "/svc/echo/add".into(),
        }
    );
}

#[test]
fn link_time_check_rejects_missing_imports() {
    let f = fixture();
    let src = r#"
module ghost
import nope = "/svc/ghost/run" ()
func main()
  syscall nope
  ret
end
export main = main
"#;
    let e = f
        .runtime
        .load(asm::assemble(src).unwrap(), manifest(&f, f.alice))
        .unwrap_err();
    assert!(matches!(e, ExtError::LinkDenied { .. }));
}

#[test]
fn call_time_check_rechecks_acl_changes() {
    let f = fixture();
    let id = f
        .runtime
        .load(asm::assemble(CALLER_SRC).unwrap(), manifest(&f, f.alice))
        .unwrap();
    let alice = low(&f, f.alice);
    assert!(f.runtime.run(id, "main", &[Value::Int(1)], &alice).is_ok());
    // Revoke alice's execute right after linking: calls must now fail.
    f.monitor
        .bootstrap(|ns| {
            let nid = ns.resolve(&p("/svc/echo/add"))?;
            ns.update_protection(nid, |prot| prot.acl = Acl::new())?;
            Ok(())
        })
        .unwrap();
    let e = f
        .runtime
        .run(id, "main", &[Value::Int(1)], &alice)
        .unwrap_err();
    assert!(matches!(e, ExtError::Trap(_)), "got {e:?}");
}

#[test]
fn extend_requires_extensible_node_and_extend_mode() {
    let f = fixture();
    let handler_src = r#"
module handler
func handle(x: int) -> int
  load_local x
  neg
  ret
end
export handle = handle
"#;
    let id = f
        .runtime
        .load(asm::assemble(handler_src).unwrap(), manifest(&f, f.alice))
        .unwrap();
    // /svc/echo/add is not extensible.
    let e = f
        .runtime
        .extend(id, &p("/svc/echo/add"), "handle")
        .unwrap_err();
    assert_eq!(e, ExtError::NotExtensible(p("/svc/echo/add")));
    // /svc/iface/handler is, and alice holds extend.
    f.runtime
        .extend(id, &p("/svc/iface/handler"), "handle")
        .unwrap();
    assert_eq!(f.runtime.registrations_on(&p("/svc/iface/handler")), 1);
    // Bob-owned extension may not extend it.
    let id_bob = f
        .runtime
        .load(asm::assemble(handler_src).unwrap(), manifest(&f, f.bob))
        .unwrap();
    let e = f
        .runtime
        .extend(id_bob, &p("/svc/iface/handler"), "handle")
        .unwrap_err();
    assert_eq!(
        e,
        ExtError::Monitor(MonitorError::Denied(DenyReason::DacNoEntry))
    );
    // Unknown export.
    let e = f
        .runtime
        .extend(id, &p("/svc/iface/handler"), "ghost")
        .unwrap_err();
    assert_eq!(e, ExtError::NoSuchExport("ghost".into()));
}

#[test]
fn dispatch_routes_calls_to_registered_specialization() {
    let f = fixture();
    let handler_src = r#"
module handler
func handle(x: int) -> int
  load_local x
  push_int 100
  add
  ret
end
export handle = handle
"#;
    let id = f
        .runtime
        .load(asm::assemble(handler_src).unwrap(), manifest(&f, f.alice))
        .unwrap();
    f.runtime
        .extend(id, &p("/svc/iface/handler"), "handle")
        .unwrap();
    let alice = low(&f, f.alice);
    let r = f
        .runtime
        .call(&alice, &p("/svc/iface/handler"), &[Value::Int(1)])
        .unwrap();
    assert_eq!(r, Some(Value::Int(101)));
    // Bob can execute the interface too — dispatch picks the same
    // bottom-classed handler.
    let bob = low(&f, f.bob);
    let r = f
        .runtime
        .call(&bob, &p("/svc/iface/handler"), &[Value::Int(2)])
        .unwrap();
    assert_eq!(r, Some(Value::Int(102)));
}

#[test]
fn class_based_dispatch_selects_by_caller() {
    let f = fixture();
    let low_class = f.monitor.lattice(|l| l.parse_class("low").unwrap());
    let high_class = f.monitor.lattice(|l| l.parse_class("high").unwrap());
    let make = |tag: i64| {
        format!(
            r#"
module handler{tag}
func handle(x: int) -> int
  push_int {tag}
  ret
end
export handle = handle
"#
        )
    };
    let mut m_low = manifest(&f, f.alice);
    m_low.static_class = Some(low_class.clone());
    let id_low = f
        .runtime
        .load(asm::assemble(&make(1)).unwrap(), m_low)
        .unwrap();
    let mut m_high = manifest(&f, f.alice);
    m_high.static_class = Some(high_class.clone());
    let id_high = f
        .runtime
        .load(asm::assemble(&make(2)).unwrap(), m_high)
        .unwrap();
    f.runtime
        .extend(id_low, &p("/svc/iface/handler"), "handle")
        .unwrap();
    f.runtime
        .extend(id_high, &p("/svc/iface/handler"), "handle")
        .unwrap();

    // A low caller sees the low handler; a high caller the high one.
    let alice_low = Subject::new(f.alice, low_class);
    let alice_high = Subject::new(f.alice, high_class);
    let r = f
        .runtime
        .call(&alice_low, &p("/svc/iface/handler"), &[Value::Int(0)])
        .unwrap();
    assert_eq!(r, Some(Value::Int(1)));
    let r = f
        .runtime
        .call(&alice_high, &p("/svc/iface/handler"), &[Value::Int(0)])
        .unwrap();
    assert_eq!(r, Some(Value::Int(2)));
}

#[test]
fn static_class_caps_effective_subject() {
    let f = fixture();
    // An extension statically classed low importing a high-labelled
    // service node: even a high caller cannot observe it through the
    // extension.
    let high_class = f.monitor.lattice(|l| l.parse_class("high").unwrap());
    let src = r#"
module snoop
import probe = "/svc/echo/echo" (str) -> str
func main() -> str
  push_str "secret?"
  syscall probe
  ret
end
export main = main
"#;
    // Statically low extension; load (and link-check) while the node is
    // still low-labelled, then raise the label.
    let low_class = f.monitor.lattice(|l| l.parse_class("low").unwrap());
    let mut m = manifest(&f, f.alice);
    m.static_class = Some(low_class);
    let id = f.runtime.load(asm::assemble(src).unwrap(), m).unwrap();
    f.monitor
        .bootstrap(|ns| {
            let nid = ns.resolve(&p("/svc/echo/echo"))?;
            ns.update_protection(nid, |prot| prot.label = high_class.clone())?;
            Ok(())
        })
        .unwrap();
    let alice_high = Subject::new(f.alice, high_class);
    // Directly, alice@high could read the node; through the low-capped
    // extension the MAC observe check fails.
    let e = f.runtime.run(id, "main", &[], &alice_high).unwrap_err();
    assert!(matches!(e, ExtError::Trap(_)), "got {e:?}");
}

#[test]
fn unload_removes_registrations() {
    let f = fixture();
    let handler_src = r#"
module handler
func handle(x: int) -> int
  push_int 5
  ret
end
export handle = handle
"#;
    let id = f
        .runtime
        .load(asm::assemble(handler_src).unwrap(), manifest(&f, f.alice))
        .unwrap();
    f.runtime
        .extend(id, &p("/svc/iface/handler"), "handle")
        .unwrap();
    f.runtime.unload(id).unwrap();
    assert_eq!(f.runtime.registrations_on(&p("/svc/iface/handler")), 0);
    assert!(matches!(
        f.runtime.extension(id),
        Err(ExtError::NoSuchExtension(_))
    ));
    assert!(matches!(
        f.runtime.unload(id),
        Err(ExtError::NoSuchExtension(_))
    ));
    // Calls to the interface now fall through... and find no base
    // service mounted at /svc/iface.
    let alice = low(&f, f.alice);
    let e = f
        .runtime
        .call(&alice, &p("/svc/iface/handler"), &[Value::Int(1)])
        .unwrap_err();
    assert_eq!(e, ExtError::NoService(p("/svc/iface/handler")));
}

#[test]
fn no_service_mounted() {
    let f = fixture();
    let alice = low(&f, f.alice);
    // Create an executable node outside any mount.
    f.monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                Acl::public(ModeSet::of(&[AccessMode::List, AccessMode::Execute])),
                SecurityClass::bottom(),
            );
            ns.ensure_path(&p("/svc/lonely/op"), NodeKind::Domain, &visible)?;
            Ok(())
        })
        .unwrap();
    let e = f
        .runtime
        .call(&alice, &p("/svc/lonely/op"), &[])
        .unwrap_err();
    assert_eq!(e, ExtError::NoService(p("/svc/lonely/op")));
}

#[test]
fn verification_failures_surface_at_load() {
    let f = fixture();
    let mut module = asm::assemble(CALLER_SRC).unwrap();
    // Corrupt the code: jump out of bounds.
    module.functions[0].code[0] = extsec_vm::Instr::Jump(999);
    let e = f.runtime.load(module, manifest(&f, f.alice)).unwrap_err();
    assert!(matches!(e, ExtError::Verify(_)));
}

#[test]
fn service_errors_propagate() {
    let f = fixture();
    let alice = low(&f, f.alice);
    let e = f
        .runtime
        .call(&alice, &p("/svc/echo/fail"), &[])
        .unwrap_err();
    assert_eq!(
        e,
        ExtError::Service(ServiceError::Failed("deliberate".into()))
    );
}

#[test]
fn audit_sees_gate_crossings() {
    let f = fixture();
    f.monitor.audit().clear();
    let id = f
        .runtime
        .load(asm::assemble(CALLER_SRC).unwrap(), manifest(&f, f.alice))
        .unwrap();
    let alice = low(&f, f.alice);
    f.runtime.run(id, "main", &[Value::Int(1)], &alice).unwrap();
    // The syscall gate produced an execute check on /svc/echo/add.
    let events = f.monitor.audit().events();
    assert!(events
        .iter()
        .any(|e| e.path == p("/svc/echo/add") && e.mode == AccessMode::Execute));
}
