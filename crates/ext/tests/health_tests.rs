//! End-to-end tests of the extension health ledger: fault accounting,
//! quarantine, probation, and the dispatcher unrouting quarantined
//! specializations.

use extsec_acl::{AccessMode, Acl, AclEntry, ModeSet, PrincipalId};
use extsec_ext::{ExtError, ExtRuntime, ExtensionManifest, HealthConfig, HealthState, Origin};
use extsec_mac::{Lattice, SecurityClass};
use extsec_namespace::{NodeKind, NsPath, Protection};
use extsec_refmon::{ExtFault, MonitorBuilder, ReferenceMonitor, Subject};
use extsec_vm::{asm, Value};
use std::sync::Arc;
use std::time::Duration;

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

/// A module with a well-behaved export and a faulting one.
const FLAKY_SRC: &str = r#"
module flaky
func good() -> int
  push_int 7
  ret
end
func bad() -> int
  trap
end
export good = good
export bad = bad
"#;

struct Fixture {
    monitor: Arc<ReferenceMonitor>,
    runtime: Arc<ExtRuntime>,
    alice: PrincipalId,
}

fn fixture() -> Fixture {
    let lattice = Lattice::build(["low", "high"], ["c0"]).unwrap();
    let mut builder = MonitorBuilder::new(lattice);
    let alice = builder.add_principal("alice").unwrap();
    let monitor = builder.build();
    monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                Acl::public(ModeSet::only(AccessMode::List)),
                SecurityClass::bottom(),
            );
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
            })?;
            Ok(())
        })
        .unwrap();
    let runtime = ExtRuntime::new(Arc::clone(&monitor));
    // A tight, deterministic breaker: three faults in the window trip it.
    runtime.set_health_config(HealthConfig {
        fault_budget: 3,
        window: Duration::from_secs(60),
        cooldown: Duration::from_secs(5),
    });
    Fixture {
        monitor,
        runtime,
        alice,
    }
}

fn subject(f: &Fixture) -> Subject {
    Subject::new(
        f.alice,
        f.monitor.lattice(|l| l.parse_class("low").unwrap()),
    )
}

fn load_flaky(f: &Fixture) -> extsec_ext::ExtensionId {
    f.runtime
        .load(
            asm::assemble(FLAKY_SRC).unwrap(),
            ExtensionManifest {
                name: "flaky".into(),
                principal: f.alice,
                origin: Origin::Local,
                static_class: None,
            },
        )
        .unwrap()
}

/// Trips the breaker by running the faulting export `budget` times.
fn trip(f: &Fixture, id: extsec_ext::ExtensionId, subject: &Subject) {
    for _ in 0..3 {
        let e = f.runtime.run(id, "bad", &[], subject).unwrap_err();
        assert!(matches!(e, ExtError::Trap(_)), "got {e:?}");
    }
}

#[test]
fn breaker_trips_at_budget_and_refuses_dispatch() {
    let f = fixture();
    let id = load_flaky(&f);
    let alice = subject(&f);
    f.monitor.telemetry().set_enabled(true);
    f.monitor.audit().clear();

    // Under budget the extension still runs (both exports).
    assert_eq!(
        f.runtime.run(id, "good", &[], &alice).unwrap(),
        Some(Value::Int(7))
    );
    trip(&f, id, &alice);

    // The fourth dispatch is refused with a typed quarantine error —
    // even for the well-behaved export.
    let e = f.runtime.run(id, "good", &[], &alice).unwrap_err();
    match e {
        ExtError::Quarantined { id: qid, cause, .. } => {
            assert_eq!(qid, id);
            assert_eq!(cause, ExtFault::Trap);
        }
        other => panic!("expected Quarantined, got {other:?}"),
    }

    // `explain` names the quarantine and its cause.
    let report = f.runtime.explain_health(id);
    assert!(
        matches!(
            report.state,
            HealthState::Quarantined {
                cause: ExtFault::Trap,
                ..
            }
        ),
        "got {report}"
    );
    assert_eq!(report.trips, 1);
    assert_eq!(report.total_faults, 3);
    assert_eq!(f.runtime.health().quarantined(), vec![id]);

    // Both the trip and the refusal are audited under /ext/<id>.
    let events = f.monitor.audit().snapshot();
    let ext_path = p(&format!("/ext/{id}"));
    assert!(
        events.iter().any(|e| e.path == ext_path),
        "no quarantine audit event for {ext_path}"
    );

    // And the telemetry counters saw the faults and the quarantine.
    let metrics = f.monitor.metrics();
    assert_eq!(metrics.get("ext.quarantine.trips"), Some(1));
    assert!(metrics.get("ext.quarantine.denials").unwrap() >= 1);
    assert!(metrics.get("ext.fault.trap").unwrap() >= 3);
}

#[test]
fn probation_readmits_after_cooldown() {
    let f = fixture();
    let id = load_flaky(&f);
    let alice = subject(&f);
    trip(&f, id, &alice);
    assert!(matches!(
        f.runtime.run(id, "good", &[], &alice),
        Err(ExtError::Quarantined { .. })
    ));

    // Before the cooldown elapses the refusal stands.
    f.runtime.health().advance(Duration::from_secs(2));
    assert!(matches!(
        f.runtime.run(id, "good", &[], &alice),
        Err(ExtError::Quarantined { .. })
    ));

    // After it, one trial dispatch is admitted; success closes the
    // breaker and the extension is healthy again.
    f.runtime.health().advance(Duration::from_secs(4));
    assert_eq!(
        f.runtime.run(id, "good", &[], &alice).unwrap(),
        Some(Value::Int(7))
    );
    assert_eq!(f.runtime.explain_health(id).state, HealthState::Healthy);
    assert!(f.runtime.health().quarantined().is_empty());
    assert_eq!(
        f.runtime.run(id, "good", &[], &alice).unwrap(),
        Some(Value::Int(7))
    );
}

#[test]
fn faulting_probation_trial_requarantines() {
    let f = fixture();
    let id = load_flaky(&f);
    let alice = subject(&f);
    trip(&f, id, &alice);
    f.runtime.health().advance(Duration::from_secs(6));

    // The trial dispatch faults: straight back to quarantine.
    let e = f.runtime.run(id, "bad", &[], &alice).unwrap_err();
    assert!(matches!(e, ExtError::Trap(_)), "got {e:?}");
    let e = f.runtime.run(id, "good", &[], &alice).unwrap_err();
    assert!(matches!(e, ExtError::Quarantined { .. }), "got {e:?}");
    assert_eq!(f.runtime.explain_health(id).trips, 2);
}

#[test]
fn quarantine_unroutes_specializations() {
    let f = fixture();
    let id = load_flaky(&f);
    let alice = subject(&f);
    f.runtime
        .extend(id, &p("/svc/iface/handler"), "good")
        .unwrap();

    // Routed while healthy.
    assert_eq!(
        f.runtime
            .call(&alice, &p("/svc/iface/handler"), &[])
            .unwrap(),
        Some(Value::Int(7))
    );

    // Tripped via direct runs; the specialization stays registered but
    // is no longer routed — with no base service mounted, the call now
    // falls through to NoService instead of reaching quarantined code.
    trip(&f, id, &alice);
    assert_eq!(f.runtime.registrations_on(&p("/svc/iface/handler")), 1);
    let e = f
        .runtime
        .call(&alice, &p("/svc/iface/handler"), &[])
        .unwrap_err();
    assert_eq!(e, ExtError::NoService(p("/svc/iface/handler")));

    // After probation readmits it, routing resumes.
    f.runtime.health().advance(Duration::from_secs(6));
    assert_eq!(
        f.runtime
            .call(&alice, &p("/svc/iface/handler"), &[])
            .unwrap(),
        Some(Value::Int(7))
    );
}

#[test]
fn fuel_exhaustion_counts_as_fault() {
    let f = fixture();
    let alice = subject(&f);
    let spin = r#"
module spinner
func spin() -> int
  push_int 0
  label loop
  push_int 1
  add
  jump loop
end
export spin = spin
"#;
    let id = f
        .runtime
        .load(
            asm::assemble(spin).unwrap(),
            ExtensionManifest {
                name: "spinner".into(),
                principal: f.alice,
                origin: Origin::Local,
                static_class: None,
            },
        )
        .unwrap();
    for _ in 0..3 {
        let e = f.runtime.run(id, "spin", &[], &alice).unwrap_err();
        assert!(
            matches!(e, ExtError::Trap(extsec_vm::Trap::OutOfFuel)),
            "got {e:?}"
        );
    }
    let e = f.runtime.run(id, "spin", &[], &alice).unwrap_err();
    match e {
        ExtError::Quarantined { cause, .. } => assert_eq!(cause, ExtFault::Fuel),
        other => panic!("expected Quarantined, got {other:?}"),
    }
}

#[test]
fn unload_forgets_health_state() {
    let f = fixture();
    let id = load_flaky(&f);
    let alice = subject(&f);
    trip(&f, id, &alice);
    assert_eq!(f.runtime.health().quarantined(), vec![id]);
    f.runtime.unload(id).unwrap();
    assert!(f.runtime.health().quarantined().is_empty());
}
