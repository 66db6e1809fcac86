//! End-to-end tests of bounded, preemptible extension execution: the
//! per-execution memory budget and the epoch preemption deadline, both
//! independent of fuel, both feeding the health ledger and quarantine,
//! both audited under `/ext/<id>`.

use extsec_acl::{AccessMode, Acl, AclEntry, ModeSet, PrincipalId};
use extsec_ext::{ExtError, ExtRuntime, ExtensionManifest, HealthConfig, HealthState, Origin};
use extsec_mac::{Lattice, SecurityClass};
use extsec_namespace::{NodeKind, NsPath, Protection};
use extsec_refmon::{ExtFault, MonitorBuilder, ReferenceMonitor, Subject};
use extsec_vm::{asm, verify, EpochClock, EpochTicker, Machine, MachineLimits, NullHost, Trap};
use std::hint::black_box;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

/// Serializes every test in this binary: the injected tests install
/// process-global fault plans, so nothing else may run concurrently.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// An extension that loops forever without growing memory: only fuel or
/// the epoch deadline can stop it.
const SPIN_SRC: &str = r#"
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

/// An extension that doubles a string every iteration: its accounted
/// footprint grows geometrically until the byte budget cuts it off.
const HOG_SRC: &str = r#"
module hog
func hog() -> int
  locals s: str
  push_str "abcdefgh"
  store_local s
  label grow
  load_local s
  load_local s
  concat
  store_local s
  jump grow
end
export hog = hog
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

fn load(f: &Fixture, name: &str, src: &str) -> extsec_ext::ExtensionId {
    f.runtime
        .load(
            asm::assemble(src).unwrap(),
            ExtensionManifest {
                name: name.into(),
                principal: f.alice,
                origin: Origin::Local,
                static_class: None,
            },
        )
        .unwrap()
}

#[test]
fn memory_hog_is_stopped_by_byte_budget_and_quarantined() {
    let _guard = exclusive();
    let f = fixture();
    let alice = subject(&f);
    f.monitor.telemetry().set_enabled(true);
    f.monitor.audit().clear();
    let id = load(&f, "hog", HOG_SRC);

    // Fuel is effectively unbounded: only the byte budget can stop it.
    f.runtime.set_machine_limits(MachineLimits {
        fuel: u64::MAX / 2,
        memory_bytes: 16 * 1024,
        ..MachineLimits::default()
    });

    for _ in 0..3 {
        let e = f.runtime.run(id, "hog", &[], &alice).unwrap_err();
        assert!(matches!(e, ExtError::Trap(Trap::OutOfMemory)), "got {e:?}");
    }

    // Three memory kills trip the breaker; the cause is typed.
    let e = f.runtime.run(id, "hog", &[], &alice).unwrap_err();
    match e {
        ExtError::Quarantined { id: qid, cause, .. } => {
            assert_eq!(qid, id);
            assert_eq!(cause, ExtFault::Memory);
        }
        other => panic!("expected Quarantined, got {other:?}"),
    }
    assert!(matches!(
        f.runtime.health_state(id),
        HealthState::Quarantined {
            cause: ExtFault::Memory,
            ..
        }
    ));

    // Every kill left a "resource kill" audit record under /ext/<id>.
    let ext_path = p(&format!("/ext/{id}"));
    let events = f.monitor.audit().snapshot();
    let kills = events
        .iter()
        .filter(|e| e.path == ext_path && format!("{:?}", e.decision).contains("resource kill"))
        .count();
    assert!(
        kills >= 3,
        "expected >=3 resource-kill records, got {kills}"
    );

    // Telemetry counted the typed faults.
    let metrics = f.monitor.metrics();
    assert!(metrics.get("ext.fault.memory").unwrap() >= 3);
    assert_eq!(metrics.get("ext.quarantine.trips"), Some(1));
}

#[test]
fn infinite_loop_with_huge_fuel_is_preempted_and_quarantined() {
    let _guard = exclusive();
    let f = fixture();
    let alice = subject(&f);
    f.monitor.telemetry().set_enabled(true);
    f.monitor.audit().clear();
    let id = load(&f, "spinner", SPIN_SRC);

    // Arbitrarily large fuel budget: fuel alone would let the loop run
    // for eons. The epoch deadline is the bound that actually fires.
    f.runtime.set_machine_limits(MachineLimits {
        fuel: u64::MAX / 2,
        epoch_check_interval: 64,
        ..MachineLimits::default()
    });
    f.runtime.set_epoch_slice(2);
    let _ticker = EpochTicker::spawn(f.runtime.epoch().clone(), Duration::from_millis(1));

    for _ in 0..3 {
        let e = f.runtime.run(id, "spin", &[], &alice).unwrap_err();
        assert!(matches!(e, ExtError::Trap(Trap::Preempted)), "got {e:?}");
    }

    let e = f.runtime.run(id, "spin", &[], &alice).unwrap_err();
    match e {
        ExtError::Quarantined { cause, .. } => assert_eq!(cause, ExtFault::Preempted),
        other => panic!("expected Quarantined, got {other:?}"),
    }

    let ext_path = p(&format!("/ext/{id}"));
    let events = f.monitor.audit().snapshot();
    assert!(
        events.iter().any(|e| e.path == ext_path
            && format!("{:?}", e.decision).contains("resource kill: preempted")),
        "no preemption resource-kill audit record under {ext_path}"
    );
    let metrics = f.monitor.metrics();
    assert!(metrics.get("ext.fault.preempted").unwrap() >= 3);
}

#[test]
fn epoch_slice_zero_leaves_execution_unpreempted() {
    let _guard = exclusive();
    let f = fixture();
    let alice = subject(&f);
    let id = load(&f, "spinner", SPIN_SRC);

    // Preemption off (the default): the spinner is stopped by fuel, as
    // before this feature existed. The ticker running is irrelevant.
    let _ticker = EpochTicker::spawn(f.runtime.epoch().clone(), Duration::from_millis(1));
    let e = f.runtime.run(id, "spin", &[], &alice).unwrap_err();
    assert!(matches!(e, ExtError::Trap(Trap::OutOfFuel)), "got {e:?}");
}

#[test]
fn resource_kills_never_grant_and_probation_readmits() {
    let _guard = exclusive();
    let f = fixture();
    let alice = subject(&f);
    let id = load(&f, "hog", HOG_SRC);
    f.runtime
        .extend(id, &p("/svc/iface/handler"), "hog")
        .unwrap();
    f.runtime.set_machine_limits(MachineLimits {
        memory_bytes: 16 * 1024,
        ..MachineLimits::default()
    });

    // Dispatch through the interface: the kill surfaces as a trap, never
    // as a successful (granting) call.
    for _ in 0..3 {
        let e = f
            .runtime
            .call(&alice, &p("/svc/iface/handler"), &[])
            .unwrap_err();
        assert!(matches!(e, ExtError::Trap(Trap::OutOfMemory)), "got {e:?}");
    }

    // Quarantined: the specialization is unrouted (fail closed).
    let e = f
        .runtime
        .call(&alice, &p("/svc/iface/handler"), &[])
        .unwrap_err();
    assert_eq!(e, ExtError::NoService(p("/svc/iface/handler")));

    // Probation after cooldown readmits one trial, which faults again
    // and goes straight back to quarantine.
    f.runtime.health().advance(Duration::from_secs(6));
    let e = f.runtime.run(id, "hog", &[], &alice).unwrap_err();
    assert!(matches!(e, ExtError::Trap(Trap::OutOfMemory)), "got {e:?}");
    assert!(matches!(
        f.runtime.health_state(id),
        HealthState::Quarantined {
            cause: ExtFault::Memory,
            ..
        }
    ));
    assert_eq!(f.runtime.explain_health(id).trips, 2);
}

/// A module with a well-behaved export and a faulting one — the
/// quarantine-churn workload.
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

/// About 40k instructions of loop and arithmetic: the workload of the
/// limits-on/off interpreter line.
const SPIN_40K_SRC: &str = r#"
module spin
func main() -> int
  locals i: int
  push_int 0
  store_local i
  label loop
  load_local i
  push_int 1
  add
  store_local i
  load_local i
  push_int 5000
  lt
  jump_if loop
  load_local i
  ret
end
export main = main
"#;

/// Routed calls per timed loop of the printed churn row.
const CALLS: u32 = 200;

/// Mean µs of one routed `call`, each answered by a healthy `good`,
/// timed after one untimed call.
fn routed_call_us(f: &Fixture, alice: &Subject, path: &NsPath) -> f64 {
    assert_eq!(
        f.runtime.call(alice, path, &[]).unwrap(),
        Some(extsec_vm::Value::Int(7))
    );
    let start = Instant::now();
    for _ in 0..CALLS {
        assert_eq!(
            f.runtime.call(alice, path, &[]).unwrap(),
            Some(extsec_vm::Value::Int(7))
        );
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS)
}

/// Prints µs per run of the same program on one machine with the epoch
/// deadline and byte budget unarmed, then armed (live ticker, deadline
/// never reached). Both legs get an inexhaustible fuel tank, since fuel
/// accrues across runs of a reused machine.
fn print_interpreter_line(runs: u32) {
    let verified = verify(asm::assemble(SPIN_40K_SRC).unwrap()).unwrap();
    let time_runs = |machine: &mut Machine| {
        let start = Instant::now();
        for _ in 0..runs {
            black_box(machine.run("main", &[], &mut NullHost).unwrap());
        }
        start.elapsed().as_secs_f64() * 1e6 / f64::from(runs)
    };
    let mut off = Machine::with_limits(
        &verified,
        MachineLimits {
            fuel: u64::MAX / 2,
            memory_bytes: u64::MAX / 2,
            ..MachineLimits::default()
        },
    );
    let off_us = time_runs(&mut off);
    let clock = EpochClock::new();
    let _ticker = EpochTicker::spawn(clock.clone(), Duration::from_millis(1));
    let mut on = Machine::with_limits(
        &verified,
        MachineLimits {
            fuel: u64::MAX / 2,
            memory_bytes: 64 * 1024,
            epoch_check_interval: 128,
            ..MachineLimits::default()
        },
    );
    on.set_epoch(clock, u64::MAX);
    let on_us = time_runs(&mut on);
    println!(
        "interpreter ({runs} runs of ~40k instructions): limits off {off_us:.1} µs/run, \
         limits on {on_us:.1} µs/run ({:+.1}%)",
        (on_us / off_us - 1.0) * 100.0
    );
}

/// Quarantine churn at scale with limits enabled: `n` installed
/// extensions, a seventh of them registered on one interface, a third
/// of them tripped into quarantine — dispatch must keep routing the
/// earliest healthy specialization, the allocation-light ledger
/// accessors must agree with the full report, and probation must
/// readmit after the cooldown. Prints one row of timings for the
/// population (install, routed call before and after the churn, trips,
/// `quarantined_count`) and the limits-on/off interpreter line.
fn churn_at_scale(n: usize) {
    let _guard = exclusive();
    let f = fixture();
    let alice = subject(&f);
    // Limits on: a finite byte budget and an (unreachable for these
    // short programs) epoch deadline, exactly the release-leg shape.
    f.runtime.set_machine_limits(MachineLimits {
        memory_bytes: 32 * 1024,
        ..MachineLimits::default()
    });
    f.runtime.set_epoch_slice(1_000_000);
    let _ticker = EpochTicker::spawn(f.runtime.epoch().clone(), Duration::from_millis(1));

    let install = Instant::now();
    let ids: Vec<_> = (0..n)
        .map(|i| load(&f, &format!("e{i}"), FLAKY_SRC))
        .collect();
    let path = p("/svc/iface/handler");
    for id in ids.iter().step_by(7) {
        f.runtime.extend(*id, &path, "good").unwrap();
    }
    let install = install.elapsed();
    let healthy_us = routed_call_us(&f, &alice, &path);

    // Trip every third extension (fault budget 3).
    let churn = Instant::now();
    for id in ids.iter().step_by(3) {
        for _ in 0..3 {
            let e = f.runtime.run(*id, "bad", &[], &alice).unwrap_err();
            assert!(matches!(e, ExtError::Trap(_)), "got {e:?}");
        }
    }
    let churn = churn.elapsed();
    let expected = ids.iter().step_by(3).count();
    let qcount = Instant::now();
    for _ in 0..CALLS {
        assert_eq!(black_box(f.runtime.health().quarantined_count()), expected);
    }
    let qcount_ns = qcount.elapsed().as_secs_f64() * 1e9 / f64::from(CALLS);
    assert_eq!(f.runtime.health().quarantined().len(), expected);
    for (i, id) in ids.iter().enumerate() {
        let state = f.runtime.health_state(*id);
        if i % 3 == 0 {
            assert!(
                matches!(state, HealthState::Quarantined { .. }),
                "extension {i} should be quarantined, is {state:?}"
            );
        } else {
            assert_eq!(state, HealthState::Healthy, "extension {i}");
        }
    }

    // ids[0] is registered AND quarantined, so it is unrouted; the call
    // falls through to the earliest still-healthy registration (ids[7]).
    let churned_us = routed_call_us(&f, &alice, &path);
    println!(
        "churn: {n} installed in {install:.2?}, healthy call {healthy_us:.2} µs, \
         {:.0} trips/s, churned call {churned_us:.2} µs, quarantined_count {qcount_ns:.0} ns",
        (3 * expected) as f64 / churn.as_secs_f64()
    );
    print_interpreter_line(20);

    // Cooldown over: a probation trial on the good export readmits.
    f.runtime.health().advance(Duration::from_secs(6));
    assert_eq!(
        f.runtime.run(ids[0], "good", &[], &alice).unwrap(),
        Some(extsec_vm::Value::Int(7))
    );
    assert_eq!(f.runtime.health_state(ids[0]), HealthState::Healthy);
    assert_eq!(f.runtime.health().quarantined_count(), expected - 1);
}

#[test]
fn quarantine_churn_at_one_thousand_extensions() {
    churn_at_scale(1_000);
}

/// The CI release-leg configuration. Opt in with
/// `EXTSEC_EXT_SCALE_FULL=1 cargo test --release -p extsec-ext --test
/// resource_bounds ten_thousand -- --nocapture`.
#[test]
fn quarantine_churn_at_ten_thousand_extensions() {
    if std::env::var("EXTSEC_EXT_SCALE_FULL").is_err() {
        eprintln!("set EXTSEC_EXT_SCALE_FULL=1 to run the 10k-extension churn test");
        return;
    }
    churn_at_scale(10_000);
}

/// Fault-injection tests: the scripted `ext.limits.*` points force each
/// new trap path deterministically, without a hog module or a ticker.
#[cfg(feature = "fault-injection")]
mod injected {
    use super::*;
    use extsec_faults::{FaultAction, FaultPlan};

    #[test]
    fn oom_fault_point_collapses_the_byte_budget() {
        let _guard = exclusive();
        let f = fixture();
        let alice = subject(&f);
        let id = load(&f, "spinner", SPIN_SRC);
        extsec_faults::install(FaultPlan::seeded(7).always("ext.limits.oom", FaultAction::Error));
        // Even the entry frame overflows a zero-byte budget.
        let e = f.runtime.run(id, "spin", &[], &alice).unwrap_err();
        let stats = extsec_faults::clear();
        assert!(matches!(e, ExtError::Trap(Trap::OutOfMemory)), "got {e:?}");
        assert!(stats.errors >= 1);
    }

    #[test]
    fn preempt_fault_point_expires_the_deadline_immediately() {
        let _guard = exclusive();
        let f = fixture();
        let alice = subject(&f);
        let id = load(&f, "spinner", SPIN_SRC);
        extsec_faults::install(
            FaultPlan::seeded(7).always("ext.limits.preempt", FaultAction::Error),
        );
        // No ticker, no slice configured: the fault point arms an
        // already-expired deadline and the first check preempts.
        let e = f.runtime.run(id, "spin", &[], &alice).unwrap_err();
        let stats = extsec_faults::clear();
        assert!(matches!(e, ExtError::Trap(Trap::Preempted)), "got {e:?}");
        assert!(stats.errors >= 1);
    }
}
