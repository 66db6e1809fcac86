//! Telemetry quickstart: enable pipeline telemetry, drive a small mixed
//! workload, and print the monitor's metrics, one dotted name per line —
//! the per-stage latency histograms, per-mode/service/dispatch counters,
//! extension faults and quarantines, the policy generation, and the
//! audit ring.
//!
//! Run with `cargo run --release --example stats`.

use extsec::{
    AccessMode, AclEntry, ExtensionManifest, Lattice, ModeSet, NodeKind, Origin, Protection,
    SecurityClass, SystemBuilder, Value,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Assemble a system (monitor + runtime + standard services).
    let lattice = Lattice::build(["guest", "staff"], ["payroll"])?;
    let mut builder = SystemBuilder::new(lattice);
    let alice = builder.principal("alice")?;
    builder.principal("mallory")?;
    builder.echo_console();
    let system = builder.build()?;

    // 2. Telemetry is off by default (each instrumentation point is a
    //    single relaxed atomic load). Flip it on for this run.
    system.monitor.telemetry().set_enabled(true);

    // 3. A protected procedure only alice@staff may execute.
    let staff_class = system.class("staff")?;
    system.monitor.bootstrap(|ns| {
        let visible = Protection::new(
            extsec::Acl::public(ModeSet::only(AccessMode::List)),
            SecurityClass::bottom(),
        );
        ns.ensure_path(&"/svc/payroll".parse().unwrap(), NodeKind::Domain, &visible)?;
        let mut protection = Protection::new(Default::default(), staff_class.clone());
        protection
            .acl
            .push(AclEntry::allow_principal(alice, AccessMode::Execute));
        ns.insert(
            &"/svc/payroll".parse().unwrap(),
            "run",
            NodeKind::Procedure,
            protection,
        )?;
        Ok(())
    })?;

    // 4. Drive a mixed workload: grants and denials across several access
    //    modes, batched reads through one pinned view (one view = one
    //    telemetry span), and an extension call that crosses the monitor
    //    into the console service.
    let alice_staff = system.subject("alice", "staff:{payroll}")?;
    let mallory = system.subject("mallory", "guest")?;
    let payroll = "/svc/payroll/run".parse()?;
    for _ in 0..1_000 {
        system
            .monitor
            .check(&alice_staff, &payroll, AccessMode::Execute);
        system.monitor.check(&mallory, &payroll, AccessMode::Read);
    }
    {
        let view = system.monitor.view();
        for _ in 0..100 {
            view.check(&alice_staff, &payroll, AccessMode::Execute);
            let _ = view.list(&alice_staff, &"/svc".parse()?);
        }
    }
    let ext = system.load_extension(
        r#"
module greeter
import print = "/svc/console/print" (str)
func main()
  push_str "hello from the sandbox"
  syscall print
  ret
end
export main = main
"#,
        ExtensionManifest {
            name: "greeter".into(),
            principal: alice,
            origin: Origin::Local,
            static_class: None,
        },
    )?;
    system.runtime.run(ext, "main", &[], &alice_staff)?;
    let _ = Value::Int(0);

    // 5. A misbehaving extension: every run traps, the health ledger
    //    counts the faults, and the circuit breaker quarantines it —
    //    visible below in the fault/quarantine counters and the report.
    let flaky = system.load_extension(
        r#"
module flaky
func main() -> int
  trap
end
export main = main
"#,
        ExtensionManifest {
            name: "flaky".into(),
            principal: alice,
            origin: Origin::Local,
            static_class: None,
        },
    )?;
    let budget = system.runtime.health().config().fault_budget;
    for _ in 0..=budget {
        let _ = system.runtime.run(flaky, "main", &[], &alice_staff);
    }
    println!("{}", system.runtime.explain_health(flaky));

    // 6. Print the whole observability surface.
    print!("\n{}", system.monitor.metrics());
    Ok(())
}
