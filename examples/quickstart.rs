//! Quickstart: build an extensible system, protect a service with
//! execute/extend ACLs and MAC labels, and load a sandboxed extension.
//!
//! Run with `cargo run --example quickstart`.

use extsec::{
    AccessMode, AclEntry, ExtensionManifest, Lattice, ModeSet, NodeKind, Origin, Protection,
    SecurityClass, SystemBuilder, Value,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Define the security lattice: two levels of trust, one category.
    let lattice = Lattice::build(["guest", "staff"], ["payroll"])?;

    // 2. Assemble the system: reference monitor + runtime + standard
    //    services (fs, mbuf, threads, console, clock, vfs).
    let mut builder = SystemBuilder::new(lattice);
    let alice = builder.principal("alice")?;
    builder.principal("mallory")?;
    builder.echo_console();
    let system = builder.build()?;
    println!("system assembled: {:?}", system.runtime);

    // 3. Install a protected procedure: only alice may execute it, and
    //    its label keeps guests out regardless of ACLs.
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
        // `run` is just the console behind a harder gate for the demo.
        ns.insert(
            &"/svc/payroll".parse().unwrap(),
            "run",
            NodeKind::Procedure,
            protection,
        )?;
        Ok(())
    })?;

    // 4. Decisions: same principal, different classes.
    let alice_staff = system.subject("alice", "staff:{payroll}")?;
    let alice_guest = system.subject("alice", "guest")?;
    let mallory = system.subject("mallory", "staff:{payroll}")?;
    let payroll = "/svc/payroll/run".parse()?;
    for (who, subject) in [
        ("alice@staff", &alice_staff),
        ("alice@guest", &alice_guest),
        ("mallory@staff", &mallory),
    ] {
        let decision = system.monitor.check(subject, &payroll, AccessMode::Execute);
        println!("execute /svc/payroll/run as {who}: {decision}");
    }

    // 5. Load an extension that uses the console through a syscall gate.
    let ext = system.load_extension(
        r#"
module greeter
import print = "/svc/console/print" (str)
func main(n: int)
  locals i: int
label loop
  load_local i
  load_local n
  lt
  jump_if_not done
  push_str "hello from the sandbox"
  syscall print
  load_local i
  push_int 1
  add
  store_local i
  jump loop
label done
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
    system
        .runtime
        .run(ext, "main", &[Value::Int(3)], &alice_staff)?;

    // 6. The audit log recorded everything.
    println!("\naudit trail:");
    for event in system.monitor.audit().events() {
        println!("  {event}");
    }
    Ok(())
}
