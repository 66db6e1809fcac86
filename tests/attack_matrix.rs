//! T1 — the attack matrix: four §1.2-style attacks against four access
//! control models.
//!
//! Each attack is a single (subject, object, mode) request evaluated by
//! every [`PolicyEngine`]; the extsec column is additionally exercised
//! end-to-end (the ThreadMurder attack actually runs against the applet
//! registry, and the denial-of-service loop actually runs out of fuel in
//! the VM). Expected shape: every baseline admits at least one attack;
//! extsec blocks all four.

use extsec::baselines::unix::bits;
use extsec::campaign::{coherent, mac_flow, quarantine_honoured};
use extsec::scenarios::threadmurder_scenario;
use extsec::{
    AccessMode, Acl, AclEntry, GroupId, JavaSandboxPolicy, ModeSet, NsPath, PolicyEngine,
    Protection, SpinDomainPolicy, Subject, TrustTier, UnixPerm, UnixPolicy,
};

struct Attack {
    name: &'static str,
    path: &'static str,
    mode: AccessMode,
}

const ATTACKS: [Attack; 4] = [
    Attack {
        name: "threadmurder",
        path: "/obj/threads/victim-worker",
        mode: AccessMode::Delete,
    },
    Attack {
        name: "read-local-file",
        path: "/obj/fs/home/secret",
        mode: AccessMode::Read,
    },
    Attack {
        name: "hijack-interface",
        path: "/svc/fs/read",
        mode: AccessMode::Extend,
    },
    Attack {
        name: "self-grant",
        path: "/obj/threads/victim-worker",
        mode: AccessMode::Administrate,
    },
];

/// Expected admit/block per engine, in `[java, unix, spin, extsec]`
/// order (`true` = the attack is ADMITTED — a hole).
const EXPECTED: [(&str, [bool; 4]); 4] = [
    // Java: both applets share one sandbox that includes the thread
    // registry, so murder and self-grant go through; files and service
    // extension sit outside the sandbox.
    // Unix: the victim's thread object is 0700 (safe), but the secret is
    // a typical 0644 file (readable) and /svc/fs/read is 0755 — and `x`
    // means both call AND extend.
    // SPIN: the attacker is linked against the applet domain (covering
    // the thread registry) and the fs domain (it legitimately calls the
    // fs service) — linking is all-or-nothing, so murder, hijack and
    // self-grant all go through; only the file object, outside every
    // linked domain, is safe.
    ("threadmurder", [true, false, true, false]),
    ("read-local-file", [false, true, false, false]),
    ("hijack-interface", [false, true, true, false]),
    ("self-grant", [true, false, true, false]),
];

#[test]
fn t1_attack_matrix() {
    // One shared world: the ThreadMurder scenario plus a local secret
    // file, with the murderer as the attacking subject everywhere.
    let sc = threadmurder_scenario().unwrap();
    let secret_label = sc.system.class("local:{myself}").unwrap();
    let user_principal = sc.user.principal;
    sc.system
        .fs
        .bootstrap_file(
            &sc.system.monitor,
            "home/secret",
            "the local secret",
            Protection::new(
                Acl::from_entries([AclEntry::allow_principal_modes(
                    user_principal,
                    ModeSet::parse("rwadl").unwrap(),
                )]),
                secret_label,
            ),
            &Protection::new(
                Acl::public(ModeSet::parse("l").unwrap()),
                extsec::SecurityClass::bottom(),
            ),
        )
        .unwrap();

    let attacker = &sc.murderer;
    let victim_principal = sc.victim.principal;

    // --- Baseline engines, configured as their designers intended. ---
    let java = JavaSandboxPolicy::classic();
    java.set_tier(user_principal, TrustTier::Trusted);
    // Victim and murderer default to untrusted (remote applets).

    let unix = {
        let directory = sc.system.monitor.directory(|d| d.clone());
        let nobody = GroupId::from_raw(u32::MAX);
        let unix = UnixPolicy::new(directory);
        // Thread objects: owner-only (0700).
        unix.set(
            "/obj/threads/victim-worker".parse().unwrap(),
            UnixPerm::new(victim_principal, nobody, bits::UR | bits::UW | bits::UX),
        );
        // The classic permissive home file: 0644.
        unix.set(
            "/obj/fs/home/secret".parse().unwrap(),
            UnixPerm::new(user_principal, nobody, 0o644),
        );
        // System services: 0755.
        unix.set(
            "/svc/fs/read".parse().unwrap(),
            UnixPerm::new(user_principal, nobody, 0o755),
        );
        unix
    };

    let spin = SpinDomainPolicy::new();
    spin.define_domain(
        "applets",
        vec![
            "/svc/threads".parse().unwrap(),
            "/obj/threads".parse().unwrap(),
            "/svc/console".parse().unwrap(),
        ],
    );
    spin.define_domain("fs", vec!["/svc/fs".parse().unwrap()]);
    spin.link(attacker.principal, "applets");
    spin.link(attacker.principal, "fs");

    let engines: [&dyn PolicyEngine; 4] = [&java, &unix, &spin, sc.system.monitor.as_ref()];

    println!("\nT1 — attack matrix (true = attack ADMITTED)");
    println!(
        "{:<18} {:>14} {:>7} {:>13} {:>7}",
        "attack", "java-sandbox", "unix", "spin-domains", "extsec"
    );
    for (attack, (expected_name, expected)) in ATTACKS.iter().zip(EXPECTED.iter()) {
        assert_eq!(attack.name, *expected_name);
        let path: NsPath = attack.path.parse().unwrap();
        let got: Vec<bool> = engines
            .iter()
            .map(|e| e.decide(attacker, &path, attack.mode).allowed())
            .collect();
        // The extsec cell is additionally held to the campaign
        // invariants: a batch must decide the attack as a single check
        // does, and were the attack admitted, the grant would have to
        // re-derive under the MAC lattice.
        let decision = coherent(&sc.system.monitor, attacker, &path, &[attack.mode], false)
            .unwrap_or_else(|v| panic!("{}: {v}", attack.name))
            .remove(0);
        mac_flow(&sc.system.monitor, attacker, &path, attack.mode, &decision)
            .unwrap_or_else(|v| panic!("{}: {v}", attack.name));
        assert_eq!(decision.allowed(), got[3], "{}", attack.name);
        println!(
            "{:<18} {:>14} {:>7} {:>13} {:>7}",
            attack.name, got[0], got[1], got[2], got[3]
        );
        for (i, engine) in engines.iter().enumerate() {
            assert_eq!(
                got[i],
                expected[i],
                "{} under {}",
                attack.name,
                engine.name()
            );
        }
    }

    // Headline claims: every baseline has a hole; extsec has none.
    for (i, engine) in engines.iter().enumerate().take(3) {
        let holes = EXPECTED.iter().filter(|(_, row)| row[i]).count();
        assert!(
            holes > 0,
            "{} should admit at least one attack",
            engine.name()
        );
    }
    assert!(
        EXPECTED.iter().all(|(_, row)| !row[3]),
        "extsec must block all"
    );
}

#[test]
fn t1_threadmurder_executes_under_extsec_and_fails() {
    // Beyond the decision: actually run the attack against the applet
    // registry.
    let sc = threadmurder_scenario().unwrap();
    let e = sc
        .system
        .applets
        .kill(&sc.system.monitor, &sc.murderer, "victim-worker")
        .unwrap_err();
    assert!(matches!(e, extsec::ServiceError::Denied(_)));
    assert_eq!(sc.system.applets.alive("victim-worker"), Some(true));
    // And the murderer cannot enumerate its victims either.
    let visible = sc
        .system
        .applets
        .list(&sc.system.monitor, &sc.murderer)
        .unwrap();
    assert!(!visible.contains(&"victim-worker".to_string()));
}

#[test]
fn t1_denial_of_service_is_bounded_by_fuel() {
    // The fourth §1 concern the paper defers — denial of service — is
    // handled by the substrate: a spinning extension runs out of fuel.
    let sc = threadmurder_scenario().unwrap();
    let spin_src = r#"
module spinner
func main()
label spin
  jump spin
end
export main = main
"#;
    let id = sc
        .system
        .load_extension(
            spin_src,
            extsec::ExtensionManifest {
                name: "spinner".into(),
                principal: sc.murderer.principal,
                origin: extsec::Origin::Remote("evil.example".into()),
                static_class: None,
            },
        )
        .unwrap();
    let e = sc
        .system
        .runtime
        .run(id, "main", &[], &sc.murderer)
        .unwrap_err();
    assert_eq!(e, extsec::ExtError::Trap(extsec::Trap::OutOfFuel));
    // The rest of the system is unaffected.
    assert_eq!(sc.system.applets.alive("victim-worker"), Some(true));
}

/// The murderer subject must actually be *usable* inside the sandbox —
/// the Java engine admits the attack not because the attacker is
/// special-cased but because sandbox granularity is per-prefix.
#[test]
fn t1_java_sandbox_admits_any_untrusted_principal() {
    let java = JavaSandboxPolicy::classic();
    let anyone = Subject::new(
        extsec::PrincipalId::from_raw(4242),
        extsec::SecurityClass::bottom(),
    );
    assert!(java
        .decide(
            &anyone,
            &"/obj/threads/victim-worker".parse().unwrap(),
            AccessMode::Delete
        )
        .allowed());
}

#[test]
fn t1_threadmurder_by_extension_trips_quarantine() {
    // The murderer packages the attack as a loaded extension that
    // syscalls `/svc/threads/kill`. Every attempt is denied by the
    // victim's node ACL (a refused gate is a trap at the extension
    // boundary), the health ledger counts the faults, and the breaker
    // quarantines the extension — the attacker loses its dispatch
    // privilege without any policy change.
    use extsec::{ExtError, ExtensionManifest, HealthConfig, HealthState, Origin};
    use std::time::Duration;

    let sc = threadmurder_scenario().unwrap();
    sc.system.runtime.set_health_config(HealthConfig {
        fault_budget: 3,
        window: Duration::from_secs(60),
        cooldown: Duration::from_secs(30),
    });

    let src = r#"
module murder
import kill = "/svc/threads/kill" (str)
func main()
  push_str "victim-worker"
  syscall kill
  ret
end
export main = main
"#;
    let id = sc
        .system
        .runtime
        .load(
            extsec::vm::asm::assemble(src).unwrap(),
            ExtensionManifest {
                name: "murder-ext".into(),
                principal: sc.murderer.principal,
                origin: Origin::Remote("evil.example".into()),
                static_class: None,
            },
        )
        .unwrap();

    // Each run is denied at the gate and recorded as a fault.
    for _ in 0..3 {
        let e = sc
            .system
            .runtime
            .run(id, "main", &[], &sc.murderer)
            .unwrap_err();
        assert!(matches!(e, ExtError::Trap(_)), "got {e:?}");
        assert_eq!(sc.system.applets.alive("victim-worker"), Some(true));
    }

    // The breaker has tripped: the murderous extension no longer runs
    // at all, and the refusal honours the campaign quarantine invariant
    // (report says quarantined, dispatch must return the typed error).
    let report = sc.system.runtime.explain_health(id);
    assert!(
        matches!(report.state, HealthState::Quarantined { .. }),
        "got {report}"
    );
    let outcome = sc.system.runtime.run(id, "main", &[], &sc.murderer);
    quarantine_honoured(&report, &outcome).expect("quarantine honoured");
    assert!(
        matches!(outcome, Err(ExtError::Quarantined { .. })),
        "got {outcome:?}"
    );
    // The victim outlives the whole campaign.
    assert_eq!(sc.system.applets.alive("victim-worker"), Some(true));
}
