//! Concurrency: the monitor is one shared facility — it must stay
//! correct and live under parallel checks, administration, auditing and
//! extension traffic.

use extsec::scenarios::paper_lattice;
use extsec::{
    AccessMode, AclEntry, ExtensionManifest, ModeSet, NodeKind, NsPath, Origin, Protection,
    SecurityClass, SystemBuilder, Value,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

#[test]
fn parallel_checks_and_administration() {
    let mut builder = SystemBuilder::new(paper_lattice());
    let alice = builder.principal("alice").unwrap();
    builder.principal("bob").unwrap();
    let system = Arc::new(builder.build().unwrap());
    system
        .monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                extsec::Acl::public(ModeSet::only(AccessMode::List)),
                SecurityClass::bottom(),
            );
            ns.ensure_path(&p("/svc/x"), NodeKind::Domain, &visible)?;
            ns.insert(
                &p("/svc/x"),
                "op",
                NodeKind::Procedure,
                Protection::new(
                    extsec::Acl::from_entries([
                        AclEntry::allow_principal(alice, AccessMode::Execute),
                        AclEntry::allow_principal(alice, AccessMode::Administrate),
                    ]),
                    SecurityClass::bottom(),
                ),
            )?;
            Ok(())
        })
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();

    // Checkers: hammer decisions from both principals.
    for name in ["alice", "bob"] {
        let system = Arc::clone(&system);
        let stop = Arc::clone(&stop);
        let subject = system.subject(name, "others").unwrap();
        handles.push(std::thread::spawn(move || {
            let mut allowed = 0u64;
            let mut denied = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if system
                    .monitor
                    .check(&subject, &p("/svc/x/op"), AccessMode::Execute)
                    .allowed()
                {
                    allowed += 1;
                } else {
                    denied += 1;
                }
            }
            (allowed, denied)
        }));
    }

    // Administrator: toggles bob's access over and over.
    {
        let system = Arc::clone(&system);
        let stop = Arc::clone(&stop);
        let admin = system.subject("alice", "others").unwrap();
        let bob = system.principal("bob").unwrap();
        handles.push(std::thread::spawn(move || {
            let mut toggles = 0u64;
            while !stop.load(Ordering::Relaxed) {
                system
                    .monitor
                    .acl_push(
                        &admin,
                        &p("/svc/x/op"),
                        AclEntry::allow_principal(bob, AccessMode::Execute),
                    )
                    .unwrap();
                // The entry just pushed is the last one; remove it.
                let len = system
                    .monitor
                    .protection_of(&p("/svc/x/op"))
                    .unwrap()
                    .acl
                    .len();
                system
                    .monitor
                    .acl_remove(&admin, &p("/svc/x/op"), len - 1)
                    .unwrap();
                toggles += 1;
            }
            (toggles, 0)
        }));
    }

    std::thread::sleep(std::time::Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    let results: Vec<(u64, u64)> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Alice is always allowed; the admin made progress; nothing
    // deadlocked or panicked.
    let (alice_allowed, alice_denied) = results[0];
    assert!(alice_allowed > 0);
    assert_eq!(alice_denied, 0, "alice's grant is never revoked");
    let (toggles, _) = results[2];
    assert!(toggles > 0, "administration made progress");

    // Post-condition: the ACL is back to its two stable entries.
    let acl = system.monitor.protection_of(&p("/svc/x/op")).unwrap().acl;
    assert_eq!(acl.len(), 2);
}

/// Revocation visibility: once `set_acl` returns to the revoker, *no*
/// subsequent check — however hot the grant was — may return the
/// revoked grant. The publish happens inside the monitor's write lock,
/// so a reader that starts after revocation observes both the new ACL
/// and the new generation.
#[test]
fn revocation_is_immediately_visible_to_readers() {
    let mut builder = SystemBuilder::new(paper_lattice());
    let alice = builder.principal("alice").unwrap();
    let bob = builder.principal("bob").unwrap();
    let system = Arc::new(builder.build().unwrap());
    system
        .monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                extsec::Acl::public(ModeSet::only(AccessMode::List)),
                SecurityClass::bottom(),
            );
            ns.ensure_path(&p("/svc/x"), NodeKind::Domain, &visible)?;
            ns.insert(
                &p("/svc/x"),
                "op",
                NodeKind::Procedure,
                Protection::new(
                    extsec::Acl::from_entries([
                        AclEntry::allow_principal(alice, AccessMode::Administrate),
                        AclEntry::allow_principal(bob, AccessMode::Execute),
                    ]),
                    SecurityClass::bottom(),
                ),
            )?;
            Ok(())
        })
        .unwrap();

    // `revoked` is flipped *after* set_acl returns; any check that reads
    // it as true before starting must deny.
    let revoked = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let system = Arc::clone(&system);
            let revoked = Arc::clone(&revoked);
            let stop = Arc::clone(&stop);
            let subject = system.subject("bob", "others").unwrap();
            std::thread::spawn(move || {
                let mut grants_before = 0u64;
                let mut stale_grants = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let was_revoked = revoked.load(Ordering::SeqCst);
                    let allowed = system
                        .monitor
                        .check(&subject, &p("/svc/x/op"), AccessMode::Execute)
                        .allowed();
                    if allowed {
                        if was_revoked {
                            stale_grants += 1;
                        } else {
                            grants_before += 1;
                        }
                    }
                }
                (grants_before, stale_grants)
            })
        })
        .collect();

    // Let the readers see the grant for a while, then revoke.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let granted_under = system.monitor.policy_generation();
    let admin = system.subject("alice", "others").unwrap();
    system
        .monitor
        .set_acl(
            &admin,
            &p("/svc/x/op"),
            extsec::Acl::from_entries([AclEntry::allow_principal(alice, AccessMode::Administrate)]),
        )
        .unwrap();
    revoked.store(true, Ordering::SeqCst);

    std::thread::sleep(std::time::Duration::from_millis(100));
    stop.store(true, Ordering::SeqCst);
    let results: Vec<(u64, u64)> = readers.into_iter().map(|h| h.join().unwrap()).collect();

    let total_before: u64 = results.iter().map(|(b, _)| b).sum();
    let total_stale: u64 = results.iter().map(|(_, s)| s).sum();
    assert!(total_before > 0, "the grant was visible before revocation");
    assert_eq!(
        total_stale, 0,
        "a reader saw the revoked grant after set_acl returned"
    );
    assert!(
        system.monitor.policy_generation() > granted_under,
        "revocation never bumped the generation"
    );
}

#[test]
fn parallel_extension_calls() {
    let mut builder = SystemBuilder::new(paper_lattice());
    let alice = builder.principal("alice").unwrap();
    let system = Arc::new(builder.build().unwrap());
    let ext = system
        .load_extension(
            r#"
module adder
import now = "/svc/clock/now" () -> int
func main(x: int) -> int
  load_local x
  syscall now
  add
  ret
end
export main = main
"#,
            ExtensionManifest {
                name: "adder".into(),
                principal: alice,
                origin: Origin::Local,
                static_class: None,
            },
        )
        .unwrap();

    let threads: Vec<_> = (0..8)
        .map(|i| {
            let system = Arc::clone(&system);
            let subject = system.subject("alice", "others").unwrap();
            std::thread::spawn(move || {
                for _ in 0..200 {
                    let r = system
                        .runtime
                        .run(ext, "main", &[Value::Int(i)], &subject)
                        .unwrap();
                    assert!(matches!(r, Some(Value::Int(_))));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // 8 threads × 200 calls each advanced the clock exactly 1600 times.
    assert_eq!(system.clock.ticks(), 1600);
}

/// Multi-writer/multi-reader stress: readers issue a mix of `check` and
/// `check_unmemoized` calls against a node whose ACL and label are being rewritten
/// concurrently by two writers — but every shape either writer publishes
/// still grants the reader. A single denial during that phase would mean
/// a reader saw a torn state (half-applied ACL, or an ACL paired with a
/// label from a different publication). A final revocation then asserts
/// the other direction: once `set_acl` returns, no reader may see the old
/// grant.
#[test]
fn stress_mixed_readers_race_acl_and_label_writers() {
    let mut builder = SystemBuilder::new(paper_lattice());
    let carol = builder.principal("carol").unwrap();
    let admin = builder.principal("dora").unwrap();
    let system = Arc::new(builder.build().unwrap());
    let org = system.class("organization").unwrap();
    let others = system.class("others").unwrap();
    system
        .monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                extsec::Acl::public(ModeSet::only(AccessMode::List)),
                SecurityClass::bottom(),
            );
            ns.ensure_path(&p("/svc/s"), NodeKind::Domain, &visible)?;
            ns.insert(
                &p("/svc/s"),
                "op",
                NodeKind::Procedure,
                Protection::new(
                    extsec::Acl::from_entries([
                        AclEntry::allow_principal(admin, AccessMode::Administrate),
                        AclEntry::allow_principal(carol, AccessMode::Execute),
                    ]),
                    // Starts at `organization` so the admin (whose
                    // `administrate` flow needs class equality) can act.
                    org.clone(),
                ),
            )?;
            Ok(())
        })
        .unwrap();
    let start_generation = system.monitor.policy_generation();

    let writers_stop = Arc::new(AtomicBool::new(false));
    let readers_stop = Arc::new(AtomicBool::new(false));
    let revoked = Arc::new(AtomicBool::new(false));

    // Writer 1: rewrites the whole ACL through the guarded path,
    // alternating between two carol-granting shapes. The label writer
    // below races it, so the administrate flow check sometimes denies
    // (label != admin class at that instant) — those attempts just retry.
    let acl_writer = {
        let system = Arc::clone(&system);
        let stop = Arc::clone(&writers_stop);
        let admin_s = system.subject("dora", "organization").unwrap();
        std::thread::spawn(move || {
            let shapes = [
                extsec::Acl::from_entries([
                    AclEntry::allow_principal(admin, AccessMode::Administrate),
                    AclEntry::allow_principal(carol, AccessMode::Execute),
                ]),
                extsec::Acl::from_entries([
                    AclEntry::allow_principal_modes(carol, ModeSet::parse("rx").unwrap()),
                    AclEntry::allow_principal(admin, AccessMode::Administrate),
                ]),
            ];
            let mut rewrites = 0u64;
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                if system
                    .monitor
                    .set_acl(&admin_s, &p("/svc/s/op"), shapes[i % 2].clone())
                    .is_ok()
                {
                    rewrites += 1;
                }
                i += 1;
            }
            rewrites
        })
    };

    // Writer 2: flips the node's label between `others` and
    // `organization` through the TCB path. Carol (at `organization`)
    // dominates both, so her execute stays legal throughout.
    let label_writer = {
        let system = Arc::clone(&system);
        let stop = Arc::clone(&writers_stop);
        let org = org.clone();
        let others = others.clone();
        std::thread::spawn(move || {
            let mut flips = 0u64;
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let label = if i.is_multiple_of(2) {
                    others.clone()
                } else {
                    org.clone()
                };
                system
                    .monitor
                    .bootstrap(|ns| {
                        let id = ns.resolve(&p("/svc/s/op"))?;
                        ns.update_protection(id, |prot| prot.label = label.clone())?;
                        Ok(())
                    })
                    .unwrap();
                flips += 1;
                i += 1;
            }
            flips
        })
    };

    // Readers: alternate `check` and `check_unmemoized`. During the mutation
    // phase every published state grants carol, so any denial that is not
    // explained by the final revocation is a torn read.
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let system = Arc::clone(&system);
            let stop = Arc::clone(&readers_stop);
            let revoked = Arc::clone(&revoked);
            let subject = system.subject("carol", "organization").unwrap();
            std::thread::spawn(move || {
                let mut grants = 0u64;
                let mut torn = 0u64;
                let mut stale = 0u64;
                let mut i = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    let was_revoked = revoked.load(Ordering::SeqCst);
                    let path = p("/svc/s/op");
                    let allowed = if i.is_multiple_of(2) {
                        system
                            .monitor
                            .check(&subject, &path, AccessMode::Execute)
                            .allowed()
                    } else {
                        // A fresh floating subject with clearance == class
                        // takes the floating path through the public API
                        // and decides exactly like a plain check (execute
                        // maps to observe-at-same-class).
                        extsec::FloatingSubject::new(subject.clone())
                            .check(&system.monitor, &path, AccessMode::Execute)
                            .allowed()
                    };
                    if allowed {
                        if was_revoked {
                            stale += 1;
                        } else {
                            grants += 1;
                        }
                    } else if !revoked.load(Ordering::SeqCst) {
                        // Still not revoked after the check returned, so
                        // the denial cannot be the revocation landing.
                        torn += 1;
                    }
                    i += 1;
                }
                (grants, torn, stale)
            })
        })
        .collect();

    std::thread::sleep(std::time::Duration::from_millis(200));
    writers_stop.store(true, Ordering::Relaxed);
    let rewrites = acl_writer.join().unwrap();
    let flips = label_writer.join().unwrap();

    // Revoke: normalize the label (writers are quiesced), then remove
    // carol through the guarded path and raise the flag only after
    // `set_acl` has returned.
    system
        .monitor
        .bootstrap(|ns| {
            let id = ns.resolve(&p("/svc/s/op"))?;
            ns.update_protection(id, |prot| prot.label = org.clone())?;
            Ok(())
        })
        .unwrap();
    let admin_s = system.subject("dora", "organization").unwrap();
    system
        .monitor
        .set_acl(
            &admin_s,
            &p("/svc/s/op"),
            extsec::Acl::from_entries([AclEntry::allow_principal(admin, AccessMode::Administrate)]),
        )
        .unwrap();
    revoked.store(true, Ordering::SeqCst);

    std::thread::sleep(std::time::Duration::from_millis(100));
    readers_stop.store(true, Ordering::SeqCst);
    let results: Vec<(u64, u64, u64)> = readers.into_iter().map(|h| h.join().unwrap()).collect();

    let grants: u64 = results.iter().map(|(g, _, _)| g).sum();
    let torn: u64 = results.iter().map(|(_, t, _)| t).sum();
    let stale: u64 = results.iter().map(|(_, _, s)| s).sum();
    assert!(grants > 0, "readers observed the grant during mutation");
    assert!(rewrites > 0, "the ACL writer made progress");
    assert!(flips > 0, "the label writer made progress");
    assert_eq!(torn, 0, "a reader saw a torn (non-published) state");
    assert_eq!(stale, 0, "a reader saw the grant after revocation");
    // The racing writers really did publish.
    assert!(system.monitor.policy_generation() > start_generation);
}

#[test]
fn audit_sequencing_under_contention() {
    let mut builder = SystemBuilder::new(paper_lattice());
    builder.principal("alice").unwrap();
    let system = Arc::new(builder.build().unwrap());
    system.monitor.audit().clear();
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let system = Arc::clone(&system);
            let subject = system.subject("alice", "others").unwrap();
            std::thread::spawn(move || {
                for _ in 0..100 {
                    let _ =
                        system
                            .monitor
                            .check(&subject, &p("/svc/clock/now"), AccessMode::Execute);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let events = system.monitor.audit().events();
    assert_eq!(events.len(), 400);
    // Sequence numbers are unique.
    let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), 400);
}
