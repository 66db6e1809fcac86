//! The constructed figures F1–F7 and the telemetry cost F10, one test
//! per figure. The paper is a position paper and carries no figures;
//! these put a price on its claim of one protection facility at one
//! bounded cost (EXPERIMENTS.md). Each test times every arm of its
//! figure with [`median_ns`], prints one row per arm, and asserts the
//! decision or result that arm computes. No test asserts a time.
//!
//! For numbers, build optimized and run one test at a time, so no two
//! rows time at once:
//!
//! ```text
//! cargo test --release -p extsec-core --test figures -- --nocapture --test-threads=1
//! ```
//!
//! Built alone like this, the crate's tests leave fault injection
//! unarmed; under `cargo test --workspace` the root crate's
//! dev-dependencies arm it.

use extsec_core::acl::AclDecision;
use extsec_core::baselines::unix::bits;
use extsec_core::ext::Dispatcher;
use extsec_core::scenarios::paper_lattice;
use extsec_core::{
    AccessMode, Acl, AclEntry, CategoryId, CategorySet, Decision, Directory, ExtensionId,
    ExtensionManifest, JavaSandboxPolicy, Lattice, ModeSet, MonitorBuilder, MonitorConfig,
    NodeKind, NsPath, Origin, PolicyEngine, PrincipalId, Protection, ReferenceMonitor,
    SecurityClass, SpinDomainPolicy, Subject, SystemBuilder, TrustLevel, TrustTier, UnixPerm,
    UnixPolicy, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::slice;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Median nanoseconds per call of `op`. A round's size doubles from one
/// call until a round takes at least 1 ms; then 9 rounds of that size run.
fn median_ns(mut op: impl FnMut()) -> f64 {
    let mut round = |calls: u32| {
        let started = Instant::now();
        for _ in 0..calls {
            op();
        }
        started.elapsed()
    };
    let mut calls = 1;
    while round(calls) < Duration::from_millis(1) {
        calls *= 2;
    }
    let mut per_call: Vec<f64> = (0..9)
        .map(|_| round(calls).as_nanos() as f64 / f64::from(calls))
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[4]
}

/// Times `op` and prints the arm's row.
fn row(arm: &str, op: impl FnMut()) {
    println!("{arm:<40} {:>12.1} ns/op", median_ns(op));
}

fn on_off(on: bool) -> &'static str {
    ["off", "on"][usize::from(on)]
}

fn bottom(principal: PrincipalId) -> Subject {
    Subject::new(principal, SecurityClass::bottom())
}

/// The monitor worlds of F3, F5, F7 and F10: audit off, and each path
/// in `leaves` a procedure under list-public domains. `directory`
/// registers the principals and groups, and returns the ACL entries
/// every leaf carries and what the figure needs back.
fn monitor_world<T>(
    leaves: &[NsPath],
    directory: impl FnOnce(&mut MonitorBuilder) -> (Vec<AclEntry>, T),
) -> (Arc<ReferenceMonitor>, T) {
    let mut builder = MonitorBuilder::new(Lattice::build(["low", "high"], ["c"]).unwrap());
    let (entries, back) = directory(&mut builder);
    builder.config(MonitorConfig {
        audit: false,
        ..MonitorConfig::default()
    });
    let monitor = builder.build();
    let public_list = Acl::public(ModeSet::only(AccessMode::List));
    let visible = Protection::new(public_list, SecurityClass::bottom());
    let protection = Protection::new(Acl::from_entries(entries), SecurityClass::bottom());
    monitor
        .bootstrap(|ns| {
            for leaf in leaves {
                let domain = ns.ensure_path(&leaf.parent().unwrap(), NodeKind::Domain, &visible)?;
                let name = leaf.leaf().unwrap();
                ns.insert_at(domain, name, NodeKind::Procedure, protection.clone())?;
            }
            Ok(())
        })
        .unwrap();
    (monitor, back)
}

/// One `execute` check with its arguments and decision through
/// `black_box`.
fn check(monitor: &ReferenceMonitor, subject: &Subject, path: &NsPath) -> Decision {
    black_box(monitor.check(black_box(subject), black_box(path), AccessMode::Execute))
}

/// F1: a discretionary ACL check against list length and where the
/// matching entry sits. A grant at the head still scans the whole list,
/// since a later deny would override it; a deny at the head returns at
/// once.
#[test]
fn f1_acl_check() {
    let rl = ModeSet::parse("rl").unwrap();
    for len in [1usize, 4, 16, 64, 256] {
        let mut dir = Directory::new();
        let principals: Vec<PrincipalId> = (0..len.max(2))
            .map(|i| dir.add_principal(format!("p{i}")).unwrap())
            .collect();
        let target = principals[0];
        for placement in ["head", "tail", "deny-head"] {
            let mut entries: Vec<AclEntry> = principals[1..]
                .iter()
                .map(|p| AclEntry::allow_principal_modes(*p, rl))
                .collect();
            let grant = AclEntry::allow_principal(target, AccessMode::Execute);
            match placement {
                "head" => entries.insert(0, grant),
                "tail" => entries.push(grant),
                _ => {
                    entries.push(grant);
                    entries.insert(0, AclEntry::deny_principal(target, AccessMode::Execute));
                }
            }
            let acl = Acl::from_entries(entries);
            let granted = acl.check(&dir, target, AccessMode::Execute) == AclDecision::Granted;
            assert_eq!(granted, placement != "deny-head", "{placement} {len}");
            row(&format!("f1 {placement} {len}"), || {
                black_box(acl.check(black_box(&dir), black_box(target), AccessMode::Execute));
            });
        }
    }
}

/// F2: a mandatory domination check against category count, with the
/// word-parallel bitset against a naive `BTreeSet` (DESIGN.md §6
/// ablation 4). The bitset stays near flat; the naive set grows.
#[test]
fn f2_mac_dominates() {
    let naive = |a: &BTreeSet<u16>, b: &BTreeSet<u16>| b.iter().all(|x| a.contains(x));
    for n in [1u16, 4, 16, 64, 256] {
        let class = |count: u16| {
            let cats: CategorySet = (0..count).map(CategoryId::from_index).collect();
            SecurityClass::new(TrustLevel::from_rank(3), cats)
        };
        let (subject, object) = (class(n), class(n / 2 + 1));
        assert!(subject.dominates(&object));
        row(&format!("f2 bitset {n}"), || {
            black_box(black_box(&subject).dominates(black_box(&object)));
        });
        let subject: BTreeSet<u16> = (0..n).collect();
        let object: BTreeSet<u16> = (0..n / 2 + 1).collect();
        assert!(naive(&subject, &object));
        row(&format!("f2 naive-btreeset {n}"), || {
            black_box(naive(black_box(&subject), black_box(&object)));
        });
    }
}

/// F3: a monitored check against name-space depth, with per-level
/// visibility checks on and off (`check_visibility`). Linear in depth;
/// each interior level adds a `list` ACL check and an observe flow check.
#[test]
fn f3_namespace_depth() {
    for depth in [1usize, 4, 16, 64] {
        let dirs: Vec<String> = (0..depth).map(|i| format!("d{i}")).collect();
        let leaf: NsPath = format!("/{}/leaf", dirs.join("/")).parse().unwrap();
        let (monitor, subject) = monitor_world(slice::from_ref(&leaf), |b| {
            let p = b.add_principal("p").unwrap();
            let grant = AclEntry::allow_principal(p, AccessMode::Execute);
            (vec![grant], bottom(p))
        });
        for visibility in [true, false] {
            monitor.set_config(MonitorConfig {
                check_visibility: visibility,
                ..monitor.config()
            });
            assert!(check(&monitor, &subject, &leaf).allowed());
            let arm = format!("f3 visibility-{} {depth}", on_off(visibility));
            row(&arm, || {
                check(&monitor, &subject, &leaf);
            });
        }
    }
}

/// F4: class-aware dispatch against the number of registrations on one
/// interface, and the unchecked first-registration pick a dispatcher
/// without security classes would make. Selection scans the
/// registrations' classes; the baseline is constant.
#[test]
fn f4_dispatch() {
    let class = |level: u16, cats: &[u16]| {
        let cats: CategorySet = cats.iter().copied().map(CategoryId::from_index).collect();
        SecurityClass::new(TrustLevel::from_rank(level), cats)
    };
    let iface: NsPath = "/svc/vfs/types/x".parse().unwrap();
    let caller = class(8, &[0, 1, 2, 3, 4, 5, 6, 7]);
    for n in [1u16, 4, 16, 64] {
        let mut dispatcher = Dispatcher::new();
        for i in 0..n {
            let id = ExtensionId::from_raw(u32::from(i));
            dispatcher.register(iface.clone(), id, format!("h{i}"), class(i % 4, &[i % 8]));
        }
        // The caller dominates every registration and none dominates
        // another, so the class-aware pick is the earliest too.
        let first = ExtensionId::from_raw(0);
        assert_eq!(dispatcher.select(&iface, &caller).unwrap().ext, first);
        assert_eq!(dispatcher.earliest(&iface).unwrap().ext, first);
        row(&format!("f4 class-aware-select {n}"), || {
            black_box(dispatcher.select(black_box(&iface), black_box(&caller)));
        });
        row(&format!("f4 unchecked-first {n}"), || {
            black_box(dispatcher.earliest(black_box(&iface)));
        });
    }
}

/// F5: the four access-control engines on one seeded stream of 1 000
/// requests over 32 objects; each row times the whole stream. The
/// engines order by how much they can express.
#[test]
fn f5_engines() {
    let mut dir = Directory::new();
    let alice = dir.add_principal("alice").unwrap();
    let bob = dir.add_principal("bob").unwrap();
    let staff = dir.add_group("staff").unwrap();
    dir.add_member(staff, alice).unwrap();
    let objects: Vec<NsPath> = (0..32)
        .map(|i| format!("/obj/f{i}").parse().unwrap())
        .collect();
    let modes = [
        AccessMode::Read,
        AccessMode::Write,
        AccessMode::Execute,
        AccessMode::Extend,
    ];
    let mut rng = StdRng::seed_from_u64(7);
    let requests: Vec<(Subject, NsPath, AccessMode)> = (0..1000)
        .map(|_| {
            let subject = bottom([alice, bob][rng.gen_range(0..2)]);
            let object = objects[rng.gen_range(0..objects.len())].clone();
            (subject, object, modes[rng.gen_range(0..modes.len())])
        })
        .collect();

    let unix = UnixPolicy::new(dir.clone());
    for object in &objects {
        let perm = UnixPerm::new(alice, staff, bits::UR | bits::UW | bits::GR);
        unix.set(object.clone(), perm);
    }
    let java = JavaSandboxPolicy::new(vec!["/obj".parse().unwrap()]);
    java.set_tier(alice, TrustTier::Trusted);
    let spin = SpinDomainPolicy::new();
    spin.define_domain("objs", vec!["/obj".parse().unwrap()]);
    spin.link(alice, "objs");
    // Registered in `dir`'s order, so the ids agree.
    let (extsec, ()) = monitor_world(&objects, |b| {
        b.add_principal("alice").unwrap();
        b.add_principal("bob").unwrap();
        b.add_group("staff").unwrap();
        b.add_member(staff, alice).unwrap();
        let rw = ModeSet::parse("rw").unwrap();
        let read = AclEntry::allow_group(staff, AccessMode::Read);
        (vec![AclEntry::allow_principal_modes(alice, rw), read], ())
    });

    // The sandbox grants everything under /obj, SPIN every request of
    // alice's linked domain, and Unix and extsec only alice's reads and
    // writes.
    let of_alice: Vec<_> = requests
        .iter()
        .filter(|(s, ..)| s.principal == alice)
        .collect();
    let read_write = |(_, _, m): &&&_| matches!(m, AccessMode::Read | AccessMode::Write);
    let alice_rw = of_alice.iter().filter(read_write).count();
    let engines: [(&str, &dyn PolicyEngine, usize); 4] = [
        ("java-sandbox", &java, requests.len()),
        ("unix", &unix, alice_rw),
        ("spin-domains", &spin, of_alice.len()),
        ("extsec", extsec.as_ref(), alice_rw),
    ];
    for (name, engine, expected) in engines {
        let granted = || {
            let decide = |(s, o, m): &&_| engine.decide(black_box(s), black_box(o), *m).allowed();
            requests.iter().filter(decide).count()
        };
        assert_eq!(granted(), expected, "{name}");
        row(&format!("f5 {name} (1000 requests)"), || {
            black_box(granted());
        });
    }
}

/// F6: one call into the clock service raw, through the monitor, and
/// from an extension across the VM's syscall gate, with audit off and
/// on (DESIGN.md §6 ablation 5). The monitor adds one bounded cost per
/// crossing.
#[test]
fn f6_end_to_end() {
    let mut builder = SystemBuilder::new(paper_lattice());
    builder.principal("alice").unwrap();
    let system = builder.build().unwrap();
    let alice = system.subject("alice", "others").unwrap();
    let source = "module caller\nimport now = \"/svc/clock/now\" () -> int\n\
                  func main() -> int\n  syscall now\n  ret\nend\nexport main = main\n";
    let manifest = ExtensionManifest {
        name: "caller".into(),
        principal: alice.principal,
        origin: Origin::Local,
        static_class: None,
    };
    let ext = system.load_extension(source, manifest).unwrap();
    let path: NsPath = "/svc/clock/now".parse().unwrap();
    let tick = |value: Option<Value>| assert!(matches!(value, Some(Value::Int(t)) if t > 0));

    // Every arm reaches the clock once per call, so its logical time
    // counts the calls made.
    let mut calls = 0;
    row("f6 raw-service", || {
        calls += 1;
        black_box(system.clock.now());
    });
    for audit in [false, true] {
        let config = system.monitor.config();
        system.monitor.set_config(MonitorConfig { audit, ..config });
        let arm = format!("f6 monitored-call audit-{}", on_off(audit));
        row(&arm, || {
            calls += 1;
            tick(black_box(system.runtime.call(&alice, &path, &[])).unwrap());
        });
    }
    for audit in [false, true] {
        let config = system.monitor.config();
        system.monitor.set_config(MonitorConfig { audit, ..config });
        row(&format!("f6 vm-gate audit-{}", on_off(audit)), || {
            calls += 1;
            tick(black_box(system.runtime.run(ext, "main", &[], &alice)).unwrap());
        });
    }
    assert_eq!(system.clock.ticks(), calls);
}

/// F7: a monitored check whose grant sits behind `depth` levels of
/// group nesting. The membership closure walks the subgroup chain, so
/// the cost is linear in depth.
#[test]
fn f7_group_nesting() {
    let leaf: NsPath = "/svc/op".parse().unwrap();
    for depth in [1usize, 4, 16, 64] {
        let (monitor, user) = monitor_world(slice::from_ref(&leaf), |b| {
            let user = b.add_principal("user").unwrap();
            let groups: Vec<_> = (0..depth)
                .map(|i| b.add_group(format!("g{i}")).unwrap())
                .collect();
            b.add_member(groups[0], user).unwrap();
            for pair in groups.windows(2) {
                b.add_subgroup(pair[1], pair[0]).unwrap();
            }
            let grant = AclEntry::allow_group(groups[depth - 1], AccessMode::Execute);
            (vec![grant], bottom(user))
        });
        assert!(check(&monitor, &user, &leaf).allowed());
        row(&format!("f7 nested-grant {depth}"), || {
            check(&monitor, &user, &leaf);
        });
    }
}

/// F10: what pipeline telemetry costs, off and on: one thread checking
/// F1's 256-entry tail grant, and one thread per CPU (up to 4), each
/// checking its own grant on one shared node. Enabled telemetry counts
/// every check; disabled counts none.
#[test]
fn f10_telemetry() {
    let leaf: NsPath = "/svc/fs/read".parse().unwrap();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    for on in [false, true] {
        let (monitor, target) = monitor_world(slice::from_ref(&leaf), |b| {
            let rl = ModeSet::parse("rl").unwrap();
            let mut entries: Vec<AclEntry> = (0..256)
                .map(|i| b.add_principal(format!("p{i}")).unwrap())
                .map(|filler| AclEntry::allow_principal_modes(filler, rl))
                .collect();
            let target = b.add_principal("target").unwrap();
            entries.push(AclEntry::allow_principal(target, AccessMode::Execute));
            (entries, bottom(target))
        });
        monitor.telemetry().set_enabled(on);
        assert!(check(&monitor, &target, &leaf).allowed());
        let mut checks = 1;
        let arm = format!("f10 tail-grant-256 telemetry-{}", on_off(on));
        row(&arm, || {
            checks += 1;
            check(&monitor, &target, &leaf);
        });
        assert_eq!(counted_checks(&monitor), u64::from(on) * checks);

        let (monitor, subjects) = monitor_world(slice::from_ref(&leaf), |b| {
            let principals: Vec<_> = (0..threads)
                .map(|i| b.add_principal(format!("t{i}")).unwrap())
                .collect();
            let grant = |p: &PrincipalId| AclEntry::allow_principal(*p, AccessMode::Execute);
            let entries = principals.iter().map(grant).collect();
            (entries, principals.into_iter().map(bottom))
        });
        monitor.telemetry().set_enabled(on);
        // Each worker times its own checks from a common start; the
        // aggregate rate is the sum of the workers' rates.
        let start = Barrier::new(threads);
        let (rate, checks) = std::thread::scope(|scope| {
            let workers: Vec<_> = subjects
                .map(|subject| {
                    let (monitor, leaf, start) = (&monitor, &leaf, &start);
                    scope.spawn(move || {
                        assert!(check(monitor, &subject, leaf).allowed());
                        let mut checks = 1;
                        start.wait();
                        let ns = median_ns(|| {
                            checks += 1;
                            check(monitor, &subject, leaf);
                        });
                        (1e9 / ns, checks)
                    })
                })
                .collect();
            let results = workers.into_iter().map(|w| w.join().unwrap());
            results.fold((0.0, 0), |(rate, checks), (r, c)| (rate + r, checks + c))
        });
        let arm = format!("f10 parallel-{threads} telemetry-{}", on_off(on));
        let (ns, millions) = (1e9 / rate, rate / 1e6);
        println!("{arm:<40} {ns:>12.1} ns/op ({millions:.2} M checks/s)");
        assert_eq!(counted_checks(&monitor), u64::from(on) * checks);
    }
}

/// Checks the monitor's telemetry counted: `refmon.stage.check_ns`'s
/// samples.
fn counted_checks(monitor: &ReferenceMonitor) -> u64 {
    let metrics = monitor.metrics();
    metrics.histogram("refmon.stage.check_ns").unwrap().count
}
