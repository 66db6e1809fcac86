//! Scale smoke tests: thousands of nodes and principals, deep group
//! nesting, snapshot round-trips at size — nothing in the model should
//! degrade into a trap at realistic populations.

use extsec::campaign::{Profile, World, WorldSpec};
use extsec::{
    AccessMode, Acl, AclEntry, Lattice, ModeSet, MonitorBuilder, NodeKind, NsPath, Protection,
    ReferenceMonitor, SecurityClass, Subject,
};
use std::time::{Duration, Instant};

#[test]
fn thousands_of_nodes_and_principals() {
    let lattice = Lattice::build(
        (0..4).map(|i| format!("L{i}")),
        (0..16).map(|i| format!("c{i}")),
    )
    .unwrap();
    let mut builder = MonitorBuilder::new(lattice);
    let principals: Vec<_> = (0..1000)
        .map(|i| builder.add_principal(format!("user{i}")).unwrap())
        .collect();
    let everyone = builder.add_group("everyone").unwrap();
    for p in &principals {
        builder.add_member(everyone, *p).unwrap();
    }
    let monitor = builder.build();

    // 100 services × 50 procedures = 5000 leaves.
    monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                Acl::public(ModeSet::only(AccessMode::List)),
                SecurityClass::bottom(),
            );
            for s in 0..100 {
                let svc: NsPath = format!("/svc/service{s}").parse().unwrap();
                let dom = ns.ensure_path(&svc, NodeKind::Domain, &visible)?;
                for p in 0..50 {
                    ns.insert_at(
                        dom,
                        &format!("op{p}"),
                        NodeKind::Procedure,
                        Protection::new(
                            Acl::from_entries([AclEntry::allow_group(
                                extsec::GroupId::from_raw(0),
                                AccessMode::Execute,
                            )]),
                            SecurityClass::bottom(),
                        ),
                    )?;
                }
            }
            Ok(())
        })
        .unwrap();
    assert_eq!(monitor.inspect(|ns| ns.len()), 1 + 1 + 100 + 5000);

    // Every 97th principal probes every 13th service: all allowed
    // through the group grant.
    for pi in (0..principals.len()).step_by(97) {
        let subject = Subject::new(principals[pi], SecurityClass::bottom());
        for s in (0..100).step_by(13) {
            let path: NsPath = format!("/svc/service{s}/op7").parse().unwrap();
            assert!(
                monitor
                    .check(&subject, &path, AccessMode::Execute)
                    .allowed(),
                "user{pi} on service{s}"
            );
        }
    }

    // Snapshot at size and restore: decisions must survive.
    let snapshot = monitor.snapshot();
    assert_eq!(snapshot.nodes.len(), 5102);
    let restored = ReferenceMonitor::from_snapshot(snapshot).unwrap();
    let subject = Subject::new(principals[500], SecurityClass::bottom());
    let path: NsPath = "/svc/service42/op13".parse().unwrap();
    assert_eq!(
        monitor.check(&subject, &path, AccessMode::Execute),
        restored.check(&subject, &path, AccessMode::Execute)
    );
}

/// Resident set size in KiB, best effort (Linux `/proc/self/statm`).
fn rss_kib() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4)
}

/// Exercises a generator-built world at a given principal count:
/// build, then a deterministic probe sweep plus one admin-guarded
/// revocation, asserting the monitor answers (and agrees with its
/// reference evaluation) at population. Prints one row: build time,
/// nodes, resident-set growth over the build (other tests running in
/// the same process grow it too), mean `check` time over the sweep, and
/// the guarded `set_acl` time.
fn generated_world_at(principals: usize, seed: u64) {
    let rss_before = rss_kib().unwrap_or(0);
    let spec = WorldSpec::scaled(Profile::Campus, principals, seed);
    let (world, stats) = World::build_timed(&spec);
    let rss_delta_mib = rss_kib().unwrap_or(rss_before).saturating_sub(rss_before) as f64 / 1024.0;
    assert_eq!(world.principals.len(), principals);
    assert!(world.leaves.len() >= principals / 20);

    // A strided probe sweep across the population: `check` and
    // `check_unmemoized` must agree on every answer.
    let pstride = (principals / 64).max(1);
    let lstride = (world.leaves.len() / 32).max(1);
    let mut granted = 0usize;
    let mut probes = 0usize;
    let mut checking = Duration::ZERO;
    for pi in (0..principals).step_by(pstride) {
        let subject = world.subject(pi);
        for li in (0..world.leaves.len()).step_by(lstride) {
            let path = &world.leaves[li];
            let started = Instant::now();
            let decision = world.monitor.check(&subject, path, AccessMode::Read);
            checking += started.elapsed();
            let oracle = world
                .monitor
                .check_unmemoized(&subject, path, AccessMode::Read);
            assert_eq!(decision, oracle, "probe ({pi},{li}) incoherent at scale");
            probes += 1;
            if decision.allowed() {
                granted += 1;
            }
        }
    }
    // The layered policies produce a mixed decision surface, not a
    // degenerate all-deny (or all-allow) world.
    assert!(granted > 0 && granted < probes, "{granted}/{probes} grants");

    // One guarded revocation still lands at population.
    let leaf = world.leaves.len() / 2;
    let path = world.leaves[leaf].clone();
    let prot = world.monitor.protection_of(&path).unwrap();
    let admin = world.admin_subject(&prot.label);
    let started = Instant::now();
    world
        .monitor
        .set_acl(&admin, &path, prot.acl.clone())
        .expect("admin-guarded set_acl at scale");
    let set_acl = started.elapsed();
    println!(
        "scale: {} principals, {} nodes, built in {:.2?}, rss +{rss_delta_mib:.1} MiB, \
         check {:.2} µs over {probes} probes, guarded set_acl {:.1} µs",
        stats.principals,
        stats.nodes,
        stats.build,
        checking.as_secs_f64() * 1e6 / probes as f64,
        set_acl.as_secs_f64() * 1e6
    );
}

#[test]
fn generated_world_hundred_thousand_principals() {
    generated_world_at(100_000, 15);
}

/// The full F15 measurement at 10^6 principals. Minutes of work and
/// gigabytes of residency in debug builds, so gated:
/// `EXTSEC_SCALE_FULL=1 cargo test --release --test scale million -- --nocapture`.
#[test]
fn generated_world_million_principals() {
    if std::env::var("EXTSEC_SCALE_FULL").is_err() {
        eprintln!("set EXTSEC_SCALE_FULL=1 to run the 10^6-principal scale test");
        return;
    }
    generated_world_at(1_000_000, 16);
}

#[test]
fn deep_group_nesting() {
    let lattice = Lattice::build(["low"], Vec::<String>::new()).unwrap();
    let mut builder = MonitorBuilder::new(lattice);
    let user = builder.add_principal("user").unwrap();
    // A 64-deep chain: user ∈ g0 ⊂ g1 ⊂ ... ⊂ g63.
    let mut groups = Vec::new();
    for i in 0..64 {
        groups.push(builder.add_group(format!("g{i}")).unwrap());
    }
    builder.add_member(groups[0], user).unwrap();
    for i in 1..64 {
        builder.add_subgroup(groups[i], groups[i - 1]).unwrap();
    }
    let monitor = builder.build();
    let outer = groups[63];
    monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                Acl::public(ModeSet::only(AccessMode::List)),
                SecurityClass::bottom(),
            );
            ns.ensure_path(&"/svc".parse().unwrap(), NodeKind::Domain, &visible)?;
            ns.insert(
                &"/svc".parse().unwrap(),
                "op",
                NodeKind::Procedure,
                Protection::new(
                    Acl::from_entries([AclEntry::allow_group(outer, AccessMode::Execute)]),
                    SecurityClass::bottom(),
                ),
            )?;
            Ok(())
        })
        .unwrap();
    // Transitive membership through 64 levels still grants.
    let subject = Subject::new(user, SecurityClass::bottom());
    assert!(monitor
        .check(&subject, &"/svc/op".parse().unwrap(), AccessMode::Execute)
        .allowed());
    // A stranger is still denied.
    let stranger = Subject::new(extsec::PrincipalId::from_raw(999), SecurityClass::bottom());
    assert!(!monitor
        .check(&stranger, &"/svc/op".parse().unwrap(), AccessMode::Execute)
        .allowed());
}

#[test]
fn wide_category_sets() {
    // 512 categories: the bitset spans 8 words; domination still exact.
    let lattice = Lattice::build(["low", "high"], (0..512).map(|i| format!("c{i}"))).unwrap();
    let full = lattice.try_top().unwrap();
    let mut almost = full.clone();
    let _ = &mut almost;
    let missing_one = extsec::SecurityClass::new(
        full.level(),
        (0..511).map(extsec::CategoryId::from_index).collect(),
    );
    assert!(full.dominates(&missing_one));
    assert!(!missing_one.dominates(&full));
    assert_eq!(full.categories().len(), 512);
}
