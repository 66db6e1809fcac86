//! Telemetry is an observer, never a participant: enabling it must not
//! change a single decision, and its snapshots must be monotone and
//! tear-free while writers race the instrumented pipeline.

use extsec::{
    AccessMode, Acl, AclEntry, FloatingSubject, Lattice, ModeSet, MonitorBuilder, MonitorConfig,
    NodeKind, NsPath, PrincipalId, Protection, ReferenceMonitor, SecurityClass, Stage, Subject,
    TelemetrySnapshot,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

const PATHS: [&str; 5] = [
    "/svc",
    "/svc/fs",
    "/svc/fs/read",
    "/obj/file",
    "/svc/missing",
];

const MODES: [AccessMode; 5] = [
    AccessMode::Read,
    AccessMode::Write,
    AccessMode::Execute,
    AccessMode::List,
    AccessMode::Administrate,
];

struct World {
    monitor: Arc<ReferenceMonitor>,
    principals: Vec<PrincipalId>,
    classes: Vec<SecurityClass>,
}

/// Same recipe either way; only the telemetry switch differs.
fn build_world(telemetry: bool) -> World {
    let lattice = Lattice::build(["low", "high"], ["c0"]).unwrap();
    let mut builder = MonitorBuilder::new(lattice.clone());
    let principals: Vec<PrincipalId> = (0..3)
        .map(|i| builder.add_principal(format!("p{i}")).unwrap())
        .collect();
    builder.config(MonitorConfig::default());
    let monitor = builder.build();
    monitor.telemetry().set_enabled(telemetry);
    let classes = vec![
        SecurityClass::bottom(),
        lattice.parse_class("low:{c0}").unwrap(),
        lattice.parse_class("high:{c0}").unwrap(),
    ];
    monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                Acl::public(ModeSet::only(AccessMode::List)),
                SecurityClass::bottom(),
            );
            ns.ensure_path(&p("/svc/fs"), NodeKind::Domain, &visible)?;
            ns.ensure_path(&p("/obj"), NodeKind::Directory, &visible)?;
            ns.insert(
                &p("/svc/fs"),
                "read",
                NodeKind::Procedure,
                Protection::new(
                    Acl::from_entries([AclEntry::allow_principal(
                        principals[0],
                        AccessMode::Execute,
                    )]),
                    SecurityClass::bottom(),
                ),
            )?;
            ns.insert(
                &p("/obj"),
                "file",
                NodeKind::Object,
                Protection::new(
                    Acl::public(ModeSet::parse("rl").unwrap()),
                    SecurityClass::bottom(),
                ),
            )?;
            Ok(())
        })
        .unwrap();
    World {
        monitor,
        principals,
        classes,
    }
}

impl World {
    fn subject(&self, who: usize, class: usize) -> Subject {
        Subject::new(
            self.principals[who % self.principals.len()],
            self.classes[class % self.classes.len()].clone(),
        )
    }
}

#[derive(Clone, Debug)]
enum Op {
    Check {
        who: usize,
        class: usize,
        path: usize,
        mode: usize,
    },
    SetAcl {
        path: usize,
        who: usize,
        mode: usize,
        negative: bool,
    },
    SetLabel {
        path: usize,
        label: usize,
    },
    Visibility(bool),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..3usize, 0..3usize, 0..PATHS.len(), 0..MODES.len())
            .prop_map(|(who, class, path, mode)| Op::Check { who, class, path, mode }),
        2 => (0..PATHS.len(), 0..3usize, 0..MODES.len(), proptest::bool::ANY)
            .prop_map(|(path, who, mode, negative)| Op::SetAcl { path, who, mode, negative }),
        2 => (0..PATHS.len(), 0..3usize).prop_map(|(path, label)| Op::SetLabel { path, label }),
        1 => proptest::bool::ANY.prop_map(Op::Visibility),
    ]
}

/// Applies a mutation identically to both worlds (telemetry cannot make
/// a mutation behave differently either).
fn apply(world: &World, op: &Op) -> String {
    match op {
        Op::Check { .. } => String::new(),
        Op::SetAcl {
            path,
            who,
            mode,
            negative,
        } => {
            let target = p(PATHS[*path]);
            let entry = if *negative {
                AclEntry::deny_principal(world.principals[*who], MODES[*mode])
            } else {
                AclEntry::allow_principal(world.principals[*who], MODES[*mode])
            };
            let result = world.monitor.bootstrap(|ns| {
                let id = match ns.resolve(&target) {
                    Ok(id) => id,
                    Err(_) => return Ok(()),
                };
                ns.update_protection(id, |prot| {
                    prot.acl = Acl::from_entries([
                        AclEntry::allow_principal(world.principals[0], AccessMode::List),
                        entry,
                    ]);
                })
            });
            format!("{result:?}")
        }
        Op::SetLabel { path, label } => {
            let target = p(PATHS[*path]);
            let label = world.classes[*label].clone();
            let result = world.monitor.bootstrap(|ns| {
                let id = match ns.resolve(&target) {
                    Ok(id) => id,
                    Err(_) => return Ok(()),
                };
                ns.update_protection(id, |prot| prot.label = label.clone())
            });
            format!("{result:?}")
        }
        Op::Visibility(on) => {
            let mut config = world.monitor.config();
            config.check_visibility = *on;
            world.monitor.set_config(config);
            String::new()
        }
    }
}

proptest! {
    /// The instrumented pipeline is decision-equivalent to the
    /// uninstrumented one across random interleavings of checks and
    /// policy mutations — through the cached path, the cache-bypassing
    /// floating path, and one pinned view — and the enabled side counted
    /// exactly what happened.
    #[test]
    fn decisions_identical_with_telemetry_on_and_off(
        ops in vec(op_strategy(), 24..48),
    ) {
        let on = build_world(true);
        let off = build_world(false);
        let mut checks = 0u64;
        let mut by_mode = [0u64; MODES.len()];
        for (i, op) in ops.iter().enumerate() {
            if let Op::Check { who, class, path, mode } = op {
                let target = p(PATHS[*path]);
                let s_on = on.subject(*who, *class);
                let s_off = off.subject(*who, *class);
                let d_on = on.monitor.check(&s_on, &target, MODES[*mode]);
                let d_off = off.monitor.check(&s_off, &target, MODES[*mode]);
                prop_assert_eq!(&d_on, &d_off, "decision diverged at op {}", i);
                let f_on = FloatingSubject::new(s_on)
                    .check(&on.monitor, &target, MODES[*mode]);
                let f_off = FloatingSubject::new(s_off)
                    .check(&off.monitor, &target, MODES[*mode]);
                prop_assert_eq!(
                    f_on.allowed(), f_off.allowed(),
                    "floating decision diverged at op {}", i
                );
                checks += 2;
                by_mode[*mode] += 2;
            } else {
                prop_assert_eq!(apply(&on, op), apply(&off, op), "mutation diverged at op {}", i);
            }
        }
        // One pinned view sweeping the whole surface on both monitors.
        {
            let v_on = on.monitor.view();
            let v_off = off.monitor.view();
            for who in 0..3 {
                for path in PATHS {
                    for (m, mode) in MODES.iter().enumerate() {
                        let target = p(path);
                        prop_assert_eq!(
                            v_on.check(&on.subject(who, who), &target, *mode),
                            v_off.check(&off.subject(who, who), &target, *mode)
                        );
                        checks += 1;
                        by_mode[m] += 1;
                    }
                }
            }
        }
        // The disabled side recorded nothing; the enabled side recorded
        // exactly one Check sample and one mode count per check.
        let s_off = off.monitor.telemetry_snapshot();
        prop_assert!(!s_off.enabled);
        prop_assert_eq!(s_off.checks(), 0);
        let s_on = on.monitor.telemetry_snapshot();
        prop_assert_eq!(s_on.checks(), checks);
        for (m, mode) in MODES.iter().enumerate() {
            prop_assert_eq!(s_on.mode(*mode), by_mode[m], "mode counter for {}", mode);
        }
        let mode_total: u64 = MODES.iter().map(|m| s_on.mode(*m)).sum();
        prop_assert_eq!(mode_total, checks, "mode counters must partition the checks");
    }
}

/// Every stage histogram in a snapshot is internally consistent.
fn assert_coherent(snap: &TelemetrySnapshot) {
    for stage in &snap.stages {
        let hist = &stage.hist;
        let bucket_total: u64 = hist.buckets.iter().sum();
        assert_eq!(
            hist.count, bucket_total,
            "torn histogram for stage {}: count {} != bucket sum {}",
            stage.stage, hist.count, bucket_total
        );
        if hist.count > 0 {
            assert!(
                hist.min_ns <= hist.max_ns,
                "stage {}: min {} > max {}",
                stage.stage,
                hist.min_ns,
                hist.max_ns
            );
        }
    }
}

/// The concurrency stress mix with telemetry enabled: ACL and label
/// writers race `check`, `check_unmemoized` and view readers while a
/// sampler takes snapshots the whole time. Every observed counter must
/// be monotone across successive snapshots and every histogram
/// tear-free; after the threads join, the totals must account for every
/// check exactly.
#[test]
fn snapshots_are_monotone_and_tear_free_under_stress() {
    let world = Arc::new(build_world(true));
    let stop = Arc::new(AtomicBool::new(false));

    let acl_writer = {
        let world = Arc::clone(&world);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                apply(
                    &world,
                    &Op::SetAcl {
                        path: 2,
                        who: i % 3,
                        mode: i % MODES.len(),
                        negative: i.is_multiple_of(5),
                    },
                );
                apply(
                    &world,
                    &Op::SetLabel {
                        path: 3,
                        label: i % 3,
                    },
                );
                i += 1;
            }
        })
    };

    let readers: Vec<_> = (0..4)
        .map(|t| {
            let world = Arc::clone(&world);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut mine = [0u64; MODES.len()];
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let mode = (i + t) % MODES.len();
                    let subject = world.subject(t, t);
                    let target = p(PATHS[i % PATHS.len()]);
                    match i % 3 {
                        0 => {
                            world.monitor.check(&subject, &target, MODES[mode]);
                        }
                        1 => {
                            FloatingSubject::new(subject).check(
                                &world.monitor,
                                &target,
                                MODES[mode],
                            );
                        }
                        _ => {
                            world.monitor.view().check(&subject, &target, MODES[mode]);
                        }
                    }
                    mine[mode] += 1;
                    i += 1;
                }
                mine
            })
        })
        .collect();

    // Sampler: runs on this thread while the others race.
    let mut prev = world.monitor.telemetry_snapshot();
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(300);
    let mut samples = 0u64;
    while std::time::Instant::now() < deadline {
        let snap = world.monitor.telemetry_snapshot();
        assert_coherent(&snap);
        assert!(
            snap.checks() >= prev.checks(),
            "check count went backwards: {} -> {}",
            prev.checks(),
            snap.checks()
        );
        for stage in Stage::ALL {
            assert!(
                snap.stage(stage).count >= prev.stage(stage).count,
                "stage {stage} count went backwards"
            );
        }
        for mode in MODES {
            assert!(
                snap.mode(mode) >= prev.mode(mode),
                "mode {mode} counter went backwards"
            );
        }
        prev = snap;
        samples += 1;
    }
    stop.store(true, Ordering::Relaxed);
    acl_writer.join().unwrap();
    let per_reader: Vec<[u64; MODES.len()]> =
        readers.into_iter().map(|h| h.join().unwrap()).collect();

    // Quiesced: the totals must be exact, not merely monotone.
    let total: u64 = per_reader.iter().flatten().sum();
    let snap = world.monitor.telemetry_snapshot();
    assert_coherent(&snap);
    assert!(samples > 0 && total > 0, "stress mix made no progress");
    assert_eq!(
        snap.checks(),
        total,
        "every check must be counted exactly once"
    );
    for (m, mode) in MODES.iter().enumerate() {
        let expected: u64 = per_reader.iter().map(|r| r[m]).sum();
        assert_eq!(snap.mode(*mode), expected, "mode counter for {mode}");
    }
    // Each check probes the cache once (the floating path bypasses it)
    // and resolves at least once; the audit stage saw every decision.
    assert!(snap.stage(Stage::Resolve).count >= total);
    assert!(
        snap.stage(Stage::Audit).count > 0,
        "audit stage never timed"
    );
    // One view per `view()` reader call, each with exactly one op.
    assert!(snap.views > 0 && snap.view_ops >= snap.views);
}
