//! Telemetry is an observer, never a participant: enabling it must not
//! change a single decision, and its snapshots must be monotone and
//! tear-free while writers race the instrumented pipeline.

use extsec::{
    AccessMode, Acl, AclEntry, Counter, FloatingSubject, Lattice, Metrics, ModeSet, MonitorBuilder,
    MonitorConfig, NodeKind, NsPath, PrincipalId, Protection, ReferenceMonitor, SecurityClass,
    Subject,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

/// Samples of one stage histogram, `refmon.stage.<stage>_ns`.
fn stage(metrics: &Metrics, stage: &str) -> u64 {
    let name = format!("refmon.stage.{stage}_ns");
    metrics
        .histogram(&name)
        .expect("every stage is exported")
        .count
}

/// Checks counted for one access mode.
fn mode_count(metrics: &Metrics, mode: AccessMode) -> u64 {
    metrics
        .get(&Counter::Mode(mode).name())
        .expect("every mode is exported")
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
    /// policy mutations — through single checks, the floating path, and
    /// one pinned view's checks and batches — and the enabled side
    /// counted exactly what happened, each batch item as one check.
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
        // One pinned view sweeping the whole surface on both monitors,
        // item by item and then as one batch per path.
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
                    let items: Vec<(NsPath, AccessMode)> =
                        MODES.iter().map(|mode| (p(path), *mode)).collect();
                    prop_assert_eq!(
                        v_on.check_batch(&on.subject(who, who), &items),
                        v_off.check_batch(&off.subject(who, who), &items)
                    );
                    checks += items.len() as u64;
                    for count in &mut by_mode {
                        *count += 1;
                    }
                }
            }
        }
        // The disabled side recorded nothing; the enabled side recorded
        // exactly one Check sample and one mode count per check.
        let s_off = off.monitor.metrics();
        prop_assert_eq!(s_off.get("refmon.telemetry.enabled"), Some(0));
        prop_assert_eq!(stage(&s_off, "check"), 0);
        let s_on = on.monitor.metrics();
        prop_assert_eq!(stage(&s_on, "check"), checks);
        for (m, mode) in MODES.iter().enumerate() {
            prop_assert_eq!(mode_count(&s_on, *mode), by_mode[m], "mode counter for {}", mode);
        }
        let mode_total: u64 = MODES.iter().map(|m| mode_count(&s_on, *m)).sum();
        prop_assert_eq!(mode_total, checks, "mode counters must partition the checks");
    }
}

/// Every stage histogram in a snapshot is internally consistent.
fn assert_coherent(snap: &Metrics) {
    for (name, hist) in &snap.histograms {
        let bucket_total: u64 = hist.buckets.iter().sum();
        assert_eq!(
            hist.count, bucket_total,
            "torn histogram {name}: count {} != bucket sum {bucket_total}",
            hist.count
        );
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
    let mut prev = world.monitor.metrics();
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(300);
    let mut samples = 0u64;
    while std::time::Instant::now() < deadline {
        let snap = world.monitor.metrics();
        assert_coherent(&snap);
        assert!(
            stage(&snap, "check") >= stage(&prev, "check"),
            "check count went backwards: {} -> {}",
            stage(&prev, "check"),
            stage(&snap, "check")
        );
        for (name, hist) in &snap.histograms {
            assert!(
                hist.count >= prev.histograms[name].count,
                "{name} count went backwards"
            );
        }
        for mode in MODES {
            assert!(
                mode_count(&snap, mode) >= mode_count(&prev, mode),
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
    let snap = world.monitor.metrics();
    assert_coherent(&snap);
    assert!(samples > 0 && total > 0, "stress mix made no progress");
    assert_eq!(
        stage(&snap, "check"),
        total,
        "every check must be counted exactly once"
    );
    for (m, mode) in MODES.iter().enumerate() {
        let expected: u64 = per_reader.iter().map(|r| r[m]).sum();
        assert_eq!(
            mode_count(&snap, *mode),
            expected,
            "mode counter for {mode}"
        );
    }
    // Every check, the floating path's included, walks its path once,
    // and the visibility climb has its own stage, so `resolve` took
    // exactly one sample per check; the audit stage saw every decision.
    assert_eq!(stage(&snap, "resolve"), total);
    assert!(stage(&snap, "audit") > 0, "audit stage never timed");
    // One view per `view()` reader call, each with exactly one op.
    let views = snap.get("refmon.view.opened").unwrap();
    let view_ops = snap.get("refmon.view.ops").unwrap();
    assert!(views > 0 && view_ops >= views);
}
