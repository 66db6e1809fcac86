//! The audit ring as the monitor uses it: attaching a pipeline, the
//! in-memory view after wraparound, a check path that allocates nothing
//! and a batch that allocates only its result once the ring has wrapped,
//! and writers that wait for a live drainer rather than overwrite what
//! it has not read, also while an admin verifies the log. An extension
//! cannot have a path longer than a record holds checked, so it cannot
//! damage the persisted log.
//!
//! A counting global allocator counts, per thread, only while that
//! thread's `WATCHED` flag is set, so the pipeline's drainer (which
//! allocates while it encodes and persists) and other tests running in
//! parallel do not count.

use extsec_core::{
    AccessMode, Acl, AclEntry, AuditPipeline, AuditQuery, AuditRecord, Decision, ExtError,
    GapRange, Lattice, ModeSet, MonitorBuilder, NodeKind, NsPath, Outcome, PipelineConfig,
    Protection, ReferenceMonitor, SecurityClass, ServiceError, Subject, SystemBuilder, Value,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct CountingAllocator;

thread_local! {
    /// Whether this thread's allocations are counted.
    static WATCHED: Cell<bool> = const { Cell::new(false) };
    /// Allocations this thread made while watched.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if WATCHED.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

/// Runs `f` with this thread watched; returns the heap allocations it
/// made.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    WATCHED.with(|w| w.set(true));
    f();
    WATCHED.with(|w| w.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps a counter, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

/// `/svc/fs/read` executable by `target`; `/svc/fs/stat` executable by
/// `target` too, behind an entry for a group `target` is not in;
/// `/svc/fs` visible to all.
fn world() -> (Arc<ReferenceMonitor>, Subject) {
    let lattice = Lattice::build(["low", "high"], ["c0"]).unwrap();
    let mut builder = MonitorBuilder::new(lattice);
    let target = builder.add_principal("target").unwrap();
    let staff = builder.add_group("staff").unwrap();
    let monitor = builder.build();
    monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                Acl::public(ModeSet::only(AccessMode::List)),
                SecurityClass::bottom(),
            );
            ns.ensure_path(&p("/svc/fs"), NodeKind::Domain, &visible)?;
            ns.insert(
                &p("/svc/fs"),
                "read",
                NodeKind::Procedure,
                Protection::new(
                    Acl::from_entries([AclEntry::allow_principal(target, AccessMode::Execute)]),
                    SecurityClass::bottom(),
                ),
            )?;
            ns.insert(
                &p("/svc/fs"),
                "stat",
                NodeKind::Procedure,
                Protection::new(
                    Acl::from_entries([
                        AclEntry::allow_group(staff, AccessMode::Execute),
                        AclEntry::allow_principal(target, AccessMode::Execute),
                    ]),
                    SecurityClass::bottom(),
                ),
            )?;
            Ok(())
        })
        .unwrap();
    (monitor, Subject::new(target, SecurityClass::bottom()))
}

fn attach(monitor: &ReferenceMonitor, slots: usize) -> Arc<AuditPipeline> {
    let pipeline = Arc::new(AuditPipeline::in_memory(PipelineConfig {
        queue_capacity: slots,
        ..PipelineConfig::default()
    }));
    monitor.attach_audit_pipeline(Arc::clone(&pipeline));
    pipeline
}

/// Attaching switches recording into the pipeline's ring; the numbers
/// the monitor handed out before the switch become one declared gap.
#[test]
fn attach_switches_rings_and_declares_the_earlier_numbers() {
    let (monitor, subject) = world();
    let path = p("/svc/fs/read");
    for _ in 0..3 {
        monitor.check(&subject, &path, AccessMode::Execute);
    }
    let pipeline = attach(&monitor, 64);
    assert!(monitor.audit().is_empty());
    assert_eq!(monitor.audit_stats().ring_dropped, 3);
    monitor.check(&subject, &path, AccessMode::Execute);
    monitor.check(&subject, &path, AccessMode::Write);
    let seqs: Vec<u64> = monitor.audit().events().iter().map(|e| e.seq).collect();
    assert_eq!(seqs, [3, 4]);
    let persisted = monitor.audit_query(&AuditQuery::default()).unwrap();
    assert_eq!(persisted.gaps, [GapRange { first: 0, last: 2 }]);
    assert_eq!(
        persisted.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
        [3, 4]
    );
    assert_eq!(persisted.records[0].path, "/svc/fs/read");
    let stats = pipeline.stats();
    assert_eq!((stats.shed, stats.enqueued), (0, 2));
}

/// A call of `/svc/fs/read` whose path argument would make a node path
/// longer than an audit record holds fails with a service error before
/// any check is made, so the persisted log keeps verifying and holds
/// the calls on either side of it.
#[test]
fn a_path_argument_longer_than_a_record_holds_fails_before_the_log() {
    let mut builder = SystemBuilder::new(Lattice::build(["low"], ["c0"]).unwrap());
    builder.principal("caller").unwrap();
    let system = builder.build().unwrap();
    let pipeline = attach(&system.monitor, 64);
    let caller = system.subject("caller", "low").unwrap();
    let read = p("/svc/fs/read");
    let call = |arg: &str| {
        system
            .runtime
            .call(&caller, &read, &[Value::Str(arg.into())])
    };
    assert!(call("notes").is_err(), "no such file");
    let long = "a".repeat(5000);
    assert!(
        matches!(
            call(&long),
            Err(ExtError::Service(ServiceError::BadArgs(_)))
        ),
        "a path argument of {} bytes is a bad argument",
        long.len()
    );
    assert!(call("notes").is_err());
    let report = system.monitor.audit_verify().unwrap();
    assert!(report.ok, "{report:?}");
    let persisted = system.monitor.audit_query(&AuditQuery::default()).unwrap();
    assert!(persisted.gaps.is_empty(), "{:?}", persisted.gaps);
    assert!(persisted.records.iter().all(|r| r.path.len() < 64));
    let reads = persisted
        .records
        .iter()
        .filter(|r| r.path == "/obj/fs/notes");
    assert_eq!(reads.count(), 2, "{:?}", persisted.records);
    drop(pipeline);
}

/// After the pipeline's ring has wrapped several times, the in-memory
/// view holds exactly the newest `capacity` events, in sequence order,
/// each with the decision `check` returned for it.
#[test]
fn events_after_wraparound_are_the_newest_lap_with_their_decisions() {
    const SLOTS: usize = 64;
    let (monitor, subject) = world();
    let pipeline = attach(&monitor, SLOTS);
    let probes = [
        (p("/svc/fs/read"), AccessMode::Execute),
        (p("/svc/fs/read"), AccessMode::Write),
        (p("/svc/fs/missing"), AccessMode::Read),
        (p("/svc/fs"), AccessMode::List),
        (p("/svc/fs/read/deeper"), AccessMode::Read),
    ];
    let mut returned: Vec<Decision> = Vec::new();
    for i in 0..3 * SLOTS + 5 {
        let (path, mode) = &probes[i % probes.len()];
        returned.push(monitor.check(&subject, path, *mode));
    }
    assert!(returned.iter().any(|d| d.allowed()));
    assert!(returned.iter().any(|d| !d.allowed()));

    let events = monitor.audit().events();
    assert_eq!(events.len(), SLOTS);
    let first = (returned.len() - SLOTS) as u64;
    for (i, event) in events.iter().enumerate() {
        let n = first as usize + i;
        let (path, mode) = &probes[n % probes.len()];
        assert_eq!(event.seq, first + i as u64);
        assert_eq!(event.decision, returned[n], "seq {}", event.seq);
        assert_eq!((&event.path, event.mode), (path, *mode));
        assert_eq!(
            (event.principal, event.thread),
            (subject.principal, subject.thread)
        );
    }
    let stats = monitor.audit_stats();
    assert_eq!(stats.retained, SLOTS);
    assert_eq!(stats.ring_dropped, (returned.len() - SLOTS) as u64);
    monitor.audit_flush().unwrap();
    assert!(monitor.audit_verify().unwrap().ok);
    drop(pipeline);
}

/// Once every slot's buffers have grown on the first lap, an audited
/// check with the pipeline attached makes no heap allocation on the
/// checking thread — including one whose ACL names a group the subject
/// is not in.
#[test]
fn audited_checks_allocate_nothing_after_one_lap() {
    const SLOTS: usize = 1024;
    const CHECKS: u64 = 10_000;
    let (monitor, subject) = world();
    let pipeline = attach(&monitor, SLOTS);
    // Equal lengths, so a slot's path buffer fits either.
    let paths = [p("/svc/fs/read"), p("/svc/fs/stat")];
    for i in 0..=2 * SLOTS {
        assert!(monitor
            .check(&subject, &paths[i % 2], AccessMode::Execute)
            .allowed());
    }
    let first = pipeline.ring().next_seq();

    let allocations = allocations_in(|| {
        for i in 0..CHECKS {
            let path = &paths[i as usize % 2];
            black_box(monitor.check(black_box(&subject), path, AccessMode::Execute));
        }
    });

    assert_eq!(allocations, 0);
    assert_eq!(
        pipeline.ring().next_seq() - first,
        CHECKS,
        "every check audited"
    );
    monitor.audit_flush().unwrap();
    let stats = pipeline.stats();
    assert_eq!(stats.enqueued, stats.persisted_events + stats.late_dropped);
    assert_eq!(stats.persisted_events + stats.gap_missing, stats.next_seq);
}

/// A check granted through nested groups walks the subgroup chain on
/// this thread's kept stack and visited set, so once the ring has
/// wrapped, a warm audited check granted through 4 levels of nesting
/// makes no heap allocation on the checking thread either.
#[test]
fn audited_checks_through_nested_groups_allocate_nothing_after_one_lap() {
    const SLOTS: usize = 1024;
    const CHECKS: u64 = 10_000;
    let lattice = Lattice::build(["low", "high"], ["c0"]).unwrap();
    let mut builder = MonitorBuilder::new(lattice);
    let target = builder.add_principal("target").unwrap();
    let levels: Vec<_> = (0..4)
        .map(|i| builder.add_group(format!("level{i}")).unwrap())
        .collect();
    builder.add_member(levels[0], target).unwrap();
    for pair in levels.windows(2) {
        builder.add_subgroup(pair[1], pair[0]).unwrap();
    }
    let monitor = builder.build();
    let path = p("/svc/fs/read");
    monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                Acl::public(ModeSet::only(AccessMode::List)),
                SecurityClass::bottom(),
            );
            let fs = ns.ensure_path(&p("/svc/fs"), NodeKind::Domain, &visible)?;
            let grant = AclEntry::allow_group(levels[3], AccessMode::Execute);
            let protection = Protection::new(Acl::from_entries([grant]), SecurityClass::bottom());
            ns.insert_at(fs, "read", NodeKind::Procedure, protection)
        })
        .unwrap();
    let subject = Subject::new(target, SecurityClass::bottom());
    let pipeline = attach(&monitor, SLOTS);
    for _ in 0..=2 * SLOTS {
        assert!(monitor
            .check(&subject, &path, AccessMode::Execute)
            .allowed());
    }
    let first = pipeline.ring().next_seq();

    let allocations = allocations_in(|| {
        for _ in 0..CHECKS {
            black_box(monitor.check(black_box(&subject), &path, AccessMode::Execute));
        }
    });

    assert_eq!(allocations, 0);
    assert_eq!(pipeline.ring().next_seq() - first, CHECKS);
}

/// Once the ring has wrapped, a warm audited batch makes exactly one
/// heap allocation on the checking thread: the `Vec` of its decisions.
/// Each item is an ordinary check, so a batch needs no scratch memory of
/// its own.
#[test]
fn audited_batches_allocate_only_their_result_after_one_lap() {
    const SLOTS: usize = 1024;
    const BATCHES: u64 = 500;
    const ITEMS: usize = 16;
    let (monitor, subject) = world();
    let pipeline = attach(&monitor, SLOTS);
    // Equal lengths, so a slot's path buffer fits either.
    let paths = [p("/svc/fs/read"), p("/svc/fs/stat")];
    let items: Vec<(NsPath, AccessMode)> = (0..ITEMS)
        .map(|i| (paths[i % 2].clone(), AccessMode::Execute))
        .collect();
    for _ in 0..=2 * SLOTS / ITEMS {
        let decisions = monitor.check_batch(&subject, &items);
        assert!(decisions.iter().all(Decision::allowed));
    }
    let first = pipeline.ring().next_seq();

    let allocations = allocations_in(|| {
        for _ in 0..BATCHES {
            black_box(monitor.check_batch(black_box(&subject), &items));
        }
    });

    assert_eq!(allocations, BATCHES, "one allocation per batch");
    assert_eq!(
        pipeline.ring().next_seq() - first,
        BATCHES * ITEMS as u64,
        "every item audited"
    );
}

/// Writers a whole ring ahead of a live drainer wait for it rather than
/// overwrite records it has not read: a burst of audited checks from two
/// threads, many times the ring's size, reaches the chain whole.
#[test]
fn a_burst_far_larger_than_the_ring_loses_nothing_to_a_live_drainer() {
    const SLOTS: usize = 1024;
    const PER_THREAD: u64 = 25_000;
    let (monitor, subject) = world();
    // A stall period far above any pause of a live drainer, even in an
    // unoptimized build sharing its cores with other tests.
    let pipeline = Arc::new(AuditPipeline::in_memory(PipelineConfig {
        queue_capacity: SLOTS,
        idle_flush: Duration::from_secs(1),
        ..PipelineConfig::default()
    }));
    monitor.attach_audit_pipeline(Arc::clone(&pipeline));
    let paths = [p("/svc/fs/read"), p("/svc/fs/stat")];
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for i in 0..PER_THREAD {
                    let path = &paths[i as usize % 2];
                    assert!(monitor.check(&subject, path, AccessMode::Execute).allowed());
                }
            });
        }
    });
    monitor.audit_flush().unwrap();
    let stats = pipeline.stats();
    assert_eq!(stats.next_seq, 2 * PER_THREAD, "{stats:?}");
    assert_eq!(stats.shed, 0, "{stats:?}");
    assert_eq!(stats.persisted_events, stats.next_seq, "{stats:?}");
}

/// An admin verify no longer stops the drainer: two threads run audited
/// checks while the main thread verifies, again and again, a log that
/// takes five stall periods to re-hash, and not one record is shed.
#[test]
fn verifying_a_long_log_during_a_check_burst_sheds_nothing() {
    const SLOTS: usize = 1024;
    const PER_THREAD: u64 = 16 * SLOTS as u64;
    let (monitor, subject) = world();
    let pipeline = attach(&monitor, SLOTS);
    let stall = PipelineConfig::default().idle_flush * 2;

    // Double the log, a ring's worth between flushes so the filler never
    // waits for the drainer, until one verify takes five stall periods in
    // the build this runs in.
    let record = AuditRecord {
        seq: 0,
        principal: 0,
        generation: 1,
        mode: 0,
        outcome: Outcome::Allow,
        path: "/svc/fs/read".to_owned(),
    };
    loop {
        for _ in 0..pipeline.next_seq().max(1).div_ceil(SLOTS as u64) {
            for _ in 0..SLOTS {
                pipeline.ring().append(&record);
            }
            pipeline.flush().unwrap();
        }
        let started = Instant::now();
        assert!(monitor.audit_verify().unwrap().ok);
        if started.elapsed() >= 5 * stall {
            break;
        }
    }

    let prefill = pipeline.next_seq();
    let checkers_done = AtomicU64::new(0);
    let paths = [p("/svc/fs/read"), p("/svc/fs/stat")];
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for i in 0..PER_THREAD {
                    let path = &paths[i as usize % 2];
                    assert!(monitor.check(&subject, path, AccessMode::Execute).allowed());
                }
                checkers_done.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Verify at least once, and for as long as the checkers run.
        loop {
            assert!(monitor.audit_verify().unwrap().ok);
            if checkers_done.load(Ordering::Relaxed) == 2 {
                break;
            }
        }
    });
    monitor.audit_flush().unwrap();
    let stats = pipeline.stats();
    assert_eq!(stats.next_seq, prefill + 2 * PER_THREAD, "{stats:?}");
    assert_eq!(stats.shed, 0, "{stats:?}");
    assert_eq!(stats.enqueued, stats.persisted_events + stats.late_dropped);
    assert_eq!(stats.persisted_events + stats.gap_missing, stats.next_seq);
}
