//! The audit ring as the monitor uses it: attaching a pipeline, the
//! in-memory view after wraparound, a check path that allocates nothing
//! once the ring has wrapped, and writers that wait for a live drainer
//! rather than overwrite what it has not read.
//!
//! A counting global allocator watches only the thread that sets its
//! `WATCHED` flag, so the pipeline's drainer (which allocates while it
//! encodes and persists) and other tests running in parallel do not
//! count.

use extsec_core::{
    AccessMode, Acl, AclEntry, AuditPipeline, AuditQuery, Decision, GapRange, Lattice, ModeSet,
    MonitorBuilder, NodeKind, NsPath, PipelineConfig, Protection, ReferenceMonitor, SecurityClass,
    Subject,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct CountingAllocator;

thread_local! {
    /// Whether this thread's allocations are counted.
    static WATCHED: Cell<bool> = const { Cell::new(false) };
}

/// Allocations made by watched threads.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if WATCHED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
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

    WATCHED.with(|w| w.set(true));
    for i in 0..CHECKS {
        let path = &paths[i as usize % 2];
        black_box(monitor.check(black_box(&subject), path, AccessMode::Execute));
    }
    WATCHED.with(|w| w.set(false));

    assert_eq!(ALLOCATIONS.load(Ordering::Relaxed), 0);
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
