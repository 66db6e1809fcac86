//! F9 — multi-core throughput of the monitor's read path.
//!
//! The seed serialized every check behind one `RwLock<State>` and every
//! audited decision behind one audit mutex, so adding reader threads
//! added no throughput. With the state published as an immutable
//! snapshot (readers pin it with one atomic version load, no lock) and
//! the audit ring sharded, aggregate checks/sec should scale with cores
//! until the hardware runs out.
//!
//! The criterion group measures single-thread latency of the new path
//! (audit on and off). The scaling table below it spawns 1/2/4/8
//! threads — one
//! principal per thread, all granted on the same hot node — and reports
//! aggregate checks/sec per configuration. Run on an N-core box the
//! table is the acceptance criterion; on a 1-CPU container it honestly
//! reports flat scaling (there is only one core to scale onto).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use extsec_core::{
    AccessMode, Acl, AclEntry, Lattice, ModeSet, MonitorBuilder, MonitorConfig, NodeKind, NsPath,
    Protection, ReferenceMonitor, SecurityClass, Subject,
};
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

const MAX_THREADS: usize = 8;

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

/// A monitor with `/svc/fs/op` granting execute to eight per-thread
/// principals (one per thread, the way distinct extensions would run).
fn parallel_world(audit: bool) -> (Arc<ReferenceMonitor>, Vec<Subject>) {
    let lattice = Lattice::build(["low", "high"], ["c0"]).unwrap();
    let mut builder = MonitorBuilder::new(lattice);
    let principals: Vec<_> = (0..MAX_THREADS)
        .map(|i| builder.add_principal(format!("t{i}")).unwrap())
        .collect();
    builder.config(MonitorConfig {
        audit,
        ..MonitorConfig::default()
    });
    let monitor = builder.build();
    monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                Acl::public(ModeSet::only(AccessMode::List)),
                SecurityClass::bottom(),
            );
            ns.ensure_path(&p("/svc/fs"), NodeKind::Domain, &visible)?;
            let entries: Vec<AclEntry> = principals
                .iter()
                .map(|pr| AclEntry::allow_principal(*pr, AccessMode::Execute))
                .collect();
            ns.insert(
                &p("/svc/fs"),
                "op",
                NodeKind::Procedure,
                Protection::new(Acl::from_entries(entries), SecurityClass::bottom()),
            )?;
            Ok(())
        })
        .unwrap();
    let subjects = principals
        .iter()
        .map(|pr| Subject::new(*pr, SecurityClass::bottom()))
        .collect();
    (monitor, subjects)
}

/// Runs `iters` checks on each of `threads` threads against one shared
/// monitor and returns aggregate checks/sec.
fn aggregate_throughput(
    monitor: &Arc<ReferenceMonitor>,
    subjects: &[Subject],
    threads: usize,
    iters: u64,
) -> f64 {
    let path = p("/svc/fs/op");
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let monitor = Arc::clone(monitor);
            let subject = subjects[t].clone();
            let path = path.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Warm this thread's snapshot pin before the clock starts.
                black_box(monitor.check(&subject, &path, AccessMode::Execute));
                barrier.wait();
                for _ in 0..iters {
                    black_box(monitor.check(black_box(&subject), &path, AccessMode::Execute));
                }
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    for handle in handles {
        handle.join().unwrap();
    }
    let elapsed = start.elapsed().as_secs_f64();
    (threads as u64 * iters) as f64 / elapsed
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("f9_parallel_check");
    let path = p("/svc/fs/op");
    for (label, audit) in [("audit-on", true), ("audit-off", false)] {
        let (monitor, subjects) = parallel_world(audit);
        let subject = subjects[0].clone();
        // Warm the pin.
        assert!(monitor
            .check(&subject, &path, AccessMode::Execute)
            .allowed());
        group.bench_with_input(BenchmarkId::new("single-thread", label), &(), |b, ()| {
            b.iter(|| black_box(monitor.check(black_box(&subject), &path, AccessMode::Execute)))
        });
    }
    group.finish();

    report_scaling_table();
}

/// Prints the F9 scaling table: aggregate checks/sec at 1/2/4/8 threads
/// with audit on and off, plus the 8-vs-1 ratio (the acceptance
/// criterion is the audit-on row's).
fn report_scaling_table() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\nf9 scaling table (host has {cores} core(s) available):");
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "configuration", "1 thr", "2 thr", "4 thr", "8 thr", "8/1"
    );
    for (label, audit) in [("audit-on", true), ("audit-off", false)] {
        let iters = 200_000u64;
        let mut row = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let (monitor, subjects) = parallel_world(audit);
            row.push(aggregate_throughput(&monitor, &subjects, threads, iters));
        }
        println!(
            "{:<20} {:>12.2e} {:>12.2e} {:>12.2e} {:>12.2e} {:>7.2}x",
            label,
            row[0],
            row[1],
            row[2],
            row[3],
            row[3] / row[0]
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(600));
    targets = bench
}
criterion_main!(benches);
