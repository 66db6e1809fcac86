//! F10 — what pipeline telemetry costs, on and off.
//!
//! The telemetry subsystem promises near-zero cost while disabled (every
//! recording point is one relaxed atomic load) and wait-free recording
//! while enabled (sharded counters, fixed-bucket histograms, ~8
//! monotonic-clock reads per cold check). This bench puts numbers on
//! both claims against the two established hot-path workloads:
//!
//! * the F1 tail-grant shape (256 filler ACL entries, audit off),
//!   single-threaded, and
//! * a parallel workload (per-thread principals on one hot node),
//!   to show enabled telemetry does not reintroduce the shared-cache-line
//!   serialization the lock-free read path removed.
//!
//! The acceptance criterion is the disabled-telemetry overhead on the
//! tail-grant row: ≤ 5% versus the same binary with the
//! telemetry calls never compiled out (they never are — disabled *is*
//! the compiled path). Set `EXTSEC_BENCH_SMOKE=1` to run a fast
//! correctness pass (CI) instead of the full measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use extsec_core::{
    AccessMode, Acl, AclEntry, Lattice, ModeSet, MonitorBuilder, MonitorConfig, NodeKind, NsPath,
    Protection, ReferenceMonitor, SecurityClass, Subject,
};
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

fn smoke() -> bool {
    std::env::var_os("EXTSEC_BENCH_SMOKE").is_some()
}

/// The F1 fixture: `/svc/fs/read` carries `len` filler entries with the
/// probing subject's grant at the tail; audit off so the measurement
/// isolates the decision machinery.
fn tail_grant_world(len: usize) -> (Arc<ReferenceMonitor>, Subject) {
    let lattice = Lattice::build(["low", "high"], ["c0"]).unwrap();
    let mut builder = MonitorBuilder::new(lattice);
    let fillers: Vec<_> = (0..len)
        .map(|i| builder.add_principal(format!("p{i}")).unwrap())
        .collect();
    let target = builder.add_principal("target").unwrap();
    builder.config(MonitorConfig {
        audit: false,
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
            let mut entries: Vec<AclEntry> = fillers
                .iter()
                .map(|f| AclEntry::allow_principal_modes(*f, ModeSet::parse("rl").unwrap()))
                .collect();
            entries.push(AclEntry::allow_principal(target, AccessMode::Execute));
            ns.insert(
                &p("/svc/fs"),
                "read",
                NodeKind::Procedure,
                Protection::new(Acl::from_entries(entries), SecurityClass::bottom()),
            )?;
            Ok(())
        })
        .unwrap();
    let subject = Subject::new(target, SecurityClass::bottom());
    (monitor, subject)
}

/// The parallel fixture: `/svc/fs/op` granting execute to one principal
/// per thread.
fn parallel_world(threads: usize) -> (Arc<ReferenceMonitor>, Vec<Subject>) {
    let lattice = Lattice::build(["low", "high"], ["c0"]).unwrap();
    let mut builder = MonitorBuilder::new(lattice);
    let principals: Vec<_> = (0..threads)
        .map(|i| builder.add_principal(format!("t{i}")).unwrap())
        .collect();
    builder.config(MonitorConfig {
        audit: false,
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

/// Mean ns/check over `iters` single-thread checks.
fn time_checks(monitor: &ReferenceMonitor, subject: &Subject, path: &NsPath, iters: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(monitor.check(black_box(subject), path, AccessMode::Execute));
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// Aggregate checks/sec over `threads` threads.
fn aggregate_throughput(
    monitor: &Arc<ReferenceMonitor>,
    subjects: &[Subject],
    threads: usize,
    iters: u64,
) -> f64 {
    let path = p("/svc/fs/op");
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let monitor = Arc::clone(monitor);
            let subject = subjects[t].clone();
            let path = path.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                black_box(monitor.check(&subject, &path, AccessMode::Execute));
                barrier.wait();
                // Each worker times its own loop: on oversubscribed hosts
                // a coordinator-side clock can miss the whole run while
                // descheduled, so the aggregate is total work over the
                // slowest worker's wall time.
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(monitor.check(black_box(&subject), &path, AccessMode::Execute));
                }
                start.elapsed().as_secs_f64()
            })
        })
        .collect();
    let slowest = handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .fold(0.0f64, f64::max);
    (threads as u64 * iters) as f64 / slowest
}

fn bench(c: &mut Criterion) {
    if smoke() {
        // CI correctness pass: tiny iteration counts, assert rather than
        // measure. The full run prints the EXPERIMENTS.md table.
        report_overhead_table(2_000, 20_000);
        return;
    }

    let mut group = c.benchmark_group("f10_telemetry");
    let path = p("/svc/fs/read");
    for enabled in [false, true] {
        let label = if enabled { "on" } else { "off" };

        let (monitor, subject) = tail_grant_world(256);
        monitor.telemetry().set_enabled(enabled);
        assert!(monitor
            .check(&subject, &path, AccessMode::Execute)
            .allowed());
        group.bench_with_input(BenchmarkId::new("tail-grant", label), &(), |b, ()| {
            b.iter(|| black_box(monitor.check(black_box(&subject), &path, AccessMode::Execute)))
        });
    }
    group.finish();

    report_overhead_table(50_000, 300_000);
}

/// Prints the acceptance-criterion table: enabled-vs-disabled overhead
/// on the tail-grant and parallel workloads.
fn report_overhead_table(single_iters: u32, parallel_iters: u64) {
    let path = p("/svc/fs/read");
    println!("\nf10 telemetry overhead table:");
    println!(
        "{:<28} {:>14} {:>14} {:>9}",
        "workload", "telemetry off", "telemetry on", "overhead"
    );

    let mut ns = [0.0f64; 2];
    for (slot, enabled) in [false, true].into_iter().enumerate() {
        let (monitor, subject) = tail_grant_world(256);
        monitor.telemetry().set_enabled(enabled);
        // Warm this thread's snapshot pin.
        black_box(monitor.check(&subject, &path, AccessMode::Execute));
        ns[slot] = time_checks(&monitor, &subject, &path, single_iters);
    }

    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 4);
    let mut rate = [0.0f64; 2];
    for (slot, enabled) in [false, true].into_iter().enumerate() {
        let (monitor, subjects) = parallel_world(threads);
        monitor.telemetry().set_enabled(enabled);
        rate[slot] = aggregate_throughput(&monitor, &subjects, threads, parallel_iters);
    }

    println!(
        "{:<28} {:>11.0} ns/check {:>11.0} ns/check {:>+8.1}%",
        "tail-grant-256",
        ns[0],
        ns[1],
        (ns[1] - ns[0]) / ns[0] * 100.0
    );
    println!(
        "{:<28} {:>10.2e} c/s {:>10.2e} c/s {:>+8.1}%  ({} threads)",
        "parallel",
        rate[0],
        rate[1],
        // Throughput: overhead is the rate *lost* when enabling.
        (rate[0] - rate[1]) / rate[0] * 100.0,
        threads
    );

    // A smoke-visible sanity check that enabled telemetry really counted.
    let (monitor, subject) = tail_grant_world(16);
    monitor.telemetry().set_enabled(true);
    for _ in 0..10 {
        black_box(monitor.check(&subject, &path, AccessMode::Execute));
    }
    let snap = monitor.telemetry_snapshot();
    assert_eq!(snap.checks(), 10, "telemetry must count every check");
    assert_eq!(snap.mode(AccessMode::Execute), 10);
    println!("f10 sanity: telemetry counted {} checks", snap.checks());
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
