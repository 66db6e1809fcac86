//! F11 — what the wire costs, and what batching buys back.
//!
//! The networked front end (`extsec-server`) adds a TCP round trip, two
//! frame codecs, and a thread handoff to every check. This bench prices
//! that wire path against the in-process `monitor.check` baseline (the
//! F9 single-thread shape) and shows how batching amortizes it: a
//! `BatchCheck` frame answers `B` checks with one round trip and one
//! snapshot pin, so wire-path ns/check should fall roughly as `1/B`
//! toward the in-process floor.
//!
//! The measurement is a closed loop — each client thread keeps exactly
//! one pipeline outstanding — swept over batch size {1, 16, 64} ×
//! client threads {1, 2, 4} against a loopback server with one worker
//! per client. Clients time their own loops (as in F9) so the aggregate
//! is total checks over the slowest worker's wall time. Set
//! `EXTSEC_BENCH_SMOKE=1` for a fast correctness pass (CI) instead of
//! the full measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use extsec_core::{
    AccessMode, Acl, AclEntry, Lattice, ModeSet, MonitorBuilder, MonitorConfig, NodeKind, NsPath,
    Protection, ReferenceMonitor, SecurityClass, Subject,
};
use extsec_server::{Client, ClientConfig, Server, ServerConfig};
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

fn smoke() -> bool {
    std::env::var_os("EXTSEC_BENCH_SMOKE").is_some()
}

/// The F9 fixture: `/svc/fs/op` granting execute to one principal per
/// client thread; audit off (the production shape).
fn world(clients: usize) -> (Arc<ReferenceMonitor>, Vec<Subject>) {
    let lattice = Lattice::build(["low", "high"], ["c0"]).unwrap();
    let mut builder = MonitorBuilder::new(lattice);
    let principals: Vec<_> = (0..clients)
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

fn spawn_server(monitor: &Arc<ReferenceMonitor>, workers: usize) -> Server {
    Server::spawn(
        Arc::clone(monitor),
        "127.0.0.1:0",
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// Closed-loop sweep cell: `clients` threads, each round-tripping
/// batches of `batch` identical checks until `rounds` batches are done.
/// Returns (ns per check, aggregate checks/sec), timed per-worker as in
/// F9 (total work over the slowest worker's wall time).
fn wire_cell(
    subjects: &[Subject],
    server: &Server,
    clients: usize,
    batch: usize,
    rounds: u64,
) -> (f64, f64) {
    let addr = server.local_addr();
    let path = p("/svc/fs/op");
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|t| {
            let subject = subjects[t].clone();
            let path = path.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, ClientConfig::default()).unwrap();
                let items: Vec<_> = (0..batch)
                    .map(|_| (path.clone(), AccessMode::Execute))
                    .collect();
                // Warm the connection and the snapshot pin.
                let warm = client.batch_check(&subject, &items).unwrap();
                assert!(warm.iter().all(|d| d.allowed()));
                barrier.wait();
                let start = Instant::now();
                for _ in 0..rounds {
                    black_box(client.batch_check(&subject, &items).unwrap());
                }
                start.elapsed().as_secs_f64()
            })
        })
        .collect();
    let slowest = handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .fold(0.0f64, f64::max);
    let checks = clients as u64 * rounds * batch as u64;
    (slowest * 1e9 / checks as f64, checks as f64 / slowest)
}

/// In-process baseline: warm single-thread ns/check (F9's floor).
fn in_process_ns(monitor: &ReferenceMonitor, subject: &Subject, iters: u32) -> f64 {
    let path = p("/svc/fs/op");
    black_box(monitor.check(subject, &path, AccessMode::Execute));
    let start = Instant::now();
    for _ in 0..iters {
        black_box(monitor.check(black_box(subject), &path, AccessMode::Execute));
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn bench(c: &mut Criterion) {
    if smoke() {
        // CI correctness pass: tiny counts, assert rather than measure.
        report_wire_table(40, 2_000);
        return;
    }

    // Criterion rows: one client, the batch sweep (the headline shape).
    let mut group = c.benchmark_group("f11_wire_path");
    let (monitor, subjects) = world(1);
    let server = spawn_server(&monitor, 1);
    for batch in [1usize, 16, 64] {
        group.bench_with_input(
            BenchmarkId::new("batched-check", batch),
            &batch,
            |b, &batch| {
                let mut client =
                    Client::connect(server.local_addr(), ClientConfig::default()).unwrap();
                let items: Vec<_> = (0..batch)
                    .map(|_| (p("/svc/fs/op"), AccessMode::Execute))
                    .collect();
                b.iter(|| black_box(client.batch_check(&subjects[0], &items).unwrap()))
            },
        );
    }
    group.finish();
    server.shutdown();

    report_wire_table(2_000, 200_000);
}

/// Prints the EXPERIMENTS.md table: the in-process baseline, then the
/// batch × clients sweep with per-check wire cost and amortization.
fn report_wire_table(rounds: u64, baseline_iters: u32) {
    println!("\nf11 wire-path table (closed loop, loopback TCP):");

    let (baseline_monitor, baseline_subjects) = world(1);
    let base = in_process_ns(&baseline_monitor, &baseline_subjects[0], baseline_iters);
    println!("{:<26} {:>12.0} ns/check", "in-process warm", base);

    println!(
        "{:<12} {:>8} {:>14} {:>14} {:>10}",
        "clients", "batch", "ns/check", "checks/s", "vs base"
    );
    for clients in [1usize, 2, 4] {
        let (monitor, subjects) = world(clients);
        let server = spawn_server(&monitor, clients);
        for batch in [1usize, 16, 64] {
            // Keep total checks per cell comparable across batch sizes.
            let cell_rounds = (rounds / batch as u64).max(8);
            let (ns, rate) = wire_cell(&subjects, &server, clients, batch, cell_rounds);
            println!(
                "{:<12} {:>8} {:>14.0} {:>14.0} {:>9.1}x",
                clients,
                batch,
                ns,
                rate,
                ns / base
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.accepted, stats.closed, "no connection slot leaked");
        assert_eq!(stats.protocol_errors, 0, "clean protocol run");
    }

    // Smoke-visible sanity: the wire path agrees with the monitor.
    let (monitor, subjects) = world(1);
    let server = spawn_server(&monitor, 1);
    let mut client = Client::connect(server.local_addr(), ClientConfig::default()).unwrap();
    let path = p("/svc/fs/op");
    let wire = client
        .check(&subjects[0], &path, AccessMode::Execute)
        .unwrap();
    assert_eq!(
        wire,
        monitor.check(&subjects[0], &path, AccessMode::Execute)
    );
    assert!(wire.allowed());
    drop(client);
    let stats = server.shutdown();
    println!(
        "f11 sanity: wire decision == in-process decision; {} requests served, {} batched checks",
        stats.requests.iter().map(|r| r.count).sum::<u64>(),
        stats.checks_in_batches
    );
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
