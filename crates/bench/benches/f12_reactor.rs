//! F12 — the reactor under fan-in: connections × batch × shards.
//!
//! F11 priced the wire path through the thread-per-connection server;
//! F12 prices it through the readiness reactor and adds the dimension
//! the old design could not express: *thousands* of concurrent
//! pipelined connections on a fixed, small number of shard threads.
//!
//! Two questions, one sweep:
//!
//! - **Amortization.** With the vectorized server-side batch path (one
//!   snapshot pin, sorted shared-prefix resolution, one decision per
//!   distinct node and mode, replies coalesced into one flush), how
//!   close does batch-64 wire cost get to the in-process warm floor?
//! - **Fan-in.** Does per-check cost hold as live connections grow from
//!   1 to the thousands — i.e. does the reactor actually multiplex, or
//!   does it degrade into queueing?
//!
//! The load generator keeps one pipelined batch outstanding per
//! connection: a few driver threads each own a slice of raw sockets,
//! write the round's frame on every socket, then collect every reply —
//! a closed loop per connection, concurrency = live connections.
//! Clients time their own loops (as in F9/F11); the aggregate is total
//! checks over the slowest driver's wall time. **Read the numbers with
//! the host in mind**: driver threads and shards share the same CPUs
//! (CI runs this on a single core), so large cells measure a saturated
//! machine, not server latency in isolation.
//!
//! Set `EXTSEC_BENCH_SMOKE=1` for a fast correctness pass (CI) instead
//! of the full measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use extsec_core::{
    AccessMode, Acl, AclEntry, Lattice, ModeSet, MonitorBuilder, MonitorConfig, NodeKind, NsPath,
    Protection, ReferenceMonitor, SecurityClass, Subject,
};
use extsec_server::proto::{self, BatchItem, Request, Response, MAX_FRAME};
use extsec_server::{Client, ClientConfig, Server, ServerConfig};
use std::hint::black_box;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

fn smoke() -> bool {
    std::env::var_os("EXTSEC_BENCH_SMOKE").is_some()
}

/// Driver threads for the fan-in sweep (each owns a slice of sockets).
const DRIVERS: usize = 4;

/// The F9/F11 fixture: `/svc/fs/op` granting execute to one principal
/// per driver thread; audit off (the production shape).
fn world(drivers: usize) -> (Arc<ReferenceMonitor>, Vec<Subject>) {
    let lattice = Lattice::build(["low", "high"], ["c0"]).unwrap();
    let mut builder = MonitorBuilder::new(lattice);
    let principals: Vec<_> = (0..drivers)
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

fn spawn_server(monitor: &Arc<ReferenceMonitor>, shards: usize) -> Server {
    Server::spawn(
        Arc::clone(monitor),
        "127.0.0.1:0",
        ServerConfig {
            workers: shards,
            accept_queue: 8192,
            max_connections: 16384,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// One encoded `BatchCheck` round for `subject`.
fn batch_frame(subject: &Subject, batch: usize) -> Vec<u8> {
    Request::BatchCheck {
        subject: subject.clone(),
        items: (0..batch)
            .map(|_| BatchItem {
                path: p("/svc/fs/op"),
                mode: AccessMode::Execute,
            })
            .collect(),
    }
    .encode()
}

/// Round-trips one encoded request on every socket in the slice: write
/// all, then read all — one outstanding pipeline per connection.
fn round(socks: &mut [TcpStream], frame: &[u8], batch: usize, verify: bool) {
    for stream in socks.iter_mut() {
        proto::write_frame(stream, frame).unwrap();
    }
    for stream in socks.iter_mut() {
        let reply = proto::read_frame(stream, MAX_FRAME).unwrap();
        let response = Response::decode(reply.opcode, &reply.payload).unwrap();
        match response {
            Response::Batch(decisions) => {
                if verify {
                    assert_eq!(decisions.len(), batch);
                    assert!(decisions.iter().all(|d| d.allowed()));
                }
                black_box(decisions);
            }
            other => panic!("wanted Batch, got {other:?}"),
        }
    }
}

/// Fan-in sweep cell: `connections` live sockets split across `DRIVERS`
/// driver threads, each socket round-tripping batches of `batch` until
/// `rounds` batches per socket are done. Returns (ns/check, checks/s).
fn reactor_cell(
    subjects: &[Subject],
    server: &Server,
    connections: usize,
    batch: usize,
    rounds: u64,
) -> (f64, f64) {
    let addr = server.local_addr();
    let drivers = DRIVERS.min(connections);
    let barrier = Arc::new(Barrier::new(drivers));
    let per_driver = connections / drivers;
    let remainder = connections % drivers;
    let handles: Vec<_> = (0..drivers)
        .map(|t| {
            let own = per_driver + usize::from(t < remainder);
            let frame = batch_frame(&subjects[t], batch);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut socks: Vec<TcpStream> = (0..own)
                    .map(|_| {
                        let stream = TcpStream::connect(addr).unwrap();
                        stream.set_nodelay(true).unwrap();
                        stream
                            .set_read_timeout(Some(Duration::from_secs(30)))
                            .unwrap();
                        stream
                    })
                    .collect();
                // Warm every connection and the snapshot pin.
                round(&mut socks, &frame, batch, true);
                barrier.wait();
                let start = Instant::now();
                for _ in 0..rounds {
                    round(&mut socks, &frame, batch, false);
                }
                (start.elapsed().as_secs_f64(), own as u64)
            })
        })
        .collect();
    let mut slowest = 0.0f64;
    let mut total_conns = 0u64;
    for handle in handles {
        let (elapsed, own) = handle.join().unwrap();
        slowest = slowest.max(elapsed);
        total_conns += own;
    }
    let checks = total_conns * rounds * batch as u64;
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
        report_reactor_table(true);
        return;
    }

    // Criterion rows: one connection through the reactor, the batch
    // sweep — directly comparable with the F11 criterion rows.
    let mut group = c.benchmark_group("f12_reactor");
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

    report_reactor_table(false);
}

/// Prints the EXPERIMENTS.md table: the in-process baseline, then the
/// connections × batch sweep (fixed shards) with per-check wire cost.
fn report_reactor_table(smoke: bool) {
    let shards = 2usize;
    let baseline_iters = if smoke { 2_000 } else { 200_000 };
    // Total checks per cell, before the per-connection floor of 2
    // rounds lifts the biggest cells above it.
    let cell_target: u64 = if smoke { 4_096 } else { 262_144 };
    let conn_sweep: &[usize] = if smoke { &[1, 64, 256] } else { &[1, 64, 1024] };

    println!("\nf12 reactor table (closed loop per connection, loopback TCP):");
    let (baseline_monitor, baseline_subjects) = world(1);
    let base = in_process_ns(&baseline_monitor, &baseline_subjects[0], baseline_iters);
    println!("{:<26} {:>12.0} ns/check", "in-process warm", base);
    println!("shards={shards} drivers={DRIVERS} (drivers and shards share the host's cores)");

    println!(
        "{:<12} {:>8} {:>14} {:>14} {:>10}",
        "connections", "batch", "ns/check", "checks/s", "vs base"
    );
    let (monitor, subjects) = world(DRIVERS);
    let server = spawn_server(&monitor, shards);
    for &connections in conn_sweep {
        for batch in [1usize, 16, 64] {
            let rounds = (cell_target / (connections as u64 * batch as u64)).max(2);
            let (ns, rate) = reactor_cell(&subjects, &server, connections, batch, rounds);
            println!(
                "{:<12} {:>8} {:>14.0} {:>14.0} {:>9.1}x",
                connections,
                batch,
                ns,
                rate,
                ns / base
            );
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.accepted, stats.closed, "no connection slot leaked");
    assert_eq!(stats.protocol_errors, 0, "clean protocol run");
    assert_eq!(stats.worker_panics, 0);
    println!(
        "f12 reactor telemetry: polls={} ready={} wakeups={} flushes={} \
         flushed_responses={} batched_checks={}",
        stats.polls,
        stats.ready_events,
        stats.wakeups,
        stats.flushes,
        stats.flushed_responses,
        stats.checks_in_batches
    );

    // Smoke-visible sanity: the reactor's wire path agrees with the
    // monitor, decision for decision.
    let (monitor, subjects) = world(1);
    let server = spawn_server(&monitor, 1);
    let mut client = Client::connect(server.local_addr(), ClientConfig::default()).unwrap();
    let path = p("/svc/fs/op");
    let items: Vec<_> = (0..8)
        .map(|_| (path.clone(), AccessMode::Execute))
        .collect();
    let wire = client.batch_check(&subjects[0], &items).unwrap();
    for decision in &wire {
        assert_eq!(
            format!("{decision:?}"),
            format!(
                "{:?}",
                monitor.check(&subjects[0], &path, AccessMode::Execute)
            )
        );
    }
    assert!(wire.iter().all(|d| d.allowed()));
    drop(client);
    let stats = server.shutdown();
    println!(
        "f12 sanity: wire batch == in-process decisions; {} batched checks served",
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
