//! F13 — what tamper-evident auditing costs.
//!
//! The audit pipeline's claim is that persistence rides behind the hot
//! path, not on it: the check path pays one slot write into the audit
//! ring, while the SHA-256 chaining, segment encode, and fsync
//! discipline all happen on the drainer thread, which reads the same
//! ring. This bench prices each layer:
//!
//! * the ring append on a monitor-owned ring, the chained append
//!   (compact encode + SHA-256 chain step, the drainer's per-entry
//!   work), and the ring append into a live pipeline's ring;
//! * the warm check path with audit off, audit on (own ring),
//!   and audit on with the persistent pipeline attached — attaching
//!   the pipeline must stay within baseline noise;
//! * drainer throughput, events/sec from first record to flush barrier,
//!   over the in-memory store and over a real directory.
//!
//! Set `EXTSEC_BENCH_SMOKE=1` for a fast correctness pass (CI) instead
//! of the full measurement.

use criterion::{criterion_group, criterion_main, Criterion};
use extsec_auditlog::{chain_next, AuditPipeline, Entry, PipelineConfig, GENESIS};
use extsec_core::{
    AccessMode, Acl, AclEntry, AuditLog, AuditQuery, AuditRecord, Decision, Lattice, ModeSet,
    MonitorBuilder, MonitorConfig, NodeKind, NsPath, Outcome, Protection, ReferenceMonitor,
    SecurityClass, Subject,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

fn smoke() -> bool {
    std::env::var_os("EXTSEC_BENCH_SMOKE").is_some()
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "extsec-f13-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

fn sample_record(seq: u64) -> AuditRecord {
    AuditRecord {
        seq,
        principal: 7,
        generation: 1,
        mode: AccessMode::Execute as u8,
        outcome: Outcome::Allow,
        path: "/svc/fs/read".into(),
    }
}

/// A one-entry world whose single check is a warm grant; the F1
/// baseline shape with the audit knobs under test.
fn check_world(audit: bool) -> (Arc<ReferenceMonitor>, Subject) {
    let lattice = Lattice::build(["low", "high"], ["c0"]).unwrap();
    let mut builder = MonitorBuilder::new(lattice);
    let target = builder.add_principal("target").unwrap();
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
            ns.insert(
                &p("/svc/fs"),
                "read",
                NodeKind::Procedure,
                Protection::new(
                    Acl::from_entries([AclEntry::allow_principal(target, AccessMode::Execute)]),
                    SecurityClass::bottom(),
                ),
            )?;
            Ok(())
        })
        .unwrap();
    let subject = Subject::new(target, SecurityClass::bottom());
    (monitor, subject)
}

/// Mean ns per ring append on a bare [`AuditLog`], into its own ring or
/// into a pipeline's.
fn time_ring_append(iters: u64, with_pipeline: Option<&AuditPipeline>) -> f64 {
    let log = AuditLog::new();
    if let Some(pipeline) = with_pipeline {
        log.attach_ring(Arc::clone(pipeline.ring()));
    }
    let subject = Subject::new(
        extsec_core::PrincipalId::from_raw(7),
        SecurityClass::bottom(),
    );
    let path = p("/svc/fs/read");
    let decision = Decision::Allow;
    let start = Instant::now();
    for _ in 0..iters {
        black_box(log.record(
            black_box(&subject),
            &path,
            AccessMode::Execute,
            &decision,
            1,
        ));
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Mean ns per chained append: the drainer's per-entry encode + SHA-256
/// chain step over the compact (~40-byte) entry form.
fn time_chained_append(iters: u64) -> f64 {
    let mut entry = Entry::Event(sample_record(0));
    let mut buf = Vec::with_capacity(128);
    let mut head = GENESIS;
    let start = Instant::now();
    for seq in 0..iters {
        if let Entry::Event(record) = &mut entry {
            record.seq = seq;
        }
        entry.encode(&mut buf);
        head = chain_next(&head, &buf);
    }
    let elapsed = start.elapsed().as_nanos() as f64 / iters as f64;
    black_box(head);
    elapsed
}

/// Mean ns per cached-warm check.
fn time_checks(monitor: &ReferenceMonitor, subject: &Subject, iters: u64) -> f64 {
    let path = p("/svc/fs/read");
    assert!(monitor.check(subject, &path, AccessMode::Execute).allowed());
    let start = Instant::now();
    for _ in 0..iters {
        black_box(monitor.check(black_box(subject), &path, AccessMode::Execute));
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Events/sec through the drainer: records written no further than
/// half a ring ahead of the drainer (so none is shed), from first record
/// to completed flush barrier.
fn drainer_throughput(pipeline: &AuditPipeline, events: u64) -> f64 {
    let ring = pipeline.ring();
    let lead = ring.capacity() as u64 / 2;
    let base = pipeline.next_seq();
    let record = sample_record(base);
    let start = Instant::now();
    for _ in 0..events {
        while ring.next_seq() - pipeline.next_seq() >= lead {
            std::hint::spin_loop();
        }
        ring.append(&record);
    }
    pipeline.flush().unwrap();
    let rate = events as f64 / start.elapsed().as_secs_f64();
    let stats = pipeline.stats();
    assert_eq!(
        stats.persisted_events,
        base + events,
        "drainer lost events it accepted"
    );
    rate
}

fn report_table(append_iters: u64, check_iters: u64, drain_events: u64) {
    println!("\nf13 audit cost table:");

    // Append-layer rows.
    let ring = time_ring_append(append_iters, None);
    let chained = time_chained_append(append_iters);
    let attached_pipeline = AuditPipeline::in_memory(PipelineConfig {
        queue_capacity: 1 << 16,
        ..PipelineConfig::default()
    });
    let piped_append = time_ring_append(append_iters, Some(&attached_pipeline));
    attached_pipeline.flush().unwrap();
    println!("{:<34} {:>10.0} ns", "ring append", ring);
    println!(
        "{:<34} {:>10.0} ns  ({:.2}x ring append)",
        "chained append (encode+sha256)",
        chained,
        chained / ring
    );
    println!(
        "{:<34} {:>10.0} ns  ({:+.1}% vs own ring)",
        "ring append, pipeline ring",
        piped_append,
        (piped_append - ring) / ring * 100.0
    );

    // Check-path rows.
    let (off, subject_off) = check_world(false);
    let (ring_only, subject_ring) = check_world(true);
    let (piped, subject_piped) = check_world(true);
    piped.attach_audit_pipeline(Arc::new(AuditPipeline::in_memory(PipelineConfig {
        queue_capacity: 1 << 16,
        ..PipelineConfig::default()
    })));
    let ns_off = time_checks(&off, &subject_off, check_iters);
    let ns_ring = time_checks(&ring_only, &subject_ring, check_iters);
    let ns_piped = time_checks(&piped, &subject_piped, check_iters);
    println!(
        "{:<34} {:>10.1} ns",
        "check path, audit off (baseline)", ns_off
    );
    println!(
        "{:<34} {:>10.1} ns  ({:+.1}% vs off)",
        "check path, own ring audit",
        ns_ring,
        (ns_ring - ns_off) / ns_off * 100.0
    );
    println!(
        "{:<34} {:>10.1} ns  ({:+.1}% vs own ring)",
        "check path, pipeline ring",
        ns_piped,
        (ns_piped - ns_ring) / ns_ring * 100.0
    );

    // Drainer-throughput rows.
    let mem = AuditPipeline::in_memory(PipelineConfig {
        queue_capacity: 1 << 14,
        ..PipelineConfig::default()
    });
    let mem_rate = drainer_throughput(&mem, drain_events);
    println!(
        "{:<34} {:>10.2e} events/s",
        "drainer throughput, mem store", mem_rate
    );
    let dir = scratch_dir("drain");
    let disk = AuditPipeline::open_dir(
        &dir,
        PipelineConfig {
            queue_capacity: 1 << 14,
            ..PipelineConfig::default()
        },
    )
    .unwrap();
    let disk_rate = drainer_throughput(&disk, drain_events);
    println!(
        "{:<34} {:>10.2e} events/s",
        "drainer throughput, disk store", disk_rate
    );
    disk.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // Smoke-visible correctness: the pipeline the checks drained into
    // really recorded them, queryably and verified.
    let persisted = piped.audit_query(&AuditQuery::default()).unwrap();
    assert!(
        persisted.records.len() as u64 >= check_iters.min(1),
        "audited checks never reached the pipeline"
    );
    let report = piped.audit_verify().unwrap();
    assert!(report.ok, "bench chain failed verify: {report:?}");
    println!(
        "f13 sanity: {} audited checks persisted and verified across {} segment(s)",
        report.next_seq,
        report.segments.len()
    );
}

fn bench(c: &mut Criterion) {
    if smoke() {
        report_table(20_000, 5_000, 20_000);
        return;
    }

    let mut group = c.benchmark_group("f13_audit");
    group.bench_function("ring-append", |b| {
        let log = AuditLog::new();
        let subject = Subject::new(
            extsec_core::PrincipalId::from_raw(7),
            SecurityClass::bottom(),
        );
        let path = p("/svc/fs/read");
        b.iter(|| {
            black_box(log.record(
                black_box(&subject),
                &path,
                AccessMode::Execute,
                &Decision::Allow,
                1,
            ))
        })
    });
    group.bench_function("chained-append", |b| {
        let mut entry = Entry::Event(sample_record(0));
        let mut buf = Vec::with_capacity(128);
        let mut head = GENESIS;
        let mut seq = 0u64;
        b.iter(|| {
            if let Entry::Event(record) = &mut entry {
                record.seq = seq;
            }
            seq += 1;
            entry.encode(&mut buf);
            head = chain_next(&head, black_box(&buf));
            black_box(head)
        })
    });
    group.bench_function("check-pipeline-ring", |b| {
        let (monitor, subject) = check_world(true);
        monitor.attach_audit_pipeline(Arc::new(AuditPipeline::in_memory(PipelineConfig {
            queue_capacity: 1 << 16,
            ..PipelineConfig::default()
        })));
        let path = p("/svc/fs/read");
        assert!(monitor
            .check(&subject, &path, AccessMode::Execute)
            .allowed());
        b.iter(|| black_box(monitor.check(black_box(&subject), &path, AccessMode::Execute)))
    });
    group.finish();

    report_table(2_000_000, 400_000, 400_000);
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
