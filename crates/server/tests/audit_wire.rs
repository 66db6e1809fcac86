//! The audit pipeline over the wire: query/verify round trips, typed
//! refusal without a pipeline, tamper detection through the wire API,
//! and a churn regime — sustained checks, concurrent query/verify, and
//! pipeline restarts — with the server's slot accounting intact.

use extsec_acl::{AccessMode, Acl, AclEntry, ModeSet};
use extsec_mac::{Lattice, SecurityClass};
use extsec_namespace::{NodeKind, NsPath, Protection};
use extsec_refmon::{
    AuditPipeline, AuditQuery, MonitorBuilder, Outcome, PipelineConfig, ReferenceMonitor, Subject,
};
use extsec_server::{Client, ClientConfig, ClientError, ErrorCode, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "extsec-audit-wire-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

/// `/svc/x/op` with alice granted execute; bob granted nothing.
fn fixture() -> (Arc<ReferenceMonitor>, Subject, Subject) {
    let lattice = Lattice::build(["low", "high"], ["c0"]).unwrap();
    let mut builder = MonitorBuilder::new(lattice);
    let alice = builder.add_principal("alice").unwrap();
    let bob = builder.add_principal("bob").unwrap();
    let monitor = builder.build();
    monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                Acl::public(ModeSet::only(AccessMode::List)),
                SecurityClass::bottom(),
            );
            ns.ensure_path(&p("/svc/x"), NodeKind::Domain, &visible)?;
            ns.insert(
                &p("/svc/x"),
                "op",
                NodeKind::Procedure,
                Protection::new(
                    Acl::from_entries([AclEntry::allow_principal(alice, AccessMode::Execute)]),
                    SecurityClass::bottom(),
                ),
            )?;
            Ok(())
        })
        .unwrap();
    let class = monitor.lattice(|l| l.parse_class("low").unwrap());
    let alice = Subject::new(alice, class.clone());
    let bob = Subject::new(bob, class);
    (monitor, alice, bob)
}

/// Drains every page of a query, asserting strictly increasing
/// sequence numbers across pages; returns (event seqs, gap ranges).
fn drain_query(client: &mut Client, base: AuditQuery) -> (Vec<u64>, Vec<(u64, u64)>) {
    let mut seqs = Vec::new();
    let mut gaps = Vec::new();
    let mut query = base;
    loop {
        let page = client.audit_query(&query).unwrap();
        for record in &page.records {
            if let Some(&prev) = seqs.last() {
                assert!(
                    record.seq > prev,
                    "sequence numbers regressed across pages: {} after {prev}",
                    record.seq
                );
            }
            seqs.push(record.seq);
        }
        for gap in &page.gaps {
            gaps.push((gap.first, gap.last));
        }
        if !page.truncated {
            return (seqs, gaps);
        }
        query.seq_min = page.next_seq;
    }
}

/// Without an attached pipeline the audit pair answers the typed
/// `AuditUnavailable` error — and the connection survives the refusal.
#[test]
fn unattached_server_refuses_with_typed_error() {
    let (monitor, alice, _) = fixture();
    let server =
        Server::spawn(Arc::clone(&monitor), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), ClientConfig::default()).unwrap();

    for result in [
        client.audit_query(&AuditQuery::default()).err(),
        client.audit_verify().err(),
    ] {
        match result {
            Some(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::AuditUnavailable)
            }
            other => panic!("expected AuditUnavailable, got {other:?}"),
        }
    }
    // Semantic refusal, not a protocol one: the same connection still
    // serves checks.
    let decision = client
        .check(&alice, &p("/svc/x/op"), AccessMode::Execute)
        .unwrap();
    assert!(decision.allowed());
    let stats = server.shutdown();
    assert_eq!(stats.accepted, stats.closed);
}

/// Checks recorded through the server surface in a wire query, filters
/// apply, and the persisted chain verifies end to end — until a single
/// byte of a segment is flipped on disk, which `audit_verify` must
/// report without panicking.
#[test]
fn query_verify_and_tamper_detection_over_the_wire() {
    let dir = scratch_dir("tamper");
    let (monitor, alice, bob) = fixture();
    let pipeline = AuditPipeline::open_dir(
        &dir,
        PipelineConfig {
            // Tiny segments so the run seals several of them.
            segment_max_bytes: 512,
            ..PipelineConfig::default()
        },
    )
    .unwrap();
    monitor.attach_audit_pipeline(Arc::new(pipeline));

    let server =
        Server::spawn(Arc::clone(&monitor), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), ClientConfig::default()).unwrap();

    let op = p("/svc/x/op");
    for _ in 0..40 {
        assert!(client
            .check(&alice, &op, AccessMode::Execute)
            .unwrap()
            .allowed());
        assert!(!client
            .check(&bob, &op, AccessMode::Execute)
            .unwrap()
            .allowed());
    }

    // Unfiltered query: every recorded check is there, in order.
    let (seqs, gaps) = drain_query(&mut client, AuditQuery::default());
    assert!(gaps.is_empty(), "nothing was shed, yet gaps: {gaps:?}");
    assert_eq!(seqs.len(), 80);

    // Filters are conjunctive and honored server-side.
    let denied = client
        .audit_query(&AuditQuery {
            outcome: Some(Outcome::DacNoEntry),
            ..AuditQuery::default()
        })
        .unwrap();
    assert_eq!(denied.records.len(), 40);
    assert!(denied
        .records
        .iter()
        .all(|r| r.outcome == Outcome::DacNoEntry && r.path == "/svc/x/op"));

    // The intact chain verifies end to end.
    let report = client.audit_verify().unwrap();
    assert!(report.ok, "intact chain failed verify: {report:?}");
    assert!(
        report.segments.len() > 1,
        "expected several segments, got {}",
        report.segments.len()
    );

    // Flip one byte in the middle of one persisted segment, bypassing
    // the pipeline entirely.
    let victim = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-"))
        })
        .expect("a segment file on disk");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&victim, &bytes).unwrap();

    let report = client.audit_verify().unwrap();
    assert!(!report.ok, "verify missed a flipped byte in {victim:?}");
    assert!(report.segments.iter().any(|s| !s.status.is_ok()));

    let stats = server.shutdown();
    assert_eq!(stats.accepted, stats.closed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The churn regime: client threads hammer checks while another client
/// interleaves queries and verifies and the pipeline is repeatedly shut
/// down and re-opened over the same directory (a drainer restart). The
/// persisted log must stay gap-accounted — every sequence number below
/// the final cursor is either persisted or covered by a declared gap —
/// and the server must close every slot it accepted.
#[test]
fn churn_checks_queries_and_pipeline_restarts() {
    const CHECKERS: usize = 3;
    const RESTARTS: usize = 3;
    const CHECKS_PER_PHASE: usize = 150;

    let dir = scratch_dir("churn");
    let (monitor, alice, bob) = fixture();
    let config = PipelineConfig {
        segment_max_bytes: 4096,
        ..PipelineConfig::default()
    };
    monitor.attach_audit_pipeline(Arc::new(
        AuditPipeline::open_dir(&dir, config.clone()).unwrap(),
    ));

    let server = Server::spawn(
        Arc::clone(&monitor),
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));

    let mut checkers = Vec::new();
    for i in 0..CHECKERS {
        let stop = Arc::clone(&stop);
        let subject = if i % 2 == 0 {
            alice.clone()
        } else {
            bob.clone()
        };
        checkers.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr, ClientConfig::default()).unwrap();
            let op = p("/svc/x/op");
            let mut checks = 0u64;
            while !stop.load(Ordering::Relaxed) {
                client.check(&subject, &op, AccessMode::Execute).unwrap();
                checks += 1;
            }
            checks
        }));
    }

    // The admin thread interleaves queries and verifies with pipeline
    // restarts: shutdown (drains and seals state to disk), re-open over
    // the same directory (recovery), re-attach. Checks recorded while
    // no live pipeline is attached are shed at the dead sink and must
    // come back as declared gaps, never as silent holes.
    let mut admin = Client::connect(addr, ClientConfig::default()).unwrap();
    for _ in 0..RESTARTS {
        for _ in 0..CHECKS_PER_PHASE {
            admin
                .check(&alice, &p("/svc/x/op"), AccessMode::Execute)
                .unwrap();
        }
        let report = admin.audit_verify().unwrap();
        assert!(report.ok, "chain failed verify mid-churn: {report:?}");
        // Up to the verified cursor: the checkers keep appending, and a
        // pager with no bound can fall behind them for good.
        let _ = drain_query(
            &mut admin,
            AuditQuery {
                seq_max: Some(report.next_seq.saturating_sub(1)),
                ..AuditQuery::default()
            },
        );

        let old = monitor.audit_pipeline().unwrap();
        old.shutdown();
        monitor.attach_audit_pipeline(Arc::new(
            AuditPipeline::open_dir(&dir, config.clone()).unwrap(),
        ));
    }

    stop.store(true, Ordering::Relaxed);
    let mut total_checks = 0u64;
    for checker in checkers {
        total_checks += checker.join().unwrap();
    }
    assert!(total_checks > 0);

    // Final accounting: the chain verifies, and the persisted events
    // plus the declared gaps tile `0..next_seq` exactly — no sequence
    // number is silently missing and none is double-covered.
    let report = admin.audit_verify().unwrap();
    assert!(report.ok, "chain failed final verify: {report:?}");
    let (seqs, gaps) = drain_query(&mut admin, AuditQuery::default());
    let mut covered: Vec<(u64, u64)> = seqs.iter().map(|&s| (s, s)).collect();
    covered.extend(gaps.iter().copied());
    covered.sort_unstable();
    let mut expect = 0u64;
    for (first, last) in covered {
        assert_eq!(
            first, expect,
            "coverage hole or overlap at seq {expect} (next covered range starts at {first})"
        );
        assert!(last >= first);
        expect = last + 1;
    }
    assert_eq!(
        expect, report.next_seq,
        "coverage stops short of the persisted cursor"
    );

    let stats = server.shutdown();
    assert_eq!(
        stats.accepted, stats.closed,
        "server leaked a connection slot"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
