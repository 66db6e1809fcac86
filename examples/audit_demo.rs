//! The tamper-evident audit pipeline, end to end over the wire: checks
//! recorded off the hot path, drained into hash-chained on-disk
//! segments, queried and verified through the wire API — then a
//! byte is flipped on disk and the verifier names the damaged segment.
//!
//! Run with `cargo run --example audit_demo`.

use extsec::server::{Client, ClientConfig, Server, ServerConfig};
use extsec::{
    AccessMode, Acl, AclEntry, AuditPipeline, AuditQuery, Lattice, ModeSet, MonitorBuilder,
    NodeKind, NsPath, Outcome, PipelineConfig, Protection, SecurityClass, Subject,
};
use std::sync::Arc;

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small world: alice may execute `/svc/x/op`, bob may not.
    let lattice = Lattice::build(["low", "high"], ["c0"])?;
    let mut builder = MonitorBuilder::new(lattice);
    let alice = builder.add_principal("alice")?;
    let bob = builder.add_principal("bob")?;
    let monitor = builder.build();
    monitor.bootstrap(|ns| {
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
    })?;
    let class = monitor.lattice(|l| l.parse_class("low").unwrap());
    let alice = Subject::new(alice, class.clone());
    let bob = Subject::new(bob, class);

    // 1. Attach: a persistent pipeline over a scratch directory, with
    //    tiny segments so this short run seals several of them.
    let dir = std::env::temp_dir().join(format!("extsec-audit-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    monitor.attach_audit_pipeline(Arc::new(AuditPipeline::open_dir(
        &dir,
        PipelineConfig {
            segment_max_bytes: 512,
            ..PipelineConfig::default()
        },
    )?));
    println!("audit pipeline attached at {}\n", dir.display());

    let server = Server::spawn(Arc::clone(&monitor), "127.0.0.1:0", ServerConfig::default())?;
    let mut client = Client::connect(server.local_addr(), ClientConfig::default())?;

    // 2. Record: every check through the server lands in the ring and
    //    is drained to disk in the background — the check path never
    //    blocks on I/O.
    let op = p("/svc/x/op");
    for _ in 0..30 {
        assert!(client.check(&alice, &op, AccessMode::Execute)?.allowed());
        assert!(!client.check(&bob, &op, AccessMode::Execute)?.allowed());
    }
    println!("recorded 60 checks (30 allowed, 30 denied)");

    // 3. Query: filters are conjunctive; pagination via `next_seq`.
    let everything = client.audit_query(&AuditQuery::default())?;
    println!(
        "unfiltered query: {} events, {} declared gaps",
        everything.records.len(),
        everything.gaps.len()
    );
    let denials = client.audit_query(&AuditQuery {
        outcome: Some(Outcome::DacNoEntry),
        ..AuditQuery::default()
    })?;
    println!("denials only: {} events", denials.records.len());
    let first = &denials.records[0];
    println!(
        "  first: seq {} principal {} path {} -> {}",
        first.seq, first.principal, first.path, first.outcome
    );

    // 4. Verify: re-derive the SHA-256 chain across every segment and
    //    splice the anchors.
    let report = client.audit_verify()?;
    println!(
        "\nverify: ok={} across {} segments, chain head {}...",
        report.ok,
        report.segments.len(),
        &report.chain_head[..16]
    );
    assert!(report.ok);

    // 5. Tamper: flip one byte in the middle of a persisted segment,
    //    behind the pipeline's back.
    let victim = std::fs::read_dir(&dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-"))
        })
        .expect("a segment on disk");
    let mut bytes = std::fs::read(&victim)?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&victim, &bytes)?;
    println!(
        "\nflipped one bit at byte {mid} of {}",
        victim.file_name().unwrap().to_string_lossy()
    );

    let report = client.audit_verify()?;
    assert!(!report.ok, "a flipped bit must not verify");
    for segment in report.segments.iter().filter(|s| !s.status.is_ok()) {
        println!(
            "verify now reports: {} (seqs {}..={}) -> {:?}",
            segment.name, segment.first_seq, segment.last_seq, segment.status
        );
    }

    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.accepted, stats.closed, "no connection slot leaked");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
