//! End-to-end socket tests: the full request set over real TCP, and an
//! adversarial battery proving malformed input can never panic the
//! server or leak a connection slot.

use extsec_acl::{AccessMode, Acl, AclEntry, ModeSet};
use extsec_mac::{Lattice, SecurityClass};
use extsec_namespace::{NodeKind, NsPath, Protection};
use extsec_refmon::{
    AuditPipeline, Decision, DenyReason, MonitorBuilder, PipelineConfig, ReferenceMonitor, Subject,
};
use extsec_server::proto;
use extsec_server::{
    Client, ClientConfig, ErrorCode, Opcode, Request, Response, Server, ServerConfig, MAX_FRAME,
    VERSION,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

/// Standard fixture: `/svc/fs/read` with alice granted `rx`, bob
/// nothing; interior nodes publicly visible.
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
            ns.ensure_path(&p("/svc/fs"), NodeKind::Domain, &visible)?;
            let read = ns.insert(
                &p("/svc/fs"),
                "read",
                NodeKind::Procedure,
                Protection::default(),
            )?;
            ns.update_protection(read, |prot| {
                prot.acl.push(AclEntry::allow_principal_modes(
                    alice,
                    ModeSet::parse("rx").unwrap(),
                ));
            })?;
            Ok(())
        })
        .unwrap();
    let class = monitor.lattice(|l| l.parse_class("low").unwrap());
    let alice = Subject::new(alice, class.clone());
    let bob = Subject::new(bob, class);
    (monitor, alice, bob)
}

fn spawn(monitor: &Arc<ReferenceMonitor>, config: ServerConfig) -> Server {
    Server::spawn(Arc::clone(monitor), "127.0.0.1:0", config).unwrap()
}

fn client(server: &Server) -> Client {
    Client::connect(server.local_addr(), ClientConfig::default()).unwrap()
}

/// Polls until the server's accounting shows every connection closed.
fn wait_for_balanced_accounting(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let snap = server.telemetry().snapshot();
        if snap.accepted == snap.closed {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "connection slot leaked: {} accepted, {} closed",
            snap.accepted,
            snap.closed
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn full_request_set_over_tcp() {
    let (monitor, alice, bob) = fixture();
    monitor.telemetry().set_enabled(true);

    let server = spawn(&monitor, ServerConfig::default());
    let mut client = client(&server);

    client.ping().unwrap();

    // Single checks match the in-process monitor exactly.
    let read = p("/svc/fs/read");
    assert_eq!(
        client.check(&alice, &read, AccessMode::Execute).unwrap(),
        monitor.check(&alice, &read, AccessMode::Execute)
    );
    assert!(client
        .check(&alice, &read, AccessMode::Read)
        .unwrap()
        .allowed());
    assert_eq!(
        client.check(&bob, &read, AccessMode::Read).unwrap(),
        Decision::Deny(DenyReason::DacNoEntry)
    );

    // A batch answers every item, in order.
    let decisions = client
        .batch_check(
            &alice,
            &[
                (read.clone(), AccessMode::Read),
                (read.clone(), AccessMode::Write),
                (p("/svc/fs/missing"), AccessMode::Read),
            ],
        )
        .unwrap();
    assert_eq!(decisions.len(), 3);
    assert!(decisions[0].allowed());
    assert!(!decisions[1].allowed());
    assert_eq!(
        decisions[2],
        Decision::Deny(DenyReason::NotFound(p("/svc/fs/missing")))
    );

    // Listing and explanation agree with the in-process API.
    assert_eq!(client.list(&alice, &p("/svc/fs")).unwrap(), vec!["read"]);
    let explanation = client.explain(&bob, &read, AccessMode::Read).unwrap();
    assert_eq!(explanation.decision, Decision::Deny(DenyReason::DacNoEntry));
    assert!(!explanation.steps.is_empty());

    // The telemetry pull ships one registry: the monitor's names and
    // the server's.
    let metrics = client.telemetry().unwrap();
    assert!(metrics.histogram("refmon.stage.check_ns").is_some());
    assert!(metrics.get("server.requests.check").is_some());

    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.accepted, stats.closed);
    assert_eq!(stats.protocol_errors, 0);
    let count = |name: &str| {
        stats
            .requests
            .iter()
            .find(|r| r.opcode == name)
            .unwrap()
            .count
    };
    assert_eq!(count("ping"), 1);
    assert_eq!(count("check"), 3);
    assert_eq!(count("batch_check"), 1);
    assert_eq!(count("list"), 1);
    assert_eq!(count("explain"), 1);
    assert_eq!(count("telemetry"), 1);
    assert_eq!(stats.checks_in_batches, 3);
}

/// One wire `Telemetry` reply, taken after a known request mix, holds
/// exactly what the in-process reads return once the server is quiet:
/// the server's request counts, the monitor's check-stage count, the
/// audit ring's overwritten records and the pipeline's shed records.
#[test]
fn wire_metrics_equal_the_in_process_reads() {
    let (monitor, alice, bob) = fixture();
    monitor.telemetry().set_enabled(true);
    let read = p("/svc/fs/read");
    // Decisions recorded before the pipeline attaches leave the
    // in-memory view when the pipeline's ring replaces it, so
    // `audit.ring.overwritten` starts at 5, not 0.
    for _ in 0..5 {
        monitor.check(&alice, &read, AccessMode::Execute);
    }
    let dir = std::env::temp_dir().join(format!("extsec-server-io-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pipeline = AuditPipeline::open_dir(&dir, PipelineConfig::default()).unwrap();
    monitor.attach_audit_pipeline(Arc::new(pipeline));

    let server = spawn(&monitor, ServerConfig::default());
    let mut client = client(&server);
    for subject in [&alice, &bob] {
        client.check(subject, &read, AccessMode::Read).unwrap();
        client.check(subject, &read, AccessMode::Execute).unwrap();
    }
    let items = vec![(read.clone(), AccessMode::Read); 7];
    client.batch_check(&alice, &items).unwrap();
    let metrics = client.telemetry().unwrap();

    let server_side = server.telemetry().snapshot();
    let checks = server_side
        .requests
        .iter()
        .find(|r| r.opcode == "check")
        .unwrap()
        .count;
    assert_eq!(checks, 4);
    assert_eq!(metrics.get("server.requests.check"), Some(checks));
    assert_eq!(metrics.get("server.batch.checks"), Some(7));
    let in_process = monitor.metrics();
    let stage = |m: &extsec_refmon::Metrics| m.histogram("refmon.stage.check_ns").unwrap().count;
    assert_eq!(stage(&in_process), 5 + 4 + 7);
    assert_eq!(stage(&metrics), stage(&in_process));
    let ring_dropped = monitor.audit_stats().ring_dropped;
    assert_eq!(ring_dropped, 5);
    assert_eq!(metrics.get("audit.ring.overwritten"), Some(ring_dropped));
    let pipeline = monitor.audit_pipeline_stats().unwrap();
    assert_eq!(metrics.get("audit.pipeline.shed"), Some(pipeline.shed));
    assert_eq!(
        metrics.get("audit.pipeline.enqueued"),
        Some(pipeline.enqueued)
    );

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_requests_answer_in_order() {
    let (monitor, alice, _) = fixture();
    let server = spawn(&monitor, ServerConfig::default());
    let mut client = client(&server);

    let read = p("/svc/fs/read");
    let requests: Vec<Request> = (0..16)
        .map(|i| Request::Check {
            subject: alice.clone(),
            path: read.clone(),
            mode: if i % 2 == 0 {
                AccessMode::Read
            } else {
                AccessMode::Write
            },
        })
        .collect();
    let responses = client.pipeline(&requests).unwrap();
    assert_eq!(responses.len(), 16);
    for (i, response) in responses.iter().enumerate() {
        match response {
            Response::Decision(decision) => {
                assert_eq!(decision.allowed(), i % 2 == 0, "response {i} out of order")
            }
            other => panic!("expected a decision, got {other:?}"),
        }
    }
    drop(client);
    server.shutdown();
}

/// Sends raw bytes, then returns the server's one error reply (if any)
/// and whether the connection was closed afterwards.
fn send_raw(server: &Server, bytes: &[u8]) -> (Option<Response>, bool) {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(bytes).unwrap();
    let reply = match proto::read_frame(&mut stream, MAX_FRAME) {
        Ok(frame) => Some(Response::decode(frame.opcode, &frame.payload).unwrap()),
        Err(_) => None,
    };
    // After an error reply the server must close: the next read is EOF.
    let mut probe = [0u8; 1];
    let closed = matches!(stream.read(&mut probe), Ok(0));
    (reply, closed)
}

fn error_code(response: &Option<Response>) -> Option<ErrorCode> {
    match response {
        Some(Response::Error { code, .. }) => Some(*code),
        _ => None,
    }
}

#[test]
fn adversarial_frames_get_typed_errors_and_leak_nothing() {
    let (monitor, alice, _) = fixture();
    let server = spawn(&monitor, ServerConfig::default());

    // Wrong version byte: refused on the first byte.
    let (reply, closed) = send_raw(&server, &[9, 0, 0, 0, 0, 0]);
    assert_eq!(error_code(&reply), Some(ErrorCode::Version));
    assert!(closed);

    // Oversize length prefix: refused before any payload allocation.
    let mut oversize = vec![VERSION, Opcode::Ping as u8];
    oversize.extend_from_slice(&(64u32 << 20).to_le_bytes());
    let (reply, closed) = send_raw(&server, &oversize);
    assert_eq!(error_code(&reply), Some(ErrorCode::Oversize));
    assert!(closed);

    // Unknown opcode.
    let mut unknown = vec![VERSION, 0x5E];
    unknown.extend_from_slice(&0u32.to_le_bytes());
    let (reply, closed) = send_raw(&server, &unknown);
    assert_eq!(error_code(&reply), Some(ErrorCode::Opcode));
    assert!(closed);

    // Truncated frame: the header promises 32 bytes, the peer sends 3
    // and half-closes.
    let mut truncated = vec![VERSION, Opcode::Check as u8];
    truncated.extend_from_slice(&32u32.to_le_bytes());
    truncated.extend_from_slice(&[1, 2, 3]);
    {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&truncated).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let frame = proto::read_frame(&mut stream, MAX_FRAME).unwrap();
        match Response::decode(frame.opcode, &frame.payload).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
            other => panic!("expected error, got {other:?}"),
        }
    }

    // Garbage payload under a valid header: decoded, refused, answered.
    let garbage_payload = [0xFFu8; 24];
    let mut garbage = vec![VERSION, Opcode::Check as u8];
    garbage.extend_from_slice(&(garbage_payload.len() as u32).to_le_bytes());
    garbage.extend_from_slice(&garbage_payload);
    let (reply, closed) = send_raw(&server, &garbage);
    assert_eq!(error_code(&reply), Some(ErrorCode::Protocol));
    assert!(closed);

    // A path text whose refusal quotes it, each byte escaped to six: the
    // typed error is cut to the message length a peer reads. The
    // subject is principal 0 on thread 0 at rank 0 with no categories;
    // `A0 1F` is the ULEB128 of the text's 4 000 bytes.
    let mut payload = vec![0, 0, 0, 0, 0xA0, 0x1F];
    payload.extend_from_slice(&[1u8; 4000]);
    payload.push(AccessMode::Read as u8);
    let mut unrooted = vec![VERSION, Opcode::Check as u8];
    unrooted.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    unrooted.extend_from_slice(&payload);
    let (reply, closed) = send_raw(&server, &unrooted);
    assert_eq!(error_code(&reply), Some(ErrorCode::Protocol));
    assert!(closed);

    // The server survived all of it: a fresh, well-behaved client works.
    let mut ok_client = client(&server);
    ok_client.ping().unwrap();
    assert!(ok_client
        .check(&alice, &p("/svc/fs/read"), AccessMode::Read)
        .unwrap()
        .allowed());
    drop(ok_client);

    // And the accounting balances: every connection slot came back.
    wait_for_balanced_accounting(&server);
    let stats = server.shutdown();
    assert_eq!(stats.accepted, stats.closed);
    assert!(stats.protocol_errors >= 6);
    assert!(stats.oversize >= 1);
}

#[test]
fn semantic_refusals_keep_the_connection_open() {
    let (monitor, alice, _) = fixture();
    let server = spawn(
        &monitor,
        ServerConfig {
            max_batch: 4,
            ..ServerConfig::default()
        },
    );
    let mut client = client(&server);

    // Over the operational batch limit: an error *answer*, not a drop.
    let items: Vec<_> = (0..8)
        .map(|_| (p("/svc/fs/read"), AccessMode::Read))
        .collect();
    match client.batch_check(&alice, &items) {
        Err(extsec_server::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::BatchTooLarge)
        }
        other => panic!("expected batch-too-large, got {other:?}"),
    }

    // A subject whose class is foreign to the lattice: same story.
    let foreign = alice.with_class(SecurityClass::new(
        extsec_mac::TrustLevel::from_rank(999),
        Default::default(),
    ));
    match client.check(&foreign, &p("/svc/fs/read"), AccessMode::Read) {
        Err(extsec_server::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::InvalidSubject)
        }
        other => panic!("expected invalid-subject, got {other:?}"),
    }

    // Still the same connection, still serving.
    client.ping().unwrap();
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 1, "refusals did not cost the connection");
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn shutdown_is_graceful_and_idempotent_accounting_holds() {
    let (monitor, alice, _) = fixture();
    let server = spawn(&monitor, ServerConfig::default());
    let mut open = client(&server);
    open.check(&alice, &p("/svc/fs/read"), AccessMode::Read)
        .unwrap();

    // Shut down while a client connection is still open: the worker
    // notices at the next idle tick and the join completes.
    let stats = server.shutdown();
    assert_eq!(stats.accepted, stats.closed);
    assert_eq!(stats.accepted, 1);
}

#[test]
fn sequential_checks_cost_one_poll_each() {
    let (monitor, alice, _) = fixture();
    let server = spawn(&monitor, ServerConfig::default());
    let mut client = client(&server);
    client.ping().unwrap();
    let svc = p("/svc");
    let before = server.telemetry().snapshot().polls;
    for _ in 0..1_000 {
        client.check(&alice, &svc, AccessMode::List).unwrap();
    }
    let polls = server.telemetry().snapshot().polls - before;
    // One readiness turn per request: the reply leaves in the turn that
    // read the request, so no second wait for write readiness.
    assert!(
        polls <= 1_050,
        "1 000 sequential checks took {polls} server polls"
    );
    drop(client);
    server.shutdown();
}

#[test]
fn pipelined_burst_then_half_close_gets_every_reply_and_eof() {
    let (monitor, alice, _) = fixture();
    let server = spawn(&monitor, ServerConfig::default());
    let check = |path: NsPath| {
        Request::Check {
            subject: alice.clone(),
            path,
            mode: AccessMode::Read,
        }
        .encode()
    };
    // A burst of exactly one 16 KiB read chunk, so the server can read
    // the EOF in the turn that queued the replies: every queued reply
    // must still go out, and the connection must then close.
    const BURST: usize = 16 * 1024;
    let frame = check(p("/svc/fs/read"));
    let mut burst = Vec::new();
    let mut sent = 0;
    while burst.len() + frame.len() + 64 <= BURST {
        burst.extend_from_slice(&frame);
        sent += 1;
    }
    let pad = BURST - burst.len();
    let filler = (1..128)
        .map(|k| p(&format!("/{}", "x".repeat(k))))
        .find(|path| check(path.clone()).len() == pad)
        .expect("a filler path of the missing size");
    burst.extend_from_slice(&check(filler.clone()));
    sent += 1;

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(&burst).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    for i in 0..sent {
        let frame = proto::read_frame(&mut stream, MAX_FRAME).unwrap();
        let reply = Response::decode(frame.opcode, &frame.payload).unwrap();
        let want = if i + 1 < sent {
            monitor.check(&alice, &p("/svc/fs/read"), AccessMode::Read)
        } else {
            Decision::Deny(DenyReason::NotFound(filler.clone()))
        };
        assert_eq!(reply, Response::Decision(want), "reply {i}");
    }
    let mut probe = [0u8; 1];
    assert!(
        matches!(stream.read(&mut probe), Ok(0)),
        "clean EOF after the last reply"
    );
    wait_for_balanced_accounting(&server);
    server.shutdown();
}

/// Read and write timeouts of 200 ms, so a deadline fires quickly.
fn short_timeouts() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_millis(200),
        write_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    }
}

/// Waits until the server has closed its `n`th connection, returning
/// how long after `since` that was seen (polled every 5 ms).
fn closed_after(server: &Server, n: u64, since: Instant) -> Duration {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if server.telemetry().snapshot().closed >= n {
            return since.elapsed();
        }
        assert!(Instant::now() < deadline, "the connection was never closed");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_mid_frame_stall_times_out_after_the_read_timeout() {
    let (monitor, _, _) = fixture();
    let server = spawn(&monitor, short_timeouts());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // A header promising 32 payload bytes, then 3 of them, then silence.
    let mut partial = vec![VERSION, Opcode::Check as u8];
    partial.extend_from_slice(&32u32.to_le_bytes());
    partial.extend_from_slice(&[1, 2, 3]);
    let sent = Instant::now();
    stream.write_all(&partial).unwrap();
    let mut probe = [0u8; 64];
    assert!(
        matches!(stream.read(&mut probe), Ok(0)),
        "closed without a reply"
    );
    let waited = sent.elapsed();
    assert!(
        waited >= Duration::from_millis(200) && waited < Duration::from_secs(2),
        "closed {waited:?} after the last byte"
    );
    closed_after(&server, 1, sent);
    let stats = server.shutdown();
    assert_eq!(stats.timeouts, 1);
    assert_eq!(stats.accepted, stats.closed);
}

#[test]
fn an_unread_reply_times_out_after_the_write_timeout() {
    let (monitor, _, _) = fixture();
    // Enabled telemetry makes each reply a document of many histograms.
    monitor.telemetry().set_enabled(true);
    let server = spawn(&monitor, short_timeouts());
    let reply = client(&server)
        .pipeline(&[Request::Telemetry])
        .unwrap()
        .remove(0)
        .encode();
    assert!(reply.len() > 2048, "a {}-byte reply", reply.len());
    wait_for_balanced_accounting(&server);
    // Replies far beyond what the socket buffers between the two ends
    // hold; the peer reads none of them.
    let requests = (32 << 20) / reply.len() + 1;
    assert!(requests < 16_384);
    let burst = Request::Telemetry.encode().repeat(requests);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let sent = Instant::now();
    stream.write_all(&burst).unwrap();
    // The deadline is armed no sooner than the first reply and moves
    // with every write the peer's buffers take.
    let waited = closed_after(&server, 2, sent);
    assert!(
        waited >= Duration::from_millis(200) && waited < Duration::from_secs(2),
        "closed {waited:?} after the burst"
    );
    drop(stream);
    let stats = server.shutdown();
    assert_eq!(stats.timeouts, 1);
    assert_eq!(stats.accepted, stats.closed);
}

#[test]
fn a_refused_peer_is_closed_when_the_drain_window_ends() {
    let (monitor, _, _) = fixture();
    let server = spawn(&monitor, short_timeouts());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let sent = Instant::now();
    stream.write_all(&[9, 0, 0, 0, 0, 0]).unwrap();
    // The refusal, then the server's half-close; the peer sends nothing
    // more and keeps its own side open.
    let frame = proto::read_frame(&mut stream, MAX_FRAME).unwrap();
    assert_eq!(
        error_code(&Some(
            Response::decode(frame.opcode, &frame.payload).unwrap()
        )),
        Some(ErrorCode::Version)
    );
    let mut probe = [0u8; 1];
    assert!(
        matches!(stream.read(&mut probe), Ok(0)),
        "EOF after the reply"
    );
    let waited = closed_after(&server, 1, sent);
    assert!(
        waited >= Duration::from_millis(200) && waited < Duration::from_secs(2),
        "closed {waited:?} after the refused frame"
    );
    drop(stream);
    let stats = server.shutdown();
    assert_eq!(stats.timeouts, 0, "the drain window is not a timeout");
    assert_eq!(stats.accepted, stats.closed);
}

#[test]
fn an_idle_connection_outlives_many_read_timeouts() {
    let (monitor, alice, _) = fixture();
    let server = spawn(&monitor, short_timeouts());
    let mut client = client(&server);
    client.ping().unwrap();
    std::thread::sleep(Duration::from_millis(1_000));
    assert!(client
        .check(&alice, &p("/svc/fs/read"), AccessMode::Read)
        .unwrap()
        .allowed());
    assert_eq!(server.telemetry().snapshot().accepted, 1, "no reconnect");
    drop(client);
    closed_after(&server, 1, Instant::now());
    let stats = server.shutdown();
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.accepted, stats.closed);
}
