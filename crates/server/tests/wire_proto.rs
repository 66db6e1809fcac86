//! Property tests for the wire protocol: encode → decode is the
//! identity on every frame type, every proper prefix of a frame scans as
//! partial (never as a frame, never a panic), the frame scan and
//! decoders are total on garbage and corruption, and the path decoder
//! agrees with a plain reference decoder on hostile component lists.
//! One printed row times a 64-item batch's encode and decode.

use extsec_acl::{AccessMode, PrincipalId};
use extsec_mac::{CategoryId, CategorySet, SecurityClass, TrustLevel};
use extsec_namespace::{NsPath, PathError};
use extsec_refmon::{
    AuditQuery, AuditRecord, BundleId, Decision, DenyReason, GapRange, Generation, Outcome,
    QueryResult, Subject, ThreadId,
};
use extsec_server::proto::{
    scan_frame, FrameScan, ProtoError, WireMessage, MAX_COMPONENTS, MAX_STR,
};
use extsec_server::{BatchItem, ErrorCode, Opcode, Request, Response, MAX_FRAME};
use proptest::prelude::*;
use std::hint::black_box;

fn arb_mode() -> impl Strategy<Value = AccessMode> {
    (0usize..AccessMode::ALL.len()).prop_map(|i| AccessMode::ALL[i])
}

fn arb_subject() -> impl Strategy<Value = Subject> {
    (
        any::<u32>(),
        any::<u64>(),
        any::<u16>(),
        proptest::collection::vec(0u16..512, 0..8),
    )
        .prop_map(|(principal, thread, rank, cats)| {
            Subject::on_thread(
                PrincipalId::from_raw(principal),
                SecurityClass::new(
                    TrustLevel::from_rank(rank),
                    CategorySet::from_ids(cats.into_iter().map(CategoryId::from_index)),
                ),
                ThreadId::from_raw(thread),
            )
        })
}

fn arb_path() -> impl Strategy<Value = NsPath> {
    proptest::collection::vec("[a-z][a-z0-9._-]{0,12}", 0..6)
        .prop_map(|components| NsPath::from_components(components).expect("valid components"))
}

fn arb_outcome() -> impl Strategy<Value = Outcome> {
    (0usize..Outcome::ALL.len()).prop_map(|i| Outcome::ALL[i])
}

fn arb_audit_query() -> impl Strategy<Value = AuditQuery> {
    (
        proptest::option::of(any::<u32>()),
        proptest::option::of("(/[a-z]{1,8}){0,4}"),
        proptest::option::of(arb_outcome()),
        any::<u64>(),
        proptest::option::of(any::<u64>()),
        any::<u32>(),
    )
        .prop_map(
            |(principal, path_prefix, outcome, seq_min, seq_max, limit)| AuditQuery {
                principal,
                path_prefix,
                outcome,
                seq_min,
                seq_max,
                limit,
            },
        )
}

fn arb_audit_record() -> impl Strategy<Value = AuditRecord> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
        any::<u8>(),
        arb_outcome(),
        "(/[a-z]{1,8}){0,4}",
    )
        .prop_map(
            |(seq, principal, generation, mode, outcome, path)| AuditRecord {
                seq,
                principal,
                generation,
                mode,
                outcome,
                path,
            },
        )
}

fn arb_query_result() -> impl Strategy<Value = QueryResult> {
    (
        proptest::collection::vec(arb_audit_record(), 0..8),
        proptest::collection::vec((any::<u64>(), any::<u64>()), 0..4),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(records, gaps, truncated, next_seq)| QueryResult {
            records,
            gaps: gaps
                .into_iter()
                .map(|(first, last)| GapRange { first, last })
                .collect(),
            truncated,
            next_seq,
        })
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        Just(Request::Telemetry),
        (arb_subject(), arb_path(), arb_mode()).prop_map(|(subject, path, mode)| {
            Request::Check {
                subject,
                path,
                mode,
            }
        }),
        (arb_subject(), arb_path(), arb_mode()).prop_map(|(subject, path, mode)| {
            Request::Explain {
                subject,
                path,
                mode,
            }
        }),
        (arb_subject(), arb_path()).prop_map(|(subject, path)| Request::List { subject, path }),
        (
            arb_subject(),
            proptest::collection::vec((arb_path(), arb_mode()), 0..16)
        )
            .prop_map(|(subject, items)| Request::BatchCheck {
                subject,
                items: items
                    .into_iter()
                    .map(|(path, mode)| BatchItem { path, mode })
                    .collect(),
            }),
        ".{0,128}".prop_map(|source| Request::LoadBundle { source }),
        any::<u64>().prop_map(|raw| Request::Activate {
            bundle: BundleId::from_raw(raw),
        }),
        (any::<u64>(), any::<bool>()).prop_map(|(raw, on)| Request::Shadow {
            bundle: BundleId::from_raw(raw),
            on,
        }),
        Just(Request::Rollback),
        Just(Request::BundleStatus),
        arb_audit_query().prop_map(|query| Request::AuditQuery { query }),
        Just(Request::AuditVerify),
    ]
}

fn arb_decision() -> impl Strategy<Value = Decision> {
    prop_oneof![
        Just(Decision::Allow),
        Just(Decision::Deny(DenyReason::DacNoEntry)),
        (0usize..64).prop_map(|i| Decision::Deny(DenyReason::DacNegativeEntry(i))),
        Just(Decision::Deny(DenyReason::MacFlow)),
        arb_path().prop_map(|p| Decision::Deny(DenyReason::NotVisibleDac(p))),
        arb_path().prop_map(|p| Decision::Deny(DenyReason::NotVisibleMac(p))),
        arb_path().prop_map(|p| Decision::Deny(DenyReason::NotFound(p))),
        ".{0,24}".prop_map(|s| Decision::Deny(DenyReason::Structure(s))),
    ]
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::Protocol),
        Just(ErrorCode::Version),
        Just(ErrorCode::Opcode),
        Just(ErrorCode::Oversize),
        Just(ErrorCode::BatchTooLarge),
        Just(ErrorCode::InvalidSubject),
        Just(ErrorCode::Denied),
        Just(ErrorCode::Internal),
        Just(ErrorCode::InvalidBundle),
        Just(ErrorCode::GenerationConflict),
        Just(ErrorCode::AuditUnavailable),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Pong),
        arb_decision().prop_map(Response::Decision),
        proptest::collection::vec(arb_decision(), 0..16).prop_map(Response::Batch),
        proptest::collection::vec("[a-z]{1,10}", 0..12).prop_map(Response::Listing),
        ".{0,64}".prop_map(Response::Explanation),
        ".{0,64}".prop_map(Response::Telemetry),
        (arb_error_code(), ".{0,32}").prop_map(|(code, message)| Response::Error { code, message }),
        (any::<u64>(), any::<u64>()).prop_map(|(bundle, base)| Response::BundleStaged {
            bundle: BundleId::from_raw(bundle),
            base: Generation::from_raw(base),
        }),
        any::<u64>().prop_map(|raw| Response::BundleAck {
            generation: Generation::from_raw(raw),
        }),
        ".{0,96}".prop_map(Response::BundleStatus),
        arb_query_result().prop_map(Response::AuditEvents),
        ".{0,96}".prop_map(Response::AuditReport),
    ]
}

/// The frame `scan_frame` finds at the front of `bytes`, if a whole one
/// is there: its opcode and payload.
fn scan(bytes: &[u8]) -> Result<Option<(u8, &[u8])>, ProtoError> {
    Ok(match scan_frame(bytes, MAX_FRAME)? {
        FrameScan::Complete {
            opcode,
            payload_start,
            consumed,
        } => Some((opcode, &bytes[payload_start..consumed])),
        FrameScan::Partial { .. } => None,
    })
}

proptest! {
    /// encode → decode is the identity on every request frame type.
    #[test]
    fn requests_round_trip(request in arb_request()) {
        let bytes = request.encode();
        let (opcode, payload) = scan(&bytes).expect("own frames scan").expect("a whole frame");
        prop_assert_eq!(opcode, request.opcode() as u8);
        prop_assert_eq!(Request::decode(opcode, payload), Ok(request));
    }

    /// encode → decode is the identity on every response frame type.
    #[test]
    fn responses_round_trip(response in arb_response()) {
        let bytes = response.encode();
        let (opcode, payload) = scan(&bytes).expect("own frames scan").expect("a whole frame");
        prop_assert_eq!(opcode, response.opcode());
        prop_assert_eq!(Response::decode(opcode, payload), Ok(response));
    }

    /// Every proper prefix of a valid frame scans as partial, asking for
    /// more than it holds — never as a frame, never as an error.
    #[test]
    fn truncation_at_every_prefix_is_partial(request in arb_request()) {
        let bytes = request.encode();
        for len in 0..bytes.len() {
            match scan_frame(&bytes[..len], MAX_FRAME) {
                Ok(FrameScan::Partial { needed }) => {
                    prop_assert!(needed > len && needed <= bytes.len(), "prefix {len} asks for {needed}");
                }
                other => prop_assert!(false, "prefix of {len} bytes scanned as {other:?}"),
            }
        }
    }

    /// The frame scan and payload decoders are total on garbage.
    #[test]
    fn decode_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(Some((opcode, payload))) = scan(&bytes) {
            let _ = Request::decode(opcode, payload);
            let _ = Response::decode(opcode, payload);
        }
    }

    /// Decoders are total on corrupted encodings of real frames.
    #[test]
    fn decode_total_on_corruption(
        request in arb_request(),
        flips in proptest::collection::vec((0usize..4096, any::<u8>()), 1..8),
    ) {
        let mut bytes = request.encode();
        for (pos, value) in flips {
            let n = bytes.len();
            bytes[pos % n] = value;
        }
        if let Ok(Some((opcode, payload))) = scan(&bytes) {
            let _ = Request::decode(opcode, payload);
        }
    }

    /// Any opcode byte outside the protocol's request and response
    /// tables is refused at the frame header with `BadOpcode`, and a
    /// byte refused there also decodes to neither frame family.
    #[test]
    fn unknown_opcode_bytes_are_refused(opcode in any::<u8>()) {
        let bytes = [extsec_server::VERSION, opcode, 0, 0, 0, 0];
        match scan(&bytes) {
            Ok(Some((scanned, _))) => prop_assert_eq!(scanned, opcode),
            Err(ProtoError::BadOpcode(byte)) => {
                prop_assert_eq!(byte, opcode);
                prop_assert!(Request::decode(opcode, &[]).is_err());
                prop_assert!(Response::decode(opcode, &[]).is_err());
            }
            other => prop_assert!(false, "expected accept or BadOpcode, got {other:?}"),
        }
    }

    /// A length prefix larger than the limit is refused at the header,
    /// before any payload arrives, whatever the claimed size.
    #[test]
    fn oversize_length_prefix_is_refused(len in (MAX_FRAME + 1)..=u32::MAX) {
        let mut bytes = vec![extsec_server::VERSION, 0x00];
        bytes.extend_from_slice(&len.to_le_bytes());
        match scan(&bytes) {
            Err(ProtoError::Oversize(claimed)) => {
                prop_assert_eq!(claimed, u64::from(len));
            }
            other => prop_assert!(false, "expected oversize refusal, got {other:?}"),
        }
    }
}

/// Principal 300 on thread 9 at rank 2 with categories {1, 200}.
fn golden_subject() -> Subject {
    Subject::on_thread(
        PrincipalId::from_raw(300),
        SecurityClass::new(
            TrustLevel::from_rank(2),
            CategorySet::from_ids([CategoryId::from_index(1), CategoryId::from_index(200)]),
        ),
        ThreadId::from_raw(9),
    )
}

/// `golden_subject`'s encoding: principal, thread, rank, category count,
/// categories, each a ULEB128.
const GOLDEN_SUBJECT: &[u8] = &[172, 2, 9, 2, 2, 1, 200, 1];

fn path(s: &str) -> NsPath {
    s.parse().expect("valid path")
}

/// Encoded `Check` and `BatchCheck` frames, byte for byte. A path goes
/// on the wire as its component count, then each component's length and
/// UTF-8 bytes, whatever form the path takes in memory.
#[test]
fn check_and_batch_frames_are_byte_stable() {
    let check = Request::Check {
        subject: golden_subject(),
        path: path("/svc/fs.read/x-1"),
        mode: AccessMode::Write,
    };
    let mut want = vec![3, 1, 26, 0, 0, 0];
    want.extend_from_slice(GOLDEN_SUBJECT);
    want.extend_from_slice(b"\x03\x03svc\x07fs.read\x03x-1\x01");
    assert_eq!(check.encode(), want);

    let long = "x".repeat(130);
    let batch = Request::BatchCheck {
        subject: golden_subject(),
        items: vec![
            BatchItem {
                path: NsPath::root(),
                mode: AccessMode::Read,
            },
            BatchItem {
                path: path("/a b/!x/é"),
                mode: AccessMode::List,
            },
            BatchItem {
                path: path("/svc/日本/-."),
                mode: AccessMode::Execute,
            },
            BatchItem {
                path: path(&format!("/{long}")),
                mode: AccessMode::Read,
            },
        ],
    };
    let mut want = vec![3, 2, 173, 0, 0, 0];
    want.extend_from_slice(GOLDEN_SUBJECT);
    want.extend_from_slice(b"\x04\x00\x00");
    want.extend_from_slice(b"\x03\x03a b\x02!x\x02\xc3\xa9\x07");
    want.extend_from_slice(b"\x03\x03svc\x06\xe6\x97\xa5\xe6\x9c\xac\x02-.\x03");
    want.extend_from_slice(b"\x01\x82\x01");
    want.extend_from_slice(long.as_bytes());
    want.push(0);
    assert_eq!(batch.encode(), want);

    // More components than one count byte holds (only the decoder caps
    // the count).
    let deep = Request::Check {
        subject: golden_subject(),
        path: NsPath::from_components(["a"; 130]).expect("valid"),
        mode: AccessMode::Read,
    };
    let mut want = vec![3, 1, 15, 1, 0, 0];
    want.extend_from_slice(GOLDEN_SUBJECT);
    want.extend_from_slice(b"\x82\x01");
    want.extend_from_slice(&b"\x01a".repeat(130));
    want.push(0);
    assert_eq!(deep.encode(), want);

    // In place, behind bytes already held: those stay, and exactly the
    // frame follows. The client encodes its borrowed arguments, the
    // subject and paths it does not own, to the same bytes.
    let held = b"held";
    let after_held = |encode: &dyn Fn(&mut Vec<u8>)| {
        let mut out = held.to_vec();
        encode(&mut out);
        assert_eq!(&out[..held.len()], held);
        out.split_off(held.len())
    };
    for request in [&check, &batch, &deep] {
        assert_eq!(
            after_held(&|out| request.encode_into(out)),
            request.encode()
        );
        match request {
            Request::Check {
                subject,
                path,
                mode,
            } => {
                let borrowed = |out: &mut Vec<u8>| {
                    Request::encode_check_into(out, subject, path, *mode);
                };
                assert_eq!(after_held(&borrowed), request.encode());
            }
            Request::BatchCheck { subject, items } => {
                let items: Vec<(NsPath, AccessMode)> = items
                    .iter()
                    .map(|item| (item.path.clone(), item.mode))
                    .collect();
                let borrowed = |out: &mut Vec<u8>| {
                    Request::encode_batch_check_into(out, subject, &items);
                };
                assert_eq!(after_held(&borrowed), request.encode());
            }
            other => panic!("not a check: {other:?}"),
        }
    }
}

/// F11's codec row: a 64-item `BatchCheck` over 64 distinct depth-6
/// paths, encoded in place the way the client sends it and decoded the
/// way the server reads it. Prints each step's median time per batch
/// over 9 rounds of at least 1 ms, and asserts only that the decode
/// returns the encoded request. Timed optimized with
/// `cargo test --release -p extsec-server --test wire_proto batch_codec_row -- --nocapture`.
#[test]
fn batch_codec_row() {
    fn median_ns(mut op: impl FnMut()) -> f64 {
        let mut round = |calls: u32| {
            let started = std::time::Instant::now();
            (0..calls).for_each(|_| op());
            started.elapsed()
        };
        let mut calls = 1;
        while round(calls) < std::time::Duration::from_millis(1) {
            calls *= 2;
        }
        let mut per_call: Vec<f64> = (0..9)
            .map(|_| round(calls).as_nanos() as f64 / f64::from(calls))
            .collect();
        per_call.sort_by(f64::total_cmp);
        per_call[4]
    }

    let subject = golden_subject();
    let items: Vec<(NsPath, AccessMode)> = (0..64)
        .map(|i| {
            let leaf = format!("/campus/dept{}/lab{}/proj/data/file{i}", i / 8, i % 8);
            (path(&leaf), AccessMode::ALL[i % AccessMode::ALL.len()])
        })
        .collect();
    let mut frame = Vec::new();
    Request::encode_batch_check_into(&mut frame, &subject, &items);
    let Ok(Some((opcode, payload))) = scan(&frame) else {
        panic!("one whole frame");
    };
    let encoded = Request::BatchCheck {
        subject: subject.clone(),
        items: items
            .iter()
            .map(|(path, mode)| BatchItem {
                path: path.clone(),
                mode: *mode,
            })
            .collect(),
    };
    assert_eq!(Request::decode(opcode, payload), Ok(encoded));

    let mut out = Vec::with_capacity(frame.len());
    let encode_ns = median_ns(|| {
        out.clear();
        Request::encode_batch_check_into(black_box(&mut out), &subject, black_box(&items));
    });
    let decode_ns = median_ns(|| {
        black_box(Request::decode(opcode, black_box(payload)).unwrap());
    });
    println!(
        "codec: 64-item batch, {}-byte frame: client encode {:.0} ns, server decode {:.0} ns",
        frame.len(),
        encode_ns,
        decode_ns
    );
}

fn uleb(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A `Check` payload for principal 1 at rank 0 whose path is `count`
/// as the component count followed by `components`, then mode `Read`.
fn check_payload(count: usize, components: &[&[u8]]) -> Vec<u8> {
    let mut payload = vec![1, 0, 0, 0];
    uleb(count as u64, &mut payload);
    for component in components {
        uleb(component.len() as u64, &mut payload);
        payload.extend_from_slice(component);
    }
    payload.push(0);
    payload
}

/// Wire paths the name space cannot hold are refused, each with the
/// error it has always had: a component check comes only after every
/// component has been read, so a short payload is `Truncated` even
/// when an earlier component is bad.
#[test]
fn malformed_wire_paths_are_refused() {
    let bad = |c: &str| ProtoError::BadPath(PathError::BadComponent(c.to_string()).to_string());
    let decode = |payload: Vec<u8>| Request::decode(Opcode::Check as u8, &payload);
    for (components, want) in [
        (&[&b"a"[..], b""][..], bad("")),
        (&[b"."], bad(".")),
        (&[b"a", b".."], bad("..")),
        (&[b"a/b"], bad("a/b")),
        (&[b"ok", b"x/", b"."], bad("x/")),
        (&[b"a", b"\xff"], ProtoError::BadUtf8),
        (&[b"\xc3"], ProtoError::BadUtf8),
    ] {
        assert_eq!(
            decode(check_payload(components.len(), components)),
            Err(want),
            "{components:?}"
        );
    }
    // A bad component followed by a truncated one.
    assert_eq!(
        decode(check_payload(2, &[b""])[..6].to_vec()),
        Err(ProtoError::Truncated)
    );
    // A non-UTF-8 component followed by a truncated one: each component
    // is checked as it is read.
    assert_eq!(
        decode(check_payload(2, &[b"\xff", b"abc"])[..9].to_vec()),
        Err(ProtoError::BadUtf8)
    );
    let many: Vec<&[u8]> = vec![b"a"; MAX_COMPONENTS + 1];
    assert_eq!(
        decode(check_payload(many.len(), &many)),
        Err(ProtoError::TooMany(MAX_COMPONENTS as u64 + 1))
    );
    let most: Vec<&[u8]> = vec![b"a"; MAX_COMPONENTS];
    assert!(decode(check_payload(most.len(), &most)).is_ok());
    let huge = vec![b'a'; MAX_STR + 1];
    assert_eq!(
        decode(check_payload(1, &[&huge])),
        Err(ProtoError::Oversize(MAX_STR as u64 + 1))
    );
    let widest = vec![b'a'; MAX_STR];
    assert!(decode(check_payload(1, &[&widest])).is_ok());
}

/// A valid name, now and then long enough that its length takes two
/// ULEB128 bytes.
fn arb_wire_name() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        10 => "[a-z0-9._-]{1,12}".prop_map(String::into_bytes),
        1 => Just("日本".as_bytes().to_vec()),
        2 => (100usize..=200).prop_map(|len| vec![b'n'; len]),
    ]
}

/// A wire path component: mostly a valid name, else one of the kinds
/// the decoder must refuse — `/`-bearing, `.`, `..`, empty, or (nearly
/// always) non-UTF-8 bytes.
fn arb_wire_component() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        16 => arb_wire_name(),
        1 => "[a-z]{0,3}/[a-z]{0,3}".prop_map(String::into_bytes),
        1 => Just(b".".to_vec()),
        1 => Just(b"..".to_vec()),
        1 => Just(Vec::new()),
        1 => Just(b"\xc3".to_vec()),
        1 => proptest::collection::vec(any::<u8>(), 1..6),
    ]
}

/// The subject `check_payload` encodes.
fn payload_subject() -> Subject {
    Subject::on_thread(
        PrincipalId::from_raw(1),
        SecurityClass::new(TrustLevel::from_rank(0), CategorySet::from_ids([])),
        ThreadId::from_raw(0),
    )
}

/// A payload read front to back by the reference decoder.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], ProtoError> {
        if self.0.len() < len {
            return Err(ProtoError::Truncated);
        }
        let (head, tail) = self.0.split_at(len);
        self.0 = tail;
        Ok(head)
    }

    /// A ULEB128 of at most a few bytes, as every one here is.
    fn uleb(&mut self) -> Result<u64, ProtoError> {
        let (mut value, mut shift) = (0u64, 0);
        loop {
            let byte = self.take(1)?[0];
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }
}

/// A reference decoder for `check_payload`'s frames, stating the path
/// rules plainly: per component a ULEB128 length, the bounds check, the
/// bytes and `str::from_utf8`, stopping at the first framing or UTF-8
/// error; once every component is read, the first name
/// `NsPath::valid_component` refuses; then the mode.
fn reference_check_decode(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut at = Cursor(payload);
    // Principal 1, thread 0, rank 0, no categories: one byte each.
    at.take(4)?;
    let count = at.uleb()?;
    if count > MAX_COMPONENTS as u64 {
        return Err(ProtoError::TooMany(count));
    }
    let mut names = Vec::new();
    for _ in 0..count {
        let len = at.uleb()?;
        if len > MAX_STR as u64 {
            return Err(ProtoError::Oversize(len));
        }
        let name = std::str::from_utf8(at.take(len as usize)?).map_err(|_| ProtoError::BadUtf8)?;
        names.push(name);
    }
    if let Some(bad) = names.iter().find(|name| !NsPath::valid_component(name)) {
        let refusal = PathError::BadComponent(bad.to_string());
        return Err(ProtoError::BadPath(refusal.to_string()));
    }
    let path = NsPath::from_components(&names).expect("every name is valid");
    let mode = at.take(1)?[0];
    let mode = *AccessMode::ALL
        .get(usize::from(mode))
        .ok_or(ProtoError::BadTag(mode))?;
    if !at.0.is_empty() {
        return Err(ProtoError::TrailingBytes(at.0.len()));
    }
    Ok(Request::Check {
        subject: payload_subject(),
        path,
        mode,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// On component lists with every kind of bad name, lengths on both
    /// sides of the one-byte boundary and counts past the limit, whole
    /// or cut short, the decoder's path, or its refusal, is the
    /// reference decoder's.
    #[test]
    fn path_decoding_matches_the_reference_decoder(
        names in prop_oneof![
            proptest::collection::vec(arb_wire_name(), 0..=MAX_COMPONENTS + 1),
            proptest::collection::vec(arb_wire_component(), 0..=MAX_COMPONENTS + 1),
        ],
        cut in prop_oneof![3 => Just(None), 1 => any::<usize>().prop_map(Some)],
    ) {
        let names: Vec<&[u8]> = names.iter().map(Vec::as_slice).collect();
        let mut payload = check_payload(names.len(), &names);
        if let Some(cut) = cut {
            payload.truncate(cut % payload.len());
        }
        prop_assert_eq!(
            Request::decode(Opcode::Check as u8, &payload),
            reference_check_decode(&payload)
        );
    }
}
