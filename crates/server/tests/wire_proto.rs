//! Property tests for the wire protocol: encode → decode is the
//! identity on every frame type, every proper prefix of a frame scans as
//! partial (never as a frame, never a panic), the frame scan and
//! decoders are total on garbage and corruption, and the path decoder
//! agrees with a plain reference decoder on arbitrary path-field bytes,
//! accepting exactly the canonical texts within the bound. One printed
//! row times a 64-item batch's encode and decode.

use extsec_acl::{AccessMode, PrincipalId};
use extsec_mac::{CategoryId, CategorySet, SecurityClass, TrustLevel};
use extsec_namespace::{NsPath, PathError};
use extsec_refmon::{
    AuditQuery, AuditRecord, BundleId, Decision, DenyReason, GapRange, Generation, Outcome,
    QueryResult, Subject, ThreadId,
};
use extsec_server::proto::{scan_frame, FrameScan, ProtoError};
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
/// on the wire as its canonical text: a ULEB128 length, then the UTF-8
/// bytes of `NsPath::as_str`.
#[test]
fn check_and_batch_frames_are_byte_stable() {
    let check = Request::Check {
        subject: golden_subject(),
        path: path("/svc/fs.read/x-1"),
        mode: AccessMode::Write,
    };
    let mut want = vec![4, 1, 26, 0, 0, 0];
    want.extend_from_slice(GOLDEN_SUBJECT);
    want.extend_from_slice(b"\x10/svc/fs.read/x-1\x01");
    assert_eq!(check.encode(), want);

    // The last path is longer than one length byte holds.
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
    let mut want = vec![4, 2, 174, 0, 0, 0];
    want.extend_from_slice(GOLDEN_SUBJECT);
    want.extend_from_slice(b"\x04\x01/\x00");
    want.extend_from_slice(b"\x0a/a b/!x/\xc3\xa9\x07");
    want.extend_from_slice(b"\x0e/svc/\xe6\x97\xa5\xe6\x9c\xac/-.\x03");
    want.extend_from_slice(b"\x83\x01/");
    want.extend_from_slice(long.as_bytes());
    want.push(0);
    assert_eq!(batch.encode(), want);

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
    for request in [&check, &batch] {
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

/// A `Check` payload for principal 1 at rank 0 whose path field is
/// `len` as its length followed by `text`, then mode `Read`.
fn check_payload(len: usize, text: &[u8]) -> Vec<u8> {
    let mut payload = vec![1, 0, 0, 0];
    uleb(len as u64, &mut payload);
    payload.extend_from_slice(text);
    payload.push(0);
    payload
}

/// Wire paths the name space cannot hold, and texts it would not give
/// back, are refused, each with a typed error; a path exactly at the
/// bound is not.
#[test]
fn malformed_wire_paths_are_refused() {
    let decode =
        |text: &[u8]| Request::decode(Opcode::Check as u8, &check_payload(text.len(), text));
    let bad = |e: PathError| Err(ProtoError::BadPath(e.to_string()));
    let name = |c: &str| bad(PathError::BadComponent(c.to_string()));
    for (text, want) in [
        (&b"/a//b"[..], name("")),
        (b"/.", name(".")),
        (b"/a/..", name("..")),
        (b"", bad(PathError::NotAbsolute(String::new()))),
        (b"a/b", bad(PathError::NotAbsolute("a/b".to_string()))),
        (b"/a/\xff", Err(ProtoError::BadUtf8)),
        (b"\xc3", Err(ProtoError::BadUtf8)),
    ] {
        assert_eq!(decode(text), want, "{text:?}");
    }
    // Text `NsPath::as_str` would not give back: one encoding per path.
    for text in [&b"/a/"[..], b"/svc/fs/"] {
        assert!(
            matches!(decode(text), Err(ProtoError::BadPath(_))),
            "{text:?}"
        );
    }
    // A length the payload does not hold.
    let short = Request::decode(Opcode::Check as u8, &check_payload(10, b"/abc"));
    assert_eq!(short, Err(ProtoError::Truncated));
    // Over the bound: refused on the length, before its bytes are read.
    let over = NsPath::MAX_LEN as u64 + 1;
    let claimed = Request::decode(Opcode::Check as u8, &check_payload(over as usize, b""));
    assert_eq!(claimed, Err(ProtoError::Oversize(over)));
    let mut text = vec![b'a'; NsPath::MAX_LEN + 1];
    text[0] = b'/';
    assert_eq!(decode(&text), Err(ProtoError::Oversize(over)));
    text.pop();
    let widest = std::str::from_utf8(&text)
        .unwrap()
        .parse::<NsPath>()
        .unwrap();
    assert_eq!(
        decode(&text),
        Ok(Request::Check {
            subject: payload_subject(),
            path: widest,
            mode: AccessMode::Read,
        })
    );
}

/// Path-field bytes: mostly a path's text, with now and then a name the
/// name space refuses, a trailing `/` or no leading one; else
/// arbitrary bytes, or text on either side of the bound.
fn arb_path_field() -> impl Strategy<Value = Vec<u8>> {
    let name = prop_oneof![
        12 => "[a-z0-9._-]{1,12}",
        1 => Just("日本".to_string()),
        1 => Just(".".to_string()),
        1 => Just("..".to_string()),
        1 => Just(String::new()),
    ];
    let text =
        proptest::collection::vec(name, 0..6).prop_map(|names| format!("/{}", names.join("/")));
    prop_oneof![
        8 => text.prop_map(String::into_bytes),
        1 => "[a-z/]{0,8}/".prop_map(String::into_bytes),
        1 => "[a-z][a-z/]{0,8}".prop_map(String::into_bytes),
        3 => proptest::collection::vec(any::<u8>(), 0..16),
        1 => (NsPath::MAX_LEN - 2..=NsPath::MAX_LEN + 2).prop_map(|len| {
            let mut text = vec![b'n'; len];
            text[0] = b'/';
            text
        }),
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
/// rules plainly: the length, bounded before any byte is read; the
/// bytes; UTF-8; then the text must be `/`, or `/` followed by valid
/// names joined by `/` (any other is `BadPath`, whatever its message);
/// then the mode.
fn reference_check_decode(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut at = Cursor(payload);
    // Principal 1, thread 0, rank 0, no categories: one byte each.
    at.take(4)?;
    let len = at.uleb()?;
    if len > NsPath::MAX_LEN as u64 {
        return Err(ProtoError::Oversize(len));
    }
    let text = std::str::from_utf8(at.take(len as usize)?).map_err(|_| ProtoError::BadUtf8)?;
    let names: Option<Vec<&str>> = match text {
        "/" => Some(Vec::new()),
        _ => text
            .strip_prefix('/')
            .map(|rest| rest.split('/').collect::<Vec<_>>())
            .filter(|names| names.iter().all(|name| NsPath::valid_component(name))),
    };
    let names = names.ok_or(ProtoError::BadPath(String::new()))?;
    let path = NsPath::from_components(&names).expect("every name is valid");
    at.take(1)?;
    Ok(Request::Check {
        subject: payload_subject(),
        path,
        mode: AccessMode::Read,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// On arbitrary bytes in a `Check`'s path field, whole or cut short,
    /// the decoder's path, or its refusal, is the reference decoder's:
    /// it accepts exactly the canonical texts of at most
    /// `NsPath::MAX_LEN` UTF-8 bytes, returns the path each names, and
    /// refuses every other input with a typed error.
    #[test]
    fn path_decoding_matches_the_reference_decoder(
        text in arb_path_field(),
        cut in prop_oneof![3 => Just(None), 1 => any::<usize>().prop_map(Some)],
    ) {
        let mut payload = check_payload(text.len(), &text);
        if let Some(cut) = cut {
            payload.truncate(cut % payload.len());
        }
        let decoded = match Request::decode(Opcode::Check as u8, &payload) {
            Err(ProtoError::BadPath(_)) => Err(ProtoError::BadPath(String::new())),
            other => other,
        };
        prop_assert_eq!(decoded, reference_check_decode(&payload));
    }
}
