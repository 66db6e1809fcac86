//! Property tests for the wire protocol: encode → decode is the
//! identity on every frame type, every proper prefix of a frame scans as
//! partial (never as a frame, never a panic), and the frame scan and
//! decoders are total on garbage and corruption.

use extsec_acl::{AccessMode, PrincipalId};
use extsec_mac::{CategoryId, CategorySet, SecurityClass, TrustLevel};
use extsec_namespace::NsPath;
use extsec_refmon::{
    AuditQuery, AuditRecord, BundleId, Decision, DenyReason, GapRange, Generation, Outcome,
    QueryResult, Subject, ThreadId,
};
use extsec_server::proto::{scan_frame, FrameScan, ProtoError};
use extsec_server::{BatchItem, ErrorCode, Request, Response, MAX_FRAME};
use proptest::prelude::*;

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
