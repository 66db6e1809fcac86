//! The versioned, length-prefixed binary wire protocol.
//!
//! Every message is one **frame**: a six-byte header — protocol version,
//! opcode, and a little-endian `u32` payload length — followed by the
//! payload. Inside the payload, lengths and integers use the same ULEB128
//! encoding as the module format (`extsec_vm::wire`), and the decoder
//! follows the same discipline: every length is bounded *before* a byte
//! of it is read, every tag is validated, strings must be UTF-8, and a
//! payload must be consumed exactly — trailing bytes are an error. A
//! malformed or hostile frame can produce a [`ProtoError`], never a
//! panic or an attempt to allocate what the length prefix claims.
//!
//! The request set mirrors the monitor's read API: single [`Check`],
//! batched [`BatchCheck`] (the reason this protocol exists — one frame,
//! one snapshot pin, many decisions), [`List`], [`Explain`], and a
//! [`Telemetry`] pull. Version 2 adds the policy-bundle admin set:
//! [`LoadBundle`], [`Activate`], [`Shadow`], [`Rollback`], and
//! [`BundleStatus`]. Version 3 adds the audit admin pair:
//! [`AuditQuery`] (a filtered, bounded scan of the persisted audit
//! chain, answered with a binary page of records and declared gaps) and
//! [`AuditVerify`] (a chain-integrity re-derivation, answered with a
//! JSON report). Structured results (explanations, telemetry, bundle
//! status, verify reports) ride as JSON documents so they stay
//! debuggable with standard tooling; decisions and audit records, the
//! bulk paths, stay binary.
//!
//! Both message enums implement [`WireMessage`]: one `opcode()` /
//! `encode_payload()` / `decode_payload()` surface over a shared set of
//! ULEB128 and bounded-length combinators, so a new frame is a new match
//! arm against the combinators, never a new hand-rolled byte layout.
//!
//! [`Check`]: Request::Check
//! [`BatchCheck`]: Request::BatchCheck
//! [`List`]: Request::List
//! [`Explain`]: Request::Explain
//! [`Telemetry`]: Request::Telemetry
//! [`LoadBundle`]: Request::LoadBundle
//! [`Activate`]: Request::Activate
//! [`Shadow`]: Request::Shadow
//! [`Rollback`]: Request::Rollback
//! [`BundleStatus`]: Request::BundleStatus
//! [`AuditQuery`]: Request::AuditQuery
//! [`AuditVerify`]: Request::AuditVerify

use extsec_acl::{AccessMode, PrincipalId};
use extsec_mac::{CategoryId, CategorySet, SecurityClass, TrustLevel};
use extsec_namespace::{NsPath, PathError};
use extsec_refmon::{
    AuditQuery, AuditRecord, BundleId, Decision, DenyReason, GapRange, Generation, Outcome,
    QueryResult, Subject, ThreadId,
};
use std::fmt;
use std::io::{self, Read, Write};

/// The protocol version carried in every frame header. Version 2 added
/// the policy-bundle admin frames; version 3 added the audit
/// query/verify pair.
pub const VERSION: u8 = 3;

/// Bytes in a frame header: version, opcode, and a `u32` payload length.
pub const HEADER_LEN: usize = 6;

/// Hard ceiling on a frame's payload length. The reader rejects larger
/// length prefixes before allocating, so a hostile header cannot trigger
/// a large allocation (the length-bomb guard, as in `vm::wire`).
pub const MAX_FRAME: u32 = 1 << 20;

/// Hard protocol ceiling on the number of items in one batch. Servers may
/// (and by default do) enforce a lower operational limit.
pub const MAX_BATCH: usize = 4096;

/// Ceiling on one path component or error message on the wire.
pub const MAX_STR: usize = 4096;

/// Ceiling on the number of components in one path.
pub const MAX_COMPONENTS: usize = 64;

/// Ceiling on the number of categories in one subject's class.
pub const MAX_CATEGORIES: usize = 4096;

/// Ceiling on the number of names in one listing response.
pub const MAX_LIST: usize = 1 << 16;

/// Ceiling on a policy-bundle source document on the wire.
pub const MAX_BUNDLE: usize = 1 << 16;

/// Ceiling on the number of audit records in one query-result frame —
/// the protocol-level mirror of the query API's own page cap
/// (`AuditQuery::MAX_LIMIT`).
pub const MAX_AUDIT_RECORDS: usize = 4096;

/// Ceiling on the number of declared gap ranges in one query-result
/// frame. Gaps are rare (each covers a whole shed burst), so this bound
/// is generous without admitting a length bomb.
pub const MAX_AUDIT_GAPS: usize = 1 << 16;

/// Ceiling on the segment verdicts one verify answer lists, which keeps
/// the answer inside [`MAX_FRAME`] however many segments the log holds;
/// the report counts the verdicts it leaves out (see
/// `VerifyReport::cap_segments`).
pub const MAX_AUDIT_SEGMENTS: usize = 2048;

/// Request opcodes. Values are the wire bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness probe; answered with `Pong`.
    Ping = 0x00,
    /// One access check.
    Check = 0x01,
    /// Many checks against one pinned snapshot.
    BatchCheck = 0x02,
    /// List the children of a container.
    List = 0x03,
    /// Full reasoning trace for one check.
    Explain = 0x04,
    /// Pull a combined monitor + server telemetry snapshot.
    Telemetry = 0x05,
    /// Stage a policy bundle from source text (admin).
    LoadBundle = 0x06,
    /// Activate a staged bundle in one atomic publish (admin).
    Activate = 0x07,
    /// Toggle shadow evaluation of a staged bundle (admin).
    Shadow = 0x08,
    /// Roll back to the most recent pre-activation snapshot (admin).
    Rollback = 0x09,
    /// Pull the bundle subsystem's status report (admin).
    BundleStatus = 0x0A,
    /// Filtered, bounded scan of the persisted audit chain (admin).
    AuditQuery = 0x0B,
    /// Re-derive the audit chain and report per-segment integrity
    /// (admin).
    AuditVerify = 0x0C,
}

impl Opcode {
    /// Every request opcode, in wire order.
    pub const ALL: [Opcode; 13] = [
        Opcode::Ping,
        Opcode::Check,
        Opcode::BatchCheck,
        Opcode::List,
        Opcode::Explain,
        Opcode::Telemetry,
        Opcode::LoadBundle,
        Opcode::Activate,
        Opcode::Shadow,
        Opcode::Rollback,
        Opcode::BundleStatus,
        Opcode::AuditQuery,
        Opcode::AuditVerify,
    ];

    /// Number of request opcodes (for per-opcode counter arrays).
    pub const COUNT: usize = Opcode::ALL.len();

    /// Decodes a wire byte, if it names a request opcode.
    pub fn from_u8(byte: u8) -> Option<Opcode> {
        Opcode::ALL.into_iter().find(|op| *op as u8 == byte)
    }

    /// A short stable name, for telemetry keys and logs.
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Ping => "ping",
            Opcode::Check => "check",
            Opcode::BatchCheck => "batch-check",
            Opcode::List => "list",
            Opcode::Explain => "explain",
            Opcode::Telemetry => "telemetry",
            Opcode::LoadBundle => "load-bundle",
            Opcode::Activate => "activate",
            Opcode::Shadow => "shadow",
            Opcode::Rollback => "rollback",
            Opcode::BundleStatus => "bundle-status",
            Opcode::AuditQuery => "audit-query",
            Opcode::AuditVerify => "audit-verify",
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// Response opcodes (high bit set, so the two spaces never collide).
const OP_PONG: u8 = 0x80;
const OP_DECISION: u8 = 0x81;
const OP_BATCH: u8 = 0x82;
const OP_LISTING: u8 = 0x83;
const OP_EXPLANATION: u8 = 0x84;
const OP_TELEMETRY: u8 = 0x85;
const OP_BUSY: u8 = 0x86;
const OP_BUNDLE_STAGED: u8 = 0x87;
const OP_GENERATION: u8 = 0x88;
const OP_BUNDLE_STATUS: u8 = 0x89;
const OP_AUDIT_EVENTS: u8 = 0x8A;
const OP_AUDIT_REPORT: u8 = 0x8B;
const OP_ERROR: u8 = 0xBF;

/// Every response opcode, in wire order. The header scanners use this to
/// refuse an unknown opcode byte before a payload byte is read.
const RESPONSE_OPCODES: [u8; 12] = [
    OP_PONG,
    OP_DECISION,
    OP_BATCH,
    OP_LISTING,
    OP_EXPLANATION,
    OP_TELEMETRY,
    OP_BUSY,
    OP_BUNDLE_STAGED,
    OP_GENERATION,
    OP_BUNDLE_STATUS,
    OP_AUDIT_EVENTS,
    OP_AUDIT_REPORT,
];

/// Whether a wire byte names a known request or response opcode.
fn known_opcode(byte: u8) -> bool {
    byte == OP_ERROR || Opcode::from_u8(byte).is_some() || RESPONSE_OPCODES.contains(&byte)
}

/// Error classes a server can answer with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame could not be decoded.
    Protocol = 0,
    /// The frame's version byte is not [`VERSION`].
    Version = 1,
    /// The opcode names no request.
    Opcode = 2,
    /// The payload length exceeds the server's frame limit.
    Oversize = 3,
    /// A batch exceeds the server's batch limit (the frame itself is
    /// well-formed; the connection stays open).
    BatchTooLarge = 4,
    /// The claimed subject's class is not valid in the server's lattice.
    InvalidSubject = 5,
    /// The operation itself was denied or failed (e.g. `list` on a path
    /// the subject may not see).
    Denied = 6,
    /// The server failed internally.
    Internal = 7,
    /// A bundle failed to parse or compile against the live policy (the
    /// frame itself is well-formed; the connection stays open).
    InvalidBundle = 8,
    /// A bundle's base generation no longer matches the active one:
    /// policy moved between staging and activation.
    GenerationConflict = 9,
    /// The server has no persistent audit pipeline attached, so audit
    /// queries and verification cannot be answered (the frame itself is
    /// well-formed; the connection stays open).
    AuditUnavailable = 10,
}

impl ErrorCode {
    /// Decodes a wire byte, if it names an error code.
    pub fn from_u8(byte: u8) -> Option<ErrorCode> {
        const ALL: [ErrorCode; 11] = [
            ErrorCode::Protocol,
            ErrorCode::Version,
            ErrorCode::Opcode,
            ErrorCode::Oversize,
            ErrorCode::BatchTooLarge,
            ErrorCode::InvalidSubject,
            ErrorCode::Denied,
            ErrorCode::Internal,
            ErrorCode::InvalidBundle,
            ErrorCode::GenerationConflict,
            ErrorCode::AuditUnavailable,
        ];
        ALL.into_iter().find(|c| *c as u8 == byte)
    }

    /// A short stable name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Protocol => "protocol",
            ErrorCode::Version => "version",
            ErrorCode::Opcode => "opcode",
            ErrorCode::Oversize => "oversize",
            ErrorCode::BatchTooLarge => "batch-too-large",
            ErrorCode::InvalidSubject => "invalid-subject",
            ErrorCode::Denied => "denied",
            ErrorCode::Internal => "internal",
            ErrorCode::InvalidBundle => "invalid-bundle",
            ErrorCode::GenerationConflict => "generation-conflict",
            ErrorCode::AuditUnavailable => "audit-unavailable",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Decode errors. Every variant is a refusal, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The frame header carries an unknown protocol version.
    BadVersion(u8),
    /// The opcode byte names neither a request nor a response.
    BadOpcode(u8),
    /// The payload ended before the structure it promised.
    Truncated,
    /// A length prefix exceeds its limit; carries the claimed length.
    Oversize(u64),
    /// A string is not valid UTF-8.
    BadUtf8,
    /// An enum tag byte is out of range.
    BadTag(u8),
    /// The payload has bytes left after its structure; carries the count.
    TrailingBytes(usize),
    /// The components do not form a valid path.
    BadPath(String),
    /// A count prefix exceeds its limit; carries the claimed count.
    TooMany(u64),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtoError::Truncated => write!(f, "truncated payload"),
            ProtoError::Oversize(n) => write!(f, "length {n} exceeds limit"),
            ProtoError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            ProtoError::BadTag(t) => write!(f, "tag {t:#04x} out of range"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            ProtoError::BadPath(e) => write!(f, "invalid path: {e}"),
            ProtoError::TooMany(n) => write!(f, "count {n} exceeds limit"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// One item of a batched check.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchItem {
    /// The object path.
    pub path: NsPath,
    /// The requested mode.
    pub mode: AccessMode,
}

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// One access check.
    Check {
        /// The claimed subject (see the crate docs on the trust model).
        subject: Subject,
        /// The object path.
        path: NsPath,
        /// The requested mode.
        mode: AccessMode,
    },
    /// Many checks answered against one pinned snapshot.
    BatchCheck {
        /// The claimed subject, shared by every item.
        subject: Subject,
        /// The checks to run.
        items: Vec<BatchItem>,
    },
    /// List the children of the container at `path`.
    List {
        /// The claimed subject.
        subject: Subject,
        /// The container path.
        path: NsPath,
    },
    /// Full reasoning trace for one check.
    Explain {
        /// The claimed subject.
        subject: Subject,
        /// The object path.
        path: NsPath,
        /// The requested mode.
        mode: AccessMode,
    },
    /// Pull a combined monitor + server telemetry snapshot.
    Telemetry,
    /// Stage a policy bundle from source text (admin). Answered with
    /// [`Response::BundleStaged`] or a typed error
    /// ([`ErrorCode::InvalidBundle`]).
    LoadBundle {
        /// The bundle document in the `extsec_lang::bundle` dialect.
        source: String,
    },
    /// Activate a staged bundle: one atomic publish (admin). Answered
    /// with [`Response::BundleAck`], or [`ErrorCode::GenerationConflict`]
    /// when the bundle's base generation is stale.
    Activate {
        /// The handle `LoadBundle` returned.
        bundle: BundleId,
    },
    /// Toggle shadow evaluation of a staged bundle (admin). While on,
    /// checks are dual-evaluated and would-be flips counted; enforced
    /// decisions never change.
    Shadow {
        /// The handle `LoadBundle` returned (ignored when turning off).
        bundle: BundleId,
        /// `true` to enter shadow mode, `false` to leave it.
        on: bool,
    },
    /// Roll back to the most recent pre-activation snapshot (admin).
    Rollback,
    /// Pull the bundle subsystem's status report (admin).
    BundleStatus,
    /// Run a filtered, bounded scan over the persisted audit chain
    /// (admin). Answered with [`Response::AuditEvents`], or
    /// [`ErrorCode::AuditUnavailable`] when no pipeline is attached.
    AuditQuery {
        /// The filters and page bounds, verbatim from the query API.
        query: AuditQuery,
    },
    /// Re-derive the persisted audit chain and report per-segment
    /// integrity (admin). Answered with [`Response::AuditReport`], or
    /// [`ErrorCode::AuditUnavailable`] when no pipeline is attached.
    AuditVerify,
}

/// The typed wire codec surface shared by [`Request`] and [`Response`]:
/// an opcode byte plus a payload codec built from the module's shared
/// ULEB128 and bounded-length combinators. `encode_into()` and `encode()`
/// are provided — they frame the payload under the message's opcode — so
/// a new message kind only ever supplies the three primitives.
pub trait WireMessage: Sized {
    /// The wire opcode byte this message is framed under.
    fn opcode_byte(&self) -> u8;

    /// Appends the payload bytes (no header) to `buf`.
    fn encode_payload(&self, buf: &mut Vec<u8>);

    /// Decodes a payload for `opcode`. Implementations must consume the
    /// payload exactly and refuse unknown opcodes with
    /// [`ProtoError::BadOpcode`] carrying the byte.
    fn decode_payload(opcode: u8, payload: &[u8]) -> Result<Self, ProtoError>;

    /// Appends the complete frame to `out`, leaving what `out` already
    /// holds alone: the payload is encoded in place behind the header.
    fn encode_into(&self, out: &mut Vec<u8>) {
        framed(out, self.opcode_byte(), |buf| self.encode_payload(buf));
    }

    /// Encodes the complete frame: header plus payload.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

impl Request {
    /// This request's opcode.
    pub fn opcode(&self) -> Opcode {
        match self {
            Request::Ping => Opcode::Ping,
            Request::Check { .. } => Opcode::Check,
            Request::BatchCheck { .. } => Opcode::BatchCheck,
            Request::List { .. } => Opcode::List,
            Request::Explain { .. } => Opcode::Explain,
            Request::Telemetry => Opcode::Telemetry,
            Request::LoadBundle { .. } => Opcode::LoadBundle,
            Request::Activate { .. } => Opcode::Activate,
            Request::Shadow { .. } => Opcode::Shadow,
            Request::Rollback => Opcode::Rollback,
            Request::BundleStatus => Opcode::BundleStatus,
            Request::AuditQuery { .. } => Opcode::AuditQuery,
            Request::AuditVerify => Opcode::AuditVerify,
        }
    }

    /// Encodes the complete frame: header plus payload.
    pub fn encode(&self) -> Vec<u8> {
        WireMessage::encode(self)
    }

    /// Appends the frame a [`Check`](Request::Check) of these fields
    /// encodes to, encoding the borrowed fields themselves, so nothing is
    /// cloned.
    pub fn encode_check_into(
        out: &mut Vec<u8>,
        subject: &Subject,
        path: &NsPath,
        mode: AccessMode,
    ) {
        framed(out, Opcode::Check as u8, |buf| {
            Enc::new(buf).check(subject, path, mode);
        });
    }

    /// Appends the frame a [`BatchCheck`](Request::BatchCheck) of these
    /// items encodes to, encoding the borrowed items themselves, so no
    /// path is cloned.
    pub fn encode_batch_check_into(
        out: &mut Vec<u8>,
        subject: &Subject,
        items: &[(NsPath, AccessMode)],
    ) {
        framed(out, Opcode::BatchCheck as u8, |buf| {
            Enc::new(buf).batch(subject, items.iter().map(|(path, mode)| (path, *mode)));
        });
    }

    /// Decodes a request payload for `opcode`.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Request, ProtoError> {
        Request::decode_payload(opcode, payload)
    }
}

impl WireMessage for Request {
    fn opcode_byte(&self) -> u8 {
        self.opcode() as u8
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        let mut enc = Enc::new(buf);
        match self {
            Request::Ping
            | Request::Telemetry
            | Request::Rollback
            | Request::BundleStatus
            | Request::AuditVerify => {}
            Request::Check {
                subject,
                path,
                mode,
            }
            | Request::Explain {
                subject,
                path,
                mode,
            } => enc.check(subject, path, *mode),
            Request::BatchCheck { subject, items } => {
                enc.batch(subject, items.iter().map(|item| (&item.path, item.mode)));
            }
            Request::List { subject, path } => {
                enc.subject(subject);
                enc.path(path);
            }
            Request::LoadBundle { source } => enc.str(source),
            Request::Activate { bundle } => enc.uleb(bundle.raw()),
            Request::Shadow { bundle, on } => {
                enc.uleb(bundle.raw());
                enc.u8(u8::from(*on));
            }
            Request::AuditQuery { query } => enc.audit_query(query),
        }
    }

    fn decode_payload(opcode: u8, payload: &[u8]) -> Result<Request, ProtoError> {
        let op = Opcode::from_u8(opcode).ok_or(ProtoError::BadOpcode(opcode))?;
        let mut dec = Dec::new(payload);
        let req = match op {
            Opcode::Ping => Request::Ping,
            Opcode::Telemetry => Request::Telemetry,
            Opcode::Rollback => Request::Rollback,
            Opcode::BundleStatus => Request::BundleStatus,
            Opcode::Check => Request::Check {
                subject: dec.subject()?,
                path: dec.path()?,
                mode: dec.mode()?,
            },
            Opcode::Explain => Request::Explain {
                subject: dec.subject()?,
                path: dec.path()?,
                mode: dec.mode()?,
            },
            Opcode::BatchCheck => {
                let subject = dec.subject()?;
                let count = dec.count(MAX_BATCH)?;
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(BatchItem {
                        path: dec.path()?,
                        mode: dec.mode()?,
                    });
                }
                Request::BatchCheck { subject, items }
            }
            Opcode::List => Request::List {
                subject: dec.subject()?,
                path: dec.path()?,
            },
            Opcode::LoadBundle => Request::LoadBundle {
                source: dec.str(MAX_BUNDLE)?,
            },
            Opcode::Activate => Request::Activate {
                bundle: BundleId::from_raw(dec.uleb()?),
            },
            Opcode::Shadow => Request::Shadow {
                bundle: BundleId::from_raw(dec.uleb()?),
                on: dec.flag()?,
            },
            Opcode::AuditQuery => Request::AuditQuery {
                query: dec.audit_query()?,
            },
            Opcode::AuditVerify => Request::AuditVerify,
        };
        dec.finish()?;
        Ok(req)
    }
}

/// A server-to-client message. Each request frame is answered by exactly
/// one response frame, in order.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to `Ping`.
    Pong,
    /// Answer to `Check`.
    Decision(Decision),
    /// Answer to `BatchCheck`; one decision per item, in item order, all
    /// from the same snapshot.
    Batch(Vec<Decision>),
    /// Answer to `List`.
    Listing(Vec<String>),
    /// Answer to `Explain`: a JSON document of the monitor's
    /// `Explanation`.
    Explanation(String),
    /// Answer to `Telemetry`: a JSON document with `monitor` and
    /// `server` members.
    Telemetry(String),
    /// The server is saturated and sheds this connection (or request)
    /// instead of serving it. Unlike an [`Error`](Response::Error), this
    /// is an explicit invitation to retry: the client should back off
    /// for at least `retry_after_ms` and reconnect.
    Busy {
        /// Suggested minimum backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// Answer to `LoadBundle`: the staged bundle's handle and the base
    /// generation it was pinned to.
    BundleStaged {
        /// The handle to activate or shadow the bundle by.
        bundle: BundleId,
        /// The resolved base generation (a `base current` header resolves
        /// at stage time).
        base: Generation,
    },
    /// Answer to `Activate`, `Shadow`, and `Rollback`: the generation
    /// active once the publish landed.
    BundleAck {
        /// The now-active policy generation.
        generation: Generation,
    },
    /// Answer to `BundleStatus`: a JSON document of the monitor's
    /// `BundleStatusReport`.
    BundleStatus(String),
    /// Answer to `AuditQuery`: one binary page of matching records and
    /// the declared shed gaps overlapping the queried window, plus the
    /// pagination cursor.
    AuditEvents(QueryResult),
    /// Answer to `AuditVerify`: a JSON document of the audit pipeline's
    /// `VerifyReport` (per-segment chain-integrity verdicts).
    AuditReport(String),
    /// Any request may be refused with an error instead.
    Error {
        /// The error class.
        code: ErrorCode,
        /// A human-readable description.
        message: String,
    },
}

impl Response {
    /// This response's wire opcode.
    pub fn opcode(&self) -> u8 {
        match self {
            Response::Pong => OP_PONG,
            Response::Decision(_) => OP_DECISION,
            Response::Batch(_) => OP_BATCH,
            Response::Listing(_) => OP_LISTING,
            Response::Explanation(_) => OP_EXPLANATION,
            Response::Telemetry(_) => OP_TELEMETRY,
            Response::Busy { .. } => OP_BUSY,
            Response::BundleStaged { .. } => OP_BUNDLE_STAGED,
            Response::BundleAck { .. } => OP_GENERATION,
            Response::BundleStatus(_) => OP_BUNDLE_STATUS,
            Response::AuditEvents(_) => OP_AUDIT_EVENTS,
            Response::AuditReport(_) => OP_AUDIT_REPORT,
            Response::Error { .. } => OP_ERROR,
        }
    }

    /// Encodes the complete frame: header plus payload.
    pub fn encode(&self) -> Vec<u8> {
        WireMessage::encode(self)
    }

    /// Decodes a response payload for `opcode`.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Response, ProtoError> {
        Response::decode_payload(opcode, payload)
    }
}

impl WireMessage for Response {
    fn opcode_byte(&self) -> u8 {
        self.opcode()
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        let mut enc = Enc::new(buf);
        match self {
            Response::Pong => {}
            Response::Decision(decision) => enc.decision(decision),
            Response::Batch(decisions) => {
                enc.uleb(decisions.len() as u64);
                for decision in decisions {
                    enc.decision(decision);
                }
            }
            Response::Listing(names) => {
                enc.uleb(names.len() as u64);
                for name in names {
                    enc.str(name);
                }
            }
            Response::Explanation(json)
            | Response::Telemetry(json)
            | Response::BundleStatus(json)
            | Response::AuditReport(json) => enc.str(json),
            Response::AuditEvents(result) => enc.audit_result(result),
            Response::Busy { retry_after_ms } => enc.uleb(*retry_after_ms),
            Response::BundleStaged { bundle, base } => {
                enc.uleb(bundle.raw());
                enc.uleb(base.raw());
            }
            Response::BundleAck { generation } => enc.uleb(generation.raw()),
            Response::Error { code, message } => {
                enc.u8(*code as u8);
                enc.str(message);
            }
        }
    }

    fn decode_payload(opcode: u8, payload: &[u8]) -> Result<Response, ProtoError> {
        let mut dec = Dec::new(payload);
        let resp = match opcode {
            OP_PONG => Response::Pong,
            OP_DECISION => Response::Decision(dec.decision()?),
            OP_BATCH => {
                let count = dec.count(MAX_BATCH)?;
                let mut decisions = Vec::with_capacity(count);
                for _ in 0..count {
                    decisions.push(dec.decision()?);
                }
                Response::Batch(decisions)
            }
            OP_LISTING => {
                let count = dec.count(MAX_LIST)?;
                let mut names = Vec::with_capacity(count);
                for _ in 0..count {
                    names.push(dec.str(MAX_STR)?);
                }
                Response::Listing(names)
            }
            OP_EXPLANATION => Response::Explanation(dec.str(MAX_FRAME as usize)?),
            OP_TELEMETRY => Response::Telemetry(dec.str(MAX_FRAME as usize)?),
            OP_BUSY => Response::Busy {
                retry_after_ms: dec.uleb()?,
            },
            OP_BUNDLE_STAGED => Response::BundleStaged {
                bundle: BundleId::from_raw(dec.uleb()?),
                base: Generation::from_raw(dec.uleb()?),
            },
            OP_GENERATION => Response::BundleAck {
                generation: Generation::from_raw(dec.uleb()?),
            },
            OP_BUNDLE_STATUS => Response::BundleStatus(dec.str(MAX_FRAME as usize)?),
            OP_AUDIT_EVENTS => Response::AuditEvents(dec.audit_result()?),
            OP_AUDIT_REPORT => Response::AuditReport(dec.str(MAX_FRAME as usize)?),
            OP_ERROR => {
                let byte = dec.u8()?;
                let code = ErrorCode::from_u8(byte).ok_or(ProtoError::BadTag(byte))?;
                let message = dec.str(MAX_STR)?;
                Response::Error { code, message }
            }
            other => return Err(ProtoError::BadOpcode(other)),
        };
        dec.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Payload codec: the shared combinators behind every WireMessage.

/// Rewrites a copy of a non-root path's text (`/c1/…/cn`) into its wire
/// components by replacing each `/` with the length of the component
/// after it. Returns the component count, or `None` (leaving `text`
/// partly rewritten) when a length or the count needs a second ULEB128
/// byte.
fn slashes_to_lengths(text: &mut [u8]) -> Option<u8> {
    let mut count = 0u8;
    let mut slash = 0;
    while slash < text.len() {
        let rest = &text[slash + 1..];
        let len = rest.iter().position(|&b| b == b'/').unwrap_or(rest.len());
        if len >= 0x80 || count == 0x7f {
            return None;
        }
        text[slash] = len as u8;
        count += 1;
        slash += len + 1;
    }
    Some(count)
}

/// The inverse of [`slashes_to_lengths`] on a copy of a path's wire
/// components, each length under 128: turns each length byte back into
/// `/`.
fn lengths_to_slashes(text: &mut [u8]) {
    let mut slash = 0;
    while slash < text.len() {
        let len = usize::from(text[slash]);
        text[slash] = b'/';
        slash += len + 1;
    }
}

/// Appends one frame to `out`: the header with a placeholder length,
/// the payload `payload` writes behind it, then the length patched in.
fn framed(out: &mut Vec<u8>, opcode: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[VERSION, opcode, 0, 0, 0, 0]);
    payload(out);
    let len = (out.len() - start - HEADER_LEN) as u32;
    out[start + 2..start + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
}

/// The encoding combinators, borrowing the caller's buffer so nested
/// structures compose without copies.
struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Enc<'a> {
    fn new(buf: &'a mut Vec<u8>) -> Self {
        Enc { buf }
    }

    fn u8(&mut self, byte: u8) {
        self.buf.push(byte);
    }

    fn uleb(&mut self, mut value: u64) {
        loop {
            let byte = (value & 0x7f) as u8;
            value >>= 7;
            if value == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    fn str(&mut self, s: &str) {
        self.uleb(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn mode(&mut self, mode: AccessMode) {
        self.u8(mode as u8);
    }

    fn subject(&mut self, subject: &Subject) {
        self.uleb(u64::from(subject.principal.raw()));
        self.uleb(subject.thread.raw());
        self.uleb(u64::from(subject.class.level().rank()));
        let cats = subject.class.categories();
        self.uleb(cats.len() as u64);
        for cat in cats.iter() {
            self.uleb(u64::from(cat.index()));
        }
    }

    /// The body `Check` and `Explain` share.
    fn check(&mut self, subject: &Subject, path: &NsPath, mode: AccessMode) {
        self.subject(subject);
        self.path(path);
        self.mode(mode);
    }

    /// A `BatchCheck` body: the subject, the item count, then each item.
    fn batch<'p>(
        &mut self,
        subject: &Subject,
        items: impl ExactSizeIterator<Item = (&'p NsPath, AccessMode)>,
    ) {
        self.subject(subject);
        self.uleb(items.len() as u64);
        for (path, mode) in items {
            self.path(path);
            self.mode(mode);
        }
    }

    /// A path: its component count, then each component's length and
    /// bytes. While every length and the count fit one ULEB128 byte
    /// (under 128), that is the path's text, copied once, with each `/`
    /// replaced by the length of the component after it; a loop that
    /// copies component by component encodes a batch about half as
    /// fast, so it serves only the longer cases.
    fn path(&mut self, path: &NsPath) {
        let start = self.buf.len();
        self.buf.push(0);
        if path.is_root() {
            return;
        }
        self.buf.extend_from_slice(path.as_str().as_bytes());
        if let Some(count) = slashes_to_lengths(&mut self.buf[start + 1..]) {
            self.buf[start] = count;
            return;
        }
        self.buf.truncate(start);
        self.uleb(path.depth() as u64);
        for component in path.components() {
            self.str(component);
        }
    }

    /// An optional unsigned integer: a presence flag, then the value.
    fn opt_uleb(&mut self, value: Option<u64>) {
        match value {
            Some(v) => {
                self.u8(1);
                self.uleb(v);
            }
            None => self.u8(0),
        }
    }

    fn audit_query(&mut self, query: &AuditQuery) {
        self.opt_uleb(query.principal.map(u64::from));
        match &query.path_prefix {
            Some(prefix) => {
                self.u8(1);
                self.str(prefix);
            }
            None => self.u8(0),
        }
        match query.outcome {
            Some(outcome) => {
                self.u8(1);
                self.u8(outcome as u8);
            }
            None => self.u8(0),
        }
        self.uleb(query.seq_min);
        self.opt_uleb(query.seq_max);
        self.uleb(u64::from(query.limit));
    }

    fn audit_record(&mut self, record: &AuditRecord) {
        self.uleb(record.seq);
        self.uleb(u64::from(record.principal));
        self.uleb(record.generation);
        self.u8(record.mode);
        self.u8(record.outcome as u8);
        self.str(&record.path);
    }

    fn audit_result(&mut self, result: &QueryResult) {
        self.uleb(result.records.len() as u64);
        for record in &result.records {
            self.audit_record(record);
        }
        self.uleb(result.gaps.len() as u64);
        for gap in &result.gaps {
            self.uleb(gap.first);
            self.uleb(gap.last);
        }
        self.u8(u8::from(result.truncated));
        self.uleb(result.next_seq);
    }

    fn decision(&mut self, decision: &Decision) {
        match decision {
            Decision::Allow => self.u8(0x00),
            Decision::Deny(reason) => {
                self.u8(0x01);
                match reason {
                    DenyReason::DacNoEntry => self.u8(0),
                    DenyReason::DacNegativeEntry(index) => {
                        self.u8(1);
                        self.uleb(*index as u64);
                    }
                    DenyReason::MacFlow => self.u8(2),
                    DenyReason::NotVisibleDac(path) => {
                        self.u8(3);
                        self.path(path);
                    }
                    DenyReason::NotVisibleMac(path) => {
                        self.u8(4);
                        self.path(path);
                    }
                    DenyReason::NotFound(path) => {
                        self.u8(5);
                        self.path(path);
                    }
                    DenyReason::Structure(message) => {
                        self.u8(6);
                        self.str(message);
                    }
                }
            }
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        let byte = *self.buf.get(self.pos).ok_or(ProtoError::Truncated)?;
        self.pos += 1;
        Ok(byte)
    }

    fn uleb(&mut self) -> Result<u64, ProtoError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(ProtoError::Oversize(u64::MAX));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(ProtoError::Oversize(u64::MAX));
            }
        }
    }

    /// Reads a count prefix, bounded by `max` before any allocation.
    fn count(&mut self, max: usize) -> Result<usize, ProtoError> {
        let count = self.uleb()?;
        if count > max as u64 {
            return Err(ProtoError::TooMany(count));
        }
        Ok(count as usize)
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(len).ok_or(ProtoError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(ProtoError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// A length-prefixed run of at most `max` bytes, borrowed from the
    /// payload.
    fn blob(&mut self, max: usize) -> Result<&'a [u8], ProtoError> {
        let len = self.uleb()?;
        if len > max as u64 {
            return Err(ProtoError::Oversize(len));
        }
        self.bytes(len as usize)
    }

    /// A length-prefixed UTF-8 string of at most `max` bytes, borrowed
    /// from the payload.
    fn str_ref(&mut self, max: usize) -> Result<&'a str, ProtoError> {
        std::str::from_utf8(self.blob(max)?).map_err(|_| ProtoError::BadUtf8)
    }

    fn str(&mut self, max: usize) -> Result<String, ProtoError> {
        self.str_ref(max).map(str::to_owned)
    }

    fn mode(&mut self) -> Result<AccessMode, ProtoError> {
        let byte = self.u8()?;
        AccessMode::ALL
            .get(byte as usize)
            .copied()
            .ok_or(ProtoError::BadTag(byte))
    }

    /// A strict boolean byte: anything but 0 or 1 is a bad tag.
    fn flag(&mut self) -> Result<bool, ProtoError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(ProtoError::BadTag(tag)),
        }
    }

    fn subject(&mut self) -> Result<Subject, ProtoError> {
        let principal = self.uleb()?;
        if principal > u64::from(u32::MAX) {
            return Err(ProtoError::Oversize(principal));
        }
        let thread = self.uleb()?;
        let rank = self.uleb()?;
        if rank > u64::from(u16::MAX) {
            return Err(ProtoError::Oversize(rank));
        }
        let count = self.count(MAX_CATEGORIES)?;
        let mut categories = Vec::with_capacity(count);
        for _ in 0..count {
            let index = self.uleb()?;
            if index > u64::from(u16::MAX) {
                return Err(ProtoError::Oversize(index));
            }
            categories.push(CategoryId::from_index(index as u16));
        }
        let class = SecurityClass::new(
            TrustLevel::from_rank(rank as u16),
            CategorySet::from_ids(categories),
        );
        Ok(Subject::on_thread(
            PrincipalId::from_raw(principal as u32),
            class,
            ThreadId::from_raw(thread),
        ))
    }

    /// A path: its component count, then each component. A path in
    /// [`Enc::path`]'s one-copy form is taken as a whole; any other is
    /// read component by component, which is also what refuses a
    /// malformed one, each with the error it has always had.
    fn path(&mut self) -> Result<NsPath, ProtoError> {
        let start = self.pos;
        match self.path_in_one_copy() {
            Some(path) => Ok(path),
            None => {
                self.pos = start;
                self.path_by_components()
            }
        }
    }

    /// A path in [`Enc::path`]'s one-copy form: the count and every
    /// length in one ULEB128 byte, and no component empty. Its bytes are copied once, each length byte turns
    /// back into `/`, and the text is checked as a whole, UTF-8 first.
    /// `None`, with the position wherever it stopped, for any path this
    /// cannot take as it is: one with a longer length or a `/` inside a
    /// component, a name the name space refuses, bad UTF-8, or too few
    /// bytes.
    fn path_in_one_copy(&mut self) -> Option<NsPath> {
        // Under the limit, a count byte is a whole ULEB128.
        const { assert!(MAX_COMPONENTS < 0x80) };
        let count = usize::from(self.u8().ok()?);
        if count > MAX_COMPONENTS {
            return None;
        }
        if count == 0 {
            return Some(NsPath::root());
        }
        let start = self.pos;
        for _ in 0..count {
            let len = self.u8().ok()?;
            if len == 0 || len >= 0x80 {
                return None;
            }
            self.bytes(usize::from(len)).ok()?;
        }
        let mut text = self.buf[start..self.pos].to_vec();
        lengths_to_slashes(&mut text);
        // One `/` per component; any other came from inside a name.
        if text.iter().filter(|&&b| b == b'/').count() != count {
            return None;
        }
        NsPath::try_from(String::from_utf8(text).ok()?).ok()
    }

    /// A path read component by component: the first pass reads and
    /// judges every component, refusing a short or malformed payload as
    /// such before a bad component; the second copies them into one
    /// allocation of the text's exact size.
    fn path_by_components(&mut self) -> Result<NsPath, ProtoError> {
        let bad_path = |e: PathError| ProtoError::BadPath(e.to_string());
        let count = self.count(MAX_COMPONENTS)?;
        let start = self.pos;
        let mut len = 0;
        let mut bad = None;
        for _ in 0..count {
            let component = self.str_ref(MAX_STR)?;
            if bad.is_none() && !NsPath::valid_component(component) {
                bad = Some(component);
            }
            len += 1 + component.len();
        }
        if let Some(component) = bad {
            return Err(bad_path(PathError::BadComponent(component.to_string())));
        }
        let mut again = Dec::new(&self.buf[start..self.pos]);
        let mut text = Vec::with_capacity(len.max(1));
        for _ in 0..count {
            text.push(b'/');
            text.extend_from_slice(again.blob(MAX_STR)?);
        }
        if text.is_empty() {
            text.push(b'/');
        }
        let text = String::from_utf8(text).map_err(|_| ProtoError::BadUtf8)?;
        NsPath::try_from(text).map_err(bad_path)
    }

    /// An optional unsigned integer: a strict presence flag, then the
    /// value.
    fn opt_uleb(&mut self) -> Result<Option<u64>, ProtoError> {
        Ok(if self.flag()? {
            Some(self.uleb()?)
        } else {
            None
        })
    }

    fn audit_query(&mut self) -> Result<AuditQuery, ProtoError> {
        let principal = match self.opt_uleb()? {
            Some(raw) if raw > u64::from(u32::MAX) => return Err(ProtoError::Oversize(raw)),
            Some(raw) => Some(raw as u32),
            None => None,
        };
        let path_prefix = if self.flag()? {
            Some(self.str(MAX_STR)?)
        } else {
            None
        };
        let outcome = if self.flag()? {
            let byte = self.u8()?;
            Some(Outcome::from_u8(byte).ok_or(ProtoError::BadTag(byte))?)
        } else {
            None
        };
        let seq_min = self.uleb()?;
        let seq_max = self.opt_uleb()?;
        let limit = self.uleb()?;
        if limit > u64::from(u32::MAX) {
            return Err(ProtoError::Oversize(limit));
        }
        Ok(AuditQuery {
            principal,
            path_prefix,
            outcome,
            seq_min,
            seq_max,
            limit: limit as u32,
        })
    }

    fn audit_record(&mut self) -> Result<AuditRecord, ProtoError> {
        let seq = self.uleb()?;
        let principal = self.uleb()?;
        if principal > u64::from(u32::MAX) {
            return Err(ProtoError::Oversize(principal));
        }
        let generation = self.uleb()?;
        let mode = self.u8()?;
        let outcome_byte = self.u8()?;
        let outcome = Outcome::from_u8(outcome_byte).ok_or(ProtoError::BadTag(outcome_byte))?;
        let path = self.str(MAX_STR)?;
        Ok(AuditRecord {
            seq,
            principal: principal as u32,
            generation,
            mode,
            outcome,
            path,
        })
    }

    fn audit_result(&mut self) -> Result<QueryResult, ProtoError> {
        let count = self.count(MAX_AUDIT_RECORDS)?;
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            records.push(self.audit_record()?);
        }
        let count = self.count(MAX_AUDIT_GAPS)?;
        let mut gaps = Vec::with_capacity(count);
        for _ in 0..count {
            gaps.push(GapRange {
                first: self.uleb()?,
                last: self.uleb()?,
            });
        }
        let truncated = self.flag()?;
        let next_seq = self.uleb()?;
        Ok(QueryResult {
            records,
            gaps,
            truncated,
            next_seq,
        })
    }

    fn decision(&mut self) -> Result<Decision, ProtoError> {
        match self.u8()? {
            0x00 => Ok(Decision::Allow),
            0x01 => {
                let reason = match self.u8()? {
                    0 => DenyReason::DacNoEntry,
                    1 => {
                        let index = self.uleb()?;
                        let index =
                            usize::try_from(index).map_err(|_| ProtoError::Oversize(index))?;
                        DenyReason::DacNegativeEntry(index)
                    }
                    2 => DenyReason::MacFlow,
                    3 => DenyReason::NotVisibleDac(self.path()?),
                    4 => DenyReason::NotVisibleMac(self.path()?),
                    5 => DenyReason::NotFound(self.path()?),
                    6 => DenyReason::Structure(self.str(MAX_STR)?),
                    tag => return Err(ProtoError::BadTag(tag)),
                };
                Ok(Decision::Deny(reason))
            }
            tag => Err(ProtoError::BadTag(tag)),
        }
    }

    /// Asserts the payload was consumed exactly.
    fn finish(&self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes(self.buf.len() - self.pos))
        }
    }
}

// ---------------------------------------------------------------------
// Framed IO.

/// One frame off the wire: the opcode byte and the raw payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The opcode byte (request or response space).
    pub opcode: u8,
    /// The payload, at most the reader's frame limit.
    pub payload: Vec<u8>,
}

/// What reading a frame can produce besides a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The transport failed.
    Io(io::Error),
    /// The bytes violate the protocol, or the stream ended mid-frame
    /// ([`ProtoError::Truncated`]).
    Proto(ProtoError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "io: {e}"),
            FrameError::Proto(e) => write!(f, "protocol: {e}"),
        }
    }
}

/// Reads one frame from a blocking byte stream: an adapter over
/// [`scan_frame`] that reads exactly as far as the scan asks, so it
/// refuses a bad version byte before reading the rest of the header,
/// and an unknown opcode or an oversize length before reading (or
/// allocating) the payload. A stream that ends before the frame does is
/// [`ProtoError::Truncated`].
pub fn read_frame(reader: &mut impl Read, max_frame: u32) -> Result<Frame, FrameError> {
    let mut buf = Vec::new();
    loop {
        match scan_frame(&buf, max_frame).map_err(FrameError::Proto)? {
            FrameScan::Complete {
                opcode,
                payload_start,
                ..
            } => {
                buf.drain(..payload_start);
                return Ok(Frame {
                    opcode,
                    payload: buf,
                });
            }
            FrameScan::Partial { needed } => {
                let have = buf.len();
                buf.resize(needed, 0);
                reader
                    .read_exact(&mut buf[have..])
                    .map_err(|e| match e.kind() {
                        io::ErrorKind::UnexpectedEof => FrameError::Proto(ProtoError::Truncated),
                        _ => FrameError::Io(e),
                    })?;
            }
        }
    }
}

/// Writes one already-encoded frame.
pub fn write_frame(writer: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    writer.write_all(frame)?;
    writer.flush()
}

/// What scanning a reassembly buffer for one frame found.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameScan {
    /// A complete frame sits at the front of the buffer: the opcode, the
    /// byte range of the payload within the buffer, and the total bytes
    /// the frame occupies (header included).
    Complete {
        /// The opcode byte (request or response space).
        opcode: u8,
        /// Payload start offset (always [`HEADER_LEN`]).
        payload_start: usize,
        /// Total frame length in bytes: header plus payload.
        consumed: usize,
    },
    /// The buffer holds a prefix of a frame; more bytes are needed.
    Partial {
        /// The buffer length at which the scan can decide more: the
        /// version byte, then the whole header, then the whole frame.
        needed: usize,
    },
}

/// Scans the front of `buf` for one complete frame without consuming or
/// copying anything. The validation order: version byte first (so a bad
/// peer is refused on its first byte), then the opcode byte, then the
/// length prefix against `max_frame` — all *before* the payload is
/// awaited. The reactor, the client and [`read_frame`] all read frames
/// through it.
pub fn scan_frame(buf: &[u8], max_frame: u32) -> Result<FrameScan, ProtoError> {
    let Some(&version) = buf.first() else {
        return Ok(FrameScan::Partial { needed: 1 });
    };
    if version != VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    if buf.len() < HEADER_LEN {
        return Ok(FrameScan::Partial { needed: HEADER_LEN });
    }
    let opcode = buf[1];
    // An unknown opcode is refused at the header, before any payload
    // byte is awaited, so it cannot silently desynchronize the stream.
    if !known_opcode(opcode) {
        return Err(ProtoError::BadOpcode(opcode));
    }
    let len = u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]);
    if len > max_frame {
        return Err(ProtoError::Oversize(u64::from(len)));
    }
    let consumed = HEADER_LEN + len as usize;
    if buf.len() < consumed {
        return Ok(FrameScan::Partial { needed: consumed });
    }
    Ok(FrameScan::Complete {
        opcode,
        payload_start: HEADER_LEN,
        consumed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subject() -> Subject {
        Subject::on_thread(
            PrincipalId::from_raw(7),
            SecurityClass::new(
                TrustLevel::from_rank(2),
                CategorySet::from_ids([CategoryId::from_index(0), CategoryId::from_index(3)]),
            ),
            ThreadId::from_raw(99),
        )
    }

    fn roundtrip_request(req: Request) {
        let frame = req.encode();
        assert_eq!(frame[0], VERSION);
        let parsed = read_frame(&mut &frame[..], MAX_FRAME).unwrap();
        assert_eq!(parsed.opcode, req.opcode() as u8);
        assert_eq!(
            Request::decode(parsed.opcode, &parsed.payload).unwrap(),
            req
        );
    }

    fn roundtrip_response(resp: Response) {
        let frame = resp.encode();
        let parsed = read_frame(&mut &frame[..], MAX_FRAME).unwrap();
        assert_eq!(parsed.opcode, resp.opcode());
        assert_eq!(
            Response::decode(parsed.opcode, &parsed.payload).unwrap(),
            resp
        );
    }

    /// One sample request per opcode, covering all of [`Opcode::ALL`].
    fn sample_requests() -> Vec<Request> {
        let path: NsPath = "/svc/fs/read".parse().unwrap();
        vec![
            Request::Ping,
            Request::Check {
                subject: subject(),
                path: path.clone(),
                mode: AccessMode::Execute,
            },
            Request::BatchCheck {
                subject: subject(),
                items: AccessMode::ALL
                    .into_iter()
                    .map(|mode| BatchItem {
                        path: path.clone(),
                        mode,
                    })
                    .collect(),
            },
            Request::List {
                subject: subject(),
                path: path.clone(),
            },
            Request::Explain {
                subject: subject(),
                path,
                mode: AccessMode::Read,
            },
            Request::Telemetry,
            Request::LoadBundle {
                source: "bundle \"b\" version 1 base current;".into(),
            },
            Request::Activate {
                bundle: BundleId::from_raw(7),
            },
            Request::Shadow {
                bundle: BundleId::from_raw(7),
                on: true,
            },
            Request::Rollback,
            Request::BundleStatus,
            Request::AuditQuery {
                query: AuditQuery {
                    principal: Some(7),
                    path_prefix: Some("/svc/fs".into()),
                    outcome: Some(Outcome::MacFlow),
                    seq_min: 10,
                    seq_max: Some(500),
                    limit: 64,
                },
            },
            Request::AuditVerify,
        ]
    }

    #[test]
    fn requests_round_trip() {
        let samples = sample_requests();
        // Every request opcode is exercised, none twice.
        let mut seen: Vec<Opcode> = samples.iter().map(Request::opcode).collect();
        seen.sort_by_key(|op| *op as u8);
        seen.dedup();
        assert_eq!(seen.len(), Opcode::COUNT);
        for req in samples {
            roundtrip_request(req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let path: NsPath = "/a/b".parse().unwrap();
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Decision(Decision::Allow));
        roundtrip_response(Response::Batch(vec![
            Decision::Allow,
            Decision::Deny(DenyReason::DacNoEntry),
            Decision::Deny(DenyReason::DacNegativeEntry(4)),
            Decision::Deny(DenyReason::MacFlow),
            Decision::Deny(DenyReason::NotVisibleDac(path.clone())),
            Decision::Deny(DenyReason::NotVisibleMac(path.clone())),
            Decision::Deny(DenyReason::NotFound(path.clone())),
            Decision::Deny(DenyReason::Structure("loop".into())),
        ]));
        roundtrip_response(Response::Listing(vec!["read".into(), "write".into()]));
        roundtrip_response(Response::Explanation("{\"steps\":[]}".into()));
        roundtrip_response(Response::Telemetry("{}".into()));
        roundtrip_response(Response::Busy {
            retry_after_ms: 250,
        });
        roundtrip_response(Response::BundleStaged {
            bundle: BundleId::from_raw(3),
            base: Generation::from_raw(17),
        });
        roundtrip_response(Response::BundleAck {
            generation: Generation::from_raw(18),
        });
        roundtrip_response(Response::BundleStatus("{\"staged\":[]}".into()));
        roundtrip_response(Response::AuditEvents(QueryResult {
            records: vec![
                AuditRecord {
                    seq: 0,
                    principal: 7,
                    generation: 1,
                    mode: 0,
                    outcome: Outcome::Allow,
                    path: "/svc/fs/read".into(),
                },
                AuditRecord {
                    seq: 9,
                    principal: u32::MAX,
                    generation: u64::MAX,
                    mode: 3,
                    outcome: Outcome::Structure,
                    path: "/".into(),
                },
            ],
            gaps: vec![GapRange { first: 1, last: 8 }],
            truncated: true,
            next_seq: 10,
        }));
        roundtrip_response(Response::AuditEvents(QueryResult::default()));
        roundtrip_response(Response::AuditReport("{\"ok\":true}".into()));
        for code in [
            ErrorCode::Denied,
            ErrorCode::InvalidBundle,
            ErrorCode::GenerationConflict,
            ErrorCode::AuditUnavailable,
        ] {
            roundtrip_response(Response::Error {
                code,
                message: "refused".into(),
            });
        }
    }

    #[test]
    fn unknown_opcode_is_refused_at_the_header() {
        // 0x3F names no request; 0xA0 names no response. The scan, and
        // the blocking reader over it, answer with the typed error
        // carrying the byte, before any payload is read.
        for bad in [0x3Fu8, 0xA0] {
            let frame = [VERSION, bad, 0, 0, 0, 0];
            match read_frame(&mut &frame[..], MAX_FRAME) {
                Err(FrameError::Proto(ProtoError::BadOpcode(byte))) => assert_eq!(byte, bad),
                other => panic!("expected bad opcode, got {other:?}"),
            }
            match scan_frame(&frame, MAX_FRAME) {
                Err(ProtoError::BadOpcode(byte)) => assert_eq!(byte, bad),
                other => panic!("expected bad opcode, got {other:?}"),
            }
        }
        // Decoders refuse the same way even when handed a payload.
        assert_eq!(Request::decode(0x3F, &[]), Err(ProtoError::BadOpcode(0x3F)));
        assert_eq!(
            Response::decode(0xA0, &[]),
            Err(ProtoError::BadOpcode(0xA0))
        );
    }

    #[test]
    fn oversize_length_prefix_is_rejected_before_allocation() {
        // Header claims a 256 MiB payload; the reader must refuse at the
        // header, not try to read (or allocate) the payload.
        let mut frame = vec![VERSION, Opcode::Ping as u8];
        frame.extend_from_slice(&(256u32 << 20).to_le_bytes());
        match read_frame(&mut &frame[..], MAX_FRAME) {
            Err(FrameError::Proto(ProtoError::Oversize(_))) => {}
            other => panic!("expected oversize, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_is_rejected_on_the_first_byte() {
        let frame = [9u8, 0, 0, 0, 0, 0];
        match read_frame(&mut &frame[..], MAX_FRAME) {
            Err(FrameError::Proto(ProtoError::BadVersion(9))) => {}
            other => panic!("expected bad version, got {other:?}"),
        }
    }

    #[test]
    fn audit_result_counts_are_bounded() {
        // A hand-built AuditEvents payload claiming u32::MAX records must
        // be refused on the count prefix, before any allocation.
        let mut payload = Vec::new();
        Enc::new(&mut payload).uleb(u64::from(u32::MAX));
        match Response::decode(OP_AUDIT_EVENTS, &payload) {
            Err(ProtoError::TooMany(_)) => {}
            other => panic!("expected too-many, got {other:?}"),
        }
        // Same for the gap-range count behind an empty record list.
        let mut payload = Vec::new();
        let mut enc = Enc::new(&mut payload);
        enc.uleb(0);
        enc.uleb(u64::from(u32::MAX));
        match Response::decode(OP_AUDIT_EVENTS, &payload) {
            Err(ProtoError::TooMany(_)) => {}
            other => panic!("expected too-many, got {other:?}"),
        }
        // An out-of-range outcome byte is a bad tag, not a panic.
        let mut payload = Vec::new();
        let mut enc = Enc::new(&mut payload);
        enc.uleb(1); // one record
        enc.uleb(0); // seq
        enc.uleb(0); // principal
        enc.uleb(0); // generation
        enc.u8(0); // mode
        enc.u8(0xEE); // outcome: out of range
        match Response::decode(OP_AUDIT_EVENTS, &payload) {
            Err(ProtoError::BadTag(0xEE)) => {}
            other => panic!("expected bad tag, got {other:?}"),
        }
    }

    #[test]
    fn batch_count_is_bounded() {
        // A hand-built BatchCheck payload claiming u32::MAX items.
        let mut payload = Vec::new();
        let mut enc = Enc::new(&mut payload);
        enc.subject(&subject());
        enc.uleb(u64::from(u32::MAX));
        match Request::decode(Opcode::BatchCheck as u8, &payload) {
            Err(ProtoError::TooMany(_)) => {}
            other => panic!("expected too-many, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = Request::Ping.encode();
        frame[2..6].copy_from_slice(&1u32.to_le_bytes());
        frame.push(0xEE);
        let parsed = read_frame(&mut &frame[..], MAX_FRAME).unwrap();
        match Request::decode(parsed.opcode, &parsed.payload) {
            Err(ProtoError::TrailingBytes(1)) => {}
            other => panic!("expected trailing bytes, got {other:?}"),
        }
    }
}
