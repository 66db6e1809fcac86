//! Tamper-evident persistent audit log.
//!
//! This crate holds the reference monitor's audit ring and turns it into
//! a durable, verifiable record. Three layers:
//!
//! 1. **Chained records** ([`record`]): each entry carries a running
//!    SHA-256 digest over a compact binary encoding of
//!    `(seq, prev_hash, principal, path, mode, outcome, generation)`.
//!    Any mutation, insertion, or deletion of a persisted record breaks
//!    the chain and is detected by re-deriving it.
//! 2. **Segments** ([`segment`] + [`store`]): a background drainer
//!    compacts records into append-only on-disk segments with
//!    per-segment chain anchors and an append-only manifest, one fsync'd
//!    line per seal; a torn tail is truncated back to the last
//!    chain-valid entry at startup.
//! 3. **Pipeline** ([`ring`] + [`pipeline`] + [`query`]): the
//!    producer-facing ring of preallocated slots (one slot write per
//!    decision, never blocked by the drainer; a record overwritten before
//!    it is read is shed and later declared as a tamper-evident gap
//!    entry) and the query/verify API the server exposes over the wire
//!    protocol.
//!
//! What the chain proves — and what it does not: an intact chain proves
//! the persisted log was not tampered with *after* the drainer wrote
//! it, and that every sequence number is accounted for as either an
//! event or a declared gap. It does not prove events were never shed
//! (gaps say exactly how many were), and it cannot detect truncation of
//! a suffix *plus* a rewritten manifest by an attacker who controls the
//! whole store — anchoring the manifest head externally is out of
//! scope here.

// The crate's one `unsafe` block is the call into the SHA-NI digest,
// made after CPU feature detection (`sha256.rs`).
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod pipeline;
pub mod query;
pub mod record;
pub mod ring;
pub mod segment;
pub mod sha256;
pub mod store;

pub use pipeline::{AuditPipeline, PipelineConfig, PipelineStats};
pub use query::{
    path_in_subtree, AuditQuery, GapRange, QueryResult, SegmentReport, SegmentStatus, VerifyReport,
};
pub use record::{
    chain_next, hash_from_hex, hash_hex, AuditRecord, ChainHash, DecodeError, Entry, Outcome,
    GENESIS, MAX_ENTRY_LEN, MAX_PATH_LEN, TAG_EVENT, TAG_GAP,
};
pub use ring::{AuditRing, RingEvent};
pub use segment::{
    parse_segment_name, scan_segment, segment_name, Damage, Manifest, ScanOutcome, SealedSegment,
    MANIFEST_LOG_NAME, MANIFEST_NAME, SEGMENT_HEADER_LEN, SEGMENT_MAGIC, SEGMENT_VERSION,
};
pub use sha256::{digest_parts, Sha256, DIGEST_LEN};
pub use store::{DiskStore, MemStore, Store};
