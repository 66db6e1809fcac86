//! Append-only segments, the fsync'd manifest, and the chain scanner.
//!
//! A segment file is a fixed header followed by chained entry frames:
//!
//! ```text
//! [magic "ALG1"] [version: u8] [anchor: 32 bytes]   <- header
//! [u32 LE len] [tag+body] [chain hash]              <- entry frame, repeated
//! ```
//!
//! The header's *anchor* is the chain hash the segment starts from — the
//! previous segment's end hash, or [`GENESIS`] for the log's first
//! segment — so segments verify independently and splice together. Each
//! seal appends one fsync'd JSON line to the manifest log
//! (`manifest.log`) naming the segment, its covered sequence range and
//! its start/end hashes; a log written before the manifest became
//! append-only keeps its earlier seals in `manifest.json`, read as the
//! base. At most one segment — the *active* one — is ever absent from the
//! manifest, and startup recovery re-derives its chain from the anchor,
//! truncating a torn tail back to the last valid entry (and a torn last
//! manifest line back to the last complete one).

use crate::record::{chain_next, ChainHash, DecodeError, Entry, GENESIS, MAX_ENTRY_LEN};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Segment file magic.
pub const SEGMENT_MAGIC: [u8; 4] = *b"ALG1";
/// Segment format version.
pub const SEGMENT_VERSION: u8 = 1;
/// Byte length of the segment header.
pub const SEGMENT_HEADER_LEN: usize = 4 + 1 + 32;
/// Name of the manifest blob written before the manifest became
/// append-only; recovery reads it as the base of the manifest log.
pub const MANIFEST_NAME: &str = "manifest.json";
/// Name of the manifest log: one JSON [`SealedSegment`] line per seal.
pub const MANIFEST_LOG_NAME: &str = "manifest.log";

/// Builds the canonical file name for a segment whose first covered
/// sequence number is `first_seq`.
pub fn segment_name(first_seq: u64) -> String {
    format!("seg-{first_seq:016x}.alog")
}

/// Parses a name produced by [`segment_name`] (and only such a name, so
/// `segment_name` gives it back).
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("seg-")?.strip_suffix(".alog")?;
    if hex.len() != 16 || !hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Encodes a segment header starting the chain at `anchor`.
pub fn segment_header(anchor: &ChainHash) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEGMENT_HEADER_LEN);
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.push(SEGMENT_VERSION);
    out.extend_from_slice(anchor);
    out
}

/// One sealed segment's manifest entry.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SealedSegment {
    /// The segment's blob name.
    pub name: String,
    /// First sequence number the segment covers.
    pub first_seq: u64,
    /// Last sequence number the segment covers (inclusive).
    pub last_seq: u64,
    /// Number of chain entries in the segment.
    pub entries: u64,
    /// Hex chain anchor the segment starts from.
    pub start_hash: String,
    /// Hex chain hash after the segment's last entry.
    pub end_hash: String,
}

/// The sealed-segment index as `manifest.json` held it before the
/// manifest became append-only.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Manifest format version.
    pub version: u32,
    /// Hex chain head after the last sealed segment ([`GENESIS`] hex when
    /// no segment has been sealed yet).
    pub head: String,
    /// Sealed segments, oldest first.
    pub segments: Vec<SealedSegment>,
}

/// Why a segment scan stopped before the end of the file.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Damage {
    /// The header was missing, had a bad magic, or an unknown version.
    BadHeader {
        /// What was wrong with it.
        reason: String,
    },
    /// The header's anchor does not splice onto the preceding chain.
    AnchorMismatch,
    /// The file ends mid-frame — a torn write (or a length prefix
    /// damaged into pointing past the end).
    TornTail {
        /// Byte offset where the incomplete frame starts.
        offset: u64,
    },
    /// An entry's stored chain hash does not re-derive, or its body does
    /// not decode: the bytes were altered after being written.
    CorruptEntry {
        /// Zero-based index of the bad entry within the segment.
        index: u64,
        /// Byte offset where the bad frame starts.
        offset: u64,
        /// What failed.
        reason: String,
    },
}

impl fmt::Display for Damage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Damage::BadHeader { reason } => write!(f, "bad segment header: {reason}"),
            Damage::AnchorMismatch => write!(f, "segment anchor does not splice onto the chain"),
            Damage::TornTail { offset } => write!(f, "torn tail at byte {offset}"),
            Damage::CorruptEntry {
                index,
                offset,
                reason,
            } => write!(f, "corrupt entry #{index} at byte {offset}: {reason}"),
        }
    }
}

/// The result of re-deriving a segment's chain.
#[derive(Clone, Debug)]
pub struct ScanOutcome {
    /// Entries whose chain verified, in file order.
    pub entries: Vec<Entry>,
    /// Byte offset just past the last valid entry (the header length for
    /// an empty or immediately-damaged segment). Recovery truncates here.
    pub valid_len: u64,
    /// The chain hash after the last valid entry (the anchor if none).
    pub end_hash: ChainHash,
    /// Why the scan stopped early, if it did.
    pub damage: Option<Damage>,
}

/// Re-derives the chain over a whole segment image. `expect_anchor`
/// (when known from the manifest or the preceding segment) pins the
/// header's anchor; scanning stops — without panicking — at the first
/// byte that does not check out.
pub fn scan_segment(bytes: &[u8], expect_anchor: Option<&ChainHash>) -> ScanOutcome {
    let bad_header = |reason: &str| ScanOutcome {
        entries: Vec::new(),
        valid_len: 0,
        end_hash: expect_anchor.copied().unwrap_or(GENESIS),
        damage: Some(Damage::BadHeader {
            reason: reason.to_owned(),
        }),
    };
    if bytes.len() < SEGMENT_HEADER_LEN {
        return bad_header("file shorter than the header");
    }
    if bytes[..4] != SEGMENT_MAGIC {
        return bad_header("bad magic");
    }
    if bytes[4] != SEGMENT_VERSION {
        return bad_header("unknown version");
    }
    let mut anchor = GENESIS;
    anchor.copy_from_slice(&bytes[5..SEGMENT_HEADER_LEN]);
    if let Some(expected) = expect_anchor {
        if anchor != *expected {
            return ScanOutcome {
                entries: Vec::new(),
                valid_len: SEGMENT_HEADER_LEN as u64,
                end_hash: *expected,
                damage: Some(Damage::AnchorMismatch),
            };
        }
    }

    let mut entries = Vec::new();
    let mut hash = anchor;
    let mut offset = SEGMENT_HEADER_LEN;
    let mut index = 0u64;
    let damage = loop {
        if offset == bytes.len() {
            break None;
        }
        if bytes.len() - offset < 4 {
            break Some(Damage::TornTail {
                offset: offset as u64,
            });
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        if !(1 + crate::sha256::DIGEST_LEN..=MAX_ENTRY_LEN + crate::sha256::DIGEST_LEN)
            .contains(&len)
        {
            break Some(Damage::CorruptEntry {
                index,
                offset: offset as u64,
                reason: format!("implausible frame length {len}"),
            });
        }
        if bytes.len() - offset - 4 < len {
            break Some(Damage::TornTail {
                offset: offset as u64,
            });
        }
        let frame = &bytes[offset + 4..offset + 4 + len];
        let (payload, stored_hash) = frame.split_at(len - crate::sha256::DIGEST_LEN);
        let derived = chain_next(&hash, payload);
        if derived[..] != stored_hash[..] {
            break Some(Damage::CorruptEntry {
                index,
                offset: offset as u64,
                reason: "chain hash mismatch".to_owned(),
            });
        }
        match Entry::decode(payload) {
            Ok(entry) => entries.push(entry),
            Err(err) => {
                break Some(Damage::CorruptEntry {
                    index,
                    offset: offset as u64,
                    reason: decode_reason(err),
                });
            }
        }
        hash = derived;
        offset += 4 + len;
        index += 1;
    };
    ScanOutcome {
        entries,
        valid_len: offset as u64,
        end_hash: hash,
        damage,
    }
}

fn decode_reason(err: DecodeError) -> String {
    err.to_string()
}

/// Appends one entry frame (length prefix, payload, chain hash) to `out`
/// and returns the advanced chain hash. `scratch` is a reusable payload
/// buffer.
pub fn push_frame(
    out: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
    prev: &ChainHash,
    entry: &Entry,
) -> ChainHash {
    entry.encode(scratch);
    push_payload_frame(out, prev, scratch)
}

/// Appends one frame around an already encoded `tag || body` payload and
/// returns the advanced chain hash.
pub(crate) fn push_payload_frame(out: &mut Vec<u8>, prev: &ChainHash, payload: &[u8]) -> ChainHash {
    let hash = chain_next(prev, payload);
    let len = (payload.len() + crate::sha256::DIGEST_LEN) as u32;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&hash);
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{AuditRecord, Outcome};

    fn record(seq: u64) -> Entry {
        Entry::Event(AuditRecord {
            seq,
            principal: 1,
            generation: 0,
            mode: 0,
            outcome: Outcome::Allow,
            path: "/svc/fs/file".to_owned(),
        })
    }

    fn build_segment(anchor: &ChainHash, entries: &[Entry]) -> (Vec<u8>, ChainHash) {
        let mut bytes = segment_header(anchor);
        let mut scratch = Vec::new();
        let mut hash = *anchor;
        for e in entries {
            hash = push_frame(&mut bytes, &mut scratch, &hash, e);
        }
        (bytes, hash)
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(parse_segment_name(&segment_name(0)), Some(0));
        assert_eq!(
            parse_segment_name(&segment_name(0xdead_beef)),
            Some(0xdead_beef)
        );
        assert_eq!(parse_segment_name("manifest.json"), None);
        assert_eq!(parse_segment_name("seg-xyz.alog"), None);
        assert_eq!(parse_segment_name("seg-00000000DEADBEEF.alog"), None);
        assert_eq!(parse_segment_name("seg-+00000000000000a.alog"), None);
    }

    #[test]
    fn clean_segment_scans_fully() {
        let entries = [
            record(0),
            record(1),
            Entry::Gap { first: 2, last: 4 },
            record(5),
        ];
        let (bytes, end) = build_segment(&GENESIS, &entries);
        let scan = scan_segment(&bytes, Some(&GENESIS));
        assert!(scan.damage.is_none());
        assert_eq!(scan.entries, entries);
        assert_eq!(scan.end_hash, end);
        assert_eq!(scan.valid_len, bytes.len() as u64);
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let (bytes, _) = build_segment(&GENESIS, &[record(0), record(1), record(2)]);
        for i in 0..bytes.len() {
            let mut tampered = bytes.clone();
            tampered[i] ^= 0x01;
            let scan = scan_segment(&tampered, Some(&GENESIS));
            assert!(scan.damage.is_some(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn torn_tail_recovers_prefix() {
        let entries = [record(0), record(1), record(2)];
        let (bytes, _) = build_segment(&GENESIS, &entries);
        let (two, two_end) = build_segment(&GENESIS, &entries[..2]);
        // Cut anywhere inside the third frame: the first two survive.
        for cut in two.len() + 1..bytes.len() {
            let scan = scan_segment(&bytes[..cut], Some(&GENESIS));
            assert_eq!(scan.entries.len(), 2, "cut at {cut}");
            assert_eq!(scan.valid_len, two.len() as u64);
            assert_eq!(scan.end_hash, two_end);
            assert!(matches!(scan.damage, Some(Damage::TornTail { .. })));
        }
    }

    #[test]
    fn anchor_mismatch_is_reported() {
        let (bytes, _) = build_segment(&GENESIS, &[record(0)]);
        let other = chain_next(&GENESIS, b"elsewhere");
        let scan = scan_segment(&bytes, Some(&other));
        assert_eq!(scan.damage, Some(Damage::AnchorMismatch));
    }

    #[test]
    fn manifest_round_trips_as_json() {
        let manifest = Manifest {
            version: 1,
            head: crate::record::hash_hex(&chain_next(&GENESIS, b"x")),
            segments: vec![SealedSegment {
                name: segment_name(0),
                first_seq: 0,
                last_seq: 9,
                entries: 10,
                start_hash: crate::record::hash_hex(&GENESIS),
                end_hash: crate::record::hash_hex(&chain_next(&GENESIS, b"x")),
            }],
        };
        let json = serde_json::to_string(&manifest).unwrap();
        let back: Manifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, manifest);
    }
}
