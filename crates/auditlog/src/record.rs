//! The hash-chained record format.
//!
//! Every persisted entry is a compact binary frame:
//!
//! ```text
//! [u32 LE frame_len] [tag: u8] [body ...] [chain_hash: 32 bytes]
//! ```
//!
//! where `frame_len = 1 + body.len() + 32` and
//! `chain_hash_i = SHA256[iv = chain_hash_{i-1}](tag_i || body_i)` — the
//! previous hash rides in the compression *state* rather than being
//! prepended to the message, so a compact entry costs one SHA-256
//! compression instead of two (see [`crate::sha256::digest_with_iv`]).
//! The chain starts from an *anchor* hash carried in the segment header,
//! so every byte of every entry — and the ordering of entries — is
//! covered: flip a single bit anywhere (tag, body, stored hash, or
//! length prefix) and re-deriving the chain detects it at that entry.
//!
//! Two entry kinds exist. An **event** is one audited decision, encoded in
//! ~100 bytes: ULEB128 `seq`, `principal`, `generation`, one byte each of
//! `mode` and `outcome`, and the length-prefixed object path. A **gap**
//! records a range of sequence numbers the drainer *knows* it never
//! received (overwritten in the ring before it was read, or a write that
//! never landed):
//! rather than silently skipping them, the gap makes the loss itself
//! tamper-evident — a verifier can distinguish "the pipeline shed load
//! and said so" from "someone deleted records".

use crate::sha256::{digest_with_iv, DIGEST_LEN};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A chain digest.
pub type ChainHash = [u8; DIGEST_LEN];

/// The all-zero genesis anchor for a log's first segment.
pub const GENESIS: ChainHash = [0u8; DIGEST_LEN];

/// Entry tag for an audited event.
pub const TAG_EVENT: u8 = 1;
/// Entry tag for a declared sequence gap.
pub const TAG_GAP: u8 = 2;

/// Hard cap on one encoded entry (tag + body), keeping frame lengths
/// checkable before allocation. Paths are bounded well below this.
pub const MAX_ENTRY_LEN: usize = 8 * 1024;

/// Upper bound on an audited path: the name space's own path bound
/// (`NsPath::MAX_LEN`, tied to this one by a compile-time assertion in
/// the reference monitor), so every recordable path is persistable.
pub const MAX_PATH_LEN: usize = 4096;

/// The compact persisted outcome of one access check.
///
/// This is the audit pipeline's own stable one-byte encoding of the
/// reference monitor's `Decision`/`DenyReason` (which carry paths and
/// indices too rich for the ~100-byte fast-path record).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Outcome {
    /// Both halves of the model granted the access.
    #[default]
    Allow = 0,
    /// Default deny: no ACL entry grants the mode.
    DacNoEntry = 1,
    /// A negative ACL entry denies the mode.
    DacNegative = 2,
    /// The mandatory flow check failed on the target node.
    MacFlow = 3,
    /// An interior node was not visible (discretionary).
    NotVisibleDac = 4,
    /// An interior node was not visible (mandatory).
    NotVisibleMac = 5,
    /// The path named no node.
    NotFound = 6,
    /// A structural error (e.g. traversing through a leaf).
    Structure = 7,
}

impl Outcome {
    /// All outcomes, in encoding order.
    pub const ALL: [Outcome; 8] = [
        Outcome::Allow,
        Outcome::DacNoEntry,
        Outcome::DacNegative,
        Outcome::MacFlow,
        Outcome::NotVisibleDac,
        Outcome::NotVisibleMac,
        Outcome::NotFound,
        Outcome::Structure,
    ];

    /// Decodes the one-byte encoding.
    pub fn from_u8(raw: u8) -> Option<Outcome> {
        Outcome::ALL.get(raw as usize).copied()
    }

    /// Whether this outcome allowed the access.
    pub fn allowed(self) -> bool {
        self == Outcome::Allow
    }

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Allow => "allow",
            Outcome::DacNoEntry => "dac-no-entry",
            Outcome::DacNegative => "dac-negative",
            Outcome::MacFlow => "mac-flow",
            Outcome::NotVisibleDac => "not-visible-dac",
            Outcome::NotVisibleMac => "not-visible-mac",
            Outcome::NotFound => "not-found",
            Outcome::Structure => "structure",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One audited decision in the pipeline's compact form.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditRecord {
    /// The ring-assigned globally monotone sequence number.
    pub seq: u64,
    /// The requesting principal's raw id.
    pub principal: u32,
    /// The policy generation the decision was taken under.
    pub generation: u64,
    /// The requested access mode's one-byte encoding.
    pub mode: u8,
    /// The decision outcome.
    pub outcome: Outcome,
    /// The object path the access named.
    pub path: String,
}

/// One persisted chain entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Entry {
    /// An audited decision.
    Event(AuditRecord),
    /// Sequence numbers `first..=last` were never received by the
    /// drainer (shed from the ring); the loss is declared so the chain
    /// stays gap-free by construction.
    Gap {
        /// First missing sequence number.
        first: u64,
        /// Last missing sequence number (inclusive).
        last: u64,
    },
}

impl Entry {
    /// The first sequence number this entry covers.
    pub fn first_seq(&self) -> u64 {
        match self {
            Entry::Event(r) => r.seq,
            Entry::Gap { first, .. } => *first,
        }
    }

    /// The last sequence number this entry covers (inclusive).
    pub fn last_seq(&self) -> u64 {
        match self {
            Entry::Event(r) => r.seq,
            Entry::Gap { last, .. } => *last,
        }
    }

    /// Encodes `tag || body` into `out` (cleared first). The chain hash
    /// is computed over exactly these bytes.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            Entry::Event(r) => encode_event(
                out,
                r.seq,
                r.principal,
                r.generation,
                r.mode,
                r.outcome,
                &r.path,
            ),
            Entry::Gap { first, last } => encode_gap(out, *first, *last),
        }
    }

    /// Decodes `tag || body` produced by [`Entry::encode`]. Every length
    /// is bounded before allocation; trailing bytes are an error.
    pub fn decode(payload: &[u8]) -> Result<Entry, DecodeError> {
        let (&tag, rest) = payload.split_first().ok_or(DecodeError::Truncated)?;
        let mut cur = Cursor { rest };
        let entry = match tag {
            TAG_EVENT => {
                let seq = cur.uleb()?;
                let principal = cur.uleb()?;
                if principal > u32::MAX as u64 {
                    return Err(DecodeError::Malformed("principal out of range"));
                }
                let generation = cur.uleb()?;
                let mode = cur.byte()?;
                let outcome = Outcome::from_u8(cur.byte()?)
                    .ok_or(DecodeError::Malformed("unknown outcome"))?;
                let path_len = cur.uleb()?;
                if path_len > MAX_PATH_LEN as u64 {
                    return Err(DecodeError::Malformed("path too long"));
                }
                let path_bytes = cur.bytes(path_len as usize)?;
                let path = std::str::from_utf8(path_bytes)
                    .map_err(|_| DecodeError::Malformed("path not utf-8"))?
                    .to_owned();
                Entry::Event(AuditRecord {
                    seq,
                    principal: principal as u32,
                    generation,
                    mode,
                    outcome,
                    path,
                })
            }
            TAG_GAP => {
                let first = cur.uleb()?;
                let last = cur.uleb()?;
                if last < first {
                    return Err(DecodeError::Malformed("inverted gap range"));
                }
                Entry::Gap { first, last }
            }
            _ => return Err(DecodeError::Malformed("unknown entry tag")),
        };
        if !cur.rest.is_empty() {
            return Err(DecodeError::Malformed("trailing bytes in entry"));
        }
        Ok(entry)
    }
}

/// Why an entry failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended mid-field.
    Truncated,
    /// A field was structurally invalid.
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "entry truncated"),
            DecodeError::Malformed(what) => write!(f, "malformed entry: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Advances the chain over one encoded entry (`tag || body`).
///
/// The previous hash is the SHA-256 chaining value, not message bytes:
/// tampering with any entry still avalanche-changes every later hash
/// (forging a link means colliding the compression function), and a
/// typical event entry pads into a single compression block.
pub fn chain_next(prev: &ChainHash, payload: &[u8]) -> ChainHash {
    digest_with_iv(prev, payload)
}

/// Renders a chain hash as lowercase hex.
pub fn hash_hex(hash: &ChainHash) -> String {
    hash.iter().map(|b| format!("{b:02x}")).collect()
}

/// Parses the hex form produced by [`hash_hex`].
pub fn hash_from_hex(hex: &str) -> Option<ChainHash> {
    let bytes = hex.as_bytes();
    if bytes.len() != DIGEST_LEN * 2 {
        return None;
    }
    let nibble = |b: u8| -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
    };
    let mut out = GENESIS;
    for (i, pair) in bytes.chunks_exact(2).enumerate() {
        out[i] = (nibble(pair[0])? << 4) | nibble(pair[1])?;
    }
    Some(out)
}

/// Appends an event entry's `tag || body` to `out`: the one encoding of
/// an event, shared by [`Entry::encode`] and the drainer, which encodes
/// straight from a ring slot.
pub(crate) fn encode_event(
    out: &mut Vec<u8>,
    seq: u64,
    principal: u32,
    generation: u64,
    mode: u8,
    outcome: Outcome,
    path: &str,
) {
    out.push(TAG_EVENT);
    put_uleb(out, seq);
    put_uleb(out, principal as u64);
    put_uleb(out, generation);
    out.push(mode);
    out.push(outcome as u8);
    let path = path.as_bytes();
    debug_assert!(path.len() <= MAX_PATH_LEN);
    put_uleb(out, path.len() as u64);
    out.extend_from_slice(path);
}

/// Appends a gap entry's `tag || body` to `out`.
pub(crate) fn encode_gap(out: &mut Vec<u8>, first: u64, last: u64) {
    out.push(TAG_GAP);
    put_uleb(out, first);
    put_uleb(out, last);
}

fn put_uleb(out: &mut Vec<u8>, mut value: u64) {
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

struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn byte(&mut self) -> Result<u8, DecodeError> {
        let (&b, rest) = self.rest.split_first().ok_or(DecodeError::Truncated)?;
        self.rest = rest;
        Ok(b)
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        if self.rest.len() < len {
            return Err(DecodeError::Truncated);
        }
        let (taken, rest) = self.rest.split_at(len);
        self.rest = rest;
        Ok(taken)
    }

    fn uleb(&mut self) -> Result<u64, DecodeError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            if shift == 63 && byte > 1 {
                return Err(DecodeError::Malformed("uleb overflow"));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(DecodeError::Malformed("uleb overflow"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AuditRecord {
        AuditRecord {
            seq: 42,
            principal: 7,
            generation: 3,
            mode: 0,
            outcome: Outcome::MacFlow,
            path: "/svc/fs/projects/report".to_owned(),
        }
    }

    #[test]
    fn event_round_trips() {
        let entry = Entry::Event(sample());
        let mut buf = Vec::new();
        entry.encode(&mut buf);
        assert_eq!(Entry::decode(&buf).unwrap(), entry);
    }

    #[test]
    fn gap_round_trips() {
        let entry = Entry::Gap {
            first: 10,
            last: 12,
        };
        let mut buf = Vec::new();
        entry.encode(&mut buf);
        assert_eq!(Entry::decode(&buf).unwrap(), entry);
        assert_eq!(entry.first_seq(), 10);
        assert_eq!(entry.last_seq(), 12);
    }

    #[test]
    fn event_is_compact() {
        let mut buf = Vec::new();
        Entry::Event(sample()).encode(&mut buf);
        // ~100-byte budget including the 32-byte hash and 4-byte length.
        assert!(buf.len() + DIGEST_LEN + 4 <= 100, "{} bytes", buf.len());
    }

    #[test]
    fn decode_rejects_damage() {
        let mut buf = Vec::new();
        Entry::Event(sample()).encode(&mut buf);
        assert_eq!(
            Entry::decode(&buf[..buf.len() - 1]),
            Err(DecodeError::Truncated)
        );
        let mut trailing = buf.clone();
        trailing.push(0);
        assert!(matches!(
            Entry::decode(&trailing),
            Err(DecodeError::Malformed(_))
        ));
        let mut bad_tag = buf.clone();
        bad_tag[0] = 9;
        assert!(matches!(
            Entry::decode(&bad_tag),
            Err(DecodeError::Malformed(_))
        ));
    }

    #[test]
    fn chain_is_order_sensitive() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        Entry::Event(sample()).encode(&mut a);
        Entry::Gap {
            first: 43,
            last: 43,
        }
        .encode(&mut b);
        let ab = chain_next(&chain_next(&GENESIS, &a), &b);
        let ba = chain_next(&chain_next(&GENESIS, &b), &a);
        assert_ne!(ab, ba);
    }

    #[test]
    fn hex_round_trips() {
        let h = chain_next(&GENESIS, b"x");
        assert_eq!(hash_from_hex(&hash_hex(&h)), Some(h));
        assert_eq!(hash_from_hex("zz"), None);
    }

    #[test]
    fn outcome_codes_are_stable() {
        for (i, o) in Outcome::ALL.into_iter().enumerate() {
            assert_eq!(o as u8 as usize, i);
            assert_eq!(Outcome::from_u8(o as u8), Some(o));
        }
        assert_eq!(Outcome::from_u8(8), None);
    }
}
