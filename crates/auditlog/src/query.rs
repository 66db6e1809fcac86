//! Query and verify result types.
//!
//! These are the in-process forms of the wire protocol's `AuditQuery` /
//! `AuditVerify` frames; the server encodes them onto the `WireMessage`
//! codec, and the reports serialize as JSON for the admin client.

use crate::record::{AuditRecord, Outcome};
use crate::segment::Damage;
use serde::{Deserialize, Serialize};

/// A filtered, bounded scan over the persisted log.
///
/// All filters are conjunctive; an unset filter matches everything. The
/// result is bounded by [`limit`](AuditQuery::limit) (clamped to
/// [`MAX_LIMIT`](AuditQuery::MAX_LIMIT)) and paginates via
/// [`QueryResult::next_seq`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditQuery {
    /// Only events by this principal (raw id).
    pub principal: Option<u32>,
    /// Only events whose path is this node or lies in its subtree.
    pub path_prefix: Option<String>,
    /// Only events with this outcome.
    pub outcome: Option<Outcome>,
    /// Only events with `seq >= seq_min`.
    pub seq_min: u64,
    /// Only events with `seq <= seq_max` (unset: unbounded).
    pub seq_max: Option<u64>,
    /// Result cap; `0` means [`DEFAULT_LIMIT`](AuditQuery::DEFAULT_LIMIT).
    pub limit: u32,
}

impl AuditQuery {
    /// Result cap applied when `limit` is zero.
    pub const DEFAULT_LIMIT: u32 = 1024;
    /// Hard cap on one result frame.
    pub const MAX_LIMIT: u32 = 4096;

    /// The applied result cap.
    pub fn effective_limit(&self) -> usize {
        let limit = if self.limit == 0 {
            Self::DEFAULT_LIMIT
        } else {
            self.limit
        };
        limit.min(Self::MAX_LIMIT) as usize
    }

    /// Whether `record` passes every filter.
    pub fn matches(&self, record: &AuditRecord) -> bool {
        if record.seq < self.seq_min {
            return false;
        }
        if let Some(max) = self.seq_max {
            if record.seq > max {
                return false;
            }
        }
        if let Some(principal) = self.principal {
            if record.principal != principal {
                return false;
            }
        }
        if let Some(outcome) = self.outcome {
            if record.outcome != outcome {
                return false;
            }
        }
        if let Some(prefix) = &self.path_prefix {
            if !path_in_subtree(&record.path, prefix) {
                return false;
            }
        }
        true
    }
}

/// Whether `path` names `prefix` itself or a node in its subtree. The
/// match respects component boundaries: `/svc/fs` covers `/svc/fs/a`
/// but not `/svc/fsx`.
pub fn path_in_subtree(path: &str, prefix: &str) -> bool {
    let prefix = prefix.trim_end_matches('/');
    if prefix.is_empty() {
        return true;
    }
    match path.strip_prefix(prefix) {
        Some(rest) => rest.is_empty() || rest.starts_with('/'),
        None => false,
    }
}

/// An inclusive range of sequence numbers declared lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GapRange {
    /// First lost sequence number.
    pub first: u64,
    /// Last lost sequence number (inclusive).
    pub last: u64,
}

/// One page of query results.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryResult {
    /// Matching events, in sequence order.
    pub records: Vec<AuditRecord>,
    /// Declared shed gaps overlapping the queried sequence window.
    pub gaps: Vec<GapRange>,
    /// Whether the scan stopped at the result cap; resume from
    /// [`next_seq`](QueryResult::next_seq).
    pub truncated: bool,
    /// The `seq_min` to resume a truncated query from; when not
    /// truncated, the first sequence number beyond everything persisted.
    pub next_seq: u64,
}

/// Integrity status of one segment.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SegmentStatus {
    /// The chain re-derives end to end and splices onto its neighbours.
    Ok,
    /// The manifest lists the segment but the store has no such blob.
    Missing,
    /// The scan stopped early (header damage, torn tail, or a corrupt
    /// entry).
    Damaged(Damage),
    /// The chain re-derives but ends on a different hash than the
    /// manifest sealed — the file was rewritten wholesale.
    EndHashMismatch,
    /// Entries verified but their sequence numbers break continuity at
    /// this sequence number (a record was removed along a chain
    /// boundary, or the manifest was reordered).
    SeqBreak(u64),
}

impl SegmentStatus {
    /// Whether the segment is fully intact.
    pub fn is_ok(&self) -> bool {
        matches!(self, SegmentStatus::Ok)
    }
}

/// One segment's verification outcome.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentReport {
    /// The segment's blob name.
    pub name: String,
    /// Whether the segment is sealed in the manifest (`false`: the
    /// active tail segment).
    pub sealed: bool,
    /// First sequence number covered (0 when empty).
    pub first_seq: u64,
    /// Last sequence number covered (0 when empty).
    pub last_seq: u64,
    /// Chain entries that verified.
    pub entries: u64,
    /// The integrity verdict.
    pub status: SegmentStatus,
}

/// The chain-integrity report for the whole persisted log.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerifyReport {
    /// Whether every segment verified intact.
    pub ok: bool,
    /// Per-segment verdicts, oldest first (sealed segments then the
    /// active one).
    pub segments: Vec<SegmentReport>,
    /// Hex chain head after the last verified entry.
    pub chain_head: String,
    /// The first sequence number beyond everything persisted.
    pub next_seq: u64,
    /// Verified segments whose verdicts `segments` leaves out, so that
    /// the report fits a wire frame (see
    /// [`cap_segments`](VerifyReport::cap_segments)); 0 in process.
    pub omitted: u64,
}

impl VerifyReport {
    /// Keeps at most `max` verdicts in `segments`, dropping intact ones
    /// first, oldest first, and then, if the damaged ones alone exceed
    /// `max`, the newest damaged ones. Counts the dropped verdicts in
    /// `omitted`; `ok`, `chain_head` and `next_seq` still describe the
    /// whole log.
    pub fn cap_segments(&mut self, max: usize) {
        let before = self.segments.len();
        let mut excess = before.saturating_sub(max);
        self.segments.retain(|s| {
            let drop = excess > 0 && s.status.is_ok();
            excess -= usize::from(drop);
            !drop
        });
        self.segments.truncate(max);
        self.omitted += (before - self.segments.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, principal: u32, outcome: Outcome, path: &str) -> AuditRecord {
        AuditRecord {
            seq,
            principal,
            generation: 0,
            mode: 0,
            outcome,
            path: path.to_owned(),
        }
    }

    #[test]
    fn subtree_matching_respects_component_boundaries() {
        assert!(path_in_subtree("/svc/fs", "/svc/fs"));
        assert!(path_in_subtree("/svc/fs/a/b", "/svc/fs"));
        assert!(path_in_subtree("/svc/fs/a", "/svc/fs/"));
        assert!(!path_in_subtree("/svc/fsx", "/svc/fs"));
        assert!(!path_in_subtree("/svc", "/svc/fs"));
        assert!(path_in_subtree("/anything", "/"));
        assert!(path_in_subtree("/anything", ""));
    }

    #[test]
    fn filters_are_conjunctive() {
        let q = AuditQuery {
            principal: Some(3),
            path_prefix: Some("/svc/fs".to_owned()),
            outcome: Some(Outcome::MacFlow),
            seq_min: 5,
            seq_max: Some(10),
            limit: 0,
        };
        let hit = record(7, 3, Outcome::MacFlow, "/svc/fs/secret");
        assert!(q.matches(&hit));
        assert!(!q.matches(&record(4, 3, Outcome::MacFlow, "/svc/fs/secret")));
        assert!(!q.matches(&record(11, 3, Outcome::MacFlow, "/svc/fs/secret")));
        assert!(!q.matches(&record(7, 4, Outcome::MacFlow, "/svc/fs/secret")));
        assert!(!q.matches(&record(7, 3, Outcome::Allow, "/svc/fs/secret")));
        assert!(!q.matches(&record(7, 3, Outcome::MacFlow, "/svc/net/secret")));
    }

    #[test]
    fn capped_reports_keep_every_damaged_verdict_they_can() {
        let verdict = |i: u64, status: SegmentStatus| SegmentReport {
            name: format!("s{i}"),
            sealed: true,
            first_seq: i,
            last_seq: i,
            entries: 1,
            status,
        };
        let mut report = VerifyReport {
            ok: false,
            segments: (0..10)
                .map(|i| match i {
                    3 | 7 => verdict(i, SegmentStatus::Missing),
                    _ => verdict(i, SegmentStatus::Ok),
                })
                .collect(),
            chain_head: String::new(),
            next_seq: 10,
            omitted: 0,
        };
        report.cap_segments(4);
        let names: Vec<&str> = report.segments.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["s3", "s7", "s8", "s9"]);
        assert_eq!(report.omitted, 6);
        report.cap_segments(1);
        assert_eq!(report.segments[0].name, "s3");
        assert_eq!(report.omitted, 9);
    }

    #[test]
    fn limit_clamps() {
        assert_eq!(AuditQuery::default().effective_limit(), 1024);
        let q = AuditQuery {
            limit: 1_000_000,
            ..AuditQuery::default()
        };
        assert_eq!(q.effective_limit(), AuditQuery::MAX_LIMIT as usize);
    }
}
