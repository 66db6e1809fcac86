//! Auditing of security-relevant events.
//!
//! The paper lists "the auditing of security relevant system events" among
//! the aspects a complete security model must eventually cover. An
//! [`AuditLog`] is a handle on one
//! [`AuditRing`](extsec_auditlog::AuditRing): preallocated slots indexed
//! by sequence number. A record takes the next global sequence number,
//! locks only that number's slot and overwrites its fields and reused
//! path buffer in place, so the checking thread allocates nothing, takes
//! no shared lock and wakes no other thread.
//!
//! A monitor publishes its log beside its policy state, and each thread
//! pins the two together: a decision records into the ring the thread's
//! pin holds, found by the same version compare that finds the state.
//! Until a persistent pipeline is attached the ring is the monitor's
//! own; attaching one publishes a log on the pipeline's ring, whose
//! drainer reads the same slots into the tamper-evident chain
//! (`extsec-auditlog`). Either way the in-memory
//! view ([`AuditLog::events`] and friends) reads the ring and rebuilds
//! each [`AuditEvent`] exactly, so a monitor has one audit outlet whether
//! or not a pipeline is attached.

use crate::decision::{Decision, DenyReason};
use crate::subject::{Subject, ThreadId};
use extsec_acl::{AccessMode, PrincipalId};
use extsec_auditlog::{AuditRing, Outcome, RingEvent};
use extsec_namespace::NsPath;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One audited access decision.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AuditEvent {
    /// Monotonic sequence number (per log).
    pub seq: u64,
    /// The requesting principal.
    pub principal: PrincipalId,
    /// The requesting thread.
    pub thread: ThreadId,
    /// The object path the access named.
    pub path: NsPath,
    /// The requested mode.
    pub mode: AccessMode,
    /// The decision taken.
    pub decision: Decision,
    /// The policy generation the decision was evaluated under.
    pub generation: u64,
}

impl fmt::Display for AuditEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} g{} {}@{} {} {} -> {}",
            self.seq,
            self.generation,
            self.principal,
            self.thread,
            self.mode,
            self.path,
            self.decision
        )
    }
}

/// Observability counters for the in-memory view, so saturation is
/// visible rather than silent; [`ReferenceMonitor::metrics`] exports them
/// as `audit.ring.*`, `ring_dropped` as `audit.ring.overwritten`. A typed
/// view kept for nsbench, to be deleted in the benchmark change that moves
/// nsbench to the registry names.
///
/// [`ReferenceMonitor::metrics`]: crate::ReferenceMonitor::metrics
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditStats {
    /// The current ring's capacity.
    pub capacity: usize,
    /// Events the in-memory view currently covers.
    pub retained: usize,
    /// Events pushed out of the in-memory view by newer ones (or by a
    /// switch to a pipeline's ring).
    pub ring_dropped: u64,
}

/// A handle on a bounded, thread-safe audit ring. Cloning it clones the
/// handle, not the ring; [`ReferenceMonitor::audit`] returns the one the
/// caller's pin holds.
///
/// [`ReferenceMonitor::audit`]: crate::ReferenceMonitor::audit
///
/// # Examples
///
/// ```
/// use extsec_refmon::AuditLog;
///
/// let log = AuditLog::with_capacity(128);
/// assert_eq!(log.len(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct AuditLog {
    /// The ring recording goes into.
    ring: Arc<AuditRing>,
    /// Events that left the in-memory view with the rings switched away
    /// from before this one.
    retired: u64,
}

impl AuditLog {
    /// Default ring capacity.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a log with the default capacity.
    pub fn new() -> Self {
        AuditLog::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a log holding at most `capacity` events (older events are
    /// dropped first). The ring's slots are allocated here, once.
    pub fn with_capacity(capacity: usize) -> Self {
        AuditLog {
            ring: Arc::new(AuditRing::new(capacity, 0)),
            retired: 0,
        }
    }

    /// The log that records into `ring` (a persistent pipeline's) from
    /// now on. The ring's cursor first moves past every sequence number
    /// this log has handed out, so numbers stay globally monotone and the
    /// ones recorded before the switch become one declared gap in the
    /// pipeline; this log's events count as dropped from the new view.
    pub(crate) fn switched_to(&self, ring: Arc<AuditRing>) -> AuditLog {
        ring.advance_to(self.ring.next_seq());
        AuditLog {
            ring,
            retired: self.retired + self.ring.evicted() + self.ring.retained() as u64,
        }
    }

    /// Records a decision; returns the event's sequence number.
    pub fn record(
        &self,
        subject: &Subject,
        path: &NsPath,
        mode: AccessMode,
        decision: &Decision,
        generation: u64,
    ) -> u64 {
        self.ring.record(|e| {
            e.principal = subject.principal.raw();
            e.thread = subject.thread.raw();
            e.generation = generation;
            e.mode = mode as u8;
            e.outcome = outcome_of(decision);
            e.detail_index = 0;
            render(path, &mut e.path);
            e.detail.clear();
            match decision {
                Decision::Deny(DenyReason::DacNegativeEntry(index)) => {
                    e.detail_index = *index as u64;
                }
                // A refusing prefix is nearly always a prefix of the
                // path itself: keep its depth, not a second string.
                Decision::Deny(
                    DenyReason::NotVisibleDac(prefix)
                    | DenyReason::NotVisibleMac(prefix)
                    | DenyReason::NotFound(prefix),
                ) => {
                    if path.starts_with(prefix) {
                        e.detail_index = prefix.depth() as u64;
                    } else {
                        render(prefix, &mut e.detail);
                    }
                }
                Decision::Deny(DenyReason::Structure(text)) => e.detail.push_str(text),
                _ => {}
            }
        })
    }

    /// Returns the number of retained events.
    pub fn len(&self) -> usize {
        self.ring.retained()
    }

    /// Returns whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the number of events dropped from the in-memory view.
    pub fn dropped(&self) -> u64 {
        self.stats().ring_dropped
    }

    /// Returns the retained events in sequence order (oldest first).
    pub fn events(&self) -> Vec<AuditEvent> {
        let mut events = Vec::with_capacity(self.ring.retained());
        self.ring.visit(|seq, e| events.extend(rebuild(seq, e)));
        events
    }

    /// Returns the retained events that were denials.
    pub fn denials(&self) -> Vec<AuditEvent> {
        let mut events = self.events();
        events.retain(|e| !e.decision.allowed());
        events
    }

    /// Clears the in-memory view (sequence numbers keep increasing, and
    /// an attached pipeline still persists every event).
    pub fn clear(&self) {
        self.ring.clear();
    }

    /// Snapshots the saturation counters.
    pub fn stats(&self) -> AuditStats {
        AuditStats {
            capacity: self.ring.capacity(),
            retained: self.ring.retained(),
            ring_dropped: self.retired + self.ring.evicted(),
        }
    }
}

/// Copies `path`'s text into `out`, reusing its capacity (and growing it
/// to the exact length when it is too small).
fn render(path: &NsPath, out: &mut String) {
    out.clear();
    out.reserve_exact(path.as_str().len());
    out.push_str(path.as_str());
}

/// Rebuilds the event a slot holds (`None` for bytes no monitor writes).
fn rebuild(seq: u64, e: &RingEvent) -> Option<AuditEvent> {
    let parse = |text: &str| text.parse::<NsPath>().ok();
    let path = parse(&e.path)?;
    // The refusing prefix: spelled out in `detail`, or the path's first
    // `detail_index` components.
    let prefix = || match e.detail.is_empty() {
        true => {
            (e.detail_index <= path.depth() as u64).then(|| path.prefix(e.detail_index as usize))
        }
        false => parse(&e.detail),
    };
    let decision = match e.outcome {
        Outcome::Allow => Decision::Allow,
        Outcome::DacNoEntry => Decision::Deny(DenyReason::DacNoEntry),
        Outcome::DacNegative => {
            Decision::Deny(DenyReason::DacNegativeEntry(e.detail_index as usize))
        }
        Outcome::MacFlow => Decision::Deny(DenyReason::MacFlow),
        Outcome::NotVisibleDac => Decision::Deny(DenyReason::NotVisibleDac(prefix()?)),
        Outcome::NotVisibleMac => Decision::Deny(DenyReason::NotVisibleMac(prefix()?)),
        Outcome::NotFound => Decision::Deny(DenyReason::NotFound(prefix()?)),
        Outcome::Structure => Decision::Deny(DenyReason::Structure(e.detail.clone())),
    };
    Some(AuditEvent {
        seq,
        principal: PrincipalId::from_raw(e.principal),
        thread: ThreadId::from_raw(e.thread),
        path,
        mode: *AccessMode::ALL.get(usize::from(e.mode))?,
        decision,
        generation: e.generation,
    })
}

/// Maps a monitor [`Decision`] onto the compact persisted [`Outcome`].
pub fn outcome_of(decision: &Decision) -> Outcome {
    match decision {
        Decision::Allow => Outcome::Allow,
        Decision::Deny(reason) => match reason {
            DenyReason::DacNoEntry => Outcome::DacNoEntry,
            DenyReason::DacNegativeEntry(_) => Outcome::DacNegative,
            DenyReason::MacFlow => Outcome::MacFlow,
            DenyReason::NotVisibleDac(_) => Outcome::NotVisibleDac,
            DenyReason::NotVisibleMac(_) => Outcome::NotVisibleMac,
            DenyReason::NotFound(_) => Outcome::NotFound,
            DenyReason::Structure(_) => Outcome::Structure,
        },
    }
}

impl Default for AuditLog {
    fn default() -> Self {
        AuditLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extsec_mac::SecurityClass;

    fn subject() -> Subject {
        Subject::new(PrincipalId::from_raw(1), SecurityClass::bottom())
    }

    fn path() -> NsPath {
        "/svc/fs/read".parse().unwrap()
    }

    #[test]
    fn records_in_order() {
        let log = AuditLog::new();
        let s = subject();
        let a = log.record(&s, &path(), AccessMode::Read, &Decision::Allow, 0);
        let b = log.record(
            &s,
            &path(),
            AccessMode::Write,
            &Decision::Deny(DenyReason::DacNoEntry),
            0,
        );
        assert!(b > a);
        let events = log.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].mode, AccessMode::Read);
        assert_eq!(events[1].mode, AccessMode::Write);
    }

    #[test]
    fn ring_is_bounded() {
        let log = AuditLog::with_capacity(2);
        let s = subject();
        for _ in 0..5 {
            log.record(&s, &path(), AccessMode::Read, &Decision::Allow, 0);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        let events = log.events();
        assert_eq!(events[0].seq, 3);
        assert_eq!(events[1].seq, 4);
    }

    /// At a capacity beyond any small default, the ring still retains
    /// exactly `capacity` events and evicts exactly the overflow.
    #[test]
    fn wraparound_at_configured_capacity() {
        const CAPACITY: usize = 4096;
        const OVERFLOW: usize = 37;
        let log = AuditLog::with_capacity(CAPACITY);
        let s = subject();
        for _ in 0..CAPACITY + OVERFLOW {
            log.record(&s, &path(), AccessMode::Read, &Decision::Allow, 0);
        }
        assert_eq!(log.len(), CAPACITY);
        assert_eq!(log.dropped(), OVERFLOW as u64);
        let events = log.events();
        assert_eq!(events.len(), CAPACITY);
        // The survivors are exactly the newest `CAPACITY` events, in order.
        assert_eq!(events[0].seq, OVERFLOW as u64);
        assert_eq!(events[CAPACITY - 1].seq, (CAPACITY + OVERFLOW - 1) as u64);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn stats_expose_ring_saturation() {
        let log = AuditLog::with_capacity(2);
        let s = subject();
        for _ in 0..5 {
            log.record(&s, &path(), AccessMode::Read, &Decision::Allow, 0);
        }
        let stats = log.stats();
        assert_eq!(stats.capacity, 2);
        assert_eq!(stats.retained, 2);
        assert_eq!(stats.ring_dropped, 3);
    }

    #[test]
    fn events_from_many_threads_stay_sequenced() {
        let log = Arc::new(AuditLog::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    let s = subject();
                    for _ in 0..100 {
                        log.record(&s, &path(), AccessMode::Read, &Decision::Allow, 0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let events = log.events();
        assert_eq!(events.len(), 400);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn denials_filter() {
        let log = AuditLog::new();
        let s = subject();
        log.record(&s, &path(), AccessMode::Read, &Decision::Allow, 0);
        log.record(
            &s,
            &path(),
            AccessMode::Write,
            &Decision::Deny(DenyReason::MacFlow),
            0,
        );
        let denials = log.denials();
        assert_eq!(denials.len(), 1);
        assert_eq!(denials[0].mode, AccessMode::Write);
    }

    /// Every field of every decision kind survives the slot: the view
    /// rebuilds the exact event, deny-reason payloads and thread included.
    #[test]
    fn events_rebuild_every_decision_exactly() {
        let log = AuditLog::new();
        let s = subject();
        let prefix: NsPath = "/svc".parse().unwrap();
        let decisions = [
            Decision::Allow,
            Decision::Deny(DenyReason::DacNoEntry),
            Decision::Deny(DenyReason::DacNegativeEntry(3)),
            Decision::Deny(DenyReason::MacFlow),
            Decision::Deny(DenyReason::NotVisibleDac(prefix.clone())),
            Decision::Deny(DenyReason::NotVisibleMac(NsPath::root())),
            Decision::Deny(DenyReason::NotFound(prefix)),
            Decision::Deny(DenyReason::NotFound("/elsewhere".parse().unwrap())),
            Decision::Deny(DenyReason::Structure("injected fault: x".into())),
        ];
        let mut want = Vec::new();
        for (i, decision) in decisions.iter().enumerate() {
            let mode = AccessMode::ALL[i % AccessMode::ALL.len()];
            let seq = log.record(&s, &path(), mode, decision, 40 + i as u64);
            want.push(AuditEvent {
                seq,
                principal: s.principal,
                thread: s.thread,
                path: path(),
                mode,
                decision: decision.clone(),
                generation: 40 + i as u64,
            });
        }
        // The root renders as `/` and parses back to itself.
        let root = log.record(&s, &NsPath::root(), AccessMode::List, &Decision::Allow, 0);
        assert_eq!(log.events()[..decisions.len()], want[..]);
        assert_eq!(log.events()[decisions.len()].seq, root);
        assert_eq!(log.events()[decisions.len()].path, NsPath::root());
    }

    #[test]
    fn clear_keeps_sequence_monotone() {
        let log = AuditLog::new();
        let s = subject();
        log.record(&s, &path(), AccessMode::Read, &Decision::Allow, 0);
        log.clear();
        assert!(log.is_empty());
        let seq = log.record(&s, &path(), AccessMode::Read, &Decision::Allow, 0);
        assert_eq!(seq, 1);
    }
}
