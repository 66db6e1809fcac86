//! Auditing of security-relevant events.
//!
//! The paper lists "the auditing of security relevant system events" among
//! the aspects a complete security model must eventually cover. The
//! [`AuditLog`] records every decision into one
//! [`AuditRing`](extsec_auditlog::AuditRing): preallocated slots indexed
//! by sequence number. A record takes the next global sequence number,
//! locks only that number's slot and overwrites its fields and reused
//! path buffer in place, so the checking thread allocates nothing, takes
//! no shared lock and wakes no other thread.
//!
//! Until a persistent pipeline is attached the ring is the log's own;
//! [`AuditLog::attach_ring`] switches recording into the pipeline's ring,
//! whose drainer reads the same slots into the tamper-evident chain
//! (`extsec-auditlog`). Either way the in-memory view
//! ([`AuditLog::events`] and friends) reads the current ring and rebuilds
//! each [`AuditEvent`] exactly, so a monitor has one audit outlet whether
//! or not a pipeline is attached.

use crate::decision::{Decision, DenyReason};
use crate::subject::{Subject, ThreadId};
use extsec_acl::{AccessMode, PrincipalId};
use extsec_auditlog::{AuditRing, Outcome, RingEvent};
use extsec_namespace::NsPath;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Observability counters for the in-memory view, reported next to the
/// decision-cache stats so saturation is visible rather than silent.
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

/// This thread's pinned ring of one log, revalidated against the log's
/// version on every record.
struct PinnedRing {
    log: u64,
    version: u64,
    ring: Arc<AuditRing>,
}

thread_local! {
    /// The ring this thread last recorded into.
    static PINNED: RefCell<Option<PinnedRing>> = const { RefCell::new(None) };
}

/// A bounded, thread-safe audit log.
///
/// # Examples
///
/// ```
/// use extsec_refmon::AuditLog;
///
/// let log = AuditLog::with_capacity(128);
/// assert_eq!(log.len(), 0);
/// ```
#[derive(Debug)]
pub struct AuditLog {
    /// Process-unique identity for the thread-local pins.
    id: u64,
    /// The ring recording goes into. Recorders pin it thread-locally and
    /// only take this lock when `version` has moved.
    ring: Mutex<Arc<AuditRing>>,
    /// Bumped on every ring switch.
    version: AtomicU64,
    /// Events that left the in-memory view with a ring switched away from.
    retired: AtomicU64,
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
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        AuditLog {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            ring: Mutex::new(Arc::new(AuditRing::new(capacity, 0))),
            version: AtomicU64::new(0),
            retired: AtomicU64::new(0),
        }
    }

    /// Switches recording into `ring` (a persistent pipeline's). Its
    /// cursor first moves past every sequence number this log has handed
    /// out, so numbers stay globally monotone and the ones recorded
    /// before the switch become one declared gap in the pipeline. A
    /// decision racing the switch may still land in the previous ring.
    pub fn attach_ring(&self, ring: Arc<AuditRing>) {
        let mut current = self.ring.lock();
        ring.advance_to(current.next_seq());
        self.retired.fetch_add(
            current.evicted() + current.retained() as u64,
            Ordering::Relaxed,
        );
        *current = ring;
        self.version.fetch_add(1, Ordering::Release);
    }

    /// The ring recording currently goes into.
    fn current(&self) -> Arc<AuditRing> {
        Arc::clone(&self.ring.lock())
    }

    /// Runs `f` on the current ring. Fast path: one `Acquire` load of the
    /// version plus a thread-local compare; the lock is taken only to
    /// re-pin after a switch.
    fn with_ring<R>(&self, f: impl FnOnce(&AuditRing) -> R) -> R {
        let version = self.version.load(Ordering::Acquire);
        PINNED.with(|cell| {
            let mut pin = cell.borrow_mut();
            if let Some(p) = pin.as_ref() {
                if p.log == self.id && p.version == version {
                    return f(&p.ring);
                }
            }
            let (ring, version) = {
                let slot = self.ring.lock();
                (Arc::clone(&slot), self.version.load(Ordering::Acquire))
            };
            let out = f(&ring);
            *pin = Some(PinnedRing {
                log: self.id,
                version,
                ring,
            });
            out
        })
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
        self.with_ring(|ring| {
            ring.record(|e| {
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
                        if path.components().starts_with(prefix.components()) {
                            e.detail_index = prefix.depth() as u64;
                        } else {
                            render(prefix, &mut e.detail);
                        }
                    }
                    Decision::Deny(DenyReason::Structure(text)) => e.detail.push_str(text),
                    _ => {}
                }
            })
        })
    }

    /// Returns the number of retained events.
    pub fn len(&self) -> usize {
        self.current().retained()
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
        let ring = self.current();
        let mut events = Vec::with_capacity(ring.retained());
        ring.visit(|seq, e| events.extend(rebuild(seq, e)));
        events
    }

    /// Returns a snapshot of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<AuditEvent> {
        self.events()
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
        self.current().clear();
    }

    /// Snapshots the saturation counters.
    pub fn stats(&self) -> AuditStats {
        let ring = self.current();
        AuditStats {
            capacity: ring.capacity(),
            retained: ring.retained(),
            ring_dropped: self.retired.load(Ordering::Relaxed) + ring.evicted(),
        }
    }
}

/// Writes `path`'s display form into `out`, reusing its capacity (and
/// growing it to the exact length when it is too small).
fn render(path: &NsPath, out: &mut String) {
    out.clear();
    out.reserve_exact(path.components().iter().map(|c| 1 + c.len()).sum());
    if path.components().is_empty() {
        out.push('/');
    }
    for component in path.components() {
        out.push('/');
        out.push_str(component);
    }
}

/// Rebuilds the event a slot holds (`None` for bytes no monitor writes).
fn rebuild(seq: u64, e: &RingEvent) -> Option<AuditEvent> {
    let parse = |text: &str| text.parse::<NsPath>().ok();
    let path = parse(&e.path)?;
    // The refusing prefix: spelled out in `detail`, or the path's first
    // `detail_index` components.
    let prefix = || match e.detail.is_empty() {
        true => NsPath::from_components(path.components().get(..e.detail_index as usize)?).ok(),
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

impl Drop for AuditLog {
    /// Releases the dropping thread's pin on this log's ring, so a thread
    /// that builds and drops monitors one after another never keeps two
    /// rings alive.
    fn drop(&mut self) {
        let _ = PINNED.try_with(|cell| {
            if let Ok(mut pin) = cell.try_borrow_mut() {
                if pin.as_ref().is_some_and(|p| p.log == self.id) {
                    *pin = None;
                }
            }
        });
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
        let events = log.snapshot();
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
        let events = log.snapshot();
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
