//! The audit ring: one preallocated slot per in-flight sequence number.
//!
//! Recording a decision takes the next global sequence number from one
//! atomic cursor, locks only that number's slot (`seq % capacity`) and
//! overwrites the slot's fields in place. The path and detail buffers
//! are reused, so once the ring has wrapped a record allocates nothing,
//! and no other thread is woken: the pipeline's drainer polls the cursor
//! and reads the slots in sequence order, and the in-memory view
//! ([`AuditRing::visit`]) reads the same slots.
//!
//! # Slot lifecycle
//!
//! A slot's sequence number only grows. A writer for `s` finds its slot
//! holding
//!
//! * nothing, or an older number: it overwrites the slot. When the ring
//!   has a drainer and the older record was never drained, that record is
//!   lost: it is counted as `shed`, and the drainer declares it as a gap
//!   when it reaches its number;
//! * `s` itself (a tombstone the drainer left when it stopped waiting for
//!   the writer) or a newer number (the writer was lapped): the record is
//!   dropped and counted as `late_dropped`. Its number is already part of
//!   a declared gap.
//!
//! So every number the cursor hands out ends up persisted, shed or
//! late-dropped, and at rest `issued == persisted + shed + late_dropped`.

use crate::record::{AuditRecord, Outcome};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// One decision's fields as a ring slot holds them.
///
/// The string fields are buffers the slot keeps across writes: a writer
/// clears them and writes into them, so their capacity is reused.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RingEvent {
    /// The requesting principal's raw id.
    pub principal: u32,
    /// The requesting thread's raw id.
    pub thread: u64,
    /// The policy generation the decision was taken under.
    pub generation: u64,
    /// The requested access mode's one-byte encoding.
    pub mode: u8,
    /// The decision outcome.
    pub outcome: Outcome,
    /// A number qualifying the outcome (the refusing ACL entry's index
    /// for a negative-entry denial, the depth of a refusing prefix); 0
    /// otherwise.
    pub detail_index: u64,
    /// The object path the access named.
    pub path: String,
    /// Text qualifying the outcome (a structural error, or a refusing
    /// prefix that is not a prefix of `path`); empty otherwise.
    pub detail: String,
}

impl RingEvent {
    /// Overwrites these fields with a compact record's (its `seq` is not
    /// stored: the slot's sequence number is the ring's).
    pub(crate) fn set_record(&mut self, record: &AuditRecord) {
        self.principal = record.principal;
        self.thread = 0;
        self.generation = record.generation;
        self.mode = record.mode;
        self.outcome = record.outcome;
        self.detail_index = 0;
        self.path.clear();
        self.path.push_str(&record.path);
        self.detail.clear();
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Never written.
    Empty,
    /// Holds a record no drainer has read.
    Live,
    /// Holds a record the drainer has read.
    Drained,
    /// Holds no record: its number was declared lost.
    Tombstone,
}

struct Slot {
    seq: u64,
    state: State,
    event: RingEvent,
}

/// One slot on its own cache lines, so writers of neighbouring sequence
/// numbers on different cores do not share a line.
#[repr(align(64))]
struct Cell(Mutex<Slot>);

/// What the drainer found in a slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Take {
    /// The record was handed to the reader and marked drained.
    Ready,
    /// The number will never be readable: overwritten, lapped, skipped,
    /// or given up on.
    Lost,
    /// The number was handed out but its writer has not finished.
    Pending,
}

/// A ring of preallocated, fixed-size audit slots indexed by sequence
/// number.
///
/// # Examples
///
/// ```
/// use extsec_auditlog::{AuditRing, Outcome};
///
/// let ring = AuditRing::new(4, 0);
/// for name in ["a", "b", "c", "d", "e"] {
///     ring.record(|e| {
///         e.outcome = Outcome::Allow;
///         e.path.clear();
///         e.path.push('/');
///         e.path.push_str(name);
///     });
/// }
/// let mut paths = Vec::new();
/// ring.visit(|_, e| paths.push(e.path.clone()));
/// assert_eq!(paths, ["/b", "/c", "/d", "/e"]);
/// assert_eq!(ring.evicted(), 1);
/// ```
pub struct AuditRing {
    cells: Box<[Cell]>,
    capacity: u64,
    /// `capacity - 1` when the capacity is a power of two.
    mask: Option<u64>,
    /// The next sequence number to hand out.
    cursor: AtomicU64,
    /// The cursor's value when the ring was made.
    origin: u64,
    /// Numbers jumped over by [`advance_to`](AuditRing::advance_to).
    skipped: AtomicU64,
    /// The in-memory view starts here (raised by `clear` and `advance_to`).
    floor: AtomicU64,
    /// Whether a drainer reads this ring, so that overwriting an unread
    /// record is a loss to count.
    drained: bool,
    shed: AtomicU64,
    late_dropped: AtomicU64,
}

impl AuditRing {
    /// Makes a ring of `capacity` slots (at least one) whose first
    /// sequence number is `first_seq`. All slot storage is allocated here;
    /// the string buffers grow on first use and are then reused.
    pub fn new(capacity: usize, first_seq: u64) -> AuditRing {
        AuditRing::with_drainer(capacity, first_seq, false)
    }

    pub(crate) fn with_drainer(capacity: usize, first_seq: u64, drained: bool) -> AuditRing {
        let capacity = capacity.max(1);
        let cells = (0..capacity)
            .map(|_| {
                Cell(Mutex::new(Slot {
                    seq: 0,
                    state: State::Empty,
                    event: RingEvent::default(),
                }))
            })
            .collect();
        let capacity = capacity as u64;
        AuditRing {
            cells,
            capacity,
            mask: capacity.is_power_of_two().then_some(capacity - 1),
            cursor: AtomicU64::new(first_seq),
            origin: first_seq,
            skipped: AtomicU64::new(0),
            floor: AtomicU64::new(first_seq),
            drained,
            shed: AtomicU64::new(0),
            late_dropped: AtomicU64::new(0),
        }
    }

    fn cell(&self, seq: u64) -> &Mutex<Slot> {
        let index = match self.mask {
            Some(mask) => seq & mask,
            None => seq % self.capacity,
        };
        &self.cells[index as usize].0
    }

    /// The number of slots.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// The next sequence number the ring will hand out.
    pub fn next_seq(&self) -> u64 {
        self.cursor.load(Ordering::Acquire)
    }

    /// Records one event: takes the next sequence number, locks its slot
    /// and lets `fill` overwrite the slot's fields in place. Returns the
    /// sequence number. Never blocks on another slot, never allocates
    /// beyond growing a buffer `fill` writes past its capacity.
    pub fn record(&self, fill: impl FnOnce(&mut RingEvent)) -> u64 {
        let seq = self.reserve();
        self.commit(seq, fill);
        seq
    }

    /// Records a compact record (its `seq` is ignored: the ring assigns
    /// one, and returns it).
    pub fn append(&self, record: &AuditRecord) -> u64 {
        self.record(|e| e.set_record(record))
    }

    /// The first half of [`record`](AuditRing::record): takes a number.
    pub(crate) fn reserve(&self) -> u64 {
        self.cursor.fetch_add(1, Ordering::AcqRel)
    }

    /// The second half of [`record`](AuditRing::record): writes the slot
    /// of a reserved number, unless the number was already declared lost.
    pub(crate) fn commit(&self, seq: u64, fill: impl FnOnce(&mut RingEvent)) {
        let mut slot = self.cell(seq).lock();
        if slot.state != State::Empty && slot.seq >= seq {
            self.late_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if self.drained && slot.state == State::Live {
            self.shed.fetch_add(1, Ordering::Relaxed);
        }
        fill(&mut slot.event);
        slot.seq = seq;
        slot.state = State::Live;
    }

    /// Moves the cursor up to `seq` if it is behind. The numbers jumped
    /// over were never handed out; the drainer declares them as one gap.
    pub fn advance_to(&self, seq: u64) {
        let mut from = self.cursor.load(Ordering::Acquire);
        while from < seq {
            match self
                .cursor
                .compare_exchange(from, seq, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(now) => from = now,
            }
        }
        if from >= seq {
            return;
        }
        self.skipped.fetch_add(seq - from, Ordering::Relaxed);
        self.floor.fetch_max(seq, Ordering::Relaxed);
        // Tombstone the skipped numbers that still map to a slot, so the
        // drainer passes them at once; older ones it jumps over.
        for s in from.max(seq.saturating_sub(self.capacity))..seq {
            let mut slot = self.cell(s).lock();
            if slot.state == State::Empty || slot.seq < s {
                if self.drained && slot.state == State::Live {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                }
                slot.seq = s;
                slot.state = State::Tombstone;
            }
        }
    }

    /// Drainer side: examines the slot of `seq`. A record is handed to
    /// `read` under the slot lock and marked drained. A pending number is
    /// tombstoned when `give_up` is set, so its late writer drops it.
    pub(crate) fn take(&self, seq: u64, give_up: bool, read: impl FnOnce(&RingEvent)) -> Take {
        let mut slot = self.cell(seq).lock();
        if slot.state != State::Empty && slot.seq > seq {
            return Take::Lost;
        }
        if slot.state != State::Empty && slot.seq == seq {
            return match slot.state {
                State::Live => {
                    read(&slot.event);
                    slot.state = State::Drained;
                    Take::Ready
                }
                _ => Take::Lost,
            };
        }
        if give_up {
            slot.seq = seq;
            slot.state = State::Tombstone;
            return Take::Lost;
        }
        Take::Pending
    }

    /// Visits the retained records oldest first, in sequence order.
    pub fn visit(&self, mut f: impl FnMut(u64, &RingEvent)) {
        let (start, end) = self.window();
        for seq in start..end {
            let slot = self.cell(seq).lock();
            if slot.seq == seq && matches!(slot.state, State::Live | State::Drained) {
                f(seq, &slot.event);
            }
        }
    }

    /// The numbers the in-memory view covers.
    fn window(&self) -> (u64, u64) {
        let end = self.cursor.load(Ordering::Acquire);
        let start = self
            .floor
            .load(Ordering::Relaxed)
            .max(end.saturating_sub(self.capacity));
        (start.min(end), end)
    }

    /// Hides every record so far from the in-memory view (the drainer
    /// still reads them; sequence numbers keep increasing).
    pub fn clear(&self) {
        self.floor
            .fetch_max(self.cursor.load(Ordering::Acquire), Ordering::Relaxed);
    }

    /// Records the in-memory view currently covers.
    pub fn retained(&self) -> usize {
        let (start, end) = self.window();
        (end - start) as usize
    }

    /// Sequence numbers handed out by `record` (not skipped ones).
    pub(crate) fn issued(&self) -> u64 {
        (self.cursor.load(Ordering::Acquire) - self.origin)
            .saturating_sub(self.skipped.load(Ordering::Relaxed))
    }

    /// Records pushed out of the ring by newer ones.
    pub fn evicted(&self) -> u64 {
        self.issued().saturating_sub(self.capacity)
    }

    /// Records overwritten before the drainer read them.
    pub(crate) fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Records whose writer came after their number was declared lost.
    pub(crate) fn late_dropped(&self) -> u64 {
        self.late_dropped.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for AuditRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditRing")
            .field("capacity", &self.capacity)
            .field("next_seq", &self.next_seq())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(ring: &AuditRing, name: &str) -> u64 {
        ring.record(|e| {
            e.path.clear();
            e.path.push_str(name);
        })
    }

    fn paths(ring: &AuditRing) -> Vec<(u64, String)> {
        let mut out = Vec::new();
        ring.visit(|seq, e| out.push((seq, e.path.clone())));
        out
    }

    #[test]
    fn keeps_the_newest_capacity_records_in_order() {
        for capacity in [3usize, 4] {
            let ring = AuditRing::new(capacity, 10);
            for i in 0..7 {
                assert_eq!(put(&ring, &format!("/p{i}")), 10 + i);
            }
            let seen = paths(&ring);
            let want: Vec<(u64, String)> = (7 - capacity as u64..7)
                .map(|i| (10 + i, format!("/p{i}")))
                .collect();
            assert_eq!(seen, want, "capacity {capacity}");
            assert_eq!(ring.retained(), capacity);
            assert_eq!(ring.evicted(), 7 - capacity as u64);
            assert_eq!(ring.shed(), 0, "a ring without a drainer sheds nothing");
        }
    }

    #[test]
    fn clear_hides_without_renumbering() {
        let ring = AuditRing::new(8, 0);
        put(&ring, "/a");
        ring.clear();
        assert_eq!(ring.retained(), 0);
        assert_eq!(put(&ring, "/b"), 1);
        assert_eq!(paths(&ring), [(1, "/b".to_owned())]);
    }

    #[test]
    fn late_and_lapped_writers_are_dropped() {
        let ring = AuditRing::with_drainer(2, 0, true);
        let stalled = ring.reserve();
        assert_eq!(ring.take(stalled, true, |_| {}), Take::Lost);
        ring.commit(stalled, |e| e.path.push_str("/late"));
        assert_eq!(ring.late_dropped(), 1);

        let lapped = ring.reserve(); // 1
        put(&ring, "/two"); // 2
        put(&ring, "/three"); // 3 lands in 1's slot first
        ring.commit(lapped, |e| e.path.push_str("/lapped"));
        assert_eq!(ring.late_dropped(), 2);
        assert_eq!(ring.take(lapped, false, |_| {}), Take::Lost);
    }

    #[test]
    fn overwriting_an_unread_record_is_shed() {
        let ring = AuditRing::with_drainer(2, 0, true);
        for name in ["/a", "/b", "/c"] {
            put(&ring, name);
        }
        assert_eq!(ring.shed(), 1);
        assert_eq!(ring.take(0, false, |_| {}), Take::Lost);
        let mut read = String::new();
        assert_eq!(
            ring.take(1, false, |e| read.clone_from(&e.path)),
            Take::Ready
        );
        assert_eq!(read, "/b");
        put(&ring, "/d"); // overwrites the drained 1: no loss
        assert_eq!(ring.shed(), 1);
        assert_eq!(ring.take(4, false, |_| {}), Take::Pending);
    }

    #[test]
    fn advance_skips_numbers_without_issuing_them() {
        let ring = AuditRing::with_drainer(4, 5, true);
        put(&ring, "/a"); // 5
        ring.advance_to(20);
        ring.advance_to(3); // never moves back
        assert_eq!(ring.next_seq(), 20);
        assert_eq!(ring.issued(), 1);
        assert_eq!(ring.retained(), 0);
        for seq in 16..20 {
            assert_eq!(ring.take(seq, false, |_| {}), Take::Lost, "seq {seq}");
        }
        assert_eq!(put(&ring, "/b"), 20);
        assert_eq!(paths(&ring), [(20, "/b".to_owned())]);
    }
}
