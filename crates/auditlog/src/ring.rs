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
//!   has a drainer, the writer first waits until the drainer has passed
//!   `s - capacity`, the number a lap before it: while that record is
//!   unread, or its writer has not filled the slot yet. It yields between
//!   looks, for as long as the drainer keeps advancing (Linux's audit
//!   backlog makes its producers wait the same way). Once the drainer has
//!   made no progress for the ring's stall limit, the writer overwrites
//!   the slot anyway; an unread record it overwrites is lost: it is
//!   counted as `shed`, and the drainer declares it as a gap when it
//!   reaches its number. Until the drainer moves again, later writers
//!   overwrite at once, so a dead or blocked drainer costs the writers
//!   one stall limit in all;
//! * `s` itself (a tombstone the drainer left when it stopped waiting for
//!   the writer) or a newer number (the writer was lapped): the record is
//!   dropped and counted as `late_dropped`. Its number is already part of
//!   a declared gap.
//!
//! So every number the cursor hands out ends up persisted, shed or
//! late-dropped, and at rest `issued == persisted + shed + late_dropped`.

use crate::record::{AuditRecord, Outcome};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

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

/// A value alone on a 128-byte-aligned span: two 64-byte cache lines,
/// since x86 cores fetch lines in adjacent pairs. The slots are padded so
/// writers of neighbouring sequence numbers on different cores share no
/// line, and so are the writers' cursor and the drainer's read position,
/// each written once per record from a different core.
#[repr(align(128))]
struct Padded<T>(T);

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

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
    cells: Box<[Padded<Mutex<Slot>>]>,
    capacity: u64,
    /// `capacity - 1` when the capacity is a power of two.
    mask: Option<u64>,
    /// The next sequence number to hand out.
    cursor: Padded<AtomicU64>,
    /// The cursor's value when the ring was made.
    origin: u64,
    /// Numbers jumped over by [`advance_to`](AuditRing::advance_to).
    skipped: AtomicU64,
    /// The in-memory view starts here (raised by `clear` and `advance_to`).
    floor: AtomicU64,
    /// Whether a drainer reads this ring, so that overwriting an unread
    /// record is a loss to count.
    drained: bool,
    /// The drainer's read position: every number below it has been read
    /// or declared lost.
    read_to: Padded<AtomicU64>,
    /// `read_to` when a writer last gave up waiting for the drainer;
    /// while the drainer has not moved past it, writers shed at once.
    stalled_at: AtomicU64,
    /// How long a writer waits for a drainer that makes no progress
    /// before it overwrites an unread record (zero: at once).
    stall_limit: Duration,
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
                Padded(Mutex::new(Slot {
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
            cursor: Padded(AtomicU64::new(first_seq)),
            origin: first_seq,
            skipped: AtomicU64::new(0),
            floor: AtomicU64::new(first_seq),
            drained,
            read_to: Padded(AtomicU64::new(first_seq)),
            stalled_at: AtomicU64::new(u64::MAX),
            stall_limit: Duration::ZERO,
            shed: AtomicU64::new(0),
            late_dropped: AtomicU64::new(0),
        }
    }

    /// Makes writers wait up to `stall_limit` for a drainer that stops
    /// advancing before they overwrite a record it has not read.
    pub(crate) fn paced(mut self, stall_limit: Duration) -> AuditRing {
        self.stall_limit = stall_limit;
        self
    }

    fn cell(&self, seq: u64) -> &Mutex<Slot> {
        let index = match self.mask {
            Some(mask) => seq & mask,
            None => seq % self.capacity,
        };
        &self.cells[index as usize]
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
    /// sequence number. Never locks another slot, never allocates beyond
    /// growing a buffer `fill` writes past its capacity, and waits only
    /// for a drainer still reading the slot's previous record.
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
        if self.drained && self.lap_pending(seq, &slot) {
            slot = self.pace(seq, slot);
        }
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

    /// Whether `seq`'s slot still belongs to the number a lap before it:
    /// that number's record is unread, or its writer has not arrived.
    fn lap_pending(&self, seq: u64, slot: &Slot) -> bool {
        match slot.state {
            State::Empty => seq >= self.origin + self.capacity,
            State::Live => slot.seq < seq,
            State::Drained | State::Tombstone => slot.seq + self.capacity < seq,
        }
    }

    /// Waits, yielding between looks, while `seq`'s slot is pending a lap
    /// and the drainer keeps advancing. Gives up once the drainer has not
    /// moved for the stall limit, and at once if an earlier writer already
    /// gave up at its position.
    fn pace<'a>(&'a self, seq: u64, mut slot: MutexGuard<'a, Slot>) -> MutexGuard<'a, Slot> {
        let mut progress = self.read_to.load(Ordering::Acquire);
        let mut since = None;
        while self.lap_pending(seq, &slot) && self.stalled_at.load(Ordering::Relaxed) != progress {
            if since.get_or_insert_with(Instant::now).elapsed() >= self.stall_limit {
                self.stalled_at.store(progress, Ordering::Relaxed);
                break;
            }
            drop(slot);
            std::thread::yield_now();
            slot = self.cell(seq).lock();
            let now = self.read_to.load(Ordering::Acquire);
            if now != progress {
                progress = now;
                since = None;
            }
        }
        slot
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
        let take = self.examine(seq, give_up, read);
        if take != Take::Pending {
            self.read_to.store(seq + 1, Ordering::Release);
        }
        take
    }

    fn examine(&self, seq: u64, give_up: bool, read: impl FnOnce(&RingEvent)) -> Take {
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
    fn the_cursor_and_the_read_position_share_no_line() {
        let cursor = std::mem::offset_of!(AuditRing, cursor);
        let read_to = std::mem::offset_of!(AuditRing, read_to);
        assert!(
            cursor.abs_diff(read_to) >= 128,
            "cursor at byte {cursor}, read_to at byte {read_to}"
        );
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
