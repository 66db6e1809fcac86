//! The audit pipeline: the ring, its drainer, recovery.
//!
//! Producers (the reference monitor's check path) write into the
//! pipeline's [`AuditRing`]: one slot per decision, no channel, no
//! wake-up. The drainer thread polls the ring's cursor (about every
//! millisecond once it has caught up), reads the slots in sequence
//! order, encodes each record straight into its chained frame, turns
//! every number it can no longer read into a tamper-evident
//! [`Entry::Gap`], and appends the frames into segments via a [`Store`].
//!
//! # Losses and gaps
//!
//! Producers a whole ring ahead of the drainer wait for it, yielding,
//! while it keeps advancing. One stall period covers both directions:
//! two of [`PipelineConfig::idle_flush`]. A number is lost when its slot
//! was overwritten by a newer record before the drainer read it, which
//! happens only after the drainer has made no progress for a stall
//! period (counted as `shed`); when it was skipped by
//! [`AuditRing::advance_to`] (a monitor that audited on a ring of its own
//! before attaching); or when its writer stalled between taking the
//! number and filling the slot. The drainer waits for a stalled writer
//! until a flush barrier, or until the stall outlasts a stall period, and
//! then tombstones the slot; the writer, when it arrives, finds the
//! tombstone and drops its record (`late_dropped`), so the chain's story
//! stays consistent. A barrier reads every number handed out before it
//! was requested, so a record whose `record` call returned before
//! [`AuditPipeline::flush`] was called is never mistaken for a loss.

use crate::query::{AuditQuery, GapRange, QueryResult, SegmentReport, SegmentStatus, VerifyReport};
use crate::record::{encode_event, encode_gap, hash_from_hex, hash_hex, ChainHash, Entry, GENESIS};
use crate::ring::{AuditRing, RingEvent, Take};
use crate::segment::{
    parse_segment_name, push_payload_frame, scan_segment, segment_header, segment_name, Manifest,
    SealedSegment, MANIFEST_NAME, SEGMENT_HEADER_LEN,
};
use crate::store::{DiskStore, MemStore, Store};
use parking_lot::Mutex;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for one pipeline.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Slots in the pipeline's ring: how far producers may run ahead of
    /// the drainer before they wait for it.
    pub queue_capacity: usize,
    /// Segments are sealed once they reach this many bytes.
    pub segment_max_bytes: u64,
    /// Half the stall period. The drainer declares a number lost once its
    /// writer has left the slot unfilled for two of these (a flush
    /// barrier declares it at once), and a writer waiting for the drainer
    /// overwrites an unread record (sheds it) once the drainer has made
    /// no progress for two of these.
    pub idle_flush: Duration,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            // The drainer lags a busy two-core checker by up to ~13k
            // records, so writers seldom have to wait for it.
            queue_capacity: 32_768,
            segment_max_bytes: 1 << 20,
            idle_flush: Duration::from_millis(20),
        }
    }
}

/// Pipeline observability counters (all monotone except `queue_depth`,
/// `active_bytes`, `next_seq`, and `running`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Records written into the ring and not overwritten unread (each is
    /// eventually persisted or late-dropped).
    pub enqueued: u64,
    /// Records overwritten in the ring before the drainer read them
    /// (each becomes part of a declared gap).
    pub shed: u64,
    /// Records whose writer arrived after their sequence number was
    /// already declared lost, dropped to keep the chain consistent.
    pub late_dropped: u64,
    /// Event entries persisted into segments.
    pub persisted_events: u64,
    /// Gap entries persisted.
    pub gap_records: u64,
    /// Total sequence numbers covered by persisted gaps.
    pub gap_missing: u64,
    /// Segments sealed into the manifest.
    pub segments_sealed: u64,
    /// Explicit flush barriers completed.
    pub flushes: u64,
    /// Store I/O failures observed by the drainer.
    pub io_errors: u64,
    /// Bytes truncated off a torn tail during startup recovery.
    pub recovered_truncated_bytes: u64,
    /// Chain verifications performed.
    pub verify_calls: u64,
    /// Total nanoseconds spent verifying.
    pub verify_ns: u64,
    /// The next sequence number the drainer expects (everything below
    /// is persisted or declared lost).
    pub next_seq: u64,
    /// Records written but not yet drained.
    pub queue_depth: u64,
    /// Bytes in the unsealed active segment.
    pub active_bytes: u64,
    /// Whether the drainer thread is running.
    pub running: bool,
}

#[derive(Default)]
struct Counters {
    persisted_events: AtomicU64,
    gap_records: AtomicU64,
    gap_missing: AtomicU64,
    segments_sealed: AtomicU64,
    flushes: AtomicU64,
    io_errors: AtomicU64,
    recovered_truncated_bytes: AtomicU64,
    verify_calls: AtomicU64,
    verify_ns: AtomicU64,
    next_seq: AtomicU64,
}

/// The drainer's control messages; records never travel this way.
enum Ctrl {
    Flush(mpsc::Sender<io::Result<()>>),
    /// Test hook: exit immediately without flushing or sealing,
    /// simulating a crash mid-segment.
    Crash,
    Shutdown,
}

/// Chain/segment state shared between the drainer and the admin
/// (query/verify) paths. The check path never touches this lock.
struct Inner {
    store: Box<dyn Store>,
    manifest: Manifest,
    chain_head: ChainHash,
    active_name: String,
    active_len: u64,
    active_entries: u64,
    /// First sequence number covered by the active segment (meaningful
    /// only when `active_entries > 0`).
    active_first: u64,
    /// The sequence number just past the active segment's coverage
    /// (equals the segment's nominal start when empty).
    active_next: u64,
    segment_max: u64,
}

impl Inner {
    /// Chains the batch's entries (already in sequence order) onto the
    /// active segment, sealing and rolling it as it fills. State is
    /// committed only after each append succeeds, so an I/O failure
    /// leaves the in-memory chain consistent with the bytes that actually
    /// landed.
    fn persist(&mut self, batch: &Batch, counters: &Counters, durable: bool) -> io::Result<()> {
        let mut buf = Vec::new();
        let mut i = 0;
        while i < batch.entries.len() {
            buf.clear();
            let mut chain = self.chain_head;
            let mut first = None;
            let mut next = self.active_next;
            let mut count = 0u64;
            let mut events = 0u64;
            let mut gap_records = 0u64;
            let mut gap_missing = 0u64;
            while let Some(entry) = batch.entries.get(i) {
                if self.active_entries + count > 0
                    && self.active_len + buf.len() as u64 >= self.segment_max
                {
                    break;
                }
                chain = push_payload_frame(&mut buf, &chain, batch.payload(i));
                first.get_or_insert(entry.first);
                next = entry.last + 1;
                count += 1;
                if entry.gap {
                    gap_records += 1;
                    gap_missing += entry.last - entry.first + 1;
                } else {
                    events += 1;
                }
                i += 1;
            }
            if count > 0 {
                self.store.append(&self.active_name, &buf)?;
                self.active_len += buf.len() as u64;
                if self.active_entries == 0 {
                    self.active_first = first.expect("count > 0 implies a first entry");
                }
                self.active_entries += count;
                self.active_next = next;
                self.chain_head = chain;
                counters
                    .persisted_events
                    .fetch_add(events, Ordering::Relaxed);
                counters
                    .gap_records
                    .fetch_add(gap_records, Ordering::Relaxed);
                counters
                    .gap_missing
                    .fetch_add(gap_missing, Ordering::Relaxed);
            }
            if i < batch.entries.len() {
                self.roll(counters)?;
            }
        }
        if durable {
            self.store.sync(&self.active_name)?;
        }
        Ok(())
    }

    /// Seals the (non-empty) active segment into the manifest and starts
    /// a fresh one anchored on the chain head.
    fn roll(&mut self, counters: &Counters) -> io::Result<()> {
        debug_assert!(self.active_entries > 0, "never seal an empty segment");
        self.store.sync(&self.active_name)?;
        let start_hash = self
            .manifest
            .segments
            .last()
            .map(|s| s.end_hash.clone())
            .unwrap_or_else(|| hash_hex(&GENESIS));
        self.manifest.segments.push(SealedSegment {
            name: self.active_name.clone(),
            first_seq: self.active_first,
            last_seq: self.active_next - 1,
            entries: self.active_entries,
            start_hash,
            end_hash: hash_hex(&self.chain_head),
        });
        self.manifest.head = hash_hex(&self.chain_head);
        self.write_manifest()?;
        counters.segments_sealed.fetch_add(1, Ordering::Relaxed);
        self.start_segment(self.active_next)
    }

    fn start_segment(&mut self, first_seq: u64) -> io::Result<()> {
        self.active_name = segment_name(first_seq);
        self.store
            .append(&self.active_name, &segment_header(&self.chain_head))?;
        self.active_len = SEGMENT_HEADER_LEN as u64;
        self.active_entries = 0;
        self.active_first = first_seq;
        self.active_next = first_seq;
        Ok(())
    }

    fn write_manifest(&mut self) -> io::Result<()> {
        let json = serde_json::to_string(&self.manifest)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.store.write_atomic(MANIFEST_NAME, json.as_bytes())
    }
}

/// The tamper-evident persistent audit pipeline.
///
/// See the [module docs](self) for the data flow. Dropping the pipeline
/// shuts the drainer down gracefully (final flush, no seal).
pub struct AuditPipeline {
    ring: Arc<AuditRing>,
    ctrl: mpsc::Sender<Ctrl>,
    inner: Arc<Mutex<Inner>>,
    counters: Arc<Counters>,
    drainer: Mutex<Option<JoinHandle<()>>>,
}

impl AuditPipeline {
    /// Opens (or recovers) a pipeline over a directory on disk.
    pub fn open_dir(dir: impl AsRef<Path>, config: PipelineConfig) -> io::Result<AuditPipeline> {
        AuditPipeline::open(Box::new(DiskStore::open(dir)?), config)
    }

    /// Opens a pipeline over a fresh in-memory store (used by tests and
    /// the campaign explorer's invariant probes).
    pub fn in_memory(config: PipelineConfig) -> AuditPipeline {
        AuditPipeline::open(Box::new(MemStore::new()), config).expect("in-memory store cannot fail")
    }

    /// Opens a pipeline over any [`Store`], running startup recovery:
    /// sealed segments are trusted from the manifest (verified lazily by
    /// [`verify`](AuditPipeline::verify)), the unsealed tail is
    /// re-chained from its anchor, and a torn tail is truncated back to
    /// the last chain-valid entry. The ring is allocated here, once.
    pub fn open(store: Box<dyn Store>, config: PipelineConfig) -> io::Result<AuditPipeline> {
        let counters = Arc::new(Counters::default());
        let mut inner = Inner {
            store,
            manifest: Manifest::default(),
            chain_head: GENESIS,
            active_name: String::new(),
            active_len: 0,
            active_entries: 0,
            active_first: 0,
            active_next: 0,
            segment_max: config.segment_max_bytes.max(SEGMENT_HEADER_LEN as u64 + 64),
        };
        let names = inner.store.list()?;
        if names.iter().any(|n| n == MANIFEST_NAME) {
            let bytes = inner.store.read(MANIFEST_NAME)?;
            let text = std::str::from_utf8(&bytes)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "manifest not utf-8"))?;
            inner.manifest = serde_json::from_str(text).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad manifest: {e}"))
            })?;
        }
        inner.chain_head = hash_from_hex(&inner.manifest.head)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad manifest head"))?;
        let mut next_seq = inner
            .manifest
            .segments
            .last()
            .map(|s| s.last_seq + 1)
            .unwrap_or(0);

        // Unsealed segments: everything named like a segment but absent
        // from the manifest. By construction at most one exists; recover
        // defensively anyway, oldest first.
        let mut unsealed: Vec<(u64, String)> = names
            .iter()
            .filter(|n| !inner.manifest.segments.iter().any(|s| &s.name == *n))
            .filter_map(|n| parse_segment_name(n).map(|seq| (seq, n.clone())))
            .collect();
        unsealed.sort_unstable();

        let mut have_active = false;
        let count = unsealed.len();
        for (i, (_, name)) in unsealed.into_iter().enumerate() {
            let is_last = i + 1 == count;
            let bytes = inner.store.read(&name)?;
            let scan = scan_segment(&bytes, Some(&inner.chain_head));
            if scan.valid_len < bytes.len() as u64 {
                counters
                    .recovered_truncated_bytes
                    .fetch_add(bytes.len() as u64 - scan.valid_len, Ordering::Relaxed);
            }
            if scan.valid_len < SEGMENT_HEADER_LEN as u64 {
                // The header never fully landed (or cannot splice onto
                // the chain): nothing recoverable here.
                inner.store.remove(&name)?;
                continue;
            }
            if scan.valid_len < bytes.len() as u64 {
                inner.store.truncate(&name, scan.valid_len)?;
            }
            let entries = scan.entries.len() as u64;
            let first = scan
                .entries
                .first()
                .map(|e| e.first_seq())
                .unwrap_or(next_seq);
            if let Some(last_entry) = scan.entries.last() {
                next_seq = last_entry.last_seq() + 1;
            }
            inner.chain_head = scan.end_hash;
            if is_last {
                inner.active_name = name;
                inner.active_len = scan.valid_len;
                inner.active_entries = entries;
                inner.active_first = first;
                inner.active_next = next_seq;
                have_active = true;
            } else if entries > 0 {
                // An older unsealed segment with content: seal it now so
                // exactly one unsealed segment remains.
                let start_hash = inner
                    .manifest
                    .segments
                    .last()
                    .map(|s| s.end_hash.clone())
                    .unwrap_or_else(|| hash_hex(&GENESIS));
                inner.manifest.segments.push(SealedSegment {
                    name,
                    first_seq: first,
                    last_seq: next_seq - 1,
                    entries,
                    start_hash,
                    end_hash: hash_hex(&inner.chain_head),
                });
                inner.manifest.head = hash_hex(&inner.chain_head);
                counters.segments_sealed.fetch_add(1, Ordering::Relaxed);
            } else {
                inner.store.remove(&name)?;
            }
        }
        if !have_active {
            inner.start_segment(next_seq)?;
        }
        inner.write_manifest()?;
        counters.next_seq.store(next_seq, Ordering::Relaxed);

        let stall_limit = config.idle_flush * 2;
        let ring = Arc::new(
            AuditRing::with_drainer(config.queue_capacity, next_seq, true).paced(stall_limit),
        );
        let (ctrl, ctrl_rx) = mpsc::channel();
        let inner = Arc::new(Mutex::new(inner));
        let drainer = Drainer {
            ring: Arc::clone(&ring),
            ctrl: ctrl_rx,
            inner: inner.clone(),
            counters: counters.clone(),
            next: next_seq,
            batch: Batch::default(),
            acks: Vec::new(),
            stall: None,
            stall_limit,
        };
        let handle = std::thread::Builder::new()
            .name("audit-drainer".to_owned())
            .spawn(move || drainer.run())
            .map_err(|e| io::Error::other(format!("spawning drainer: {e}")))?;
        Ok(AuditPipeline {
            ring,
            ctrl,
            inner,
            counters,
            drainer: Mutex::new(Some(handle)),
        })
    }

    /// The ring producers record into.
    pub fn ring(&self) -> &Arc<AuditRing> {
        &self.ring
    }

    /// The configured ring capacity.
    pub fn queue_capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// The next sequence number the drainer expects (everything below is
    /// persisted or declared lost). After a recovery this is where the
    /// log resumes.
    pub fn next_seq(&self) -> u64 {
        self.counters.next_seq.load(Ordering::Relaxed)
    }

    /// Blocks until every record written *before this call* is persisted,
    /// declaring still-missing sequence numbers as gaps, and fsyncs the
    /// active tail. Errors if the drainer has stopped or the store
    /// failed.
    pub fn flush(&self) -> io::Result<()> {
        let stopped = || io::Error::new(io::ErrorKind::BrokenPipe, "audit drainer stopped");
        let (ack_tx, ack_rx) = mpsc::channel();
        self.ctrl.send(Ctrl::Flush(ack_tx)).map_err(|_| stopped())?;
        ack_rx.recv().map_err(|_| stopped())?
    }

    /// Runs a bounded, filtered query over the persisted log (sealed
    /// segments and the active tail). Call [`flush`](AuditPipeline::flush)
    /// first to include everything recorded so far.
    pub fn query(&self, query: &AuditQuery) -> io::Result<QueryResult> {
        let inner = self.inner.lock();
        let limit = query.effective_limit();
        let mut result = QueryResult::default();
        let mut segments: Vec<(String, u64, u64)> = inner
            .manifest
            .segments
            .iter()
            .map(|s| (s.name.clone(), s.first_seq, s.last_seq))
            .collect();
        if inner.active_entries > 0 {
            segments.push((
                inner.active_name.clone(),
                inner.active_first,
                inner.active_next - 1,
            ));
        }
        'segments: for (name, first, last) in segments {
            if last < query.seq_min {
                continue;
            }
            if query.seq_max.is_some_and(|max| first > max) {
                break;
            }
            let bytes = inner.store.read(&name)?;
            // Damage is surfaced by `verify`; a query returns whatever
            // prefix still chains.
            let scan = scan_segment(&bytes, None);
            for entry in scan.entries {
                match entry {
                    Entry::Event(record) => {
                        if query.matches(&record) {
                            if result.records.len() == limit {
                                result.truncated = true;
                                result.next_seq = record.seq;
                                break 'segments;
                            }
                            result.records.push(record);
                        }
                    }
                    Entry::Gap { first, last } => {
                        let lo = first.max(query.seq_min);
                        let hi = query.seq_max.map_or(last, |max| last.min(max));
                        if lo <= hi {
                            result.gaps.push(GapRange { first, last });
                        }
                    }
                }
            }
        }
        if !result.truncated {
            result.next_seq = inner.active_next.max(query.seq_min);
        }
        Ok(result)
    }

    /// Re-derives the whole chain and reports per-segment integrity.
    /// Never panics on damage — a flipped byte, torn tail, missing blob,
    /// or resealed file each map to a typed [`SegmentStatus`].
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let started = Instant::now();
        let inner = self.inner.lock();
        let mut report = VerifyReport {
            ok: true,
            segments: Vec::new(),
            chain_head: hash_hex(&GENESIS),
            next_seq: 0,
        };
        let mut chain = GENESIS;
        let mut expect_seq: Option<u64> = None;
        for seg in &inner.manifest.segments {
            let (seg_report, end) = Self::verify_segment(
                &*inner.store,
                &seg.name,
                true,
                &chain,
                Some(&seg.end_hash),
                &mut expect_seq,
            );
            match end {
                Some(end) => chain = end,
                // Re-anchor on the manifest's sealed end hash so damage
                // in one segment does not cascade into its successors'
                // verdicts.
                None => chain = hash_from_hex(&seg.end_hash).unwrap_or(chain),
            }
            report.ok &= seg_report.status.is_ok();
            report.segments.push(seg_report);
        }
        if inner.active_entries > 0 || inner.manifest.segments.is_empty() {
            let (seg_report, end) = Self::verify_segment(
                &*inner.store,
                &inner.active_name,
                false,
                &chain,
                None,
                &mut expect_seq,
            );
            if let Some(end) = end {
                chain = end;
            }
            report.ok &= seg_report.status.is_ok();
            report.segments.push(seg_report);
        }
        report.chain_head = hash_hex(&chain);
        report.next_seq = expect_seq.unwrap_or(inner.active_next);
        drop(inner);
        self.counters.verify_calls.fetch_add(1, Ordering::Relaxed);
        self.counters
            .verify_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(report)
    }

    fn verify_segment(
        store: &dyn Store,
        name: &str,
        sealed: bool,
        anchor: &ChainHash,
        sealed_end: Option<&str>,
        expect_seq: &mut Option<u64>,
    ) -> (SegmentReport, Option<ChainHash>) {
        let mut report = SegmentReport {
            name: name.to_owned(),
            sealed,
            first_seq: 0,
            last_seq: 0,
            entries: 0,
            status: SegmentStatus::Ok,
        };
        let bytes = match store.read(name) {
            Ok(bytes) => bytes,
            Err(_) => {
                report.status = SegmentStatus::Missing;
                return (report, None);
            }
        };
        let scan = scan_segment(&bytes, Some(anchor));
        report.entries = scan.entries.len() as u64;
        if let Some(first) = scan.entries.first() {
            report.first_seq = first.first_seq();
            report.last_seq = scan
                .entries
                .last()
                .expect("non-empty entries have a last")
                .last_seq();
        }
        if let Some(damage) = scan.damage {
            report.status = SegmentStatus::Damaged(damage);
            return (report, None);
        }
        if let Some(end_hex) = sealed_end {
            if hash_hex(&scan.end_hash) != end_hex {
                report.status = SegmentStatus::EndHashMismatch;
                return (report, None);
            }
        }
        for entry in &scan.entries {
            if let Some(expected) = *expect_seq {
                if entry.first_seq() != expected {
                    report.status = SegmentStatus::SeqBreak(expected);
                    return (report, Some(scan.end_hash));
                }
            }
            *expect_seq = Some(entry.last_seq() + 1);
        }
        (report, Some(scan.end_hash))
    }

    /// Snapshots the pipeline counters.
    pub fn stats(&self) -> PipelineStats {
        let c = &self.counters;
        let active_bytes = self.inner.lock().active_len;
        let shed = self.ring.shed();
        let late_dropped = self.ring.late_dropped();
        let enqueued = self.ring.issued().saturating_sub(shed);
        let persisted_events = c.persisted_events.load(Ordering::Relaxed);
        PipelineStats {
            enqueued,
            shed,
            late_dropped,
            persisted_events,
            gap_records: c.gap_records.load(Ordering::Relaxed),
            gap_missing: c.gap_missing.load(Ordering::Relaxed),
            segments_sealed: c.segments_sealed.load(Ordering::Relaxed),
            flushes: c.flushes.load(Ordering::Relaxed),
            io_errors: c.io_errors.load(Ordering::Relaxed),
            recovered_truncated_bytes: c.recovered_truncated_bytes.load(Ordering::Relaxed),
            verify_calls: c.verify_calls.load(Ordering::Relaxed),
            verify_ns: c.verify_ns.load(Ordering::Relaxed),
            next_seq: c.next_seq.load(Ordering::Relaxed),
            queue_depth: enqueued.saturating_sub(persisted_events + late_dropped),
            active_bytes,
            running: self.is_running(),
        }
    }

    /// Whether the drainer thread is still alive.
    pub fn is_running(&self) -> bool {
        self.drainer
            .lock()
            .as_ref()
            .is_some_and(|h| !h.is_finished())
    }

    /// Gracefully stops the drainer: drains the ring, declares remaining
    /// holes, persists and fsyncs. Idempotent.
    pub fn shutdown(&self) {
        self.stop(Ctrl::Shutdown);
    }

    /// Test hook: stops the drainer *without* flushing, sealing, or
    /// syncing — whatever the store already absorbed is what a restart
    /// finds. Simulates the process dying mid-segment.
    pub fn crash_for_test(&self) {
        self.stop(Ctrl::Crash);
    }

    fn stop(&self, how: Ctrl) {
        let handle = self.drainer.lock().take();
        if let Some(handle) = handle {
            let _ = self.ctrl.send(how);
            let _ = handle.join();
        }
    }
}

impl Drop for AuditPipeline {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for AuditPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditPipeline")
            .field("next_seq", &self.next_seq())
            .field("running", &self.is_running())
            .finish()
    }
}

/// How long the caught-up drainer sleeps between looks at the cursor.
const POLL: Duration = Duration::from_millis(1);

/// Per-round cap on records read before persisting a batch (none while
/// a flush barrier or shutdown is pending).
const DRAIN_CAP: usize = 2048;

/// How often a barrier yields to a writer still filling its slot before
/// declaring the number lost.
const BARRIER_PATIENCE: u32 = 64;

/// Entries read this round, encoded and waiting to be chained.
#[derive(Default)]
struct Batch {
    /// Every entry's `tag || body`, back to back.
    payload: Vec<u8>,
    entries: Vec<Staged>,
}

struct Staged {
    /// Where this entry's payload ends (it starts where the previous
    /// entry's ends).
    end: usize,
    first: u64,
    last: u64,
    gap: bool,
}

impl Batch {
    fn push_event(&mut self, seq: u64, e: &RingEvent) {
        encode_event(
            &mut self.payload,
            seq,
            e.principal,
            e.generation,
            e.mode,
            e.outcome,
            &e.path,
        );
        self.entries.push(Staged {
            end: self.payload.len(),
            first: seq,
            last: seq,
            gap: false,
        });
    }

    /// Stages `first..=last` as lost, extending a gap that ends just
    /// before `first`.
    fn push_gap(&mut self, mut first: u64, last: u64) {
        if let Some(prev) = self.entries.last() {
            if prev.gap && prev.last + 1 == first {
                first = prev.first;
                self.entries.pop();
                self.payload.truncate(self.start(self.entries.len()));
            }
        }
        encode_gap(&mut self.payload, first, last);
        self.entries.push(Staged {
            end: self.payload.len(),
            first,
            last,
            gap: true,
        });
    }

    fn start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |prev| self.entries[prev].end)
    }

    fn payload(&self, i: usize) -> &[u8] {
        &self.payload[self.start(i)..self.entries[i].end]
    }

    fn clear(&mut self) {
        self.payload.clear();
        self.entries.clear();
    }
}

struct Drainer {
    ring: Arc<AuditRing>,
    ctrl: mpsc::Receiver<Ctrl>,
    inner: Arc<Mutex<Inner>>,
    counters: Arc<Counters>,
    /// The next sequence number to read; everything below is persisted,
    /// staged, or declared lost.
    next: u64,
    batch: Batch,
    /// Flush barriers waiting for this round to finish.
    acks: Vec<mpsc::Sender<io::Result<()>>>,
    /// The unfilled slot the drainer is waiting on, and since when.
    stall: Option<(u64, Instant)>,
    /// How long a stall lasts before its numbers are declared lost.
    stall_limit: Duration,
}

/// What the control channel asked for.
#[derive(PartialEq)]
enum Flow {
    Run,
    Stop,
    Crash,
}

impl Drainer {
    fn run(mut self) {
        let mut flow = Flow::Run;
        loop {
            while flow == Flow::Run {
                match self.ctrl.try_recv() {
                    Ok(msg) => flow = self.on(msg),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => flow = Flow::Stop,
                }
            }
            if flow == Flow::Crash {
                for ack in self.acks.drain(..) {
                    let _ = ack.send(Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "audit drainer crashed (test hook)",
                    )));
                }
                return;
            }
            let stop = flow == Flow::Stop;
            let barrier = stop || !self.acks.is_empty();
            let passed = self.drain(barrier);
            let outcome = self.persist(barrier);
            if barrier && !self.acks.is_empty() {
                self.counters
                    .flushes
                    .fetch_add(self.acks.len() as u64, Ordering::Relaxed);
                for ack in self.acks.drain(..) {
                    let _ = ack.send(clone_outcome(&outcome));
                }
            }
            if stop {
                return;
            }
            if passed == 0 {
                // Caught up (or waiting on a stalled writer): sleep until
                // the next poll or a control message.
                match self.ctrl.recv_timeout(POLL) {
                    Ok(msg) => flow = self.on(msg),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => flow = Flow::Stop,
                }
            }
        }
    }

    fn on(&mut self, msg: Ctrl) -> Flow {
        match msg {
            Ctrl::Flush(ack) => {
                self.acks.push(ack);
                Flow::Run
            }
            Ctrl::Shutdown => Flow::Stop,
            Ctrl::Crash => Flow::Crash,
        }
    }

    /// Reads the ring from `next` towards the cursor and returns how many
    /// sequence numbers it passed. A barrier reads every number handed
    /// out so far, declaring the ones whose writers never finish lost.
    fn drain(&mut self, barrier: bool) -> usize {
        let end = self.ring.next_seq();
        let start = self.next;
        let stalled = self
            .stall
            .is_some_and(|(seq, since)| seq == self.next && since.elapsed() >= self.stall_limit);
        let mut read = 0usize;
        while self.next < end && (barrier || read < DRAIN_CAP) {
            let seq = self.next;
            let mut take = self.read(seq, stalled);
            let mut patience = if barrier { BARRIER_PATIENCE } else { 0 };
            while take == Take::Pending && patience > 0 {
                patience -= 1;
                std::thread::yield_now();
                take = self.read(seq, patience == 0);
            }
            if take == Take::Pending {
                if self.stall.map(|(s, _)| s) != Some(seq) {
                    self.stall = Some((seq, Instant::now()));
                }
                break;
            }
            read += (take == Take::Ready) as usize;
            self.next += 1;
        }
        if self.stall.is_some_and(|(seq, _)| seq < self.next) {
            self.stall = None;
        }
        (self.next - start) as usize
    }

    /// Reads one slot into the batch: its record, or a gap entry for a
    /// number that is lost.
    fn read(&mut self, seq: u64, give_up: bool) -> Take {
        let batch = &mut self.batch;
        let mut dropped = false;
        let take = self.ring.take(seq, give_up, |event| {
            // Mutant point, scripted-only: a fired
            // `audit.drain.uncounted_loss` drops a ready record and
            // declares its number lost without counting it as shed — the
            // planted silent loss the campaign's audit-gap invariant must
            // catch. Random fault storms never reach it, and release
            // builds compile it to nothing.
            if extsec_faults::fire_mutant("audit.drain.uncounted_loss").is_some() {
                dropped = true;
            } else {
                batch.push_event(seq, event);
            }
        });
        if take == Take::Lost || dropped {
            self.batch.push_gap(seq, seq);
        }
        take
    }

    fn persist(&mut self, durable: bool) -> io::Result<()> {
        if self.batch.entries.is_empty() && !durable {
            return Ok(());
        }
        let outcome = self
            .inner
            .lock()
            .persist(&self.batch, &self.counters, durable);
        self.batch.clear();
        if outcome.is_err() {
            self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
        }
        self.counters.next_seq.store(self.next, Ordering::Relaxed);
        outcome
    }
}

fn clone_outcome(outcome: &io::Result<()>) -> io::Result<()> {
    match outcome {
        Ok(()) => Ok(()),
        Err(e) => Err(io::Error::new(e.kind(), e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{AuditRecord, Outcome};

    fn record(seq: u64) -> AuditRecord {
        AuditRecord {
            seq,
            principal: (seq % 7) as u32,
            generation: 1,
            mode: 0,
            outcome: if seq.is_multiple_of(3) {
                Outcome::MacFlow
            } else {
                Outcome::Allow
            },
            path: format!("/svc/fs/file{}", seq % 11),
        }
    }

    /// Records `record(seq)` and checks the ring handed out `seq`.
    fn put(pipeline: &AuditPipeline, seq: u64) {
        assert_eq!(pipeline.ring().append(&record(seq)), seq);
    }

    fn commit(pipeline: &AuditPipeline, seq: u64) {
        pipeline.ring().commit(seq, |e| e.set_record(&record(seq)));
    }

    #[test]
    fn records_persist_in_order_and_verify() {
        let pipeline = AuditPipeline::in_memory(PipelineConfig::default());
        for seq in 0..500 {
            put(&pipeline, seq);
        }
        pipeline.flush().unwrap();
        let report = pipeline.verify().unwrap();
        assert!(report.ok, "{report:?}");
        assert_eq!(report.next_seq, 500);
        let result = pipeline.query(&AuditQuery::default()).unwrap();
        assert_eq!(result.records, (0..500).map(record).collect::<Vec<_>>());
        assert!(result.gaps.is_empty());
        assert!(!result.truncated);
        assert_eq!(result.next_seq, 500);
    }

    #[test]
    fn writes_finishing_out_of_order_persist_in_order() {
        let pipeline = AuditPipeline::in_memory(PipelineConfig::default());
        let ring = pipeline.ring();
        let (zero, one) = (ring.reserve(), ring.reserve());
        put(&pipeline, 2);
        commit(&pipeline, one);
        commit(&pipeline, zero);
        put(&pipeline, 3);
        pipeline.flush().unwrap();
        let result = pipeline.query(&AuditQuery::default()).unwrap();
        let seqs: Vec<u64> = result.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3]);
        assert!(result.gaps.is_empty());
    }

    #[test]
    fn flush_declares_unwritten_seqs_as_gaps() {
        let pipeline = AuditPipeline::in_memory(PipelineConfig::default());
        // 0, 1 written; 2, 3 taken by writers that never finish; 4, 5
        // written.
        put(&pipeline, 0);
        put(&pipeline, 1);
        pipeline.ring().reserve();
        pipeline.ring().reserve();
        put(&pipeline, 4);
        put(&pipeline, 5);
        pipeline.flush().unwrap();
        let report = pipeline.verify().unwrap();
        assert!(report.ok, "{report:?}");
        assert_eq!(report.next_seq, 6);
        let result = pipeline.query(&AuditQuery::default()).unwrap();
        assert_eq!(
            result.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            [0, 1, 4, 5]
        );
        assert_eq!(result.gaps, [GapRange { first: 2, last: 3 }]);
        let stats = pipeline.stats();
        assert_eq!(stats.gap_records, 1);
        assert_eq!(stats.gap_missing, 2);
    }

    #[test]
    fn late_event_after_declared_gap_is_dropped() {
        let pipeline = AuditPipeline::in_memory(PipelineConfig::default());
        put(&pipeline, 0);
        let straggler = pipeline.ring().reserve();
        put(&pipeline, 2);
        pipeline.flush().unwrap(); // declares seq 1 lost
        commit(&pipeline, straggler);
        pipeline.flush().unwrap();
        let stats = pipeline.stats();
        assert_eq!(stats.late_dropped, 1);
        assert_eq!(stats.persisted_events, 2);
        assert_eq!(stats.enqueued, stats.persisted_events + stats.late_dropped);
        assert!(pipeline.verify().unwrap().ok);
    }

    #[test]
    fn dead_drainer_sheds_and_counts() {
        let pipeline = AuditPipeline::in_memory(PipelineConfig {
            queue_capacity: 4,
            ..PipelineConfig::default()
        });
        // Kill the drainer: records keep landing in the ring without
        // blocking, and each one that overwrites an unread record counts
        // the overwritten one as shed.
        pipeline.crash_for_test();
        for seq in 0..10 {
            put(&pipeline, seq);
        }
        let stats = pipeline.stats();
        assert_eq!(stats.shed, 6);
        assert_eq!(stats.enqueued, 4);
        assert_eq!(stats.queue_depth, 4);
        assert!(pipeline.flush().is_err(), "flush must fail after crash");
    }

    /// Producers outrun a drainer held up by the store: the overwritten
    /// records are counted as shed, and exactly they become gaps.
    #[test]
    fn burst_larger_than_the_ring_is_shed_and_declared() {
        const BURST: u64 = 5_000;
        let pipeline = AuditPipeline::in_memory(PipelineConfig {
            queue_capacity: 64,
            ..PipelineConfig::default()
        });
        {
            let _held = pipeline.inner.lock();
            for seq in 0..BURST {
                put(&pipeline, seq);
            }
        }
        pipeline.flush().unwrap();
        let stats = pipeline.stats();
        assert!(stats.shed >= BURST - 64 - DRAIN_CAP as u64, "{stats:?}");
        assert_eq!(stats.shed, stats.gap_missing, "{stats:?}");
        assert_eq!(stats.persisted_events + stats.gap_missing, stats.next_seq);
        assert_eq!(stats.next_seq, BURST);
        assert_eq!(stats.enqueued, stats.persisted_events + stats.late_dropped);
        assert_eq!(stats.queue_depth, 0);
        let report = pipeline.verify().unwrap();
        assert!(report.ok, "{report:?}");
        assert_eq!(report.next_seq, BURST);
        // The survivors are the newest records, intact.
        let result = pipeline.query(&AuditQuery::default()).unwrap();
        assert!(result.records.iter().all(|r| *r == record(r.seq)));
        assert_eq!(result.records.last().map(|r| r.seq), Some(BURST - 1));
    }

    #[test]
    fn segments_roll_and_seal() {
        let pipeline = AuditPipeline::in_memory(PipelineConfig {
            segment_max_bytes: 1024,
            ..PipelineConfig::default()
        });
        for seq in 0..200 {
            put(&pipeline, seq);
        }
        pipeline.flush().unwrap();
        let stats = pipeline.stats();
        assert!(stats.segments_sealed > 1, "{stats:?}");
        let report = pipeline.verify().unwrap();
        assert!(report.ok, "{report:?}");
        assert_eq!(report.segments.len() as u64, stats.segments_sealed + 1);
        // Pagination across segments.
        let mut seen = Vec::new();
        let mut seq_min = 0;
        loop {
            let page = pipeline
                .query(&AuditQuery {
                    seq_min,
                    limit: 64,
                    ..AuditQuery::default()
                })
                .unwrap();
            seen.extend(page.records.iter().map(|r| r.seq));
            if !page.truncated {
                break;
            }
            seq_min = page.next_seq;
        }
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn filtered_queries() {
        let pipeline = AuditPipeline::in_memory(PipelineConfig::default());
        for seq in 0..100 {
            put(&pipeline, seq);
        }
        pipeline.flush().unwrap();
        let denials = pipeline
            .query(&AuditQuery {
                outcome: Some(Outcome::MacFlow),
                ..AuditQuery::default()
            })
            .unwrap();
        assert!(!denials.records.is_empty());
        assert!(denials
            .records
            .iter()
            .all(|r| r.outcome == Outcome::MacFlow && r.seq % 3 == 0));
        let principal = pipeline
            .query(&AuditQuery {
                principal: Some(3),
                ..AuditQuery::default()
            })
            .unwrap();
        assert!(!principal.records.is_empty());
        assert!(principal.records.iter().all(|r| r.principal == 3));
        let subtree = pipeline
            .query(&AuditQuery {
                path_prefix: Some("/svc/fs/file1".to_owned()),
                ..AuditQuery::default()
            })
            .unwrap();
        assert!(!subtree.records.is_empty());
        assert!(subtree.records.iter().all(|r| r.path == "/svc/fs/file1"));
        let windowed = pipeline
            .query(&AuditQuery {
                seq_min: 10,
                seq_max: Some(19),
                ..AuditQuery::default()
            })
            .unwrap();
        assert_eq!(windowed.records.len(), 10);
    }

    #[test]
    fn concurrent_producers_and_flushes() {
        let pipeline = Arc::new(AuditPipeline::in_memory(PipelineConfig::default()));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = Arc::clone(pipeline.ring());
                std::thread::spawn(move || {
                    for i in 0..500 {
                        ring.append(&record(t * 500 + i));
                    }
                })
            })
            .collect();
        // Flush concurrently with production — must not hang or error.
        for _ in 0..5 {
            pipeline.flush().unwrap();
        }
        for t in threads {
            t.join().unwrap();
        }
        pipeline.flush().unwrap();
        let report = pipeline.verify().unwrap();
        assert!(report.ok, "{report:?}");
        assert_eq!(report.next_seq, 2000);
        let stats = pipeline.stats();
        assert_eq!(stats.persisted_events + stats.gap_missing, 2000);
        assert_eq!(stats.enqueued, stats.persisted_events + stats.late_dropped);
    }

    #[test]
    fn stats_and_shutdown_idempotent() {
        let pipeline = AuditPipeline::in_memory(PipelineConfig::default());
        put(&pipeline, 0);
        pipeline.flush().unwrap();
        let stats = pipeline.stats();
        assert_eq!(stats.enqueued, 1);
        assert_eq!(stats.persisted_events, 1);
        assert_eq!(stats.next_seq, 1);
        assert_eq!(stats.queue_depth, 0);
        assert!(stats.running);
        pipeline.shutdown();
        pipeline.shutdown();
        assert!(!pipeline.stats().running);
    }
}
