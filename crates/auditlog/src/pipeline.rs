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
//!
//! # Admin reads
//!
//! [`AuditPipeline::query`] and [`AuditPipeline::verify`] copy the segment
//! catalog under a short lock and read outside it, and
//! [`AuditPipeline::stats`] reads atomics only, so no admin read makes the
//! drainer wait (which would make writers shed after a stall period),
//! and no drainer I/O makes an admin read wait.

use crate::query::{AuditQuery, GapRange, QueryResult, SegmentReport, SegmentStatus, VerifyReport};
use crate::record::{encode_event, encode_gap, hash_from_hex, hash_hex, ChainHash, Entry, GENESIS};
use crate::ring::{AuditRing, RingEvent, Take};
use crate::segment::{
    parse_segment_name, push_payload_frame, scan_segment, segment_header, segment_name, Manifest,
    SealedSegment, MANIFEST_LOG_NAME, MANIFEST_NAME, SEGMENT_HEADER_LEN,
};
use crate::store::{DiskStore, MemStore, Store};
use parking_lot::Mutex;
use std::collections::HashSet;
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
/// `active_bytes`, `next_seq`, and `running`). The reference monitor's
/// metrics registry exports every field as `audit.pipeline.<field>`.
/// A typed view kept for nsbench, to be deleted in the benchmark change that
/// moves nsbench to the registry names.
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
    active_bytes: AtomicU64,
}

/// The drainer's control messages; records never travel this way.
enum Ctrl {
    Flush(mpsc::Sender<io::Result<()>>),
    /// Test hook: exit immediately without flushing or sealing,
    /// simulating a crash mid-segment.
    Crash,
    Shutdown,
}

/// The extent of the active (unsealed) segment, the one the drainer
/// appends to. Its blob is `segment_name(start)`, and its first entry,
/// once it has one, covers `start`.
#[derive(Clone, Copy, Debug)]
struct Tail {
    start: u64,
    /// Bytes written, header included.
    len: u64,
    entries: u64,
    /// The sequence number just past the segment's coverage (`start`
    /// while it is empty).
    next: u64,
}

/// What the log holds: the sealed segments, oldest first, and the extent
/// of the active tail. This is all the admin paths (query/verify) share
/// with the drainer, and the check path never touches it. The drainer
/// takes the lock only to publish what a persist round appended and
/// sealed, never across I/O; the admin paths take it only to copy the
/// catalog. Sealed segments never change and the tail only grows, so a
/// copy stays readable, without the lock, while the drainer appends.
#[derive(Clone)]
struct Catalog {
    sealed: Vec<Arc<SealedSegment>>,
    tail: Tail,
}

/// The drainer's end of the log: the chain head and the tail segment it
/// appends to. Owned by the drainer thread (by recovery before that).
struct Writer {
    store: Arc<dyn Store>,
    catalog: Arc<Mutex<Catalog>>,
    chain_head: ChainHash,
    /// The chain hash the tail segment starts from (its header's anchor).
    anchor: ChainHash,
    tail: Tail,
    /// Segments filled since the last commit, oldest first: all their
    /// frames are appended, their manifest lines are not.
    filled: Vec<SealedSegment>,
    segment_max: u64,
    /// The frames of one append, kept across rounds so its capacity is
    /// reused.
    frames: Vec<u8>,
}

impl Writer {
    /// Startup recovery: sealed segments are trusted from the manifest
    /// (verified lazily by [`AuditPipeline::verify`]), the unsealed tail
    /// is re-chained from its anchor, and a torn tail is truncated back to
    /// the last chain-valid entry.
    fn recover(store: Arc<dyn Store>, segment_max: u64, counters: &Counters) -> io::Result<Writer> {
        let names = store.list()?;
        let sealed = read_manifest(&*store, &names, counters)?;
        let chain_head = match sealed.last() {
            Some(last) => {
                hash_from_hex(&last.end_hash).ok_or_else(|| invalid("bad manifest hash"))?
            }
            None => GENESIS,
        };
        let next = sealed.last().map_or(0, |s| s.last_seq + 1);
        // Unsealed segments: everything named like a segment but absent
        // from the manifest. By construction at most one exists; recover
        // defensively anyway, oldest first.
        let mut unsealed: Vec<u64> = {
            let known: HashSet<&str> = sealed.iter().map(|s| s.name.as_str()).collect();
            names
                .iter()
                .filter(|n| !known.contains(n.as_str()))
                .filter_map(|n| parse_segment_name(n))
                .collect()
        };
        unsealed.sort_unstable();

        let tail = Tail {
            start: next,
            len: 0,
            entries: 0,
            next,
        };
        let mut writer = Writer {
            store,
            catalog: Arc::new(Mutex::new(Catalog { sealed, tail })),
            chain_head,
            anchor: chain_head,
            tail,
            filled: Vec::new(),
            segment_max,
            frames: Vec::new(),
        };
        let mut have_tail = false;
        for (i, &start) in unsealed.iter().enumerate() {
            let name = segment_name(start);
            let bytes = writer.store.read(&name)?;
            let scan = scan_segment(&bytes, Some(&writer.chain_head));
            let torn = bytes.len() as u64 - scan.valid_len;
            counters
                .recovered_truncated_bytes
                .fetch_add(torn, Ordering::Relaxed);
            if scan.valid_len < SEGMENT_HEADER_LEN as u64 {
                // The header never fully landed (or cannot splice onto
                // the chain): nothing recoverable here.
                writer.store.remove(&name)?;
                continue;
            }
            if torn > 0 {
                writer.store.truncate(&name, scan.valid_len)?;
            }
            writer.anchor = writer.chain_head;
            writer.chain_head = scan.end_hash;
            writer.tail = Tail {
                start,
                len: scan.valid_len,
                entries: scan.entries.len() as u64,
                next: scan
                    .entries
                    .last()
                    .map_or(writer.tail.next, |e| e.last_seq() + 1),
            };
            if i + 1 == unsealed.len() {
                have_tail = true;
            } else if writer.tail.entries > 0 {
                // An older unsealed segment with content: seal it now so
                // exactly one unsealed segment remains.
                writer.filled.push(writer.sealed_tail());
            } else {
                writer.store.remove(&name)?;
            }
        }
        if !have_tail {
            writer.start_segment(writer.tail.next)?;
        }
        writer.commit(counters)?;
        Ok(writer)
    }

    /// Chains the batch's entries (already in sequence order) onto the
    /// tail segment, rolling to a fresh segment as each fills, then
    /// [commits](Writer::commit) the round. The chain and tail advance only
    /// after each append succeeds, so an I/O failure leaves them
    /// consistent with the bytes that actually landed, and a seal that
    /// failed is retried by the next commit.
    fn persist(&mut self, batch: &Batch, counters: &Counters, durable: bool) -> io::Result<()> {
        let mut i = 0;
        while i < batch.entries.len() {
            self.frames.clear();
            let mut chain = self.chain_head;
            let mut next = self.tail.next;
            let mut count = 0u64;
            let mut events = 0u64;
            let mut gap_records = 0u64;
            let mut gap_missing = 0u64;
            while let Some(entry) = batch.entries.get(i) {
                if self.tail.entries + count > 0
                    && self.tail.len + self.frames.len() as u64 >= self.segment_max
                {
                    break;
                }
                chain = push_payload_frame(&mut self.frames, &chain, batch.payload(i));
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
                self.store
                    .append(&segment_name(self.tail.start), &self.frames)?;
                self.tail.len += self.frames.len() as u64;
                self.tail.entries += count;
                self.tail.next = next;
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
                self.filled.push(self.sealed_tail());
                self.start_segment(self.tail.next)?;
            }
        }
        self.commit(counters)?;
        if durable {
            self.store.sync(&segment_name(self.tail.start))?;
        }
        Ok(())
    }

    /// The manifest entry that seals the (non-empty) tail as it stands.
    fn sealed_tail(&self) -> SealedSegment {
        debug_assert!(self.tail.entries > 0, "never seal an empty segment");
        SealedSegment {
            name: segment_name(self.tail.start),
            first_seq: self.tail.start,
            last_seq: self.tail.next - 1,
            entries: self.tail.entries,
            start_hash: hash_hex(&self.anchor),
            end_hash: hash_hex(&self.chain_head),
        }
    }

    /// Starts a fresh tail segment anchored on the chain head.
    fn start_segment(&mut self, start: u64) -> io::Result<()> {
        self.store
            .append(&segment_name(start), &segment_header(&self.chain_head))?;
        self.anchor = self.chain_head;
        self.tail = Tail {
            start,
            len: SEGMENT_HEADER_LEN as u64,
            entries: 0,
            next: start,
        };
        Ok(())
    }

    /// Seals the filled segments as one group, then shows readers the
    /// new seals and the tail in one step, so no copy of the catalog lists
    /// a segment twice or misses one. The group fsyncs each filled
    /// segment (the first fsync also makes durable the directory entries
    /// of the segments created since), then appends one manifest line per
    /// segment and fsyncs the log once: the lines are the commit point,
    /// so a seal costs the same however long the log is, and a round that
    /// fills many small segments pays one manifest fsync, not one each.
    fn commit(&mut self, counters: &Counters) -> io::Result<()> {
        let mut lines = String::new();
        for segment in &self.filled {
            self.store.sync(&segment.name)?;
            lines.push_str(&serde_json::to_string(segment).map_err(|e| invalid(e.to_string()))?);
            lines.push('\n');
        }
        if !lines.is_empty() {
            self.store.append(MANIFEST_LOG_NAME, lines.as_bytes())?;
        }
        counters
            .segments_sealed
            .fetch_add(self.filled.len() as u64, Ordering::Relaxed);
        {
            let mut catalog = self.catalog.lock();
            catalog.sealed.extend(self.filled.drain(..).map(Arc::new));
            catalog.tail = self.tail;
        }
        counters
            .active_bytes
            .store(self.tail.len, Ordering::Relaxed);
        if !lines.is_empty() {
            self.store.sync(MANIFEST_LOG_NAME)?;
        }
        Ok(())
    }
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

fn parse_json<T: serde::Deserialize>(bytes: &[u8], what: &str) -> io::Result<T> {
    let text = std::str::from_utf8(bytes).map_err(|_| invalid(format!("{what} not utf-8")))?;
    serde_json::from_str(text).map_err(|e| invalid(format!("bad {what}: {e}")))
}

/// Reads the sealed-segment list: first the segments of a
/// `manifest.json`, which a log written before the manifest became
/// append-only may hold and which is never rewritten, then one segment
/// per complete line of the manifest log. A torn last line, from a seal
/// that crashed mid-append, is truncated away; its segment is still on
/// disk and recovers as unsealed.
fn read_manifest(
    store: &dyn Store,
    names: &[String],
    counters: &Counters,
) -> io::Result<Vec<Arc<SealedSegment>>> {
    let has = |name: &str| names.iter().any(|n| n == name);
    let mut sealed = Vec::new();
    if has(MANIFEST_NAME) {
        let base: Manifest = parse_json(&store.read(MANIFEST_NAME)?, "manifest")?;
        sealed.extend(base.segments.into_iter().map(Arc::new));
    }
    if has(MANIFEST_LOG_NAME) {
        let bytes = store.read(MANIFEST_LOG_NAME)?;
        let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        for line in bytes[..complete].split(|&b| b == b'\n') {
            if !line.is_empty() {
                sealed.push(Arc::new(parse_json(line, "manifest line")?));
            }
        }
        if complete < bytes.len() {
            store.truncate(MANIFEST_LOG_NAME, complete as u64)?;
            counters
                .recovered_truncated_bytes
                .fetch_add((bytes.len() - complete) as u64, Ordering::Relaxed);
        }
    }
    Ok(sealed)
}

/// The tamper-evident persistent audit pipeline.
///
/// See the [module docs](self) for the data flow. Dropping the pipeline
/// shuts the drainer down gracefully (final flush, no seal).
pub struct AuditPipeline {
    ring: Arc<AuditRing>,
    ctrl: mpsc::Sender<Ctrl>,
    store: Arc<dyn Store>,
    catalog: Arc<Mutex<Catalog>>,
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
        let store: Arc<dyn Store> = Arc::from(store);
        let counters = Arc::new(Counters::default());
        let writer = Writer::recover(
            Arc::clone(&store),
            config.segment_max_bytes.max(SEGMENT_HEADER_LEN as u64 + 64),
            &counters,
        )?;
        let next_seq = writer.tail.next;
        counters.next_seq.store(next_seq, Ordering::Relaxed);

        let stall_limit = config.idle_flush * 2;
        let ring = Arc::new(
            AuditRing::with_drainer(config.queue_capacity, next_seq, true).paced(stall_limit),
        );
        let (ctrl, ctrl_rx) = mpsc::channel();
        let catalog = Arc::clone(&writer.catalog);
        let drainer = Drainer {
            ring: Arc::clone(&ring),
            ctrl: ctrl_rx,
            writer,
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
            store,
            catalog,
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

    /// Reads a segment as a catalog copy lists it: a sealed one whole,
    /// the tail only up to its published length `len`, since the drainer
    /// may be appending past it.
    fn read_segment(&self, name: &str, len: Option<u64>) -> io::Result<Vec<u8>> {
        let mut bytes = self.store.read(name)?;
        if let Some(len) = len {
            bytes.truncate(len as usize);
        }
        Ok(bytes)
    }

    /// Runs a bounded, filtered query over the persisted log (sealed
    /// segments and the active tail). Call [`flush`](AuditPipeline::flush)
    /// first to include everything recorded so far. Reads a copy of the
    /// catalog, so the drainer keeps appending meanwhile.
    pub fn query(&self, query: &AuditQuery) -> io::Result<QueryResult> {
        let catalog = self.catalog.lock().clone();
        let tail = catalog.tail;
        let tail_name = segment_name(tail.start);
        let sealed = catalog
            .sealed
            .iter()
            .map(|s| (s.name.as_str(), s.first_seq, s.last_seq, None));
        let active = (tail.entries > 0).then(|| {
            (
                tail_name.as_str(),
                tail.start,
                tail.next - 1,
                Some(tail.len),
            )
        });
        let limit = query.effective_limit();
        let mut result = QueryResult::default();
        'segments: for (name, first, last, len) in sealed.chain(active) {
            if last < query.seq_min {
                continue;
            }
            if query.seq_max.is_some_and(|max| first > max) {
                break;
            }
            let bytes = self.read_segment(name, len)?;
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
            result.next_seq = tail.next.max(query.seq_min);
        }
        Ok(result)
    }

    /// Re-derives the whole chain and reports per-segment integrity.
    /// Never panics on damage — a flipped byte, torn tail, missing blob,
    /// or resealed file each map to a typed [`SegmentStatus`]. Reads a
    /// copy of the catalog, so the drainer keeps appending meanwhile.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let started = Instant::now();
        let catalog = self.catalog.lock().clone();
        let mut report = VerifyReport {
            ok: true,
            segments: Vec::new(),
            chain_head: hash_hex(&GENESIS),
            next_seq: 0,
            omitted: 0,
        };
        let mut chain = GENESIS;
        let mut expect_seq: Option<u64> = None;
        for seg in &catalog.sealed {
            let (seg_report, end) = Self::verify_segment(
                &seg.name,
                self.store.read(&seg.name),
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
        let tail = catalog.tail;
        if tail.entries > 0 || catalog.sealed.is_empty() {
            let name = segment_name(tail.start);
            let (seg_report, end) = Self::verify_segment(
                &name,
                self.read_segment(&name, Some(tail.len)),
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
        report.next_seq = expect_seq.unwrap_or(tail.next);
        self.counters.verify_calls.fetch_add(1, Ordering::Relaxed);
        self.counters
            .verify_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(report)
    }

    /// Verifies one segment's bytes (`sealed_end` is the manifest's end
    /// hash for a sealed one, `None` for the tail).
    fn verify_segment(
        name: &str,
        bytes: io::Result<Vec<u8>>,
        anchor: &ChainHash,
        sealed_end: Option<&str>,
        expect_seq: &mut Option<u64>,
    ) -> (SegmentReport, Option<ChainHash>) {
        let mut report = SegmentReport {
            name: name.to_owned(),
            sealed: sealed_end.is_some(),
            first_seq: 0,
            last_seq: 0,
            entries: 0,
            status: SegmentStatus::Ok,
        };
        let Ok(bytes) = bytes else {
            report.status = SegmentStatus::Missing;
            return (report, None);
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

    /// Snapshots the pipeline counters: a typed view kept for nsbench,
    /// to be deleted in the benchmark change that moves nsbench to the
    /// registry names.
    pub fn stats(&self) -> PipelineStats {
        let c = &self.counters;
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
            active_bytes: c.active_bytes.load(Ordering::Relaxed),
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
    writer: Writer,
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
        let outcome = self.writer.persist(&self.batch, &self.counters, durable);
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

    /// An in-memory store whose appends wait while `gate` is held,
    /// counting the appends waiting in `blocked`.
    #[derive(Default)]
    struct Gated {
        blobs: MemStore,
        gate: Arc<Mutex<()>>,
        blocked: Arc<AtomicU64>,
    }

    impl Store for Gated {
        fn list(&self) -> io::Result<Vec<String>> {
            self.blobs.list()
        }

        fn read(&self, name: &str) -> io::Result<Vec<u8>> {
            self.blobs.read(name)
        }

        fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
            self.blocked.fetch_add(1, Ordering::SeqCst);
            let open = self.gate.lock();
            self.blocked.fetch_sub(1, Ordering::SeqCst);
            drop(open);
            self.blobs.append(name, bytes)
        }

        fn sync(&self, name: &str) -> io::Result<()> {
            self.blobs.sync(name)
        }

        fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
            self.blobs.truncate(name, len)
        }

        fn size(&self, name: &str) -> io::Result<u64> {
            self.blobs.size(name)
        }

        fn remove(&self, name: &str) -> io::Result<()> {
            self.blobs.remove(name)
        }
    }

    /// A pipeline over a [`Gated`] store, with the store's gate and
    /// waiting-append count.
    fn gated(config: PipelineConfig) -> (AuditPipeline, Arc<Mutex<()>>, Arc<AtomicU64>) {
        let store = Gated::default();
        let (gate, blocked) = (Arc::clone(&store.gate), Arc::clone(&store.blocked));
        let pipeline = AuditPipeline::open(Box::new(store), config).unwrap();
        (pipeline, gate, blocked)
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
        let (pipeline, gate, _) = gated(PipelineConfig {
            queue_capacity: 64,
            ..PipelineConfig::default()
        });
        {
            let _held = gate.lock();
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

    /// Query, verify and stats answer from what the drainer last
    /// published while the drainer is stuck inside a store append.
    #[test]
    fn admin_reads_do_not_wait_for_the_drainers_io() {
        let (pipeline, gate, blocked) = gated(PipelineConfig::default());
        for seq in 0..100 {
            put(&pipeline, seq);
        }
        pipeline.flush().unwrap();
        let held = gate.lock();
        for seq in 100..200 {
            put(&pipeline, seq);
        }
        while blocked.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let result = pipeline.query(&AuditQuery::default()).unwrap();
        assert_eq!(result.records, (0..100).map(record).collect::<Vec<_>>());
        assert_eq!(result.next_seq, 100);
        let report = pipeline.verify().unwrap();
        assert!(report.ok, "{report:?}");
        assert_eq!(report.next_seq, 100);
        assert_eq!(pipeline.stats().persisted_events, 100);
        drop(held);
        pipeline.flush().unwrap();
        assert_eq!(pipeline.verify().unwrap().next_seq, 200);
        assert_eq!(
            pipeline
                .query(&AuditQuery::default())
                .unwrap()
                .records
                .len(),
            200
        );
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
