//! Server-side telemetry, layered on the `extsec-telemetry` primitives.
//!
//! The server reuses the monitor's counter and histogram machinery —
//! [`ShardedCounter`] for contended counts, [`Histogram`] for
//! distributions — and follows the same pull discipline: nothing here is
//! exported from the hot path; [`ServerTelemetry::metrics`] reads a
//! consistent-enough view on demand (counters are relaxed, so totals can
//! be one update apart under load, exactly like the monitor's own hub).
//! Unlike the monitor's hub it is always on: every count is one sharded
//! increment, and the benchmark reads these counters with monitor
//! telemetry off.

use crate::proto::Opcode;
use extsec_telemetry::{Histogram, HistogramSnapshot, Metrics, ShardedCounter};

/// One server counter: a slot in [`ServerTelemetry`]'s array, with one
/// name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ServerCounter {
    /// Requests handled with one opcode: `server.requests.<opcode>`.
    Request(Opcode),
    /// Connections handed to a shard: `server.conn.accepted`.
    Accepted,
    /// Connections a shard finished with, whatever the reason:
    /// `server.conn.closed`.
    Closed,
    /// Connections shed at accept (over the connection cap or the
    /// handoff queue full), answered `Busy` (best effort) and closed
    /// instead of queued without bound: `server.shed.accept`.
    ShedAccept,
    /// Connections shed mid-stream for exhausting their request budget:
    /// `server.shed.budget`.
    ShedBudget,
    /// Panics contained at the shard boundary (the shard survives):
    /// `server.errors.worker_panics`.
    WorkerPanics,
    /// Frames refused for violating the protocol:
    /// `server.errors.protocol`.
    ProtocolErrors,
    /// Subset of protocol errors: length prefix over the frame limit.
    /// `server.errors.oversize`.
    Oversize,
    /// Connections closed for timing out mid-frame or mid-write:
    /// `server.errors.timeouts`.
    Timeouts,
    /// Connections closed on other transport errors: `server.errors.io`.
    IoErrors,
    /// Individual checks served through `BatchCheck` frames:
    /// `server.batch.checks`.
    BatchedChecks,
    /// Reactor poll calls that returned: `server.reactor.polls`.
    Polls,
    /// Readiness events delivered across all poll returns:
    /// `server.reactor.ready_events`.
    ReadyEvents,
    /// Cross-shard wakeups (connection handoffs and shutdown nudges):
    /// `server.reactor.wakeups`.
    Wakeups,
    /// Coalesced write flushes issued, one per connection per turn:
    /// `server.reactor.flushes`.
    Flushes,
    /// Responses carried by those flushes; per flush, the
    /// batch-coalescing ratio: `server.reactor.flushed_responses`.
    FlushedResponses,
    /// Connection buffers shrunk back under the capacity clamp after a
    /// large frame or reply inflated them: `server.reactor.buf_shrinks`.
    BufShrinks,
}

impl ServerCounter {
    /// The counters that are not per opcode.
    const SCALARS: [ServerCounter; 16] = [
        ServerCounter::Accepted,
        ServerCounter::Closed,
        ServerCounter::ShedAccept,
        ServerCounter::ShedBudget,
        ServerCounter::WorkerPanics,
        ServerCounter::ProtocolErrors,
        ServerCounter::Oversize,
        ServerCounter::Timeouts,
        ServerCounter::IoErrors,
        ServerCounter::BatchedChecks,
        ServerCounter::Polls,
        ServerCounter::ReadyEvents,
        ServerCounter::Wakeups,
        ServerCounter::Flushes,
        ServerCounter::FlushedResponses,
        ServerCounter::BufShrinks,
    ];

    /// Number of counters.
    const COUNT: usize = Opcode::COUNT + ServerCounter::SCALARS.len();

    /// Every counter.
    fn all() -> impl Iterator<Item = ServerCounter> {
        Opcode::ALL
            .into_iter()
            .map(ServerCounter::Request)
            .chain(ServerCounter::SCALARS)
    }

    /// This counter's slot in the array.
    #[inline]
    fn index(self) -> usize {
        let scalar = match self {
            ServerCounter::Request(opcode) => return opcode as usize,
            ServerCounter::Accepted => 0,
            ServerCounter::Closed => 1,
            ServerCounter::ShedAccept => 2,
            ServerCounter::ShedBudget => 3,
            ServerCounter::WorkerPanics => 4,
            ServerCounter::ProtocolErrors => 5,
            ServerCounter::Oversize => 6,
            ServerCounter::Timeouts => 7,
            ServerCounter::IoErrors => 8,
            ServerCounter::BatchedChecks => 9,
            ServerCounter::Polls => 10,
            ServerCounter::ReadyEvents => 11,
            ServerCounter::Wakeups => 12,
            ServerCounter::Flushes => 13,
            ServerCounter::FlushedResponses => 14,
            ServerCounter::BufShrinks => 15,
        };
        Opcode::COUNT + scalar
    }

    /// The counter's metric name.
    fn name(self) -> String {
        let name = match self {
            ServerCounter::Request(opcode) => return format!("server.requests.{}", opcode.name()),
            ServerCounter::Accepted => "conn.accepted",
            ServerCounter::Closed => "conn.closed",
            ServerCounter::ShedAccept => "shed.accept",
            ServerCounter::ShedBudget => "shed.budget",
            ServerCounter::WorkerPanics => "errors.worker_panics",
            ServerCounter::ProtocolErrors => "errors.protocol",
            ServerCounter::Oversize => "errors.oversize",
            ServerCounter::Timeouts => "errors.timeouts",
            ServerCounter::IoErrors => "errors.io",
            ServerCounter::BatchedChecks => "batch.checks",
            ServerCounter::Polls => "reactor.polls",
            ServerCounter::ReadyEvents => "reactor.ready_events",
            ServerCounter::Wakeups => "reactor.wakeups",
            ServerCounter::Flushes => "reactor.flushes",
            ServerCounter::FlushedResponses => "reactor.flushed_responses",
            ServerCounter::BufShrinks => "reactor.buf_shrinks",
        };
        format!("server.{name}")
    }
}

/// Live server counters and distributions. One instance per [`Server`],
/// shared by every reactor shard.
///
/// [`Server`]: crate::server::Server
pub struct ServerTelemetry {
    counters: [ShardedCounter; ServerCounter::COUNT],
    /// Request frame sizes: `server.frame_bytes`.
    pub(crate) frame_bytes: Histogram,
    /// Wall-clock latency of whole `BatchCheck` frames:
    /// `server.batch.latency_ns`.
    pub(crate) batch_latency_ns: Histogram,
}

impl ServerTelemetry {
    /// Creates a zeroed telemetry block.
    pub fn new() -> Self {
        ServerTelemetry {
            counters: std::array::from_fn(|_| ShardedCounter::new()),
            frame_bytes: Histogram::new(),
            batch_latency_ns: Histogram::new(),
        }
    }

    /// Counts one event of `counter`.
    #[inline]
    pub(crate) fn count(&self, counter: ServerCounter) {
        self.add(counter, 1);
    }

    /// Counts `n` events of `counter`.
    #[inline]
    pub(crate) fn add(&self, counter: ServerCounter, n: u64) {
        self.counters[counter.index()].add(n);
    }

    fn get(&self, counter: ServerCounter) -> u64 {
        self.counters[counter.index()].get()
    }

    /// Reads every counter and histogram under its name, plus
    /// `server.conn.active`, the connections being served.
    pub fn metrics(&self) -> Metrics {
        let mut metrics = Metrics::default();
        for counter in ServerCounter::all() {
            metrics.set(counter.name(), self.get(counter));
        }
        let active = self
            .get(ServerCounter::Accepted)
            .saturating_sub(self.get(ServerCounter::Closed));
        metrics.set("server.conn.active", active);
        metrics.set_histogram("server.frame_bytes", self.frame_bytes.snapshot());
        metrics.set_histogram("server.batch.latency_ns", self.batch_latency_ns.snapshot());
        metrics
    }

    /// The counters as typed fields.
    pub fn snapshot(&self) -> ServerTelemetrySnapshot {
        let accepted = self.get(ServerCounter::Accepted);
        let closed = self.get(ServerCounter::Closed);
        ServerTelemetrySnapshot {
            requests: Opcode::ALL
                .into_iter()
                .map(|op| OpcodeCount {
                    opcode: op.name().to_string(),
                    count: self.get(ServerCounter::Request(op)),
                })
                .collect(),
            accepted,
            closed,
            active: accepted.saturating_sub(closed),
            shed_accept: self.get(ServerCounter::ShedAccept),
            shed_budget: self.get(ServerCounter::ShedBudget),
            worker_panics: self.get(ServerCounter::WorkerPanics),
            protocol_errors: self.get(ServerCounter::ProtocolErrors),
            oversize: self.get(ServerCounter::Oversize),
            timeouts: self.get(ServerCounter::Timeouts),
            io_errors: self.get(ServerCounter::IoErrors),
            checks_in_batches: self.get(ServerCounter::BatchedChecks),
            polls: self.get(ServerCounter::Polls),
            ready_events: self.get(ServerCounter::ReadyEvents),
            wakeups: self.get(ServerCounter::Wakeups),
            flushes: self.get(ServerCounter::Flushes),
            flushed_responses: self.get(ServerCounter::FlushedResponses),
            buf_shrinks: self.get(ServerCounter::BufShrinks),
            frame_bytes: self.frame_bytes.snapshot(),
            batch_latency: self.batch_latency_ns.snapshot(),
        }
    }
}

impl Default for ServerTelemetry {
    fn default() -> Self {
        ServerTelemetry::new()
    }
}

/// Requests served for one opcode: a typed view kept for nsbench, to be
/// deleted in the benchmark change that moves nsbench to the registry names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpcodeCount {
    /// The opcode's name (see [`Opcode::name`]).
    pub opcode: String,
    /// How many requests were handled.
    pub count: u64,
}

/// A point-in-time copy of [`ServerTelemetry`] as typed fields, which
/// [`Server::shutdown`](crate::Server::shutdown) returns. A typed view
/// kept for nsbench, to be deleted in the benchmark change that moves
/// nsbench to the registry names; [`ServerTelemetry::metrics`] exports
/// the same counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerTelemetrySnapshot {
    /// Requests handled, per opcode.
    pub requests: Vec<OpcodeCount>,
    /// Connections handed to a shard.
    pub accepted: u64,
    /// Connections finished.
    pub closed: u64,
    /// Connections currently being served (`accepted - closed`).
    pub active: u64,
    /// Connections shed at accept (answered `Busy`).
    pub shed_accept: u64,
    /// Connections shed for exhausting their request budget.
    pub shed_budget: u64,
    /// Panics contained at the shard boundary.
    pub worker_panics: u64,
    /// Frames refused as protocol violations.
    pub protocol_errors: u64,
    /// Length prefixes over the frame limit (subset of protocol errors).
    pub oversize: u64,
    /// Connections closed on mid-frame or write timeouts.
    pub timeouts: u64,
    /// Connections closed on other transport errors.
    pub io_errors: u64,
    /// Individual checks served inside batches.
    pub checks_in_batches: u64,
    /// Reactor poll calls that returned.
    pub polls: u64,
    /// Readiness events delivered across all polls.
    pub ready_events: u64,
    /// Cross-shard wakeups (handoffs and shutdown nudges).
    pub wakeups: u64,
    /// Coalesced write flushes issued.
    pub flushes: u64,
    /// Responses carried by those flushes.
    pub flushed_responses: u64,
    /// Connection buffers shrunk back under the capacity clamp.
    pub buf_shrinks: u64,
    /// Request frame sizes, in bytes.
    pub frame_bytes: HistogramSnapshot,
    /// Whole-batch service latency, in nanoseconds.
    pub batch_latency: HistogramSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;
    use extsec_mac::Lattice;
    use extsec_refmon::{AuditPipeline, MonitorBuilder, PipelineConfig};
    use std::sync::Arc;

    #[test]
    fn every_counter_has_its_own_slot() {
        let mut slots: Vec<usize> = ServerCounter::all().map(ServerCounter::index).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..ServerCounter::COUNT).collect::<Vec<_>>());
    }

    #[test]
    fn snapshot_and_metrics_reflect_counts() {
        let tele = ServerTelemetry::new();
        tele.count(ServerCounter::Accepted);
        tele.count(ServerCounter::Accepted);
        tele.count(ServerCounter::Closed);
        tele.count(ServerCounter::Request(Opcode::Check));
        tele.count(ServerCounter::Request(Opcode::BatchCheck));
        tele.add(ServerCounter::BatchedChecks, 64);
        tele.frame_bytes.record(512);
        tele.batch_latency_ns.record(3_000);
        tele.count(ServerCounter::ProtocolErrors);
        tele.count(ServerCounter::Oversize);
        tele.count(ServerCounter::ShedAccept);
        tele.count(ServerCounter::ShedBudget);
        tele.count(ServerCounter::WorkerPanics);
        tele.count(ServerCounter::Polls);
        tele.add(ServerCounter::ReadyEvents, 3);
        tele.count(ServerCounter::Polls);
        tele.add(ServerCounter::ReadyEvents, 2);
        tele.count(ServerCounter::Wakeups);
        tele.count(ServerCounter::Flushes);
        tele.add(ServerCounter::FlushedResponses, 4);
        tele.count(ServerCounter::BufShrinks);

        let snap = tele.snapshot();
        assert_eq!(snap.polls, 2);
        assert_eq!(snap.ready_events, 5);
        assert_eq!(snap.wakeups, 1);
        assert_eq!(snap.flushes, 1);
        assert_eq!(snap.flushed_responses, 4);
        assert_eq!(snap.buf_shrinks, 1);
        assert_eq!(snap.shed_accept, 1);
        assert_eq!(snap.shed_budget, 1);
        assert_eq!(snap.worker_panics, 1);
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.closed, 1);
        assert_eq!(snap.active, 1);
        assert_eq!(snap.checks_in_batches, 64);
        assert_eq!(snap.protocol_errors, 1);
        assert_eq!(snap.oversize, 1);
        let by_name = |name: &str| {
            snap.requests
                .iter()
                .find(|r| r.opcode == name)
                .map(|r| r.count)
        };
        assert_eq!(by_name("check"), Some(1));
        assert_eq!(by_name("batch_check"), Some(1));
        assert_eq!(by_name("ping"), Some(0));
        assert_eq!(snap.frame_bytes.count, 1);
        assert!(snap.batch_latency.mean() > 0);

        let metrics = tele.metrics();
        assert_eq!(metrics.get("server.requests.batch_check"), Some(1));
        assert_eq!(metrics.get("server.reactor.polls"), Some(2));
        assert_eq!(metrics.get("server.reactor.ready_events"), Some(5));
        assert_eq!(metrics.get("server.conn.active"), Some(1));
        assert_eq!(metrics.get("server.batch.checks"), Some(64));
        let frames = metrics.histogram("server.frame_bytes").unwrap();
        assert_eq!((frames.count, frames.max), (1, 512));
        let batches = metrics.histogram("server.batch.latency_ns").unwrap();
        assert_eq!(batches.sum, 3_000);
    }

    /// `^[a-z]+(\.[a-z0-9_]+)+$`: a lowercase root, then at least one
    /// dotted component of lowercase letters, digits and underscores.
    fn well_formed(name: &str) -> bool {
        let mut parts = name.split('.');
        let root = parts.next().unwrap_or_default();
        let rest: Vec<&str> = parts.collect();
        !root.is_empty()
            && root.bytes().all(|b| b.is_ascii_lowercase())
            && !rest.is_empty()
            && rest.iter().all(|part| {
                !part.is_empty()
                    && part
                        .bytes()
                        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
            })
    }

    /// Every name the monitor (with a pipeline attached and shadow mode
    /// on, so every optional family is present) and the server export is
    /// well formed and unique across both: `Metrics::set` refuses a name
    /// twice, and the counts below pin each source's families so that no
    /// two variants can share a name unnoticed.
    #[test]
    fn exported_names_are_unique_and_well_formed() {
        let lattice = Lattice::build(["low"], ["c0"]).unwrap();
        let monitor = MonitorBuilder::new(lattice).build();
        let dir = std::env::temp_dir().join(format!("extsec-metric-names-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pipeline = AuditPipeline::open_dir(&dir, PipelineConfig::default()).unwrap();
        monitor.attach_audit_pipeline(Arc::new(pipeline));
        let staged = monitor
            .stage_bundle("bundle \"names\" version 1 base current;\n")
            .unwrap();
        monitor.shadow_bundle(staged.id, true).unwrap();

        let mut metrics = monitor.metrics();
        let (monitor_values, monitor_histograms) = (metrics.values.len(), metrics.histograms.len());
        let server = ServerTelemetry::new().metrics();
        let (server_values, server_histograms) = (server.values.len(), server.histograms.len());
        metrics.extend(server);

        assert_eq!(
            metrics.values.len() + metrics.histograms.len(),
            monitor_values + monitor_histograms + server_values + server_histograms
        );
        assert_eq!(server_values, ServerCounter::COUNT + 1);
        assert_eq!(server_histograms, 2);
        let named = |prefix: &str| {
            metrics
                .values
                .keys()
                .filter(|n| n.starts_with(prefix))
                .count()
        };
        assert_eq!(named("audit.pipeline."), 16);
        assert_eq!(named("refmon.shadow."), 3);
        assert_eq!(named("audit.ring."), 3);
        for name in metrics.values.keys().chain(metrics.histograms.keys()) {
            assert!(well_formed(name), "malformed metric name {name:?}");
        }
        assert!(!well_formed("refmon"));
        assert!(!well_formed("refmon.stage.view-span_ns"));
        assert!(!well_formed("Refmon.mode"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
