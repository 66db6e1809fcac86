//! The run loop shared by the workloads: warm-up, the measured phase
//! (or the untraced and traced halves of a traced run), the end-of-run
//! correctness gate, and turning all of it into named metrics.

use crate::fixture::{nproc, Fixture};
use crate::layers;
use crate::stats::{self, Metric, Recorder, Timeline, Window};
use extsec_server::ServerTelemetrySnapshot;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Windows per measured phase; see [`Timeline`].
const WINDOWS: u32 = 20;

/// What one load phase measured.
pub struct PhaseOut {
    /// Ops completed: checks, calls and wire requests.
    pub ops: u64,
    /// Access decisions made; a batch item counts as one.
    pub decisions: u64,
    /// Ops that errored, were refused or decided wrongly.
    pub failed: u64,
    /// Why the first few failed ops failed.
    pub failures: Vec<String>,
    /// Per-window counts and latencies. `read` holds in-process checks,
    /// or every wire request in `wire_mix`; `heavy` holds extension
    /// calls or 64-item batches.
    pub timeline: Timeline,
    /// Extension calls answered by the specialization / the base service.
    pub specialized: u64,
    pub base: u64,
    /// `Busy` refusals seen by the wire clients.
    pub busy: u64,
}

impl PhaseOut {
    /// An empty phase on the clock starting at `start`.
    pub fn new(start: Instant, dur: Duration) -> PhaseOut {
        PhaseOut {
            ops: 0,
            decisions: 0,
            failed: 0,
            failures: Vec::new(),
            timeline: Timeline::new(start, dur, WINDOWS),
            specialized: 0,
            base: 0,
            busy: 0,
        }
    }

    /// Counts one op completed at `at` that made `decisions` decisions,
    /// and returns its window for the op's latency.
    pub fn done(&mut self, at: Instant, decisions: u64) -> &mut Window {
        self.ops += 1;
        self.decisions += decisions;
        let window = self.timeline.at(at);
        window.ops += 1;
        window.decisions += decisions;
        window
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 4 {
            self.failures.push(why);
        }
    }

    pub fn absorb(&mut self, other: PhaseOut) {
        self.ops += other.ops;
        self.decisions += other.decisions;
        self.failed += other.failed;
        for why in other.failures {
            if self.failures.len() < 4 {
                self.failures.push(why);
            }
        }
        self.timeline.absorb(other.timeline);
        self.specialized += other.specialized;
        self.base += other.base;
        self.busy += other.busy;
    }
}

/// A workload: a fixture plus a load that can run for a while.
pub trait Workload {
    fn fixture(&mut self) -> &mut Fixture;
    /// Drives the load closed loop for `dur` and reports what it saw.
    fn phase(&mut self, dur: Duration) -> PhaseOut;
}

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Lines for the human-readable summary on stderr.
    pub summary: Vec<String>,
}

struct Timed {
    out: PhaseOut,
    wall: Duration,
    cpu: Duration,
    /// Deepest audit queue the traced phase's sampler saw.
    queue_depth_max: u64,
}

/// How often the traced phase's sampler reads the audit queue depth.
const SAMPLE_EVERY: Duration = Duration::from_millis(1);

fn timed_phase(w: &mut dyn Workload, dur: Duration, traced: bool) -> Timed {
    let pipeline = w.fixture().audit.as_ref().map(|a| Arc::clone(&a.pipeline));
    let stop = AtomicBool::new(false);
    let cpu0 = stats::cpu_time();
    let start = Instant::now();
    let (out, wall, queue_depth_max) = std::thread::scope(|s| {
        let sampler = traced.then(|| {
            s.spawn(|| {
                let mut deepest = 0;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(SAMPLE_EVERY);
                    if let Some(p) = &pipeline {
                        deepest = deepest.max(p.stats().queue_depth);
                    }
                }
                deepest
            })
        });
        let out = w.phase(dur);
        let wall = start.elapsed();
        stop.store(true, Ordering::Relaxed);
        let deepest = sampler.map_or(0, |h| h.join().expect("sampler thread"));
        (out, wall, deepest)
    });
    Timed {
        out,
        wall,
        cpu: stats::cpu_time().saturating_sub(cpu0),
        queue_depth_max,
    }
}

/// Monotone counters read around the traced phase.
#[derive(Default)]
struct Counters {
    hits: u64,
    misses: u64,
    invalidations: u64,
    ring_dropped: u64,
    offered: u64,
    shed: u64,
    persisted: u64,
    server: ServerCounts,
}

#[derive(Default, Clone, Copy)]
struct ServerCounts {
    requests: u64,
    polls: u64,
    ready: u64,
    flushes: u64,
    busy: u64,
}

impl ServerCounts {
    fn of(snap: &ServerTelemetrySnapshot) -> ServerCounts {
        ServerCounts {
            requests: snap.requests.iter().map(|r| r.count).sum(),
            polls: snap.polls,
            ready: snap.ready_events,
            flushes: snap.flushes,
            busy: snap.shed_accept + snap.shed_budget,
        }
    }
}

impl Counters {
    fn read(fx: &Fixture) -> Counters {
        let monitor = &fx.world.monitor;
        let cache = monitor.cache_stats();
        let pipeline = monitor.audit_pipeline_stats().unwrap_or_default();
        Counters {
            hits: cache.hits,
            misses: cache.misses,
            invalidations: cache.invalidations,
            ring_dropped: monitor.audit_stats().ring_dropped,
            offered: pipeline.enqueued + pipeline.shed,
            shed: pipeline.shed,
            persisted: pipeline.persisted_events,
            server: fx.server.as_ref().map_or_else(ServerCounts::default, |s| {
                ServerCounts::of(&s.telemetry().snapshot())
            }),
        }
    }
}

/// The end-of-run gate: flush and verify the audit chain, check its
/// accounting, and shut the server down clean.
struct Finish {
    drain_lag_ms: f64,
    verify_ms: f64,
    violations: Vec<String>,
    server_end: Option<ServerCounts>,
}

fn finish(fx: &mut Fixture) -> Finish {
    let mut violations = Vec::new();
    let monitor = &fx.world.monitor;
    let t = Instant::now();
    let flushed = monitor.audit_flush();
    let drain_lag_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let verified = monitor.audit_verify();
    let verify_ms = t.elapsed().as_secs_f64() * 1e3;
    if fx.audit.is_some() {
        match (flushed, verified) {
            (Ok(()), Ok(report)) if report.ok => {}
            (Ok(()), Ok(report)) => {
                violations.push(format!("audit chain fails to verify: {report:?}"))
            }
            (f, v) => violations.push(format!("audit flush/verify failed: {f:?} / {:?}", v.err())),
        }
        let s = monitor.audit_pipeline_stats().unwrap_or_default();
        if s.enqueued != s.persisted_events + s.late_dropped {
            violations.push(format!(
                "audit accounting: enqueued {} != persisted {} + late-dropped {}",
                s.enqueued, s.persisted_events, s.late_dropped
            ));
        }
        if s.persisted_events + s.gap_missing != s.next_seq {
            violations.push(format!(
                "audit chain: persisted {} + gap-declared {} != next seq {}",
                s.persisted_events, s.gap_missing, s.next_seq
            ));
        }
    }
    let server_end = fx.server.take().map(|server| {
        let counts = ServerCounts::of(&server.telemetry().snapshot());
        let snap = server.shutdown();
        if snap.accepted != snap.closed || snap.protocol_errors != 0 || snap.worker_panics != 0 {
            violations.push(format!(
                "server: accepted {} closed {} protocol errors {} worker panics {}",
                snap.accepted, snap.closed, snap.protocol_errors, snap.worker_panics
            ));
        }
        counts
    });
    Finish {
        drain_lag_ms,
        verify_ms,
        violations,
        server_end,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics of one measured phase (`peak_rss_mib` is read
/// at the end of the run). Rates and latencies are scaled to the
/// reference speed window by window; see [`crate::calib`].
fn end_to_end(setup_s: f64, t: &Timed) -> Vec<Metric> {
    let tl = &t.out.timeline;
    let p = |pick: fn(&Window) -> &Recorder, p| tl.scaled_percentile_us(pick, p);
    vec![
        metric("setup_s", setup_s, "s"),
        metric("ops_per_ref_s", tl.scaled_rate(|w| w.ops), "1/ref_s"),
        metric(
            "decisions_per_ref_s",
            tl.scaled_rate(|w| w.decisions),
            "1/ref_s",
        ),
        metric("read_p50_ref_us", p(|w| &w.read, 50.0), "ref_us"),
        metric("read_p95_ref_us", p(|w| &w.read, 95.0), "ref_us"),
        metric("heavy_p50_ref_us", p(|w| &w.heavy, 50.0), "ref_us"),
        metric("heavy_p95_ref_us", p(|w| &w.heavy, 95.0), "ref_us"),
    ]
}

/// What the summary shows of an untraced phase besides its metrics:
/// the per-window rates and the samples behind the percentiles.
fn describe(t: &Timed) -> Vec<String> {
    let tl = &t.out.timeline;
    let rates: Vec<String> = tl
        .rates(|w| w.ops)
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect();
    let factors: Vec<String> = tl.factors().iter().map(|f| format!("{f:.2}")).collect();
    vec![
        format!("ops/s by window: {}", rates.join(" ")),
        format!("speed factor by window: {}", factors.join(" ")),
        format!(
            "samples: {} read, {} heavy",
            tl.count(|w| &w.read),
            tl.count(|w| &w.heavy)
        ),
    ]
}

/// Runs a workload end to end: warm-up, measurement, gate, metrics.
pub fn drive(w: &mut dyn Workload, setup_s: f64, args: &Args) -> Outcome {
    let seconds = Duration::from_secs(args.seconds);
    let warmup = (seconds / 5).min(Duration::from_secs(1));
    let (mut attempted, mut failed, mut failures) = (0, 0, Vec::new());
    let mut tally = |p: &PhaseOut| {
        attempted += p.ops;
        failed += p.failed;
        failures.extend(p.failures.iter().cloned());
    };
    tally(&w.phase(warmup));
    let mut violations = Vec::new();
    let (metrics, summary) = if args.trace {
        let untraced = timed_phase(w, seconds / 2, false);
        let before = Counters::read(w.fixture());
        let traced = timed_phase(w, seconds / 2, true);
        let after = Counters::read(w.fixture());
        let probes = layers::probe(w.fixture(), args.seed);
        let end = finish(w.fixture());
        violations.extend(probes.violations.iter().cloned());
        violations.extend(end.violations.iter().cloned());
        let metrics = per_layer(
            &untraced,
            &traced,
            &before,
            &after,
            &probes,
            &end,
            w.fixture(),
        );
        tally(&untraced.out);
        tally(&traced.out);
        let mut summary = vec!["untraced half:".to_string()];
        for m in end_to_end(setup_s, &untraced) {
            summary.push(format!("  {:<26} {:>14.4} {}", m.name, m.value, m.unit));
        }
        summary.extend(describe(&untraced));
        (metrics, summary)
    } else {
        let measured = timed_phase(w, seconds, false);
        let end = finish(w.fixture());
        violations.extend(end.violations);
        let mut metrics = end_to_end(setup_s, &measured);
        metrics.push(metric("peak_rss_mib", stats::peak_rss_mib(), "MiB"));
        tally(&measured.out);
        (metrics, describe(&measured))
    };
    if failed > 0 {
        failures.truncate(4);
        violations.push(format!(
            "{failed} ops failed, first: {}",
            failures.join(" | ")
        ));
    }
    Outcome {
        attempted,
        failed,
        violations,
        metrics,
        summary,
    }
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    untraced: &Timed,
    traced: &Timed,
    before: &Counters,
    after: &Counters,
    probes: &layers::Probes,
    end: &Finish,
    fx: &Fixture,
) -> Vec<Metric> {
    let t = &traced.out;
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    // The server may have been spawned by the probes, after `before`
    // was read; then `before.server` is all zeros.
    let (server_before, server) = (before.server, end.server_end.unwrap_or_default());
    let requests = server.requests - server_before.requests;
    let polls = server.polls - server_before.polls;
    let quarantines = fx
        .ext
        .as_ref()
        .map_or(0, |_| fx.world.runtime.health().quarantined_count());
    let untraced_tl = &untraced.out.timeline;
    let mut metrics = probes.metrics.clone();
    metrics.extend([
        metric("bench.ops_per_s", untraced_tl.rate(|w| w.ops), "1/s"),
        metric(
            "bench.decisions_per_s",
            untraced_tl.rate(|w| w.decisions),
            "1/s",
        ),
        metric(
            "bench.read_p99_ref_us",
            untraced_tl.scaled_percentile_us(|w| &w.read, 99.0),
            "ref_us",
        ),
        metric(
            "bench.heavy_p99_ref_us",
            untraced_tl.scaled_percentile_us(|w| &w.heavy, 99.0),
            "ref_us",
        ),
        metric(
            "bench.speed_factor",
            stats::median(&mut untraced_tl.factors()),
            "ratio",
        ),
        metric(
            "refmon.cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        metric(
            "refmon.cache_invalidations",
            (after.invalidations - before.invalidations) as f64,
            "count",
        ),
        metric(
            "refmon.audit_ring_dropped",
            (after.ring_dropped - before.ring_dropped) as f64,
            "count",
        ),
        metric(
            "auditlog.offered",
            (after.offered - before.offered) as f64,
            "count",
        ),
        metric("auditlog.shed", (after.shed - before.shed) as f64, "count"),
        metric(
            "auditlog.shed_ratio",
            ratio(after.shed - before.shed, after.offered - before.offered),
            "ratio",
        ),
        metric(
            "auditlog.persisted",
            (after.persisted - before.persisted) as f64,
            "count",
        ),
        metric(
            "auditlog.queue_depth_max",
            traced.queue_depth_max as f64,
            "count",
        ),
        metric("auditlog.drain_lag_ms", end.drain_lag_ms, "ms"),
        metric("auditlog.verify_ms", end.verify_ms, "ms"),
        metric(
            "ext.dispatch_specialized",
            (t.specialized + probes.specialized) as f64,
            "count",
        ),
        metric("ext.dispatch_base", (t.base + probes.base) as f64, "count"),
        metric("ext.quarantines", quarantines as f64, "count"),
        metric("server.polls_per_request", ratio(polls, requests), "ratio"),
        metric(
            "server.ready_per_poll",
            ratio(server.ready - server_before.ready, polls),
            "ratio",
        ),
        metric(
            "server.flushes_per_response",
            ratio(server.flushes - server_before.flushes, requests),
            "ratio",
        ),
        metric(
            "server.busy_refusals",
            (server.busy - server_before.busy + t.busy) as f64,
            "count",
        ),
        metric(
            "bench.trace_overhead_ratio",
            t.timeline.scaled_rate(|w| w.ops) / untraced_tl.scaled_rate(|w| w.ops),
            "ratio",
        ),
        metric(
            "bench.cpu_busy_ratio",
            traced.cpu.as_secs_f64() / (traced.wall.as_secs_f64() * nproc() as f64),
            "ratio",
        ),
    ]);
    metrics
}
