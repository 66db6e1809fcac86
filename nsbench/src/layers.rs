//! The traced run's layer probes: calls into each crate's public
//! functions, timed from outside on the workload's own world once its
//! load has stopped. Nothing inside the program is instrumented. Each
//! probe runs [`ROUNDS`] rounds over the same seeded inputs and reports
//! the median round's per-op time. What a probe returned is checked
//! after its clock stops.

use crate::fixture::{spawn_server, ExtScaffold, Fixture};
use crate::gen::{self, Rng, Write};
use crate::stats::{self, Metric};
use crate::wire;
use extsec_core::ext::CallCtx;
use extsec_core::vm::{ImportDecl, Machine, SyscallHost};
use extsec_core::{AccessMode, Acl, AclEntry, Decision, Service, Subject, Value};
use extsec_server::proto::read_frame;
use extsec_server::{BatchItem, Client, Request, Response, MAX_FRAME};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

const ROUNDS: usize = 5;
/// Distinct (principal, leaf, mode) keys the in-process probes cycle.
const KEYS: usize = 1024;
/// Writes the write probes take from the seeded schedule: 36 grants and
/// revokes and 4 bundle cycles.
const WRITES: usize = 40;
/// Wire round trips per batch size and round.
const WIRE_TRIPS: usize = 64;

pub struct Probes {
    pub metrics: Vec<Metric>,
    pub violations: Vec<String>,
    pub specialized: u64,
    pub base: u64,
}

/// Median over [`ROUNDS`] of the per-op time of `round`, which runs
/// `ops` ops, in the unit `scale` converts nanoseconds to.
fn per_op(ops: usize, scale: f64, mut round: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            round();
            start.elapsed().as_nanos() as f64 / ops as f64 / scale
        })
        .collect();
    stats::median(&mut times)
}

fn median_us(samples: &[Duration]) -> f64 {
    let mut us: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    if us.is_empty() {
        return 0.0;
    }
    stats::median(&mut us)
}

/// Answers every syscall with 0: the extension body alone, no gate.
struct StubHost;

impl SyscallHost for StubHost {
    fn syscall(&mut self, _: &ImportDecl, _: &[Value]) -> Result<Option<Value>, String> {
        Ok(Some(Value::Int(0)))
    }
}

/// How long each step of the probe writes took.
#[derive(Default)]
struct WriteTimes {
    set_acl: Vec<Duration>,
    stage: Vec<Duration>,
    activate: Vec<Duration>,
    rollback: Vec<Duration>,
}

fn timed<T>(samples: &mut Vec<Duration>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    samples.push(start.elapsed());
    value
}

/// The probe writer's memory: which leaves hold an outstanding grant,
/// with the ACL to restore and the decision to expect back after the
/// revoke.
#[derive(Default)]
struct Writer {
    open: HashMap<u32, (Acl, Decision)>,
    bundles: u64,
}

impl Writer {
    /// Performs `write` as the administrator at the leaf's label, timing
    /// each mutation. Afterwards the writer's own check must see the
    /// write: a grant as the uncached oracle decides it, a revoke or a
    /// rolled-back bundle as before (no stale grant).
    fn run(&mut self, fx: &Fixture, write: Write, times: &mut WriteTimes) -> Result<(), String> {
        let world = &fx.world;
        let monitor = &world.monitor;
        let (Write::Grant { leaf, principal }
        | Write::Revoke { leaf, principal }
        | Write::Bundle { leaf, principal }) = write;
        let path = &world.leaves[leaf as usize];
        let subject = &fx.subjects[principal as usize];
        let prot = monitor
            .protection_of(path)
            .map_err(|e| format!("{path}: {e}"))?;
        let admin = world.admin_subject(&prot.label);
        let before = monitor.check(subject, path, AccessMode::Read);
        let expect = match write {
            Write::Grant { .. } => {
                let mut acl = prot.acl.clone();
                acl.push(AclEntry::allow_principal(
                    world.principals[principal as usize],
                    AccessMode::Read,
                ));
                timed(&mut times.set_acl, || monitor.set_acl(&admin, path, acl))
                    .map_err(|e| format!("grant on {path}: {e}"))?;
                self.open.insert(leaf, (prot.acl, before));
                None
            }
            Write::Revoke { .. } => {
                let (base, granted_before) = self
                    .open
                    .remove(&leaf)
                    .ok_or_else(|| format!("revoke on {path} without a grant"))?;
                timed(&mut times.set_acl, || monitor.set_acl(&admin, path, base))
                    .map_err(|e| format!("revoke on {path}: {e}"))?;
                Some(granted_before)
            }
            Write::Bundle { .. } => {
                self.bundles += 1;
                let n = self.bundles;
                let source = format!(
                    "bundle \"nsbench-{n}\" version {n} base current;\n\
                     acl-add {path} \"+p{principal}:r\";\n"
                );
                let staged = timed(&mut times.stage, || monitor.stage_bundle(&source))
                    .map_err(|e| format!("stage {source:?}: {e}"))?;
                timed(&mut times.activate, || monitor.activate_bundle(staged.id))
                    .map_err(|e| format!("activate: {e}"))?;
                timed(&mut times.rollback, || monitor.rollback())
                    .map_err(|e| format!("rollback: {e}"))?;
                Some(before)
            }
        };
        let after = monitor.check(subject, path, AccessMode::Read);
        let expect =
            expect.unwrap_or_else(|| monitor.check_unmemoized(subject, path, AccessMode::Read));
        if after != expect {
            return Err(format!(
                "{write:?}: {subject} on {path} reads {after:?} after the write, expected {expect:?}"
            ));
        }
        Ok(())
    }
}

const NS: f64 = 1.0;
const US: f64 = 1e3;

pub fn probe(fx: &mut Fixture, seed: u64) -> Probes {
    let mut p = Probes {
        metrics: Vec::new(),
        violations: Vec::new(),
        specialized: 0,
        base: 0,
    };
    if fx.ext.is_none() {
        match ExtScaffold::install(&fx.world) {
            Ok(ext) => fx.ext = Some(ext),
            Err(e) => p.violations.push(format!("probe extension: {e}")),
        }
    }
    if fx.server.is_none() {
        match spawn_server(&fx.world) {
            Ok(server) => fx.server = Some(server),
            Err(e) => p.violations.push(e),
        }
    }
    let fx = &*fx;
    let world = &fx.world;
    let monitor = &world.monitor;
    let shape = fx.shape();
    let mut rng = Rng::new(seed, 0x50);
    let keys: Vec<(Subject, usize, AccessMode)> = (0..KEYS)
        .map(|_| {
            let principal = rng.below(shape.principals);
            let leaf = rng.below(shape.leaves);
            let mode = [AccessMode::Read, AccessMode::Execute, AccessMode::Write][rng.below(3)];
            (world.subject(principal), leaf, mode)
        })
        .collect();
    let paths = &world.leaves;
    let mut m = |name: &'static str, value: f64, unit: &'static str| {
        p.metrics.push(Metric { name, value, unit });
    };

    m(
        "namespace.resolve_ns",
        per_op(KEYS, NS, || {
            monitor.inspect(|ns| {
                for (_, leaf, _) in &keys {
                    black_box(ns.resolve(&paths[*leaf]).ok());
                }
            })
        }),
        "ns",
    );
    let prots: Vec<_> = keys
        .iter()
        .map(|(_, leaf, _)| {
            monitor
                .protection_of(&paths[*leaf])
                .expect("generated leaf")
        })
        .collect();
    m(
        "acl.check_ns",
        per_op(KEYS, NS, || {
            monitor.directory(|dir| {
                for ((subject, _, mode), prot) in keys.iter().zip(&prots) {
                    black_box(prot.acl.check(dir, subject.principal, *mode));
                }
            })
        }),
        "ns",
    );
    m(
        "mac.dominates_ns",
        per_op(KEYS, NS, || {
            for ((subject, _, _), prot) in keys.iter().zip(&prots) {
                black_box(subject.class.dominates(&prot.label));
            }
        }),
        "ns",
    );
    let check_all = || {
        for (subject, leaf, mode) in &keys {
            black_box(monitor.check(subject, &paths[*leaf], *mode));
        }
    };
    check_all();
    m("refmon.check_hit_ns", per_op(KEYS, NS, check_all), "ns");
    m(
        "refmon.check_miss_ns",
        per_op(KEYS, NS, || {
            for (subject, leaf, mode) in &keys {
                black_box(monitor.check_unmemoized(subject, &paths[*leaf], *mode));
            }
        }),
        "ns",
    );

    let batches: Vec<wire::Req> = wire::resolve(fx, gen::wire_pool(seed, 99, shape, 256))
        .into_iter()
        .filter(|r| r.items.len() == 64)
        .take(16)
        .collect();
    let batch_subjects: Vec<Subject> = batches.iter().map(|r| world.subject(r.principal)).collect();
    m(
        "refmon.batch_check_us",
        per_op(batches.len(), US, || {
            for (req, subject) in batches.iter().zip(&batch_subjects) {
                black_box(monitor.check_batch(subject, &req.items));
            }
        }),
        "us",
    );

    // Writes from the seeded schedule, each checked for a stale grant.
    // The probes below see whatever grants the schedule leaves open.
    let mut writer = Writer::default();
    let mut times = WriteTimes::default();
    for write in gen::write_schedule(seed, shape, WRITES) {
        if let Err(e) = writer.run(fx, write, &mut times) {
            p.violations.push(format!("write probe: {e}"));
        }
    }
    m("refmon.set_acl_us", median_us(&times.set_acl), "us");
    m("refmon.bundle_stage_us", median_us(&times.stage), "us");
    m(
        "refmon.bundle_activate_us",
        median_us(&times.activate),
        "us",
    );
    m(
        "refmon.bundle_rollback_us",
        median_us(&times.rollback),
        "us",
    );

    if let Some(ext) = &fx.ext {
        let runtime = &world.runtime;
        let callers: Vec<(&Subject, bool)> = keys
            .iter()
            .map(|(subject, _, _)| (subject, subject.class.dominates(&ext.spec_class)))
            .collect();
        let (mut specialized, mut base, mut wrong) = (0u64, 0u64, Vec::new());
        m(
            "ext.call_us",
            per_op(KEYS, US, || {
                for &(subject, spec) in &callers {
                    match runtime.call(subject, &ext.interface, &[]) {
                        Ok(Some(Value::Int(v))) if (v < 0) == spec => {
                            *if spec { &mut specialized } else { &mut base } += 1;
                        }
                        other => wrong.push(format!("probe call as {subject}: {other:?}")),
                    }
                }
            }),
            "us",
        );
        m(
            "ext.run_us",
            per_op(KEYS, US, || {
                for (subject, _, _) in &keys {
                    if let Err(e) = runtime.run(ext.ext, "main", &[], subject) {
                        wrong.push(format!("probe run as {subject}: {e}"));
                    }
                }
            }),
            "us",
        );
        match runtime.extension(ext.ext) {
            Ok(loaded) => {
                let limits = runtime.machine_limits();
                m(
                    "vm.run_us",
                    per_op(KEYS, US, || {
                        for _ in 0..KEYS {
                            let mut machine = Machine::with_limits(&loaded.module, limits);
                            black_box(machine.run("main", &[], &mut StubHost).ok());
                        }
                    }),
                    "us",
                );
            }
            Err(e) => wrong.push(format!("probe extension: {e}")),
        }
        m(
            "services.base_call_us",
            per_op(KEYS, US, || {
                for (subject, _, _) in &keys {
                    let ctx = CallCtx {
                        subject,
                        monitor,
                        reenter: None,
                    };
                    black_box(ext.clock.invoke(&ctx, "ticks", &[]).ok());
                }
            }),
            "us",
        );
        p.specialized = specialized;
        p.base = base;
        p.violations.extend(wrong.into_iter().take(4));
    }

    if let Some(server) = &fx.server {
        let pool = wire::resolve(fx, gen::wire_pool(seed, 98, shape, 512));
        match Client::connect(server.local_addr(), wire::client_config()) {
            Ok(mut client) => {
                for (size, name) in [
                    (1, "server.rtt_b1_us"),
                    (16, "server.rtt_b16_us"),
                    (64, "server.rtt_b64_us"),
                ] {
                    let reqs: Vec<&wire::Req> = pool
                        .iter()
                        .filter(|r| r.items.len() == size)
                        .take(WIRE_TRIPS)
                        .collect();
                    let subjects: Vec<Subject> =
                        reqs.iter().map(|r| world.subject(r.principal)).collect();
                    let mut replies = Vec::with_capacity(reqs.len());
                    let rtt = per_op(reqs.len(), US, || {
                        replies.clear();
                        for (req, subject) in reqs.iter().zip(&subjects) {
                            replies.push(wire::send(&mut client, subject, req));
                        }
                    });
                    m(name, rtt, "us");
                    let mut errors = Vec::new();
                    for ((req, subject), reply) in reqs.iter().zip(&subjects).zip(replies) {
                        match reply {
                            Ok(decisions) => {
                                let local: Vec<Decision> = req
                                    .items
                                    .iter()
                                    .map(|(path, mode)| monitor.check(subject, path, *mode))
                                    .collect();
                                if local != decisions {
                                    errors.push(format!(
                                        "probe wire {size}: {decisions:?} vs {local:?}"
                                    ));
                                }
                            }
                            Err(e) => errors.push(format!("probe wire {size}: {e}")),
                        }
                    }
                    p.violations.extend(errors.into_iter().take(2));
                }
            }
            Err(e) => p.violations.push(format!("probe connect: {e}")),
        }
    }

    if let Some(req) = batches.first() {
        let subject = &batch_subjects[0];
        let request = Request::BatchCheck {
            subject: subject.clone(),
            items: req
                .items
                .iter()
                .map(|(path, mode)| BatchItem {
                    path: path.clone(),
                    mode: *mode,
                })
                .collect(),
        };
        m(
            "server.encode_ns",
            per_op(KEYS, NS, || {
                for _ in 0..KEYS {
                    black_box(request.encode());
                }
            }),
            "ns",
        );
        let bytes = Response::Batch(monitor.check_batch(subject, &req.items)).encode();
        match read_frame(&mut bytes.as_slice(), MAX_FRAME) {
            Ok(frame) => m(
                "server.decode_ns",
                per_op(KEYS, NS, || {
                    for _ in 0..KEYS {
                        black_box(Response::decode(frame.opcode, &frame.payload).ok());
                    }
                }),
                "ns",
            ),
            Err(e) => p.violations.push(format!("probe frame: {e:?}")),
        }
    }
    p
}
