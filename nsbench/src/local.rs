//! `local_mix`: in-process, closed loop, one caller thread per core.
//! About 90 % Zipf-skewed `ReferenceMonitor::check`s and 10 %
//! `ExtRuntime::call`s on the extensible clock interface, with the audit
//! ring on and the persistent audit pipeline attached.

use crate::fixture::{nproc, Fixture, Parts};
use crate::gen::{self, Op, OpKind};
use crate::run::{PhaseOut, Workload};
use extsec_core::Value;
use std::time::{Duration, Instant};

/// Ops per caller stream; a caller cycles its stream.
const STREAM_LEN: usize = 1 << 20;
/// Every `ORACLE_EVERY`th check is compared with `check_unmemoized`.
const ORACLE_EVERY: u64 = 512;

pub struct Local {
    fx: Fixture,
    streams: Vec<Vec<Op>>,
    cursors: Vec<usize>,
}

impl Local {
    pub fn setup(seed: u64) -> Result<(Local, f64), String> {
        let parts = Parts {
            audit: true,
            ext: true,
            server: false,
        };
        let (fx, setup_s) = Fixture::timed(seed, parts)?;
        let shape = fx.shape();
        let streams: Vec<Vec<Op>> = (0..nproc())
            .map(|t| gen::local_stream(seed, t, shape, STREAM_LEN))
            .collect();
        let local = Local {
            cursors: vec![0; streams.len()],
            streams,
            fx,
        };
        Ok((local, setup_s))
    }
}

impl Workload for Local {
    fn fixture(&mut self) -> &mut Fixture {
        &mut self.fx
    }

    fn phase(&mut self, dur: Duration) -> PhaseOut {
        let start = Instant::now();
        let fx = &self.fx;
        let outs: Vec<(PhaseOut, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .streams
                .iter()
                .zip(&self.cursors)
                .map(|(ops, &cursor)| s.spawn(move || caller(fx, ops, cursor, start, dur)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread"))
                .collect()
        });
        let mut out = PhaseOut::new(start, dur);
        for ((part, cursor), slot) in outs.into_iter().zip(&mut self.cursors) {
            out.absorb(part);
            *slot = cursor;
        }
        out
    }
}

fn caller(
    fx: &Fixture,
    ops: &[Op],
    mut cursor: usize,
    start: Instant,
    dur: Duration,
) -> (PhaseOut, usize) {
    let monitor = &fx.world.monitor;
    let leaves = &fx.world.leaves;
    let scaffold = fx.ext.as_ref().expect("local_mix installs the extension");
    let until = start + dur;
    let mut out = PhaseOut::new(start, dur);
    let mut checks = 0u64;
    loop {
        let op = ops[cursor % ops.len()];
        cursor += 1;
        let subject = &fx.subjects[op.principal as usize];
        let begin = Instant::now();
        let end = match op.kind {
            OpKind::Check => {
                let path = &leaves[op.leaf as usize];
                let decision = monitor.check(subject, path, op.mode);
                let end = Instant::now();
                out.done(end, 1).read.record(end - begin);
                checks += 1;
                if checks.is_multiple_of(ORACLE_EVERY) {
                    let oracle = monitor.check_unmemoized(subject, path, op.mode);
                    if oracle != decision {
                        out.fail(format!(
                            "check {subject} {path} {:?}: cached {decision:?}, oracle {oracle:?}",
                            op.mode
                        ));
                    }
                }
                end
            }
            OpKind::Call => {
                let result = fx.world.runtime.call(subject, &scaffold.interface, &[]);
                let end = Instant::now();
                out.done(end, 1).heavy.record(end - begin);
                let specialized = subject.class.dominates(&scaffold.spec_class);
                match result {
                    Ok(Some(Value::Int(v))) if (v < 0) == specialized => {
                        if specialized {
                            out.specialized += 1;
                        } else {
                            out.base += 1;
                        }
                    }
                    other => out.fail(format!(
                        "call {} as {subject} (specialized: {specialized}): {other:?}",
                        scaffold.interface
                    )),
                }
                end
            }
        };
        if end >= until {
            return (out, cursor);
        }
    }
}
