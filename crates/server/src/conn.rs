//! Per-connection state machine for the reactor server.
//!
//! A connection is no longer a blocking loop owned by one worker thread
//! (the pre-reactor design): it is a small state machine driven by
//! readiness events from its shard's poller (see [`crate::reactor`]).
//! Each turn the shard hands the machine the readiness it observed and
//! the machine makes whatever progress the socket allows without ever
//! blocking: it reassembles frames from a reused read buffer, dispatches
//! every complete request, coalesces all the replies into one write
//! buffer, and flushes them with a single `write` per turn.
//!
//! The error discipline is unchanged from the blocking server — it is
//! the protocol's security story in miniature:
//!
//! - malformed bytes (bad version, bad opcode, truncated or oversize
//!   frames, garbage payloads) produce one `Error` response (best
//!   effort) and close the connection — a peer that cannot frame
//!   correctly cannot be trusted to resynchronize;
//! - *semantic* refusals (batch over the operational limit, a subject
//!   class foreign to the lattice, a denied `list`) answer with an
//!   `Error` response and keep the connection open — the frame itself
//!   was well-formed;
//! - every exit path, including panics in decode or dispatch, funnels
//!   through the shard's single close path, so the open/closed
//!   connection accounting can never leak a slot.
//!
//! Closing after a refusal is still graceful: the final reply is
//! flushed, the write side is half-closed, and a bounded amount of
//! whatever the peer keeps sending is drained so the kernel does not
//! destroy the in-flight reply with an RST.

use crate::proto::{
    self, ErrorCode, FrameScan, ProtoError, Request, Response, WireMessage, HEADER_LEN,
};
use crate::server::ServerConfig;
use crate::telemetry::{ServerCounter, ServerTelemetry};
use extsec_refmon::{
    AuditAccessError, BundleError, MonitorError, MonitorView, ReferenceMonitor, Subject,
};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// Pending-write backlog at which request parsing pauses (and read
/// interest drops) until the peer drains some of it — the backpressure
/// valve against a client that pipelines faster than it reads.
const WRITE_HIGH_WATER: usize = 256 * 1024;

/// Capacity either per-connection buffer may keep across frames. The
/// buffers are reused from frame to frame (no per-frame allocation);
/// the clamp releases the memory a one-off giant frame or reply
/// inflated, so it is not pinned for the connection's lifetime. The
/// client's send buffer keeps the same clamp.
pub(crate) const BUF_CLAMP: usize = 64 * 1024;

/// Bytes read from one connection per readiness turn. Level-triggered
/// polling re-reports whatever remains, so this bounds how long one
/// noisy connection can monopolize its shard — fairness, not a limit.
const READ_BUDGET: usize = 256 * 1024;

/// Read chunk size (the granularity the read buffer grows by). The
/// client reads in the same chunks.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Hostile bytes drained after a final refusal before the RST is let
/// through after all.
const DRAIN_BUDGET: usize = 32 * 1024;

/// How long a refused connection may linger in the drain state.
const DRAIN_TIMEOUT: Duration = Duration::from_millis(200);

/// Dispatch context a shard lends the state machine for one turn.
pub(crate) struct Ctx<'a> {
    pub(crate) monitor: &'a ReferenceMonitor,
    pub(crate) tele: &'a ServerTelemetry,
    pub(crate) config: &'a ServerConfig,
}

/// What a connection is currently doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Reading requests and queueing replies.
    Serving,
    /// The peer half-closed cleanly; flush the queued replies, then
    /// close.
    Flushing,
    /// A final reply (error or busy) is queued: flush it, half-close the
    /// write side, drain a bounded amount of input, then close.
    Draining {
        /// Whether the write side has been shut down yet (it is, as soon
        /// as the final reply is fully flushed).
        shut: bool,
        /// Drain budget remaining, bytes.
        remaining: usize,
    },
}

/// Which deadline is armed, so a timer that fires is counted correctly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DeadlineKind {
    /// Mid-frame silence (the peer stalled inside a frame).
    Read,
    /// A pending reply the peer will not drain.
    Write,
    /// The bounded post-refusal drain window.
    Drain,
}

impl DeadlineKind {
    /// Whether a fired deadline of this kind counts as a timeout (the
    /// drain window expiring is the plan, not a failure).
    pub(crate) fn is_timeout(self) -> bool {
        !matches!(self, DeadlineKind::Drain)
    }
}

/// What the shard should do with the connection after a turn.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Turn {
    /// Keep it registered; interest and deadline fields are current.
    Keep,
    /// Close it (the shard's close funnel does the accounting).
    Close,
}

/// How far frame processing got through the buffered bytes.
#[derive(Debug, PartialEq, Eq)]
enum Parsed {
    /// The buffer holds (at most) a frame prefix; more bytes are needed.
    NeedMore,
    /// Paused at the write high-watermark with complete frames still
    /// buffered; resumes when the backlog drains.
    Paused,
    /// The phase changed (refusal or shed); stop reading input.
    Transitioned,
}

/// One connection's entire state: socket, reassembly and reply buffers,
/// request budget, phase, and the posture (interest + deadline) its
/// shard mirrors into the poller and timer wheel.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    /// Reassembly buffer; unparsed bytes live at `rbuf[rpos..rend]`.
    /// Its length is the part already zeroed, which reads reuse, so a
    /// read zeroes nothing unless the buffer grows.
    rbuf: Vec<u8>,
    rpos: usize,
    rend: usize,
    /// Coalesced replies; unsent bytes live at `wbuf[wpos..]`.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Replies queued since the last counted flush.
    unflushed: u64,
    served: u64,
    phase: Phase,
    /// The peer's read side is done (clean EOF observed).
    eof: bool,
    /// Desired poller interest, recomputed each turn.
    pub(crate) want_read: bool,
    pub(crate) want_write: bool,
    /// Interest actually registered with the poller (shard-maintained).
    pub(crate) reg_read: bool,
    pub(crate) reg_write: bool,
    /// Armed deadline, if any. `timer_seq` bumps whenever it changes, so
    /// stale wheel entries are recognized and skipped (lazy cancel).
    pub(crate) deadline: Option<(Instant, DeadlineKind)>,
    pub(crate) timer_seq: u64,
    /// The seq the shard last inserted into its wheel.
    pub(crate) armed_seq: u64,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            rend: 0,
            wbuf: Vec::new(),
            wpos: 0,
            unflushed: 0,
            served: 0,
            phase: Phase::Serving,
            eof: false,
            want_read: true,
            want_write: false,
            reg_read: true,
            reg_write: false,
            deadline: None,
            timer_seq: 0,
            armed_seq: 0,
        }
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn buffered_input(&self) -> usize {
        self.rend - self.rpos
    }

    /// One readiness turn: flush a backlog the socket can take again,
    /// consume what it offers, dispatch every complete frame, flush the
    /// replies, and recompute the posture. Never blocks.
    ///
    /// Replies leave in the turn that queued them, so write interest is
    /// registered only while the socket refuses bytes: a request costs
    /// one wait, one read and one write.
    pub(crate) fn drive(&mut self, readable: bool, writable: bool, ctx: &Ctx<'_>) -> Turn {
        let mut wrote = false;
        if writable && self.pending_write() > 0 && self.flush(ctx, &mut wrote).is_err() {
            return Turn::Close;
        }
        let mut read_any = false;
        let turn = match self.phase {
            Phase::Serving => self.serve_input(readable, ctx, &mut read_any, &mut wrote),
            Phase::Flushing => Turn::Keep,
            Phase::Draining { .. } => self.drain_input(readable),
        };
        if turn == Turn::Close {
            return Turn::Close;
        }
        // Send what this turn queued. A final refusal usually completes
        // here, arming the drain window at once.
        if self.pending_write() > 0 && self.flush(ctx, &mut wrote).is_err() {
            return Turn::Close;
        }
        // Done once the last reply is out after the peer's EOF: neither
        // phase registers interest that would bring another turn.
        let finished = match self.phase {
            Phase::Serving => false,
            Phase::Flushing => true,
            Phase::Draining { .. } => self.eof,
        };
        if finished && self.pending_write() == 0 {
            return Turn::Close;
        }
        self.posture(read_any, wrote);
        Turn::Keep
    }

    /// Parse buffered bytes, read more if the turn offered readability,
    /// and dispatch every complete frame.
    fn serve_input(
        &mut self,
        mut readable: bool,
        ctx: &Ctx<'_>,
        read_any: &mut bool,
        wrote: &mut bool,
    ) -> Turn {
        let mut budget = READ_BUDGET;
        readable = readable && !self.eof;
        loop {
            match self.process_buffered(ctx) {
                Parsed::Transitioned => return Turn::Keep,
                Parsed::Paused => return Turn::Keep,
                Parsed::NeedMore => {}
            }
            if !readable || budget == 0 {
                return Turn::Keep;
            }
            let chunk = self.rend..self.rend + READ_CHUNK;
            if self.rbuf.len() < chunk.end {
                self.rbuf.resize(chunk.end, 0);
            }
            match self.stream.read(&mut self.rbuf[chunk]) {
                Ok(0) => {
                    self.eof = true;
                    return if self.buffered_input() > 0 {
                        // The peer died mid-frame: a protocol violation,
                        // answered and closed like any other.
                        ctx.tele.count(ServerCounter::ProtocolErrors);
                        self.refuse(ErrorCode::Protocol, ProtoError::Truncated.to_string());
                        // Flush happens in `drive`'s epilogue; the drain
                        // window then sees the EOF and closes.
                        Turn::Keep
                    } else if self.pending_write() > 0 {
                        self.phase = Phase::Flushing;
                        Turn::Keep
                    } else {
                        Turn::Close
                    };
                }
                Ok(n) => {
                    self.rend += n;
                    budget = budget.saturating_sub(n);
                    *read_any = true;
                    // A short read took everything the socket held; the
                    // next read would only block. Level-triggered polling
                    // reports whatever arrives later.
                    if n < READ_CHUNK {
                        readable = false;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    readable = false;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    ctx.tele.count(ServerCounter::IoErrors);
                    return Turn::Close;
                }
            }
            // Opportunistic flush between parse rounds keeps the reply
            // pipeline moving for heavily pipelined peers.
            if self.pending_write() >= WRITE_HIGH_WATER && self.flush(ctx, wrote).is_err() {
                return Turn::Close;
            }
        }
    }

    /// Dispatch every complete frame at the front of the read buffer.
    fn process_buffered(&mut self, ctx: &Ctx<'_>) -> Parsed {
        loop {
            if self.pending_write() >= WRITE_HIGH_WATER {
                return Parsed::Paused;
            }
            match proto::scan_frame(&self.rbuf[self.rpos..self.rend], ctx.config.max_frame) {
                Ok(FrameScan::Partial { .. }) => {
                    self.compact(ctx);
                    return Parsed::NeedMore;
                }
                Ok(FrameScan::Complete {
                    opcode,
                    payload_start,
                    consumed,
                }) => {
                    let payload = self.rpos + payload_start..self.rpos + consumed;
                    self.rpos += consumed;
                    if self.handle_frame(opcode, payload, ctx) {
                        return Parsed::Transitioned;
                    }
                }
                Err(e) => {
                    ctx.tele.count(ServerCounter::ProtocolErrors);
                    let code = match e {
                        ProtoError::BadVersion(_) => ErrorCode::Version,
                        ProtoError::BadOpcode(_) => ErrorCode::Opcode,
                        ProtoError::Oversize(_) => {
                            ctx.tele.count(ServerCounter::Oversize);
                            ErrorCode::Oversize
                        }
                        _ => ErrorCode::Protocol,
                    };
                    self.refuse(code, e.to_string());
                    return Parsed::Transitioned;
                }
            }
        }
    }

    /// One well-framed request: budget, fault injection, dispatch.
    /// Returns true when the connection transitioned out of `Serving`.
    fn handle_frame(&mut self, opcode: u8, payload: std::ops::Range<usize>, ctx: &Ctx<'_>) -> bool {
        ctx.tele
            .frame_bytes
            .record((payload.len() + HEADER_LEN) as u64);
        // Graceful degradation: a connection that exhausts its request
        // budget is shed with a typed Busy answer, not starved silently.
        if self.served >= ctx.config.conn_request_budget {
            ctx.tele.count(ServerCounter::ShedBudget);
            let busy = Response::Busy {
                retry_after_ms: ctx.config.shed_retry_after.as_millis() as u64,
            };
            self.enqueue(&busy);
            self.enter_drain();
            return true;
        }
        self.served += 1;
        // Injected connection faults fail closed: an Error/Trap answer
        // plus a close; a Panic unwinds into the shard's containment
        // (the close funnel still accounts the slot).
        if let Some(fault) = extsec_faults::fire_panicky("server.conn") {
            ctx.tele.count(ServerCounter::IoErrors);
            self.enqueue(&error(ErrorCode::Internal, fault.to_string()));
            self.enter_drain();
            return true;
        }
        match handle(opcode, &self.rbuf[payload], ctx) {
            Ok(response) => {
                self.enqueue(&response);
                false
            }
            Err(e) => {
                // The frame was framed correctly but its payload was not:
                // answer, then drop the peer like any protocol violator.
                ctx.tele.count(ServerCounter::ProtocolErrors);
                let code = match e {
                    ProtoError::BadOpcode(_) => ErrorCode::Opcode,
                    _ => ErrorCode::Protocol,
                };
                self.refuse(code, e.to_string());
                true
            }
        }
    }

    /// Encode one response behind the ones already pending.
    fn enqueue(&mut self, response: &Response) {
        response.encode_into(&mut self.wbuf);
        self.unflushed += 1;
    }

    /// Queue a final error reply and enter the graceful-refusal drain.
    fn refuse(&mut self, code: ErrorCode, message: String) {
        self.enqueue(&error(code, message));
        self.enter_drain();
    }

    fn enter_drain(&mut self) {
        self.phase = Phase::Draining {
            shut: false,
            remaining: DRAIN_BUDGET,
        };
        // Whatever the peer already pipelined is not getting answered;
        // it only counts against the drain budget.
        self.discard_input();
    }

    fn discard_input(&mut self) {
        self.rpos = 0;
        self.rend = 0;
    }

    /// Read-and-discard during the post-refusal drain window.
    fn drain_input(&mut self, readable: bool) -> Turn {
        let Phase::Draining { remaining, .. } = &mut self.phase else {
            return Turn::Keep;
        };
        if !readable || self.eof {
            return Turn::Keep;
        }
        let mut sink = [0u8; 4096];
        loop {
            match self.stream.read(&mut sink) {
                Ok(0) => {
                    self.eof = true;
                    return if self.pending_write() == 0 {
                        Turn::Close
                    } else {
                        Turn::Keep
                    };
                }
                Ok(n) => {
                    if n >= *remaining {
                        // Budget exhausted: the peer gets its RST after
                        // all.
                        return Turn::Close;
                    }
                    *remaining -= n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Turn::Keep,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Turn::Close,
            }
        }
    }

    /// Write as much of the pending reply bytes as the socket takes —
    /// the single coalesced flush per turn. Completing the flush while
    /// draining half-closes the write side so the final reply arrives as
    /// a readable answer followed by a clean EOF, not an RST.
    fn flush(&mut self, ctx: &Ctx<'_>, wrote: &mut bool) -> Result<(), ()> {
        while self.pending_write() > 0 {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    ctx.tele.count(ServerCounter::IoErrors);
                    return Err(());
                }
                Ok(n) => {
                    self.wpos += n;
                    *wrote = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    ctx.tele.count(ServerCounter::IoErrors);
                    return Err(());
                }
            }
        }
        if *wrote && self.unflushed > 0 {
            ctx.tele.count(ServerCounter::Flushes);
            ctx.tele
                .add(ServerCounter::FlushedResponses, self.unflushed);
            self.unflushed = 0;
        }
        if self.pending_write() == 0 {
            self.wpos = 0;
            self.wbuf.clear();
            if self.wbuf.capacity() > BUF_CLAMP {
                self.wbuf.shrink_to(BUF_CLAMP);
                ctx.tele.count(ServerCounter::BufShrinks);
            }
            if let Phase::Draining { shut, .. } = &mut self.phase {
                if !*shut {
                    *shut = true;
                    let _ = self.stream.shutdown(Shutdown::Write);
                }
            }
        }
        Ok(())
    }

    /// Reclaim the read buffer: drop the consumed prefix and release
    /// capacity a giant frame pinned once the remainder fits the clamp.
    fn compact(&mut self, ctx: &Ctx<'_>) {
        if self.rpos > 0 {
            self.rbuf.copy_within(self.rpos..self.rend, 0);
            self.rend -= self.rpos;
            self.rpos = 0;
        }
        if self.rbuf.capacity() > BUF_CLAMP && self.rend <= BUF_CLAMP {
            self.rbuf.truncate(BUF_CLAMP);
            self.rbuf.shrink_to(BUF_CLAMP);
            ctx.tele.count(ServerCounter::BufShrinks);
        }
    }

    /// Recompute the interest set and deadline for the turn that just
    /// ended. The shard mirrors any change into its poller and wheel.
    fn posture(&mut self, read_progress: bool, write_progress: bool) {
        self.want_write = self.pending_write() > 0;
        self.want_read = match self.phase {
            Phase::Serving => !self.eof && self.pending_write() < WRITE_HIGH_WATER,
            Phase::Flushing => false,
            Phase::Draining { .. } => !self.eof,
        };
        let desired: Option<DeadlineKind> = if matches!(self.phase, Phase::Draining { .. }) {
            Some(DeadlineKind::Drain)
        } else if self.pending_write() > 0 {
            Some(DeadlineKind::Write)
        } else if matches!(self.phase, Phase::Serving) && self.buffered_input() > 0 {
            // A partial frame is sitting in the buffer: the peer must
            // finish it within the read timeout.
            Some(DeadlineKind::Read)
        } else {
            None
        };
        let current = self.deadline.map(|(_, kind)| kind);
        let progressed = match desired {
            Some(DeadlineKind::Read) => read_progress,
            Some(DeadlineKind::Write) => write_progress,
            Some(DeadlineKind::Drain) => false,
            None => false,
        };
        if desired != current || progressed {
            self.set_deadline(desired);
        }
    }

    /// The deadline horizon for `kind`, measured from now.
    pub(crate) fn deadline_after(kind: DeadlineKind, config: &ServerConfig) -> Duration {
        match kind {
            DeadlineKind::Read => config.read_timeout,
            DeadlineKind::Write => config.write_timeout,
            DeadlineKind::Drain => DRAIN_TIMEOUT,
        }
    }

    fn set_deadline(&mut self, kind: Option<DeadlineKind>) {
        self.timer_seq += 1;
        // The instant is filled by the shard (it owns "now" for the
        // wheel); store the kind with a placeholder refreshed on arm.
        self.deadline = kind.map(|k| (Instant::now(), k));
    }

    /// Best-effort final flush at server shutdown (never blocks).
    pub(crate) fn final_flush(&mut self) {
        if self.pending_write() > 0 {
            let _ = self.stream.write(&self.wbuf[self.wpos..]);
        }
    }
}

/// Decodes and dispatches one well-framed request.
fn handle(opcode: u8, payload: &[u8], ctx: &Ctx<'_>) -> Result<Response, ProtoError> {
    let monitor = ctx.monitor;
    let request = Request::decode(opcode, payload)?;
    ctx.tele.count(ServerCounter::Request(request.opcode()));
    Ok(match request {
        Request::Ping => Response::Pong,
        Request::Check {
            subject,
            path,
            mode,
        } => monitor.view(|view| match validate_subject(view, &subject) {
            Some(refusal) => refusal,
            None => Response::Decision(view.check(&subject, &path, mode)),
        }),
        Request::BatchCheck { subject, items } => {
            if items.len() > ctx.config.max_batch {
                return Ok(error(
                    ErrorCode::BatchTooLarge,
                    format!(
                        "batch of {} exceeds the server limit of {}",
                        items.len(),
                        ctx.config.max_batch
                    ),
                ));
            }
            let started = Instant::now();
            // The point of batching: one view, one subject validation,
            // then every item checked where it lies, in order, against
            // the same immutable policy state.
            monitor.view(|view| {
                if let Some(refusal) = validate_subject(view, &subject) {
                    return refusal;
                }
                let decisions = items
                    .iter()
                    .map(|item| view.check(&subject, &item.path, item.mode))
                    .collect();
                ctx.tele
                    .add(ServerCounter::BatchedChecks, items.len() as u64);
                let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                ctx.tele.batch_latency_ns.record(elapsed);
                Response::Batch(decisions)
            })
        }
        Request::List { subject, path } => {
            monitor.view(|view| match validate_subject(view, &subject) {
                Some(refusal) => refusal,
                None => match view.list(&subject, &path) {
                    Ok(names) => Response::Listing(names),
                    Err(MonitorError::Denied(reason)) => {
                        error(ErrorCode::Denied, format!("denied: {reason}"))
                    }
                    Err(e) => error(ErrorCode::Denied, e.to_string()),
                },
            })
        }
        Request::Explain {
            subject,
            path,
            mode,
        } => monitor.view(|view| match validate_subject(view, &subject) {
            Some(refusal) => refusal,
            None => {
                let explanation = view.explain(&subject, &path, mode);
                match serde_json::to_string(&explanation) {
                    Ok(json) => Response::Explanation(json),
                    Err(e) => error(ErrorCode::Internal, e.to_string()),
                }
            }
        }),
        Request::Telemetry => {
            let mut metrics = monitor.metrics();
            metrics.extend(ctx.tele.metrics());
            match serde_json::to_string(&metrics) {
                Ok(json) => Response::Telemetry(json),
                Err(e) => error(ErrorCode::Internal, e.to_string()),
            }
        }
        // The bundle admin set. Refusals are semantic (the frame itself
        // was well-formed), so the connection stays open — an operator
        // fixing a bundle should not have to reconnect per attempt.
        Request::LoadBundle { source } => match monitor.stage_bundle(&source) {
            Ok(staged) => Response::BundleStaged {
                bundle: staged.id,
                base: staged.base,
            },
            Err(e) => bundle_error(&e),
        },
        Request::Activate { bundle } => match monitor.activate_bundle(bundle) {
            Ok(generation) => Response::BundleAck { generation },
            Err(e) => bundle_error(&e),
        },
        Request::Shadow { bundle, on } => match monitor.shadow_bundle(bundle, on) {
            Ok(generation) => Response::BundleAck { generation },
            Err(e) => bundle_error(&e),
        },
        Request::Rollback => match monitor.rollback() {
            Ok(generation) => Response::BundleAck { generation },
            Err(e) => bundle_error(&e),
        },
        Request::BundleStatus => match serde_json::to_string(&monitor.bundle_status()) {
            Ok(json) => Response::BundleStatus(json),
            Err(e) => error(ErrorCode::Internal, e.to_string()),
        },
        // The audit admin pair. Refusals are semantic — a server without
        // an attached pipeline answers with a typed `AuditUnavailable`
        // and the connection stays open. Both calls flush the drainer
        // first (inside the monitor), so an answer covers everything
        // recorded before the request arrived.
        Request::AuditQuery { query } => match monitor.audit_query(&query) {
            Ok(result) => Response::AuditEvents(result),
            Err(e) => audit_error(&e),
        },
        Request::AuditVerify => match monitor.audit_verify() {
            Ok(mut report) => {
                report.cap_segments(proto::MAX_AUDIT_SEGMENTS);
                match serde_json::to_string(&report) {
                    Ok(json) => Response::AuditReport(json),
                    Err(e) => error(ErrorCode::Internal, e.to_string()),
                }
            }
            Err(e) => audit_error(&e),
        },
    })
}

/// Maps an audit refusal to its typed wire error: a server with no
/// pipeline attached gets its own code so clients can distinguish "not
/// configured" from a failing store.
fn audit_error(e: &AuditAccessError) -> Response {
    let code = match e {
        AuditAccessError::Unattached => ErrorCode::AuditUnavailable,
        AuditAccessError::Io(_) => ErrorCode::Internal,
    };
    error(code, e.to_string())
}

/// Maps a bundle refusal to its typed wire error: base-generation races
/// get their own code so clients can restage-and-retry mechanically;
/// everything else is a bundle the operator must fix.
fn bundle_error(e: &BundleError) -> Response {
    let code = match e {
        BundleError::BaseConflict { .. } => ErrorCode::GenerationConflict,
        _ => ErrorCode::InvalidBundle,
    };
    error(code, e.to_string())
}

/// Refuses subjects whose claimed class is foreign to the lattice.
///
/// The server trusts the client's *identity* claim (authentication is
/// outside the paper's model and this reproduction — see DESIGN.md
/// §6.9), but it never lets a malformed class reach the monitor.
fn validate_subject(view: &MonitorView<'_>, subject: &Subject) -> Option<Response> {
    match view.lattice(|l| l.validate(&subject.class)) {
        Ok(()) => None,
        Err(e) => Some(error(ErrorCode::InvalidSubject, e.to_string())),
    }
}

fn error(code: ErrorCode, message: String) -> Response {
    Response::Error { code, message }
}
