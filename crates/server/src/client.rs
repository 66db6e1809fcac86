//! The client: connection reuse, streaming pipelining, and retry.
//!
//! A [`Client`] owns at most one TCP connection and reuses it across
//! calls. [`Client::pipeline`] *streams*: the connection is non-blocking
//! and the client interleaves writing requests with reading whatever
//! responses have already arrived, instead of writing the whole pipeline
//! and only then reading. The server answers each frame with exactly one
//! response frame, in order, so a pipeline of `n` requests still costs
//! one round trip — but responses are consumed as they land, so a large
//! pipeline never deadlocks on mutual backpressure (both sides' socket
//! buffers full, each waiting for the other to drain), and a `Busy` shed
//! is observed as soon as the server sends it, not after the whole
//! request burst is flushed.
//!
//! On a *transient* transport error (reset, broken pipe, timeout, a
//! server that closed an idle connection) the client drops the dead
//! connection, reconnects, and retries the whole pipeline. That is safe
//! for the read set — checks, listings, explanations, telemetry pulls
//! mutate nothing, so a replay only re-observes — and it stays safe for
//! the bundle admin set because those operations are guarded: replaying
//! an [`activate`](Client::activate) whose response was lost fails
//! closed with [`ErrorCode::GenerationConflict`] (the first application
//! moved the active generation past the bundle's base, and the consumed
//! handle is unknown), never double-applies; re-staging the same source
//! just stages a second identical bundle under a fresh handle; a
//! replayed [`rollback`](Client::rollback) *does* pop one more ring
//! entry, so treat a rollback timeout as unknown-outcome and check
//! [`bundle_status`](Client::bundle_status) before retrying by hand.
//! Server-sent `Error` responses are *answers*, not failures: they are
//! returned (or surfaced as [`ClientError::Server`]) and never retried.
//! Every retry, reconnect, and backoff sleep is counted in
//! [`ClientStats`].

use crate::conn::{BUF_CLAMP, READ_CHUNK};
use crate::proto::{
    self, ErrorCode, FrameScan, ProtoError, Request, Response, WireMessage, MAX_FRAME,
};
use extsec_acl::AccessMode;
use extsec_namespace::NsPath;
use extsec_refmon::{
    AuditQuery, BundleId, BundleStatusReport, Decision, Explanation, Generation, QueryResult,
    Subject, VerifyReport,
};
use polling::{Event, Events, Poller};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Tuning knobs for a [`Client`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Per-response read timeout.
    pub read_timeout: Duration,
    /// Write timeout for the request side of a pipeline.
    pub write_timeout: Duration,
    /// How many times a pipeline is retried on a fresh connection after
    /// a transient transport error or a `Busy` shed (0 disables retry).
    pub retries: u32,
    /// Largest accepted response frame payload, bytes.
    pub max_frame: u32,
    /// First retry's backoff; each further retry doubles it (jittered).
    pub backoff_base: Duration,
    /// Ceiling on the exponential backoff between retries.
    pub backoff_cap: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            retries: 2,
            max_frame: MAX_FRAME,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(250),
        }
    }
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed and retries (if any) were exhausted.
    Io(io::Error),
    /// The server sent bytes that violate the protocol.
    Proto(ProtoError),
    /// The server shed the connection (or request) with a `Busy`
    /// response and retries were exhausted.
    Busy {
        /// The server's suggested minimum backoff, in milliseconds.
        retry_after_ms: u64,
    },
    /// The server answered with an `Error` response.
    Server {
        /// The error class.
        code: ErrorCode,
        /// The server's description.
        message: String,
    },
    /// The server answered with a well-formed response of the wrong
    /// kind for the request (a server bug or a confused proxy).
    Unexpected(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Busy { retry_after_ms } => {
                write!(f, "server busy (retry after {retry_after_ms}ms)")
            }
            ClientError::Server { code, message } => write!(f, "server [{code}]: {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Counters for the client's resilience machinery: how often pipelines
/// were retried, why, and how long was spent backing off. Cheap to copy;
/// read them with [`Client::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Pipelines that completed successfully.
    pub pipelines: u64,
    /// Requests sent across all successful pipelines.
    pub requests: u64,
    /// Responses consumed while the request side of the same pipeline
    /// was still being written — the streaming overlap at work.
    pub responses_streamed_early: u64,
    /// Pipeline attempts retried after a transient transport error.
    pub retries_io: u64,
    /// Pipeline attempts retried after a server `Busy` shed.
    pub retries_busy: u64,
    /// Fresh connections dialed (the first connect counts).
    pub reconnects: u64,
    /// Total time slept in retry backoff, milliseconds.
    pub backoff_ms: u64,
}

/// One live connection: the socket (non-blocking), the poller that
/// waits on it with its event buffer, and the read-side reassembly
/// buffer.
struct Transport {
    stream: TcpStream,
    poller: Poller,
    events: Events,
    /// Unparsed bytes live at `rbuf[rpos..rend]`. Its length is the part
    /// already zeroed, which reads reuse, so a read zeroes nothing unless
    /// the buffer grows.
    rbuf: Vec<u8>,
    rpos: usize,
    rend: usize,
    reg_writable: bool,
}

/// The transport's poller key for its one socket.
const SOCKET_KEY: usize = 0;

impl Transport {
    fn open(addr: SocketAddr) -> io::Result<Transport> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add(&stream, Event::all(SOCKET_KEY))?;
        Ok(Transport {
            stream,
            poller,
            events: Events::new(),
            rbuf: Vec::new(),
            rpos: 0,
            rend: 0,
            reg_writable: true,
        })
    }

    /// Aligns poller interest with whether output is still pending.
    fn want_writable(&mut self, wanted: bool) -> io::Result<()> {
        if wanted != self.reg_writable {
            let mut interest = Event::readable(SOCKET_KEY);
            interest.writable = wanted;
            self.poller.modify(&self.stream, interest)?;
            self.reg_writable = wanted;
        }
        Ok(())
    }

    /// Drops the consumed prefix, then reads what the socket offers into
    /// the zeroed space behind the unparsed bytes, growing it to at least
    /// one chunk first.
    fn read_more(&mut self) -> io::Result<usize> {
        if self.rpos > 0 {
            self.rbuf.copy_within(self.rpos..self.rend, 0);
            self.rend -= self.rpos;
            self.rpos = 0;
        }
        if self.rbuf.len() < self.rend + READ_CHUNK {
            self.rbuf.resize(self.rend + READ_CHUNK, 0);
        }
        let n = self.stream.read(&mut self.rbuf[self.rend..])?;
        self.rend += n;
        Ok(n)
    }
}

/// A connected (or reconnecting) client for one server address.
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    conn: Option<Transport>,
    stats: ClientStats,
    /// The frames of the exchange in progress, encoded in place and kept
    /// for a retry; reused from call to call, clamped like the server's
    /// buffers.
    sbuf: Vec<u8>,
}

impl Client {
    /// Resolves `addr` and connects eagerly.
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved empty"))?;
        let mut client = Client {
            addr,
            config,
            conn: None,
            stats: ClientStats::default(),
            sbuf: Vec::new(),
        };
        client.reconnect()?;
        Ok(client)
    }

    /// The retry/backoff counters accumulated so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    fn reconnect(&mut self) -> io::Result<()> {
        self.conn = Some(Transport::open(self.addr)?);
        self.stats.reconnects += 1;
        Ok(())
    }

    /// Whether an error is worth a reconnect-and-retry.
    fn transient(kind: io::ErrorKind) -> bool {
        matches!(
            kind,
            io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::BrokenPipe
                | io::ErrorKind::UnexpectedEof
                | io::ErrorKind::TimedOut
                | io::ErrorKind::WouldBlock
        )
    }

    /// Streams a pipeline: requests are written and responses consumed
    /// concurrently, in order, until one response per request is in
    /// hand. Retries the whole pipeline on a fresh connection after a
    /// transient transport error or a server `Busy` shed (safe: all
    /// operations are reads), sleeping a jittered exponential backoff
    /// between attempts so a fleet of shed clients does not return in
    /// lockstep.
    pub fn pipeline(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        let out = self.send_buffer();
        for request in requests {
            request.encode_into(out);
        }
        self.exchange(requests.len())
    }

    /// The send buffer, emptied for the next exchange; capacity a giant
    /// one inflated is released.
    fn send_buffer(&mut self) -> &mut Vec<u8> {
        self.sbuf.clear();
        self.sbuf.shrink_to(BUF_CLAMP);
        &mut self.sbuf
    }

    /// [`pipeline`](Client::pipeline)'s exchange and retry loop for the
    /// `count` frames in the send buffer.
    fn exchange(&mut self, count: usize) -> Result<Vec<Response>, ClientError> {
        let mut attempt = 0;
        loop {
            let retry_floor = match self.try_exchange(count) {
                Ok(responses) => {
                    self.stats.pipelines += 1;
                    self.stats.requests += count as u64;
                    return Ok(responses);
                }
                Err(ClientError::Io(e))
                    if attempt < self.config.retries && Self::transient(e.kind()) =>
                {
                    self.stats.retries_io += 1;
                    Duration::ZERO
                }
                Err(ClientError::Busy { retry_after_ms }) if attempt < self.config.retries => {
                    self.stats.retries_busy += 1;
                    Duration::from_millis(retry_after_ms)
                }
                Err(other) => return Err(other),
            };
            attempt += 1;
            self.conn = None;
            let delay = backoff_delay(
                self.config.backoff_base,
                self.config.backoff_cap,
                attempt,
                jitter_salt(),
            )
            .max(retry_floor);
            if !delay.is_zero() {
                self.stats.backoff_ms += delay.as_millis() as u64;
                std::thread::sleep(delay);
            }
        }
    }

    /// One attempt: writes the send buffer and reads `count` responses.
    fn try_exchange(&mut self, count: usize) -> Result<Vec<Response>, ClientError> {
        if self.conn.is_none() {
            self.reconnect()?;
        }
        let max_frame = self.config.max_frame;
        let Some(conn) = self.conn.as_mut() else {
            // reconnect() above either set the transport or bailed with
            // its own error; this is unreachable, but refuse rather than
            // panic inside a retry loop.
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::NotConnected,
                "reconnect left no connection",
            )));
        };
        // One contiguous request burst; flushed as the socket accepts it.
        let out = &self.sbuf;
        let mut opos = 0;
        let mut responses = Vec::with_capacity(count);
        // The timeout is on *progress*, not on the whole pipeline: any
        // byte moved in either direction resets the clock.
        let mut last_progress = Instant::now();
        while responses.len() < count {
            let mut progressed = false;
            // Push pending requests while the socket takes them.
            while opos < out.len() {
                match conn.stream.write(&out[opos..]) {
                    Ok(0) => {
                        return Err(ClientError::Io(io::Error::new(
                            io::ErrorKind::WriteZero,
                            "socket accepted no bytes",
                        )))
                    }
                    Ok(n) => {
                        opos += n;
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(ClientError::Io(e)),
                }
            }
            // Consume whatever responses have already landed.
            loop {
                match proto::scan_frame(&conn.rbuf[conn.rpos..conn.rend], max_frame)
                    .map_err(ClientError::Proto)?
                {
                    FrameScan::Complete {
                        opcode,
                        payload_start,
                        consumed,
                    } => {
                        let payload = &conn.rbuf[conn.rpos + payload_start..conn.rpos + consumed];
                        let response =
                            Response::decode(opcode, payload).map_err(ClientError::Proto)?;
                        conn.rpos += consumed;
                        if let Response::Busy { retry_after_ms } = response {
                            // The server shed us and will close; surface
                            // it so the retry loop can back off for at
                            // least the server's hint.
                            return Err(ClientError::Busy { retry_after_ms });
                        }
                        if opos < out.len() {
                            self.stats.responses_streamed_early += 1;
                        }
                        responses.push(response);
                        progressed = true;
                        if responses.len() == count {
                            break;
                        }
                    }
                    FrameScan::Partial { .. } => match conn.read_more() {
                        Ok(0) => {
                            return Err(ClientError::Io(io::Error::new(
                                io::ErrorKind::UnexpectedEof,
                                "server closed mid-pipeline",
                            )));
                        }
                        Ok(_) => progressed = true,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(ClientError::Io(e)),
                    },
                }
            }
            if responses.len() == count {
                break;
            }
            if progressed {
                last_progress = Instant::now();
            }
            // Both directions are blocked: the read above returned
            // `WouldBlock`, and the writes either finished or blocked.
            // Wait for readiness, bounded by the progress timeout.
            let budget = if opos < out.len() {
                self.config.read_timeout.min(self.config.write_timeout)
            } else {
                self.config.read_timeout
            };
            let waited = last_progress.elapsed();
            if waited >= budget {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no response before the read timeout",
                )));
            }
            conn.want_writable(opos < out.len())?;
            conn.poller.wait(&mut conn.events, Some(budget - waited))?;
        }
        Ok(responses)
    }

    fn one(&mut self, request: Request) -> Result<Response, ClientError> {
        request.encode_into(self.send_buffer());
        self.exchange_one()
    }

    /// Exchanges the one frame in the send buffer for its response.
    fn exchange_one(&mut self) -> Result<Response, ClientError> {
        let mut responses = self.exchange(1)?;
        Ok(responses.remove(0))
    }

    /// Round-trips a liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.one(Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Runs one access check on the server.
    pub fn check(
        &mut self,
        subject: &Subject,
        path: &NsPath,
        mode: AccessMode,
    ) -> Result<Decision, ClientError> {
        Request::encode_check_into(self.send_buffer(), subject, path, mode);
        match self.exchange_one()? {
            Response::Decision(decision) => Ok(decision),
            other => Err(unexpected("Decision", &other)),
        }
    }

    /// Runs a batch of checks against one server-side snapshot; the
    /// decisions come back in item order and are mutually consistent.
    pub fn batch_check(
        &mut self,
        subject: &Subject,
        items: &[(NsPath, AccessMode)],
    ) -> Result<Vec<Decision>, ClientError> {
        Request::encode_batch_check_into(self.send_buffer(), subject, items);
        match self.exchange_one()? {
            Response::Batch(decisions) => Ok(decisions),
            other => Err(unexpected("Batch", &other)),
        }
    }

    /// Lists the children of the container at `path`.
    pub fn list(&mut self, subject: &Subject, path: &NsPath) -> Result<Vec<String>, ClientError> {
        let request = Request::List {
            subject: subject.clone(),
            path: path.clone(),
        };
        match self.one(request)? {
            Response::Listing(names) => Ok(names),
            other => Err(unexpected("Listing", &other)),
        }
    }

    /// Fetches and parses the reasoning trace for one check.
    pub fn explain(
        &mut self,
        subject: &Subject,
        path: &NsPath,
        mode: AccessMode,
    ) -> Result<Explanation, ClientError> {
        let request = Request::Explain {
            subject: subject.clone(),
            path: path.clone(),
            mode,
        };
        match self.one(request)? {
            Response::Explanation(json) => serde_json::from_str(&json)
                .map_err(|e| ClientError::Unexpected(format!("unparseable explanation: {e}"))),
            other => Err(unexpected("Explanation", &other)),
        }
    }

    /// Pulls the combined monitor + server telemetry JSON document.
    pub fn telemetry(&mut self) -> Result<String, ClientError> {
        match self.one(Request::Telemetry)? {
            Response::Telemetry(json) => Ok(json),
            other => Err(unexpected("Telemetry", &other)),
        }
    }

    // -----------------------------------------------------------------
    // The bundle admin API.
    // -----------------------------------------------------------------

    /// Stages a policy bundle from source text; returns the handle to
    /// activate or shadow it by, and the base generation it was pinned
    /// to. Compile refusals surface as [`ClientError::Server`] with
    /// [`ErrorCode::InvalidBundle`].
    pub fn load_bundle(&mut self, source: &str) -> Result<(BundleId, Generation), ClientError> {
        let request = Request::LoadBundle {
            source: source.to_string(),
        };
        match self.one(request)? {
            Response::BundleStaged { bundle, base } => Ok((bundle, base)),
            other => Err(unexpected("BundleStaged", &other)),
        }
    }

    /// Activates a staged bundle in one atomic publish; returns the
    /// now-active generation. Safe under the client's automatic retry: a
    /// replayed activation finds its handle consumed and its base stale,
    /// so it fails closed with [`ErrorCode::GenerationConflict`] instead
    /// of double-applying.
    pub fn activate(&mut self, bundle: BundleId) -> Result<Generation, ClientError> {
        match self.one(Request::Activate { bundle })? {
            Response::BundleAck { generation } => Ok(generation),
            other => Err(unexpected("BundleAck", &other)),
        }
    }

    /// Toggles shadow evaluation of a staged bundle; returns the (still
    /// active, unchanged) generation. Idempotent, so retry-safe.
    pub fn shadow(&mut self, bundle: BundleId, on: bool) -> Result<Generation, ClientError> {
        match self.one(Request::Shadow { bundle, on })? {
            Response::BundleAck { generation } => Ok(generation),
            other => Err(unexpected("BundleAck", &other)),
        }
    }

    /// Rolls back to the most recent pre-activation snapshot; returns
    /// the fresh generation. Deliberately a **single attempt** — a
    /// replayed rollback would pop one more ring entry — so a transport
    /// failure here is an unknown outcome: consult
    /// [`bundle_status`](Client::bundle_status) before retrying by hand.
    pub fn rollback(&mut self) -> Result<Generation, ClientError> {
        Request::Rollback.encode_into(self.send_buffer());
        let mut responses = self.try_exchange(1)?;
        match responses.remove(0) {
            Response::BundleAck { generation } => Ok(generation),
            other => Err(unexpected("BundleAck", &other)),
        }
    }

    /// Fetches and parses the bundle subsystem's status report: the
    /// active generation, staged bundles, shadow flip counts, and the
    /// rollback ring's depth.
    pub fn bundle_status(&mut self) -> Result<BundleStatusReport, ClientError> {
        match self.one(Request::BundleStatus)? {
            Response::BundleStatus(json) => serde_json::from_str(&json)
                .map_err(|e| ClientError::Unexpected(format!("unparseable bundle status: {e}"))),
            other => Err(unexpected("BundleStatus", &other)),
        }
    }

    // -----------------------------------------------------------------
    // The audit admin API.
    // -----------------------------------------------------------------

    /// Runs a filtered, bounded scan over the server's persisted audit
    /// chain. The result is one page: resume a
    /// [`truncated`](QueryResult::truncated) scan by re-issuing the
    /// query with `seq_min = result.next_seq`. A server without an
    /// attached pipeline answers [`ErrorCode::AuditUnavailable`],
    /// surfaced as [`ClientError::Server`]. Retry-safe: a query only
    /// re-observes.
    pub fn audit_query(&mut self, query: &AuditQuery) -> Result<QueryResult, ClientError> {
        let request = Request::AuditQuery {
            query: query.clone(),
        };
        match self.one(request)? {
            Response::AuditEvents(result) => Ok(result),
            other => Err(unexpected("AuditEvents", &other)),
        }
    }

    /// Asks the server to re-derive its persisted audit chain end to end
    /// and parses the per-segment integrity report. Retry-safe: verify
    /// mutates nothing.
    pub fn audit_verify(&mut self) -> Result<VerifyReport, ClientError> {
        match self.one(Request::AuditVerify)? {
            Response::AuditReport(json) => serde_json::from_str(&json)
                .map_err(|e| ClientError::Unexpected(format!("unparseable verify report: {e}"))),
            other => Err(unexpected("AuditReport", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    match got {
        Response::Error { code, message } => ClientError::Server {
            code: *code,
            message: message.clone(),
        },
        other => ClientError::Unexpected(format!(
            "wanted {wanted}, got opcode {:#04x}",
            other.opcode()
        )),
    }
}

/// A jittered exponential backoff: attempt 1 sleeps about `base`, each
/// further attempt doubles it up to `cap`, and the actual delay is drawn
/// uniformly from the upper half of that window (`[delay/2, delay]`), so
/// clients shed at the same instant spread their retries out.
fn backoff_delay(base: Duration, cap: Duration, attempt: u32, salt: u64) -> Duration {
    let exp = base
        .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
        .min(cap);
    let nanos = exp.as_nanos() as u64;
    if nanos == 0 {
        return Duration::ZERO;
    }
    // splitmix64-style scramble; good enough spread for retry jitter
    // without pulling a RNG into the client.
    let mut z = salt.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    Duration::from_nanos(nanos / 2 + z % (nanos / 2 + 1))
}

/// Per-call jitter seed from the standard library's randomized hasher.
fn jitter_salt() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(250);
        for salt in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let mut previous_window = Duration::ZERO;
            for attempt in 1..=10 {
                let delay = backoff_delay(base, cap, attempt, salt);
                let window = base.saturating_mul(1u32 << (attempt - 1).min(16)).min(cap);
                assert!(delay <= window, "attempt {attempt}: {delay:?} > {window:?}");
                assert!(
                    delay >= window / 2,
                    "attempt {attempt}: {delay:?} below half of {window:?}"
                );
                assert!(window >= previous_window, "window must be monotone");
                previous_window = window;
            }
            // Far past the doubling range the cap holds.
            assert!(backoff_delay(base, cap, 1000, salt) <= cap);
        }
    }

    #[test]
    fn zero_base_backoff_is_zero() {
        assert_eq!(
            backoff_delay(Duration::ZERO, Duration::ZERO, 3, 42),
            Duration::ZERO
        );
    }
}
