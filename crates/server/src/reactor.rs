//! The sharded readiness reactor.
//!
//! The front end is `config.workers` *shards*, each a thread running one
//! event loop over its own level-triggered poller (see the vendored
//! `polling` crate: raw epoll on Linux, poll(2) elsewhere). A shard owns
//! every connection registered with it outright — slab slot, buffers,
//! deadline — so the hot path takes no locks and shares no state
//! except the monitor (already concurrent by design) and the telemetry
//! counters (sharded atomics).
//!
//! Shard 0 additionally owns the listener. Accepted connections are
//! handed to shards round-robin through a small mutex-guarded inbox plus
//! a poller wakeup; the inbox is only touched at accept time, never per
//! request. Two admission valves guard the door, both answering with a
//! typed `Busy` frame instead of a silent RST:
//!
//! - a global connection cap (`max_connections`) — the hard ceiling on
//!   slots across all shards;
//! - the per-shard inbox bound (`accept_queue`) — backpressure against
//!   an accept burst outrunning registration.
//!
//! Each shard keeps its connections' armed deadlines in one ordered set
//! of `(instant, slot)` pairs, in step with the connections: after every
//! turn the shard moves a connection's entry to the deadline the turn
//! left it (or removes it), and the close funnel removes it. The poller
//! waits until the first entry falls due, and each loop turn closes
//! every connection whose entry is due, so a deadline fires at its
//! instant. A shard with nothing armed blocks in the poller
//! indefinitely — a quiescent server burns no CPU.
//!
//! Every way a connection can end — clean EOF, protocol refusal, I/O
//! error, timeout, a panic caught mid-dispatch, server shutdown — funnels
//! through [`Shard::close`], the only place a slot is freed and the
//! open/closed accounting balanced. That single funnel is what the
//! fault-storm tests lean on: `accepted == closed` with zero leaks, no
//! matter what the peer or the injected faults do.

use crate::conn::{Conn, Ctx, Turn};
use crate::proto::{self, Response};
use crate::server::ServerConfig;
use crate::telemetry::{ServerCounter, ServerTelemetry};
use extsec_refmon::ReferenceMonitor;
use polling::{Event, Events, Poller};
use std::collections::{BTreeSet, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Poller key reserved for the listener (shard 0 only). The vendored
/// poller reserves `usize::MAX` for its own wakeup channel.
pub(crate) const LISTENER_KEY: usize = usize::MAX - 1;

/// How long a shard sleeps after a failed poller wait, so the failure
/// does not spin.
const WAIT_BACKOFF: Duration = Duration::from_millis(16);

/// State shared by every shard and the [`crate::server::Server`] handle.
pub(crate) struct Shared {
    pub(crate) monitor: Arc<ReferenceMonitor>,
    pub(crate) telemetry: Arc<ServerTelemetry>,
    pub(crate) config: Arc<ServerConfig>,
    pub(crate) shutdown: AtomicBool,
    /// Live connection slots across all shards (admission control).
    pub(crate) conns: AtomicUsize,
}

/// The cross-thread face of a shard: its poller (for wakeups and remote
/// registration hints) and the inbox of accepted sockets awaiting
/// registration.
pub(crate) struct ShardHandle {
    pub(crate) poller: Poller,
    inbox: Mutex<VecDeque<TcpStream>>,
}

impl ShardHandle {
    pub(crate) fn new() -> io::Result<ShardHandle> {
        Ok(ShardHandle {
            poller: Poller::new()?,
            inbox: Mutex::new(VecDeque::new()),
        })
    }

    /// Queues a socket for registration, refusing beyond `cap`.
    fn push(&self, stream: TcpStream, cap: usize) -> Result<(), TcpStream> {
        let mut inbox = self.inbox.lock().unwrap();
        if inbox.len() >= cap {
            return Err(stream);
        }
        inbox.push_back(stream);
        Ok(())
    }

    fn pop(&self) -> Option<TcpStream> {
        self.inbox.lock().unwrap().pop_front()
    }
}

/// One event-loop thread: poller, connection slab, deadline set.
pub(crate) struct Shard {
    index: usize,
    shared: Arc<Shared>,
    handle: Arc<ShardHandle>,
    /// Every shard's handle (accept handoff; only shard 0 uses it).
    peers: Vec<Arc<ShardHandle>>,
    /// The listener, owned by shard 0.
    listener: Option<TcpListener>,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// `(due, slot)` for every connection with a deadline, and only
    /// those: the instant is the connection's own `deadline`.
    deadlines: BTreeSet<(Instant, usize)>,
    /// Round-robin cursor for accept handoff.
    next_shard: usize,
}

impl Shard {
    pub(crate) fn new(
        index: usize,
        shared: Arc<Shared>,
        peers: Vec<Arc<ShardHandle>>,
        listener: Option<TcpListener>,
    ) -> Shard {
        let handle = Arc::clone(&peers[index]);
        Shard {
            index,
            shared,
            handle,
            peers,
            listener,
            slab: Vec::new(),
            free: Vec::new(),
            deadlines: BTreeSet::new(),
            next_shard: index,
        }
    }

    /// The event loop. Returns only at shutdown, after every owned
    /// connection has been closed and accounted.
    pub(crate) fn run(mut self) {
        let mut events = Events::new();
        loop {
            let timeout = self
                .deadlines
                .first()
                .map(|&(due, _)| due.saturating_duration_since(Instant::now()));
            if self.handle.poller.wait(&mut events, timeout).is_err() {
                std::thread::sleep(WAIT_BACKOFF);
            }
            self.shared.telemetry.count(ServerCounter::Polls);
            self.shared
                .telemetry
                .add(ServerCounter::ReadyEvents, events.len() as u64);
            if self.shared.shutdown.load(Ordering::Acquire) {
                self.shutdown_all();
                return;
            }
            self.fire_deadlines(Instant::now());
            self.drain_inbox();
            for event in events.iter() {
                if event.key == LISTENER_KEY {
                    self.accept_ready();
                } else {
                    self.conn_ready(event.key, event.readable, event.writable);
                }
            }
        }
    }

    /// Registers every socket waiting in this shard's inbox.
    fn drain_inbox(&mut self) {
        while let Some(stream) = self.handle.pop() {
            self.register(stream);
        }
    }

    /// Adopts one accepted socket into the slab and the poller.
    fn register(&mut self, stream: TcpStream) {
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slab.push(None);
                self.slab.len() - 1
            }
        };
        let conn = Conn::new(stream);
        if self
            .handle
            .poller
            .add(&conn.stream, Event::readable(idx))
            .is_err()
        {
            // Registration failed (fd pressure): release the reserved
            // slot; the connection was never served, so it is never
            // accounted.
            self.free.push(idx);
            self.shared.conns.fetch_sub(1, Ordering::AcqRel);
            return;
        }
        self.shared.telemetry.count(ServerCounter::Accepted);
        self.slab[idx] = Some(conn);
        // Sockets usually arrive with data already in flight; serve the
        // first turn immediately rather than waiting for the next poll.
        self.conn_ready(idx, true, false);
    }

    /// One readiness turn for one connection, panic-contained.
    fn conn_ready(&mut self, idx: usize, readable: bool, writable: bool) {
        let shared = Arc::clone(&self.shared);
        let ctx = Ctx {
            monitor: &shared.monitor,
            tele: &shared.telemetry,
            config: &shared.config,
        };
        let Some(conn) = self.slab.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let armed = conn.deadline;
        // A panic in decode or dispatch is contained to this turn: the
        // close funnel below still balances the slot accounting, and the
        // shard moves on to the next event.
        let turn =
            std::panic::catch_unwind(AssertUnwindSafe(|| conn.drive(readable, writable, &ctx)));
        // Whatever the outcome, the set follows the deadline the turn
        // left, so the close funnel finds the entry it removes.
        let deadline = conn.deadline;
        if deadline != armed {
            if let Some((due, _)) = armed {
                self.deadlines.remove(&(due, idx));
            }
            if let Some((due, _)) = deadline {
                self.deadlines.insert((due, idx));
            }
        }
        match turn {
            Ok(Turn::Keep) => self.commit_interest(idx),
            Ok(Turn::Close) => self.close(idx),
            Err(_) => {
                self.shared.telemetry.count(ServerCounter::WorkerPanics);
                self.close(idx);
            }
        }
    }

    /// Mirrors a connection's freshly computed interest set into the
    /// poller.
    fn commit_interest(&mut self, idx: usize) {
        let Some(conn) = self.slab.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if conn.want_read != conn.reg_read || conn.want_write != conn.reg_write {
            let mut interest = Event::none(idx);
            interest.readable = conn.want_read;
            interest.writable = conn.want_write;
            if self.handle.poller.modify(&conn.stream, interest).is_ok() {
                conn.reg_read = conn.want_read;
                conn.reg_write = conn.want_write;
            }
        }
    }

    /// Closes every connection whose deadline is due at `now`.
    fn fire_deadlines(&mut self, now: Instant) {
        while let Some(&(due, idx)) = self.deadlines.first() {
            if due > now {
                return;
            }
            self.deadlines.remove(&(due, idx));
            let conn = self.slab.get(idx).and_then(Option::as_ref);
            if conn
                .and_then(|c| c.deadline)
                .is_some_and(|(_, kind)| kind.is_timeout())
            {
                self.shared.telemetry.count(ServerCounter::Timeouts);
            }
            self.close(idx);
        }
    }

    /// The single close funnel: drop the deadline, deregister, free the
    /// slot, balance the global count and the accepted/closed accounting.
    fn close(&mut self, idx: usize) {
        if let Some(conn) = self.slab.get_mut(idx).and_then(Option::take) {
            if let Some((due, _)) = conn.deadline {
                self.deadlines.remove(&(due, idx));
            }
            let _ = self.handle.poller.delete(&conn.stream);
            self.free.push(idx);
            self.shared.conns.fetch_sub(1, Ordering::AcqRel);
            self.shared.telemetry.count(ServerCounter::Closed);
        }
    }

    /// Accepts until the listener runs dry (level-triggered).
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept errors (ECONNABORTED and friends):
                // keep the listener alive.
                Err(_) => return,
            }
        }
    }

    /// Admission control plus round-robin handoff for one new socket.
    fn admit(&mut self, stream: TcpStream) {
        let config = &self.shared.config;
        // Reserve a slot first so concurrent closes cannot be raced past
        // the cap; undo the reservation on any refusal path.
        let occupied = self.shared.conns.fetch_add(1, Ordering::AcqRel);
        if occupied >= config.max_connections {
            self.shared.conns.fetch_sub(1, Ordering::AcqRel);
            self.shared.telemetry.count(ServerCounter::ShedAccept);
            shed(stream, config);
            return;
        }
        let target = self.next_shard % self.peers.len();
        self.next_shard = self.next_shard.wrapping_add(1);
        if target == self.index {
            self.register(stream);
            return;
        }
        match self.peers[target].push(stream, config.accept_queue) {
            Ok(()) => {
                let _ = self.peers[target].poller.notify();
                self.shared.telemetry.count(ServerCounter::Wakeups);
            }
            Err(stream) => {
                self.shared.conns.fetch_sub(1, Ordering::AcqRel);
                self.shared.telemetry.count(ServerCounter::ShedAccept);
                shed(stream, config);
            }
        }
    }

    /// Graceful-shutdown sweep: best-effort flush of queued replies,
    /// then every owned connection through the close funnel. Inbox
    /// sockets were never registered (or accounted); they are dropped.
    fn shutdown_all(&mut self) {
        for idx in 0..self.slab.len() {
            if let Some(conn) = self.slab.get_mut(idx).and_then(Option::as_mut) {
                conn.final_flush();
                self.close(idx);
            }
        }
        while let Some(stream) = self.handle.pop() {
            self.shared.conns.fetch_sub(1, Ordering::AcqRel);
            drop(stream);
        }
        self.listener = None;
    }
}

/// Sheds one connection at the door: answer `Busy` (best effort),
/// half-close the write side so the frame survives in flight, and drop
/// the socket. A shed connection never enters the accepted/closed
/// accounting — it was refused, not served.
pub(crate) fn shed(mut stream: TcpStream, config: &ServerConfig) {
    // Accepted sockets are blocking by default; a freshly accepted
    // socket's send buffer is empty, so this cannot stall — the timeout
    // is a belt against pathological peers.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let busy = Response::Busy {
        retry_after_ms: config.shed_retry_after.as_millis() as u64,
    };
    if proto::write_frame(&mut stream, &busy.encode()).is_ok() {
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
}
