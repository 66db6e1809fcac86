//! The sharded readiness reactor.
//!
//! The front end is `config.workers` *shards*, each a thread running one
//! event loop over its own level-triggered poller (see the vendored
//! `polling` crate: raw epoll on Linux, poll(2) elsewhere). A shard owns
//! every connection registered with it outright — slab slot, buffers,
//! timer entries — so the hot path takes no locks and shares no state
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
//! Timeouts come from a coarse single-level timer wheel per shard
//! (16 ms ticks, 512 slots ≈ an 8 s horizon; farther deadlines re-insert
//! when their slot comes around). Cancellation is lazy: each connection
//! carries a sequence number bumped whenever its deadline changes, and a
//! fired wheel entry is honored only if its sequence still matches. An
//! idle shard with no armed timers blocks in the poller indefinitely —
//! a quiescent server burns no CPU.
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
use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Poller key reserved for the listener (shard 0 only). The vendored
/// poller reserves `usize::MAX` for its own wakeup channel.
pub(crate) const LISTENER_KEY: usize = usize::MAX - 1;

/// Timer-wheel tick. Deadlines fire up to one tick late — fine for
/// timeouts measured in hundreds of milliseconds.
const WHEEL_TICK: Duration = Duration::from_millis(16);

/// Timer-wheel slots; with 16 ms ticks the horizon is ≈ 8 s. Deadlines
/// past the horizon re-insert when their slot is reached.
const WHEEL_SLOTS: usize = 512;

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

/// One event-loop thread: poller, connection slab, timer wheel.
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
    wheel: TimerWheel,
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
            wheel: TimerWheel::new(Instant::now()),
            next_shard: index,
        }
    }

    /// The event loop. Returns only at shutdown, after every owned
    /// connection has been closed and accounted.
    pub(crate) fn run(mut self) {
        let mut events = Events::new();
        let mut due: Vec<(usize, u64)> = Vec::new();
        loop {
            let timeout = self.wheel.next_timeout();
            match self.handle.poller.wait(&mut events, timeout) {
                Ok(_) => {}
                Err(_) => {
                    // A failed wait would spin; back off a tick instead.
                    std::thread::sleep(WHEEL_TICK);
                }
            }
            self.shared.telemetry.count(ServerCounter::Polls);
            self.shared
                .telemetry
                .add(ServerCounter::ReadyEvents, events.len() as u64);
            if self.shared.shutdown.load(Ordering::Acquire) {
                self.shutdown_all();
                return;
            }
            let now = Instant::now();
            self.wheel.advance(now, &mut due);
            self.fire_deadlines(&mut due, now);
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
        // A panic in decode or dispatch is contained to this turn: the
        // close funnel below still balances the slot accounting, and the
        // shard moves on to the next event.
        let turn =
            std::panic::catch_unwind(AssertUnwindSafe(|| conn.drive(readable, writable, &ctx)));
        match turn {
            Ok(Turn::Keep) => self.commit_posture(idx),
            Ok(Turn::Close) => self.close(idx),
            Err(_) => {
                self.shared.telemetry.count(ServerCounter::WorkerPanics);
                self.close(idx);
            }
        }
    }

    /// Mirrors a connection's freshly computed posture (interest set and
    /// deadline) into the poller and the timer wheel.
    fn commit_posture(&mut self, idx: usize) {
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
        if let Some((at, kind)) = &mut conn.deadline {
            if conn.timer_seq != conn.armed_seq {
                // The state machine stamps a placeholder instant; the
                // shard owns wheel time, so the real horizon is fixed
                // here, at arm time.
                *at = Instant::now() + Conn::deadline_after(*kind, &self.shared.config);
                let deadline = *at;
                conn.armed_seq = conn.timer_seq;
                self.wheel.insert(idx, conn.timer_seq, deadline);
            }
        }
    }

    /// Applies fired wheel entries, skipping lazily cancelled ones.
    fn fire_deadlines(&mut self, due: &mut Vec<(usize, u64)>, now: Instant) {
        for (idx, seq) in due.drain(..) {
            let Some(conn) = self.slab.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            if conn.timer_seq != seq {
                continue;
            }
            let Some((at, kind)) = conn.deadline else {
                continue;
            };
            if at > now {
                continue;
            }
            if kind.is_timeout() {
                self.shared.telemetry.count(ServerCounter::Timeouts);
            }
            self.close(idx);
        }
    }

    /// The single close funnel: deregister, free the slot, balance the
    /// global count and the accepted/closed accounting.
    fn close(&mut self, idx: usize) {
        if let Some(conn) = self.slab.get_mut(idx).and_then(Option::take) {
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

/// Hashed timer wheel, single level. Entries are `(slot index, seq)`
/// pairs; validity is checked against the connection at fire time, so
/// cancellation and refresh are free (bump the seq and forget).
struct TimerWheel {
    slots: Vec<Vec<WheelEntry>>,
    /// The instant the cursor slot began.
    base: Instant,
    cursor: usize,
    /// Entries currently parked in slots (drives `next_timeout`).
    armed: usize,
}

struct WheelEntry {
    idx: usize,
    seq: u64,
    at: Instant,
}

impl TimerWheel {
    fn new(now: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            base: now,
            cursor: 0,
            armed: 0,
        }
    }

    /// How long the poller may block: forever when nothing is armed
    /// (an idle shard is fully quiescent), else one tick.
    fn next_timeout(&self) -> Option<Duration> {
        if self.armed == 0 {
            None
        } else {
            Some(WHEEL_TICK)
        }
    }

    fn insert(&mut self, idx: usize, seq: u64, at: Instant) {
        let delta = at.saturating_duration_since(self.base);
        let ticks = (delta.as_millis() / WHEEL_TICK.as_millis()) as usize + 1;
        // Beyond-horizon deadlines park in the farthest slot and
        // re-insert when it comes around.
        let ticks = ticks.clamp(1, WHEEL_SLOTS - 1);
        let slot = (self.cursor + ticks) % WHEEL_SLOTS;
        self.slots[slot].push(WheelEntry { idx, seq, at });
        self.armed += 1;
    }

    /// Walks the cursor up to `now`, collecting due entries into `due`
    /// and re-parking the beyond-horizon ones.
    fn advance(&mut self, now: Instant, due: &mut Vec<(usize, u64)>) {
        if self.armed == 0 {
            // Nothing parked: re-anchor so the next insert measures its
            // delta from the present, not from before an unbounded wait.
            self.base = now;
            return;
        }
        while now.saturating_duration_since(self.base) >= WHEEL_TICK {
            self.base += WHEEL_TICK;
            self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
            let entries = std::mem::take(&mut self.slots[self.cursor]);
            for entry in entries {
                self.armed -= 1;
                if entry.at <= now {
                    due.push((entry.idx, entry.seq));
                } else {
                    self.insert(entry.idx, entry.seq, entry.at);
                }
            }
            if self.armed == 0 {
                self.base = now;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_fires_due_entries_and_reparks_far_ones() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(start);
        assert_eq!(wheel.next_timeout(), None);
        // One near deadline (2 ticks out) and one far beyond the horizon.
        wheel.insert(1, 10, start + WHEEL_TICK * 2);
        wheel.insert(2, 20, start + WHEEL_TICK * (WHEEL_SLOTS as u32 * 2));
        assert_eq!(wheel.next_timeout(), Some(WHEEL_TICK));

        let mut due = Vec::new();
        wheel.advance(start + WHEEL_TICK * 3, &mut due);
        assert_eq!(due, vec![(1, 10)]);

        // The far entry survives a full revolution without firing.
        due.clear();
        wheel.advance(start + WHEEL_TICK * (WHEEL_SLOTS as u32 + 10), &mut due);
        assert!(due.is_empty());
        assert_eq!(wheel.next_timeout(), Some(WHEEL_TICK));

        // …and fires once its real instant passes.
        wheel.advance(start + WHEEL_TICK * (WHEEL_SLOTS as u32 * 2 + 2), &mut due);
        assert_eq!(due, vec![(2, 20)]);
        assert_eq!(wheel.next_timeout(), None);
    }

    #[test]
    fn wheel_rebases_when_idle() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(start);
        // A long idle stretch with nothing armed must not age the base.
        let later = start + Duration::from_secs(60);
        let mut due = Vec::new();
        wheel.advance(later, &mut due);
        wheel.insert(7, 1, later + WHEEL_TICK * 3);
        wheel.advance(later + WHEEL_TICK, &mut due);
        assert!(due.is_empty(), "re-anchored deadline must not fire early");
        wheel.advance(later + WHEEL_TICK * 4, &mut due);
        assert_eq!(due, vec![(7, 1)]);
    }
}
