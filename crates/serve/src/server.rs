//! The thread-per-core serving loop.
//!
//! One acceptor thread deals incoming connections round-robin to `N`
//! worker threads. Each worker owns two things for its whole life:
//!
//! * **its connections** — it alone reads their sockets, decodes their
//!   frames, and writes their replies;
//! * **its shards** — base-forest shard `s` belongs to worker
//!   `s mod N`, and only that worker descends it.
//!
//! Point lookups (`Get`) are therefore *handed off*: the connection's
//! worker routes the key, and if the owning shard belongs to another
//! worker it pushes a job onto that worker's bounded handoff queue.
//! The owner drains its queue in batches and answers them with the
//! serial interleaved descent kernel
//! ([`Forest::search_batch_interleaved`](cobtree_search::Forest::search_batch_interleaved)),
//! so each shard is only ever walked by the core that keeps its hot
//! nodes in cache.
//!
//! A sorted `Batch` is scattered the same way and gathered into one
//! reply. The connection's worker plans it
//! (`ServeEngine::plan_batch`): one read view pinned for every part,
//! the probes cut at its shard fences. It queues each shard run another
//! worker owns on that worker's handoff queue, descends its own runs
//! while those are in flight, and keeps the batch in a table of pending
//! batches until the last part comes back. `Batch` never answers
//! `BUSY`: a part the owner's queue refuses, and every part of a batch
//! from a connection already at its in-flight cap, is descended by the
//! connection's worker. Every other opcode executes inline on the
//! connection's own worker.
//!
//! No thread sleeps on a timer. A worker whose iteration did no work
//! announces that it is going idle, takes one more non-blocking pass,
//! and then blocks in `poll(2)` on its wake descriptor plus its
//! connections:
//!
//! * `POLLIN` on a connection unless its peer has sent EOF or its unsent
//!   replies have reached `write_buffer_cap`;
//! * `POLLOUT` only while reply bytes are unsent;
//! * a connection that wants neither is left out, so a hung-up peer
//!   cannot make `poll` return at once forever.
//!
//! The wait ends at the nearest write-stall deadline, or after a fixed
//! 100-ms backstop at the latest. Work that reaches a worker by any other
//! route comes with one wake byte from whoever handed it over, written
//! only if the target has announced, so a saturated worker's peers make
//! no wake calls:
//!
//! * the worker that queues a handoff wakes the shard's owner;
//! * the owner wakes each origin worker once per batch of completions;
//! * the acceptor wakes the worker it deals a connection to;
//! * a lifecycle change (the `SHUTDOWN` op, [`Server::shutdown`],
//!   [`Server::abort`], drop) wakes every thread, and so does a
//!   connection retired while draining, since each worker waits for the
//!   last connection to go.
//!
//! The acceptor blocks the same way, on the listener and its own wake
//! descriptor.
//!
//! Overload never buffers without bound:
//!
//! * a full handoff queue or a connection at its in-flight cap replies
//!   [`Status::Busy`] to a `Get` immediately;
//! * a handed-off job past its deadline is shed with
//!   [`Status::Timeout`] instead of being descended (a shed batch part
//!   makes its whole batch answer `TIMEOUT`);
//! * a connection whose peer stops reading (write buffer stalled past
//!   `write_stall_timeout`) is closed rather than allowed to wedge its
//!   worker.
//!
//! Shutdown comes in two flavours: [`Server::shutdown`] drains — the
//! acceptor stops, in-flight requests finish, late arrivals get
//! [`Status::ShuttingDown`], and the tiered memtable is flushed —
//! while [`Server::abort`] kills the threads with work still queued,
//! deliberately simulating a crash for the recovery tests.

use crate::engine::{BatchPlan, ServeEngine};
use crate::net::{Addr, NetListener, NetStream};
use crate::wake::{PollFd, Wake, POLLIN, POLLOUT};
use cobtree_core::protocol::{
    decode_request, encode_error, encode_ok, latency_bucket, peek_opcode, peek_req_id,
    FrameDecoder, Opcode, Reply, Request, StatsSnapshot, Status, LATENCY_BUCKETS,
};
use cobtree_core::{Error, Result};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server lifecycle states (stored in one shared atomic).
const RUNNING: u8 = 0;
/// Draining: no new connections/requests, in-flight work finishes.
const DRAINING: u8 = 1;
/// Killed: threads exit as fast as possible, work is abandoned.
const KILLED: u8 = 2;

/// Longest a blocked worker or acceptor waits without a socket event or
/// a wake. Nothing relies on it, since every hand-over wakes its target;
/// it bounds the cost of a wake some future change forgets.
const BACKSTOP: Duration = Duration::from_millis(100);

/// Capacity of each worker's bounded handoff queue; a full queue
/// refuses a `Get` with `BUSY` instead of buffering, and leaves a
/// batch part to the connection's own worker.
const HANDOFF_QUEUE: usize = 4096;

/// Interleave width for the batched descent kernel.
const BATCH_WIDTH: usize = 8;

/// The lifecycle state plus every serving thread's wake descriptor,
/// shared by the workers, the acceptor and the [`Server`] handle.
struct Control {
    state: AtomicU8,
    /// Worker `i`'s descriptor at index `i`, the acceptor's last.
    wakes: Vec<Wake>,
}

impl Control {
    fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    /// Moves to `state` and wakes every thread to act on it.
    fn set_state(&self, state: u8) {
        self.state.store(state, Ordering::Release);
        self.wake_all();
    }

    fn wake_all(&self) {
        for wake in &self.wakes {
            wake.notify();
        }
    }
}

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker thread count; 0 means one per available core (capped
    /// at 8 — beyond that loopback serving is accept-bound anyway).
    pub workers: usize,
    /// Max handed-off lookups a single connection may have in flight
    /// before further `Get`s are refused with `BUSY`. A batch waiting
    /// on other workers counts once; a batch arriving at the cap is
    /// answered by the connection's own worker.
    pub inflight_per_conn: usize,
    /// Deadline for handed-off lookups and batch parts, measured from
    /// decode; jobs past it are shed with `TIMEOUT`. Zero sheds every
    /// handoff — degenerate, but deterministic for tests.
    pub op_timeout: Duration,
    /// Group-commit mode: when true, `Insert`/`Remove` acks are held
    /// until the memtable has been flushed to durable shards, so every
    /// acknowledged write survives a crash.
    pub durable_writes: bool,
    /// How long a connection's write buffer may sit unflushable (peer
    /// not reading) before the connection is dropped.
    pub write_stall_timeout: Duration,
    /// Pending-reply bytes above which a connection's socket stops
    /// being read (backpressure on pipelining clients).
    pub write_buffer_cap: usize,
    /// Background scrub cadence: every interval a low-priority thread
    /// re-verifies `scrub_shards_per_pass` shard files against their
    /// checksums and quarantines any that fail. `None` disables the
    /// scrubber.
    pub scrub_interval: Option<Duration>,
    /// Shard files re-verified per scrub tick; 0 scans the whole
    /// forest each tick.
    pub scrub_shards_per_pass: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            inflight_per_conn: 256,
            op_timeout: Duration::from_secs(1),
            durable_writes: false,
            write_stall_timeout: Duration::from_secs(2),
            write_buffer_cap: 1 << 20,
            scrub_interval: None,
            scrub_shards_per_pass: 1,
        }
    }
}

impl ServerConfig {
    /// The worker count `start` will actually spawn.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map_or(2, |n| n.get().min(8))
    }
}

// ---------------------------------------------------------------------
// Live counters
// ---------------------------------------------------------------------

/// The server's live counters; scraped lock-free by the `Stats` opcode
/// and by [`Server::stats`].
struct Counters {
    requests: AtomicU64,
    responses: AtomicU64,
    busy: AtomicU64,
    timeouts: AtomicU64,
    bad_requests: AtomicU64,
    unavail: AtomicU64,
    frame_errors: AtomicU64,
    connections_opened: AtomicU64,
    connections_closed: AtomicU64,
    handoffs: AtomicU64,
    queue_depth: AtomicU64,
    /// Connections accepted but not yet retired — includes ones still
    /// in transit to their worker, so drain can wait on this alone.
    live_conns: AtomicU64,
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Counters {
    fn new() -> Self {
        Counters {
            requests: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            unavail: AtomicU64::new(0),
            frame_errors: AtomicU64::new(0),
            connections_opened: AtomicU64::new(0),
            connections_closed: AtomicU64::new(0),
            handoffs: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            live_conns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn snapshot(&self) -> StatsSnapshot {
        let mut s = StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            unavail: self.unavail.load(Ordering::Relaxed),
            frame_errors: self.frame_errors.load(Ordering::Relaxed),
            connections_opened: self.connections_opened.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            handoffs: self.handoffs.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            ..StatsSnapshot::default()
        };
        for (slot, b) in s.latency_buckets.iter_mut().zip(&self.buckets) {
            *slot = b.load(Ordering::Relaxed);
        }
        s
    }

    /// Books one response: the status tally and the service-time
    /// histogram bucket.
    fn respond(&self, status: Status, elapsed: Duration) {
        self.responses.fetch_add(1, Ordering::Relaxed);
        let counter = match status {
            Status::Busy => Some(&self.busy),
            Status::Timeout => Some(&self.timeouts),
            Status::BadRequest => Some(&self.bad_requests),
            Status::Unavail => Some(&self.unavail),
            _ => None,
        };
        if let Some(c) = counter {
            c.fetch_add(1, Ordering::Relaxed);
        }
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[latency_bucket(ns)].fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Worker-to-worker messages
// ---------------------------------------------------------------------

/// Work handed off to the worker that owns a shard.
struct Job {
    /// Worker that owns the requesting connection.
    origin: usize,
    /// Shed the job with `TIMEOUT` past this instant.
    deadline: Instant,
    task: Task,
}

/// What a [`Job`] asks the shard's owner to do.
enum Task {
    Get(Lookup),
    /// One shard run of a batch pending on the origin worker; boxed so
    /// a `Get` job stays as small as it was before batches were handed
    /// off.
    Part(Box<Part>),
}

/// A handed-off point lookup.
struct Lookup {
    /// Connection id within the origin worker.
    conn: u64,
    /// Client request id to echo.
    req_id: u32,
    /// Probe key.
    key: u64,
    /// Decode time — latency is measured from here.
    t0: Instant,
}

/// One part of a [`PendingBatch`], descended by its shard's owner.
struct Part {
    /// Pending-batch id within the origin worker.
    batch: u64,
    /// Index of the part in `plan`.
    index: usize,
    plan: Arc<BatchPlan>,
}

/// A finished handoff travelling back to the origin worker.
enum Done {
    Get(Lookup, std::result::Result<Reply, Status>),
    /// A batch part's positions (`BatchPlan::descend`), or `None`
    /// when the part was shed past its deadline.
    Part {
        batch: u64,
        index: usize,
        found: Option<Vec<Option<u64>>>,
    },
}

/// A `BATCH` whose foreign parts are out on their owners' queues: the
/// origin worker keeps it until the last part comes back, then writes
/// the one reply.
struct PendingBatch {
    conn: u64,
    req_id: u32,
    t0: Instant,
    plan: Arc<BatchPlan>,
    /// Each part's positions, in part order.
    found: Vec<Vec<Option<u64>>>,
    /// Parts not yet back.
    outstanding: usize,
    /// A part was shed: the batch answers `TIMEOUT`.
    shed: bool,
}

/// One live connection, owned by exactly one worker.
struct Conn {
    stream: NetStream,
    decoder: FrameDecoder,
    /// Encoded-but-unsent reply bytes.
    out: Vec<u8>,
    /// Prefix of `out` already written to the socket.
    written: usize,
    /// Handed-off lookups and pending batches awaiting their `Done`s.
    inflight: usize,
    /// Peer sent EOF; close once in-flight work and writes finish.
    closing: bool,
    /// Set while `out` has unsent bytes; cleared on write progress.
    stalled_since: Option<Instant>,
}

impl Conn {
    /// Reply bytes not yet written to the socket.
    fn unsent(&self) -> usize {
        self.out.len() - self.written
    }

    /// Whether to read the socket: not after the peer's EOF, and not
    /// while `cap` reply bytes or more wait (backpressure on pipelining
    /// clients).
    fn reads(&self, cap: usize) -> bool {
        !self.closing && self.unsent() < cap
    }
}

/// A `Get` whose shard the connection's own worker owns: resolved
/// locally in the same iteration, no handoff.
struct LocalGet {
    conn: u64,
    req_id: u32,
    t0: Instant,
    key: u64,
}

/// A write applied to the engine whose ack is deferred to the
/// group-commit flush at the end of the iteration.
struct WriteAck {
    conn: u64,
    req_id: u32,
    t0: Instant,
    opcode: Opcode,
    result: std::result::Result<Reply, Status>,
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

struct Worker {
    index: usize,
    workers: usize,
    engine: ServeEngine,
    cfg: ServerConfig,
    ctl: Arc<Control>,
    stats: Arc<Counters>,
    conn_rx: Receiver<NetStream>,
    handoff_rx: Receiver<Job>,
    handoff_tx: Vec<SyncSender<Job>>,
    done_rx: Receiver<Done>,
    done_tx: Vec<Sender<Done>>,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    /// Batches with parts out on other workers, by id.
    batches: HashMap<u64, PendingBatch>,
    next_batch: u64,
    /// Whether the current iteration moved any bytes or jobs (after two
    /// idle iterations the worker blocks in `poll`).
    active: bool,
}

/// Encodes the response for one finished request into the
/// connection's write buffer and books the counters.
fn finish(
    stats: &Counters,
    conn: &mut Conn,
    req_id: u32,
    opcode: Opcode,
    t0: Instant,
    result: std::result::Result<Reply, Status>,
) {
    let status = match &result {
        Ok(_) => Status::Ok,
        Err(s) => *s,
    };
    match result {
        Ok(reply) => encode_ok(req_id, opcode, &reply, &mut conn.out),
        Err(s) => encode_error(req_id, opcode, s, &mut conn.out),
    }
    stats.respond(status, t0.elapsed());
}

impl Worker {
    fn run(mut self) {
        let mut locals: Vec<LocalGet> = Vec::new();
        let mut acks: Vec<WriteAck> = Vec::new();
        let mut fds: Vec<PollFd> = Vec::new();
        let mut announced = false;
        loop {
            self.active = false;
            let state = self.ctl.state();
            if state == KILLED {
                break;
            }
            self.adopt_conns();
            self.serve_handoffs();
            self.apply_completions();
            self.serve_conns(&mut locals, &mut acks, state == DRAINING);
            self.resolve_locals(&mut locals);
            self.commit_writes(&mut acks);
            if state == DRAINING
                && !self.active
                && self.conns.is_empty()
                && self.stats.live_conns.load(Ordering::Relaxed) == 0
            {
                break;
            }
            let wake = &self.ctl.wakes[self.index];
            if self.active {
                if announced {
                    wake.cancel();
                    announced = false;
                }
            } else if !announced {
                // The next iteration is the pass that catches work
                // handed over before the announcement.
                wake.announce();
                announced = true;
            } else {
                self.block(&mut fds);
                announced = false;
            }
        }
    }

    /// Blocks until a connection is ready for what this worker would do
    /// with it, a wake arrives, or the nearest write-stall deadline (at
    /// most [`BACKSTOP`] away) passes.
    fn block(&self, fds: &mut Vec<PollFd>) {
        fds.clear();
        let now = Instant::now();
        let mut timeout = BACKSTOP;
        for conn in self.conns.values() {
            let mut events = 0;
            if conn.reads(self.cfg.write_buffer_cap) {
                events |= POLLIN;
            }
            if conn.unsent() > 0 {
                events |= POLLOUT;
            }
            // Polling a connection that wants neither would still report
            // its hang-up, at once and forever.
            if events != 0 {
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            }
            if let Some(since) = conn.stalled_since {
                let deadline = since + self.cfg.write_stall_timeout;
                timeout = timeout.min(deadline.saturating_duration_since(now));
            }
        }
        self.ctl.wakes[self.index].wait(fds, Some(timeout));
    }

    /// Takes ownership of connections the acceptor dealt to this
    /// worker.
    fn adopt_conns(&mut self) {
        while let Ok(stream) = self.conn_rx.try_recv() {
            self.active = true;
            let id = self.next_conn;
            self.next_conn += 1;
            self.conns.insert(
                id,
                Conn {
                    stream,
                    decoder: FrameDecoder::new(),
                    out: Vec::new(),
                    written: 0,
                    inflight: 0,
                    closing: false,
                    stalled_since: None,
                },
            );
        }
    }

    /// Drains this worker's handoff queue and descends its own shards
    /// for every still-live job: the lookups batched through the
    /// interleaved kernel, then each batch part; then wakes each origin
    /// worker it sent a completion to.
    fn serve_handoffs(&mut self) {
        let mut jobs: Vec<Job> = Vec::new();
        while jobs.len() < HANDOFF_QUEUE {
            match self.handoff_rx.try_recv() {
                Ok(j) => jobs.push(j),
                Err(_) => break,
            }
        }
        if jobs.is_empty() {
            return;
        }
        self.active = true;
        self.stats
            .queue_depth
            .fetch_sub(jobs.len() as u64, Ordering::Relaxed);
        let now = Instant::now();
        let mut origins = vec![false; self.workers];
        let mut lookups = Vec::new();
        let mut parts = Vec::new();
        for j in jobs {
            origins[j.origin] = true;
            let expired = now > j.deadline;
            match j.task {
                Task::Get(get) if expired => {
                    let _ = self.done_tx[j.origin].send(Done::Get(get, Err(Status::Timeout)));
                }
                Task::Get(get) => lookups.push((j.origin, get)),
                Task::Part(part) => parts.push((j.origin, expired, part)),
            }
        }
        let mut replies = Vec::new();
        if !lookups.is_empty() {
            let keys: Vec<u64> = lookups.iter().map(|(_, get)| get.key).collect();
            self.engine.get_batch(&keys, BATCH_WIDTH, &mut replies);
        }
        for ((origin, get), result) in lookups.into_iter().zip(replies) {
            let _ = self.done_tx[origin].send(Done::Get(get, result));
        }
        for (origin, expired, part) in parts {
            let found = (!expired).then(|| part.plan.descend(part.index));
            let _ = self.done_tx[origin].send(Done::Part {
                batch: part.batch,
                index: part.index,
                found,
            });
        }
        for (wake, _) in self.ctl.wakes.iter().zip(origins).filter(|(_, sent)| *sent) {
            wake.notify();
        }
    }

    /// Books finished handoffs back onto their connections.
    fn apply_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            self.active = true;
            match done {
                Done::Get(get, result) => {
                    // The connection may have died while its lookup was
                    // queued elsewhere; the reply is then dropped on the
                    // floor.
                    if let Some(conn) = self.conns.get_mut(&get.conn) {
                        conn.inflight = conn.inflight.saturating_sub(1);
                        finish(&self.stats, conn, get.req_id, Opcode::Get, get.t0, result);
                    }
                }
                Done::Part {
                    batch,
                    index,
                    found,
                } => self.complete_part(batch, index, found),
            }
        }
    }

    /// Books one returned batch part; the last one writes the batch's
    /// reply, `TIMEOUT` if any part was shed.
    fn complete_part(&mut self, batch: u64, index: usize, found: Option<Vec<Option<u64>>>) {
        let Some(pending) = self.batches.get_mut(&batch) else {
            return;
        };
        match found {
            Some(found) => pending.found[index] = found,
            None => pending.shed = true,
        }
        pending.outstanding -= 1;
        if pending.outstanding > 0 {
            return;
        }
        let pending = self.batches.remove(&batch).expect("looked up above");
        // As for a lookup, a connection that died meanwhile drops the
        // reply.
        if let Some(conn) = self.conns.get_mut(&pending.conn) {
            conn.inflight = conn.inflight.saturating_sub(1);
            let result = if pending.shed {
                Err(Status::Timeout)
            } else {
                Ok(pending.plan.assemble(&pending.found))
            };
            finish(
                &self.stats,
                conn,
                pending.req_id,
                Opcode::Batch,
                pending.t0,
                result,
            );
        }
    }

    /// Reads, decodes, dispatches and flushes every owned connection.
    fn serve_conns(
        &mut self,
        locals: &mut Vec<LocalGet>,
        acks: &mut Vec<WriteAck>,
        draining: bool,
    ) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let Some(mut conn) = self.conns.remove(&id) else {
                continue;
            };
            if self.serve_one(id, &mut conn, locals, acks, draining) {
                self.conns.insert(id, conn);
            } else {
                self.retire(conn);
            }
        }
    }

    /// Services one connection; returns whether to keep it.
    fn serve_one(
        &mut self,
        id: u64,
        conn: &mut Conn,
        locals: &mut Vec<LocalGet>,
        acks: &mut Vec<WriteAck>,
        draining: bool,
    ) -> bool {
        // Read — unless the peer owes us a drained write buffer.
        if conn.reads(self.cfg.write_buffer_cap) {
            let mut scratch = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        conn.closing = true;
                        break;
                    }
                    Ok(n) => {
                        self.active = true;
                        conn.decoder.feed(&scratch[..n]);
                        if n < scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return false,
                }
            }
        }
        // Frame and dispatch.
        loop {
            match conn.decoder.next_frame() {
                Ok(Some(body)) => {
                    if !self.dispatch(id, conn, &body, locals, acks, draining) {
                        self.stats.frame_errors.fetch_add(1, Ordering::Relaxed);
                        return false;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Oversized length prefix: the stream is desynced
                    // beyond recovery.
                    self.stats.frame_errors.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
        // Flush pending replies.
        if !self.flush_conn(conn) {
            return false;
        }
        if let Some(since) = conn.stalled_since {
            if since.elapsed() > self.cfg.write_stall_timeout {
                // Peer stopped reading; shed the connection rather
                // than let it pin worker memory.
                return false;
            }
        }
        let drained = conn.inflight == 0 && conn.unsent() == 0;
        if (conn.closing || draining) && drained {
            return false;
        }
        true
    }

    /// Decodes one frame body and routes the request; returns `false`
    /// only for desync-level garbage that must close the connection.
    fn dispatch(
        &mut self,
        id: u64,
        conn: &mut Conn,
        body: &[u8],
        locals: &mut Vec<LocalGet>,
        acks: &mut Vec<WriteAck>,
        draining: bool,
    ) -> bool {
        self.active = true;
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let (req_id, req) = match decode_request(body) {
            Ok(decoded) => decoded,
            Err(_) => {
                // A malformed body is survivable when we can still tell
                // which request to refuse; anything shorter than a
                // header (or with an opcode we do not know) means the
                // stream is desynced.
                match (peek_req_id(body), peek_opcode(body)) {
                    (Some(req_id), Some(op)) => {
                        finish(&self.stats, conn, req_id, op, t0, Err(Status::BadRequest));
                        return true;
                    }
                    _ => return false,
                }
            }
        };
        let op = req.opcode();
        if draining {
            finish(&self.stats, conn, req_id, op, t0, Err(Status::ShuttingDown));
            return true;
        }
        match req {
            Request::Get { key } => self.dispatch_get(id, conn, req_id, key, t0, locals),
            Request::Batch { keys } => self.dispatch_batch(id, conn, req_id, keys, t0),
            Request::Insert { key } | Request::Remove { key } => {
                let remove = op == Opcode::Remove;
                acks.push(WriteAck {
                    conn: id,
                    req_id,
                    t0,
                    opcode: op,
                    result: self.engine.write(key, remove),
                });
            }
            other => {
                let result = self.answer_inline(other);
                finish(&self.stats, conn, req_id, op, t0, result);
            }
        }
        true
    }

    /// Routes one point lookup: local shard → same-iteration batch,
    /// foreign shard → bounded handoff (or `BUSY`), unrouteable key
    /// (memtable-only or out of every fence interval) → immediate
    /// answer from the full engine.
    fn dispatch_get(
        &mut self,
        id: u64,
        conn: &mut Conn,
        req_id: u32,
        key: u64,
        t0: Instant,
        locals: &mut Vec<LocalGet>,
    ) {
        let Some(shard) = self.engine.route_shard(key) else {
            let reply = self.engine.get(key);
            finish(&self.stats, conn, req_id, Opcode::Get, t0, reply);
            return;
        };
        let owner = shard % self.workers;
        if owner == self.index {
            locals.push(LocalGet {
                conn: id,
                req_id,
                t0,
                key,
            });
            return;
        }
        if conn.inflight >= self.cfg.inflight_per_conn {
            finish(
                &self.stats,
                conn,
                req_id,
                Opcode::Get,
                t0,
                Err(Status::Busy),
            );
            return;
        }
        let job = Job {
            origin: self.index,
            deadline: t0 + self.cfg.op_timeout,
            task: Task::Get(Lookup {
                conn: id,
                req_id,
                key,
                t0,
            }),
        };
        match self.handoff_tx[owner].try_send(job) {
            Ok(()) => {
                self.ctl.wakes[owner].notify();
                conn.inflight += 1;
                self.stats.handoffs.fetch_add(1, Ordering::Relaxed);
                self.stats.queue_depth.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(_)) => {
                finish(
                    &self.stats,
                    conn,
                    req_id,
                    Opcode::Get,
                    t0,
                    Err(Status::Busy),
                );
            }
            Err(TrySendError::Disconnected(_)) => {
                finish(
                    &self.stats,
                    conn,
                    req_id,
                    Opcode::Get,
                    t0,
                    Err(Status::ShuttingDown),
                );
            }
        }
    }

    /// Scatters one sorted batch over its shard owners: plans it (one
    /// pinned read view, cut at the shard fences), queues every part a
    /// different worker owns on that worker's handoff queue, descends
    /// the rest here while those are in flight, and parks the batch in
    /// `batches` until the last part comes back. A part the owner's
    /// queue refuses runs here instead, and a connection already at its
    /// in-flight cap has the whole batch answered here, so `BATCH`
    /// never answers `BUSY`.
    fn dispatch_batch(
        &mut self,
        id: u64,
        conn: &mut Conn,
        req_id: u32,
        keys: Vec<u64>,
        t0: Instant,
    ) {
        let plan = match self.engine.plan_batch(keys) {
            Ok(plan) => Arc::new(plan),
            Err(status) => {
                finish(&self.stats, conn, req_id, Opcode::Batch, t0, Err(status));
                return;
            }
        };
        let batch = self.next_batch;
        let fan_out = conn.inflight < self.cfg.inflight_per_conn;
        let mut outstanding = 0;
        let mut local = Vec::new();
        for index in 0..plan.parts() {
            let owner = plan.shard(index) % self.workers;
            if fan_out && owner != self.index {
                let job = Job {
                    origin: self.index,
                    deadline: t0 + self.cfg.op_timeout,
                    task: Task::Part(Box::new(Part {
                        batch,
                        index,
                        plan: Arc::clone(&plan),
                    })),
                };
                if self.handoff_tx[owner].try_send(job).is_ok() {
                    self.ctl.wakes[owner].notify();
                    self.stats.queue_depth.fetch_add(1, Ordering::Relaxed);
                    outstanding += 1;
                    continue;
                }
            }
            local.push(index);
        }
        let mut found = vec![Vec::new(); plan.parts()];
        for index in local {
            found[index] = plan.descend(index);
        }
        if outstanding == 0 {
            let reply = plan.assemble(&found);
            finish(&self.stats, conn, req_id, Opcode::Batch, t0, Ok(reply));
            return;
        }
        conn.inflight += 1;
        self.next_batch += 1;
        self.batches.insert(
            batch,
            PendingBatch {
                conn: id,
                req_id,
                t0,
                plan,
                found,
                outstanding,
                shed: false,
            },
        );
    }

    /// Executes an opcode that needs no handoff and no group commit.
    fn answer_inline(&self, req: Request) -> std::result::Result<Reply, Status> {
        match req {
            Request::Ping => Ok(Reply::Applied { applied: true }),
            Request::LowerBound { key } => self.engine.bound(key, false),
            Request::UpperBound { key } => self.engine.bound(key, true),
            Request::Rank { key } => self.engine.rank(key),
            Request::Select { rank } => self.engine.select(rank),
            Request::Range { lo, hi, limit } => self.engine.range(lo, hi, limit),
            Request::Flush => self.engine.flush(),
            // The planner runs on this worker's thread: Reopt is an
            // explicit admin op, so its cost lands on the connection
            // that asked for it, never on the serving hot path.
            Request::Reopt => self.engine.reopt(),
            Request::Stats => {
                let mut snap = self.stats.snapshot();
                (snap.sampled_reads, snap.reopt_scans, snap.reopt_swaps) =
                    self.engine.adaptive_counters();
                (snap.scrub_passes, snap.quarantined_shards, snap.heals) =
                    self.engine.health_counters();
                Ok(Reply::Stats(Box::new(snap)))
            }
            Request::Shutdown => {
                self.ctl.set_state(DRAINING);
                Ok(Reply::Applied { applied: true })
            }
            Request::Get { .. }
            | Request::Batch { .. }
            | Request::Insert { .. }
            | Request::Remove { .. } => unreachable!("routed before answer_inline"),
        }
    }

    /// Answers the iteration's own-shard lookups in one interleaved
    /// batch.
    fn resolve_locals(&mut self, locals: &mut Vec<LocalGet>) {
        if locals.is_empty() {
            return;
        }
        self.active = true;
        let keys: Vec<u64> = locals.iter().map(|l| l.key).collect();
        let mut replies = Vec::new();
        self.engine.get_batch(&keys, BATCH_WIDTH, &mut replies);
        for (l, reply) in locals.drain(..).zip(replies) {
            if let Some(conn) = self.conns.get_mut(&l.conn) {
                finish(&self.stats, conn, l.req_id, Opcode::Get, l.t0, reply);
            }
        }
    }

    /// Group commit: one memtable flush covers every write applied
    /// this iteration, then all their acks are released.
    fn commit_writes(&mut self, acks: &mut Vec<WriteAck>) {
        if acks.is_empty() {
            return;
        }
        self.active = true;
        let mut flush_failed = false;
        if self.cfg.durable_writes && acks.iter().any(|a| a.result.is_ok()) {
            flush_failed = self.engine.flush().is_err();
        }
        for a in acks.drain(..) {
            let result = if flush_failed && a.result.is_ok() {
                // The write sits in the memtable but is not durable;
                // the client must not treat it as committed.
                Err(Status::Internal)
            } else {
                a.result
            };
            if let Some(conn) = self.conns.get_mut(&a.conn) {
                finish(&self.stats, conn, a.req_id, a.opcode, a.t0, result);
            }
        }
    }

    /// Writes as much pending reply data as the socket accepts;
    /// returns `false` on a dead socket.
    fn flush_conn(&mut self, conn: &mut Conn) -> bool {
        while conn.written < conn.out.len() {
            match conn.stream.write(&conn.out[conn.written..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.active = true;
                    conn.written += n;
                    conn.stalled_since = None;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        if conn.written == conn.out.len() {
            conn.out.clear();
            conn.written = 0;
            conn.stalled_since = None;
        } else if conn.stalled_since.is_none() {
            conn.stalled_since = Some(Instant::now());
        }
        true
    }

    /// Books a closed connection. While draining, every worker waits
    /// for the last live connection to go, so each is woken to re-check.
    fn retire(&mut self, conn: Conn) {
        conn.stream.shutdown_write();
        self.stats
            .connections_closed
            .fetch_add(1, Ordering::Relaxed);
        self.stats.live_conns.fetch_sub(1, Ordering::Relaxed);
        if self.ctl.state() != RUNNING {
            self.ctl.wake_all();
        }
    }
}

// ---------------------------------------------------------------------
// Acceptor
// ---------------------------------------------------------------------

/// Accepts connections and deals them round-robin, waking the worker
/// dealt to. With nothing to accept it announces, re-checks the state
/// and blocks in `poll` on the listener and its own wake descriptor.
fn run_acceptor(
    listener: NetListener,
    ctl: &Control,
    stats: &Counters,
    conn_tx: &[Sender<NetStream>],
) {
    let wake = ctl
        .wakes
        .last()
        .expect("the acceptor's wake follows the workers'");
    let mut fds: Vec<PollFd> = Vec::new();
    let mut next = 0usize;
    while ctl.state() == RUNNING {
        match listener.accept() {
            Ok(Some(stream)) => {
                let _ = stream.set_nonblocking(true);
                stream.set_nodelay();
                stats.connections_opened.fetch_add(1, Ordering::Relaxed);
                stats.live_conns.fetch_add(1, Ordering::Relaxed);
                let worker = next % conn_tx.len();
                if conn_tx[worker].send(stream).is_ok() {
                    ctl.wakes[worker].notify();
                } else {
                    stats.live_conns.fetch_sub(1, Ordering::Relaxed);
                    stats.connections_closed.fetch_add(1, Ordering::Relaxed);
                    // Draining workers wait for the live count to reach 0.
                    ctl.wake_all();
                }
                next = next.wrapping_add(1);
            }
            Ok(None) => {
                wake.announce();
                if ctl.state() != RUNNING {
                    break;
                }
                fds.clear();
                fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
                wake.wait(&mut fds, Some(BACKSTOP));
            }
            // Back off from persistent failures such as running out of
            // descriptors.
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

// ---------------------------------------------------------------------
// Scrubber
// ---------------------------------------------------------------------

/// Low-priority background scrub loop: every `interval` it re-verifies
/// `budget` shard files against their stored checksums and quarantines
/// any that fail. Sleeps in short slices so shutdown is never delayed
/// by a long interval.
fn run_scrubber(engine: &ServeEngine, state: &AtomicU8, interval: Duration, budget: usize) {
    let slice = Duration::from_millis(20);
    while state.load(Ordering::Acquire) == RUNNING {
        let _ = engine.scrub_step(budget);
        let mut left = interval;
        while !left.is_zero() && state.load(Ordering::Acquire) == RUNNING {
            let step = left.min(slice);
            std::thread::sleep(step);
            left = left.saturating_sub(step);
        }
    }
}

// ---------------------------------------------------------------------
// Server handle
// ---------------------------------------------------------------------

/// A running server: the acceptor plus its worker threads.
///
/// Dropping the handle without calling [`Server::shutdown`] kills the
/// threads abruptly (same as [`Server::abort`]).
pub struct Server {
    addr: Addr,
    engine: ServeEngine,
    ctl: Arc<Control>,
    stats: Arc<Counters>,
    acceptor: Option<JoinHandle<()>>,
    scrubber: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `spec` (`tcp:HOST:PORT`, `unix:PATH`, or bare
    /// `HOST:PORT`) and starts serving `engine`.
    ///
    /// # Errors
    /// Address parse and bind/listen failures.
    pub fn start(engine: ServeEngine, spec: &str, cfg: ServerConfig) -> Result<Server> {
        let addr = Addr::parse(spec)?;
        let listener = NetListener::bind(&addr)?;
        let bound = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let workers = cfg.effective_workers();
        let wakes = (0..=workers)
            .map(|_| Wake::new())
            .collect::<std::io::Result<Vec<Wake>>>()
            .map_err(|e| Error::io(&e))?;
        let ctl = Arc::new(Control {
            state: AtomicU8::new(RUNNING),
            wakes,
        });
        let stats = Arc::new(Counters::new());

        let mut conn_txs = Vec::with_capacity(workers);
        let mut conn_rxs = Vec::with_capacity(workers);
        let mut handoff_txs = Vec::with_capacity(workers);
        let mut handoff_rxs = Vec::with_capacity(workers);
        let mut done_txs = Vec::with_capacity(workers);
        let mut done_rxs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (ctx, crx) = mpsc::channel::<NetStream>();
            conn_txs.push(ctx);
            conn_rxs.push(crx);
            let (htx, hrx) = mpsc::sync_channel::<Job>(HANDOFF_QUEUE);
            handoff_txs.push(htx);
            handoff_rxs.push(hrx);
            let (dtx, drx) = mpsc::channel::<Done>();
            done_txs.push(dtx);
            done_rxs.push(drx);
        }

        let mut handles = Vec::with_capacity(workers);
        for (index, (conn_rx, (handoff_rx, done_rx))) in conn_rxs
            .into_iter()
            .zip(handoff_rxs.into_iter().zip(done_rxs))
            .enumerate()
        {
            let worker = Worker {
                index,
                workers,
                engine: engine.clone(),
                cfg: cfg.clone(),
                ctl: Arc::clone(&ctl),
                stats: Arc::clone(&stats),
                conn_rx,
                handoff_rx,
                handoff_tx: handoff_txs.clone(),
                done_rx,
                done_tx: done_txs.clone(),
                conns: HashMap::new(),
                next_conn: 0,
                batches: HashMap::new(),
                next_batch: 0,
                active: false,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{index}"))
                    .spawn(move || worker.run())
                    .expect("spawn worker thread"),
            );
        }
        // The worker structs own the cross-worker sender clones; the
        // originals must drop so channels disconnect when workers exit.
        drop(handoff_txs);
        drop(done_txs);

        let acceptor = {
            let ctl = Arc::clone(&ctl);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("serve-acceptor".to_string())
                .spawn(move || run_acceptor(listener, &ctl, &stats, &conn_txs))
                .expect("spawn acceptor thread")
        };

        let mut scrubber = None;
        if let Some(interval) = cfg.scrub_interval {
            let ctl = Arc::clone(&ctl);
            let engine = engine.clone();
            let budget = cfg.scrub_shards_per_pass;
            scrubber = Some(
                std::thread::Builder::new()
                    .name("serve-scrub".to_string())
                    .spawn(move || run_scrubber(&engine, &ctl.state, interval, budget))
                    .expect("spawn scrub thread"),
            );
        }

        Ok(Server {
            addr: bound,
            engine,
            ctl,
            stats,
            acceptor: Some(acceptor),
            scrubber,
            workers: handles,
        })
    }

    /// The actually-bound address (TCP port 0 resolved).
    #[must_use]
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// A live counter snapshot — the same data the `Stats` opcode
    /// returns over the wire.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        let mut snap = self.stats.snapshot();
        (snap.sampled_reads, snap.reopt_scans, snap.reopt_swaps) = self.engine.adaptive_counters();
        (snap.scrub_passes, snap.quarantined_shards, snap.heals) = self.engine.health_counters();
        snap
    }

    /// Whether a client's `Shutdown` request has moved the server out
    /// of the running state.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.ctl.state() != RUNNING
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.scrubber.take() {
            let _ = h.join();
        }
        for h in std::mem::take(&mut self.workers) {
            let _ = h.join();
        }
        NetListener::cleanup(&self.addr);
    }

    /// Graceful shutdown: stops accepting, finishes in-flight
    /// requests (late arrivals get `SHUTTING_DOWN`), joins every
    /// thread, flushes the tiered memtable, and returns the final
    /// counter snapshot.
    ///
    /// # Errors
    /// The final memtable flush failing.
    pub fn shutdown(mut self) -> Result<StatsSnapshot> {
        self.ctl.set_state(DRAINING);
        self.join_threads();
        if let ServeEngine::Tiered(t) = &self.engine {
            t.flush()?;
        }
        Ok(self.stats.snapshot())
    }

    /// Hard kill: threads exit without draining queues or flushing the
    /// memtable — from the store's point of view this is a crash, and
    /// the recovery tests use it as one.
    pub fn abort(mut self) {
        self.ctl.set_state(KILLED);
        self.join_threads();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.ctl.set_state(KILLED);
        self.join_threads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Handing batch parts off must not grow a lookup's job: the part is
    /// boxed, so a `Job` is no larger than the fields a lookup job
    /// carried before (origin, conn, req id, key, decode time,
    /// deadline).
    #[test]
    fn lookup_job_keeps_its_size() {
        let before = std::mem::size_of::<(usize, u64, u32, u64, Instant, Instant)>();
        assert!(
            std::mem::size_of::<Job>() <= before,
            "Job is {} bytes, a lookup job was {before}",
            std::mem::size_of::<Job>()
        );
    }
}
