//! The wire run: boots `cobtree-serve` with the tiered engine on
//! loopback, drives one workload's stream over at most two connections
//! (one generator thread each) and checks every answer.
//!
//! Open-loop requests are timed from their scheduled arrival, so a
//! stall is charged to every request it delays; the generator waits on
//! its socket until the next send is due (no fixed sleep) and records
//! how late each send went out. Closed-loop and window-saturated
//! requests are timed from their send.
//!
//! A `BUSY`, `TIMEOUT` or `UNAVAIL` answer is retried as
//! `cobtree_serve::Client` does ([`RetryPolicy`]: up to 5 retries,
//! jittered exponential backoff from 2 ms); the request's latency runs
//! to its final answer, and it fails only when the retries run out.
//!
//! The server runs with its default admission settings (256 handed-off
//! lookups in flight per connection, default per-op timeout). The
//! generator keeps at most that many requests outstanding per
//! connection, as a client that knows the server's cap does: during a
//! host stall, due sends wait in the generator rather than draw `BUSY`
//! refusals whose retries could run out. Those sends are still timed
//! from their due time, so the stall shows in the tail, and are counted
//! in `gen.held`.
//!
//! Every run starts with a second of untimed load, so the mapped
//! store's pages have faulted in before anything is timed.

use crate::workload::{Op, Stream, Workload, SHARDS};
use cobtree_core::protocol::{
    decode_response, encode_request, FrameDecoder, Opcode, Reply, Request, Response, StatsSnapshot,
    Status,
};
use cobtree_serve::RetryPolicy;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Width of the windows saturated throughput is counted over.
const RATE_WINDOW: Duration = Duration::from_millis(100);
/// Width of the windows per-window latency percentiles (a diagnostic)
/// are taken over.
const LATENCY_WINDOW: Duration = Duration::from_secs(1);
/// Stream index of the first warm-up request; far above any measured
/// request, so warm-up never touches the replayed prefix.
const WARMUP_BASE: u64 = 1 << 40;
/// Requests each connection keeps in flight when saturated.
const WINDOW: usize = 64;
/// Request id of control calls (ping, stats, shutdown).
const CONTROL_ID: u32 = u32::MAX;
/// Requests a connection keeps outstanding at most: the server's
/// default cap on handed-off lookups per connection, so no lookup is
/// refused with `BUSY` for want of room.
const ADMISSION: usize = 256;
/// How long the run waits for its last replies before counting the
/// rest as lost.
const DRAIN: Duration = Duration::from_secs(2);
/// Longest single wait on a socket, so phase deadlines are noticed.
const MAX_WAIT: Duration = Duration::from_millis(5);

type Res<T> = Result<T, String>;

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------------
// Waiting on a socket
// ---------------------------------------------------------------------

mod sys {
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    const POLLIN: c_short = 0x1;
    const POLLOUT: c_short = 0x4;
    const PR_SET_TIMERSLACK: c_int = 29;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        fn prctl(option: c_int, ...) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }

    /// Pins thread `tid` (0: the calling thread) to CPU `cpu`; returns
    /// whether the kernel accepted it.
    pub fn pin(tid: c_int, cpu: usize) -> bool {
        let mut mask = [0u64; 16];
        mask[cpu / 64 % 16] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a live buffer of the size passed (that of
        // the C `cpu_set_t`), which the call only reads.
        unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }

    /// Blocks until `fd` is readable (or writable, when `writable`) or
    /// `timeout` has passed. Interruptions just return early; callers
    /// re-check their clocks.
    pub fn wait(fd: c_int, writable: bool, timeout: Duration) {
        let mut p = PollFd {
            fd,
            events: POLLIN | if writable { POLLOUT } else { 0 },
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: timeout.as_secs() as c_long,
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `p` and `ts` are live locals laid out as the C
        // `struct pollfd` and `struct timespec` for the whole call, nfds
        // is 1, and a null sigmask leaves the signal mask unchanged.
        unsafe { ppoll(&mut p, 1, &ts, std::ptr::null()) };
    }

    /// Sets this thread's timer slack to 1 ns, so timed waits wake when
    /// asked instead of up to 50 µs later.
    pub fn tight_timer_slack() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and changes
        // only the calling thread's timer slack.
        unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
    }
}

// ---------------------------------------------------------------------
// The server process
// ---------------------------------------------------------------------

/// A running `cobtree-serve` child. Dropping it kills the process and
/// removes its store directory.
pub struct ServerProc {
    child: Child,
    addr: String,
    dir: Option<PathBuf>,
    // Held so the child's stdout stays open for its whole life.
    _stdout: BufReader<ChildStdout>,
}

/// Connects to `addr` with Nagle off.
fn connect(addr: &str) -> Res<TcpStream> {
    let conn = TcpStream::connect(addr).map_err(io_err("connect"))?;
    conn.set_nodelay(true).map_err(io_err("nodelay"))?;
    Ok(conn)
}

impl ServerProc {
    /// Boots the server for `w` (store in `dir` when path-backed) and
    /// returns it, a connection that has seen its first `PING` answered,
    /// and the seconds from spawn to that answer.
    pub fn boot(
        bin: &Path,
        w: &Workload,
        dir: Option<PathBuf>,
    ) -> Res<(ServerProc, TcpStream, f64)> {
        if let Some(d) = &dir {
            let _ = std::fs::remove_dir_all(d);
            std::fs::create_dir_all(d).map_err(io_err("create store dir"))?;
        }
        let t0 = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.args([
            "--listen",
            "tcp:127.0.0.1:0",
            "--engine",
            "tiered",
            "--workers",
            "2",
        ])
        .args([
            "--shards",
            &SHARDS.to_string(),
            "--keys",
            &w.keys.to_string(),
        ]);
        if let Some(d) = &dir {
            cmd.arg("--path").arg(d);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(io_err("spawn cobtree-serve"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = ServerProc {
            child,
            addr: String::new(),
            dir,
            _stdout: stdout,
        };
        let mut line = String::new();
        server
            ._stdout
            .read_line(&mut line)
            .map_err(io_err("read LISTENING"))?;
        let spec = line
            .trim()
            .strip_prefix("LISTENING ")
            .ok_or_else(|| format!("server did not come up: {line:?}"))?;
        server.addr = spec.strip_prefix("tcp:").unwrap_or(spec).to_string();
        let mut conn = server.connect()?;
        expect_applied(&call(&mut conn, &Request::Ping)?)?;
        Ok((server, conn, t0.elapsed().as_secs_f64()))
    }

    /// Pins worker thread `serve-worker-N` to CPU `N mod cpus`; returns
    /// how many were pinned.
    pub fn pin_workers(&self, cpus: usize) -> usize {
        let tasks = format!("/proc/{}/task", self.child.id());
        let Ok(entries) = std::fs::read_dir(tasks) else {
            return 0;
        };
        let mut pinned = 0;
        for e in entries.flatten() {
            let comm = std::fs::read_to_string(e.path().join("comm")).unwrap_or_default();
            let worker = comm
                .trim()
                .strip_prefix("serve-worker-")
                .and_then(|n| n.parse::<usize>().ok());
            let tid = e.file_name().to_str().and_then(|t| t.parse().ok());
            if let (Some(n), Some(tid)) = (worker, tid) {
                pinned += usize::from(sys::pin(tid, n % cpus));
            }
        }
        pinned
    }

    /// A new connection to the server.
    pub fn connect(&self) -> Res<TcpStream> {
        connect(&self.addr)
    }

    /// Asks the server to drain and exit over `conn`, and waits for it.
    pub fn shutdown(mut self, mut conn: TcpStream) -> Res<()> {
        expect_applied(&call(&mut conn, &Request::Shutdown)?)?;
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait().map_err(io_err("wait for server"))? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("server exited with {status}")),
                None if Instant::now() > deadline => return Err("server did not exit".into()),
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(d) = &self.dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// Reads from `conn` until `dec` yields one whole frame.
fn read_frame(conn: &mut TcpStream, dec: &mut FrameDecoder) -> Res<Response> {
    let mut scratch = [0u8; 64 * 1024];
    loop {
        if let Some(body) = dec.next_frame().map_err(|e| format!("framing: {e}"))? {
            return decode_response(&body).map_err(|e| format!("decode: {e}"));
        }
        let n = conn.read(&mut scratch).map_err(io_err("read"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        dec.feed(&scratch[..n]);
    }
}

/// One blocking request/reply exchange on an otherwise idle connection.
pub fn call(conn: &mut TcpStream, req: &Request) -> Res<Response> {
    let mut buf = Vec::new();
    encode_request(CONTROL_ID, req, &mut buf);
    conn.write_all(&buf).map_err(io_err("write"))?;
    read_frame(conn, &mut FrameDecoder::new())
}

fn expect_applied(resp: &Response) -> Res<()> {
    match (&resp.status, &resp.reply) {
        (Status::Ok, Some(Reply::Applied { .. })) => Ok(()),
        _ => Err(format!("control call answered {resp:?}")),
    }
}

/// The server's exported counters.
pub fn stats(conn: &mut TcpStream) -> Res<StatsSnapshot> {
    match call(conn, &Request::Stats)? {
        Response {
            status: Status::Ok,
            reply: Some(Reply::Stats(s)),
            ..
        } => Ok(*s),
        other => Err(format!("STATS answered {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------

/// When each phase of a run happens, and the windows measurements are
/// summarised over.
///
/// An open-loop workload runs `cycles` cycles of: an open-loop
/// segment, a settle pause for its last replies, a window-saturated
/// segment and another pause. A closed-loop workload runs one
/// saturated segment for the whole run. Interleaving spreads both
/// measurements over the whole run, so a slow spell of the host moves
/// both alike instead of landing on one. Saturated throughput is
/// counted per window and latencies are kept per window, so both can
/// be read in the run's best window as well as over the whole run.
#[derive(Clone, Copy)]
pub struct Timeline {
    pub start: Instant,
    pub cycles: u32,
    pub open: Duration,
    pub saturated: Duration,
    pub settle: Duration,
}

fn windows(len: Duration, width: Duration) -> usize {
    ((len.as_nanos() / width.as_nanos().max(1)) as usize).max(1)
}

impl Timeline {
    fn cycle(&self) -> Duration {
        self.open + self.saturated + self.settle * 2
    }

    fn open_ns(&self) -> u64 {
        self.open.as_nanos() as u64
    }

    /// Total open-loop time of the run.
    pub fn open_total(&self) -> Duration {
        self.open * self.cycles
    }

    /// Wall time of offset `ns` into the run's open-loop time.
    fn open_at(&self, ns: u64) -> Instant {
        let k = ns / self.open_ns().max(1);
        self.start + self.cycle() * k as u32 + Duration::from_nanos(ns - k * self.open_ns())
    }

    fn saturated_start(&self, k: u32) -> Instant {
        let lead = if self.open.is_zero() {
            Duration::ZERO
        } else {
            self.open + self.settle
        };
        self.start + self.cycle() * k + lead
    }

    /// Latency windows: over open-loop time, or over the closed loop.
    pub fn latency_windows(&self) -> usize {
        if self.open.is_zero() {
            windows(self.saturated, LATENCY_WINDOW)
        } else {
            windows(self.open_total(), LATENCY_WINDOW)
        }
    }

    /// The latency window of an open-loop request due at open-loop
    /// offset `ns`.
    fn latency_slot_open(&self, ns: u64) -> usize {
        ((ns / LATENCY_WINDOW.as_nanos() as u64) as usize).min(self.latency_windows() - 1)
    }

    /// The latency window of a closed-loop request sent at `at`.
    fn latency_slot_at(&self, at: Instant) -> usize {
        let off = at.saturating_duration_since(self.start).as_nanos() as u64;
        self.latency_slot_open(off)
    }

    fn rate_per_cycle(&self) -> usize {
        windows(self.saturated, RATE_WINDOW)
    }

    /// Saturated-throughput windows over the run.
    pub fn rate_windows(&self) -> usize {
        self.rate_per_cycle() * self.cycles as usize
    }

    /// Length in seconds of saturated window `i`; the last window of a
    /// segment absorbs its remainder.
    pub fn rate_window_secs(&self, i: usize) -> f64 {
        let j = i % self.rate_per_cycle();
        if j + 1 < self.rate_per_cycle() {
            RATE_WINDOW.as_secs_f64()
        } else {
            self.saturated.as_secs_f64() - RATE_WINDOW.as_secs_f64() * j as f64
        }
    }

    /// The saturated window `at` falls in, if any.
    fn rate_slot(&self, at: Instant) -> Option<usize> {
        let k =
            (at.saturating_duration_since(self.start).as_nanos() / self.cycle().as_nanos()) as u32;
        let from = self.saturated_start(k);
        if k >= self.cycles || at < from || at > from + self.saturated {
            return None;
        }
        let j = (at - from).as_nanos() / RATE_WINDOW.as_nanos();
        Some(k as usize * self.rate_per_cycle() + (j as usize).min(self.rate_per_cycle() - 1))
    }
}

/// What one connection does over the run.
pub struct Plan {
    /// This connection's index; it sends stream requests `i ≡ conn
    /// (mod conns)`.
    pub conn: usize,
    pub conns: usize,
    /// Open-loop due times in ns of open-loop time, indexed by stream
    /// request (empty for closed-loop workloads).
    pub arrivals: Arc<Vec<u64>>,
    /// Phases and windows, shared by all connections.
    pub timeline: Timeline,
    /// Answer digests are kept for stream requests below this index.
    pub digest_below: u64,
    /// Pin this generator thread to CPU `conn mod cpus`, beside the
    /// worker that owns its connection.
    pub pin: bool,
    pub cpus: usize,
}

/// What one connection saw.
#[derive(Default)]
pub struct Tally {
    /// Per latency window, the latency in ns of every timed request
    /// (open-loop ones by due time, or closed-loop ones by send time);
    /// `u64::MAX` for a failed request.
    pub latencies: Vec<Vec<u64>>,
    /// How late each open-loop send went out, in ns, whether the
    /// generator ran late or the send waited at [`ADMISSION`].
    pub late: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// Open-loop sends that were due while the connection was at
    /// [`ADMISSION`] and went out once a reply made room.
    pub held: u64,
    pub lost: u64,
    /// `BUSY` and `TIMEOUT` answers seen, retried or not.
    pub busy: u64,
    pub timeouts: u64,
    pub retries: u64,
    /// Requests whose final answer was an error status (retries spent
    /// included).
    pub errors: u64,
    pub gets: u64,
    /// Per saturated window, OK replies received.
    pub completed: Vec<u64>,
    /// `(stream index, answer digest)` of OK replies below
    /// `Plan::digest_below`.
    pub digests: Vec<(u64, u64)>,
    pub first_wrong: Option<String>,
}

fn add_into(into: &mut Vec<u64>, from: Vec<u64>) {
    into.resize(into.len().max(from.len()), 0);
    for (a, b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

impl Tally {
    fn for_plan(plan: &Plan) -> Self {
        Tally {
            latencies: vec![Vec::new(); plan.timeline.latency_windows()],
            completed: vec![0; plan.timeline.rate_windows()],
            ..Tally::default()
        }
    }

    pub fn merge(&mut self, o: Tally) {
        self.latencies
            .resize(self.latencies.len().max(o.latencies.len()), Vec::new());
        for (a, b) in self.latencies.iter_mut().zip(o.latencies) {
            a.extend(b);
        }
        self.late.extend(o.late);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.held += o.held;
        self.lost += o.lost;
        self.busy += o.busy;
        self.timeouts += o.timeouts;
        self.retries += o.retries;
        self.errors += o.errors;
        self.gets += o.gets;
        add_into(&mut self.completed, o.completed);
        self.digests.extend(o.digests);
        if self.first_wrong.is_none() {
            self.first_wrong = o.first_wrong;
        }
    }

    /// Adds a later boot's tally: its latency and throughput windows
    /// follow this one's instead of adding into them.
    pub fn append(&mut self, mut o: Tally) {
        let mut latencies = std::mem::take(&mut self.latencies);
        let mut completed = std::mem::take(&mut self.completed);
        latencies.append(&mut o.latencies);
        completed.append(&mut o.completed);
        self.merge(o);
        self.latencies = latencies;
        self.completed = completed;
    }

    /// Whether `resp` should be sent again after attempt `attempt`
    /// (0-based); counts the answer either way.
    fn retry(&mut self, resp: &Response, attempt: u32) -> bool {
        match resp.status {
            Status::Busy => self.busy += 1,
            Status::Timeout => self.timeouts += 1,
            _ => {}
        }
        let again =
            RetryPolicy::retryable(resp.status) && attempt < RetryPolicy::default().max_retries;
        self.retries += u64::from(again);
        again
    }

    /// Books a request's final answer; returns whether it counts as a
    /// success.
    fn book(
        &mut self,
        stream: &Stream,
        index: u64,
        op: &Op,
        resp: &Response,
        digest_below: u64,
    ) -> bool {
        match (resp.status, &resp.reply) {
            (Status::Ok, Some(reply)) => match stream.check(op, reply) {
                Ok(d) => {
                    if index < digest_below {
                        self.digests.push((index, d));
                    }
                    return true;
                }
                Err(e) => {
                    self.wrong += 1;
                    self.first_wrong
                        .get_or_insert_with(|| format!("request {index}: {e}"));
                }
            },
            _ => self.errors += 1,
        }
        self.failed += 1;
        false
    }

    /// Counts a completion received at `now` if it falls in a
    /// saturated segment.
    fn complete(&mut self, tl: &Timeline, now: Instant) {
        if let Some(i) = tl.rate_slot(now) {
            self.completed[i] += 1;
        }
    }
}

#[derive(Clone, Copy)]
struct Pending {
    index: u64,
    /// Open loop: the scheduled arrival. Saturated: the first send.
    due: Instant,
    open: bool,
    /// Retries so far.
    attempt: u32,
}

/// One connection's non-blocking send/receive state.
struct Driver<'a> {
    sock: TcpStream,
    stream: &'a Stream,
    plan: &'a Plan,
    out: Vec<u8>,
    written: usize,
    dec: FrameDecoder,
    scratch: Vec<u8>,
    pending: HashMap<u32, Pending>,
    /// Requests waiting out a retry backoff, with their resend time.
    backoff: Vec<(Instant, Pending)>,
    retry: RetryPolicy,
    jitter: u64,
    next_id: u32,
    t: Tally,
}

impl Driver<'_> {
    fn send(&mut self, index: u64, due: Instant, open: bool) {
        self.t.attempted += 1;
        let p = Pending {
            index,
            due,
            open,
            attempt: 0,
        };
        self.transmit(p);
    }

    fn transmit(&mut self, p: Pending) {
        let op = self.stream.op(p.index);
        if matches!(op, Op::Get(_)) {
            self.t.gets += 1;
        }
        encode_request(self.next_id, &op.request(), &mut self.out);
        self.pending.insert(self.next_id, p);
        self.next_id = self.next_id.wrapping_add(1);
    }

    /// Re-sends every request whose backoff has run out.
    fn resend_due(&mut self) {
        let now = Instant::now();
        let mut i = 0;
        while i < self.backoff.len() {
            if self.backoff[i].0 <= now {
                let (_, p) = self.backoff.swap_remove(i);
                self.transmit(p);
            } else {
                i += 1;
            }
        }
    }

    /// Records the latency of open-loop request `index`.
    fn time(&mut self, index: u64, ns: u64) {
        let slot = self
            .plan
            .timeline
            .latency_slot_open(self.plan.arrivals[index as usize]);
        self.t.latencies[slot].push(ns);
    }

    /// Requests in flight or waiting to be retried.
    fn outstanding(&self) -> usize {
        self.pending.len() + self.backoff.len()
    }

    /// Writes what the socket takes and books every reply that has
    /// arrived.
    fn pump(&mut self) -> Res<()> {
        while self.written < self.out.len() {
            match self.sock.write(&self.out[self.written..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
        }
        loop {
            match self.sock.read(&mut self.scratch) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    let now = Instant::now();
                    self.dec.feed(&self.scratch[..n]);
                    while let Some(body) =
                        self.dec.next_frame().map_err(|e| format!("framing: {e}"))?
                    {
                        let resp = decode_response(&body).map_err(|e| format!("decode: {e}"))?;
                        self.on_reply(&resp, now)?;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    fn on_reply(&mut self, resp: &Response, now: Instant) -> Res<()> {
        let p = self
            .pending
            .remove(&resp.req_id)
            .ok_or_else(|| format!("reply to unknown request id {}", resp.req_id))?;
        if self.t.retry(resp, p.attempt) {
            let wait = self.retry.backoff(p.attempt, &mut self.jitter);
            let again = Pending {
                attempt: p.attempt + 1,
                ..p
            };
            self.backoff.push((now + wait, again));
            return Ok(());
        }
        let op = self.stream.op(p.index);
        let ok = self
            .t
            .book(self.stream, p.index, &op, resp, self.plan.digest_below);
        if p.open {
            let ns = now.saturating_duration_since(p.due).as_nanos() as u64;
            self.time(p.index, if ok { ns } else { u64::MAX });
        } else if ok {
            self.t.complete(&self.plan.timeline, now);
        }
        Ok(())
    }

    /// Sleeps on the socket until it is readable (or writable, while
    /// bytes wait to go out), `until` comes or a retry is due.
    fn wait(&self, until: Instant) {
        let until = self.backoff.iter().map(|b| b.0).fold(until, Instant::min);
        let left = until
            .saturating_duration_since(Instant::now())
            .min(MAX_WAIT);
        if !left.is_zero() {
            sys::wait(self.sock.as_raw_fd(), self.written < self.out.len(), left);
        }
    }

    /// Keeps answering replies and retries until `until` or until
    /// nothing is outstanding; what is left carries over.
    fn settle(&mut self, until: Instant) -> Res<()> {
        while self.outstanding() > 0 && Instant::now() < until {
            self.resend_due();
            self.pump()?;
            self.wait(until);
        }
        Ok(())
    }

    /// Waits up to [`DRAIN`] for outstanding replies; the rest are lost.
    fn drain(&mut self) -> Res<()> {
        self.settle(Instant::now() + DRAIN)?;
        let left = std::mem::take(&mut self.pending).into_values();
        for p in left.chain(std::mem::take(&mut self.backoff).into_iter().map(|b| b.1)) {
            self.t.lost += 1;
            self.t.failed += 1;
            if p.open {
                self.time(p.index, u64::MAX);
            }
        }
        Ok(())
    }

    /// Open-loop segment `k`: every request of this connection's share
    /// of the segment's schedule goes out at its due time, or, while
    /// [`ADMISSION`] requests are outstanding, as soon as a reply makes
    /// room. `next` is this connection's next stream request.
    fn open_loop(&mut self, k: u32, next: &mut u64) -> Res<()> {
        let plan = self.plan;
        let tl = &plan.timeline;
        let arrivals = &plan.arrivals;
        let step = plan.conns as u64;
        let end_ns = tl.open_ns() * u64::from(k + 1);
        let due = |i: u64| {
            arrivals
                .get(i as usize)
                .filter(|&&ns| ns < end_ns)
                .map(|&ns| tl.open_at(ns))
        };
        // Whether the sends now going out fell due at the cap.
        let mut held = false;
        while let Some(first) = due(*next) {
            let now = Instant::now();
            let mut at = Some(first);
            while let Some(d) = at.filter(|&d| d <= now) {
                if self.outstanding() >= ADMISSION {
                    held = true;
                    break;
                }
                self.t.held += u64::from(held);
                self.t.late.push(now.duration_since(d).as_nanos() as u64);
                self.send(*next, d, true);
                *next += step;
                at = due(*next);
            }
            self.resend_due();
            self.pump()?;
            match at {
                // At the cap: wait for a reply rather than a due time.
                Some(d) if d <= now => self.wait(now + MAX_WAIT),
                Some(d) => {
                    held = false;
                    self.wait(d);
                }
                None => {}
            }
        }
        self.settle(tl.saturated_start(k))
    }

    /// Saturated segment `k`: keeps `WINDOW` requests in flight,
    /// continuing the stream after the open-loop part.
    fn saturated(&mut self, k: u32, next: &mut u64) -> Res<()> {
        let start = self.plan.timeline.saturated_start(k);
        while Instant::now() < start {
            self.wait(start);
        }
        self.saturate(start + self.plan.timeline.saturated, next)
    }

    /// Keeps `WINDOW` requests in flight until `end`, then lets them
    /// settle.
    fn saturate(&mut self, end: Instant, next: &mut u64) -> Res<()> {
        let plan = self.plan;
        let step = plan.conns as u64;
        while Instant::now() < end {
            while self.outstanding() < WINDOW {
                self.send(*next, Instant::now(), false);
                *next += step;
            }
            self.resend_due();
            self.pump()?;
            if self.outstanding() >= WINDOW {
                self.wait(end);
            }
        }
        self.settle(end + plan.timeline.settle)
    }
}

/// Drives one connection through the run's open-loop and saturated
/// segments. Returns the connection, back in blocking mode, and what it
/// saw.
pub fn drive(sock: TcpStream, stream: &Stream, plan: &Plan) -> Res<(TcpStream, Tally)> {
    sys::tight_timer_slack();
    if plan.pin {
        sys::pin(0, plan.conn % plan.cpus);
    }
    sock.set_nonblocking(true).map_err(io_err("nonblocking"))?;
    let mut t = Tally::for_plan(plan);
    // Sized up front: growing these mid-run would stall the sender.
    let share = plan.arrivals.len() / plan.conns + 1024;
    let per_window = share / plan.timeline.latency_windows() + 1024;
    for w in &mut t.latencies {
        w.reserve(per_window);
    }
    t.late.reserve(share);
    let mut d = Driver {
        sock,
        stream,
        plan,
        out: Vec::with_capacity(64 * 1024),
        written: 0,
        dec: FrameDecoder::new(),
        scratch: vec![0u8; 256 * 1024],
        pending: HashMap::with_capacity(4096),
        backoff: Vec::new(),
        retry: RetryPolicy::default(),
        jitter: RetryPolicy::default().seed ^ plan.conn as u64,
        next_id: 0,
        t,
    };
    // Warm up (untimed) until the shared start: the mapped store's
    // pages fault in and the threads reach their steady state.
    let mut next_warmup = WARMUP_BASE + plan.conn as u64;
    d.saturate(plan.timeline.start - plan.timeline.settle, &mut next_warmup)?;
    while Instant::now() < plan.timeline.start {
        d.wait(plan.timeline.start);
    }
    let mut next_open = plan.conn as u64;
    let mut next_saturated = plan.arrivals.len() as u64 + plan.conn as u64;
    for k in 0..plan.timeline.cycles {
        d.open_loop(k, &mut next_open)?;
        d.saturated(k, &mut next_saturated)?;
    }
    d.drain()?;
    d.sock.set_nonblocking(false).map_err(io_err("blocking"))?;
    Ok((d.sock, d.t))
}

/// Sends `op` as request `index` and waits for its final answer,
/// retrying as the client does; `in_flight` runs once the request is on
/// the wire. Returns the answer, the first send time and the answer's
/// arrival.
fn exchange(
    sock: &mut TcpStream,
    dec: &mut FrameDecoder,
    t: &mut Tally,
    jitter: &mut u64,
    (index, op): (u64, &Op),
    in_flight: impl FnOnce(),
) -> Res<(Response, Instant, Instant)> {
    let mut buf = Vec::new();
    encode_request(index as u32, &op.request(), &mut buf);
    let sent = Instant::now();
    t.attempted += 1;
    let mut in_flight = Some(in_flight);
    let mut attempt = 0;
    loop {
        sock.write_all(&buf).map_err(io_err("write"))?;
        if let Some(f) = in_flight.take() {
            f();
        }
        let resp = read_frame(sock, dec)?;
        let now = Instant::now();
        if resp.req_id != index as u32 || resp.opcode != Opcode::Batch {
            return Err(format!("reply {} to request {index}", resp.req_id));
        }
        if !t.retry(&resp, attempt) {
            return Ok((resp, sent, now));
        }
        std::thread::sleep(RetryPolicy::default().backoff(attempt, jitter));
        attempt += 1;
    }
}

/// Closed loop on one connection: each `BATCH` goes out when the last
/// reply is in, timed from its send. The next request is generated
/// while the current one is in flight.
pub fn drive_closed(mut sock: TcpStream, stream: &Stream, plan: &Plan) -> Res<(TcpStream, Tally)> {
    if plan.pin {
        // Off the CPU of the worker that serves this connection.
        sys::pin(0, (plan.conn + 1) % plan.cpus);
    }
    let mut t = Tally::for_plan(plan);
    let mut dec = FrameDecoder::new();
    let mut jitter = RetryPolicy::default().seed;
    let tl = &plan.timeline;
    // Warm up (untimed) until the start, as the open-loop driver does.
    let mut index = WARMUP_BASE;
    while Instant::now() < tl.start {
        let op = stream.op(index);
        let (resp, _, _) = exchange(
            &mut sock,
            &mut dec,
            &mut t,
            &mut jitter,
            (index, &op),
            || {},
        )?;
        t.book(stream, index, &op, &resp, plan.digest_below);
        index += 1;
    }
    let mut op = stream.op(0);
    index = 0;
    while Instant::now() < tl.start + tl.saturated {
        let mut next = None;
        let (resp, sent, now) = exchange(
            &mut sock,
            &mut dec,
            &mut t,
            &mut jitter,
            (index, &op),
            || {
                next = Some(stream.op(index + 1));
            },
        )?;
        let slot = tl.latency_slot_at(sent);
        if t.book(stream, index, &op, &resp, plan.digest_below) {
            t.latencies[slot].push(now.duration_since(sent).as_nanos() as u64);
            t.complete(tl, now);
        } else {
            t.latencies[slot].push(u64::MAX);
        }
        op = next.expect("generated while the request was in flight");
        index += 1;
    }
    Ok((sock, t))
}
