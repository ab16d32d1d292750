//! A small blocking protocol client: one request in flight, a read
//! timeout so a wedged server can never hang the caller.
//!
//! This is the client the tests, the CLI and the harness's stats
//! scrapes use. The load generator in [`crate::bomber`] does *not* use
//! it — open-loop load needs pipelining — but both speak exactly the
//! same frames from [`cobtree_core::protocol`].

use crate::net::{Addr, NetStream};
use cobtree_core::io::splitmix64;
use cobtree_core::protocol::{
    decode_response, encode_request, FrameDecoder, Reply, Request, Response, StatsSnapshot, Status,
};
use cobtree_core::{Error, Result};
use std::io::{Read, Write};
use std::time::Duration;

/// Capped exponential backoff with deterministic jitter for the
/// transient wire statuses (`BUSY`, `TIMEOUT`, `UNAVAIL`).
///
/// Attempt `k` (0-based) sleeps `min(base << k, cap)` scaled by a
/// jitter factor in `[0.5, 1.0)` drawn from a seeded [`splitmix64`]
/// stream, so two clients created with the same seed back off
/// identically and two with different seeds never thundering-herd in
/// phase.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt; 0 disables retrying.
    pub max_retries: u32,
    /// Sleep before the first retry.
    pub base: Duration,
    /// Upper bound on any single sleep.
    pub cap: Duration,
    /// Jitter stream seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 5,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(250),
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// Whether `status` is transient and worth retrying.
    #[must_use]
    pub fn retryable(status: Status) -> bool {
        matches!(status, Status::Busy | Status::Timeout | Status::Unavail)
    }

    /// The sleep before retry `attempt` (0-based), jittered from
    /// `rng_state`.
    #[must_use]
    pub fn backoff(&self, attempt: u32, rng_state: &mut u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(20))
            .min(self.cap);
        // Jitter factor in [1/2, 1): keep at least half the exponential
        // spacing so retries still spread out, never exceed the cap.
        let r = splitmix64(rng_state) >> 11; // 53 random bits
        let factor = 0.5 + (r as f64 / (1u64 << 53) as f64) * 0.5;
        exp.mul_f64(factor)
    }
}

/// Retry accounting kept by [`Client::call_with_retry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Re-sent requests (not counting each request's first attempt).
    pub retries: u64,
    /// Total time spent sleeping between attempts.
    pub backoff: Duration,
    /// Requests abandoned after exhausting `max_retries`.
    pub give_ups: u64,
}

/// A connected blocking client.
pub struct Client {
    stream: NetStream,
    decoder: FrameDecoder,
    next_req: u32,
    buf: Vec<u8>,
    retry_rng: u64,
    retry_stats: RetryStats,
}

impl Client {
    /// Connects with a 5-second read timeout.
    ///
    /// # Errors
    /// Address parse or connect failure.
    pub fn connect(spec: &str) -> Result<Self> {
        Self::connect_timeout(spec, Duration::from_secs(5))
    }

    /// Connects with an explicit read timeout (`None` blocks forever —
    /// only sensible in tests that kill the server themselves).
    ///
    /// # Errors
    /// Address parse or connect failure.
    pub fn connect_timeout(spec: &str, read_timeout: impl Into<Option<Duration>>) -> Result<Self> {
        let addr = Addr::parse(spec)?;
        let stream = NetStream::connect(&addr)?;
        stream.set_read_timeout(read_timeout.into())?;
        stream.set_nodelay();
        Ok(Client {
            stream,
            decoder: FrameDecoder::new(),
            next_req: 1,
            buf: Vec::new(),
            retry_rng: RetryPolicy::default().seed,
            retry_stats: RetryStats::default(),
        })
    }

    /// Sends one request and blocks for its response.
    ///
    /// # Errors
    /// [`Error::Io`] on socket failure or timeout, decode errors on a
    /// malformed response, [`Error::Malformed`] when the response
    /// correlates to a different request id.
    pub fn call(&mut self, req: &Request) -> Result<Response> {
        let req_id = self.next_req;
        self.next_req = self.next_req.wrapping_add(1);
        self.buf.clear();
        encode_request(req_id, req, &mut self.buf);
        let frame = std::mem::take(&mut self.buf);
        self.stream.write_all(&frame).map_err(|e| Error::io(&e))?;
        self.buf = frame;
        let body = self.read_frame()?;
        let resp = decode_response(&body)?;
        if resp.req_id != req_id {
            return Err(Error::Malformed {
                detail: format!(
                    "response correlates to request {} but {} is in flight",
                    resp.req_id, req_id
                ),
            });
        }
        Ok(resp)
    }

    /// `call` wrapped in the retry loop: transient refusals (`BUSY`,
    /// `TIMEOUT`, `UNAVAIL`) are re-sent after a capped, jittered
    /// exponential backoff; any other response — including errors —
    /// returns immediately. The final response is returned even when
    /// retries are exhausted (a give-up is counted, the status is the
    /// caller's to inspect).
    ///
    /// # Errors
    /// Everything `call` raises.
    pub fn call_with_retry(&mut self, req: &Request, policy: &RetryPolicy) -> Result<Response> {
        let mut attempt = 0u32;
        loop {
            let resp = self.call(req)?;
            if !RetryPolicy::retryable(resp.status) {
                return Ok(resp);
            }
            if attempt >= policy.max_retries {
                self.retry_stats.give_ups += 1;
                return Ok(resp);
            }
            let sleep = policy.backoff(attempt, &mut self.retry_rng);
            std::thread::sleep(sleep);
            self.retry_stats.retries += 1;
            self.retry_stats.backoff += sleep;
            attempt += 1;
        }
    }

    /// Cumulative retry accounting across every `call_with_retry`.
    #[must_use]
    pub fn retry_stats(&self) -> RetryStats {
        self.retry_stats
    }

    /// Writes one request without waiting for its response. The reply
    /// still arrives on the stream and will desynchronize `call`'s
    /// correlation check — this exists for tests that deliberately
    /// misbehave (pipelining floods, slow readers), not for normal use.
    ///
    /// # Errors
    /// [`Error::Io`] on socket failure.
    pub fn send_only(&mut self, req: &Request) -> Result<()> {
        let req_id = self.next_req;
        self.next_req = self.next_req.wrapping_add(1);
        self.buf.clear();
        encode_request(req_id, req, &mut self.buf);
        let frame = std::mem::take(&mut self.buf);
        let res = self.stream.write_all(&frame).map_err(|e| Error::io(&e));
        self.buf = frame;
        res
    }

    /// Blocks until one whole frame body arrives.
    fn read_frame(&mut self) -> Result<Vec<u8>> {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            if let Some(body) = self.decoder.next_frame()? {
                return Ok(body);
            }
            match self.stream.read(&mut scratch) {
                Ok(0) => return Err(Error::Truncated { needed: 1, got: 0 }),
                Ok(n) => self.decoder.feed(&scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(Error::io(&e)),
            }
        }
    }

    /// `call` that demands [`Status::Ok`] and unwraps the payload.
    ///
    /// # Errors
    /// Everything `call` raises, plus [`Error::Malformed`] for a
    /// non-`Ok` status (the status label is in the message).
    pub fn call_ok(&mut self, req: &Request) -> Result<Reply> {
        let resp = self.call(req)?;
        if resp.status != Status::Ok {
            return Err(Error::Malformed {
                detail: format!(
                    "{} request refused with status {:?}",
                    resp.opcode.label(),
                    resp.status
                ),
            });
        }
        resp.reply.ok_or_else(|| Error::Malformed {
            detail: "ok response with no payload".to_string(),
        })
    }

    /// Liveness probe.
    ///
    /// # Errors
    /// Socket or protocol failure.
    pub fn ping(&mut self) -> Result<()> {
        self.call_ok(&Request::Ping).map(|_| ())
    }

    /// Scrapes the server's live counters.
    ///
    /// # Errors
    /// Socket or protocol failure.
    pub fn stats(&mut self) -> Result<StatsSnapshot> {
        match self.call_ok(&Request::Stats)? {
            Reply::Stats(s) => Ok(*s),
            other => Err(Error::Malformed {
                detail: format!("stats reply has wrong shape: {other:?}"),
            }),
        }
    }

    /// Asks the server to run one adaptive re-optimization pass;
    /// returns `(scanned, swapped)` shard counts.
    ///
    /// # Errors
    /// Socket or protocol failure, including the `Unsupported` refusal
    /// a non-adaptive engine answers with.
    pub fn reopt(&mut self) -> Result<(u32, u32)> {
        match self.call_ok(&Request::Reopt)? {
            Reply::Reopt { scanned, swapped } => Ok((scanned, swapped)),
            other => Err(Error::Malformed {
                detail: format!("reopt reply has wrong shape: {other:?}"),
            }),
        }
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    /// Socket or protocol failure.
    pub fn shutdown_server(&mut self) -> Result<()> {
        self.call_ok(&Request::Shutdown).map(|_| ())
    }
}
