//! # cobtree-serve
//!
//! The network serving subsystem: everything between a socket and a
//! mapped [`cobtree_search::Forest`] / [`cobtree_search::TieredForest`].
//!
//! * [`net`] — address parsing (`tcp:host:port` / `unix:/path`) and the
//!   TCP-or-Unix stream/listener abstraction;
//! * [`engine`] — [`engine::ServeEngine`], one enum over the immutable
//!   forest, the traffic-adaptive forest and the tiered write path,
//!   answering every protocol op;
//! * [`sampler`] — the lock-free sampled per-key access sketch
//!   ([`sampler::TrafficSampler`]) the adaptive engine's point lookups
//!   feed: one in N gets resolves its in-shard rank and bumps a dense
//!   atomic counter;
//! * [`planner`] — the re-optimization planner
//!   ([`planner::AdaptiveEngine`]): aggregates the sketch into
//!   per-shard observed profiles, gates on total-variation divergence
//!   from each shard's built-for profile, reruns the weighted layout
//!   optimizer and hot-swaps the rebuilt shard (the protocol's `Reopt`
//!   op);
//! * [`server`] — the thread-per-core server: an acceptor thread deals
//!   connections to workers, each worker owns its connections *and* a
//!   subset of shards (shard `s` belongs to worker `s mod N`), point
//!   lookups are handed off to their owning worker and answered with
//!   the interleaved descent kernel, bounded queues reply `BUSY`
//!   instead of buffering without limit, queued work is shed with
//!   `TIMEOUT` past its deadline, idle threads block in `poll(2)` until
//!   a socket is ready or whoever hands them work wakes them, and
//!   shutdown drains in-flight requests before flushing the memtable;
//! * [`client`] — a small blocking client (one request in flight) used
//!   by tests, the CLI and the harness's stats scrapes;
//! * [`bomber`] — the open-loop load generator behind `cobtree-bomber`:
//!   Zipf key popularity over millions of distinct users, Poisson
//!   arrivals, mixed op blends, true arrival-to-completion latency, and
//!   the `BENCH_serve.json` artifact.
//!
//! The wire protocol itself (framing, opcodes, typed decode errors)
//! lives in [`cobtree_core::protocol`] and is specified byte-by-byte in
//! `docs/PROTOCOL.md`.

pub mod bomber;
pub mod client;
pub mod engine;
pub mod net;
pub mod planner;
pub mod sampler;
pub mod server;
mod wake;

pub use client::{Client, RetryPolicy, RetryStats};
pub use engine::{EngineResult, ServeEngine};
pub use planner::{AdaptiveEngine, ReoptOutcome};
pub use sampler::TrafficSampler;
pub use server::{Server, ServerConfig};
