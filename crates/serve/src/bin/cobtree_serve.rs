//! `cobtree-serve` — boots a thread-per-core protocol server over a
//! forest or tiered engine and runs until a client sends `Shutdown`.
//!
//! ```text
//! cobtree-serve --listen tcp:127.0.0.1:0 [--engine forest|adaptive|tiered]
//!               [--keys N] [--shards N] [--path DIR] [--workers N]
//!               [--durable] [--op-timeout-ms N] [--inflight N]
//!               [--scrub-interval-ms N] [--scrub-budget N]
//!               [--sample-interval N] [--reopt-threshold F]
//! ```
//!
//! The store is seeded with the even keys `2, 4, …, 2·N` — the same
//! mapping `cobtree-bomber` assumes (reads probe even keys, write
//! churn uses odd ones). `--path` makes the tiered engine durable on
//! disk (required for crash/recovery runs); without it the engine
//! lives in memory. Prints `LISTENING <addr>` on stdout once the
//! socket is bound, so scripts can scrape the resolved port.

use cobtree_core::NamedLayout;
use cobtree_search::tiered::TieredForest;
use cobtree_search::{Forest, Storage};
use cobtree_serve::planner::DEFAULT_REOPT_THRESHOLD;
use cobtree_serve::sampler::DEFAULT_SAMPLE_INTERVAL;
use cobtree_serve::{AdaptiveEngine, ServeEngine, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value
        .unwrap_or_else(|| panic!("{flag} needs a value"))
        .parse()
        .unwrap_or_else(|_| panic!("{flag}: unparseable value"))
}

fn main() {
    let mut listen = "tcp:127.0.0.1:0".to_string();
    let mut engine_kind = "tiered".to_string();
    let mut keys: u64 = 1 << 16;
    let mut shards: usize = 4;
    let mut path: Option<PathBuf> = None;
    let mut sample_interval: u64 = DEFAULT_SAMPLE_INTERVAL;
    let mut reopt_threshold: f64 = DEFAULT_REOPT_THRESHOLD;
    let mut cfg = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--listen" => listen = parse("--listen", args.next()),
            "--engine" => engine_kind = parse("--engine", args.next()),
            "--keys" => keys = parse("--keys", args.next()),
            "--shards" => shards = parse("--shards", args.next()),
            "--path" => path = Some(PathBuf::from(parse::<String>("--path", args.next()))),
            "--workers" => cfg.workers = parse("--workers", args.next()),
            "--durable" => cfg.durable_writes = true,
            "--op-timeout-ms" => {
                cfg.op_timeout = Duration::from_millis(parse("--op-timeout-ms", args.next()));
            }
            "--inflight" => cfg.inflight_per_conn = parse("--inflight", args.next()),
            "--scrub-interval-ms" => {
                cfg.scrub_interval = Some(Duration::from_millis(parse(
                    "--scrub-interval-ms",
                    args.next(),
                )));
            }
            "--scrub-budget" => cfg.scrub_shards_per_pass = parse("--scrub-budget", args.next()),
            "--sample-interval" => sample_interval = parse("--sample-interval", args.next()),
            "--reopt-threshold" => reopt_threshold = parse("--reopt-threshold", args.next()),
            "--help" | "-h" => {
                println!(
                    "usage: cobtree-serve --listen tcp:HOST:PORT|unix:PATH \
                     [--engine forest|adaptive|tiered] [--keys N] [--shards N] [--path DIR] \
                     [--workers N] [--durable] [--op-timeout-ms N] [--inflight N] \
                     [--scrub-interval-ms N] [--scrub-budget N] \
                     [--sample-interval N] [--reopt-threshold F]"
                );
                return;
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }

    let seed_keys = (1..=keys).map(|k| k * 2);
    let engine = match engine_kind.as_str() {
        "forest" | "adaptive" => {
            let forest = Forest::builder()
                .layout(NamedLayout::MinWep)
                .storage(Storage::Implicit)
                .shards(shards)
                .keys(seed_keys)
                .build()
                .expect("build forest");
            if engine_kind == "adaptive" {
                ServeEngine::Adaptive(Arc::new(AdaptiveEngine::with_config(
                    forest,
                    sample_interval,
                    reopt_threshold,
                )))
            } else {
                ServeEngine::Forest(Arc::new(forest))
            }
        }
        "tiered" => {
            let mut b = TieredForest::builder()
                .layout(NamedLayout::MinWep)
                .shards(shards)
                .background(false)
                .keys(seed_keys);
            if let Some(dir) = &path {
                b = b.path(dir);
            }
            ServeEngine::Tiered(Arc::new(b.build().expect("build tiered engine")))
        }
        other => panic!("--engine must be forest, adaptive or tiered, got {other}"),
    };

    eprintln!(
        "[serve] {} engine, {} keys, {} shards, {} workers",
        engine.kind(),
        engine.len(),
        engine.shard_count(),
        cfg.effective_workers()
    );
    let server = Server::start(engine, &listen, cfg).expect("start server");
    println!("LISTENING {}", server.addr().to_spec());

    // Run until a client's Shutdown request flips the state, then
    // drain and flush.
    while !server.is_draining() {
        std::thread::sleep(Duration::from_millis(50));
    }
    let stats = server.shutdown().expect("drain and flush");
    eprintln!(
        "[serve] drained: {} requests, {} responses, {} busy, {} timeouts",
        stats.requests, stats.responses, stats.busy, stats.timeouts
    );
}
