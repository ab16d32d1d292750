//! Failure-mode robustness for the network server: a killed server
//! must not lose acknowledged durable writes (the tiered engine's
//! epoch scan recovers them), per-op timeouts must shed work without
//! taking the worker down, and a client that stops reading must get
//! its connection dropped rather than wedging the event loop.

use cobtree::core::protocol::{Reply, Request, Status};
use cobtree::core::NamedLayout;
use cobtree::serve::{Client, ServeEngine, Server, ServerConfig};
use cobtree::{Forest, Storage, TierPlace, TieredForest};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str, salt: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "cobtree-serve-it-{}-{tag}-{salt:x}",
        std::process::id()
    ))
}

fn tiered_server(dir: &std::path::Path, durable: bool) -> Server {
    let tiered = TieredForest::builder()
        .layout(NamedLayout::MinWep)
        .shards(3)
        .memtable_entries(1 << 12)
        .path(dir)
        .background(false)
        .keys((1..=500u64).map(|k| k * 2))
        .build()
        .expect("build tiered");
    Server::start(
        ServeEngine::Tiered(Arc::new(tiered)),
        "tcp:127.0.0.1:0",
        ServerConfig {
            workers: 2,
            durable_writes: durable,
            ..ServerConfig::default()
        },
    )
    .expect("start server")
}

/// The headline recovery guarantee: with `durable_writes` on, every
/// write the server *acknowledged* before being killed mid-load is
/// recovered by `TieredForest::open`'s epoch scan. Unacknowledged
/// writes may or may not survive; acknowledged ones must.
#[test]
fn killed_server_loses_no_acknowledged_durable_writes() {
    let dir = temp_dir("kill", 0xAC);
    std::fs::remove_dir_all(&dir).ok();
    let server = tiered_server(&dir, true);
    let addr = server.addr().to_spec();

    // Drive acknowledged writes from two connections while the server
    // is live; record exactly the keys whose ack came back Ok.
    let mut acked: Vec<u64> = Vec::new();
    for conn in 0..2u64 {
        let mut client = Client::connect(&addr).expect("connect");
        for i in 0..120u64 {
            let key = 10_001 + 2 * (conn * 1_000 + i); // odd: disjoint from seed
            match client.call(&Request::Insert { key }).expect("call").status {
                Status::Ok => acked.push(key),
                other => panic!("insert refused: {other:?}"),
            }
        }
    }
    assert!(!acked.is_empty());

    // Kill without drain or flush — the simulated crash.
    server.abort();

    // Recovery must surface every acknowledged key.
    let recovered: TieredForest<u64> = TieredForest::open(&dir).expect("epoch-scan recovery");
    for &key in &acked {
        assert!(
            recovered.locate(key).is_some(),
            "acked write {key} lost after kill"
        );
    }
    // The base seed survives too.
    assert!(recovered.locate(2).is_some());
    assert!(recovered.locate(1_000).is_some());
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// Without `durable_writes` the ack is advisory; this test only pins
/// down that a kill mid-load never corrupts the store — reopening
/// still succeeds and serves the durable prefix.
#[test]
fn killed_volatile_server_leaves_store_openable() {
    let dir = temp_dir("volatile", 0xBD);
    std::fs::remove_dir_all(&dir).ok();
    let server = tiered_server(&dir, false);
    let addr = server.addr().to_spec();
    let mut client = Client::connect(&addr).expect("connect");
    for i in 0..200u64 {
        client
            .call(&Request::Insert {
                key: 20_001 + 2 * i,
            })
            .expect("call");
    }
    server.abort();
    let recovered: TieredForest<u64> = TieredForest::open(&dir).expect("reopen after kill");
    assert!(recovered.locate(2).is_some(), "seed data lost");
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// `op_timeout = 0` makes every cross-worker handoff expire before it
/// is served — a degenerate setting that deterministically exercises
/// the shedding path. The worker must answer `TIMEOUT` (not hang, not
/// die) and keep serving its own traffic.
#[test]
fn expired_handoffs_are_shed_with_timeout_and_worker_survives() {
    let forest = Forest::builder()
        .layout(NamedLayout::MinWep)
        .storage(Storage::Implicit)
        .shards(4)
        .keys((1..=2_000u64).map(|k| k * 2))
        .build()
        .expect("build forest");
    let forest = Arc::new(forest);
    let server = Server::start(
        ServeEngine::Forest(Arc::clone(&forest)),
        "tcp:127.0.0.1:0",
        ServerConfig {
            workers: 2,
            op_timeout: Duration::ZERO,
            ..ServerConfig::default()
        },
    )
    .expect("start server");

    let mut client = Client::connect(&server.addr().to_spec()).expect("connect");
    let mut timed_out = 0usize;
    let mut served = 0usize;
    for probe in (2..=4_000u64).step_by(37) {
        let resp = client.call(&Request::Get { key: probe }).expect("call");
        match resp.status {
            // Keys owned by a different worker than the connection's
            // expire in the queue; the conn-owner's shards and
            // unrouteable keys are answered inline, unexpired.
            Status::Timeout => timed_out += 1,
            Status::Ok => {
                served += 1;
                let direct = forest.locate(probe).map(|h| (h.shard, h.position));
                match resp.reply {
                    Some(Reply::Hit {
                        found,
                        shard,
                        position,
                    }) => {
                        assert_eq!(
                            found.then_some((shard as usize, position)),
                            direct,
                            "inline path diverged for {probe}"
                        );
                    }
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert!(timed_out > 0, "no handoff expired under a zero deadline");
    assert!(served > 0, "no locally-owned key was served");

    // A batch with runs in all four shards hands the other worker's
    // runs off, they expire in its queue, and the batch answers
    // TIMEOUT. One whose probes all lie in a shard the connection's
    // worker (worker 0, the first dealt) owns never leaves it.
    let spread: Vec<u64> = (2..=4_000u64).step_by(37).collect();
    assert_eq!(forest.shard_batches(&spread).expect("sorted").len(), 4);
    let resp = client.call(&Request::Batch { keys: spread }).expect("call");
    assert_eq!(resp.status, Status::Timeout, "foreign runs are shed");
    timed_out += 1;
    let own: Vec<u64> = (2..=4_000u64)
        .filter(|&k| forest.router().route(k) == Some(0))
        .collect();
    assert!(!own.is_empty());
    let Some(Reply::Batch { hits }) = client
        .call(&Request::Batch { keys: own.clone() })
        .expect("call")
        .reply
    else {
        panic!("an own-shard batch answers OK")
    };
    assert_eq!(hits.len(), own.len());
    for (&probe, hit) in own.iter().zip(&hits) {
        let direct = forest.locate(probe).map(|h| (h.shard, h.position));
        assert_eq!(
            hit.found.then_some((hit.shard as usize, hit.position)),
            direct,
            "own-shard batch diverged for {probe}"
        );
    }

    // The worker that shed those jobs is still alive and well.
    client.ping().expect("worker survives shedding");
    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.timeouts, timed_out as u64);
    assert_eq!(stats.responses, stats.requests);
}

/// A client that floods large requests and never reads its socket
/// must be disconnected by the write-stall watchdog; a well-behaved
/// client on the same worker keeps getting answers throughout.
#[test]
fn slow_client_is_dropped_without_stalling_the_worker() {
    let forest = Forest::builder()
        .layout(NamedLayout::MinWep)
        .storage(Storage::Implicit)
        .shards(2)
        .keys((1..=60_000u64).map(|k| k * 2))
        .build()
        .expect("build forest");
    let server = Server::start(
        ServeEngine::Forest(Arc::new(forest)),
        "tcp:127.0.0.1:0",
        ServerConfig {
            workers: 1,
            write_buffer_cap: 4 << 10,
            write_stall_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.addr().to_spec();

    // The offender: pipeline big range scans, never read a byte. Each
    // reply is ~32 KiB (4096 keys); ~32 MiB total overwhelms both the
    // 4 KiB server-side buffer cap and any kernel socket buffering, so
    // the server's flush must hit `WouldBlock` and arm the watchdog.
    let mut slow = Client::connect_timeout(&addr, None).expect("connect slow");
    for _ in 0..1024 {
        // Sends may start failing once the server drops us — fine.
        if slow
            .send_only(&Request::Range {
                lo: 0,
                hi: u64::MAX,
                limit: 4096,
            })
            .is_err()
        {
            break;
        }
    }

    // Meanwhile the same worker must keep serving a healthy client.
    let mut healthy = Client::connect(&addr).expect("connect healthy");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut dropped = false;
    while Instant::now() < deadline {
        healthy.ping().expect("healthy client starved");
        let stats = healthy.stats().expect("stats");
        if stats.connections_closed >= 1 {
            dropped = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(dropped, "write-stall watchdog never fired");
    healthy
        .ping()
        .expect("worker alive after dropping slow client");
    server.shutdown().expect("shutdown");
}

/// A manifest row that lies about a checksummed shard file must
/// quarantine exactly that shard at open: the file's own checksums
/// held, so the row is the corrupt side. Keys routed to the
/// quarantined shard answer `UNAVAIL` over the wire, every other
/// shard keeps full parity with the expected key set, and the next
/// flush republishes consistent state — the heal.
#[test]
fn corrupt_manifest_row_quarantines_one_shard_and_heals_on_flush() {
    use cobtree::core::format::{self, ManifestV2};
    use cobtree::search::tiered::tiered_manifest_name;

    let dir = temp_dir("quarantine", 0xDF);
    std::fs::remove_dir_all(&dir).ok();
    {
        let tiered = TieredForest::builder()
            .layout(NamedLayout::MinWep)
            .shards(3)
            .path(&dir)
            .background(false)
            .keys((1..=600u64).map(|k| k * 2))
            .build()
            .expect("build tiered");
        tiered.flush().expect("flush");
    }

    // Corrupt the newest manifest: shrink the last populated row's key
    // count, re-encode (the manifest's own framing stays valid — only
    // the row now disagrees with the shard file it describes).
    let epoch = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_prefix("forest-e")?
                .strip_suffix(".cobf")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .expect("a published manifest");
    let manifest_path = dir.join(tiered_manifest_name(epoch));
    let bytes = std::fs::read(&manifest_path).expect("read manifest");
    let mut manifest: ManifestV2<u64> = format::parse_manifest_v2(&bytes).expect("parse manifest");
    let victim_slot = manifest
        .shards
        .iter()
        .rposition(|r| r.bounds.is_some())
        .expect("a populated shard row");
    manifest.shards[victim_slot].key_count -= 1;
    let corrupted = format::encode_manifest_v2(&manifest).expect("re-encode manifest");
    std::fs::write(&manifest_path, corrupted).expect("rewrite manifest");

    // Open trusts the checksummed file over the lying row and serves
    // degraded: exactly one shard quarantined.
    let tiered: TieredForest<u64> = TieredForest::open(&dir).expect("open quarantines, not fails");
    assert_eq!(tiered.quarantined_shards(), 1, "exactly one shard");
    let unavail_keys: Vec<u64> = (1..=600u64)
        .map(|k| k * 2)
        .filter(|&k| tiered.check_available(k).is_err())
        .collect();
    assert!(!unavail_keys.is_empty(), "quarantine covers a key range");
    assert!(
        unavail_keys.len() < 600,
        "other shards must remain available"
    );

    let tiered = Arc::new(tiered);
    let server = Server::start(
        ServeEngine::Tiered(Arc::clone(&tiered)),
        "tcp:127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let mut client = Client::connect(&server.addr().to_spec()).expect("connect");

    // Degraded-but-serving: quarantined range answers UNAVAIL, the
    // rest answers with full parity against the seeded key set.
    for probe in (1..=600u64).map(|k| k * 2).step_by(7) {
        let resp = client.call(&Request::Get { key: probe }).expect("call");
        if unavail_keys.contains(&probe) {
            assert_eq!(resp.status, Status::Unavail, "probe {probe}");
        } else {
            assert_eq!(resp.status, Status::Ok, "probe {probe}");
            assert!(
                matches!(resp.reply, Some(Reply::Hit { found: true, .. })),
                "probe {probe} must be found"
            );
        }
    }
    // A batch answers as a whole: UNAVAIL if any probe routes to the
    // quarantined shard, full parity if none does.
    let every: Vec<u64> = (1..=600u64).map(|k| k * 2).step_by(7).collect();
    let clear: Vec<u64> = every
        .iter()
        .copied()
        .filter(|k| !unavail_keys.contains(k))
        .collect();
    let resp = client
        .call(&Request::Batch {
            keys: every.clone(),
        })
        .expect("call");
    assert_eq!(resp.status, Status::Unavail, "batch over the quarantine");
    let assert_batch_parity = |client: &mut Client, keys: &[u64]| {
        let resp = client
            .call(&Request::Batch {
                keys: keys.to_vec(),
            })
            .expect("call");
        let Some(Reply::Batch { hits }) = resp.reply else {
            panic!("batch answered {:?}", resp.status)
        };
        assert_eq!(hits.len(), keys.len());
        for (&probe, hit) in keys.iter().zip(&hits) {
            let place = tiered.locate(probe).map(|h| h.place);
            assert!(place.is_some(), "probe {probe} is a seeded key");
            assert_eq!(
                hit.found.then_some(TierPlace::Shard {
                    shard: hit.shard as usize,
                    position: hit.position
                }),
                place,
                "batch probe {probe}"
            );
        }
    };
    assert_batch_parity(&mut client, &clear);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.quarantined_shards, 1);
    assert!(stats.unavail > 0, "UNAVAIL responses were counted");

    // The heal: one write + flush rebuilds the quarantined shard from
    // its still-intact in-memory tree and republishes.
    assert_eq!(
        client
            .call(&Request::Insert { key: 9_999 })
            .expect("insert")
            .status,
        Status::Ok
    );
    assert_eq!(
        client.call(&Request::Flush).expect("flush").status,
        Status::Ok
    );
    assert_eq!(tiered.quarantined_shards(), 0, "flush heals");
    assert!(tiered.heals() >= 1);
    for &probe in &unavail_keys {
        let resp = client.call(&Request::Get { key: probe }).expect("call");
        assert_eq!(resp.status, Status::Ok, "healed probe {probe}");
        assert!(
            matches!(resp.reply, Some(Reply::Hit { found: true, .. })),
            "healed probe {probe} must be found"
        );
    }
    assert_batch_parity(&mut client, &every);
    server.shutdown().expect("shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

/// TierPlace is part of this test's contract surface: a key acked but
/// not yet flushed reports from the buffer; after an explicit flush it
/// must come from a shard. This ties the ack semantics the crash test
/// relies on to an observable place.
#[test]
fn acked_write_moves_from_buffer_to_shard_on_flush() {
    let dir = temp_dir("place", 0xCE);
    std::fs::remove_dir_all(&dir).ok();
    let tiered = TieredForest::builder()
        .layout(NamedLayout::MinWep)
        .shards(2)
        .path(&dir)
        .background(false)
        .keys((1..=100u64).map(|k| k * 2))
        .build()
        .expect("build tiered");
    let tiered = Arc::new(tiered);
    let server = Server::start(
        ServeEngine::Tiered(Arc::clone(&tiered)),
        "tcp:127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let mut client = Client::connect(&server.addr().to_spec()).expect("connect");

    let resp = client.call(&Request::Insert { key: 777 }).expect("insert");
    assert_eq!(resp.status, Status::Ok);
    assert!(matches!(
        tiered.locate(777).map(|h| h.place),
        Some(TierPlace::Buffer)
    ));

    let resp = client.call(&Request::Flush).expect("flush");
    assert_eq!(resp.status, Status::Ok);
    assert!(matches!(
        tiered.locate(777).map(|h| h.place),
        Some(TierPlace::Shard { .. })
    ));
    server.shutdown().expect("shutdown");
    std::fs::remove_dir_all(&dir).ok();
}
