//! Chaos harness: seeded fault schedules driven through the whole
//! stack — boot, open-loop bombing, scrub-detected corruption,
//! quarantine, heal — asserting the robustness contract end to end:
//!
//! * the same seed yields a byte-identical injected-failure sequence;
//! * a write/sync/rename fault at *every* point of the flush pipeline
//!   loses no acknowledged durable write and never corrupts the store;
//! * a corrupted shard is detected by the scrubber, served `UNAVAIL`
//!   for exactly its own key range while every other shard keeps
//!   answering, and healed by the next flush.

use cobtree::core::io::{FaultIo, FaultKind, FaultRule, IoOp, StorageIo};
use cobtree::core::protocol::{Reply, Request, StatsSnapshot, Status};
use cobtree::core::NamedLayout;
use cobtree::serve::bomber::{self, BomberConfig, OpMix};
use cobtree::serve::{Client, ServeEngine, Server, ServerConfig};
use cobtree::TieredForest;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str, salt: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "cobtree-chaos-it-{}-{tag}-{salt:x}",
        std::process::id()
    ))
}

/// Drives one deterministic storage workload — build, churn, flush,
/// flush again — through a seeded fault schedule and returns the
/// injected-event log. Single-threaded (no background compaction), so
/// the operation stream is a pure function of the inputs.
fn drive_seeded(seed: u64, dir: &Path) -> String {
    std::fs::remove_dir_all(dir).ok();
    let fault = Arc::new(FaultIo::seeded(seed, 8, 6));
    let io: Arc<dyn StorageIo> = Arc::clone(&fault) as Arc<dyn StorageIo>;
    let built = TieredForest::builder()
        .layout(NamedLayout::MinWep)
        .shards(2)
        .path(dir)
        .background(false)
        .io(io)
        .keys((1..=200u64).map(|k| k * 2))
        .build();
    if let Ok(t) = built {
        for k in 0..40u64 {
            t.insert(1_001 + 2 * k);
        }
        let _ = t.flush();
        for k in 0..10u64 {
            t.remove(1_001 + 2 * k);
        }
        let _ = t.flush();
    }
    let log = fault.event_log();
    std::fs::remove_dir_all(dir).ok();
    log
}

/// Same seed ⇒ byte-identical failure sequence, run to run and
/// directory to directory. This is the determinism contract every
/// other chaos assertion stands on.
#[test]
fn same_seed_yields_byte_identical_fault_sequences() {
    let a = drive_seeded(0xC0FFEE, &temp_dir("det-a", 1));
    let b = drive_seeded(0xC0FFEE, &temp_dir("det-b", 2));
    assert_eq!(a, b, "seeded schedules must replay byte-identically");
    assert!(
        !a.is_empty(),
        "the schedule never fired — widen the horizon so the test bites"
    );
    // A disjoint seed exercises a different schedule (sanity that the
    // log actually depends on the seed, not just the op stream).
    let c = drive_seeded(0xBEEF, &temp_dir("det-c", 3));
    assert_ne!(a, c, "different seeds should inject differently");
}

/// Kill-at-every-failpoint: inject a fault at the Nth write, sync and
/// rename of the flush pipeline, for every N the pipeline reaches.
/// Whatever the outcome, two invariants must hold: the published
/// on-disk state stays openable and complete (no acked durable write
/// lost), and an in-process retry against clean I/O drains the buffer
/// without losing a single acknowledged key.
#[test]
fn every_flush_failpoint_loses_no_acked_durable_write() {
    let base: Vec<u64> = (1..=300u64).map(|k| k * 2).collect();
    for op in [IoOp::Write, IoOp::Sync, IoOp::Rename] {
        for nth in 1..=6u64 {
            let dir = temp_dir("failpoint", u64::from(op.label().len() as u32) << 8 | nth);
            std::fs::remove_dir_all(&dir).ok();
            let tiered = TieredForest::builder()
                .layout(NamedLayout::MinWep)
                .shards(2)
                .path(&dir)
                .background(false)
                .keys(base.iter().copied())
                .build()
                .expect("seed store");
            // The durable prefix: everything published by the build.
            for k in 0..25u64 {
                tiered.insert(2_001 + 2 * k);
            }
            let fault = FaultIo::scripted(vec![FaultRule {
                op,
                nth,
                kind: if op == IoOp::Write && nth % 2 == 0 {
                    FaultKind::Torn
                } else {
                    FaultKind::Fail
                },
            }]);
            let failed = tiered.flush_with_io(&fault).is_err();

            // Crash leg: reopen from disk alone. The store must open
            // and still hold every key of the last *published* epoch.
            let reopened: TieredForest<u64> =
                TieredForest::open(&dir).expect("store openable after injected fault");
            for &k in &base {
                assert!(
                    reopened.locate(k).is_some(),
                    "{}#{nth}: durable key {k} lost",
                    op.label()
                );
            }
            drop(reopened);

            // Retry leg: the frozen buffer stayed behind, so a clean
            // flush drains it — every acked write surfaces.
            tiered.flush().expect("clean retry flush");
            for k in 0..25u64 {
                let key = 2_001 + 2 * k;
                assert!(
                    tiered.locate(key).is_some(),
                    "{}#{nth}: acked buffered key {key} lost (failed={failed})",
                    op.label()
                );
            }
            drop(tiered);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// A publish builds its shard images on every core but writes them on
/// the flushing thread alone, in generation order, with the manifest
/// last. Failing the k-th write of a 4-shard seed publish must
/// therefore always hit the k-th shard file, and the fifth write the
/// epoch manifest, run after run.
#[test]
fn fanned_out_publish_writes_in_generation_order() {
    use cobtree::search::tiered::{tiered_manifest_name, tiered_shard_name};
    let keys: Vec<u64> = (1..=4_000u64).map(|k| k * 3).collect();
    for repeat in 0..5u64 {
        for k in 1..=5u64 {
            let dir = temp_dir("publish-order", repeat << 8 | k);
            std::fs::remove_dir_all(&dir).ok();
            let fault = Arc::new(FaultIo::scripted(vec![FaultRule {
                op: IoOp::Write,
                nth: k,
                kind: FaultKind::Fail,
            }]));
            let built = TieredForest::builder()
                .layout(NamedLayout::MinWep)
                .shards(4)
                .path(&dir)
                .background(false)
                .io(Arc::clone(&fault) as Arc<dyn StorageIo>)
                .keys(keys.iter().copied())
                .build();
            assert!(
                built.is_err(),
                "write #{k} was failed, yet the seed publish succeeded"
            );
            let file = if k <= 4 {
                tiered_shard_name(k)
            } else {
                tiered_manifest_name(1)
            };
            assert_eq!(
                fault.event_log(),
                format!("write#{k} fail {file}\n"),
                "repeat {repeat}: write #{k} must hit {file}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The full loop: boot → bomb (healthy baseline) → corrupt a shard's
/// next scrub read → scrub detects and quarantines → bomb degraded
/// (its key range answers `UNAVAIL`, the rest keeps serving) → heal
/// by flush → everything serves again. No panic escapes, no acked
/// durable write is lost, and the injected sequence is exactly the
/// one scripted.
#[test]
fn scrub_detects_quarantines_and_heals_under_load() {
    let dir = temp_dir("loop", 0xFEED);
    std::fs::remove_dir_all(&dir).ok();
    {
        // Seed the store with clean I/O, then reopen behind the seam.
        let t = TieredForest::builder()
            .layout(NamedLayout::MinWep)
            .shards(3)
            .path(&dir)
            .background(false)
            .keys((1..=600u64).map(|k| k * 2))
            .build()
            .expect("seed store");
        drop(t);
    }
    let fault = Arc::new(FaultIo::passthrough());
    let io: Arc<dyn StorageIo> = Arc::clone(&fault) as Arc<dyn StorageIo>;
    let tiered = TieredForest::builder()
        .path(&dir)
        .background(false)
        .io(io)
        .build()
        .expect("reopen behind fault seam");
    let tiered = Arc::new(tiered);
    let server = Server::start(
        ServeEngine::Tiered(Arc::clone(&tiered)),
        "tcp:127.0.0.1:0",
        ServerConfig {
            workers: 2,
            durable_writes: true,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.addr().to_spec();

    // Healthy baseline under open-loop load, with client retry armed.
    let bomb = BomberConfig {
        addr: addr.clone(),
        connections: 2,
        users: 600,
        zipf_s: 0.9,
        window: 16,
        mix: OpMix::parse("90,5,0,0,5").expect("mix"),
        duration: Duration::from_millis(400),
        seed: 7,
        max_retries: 2,
        ..BomberConfig::default()
    };
    let baseline = bomber::run(&bomb).expect("baseline run");
    assert!(baseline.completed > 0, "baseline served nothing");
    assert_eq!(baseline.unavail, 0, "healthy store answered UNAVAIL");

    // Quiesce writes, then arm a bit-flip for the next shard read —
    // which is the scrubber's. Durable bombing writes flushed through
    // the seam, so the counter position is only known *now*.
    let mut client = Client::connect(&addr).expect("connect");
    let rule = FaultRule {
        op: IoOp::Read,
        nth: fault.op_count(IoOp::Read) + 1,
        kind: FaultKind::BitFlip(12_345),
    };
    fault.add_rule(rule);
    let report = tiered.scrub_step(0);
    assert_eq!(
        report.newly_quarantined.len(),
        1,
        "exactly one shard fails verification: {report:?}"
    );
    assert_eq!(tiered.quarantined_shards(), 1);
    assert_eq!(fault.pending_rules(), 0, "the scripted rule fired");
    let log = fault.event_log();
    assert!(
        log.contains(&format!("read#{} bit-flip:12345", rule.nth)),
        "event log records the exact injection: {log}"
    );

    // Degraded-but-serving: the quarantined shard's keys answer
    // UNAVAIL (clients retry then give up), everything else serves.
    let unavail_keys: Vec<u64> = (1..=600u64)
        .map(|k| k * 2)
        .filter(|&k| tiered.check_available(k).is_err())
        .collect();
    assert!(!unavail_keys.is_empty());
    assert!(unavail_keys.len() < 600);
    for &probe in unavail_keys.iter().take(5) {
        let resp = client.call(&Request::Get { key: probe }).expect("call");
        assert_eq!(resp.status, Status::Unavail);
    }
    let degraded_bomb = BomberConfig {
        mix: OpMix::parse("100,0,0,0,0").expect("mix"),
        duration: Duration::from_millis(300),
        ..bomb
    };
    let degraded = bomber::run(&degraded_bomb).expect("degraded run");
    assert!(degraded.completed > 0, "degraded store stopped serving");
    assert!(
        degraded.unavail + degraded.give_ups > 0,
        "quarantined range never surfaced: {degraded:?}"
    );
    assert!(
        degraded.retries > 0,
        "clients never retried transient refusals"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stats.quarantined_shards, 1);
    assert!(stats.scrub_passes >= 1 || tiered.scrub_passes() >= 1);

    // Heal: an acked durable write forces a republish; the rebuild
    // replaces the quarantined shard from its intact in-memory tree.
    assert_eq!(
        client
            .call(&Request::Insert { key: 99_999 })
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
        assert!(matches!(resp.reply, Some(Reply::Hit { found: true, .. })));
    }
    // No acked durable write lost across the whole episode: the
    // healing flush was durable, so a cold reopen still has the key.
    server.shutdown().expect("shutdown");
    drop(client);
    let tref = Arc::try_unwrap(tiered).map_err(|_| ()).ok();
    drop(tref);
    let reopened: TieredForest<u64> = TieredForest::open(&dir).expect("cold reopen");
    assert!(reopened.locate(99_999).is_some(), "acked heal-write lost");
    assert_eq!(reopened.quarantined_shards(), 0);
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}

/// Polls `STATS` until `done` holds, failing after a few seconds.
fn await_stats(
    client: &mut Client,
    what: &str,
    done: impl Fn(&StatsSnapshot) -> bool,
) -> StatsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = client.stats().expect("stats");
        if done(&stats) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "{what} never happened: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The server's own scrub thread (`ServerConfig::scrub_interval`)
/// finds a corrupt shard file with no `scrub_step` call from outside:
/// `STATS` shows the quarantine, the shard's keys answer `UNAVAIL`
/// while every other key serves, and a `FLUSH` heals it.
#[test]
fn server_scrub_thread_quarantines_and_flush_heals() {
    let dir = temp_dir("scrub-thread", 0x5C2B);
    std::fs::remove_dir_all(&dir).ok();
    let keys: Vec<u64> = (1..=600u64).map(|k| k * 2).collect();
    drop(
        TieredForest::builder()
            .layout(NamedLayout::MinWep)
            .shards(3)
            .path(&dir)
            .background(false)
            .keys(keys.iter().copied())
            .build()
            .expect("seed store"),
    );
    let fault = Arc::new(FaultIo::passthrough());
    let tiered = Arc::new(
        TieredForest::builder()
            .path(&dir)
            .background(false)
            .io(Arc::clone(&fault) as Arc<dyn StorageIo>)
            .build()
            .expect("reopen behind fault seam"),
    );
    let server = Server::start(
        ServeEngine::Tiered(Arc::clone(&tiered)),
        "tcp:127.0.0.1:0",
        ServerConfig {
            workers: 2,
            scrub_interval: Some(Duration::from_millis(10)),
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let mut client = Client::connect(&server.addr().to_spec()).expect("connect");
    let clean = await_stats(&mut client, "a clean scrub pass", |s| s.scrub_passes >= 1);
    assert_eq!(clean.quarantined_shards, 0, "a clean store was quarantined");

    // Between flushes the scrub thread is the only reader of shard
    // files, one file per tick. Arming two reads ahead keeps the flip
    // even if one of its reads lands between sampling the counter and
    // adding the rule.
    let rule = FaultRule {
        op: IoOp::Read,
        nth: fault.op_count(IoOp::Read) + 2,
        kind: FaultKind::BitFlip(12_345),
    };
    let armed = client.stats().expect("stats").scrub_passes;
    fault.add_rule(rule);
    let degraded = await_stats(&mut client, "a scrub quarantine", |s| {
        s.quarantined_shards == 1 && s.scrub_passes > armed
    });
    assert_eq!(degraded.heals, 0);
    assert_eq!(fault.pending_rules(), 0, "the armed rule fired");
    let log = fault.event_log();
    assert!(
        log.contains(&format!("read#{} bit-flip:12345", rule.nth)),
        "event log records the injection: {log}"
    );

    let (unavail, serving): (Vec<u64>, Vec<u64>) = keys
        .iter()
        .partition(|&&k| tiered.check_available(k).is_err());
    assert!(!unavail.is_empty() && !serving.is_empty());
    for &probe in unavail.iter().take(5) {
        let resp = client.call(&Request::Get { key: probe }).expect("call");
        assert_eq!(resp.status, Status::Unavail, "quarantined probe {probe}");
    }
    for &probe in serving.iter().step_by(37) {
        let resp = client.call(&Request::Get { key: probe }).expect("call");
        assert_eq!(resp.status, Status::Ok, "serving probe {probe}");
        assert!(matches!(resp.reply, Some(Reply::Hit { found: true, .. })));
    }

    // A flush with nothing buffered still republishes, because a shard
    // is quarantined: the rebuild is the heal.
    assert_eq!(
        client.call(&Request::Flush).expect("flush").status,
        Status::Ok
    );
    let healed = client.stats().expect("stats");
    assert_eq!(healed.heals, 1, "{healed:?}");
    assert_eq!(healed.quarantined_shards, 0, "{healed:?}");
    for &probe in &unavail {
        let resp = client.call(&Request::Get { key: probe }).expect("call");
        assert_eq!(resp.status, Status::Ok, "healed probe {probe}");
        assert!(matches!(resp.reply, Some(Reply::Hit { found: true, .. })));
    }
    drop(client);
    server.shutdown().expect("shutdown");
    drop(tiered);
    std::fs::remove_dir_all(&dir).ok();
}
