//! Acceptance tests for the tiered write path: under arbitrary
//! interleavings of inserts, removes, flushes and reads, the
//! [`TieredForest`] must answer the full ordered-map surface exactly
//! like a `BTreeSet` oracle — cursors straddling tiers, rank/select
//! with pending tombstones, empty-memtable and memtable-only edge
//! cases included — and a compaction killed at any write must leave a
//! store that reopens to precisely the state of the last successful
//! publish, without panicking.

use cobtree::core::format;
use cobtree::core::NamedLayout;
use cobtree::{TierPlace, TieredForest};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn temp_dir(tag: &str, salt: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "cobtree-tiered-it-{}-{tag}-{salt:x}",
        std::process::id()
    ))
}

/// Checks the complete query surface of `engine` against `oracle`,
/// probing around every live key and a sweep of absent ones.
fn assert_matches_oracle(engine: &TieredForest<u64>, oracle: &BTreeSet<u64>, tag: &str) {
    let keys: Vec<u64> = oracle.iter().copied().collect();
    assert_eq!(engine.len(), keys.len() as u64, "{tag}: len");
    assert_eq!(engine.is_empty(), keys.is_empty(), "{tag}");

    // Full sorted iteration (the three-tier merge) and its reverse.
    let snapshot = engine.snapshot();
    let forward: Vec<u64> = snapshot.iter().collect();
    assert_eq!(forward, keys, "{tag}: iter");
    let mut backward: Vec<u64> = snapshot.iter().rev().collect();
    backward.reverse();
    assert_eq!(backward, keys, "{tag}: iter().rev()");

    // Point + ordered queries at, below and above every live key, plus
    // the extremes.
    let probes: Vec<u64> = keys
        .iter()
        .flat_map(|&k| [k.saturating_sub(1), k, k + 1])
        .chain([0, 1, u64::MAX / 2, u64::MAX - 1])
        .collect();
    for &p in &probes {
        let lt = keys.partition_point(|&k| k < p) as u64;
        let le = keys.partition_point(|&k| k <= p) as u64;
        let present = oracle.contains(&p);
        assert_eq!(engine.contains(p), present, "{tag}: contains({p})");
        assert_eq!(engine.rank(p), lt, "{tag}: rank({p})");
        assert_eq!(engine.lower_bound_rank(p), lt + 1, "{tag}: lb_rank({p})");
        assert_eq!(engine.upper_bound_rank(p), le + 1, "{tag}: ub_rank({p})");
        assert_eq!(
            engine.lower_bound(p),
            keys.get(lt as usize).copied(),
            "{tag}: lower_bound({p})"
        );
        assert_eq!(
            engine.upper_bound(p),
            keys.get(le as usize).copied(),
            "{tag}: upper_bound({p})"
        );
        assert_eq!(
            engine.predecessor(p),
            (lt > 0).then(|| keys[lt as usize - 1]),
            "{tag}: predecessor({p})"
        );
        assert_eq!(
            engine.successor(p),
            keys.get(le as usize).copied(),
            "{tag}: successor({p})"
        );
        let hit = engine.locate(p);
        assert_eq!(hit.is_some(), present, "{tag}: locate({p})");
        if let Some(hit) = hit {
            assert_eq!(hit.rank, le, "{tag}: locate({p}).rank");
        }
        // The rank-free lookups answer locate's place.
        let place = hit.map(|h| h.place);
        assert_eq!(engine.find(p), place, "{tag}: find({p})");
    }
    let mut found = Vec::new();
    engine.find_batch(&probes, |f| found.push(f));
    assert_eq!(found.len(), probes.len(), "{tag}: find_batch");
    for (&p, f) in probes.iter().zip(&found) {
        let place = engine.locate(p).map(|h| h.place);
        assert_eq!(f.as_ref().ok(), Some(&place), "{tag}: find_batch({p})");
    }

    // select is the exact inverse of the dense rank sequence.
    assert_eq!(engine.select(0), None, "{tag}");
    assert_eq!(engine.select(keys.len() as u64 + 1), None, "{tag}");
    for (i, &k) in keys.iter().enumerate() {
        assert_eq!(
            engine.select(i as u64 + 1),
            Some(k),
            "{tag}: select({})",
            i + 1
        );
    }

    // Range windows between consecutive live keys (and a full scan).
    let scan: Vec<u64> = snapshot.range(..).collect();
    assert_eq!(scan, keys, "{tag}: range(..)");
    for w in keys.windows(3).step_by(2) {
        let got: Vec<u64> = snapshot.range(w[0]..=w[2]).collect();
        assert_eq!(got, w.to_vec(), "{tag}: range({}..={})", w[0], w[2]);
        let half: Vec<u64> = snapshot.range(w[0] + 1..w[2]).collect();
        let expect: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|&k| k > w[0] && k < w[2])
            .collect();
        assert_eq!(half, expect, "{tag}: range({}..{})", w[0] + 1, w[2]);
    }

    // Cursor walk: seek each probe to its lower bound, then step both
    // ways and return.
    let mut cur = snapshot.cursor();
    for &p in probes.iter().take(24) {
        let lt = keys.partition_point(|&k| k < p);
        assert_eq!(cur.seek(p), keys.get(lt).copied(), "{tag}: seek({p})");
        assert_eq!(
            cur.next(),
            keys.get(lt + 1).copied(),
            "{tag}: seek({p}).next"
        );
        assert_eq!(
            cur.prev(),
            keys.get(lt).copied(),
            "{tag}: back to seek({p})"
        );
    }
    assert_eq!(cur.seek_first(), keys.first().copied(), "{tag}");
    assert_eq!(cur.seek_last(), keys.last().copied(), "{tag}");

    // Sorted-batch search over every live key and the gaps between.
    let mut batch: Vec<u64> = probes.clone();
    batch.sort_unstable();
    batch.dedup();
    let mut out = Vec::new();
    engine
        .search_sorted_batch(&batch, &mut out)
        .expect("sorted batch");
    assert_eq!(out.len(), batch.len(), "{tag}: batch");
    for (&p, hit) in batch.iter().zip(&out) {
        assert_eq!(hit.is_some(), oracle.contains(&p), "{tag}: batch({p})");
        let place = engine.locate(p).map(|h| h.place);
        assert_eq!(*hit, place, "{tag}: batch place({p})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The cross-tier ordered-map oracle: arbitrary interleavings of
    /// inserts, removes, explicit compactions and reads against a
    /// durable (mapped-storage) engine for ≥2 layouts, with the oracle
    /// consulted mid-stream (memtable populated, tombstones pending
    /// against the base) and after a full drain (empty memtable).
    #[test]
    fn ordered_api_matches_btreeset_across_tiers(
        layout in proptest::sample::select(vec![NamedLayout::MinWep, NamedLayout::PreVeb]),
        seed_keys in proptest::collection::btree_set(0u64..4_000, 0..120),
        ops in proptest::collection::vec((0u64..3u64, 0u64..4_000), 1..160),
        salt in any::<u64>(),
    ) {
        let dir = temp_dir("oracle", salt);
        std::fs::remove_dir_all(&dir).ok();
        let engine: TieredForest<u64> = TieredForest::builder()
            .layout(layout)
            .shards(2)
            .memtable_entries(1 << 30) // only explicit flushes
            .path(&dir)
            .keys(seed_keys.iter().copied())
            .build()
            .expect("build durable engine");
        let mut oracle: BTreeSet<u64> = seed_keys;

        for (i, &(op, key)) in ops.iter().enumerate() {
            match op {
                0 => prop_assert_eq!(engine.insert(key), oracle.insert(key), "op {} insert {}", i, key),
                1 => prop_assert_eq!(engine.remove(key), oracle.remove(&key), "op {} remove {}", i, key),
                _ => {
                    prop_assert_eq!(engine.contains(key), oracle.contains(&key), "op {} get {}", i, key);
                    // Every third read op forces a compaction first, so
                    // later ops run against a freshly published base
                    // with an empty memtable.
                    if i % 3 == 0 {
                        engine.compact().expect("compact");
                        prop_assert_eq!(engine.buffered(), 0, "op {}", i);
                    }
                }
            }
            prop_assert_eq!(engine.len(), oracle.len() as u64, "op {}", i);
        }

        // Mid-stream: memtable (and possibly tombstones) pending.
        assert_matches_oracle(&engine, &oracle, "buffered");
        // Drained: empty memtable, pure base.
        engine.compact().expect("final compact");
        assert_matches_oracle(&engine, &oracle, "drained");
        // Durable: a reopened store serves the identical state.
        drop(engine);
        let reopened: TieredForest<u64> = TieredForest::open(&dir).expect("reopen");
        assert_matches_oracle(&reopened, &oracle, "reopened");
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Crash consistency: kill the compaction at an arbitrary write
    /// (optionally tearing that write in half), drop the engine, and
    /// reopen the directory. The store must come back to exactly the
    /// state of the last *successful* publish — nothing flushed is ever
    /// lost, nothing half-flushed ever surfaces, and no input panics.
    #[test]
    fn killed_compaction_reopens_to_last_publish(
        rounds in proptest::collection::vec(
            // (ops this round, kill-at-write budget, tear the last write)
            (1u64..40, 0usize..6, any::<bool>()),
            1..5,
        ),
        salt in any::<u64>(),
    ) {
        let dir = temp_dir("crash", salt);
        std::fs::remove_dir_all(&dir).ok();
        let seed: Vec<u64> = (1..=200u64).map(|k| k * 3).collect();
        let mut engine: TieredForest<u64> = TieredForest::builder()
            .shards(3)
            .memtable_entries(1 << 30)
            .path(&dir)
            .keys(seed.iter().copied())
            .build()
            .expect("build durable engine");

        let mut oracle: BTreeSet<u64> = seed.into_iter().collect();
        let mut durable = oracle.clone(); // state of the last publish
        let mut state = salt | 1;

        for &(ops, budget, tear) in &rounds {
            for _ in 0..ops {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let key = (state >> 33) % 900;
                if state % 3 == 0 {
                    engine.remove(key);
                    oracle.remove(&key);
                } else {
                    engine.insert(key);
                    oracle.insert(key);
                }
            }
            match engine.flush_with_failpoint(budget, tear) {
                Ok(_) => durable = oracle.clone(),
                Err(_) => {
                    // Crash: drop the wounded engine without retrying.
                    drop(engine);
                    let back: TieredForest<u64> =
                        TieredForest::open(&dir).expect("reopen after kill");
                    let got: Vec<u64> = back.snapshot().iter().collect();
                    let expect: Vec<u64> = durable.iter().copied().collect();
                    prop_assert_eq!(got, expect, "budget {} tear {}", budget, tear);
                    // The acknowledged-but-unflushed tail is gone with
                    // the crash; resync the oracle to the survivor.
                    oracle = durable.clone();
                    engine = back;
                }
            }
            // Whatever happened, the live engine serves its oracle.
            prop_assert_eq!(engine.len(), oracle.len() as u64);
            for &p in oracle.iter().take(8) {
                prop_assert!(engine.contains(p));
            }
        }

        // A final clean drain always succeeds and reopens losslessly.
        engine.compact().expect("final compact");
        drop(engine);
        let back: TieredForest<u64> = TieredForest::open(&dir).expect("final reopen");
        let got: Vec<u64> = back.snapshot().iter().collect();
        let expect: Vec<u64> = oracle.iter().copied().collect();
        prop_assert_eq!(got, expect);
        drop(back);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Memtable-only edge: every query works before any flush exists, with
/// no base forest and no directory.
#[test]
fn memtable_only_engine_matches_oracle() {
    let engine: TieredForest<u64> = TieredForest::builder()
        .memtable_entries(1 << 30)
        .build()
        .expect("in-memory engine");
    let mut oracle = BTreeSet::new();
    for k in [55u64, 13, 89, 2, 34, 21, 1, 3, 8, 5] {
        assert!(engine.insert(k));
        oracle.insert(k);
    }
    assert!(engine.remove(34));
    oracle.remove(&34);
    assert_matches_oracle(&engine, &oracle, "memtable-only");
    // Every hit resolves in the buffer tier: there is no base.
    for &k in &oracle {
        assert_eq!(
            engine.locate(k).expect("live key").place,
            TierPlace::Buffer,
            "{k}"
        );
    }
}

/// Empty-engine edge: all queries are total on a store with no keys at
/// all, and stay total after the last key is tombstoned away.
#[test]
fn empty_and_fully_drained_engines_answer_every_query() {
    let dir = temp_dir("empty", 0xE);
    std::fs::remove_dir_all(&dir).ok();
    let engine: TieredForest<u64> = TieredForest::builder()
        .shards(2)
        .path(&dir)
        .build()
        .expect("empty durable engine");
    assert_matches_oracle(&engine, &BTreeSet::new(), "born empty");

    for k in 0..40u64 {
        engine.insert(k * 7);
    }
    engine.compact().expect("publish");
    for k in 0..40u64 {
        engine.remove(k * 7);
    }
    // Tombstones for every base key are pending: the engine is logically
    // empty while the base still holds 40 keys.
    assert_matches_oracle(&engine, &BTreeSet::new(), "all tombstoned");
    engine.compact().expect("drain to empty");
    assert_matches_oracle(&engine, &BTreeSet::new(), "drained empty");

    // And the emptied store round-trips through disk (a v2 manifest
    // with zero total keys is valid).
    drop(engine);
    let back: TieredForest<u64> = TieredForest::open(&dir).expect("reopen empty");
    assert_matches_oracle(&back, &BTreeSet::new(), "reopened empty");
    drop(back);
    std::fs::remove_dir_all(&dir).ok();
}

/// The generation and format version (header bytes 4..6) of every
/// shard file the newest manifest in `dir` references.
fn current_shard_versions(dir: &std::path::Path) -> Vec<(u64, u16)> {
    let epoch = std::fs::read_dir(dir)
        .expect("list store")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_prefix("forest-e")?
                .strip_suffix(".cobf")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .expect("a published manifest");
    let bytes = std::fs::read(dir.join(format!("forest-e{epoch:08}.cobf"))).expect("manifest");
    let manifest = format::parse_manifest_v2::<u64>(&bytes).expect("valid manifest");
    manifest
        .shards
        .iter()
        .filter(|r| r.bounds.is_some())
        .map(|r| {
            let file = std::fs::read(dir.join(format!("shard-g{:08}.cobt", r.generation)))
                .expect("shard file");
            (r.generation, u16::from_le_bytes([file[4], file[5]]))
        })
        .collect()
}

/// Upgrade path: a store whose shard files are all format v2 (FNV-1a
/// content) reopens; an incremental flush writes the one shard it
/// touches as v3 and carries the others as v2; the mixed store serves
/// its oracle and reopens to it.
#[test]
fn v2_shard_files_reopen_and_upgrade_one_flush_at_a_time() {
    let dir = temp_dir("upgrade", 0x2);
    std::fs::remove_dir_all(&dir).ok();
    let seed: Vec<u64> = (1..=400u64).map(|k| k * 3).collect();
    let engine: TieredForest<u64> = TieredForest::builder()
        .shards(4)
        .memtable_entries(1 << 30)
        .path(&dir)
        .keys(seed.iter().copied())
        .build()
        .expect("build durable engine");
    drop(engine);

    // Restamp every shard file as v2, sealed as v2 wrote it.
    let seeded = current_shard_versions(&dir);
    assert_eq!(seeded.len(), 4);
    for &(generation, version) in &seeded {
        assert_eq!(version, format::VERSION);
        let path = dir.join(format!("shard-g{generation:08}.cobt"));
        let mut file = std::fs::read(&path).expect("read shard");
        file[4..6].copy_from_slice(&2u16.to_le_bytes());
        format::seal_content_hash(&mut file);
        format::seal_header_hash(&mut file);
        std::fs::write(&path, file).expect("restamp shard");
    }

    let engine: TieredForest<u64> = TieredForest::open(&dir).expect("reopen a v2 store");
    let mut oracle: BTreeSet<u64> = seed.into_iter().collect();
    assert_matches_oracle(&engine, &oracle, "v2 store");

    // Touch only the first shard (it holds 3..=300).
    for k in [4u64, 5, 7, 299] {
        assert!(engine.insert(k));
        oracle.insert(k);
    }
    assert!(engine.remove(9));
    oracle.remove(&9);
    assert!(engine.flush().expect("incremental flush"));

    let mixed = current_shard_versions(&dir);
    assert_eq!(mixed.len(), 4);
    let old_gens: Vec<u64> = seeded.iter().map(|&(g, _)| g).collect();
    assert_eq!(
        &mixed[1..],
        &seeded[1..].iter().map(|&(g, _)| (g, 2)).collect::<Vec<_>>()[..]
    );
    assert!(
        !old_gens.contains(&mixed[0].0),
        "the touched shard is rewritten"
    );
    assert_eq!(mixed[0].1, format::VERSION, "and written as v3");
    assert_matches_oracle(&engine, &oracle, "mixed store");

    drop(engine);
    let back: TieredForest<u64> = TieredForest::open(&dir).expect("reopen the mixed store");
    assert_eq!(current_shard_versions(&dir), mixed);
    assert_matches_oracle(&back, &oracle, "reopened mixed store");
    drop(back);
    std::fs::remove_dir_all(&dir).ok();
}
