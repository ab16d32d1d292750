//! [`ServeEngine`]: one handle over the three things a server can put
//! behind the wire — an immutable mapped [`Forest`], the traffic-
//! adaptive [`AdaptiveEngine`] wrapper around one, or the LSM-style
//! [`TieredForest`] write path — answering every protocol op with the
//! exact same semantics as the in-process API (the parity tests hold
//! the server to bit-identical answers).
//!
//! Point reads (`GET`, `BATCH`) compute no rank on any engine: a base
//! hit is routed to its shard and found by that shard's fast-plane
//! descent (the tiered engine probes its buffers first). Ranks are
//! computed only for `RANK`, `SELECT`, the bounds and ranges.
//!
//! A sorted batch has one path in three steps, so a server can run its
//! parts on different threads: `ServeEngine::plan_batch` checks the
//! batch, pins one read view and cuts the probes at the shard fences;
//! `BatchPlan::descend` walks one shard run; `BatchPlan::assemble`
//! puts the runs' answers together into the reply.
//! [`ServeEngine::sorted_batch`] runs all three on the calling thread.

use crate::planner::AdaptiveEngine;
use cobtree_core::io::RealIo;
use cobtree_core::protocol::{BatchHit, Reply, Status, BUFFER_SHARD, MAX_RANGE_KEYS};
use cobtree_search::tiered::{TierPlace, TieredForest, TieredSnapshot};
use cobtree_search::{Forest, ScrubReport};
use std::ops::Range;
use std::sync::Arc;

/// The store a server serves: reads go to whichever engine is mounted,
/// writes only exist on the tiered one, and `Reopt` only on the
/// adaptive one.
#[derive(Clone)]
pub enum ServeEngine {
    /// An immutable (typically memory-mapped) forest: reads only.
    Forest(Arc<Forest<u64>>),
    /// An adaptive forest: reads feed the traffic sampler, `Reopt`
    /// hot-swaps re-optimized shard layouts, answers stay identical.
    Adaptive(Arc<AdaptiveEngine>),
    /// The tiered write path: reads *and* inserts/removes/flushes.
    Tiered(Arc<TieredForest<u64>>),
}

/// What an engine op produced: a success reply or a typed failure
/// status (`Unsupported` for writes against an immutable forest,
/// `Internal` for engine errors).
pub type EngineResult = Result<Reply, Status>;

impl ServeEngine {
    /// `"forest"`, `"adaptive"` or `"tiered"` — for logs and the stats
    /// harness.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ServeEngine::Forest(_) => "forest",
            ServeEngine::Adaptive(_) => "adaptive",
            ServeEngine::Tiered(_) => "tiered",
        }
    }

    /// Live key count.
    #[must_use]
    pub fn len(&self) -> u64 {
        match self {
            ServeEngine::Forest(f) => f.len(),
            ServeEngine::Adaptive(a) => a.snapshot().len(),
            ServeEngine::Tiered(t) => t.len(),
        }
    }

    /// Whether no key is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dense base-forest shard that could hold `key`, for worker
    /// affinity: `None` when the key routes outside every shard's fence
    /// interval (or, on a tiered engine, when no base forest exists
    /// yet) — such keys are answered inline by the connection's own
    /// worker instead of being handed off.
    #[must_use]
    pub fn route_shard(&self, key: u64) -> Option<usize> {
        match self {
            ServeEngine::Forest(f) => f.router().route(key),
            // The router is pinned across swaps (same fences, same key
            // sets), so worker affinity never migrates mid-flight.
            ServeEngine::Adaptive(a) => a.snapshot().router().route(key),
            ServeEngine::Tiered(t) => t.with_base(|b| b.and_then(|b| b.router().route(key))),
        }
    }

    /// Base-forest shard count (1 minimum, so `shard % workers`
    /// ownership is always defined).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        match self {
            ServeEngine::Forest(f) => f.shard_count().max(1),
            ServeEngine::Adaptive(a) => a.snapshot().shard_count().max(1),
            ServeEngine::Tiered(t) => t.with_base(|b| b.map_or(1, |b| b.shard_count().max(1))),
        }
    }

    /// Whether `key`'s owning shard is serving; `Err(Status::Unavail)`
    /// when it is quarantined.
    fn check_key(&self, key: u64) -> Result<(), Status> {
        let available = match self {
            ServeEngine::Forest(f) => f.check_available(key),
            ServeEngine::Adaptive(a) => a.snapshot().check_available(key),
            ServeEngine::Tiered(t) => t.check_available(key),
        };
        available.map_err(|_| Status::Unavail)
    }

    /// Whether any shard is currently quarantined — the conservative
    /// gate for ops whose answers span every shard (rank, select,
    /// range, bounds).
    #[must_use]
    pub fn any_quarantined(&self) -> bool {
        self.health_counters().1 > 0
    }

    /// Point lookup → the protocol's `Hit` reply. Buffer-tier hits on
    /// the tiered engine report shard [`BUFFER_SHARD`] and position 0.
    /// Keys routed to a quarantined shard answer
    /// `Err(Status::Unavail)` — the rest of the key space keeps
    /// serving.
    pub fn get(&self, key: u64) -> EngineResult {
        self.check_key(key)?;
        Ok(match self {
            ServeEngine::Forest(f) => forest_get(f, key),
            ServeEngine::Adaptive(a) => {
                let f = a.snapshot();
                a.sampler().observe(&f, key);
                forest_get(&f, key)
            }
            ServeEngine::Tiered(t) => hit_reply(t.find(key).map(tier_coords)),
        })
    }

    /// A whole batch of point lookups on the **calling** thread — the
    /// worker-affinity hot path. On the immutable forest this runs the
    /// serial interleaved descent kernel
    /// ([`Forest::search_batch_interleaved`]) with `width` lookups in
    /// flight. The tiered engine resolves the whole batch under one
    /// tier read lock ([`TieredForest::find_batch`]): buffers first,
    /// then one fast-plane descent per base probe, with the quarantine
    /// check made per probe under the same lock. `out` gets one `Hit`
    /// reply per probe, in probe order; probes routed to a quarantined
    /// shard answer `Unavail`.
    pub fn get_batch(&self, keys: &[u64], width: usize, out: &mut Vec<EngineResult>) {
        out.clear();
        match self {
            ServeEngine::Tiered(t) => t.find_batch(keys, |found| {
                out.push(
                    found
                        .map(|place| hit_reply(place.map(tier_coords)))
                        .map_err(|_| Status::Unavail),
                );
            }),
            // Degraded path: resolve per key so only probes routed to
            // the quarantined shard answer `Unavail`.
            _ if self.any_quarantined() => out.extend(keys.iter().map(|&k| self.get(k))),
            ServeEngine::Forest(f) => forest_get_batch(f, keys, width, out),
            ServeEngine::Adaptive(a) => {
                let f = a.snapshot();
                for &k in keys {
                    a.sampler().observe(&f, k);
                }
                forest_get_batch(&f, keys, width, out);
            }
        }
    }

    /// Smallest stored key `>=` / `>` the probe. `Unavail` while any
    /// shard is quarantined (the answer may live in it).
    pub fn bound(&self, key: u64, upper: bool) -> EngineResult {
        if self.any_quarantined() {
            return Err(Status::Unavail);
        }
        let found = match (self, upper) {
            (ServeEngine::Forest(f), false) => f.lower_bound(key),
            (ServeEngine::Forest(f), true) => f.upper_bound(key),
            (ServeEngine::Adaptive(a), false) => a.snapshot().lower_bound(key),
            (ServeEngine::Adaptive(a), true) => a.snapshot().upper_bound(key),
            (ServeEngine::Tiered(t), false) => t.lower_bound(key),
            (ServeEngine::Tiered(t), true) => t.upper_bound(key),
        };
        Ok(Reply::KeyOpt {
            found: found.is_some(),
            key: found.unwrap_or(0),
        })
    }

    /// Stored keys strictly below the probe (0-based rank). `Unavail`
    /// while any shard is quarantined — forest-wide ranks depend on
    /// every shard's key count being trustworthy.
    pub fn rank(&self, key: u64) -> EngineResult {
        if self.any_quarantined() {
            return Err(Status::Unavail);
        }
        Ok(Reply::Rank {
            rank: match self {
                ServeEngine::Forest(f) => f.rank(key),
                ServeEngine::Adaptive(a) => a.snapshot().rank(key),
                ServeEngine::Tiered(t) => t.rank(key),
            },
        })
    }

    /// The `rank`-th smallest stored key (1-based). `Unavail` while
    /// any shard is quarantined.
    pub fn select(&self, rank: u64) -> EngineResult {
        if self.any_quarantined() {
            return Err(Status::Unavail);
        }
        let found = match self {
            ServeEngine::Forest(f) => f.select(rank),
            ServeEngine::Adaptive(a) => a.snapshot().select(rank),
            ServeEngine::Tiered(t) => t.select(rank),
        };
        Ok(Reply::KeyOpt {
            found: found.is_some(),
            key: found.unwrap_or(0),
        })
    }

    /// Ascending keys in `[lo, hi]`, at most `limit`; sets `truncated`
    /// when the scan stopped at the limit with keys remaining.
    /// `Unavail` while any shard is quarantined (the scan would cross
    /// it).
    pub fn range(&self, lo: u64, hi: u64, limit: u32) -> EngineResult {
        if self.any_quarantined() {
            return Err(Status::Unavail);
        }
        let cap = (limit as usize).min(MAX_RANGE_KEYS);
        Ok(match self {
            ServeEngine::Forest(f) => capped_keys(f.range(lo..=hi), cap),
            ServeEngine::Adaptive(a) => capped_keys(a.snapshot().range(lo..=hi), cap),
            ServeEngine::Tiered(t) => capped_keys(t.snapshot().range(lo..=hi), cap),
        })
    }

    /// The sorted-batch protocol op: ascending probes answered like
    /// per-probe `get`s. Tiered hits coming from the buffer tiers
    /// report [`BUFFER_SHARD`]. This is the server's batch path run on
    /// the calling thread: `ServeEngine::plan_batch`, every part's
    /// `BatchPlan::descend`, then `BatchPlan::assemble`. A server
    /// runs the same three steps with each part descended by the worker
    /// that owns its shard.
    pub fn sorted_batch(&self, keys: &[u64]) -> EngineResult {
        let plan = self.plan_batch(keys.to_vec())?;
        let found: Vec<_> = (0..plan.parts()).map(|part| plan.descend(part)).collect();
        Ok(plan.assemble(&found))
    }

    /// Plans a sorted batch: pins one read view for the whole batch and
    /// cuts the probes at that view's shard fences
    /// ([`Forest::shard_cuts`]). The view is the forest (`Arc`) on the
    /// forest and adaptive engines, whose sampler is fed every probe
    /// here, and a [`TieredSnapshot`] on the tiered engine, so every
    /// part reads the same base and the same buffers even if a flush,
    /// compaction or `REOPT` swap lands while the parts are out.
    ///
    /// `Err(Status::BadRequest)` on a descending probe pair;
    /// `Err(Status::Unavail)` if any probe routes to a quarantined shard
    /// (the batch reply has no per-hit status, so probes clear of it
    /// only serve in a batch that avoids it).
    pub(crate) fn plan_batch(&self, keys: Vec<u64>) -> Result<BatchPlan, Status> {
        let view = match self {
            ServeEngine::Forest(f) => BatchView::Forest(Arc::clone(f)),
            ServeEngine::Adaptive(a) => {
                let f = a.snapshot();
                for &k in &keys {
                    a.sampler().observe(&f, k);
                }
                BatchView::Forest(f)
            }
            ServeEngine::Tiered(t) => BatchView::Tiered(t.snapshot()),
        };
        let parts = match view.base() {
            Some(base) => {
                let parts = base.shard_cuts(&keys).map_err(|_| Status::BadRequest)?;
                if parts.iter().any(|&(shard, _)| base.is_quarantined(shard)) {
                    return Err(Status::Unavail);
                }
                parts
            }
            // No base yet (an empty tiered store): every probe is
            // decided by the buffers.
            None if keys.is_sorted() => Vec::new(),
            None => return Err(Status::BadRequest),
        };
        Ok(BatchPlan { keys, view, parts })
    }

    /// Insert (`remove == false`) or remove one key. `Unsupported` on
    /// an immutable forest; `applied` reports whether the store
    /// changed.
    pub fn write(&self, key: u64, remove: bool) -> EngineResult {
        match self {
            ServeEngine::Forest(_) | ServeEngine::Adaptive(_) => Err(Status::Unsupported),
            ServeEngine::Tiered(t) => {
                let applied = if remove { t.remove(key) } else { t.insert(key) };
                if let Some(err) = t.take_compaction_error() {
                    eprintln!("[serve] background compaction failed: {err}");
                    return Err(Status::Internal);
                }
                Ok(Reply::Applied { applied })
            }
        }
    }

    /// Flushes the tiered memtable to durable shards; `applied` is
    /// whether anything was buffered. `Unsupported` on a forest.
    pub fn flush(&self) -> EngineResult {
        match self {
            ServeEngine::Forest(_) | ServeEngine::Adaptive(_) => Err(Status::Unsupported),
            ServeEngine::Tiered(t) => match t.flush() {
                Ok(applied) => Ok(Reply::Applied { applied }),
                Err(err) => {
                    eprintln!("[serve] flush failed: {err}");
                    Err(Status::Internal)
                }
            },
        }
    }

    /// Runs one adaptive re-optimization pass
    /// ([`AdaptiveEngine::reoptimize`]) on the calling thread.
    /// `Unsupported` on the non-adaptive engines.
    pub fn reopt(&self) -> EngineResult {
        match self {
            ServeEngine::Adaptive(a) => match a.reoptimize() {
                Ok(out) => Ok(Reply::Reopt {
                    scanned: out.scanned,
                    swapped: out.swapped,
                }),
                Err(err) => {
                    eprintln!("[serve] reopt pass failed: {err}");
                    Err(Status::Internal)
                }
            },
            ServeEngine::Forest(_) | ServeEngine::Tiered(_) => Err(Status::Unsupported),
        }
    }

    /// `(sampled_reads, reopt_scans, reopt_swaps)` for the stats
    /// snapshot; zeros on non-adaptive engines.
    #[must_use]
    pub fn adaptive_counters(&self) -> (u64, u64, u64) {
        match self {
            ServeEngine::Adaptive(a) => a.counters(),
            ServeEngine::Forest(_) | ServeEngine::Tiered(_) => (0, 0, 0),
        }
    }

    /// One paced scrub step — re-reads up to `budget` shard files
    /// (0 = all) through the engine's storage seam, quarantining any
    /// shard whose checksums no longer verify. The server's background
    /// scrubber calls this on its pace budget.
    pub fn scrub_step(&self, budget: usize) -> ScrubReport {
        match self {
            ServeEngine::Forest(f) => f.scrub_step(&RealIo, budget),
            ServeEngine::Adaptive(a) => a.snapshot().scrub_step(&RealIo, budget),
            ServeEngine::Tiered(t) => t.scrub_step(budget),
        }
    }

    /// `(scrub_passes, quarantined_shards, heals)` for the stats
    /// snapshot. The quarantined count is a live gauge; the other two
    /// are lifetime counters (on the adaptive engine they track the
    /// current forest snapshot, which hot-swaps reset).
    #[must_use]
    pub fn health_counters(&self) -> (u64, u64, u64) {
        match self {
            ServeEngine::Forest(f) => (f.scrub_passes(), f.quarantined_count() as u64, 0),
            ServeEngine::Adaptive(a) => {
                let f = a.snapshot();
                (f.scrub_passes(), f.quarantined_count() as u64, 0)
            }
            ServeEngine::Tiered(t) => (t.scrub_passes(), t.quarantined_shards() as u64, t.heals()),
        }
    }
}

/// A forest point lookup — `route` plus the shard's fast-plane
/// `search`, one descent — as the protocol's `Hit` reply.
fn forest_get(f: &Forest<u64>, key: u64) -> Reply {
    hit_reply(
        f.route(key)
            .and_then(|(shard, tree)| Some((shard as u32, tree.search(key)?))),
    )
}

/// The `Keys` reply of a range scan: its first `cap` keys, with
/// `truncated` set when the scan had more.
fn capped_keys(scan: impl Iterator<Item = u64>, cap: usize) -> Reply {
    let mut keys = Vec::with_capacity(cap.min(256));
    let mut truncated = false;
    for k in scan {
        if keys.len() == cap {
            truncated = true;
            break;
        }
        keys.push(k);
    }
    Reply::Keys { truncated, keys }
}

/// The interleaved-kernel batch path shared by the forest engines.
fn forest_get_batch(f: &Forest<u64>, keys: &[u64], width: usize, out: &mut Vec<EngineResult>) {
    let mut hits = Vec::new();
    f.search_batch_interleaved(keys, width, &mut hits);
    out.extend(hits.into_iter().map(|h| {
        Ok(hit_reply(
            h.map(|(shard, position)| (shard as u32, position)),
        ))
    }));
}

/// The read view a [`BatchPlan`] pins: every part of one batch descends
/// this view and no other.
enum BatchView {
    /// The forest and adaptive engines' forest.
    Forest(Arc<Forest<u64>>),
    /// The tiered engine's base and buffers at one instant.
    Tiered(TieredSnapshot<u64>),
}

impl BatchView {
    /// The shards the parts descend (`None`: a tiered store with no
    /// base yet).
    fn base(&self) -> Option<&Forest<u64>> {
        match self {
            BatchView::Forest(f) => Some(f),
            BatchView::Tiered(snap) => snap.base(),
        }
    }
}

/// A validated sorted batch over one pinned read view, cut into one
/// part per shard run (`ServeEngine::plan_batch`). Each part is
/// descended on its own (`BatchPlan::descend`, by whichever thread
/// holds the plan) and the answers are put together once
/// (`BatchPlan::assemble`).
pub(crate) struct BatchPlan {
    keys: Vec<u64>,
    view: BatchView,
    /// `(dense shard, probe index range)` per shard run, ascending.
    parts: Vec<(usize, Range<usize>)>,
}

impl BatchPlan {
    /// Number of parts (shard runs).
    pub(crate) fn parts(&self) -> usize {
        self.parts.len()
    }

    /// The dense shard part `part` descends, for worker ownership.
    pub(crate) fn shard(&self, part: usize) -> usize {
        self.parts[part].0
    }

    /// Part descent: the shard's shared-prefix sorted walk over the
    /// part's probes; the in-shard layout position of each hit, `None`
    /// for a miss.
    pub(crate) fn descend(&self, part: usize) -> Vec<Option<u64>> {
        let (shard, range) = &self.parts[part];
        let tree = self
            .view
            .base()
            .and_then(|base| base.shard(*shard))
            .expect("a part's shard is in the view it was cut from");
        let mut found = Vec::with_capacity(range.len());
        tree.search_sorted_batch(&self.keys[range.clone()], &mut found)
            .expect("runs of an ascending batch are ascending");
        found
    }

    /// The assembler: the batch reply from every part's
    /// `BatchPlan::descend` answer, `found[part]`. On a tiered view
    /// the buffers' verdict comes first, as in
    /// [`TieredSnapshot::search_sorted_batch`]: a buffered insert is a
    /// [`BUFFER_SHARD`] hit and a buffered tombstone a miss, whatever
    /// the base says.
    pub(crate) fn assemble(&self, found: &[Vec<Option<u64>>]) -> Reply {
        let mut hits = vec![None; self.keys.len()];
        for ((shard, range), found) in self.parts.iter().zip(found) {
            for (hit, position) in hits[range.clone()].iter_mut().zip(found) {
                *hit = position.map(|p| (*shard as u32, p));
            }
        }
        if let BatchView::Tiered(snap) = &self.view {
            if snap.buffered() > 0 {
                for (hit, &key) in hits.iter_mut().zip(&self.keys) {
                    if let Some(live) = snap.buffer_lookup(key) {
                        *hit = live.then(|| tier_coords(TierPlace::Buffer));
                    }
                }
            }
        }
        Reply::Batch {
            hits: hits.into_iter().map(batch_hit).collect(),
        }
    }
}

/// The wire coordinates `(shard, position)` of a tiered hit: buffer
/// hits report [`BUFFER_SHARD`] and position 0.
fn tier_coords(place: TierPlace) -> (u32, u64) {
    match place {
        TierPlace::Shard { shard, position } => (shard as u32, position),
        TierPlace::Buffer => (BUFFER_SHARD, 0),
    }
}

/// A point answer as the protocol's `Hit` reply: the `(shard,
/// position)` of a hit, zeroed coordinates for a miss.
fn hit_reply(hit: Option<(u32, u64)>) -> Reply {
    let (shard, position) = hit.unwrap_or((0, 0));
    Reply::Hit {
        found: hit.is_some(),
        shard,
        position,
    }
}

/// [`hit_reply`] as a sorted-batch entry.
fn batch_hit(hit: Option<(u32, u64)>) -> BatchHit {
    let (shard, position) = hit.unwrap_or((0, 0));
    BatchHit {
        found: hit.is_some(),
        shard,
        position,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobtree_core::NamedLayout;
    use cobtree_search::Storage;

    fn forest_engine(n: u64) -> ServeEngine {
        let forest = Forest::builder()
            .layout(NamedLayout::MinWep)
            .storage(Storage::Implicit)
            .shards(3)
            .keys((1..=n).map(|k| k * 2))
            .build()
            .expect("forest");
        ServeEngine::Forest(Arc::new(forest))
    }

    #[test]
    fn forest_engine_answers_match_direct_calls() {
        let engine = forest_engine(500);
        let ServeEngine::Forest(f) = engine.clone() else {
            unreachable!()
        };
        for k in [0u64, 1, 2, 499, 500, 1000, 1001, 5000] {
            let expect = hit_reply(f.locate(k).map(|h| (h.shard as u32, h.position)));
            assert_eq!(engine.get(k), Ok(expect), "get({k})");
        }
        assert_eq!(engine.rank(11), Ok(Reply::Rank { rank: f.rank(11) }));
        assert_eq!(
            engine.bound(11, false),
            Ok(Reply::KeyOpt {
                found: true,
                key: 12
            })
        );
        assert_eq!(
            engine.select(0),
            Ok(Reply::KeyOpt {
                found: false,
                key: 0
            })
        );
        // Writes are refused, not mis-applied.
        assert_eq!(engine.write(7, false), Err(Status::Unsupported));
        assert_eq!(engine.flush(), Err(Status::Unsupported));
    }

    #[test]
    fn range_truncation_flags() {
        let engine = forest_engine(100);
        let Ok(Reply::Keys { truncated, keys }) = engine.range(2, 60, 10) else {
            panic!("range reply shape")
        };
        assert!(truncated);
        assert_eq!(keys, (1..=10).map(|k| k * 2).collect::<Vec<_>>());
        let Ok(Reply::Keys { truncated, keys }) = engine.range(2, 20, 100) else {
            panic!("range reply shape")
        };
        assert!(!truncated);
        assert_eq!(keys.len(), 10);
    }

    #[test]
    fn batch_paths_agree_with_point_gets() {
        let engine = forest_engine(300);
        let keys: Vec<u64> = (0..200).map(|i| (i * 37) % 700).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let mut out = Vec::new();
        engine.get_batch(&sorted, 8, &mut out);
        let direct: Vec<EngineResult> = sorted.iter().map(|&k| engine.get(k)).collect();
        assert_eq!(out, direct);
        let Ok(Reply::Batch { hits }) = engine.sorted_batch(&sorted) else {
            panic!("batch reply shape")
        };
        for (hit, d) in hits.iter().zip(&direct) {
            let Ok(Reply::Hit {
                found,
                shard,
                position,
            }) = *d
            else {
                panic!()
            };
            assert_eq!(
                (hit.found, hit.shard, hit.position),
                (found, shard, position)
            );
        }
    }

    #[test]
    fn adaptive_engine_matches_forest_engine_and_serves_reopt() {
        let build = || {
            Forest::builder()
                .layout(NamedLayout::MinWep)
                .storage(Storage::Implicit)
                .shards(3)
                .keys((1..=500u64).map(|k| k * 2))
                .build()
                .expect("forest")
        };
        let plain = ServeEngine::Forest(Arc::new(build()));
        let adaptive = ServeEngine::Adaptive(Arc::new(AdaptiveEngine::with_config(
            build(),
            1,
            crate::planner::DEFAULT_REOPT_THRESHOLD,
        )));
        assert_eq!(adaptive.kind(), "adaptive");
        assert_eq!(adaptive.len(), plain.len());

        // Drive enough skewed traffic through the sampled gets that a
        // reopt pass swaps at least one shard, then re-check parity.
        // A swap may relocate keys within their shard's layout array,
        // so `position` is compared only before the swap; the ordered
        // surface (found/shard/key/rank) must never change.
        let strip = |r: &EngineResult| match *r {
            Ok(Reply::Hit { found, shard, .. }) => (found, shard),
            _ => panic!("hit shape"),
        };
        for round in 0..2 {
            for k in 0u64..100 {
                if round == 0 {
                    assert_eq!(adaptive.get(k), plain.get(k), "get({k})");
                } else {
                    assert_eq!(strip(&adaptive.get(k)), strip(&plain.get(k)), "get({k})");
                }
                assert_eq!(adaptive.rank(k), plain.rank(k), "rank({k})");
                assert_eq!(adaptive.bound(k, false), plain.bound(k, false));
                assert_eq!(adaptive.bound(k, true), plain.bound(k, true));
            }
            for _ in 0..200 {
                // Hammer one hot key to skew the sampled profile.
                let _ = adaptive.get(2);
            }
            assert_eq!(adaptive.range(2, 60, 10), plain.range(2, 60, 10));
            assert_eq!(adaptive.select(17), plain.select(17));
            let sorted: Vec<u64> = (0..300).map(|i| i * 3).collect();
            let Ok(Reply::Batch { hits: a_hits }) = adaptive.sorted_batch(&sorted) else {
                panic!("batch reply shape")
            };
            let Ok(Reply::Batch { hits: p_hits }) = plain.sorted_batch(&sorted) else {
                panic!("batch reply shape")
            };
            let mut a_out = Vec::new();
            let mut p_out = Vec::new();
            adaptive.get_batch(&sorted, 8, &mut a_out);
            plain.get_batch(&sorted, 8, &mut p_out);
            if round == 0 {
                assert_eq!(a_hits, p_hits);
                assert_eq!(a_out, p_out);
                let Ok(Reply::Reopt { scanned, swapped }) = adaptive.reopt() else {
                    panic!("reopt reply shape")
                };
                assert_eq!(scanned, 3);
                assert!(swapped >= 1, "hot-key traffic must trigger a swap");
            } else {
                for (a, p) in a_hits.iter().zip(&p_hits) {
                    assert_eq!((a.found, a.shard), (p.found, p.shard));
                }
                for (a, p) in a_out.iter().zip(&p_out) {
                    assert_eq!(strip(a), strip(p));
                }
            }
        }
        let (sampled, scans, swaps) = adaptive.adaptive_counters();
        assert!(sampled > 0);
        assert_eq!(scans, 3);
        assert!(swaps >= 1);

        // The non-adaptive engines refuse the op.
        assert_eq!(plain.reopt(), Err(Status::Unsupported));
        assert_eq!(plain.adaptive_counters(), (0, 0, 0));
        assert_eq!(adaptive.write(7, false), Err(Status::Unsupported));
        assert_eq!(adaptive.flush(), Err(Status::Unsupported));
    }

    /// One read view per batch: writes and a flush that publishes a new
    /// base between planning a batch and descending its parts leave the
    /// batch's answer at the planned instant, buffers included; a batch
    /// planned afterwards sees the writes.
    #[test]
    fn batch_plan_pins_one_read_view() {
        let t: TieredForest<u64> = TieredForest::builder()
            .layout(NamedLayout::MinWep)
            .shards(3)
            .memtable_entries(1 << 20)
            .background(false)
            .keys((1..=300u64).map(|k| k * 2))
            .build()
            .expect("tiered");
        let t = Arc::new(t);
        let engine = ServeEngine::Tiered(Arc::clone(&t));
        // Buffered inserts (odd keys) and tombstones over base keys.
        for k in (1..60u64).step_by(2) {
            assert!(t.insert(k));
        }
        for k in (100..=200u64).step_by(10) {
            assert!(t.remove(k));
        }
        // Probe `i` is key `i`, so the hits index by key.
        let keys: Vec<u64> = (0..=610).collect();
        let plan = engine.plan_batch(keys.clone()).expect("plan");
        assert!(plan.parts() > 1);
        let before = t.snapshot();
        let mut places = Vec::new();
        before
            .search_sorted_batch(&keys, &mut places)
            .expect("sorted");
        let then: Vec<BatchHit> = places
            .into_iter()
            .map(|p| batch_hit(p.map(tier_coords)))
            .collect();

        let (born, dead) = (301u64, 400u64);
        assert!(t.insert(born));
        assert!(t.remove(dead));
        assert_eq!(t.flush(), Ok(true));
        assert!(t.epoch() > before.epoch(), "the flush published a base");

        let found: Vec<_> = (0..plan.parts()).map(|part| plan.descend(part)).collect();
        assert_eq!(plan.assemble(&found), Reply::Batch { hits: then.clone() });

        let Ok(Reply::Batch { hits: now }) = engine.sorted_batch(&keys) else {
            panic!("batch reply shape")
        };
        for key in [born, dead] {
            assert_ne!(now[key as usize], then[key as usize], "written key {key}");
        }
    }

    #[test]
    fn tiered_engine_serves_buffer_hits_and_writes() {
        let t: TieredForest<u64> = TieredForest::builder()
            .layout(NamedLayout::MinWep)
            .shards(2)
            .memtable_entries(1 << 20)
            .keys((1..=200u64).map(|k| k * 2))
            .build()
            .expect("tiered");
        let t = Arc::new(t);
        let engine = ServeEngine::Tiered(Arc::clone(&t));
        assert_eq!(engine.kind(), "tiered");
        // A fresh odd key lands in the memtable: buffer-tier hit.
        assert_eq!(engine.write(7, false), Ok(Reply::Applied { applied: true }));
        // Routing reads the base router in place, with the memtable
        // non-empty, and agrees with a snapshot's router.
        let snap = t.snapshot();
        let base = snap.base().expect("built with keys");
        assert_eq!(engine.shard_count(), base.shard_count());
        for key in [0, 7, 100, 399, 400, 401, u64::MAX] {
            assert_eq!(
                engine.route_shard(key),
                base.router().route(key),
                "route {key}"
            );
        }
        assert_eq!(
            engine.write(7, false),
            Ok(Reply::Applied { applied: false })
        );
        let Ok(Reply::Hit { found, shard, .. }) = engine.get(7) else {
            panic!("hit shape")
        };
        assert!(found);
        assert_eq!(shard, BUFFER_SHARD);
        // Base hits still carry real shard coordinates.
        let Ok(Reply::Hit { found, shard, .. }) = engine.get(100) else {
            panic!("hit shape")
        };
        assert!(found);
        assert_ne!(shard, BUFFER_SHARD);
        assert_eq!(engine.write(7, true), Ok(Reply::Applied { applied: true }));
        let Ok(Reply::Hit { found, .. }) = engine.get(7) else {
            panic!("hit shape")
        };
        assert!(!found);
    }
}
