//! The tiered write path: an LSM-style mutable engine over immutable
//! `.cobt` shards — [`TieredForest`].
//!
//! Lindstrom & Rajan's layouts are inherently *static*: the position of
//! every node is a pure function of the tree height, which is exactly
//! what makes descents pointer-free and cache-optimal — and exactly
//! what makes in-place mutation impossible. The standard systems answer
//! (the one mutable B-tree comparisons implicitly assume) is to keep
//! the cache-optimal artifacts immutable and absorb writes in a small
//! mutable tier that is periodically compacted into fresh immutable
//! files. This module is that answer for the forest:
//!
//! * a **memtable** — two sorted vectors, pending *inserts* and
//!   pending *tombstones* (removals of keys that live in the tiers
//!   below) — absorbs every [`TieredForest::insert`] /
//!   [`TieredForest::remove`] in `O(log m + m)` time, bounded by a
//!   configurable entry/byte budget;
//! * the **base** is an ordinary immutable [`Forest`] (any layout,
//!   mapped storage when the engine is backed by a directory), serving
//!   point probes through the same compiled descent kernels as the
//!   read-only engine;
//! * **compaction** drains the memtable into a *frozen* buffer and
//!   merges it with the affected shards (untouched shards are carried
//!   forward by file generation, not rewritten). The file image of each
//!   rebuilt shard is written straight from its sorted keys, each key at
//!   its layout position, with no tree built; the images are built on
//!   every core, one per thread at a time, in buffers reused across the
//!   publish. The flushing thread writes each as a fresh `.cobt` file
//!   once it and every lower generation are built, and publishes the
//!   result atomically by writing a new versioned `.cobf`
//!   manifest (`forest-e{epoch:08}.cobf`) and swapping the in-memory
//!   tiers under a brief write lock. Readers never block on compaction
//!   and never observe a torn state: every query runs against one
//!   consistent `(base, frozen, mem)` triple.
//!
//! # Rank arithmetic across tiers
//!
//! The merged read path exposes the *full* ordered-map API — point and
//! locate, lower/upper bounds, rank/select, cursors and ranges, sorted
//! batch search — with global ranks that are correct in the presence of
//! pending tombstones. The invariant that makes this cheap: the
//! memtable's inserts are disjoint from the live set below it, and its
//! tombstones are a subset of that live set. Then for any key `x`
//!
//! ```text
//! count_le(x) = base≤(x) + frozen.ins≤(x) + mem.ins≤(x)
//!             − frozen.tomb≤(x) − mem.tomb≤(x)
//! ```
//!
//! — five binary searches — and every bound/rank/select/cursor/range
//! operation is derived from that one formula, so a `TieredForest`
//! answers exactly what one `BTreeSet` holding the live keys would.
//!
//! Point lookups ([`TieredForest::find`], [`TieredForest::find_batch`])
//! and sorted batches compute no rank: the youngest tier that mentions
//! a key decides, and a base hit costs one descent of the routed
//! shard. Ranks are computed only where a caller asks for one
//! ([`TieredForest::locate`], rank/select, bounds, ranges, cursors).
//!
//! # Crash consistency
//!
//! Shard files are named by a store-wide **generation**
//! (`shard-g{generation:08}.cobt`), never reused; manifests are named
//! by **epoch** and written last. A crash mid-compaction leaves at
//! worst a partial shard file and/or a partial manifest for the new
//! epoch — both fail their checksums on open, and
//! [`TieredForest::open`] falls back to the newest *fully valid*
//! manifest, whose shard files are untouched by construction. Obsolete
//! files are deleted only after a successful publish.
//!
//! ```
//! use cobtree_search::TieredForest;
//!
//! let dir = std::env::temp_dir().join(format!("cobtree-tiered-mod-{}", std::process::id()));
//! let engine = TieredForest::<u64>::builder()
//!     .shards(2)
//!     .keys((1..=1_000u64).map(|k| k * 2))
//!     .path(&dir)
//!     .build()?;
//! engine.insert(7);
//! engine.remove(4);
//! assert_eq!(engine.len(), 1_000); // +1 insert, −1 tombstone
//! assert_eq!(engine.select(4), Some(8)); // rank sees both tiers: 2, 6, 7, 8
//! engine.flush()?; // drain the memtable into fresh shard files
//! assert_eq!(engine.len(), 1_000);
//! assert!(engine.contains(7) && !engine.contains(4));
//! drop(engine);
//! std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), cobtree_core::Error>(())
//! ```

use crate::facade::{SaveOptions, SearchTree, Storage};
use crate::forest::{Forest, ForestRange, ScrubReport};
use cobtree_core::error::{check_sorted_keys, Error, Result};
use cobtree_core::format::{self, FixedKey, ManifestV2, ShardRecord};
use cobtree_core::io::{FaultIo, FaultKind, FaultRule, IoOp, RealIo, StorageIo};
use cobtree_core::NamedLayout;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;

/// File name of the manifest published at `epoch` inside a tiered
/// store directory.
#[must_use]
pub fn tiered_manifest_name(epoch: u64) -> String {
    format!("forest-e{epoch:08}.cobf")
}

/// File name of the shard tree with store-wide file id `generation`
/// inside a tiered store directory. Generations are never reused, so a
/// carried-forward shard keeps its file across epochs and a crashed
/// compaction can never clobber a live shard.
#[must_use]
pub fn tiered_shard_name(generation: u64) -> String {
    format!("shard-g{generation:08}.cobt")
}

/// Parses `"{prefix}{digits}{suffix}"` file names back to their number.
fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

// ---------------------------------------------------------------------------
// Configuration and builder
// ---------------------------------------------------------------------------

/// Tuning knobs of a [`TieredForest`].
#[derive(Debug, Clone)]
pub struct TieredConfig {
    /// Layout every compacted shard tree is built with.
    pub layout: NamedLayout,
    /// Partition slot count used by full compactions ([`TieredForest::compact`]).
    pub shards: usize,
    /// Memtable entry budget; one more write triggers a flush. `0`
    /// flushes after every write.
    pub memtable_entries: usize,
    /// Memtable byte budget (entries × key width); crossing it triggers
    /// a flush even below the entry budget.
    pub memtable_bytes: usize,
    /// The storage seam every durable write, recovery read and scrub
    /// read goes through. [`RealIo`] in production; a
    /// [`FaultIo`] schedule turns the same engine into a deterministic
    /// chaos rig.
    pub io: Arc<dyn StorageIo>,
}

impl Default for TieredConfig {
    fn default() -> Self {
        Self {
            layout: NamedLayout::MinWep,
            shards: 4,
            memtable_entries: 4096,
            memtable_bytes: 1 << 20,
            io: Arc::new(RealIo),
        }
    }
}

impl TieredConfig {
    /// Whether a memtable holding `entries` keys of `width` bytes has
    /// outgrown its budgets.
    fn over_budget(&self, entries: usize, width: usize) -> bool {
        entries > self.memtable_entries || entries.saturating_mul(width) > self.memtable_bytes
    }
}

/// Builder for [`TieredForest`] — layout/shard/budget knobs, an
/// optional backing directory, optional seed keys, and the choice of
/// inline vs background compaction.
pub struct TieredBuilder<K> {
    cfg: TieredConfig,
    dir: Option<PathBuf>,
    keys: Vec<K>,
    background: bool,
}

impl<K> Default for TieredBuilder<K> {
    fn default() -> Self {
        Self {
            cfg: TieredConfig::default(),
            dir: None,
            keys: Vec::new(),
            background: false,
        }
    }
}

impl<K: FixedKey> TieredBuilder<K> {
    /// Sets the layout compacted shards are built with.
    #[must_use]
    pub fn layout(mut self, layout: NamedLayout) -> Self {
        self.cfg.layout = layout;
        self
    }

    /// Sets the partition slot count for full compactions (min 1).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards.max(1);
        self
    }

    /// Sets the memtable entry budget (a write pushing the memtable
    /// past it triggers a flush; `0` = flush after every write).
    #[must_use]
    pub fn memtable_entries(mut self, entries: usize) -> Self {
        self.cfg.memtable_entries = entries;
        self
    }

    /// Sets the memtable byte budget.
    #[must_use]
    pub fn memtable_bytes(mut self, bytes: usize) -> Self {
        self.cfg.memtable_bytes = bytes;
        self
    }

    /// Backs the engine by `dir`: compactions publish mapped `.cobt`
    /// shard files plus an epoch-versioned manifest there, and
    /// `build()` re-opens whatever the newest valid manifest describes.
    /// Without a path the engine is purely in-memory.
    #[must_use]
    pub fn path(mut self, dir: impl AsRef<Path>) -> Self {
        self.dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Seeds the engine with a strictly ascending key set, compacted
    /// into the base tier before `build()` returns.
    #[must_use]
    pub fn keys(mut self, keys: impl IntoIterator<Item = K>) -> Self {
        self.keys = keys.into_iter().collect();
        self
    }

    /// Runs compaction on a background thread woken by budget-crossing
    /// writes, instead of inline on the writing thread.
    #[must_use]
    pub fn background(mut self, background: bool) -> Self {
        self.background = background;
        self
    }

    /// Installs the storage seam (default [`RealIo`]); pass a
    /// [`FaultIo`] schedule to drive the whole engine — publishes,
    /// recovery, scrubbing — through scripted failures.
    #[must_use]
    pub fn io(mut self, io: Arc<dyn StorageIo>) -> Self {
        self.cfg.io = io;
        self
    }

    /// Builds the engine: opens (or initializes) the backing store,
    /// seeds and compacts the optional key set, and starts the
    /// background worker when requested.
    ///
    /// # Errors
    /// I/O and format errors from opening an existing store;
    /// [`Error::UnsortedKeys`] on an unsorted seed set.
    pub fn build(self) -> Result<TieredForest<K>> {
        let shared = Arc::new(match &self.dir {
            Some(dir) => Shared::open_dir(dir, self.cfg)?,
            None => Shared::fresh(self.cfg, None),
        });
        if !self.keys.is_empty() {
            check_sorted_keys(&self.keys)?;
            {
                let mut tiers = shared.write_tiers();
                if tiers.is_blank() {
                    tiers.mem.inserts = self.keys;
                } else {
                    for key in self.keys {
                        tiers.insert(key);
                    }
                }
            }
            shared.flush(FlushMode::Full, None)?;
        }
        let worker = if self.background {
            let arc = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("cobtree-tiered-compaction".into())
                    .spawn(move || worker_loop(&arc))
                    .map_err(|e| Error::io(&e))?,
            )
        } else {
            None
        };
        Ok(TieredForest { shared, worker })
    }
}

// ---------------------------------------------------------------------------
// Memtable
// ---------------------------------------------------------------------------

/// The mutable tier: pending inserts and pending tombstones, each a
/// strictly ascending vector. Invariants relative to the tier below
/// (`E` = its live key set): `inserts ∩ E = ∅`, `tombstones ⊆ E`,
/// `inserts ∩ tombstones = ∅`.
#[derive(Debug, Clone)]
struct Memtable<K> {
    inserts: Vec<K>,
    tombstones: Vec<K>,
}

impl<K> Default for Memtable<K> {
    fn default() -> Self {
        Self {
            inserts: Vec::new(),
            tombstones: Vec::new(),
        }
    }
}

/// Entries of `slice` at or below `x` (the slice is sorted ascending).
fn at_or_below<K: Ord>(slice: &[K], x: K) -> u64 {
    slice.partition_point(|k| *k <= x) as u64
}

/// Entries of `slice` strictly below `x`.
fn below<K: Ord>(slice: &[K], x: K) -> u64 {
    slice.partition_point(|k| *k < x) as u64
}

/// Sorted-slice membership test.
fn has<K: Ord>(slice: &[K], x: K) -> bool {
    slice.binary_search(&x).is_ok()
}

/// The sub-slice of sorted `slice` inside `bounds`.
fn window<'s, K: Ord + Copy>(slice: &'s [K], bounds: &(Bound<K>, Bound<K>)) -> &'s [K] {
    let lo = match bounds.0 {
        Bound::Unbounded => 0,
        Bound::Included(x) => slice.partition_point(|k| *k < x),
        Bound::Excluded(x) => slice.partition_point(|k| *k <= x),
    };
    let hi = match bounds.1 {
        Bound::Unbounded => slice.len(),
        Bound::Included(x) => slice.partition_point(|k| *k <= x),
        Bound::Excluded(x) => slice.partition_point(|k| *k < x),
    };
    &slice[lo..hi.max(lo)]
}

impl<K: Ord + Copy> Memtable<K> {
    fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.tombstones.is_empty()
    }

    fn entries(&self) -> usize {
        self.inserts.len() + self.tombstones.len()
    }

    /// Folds a *younger* memtable into `self` (the frozen tier): the
    /// result expresses both deltas relative to the tier below `self`.
    /// A younger tombstone cancels an older insert of the same key; a
    /// younger insert cancels an older tombstone. An empty `self` (every
    /// flush but a retry, the seeded boot included) takes `younger` whole.
    fn absorb(&mut self, younger: Memtable<K>) {
        if self.is_empty() {
            *self = younger;
            return;
        }
        for key in younger.tombstones {
            if let Ok(i) = self.inserts.binary_search(&key) {
                self.inserts.remove(i);
            } else {
                let at = self.tombstones.binary_search(&key).unwrap_err();
                self.tombstones.insert(at, key);
            }
        }
        for key in younger.inserts {
            if let Ok(i) = self.tombstones.binary_search(&key) {
                self.tombstones.remove(i);
            } else {
                let at = self.inserts.binary_search(&key).unwrap_err();
                self.inserts.insert(at, key);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Merged read view
// ---------------------------------------------------------------------------

/// Which tier served a [`TieredHit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierPlace {
    /// The immutable base forest: dense shard index plus the 0-based
    /// layout position inside that shard's tree.
    Shard {
        /// Dense shard index into the base [`Forest`].
        shard: usize,
        /// 0-based layout position inside the shard's tree.
        position: u64,
    },
    /// The mutable buffer tiers (active memtable or in-flight frozen
    /// buffer) — no layout position exists yet.
    Buffer,
}

/// Where a found key lives inside a [`TieredForest`]: its engine-wide
/// 1-based in-order rank (tombstone-adjusted) and the tier that holds
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TieredHit {
    /// 1-based in-order rank among the *live* keys of the engine.
    pub rank: u64,
    /// The tier serving the key.
    pub place: TierPlace,
}

/// A borrowed consistent view over the three tiers — every ordered-map
/// answer is computed here, shared by [`TieredForest`] (under its read
/// lock) and [`TieredSnapshot`] (over owned tiers).
#[derive(Clone, Copy)]
struct View<'a, K> {
    base: Option<&'a Forest<K>>,
    frozen: &'a Memtable<K>,
    mem: &'a Memtable<K>,
}

impl<'a, K: Ord + Copy> View<'a, K> {
    fn len(&self) -> u64 {
        let adds = self.base.map_or(0, Forest::len)
            + self.frozen.inserts.len() as u64
            + self.mem.inserts.len() as u64;
        adds - (self.frozen.tombstones.len() + self.mem.tombstones.len()) as u64
    }

    /// Live keys `<= x` — the one formula everything else derives from.
    /// Additions are summed before tombstones are subtracted: the
    /// invariants guarantee every tombstone `<= x` is matched by a
    /// counted addition, so the subtraction cannot underflow.
    fn count_le(&self, x: K) -> u64 {
        let adds = self.base.map_or(0, |f| f.upper_bound_rank(x) - 1)
            + at_or_below(&self.frozen.inserts, x)
            + at_or_below(&self.mem.inserts, x);
        adds - at_or_below(&self.frozen.tombstones, x) - at_or_below(&self.mem.tombstones, x)
    }

    /// Live keys `< x`.
    fn count_lt(&self, x: K) -> u64 {
        let adds = self.base.map_or(0, |f| f.rank(x))
            + below(&self.frozen.inserts, x)
            + below(&self.mem.inserts, x);
        adds - below(&self.frozen.tombstones, x) - below(&self.mem.tombstones, x)
    }

    fn contains(&self, x: K) -> bool {
        self.find(x).is_some()
    }

    /// Resolves a key against the buffer tiers alone: `Some(found)`
    /// when the memtable or frozen buffer decides, `None` when the
    /// probe must descend into the base forest.
    fn buffer_lookup(&self, x: K) -> Option<bool> {
        if has(&self.mem.inserts, x) || has(&self.frozen.inserts, x) {
            // An insert shadowed by a younger tombstone was cancelled
            // on entry, so any insert hit is live.
            return Some(!has(&self.mem.tombstones, x));
        }
        if has(&self.mem.tombstones, x) || has(&self.frozen.tombstones, x) {
            return Some(false);
        }
        None
    }

    /// The tier holding live key `x`, without computing its rank. The
    /// youngest tier that mentions `x` decides: the buffers first, then
    /// the routed base shard's fast-plane `search` — one descent.
    fn find(&self, x: K) -> Option<TierPlace> {
        if let Some(live) = self.buffer_lookup(x) {
            return live.then_some(TierPlace::Buffer);
        }
        let (shard, tree) = self.base?.route(x)?;
        let position = tree.search(x)?;
        Some(TierPlace::Shard { shard, position })
    }

    /// [`View::find`] behind the quarantine gate: a probe routed to a
    /// quarantined base shard answers [`Error::ShardUnavailable`], even
    /// when a buffer holds it.
    fn find_available(&self, x: K) -> Result<Option<TierPlace>> {
        if let Some(base) = self.base {
            base.check_available(x)?;
        }
        Ok(self.find(x))
    }

    fn locate(&self, x: K) -> Option<TieredHit> {
        let place = self.find(x)?;
        Some(TieredHit {
            rank: self.count_le(x),
            place,
        })
    }

    /// The base key that would hold engine rank `r`, if any: the first
    /// base key whose engine-wide `count_le` reaches `r` (monotone in
    /// the base rank, hence a binary search).
    fn base_candidate(&self, r: u64) -> Option<K> {
        let f = self.base?;
        let (mut lo, mut hi) = (1u64, f.len());
        if self.count_le(f.select(hi)?) < r {
            return None;
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let key = f.select(mid).expect("mid is a valid base rank");
            if self.count_le(key) >= r {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        f.select(lo)
    }

    /// The buffered insert that would hold engine rank `r`, if any.
    fn slice_candidate(&self, slice: &[K], r: u64) -> Option<K> {
        let i = slice.partition_point(|&k| self.count_le(k) < r);
        slice.get(i).copied()
    }

    /// Selects the live key of engine-wide rank `r`: each tier proposes
    /// its first key reaching `count_le == r`; the (unique) proposal
    /// that is live *and* lands exactly on `r` is the answer.
    fn select(&self, r: u64) -> Option<K> {
        if r == 0 || r > self.len() {
            return None;
        }
        let candidates = [
            self.base_candidate(r),
            self.slice_candidate(&self.frozen.inserts, r),
            self.slice_candidate(&self.mem.inserts, r),
        ];
        let mut best: Option<K> = None;
        for key in candidates.into_iter().flatten() {
            if self.count_le(key) == r && self.contains(key) {
                best = Some(best.map_or(key, |b: K| b.min(key)));
            }
        }
        best
    }

    fn lower_bound_rank(&self, x: K) -> u64 {
        self.count_lt(x) + 1
    }

    fn upper_bound_rank(&self, x: K) -> u64 {
        self.count_le(x) + 1
    }

    fn lower_bound(&self, x: K) -> Option<K> {
        self.select(self.count_lt(x) + 1)
    }

    fn upper_bound(&self, x: K) -> Option<K> {
        self.select(self.count_le(x) + 1)
    }

    fn predecessor(&self, x: K) -> Option<K> {
        self.select(self.count_lt(x))
    }

    fn successor(&self, x: K) -> Option<K> {
        self.upper_bound(x)
    }

    fn rank_checksum(&self, probes: &[K]) -> u64 {
        let mut acc = 0u64;
        for &p in probes {
            if self.contains(p) {
                acc = acc.wrapping_add(self.count_le(p));
            }
        }
        acc
    }

    fn search_sorted_batch(&self, keys: &[K], out: &mut Vec<Option<TierPlace>>) -> Result<()> {
        let mut base_hits = vec![None; keys.len()];
        match self.base {
            Some(f) => f.search_sorted_batch(keys, &mut base_hits)?,
            None => {
                if let Some(index) = keys.windows(2).position(|w| w[0] > w[1]) {
                    return Err(Error::UnsortedBatch { index });
                }
            }
        }
        let buffered = !(self.frozen.is_empty() && self.mem.is_empty());
        out.clear();
        out.extend(keys.iter().zip(base_hits).map(|(&key, hit)| {
            let decided = if buffered {
                self.buffer_lookup(key)
            } else {
                None
            };
            match decided {
                Some(live) => live.then_some(TierPlace::Buffer),
                None => hit.map(|(shard, position)| TierPlace::Shard { shard, position }),
            }
        }));
        Ok(())
    }

    fn range(&self, bounds: &(Bound<K>, Bound<K>)) -> TieredRange<'a, K> {
        let hi = match bounds.1 {
            Bound::Unbounded => self.len(),
            Bound::Included(x) => self.count_le(x),
            Bound::Excluded(x) => self.count_lt(x),
        };
        let lo = match bounds.0 {
            Bound::Unbounded => 0,
            Bound::Included(x) => self.count_lt(x),
            Bound::Excluded(x) => self.count_le(x),
        };
        let remaining = hi.saturating_sub(lo);
        let base = self.base.filter(|_| remaining > 0).map(|f| Filtered {
            inner: f.range((bounds.0, bounds.1)),
            dead_a: &self.frozen.tombstones[..],
            dead_b: &self.mem.tombstones[..],
        });
        let frozen = Filtered {
            inner: window(&self.frozen.inserts, bounds).iter().copied(),
            dead_a: &self.mem.tombstones[..],
            dead_b: &[][..],
        };
        let mem = Filtered {
            inner: window(&self.mem.inserts, bounds).iter().copied(),
            dead_a: &[][..],
            dead_b: &[][..],
        };
        TieredRange {
            base: DePeek::new(base),
            frozen: DePeek::new(Some(frozen)),
            mem: DePeek::new(Some(mem)),
            remaining,
        }
    }
}

// ---------------------------------------------------------------------------
// Ranges and cursors
// ---------------------------------------------------------------------------

/// A double-ended stream with tombstone filtering: yields `inner`'s
/// keys that appear in neither sorted dead-list.
struct Filtered<'a, K, I> {
    inner: I,
    dead_a: &'a [K],
    dead_b: &'a [K],
}

impl<K: Ord + Copy, I: Iterator<Item = K>> Iterator for Filtered<'_, K, I> {
    type Item = K;

    fn next(&mut self) -> Option<K> {
        loop {
            let key = self.inner.next()?;
            if !has(self.dead_a, key) && !has(self.dead_b, key) {
                return Some(key);
            }
        }
    }
}

impl<K: Ord + Copy, I: DoubleEndedIterator<Item = K>> DoubleEndedIterator for Filtered<'_, K, I> {
    fn next_back(&mut self) -> Option<K> {
        loop {
            let key = self.inner.next_back()?;
            if !has(self.dead_a, key) && !has(self.dead_b, key) {
                return Some(key);
            }
        }
    }
}

/// A double-ended peekable wrapper: buffers one key at each end so the
/// three-way merge can compare stream heads without consuming them.
/// When the underlying stream runs dry the opposite-end buffer is the
/// last remaining element and migrates to whichever end peeks first.
struct DePeek<I: Iterator> {
    inner: Option<I>,
    front: Option<I::Item>,
    back: Option<I::Item>,
}

impl<K: Copy, I: DoubleEndedIterator<Item = K>> DePeek<I> {
    fn new(inner: Option<I>) -> Self {
        Self {
            inner,
            front: None,
            back: None,
        }
    }

    fn peek_front(&mut self) -> Option<K> {
        if self.front.is_none() {
            self.front = self
                .inner
                .as_mut()
                .and_then(Iterator::next)
                .or_else(|| self.back.take());
        }
        self.front
    }

    fn pop_front(&mut self) -> Option<K> {
        let key = self.peek_front();
        self.front = None;
        key
    }

    fn peek_back(&mut self) -> Option<K> {
        if self.back.is_none() {
            self.back = self
                .inner
                .as_mut()
                .and_then(DoubleEndedIterator::next_back)
                .or_else(|| self.front.take());
        }
        self.back
    }

    fn pop_back(&mut self) -> Option<K> {
        let key = self.peek_back();
        self.back = None;
        key
    }
}

type SliceStream<'a, K> = Filtered<'a, K, std::iter::Copied<std::slice::Iter<'a, K>>>;
type BaseStream<'a, K> = Filtered<'a, K, ForestRange<'a, K>>;

/// A double-ended in-order iterator over the live keys of a bounds
/// window, merging the three tiers on the fly: the base stream skips
/// tombstoned keys, the frozen stream skips re-tombstoned inserts, and
/// the streams are pairwise disjoint after filtering — so the merge is
/// a plain three-way min/max selection. Exact-size: the remaining count
/// is known up front from the tier count arithmetic.
pub struct TieredRange<'a, K: Ord + Copy> {
    base: DePeek<BaseStream<'a, K>>,
    frozen: DePeek<SliceStream<'a, K>>,
    mem: DePeek<SliceStream<'a, K>>,
    remaining: u64,
}

impl<K: Ord + Copy> Iterator for TieredRange<'_, K> {
    type Item = K;

    fn next(&mut self) -> Option<K> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let heads = [
            self.base.peek_front(),
            self.frozen.peek_front(),
            self.mem.peek_front(),
        ];
        let best = heads.into_iter().flatten().min()?;
        if self.base.peek_front() == Some(best) {
            self.base.pop_front()
        } else if self.frozen.peek_front() == Some(best) {
            self.frozen.pop_front()
        } else {
            self.mem.pop_front()
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).expect("range fits usize");
        (n, Some(n))
    }
}

impl<K: Ord + Copy> DoubleEndedIterator for TieredRange<'_, K> {
    fn next_back(&mut self) -> Option<K> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let tails = [
            self.base.peek_back(),
            self.frozen.peek_back(),
            self.mem.peek_back(),
        ];
        let best = tails.into_iter().flatten().max()?;
        if self.base.peek_back() == Some(best) {
            self.base.pop_back()
        } else if self.frozen.peek_back() == Some(best) {
            self.frozen.pop_back()
        } else {
            self.mem.pop_back()
        }
    }
}

impl<K: Ord + Copy> ExactSizeIterator for TieredRange<'_, K> {}

impl<K: Ord + Copy> std::fmt::Debug for TieredRange<'_, K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredRange")
            .field("remaining", &self.remaining)
            .finish()
    }
}

/// A bidirectional cursor over a [`TieredSnapshot`], tracking the
/// engine-wide tombstone-adjusted rank; mirrors
/// [`ForestCursor`](crate::ForestCursor)'s seek/next/prev surface.
pub struct TieredCursor<'a, K> {
    view: View<'a, K>,
    /// Engine-wide rank; `0` = before-first, `len + 1` = after-last.
    rank: u64,
}

impl<K: Ord + Copy> TieredCursor<'_, K> {
    /// Moves to the first live key `>= key` (the lower bound) and
    /// returns it; lands after-last when every key is smaller.
    pub fn seek(&mut self, key: K) -> Option<K> {
        self.rank = self.view.lower_bound_rank(key).min(self.view.len() + 1);
        self.key()
    }

    /// Moves onto the first entry and returns its key.
    pub fn seek_first(&mut self) -> Option<K> {
        self.rank = 1;
        self.key()
    }

    /// Moves onto the last entry and returns its key.
    pub fn seek_last(&mut self) -> Option<K> {
        self.rank = self.view.len();
        self.key()
    }

    /// Key under the cursor, `None` on a sentinel.
    #[must_use]
    pub fn key(&self) -> Option<K> {
        self.view.select(self.rank)
    }

    /// Engine-wide 1-based rank of the current entry, `None` on a
    /// sentinel.
    #[must_use]
    pub fn rank(&self) -> Option<u64> {
        (self.rank >= 1 && self.rank <= self.view.len()).then_some(self.rank)
    }

    /// Steps back one entry and returns the new current key; `None`
    /// (and the before-first state) when already at the front.
    pub fn prev(&mut self) -> Option<K> {
        if self.rank == 0 {
            return None;
        }
        self.rank -= 1;
        self.key()
    }
}

impl<K: Ord + Copy> Iterator for TieredCursor<'_, K> {
    type Item = K;

    /// Steps forward one entry and returns the new current key; `None`
    /// (and the after-last state) once the keys are exhausted.
    fn next(&mut self) -> Option<K> {
        if self.rank > self.view.len() {
            return None;
        }
        self.rank += 1;
        self.key()
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// An owned, immutable point-in-time view of a [`TieredForest`]: the
/// base forest by `Arc`, the frozen buffer by `Arc`, the active
/// memtable by clone. Queries, ranges and cursors over a snapshot are
/// wait-free and unaffected by concurrent writes or compactions.
pub struct TieredSnapshot<K> {
    base: Option<Arc<Forest<K>>>,
    frozen: Arc<Memtable<K>>,
    mem: Memtable<K>,
    epoch: u64,
}

impl<K: Ord + Copy> TieredSnapshot<K> {
    fn view(&self) -> View<'_, K> {
        View {
            base: self.base.as_deref(),
            frozen: &self.frozen,
            mem: &self.mem,
        }
    }

    /// The compaction epoch this snapshot was taken at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The immutable base forest under the buffers, if one has been
    /// published — the tier cache replay descends into.
    #[must_use]
    pub fn base(&self) -> Option<&Forest<K>> {
        self.base.as_deref()
    }

    /// Resolves a probe against the buffer tiers alone: `Some(found)`
    /// when the memtable or frozen buffer decides the probe without
    /// touching the base, `None` when it must descend into a shard.
    #[must_use]
    pub fn buffer_lookup(&self, key: K) -> Option<bool> {
        self.view().buffer_lookup(key)
    }

    /// Entries buffered in the snapshot's mutable tiers (memtable plus
    /// frozen buffer); while it is 0 no probe needs a
    /// [`TieredSnapshot::buffer_lookup`].
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.frozen.entries() + self.mem.entries()
    }

    /// Live keys in the snapshot.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.view().len()
    }

    /// Whether the snapshot holds no live keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test across all three tiers.
    #[must_use]
    pub fn contains(&self, key: K) -> bool {
        self.view().contains(key)
    }

    /// Locates a live key: [`TieredForest::find`]'s place plus the
    /// engine-wide rank (a second descent of the base shard, and a
    /// search of every buffer).
    #[must_use]
    pub fn locate(&self, key: K) -> Option<TieredHit> {
        self.view().locate(key)
    }

    /// Live keys strictly below `key`.
    #[must_use]
    pub fn rank(&self, key: K) -> u64 {
        self.view().count_lt(key)
    }

    /// The live key of 1-based rank `rank`.
    #[must_use]
    pub fn select(&self, rank: u64) -> Option<K> {
        self.view().select(rank)
    }

    /// Rank of the first live key `>= key` (`len + 1` if none).
    #[must_use]
    pub fn lower_bound_rank(&self, key: K) -> u64 {
        self.view().lower_bound_rank(key)
    }

    /// Rank of the first live key `> key` (`len + 1` if none).
    #[must_use]
    pub fn upper_bound_rank(&self, key: K) -> u64 {
        self.view().upper_bound_rank(key)
    }

    /// Smallest live key `>= key`.
    #[must_use]
    pub fn lower_bound(&self, key: K) -> Option<K> {
        self.view().lower_bound(key)
    }

    /// Smallest live key `> key`.
    #[must_use]
    pub fn upper_bound(&self, key: K) -> Option<K> {
        self.view().upper_bound(key)
    }

    /// Largest live key `< key`.
    #[must_use]
    pub fn predecessor(&self, key: K) -> Option<K> {
        self.view().predecessor(key)
    }

    /// Smallest live key `> key`.
    #[must_use]
    pub fn successor(&self, key: K) -> Option<K> {
        self.view().successor(key)
    }

    /// Sums the engine-wide rank of every found probe (wrapping) — the
    /// partition-independent benchmark kernel; equals
    /// [`Forest::rank_checksum`] whenever the buffers are empty.
    #[must_use]
    pub fn rank_checksum(&self, probes: &[K]) -> u64 {
        self.view().rank_checksum(probes)
    }

    /// Searches an ascending probe batch across all tiers: `out` gets
    /// what [`TieredForest::find`] answers for each probe, in probe
    /// order. The base answers through [`Forest::search_sorted_batch`]
    /// (shared-prefix descents on each shard's fast plane); the buffers
    /// are probed only while they hold entries. No rank is computed.
    ///
    /// # Errors
    /// [`Error::UnsortedBatch`] on a descending adjacent probe pair.
    pub fn search_sorted_batch(&self, keys: &[K], out: &mut Vec<Option<TierPlace>>) -> Result<()> {
        self.view().search_sorted_batch(keys, out)
    }

    /// Double-ended in-order iterator over the live keys in `bounds`.
    pub fn range(&self, bounds: impl std::ops::RangeBounds<K>) -> TieredRange<'_, K> {
        let bounds = (bounds.start_bound().cloned(), bounds.end_bound().cloned());
        self.view().range(&bounds)
    }

    /// Full ascending scan of the live keys.
    pub fn iter(&self) -> TieredRange<'_, K> {
        self.range(..)
    }

    /// A cursor starting before-first.
    #[must_use]
    pub fn cursor(&self) -> TieredCursor<'_, K> {
        TieredCursor {
            view: self.view(),
            rank: 0,
        }
    }
}

impl<K: Ord + Copy> std::fmt::Debug for TieredSnapshot<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredSnapshot")
            .field("epoch", &self.epoch)
            .field("len", &self.len())
            .field("buffered", &self.buffered())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Tiers (the mutable state under the RwLock)
// ---------------------------------------------------------------------------

/// The tier triple plus publication bookkeeping, guarded by the
/// engine's `RwLock`. `mem` is relative to the live set of
/// `(frozen, base)`; `frozen` is relative to `base`.
struct Tiers<K> {
    base: Option<Arc<Forest<K>>>,
    /// File generation of each dense base shard (directory mode;
    /// parallel to `base.shards()`).
    gens: Vec<u64>,
    /// The buffer currently being (or next to be) compacted.
    frozen: Arc<Memtable<K>>,
    /// The active write buffer.
    mem: Memtable<K>,
    /// Publication counter: bumped by every successful flush.
    epoch: u64,
    /// Next unused shard-file generation.
    next_gen: u64,
}

impl<K: Ord + Copy> Tiers<K> {
    fn blank() -> Self {
        Self {
            base: None,
            gens: Vec::new(),
            frozen: Arc::new(Memtable::default()),
            mem: Memtable::default(),
            epoch: 0,
            next_gen: 1,
        }
    }

    fn view(&self) -> View<'_, K> {
        View {
            base: self.base.as_deref(),
            frozen: &self.frozen,
            mem: &self.mem,
        }
    }

    fn is_blank(&self) -> bool {
        self.base.is_none() && self.frozen.is_empty() && self.mem.is_empty()
    }

    /// Applies an insert to the active memtable, upholding its
    /// invariants; returns whether the live set changed.
    fn insert(&mut self, key: K) -> bool {
        if let Ok(i) = self.mem.tombstones.binary_search(&key) {
            // Re-inserting a key we tombstoned: the key lives below, so
            // cancelling the tombstone is the whole operation.
            self.mem.tombstones.remove(i);
            return true;
        }
        if self.view().contains(key) {
            return false;
        }
        let at = self.mem.inserts.binary_search(&key).unwrap_err();
        self.mem.inserts.insert(at, key);
        true
    }

    /// Applies a removal; returns whether the live set changed.
    fn remove(&mut self, key: K) -> bool {
        if let Ok(i) = self.mem.inserts.binary_search(&key) {
            self.mem.inserts.remove(i);
            return true;
        }
        if has(&self.mem.tombstones, key) {
            return false;
        }
        // A tombstone is only recorded for keys live in the tiers
        // below (frozen over base) — otherwise rank arithmetic would
        // subtract a phantom.
        let lives_below = has(&self.frozen.inserts, key)
            || (!has(&self.frozen.tombstones, key)
                && self.base.as_deref().is_some_and(|f| f.contains(key)));
        if !lives_below {
            return false;
        }
        let at = self.mem.tombstones.binary_search(&key).unwrap_err();
        self.mem.tombstones.insert(at, key);
        true
    }
}

// ---------------------------------------------------------------------------
// Shared engine state + compaction
// ---------------------------------------------------------------------------

/// What a flush rebuilds.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FlushMode {
    /// Merge the buffer into the shards it touches; carry the rest
    /// forward by generation.
    Incremental,
    /// Rebuild every shard, re-partitioning evenly into
    /// `TieredConfig::shards` slots.
    Full,
}

/// What one shard of the next epoch is made from.
enum ShardPlan<K> {
    /// Reuse the existing shard file (no buffered delta routed to it).
    Carry {
        generation: u64,
        count: u64,
        bounds: (K, K),
    },
    /// Build a fresh tree over these keys (possibly none → empty slot).
    Build { keys: Vec<K> },
}

/// Worker wake-up state under its mutex.
struct WorkerState {
    pending: bool,
    shutdown: bool,
}

/// State shared between the [`TieredForest`] handle and the background
/// compaction worker.
struct Shared<K> {
    cfg: TieredConfig,
    dir: Option<PathBuf>,
    tiers: RwLock<Tiers<K>>,
    /// Serializes whole flushes (freeze → build → publish) without
    /// holding the tier lock across the build.
    flush_serial: Mutex<()>,
    worker: Mutex<WorkerState>,
    wake: Condvar,
    /// The most recent background-compaction error, for the writer to
    /// collect ([`TieredForest::take_compaction_error`]).
    last_error: Mutex<Option<Error>>,
    /// Successful flushes since the engine was built (monotone; cheap
    /// to read without the tier lock).
    flushes: AtomicU64,
    /// Completed scrub cycles over the base tier (survives the base
    /// forest being replaced at each flush).
    scrub_passes: AtomicU64,
    /// Quarantined shards healed by flush-time rebuilds.
    heals: AtomicU64,
}

fn relock<G>(result: std::result::Result<G, PoisonError<G>>) -> G {
    // A panic mid-flush poisons locks but leaves the tiers consistent:
    // every mutation section upholds the invariants before releasing.
    result.unwrap_or_else(PoisonError::into_inner)
}

impl<K> Shared<K> {
    fn read_tiers(&self) -> std::sync::RwLockReadGuard<'_, Tiers<K>> {
        relock(self.tiers.read())
    }

    fn write_tiers(&self) -> std::sync::RwLockWriteGuard<'_, Tiers<K>> {
        relock(self.tiers.write())
    }

    fn record_error(&self, e: Error) {
        *relock(self.last_error.lock()) = Some(e);
    }
}

impl<K: FixedKey> Shared<K> {
    fn fresh(cfg: TieredConfig, dir: Option<PathBuf>) -> Self {
        Self {
            cfg,
            dir,
            tiers: RwLock::new(Tiers::blank()),
            flush_serial: Mutex::new(()),
            worker: Mutex::new(WorkerState {
                pending: false,
                shutdown: false,
            }),
            wake: Condvar::new(),
            last_error: Mutex::new(None),
            flushes: AtomicU64::new(0),
            scrub_passes: AtomicU64::new(0),
            heals: AtomicU64::new(0),
        }
    }

    /// Opens a tiered store directory: scans for epoch-named manifests,
    /// loads the newest one that validates end-to-end (manifest
    /// checksums *and* every referenced shard file), and ignores
    /// younger invalid leftovers — the crash-recovery contract.
    fn open_dir(dir: &Path, cfg: TieredConfig) -> Result<Self> {
        cfg.io.create_dir_all(dir)?;
        let mut epochs: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| Error::io(&e))? {
            let entry = entry.map_err(|e| Error::io(&e))?;
            if let Some(name) = entry.file_name().to_str() {
                if let Some(epoch) = parse_numbered(name, "forest-e", ".cobf") {
                    epochs.push(epoch);
                }
            }
        }
        epochs.sort_unstable_by(|a, b| b.cmp(a));
        let mut last_err = None;
        for &epoch in &epochs {
            match Self::load_epoch(dir, epoch, cfg.io.as_ref()) {
                Ok(tiers) => {
                    let mut shared = Self::fresh(cfg, Some(dir.to_path_buf()));
                    shared.tiers = RwLock::new(tiers);
                    return Ok(shared);
                }
                Err(e) => last_err = Some(e),
            }
        }
        match last_err {
            // No manifest at all: a fresh (or never-flushed) store.
            None => Ok(Self::fresh(cfg, Some(dir.to_path_buf()))),
            Some(e) => Err(e),
        }
    }

    fn load_epoch(dir: &Path, epoch: u64, io: &dyn StorageIo) -> Result<Tiers<K>> {
        let bytes = io.read(&dir.join(tiered_manifest_name(epoch)))?;
        let manifest: ManifestV2<K> = format::parse_manifest_v2(&bytes)?;
        if manifest.epoch != epoch {
            return Err(Error::Malformed {
                detail: format!(
                    "manifest file for epoch {epoch} records epoch {}",
                    manifest.epoch
                ),
            });
        }
        let (base, gens) = open_rows(dir, &manifest.shards, io)?;
        let next_gen = manifest
            .shards
            .iter()
            .map(|r| r.generation)
            .max()
            .unwrap_or(0)
            + 1;
        Ok(Tiers {
            base,
            gens,
            frozen: Arc::new(Memtable::default()),
            mem: Memtable::default(),
            epoch,
            next_gen,
        })
    }

    /// One complete flush: freeze the memtable, build the next epoch's
    /// artifacts with no locks held, publish under a brief write lock,
    /// then clean up superseded files. Returns whether anything was
    /// published.
    fn flush(&self, mode: FlushMode, io_override: Option<&dyn StorageIo>) -> Result<bool> {
        let _serial = relock(self.flush_serial.lock());
        let io: &dyn StorageIo = io_override.unwrap_or(self.cfg.io.as_ref());
        let (base, gens, next_gen, frozen, epoch, healing) = {
            let mut tiers = self.write_tiers();
            if !tiers.mem.is_empty() {
                // Fold the active buffer into the frozen one (which is
                // non-empty only when a previous flush failed and left
                // its input behind for retry).
                let mut combined = (*tiers.frozen).clone();
                combined.absorb(std::mem::take(&mut tiers.mem));
                tiers.frozen = Arc::new(combined);
            }
            // A quarantined shard in the base forces a publish even
            // with nothing buffered: the rebuild is the heal.
            let healing = tiers.base.as_deref().map_or(0, Forest::quarantined_count);
            if tiers.frozen.is_empty()
                && healing == 0
                && !(mode == FlushMode::Full && tiers.base.is_some())
            {
                return Ok(false);
            }
            (
                tiers.base.clone(),
                tiers.gens.clone(),
                tiers.next_gen,
                Arc::clone(&tiers.frozen),
                tiers.epoch,
                healing,
            )
        };
        // Build phase — no locks held; readers and writers proceed
        // against the (base, frozen, mem) triple, whose semantics the
        // publish below preserves exactly.
        let new_epoch = epoch + 1;
        let ((new_base, new_gens), new_next) = match &self.dir {
            None => (
                (
                    rebuild_in_memory(&self.cfg, base.as_deref(), &frozen)?,
                    Vec::new(),
                ),
                next_gen,
            ),
            Some(dir) => publish_to_dir(
                &self.cfg,
                dir,
                base.as_deref(),
                &gens,
                next_gen,
                &frozen,
                new_epoch,
                mode,
                io,
            )?,
        };
        {
            let mut tiers = self.write_tiers();
            tiers.base = new_base;
            tiers.gens = new_gens;
            tiers.frozen = Arc::new(Memtable::default());
            tiers.epoch = new_epoch;
            tiers.next_gen = new_next;
        }
        self.flushes.fetch_add(1, Ordering::Relaxed);
        if healing > 0 {
            // The re-published base starts with every shard healthy —
            // the quarantined ranges were rebuilt from the surviving
            // tiers and are serving again.
            self.heals.fetch_add(healing as u64, Ordering::Relaxed);
        }
        if let Some(dir) = &self.dir {
            let keep: Vec<u64> = self.read_tiers().gens.clone();
            cleanup_dir(dir, new_epoch, &keep);
        }
        Ok(true)
    }
}

/// Rebuilds the base as one in-memory forest over the merged live keys.
fn rebuild_in_memory<K: FixedKey>(
    cfg: &TieredConfig,
    base: Option<&Forest<K>>,
    frozen: &Memtable<K>,
) -> Result<Option<Arc<Forest<K>>>> {
    let merged = merged_live(base, frozen);
    if merged.is_empty() {
        return Ok(None);
    }
    Forest::builder()
        .layout(cfg.layout)
        .storage(Storage::Implicit)
        .shards(cfg.shards)
        .keys(merged)
        .build()
        .map(|f| Some(Arc::new(f)))
}

/// The live keys of `(frozen over base)`, merged in ascending order.
fn merged_live<K: Ord + Copy>(base: Option<&Forest<K>>, frozen: &Memtable<K>) -> Vec<K> {
    let base_len = base.map_or(0, |f| f.len() as usize);
    let mut out = Vec::with_capacity(base_len + frozen.inserts.len());
    let mut ins = frozen.inserts.iter().copied().peekable();
    if let Some(f) = base {
        for key in f.iter() {
            while ins.peek().is_some_and(|&i| i < key) {
                out.push(ins.next().expect("peeked"));
            }
            if !has(&frozen.tombstones, key) {
                out.push(key);
            }
        }
    }
    out.extend(ins);
    out
}

/// The live keys of `(frozen over base)` in ascending order, one at a
/// time: [`merged_live`] without the vector.
fn live_keys<'a, K: Ord + Copy>(
    base: Option<&'a Forest<K>>,
    frozen: &'a Memtable<K>,
) -> impl Iterator<Item = K> + 'a {
    let mut kept = base
        .into_iter()
        .flat_map(Forest::iter)
        .filter(|&key| !has(&frozen.tombstones, key))
        .peekable();
    let mut ins = frozen.inserts.iter().copied().peekable();
    std::iter::from_fn(move || match (kept.peek(), ins.peek()) {
        (Some(key), Some(i)) if i < key => ins.next(),
        (Some(_), _) => kept.next(),
        (None, _) => ins.next(),
    })
}

/// Plans the next epoch's shards. Incremental mode routes each
/// buffered delta to the dense base shard owning its key range and
/// rebuilds only the shards that received one; full mode re-partitions
/// everything evenly.
fn plan_shards<K: FixedKey>(
    cfg: &TieredConfig,
    base: Option<&Forest<K>>,
    gens: &[u64],
    frozen: &Memtable<K>,
    mode: FlushMode,
) -> Vec<ShardPlan<K>> {
    if let (FlushMode::Incremental, Some(f)) = (mode, base) {
        let fences = f.router().fences();
        let dense = f.active_shards();
        debug_assert_eq!(gens.len(), dense);
        // Keys below the first fence route to shard 0 — some shard has
        // to absorb them, and the leftmost keeps fences ascending.
        let shard_of =
            |key: K| -> usize { fences.partition_point(|&x| x <= key).saturating_sub(1) };
        let mut ins_by = vec![Vec::new(); dense];
        let mut tomb_by = vec![false; dense];
        for &key in &frozen.inserts {
            ins_by[shard_of(key)].push(key);
        }
        for &key in &frozen.tombstones {
            tomb_by[shard_of(key)] = true;
        }
        let mut plans = Vec::with_capacity(dense);
        for (i, tree) in f.shards().enumerate() {
            // A quarantined shard is never carried: rebuilding it from
            // the still-intact in-memory tree under a fresh generation
            // IS the heal.
            if ins_by[i].is_empty() && !tomb_by[i] && !f.is_quarantined(i) {
                let count = tree.len();
                let bounds = (
                    tree.select(1).expect("shards are non-empty"),
                    tree.select(count).expect("shards are non-empty"),
                );
                plans.push(ShardPlan::Carry {
                    generation: gens[i],
                    count,
                    bounds,
                });
            } else {
                let mut keys = Vec::with_capacity(tree.len() as usize + ins_by[i].len());
                let mut ins = ins_by[i].iter().copied().peekable();
                for key in tree.iter() {
                    while ins.peek().is_some_and(|&x| x < key) {
                        keys.push(ins.next().expect("peeked"));
                    }
                    if !has(&frozen.tombstones, key) {
                        keys.push(key);
                    }
                }
                keys.extend(ins);
                plans.push(ShardPlan::Build { keys });
            }
        }
        return plans;
    }
    // Full rebuild: even range partition over the merged live set,
    // mirroring ForestBuilder's split, merged straight into the slots.
    // Inserts are disjoint from the base and tombstones a subset of it,
    // so the live count is known before the merge.
    let n = base.map_or(0, |f| f.len() as usize) + frozen.inserts.len() - frozen.tombstones.len();
    let slots = cfg.shards.max(1);
    let mut live = live_keys(base, frozen);
    let plans = (0..slots)
        .map(|slot| {
            let len = (slot + 1) * n / slots - slot * n / slots;
            let mut keys = Vec::with_capacity(len);
            keys.extend(live.by_ref().take(len));
            ShardPlan::Build { keys }
        })
        .collect();
    debug_assert!(live.next().is_none(), "the live count was exact");
    plans
}

/// A freshly opened base tier: the mapped forest (`None` when the
/// store drained to zero keys) and the per-slot file generations that
/// serve it.
type OpenedBase<K> = (Option<Arc<Forest<K>>>, Vec<u64>);

/// Builds and durably writes the next epoch, then re-opens the
/// published rows as the new mapped base. The shard builds are all CPU
/// and fan out over the cores ([`write_shard_images`]); the writes run
/// on this thread alone, in the same order as a one-core build: fresh
/// shard files in generation order, each as soon as it and every file
/// before it are built, then the epoch manifest. A build error fails
/// the flush after the files before it, which no manifest references
/// (the next successful publish deletes them). Nothing the current
/// epoch references is modified, so a crash anywhere in here leaves
/// the current epoch fully intact.
#[allow(clippy::too_many_arguments)]
fn publish_to_dir<K: FixedKey>(
    cfg: &TieredConfig,
    dir: &Path,
    base: Option<&Forest<K>>,
    gens: &[u64],
    next_gen: u64,
    frozen: &Memtable<K>,
    new_epoch: u64,
    mode: FlushMode,
    io: &dyn StorageIo,
) -> Result<(OpenedBase<K>, u64)> {
    let plans = plan_shards(cfg, base, gens, frozen, mode);
    let mut gen = next_gen;
    let mut rows: Vec<ShardRecord<K>> = Vec::with_capacity(plans.len());
    let mut builds = Vec::new();
    for plan in plans {
        rows.push(match plan {
            ShardPlan::Carry {
                generation,
                count,
                bounds,
            } => ShardRecord {
                key_count: count,
                bounds: Some(bounds),
                generation,
            },
            ShardPlan::Build { keys } => match (keys.first(), keys.last()) {
                (Some(&first), Some(&last)) => {
                    let row = ShardRecord {
                        key_count: keys.len() as u64,
                        bounds: Some((first, last)),
                        generation: gen,
                    };
                    gen += 1;
                    builds.push(keys);
                    row
                }
                _ => ShardRecord {
                    key_count: 0,
                    bounds: None,
                    generation: 0,
                },
            },
        });
    }
    // The builds got the generations `next_gen..gen`, in plan order.
    write_shard_images(cfg.layout, builds, |i, bytes| {
        io.write_atomic(&dir.join(tiered_shard_name(next_gen + i as u64)), bytes)
    })?;
    let manifest = ManifestV2 {
        epoch: new_epoch,
        flushed_inserts: frozen.inserts.len() as u64,
        flushed_tombstones: frozen.tombstones.len() as u64,
        shards: rows.clone(),
    };
    let bytes = format::encode_manifest_v2(&manifest)?;
    io.write_atomic(&dir.join(tiered_manifest_name(new_epoch)), &bytes)?;
    let opened = open_rows(dir, &rows, io)?;
    Ok((opened, gen))
}

/// The work queue of [`write_shard_images`], shared under one mutex.
struct ImageQueue<K> {
    /// The key sets not taken yet, with their input index.
    pending: std::iter::Enumerate<std::vec::IntoIter<Vec<K>>>,
    /// Finished builds waiting for their write, by input index (a
    /// build that panicked holds its payload).
    built: Vec<Option<std::thread::Result<Result<Vec<u8>>>>>,
    /// The buffers of written images, for the next builds to reuse.
    spare: Vec<Vec<u8>>,
    /// Key sets taken and images written so far: the difference counts
    /// the builds and images alive.
    taken: usize,
    written: usize,
    /// Set when the writer leaves, so that no more key sets are taken.
    stop: bool,
}

impl<K> ImageQueue<K> {
    /// The next key set and a buffer for its image, while fewer than
    /// `window` are taken and not yet written.
    fn take(&mut self, window: usize) -> Option<(usize, Vec<K>, Vec<u8>)> {
        if self.stop || self.taken - self.written >= window {
            return None;
        }
        let (i, keys) = self.pending.next()?;
        self.taken += 1;
        Some((i, keys, self.spare.pop().unwrap_or_default()))
    }
}

/// Stops the helpers of [`write_shard_images`] however its writer
/// leaves: done, failed or unwinding.
struct StopHelpers<'a, K>(&'a Mutex<ImageQueue<K>>, &'a Condvar);

impl<K> Drop for StopHelpers<'_, K> {
    fn drop(&mut self) {
        relock(self.0.lock()).stop = true;
        self.1.notify_all();
    }
}

/// Writes the sealed `.cobt` image of each sorted key set in `layout`
/// ([`SearchTree::encode_sorted_into`]: each key at its layout
/// position, no tree built) and hands it to `write` with its input
/// index, on the calling thread and in input order, as soon as it and
/// every image before it are built. The calling thread and up to
/// `available_parallelism() − 1` helpers take key sets from one queue,
/// but only while fewer than one per thread is taken and not yet
/// written: at most one build or image per thread is alive. A written
/// image's buffer goes to the next build, so a call allocates at most
/// one buffer per thread and frees them all when it returns. With one
/// key set or one core no thread is spawned (nor when a spawn fails:
/// the calling thread drains the queue alone). Helpers never touch the
/// storage seam.
///
/// # Errors
/// The first error in input order, a key set's build error or
/// `write`'s, once every image before it is written.
fn write_shard_images<K: FixedKey>(
    layout: NamedLayout,
    key_sets: Vec<Vec<K>>,
    mut write: impl FnMut(usize, &[u8]) -> Result<()>,
) -> Result<()> {
    let total = key_sets.len();
    let threads = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(total);
    let queue = Mutex::new(ImageQueue {
        pending: key_sets.into_iter().enumerate(),
        built: (0..total).map(|_| None).collect(),
        spare: Vec::new(),
        taken: 0,
        written: 0,
        stop: false,
    });
    let turn = Condvar::new();
    let build = |keys: Vec<K>, mut image: Vec<u8>| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            SearchTree::encode_sorted_into(layout, &keys, &SaveOptions::new(), &mut image)
                .map(|()| image)
        }))
    };
    let helper = || {
        let mut q = relock(queue.lock());
        loop {
            if let Some((i, keys, buffer)) = q.take(threads) {
                drop(q);
                let image = build(keys, buffer);
                q = relock(queue.lock());
                q.built[i] = Some(image);
                turn.notify_all();
            } else if q.stop || q.pending.len() == 0 {
                return;
            } else {
                q = relock(turn.wait(q));
            }
        }
    };
    std::thread::scope(|s| {
        for _ in 1..threads {
            // A helper that fails to spawn leaves its share to the rest.
            let _ = std::thread::Builder::new()
                .name("cobtree-publish".into())
                .spawn_scoped(s, helper);
        }
        let _stop = StopHelpers(&queue, &turn);
        let mut q = relock(queue.lock());
        while q.written < total {
            let i = q.written;
            if let Some(image) = q.built[i].take() {
                drop(q);
                let bytes = image.unwrap_or_else(|p| std::panic::resume_unwind(p))?;
                write(i, &bytes)?;
                q = relock(queue.lock());
                q.spare.push(bytes);
                q.written += 1;
                turn.notify_all();
            } else if let Some((j, keys, buffer)) = q.take(threads) {
                drop(q);
                let image = build(keys, buffer);
                q = relock(queue.lock());
                q.built[j] = Some(image);
            } else {
                q = relock(turn.wait(q));
            }
        }
        Ok(())
    })
}

/// Re-opens the shard files a manifest's rows reference as a mapped
/// [`Forest`], cross-checking each file against its row (count and
/// fence bounds), exactly like [`Forest::open`] does for v1 stores. A
/// checksummed shard file that parses clean but disagrees with its row
/// is trusted from the file and **quarantined** (its range answers
/// `UNAVAIL` until the next flush rebuilds it); an unreadable or
/// corrupt file remains a hard error, which the epoch recovery scan
/// turns into a fall-back to the previous manifest.
fn open_rows<K: FixedKey>(
    dir: &Path,
    rows: &[ShardRecord<K>],
    io: &dyn StorageIo,
) -> Result<OpenedBase<K>> {
    let mut counts_by_slot = Vec::with_capacity(rows.len());
    let mut trees = Vec::new();
    let mut slot_of = Vec::new();
    let mut gens = Vec::new();
    let mut paths = Vec::new();
    let mut quarantined = Vec::new();
    for (slot, row) in rows.iter().enumerate() {
        counts_by_slot.push(row.key_count);
        let Some((first, last)) = row.bounds else {
            continue;
        };
        let path = dir.join(tiered_shard_name(row.generation));
        let tree: SearchTree<K> = SearchTree::open_with_io(&path, io)?;
        if tree.len() != row.key_count
            || tree.select(1) != Some(first)
            || tree.select(tree.len()) != Some(last)
        {
            // The file's own checksums held; the manifest row is the
            // corrupt side. Serve the rest of the store and quarantine
            // this shard until a flush republishes consistent state.
            counts_by_slot[slot] = tree.len();
            quarantined.push(trees.len());
        }
        paths.push(Some(path));
        trees.push(tree);
        slot_of.push(slot);
        gens.push(row.generation);
    }
    if trees.is_empty() {
        return Ok((None, gens));
    }
    let mut forest = Forest::assemble(Storage::Mapped, rows.len(), counts_by_slot, trees, slot_of)?;
    forest.set_shard_paths(paths);
    for dense in quarantined {
        forest.quarantine(dense);
    }
    Ok((Some(Arc::new(forest)), gens))
}

/// Best-effort removal of files the published epoch no longer
/// references: manifests of older epochs and shard files whose
/// generation is not in `keep`. Runs only after a successful publish;
/// failures are ignored (a leftover file is re-collected next flush).
fn cleanup_dir(dir: &Path, current_epoch: u64, keep: &[u64]) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = match (
            parse_numbered(name, "forest-e", ".cobf"),
            parse_numbered(name, "shard-g", ".cobt"),
        ) {
            (Some(epoch), _) => epoch < current_epoch,
            (_, Some(generation)) => !keep.contains(&generation),
            // Staging leftovers from a crashed atomic write: publishes
            // are serialized, so any `.tmp` present after a successful
            // one is garbage.
            _ => name.ends_with(".tmp"),
        };
        if stale {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// The background compaction loop: sleep on the condvar, flush when a
/// budget-crossing write signals, exit on shutdown. Errors are parked
/// for [`TieredForest::take_compaction_error`]; the frozen buffer
/// stays behind for the next attempt, so no acknowledged write is ever
/// dropped by a failed compaction.
fn worker_loop<K: FixedKey>(shared: &Shared<K>) {
    let mut state = relock(shared.worker.lock());
    loop {
        while !state.pending && !state.shutdown {
            state = relock(shared.wake.wait(state));
        }
        if state.shutdown {
            return;
        }
        state.pending = false;
        drop(state);
        if let Err(e) = shared.flush(FlushMode::Incremental, None) {
            shared.record_error(e);
        }
        state = relock(shared.worker.lock());
    }
}

// ---------------------------------------------------------------------------
// The engine handle
// ---------------------------------------------------------------------------

/// The tiered write engine: a mutable memtable over an immutable
/// [`Forest`], compacted in the background, published atomically by
/// epoch-versioned manifest swap. See the [module docs](crate::tiered)
/// for the tier semantics and crash-consistency contract.
///
/// The handle is `Send + Sync`: readers query concurrently under a
/// read lock (or wait-free via [`TieredForest::snapshot`]); writers
/// and the compaction publisher take the write lock briefly — never
/// across a shard build.
pub struct TieredForest<K> {
    shared: Arc<Shared<K>>,
    worker: Option<JoinHandle<()>>,
}

// Compile-time audit, mirroring the forest's: the engine handle and
// its snapshots must be shareable across threads.
#[allow(dead_code)]
fn assert_tiered_is_shareable() {
    fn shareable<T: Send + Sync>() {}
    shareable::<TieredForest<u64>>();
    shareable::<TieredSnapshot<u64>>();
}

impl<K: FixedKey> TieredForest<K> {
    /// Starts a builder with the defaults (MINWEP layout, 4 shards,
    /// 4096-entry / 1 MiB memtable, in-memory, inline compaction).
    #[must_use]
    pub fn builder() -> TieredBuilder<K> {
        TieredBuilder::default()
    }

    /// Opens (or initializes) a tiered store directory with default
    /// configuration — recovery lands on the newest manifest that
    /// validates end-to-end.
    ///
    /// # Errors
    /// I/O errors, or typed format errors when manifests exist but
    /// none validates.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::builder().path(dir).build()
    }

    fn view_query<R>(&self, q: impl FnOnce(View<'_, K>) -> R) -> R {
        let tiers = self.shared.read_tiers();
        q(tiers.view())
    }

    /// Inserts a key; returns whether the live set changed. Crossing
    /// the memtable budget triggers compaction (inline, or a wake of
    /// the background worker).
    pub fn insert(&self, key: K) -> bool {
        let (changed, over) = {
            let mut tiers = self.shared.write_tiers();
            let changed = tiers.insert(key);
            let over = self.shared.cfg.over_budget(tiers.mem.entries(), K::WIDTH);
            (changed, over)
        };
        if over {
            self.kick();
        }
        changed
    }

    /// Removes a key; returns whether the live set changed. Removing a
    /// key that lives in an immutable tier records a tombstone.
    pub fn remove(&self, key: K) -> bool {
        let (changed, over) = {
            let mut tiers = self.shared.write_tiers();
            let changed = tiers.remove(key);
            let over = self.shared.cfg.over_budget(tiers.mem.entries(), K::WIDTH);
            (changed, over)
        };
        if over {
            self.kick();
        }
        changed
    }

    fn kick(&self) {
        if self.worker.is_some() {
            relock(self.shared.worker.lock()).pending = true;
            self.shared.wake.notify_all();
        } else if let Err(e) = self.shared.flush(FlushMode::Incremental, None) {
            self.shared.record_error(e);
        }
    }

    /// Drains the memtable into the base tier *now* (incremental: only
    /// shards a buffered delta routes to are rebuilt). Returns whether
    /// a new epoch was published (`false` = nothing buffered).
    ///
    /// # Errors
    /// Build or I/O errors; the buffered writes stay queued for retry.
    pub fn flush(&self) -> Result<bool> {
        self.shared.flush(FlushMode::Incremental, None)
    }

    /// Drains the memtable *and* rebuilds every shard, re-partitioning
    /// the live keys evenly over [`TieredConfig::shards`] slots —
    /// the heavyweight rebalance. Returns whether an epoch was
    /// published.
    ///
    /// # Errors
    /// Build or I/O errors; the buffered writes stay queued for retry.
    pub fn compact(&self) -> Result<bool> {
        self.shared.flush(FlushMode::Full, None)
    }

    /// Test-only flush whose `budget`-th file write fails — after
    /// writing half the bytes when `partial_last` is set — simulating
    /// a crash at an arbitrary point of the publish sequence. A thin
    /// compatibility shim over [`TieredForest::flush_with_io`] with a
    /// one-rule [`FaultIo`] schedule.
    #[doc(hidden)]
    pub fn flush_with_failpoint(&self, budget: usize, partial_last: bool) -> Result<bool> {
        let fault = FaultIo::scripted(vec![FaultRule {
            op: IoOp::Write,
            nth: budget as u64 + 1,
            kind: if partial_last {
                FaultKind::Torn
            } else {
                FaultKind::Fail
            },
        }]);
        self.flush_with_io(&fault)
    }

    /// An incremental flush driven through an explicit storage seam
    /// (overriding the configured one for this flush only) — the
    /// entry point for scripted crash and fault schedules.
    ///
    /// # Errors
    /// As for [`TieredForest::flush`].
    pub fn flush_with_io(&self, io: &dyn StorageIo) -> Result<bool> {
        self.shared.flush(FlushMode::Incremental, Some(io))
    }

    // -----------------------------------------------------------------
    // Shard health: scrubbing, quarantine, healing
    // -----------------------------------------------------------------

    /// One paced scrub step over the base tier: re-reads up to
    /// `budget` shard files (0 = all) through the configured storage
    /// seam, re-validating their checksums and quarantining any shard
    /// that no longer verifies. Engines without a mapped base (pure
    /// in-memory stores) report an empty step.
    pub fn scrub_step(&self, budget: usize) -> ScrubReport {
        let base = self.shared.read_tiers().base.clone();
        let Some(base) = base else {
            return ScrubReport::default();
        };
        let report = base.scrub_step(self.shared.cfg.io.as_ref(), budget);
        if report.completed_pass {
            self.shared.scrub_passes.fetch_add(1, Ordering::Relaxed);
        }
        report
    }

    /// Completed scrub cycles over the engine's lifetime (survives the
    /// base being replaced at each flush).
    #[must_use]
    pub fn scrub_passes(&self) -> u64 {
        self.shared.scrub_passes.load(Ordering::Relaxed)
    }

    /// Quarantined shards healed by flush-time rebuilds over the
    /// engine's lifetime.
    #[must_use]
    pub fn heals(&self) -> u64 {
        self.shared.heals.load(Ordering::Relaxed)
    }

    /// Number of currently quarantined base shards.
    #[must_use]
    pub fn quarantined_shards(&self) -> usize {
        self.shared
            .read_tiers()
            .base
            .as_deref()
            .map_or(0, Forest::quarantined_count)
    }

    /// Verifies that `key`'s owning base shard is serving.
    ///
    /// # Errors
    /// [`Error::ShardUnavailable`] when the base shard owning `key`'s
    /// range is quarantined. Keys resident only in the memtable tiers
    /// are always available.
    pub fn check_available(&self, key: K) -> Result<()> {
        match self.shared.read_tiers().base.as_deref() {
            Some(base) => base.check_available(key),
            None => Ok(()),
        }
    }

    /// Runs `f` on the base forest (`None` before the first flush)
    /// under the tier read lock. Unlike [`TieredForest::snapshot`] it
    /// clones no tier, so it is the cheap way to consult the shard
    /// router.
    pub fn with_base<R>(&self, f: impl FnOnce(Option<&Forest<K>>) -> R) -> R {
        f(self.shared.read_tiers().base.as_deref())
    }

    /// An owned point-in-time view: wait-free queries, ranges and
    /// cursors, unaffected by later writes or compactions.
    #[must_use]
    pub fn snapshot(&self) -> TieredSnapshot<K> {
        let tiers = self.shared.read_tiers();
        TieredSnapshot {
            base: tiers.base.clone(),
            frozen: Arc::clone(&tiers.frozen),
            mem: tiers.mem.clone(),
            epoch: tiers.epoch,
        }
    }

    /// Live keys in the engine.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.view_query(|v| v.len())
    }

    /// Whether the engine holds no live keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test across all three tiers.
    #[must_use]
    pub fn contains(&self, key: K) -> bool {
        self.view_query(|v| v.contains(key))
    }

    /// The tier holding live `key`, without computing its rank: the
    /// buffers decide first, then one fast-plane descent of the routed
    /// base shard. `None` for a miss.
    #[must_use]
    pub fn find(&self, key: K) -> Option<TierPlace> {
        self.view_query(|v| v.find(key))
    }

    /// [`TieredForest::find`] for a whole batch under one read lock,
    /// behind the quarantine gate: `emit` receives one answer per
    /// probe, in probe order — [`Error::ShardUnavailable`] for a probe
    /// routed to a quarantined base shard (as
    /// [`TieredForest::check_available`] answers, buffered keys
    /// included), otherwise the probe's place.
    pub fn find_batch(&self, keys: &[K], mut emit: impl FnMut(Result<Option<TierPlace>>)) {
        self.view_query(|v| {
            for &k in keys {
                emit(v.find_available(k));
            }
        });
    }

    /// Locates a live key: [`TieredForest::find`] plus the engine-wide
    /// rank (a second descent of the base shard, and a search of every
    /// buffer).
    #[must_use]
    pub fn locate(&self, key: K) -> Option<TieredHit> {
        self.view_query(|v| v.locate(key))
    }

    /// Live keys strictly below `key` (the 0-based rank, mirroring
    /// [`Forest::rank`]).
    #[must_use]
    pub fn rank(&self, key: K) -> u64 {
        self.view_query(|v| v.count_lt(key))
    }

    /// The live key of 1-based rank `rank`.
    #[must_use]
    pub fn select(&self, rank: u64) -> Option<K> {
        self.view_query(|v| v.select(rank))
    }

    /// Rank of the first live key `>= key` (`len + 1` if none).
    #[must_use]
    pub fn lower_bound_rank(&self, key: K) -> u64 {
        self.view_query(|v| v.lower_bound_rank(key))
    }

    /// Rank of the first live key `> key` (`len + 1` if none).
    #[must_use]
    pub fn upper_bound_rank(&self, key: K) -> u64 {
        self.view_query(|v| v.upper_bound_rank(key))
    }

    /// Smallest live key `>= key`.
    #[must_use]
    pub fn lower_bound(&self, key: K) -> Option<K> {
        self.view_query(|v| v.lower_bound(key))
    }

    /// Smallest live key `> key`.
    #[must_use]
    pub fn upper_bound(&self, key: K) -> Option<K> {
        self.view_query(|v| v.upper_bound(key))
    }

    /// Largest live key `< key`.
    #[must_use]
    pub fn predecessor(&self, key: K) -> Option<K> {
        self.view_query(|v| v.predecessor(key))
    }

    /// Smallest live key `> key`.
    #[must_use]
    pub fn successor(&self, key: K) -> Option<K> {
        self.view_query(|v| v.successor(key))
    }

    /// Sums the engine-wide rank of every found probe (wrapping);
    /// equals [`Forest::rank_checksum`] whenever the buffers are empty.
    #[must_use]
    pub fn rank_checksum(&self, probes: &[K]) -> u64 {
        self.view_query(|v| v.rank_checksum(probes))
    }

    /// Searches an ascending probe batch across all tiers under one
    /// read lock: `out` gets what [`TieredForest::find`] answers for
    /// each probe, in probe order. The base answers through
    /// [`Forest::search_sorted_batch`] (shared-prefix descents on each
    /// shard's fast plane); the buffers are probed only while they hold
    /// entries. No rank is computed.
    ///
    /// # Errors
    /// [`Error::UnsortedBatch`] on a descending adjacent probe pair.
    pub fn search_sorted_batch(&self, keys: &[K], out: &mut Vec<Option<TierPlace>>) -> Result<()> {
        self.view_query(|v| v.search_sorted_batch(keys, out))
    }

    /// The current compaction epoch (0 until the first flush).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.shared.read_tiers().epoch
    }

    /// Successful flushes since the engine was built.
    #[must_use]
    pub fn flushes(&self) -> u64 {
        self.shared.flushes.load(Ordering::Relaxed)
    }

    /// Entries currently buffered in the mutable tiers (active memtable
    /// plus any frozen buffer awaiting compaction).
    #[must_use]
    pub fn buffered(&self) -> usize {
        let tiers = self.shared.read_tiers();
        tiers.mem.entries() + tiers.frozen.entries()
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &TieredConfig {
        &self.shared.cfg
    }

    /// The backing directory, when the engine is durable.
    #[must_use]
    pub fn path(&self) -> Option<&Path> {
        self.shared.dir.as_deref()
    }

    /// Takes (and clears) the most recent background-compaction error.
    /// Inline-compaction engines park budget-triggered flush errors
    /// here too; explicit [`TieredForest::flush`] calls return theirs
    /// directly.
    #[must_use]
    pub fn take_compaction_error(&self) -> Option<Error> {
        relock(self.shared.last_error.lock()).take()
    }
}

impl<K: Ord + Copy> std::fmt::Debug for TieredForest<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tiers = self.shared.read_tiers();
        f.debug_struct("TieredForest")
            .field("len", &tiers.view().len())
            .field("epoch", &tiers.epoch)
            .field("buffered", &(tiers.mem.entries() + tiers.frozen.entries()))
            .field("background", &self.worker.is_some())
            .finish()
    }
}

impl<K> Drop for TieredForest<K> {
    fn drop(&mut self) {
        if let Some(handle) = self.worker.take() {
            relock(self.shared.worker.lock()).shutdown = true;
            self.shared.wake.notify_all();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cobtree-tiered-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn assert_matches_oracle(engine: &TieredForest<u64>, oracle: &BTreeSet<u64>, probes: &[u64]) {
        assert_eq!(engine.len(), oracle.len() as u64);
        let scanned: Vec<u64> = engine.snapshot().iter().collect();
        let expect: Vec<u64> = oracle.iter().copied().collect();
        assert_eq!(scanned, expect);
        for &p in probes {
            assert_eq!(engine.contains(p), oracle.contains(&p), "contains({p})");
            let lt = oracle.iter().filter(|&&k| k < p).count() as u64;
            assert_eq!(engine.rank(p), lt, "rank({p})");
            assert_eq!(
                engine.lower_bound(p),
                oracle.range(p..).next().copied(),
                "lower_bound({p})"
            );
            assert_eq!(
                engine.predecessor(p),
                oracle.range(..p).next_back().copied(),
                "predecessor({p})"
            );
        }
        for rank in [0, 1, oracle.len() as u64 / 2, oracle.len() as u64] {
            assert_eq!(
                engine.select(rank),
                (rank >= 1)
                    .then(|| expect.get(rank as usize - 1).copied())
                    .flatten(),
                "select({rank})"
            );
        }
        assert_eq!(engine.select(oracle.len() as u64 + 1), None);
    }

    #[test]
    fn memtable_only_engine_answers_the_ordered_api() {
        let engine = TieredForest::<u64>::builder().build().unwrap();
        assert!(engine.is_empty());
        assert_eq!(engine.select(1), None);
        assert_eq!(engine.lower_bound(0), None);
        let mut oracle = BTreeSet::new();
        for k in [50u64, 10, 30, 10, 70] {
            assert_eq!(engine.insert(k), oracle.insert(k), "insert({k})");
        }
        assert_eq!(engine.remove(30), oracle.remove(&30));
        assert!(!engine.remove(31));
        let probes: Vec<u64> = (0..90).collect();
        assert_matches_oracle(&engine, &oracle, &probes);
        assert_eq!(engine.epoch(), 0, "nothing crossed the budget");
        assert!(matches!(
            engine.locate(50),
            Some(TieredHit {
                place: TierPlace::Buffer,
                ..
            })
        ));
    }

    #[test]
    fn cross_tier_queries_after_in_memory_flush() {
        let engine = TieredForest::<u64>::builder()
            .shards(3)
            .keys((0..200u64).map(|k| k * 5))
            .build()
            .unwrap();
        let mut oracle: BTreeSet<u64> = (0..200u64).map(|k| k * 5).collect();
        assert_eq!(engine.epoch(), 1, "seed keys are compacted at build");
        // Straddle the tiers: buffered inserts between base keys,
        // tombstones over base keys, re-inserts, re-removes.
        for k in [3u64, 501, 997] {
            assert!(engine.insert(k));
            oracle.insert(k);
        }
        for k in [0u64, 500, 995] {
            assert_eq!(engine.remove(k), oracle.remove(&k));
        }
        assert!(engine.insert(500) && oracle.insert(500));
        let probes: Vec<u64> = (0..1100).collect();
        assert_matches_oracle(&engine, &oracle, &probes);
        // A base-resident key locates into a shard; a buffered one
        // into the buffer.
        assert!(matches!(
            engine.locate(5).unwrap().place,
            TierPlace::Shard { .. }
        ));
        assert!(matches!(engine.locate(3).unwrap().place, TierPlace::Buffer));
        // Flushing must not change a single answer.
        assert!(engine.flush().unwrap());
        assert_matches_oracle(&engine, &oracle, &probes);
        assert!(!engine.flush().unwrap(), "nothing left to flush");
    }

    #[test]
    fn ranges_cursors_and_batches_merge_tiers() {
        let engine = TieredForest::<u64>::builder()
            .shards(2)
            .keys((0..100u64).map(|k| k * 10))
            .build()
            .unwrap();
        engine.insert(15);
        engine.insert(985);
        engine.remove(20);
        engine.remove(980);
        let mut oracle: BTreeSet<u64> = (0..100u64).map(|k| k * 10).collect();
        oracle.insert(15);
        oracle.insert(985);
        oracle.remove(&20);
        oracle.remove(&980);
        let snap = engine.snapshot();

        let window: Vec<u64> = snap.range(12..=40).collect();
        assert_eq!(window, vec![15, 30, 40]);
        let back: Vec<u64> = snap.range(970..).rev().collect();
        assert_eq!(back, vec![990, 985, 970]);
        let r = snap.range(12..=40);
        assert_eq!(r.len(), 3, "exact size from rank arithmetic");
        // Mixed-direction consumption covers the DePeek hand-off.
        let mut mixed = snap.range(..);
        let expect: Vec<u64> = oracle.iter().copied().collect();
        let (mut lo, mut hi) = (0usize, expect.len());
        for step in 0..expect.len() {
            if step % 2 == 0 {
                assert_eq!(mixed.next(), Some(expect[lo]));
                lo += 1;
            } else {
                hi -= 1;
                assert_eq!(mixed.next_back(), Some(expect[hi]));
            }
        }
        assert_eq!(mixed.next(), None);
        assert_eq!(mixed.next_back(), None);

        let mut cursor = snap.cursor();
        assert_eq!(cursor.seek(16), Some(30));
        assert_eq!(cursor.rank(), Some(snap.rank(30) + 1));
        assert_eq!(cursor.prev(), Some(15));
        assert_eq!(cursor.next(), Some(30));
        assert_eq!(cursor.seek_last(), Some(990));
        assert_eq!(cursor.next(), None);

        let probes: Vec<u64> = vec![0, 10, 15, 20, 25, 980, 985, 990, 1000];
        let mut hits = Vec::new();
        snap.search_sorted_batch(&probes, &mut hits).unwrap();
        for (&p, hit) in probes.iter().zip(&hits) {
            assert_eq!(hit.is_some(), oracle.contains(&p), "batch({p})");
            assert_eq!(*hit, snap.locate(p).map(|h| h.place), "batch place({p})");
            if hit.is_some() {
                assert_eq!(snap.select(snap.rank(p) + 1), Some(p), "batch rank({p})");
            }
        }
        assert_eq!(
            snap.search_sorted_batch(&[5, 3], &mut hits).unwrap_err(),
            Error::UnsortedBatch { index: 0 }
        );
    }

    #[test]
    fn durable_store_publishes_carries_and_reopens() {
        let dir = temp_dir("durable");
        let engine = TieredForest::<u64>::builder()
            .shards(4)
            .keys((0..400u64).map(|k| k * 3))
            .path(&dir)
            .build()
            .unwrap();
        assert_eq!(engine.epoch(), 1);
        // A delta confined to the low key range must rebuild only the
        // shard(s) it routes to; the rest carry their files forward.
        let before: BTreeSet<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter_map(|e| parse_numbered(e.file_name().to_str()?, "shard-g", ".cobt"))
            .collect();
        engine.insert(1);
        engine.remove(3);
        assert!(engine.flush().unwrap());
        assert_eq!(engine.epoch(), 2);
        let after: BTreeSet<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter_map(|e| parse_numbered(e.file_name().to_str()?, "shard-g", ".cobt"))
            .collect();
        let carried = before.intersection(&after).count();
        assert!(
            carried >= 3,
            "low-range delta must carry the untouched shards ({before:?} -> {after:?})"
        );
        drop(engine);

        let reopened = TieredForest::<u64>::open(&dir).unwrap();
        assert_eq!(reopened.epoch(), 2);
        assert_eq!(reopened.len(), 400);
        assert!(reopened.contains(1) && !reopened.contains(3) && reopened.contains(6));
        // Full compaction rebalances into cfg.shards slots and drops
        // the carried generations.
        reopened.insert(2);
        assert!(reopened.compact().unwrap());
        assert_eq!(reopened.len(), 401);
        assert!(matches!(
            reopened.locate(2).unwrap().place,
            TierPlace::Shard { .. }
        ));
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn draining_every_key_survives_reopen() {
        let dir = temp_dir("drain");
        let engine = TieredForest::<u64>::builder()
            .shards(2)
            .keys(1..=50u64)
            .path(&dir)
            .build()
            .unwrap();
        for k in 1..=50u64 {
            assert!(engine.remove(k));
        }
        assert!(engine.flush().unwrap());
        assert!(engine.is_empty());
        drop(engine);
        let reopened = TieredForest::<u64>::open(&dir).unwrap();
        assert!(reopened.is_empty(), "a drained store reopens empty");
        assert_eq!(reopened.select(1), None);
        reopened.insert(7);
        assert!(reopened.flush().unwrap());
        assert_eq!(reopened.len(), 1);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_crossing_triggers_inline_compaction() {
        let engine = TieredForest::<u64>::builder()
            .memtable_entries(8)
            .build()
            .unwrap();
        for k in 0..40u64 {
            engine.insert(k * 2);
        }
        assert!(engine.epoch() > 0, "budget crossings compacted inline");
        assert!(engine.buffered() <= 9);
        assert_eq!(engine.len(), 40);
        assert_eq!(engine.take_compaction_error(), None);
    }

    #[test]
    fn background_worker_compacts_and_readers_race_safely() {
        let engine = TieredForest::<u64>::builder()
            .memtable_entries(64)
            .background(true)
            .build()
            .unwrap();
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                // Hammer snapshots while the writer churns; every scan
                // must be strictly ascending and internally consistent.
                for _ in 0..200 {
                    let snap = engine.snapshot();
                    let scanned: Vec<u64> = snap.iter().collect();
                    assert!(scanned.windows(2).all(|w| w[0] < w[1]));
                    assert_eq!(scanned.len() as u64, snap.len());
                }
            });
            for k in 0..4000u64 {
                engine.insert(k);
                if k % 5 == 4 {
                    engine.remove(k - 2);
                }
            }
            reader.join().unwrap();
        });
        // Settle: force any stragglers through, then check the sum.
        engine.flush().unwrap();
        assert_eq!(engine.take_compaction_error(), None);
        assert_eq!(engine.len(), 4000 - 4000 / 5);
        assert!(engine.flushes() > 0, "the worker compacted at least once");
    }

    #[test]
    fn failed_flush_keeps_writes_queued_for_retry() {
        let dir = temp_dir("retry");
        let engine = TieredForest::<u64>::builder()
            .shards(1)
            .keys(1..=20u64)
            .path(&dir)
            .build()
            .unwrap();
        engine.insert(100);
        engine.remove(1);
        let err = engine.flush_with_failpoint(0, true).unwrap_err();
        assert!(matches!(err, Error::Io { .. }));
        assert_eq!(engine.epoch(), 1, "failed publish must not advance");
        // The acknowledged writes are still served and still flushable.
        assert!(engine.contains(100) && !engine.contains(1));
        engine.insert(101);
        assert!(engine.flush().unwrap());
        assert_eq!(engine.epoch(), 2);
        drop(engine);
        let reopened = TieredForest::<u64>::open(&dir).unwrap();
        assert_eq!(reopened.len(), 21);
        assert!(reopened.contains(100) && reopened.contains(101) && !reopened.contains(1));
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn full_plan_is_the_even_split_of_the_merged_live_set() {
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        let split = |plans: Vec<ShardPlan<u64>>| -> Vec<Vec<u64>> {
            plans
                .into_iter()
                .map(|plan| match plan {
                    ShardPlan::Build { keys } => keys,
                    ShardPlan::Carry { .. } => panic!("a full plan carries no shard"),
                })
                .collect()
        };
        let even = |merged: &[u64], shards: usize| -> Vec<Vec<u64>> {
            let n = merged.len();
            (0..shards)
                .map(|s| merged[s * n / shards..(s + 1) * n / shards].to_vec())
                .collect()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
        for round in 0..60 {
            // A base inside [1000, 2000); inserts below, inside and above
            // it, never on a base key; tombstones a random share of it
            // (none up to all).
            let base_keys: BTreeSet<u64> = (0..rng.random_range(1..400usize))
                .map(|_| rng.random_range(1_000..2_000u64))
                .collect();
            let base = Forest::builder()
                .shards(rng.random_range(1..6usize))
                .keys(base_keys.iter().copied())
                .build()
                .unwrap();
            let inserts: BTreeSet<u64> = (0..rng.random_range(0..300usize))
                .map(|_| rng.random_range(0..3_000u64))
                .filter(|k| !base_keys.contains(k))
                .collect();
            let share = rng.random_range(0..=4u32);
            let tombstones: Vec<u64> = base_keys
                .iter()
                .copied()
                .filter(|_| rng.random_range(0..4u32) < share)
                .collect();
            let frozen = Memtable {
                inserts: inserts.into_iter().collect(),
                tombstones,
            };
            let merged = merged_live(Some(&base), &frozen);
            // More shards than keys leaves some slots empty.
            for shards in [1, 3, 8, merged.len() + 5] {
                let cfg = TieredConfig {
                    shards,
                    ..TieredConfig::default()
                };
                let plans = plan_shards(&cfg, Some(&base), &[], &frozen, FlushMode::Full);
                assert_eq!(
                    split(plans),
                    even(&merged, shards),
                    "round {round}, {shards} shards"
                );
            }
            // No base, as at a seeded boot: the inserts alone.
            let seed = Memtable {
                inserts: frozen.inserts,
                tombstones: Vec::new(),
            };
            let plans = plan_shards(&TieredConfig::default(), None, &[], &seed, FlushMode::Full);
            assert_eq!(split(plans), even(&seed.inserts, 4), "round {round}");
        }
    }

    #[test]
    fn shard_images_reach_the_writer_in_order_and_stop_at_the_first_error() {
        // Odd key sets build far slower than even ones, so on more than
        // one core later images are often ready before earlier ones.
        let key_sets: Vec<Vec<u64>> = (0..9u64)
            .map(|i| {
                let len = if i % 2 == 1 { 100_000 } else { 20_000 + 29 * i };
                (1..=len).map(|k| k * 3 + i).collect()
            })
            .collect();
        let expect: Vec<Vec<u8>> = key_sets
            .iter()
            .map(|keys| {
                SearchTree::builder()
                    .layout(NamedLayout::MinWep)
                    .storage(Storage::Implicit)
                    .keys(keys.iter().copied())
                    .build()
                    .and_then(|tree| tree.encode(&SaveOptions::new()))
                    .unwrap()
            })
            .collect();
        let mut seen = Vec::new();
        write_shard_images(NamedLayout::MinWep, key_sets.clone(), |i, bytes| {
            seen.push((i, bytes.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, expect.into_iter().enumerate().collect::<Vec<_>>());

        // A failing build: the images before it are written, none after.
        let mut bad = key_sets.clone();
        bad[3].swap(0, 1);
        let mut written = Vec::new();
        let err = write_shard_images(NamedLayout::MinWep, bad, |i, _| {
            written.push(i);
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, Error::UnsortedKeys { index: 0 }), "{err}");
        assert_eq!(written, [0, 1, 2]);

        // A failing write is returned as is, and nothing follows it.
        let mut written = Vec::new();
        let err = write_shard_images(NamedLayout::MinWep, key_sets, |i, _| {
            written.push(i);
            if i == 4 {
                Err(Error::EmptyKeys)
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert!(matches!(err, Error::EmptyKeys), "{err}");
        assert_eq!(written, [0, 1, 2, 3, 4]);
    }
}
