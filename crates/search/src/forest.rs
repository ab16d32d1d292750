//! The sharded serving engine: a [`Forest`] of per-shard
//! [`SearchTree`]s behind one ordered-map API, with a concurrent read
//! path.
//!
//! The paper's layouts make a *single* static tree cheap to serve; a
//! serving engine additionally needs to scale across cores and across
//! memory — Alstrup et al.'s multilevel hierarchies and the "Everything
//! Beats std::set" measurements both show the layout win only
//! materializes under realistic high-throughput workloads. This module
//! supplies the substrate:
//!
//! * a [`Forest`] **range-partitions** a sorted key set across `N`
//!   shards, each an independent `SearchTree` (any layout × storage —
//!   including [`Storage::Mapped`], one `.cobt` file per shard plus a
//!   small manifest, see [`Forest::save`] / [`Forest::open`]);
//! * a [`ShardRouter`] — a binary search over the shards' *fence keys*
//!   (each shard's smallest key) — sends every point probe to exactly
//!   one shard, and splits sorted probe batches into per-shard
//!   sub-batches ([`Forest::search_sorted_batch`]);
//! * global **rank/select** arithmetic rides on per-shard prefix key
//!   counts: a key's forest-wide in-order rank is the number of keys in
//!   the shards before it plus its in-shard rank, so
//!   [`Forest::rank`]/[`Forest::select`] and the stitched
//!   [`ForestRange`]/[`ForestCursor`] answer exactly what one unsharded
//!   tree over the same keys would answer;
//! * the read path is **concurrent**: every storage backend is
//!   `Send + Sync` (asserted at compile time below), so
//!   [`Forest::par_search_batch`] and [`Forest::par_range`] fan the
//!   per-shard work out over a scoped thread pool with no locks — the
//!   shards are immutable, threads only share `&Forest`.
//!
//! ```
//! use cobtree_search::Forest;
//! use cobtree_core::NamedLayout;
//!
//! let forest = Forest::builder()
//!     .layout(NamedLayout::MinWep)
//!     .shards(4)
//!     .keys((1..=10_000u64).map(|k| k * 3))
//!     .build()?;
//! assert_eq!(forest.len(), 10_000);
//! assert!(forest.contains(30) && !forest.contains(31));
//! // Global rank/select agree with one unsharded tree over the keys.
//! assert_eq!(forest.rank(31), 10);
//! assert_eq!(forest.select(10), Some(30));
//! // Ranges stitch across shard fences transparently.
//! let window: Vec<u64> = forest.range(25u64..=40).collect();
//! assert_eq!(window, vec![27, 30, 33, 36, 39]);
//! # Ok::<(), cobtree_core::Error>(())
//! ```

use crate::backend::SearchBackend;
use crate::cursor::Range;
use crate::facade::{LayoutSource, SaveOptions, SearchTree, Storage};
use cobtree_core::error::{check_sorted_keys, Error, Result};
use cobtree_core::format::{self, FixedKey, ShardManifest};
use cobtree_core::io::{RealIo, StorageIo};
use cobtree_core::NamedLayout;
use cobtree_core::ObservedProfile;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// File name of the forest manifest inside a saved forest directory.
pub const MANIFEST_FILE: &str = "forest.cobf";

/// File name of the shard tree for partition slot `slot` inside a saved
/// forest directory.
#[must_use]
pub fn shard_file_name(slot: usize) -> String {
    format!("shard-{slot:04}.cobt")
}

// Compile-time concurrency audit: the whole read path is shared across
// threads by reference, so every storage backend — and the facade and
// forest over them — must be `Send + Sync`. A backend gaining interior
// mutability would fail this function's bounds, not a test at runtime.
#[allow(dead_code)]
fn assert_read_path_is_shareable() {
    fn shareable<T: Send + Sync>() {}
    shareable::<crate::explicit::ExplicitTree<u64>>();
    shareable::<crate::implicit::ImplicitTree<u64>>();
    shareable::<crate::index_only::IndexOnlyTree<u64>>();
    shareable::<crate::mapped::MappedTree<u64>>();
    shareable::<SearchTree<u64>>();
    shareable::<Forest<u64>>();
}

/// Sums, for every probe found in `backend`, the probe's 1-based
/// in-order rank (wrapping) — the storage- and shard-independent
/// benchmark kernel. Unlike `search_batch_checksum` (which sums layout
/// positions and therefore differs between a sharded forest and one big
/// tree), rank checksums are a pure function of the key set, so
/// [`Forest::rank_checksum`] over any partitioning must equal this over
/// the unsharded tree — the acceptance check the forest tests enforce.
#[must_use]
pub fn rank_checksum<K: Copy + Ord>(backend: &dyn SearchBackend<K>, probes: &[K]) -> u64 {
    let mut acc = 0u64;
    for &k in probes {
        let lb = backend.lower_bound_rank(k);
        if backend.key_at_rank(lb) == Some(k) {
            acc = acc.wrapping_add(lb);
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

/// Routes keys to shards by binary search over *fence keys* — each
/// (non-empty) shard's smallest key, in ascending shard order.
///
/// Routing is exact for point probes: a probe `k` belongs to the last
/// shard whose fence is `<= k` (no shard, when `k` sorts below every
/// fence — then no shard can contain it). For ordered queries the same
/// rule is *rank-correct*: a lower-bound miss at the routed shard's
/// right edge lands on the next shard's fence rank, because fences are
/// the partition boundaries.
#[derive(Debug, Clone)]
pub struct ShardRouter<K> {
    fences: Vec<K>,
}

impl<K: Copy + Ord> ShardRouter<K> {
    /// Builds a router from ascending fence keys (one per shard).
    fn new(fences: Vec<K>) -> Self {
        debug_assert!(fences.windows(2).all(|w| w[0] < w[1]));
        Self { fences }
    }

    /// The fence keys, ascending (one per non-empty shard).
    #[must_use]
    pub fn fences(&self) -> &[K] {
        &self.fences
    }

    /// Index of the shard responsible for `key`, or `None` when `key`
    /// sorts below every fence (no shard can contain it).
    #[must_use]
    pub fn route(&self, key: K) -> Option<usize> {
        match self.fences.partition_point(|&f| f <= key) {
            0 => None,
            i => Some(i - 1),
        }
    }

    /// Splits an ascending probe slice at the fences: `cuts[i]` is the
    /// index of the first probe belonging to shard `i` (probes before
    /// `cuts[0]` sort below every fence), `cuts[len]` is `keys.len()`.
    #[must_use]
    pub fn split_sorted(&self, keys: &[K]) -> Vec<usize> {
        let mut cuts = Vec::with_capacity(self.fences.len() + 1);
        for &f in &self.fences {
            cuts.push(keys.partition_point(|&k| k < f));
        }
        cuts.push(keys.len());
        cuts
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Configures and builds a [`Forest`]. Created by [`Forest::builder`].
pub struct ForestBuilder<K> {
    source: LayoutSource,
    storage: Storage,
    shards: usize,
    keys: Vec<K>,
}

impl<K: Ord + Copy> Default for ForestBuilder<K> {
    fn default() -> Self {
        Self {
            source: LayoutSource::Named(NamedLayout::MinWep),
            storage: Storage::Explicit,
            shards: 4,
            keys: Vec::new(),
        }
    }
}

impl<K: Ord + Copy> ForestBuilder<K> {
    /// Chooses the per-shard layout (default: MINWEP). Every shard uses
    /// the same source, resolved at its own height.
    #[must_use]
    pub fn layout(mut self, source: impl Into<LayoutSource>) -> Self {
        self.source = source.into();
        self
    }

    /// Chooses the per-shard storage backend (default: explicit).
    /// [`Storage::Mapped`] forests are opened from a saved directory
    /// ([`Forest::open`]), not built from keys.
    #[must_use]
    pub fn storage(mut self, storage: Storage) -> Self {
        self.storage = storage;
        self
    }

    /// Number of range partitions (default: 4). Slots that receive no
    /// keys (more shards than keys) stay empty and answer nothing.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the key set (must end up non-empty and strictly ascending;
    /// validated by [`ForestBuilder::build`]).
    #[must_use]
    pub fn keys(mut self, keys: impl IntoIterator<Item = K>) -> Self {
        self.keys = keys.into_iter().collect();
        self
    }

    /// Validates the configuration, range-partitions the keys and
    /// builds one [`SearchTree`] per non-empty slot.
    ///
    /// # Errors
    /// [`Error::Malformed`] for zero shards,
    /// [`Error::MappedStorageRequiresFile`] for mapped storage, plus
    /// every per-shard [`SearchTreeBuilder::build`](crate::SearchTreeBuilder::build) error
    /// (`EmptyKeys`/`UnsortedKeys`/`TooManyKeys`/…).
    pub fn build(self) -> Result<Forest<K>> {
        if self.shards == 0 {
            return Err(Error::Malformed {
                detail: "a forest needs at least one shard".into(),
            });
        }
        if self.storage == Storage::Mapped {
            return Err(Error::MappedStorageRequiresFile);
        }
        check_sorted_keys(&self.keys)?;
        let n = self.keys.len();
        let slots = self.shards;
        let mut counts_by_slot = vec![0u64; slots];
        let mut trees = Vec::new();
        let mut slot_of = Vec::new();
        for (slot, count) in counts_by_slot.iter_mut().enumerate() {
            // Even range partition: slot `i` gets keys[i·n/N .. (i+1)·n/N].
            let lo = slot * n / slots;
            let hi = (slot + 1) * n / slots;
            *count = (hi - lo) as u64;
            if lo == hi {
                continue;
            }
            let tree = SearchTree::builder()
                .layout(self.source.clone())
                .storage(self.storage)
                .keys(self.keys[lo..hi].iter().copied())
                .build()?;
            trees.push(tree);
            slot_of.push(slot);
        }
        Forest::assemble(self.storage, slots, counts_by_slot, trees, slot_of)
    }
}

// ---------------------------------------------------------------------------
// Forest
// ---------------------------------------------------------------------------

/// What one scrub step ([`Forest::scrub_step`]) observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Dense shards the step examined (budget consumed).
    pub scanned: usize,
    /// Shards skipped — already quarantined or without a backing file.
    pub skipped: usize,
    /// Dense indices newly quarantined by this step.
    pub newly_quarantined: Vec<usize>,
    /// Whether this step completed a full cycle over all shards.
    pub completed_pass: bool,
}

impl ScrubReport {
    /// Folds another step's observations into this report.
    pub fn merge(&mut self, other: ScrubReport) {
        self.scanned += other.scanned;
        self.skipped += other.skipped;
        self.newly_quarantined.extend(other.newly_quarantined);
        self.completed_pass |= other.completed_pass;
    }
}

/// Where a found key lives inside a [`Forest`]: which shard, the layout
/// position inside that shard's tree, and the forest-wide in-order
/// rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestHit {
    /// Dense shard index (into [`Forest::shards`] iteration order).
    pub shard: usize,
    /// Partition slot the shard occupies (differs from `shard` only
    /// when earlier slots are empty).
    pub slot: usize,
    /// 0-based layout position inside the shard's tree.
    pub position: u64,
    /// 1-based forest-wide in-order rank of the key.
    pub rank: u64,
}

/// A sharded, read-optimized serving engine: `N` range-partitioned
/// [`SearchTree`] shards behind the full ordered-map API, with a
/// scoped-thread-pool concurrent read path. Built by
/// [`Forest::builder`], or opened from a saved directory (one `.cobt`
/// file per shard plus a manifest) by [`Forest::open`].
pub struct Forest<K> {
    storage: Storage,
    layout_label: String,
    /// Requested partition slot count, empty slots included.
    slots: usize,
    /// Keys per partition slot (zeros mark empty slots).
    counts_by_slot: Vec<u64>,
    /// The non-empty shard trees, in ascending key order. Each shard is
    /// reference-counted so a re-optimized forest
    /// ([`Forest::with_swapped_shard`]) shares the unchanged shards
    /// with its predecessor instead of copying them.
    trees: Vec<Arc<SearchTree<K>>>,
    /// Partition slot of each tree in `trees`.
    slot_of: Vec<usize>,
    router: ShardRouter<K>,
    /// `prefix[i]` = keys held by `trees[..i]`; `prefix[trees.len()]`
    /// is the total — the translation table between forest-wide ranks
    /// and (shard, in-shard rank) pairs.
    prefix: Vec<u64>,
    /// Per-dense-shard health flag: 0 = healthy, 1 = quarantined.
    /// Atomic because quarantine is declared through shared `Arc`
    /// handles (the scrubber and the read path race benignly).
    health: Vec<AtomicU8>,
    /// On-disk file backing each dense shard — what the scrubber
    /// re-reads. `None` for shards without a file (in-memory builds).
    shard_paths: Vec<Option<PathBuf>>,
    /// Completed scrub cycles over all shards.
    scrub_passes: AtomicU64,
    /// Next dense shard the paced scrubber will examine.
    scrub_cursor: AtomicUsize,
}

impl<K: Ord + Copy> Forest<K> {
    /// Starts a builder with the defaults (MINWEP layout, explicit
    /// storage, 4 shards, no keys).
    #[must_use]
    pub fn builder() -> ForestBuilder<K> {
        ForestBuilder::default()
    }

    /// Crate-internal constructor from pre-built shard trees — shared
    /// by the builder, [`Forest::open`] and the tiered engine's
    /// compaction publisher ([`crate::tiered`]).
    pub(crate) fn assemble(
        storage: Storage,
        slots: usize,
        counts_by_slot: Vec<u64>,
        trees: Vec<SearchTree<K>>,
        slot_of: Vec<usize>,
    ) -> Result<Self> {
        Self::assemble_arcs(
            storage,
            slots,
            counts_by_slot,
            trees.into_iter().map(Arc::new).collect(),
            slot_of,
        )
    }

    /// [`Forest::assemble`] from already reference-counted shards —
    /// the shard-swap path ([`Forest::with_swapped_shard`]) re-assembles
    /// here so unchanged shards are shared, not rebuilt.
    pub(crate) fn assemble_arcs(
        storage: Storage,
        slots: usize,
        counts_by_slot: Vec<u64>,
        trees: Vec<Arc<SearchTree<K>>>,
        slot_of: Vec<usize>,
    ) -> Result<Self> {
        debug_assert_eq!(trees.len(), slot_of.len());
        let mut fences = Vec::with_capacity(trees.len());
        let mut prefix = Vec::with_capacity(trees.len() + 1);
        prefix.push(0);
        for tree in &trees {
            fences.push(tree.select(1).expect("shard trees are non-empty"));
            prefix.push(prefix.last().expect("seeded") + tree.len());
        }
        if fences.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Error::Malformed {
                detail: "shard fences are not strictly ascending".into(),
            });
        }
        let layout_label = trees
            .first()
            .map(|t| t.layout_label().to_string())
            .unwrap_or_default();
        let dense = trees.len();
        Ok(Self {
            storage,
            layout_label,
            slots,
            counts_by_slot,
            trees,
            slot_of,
            router: ShardRouter::new(fences),
            prefix,
            health: (0..dense).map(|_| AtomicU8::new(0)).collect(),
            shard_paths: vec![None; dense],
            scrub_passes: AtomicU64::new(0),
            scrub_cursor: AtomicUsize::new(0),
        })
    }

    /// Total number of stored keys across all shards.
    #[must_use]
    pub fn len(&self) -> u64 {
        *self.prefix.last().expect("prefix is seeded with 0")
    }

    /// `false`; building (and opening) requires at least one key.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Requested partition slot count, empty slots included.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.slots
    }

    /// Number of non-empty shards actually holding trees.
    #[must_use]
    pub fn active_shards(&self) -> usize {
        self.trees.len()
    }

    /// The per-shard storage backend in use.
    #[must_use]
    pub fn storage(&self) -> Storage {
        self.storage
    }

    /// Human-readable layout description (shared by every shard).
    #[must_use]
    pub fn layout_label(&self) -> &str {
        &self.layout_label
    }

    /// The fence router.
    #[must_use]
    pub fn router(&self) -> &ShardRouter<K> {
        &self.router
    }

    /// The non-empty shard trees, in ascending key order.
    pub fn shards(&self) -> impl ExactSizeIterator<Item = &SearchTree<K>> {
        self.trees.iter().map(AsRef::as_ref)
    }

    /// The `shard`-th non-empty shard tree (dense index).
    #[must_use]
    pub fn shard(&self, shard: usize) -> Option<&SearchTree<K>> {
        self.trees.get(shard).map(AsRef::as_ref)
    }

    /// Partition slot occupied by the `shard`-th non-empty tree (dense
    /// index) — the slot names the on-disk file ([`shard_file_name`]).
    #[must_use]
    pub fn slot_of(&self, shard: usize) -> Option<usize> {
        self.slot_of.get(shard).copied()
    }

    /// The `shard`-th non-empty shard tree as a shared handle (dense
    /// index) — the currency of [`Forest::with_swapped_shard`] and the
    /// adaptive engine ([`crate::adaptive`]).
    #[must_use]
    pub fn shard_arc(&self, shard: usize) -> Option<Arc<SearchTree<K>>> {
        self.trees.get(shard).cloned()
    }

    /// Number of keys stored in shards before dense shard `shard`, i.e.
    /// the offset that turns an in-shard 1-based rank into the
    /// forest-wide rank [`Forest::locate`] reports (and back).
    #[must_use]
    pub fn rank_base(&self, shard: usize) -> Option<u64> {
        (shard < self.trees.len()).then(|| self.prefix[shard])
    }

    // -----------------------------------------------------------------
    // Shard health: quarantine + scrubbing
    // -----------------------------------------------------------------

    /// Whether dense shard `shard` is quarantined (failed a scrub or a
    /// read-path integrity check and is not serving until healed).
    #[must_use]
    pub fn is_quarantined(&self, shard: usize) -> bool {
        self.health
            .get(shard)
            .is_some_and(|h| h.load(Ordering::SeqCst) != 0)
    }

    /// Quarantines dense shard `shard`: its key range answers
    /// [`Error::ShardUnavailable`] from [`Forest::check_available`]
    /// until a flush rebuild (tiered engines) or re-open heals it.
    /// Returns `true` when this call transitioned the shard from
    /// healthy, `false` when it was already quarantined (or the index
    /// is out of range).
    pub fn quarantine(&self, shard: usize) -> bool {
        self.health
            .get(shard)
            .is_some_and(|h| h.swap(1, Ordering::SeqCst) == 0)
    }

    /// Number of currently quarantined shards.
    #[must_use]
    pub fn quarantined_count(&self) -> usize {
        self.health
            .iter()
            .filter(|h| h.load(Ordering::SeqCst) != 0)
            .count()
    }

    /// Dense indices of every quarantined shard, ascending.
    #[must_use]
    pub fn quarantined_shards(&self) -> Vec<usize> {
        (0..self.trees.len())
            .filter(|&i| self.is_quarantined(i))
            .collect()
    }

    /// Completed full scrub cycles over this forest's shards.
    #[must_use]
    pub fn scrub_passes(&self) -> u64 {
        self.scrub_passes.load(Ordering::SeqCst)
    }

    /// Verifies that `key`'s owning shard is serving.
    ///
    /// # Errors
    /// [`Error::ShardUnavailable`] when the shard that owns `key`'s
    /// range is quarantined. Keys below every fence (which no shard
    /// owns) are always "available" — they answer misses.
    pub fn check_available(&self, key: K) -> Result<()> {
        match self.router.route(key) {
            Some(shard) if self.is_quarantined(shard) => Err(Error::ShardUnavailable {
                shard: u32::try_from(shard).unwrap_or(u32::MAX),
            }),
            _ => Ok(()),
        }
    }

    /// One paced scrub step: re-reads up to `budget` shard files
    /// (0 = all of them) through `io`, re-validating the full `.cobt`
    /// container — header checksum, content checksum, geometry — and
    /// quarantining any shard whose bytes no longer verify. The cursor
    /// persists across calls, so repeated small-budget calls cycle the
    /// whole forest; each completed cycle counts one scrub pass.
    /// Shards without a backing file (in-memory builds) and shards
    /// already quarantined are skipped but still consume budget.
    pub fn scrub_step(&self, io: &dyn StorageIo, budget: usize) -> ScrubReport {
        let total = self.trees.len();
        let limit = if budget == 0 {
            total
        } else {
            budget.min(total)
        };
        let start = self.scrub_cursor.load(Ordering::SeqCst) % total.max(1);
        let mut report = ScrubReport::default();
        for step in 0..limit {
            let shard = (start + step) % total;
            report.scanned += 1;
            if self.is_quarantined(shard) {
                report.skipped += 1;
                continue;
            }
            let Some(path) = self.shard_paths.get(shard).and_then(Option::as_ref) else {
                report.skipped += 1;
                continue;
            };
            let verified = io
                .read(path)
                .and_then(|bytes| format::parse(&bytes).map(|_| ()));
            if verified.is_err() && self.quarantine(shard) {
                report.newly_quarantined.push(shard);
            }
        }
        self.scrub_cursor
            .store((start + limit) % total.max(1), Ordering::SeqCst);
        if start + limit >= total {
            self.scrub_passes.fetch_add(1, Ordering::SeqCst);
            report.completed_pass = true;
        }
        report
    }

    /// Installs the backing-file paths the scrubber re-reads (one per
    /// dense shard) — called by the open/publish paths that know them.
    pub(crate) fn set_shard_paths(&mut self, paths: Vec<Option<PathBuf>>) {
        debug_assert_eq!(paths.len(), self.trees.len());
        self.shard_paths = paths;
    }

    /// A new forest identical to this one except that dense shard
    /// `shard` is replaced by `tree` — the unchanged shards are
    /// *shared* (reference-counted), so the swap is O(shards), not
    /// O(keys). The replacement must hold exactly the keys the old
    /// shard held (validated cheaply by count and both endpoints, which
    /// also pins the fences, so the router and every forest-wide rank
    /// are unchanged); layout and storage are free to differ — that is
    /// the point.
    ///
    /// # Errors
    /// [`Error::Malformed`] for an out-of-range shard index or a
    /// replacement tree whose key count or endpoints differ from the
    /// shard it replaces.
    pub fn with_swapped_shard(&self, shard: usize, tree: Arc<SearchTree<K>>) -> Result<Self> {
        let Some(old) = self.trees.get(shard) else {
            return Err(Error::Malformed {
                detail: format!("no dense shard {shard} to swap"),
            });
        };
        if tree.len() != old.len()
            || tree.select(1) != old.select(1)
            || tree.select(tree.len()) != old.select(old.len())
        {
            return Err(Error::Malformed {
                detail: "replacement shard must hold the same keys".into(),
            });
        }
        let mut trees = self.trees.clone();
        trees[shard] = tree;
        let mut next = Self::assemble_arcs(
            self.storage,
            self.slots,
            self.counts_by_slot.clone(),
            trees,
            self.slot_of.clone(),
        )?;
        // Health and backing-file bookkeeping carries over, except for
        // the swapped shard itself: its replacement is a fresh in-memory
        // tree (no file until the next save) and definitionally healthy.
        next.shard_paths = self.shard_paths.clone();
        next.shard_paths[shard] = None;
        for (i, h) in self.health.iter().enumerate() {
            if i != shard && h.load(Ordering::SeqCst) != 0 {
                next.health[i].store(1, Ordering::SeqCst);
            }
        }
        Ok(next)
    }

    /// Routes `key` to its shard: the dense index and tree of the only
    /// shard that can contain it, or `None` when `key` sorts below
    /// every fence.
    #[must_use]
    pub fn route(&self, key: K) -> Option<(usize, &SearchTree<K>)> {
        self.router.route(key).map(|i| (i, self.trees[i].as_ref()))
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, key: K) -> bool {
        match self.route(key) {
            Some((_, tree)) => tree.contains(key),
            None => false,
        }
    }

    /// Finds `key` and reports where it lives — shard, in-shard layout
    /// position and forest-wide rank — in a single descent.
    #[must_use]
    pub fn locate(&self, key: K) -> Option<ForestHit> {
        let (shard, tree) = self.route(key)?;
        let lb = SearchBackend::lower_bound_rank(tree, key);
        if SearchBackend::key_at_rank(tree, lb) != Some(key) {
            return None;
        }
        let position = SearchBackend::position_of_rank(tree, lb).expect("stored rank has a node");
        Some(ForestHit {
            shard,
            slot: self.slot_of[shard],
            position,
            rank: self.prefix[shard] + lb,
        })
    }

    /// Forest-wide 1-based in-order rank of the first stored key
    /// `>= key`, or `len() + 1` when every key is smaller. Equals what
    /// one unsharded tree over the same keys would answer.
    #[must_use]
    pub fn lower_bound_rank(&self, key: K) -> u64 {
        match self.route(key) {
            // A lower-bound miss past the routed shard's last key lands
            // exactly on the next shard's fence rank.
            Some((i, tree)) => self.prefix[i] + SearchBackend::lower_bound_rank(tree, key),
            None => 1,
        }
    }

    /// Forest-wide 1-based rank of the first stored key `> key`, or
    /// `len() + 1` when none is larger.
    #[must_use]
    pub fn upper_bound_rank(&self, key: K) -> u64 {
        match self.route(key) {
            Some((i, tree)) => self.prefix[i] + SearchBackend::upper_bound_rank(tree, key),
            None => 1,
        }
    }

    /// Number of stored keys strictly less than `key`.
    #[must_use]
    pub fn rank(&self, key: K) -> u64 {
        self.lower_bound_rank(key) - 1
    }

    /// The `rank`-th smallest stored key (1-based, forest-wide);
    /// `None` outside `1..=len`.
    #[must_use]
    pub fn select(&self, rank: u64) -> Option<K> {
        let (shard, local) = self.rank_to_shard(rank)?;
        self.trees[shard].select(local)
    }

    /// Smallest stored key `>= key` (`key` itself when present).
    #[must_use]
    pub fn lower_bound(&self, key: K) -> Option<K> {
        self.select(self.lower_bound_rank(key))
    }

    /// Smallest stored key `> key` — the in-order successor.
    #[must_use]
    pub fn upper_bound(&self, key: K) -> Option<K> {
        self.select(self.upper_bound_rank(key))
    }

    /// Largest stored key `< key` — the in-order predecessor.
    #[must_use]
    pub fn predecessor(&self, key: K) -> Option<K> {
        match self.rank(key) {
            0 => None,
            r => self.select(r),
        }
    }

    /// Alias for [`Forest::upper_bound`]: the in-order successor.
    #[must_use]
    pub fn successor(&self, key: K) -> Option<K> {
        self.upper_bound(key)
    }

    /// Translates a forest-wide rank into `(dense shard, local rank)`.
    fn rank_to_shard(&self, rank: u64) -> Option<(usize, u64)> {
        if rank < 1 || rank > self.len() {
            return None;
        }
        let shard = self.prefix.partition_point(|&p| p < rank) - 1;
        Some((shard, rank - self.prefix[shard]))
    }

    /// The per-shard local rank windows covering the forest-wide rank
    /// interval `lo..=hi`, as `(dense shard, local lo, local hi)`
    /// triples — the stitching table behind [`ForestRange`] and the
    /// cache-replay scan drivers.
    #[must_use]
    pub fn rank_windows(&self, lo: u64, hi: u64) -> Vec<(usize, u64, u64)> {
        let lo = lo.max(1);
        let hi = hi.min(self.len());
        let mut windows = Vec::new();
        if lo > hi {
            return windows;
        }
        for i in 0..self.trees.len() {
            let glo = self.prefix[i] + 1;
            let ghi = self.prefix[i + 1];
            if ghi < lo || glo > hi {
                continue;
            }
            windows.push((
                i,
                lo.max(glo) - self.prefix[i],
                hi.min(ghi) - self.prefix[i],
            ));
        }
        windows
    }

    /// The stored keys whose forest-wide ranks fall in `lo..=hi`
    /// (1-based, clamped), ascending — one per-shard [`Range`] segment
    /// per crossed fence, stitched.
    #[must_use]
    pub fn range_by_rank(&self, lo: u64, hi: u64) -> ForestRange<'_, K> {
        let segments = self
            .rank_windows(lo, hi)
            .into_iter()
            .map(|(i, llo, lhi)| Range::from_ranks(self.trees[i].as_ref(), llo, lhi))
            .collect();
        ForestRange { segments }
    }

    /// Translates key `bounds` into the forest-wide rank window
    /// `lo..=hi` they cover — the one place the `RangeBounds` → rank
    /// conversion lives, shared by [`Forest::range`] and
    /// [`Forest::par_range`] so the two cannot drift.
    fn bounds_to_ranks(&self, bounds: impl std::ops::RangeBounds<K>) -> (u64, u64) {
        use std::ops::Bound;
        let lo = match bounds.start_bound() {
            Bound::Unbounded => 1,
            Bound::Included(&a) => self.lower_bound_rank(a),
            Bound::Excluded(&a) => self.upper_bound_rank(a),
        };
        let hi = match bounds.end_bound() {
            Bound::Unbounded => self.len(),
            Bound::Included(&b) => self.upper_bound_rank(b) - 1,
            Bound::Excluded(&b) => self.lower_bound_rank(b) - 1,
        };
        (lo, hi)
    }

    /// The stored keys within `bounds`, ascending —
    /// `BTreeSet::range` over the whole forest, stitching per-shard
    /// range segments across fences.
    pub fn range(&self, bounds: impl std::ops::RangeBounds<K>) -> ForestRange<'_, K> {
        let (lo, hi) = self.bounds_to_ranks(bounds);
        self.range_by_rank(lo, hi)
    }

    /// Ascending iterator over all stored keys.
    #[must_use]
    pub fn iter(&self) -> ForestRange<'_, K> {
        self.range_by_rank(1, self.len())
    }

    /// A [`ForestCursor`] positioned before the first key.
    #[must_use]
    pub fn cursor(&self) -> ForestCursor<'_, K> {
        ForestCursor {
            forest: self,
            rank: 0,
            shard: 0,
            local: 0,
        }
    }

    /// Sums the forest-wide rank of every found probe (wrapping) — see
    /// [`rank_checksum`]. Equal to the unsharded tree's value for any
    /// shard count, which is exactly what the parity tests assert.
    #[must_use]
    pub fn rank_checksum(&self, probes: &[K]) -> u64 {
        let mut acc = 0u64;
        for &k in probes {
            if let Some(hit) = self.locate(k) {
                acc = acc.wrapping_add(hit.rank);
            }
        }
        acc
    }

    /// Validates that `keys` is ascending, then splits it at the shard
    /// fences: `(dense shard, probe index range)` pairs, ascending and
    /// non-empty, covering every probe some shard could contain. Probes
    /// sorting below every fence are absent from the result. The ranges
    /// index `keys` itself, so a caller that descends the runs somewhere
    /// else (another thread, another worker) can put each run's answers
    /// back in probe order.
    ///
    /// # Errors
    /// [`Error::UnsortedBatch`] on a descending adjacent probe pair.
    pub fn shard_cuts(&self, keys: &[K]) -> Result<Vec<(usize, std::ops::Range<usize>)>> {
        if let Some(i) = keys.windows(2).position(|w| w[0] > w[1]) {
            return Err(Error::UnsortedBatch { index: i });
        }
        let cuts = self.router.split_sorted(keys);
        let mut jobs = Vec::new();
        for i in 0..self.trees.len() {
            if cuts[i] < cuts[i + 1] {
                jobs.push((i, cuts[i]..cuts[i + 1]));
            }
        }
        Ok(jobs)
    }

    /// Validates that `keys` is ascending, then splits it at the shard
    /// fences: the `(dense shard, sub-batch)` pairs ready for per-shard
    /// dispatch. Probes sorting below every fence are absent from the
    /// result (no shard can contain them).
    ///
    /// # Errors
    /// [`Error::UnsortedBatch`] on a descending adjacent probe pair.
    pub fn shard_batches<'k>(&self, keys: &'k [K]) -> Result<Vec<(usize, &'k [K])>> {
        Ok(self
            .shard_cuts(keys)?
            .into_iter()
            .map(|(shard, range)| (shard, &keys[range]))
            .collect())
    }

    /// Searches an ascending probe batch by splitting it at the shard
    /// fences and dispatching each sub-batch to its shard's
    /// shared-prefix batch search. `out` is cleared and filled with one
    /// entry per probe: the `(dense shard, in-shard layout position)`
    /// of a hit, `None` for a miss.
    ///
    /// # Errors
    /// [`Error::UnsortedBatch`] on a descending adjacent probe pair.
    pub fn search_sorted_batch(
        &self,
        keys: &[K],
        out: &mut Vec<Option<(usize, u64)>>,
    ) -> Result<()> {
        let jobs = self.shard_cuts(keys)?;
        out.clear();
        out.resize(keys.len(), None);
        let mut local = Vec::new();
        for (shard, range) in jobs {
            self.trees[shard]
                .search_sorted_batch(&keys[range.clone()], &mut local)
                .expect("sub-batches of an ascending batch are ascending");
            for (slot, &p) in out[range].iter_mut().zip(local.iter()) {
                *slot = p.map(|p| (shard, p));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Concurrent read path
// ---------------------------------------------------------------------------

/// One unit of parallel batch work: a shard, its probe sub-batch, and
/// the output window those probes answer into.
type BatchJob<'a, K> = (usize, &'a [K], &'a mut [Option<(usize, u64)>]);

/// One unit of parallel range work: a `(shard, local lo, local hi)`
/// rank window and the buffer it fills.
type ScanJob<'a, K> = ((usize, u64, u64), &'a mut Vec<K>);

/// One unit of interleaved batch work: a shard, the probe indices
/// routed to it, and the per-shard result buffer its kernel fills.
type InterleaveJob<'a> = (usize, &'a Vec<u32>, &'a mut Vec<Option<u64>>);

impl<K: Ord + Copy + Send + Sync> Forest<K> {
    /// [`Forest::search_sorted_batch`] with the per-shard sub-batches
    /// fanned out over a scoped thread pool of (at most) `threads`
    /// workers. Lock-free: shards are immutable, workers share
    /// `&Forest` and write disjoint regions of `out`.
    ///
    /// # Errors
    /// [`Error::UnsortedBatch`] on a descending adjacent probe pair.
    pub fn par_search_batch(
        &self,
        keys: &[K],
        threads: usize,
        out: &mut Vec<Option<(usize, u64)>>,
    ) -> Result<()> {
        let cuts = self.shard_cuts(keys)?;
        out.clear();
        out.resize(keys.len(), None);
        // Carve `out` into per-shard windows matching the probe split.
        let mut jobs: Vec<BatchJob<'_, K>> = Vec::new();
        let mut tail: &mut [Option<(usize, u64)>] = out.as_mut_slice();
        let mut consumed = 0usize;
        for (shard, range) in cuts {
            let (_skip, rest) = tail.split_at_mut(range.start - consumed);
            let (seg, rest) = rest.split_at_mut(range.len());
            tail = rest;
            consumed = range.end;
            jobs.push((shard, &keys[range], seg));
        }
        let workers = threads.clamp(1, jobs.len().max(1));
        // Round-robin shard jobs over the workers; probe counts are
        // near-even across shards for the workloads that matter, so
        // static assignment stays balanced without a shared queue.
        let mut buckets: Vec<Vec<BatchJob<'_, K>>> = (0..workers).map(|_| Vec::new()).collect();
        for (j, job) in jobs.into_iter().enumerate() {
            buckets[j % workers].push(job);
        }
        std::thread::scope(|scope| {
            for bucket in buckets {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    for (shard, sub, seg) in bucket {
                        self.trees[shard]
                            .search_sorted_batch(sub, &mut local)
                            .expect("sub-batches of an ascending batch are ascending");
                        for (j, &p) in local.iter().enumerate() {
                            seg[j] = p.map(|p| (shard, p));
                        }
                    }
                });
            }
        });
        Ok(())
    }

    /// Collects the keys within `bounds` by scanning the overlapped
    /// shards concurrently on a scoped thread pool of (at most)
    /// `threads` workers, then concatenating in shard order — the
    /// parallel twin of [`Forest::range`].
    #[must_use]
    pub fn par_range(&self, bounds: impl std::ops::RangeBounds<K>, threads: usize) -> Vec<K> {
        let (lo, hi) = self.bounds_to_ranks(bounds);
        let windows = self.rank_windows(lo, hi);
        let mut results: Vec<Vec<K>> = windows.iter().map(|_| Vec::new()).collect();
        let workers = threads.clamp(1, windows.len().max(1));
        let mut buckets: Vec<Vec<ScanJob<'_, K>>> = (0..workers).map(|_| Vec::new()).collect();
        for (j, (window, slot)) in windows.into_iter().zip(results.iter_mut()).enumerate() {
            buckets[j % workers].push((window, slot));
        }
        std::thread::scope(|scope| {
            for bucket in buckets {
                scope.spawn(move || {
                    for ((shard, llo, lhi), slot) in bucket {
                        slot.extend(Range::from_ranks(self.trees[shard].as_ref(), llo, lhi));
                    }
                });
            }
        });
        let mut keys = Vec::with_capacity(results.iter().map(Vec::len).sum());
        for r in results {
            keys.extend(r);
        }
        keys
    }

    /// Searches an **arbitrary-order** probe batch on the shards'
    /// interleaved descent kernels: probes are routed to their shards,
    /// each shard's sub-batch runs with up to `width` lookups in flight
    /// ([`crate::kernel`]), and shards are fanned out over a scoped
    /// thread pool of (at most) `threads` workers. Unlike
    /// [`Forest::par_search_batch`] the input need not be sorted; `out`
    /// is cleared and filled with one `(dense shard, in-shard layout
    /// position)` entry per probe, in probe order — bit-identical to
    /// routing and searching each probe individually.
    pub fn par_search_batch_interleaved(
        &self,
        keys: &[K],
        width: usize,
        threads: usize,
        out: &mut Vec<Option<(usize, u64)>>,
    ) {
        // Group probe indices by the shard that can contain them.
        let mut indices: Vec<Vec<u32>> = self.trees.iter().map(|_| Vec::new()).collect();
        for (i, &k) in keys.iter().enumerate() {
            if let Some(shard) = self.router.route(k) {
                indices[shard].push(i as u32);
            }
        }
        out.clear();
        out.resize(keys.len(), None);
        let mut results: Vec<Vec<Option<u64>>> = self.trees.iter().map(|_| Vec::new()).collect();
        let jobs: Vec<InterleaveJob<'_>> = indices
            .iter()
            .zip(results.iter_mut())
            .enumerate()
            .filter(|(_, (idx, _))| !idx.is_empty())
            .map(|(shard, (idx, res))| (shard, idx, res))
            .collect();
        let workers = threads.clamp(1, jobs.len().max(1));
        let mut buckets: Vec<Vec<InterleaveJob<'_>>> = (0..workers).map(|_| Vec::new()).collect();
        for (j, job) in jobs.into_iter().enumerate() {
            buckets[j % workers].push(job);
        }
        std::thread::scope(|scope| {
            for bucket in buckets {
                scope.spawn(move || {
                    let mut probes: Vec<K> = Vec::new();
                    for (shard, idx, res) in bucket {
                        probes.clear();
                        probes.extend(idx.iter().map(|&i| keys[i as usize]));
                        self.trees[shard].search_batch_interleaved(&probes, width, res);
                    }
                });
            }
        });
        for (shard, (idx, res)) in indices.iter().zip(results.iter()).enumerate() {
            for (&i, &p) in idx.iter().zip(res.iter()) {
                out[i as usize] = p.map(|p| (shard, p));
            }
        }
    }

    /// Single-threaded shard-affine variant of
    /// [`Forest::par_search_batch_interleaved`]: probes (any order) are
    /// routed to their shards and each shard's sub-batch descends on
    /// that shard's interleaved kernel with up to `width` lookups in
    /// flight — all on the **calling** thread. This is the serving
    /// entry point for a thread-per-core worker that owns a subset of
    /// shards: the worker batches the point lookups it owns and keeps
    /// every descent (and the cache lines it touches) on its own core.
    /// `out` is cleared and filled with one `(dense shard, in-shard
    /// layout position)` entry per probe, in probe order —
    /// bit-identical to routing and searching each probe individually.
    pub fn search_batch_interleaved(
        &self,
        keys: &[K],
        width: usize,
        out: &mut Vec<Option<(usize, u64)>>,
    ) {
        let mut indices: Vec<Vec<u32>> = self.trees.iter().map(|_| Vec::new()).collect();
        for (i, &k) in keys.iter().enumerate() {
            if let Some(shard) = self.router.route(k) {
                indices[shard].push(i as u32);
            }
        }
        out.clear();
        out.resize(keys.len(), None);
        let mut probes: Vec<K> = Vec::new();
        let mut res: Vec<Option<u64>> = Vec::new();
        for (shard, idx) in indices.iter().enumerate() {
            if idx.is_empty() {
                continue;
            }
            probes.clear();
            probes.extend(idx.iter().map(|&i| keys[i as usize]));
            self.trees[shard].search_batch_interleaved(&probes, width, &mut res);
            for (&i, &p) in idx.iter().zip(res.iter()) {
                out[i as usize] = p.map(|p| (shard, p));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

impl<K: Ord + Copy + FixedKey> Forest<K> {
    /// Saves the forest into `dir`: one zero-copy `.cobt` tree file per
    /// non-empty shard ([`shard_file_name`]) plus the
    /// [`MANIFEST_FILE`] manifest recording every partition slot's key
    /// count and fence bounds. [`Forest::open`] serves the directory
    /// back with every shard memory-mapped.
    ///
    /// # Errors
    /// [`Error::Io`] on filesystem failures, plus the tree/manifest
    /// encoding errors.
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<()> {
        self.save_with(dir, format::DEFAULT_BLOCK_BYTES)
    }

    /// [`Forest::save`] with an explicit per-shard block alignment.
    ///
    /// # Errors
    /// As for [`Forest::save`].
    pub fn save_with(&self, dir: impl AsRef<Path>, block_bytes: u64) -> Result<()> {
        self.save_with_profiles(dir, block_bytes, &[])
    }

    /// [`Forest::save_with`], additionally recording each dense shard's
    /// built-for traffic profile as a `.cobw` sidecar next to its
    /// `.cobt` file (shards whose entry is `None` — or beyond
    /// `profiles.len()` — get no sidecar, and any stale one is
    /// removed). Shard files are written first and the manifest last,
    /// so a torn save never yields a manifest pointing at missing
    /// shards.
    ///
    /// # Errors
    /// As for [`Forest::save`].
    pub fn save_with_profiles(
        &self,
        dir: impl AsRef<Path>,
        block_bytes: u64,
        profiles: &[Option<Arc<ObservedProfile>>],
    ) -> Result<()> {
        self.save_with_profiles_io(dir, block_bytes, profiles, &RealIo)
    }

    /// [`Forest::save_with_profiles`] through an explicit storage seam
    /// — every shard file and the manifest are written atomically via
    /// `io` (temp → fsync → rename → dir fsync), and fault schedules
    /// ([`cobtree_core::io::FaultIo`]) can fail any of those steps.
    ///
    /// # Errors
    /// As for [`Forest::save`].
    pub fn save_with_profiles_io(
        &self,
        dir: impl AsRef<Path>,
        block_bytes: u64,
        profiles: &[Option<Arc<ObservedProfile>>],
        io: &dyn StorageIo,
    ) -> Result<()> {
        let dir = dir.as_ref();
        io.create_dir_all(dir)?;
        // Empty rows for every slot; occupied slots are overwritten below.
        let mut entries: Vec<ShardManifest<K>> = self
            .counts_by_slot
            .iter()
            .map(|_| ShardManifest {
                key_count: 0,
                bounds: None,
            })
            .collect();
        for (dense, tree) in self.trees.iter().enumerate() {
            let slot = self.slot_of[dense];
            entries[slot] = ShardManifest {
                key_count: tree.len(),
                bounds: Some((
                    tree.select(1).expect("non-empty shard"),
                    tree.select(tree.len()).expect("non-empty shard"),
                )),
            };
            let mut opts = SaveOptions::new().block_bytes(block_bytes);
            if let Some(profile) = profiles.get(dense).and_then(Option::as_ref) {
                opts = opts.weight_profile(Arc::clone(profile));
            }
            tree.write_file_io(dir.join(shard_file_name(slot)), &opts, io)?;
        }
        let manifest = format::encode_manifest(&entries)?;
        io.write_atomic(&dir.join(MANIFEST_FILE), &manifest)
    }

    /// Opens a saved forest directory: parses and validates the
    /// manifest, memory-maps every shard file ([`Storage::Mapped`]
    /// trees), and cross-checks each shard against its manifest row
    /// (key count and fence bounds). A shard whose checksummed file
    /// parses clean but disagrees with its manifest row is **trusted
    /// from the file and quarantined** — its key range answers
    /// [`Error::ShardUnavailable`] until the next publish heals it —
    /// while every other shard serves normally.
    ///
    /// # Errors
    /// [`Error::Io`] on filesystem failures and every manifest or
    /// tree-file parse error (an unreadable or corrupt shard *file* is
    /// still a hard error: with no replica there is nothing to serve).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_io(dir, &RealIo)
    }

    /// [`Forest::open`] through an explicit storage seam: the manifest
    /// read goes through `io`, and when `io` does not support `mmap`
    /// (fault schedules), shard files are loaded through `io.read`
    /// into owned memory so read faults (short reads, bit flips) hit
    /// the open path deterministically.
    ///
    /// # Errors
    /// As for [`Forest::open`].
    pub fn open_with_io(dir: impl AsRef<Path>, io: &dyn StorageIo) -> Result<Self> {
        let dir = dir.as_ref();
        let manifest = io.read(&dir.join(MANIFEST_FILE))?;
        let entries: Vec<ShardManifest<K>> = format::parse_manifest(&manifest)?;
        let mut counts_by_slot: Vec<u64> = entries.iter().map(|e| e.key_count).collect();
        let mut trees = Vec::new();
        let mut slot_of = Vec::new();
        let mut paths = Vec::new();
        let mut quarantined = Vec::new();
        for (slot, entry) in entries.iter().enumerate() {
            let Some((first, last)) = entry.bounds else {
                continue;
            };
            let path = dir.join(shard_file_name(slot));
            let tree: SearchTree<K> = SearchTree::open_with_io(&path, io)?;
            if tree.len() != entry.key_count
                || tree.select(1) != Some(first)
                || tree.select(tree.len()) != Some(last)
            {
                // The shard file is checksummed end to end and parsed
                // clean; the manifest row is the liar. Trust the file,
                // quarantine the shard (its routing metadata is
                // suspect), and keep serving everything else.
                counts_by_slot[slot] = tree.len();
                quarantined.push(trees.len());
            }
            paths.push(Some(path));
            trees.push(tree);
            slot_of.push(slot);
        }
        let mut forest = Self::assemble(
            Storage::Mapped,
            entries.len(),
            counts_by_slot,
            trees,
            slot_of,
        )?;
        forest.set_shard_paths(paths);
        for dense in quarantined {
            forest.quarantine(dense);
        }
        Ok(forest)
    }
}

impl<K> std::fmt::Debug for Forest<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Forest")
            .field("layout", &self.layout_label)
            .field("storage", &self.storage)
            .field("shards", &self.slots)
            .field("active", &self.trees.len())
            .field("len", &self.prefix.last())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Stitched iteration
// ---------------------------------------------------------------------------

/// Double-ended iterator over a forest-wide rank window: one per-shard
/// [`Range`] segment per overlapped shard, consumed front to back (or
/// back to front). Built by [`Forest::range`] /
/// [`Forest::range_by_rank`].
pub struct ForestRange<'a, K: Copy + Ord> {
    segments: std::collections::VecDeque<Range<'a, K>>,
}

impl<K: Copy + Ord> Iterator for ForestRange<'_, K> {
    type Item = K;

    fn next(&mut self) -> Option<K> {
        loop {
            let front = self.segments.front_mut()?;
            match front.next() {
                Some(k) => return Some(k),
                None => {
                    self.segments.pop_front();
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.segments.iter().map(ExactSizeIterator::len).sum();
        (n, Some(n))
    }
}

impl<K: Copy + Ord> DoubleEndedIterator for ForestRange<'_, K> {
    fn next_back(&mut self) -> Option<K> {
        loop {
            let back = self.segments.back_mut()?;
            match back.next_back() {
                Some(k) => return Some(k),
                None => {
                    self.segments.pop_back();
                }
            }
        }
    }
}

impl<K: Copy + Ord> ExactSizeIterator for ForestRange<'_, K> {}

impl<K: Copy + Ord> std::fmt::Debug for ForestRange<'_, K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForestRange")
            .field("segments", &self.segments.len())
            .field("remaining", &self.len())
            .finish()
    }
}

/// A bidirectional cursor over the whole forest, stitching across shard
/// fences: it tracks `(shard, local rank)` alongside the forest-wide
/// rank, so stepping is O(1) shard arithmetic plus one in-shard key
/// read — no per-step router binary search. Mirrors
/// [`Cursor`](crate::Cursor)'s seek/next/prev surface.
pub struct ForestCursor<'a, K: Copy + Ord> {
    forest: &'a Forest<K>,
    /// Forest-wide rank; `0` = before-first, `len + 1` = after-last.
    rank: u64,
    /// Dense shard of the current entry (valid while `1 <= rank <= len`).
    shard: usize,
    /// In-shard rank of the current entry (same validity).
    local: u64,
}

impl<K: Copy + Ord> ForestCursor<'_, K> {
    fn sync_to_rank(&mut self) {
        if let Some((shard, local)) = self.forest.rank_to_shard(self.rank) {
            self.shard = shard;
            self.local = local;
        }
    }

    /// Moves to the first stored key `>= key` (the forest-wide lower
    /// bound) and returns it; lands after-last (returning `None`) when
    /// every key is smaller.
    pub fn seek(&mut self, key: K) -> Option<K> {
        self.rank = self.forest.lower_bound_rank(key).min(self.forest.len() + 1);
        self.sync_to_rank();
        self.key()
    }

    /// Moves onto the first entry and returns its key.
    pub fn seek_first(&mut self) -> Option<K> {
        self.rank = 1;
        self.sync_to_rank();
        self.key()
    }

    /// Moves onto the last entry and returns its key.
    pub fn seek_last(&mut self) -> Option<K> {
        self.rank = self.forest.len();
        self.sync_to_rank();
        self.key()
    }

    /// Key under the cursor, `None` on a sentinel.
    #[must_use]
    pub fn key(&self) -> Option<K> {
        if self.rank < 1 || self.rank > self.forest.len() {
            return None;
        }
        self.forest.trees[self.shard].select(self.local)
    }

    /// Forest-wide 1-based rank of the current entry, `None` on a
    /// sentinel.
    #[must_use]
    pub fn rank(&self) -> Option<u64> {
        (self.rank >= 1 && self.rank <= self.forest.len()).then_some(self.rank)
    }

    /// Dense shard index of the current entry, `None` on a sentinel.
    #[must_use]
    pub fn shard(&self) -> Option<usize> {
        self.rank().map(|_| self.shard)
    }

    /// Steps back one entry and returns the new current key; `None`
    /// (and the before-first state) when already at the front.
    pub fn prev(&mut self) -> Option<K> {
        if self.rank == 0 {
            return None;
        }
        // Stepping down from the after-last sentinel re-derives the
        // (shard, local) pair — the cached pair is stale there.
        let was_after_last = self.rank > self.forest.len();
        self.rank -= 1;
        if self.rank == 0 {
            return None;
        }
        if was_after_last {
            self.sync_to_rank();
            return self.key();
        }
        if self.local > 1 {
            self.local -= 1;
        } else {
            self.shard -= 1;
            self.local = self.forest.trees[self.shard].len();
        }
        self.key()
    }
}

impl<K: Copy + Ord> Iterator for ForestCursor<'_, K> {
    type Item = K;

    /// Steps forward one entry and returns the new current key; `None`
    /// (and the after-last state) once the keys are exhausted.
    fn next(&mut self) -> Option<K> {
        let total = self.forest.len();
        if self.rank > total {
            return None;
        }
        self.rank += 1;
        if self.rank > total {
            return None;
        }
        if self.rank == 1 {
            self.shard = 0;
            self.local = 1;
        } else if self.local < self.forest.trees[self.shard].len() {
            self.local += 1;
        } else {
            self.shard += 1;
            self.local = 1;
        }
        self.key()
    }
}

impl<K: Copy + Ord> std::fmt::Debug for ForestCursor<'_, K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForestCursor")
            .field("rank", &self.rank)
            .field("shard", &self.shard)
            .field("local", &self.local)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> Vec<u64> {
        (1..=n).map(|k| k * 3 + (k % 2)).collect()
    }

    fn forest(n: u64, shards: usize) -> Forest<u64> {
        Forest::builder()
            .shards(shards)
            .storage(Storage::Implicit)
            .keys(keys(n))
            .build()
            .unwrap()
    }

    fn oracle(n: u64) -> SearchTree<u64> {
        SearchTree::builder()
            .storage(Storage::Implicit)
            .keys(keys(n))
            .build()
            .unwrap()
    }

    #[test]
    fn router_routes_to_the_fence_owner() {
        let f = forest(100, 4);
        let fences = f.router().fences().to_vec();
        assert_eq!(fences.len(), 4);
        assert_eq!(f.router().route(fences[0] - 1), None);
        for (i, &fence) in fences.iter().enumerate() {
            assert_eq!(f.router().route(fence), Some(i), "fence itself");
            assert_eq!(f.router().route(fence + 1), Some(i), "just above fence");
        }
        assert_eq!(f.router().route(u64::MAX), Some(3));
    }

    #[test]
    fn point_rank_select_match_the_unsharded_oracle() {
        let n = 500;
        let f = forest(n, 7);
        let single = oracle(n);
        assert_eq!(f.len(), single.len());
        for probe in 0..=(n * 3 + 10) {
            assert_eq!(
                f.contains(probe),
                single.contains(probe),
                "contains {probe}"
            );
            assert_eq!(f.rank(probe), single.rank(probe), "rank {probe}");
            assert_eq!(
                f.lower_bound(probe),
                single.lower_bound(probe),
                "lower_bound {probe}"
            );
            assert_eq!(
                f.upper_bound(probe),
                single.upper_bound(probe),
                "upper_bound {probe}"
            );
            assert_eq!(
                f.predecessor(probe),
                single.predecessor(probe),
                "predecessor {probe}"
            );
        }
        for r in 0..=(n + 2) {
            assert_eq!(f.select(r), single.select(r), "select {r}");
        }
        let probes: Vec<u64> = (0..2000).collect();
        assert_eq!(f.rank_checksum(&probes), rank_checksum(&single, &probes));
        assert_ne!(f.rank_checksum(&probes), 0);
    }

    #[test]
    fn locate_reports_shard_position_and_rank() {
        let f = forest(120, 4);
        let all: Vec<u64> = f.iter().collect();
        for (i, &k) in all.iter().enumerate() {
            let hit = f.locate(k).expect("stored key");
            assert_eq!(hit.rank, i as u64 + 1);
            let tree = f.shard(hit.shard).unwrap();
            assert_eq!(tree.search(k), Some(hit.position));
            assert_eq!(f.select(hit.rank), Some(k));
        }
        assert_eq!(f.locate(0), None);
        assert_eq!(f.locate(u64::MAX), None);
    }

    #[test]
    fn ranges_stitch_across_fences() {
        let n = 300;
        let f = forest(n, 5);
        let single = oracle(n);
        let expect: Vec<u64> = single.iter().collect();
        let got: Vec<u64> = f.iter().collect();
        assert_eq!(got, expect);
        // Every window, forwards and backwards, against the oracle.
        for lo in [0u64, 5, 95, 200, 600, 905] {
            for hi in [0u64, 10, 101, 300, 700, 910] {
                let got: Vec<u64> = f.range(lo..=hi).collect();
                let want: Vec<u64> = single.range(lo..=hi).collect();
                assert_eq!(got, want, "{lo}..={hi}");
                let rev: Vec<u64> = f.range(lo..hi).rev().collect();
                let mut want: Vec<u64> = single.range(lo..hi).collect();
                want.reverse();
                assert_eq!(rev, want, "rev {lo}..{hi}");
            }
        }
        // Double-ended interleaving drains exactly once.
        let mut r = f.range(..);
        let mut front = Vec::new();
        let mut back = Vec::new();
        while let Some(k) = r.next() {
            front.push(k);
            if let Some(k) = r.next_back() {
                back.push(k);
            }
        }
        back.reverse();
        front.extend(back);
        assert_eq!(front, expect);
    }

    #[test]
    fn cursor_stitches_and_matches_the_oracle_walk() {
        let n = 130;
        let f = forest(n, 6);
        let expect: Vec<u64> = oracle(n).iter().collect();
        let forward: Vec<u64> = f.cursor().collect();
        assert_eq!(forward, expect);

        let mut cur = f.cursor();
        assert_eq!(cur.seek_last(), expect.last().copied());
        let mut backward = vec![cur.key().unwrap()];
        while let Some(k) = cur.prev() {
            backward.push(k);
        }
        backward.reverse();
        assert_eq!(backward, expect);

        // Seek lands on lower bounds, across fences.
        let mut cur = f.cursor();
        for &probe in &[0u64, 4, 100, 391, 9999] {
            let lb = expect.iter().position(|&k| k >= probe);
            assert_eq!(cur.seek(probe), lb.map(|i| expect[i]), "seek {probe}");
            assert_eq!(cur.rank(), lb.map(|i| i as u64 + 1));
        }
        // Walking off either end parks on a sentinel, and steps back on.
        let mut cur = f.cursor();
        assert_eq!(cur.prev(), None);
        assert_eq!(cur.next(), Some(expect[0]));
        cur.seek_last();
        assert_eq!(cur.next(), None);
        assert_eq!(cur.rank(), None);
        assert_eq!(cur.prev(), expect.last().copied());
    }

    #[test]
    fn sorted_batch_splits_and_matches_point_searches() {
        let f = forest(400, 4);
        let mut batch: Vec<u64> = (0..600u64).map(|i| (i * 7) % 1300).collect();
        batch.sort_unstable();
        let mut out = Vec::new();
        f.search_sorted_batch(&batch, &mut out).unwrap();
        assert_eq!(out.len(), batch.len());
        for (i, &probe) in batch.iter().enumerate() {
            match f.locate(probe) {
                Some(hit) => assert_eq!(out[i], Some((hit.shard, hit.position)), "probe {probe}"),
                None => assert_eq!(out[i], None, "probe {probe}"),
            }
        }
        // Parallel version agrees for every thread count.
        for threads in [1, 2, 4, 16] {
            let mut pout = Vec::new();
            f.par_search_batch(&batch, threads, &mut pout).unwrap();
            assert_eq!(pout, out, "threads={threads}");
        }
        // Unsorted batches are typed errors.
        assert_eq!(
            f.search_sorted_batch(&[9u64, 3], &mut out).unwrap_err(),
            Error::UnsortedBatch { index: 0 }
        );
        assert_eq!(
            f.par_search_batch(&[9u64, 3], 2, &mut out).unwrap_err(),
            Error::UnsortedBatch { index: 0 }
        );
    }

    #[test]
    fn serial_interleaved_batch_matches_point_lookups() {
        let f = forest(400, 5);
        // Unsorted probes: hits, misses, probes below the first fence
        // (unrouted → None), and duplicates.
        let probes: Vec<u64> = (0..600u64).map(|i| (i * 7_919) % 1_500).collect();
        let expect: Vec<Option<(usize, u64)>> = probes
            .iter()
            .map(|&p| {
                f.route(p)
                    .and_then(|(shard, tree)| tree.search(p).map(|pos| (shard, pos)))
            })
            .collect();
        assert!(expect.iter().any(Option::is_none), "want unrouted probes");
        assert!(expect.iter().any(Option::is_some), "want hits");
        // Stale contents in `out` must be cleared, at every width
        // including 1 (degenerates to the point kernel) and widths
        // larger than any shard's sub-batch.
        let mut out = vec![Some((99usize, 99u64)); 3];
        for width in [1usize, 2, 8, 16, 1024] {
            f.search_batch_interleaved(&probes, width, &mut out);
            assert_eq!(out, expect, "width {width}");
        }
        // Empty batch clears the output and returns nothing.
        f.search_batch_interleaved(&[], 8, &mut out);
        assert!(out.is_empty());
        // Single-shard forest: every routed probe lands in shard 0.
        let single = forest(64, 1);
        let sub: Vec<u64> = probes.iter().copied().take(100).collect();
        single.search_batch_interleaved(&sub, 8, &mut out);
        for (&p, &r) in sub.iter().zip(out.iter()) {
            let want = single
                .route(p)
                .and_then(|(shard, tree)| tree.search(p).map(|pos| (shard, pos)));
            assert_eq!(r, want, "single-shard probe {p}");
        }
    }

    #[test]
    fn par_range_agrees_with_serial() {
        let f = forest(350, 5);
        for threads in [1, 2, 4, 9] {
            let serial_range: Vec<u64> = f.range(100u64..=900).collect();
            assert_eq!(f.par_range(100u64..=900, threads), serial_range);
        }
        assert_eq!(f.par_range(.., 3), f.iter().collect::<Vec<u64>>());
    }

    #[test]
    fn empty_and_single_key_shards_are_served() {
        // 3 keys over 8 slots: five slots stay empty.
        let f = Forest::builder()
            .shards(8)
            .keys([10u64, 20, 30])
            .build()
            .unwrap();
        assert_eq!(f.shard_count(), 8);
        assert_eq!(f.active_shards(), 3);
        assert_eq!(f.len(), 3);
        for (r, k) in [(1, 10u64), (2, 20), (3, 30)] {
            assert!(f.contains(k));
            assert_eq!(f.select(r), Some(k));
            assert_eq!(f.rank(k), r - 1);
            assert_eq!(f.locate(k).unwrap().rank, r);
        }
        assert!(!f.contains(15));
        assert_eq!(f.iter().collect::<Vec<u64>>(), vec![10, 20, 30]);
        let mut out = Vec::new();
        f.par_search_batch(&[5u64, 10, 15, 20, 25, 30, 35], 4, &mut out)
            .unwrap();
        assert_eq!(out.iter().filter(|o| o.is_some()).count(), 3);
    }

    #[test]
    fn builder_error_cases() {
        assert!(matches!(
            Forest::<u64>::builder().shards(0).keys([1]).build(),
            Err(Error::Malformed { .. })
        ));
        assert_eq!(
            Forest::<u64>::builder().build().unwrap_err(),
            Error::EmptyKeys
        );
        assert_eq!(
            Forest::builder().keys([3u64, 1]).build().unwrap_err(),
            Error::UnsortedKeys { index: 0 }
        );
        assert_eq!(
            Forest::builder()
                .storage(Storage::Mapped)
                .keys([1u64, 2])
                .build()
                .unwrap_err(),
            Error::MappedStorageRequiresFile
        );
    }

    #[test]
    fn save_open_round_trips_through_mapped_shards() {
        let dir = std::env::temp_dir().join(format!("cobtree-forest-{}", std::process::id()));
        let f = forest(250, 4);
        f.save(&dir).unwrap();
        let served: Forest<u64> = Forest::open(&dir).unwrap();
        assert_eq!(served.storage(), Storage::Mapped);
        assert_eq!(served.len(), f.len());
        assert_eq!(served.shard_count(), 4);
        assert!(served.shards().all(|t| t.storage() == Storage::Mapped));
        let probes: Vec<u64> = (0..1000).collect();
        assert_eq!(served.rank_checksum(&probes), f.rank_checksum(&probes));
        assert_eq!(
            served.iter().collect::<Vec<u64>>(),
            f.iter().collect::<Vec<u64>>()
        );
        // A corrupted manifest is a typed error.
        let manifest_path = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&manifest_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        std::fs::write(&manifest_path, &bytes).unwrap();
        assert!(matches!(
            Forest::<u64>::open(&dir).unwrap_err(),
            Error::ChecksumMismatch { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_a_swapped_shard_file() {
        let dir = std::env::temp_dir().join(format!("cobtree-forest-swap-{}", std::process::id()));
        let f = forest(200, 2);
        f.save(&dir).unwrap();
        // Overwrite shard 0 with shard 1's file: counts/bounds disagree
        // with the manifest row.
        std::fs::copy(dir.join(shard_file_name(1)), dir.join(shard_file_name(0))).unwrap();
        assert!(matches!(
            Forest::<u64>::open(&dir).unwrap_err(),
            Error::Malformed { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
