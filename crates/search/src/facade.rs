//! The unified `SearchTree` facade: one builder API over every layout ×
//! storage combination.
//!
//! The paper's central claim is that MINWEP is a drop-in *layout choice*
//! — the search algorithm is identical across vEB, MINWEP, B-tree-ish
//! and in-order layouts; only the position computation changes. This
//! module makes the claim operational:
//!
//! ```
//! use cobtree_search::{SearchTree, Storage};
//! use cobtree_core::NamedLayout;
//!
//! let keys: Vec<u64> = (1..=1000).map(|k| k * 3).collect();
//! let tree = SearchTree::builder()
//!     .layout(NamedLayout::MinWep)        // or a RecursiveSpec, or a Layout
//!     .storage(Storage::Implicit)         // ⇄ Explicit ⇄ IndexOnly, one line
//!     .keys(keys.iter().copied())
//!     .build()?;
//! assert!(tree.contains(30));
//! assert!(!tree.contains(31));
//! # Ok::<(), cobtree_core::Error>(())
//! ```
//!
//! Key count — not tree height — is the sizing parameter: the builder
//! picks the smallest complete tree that fits and pads the remainder
//! with supremum sentinels internally, so any non-empty strictly-sorted key set
//! works. All three storage backends built from one configuration share
//! a single position index, so `search` returns the *same* positions —
//! and [`SearchTree::search_batch_checksum`] the same checksums — no
//! matter which storage is selected.

use crate::backend::SearchBackend;
use crate::cursor::{range_of, Cursor, Range};
use crate::explicit::ExplicitTree;
use crate::fat::FatHeapTree;
use crate::implicit::ImplicitTree;
use crate::index_only::IndexOnlyTree;
use crate::kernel;
use crate::mapped::MappedTree;
use crate::slot::{padded_slots, Slot};
use cobtree_core::error::{check_sorted_keys, Error, Result};
use cobtree_core::fat::{FatIndex, FatLayout};
use cobtree_core::format::{self, Descriptor, FixedKey};
use cobtree_core::index::generic::GenericIndexer;
use cobtree_core::index::{MaterializedIndex, PositionIndex};
use cobtree_core::weights::{encode_weight_profile, hot_path_layout, parse_weight_profile};
use cobtree_core::{EdgeWeights, Layout, NamedLayout, ObservedProfile, RecursiveSpec, Tree};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Hard ceiling on key counts: `2^31 − 1` (positions are stored as
/// `u32` by the materialized layouts and explicit nodes).
pub const MAX_KEYS: u64 = (1 << 31) - 1;

/// How the tree is stored and navigated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Storage {
    /// Nodes with embedded child pointers, in layout order — the paper's
    /// wall-clock champion (§II-B).
    Explicit,
    /// Keys only, in layout order; every transition recomputes the child
    /// position arithmetically (§IV-E).
    Implicit,
    /// Keys in plain sorted order; layout positions are computed on
    /// demand and never stored (the §IV-E index-timing discipline,
    /// generalized to arbitrary keys).
    IndexOnly,
    /// Keys served zero-copy from the bytes of a saved tree file
    /// (`docs/FORMAT.md`), memory-mapped or owned. Created by
    /// [`SearchTree::open`] / [`SearchTree::open_bytes`] — never by the
    /// key-set builder, which has no file to map.
    Mapped,
}

impl Storage {
    /// The storage backends the key-set builder can construct, for
    /// generic iteration in benches and tests. [`Storage::Mapped`] is
    /// deliberately absent: mapped trees are opened from a saved file
    /// ([`SearchTree::open`]), not built from keys.
    pub const ALL: [Storage; 3] = [Storage::Explicit, Storage::Implicit, Storage::IndexOnly];
}

impl std::fmt::Display for Storage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Storage::Explicit => "explicit",
            Storage::Implicit => "implicit",
            Storage::IndexOnly => "index-only",
            Storage::Mapped => "mapped",
        })
    }
}

/// Where a layout comes from: a named layout from the paper's Table I, a
/// raw [`RecursiveSpec`], or a pre-materialized [`Layout`] permutation.
#[derive(Clone)]
pub enum LayoutSource {
    /// One of the thirteen named Recursive Layouts (fast dedicated
    /// indexers where the paper has them).
    Named(NamedLayout),
    /// An arbitrary Recursive Layout, served by the generic
    /// spec-interpreting indexer.
    Spec(RecursiveSpec),
    /// A pre-materialized permutation (e.g. MINLA/MINBW baselines or a
    /// layout loaded from JSON); its height must match the key count.
    Materialized(Layout),
    /// A B-ary fat-node layout (wide nodes searched by rank-of-key —
    /// see [`cobtree_core::fat`]). Sparse: chunks are padded to a
    /// power-of-two stride, so positions exceed `2^h − 1` and each
    /// storage builds through its sparse path.
    Fat(FatLayout),
    /// Any base source annotated with an edge-weight model — the
    /// first-class form of "build this layout for that traffic".
    /// Geometric models ([`EdgeWeights::Approximate`] /
    /// [`EdgeWeights::Exact`] / [`EdgeWeights::Unweighted`]) are
    /// provenance only: the named layouts are already the paper's
    /// optima for them, so the base resolves unchanged. An
    /// [`EdgeWeights::Observed`] profile with real mass and a matching
    /// height *re-materializes* the layout via greedy hot-path packing
    /// ([`cobtree_core::weights::hot_path_layout`]); the adaptive
    /// planner substitutes the optimizer crate's stronger
    /// `optimize_for_profile` result as a [`LayoutSource::Materialized`]
    /// when it has one.
    Weighted {
        /// The underlying layout choice.
        base: Box<LayoutSource>,
        /// The traffic model the tree is built for.
        weights: EdgeWeights,
    },
}

impl From<NamedLayout> for LayoutSource {
    fn from(layout: NamedLayout) -> Self {
        LayoutSource::Named(layout)
    }
}

impl From<RecursiveSpec> for LayoutSource {
    fn from(spec: RecursiveSpec) -> Self {
        LayoutSource::Spec(spec)
    }
}

impl From<Layout> for LayoutSource {
    fn from(layout: Layout) -> Self {
        LayoutSource::Materialized(layout)
    }
}

impl From<FatLayout> for LayoutSource {
    fn from(layout: FatLayout) -> Self {
        LayoutSource::Fat(layout)
    }
}

impl std::fmt::Debug for LayoutSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

impl LayoutSource {
    /// Human-readable description of the source. Weighted sources
    /// report their provenance as `base+model`, e.g. `MINWEP+observed`.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            LayoutSource::Named(l) => l.label().to_string(),
            LayoutSource::Spec(s) => s.nomenclature(),
            LayoutSource::Materialized(l) => format!("materialized(h={})", l.height()),
            LayoutSource::Fat(l) => l.label().to_string(),
            LayoutSource::Weighted { base, weights } => {
                format!("{}+{}", base.label(), weights.tag())
            }
        }
    }

    /// Annotates this source with an edge-weight model (builder sugar
    /// for constructing [`LayoutSource::Weighted`] by hand).
    #[must_use]
    pub fn with_weights(self, weights: EdgeWeights) -> LayoutSource {
        LayoutSource::Weighted {
            base: Box::new(self),
            weights,
        }
    }

    /// Collapses weighted annotations into a resolvable source for a
    /// tree of `height`: an observed profile with real mass and a
    /// matching height re-materializes the layout by hot-path packing;
    /// every other annotation resolves as its base (the geometric
    /// models are exactly what the named layouts already optimize).
    fn normalized(self, height: u32) -> LayoutSource {
        match self {
            LayoutSource::Weighted { base, weights } => {
                let base = base.normalized(height);
                if !matches!(base, LayoutSource::Fat(_)) {
                    if let Some(p) = weights.observed() {
                        if p.height() == height && p.total() > 0 {
                            return LayoutSource::Materialized(hot_path_layout(p));
                        }
                    }
                }
                base
            }
            other => other,
        }
    }

    /// Resolves the source into a position index for a tree of `height`
    /// levels. Every backend of one [`SearchTree`] shares this index, so
    /// positions agree across storage kinds.
    ///
    /// # Errors
    /// [`Error::HeightOutOfRange`] for unrepresentable heights;
    /// [`Error::HeightMismatch`] if a pre-materialized layout does not
    /// match `height`.
    pub fn resolve(&self, height: u32) -> Result<Box<dyn PositionIndex>> {
        match self {
            LayoutSource::Named(l) => l.try_indexer(height),
            LayoutSource::Spec(s) => {
                Tree::try_new(height)?;
                Ok(Box::new(GenericIndexer::new(s.clone(), height)))
            }
            LayoutSource::Materialized(l) => {
                if l.height() != height {
                    return Err(Error::HeightMismatch {
                        expected: l.height(),
                        got: height,
                    });
                }
                Ok(Box::new(MaterializedIndex::new(l.clone())))
            }
            LayoutSource::Fat(l) => Ok(Box::new(FatIndex::try_new(*l, height)?)),
            LayoutSource::Weighted { .. } => self.clone().normalized(height).resolve(height),
        }
    }
}

/// Configures and builds a [`SearchTree`]. Created by
/// [`SearchTree::builder`].
pub struct SearchTreeBuilder<K> {
    source: LayoutSource,
    storage: Storage,
    weights: Option<EdgeWeights>,
    keys: Vec<K>,
}

impl<K: Ord + Copy> Default for SearchTreeBuilder<K> {
    fn default() -> Self {
        Self {
            source: LayoutSource::Named(NamedLayout::MinWep),
            storage: Storage::Explicit,
            weights: None,
            keys: Vec::new(),
        }
    }
}

impl<K: Ord + Copy> SearchTreeBuilder<K> {
    /// Chooses the layout (default: MINWEP). Accepts a [`NamedLayout`],
    /// a [`RecursiveSpec`], or a pre-materialized [`Layout`].
    #[must_use]
    pub fn layout(mut self, source: impl Into<LayoutSource>) -> Self {
        self.source = source.into();
        self
    }

    /// Chooses the storage backend (default: explicit).
    #[must_use]
    pub fn storage(mut self, storage: Storage) -> Self {
        self.storage = storage;
        self
    }

    /// Annotates the layout with an edge-weight model; composes with
    /// any named/spec/fat source. An [`EdgeWeights::Observed`] traffic
    /// profile (with mass, at the tree's height) re-materializes the
    /// layout for that traffic; the geometric models record provenance.
    /// Either way [`SearchTree::layout_label`] reports `base+model`.
    ///
    /// ```
    /// use cobtree_search::SearchTree;
    /// use cobtree_core::EdgeWeights;
    ///
    /// // Height-3 tree (7 slots); rank 1 is scorching hot.
    /// let tree = SearchTree::builder()
    ///     .weights(EdgeWeights::from_access_counts(&[900, 1, 1, 1, 1, 1, 1]))
    ///     .keys([10u64, 20, 30, 40, 50, 60, 70])
    ///     .build()?;
    /// assert_eq!(tree.layout_label(), "MINWEP+observed");
    /// assert!(tree.contains(10));
    /// # Ok::<(), cobtree_core::Error>(())
    /// ```
    #[must_use]
    pub fn weights(mut self, weights: EdgeWeights) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Sets the key set (must end up non-empty and strictly ascending;
    /// validated by [`SearchTreeBuilder::build`]).
    #[must_use]
    pub fn keys(mut self, keys: impl IntoIterator<Item = K>) -> Self {
        self.keys = keys.into_iter().collect();
        self
    }

    /// Validates the configuration and builds the tree.
    ///
    /// # Errors
    /// [`Error::EmptyKeys`] / [`Error::UnsortedKeys`] /
    /// [`Error::TooManyKeys`] on bad key sets;
    /// [`Error::HeightMismatch`] when a pre-materialized layout does not
    /// fit the key count; [`Error::HeightOutOfRange`] if the layout
    /// source cannot serve the required height.
    pub fn build(self) -> Result<SearchTree<K>> {
        if self.storage == Storage::Mapped {
            return Err(Error::MappedStorageRequiresFile);
        }
        let height = fitted_height(&self.keys)?;
        let n = self.keys.len() as u64;
        let slots = padded_slots(&self.keys, height);
        // Fold the builder's weight annotation into the source, keep
        // its provenance label, then collapse it into a directly
        // resolvable source (an observed profile may re-materialize
        // the layout for its traffic).
        let source = match self.weights {
            Some(weights) => self.source.with_weights(weights),
            None => self.source,
        };
        let layout_label = source.label();
        let source = source.normalized(height);
        let inner = match self.storage {
            // A pre-materialized source already *is* the layout — use it
            // directly rather than round-tripping through its index.
            Storage::Explicit => {
                if let LayoutSource::Materialized(layout) = &source {
                    if layout.height() != height {
                        return Err(Error::HeightMismatch {
                            expected: layout.height(),
                            got: height,
                        });
                    }
                    Inner::Explicit(ExplicitTree::try_build(layout, &slots)?)
                } else if matches!(source, LayoutSource::Fat(_)) {
                    // Fat layouts are sparse (positions beyond
                    // `2^h − 1`), so they skip the permutation
                    // materialization and build node-per-slot directly.
                    let index = source.resolve(height)?;
                    Inner::Explicit(ExplicitTree::try_build_from_index(index.as_ref(), &slots)?)
                } else {
                    // Materialize the *index* (not the engine) so explicit
                    // positions are bit-identical to the arithmetic
                    // backends even where an indexer is an automorphic
                    // image of the engine's output.
                    let index = source.resolve(height)?;
                    let tree = Tree::new(height);
                    let positions: Vec<u32> = tree
                        .nodes()
                        .map(|i| index.position(i, tree.depth(i)) as u32)
                        .collect();
                    let layout = Layout::try_from_positions(height, positions)?;
                    Inner::Explicit(ExplicitTree::try_build(&layout, &slots)?)
                }
            }
            Storage::Implicit => {
                if let LayoutSource::Fat(layout) = &source {
                    // The implicit realization of a fat layout is the
                    // chunked heap plane searched by rank-of-key.
                    Inner::FatHeap(FatHeapTree::try_build(
                        FatIndex::try_new(*layout, height)?,
                        &slots,
                    )?)
                } else {
                    Inner::Implicit(ImplicitTree::try_build(source.resolve(height)?, &slots)?)
                }
            }
            Storage::IndexOnly => {
                Inner::IndexOnly(IndexOnlyTree::try_build(source.resolve(height)?, &slots)?)
            }
            Storage::Mapped => unreachable!("rejected above"),
        };
        let provenance = match &source {
            LayoutSource::Named(layout) => Provenance::Named(*layout),
            LayoutSource::Fat(layout) => Provenance::Fat(*layout),
            _ => Provenance::Opaque,
        };
        Ok(SearchTree {
            storage: self.storage,
            layout_label,
            provenance,
            height,
            key_len: n,
            inner,
        })
    }
}

/// Checks a key set against the builder's rules (non-empty, strictly
/// ascending, at most [`MAX_KEYS`]) and returns the height of the
/// smallest complete tree that fits it.
fn fitted_height<K: Ord>(keys: &[K]) -> Result<u32> {
    check_sorted_keys(keys)?;
    let n = keys.len() as u64;
    if n > MAX_KEYS {
        return Err(Error::TooManyKeys {
            got: n,
            max: MAX_KEYS,
        });
    }
    let mut height = 1u32;
    while ((1u64 << height) - 1) < n {
        height += 1;
    }
    Ok(height)
}

enum Inner<K> {
    Explicit(ExplicitTree<Slot<K>>),
    Implicit(ImplicitTree<Slot<K>>),
    /// Implicit storage of a fat layout: the chunked heap plane.
    FatHeap(FatHeapTree<Slot<K>>),
    IndexOnly(IndexOnlyTree<Slot<K>>),
    /// A mapped file backend, type-erased so the facade stays generic
    /// over plain `Ord + Copy` keys (the `FixedKey` bound applies only
    /// at open/save time, where the erasure happens).
    Mapped(Box<dyn SearchBackend<K> + Send + Sync>),
}

/// Where the layout came from — drives the descriptor kind
/// [`SearchTree::encode`] writes: named layouts travel by name (no
/// position table in the file), everything else as a materialized
/// table.
#[derive(Clone, Copy)]
enum Provenance {
    Named(NamedLayout),
    /// Fat layouts travel by label + header arity; the file's key
    /// region is sized by the sparse slot capacity.
    Fat(FatLayout),
    Opaque,
}

/// A static cache-oblivious search tree: any layout, any storage
/// backend, one API. Built by [`SearchTree::builder`].
pub struct SearchTree<K> {
    storage: Storage,
    layout_label: String,
    provenance: Provenance,
    height: u32,
    key_len: u64,
    inner: Inner<K>,
}

/// The two key disciplines an inner backend can speak: padded
/// [`Slot`]s (in-memory backends) or raw keys (the mapped backend,
/// which detects padding arithmetically).
enum InnerRef<'a, K> {
    Slots(&'a dyn SearchBackend<Slot<K>>),
    Keys(&'a dyn SearchBackend<K>),
}

impl<K: Ord + Copy> SearchTree<K> {
    /// Starts a builder with the defaults (MINWEP layout, explicit
    /// storage, no keys).
    #[must_use]
    pub fn builder() -> SearchTreeBuilder<K> {
        SearchTreeBuilder::default()
    }

    /// Number of (real) keys.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.key_len
    }

    /// `false`; building requires at least one key.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Height of the (padded) complete tree.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total slots including padding, `2^h − 1`.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        (1u64 << self.height) - 1
    }

    /// The storage backend in use.
    #[must_use]
    pub fn storage(&self) -> Storage {
        self.storage
    }

    /// Human-readable layout description.
    #[must_use]
    pub fn layout_label(&self) -> &str {
        &self.layout_label
    }

    /// The inner storage backend, in whichever key discipline it speaks.
    fn inner(&self) -> InnerRef<'_, K> {
        match &self.inner {
            Inner::Explicit(t) => InnerRef::Slots(t),
            Inner::Implicit(t) => InnerRef::Slots(t),
            Inner::FatHeap(t) => InnerRef::Slots(t),
            Inner::IndexOnly(t) => InnerRef::Slots(t),
            Inner::Mapped(t) => InnerRef::Keys(t.as_ref()),
        }
    }

    /// Searches for `key`; returns the 0-based layout position of its
    /// node. Positions are identical across storage backends for the
    /// same layout and keys.
    #[inline]
    pub fn search(&self, key: K) -> Option<u64> {
        match self.inner() {
            InnerRef::Slots(b) => b.search(Slot::Key(key)),
            InnerRef::Keys(b) => b.search(key),
        }
    }

    /// Membership test.
    #[inline]
    #[must_use]
    pub fn contains(&self, key: K) -> bool {
        self.search(key).is_some()
    }

    /// Searches while recording every visited layout position (for cache
    /// simulation).
    pub fn search_traced(&self, key: K, visited: &mut Vec<u64>) -> Option<u64> {
        match self.inner() {
            InnerRef::Slots(b) => b.search_traced(Slot::Key(key), visited),
            InnerRef::Keys(b) => b.search_traced(key, visited),
        }
    }

    /// The pre-kernel descent of the selected backend, kept as the
    /// oracle the compiled kernels are verified against.
    #[inline]
    pub fn search_reference(&self, key: K) -> Option<u64> {
        match self.inner() {
            InnerRef::Slots(b) => b.search_reference(Slot::Key(key)),
            InnerRef::Keys(b) => b.search_reference(key),
        }
    }

    /// Searches an arbitrary-order probe batch with up to `width`
    /// lookups interleaved in flight on the selected backend's kernel
    /// (see [`crate::kernel`]). `out` is cleared and filled in probe
    /// order; results are bit-identical to mapping
    /// [`SearchTree::search`].
    ///
    /// Probes for slot-keyed inner backends are converted chunk-wise
    /// through a lane-sized stack buffer — never a probes-length
    /// allocation, so the kernel's cost is what gets measured.
    pub fn search_batch_interleaved(&self, keys: &[K], width: usize, out: &mut Vec<Option<u64>>) {
        match self.inner() {
            InnerRef::Slots(b) => {
                let width = width.clamp(1, kernel::MAX_LANES);
                out.clear();
                out.reserve(keys.len());
                let mut slots = [Slot::Sup(0); kernel::MAX_LANES];
                let mut lane_out = Vec::with_capacity(kernel::MAX_LANES);
                for chunk in keys.chunks(width) {
                    for (slot, &k) in slots.iter_mut().zip(chunk) {
                        *slot = Slot::Key(k);
                    }
                    b.search_batch_interleaved(&slots[..chunk.len()], width, &mut lane_out);
                    out.extend_from_slice(&lane_out);
                }
            }
            InnerRef::Keys(b) => b.search_batch_interleaved(keys, width, out),
        }
    }

    /// Benchmark kernel: sum of found positions, identical across
    /// storage backends. Dispatches to the selected backend's
    /// interleaved checksum kernel (chunk-wise slot conversion, as in
    /// [`SearchTree::search_batch_interleaved`]).
    #[must_use]
    pub fn search_batch_checksum(&self, keys: &[K]) -> u64 {
        match self.inner() {
            InnerRef::Slots(b) => {
                let mut acc = 0u64;
                let mut slots = [Slot::Sup(0); kernel::MAX_LANES];
                for chunk in keys.chunks(kernel::DEFAULT_LANES) {
                    for (slot, &k) in slots.iter_mut().zip(chunk) {
                        *slot = Slot::Key(k);
                    }
                    acc = acc.wrapping_add(b.search_batch_checksum(&slots[..chunk.len()]));
                }
                acc
            }
            InnerRef::Keys(b) => b.search_batch_checksum(keys),
        }
    }

    // ------------------------------------------------------------------
    // Ordered-map queries (inherited from `SearchBackend`, re-exposed
    // inherently so callers don't need the trait in scope).
    // ------------------------------------------------------------------

    /// Number of stored keys strictly less than `key`.
    ///
    /// ```
    /// # use cobtree_search::SearchTree;
    /// let t = SearchTree::builder().keys([10u64, 20, 30]).build()?;
    /// assert_eq!(t.rank(25), 2);
    /// assert_eq!(t.select(t.rank(25) + 1), Some(30));
    /// # Ok::<(), cobtree_core::Error>(())
    /// ```
    #[must_use]
    pub fn rank(&self, key: K) -> u64 {
        SearchBackend::rank(self, key)
    }

    /// The `rank`-th smallest key (1-based); `None` outside `1..=len`.
    #[must_use]
    pub fn select(&self, rank: u64) -> Option<K> {
        SearchBackend::select(self, rank)
    }

    /// Smallest stored key `>= key` (`key` itself when present).
    #[must_use]
    pub fn lower_bound(&self, key: K) -> Option<K> {
        SearchBackend::lower_bound(self, key)
    }

    /// Smallest stored key `> key` — the in-order successor.
    #[must_use]
    pub fn upper_bound(&self, key: K) -> Option<K> {
        SearchBackend::upper_bound(self, key)
    }

    /// Largest stored key `< key` — the in-order predecessor.
    #[must_use]
    pub fn predecessor(&self, key: K) -> Option<K> {
        SearchBackend::predecessor(self, key)
    }

    /// Alias for [`SearchTree::upper_bound`].
    #[must_use]
    pub fn successor(&self, key: K) -> Option<K> {
        SearchBackend::successor(self, key)
    }

    /// A [`Cursor`] positioned before the first key.
    ///
    /// ```
    /// # use cobtree_search::SearchTree;
    /// let t = SearchTree::builder().keys((1..=50u64).map(|k| k * 2)).build()?;
    /// let mut cur = t.cursor();
    /// assert_eq!(cur.seek(31), Some(32));
    /// assert_eq!(cur.next(), Some(34));
    /// assert_eq!(cur.prev(), Some(32));
    /// # Ok::<(), cobtree_core::Error>(())
    /// ```
    #[must_use]
    pub fn cursor(&self) -> Cursor<'_, K> {
        Cursor::new(self)
    }

    /// The stored keys within `bounds`, ascending — `BTreeSet::range`
    /// for a cache-oblivious layout.
    ///
    /// ```
    /// # use cobtree_search::SearchTree;
    /// let t = SearchTree::builder().keys((1..=100u64).map(|k| k * 3)).build()?;
    /// let window: Vec<u64> = t.range(10..=21).collect();
    /// assert_eq!(window, vec![12, 15, 18, 21]);
    /// assert_eq!(t.range(..).count(), 100);
    /// # Ok::<(), cobtree_core::Error>(())
    /// ```
    pub fn range(&self, bounds: impl std::ops::RangeBounds<K>) -> Range<'_, K> {
        range_of(self, bounds)
    }

    /// Ascending iterator over all stored keys.
    pub fn iter(&self) -> Range<'_, K> {
        self.range(..)
    }

    /// Searches an ascending probe batch with shared-prefix restarts —
    /// see [`SearchBackend::search_sorted_batch`].
    ///
    /// # Errors
    /// [`Error::UnsortedBatch`] on a descending adjacent probe pair.
    pub fn search_sorted_batch(&self, keys: &[K], out: &mut Vec<Option<u64>>) -> Result<()> {
        SearchBackend::search_sorted_batch(self, keys, out)
    }

    /// Traced variant of [`SearchTree::search_sorted_batch`] — see
    /// [`SearchBackend::search_sorted_batch_traced`].
    ///
    /// # Errors
    /// [`Error::UnsortedBatch`] on a descending adjacent probe pair.
    pub fn search_sorted_batch_traced(
        &self,
        keys: &[K],
        out: &mut Vec<Option<u64>>,
        visited: &mut Vec<u64>,
    ) -> Result<()> {
        SearchBackend::search_sorted_batch_traced(self, keys, out, visited)
    }
}

/// Which layout descriptor a saved tree file carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DescriptorKind {
    /// Provenance-driven (the default): trees built from a
    /// [`NamedLayout`] travel by name (no position table in the file,
    /// the reader rebuilds the arithmetic indexer), fat layouts by
    /// label + arity, everything else as a materialized `u32` position
    /// table.
    #[default]
    Auto,
    /// Force the materialized position table even for named layouts —
    /// for readers that must not depend on the named-indexer registry.
    /// Fat layouts ignore this (their sparse geometry has no dense
    /// table form) and still travel by label.
    Table,
}

/// One builder for every way a [`SearchTree`] reaches disk: block
/// alignment, descriptor kind, and the traffic profile the layout was
/// built for (written as a `.cobw` sidecar next to the tree file —
/// byte spec in `docs/FORMAT.md`). Consumed by [`SearchTree::encode`]
/// and [`SearchTree::write_file`].
///
/// ```
/// use cobtree_search::{SaveOptions, SearchTree};
///
/// let tree = SearchTree::builder().keys((1..=100u64).map(|k| k * 2)).build()?;
/// let bytes = tree.encode(&SaveOptions::new().block_bytes(1 << 12))?;
/// let reopened: SearchTree<u64> = SearchTree::open_bytes(bytes)?;
/// assert_eq!(reopened.len(), 100);
/// # Ok::<(), cobtree_core::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SaveOptions {
    block_bytes: Option<u64>,
    descriptor: DescriptorKind,
    weights: Option<Arc<ObservedProfile>>,
}

impl SaveOptions {
    /// Default options: [`cobtree_core::format::DEFAULT_BLOCK_BYTES`]
    /// alignment, provenance-driven descriptor, no weight sidecar.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Region alignment for the encoded file (must be a power of two;
    /// pick the serving medium's transfer-block size).
    #[must_use]
    pub fn block_bytes(mut self, block_bytes: u64) -> Self {
        self.block_bytes = Some(block_bytes);
        self
    }

    /// Which layout descriptor the file carries.
    #[must_use]
    pub fn descriptor(mut self, kind: DescriptorKind) -> Self {
        self.descriptor = kind;
        self
    }

    /// The observed traffic profile this tree's layout was optimized
    /// for. [`SearchTree::write_file`] records it as a checksummed
    /// `.cobw` sidecar next to the tree file (the `.cobt` bytes
    /// themselves are unchanged), so the adaptive planner can later
    /// measure how far live traffic has drifted from it.
    #[must_use]
    pub fn weight_profile(mut self, profile: impl Into<Arc<ObservedProfile>>) -> Self {
        self.weights = Some(profile.into());
        self
    }

    /// Where the weight sidecar for a tree file lives: the same path
    /// with the extension swapped to `cobw`.
    #[must_use]
    pub fn sidecar_path(tree_path: &Path) -> PathBuf {
        tree_path.with_extension("cobw")
    }
}

/// Reads the `.cobw` weight sidecar accompanying a tree file, if one
/// exists. `Ok(None)` when there is no sidecar; parse errors on a
/// present-but-corrupt sidecar are real errors.
///
/// # Errors
/// [`Error::Io`] on filesystem failures other than absence, plus every
/// [`cobtree_core::weights::parse_weight_profile`] error.
pub fn read_weight_sidecar(tree_path: impl AsRef<Path>) -> Result<Option<ObservedProfile>> {
    let sidecar = SaveOptions::sidecar_path(tree_path.as_ref());
    match std::fs::read(&sidecar) {
        Ok(bytes) => Ok(Some(parse_weight_profile(&bytes)?)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(Error::io(&e)),
    }
}

/// Persistence: every `SearchTree` whose key type has a fixed wire
/// encoding ([`FixedKey`]) can be saved to the zero-copy `.cobt` format
/// and served back through the mapped backend. See `docs/FORMAT.md`
/// for the byte-level container specification.
impl<K: Ord + Copy + FixedKey> SearchTree<K> {
    /// Serializes the tree to the on-disk format under `opts` (block
    /// alignment and descriptor kind; the weight profile, being a
    /// sidecar, only affects [`SearchTree::write_file`]).
    ///
    /// With the default [`DescriptorKind::Auto`], trees built from a
    /// [`NamedLayout`] travel by name — the file carries no position
    /// table and the reader rebuilds the arithmetic indexer. Every
    /// other source (specs, materialized layouts, opened table files)
    /// is stored with its materialized `u32` position table. Either
    /// way, a reopened tree visits the same positions and returns the
    /// same checksums as this one.
    ///
    /// The key region of an [`Storage::Implicit`] binary tree is copied
    /// straight from its layout-ordered key array. Every other backend
    /// (fat heaps and opened mapped files included) assembles it through
    /// the public rank surface. Both give the same bytes for the same
    /// layout and keys.
    ///
    /// # Errors
    /// Propagates [`cobtree_core::format::encode_tree`] errors.
    pub fn encode(&self, opts: &SaveOptions) -> Result<Vec<u8>> {
        if let Inner::Implicit(t) = &self.inner {
            let slots = t.keys();
            return self.encode_image(opts, |p| match slots[p as usize] {
                Slot::Key(k) => Some(k),
                Slot::Sup(_) => None,
            });
        }
        // Sparse fat layouts address more slots than ranks; the extra
        // slots stay `None` (zero bytes in the file), as do padding slots.
        let slot_capacity = match self.provenance {
            Provenance::Fat(layout) => FatIndex::try_new(layout, self.height)?.slot_capacity(),
            _ => self.capacity(),
        };
        let mut keys_by_position: Vec<Option<K>> = vec![None; slot_capacity as usize];
        for rank in 1..=self.key_len {
            let p = SearchBackend::position_of_rank(self, rank).expect("stored rank has a node");
            keys_by_position[p as usize] = SearchBackend::key_at_rank(self, rank);
        }
        self.encode_image(opts, |p| keys_by_position[p as usize])
    }

    /// Writes into `out` the image that [`SearchTree::encode`] gives
    /// under `opts` for the [`Storage::Implicit`] `layout` tree over
    /// `keys`, without building the tree: each key goes straight to its
    /// layout position for its in-order rank, and padding slots stay
    /// zero. The key set is checked as [`SearchTreeBuilder::build`]
    /// checks it. `out`'s allocation is reused, so one buffer can serve
    /// a run of images.
    ///
    /// ```
    /// use cobtree_search::{SaveOptions, SearchTree, Storage};
    /// use cobtree_core::NamedLayout;
    ///
    /// let keys: Vec<u64> = (1..=1000).map(|k| k * 3).collect();
    /// let mut image = Vec::new();
    /// SearchTree::encode_sorted_into(NamedLayout::MinWep, &keys, &SaveOptions::new(), &mut image)?;
    /// let tree = SearchTree::builder()
    ///     .layout(NamedLayout::MinWep)
    ///     .storage(Storage::Implicit)
    ///     .keys(keys)
    ///     .build()?;
    /// assert_eq!(image, tree.encode(&SaveOptions::new())?);
    /// # Ok::<(), cobtree_core::Error>(())
    /// ```
    ///
    /// # Errors
    /// The [`SearchTreeBuilder::build`] errors for a bad key set, then
    /// [`cobtree_core::format::encode_tree`]'s.
    pub fn encode_sorted_into(
        layout: NamedLayout,
        keys: &[K],
        opts: &SaveOptions,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let height = fitted_height(keys)?;
        let index = layout.try_indexer(height)?;
        let tree = Tree::new(height);
        let table: Vec<u32>;
        let descriptor = if opts.descriptor == DescriptorKind::Table {
            table = tree
                .nodes()
                .map(|i| index.position(i, tree.depth(i)) as u32)
                .collect();
            Descriptor::Table {
                label: layout.label(),
                positions_by_node: &table,
            }
        } else {
            Descriptor::Named(layout)
        };
        format::encode_tree_into::<K>(
            height,
            keys.len() as u64,
            opts.block_bytes.unwrap_or(format::DEFAULT_BLOCK_BYTES),
            &descriptor,
            out,
            |region| {
                for (rank, &key) in (1..).zip(keys) {
                    let node = tree.node_at_in_order(rank);
                    let at = index.position(node, tree.depth(node)) as usize * K::WIDTH;
                    key.write_le(&mut region[at..at + K::WIDTH]);
                }
            },
        )
    }

    /// [`SearchTree::encode`] over a layout-ordered key image: `key_at`
    /// answers each file slot's key, `None` for padding.
    fn encode_image(
        &self,
        opts: &SaveOptions,
        key_at: impl FnMut(u64) -> Option<K>,
    ) -> Result<Vec<u8>> {
        let block_bytes = opts.block_bytes.unwrap_or(format::DEFAULT_BLOCK_BYTES);
        match self.provenance {
            Provenance::Named(layout) if opts.descriptor != DescriptorKind::Table => {
                format::encode_tree(
                    self.height,
                    self.key_len,
                    block_bytes,
                    &Descriptor::Named(layout),
                    key_at,
                )
            }
            Provenance::Fat(layout) => format::encode_tree(
                self.height,
                self.key_len,
                block_bytes,
                &Descriptor::Fat(layout),
                key_at,
            ),
            _ => {
                let tree = Tree::new(self.height);
                let capacity = tree.len();
                let mut positions_by_node = vec![0u32; capacity as usize];
                for rank in 1..=capacity {
                    let node = tree.node_at_in_order(rank);
                    let p =
                        SearchBackend::position_of_rank(self, rank).expect("every rank has a node");
                    positions_by_node[(node - 1) as usize] = p as u32;
                }
                format::encode_tree(
                    self.height,
                    self.key_len,
                    block_bytes,
                    &Descriptor::Table {
                        label: &self.layout_label,
                        positions_by_node: &positions_by_node,
                    },
                    key_at,
                )
            }
        }
    }

    /// Writes the tree to `path` in the zero-copy on-disk format, then
    /// [`SearchTree::open`] serves it back without deserialization:
    ///
    /// ```
    /// use cobtree_search::{SaveOptions, SearchTree, Storage};
    /// use cobtree_core::NamedLayout;
    ///
    /// let path = std::env::temp_dir().join(format!("facade-doctest-{}.cobt", std::process::id()));
    /// let tree = SearchTree::builder()
    ///     .layout(NamedLayout::MinWep)
    ///     .keys((1..=1000u64).map(|k| k * 3))
    ///     .build()?;
    /// tree.write_file(&path, &SaveOptions::new())?;
    ///
    /// let served: SearchTree<u64> = SearchTree::open(&path)?;
    /// assert_eq!(served.storage(), Storage::Mapped);
    /// assert_eq!(served.len(), 1000);
    /// assert!(served.contains(30) && !served.contains(31));
    /// // Same layout ⇒ same positions ⇒ same checksums as in memory.
    /// let probes: Vec<u64> = (0..500).collect();
    /// assert_eq!(
    ///     served.search_batch_checksum(&probes),
    ///     tree.search_batch_checksum(&probes),
    /// );
    /// # std::fs::remove_file(&path).unwrap();
    /// # Ok::<(), cobtree_core::Error>(())
    /// ```
    ///
    /// When `opts` carries a weight profile, it is written as a
    /// checksummed `.cobw` sidecar at
    /// [`SaveOptions::sidecar_path`]`(path)`; without one, any stale
    /// sidecar from a previous save is removed so a profile on disk
    /// always describes the tree bytes next to it.
    ///
    /// # Errors
    /// [`Error::Io`] on filesystem failures, plus the
    /// [`SearchTree::encode`] encoding errors.
    pub fn write_file(&self, path: impl AsRef<Path>, opts: &SaveOptions) -> Result<()> {
        self.write_file_io(path, opts, &cobtree_core::io::RealIo)
    }

    /// [`SearchTree::write_file`] through an explicit storage seam:
    /// the tree image and any `.cobw` sidecar are published with
    /// `io`'s atomic-write discipline (temp file → fsync → rename →
    /// parent-dir fsync), and fault schedules
    /// ([`cobtree_core::io::FaultIo`]) can fail or tear any step.
    ///
    /// # Errors
    /// As for [`SearchTree::write_file`].
    pub fn write_file_io(
        &self,
        path: impl AsRef<Path>,
        opts: &SaveOptions,
        io: &dyn cobtree_core::io::StorageIo,
    ) -> Result<()> {
        let path = path.as_ref();
        let bytes = self.encode(opts)?;
        io.write_atomic(path, &bytes)?;
        let sidecar = SaveOptions::sidecar_path(path);
        match &opts.weights {
            Some(profile) => io.write_atomic(&sidecar, &encode_weight_profile(profile)),
            None => io.remove(&sidecar),
        }
    }

    /// Memory-maps a saved tree file and serves it as a
    /// [`Storage::Mapped`] tree — the full ordered-map API (cursors,
    /// ranges, rank/select, sorted batches) over the file bytes with
    /// zero deserialization.
    ///
    /// # Errors
    /// [`Error::Io`] on filesystem failures, [`Error::KeyTypeMismatch`]
    /// when the file stores a different key type, and every
    /// [`cobtree_core::format::parse`] error on malformed bytes.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Ok(Self::from_mapped(MappedTree::open(path)?))
    }

    /// [`SearchTree::open`] through an explicit storage seam. When
    /// `io` supports `mmap` (the real seam) this is plain
    /// [`SearchTree::open`]; fault schedules answer
    /// `supports_mmap() == false`, routing the file through `io.read`
    /// into owned memory so scripted read faults (short reads, bit
    /// flips) hit the open path deterministically — and are caught by
    /// the container checksums.
    ///
    /// # Errors
    /// As for [`SearchTree::open`].
    pub fn open_with_io(
        path: impl AsRef<Path>,
        io: &dyn cobtree_core::io::StorageIo,
    ) -> Result<Self> {
        Ok(Self::from_mapped(MappedTree::open_with_io(path, io)?))
    }

    /// [`SearchTree::open`] over an in-memory file image (no
    /// filesystem; the buffer is owned, not mapped).
    ///
    /// # Errors
    /// As for [`SearchTree::open`], minus the I/O cases.
    pub fn open_bytes(bytes: Vec<u8>) -> Result<Self> {
        Ok(Self::from_mapped(MappedTree::from_bytes(bytes)?))
    }

    fn from_mapped(mapped: MappedTree<K>) -> Self {
        let provenance = match (mapped.named_layout(), mapped.fat_layout()) {
            (Some(layout), _) => Provenance::Named(layout),
            (None, Some(layout)) => Provenance::Fat(layout),
            (None, None) => Provenance::Opaque,
        };
        SearchTree {
            storage: Storage::Mapped,
            layout_label: mapped.label().to_string(),
            provenance,
            height: mapped.height(),
            key_len: mapped.len(),
            inner: Inner::Mapped(Box::new(mapped)),
        }
    }
}

impl<K: Ord + Copy> SearchBackend<K> for SearchTree<K> {
    fn height(&self) -> u32 {
        self.height
    }

    fn key_count(&self) -> u64 {
        self.key_len
    }

    fn search(&self, key: K) -> Option<u64> {
        SearchTree::search(self, key)
    }

    fn search_reference(&self, key: K) -> Option<u64> {
        SearchTree::search_reference(self, key)
    }

    fn search_traced(&self, key: K, visited: &mut Vec<u64>) -> Option<u64> {
        SearchTree::search_traced(self, key, visited)
    }

    fn search_traced_kernel(&self, key: K, visited: &mut Vec<u64>) -> Option<u64> {
        match self.inner() {
            InnerRef::Slots(b) => b.search_traced_kernel(Slot::Key(key), visited),
            InnerRef::Keys(b) => b.search_traced_kernel(key, visited),
        }
    }

    fn search_batch_interleaved(&self, keys: &[K], width: usize, out: &mut Vec<Option<u64>>) {
        SearchTree::search_batch_interleaved(self, keys, width, out);
    }

    fn search_batch_checksum(&self, keys: &[K]) -> u64 {
        SearchTree::search_batch_checksum(self, keys)
    }

    fn key_at_rank(&self, rank: u64) -> Option<K> {
        if rank < 1 || rank > self.key_len {
            return None;
        }
        match self.inner() {
            InnerRef::Slots(b) => match b.key_at_rank(rank) {
                Some(Slot::Key(k)) => Some(k),
                // Ranks 1..=len hold real keys by construction.
                _ => None,
            },
            InnerRef::Keys(b) => b.key_at_rank(rank),
        }
    }

    fn position_of_rank(&self, rank: u64) -> Option<u64> {
        // Deliberately *not* clamped to `len`: padding nodes have
        // positions too, and traced descents must record them exactly as
        // `search_traced` does.
        match self.inner() {
            InnerRef::Slots(b) => b.position_of_rank(rank),
            InnerRef::Keys(b) => b.position_of_rank(rank),
        }
    }

    // Forwarded to the inner backend so storage-specific fast paths
    // apply (explicit storage descends by pointer instead of the
    // generic rank walk). Ranks are storage-independent, and both
    // padding disciplines — supremum slots in memory, rank-derived +∞
    // in mapped files — sort above every real probe, so the inner
    // answer is at most `len + 1` — exactly this facade's
    // `key_count() + 1` "absent" sentinel; no clamping is needed.

    fn lower_bound_rank(&self, key: K) -> u64 {
        match self.inner() {
            InnerRef::Slots(b) => b.lower_bound_rank(Slot::Key(key)),
            InnerRef::Keys(b) => b.lower_bound_rank(key),
        }
    }

    fn upper_bound_rank(&self, key: K) -> u64 {
        match self.inner() {
            InnerRef::Slots(b) => b.upper_bound_rank(Slot::Key(key)),
            InnerRef::Keys(b) => b.upper_bound_rank(key),
        }
    }

    fn search_sorted_batch(&self, keys: &[K], out: &mut Vec<Option<u64>>) -> Result<()> {
        match self.inner() {
            InnerRef::Slots(b) => {
                let slots: Vec<Slot<K>> = keys.iter().map(|&k| Slot::Key(k)).collect();
                b.search_sorted_batch(&slots, out)
            }
            InnerRef::Keys(b) => b.search_sorted_batch(keys, out),
        }
    }

    fn search_sorted_batch_traced(
        &self,
        keys: &[K],
        out: &mut Vec<Option<u64>>,
        visited: &mut Vec<u64>,
    ) -> Result<()> {
        match self.inner() {
            InnerRef::Slots(b) => {
                let slots: Vec<Slot<K>> = keys.iter().map(|&k| Slot::Key(k)).collect();
                b.search_sorted_batch_traced(&slots, out, visited)
            }
            InnerRef::Keys(b) => b.search_sorted_batch_traced(keys, out, visited),
        }
    }
}

impl<K> std::fmt::Debug for SearchTree<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchTree")
            .field("layout", &self.layout_label)
            .field("storage", &self.storage)
            .field("height", &self.height)
            .field("len", &self.key_len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> Vec<u64> {
        (1..=n).map(|k| k * 7 + 1).collect()
    }

    #[test]
    fn storages_return_identical_positions_and_checksums() {
        let ks = keys(300); // padded: height 9, 511 slots
        let probes: Vec<u64> = (0..2400).collect();
        for layout in [
            NamedLayout::MinWep,
            NamedLayout::PreVeb,
            NamedLayout::InVebA,
        ] {
            let trees: Vec<SearchTree<u64>> = Storage::ALL
                .iter()
                .map(|&storage| {
                    SearchTree::builder()
                        .layout(layout)
                        .storage(storage)
                        .keys(ks.iter().copied())
                        .build()
                        .unwrap()
                })
                .collect();
            let reference = trees[0].search_batch_checksum(&probes);
            assert_ne!(reference, 0);
            for t in &trees[1..] {
                assert_eq!(
                    t.search_batch_checksum(&probes),
                    reference,
                    "{layout}/{} checksum diverged",
                    t.storage()
                );
            }
            for &p in &probes {
                let expect = trees[0].search(p);
                for t in &trees[1..] {
                    assert_eq!(t.search(p), expect, "{layout}/{} probe {p}", t.storage());
                }
            }
        }
    }

    #[test]
    fn mapped_backend_joins_the_interchange_guarantee() {
        // A tree saved and reopened (any source kind) returns the same
        // positions and checksums as every in-memory storage.
        let ks = keys(300);
        let probes: Vec<u64> = (0..2400).collect();
        for source in [
            LayoutSource::Named(NamedLayout::MinWep),
            LayoutSource::Spec(NamedLayout::MinWep.spec()),
            LayoutSource::Materialized(NamedLayout::MinWep.materialize(9)),
        ] {
            let built = SearchTree::builder()
                .layout(source.clone())
                .storage(Storage::Implicit)
                .keys(ks.iter().copied())
                .build()
                .unwrap();
            let opened: SearchTree<u64> =
                SearchTree::open_bytes(built.encode(&SaveOptions::new()).unwrap()).unwrap();
            assert_eq!(opened.storage(), Storage::Mapped);
            assert_eq!(opened.len(), built.len());
            assert_eq!(opened.height(), built.height());
            assert_eq!(
                opened.search_batch_checksum(&probes),
                built.search_batch_checksum(&probes),
                "{source:?}"
            );
            // Re-saving an opened tree reproduces a working file.
            let resaved: SearchTree<u64> =
                SearchTree::open_bytes(opened.encode(&SaveOptions::new()).unwrap()).unwrap();
            assert_eq!(
                resaved.search_batch_checksum(&probes),
                built.search_batch_checksum(&probes),
                "re-save {source:?}"
            );
        }
    }

    #[test]
    fn fat_layouts_join_the_interchange_guarantee() {
        // Every storage of a fat layout — including a saved-and-reopened
        // mapped file — returns the same positions and checksums.
        let ks = keys(300); // height 9, sparse slot capacity > 511
        let probes: Vec<u64> = (0..2400).collect();
        for layout in FatLayout::ALL {
            let trees: Vec<SearchTree<u64>> = Storage::ALL
                .iter()
                .map(|&storage| {
                    SearchTree::builder()
                        .layout(layout)
                        .storage(storage)
                        .keys(ks.iter().copied())
                        .build()
                        .unwrap()
                })
                .collect();
            let reference = trees[0].search_batch_checksum(&probes);
            assert_ne!(reference, 0);
            for t in &trees[1..] {
                assert_eq!(
                    t.search_batch_checksum(&probes),
                    reference,
                    "{layout}/{} checksum diverged",
                    t.storage()
                );
            }
            let opened: SearchTree<u64> =
                SearchTree::open_bytes(trees[0].encode(&SaveOptions::new()).unwrap()).unwrap();
            assert_eq!(opened.storage(), Storage::Mapped);
            assert_eq!(opened.layout_label(), layout.label());
            assert_eq!(opened.search_batch_checksum(&probes), reference, "{layout}");
            for &p in &probes {
                assert_eq!(opened.search(p), trees[0].search(p), "{layout} probe {p}");
            }
            // Re-saving the mapped tree reproduces a working fat file.
            let resaved: SearchTree<u64> =
                SearchTree::open_bytes(opened.encode(&SaveOptions::new()).unwrap()).unwrap();
            assert_eq!(resaved.search_batch_checksum(&probes), reference);
        }
    }

    #[test]
    fn builder_rejects_mapped_storage() {
        assert_eq!(
            SearchTree::builder()
                .storage(Storage::Mapped)
                .keys([1u64, 2, 3])
                .build()
                .unwrap_err(),
            Error::MappedStorageRequiresFile
        );
    }

    #[test]
    fn all_sources_build() {
        let ks = keys(40);
        for source in [
            LayoutSource::Named(NamedLayout::HalfWep),
            LayoutSource::Spec(NamedLayout::HalfWep.spec()),
            LayoutSource::Materialized(NamedLayout::HalfWep.materialize(6)),
        ] {
            let t = SearchTree::builder()
                .layout(source)
                .keys(ks.iter().copied())
                .build()
                .unwrap();
            assert_eq!(t.height(), 6);
            assert_eq!(t.len(), 40);
            assert_eq!(t.capacity(), 63);
            for &k in &ks {
                assert!(t.contains(k));
                assert!(!t.contains(k + 1));
            }
        }
    }

    #[test]
    fn named_and_spec_sources_agree_exactly() {
        // A spec source uses the generic interpreter, a named source the
        // fast indexer; when the two agree bit-for-bit (non-automorphic
        // layouts like IN-ORDER), positions must match across sources.
        let ks = keys(100);
        let a = SearchTree::builder()
            .layout(NamedLayout::InOrder)
            .keys(ks.iter().copied())
            .build()
            .unwrap();
        let b = SearchTree::builder()
            .layout(NamedLayout::InOrder.spec())
            .keys(ks.iter().copied())
            .build()
            .unwrap();
        for &k in &ks {
            assert_eq!(a.search(k), b.search(k));
        }
    }

    #[test]
    fn builder_error_cases() {
        // Empty keys.
        assert_eq!(
            SearchTree::<u64>::builder().build().unwrap_err(),
            Error::EmptyKeys
        );
        // Unsorted keys.
        assert_eq!(
            SearchTree::builder()
                .keys([3u64, 1, 2])
                .build()
                .unwrap_err(),
            Error::UnsortedKeys { index: 0 }
        );
        // Duplicate keys count as unsorted.
        assert_eq!(
            SearchTree::builder()
                .keys([1u64, 2, 2])
                .build()
                .unwrap_err(),
            Error::UnsortedKeys { index: 1 }
        );
        // Materialized layout of the wrong height.
        assert_eq!(
            SearchTree::builder()
                .layout(NamedLayout::MinWep.materialize(4))
                .keys(keys(100))
                .build()
                .unwrap_err(),
            Error::HeightMismatch {
                expected: 4,
                got: 7
            }
        );
    }

    #[test]
    fn trace_depth_bounded_by_height() {
        let t = SearchTree::builder()
            .storage(Storage::IndexOnly)
            .keys(keys(500))
            .build()
            .unwrap();
        let mut visited = Vec::new();
        for probe in [8u64, 701, 3501, 9999] {
            visited.clear();
            t.search_traced(probe, &mut visited);
            assert!(!visited.is_empty());
            assert!(visited.len() <= t.height() as usize);
        }
    }

    #[test]
    fn padding_never_matches_probes() {
        // 5 keys pad a height-3 tree with two suprema; no probe may land
        // on a padding slot.
        let t = SearchTree::builder()
            .storage(Storage::Implicit)
            .keys([10u64, 20, 30, 40, 50])
            .build()
            .unwrap();
        assert_eq!(t.capacity(), 7);
        let mut found = 0;
        for probe in 0..=100u64 {
            if t.contains(probe) {
                found += 1;
                assert_eq!(probe % 10, 0);
            }
        }
        assert_eq!(found, 5);
    }

    #[test]
    fn debug_and_labels() {
        let t = SearchTree::builder()
            .layout(NamedLayout::MinWep)
            .keys([1u64, 2, 3])
            .build()
            .unwrap();
        assert_eq!(t.layout_label(), "MINWEP");
        assert_eq!(t.storage(), Storage::Explicit);
        let dbg = format!("{t:?}");
        assert!(dbg.contains("MINWEP") && dbg.contains("Explicit"));
    }
}
