//! # cobtree-search
//!
//! Search-tree substrate: the data structures whose wall-clock behaviour
//! the paper measures (§II-B, §IV-D/E/F), unified behind one facade.
//!
//! * [`facade`] — **start here**: [`SearchTree`] builds any layout ×
//!   storage combination from a plain sorted key set
//!   (`SearchTree::builder().layout(..).storage(..).keys(..).build()`),
//!   padding to the next complete tree internally;
//! * [`backend`] — the [`SearchBackend`] trait every storage kind
//!   implements: point search *plus* the full ordered-index surface
//!   (`lower_bound`/`upper_bound`, `rank`/`select`, sorted-batch search
//!   with shared-prefix restarts), so harnesses iterate backends
//!   generically;
//! * [`cursor`] — lending [`cursor::Cursor`] (seek/next/prev) and
//!   [`cursor::Range`] iterators over any backend, built on the
//!   position ⇄ in-order-rank contract;
//! * [`explicit`] — *pointer-based* trees: each node stores its key and
//!   two child positions, laid out in an arbitrary layout order; a search
//!   follows positions with no index arithmetic (Figure 2 / Figure 4
//!   "explicit search time");
//! * [`implicit`] — *pointer-less* trees: only keys are stored, in layout
//!   order; every transition recomputes the child's position via
//!   [`cobtree_core::index::PositionIndex`] (Figure 4 "implicit search"),
//!   including the memory-access-free variant used to time pure index
//!   computation (keys `1..=n` inferred from the BFS index, §IV-E
//!   footnote 1);
//! * [`index_only`] — keys in plain sorted order, layout positions
//!   computed on demand (the §IV-E discipline generalized to arbitrary
//!   keys);
//! * [`kernel`] — the *compiled descent kernels* and the one blanket impl
//!   that implements [`SearchBackend`] for every backend stating its
//!   planes: devirtualized per-layout
//!   [`cobtree_core::index::StepPlan`]s, branch-free descent with the
//!   equality check hoisted out of the loop, software prefetch of both
//!   candidate children, an interleaved multi-query kernel that keeps
//!   up to 16 lookups in flight, the one three-way reference walk
//!   (`search_reference` / `search_traced`) the kernels are verified
//!   against, and its shared-prefix form for sorted batches;
//! * [`mapped`] — the *serving* backend: [`mapped::MappedTree`] answers
//!   the full ordered surface zero-copy from the bytes of a saved tree
//!   file (`SearchTree::write_file`/`open`, format spec in `docs/FORMAT.md`),
//!   memory-mapped so the byte order on storage *is* the layout order;
//! * [`adaptive`] — the *adaptive serving engine*:
//!   [`adaptive::AdaptiveForest`] wraps a forest behind an atomically
//!   swappable handle so the traffic-adaptive layout loop can publish
//!   re-optimized shards (validated to serve the identical key set)
//!   while readers keep pinned snapshots — plus built-for profile
//!   bookkeeping and `.cobw` sidecar persistence;
//! * [`forest`] — the *serving engine*: [`forest::Forest`]
//!   range-partitions a key set across N per-shard `SearchTree`s behind
//!   a fence router, answers the global ordered surface (rank/select,
//!   stitched cursors/ranges, split-and-dispatch sorted batches), fans
//!   reads out over scoped threads (`par_search_batch`/`par_range`),
//!   and saves/opens as one `.cobt` file per shard plus a manifest;
//! * [`tiered`] — the *write path*: [`TieredForest`] layers an
//!   LSM-style memtable (sorted inserts + tombstones) over an immutable
//!   `Forest` base, keeps the full ordered surface rank-correct across
//!   tiers, and compacts in the background into fresh `.cobt` shards
//!   published by atomic epoch-versioned manifest swap;
//! * [`workload`] — reproducible workloads: uniform random keys (the
//!   paper's 10 M random searches), the §II-A affinity-graph random walk,
//!   and skewed variants for extensions;
//! * [`trace`] — position/address trace collection for the cache
//!   simulator from bare indexers (whole backends trace through
//!   [`SearchBackend::search_traced`]).

pub mod adaptive;
pub mod backend;
pub mod cursor;
pub mod explicit;
pub mod facade;
pub mod fat;
pub mod forest;
pub mod implicit;
pub mod index_only;
pub mod kernel;
pub mod mapped;
pub(crate) mod slot;
pub mod tiered;
pub mod trace;
pub mod workload;

pub use adaptive::AdaptiveForest;
pub use backend::SearchBackend;
pub use cursor::{range_of, Cursor, Range};
pub use explicit::ExplicitTree;
pub use facade::{
    read_weight_sidecar, DescriptorKind, LayoutSource, SaveOptions, SearchTree, SearchTreeBuilder,
    Storage,
};
pub use fat::FatHeapTree;
pub use forest::{
    Forest, ForestBuilder, ForestCursor, ForestHit, ForestRange, ScrubReport, ShardRouter,
};
pub use implicit::{ImplicitTree, IndexOnlySearcher};
pub use index_only::IndexOnlyTree;
pub use mapped::MappedTree;
pub use tiered::{
    TierPlace, TieredBuilder, TieredConfig, TieredCursor, TieredForest, TieredHit, TieredRange,
    TieredSnapshot,
};
pub use workload::{UniformKeys, ZipfKeys, ZipfTable};
