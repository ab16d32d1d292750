//! The mapped storage backend: a [`crate::SearchBackend`] served directly from
//! the bytes of a saved tree file — zero deserialization.
//!
//! This is the serving model the paper's layouts exist for: a
//! hierarchical layout is a *static artifact*, computed once, whose
//! payoff arrives when the byte order on the storage medium **is** the
//! layout order (Demaine et al. make the same point for external
//! memory). [`MappedTree`] closes that loop — it opens a file written
//! in the [`cobtree_core::format`] container and navigates it in place:
//!
//! * the descent reads keys straight out of the mapped key region at
//!   `key_region + position × key_width`;
//! * positions come from the file's layout descriptor — rebuilt
//!   arithmetic indexer for named layouts, or little-endian `u32` reads
//!   from the mapped index region for materialized ones;
//! * padding slots are detected arithmetically (in-order rank beyond
//!   the stored key count compares as `+∞`), so the file needs no
//!   sentinel values.
//!
//! Because the backend implements the full [`crate::SearchBackend`] contract,
//! every cursor, range scan, rank/select query and sorted-batch search
//! from the ordered-map API works over a file verbatim — and visits
//! exactly the positions the in-memory backends visit, so cache-replay
//! results and `search_batch_checksum`s are identical across storage.
//!
//! The bytes behind the tree come from either a real `mmap(2)` (via the
//! `memmap2` shim — see `shims/README.md`) or an owned buffer
//! ([`MappedTree::read`] / [`MappedTree::from_bytes`]); validation and
//! navigation are oblivious to which.

use crate::kernel::{self, DescentPlane, FastPlane, FatPlane, MappedPlane, Planes, PosRef};
use cobtree_core::error::{Error, Result};
use cobtree_core::fat::{FatIndex, FatLayout};
use cobtree_core::format::{self, FixedKey, Geometry};
use cobtree_core::index::{PositionIndex, StepPlan};
use cobtree_core::NamedLayout;
use std::marker::PhantomData;
use std::path::Path;

/// Where the file bytes live. Both variants are immutable for the
/// tree's lifetime.
enum Region {
    /// A buffer owned by this process (`read`/`from_bytes`).
    Owned(Vec<u8>),
    /// A read-only file mapping (`open`).
    Mapped(memmap2::Mmap),
}

impl Region {
    fn bytes(&self) -> &[u8] {
        match self {
            Region::Owned(v) => v,
            Region::Mapped(m) => m,
        }
    }
}

/// A search tree served from the raw bytes of a saved `.cobt` file.
///
/// Construction fully validates the container (magic, version,
/// checksums, shape, permutation) and then never copies: searches read
/// keys at `key_region + position × width` for exactly the nodes the
/// descent visits.
///
/// ```
/// use cobtree_search::{MappedTree, SaveOptions, SearchBackend, SearchTree, Storage};
/// use cobtree_core::NamedLayout;
///
/// let tree = SearchTree::builder()
///     .layout(NamedLayout::MinWep)
///     .storage(Storage::Implicit)
///     .keys((1..=100u64).map(|k| k * 3))
///     .build()?;
/// let mapped: MappedTree<u64> = MappedTree::from_bytes(tree.encode(&SaveOptions::new())?)?;
/// assert_eq!(mapped.key_count(), 100);
/// assert_eq!(mapped.search(30), tree.search(30)); // identical positions
/// assert_eq!(mapped.search(31), None);
/// # Ok::<(), cobtree_core::Error>(())
/// ```
pub struct MappedTree<K> {
    region: Region,
    geometry: Geometry,
    /// `Some` for named-layout files (arithmetic positions); `None` for
    /// table files (positions read from the mapped index region).
    arithmetic: Option<Box<dyn PositionIndex>>,
    /// Compiled descent plan for named-layout files whose arithmetic
    /// compiles (see [`cobtree_core::index::StepPlan`]). Deliberately
    /// *not* a materialized table: open stays zero-copy — table files
    /// read positions from the mapped index region instead.
    plan: Option<StepPlan>,
    /// The named layout, when the file carries one (drives re-save).
    named: Option<NamedLayout>,
    /// `Some` for fat-node files (header arity > 0): rank-of-key
    /// descent over whole mapped chunks instead of binary descent.
    fat_index: Option<FatIndex>,
    label: String,
    _keys: PhantomData<fn() -> K>,
}

/// The fat kernels' view of a mapped fat-node file: raw little-endian
/// key bytes in chunk order, padding masked by real-key count (padding
/// slot *bytes* are zeros in the file and must never be compared —
/// unlike the heap plane's explicit suprema).
struct FatBytesPlane<'a, K> {
    index: &'a FatIndex,
    bytes: &'a [u8],
    key_count: u64,
    _keys: PhantomData<fn() -> K>,
}

impl<K: FixedKey> FatPlane for FatBytesPlane<'_, K> {
    type Key = K;

    #[inline]
    fn fat_index(&self) -> &FatIndex {
        self.index
    }

    #[inline]
    fn live_count(&self, fat_depth: u32, t: u64) -> u32 {
        self.index.chunk_real_count(fat_depth, t, self.key_count)
    }

    #[inline]
    fn rank_in_chunk(&self, base: u64, live: u32, probe: K, upper: bool) -> (u32, Option<u32>) {
        kernel::byte_rank_in_chunk::<K>(self.bytes, base, self.index.stride(), live, probe, upper)
    }

    #[inline]
    fn prefetch_chunk(&self, base: u64) {
        let off = base as usize * K::WIDTH;
        if off < self.bytes.len() {
            kernel::prefetch_read(&self.bytes[off]);
        }
    }
}

impl<K: FixedKey> MappedTree<K> {
    /// Memory-maps `path` and validates it as a tree file of `K` keys.
    ///
    /// # Errors
    /// [`Error::Io`] on filesystem failures, [`Error::KeyTypeMismatch`]
    /// when the file stores a different key type, and every
    /// [`cobtree_core::format::parse`] error on malformed bytes.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = std::fs::File::open(path).map_err(|e| Error::io(&e))?;
        // Safety contract (see the memmap2 shim): tree files are
        // written once and only read afterwards.
        let map = unsafe { memmap2::Mmap::map(&file) }.map_err(|e| Error::io(&e))?;
        Self::from_region(Region::Mapped(map))
    }

    /// Reads `path` into an owned buffer instead of mapping it — same
    /// validation, same behaviour, no page-cache sharing.
    ///
    /// # Errors
    /// As for [`MappedTree::open`].
    pub fn read(path: impl AsRef<Path>) -> Result<Self> {
        let bytes = std::fs::read(path).map_err(|e| Error::io(&e))?;
        Self::from_bytes(bytes)
    }

    /// [`MappedTree::open`] through an explicit storage seam: real
    /// seams memory-map as usual, while fault schedules
    /// (`supports_mmap() == false`) load the file through `io.read`
    /// into owned memory so scripted read faults reach the validation
    /// path instead of being hidden by the page cache.
    ///
    /// # Errors
    /// As for [`MappedTree::open`].
    pub fn open_with_io(
        path: impl AsRef<Path>,
        io: &dyn cobtree_core::io::StorageIo,
    ) -> Result<Self> {
        if io.supports_mmap() {
            Self::open(path)
        } else {
            Self::from_bytes(io.read(path.as_ref())?)
        }
    }

    /// Serves a tree from an in-memory image (e.g. the output of
    /// `SearchTree::encode`, or bytes fetched from object
    /// storage).
    ///
    /// # Errors
    /// As for [`MappedTree::open`], minus the I/O cases.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        Self::from_region(Region::Owned(bytes))
    }

    fn from_region(region: Region) -> Result<Self> {
        let geometry = format::parse(region.bytes())?;
        format::expect_key_type::<K>(&geometry)?;
        let label = geometry.descriptor_str(region.bytes()).to_string();
        let (arithmetic, named, fat_index) = if geometry.arity > 0 {
            // `parse` already cross-checked the label against the
            // header arity, so this parse cannot fail on a valid file.
            let layout: FatLayout = label.parse()?;
            (
                None,
                None,
                Some(FatIndex::try_new(layout, geometry.height)?),
            )
        } else {
            match geometry.kind {
                format::DescriptorKind::Named => {
                    let layout: NamedLayout = label.parse()?;
                    (
                        Some(layout.try_indexer(geometry.height)?),
                        Some(layout),
                        None,
                    )
                }
                format::DescriptorKind::Table => (None, None, None),
            }
        };
        let plan = arithmetic.as_ref().and_then(|ix| ix.compile_plan());
        Ok(Self {
            region,
            geometry,
            arithmetic,
            named,
            fat_index,
            plan,
            label,
            _keys: PhantomData,
        })
    }

    /// Number of stored (real) keys.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.geometry.key_count
    }

    /// `false`; files carry at least one key.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total slots including padding, `2^h − 1`.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.geometry.capacity()
    }

    /// The layout name or label stored in the file's descriptor.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The named layout, when the file's descriptor carries one.
    #[must_use]
    pub fn named_layout(&self) -> Option<NamedLayout> {
        self.named
    }

    /// The fat-node layout, when the file stores one (header arity > 0).
    #[must_use]
    pub fn fat_layout(&self) -> Option<FatLayout> {
        self.fat_index.as_ref().map(FatIndex::layout)
    }

    /// Block alignment the writer used.
    #[must_use]
    pub fn block_bytes(&self) -> u64 {
        self.geometry.block_bytes
    }
}

impl<K> MappedTree<K> {
    /// Total size of the backing file image in bytes.
    #[must_use]
    pub fn file_len(&self) -> u64 {
        self.region.bytes().len() as u64
    }

    /// Byte offset of the key region inside the file — the `base` to
    /// hand a cache replay so simulated addresses equal real file
    /// offsets (the region is aligned to [`MappedTree::block_bytes`]).
    #[must_use]
    pub fn key_region_offset(&self) -> u64 {
        self.geometry.keys.0 as u64
    }

    /// `true` when the bytes come from a live `mmap` rather than an
    /// owned buffer.
    #[must_use]
    pub fn is_memory_mapped(&self) -> bool {
        matches!(self.region, Region::Mapped(_))
    }
}

/// Keys straight from the mapped key region. Positions come from the
/// compiled plan (named layouts), the mapped `u32` index region (table
/// files), or the virtual indexer (named layouts that do not compile);
/// the reference walk uses the indexer or the table. Fat files descend
/// whole mapped chunks through [`FatBytesPlane`].
impl<K: FixedKey> Planes for MappedTree<K> {
    type Key = K;

    #[inline]
    fn fast_plane(
        &self,
    ) -> FastPlane<impl DescentPlane<Key = K> + '_, impl FatPlane<Key = K> + '_> {
        if let Some(index) = &self.fat_index {
            return FastPlane::Fat(FatBytesPlane {
                index,
                bytes: self.key_bytes(),
                key_count: self.geometry.key_count,
                _keys: PhantomData,
            });
        }
        let pos = match (&self.plan, &self.arithmetic) {
            (Some(plan), _) => PosRef::Plan(plan),
            _ => self.reference_positions(),
        };
        FastPlane::Binary(self.binary_plane(pos))
    }

    #[inline]
    fn reference_plane(&self) -> impl DescentPlane<Key = K> + '_ {
        self.binary_plane(self.reference_positions())
    }
}

impl<K: FixedKey> MappedTree<K> {
    /// The file's key region.
    #[inline]
    fn key_bytes(&self) -> &[u8] {
        let (off, len) = self.geometry.keys;
        &self.region.bytes()[off..off + len]
    }

    /// Uncompiled positions: the fat or named indexer, or the mapped
    /// `u32` index region of a table file.
    #[inline]
    fn reference_positions(&self) -> PosRef<'_> {
        match (&self.fat_index, &self.arithmetic) {
            (Some(fat), _) => PosRef::Index(fat),
            (None, Some(ix)) => PosRef::Index(ix.as_ref()),
            (None, None) => {
                let (off, len) = self.geometry.index;
                PosRef::Raw32(&self.region.bytes()[off..off + len])
            }
        }
    }

    #[inline]
    fn binary_plane<'a>(&'a self, pos: PosRef<'a>) -> MappedPlane<'a, K> {
        MappedPlane::new(
            self.key_bytes(),
            pos,
            self.geometry.height,
            self.geometry.key_count,
        )
    }
}

impl<K> std::fmt::Debug for MappedTree<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedTree")
            .field("layout", &self.label)
            .field("height", &self.geometry.height)
            .field("len", &self.geometry.key_count)
            .field("file_len", &self.file_len())
            .field("mmap", &self.is_memory_mapped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SearchBackend;
    use crate::facade::{SaveOptions, SearchTree, Storage};
    use cobtree_core::NamedLayout;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cobtree-mapped-{}-{name}.cobt", std::process::id()))
    }

    fn build(layout: NamedLayout, n: u64) -> SearchTree<u64> {
        SearchTree::builder()
            .layout(layout)
            .storage(Storage::Implicit)
            .keys((1..=n).map(|k| k * 7))
            .build()
            .unwrap()
    }

    #[test]
    fn mapped_file_agrees_with_implicit_on_everything() {
        let source = build(NamedLayout::MinWep, 300);
        let path = temp_path("agree");
        source.write_file(&path, &SaveOptions::new()).unwrap();
        let mapped: MappedTree<u64> = MappedTree::open(&path).unwrap();
        assert!(mapped.is_memory_mapped());
        assert_eq!(mapped.len(), 300);
        assert_eq!(mapped.label(), "MINWEP");
        assert_eq!(mapped.named_layout(), Some(NamedLayout::MinWep));
        for probe in 0..=2200u64 {
            assert_eq!(mapped.search(probe), source.search(probe), "probe {probe}");
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for probe in [7u64, 1050, 2100, 9999] {
            a.clear();
            b.clear();
            assert_eq!(
                mapped.search_traced(probe, &mut a),
                source.search_traced(probe, &mut b)
            );
            assert_eq!(a, b, "trace for {probe}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_and_open_validate_identically() {
        let source = build(NamedLayout::PreVeb, 64);
        let path = temp_path("read");
        source.write_file(&path, &SaveOptions::new()).unwrap();
        let via_read: MappedTree<u64> = MappedTree::read(&path).unwrap();
        assert!(!via_read.is_memory_mapped());
        let via_open: MappedTree<u64> = MappedTree::open(&path).unwrap();
        let probes: Vec<u64> = (0..500).collect();
        assert_eq!(
            via_read.search_batch_checksum(&probes),
            via_open.search_batch_checksum(&probes)
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_and_wrong_key_type_are_typed_errors() {
        assert!(matches!(
            MappedTree::<u64>::open(temp_path("nonexistent")).unwrap_err(),
            Error::Io { .. }
        ));
        let bytes = build(NamedLayout::InOrder, 20)
            .encode(&SaveOptions::new())
            .unwrap();
        assert_eq!(
            MappedTree::<u32>::from_bytes(bytes).unwrap_err(),
            Error::KeyTypeMismatch {
                expected: 1,
                got: 2
            }
        );
    }

    #[test]
    fn table_descriptor_files_serve_without_an_indexer() {
        // A materialized-layout source round-trips through the table
        // descriptor kind: positions come from the mapped index region.
        let layout = NamedLayout::HalfWep.materialize(6);
        let tree = SearchTree::builder()
            .layout(layout)
            .storage(Storage::Implicit)
            .keys((1..=63u64).map(|k| k * 2))
            .build()
            .unwrap();
        let mapped: MappedTree<u64> =
            MappedTree::from_bytes(tree.encode(&SaveOptions::new()).unwrap()).unwrap();
        assert_eq!(mapped.named_layout(), None);
        for probe in 0..=130u64 {
            assert_eq!(mapped.search(probe), tree.search(probe), "probe {probe}");
        }
    }
}
