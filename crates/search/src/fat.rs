//! Heap-resident fat-node ("wide node") search trees.
//!
//! A [`FatHeapTree`] stores a complete BST in the B-ary chunked order of
//! a [`cobtree_core::fat::FatLayout`]: each *chunk* packs a
//! `span`-level binary subtree into `2^span` contiguous slots (local
//! in-order, so the chunk's keys are ascending), and chunks are
//! arranged by the layout's chunk order (BFS / DFS / vEB over the fat
//! tree). Descent consumes one whole chunk per fat level — a rank-of-key
//! over the chunk picks the exit among its `2^span` children, replacing
//! `span` dependent binary branches with one wide compare
//! ([`kernel::FatPlane`]).
//!
//! This backend mirrors [`crate::implicit::ImplicitTree`]'s discipline:
//! the key array is the full `2^h − 1`-key complete tree (the facade
//! pads short key sets with explicit suprema before building), so
//! `key_count` counts stored slots and every in-order rank resolves.
//! The mapped twin ([`crate::mapped::MappedTree`]) instead serves the
//! raw `.cobt` bytes and masks padding by real-key count — both produce
//! identical ranks per chunk, hence identical results and traces.

use crate::kernel::{self, ArrayPlane, DescentPlane, FastPlane, FatPlane, Planes, PosRef};
use cobtree_core::error::{check_sorted_keys, Error, Result};
use cobtree_core::fat::FatIndex;
use cobtree_core::index::PositionIndex;
use cobtree_core::Tree;

/// A complete BST arranged in fat-node chunk order, searched by
/// rank-of-key descent. Slots that hold no node (each chunk's tail
/// padding, plus the partial top chunk's unused slots) are filled with
/// a copy of the smallest key and never compared.
///
/// ```
/// use cobtree_search::fat::FatHeapTree;
/// use cobtree_search::SearchBackend;
/// use cobtree_core::fat::{FatIndex, FatLayout, FatOrder};
///
/// let layout = FatLayout::new(FatOrder::Veb, 16)?;
/// let keys: Vec<u64> = (1..=127).map(|k| k * 10).collect();
/// let tree = FatHeapTree::try_build(FatIndex::try_new(layout, 7)?, &keys)?;
/// let pos = tree.search(640).expect("stored key");
/// assert_eq!(tree.slots()[pos as usize], 640);
/// assert_eq!(tree.key_count(), 127);
/// # Ok::<(), cobtree_core::Error>(())
/// ```
pub struct FatHeapTree<K> {
    tree: Tree,
    index: FatIndex,
    slots: Vec<K>,
}

/// The fat kernels' view of a [`FatHeapTree`]: typed slots, every chunk
/// fully live up to its span (suprema included — they compare greater
/// than every real key, so they behave exactly like the mapped plane's
/// excluded padding).
struct FatSlotPlane<'a, K> {
    index: &'a FatIndex,
    slots: &'a [K],
}

impl<K: Copy + Ord> FatPlane for FatSlotPlane<'_, K> {
    type Key = K;

    #[inline]
    fn fat_index(&self) -> &FatIndex {
        self.index
    }

    #[inline]
    fn live_count(&self, fat_depth: u32, _t: u64) -> u32 {
        (1u32 << self.index.span_of(fat_depth)) - 1
    }

    #[inline]
    fn rank_in_chunk(&self, base: u64, live: u32, probe: K, upper: bool) -> (u32, Option<u32>) {
        let chunk = &self.slots[base as usize..base as usize + live as usize];
        let mut count = 0u32;
        let mut eq = None;
        for (j, &k) in chunk.iter().enumerate() {
            if k < probe || (upper && k == probe) {
                count += 1;
            }
            if k == probe {
                eq = Some(j as u32);
            }
        }
        (count, eq)
    }

    #[inline]
    fn prefetch_chunk(&self, base: u64) {
        if (base as usize) < self.slots.len() {
            kernel::prefetch_read(&self.slots[base as usize]);
        }
    }
}

impl<K: Ord + Copy> FatHeapTree<K> {
    /// Arranges `keys` (sorted, exactly `2^h − 1` of them) into chunk
    /// order.
    ///
    /// # Errors
    /// [`Error::EmptyKeys`] / [`Error::UnsortedKeys`] /
    /// [`Error::KeyCountMismatch`].
    pub fn try_build(index: FatIndex, keys: &[K]) -> Result<Self> {
        let tree = Tree::try_new(index.height())?;
        check_sorted_keys(keys)?;
        if keys.len() as u64 != tree.len() {
            return Err(Error::KeyCountMismatch {
                expected: tree.len(),
                got: keys.len() as u64,
            });
        }
        let mut slots = vec![keys[0]; index.slot_capacity() as usize];
        for i in tree.nodes() {
            let p = index.position(i, tree.depth(i)) as usize;
            slots[p] = keys[(tree.in_order_rank(i) - 1) as usize];
        }
        Ok(Self { tree, index, slots })
    }

    /// Builds the tree, panicking where [`FatHeapTree::try_build`]
    /// errors — convenience for tests.
    ///
    /// # Panics
    /// See [`FatHeapTree::try_build`].
    #[must_use]
    pub fn build(index: FatIndex, keys: &[K]) -> Self {
        match Self::try_build(index, keys) {
            Ok(tree) => tree,
            Err(e) => panic!("{e}"),
        }
    }

    /// The layout's position arithmetic.
    #[must_use]
    pub fn index(&self) -> &FatIndex {
        &self.index
    }

    /// The slot array in chunk order (`slot_capacity` entries, holes
    /// filled with the smallest key).
    #[must_use]
    pub fn slots(&self) -> &[K] {
        &self.slots
    }
}

impl<K> std::fmt::Debug for FatHeapTree<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FatHeapTree")
            .field("height", &self.tree.height())
            .field("arity", &self.index.layout().arity())
            .field("slots", &self.slots.len())
            .finish()
    }
}

/// The kernels descend whole chunks through [`FatSlotPlane`]; the
/// reference walk descends the same slots one binary node at a time
/// over [`FatIndex::position`].
impl<K: Ord + Copy> Planes for FatHeapTree<K> {
    type Key = K;

    #[inline]
    fn fast_plane(
        &self,
    ) -> FastPlane<impl DescentPlane<Key = K> + '_, impl FatPlane<Key = K> + '_> {
        // Always whole chunks: the binary arm is never built.
        FastPlane::<ArrayPlane<'_, K>, _>::Fat(FatSlotPlane {
            index: &self.index,
            slots: &self.slots,
        })
    }

    #[inline]
    fn reference_plane(&self) -> impl DescentPlane<Key = K> + '_ {
        ArrayPlane::new(&self.slots, PosRef::Index(&self.index), self.tree.height())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SearchBackend;
    use cobtree_core::fat::{FatLayout, FatOrder};

    fn tree_for(order: FatOrder, arity: u32, h: u32) -> FatHeapTree<u64> {
        let layout = FatLayout::new(order, arity).unwrap();
        let index = FatIndex::try_new(layout, h).unwrap();
        let keys: Vec<u64> = (1..=(1u64 << h) - 1).map(|k| k * 3).collect();
        FatHeapTree::build(index, &keys)
    }

    #[test]
    fn fat_kernel_matches_binary_oracle_every_layout() {
        for layout in FatLayout::ALL {
            for h in [1, 2, 3, 5, 8] {
                let index = FatIndex::try_new(layout, h).unwrap();
                let n = (1u64 << h) - 1;
                let keys: Vec<u64> = (1..=n).map(|k| k * 3).collect();
                let t = FatHeapTree::build(index, &keys);
                for probe in 0..=(n * 3 + 2) {
                    assert_eq!(
                        t.search(probe),
                        t.search_reference(probe),
                        "{layout} h={h} probe {probe}"
                    );
                }
            }
        }
    }

    #[test]
    fn fat_traces_agree_between_kernel_and_slow_path() {
        for layout in FatLayout::ALL {
            let index = FatIndex::try_new(layout, 7).unwrap();
            let keys: Vec<u64> = (1..=127).map(|k| k * 2 + 1).collect();
            let t = FatHeapTree::build(index, &keys);
            for probe in [0u64, 3, 7, 100, 254, 255, 256] {
                let mut slow = Vec::new();
                let mut fast = Vec::new();
                let rs = t.search_traced(probe, &mut slow);
                let rf = SearchBackend::search_traced_kernel(&t, probe, &mut fast);
                assert_eq!(rs, rf, "{layout} probe {probe}");
                assert_eq!(slow, fast, "{layout} probe {probe}");
            }
        }
    }

    #[test]
    fn fat_bounds_match_sorted_array() {
        for arity in [2u32, 4, 8, 16, 64] {
            let t = tree_for(FatOrder::Veb, arity, 6);
            let sorted: Vec<u64> = (1..=63).map(|k| k * 3).collect();
            for probe in 0..=200u64 {
                let lb = sorted.partition_point(|&k| k < probe) as u64 + 1;
                let ub = sorted.partition_point(|&k| k <= probe) as u64 + 1;
                assert_eq!(
                    SearchBackend::lower_bound_rank(&t, probe),
                    lb,
                    "B={arity} lb({probe})"
                );
                assert_eq!(
                    SearchBackend::upper_bound_rank(&t, probe),
                    ub,
                    "B={arity} ub({probe})"
                );
            }
        }
    }

    #[test]
    fn interleaved_batch_matches_serial_for_all_widths() {
        let t = tree_for(FatOrder::Dfs, 16, 8);
        let probes: Vec<u64> = (0..600u64)
            .map(|i| i.wrapping_mul(2_654_435_761) % 800)
            .collect();
        let serial: Vec<Option<u64>> = probes.iter().map(|&p| t.search(p)).collect();
        let mut out = Vec::new();
        for width in [1usize, 3, 8, 16] {
            t.search_batch_interleaved(&probes, width, &mut out);
            assert_eq!(out, serial, "width {width}");
        }
        let sum: u64 = serial
            .iter()
            .flatten()
            .fold(0u64, |a, &p| a.wrapping_add(p));
        assert_eq!(t.search_batch_checksum(&probes), sum);
    }

    #[test]
    fn rank_select_round_trips() {
        let t = tree_for(FatOrder::Bfs, 8, 6);
        for rank in 1..=63u64 {
            let k = SearchBackend::key_at_rank(&t, rank).unwrap();
            assert_eq!(k, rank * 3);
            let p = SearchBackend::position_of_rank(&t, rank).unwrap();
            assert_eq!(t.slots()[p as usize], k);
        }
        assert_eq!(SearchBackend::key_at_rank(&t, 0), None);
        assert_eq!(SearchBackend::key_at_rank(&t, 64), None);
    }
}
