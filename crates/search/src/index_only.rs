//! The index-only storage backend: keys in plain sorted order, layout
//! positions computed on demand.
//!
//! This generalizes the paper's §IV-E trick (keys `1..=n` inferred from
//! the BFS index) to arbitrary key sets: the descent compares against
//! the *in-order* key array — no layout-ordered storage exists at all —
//! and the position index is consulted only to *report* layout
//! positions, so results stay interchangeable with the other backends.
//! When the keys really are `1..=n`, [`crate::IndexOnlySearcher`]
//! remains the memory-access-free instrument the paper times.

use crate::kernel::{DescentPlane, FastPlane, FatPlane, NoFatPlane, Planes, PosRef, RankPlane};
use cobtree_core::error::{check_sorted_keys, Error, Result};
use cobtree_core::index::{PositionIndex, StepPlan};
use cobtree_core::Tree;

/// A complete BST stored as a *sorted* key array, searched by BFS
/// descent with positions derived from an owned arithmetic index.
pub struct IndexOnlyTree<K> {
    tree: Tree,
    index: Box<dyn PositionIndex>,
    /// `keys[r - 1]` is the key with in-order rank `r` — i.e. the input
    /// keys verbatim, in sorted order.
    keys: Vec<K>,
    /// Compiled descent plan where the layout has one (`None` for the
    /// generic-interpreter layouts — no table is materialized here, so
    /// building stays O(n) regardless of layout).
    plan: Option<StepPlan>,
}

impl<K: Ord + Copy> IndexOnlyTree<K> {
    /// Builds the backend over `index` and strictly sorted `keys`.
    ///
    /// # Errors
    /// [`Error::EmptyKeys`] / [`Error::UnsortedKeys`] /
    /// [`Error::KeyCountMismatch`].
    pub fn try_build(index: Box<dyn PositionIndex>, keys: &[K]) -> Result<Self> {
        let tree = Tree::try_new(index.height())?;
        check_sorted_keys(keys)?;
        if keys.len() as u64 != tree.len() {
            return Err(Error::KeyCountMismatch {
                expected: tree.len(),
                got: keys.len() as u64,
            });
        }
        let plan = index.compile_plan();
        Ok(Self {
            tree,
            index,
            keys: keys.to_vec(),
            plan,
        })
    }

    /// Builds the backend, panicking where [`IndexOnlyTree::try_build`]
    /// errors.
    ///
    /// # Panics
    /// See [`IndexOnlyTree::try_build`].
    #[must_use]
    pub fn build(index: Box<dyn PositionIndex>, keys: &[K]) -> Self {
        match Self::try_build(index, keys) {
            Ok(tree) => tree,
            Err(e) => panic!("{e}"),
        }
    }

    /// Number of keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `false`; at least the root exists.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The sorted key array.
    #[must_use]
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The position index used to report layout positions.
    #[must_use]
    pub fn index(&self) -> &dyn PositionIndex {
        self.index.as_ref()
    }
}

impl<K> std::fmt::Debug for IndexOnlyTree<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexOnlyTree")
            .field("height", &self.tree.height())
            .field("len", &self.keys.len())
            .finish()
    }
}

/// Comparisons read the sorted key array by rank (no layout-ordered
/// storage exists); positions, needed only to report a match or record
/// a trace, come from the compiled plan for the kernels (the virtual
/// indexer when there is none) and from the indexer for the reference
/// walk.
impl<K: Ord + Copy> Planes for IndexOnlyTree<K> {
    type Key = K;

    #[inline]
    fn fast_plane(
        &self,
    ) -> FastPlane<impl DescentPlane<Key = K> + '_, impl FatPlane<Key = K> + '_> {
        let pos = match &self.plan {
            Some(plan) => PosRef::Plan(plan),
            None => PosRef::Index(self.index.as_ref()),
        };
        FastPlane::<_, NoFatPlane<K>>::Binary(RankPlane::new(&self.keys, pos, self.tree.height()))
    }

    #[inline]
    fn reference_plane(&self) -> impl DescentPlane<Key = K> + '_ {
        RankPlane::new(
            &self.keys,
            PosRef::Index(self.index.as_ref()),
            self.tree.height(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SearchBackend;
    use crate::implicit::ImplicitTree;
    use cobtree_core::NamedLayout;

    #[test]
    fn agrees_with_implicit_backend_on_positions() {
        for layout in [
            NamedLayout::MinWep,
            NamedLayout::PreVeb,
            NamedLayout::InOrder,
        ] {
            let h = 8;
            let keys: Vec<u64> = (1..=(1u64 << h) - 1).map(|k| k * 5 + 1).collect();
            let io = IndexOnlyTree::build(layout.indexer(h), &keys);
            let it = ImplicitTree::build(layout.indexer(h), &keys);
            for probe in 0..=keys.len() as u64 * 5 + 2 {
                assert_eq!(io.search(probe), it.search(probe), "{layout} probe {probe}");
            }
        }
    }

    #[test]
    fn traced_positions_match_implicit_trace() {
        let h = 7;
        let keys: Vec<u64> = (1..=(1u64 << h) - 1).collect();
        let io = IndexOnlyTree::build(NamedLayout::HalfWep.indexer(h), &keys);
        let it = ImplicitTree::build(NamedLayout::HalfWep.indexer(h), &keys);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for key in [1u64, 33, 64, 127] {
            a.clear();
            b.clear();
            io.search_traced(key, &mut a);
            it.search_traced(key, &mut b);
            assert_eq!(a, b, "key {key}");
        }
    }

    #[test]
    fn rejects_invalid_keys() {
        let idx = NamedLayout::MinWep.indexer(3);
        assert_eq!(
            IndexOnlyTree::<u64>::try_build(idx, &[]).unwrap_err(),
            Error::EmptyKeys
        );
        let idx = NamedLayout::MinWep.indexer(3);
        assert!(matches!(
            IndexOnlyTree::try_build(idx, &[1u64, 2]).unwrap_err(),
            Error::KeyCountMismatch { .. }
        ));
    }
}
