//! Pointer-less ("implicit") laid-out search trees (§IV-E).
//!
//! Only keys are stored, in layout order. Navigation happens on BFS
//! indices (`i → 2i` or `2i+1`); every visited node costs one position
//! computation (e.g. Listing 1 for MINWEP) plus one memory access.
//!
//! [`IndexOnlySearcher`] reproduces the paper's trick for timing the
//! index arithmetic alone: storing keys `1..=|V|` lets the key of node
//! `i` be inferred from its in-order rank "without lookup", so a search
//! executes all transitions and index computations with zero memory
//! accesses.

use crate::kernel::{ArrayPlane, DescentPlane, FastPlane, FatPlane, NoFatPlane, Planes, PosRef};
use cobtree_core::error::{check_sorted_keys, Error, Result};
use cobtree_core::index::{PositionIndex, StepPlan};
use cobtree_core::Tree;

/// A complete BST stored as a key array in layout order, navigated by
/// index arithmetic. Owns its position index, so it moves freely into
/// facades and across threads.
///
/// ```
/// use cobtree_search::{ImplicitTree, SearchBackend};
/// use cobtree_core::NamedLayout;
///
/// let keys: Vec<u64> = (1..=127).map(|k| k * 10).collect();
/// let tree = ImplicitTree::try_build(NamedLayout::MinWep.indexer(7), &keys)?;
/// let pos = tree.search(640).expect("stored key");
/// assert_eq!(tree.keys()[pos as usize], 640);
///
/// // The key array *is* the layout order — which is why an
/// // `ImplicitTree` serialized by `SearchTree::write_file` can be served
/// // back byte-for-byte by the mapped backend (`SearchTree::open`).
/// assert_eq!(tree.keys().len(), 127);
/// assert_eq!(tree.key_count(), 127);
/// # Ok::<(), cobtree_core::Error>(())
/// ```
pub struct ImplicitTree<K> {
    tree: Tree,
    index: Box<dyn PositionIndex>,
    keys: Vec<K>,
    /// Compiled descent plan: closed-form coefficients where the layout
    /// has them, otherwise a flat position table recorded for free while
    /// arranging the keys. `None` only for uncompilable layouts on
    /// trees too tall to materialize a `u32` table (`h > 31`), where the
    /// kernels fall back to the virtual indexer.
    plan: Option<StepPlan>,
}

impl<K: Ord + Copy> ImplicitTree<K> {
    /// Builds the key array in the order defined by `index`.
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
        // Keep a compiled plan whose levels are straight-line arithmetic
        // or an existing table; for everything else (the WEP family's
        // data-dependent loops, the generic interpreter) record the
        // position table during the arrange pass below — the positions
        // are computed there anyway, so the table is free.
        let compiled = index.compile_plan();
        let use_compiled = matches!(
            compiled,
            Some(StepPlan::Terms { .. }) | Some(StepPlan::Table { .. })
        );
        let mut table = (!use_compiled && tree.height() <= 31).then(|| vec![0u32; keys.len()]);
        let mut arranged = vec![keys[0]; keys.len()];
        for i in tree.nodes() {
            let p = index.position(i, tree.depth(i)) as usize;
            arranged[p] = keys[(tree.in_order_rank(i) - 1) as usize];
            if let Some(t) = &mut table {
                t[(i - 1) as usize] = p as u32;
            }
        }
        let plan = if use_compiled {
            compiled
        } else if let Some(t) = table {
            Some(StepPlan::from_positions(tree.height(), t))
        } else {
            compiled
        };
        Ok(Self {
            tree,
            index,
            keys: arranged,
            plan,
        })
    }

    /// The compiled descent plan, when one exists.
    #[must_use]
    pub fn plan(&self) -> Option<&StepPlan> {
        self.plan.as_ref()
    }

    /// Builds the tree, panicking where [`ImplicitTree::try_build`]
    /// errors — convenience for tests and examples.
    ///
    /// # Panics
    /// See [`ImplicitTree::try_build`].
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

    /// Key array in layout order.
    #[must_use]
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The position index navigating this tree.
    #[must_use]
    pub fn index(&self) -> &dyn PositionIndex {
        self.index.as_ref()
    }
}

impl<K> std::fmt::Debug for ImplicitTree<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImplicitTree")
            .field("height", &self.tree.height())
            .field("len", &self.keys.len())
            .finish()
    }
}

/// Keys in layout order; the kernels take positions from the compiled
/// plan (the virtual indexer when there is none), the reference walk
/// from the indexer.
impl<K: Ord + Copy> Planes for ImplicitTree<K> {
    type Key = K;

    #[inline]
    fn fast_plane(
        &self,
    ) -> FastPlane<impl DescentPlane<Key = K> + '_, impl FatPlane<Key = K> + '_> {
        let pos = match &self.plan {
            Some(plan) => PosRef::Plan(plan),
            None => PosRef::Index(self.index.as_ref()),
        };
        FastPlane::<_, NoFatPlane<K>>::Binary(ArrayPlane::new(&self.keys, pos, self.tree.height()))
    }

    #[inline]
    fn reference_plane(&self) -> impl DescentPlane<Key = K> + '_ {
        ArrayPlane::new(
            &self.keys,
            PosRef::Index(self.index.as_ref()),
            self.tree.height(),
        )
    }
}

/// Times pure index computation: keys are the in-order ranks `1..=n`, so
/// comparisons need no memory at all (§IV-E footnote 1). Every transition
/// still performs the full position computation, whose result is folded
/// into a checksum the optimizer cannot discard.
pub struct IndexOnlySearcher<'a> {
    tree: Tree,
    index: &'a dyn PositionIndex,
}

impl<'a> IndexOnlySearcher<'a> {
    /// Creates a searcher over the arithmetic layout `index`.
    #[must_use]
    pub fn new(index: &'a dyn PositionIndex) -> Self {
        Self {
            tree: Tree::new(index.height()),
            index,
        }
    }

    /// "Searches" for in-order rank `key ∈ 1..=n`, computing the layout
    /// position of every node on the path; returns the sum of positions.
    #[inline]
    pub fn search(&self, key: u64) -> u64 {
        let h = self.tree.height();
        let mut i = 1u64;
        let mut acc = 0u64;
        for d in 0..h {
            acc = acc.wrapping_add(self.index.position(i, d));
            let k = self.tree.in_order_rank(i);
            match key.cmp(&k) {
                std::cmp::Ordering::Equal => break,
                std::cmp::Ordering::Less => i *= 2,
                std::cmp::Ordering::Greater => i = 2 * i + 1,
            }
        }
        acc
    }

    /// Checksum over a batch of keys.
    #[must_use]
    pub fn search_batch_checksum(&self, keys: &[u64]) -> u64 {
        let mut acc = 0u64;
        for &k in keys {
            acc = acc.wrapping_add(self.search(k));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SearchBackend;
    use crate::explicit::ExplicitTree;
    use cobtree_core::NamedLayout;

    #[test]
    fn implicit_finds_every_key_under_every_indexer() {
        for layout in NamedLayout::ALL {
            let idx = layout.indexer(8);
            let keys: Vec<u64> = (1..=255).collect();
            let t = ImplicitTree::build(idx, &keys);
            for k in 1..=255u64 {
                // The match must exist and the found slot must hold it.
                assert_eq!(
                    t.search(k).map(|p| t.keys()[p as usize]),
                    Some(k),
                    "{layout} lost key {k}"
                );
            }
            assert_eq!(t.search(0), None);
            assert_eq!(t.search(256), None);
        }
    }

    #[test]
    fn implicit_and_explicit_agree_on_membership() {
        let layout = NamedLayout::MinWep;
        let h = 9;
        let mat = layout.materialize(h);
        let idx = layout.indexer(h);
        let keys: Vec<u64> = (1..=mat.len()).map(|k| k * 3).collect();
        let et = ExplicitTree::build(&mat, &keys);
        let it = ImplicitTree::build(idx, &keys);
        for probe in 0..=(mat.len() * 3 + 2) {
            assert_eq!(
                et.search(probe).is_some(),
                it.search(probe).is_some(),
                "probe {probe}"
            );
        }
    }

    #[test]
    fn try_build_rejects_bad_keys() {
        let idx = NamedLayout::MinWep.indexer(3);
        assert_eq!(
            ImplicitTree::try_build(idx, &[1u64, 1, 2, 3, 4, 5, 6]).unwrap_err(),
            Error::UnsortedKeys { index: 0 }
        );
        let idx = NamedLayout::MinWep.indexer(3);
        assert_eq!(
            ImplicitTree::try_build(idx, &[1u64, 2, 3]).unwrap_err(),
            Error::KeyCountMismatch {
                expected: 7,
                got: 3
            }
        );
    }

    #[test]
    fn index_only_searcher_visits_the_right_path() {
        let layout = NamedLayout::MinWep;
        let h = 7;
        let idx = layout.indexer(h);
        let s = IndexOnlySearcher::new(idx.as_ref());
        let tree = Tree::new(h);
        for key in 1..=tree.len() {
            let expect: u64 = tree
                .search_path(key)
                .iter()
                .map(|&i| idx.position(i, tree.depth(i)))
                .sum();
            assert_eq!(s.search(key), expect, "key {key}");
        }
    }

    #[test]
    fn checksums_deterministic() {
        let idx = NamedLayout::HalfWep.indexer(8);
        let s = IndexOnlySearcher::new(idx.as_ref());
        let keys: Vec<u64> = (1..=255).collect();
        assert_eq!(
            s.search_batch_checksum(&keys),
            s.search_batch_checksum(&keys)
        );
    }
}
