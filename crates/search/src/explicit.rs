//! Pointer-based ("explicit") laid-out search trees.
//!
//! "To ensure that the wall clock search time is not affected by the time
//! taken to compute the position of a node in the layout, we store two
//! child 'pointers' with each node." (§II-B). Nodes live in layout order;
//! child pointers are 32-bit positions (`u32::MAX` = missing child).

use crate::backend::SearchBackend;
use crate::kernel;
use cobtree_core::error::{check_sorted_keys, Error, Result};
use cobtree_core::Layout;

/// One stored node: key plus two child positions.
///
/// 12 bytes with `K = u32` (the closest practical realization of the
/// paper's small explicit nodes), 16 bytes with `K = u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct Node<K> {
    /// Search key.
    pub key: K,
    /// Position of the left child, or [`ExplicitTree::NIL`].
    pub left: u32,
    /// Position of the right child, or [`ExplicitTree::NIL`].
    pub right: u32,
}

/// A complete BST stored as an array of [`Node`]s in layout order.
///
/// Permutation layouts fill the array densely (`2^h − 1` nodes). Sparse
/// layouts — the fat-node family, which pads every chunk to a
/// power-of-two stride — leave holes ([`ExplicitTree::try_build_from_index`]);
/// holes carry [`ExplicitTree::NIL`] children and are never reachable
/// from the root, so every search path sees only real nodes.
#[derive(Debug, Clone)]
pub struct ExplicitTree<K> {
    height: u32,
    root_pos: u32,
    /// Stored keys: `2^h − 1`, regardless of array holes.
    key_count: u64,
    nodes: Vec<Node<K>>,
}

impl<K: Ord + Copy> ExplicitTree<K> {
    /// Missing-child sentinel.
    pub const NIL: u32 = u32::MAX;

    /// Builds the tree from `keys` (must be strictly sorted ascending;
    /// its length must be `2^h − 1` for the layout's height `h`). Key
    /// `keys[r-1]` goes to the node with in-order rank `r`.
    ///
    /// # Errors
    /// [`Error::EmptyKeys`] / [`Error::UnsortedKeys`] /
    /// [`Error::KeyCountMismatch`].
    pub fn try_build(layout: &Layout, keys: &[K]) -> Result<Self> {
        let tree = layout.tree();
        check_sorted_keys(keys)?;
        if keys.len() as u64 != tree.len() {
            return Err(Error::KeyCountMismatch {
                expected: tree.len(),
                got: keys.len() as u64,
            });
        }
        let mut nodes = vec![
            Node {
                key: keys[0],
                left: Self::NIL,
                right: Self::NIL,
            };
            keys.len()
        ];
        for i in tree.nodes() {
            let p = layout.position(i) as usize;
            nodes[p] = Node {
                key: keys[(tree.in_order_rank(i) - 1) as usize],
                left: tree
                    .left(i)
                    .map_or(Self::NIL, |c| layout.position(c) as u32),
                right: tree
                    .right(i)
                    .map_or(Self::NIL, |c| layout.position(c) as u32),
            };
        }
        Ok(Self {
            height: tree.height(),
            root_pos: layout.position(1) as u32,
            key_count: tree.len(),
            nodes,
        })
    }

    /// Builds from any [`PositionIndex`](cobtree_core::index::PositionIndex)
    /// — including *sparse* ones, where
    /// [`slot_capacity`](cobtree_core::index::PositionIndex::slot_capacity)
    /// exceeds `2^h − 1`. The node array gets one slot per layout
    /// position; slots no node maps to hold the smallest key with `NIL`
    /// children and are unreachable (the root path only ever follows
    /// real child pointers). This is how the `Explicit` storage serves
    /// fat-node layouts: same chunked addresses as the implicit fat
    /// plane, navigated purely by pointers.
    ///
    /// # Errors
    /// [`Error::EmptyKeys`] / [`Error::UnsortedKeys`] /
    /// [`Error::KeyCountMismatch`].
    pub fn try_build_from_index(
        index: &dyn cobtree_core::index::PositionIndex,
        keys: &[K],
    ) -> Result<Self> {
        let tree = cobtree_core::Tree::try_new(index.height())?;
        check_sorted_keys(keys)?;
        if keys.len() as u64 != tree.len() {
            return Err(Error::KeyCountMismatch {
                expected: tree.len(),
                got: keys.len() as u64,
            });
        }
        let mut nodes = vec![
            Node {
                key: keys[0],
                left: Self::NIL,
                right: Self::NIL,
            };
            index.slot_capacity() as usize
        ];
        for i in tree.nodes() {
            let p = index.position(i, tree.depth(i)) as usize;
            nodes[p] = Node {
                key: keys[(tree.in_order_rank(i) - 1) as usize],
                left: tree
                    .left(i)
                    .map_or(Self::NIL, |c| index.position(c, tree.depth(c)) as u32),
                right: tree
                    .right(i)
                    .map_or(Self::NIL, |c| index.position(c, tree.depth(c)) as u32),
            };
        }
        Ok(Self {
            height: tree.height(),
            root_pos: index.position(1, 0) as u32,
            key_count: tree.len(),
            nodes,
        })
    }

    /// Builds the tree, panicking where [`ExplicitTree::try_build`]
    /// errors — convenience for tests and examples.
    ///
    /// # Panics
    /// See [`ExplicitTree::try_build`].
    #[must_use]
    pub fn build(layout: &Layout, keys: &[K]) -> Self {
        match Self::try_build(layout, keys) {
            Ok(tree) => tree,
            Err(e) => panic!("{e}"),
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `false`; the tree always holds at least the root.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Position of the root node in the array.
    #[must_use]
    pub fn root_position(&self) -> u64 {
        u64::from(self.root_pos)
    }

    /// Raw node array (layout order) — used to derive address traces.
    #[must_use]
    pub fn nodes(&self) -> &[Node<K>] {
        &self.nodes
    }
}

impl<K: Ord + Copy> ExplicitTree<K> {
    /// The pointer walk — follow child positions, compare keys, no
    /// arithmetic: the hot loop the paper times, kept as the oracle
    /// the pointer kernels are verified against and as the traced
    /// descent (`visited` records every visited position). Returns the
    /// match's array position (`None` on a miss) and the BFS node the
    /// walk ended at: the match's, or on a miss the virtual leaf
    /// `2^h ≤ i < 2^{h+1}` it fell out at.
    fn walk(&self, key: K, mut visited: Option<&mut Vec<u64>>) -> (Option<u32>, u64) {
        let mut pos = self.root_pos;
        let mut i = 1u64;
        for _ in 0..self.height {
            if let Some(v) = visited.as_deref_mut() {
                v.push(u64::from(pos));
            }
            let node = &self.nodes[pos as usize];
            let go_right = match key.cmp(&node.key) {
                std::cmp::Ordering::Equal => return (Some(pos), i),
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Greater => true,
            };
            pos = if go_right { node.right } else { node.left };
            i = (i << 1) | u64::from(go_right);
        }
        (None, i)
    }

    /// Array position of the node with 1-based in-order `rank`, found by
    /// walking child pointers along its root path (`O(depth)`; no index
    /// arithmetic is stored with an explicit tree).
    fn walk_to_rank(&self, rank: u64) -> Option<u32> {
        let tree = cobtree_core::Tree::try_new(self.height).ok()?;
        if rank < 1 || rank > tree.len() {
            return None;
        }
        let target = tree.node_at_in_order(rank);
        let d = tree.depth(target);
        let mut pos = self.root_pos;
        for k in 1..=d {
            let node = &self.nodes[pos as usize];
            pos = if (target >> (d - k)) & 1 == 1 {
                node.right
            } else {
                node.left
            };
        }
        Some(pos)
    }
}

impl ExplicitTree<u64> {
    /// Builds with keys equal to in-order ranks `1..=n` (the paper's
    /// setup).
    #[must_use]
    pub fn with_rank_keys(layout: &Layout) -> ExplicitTree<u64> {
        let n = layout.len();
        let keys: Vec<u64> = (1..=n).collect();
        ExplicitTree::build(layout, &keys)
    }
}

/// Pointer kernels for search, the pointer walk for the oracle and
/// traces, and child-pointer descents (O(h) total) for ranks and sorted
/// batches — the generic rank-based descents would pay an O(depth)
/// pointer walk per visited node.
impl<K: Ord + Copy> SearchBackend<K> for ExplicitTree<K> {
    fn height(&self) -> u32 {
        self.height
    }

    fn key_count(&self) -> u64 {
        self.key_count
    }

    #[inline]
    fn search(&self, key: K) -> Option<u64> {
        kernel::explicit_search(&self.nodes, self.root_pos, self.height, key)
    }

    fn search_traced(&self, key: K, visited: &mut Vec<u64>) -> Option<u64> {
        self.walk(key, Some(visited)).0.map(u64::from)
    }

    fn key_at_rank(&self, rank: u64) -> Option<K> {
        self.walk_to_rank(rank).map(|p| self.nodes[p as usize].key)
    }

    fn position_of_rank(&self, rank: u64) -> Option<u64> {
        self.walk_to_rank(rank).map(u64::from)
    }

    fn search_reference(&self, key: K) -> Option<u64> {
        self.walk(key, None).0.map(u64::from)
    }

    fn search_traced_kernel(&self, key: K, visited: &mut Vec<u64>) -> Option<u64> {
        kernel::explicit_search_traced(&self.nodes, self.root_pos, self.height, key, visited)
    }

    fn search_batch_interleaved(&self, keys: &[K], width: usize, out: &mut Vec<Option<u64>>) {
        let emit = kernel::collect_into(out, keys.len());
        kernel::explicit_fold_interleaved(
            &self.nodes,
            self.root_pos,
            self.height,
            keys,
            width,
            emit,
        );
    }

    fn search_batch_checksum(&self, keys: &[K]) -> u64 {
        let mut acc = 0u64;
        kernel::explicit_fold_interleaved(
            &self.nodes,
            self.root_pos,
            self.height,
            keys,
            kernel::DEFAULT_LANES,
            kernel::sum_into(&mut acc),
        );
        acc
    }

    fn lower_bound_rank(&self, key: K) -> u64 {
        match self.walk(key, None) {
            (Some(_), i) => cobtree_core::Tree::new(self.height).in_order_rank(i),
            // Exactly `i − 2^h` slots precede the leaf's gap in
            // in-order, all strictly below `key`.
            (None, i) => (i - (1u64 << self.height)) + 1,
        }
    }

    fn upper_bound_rank(&self, key: K) -> u64 {
        let mut pos = self.root_pos;
        let mut i = 1u64;
        for _ in 0..self.height {
            let node = &self.nodes[pos as usize];
            let go_right = key >= node.key;
            pos = if go_right { node.right } else { node.left };
            i = (i << 1) | u64::from(go_right);
        }
        (i - (1u64 << self.height)) + 1
    }

    fn search_sorted_batch(&self, keys: &[K], out: &mut Vec<Option<u64>>) -> Result<()> {
        self.explicit_sorted_batch(keys, out, None)
    }

    fn search_sorted_batch_traced(
        &self,
        keys: &[K],
        out: &mut Vec<Option<u64>>,
        visited: &mut Vec<u64>,
    ) -> Result<()> {
        self.explicit_sorted_batch(keys, out, Some(visited))
    }
}

impl<K: Ord + Copy> ExplicitTree<K> {
    /// Pointer-stack variant of the generic sorted-batch kernel: the
    /// descent stack carries array positions, so each newly visited node
    /// is one pointer dereference instead of an O(depth) root walk.
    fn explicit_sorted_batch(
        &self,
        keys: &[K],
        out: &mut Vec<Option<u64>>,
        mut visited: Option<&mut Vec<u64>>,
    ) -> Result<()> {
        out.clear();
        out.reserve(keys.len());
        // (array position, key, exclusive upper bound from ancestors).
        let mut stack: Vec<(u32, K, Option<K>)> = Vec::with_capacity(self.height as usize);
        let mut prev: Option<K> = None;
        for (idx, &probe) in keys.iter().enumerate() {
            if let Some(p) = prev {
                if probe < p {
                    return Err(Error::UnsortedBatch { index: idx - 1 });
                }
            }
            prev = Some(probe);
            while let Some(&(_, _, upper)) = stack.last() {
                match upper {
                    Some(u) if probe >= u => {
                        stack.pop();
                    }
                    _ => break,
                }
            }
            if stack.is_empty() {
                if let Some(v) = visited.as_deref_mut() {
                    v.push(u64::from(self.root_pos));
                }
                stack.push((self.root_pos, self.nodes[self.root_pos as usize].key, None));
            }
            let result = loop {
                let &(pos, k, upper) = stack.last().expect("stack holds at least the root");
                let go_right = match probe.cmp(&k) {
                    std::cmp::Ordering::Equal => break Some(u64::from(pos)),
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Greater => true,
                };
                let node = &self.nodes[pos as usize];
                let child = if go_right { node.right } else { node.left };
                if child == Self::NIL {
                    break None;
                }
                if let Some(v) = visited.as_deref_mut() {
                    v.push(u64::from(child));
                }
                let cupper = if go_right { upper } else { Some(k) };
                stack.push((child, self.nodes[child as usize].key, cupper));
            };
            out.push(result);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobtree_core::NamedLayout;

    #[test]
    fn finds_every_key_in_every_layout() {
        for layout in NamedLayout::ALL {
            let l = layout.materialize(8);
            let t = ExplicitTree::with_rank_keys(&l);
            for k in 1..=l.len() {
                // The found position must exist and hold the key.
                assert_eq!(
                    t.search(k).map(|pos| t.nodes()[pos as usize].key),
                    Some(k),
                    "{layout} lost key {k}"
                );
            }
            assert_eq!(t.search(0), None);
            assert_eq!(t.search(l.len() + 1), None);
        }
    }

    #[test]
    fn custom_keys_respect_order() {
        let l = NamedLayout::MinWep.materialize(4);
        let keys: Vec<i64> = (0..15).map(|i| i * 10 - 40).collect();
        let t = ExplicitTree::build(&l, &keys);
        for &k in &keys {
            assert!(t.search(k).is_some());
        }
        assert!(t.search(5).is_none());
    }

    #[test]
    fn search_path_length_bounded_by_height() {
        let l = NamedLayout::PreVeb.materialize(10);
        let t = ExplicitTree::with_rank_keys(&l);
        let mut visited = Vec::new();
        for k in [1u64, 512, 1023] {
            visited.clear();
            t.search_traced(k, &mut visited);
            assert!(visited.len() <= 10);
            assert_eq!(visited[0], t.root_position());
        }
    }

    #[test]
    fn traced_path_is_root_to_node_path() {
        let l = NamedLayout::InOrder.materialize(6);
        let t = ExplicitTree::with_rank_keys(&l);
        let tree = cobtree_core::Tree::new(6);
        let mut visited = Vec::new();
        for key in 1..=tree.len() {
            visited.clear();
            t.search_traced(key, &mut visited);
            let expect: Vec<u64> = tree
                .search_path(key)
                .into_iter()
                .map(|i| l.position(i))
                .collect();
            assert_eq!(visited, expect, "key {key}");
        }
    }

    #[test]
    fn try_build_rejects_bad_keys() {
        let l = NamedLayout::InOrder.materialize(2);
        assert_eq!(
            ExplicitTree::try_build(&l, &[3u64, 2, 1]).unwrap_err(),
            Error::UnsortedKeys { index: 0 }
        );
        assert_eq!(
            ExplicitTree::<u64>::try_build(&l, &[]).unwrap_err(),
            Error::EmptyKeys
        );
        assert_eq!(
            ExplicitTree::try_build(&l, &[1u64, 2]).unwrap_err(),
            Error::KeyCountMismatch {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn build_panics_on_unsorted_keys() {
        let l = NamedLayout::InOrder.materialize(2);
        let _ = ExplicitTree::build(&l, &[3u64, 2, 1]);
    }

    #[test]
    fn sparse_fat_index_build_matches_dense_semantics() {
        use cobtree_core::fat::{FatIndex, FatLayout, FatOrder};
        use cobtree_core::index::PositionIndex;
        let index = FatIndex::try_new(FatLayout::new(FatOrder::Veb, 16).unwrap(), 7).unwrap();
        let keys: Vec<u64> = (1..=127).map(|k| k * 5).collect();
        let t = ExplicitTree::try_build_from_index(&index, &keys).unwrap();
        assert_eq!(t.nodes().len() as u64, index.slot_capacity());
        assert_eq!(SearchBackend::key_count(&t), 127);
        assert_eq!(t.root_position(), index.position(1, 0));
        let tree = cobtree_core::Tree::new(7);
        for k in 1..=127u64 {
            // Found at the fat-layout position of the in-order node.
            let node = tree.node_at_in_order(k);
            assert_eq!(
                t.search(k * 5),
                Some(index.position(node, tree.depth(node)))
            );
            assert_eq!(t.search(k * 5 + 1), None);
        }
        let sorted: Vec<u64> = keys.clone();
        for probe in 0..=640u64 {
            let lb = sorted.partition_point(|&k| k < probe) as u64 + 1;
            assert_eq!(
                SearchBackend::lower_bound_rank(&t, probe),
                lb,
                "lb({probe})"
            );
        }
    }

    #[test]
    fn checksum_is_stable() {
        let l = NamedLayout::HalfWep.materialize(8);
        let t = ExplicitTree::with_rank_keys(&l);
        let keys: Vec<u64> = (1..=255).collect();
        let a = t.search_batch_checksum(&keys);
        let b = t.search_batch_checksum(&keys);
        assert_eq!(a, b);
        assert_ne!(a, 0);
    }
}
