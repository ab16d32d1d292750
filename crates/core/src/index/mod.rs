//! Pointer-less position arithmetic (§IV-E).
//!
//! An *implicit* (pointer-less) search tree stores only keys, in layout
//! order. Navigating it requires computing, for every transition, the
//! position of the next BFS node — the code the paper times in Figure 4
//! (bottom panels). This module provides:
//!
//! * [`simple`] — O(1)/O(d) closed forms for the four simple layouts
//!   (breadth-first, in-breadth, in-order, pre-order);
//! * [`veb`] — descent loops for the non-alternating van Emde Boas family
//!   (PRE-VEB, BENDER, IN-VEB);
//! * [`wep`] — a faithful port of the paper's **Listing 1**
//!   (breadth-first → MINWEP index translation), parameterized over the
//!   `partition()` cut so it also serves MINEP, plus MINWLA;
//! * [`generic`] — a spec-interpreting indexer that works for *every*
//!   [`RecursiveSpec`](crate::spec::RecursiveSpec) (used for the alternating vEB variants and
//!   HALFWEP, and as ground truth in tests).
//!
//! All indexers implement [`PositionIndex`]; positions are 0-based.

pub mod generic;
pub mod plan;
pub mod simple;
pub mod veb;
pub mod wep;

pub use plan::{FramePlan, StepPlan};

use crate::layout::Layout;
use crate::named::NamedLayout;
use crate::tree::{NodeId, Tree};

/// Arithmetic mapping from BFS node index to layout position.
///
/// `depth` must equal `⌊log2 node⌋`; search loops track it incrementally,
/// mirroring the paper's `index(i, d, h)` signature.
///
/// Beyond the point mapping, the trait provides **in-order navigation**:
/// the stored keys of a laid-out complete BST are sorted by in-order
/// rank, so the 1-based rank `r ∈ 1..=2^h − 1` is the ordinal of a key
/// and [`PositionIndex::position_of_in_order`] /
/// [`PositionIndex::in_order_of_position`] translate between ordinals
/// and layout positions — the mapping every ordered-map operation
/// (rank/select, cursors, range scans) is built on.
pub trait PositionIndex: Send + Sync {
    /// Tree height `h` this indexer serves.
    fn height(&self) -> u32;

    /// 0-based position of `node` (with `depth = ⌊log2 node⌋`).
    fn position(&self, node: NodeId, depth: u32) -> u64;

    /// Convenience: position with the depth computed on the fly.
    fn position_of(&self, node: NodeId) -> u64 {
        self.position(node, 63 - node.leading_zeros())
    }

    /// Number of storage slots the layout addresses — the exclusive
    /// upper bound of [`PositionIndex::position`]. For permutation
    /// layouts this is exactly `2^h − 1`; *sparse* layouts (the fat
    /// family, which pads chunks to a power-of-two stride) override it
    /// with something larger, and positions that hold no node return
    /// `None` from [`PositionIndex::node_at_position`].
    fn slot_capacity(&self) -> u64 {
        (1u64 << self.height()) - 1
    }

    /// Layout position of the node with 1-based in-order rank
    /// `rank ∈ 1..=2^h − 1` — i.e. the position of the `rank`-th
    /// smallest key.
    ///
    /// # Panics
    /// Panics if `rank` is outside `1..=2^h − 1`.
    fn position_of_in_order(&self, rank: u64) -> u64 {
        let tree = Tree::new(self.height());
        let node = tree.node_at_in_order(rank);
        self.position(node, tree.depth(node))
    }

    /// BFS node stored at layout `position`, or `None` when `position`
    /// is outside `0..2^h − 1`.
    ///
    /// The default inverts the permutation by scanning all `2^h − 1`
    /// nodes — `O(2^h)`. Implementations holding a materialized inverse
    /// (e.g. [`MaterializedIndex`]) override it with a table lookup.
    fn node_at_position(&self, position: u64) -> Option<NodeId> {
        let tree = Tree::new(self.height());
        if position >= tree.len() {
            return None;
        }
        tree.nodes()
            .find(|&i| self.position(i, tree.depth(i)) == position)
    }

    /// 1-based in-order rank of the key stored at layout `position` —
    /// the inverse of [`PositionIndex::position_of_in_order`]. `None`
    /// when `position` is out of range. Costs whatever
    /// [`PositionIndex::node_at_position`] costs.
    fn in_order_of_position(&self, position: u64) -> Option<u64> {
        let tree = Tree::new(self.height());
        self.node_at_position(position)
            .map(|node| tree.in_order_rank(node))
    }

    /// Compiles this indexer into a devirtualized [`StepPlan`] for the
    /// descent kernels, or `None` when no compiled form exists (the
    /// generic spec interpreter). The plan must be **bit-identical** to
    /// [`PositionIndex::position`] for every node.
    fn compile_plan(&self) -> Option<StepPlan> {
        None
    }
}

/// A materialized layout used as a [`PositionIndex`] (one array lookup,
/// both directions: the inverse permutation is materialized too).
pub struct MaterializedIndex {
    layout: Layout,
    nodes_by_position: Vec<NodeId>,
}

impl MaterializedIndex {
    /// Wraps a materialized layout (builds the inverse permutation once,
    /// so position → node queries are `O(1)`).
    #[must_use]
    pub fn new(layout: Layout) -> Self {
        let nodes_by_position = layout.nodes_by_position();
        Self {
            layout,
            nodes_by_position,
        }
    }

    /// The wrapped layout.
    #[must_use]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }
}

impl PositionIndex for MaterializedIndex {
    fn height(&self) -> u32 {
        self.layout.height()
    }

    fn position(&self, node: NodeId, _depth: u32) -> u64 {
        self.layout.position(node)
    }

    fn node_at_position(&self, position: u64) -> Option<NodeId> {
        self.nodes_by_position.get(position as usize).copied()
    }

    fn compile_plan(&self) -> Option<StepPlan> {
        // The layout already stores `positions[node − 1]` as `u32`:
        // copy it once (a memcpy, not a per-node re-derivation). The
        // plan's copy duplicates 4 bytes/node for the tree's lifetime —
        // accepted, since this index's own inverse table is twice that.
        Some(StepPlan::from_positions(
            self.layout.height(),
            self.layout.positions().to_vec(),
        ))
    }
}

impl NamedLayout {
    /// Fallible variant of [`NamedLayout::indexer`].
    ///
    /// # Errors
    /// [`crate::Error::HeightOutOfRange`] if `height` is `0` or exceeds
    /// [`crate::tree::MAX_HEIGHT`].
    pub fn try_indexer(&self, height: u32) -> crate::error::Result<Box<dyn PositionIndex>> {
        // The indexers are pure arithmetic, so the only structural
        // precondition is a representable tree.
        crate::tree::Tree::try_new(height)?;
        Ok(self.indexer(height))
    }

    /// The fastest available arithmetic indexer for this layout.
    ///
    /// The alternating vEB variants and HALFWEP fall back to the generic
    /// spec interpreter; everything else has a dedicated closed form or
    /// descent loop (the paper's Figure 4 compares exactly these costs).
    #[must_use]
    pub fn indexer(&self, height: u32) -> Box<dyn PositionIndex> {
        use crate::spec::CutRule;
        match self {
            NamedLayout::PreBreadth => Box::new(simple::BfsIndex::new(height)),
            NamedLayout::InBreadth => Box::new(simple::InBreadthIndex::new(height)),
            NamedLayout::InOrder => Box::new(simple::InOrderIndex::new(height)),
            NamedLayout::PreOrder => Box::new(simple::PreOrderIndex::new(height)),
            NamedLayout::PreVeb => Box::new(veb::PreVebIndex::new(height, CutRule::Half)),
            NamedLayout::Bender => Box::new(veb::PreVebIndex::new(height, CutRule::Bender)),
            NamedLayout::InVeb => Box::new(veb::InVebIndex::new(height)),
            NamedLayout::MinWla => Box::new(wep::MinWlaIndex::new(height)),
            NamedLayout::MinEp => Box::new(wep::WepIndex::new(height, wep::partition_minep)),
            NamedLayout::MinWep => Box::new(wep::WepIndex::minwep(height)),
            NamedLayout::PreVebA | NamedLayout::InVebA | NamedLayout::HalfWep => {
                Box::new(generic::GenericIndexer::new(self.spec(), height))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn materialized_index_round_trips() {
        let layout = NamedLayout::MinWep.materialize(8);
        let idx = MaterializedIndex::new(layout.clone());
        for i in 1..=layout.len() {
            assert_eq!(idx.position_of(i), layout.position(i));
        }
        assert_eq!(idx.height(), 8);
    }

    #[test]
    fn in_order_navigation_round_trips_on_every_indexer() {
        for layout in [
            NamedLayout::MinWep,
            NamedLayout::PreVeb,
            NamedLayout::InOrder,
        ] {
            let h = 6;
            let idx = layout.indexer(h);
            let tree = crate::tree::Tree::new(h);
            for rank in 1..=tree.len() {
                let p = idx.position_of_in_order(rank);
                assert!(p < tree.len());
                assert_eq!(
                    idx.in_order_of_position(p),
                    Some(rank),
                    "{layout} rank {rank}"
                );
            }
            assert_eq!(idx.node_at_position(tree.len()), None);
            assert_eq!(idx.in_order_of_position(u64::MAX), None);
        }
    }

    #[test]
    fn materialized_inverse_matches_generic_scan() {
        let layout = NamedLayout::HalfWep.materialize(7);
        let mat = MaterializedIndex::new(layout);
        let generic = NamedLayout::HalfWep.indexer(7);
        for p in 0..mat.layout().len() {
            assert_eq!(mat.node_at_position(p), generic.node_at_position(p));
        }
    }
}
