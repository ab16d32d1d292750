//! Spec-interpreting pointer-less indexer.
//!
//! Computes layout positions for *any* [`RecursiveSpec`] by replaying the
//! engine's recursion for a single target node instead of materializing
//! the whole permutation. Where the engine sorts the top subtree's leaves
//! by their just-assigned positions, this indexer computes a leaf's
//! position-rank recursively (`leaf_rank`); both sides
//! share the block arithmetic (`crate::branch`), so they agree exactly.
//!
//! Complexity is O(h²) per query in the worst case (each descent step may
//! trigger an O(h) leaf-rank computation) — fine as ground truth and for
//! the layouts without dedicated fast paths (alternating vEB variants,
//! HALFWEP).

use crate::branch::{Branch, Mode};
use crate::index::PositionIndex;
use crate::spec::RecursiveSpec;
use crate::tree::NodeId;

/// Pointer-less indexer for an arbitrary Recursive Layout.
pub struct GenericIndexer {
    spec: RecursiveSpec,
    height: u32,
}

impl GenericIndexer {
    /// Creates an indexer interpreting `spec` for a tree of `height` levels.
    #[must_use]
    pub fn new(spec: RecursiveSpec, height: u32) -> Self {
        Self { spec, height }
    }

    /// The interpreted spec.
    #[must_use]
    pub fn spec(&self) -> &RecursiveSpec {
        &self.spec
    }

    /// Position-rank of `leaf` (a descendant of `root` at relative depth
    /// `g − 1`) among the `2^{g−1}` leaves of the height-`g` top subtree
    /// rooted at `root`, arranged per `mode`.
    fn leaf_rank(&self, root: NodeId, g: u32, mode: Mode, leaf: NodeId) -> u64 {
        leaf_rank(&self.spec, root, g, mode, leaf)
    }
}

/// Position-rank of `leaf` among the leaves of the height-`g` subtree
/// rooted at `root`, arranged per `mode`.
fn leaf_rank(spec: &RecursiveSpec, root: NodeId, g: u32, mode: Mode, leaf: NodeId) -> u64 {
    if g == 1 {
        debug_assert_eq!(leaf, root);
        return 0;
    }
    let br = Branch::new(spec, mode, g);
    // The leaf lives in one of A's bottom subtrees (the top subtree of
    // this sub-branch holds only depths < g' ≤ g − 1).
    let rel = g - 1; // relative depth of `leaf` under `root`
    let c = leaf >> (rel - br.g); // bottom-subtree root containing leaf
    let x = c >> 1; // its parent leaf inside the sub-top
    let q = 2 * leaf_rank(spec, root, br.g, mode, x) + (c & 1);
    let (_, child_mode) = br.bottom_block(q);
    let leaves_per_bottom = 1u64 << (g - 1 - br.g);
    br.bottom_block_rank(q) * leaves_per_bottom + leaf_rank(spec, c, g - br.g, child_mode, leaf)
}

impl PositionIndex for GenericIndexer {
    fn height(&self) -> u32 {
        self.height
    }

    fn position(&self, node: NodeId, depth: u32) -> u64 {
        let mut root: NodeId = 1;
        let mut root_depth = 0u32;
        let mut h = self.height;
        let mut lo = 0u64;
        let mut mode = Mode::root(&self.spec);
        loop {
            if h == 1 {
                debug_assert_eq!(root, node);
                return lo;
            }
            let br = Branch::new(&self.spec, mode, h);
            let rel = depth - root_depth;
            if rel < br.g {
                // Target inside the top subtree; same mode, same root.
                lo += br.a_offset();
                h = br.g;
            } else {
                let c = node >> (rel - br.g); // bottom root on the path
                let x = c >> 1; // its parent leaf in A
                let q = 2 * self.leaf_rank(root, br.g, mode, x) + (c & 1);
                let (off, child_mode) = br.bottom_block(q);
                lo += off;
                root = c;
                root_depth += br.g;
                h = br.bh;
                mode = child_mode;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::named::NamedLayout;
    use crate::tree::Tree;

    /// The generic indexer must agree with the engine *exactly* (same
    /// permutation, not merely canonically) because both use the shared
    /// branch arithmetic and natural child ordering.
    fn check_exact(layout: NamedLayout, h: u32) {
        let idx = GenericIndexer::new(layout.spec(), h);
        let mat = layout.materialize(h);
        let t = Tree::new(h);
        for i in t.nodes() {
            assert_eq!(
                idx.position(i, t.depth(i)),
                mat.position(i),
                "{layout} node {i} h={h}"
            );
        }
    }

    #[test]
    fn generic_matches_engine_for_every_named_layout() {
        for layout in NamedLayout::ALL {
            for h in 1..=11 {
                check_exact(layout, h);
            }
        }
    }

    #[test]
    fn generic_matches_engine_at_moderate_height() {
        for layout in [
            NamedLayout::MinWep,
            NamedLayout::HalfWep,
            NamedLayout::InVebA,
            NamedLayout::PreVebA,
        ] {
            check_exact(layout, 14);
        }
    }
}
