//! The Hierarchical Layout engine: materializes any [`RecursiveSpec`] as a
//! permutation of the tree nodes.
//!
//! Generation follows the paper's recursion (§I-B) literally. At each
//! branch, a subtree of height `h` occupying a contiguous block is cut at
//! height `g` into a top subtree `A` and `2^g` bottom subtrees:
//!
//! * **In-order branch** — `A` is placed in the middle; the sequence of
//!   bottom subtrees (children of `A`'s leaves read in ascending position
//!   order, each leaf contributing its left then right child) is split in
//!   half, the first half going left of `A` (restriction (c));
//! * **Pre-order branch** — `A` is placed at the block end nearer its own
//!   parent leaf (restriction (f)), all bottom subtrees on the other side.
//!   On the left flank of a parent this mirrors into a post-order
//!   arrangement.
//!
//! On each side, bottom subtrees whose 1-based *outward* rank `t`
//! satisfies `t < k` are arranged pre-order with their root adjacent-most
//! towards `A`; the rest in-order (restriction (d)). Alternating layouts
//! reverse each side's sequence (Theorem 2). The per-branch arithmetic is
//! shared with the generic pointer-less indexer (`crate::branch`).
//!
//! Child-order choices that differ only by a tree automorphism (e.g. which
//! of a leaf's two children sits nearer `A`) are made in a fixed natural
//! way; comparisons against external golden data should therefore use
//! [`Layout::canonicalized`].

use crate::branch::{Branch, Mode};
use crate::error::{Error, Result};
use crate::layout::Layout;
use crate::spec::RecursiveSpec;
use crate::tree::{NodeId, Tree};

/// Largest height whose permutation can be materialized in memory
/// (positions are stored as `u32`; use index arithmetic beyond).
pub const MAX_MATERIALIZE_HEIGHT: u32 = 31;

/// Materializes `spec` for a tree of `height` levels.
///
/// # Errors
/// [`Error::HeightOutOfRange`] if `height` is 0 or large enough that the
/// permutation would not fit in memory (`height > 31`).
pub fn try_materialize(spec: &RecursiveSpec, height: u32) -> Result<Layout> {
    if !(1..=MAX_MATERIALIZE_HEIGHT).contains(&height) {
        return Err(Error::HeightOutOfRange {
            height,
            min: 1,
            max: MAX_MATERIALIZE_HEIGHT,
        });
    }
    let tree = Tree::new(height);
    let mut pos = vec![u32::MAX; tree.len() as usize];
    let mut gen = Generator {
        spec,
        pos: &mut pos,
    };
    gen.fill(1, height, 0, Mode::root(spec));
    Layout::try_from_positions(height, pos)
}

/// Materializes `spec` for a tree of `height` levels.
///
/// # Panics
/// Panics where [`try_materialize`] errors.
#[must_use]
pub fn materialize(spec: &RecursiveSpec, height: u32) -> Layout {
    match try_materialize(spec, height) {
        Ok(layout) => layout,
        Err(e) => panic!("{e}"),
    }
}

struct Generator<'a> {
    spec: &'a RecursiveSpec,
    pos: &'a mut [u32],
}

impl Generator<'_> {
    /// Lays out the subtree rooted at `node` (height `h`) into the block of
    /// positions `[lo, lo + 2^h − 1)`, arranged per `mode`.
    fn fill(&mut self, node: NodeId, h: u32, lo: u64, mode: Mode) {
        if h == 1 {
            self.pos[(node - 1) as usize] = lo as u32;
            return;
        }
        let br = Branch::new(self.spec, mode, h);
        self.fill(node, br.g, lo + br.a_offset(), mode);

        // Leaves of the top subtree, by the positions just assigned.
        let first = node << (br.g - 1);
        let mut leaves: Vec<NodeId> = (first..first + (1u64 << (br.g - 1))).collect();
        leaves.sort_by_key(|&x| self.pos[(x - 1) as usize]);

        for (li, &x) in leaves.iter().enumerate() {
            for side in 0..2u64 {
                let q = 2 * li as u64 + side;
                let (off, child_mode) = br.bottom_block(q);
                self.fill(2 * x + side, br.bh, lo + off, child_mode);
            }
        }
    }
}

/// Convenience: positions of all nodes of `tree` under `spec`, 1-based, in
/// BFS order — the presentation used in the paper's Figure 5.
#[must_use]
pub fn one_based_positions(spec: &RecursiveSpec, height: u32) -> Vec<u64> {
    let l = materialize(spec, height);
    Tree::new(height)
        .nodes()
        .map(|i| l.position(i) + 1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CutRule, RootOrder, Subscript};

    fn spec_in_order() -> RecursiveSpec {
        RecursiveSpec::new(RootOrder::InOrder, CutRule::One, Subscript::K(1))
    }

    fn spec_pre_order() -> RecursiveSpec {
        RecursiveSpec::new(RootOrder::PreOrder, CutRule::One, Subscript::Infinity)
    }

    #[test]
    fn in_order_spec_matches_traversal() {
        for h in 1..=10 {
            let t = Tree::new(h);
            let l = materialize(&spec_in_order(), h);
            for i in t.nodes() {
                assert_eq!(l.position(i) + 1, t.in_order_rank(i), "node {i}, h={h}");
            }
        }
    }

    #[test]
    fn pre_order_spec_matches_traversal() {
        // Classic pre-order rank by explicit path walk.
        fn pre_rank(t: &Tree, node: NodeId) -> u64 {
            let mut rank = 0;
            let mut cur = 1u64;
            let d = t.depth(node);
            for k in 1..=d {
                let next = node >> (d - k);
                rank += 1;
                if next == 2 * cur + 1 {
                    rank += t.subtree_len(2 * cur);
                }
                cur = next;
            }
            rank
        }
        for h in 1..=10 {
            let t = Tree::new(h);
            let l = materialize(&spec_pre_order(), h);
            for i in t.nodes() {
                assert_eq!(l.position(i), pre_rank(&t, i), "node {i}, h={h}");
            }
        }
    }

    #[test]
    fn breadth_first_spec_is_bfs_order() {
        let spec = RecursiveSpec::new(
            RootOrder::PreOrder,
            CutRule::BreadthFirst,
            Subscript::Infinity,
        );
        for h in 2..=9 {
            let l = materialize(&spec, h);
            for i in 1..=l.len() {
                assert_eq!(l.position(i), i - 1, "h={h} node {i}");
            }
        }
    }

    #[test]
    fn all_spec_families_yield_permutations() {
        let specs = [
            RecursiveSpec::new(RootOrder::InOrder, CutRule::Half, Subscript::K(1)),
            RecursiveSpec::new(RootOrder::InOrder, CutRule::Half, Subscript::K(1)).alternating(),
            RecursiveSpec::new(RootOrder::PreOrder, CutRule::Half, Subscript::Infinity),
            RecursiveSpec::new(RootOrder::PreOrder, CutRule::Half, Subscript::Infinity)
                .alternating(),
            RecursiveSpec::new(RootOrder::PreOrder, CutRule::Bender, Subscript::Infinity),
            RecursiveSpec::new(RootOrder::InOrder, CutRule::Half, Subscript::K(2)).alternating(),
            RecursiveSpec::new(RootOrder::InOrder, CutRule::One, Subscript::K(2))
                .with_cut_pre(CutRule::MinWepPre)
                .alternating(),
            RecursiveSpec::new(RootOrder::InOrder, CutRule::BreadthFirst, Subscript::K(1)),
            RecursiveSpec::new(RootOrder::InOrder, CutRule::Half, Subscript::K(3)),
        ];
        for spec in &specs {
            for h in 1..=12 {
                // from_positions (inside materialize) validates bijectivity.
                let _ = materialize(spec, h);
            }
        }
    }

    #[test]
    fn in_veb_h6_top_block_position() {
        // §II: for IN-VEB at h = 6, the top three levels occupy 1-based
        // positions 29..=35.
        let spec = RecursiveSpec::new(RootOrder::InOrder, CutRule::Half, Subscript::K(1));
        let l = materialize(&spec, 6);
        let mut top: Vec<u64> = (1..=7).map(|i| l.position(i) + 1).collect();
        top.sort_unstable();
        assert_eq!(top, vec![29, 30, 31, 32, 33, 34, 35]);
    }

    #[test]
    fn pre_veb_h6_top_block_position() {
        // §II: PRE-VEB arranges the top three levels first (positions 1..=7).
        let spec = RecursiveSpec::new(RootOrder::PreOrder, CutRule::Half, Subscript::Infinity);
        let l = materialize(&spec, 6);
        let mut top: Vec<u64> = (1..=7).map(|i| l.position(i) + 1).collect();
        top.sort_unstable();
        assert_eq!(top, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn minwep_h6_top_two_levels_at_31_to_33() {
        // §IV-C: "the top two levels of the tree are arranged together in
        // positions 31 to 33, indicating a cut of g = 2" (via g_I = 1 and
        // adjacent pre-order roots).
        let spec = RecursiveSpec::new(RootOrder::InOrder, CutRule::One, Subscript::K(2))
            .with_cut_pre(CutRule::MinWepPre)
            .alternating();
        let l = materialize(&spec, 6);
        let mut top: Vec<u64> = (1..=3).map(|i| l.position(i) + 1).collect();
        top.sort_unstable();
        assert_eq!(top, vec![31, 32, 33]);
    }

    #[test]
    fn subtree_blocks_are_contiguous() {
        // Every hierarchical layout keeps each recursion subtree contiguous;
        // in particular each child subtree of the root under g=1 cuts.
        let spec = RecursiveSpec::new(RootOrder::InOrder, CutRule::One, Subscript::K(2));
        let l = materialize(&spec, 8);
        let t = Tree::new(8);
        for root in [2u64, 3] {
            let mut ps: Vec<u64> = t
                .nodes()
                .filter(|&i| {
                    let d = t.depth(i);
                    d >= 1 && t.ancestor_at_depth(i, 1) == root
                })
                .map(|i| l.position(i))
                .collect();
            ps.sort_unstable();
            for w in ps.windows(2) {
                assert_eq!(w[1], w[0] + 1, "subtree of {root} not contiguous");
            }
        }
    }
}
