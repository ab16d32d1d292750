//! Index arithmetic for the WEP family: a faithful port of the paper's
//! **Listing 1** (breadth-first → MINWEP index translation).
//!
//! The listing exploits the `g_I(h) = 1` reformulation of MINWEP (§IV-C):
//! every in-order branch places its root mid-block with two pre-order
//! subtrees of height `h − 1` whose roots are adjacent to it, and all the
//! remaining structure comes from the pre-order cut `partition(h)`. The
//! same code therefore computes MINEP indices when `partition(h) = 1`
//! everywhere — the only difference between the two layouts.
//!
//! Bit tricks preserved from the listing: `i ^= r` maps post-order (left
//! flank, mirrored) walks onto pre-order ones; `i = ~i` flips the child
//! interpretation when entering a top subtree, which implements the
//! alternating ordering accumulated over nested branches; offsets `q` are
//! negated by `q ^= r` on mirrored flanks. All arithmetic is wrapping, as
//! in the original C.

use crate::index::plan::StepPlan;
use crate::index::PositionIndex;
use crate::tree::NodeId;

/// MINWEP's optimal pre-order cut — `partition()` from Listing 1.
#[inline]
#[must_use]
pub fn partition_minwep(h: u32) -> u32 {
    if h <= 5 {
        1
    } else {
        (h - 1) / 2
    }
}

/// MINEP: every pre-order subtree cut at the top.
#[inline]
#[must_use]
pub fn partition_minep(_h: u32) -> u32 {
    1
}

/// Breadth-first (BFS) index to WEP-family index translation; a direct
/// port of Listing 1 with the cut function (`partition`) pluggable.
///
/// Returns the **1-based** layout position, as in the paper.
#[inline]
#[must_use]
pub fn wep_index(partition: impl Fn(u32) -> u32, mut i: u64, mut d: u32, mut h: u32) -> u64 {
    h -= 1;
    let mut p: u64 = 1 << h; // MINWEP index being computed (root position)
    while d > 0 {
        d -= 1;
        let mut q: u64 = (i >> d) & 1; // initial offset (pre: q=1; post: q=0)
        let r = q.wrapping_sub(1); // bit reversal (pre: r=0; post: r=~0)
        i ^= r; // post-order is reversal of pre-order
        while d > 0 {
            // iterate until node is root of subtree
            let g = partition(h); // top subtree height
            if d < g {
                // node is in top subtree
                h = g; // set height to top subtree height
                i = !i; // alternate left/right ordering
            } else {
                // node is in bottom subtree
                h -= g; // bottom subtree height
                d -= g; // depth within bottom subtree
                let m = (1u64 << g) - 1; // number of nodes in top subtree
                q = q.wrapping_add(m); // advance past top subtree
                let k = (i >> d) & m; // subtree number (pre: k=0; in: k>=1)
                if k != 0 {
                    // in in-order subtree
                    q = q.wrapping_add((k << h) - k); // advance past k bottoms
                    h -= 1;
                    q = q.wrapping_add((1u64 << h) - 1); // to in-order root
                    break; // transition to in-order case
                }
            }
        }
        i ^= r; // restore i if post-order
        q ^= r; // negate offset if post-order
        p = p.wrapping_add(q); // advance to smaller in-order subtree
    }
    p
}

/// [`PositionIndex`] wrapper over [`wep_index`] for a fixed cut function.
pub struct WepIndex {
    height: u32,
    partition: fn(u32) -> u32,
    /// Whether this is MINWEP, which compiles to [`StepPlan::Frames`].
    /// Carried as a flag: `fn` pointers have no reliable identity to
    /// compare against [`partition_minwep`].
    minwep: bool,
}

impl WepIndex {
    /// Creates a WEP-family indexer for any pre-order cut function
    /// (e.g. [`partition_minep`]). Its plan is [`StepPlan::Wep`]; use
    /// [`WepIndex::minwep`] for MINWEP's frame plan.
    #[must_use]
    pub fn new(height: u32, partition: fn(u32) -> u32) -> Self {
        Self {
            height,
            partition,
            minwep: false,
        }
    }

    /// The MINWEP indexer ([`partition_minwep`]), whose plan is
    /// [`StepPlan::Frames`].
    #[must_use]
    pub fn minwep(height: u32) -> Self {
        Self {
            height,
            partition: partition_minwep,
            minwep: true,
        }
    }
}

impl PositionIndex for WepIndex {
    fn height(&self) -> u32 {
        self.height
    }

    #[inline]
    fn position(&self, node: NodeId, depth: u32) -> u64 {
        wep_index(self.partition, node, depth, self.height) - 1
    }

    fn compile_plan(&self) -> Option<StepPlan> {
        Some(if self.minwep {
            StepPlan::minwep(self.height)
        } else {
            StepPlan::Wep {
                height: self.height,
                partition: self.partition,
            }
        })
    }
}

/// MINWLA (`I^1_∞`) closed form: root mid-block, both subtrees
/// pre-order towards it, then pure pre-order all the way down. Shared
/// by [`MinWlaIndex`] and [`crate::index::plan::StepPlan::MinWla`].
#[inline]
#[must_use]
pub fn minwla_position(h: u32, node: NodeId, depth: u32) -> u64 {
    let root_pos = (1u64 << (h - 1)) - 1; // 0-based mid-block
    if depth == 0 {
        return root_pos;
    }
    // Pre-order offset of `node` within the child subtree of height h−1.
    let mut off = 0u64;
    let mut sub = 1u64 << (h - 2); // 2^{subtree height − 1}
    for k in (0..depth - 1).rev() {
        off += 1;
        if (node >> k) & 1 == 1 {
            off += sub - 1;
        }
        sub >>= 1;
    }
    if (node >> (depth - 1)) & 1 == 1 {
        root_pos + 1 + off // right child subtree: pre-order ascending
    } else {
        root_pos - 1 - off // left child subtree: mirrored (post-order)
    }
}

/// MINWLA (`I^1_∞`): root mid-block, both subtrees pre-order towards it,
/// then pure pre-order all the way down.
pub struct MinWlaIndex {
    height: u32,
}

impl MinWlaIndex {
    /// Creates the MINWLA indexer for a tree of `height` levels.
    #[must_use]
    pub fn new(height: u32) -> Self {
        Self { height }
    }
}

impl PositionIndex for MinWlaIndex {
    fn height(&self) -> u32 {
        self.height
    }

    #[inline]
    fn position(&self, node: NodeId, depth: u32) -> u64 {
        minwla_position(self.height, node, depth)
    }

    fn compile_plan(&self) -> Option<StepPlan> {
        Some(StepPlan::MinWla {
            height: self.height,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::named::NamedLayout;
    use crate::tree::Tree;

    /// Listing 1 makes its own (automorphic) child-order choices, so the
    /// comparison against the engine is on canonical forms; the golden test
    /// suite pins both against the paper's Figure 5a.
    fn check_canonical(layout: NamedLayout, idx: &dyn PositionIndex, h: u32) {
        let t = Tree::new(h);
        let from_idx = crate::layout::Layout::from_fn(h, |i| idx.position(i, t.depth(i)));
        let mat = layout.materialize(h);
        assert!(
            from_idx.equivalent_to(&mat),
            "{layout} h={h}: indexer and engine disagree beyond automorphism\nidx: {}\neng: {}",
            from_idx.display_one_based(),
            mat.display_one_based()
        );
    }

    #[test]
    fn minwep_indexer_matches_engine_canonically() {
        for h in 1..=14 {
            check_canonical(NamedLayout::MinWep, &WepIndex::new(h, partition_minwep), h);
        }
    }

    #[test]
    fn minep_indexer_matches_engine_canonically() {
        for h in 1..=14 {
            check_canonical(NamedLayout::MinEp, &WepIndex::new(h, partition_minep), h);
        }
    }

    #[test]
    fn minwla_indexer_matches_engine_canonically() {
        for h in 1..=14 {
            check_canonical(NamedLayout::MinWla, &MinWlaIndex::new(h), h);
        }
    }

    #[test]
    fn wep_index_is_a_permutation() {
        for h in 1..=12 {
            let t = Tree::new(h);
            // from_fn panics if not bijective.
            let _ = crate::layout::Layout::from_fn(h, |i| {
                wep_index(partition_minwep, i, t.depth(i), h) - 1
            });
        }
    }

    #[test]
    fn minwep_root_and_children_positions_h6() {
        // §IV-C: top two levels at 1-based positions 31..33.
        let idx = WepIndex::new(6, partition_minwep);
        let mut top: Vec<u64> = vec![
            idx.position(1, 0) + 1,
            idx.position(2, 1) + 1,
            idx.position(3, 1) + 1,
        ];
        top.sort_unstable();
        assert_eq!(top, vec![31, 32, 33]);
    }
}
