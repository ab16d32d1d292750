//! Compiled descent plans: per-layout position arithmetic, flattened
//! into a form a search loop can evaluate with **zero virtual calls**.
//!
//! A [`PositionIndex`] answers `position(node, depth)` behind a vtable —
//! fine for building trees, but a point lookup pays that indirect call
//! once per level. A [`StepPlan`] is built once per tree and precomputes
//! whatever the layout allows:
//!
//! * [`StepPlan::Terms`] — per-depth **closed-form coefficients**: at
//!   depth `d` the position is `base_d + Σ_k ((node >> s_k) & m_k) · c_k`,
//!   a handful of shift/mask/multiply terms with no branches at all.
//!   This covers the seven layouts whose position arithmetic has
//!   depth-determined control flow: BFS and IN-ORDER (one term),
//!   IN-BREADTH (two terms), PRE-ORDER (`d` one-bit terms), and the
//!   non-alternating vEB family PRE-VEB / BENDER / IN-VEB (one or two
//!   terms per cut crossed — the descent loops of
//!   [`super::veb`] unrolled per depth at plan-build time);
//! * [`StepPlan::Frames`] — MINWEP as a two-level table
//!   ([`FramePlan`]). A hierarchical layout partitions the tree into
//!   *contiguous* subtrees, so below MINWEP's first pre-order cut every
//!   subtree (a *frame*) fills one block of positions, laid out in one
//!   of three *shapes*: pre-order, its mirror, or in-order. A position
//!   is one load from the top table above the cut, or a frame's base
//!   plus one load from its shape below it — O(1) from tables of
//!   `O(2^{h/2})` entries (about 24 KB at `h = 20`), where Listing 1
//!   costs a loop over the depth;
//! * [`StepPlan::Wep`] / [`StepPlan::MinWla`] — static dispatch to the
//!   Listing-1 translation ([`super::wep::wep_index`], kept for MINEP,
//!   whose cut sits at depth 2 and whose shapes would be as large as a
//!   full table) and the MINWLA closed form. Their control flow is
//!   data-dependent, so they cannot be flattened to terms, but the call
//!   is direct and inlinable;
//! * [`StepPlan::Table`] — a flat `u32` position table indexed by BFS
//!   node, for materialized layouts and for layouts whose arithmetic is
//!   expensive enough that one predictable load wins (the WEP family
//!   served from an in-memory backend, the alternating vEB variants,
//!   HALFWEP). BFS order makes the top of the table hot: the first
//!   `2^k − 1` entries serve every query's first `k` levels.
//!
//! Layouts with none of the above (the generic spec interpreter) simply
//! return `None` from [`PositionIndex::compile_plan`] and keep their
//! virtual dispatch — the descent kernels in `cobtree-search` accept
//! either.
//!
//! Plans are **bit-identical** to the indexers they compile: every
//! constructor in this module is pinned against the corresponding
//! [`PositionIndex`] over all nodes in the tests below, and the search
//! kernels built on plans are pinned against the slow descent paths in
//! `cobtree-search`.

use crate::index::PositionIndex;
use crate::named::NamedLayout;
use crate::spec::CutRule;
use crate::tree::{NodeId, Tree};

/// One `((node >> shift) & mask) * stride` term of a per-depth closed
/// form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskTerm {
    /// Right shift applied to the BFS node index.
    pub shift: u32,
    /// Mask applied after the shift.
    pub mask: u64,
    /// Multiplier applied to the masked value.
    pub stride: u64,
}

/// The closed form for one depth: `base + Σ terms(node)` (wrapping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelPlan {
    /// Wrapping additive constant (negative offsets are encoded as
    /// two's-complement `u64`).
    pub base: u64,
    /// Masked multiply-add terms, evaluated left to right.
    pub terms: Vec<MaskTerm>,
}

impl LevelPlan {
    /// Evaluates the closed form for `node` (which must lie on this
    /// level).
    #[inline]
    #[must_use]
    pub fn eval(&self, node: NodeId) -> u64 {
        let mut p = self.base;
        for t in &self.terms {
            p = p.wrapping_add(((node >> t.shift) & t.mask).wrapping_mul(t.stride));
        }
        p
    }
}

/// A compiled, devirtualized position computation for one layout at one
/// height. See the module docs for which layouts compile to what.
pub enum StepPlan {
    /// Per-depth closed-form coefficients (`levels[d]` serves depth `d`).
    Terms {
        /// Tree height the plan serves.
        height: u32,
        /// One closed form per depth.
        levels: Vec<LevelPlan>,
    },
    /// MINWEP's two-level frame tables.
    Frames(FramePlan),
    /// Direct (static) call to the Listing-1 WEP translation with the
    /// given `partition()` cut.
    Wep {
        /// Tree height the plan serves.
        height: u32,
        /// The pre-order cut rule (`partition()` of Listing 1).
        partition: fn(u32) -> u32,
    },
    /// Direct (static) call to the MINWLA closed form.
    MinWla {
        /// Tree height the plan serves.
        height: u32,
    },
    /// Flat position table indexed by `node − 1` (BFS order).
    Table {
        /// Tree height the plan serves.
        height: u32,
        /// `positions[node − 1]` is the layout position of `node`.
        positions: Vec<u32>,
    },
}

impl StepPlan {
    /// Tree height this plan serves.
    #[must_use]
    pub fn height(&self) -> u32 {
        match self {
            StepPlan::Terms { height, .. }
            | StepPlan::Wep { height, .. }
            | StepPlan::MinWla { height }
            | StepPlan::Table { height, .. } => *height,
            StepPlan::Frames(frames) => frames.height,
        }
    }

    /// Layout position of `node` at `depth` — the devirtualized
    /// equivalent of [`PositionIndex::position`].
    ///
    /// The table-backed plans are answered inline; the loops behind
    /// the other plans sit behind one call. Kept this small, the
    /// dispatch inlines into the descent kernels, so a `Table` or
    /// `Frames` position costs a load or two, not a call.
    #[inline]
    #[must_use]
    pub fn position(&self, node: NodeId, depth: u32) -> u64 {
        match self {
            StepPlan::Table { positions, .. } => u64::from(positions[(node - 1) as usize]),
            StepPlan::Frames(frames) => frames.position(node, depth),
            _ => self.computed_position(node, depth),
        }
    }

    /// [`StepPlan::position`] for the plans without a table.
    #[inline(never)]
    fn computed_position(&self, node: NodeId, depth: u32) -> u64 {
        match self {
            StepPlan::Terms { levels, .. } => levels[depth as usize].eval(node),
            StepPlan::Wep { height, partition } => {
                super::wep::wep_index(*partition, node, depth, *height) - 1
            }
            StepPlan::MinWla { height } => super::wep::minwla_position(*height, node, depth),
            StepPlan::Table { .. } | StepPlan::Frames(_) => {
                unreachable!("answered inline by StepPlan::position")
            }
        }
    }

    /// MINWEP's plan: its [`FramePlan`], or Listing 1 where the frame
    /// tables would not fit `u32` positions.
    #[must_use]
    pub fn minwep(height: u32) -> StepPlan {
        match FramePlan::minwep(height) {
            Some(frames) => StepPlan::Frames(frames),
            None => StepPlan::Wep {
                height,
                partition: super::wep::partition_minwep,
            },
        }
    }

    /// `true` when evaluating a level costs O(terms) straight-line
    /// arithmetic or one or two table loads — cheap enough that the
    /// search kernels compute *extra* positions to prefetch both
    /// children a level ahead. `Wep`/`MinWla` positions cost a whole
    /// O(h) loop, so kernels skip the speculative child computations
    /// there.
    #[must_use]
    pub fn prefetch_is_cheap(&self) -> bool {
        matches!(
            self,
            StepPlan::Terms { .. } | StepPlan::Table { .. } | StepPlan::Frames(_)
        )
    }

    /// Materializes the full position table of `index` into a
    /// [`StepPlan::Table`]. `None` when a position overflows `u32`
    /// (possible only beyond height 32 — far past any materializable
    /// tree).
    #[must_use]
    pub fn table_from_index(index: &dyn PositionIndex) -> Option<StepPlan> {
        let height = index.height();
        if height > 31 {
            return None;
        }
        let tree = Tree::new(height);
        let positions = tree
            .nodes()
            .map(|i| u32::try_from(index.position(i, tree.depth(i))).ok())
            .collect::<Option<Vec<u32>>>()?;
        Some(StepPlan::Table { height, positions })
    }

    /// Builds a [`StepPlan::Table`] from positions already computed by a
    /// tree constructor (`positions[node − 1]`, BFS order) — the "free"
    /// path: backends that iterate all nodes at build time anyway record
    /// the table as they go.
    #[must_use]
    pub fn from_positions(height: u32, positions: Vec<u32>) -> StepPlan {
        debug_assert_eq!(positions.len() as u64, Tree::new(height).len());
        StepPlan::Table { height, positions }
    }
}

impl std::fmt::Debug for StepPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepPlan::Terms { height, levels } => f
                .debug_struct("StepPlan::Terms")
                .field("height", height)
                .field(
                    "terms",
                    &levels.iter().map(|l| l.terms.len()).sum::<usize>(),
                )
                .finish(),
            StepPlan::Frames(frames) => f.debug_tuple("StepPlan::Frames").field(frames).finish(),
            StepPlan::Wep { height, .. } => f
                .debug_struct("StepPlan::Wep")
                .field("height", height)
                .finish(),
            StepPlan::MinWla { height } => f
                .debug_struct("StepPlan::MinWla")
                .field("height", height)
                .finish(),
            StepPlan::Table { height, positions } => f
                .debug_struct("StepPlan::Table")
                .field("height", height)
                .field("len", &positions.len())
                .finish(),
        }
    }
}

// ---------------------------------------------------------------------------
// MINWEP frames
// ---------------------------------------------------------------------------

/// One frame of a [`FramePlan`]: where its block of positions starts
/// and where its shape starts in [`FramePlan`]'s shape table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frame {
    base: u32,
    shape: u32,
}

/// MINWEP compiled to two table levels ([`StepPlan::Frames`]).
///
/// The *cut* is the depth `1 + partition(h − 1)`: the root's two
/// pre-order subtrees are cut there into a top subtree and `2^g`
/// bottom subtrees. A *frame* is a subtree rooted at the cut; it fills
/// one contiguous block of positions, and its *shape* is its layout
/// relative to the block's first position. Listing 1 lays a frame out
/// in one of three ways — the pre-order frame under the right child,
/// its mirror under the left child, and in-order everywhere else — so
/// the frames are classified by their two children's offsets from the
/// frame root, and one shape is materialized per class.
///
/// * A node at depth `< cut` reads `top[node − 1]`.
/// * A node in frame `j` at relative BFS index `r` sits at
///   `frames[j].base + shapes[frames[j].shape + r − 1]`.
///
/// Size at height `h = 20`: 1023 top entries, 1024 frames and three
/// shapes of 1023 entries, about 24 KB; at `h = 31` about 1.2 MB.
/// Building one costs about `2^cut + 3 · 2^cut + 3 · 2^(h − cut)`
/// Listing-1 calls (about 7K at `h = 20`).
#[derive(Clone, PartialEq, Eq)]
pub struct FramePlan {
    height: u32,
    cut: u32,
    /// `top[node − 1]`: positions of the nodes above the cut.
    top: Vec<u32>,
    /// One entry per frame, indexed by `frame root − 2^cut`.
    frames: Vec<Frame>,
    /// The distinct shapes, `2^(h − cut) − 1` entries each, in BFS
    /// order of the frame's nodes.
    shapes: Vec<u32>,
}

impl FramePlan {
    /// Compiles MINWEP at `height`. `None` above height 31, where a
    /// position may overflow `u32`.
    #[must_use]
    pub fn minwep(height: u32) -> Option<FramePlan> {
        use super::wep::{partition_minwep, wep_index};
        if !(1..=31).contains(&height) {
            return None;
        }
        // Positions below 2^31 − 1: every `u32` conversion is exact.
        let pos = |node: NodeId, depth: u32| {
            (wep_index(partition_minwep, node, depth, height) - 1) as u32
        };
        let cut = (1 + partition_minwep(height - 1)).min(height);
        let tree = Tree::new(height);
        let top = (1..1u64 << cut)
            .map(|node| pos(node, tree.depth(node)))
            .collect();
        let frame_height = height - cut;
        // `(children's offsets from the root, root's offset in the
        // shape, shape start)` per class seen so far.
        let mut classes: Vec<((u32, u32), u32, u32)> = Vec::new();
        let mut shapes: Vec<u32> = Vec::new();
        let roots = if frame_height == 0 {
            0..0
        } else {
            1u64 << cut..1u64 << (cut + 1)
        };
        let frames = roots
            .map(|root| {
                let at = pos(root, cut);
                let class = if frame_height > 1 {
                    (
                        pos(root << 1, cut + 1).wrapping_sub(at),
                        pos((root << 1) | 1, cut + 1).wrapping_sub(at),
                    )
                } else {
                    (0, 0)
                };
                let (root_offset, shape) = match classes.iter().find(|c| c.0 == class) {
                    Some(&(_, root_offset, shape)) => (root_offset, shape),
                    None => {
                        let start = shapes.len();
                        for rel in 0..frame_height {
                            let first = root << rel;
                            shapes.extend((first..first + (1 << rel)).map(|n| pos(n, cut + rel)));
                        }
                        let low = *shapes[start..].iter().min().expect("a frame has a root");
                        for p in &mut shapes[start..] {
                            *p -= low;
                        }
                        let entry = (class, at - low, start as u32);
                        classes.push(entry);
                        (entry.1, entry.2)
                    }
                };
                Frame {
                    base: at - root_offset,
                    shape,
                }
            })
            .collect();
        Some(FramePlan {
            height,
            cut,
            top,
            frames,
            shapes,
        })
    }

    /// Number of distinct frame shapes (three for MINWEP wherever a
    /// frame has children).
    fn shape_count(&self) -> usize {
        self.shapes.len() / self.shape_len().max(1)
    }

    /// Entries per shape: the node count of one frame.
    fn shape_len(&self) -> usize {
        (1usize << (self.height - self.cut)) - 1
    }

    /// Layout position of `node` at `depth`.
    #[inline]
    #[must_use]
    pub fn position(&self, node: NodeId, depth: u32) -> u64 {
        if depth < self.cut {
            return u64::from(self.top[(node - 1) as usize]);
        }
        let rel = depth - self.cut;
        let frame = self.frames[((node >> rel) - (1u64 << self.cut)) as usize];
        // `r − 1` for relative BFS index `r = 2^rel + (node mod 2^rel)`.
        let mask = (1u64 << rel) - 1;
        let r = (node & mask) + mask;
        u64::from(frame.base) + u64::from(self.shapes[frame.shape as usize + r as usize])
    }
}

impl std::fmt::Debug for FramePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FramePlan")
            .field("height", &self.height)
            .field("cut", &self.cut)
            .field("frames", &self.frames.len())
            .field("shapes", &self.shape_count())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Closed-form compilation, one constructor per layout family
// ---------------------------------------------------------------------------

/// All-ones mask for full-width terms.
const FULL: u64 = u64::MAX;

/// PRE-BREADTH: `pos = node − 1` at every depth.
#[must_use]
pub fn compile_bfs(height: u32) -> StepPlan {
    let levels = (0..height)
        .map(|_| LevelPlan {
            base: 0u64.wrapping_sub(1),
            terms: vec![MaskTerm {
                shift: 0,
                mask: FULL,
                stride: 1,
            }],
        })
        .collect();
    StepPlan::Terms { height, levels }
}

/// IN-ORDER: `pos = (node − 2^d)·span + span/2 − 1` with
/// `span = 2^{h−d}`, affine in `node` per depth.
#[must_use]
pub fn compile_in_order(height: u32) -> StepPlan {
    let levels = (0..height)
        .map(|d| {
            let span = 1u64 << (height - d);
            LevelPlan {
                base: (span / 2 - 1).wrapping_sub((1u64 << d).wrapping_mul(span)),
                terms: vec![MaskTerm {
                    shift: 0,
                    mask: FULL,
                    stride: span,
                }],
            }
        })
        .collect();
    StepPlan::Terms { height, levels }
}

/// IN-BREADTH: level-rank plus a one-bit flank correction (the first
/// descent direction decides left/right half of the level).
#[must_use]
pub fn compile_in_breadth(height: u32) -> StepPlan {
    let levels = (0..height)
        .map(|d| {
            if d == 0 {
                LevelPlan {
                    base: (1u64 << (height - 1)) - 1,
                    terms: Vec::new(),
                }
            } else {
                LevelPlan {
                    base: (1u64 << (height - 1)).wrapping_sub(1u64 << d),
                    terms: vec![
                        // level rank j = node & (2^d − 1)
                        MaskTerm {
                            shift: 0,
                            mask: (1u64 << d) - 1,
                            stride: 1,
                        },
                        // right flank: + (2^d − 1)
                        MaskTerm {
                            shift: d - 1,
                            mask: 1,
                            stride: (1u64 << d) - 1,
                        },
                    ],
                }
            }
        })
        .collect();
    StepPlan::Terms { height, levels }
}

/// PRE-ORDER: depth plus one one-bit term per path step (each right
/// turn skips a whole left-sibling subtree).
#[must_use]
pub fn compile_pre_order(height: u32) -> StepPlan {
    let levels = (0..height)
        .map(|d| LevelPlan {
            base: u64::from(d),
            terms: (0..d)
                .map(|j| MaskTerm {
                    shift: d - 1 - j,
                    mask: 1,
                    stride: (1u64 << (height - 1 - j)) - 1,
                })
                .collect(),
        })
        .collect();
    StepPlan::Terms { height, levels }
}

/// PRE-VEB / BENDER: the [`super::veb::PreVebIndex`] descent loop
/// unrolled per depth. The loop's control flow depends only on
/// `(h, depth)`, so each target depth compiles to a fixed term list —
/// one term per cut crossed.
#[must_use]
pub fn compile_pre_veb(height: u32, cut: CutRule) -> StepPlan {
    let levels = (0..height)
        .map(|d| {
            let mut base = 0u64;
            let mut terms = Vec::new();
            let mut h = height;
            let mut dd = d;
            while dd > 0 {
                let g = cut.cut(h);
                if dd < g {
                    h = g;
                } else {
                    base += (1u64 << g) - 1;
                    terms.push(MaskTerm {
                        shift: dd - g,
                        mask: (1u64 << g) - 1,
                        stride: (1u64 << (h - g)) - 1,
                    });
                    h -= g;
                    dd -= g;
                }
            }
            LevelPlan { base, terms }
        })
        .collect();
    StepPlan::Terms { height, levels }
}

/// IN-VEB: the [`super::veb::InVebIndex`] loop unrolled per depth. The
/// in-order flank choice (`b < half`) becomes a branch-free one-bit
/// term: for `b ≥ half` the block offset is `b·s + (2^g − 1)`, i.e. the
/// top bit of `b` contributes a constant.
#[must_use]
pub fn compile_in_veb(height: u32) -> StepPlan {
    let levels = (0..height)
        .map(|d| {
            let mut base = 0u64;
            let mut terms = Vec::new();
            let mut h = height;
            let mut dd = d;
            while h > 1 {
                let g = h / 2;
                let s = (1u64 << (h - g)) - 1;
                let half = 1u64 << (g - 1);
                if dd < g {
                    base += half * s;
                    h = g;
                } else {
                    terms.push(MaskTerm {
                        shift: dd - g,
                        mask: (1u64 << g) - 1,
                        stride: s,
                    });
                    terms.push(MaskTerm {
                        shift: dd - 1,
                        mask: 1,
                        stride: (1u64 << g) - 1,
                    });
                    h -= g;
                    dd -= g;
                }
            }
            LevelPlan { base, terms }
        })
        .collect();
    StepPlan::Terms { height, levels }
}

impl NamedLayout {
    /// Compiles the fastest available [`StepPlan`] for this layout, or
    /// `None` for the layouts served by the generic spec interpreter
    /// (the alternating vEB variants and HALFWEP), whose position
    /// computation has data-dependent recursion that neither flattens
    /// to terms nor dispatches statically. Callers wanting a plan for
    /// those layouts materialize a [`StepPlan::Table`] instead (see
    /// [`StepPlan::table_from_index`]).
    #[must_use]
    pub fn compile_plan(&self, height: u32) -> Option<StepPlan> {
        use super::wep::partition_minep;
        match self {
            NamedLayout::PreBreadth => Some(compile_bfs(height)),
            NamedLayout::InOrder => Some(compile_in_order(height)),
            NamedLayout::InBreadth => Some(compile_in_breadth(height)),
            NamedLayout::PreOrder => Some(compile_pre_order(height)),
            NamedLayout::PreVeb => Some(compile_pre_veb(height, CutRule::Half)),
            NamedLayout::Bender => Some(compile_pre_veb(height, CutRule::Bender)),
            NamedLayout::InVeb => Some(compile_in_veb(height)),
            NamedLayout::MinWep => Some(StepPlan::minwep(height)),
            NamedLayout::MinEp => Some(StepPlan::Wep {
                height,
                partition: partition_minep,
            }),
            NamedLayout::MinWla => Some(StepPlan::MinWla { height }),
            NamedLayout::PreVebA | NamedLayout::InVebA | NamedLayout::HalfWep => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_plan_matches_indexer(layout: NamedLayout, h: u32) {
        let idx = layout.indexer(h);
        let Some(plan) = layout.compile_plan(h) else {
            return;
        };
        let tree = Tree::new(h);
        assert_eq!(plan.height(), h);
        for i in tree.nodes() {
            let d = tree.depth(i);
            assert_eq!(
                plan.position(i, d),
                idx.position(i, d),
                "{layout} h={h} node {i}"
            );
        }
    }

    #[test]
    fn compiled_plans_match_their_indexers_exactly() {
        for layout in NamedLayout::ALL {
            for h in 1..=12 {
                assert_plan_matches_indexer(layout, h);
            }
        }
    }

    #[test]
    fn compiled_plans_match_at_moderate_height() {
        for layout in [
            NamedLayout::MinWep,
            NamedLayout::PreVeb,
            NamedLayout::InVeb,
            NamedLayout::Bender,
            NamedLayout::InBreadth,
            NamedLayout::PreOrder,
        ] {
            assert_plan_matches_indexer(layout, 16);
        }
    }

    #[test]
    fn table_plan_reproduces_any_indexer() {
        for layout in [
            NamedLayout::HalfWep,
            NamedLayout::PreVebA,
            NamedLayout::InVebA,
        ] {
            let h = 9;
            let idx = layout.indexer(h);
            let plan = StepPlan::table_from_index(idx.as_ref()).expect("h <= 31");
            let tree = Tree::new(h);
            for i in tree.nodes() {
                let d = tree.depth(i);
                assert_eq!(plan.position(i, d), idx.position(i, d), "{layout} node {i}");
            }
        }
    }

    #[test]
    fn which_layouts_compile_is_pinned() {
        // The generic-interpreter layouts are the only ones without a
        // compiled plan; everything else must devirtualize.
        for layout in NamedLayout::ALL {
            let compiled = layout.compile_plan(8).is_some();
            let expect = !matches!(
                layout,
                NamedLayout::PreVebA | NamedLayout::InVebA | NamedLayout::HalfWep
            );
            assert_eq!(compiled, expect, "{layout}");
        }
    }

    #[test]
    fn prefetch_cheapness_is_pinned_per_variant() {
        assert!(compile_bfs(6).prefetch_is_cheap());
        assert!(StepPlan::from_positions(3, vec![0, 1, 2, 3, 4, 5, 6]).prefetch_is_cheap());
        assert!(NamedLayout::MinWep
            .compile_plan(6)
            .unwrap()
            .prefetch_is_cheap());
        assert!(!NamedLayout::MinEp
            .compile_plan(6)
            .unwrap()
            .prefetch_is_cheap());
        assert!(!NamedLayout::MinWla
            .compile_plan(6)
            .unwrap()
            .prefetch_is_cheap());
    }

    #[test]
    fn debug_formats_do_not_explode() {
        let s = format!("{:?}", NamedLayout::PreVeb.compile_plan(10).unwrap());
        assert!(s.contains("Terms"));
        let s = format!("{:?}", NamedLayout::MinWep.compile_plan(10).unwrap());
        assert!(s.contains("Frames"), "{s}");
        let s = format!("{:?}", NamedLayout::MinEp.compile_plan(10).unwrap());
        assert!(s.contains("Wep"), "{s}");
    }

    fn frames(plan: Option<StepPlan>) -> Option<FramePlan> {
        match plan {
            Some(StepPlan::Frames(frames)) => Some(frames),
            _ => None,
        }
    }

    fn assert_frames_match_listing_1(plan: &FramePlan, h: u32, node: NodeId) {
        let d = 63 - node.leading_zeros();
        assert_eq!(
            plan.position(node, d),
            super::super::wep::wep_index(super::super::wep::partition_minwep, node, d, h) - 1,
            "h={h} node {node}"
        );
    }

    #[test]
    fn minwep_frames_match_listing_1_on_every_node() {
        for h in 1..=24 {
            let plan = FramePlan::minwep(h).expect("h <= 31");
            for node in 1..1u64 << h {
                assert_frames_match_listing_1(&plan, h, node);
            }
        }
    }

    #[test]
    fn minwep_frames_match_listing_1_on_random_tall_nodes() {
        let mut state = 0x5EED_F4A3_u64;
        for h in 25..=31 {
            let plan = FramePlan::minwep(h).expect("h <= 31");
            for _ in 0..1_000_000 {
                let node = (crate::io::splitmix64(&mut state) % ((1u64 << h) - 1)) + 1;
                assert_frames_match_listing_1(&plan, h, node);
            }
        }
        assert!(FramePlan::minwep(32).is_none());
    }

    #[test]
    fn minwep_compiles_to_three_frame_shapes() {
        for h in 4..=31 {
            let named = frames(NamedLayout::MinWep.compile_plan(h)).expect("named MINWEP");
            let indexed = frames(NamedLayout::MinWep.indexer(h).compile_plan()).expect("indexer");
            assert_eq!(named, indexed, "h={h}");
            assert_eq!(named.cut, 1 + super::super::wep::partition_minwep(h - 1));
            assert_eq!(named.shape_count(), 3, "h={h}");
        }
        for h in [1, 2, 6, 20] {
            assert!(frames(NamedLayout::MinEp.compile_plan(h)).is_none());
            assert!(frames(NamedLayout::MinEp.indexer(h).compile_plan()).is_none());
        }
    }
}
