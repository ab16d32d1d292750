//! Descent kernels, and the one search surface every plane backend
//! runs on.
//!
//! The paper's layouts differ only in where a node sits; the search is
//! the same. This module makes that literal. A storage backend states
//! its *planes* — the kernels' view of its key storage plus a position
//! source — and one blanket impl implements the whole
//! [`SearchBackend`] surface for it (point, traced, interleaved,
//! checksum and sorted-batch searches, bound ranks, and the rank
//! primitives):
//!
//! * the **fast plane** feeds the compiled kernels: a [`DescentPlane`]
//!   for binary layouts or a [`FatPlane`] for fat-node layouts, with
//!   positions from a compiled [`StepPlan`], a mapped file's `u32`
//!   table, or — for the layouts that do not compile — the virtual
//!   indexer;
//! * the **reference plane** feeds [`reference_walk`], the one
//!   three-way descent every plane backend's oracle runs: one node per
//!   level, positions from the uncompiled [`PositionIndex`] or the
//!   mapped table, so the oracle never depends on a [`StepPlan`]. With
//!   a trace sink it is `search_traced`, the trace cache replay
//!   consumes (chunk-granular on fat planes); without one it is
//!   `search_reference`. The rank primitives (`key_at_rank`,
//!   `position_of_rank`) read the reference plane too.
//!
//! Sorted batches run [`sorted_walk`], the reference walk's
//! shared-prefix form: untraced on a binary fast plane (fat backends
//! walk their binary reference plane), traced on the reference plane,
//! so cache replay sees the nodes the oracle fetches.
//!
//! The binary planes are [`ArrayPlane`] (keys in layout order, the
//! implicit backend), [`RankPlane`] (keys in sorted order, the
//! index-only backend) and [`MappedPlane`] (raw bytes of a mapped
//! file); the fat planes live with their backends (typed heap slots,
//! mapped bytes). The explicit (pointer-based) backend has no position
//! computation to devirtualize: it implements [`SearchBackend`] itself,
//! with pointer kernels ([`explicit_search`],
//! [`explicit_fold_interleaved`]) and one pointer walk of its own.
//!
//! What the kernels do (cf. Barratt & Zhang, *Cache-Friendly Search
//! Trees*, 2019):
//!
//! * **Devirtualized positions** — [`PosRef`] resolves positions with
//!   one perfectly predicted enum dispatch instead of a virtual call
//!   per level.
//! * **Branch-free descent** — the three-way compare is replaced by
//!   `i = 2i + (probe > key)`, with the `Equal` case hoisted out of the
//!   loop entirely: the kernel tracks the most recent slot whose key
//!   was `>= probe` (a conditional move, not a branch) and performs a
//!   single equality check after the loop. Results are
//!   **bit-identical** to [`reference_walk`].
//! * **Chained key locators + software prefetch** — each level's key
//!   *locator* (the storage coordinate of the key load — layout
//!   position for layout-ordered storage, in-order rank for the
//!   index-only backend) is computed once, prefetched, and reused for
//!   the load at the next level, so no position is ever computed twice.
//!   When positions are cheap ([`StepPlan::prefetch_is_cheap`]) the
//!   scalar kernel additionally speculates **both candidate children**
//!   one level ahead, so the next load is in flight while the current
//!   compare resolves.
//! * **Interleaved multi-query search** — [`fold_interleaved`] keeps up
//!   to [`MAX_LANES`] independent lookups in flight, stepping them
//!   round-robin one level at a time. The lanes' key loads are
//!   independent, so the memory system overlaps their misses
//!   (memory-level parallelism); each lane prefetches its *exact* next
//!   slot as soon as its branch-free step resolves it — which costs no
//!   extra position arithmetic at all, so it is on for every plan.
//! * **Fat-node descent** — one rank-of-key per chunk replaces `span`
//!   binary compares ([`fat_search`]); over raw key bytes the rank is
//!   an AVX2 compare+movemask where available ([`byte_rank_in_chunk`]).

use crate::backend::SearchBackend;
use crate::explicit::Node;
use cobtree_core::error::{Error, Result};
use cobtree_core::fat::FatIndex;
use cobtree_core::format::FixedKey;
use cobtree_core::index::{PositionIndex, StepPlan};
use std::cmp::Ordering;
use std::convert::Infallible;
use std::marker::PhantomData;

/// Maximum interleave width (lanes held in flight by the batch kernel).
pub const MAX_LANES: usize = 16;

/// Default interleave width used by `search_batch_checksum`.
/// Eight lanes saturate the load buffers of common cores without
/// spilling the lane state out of registers.
pub const DEFAULT_LANES: usize = 8;

/// Locator sentinel meaning "no candidate recorded yet" (locators are
/// array indices or ranks, far below `u64::MAX`).
const NO_CAND: u64 = u64::MAX;

/// Issues a read prefetch for `ptr` where the target supports it (a
/// no-op elsewhere — the kernels stay portable).
#[inline(always)]
pub(crate) fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint; it never faults, and callers
    // only pass addresses derived from live allocations.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(ptr.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = ptr;
    }
}

// ---------------------------------------------------------------------------
// Position sources
// ---------------------------------------------------------------------------

/// Where a plane reads layout positions from. One enum dispatch per
/// position — a perfectly predicted branch, in place of a virtual call
/// ([`PosRef::Index`] keeps one, for reference planes and the layouts
/// that do not compile).
pub enum PosRef<'a> {
    /// A compiled per-layout plan.
    Plan(&'a StepPlan),
    /// Little-endian `u32` position table bytes, indexed by `node − 1`
    /// — the mapped backend's index region, read in place.
    Raw32(&'a [u8]),
    /// The uncompiled virtual indexer.
    Index(&'a dyn PositionIndex),
}

impl PosRef<'_> {
    /// Layout position of `node` at `depth`.
    #[inline]
    #[must_use]
    pub fn at(&self, node: u64, depth: u32) -> u64 {
        match self {
            PosRef::Plan(p) => p.position(node, depth),
            PosRef::Raw32(bytes) => {
                let off = (node as usize - 1) * 4;
                u64::from(u32::from_le_bytes(
                    bytes[off..off + 4].try_into().expect("validated region"),
                ))
            }
            PosRef::Index(ix) => ix.position(node, depth),
        }
    }

    /// Whether speculative child-position computations (for the scalar
    /// kernel's both-children prefetch) are worth issuing.
    #[must_use]
    pub fn prefetch_is_cheap(&self) -> bool {
        match self {
            PosRef::Plan(p) => p.prefetch_is_cheap(),
            PosRef::Raw32(_) => true,
            PosRef::Index(_) => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Descent planes: position source + key storage discipline
// ---------------------------------------------------------------------------

/// What a binary descent needs from a backend. The central concept is
/// the **key locator**: the storage coordinate a key load uses — the
/// layout position for layout-ordered storage ([`ArrayPlane`],
/// [`MappedPlane`]), the 0-based in-order rank for rank-ordered storage
/// ([`RankPlane`]). Kernels compute each level's locator exactly once,
/// prefetch it, and reuse it for the load. Implementations are
/// monomorphized into the kernels — no virtual calls on the hot path
/// (except through an explicit [`PosRef::Index`] fallback).
pub trait DescentPlane {
    /// Key type compared during the descent.
    type Key: Copy + Ord;

    /// Height of the complete tree.
    fn height(&self) -> u32;

    /// Number of stored keys: in-order ranks `1..=key_count` are real,
    /// the rest are padding. Planes whose padding is encoded in the key
    /// ordering store every slot.
    #[inline]
    fn key_count(&self) -> u64 {
        (1u64 << self.height()) - 1
    }

    /// Key locator of BFS `node` at `depth`.
    fn locate(&self, node: u64, depth: u32) -> u64;

    /// Key behind a locator. For planes whose padding is encoded in the
    /// key ordering this is total; for [`MappedPlane`] the value is
    /// unspecified (but loadable) when [`DescentPlane::is_real`] is
    /// `false`.
    fn key_at(&self, loc: u64) -> Self::Key;

    /// `false` when `node` is a padding slot that must compare as `+∞`.
    #[inline]
    fn is_real(&self, node: u64) -> bool {
        let _ = node;
        true
    }

    /// Layout position of `node` at `depth` (what searches report).
    fn position(&self, node: u64, depth: u32) -> u64;

    /// Layout position reported for a match whose key was loaded via
    /// `loc` — the locator *is* the position for layout-ordered planes;
    /// rank-ordered planes recover the node from the rank.
    fn result_position(&self, loc: u64) -> u64;

    /// `true` when the locator *is* the layout position (layout-ordered
    /// planes), letting traced kernels record `loc` instead of paying a
    /// second position computation per level.
    #[inline]
    fn locator_is_position(&self) -> bool {
        false
    }

    /// Issues a prefetch for the storage `key_at(loc)` will touch.
    #[inline]
    fn prefetch_loc(&self, loc: u64) {
        let _ = loc;
    }

    /// Whether the scalar kernels should speculatively compute (and
    /// prefetch) *both* children's locators a level ahead — worth it
    /// exactly when locators are cheap (checked once, outside loops).
    #[inline]
    fn speculate_children(&self) -> bool {
        false
    }
}

/// Keys stored in layout order (the implicit backend): the locator is
/// the layout position; one position computation and one array load per
/// visited node.
pub struct ArrayPlane<'a, K> {
    keys: &'a [K],
    pos: PosRef<'a>,
    height: u32,
}

impl<'a, K: Copy + Ord> ArrayPlane<'a, K> {
    /// Plane over `keys` in layout order, positions from `pos`.
    #[must_use]
    pub fn new(keys: &'a [K], pos: PosRef<'a>, height: u32) -> Self {
        Self { keys, pos, height }
    }
}

impl<K: Copy + Ord> DescentPlane for ArrayPlane<'_, K> {
    type Key = K;

    #[inline]
    fn height(&self) -> u32 {
        self.height
    }

    #[inline]
    fn locate(&self, node: u64, depth: u32) -> u64 {
        self.pos.at(node, depth)
    }

    #[inline]
    fn key_at(&self, loc: u64) -> K {
        self.keys[loc as usize]
    }

    #[inline]
    fn position(&self, node: u64, depth: u32) -> u64 {
        self.pos.at(node, depth)
    }

    #[inline]
    fn result_position(&self, loc: u64) -> u64 {
        loc
    }

    #[inline]
    fn locator_is_position(&self) -> bool {
        true
    }

    #[inline]
    fn prefetch_loc(&self, loc: u64) {
        // SAFETY: positions of valid nodes index the key array.
        prefetch_read(unsafe { self.keys.as_ptr().add(loc as usize) });
    }

    #[inline]
    fn speculate_children(&self) -> bool {
        self.pos.prefetch_is_cheap()
    }
}

/// 1-based in-order rank of `node` in a height-`h` tree (the
/// `Tree::in_order_rank` bit trick, kept local so kernels need no
/// `Tree`).
#[inline]
fn in_order_rank(height: u32, node: u64) -> u64 {
    let d = 63 - node.leading_zeros();
    let span = 1u64 << (height - d);
    (node - (1u64 << d)) * span + span / 2
}

/// `(node, depth)` of the node with 1-based in-order `rank` in a
/// height-`h` tree — the inverse of [`in_order_rank`]
/// (`Tree::node_at_in_order`).
#[inline]
fn node_at_in_order(height: u32, rank: u64) -> (u64, u32) {
    let t = rank.trailing_zeros();
    let d = height - 1 - t;
    ((1u64 << d) + (rank >> (t + 1)), d)
}

/// Keys stored in sorted (in-order-rank) order — the index-only
/// backend. The locator is the 0-based rank, so comparisons never touch
/// positions; the position source is consulted only to *report*
/// results, preserving the reference walk's cost discipline exactly.
pub struct RankPlane<'a, K> {
    keys: &'a [K],
    pos: PosRef<'a>,
    height: u32,
}

impl<'a, K: Copy + Ord> RankPlane<'a, K> {
    /// Plane over `keys` in sorted order, positions from `pos`.
    #[must_use]
    pub fn new(keys: &'a [K], pos: PosRef<'a>, height: u32) -> Self {
        Self { keys, pos, height }
    }
}

impl<K: Copy + Ord> DescentPlane for RankPlane<'_, K> {
    type Key = K;

    #[inline]
    fn height(&self) -> u32 {
        self.height
    }

    #[inline]
    fn locate(&self, node: u64, _depth: u32) -> u64 {
        in_order_rank(self.height, node) - 1
    }

    #[inline]
    fn key_at(&self, loc: u64) -> K {
        self.keys[loc as usize]
    }

    #[inline]
    fn position(&self, node: u64, depth: u32) -> u64 {
        self.pos.at(node, depth)
    }

    #[inline]
    fn result_position(&self, loc: u64) -> u64 {
        // Invert the rank locator, then pay the one position
        // computation the reference walk pays on a match.
        let (node, d) = node_at_in_order(self.height, loc + 1);
        self.pos.at(node, d)
    }

    #[inline]
    fn prefetch_loc(&self, loc: u64) {
        // SAFETY: ranks of valid nodes index the sorted key array.
        prefetch_read(unsafe { self.keys.as_ptr().add(loc as usize) });
    }

    #[inline]
    fn speculate_children(&self) -> bool {
        // Rank locators are two shifts and an add — always cheap.
        true
    }
}

/// Keys read from the raw bytes of a mapped tree file. Padding is
/// detected arithmetically (in-order rank beyond the stored key count),
/// exactly as the reference walk does — padding slots' bytes are
/// loadable (the writer zeroes them) but never influence the descent.
pub struct MappedPlane<'a, K> {
    key_bytes: &'a [u8],
    pos: PosRef<'a>,
    height: u32,
    stored: u64,
    _keys: std::marker::PhantomData<fn() -> K>,
}

impl<'a, K: FixedKey> MappedPlane<'a, K> {
    /// Plane over a file's key region (`key_bytes`), positions from
    /// `pos`; ranks beyond `stored` are padding.
    #[must_use]
    pub fn new(key_bytes: &'a [u8], pos: PosRef<'a>, height: u32, stored: u64) -> Self {
        Self {
            key_bytes,
            pos,
            height,
            stored,
            _keys: std::marker::PhantomData,
        }
    }
}

impl<K: FixedKey> DescentPlane for MappedPlane<'_, K> {
    type Key = K;

    #[inline]
    fn height(&self) -> u32 {
        self.height
    }

    #[inline]
    fn locate(&self, node: u64, depth: u32) -> u64 {
        self.pos.at(node, depth)
    }

    #[inline]
    fn key_at(&self, loc: u64) -> K {
        let off = loc as usize * K::WIDTH;
        K::read_le(&self.key_bytes[off..off + K::WIDTH])
    }

    #[inline]
    fn key_count(&self) -> u64 {
        self.stored
    }

    #[inline]
    fn is_real(&self, node: u64) -> bool {
        in_order_rank(self.height, node) <= self.stored
    }

    #[inline]
    fn position(&self, node: u64, depth: u32) -> u64 {
        self.pos.at(node, depth)
    }

    #[inline]
    fn result_position(&self, loc: u64) -> u64 {
        loc
    }

    #[inline]
    fn locator_is_position(&self) -> bool {
        true
    }

    #[inline]
    fn prefetch_loc(&self, loc: u64) {
        // SAFETY: key offsets of valid nodes lie inside the key region.
        prefetch_read(unsafe { self.key_bytes.as_ptr().add(loc as usize * K::WIDTH) });
    }

    #[inline]
    fn speculate_children(&self) -> bool {
        self.pos.prefetch_is_cheap()
    }
}

// ---------------------------------------------------------------------------
// Scalar kernels
// ---------------------------------------------------------------------------

/// Branch-free point search: descends all `h` levels with
/// `i = 2i + (probe > key)`, tracking the locator of the last slot
/// whose key was `>= probe` with conditional moves, and resolves
/// equality once after the loop. Returns exactly what
/// [`reference_walk`] returns.
#[inline]
pub fn search<P: DescentPlane>(plane: &P, probe: P::Key) -> Option<u64> {
    let h = plane.height();
    let speculate = plane.speculate_children();
    let mut i = 1u64;
    let mut loc = plane.locate(1, 0);
    let mut cand_loc = NO_CAND;
    let mut cand_key = probe; // only read once `cand_loc != NO_CAND`
    for d in 0..h {
        let k = plane.key_at(loc);
        let real = plane.is_real(i);
        let go_right = real && probe > k;
        if real && !go_right {
            cand_loc = loc;
            cand_key = k;
        }
        let next = (i << 1) | u64::from(go_right);
        if d + 1 < h {
            if speculate {
                // Both children, prefetched before the compare's load
                // dependency resolves (the CPU hoists these — they
                // depend only on `i`).
                let left = plane.locate(i << 1, d + 1);
                let right = plane.locate((i << 1) | 1, d + 1);
                plane.prefetch_loc(left);
                plane.prefetch_loc(right);
                loc = if go_right { right } else { left };
            } else {
                loc = plane.locate(next, d + 1);
            }
        }
        i = next;
    }
    (cand_loc != NO_CAND && cand_key == probe).then(|| plane.result_position(cand_loc))
}

/// [`search`], recording the layout position of every node
/// [`reference_walk`] would visit: the full root path for misses, the
/// root-to-match prefix for hits (the branch-free descent continues
/// past the match; the overshoot is truncated so traces stay
/// bit-identical).
pub fn search_traced<P: DescentPlane>(
    plane: &P,
    probe: P::Key,
    visited: &mut Vec<u64>,
) -> Option<u64> {
    let h = plane.height();
    visited.reserve(h as usize);
    let start = visited.len();
    let mut i = 1u64;
    let mut cand_loc = NO_CAND;
    let mut cand_depth = 0u32;
    let mut cand_key = probe;
    let loc_is_pos = plane.locator_is_position();
    for d in 0..h {
        let loc = plane.locate(i, d);
        visited.push(if loc_is_pos {
            loc
        } else {
            plane.position(i, d)
        });
        let k = plane.key_at(loc);
        let real = plane.is_real(i);
        let go_right = real && probe > k;
        if real && !go_right {
            cand_loc = loc;
            cand_depth = d;
            cand_key = k;
        }
        i = (i << 1) | u64::from(go_right);
    }
    if cand_loc != NO_CAND && cand_key == probe {
        visited.truncate(start + cand_depth as usize + 1);
        Some(plane.result_position(cand_loc))
    } else {
        None
    }
}

/// The reference descent: one node per level and a three-way compare
/// that stops at the match; padding slots compare as `+∞` and their
/// keys are never loaded. Every plane backend's `search_reference`
/// (with no trace) and `search_traced` run it over the backend's
/// reference plane, and every kernel is bit-identical to it.
///
/// With `trace = Some((visited, stride))`, each visited node's layout
/// position is recorded at `stride`-slot chunk granularity: entering a
/// new chunk pushes all its slots (a fat rank-of-key loads the whole
/// chunk, so cache replay must charge all of it). Stride 1 records
/// exactly the visited nodes.
pub fn reference_walk<P: DescentPlane>(
    plane: &P,
    probe: P::Key,
    mut trace: Option<(&mut Vec<u64>, u64)>,
) -> Option<u64> {
    let mut last_chunk = u64::MAX;
    let mut i = 1u64;
    for d in 0..plane.height() {
        let loc = plane.locate(i, d);
        if let Some((visited, stride)) = trace.as_mut() {
            let pos = if plane.locator_is_position() {
                loc
            } else {
                plane.position(i, d)
            };
            let chunk = pos / *stride;
            if chunk != last_chunk {
                last_chunk = chunk;
                visited.extend(chunk * *stride..(chunk + 1) * *stride);
            }
        }
        let go_right = plane.is_real(i)
            && match probe.cmp(&plane.key_at(loc)) {
                Ordering::Equal => return Some(plane.result_position(loc)),
                Ordering::Less => false,
                Ordering::Greater => true,
            };
        i = (i << 1) | u64::from(go_right);
    }
    None
}

/// One node of [`sorted_walk`]'s current root path.
#[derive(Clone, Copy)]
struct PathStep<K> {
    node: u64,
    loc: u64,
    /// `None` for a padding slot, which compares as `+∞`.
    key: Option<K>,
    /// Exclusive upper bound of the node's subtree, inherited from the
    /// nearest ancestor the path turned left at (`None` = `+∞`).
    upper: Option<K>,
}

/// The shared-prefix sorted-batch descent: [`reference_walk`] for each
/// probe of an ascending batch, restarted from the lowest common
/// ancestor of consecutive probes' root paths instead of the root. The
/// current path rides in a stack; each probe pops every node whose
/// subtree lies entirely below it and resumes the three-way descent
/// from the deepest node left, so a shared path prefix is fetched once
/// per batch. `emit` receives `(probe index, result)` in probe order;
/// results are bit-identical to per-probe [`reference_walk`].
///
/// With a trace sink, the layout position of every *newly fetched*
/// node is recorded (one slot per node, whatever the plane's chunking):
/// for a sorted batch the trace is a subset of the concatenated
/// per-probe traces.
///
/// # Errors
/// [`Error::UnsortedBatch`] at the first descending adjacent probe pair
/// (equal probes are fine); the probes before it have been emitted.
pub fn sorted_walk<P: DescentPlane>(
    plane: &P,
    probes: &[P::Key],
    mut emit: impl FnMut(usize, Option<u64>),
    mut trace: Option<&mut Vec<u64>>,
) -> Result<()> {
    let h = plane.height();
    let mut fetch = |node: u64, depth: u32, upper: Option<P::Key>| {
        let loc = plane.locate(node, depth);
        if let Some(visited) = trace.as_deref_mut() {
            visited.push(if plane.locator_is_position() {
                loc
            } else {
                plane.position(node, depth)
            });
        }
        let key = plane.is_real(node).then(|| plane.key_at(loc));
        PathStep {
            node,
            loc,
            key,
            upper,
        }
    };
    let mut path: Vec<PathStep<P::Key>> = Vec::with_capacity(h as usize);
    for (idx, &probe) in probes.iter().enumerate() {
        if idx > 0 && probe < probes[idx - 1] {
            return Err(Error::UnsortedBatch { index: idx - 1 });
        }
        // A node whose upper bound is `<= probe` cannot contain it (on
        // equality the match is the ancestor holding the bound, which
        // stays). The root's bound is `+∞`, so the path never empties.
        while path
            .last()
            .is_some_and(|s| s.upper.is_some_and(|u| probe >= u))
        {
            path.pop();
        }
        if path.is_empty() {
            path.push(fetch(1, 0, None));
        }
        let result = loop {
            let top = *path.last().expect("the path holds at least the root");
            let go_right = match top.key.map(|k| probe.cmp(&k)) {
                Some(Ordering::Equal) => break Some(plane.result_position(top.loc)),
                Some(Ordering::Greater) => true,
                Some(Ordering::Less) | None => false,
            };
            let depth = path.len() as u32;
            if depth == h {
                break None; // fell off a leaf: absent
            }
            // Turning left tightens the bound to this node's key
            // (padding is `+∞` and leaves it unchanged).
            let upper = if go_right {
                top.upper
            } else {
                top.key.or(top.upper)
            };
            path.push(fetch((top.node << 1) | u64::from(go_right), depth, upper));
        };
        emit(idx, result);
    }
    Ok(())
}

/// Branch-free bound-rank descent: the 1-based in-order rank of the
/// first stored key `>= probe` (`UPPER = false`, i.e. `lower_bound_rank`)
/// or `> probe` (`UPPER = true`, `upper_bound_rank`). Identical results
/// to the generic trait descents: padding compares as `+∞`, the final
/// virtual leaf's gap index counts the keys below the bound.
#[inline]
pub fn bound_rank<P: DescentPlane, const UPPER: bool>(plane: &P, probe: P::Key) -> u64 {
    let h = plane.height();
    let speculate = plane.speculate_children();
    let mut i = 1u64;
    let mut loc = plane.locate(1, 0);
    for d in 0..h {
        let k = plane.key_at(loc);
        let real = plane.is_real(i);
        let go_right = real && if UPPER { probe >= k } else { probe > k };
        let next = (i << 1) | u64::from(go_right);
        if d + 1 < h {
            if speculate {
                let left = plane.locate(i << 1, d + 1);
                let right = plane.locate((i << 1) | 1, d + 1);
                plane.prefetch_loc(left);
                plane.prefetch_loc(right);
                loc = if go_right { right } else { left };
            } else {
                loc = plane.locate(next, d + 1);
            }
        }
        i = next;
    }
    (i - (1u64 << h)) + 1
}

// ---------------------------------------------------------------------------
// Interleaved multi-query kernel
// ---------------------------------------------------------------------------

/// Interleaved batch search: processes `probes` in chunks of up to
/// `width` lanes (clamped to `1..=MAX_LANES`), descending all lanes in
/// depth lockstep. Lane key loads are independent, so their cache
/// misses overlap; each lane computes its next locator exactly once and
/// prefetches it the moment its branch-free step resolves (free for
/// every plan — no speculative arithmetic). `emit` receives
/// `(probe index, result)` in input order; results are bit-identical to
/// per-probe [`search`].
#[inline]
pub fn fold_interleaved<P: DescentPlane>(
    plane: &P,
    probes: &[P::Key],
    width: usize,
    mut emit: impl FnMut(usize, Option<u64>),
) {
    let h = plane.height();
    let width = width.clamp(1, MAX_LANES);
    let root_loc = plane.locate(1, 0);
    let mut base = 0usize;
    for chunk in probes.chunks(width) {
        let mut node = [1u64; MAX_LANES];
        let mut loc = [root_loc; MAX_LANES];
        let mut cand_loc = [NO_CAND; MAX_LANES];
        let mut cand_key = [chunk[0]; MAX_LANES];
        plane.prefetch_loc(root_loc);
        for d in 0..h {
            for (l, &probe) in chunk.iter().enumerate() {
                let i = node[l];
                let k = plane.key_at(loc[l]);
                let real = plane.is_real(i);
                let go_right = real && probe > k;
                if real && !go_right {
                    cand_loc[l] = loc[l];
                    cand_key[l] = k;
                }
                let next = (i << 1) | u64::from(go_right);
                if d + 1 < h {
                    let nloc = plane.locate(next, d + 1);
                    plane.prefetch_loc(nloc);
                    loc[l] = nloc;
                }
                node[l] = next;
            }
        }
        for (l, &probe) in chunk.iter().enumerate() {
            let hit = cand_loc[l] != NO_CAND && cand_key[l] == probe;
            emit(base + l, hit.then(|| plane.result_position(cand_loc[l])));
        }
        base += chunk.len();
    }
}

/// An interleaved fold's `emit` that stores each result at its probe
/// index: `out` is cleared and sized to `probes` entries up front.
pub(crate) fn collect_into(
    out: &mut Vec<Option<u64>>,
    probes: usize,
) -> impl FnMut(usize, Option<u64>) + '_ {
    out.clear();
    out.resize(probes, None);
    move |idx, r| out[idx] = r
}

/// An interleaved fold's `emit` that adds every found position into
/// `acc` (wrapping) — the benchmark checksum.
pub(crate) fn sum_into(acc: &mut u64) -> impl FnMut(usize, Option<u64>) + '_ {
    move |_, r| {
        if let Some(p) = r {
            *acc = acc.wrapping_add(p);
        }
    }
}

// ---------------------------------------------------------------------------
// Explicit (pointer) kernels
// ---------------------------------------------------------------------------

/// Branch-free pointer descent over an explicit node array: child
/// positions come from the nodes themselves (no index arithmetic), the
/// three-way compare is replaced by a conditional child select, and both
/// children are prefetched one level ahead. Completeness of the tree
/// guarantees `h − 1` valid child steps, so the loop never tests NIL.
#[inline]
pub fn explicit_search<K: Copy + Ord>(
    nodes: &[Node<K>],
    root: u32,
    height: u32,
    probe: K,
) -> Option<u64> {
    let mut pos = root;
    let mut cand_pos = u32::MAX;
    let mut cand_key = probe;
    for _ in 0..height - 1 {
        let n = nodes[pos as usize];
        prefetch_read(std::ptr::addr_of!(nodes[n.left as usize]));
        prefetch_read(std::ptr::addr_of!(nodes[n.right as usize]));
        let go_right = probe > n.key;
        if !go_right {
            cand_pos = pos;
            cand_key = n.key;
        }
        pos = if go_right { n.right } else { n.left };
    }
    // Leaf level: compare only (children are NIL).
    let n = nodes[pos as usize];
    if probe <= n.key {
        cand_pos = pos;
        cand_key = n.key;
    }
    (cand_pos != u32::MAX && cand_key == probe).then(|| u64::from(cand_pos))
}

/// [`explicit_search`] with traces identical to the pointer walk's
/// (full path for misses, truncated at the match for hits).
pub fn explicit_search_traced<K: Copy + Ord>(
    nodes: &[Node<K>],
    root: u32,
    height: u32,
    probe: K,
    visited: &mut Vec<u64>,
) -> Option<u64> {
    let h = height;
    visited.reserve(h as usize);
    let start = visited.len();
    let mut pos = root;
    let mut cand_pos = u32::MAX;
    let mut cand_depth = 0u32;
    let mut cand_key = probe;
    for d in 0..h {
        visited.push(u64::from(pos));
        let n = nodes[pos as usize];
        let go_right = probe > n.key;
        if !go_right {
            cand_pos = pos;
            cand_depth = d;
            cand_key = n.key;
        }
        if d + 1 < h {
            pos = if go_right { n.right } else { n.left };
        }
    }
    if cand_pos != u32::MAX && cand_key == probe {
        visited.truncate(start + cand_depth as usize + 1);
        Some(u64::from(cand_pos))
    } else {
        None
    }
}

/// Interleaved pointer-chasing batch kernel: up to `width` descents in
/// flight, stepped round-robin per level; each lane's next node load is
/// prefetched as soon as its child select resolves. `emit` receives
/// `(probe index, result)` in input order.
#[inline]
pub fn explicit_fold_interleaved<K: Copy + Ord>(
    nodes: &[Node<K>],
    root: u32,
    height: u32,
    probes: &[K],
    width: usize,
    mut emit: impl FnMut(usize, Option<u64>),
) {
    let width = width.clamp(1, MAX_LANES);
    let mut base = 0usize;
    for chunk in probes.chunks(width) {
        let mut pos = [root; MAX_LANES];
        let mut cand_pos = [u32::MAX; MAX_LANES];
        let mut cand_key = [chunk[0]; MAX_LANES];
        for d in 0..height {
            for (l, &probe) in chunk.iter().enumerate() {
                let n = nodes[pos[l] as usize];
                let go_right = probe > n.key;
                if !go_right {
                    cand_pos[l] = pos[l];
                    cand_key[l] = n.key;
                }
                if d + 1 < height {
                    let next = if go_right { n.right } else { n.left };
                    pos[l] = next;
                    prefetch_read(std::ptr::addr_of!(nodes[next as usize]));
                }
            }
        }
        for (l, &probe) in chunk.iter().enumerate() {
            let hit = cand_pos[l] != u32::MAX && cand_key[l] == probe;
            emit(base + l, hit.then(|| u64::from(cand_pos[l])));
        }
        base += chunk.len();
    }
}

// ---------------------------------------------------------------------------
// Fat-node (B-ary) kernels
// ---------------------------------------------------------------------------

/// What the fat descent kernels need from a backend serving a B-ary
/// fat-node layout (`cobtree_core::fat`). The unit of work is the
/// **chunk**: `2^span` slots holding the chunk's keys in local in-order
/// order, real keys first ([`FatIndex::chunk_real_count`]). One
/// rank-of-key over the live prefix replaces `span` binary compares —
/// and is where the SIMD compare+movemask kernel plugs in
/// ([`byte_rank_in_chunk`]).
pub trait FatPlane {
    /// Key type compared during the descent.
    type Key: Copy + Ord;

    /// The layout's position arithmetic.
    fn fat_index(&self) -> &FatIndex;

    /// Number of comparable slots at the front of chunk
    /// `(fat_depth, t)` — the rest are padding or structural holes and
    /// must compare as `+∞` (heap planes store explicit suprema and
    /// report the full `2^span − 1`; mapped planes report the real-key
    /// prefix length).
    fn live_count(&self, fat_depth: u32, t: u64) -> u32;

    /// Rank-of-key in the chunk starting at slot `base`: the number of
    /// live keys `< probe` (`<= probe` when `upper`), plus the slot
    /// index (0-based, chunk-local) of the key equal to `probe` if one
    /// exists. Live keys are strictly ascending, so the count *is* the
    /// exit gap and at most one slot can be equal.
    fn rank_in_chunk(
        &self,
        base: u64,
        live: u32,
        probe: Self::Key,
        upper: bool,
    ) -> (u32, Option<u32>);

    /// Issues a prefetch for the storage behind chunk slot `base`.
    #[inline]
    fn prefetch_chunk(&self, base: u64) {
        let _ = base;
    }
}

/// Fat point search: one rank-of-key per fat level. The exit gap `r`
/// (count of live keys `< probe`) *is* the child chunk selector:
/// `t' = t·2^span + r`. Returns the layout slot position of the node
/// holding `probe` — identical to [`reference_walk`] over the same fat
/// positions.
#[inline]
pub fn fat_search<P: FatPlane>(plane: &P, probe: P::Key) -> Option<u64> {
    let ix = plane.fat_index();
    let stride = ix.stride();
    let mut t = 0u64;
    for fat_depth in 0..ix.fat_levels() {
        let base = ix.chunk_position(fat_depth, t) * stride;
        let live = plane.live_count(fat_depth, t);
        let (r, eq) = plane.rank_in_chunk(base, live, probe, false);
        if let Some(j) = eq {
            return Some(base + u64::from(j));
        }
        t = (t << ix.span_of(fat_depth)) | u64::from(r);
    }
    None
}

/// [`fat_search`], recording every slot of every visited chunk (the
/// whole chunk is the load unit — a rank-of-key touches all of it, so
/// cache replay must charge all of it). On a hit the trace ends with
/// the matching chunk.
pub fn fat_search_traced<P: FatPlane>(
    plane: &P,
    probe: P::Key,
    visited: &mut Vec<u64>,
) -> Option<u64> {
    let ix = plane.fat_index();
    let stride = ix.stride();
    visited.reserve((ix.fat_levels() as u64 * stride) as usize);
    let mut t = 0u64;
    for fat_depth in 0..ix.fat_levels() {
        let base = ix.chunk_position(fat_depth, t) * stride;
        for off in 0..stride {
            visited.push(base + off);
        }
        let live = plane.live_count(fat_depth, t);
        let (r, eq) = plane.rank_in_chunk(base, live, probe, false);
        if let Some(j) = eq {
            return Some(base + u64::from(j));
        }
        t = (t << ix.span_of(fat_depth)) | u64::from(r);
    }
    None
}

/// Fat bound-rank descent: the 1-based in-order rank of the first live
/// key `>= probe` (`UPPER = false`) or `> probe` (`UPPER = true`) —
/// bit-identical to the generic binary trait descents, because the
/// per-chunk exit gap equals the number of left/right binary turns
/// through the chunk.
#[inline]
pub fn fat_bound_rank<P: FatPlane, const UPPER: bool>(plane: &P, probe: P::Key) -> u64 {
    let ix = plane.fat_index();
    let stride = ix.stride();
    let mut t = 0u64;
    for fat_depth in 0..ix.fat_levels() {
        let base = ix.chunk_position(fat_depth, t) * stride;
        let live = plane.live_count(fat_depth, t);
        let (r, eq) = plane.rank_in_chunk(base, live, probe, UPPER);
        if !UPPER {
            if let Some(j) = eq {
                return ix.rank_of_chunk_slot(fat_depth, t, j);
            }
        }
        t = (t << ix.span_of(fat_depth)) | u64::from(r);
    }
    // `t` is the virtual-leaf gap index: exactly `t` slots sort below
    // the bound.
    t + 1
}

/// Interleaved fat batch search: up to `width` descents in flight,
/// stepped round-robin one *fat* level at a time; each lane prefetches
/// its next chunk the moment its rank-of-key resolves, so lane chunk
/// loads overlap. `emit` receives `(probe index, result)` in input
/// order; results are bit-identical to per-probe [`fat_search`].
#[inline]
pub fn fat_fold_interleaved<P: FatPlane>(
    plane: &P,
    probes: &[P::Key],
    width: usize,
    mut emit: impl FnMut(usize, Option<u64>),
) {
    let ix = plane.fat_index();
    let stride = ix.stride();
    let levels = ix.fat_levels();
    let width = width.clamp(1, MAX_LANES);
    let mut base_idx = 0usize;
    for chunk in probes.chunks(width) {
        let mut t = [0u64; MAX_LANES];
        let mut result: [Option<u64>; MAX_LANES] = [None; MAX_LANES];
        let mut done = [false; MAX_LANES];
        plane.prefetch_chunk(0);
        for fat_depth in 0..levels {
            for (l, &probe) in chunk.iter().enumerate() {
                if done[l] {
                    continue;
                }
                let base = ix.chunk_position(fat_depth, t[l]) * stride;
                let live = plane.live_count(fat_depth, t[l]);
                let (r, eq) = plane.rank_in_chunk(base, live, probe, false);
                if let Some(j) = eq {
                    result[l] = Some(base + u64::from(j));
                    done[l] = true;
                    continue;
                }
                let next = (t[l] << ix.span_of(fat_depth)) | u64::from(r);
                t[l] = next;
                if fat_depth + 1 < levels {
                    plane.prefetch_chunk(ix.chunk_position(fat_depth + 1, next) * stride);
                }
            }
        }
        for (l, _) in chunk.iter().enumerate() {
            emit(base_idx + l, result[l]);
        }
        base_idx += chunk.len();
    }
}

// ---------------------------------------------------------------------------
// One search surface for every plane backend
// ---------------------------------------------------------------------------

impl<B: DescentPlane, F: FatPlane<Key = B::Key>> FastPlane<B, F> {
    #[inline]
    fn search(&self, probe: B::Key) -> Option<u64> {
        match self {
            Self::Binary(p) => search(p, probe),
            Self::Fat(p) => fat_search(p, probe),
        }
    }

    fn search_traced(&self, probe: B::Key, visited: &mut Vec<u64>) -> Option<u64> {
        match self {
            Self::Binary(p) => search_traced(p, probe, visited),
            Self::Fat(p) => fat_search_traced(p, probe, visited),
        }
    }

    #[inline]
    fn fold_interleaved(
        &self,
        probes: &[B::Key],
        width: usize,
        emit: impl FnMut(usize, Option<u64>),
    ) {
        match self {
            Self::Binary(p) => fold_interleaved(p, probes, width, emit),
            Self::Fat(p) => fat_fold_interleaved(p, probes, width, emit),
        }
    }

    #[inline]
    fn bound_rank<const UPPER: bool>(&self, probe: B::Key) -> u64 {
        match self {
            Self::Binary(p) => bound_rank::<_, UPPER>(p, probe),
            Self::Fat(p) => fat_bound_rank::<_, UPPER>(p, probe),
        }
    }

    /// The untraced [`sorted_walk`]: on this binary plane, or on the
    /// binary `reference` plane when this one is fat (a chunk kernel has
    /// no shared prefix to keep, and the node-by-node walk over the same
    /// slots beats per-probe chunk descents on dense batches).
    fn sorted_walk(
        &self,
        reference: &impl DescentPlane<Key = B::Key>,
        probes: &[B::Key],
        emit: impl FnMut(usize, Option<u64>),
    ) -> Result<()> {
        match self {
            Self::Binary(p) => sorted_walk(p, probes, emit, None),
            Self::Fat(_) => sorted_walk(reference, probes, emit, None),
        }
    }

    /// Trace granularity of [`reference_walk`] for this plane: whole
    /// chunks on fat planes, single nodes otherwise.
    fn trace_stride(&self) -> u64 {
        match self {
            Self::Binary(_) => 1,
            Self::Fat(p) => p.fat_index().stride(),
        }
    }
}

/// The fat arm of a backend that serves binary layouts only. It has no
/// values, so its match arms compile away.
pub(crate) struct NoFatPlane<K>(Infallible, PhantomData<fn() -> K>);

impl<K: Copy + Ord> FatPlane for NoFatPlane<K> {
    type Key = K;

    fn fat_index(&self) -> &FatIndex {
        match self.0 {}
    }

    fn live_count(&self, _: u32, _: u64) -> u32 {
        match self.0 {}
    }

    fn rank_in_chunk(&self, _: u64, _: u32, _: K, _: bool) -> (u32, Option<u32>) {
        match self.0 {}
    }
}

mod planes {
    use super::{DescentPlane, FatPlane};

    /// A backend's fast plane: binary descent, or rank-of-key descent
    /// over fat-node chunks. Its methods are the one place that picks
    /// the kernel for each operation.
    pub enum FastPlane<B, F> {
        Binary(B),
        Fat(F),
    }

    /// How a storage backend hands the kernels its planes. Implementing
    /// it is all a plane backend does: [`crate::SearchBackend`] follows
    /// from the blanket impl next to it.
    pub trait Planes {
        /// Key type the planes compare.
        type Key: Copy + Ord;

        /// The plane the kernels run on.
        fn fast_plane(
            &self,
        ) -> FastPlane<impl DescentPlane<Key = Self::Key> + '_, impl FatPlane<Key = Self::Key> + '_>;

        /// The plane the reference walk and the rank primitives read:
        /// positions from the uncompiled indexer or the mapped table.
        fn reference_plane(&self) -> impl DescentPlane<Key = Self::Key> + '_;
    }
}

pub(crate) use planes::{FastPlane, Planes};

impl<T: Planes> SearchBackend<T::Key> for T {
    #[inline]
    fn height(&self) -> u32 {
        self.reference_plane().height()
    }

    #[inline]
    fn key_count(&self) -> u64 {
        self.reference_plane().key_count()
    }

    #[inline]
    fn search(&self, key: T::Key) -> Option<u64> {
        self.fast_plane().search(key)
    }

    fn search_traced(&self, key: T::Key, visited: &mut Vec<u64>) -> Option<u64> {
        let stride = self.fast_plane().trace_stride();
        reference_walk(&self.reference_plane(), key, Some((visited, stride)))
    }

    #[inline]
    fn key_at_rank(&self, rank: u64) -> Option<T::Key> {
        let plane = self.reference_plane();
        (1..=plane.key_count()).contains(&rank).then(|| {
            let (node, depth) = node_at_in_order(plane.height(), rank);
            plane.key_at(plane.locate(node, depth))
        })
    }

    #[inline]
    fn position_of_rank(&self, rank: u64) -> Option<u64> {
        let plane = self.reference_plane();
        (1..1u64 << plane.height()).contains(&rank).then(|| {
            let (node, depth) = node_at_in_order(plane.height(), rank);
            plane.position(node, depth)
        })
    }

    fn search_reference(&self, key: T::Key) -> Option<u64> {
        reference_walk(&self.reference_plane(), key, None)
    }

    fn search_traced_kernel(&self, key: T::Key, visited: &mut Vec<u64>) -> Option<u64> {
        self.fast_plane().search_traced(key, visited)
    }

    fn search_batch_interleaved(&self, keys: &[T::Key], width: usize, out: &mut Vec<Option<u64>>) {
        self.fast_plane()
            .fold_interleaved(keys, width, collect_into(out, keys.len()));
    }

    fn search_batch_checksum(&self, keys: &[T::Key]) -> u64 {
        let mut acc = 0u64;
        self.fast_plane()
            .fold_interleaved(keys, DEFAULT_LANES, sum_into(&mut acc));
        acc
    }

    #[inline]
    fn lower_bound_rank(&self, key: T::Key) -> u64 {
        self.fast_plane().bound_rank::<false>(key)
    }

    #[inline]
    fn upper_bound_rank(&self, key: T::Key) -> u64 {
        self.fast_plane().bound_rank::<true>(key)
    }

    fn search_sorted_batch(&self, keys: &[T::Key], out: &mut Vec<Option<u64>>) -> Result<()> {
        self.fast_plane()
            .sorted_walk(&self.reference_plane(), keys, collect_into(out, keys.len()))
    }

    fn search_sorted_batch_traced(
        &self,
        keys: &[T::Key],
        out: &mut Vec<Option<u64>>,
        visited: &mut Vec<u64>,
    ) -> Result<()> {
        let emit = collect_into(out, keys.len());
        sorted_walk(&self.reference_plane(), keys, emit, Some(visited))
    }
}

// ---------------------------------------------------------------------------
// Rank-of-key over raw key bytes: scalar always, SIMD when available
// ---------------------------------------------------------------------------

/// Scalar rank-of-key over a chunk's raw little-endian key bytes — the
/// always-compiled fallback the SIMD path must be bit-identical to
/// (and the only path for key widths/strides without a vector kernel).
#[inline]
pub fn scalar_byte_rank<K: FixedKey>(
    bytes: &[u8],
    base: u64,
    live: u32,
    probe: K,
    upper: bool,
) -> (u32, Option<u32>) {
    let start = base as usize * K::WIDTH;
    let mut count = 0u32;
    let mut eq = None;
    for j in 0..live {
        let off = start + j as usize * K::WIDTH;
        let k = K::read_le(&bytes[off..off + K::WIDTH]);
        if k < probe || (upper && k == probe) {
            count += 1;
        }
        if k == probe {
            eq = Some(j);
        }
    }
    (count, eq)
}

/// Whether the SIMD rank-of-key path is compiled in, supported by this
/// CPU, and not force-disabled (`COBTREE_FORCE_SCALAR` in the
/// environment, or [`force_scalar_rank`]).
#[must_use]
pub fn simd_rank_enabled() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        simd_ctl::enabled()
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// Test hook: force the scalar rank-of-key fallback on (`true`) or
/// re-enable SIMD where supported (`false`). The SIMD and scalar paths
/// are bit-identical, so flipping this mid-run is safe; it exists so
/// parity tests can exercise both paths in one process.
#[doc(hidden)]
pub fn force_scalar_rank(force: bool) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    simd_ctl::force_scalar(force);
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let _ = force;
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd_ctl {
    use std::sync::atomic::{AtomicU8, Ordering};

    const UNKNOWN: u8 = 0;
    const ON: u8 = 1;
    const OFF: u8 = 2;
    static STATE: AtomicU8 = AtomicU8::new(UNKNOWN);

    pub fn enabled() -> bool {
        match STATE.load(Ordering::Relaxed) {
            ON => true,
            OFF => false,
            _ => {
                let on = std::env::var_os("COBTREE_FORCE_SCALAR").is_none() && supported();
                STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
                on
            }
        }
    }

    pub fn force_scalar(force: bool) {
        let state = if force {
            OFF
        } else if supported() {
            ON
        } else {
            OFF
        };
        STATE.store(state, Ordering::Relaxed);
    }

    fn supported() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use std::arch::x86_64::*;

    /// `(lt, eq)` bit masks (bit `j` = slot `j`) of `probe > key` /
    /// `probe == key` over `slots` 8-byte keys at `ptr`. Every lane is
    /// XOR-ed with `bias` before the signed compare — the sign-bias
    /// trick that makes unsigned order equal signed order of biased
    /// lanes (`bias = 0` for genuinely signed keys).
    ///
    /// # Safety
    /// Requires AVX2, `slots % 4 == 0`, and `slots * 8` readable bytes
    /// at `ptr`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn rank_w8(ptr: *const u8, slots: u32, probe_biased: i64, bias: i64) -> (u64, u64) {
        let pv = _mm256_set1_epi64x(probe_biased);
        let bv = _mm256_set1_epi64x(bias);
        let mut lt = 0u64;
        let mut eq = 0u64;
        let mut v = 0u32;
        while v < slots {
            let lanes = _mm256_loadu_si256(ptr.add(v as usize * 8).cast());
            let lanes = _mm256_xor_si256(lanes, bv);
            let mlt = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(pv, lanes)));
            let meq = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(pv, lanes)));
            lt |= u64::from(mlt as u32 & 0xf) << v;
            eq |= u64::from(meq as u32 & 0xf) << v;
            v += 4;
        }
        (lt, eq)
    }

    /// [`rank_w8`] for 4-byte keys (8 lanes per vector).
    ///
    /// # Safety
    /// Requires AVX2, `slots % 8 == 0`, and `slots * 4` readable bytes
    /// at `ptr`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn rank_w4(ptr: *const u8, slots: u32, probe_biased: i32, bias: i32) -> (u64, u64) {
        let pv = _mm256_set1_epi32(probe_biased);
        let bv = _mm256_set1_epi32(bias);
        let mut lt = 0u64;
        let mut eq = 0u64;
        let mut v = 0u32;
        while v < slots {
            let lanes = _mm256_loadu_si256(ptr.add(v as usize * 4).cast());
            let lanes = _mm256_xor_si256(lanes, bv);
            let mlt = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(pv, lanes)));
            let meq = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(pv, lanes)));
            lt |= u64::from(mlt as u32 & 0xff) << v;
            eq |= u64::from(meq as u32 & 0xff) << v;
            v += 8;
        }
        (lt, eq)
    }
}

/// SIMD `(lt, eq)` masks over a whole chunk's `stride` slots, or `None`
/// when no vector kernel fits this key width / stride. Reads the full
/// chunk (padding bytes are zeroed by the writer and masked off by the
/// caller); chunks never straddle the key region's end, so whole-chunk
/// loads stay in bounds.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline]
fn simd_chunk_masks<K: FixedKey>(
    bytes: &[u8],
    base: u64,
    stride: u64,
    probe: K,
) -> Option<(u64, u64)> {
    let start = base as usize * K::WIDTH;
    if start + stride as usize * K::WIDTH > bytes.len() {
        return None;
    }
    let mut raw = [0u8; 16];
    probe.write_le(&mut raw);
    match K::WIDTH {
        8 if stride >= 4 => {
            let bias = if K::SIGNED { 0 } else { i64::MIN };
            let p = i64::from_le_bytes(raw[..8].try_into().expect("width 8")) ^ bias;
            // SAFETY: AVX2 gated by the caller (`simd_rank_enabled`);
            // stride is a power of two >= 4, and bounds were checked.
            Some(unsafe { avx2::rank_w8(bytes.as_ptr().add(start), stride as u32, p, bias) })
        }
        4 if stride >= 8 => {
            let bias = if K::SIGNED { 0 } else { i32::MIN };
            let p = i32::from_le_bytes(raw[..4].try_into().expect("width 4")) ^ bias;
            // SAFETY: as above; stride is a power of two >= 8.
            Some(unsafe { avx2::rank_w4(bytes.as_ptr().add(start), stride as u32, p, bias) })
        }
        _ => None,
    }
}

/// Rank-of-key over a chunk of raw little-endian key bytes: the SIMD
/// compare+movemask kernel when compiled, supported and enabled, the
/// scalar loop otherwise. The two are **bit-identical** (pinned by the
/// SIMD-parity proptests); `stride` is the chunk's full slot count,
/// `live` the comparable prefix.
#[inline]
pub fn byte_rank_in_chunk<K: FixedKey>(
    bytes: &[u8],
    base: u64,
    stride: u64,
    live: u32,
    probe: K,
    upper: bool,
) -> (u32, Option<u32>) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_ctl::enabled() {
        if let Some((lt, eq)) = simd_chunk_masks::<K>(bytes, base, stride, probe) {
            let live_mask = (1u64 << live) - 1;
            let lt = lt & live_mask;
            let eq = eq & live_mask;
            let count = if upper {
                (lt | eq).count_ones()
            } else {
                lt.count_ones()
            };
            let eq_idx = (eq != 0).then(|| eq.trailing_zeros());
            return (count, eq_idx);
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let _ = stride;
    scalar_byte_rank::<K>(bytes, base, live, probe, upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobtree_core::NamedLayout;

    fn plane_for(layout: NamedLayout, h: u32) -> (Vec<u64>, StepPlan) {
        let n = (1u64 << h) - 1;
        let idx = layout.indexer(h);
        let plan = layout
            .compile_plan(h)
            .or_else(|| StepPlan::table_from_index(idx.as_ref()))
            .expect("plan");
        let tree = cobtree_core::Tree::new(h);
        let keys: Vec<u64> = (1..=n).map(|k| k * 3).collect();
        let mut arranged = vec![0u64; n as usize];
        for i in tree.nodes() {
            arranged[plan.position(i, tree.depth(i)) as usize] =
                keys[(tree.in_order_rank(i) - 1) as usize];
        }
        (arranged, plan)
    }

    #[test]
    fn scalar_kernel_finds_every_key_and_rejects_absent() {
        for layout in NamedLayout::ALL {
            let h = 7;
            let (keys, plan) = plane_for(layout, h);
            let plane = ArrayPlane::new(&keys, PosRef::Plan(&plan), h);
            for r in 1..=(1u64 << h) - 1 {
                let p = search(&plane, r * 3).expect("present");
                assert_eq!(keys[p as usize], r * 3, "{layout} rank {r}");
                assert_eq!(search(&plane, r * 3 - 1), None);
            }
        }
    }

    #[test]
    fn interleaved_matches_scalar_at_every_width() {
        let h = 6;
        let (keys, plan) = plane_for(NamedLayout::MinWep, h);
        let plane = ArrayPlane::new(&keys, PosRef::Plan(&plan), h);
        let probes: Vec<u64> = (0..200u64).collect();
        let scalar: Vec<Option<u64>> = probes.iter().map(|&p| search(&plane, p)).collect();
        let mut out = Vec::new();
        for width in [1usize, 2, 3, 5, 8, 16, 64] {
            fold_interleaved(&plane, &probes, width, collect_into(&mut out, probes.len()));
            assert_eq!(out, scalar, "width {width}");
        }
        // Batch shorter than the width.
        fold_interleaved(&plane, &probes[..3], 16, collect_into(&mut out, 3));
        assert_eq!(out, scalar[..3]);
        // Empty batch.
        fold_interleaved(&plane, &[], 8, collect_into(&mut out, 0));
        assert!(out.is_empty());
    }

    #[test]
    fn checksum_equals_sum_of_scalar_hits() {
        let h = 8;
        let (keys, plan) = plane_for(NamedLayout::PreVeb, h);
        let plane = ArrayPlane::new(&keys, PosRef::Plan(&plan), h);
        let probes: Vec<u64> = (0..1000u64).map(|k| k * 7 % 800).collect();
        let expect = probes
            .iter()
            .filter_map(|&p| search(&plane, p))
            .fold(0u64, u64::wrapping_add);
        for width in [1, DEFAULT_LANES] {
            let mut acc = 0u64;
            fold_interleaved(&plane, &probes, width, sum_into(&mut acc));
            assert_eq!(acc, expect, "width {width}");
        }
    }

    #[test]
    fn bound_rank_matches_partition_point() {
        let h = 6;
        let (keys, plan) = plane_for(NamedLayout::InVeb, h);
        let plane = ArrayPlane::new(&keys, PosRef::Plan(&plan), h);
        let sorted: Vec<u64> = (1..=(1u64 << h) - 1).map(|k| k * 3).collect();
        for probe in 0..=200u64 {
            let lb = sorted.partition_point(|&k| k < probe) as u64 + 1;
            let ub = sorted.partition_point(|&k| k <= probe) as u64 + 1;
            assert_eq!(bound_rank::<_, false>(&plane, probe), lb, "lb({probe})");
            assert_eq!(bound_rank::<_, true>(&plane, probe), ub, "ub({probe})");
        }
    }

    #[test]
    fn rank_plane_result_positions_match_position_source() {
        // `result_position` must invert the rank locator exactly.
        let h = 7;
        let layout = NamedLayout::MinWep;
        let plan = layout.compile_plan(h).unwrap();
        let sorted: Vec<u64> = (1..=(1u64 << h) - 1).collect();
        let plane = RankPlane::new(&sorted, PosRef::Plan(&plan), h);
        let tree = cobtree_core::Tree::new(h);
        for i in tree.nodes() {
            let loc = plane.locate(i, tree.depth(i));
            assert_eq!(
                plane.result_position(loc),
                plan.position(i, tree.depth(i)),
                "node {i}"
            );
        }
    }

    /// Writes `keys` (ascending, real prefix) followed by zero padding
    /// into a raw LE byte chunk of `stride` slots.
    fn chunk_bytes<K: FixedKey>(keys: &[K], stride: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; stride * K::WIDTH];
        for (j, &k) in keys.iter().enumerate() {
            k.write_le(&mut bytes[j * K::WIDTH..]);
        }
        bytes
    }

    fn assert_rank_parity<K: FixedKey>(keys: &[K], stride: u64, probes: &[K]) {
        let bytes = chunk_bytes(keys, stride as usize);
        let live = keys.len() as u32;
        for &probe in probes {
            for upper in [false, true] {
                let scalar = scalar_byte_rank::<K>(&bytes, 0, live, probe, upper);
                let auto = byte_rank_in_chunk::<K>(&bytes, 0, stride, live, probe, upper);
                assert_eq!(auto, scalar, "live {live} stride {stride} upper {upper}");
            }
        }
    }

    #[test]
    fn byte_rank_matches_scalar_u64() {
        // Covers the w8 AVX2 kernel when available (stride 8/16 >= 4
        // lanes) and the scalar path when not; results must agree
        // either way. Extremes exercise the sign-bias trick.
        for live in 0..=15u64 {
            let keys: Vec<u64> = (0..live).map(|j| j * 3 + 1).collect();
            let mut probes: Vec<u64> = (0..=50).collect();
            probes.extend([u64::MAX, u64::MAX - 1, 1u64 << 63]);
            assert_rank_parity(&keys, 16, &probes);
            if live <= 7 {
                assert_rank_parity(&keys, 8, &probes);
            }
        }
    }

    #[test]
    fn byte_rank_matches_scalar_i64_and_u32() {
        for live in 0..=7u32 {
            let i_keys: Vec<i64> = (0..live).map(|j| i64::from(j) * 5 - 12).collect();
            let i_probes: Vec<i64> = (-20..=25).collect();
            assert_rank_parity(&i_keys, 8, &i_probes);

            let u_keys: Vec<u32> = (0..live).map(|j| j * 7 + 2).collect();
            let mut u_probes: Vec<u32> = (0..=60).collect();
            u_probes.extend([u32::MAX, 1u32 << 31]);
            assert_rank_parity(&u_keys, 8, &u_probes);
        }
    }

    #[test]
    fn force_scalar_rank_flips_the_dispatch() {
        // Whatever the hardware, the forced-scalar result must equal
        // the auto-dispatch result (parity), and the control flag must
        // report scalar while forced.
        let keys: Vec<u64> = (0..15).map(|j| j * 2 + 1).collect();
        let bytes = chunk_bytes(&keys, 16);
        let auto = byte_rank_in_chunk::<u64>(&bytes, 0, 16, 15, 9, false);
        force_scalar_rank(true);
        assert!(!simd_rank_enabled());
        let forced = byte_rank_in_chunk::<u64>(&bytes, 0, 16, 15, 9, false);
        force_scalar_rank(false);
        assert_eq!(auto, forced);
        assert_eq!(forced, (4, Some(4)));
    }
}
