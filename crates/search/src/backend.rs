//! The [`SearchBackend`] trait: one *ordered-index* interface over every
//! storage discipline.
//!
//! The paper's point is that the search *algorithm* is identical across
//! layouts and storage kinds — only the position computation changes.
//! This trait makes that literal: pointer-based ([`crate::ExplicitTree`]),
//! pointer-less ([`crate::ImplicitTree`], [`crate::FatHeapTree`]),
//! index-only ([`crate::IndexOnlyTree`]) and mapped
//! ([`crate::MappedTree`]) trees and the [`crate::SearchTree`] facade
//! all expose the same surface, so benches, the cache simulator and the
//! analysis harness iterate backends generically through
//! `&dyn SearchBackend<K>`.
//!
//! # Who implements what
//!
//! The four *plane backends* (implicit, fat heap, index-only, mapped)
//! implement none of this trait by hand. Each states its planes — a
//! fast plane for the compiled kernels and a reference plane for the
//! oracle — and one blanket impl in [`crate::kernel`] implements the whole
//! trait for all of them: the kernel entry points, the rank primitives
//! (read off the reference plane), and `search_reference` /
//! `search_traced`, which are the one three-way reference walk
//! ([`crate::kernel::reference_walk`]) without and with a trace sink.
//! Sorted batches are its shared-prefix form
//! ([`crate::kernel::sorted_walk`]): untraced on the fast plane, traced
//! on the reference plane.
//! [`crate::ExplicitTree`] implements the trait directly, with pointer
//! kernels and pointer walks of its own, and the facade forwards to
//! whichever backend it holds. Every implementor states both its kernel
//! and its oracle: none of the search entry points has a default.
//!
//! # The position ⇄ in-order rank contract
//!
//! Every backend stores its keys at the nodes of a complete binary tree
//! of height `h`, and the in-order traversal of that tree visits keys in
//! ascending order. Two coordinate systems therefore describe the same
//! entry:
//!
//! * the **layout position** `p ∈ 0..2^h − 1` — where the entry's node
//!   sits in the storage array (layout-dependent; what [`SearchBackend::search`]
//!   returns and what cache simulation consumes);
//! * the **in-order rank** `r ∈ 1..=key_count` — the entry's ordinal
//!   among the stored keys (layout-independent; what ordered-map
//!   operations speak).
//!
//! The two primitives [`SearchBackend::key_at_rank`] and
//! [`SearchBackend::position_of_rank`] translate rank → (key, position);
//! together with the bound-rank descents they carry everything else —
//! `lower_bound`/`upper_bound`, `rank`/`select`, cursors and range scans
//! ([`crate::cursor`]) — which is provided once on the trait and
//! inherited by all backends.
//!
//! Contract details implementations must uphold:
//!
//! * ranks `1..=key_count` hold the stored keys in strictly ascending
//!   order: `key_at_rank(r)` is `Some` and increasing in `r`;
//! * the underlying complete tree may be *larger* than `key_count`
//!   (padding, as in the [`crate::SearchTree`] facade): for padded ranks
//!   `key_count < r ≤ 2^h − 1`, `key_at_rank` returns `None` — the
//!   descents treat such slots as `+∞` — while
//!   `position_of_rank` still returns the padding node's position so
//!   traced walks record every touched node;
//! * `position_of_rank(r)` agrees with [`SearchBackend::search`]: for a
//!   stored key `k` at rank `r`, `search(k) == position_of_rank(r)`.
//!
//! Positions are 0-based offsets into the backend's layout array,
//! reported as `u64` regardless of the backend's internal width.

use cobtree_core::error::Result;

/// Object-safe ordered-index interface shared by all storage backends.
pub trait SearchBackend<K: Copy + Ord> {
    /// Height `h` of the underlying complete tree.
    fn height(&self) -> u32;

    /// Number of stored keys — in-order ranks `1..=key_count()` hold
    /// them in ascending order. The underlying complete tree may be
    /// larger (padding slots carry no key).
    fn key_count(&self) -> u64;

    /// Searches for `key`; returns the 0-based layout position of the
    /// node holding it, if present.
    fn search(&self, key: K) -> Option<u64>;

    /// The reference descent, recording the layout position of every
    /// visited node (for cache-simulation traces; fat-node planes record
    /// every slot of each visited chunk). Returns what
    /// [`SearchBackend::search`] returns.
    fn search_traced(&self, key: K, visited: &mut Vec<u64>) -> Option<u64>;

    /// Key stored at 1-based in-order rank `rank`, or `None` when
    /// `rank` is `0`, beyond [`SearchBackend::key_count`], or a padding
    /// slot. See the module docs for the full contract.
    fn key_at_rank(&self, rank: u64) -> Option<K>;

    /// Layout position of the node with 1-based in-order rank `rank`,
    /// or `None` when `rank` is outside `1..=2^h − 1`. Unlike
    /// [`SearchBackend::key_at_rank`] this *does* answer for padding
    /// ranks, so traces can record every touched node.
    fn position_of_rank(&self, rank: u64) -> Option<u64>;

    /// The reference descent — one node per level, a three-way compare
    /// — kept as the oracle the compiled kernels are verified against
    /// (and as the `reference` row of the kernel ledger).
    fn search_reference(&self, key: K) -> Option<u64>;

    /// [`SearchBackend::search_traced`] on the compiled kernel: a
    /// branch-free full-height descent whose recorded trace is truncated
    /// at the match, so the visited sequence is **bit-identical** to the
    /// reference trace (the repro harness asserts the two hit the same
    /// simulated-L1 blocks).
    fn search_traced_kernel(&self, key: K, visited: &mut Vec<u64>) -> Option<u64>;

    /// Searches an arbitrary-order probe batch with up to `width`
    /// lookups interleaved in flight (memory-level parallelism — see
    /// [`crate::kernel`]). `out` is cleared and filled with one entry
    /// per probe, in probe order; results are bit-identical to mapping
    /// [`SearchBackend::search`] over the batch.
    fn search_batch_interleaved(&self, keys: &[K], width: usize, out: &mut Vec<Option<u64>>);

    /// Sums the positions of all successful lookups — the benchmark
    /// kernel whose result must be consumed to defeat dead-code
    /// elimination. Backends built from the same position index return
    /// identical checksums for identical keys. Allocation-free: runs the
    /// interleaved kernel at [`crate::kernel::DEFAULT_LANES`].
    fn search_batch_checksum(&self, keys: &[K]) -> u64;

    /// 1-based in-order rank of the first stored key `>= key`, or
    /// `key_count() + 1` when every stored key is smaller.
    fn lower_bound_rank(&self, key: K) -> u64;

    /// 1-based in-order rank of the first stored key `> key`, or
    /// `key_count() + 1` when none is larger.
    fn upper_bound_rank(&self, key: K) -> u64;

    /// Searches an ascending probe batch, amortizing root-path traversal:
    /// consecutive probes restart the descent from the lowest common
    /// ancestor of their paths instead of the root, so shared path
    /// prefixes are fetched once per batch rather than once per probe
    /// (the plane backends run [`crate::kernel::sorted_walk`] on their
    /// fast plane).
    ///
    /// `out` is cleared and filled with one entry per probe (the found
    /// layout position, as [`SearchBackend::search`] would return).
    /// Scratch-free: callers reuse `out` across batches.
    ///
    /// # Errors
    /// [`Error::UnsortedBatch`](cobtree_core::Error::UnsortedBatch) if
    /// `keys` has a descending adjacent pair (equal probes are fine).
    fn search_sorted_batch(&self, keys: &[K], out: &mut Vec<Option<u64>>) -> Result<()>;

    /// [`SearchBackend::search_sorted_batch`] on the reference walk,
    /// recording the layout position of every *newly fetched* node.
    /// Nodes on the shared path prefix between consecutive probes are
    /// carried in the descent stack and not re-fetched, so for a sorted
    /// batch the trace is a subset of — and strictly shorter than — the
    /// concatenation of the probes' independent
    /// [`SearchBackend::search_traced`] traces.
    ///
    /// # Errors
    /// As for [`SearchBackend::search_sorted_batch`].
    fn search_sorted_batch_traced(
        &self,
        keys: &[K],
        out: &mut Vec<Option<u64>>,
        visited: &mut Vec<u64>,
    ) -> Result<()>;

    // ------------------------------------------------------------------
    // Provided: point queries and ordered navigation
    // ------------------------------------------------------------------

    /// Membership test — provided so callers stop re-deriving it from
    /// [`SearchBackend::search`].
    fn contains(&self, key: K) -> bool {
        self.search(key).is_some()
    }

    /// Number of stored keys strictly less than `key` (a key's 0-based
    /// insertion index). `rank(select(r)) == r − 1` for stored ranks.
    fn rank(&self, key: K) -> u64 {
        self.lower_bound_rank(key) - 1
    }

    /// The `rank`-th smallest stored key (1-based), `None` out of
    /// range. Inverse of [`SearchBackend::rank`] up to the 0/1 base
    /// shift: `select(rank(k) + 1) == Some(k)` for stored `k`.
    fn select(&self, rank: u64) -> Option<K> {
        self.key_at_rank(rank)
    }

    /// Smallest stored key `>= key` (`key` itself when present).
    fn lower_bound(&self, key: K) -> Option<K> {
        self.key_at_rank(self.lower_bound_rank(key))
    }

    /// Smallest stored key `> key` — the in-order successor.
    fn upper_bound(&self, key: K) -> Option<K> {
        self.key_at_rank(self.upper_bound_rank(key))
    }

    /// Largest stored key `< key` — the in-order predecessor.
    fn predecessor(&self, key: K) -> Option<K> {
        match self.rank(key) {
            0 => None,
            r => self.key_at_rank(r),
        }
    }

    /// Alias for [`SearchBackend::upper_bound`]: the in-order successor.
    fn successor(&self, key: K) -> Option<K> {
        self.upper_bound(key)
    }

    // ------------------------------------------------------------------
    // Provided: scans
    // ------------------------------------------------------------------

    /// Pushes the layout position of every stored rank in
    /// `lo_rank..=hi_rank` (clamped to `1..=key_count()`) — the
    /// element-granularity access trace of an in-order range scan, ready
    /// for cache replay.
    fn scan_positions_traced(&self, lo_rank: u64, hi_rank: u64, visited: &mut Vec<u64>) {
        let lo = lo_rank.max(1);
        let hi = hi_rank.min(self.key_count());
        for r in lo..=hi {
            if let Some(p) = self.position_of_rank(r) {
                visited.push(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::implicit::ImplicitTree;
    use cobtree_core::error::Error;
    use cobtree_core::NamedLayout;

    fn tree(h: u32) -> ImplicitTree<u64> {
        let keys: Vec<u64> = (1..=(1u64 << h) - 1).map(|k| k * 10).collect();
        ImplicitTree::build(NamedLayout::MinWep.indexer(h), &keys)
    }

    #[test]
    fn bounds_and_rank_select_match_a_sorted_vec() {
        let t = tree(6);
        let keys: Vec<u64> = (1..=63u64).map(|k| k * 10).collect();
        for probe in 0..=640u64 {
            let lb = keys.partition_point(|&k| k < probe) as u64;
            assert_eq!(t.rank(probe), lb, "rank({probe})");
            assert_eq!(t.lower_bound_rank(probe), lb + 1);
            assert_eq!(t.lower_bound(probe), keys.get(lb as usize).copied());
            let ub = keys.partition_point(|&k| k <= probe) as u64;
            assert_eq!(t.upper_bound_rank(probe), ub + 1, "upper({probe})");
            assert_eq!(t.upper_bound(probe), keys.get(ub as usize).copied());
            assert_eq!(
                t.predecessor(probe),
                keys[..lb as usize].last().copied(),
                "pred({probe})"
            );
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.select(i as u64 + 1), Some(k));
            assert_eq!(t.rank(k), i as u64);
        }
        assert_eq!(t.select(0), None);
        assert_eq!(t.select(64), None);
    }

    #[test]
    fn sorted_batch_agrees_with_point_searches_and_visits_fewer() {
        let t = tree(8);
        let probes: Vec<u64> = (0..300u64).map(|k| k * 7 + 3).collect();
        let mut out = Vec::new();
        let mut batch_visits = Vec::new();
        t.search_sorted_batch_traced(&probes, &mut out, &mut batch_visits)
            .unwrap();
        let mut independent_visits = Vec::new();
        for (i, &p) in probes.iter().enumerate() {
            assert_eq!(out[i], t.search(p), "probe {p}");
            t.search_traced(p, &mut independent_visits);
        }
        assert!(
            batch_visits.len() < independent_visits.len(),
            "batch {} vs independent {}",
            batch_visits.len(),
            independent_visits.len()
        );
        // Untraced variant returns the same answers.
        let mut out2 = Vec::new();
        t.search_sorted_batch(&probes, &mut out2).unwrap();
        assert_eq!(out, out2);
    }

    #[test]
    fn sorted_batch_rejects_descending_probes() {
        let t = tree(4);
        let mut out = Vec::new();
        assert_eq!(
            t.search_sorted_batch(&[30u64, 10], &mut out).unwrap_err(),
            Error::UnsortedBatch { index: 0 }
        );
        // Equal adjacent probes are allowed.
        t.search_sorted_batch(&[30u64, 30, 40], &mut out).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], out[1]);
    }

    #[test]
    fn scan_positions_cover_the_requested_ranks() {
        let t = tree(5);
        let mut visited = Vec::new();
        t.scan_positions_traced(3, 9, &mut visited);
        assert_eq!(visited.len(), 7);
        for (off, &p) in visited.iter().enumerate() {
            assert_eq!(Some(p), t.position_of_rank(3 + off as u64));
        }
        // Clamped: out-of-range bounds shrink to the stored ranks.
        visited.clear();
        t.scan_positions_traced(0, u64::MAX, &mut visited);
        assert_eq!(visited.len(), 31);
        // Empty window.
        visited.clear();
        t.scan_positions_traced(9, 3, &mut visited);
        assert!(visited.is_empty());
    }

    #[test]
    fn contains_is_derived_from_search() {
        let t = tree(4);
        assert!(t.contains(10));
        assert!(!t.contains(11));
    }
}
