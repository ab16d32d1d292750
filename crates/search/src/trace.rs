//! Address-trace generation for the cache simulator.
//!
//! Figure 2's miss-rate panel counts "L1 and L2 cache misses incurred in
//! memory accesses to the binary tree (stored as a linear array)". These
//! helpers turn search workloads into byte-address traces over that
//! array, parameterized by the stored node size (the paper's β analysis
//! uses 4-byte nodes: "a block size of 16 nodes mimics a cache line size
//! of 64 bytes").

use cobtree_core::index::PositionIndex;
use cobtree_core::Tree;

/// Emits the byte addresses touched by searching `keys` on an implicit
/// tree served by `index`, with `node_bytes` per element, starting at
/// `base` (callers can offset to model arbitrary array placement).
pub fn search_addresses(
    index: &dyn PositionIndex,
    node_bytes: u64,
    base: u64,
    keys: impl IntoIterator<Item = u64>,
    mut sink: impl FnMut(u64),
) {
    let tree = Tree::new(index.height());
    for key in keys {
        debug_assert!(key >= 1 && key <= tree.len());
        let target = tree.node_at_in_order(key);
        let d = tree.depth(target);
        for k in 0..=d {
            let node = target >> (d - k);
            let p = index.position(node, k);
            sink(base + p * node_bytes);
        }
    }
}

/// Collects the position (not address) sequence of the searches — the
/// element-granularity trace used by the single-block model.
#[must_use]
pub fn search_positions(
    index: &dyn PositionIndex,
    keys: impl IntoIterator<Item = u64>,
) -> Vec<u64> {
    let mut out = Vec::new();
    search_addresses(index, 1, 0, keys, |a| out.push(a));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobtree_core::NamedLayout;

    #[test]
    fn trace_length_is_total_path_length() {
        let idx = NamedLayout::MinWep.indexer(6);
        let tree = Tree::new(6);
        let keys: Vec<u64> = (1..=63).collect();
        let trace = search_positions(idx.as_ref(), keys.iter().copied());
        let expect: usize = keys
            .iter()
            .map(|&k| tree.depth(tree.node_at_in_order(k)) as usize + 1)
            .sum();
        assert_eq!(trace.len(), expect);
    }

    #[test]
    fn addresses_scale_with_node_size() {
        let idx = NamedLayout::PreVeb.indexer(5);
        let mut small = Vec::new();
        let mut big = Vec::new();
        search_addresses(idx.as_ref(), 4, 0, [7u64], |a| small.push(a));
        search_addresses(idx.as_ref(), 16, 0, [7u64], |a| big.push(a));
        assert_eq!(small.len(), big.len());
        for (s, b) in small.iter().zip(&big) {
            assert_eq!(s * 4, *b);
        }
    }

    #[test]
    fn every_trace_starts_at_the_root() {
        for layout in [NamedLayout::InVeb, NamedLayout::PreBreadth] {
            let idx = layout.indexer(7);
            let root_pos = idx.position(1, 0);
            let trace = search_positions(idx.as_ref(), [1u64, 64, 127]);
            assert_eq!(trace[0], root_pos);
        }
    }
}
