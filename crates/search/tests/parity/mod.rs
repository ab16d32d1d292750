//! Reference-vs-kernel checks shared by the parity test binaries: every
//! kernel entry point must be **bit-identical** to the reference walk
//! (or, for bound ranks, to a sorted-vector oracle) on every backend
//! whose planes the kernels run on.

use cobtree_search::{
    DescriptorKind, LayoutSource, SaveOptions, SearchBackend, SearchTree, Storage,
};
use proptest::prelude::*;

/// One key set on every backend: the three storages `SearchTree::builder`
/// constructs, plus the mapped backend opened from the implicit tree's
/// file bytes, once per descriptor kind in `descriptors`. Each tree is
/// named for assertion messages (`mapped/Table` for a table file).
pub fn all_backends(
    layout: impl Into<LayoutSource>,
    keys: &[u64],
    descriptors: &[DescriptorKind],
) -> Vec<(String, SearchTree<u64>)> {
    let layout = layout.into();
    let mut trees: Vec<(String, SearchTree<u64>)> = Storage::ALL
        .iter()
        .map(|&storage| {
            let tree = SearchTree::builder()
                .layout(layout.clone())
                .storage(storage)
                .keys(keys.iter().copied())
                .build()
                .expect("parity tree");
            (storage.to_string(), tree)
        })
        .collect();
    let implicit = trees
        .iter()
        .find(|(_, t)| t.storage() == Storage::Implicit)
        .map(|(_, t)| t)
        .expect("implicit built");
    let mapped: Vec<(String, SearchTree<u64>)> = descriptors
        .iter()
        .map(|&kind| {
            let bytes = implicit
                .encode(&SaveOptions::new().descriptor(kind))
                .expect("encode");
            let tree = SearchTree::open_bytes(bytes).expect("reopen");
            (format!("mapped/{kind:?}"), tree)
        })
        .collect();
    trees.extend(mapped);
    trees
}

/// Point parity: kernel `search` and `search_traced_kernel` agree with
/// the reference `search_reference` / `search_traced` on result
/// position *and* visited position sequence.
pub fn check_point_and_trace(
    name: &str,
    tree: &SearchTree<u64>,
    probes: impl IntoIterator<Item = u64>,
) -> Result<(), TestCaseError> {
    let (mut slow, mut fast) = (Vec::new(), Vec::new());
    for probe in probes {
        prop_assert_eq!(
            tree.search(probe),
            tree.search_reference(probe),
            "{} result for {}",
            name,
            probe
        );
        slow.clear();
        fast.clear();
        let a = tree.search_traced(probe, &mut slow);
        let b = tree.search_traced_kernel(probe, &mut fast);
        prop_assert_eq!(a, b, "{} traced result for {}", name, probe);
        prop_assert_eq!(&slow, &fast, "{} trace for {}", name, probe);
    }
    Ok(())
}

/// Checksum parity: the interleaved checksum kernel equals the
/// reference walk's per-probe accumulation.
pub fn check_checksum(
    name: &str,
    tree: &SearchTree<u64>,
    probes: &[u64],
) -> Result<(), TestCaseError> {
    let slow = probes
        .iter()
        .filter_map(|&p| tree.search_reference(p))
        .fold(0u64, u64::wrapping_add);
    prop_assert_eq!(tree.search_batch_checksum(probes), slow, "{}", name);
    Ok(())
}

/// Interleaved parity at W ∈ {1, 3, 8, 16}, including batches shorter
/// than the width and the empty batch.
pub fn check_interleaved(
    name: &str,
    tree: &SearchTree<u64>,
    probes: &[u64],
) -> Result<(), TestCaseError> {
    let scalar: Vec<Option<u64>> = probes.iter().map(|&p| tree.search(p)).collect();
    let mut out = Vec::new();
    for width in [1usize, 3, 8, 16] {
        tree.search_batch_interleaved(probes, width, &mut out);
        prop_assert_eq!(&out, &scalar, "{} w={}", name, width);
        // Batch strictly shorter than the interleave width.
        let short = width.saturating_sub(1).min(probes.len());
        tree.search_batch_interleaved(&probes[..short], width, &mut out);
        prop_assert_eq!(
            &out,
            &scalar[..short].to_vec(),
            "{} short w={}",
            name,
            width
        );
    }
    tree.search_batch_interleaved(&[], 8, &mut out);
    prop_assert!(out.is_empty());
    Ok(())
}

/// The kernel bound-rank descents agree with a sorted-vector oracle
/// through the facade's ordered API, padding included.
pub fn check_bounds(
    name: &str,
    tree: &SearchTree<u64>,
    keys: &[u64],
    probes: &[u64],
) -> Result<(), TestCaseError> {
    for &p in probes {
        let lb = keys.partition_point(|&k| k < p) as u64;
        let ub = keys.partition_point(|&k| k <= p) as u64;
        prop_assert_eq!(tree.rank(p), lb, "{} rank({})", name, p);
        prop_assert_eq!(
            tree.lower_bound(p),
            keys.get(lb as usize).copied(),
            "{} lower_bound({})",
            name,
            p
        );
        prop_assert_eq!(
            tree.upper_bound(p),
            keys.get(ub as usize).copied(),
            "{} upper_bound({})",
            name,
            p
        );
    }
    Ok(())
}
