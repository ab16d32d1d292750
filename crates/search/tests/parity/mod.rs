//! Reference-vs-kernel checks shared by the parity test binaries: every
//! kernel entry point must be **bit-identical** to the reference walk
//! (or, for bound ranks, to a sorted-vector oracle) on every backend
//! whose planes the kernels run on.

use cobtree_core::Error;
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

/// The layout positions of the nodes a reference walk visits for
/// `probe`, one per node: a descent over in-order rank intervals
/// through the rank primitives, independent of every descent kernel.
fn node_trace(tree: &SearchTree<u64>, probe: u64) -> Vec<u64> {
    let mut visited = Vec::new();
    // The subtree holding in-order ranks `lo..lo + size`.
    let (mut lo, mut size) = (1u64, (1u64 << tree.height()) - 1);
    while size > 0 {
        size /= 2;
        let r = lo + size;
        visited.push(tree.position_of_rank(r).expect("rank inside the tree"));
        match tree.key_at_rank(r) {
            Some(k) if k == probe => break,
            Some(k) if probe > k => lo = r + 1,
            _ => {} // smaller, or padding (+∞): go left
        }
    }
    visited
}

/// Sorted-batch parity: the shared-prefix batch answers exactly what
/// per-probe `search_reference` answers, untraced and traced alike, on
/// an ascending batch of hits, misses and equal adjacent probes, and on
/// the empty batch; a descending pair answers `UnsortedBatch` at its
/// index. On a dense batch (every stored key and its successor) the
/// traced batch records, per probe, the probe's reference path minus
/// the prefix it shares with the previous probe's path — so it fetches
/// fewer nodes than the probes' concatenated `search_traced` visits.
pub fn check_sorted_batch(
    name: &str,
    tree: &SearchTree<u64>,
    keys: &[u64],
    probes: &[u64],
) -> Result<(), TestCaseError> {
    let mut batch: Vec<u64> = probes
        .iter()
        .chain(probes.iter().step_by(4))
        .chain(keys)
        .copied()
        .collect();
    batch.sort_unstable();
    let expect: Vec<Option<u64>> = batch.iter().map(|&p| tree.search_reference(p)).collect();
    let (mut fast, mut traced, mut visited) = (Vec::new(), Vec::new(), Vec::new());
    let sorted = tree.search_sorted_batch(&batch, &mut fast);
    prop_assert_eq!(sorted, Ok(()), "{}", name);
    prop_assert_eq!(&fast, &expect, "{} untraced", name);
    let sorted = tree.search_sorted_batch_traced(&batch, &mut traced, &mut visited);
    prop_assert_eq!(sorted, Ok(()), "{}", name);
    prop_assert_eq!(&traced, &expect, "{} traced", name);

    visited.clear();
    prop_assert_eq!(tree.search_sorted_batch(&[], &mut fast), Ok(()));
    prop_assert!(fast.is_empty(), "{} empty batch", name);
    prop_assert_eq!(
        tree.search_sorted_batch_traced(&[], &mut traced, &mut visited),
        Ok(())
    );
    prop_assert!(traced.is_empty() && visited.is_empty(), "{} empty", name);

    for descending in [&[5u64, 3][..], &[1, 5, 3]] {
        let index = descending.len() - 2;
        prop_assert_eq!(
            tree.search_sorted_batch(descending, &mut fast),
            Err(Error::UnsortedBatch { index }),
            "{} {:?}",
            name,
            descending
        );
        prop_assert_eq!(
            tree.search_sorted_batch_traced(descending, &mut traced, &mut visited),
            Err(Error::UnsortedBatch { index }),
            "{} traced {:?}",
            name,
            descending
        );
    }

    let dense: Vec<u64> = keys.iter().flat_map(|&k| [k, k + 1]).collect();
    visited.clear();
    let sorted = tree.search_sorted_batch_traced(&dense, &mut traced, &mut visited);
    prop_assert_eq!(sorted, Ok(()), "{}", name);
    let (mut expect, mut prev, mut independent) = (Vec::new(), Vec::new(), Vec::new());
    for &p in &dense {
        let path = node_trace(tree, p);
        let shared = path.iter().zip(&prev).take_while(|(a, b)| a == b).count();
        expect.extend(&path[shared..]);
        prev = path;
        tree.search_traced(p, &mut independent);
    }
    prop_assert_eq!(&visited, &expect, "{} batch trace", name);
    prop_assert!(
        visited.len() < independent.len(),
        "{}: batch fetched {} nodes, independent probes {}",
        name,
        visited.len(),
        independent.len()
    );
    Ok(())
}
