//! Property tests pinning the compiled descent kernels to the reference
//! walk they replace: result positions, visited traces and batch
//! checksums must be **bit-identical** across all 13 named layouts and
//! every storage backend (explicit, implicit, index-only, and the
//! mapped backend opened from the implicit tree's file image, both by
//! layout name and as a position table), including supremum-padded
//! trees, the interleaved kernel must agree at every width —
//! including batches shorter than the width — and the shared-prefix
//! sorted batch must agree untraced and traced. The fat-node layouts run
//! the same checks in `fat_parity.rs`, and here the fat-node plane is
//! pinned SIMD-vs-scalar: the AVX2 rank-of-key kernels and the
//! always-compiled scalar fallback must be bit-identical on every
//! observable output.

mod parity;

use cobtree_core::fat::FatLayout;
use cobtree_core::NamedLayout;
use cobtree_search::kernel::{force_scalar_rank, simd_rank_enabled};
use cobtree_search::{DescriptorKind, SearchBackend, Storage};
use parity::{
    all_backends, check_bounds, check_checksum, check_interleaved, check_point_and_trace,
    check_sorted_batch,
};
use proptest::prelude::*;

fn arb_named() -> impl Strategy<Value = NamedLayout> {
    proptest::sample::select(NamedLayout::ALL.to_vec())
}

fn arb_fat() -> impl Strategy<Value = FatLayout> {
    proptest::sample::select(FatLayout::ALL.to_vec())
}

/// Every backend over a named layout, the table-descriptor file included.
const DESCRIPTORS: [DescriptorKind; 2] = [DescriptorKind::Auto, DescriptorKind::Table];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Point parity for hits, misses, and probes landing in the padding
    /// region.
    #[test]
    fn kernel_point_search_and_trace_match_slow_path(
        layout in arb_named(),
        n in 3u64..=180,
        mult in 1u64..32,
        probes in proptest::collection::vec(0u64..8_000, 48),
    ) {
        let keys: Vec<u64> = (1..=n).map(|k| k * mult).collect();
        for (name, tree) in all_backends(layout, &keys, &DESCRIPTORS) {
            let name = format!("{layout}/{name}");
            check_point_and_trace(&name, &tree, probes.iter().chain(&keys).copied())?;
        }
    }

    #[test]
    fn kernel_checksum_matches_slow_accumulation(
        layout in arb_named(),
        n in 3u64..=180,
        mult in 1u64..32,
        probes in proptest::collection::vec(0u64..8_000, 96),
    ) {
        let keys: Vec<u64> = (1..=n).map(|k| k * mult).collect();
        for (name, tree) in all_backends(layout, &keys, &DESCRIPTORS) {
            check_checksum(&format!("{layout}/{name}"), &tree, &probes)?;
        }
    }

    #[test]
    fn interleaved_matches_scalar_at_every_width(
        layout in arb_named(),
        n in 3u64..=180,
        mult in 1u64..32,
        probes in proptest::collection::vec(0u64..8_000, 40),
    ) {
        let keys: Vec<u64> = (1..=n).map(|k| k * mult).collect();
        for (name, tree) in all_backends(layout, &keys, &DESCRIPTORS) {
            check_interleaved(&format!("{layout}/{name}"), &tree, &probes)?;
        }
    }

    /// SIMD/scalar bit-parity on the fat-node plane: every observable
    /// output of the rank-of-key kernels — point results, visited
    /// traces, batch checksums, interleaved results at every width, and
    /// bound ranks — must be **bit-identical** with the AVX2 path
    /// enabled and with it force-disabled, on the heap fat backends and
    /// the mapped backend serving the same tree from file bytes. (On a
    /// host without AVX2 both passes take the scalar path and the test
    /// degenerates to self-consistency.)
    ///
    /// This is the only test in the binary that flips the global rank
    /// dispatch, and the binary's other tests use binary layouts that
    /// never reach it, so parallel test threads cannot observe the flip.
    #[test]
    fn simd_and_scalar_fat_rank_kernels_are_bit_identical(
        layout in arb_fat(),
        n in 1u64..=200,
        mult in 1u64..32,
        probes in proptest::collection::vec(0u64..8_000, 64),
    ) {
        let keys: Vec<u64> = (1..=n).map(|k| k * mult).collect();
        let trees = all_backends(layout, &keys, &[DescriptorKind::Auto]);
        let widths = [1usize, 3, 8, 16];
        for (storage, tree) in &trees {
            // Pass 1: runtime dispatch as shipped (AVX2 where detected).
            force_scalar_rank(false);
            let simd_results: Vec<Option<u64>> = probes.iter().map(|&p| tree.search(p)).collect();
            let mut simd_trace = Vec::new();
            for &p in &probes {
                tree.search_traced_kernel(p, &mut simd_trace);
            }
            let simd_sum = tree.search_batch_checksum(&probes);
            let mut simd_inter = Vec::new();
            for &w in &widths {
                let mut out = Vec::new();
                tree.search_batch_interleaved(&probes, w, &mut out);
                simd_inter.push(out);
            }
            let simd_bounds: Vec<(u64, Option<u64>, Option<u64>)> = probes
                .iter()
                .map(|&p| (tree.rank(p), tree.lower_bound(p), tree.upper_bound(p)))
                .collect();
            // Pass 2: the always-compiled scalar fallback, force-selected.
            force_scalar_rank(true);
            prop_assert!(!simd_rank_enabled());
            let scalar_results: Vec<Option<u64>> = probes.iter().map(|&p| tree.search(p)).collect();
            let mut scalar_trace = Vec::new();
            for &p in &probes {
                tree.search_traced_kernel(p, &mut scalar_trace);
            }
            let scalar_sum = tree.search_batch_checksum(&probes);
            let scalar_bounds: Vec<(u64, Option<u64>, Option<u64>)> = probes
                .iter()
                .map(|&p| (tree.rank(p), tree.lower_bound(p), tree.upper_bound(p)))
                .collect();
            prop_assert_eq!(&simd_results, &scalar_results, "{}/{} point results", layout, storage);
            prop_assert_eq!(&simd_trace, &scalar_trace, "{}/{} traces", layout, storage);
            prop_assert_eq!(simd_sum, scalar_sum, "{}/{} checksum", layout, storage);
            prop_assert_eq!(&simd_bounds, &scalar_bounds, "{}/{} bounds", layout, storage);
            for (i, &w) in widths.iter().enumerate() {
                let mut out = Vec::new();
                tree.search_batch_interleaved(&probes, w, &mut out);
                prop_assert_eq!(&simd_inter[i], &out, "{}/{} interleaved w={}", layout, storage, w);
            }
            force_scalar_rank(false);
        }
    }

    #[test]
    fn sorted_batch_matches_reference_walk(
        layout in arb_named(),
        n in 3u64..=180,
        mult in 1u64..32,
        probes in proptest::collection::vec(0u64..8_000, 48),
    ) {
        let keys: Vec<u64> = (1..=n).map(|k| k * mult).collect();
        for (name, tree) in all_backends(layout, &keys, &DESCRIPTORS) {
            check_sorted_batch(&format!("{layout}/{name}"), &tree, &keys, &probes)?;
        }
    }

    #[test]
    fn kernel_bound_ranks_match_sorted_oracle(
        layout in arb_named(),
        n in 3u64..=180,
        mult in 1u64..32,
        probes in proptest::collection::vec(0u64..8_000, 48),
    ) {
        let keys: Vec<u64> = (1..=n).map(|k| k * mult).collect();
        for (name, tree) in all_backends(layout, &keys, &DESCRIPTORS) {
            check_bounds(&format!("{layout}/{name}"), &tree, &keys, &probes)?;
        }
    }
}

/// The sorted batch on both arms of the binary planes' dispatch, with
/// trees large enough for the fold arm to take runs of dozens of
/// probes: the mapped plane's boundary falls exactly on a run of 40.
/// MINWEP compiles to frame tables, MINEP to Listing 1, HALFWEP to
/// nothing (the virtual indexer); the key set leaves padding slots.
#[test]
fn sorted_batch_matches_reference_walk_on_both_dispatch_arms() {
    use cobtree_search::kernel::SPARSE_RUN_KEYS_PER_PROBE;
    let n = 40 * SPARSE_RUN_KEYS_PER_PROBE;
    let keys: Vec<u64> = (1..=n).map(|k| k * 3).collect();
    let probes: Vec<u64> = (0..400u64)
        .map(|i| (i * 2_654_435_761) % (3 * n + 50))
        .collect();
    for layout in [
        NamedLayout::MinWep,
        NamedLayout::MinEp,
        NamedLayout::HalfWep,
    ] {
        for (name, tree) in all_backends(layout, &keys, &DESCRIPTORS) {
            check_sorted_batch(&format!("{layout}/{name}"), &tree, &keys, &probes)
                .unwrap_or_else(|e| panic!("{e:?}"));
        }
    }
}

/// Forest: the interleaved fan-out answers exactly like routing and
/// searching each probe individually, on sorted and unsorted batches.
#[test]
fn forest_interleaved_batch_matches_point_lookups() {
    use cobtree_search::Forest;
    let keys: Vec<u64> = (1..=5_000u64).map(|k| k * 2).collect();
    let forest = Forest::builder()
        .layout(NamedLayout::MinWep)
        .storage(Storage::Implicit)
        .shards(4)
        .keys(keys.iter().copied())
        .build()
        .expect("forest");
    // Unsorted probe order, hits and misses interleaved.
    let probes: Vec<u64> = (0..3_000u64)
        .map(|i| (i * 2_654_435_761) % 11_000)
        .collect();
    let expect: Vec<Option<(usize, u64)>> = probes
        .iter()
        .map(|&p| {
            forest
                .route(p)
                .and_then(|(shard, tree)| tree.search(p).map(|pos| (shard, pos)))
        })
        .collect();
    let mut out = Vec::new();
    for (width, threads) in [(1, 1), (8, 1), (8, 4), (16, 3)] {
        forest.par_search_batch_interleaved(&probes, width, threads, &mut out);
        assert_eq!(out, expect, "w={width} t={threads}");
    }
    // Sorted input must agree with the sorted dispatch path too.
    let mut sorted = probes.clone();
    sorted.sort_unstable();
    let mut via_sorted = Vec::new();
    forest
        .par_search_batch(&sorted, 2, &mut via_sorted)
        .expect("ascending");
    forest.par_search_batch_interleaved(&sorted, 8, 2, &mut out);
    assert_eq!(out, via_sorted);
    // The single-threaded shard-affine serving entry point agrees with
    // both the parallel fan-out and the point-lookup oracle.
    for width in [1, 8, 16] {
        forest.search_batch_interleaved(&probes, width, &mut out);
        assert_eq!(out, expect, "serial w={width}");
    }
    forest.search_batch_interleaved(&sorted, 8, &mut out);
    assert_eq!(out, via_sorted);
}
