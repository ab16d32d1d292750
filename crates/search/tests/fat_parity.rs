//! The reference-vs-kernel parity checks of `kernel_parity.rs`, run on
//! the fat-node (B-ary) layouts: the fat heap, the explicit and
//! index-only storages of the same chunked positions, and the mapped
//! backend serving the heap tree's file bytes. The fat kernels descend
//! one chunk per level, the reference walk one node per level; results,
//! chunk-granular traces, checksums, interleaved batches, sorted
//! batches (which walk the binary reference plane) and bound ranks must
//! still be bit-identical.
//!
//! These live in their own binary because `kernel_parity.rs` flips the
//! process-wide SIMD rank dispatch and relies on no other test there
//! reaching the fat planes.

mod parity;

use cobtree_core::fat::FatLayout;
use cobtree_search::DescriptorKind;
use parity::{
    all_backends, check_bounds, check_checksum, check_interleaved, check_point_and_trace,
    check_sorted_batch,
};
use proptest::prelude::*;

fn arb_fat() -> impl Strategy<Value = FatLayout> {
    proptest::sample::select(FatLayout::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fat_point_search_and_trace_match_reference_walk(
        layout in arb_fat(),
        n in 1u64..=200,
        mult in 1u64..32,
        probes in proptest::collection::vec(0u64..8_000, 48),
    ) {
        let keys: Vec<u64> = (1..=n).map(|k| k * mult).collect();
        for (name, tree) in all_backends(layout, &keys, &[DescriptorKind::Auto]) {
            let name = format!("{layout}/{name}");
            check_point_and_trace(&name, &tree, probes.iter().chain(&keys).copied())?;
        }
    }

    #[test]
    fn fat_checksum_matches_reference_accumulation(
        layout in arb_fat(),
        n in 1u64..=200,
        mult in 1u64..32,
        probes in proptest::collection::vec(0u64..8_000, 96),
    ) {
        let keys: Vec<u64> = (1..=n).map(|k| k * mult).collect();
        for (name, tree) in all_backends(layout, &keys, &[DescriptorKind::Auto]) {
            check_checksum(&format!("{layout}/{name}"), &tree, &probes)?;
        }
    }

    #[test]
    fn fat_interleaved_matches_scalar_at_every_width(
        layout in arb_fat(),
        n in 1u64..=200,
        mult in 1u64..32,
        probes in proptest::collection::vec(0u64..8_000, 40),
    ) {
        let keys: Vec<u64> = (1..=n).map(|k| k * mult).collect();
        for (name, tree) in all_backends(layout, &keys, &[DescriptorKind::Auto]) {
            check_interleaved(&format!("{layout}/{name}"), &tree, &probes)?;
        }
    }

    #[test]
    fn fat_sorted_batch_matches_reference_walk(
        layout in arb_fat(),
        n in 1u64..=200,
        mult in 1u64..32,
        probes in proptest::collection::vec(0u64..8_000, 48),
    ) {
        let keys: Vec<u64> = (1..=n).map(|k| k * mult).collect();
        for (name, tree) in all_backends(layout, &keys, &[DescriptorKind::Auto]) {
            check_sorted_batch(&format!("{layout}/{name}"), &tree, &keys, &probes)?;
        }
    }

    #[test]
    fn fat_bound_ranks_match_sorted_oracle(
        layout in arb_fat(),
        n in 1u64..=200,
        mult in 1u64..32,
        probes in proptest::collection::vec(0u64..8_000, 48),
    ) {
        let keys: Vec<u64> = (1..=n).map(|k| k * mult).collect();
        for (name, tree) in all_backends(layout, &keys, &[DescriptorKind::Auto]) {
            check_bounds(&format!("{layout}/{name}"), &tree, &keys, &probes)?;
        }
    }
}

/// The sorted batch on both arms of the binary planes' dispatch (the
/// index-only storage of a fat layout descends a binary plane; the fat
/// heap and mapped planes always walk their binary reference plane),
/// with a tree large enough for the fold arm to take runs of dozens of
/// probes.
#[test]
fn fat_sorted_batch_matches_reference_walk_on_both_dispatch_arms() {
    use cobtree_search::kernel::SPARSE_RUN_KEYS_PER_PROBE;
    let n = 40 * SPARSE_RUN_KEYS_PER_PROBE;
    let keys: Vec<u64> = (1..=n).map(|k| k * 3).collect();
    let probes: Vec<u64> = (0..400u64)
        .map(|i| (i * 2_654_435_761) % (3 * n + 50))
        .collect();
    let layout = FatLayout::ALL[0];
    for (name, tree) in all_backends(layout, &keys, &[DescriptorKind::Auto]) {
        check_sorted_batch(&format!("{layout}/{name}"), &tree, &keys, &probes)
            .unwrap_or_else(|e| panic!("{e:?}"));
    }
}
