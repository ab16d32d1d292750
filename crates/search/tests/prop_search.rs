//! Property-based tests for the search-tree substrate.

use cobtree_core::NamedLayout;
use cobtree_search::{ExplicitTree, ImplicitTree, SearchBackend};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_named() -> impl Strategy<Value = NamedLayout> {
    proptest::sample::select(NamedLayout::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Explicit search is equivalent to a BTreeSet oracle for arbitrary
    /// sorted key sets and probes.
    #[test]
    fn explicit_matches_oracle(
        layout in arb_named(),
        h in 2u32..=8,
        raw in proptest::collection::btree_set(0i64..100_000, 255),
        probes in proptest::collection::vec(0i64..100_000, 50),
    ) {
        let keys: Vec<i64> = raw.iter().copied().take(((1u64 << h) - 1) as usize).collect();
        prop_assume!(keys.len() as u64 == (1u64 << h) - 1);
        let mat = layout.materialize(h);
        let tree = ExplicitTree::build(&mat, &keys);
        let oracle: BTreeSet<i64> = keys.iter().copied().collect();
        for p in probes {
            prop_assert_eq!(tree.search(p).is_some(), oracle.contains(&p), "{:?} probe {}", layout, p);
        }
        for &k in &keys {
            prop_assert!(tree.search(k).is_some());
        }
    }

    /// Implicit search agrees with explicit search on every probe.
    #[test]
    fn implicit_matches_explicit(
        layout in arb_named(),
        h in 2u32..=8,
        mult in 1u64..50,
        probes in proptest::collection::vec(0u64..200_000, 50),
    ) {
        let n = (1u64 << h) - 1;
        let keys: Vec<u64> = (1..=n).map(|k| k * mult).collect();
        let mat = layout.materialize(h);
        let idx = layout.indexer(h);
        let et = ExplicitTree::build(&mat, &keys);
        let it = ImplicitTree::build(idx, &keys);
        for p in probes {
            prop_assert_eq!(et.search(p).is_some(), it.search(p).is_some(), "{:?} probe {}", layout, p);
        }
    }

    /// Ordered navigation agrees across storage backends and with a
    /// sorted-vector oracle at the raw-backend level (no facade
    /// padding): lower/upper bounds, rank/select, and range cursors.
    #[test]
    fn ordered_ops_agree_between_explicit_and_implicit(
        layout in arb_named(),
        h in 2u32..=8,
        mult in 1u64..40,
        probes in proptest::collection::vec(0u64..200_000, 40),
    ) {
        use cobtree_search::range_of;
        let n = (1u64 << h) - 1;
        let keys: Vec<u64> = (1..=n).map(|k| k * mult).collect();
        let mat = layout.materialize(h);
        let et = ExplicitTree::build(&mat, &keys);
        let it = ImplicitTree::build(layout.indexer(h), &keys);
        for p in probes {
            let lb = keys.partition_point(|&k| k < p) as u64;
            prop_assert_eq!(it.rank(p), lb, "{:?} rank({})", layout, p);
            prop_assert_eq!(et.rank(p), lb, "{:?} explicit rank({})", layout, p);
            prop_assert_eq!(it.lower_bound(p), et.lower_bound(p));
            prop_assert_eq!(it.upper_bound(p), et.upper_bound(p));
            prop_assert_eq!(it.upper_bound(p), keys.get(keys.partition_point(|&k| k <= p)).copied());
        }
        for r in 1..=n {
            prop_assert_eq!(it.select(r), Some(keys[(r - 1) as usize]));
            prop_assert_eq!(et.select(r), it.select(r));
        }
        let lo = keys[(n / 3) as usize];
        let hi = keys[(2 * n / 3) as usize];
        let a: Vec<u64> = range_of(&it, lo..=hi).collect();
        let b: Vec<u64> = range_of(&et, lo..=hi).collect();
        prop_assert_eq!(&a, &b, "{:?} range", layout);
        prop_assert_eq!(a, keys[(n / 3) as usize..=(2 * n / 3) as usize].to_vec());
    }

    /// Traced searches visit at most `h` nodes, starting at the root.
    #[test]
    fn trace_shape(layout in arb_named(), h in 2u32..=8, key in 1u64..255) {
        let n = (1u64 << h) - 1;
        prop_assume!(key <= n);
        let mat = layout.materialize(h);
        let tree = ExplicitTree::<u64>::with_rank_keys(&mat);
        let mut visited = Vec::new();
        let found = tree.search_traced(key, &mut visited);
        prop_assert!(found.is_some());
        prop_assert!(visited.len() <= h as usize);
        prop_assert_eq!(visited[0], tree.root_position());
        // All visited positions distinct (no cycles).
        let set: BTreeSet<u64> = visited.iter().copied().collect();
        prop_assert_eq!(set.len(), visited.len());
    }
}
