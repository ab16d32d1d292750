//! Descent-kernel parity experiment: the compiled kernels must be
//! observably indistinguishable from the slow paths they replace.
//!
//! Two assertions back the PR-level guarantee "positions, checksums and
//! cachesim replays stay bit-identical":
//!
//! * **Block-sequence parity** — for every probe, the kernel trace
//!   ([`SearchBackend::search_traced_kernel`]) and the slow trace
//!   ([`SearchBackend::search_traced`]) are mapped to simulated-L1
//!   block ids (Westmere 64-byte lines) and asserted **equal as
//!   sequences**, per probe, across layouts × storage backends —
//!   including supremum-padded trees;
//! * **Replay parity** — the full workloads are replayed through the
//!   simulated L1/L2 hierarchy via both
//!   [`cobtree_cachesim::replay::replay_search_backend`] (slow) and
//!   [`cobtree_cachesim::replay::replay_point_kernel`] (kernel), and
//!   the hit/miss counters are asserted identical at every level.
//!
//! The second table reports the wall-clock side: the search paths of
//! the kernel benchmark (`reference`/`kernel`/`interleaved`, plus
//! `sorted` on the batch mix) on a repro-sized workload, with the
//! checksum parity asserted inside [`crate::kernel_bench::run`].

use super::Config;
use crate::kernel_bench::{self, KernelBenchConfig};
use crate::report::{f, Table};
use cobtree_cachesim::presets::{self, WESTMERE_LINE};
use cobtree_cachesim::replay::{replay_point_kernel, replay_search_backend};
use cobtree_core::fat::FatLayout;
use cobtree_core::NamedLayout;
use cobtree_search::workload::UniformKeys;
use cobtree_search::{SaveOptions, SearchBackend, SearchTree, Storage};

/// Bytes per stored node assumed when mapping positions to cache
/// blocks: a `u64` key for the keys-only backends, key + two `u32`
/// child pointers for the explicit backend.
fn node_bytes(storage: Storage) -> u64 {
    match storage {
        Storage::Explicit => 16,
        _ => 8,
    }
}

/// Builds the four storage backends over one (padded) key set.
fn backends(layout: NamedLayout, keys: &[u64]) -> Vec<SearchTree<u64>> {
    let mut trees: Vec<SearchTree<u64>> = Storage::ALL
        .iter()
        .map(|&storage| {
            SearchTree::builder()
                .layout(layout)
                .storage(storage)
                .keys(keys.iter().copied())
                .build()
                .expect("kernel experiment tree")
        })
        .collect();
    let bytes = trees
        .iter()
        .find(|t| t.storage() == Storage::Implicit)
        .expect("implicit built")
        .encode(&SaveOptions::new())
        .expect("encode implicit tree");
    trees.push(SearchTree::open_bytes(bytes).expect("reopen tree"));
    trees
}

/// Per (layout × storage): traces every probe through the slow path and
/// the kernel, asserts the simulated-L1 block sequences are identical
/// per probe, then asserts hierarchy replay counters match. Reports the
/// probe/node/block volumes that were compared.
///
/// # Panics
/// Panics on the first probe whose kernel trace touches a different
/// block sequence than the slow path, or on any replay-counter
/// divergence — either would be a kernel correctness bug.
#[must_use]
pub fn kernel_block_parity(cfg: &Config) -> Table {
    let mut t = Table::new(
        "kernel_block_parity",
        "Descent kernels: slow-path vs kernel simulated-L1 block sequences (must be identical)",
        &[
            "layout",
            "storage",
            "probes",
            "nodes_traced",
            "l1_blocks_compared",
            "identical",
        ],
    );
    // A padded key count (not 2^h − 1) keeps supremum slots on the
    // descent paths.
    let n = (1u64 << 9) - 70;
    let keys: Vec<u64> = (1..=n).map(|k| k * 3).collect();
    let probes: Vec<u64> =
        UniformKeys::new(n * 4, cfg.seed ^ 0x4E7).take_vec(cfg.searches.min(4_000));
    for layout in [
        NamedLayout::MinWep,
        NamedLayout::PreVeb,
        NamedLayout::InOrder,
        NamedLayout::HalfWep,
    ] {
        for tree in backends(layout, &keys) {
            let nb = node_bytes(tree.storage());
            let (mut slow, mut fast) = (Vec::new(), Vec::new());
            let mut nodes = 0u64;
            for &probe in &probes {
                slow.clear();
                fast.clear();
                let a = tree.search_traced(probe, &mut slow);
                let b = tree.search_traced_kernel(probe, &mut fast);
                assert_eq!(a, b, "{layout}/{}: result for {probe}", tree.storage());
                let blocks = |v: &[u64]| -> Vec<u64> {
                    v.iter().map(|p| p * nb / WESTMERE_LINE as u64).collect()
                };
                assert_eq!(
                    blocks(&slow),
                    blocks(&fast),
                    "{layout}/{}: L1 block sequence for {probe}",
                    tree.storage()
                );
                nodes += slow.len() as u64;
            }
            // Whole-workload replay through the simulated hierarchy.
            let mut via_slow = presets::westmere_l1_l2();
            let found_slow = replay_search_backend(&mut via_slow, &tree, nb, 0, &probes);
            let mut via_kernel = presets::westmere_l1_l2();
            let found_kernel = replay_point_kernel(&mut via_kernel, &tree, nb, 0, &probes);
            assert_eq!(found_slow, found_kernel, "{layout}/{}", tree.storage());
            for level in 0..2 {
                assert_eq!(
                    via_slow.level_stats(level),
                    via_kernel.level_stats(level),
                    "{layout}/{} level {level}",
                    tree.storage()
                );
            }
            t.push_row(vec![
                layout.label().to_string(),
                tree.storage().to_string(),
                probes.len().to_string(),
                nodes.to_string(),
                nodes.to_string(),
                "yes".to_string(),
            ]);
        }
    }
    t
}

/// Fat-node cachesim parity + block savings: for each fat vEB layout
/// over `u32` keys, the heap backend and the mapped backend serving the
/// same tree from file bytes must replay the **identical chunk-granular
/// position sequence** per probe (slow path and kernel alike), and the
/// B=16 fat vEB — whose 16 × 4-byte chunks are exactly one Westmere
/// line — must cut simulated L1 misses per op versus the binary vEB
/// layout over the same keys and probes.
///
/// # Panics
/// Panics on any heap/mapped or slow/kernel trace divergence, or if
/// `FAT16-VEB` fails to beat the binary vEB on simulated L1 misses/op —
/// the former would be a serving bug, the latter would mean the wide
/// nodes stopped paying for themselves in the cache model.
#[must_use]
pub fn fat_block_savings(cfg: &Config) -> Table {
    let mut t = Table::new(
        "fat_block_savings",
        "Fat-node plane: heap/mapped replay parity and simulated L1 misses/op vs binary vEB (u32 keys)",
        &["layout", "storage", "probes", "l1_misses_per_op", "l2_misses_per_op"],
    );
    // u32 keys: a B=16 chunk is exactly one 64-byte line. A key count
    // larger than L1 (32 KiB = 8192 u32 slots) so the replay actually
    // misses, and not a power of two so partial chunks stay on paths.
    let n = (1u64 << 14) - 333;
    let keys: Vec<u32> = (1..=n as u32).map(|k| k * 3).collect();
    let probes: Vec<u32> = UniformKeys::new(n * 4, cfg.seed ^ 0xFA7)
        .take_vec(cfg.searches.min(4_000))
        .into_iter()
        .map(|p| p as u32)
        .collect();
    let mut replay = |tree: &SearchTree<u32>, label: &str, storage: &str| -> f64 {
        let mut hier = presets::westmere_l1_l2();
        // 4 bytes per slot: the mapped key region stores bare `u32`s.
        replay_search_backend(&mut hier, tree, 4, 0, &probes);
        let l1 = hier.level_stats(0).misses as f64 / probes.len() as f64;
        let l2 = hier.level_stats(1).misses as f64 / probes.len() as f64;
        t.push_row(vec![
            label.to_string(),
            storage.to_string(),
            probes.len().to_string(),
            f(l1),
            f(l2),
        ]);
        l1
    };
    let binary = SearchTree::<u32>::builder()
        .layout(NamedLayout::PreVeb)
        .storage(Storage::Implicit)
        .keys(keys.iter().copied())
        .build()
        .expect("binary vEB tree");
    let binary_l1 = replay(&binary, NamedLayout::PreVeb.label(), "implicit");
    let mut fat16_l1 = f64::INFINITY;
    for layout in FatLayout::ALL {
        if !layout.label().ends_with("VEB") {
            continue;
        }
        let heap = SearchTree::<u32>::builder()
            .layout(layout)
            .storage(Storage::Implicit)
            .keys(keys.iter().copied())
            .build()
            .expect("fat heap tree");
        let mapped: SearchTree<u32> =
            SearchTree::open_bytes(heap.encode(&SaveOptions::new()).expect("encode fat tree"))
                .expect("reopen fat tree");
        // Pin the mapped replay to the heap backend's chunk-granular
        // position sequence, per probe, on the slow path and the
        // kernel alike.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for &p in &probes {
            a.clear();
            b.clear();
            let ra = heap.search_traced(p, &mut a);
            let rb = mapped.search_traced(p, &mut b);
            assert_eq!(ra, rb, "{layout}: heap/mapped result for {p}");
            assert_eq!(a, b, "{layout}: heap/mapped slow trace for {p}");
            a.clear();
            b.clear();
            let ra = heap.search_traced_kernel(p, &mut a);
            let rb = mapped.search_traced_kernel(p, &mut b);
            assert_eq!(ra, rb, "{layout}: heap/mapped kernel trace for {p}");
            assert_eq!(a, b, "{layout}: heap/mapped kernel trace for {p}");
        }
        let heap_l1 = replay(&heap, layout.label(), "implicit");
        let mapped_l1 = replay(&mapped, layout.label(), "mapped");
        assert!(
            (heap_l1 - mapped_l1).abs() < 1e-12,
            "{layout}: heap and mapped replays must miss identically"
        );
        if layout.label() == "FAT16-VEB" {
            fat16_l1 = mapped_l1;
        }
    }
    assert!(
        fat16_l1 < binary_l1,
        "FAT16-VEB must cut simulated L1 misses/op vs binary vEB: fat {fat16_l1} >= binary {binary_l1}"
    );
    t
}

/// Wall-clock comparison of the kernel benchmark's search paths on a
/// repro-sized workload (checksum parity asserted inside the benchmark
/// run).
#[must_use]
pub fn kernel_paths_table(cfg: &Config) -> Table {
    let kcfg = KernelBenchConfig {
        keys: 100_000,
        ops: cfg.searches.clamp(2_000, 200_000),
        zipf_s: 1.1,
        widths: vec![8, 16],
        seed: cfg.seed,
        layout: NamedLayout::MinWep,
        fat_layout: KernelBenchConfig::ci().fat_layout,
    };
    let report = kernel_bench::run(&kcfg, None);
    let mut t = Table::new(
        "kernel_paths",
        "Descent kernels: reference loop vs compiled kernel vs interleaved vs sorted walk (Mops/s)",
        &["storage", "mix", "path", "mops_per_sec"],
    );
    for p in &report.points {
        t.push_row(vec![
            p.storage.to_string(),
            p.mix.to_string(),
            p.path.clone(),
            f(p.ops_per_sec / 1e6),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_parity_holds_on_the_tiny_profile() {
        let t = kernel_block_parity(&Config::tiny());
        // 4 layouts × 4 storage backends (3 built + mapped).
        assert_eq!(t.rows.len(), 16);
        assert!(t.rows.iter().all(|r| r[5] == "yes"));
    }

    #[test]
    fn fat_block_savings_holds_on_the_tiny_profile() {
        let t = fat_block_savings(&Config::tiny());
        // 1 binary baseline row + 2 fat vEB layouts × (heap + mapped);
        // the FAT16 < binary misses/op assert ran inside the builder.
        assert_eq!(t.rows.len(), 5);
        assert!(t
            .rows
            .iter()
            .any(|r| r[0] == "FAT16-VEB" && r[1] == "mapped"));
    }

    #[test]
    fn paths_table_covers_every_path() {
        let mut cfg = Config::tiny();
        cfg.searches = 1_000;
        let t = kernel_paths_table(&cfg);
        assert_eq!(t.rows.len(), 4 * (3 * 4 + 1));
        assert!(t.rows.iter().any(|r| r[2] == "interleaved_w16"));
        assert!(t.rows.iter().any(|r| r[2] == "sorted"));
    }
}
