//! The `serve` experiment: serving saved tree files through the mapped
//! backend, compared block-for-block against in-memory serving.
//!
//! The paper computes layouts so a *static artifact* can be served from
//! slow storage with near-optimal block transfers; Demaine et al.'s
//! external-memory layout work is explicit that the payoff exists only
//! when the byte order on the medium is the layout order. The zero-copy
//! persistence subsystem (`SearchTree::write_file`/`open`, `docs/FORMAT.md`)
//! makes that scenario real, and these experiments hold it to the
//! contract: a memory-mapped tree file must replay **no more** block
//! transfers than the heap-resident implicit backend it was serialized
//! from, on point, scan and sorted-batch workloads alike — plus a
//! format-economics table (file sizes, region offsets, alignment).

use super::Config;
use crate::report::{pct, Table};
use crate::timing::median_time;
use cobtree_cachesim::presets;
use cobtree_cachesim::replay::{replay_range_scan, replay_search_backend, replay_sorted_batches};
use cobtree_core::format;
use cobtree_core::NamedLayout;
use cobtree_search::workload::{scan_starts, sorted_batches, UniformKeys};
use cobtree_search::{MappedTree, SaveOptions, SearchTree, Storage};
use std::path::PathBuf;

/// The layouts the serving comparison reports: the paper's point-search
/// champion, the classical vEB baseline, the scan champion, and the
/// breadth-first anti-baseline.
const SERVE_LAYOUTS: [NamedLayout; 4] = [
    NamedLayout::MinWep,
    NamedLayout::PreVeb,
    NamedLayout::InOrder,
    NamedLayout::PreBreadth,
];

fn temp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cobtree-serve-{}-{tag}.cobt", std::process::id()))
}

fn build_implicit(layout: NamedLayout, h: u32) -> SearchTree<u64> {
    let n = (1u64 << h) - 1;
    SearchTree::builder()
        .layout(layout)
        .storage(Storage::Implicit)
        .keys((1..=n).map(|k| k * 2))
        .build()
        .expect("experiment tree")
}

/// Round-trips every layout through a real temp file and replays point,
/// scan and batch workloads under cachesim block counting for both the
/// heap-resident implicit backend and the mapped file.
///
/// # Panics
/// Panics if the mapped backend's checksum diverges from the source
/// tree's, or if the mapped replay performs *more* L1 misses than the
/// in-memory replay on any workload — either would break the
/// persistence contract (and the PR's acceptance criterion).
#[must_use]
pub fn mapped_vs_implicit_block_transfers(cfg: &Config) -> Table {
    let h = 16.min(cfg.curve_height);
    let n = (1u64 << h) - 1;
    let points: Vec<u64> = UniformKeys::new(n * 2, cfg.seed).take_vec(cfg.searches.min(100_000));
    let span = 64u64;
    let starts = scan_starts(n, span, (cfg.searches / 50).clamp(200, 3_000), cfg.seed ^ 1);
    let batches = sorted_batches(
        n * 2,
        64,
        (cfg.searches / 256).clamp(20, 1_000),
        1.1,
        cfg.seed,
    );

    let mut t = Table::new(
        "serve_block_transfers",
        &format!("Serve: L1 misses, mapped file vs heap implicit (h={h})"),
        &[
            "layout",
            "point_implicit",
            "point_mapped",
            "scan_implicit",
            "scan_mapped",
            "batch_implicit",
            "batch_mapped",
            "checksum_equal",
        ],
    );
    for layout in SERVE_LAYOUTS {
        let built = build_implicit(layout, h);
        let path = temp_file(layout.label());
        built
            .write_file(&path, &SaveOptions::new())
            .expect("save to temp file");
        let served: SearchTree<u64> = SearchTree::open(&path).expect("open saved file");
        assert_eq!(served.storage(), Storage::Mapped);
        assert_eq!(
            served.search_batch_checksum(&points),
            built.search_batch_checksum(&points),
            "{layout}: mapped checksum diverged from in-memory"
        );

        let mut row = vec![layout.label().to_string()];
        for workload in ["point", "scan", "batch"] {
            let mut misses = [0u64; 2];
            for (slot, tree) in [&built, &served].into_iter().enumerate() {
                let mut sim = presets::westmere_l1_l2();
                match workload {
                    "point" => {
                        replay_search_backend(&mut sim, tree, 8, 0, &points);
                    }
                    "scan" => {
                        replay_range_scan(&mut sim, tree, 8, 0, &starts, span);
                    }
                    _ => {
                        replay_sorted_batches(&mut sim, tree, 8, 0, &batches);
                    }
                }
                misses[slot] = sim.level_stats(0).misses;
            }
            let [implicit, mapped] = misses;
            assert!(
                mapped <= implicit,
                "{layout}/{workload}: mapped file replayed {mapped} misses vs {implicit} in memory"
            );
            row.push(implicit.to_string());
            row.push(mapped.to_string());
        }
        row.push("yes".to_string());
        t.push_row(row);
        std::fs::remove_file(&path).expect("remove temp file");
    }
    t
}

/// Format economics per layout: file size, key/index region offsets
/// and the named-vs-table descriptor saving. Named layouts ship **no**
/// position table — the whole index is the layout's name.
///
/// # Panics
/// Panics on save/open failures or misaligned regions (format bugs).
#[must_use]
pub fn format_geometry_table(cfg: &Config) -> Table {
    let h = 12.min(cfg.curve_height);
    let mut t = Table::new(
        "serve_format_geometry",
        &format!("Serve: on-disk format geometry (h={h}, u64 keys, 64-byte blocks)"),
        &[
            "layout",
            "descriptor",
            "file_bytes",
            "key_region_off",
            "index_and_pad_bytes",
            "bytes_per_key",
        ],
    );
    for (label, tree) in [
        ("MINWEP (named)", build_implicit(NamedLayout::MinWep, h)),
        ("MINWEP (table)", {
            let n = (1u64 << h) - 1;
            SearchTree::builder()
                .layout(NamedLayout::MinWep.materialize(h))
                .storage(Storage::Implicit)
                .keys((1..=n).map(|k| k * 2))
                .build()
                .expect("experiment tree")
        }),
    ] {
        let image = tree.encode(&SaveOptions::new()).expect("encode");
        let mapped: MappedTree<u64> = MappedTree::from_bytes(image).expect("parse");
        assert_eq!(mapped.key_region_offset() % mapped.block_bytes(), 0);
        // Whatever follows the key region (capacity × 8 bytes of u64
        // keys) is the aligned index region plus its block padding —
        // padding only for named files, which carry no table at all.
        let key_end = mapped.key_region_offset()
            + mapped.capacity() * <u64 as format::FixedKey>::WIDTH as u64;
        let index_bytes = mapped.file_len() - key_end.min(mapped.file_len());
        t.push_row(vec![
            label.to_string(),
            if mapped.named_layout().is_some() {
                "named".into()
            } else {
                "table".into()
            },
            mapped.file_len().to_string(),
            mapped.key_region_offset().to_string(),
            index_bytes.to_string(),
            format!("{:.2}", mapped.file_len() as f64 / mapped.len() as f64),
        ]);
    }
    t
}

/// Wall-clock sanity: point-search throughput of the mapped backend vs
/// the implicit backend it was serialized from (same positions, so the
/// only difference is reading keys through the mapping).
#[must_use]
pub fn mapped_search_time(cfg: &Config) -> Table {
    let h = 14.min(cfg.curve_height);
    let n = (1u64 << h) - 1;
    let built = build_implicit(NamedLayout::MinWep, h);
    let served: SearchTree<u64> =
        SearchTree::open_bytes(built.encode(&SaveOptions::new()).expect("encode")).expect("open");
    let probes: Vec<u64> = UniformKeys::new(n * 2, cfg.seed).take_vec(cfg.searches.min(100_000));
    let mut t = Table::new(
        "serve_search_time",
        &format!("Serve: mean point-search ns, heap vs mapped (MINWEP, h={h})"),
        &["backend", "ns_per_search", "relative"],
    );
    let heap_ns = median_time(cfg.repeats, probes.len() as u64, || {
        built.search_batch_checksum(&probes)
    });
    let mapped_ns = median_time(cfg.repeats, probes.len() as u64, || {
        served.search_batch_checksum(&probes)
    });
    t.push_row(vec![
        "implicit (heap)".into(),
        format!("{heap_ns:.1}"),
        pct(1.0),
    ]);
    t.push_row(vec![
        "mapped (file image)".into(),
        format!("{mapped_ns:.1}"),
        pct(mapped_ns / heap_ns),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapped_never_exceeds_implicit_block_transfers() {
        let mut cfg = Config::tiny();
        cfg.curve_height = 12;
        // The generator asserts mapped <= implicit internally; a full
        // row set means every workload passed on every layout.
        let t = mapped_vs_implicit_block_transfers(&cfg);
        assert_eq!(t.rows.len(), SERVE_LAYOUTS.len());
        for row in &t.rows {
            assert_eq!(row.last().unwrap(), "yes");
            let point_implicit: u64 = row[1].parse().unwrap();
            let point_mapped: u64 = row[2].parse().unwrap();
            assert!(point_mapped <= point_implicit);
        }
    }

    #[test]
    fn named_files_are_smaller_than_table_files() {
        let cfg = Config::tiny();
        let t = format_geometry_table(&cfg);
        assert_eq!(t.rows.len(), 2);
        let named: u64 = t.rows[0][2].parse().unwrap();
        let table: u64 = t.rows[1][2].parse().unwrap();
        assert!(
            named < table,
            "named file {named} must undercut table file {table}"
        );
    }
}
