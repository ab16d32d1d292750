//! The descent-kernel benchmark: old per-level loop vs compiled scalar
//! kernel vs interleaved multi-query kernel, emitted as the
//! `BENCH_kernel.json` artifact the CI bench job uploads alongside
//! `BENCH_forest.json`.
//!
//! These search paths answer the same probes over the same tree:
//!
//! * `reference` — the pre-kernel descent (`search_reference`), probe
//!   by probe: one virtual `position` call and a three-way branch per
//!   level;
//! * `kernel` — the compiled scalar kernel: devirtualized positions,
//!   branch-free descent, both children prefetched a level ahead;
//! * `interleaved_wN` — the interleaved kernel with `N` lookups in
//!   flight (memory-level parallelism);
//! * `sorted` (the `batch` mix only) — the shared-prefix sorted-batch
//!   walk (`search_sorted_batch`), which restarts each probe from the
//!   lowest common ancestor of its path and the previous probe's, on
//!   the compiled fast plane (fat trees walk their binary reference
//!   plane).
//!
//! Every path must produce the identical position checksum — the run
//! **panics** on any divergence, so the artifact doubles as a
//! kernel/slow-path parity assertion on the CI workload. Mixes cover
//! uniform and Zipf point probes plus one ascending batch, over an
//! in-memory implicit tree and the same tree served from mapped file
//! bytes — and, since the fat-node plane landed, over a B-ary fat tree
//! (`fat_implicit`) and its mapped serving twin (`fat_mapped`), whose
//! rank-of-key descent rows track what SIMD chunk search buys over the
//! one-comparison-per-level binary kernels.

use crate::json::{ops_per_sec as rate, safe_div, JsonObject};
use cobtree_core::fat::{FatLayout, FatOrder};
use cobtree_core::NamedLayout;
use cobtree_search::workload::{UniformKeys, ZipfKeys, ZipfTable};
use cobtree_search::{SaveOptions, SearchTree, Storage};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Configuration of one kernel benchmark run.
#[derive(Debug, Clone)]
pub struct KernelBenchConfig {
    /// Stored keys (the key set is `{2, 4, …, 2·keys}`, so uniform
    /// probes over `1..=2·keys` hit ~50%).
    pub keys: u64,
    /// Probes per mix.
    pub ops: usize,
    /// Zipf skew of the skewed point mix.
    pub zipf_s: f64,
    /// Interleave widths to sweep.
    pub widths: Vec<usize>,
    /// Workload seed.
    pub seed: u64,
    /// Layout under test.
    pub layout: NamedLayout,
    /// Fat-node layout measured alongside it (the `fat_implicit` /
    /// `fat_mapped` rows).
    pub fat_layout: FatLayout,
}

impl KernelBenchConfig {
    /// The fixed CI workload: same scale as the forest job's shards, so
    /// the two artifacts describe the same serving regime.
    #[must_use]
    pub fn ci() -> Self {
        Self {
            keys: 400_000,
            ops: 200_000,
            zipf_s: 1.1,
            widths: vec![8, 16],
            seed: 0x5EED_4EE1_0C0B,
            layout: NamedLayout::MinWep,
            fat_layout: FatLayout::new(FatOrder::Veb, 16).expect("FAT16-VEB"),
        }
    }

    /// Minimal profile for unit tests (debug builds).
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            keys: 3_000,
            ops: 2_000,
            zipf_s: 1.1,
            widths: vec![3, 8],
            seed: 11,
            layout: NamedLayout::MinWep,
            fat_layout: FatLayout::new(FatOrder::Veb, 16).expect("FAT16-VEB"),
        }
    }
}

/// One measured `(storage, mix, path)` cell.
#[derive(Debug, Clone)]
pub struct KernelPoint {
    /// `implicit`, `mapped`, `fat_implicit` or `fat_mapped`.
    pub storage: &'static str,
    /// `uniform`, `zipf` or `batch`.
    pub mix: &'static str,
    /// `reference`, `kernel`, `interleaved_wN` or `sorted`.
    pub path: String,
    /// Probes answered.
    pub ops: usize,
    /// Wall time of the cell in nanoseconds.
    pub wall_ns: u64,
    /// Throughput, probes per second.
    pub ops_per_sec: f64,
    /// Position checksum (identical across paths by construction).
    pub checksum: u64,
}

/// The full report [`run`] produces; serialize with [`to_json`].
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Stored keys.
    pub keys: u64,
    /// Probes per mix.
    pub ops: usize,
    /// Layout label.
    pub layout: String,
    /// Fat layout label of the `fat_*` rows.
    pub fat_layout: String,
    /// Zipf skew.
    pub zipf_s: f64,
    /// Every measured cell.
    pub points: Vec<KernelPoint>,
    /// Best interleaved ops/s ÷ reference ops/s on the implicit
    /// uniform point mix — the headline CI tracks.
    pub interleaved_speedup: f64,
    /// Scalar-kernel ops/s ÷ reference ops/s on the same mix.
    pub kernel_speedup: f64,
}

fn time<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_nanos() as u64)
}

/// Sums found positions via per-probe `search_reference` — the old hot
/// loop, timed as the baseline.
fn reference_checksum(tree: &SearchTree<u64>, probes: &[u64]) -> u64 {
    let mut acc = 0u64;
    for &k in probes {
        if let Some(p) = tree.search_reference(k) {
            acc = acc.wrapping_add(p);
        }
    }
    acc
}

/// Sums found positions via per-probe kernel `search`.
fn kernel_checksum(tree: &SearchTree<u64>, probes: &[u64]) -> u64 {
    let mut acc = 0u64;
    for &k in probes {
        if let Some(p) = tree.search(k) {
            acc = acc.wrapping_add(p);
        }
    }
    acc
}

/// Sums found positions via the interleaved kernel at `width`.
fn interleaved_checksum(
    tree: &SearchTree<u64>,
    probes: &[u64],
    width: usize,
    out: &mut Vec<Option<u64>>,
) -> u64 {
    tree.search_batch_interleaved(probes, width, out);
    out.iter()
        .flatten()
        .fold(0u64, |acc, &p| acc.wrapping_add(p))
}

/// Sums found positions via the shared-prefix sorted-batch walk
/// (`probes` ascending).
fn sorted_checksum(tree: &SearchTree<u64>, probes: &[u64], out: &mut Vec<Option<u64>>) -> u64 {
    tree.search_sorted_batch(probes, out)
        .expect("ascending batch");
    out.iter()
        .flatten()
        .fold(0u64, |acc, &p| acc.wrapping_add(p))
}

/// Runs every `(storage, mix, path)` cell and returns the report.
/// Pass a pre-built [`ZipfTable`] to share the Zipf weight table with
/// other drivers of the same `(n, s)` (the throughput driver does);
/// `None` builds one locally.
///
/// # Panics
/// Panics when any path's checksum diverges from the reference path's
/// on the same `(storage, mix)` — the kernel/slow-path parity assert.
#[must_use]
pub fn run(cfg: &KernelBenchConfig, zipf: Option<&ZipfTable>) -> KernelReport {
    let implicit = SearchTree::builder()
        .layout(cfg.layout)
        .storage(Storage::Implicit)
        .keys((1..=cfg.keys).map(|k| k * 2))
        .build()
        .expect("kernel bench tree");
    let mapped: SearchTree<u64> =
        SearchTree::open_bytes(implicit.encode(&SaveOptions::new()).expect("encode tree"))
            .expect("reopen tree from bytes");
    let fat = SearchTree::builder()
        .layout(cfg.fat_layout)
        .storage(Storage::Implicit)
        .keys((1..=cfg.keys).map(|k| k * 2))
        .build()
        .expect("kernel bench fat tree");
    let fat_mapped: SearchTree<u64> =
        SearchTree::open_bytes(fat.encode(&SaveOptions::new()).expect("encode fat tree"))
            .expect("reopen fat tree from bytes");

    let uniform = UniformKeys::new(cfg.keys * 2, cfg.seed).take_vec(cfg.ops);
    let local_table;
    let table = match zipf {
        Some(t) => t,
        None => {
            local_table = ZipfTable::new(cfg.keys, cfg.zipf_s);
            &local_table
        }
    };
    let zipf_probes: Vec<u64> = ZipfKeys::from_table(table, cfg.seed)
        .map(|r| r * 2)
        .take(cfg.ops)
        .collect();
    let mut batch = UniformKeys::new(cfg.keys * 2, cfg.seed ^ 0xB47C).take_vec(cfg.ops);
    batch.sort_unstable();

    let mut points: Vec<KernelPoint> = Vec::new();
    let mut out: Vec<Option<u64>> = Vec::new();
    for (storage, tree) in [
        ("implicit", &implicit),
        ("mapped", &mapped),
        ("fat_implicit", &fat),
        ("fat_mapped", &fat_mapped),
    ] {
        for (mix, probes) in [
            ("uniform", &uniform),
            ("zipf", &zipf_probes),
            ("batch", &batch),
        ] {
            let (reference, wall_ns) = time(|| black_box(reference_checksum(tree, probes)));
            points.push(KernelPoint {
                storage,
                mix,
                path: "reference".to_string(),
                ops: probes.len(),
                wall_ns,
                ops_per_sec: rate(probes.len(), wall_ns),
                checksum: reference,
            });
            let (scalar, wall_ns) = time(|| black_box(kernel_checksum(tree, probes)));
            assert_eq!(
                scalar, reference,
                "{storage}/{mix}: scalar kernel checksum diverged from the slow path"
            );
            points.push(KernelPoint {
                storage,
                mix,
                path: "kernel".to_string(),
                ops: probes.len(),
                wall_ns,
                ops_per_sec: rate(probes.len(), wall_ns),
                checksum: scalar,
            });
            for &width in &cfg.widths {
                let (inter, wall_ns) =
                    time(|| black_box(interleaved_checksum(tree, probes, width, &mut out)));
                assert_eq!(
                    inter, reference,
                    "{storage}/{mix}: interleaved(w={width}) checksum diverged from the slow path"
                );
                points.push(KernelPoint {
                    storage,
                    mix,
                    path: format!("interleaved_w{width}"),
                    ops: probes.len(),
                    wall_ns,
                    ops_per_sec: rate(probes.len(), wall_ns),
                    checksum: inter,
                });
            }
            if mix == "batch" {
                let (sorted, wall_ns) = time(|| black_box(sorted_checksum(tree, probes, &mut out)));
                assert_eq!(
                    sorted, reference,
                    "{storage}/{mix}: sorted-batch checksum diverged from the slow path"
                );
                points.push(KernelPoint {
                    storage,
                    mix,
                    path: "sorted".to_string(),
                    ops: probes.len(),
                    wall_ns,
                    ops_per_sec: rate(probes.len(), wall_ns),
                    checksum: sorted,
                });
            }
        }
    }

    let baseline = |path: &str| {
        points
            .iter()
            .filter(|p| p.storage == "implicit" && p.mix == "uniform")
            .filter(|p| p.path.starts_with(path))
            .map(|p| p.ops_per_sec)
            .fold(0.0f64, f64::max)
    };
    let reference_rate = baseline("reference");
    let interleaved_speedup = safe_div(baseline("interleaved"), reference_rate);
    let kernel_speedup = safe_div(baseline("kernel"), reference_rate);
    KernelReport {
        keys: cfg.keys,
        ops: cfg.ops,
        layout: implicit.layout_label().to_string(),
        fat_layout: fat.layout_label().to_string(),
        zipf_s: cfg.zipf_s,
        interleaved_speedup,
        kernel_speedup,
        points,
    }
}

/// Renders the report as the `BENCH_kernel.json` artifact (stable field
/// order, finite numbers, schema-free parseable — the shared
/// [`crate::json`] writer).
#[must_use]
pub fn to_json(r: &KernelReport) -> String {
    JsonObject::new()
        .with("bench", "descent_kernel")
        .with("schema_version", 1u64)
        .with(
            "config",
            JsonObject::new()
                .with("keys", r.keys)
                .with("ops", r.ops)
                .with("layout", r.layout.as_str())
                .with("fat_layout", r.fat_layout.as_str())
                .with("zipf_s", r.zipf_s),
        )
        .with(
            "paths",
            r.points
                .iter()
                .map(|p| {
                    JsonObject::new()
                        .with("storage", p.storage)
                        .with("mix", p.mix)
                        .with("path", p.path.as_str())
                        .with("ops", p.ops)
                        .with("wall_ns", p.wall_ns)
                        .with("ops_per_sec", p.ops_per_sec)
                        .with("checksum", p.checksum)
                })
                .collect::<Vec<_>>(),
        )
        .with("kernel_speedup", r.kernel_speedup)
        .with("interleaved_speedup", r.interleaved_speedup)
        .render()
}

/// Writes [`to_json`] to `path` (parent directories created).
///
/// # Errors
/// Any `std::io::Error` from directory creation or the write.
pub fn write_json(r: &KernelReport, path: impl AsRef<Path>) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, to_json(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_parity_checked_report() {
        let cfg = KernelBenchConfig::tiny();
        let report = run(&cfg, None);
        // 4 storages (binary + fat, heap + mapped each) × (3 mixes ×
        // (reference + kernel + 2 widths) + the batch mix's sorted row).
        assert_eq!(report.points.len(), 4 * (3 * 4 + 1));
        assert_eq!(report.fat_layout, "FAT16-VEB");
        for p in &report.points {
            assert!(p.ops > 0 && p.ops_per_sec > 0.0, "{}/{}", p.mix, p.path);
        }
        // Checksums already asserted inside run(); spot-check one mix
        // is identical across storages too (same layout, same probes).
        let ck = |storage: &str, mix: &str| {
            report
                .points
                .iter()
                .find(|p| p.storage == storage && p.mix == mix)
                .unwrap()
                .checksum
        };
        assert_eq!(ck("implicit", "uniform"), ck("mapped", "uniform"));
        assert_eq!(ck("implicit", "zipf"), ck("mapped", "zipf"));
        // The fat plane serves the same tree from heap and mapped bytes.
        assert_eq!(ck("fat_implicit", "uniform"), ck("fat_mapped", "uniform"));
        assert_eq!(ck("fat_implicit", "zipf"), ck("fat_mapped", "zipf"));
        assert_eq!(ck("fat_implicit", "batch"), ck("fat_mapped", "batch"));
        let json = to_json(&report);
        crate::json::assert_jsonish(&json);
        for field in [
            "\"bench\": \"descent_kernel\"",
            "\"path\": \"reference\"",
            "\"path\": \"kernel\"",
            "\"path\": \"interleaved_w3\"",
            "\"path\": \"interleaved_w8\"",
            "\"path\": \"sorted\"",
            "\"storage\": \"fat_implicit\"",
            "\"storage\": \"fat_mapped\"",
            "\"fat_layout\": \"FAT16-VEB\"",
            "\"kernel_speedup\"",
            "\"interleaved_speedup\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn shared_zipf_table_reproduces_the_local_one() {
        let cfg = KernelBenchConfig::tiny();
        let table = ZipfTable::new(cfg.keys, cfg.zipf_s);
        let a = run(&cfg, Some(&table));
        let b = run(&cfg, None);
        let zipf_ck =
            |r: &KernelReport| r.points.iter().find(|p| p.mix == "zipf").unwrap().checksum;
        assert_eq!(zipf_ck(&a), zipf_ck(&b));
    }
}
