//! The traced replay: the wire run's request stream re-issued in-process
//! through each layer's public entry point, one span per call, with the
//! stream index as the trace id.
//!
//! Layers, top down: `protocol` (request and reply encode/decode),
//! `engine` (`ServeEngine`), `tiered` (`TieredForest`), `forest` (the
//! snapshot's base `Forest`), `kernel` (the routed shard's `SearchTree`,
//! route precomputed) and `cachesim` (block transfers the Westmere
//! L1/L2 model predicts for the same probes). Each layer is called on
//! its own, so a layer's self time is its span minus the next layer's
//! span for the same trace id.
//!
//! Every metric is measured on every workload. Where a workload's
//! stream lacks an operation, the replay derives it from the stream
//! after the stream part is done: sorted 1024-key batches from its
//! `GET` keys, point lookups from its batch keys, ranges and ranks
//! around its keys, and finally distinct odd-key inserts enough to
//! cross the memtable budget once. Derived operations are checked by
//! the oracle but enter neither the parity checksum nor `cachesim.*`.

use crate::workload::{
    checksum_term, Kind, Op, Stream, Workload, BATCH_KEYS, RANGE_LIMIT, RANGE_SPAN, SHARDS,
};
use cobtree_cachesim::presets;
use cobtree_cachesim::replay::replay_tiered_point;
use cobtree_core::protocol::{
    decode_request, decode_response, encode_ok, encode_request, Opcode, Reply, Request,
};
use cobtree_core::NamedLayout;
use cobtree_search::TieredForest;
use cobtree_serve::ServeEngine;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Interleave width the server's batched `GET` path runs with.
const WIDTH: usize = 8;
/// Node bytes of a `u64` key in the cache model.
const NODE_BYTES: u64 = 8;
/// Derived sorted batches on workloads that send none.
const DERIVED_BATCHES: usize = 32;
/// Derived point lookups on workloads that send none.
const DERIVED_POINTS: usize = 32_768;
/// Derived ranges and ranks on workloads that send none.
const DERIVED_SCANS: usize = 4096;
/// Derived odd-key writes on read-only workloads: one more than the
/// default memtable budget, so exactly one flush runs.
const DERIVED_WRITES: u64 = 4097;

/// Span samples per metric: `(trace id, ns per key)`.
#[derive(Default)]
struct Spans(BTreeMap<&'static str, Vec<(u64, f64)>>);

impl Spans {
    /// Times `f` as one span of `name` for trace `id`, spread over
    /// `keys` probe keys.
    fn time<R>(&mut self, name: &'static str, id: u64, keys: usize, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = black_box(f());
        let ns = t.elapsed().as_nanos() as f64;
        self.push(name, id, ns / keys.max(1) as f64);
        r
    }

    fn push(&mut self, name: &'static str, id: u64, v: f64) {
        self.0.entry(name).or_default().push((id, v));
    }

    fn median(&self, name: &str) -> f64 {
        median(self.0.get(name).into_iter().flatten().map(|&(_, x)| x))
    }

    /// Median over trace ids of the summed spans `names`, in ns per
    /// request (per-key spans scaled back by `keys`).
    fn median_sum(&self, names: &[&str], keys: f64) -> f64 {
        let mut by_id: HashMap<u64, f64> = HashMap::new();
        for name in names {
            for &(id, v) in self.0.get(name).into_iter().flatten() {
                *by_id.entry(id).or_default() += v * keys;
            }
        }
        median(by_id.into_values())
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = v.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// What the replay measured.
pub struct Replayed {
    /// Per-layer metrics: `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Median engine + protocol span of one request of the workload's
    /// main op, in ns — the in-process part of a client's latency.
    pub in_process_ns: f64,
    /// Parity checksum of the in-process answers to the stream requests
    /// the wire run answered.
    pub checksum: u64,
    /// First request whose answer differs from the wire run's.
    pub first_mismatch: Option<u64>,
    /// First oracle failure of an in-process answer.
    pub first_wrong: Option<String>,
    pub requests: u64,
}

/// Builds the store `cobtree-serve` builds for `w`.
pub fn build_store(w: &Workload, dir: Option<&Path>) -> Result<TieredForest<u64>, String> {
    let mut b = TieredForest::builder()
        .layout(NamedLayout::MinWep)
        .shards(SHARDS)
        .background(false)
        .keys((1..=w.keys).map(|k| k * 2));
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(d);
        b = b.path(d);
    }
    b.build().map_err(|e| format!("build replay store: {e}"))
}

struct Replay<'a> {
    stream: &'a Stream,
    /// Read path and `engine.*` writes.
    engine: ServeEngine,
    a: Arc<TieredForest<u64>>,
    /// Twin store that takes the same writes through `TieredForest`
    /// directly, for `tiered.insert_ns` and the flush timings.
    b: TieredForest<u64>,
    spans: Spans,
    flush_ms: Vec<f64>,
    hier: cobtree_cachesim::CacheHierarchy,
    sim_keys: u64,
    first_wrong: Option<String>,
}

impl Replay<'_> {
    fn checked(&mut self, id: u64, op: &Op, reply: Option<Reply>) -> u64 {
        let verdict = match reply {
            Some(r) => self.stream.check(op, &r),
            None => Err("engine answered an error status".into()),
        };
        verdict.unwrap_or_else(|e| {
            self.first_wrong
                .get_or_insert_with(|| format!("replayed request {id}: {e}"));
            0
        })
    }

    fn get(&mut self, id: u64, key: u64, simulate: bool) -> u64 {
        let s = &mut self.spans;
        let snap = s.time("tiered.snapshot_ns", id, 1, || self.a.snapshot());
        s.time("engine.route_shard_ns", id, 1, || {
            self.engine.route_shard(key)
        });
        let mut out = Vec::with_capacity(1);
        s.time("engine.get_batch_ns", id, 1, || {
            self.engine.get_batch(&[key], WIDTH, &mut out);
        });
        s.time("tiered.locate_ns", id, 1, || self.a.locate(key));
        if let Some(forest) = snap.base() {
            let routed = s.time("forest.route_ns", id, 1, || forest.route(key));
            s.time("forest.locate_ns", id, 1, || forest.locate(key));
            if let Some((_, tree)) = routed {
                s.time("kernel.point_ns", id, 1, || tree.search(key));
            }
        }
        let reply = out.pop().and_then(Result::ok);
        if let Some(r) = &reply {
            let mut frame = Vec::with_capacity(64);
            s.time("protocol.get_roundtrip_ns", id, 1, || {
                encode_request(id as u32, &Request::Get { key }, &mut frame);
                let decoded = decode_request(&frame[4..]);
                frame.clear();
                encode_ok(id as u32, Opcode::Get, r, &mut frame);
                (decoded.is_ok(), decode_response(&frame[4..]).is_ok())
            });
        }
        if simulate {
            replay_tiered_point(&mut self.hier, &snap, NODE_BYTES, 0, &[key]);
            self.sim_keys += 1;
        }
        self.checked(id, &Op::Get(key), reply)
    }

    fn batch(&mut self, id: u64, keys: &[u64], simulate: bool) -> u64 {
        let n = keys.len();
        let s = &mut self.spans;
        let reply = s.time("engine.sorted_batch_ns", id, n, || {
            self.engine.sorted_batch(keys)
        });
        let mut hits = Vec::with_capacity(n);
        s.time("tiered.sorted_batch_ns", id, n, || {
            self.a.search_sorted_batch(keys, &mut hits).is_ok()
        });
        let snap = self.a.snapshot();
        if let Some(forest) = snap.base() {
            let mut out = Vec::with_capacity(n);
            s.time("forest.sorted_batch_ns", id, n, || {
                forest.search_sorted_batch(keys, &mut out).is_ok()
            });
            let subs = forest.shard_batches(keys).unwrap_or_default();
            let (mut sorted_ns, mut interleaved_ns) = (0.0, 0.0);
            let mut res = Vec::with_capacity(n);
            let mut pos = Vec::with_capacity(n);
            for (shard, sub) in subs {
                let Some(tree) = forest.shard(shard) else {
                    continue;
                };
                let t = Instant::now();
                black_box(tree.search_sorted_batch(sub, &mut pos).is_ok());
                sorted_ns += t.elapsed().as_nanos() as f64;
                let t = Instant::now();
                tree.search_batch_interleaved(sub, WIDTH, &mut res);
                black_box(&res);
                interleaved_ns += t.elapsed().as_nanos() as f64;
            }
            s.push("kernel.sorted_batch_ns", id, sorted_ns / n as f64);
            s.push("kernel.interleaved_ns", id, interleaved_ns / n as f64);
        }
        if let Ok(r) = &reply {
            let mut frame = Vec::with_capacity(16 * n + 64);
            s.time("protocol.batch_roundtrip_ns", id, n, || {
                let req = Request::Batch {
                    keys: keys.to_vec(),
                };
                encode_request(id as u32, &req, &mut frame);
                let decoded = decode_request(&frame[4..]);
                frame.clear();
                encode_ok(id as u32, Opcode::Batch, r, &mut frame);
                (decoded.is_ok(), decode_response(&frame[4..]).is_ok())
            });
        }
        if simulate {
            replay_tiered_point(&mut self.hier, &snap, NODE_BYTES, 0, keys);
            self.sim_keys += n as u64;
        }
        self.checked(id, &Op::Batch(keys.to_vec()), reply.ok())
    }

    fn write(&mut self, id: u64, key: u64, remove: bool) -> u64 {
        let s = &mut self.spans;
        let reply = s.time("engine.write_ns", id, 1, || self.engine.write(key, remove));
        let before = self.b.flushes();
        let t = Instant::now();
        black_box(if remove {
            self.b.remove(key)
        } else {
            self.b.insert(key)
        });
        let ns = t.elapsed().as_nanos() as f64;
        s.push("tiered.insert_ns", id, ns);
        if self.b.flushes() > before {
            self.flush_ms.push(ns / 1e6);
        }
        let op = if remove {
            Op::Remove(key)
        } else {
            Op::Insert(key)
        };
        self.checked(id, &op, reply.ok())
    }

    fn range(&mut self, id: u64, lo: u64, hi: u64) -> u64 {
        let s = &mut self.spans;
        let reply = s.time("engine.range_ns", id, 1, || {
            self.engine.range(lo, hi, RANGE_LIMIT)
        });
        let snap = self.a.snapshot();
        s.time("tiered.range_ns", id, 1, || {
            snap.range(lo..=hi).take(RANGE_LIMIT as usize).count()
        });
        self.checked(id, &Op::Range { lo, hi }, reply.ok())
    }

    fn rank(&mut self, id: u64, key: u64) -> u64 {
        let s = &mut self.spans;
        let reply = s.time("engine.rank_ns", id, 1, || self.engine.rank(key));
        s.time("tiered.rank_ns", id, 1, || self.a.rank(key));
        self.checked(id, &Op::Rank(key), reply.ok())
    }

    fn run(&mut self, id: u64, op: &Op, simulate: bool) -> u64 {
        match op {
            Op::Get(k) => self.get(id, *k, simulate),
            Op::Batch(keys) => self.batch(id, keys, simulate),
            Op::Insert(k) => self.write(id, *k, false),
            Op::Remove(k) => self.write(id, *k, true),
            Op::Range { lo, hi } => self.range(id, *lo, *hi),
            Op::Rank(k) => self.rank(id, *k),
        }
    }
}

/// Replays the first `requests` stream requests of `w` (then the
/// derived operations) and compares answers with the wire run's
/// `(stream index, digest)` pairs. Store files go under `dir`.
pub fn replay(
    w: &Workload,
    stream: &Stream,
    requests: u64,
    wire: &[(u64, u64)],
    dir: &Path,
) -> Result<Replayed, String> {
    let store_dir = |name: &str| w.path_backed.then(|| dir.join(name));
    let (dir_a, dir_b) = (store_dir("replay-a"), store_dir("replay-b"));
    let a = Arc::new(build_store(w, dir_a.as_deref())?);
    let b = build_store(w, dir_b.as_deref())?;
    // The seed set's own compaction counts as a flush; only the
    // replay's are reported.
    let seed_flushes = b.flushes();
    let mut r = Replay {
        stream,
        engine: ServeEngine::Tiered(Arc::clone(&a)),
        a,
        b,
        spans: Spans::default(),
        flush_ms: Vec::new(),
        hier: presets::westmere_l1_l2(),
        sim_keys: 0,
        first_wrong: None,
    };

    // The stream itself: answers enter the parity checksum.
    let wire: HashMap<u64, u64> = wire.iter().copied().collect();
    let mut checksum = 0u64;
    let mut first_mismatch = None;
    let mut gets = Vec::new();
    let mut batch_keys = Vec::new();
    for i in 0..requests {
        let op = stream.op(i);
        let digest = r.run(i, &op, true);
        if let Some(&d) = wire.get(&i) {
            checksum = checksum.wrapping_add(checksum_term(i, digest));
            if d != digest {
                first_mismatch.get_or_insert(i);
            }
        }
        match op {
            Op::Get(k) if gets.len() < BATCH_KEYS * DERIVED_BATCHES => gets.push(k),
            Op::Batch(keys) if batch_keys.len() < DERIVED_POINTS => batch_keys.extend(keys),
            _ => {}
        }
    }

    // Derived operations, for the metrics of ops the stream lacks.
    let mut id = requests;
    let mut next_id = || {
        id += 1;
        id
    };
    if w.kind != Kind::BulkLookup {
        for chunk in gets.chunks_exact(BATCH_KEYS) {
            let mut keys = chunk.to_vec();
            keys.sort_unstable();
            r.batch(next_id(), &keys, false);
        }
    } else {
        for &k in &batch_keys {
            r.get(next_id(), k, false);
        }
    }
    if w.kind != Kind::MixedWrite {
        let probes = if gets.is_empty() { &batch_keys } else { &gets };
        for &k in probes.iter().take(DERIVED_SCANS) {
            let even = k & !1;
            r.range(next_id(), even, even + RANGE_SPAN);
            r.rank(next_id(), even.max(2));
        }
        // Distinct odd keys, hottest first, through both stores.
        for rank in 0..DERIVED_WRITES {
            let odd = 2 * stream.key_index(rank) + 1;
            r.write(next_id(), odd, false);
        }
    }

    let l1 = r.hier.level_stats(0).misses as f64;
    let l2 = r.hier.level_stats(1).misses as f64;
    let keys = r.sim_keys.max(1) as f64;
    let flushes = (r.b.flushes() - seed_flushes) as f64;
    let flush_max = r.flush_ms.iter().copied().fold(0.0, f64::max);
    let in_process_ns = match w.kind {
        Kind::BulkLookup => r.spans.median_sum(
            &["engine.sorted_batch_ns", "protocol.batch_roundtrip_ns"],
            BATCH_KEYS as f64,
        ),
        _ => r
            .spans
            .median_sum(&["engine.get_batch_ns", "protocol.get_roundtrip_ns"], 1.0),
    };
    let sp = &r.spans;
    let mut metrics = vec![
        ("cachesim.l1_blocks_per_key", l1 / keys, "blocks/key"),
        ("cachesim.l2_blocks_per_key", l2 / keys, "blocks/key"),
    ];
    for name in [
        "kernel.point_ns",
        "kernel.interleaved_ns",
        "kernel.sorted_batch_ns",
        "forest.route_ns",
        "forest.locate_ns",
        "forest.sorted_batch_ns",
        "tiered.locate_ns",
        "tiered.snapshot_ns",
        "tiered.sorted_batch_ns",
        "tiered.insert_ns",
    ] {
        metrics.push((name, sp.median(name), "ns"));
    }
    metrics.push((
        "tiered.flush_p50_ms",
        median(r.flush_ms.iter().copied()),
        "ms",
    ));
    metrics.push(("tiered.flush_max_ms", flush_max, "ms"));
    metrics.push(("tiered.flushes", flushes, "count"));
    for name in [
        "tiered.range_ns",
        "tiered.rank_ns",
        "engine.route_shard_ns",
        "engine.get_batch_ns",
        "engine.sorted_batch_ns",
        "engine.write_ns",
        "engine.range_ns",
        "engine.rank_ns",
        "protocol.get_roundtrip_ns",
        "protocol.batch_roundtrip_ns",
    ] {
        metrics.push((name, sp.median(name), "ns"));
    }
    let out = Replayed {
        metrics,
        in_process_ns,
        checksum,
        first_mismatch,
        first_wrong: r.first_wrong.take(),
        requests,
    };
    drop(r);
    for d in [dir_a, dir_b].into_iter().flatten() {
        let _ = std::fs::remove_dir_all(d);
    }
    Ok(out)
}
