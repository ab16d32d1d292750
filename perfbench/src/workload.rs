//! The three workloads: what each one is and why it is here, the
//! seeded request stream the wire run sends and the traced replay
//! re-issues, and the answer oracle both sides check replies with.
//!
//! Every store holds the even keys `2, 4, …, 2·N` in `SHARDS` MINWEP
//! shards, as `cobtree-serve --keys N --shards 8` seeds it. Writes only
//! ever touch odd keys, so whether an even key is stored is fixed by the
//! seed set on every workload, and so is every odd key on the read-only
//! ones. The oracle checks exactly those answers.
//!
//! Key popularity is Zipf over ranks. Ranks map to key indices through
//! a fixed seeded permutation ([`Perm`]), so the hot keys are spread
//! over all shards (and so over both workers) instead of piling into
//! shard 0. The workload seed draws the requests and their arrivals.

use cobtree_core::protocol::{Reply, Request, BUFFER_SHARD};

/// Base-forest shards, as `cobtree-serve --shards` is told.
pub const SHARDS: usize = 8;
/// Probes per `BATCH` request.
pub const BATCH_KEYS: usize = 1024;
/// Key-space width of a `RANGE` request: `[lo, lo + RANGE_SPAN]` holds
/// at most 16 even and 15 odd keys.
pub const RANGE_SPAN: u64 = 30;
/// `RANGE` result cap. It is above the 31 keys a span can hold, so a
/// correct reply is never truncated.
pub const RANGE_LIMIT: u32 = 64;
/// Zipf exponent of key popularity.
pub const ZIPF_S: f64 = 0.99;

/// Which request mix a workload sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    PointRead,
    MixedWrite,
    BulkLookup,
}

/// One named workload: store shape, load shape and flush policy.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// The store holds the even keys `2, 4, …, 2·keys`.
    pub keys: u64,
    /// Shards are saved as `.cobt` files in a store directory and served
    /// mapped (`--path`), instead of living in memory.
    pub path_backed: bool,
    /// Open-loop Poisson arrival rate in requests/s; `None` runs closed
    /// loop only.
    pub rate: Option<f64>,
    /// Client connections, one generator thread each.
    pub connections: usize,
    /// Open-loop workloads: alternate open-loop and saturated segments
    /// in 3-second cycles, rather than one open-loop phase followed by
    /// one saturated phase.
    pub interleave: bool,
    /// Server boots per run. Each is timed for `setup_s` (their median)
    /// and then driven for an equal share of the run, so one boot's
    /// memory placement does not set the figures.
    pub boots: usize,
    /// Stream requests the traced replay re-issues (the wire run's
    /// prefix of this length).
    pub replay_ops: u64,
}

/// `point-read`: 4,194,304 keys (32 MiB of keys, 8× a 4 MiB L2),
/// path-backed. `GET` only, Zipf 0.99; one probe in 16 asks for the odd
/// neighbour of its key, which is never stored. Each 3-s cycle runs
/// 2.1 s of open loop at 50k ops/s (a tenth of the saturated rate on a
/// 2-core host), then 64 requests in flight per connection for
/// `max_ops_s`. The rate is low so that `p99_us` measures the store and
/// not the host: at 100k ops/s a vCPU stall of ~10 ms lets a
/// connection's 256 handed-off lookups pile up, the server refuses the
/// rest with `BUSY`, the 2-ms retry backoff lands in the tail, and the
/// whole-run p99 moved between 0.55 and 1.2 ms across five seeds.
///
/// * Why: the common case of a read-mostly store larger than cache.
/// * Loads: the worker loop, the cross-worker handoffs, the wire and
///   the client; the descent is under 1% of a request's time.
/// * Bypasses: the write path — the memtable stays empty and no
///   compaction runs.
/// * Flush policy: 8 mapped `.cobt` shards in a fresh store directory,
///   default 4096-entry memtable, inline compaction, non-durable acks
///   (no write is ever sent).
pub const POINT_READ: Workload = Workload {
    name: "point-read",
    kind: Kind::PointRead,
    keys: 1 << 22,
    path_backed: true,
    rate: Some(50_000.0),
    connections: 2,
    interleave: true,
    boots: 3,
    replay_ops: 100_000,
};

/// `mixed-write`: 262,144 keys (2 MiB, fits in L2), in memory. The
/// blend is get/insert/remove/range/rank = 80/8/4/4/4 over Zipf 0.99;
/// writes go to odd keys and a quarter of the `GET`s probe odd keys, so
/// some reads resolve in the write buffers. Open loop at 100k ops/s for
/// 70% of the run, then a window-saturated phase.
///
/// * Why: the memtable is non-empty for most of the run and compaction
///   runs inline on a worker every fraction of a second; its stalls set
///   `p99_us`.
/// * Loads: the per-`GET` `snapshot()` clone, the write lock, inline
///   compaction, the range and rank paths.
/// * Bypasses: mapped shard files and the sorted-batch path.
/// * Flush policy: in memory (no store directory), default 4096-entry
///   memtable, inline compaction on the writing worker, non-durable
///   acks.
///
/// Runnable by name, but not one of the benchmark's workloads in
/// `BENCHMARK.json`: under the server's default admission a ~33-ms
/// inline compaction overflows the other worker's 256 in-flight
/// handoffs, the `BUSY` retries run out on ~0.1% of requests, and p99
/// (40–100 ms) moves with how retries bunch rather than with the store.
pub const MIXED_WRITE: Workload = Workload {
    name: "mixed-write",
    kind: Kind::MixedWrite,
    keys: 1 << 18,
    path_backed: false,
    rate: Some(100_000.0),
    connections: 2,
    // Saturated segments between open-loop ones would fill the
    // memtable and move compactions into the open-loop segments.
    interleave: false,
    boots: 3,
    // Four seconds of the stream, so the replay's memtable fills and
    // flushes a few times.
    replay_ops: 400_000,
};

/// `bulk-lookup`: the same 4M-key mapped store as `point-read`. Closed
/// loop on one connection, sending sorted `BATCH` requests of 1024
/// uniform probes over `1..=2N` (half of them miss).
///
/// * Why: the descent is most of each request here, so kernel, forest
///   and tiered batch-path changes show end to end on this workload and
///   not on `point-read`.
/// * Loads: `ServeEngine::sorted_batch` down to the per-shard
///   shared-prefix kernel.
/// * Bypasses: handoffs (a batch runs on its connection's worker),
///   the per-key `GET` path and the write path.
/// * Flush policy: as `point-read` — 8 mapped `.cobt` shards, empty
///   default memtable, inline compaction, no writes.
pub const BULK_LOOKUP: Workload = Workload {
    name: "bulk-lookup",
    kind: Kind::BulkLookup,
    keys: 1 << 22,
    path_backed: true,
    rate: None,
    connections: 1,
    interleave: false,
    boots: 3,
    replay_ops: 300,
};

/// Every workload `--workload` accepts; `BENCHMARK.json` lists all but
/// `mixed-write`.
pub const WORKLOADS: [&Workload; 3] = [&POINT_READ, &MIXED_WRITE, &BULK_LOOKUP];

impl Workload {
    /// Probe keys one request answers.
    pub fn keys_per_request(&self) -> usize {
        match self.kind {
            Kind::BulkLookup => BATCH_KEYS,
            Kind::PointRead | Kind::MixedWrite => 1,
        }
    }
}

/// Looks a workload up by its name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

// ---------------------------------------------------------------------
// Randomness
// ---------------------------------------------------------------------

/// The SplitMix64 finaliser: a bijective 64-bit mix.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Zipf(`s`) over ranks `1..=n` by rejection-inversion (Hörmann and
/// Derflinger): constant expected time, no table.
pub struct Zipf {
    n: f64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    cut: f64,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Self {
        let h_x1 = h_integral(1.5, s) - 1.0;
        let h_n = h_integral(n as f64 + 0.5, s);
        let cut = 2.0 - h_integral_inv(h_integral(2.5, s) - h(2.0, s), s);
        Zipf {
            n: n as f64,
            s,
            h_x1,
            h_n,
            cut,
        }
    }

    /// A 1-based rank; rank 1 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        loop {
            let u = self.h_n + rng.unit() * (self.h_x1 - self.h_n);
            let x = h_integral_inv(u, self.s);
            let k = (x + 0.5).floor().clamp(1.0, self.n);
            if k - x <= self.cut || u >= h_integral(k + 0.5, self.s) - h(k, self.s) {
                return k as u64;
            }
        }
    }
}

fn h(x: f64, s: f64) -> f64 {
    (-s * x.ln()).exp()
}

fn h_integral(x: f64, s: f64) -> f64 {
    let lx = x.ln();
    expm1_over_x((1.0 - s) * lx) * lx
}

fn h_integral_inv(x: f64, s: f64) -> f64 {
    let t = (x * (1.0 - s)).max(-1.0);
    (ln1p_over_x(t) * x).exp()
}

/// `ln(1 + x) / x`, continuous at 0.
fn ln1p_over_x(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// `(e^x - 1) / x`, continuous at 0.
fn expm1_over_x(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

/// A seeded bijection on `0..n`: three rounds of multiply-add and
/// xor-shift on the smallest power-of-two domain holding `n`, cycle-
/// walked back into range.
pub struct Perm {
    n: u64,
    bits: u32,
    mul: [u64; 3],
    add: [u64; 3],
}

impl Perm {
    pub fn new(n: u64, seed: u64) -> Self {
        let bits = (64 - n.saturating_sub(1).leading_zeros()).max(2);
        let mut rng = Rng::new(seed);
        Perm {
            n,
            bits,
            mul: std::array::from_fn(|_| rng.next_u64() | 1),
            add: std::array::from_fn(|_| rng.next_u64()),
        }
    }

    fn round(&self, mut x: u64) -> u64 {
        let mask = (1u64 << self.bits) - 1;
        for r in 0..3 {
            x = x.wrapping_mul(self.mul[r]).wrapping_add(self.add[r]) & mask;
            x ^= x >> (self.bits / 2);
        }
        x
    }

    pub fn apply(&self, x: u64) -> u64 {
        let mut y = self.round(x);
        while y >= self.n {
            y = self.round(y);
        }
        y
    }
}

// ---------------------------------------------------------------------
// Request stream
// ---------------------------------------------------------------------

/// One request of a stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Get(u64),
    Insert(u64),
    Remove(u64),
    Range { lo: u64, hi: u64 },
    Rank(u64),
    Batch(Vec<u64>),
}

impl Op {
    /// The wire request this op is sent as.
    pub fn request(&self) -> Request {
        match self {
            Op::Get(key) => Request::Get { key: *key },
            Op::Insert(key) => Request::Insert { key: *key },
            Op::Remove(key) => Request::Remove { key: *key },
            Op::Range { lo, hi } => Request::Range {
                lo: *lo,
                hi: *hi,
                limit: RANGE_LIMIT,
            },
            Op::Rank(key) => Request::Rank { key: *key },
            Op::Batch(keys) => Request::Batch { keys: keys.clone() },
        }
    }
}

/// Seed of the rank → key permutation. It is fixed, not drawn from the
/// workload seed: which keys are hot decides how load splits between
/// the two workers, and that must not change from run to run.
const PERM_SEED: u64 = 0x7065_726d;
const STREAM_SALT: u64 = 0x7374_7265_616d;
const ARRIVAL_SALT: u64 = 0x6172_7269_7665;
const DIGEST_SALT: u64 = 0x6469_6765_7374;

/// A workload's request stream for one seed. Request `i` is a pure
/// function of `(seed, i)`, so the generator threads, the oracle and
/// the replay can each rebuild any request on their own.
pub struct Stream {
    kind: Kind,
    n: u64,
    seed: u64,
    zipf: Zipf,
    perm: Perm,
}

impl Stream {
    pub fn new(w: &Workload, seed: u64) -> Self {
        Stream {
            kind: w.kind,
            n: w.keys,
            seed,
            zipf: Zipf::new(w.keys, ZIPF_S),
            perm: Perm::new(w.keys, PERM_SEED),
        }
    }

    /// The 0-based key index of popularity rank `rank` (0 = hottest).
    pub fn key_index(&self, rank: u64) -> u64 {
        self.perm.apply(rank)
    }

    fn hot_index(&self, rng: &mut Rng) -> u64 {
        self.key_index(self.zipf.sample(rng) - 1)
    }

    /// Request `i` of the stream.
    pub fn op(&self, i: u64) -> Op {
        let mut rng = Rng::new(mix64(self.seed ^ mix64(i ^ STREAM_SALT)));
        match self.kind {
            Kind::PointRead => {
                let even = 2 * (self.hot_index(&mut rng) + 1);
                if rng.below(16) == 0 {
                    Op::Get(even - 1)
                } else {
                    Op::Get(even)
                }
            }
            Kind::MixedWrite => {
                let pick = rng.below(100);
                let even = 2 * (self.hot_index(&mut rng) + 1);
                let odd = even - 1;
                match pick {
                    0..=79 if rng.below(4) == 0 => Op::Get(odd),
                    0..=79 => Op::Get(even),
                    80..=87 => Op::Insert(odd),
                    88..=91 => Op::Remove(odd),
                    92..=95 => Op::Range {
                        lo: even,
                        hi: even + RANGE_SPAN,
                    },
                    _ => Op::Rank(even),
                }
            }
            Kind::BulkLookup => {
                let mut keys: Vec<u64> =
                    (0..BATCH_KEYS).map(|_| 1 + rng.below(2 * self.n)).collect();
                keys.sort_unstable();
                Op::Batch(keys)
            }
        }
    }

    /// Open-loop arrival offsets in ns: a Poisson process at `rate`
    /// requests/s over `duration_ns`. Entry `i` is when request `i` is
    /// due.
    pub fn arrivals(&self, rate: f64, duration_ns: u64) -> Vec<u64> {
        let mut rng = Rng::new(mix64(self.seed ^ ARRIVAL_SALT));
        let mut out = Vec::with_capacity((rate * duration_ns as f64 / 1e9 * 1.05) as usize);
        let mut t = 0.0f64;
        loop {
            t += -rng.unit().ln() / rate * 1e9;
            if t >= duration_ns as f64 {
                return out;
            }
            out.push(t as u64);
        }
    }

    /// Whether `key` is in the seed set.
    fn seeded(&self, key: u64) -> bool {
        key % 2 == 0 && key >= 2 && key <= 2 * self.n
    }

    /// Whether the seed set fixes whether `key` is stored: even keys
    /// always, odd keys only on workloads that never write.
    fn fixed(&self, key: u64) -> bool {
        key % 2 == 0 || self.kind != Kind::MixedWrite
    }

    /// Whether hit coordinates (shard, position) are fixed by the seed
    /// set: only while no compaction can move keys.
    fn fixed_positions(&self) -> bool {
        self.kind != Kind::MixedWrite
    }

    fn hit_digest(&self, key: u64, found: bool, shard: u32, position: u64) -> Result<u64, String> {
        if !self.fixed(key) {
            return Ok(0);
        }
        let want = self.seeded(key);
        if found != want {
            return Err(format!(
                "key {key}: found={found}, the seed set says {want}"
            ));
        }
        if !found {
            return Ok(1);
        }
        if !self.fixed_positions() {
            return Ok(2);
        }
        if shard == BUFFER_SHARD || shard as usize >= SHARDS {
            return Err(format!("key {key}: served from shard {shard} of {SHARDS}"));
        }
        Ok(mix64(u64::from(shard) << 48 ^ position))
    }

    /// Checks a successful reply to `op` against what the seed set
    /// fixes. Returns the answer's digest for the wire/replay parity
    /// checksum (0 for answers the seed set does not fix), or what is
    /// wrong with it.
    pub fn check(&self, op: &Op, reply: &Reply) -> Result<u64, String> {
        match (op, reply) {
            (
                Op::Get(key),
                Reply::Hit {
                    found,
                    shard,
                    position,
                },
            ) => self.hit_digest(*key, *found, *shard, *position),
            (Op::Batch(keys), Reply::Batch { hits }) => {
                if hits.len() != keys.len() {
                    return Err(format!("{} hits for {} probes", hits.len(), keys.len()));
                }
                let mut digest = 0u64;
                for (j, (&key, hit)) in keys.iter().zip(hits).enumerate() {
                    let d = self.hit_digest(key, hit.found, hit.shard, hit.position)?;
                    digest = digest.wrapping_add(mix64(d ^ j as u64));
                }
                Ok(digest)
            }
            (Op::Range { lo, hi }, Reply::Keys { truncated, keys }) => {
                if *truncated {
                    return Err(format!("range [{lo}, {hi}] truncated"));
                }
                if keys.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(format!("range [{lo}, {hi}] not strictly ascending"));
                }
                if keys.iter().any(|k| k < lo || k > hi) {
                    return Err(format!("range [{lo}, {hi}] returned a key outside it"));
                }
                if let Some(k) = keys.iter().find(|&&k| self.fixed(k) && !self.seeded(k)) {
                    return Err(format!("range [{lo}, {hi}] returned unstored key {k}"));
                }
                let evens = keys.iter().filter(|&&k| k % 2 == 0).count() as u64;
                let first = lo.div_ceil(2) * 2;
                let last = (hi / 2 * 2).min(2 * self.n);
                let want = if first.max(2) > last {
                    0
                } else {
                    (last - first.max(2)) / 2 + 1
                };
                if evens != want {
                    return Err(format!(
                        "range [{lo}, {hi}] returned {evens} seeded keys, want {want}"
                    ));
                }
                Ok(mix64(want ^ DIGEST_SALT))
            }
            (Op::Rank(key), Reply::Rank { rank }) => {
                // Below key 2j sit j-1 seeded even keys and at most j
                // written odd ones.
                let j = key / 2;
                if *rank < j - 1 || *rank > 2 * j - 1 {
                    return Err(format!(
                        "rank({key}) = {rank}, outside [{}, {}]",
                        j - 1,
                        2 * j - 1
                    ));
                }
                Ok(0)
            }
            (Op::Insert(_) | Op::Remove(_), Reply::Applied { .. }) => Ok(0),
            _ => Err(format!("reply {reply:?} does not answer {op:?}")),
        }
    }
}

/// One term of the parity checksum: the digest of request `i`'s answer,
/// bound to its index. Terms add (wrapping), so replies may arrive in
/// any order.
pub fn checksum_term(i: u64, digest: u64) -> u64 {
    mix64(i ^ mix64(digest ^ DIGEST_SALT))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perm_is_a_bijection() {
        for n in [2u64, 3, 1000, 1 << 12] {
            let p = Perm::new(n, 7);
            let mut seen = vec![false; n as usize];
            for x in 0..n {
                let y = p.apply(x);
                assert!(!seen[y as usize], "n={n}: {y} hit twice");
                seen[y as usize] = true;
            }
        }
    }

    #[test]
    fn zipf_ranks_are_in_range_and_skewed() {
        let z = Zipf::new(1 << 18, ZIPF_S);
        let mut rng = Rng::new(3);
        let samples: Vec<u64> = (0..100_000).map(|_| z.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&r| (1..=1 << 18).contains(&r)));
        let top = samples.iter().filter(|&&r| r == 1).count();
        // P(rank 1) is about 1 / H(n, 0.99), roughly 7.5% here.
        assert!((5_000..10_000).contains(&top), "rank 1 drew {top}");
    }

    #[test]
    fn streams_repeat_per_seed() {
        let a = Stream::new(&MIXED_WRITE, 11);
        let b = Stream::new(&MIXED_WRITE, 11);
        let c = Stream::new(&MIXED_WRITE, 12);
        let ops = |s: &Stream| (0..200).map(|i| s.op(i)).collect::<Vec<_>>();
        assert_eq!(ops(&a), ops(&b));
        assert_ne!(ops(&a), ops(&c));
        assert_eq!(a.arrivals(1e5, 1_000_000), b.arrivals(1e5, 1_000_000));
    }

    #[test]
    fn oracle_rejects_wrong_found_bits() {
        let s = Stream::new(&POINT_READ, 1);
        let hit = |found| Reply::Hit {
            found,
            shard: 1,
            position: 5,
        };
        assert!(s.check(&Op::Get(10), &hit(true)).is_ok());
        assert!(s.check(&Op::Get(10), &hit(false)).is_err());
        assert!(s.check(&Op::Get(11), &hit(true)).is_err());
        assert!(s.check(&Op::Get(11), &hit(false)).is_ok());
        let m = Stream::new(&MIXED_WRITE, 1);
        assert!(m.check(&Op::Get(11), &hit(true)).is_ok());
        let range = |keys: Vec<u64>| Reply::Keys {
            truncated: false,
            keys,
        };
        let op = Op::Range { lo: 4, hi: 10 };
        assert!(m.check(&op, &range(vec![4, 5, 6, 8, 10])).is_ok());
        assert!(m.check(&op, &range(vec![4, 6, 10])).is_err());
        assert!(m.check(&op, &range(vec![4, 6, 8, 10, 12])).is_err());
    }
}
