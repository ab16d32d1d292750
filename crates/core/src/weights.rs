//! Edge-weight models for the search-tree affinity graph (§II-A).
//!
//! In the affinity-graph model, a uniform random search traverses the edge
//! between levels `d − 1` and `d` with probability
//!
//! ```text
//! p_{d,h} = (2^{h−d} − 1) / (2^h − 1)            (Eq. 2, exact)
//! p_d     ≈ 2^{−d}                               (approximation)
//! ```
//!
//! The paper uses the geometric approximation for all analysis and
//! experiments; both models are provided so the difference can be
//! quantified. The third model, [`EdgeWeights::Observed`], drops the
//! uniform-search assumption entirely: an [`ObservedProfile`] carries
//! *measured* per-key access counts (sampled from live traffic by the
//! serving engine), and an edge's weight becomes the empirical
//! probability that a search crosses it — the mass of the access
//! distribution falling inside the child's subtree. This is what the
//! traffic-adaptive re-optimization loop feeds back into the weighted
//! layout optimizers, and [`encode_weight_profile`] /
//! [`parse_weight_profile`] give the profile a checksummed sidecar
//! encoding (`.cobw`) so a re-optimized shard file records the traffic
//! it was optimized for (byte spec: `docs/FORMAT.md`).

use crate::error::{Error, Result};
use std::sync::Arc;

/// Which edge-weight model to use when evaluating weighted measures.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum EdgeWeights {
    /// `w_d = 2^{−d}` — the paper's default (used for every figure).
    #[default]
    Approximate,
    /// `w_d = (2^{h−d} − 1)/(2^h − 1)` — the exact traversal probability
    /// of Eq. 2.
    Exact,
    /// `w_d = 1` — unweighted; turns `ν` measures into their `µ`
    /// counterparts.
    Unweighted,
    /// Empirical weights from a measured per-key access distribution.
    /// The per-depth weight is the *average* edge traversal probability
    /// at that depth; per-edge precision (what the optimizers want) is
    /// available through [`ObservedProfile::subtree_probability`].
    Observed(Arc<ObservedProfile>),
}

impl EdgeWeights {
    /// Wraps measured per-key access counts (indexed by in-order rank,
    /// `counts[r - 1]` = accesses of rank `r`) into the observed model.
    #[must_use]
    pub fn from_access_counts(counts: &[u64]) -> Self {
        EdgeWeights::Observed(Arc::new(ObservedProfile::from_access_counts(counts)))
    }

    /// The observed profile, when this is the observed model.
    #[must_use]
    pub fn observed(&self) -> Option<&Arc<ObservedProfile>> {
        match self {
            EdgeWeights::Observed(p) => Some(p),
            _ => None,
        }
    }

    /// Short lowercase tag for labels and provenance strings.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            EdgeWeights::Approximate => "approx",
            EdgeWeights::Exact => "exact",
            EdgeWeights::Unweighted => "unweighted",
            EdgeWeights::Observed(_) => "observed",
        }
    }

    /// Weight of one edge between levels `d − 1` and `d` in a tree of
    /// height `h` (`1 ≤ d ≤ h − 1`).
    ///
    /// For the observed model this is the *mean* edge weight at depth
    /// `d`: the probability mass reaching depth `d` divided by the
    /// `2^d` edges entering it. A profile built for a different height
    /// falls back to the exact uniform model — the caller mixed up
    /// shard profiles, and a well-defined (if unweighted) answer beats
    /// a panic deep inside a measure evaluation.
    #[inline]
    #[must_use]
    pub fn weight(&self, d: u32, h: u32) -> f64 {
        debug_assert!(d >= 1 && d < h);
        match self {
            EdgeWeights::Approximate => (-(f64::from(d))).exp2(),
            EdgeWeights::Exact => exact_weight(d, h),
            EdgeWeights::Unweighted => 1.0,
            EdgeWeights::Observed(p) => {
                if p.height() != h {
                    return exact_weight(d, h);
                }
                p.mean_edge_weight(d)
            }
        }
    }

    /// Total weight `W = Σ_{edges} w` over all `2^d` edges at each depth
    /// `d ∈ 1..h`.
    #[must_use]
    pub fn total(&self, h: u32) -> f64 {
        (1..h).map(|d| self.weight(d, h) * (1u64 << d) as f64).sum()
    }
}

fn exact_weight(d: u32, h: u32) -> f64 {
    let num = (1u64 << (h - d)) as f64 - 1.0;
    let den = if h >= 63 {
        (f64::from(h)).exp2() - 1.0
    } else {
        (1u64 << h) as f64 - 1.0
    };
    num / den
}

// ---------------------------------------------------------------------------
// Observed access profiles
// ---------------------------------------------------------------------------

/// A measured access distribution over the in-order ranks of one
/// complete tree: `counts[r - 1]` accesses of rank `r`, padded with
/// zeros up to the tree capacity `2^h − 1`. Integer-only so the
/// containing [`EdgeWeights`] keeps its derived `Eq`/`Hash`.
///
/// Subtree masses — the per-edge weights the optimizers consume — are
/// O(1) via prefix sums: in a complete tree the subtree under any BFS
/// node covers one contiguous in-order rank interval.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObservedProfile {
    height: u32,
    counts: Vec<u64>,
    /// `prefix[i]` = Σ counts[..i]; `prefix[n]` is the grand total.
    prefix: Vec<u64>,
}

impl ObservedProfile {
    /// Builds a profile from per-rank access counts, choosing the
    /// smallest height whose capacity holds them (zero-padded). An
    /// empty slice yields the degenerate height-1 profile (one rank,
    /// zero mass — treated as uniform everywhere).
    #[must_use]
    pub fn from_access_counts(counts: &[u64]) -> Self {
        let mut h = 1;
        while ((1u64 << h) - 1) < counts.len() as u64 {
            h += 1;
        }
        Self::with_height(counts, h)
    }

    /// Builds a profile for an explicit tree height; `counts` is
    /// truncated or zero-padded to the capacity `2^h − 1`.
    ///
    /// # Panics
    /// Panics if `h` is 0 or above the format ceiling
    /// ([`crate::format::MAX_FORMAT_HEIGHT`]), or if the counts sum
    /// past `u64`.
    #[must_use]
    pub fn with_height(counts: &[u64], h: u32) -> Self {
        assert!(
            (1..=crate::format::MAX_FORMAT_HEIGHT).contains(&h),
            "profile height {h} out of range"
        );
        let capacity = (1usize << h) - 1;
        let mut padded = vec![0u64; capacity];
        let take = counts.len().min(capacity);
        padded[..take].copy_from_slice(&counts[..take]);
        let mut prefix = Vec::with_capacity(capacity + 1);
        let mut acc = 0u64;
        prefix.push(0);
        for &c in &padded {
            acc = acc
                .checked_add(c)
                .expect("access counts overflow u64 total");
            prefix.push(acc);
        }
        ObservedProfile {
            height: h,
            counts: padded,
            prefix,
        }
    }

    /// Tree height the profile spans.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Capacity `2^h − 1` (length of the padded count vector).
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Never true (height ≥ 1 means at least one rank); present for
    /// the `len`/`is_empty` API pairing convention.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total observed accesses. Zero means "no signal": every
    /// probability query degrades to the uniform distribution.
    #[must_use]
    pub fn total(&self) -> u64 {
        *self.prefix.last().expect("prefix never empty")
    }

    /// Accesses recorded for in-order rank `r` (1-based).
    #[must_use]
    pub fn count(&self, rank: u64) -> u64 {
        self.counts[(rank - 1) as usize]
    }

    /// The raw padded counts, rank order.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Sum of counts over the inclusive 1-based rank interval.
    #[must_use]
    pub fn mass(&self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo >= 1 && lo <= hi && hi <= self.counts.len() as u64);
        self.prefix[hi as usize] - self.prefix[(lo - 1) as usize]
    }

    /// Empirical probability of the rank interval; uniform when the
    /// profile has no mass.
    #[must_use]
    pub fn probability(&self, lo: u64, hi: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            return (hi - lo + 1) as f64 / self.counts.len() as f64;
        }
        self.mass(lo, hi) as f64 / total as f64
    }

    /// The inclusive in-order rank interval covered by the subtree
    /// rooted at BFS `node` (1-based, `1 ≤ node < 2^h`).
    #[must_use]
    pub fn node_interval(&self, node: u64) -> (u64, u64) {
        node_rank_interval(node, self.height)
    }

    /// Empirical probability that a search descends into (or ends at)
    /// `node` — the weight of the edge from its parent in the observed
    /// affinity graph.
    #[must_use]
    pub fn subtree_probability(&self, node: u64) -> f64 {
        let (lo, hi) = self.node_interval(node);
        self.probability(lo, hi)
    }

    /// Mean edge weight at depth `d`: mass reaching depth `d` divided
    /// by the `2^d` edges entering it.
    #[must_use]
    pub fn mean_edge_weight(&self, d: u32) -> f64 {
        debug_assert!(d >= 1 && d < self.height);
        let total = self.total();
        if total == 0 {
            return exact_weight(d, self.height);
        }
        // Mass reaching depth d = 1 − Σ probabilities of the 2^d − 1
        // nodes strictly above it (each node's own rank, not its
        // subtree).
        let mut above = 0u64;
        for node in 1..(1u64 << d) {
            above += self.count(node_in_order_rank(node, self.height));
        }
        (1.0 - above as f64 / total as f64) / (1u64 << d) as f64
    }

    /// Total-variation distance in `[0, 1]` between this profile's
    /// access distribution and `other`'s. Profiles of different
    /// heights are compared over the larger capacity (missing ranks
    /// carry zero mass); a zero-mass profile is treated as uniform.
    #[must_use]
    pub fn divergence(&self, other: &ObservedProfile) -> f64 {
        let n = self.counts.len().max(other.counts.len());
        let p = |prof: &ObservedProfile, i: usize| -> f64 {
            if i >= prof.counts.len() {
                return 0.0;
            }
            let total = prof.total();
            if total == 0 {
                return 1.0 / prof.counts.len() as f64;
            }
            prof.counts[i] as f64 / total as f64
        };
        let mut tv = 0.0;
        for i in 0..n {
            tv += (p(self, i) - p(other, i)).abs();
        }
        (tv / 2.0).clamp(0.0, 1.0)
    }
}

/// Depth of BFS node `v` in a complete tree (root = 0).
///
/// # Panics
/// Panics (debug) on `v = 0` — BFS nodes are 1-based.
#[inline]
#[must_use]
pub fn node_depth(v: u64) -> u32 {
    debug_assert!(v >= 1);
    63 - v.leading_zeros()
}

/// In-order rank (1-based) of BFS node `v` in a complete tree of
/// height `h`: `(2j + 1) · 2^{h−1−d}` for the `j`-th node of depth `d`.
#[inline]
#[must_use]
pub fn node_in_order_rank(v: u64, h: u32) -> u64 {
    let d = node_depth(v);
    debug_assert!(d < h);
    let j = v - (1u64 << d);
    (2 * j + 1) << (h - 1 - d)
}

/// The inclusive in-order rank interval of the subtree under BFS node
/// `v` in a complete tree of height `h`.
#[inline]
#[must_use]
pub fn node_rank_interval(v: u64, h: u32) -> (u64, u64) {
    let rank = node_in_order_rank(v, h);
    let span = (1u64 << (h - 1 - node_depth(v))) - 1;
    (rank - span, rank + span)
}

/// Greedy hot-path packing with a cold-subtree escape hatch: starting
/// from the root, repeatedly place the frontier node with the heaviest
/// observed subtree at the next array position, so hot root-to-leaf
/// paths end up contiguous near the front of the array — a
/// linearithmic approximation of the weighted-edge-length optimum that
/// needs no optimizer machinery (the optimizer crate's `profile`
/// module refines it where tree size permits).
///
/// A frontier subtree whose access density falls *below the profile
/// average* is not worth scattering across the cold tail of the
/// array: its keys are touched too rarely to stay cached, so what
/// matters is how few blocks one cold descent touches — exactly the
/// uniform-traffic problem the paper solves. Such subtrees are
/// emitted contiguously in MINWEP (vEB) order instead, keeping
/// cache-oblivious locality for the cold mass while the hot working
/// set stays front-packed. Deterministic: ties break toward the
/// smaller BFS node, and the strict below-average test means a
/// uniform (or zero-mass) profile degrades to plain BFS order.
#[must_use]
pub fn hot_path_layout(profile: &ObservedProfile) -> crate::layout::Layout {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let h = profile.height();
    let n = (1u64 << h) - 1;
    let total = profile.total();
    let mut pos = vec![0u32; n as usize];
    // MINWEP sub-layouts memoized per subtree height.
    let mut veb: Vec<Option<crate::layout::Layout>> = vec![None; h as usize + 1];
    // Max-heap on (subtree mass, smaller-node-first).
    let mut frontier: BinaryHeap<(u64, Reverse<u64>)> = BinaryHeap::new();
    let mass = |v: u64| {
        let (lo, hi) = profile.node_interval(v);
        profile.mass(lo, hi)
    };
    frontier.push((mass(1), Reverse(1)));
    let mut next = 0u32;
    while let Some((m, Reverse(v))) = frontier.pop() {
        let k = h - node_depth(v);
        let size = (1u64 << k) - 1;
        // Density below the profile average (m / size < total / n,
        // cross-multiplied; u128 so the products cannot overflow).
        if u128::from(m) * u128::from(n) < u128::from(total) * u128::from(size) {
            let sub = veb[k as usize]
                .get_or_insert_with(|| crate::named::NamedLayout::MinWep.materialize(k));
            for u in 1..=size {
                let dl = node_depth(u);
                let g = (v << dl) + (u - (1u64 << dl));
                pos[(g - 1) as usize] = next + sub.position(u) as u32;
            }
            next += size as u32;
            continue;
        }
        pos[(v - 1) as usize] = next;
        next += 1;
        if k > 1 {
            frontier.push((mass(2 * v), Reverse(2 * v)));
            frontier.push((mass(2 * v + 1), Reverse(2 * v + 1)));
        }
    }
    crate::layout::Layout::from_positions(h, pos)
}

// ---------------------------------------------------------------------------
// Weight-profile sidecar (`.cobw`)
// ---------------------------------------------------------------------------

/// The four magic bytes every weight-profile sidecar starts with.
pub const WEIGHT_MAGIC: [u8; 4] = *b"COBW";

/// Sidecar format version [`encode_weight_profile`] writes.
pub const WEIGHT_VERSION: u16 = 1;

/// Fixed sidecar header size in bytes; the count array starts here.
pub const WEIGHT_HEADER_LEN: usize = 44;

/// Serializes an [`ObservedProfile`] into the `.cobw` sidecar bytes:
/// a fixed header (magic, version, endianness, height, total, rank
/// count) sealed with FNV-1a 64 content and header checksums (the
/// header checksum covers the content checksum, as in tree files),
/// followed by the padded per-rank counts as
/// `u64` little-endian. Byte spec in `docs/FORMAT.md`.
#[must_use]
pub fn encode_weight_profile(profile: &ObservedProfile) -> Vec<u8> {
    use crate::format::{fnv1a, fnv1a_init, ENDIAN_MARK};
    let n = profile.counts.len();
    let mut out = vec![0u8; WEIGHT_HEADER_LEN + n * 8];
    out[0..4].copy_from_slice(&WEIGHT_MAGIC);
    out[4..6].copy_from_slice(&WEIGHT_VERSION.to_le_bytes());
    out[6..8].copy_from_slice(&ENDIAN_MARK.to_le_bytes());
    out[8..12].copy_from_slice(&profile.height.to_le_bytes());
    out[12..20].copy_from_slice(&profile.total().to_le_bytes());
    out[20..28].copy_from_slice(&(n as u64).to_le_bytes());
    for (i, &c) in profile.counts.iter().enumerate() {
        let off = WEIGHT_HEADER_LEN + i * 8;
        out[off..off + 8].copy_from_slice(&c.to_le_bytes());
    }
    let content = fnv1a(fnv1a_init(), &out[WEIGHT_HEADER_LEN..]);
    out[28..36].copy_from_slice(&content.to_le_bytes());
    let header = fnv1a(fnv1a_init(), &out[..36]);
    out[36..44].copy_from_slice(&header.to_le_bytes());
    out
}

/// Parses and fully validates `.cobw` sidecar bytes back into an
/// [`ObservedProfile`]: magic, version, endianness, both checksums,
/// height/capacity agreement and the recorded total.
///
/// # Errors
/// [`Error::BadMagic`] / [`Error::Truncated`] /
/// [`Error::UnsupportedVersion`] / [`Error::ChecksumMismatch`] /
/// [`Error::Malformed`] — never a panic on untrusted bytes.
pub fn parse_weight_profile(bytes: &[u8]) -> Result<ObservedProfile> {
    use crate::format::{fnv1a, fnv1a_init, ENDIAN_MARK, MAX_FORMAT_HEIGHT};
    if bytes.len() >= 4 && bytes[0..4] != WEIGHT_MAGIC {
        return Err(Error::BadMagic {
            got: bytes[0..4].try_into().expect("length checked"),
        });
    }
    if bytes.len() < WEIGHT_HEADER_LEN {
        return Err(Error::Truncated {
            needed: WEIGHT_HEADER_LEN as u64,
            got: bytes.len() as u64,
        });
    }
    let le16 = |at: usize| u16::from_le_bytes(bytes[at..at + 2].try_into().expect("bounds"));
    let le32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("bounds"));
    let le64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("bounds"));
    let version = le16(4);
    if version == 0 || version > WEIGHT_VERSION {
        return Err(Error::UnsupportedVersion {
            got: version,
            supported: WEIGHT_VERSION,
        });
    }
    if le16(6) != ENDIAN_MARK {
        return Err(Error::Malformed {
            detail: "endianness marker mismatch in weight sidecar".into(),
        });
    }
    if fnv1a(fnv1a_init(), &bytes[..36]) != le64(36) {
        return Err(Error::ChecksumMismatch { region: "header" });
    }
    let height = le32(8);
    if height == 0 || height > MAX_FORMAT_HEIGHT {
        return Err(Error::HeightOutOfRange {
            height,
            min: 1,
            max: MAX_FORMAT_HEIGHT,
        });
    }
    let n = le64(20);
    if n != (1u64 << height) - 1 {
        return Err(Error::Malformed {
            detail: format!("weight sidecar rank count {n} != capacity of height {height}"),
        });
    }
    let needed = WEIGHT_HEADER_LEN as u64 + n * 8;
    if (bytes.len() as u64) < needed {
        return Err(Error::Truncated {
            needed,
            got: bytes.len() as u64,
        });
    }
    if bytes.len() as u64 != needed {
        return Err(Error::Malformed {
            detail: format!(
                "weight sidecar is {} bytes, rank count dictates {needed}",
                bytes.len()
            ),
        });
    }
    if fnv1a(fnv1a_init(), &bytes[WEIGHT_HEADER_LEN..]) != le64(28) {
        return Err(Error::ChecksumMismatch { region: "content" });
    }
    let counts: Vec<u64> = (0..n as usize)
        .map(|i| le64(WEIGHT_HEADER_LEN + i * 8))
        .collect();
    let profile = ObservedProfile::with_height(&counts, height);
    if profile.total() != le64(12) {
        return Err(Error::Malformed {
            detail: "weight sidecar total disagrees with its counts".into(),
        });
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approximate_weights_are_geometric() {
        let w = EdgeWeights::Approximate;
        assert!((w.weight(1, 10) - 0.5).abs() < 1e-12);
        assert!((w.weight(2, 10) - 0.25).abs() < 1e-12);
        assert!((w.weight(9, 10) - 2f64.powi(-9)).abs() < 1e-15);
    }

    #[test]
    fn approximate_total_is_h_minus_one() {
        // Σ_d 2^d · 2^{−d} = h − 1.
        for h in 2..=30 {
            assert!((EdgeWeights::Approximate.total(h) - f64::from(h - 1)).abs() < 1e-9);
        }
    }

    #[test]
    fn exact_weights_match_eq2() {
        // h = 3: p_{1,3} = (4−1)/7, p_{2,3} = (2−1)/7.
        let w = EdgeWeights::Exact;
        assert!((w.weight(1, 3) - 3.0 / 7.0).abs() < 1e-12);
        assert!((w.weight(2, 3) - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn exact_total_is_expected_path_length() {
        // Σ_d 2^d p_{d,h} = expected search-path edge count =
        // (Σ_i depth(node_i)) / n.
        let h = 8;
        let n = (1u64 << h) - 1;
        let expected: f64 = (1..=n)
            .map(|i| (63 - i.leading_zeros()) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((EdgeWeights::Exact.total(h) - expected).abs() < 1e-9);
    }

    #[test]
    fn exact_approaches_approximate_near_the_top() {
        let h = 24;
        for d in 1..=6 {
            let e = EdgeWeights::Exact.weight(d, h);
            let a = EdgeWeights::Approximate.weight(d, h);
            assert!((e - a).abs() / a < 1e-4, "d={d}");
        }
    }

    #[test]
    fn rank_geometry_matches_the_tree_model() {
        use crate::tree::Tree;
        for h in 1..=6u32 {
            let tree = Tree::new(h);
            for v in tree.nodes() {
                assert_eq!(node_depth(v), tree.depth(v), "h={h} v={v}");
                assert_eq!(
                    node_in_order_rank(v, h),
                    tree.in_order_rank(v),
                    "h={h} v={v}"
                );
            }
        }
        // Subtree intervals: root covers everything, leaves cover
        // exactly their own rank.
        assert_eq!(node_rank_interval(1, 4), (1, 15));
        assert_eq!(node_rank_interval(2, 4), (1, 7));
        assert_eq!(node_rank_interval(3, 4), (9, 15));
        for leaf in 8..16u64 {
            let r = node_in_order_rank(leaf, 4);
            assert_eq!(node_rank_interval(leaf, 4), (r, r));
        }
    }

    #[test]
    fn from_access_counts_pads_to_the_next_capacity() {
        let p = ObservedProfile::from_access_counts(&[5, 0, 3, 1]);
        assert_eq!(p.height(), 3); // 4 counts need capacity 7
        assert_eq!(p.len(), 7);
        assert_eq!(p.total(), 9);
        assert_eq!(p.count(1), 5);
        assert_eq!(p.count(5), 0); // padding
        assert_eq!(p.mass(1, 3), 8);
        assert!((p.probability(1, 3) - 8.0 / 9.0).abs() < 1e-12);
        // Empty input: degenerate uniform profile.
        let empty = ObservedProfile::from_access_counts(&[]);
        assert_eq!(empty.height(), 1);
        assert_eq!(empty.total(), 0);
        assert!((empty.probability(1, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn subtree_probability_is_the_interval_mass() {
        // h = 3, counts by rank 1..=7.
        let p = ObservedProfile::with_height(&[1, 2, 3, 4, 5, 6, 7], 3);
        assert_eq!(p.total(), 28);
        // Node 2's subtree = ranks 1..=3 (mass 6), node 3's = 5..=7
        // (mass 18), root = everything.
        assert!((p.subtree_probability(1) - 1.0).abs() < 1e-12);
        assert!((p.subtree_probability(2) - 6.0 / 28.0).abs() < 1e-12);
        assert!((p.subtree_probability(3) - 18.0 / 28.0).abs() < 1e-12);
        // Leaf node 7 = rank 7 alone.
        assert!((p.subtree_probability(7) - 7.0 / 28.0).abs() < 1e-12);
    }

    #[test]
    fn observed_weight_reduces_to_exact_under_uniform_traffic() {
        // A flat profile is exactly the paper's uniform-search model:
        // the observed mean edge weight at each depth must match Eq. 2.
        let h = 6;
        let counts = vec![10u64; (1 << h) - 1];
        let w = EdgeWeights::Observed(Arc::new(ObservedProfile::with_height(&counts, h)));
        for d in 1..h {
            let o = w.weight(d, h);
            let e = EdgeWeights::Exact.weight(d, h);
            assert!((o - e).abs() < 1e-12, "d={d}: {o} vs {e}");
        }
        // And a zero-mass profile degrades to the same uniform model.
        let empty = EdgeWeights::Observed(Arc::new(ObservedProfile::with_height(&[], h)));
        for d in 1..h {
            assert!((empty.weight(d, h) - EdgeWeights::Exact.weight(d, h)).abs() < 1e-12);
        }
    }

    #[test]
    fn observed_weight_tracks_skew() {
        // All traffic on rank 1 (leftmost leaf): every edge on its
        // root-to-leaf path has weight 1, all others 0 — so the mean
        // edge weight at depth d is exactly 2^{−d}.
        let h = 5;
        let mut counts = vec![0u64; (1 << h) - 1];
        counts[0] = 1_000;
        let p = ObservedProfile::with_height(&counts, h);
        for d in 1..h {
            let mean = p.mean_edge_weight(d);
            assert!((mean - (-(f64::from(d))).exp2()).abs() < 1e-12, "d={d}");
        }
        // Per-edge: the leftmost spine carries all the mass.
        assert!((p.subtree_probability(2) - 1.0).abs() < 1e-12);
        assert!(p.subtree_probability(3) < 1e-12);
    }

    #[test]
    fn divergence_is_a_metric_like_distance() {
        let a = ObservedProfile::with_height(&[10, 0, 0], 2);
        let b = ObservedProfile::with_height(&[0, 0, 10], 2);
        let c = ObservedProfile::with_height(&[10, 0, 0], 2);
        assert!((a.divergence(&b) - 1.0).abs() < 1e-12, "disjoint = 1");
        assert!(a.divergence(&c) < 1e-12, "identical = 0");
        assert!((a.divergence(&b) - b.divergence(&a)).abs() < 1e-12);
        // A zero-mass profile compares as uniform.
        let empty = ObservedProfile::with_height(&[], 2);
        let uniform = ObservedProfile::with_height(&[7, 7, 7], 2);
        assert!(empty.divergence(&uniform) < 1e-12);
        // Mild skew diverges less than total skew.
        let mild = ObservedProfile::with_height(&[6, 2, 2], 2);
        assert!(uniform.divergence(&mild) < uniform.divergence(&a));
    }

    #[test]
    fn weight_sidecar_round_trips() {
        let p = ObservedProfile::with_height(&[3, 1, 4, 1, 5, 9, 2], 3);
        let bytes = encode_weight_profile(&p);
        let back = parse_weight_profile(&bytes).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.total(), 25);
    }

    #[test]
    fn weight_sidecar_rejects_corruption_typed() {
        let p = ObservedProfile::with_height(&[3, 1, 4, 1, 5], 3);
        let good = encode_weight_profile(&p);

        // Every truncation is typed.
        for len in 0..good.len() {
            let err = parse_weight_profile(&good[..len]).expect_err("truncated");
            assert!(
                matches!(
                    err,
                    Error::Truncated { .. } | Error::ChecksumMismatch { .. }
                ),
                "prefix {len}: {err:?}"
            );
        }

        // Foreign magic.
        let mut f = good.clone();
        f[0..4].copy_from_slice(b"NOPE");
        assert!(matches!(
            parse_weight_profile(&f).unwrap_err(),
            Error::BadMagic { .. }
        ));

        // Future version.
        let mut f = good.clone();
        f[4..6].copy_from_slice(&9u16.to_le_bytes());
        // Header hash no longer matches; reseal it to reach the
        // version check.
        let header = crate::format::fnv1a(crate::format::fnv1a_init(), &f[..36]);
        f[36..44].copy_from_slice(&header.to_le_bytes());
        assert!(matches!(
            parse_weight_profile(&f).unwrap_err(),
            Error::UnsupportedVersion { .. }
        ));

        // A flipped count bit fails the content checksum.
        let mut f = good.clone();
        *f.last_mut().unwrap() ^= 1;
        assert!(matches!(
            parse_weight_profile(&f).unwrap_err(),
            Error::ChecksumMismatch { region: "content" }
        ));

        // A lying total fails after the counts parse.
        let mut f = good.clone();
        f[12..20].copy_from_slice(&999u64.to_le_bytes());
        let header = crate::format::fnv1a(crate::format::fnv1a_init(), &f[..36]);
        f[36..44].copy_from_slice(&header.to_le_bytes());
        assert!(matches!(
            parse_weight_profile(&f).unwrap_err(),
            Error::Malformed { .. }
        ));
    }

    #[test]
    fn edge_weights_equality_and_hash_cover_observed() {
        use std::collections::HashSet;
        let a = EdgeWeights::from_access_counts(&[1, 2, 3]);
        let b = EdgeWeights::from_access_counts(&[1, 2, 3]);
        let c = EdgeWeights::from_access_counts(&[3, 2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a.clone());
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
        assert_eq!(a.tag(), "observed");
        assert_eq!(EdgeWeights::Approximate.tag(), "approx");
        assert!(a.observed().is_some());
        assert!(EdgeWeights::Exact.observed().is_none());
    }
}
