//! Wall-clock measurement helpers.
//!
//! The paper reports "the median time of 15 runs", each searching up to
//! 10 million random keys (§IV-F). [`median_time`] reproduces that
//! estimator with configurable repeats, returning nanoseconds per
//! operation.

use std::hint::black_box;
use std::time::Instant;

/// Runs `kernel` `repeats` times and returns the median duration in
/// nanoseconds, divided by `ops_per_run`. The kernel's `u64` result is
/// consumed with [`black_box`] so the optimizer cannot elide the work.
pub fn median_time(repeats: usize, ops_per_run: u64, mut kernel: impl FnMut() -> u64) -> f64 {
    assert!(repeats >= 1 && ops_per_run >= 1);
    let mut samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            black_box(kernel());
            start.elapsed().as_nanos() as f64 / ops_per_run as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_positive_and_stable_order() {
        // black_box every element, not just the bound: with an opaque
        // bound alone, release builds still turn the range sum into its
        // closed form `n(n − 1)/2`, both kernels cost the same few ns,
        // and the ordering is scheduler noise. An opaque value per
        // element keeps one add per element in either kernel.
        let slow = median_time(3, 100, || (0..black_box(400_000u64)).map(black_box).sum());
        let fast = median_time(3, 100, || (0..black_box(1_000u64)).map(black_box).sum());
        assert!(slow > 0.0 && fast > 0.0);
        assert!(slow >= fast, "slow {slow} vs fast {fast}");
    }
}
