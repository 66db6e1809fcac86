//! Log-scale histograms.
//!
//! A latency distribution on the check path spans four orders of
//! magnitude (a flow check is tens of nanoseconds, a cold 256-entry ACL
//! scan is microseconds), so linear buckets waste either resolution
//! or memory. The [`Histogram`] uses power-of-two buckets: bucket `b`
//! holds samples in `[2^(b-1), 2^b)`, which gives constant relative
//! error (~2x) at every scale in a fixed 40-slot array of relaxed
//! atomics — no allocation, no lock, ever. Samples are plain `u64`s; the
//! unit (nanoseconds, bytes) is part of the metric's name.
//!
//! The observed count is *defined* as the sum of the buckets rather than
//! kept in a separate (and separately-torn) counter, so a concurrent
//! reader's `count` is always consistent with its `buckets` and both are
//! monotone across successive snapshots.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bucket count: `2^39` ns ≈ 9 minutes, far beyond any sane check.
pub const BUCKETS: usize = 40;

/// Index of the bucket holding a sample of `value`.
#[inline]
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
}

/// A fixed-size power-of-two-bucket histogram of `u64` samples.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample: three relaxed read-modify-writes on lines
    /// every recording thread shares. The maximum and the sum are
    /// updated *before* the bucket, so a reader that observes the sample
    /// in a bucket also observes its contribution to both on every
    /// architecture that preserves single-location ordering.
    #[inline]
    pub fn record(&self, value: u64) {
        self.max.fetch_max(value, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Takes an immutable snapshot of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count)
            .field("mean", &snap.mean())
            .finish()
    }
}

/// An immutable view of one histogram's distribution.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Samples observed (always the sum of `buckets`).
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Power-of-two buckets: `buckets[b]` counts samples in
    /// `[2^(b-1), 2^b)`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket containing the `q`-quantile sample, `q`
    /// in `[0, 1]`. A log-scale histogram answers quantiles to within
    /// its ~2x bucket resolution, which is what capacity planning needs;
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if b == 0 { 0 } else { 1u64 << b };
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn snapshot_reflects_samples() {
        let hist = Histogram::new();
        hist.record(100);
        hist.record(300);
        hist.record(10_000);
        let snap = hist.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 100 + 300 + 10_000);
        assert_eq!(snap.max, 10_000);
        assert_eq!(snap.count, snap.buckets.iter().sum::<u64>());
        assert_eq!(snap.mean(), (100 + 300 + 10_000) / 3);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let hist = Histogram::new();
        for _ in 0..99 {
            hist.record(100); // bucket 7: [64, 128)
        }
        hist.record(100_000); // bucket 17
        let snap = hist.snapshot();
        assert_eq!(snap.quantile(0.5), 128);
        assert_eq!(snap.quantile(0.99), 128);
        assert_eq!(snap.quantile(1.0), 1 << 17);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.max, 0);
        assert_eq!(snap.mean(), 0);
        assert_eq!(snap.quantile(0.5), 0);
    }
}
