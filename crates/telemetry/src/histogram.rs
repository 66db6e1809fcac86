//! Log-scale latency histograms.
//!
//! A latency distribution on the check path spans four orders of
//! magnitude (a flow check is tens of nanoseconds, a cold 256-entry ACL
//! scan is microseconds), so linear buckets waste either resolution
//! or memory. The [`LatencyHistogram`] uses power-of-two buckets over
//! nanoseconds: bucket `b` holds samples in `[2^(b-1), 2^b)` ns, which
//! gives constant relative error (~2x) at every scale in a fixed 40-slot
//! array of relaxed atomics — no allocation, no lock, ever.
//!
//! The observed count is *defined* as the sum of the buckets rather than
//! kept in a separate (and separately-torn) counter, so a concurrent
//! reader's `count` is always consistent with its `buckets` and both are
//! monotone across successive snapshots.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Bucket count: `2^39` ns ≈ 9 minutes, far beyond any sane check.
pub const BUCKETS: usize = 40;

/// Index of the bucket holding a sample of `ns` nanoseconds.
#[inline]
fn bucket_of(ns: u64) -> usize {
    (64 - ns.leading_zeros() as usize).min(BUCKETS - 1)
}

/// A fixed-size power-of-two-bucket histogram of durations.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one sample. Relaxed atomics only; the min/max and total
    /// are updated *before* the bucket, so a reader that observes the
    /// sample in a bucket also observes its contribution to the extremes
    /// on every architecture that preserves single-location ordering.
    #[inline]
    pub fn record(&self, duration: Duration) {
        let ns = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Takes an immutable snapshot of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        let min_ns = self.min_ns.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            total_ns: self.total_ns.load(Ordering::Relaxed),
            min_ns: if count == 0 { 0 } else { min_ns },
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("LatencyHistogram")
            .field("count", &snap.count)
            .field("mean_ns", &snap.mean_ns())
            .finish()
    }
}

/// An immutable view of one histogram's distribution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples observed (always the sum of `buckets`).
    pub count: u64,
    /// Sum of all sample durations, in nanoseconds.
    pub total_ns: u64,
    /// Smallest sample (0 when empty).
    pub min_ns: u64,
    /// Largest sample.
    pub max_ns: u64,
    /// Power-of-two buckets: `buckets[b]` counts samples in
    /// `[2^(b-1), 2^b)` ns.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound (in ns) of the bucket containing the `q`-quantile
    /// sample, `q` in `[0, 1]`. A log-scale histogram answers quantiles
    /// to within its ~2x bucket resolution, which is what capacity
    /// planning needs; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
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
        self.max_ns
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
        let hist = LatencyHistogram::new();
        hist.record(Duration::from_nanos(100));
        hist.record(Duration::from_nanos(300));
        hist.record(Duration::from_micros(10));
        let snap = hist.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.total_ns, 100 + 300 + 10_000);
        assert_eq!(snap.min_ns, 100);
        assert_eq!(snap.max_ns, 10_000);
        assert_eq!(snap.count, snap.buckets.iter().sum::<u64>());
        assert_eq!(snap.mean_ns(), (100 + 300 + 10_000) / 3);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let hist = LatencyHistogram::new();
        for _ in 0..99 {
            hist.record(Duration::from_nanos(100)); // bucket 7: [64, 128)
        }
        hist.record(Duration::from_micros(100)); // bucket 17
        let snap = hist.snapshot();
        assert_eq!(snap.quantile_ns(0.5), 128);
        assert_eq!(snap.quantile_ns(0.99), 128);
        assert_eq!(snap.quantile_ns(1.0), 1 << 17);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let snap = LatencyHistogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min_ns, 0);
        assert_eq!(snap.max_ns, 0);
        assert_eq!(snap.mean_ns(), 0);
        assert_eq!(snap.quantile_ns(0.5), 0);
    }
}
