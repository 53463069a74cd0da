//! Log-bucketed latency histograms.
//!
//! An HDR-style histogram with 64 fixed power-of-two buckets: bucket
//! `i` counts samples whose highest set bit is `i` (so bucket 0 holds
//! 0 and 1 ns, bucket 10 holds 1024–2047 ns, and so on up to bucket 63).
//! Recording is a handful of relaxed atomic adds, cheap enough to leave
//! on in hot paths; snapshots are plain values that merge and answer
//! percentile queries.
//!
//! Percentile math: `percentile(p)` returns the *upper bound* of the
//! bucket containing the sample at rank `ceil(p/100 · count)`, clamped
//! to the exact observed maximum. With power-of-two buckets this bounds
//! the true value to within 2×, which is what a log histogram promises.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets (one per possible highest-set-bit of a `u64`).
pub const HIST_BUCKETS: usize = 64;

/// Returns the bucket index for a sample value.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        63 - value.leading_zeros() as usize
    }
}

/// The inclusive upper bound of values falling in bucket `i`.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// A thread-safe, lock-free latency histogram with 64 log₂ buckets.
///
/// A sample costs two relaxed adds (its bucket, the sum) and a load of
/// the maximum, raised only by a larger sample; the count is the
/// buckets' total, summed by [`snapshot`](Self::snapshot).
///
/// # Example
///
/// ```
/// use ld_disk::LatencyHistogram;
///
/// let h = LatencyHistogram::new();
/// for v in [100, 200, 400, 800] {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 4);
/// assert_eq!(snap.max, 800);
/// assert!(snap.percentile(50.0) >= 200);
/// ```
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample (typically nanoseconds of latency).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Captures the current contents as a plain value.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Resets every bucket and summary counter to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A plain-value copy of a [`LatencyHistogram`], mergeable and
/// queryable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts; bucket `i` covers values whose highest
    /// set bit is `i`.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all sample values.
    pub sum: u64,
    /// Exact maximum sample observed (0 if empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value (0 if empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Folds another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The value at percentile `p` (0 < p ≤ 100): the upper bound of the
    /// bucket holding the sample at rank `ceil(p/100 · count)`, clamped
    /// to the observed maximum. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`HistogramSnapshot::percentile`]).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(9), 1023);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
    }

    #[test]
    fn record_and_percentiles() {
        let h = LatencyHistogram::new();
        // 90 fast samples, 9 medium, 1 slow.
        for _ in 0..90 {
            h.record(100); // bucket 6 (64..=127)
        }
        for _ in 0..9 {
            h.record(10_000); // bucket 13
        }
        h.record(1_000_000); // bucket 19
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.p50(), 127);
        assert_eq!(s.p90(), 127);
        assert_eq!(s.percentile(91.0), 16383);
        assert_eq!(s.p99(), 16383);
        assert_eq!(s.percentile(100.0), 1_000_000);
    }

    #[test]
    fn percentile_clamps_to_max() {
        let h = LatencyHistogram::new();
        h.record(5); // bucket 2, upper bound 7
        let s = h.snapshot();
        assert_eq!(s.p50(), 5);
        assert_eq!(s.p99(), 5);
    }

    #[test]
    fn merge_combines() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(10);
        a.record(20);
        b.record(40_000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 40_030);
        assert_eq!(m.max, 40_000);
        assert_eq!(m.percentile(100.0), 40_000);
    }

    #[test]
    fn empty_histogram() {
        let s = LatencyHistogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0);
    }

    #[test]
    fn concurrent_recording() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4000);
        assert_eq!(s.max, 3999);
    }

    #[test]
    fn reset_zeroes() {
        let h = LatencyHistogram::new();
        h.record(123);
        h.reset();
        assert!(h.snapshot().is_empty());
    }
}
