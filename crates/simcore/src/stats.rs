//! Incremental statistics.
//!
//! `RunningMean` is Eq. 4.1 of the thesis — the per-destination incremental
//! average latency — and averaging several of them gives the global average
//! latency of Eq. 4.2. `TimeSeries` produces the time-bucketed curves the
//! latency figures (4.12–4.18, 4.22, 4.28, …) plot. `Histogram` backs the
//! message-size analysis of §4.7.2.

use crate::time::Time;

/// Incremental mean: `L[x] = (l[x] + (x-1)·L[x-1]) / x` (thesis Eq. 4.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningMean {
    mean: f64,
    count: u64,
}

impl RunningMean {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one sample in.
    pub fn push(&mut self, sample: f64) {
        self.count += 1;
        self.mean += (sample - self.mean) / self.count as f64;
    }

    /// Current mean (zero when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Number of samples folded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Rebuild an accumulator from its stored state (cache replay).
    pub fn from_parts(mean: f64, count: u64) -> Self {
        Self { mean, count }
    }

    /// Merge another accumulator (exact weighted combination).
    pub fn merge(&mut self, other: &RunningMean) {
        if other.count == 0 {
            return;
        }
        let total = self.count + other.count;
        self.mean =
            (self.mean * self.count as f64 + other.mean * other.count as f64) / total as f64;
        self.count = total;
    }
}

/// Fixed-width time-bucketed series of means: the figures' latency curves.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bucket_ns: Time,
    buckets: Vec<RunningMean>,
}

impl TimeSeries {
    /// A series with `bucket_ns`-wide buckets.
    pub fn new(bucket_ns: Time) -> Self {
        assert!(bucket_ns > 0, "bucket width must be positive");
        Self {
            bucket_ns,
            buckets: Vec::new(),
        }
    }

    /// Fold `value` observed at time `at`.
    pub fn push(&mut self, at: Time, value: f64) {
        let idx = (at / self.bucket_ns) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, RunningMean::new());
        }
        self.buckets[idx].push(value);
    }

    /// Bucket width in nanoseconds.
    pub fn bucket_ns(&self) -> Time {
        self.bucket_ns
    }

    /// `(bucket_start_time, mean, count)` for every non-empty bucket.
    pub fn points(&self) -> impl Iterator<Item = (Time, f64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| b.count() > 0)
            .map(move |(i, b)| (i as Time * self.bucket_ns, b.mean(), b.count()))
    }

    /// Largest bucket mean (the "latency peak" the figures discuss).
    pub fn peak(&self) -> f64 {
        self.buckets.iter().map(|b| b.mean()).fold(0.0, f64::max)
    }

    /// Mean over all samples in the series.
    pub fn overall_mean(&self) -> f64 {
        let mut acc = RunningMean::new();
        for b in &self.buckets {
            acc.merge(b);
        }
        acc.mean()
    }

    /// Number of buckets allocated (including empty ones).
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True if no sample has been pushed.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|b| b.count() == 0)
    }

    /// Every bucket in order, including empty ones (serialization).
    pub fn buckets(&self) -> &[RunningMean] {
        &self.buckets
    }

    /// Rebuild a series from its stored buckets (cache replay).
    pub fn from_parts(bucket_ns: Time, buckets: Vec<RunningMean>) -> Self {
        assert!(bucket_ns > 0, "bucket width must be positive");
        Self { bucket_ns, buckets }
    }
}

/// Power-of-two bucketed histogram (message sizes, path lengths).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count `value` into bucket `floor(log2(value))` (`0` → bucket 0).
    pub fn push(&mut self, value: u64) {
        let idx = if value <= 1 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// `(bucket_lower_bound, count)` pairs for non-empty buckets.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (1u64 << i, c))
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_mean_matches_equation_4_1() {
        // Eq 4.1 applied by hand to [10, 20, 60]: L1=10, L2=15, L3=30.
        let mut m = RunningMean::new();
        m.push(10.0);
        assert_eq!(m.mean(), 10.0);
        m.push(20.0);
        assert_eq!(m.mean(), 15.0);
        m.push(60.0);
        assert_eq!(m.mean(), 30.0);
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = RunningMean::new();
        let mut b = RunningMean::new();
        let mut all = RunningMean::new();
        for i in 0..10 {
            a.push(i as f64);
            all.push(i as f64);
        }
        for i in 10..25 {
            b.push(i as f64 * 3.0);
            all.push(i as f64 * 3.0);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningMean::new();
        a.push(5.0);
        a.merge(&RunningMean::new());
        assert_eq!(a.mean(), 5.0);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn timeseries_buckets_by_time() {
        let mut s = TimeSeries::new(100);
        s.push(10, 1.0);
        s.push(50, 3.0);
        s.push(250, 10.0);
        let pts: Vec<_> = s.points().collect();
        assert_eq!(pts, vec![(0, 2.0, 2), (200, 10.0, 1)]);
        assert_eq!(s.peak(), 10.0);
        assert!((s.overall_mean() - 14.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn timeseries_empty() {
        let s = TimeSeries::new(10);
        assert!(s.is_empty());
        assert_eq!(s.peak(), 0.0);
        assert_eq!(s.overall_mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn timeseries_zero_bucket_panics() {
        let _ = TimeSeries::new(0);
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = Histogram::new();
        h.push(1);
        h.push(1024);
        h.push(1500);
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets, vec![(1, 1), (1024, 2)]);
        assert_eq!(h.total(), 3);
    }
}
