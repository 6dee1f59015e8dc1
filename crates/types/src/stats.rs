//! Lightweight statistics primitives used by every simulated component.
//!
//! The simulator aggregates everything through [`Counter`]s (monotonically
//! increasing event counts) and [`Histogram`]s (latency distributions).
//! They are intentionally plain `u64`-based structures: the simulator is
//! single-threaded per run and parallelism happens across runs.

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use silo_types::stats::Counter;
///
/// let mut hits = Counter::new();
/// hits.inc();
/// hits.add(2);
/// assert_eq!(hits.get(), 3);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Returns the current value.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Resets the counter to zero (used between the warmup and measurement
    /// phases of a sample).
    #[inline]
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Ratio helper that tolerates a zero denominator (returns 0.0).
#[inline]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A fixed-bucket histogram of cycle latencies.
///
/// Two bucketings are supported: [`Histogram::new`] builds linear buckets
/// of a fixed width plus one overflow bucket, and [`Histogram::log2`]
/// builds logarithmic (power-of-two) buckets covering the whole `u64`
/// range — the telemetry subsystem's default, since latencies span from a
/// handful of SRAM cycles to memory round trips. Tracks count, sum, and
/// max so means remain exact even when samples land in the overflow
/// bucket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Linear bucket width; unused (1) when `log2` is set.
    bucket_width: u64,
    /// Log2 bucketing: bucket 0 holds value 0, bucket `b` holds
    /// `[2^(b-1), 2^b)`.
    log2: bool,
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with `n_buckets` linear buckets of `bucket_width`
    /// plus an overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero or `n_buckets` is zero.
    pub fn new(bucket_width: u64, n_buckets: usize) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        assert!(n_buckets > 0, "need at least one bucket");
        Histogram {
            bucket_width,
            log2: false,
            buckets: vec![0; n_buckets + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Creates a log-bucketed histogram: bucket 0 holds the value 0 and
    /// bucket `b` holds `[2^(b-1), 2^b)`, so 65 buckets cover the whole
    /// `u64` range with constant relative resolution — no overflow bucket
    /// and no tuning.
    pub fn log2() -> Self {
        Histogram {
            bucket_width: 1,
            log2: true,
            buckets: vec![0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Bucket index of a value under the active bucketing (clamped to the
    /// last bucket for linear overflow). A power-of-two width shifts
    /// instead of dividing.
    #[inline]
    fn bucket_of(&self, value: u64) -> usize {
        let idx = if self.log2 {
            (u64::BITS - value.leading_zeros()) as usize
        } else if self.bucket_width.is_power_of_two() {
            (value >> self.bucket_width.trailing_zeros()) as usize
        } else {
            (value / self.bucket_width) as usize
        };
        idx.min(self.buckets.len() - 1)
    }

    /// Inclusive-lower / exclusive-upper value bounds of a bucket. The
    /// linear overflow bucket is bounded above by the observed maximum.
    fn bucket_bounds(&self, idx: usize) -> (u64, u64) {
        if self.log2 {
            if idx == 0 {
                (0, 1)
            } else {
                let lo = 1u64 << (idx - 1);
                let hi = if idx >= 64 { u64::MAX } else { 1u64 << idx };
                (lo, hi)
            }
        } else {
            let lo = idx as u64 * self.bucket_width;
            if idx == self.buckets.len() - 1 {
                (lo, self.max.max(lo).saturating_add(1))
            } else {
                (lo, lo + self.bucket_width)
            }
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = self.bucket_of(value);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all recorded samples.
    pub const fn sum(&self) -> u64 {
        self.sum
    }

    /// Raw per-bucket sample counts, in bucket-index order. Combined
    /// with [`Histogram::bucket_upper_bound`] this is enough to render
    /// the histogram in external formats (e.g. Prometheus cumulative
    /// `le` buckets).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Largest value a sample in bucket `idx` can take (inclusive).
    /// For log2 bucketing this is exact for integer samples: bucket `b`
    /// holds `[2^(b-1), 2^b)`, so its inclusive upper bound is
    /// `2^b - 1`.
    pub fn bucket_upper_bound(&self, idx: usize) -> u64 {
        self.bucket_bounds(idx).1.saturating_sub(1)
    }

    /// Mean of recorded samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        ratio(self.sum, self.count)
    }

    /// Largest recorded sample.
    pub const fn max(&self) -> u64 {
        self.max
    }

    /// Approximate percentile (0.0..=1.0), linearly interpolated within
    /// the bucket containing the target rank. Returning a point inside
    /// the bucket instead of its upper edge keeps tail estimates honest
    /// for wide high buckets (log2 buckets double in width), and the
    /// estimate never exceeds the observed maximum.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0,1]");
        if self.count == 0 {
            return 0.0;
        }
        let target = (p * self.count as f64).ceil().max(1.0);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            if (seen + b) as f64 >= target {
                let (lo, hi) = self.bucket_bounds(i);
                let within = (target - seen as f64) / b as f64;
                let est = lo as f64 + (hi - lo) as f64 * within;
                return est.min(self.max as f64);
            }
            seen += b;
        }
        self.max as f64
    }

    /// The pre-interpolation percentile: the upper edge of the bucket
    /// containing the target rank. Kept solely so the legacy
    /// `silo-bench/v1` `llc_latency` fields stay bit-identical across
    /// releases; new code should use [`Histogram::percentile`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile_upper_edge(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0,1]");
        if self.count == 0 {
            return 0;
        }
        let target = (p * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return if self.log2 {
                    self.bucket_bounds(i).1
                } else {
                    ((i as u64) + 1) * self.bucket_width
                };
            }
        }
        self.max
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.max = 0;
    }
}

/// Running mean/min/max accumulator for floating-point series
/// (e.g. per-sample UIPC values under SMARTS-style sampling).
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.sum_sq += v * v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Mean of observations, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population standard deviation, or 0.0 for fewer than two samples.
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        let var = (self.sum_sq - self.sum * self.sum / n) / n;
        var.max(0.0).sqrt()
    }

    /// Smallest observation (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(format!("{}", Counter::new()), "0");
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(ratio(5, 10), 0.5);
    }

    #[test]
    fn histogram_mean_and_max() {
        let mut h = Histogram::new(10, 10);
        for v in [5, 15, 25, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 261.25).abs() < 1e-9);
    }

    #[test]
    fn histogram_percentile_monotone() {
        let mut h = Histogram::new(1, 100);
        for v in 0..100 {
            h.record(v);
        }
        let p50 = h.percentile(0.5);
        let p90 = h.percentile(0.9);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        // Interpolated: the rank-50 sample is 49, and interpolation stays
        // within its unit bucket rather than jumping to the upper edge.
        assert!((45.0..=55.0).contains(&p50), "p50={p50}");
        assert!(p99 <= h.max() as f64);
    }

    #[test]
    fn histogram_percentile_interpolates_within_wide_buckets() {
        // 100 samples all equal to 1000 land in one wide bucket
        // ([960, 1024) at width 64). The old upper-edge percentile said
        // 1024 for every quantile; interpolation must not exceed the
        // observed maximum.
        let mut h = Histogram::new(64, 64);
        for _ in 0..100 {
            h.record(1000);
        }
        assert!(h.percentile(0.99) <= 1000.0);
        assert_eq!(h.percentile_upper_edge(0.99), 1024);
    }

    #[test]
    fn histogram_percentile_tracks_exact_sorted_within_a_bucket() {
        // Interpolated percentiles of a log2 histogram must stay within
        // one bucket of the exact sorted-order percentile.
        let mut h = Histogram::log2();
        let mut exact: Vec<u64> = (0..500u64).map(|i| (i * 37) % 700).collect();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        for p in [0.25, 0.5, 0.9, 0.95, 0.99] {
            let rank = ((p * exact.len() as f64).ceil() as usize).max(1) - 1;
            let truth = exact[rank] as f64;
            let est = h.percentile(p);
            // A log2 bucket spans [2^(b-1), 2^b), so its width never
            // exceeds the values it holds: the estimate can be off by at
            // most the true value itself (and the old upper-edge rule
            // could not promise even that for the overflow bucket).
            let tolerance = truth.max(1.0);
            assert!(
                (est - truth).abs() <= tolerance,
                "p{p}: estimate {est} vs exact {truth}"
            );
            assert!(est <= h.max() as f64);
        }
    }

    #[test]
    fn log2_histogram_buckets_by_bit_width() {
        let mut h = Histogram::log2();
        for v in [0, 1, 2, 3, 4, 1_000_000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), u64::MAX);
        // Every quantile stays within the recorded range.
        assert!(h.percentile(0.01) <= h.percentile(0.99));
    }

    #[test]
    fn linear_buckets_equal_division_for_every_width() {
        for width in 1..=64u64 {
            let n_buckets = 16;
            let mut h = Histogram::new(width, n_buckets);
            let mut expected = vec![0u64; n_buckets + 1];
            let values = (0..width * 20).chain([u64::MAX - 1, u64::MAX]);
            for v in values {
                h.record(v);
                expected[((v / width) as usize).min(n_buckets)] += 1;
            }
            assert_eq!(h.bucket_counts(), &expected[..], "width {width}");
        }
    }

    #[test]
    fn histogram_reset() {
        let mut h = Histogram::new(10, 4);
        h.record(3);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0.0);
        assert_eq!(h.percentile_upper_edge(0.5), 0);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn histogram_rejects_zero_width() {
        Histogram::new(0, 4);
    }

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.std_dev() - (1.25f64).sqrt()).abs() < 1e-9);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn summary_empty_is_zeroed() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }
}
