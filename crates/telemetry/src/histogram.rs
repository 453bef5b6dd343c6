//! Fixed log₂-bucket latency histogram over atomic counters.
//!
//! Values (nanoseconds by convention, but any `u64` works) land in one
//! of [`BUCKETS`] power-of-two buckets: bucket 0 holds exactly `{0}`,
//! bucket `i` (1 ≤ i < 63) holds `[2^(i-1), 2^i - 1]`, and the last
//! bucket holds everything from `2^62` up. Recording is wait-free — a
//! bucket increment plus count/sum/min/max updates, all relaxed RMW ops
//! on shared atomics, no lock, no allocation — so histograms can sit on
//! the exchange hot path.
//!
//! A writer that owns its state outright can keep a [`HistogramTally`]
//! instead — the same layout in plain integers — and publish it into a
//! shared histogram now and then.
//!
//! Readout goes through [`Histogram::snapshot`], which copies the bucket
//! array once; quantiles are then answered from the copy. A quantile
//! estimate is the upper edge of the bucket holding the true sample
//! (clamped to the observed max), so the estimate and the true quantile
//! always share a bucket — the readout error is bounded by one log₂
//! bucket width, which is the proptest-verified contract.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of log₂ buckets in every [`Histogram`].
pub const BUCKETS: usize = 64;

/// Bucket index for a value: 0 for 0, `ilog2(v) + 1` capped at the last
/// bucket otherwise.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (value.ilog2() as usize + 1).min(BUCKETS - 1)
    }
}

/// Inclusive upper edge of bucket `i`, or `None` for the last
/// (unbounded, rendered as `+Inf`) bucket.
pub fn bucket_upper_edge(i: usize) -> Option<u64> {
    if i + 1 >= BUCKETS {
        None
    } else {
        Some((1u64 << i) - 1) // 2^i - 1; bucket 0's edge is 0.
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// Starts at `u64::MAX` so the first `fetch_min` wins.
    min: AtomicU64,
    max: AtomicU64,
}

/// Cloneable handle to a shared histogram. See the module docs for the
/// bucket layout and concurrency contract.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            core: Arc::new(HistogramCore {
                buckets: [(); BUCKETS].map(|()| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Record one observation. Wait-free.
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` observations of the same value with one pass over the
    /// atomics. The instrumentation layer uses this to amortize clock
    /// reads: time a batch once, then record the mean per-item cost `n`
    /// times. No-op when `n == 0`.
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let c = &self.core;
        c.buckets[bucket_index(value)].fetch_add(n, Ordering::Relaxed);
        c.count.fetch_add(n, Ordering::Relaxed);
        c.sum.fetch_add(value.saturating_mul(n), Ordering::Relaxed);
        c.min.fetch_min(value, Ordering::Relaxed);
        c.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Copy the current contents. Concurrent recording keeps running;
    /// the copy is consistent enough for dashboards (each atomic is read
    /// once, relaxed).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.core;
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(c.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        let count = c.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets,
            count,
            sum: c.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                c.min.load(Ordering::Relaxed)
            },
            max: c.max.load(Ordering::Relaxed),
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }
}

/// Single-owner, non-atomic twin of [`Histogram`]: the same bucket
/// layout and aggregates in plain integers, for a writer that already
/// owns its state (say, under a lock it holds anyway) and wants a sample
/// to cost a few plain adds instead of five atomic read-modify-writes.
/// [`HistogramTally::publish`] folds the tally into a shared
/// [`Histogram`] and empties it; readers only ever see published
/// samples.
#[derive(Debug, Clone)]
pub struct HistogramTally {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    /// Starts at `u64::MAX`, like [`Histogram`]'s.
    min: u64,
    max: u64,
}

impl Default for HistogramTally {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramTally {
    /// An empty tally.
    pub fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` observations of the same value (see
    /// [`Histogram::record_n`]). No-op when `n == 0`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(value)] += n;
        self.count += n;
        self.sum = self.sum.wrapping_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// True when nothing was recorded since the last publish.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds every sample of this tally to `into` and empties the tally.
    /// Publishing is as wait-free as recording (one relaxed RMW per
    /// non-empty bucket plus the aggregates), so several owners may
    /// publish into one shared histogram concurrently. An empty tally
    /// touches nothing.
    pub fn publish(&mut self, into: &Histogram) {
        if self.is_empty() {
            return;
        }
        let c = &into.core;
        for (bucket, &n) in c.buckets.iter().zip(&self.buckets) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        c.count.fetch_add(self.count, Ordering::Relaxed);
        c.sum.fetch_add(self.sum, Ordering::Relaxed);
        c.min.fetch_min(self.min, Ordering::Relaxed);
        c.max.fetch_max(self.max, Ordering::Relaxed);
        *self = Self::new();
    }
}

/// Point-in-time copy of a [`Histogram`]: the bucket array plus running
/// aggregates, with quantile readout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Quantile estimate for `q` in `[0, 1]`: the upper edge of the
    /// bucket containing the `⌈q·count⌉`-th smallest observation,
    /// clamped to the observed max. Returns 0 for an empty histogram.
    /// The estimate always lies in the same bucket as the true
    /// quantile, so the error is bounded by that bucket's width.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(n);
            if cumulative >= rank {
                return match bucket_upper_edge(i) {
                    Some(edge) => edge.min(self.max),
                    None => self.max,
                };
            }
        }
        self.max
    }

    /// Median estimate (`quantile(0.50)`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_index_matches_the_documented_layout() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index((1 << 62) - 1), 62);
        assert_eq!(bucket_index(1 << 62), 63);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn bucket_edges_bound_their_members() {
        for i in 0..BUCKETS - 1 {
            let edge = bucket_upper_edge(i).unwrap();
            assert_eq!(bucket_index(edge), i, "edge of bucket {i} is a member");
            assert_eq!(bucket_index(edge + 1), i + 1, "edge + 1 spills over");
        }
        assert_eq!(bucket_upper_edge(BUCKETS - 1), None);
    }

    #[test]
    fn known_distribution_reads_back_exactly() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 100, 1_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum, 1_206);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 1_000);
        assert_eq!(snap.buckets[0], 1); // {0}
        assert_eq!(snap.buckets[1], 1); // {1}
        assert_eq!(snap.buckets[2], 2); // {2, 3}
        assert_eq!(snap.buckets[7], 2); // 100 twice
        assert_eq!(snap.buckets[10], 1); // 1000
                                         // p50: 4th smallest is 3, bucket 2, edge 3.
        assert_eq!(snap.p50(), 3);
        // p99: rank 7 is 1000, bucket 10, edge 1023 clamped to max 1000.
        assert_eq!(snap.p99(), 1_000);
    }

    #[test]
    fn record_n_equals_n_records() {
        let a = Histogram::new();
        let b = Histogram::new();
        for _ in 0..5 {
            a.record(300);
        }
        b.record_n(300, 5);
        b.record_n(7, 0); // no-op
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn empty_histogram_is_defined() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
        assert_eq!(snap.quantile(0.99), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    /// Satellite coverage: concurrent recording through a barrier race
    /// loses no samples — count, sum, and the bucket total all agree
    /// with the arithmetic total.
    #[test]
    fn barrier_race_loses_no_samples() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let h = Histogram::new();
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS as u64 {
                let h = h.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..PER_THREAD {
                        // Mix of values spanning several buckets, with a
                        // per-thread offset so min/max are exercised too.
                        h.record(t * 1_000 + (i % 17) * 100);
                    }
                });
            }
        });
        let snap = h.snapshot();
        let expected_count = THREADS as u64 * PER_THREAD;
        let expected_sum: u64 = (0..THREADS as u64)
            .flat_map(|t| (0..PER_THREAD).map(move |i| t * 1_000 + (i % 17) * 100))
            .sum();
        assert_eq!(snap.count, expected_count, "no sample lost from count");
        assert_eq!(snap.sum, expected_sum, "no sample lost from sum");
        assert_eq!(
            snap.buckets.iter().sum::<u64>(),
            expected_count,
            "no sample lost from the bucket array"
        );
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, (THREADS as u64 - 1) * 1_000 + 16 * 100);
    }

    #[test]
    fn published_tally_equals_direct_recording() {
        let samples = [0, 1, 3, 100, 100, 1_000, 77_777, u64::MAX / 2];
        let direct = Histogram::new();
        let shared = Histogram::new();
        let mut tally = HistogramTally::new();
        for &v in &samples {
            direct.record(v);
            tally.record(v);
        }
        direct.record_n(300, 16);
        tally.record_n(300, 16);
        tally.record_n(9, 0); // no-op
        tally.publish(&shared);
        assert!(tally.is_empty(), "publishing empties the tally");
        assert_eq!(shared.snapshot(), direct.snapshot());
        // A second round folds in on top of the first.
        direct.record(5);
        tally.record(5);
        tally.publish(&shared);
        assert_eq!(shared.snapshot(), direct.snapshot());
    }

    #[test]
    fn empty_tally_publishes_nothing() {
        let h = Histogram::new();
        HistogramTally::new().publish(&h);
        assert_eq!(h.snapshot(), Histogram::new().snapshot());
        h.record(42);
        let before = h.snapshot();
        HistogramTally::new().publish(&h);
        assert_eq!(
            h.snapshot(),
            before,
            "an empty tally moves no min, max or bucket"
        );
    }

    /// One shared histogram can serve two single-owner writers (two
    /// exchanges on one telemetry sink): concurrent publishes lose no
    /// sample.
    #[test]
    fn concurrent_publishes_lose_no_samples() {
        const ROUNDS: u64 = 2_000;
        let h = Histogram::new();
        let direct = Histogram::new();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let (h, direct, barrier) = (&h, &direct, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let mut tally = HistogramTally::new();
                    for i in 0..ROUNDS {
                        let v = t * 10_000 + (i % 13) * 250;
                        tally.record(v);
                        direct.record(v);
                        if i % 7 == 0 {
                            tally.publish(h);
                        }
                    }
                    tally.publish(h);
                });
            }
        });
        assert_eq!(h.snapshot(), direct.snapshot());
        assert_eq!(h.snapshot().count, 2 * ROUNDS);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Satellite coverage: for any sample set and quantile, the
        /// readout shares a bucket with the true (sorted-rank) quantile
        /// and never under-reports it — the bucket-edge error bound.
        #[test]
        fn quantile_readout_is_bounded_by_bucket_edges(
            samples in collection::vec(0u64..1_000_000_000, 1..200),
            q in 0.0f64..1.0,
        ) {
            let h = Histogram::new();
            for &v in &samples {
                h.record(v);
            }
            let snap = h.snapshot();
            let estimate = snap.quantile(q);

            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let rank = ((q * sorted.len() as f64).ceil() as usize)
                .clamp(1, sorted.len());
            let truth = sorted[rank - 1];

            prop_assert!(estimate >= truth, "estimate {estimate} under-reports true quantile {truth}");
            prop_assert_eq!(
                bucket_index(estimate),
                bucket_index(truth),
                "estimate and truth must share a log2 bucket"
            );
        }
    }
}
