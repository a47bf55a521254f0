//! Mergeable fixed-footprint latency histograms.
//!
//! The classic result path materialises every `(sequence, delivery time)`
//! pair per node and computes latency statistics afterwards — exact, but
//! O(nodes × messages) memory. Scale-mode runs instead stream every
//! observed latency into a [`LatencyHistogram`] (the one embedded in each
//! node's [`crate::DeliveryLog`]): 64 logarithmic buckets of
//! microseconds, a count, a sum and a maximum. Histograms merge by bucket
//! addition, so per-node histograms fold into one run-wide distribution in
//! O(64) per node regardless of message count, and two runs of the same
//! schedule produce bit-identical histograms (bucketing is integer-exact;
//! no floats are involved until a quantile is read out).

use brisa_telemetry::{bucket_of, HIST_BUCKETS};

/// Number of logarithmic buckets, telemetry's: bucket `i > 0` covers
/// latencies in `[2^(i-1), 2^i)` microseconds; bucket 0 covers `[0, 1)`
/// (i.e. zero). 63 doublings of 1 µs exceed any representable simulated
/// latency, so the top bucket is a catch-all that cannot overflow in
/// practice.
pub const LATENCY_BUCKETS: usize = HIST_BUCKETS;

/// A fixed-size, mergeable histogram of latencies in microseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; LATENCY_BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency observation of `us` microseconds.
    pub fn record_us(&mut self, us: u64) {
        self.buckets[bucket_of(us)] += 1;
        self.count += 1;
        self.sum_us += us;
        self.max_us = self.max_us.max(us);
    }

    /// Adds every observation of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact arithmetic mean in milliseconds (the sum is kept exactly; only
    /// the bucket positions are approximate).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64 / 1000.0
        }
    }

    /// Largest recorded observation in milliseconds (exact).
    pub fn max_ms(&self) -> f64 {
        self.max_us as f64 / 1000.0
    }

    /// Approximate `q`-quantile (`0.0..=1.0`) in milliseconds: the upper
    /// edge of the bucket containing the `q`-th observation. The relative
    /// error is bounded by the bucket width (a factor of two).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                // Upper bucket edge: 2^i µs (bucket 0 holds exact zeros).
                let upper_us = if i == 0 { 0u64 } else { 1u64 << i };
                return (upper_us.min(self.max_us)) as f64 / 1000.0;
            }
        }
        self.max_ms()
    }

    /// The raw bucket counts (bucket `i > 0` covers `[2^(i-1), 2^i)` µs).
    pub fn buckets(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_count_mean_max() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        for us in [100, 200, 300, 1000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean_ms() - 0.4).abs() < 1e-9);
        assert!((h.max_ms() - 1.0).abs() < 1e-9);
        assert!(!h.is_empty());
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record_us(10);
        a.record_us(5000);
        b.record_us(10);
        b.record_us(70);
        let mut direct = LatencyHistogram::new();
        for us in [10, 5000, 10, 70] {
            direct.record_us(us);
        }
        a.merge(&b);
        assert_eq!(a, direct);
        assert_eq!(a.count(), 4);
    }

    #[test]
    fn quantiles_are_bucket_upper_edges() {
        let mut h = LatencyHistogram::new();
        // 100 observations of ~1 ms (bucket [512, 1024) µs → upper edge 1024).
        for _ in 0..100 {
            h.record_us(1000);
        }
        let p50 = h.quantile_ms(0.5);
        // Upper edge is min(2^i, max) = 1000 µs here.
        assert!((p50 - 1.0).abs() < 1e-9, "p50 = {p50}");
        assert_eq!(h.quantile_ms(0.0), h.quantile_ms(1.0));
        // Empty histogram is safe.
        assert_eq!(LatencyHistogram::new().quantile_ms(0.5), 0.0);
        assert_eq!(LatencyHistogram::new().mean_ms(), 0.0);
    }

    #[test]
    fn quantile_spans_buckets() {
        let mut h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record_us(100); // bucket upper edge 128
        }
        for _ in 0..10 {
            h.record_us(60_000); // bucket upper edge 65536
        }
        assert!((h.quantile_ms(0.5) - 0.128).abs() < 1e-9);
        assert!((h.quantile_ms(0.99) - 60.0).abs() < 1e-9, "capped at max");
    }

    #[test]
    fn determinism_same_inputs_same_histogram() {
        let build = || {
            let mut h = LatencyHistogram::new();
            for us in (0..1000).map(|i| i * 37 % 10_000) {
                h.record_us(us);
            }
            h
        };
        assert_eq!(build(), build());
    }
}
