//! Order statistics over small samples, and the few number helpers the
//! report needs. Everything here is pure, so it is unit-tested in place.

/// Sorts a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    v
}

/// Median of `values`; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive" method),
/// so the spread printed here is the spread the driver computes. A sample
/// of fewer than two values has no quartiles; both collapse to the value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median: the spread figure used
/// for every host-time value in this benchmark.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Median with its quartiles, for printing beside a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }
}

/// The highest percentile of the usual ladder that still has at least ten
/// samples beyond it in a sample of `n` — the only tail a sample of that
/// size supports. `None` below 20 samples (not even a median qualifies).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| (n as f64) * (100.0 - p) / 100.0 >= 10.0)
}

/// `q`-quantile (0–1) in milliseconds of a log2-µs bucket histogram
/// (bucket 0 holds zeros, bucket `i > 0` covers `[2^(i-1), 2^i)` µs),
/// interpolated linearly inside the bucket that holds the rank. The
/// engine's own `quantile_ms` returns the bucket's upper edge, which reads
/// the same for every seed; this is an exact function of the exact bucket
/// counts and moves with them.
pub fn log2_hist_quantile_ms(buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (total as f64 * q.clamp(0.0, 1.0)).max(1.0);
    let mut seen = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        if b > 0 && (seen + b) as f64 >= rank {
            if i == 0 {
                return 0.0;
            }
            let lo = (1u64 << (i - 1)) as f64;
            let hi = (1u64 << i.min(62)) as f64;
            let inside = (rank - seen as f64) / b as f64;
            return (lo + (hi - lo) * inside) / 1000.0;
        }
        seen += b;
    }
    0.0
}

/// Entries of a log2-µs histogram that may lie past `limit_us`: every
/// bucket whose upper edge exceeds the limit counts whole, so the limit
/// resolves to the bucket edge at or below it (never above).
pub fn log2_hist_count_past(buckets: &[u64], limit_us: u64) -> u64 {
    buckets
        .iter()
        .enumerate()
        .filter(|(i, _)| *i > 0 && (1u64 << (*i).min(62)) > limit_us)
        .map(|(_, &b)| b)
        .sum()
}

/// Relative cost of tracing from one alternating sequence of repetitions:
/// each traced repetition's value over the mean of the plain repetitions
/// directly before and after it, minus one; the median over the traced
/// ones. Neighbours share the machine's mood, which two independent medians
/// do not.
pub fn paired_overhead(traced: &[bool], values: &[f64]) -> f64 {
    let plain_at = |i: Option<usize>| {
        i.filter(|&i| i < values.len() && !traced[i])
            .map(|i| values[i])
    };
    let ratios: Vec<f64> = (0..values.len())
        .filter(|&i| traced[i])
        .filter_map(|i| {
            let near: Vec<f64> = [plain_at(i.checked_sub(1)), plain_at(Some(i + 1))]
                .into_iter()
                .flatten()
                .collect();
            (!near.is_empty())
                .then(|| values[i] / (near.iter().sum::<f64>() / near.len() as f64) - 1.0)
        })
        .collect();
    median(&ratios)
}

/// 64-bit FNV-1a, for printing a multi-megabyte engine fingerprint as one
/// comparable word.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `num / den`, 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 11], n=4) == [4.0, 5.0, 9.0]
        assert_eq!(quartiles(&[11.0, 2.0, 4.0, 9.0, 4.0, 5.0, 7.0]), (4.0, 9.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
        let s = spread(&v);
        assert!((s - 1.0).abs() < 1e-12, "(8.25 - 2.75) / 5.5, got {s}");
        assert_eq!(Summary::of(&v).n, 10);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(31_500), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        // 100 samples in [1024, 2048) µs: the median sits mid-bucket.
        let mut b = [0u64; 64];
        b[11] = 100;
        assert!((log2_hist_quantile_ms(&b, 0.5) - 1.536).abs() < 1e-9);
        // A lower bucket shifts the rank, not the edges.
        b[10] = 100;
        assert!((log2_hist_quantile_ms(&b, 0.5) - 1.024).abs() < 1e-9);
        assert!((log2_hist_quantile_ms(&b, 0.75) - 1.536).abs() < 1e-9);
        assert_eq!(log2_hist_quantile_ms(&[0u64; 64], 0.5), 0.0);
    }

    #[test]
    fn histogram_limit_resolves_to_the_edge_below() {
        let mut b = [0u64; 64];
        b[15] = 7; // [16.384, 32.768) ms
        b[16] = 3; // [32.768, 65.536) ms: may hold a 51 ms delivery
        b[17] = 1;
        assert_eq!(log2_hist_count_past(&b, 50_000), 4);
        assert_eq!(log2_hist_count_past(&b, 32_768), 4);
        assert_eq!(log2_hist_count_past(&b, 32_767), 11);
    }

    #[test]
    fn tracing_overhead_is_taken_against_the_neighbouring_plain_repetitions() {
        // The machine slows down by half between the first and the last
        // repetition; tracing costs 10 % throughout.
        let traced = [false, true, false, true, false];
        let values = [1.0, 1.375, 1.5, 1.925, 2.0];
        assert!((paired_overhead(&traced, &values) - 0.1).abs() < 1e-12);
        // A traced repetition at the end has one neighbour.
        assert!((paired_overhead(&[false, true], &[2.0, 2.5]) - 0.25).abs() < 1e-12);
        assert_eq!(paired_overhead(&[false, false], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn fnv_is_the_reference_function() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
