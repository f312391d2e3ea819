//! Latency/wall-time percentile estimation for the benchmark
//! (`psi-benchmark`'s workload timings).
//!
//! One shared, documented estimator instead of ad-hoc helpers in each
//! binary. The original `load-driver` implementation used
//! nearest-rank with `round()`, which has two defects this module
//! fixes:
//!
//! * **p99 collapsed onto the maximum for every n < 100**: with
//!   `rank = round((n−1)·0.99)`, any sample count below 100 rounds to
//!   `n−1`, so the reported "p99" was just the worst outlier. A quick
//!   run with 50 queries per row reported max as p99, overstating
//!   tail latency by whatever one cold load or scheduler hiccup cost.
//! * **It sorted the caller's buffer in place**, silently reordering
//!   `RowStats::latencies_ns` as a side effect of rendering a report.

/// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) of `samples` in nanoseconds,
/// by linear interpolation between closest ranks.
///
/// The estimator is the standard "type 7" definition (the default in
/// NumPy and R): on the sorted samples, the quantile sits at
/// fractional position `h = q·(n−1)` and interpolates between
/// `sorted[⌊h⌋]` and `sorted[⌈h⌉]`. Unlike nearest-rank it is exact
/// at `q = 0`/`q = 1`, monotone in `q`, and does not degenerate to
/// the maximum for small `n` — `percentile(&s, 0.99)` with `n = 50`
/// interpolates 49/100 of the way from the second-largest sample to
/// the largest rather than reporting the largest outright.
///
/// The input need not be sorted and is not modified; an empty slice
/// yields 0. Interpolation is computed in `f64` and rounded, which is
/// exact for latencies up to 2⁵³ ns (≈ 104 days).
///
/// ```
/// use psi_tools::quantile::percentile;
/// let samples = [40, 10, 30, 20];
/// assert_eq!(percentile(&samples, 0.0), 10);
/// assert_eq!(percentile(&samples, 0.5), 25); // between 20 and 30
/// assert_eq!(percentile(&samples, 1.0), 40);
/// ```
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let q = q.clamp(0.0, 1.0);
    let h = q * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let frac = h - lo as f64;
    let (a, b) = (sorted[lo] as f64, sorted[hi] as f64);
    (a + (b - a) * frac).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n1_every_quantile_is_the_sample() {
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[7], q), 7, "q={q}");
        }
    }

    #[test]
    fn n2_interpolates_between_the_pair() {
        let s = [100, 200];
        assert_eq!(percentile(&s, 0.0), 100);
        assert_eq!(percentile(&s, 0.5), 150);
        assert_eq!(percentile(&s, 0.99), 199);
        assert_eq!(percentile(&s, 1.0), 200);
    }

    /// The regression this module exists for: at n = 50 the old
    /// nearest-rank estimator reported p99 == max.
    #[test]
    fn n50_p99_is_not_the_maximum() {
        // 49 well-behaved samples and one huge outlier.
        let mut s: Vec<u64> = (1..=49).map(|i| i * 1_000).collect();
        s.push(10_000_000);
        let p99 = percentile(&s, 0.99);
        assert!(p99 < 10_000_000, "p99 {p99} must not collapse onto max");
        assert!(p99 > 49_000, "p99 {p99} must exceed the bulk");
        // h = 0.99·49 = 48.51 → ~51% of the way from s[48] to s[49].
        let expected = 49_000.0 + (10_000_000.0 - 49_000.0) * 0.51;
        assert!(
            (p99 as f64 - expected).abs() < 2.0,
            "p99 {p99} should interpolate near {expected}"
        );
    }

    #[test]
    fn n100_and_n101_hit_exact_and_interpolated_ranks() {
        let s100: Vec<u64> = (1..=100).collect();
        // h = 0.99·99 = 98.01 → barely above sorted[98] = 99.
        assert_eq!(percentile(&s100, 0.99), 99);
        assert_eq!(percentile(&s100, 0.5), 51); // h = 49.5 → 50.5 → rounds half-up
        let s101: Vec<u64> = (1..=101).collect();
        // h = 0.99·100 = 99 exactly → sorted[99] = 100, no interpolation.
        assert_eq!(percentile(&s101, 0.99), 100);
        assert_eq!(percentile(&s101, 0.5), 51); // h = 50 exactly
    }

    #[test]
    fn input_is_left_untouched_and_unsorted() {
        let s = vec![5, 1, 4, 2, 3];
        let _ = percentile(&s, 0.9);
        assert_eq!(s, vec![5, 1, 4, 2, 3]);
    }

    #[test]
    fn empty_is_zero_and_q_is_clamped() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[3, 9], -1.0), 3);
        assert_eq!(percentile(&[3, 9], 2.0), 9);
    }

    #[test]
    fn monotone_in_q() {
        let s: Vec<u64> = (0..57).map(|i| (i * 7919) % 1000).collect();
        let mut prev = 0;
        for i in 0..=100 {
            let v = percentile(&s, i as f64 / 100.0);
            assert!(v >= prev, "q={} went backwards", i);
            prev = v;
        }
    }
}
