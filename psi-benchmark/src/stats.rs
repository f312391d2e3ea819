//! Order statistics shared by the workloads, the run summary and
//! `compare`.

use psi_tools::quantile::percentile;

/// The `pct`-th percentile of latency samples in nanoseconds, or
/// `None` when fewer than ten samples lie beyond it — a tail read
/// from fewer points is one outlier, not a percentile. A p99
/// therefore needs at least 1000 samples and a p90 at least 100.
/// A failed request is passed in as `u64::MAX`, so it counts as an
/// infinitely slow one.
///
/// ```
/// use psi_benchmark::stats::tail_percentile;
/// let samples: Vec<u64> = (1..=1000).collect();
/// assert!(tail_percentile(&samples, 99).is_some());
/// assert!(tail_percentile(&samples[..999], 99).is_none());
/// ```
pub fn tail_percentile(samples: &[u64], pct: u32) -> Option<u64> {
    assert!(pct < 100, "a tail percentile lies below 100");
    let beyond_times_100 = samples.len() as u64 * u64::from(100 - pct);
    (beyond_times_100 >= 10 * 100).then(|| percentile(samples, f64::from(pct) / 100.0))
}

/// Median of a non-empty sample (mean of the middle pair for an even
/// count), as Python's `statistics.median` computes it.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, by the method of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so
/// spreads printed here match the acceptance arithmetic exactly. A
/// single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    assert!(len > 0, "quartiles of an empty sample");
    if len == 1 {
        return (v[0], v[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// xorshift64* — the seeded generator behind every workload input
/// (program order, corpus seeds, arrival times).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; distinct seeds give distinct streams.
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}
