//! The tail percentile and the quartile arithmetic.

use psi_benchmark::stats::{median, quartiles, spread, tail_percentile};

#[test]
fn p99_is_refused_below_a_thousand_samples() {
    let samples: Vec<u64> = (1..=2000).collect();
    for n in [0, 1, 10, 100, 500, 999] {
        assert_eq!(tail_percentile(&samples[..n], 99), None, "n = {n}");
    }
    // At n = 1000 exactly ten samples lie beyond the 99th percentile.
    let p99 = tail_percentile(&samples[..1000], 99).expect("n = 1000 suffices");
    assert_eq!(p99, 990);
    assert!(tail_percentile(&samples, 99).is_some());
}

#[test]
fn p90_needs_a_hundred_samples() {
    let samples: Vec<u64> = (1..=100).collect();
    assert_eq!(tail_percentile(&samples[..99], 90), None);
    assert!(tail_percentile(&samples, 90).is_some());
}

#[test]
fn a_failed_request_counts_as_infinitely_slow() {
    let mut samples = vec![1_000u64; 1000];
    for s in samples.iter_mut().take(20) {
        *s = u64::MAX;
    }
    assert!(tail_percentile(&samples, 99).expect("n = 1000") > 1_000_000_000_000);
}

#[test]
fn quartiles_follow_the_exclusive_method() {
    // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    assert_eq!(median(&v), 5.5);
    assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
}
