//! `compare` verdicts and the exact-count rule.

use psi_benchmark::compare::{compare, judge, Bound, Rules, Verdict};
use psi_benchmark::report::Record;

fn bound(lower_is_better: bool) -> Bound {
    Bound {
        name: "m".into(),
        lower_is_better,
        bound: 0.10,
    }
}

#[test]
fn verdicts_follow_the_bound_and_the_spread() {
    let base = [100.0, 101.0, 99.0, 100.5, 99.5];
    let shift = |k: f64| base.map(|x| x * k);
    let lower = bound(true);
    assert_eq!(judge(&base, &shift(1.05), &lower).1, Verdict::Within);
    assert_eq!(judge(&base, &shift(1.20), &lower).1, Verdict::Worse);
    assert_eq!(judge(&base, &shift(0.80), &lower).1, Verdict::Better);
    // For a higher-is-better metric the same shift reads the other way.
    assert_eq!(judge(&base, &shift(0.80), &bound(false)).1, Verdict::Worse);
    // A spread wider than the bound is unresolved, unless every run of
    // the candidate beats every run of the baseline.
    let wide = [60.0, 80.0, 100.0, 120.0, 140.0];
    assert_eq!(judge(&wide, &shift(1.0), &lower).1, Verdict::Unresolved);
    assert_eq!(judge(&wide, &[10.0, 11.0, 12.0], &lower).1, Verdict::Better);
}

fn record(workload: &str, seed: u64, trace: bool, metrics: &[(&str, f64)]) -> Record {
    Record {
        workload: workload.into(),
        seed,
        trace,
        correct: true,
        metrics: metrics
            .iter()
            .map(|(k, v)| ((*k).to_owned(), String::new(), Some(*v)))
            .collect(),
    }
}

#[test]
fn exact_counts_must_repeat_per_workload_and_seed() {
    let rules = Rules {
        bounds: vec![Bound {
            name: "ops_per_s".into(),
            lower_is_better: false,
            bound: 0.1,
        }],
        exact: vec!["machine.steps".into()],
    };
    let a = vec![
        record("w", 1, false, &[("ops_per_s", 100.0)]),
        record("w", 1, true, &[("machine.steps", 500.0)]),
        record("w", 2, true, &[("machine.steps", 700.0)]),
    ];
    let same = vec![
        record("w", 1, false, &[("ops_per_s", 101.0)]),
        record("w", 1, true, &[("machine.steps", 500.0)]),
        record("w", 2, true, &[("machine.steps", 700.0)]),
    ];
    let c = compare(&rules, &a, &same);
    assert!(c.passed(), "{c:?}");
    assert_eq!(c.rows[0].verdict, Verdict::Within);

    let mut moved = same.clone();
    moved[2] = record("w", 2, true, &[("machine.steps", 701.0)]);
    let c = compare(&rules, &a, &moved);
    assert!(!c.passed());
    assert_eq!(c.changed_counts.len(), 1);
    assert_eq!(c.changed_counts[0].1, 2);
}

#[test]
fn records_round_trip_through_their_line() {
    let r = record("serve", 3, true, &[("a", 1.5), ("b", 2e-7)]);
    assert_eq!(Record::parse(&r.to_line()).unwrap(), r);
    let rules = Rules::from_benchmark(
        r#"{"end_to_end": [{"name": "x", "unit": "s", "better": "lower", "bound": 0.25}],
            "per_layer": [{"name": "n", "unit": "count", "better": "lower"},
                          {"name": "t", "unit": "us", "better": "lower"}]}"#,
    )
    .unwrap();
    assert_eq!(
        rules.bounds,
        vec![Bound {
            name: "x".into(),
            lower_is_better: true,
            bound: 0.25
        }]
    );
    assert_eq!(rules.exact, vec!["n".to_owned()]);
}
