//! `compare`: two sets of runs, judged by the bounds in
//! `BENCHMARK.json`.
//!
//! For every (workload, end-to-end metric) pair the verdict is
//! `better` or `worse` when the change of the median exceeds the
//! metric's bound, `within` otherwise — unless either side's
//! interquartile spread is wider than the bound, which makes it
//! `unresolved`, except when every run of one side reads better than
//! every run of the other. Per-layer counts must repeat exactly
//! between runs of the same workload and seed.

use crate::json::{self, Json};
use crate::report::Record;
use crate::stats::{median, spread};
use std::fmt;

/// A metric's regression rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Largest tolerated worsening, as a share of the baseline median.
    pub bound: f64,
}

/// The rules `compare` applies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rules {
    /// End-to-end metrics with bounds.
    pub bounds: Vec<Bound>,
    /// Per-layer metrics counted in unit `count`: exact.
    pub exact: Vec<String>,
}

impl Rules {
    /// Reads the rules from `BENCHMARK.json` text.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a metric entry without its keys.
    pub fn from_benchmark(text: &str) -> Result<Rules, String> {
        let v = json::parse(text)?;
        let mut rules = Rules::default();
        for m in v.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            rules.bounds.push(Bound {
                name: name.to_owned(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or(format!("{name}: no bound"))?,
            });
        }
        for m in v.get("per_layer").map_or(&[][..], Json::as_arr) {
            if m.get("unit").and_then(Json::as_str) == Some("count") {
                let name = m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?;
                rules.exact.push(name.to_owned());
            }
        }
        Ok(rules)
    }
}

/// A verdict for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// Changed by no more than the bound either way.
    Within,
    /// Worse by more than the bound.
    Worse,
    /// The runs spread wider than the bound.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One compared pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Baseline median and spread (IQR over median).
    pub a: (f64, f64),
    /// Candidate median and spread.
    pub b: (f64, f64),
    /// Candidate median against baseline, signed so that positive is
    /// worse, as a share of the baseline median.
    pub worsening: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one metric from its baseline (`a`) and candidate (`b`)
/// values.
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
    let worsening = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let all_b_better = b.iter().all(|&x| a.iter().all(|&y| sign * (x - y) < 0.0));
    let verdict = if spread(a).max(spread(b)) > bound.bound {
        if all_b_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worsening > bound.bound {
        Verdict::Worse
    } else if worsening < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (worsening, verdict)
}

/// The full comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// One row per (workload, end-to-end metric) present on both
    /// sides.
    pub rows: Vec<Row>,
    /// Exact counts that differed: (workload, seed, metric, values).
    pub changed_counts: Vec<(String, u64, String, Vec<Option<f64>>)>,
}

impl Comparison {
    /// No metric worse and no exact count changed.
    pub fn passed(&self) -> bool {
        self.changed_counts.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Worse)
    }
}

/// Compares baseline records `a` with candidate records `b`.
pub fn compare(rules: &Rules, a: &[Record], b: &[Record]) -> Comparison {
    let mut out = Comparison::default();
    let mut workloads: Vec<&str> = a.iter().chain(b).map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    for w in &workloads {
        for bound in &rules.bounds {
            let values = |set: &[Record]| -> Vec<f64> {
                set.iter()
                    .filter(|r| r.workload == *w && !r.trace)
                    .filter_map(|r| r.get(&bound.name))
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worsening, verdict) = judge(&va, &vb, bound);
            out.rows.push(Row {
                workload: (*w).to_owned(),
                metric: bound.name.clone(),
                a: (median(&va), spread(&va)),
                b: (median(&vb), spread(&vb)),
                worsening,
                bound: bound.bound,
                verdict,
            });
        }
        let mut seeds: Vec<u64> = a
            .iter()
            .chain(b)
            .filter(|r| r.workload == *w && r.trace)
            .map(|r| r.seed)
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        for seed in seeds {
            for name in &rules.exact {
                let mut values: Vec<Option<f64>> = a
                    .iter()
                    .chain(b)
                    .filter(|r| r.workload == *w && r.trace && r.seed == seed)
                    .map(|r| r.get(name))
                    .collect();
                let first = values[0];
                if values.iter().any(|v| *v != first) {
                    values.dedup();
                    out.changed_counts
                        .push(((*w).to_owned(), seed, name.clone(), values));
                }
            }
        }
    }
    out
}

/// Reads a results file of [`Record`] lines (blank lines and `#`
/// header lines skipped).
///
/// # Errors
///
/// The first malformed line, with its number.
pub fn read_records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|(i, l)| Record::parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}
