//! What a run prints: the fixed-conditions header, one line per
//! metric, and the machine-readable result line.

use crate::json::{self, Json};
use crate::spec::MetricSpec;
use crate::workloads::Outcome;
use psi_tools::json::escape;

/// The fixed conditions of a run, printed before any number.
pub fn header(seed: u64, seconds: f64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "# psi-benchmark\n\
         nproc:   {nproc}\n\
         rustc:   {}\n\
         profile: {}\n\
         commit:  {}\n\
         seed:    {seed}\n\
         window:  {seconds} s{}",
        env!("PSI_BENCH_RUSTC"),
        env!("PSI_BENCH_PROFILE"),
        env!("PSI_BENCH_COMMIT"),
        if trace {
            " (traced: first third untraced for the overhead baseline)"
        } else {
            ""
        },
    )
}

/// A number as JSON: every digit Rust's shortest round-trip form
/// keeps, or `null` when missing or not finite.
pub fn number(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_owned(),
    }
}

/// The last line of a workload run: `correct`, `attempted`, `failed`
/// and the metrics named in `names` (every one, measured or `null`).
pub fn result_line(outcome: &Outcome, names: &[MetricSpec]) -> String {
    let named: Vec<(&str, &str, Option<f64>)> = names
        .iter()
        .map(|m| (m.name, m.unit, outcome.get(m.name)))
        .collect();
    result_json(outcome, &named)
}

/// Prefix of the line listing every metric a run measured, including
/// the layers only one workload has; `run` reads it.
pub const ALL_METRICS: &str = "all-metrics: ";

/// [`result_line`] over every metric the run measured.
pub fn all_metrics_line(outcome: &Outcome) -> String {
    let all: Vec<(&str, &str, Option<f64>)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name, m.unit, m.value))
        .collect();
    format!("{ALL_METRICS}{}", result_json(outcome, &all))
}

fn result_json(outcome: &Outcome, metrics: &[(&str, &str, Option<f64>)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(name),
                number(*value),
                escape(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct(outcome),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Whether every checked output matched.
pub fn correct(outcome: &Outcome) -> bool {
    outcome.attempted > 0 && outcome.failed == 0
}

/// One run as stored by `run --out`: the result line's fields plus
/// which workload, seed and mode produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Traced run (per-layer metrics) or not (end-to-end).
    pub trace: bool,
    /// Every output check passed.
    pub correct: bool,
    /// (name, unit, value) per metric; `None` = not measured.
    pub metrics: Vec<(String, String, Option<f64>)>,
}

impl Record {
    /// Builds a record from a workload's result line.
    ///
    /// # Errors
    ///
    /// The line is not a result object.
    pub fn from_result_line(
        workload: &str,
        seed: u64,
        trace: bool,
        line: &str,
    ) -> Result<Record, String> {
        let v = json::parse(line)?;
        let correct = v
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or("result line has no `correct`")?;
        let metrics = v
            .get("metrics")
            .ok_or("result line has no `metrics`")?
            .fields()
            .iter()
            .map(|(k, m)| {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                (
                    k.clone(),
                    unit.to_owned(),
                    m.get("value").and_then(Json::as_f64),
                )
            })
            .collect();
        Ok(Record {
            workload: workload.to_owned(),
            seed,
            trace,
            correct,
            metrics,
        })
    }

    /// Reads a record written by [`Record::to_line`].
    ///
    /// # Errors
    ///
    /// The line is not a record.
    pub fn parse(line: &str) -> Result<Record, String> {
        let v = json::parse(line)?;
        let field = |k: &str| v.get(k).ok_or(format!("record has no `{k}`"));
        Record::from_result_line(
            field("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?,
            field("seed")?.as_f64().ok_or("`seed` is not a number")? as u64,
            field("trace")?
                .as_bool()
                .ok_or("`trace` is not a boolean")?,
            line,
        )
    }

    /// One JSON line.
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, unit, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(k),
                    number(*v),
                    escape(unit)
                )
            })
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \"metrics\": {{{}}}}}",
            escape(&self.workload),
            self.seed,
            self.trace,
            self.correct,
            metrics.join(", ")
        )
    }

    /// Metric `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _, _)| k == name)
            .and_then(|(_, _, v)| *v)
    }
}
