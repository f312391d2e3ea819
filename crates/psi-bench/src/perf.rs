//! Reproducible microbenchmark harness over the Table 1 suite, along
//! two dimensions:
//!
//! * **profile** — paper-faithful linear clause selection
//!   ([`MachineConfig::psi`]) vs the opt-in first-argument indexing
//!   profile ([`MachineConfig::psi_indexed`]);
//! * **lane** — the fidelity lane (full cache/trace/event
//!   measurement, [`psi_core::Measurement::Full`]) and the fast lane
//!   ([`MachineConfig::psi_compiled`]: measurement off plus fused
//!   dispatch), which must produce bit-identical solutions and step
//!   totals while running several times faster on the heavy rows.
//!
//! Every number it records is deterministic — simulated time, steps,
//! choice points, backtracks, indexing counters and solution counts —
//! so each cell runs exactly once. Host speed is measured by the
//! `psi-benchmark` workloads (`solve-fast`, `sim-fidelity`), which
//! repeat runs and report their spread.
//!
//! The report serializes to `BENCH_psi.json` through the shared
//! report writer ([`psi_tools::json::ReportBuilder`]) and doubles as an
//! equivalence check: all four cells of a row must produce identical
//! solution lists, and the two lanes must agree exactly on every
//! deterministic counter. [`PERF_DIFF`] declares the fields the
//! microstep-regression gate compares against the archive.

use crate::drift::DiffSpec;
use psi_machine::MachineConfig;
use psi_obs::Counter;
use psi_tools::json::{ObjectBuilder, ReportBuilder};
use psi_workloads::runner::run_on_psi_machine;
use psi_workloads::suite::{row_matches, table1_suite};
use std::fmt::Write as _;

/// Schema tag of the `BENCH_psi.json` report.
pub const PERF_SCHEMA: &str = "psi-bench-perf-v6";

/// The deterministic fields of a perf report's `cells`, one cell per
/// (program, lane, profile): the fields `perfbench --check-steps`
/// compares against the archive.
pub const PERF_DIFF: DiffSpec = DiffSpec {
    name: "perf",
    array: "cells",
    key: &["program", "lane", "profile"],
    numbers: &[
        "sim_ns",
        "steps",
        "choice_points",
        "backtracks",
        "indexed_calls",
        "index_direct_entries",
        "solutions",
    ],
    strings: &[],
};

/// One (profile, lane) cell's measurements for one workload.
#[derive(Debug, Clone)]
pub struct ProfileMeasurement {
    /// Simulated PSI time, nanoseconds (deterministic; zero stall
    /// contribution in the fast lane).
    pub sim_ns: u64,
    /// Interpreter microsteps (deterministic, lane-invariant).
    pub steps: u64,
    /// Choice points pushed (host-side counter, deterministic).
    pub choice_points: u64,
    /// Backtracks (choice point retried or discarded).
    pub backtracks: u64,
    /// Calls that consulted the first-argument index.
    pub indexed_calls: u64,
    /// Indexed calls whose single surviving candidate was entered
    /// with no choice point.
    pub index_direct_entries: u64,
    /// Rendered solutions, for cross-cell comparison.
    pub solutions: Vec<String>,
}

/// One lane's pair of profile measurements.
#[derive(Debug, Clone)]
pub struct LaneMeasurements {
    /// Paper-faithful profile ([`MachineConfig::psi`]).
    pub linear: ProfileMeasurement,
    /// Indexing profile ([`MachineConfig::psi_indexed`]).
    pub indexed: ProfileMeasurement,
}

/// One Table 1 row measured under both profiles in both lanes.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Row number in Table 1 (1-based).
    pub index: usize,
    /// Workload name.
    pub program: String,
    /// Fidelity lane (full measurement, the archived-numbers lane).
    pub fidelity: LaneMeasurements,
    /// Fast lane (measurement off, fused dispatch).
    pub compiled: LaneMeasurements,
}

/// Do two cells agree on everything that must be lane-invariant?
fn cells_equivalent(a: &ProfileMeasurement, b: &ProfileMeasurement) -> bool {
    a.steps == b.steps
        && a.choice_points == b.choice_points
        && a.backtracks == b.backtracks
        && a.indexed_calls == b.indexed_calls
        && a.index_direct_entries == b.index_direct_entries
        && a.solutions == b.solutions
}

impl PerfRow {
    /// Whether all four cells produced identical solution lists.
    pub fn solutions_match(&self) -> bool {
        let reference = &self.fidelity.linear.solutions;
        *reference == self.fidelity.indexed.solutions
            && *reference == self.compiled.linear.solutions
            && *reference == self.compiled.indexed.solutions
    }

    /// Whether the fast lane matched the fidelity lane exactly on
    /// every deterministic counter (steps, choice points, backtracks,
    /// indexing statistics) and on solutions, per profile.
    pub fn lanes_match(&self) -> bool {
        cells_equivalent(&self.fidelity.linear, &self.compiled.linear)
            && cells_equivalent(&self.fidelity.indexed, &self.compiled.indexed)
    }
}

/// A full harness run over the (possibly filtered) Table 1 suite.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// One row per selected Table 1 entry, in table order.
    pub rows: Vec<PerfRow>,
}

impl PerfReport {
    /// Rows whose four cells disagreed on solutions (must be empty).
    pub fn mismatches(&self) -> Vec<&PerfRow> {
        self.rows.iter().filter(|r| !r.solutions_match()).collect()
    }

    /// Rows where the fast lane diverged from the fidelity lane
    /// on a deterministic counter (must be empty).
    pub fn lane_mismatches(&self) -> Vec<&PerfRow> {
        self.rows.iter().filter(|r| !r.lanes_match()).collect()
    }

    /// Serializes the report through the shared report writer
    /// ([`ReportBuilder`]).
    ///
    /// Schema [`PERF_SCHEMA`]: a `rows` array with one object per
    /// program carrying the row verdicts (`solutions_match`,
    /// `lanes_match`), and a `cells` array with one flat object per
    /// (program, lane, profile) measurement. Solution texts are not
    /// embedded (they can be thousands of bindings); only their count
    /// is.
    pub fn to_json(&self) -> String {
        let rows = self.rows.iter().map(|row| {
            ObjectBuilder::new()
                .u64("index", row.index as u64)
                .str("program", &row.program)
                .bool("solutions_match", row.solutions_match())
                .bool("lanes_match", row.lanes_match())
        });
        let cells = self.rows.iter().flat_map(|row| {
            [("fidelity", &row.fidelity), ("compiled", &row.compiled)]
                .into_iter()
                .flat_map(move |(lane, m)| {
                    [("linear", &m.linear), ("indexed", &m.indexed)].map(|(profile, m)| {
                        ObjectBuilder::new()
                            .str("program", &row.program)
                            .str("lane", lane)
                            .str("profile", profile)
                            .u64("sim_ns", m.sim_ns)
                            .u64("steps", m.steps)
                            .u64("choice_points", m.choice_points)
                            .u64("backtracks", m.backtracks)
                            .u64("indexed_calls", m.indexed_calls)
                            .u64("index_direct_entries", m.index_direct_entries)
                            .u64("solutions", m.solutions.len() as u64)
                    })
                })
        });
        ReportBuilder::new(PERF_SCHEMA)
            .array("rows", rows)
            .array("cells", cells)
            .finish()
    }

    /// Renders a human-readable summary table (one line per row).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>12} {:>12}  match lanes",
            "program", "steps lin", "steps idx"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<22} {:>12} {:>12}  {:<5} {}",
                row.program,
                row.fidelity.linear.steps,
                row.fidelity.indexed.steps,
                if row.solutions_match() { "yes" } else { "NO" },
                if row.lanes_match() { "yes" } else { "NO" },
            );
        }
        out
    }
}

/// Measures one workload under one machine configuration (one
/// profile/lane cell).
fn measure(
    w: &psi_workloads::Workload,
    config: MachineConfig,
) -> psi_core::Result<ProfileMeasurement> {
    let (run, machine) = run_on_psi_machine(w, config)?;
    let snap = machine.metrics_snapshot();
    Ok(ProfileMeasurement {
        sim_ns: run.stats.time_ns,
        steps: run.stats.steps,
        choice_points: run.stats.choice_points,
        backtracks: snap.get(Counter::Backtracks),
        indexed_calls: run.stats.indexed_calls,
        index_direct_entries: run.stats.index_direct_entries,
        solutions: run.solutions,
    })
}

/// Measures one suite entry across all four (profile, lane) cells.
fn measure_row(entry: &psi_workloads::suite::Table1Entry) -> psi_core::Result<PerfRow> {
    let w = &entry.workload;
    let fidelity = LaneMeasurements {
        linear: measure(w, MachineConfig::psi())?,
        indexed: measure(w, MachineConfig::psi_indexed())?,
    };
    let mut compiled_indexed = MachineConfig::psi_compiled();
    compiled_indexed.clause_indexing = true;
    let compiled = LaneMeasurements {
        linear: measure(w, MachineConfig::psi_compiled())?,
        indexed: measure(w, compiled_indexed)?,
    };
    Ok(PerfRow {
        index: entry.index,
        program: w.name.clone(),
        fidelity,
        compiled,
    })
}

/// Runs the Table 1 suite under both profiles in both lanes,
/// restricted to the rows a `--rows` spec selects
/// ([`row_matches`]); `None` runs the whole suite.
///
/// # Errors
///
/// Propagates the first workload failure ([`psi_core::PsiError`]);
/// the suite is expected to be green under every profile/lane cell.
pub fn run_rows(filter: Option<&str>) -> psi_core::Result<PerfReport> {
    let rows = table1_suite()
        .iter()
        .filter(|e| filter.is_none_or(|spec| row_matches(spec, e.index, &e.workload.name)))
        .map(measure_row)
        .collect::<psi_core::Result<_>>()?;
    Ok(PerfReport { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::diff_reports;
    use psi_tools::json::{parse_report, JsonObject, JsonValue};

    #[test]
    fn json_shape_is_stable() {
        let report = parse_report(&sample_report().to_json()).unwrap();
        assert_eq!(report.header.str_field("schema").unwrap(), PERF_SCHEMA);
        assert_eq!(
            report.header.fields().len(),
            1,
            "the header is the schema alone"
        );
        let row = &report.array("rows").unwrap()[0];
        assert_eq!(row.str_field("program").unwrap(), "nreverse 30");
        for verdict in ["solutions_match", "lanes_match"] {
            assert_eq!(row.get(verdict), Some(&JsonValue::Bool(true)));
        }
        let cells = report.array("cells").unwrap();
        let cell = |c: &JsonObject| {
            let field = |k| c.str_field(k).unwrap();
            format!("{}/{}", field("lane"), field("profile"))
        };
        assert_eq!(
            cells.iter().map(cell).collect::<Vec<_>>(),
            [
                "fidelity/linear",
                "fidelity/indexed",
                "compiled/linear",
                "compiled/indexed"
            ]
        );
        assert!(cells
            .iter()
            .all(|c| c.u64_field("choice_points").unwrap() == 10
                && c.u64_field("solutions").unwrap() == 1));
    }

    #[test]
    fn lanes_match_covers_the_compiled_lane() {
        let mut row = sample_report().rows.remove(0);
        assert!(row.lanes_match());
        row.compiled.linear.steps += 1;
        assert!(!row.lanes_match(), "a compiled-lane step drift must trip");
        let mut row = sample_report().rows.remove(0);
        row.compiled.indexed.solutions.push("X = 2".into());
        assert!(!row.solutions_match());
    }

    #[test]
    fn perf_diff_compares_every_deterministic_field_of_every_cell() {
        let json = sample_report().to_json();
        let archived = parse_report(&json).unwrap();
        let clean = diff_reports(&archived, &archived, &PERF_DIFF).unwrap();
        assert!(!clean.has_drift(), "{}", clean.render());
        assert_eq!((clean.compared, clean.values), (4, 4 * 7));
        let mut report = sample_report();
        report.rows[0].compiled.indexed.backtracks += 1;
        let drifted = parse_report(&report.to_json()).unwrap();
        let diff = diff_reports(&archived, &drifted, &PERF_DIFF).unwrap();
        assert!(diff.has_drift());
        assert_eq!(diff.sections[0].section, "nreverse 30/compiled/indexed");
        assert!(
            diff.render().contains("backtracks: 4 -> 5"),
            "{}",
            diff.render()
        );
    }

    fn sample_report() -> PerfReport {
        let lane = || LaneMeasurements {
            linear: sample_measurement(10),
            indexed: sample_measurement(10),
        };
        PerfReport {
            rows: vec![PerfRow {
                index: 1,
                program: "nreverse 30".into(),
                fidelity: lane(),
                compiled: lane(),
            }],
        }
    }

    fn sample_measurement(cp: u64) -> ProfileMeasurement {
        ProfileMeasurement {
            sim_ns: 2000,
            steps: 30,
            choice_points: cp,
            backtracks: 4,
            indexed_calls: 0,
            index_direct_entries: 0,
            solutions: vec!["X = 1".into()],
        }
    }
}
