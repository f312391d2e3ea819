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
//! Unlike the table regenerators — which report *simulated* PSI time
//! and are bit-reproducible — this harness also measures host wall
//! time, which varies run to run. Each workload therefore runs
//! `warmup` untimed iterations followed by `repetitions` timed ones,
//! and the report records the median. Simulator statistics (steps,
//! choice points, backtracks) are deterministic and recorded from the
//! final iteration.
//!
//! The report serializes to `BENCH_psi.json` through the shared
//! report writer ([`psi_tools::json::ReportBuilder`]) and doubles as an
//! equivalence check: all four cells of a row must produce identical
//! solution lists, and the two lanes must agree exactly on every
//! deterministic counter.

use psi_machine::MachineConfig;
use psi_obs::Counter;
use psi_tools::json::{parse_report, ObjectBuilder, ReportBuilder};
use psi_workloads::runner::run_on_psi_machine;
use psi_workloads::suite::table1_suite;
use std::fmt::Write as _;
use std::time::Instant;

/// Schema tag of the `BENCH_psi.json` report.
pub const PERF_SCHEMA: &str = "psi-bench-perf-v5";

/// Knobs for one harness run.
#[derive(Debug, Clone, Copy)]
pub struct PerfOptions {
    /// Untimed iterations per workload/profile before measurement.
    pub warmup: usize,
    /// Timed iterations per workload/profile (median is reported).
    pub repetitions: usize,
}

impl PerfOptions {
    /// Full run: 1 warmup + 5 timed repetitions.
    pub fn full() -> PerfOptions {
        PerfOptions {
            warmup: 1,
            repetitions: 5,
        }
    }

    /// CI smoke run: no warmup, a single timed repetition. Wall times
    /// are noisy but the equivalence checks and simulator statistics
    /// are exactly those of a full run.
    pub fn quick() -> PerfOptions {
        PerfOptions {
            warmup: 0,
            repetitions: 1,
        }
    }
}

/// One (profile, lane) cell's measurements for one workload.
#[derive(Debug, Clone)]
pub struct ProfileMeasurement {
    /// Median host wall time over the timed repetitions, nanoseconds.
    pub wall_ns: u64,
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

/// Wall-time speedup of a fast-lane cell over the fidelity cell.
/// Zero-guarded: a zero fast-lane wall time (possible on trivial rows
/// where the median timed iteration is below the clock resolution)
/// reports 0.0 rather than a nonsense near-infinite ratio.
fn speedup(fidelity_wall_ns: u64, lane_wall_ns: u64) -> f64 {
    if lane_wall_ns == 0 {
        return 0.0;
    }
    fidelity_wall_ns as f64 / lane_wall_ns as f64
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

    /// Wall-time speedup of the fast lane (lane C) over the
    /// fidelity lane, linear profile. 0.0 when the compiled cell's
    /// wall time rounded to zero.
    pub fn speedup_lane_c(&self) -> f64 {
        speedup(self.fidelity.linear.wall_ns, self.compiled.linear.wall_ns)
    }
}

/// A full harness run over the (possibly filtered) Table 1 suite.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// The options the run used.
    pub options: PerfOptions,
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
    /// Schema [`PERF_SCHEMA`]: header `warmup` and `repetitions`; a
    /// `rows` array with one object per program carrying the row
    /// verdicts (`solutions_match`, `lanes_match`) and the fast lane's
    /// wall-time speedup `speedup_lane_c`; and a `cells` array with one
    /// flat object per (program, lane, profile) measurement. Solution
    /// texts are not embedded (they can be thousands of bindings);
    /// only their count is.
    pub fn to_json(&self) -> String {
        let rows = self.rows.iter().map(|row| {
            ObjectBuilder::new()
                .u64("index", row.index as u64)
                .str("program", &row.program)
                .bool("solutions_match", row.solutions_match())
                .bool("lanes_match", row.lanes_match())
                .f64("speedup_lane_c", (row.speedup_lane_c() * 1e3).round() / 1e3)
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
                            .u64("wall_ns", m.wall_ns)
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
            .u64("warmup", self.options.warmup as u64)
            .u64("repetitions", self.options.repetitions as u64)
            .array("rows", rows)
            .array("cells", cells)
            .finish()
    }

    /// Renders a human-readable summary table (one line per row).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>12} {:>10} {:>10} {:>7}  match lanes",
            "program", "steps lin", "wall fid", "wall cmp", "spd C"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<22} {:>12} {:>8.2}ms {:>8.2}ms {:>6.2}x  {:<5} {}",
                row.program,
                row.fidelity.linear.steps,
                row.fidelity.linear.wall_ns as f64 / 1e6,
                row.compiled.linear.wall_ns as f64 / 1e6,
                row.speedup_lane_c(),
                if row.solutions_match() { "yes" } else { "NO" },
                if row.lanes_match() { "yes" } else { "NO" },
            );
        }
        out
    }
}

/// Does a `--rows` filter token list select `(index, program)`?
///
/// The spec is comma-separated; each token is either a 1-based Table 1
/// row number (`3`) or a case-insensitive substring of the program
/// name (`lisp`, `qsort`). An empty spec selects nothing.
pub fn row_matches(spec: &str, index: usize, program: &str) -> bool {
    let program = program.to_lowercase();
    spec.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .any(|t| match t.parse::<usize>() {
            Ok(n) => n == index,
            Err(_) => program.contains(&t.to_lowercase()),
        })
}

/// Extracts `(program, fidelity-lane linear steps)` pairs from a
/// previously written `BENCH_psi.json`, for the microstep-regression
/// gate.
///
/// # Errors
///
/// [`psi_core::PsiError::Syntax`] when the document is not a report
/// with a `cells` array (older layouts nest objects and are rejected)
/// or a cell lacks its lane, profile, program or steps.
pub fn archived_steps(json: &str) -> psi_core::Result<Vec<(String, u64)>> {
    let report = parse_report(json)?;
    let mut steps = Vec::new();
    for c in report.array("cells")? {
        if c.str_field("lane")? == "fidelity" && c.str_field("profile")? == "linear" {
            steps.push((c.str_field("program")?.to_owned(), c.u64_field("steps")?));
        }
    }
    Ok(steps)
}

/// Measures one workload under one machine configuration (one
/// profile/lane cell).
fn measure(
    w: &psi_workloads::Workload,
    config: &MachineConfig,
    options: &PerfOptions,
) -> psi_core::Result<ProfileMeasurement> {
    for _ in 0..options.warmup {
        run_on_psi_machine(w, config.clone())?;
    }
    let mut walls = Vec::with_capacity(options.repetitions.max(1));
    let mut last = None;
    for _ in 0..options.repetitions.max(1) {
        let t0 = Instant::now();
        let result = run_on_psi_machine(w, config.clone())?;
        walls.push(t0.elapsed().as_nanos() as u64);
        last = Some(result);
    }
    walls.sort_unstable();
    let (run, machine) = last.expect("at least one repetition");
    let snap = machine.metrics_snapshot();
    Ok(ProfileMeasurement {
        wall_ns: walls[walls.len() / 2],
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
fn measure_row(
    entry: &psi_workloads::suite::Table1Entry,
    options: &PerfOptions,
) -> psi_core::Result<PerfRow> {
    let w = &entry.workload;
    let fidelity = LaneMeasurements {
        linear: measure(w, &MachineConfig::psi(), options)?,
        indexed: measure(w, &MachineConfig::psi_indexed(), options)?,
    };
    let mut compiled_indexed = MachineConfig::psi_compiled();
    compiled_indexed.clause_indexing = true;
    let compiled = LaneMeasurements {
        linear: measure(w, &MachineConfig::psi_compiled(), options)?,
        indexed: measure(w, &compiled_indexed, options)?,
    };
    Ok(PerfRow {
        index: entry.index,
        program: w.name.clone(),
        fidelity,
        compiled,
    })
}

/// Runs the Table 1 suite under both profiles in both lanes.
///
/// # Errors
///
/// Propagates the first workload failure ([`psi_core::PsiError`]);
/// the suite is expected to be green under every profile/lane cell.
pub fn run(options: PerfOptions) -> psi_core::Result<PerfReport> {
    run_rows(options, None)
}

/// [`run`] restricted to the rows selected by a `--rows` spec (see
/// [`row_matches`]); `None` runs the whole suite.
///
/// # Errors
///
/// Propagates the first workload failure ([`psi_core::PsiError`]).
pub fn run_rows(options: PerfOptions, filter: Option<&str>) -> psi_core::Result<PerfReport> {
    let mut rows = Vec::new();
    for entry in table1_suite() {
        if let Some(spec) = filter {
            if !row_matches(spec, entry.index, &entry.workload.name) {
                continue;
            }
        }
        rows.push(measure_row(&entry, &options)?);
    }
    Ok(PerfReport { options, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_tools::json::{JsonObject, JsonValue};

    #[test]
    fn json_shape_is_stable() {
        let report = parse_report(&sample_report().to_json()).unwrap();
        assert_eq!(report.header.str_field("schema").unwrap(), PERF_SCHEMA);
        let row = &report.array("rows").unwrap()[0];
        assert_eq!(row.str_field("program").unwrap(), "nreverse 30");
        for verdict in ["solutions_match", "lanes_match"] {
            assert_eq!(row.get(verdict), Some(&JsonValue::Bool(true)));
        }
        assert_eq!(row.get("speedup_lane_c").unwrap().as_f64(), Some(1.0));
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
    fn speedup_is_zero_guarded() {
        let mut row = sample_report().rows.remove(0);
        row.fidelity.linear.wall_ns = 9000;
        row.compiled.linear.wall_ns = 1500;
        assert!((row.speedup_lane_c() - 6.0).abs() < 1e-12);
        // A sub-resolution fast cell must not explode into a
        // near-infinite ratio.
        row.compiled.linear.wall_ns = 0;
        assert_eq!(row.speedup_lane_c(), 0.0);
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
    fn row_filter_matches_by_index_and_name() {
        assert!(row_matches("3", 3, "qsort 50"));
        assert!(!row_matches("3", 4, "qsort 50"));
        assert!(row_matches("LISP", 7, "lisp tarai3"));
        assert!(row_matches("1, lisp", 7, "lisp tarai3"));
        assert!(row_matches(" qsort ,9", 9, "nreverse 30"));
        assert!(!row_matches("", 1, "nreverse 30"));
        assert!(!row_matches(" , ", 1, "nreverse 30"));
    }

    #[test]
    fn archived_steps_reads_own_v5_output_only() {
        let mut report = sample_report();
        report.rows[0].compiled.linear.steps = 99;
        report.rows[0].fidelity.indexed.steps = 17;
        let pairs = archived_steps(&report.to_json()).unwrap();
        assert_eq!(pairs, vec![("nreverse 30".to_owned(), 30)]);
        // The v4 layout nested one object per lane.
        let v4 = r#"{"schema": "psi-bench-perf-v4", "rows": [{"fidelity": {"linear": {}}}]}"#;
        assert!(archived_steps(v4).is_err());
    }

    fn sample_report() -> PerfReport {
        let lane = || LaneMeasurements {
            linear: sample_measurement(10),
            indexed: sample_measurement(10),
        };
        PerfReport {
            options: PerfOptions::quick(),
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
            wall_ns: 1000,
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
