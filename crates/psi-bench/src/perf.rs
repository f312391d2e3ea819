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
//! The report serializes to `BENCH_psi.json` (hand-rolled JSON — the
//! workspace deliberately has no serde dependency) and doubles as an
//! equivalence check: all four cells of a row must produce identical
//! solution lists, and the two lanes must agree exactly on every
//! deterministic counter.

use psi_machine::MachineConfig;
use psi_obs::Counter;
use psi_workloads::runner::run_on_psi_machine;
use psi_workloads::suite::table1_suite;
use std::fmt::Write as _;
use std::time::Instant;

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

    /// Serializes the report as pretty-printed JSON.
    ///
    /// Schema `psi-bench-perf-v4`: top-level `warmup`, `repetitions`,
    /// and `rows`; each row carries a `fidelity` and a `compiled` lane
    /// object (in that order — readers of the archive rely on the
    /// fidelity lane coming first, see [`archived_steps`]), each with
    /// a `linear` and an `indexed` measurement, plus the fast lane's
    /// wall-time speedup `speedup_lane_c`. Solution texts are not
    /// embedded (they can be thousands of bindings); only their count
    /// and the `solutions_match` / `lanes_match` verdicts are.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"psi-bench-perf-v4\",\n");
        let _ = writeln!(out, "  \"warmup\": {},", self.options.warmup);
        let _ = writeln!(out, "  \"repetitions\": {},", self.options.repetitions);
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"index\": {},", row.index);
            let _ = writeln!(out, "      \"program\": \"{}\",", escape(&row.program));
            let _ = writeln!(
                out,
                "      \"solutions\": {},",
                row.fidelity.linear.solutions.len()
            );
            let _ = writeln!(out, "      \"solutions_match\": {},", row.solutions_match());
            let _ = writeln!(out, "      \"lanes_match\": {},", row.lanes_match());
            let _ = writeln!(
                out,
                "      \"speedup_lane_c\": {:.3},",
                row.speedup_lane_c()
            );
            for (j, (lane, m)) in [("fidelity", &row.fidelity), ("compiled", &row.compiled)]
                .into_iter()
                .enumerate()
            {
                let _ = writeln!(out, "      \"{lane}\": {{");
                let _ = writeln!(out, "        \"linear\": {},", measurement_json(&m.linear));
                let _ = writeln!(out, "        \"indexed\": {}", measurement_json(&m.indexed));
                let comma = if j < 1 { "," } else { "" };
                let _ = writeln!(out, "      }}{comma}");
            }
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(out, "    }}{comma}");
        }
        out.push_str("  ]\n}\n");
        out
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

fn measurement_json(m: &ProfileMeasurement) -> String {
    format!(
        "{{\"wall_ns\": {}, \"sim_ns\": {}, \"steps\": {}, \"choice_points\": {}, \
         \"backtracks\": {}, \"indexed_calls\": {}, \"index_direct_entries\": {}}}",
        m.wall_ns,
        m.sim_ns,
        m.steps,
        m.choice_points,
        m.backtracks,
        m.indexed_calls,
        m.index_direct_entries,
    )
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
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
/// gate. Works on the v1 schema (one `"linear"` object per row) and
/// the v2–v4 schemas (fidelity lane first): in every layout the
/// first `"linear"` line after a `"program"` line is the fidelity
/// lane's linear measurement.
pub fn archived_steps(json: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut program: Option<String> = None;
    for line in json.lines() {
        let line = line.trim_start();
        if let Some(rest) = line.strip_prefix("\"program\": \"") {
            if let Some(end) = rest.find('"') {
                program = Some(rest[..end].to_owned());
            }
        } else if line.starts_with("\"linear\": {") {
            if let Some(p) = program.take() {
                if let Some(steps) = scan_u64_field(line, "\"steps\": ") {
                    out.push((p, steps));
                }
            }
        }
    }
    out
}

fn scan_u64_field(line: &str, key: &str) -> Option<u64> {
    let at = line.find(key)? + key.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
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

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }

    #[test]
    fn json_shape_is_stable() {
        let report = sample_report();
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"schema\": \"psi-bench-perf-v4\""));
        assert!(json.contains("\"program\": \"nreverse 30\""));
        assert!(json.contains("\"solutions_match\": true"));
        assert!(json.contains("\"lanes_match\": true"));
        assert!(json.contains("\"speedup_lane_c\": "));
        assert!(json.contains("\"fidelity\": {"));
        assert!(json.contains("\"compiled\": {"));
        assert!(json.contains("\"choice_points\": 10"));
        assert!(json.trim_end().ends_with('}'));
        // The fidelity lane must serialize before the fast lane —
        // archived_steps picks the first "linear" after "program".
        let fid = json.find("\"fidelity\"").expect("fidelity present");
        let cmp = json.find("\"compiled\"").expect("compiled present");
        assert!(fid < cmp, "lane order must be fid, cmp");
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
    fn archived_steps_reads_own_v4_output() {
        let report = sample_report();
        let pairs = archived_steps(&report.to_json());
        assert_eq!(pairs, vec![("nreverse 30".to_owned(), 30)]);
    }

    #[test]
    fn archived_steps_reads_v1_layout() {
        let v1 = r#"{
  "schema": "psi-bench-perf-v1",
  "rows": [
    {
      "index": 1,
      "program": "qsort 50",
      "linear": {"wall_ns": 9, "sim_ns": 8, "steps": 4321, "choice_points": 2},
      "indexed": {"wall_ns": 9, "sim_ns": 8, "steps": 17, "choice_points": 2}
    }
  ]
}"#;
        assert_eq!(archived_steps(v1), vec![("qsort 50".to_owned(), 4321)]);
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
