//! Microbenchmark harness: runs the Table 1 suite under the
//! paper-faithful (linear) and first-argument-indexing profiles, in
//! the fidelity and fast (compiled) lanes, checks all four cells
//! produce identical solutions (and the lanes identical step counts),
//! and writes the measurements to `BENCH_psi.json` at the repository
//! root. Every recorded number is deterministic, so each cell runs
//! once.
//!
//! Usage: `cargo run --release -p psi-bench --bin perfbench --
//! [--rows FILTER] [--check-steps] [--out PATH]`.
//!
//! `--rows FILTER` runs a subset of the 19 programs: comma-separated
//! tokens, each a 1-based row number or a case-insensitive substring
//! of the program name (e.g. `--rows lisp` or `--rows 1,7,qsort`).
//!
//! `--check-steps` diffs every deterministic field of every cell
//! ([`PERF_DIFF`]) against the previously written report at the output
//! path (the microstep-regression gate) before overwriting it. A
//! `--rows` run is compared against the archived cells of its own
//! programs only.
//!
//! Exits nonzero if any workload's solutions differ between cells,
//! any deterministic counter differs between lanes, or `--check-steps`
//! finds drift.

use psi_bench::drift::diff_reports;
use psi_bench::perf::{run_rows, PERF_DIFF};
use psi_tools::json::parse_report;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut out_path: Option<String> = None;
    let mut rows_filter: Option<String> = None;
    let mut check_steps = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check-steps" => check_steps = true,
            "--out" => match args.next() {
                Some(p) => out_path = Some(p),
                None => {
                    eprintln!("perfbench: --out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--rows" => match args.next() {
                Some(spec) => rows_filter = Some(spec),
                None => {
                    eprintln!("perfbench: --rows requires a filter (row numbers or name substrings, comma-separated)");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("perfbench: unknown argument `{other}`");
                eprintln!("usage: perfbench [--rows FILTER] [--check-steps] [--out PATH]");
                return ExitCode::FAILURE;
            }
        }
    }
    let out_path = out_path
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_psi.json").into());

    // Validate the output location up front: a missing parent
    // directory should be a clear error before minutes of
    // measurement, not an I/O failure after them.
    let path = std::path::Path::new(&out_path);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() && !parent.is_dir() {
            eprintln!(
                "perfbench: cannot write `{out_path}`: output directory `{}` does not exist \
                 (create it first, or pass a different --out path)",
                parent.display()
            );
            return ExitCode::FAILURE;
        }
    }

    // Read the archived report before overwriting it.
    let archived = if check_steps {
        let archived = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|json| parse_report(&json).map_err(|e| e.to_string()));
        match archived {
            Ok(report) => Some(report),
            Err(e) => {
                eprintln!("perfbench: --check-steps needs an existing report at `{out_path}`: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let report = match run_rows(rows_filter.as_deref()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: suite failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if report.rows.is_empty() {
        eprintln!(
            "perfbench: --rows `{}` matched no Table 1 programs",
            rows_filter.as_deref().unwrap_or("")
        );
        return ExitCode::FAILURE;
    }
    print!("{}", report.render());
    let json = report.to_json();

    let mut failed = false;
    if let Some(mut archived) = archived {
        // A row subset is compared against its own programs' cells.
        if rows_filter.is_some() {
            let measured = |program: &str| report.rows.iter().any(|r| r.program == program);
            for (_, entries) in &mut archived.arrays {
                entries.retain(|e| e.str_field("program").is_ok_and(measured));
            }
        }
        let fresh = parse_report(&json).expect("a perf report parses back");
        match diff_reports(&archived, &fresh, &PERF_DIFF) {
            Ok(diff) if !diff.has_drift() => println!(
                "check-steps: {} cells, {} values match the archive",
                diff.compared, diff.values
            ),
            Ok(diff) => {
                eprint!(
                    "perfbench: the run drifted from the archive:\n{}",
                    diff.render()
                );
                failed = true;
            }
            Err(e) => {
                eprintln!("perfbench: --check-steps cannot read the archived report: {e}");
                failed = true;
            }
        }
    }

    // A row subset is a spot check, not the archive: only a full run
    // may overwrite the repository's benchmark report.
    if rows_filter.is_none() {
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("perfbench: cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {out_path}");
    }

    for row in report.mismatches() {
        eprintln!(
            "perfbench: `{}` solutions differ between profiles/lanes",
            row.program
        );
        failed = true;
    }
    for row in report.lane_mismatches() {
        eprintln!(
            "perfbench: `{}` deterministic counters differ between lanes \
             (fidelity steps {}, compiled steps {})",
            row.program, row.fidelity.linear.steps, row.compiled.linear.steps
        );
        failed = true;
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
