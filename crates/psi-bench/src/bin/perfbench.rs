//! Microbenchmark harness: runs the Table 1 suite under the
//! paper-faithful (linear) and first-argument-indexing profiles, in
//! the fidelity and fast (compiled) lanes, checks all four cells
//! produce identical solutions (and the lanes identical step counts),
//! and writes the measurements to `BENCH_psi.json` at the repository
//! root.
//!
//! Usage: `cargo run --release -p psi-bench --bin perfbench --
//! [--quick] [--rows FILTER] [--check-steps] [--out PATH]`.
//!
//! `--quick` runs a single repetition with no warmup (CI smoke mode);
//! wall times are then noisy, but the equivalence checks and
//! simulator statistics are identical to a full run.
//!
//! `--rows FILTER` runs a subset of the 19 programs: comma-separated
//! tokens, each a 1-based row number or a case-insensitive substring
//! of the program name (e.g. `--rows lisp` or `--rows 1,7,qsort`).
//!
//! `--check-steps` compares the fidelity lane's per-program microstep
//! totals against the previously written report at the output path
//! (the microstep-regression gate) before overwriting it.
//!
//! Exits nonzero if any workload's solutions differ between cells,
//! any deterministic counter differs between lanes, or `--check-steps`
//! finds a microstep drift.

use psi_bench::perf::{archived_steps, run_rows, PerfOptions, PerfReport};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut options = PerfOptions::full();
    let mut out_path: Option<String> = None;
    let mut rows_filter: Option<String> = None;
    let mut check_steps = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options = PerfOptions::quick(),
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
                eprintln!(
                    "usage: perfbench [--quick] [--rows FILTER] [--check-steps] [--out PATH]"
                );
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
            .and_then(|json| archived_steps(&json).map_err(|e| e.to_string()));
        match archived {
            Ok(steps) => steps,
            Err(e) => {
                eprintln!("perfbench: --check-steps needs an existing report at `{out_path}`: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        Vec::new()
    };

    let report = match run_rows(options, rows_filter.as_deref()) {
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

    let mut failed = false;
    if check_steps && !steps_match_archive(&report, &archived) {
        failed = true;
    }

    // A row subset is a spot check, not the archive: only a full run
    // may overwrite the repository's benchmark report.
    if rows_filter.is_none() {
        if let Err(e) = std::fs::write(path, report.to_json()) {
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

/// The microstep-regression gate: every program present in both the
/// archived report and this run must have identical fidelity-lane
/// linear-profile step totals.
fn steps_match_archive(report: &PerfReport, archived: &[(String, u64)]) -> bool {
    let mut ok = true;
    let mut compared = 0usize;
    for row in &report.rows {
        if let Some((_, old)) = archived.iter().find(|(name, _)| *name == row.program) {
            compared += 1;
            let new = row.fidelity.linear.steps;
            if new != *old {
                eprintln!(
                    "perfbench: microstep regression on `{}`: archived {old} steps, measured {new}",
                    row.program
                );
                ok = false;
            }
        }
    }
    if compared == 0 {
        eprintln!("perfbench: --check-steps found no overlapping programs in the archived report");
        return false;
    }
    println!("check-steps: {compared} programs match the archived microstep totals");
    ok
}
