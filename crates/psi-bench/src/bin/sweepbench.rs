//! Design-space sweep harness: runs a declarative grid of cache
//! geometries × machine configurations × workloads through the
//! `psi_bench::sweep` engine (Figure 1 at modern scale) and writes
//! the per-cell measurements to `BENCH_sweep.json` at the repository
//! root.
//!
//! Usage: `cargo run --release -p psi-bench --bin sweepbench --
//! [--quick] [--mode fork|replay] [--threads N] [--out PATH]`
//!
//! or: `sweepbench diff OLD.json NEW.json` — compare two sweep
//! reports cell by cell on the deterministic fields (outcome, steps,
//! simulated time, solutions, hit ratio, improvement ratio) through
//! the shared keyed diff, and exit nonzero on drift.
//!
//! The default grid is ~600 cells: six capacities × {1,2} ways ×
//! {4,8}-word blocks × both write policies on the fidelity lane, with
//! linear, indexed and governed machine configurations, over four
//! workloads, plus the fast lane (linear and indexed) on the stock
//! geometry. `--quick` shrinks it to a seconds-scale grid.
//!
//! `--mode fork` (the default) forks every cell from one consulted
//! template per plane; `--mode replay` replays one captured trace per
//! fidelity plane through every geometry, the Figure 1 method. The
//! two agree on every field `diff` compares.
//!
//! Exits nonzero if any cell's outcome is not ok, or on a malformed
//! invocation.

use psi_bench::drift::diff_command;
use psi_bench::sweep::{
    run_sweep, ConfigPoint, GeometryAxis, Lane, SweepMode, SweepOptions, SweepSpec, SWEEP_DIFF,
};
use psi_cache::WritePolicy;
use psi_workloads::{contest, parsers, window};
use std::process::ExitCode;

/// The default grid: Figure 1's capacity axis extended with
/// associativity, block size and write policy, crossed with the three
/// machine-configuration points the repo distinguishes (linear,
/// indexed, governed) and a four-workload mix, plus the fast lane on
/// the stock geometry.
fn default_spec() -> SweepSpec {
    let (geometries, invalid) = GeometryAxis {
        capacities: vec![32, 64, 256, 1024, 4096, 8192],
        ways: vec![1, 2],
        block_words: vec![4, 8],
        policies: vec![WritePolicy::StoreIn, WritePolicy::StoreThrough],
        write_stack_no_fetch: vec![true],
    }
    .expand();
    assert_eq!(invalid, 0, "default grid must not contain invalid corners");
    SweepSpec {
        name: "default".into(),
        workloads: vec![
            contest::nreverse(30),
            contest::quick_sort(50),
            parsers::bup(1),
            window::window(1),
        ],
        configs: vec![
            ConfigPoint::fidelity("A-linear", false),
            ConfigPoint::fidelity("A-indexed", true),
            // A governed fidelity point with a budget far above any
            // workload in the grid: exercises the governor code path
            // while staying deterministic and completing every cell.
            ConfigPoint {
                name: "A-governed".into(),
                lane: Lane::Fidelity,
                clause_indexing: false,
                max_steps: Some(200_000_000),
            },
            ConfigPoint {
                name: "C-linear".into(),
                lane: Lane::Compiled,
                clause_indexing: false,
                max_steps: None,
            },
            ConfigPoint {
                name: "C-indexed".into(),
                lane: Lane::Compiled,
                clause_indexing: true,
                max_steps: None,
            },
        ],
        geometries,
    }
}

/// The quick grid: two workloads, two configuration points, four
/// geometries — small enough to finish in seconds, wide enough to
/// touch every engine path (fidelity + fast lane, both ways counts).
fn quick_spec() -> SweepSpec {
    let (geometries, invalid) = GeometryAxis {
        capacities: vec![64, 8192],
        ways: vec![1, 2],
        block_words: vec![4],
        policies: vec![WritePolicy::StoreIn],
        write_stack_no_fetch: vec![true],
    }
    .expand();
    assert_eq!(invalid, 0, "quick grid must not contain invalid corners");
    SweepSpec {
        name: "quick".into(),
        workloads: vec![contest::nreverse(20), contest::quick_sort(30)],
        configs: vec![
            ConfigPoint::fidelity("A-linear", false),
            ConfigPoint {
                name: "C-indexed".into(),
                lane: Lane::Compiled,
                clause_indexing: true,
                max_steps: None,
            },
        ],
        geometries,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("diff") {
        return diff_command("sweepbench", &args[1..], &SWEEP_DIFF);
    }

    let mut quick = false;
    let mut options = SweepOptions::default();
    let mut out_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--mode" => match it.next().as_deref() {
                Some("fork") => options.mode = SweepMode::Fork,
                Some("replay") => options.mode = SweepMode::Replay,
                other => {
                    eprintln!(
                        "sweepbench: --mode requires fork|replay (got {})",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => options.threads = n,
                _ => {
                    eprintln!("sweepbench: --threads requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(p) => out_path = Some(p),
                None => {
                    eprintln!("sweepbench: --out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("sweepbench: unknown argument `{other}`");
                eprintln!(
                    "usage: sweepbench [--quick] [--mode fork|replay] [--threads N] [--out PATH]\n\
                     \u{20}      sweepbench diff OLD.json NEW.json"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let out_path = out_path
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json").into());
    let path = std::path::Path::new(&out_path);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() && !parent.is_dir() {
            eprintln!(
                "sweepbench: cannot write `{out_path}`: output directory `{}` does not exist",
                parent.display()
            );
            return ExitCode::FAILURE;
        }
    }

    let spec = if quick { quick_spec() } else { default_spec() };
    eprintln!(
        "sweepbench: grid '{}' — {} workloads × {} configs × {} geometries, mode {}, {} threads",
        spec.name,
        spec.workloads.len(),
        spec.configs.len(),
        spec.geometries.len(),
        options.mode.label(),
        options.threads,
    );
    let report = run_sweep(&spec, &options);

    print!("{}", report.render());
    if let Err(e) = std::fs::write(path, report.to_json()) {
        eprintln!("sweepbench: cannot write `{out_path}`: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("sweepbench: wrote {out_path}");
    if report.all_ok() {
        ExitCode::SUCCESS
    } else {
        eprintln!("sweepbench: grid did not complete clean");
        ExitCode::FAILURE
    }
}
