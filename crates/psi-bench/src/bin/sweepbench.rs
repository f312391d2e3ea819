//! Design-space sweep harness: runs a declarative grid of cache
//! geometries × machine configurations × workloads through the
//! `psi_bench::sweep` engine (Figure 1 at modern scale) and writes
//! the per-cell measurements to `BENCH_sweep.json` at the repository
//! root.
//!
//! Usage: `cargo run --release -p psi-bench --bin sweepbench --
//! [--quick] [--mode fork|replay|fresh] [--threads N] [--shard I/N]
//! [--cells DIR] [--limit N] [--compare-fresh] [--out PATH]`
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
//! geometry. `--quick` shrinks it to a seconds-scale smoke grid for
//! CI.
//!
//! `--cells DIR` persists every completed cell as one flat-JSON file
//! under its content-addressed key; a restarted sweep with the same
//! directory resumes, skipping completed cells byte-identically.
//! `--shard i/n` runs only the cells whose grid index ≡ i (mod n) —
//! shards are disjoint and union to the full grid. `--limit N` stops
//! after N computed cells (testing aid: simulates a killed run).
//!
//! `--compare-fresh` runs the same grid a second time in `fresh` mode
//! (per-cell re-parse and re-consult — the pre-engine behaviour) and
//! verifies both runs agree bit-for-bit on every deterministic field.
//!
//! Exits nonzero if any cell's outcome is not ok, if the
//! `--compare-fresh` cross-check drifts, or on a malformed
//! invocation.

use psi_bench::drift::diff_reports;
use psi_bench::sweep::{
    run_sweep, ConfigPoint, GeometryAxis, Lane, SweepMode, SweepOptions, SweepSpec, SWEEP_DIFF,
};
use psi_cache::WritePolicy;
use psi_tools::json::parse_report;
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

/// The CI smoke grid: two workloads, two configuration points, four
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

fn run_diff(old_path: &str, new_path: &str) -> ExitCode {
    let read = |p: &str| match std::fs::read_to_string(p) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("sweepbench diff: cannot read `{p}`: {e}");
            None
        }
    };
    let (Some(old), Some(new)) = (read(old_path), read(new_path)) else {
        return ExitCode::FAILURE;
    };
    let diff =
        parse_report(&old).and_then(|old| diff_reports(&old, &parse_report(&new)?, &SWEEP_DIFF));
    match diff {
        Ok(diff) => {
            print!("{}", diff.render());
            if diff.has_drift() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("sweepbench diff: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_shard(spec: &str) -> Option<(usize, usize)> {
    let (i, n) = spec.split_once('/')?;
    let (i, n) = (i.parse().ok()?, n.parse().ok()?);
    if n == 0 || i >= n {
        return None;
    }
    Some((i, n))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("diff") {
        if args.len() != 3 {
            eprintln!("usage: sweepbench diff OLD.json NEW.json");
            return ExitCode::FAILURE;
        }
        return run_diff(&args[1], &args[2]);
    }

    let mut quick = false;
    let mut options = SweepOptions::default();
    let mut compare_fresh = false;
    let mut out_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--compare-fresh" => compare_fresh = true,
            "--mode" => match it.next().as_deref() {
                Some("fork") => options.mode = SweepMode::Fork,
                Some("replay") => options.mode = SweepMode::Replay,
                Some("fresh") => options.mode = SweepMode::Fresh,
                other => {
                    eprintln!(
                        "sweepbench: --mode requires fork|replay|fresh (got {})",
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
            "--shard" => match it.next().as_deref().and_then(parse_shard) {
                Some(s) => options.shard = Some(s),
                None => {
                    eprintln!("sweepbench: --shard requires I/N with I < N (e.g. 0/2)");
                    return ExitCode::FAILURE;
                }
            },
            "--cells" => match it.next() {
                Some(dir) => options.cell_dir = Some(dir.into()),
                None => {
                    eprintln!("sweepbench: --cells requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--limit" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => options.limit = Some(n),
                None => {
                    eprintln!("sweepbench: --limit requires a cell count");
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
                    "usage: sweepbench [--quick] [--mode fork|replay|fresh] [--threads N] \
                     [--shard I/N] [--cells DIR] [--limit N] [--compare-fresh] [--out PATH]\n\
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

    if compare_fresh {
        // The per-cell re-consult baseline must agree with the engine
        // bit-for-bit on every deterministic field. It never touches
        // the cell directory (resume would let it skip its own work).
        let fresh = run_sweep(
            &spec,
            &SweepOptions {
                mode: SweepMode::Fresh,
                cell_dir: None,
                ..options.clone()
            },
        );
        let parse = |r: &psi_bench::sweep::SweepReport| {
            parse_report(&r.to_json()).expect("a sweep report parses back")
        };
        let diff = diff_reports(&parse(&report), &parse(&fresh), &SWEEP_DIFF)
            .expect("a sweep report has a keyed cells array");
        if diff.has_drift() {
            eprintln!(
                "sweepbench: {} run disagrees with the fresh baseline:\n{}",
                report.mode,
                diff.render()
            );
            return ExitCode::FAILURE;
        }
    }

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
