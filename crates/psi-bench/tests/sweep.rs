//! Integration tests for the sweep engine's restart story: a killed
//! sweep resumes from its cell directory without recomputing (or even
//! rewriting) completed cells, shards are disjoint and union to the
//! unsharded grid, and the `sweepbench` binary's end-to-end contract
//! holds — sweep twice, `diff` exits 0; tamper, `diff` exits nonzero.

use psi_bench::drift::{diff_reports, ReportDiff};
use psi_bench::sweep::{
    run_sweep, ConfigPoint, GeometryAxis, SweepOptions, SweepReport, SweepSpec, SWEEP_DIFF,
};
use psi_cache::WritePolicy;
use psi_tools::json::parse_report;
use psi_workloads::contest;
use std::path::PathBuf;
use std::process::Command;

fn spec() -> SweepSpec {
    let (geometries, invalid) = GeometryAxis {
        capacities: vec![64, 256, 8192],
        ways: vec![1, 2],
        block_words: vec![4],
        policies: vec![WritePolicy::StoreIn, WritePolicy::StoreThrough],
        write_stack_no_fetch: vec![true],
    }
    .expand();
    assert_eq!(invalid, 0);
    SweepSpec {
        name: "resume-test".into(),
        workloads: vec![contest::nreverse(12), contest::quick_sort(16)],
        configs: vec![ConfigPoint::fidelity("A-linear", false)],
        geometries,
    }
}

/// The shared keyed diff of two in-memory sweeps.
fn diff(old: &SweepReport, new: &SweepReport) -> ReportDiff {
    let parse = |r: &SweepReport| parse_report(&r.to_json()).unwrap();
    diff_reports(&parse(old), &parse(new), &SWEEP_DIFF).unwrap()
}

/// A unique scratch directory per test (removed on success; left for
/// inspection on failure).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psi-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cell_files(dir: &PathBuf) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

/// The kill-and-restart story: a sweep stopped mid-grid (simulated
/// with the `limit` option) leaves complete per-cell files behind; a
/// restart with the same cell directory resumes them byte-identically
/// — the files are not rewritten, their contents do not change, and
/// the finished grid equals a never-killed run bit for bit.
#[test]
fn killed_sweep_resumes_byte_identically() {
    let spec = spec();
    let dir = scratch("resume");
    let total = 2 * 12; // 2 workloads × 1 config × 12 geometries

    // First run dies after 5 cells.
    let killed = run_sweep(
        &spec,
        &SweepOptions {
            threads: 1,
            cell_dir: Some(dir.clone()),
            limit: Some(5),
            ..SweepOptions::default()
        },
    );
    assert_eq!(killed.computed, 5);
    assert_eq!(killed.unrun, total - 5);
    let after_kill = cell_files(&dir);
    assert_eq!(after_kill.len(), 5, "one complete file per computed cell");
    assert!(
        after_kill.iter().all(|(name, _)| !name.ends_with(".tmp")),
        "no half-written temp files may survive: {after_kill:?}"
    );

    // Restart: the 5 persisted cells resume, the rest compute.
    let resumed = run_sweep(
        &spec,
        &SweepOptions {
            threads: 1,
            cell_dir: Some(dir.clone()),
            ..SweepOptions::default()
        },
    );
    assert_eq!(resumed.resumed, 5);
    assert_eq!(resumed.computed, total - 5);
    assert_eq!(resumed.cells.len(), total);
    assert!(resumed.all_ok(), "{}", resumed.render());

    // The resumed cells' files are byte-for-byte what the killed run
    // left (skip-if-present never rewrites).
    let after_resume = cell_files(&dir);
    assert_eq!(after_resume.len(), total);
    for (name, bytes) in &after_kill {
        let unchanged = after_resume.iter().any(|(n, b)| n == name && b == bytes);
        assert!(unchanged, "{name} was rewritten by the resume");
    }

    // And the finished grid equals a clean, never-killed in-memory
    // run on every tracked field.
    let clean = run_sweep(&spec, &SweepOptions::default());
    let diff = diff(&clean, &resumed);
    assert!(!diff.has_drift(), "{}", diff.render());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Shards 0/2 and 1/2 are disjoint, union to the unsharded grid, and
/// can share one cell directory without contention: a subsequent
/// unsharded run resumes every cell the two shards left behind.
#[test]
fn shards_union_to_the_full_grid_on_disk() {
    let spec = spec();
    let dir = scratch("shards");
    let total = 2 * 12;

    for i in 0..2 {
        let shard = run_sweep(
            &spec,
            &SweepOptions {
                threads: 2,
                shard: Some((i, 2)),
                cell_dir: Some(dir.clone()),
                ..SweepOptions::default()
            },
        );
        assert_eq!(shard.computed, total / 2, "shard {i}/2 owns half the grid");
        assert_eq!(shard.resumed, 0, "shards are disjoint — nothing to resume");
        assert!(shard.all_ok(), "{}", shard.render());
    }
    assert_eq!(cell_files(&dir).len(), total);

    // The merge run finds every cell already present.
    let merged = run_sweep(
        &spec,
        &SweepOptions {
            cell_dir: Some(dir.clone()),
            ..SweepOptions::default()
        },
    );
    assert_eq!(merged.resumed, total);
    assert_eq!(merged.computed, 0);
    let clean = run_sweep(&spec, &SweepOptions::default());
    let diff = diff(&clean, &merged);
    assert!(!diff.has_drift(), "{}", diff.render());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt or truncated cell file (the window a kill could hit
/// without the tmp+rename discipline) is recomputed, not trusted.
#[test]
fn corrupt_cell_files_are_recomputed() {
    let spec = spec();
    let dir = scratch("corrupt");

    let first = run_sweep(
        &spec,
        &SweepOptions {
            threads: 1,
            cell_dir: Some(dir.clone()),
            ..SweepOptions::default()
        },
    );
    assert!(first.all_ok());
    let files = cell_files(&dir);
    // Truncate one file and scribble junk into another.
    std::fs::write(dir.join(&files[0].0), &files[0].1[..files[0].1.len() / 2]).unwrap();
    std::fs::write(dir.join(&files[1].0), "not json at all").unwrap();

    let again = run_sweep(
        &spec,
        &SweepOptions {
            threads: 1,
            cell_dir: Some(dir.clone()),
            ..SweepOptions::default()
        },
    );
    assert_eq!(again.computed, 2, "exactly the two damaged cells recompute");
    assert_eq!(again.resumed, first.cells.len() - 2);
    assert!(again.all_ok(), "{}", again.render());
    let diff = diff(&first, &again);
    assert!(!diff.has_drift(), "{}", diff.render());

    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------------
// sweepbench binary contract
// ------------------------------------------------------------------

fn sweepbench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweepbench"))
}

/// The CI self-check contract: sweep the quick grid twice, `diff`
/// exits 0; tamper with one value, `diff` exits nonzero and names the
/// drift.
#[test]
fn sweep_twice_diffs_clean_and_tampering_is_caught() {
    let dir = scratch("cli");
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    for out in [&a, &b] {
        let run = sweepbench()
            .args(["--quick", "--threads", "2", "--out"])
            .arg(out)
            .output()
            .expect("binary runs");
        assert!(
            run.status.success(),
            "sweepbench --quick must exit 0: {}",
            String::from_utf8_lossy(&run.stderr)
        );
    }

    let clean = sweepbench().arg("diff").args([&a, &b]).output().unwrap();
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert!(
        clean.status.success(),
        "identical grids must diff clean: {stdout}"
    );
    assert!(stdout.contains("no drift"), "{stdout}");

    // Tamper with one steps value in the second report.
    let text = std::fs::read_to_string(&b).unwrap();
    let needle = "\"steps\":";
    let at = text.rfind(needle).unwrap() + needle.len();
    let end = text[at..].find(',').unwrap() + at;
    let tampered = format!("{}{}{}", &text[..at], "123456789", &text[end..]);
    std::fs::write(&b, tampered).unwrap();

    let drifted = sweepbench().arg("diff").args([&a, &b]).output().unwrap();
    let stdout = String::from_utf8_lossy(&drifted.stdout);
    assert!(
        !drifted.status.success(),
        "a moved value must exit nonzero: {stdout}"
    );
    assert!(stdout.contains("SWEEP DRIFT DETECTED"), "{stdout}");
    assert!(stdout.contains("steps"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Bad invocations fail fast with a clear message, before any
/// measurement.
#[test]
fn malformed_arguments_are_clear_errors() {
    for (args, expect) in [
        (vec!["--shard", "2/2"], "--shard"),
        (vec!["--shard", "nope"], "--shard"),
        (vec!["--mode", "turbo"], "--mode"),
        (vec!["--threads", "0"], "--threads"),
        (vec!["--bogus"], "unknown argument"),
        (vec!["diff", "only-one.json"], "usage"),
    ] {
        let out = sweepbench().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must exit nonzero");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(expect),
            "{args:?}: stderr should mention `{expect}`, got: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
