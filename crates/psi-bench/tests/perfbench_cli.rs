//! Integration tests for the `perfbench` binary's command-line
//! contract: bad output locations fail fast with a clear message
//! (before any measurement), `--rows` runs a spot-check subset
//! without overwriting the archived report, `--check-steps` catches
//! drift in any deterministic field of any cell, and junk arguments
//! are rejected.

use std::process::Command;

fn perfbench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
}

#[test]
fn missing_output_directory_is_a_clear_error_not_a_panic() {
    let dir = std::env::temp_dir().join("perfbench-no-such-dir-a8f2");
    assert!(!dir.exists(), "test precondition: {dir:?} must not exist");
    let out = perfbench()
        .arg("--out")
        .arg(dir.join("bench.json"))
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "should exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("does not exist"),
        "stderr should name the missing directory, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must be a clear error, not a panic: {stderr}"
    );
}

#[test]
fn rows_filter_runs_a_subset_and_does_not_write_the_archive() {
    let out = perfbench()
        .args(["--rows", "1"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit ok, stderr: {stderr}");
    assert!(stdout.contains("nreverse"), "row 1 is nreverse: {stdout}");
    assert!(
        !stdout.contains("wrote "),
        "a subset run must not overwrite the archived report: {stdout}"
    );
    // Exactly one measured row: header line plus one program line,
    // which ends in its lane verdict.
    let rows = stdout
        .lines()
        .filter(|l| l.ends_with(" yes") || l.ends_with(" NO"))
        .count();
    assert_eq!(rows, 1, "expected exactly one measured row: {stdout}");
}

/// The gate covers every deterministic field of every cell, not only
/// the fidelity lane's linear-profile steps: a fast-lane,
/// indexed-profile `backtracks` value that moved in the archive fails
/// a `--rows` spot check and is named.
#[test]
fn check_steps_catches_drift_in_any_field_of_any_cell() {
    let dir = std::env::temp_dir().join(format!("perfbench-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let copy = dir.join("BENCH_psi.json");
    let archive = format!("{}/../../BENCH_psi.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(archive).unwrap();
    let check = || {
        perfbench()
            .args(["--rows", "1", "--check-steps", "--out"])
            .arg(&copy)
            .output()
            .expect("binary runs")
    };

    std::fs::write(&copy, &text).unwrap();
    let clean = check();
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert!(clean.status.success(), "the archive must match: {stdout}");
    assert!(stdout.contains("match the archive"), "{stdout}");

    let cell = text
        .lines()
        .find(|l| l.contains(r#""program":"nreverse","lane":"compiled","profile":"indexed""#))
        .expect("the archive has nreverse's fast-lane indexed cell");
    let tampered_cell = cell.replace(r#""backtracks":"#, r#""backtracks":9"#);
    std::fs::write(&copy, text.replace(cell, &tampered_cell)).unwrap();
    let drifted = check();
    let stderr = String::from_utf8_lossy(&drifted.stderr);
    assert!(
        !drifted.status.success(),
        "a moved value must fail the gate"
    );
    assert!(
        stderr.contains("nreverse/compiled/indexed") && stderr.contains("backtracks"),
        "the drifted cell and field must be named: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rows_filter_matching_nothing_is_an_error() {
    let out = perfbench()
        .args(["--rows", "no-such-program-zz"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("matched no"),
        "stderr should say the filter matched nothing: {stderr}"
    );
}

#[test]
fn unknown_arguments_are_rejected_with_usage() {
    let out = perfbench()
        .arg("--frobnicate")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "expected usage line: {stderr}");
}
