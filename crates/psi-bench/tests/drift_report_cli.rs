//! Integration tests for the `drift_report` binary's `--print` mode:
//! a tracked section prints its regenerated report, and an unknown
//! section or a stray argument prints usage and exits nonzero.

use std::process::Command;

fn drift_report() -> Command {
    Command::new(env!("CARGO_BIN_EXE_drift_report"))
}

#[test]
fn print_emits_the_named_section() {
    let out = drift_report()
        .args(["--print", "Table 6"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout, format!("{}\n", psi_bench::table6_report()));
}

#[test]
fn unknown_section_prints_usage_and_fails() {
    for args in [&["--print", "Table 8"][..], &["--print"], &["--frobnicate"]] {
        let out = drift_report().args(args).output().expect("binary runs");
        assert!(!out.status.success(), "{args:?} should exit nonzero");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage:"),
            "{args:?}: expected usage: {stderr}"
        );
        assert!(
            stderr.contains("Figure 1"),
            "{args:?}: expected section list: {stderr}"
        );
    }
}
