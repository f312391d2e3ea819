//! Integration tests for the `sweepbench` binary's end-to-end
//! contract: sweep twice, `diff` exits 0; tamper, `diff` exits
//! nonzero; malformed arguments fail fast with a clear message.

use std::path::PathBuf;
use std::process::Command;

/// A unique scratch directory per test (removed on success; left for
/// inspection on failure).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psi-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sweepbench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweepbench"))
}

/// The `diff` contract: sweep the quick grid twice, `diff`
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
        (vec!["--mode", "turbo"], "--mode"),
        (vec!["--threads", "0"], "--threads"),
        (vec!["--bogus"], "unknown argument"),
        (vec!["--cells", "x"], "unknown argument"),
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
