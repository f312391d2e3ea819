//! Captures the fixed build conditions every report header prints:
//! the compiler version, the build profile and the source commit.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(&rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    println!("cargo:rustc-env=PSI_BENCH_RUSTC={version}");

    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_owned());
    let opt = std::env::var("OPT_LEVEL").unwrap_or_else(|_| "?".to_owned());
    println!("cargo:rustc-env=PSI_BENCH_PROFILE={profile} (opt-level {opt})");

    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let git = Path::new(&manifest).join("../.git");
    println!("cargo:rustc-env=PSI_BENCH_COMMIT={}", commit(&git));
    println!("cargo:rerun-if-changed=build.rs");
    if git.join("HEAD").exists() {
        println!("cargo:rerun-if-changed={}", git.join("HEAD").display());
        println!("cargo:rerun-if-changed={}", git.join("refs").display());
    }
}

/// The commit `HEAD` names, read from the repository's own `.git`
/// directory (never from a parent directory), or `unknown`.
fn commit(git: &Path) -> String {
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
