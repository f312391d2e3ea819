//! Regenerates every archived table/figure and diffs it cell-by-cell
//! against EXPERIMENTS.md, exiting nonzero on unexplained drift; or,
//! with `--print`, prints one regenerated section.
//!
//! Usage: `cargo run --release -p psi-bench --bin drift_report --
//! [path-to-EXPERIMENTS.md | --print SECTION]`, where SECTION is one
//! of the tracked sections (`"Table 1"` … `"Table 7"`, `"Figure 1"`,
//! `"Ablation"`).

use psi_bench::drift::{drift_against, TRACKED_SECTIONS};
use std::process::ExitCode;

fn usage() -> ExitCode {
    let sections: Vec<&str> = TRACKED_SECTIONS.iter().map(|(name, _)| *name).collect();
    eprintln!("usage: drift_report [path-to-EXPERIMENTS.md | --print SECTION]");
    eprintln!("sections: {}", sections.join(", "));
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match args.as_slice() {
        [flag, section] if flag == "--print" => {
            let Some((_, regenerate)) = TRACKED_SECTIONS.iter().find(|(name, _)| name == section)
            else {
                eprintln!("drift_report: unknown section `{section}`");
                return usage();
            };
            println!("{}", regenerate());
            return ExitCode::SUCCESS;
        }
        [] => concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md").to_owned(),
        [path] if !path.starts_with("--") => path.clone(),
        _ => return usage(),
    };
    let markdown = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("drift_report: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = drift_against(&markdown);
    print!("{}", report.render());
    if report.has_drift() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
