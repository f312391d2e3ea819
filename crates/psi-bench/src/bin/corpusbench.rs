//! Generated-corpus equivalence harness: generates a pinned-seed
//! workload corpus (`psi_workloads::corpus`), runs it under the
//! governed suite layer on all four measurement cells — fidelity
//! and fast (compiled) lanes × {linear, indexed} clause lookup —
//! and asserts that every cell reproduces the host-computed oracle
//! solutions bit-identically and that step counts agree across lanes
//! within each indexing profile. Writes a summary report to
//! `BENCH_corpus.json` at the repository root.
//!
//! Usage: `cargo run --release -p psi-bench --bin corpusbench --
//! [--quick] [--seed N] [--count N] [--out PATH]`.
//!
//! `--quick` shrinks the per-program size caps (CI smoke mode); the
//! corpus still spans every family and the default 500 programs.
//!
//! Exits nonzero if any program fails to run, diverges from its
//! oracle, or differs between cells.

use psi_machine::MachineConfig;
use psi_tools::json::{ObjectBuilder, ReportBuilder};
use psi_workloads::corpus::{generate, CorpusProgram, CorpusSpec};
use psi_workloads::runner::{run_suite_governed, Outcome, SuiteOptions};
use psi_workloads::Workload;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Pinned master seed: the corpus CI runs and EXPERIMENTS.md record.
const PINNED_SEED: u64 = 0x5EED_2026;
const DEFAULT_COUNT: usize = 500;

struct CellResult {
    cell: String,
    indexed: bool,
    solutions: Vec<Vec<String>>,
    steps: Vec<u64>,
    errors: Vec<String>,
}

fn run_cell(name: &str, base: MachineConfig, indexed: bool, workloads: &[Workload]) -> CellResult {
    let mut config = base;
    config.clause_indexing = indexed;
    let report = run_suite_governed(workloads, &config, &SuiteOptions::default());
    let mut solutions = Vec::with_capacity(report.rows.len());
    let mut steps = Vec::with_capacity(report.rows.len());
    let mut errors = Vec::new();
    for row in &report.rows {
        match &row.outcome {
            Outcome::Ok(run) => {
                solutions.push(run.solutions.clone());
                steps.push(run.stats.steps);
            }
            other => {
                errors.push(format!("{}: {:?}", row.name, other));
                solutions.push(Vec::new());
                steps.push(0);
            }
        }
    }
    CellResult {
        cell: name.to_owned(),
        indexed,
        solutions,
        steps,
        errors,
    }
}

fn main() -> ExitCode {
    let mut seed = PINNED_SEED;
    let mut count = DEFAULT_COUNT;
    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("corpusbench: --seed requires an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--count" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => count = v,
                None => {
                    eprintln!("corpusbench: --count requires an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(p) => out_path = Some(p),
                None => {
                    eprintln!("corpusbench: --out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("corpusbench: unknown argument `{other}`");
                eprintln!("usage: corpusbench [--quick] [--seed N] [--count N] [--out PATH]");
                return ExitCode::FAILURE;
            }
        }
    }
    let out_path = out_path
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_corpus.json").into());

    let spec = if quick {
        CorpusSpec::quick(seed, count)
    } else {
        CorpusSpec::new(seed, count)
    };
    let corpus: Vec<CorpusProgram> = generate(&spec);
    let workloads: Vec<Workload> = corpus.iter().map(|p| p.workload.clone()).collect();
    println!(
        "corpusbench: {} programs, seed {seed:#x}{}",
        corpus.len(),
        if quick { " (quick caps)" } else { "" }
    );

    let cells = [
        ("fidelity/linear", MachineConfig::psi(), false),
        ("fidelity/indexed", MachineConfig::psi(), true),
        ("compiled/linear", MachineConfig::psi_compiled(), false),
        ("compiled/indexed", MachineConfig::psi_compiled(), true),
    ];
    let results: Vec<CellResult> = cells
        .iter()
        .map(|(name, base, indexed)| run_cell(name, base.clone(), *indexed, &workloads))
        .collect();

    let mut mismatches: Vec<String> = Vec::new();
    for r in &results {
        for e in &r.errors {
            mismatches.push(format!("[{}] {}", r.cell, e));
        }
    }
    for (i, p) in corpus.iter().enumerate() {
        // Oracle check on every cell.
        for r in &results {
            if r.solutions[i] != p.expected {
                mismatches.push(format!(
                    "[{}] {} seed {:#x}: solutions diverge from oracle \
                     (got {:?}, want {:?})",
                    r.cell, p.workload.name, p.seed, r.solutions[i], p.expected
                ));
            }
        }
        // Lane invariance: step counts agree within an indexing
        // profile (indexing itself legitimately changes the count).
        for indexed in [false, true] {
            let lane_steps: Vec<(&str, u64)> = results
                .iter()
                .filter(|r| r.indexed == indexed)
                .map(|r| (r.cell.as_str(), r.steps[i]))
                .collect();
            if lane_steps.iter().any(|(_, s)| *s != lane_steps[0].1) {
                mismatches.push(format!(
                    "{} seed {:#x}: step counts diverge across lanes: {lane_steps:?}",
                    p.workload.name, p.seed
                ));
            }
        }
    }

    let mut families: BTreeMap<&str, u64> = BTreeMap::new();
    for p in &corpus {
        *families.entry(p.family).or_default() += 1;
    }
    for (family, n) in &families {
        println!("  {family:<12} {n} programs");
    }
    for m in mismatches.iter().take(20) {
        eprintln!("corpusbench: {m}");
    }
    if mismatches.len() > 20 {
        eprintln!("corpusbench: ... and {} more", mismatches.len() - 20);
    }

    let families = families.iter().map(|(family, n)| {
        ObjectBuilder::new()
            .str("family", family)
            .u64("programs", *n)
    });
    let cells = results.iter().map(|r| {
        ObjectBuilder::new()
            .str("cell", &r.cell)
            .u64("ok", (corpus.len() - r.errors.len()) as u64)
            .u64("total_steps", r.steps.iter().sum())
    });
    let details = mismatches
        .iter()
        .take(20)
        .map(|m| ObjectBuilder::new().str("detail", m));
    let json = ReportBuilder::new("psi-bench-corpus-v3")
        .u64("seed", seed)
        .u64("count", corpus.len() as u64)
        .bool("quick", quick)
        .u64("mismatches", mismatches.len() as u64)
        .array("families", families)
        .array("cells", cells)
        .array("mismatch_detail", details)
        .finish();
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("corpusbench: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    if mismatches.is_empty() {
        println!(
            "corpusbench: all {} programs bit-identical across {} cells",
            corpus.len(),
            results.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("corpusbench: {} mismatches", mismatches.len());
        ExitCode::FAILURE
    }
}
