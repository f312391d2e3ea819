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
use psi_workloads::corpus::{generate, CorpusProgram, CorpusSpec};
use psi_workloads::runner::{run_suite_governed, Outcome, SuiteOptions};
use psi_workloads::Workload;
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

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
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

    let mut families: Vec<(&str, usize)> = Vec::new();
    for p in &corpus {
        match families.iter_mut().find(|(f, _)| *f == p.family) {
            Some((_, n)) => *n += 1,
            None => families.push((p.family, 1)),
        }
    }
    families.sort_unstable();
    for (family, n) in &families {
        println!("  {family:<12} {n} programs");
    }
    for m in mismatches.iter().take(20) {
        eprintln!("corpusbench: {m}");
    }
    if mismatches.len() > 20 {
        eprintln!("corpusbench: ... and {} more", mismatches.len() - 20);
    }

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"psi-bench-corpus-v2\",\n");
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"count\": {},\n", corpus.len()));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str("  \"families\": {\n");
    for (j, (family, n)) in families.iter().enumerate() {
        json.push_str(&format!(
            "    \"{family}\": {n}{}\n",
            if j + 1 < families.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"cells\": [\n");
    for (j, r) in results.iter().enumerate() {
        let total_steps: u64 = r.steps.iter().sum();
        json.push_str(&format!(
            "    {{ \"cell\": \"{}\", \"ok\": {}, \"total_steps\": {} }}{}\n",
            r.cell,
            corpus.len() - r.errors.len(),
            total_steps,
            if j + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"mismatches\": {},\n", mismatches.len()));
    json.push_str("  \"mismatch_detail\": [\n");
    for (j, m) in mismatches.iter().take(20).enumerate() {
        json.push_str(&format!(
            "    \"{}\"{}\n",
            json_escape(m),
            if j + 1 < mismatches.len().min(20) {
                ","
            } else {
                ""
            }
        ));
    }
    json.push_str("  ]\n}\n");
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
