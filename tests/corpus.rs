//! Property tests for the generated workload corpus: every seeded
//! program must produce its host-computed oracle solutions,
//! bit-identically, on both lanes × both indexing profiles, and
//! a corpus run under the governed suite layer must contain a
//! panicking row to that row alone.

use psi_machine::MachineConfig;
use psi_workloads::corpus::{generate, CorpusSpec};
use psi_workloads::runner::{run_on_psi, run_suite_governed_with_runner, Outcome, SuiteOptions};
use psi_workloads::Workload;

/// The four measurement cells: two lanes × {linear, indexed}.
fn cells() -> Vec<(&'static str, MachineConfig)> {
    let mut out = Vec::new();
    for (lane, base) in [
        ("fidelity", MachineConfig::psi()),
        ("compiled", MachineConfig::psi_compiled()),
    ] {
        for indexing in [false, true] {
            let mut config = base.clone();
            config.clause_indexing = indexing;
            let name: &'static str = match (lane, indexing) {
                ("fidelity", false) => "fidelity/linear",
                ("fidelity", true) => "fidelity/indexed",
                ("compiled", false) => "compiled/linear",
                _ => "compiled/indexed",
            };
            out.push((name, config));
        }
    }
    out
}

#[test]
fn hundred_seeded_programs_match_oracle_on_every_cell() {
    let corpus = generate(&CorpusSpec::quick(0xC0FFEE, 100));
    assert_eq!(corpus.len(), 100);
    for p in &corpus {
        // Step counts must agree across lanes *within* an indexing
        // profile; indexing itself legitimately changes the count.
        let mut ref_steps: [Option<u64>; 2] = [None, None];
        for (cell, config) in cells() {
            let indexed = cell.ends_with("indexed");
            let run = run_on_psi(&p.workload, config).unwrap_or_else(|e| {
                panic!("{} [{}] seed {:#x}: {e}", p.workload.name, cell, p.seed)
            });
            assert_eq!(
                run.solutions, p.expected,
                "{} [{}] seed {:#x}: solutions diverge from oracle",
                p.workload.name, cell, p.seed
            );
            match ref_steps[indexed as usize] {
                None => ref_steps[indexed as usize] = Some(run.stats.steps),
                Some(r) => assert_eq!(
                    run.stats.steps, r,
                    "{} [{}] seed {:#x}: step count diverges across lanes",
                    p.workload.name, cell, p.seed
                ),
            }
        }
    }
}

#[test]
fn corpus_runs_under_the_governed_suite() {
    let corpus = generate(&CorpusSpec::quick(0xBEEF, 21));
    let workloads: Vec<Workload> = corpus.iter().map(|p| p.workload.clone()).collect();
    let report = psi_workloads::runner::run_suite_governed(
        &workloads,
        &MachineConfig::psi_compiled(),
        &SuiteOptions::default(),
    );
    assert!(report.all_ok(), "{}", report.summary());
    for (row, p) in report.rows.iter().zip(&corpus) {
        match &row.outcome {
            Outcome::Ok(run) => assert_eq!(run.solutions, p.expected, "{}", row.name),
            other => panic!("{}: unexpected outcome {other:?}", row.name),
        }
    }
}

#[test]
fn panicking_generated_row_degrades_only_itself() {
    let corpus = generate(&CorpusSpec::quick(0xDEAD, 14));
    let workloads: Vec<Workload> = corpus.iter().map(|p| p.workload.clone()).collect();
    let victim = workloads[5].name.clone();
    let options = SuiteOptions {
        threads: 4,
        ..SuiteOptions::default()
    };
    let report =
        run_suite_governed_with_runner(&workloads, &MachineConfig::psi(), &options, |w, c| {
            if w.name == victim {
                panic!("injected corpus fault");
            }
            run_on_psi(w, c)
        });
    assert_eq!(report.panicked_count(), 1, "{}", report.summary());
    assert_eq!(report.ok_count(), workloads.len() - 1);
    for (row, p) in report.rows.iter().zip(&corpus) {
        if row.name == victim {
            assert!(matches!(&row.outcome, Outcome::Panicked { detail }
                if detail.contains("injected corpus fault")));
        } else {
            match &row.outcome {
                Outcome::Ok(run) => assert_eq!(run.solutions, p.expected, "{}", row.name),
                other => panic!("{}: unexpected outcome {other:?}", row.name),
            }
        }
    }
}
