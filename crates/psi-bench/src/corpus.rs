//! The report `corpusbench` writes to `BENCH_corpus.json`: its schema
//! tag and the fields `corpusbench diff` compares exactly.

use crate::drift::DiffSpec;

/// Schema tag of the `BENCH_corpus.json` report.
pub const CORPUS_SCHEMA: &str = "psi-bench-corpus-v4";

/// The deterministic fields of a corpus report's `cells`, one cell per
/// (lane, indexing profile): programs that ran to their oracle's
/// answer and the steps they took in total.
pub const CORPUS_DIFF: DiffSpec = DiffSpec {
    name: "corpus",
    array: "cells",
    key: &["cell"],
    numbers: &["ok", "total_steps"],
    strings: &[],
};
