//! The committed `BENCH_*.json` archives all parse with the shared
//! report reader (`psi_tools::json::parse_report`), hold the shape
//! their writers promise, carry no host wall-time field where the
//! schema is all deterministic, and diff clean against themselves
//! through the shared keyed diff.

use psi_bench::drift::{diff_reports, DiffSpec, ReportDiff};
use psi_tools::json::{parse_report, JsonObject, Report};
use std::collections::BTreeMap;

fn read(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn archive(name: &str) -> Report {
    parse_report(&read(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Host wall-time fields the perf-v6, server-v3 and sweep-v2 schemas
/// dropped, and the run-size flag (`quick`) corpus-v4 dropped.
const WALL_FIELDS: [&str; 17] = [
    "wall_ns",
    "speedup_lane_c",
    "warmup",
    "repetitions",
    "quick",
    "wall_s",
    "throughput_qps",
    "p50_us",
    "p99_us",
    "mean_us",
    "wall_ns_total",
    "cell_wall_p50_ns",
    "cell_wall_p90_ns",
    "cell_wall_p99_ns",
    "engine_wall_ns",
    "fresh_wall_ns",
    "fresh_over_engine",
];

fn assert_no_wall_fields(report: &Report) {
    let objects = std::iter::once(&report.header)
        .chain(report.arrays.iter().flat_map(|(_, entries)| entries));
    for obj in objects {
        for (key, _) in obj.fields() {
            assert!(!WALL_FIELDS.contains(&key.as_str()), "wall field `{key}`");
        }
    }
}

/// Diffs an archive against itself under `spec`, which must be clean.
fn self_diff(report: &Report, spec: &DiffSpec) -> ReportDiff {
    let diff = diff_reports(report, report, spec).unwrap();
    assert!(!diff.has_drift(), "{}", diff.render());
    diff
}

fn str_of<'a>(obj: &'a JsonObject, key: &str) -> &'a str {
    obj.str_field(key).unwrap()
}

#[test]
fn perf_archive_has_four_cells_per_program() {
    let report = archive("BENCH_psi.json");
    assert_eq!(
        str_of(&report.header, "schema"),
        psi_bench::perf::PERF_SCHEMA
    );
    let rows = report.array("rows").unwrap();
    assert_eq!(rows.len(), 19);
    let mut cells: BTreeMap<&str, Vec<(&str, &str)>> = BTreeMap::new();
    for c in report.array("cells").unwrap() {
        c.u64_field("steps").unwrap();
        cells
            .entry(str_of(c, "program"))
            .or_default()
            .push((str_of(c, "lane"), str_of(c, "profile")));
    }
    assert_eq!(cells.len(), 19);
    for row in rows {
        let program = str_of(row, "program");
        assert_eq!(
            cells[program],
            [
                ("fidelity", "linear"),
                ("fidelity", "indexed"),
                ("compiled", "linear"),
                ("compiled", "indexed")
            ],
            "{program}"
        );
    }
    assert_no_wall_fields(&report);
    // 19 programs × 4 cells × 7 deterministic fields.
    let diff = self_diff(&report, &psi_bench::perf::PERF_DIFF);
    assert_eq!((diff.compared, diff.values), (76, 532));
}

#[test]
fn corpus_archive_is_500_ok_on_four_cells() {
    let report = archive("BENCH_corpus.json");
    assert_eq!(
        str_of(&report.header, "schema"),
        psi_bench::corpus::CORPUS_SCHEMA
    );
    assert_eq!(report.header.u64_field("count").unwrap(), 500);
    assert_eq!(report.header.u64_field("mismatches").unwrap(), 0);
    let cells = report.array("cells").unwrap();
    assert_eq!(cells.len(), 4);
    assert!(cells.iter().all(|c| c.u64_field("ok").unwrap() == 500));
    let programs: u64 = report
        .array("families")
        .unwrap()
        .iter()
        .map(|f| f.u64_field("programs").unwrap())
        .sum();
    assert_eq!(programs, 500);
    assert!(report.array("mismatch_detail").unwrap().is_empty());
    assert_no_wall_fields(&report);
    // 4 cells × 2 deterministic fields.
    let diff = self_diff(&report, &psi_bench::corpus::CORPUS_DIFF);
    assert_eq!((diff.compared, diff.values), (4, 8));
}

/// CI's corpus gate: `corpusbench diff` of the archive against itself
/// exits 0, and against a copy with one total-steps value moved by
/// one exits nonzero and names the cell and the field.
#[test]
fn corpusbench_diff_catches_one_moved_value() {
    let dir = std::env::temp_dir().join(format!("corpus-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let archive = format!("{}/../../BENCH_corpus.json", env!("CARGO_MANIFEST_DIR"));
    let copy = dir.join("BENCH_corpus.json");
    let text = read("BENCH_corpus.json");
    let diff = || {
        std::process::Command::new(env!("CARGO_BIN_EXE_corpusbench"))
            .arg("diff")
            .arg(&archive)
            .arg(&copy)
            .output()
            .expect("binary runs")
    };

    std::fs::write(&copy, &text).unwrap();
    let clean = diff();
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert!(clean.status.success(), "the archive must match: {stdout}");
    assert!(stdout.contains("4 cells compared, 8 values"), "{stdout}");

    let cell = "{\"cell\":\"compiled/indexed\",\"ok\":500,\"total_steps\":";
    let at = text.find(cell).unwrap() + cell.len();
    let end = text[at..].find('}').unwrap() + at;
    let steps: u64 = text[at..end].parse().unwrap();
    std::fs::write(
        &copy,
        format!("{}{}{}", &text[..at], steps + 1, &text[end..]),
    )
    .unwrap();
    let drifted = diff();
    let stdout = String::from_utf8_lossy(&drifted.stdout);
    assert!(!drifted.status.success(), "one moved value: {stdout}");
    assert!(stdout.contains("compiled/indexed DRIFT"), "{stdout}");
    assert!(stdout.contains("total_steps"), "{stdout}");
    assert!(stdout.contains("CORPUS DRIFT DETECTED"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn server_archive_has_nineteen_rows() {
    let report = archive("BENCH_server.json");
    assert_eq!(str_of(&report.header, "schema"), "psi-bench-server-v3");
    let rows = report.array("rows").unwrap();
    assert_eq!(rows.len(), 19);
    for row in rows {
        for key in ["queries", "solutions", "steps"] {
            row.u64_field(key).unwrap();
        }
    }
    assert_no_wall_fields(&report);
    for key in ["verified", "isolation_ok"] {
        assert_eq!(report.header.get(key).and_then(|v| v.as_bool()), Some(true));
    }
}

#[test]
fn sweep_archive_has_584_cells() {
    let report = archive("BENCH_sweep.json");
    assert_eq!(str_of(&report.header, "schema"), "psi-sweep-v3");
    // sweep-v3 dropped the resume and shard bookkeeping.
    for key in ["computed", "resumed", "unrun"] {
        assert!(report.header.get(key).is_none(), "header key `{key}`");
    }
    assert_eq!(report.header.u64_field("cells_total").unwrap(), 584);
    assert_eq!(report.array("cells").unwrap().len(), 584);
    assert_no_wall_fields(&report);
    // 584 cells × 5 numeric fields, less the hit and improvement
    // ratios the 8 fast-lane cells do not carry.
    let diff = self_diff(&report, &psi_bench::sweep::SWEEP_DIFF);
    assert_eq!((diff.compared, diff.values), (584, 2904));
}
