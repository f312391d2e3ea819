//! The committed `BENCH_*.json` archives all parse with the shared
//! report reader (`psi_tools::json::parse_report`) and hold the shape
//! their writers promise.

use psi_tools::json::{parse_report, JsonObject, Report};
use std::collections::BTreeMap;

fn read(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn archive(name: &str) -> Report {
    parse_report(&read(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
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
    let steps = psi_bench::perf::archived_steps(&read("BENCH_psi.json")).unwrap();
    assert_eq!(steps.len(), 19);
}

#[test]
fn corpus_archive_is_500_ok_on_four_cells() {
    let report = archive("BENCH_corpus.json");
    assert_eq!(str_of(&report.header, "schema"), "psi-bench-corpus-v3");
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
}

#[test]
fn server_archive_has_nineteen_rows() {
    let report = archive("BENCH_server.json");
    assert_eq!(str_of(&report.header, "schema"), "psi-bench-server-v2");
    assert_eq!(report.array("rows").unwrap().len(), 19);
    for key in ["verified", "isolation_ok"] {
        assert_eq!(report.header.get(key).and_then(|v| v.as_bool()), Some(true));
    }
}

#[test]
fn sweep_archive_has_584_cells() {
    let report = archive("BENCH_sweep.json");
    assert_eq!(str_of(&report.header, "schema"), "psi-sweep-v1");
    assert_eq!(report.header.u64_field("cells_total").unwrap(), 584);
    let cells = psi_bench::sweep::parse_report_cells(&read("BENCH_sweep.json")).unwrap();
    assert_eq!(cells.len(), 584);
}
