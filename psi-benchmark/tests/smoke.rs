//! A one-second run of every workload, untraced and traced: every
//! check passes and every metric name is printed. Also holds the
//! metric catalogue and `BENCHMARK.json` together.

use psi_benchmark::json::{self, Json};
use psi_benchmark::spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::Command;

fn smoke(trace: bool) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_psi-benchmark"));
    cmd.args(["run", "--smoke"]);
    if trace {
        cmd.arg("--trace");
    }
    let out = cmd.output().expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("checks: all passed"), "{stdout}");
    assert!(!stdout.contains("FAILED"), "{stdout}");
    stdout
}

fn assert_prints(stdout: &str, specs: &[MetricSpec]) {
    for w in WORKLOADS {
        let section = stdout
            .split(&format!("## {w}\n"))
            .nth(1)
            .unwrap_or_else(|| panic!("no section for {w}:\n{stdout}"));
        let section = section.split("\n## ").next().unwrap_or_default();
        for m in specs {
            assert!(
                section.contains(&format!("  {} ", m.name)),
                "{w} does not print {}:\n{section}",
                m.name
            );
        }
    }
}

#[test]
fn smoke_run_passes_every_check_and_prints_every_metric() {
    let untraced = smoke(false);
    assert_prints(&untraced, &END_TO_END);
    for line in [
        "nproc:", "rustc:", "profile:", "commit:", "seed:", "window:",
    ] {
        assert!(untraced.contains(line), "header lacks {line}:\n{untraced}");
    }
    assert_prints(&smoke(true), &PER_LAYER);
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let v = json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        v.get(key)
            .map_or(&[][..], Json::as_arr)
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_owned()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let spec = |specs: &[MetricSpec]| -> Vec<(String, String)> {
        specs
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    };
    assert_eq!(names("end_to_end"), spec(&END_TO_END));
    assert_eq!(names("per_layer"), spec(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}
