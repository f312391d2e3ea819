//! `psi-benchmark`: the command line.
//!
//! ```text
//! psi-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] [--smoke]
//!     Runs one workload in this process. The last line of standard
//!     output is the result object; the exit code is 0 only when every
//!     output check passed.
//! psi-benchmark run [--seed S] [--seconds N] [--trace] [--smoke] [--runs R]
//!                   [--workload W]... [--out FILE]
//!     Runs every workload (or the named ones) in a child process of
//!     its own, one at a time, R runs each with seeds S, S+1, ...;
//!     prints every run's numbers next to their median and writes the
//!     runs as JSON lines to FILE.
//! psi-benchmark compare A B [--benchmark FILE]
//!     Compares two results files by the bounds in BENCHMARK.json.
//! ```

use psi_benchmark::compare::{compare, read_records, Rules};
use psi_benchmark::report::{all_metrics_line, correct, header, result_line, Record, ALL_METRICS};
use psi_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use psi_benchmark::stats::median;
use psi_benchmark::workloads::RunConfig;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Window length when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
/// Window length of `run --trace` when `--seconds` is not given.
const DEFAULT_TRACE_SECONDS: f64 = 5.0;
/// Set-up runs at least this many times (the median is reported)...
const SETUP_RUNS: usize = 5;
/// ...and until it has taken this long in all.
const SETUP_SECONDS: f64 = 3.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => cmd_workload(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("psi-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Options shared by the workload and `run` modes.
#[derive(Debug, Default)]
struct Opts {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: Option<PathBuf>,
}

fn parse_opts(args: &[String], run_mode: bool) -> Result<Opts, String> {
    let mut o = Opts {
        seed: 1,
        runs: 1,
        ..Opts::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => o.workloads.push(value()?),
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                o.seconds = Some(s);
            }
            "--trace" if run_mode => o.trace = true,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => o.smoke = true,
            "--runs" if run_mode => {
                o.runs = value()?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--runs takes a positive integer")?;
            }
            "--out" if run_mode => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    for w in &o.workloads {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}` (expected one of {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(o)
}

/// Window length: `--smoke` means one second.
fn seconds(o: &Opts) -> f64 {
    match (o.smoke, o.seconds) {
        (true, _) => 1.0,
        (false, Some(s)) => s,
        (false, None) if o.trace => DEFAULT_TRACE_SECONDS,
        (false, None) => DEFAULT_SECONDS,
    }
}

fn cmd_workload(args: &[String]) -> Result<ExitCode, String> {
    let o = parse_opts(args, false)?;
    let [workload] = o.workloads.as_slice() else {
        return Err("name exactly one --workload (or use `run` / `compare`)".into());
    };
    let cfg = RunConfig {
        seed: o.seed,
        seconds: seconds(&o),
        trace: o.trace,
        setup_runs: if o.smoke { 1 } else { SETUP_RUNS },
        setup_seconds: if o.smoke { 0.0 } else { SETUP_SECONDS },
    };
    println!("{}", header(cfg.seed, cfg.seconds, cfg.trace));
    println!("workload: {workload}");
    let mut outcome = psi_benchmark::run_workload(workload, &cfg)?;
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in &outcome.metrics {
        let value = m
            .value
            .map_or_else(|| "n/a".to_owned(), |v| format!("{v:.6}"));
        println!("  {:<30} {value:>18} {}", m.name, m.unit);
    }
    if let Some(tracer) = outcome.tracer.take() {
        let path = Path::new("target/psi-benchmark").join(format!("trace-{workload}.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "  spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => println!("  spans: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", all_metrics_line(&outcome));
    let names: &[_] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result_line(&outcome, names));
    Ok(if correct(&outcome) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let o = parse_opts(args, true)?;
    let secs = seconds(&o);
    let workloads: Vec<String> = if o.workloads.is_empty() {
        WORKLOADS.iter().map(|w| (*w).to_owned()).collect()
    } else {
        o.workloads.clone()
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    println!("{}", header(o.seed, secs, o.trace));
    println!(
        "runs:    {} per workload, seeds {}..={}",
        o.runs,
        o.seed,
        o.seed.wrapping_add(o.runs as u64 - 1)
    );
    let mut all_ok = true;
    let mut records = Vec::new();
    for w in &workloads {
        let mut runs = Vec::new();
        for r in 0..o.runs {
            let seed = o.seed.wrapping_add(r as u64);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &secs.to_string()])
                .args(["--trace", if o.trace { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if o.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.output().map_err(|e| format!("cannot run {w}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            for line in stdout.lines().filter(|l| l.contains("FAILED")) {
                println!("{w} (seed {seed}): {}", line.trim());
            }
            let all = stdout.lines().find_map(|l| l.strip_prefix(ALL_METRICS));
            match all.map(|l| Record::from_result_line(w, seed, o.trace, l)) {
                Some(Ok(rec)) => {
                    all_ok &= output.status.success() && rec.correct;
                    runs.push(rec);
                }
                _ => {
                    println!("{w} (seed {seed}): no result ({})", output.status);
                    all_ok = false;
                }
            }
        }
        print_table(w, &runs);
        records.extend(runs);
    }
    if let Some(path) = &o.out {
        let conditions = header(o.seed, secs, o.trace).replace('\n', "; ");
        let text: String = std::iter::once(format!("{conditions}\n"))
            .chain(records.iter().map(|r| r.to_line() + "\n"))
            .collect();
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {} runs to {}", records.len(), path.display());
    }
    println!("checks: {}", if all_ok { "all passed" } else { "FAILED" });
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every metric of one workload: each run's value, then the median.
fn print_table(workload: &str, runs: &[Record]) {
    let Some(first) = runs.first() else { return };
    println!("\n## {workload}");
    for (name, unit, _) in &first.metrics {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.get(name)).collect();
        let raw: Vec<String> = runs
            .iter()
            .map(|r| {
                r.get(name)
                    .map_or_else(|| "n/a".to_owned(), |v| format!("{v:.4}"))
            })
            .collect();
        let mid = if values.is_empty() {
            "n/a".to_owned()
        } else {
            format!("{:.4}", median(&values))
        };
        println!(
            "  {name:<30} {unit:<9} median {mid:>14}   runs [{}]",
            raw.join(", ")
        );
    }
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut bench: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            bench = Some(it.next().ok_or("--benchmark needs a path")?.into());
        } else {
            files.push(a.clone());
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("compare takes two results files".into());
    };
    let bench = bench.unwrap_or_else(|| {
        ["BENCHMARK.json", "../BENCHMARK.json"]
            .into_iter()
            .map(PathBuf::from)
            .find(|p| p.exists())
            .unwrap_or_else(|| "BENCHMARK.json".into())
    });
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let rules = Rules::from_benchmark(&read(&bench)?)?;
    let ra = read_records(&read(Path::new(a))?)?;
    let rb = read_records(&read(Path::new(b))?)?;
    let c = compare(&rules, &ra, &rb);
    println!(
        "{:<13} {:<16} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "worse", "bound"
    );
    for r in &c.rows {
        println!(
            "{:<13} {:<16} {:>12.4} {:>6.1}% {:>12.4} {:>6.1}% {:>7.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.a.0,
            r.a.1 * 100.0,
            r.b.0,
            r.b.1 * 100.0,
            r.worsening * 100.0,
            r.bound * 100.0,
            r.verdict
        );
    }
    for (w, seed, metric, values) in &c.changed_counts {
        println!("count changed: {w} seed {seed} {metric}: {values:?}");
    }
    println!(
        "compare: {}",
        if c.passed() {
            "no regression"
        } else {
            "REGRESSION"
        }
    );
    Ok(if c.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
