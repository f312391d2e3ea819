//! Concurrent-load benchmark for the query server.
//!
//! Spawns an in-process server, then drives it with N concurrent
//! client sessions, each running the Table 1 programs end-to-end
//! (connect → consult → solve → close, the serving unit of work),
//! while an isolation probe concurrently exhausts its own
//! session's tightened budget to prove one tenant's failure stays in
//! its session. Every streamed solution and step count is verified
//! against a serial in-process run of the same machine configuration
//! — concurrency must be bit-invisible.
//!
//! Usage: `cargo run --release -p psi-server --bin load-driver --
//! [--sessions N] [--passes M] [--rows FILTER] [--out PATH]`
//!
//! `--rows` selects a subset exactly like perfbench
//! ([`psi_workloads::suite::row_matches`]: 1-based row numbers or
//! name substrings, comma-separated); a subset is a spot check and
//! never overwrites the archived report. Writes `BENCH_server.json`
//! at the repository root by default: per-row query, solution and
//! step counts and the two verdicts, all deterministic. Latency and
//! throughput are measured by psi-benchmark's `serve` workload.
//! Exits nonzero on any verification or isolation failure.

use psi_server::{Client, ClientError, LimitsPatch, Server, ServerOptions};
use psi_tools::json::{ObjectBuilder, ReportBuilder};
use psi_workloads::suite::{row_matches, table1_suite};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;

struct Expected {
    name: String,
    goal: String,
    source: String,
    max: u64,
    bindings: Vec<String>,
    steps: u64,
}

#[derive(Default)]
struct RowStats {
    queries: u64,
    mismatches: u64,
}

fn main() -> ExitCode {
    let mut sessions: usize = 8;
    let mut passes: usize = 3;
    let mut rows_filter: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sessions" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => sessions = n,
                _ => return usage("--sessions requires a positive integer"),
            },
            "--passes" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => passes = n,
                _ => return usage("--passes requires a positive integer"),
            },
            "--rows" => match args.next() {
                Some(spec) => rows_filter = Some(spec),
                None => return usage("--rows requires a filter"),
            },
            "--out" => match args.next() {
                Some(p) => out_path = Some(p),
                None => return usage("--out requires a path"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let out_path = out_path
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json").into());
    let path = std::path::Path::new(&out_path);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() && !parent.is_dir() {
            eprintln!(
                "load-driver: output directory `{}` does not exist",
                parent.display()
            );
            return ExitCode::FAILURE;
        }
    }

    let suite: Vec<_> = table1_suite()
        .into_iter()
        .filter(|e| {
            rows_filter
                .as_deref()
                .is_none_or(|spec| row_matches(spec, e.index, &e.workload.name))
        })
        .collect();
    if suite.is_empty() {
        eprintln!(
            "load-driver: --rows `{}` matched no Table 1 programs",
            rows_filter.as_deref().unwrap_or("")
        );
        return ExitCode::FAILURE;
    }

    // Serial ground truth: the same serving configuration, no server,
    // no concurrency. Every session's streamed results must match
    // these bit-for-bit (bindings and simulated steps).
    eprintln!(
        "load-driver: computing serial reference for {} programs",
        suite.len()
    );
    let mut expected = Vec::new();
    for entry in &suite {
        let w = &entry.workload;
        let program = match kl0::Program::parse(&w.source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("load-driver: `{}` does not parse: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        let mut machine = match psi_machine::Machine::load(&program, psi_server::serving_config()) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("load-driver: `{}` does not load: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        let solutions = match machine.solve(&w.goal, w.max_solutions) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("load-driver: `{}` does not solve: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        expected.push(Expected {
            name: w.name.clone(),
            goal: w.goal.clone(),
            source: w.source.clone(),
            max: u64::try_from(w.max_solutions).unwrap_or(u64::MAX),
            bindings: solutions.iter().map(ToString::to_string).collect(),
            steps: machine.stats().steps,
        });
    }
    let expected = Arc::new(expected);

    let server = match Server::spawn(ServerOptions::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("load-driver: cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    eprintln!(
        "load-driver: server on {addr}, {sessions} sessions x {passes} passes x {} programs",
        expected.len()
    );

    let mut workers = Vec::new();
    for session_id in 0..sessions {
        let expected = Arc::clone(&expected);
        workers.push(std::thread::spawn(move || {
            run_session(session_id, addr, &expected, passes)
        }));
    }
    let probe = std::thread::spawn(move || isolation_probe(addr));

    let mut per_row: Vec<RowStats> = expected.iter().map(|_| RowStats::default()).collect();
    let mut transport_errors = 0u64;
    for w in workers {
        match w.join() {
            Ok(Ok(session_rows)) => {
                for (row, got) in per_row.iter_mut().zip(session_rows) {
                    row.queries += got.queries;
                    row.mismatches += got.mismatches;
                }
            }
            Ok(Err(e)) => {
                eprintln!("load-driver: session failed: {e}");
                transport_errors += 1;
            }
            Err(_) => {
                eprintln!("load-driver: session thread panicked");
                transport_errors += 1;
            }
        }
    }
    let isolation_ok = match probe.join() {
        Ok(Ok(())) => true,
        Ok(Err(e)) => {
            eprintln!("load-driver: isolation probe failed: {e}");
            false
        }
        Err(_) => {
            eprintln!("load-driver: isolation probe panicked");
            false
        }
    };
    let warm_hits = server.pool().idle_count();
    server.shutdown();

    let total_queries: u64 = per_row.iter().map(|r| r.queries).sum();
    let total_mismatches: u64 = per_row.iter().map(|r| r.mismatches).sum();
    let verified = total_mismatches == 0 && transport_errors == 0;

    println!("{total_queries} queries over {sessions} sessions, {warm_hits} machines left warm");
    println!(
        "verification: {}, isolation probe: {}",
        if verified {
            "all solutions and step counts identical to serial"
        } else {
            "MISMATCH"
        },
        if isolation_ok { "ok" } else { "FAILED" },
    );

    let rows = expected.iter().zip(&per_row).map(|(e, row)| {
        ObjectBuilder::new()
            .str("program", &e.name)
            .u64("queries", row.queries)
            .u64("solutions", e.bindings.len() as u64)
            .u64("steps", e.steps)
    });
    let json = ReportBuilder::new("psi-bench-server-v3")
        .u64("sessions", sessions as u64)
        .u64("passes", passes as u64)
        .u64("total_queries", total_queries)
        .bool("verified", verified)
        .bool("isolation_ok", isolation_ok)
        .array("rows", rows)
        .finish();
    // A row subset is a spot check, not the archive.
    if rows_filter.is_none() {
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("load-driver: cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {out_path}");
    }

    if verified && isolation_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One load session: `passes` rounds over the suite, each query a
/// fresh connection (connect → consult → solve → close), rotated by
/// `session_id` so sessions hit different programs at the same time.
fn run_session(
    session_id: usize,
    addr: SocketAddr,
    expected: &[Expected],
    passes: usize,
) -> Result<Vec<RowStats>, ClientError> {
    let mut rows: Vec<RowStats> = expected.iter().map(|_| RowStats::default()).collect();
    for _ in 0..passes {
        for offset in 0..expected.len() {
            let index = (session_id + offset) % expected.len();
            let e = &expected[index];
            let mut client = Client::connect(addr)?;
            client.consult(&e.source)?;
            let reply = client.solve(&e.goal, e.max)?;
            client.close()?;
            let row = &mut rows[index];
            row.queries += 1;
            if reply.bindings != e.bindings || reply.steps != e.steps {
                eprintln!(
                    "load-driver: `{}` diverged under load: {} solutions / {} steps, \
                     expected {} / {}",
                    e.name,
                    reply.bindings.len(),
                    reply.steps,
                    e.bindings.len(),
                    e.steps
                );
                row.mismatches += 1;
            }
        }
    }
    Ok(rows)
}

/// The tenancy check: a session that tightens its own budget and
/// exhausts it must get a typed `resource_exhausted` error — and then
/// keep working — while the load sessions run unperturbed.
fn isolation_probe(addr: SocketAddr) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    client
        .consult("nat(z). nat(s(X)) :- nat(X).")
        .map_err(|e| e.to_string())?;
    client
        .set_limits(&LimitsPatch {
            max_steps: Some(20_000),
            ..LimitsPatch::default()
        })
        .map_err(|e| e.to_string())?;
    match client.solve("nat(X)", u64::MAX) {
        Err(ClientError::Wire(w)) if w.kind == "resource_exhausted" => {}
        Err(e) => return Err(format!("expected resource_exhausted, got error {e}")),
        Ok(r) => {
            return Err(format!(
                "expected resource_exhausted, got {} solutions",
                r.bindings.len()
            ))
        }
    }
    // The same session survives its own exhaustion.
    let reply = client.solve("nat(z)", 1).map_err(|e| e.to_string())?;
    if reply.bindings != ["true"] {
        return Err(format!(
            "post-exhaustion solve answered {:?}",
            reply.bindings
        ));
    }
    client.close().map_err(|e| e.to_string())
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("load-driver: {msg}");
    eprintln!("usage: load-driver [--sessions N] [--passes M] [--rows FILTER] [--out PATH]");
    ExitCode::FAILURE
}
