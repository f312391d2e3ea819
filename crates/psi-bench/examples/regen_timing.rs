//! Measures serial vs parallel regeneration wall-clock for the
//! Table 1 suite and the Figure 1 capacity sweep. The numbers quoted
//! in EXPERIMENTS.md ("Regeneration performance") come from this
//! example: `cargo run --release -p psi-bench --example regen_timing`.

use psi_cache::CacheConfig;
use psi_core::Measurement;
use psi_machine::MachineConfig;
use psi_tools::pmms;
use psi_workloads::runner::{default_parallelism, run_on_psi_machine, run_suite_parallel_with};
use psi_workloads::suite::table1_suite;
use psi_workloads::window;
use std::time::Instant;

fn main() {
    let threads = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(default_parallelism);
    println!(
        "host parallelism: {} (timing with {threads} workers)",
        default_parallelism()
    );

    // Table 1 suite: PSI side of all nineteen rows.
    let workloads: Vec<_> = table1_suite().into_iter().map(|e| e.workload).collect();
    let config = MachineConfig::psi();
    let t = Instant::now();
    let serial = run_suite_parallel_with(&workloads, &config, Measurement::Full, 1);
    let serial_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let parallel = run_suite_parallel_with(&workloads, &config, Measurement::Full, threads);
    let parallel_s = t.elapsed().as_secs_f64();
    for (a, b) in serial.iter().zip(&parallel) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.stats, b.stats, "parallel run must be bit-identical");
    }
    println!(
        "table1 suite  : serial {serial_s:.2}s, parallel {parallel_s:.2}s, \
         speedup {:.2}x",
        serial_s / parallel_s
    );

    // Figure 1: trace the WINDOW run once, then sweep 11 capacities.
    let mut config = MachineConfig::psi();
    config.trace_memory = true;
    let w = window::window(1);
    let (run, mut machine) = run_on_psi_machine(&w, config).expect("window runs");
    let trace = machine.take_trace();
    let steps = run.stats.steps;
    let capacities: Vec<CacheConfig> = pmms::figure1_capacities()
        .into_iter()
        .map(CacheConfig::psi_with_capacity)
        .collect();
    let t = Instant::now();
    let serial_sweep = pmms::geometry_sweep(&trace, &capacities, 200, steps, 1);
    let serial_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let parallel_sweep = pmms::geometry_sweep(&trace, &capacities, 200, steps, threads);
    let parallel_s = t.elapsed().as_secs_f64();
    assert_eq!(serial_sweep, parallel_sweep, "sweep must be identical");
    println!(
        "figure1 sweep : serial {serial_s:.2}s, parallel {parallel_s:.2}s, \
         speedup {:.2}x",
        serial_s / parallel_s
    );
}
