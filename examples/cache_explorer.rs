//! Figure 1 interactively: trace a workload on the PSI, then replay
//! the trace through cache configurations with PMMS, printing the
//! performance-improvement curve and the §4.2 design studies.
//!
//! Run with: `cargo run --release --example cache_explorer`

use psi_cache::CacheConfig;
use psi_machine::MachineConfig;
use psi_tools::{collect, pmms};
use psi_workloads::{runner, window};

fn main() -> Result<(), psi_core::PsiError> {
    let workload = window::window(1);
    let mut config = MachineConfig::psi();
    config.trace_memory = true;

    let (run, mut machine) = runner::run_on_psi_machine(&workload, config)?;
    let trace = machine.take_trace();
    let steps = run.stats.steps;

    let summary = collect::summarize(&trace);
    println!(
        "collected {} accesses over {} steps ({} reads / {} writes / {} pushes)",
        summary.accesses, steps, summary.reads, summary.writes, summary.write_stacks
    );

    println!("\nFigure 1 — improvement ratio vs capacity:");
    let capacities = pmms::figure1_capacities();
    let configs: Vec<CacheConfig> = capacities
        .iter()
        .map(|&cap| CacheConfig::psi_with_capacity(cap))
        .collect();
    let ratios = pmms::geometry_sweep(&trace, &configs, 200, steps, 1);
    for (cap, ratio) in capacities.into_iter().zip(ratios) {
        println!(
            "  {cap:>5} words: {ratio:>6.1}%  {}",
            "#".repeat((ratio / 2.0).max(0.0) as usize)
        );
    }

    let (two, one) = pmms::associativity_study(&trace, 200, steps);
    println!("\ntwo 4KW sets: {two:.1}%   one 4KW set: {one:.1}%   (paper: ~3 points apart)");
    let (si, st) = pmms::policy_study(&trace, 200, steps);
    println!("store-in:     {si:.1}%   store-through: {st:.1}%   (paper: store-in 8% higher)");

    Ok(())
}
