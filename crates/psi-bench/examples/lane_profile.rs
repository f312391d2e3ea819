//! Profiling driver: runs one Table 1 row repeatedly in a chosen
//! lane so a sampling profiler can attribute the hot path, and so
//! lane speedups can be timed outside the full perfbench harness.
//! Usage: lane_profile <name-substring> <fidelity|fast> <reps>
use psi_machine::MachineConfig;
use psi_workloads::runner::run_on_psi;
use psi_workloads::suite::table1_suite;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "tarai3".into());
    let lane = args.next().unwrap_or_else(|| "fast".into());
    let reps: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5);
    let config = if lane == "fast" {
        MachineConfig::psi_compiled()
    } else {
        MachineConfig::psi()
    };
    let entry = table1_suite()
        .into_iter()
        .find(|e| e.workload.name.contains(&name))
        .expect("row");
    for _ in 0..reps {
        let run = run_on_psi(&entry.workload, config.clone()).expect("run");
        assert!(!run.solutions.is_empty() || run.stats.steps > 0);
    }
    println!("done: {} x{reps} ({lane})", entry.workload.name);
}
