//! Both execution lanes end to end: run the same workload in the
//! fidelity lane (full measurement, the lane the archived tables come
//! from) and the fast lane (measurement off, fused dispatch), show
//! that every deterministic quantity matches bit-for-bit, and time
//! the difference.
//!
//! ```sh
//! cargo run --release --example lanes_demo
//! ```

use psi::psi_machine::MachineConfig;
use psi::psi_workloads::runner::run_on_psi;
use psi::psi_workloads::suite::table1_suite;
use std::time::Instant;

fn main() {
    let entry = table1_suite()
        .into_iter()
        .find(|e| e.workload.name.contains("tarai3"))
        .expect("tarai3 is a Table 1 row");
    let w = &entry.workload;

    let t = Instant::now();
    let fid = run_on_psi(w, MachineConfig::psi()).expect("fidelity run");
    let fid_wall = t.elapsed();

    let t = Instant::now();
    let fast = run_on_psi(w, MachineConfig::psi_compiled()).expect("fast run");
    let fast_wall = t.elapsed();

    assert_eq!(fid.solutions, fast.solutions, "solutions must match");
    assert_eq!(fid.stats.steps, fast.stats.steps, "microsteps must match");
    assert_eq!(fid.stats.modules, fast.stats.modules, "Table 2 must match");
    assert_eq!(
        fid.stats.branches, fast.stats.branches,
        "Table 7 must match"
    );

    println!("workload            {}", w.name);
    println!(
        "solutions           {} (identical in both lanes)",
        fid.solutions.len()
    );
    println!(
        "microsteps          {} (identical in both lanes)",
        fid.stats.steps
    );
    println!("fidelity wall       {fid_wall:?}");
    println!(
        "fast wall           {fast_wall:?} ({:.2}x)",
        fid_wall.as_secs_f64() / fast_wall.as_secs_f64()
    );
    let cache = fid.stats.cache.total();
    println!(
        "skipped when fast   cache stats (fidelity recorded {} memory commands), WF counts, stall time",
        cache.reads + cache.writes + cache.write_stacks
    );
}
