//! The PSI machine reproduction's benchmark: four seeded workloads
//! that each stress different layers (the dispatch loop, the
//! paper-reproduction path with its cache model and PMMS replay, the
//! front end and code generation, and the query server), end-to-end
//! metrics measured with tracing off, and per-layer metrics from a
//! separate traced run. See `README.md` beside this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod openloop;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

use workloads::{Outcome, RunConfig};

/// Runs workload `name` in this process.
///
/// # Errors
///
/// An unknown workload name.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    Ok(match name {
        "solve-fast" => workloads::solve_fast::run(cfg),
        "sim-fidelity" => workloads::sim_fidelity::run(cfg),
        "consult-cold" => workloads::consult_cold::run(cfg),
        "serve" => workloads::serve::run(cfg),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {})",
                spec::WORKLOADS.join(", ")
            ))
        }
    })
}
