//! Facade crate re-exporting every subsystem of the PSI machine
//! reproduction. See README.md for the architecture overview.
#![forbid(unsafe_code)]

pub use dec10;
pub use kl0;
pub use psi_bench;
pub use psi_cache;
pub use psi_core;
pub use psi_machine;
pub use psi_mem;
pub use psi_obs;
pub use psi_server;
pub use psi_tools;
pub use psi_workloads;
