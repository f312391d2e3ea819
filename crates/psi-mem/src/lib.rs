//! Simulated PSI memory subsystem.
//!
//! The PSI gives each process's four stacks and the shared heap
//! *independent logical address spaces* ("areas", §2.1). This crate
//! models:
//!
//! * [`Memory`] — word storage for every (process, area) pair,
//! * [`MemBus`] — the memory unit the interpreter talks to: every
//!   access goes through the attached [`Cache`](psi_cache::Cache)
//!   (or a bypass path when simulating the cache-less machine for the
//!   Figure 1 baseline), accumulates stall time, and can be traced for
//!   the COLLECT/PMMS tooling.
//!
//! # Example
//!
//! ```
//! use psi_core::{Address, Area, ProcessId, Word};
//! use psi_mem::MemBus;
//!
//! let mut bus = MemBus::with_psi_cache();
//! let a = Address::new(ProcessId::ZERO, Area::GlobalStack, 0);
//! bus.write_stack(a, Word::int(7))?;
//! assert_eq!(bus.read(a)?.int_value(), Some(7));
//! # Ok::<(), psi_core::PsiError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod storage;

pub use bus::{MemBus, TraceEntry};
pub use storage::Memory;
