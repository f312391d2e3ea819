//! PMMS-style parametric cache simulator.
//!
//! The paper's authors built a cache memory simulator called **PMMS**
//! to study hit ratios under varying cache specifications (§4.1). This
//! crate is that simulator: a trace- or execution-driven model of the
//! PSI cache with every parameter of the real hardware exposed:
//!
//! * capacity (the real machine had 8K words; Figure 1 sweeps 8 W–8 KW),
//! * set associativity ("two-set set associative" = 2 ways),
//! * 4-word blocks with 800 ns block transfer,
//! * store-in (write-back) vs. store-through (write-through) policy,
//! * the specialized **write-stack** command that skips block read-in
//!   on a write miss (used for pushes to stack tops, spec item (g)).
//!
//! Timing follows §2.2: 200 ns on a hit, 800 ns on a miss.
//!
//! Replacement is LRU within a set. Each set keeps its lines in
//! recency order, most recently used first, with each line packed into
//! one word (tag, valid and dirty bits), so a hit moves its line to the
//! front and a miss evicts the last line. The same [`Cache`] serves the
//! machine's live memory bus and PMMS trace replay.
//!
//! # Example
//!
//! ```
//! use psi_cache::{Cache, CacheCommand, CacheConfig};
//! use psi_core::{Address, Area, ProcessId};
//!
//! let mut cache = Cache::new(CacheConfig::psi());
//! let a = Address::new(ProcessId::ZERO, Area::LocalStack, 0);
//! let first = cache.access(CacheCommand::Read, a);
//! let second = cache.access(CacheCommand::Read, a);
//! assert!(!first.hit);
//! assert!(second.hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod sim;
mod stats;

pub use config::{CacheConfig, WritePolicy};
pub use sim::{AccessOutcome, Cache, CacheCommand};
pub use stats::{AreaCacheCounters, CacheStats};
