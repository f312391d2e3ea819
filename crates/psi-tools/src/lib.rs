//! Reimplementations of the paper's measurement tooling (§4.1).
//!
//! * [`collect`] — COLLECT: capture and persist execution traces
//!   (microstep-stamped cache commands with addresses), as the
//!   console-processor tool dumped them "onto a flexible disk";
//! * [`events`] — export/import of observability event streams
//!   (JSON lines) captured from the machine's bounded event ring;
//! * [`json`] — the shared hand-rolled flat-JSON codec behind the
//!   line-oriented formats (event export, bench archives, and the
//!   `psi-server` wire protocol);
//! * [`map`] — MAP: count microinstruction field patterns, producing
//!   the work-file (Table 6) and branch (Table 7) analyses;
//! * [`pmms`] — PMMS: replay a collected trace through arbitrary
//!   cache configurations to obtain hit ratios and performance
//!   improvement ratios (Table 5, Figure 1, and the §4.2
//!   associativity and write-policy studies);
//! * [`quantile`] — the type-7 percentile estimator behind
//!   `psi-benchmark`'s workload timings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collect;
pub mod events;
pub mod json;
pub mod map;
pub mod pmms;
pub mod quantile;
pub mod snapshot;
