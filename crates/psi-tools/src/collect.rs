//! COLLECT: trace summaries.
//!
//! The paper's COLLECT ran in the console processor, single-stepping
//! the CPU and dumping "microinstruction addresses and the contents of
//! registers or memory... onto a flexible disk each time the CPU
//! stopped". Our equivalent is the simulator's in-memory memory-access
//! trace ([`psi_mem::TraceEntry`], from `Machine::take_trace`), which
//! PMMS replays directly; this module summarizes it.

use psi_mem::TraceEntry;

/// Summary statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Number of accesses.
    pub accesses: usize,
    /// Total steps spanned (last step − first step).
    pub steps_spanned: u64,
    /// Reads.
    pub reads: usize,
    /// Ordinary writes.
    pub writes: usize,
    /// Write-stack pushes.
    pub write_stacks: usize,
}

/// Summarizes a trace.
pub fn summarize(trace: &[TraceEntry]) -> TraceSummary {
    use psi_cache::CacheCommand;
    let mut s = TraceSummary {
        accesses: trace.len(),
        steps_spanned: 0,
        reads: 0,
        writes: 0,
        write_stacks: 0,
    };
    if let (Some(first), Some(last)) = (trace.first(), trace.last()) {
        s.steps_spanned = last.step.saturating_sub(first.step);
    }
    for e in trace {
        match e.command {
            CacheCommand::Read => s.reads += 1,
            CacheCommand::Write => s.writes += 1,
            CacheCommand::WriteStack => s.write_stacks += 1,
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_cache::CacheCommand;
    use psi_core::{Address, Area, ProcessId};

    fn sample() -> Vec<TraceEntry> {
        (0..10)
            .map(|i| TraceEntry {
                step: i * 3,
                command: if i % 3 == 0 {
                    CacheCommand::WriteStack
                } else {
                    CacheCommand::Read
                },
                address: Address::new(ProcessId::ZERO, Area::Heap, i as u32),
            })
            .collect()
    }

    #[test]
    fn summary_counts() {
        let s = summarize(&sample());
        assert_eq!(s.accesses, 10);
        assert_eq!(s.write_stacks, 4);
        assert_eq!(s.reads, 6);
        assert_eq!(s.steps_spanned, 27);
    }

    #[test]
    fn empty_trace_summary() {
        let s = summarize(&[]);
        assert_eq!(s.accesses, 0);
        assert_eq!(s.steps_spanned, 0);
    }
}
