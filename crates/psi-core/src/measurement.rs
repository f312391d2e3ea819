//! The measurement lane selector shared by the memory unit and the
//! interpreter.

/// Which execution lane a machine runs in.
///
/// The paper's numbers (Tables 2–7, Figure 1) come from *measured*
/// runs: every memory access drives the cache-occupancy model, can be
/// traced, and can emit observability events. Nothing about the
/// *answers* depends on that bookkeeping, so a caller that only wants
/// solutions can turn it off.
///
/// * [`Measurement::Full`] — the fidelity lane (Lane A, the default).
///   All measurement machinery runs; archived experiment outputs are
///   bit-reproducible.
/// * [`Measurement::Off`] — the fast lane. The memory unit skips the
///   cache simulator, address tracing and event recording, and the
///   interpreter dispatches from a fused, pre-classified copy of the
///   loaded code with pre-recorded step charges. Microinstruction
///   *step* accounting is still charged identically — solutions, step
///   totals and per-module tallies are bit-identical to the fidelity
///   lane; only cache statistics and stall time (hence simulated wall
///   time) are zero.
///
/// The lane is selected once, when the machine is loaded; it is not a
/// per-access decision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Measurement {
    /// Fidelity lane: full cache/trace/event measurement (default).
    #[default]
    Full,
    /// Fast lane: storage access and step counting only.
    Off,
}

impl Measurement {
    /// Is full measurement on?
    pub fn is_full(self) -> bool {
        matches!(self, Measurement::Full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full() {
        assert_eq!(Measurement::default(), Measurement::Full);
        assert!(Measurement::Full.is_full());
        assert!(!Measurement::Off.is_full());
    }
}
