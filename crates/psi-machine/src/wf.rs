//! The work file (WF): the PSI's 1K-word multi-function register file.
//!
//! §2.2: the WF holds the interpreter's registers, a 64-word constant
//! area, and a *pair of frame buffers* which cache the local variables
//! of the current execution so that, under tail recursion
//! optimization, "local stack accesses are reduced into the work file
//! access". Every microinstruction can address the WF from three
//! fields — Source 1 (ALU input 1), Source 2 (ALU input 2, dual-port
//! area only) and Destination (ALU output) — in seven addressing
//! modes. Table 6 of the paper is the dynamic frequency of those
//! modes, which [`WfStats`] accumulates.

use psi_core::Word;
use std::fmt;

/// Total WF capacity in words.
pub const WF_WORDS: usize = 1024;
/// Word offsets of the two 64-word local frame buffers.
pub const FRAME_BUFFER_BASE: [u32; 2] = [0x40, 0x80];
/// Size of each frame buffer in words.
pub const FRAME_BUFFER_WORDS: u32 = 64;
/// Base of the trail buffer addressed through WFAR2.
pub const TRAIL_BUFFER_BASE: u32 = 0xC0;
/// Base of the 64-word constant area (last 64 words, §2.2).
pub const CONSTANT_BASE: u32 = 0x3C0;

/// A WF addressing mode (Table 6 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum WfMode {
    /// (1) Direct access to WF00–0F, the dual-port first 16 words.
    Direct00 = 0,
    /// (2) Direct access to WF10–3F.
    Direct10 = 1,
    /// (3) The constant storage area.
    Constant = 2,
    /// (4) Base-relative through the low 5 bits of PDR or CDR.
    BasePdrCdr = 3,
    /// (5) Indirect through WFAR1 (with auto increment/decrement);
    /// used for the local frame buffer.
    IndWfar1 = 4,
    /// (6) Indirect through WFAR2; used for the trail buffer.
    IndWfar2 = 5,
    /// (7) Base-relative through WFCBR (general purpose).
    BaseWfcbr = 6,
}

impl WfMode {
    /// All modes in Table 6 row order.
    pub const ALL: [WfMode; 7] = [
        WfMode::Direct00,
        WfMode::Direct10,
        WfMode::Constant,
        WfMode::BasePdrCdr,
        WfMode::IndWfar1,
        WfMode::IndWfar2,
        WfMode::BaseWfcbr,
    ];

    /// Dense index.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Table 6 row label.
    pub fn label(self) -> &'static str {
        match self {
            WfMode::Direct00 => "WF00-0F",
            WfMode::Direct10 => "WF10-3F",
            WfMode::Constant => "constant",
            WfMode::BasePdrCdr => "@PDR/CDR",
            WfMode::IndWfar1 => "@WFAR1",
            WfMode::IndWfar2 => "@WFAR2",
            WfMode::BaseWfcbr => "@WFCBR",
        }
    }

    /// Is this one of the three direct addressing variants? The paper
    /// finds these cover 90%+ of accesses.
    pub fn is_direct(self) -> bool {
        matches!(self, WfMode::Direct00 | WfMode::Direct10 | WfMode::Constant)
    }
}

impl fmt::Display for WfMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which microinstruction field performed the access (Table 6
/// columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum WfField {
    /// Source 1 — controls ALU input 1; all seven modes available.
    Source1 = 0,
    /// Source 2 — controls ALU input 2; restricted to the dual-port
    /// WF00–0F area.
    Source2 = 1,
    /// Destination — controls the ALU output bus.
    Destination = 2,
}

impl WfField {
    /// All fields in Table 6 column order.
    pub const ALL: [WfField; 3] = [WfField::Source1, WfField::Source2, WfField::Destination];

    /// Dense index.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Table 6 column label.
    pub fn label(self) -> &'static str {
        match self {
            WfField::Source1 => "source 1",
            WfField::Source2 => "source 2",
            WfField::Destination => "destination",
        }
    }
}

/// Dynamic frequency of WF access modes per field (Table 6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WfStats {
    counts: [[u64; 7]; 3],
    wfar1_auto: u64,
    wfar1_manual: u64,
}

impl WfStats {
    /// Accesses by `field` in `mode`.
    pub fn count(&self, field: WfField, mode: WfMode) -> u64 {
        self.counts[field.index()][mode.index()]
    }

    /// Total accesses by `field`.
    pub fn field_total(&self, field: WfField) -> u64 {
        self.counts[field.index()].iter().sum()
    }

    /// Total WF accesses over all fields.
    pub fn total(&self) -> u64 {
        WfField::ALL.iter().map(|f| self.field_total(*f)).sum()
    }

    /// Mode share within a field, percent (the `†` figures of
    /// Table 6).
    pub fn mode_share_pct(&self, field: WfField, mode: WfMode) -> f64 {
        let t = self.field_total(field).max(1) as f64;
        self.count(field, mode) as f64 * 100.0 / t
    }

    /// Field access rate against a step count, percent (the `‡`
    /// figures of Table 6).
    pub fn field_rate_pct(&self, field: WfField, steps: u64) -> f64 {
        self.field_total(field) as f64 * 100.0 / steps.max(1) as f64
    }

    /// Share of all accesses using the directly addressable areas and
    /// the frame buffers (the paper reports > 99%).
    pub fn coverage_direct_and_buffers_pct(&self) -> f64 {
        let t = self.total().max(1) as f64;
        let covered: u64 = WfField::ALL
            .iter()
            .flat_map(|f| {
                WfMode::ALL
                    .iter()
                    .filter(|m| {
                        m.is_direct() || **m == WfMode::IndWfar1 || **m == WfMode::BasePdrCdr
                    })
                    .map(move |m| self.count(*f, *m))
            })
            .sum();
        covered as f64 * 100.0 / t
    }

    /// Share of WFAR1 indirect accesses that used auto
    /// increment/decrement (the paper reports ≥ 90%).
    pub fn wfar1_auto_share_pct(&self) -> f64 {
        let t = (self.wfar1_auto + self.wfar1_manual).max(1) as f64;
        self.wfar1_auto as f64 * 100.0 / t
    }

    fn record(&mut self, field: WfField, mode: WfMode) {
        self.counts[field.index()][mode.index()] += 1;
    }

    /// Merges another run's statistics.
    pub fn merge(&mut self, other: &WfStats) {
        for f in 0..3 {
            for m in 0..7 {
                self.counts[f][m] += other.counts[f][m];
            }
        }
        self.wfar1_auto += other.wfar1_auto;
        self.wfar1_manual += other.wfar1_manual;
    }
}

/// The work file: 1K words of storage plus access statistics.
///
/// The interpreter reads and writes registers, constants, the frame
/// buffers and the trail buffer through the typed accessors, each of
/// which records the (field, mode) pair for Table 6.
#[derive(Debug, Clone)]
pub struct WorkFile {
    words: Vec<Word>,
    stats: WfStats,
    /// Fidelity lane: record every (field, mode) access for Table 6.
    /// The fast lane clears this once at load — the reference
    /// counters are pure measurement (storage semantics are
    /// unaffected), so skipping them cannot change solutions, steps
    /// or module tallies.
    measured: bool,
}

impl WorkFile {
    /// Creates a zeroed work file (fidelity lane by default).
    pub fn new() -> WorkFile {
        WorkFile {
            words: vec![Word::undef(); WF_WORDS],
            stats: WfStats::default(),
            measured: true,
        }
    }

    /// Selects the measurement lane (see [`psi_core::Measurement`]):
    /// `Full` records Table 6 reference counts, `Off` skips them.
    pub fn set_measurement(&mut self, lane: psi_core::Measurement) {
        self.measured = lane.is_full();
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &WfStats {
        &self.stats
    }

    /// Resets statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = WfStats::default();
    }

    /// Records a register read (no storage semantics needed — the
    /// interpreter's registers live in machine state; only the access
    /// pattern matters).
    #[inline]
    pub fn touch_read(&mut self, field: WfField, mode: WfMode) {
        if self.measured {
            self.stats.record(field, mode);
        }
    }

    /// Records a register write.
    #[inline]
    pub fn touch_write(&mut self, mode: WfMode) {
        if self.measured {
            self.stats.record(WfField::Destination, mode);
        }
    }

    /// Reads a frame-buffer word through WFAR1 (or PDR/CDR
    /// base-relative when `base_relative`).
    pub fn read_buffer(
        &mut self,
        buffer: usize,
        slot: u32,
        base_relative: bool,
        auto_increment: bool,
    ) -> Word {
        if self.measured {
            let mode = if base_relative {
                WfMode::BasePdrCdr
            } else {
                WfMode::IndWfar1
            };
            self.stats.record(WfField::Source1, mode);
            if mode == WfMode::IndWfar1 {
                if auto_increment {
                    self.stats.wfar1_auto += 1;
                } else {
                    self.stats.wfar1_manual += 1;
                }
            }
        }
        self.words[(FRAME_BUFFER_BASE[buffer] + slot) as usize]
    }

    /// Writes a frame-buffer word through WFAR1 (or PDR/CDR
    /// base-relative).
    pub fn write_buffer(
        &mut self,
        buffer: usize,
        slot: u32,
        word: Word,
        base_relative: bool,
        auto_increment: bool,
    ) {
        if self.measured {
            let mode = if base_relative {
                WfMode::BasePdrCdr
            } else {
                WfMode::IndWfar1
            };
            self.stats.record(WfField::Destination, mode);
            if mode == WfMode::IndWfar1 {
                if auto_increment {
                    self.stats.wfar1_auto += 1;
                } else {
                    self.stats.wfar1_manual += 1;
                }
            }
        }
        self.words[(FRAME_BUFFER_BASE[buffer] + slot) as usize] = word;
    }

    /// Records a trail-buffer access through WFAR2.
    #[inline]
    pub fn touch_trail_buffer(&mut self, write: bool) {
        if !self.measured {
            return;
        }
        if write {
            self.stats.record(WfField::Destination, WfMode::IndWfar2);
        } else {
            self.stats.record(WfField::Source1, WfMode::IndWfar2);
        }
    }
}

impl Default for WorkFile {
    fn default() -> WorkFile {
        WorkFile::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_core::Word;

    #[test]
    fn buffer_storage_roundtrip() {
        let mut wf = WorkFile::new();
        wf.write_buffer(0, 3, Word::int(7), false, true);
        wf.write_buffer(1, 3, Word::int(8), false, true);
        assert_eq!(wf.read_buffer(0, 3, false, true).int_value(), Some(7));
        assert_eq!(wf.read_buffer(1, 3, false, true).int_value(), Some(8));
    }

    #[test]
    fn stats_track_fields_and_modes() {
        let mut wf = WorkFile::new();
        wf.touch_read(WfField::Source1, WfMode::Direct10);
        wf.touch_read(WfField::Source1, WfMode::Constant);
        wf.touch_read(WfField::Source2, WfMode::Direct00);
        wf.touch_write(WfMode::Direct10);
        wf.read_buffer(0, 0, false, true);
        let s = wf.stats();
        assert_eq!(s.field_total(WfField::Source1), 3);
        assert_eq!(s.field_total(WfField::Source2), 1);
        assert_eq!(s.field_total(WfField::Destination), 1);
        assert_eq!(s.count(WfField::Source1, WfMode::IndWfar1), 1);
        assert_eq!(s.total(), 5);
    }

    #[test]
    fn mode_share_and_rates() {
        let mut wf = WorkFile::new();
        for _ in 0..3 {
            wf.touch_read(WfField::Source1, WfMode::Direct10);
        }
        wf.touch_read(WfField::Source1, WfMode::Constant);
        let s = wf.stats();
        assert!((s.mode_share_pct(WfField::Source1, WfMode::Direct10) - 75.0).abs() < 1e-9);
        assert!((s.field_rate_pct(WfField::Source1, 8) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn wfar1_auto_share() {
        let mut wf = WorkFile::new();
        for _ in 0..9 {
            wf.read_buffer(0, 0, false, true);
        }
        wf.read_buffer(0, 0, false, false);
        assert!((wf.stats().wfar1_auto_share_pct() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn coverage_counts_direct_and_buffer_modes() {
        let mut wf = WorkFile::new();
        wf.touch_read(WfField::Source1, WfMode::Direct00);
        wf.read_buffer(0, 0, false, true);
        wf.touch_trail_buffer(true); // not covered
        let cov = wf.stats().coverage_direct_and_buffers_pct();
        assert!((cov - 200.0 / 3.0).abs() < 1e-6, "cov = {cov}");
    }
}
