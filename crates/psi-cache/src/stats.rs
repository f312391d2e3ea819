//! Per-area cache statistics, the raw material of Tables 3–5.

use psi_core::{Area, AREA_COUNT};

/// Hit/miss counters for one memory area and the three cache commands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AreaCacheCounters {
    /// Read commands issued.
    pub reads: u64,
    /// Ordinary write commands issued.
    pub writes: u64,
    /// Write-stack commands issued.
    pub write_stacks: u64,
    /// Read commands that hit.
    pub read_hits: u64,
    /// Write commands that hit.
    pub write_hits: u64,
    /// Write-stack commands that hit.
    pub write_stack_hits: u64,
}

impl AreaCacheCounters {
    /// Total accesses to this area.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes + self.write_stacks
    }

    /// Total hits in this area.
    pub fn hits(&self) -> u64 {
        self.read_hits + self.write_hits + self.write_stack_hits
    }

    /// Total misses in this area.
    pub fn misses(&self) -> u64 {
        self.accesses() - self.hits()
    }

    /// Hit ratio in percent, or `None` if the area was never accessed.
    pub fn hit_ratio_pct(&self) -> Option<f64> {
        let a = self.accesses();
        (a > 0).then(|| self.hits() as f64 * 100.0 / a as f64)
    }

    /// Total write commands of either kind.
    pub fn all_writes(&self) -> u64 {
        self.writes + self.write_stacks
    }

    fn merge(&mut self, other: &AreaCacheCounters) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.write_stacks += other.write_stacks;
        self.read_hits += other.read_hits;
        self.write_hits += other.write_hits;
        self.write_stack_hits += other.write_stack_hits;
    }
}

/// Aggregate statistics of one cache simulation run.
///
/// Backed entirely by fixed-size arrays of counters, so it is `Copy`:
/// snapshotting a run's statistics is a bit copy, never a heap clone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    per_area: [AreaCacheCounters; AREA_COUNT],
    /// Dirty blocks written back to main memory (store-in only).
    pub writebacks: u64,
    /// Blocks fetched from main memory.
    pub block_fetches: u64,
    /// Individual words sent to memory by store-through writes.
    pub through_writes: u64,
}

impl CacheStats {
    /// Creates zeroed statistics.
    pub fn new() -> CacheStats {
        CacheStats::default()
    }

    /// The counters for `area`.
    pub fn area(&self, area: Area) -> &AreaCacheCounters {
        &self.per_area[area.index()]
    }

    /// Mutable counters for `area` (used by the simulator).
    pub fn area_mut(&mut self, area: Area) -> &mut AreaCacheCounters {
        &mut self.per_area[area.index()]
    }

    /// Counters summed over all areas.
    pub fn total(&self) -> AreaCacheCounters {
        let mut t = AreaCacheCounters::default();
        for c in &self.per_area {
            t.merge(c);
        }
        t
    }

    /// Overall hit ratio in percent, or `None` if nothing was accessed.
    pub fn hit_ratio_pct(&self) -> Option<f64> {
        self.total().hit_ratio_pct()
    }

    /// The share of each area in total accesses, in percent, in
    /// [`Area::ALL`](psi_core::Area::ALL) order (Table 4 rows).
    pub fn area_shares_pct(&self) -> [f64; AREA_COUNT] {
        let total = self.total().accesses().max(1) as f64;
        let mut out = [0.0; AREA_COUNT];
        for area in Area::ALL {
            out[area.index()] = self.per_area[area.index()].accesses() as f64 * 100.0 / total;
        }
        out
    }

    /// Read-to-write command ratio (the paper reports ≈ 3:1).
    pub fn read_write_ratio(&self) -> Option<f64> {
        let t = self.total();
        (t.all_writes() > 0).then(|| t.reads as f64 / t.all_writes() as f64)
    }

    /// Write-stack share of all write commands in percent (the paper
    /// reports 50–75%).
    pub fn write_stack_share_pct(&self) -> Option<f64> {
        let t = self.total();
        (t.all_writes() > 0).then(|| t.write_stacks as f64 * 100.0 / t.all_writes() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_have_no_ratios() {
        let s = CacheStats::new();
        assert_eq!(s.hit_ratio_pct(), None);
        assert_eq!(s.read_write_ratio(), None);
        assert_eq!(s.write_stack_share_pct(), None);
        assert_eq!(s.total().accesses(), 0);
        // No 0/0 → NaN anywhere on fresh stats: per-area ratios are
        // None and the share table is exactly zero.
        for area in Area::ALL {
            assert_eq!(s.area(area).hit_ratio_pct(), None);
            assert_eq!(s.area(area).misses(), 0);
        }
        for share in s.area_shares_pct() {
            assert_eq!(share, 0.0);
            assert!(share.is_finite());
        }
    }

    #[test]
    fn derived_ratios() {
        let mut s = CacheStats::new();
        {
            let heap = s.area_mut(Area::Heap);
            heap.reads = 90;
            heap.read_hits = 81;
            heap.writes = 20;
            heap.write_hits = 20;
            heap.write_stacks = 10;
            heap.write_stack_hits = 10;
        }
        let t = s.total();
        assert_eq!(t.accesses(), 120);
        assert_eq!(t.hits(), 111);
        assert_eq!(t.misses(), 9);
        assert!((s.hit_ratio_pct().unwrap() - 92.5).abs() < 1e-9);
        assert!((s.read_write_ratio().unwrap() - 3.0).abs() < 1e-9);
        assert!((s.write_stack_share_pct().unwrap() - 100.0 / 3.0).abs() < 1e-9);
        let shares = s.area_shares_pct();
        assert!((shares[Area::Heap.index()] - 100.0).abs() < 1e-9);
        assert_eq!(shares[Area::TrailStack.index()], 0.0);
    }
}
