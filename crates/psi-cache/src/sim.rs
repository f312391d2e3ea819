//! The cache simulator proper: set-associative LRU over recency-ordered
//! sets of packed lines, with write-back, write-through and memory-busy
//! timing.

use crate::{CacheConfig, CacheStats, WritePolicy};
use psi_core::Address;

/// A cache command, as issued by the microprogram (§4.2, Table 3
/// columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheCommand {
    /// Read one word.
    Read,
    /// Write one word (read-modify-write of a block on a miss under
    /// store-in).
    Write,
    /// Write one word to a stack top: on a miss the block is allocated
    /// *without* being read from memory, because the continuation of a
    /// push sequence will overwrite it anyway (spec item (g)).
    WriteStack,
}

impl CacheCommand {
    /// Is this one of the two write commands?
    pub fn is_write(self) -> bool {
        matches!(self, CacheCommand::Write | CacheCommand::WriteStack)
    }

    /// A stable numeric code, used as the payload of cache-access
    /// observability events ([`psi_core::ObsEvent::cache_access`]).
    pub fn code(self) -> u32 {
        match self {
            CacheCommand::Read => 0,
            CacheCommand::Write => 1,
            CacheCommand::WriteStack => 2,
        }
    }
}

/// The result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Did the access hit in the cache?
    pub hit: bool,
    /// Extra stall beyond the 200 ns microcycle, in nanoseconds.
    pub stall_ns: u64,
}

/// A line packed into one word: `tag << 2 | DIRTY | VALID`. The tag
/// is at most the whole 32-bit address (one set of 1-word blocks), so
/// it always fits. An empty line is `0`.
const VALID: u64 = 1;
const DIRTY: u64 = 2;

/// A simulated PSI cache.
///
/// Each set keeps its lines in recency order: slot 0 holds the most
/// recently used line and the last slot the least recently used, the
/// LRU victim. A hit moves its line to slot 0; a fill shifts the set
/// down by one slot, dropping the victim, and enters at slot 0. Empty
/// lines therefore always sit at the tail and are filled first.
///
/// Drive it either directly from the machine simulator or by replaying
/// a recorded trace (the PMMS methodology, see `psi-tools`).
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(block_words)`: address to block number.
    block_shift: u32,
    /// `sets - 1`: block number to set index.
    set_mask: u32,
    /// `log2(sets)`: block number to tag.
    set_shift: u32,
    ways: usize,
    store_in: bool,
    write_stack_no_fetch: bool,
    /// `ways` packed lines per set, each set in recency order.
    lines: Vec<u64>,
    stats: CacheStats,
    /// Simulated time at which main memory becomes free again; used to
    /// model write-back and write-through memory occupancy.
    mem_free_at_ns: u64,
    /// The cache's own access clock, advanced by each access's cost.
    now_ns: u64,
}

impl Cache {
    /// Creates a cache with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration geometry is invalid
    /// (see [`CacheConfig::assert_valid`]).
    pub fn new(config: CacheConfig) -> Cache {
        config.assert_valid();
        // Both are powers of two (checked above), so a shift and a
        // mask index exactly as `/` and `%` would.
        let sets = config.sets();
        Cache {
            config,
            block_shift: config.block_words.trailing_zeros(),
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            ways: config.ways as usize,
            store_in: config.policy == WritePolicy::StoreIn,
            write_stack_no_fetch: config.write_stack_no_fetch,
            lines: vec![0; config.blocks() as usize],
            stats: CacheStats::new(),
            mem_free_at_ns: 0,
            now_ns: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (but not cache contents); used to exclude
    /// warm-up from measurements.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
    }

    /// Advances the cache clock by `ns` of non-memory computation.
    /// Letting time pass drains the write-back/write-through traffic
    /// that would otherwise stall later misses.
    pub fn advance(&mut self, ns: u64) {
        self.now_ns += ns;
    }

    /// Performs one access and returns whether it hit and how long it
    /// stalled the processor beyond the 200 ns cycle.
    // Inlined across crates into its two hot callers, PMMS replay and
    // the memory bus, where the call was a measurable share of an
    // access.
    #[inline]
    pub fn access(&mut self, cmd: CacheCommand, addr: Address) -> AccessOutcome {
        let (set, tag) = self.set_and_tag(addr);
        let start = set * self.ways;
        let lines = &mut self.lines[start..start + self.ways];
        let key = u64::from(tag) << 2 | VALID;
        // Find the line and move it to slot 0, testing slot 0 first.
        let hit = lines[0] & !DIRTY == key
            || match lines.iter().skip(1).position(|&l| l & !DIRTY == key) {
                Some(w) => {
                    lines[..=w + 1].rotate_right(1);
                    true
                }
                None => false,
            };

        let dirty = if cmd.is_write() { DIRTY } else { 0 };
        let mut stall = 0;
        if dirty != 0 && !self.store_in {
            // Write-through with one-deep write buffer and no write
            // allocation: a hit only refreshes the line's recency, and
            // the word goes to memory in either case.
            stall = self.wait_for_memory(0);
            self.occupy_memory_after(stall);
            self.stats.through_writes += 1;
        } else if hit {
            lines[0] |= dirty;
        } else {
            // Shift the set down one slot, dropping the LRU victim, and
            // enter the new block at slot 0.
            let victim = lines[self.ways - 1];
            lines.rotate_right(1);
            lines[0] = key | dirty;
            // A write-stack miss may allocate without read-in: the block
            // is claimed and dirtied but memory is never consulted, so
            // the push completes within the cycle.
            if !(cmd == CacheCommand::WriteStack && self.write_stack_no_fetch) {
                stall = self.wait_for_memory(0) + self.config.miss_extra_ns();
                // The block transfer keeps main memory busy beyond the
                // processor's own miss stall (spec (f)): a back-to-back
                // miss, a write-back, or a through-write racing this
                // fetch queues behind it.
                self.occupy_memory_after(stall);
                self.stats.block_fetches += 1;
            }
            if victim & DIRTY != 0 {
                // The dirty victim must be stored before its slot can
                // be reused; the store queues behind any transfer this
                // access started (its own block fetch).
                stall += self.wait_for_memory(stall);
                self.occupy_memory_after(stall);
                self.stats.writebacks += 1;
            }
        }

        let c = self.stats.area_mut(addr.area());
        let (issued, hits) = match cmd {
            CacheCommand::Read => (&mut c.reads, &mut c.read_hits),
            CacheCommand::Write => (&mut c.writes, &mut c.write_hits),
            CacheCommand::WriteStack => (&mut c.write_stacks, &mut c.write_stack_hits),
        };
        *issued += 1;
        *hits += u64::from(hit);
        self.now_ns += self.config.hit_ns + stall;
        AccessOutcome {
            hit,
            stall_ns: stall,
        }
    }

    /// Does `addr`'s block sit in slot 0 of its set, as the set's most
    /// recently used line? An access to it would then be a hit that
    /// changes nothing but the statistics and the clock.
    #[inline]
    pub fn is_mru(&self, addr: Address) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.lines[set * self.ways] & !DIRTY == u64::from(tag) << 2 | VALID
    }

    /// Marks the most recently used line of `addr`'s set dirty and
    /// returns whether it already was. The caller has checked
    /// [`Cache::is_mru`] for `addr`.
    #[inline]
    pub fn mark_mru_dirty(&mut self, addr: Address) -> bool {
        let (set, _) = self.set_and_tag(addr);
        let line = &mut self.lines[set * self.ways];
        let was_dirty = *line & DIRTY != 0;
        *line |= DIRTY;
        was_dirty
    }

    /// The set index and tag of `addr`: its block number modulo and
    /// divided by the set count.
    #[inline]
    fn set_and_tag(&self, addr: Address) -> (usize, u32) {
        let block = addr.raw() >> self.block_shift;
        ((block & self.set_mask) as usize, block >> self.set_shift)
    }

    /// Waits until main memory is free, measured from this access's
    /// current stall point (`now_ns + stall_so_far`); returns the
    /// extra wait in ns.
    fn wait_for_memory(&self, stall_so_far: u64) -> u64 {
        self.mem_free_at_ns
            .saturating_sub(self.now_ns + stall_so_far)
    }

    /// Marks main memory busy for `memory_busy_ns` beyond this
    /// access's current stall point. Every memory operation — block
    /// fetch, write-back, through-write — occupies memory this way, so
    /// a following operation queues behind it via
    /// [`Cache::wait_for_memory`].
    fn occupy_memory_after(&mut self, stall_so_far: u64) {
        self.mem_free_at_ns = self.now_ns + stall_so_far + self.config.memory_busy_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_core::{Area, ProcessId};

    fn addr(off: u32) -> Address {
        Address::new(ProcessId::ZERO, Area::LocalStack, off)
    }

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 4-word blocks = 32 words.
        Cache::new(CacheConfig::psi_with_capacity(32))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(CacheCommand::Read, addr(0)).hit);
        assert!(c.access(CacheCommand::Read, addr(0)).hit);
        assert!(
            c.access(CacheCommand::Read, addr(3)).hit,
            "same 4-word block"
        );
        assert!(!c.access(CacheCommand::Read, addr(4)).hit, "next block");
    }

    #[test]
    fn lru_eviction_within_set() {
        // tiny() = 8 blocks, 2 ways, 4 sets; blocks 16 words apart
        // share a set.
        let mut c = tiny();
        c.access(CacheCommand::Read, addr(0));
        c.access(CacheCommand::Read, addr(16));
        // touch block 0 so block at offset 16 becomes LRU
        c.access(CacheCommand::Read, addr(0));
        c.access(CacheCommand::Read, addr(32)); // evicts the block at 16
        assert!(c.access(CacheCommand::Read, addr(0)).hit);
        assert!(!c.access(CacheCommand::Read, addr(16)).hit, "was evicted");
    }

    #[test]
    fn write_stack_miss_does_not_fetch() {
        let mut c = tiny();
        let out = c.access(CacheCommand::WriteStack, addr(0));
        assert!(!out.hit);
        assert_eq!(out.stall_ns, 0, "no block read-in on write-stack miss");
        assert_eq!(c.stats().block_fetches, 0);
        // The block is now resident.
        assert!(c.access(CacheCommand::Read, addr(1)).hit);
    }

    #[test]
    fn plain_write_miss_fetches_under_store_in() {
        let mut c = tiny();
        let out = c.access(CacheCommand::Write, addr(0));
        assert!(!out.hit);
        assert_eq!(out.stall_ns, 600);
        assert_eq!(c.stats().block_fetches, 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = tiny();
        c.access(CacheCommand::WriteStack, addr(0)); // dirty block 0 in set 0
        c.access(CacheCommand::Read, addr(16)); // fill way 2 of set 0
        c.access(CacheCommand::Read, addr(32)); // evicts dirty block 0
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn store_through_sends_every_write_to_memory() {
        let mut c = Cache::new(CacheConfig {
            capacity_words: 32,
            ..CacheConfig::psi_store_through()
        });
        c.access(CacheCommand::Read, addr(0));
        c.access(CacheCommand::Write, addr(0));
        c.access(CacheCommand::Write, addr(1));
        assert_eq!(c.stats().through_writes, 2);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn back_to_back_through_writes_stall_on_the_buffer() {
        let mut c = Cache::new(CacheConfig {
            capacity_words: 32,
            ..CacheConfig::psi_store_through()
        });
        c.access(CacheCommand::Read, addr(0)); // make it resident
        c.advance(10_000); // drain the block fetch's memory occupancy
        let w1 = c.access(CacheCommand::Write, addr(0));
        let w2 = c.access(CacheCommand::Write, addr(1));
        assert_eq!(w1.stall_ns, 0, "buffer empty");
        assert!(w2.stall_ns > 0, "buffer still draining");
        // After enough computation time the buffer has drained.
        c.advance(10_000);
        let w3 = c.access(CacheCommand::Write, addr(2));
        assert_eq!(w3.stall_ns, 0);
    }

    /// Regression: `fetch_block` used to leave `mem_free_at_ns`
    /// untouched, so the block transfer of a miss never occupied main
    /// memory and an immediately following miss paid only its own
    /// transfer stall. The second of two back-to-back misses must also
    /// wait out the first fetch's remaining occupancy.
    #[test]
    fn back_to_back_misses_queue_on_memory() {
        let mut c = tiny();
        let m1 = c.access(CacheCommand::Read, addr(0));
        let m2 = c.access(CacheCommand::Read, addr(4));
        assert_eq!(m1.stall_ns, 600, "first miss: transfer only");
        assert_eq!(
            m2.stall_ns,
            600 + 600,
            "second miss: residual occupancy + transfer"
        );
        // Enough computation time between misses drains the occupancy.
        c.advance(10_000);
        let m3 = c.access(CacheCommand::Read, addr(8));
        assert_eq!(m3.stall_ns, 600, "drained: transfer only");
        // Hit ratios are untouched by the timing fix: three accesses,
        // three misses, exactly three block fetches.
        assert_eq!(c.stats().total().accesses(), 3);
        assert_eq!(c.stats().total().hits(), 0);
        assert_eq!(c.stats().block_fetches, 3);
    }

    /// Regression: a through-write racing a just-issued block fetch
    /// must queue behind the fetch's memory occupancy.
    #[test]
    fn through_write_queues_behind_block_fetch() {
        let mut c = Cache::new(CacheConfig {
            capacity_words: 32,
            ..CacheConfig::psi_store_through()
        });
        let miss = c.access(CacheCommand::Read, addr(0));
        assert_eq!(miss.stall_ns, 600);
        let w = c.access(CacheCommand::Write, addr(0));
        assert!(
            w.stall_ns > 0,
            "write must wait for the in-flight fetch, got {}",
            w.stall_ns
        );
    }

    /// A dirty eviction behind the same access's block fetch queues
    /// its write-back after the fetch instead of re-waiting the stale
    /// pre-fetch period (the old code double-counted the initial wait
    /// and never serialized the write-back behind the fetch).
    #[test]
    fn dirty_eviction_queues_writeback_behind_own_fetch() {
        let mut c = tiny();
        // Dirty both ways of set 0 without any fetch traffic.
        c.access(CacheCommand::WriteStack, addr(0));
        c.access(CacheCommand::WriteStack, addr(16));
        c.advance(10_000);
        // Store-in write miss in set 0: fetches the new block and must
        // write back the LRU dirty victim behind that fetch.
        let out = c.access(CacheCommand::Write, addr(32));
        assert_eq!(c.stats().writebacks, 1);
        assert!(
            out.stall_ns > 600,
            "write-back must add stall beyond the fetch, got {}",
            out.stall_ns
        );
    }

    #[test]
    fn stats_account_every_access() {
        let mut c = tiny();
        for i in 0..100 {
            c.access(CacheCommand::Read, addr(i % 40));
            c.access(CacheCommand::WriteStack, addr(200 + (i % 16)));
        }
        let t = c.stats().total();
        assert_eq!(t.accesses(), 200);
        assert_eq!(t.hits() + t.misses(), 200);
        assert!(c.stats().hit_ratio_pct().unwrap() > 50.0);
    }

    /// Replays `trace` with `step_ns` of computation before each
    /// access, as PMMS does; returns computation plus stall time.
    fn replay(c: &mut Cache, trace: impl IntoIterator<Item = Address>, step_ns: u64) -> u64 {
        let mut total = 0;
        for a in trace {
            c.advance(step_ns);
            total += step_ns + c.access(CacheCommand::Read, a).stall_ns;
        }
        total
    }

    #[test]
    fn replay_accumulates_time() {
        let mut c = tiny();
        let time = replay(&mut c, (0..10).map(|i| addr(i * 4)), 200);
        // 10 steps of 200 ns + 10 cold misses of 600 ns each... but the
        // tiny cache holds only 8 blocks (4 sets x 2 ways) so all
        // 10 are misses: at least 2000 + 6000.
        assert!(time >= 2000 + 6 * 600, "time = {time}");
        assert_eq!(c.stats().total().accesses(), 10);
    }

    #[test]
    fn larger_cache_never_hits_less_sequential() {
        // On a sequential read sweep, a bigger cache can only do better.
        let mut hits_prev = 0;
        for cap in [32u32, 128, 512, 2048] {
            let mut c = Cache::new(CacheConfig::psi_with_capacity(cap));
            replay(&mut c, (0..2048).map(|i| addr(i % 512)), 200);
            let hits = c.stats().total().hits();
            assert!(hits >= hits_prev, "cap {cap}: {hits} < {hits_prev}");
            hits_prev = hits;
        }
    }

    /// The shift-and-mask index equals the `/` and `%` formula for
    /// every geometry the repository builds: the Figure 1 capacities,
    /// sweepbench's default geometry axis and the §4.2 study points,
    /// on addresses that set every process, area and offset bit.
    #[test]
    fn shift_and_mask_index_matches_division() {
        let mut configs: Vec<CacheConfig> = (0..11)
            .map(|i| CacheConfig::psi_with_capacity(8 << i))
            .collect();
        for capacity_words in [32, 64, 256, 1024, 4096, 8192] {
            for ways in [1, 2] {
                for block_words in [4, 8] {
                    configs.push(CacheConfig {
                        capacity_words,
                        ways,
                        block_words,
                        ..CacheConfig::psi()
                    });
                }
            }
        }
        configs.push(CacheConfig::psi_direct_mapped_4k());
        configs.push(CacheConfig::psi_store_through());

        let max_offset = (1 << 27) - 1;
        let mut offsets = vec![0, 1, 3, 4, 7, 8, 4095, 4096, 8191, 8192];
        offsets.extend((0..27).map(|b| 1 << b));
        offsets.extend((1..=27).map(|b| max_offset >> (27 - b)));
        offsets.extend([max_offset - 1, max_offset, 0x555_5555, 0x2AA_AAAA]);
        for config in configs {
            let cache = Cache::new(config);
            let sets = config.sets();
            for p in 0..4 {
                for area in Area::ALL {
                    for &offset in &offsets {
                        let a = Address::new(ProcessId::new(p), area, offset);
                        let block = a.raw() / config.block_words;
                        assert_eq!(
                            cache.set_and_tag(a),
                            ((block % sets) as usize, block / sets),
                            "{config:?} at {:#x}",
                            a.raw()
                        );
                    }
                }
            }
        }
    }
}
