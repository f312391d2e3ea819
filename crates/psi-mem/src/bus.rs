//! The memory unit: storage behind a cache, with stall accounting and
//! optional tracing.

use crate::Memory;
use psi_cache::{Cache, CacheCommand, CacheConfig, CacheStats};
use psi_core::{Address, Measurement, ObsEvent, Result, Word};
use psi_obs::EventRing;

/// One traced memory access: the microstep at which it happened, the
/// cache command, and the logical address. This is exactly what the
/// paper's COLLECT tool dumped for PMMS to replay (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Microinstruction step index at which the access occurred.
    pub step: u64,
    /// The cache command.
    pub command: CacheCommand,
    /// The logical address.
    pub address: Address,
}

#[derive(Debug, Clone)]
enum Attachment {
    /// A real cache.
    Cached(Box<Cache>),
    /// No cache: every access pays the full memory access time. This is
    /// the `Tnc` baseline of Figure 1's improvement-ratio definition.
    Uncached {
        stats: Box<CacheStats>,
        miss_extra_ns: u64,
    },
}

/// The memory unit the interpreter talks to.
///
/// All runtime accesses go through [`read`](MemBus::read),
/// [`write`](MemBus::write) and [`write_stack`](MemBus::write_stack),
/// which drive the cache model, accumulate stall time and optionally
/// record a trace. Code loading and debugging use the uncounted
/// [`peek`](MemBus::peek)/[`poke`](MemBus::poke) pair, mirroring how
/// the real machine loaded code through the console processor rather
/// than the cache.
///
/// # Execution lanes
///
/// The bus runs in one of two lanes, selected once via
/// [`MemBus::set_measurement`] (the machine does this at load, before
/// any counted access):
///
/// * [`Measurement::Full`] (default) — every counted access drives
///   the cache-occupancy model (stall accounting), the optional
///   address trace and the optional event ring.
/// * [`Measurement::Off`] — counted accesses take a straight-line
///   fast route: storage read/write only. [`MemBus::tick`] still
///   counts microsteps but lets no simulated memory traffic drain.
///   Each access pays a single always-predicted lane branch instead
///   of the measured route's branch tree (trace `Option`,
///   attachment match, event `Option`).
#[derive(Debug, Clone)]
pub struct MemBus {
    mem: Memory,
    attachment: Attachment,
    stall_ns: u64,
    step: u64,
    /// Lane flag: `true` in the fidelity lane. Hoisted out of the
    /// access routines' match tree so the fast lane tests one
    /// bool and jumps straight to storage.
    measured: bool,
    trace: Option<Vec<TraceEntry>>,
    /// Observability event ring: `None` (the default) records nothing
    /// and costs one branch per access, like `trace`.
    events: Option<Box<EventRing>>,
}

impl MemBus {
    /// A bus with the PSI production cache attached.
    pub fn with_psi_cache() -> MemBus {
        MemBus::with_cache(CacheConfig::psi())
    }

    /// A bus with an arbitrary cache configuration attached.
    pub fn with_cache(config: CacheConfig) -> MemBus {
        MemBus {
            mem: Memory::new(),
            attachment: Attachment::Cached(Box::new(Cache::new(config))),
            stall_ns: 0,
            step: 0,
            measured: true,
            trace: None,
            events: None,
        }
    }

    /// A bus with no cache: every access stalls for the full memory
    /// time (`miss_extra_ns` beyond the cycle). Used to measure `Tnc`
    /// in Figure 1's improvement ratio.
    pub fn without_cache() -> MemBus {
        let config = CacheConfig::psi();
        MemBus {
            mem: Memory::new(),
            attachment: Attachment::Uncached {
                stats: Box::new(CacheStats::new()),
                miss_extra_ns: config.miss_extra_ns(),
            },
            stall_ns: 0,
            step: 0,
            measured: true,
            trace: None,
            events: None,
        }
    }

    /// Selects the execution lane (see the type-level documentation).
    /// Call once before any counted access; switching lanes mid-run
    /// would split the cache statistics between models.
    pub fn set_measurement(&mut self, lane: Measurement) {
        self.measured = lane.is_full();
    }

    /// The currently selected lane.
    pub fn measurement(&self) -> Measurement {
        if self.measured {
            Measurement::Full
        } else {
            Measurement::Off
        }
    }

    /// Enables trace recording (COLLECT mode).
    pub fn enable_trace(&mut self) {
        self.set_trace_enabled(true);
    }

    /// Enables or disables trace recording. Disabling drops any
    /// recorded entries and returns the bus to the zero-cost path: a
    /// non-tracing bus pays only one branch per access.
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        if enabled {
            if self.trace.is_none() {
                self.trace = Some(Vec::new());
            }
        } else {
            self.trace = None;
        }
    }

    /// Whether trace recording is currently enabled.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Takes the recorded trace, leaving recording enabled.
    pub fn take_trace(&mut self) -> Vec<TraceEntry> {
        match &mut self.trace {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    /// Enables or disables observability event recording. Enabling
    /// allocates the bounded ring once (capacity
    /// [`psi_obs::DEFAULT_EVENT_CAPACITY`]); a full ring overwrites
    /// its oldest event. Disabling drops the ring and returns the bus
    /// to the one-branch-per-access path.
    pub fn set_events_enabled(&mut self, enabled: bool) {
        if enabled {
            if self.events.is_none() {
                self.events = Some(Box::new(EventRing::new()));
            }
        } else {
            self.events = None;
        }
    }

    /// Whether observability event recording is enabled.
    pub fn events_enabled(&self) -> bool {
        self.events.is_some()
    }

    /// Records an externally produced event (the interpreter pushes
    /// its dispatch/backtrack/governor events through here so machine
    /// and cache events share one chronological ring). No-op while
    /// event recording is disabled.
    #[inline]
    pub fn record_event(&mut self, event: ObsEvent) {
        if let Some(ring) = &mut self.events {
            ring.push(event);
        }
    }

    /// Copies out the recorded events in chronological order and
    /// clears the ring, leaving recording enabled. Returns an empty
    /// vector while recording is disabled.
    pub fn take_events(&mut self) -> Vec<ObsEvent> {
        match &mut self.events {
            Some(ring) => {
                let out = ring.to_vec();
                ring.clear();
                out
            }
            None => Vec::new(),
        }
    }

    /// Events overwritten by the full ring since recording was enabled
    /// or last taken.
    pub fn events_dropped(&self) -> u64 {
        self.events.as_ref().map_or(0, |r| r.dropped())
    }

    /// Called by the interpreter once per microinstruction step so the
    /// bus can timestamp traced accesses and let the cache's pending
    /// memory traffic drain. In the fast lane only the step
    /// counter advances — there is no simulated memory traffic to
    /// drain, so the lane's step accounting stays bit-identical while
    /// the occupancy model is skipped entirely.
    #[inline]
    pub fn tick(&mut self, cycle_ns: u64) {
        self.step += 1;
        if self.measured {
            if let Attachment::Cached(c) = &mut self.attachment {
                c.advance(cycle_ns);
            }
        }
    }

    /// Batch-advances the microstep counter by `n` ticks without
    /// consulting the cache model — the fast lane's
    /// equivalent of `n` [`MemBus::tick`]s, whose cache advance is
    /// measurement-gated off anyway. Never call this on a measuring
    /// bus: the cache-occupancy model would silently miss `n` cycles.
    #[inline]
    pub fn advance(&mut self, n: u64) {
        debug_assert!(!self.measured, "batch advance would bypass the cache model");
        self.step += n;
    }

    /// The current microstep counter.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Total stall time beyond microcycles, in nanoseconds.
    pub fn stall_ns(&self) -> u64 {
        self.stall_ns
    }

    /// Cache statistics (or bypass statistics when no cache is
    /// attached).
    pub fn cache_stats(&self) -> &CacheStats {
        match &self.attachment {
            Attachment::Cached(c) => c.stats(),
            Attachment::Uncached { stats, .. } => stats,
        }
    }

    /// Resets measurement state (statistics, stall time, step counter,
    /// trace) without touching memory contents — used to exclude
    /// warm-up, like the paper's breakpoint-triggered measurements.
    pub fn reset_measurement(&mut self) {
        match &mut self.attachment {
            Attachment::Cached(c) => c.reset_stats(),
            Attachment::Uncached { stats, .. } => **stats = CacheStats::new(),
        }
        self.stall_ns = 0;
        self.step = 0;
        if let Some(t) = &mut self.trace {
            t.clear();
        }
        if let Some(ring) = &mut self.events {
            ring.clear();
        }
    }

    /// Replaces the attached cache model (or detaches it with `None`)
    /// while keeping memory contents, the trace/event configuration
    /// and the lane flag. The new attachment starts with fresh
    /// statistics and no occupancy, so this belongs at a run boundary
    /// — `Machine::fork_with_cache` uses it to re-geometry a pre-run
    /// fork without re-seeding the simulated heap.
    pub fn set_cache(&mut self, config: Option<CacheConfig>) {
        self.attachment = match config {
            Some(c) => Attachment::Cached(Box::new(Cache::new(c))),
            None => Attachment::Uncached {
                stats: Box::new(CacheStats::new()),
                miss_extra_ns: CacheConfig::psi().miss_extra_ns(),
            },
        };
        self.stall_ns = 0;
    }

    /// The backing storage (for checkpointing in tests).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable backing storage (used by the machine for bulk stack
    /// truncation on backtracking).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    fn access(&mut self, cmd: CacheCommand, addr: Address) {
        if let Some(t) = &mut self.trace {
            t.push(TraceEntry {
                step: self.step,
                command: cmd,
                address: addr,
            });
        }
        let hit = match &mut self.attachment {
            Attachment::Cached(c) => {
                let out = c.access(cmd, addr);
                self.stall_ns += out.stall_ns;
                out.hit
            }
            Attachment::Uncached {
                stats,
                miss_extra_ns,
            } => {
                let c = stats.area_mut(addr.area());
                match cmd {
                    CacheCommand::Read => c.reads += 1,
                    CacheCommand::Write => c.writes += 1,
                    CacheCommand::WriteStack => c.write_stacks += 1,
                }
                stats.stall_ns += *miss_extra_ns;
                self.stall_ns += *miss_extra_ns;
                false
            }
        };
        if let Some(ring) = &mut self.events {
            ring.push(ObsEvent::cache_access(
                self.step,
                cmd.code(),
                addr.area().index() as u32,
                hit,
            ));
        }
    }

    /// Counted read of one word.
    ///
    /// # Errors
    ///
    /// Propagates [`psi_core::PsiError::OutOfArea`] for reads beyond
    /// the written extent.
    #[inline]
    pub fn read(&mut self, addr: Address) -> Result<Word> {
        if self.measured {
            self.access(CacheCommand::Read, addr);
        }
        self.mem.read(addr)
    }

    /// Counted write of one word.
    ///
    /// # Errors
    ///
    /// Propagates [`psi_core::PsiError::StackOverflow`] if the area
    /// limit is exceeded.
    #[inline]
    pub fn write(&mut self, addr: Address, word: Word) -> Result<()> {
        if self.measured {
            self.access(CacheCommand::Write, addr);
        }
        self.mem.write(addr, word)
    }

    /// Counted write using the specialized write-stack command (for
    /// pushes to a stack top).
    ///
    /// # Errors
    ///
    /// Propagates [`psi_core::PsiError::StackOverflow`] if the area
    /// limit is exceeded.
    #[inline]
    pub fn write_stack(&mut self, addr: Address, word: Word) -> Result<()> {
        if self.measured {
            self.access(CacheCommand::WriteStack, addr);
        }
        self.mem.write(addr, word)
    }

    /// Uncounted read (console/debug path).
    ///
    /// # Errors
    ///
    /// Propagates [`psi_core::PsiError::OutOfArea`].
    pub fn peek(&self, addr: Address) -> Result<Word> {
        self.mem.read(addr)
    }

    /// Uncounted write (code loading path).
    ///
    /// # Errors
    ///
    /// Propagates [`psi_core::PsiError::StackOverflow`].
    pub fn poke(&mut self, addr: Address, word: Word) -> Result<()> {
        self.mem.write(addr, word)
    }
}

impl Default for MemBus {
    /// Defaults to the production PSI cache.
    fn default() -> MemBus {
        MemBus::with_psi_cache()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_core::{Area, ProcessId};

    fn addr(off: u32) -> Address {
        Address::new(ProcessId::ZERO, Area::LocalStack, off)
    }

    #[test]
    fn counted_accesses_reach_stats() {
        let mut bus = MemBus::with_psi_cache();
        bus.write_stack(addr(0), Word::int(1)).unwrap();
        bus.read(addr(0)).unwrap();
        bus.write(addr(0), Word::int(2)).unwrap();
        let t = bus.cache_stats().total();
        assert_eq!(t.reads, 1);
        assert_eq!(t.writes, 1);
        assert_eq!(t.write_stacks, 1);
    }

    #[test]
    fn peek_poke_are_uncounted() {
        let mut bus = MemBus::with_psi_cache();
        bus.poke(addr(3), Word::int(9)).unwrap();
        assert_eq!(bus.peek(addr(3)).unwrap().int_value(), Some(9));
        assert_eq!(bus.cache_stats().total().accesses(), 0);
        assert_eq!(bus.stall_ns(), 0);
    }

    #[test]
    fn uncached_bus_stalls_every_access() {
        let mut bus = MemBus::without_cache();
        bus.write_stack(addr(0), Word::int(1)).unwrap();
        bus.read(addr(0)).unwrap();
        assert_eq!(bus.stall_ns(), 2 * 600);
    }

    #[test]
    fn cached_bus_stalls_only_on_misses() {
        let mut bus = MemBus::with_psi_cache();
        bus.write_stack(addr(0), Word::int(1)).unwrap(); // miss, no fetch
        let before = bus.stall_ns();
        bus.read(addr(0)).unwrap(); // hit
        assert_eq!(bus.stall_ns(), before);
    }

    #[test]
    fn trace_records_step_and_command() {
        let mut bus = MemBus::with_psi_cache();
        bus.enable_trace();
        bus.tick(200);
        bus.read(addr(0)).unwrap_err(); // read of unwritten cell: still traced
        bus.tick(200);
        bus.write_stack(addr(0), Word::nil()).unwrap();
        let trace = bus.take_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].step, 1);
        assert_eq!(trace[0].command, CacheCommand::Read);
        assert_eq!(trace[1].step, 2);
        assert_eq!(trace[1].command, CacheCommand::WriteStack);
        assert_eq!(trace[1].address, addr(0));
    }

    #[test]
    fn event_ring_records_cache_accesses_chronologically() {
        use psi_core::EventKind;
        let mut bus = MemBus::with_psi_cache();
        assert!(!bus.events_enabled());
        bus.write_stack(addr(0), Word::int(1)).unwrap(); // not recorded yet
        bus.set_events_enabled(true);
        bus.tick(200);
        bus.read(addr(0)).unwrap(); // hit
        bus.tick(200);
        bus.read(addr(4096)).unwrap_err(); // miss (unwritten, still counted)
        bus.record_event(psi_core::ObsEvent::backtrack(bus.step(), 2));
        let events = bus.take_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::CacheAccess);
        assert_eq!(events[0].step, 1);
        assert_eq!(events[0].a, CacheCommand::Read.code());
        assert_eq!(events[0].c, 1, "resident block: hit");
        assert_eq!(events[1].c, 0, "cold block: miss");
        assert_eq!(events[2].kind, EventKind::Backtrack);
        assert_eq!(bus.events_dropped(), 0);
        // Taking drains the ring but keeps recording on.
        assert!(bus.events_enabled());
        assert!(bus.take_events().is_empty());
        bus.set_events_enabled(false);
        bus.write(addr(0), Word::int(2)).unwrap();
        assert!(bus.take_events().is_empty());
    }

    #[test]
    fn throughput_lane_skips_all_measurement() {
        let mut bus = MemBus::with_psi_cache();
        assert_eq!(bus.measurement(), Measurement::Full);
        bus.set_measurement(Measurement::Off);
        assert_eq!(bus.measurement(), Measurement::Off);
        bus.enable_trace();
        bus.set_events_enabled(true);
        bus.tick(200);
        bus.write_stack(addr(0), Word::int(7)).unwrap();
        bus.tick(200);
        assert_eq!(bus.read(addr(0)).unwrap().int_value(), Some(7));
        bus.write(addr(0), Word::int(8)).unwrap();
        // Storage works and steps count, but no measurement happened.
        assert_eq!(bus.step(), 2);
        assert_eq!(bus.cache_stats().total().accesses(), 0);
        assert_eq!(bus.stall_ns(), 0);
        assert!(bus.take_trace().is_empty());
        assert!(bus.take_events().is_empty());
    }

    #[test]
    fn uncached_throughput_lane_pays_no_stall() {
        let mut bus = MemBus::without_cache();
        bus.set_measurement(Measurement::Off);
        bus.write_stack(addr(0), Word::int(1)).unwrap();
        bus.read(addr(0)).unwrap();
        assert_eq!(bus.stall_ns(), 0);
        assert_eq!(bus.cache_stats().total().accesses(), 0);
    }

    #[test]
    fn reset_measurement_clears_counters_not_memory() {
        let mut bus = MemBus::with_psi_cache();
        bus.write_stack(addr(0), Word::int(5)).unwrap();
        bus.reset_measurement();
        assert_eq!(bus.cache_stats().total().accesses(), 0);
        assert_eq!(bus.stall_ns(), 0);
        assert_eq!(bus.peek(addr(0)).unwrap().int_value(), Some(5));
    }
}
