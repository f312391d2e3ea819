//! Observability layer of the PSI machine reproduction.
//!
//! The paper is an instrumentation exercise: Tables 2–7 are dynamic
//! profiles of the firmware interpreter. This crate gives the
//! simulator one typed, low-overhead layer those numbers flow
//! through:
//!
//! * [`MetricsRegistry`] — a zero-allocation registry of typed
//!   counters ([`Counter`]), per-module step mirrors and log₂
//!   [`Histogram`]s, backed entirely by fixed-size arrays. A
//!   [`MetricsRegistry::snapshot`] is a bit copy ([`MetricsSnapshot`]
//!   is `Copy`), never a heap clone.
//! * [`EventRing`] — a bounded ring buffer of
//!   [`psi_core::ObsEvent`]s that overwrites its oldest entry when
//!   full and counts what it dropped, so tracing can stay on
//!   indefinitely without growing.
//!
//! With the `noop` feature every recording method compiles to an
//! empty inline function: the registry stays constructible and
//! snapshotable (all zeros) but vanishes from the hot path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use psi_core::ObsEvent;

// ------------------------------------------------------------------
// counters
// ------------------------------------------------------------------

/// Typed counter identities of the [`MetricsRegistry`].
///
/// Cache counters mirror `CacheStats`, machine counters are recorded
/// live by the interpreter's hooks, and suite counters aggregate
/// workload outcomes. The enum is the registry's index space: adding
/// a variant to [`Counter::ALL`] adds a slot, nothing else changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Counted memory accesses that hit the cache.
    CacheHits,
    /// Counted memory accesses that missed.
    CacheMisses,
    /// Read commands issued.
    CacheReads,
    /// Ordinary write commands issued.
    CacheWrites,
    /// Write-stack commands issued.
    CacheWriteStacks,
    /// Dirty blocks written back to memory (store-in).
    Writebacks,
    /// Blocks fetched from memory.
    BlockFetches,
    /// Words sent to memory by store-through writes.
    ThroughWrites,
    /// Goal dispatches in the interpreter main loop.
    Dispatches,
    /// Backtracks (choice point retried or discarded).
    Backtracks,
    /// Solutions captured.
    Solutions,
    /// Periodic governor budget checks.
    GovernorChecks,
    /// Governor budget trips.
    GovernorTrips,
    /// Suite rows that completed cleanly.
    SuiteOk,
    /// Suite rows that exhausted a resource budget.
    SuiteExhausted,
    /// Suite rows that hit the wall-clock watchdog.
    SuiteTimedOut,
    /// Suite rows that returned an error.
    SuiteFailed,
    /// Suite rows whose worker panicked.
    SuitePanicked,
    /// Bounded retries spent on transient suite outcomes.
    SuiteRetries,
    /// Events overwritten by a full [`EventRing`].
    EventsDropped,
    /// Choice points pushed by the interpreter.
    ChoicePoints,
    /// Calls filtered through the first-argument clause index.
    IndexedCalls,
    /// Indexed calls whose single surviving candidate was entered
    /// directly, without pushing a choice point.
    IndexDirectEntries,
    /// No longer incremented: the predecoded code cache it counted is
    /// gone, so it always reads zero. Kept because the benchmark
    /// reports it as the `machine.predecode_hits` layer count.
    PredecodeHits,
    /// Fast-lane dispatches served from the fused op array (zero in
    /// the fidelity lane).
    FusedDispatches,
    /// Fast-lane superinstruction chain continuations: fused ops
    /// executed directly from a predecessor's dispatch, without a
    /// run-loop round trip.
    FusionHits,
}

impl Counter {
    /// Every counter, in index order.
    pub const ALL: [Counter; 26] = [
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheReads,
        Counter::CacheWrites,
        Counter::CacheWriteStacks,
        Counter::Writebacks,
        Counter::BlockFetches,
        Counter::ThroughWrites,
        Counter::Dispatches,
        Counter::Backtracks,
        Counter::Solutions,
        Counter::GovernorChecks,
        Counter::GovernorTrips,
        Counter::SuiteOk,
        Counter::SuiteExhausted,
        Counter::SuiteTimedOut,
        Counter::SuiteFailed,
        Counter::SuitePanicked,
        Counter::SuiteRetries,
        Counter::EventsDropped,
        Counter::ChoicePoints,
        Counter::IndexedCalls,
        Counter::IndexDirectEntries,
        Counter::PredecodeHits,
        Counter::FusedDispatches,
        Counter::FusionHits,
    ];

    /// Number of counters (the registry's array length).
    pub const COUNT: usize = Counter::ALL.len();

    /// The registry array index of this counter.
    pub fn index(self) -> usize {
        self as usize
    }

    /// A short stable label (used by exports and reports).
    pub fn label(self) -> &'static str {
        match self {
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CacheReads => "cache_reads",
            Counter::CacheWrites => "cache_writes",
            Counter::CacheWriteStacks => "cache_write_stacks",
            Counter::Writebacks => "writebacks",
            Counter::BlockFetches => "block_fetches",
            Counter::ThroughWrites => "through_writes",
            Counter::Dispatches => "dispatches",
            Counter::Backtracks => "backtracks",
            Counter::Solutions => "solutions",
            Counter::GovernorChecks => "governor_checks",
            Counter::GovernorTrips => "governor_trips",
            Counter::SuiteOk => "suite_ok",
            Counter::SuiteExhausted => "suite_exhausted",
            Counter::SuiteTimedOut => "suite_timed_out",
            Counter::SuiteFailed => "suite_failed",
            Counter::SuitePanicked => "suite_panicked",
            Counter::SuiteRetries => "suite_retries",
            Counter::EventsDropped => "events_dropped",
            Counter::ChoicePoints => "choice_points",
            Counter::IndexedCalls => "indexed_calls",
            Counter::IndexDirectEntries => "index_direct_entries",
            Counter::PredecodeHits => "predecode_hits",
            Counter::FusedDispatches => "fused_dispatches",
            Counter::FusionHits => "fusion_hits",
        }
    }
}

// ------------------------------------------------------------------
// histograms
// ------------------------------------------------------------------

/// Number of log₂ buckets per histogram: bucket `i` holds values `v`
/// with `floor(log2(v)) == i - 1` (bucket 0 holds zero), and the last
/// bucket saturates.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-size log₂ histogram. `Copy`, allocation-free, mergeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// The bucket index `value` falls into.
    pub fn bucket_of(value: u64) -> usize {
        match value {
            0 => 0,
            v => ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1),
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Histogram::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation, or `None` if empty (no 0/0).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Adds another histogram's observations into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// Histogram identities of the [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Histo {
    /// Live choice points remaining after each backtrack.
    BacktrackDepth,
    /// Microsteps per run (one observation per solve).
    RunSteps,
    /// Cache stall nanoseconds per run.
    RunStallNs,
}

impl Histo {
    /// Every histogram, in index order.
    pub const ALL: [Histo; 3] = [Histo::BacktrackDepth, Histo::RunSteps, Histo::RunStallNs];

    /// Number of histograms in the registry.
    pub const COUNT: usize = Histo::ALL.len();

    /// The registry array index of this histogram.
    pub fn index(self) -> usize {
        self as usize
    }

    /// A short stable label.
    pub fn label(self) -> &'static str {
        match self {
            Histo::BacktrackDepth => "backtrack_depth",
            Histo::RunSteps => "run_steps",
            Histo::RunStallNs => "run_stall_ns",
        }
    }
}

// ------------------------------------------------------------------
// registry
// ------------------------------------------------------------------

/// Upper bound on interpreter modules mirrored into the registry
/// (the PSI firmware has six; two slots are headroom).
pub const MAX_MODULES: usize = 8;

/// A frozen, `Copy` view of a [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: [u64; Counter::COUNT],
    module_steps: [u64; MAX_MODULES],
    histograms: [Histogram; Histo::COUNT],
}

impl MetricsSnapshot {
    /// The value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// Steps attributed to interpreter module `index`
    /// (`InterpModule::index()` order in `psi-machine`).
    pub fn module_steps(&self, index: usize) -> u64 {
        self.module_steps[index]
    }

    /// Steps summed over all modules.
    pub fn total_steps(&self) -> u64 {
        self.module_steps.iter().sum()
    }

    /// The frozen `histo`.
    pub fn histogram(&self, histo: Histo) -> &Histogram {
        &self.histograms[histo.index()]
    }
}

/// A zero-allocation registry of typed counters and histograms.
///
/// Backed entirely by fixed-size arrays: constructing, recording into
/// and snapshotting a registry never touches the heap. With the crate
/// feature `noop` every recording method is an empty inline function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: [u64; Counter::COUNT],
    module_steps: [u64; MAX_MODULES],
    histograms: [Histogram; Histo::COUNT],
}

impl MetricsRegistry {
    /// A zeroed registry.
    pub const fn new() -> MetricsRegistry {
        MetricsRegistry {
            counters: [0; Counter::COUNT],
            module_steps: [0; MAX_MODULES],
            histograms: [Histogram::new(); Histo::COUNT],
        }
    }

    /// Increments `counter` by one.
    #[inline]
    pub fn incr(&mut self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Adds `n` to `counter`.
    #[inline]
    pub fn add(&mut self, counter: Counter, n: u64) {
        #[cfg(not(feature = "noop"))]
        {
            self.counters[counter.index()] += n;
        }
        #[cfg(feature = "noop")]
        {
            let _ = (counter, n);
        }
    }

    /// Adds `n` steps to interpreter module `index`.
    #[inline]
    pub fn add_module_steps(&mut self, index: usize, n: u64) {
        #[cfg(not(feature = "noop"))]
        {
            self.module_steps[index] += n;
        }
        #[cfg(feature = "noop")]
        {
            let _ = (index, n);
        }
    }

    /// Records one observation into `histo`.
    #[inline]
    pub fn observe(&mut self, histo: Histo, value: u64) {
        #[cfg(not(feature = "noop"))]
        {
            self.histograms[histo.index()].record(value);
        }
        #[cfg(feature = "noop")]
        {
            let _ = (histo, value);
        }
    }

    /// The current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// Freezes the registry into a `Copy` snapshot (a bit copy).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters,
            module_steps: self.module_steps,
            histograms: self.histograms,
        }
    }

    /// Zeroes every counter and histogram.
    pub fn reset(&mut self) {
        *self = MetricsRegistry::new();
    }

    /// Merges another registry's counts into this one.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (c, o) in self.counters.iter_mut().zip(&other.counters) {
            *c += o;
        }
        for (m, o) in self.module_steps.iter_mut().zip(&other.module_steps) {
            *m += o;
        }
        for (h, o) in self.histograms.iter_mut().zip(&other.histograms) {
            h.merge(o);
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

// ------------------------------------------------------------------
// event ring
// ------------------------------------------------------------------

/// Default [`EventRing`] capacity: recent-history window big enough
/// for any of the paper's workload tails at ~24 bytes per event.
pub const DEFAULT_EVENT_CAPACITY: usize = 16 * 1024;

/// A bounded ring buffer of [`ObsEvent`]s.
///
/// The ring allocates its storage once, up front; pushing is a bit
/// copy. When full, a push overwrites the oldest event and the
/// [`EventRing::dropped`] counter records the loss, so long traces
/// degrade to a recent-history window instead of growing without
/// bound.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<ObsEvent>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    start: usize,
    dropped: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events (at least one).
    pub fn with_capacity(capacity: usize) -> EventRing {
        let capacity = capacity.max(1);
        EventRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            start: 0,
            dropped: 0,
        }
    }

    /// A ring with [`DEFAULT_EVENT_CAPACITY`].
    pub fn new() -> EventRing {
        EventRing::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// Appends an event, overwriting the oldest when full.
    #[inline]
    pub fn push(&mut self, event: ObsEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.start] = event;
            self.start = (self.start + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum events held before overwriting begins.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events overwritten since construction or the last
    /// [`EventRing::clear`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The held events in chronological order (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = &ObsEvent> {
        let (newer, older) = self.buf.split_at(self.start);
        older.iter().chain(newer.iter())
    }

    /// Copies the held events out in chronological order.
    pub fn to_vec(&self) -> Vec<ObsEvent> {
        self.iter().copied().collect()
    }

    /// Removes all events and zeroes the dropped counter. Storage is
    /// retained.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
        self.dropped = 0;
    }
}

impl Default for EventRing {
    fn default() -> EventRing {
        EventRing::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_indices_are_dense_and_labels_distinct() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, a) in Counter::ALL.iter().enumerate() {
            for b in &Counter::ALL[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
        for (i, h) in Histo::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn registry_records_and_snapshots() {
        let mut r = MetricsRegistry::new();
        r.incr(Counter::Backtracks);
        r.add(Counter::CacheHits, 41);
        r.incr(Counter::CacheHits);
        r.add_module_steps(2, 100);
        r.observe(Histo::BacktrackDepth, 3);
        r.observe(Histo::BacktrackDepth, 0);
        let s = r.snapshot();
        assert_eq!(s.get(Counter::Backtracks), 1);
        assert_eq!(s.get(Counter::CacheHits), 42);
        assert_eq!(s.get(Counter::Solutions), 0);
        assert_eq!(s.module_steps(2), 100);
        assert_eq!(s.total_steps(), 100);
        let h = s.histogram(Histo::BacktrackDepth);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 3);
        assert_eq!(h.mean(), Some(1.5));
        r.reset();
        assert_eq!(r.snapshot().get(Counter::CacheHits), 0);
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn registry_merge_adds_everything() {
        let mut a = MetricsRegistry::new();
        a.add(Counter::Dispatches, 10);
        a.observe(Histo::RunSteps, 8);
        let mut b = MetricsRegistry::new();
        b.add(Counter::Dispatches, 5);
        b.add_module_steps(0, 7);
        b.observe(Histo::RunSteps, 16);
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.get(Counter::Dispatches), 15);
        assert_eq!(s.module_steps(0), 7);
        assert_eq!(s.histogram(Histo::RunSteps).count(), 2);
        assert_eq!(s.histogram(Histo::RunSteps).sum(), 24);
    }

    #[cfg(feature = "noop")]
    #[test]
    fn noop_registry_snapshots_all_zero() {
        let mut r = MetricsRegistry::new();
        r.incr(Counter::Backtracks);
        r.add_module_steps(0, 100);
        r.observe(Histo::RunSteps, 5);
        let s = r.snapshot();
        assert_eq!(s.get(Counter::Backtracks), 0);
        assert_eq!(s.total_steps(), 0);
        assert_eq!(s.histogram(Histo::RunSteps).count(), 0);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn ring_preserves_order_and_counts_drops() {
        use psi_core::ObsEvent;
        let mut ring = EventRing::with_capacity(4);
        for step in 0..6 {
            ring.push(ObsEvent::dispatch(step, step as u32));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 2);
        let steps: Vec<u64> = ring.iter().map(|e| e.step).collect();
        assert_eq!(steps, vec![2, 3, 4, 5], "oldest first, oldest two dropped");
        assert_eq!(ring.to_vec().len(), 4);
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_below_capacity_drops_nothing() {
        use psi_core::ObsEvent;
        let mut ring = EventRing::with_capacity(8);
        ring.push(ObsEvent::governor_check(1));
        ring.push(ObsEvent::backtrack(2, 0));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 0);
        let kinds: Vec<_> = ring.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                psi_core::EventKind::GovernorCheck,
                psi_core::EventKind::Backtrack
            ]
        );
    }
}
