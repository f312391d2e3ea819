//! PMMS: trace-driven cache re-simulation.
//!
//! "For analyzing the dynamic characteristics of cache memory, we also
//! made a cache memory simulator called PMMS. Hit ratios and its
//! variations according to the cache memory size were obtained by
//! PMMS with cache command patterns and memory addresses collected by
//! COLLECT" (§4.1). This module replays collected traces through any
//! [`CacheConfig`] and computes the paper's performance-improvement
//! ratio (Figure 1) and the §4.2 associativity and write-policy
//! studies.

use psi_cache::{Cache, CacheConfig, CacheStats, WritePolicy};
use psi_core::{Area, AREA_COUNT};
use psi_mem::TraceEntry;

/// Replays a trace through a cache configuration, advancing the cache
/// clock by the actual inter-access step gaps, and returns the final
/// statistics plus the total simulated time in nanoseconds.
pub fn replay(
    trace: &[TraceEntry],
    config: CacheConfig,
    cycle_ns: u64,
    total_steps: u64,
) -> (CacheStats, u64) {
    replay_chain(trace, &[config], cycle_ns, total_steps)[0]
}

/// One cache of a [`replay_chain`], with its lazily advanced clock.
struct Member {
    cache: Cache,
    /// The shared clock value the cache's own clock has caught up to.
    synced_ns: u64,
    /// The cache's own stalls so far.
    stall_ns: u64,
}

/// Replays a trace through a *chain* of caches in one pass and returns
/// what [`replay`] returns for each member, in chain order.
///
/// A chain is a list of store-in geometries that are identical except
/// for capacity, in strictly ascending capacity; a chain of one may be
/// any geometry, store-through included. The Figure 1 capacities form
/// one chain.
///
/// Each access walks the chain from the smallest cache and gives each
/// member an ordinary [`Cache::access`] until it reaches the first
/// member whose set already holds the block as its most recently used
/// (MRU) line, and stops there. The skipped members are exact, by
/// three facts about the chain:
///
/// * **MRU inclusion.** Same ways and block size with power-of-two set
///   counts means each set of a larger member holds a subset of the
///   blocks that map to one set of a smaller member. Store-in allocates
///   on every access and LRU orders by last use, so a block that was
///   touched last among its small set's blocks was touched last among
///   its large set's blocks too: it is MRU there (Mattson et al. 1970;
///   Hill & Smith 1989). An access to an MRU block under store-in is a
///   hit with no stall that moves no line, so every larger member would
///   only count a hit. Store-through writes do not allocate and cost
///   memory time even on a hit, hence the store-in precondition.
/// * **Dirty inclusion.** A larger member has held the block at least
///   since the smaller one filled it, and a line is cleaned only by its
///   eviction, so a line dirty in a smaller member is dirty in every
///   larger one. A write at the exit therefore marks the MRU line dirty
///   upward through the chain and stops at the first member whose line
///   already was.
/// * **Lazy clock.** A skipped hit adds `hit_ns` to a member's clock and
///   touches nothing else. Each member's clock is the shared elapsed
///   time (step gaps plus one `hit_ns` per access) plus its own stalls,
///   so before a full access it is advanced by the shared time passed
///   since its last one, and memory-busy waits come out as in [`replay`].
///
/// Skipped hits are counted per (exit member, area, command) and folded
/// into each member's [`CacheStats`] by prefix sum at the end, since an
/// exit at member `j` is a hit in every member from `j` on.
///
/// The exit index of an access is the smallest capacity in the chain at
/// which its block is MRU.
///
/// # Panics
///
/// Panics if `chain` is not a chain, or a geometry is invalid.
pub fn replay_chain(
    trace: &[TraceEntry],
    chain: &[CacheConfig],
    cycle_ns: u64,
    total_steps: u64,
) -> Vec<(CacheStats, u64)> {
    for w in chain.windows(2) {
        let same_but_capacity = CacheConfig {
            capacity_words: w[1].capacity_words,
            ..w[0]
        } == w[1];
        assert!(
            w[0].policy == WritePolicy::StoreIn
                && same_but_capacity
                && w[0].capacity_words < w[1].capacity_words,
            "not a chain of store-in capacities: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    let Some(first) = chain.first() else {
        return Vec::new();
    };
    let hit_ns = first.hit_ns;
    let exits = first.policy == WritePolicy::StoreIn;
    let mut members: Vec<Member> = chain
        .iter()
        .map(|&config| Member {
            cache: Cache::new(config),
            synced_ns: 0,
            stall_ns: 0,
        })
        .collect();
    let mut skipped = vec![[[0u64; 3]; AREA_COUNT]; chain.len()];
    let mut shared_ns = 0u64;
    let mut prev_step = 0u64;
    for e in trace {
        shared_ns += e.step.saturating_sub(prev_step) * cycle_ns;
        prev_step = e.step;
        let mut exit = None;
        for (i, m) in members.iter_mut().enumerate() {
            if exits && m.cache.is_mru(e.address) {
                exit = Some(i);
                break;
            }
            m.cache.advance(shared_ns - m.synced_ns);
            m.stall_ns += m.cache.access(e.command, e.address).stall_ns;
            m.synced_ns = shared_ns + hit_ns;
        }
        if let Some(i) = exit {
            skipped[i][e.address.area().index()][e.command.code() as usize] += 1;
            if e.command.is_write() {
                for m in &mut members[i..] {
                    if m.cache.mark_mru_dirty(e.address) {
                        break;
                    }
                }
            }
        }
        shared_ns += hit_ns;
    }

    let mut exited = [[0u64; 3]; AREA_COUNT];
    members
        .iter()
        .zip(&skipped)
        .map(|(m, skipped)| {
            let mut stats = *m.cache.stats();
            for (a, area) in Area::ALL.into_iter().enumerate() {
                let [reads, writes, write_stacks] = &mut exited[a];
                *reads += skipped[a][0];
                *writes += skipped[a][1];
                *write_stacks += skipped[a][2];
                let c = stats.area_mut(area);
                c.reads += *reads;
                c.read_hits += *reads;
                c.writes += *writes;
                c.write_hits += *writes;
                c.write_stacks += *write_stacks;
                c.write_stack_hits += *write_stacks;
            }
            (stats, total_steps * cycle_ns + m.stall_ns)
        })
        .collect()
}

/// The paper's Figure 1 metric for one replay of `trace` through
/// `config` (see [`improvement_from_run`]).
pub fn improvement_ratio_pct(
    trace: &[TraceEntry],
    config: CacheConfig,
    cycle_ns: u64,
    total_steps: u64,
) -> f64 {
    let (_, tc) = replay(trace, config, cycle_ns, total_steps);
    improvement_from_run(total_steps, tc, trace.len() as u64, cycle_ns, config)
}

/// The Figure 1 capacity axis: 8 W – 8 KW by powers of two ("other
/// specifications are same with the cache memory of the PSI").
pub fn figure1_capacities() -> Vec<u32> {
    (0..11).map(|i| 8u32 << i).collect() // 8 .. 8192
}

/// Replays one trace through every configuration in `configs` and
/// returns the improvement ratio per configuration, in input order, on
/// the calling thread. Store-in configurations that differ only in
/// capacity share one [`replay_chain`] pass; duplicates are replayed
/// once. Over [`figure1_capacities`] it is Figure 1. `_threads` is
/// ignored; it stays so existing callers keep compiling.
pub fn geometry_sweep(
    trace: &[TraceEntry],
    configs: &[CacheConfig],
    cycle_ns: u64,
    total_steps: u64,
    _threads: usize,
) -> Vec<f64> {
    // A store-through configuration is a chain of its own.
    let chain_key = |c: &CacheConfig| CacheConfig {
        capacity_words: if c.policy == WritePolicy::StoreIn {
            0
        } else {
            c.capacity_words
        },
        ..*c
    };
    let mut chains: Vec<Vec<CacheConfig>> = Vec::new();
    for c in configs {
        match chains
            .iter_mut()
            .find(|ch| chain_key(&ch[0]) == chain_key(c))
        {
            Some(ch) if ch.contains(c) => {}
            Some(ch) => ch.push(*c),
            None => chains.push(vec![*c]),
        }
    }
    let mut ratios = vec![0.0; configs.len()];
    for mut chain in chains {
        chain.sort_by_key(|c| c.capacity_words);
        let runs = replay_chain(trace, &chain, cycle_ns, total_steps);
        for (config, (_, time)) in chain.iter().zip(runs) {
            let ratio =
                improvement_from_run(total_steps, time, trace.len() as u64, cycle_ns, *config);
            for (slot, c) in ratios.iter_mut().zip(configs) {
                if c == config {
                    *slot = ratio;
                }
            }
        }
    }
    ratios
}

/// The paper's Figure 1 metric:
/// `performance improvement ratio = (Tnc/Tc − 1) × 100`, where `Tc`
/// is the run's simulated time `time_ns` with the cache and `Tnc`
/// prices every cache access at the miss premium on top of the
/// stall-free step time. Live (forked) runs and trace replays both
/// derive the ratio here.
pub fn improvement_from_run(
    steps: u64,
    time_ns: u64,
    cache_accesses: u64,
    cycle_ns: u64,
    config: CacheConfig,
) -> f64 {
    if time_ns == 0 {
        // A zero-step run with an empty trace has no execution time
        // to improve; without this guard the 0/0 below would yield
        // NaN and poison the Figure 1 output.
        return 0.0;
    }
    let tnc = steps * cycle_ns + cache_accesses * config.miss_extra_ns();
    (tnc as f64 / time_ns as f64 - 1.0) * 100.0
}

/// §4.2 associativity study: improvement ratios with two 4K-word sets
/// (2-way, 8 KW) versus one 4K-word set (direct-mapped, 4 KW). The
/// paper found the single set "only 3% lower".
pub fn associativity_study(trace: &[TraceEntry], cycle_ns: u64, total_steps: u64) -> (f64, f64) {
    let two = improvement_ratio_pct(trace, CacheConfig::psi_two_set_8k(), cycle_ns, total_steps);
    let one = improvement_ratio_pct(
        trace,
        CacheConfig::psi_direct_mapped_4k(),
        cycle_ns,
        total_steps,
    );
    (two, one)
}

/// §4.2 write-policy study: improvement ratios under store-in versus
/// store-through. The paper found store-in "8% higher".
pub fn policy_study(trace: &[TraceEntry], cycle_ns: u64, total_steps: u64) -> (f64, f64) {
    let store_in = improvement_ratio_pct(trace, CacheConfig::psi(), cycle_ns, total_steps);
    let store_through = improvement_ratio_pct(
        trace,
        CacheConfig::psi_store_through(),
        cycle_ns,
        total_steps,
    );
    (store_in, store_through)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_cache::CacheCommand;
    use psi_core::{Address, ProcessId};

    /// A looping trace with strong locality plus occasional far
    /// accesses.
    fn trace(n: u64) -> Vec<TraceEntry> {
        (0..n)
            .map(|i| TraceEntry {
                step: i * 5,
                command: if i % 4 == 3 {
                    CacheCommand::WriteStack
                } else {
                    CacheCommand::Read
                },
                address: Address::new(
                    ProcessId::ZERO,
                    Area::Heap,
                    if i % 17 == 0 {
                        (i * 97 % 4096) as u32
                    } else {
                        (i % 64) as u32
                    },
                ),
            })
            .collect()
    }

    #[test]
    fn replay_accounts_all_accesses() {
        let t = trace(500);
        let (stats, time) = replay(&t, CacheConfig::psi(), 200, 2500);
        assert_eq!(stats.total().accesses(), 500);
        assert!(time >= 2500 * 200);
    }

    /// Figure 1's sweep: one replay per [`figure1_capacities`] entry.
    fn figure1_sweep(t: &[TraceEntry], total_steps: u64) -> Vec<f64> {
        let configs: Vec<CacheConfig> = figure1_capacities()
            .into_iter()
            .map(CacheConfig::psi_with_capacity)
            .collect();
        geometry_sweep(t, &configs, 200, total_steps, 1)
    }

    #[test]
    fn improvement_grows_with_capacity() {
        let t = trace(4000);
        let sweep = figure1_sweep(&t, 20_000);
        assert_eq!(sweep.len(), 11); // 8 .. 8192
        let first = sweep[0];
        let last = sweep[10];
        assert!(
            last >= first,
            "bigger cache must not hurt: {first} vs {last}"
        );
        assert!(last > 0.0, "a cache must help this trace");
        // Monotone non-decreasing within noise for this regular trace.
        for w in sweep.windows(2) {
            assert!(w[1] >= w[0] - 1.0, "{:?}", sweep);
        }
    }

    #[test]
    fn two_way_beats_or_matches_direct_mapped() {
        let t = trace(4000);
        let (two, one) = associativity_study(&t, 200, 20_000);
        assert!(two >= one - 0.5, "two={two} one={one}");
    }

    /// Regression: an empty trace with `total_steps == 0` used to
    /// divide 0 by 0 and return NaN, which then propagated into the
    /// Figure 1 report. It must be a finite, neutral 0.0.
    #[test]
    fn empty_trace_with_zero_steps_yields_zero_not_nan() {
        let ratio = improvement_ratio_pct(&[], CacheConfig::psi(), 200, 0);
        assert!(ratio.is_finite(), "got {ratio}");
        assert_eq!(ratio, 0.0);
        let sweep = figure1_sweep(&[], 0);
        assert!(sweep.iter().all(|r| r.is_finite() && *r == 0.0));
        let (two, one) = associativity_study(&[], 200, 0);
        assert_eq!((two, one), (0.0, 0.0));
    }

    #[test]
    fn store_in_beats_store_through() {
        let t = trace(4000);
        let (si, st) = policy_study(&t, 200, 20_000);
        assert!(si > st, "store-in {si} vs store-through {st}");
    }
}
