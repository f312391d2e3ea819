//! Property-based tests over the core invariants: both engines agree
//! on randomized programs, sorting/reversing match Rust reference
//! implementations, the cache model obeys its invariants against a
//! naive reference simulator, and machine state is restored across
//! backtracking.
//!
//! The cases are driven by a small deterministic xorshift PRNG instead
//! of an external property-testing crate so the suite builds offline;
//! every failure message includes the case seed for replay.

use psi::dec10::{DecConfig, DecMachine};
use psi::kl0::Program;
use psi::psi_cache::{Cache, CacheCommand, CacheConfig, CacheStats, WritePolicy};
use psi::psi_core::{Address, Area, ProcessId, AREA_COUNT};
use psi::psi_machine::{Machine, MachineConfig};
use psi::psi_mem::TraceEntry;
use psi::psi_tools::pmms;
use psi::psi_workloads::runner::run_on_psi_machine;
use psi::psi_workloads::suite::hardware_suite;
use std::collections::HashSet;

/// xorshift64* — tiny, deterministic, good enough for test-case
/// generation.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(2685821657736338717).max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }

    /// Uniform value in `lo..hi`.
    fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        let span = (hi - lo) as u64;
        lo + (self.next_u64() % span) as i32
    }

    fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    fn vec_i32(&mut self, len_lo: usize, len_hi: usize, lo: i32, hi: i32) -> Vec<i32> {
        let n = self.range_usize(len_lo, len_hi);
        (0..n).map(|_| self.range_i32(lo, hi)).collect()
    }
}

fn int_list(xs: &[i32]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", parts.join(","))
}

const SORT_SRC: &str = "
qsort([], []).
qsort([P|T], S) :-
    partition(T, P, Lo, Hi), qsort(Lo, SLo), qsort(Hi, SHi),
    app(SLo, [P|SHi], S).
partition([], _, [], []).
partition([X|T], P, [X|Lo], Hi) :- X =< P, partition(T, P, Lo, Hi).
partition([X|T], P, Lo, [X|Hi]) :- X > P, partition(T, P, Lo, Hi).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
";

/// Quicksort on the PSI equals Rust's sort; both engines agree.
#[test]
fn sorting_matches_reference() {
    let program = Program::parse(SORT_SRC).unwrap();
    for seed in 0..24u64 {
        let mut rng = Rng::new(seed);
        let xs = rng.vec_i32(0, 14, -50, 50);
        let goal = format!("qsort({}, S)", int_list(&xs));

        let mut psi = Machine::load(&program, MachineConfig::psi()).unwrap();
        let psi_sols = psi.solve(&goal, 1).unwrap();

        let mut expected = xs.clone();
        expected.sort_unstable();
        // Prolog qsort keeps duplicates; compare rendered lists.
        assert_eq!(
            psi_sols[0].to_string(),
            format!("S = {}", int_list(&expected)),
            "seed {seed}"
        );

        let mut dec = DecMachine::load(&program, DecConfig::dec2060()).unwrap();
        let dec_sols = dec.solve(&goal, 1).unwrap();
        assert_eq!(
            psi_sols[0].to_string(),
            dec_sols[0].to_string(),
            "seed {seed}"
        );
    }
}

/// nreverse is an involution and matches Rust's reverse.
#[test]
fn nreverse_matches_reference() {
    let program = Program::parse(SORT_SRC).unwrap();
    for seed in 0..24u64 {
        let mut rng = Rng::new(seed ^ 0xdead);
        let xs = rng.vec_i32(0, 12, -9, 9);
        let mut m = Machine::load(&program, MachineConfig::psi()).unwrap();
        let sols = m.solve(&format!("nrev({}, R)", int_list(&xs)), 1).unwrap();
        let mut expected = xs.clone();
        expected.reverse();
        assert_eq!(
            sols[0].to_string(),
            format!("R = {}", int_list(&expected)),
            "seed {seed}"
        );
    }
}

/// append splits enumerate exactly n+1 ways and re-concatenate.
#[test]
fn append_enumeration_is_complete() {
    let program = Program::parse(SORT_SRC).unwrap();
    for seed in 0..24u64 {
        let mut rng = Rng::new(seed ^ 0xbeef);
        let xs = rng.vec_i32(0, 8, 0, 9);
        let mut m = Machine::load(&program, MachineConfig::psi()).unwrap();
        let sols = m
            .solve(&format!("app(X, Y, {})", int_list(&xs)), 50)
            .unwrap();
        assert_eq!(sols.len(), xs.len() + 1, "seed {seed}");
    }
}

/// member/2 finds exactly the distinct positions, in order.
#[test]
fn member_enumerates_in_order() {
    let src = "
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
";
    let program = Program::parse(src).unwrap();
    for seed in 0..24u64 {
        let mut rng = Rng::new(seed ^ 0xfeed);
        let xs = rng.vec_i32(1, 10, 0, 5);
        let mut m = Machine::load(&program, MachineConfig::psi()).unwrap();
        let sols = m
            .solve(&format!("member(M, {})", int_list(&xs)), 100)
            .unwrap();
        assert_eq!(sols.len(), xs.len(), "seed {seed}");
        for (s, x) in sols.iter().zip(&xs) {
            assert_eq!(s.to_string(), format!("M = {x}"), "seed {seed}");
        }
    }
}

/// Arithmetic on the PSI matches Rust arithmetic.
#[test]
fn arithmetic_matches_rust() {
    let program = Program::parse("").unwrap();
    for seed in 0..24u64 {
        let mut rng = Rng::new(seed ^ 0xa51);
        let a = rng.range_i32(-500, 500);
        let b = rng.range_i32(-500, 500);
        let c = rng.range_i32(1, 50);
        let mut m = Machine::load(&program, MachineConfig::psi()).unwrap();
        let goal = format!("X is ({a} + {b}) * 2 - {a} // {c}");
        let sols = m.solve(&goal, 1).unwrap();
        let expected = (a.wrapping_add(b)).wrapping_mul(2).wrapping_sub(a / c);
        assert_eq!(
            sols[0].to_string(),
            format!("X = {expected}"),
            "seed {seed}"
        );
    }
}

/// Backtracking restores bindings: after exhausting a two-way choice,
/// a later alternative sees unbound variables again.
#[test]
fn trail_restoration() {
    for seed in 0..24u64 {
        let mut rng = Rng::new(seed ^ 0x7a11);
        let v = rng.range_i32(0, 100);
        let src = format!(
            "
p(X) :- q(X), X > {v}.
q({v}).
q(V) :- V is {v} + 1.
"
        );
        let program = Program::parse(&src).unwrap();
        let mut m = Machine::load(&program, MachineConfig::psi()).unwrap();
        let sols = m.solve("p(X)", 5).unwrap();
        assert_eq!(sols.len(), 1, "seed {seed}");
        assert_eq!(sols[0].to_string(), format!("X = {}", v + 1), "seed {seed}");
    }
}

/// Backtrack-heavy exhaustive enumeration fully restores machine
/// state: re-running the same goal on the same machine yields
/// byte-identical solutions and an identical incremental step count.
/// This is the regression guard for the copy-on-backtrack argument
/// arena in the execution engine: a stale arena entry, a leaked
/// activation, or an unrestored stack top would make the second pass
/// diverge.
#[test]
fn backtracking_restores_machine_state() {
    let program = Program::parse(SORT_SRC).unwrap();
    for seed in 0..12u64 {
        let mut rng = Rng::new(seed ^ 0xac3a);
        let xs = rng.vec_i32(1, 9, 0, 9);
        let goal = format!("app(X, Y, {})", int_list(&xs));
        let mut m = Machine::load(&program, MachineConfig::psi()).unwrap();

        let first: Vec<String> = m
            .solve(&goal, 64)
            .unwrap()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let steps_first = m.stats().steps;

        m.reset_measurement();
        let second: Vec<String> = m
            .solve(&goal, 64)
            .unwrap()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let steps_second = m.stats().steps;

        assert_eq!(first, second, "seed {seed}: solutions diverged on re-run");
        assert_eq!(
            steps_first, steps_second,
            "seed {seed}: step counts diverged on re-run (state not restored)"
        );
    }
}

// ------------------------------------------------------------------
// Cache model vs a naive reference simulator
// ------------------------------------------------------------------

/// A deliberately simple reference cache: same geometry, LRU policy
/// and timing, structured entirely differently (vector of sets of
/// lines stamped with their last use, the victim found by a min-scan
/// over the stamps), used to cross-check hits, stalls and every
/// statistic.
struct ReferenceCache {
    config: CacheConfig,
    sets: Vec<Vec<RefLine>>,
    clock: u64,
    now_ns: u64,
    mem_free_at_ns: u64,
    stats: CacheStats,
}

#[derive(Clone)]
struct RefLine {
    tag: u32,
    dirty: bool,
    last_used: u64,
}

impl ReferenceCache {
    fn new(config: CacheConfig) -> ReferenceCache {
        ReferenceCache {
            config,
            sets: vec![Vec::new(); config.sets() as usize],
            clock: 0,
            now_ns: 0,
            mem_free_at_ns: 0,
            stats: CacheStats::new(),
        }
    }

    fn advance(&mut self, ns: u64) {
        self.now_ns += ns;
    }

    /// Waits for memory from this access's stall point `at`, then
    /// keeps memory busy behind the wait; returns the wait.
    fn use_memory(&mut self, at: u64) -> u64 {
        let wait = self.mem_free_at_ns.saturating_sub(self.now_ns + at);
        self.mem_free_at_ns = self.now_ns + at + wait + self.config.memory_busy_ns;
        wait
    }

    /// Returns (hit, stall in ns).
    fn access(&mut self, cmd: CacheCommand, addr: Address) -> (bool, u64) {
        self.clock += 1;
        let block = addr.raw() / self.config.block_words;
        let nsets = self.config.sets();
        let si = (block % nsets) as usize;
        let tag = block / nsets;
        let clock = self.clock;
        let found = self.sets[si].iter().position(|l| l.tag == tag);
        if let Some(i) = found {
            self.sets[si][i].last_used = clock;
        }
        let hit = found.is_some();
        let store_in = self.config.policy == WritePolicy::StoreIn;
        let mut stall = 0;
        if cmd.is_write() && !store_in {
            stall += self.use_memory(0);
            self.stats.through_writes += 1;
        } else if let Some(i) = found {
            if cmd.is_write() {
                self.sets[si][i].dirty = true;
            }
        } else {
            let fetch = !(cmd == CacheCommand::WriteStack && self.config.write_stack_no_fetch);
            if fetch {
                // The wait for memory, then the transfer, which keeps
                // memory busy for `memory_busy_ns` from its start.
                let wait = self.mem_free_at_ns.saturating_sub(self.now_ns);
                stall = wait + self.config.miss_extra_ns();
                self.mem_free_at_ns = self.now_ns + stall + self.config.memory_busy_ns;
                self.stats.block_fetches += 1;
            }
            if self.sets[si].len() == self.config.ways as usize {
                let lru = (0..self.sets[si].len())
                    .min_by_key(|&i| self.sets[si][i].last_used)
                    .expect("a full set is nonempty");
                if self.sets[si].remove(lru).dirty {
                    stall += self.use_memory(stall);
                    self.stats.writebacks += 1;
                }
            }
            self.sets[si].push(RefLine {
                tag,
                dirty: cmd.is_write(),
                last_used: clock,
            });
        }
        let c = self.stats.area_mut(addr.area());
        let (issued, hits) = match cmd {
            CacheCommand::Read => (&mut c.reads, &mut c.read_hits),
            CacheCommand::Write => (&mut c.writes, &mut c.write_hits),
            CacheCommand::WriteStack => (&mut c.write_stacks, &mut c.write_stack_hits),
        };
        *issued += 1;
        *hits += hit as u64;
        self.now_ns += self.config.hit_ns + stall;
        (hit, stall)
    }
}

/// Every geometry the repository builds, plus the corners the
/// index arithmetic and line packing must survive.
fn oracle_geometries() -> Vec<CacheConfig> {
    let mut configs: Vec<CacheConfig> = (0..11)
        .map(|i| CacheConfig::psi_with_capacity(8 << i))
        .collect();
    // sweepbench's default geometry axis.
    for capacity_words in [32, 64, 256, 1024, 4096, 8192] {
        for ways in [1, 2] {
            for block_words in [4, 8] {
                for policy in [WritePolicy::StoreIn, WritePolicy::StoreThrough] {
                    configs.push(CacheConfig {
                        capacity_words,
                        ways,
                        block_words,
                        policy,
                        ..CacheConfig::psi()
                    });
                }
            }
        }
    }
    configs.push(CacheConfig::psi_direct_mapped_4k());
    configs.push(CacheConfig::psi_store_through());
    configs.push(CacheConfig {
        capacity_words: 64,
        write_stack_no_fetch: false,
        ..CacheConfig::psi()
    });
    // One set of 1-word blocks: the tag is the whole 32-bit address.
    configs.push(CacheConfig {
        capacity_words: 4,
        block_words: 1,
        ways: 4,
        ..CacheConfig::psi()
    });
    configs
}

/// A seeded trace of (gap before the access in ns, command, address)
/// whose footprint is a few times `capacity_words`, spread over every
/// process and area, so a cache of that size both hits and evicts.
fn cache_trace(rng: &mut Rng, capacity_words: u32, n: usize) -> Vec<(u64, CacheCommand, Address)> {
    let span = capacity_words * [1, 2, 4][rng.range_usize(0, 3)];
    let top = (1 << 27) - 1;
    let mut cursor = 0u32;
    (0..n)
        .map(|_| {
            let gap = match rng.next_u64() % 8 {
                0..=3 => 0,
                4..=6 => 200 * rng.range_usize(1, 5) as u64,
                _ => 10_000,
            };
            let cmd = match rng.next_u64() % 4 {
                0 | 1 => CacheCommand::Read,
                2 => CacheCommand::Write,
                _ => CacheCommand::WriteStack,
            };
            cursor = match rng.next_u64() % 4 {
                0 => (cursor + 1) % span,
                1 => top - (rng.next_u64() % 16) as u32,
                _ => (rng.next_u64() % span as u64) as u32,
            };
            let process = ProcessId::new((rng.next_u64() % 4) as u8);
            let area = Area::ALL[rng.range_usize(0, Area::ALL.len())];
            (gap, cmd, Address::new(process, area, cursor))
        })
        .collect()
}

/// Our cache matches the reference model access by access (hit and
/// stall) and in every final statistic, per area, on every geometry
/// the repository builds, under all three commands and with
/// computation time passing between accesses.
#[test]
fn cache_matches_reference_model() {
    for (g, config) in oracle_geometries().into_iter().enumerate() {
        for seed in 0..4u64 {
            let mut rng = Rng::new(seed ^ 0xcac4e ^ ((g as u64) << 8));
            let mut ours = Cache::new(config);
            let mut reference = ReferenceCache::new(config);
            for (i, (gap, cmd, addr)) in cache_trace(&mut rng, config.capacity_words, 1500)
                .into_iter()
                .enumerate()
            {
                ours.advance(gap);
                reference.advance(gap);
                let out = ours.access(cmd, addr);
                assert_eq!(
                    (out.hit, out.stall_ns),
                    reference.access(cmd, addr),
                    "{config:?} seed {seed}: access {i}, {cmd:?} at {addr}"
                );
            }
            assert_eq!(*ours.stats(), reference.stats, "{config:?} seed {seed}");
        }
    }
}

/// On a single fully associative set, an LRU cache holds exactly the
/// `ways` most recently used blocks, so an access hits if and only if
/// fewer than `ways` distinct blocks were touched since its block's
/// last use (its LRU stack distance; Mattson et al. 1970). Store-in
/// allocates on every miss, so this inclusion holds for it; store-
/// through writes do not allocate and are left out.
#[test]
fn single_set_hits_equal_stack_distance_profile() {
    for seed in 0..8u64 {
        let mut rng = Rng::new(seed ^ 0x57ac);
        let trace = cache_trace(&mut rng, 64, 3000);
        let block_words = 4;
        let blocks: Vec<u32> = trace
            .iter()
            .map(|(_, _, a)| a.raw() / block_words)
            .collect();
        let distance: Vec<Option<usize>> = (0..blocks.len())
            .map(|i| {
                let last = blocks[..i].iter().rposition(|&b| b == blocks[i])?;
                let between: HashSet<u32> = blocks[last + 1..i].iter().copied().collect();
                Some(between.len())
            })
            .collect();
        for ways in [1, 2, 4, 8, 16, 32] {
            for write_stack_no_fetch in [true, false] {
                let config = CacheConfig {
                    capacity_words: ways * block_words,
                    ways,
                    write_stack_no_fetch,
                    ..CacheConfig::psi()
                };
                assert_eq!(config.sets(), 1);
                let mut cache = Cache::new(config);
                let mut expected = [0u64; AREA_COUNT];
                for ((gap, cmd, addr), d) in trace.iter().zip(&distance) {
                    cache.advance(*gap);
                    cache.access(*cmd, *addr);
                    if d.is_some_and(|d| d < ways as usize) {
                        expected[addr.area().index()] += 1;
                    }
                }
                for area in Area::ALL {
                    assert_eq!(
                        cache.stats().area(area).hits(),
                        expected[area.index()],
                        "seed {seed}, {ways} ways, {area:?}"
                    );
                }
            }
        }
    }
}

/// The plain per-geometry replay that [`pmms::replay_chain`] must
/// reproduce: one cache, one full access per trace entry.
fn replay_each(
    trace: &[TraceEntry],
    config: CacheConfig,
    cycle_ns: u64,
    total_steps: u64,
) -> (CacheStats, u64) {
    let mut cache = Cache::new(config);
    let mut stall = 0;
    let mut prev_step = 0;
    for e in trace {
        cache.advance(e.step.saturating_sub(prev_step) * cycle_ns);
        prev_step = e.step;
        stall += cache.access(e.command, e.address).stall_ns;
    }
    (*cache.stats(), total_steps * cycle_ns + stall)
}

fn assert_chain_matches(
    trace: &[TraceEntry],
    chain: &[CacheConfig],
    cycle_ns: u64,
    total_steps: u64,
    what: &str,
) {
    let runs = pmms::replay_chain(trace, chain, cycle_ns, total_steps);
    assert_eq!(runs.len(), chain.len(), "{what}");
    for (config, run) in chain.iter().zip(runs) {
        assert_eq!(
            run,
            replay_each(trace, *config, cycle_ns, total_steps),
            "{what}: {config:?}"
        );
    }
}

/// A seeded [`cache_trace`] as a COLLECT trace at a 200 ns cycle,
/// plus its total step count.
fn collected_trace(rng: &mut Rng, capacity_words: u32, n: usize) -> (Vec<TraceEntry>, u64) {
    let mut step = 0;
    let trace = cache_trace(rng, capacity_words, n)
        .into_iter()
        .map(|(gap, command, address)| {
            step += gap / 200;
            TraceEntry {
                step,
                command,
                address,
            }
        })
        .collect();
    (trace, step + 1)
}

fn figure1_chain() -> Vec<CacheConfig> {
    pmms::figure1_capacities()
        .into_iter()
        .map(CacheConfig::psi_with_capacity)
        .collect()
}

/// One pass over a chain of nested capacities gives every member the
/// statistics and simulated time of its own full replay: on seeded
/// traces over chains of 1, 2 and 4 ways, 4- and 8-word blocks and
/// both write-stack policies, on a store-through chain of one, and on
/// the hardware-suite traces over the Figure 1 chain. On those traces,
/// a geometry sweep over a shuffled list with a duplicate and
/// store-through members equals the per-configuration ratios in input
/// order.
#[test]
fn replay_chain_matches_per_cache_replay() {
    for seed in 0..4u64 {
        let mut rng = Rng::new(seed ^ 0xc4a1);
        let (trace, steps) = collected_trace(&mut rng, 64, 3000);
        for ways in [1, 2, 4] {
            for block_words in [4, 8] {
                for write_stack_no_fetch in [true, false] {
                    let chain: Vec<CacheConfig> = (0..8)
                        .map(|i| CacheConfig {
                            capacity_words: (block_words * ways) << i,
                            ways,
                            block_words,
                            write_stack_no_fetch,
                            ..CacheConfig::psi()
                        })
                        .collect();
                    assert_chain_matches(&trace, &chain, 200, steps, &format!("seed {seed}"));
                }
            }
        }
        let through = CacheConfig {
            capacity_words: 64,
            ..CacheConfig::psi_store_through()
        };
        assert_chain_matches(&trace, &[through], 200, steps, &format!("seed {seed}"));
    }

    let chain = figure1_chain();
    let mut config = MachineConfig::psi();
    config.trace_memory = true;
    for w in hardware_suite() {
        let (run, mut machine) = run_on_psi_machine(&w, config.clone()).expect("runs");
        let trace = machine.take_trace();
        let cycle_ns = machine.config().cycle_ns;
        assert_chain_matches(&trace, &chain, cycle_ns, run.stats.steps, &w.name);
        if w.name == "BUP-3" {
            // Its trace is 5.7M entries, ten times the other six
            // together; the chain check above covers it.
            continue;
        }

        let mut configs = vec![
            chain[6],
            CacheConfig::psi_store_through(),
            chain[0],
            CacheConfig::psi_direct_mapped_4k(),
            chain[10],
            chain[6],
            CacheConfig {
                capacity_words: 64,
                write_stack_no_fetch: false,
                ..CacheConfig::psi()
            },
            chain[3],
            CacheConfig {
                capacity_words: 64,
                ..CacheConfig::psi_store_through()
            },
        ];
        configs.extend(chain.iter().rev().step_by(3));
        let steps = run.stats.steps;
        let swept = pmms::geometry_sweep(&trace, &configs, cycle_ns, steps, 1);
        let each: Vec<f64> = configs
            .iter()
            .map(|c| pmms::improvement_ratio_pct(&trace, *c, cycle_ns, steps))
            .collect();
        assert_eq!(
            swept.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            each.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            "{}: {swept:?} vs {each:?}",
            w.name
        );
    }
}

/// Store-in never performs worse than store-through on total stall
/// time (the §4.2 claim, universally).
#[test]
fn store_in_dominates_store_through() {
    for seed in 0..32u64 {
        let mut rng = Rng::new(seed ^ 0x570e);
        let n = rng.range_usize(1, 200);
        let offsets: Vec<u32> = (0..n).map(|_| (rng.next_u64() % 256) as u32).collect();
        let mk = |policy_through: bool| {
            let config = if policy_through {
                CacheConfig::psi_store_through()
            } else {
                CacheConfig::psi()
            };
            let mut c = Cache::new(config);
            let mut stall = 0;
            for (i, off) in offsets.iter().enumerate() {
                let addr = Address::new(ProcessId::ZERO, Area::LocalStack, *off);
                let cmd = if i % 2 == 0 {
                    CacheCommand::WriteStack
                } else {
                    CacheCommand::Read
                };
                c.advance(200);
                stall += c.access(cmd, addr).stall_ns;
            }
            stall
        };
        assert!(mk(false) <= mk(true), "seed {seed}");
    }
}

/// Malformed and hostile program text must surface as typed errors —
/// never a panic, never a host stack overflow. This is the contract
/// `psi-server` relies on when it feeds untrusted wire bytes to the
/// KL0 front end.
#[test]
fn malformed_input_parses_to_typed_errors_without_panicking() {
    use psi::kl0::LoweredProgram;
    use psi::psi_core::PsiError;

    // Token soup drawn from an alphabet chosen to stress every lexer
    // and parser path: nesting, operators, quotes, escapes, digits.
    const ALPHABET: &[&str] = &[
        "(",
        ")",
        "[",
        "]",
        "|",
        ",",
        ".",
        ":-",
        ";",
        "->",
        "\\+",
        "=",
        "is",
        "+",
        "-",
        "*",
        "//",
        "mod",
        "!",
        "_",
        "X",
        "Ys",
        "foo",
        "'q u o'",
        "'\\n'",
        "'",
        "\"",
        "\\",
        "0",
        "42",
        "999999999999999999999999",
        " ",
        "\n",
        "\t",
        "%",
        "% comment",
        "\u{3bb}",
        "\0",
    ];
    for seed in 0..600u64 {
        let mut rng = Rng::new(seed ^ 0xbadf00d);
        let n = rng.range_usize(1, 40);
        let mut src = String::new();
        for _ in 0..n {
            src.push_str(ALPHABET[rng.range_usize(0, ALPHABET.len())]);
        }
        // Either outcome is fine; panicking (which would fail this
        // test) or aborting the process (stack overflow) is not.
        match Program::parse(&src) {
            Ok(p) => {
                // Parsed programs must also lower without panicking.
                let _ = LoweredProgram::lower(&p);
            }
            Err(e) => assert!(
                matches!(e, PsiError::Syntax { .. } | PsiError::Compile { .. }),
                "seed {seed}: unexpected error kind {e}"
            ),
        }
    }

    // Mutations of a valid program: truncations and single-byte edits.
    let base = SORT_SRC;
    for seed in 0..300u64 {
        let mut rng = Rng::new(seed ^ 0xc0ffee);
        let mut src = base.to_owned();
        match rng.range_usize(0, 3) {
            0 => src.truncate(rng.range_usize(0, base.len())),
            1 => {
                let at = rng.range_usize(0, src.len());
                if src.is_char_boundary(at) {
                    src.insert(at, b"()[]|,.'\\\"!"[rng.range_usize(0, 11)] as char);
                }
            }
            _ => {
                let at = rng.range_usize(0, src.len());
                if src.is_char_boundary(at) && src.is_char_boundary(at + 1) {
                    src.replace_range(at..at + 1, "'");
                }
            }
        }
        match Program::parse(&src) {
            Ok(p) => {
                let _ = LoweredProgram::lower(&p);
            }
            Err(e) => assert!(
                matches!(e, PsiError::Syntax { .. } | PsiError::Compile { .. }),
                "seed {seed}: unexpected error kind {e}"
            ),
        }
    }
}
