//! Fork equivalence: a [`Machine::fork`] of a consulted, never-run
//! template must be observationally indistinguishable from a fresh
//! `Machine::load` of the same source — same solutions, same full
//! [`MachineStats`] (including cache and work-file counters, since
//! fork shares only *immutable* state), and the same zero
//! hot-path-allocation guarantee — across the whole Table 1 suite, in
//! both execution lanes and both indexing profiles. The snapshot
//! round trip (`psi_tools::snapshot`) must preserve the same
//! bit-identity through serialization.

use psi::kl0::Program;
use psi::psi_cache::CacheConfig;
use psi::psi_core::Measurement;
use psi::psi_machine::{Machine, MachineConfig, MachineStats};
use psi::psi_tools::snapshot::{restore, snapshot};
use psi::psi_workloads::suite::table1_suite;
use psi::psi_workloads::Workload;

/// The four configuration corners the serving stack uses: each lane
/// with and without first-argument clause indexing.
fn corners() -> Vec<(&'static str, MachineConfig)> {
    let mut fast_indexed = MachineConfig::psi_indexed();
    fast_indexed.measurement = Measurement::Off;
    vec![
        ("fidelity", MachineConfig::psi()),
        ("fidelity/indexed", MachineConfig::psi_indexed()),
        ("fast", MachineConfig::psi_compiled()),
        ("fast/indexed", fast_indexed),
    ]
}

/// Runs a workload's goal on an already-consulted machine.
fn run_goal(machine: &mut Machine, w: &Workload) -> (Vec<String>, MachineStats) {
    let solutions = if w.background.is_empty() {
        machine
            .solve(&w.goal, w.max_solutions)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name))
    } else {
        let bg: Vec<&str> = w.background.iter().map(String::as_str).collect();
        machine
            .run_session(&w.goal, &bg)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name))
    };
    let rendered = solutions.iter().map(ToString::to_string).collect();
    (rendered, machine.stats())
}

#[test]
fn fork_matches_fresh_on_all_table1_rows_in_every_corner() {
    for (label, config) in corners() {
        for entry in table1_suite() {
            let w = &entry.workload;
            let program =
                Program::parse(&w.source).unwrap_or_else(|e| panic!("{} [{label}]: {e}", w.name));
            let template = Machine::load(&program, config.clone())
                .unwrap_or_else(|e| panic!("{} [{label}]: {e}", w.name));
            let mut forked = template
                .fork()
                .unwrap_or_else(|e| panic!("{} [{label}]: fork failed: {e}", w.name));
            let mut fresh = Machine::load(&program, config.clone()).unwrap();

            let (fork_solutions, fork_stats) = run_goal(&mut forked, w);
            let (fresh_solutions, fresh_stats) = run_goal(&mut fresh, w);
            assert_eq!(
                fork_solutions, fresh_solutions,
                "{} [{label}]: forked solutions differ",
                w.name
            );
            assert_eq!(
                fork_stats, fresh_stats,
                "{} [{label}]: forked machine stats differ bit-for-bit",
                w.name
            );
            assert_eq!(
                forked.hot_path_alloc_count(),
                0,
                "{} [{label}]: fork allocated on the hot path",
                w.name
            );
            assert!(
                template.is_pristine(),
                "{} [{label}]: running a fork dirtied its template",
                w.name
            );
        }
    }
}

#[test]
fn fork_after_run_or_recycle_is_a_typed_error() {
    let program = Program::parse("p(1). p(2).").unwrap();
    let mut m = Machine::load(&program, MachineConfig::psi()).unwrap();
    assert!(m.is_pristine());
    m.solve("p(X)", 9).unwrap();
    let err = m.fork().unwrap_err();
    assert_eq!(err.wire_kind(), "fork_after_run");
    assert_eq!(err.wire_code(), 10);

    // Recycle clears run state but not compiled query stubs, so a
    // recycled machine is still not a template.
    m.recycle();
    let err = m.fork().unwrap_err();
    assert_eq!(
        err.wire_kind(),
        "fork_after_run",
        "recycle must not launder a run machine into a template"
    );
}

#[test]
fn forks_are_independent_of_each_other() {
    let program = Program::parse("q(a). q(b). r(X) :- q(X).").unwrap();
    let template = Machine::load(&program, MachineConfig::psi_indexed()).unwrap();
    let mut one = template.fork().unwrap();
    let mut two = template.fork().unwrap();
    assert_eq!(one.solve("q(X)", 9).unwrap().len(), 2);
    // The sibling fork is unaffected by the first fork's run and
    // matches a fresh machine exactly.
    let mut fresh = Machine::load(&program, MachineConfig::psi_indexed()).unwrap();
    assert_eq!(
        two.solve("r(Y)", 9).unwrap(),
        fresh.solve("r(Y)", 9).unwrap()
    );
    assert_eq!(two.stats(), fresh.stats());
}

#[test]
fn fork_with_cache_changes_geometry_but_not_answers() {
    let entry = &table1_suite()[0];
    let w = &entry.workload;
    let program = Program::parse(&w.source).unwrap();
    let template = Machine::load(&program, MachineConfig::psi()).unwrap();
    let mut small = template
        .fork_with_cache(Some(CacheConfig::psi_with_capacity(64)))
        .unwrap();
    let mut stock = template.fork().unwrap();
    let (small_solutions, small_stats) = run_goal(&mut small, w);
    let (stock_solutions, stock_stats) = run_goal(&mut stock, w);
    assert_eq!(small_solutions, stock_solutions, "{}", w.name);
    assert_eq!(small_stats.steps, stock_stats.steps, "{}", w.name);
    assert!(
        small_stats.stall_ns > stock_stats.stall_ns,
        "{}: a 64-word cache should stall more than the stock 8KW one",
        w.name
    );
}

/// Snapshot → restore → fork preserves bit-identity on a real Table 1
/// row: the restored template's fork runs exactly like a fork of the
/// original.
#[test]
fn snapshot_round_trip_preserves_fork_bit_identity() {
    let entry = &table1_suite()[0];
    let w = &entry.workload;
    let program = Program::parse(&w.source).unwrap();
    let template = Machine::load(&program, MachineConfig::psi_indexed()).unwrap();

    let line = snapshot(&template, &w.source).unwrap();
    let restored = restore(&line).unwrap();
    assert!(restored.is_pristine());

    let mut from_original = template.fork().unwrap();
    let mut from_restored = restored.fork().unwrap();
    let (a_solutions, a_stats) = run_goal(&mut from_original, w);
    let (b_solutions, b_stats) = run_goal(&mut from_restored, w);
    assert_eq!(a_solutions, b_solutions, "{}", w.name);
    assert_eq!(a_stats, b_stats, "{}", w.name);
}

#[test]
fn snapshot_version_mismatch_is_a_typed_error_not_a_panic() {
    let entry = &table1_suite()[0];
    let w = &entry.workload;
    let program = Program::parse(&w.source).unwrap();
    let template = Machine::load(&program, MachineConfig::psi()).unwrap();
    let line = snapshot(&template, &w.source).unwrap();
    let wrong = line.replace("psi-snapshot-v1", "psi-snapshot-v2");
    let err = restore(&wrong).unwrap_err();
    assert_eq!(err.wire_kind(), "snapshot");
    assert_eq!(err.wire_code(), 11);
    assert!(err.to_string().contains("psi-snapshot-v2"), "{err}");
}

/// Satellite of the sweep engine: `fork_with_cache` must honor the
/// *full* geometry grid, not just capacity. Every valid (ways × block
/// × write policy × write-stack handling) combination round-trips
/// through the fork — the forked machine reports exactly the
/// requested configuration, its derived geometry (blocks, sets) is
/// arithmetically consistent, and the run is step- and
/// solution-identical to the stock fork (geometry changes stalls,
/// never semantics or step counts).
#[test]
fn fork_with_cache_round_trips_every_geometry_combination() {
    use psi::psi_cache::WritePolicy;
    let entry = &table1_suite()[0];
    let w = &entry.workload;
    let program = Program::parse(&w.source).unwrap();
    let template = Machine::load(&program, MachineConfig::psi()).unwrap();
    let mut stock = template.fork().unwrap();
    let (stock_solutions, stock_stats) = run_goal(&mut stock, w);
    let stock_accesses = stock_stats.cache.total().accesses();

    let mut combinations = 0;
    for ways in [1u32, 2, 4] {
        for block_words in [2u32, 4, 8] {
            for policy in [WritePolicy::StoreIn, WritePolicy::StoreThrough] {
                for write_stack_no_fetch in [false, true] {
                    // Small enough to differ from stock, large enough
                    // to be valid for every (ways, block) pair; sets
                    // stay a power of two because everything else is.
                    let geometry = CacheConfig {
                        capacity_words: 256,
                        block_words,
                        ways,
                        policy,
                        write_stack_no_fetch,
                        ..CacheConfig::psi()
                    };
                    let label = format!(
                        "{}w{ways}b{block_words}p{policy:?}s{write_stack_no_fetch}",
                        w.name
                    );
                    let mut forked = template.fork_with_cache(Some(geometry)).unwrap();

                    // The fork reports exactly the requested geometry…
                    let reported = forked.config().cache.unwrap_or_else(|| {
                        panic!("{label}: fork_with_cache(Some) must report a cache")
                    });
                    assert_eq!(reported, geometry, "{label}");
                    // …with consistent derived numbers.
                    assert_eq!(reported.blocks(), 256 / block_words, "{label}");
                    assert_eq!(reported.sets(), 256 / block_words / ways, "{label}");
                    assert!(reported.sets().is_power_of_two(), "{label}");

                    // And the run is semantics- and step-identical to
                    // stock: geometry moves stalls only.
                    let (solutions, stats) = run_goal(&mut forked, w);
                    assert_eq!(solutions, stock_solutions, "{label}");
                    assert_eq!(stats.steps, stock_stats.steps, "{label}");
                    assert_eq!(
                        stats.cache.total().accesses(),
                        stock_accesses,
                        "{label}: access count is a function of execution, not geometry"
                    );
                    combinations += 1;
                }
            }
        }
    }
    assert_eq!(combinations, 3 * 3 * 2 * 2);

    // The cache-less fork is part of the same surface: no cache
    // config, same answers and access count (the uncached bus still
    // tallies every access — as a miss, since there is nothing to
    // hit).
    let mut uncached = template.fork_with_cache(None).unwrap();
    assert!(uncached.config().cache.is_none());
    let (solutions, stats) = run_goal(&mut uncached, w);
    assert_eq!(solutions, stock_solutions);
    assert_eq!(stats.steps, stock_stats.steps);
    assert_eq!(stats.cache.total().accesses(), stock_accesses);
    assert_eq!(stats.cache.total().hits(), 0);
}
