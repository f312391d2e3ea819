//! The warm-pool contract psi-server relies on: a recycled machine
//! hands its next session exactly what a freshly loaded machine would
//! — bit-identical solutions and statistics, zero stale events,
//! metrics, trace entries or buffered output — while keeping loaded
//! code and the fused program warm.

use psi::kl0::Program;
use psi::psi_machine::{Machine, MachineConfig, ResourceLimits};
use psi::psi_obs::Counter;
use psi::psi_server::serving_config;

const SRC: &str = "
qsort([], []).
qsort([P|T], S) :-
    partition(T, P, Lo, Hi), qsort(Lo, SLo), qsort(Hi, SHi),
    app(SLo, [P|SHi], S).
partition([], _, [], []).
partition([X|T], P, [X|Lo], Hi) :- X =< P, partition(T, P, Lo, Hi).
partition([X|T], P, Lo, [X|Hi]) :- X > P, partition(T, P, Lo, Hi).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
";

const GOAL: &str = "qsort([7,3,9,1,5,8,2], S)";

/// consult → solve → recycle → solve must be indistinguishable from a
/// fresh machine running the same solve: identical solutions and
/// bit-identical `MachineStats` (all integer counters, so `==` is
/// bit-identity).
#[test]
fn recycled_machine_is_bitwise_identical_to_fresh() {
    for config in [serving_config(), MachineConfig::psi()] {
        let program = Program::parse(SRC).expect("parses");

        let mut fresh = Machine::load(&program, config.clone()).expect("loads");
        let fresh_solutions = fresh.solve(GOAL, 4).expect("solves");

        let mut pooled = Machine::load(&program, config.clone()).expect("loads");
        // Dirty the machine with a different session: extra consulted
        // clauses are kept (code is append-only), run state is not.
        pooled.consult("scratch(1). scratch(2).").expect("consults");
        pooled.solve("scratch(X)", 2).expect("solves");
        pooled.recycle();
        let pooled_solutions = pooled.solve(GOAL, 4).expect("solves");

        assert_eq!(fresh_solutions, pooled_solutions);
        let (f, p) = (fresh.stats(), pooled.stats());
        assert_eq!(f.steps, p.steps, "steps must not leak across recycle");
        assert_eq!(f.modules, p.modules);
        assert_eq!(f.branches, p.branches);
        assert_eq!(f.user_calls, p.user_calls);
        assert_eq!(f.builtin_calls, p.builtin_calls);
        assert_eq!(f.choice_points, p.choice_points);
        assert_eq!(f.indexed_calls, p.indexed_calls);
        assert_eq!(f.index_direct_entries, p.index_direct_entries);
        // In the fast lane the cache model is off, so the whole
        // stats struct compares bit-identical (the extra consulted
        // code shifts heap addresses, which only the fidelity-lane
        // cache model can see).
        if config.measurement == psi::psi_core::Measurement::Off {
            assert_eq!(f, p);
        }
        // The live counters agree too.
        let (fm, pm) = (fresh.metrics_snapshot(), pooled.metrics_snapshot());
        for c in [
            Counter::Dispatches,
            Counter::Backtracks,
            Counter::Solutions,
            Counter::ChoicePoints,
            Counter::GovernorChecks,
            Counter::GovernorTrips,
        ] {
            assert_eq!(fm.get(c), pm.get(c), "{c:?}");
        }
    }
}

/// A recycled machine hands the next session zero stale observability
/// events, metrics, trace entries or buffered output — even when the
/// previous session traced heavily and never drained its events.
#[test]
fn recycle_drops_all_per_session_state() {
    let program = Program::parse(SRC).expect("parses");
    let mut m = Machine::load(&program, MachineConfig::psi()).expect("loads");
    m.set_event_trace(true);
    m.set_trace_memory(true);
    m.solve("qsort([3,1,2], S)", 1).expect("solves");
    assert!(m.stats().steps > 0);
    // The previous session never took its events or trace.
    m.recycle();
    assert!(m.take_events().is_empty(), "stale events leaked");
    assert!(m.take_trace().is_empty(), "stale trace leaked");
    assert!(m.output().is_empty(), "stale output leaked");
    assert_eq!(m.stats().steps, 0, "stale step tally leaked");
    let snap = m.metrics_snapshot();
    assert_eq!(snap.get(Counter::Dispatches), 0, "stale metrics leaked");
    assert_eq!(snap.get(Counter::Solutions), 0, "stale metrics leaked");
}

/// Stale events must be dropped at every run boundary, not only at
/// recycle: two traced solves followed by one `take_events` see only
/// the second run's stream (same contract as the memory trace).
#[test]
fn each_run_records_a_fresh_event_stream() {
    let program = Program::parse("p(1). p(2). q(X) :- p(X), p(X).").expect("parses");
    let mut m = Machine::load(&program, MachineConfig::psi()).expect("loads");
    m.set_event_trace(true);
    m.solve("q(X)", 9).expect("solves");
    let first = m.take_events().len();
    m.solve("q(X)", 9).expect("solves");
    m.solve("p(X)", 1).expect("solves");
    let last_only = m.take_events();
    assert!(!last_only.is_empty());
    assert!(
        last_only.len() < first,
        "p/1 run must not carry the q/1 runs' events ({} vs {first})",
        last_only.len()
    );
}

/// Regression: `recycle` must restore the machine's load-time
/// budgets. Previously a tenant that tightened its limits via
/// `set_limits` and checked the machine back in left those limits
/// armed, so the next tenant of the warm machine ran under the
/// previous tenant's (possibly hostile, 1-step) budget instead of the
/// server default — a behavioral difference between a warm and a cold
/// checkout that the pool's bit-identity contract forbids.
#[test]
fn recycle_restores_load_time_limits() {
    let program = Program::parse("spin :- spin.\nnat(z). nat(s(X)) :- nat(X).").expect("parses");
    let mut m = Machine::load(&program, serving_config()).expect("loads");

    // Tenant 1 tightens its own budget and trips it.
    m.set_limits(ResourceLimits::unlimited().with_max_steps(100));
    assert!(m.solve("spin", 1).is_err(), "tightened budget must fire");

    // Check-in is recycle alone: the pool cannot know what the
    // departing tenant did to the limits.
    m.recycle();

    // Tenant 2 gets the load-time (unlimited) budgets back; this
    // enumeration costs far more than 100 steps and must succeed.
    let solutions = m
        .solve("nat(X)", 200)
        .expect("stale tenant-1 step cap leaked through recycle");
    assert_eq!(solutions.len(), 200);
}

/// `set_limits` re-tiers a pooled machine per session: tightened
/// budgets fire for the new session, lifted budgets stop firing.
#[test]
fn set_limits_takes_effect_at_the_next_run() {
    let program = Program::parse("spin :- spin.\np(1).").expect("parses");
    let mut m = Machine::load(&program, serving_config()).expect("loads");
    m.set_limits(ResourceLimits::unlimited().with_max_steps(50_000));
    assert!(m.solve("spin", 1).is_err(), "tightened budget must fire");
    m.recycle();
    m.set_limits(ResourceLimits::unlimited());
    assert_eq!(m.solve("p(X)", 2).expect("solves").len(), 1);
}

/// `gen(N, L)` leaves a choice point per level and binds older
/// variables under them, so a run tripped deep inside it holds live
/// choice points, trail entries and (fidelity lane) buffered frames.
const GEN: &str = "
gen(0, []).
gen(N, [X|T]) :- N > 0, pick(X), M is N - 1, gen(M, T).
pick(a). pick(b). pick(c).
";

/// A run that trips its step budget deep in a search leaves nothing
/// behind: the next solve on the same machine equals a never-run
/// machine's solve bit for bit, in both lanes. The fresh machine
/// compiles the tripped goal without running it, so both images are
/// the same; the fidelity lane runs uncached because a cache keeps its
/// contents across runs by design.
#[test]
fn solve_after_a_budget_trip_equals_a_fresh_machine() {
    let program = Program::parse(&format!("{SRC}{GEN}")).expect("parses");
    for config in [
        serving_config(),
        MachineConfig::psi_compiled(),
        MachineConfig::psi_uncached(),
    ] {
        let mut tripped = Machine::load(&program, config.clone()).expect("loads");
        tripped.set_limits(ResourceLimits::unlimited().with_max_steps(200_000));
        assert!(
            tripped.solve("gen(100000, L)", 1).is_err(),
            "budget must trip"
        );
        tripped.set_limits(ResourceLimits::unlimited());
        tripped.reset_measurement();
        let after_trip = tripped.solve(GOAL, 4).expect("solves");

        let mut fresh = Machine::load(&program, config).expect("loads");
        assert!(fresh
            .solve("gen(100000, L)", 0)
            .expect("compiles")
            .is_empty());
        assert_eq!(after_trip, fresh.solve(GOAL, 4).expect("solves"));
        assert_eq!(tripped.stats(), fresh.stats());
        assert_eq!(tripped.hot_path_alloc_count(), 0);
    }
}

/// Run resets keep the stacks' reservations: consecutive solves, a
/// recycle, and a machine cloned mid-life (a derived `Clone` keeps only
/// each stack's length) all run without a hot-path allocation.
#[test]
fn consecutive_solves_and_recycle_stay_allocation_free() {
    let program = Program::parse(SRC).expect("parses");
    for config in [serving_config(), MachineConfig::psi()] {
        let mut m = Machine::load(&program, config).expect("loads");
        for goal in [GOAL, "qsort([2,1], S)", GOAL] {
            assert_eq!(m.solve(goal, 4).expect("solves").len(), 1);
            assert_eq!(m.hot_path_alloc_count(), 0, "{goal}");
        }
        let mut clone = m.clone();
        m.recycle();
        assert_eq!(m.solve(GOAL, 4).expect("solves").len(), 1);
        assert_eq!(m.hot_path_alloc_count(), 0);
        assert_eq!(clone.solve(GOAL, 4).expect("solves").len(), 1);
        assert_eq!(clone.hot_path_alloc_count(), 0);
    }
}

/// A run that grows a stack past its reservation does not leave the
/// machine holding that peak: the next reset shrinks it back, so a
/// repeat of the deep run grows it again by exactly as many steps as
/// the first run did from a fresh machine.
#[test]
fn a_grown_stack_is_back_at_its_reservation_after_the_next_reset() {
    let program = Program::parse(GEN).expect("parses");
    for config in [serving_config(), MachineConfig::psi_compiled()] {
        let mut m = Machine::load(&program, config).expect("loads");
        m.solve("gen(10000, L)", 1).expect("solves");
        let growth = m.hot_path_alloc_count();
        assert!(growth > 0, "10000 levels must outgrow the reservations");
        m.solve("gen(10, L)", 1).expect("solves");
        assert_eq!(
            m.hot_path_alloc_count(),
            growth,
            "a shallow run must not grow"
        );
        m.solve("gen(10000, L)", 1).expect("solves");
        assert_eq!(m.hot_path_alloc_count(), 2 * growth);
    }
}
