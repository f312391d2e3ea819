//! The observability layer end to end: event tracing through the
//! machine's bounded ring, metrics snapshots that agree with the
//! single-source tallies, and the zero-cost guarantee when everything
//! is switched off.

use psi::kl0::Program;
use psi::psi_core::EventKind;
use psi::psi_machine::{Machine, MachineConfig, ResourceLimits};
use psi::psi_obs::Counter;

fn machine_for(workload: &psi::psi_workloads::Workload, config: MachineConfig) -> Machine {
    let program = Program::parse(&workload.source).expect("parses");
    Machine::load(&program, config).expect("loads")
}

/// Event tracing captures the machine's dispatch, cache and backtrack
/// activity in one chronological stream.
#[test]
fn machine_events_form_one_chronological_stream() {
    let w = psi::psi_workloads::contest::queens_all(6);
    let mut machine = machine_for(&w, MachineConfig::psi());
    machine.set_event_trace(true);
    let solutions = machine.solve(&w.goal, w.max_solutions).expect("solves");
    assert_eq!(solutions.len(), 4);

    let events = machine.take_events();
    assert!(!events.is_empty(), "tracing on: events must be captured");
    let kinds: std::collections::HashSet<EventKind> = events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::Dispatch));
    assert!(kinds.contains(&EventKind::CacheAccess));
    assert!(kinds.contains(&EventKind::Backtrack), "queens backtracks");
    for pair in events.windows(2) {
        assert!(pair[0].step <= pair[1].step, "one chronological stream");
    }
}

/// The metrics snapshot mirrors the single-source tallies (module
/// steps, cache counters) and carries the live counters the hooks
/// record — all consistent with `MachineStats`.
#[test]
fn metrics_snapshot_agrees_with_machine_stats() {
    let w = psi::psi_workloads::contest::queens_all(6);
    let mut machine = machine_for(&w, MachineConfig::psi());
    let solutions = machine.solve(&w.goal, w.max_solutions).expect("solves");
    let stats = machine.stats();
    let m = machine.metrics_snapshot();

    assert_eq!(m.total_steps(), stats.steps, "module-step mirror");
    for module in psi::psi_machine::InterpModule::ALL {
        assert_eq!(
            m.module_steps(module.index()),
            stats.modules.count(module),
            "module {module} mirror"
        );
    }
    let total = stats.cache.total();
    assert_eq!(
        m.get(Counter::CacheHits) + m.get(Counter::CacheMisses),
        total.accesses()
    );
    assert_eq!(m.get(Counter::CacheReads), total.reads);
    assert_eq!(m.get(Counter::CacheWrites), total.writes);
    assert_eq!(m.get(Counter::CacheWriteStacks), total.write_stacks);
    assert_eq!(m.get(Counter::Solutions), solutions.len() as u64);
    assert!(m.get(Counter::Dispatches) > 0);
    assert!(m.get(Counter::Backtracks) > 0, "queens backtracks");
    assert_eq!(m.get(Counter::GovernorTrips), 0, "unlimited run");
}

/// Governor activity is visible in the metrics: a budgeted run that
/// exhausts its steps records checks and exactly one trip.
#[test]
fn governor_trip_is_counted_and_traced() {
    let program = Program::parse("spin :- spin.").expect("parses");
    let mut config = MachineConfig::psi();
    config.limits = ResourceLimits::unlimited().with_max_steps(50_000);
    let mut machine = Machine::load(&program, config).expect("loads");
    machine.set_event_trace(true);
    machine.solve("spin", 1).expect_err("budget must trip");

    let m = machine.metrics_snapshot();
    assert!(m.get(Counter::GovernorChecks) > 0);
    assert_eq!(m.get(Counter::GovernorTrips), 1);

    let events = machine.take_events();
    let trips: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::GovernorTrip)
        .collect();
    assert_eq!(trips.len(), 1);
    assert_eq!(
        psi::psi_core::Resource::from_code(trips[0].a),
        Some(psi::psi_core::Resource::Steps)
    );
}

/// With tracing and event recording off (the default), the hot path
/// stays allocation-free — the observability layer's counters are
/// fixed arrays and its emission sites cost one branch.
#[test]
fn disabled_observability_keeps_hot_path_allocation_free() {
    for w in [
        psi::psi_workloads::contest::nreverse(30),
        psi::psi_workloads::contest::queens_all(6),
    ] {
        let mut machine = machine_for(&w, MachineConfig::psi());
        assert!(!machine.config().trace_events);
        assert!(!machine.config().trace_memory);
        let solutions = machine.solve(&w.goal, w.max_solutions).expect("solves");
        assert!(!solutions.is_empty());
        assert_eq!(
            machine.hot_path_alloc_count(),
            0,
            "hot path must not allocate on {} with observability off",
            w.name
        );
        assert!(machine.take_events().is_empty(), "tracing off: no events");
    }
}

/// Event tracing must not perturb the measured simulation: steps,
/// simulated time and cache statistics are bit-identical with tracing
/// on and off (the ring only observes).
#[test]
fn event_tracing_does_not_perturb_measurements() {
    let w = psi::psi_workloads::contest::nreverse(30);

    let mut plain = machine_for(&w, MachineConfig::psi());
    plain.solve(&w.goal, w.max_solutions).expect("solves");
    let baseline = plain.stats();

    let mut traced = machine_for(&w, MachineConfig::psi());
    traced.set_event_trace(true);
    traced.solve(&w.goal, w.max_solutions).expect("solves");
    let observed = traced.stats();

    assert_eq!(baseline, observed, "observation must not change the run");
}
