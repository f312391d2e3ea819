//! Lane equivalence across the three pre-change lane settings. Before
//! `MachineConfig` lost its `compiled` flag, the fidelity, throughput
//! (measurement off) and compiled (measurement off plus `compiled`)
//! settings selected three lanes; they now select two. A machine
//! restored from a snapshot written under either fast setting must
//! run on the fast lane and stay observationally identical to the
//! fidelity lane on every Table 1 row, under both indexing profiles,
//! including resource-budget trip points and panic containment (the
//! checks live in `tests/lanes/mod.rs`).
//!
//! The file also holds the fast lane's own checks: fusion actually
//! runs, fork × consult never serves a stale fused entry, and
//! pre-change snapshots restore onto the right lane.

mod lanes;

use lanes::{deterministic_view, Lane};
use psi::kl0::Program;
use psi::psi_core::Measurement;
use psi::psi_machine::{Machine, MachineConfig};
use psi::psi_obs::Counter;
use psi::psi_tools::json::parse_object;
use psi::psi_tools::snapshot::{restore, snapshot};

/// The two pre-change fast settings, as read back from snapshots
/// written under them.
fn pre_change_fast_lanes() -> [Lane; 2] {
    let config = |compiled: bool| {
        restore(&pre_change_snapshot("throughput", compiled))
            .expect("pre-change snapshot restores")
            .config()
            .clone()
    };
    [("throughput", config(false)), ("compiled", config(true))]
}

#[test]
fn all_table1_rows_are_lane_invariant_across_three_lanes() {
    lanes::assert_table1_rows_match_fidelity(&pre_change_fast_lanes());
}

#[test]
fn indexed_profile_is_lane_invariant_across_three_lanes() {
    lanes::assert_indexed_rows_match_fidelity(&pre_change_fast_lanes());
}

#[test]
fn solution_bindings_are_lane_invariant_across_three_lanes() {
    lanes::assert_bindings_match_fidelity(&pre_change_fast_lanes());
}

#[test]
fn step_budget_exhaustion_is_lane_invariant_across_three_lanes() {
    lanes::assert_step_budget_trips_like_fidelity(&pre_change_fast_lanes());
}

/// A builtin-heavy chain actually exercises the superinstruction path:
/// the fast lane must report fused dispatches and fusion hits,
/// while its deterministic statistics still match fidelity.
#[test]
fn compiled_lane_fuses_builtin_chains() {
    let src = "count(N, N).\n\
               count(I, N) :- I < N, J is I + 1, count(J, N).";
    let goal = "count(0, 500)";
    let program = Program::parse(src).expect("parses");
    let mut fid = Machine::load(&program, MachineConfig::psi()).expect("loads");
    let mut cmp = Machine::load(&program, MachineConfig::psi_compiled()).expect("loads");
    assert_eq!(
        fid.solve(goal, 1).expect("solves"),
        cmp.solve(goal, 1).expect("solves")
    );
    assert_eq!(
        deterministic_view(&fid.stats()),
        deterministic_view(&cmp.stats())
    );
    let snap = cmp.metrics_snapshot();
    assert!(
        snap.get(Counter::FusedDispatches) > 0,
        "fast lane never dispatched from the fused array"
    );
    assert!(
        snap.get(Counter::FusionHits) > 0,
        "builtin chain produced no superinstruction continuations"
    );
    // The fidelity lane reports no fused activity at all.
    assert_eq!(fid.metrics_snapshot().get(Counter::FusedDispatches), 0);
}

/// Regression (fork × append-only consult): `sync_code` grows the
/// shared fused program behind `Arc::make_mut`. A fork followed by an
/// incremental consult — in either order — must never serve a stale
/// entry for any code word, and must stay bit-identical to a machine
/// freshly loaded with the same final source.
#[test]
fn fork_then_consult_never_serves_stale_decode_or_fused_entries() {
    let base = "gen(z).\ngen(s(X)) :- gen(X).";
    let extra = "top(T) :- gen(T), big(T).\n\
                 big(s(s(s(_)))).";
    let combined = format!("{base}\n{extra}");
    let goal = "top(T)";
    let config = MachineConfig::psi_compiled();
    let reference = {
        let program = Program::parse(&combined).expect("parses");
        let mut m = Machine::load(&program, config.clone()).expect("loads");
        let solutions = m.solve(goal, 2).expect("solves");
        (solutions, format!("{:?}", deterministic_view(&m.stats())))
    };

    // Direction 1: fork first, consult the extra clauses in the
    // fork. The fork's consult must detach its own fused program, not
    // mutate the template's.
    let program = Program::parse(base).expect("parses");
    let template = Machine::load(&program, config.clone()).expect("loads");
    let mut fork = template.fork().expect("forks");
    fork.consult(extra).expect("consults");
    let solutions = fork.solve(goal, 2).expect("solves");
    assert_eq!(reference.0, solutions, "fork-then-consult diverged");
    assert_eq!(
        reference.1,
        format!("{:?}", deterministic_view(&fork.stats())),
        "fork-then-consult stats diverged"
    );

    // The template is untouched and still forks the base program.
    let mut plain = template.fork().expect("template still pristine");
    assert_eq!(
        plain.solve("gen(s(z))", 1).expect("solves").len(),
        1,
        "template corrupted by the fork's consult"
    );

    // Direction 2: consult the extra clauses in the template
    // *before* forking; the fork inherits the full fused program and
    // must see every entry. Solve twice to cover a warmed re-solve.
    let program = Program::parse(base).expect("parses");
    let mut template = Machine::load(&program, config.clone()).expect("loads");
    template.consult(extra).expect("consults");
    let mut fork = template.fork().expect("forks");
    let solutions = fork.solve(goal, 2).expect("solves");
    assert_eq!(reference.0, solutions, "consult-then-fork diverged");
    let again = fork.solve(goal, 2).expect("re-solves");
    assert_eq!(reference.0, again, "warmed re-solve diverged");
}

#[test]
fn fault_isolation_holds_in_the_compiled_lane() {
    let [_, compiled] = pre_change_fast_lanes();
    lanes::assert_fault_isolation_holds(&[compiled]);
}

const SNAPSHOT_SRC: &str = "p(1). p(2). q(X) :- p(X).";

/// A snapshot line as written before `MachineConfig` lost its
/// `compiled` flag: the stock cached machine on lane `measurement`
/// with the flag set to `compiled`. The image fields are read from a
/// fresh snapshot of the same source, so the line restores.
fn pre_change_snapshot(measurement: &str, compiled: bool) -> String {
    let template = Machine::load(
        &Program::parse(SNAPSHOT_SRC).expect("parses"),
        MachineConfig::psi(),
    )
    .expect("loads");
    let fresh = parse_object(&snapshot(&template, SNAPSHOT_SRC).expect("snapshots")).expect("json");
    let image = |key: &str| fresh.u64_field(key).expect("image field");
    format!(
        "{{\"schema\":\"psi-snapshot-v1\",\"source\":\"{SNAPSHOT_SRC}\",\"cycle_ns\":200,\
         \"frame_buffering\":true,\"tail_recursion_opt\":true,\"trace_memory\":false,\
         \"trace_events\":false,\"clause_indexing\":false,\"measurement\":\"{measurement}\",\
         \"compiled\":{compiled},\"cache\":true,\"cache_capacity_words\":8192,\
         \"cache_block_words\":4,\"cache_ways\":2,\"cache_policy\":\"store_in\",\
         \"cache_write_stack_no_fetch\":true,\"cache_hit_ns\":200,\"cache_miss_ns\":800,\
         \"cache_memory_busy_ns\":800,\"image_words\":{},\"image_preds\":{},\"image_fnv\":{}}}",
        image("image_words"),
        image("image_preds"),
        image("image_fnv"),
    )
}

/// Solves the same goal on a restored machine and on a fresh load of
/// `reference`, returning both machines for the caller's checks.
fn restore_and_compare(line: &str, reference: MachineConfig) -> (Machine, Machine) {
    let mut restored = restore(line).expect("pre-change snapshot restores");
    let program = Program::parse(SNAPSHOT_SRC).expect("parses");
    let mut fresh = Machine::load(&program, reference).expect("loads");
    assert_eq!(
        restored.solve("q(X)", 9).expect("solves"),
        fresh.solve("q(X)", 9).expect("solves")
    );
    assert_eq!(
        deterministic_view(&restored.stats()),
        deterministic_view(&fresh.stats())
    );
    (restored, fresh)
}

/// A pre-change snapshot that set `compiled` on the fidelity lane —
/// a setting that never left the fidelity lane — still restores onto
/// the fidelity lane, cache statistics intact.
#[test]
fn compiled_flag_is_inert_in_the_fidelity_lane() {
    let line = pre_change_snapshot("fidelity", true);
    let (restored, fresh) = restore_and_compare(&line, MachineConfig::psi());
    assert_eq!(restored.config().measurement, Measurement::Full);
    assert_eq!(
        restored.stats(),
        fresh.stats(),
        "fidelity stats (including cache) must be untouched"
    );
    assert_eq!(restored.metrics_snapshot().get(Counter::FusedDispatches), 0);
}

/// Pre-change throughput-lane snapshots, with or without the
/// `compiled` flag, restore onto the fast lane.
#[test]
fn throughput_snapshots_restore_onto_the_fast_lane() {
    for compiled in [false, true] {
        let line = pre_change_snapshot("throughput", compiled);
        let (restored, _) = restore_and_compare(&line, MachineConfig::psi_compiled());
        assert_eq!(restored.config().measurement, Measurement::Off);
        assert!(
            restored.metrics_snapshot().get(Counter::FusedDispatches) > 0,
            "compiled={compiled}: restored machine is not on the fast lane"
        );
    }
}
