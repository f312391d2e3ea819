//! Lane equivalence: the fast lane (`MachineConfig::psi_compiled()`,
//! measurement off — fused ops, superinstruction chaining,
//! packetized microstep charging) must be observationally identical
//! to the fidelity lane (`MachineConfig::psi()`) for everything the
//! paper's tables derive from microstep accounting — solutions and
//! bindings, total steps, per-module tallies (Table 2), branch-field
//! tallies (Table 7), call/choice-point counts and indexing stats —
//! on every Table 1 row, under both indexing profiles, including
//! resource-budget trip points and panic containment.
//!
//! The file also holds the fast lane's own checks: fusion actually
//! runs, and fork × consult never serves a stale fused entry.

mod lanes;

use lanes::{deterministic_view, Lane};
use psi::kl0::Program;
use psi::psi_machine::{Machine, MachineConfig};
use psi::psi_obs::Counter;

fn fast() -> Lane {
    ("fast", MachineConfig::psi_compiled())
}

#[test]
fn all_table1_rows_are_lane_invariant() {
    lanes::assert_table1_rows_match_fidelity(&fast());
}

#[test]
fn indexed_profile_is_lane_invariant() {
    lanes::assert_indexed_rows_match_fidelity(&fast());
}

#[test]
fn solution_bindings_are_lane_invariant() {
    lanes::assert_bindings_match_fidelity(&fast());
}

/// Every arm whose charges the lanes split, including those the
/// Table 1 rows may not reach.
#[test]
fn fused_arms_are_lane_invariant() {
    lanes::assert_fused_arms_match_fidelity(&fast());
}

#[test]
fn step_budget_exhaustion_is_lane_invariant() {
    lanes::assert_step_budget_trips_like_fidelity(&fast());
}

/// The fast lane was formerly called the throughput lane.
#[test]
fn fault_isolation_holds_in_the_throughput_lane() {
    lanes::assert_fault_isolation_holds(&fast());
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
