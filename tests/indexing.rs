//! Cross-profile equivalence and edge-case tests for first-argument
//! clause indexing (`MachineConfig::clause_indexing`).
//!
//! Indexing is a pure candidate filter: it may only skip clauses
//! whose head unification is guaranteed to fail, so every workload
//! must yield bit-identical solutions under both profiles, with the
//! indexed profile doing no more work than the linear one.

use kl0::Program;
use psi::kl0;
use psi::psi_machine::{Machine, MachineConfig};
use psi::psi_workloads::runner::{run_on_psi_machine, run_suite_governed, PsiRun, SuiteOptions};
use psi::psi_workloads::{suite, Workload};

fn machine(src: &str, config: MachineConfig) -> Machine {
    let program = Program::parse(src).unwrap();
    Machine::load(&program, config).unwrap()
}

fn solutions(src: &str, query: &str, config: MachineConfig) -> Vec<String> {
    machine(src, config)
        .solve(query, usize::MAX)
        .unwrap()
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// Runs `workloads` under the governed suite runner; every row must
/// complete.
fn suite_runs(workloads: &[Workload], config: &MachineConfig) -> Vec<PsiRun> {
    run_suite_governed(workloads, config, &SuiteOptions::default())
        .rows
        .iter()
        .map(|r| {
            r.run()
                .cloned()
                .unwrap_or_else(|| panic!("{}: {}", r.name, r.describe()))
        })
        .collect()
}

/// Both profiles, side by side, for the same program and query.
fn both(src: &str, query: &str) -> (Vec<String>, Vec<String>) {
    (
        solutions(src, query, MachineConfig::psi()),
        solutions(src, query, MachineConfig::psi_indexed()),
    )
}

#[test]
fn table1_suite_profiles_are_equivalent() {
    let entries = suite::table1_suite();
    let workloads: Vec<_> = entries.iter().map(|e| e.workload.clone()).collect();
    let linear = suite_runs(&workloads, &MachineConfig::psi());
    let indexed = suite_runs(&workloads, &MachineConfig::psi_indexed());
    for ((entry, lin), idx) in entries.iter().zip(&linear).zip(&indexed) {
        let name = &entry.workload.name;
        assert_eq!(lin.solutions, idx.solutions, "{name}: profiles disagree");
        // The index probe itself costs microsteps (tag dispatch +
        // deref + compare), so a workload whose first arguments
        // barely discriminate can come out marginally worse; allow
        // 2% per row. The aggregate must still improve — see
        // `indexing_reduces_work_measurably`.
        assert!(
            idx.stats.steps <= lin.stats.steps + lin.stats.steps / 50,
            "{name}: indexing increased microsteps ({} > {})",
            idx.stats.steps,
            lin.stats.steps
        );
        assert!(
            idx.stats.choice_points <= lin.stats.choice_points,
            "{name}: indexing pushed more choice points ({} > {})",
            idx.stats.choice_points,
            lin.stats.choice_points
        );
        assert_eq!(
            lin.stats.indexed_calls, 0,
            "{name}: linear profile consulted the index"
        );
    }
}

#[test]
fn indexing_reduces_work_measurably() {
    // Across the whole suite, the indexed profile must do strictly
    // less work in aggregate — not merely "no worse".
    let entries = suite::table1_suite();
    let workloads: Vec<_> = entries.iter().map(|e| e.workload.clone()).collect();
    let linear = suite_runs(&workloads, &MachineConfig::psi());
    let indexed = suite_runs(&workloads, &MachineConfig::psi_indexed());
    let sum = |runs: &[PsiRun], f: fn(&PsiRun) -> u64| runs.iter().map(f).sum::<u64>();
    let (lin_steps, idx_steps) = (
        sum(&linear, |r| r.stats.steps),
        sum(&indexed, |r| r.stats.steps),
    );
    let (lin_cps, idx_cps) = (
        sum(&linear, |r| r.stats.choice_points),
        sum(&indexed, |r| r.stats.choice_points),
    );
    assert!(
        idx_steps < lin_steps,
        "expected fewer total microsteps ({idx_steps} vs {lin_steps})"
    );
    assert!(
        idx_cps < lin_cps,
        "expected fewer total choice points ({idx_cps} vs {lin_cps})"
    );
}

#[test]
fn hot_path_stays_allocation_free_under_indexing() {
    for config in [MachineConfig::psi(), MachineConfig::psi_indexed()] {
        let w = psi::psi_workloads::contest::queens_all(6);
        let (_, machine) = run_on_psi_machine(&w, config).unwrap();
        assert_eq!(machine.hot_path_alloc_count(), 0);
    }
}

#[test]
fn all_candidates_filtered_out_fails_cleanly() {
    // No clause of p/1 has an integer first argument the query can
    // match: the indexed profile finds zero candidates and must fail
    // the call (not panic or error), exactly like the linear scan.
    let (lin, idx) = both("p(1). p(2).", "p(3)");
    assert!(lin.is_empty());
    assert_eq!(lin, idx);
    // Same with a key type no clause uses at all.
    let (lin, idx) = both("p(1). p(2).", "p(foo)");
    assert!(lin.is_empty());
    assert_eq!(lin, idx);
}

#[test]
fn filtered_call_still_backtracks_into_earlier_goals() {
    // The generator g/1 must keep producing alternatives after the
    // indexed call to p/1 fails with zero candidates.
    let src = "g(1). g(2). g(3). p(3). ok(X) :- g(X), p(X).";
    let (lin, idx) = both(src, "ok(X)");
    assert_eq!(lin, vec!["X = 3"]);
    assert_eq!(lin, idx);
}

#[test]
fn unbound_first_argument_enumerates_all_clauses() {
    let (lin, idx) = both("p(a). p(b). p([]). p([x]). p(f(1)). p(7).", "p(X)");
    assert_eq!(lin.len(), 6);
    assert_eq!(lin, idx);
}

#[test]
fn keys_dispatch_by_shape() {
    let src = "k(a, atom). k([], nil). k([_|_], list). k(f(_), struct). k(9, int).";
    for (query, expect) in [
        ("k(a, R)", "R = atom"),
        ("k([], R)", "R = nil"),
        ("k([1,2], R)", "R = list"),
        ("k(f(0), R)", "R = struct"),
        ("k(9, R)", "R = int"),
    ] {
        let (lin, idx) = both(src, query);
        assert_eq!(lin, vec![expect.to_owned()], "{query}");
        assert_eq!(lin, idx, "{query}");
    }
}

#[test]
fn var_headed_clause_is_reachable_from_every_key() {
    let src = "p(a, hit_a). p(X, any(X)). p(b, hit_b).";
    for (query, expect) in [
        ("p(a, R)", vec!["R = hit_a", "R = any(a)"]),
        ("p(b, R)", vec!["R = any(b)", "R = hit_b"]),
        ("p(zz, R)", vec!["R = any(zz)"]),
        ("p(42, R)", vec!["R = any(42)"]),
    ] {
        let (lin, idx) = both(src, query);
        let expect: Vec<String> = expect.into_iter().map(str::to_owned).collect();
        assert_eq!(lin, expect, "{query}");
        assert_eq!(lin, idx, "{query}");
    }
}

#[test]
fn undefined_predicate_errors_on_both_profiles() {
    for config in [MachineConfig::psi(), MachineConfig::psi_indexed()] {
        let mut m = machine("p(1) :- missing(1).", config);
        assert!(m.solve("p(1)", 1).is_err());
    }
}

#[test]
fn single_survivor_enters_directly_without_choice_point() {
    // Three clauses, fully discriminated by first argument: every
    // indexed call has exactly one candidate, so a deterministic
    // query pushes no choice point at all.
    let src = "c(red, 1). c(green, 2). c(blue, 3).";
    let mut m = machine(src, MachineConfig::psi_indexed());
    let sols = m.solve("c(green, N)", usize::MAX).unwrap();
    assert_eq!(sols.len(), 1);
    let stats = m.stats();
    assert_eq!(stats.choice_points, 0);
    assert_eq!(stats.indexed_calls, 1);
    assert_eq!(stats.index_direct_entries, 1);
    // The linear profile pushes one (three clauses, clause 1 taken).
    let mut m = machine(src, MachineConfig::psi());
    m.solve("c(green, N)", usize::MAX).unwrap();
    let stats = m.stats();
    assert!(stats.choice_points > 0);
    assert_eq!(stats.indexed_calls, 0);
    assert_eq!(stats.index_direct_entries, 0);
}

#[test]
fn metrics_snapshot_mirrors_indexing_counters() {
    use psi::psi_obs::Counter;
    let mut m = machine(
        "c(red, 1). c(green, 2). c(blue, 3).",
        MachineConfig::psi_indexed(),
    );
    m.solve("c(blue, N)", usize::MAX).unwrap();
    let stats = m.stats();
    let snap = m.metrics_snapshot();
    assert_eq!(snap.get(Counter::ChoicePoints), stats.choice_points);
    assert_eq!(snap.get(Counter::IndexedCalls), stats.indexed_calls);
    assert_eq!(
        snap.get(Counter::IndexDirectEntries),
        stats.index_direct_entries
    );
}
