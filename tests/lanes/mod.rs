//! Lane-equivalence checks behind `tests/two_lane.rs`. Each check
//! runs the fidelity lane (`MachineConfig::psi()`) as the reference
//! and compares it with the named fast-lane configuration it is
//! given.
//!
//! Quantities that exist *only* to be measured — work-file access
//! counts (Table 6), cache statistics (Tables 3–5), stall time — are
//! deliberately not compared: skipping them is the point of the fast
//! lane.

use psi::kl0::Program;
use psi::psi_core::{PsiError, Resource};
use psi::psi_machine::{Machine, MachineConfig, MachineStats, ResourceLimits};
use psi::psi_workloads::runner::{
    run_on_psi, run_on_psi_machine, run_suite_governed_with_runner, Outcome, SuiteOptions,
};
use psi::psi_workloads::suite::table1_suite;
use psi::psi_workloads::Workload;

/// A fast-lane configuration and the name its failures report.
pub type Lane = (&'static str, MachineConfig);

/// Everything that must be bit-identical across lanes. `MachineStats`
/// itself is *not* compared wholesale — `wf`, `cache`, `stall_ns` and
/// `time_ns` legitimately differ when measurement is off.
pub fn deterministic_view(stats: &MachineStats) -> impl PartialEq + std::fmt::Debug {
    (
        stats.steps,
        stats.modules,
        stats.branches,
        stats.user_calls,
        stats.builtin_calls,
        stats.choice_points,
        stats.indexed_calls,
        stats.index_direct_entries,
    )
}

/// Every Table 1 row gives the same solutions and deterministic
/// counters in each lane as in the fidelity lane, and no lane
/// allocates on the hot path.
pub fn assert_table1_rows_match_fidelity((lane, config): &Lane) {
    for entry in table1_suite() {
        let w = &entry.workload;
        let (fid, fid_machine) = run_on_psi_machine(w, MachineConfig::psi())
            .unwrap_or_else(|e| panic!("{} fidelity: {e}", w.name));
        assert_eq!(
            fid_machine.hot_path_alloc_count(),
            0,
            "{}: fidelity lane allocated on the hot path",
            w.name
        );
        let (fast, fast_machine) = run_on_psi_machine(w, config.clone())
            .unwrap_or_else(|e| panic!("{} {lane}: {e}", w.name));
        assert_eq!(
            fid.solutions, fast.solutions,
            "{}: solutions differ in the {lane} lane",
            w.name
        );
        assert_eq!(
            deterministic_view(&fid.stats),
            deterministic_view(&fast.stats),
            "{}: deterministic counters differ in the {lane} lane",
            w.name
        );
        assert_eq!(
            fast_machine.hot_path_alloc_count(),
            0,
            "{}: {lane} lane allocated on the hot path",
            w.name
        );
    }
}

/// The same property under the first-argument-indexing profile: the
/// lane and the indexing flag must compose without interference.
pub fn assert_indexed_rows_match_fidelity((lane, config): &Lane) {
    for entry in table1_suite() {
        let w = &entry.workload;
        let fid = run_on_psi(w, MachineConfig::psi_indexed())
            .unwrap_or_else(|e| panic!("{} fidelity/indexed: {e}", w.name));
        let mut indexed = config.clone();
        indexed.clause_indexing = true;
        let fast =
            run_on_psi(w, indexed).unwrap_or_else(|e| panic!("{} {lane}/indexed: {e}", w.name));
        assert_eq!(fid.solutions, fast.solutions, "{} ({lane})", w.name);
        assert_eq!(
            deterministic_view(&fid.stats),
            deterministic_view(&fast.stats),
            "{}: indexed deterministic counters differ in the {lane} lane",
            w.name
        );
    }
}

/// Bindings, not just rendered solution lines: one query with a named
/// variable through every lane, comparing the bound terms.
pub fn assert_bindings_match_fidelity((lane, config): &Lane) {
    let src = "app([], L, L).\n\
               app([H|T], L, [H|R]) :- app(T, L, R).\n\
               perm([], []).\n\
               perm(L, [H|T]) :- sel(H, L, R), perm(R, T).\n\
               sel(X, [X|T], T).\n\
               sel(X, [H|T], [H|R]) :- sel(X, T, R).";
    let program = Program::parse(src).expect("parses");
    let bindings = |config: MachineConfig| -> Vec<Option<String>> {
        let mut m = Machine::load(&program, config).expect("loads");
        let solutions = m.solve("perm([1,2,3], P)", usize::MAX).expect("solves");
        solutions
            .iter()
            .map(|s| s.binding("P").map(|b| b.to_string()))
            .collect()
    };
    let reference = bindings(MachineConfig::psi());
    assert_eq!(reference.len(), 6);
    assert_eq!(
        reference,
        bindings(config.clone()),
        "bindings diverge in the {lane} lane"
    );
}

/// A fixed program that reaches every arm the lanes share one body
/// for but charge differently: each unify pair arm, the skeleton
/// match and copy arms, the head-argument slot arms with the slot
/// buffered and flushed, and packed and unpacked goal arguments.
/// The 19 Table 1 rows do not promise all of these.
const ARM_COVERAGE: &str = "
    t(_).
    two(1).
    two(2).
    % var-var in both binding directions and on the same cell.
    vv(f(X, Y, Z, W)) :- t(X), t(Y), X = Y, t(Z), t(W), W = Z, X = X, Z = 1.
    % list/list and struct/struct on the same pointer, on different
    % pointers, and a heap-vector pair.
    same(L, S) :- L = [1, 2], L = L, S = f(a, g(b)), S = S,
        [A, B | T] = [1, 2, 3], f(A, g(C)) = f(1, g(B)), T = [3].
    hv :- vector(V, 2), V = V, vector(W, 2), V \\= W.
    % const, functor, arity and kind mismatches.
    ne :- 1 \\= 2, a \\= b, f(a) \\= g(a), f(a) \\= f(a, b), a \\= 1,
        [a] \\= f(a), [] = [], [] \\= a.
    % Skeleton heads against bound values, kind and functor mismatch.
    kind([_|_], list).
    kind(f(_, x), struct).
    kind(_, other).
    kinds([K1, K2, K3, K4, K5]) :- kind([1], K1), kind(f(1, x), K2),
        kind(f(1, y), K3), kind(g(1, x), K4), kind(a, K5).
    len([], 0).
    len([_|T], N) :- len(T, M), N is M + 1.
    mk([a, X, X | T]) :- X = 1, T = [].
    % Skeleton head arguments reached through 0, 1 and 3 hops, bound
    % and unbound at the end of the chain.
    hops([N0, N1, N3, L]) :- len([1, 2], N0), P = [1], len(P, N1),
        t(A), t(B), t(C), C = B, B = A, mk(C), A = L, len(C, N3).
    % Head slots: first-var and local-var, buffered.
    eq(X, X).
    % The same with the slot flushed: over 64 locals leaves the
    % activation unbuffered.
    wide(X, X) :- WIDE.
    % Goal arguments after a choice point, read from flushed slots:
    % packed, unpacked and inside a copied skeleton.
    cp(R) :- t(X), X = 5, two(Y), p4(X, 3, [], _), R = f(X, [X, Y], _, Z, Z, g(Z)).
    p4(A, B, C, _) :- t(A), t(B), t(C).
    unpacked(a, f(b), X, 100, X).
    main(r(A, B, C, D, E, F, G, H)) :- vv(A), same(B, C), hv, ne, kinds(D),
        hops(E), eq(1, F), wide(2, G), cp(H), unpacked(a, f(b), Q, 100, Q).
";

/// Every shared-body arm gives the same solutions and deterministic
/// counters in each lane as in the fidelity lane.
pub fn assert_fused_arms_match_fidelity((lane, config): &Lane) {
    let wide: Vec<String> = (0..64).map(|i| format!("eq(V{i}, V{i})")).collect();
    let src = ARM_COVERAGE.replace("WIDE", &wide.join(", "));
    let program = Program::parse(&src).expect("parses");
    let run = |config: MachineConfig| {
        let mut m = Machine::load(&program, config).expect("loads");
        let solutions: Vec<String> = m
            .solve("main(R)", usize::MAX)
            .expect("solves")
            .iter()
            .map(|s| s.to_string())
            .collect();
        (solutions, m.stats())
    };
    let (reference, stats) = run(MachineConfig::psi());
    assert_eq!(reference.len(), 8, "{reference:?}");
    let (solutions, fast) = run(config.clone());
    assert_eq!(reference, solutions, "solutions diverge in the {lane} lane");
    assert_eq!(
        deterministic_view(&stats),
        deterministic_view(&fast),
        "deterministic counters diverge in the {lane} lane"
    );
}

/// A fused superinstruction covering N microsteps must charge all N
/// before its constituent's governor tick, so a step budget trips at
/// the same typed error with the same consumption in every lane — the
/// fast lane is faster, never less contained.
pub fn assert_step_budget_trips_like_fidelity((lane, config): &Lane) {
    let program = Program::parse("spin :- spin.").expect("parses");
    let limit = 150_000u64;
    let consumed = |lane: &str, mut config: MachineConfig| -> u64 {
        config.limits = ResourceLimits::unlimited().with_max_steps(limit);
        let mut machine = Machine::load(&program, config).expect("loads");
        match machine.solve("spin", 1) {
            Err(PsiError::ResourceExhausted {
                resource: Resource::Steps,
                limit: l,
                consumed,
            }) => {
                assert_eq!(l, limit, "{lane}");
                consumed
            }
            other => panic!("{lane}: expected step exhaustion, got {other:?}"),
        }
    };
    let reference = consumed("fidelity", MachineConfig::psi());
    assert_eq!(
        reference,
        consumed(lane, config.clone()),
        "the {lane} lane tripped the step budget at a different point"
    );
}

/// Panic containment composes with each lane: one injected fault
/// costs exactly its own row, and the surviving rows carry the same
/// deterministic counters as serial fidelity runs.
pub fn assert_fault_isolation_holds((lane, config): &Lane) {
    let workloads: Vec<Workload> = table1_suite().into_iter().map(|e| e.workload).collect();
    let poisoned = "quick sort";
    let options = SuiteOptions {
        threads: 4,
        deadline: None,
        max_retries: 0,
    };
    let serial: Vec<_> = workloads
        .iter()
        .map(|w| run_on_psi(w, MachineConfig::psi()).expect("serial fidelity run succeeds"))
        .collect();
    let report = run_suite_governed_with_runner(&workloads, config, &options, |w, c| {
        if w.name == poisoned {
            panic!("injected fault");
        }
        run_on_psi(w, c)
    });
    assert_eq!(report.rows.len(), workloads.len(), "{lane}");
    assert_eq!(report.panicked_count(), 1, "{lane}");
    assert_eq!(report.ok_count(), workloads.len() - 1, "{lane}");

    for ((w, row), serial) in workloads.iter().zip(&report.rows).zip(&serial) {
        if w.name == poisoned {
            assert!(
                matches!(&row.outcome, Outcome::Panicked { detail } if detail.contains(poisoned)),
                "{lane}: poisoned row not contained: {}",
                row.outcome.label()
            );
            continue;
        }
        let governed = row
            .run()
            .unwrap_or_else(|| panic!("{} should be ok in the {lane} lane", w.name));
        assert_eq!(serial.solutions, governed.solutions, "{} ({lane})", w.name);
        assert_eq!(
            deterministic_view(&serial.stats),
            deterministic_view(&governed.stats),
            "{}: governed {lane}-lane row diverges from serial fidelity run",
            w.name
        );
    }
}
