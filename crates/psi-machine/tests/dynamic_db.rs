//! Dynamic clause database: `assert/1`, `asserta/1`, `retract/1`,
//! their interaction with the first-argument clause index, and the
//! extended arithmetic evaluation they ride in with.

use kl0::Program;
use psi_core::PsiError;
use psi_machine::{Machine, MachineConfig};

fn machine(src: &str) -> Machine {
    let program = Program::parse(src).expect("parse");
    Machine::load(&program, MachineConfig::psi()).expect("load")
}

fn indexed_machine(src: &str) -> Machine {
    let program = Program::parse(src).expect("parse");
    let mut config = MachineConfig::psi();
    config.clause_indexing = true;
    Machine::load(&program, config).expect("load")
}

fn solutions(m: &mut Machine, goal: &str, max: usize) -> Vec<String> {
    m.solve(goal, max)
        .expect("solve")
        .into_iter()
        .map(|s| s.to_string())
        .collect()
}

#[test]
fn assert_appends_clauses_in_order() {
    let mut m = machine("seed(0).");
    assert_eq!(
        solutions(
            &mut m,
            "assert(item(1)), assert(item(2)), assert(item(3))",
            1
        ),
        vec!["true"]
    );
    assert_eq!(
        solutions(&mut m, "item(X)", 10),
        vec!["X = 1", "X = 2", "X = 3"]
    );
}

#[test]
fn asserta_prepends_clauses() {
    let mut m = machine("seed(0).");
    assert_eq!(
        solutions(
            &mut m,
            "asserta(item(1)), asserta(item(2)), asserta(item(3))",
            1
        ),
        vec!["true"]
    );
    assert_eq!(
        solutions(&mut m, "item(X)", 10),
        vec!["X = 3", "X = 2", "X = 1"]
    );
}

#[test]
fn assert_rule_with_body_executes() {
    let mut m = machine("base(10). base(20).");
    assert_eq!(
        solutions(
            &mut m,
            "assert((double(_X, _Y) :- base(_X), _Y is _X * 2))",
            1
        ),
        vec!["true"]
    );
    assert_eq!(
        solutions(&mut m, "double(A, B)", 10),
        vec!["A = 10, B = 20", "A = 20, B = 40"]
    );
}

#[test]
fn assert_copies_unbound_variables_fresh() {
    let mut m = machine("seed(0).");
    // The asserted clause gets a fresh variable, not a link to _X.
    assert_eq!(solutions(&mut m, "assert(pair(_X, _X))", 1), vec!["true"]);
    assert_eq!(solutions(&mut m, "pair(7, Y)", 5), vec!["Y = 7"]);
    assert_eq!(solutions(&mut m, "pair(8, Z)", 5), vec!["Z = 8"]);
}

#[test]
fn retract_removes_first_matching_fact_and_binds() {
    let mut m = machine("item(1). item(2). item(3).");
    assert_eq!(solutions(&mut m, "retract(item(X))", 5), vec!["X = 1"]);
    assert_eq!(solutions(&mut m, "item(Y)", 10), vec!["Y = 2", "Y = 3"]);
    assert_eq!(solutions(&mut m, "retract(item(3))", 5), vec!["true"]);
    assert_eq!(solutions(&mut m, "item(Y)", 10), vec!["Y = 2"]);
}

#[test]
fn retract_head_only_skips_bodied_clauses() {
    let mut m = machine("p(1) :- fail. p(2).");
    // retract(p(X)) abbreviates retract((p(X) :- true)): only the
    // fact matches.
    assert_eq!(solutions(&mut m, "retract(p(X))", 5), vec!["X = 2"]);
    // The bodied clause is still there (and fails).
    assert_eq!(solutions(&mut m, "p(Y)", 10), Vec::<String>::new());
}

#[test]
fn retract_with_body_template_matches_rules() {
    let mut m = machine("p(1) :- fail. p(2).");
    assert_eq!(
        solutions(&mut m, "retract((p(X) :- fail))", 5),
        vec!["X = 1"]
    );
    assert_eq!(solutions(&mut m, "p(Y)", 10), vec!["Y = 2"]);
}

#[test]
fn retract_fails_when_nothing_matches() {
    let mut m = machine("item(1).");
    assert_eq!(
        solutions(&mut m, "retract(item(2))", 5),
        Vec::<String>::new()
    );
    assert_eq!(
        solutions(&mut m, "retract(missing(1))", 5),
        Vec::<String>::new()
    );
    // The failed retracts disturbed nothing.
    assert_eq!(solutions(&mut m, "item(X)", 5), vec!["X = 1"]);
}

#[test]
fn fully_retracted_dynamic_predicate_fails_instead_of_erroring() {
    let mut m = machine("seed(0).");
    assert_eq!(
        solutions(&mut m, "assert(item(1)), retract(item(1))", 1),
        vec!["true"]
    );
    assert_eq!(solutions(&mut m, "item(X)", 5), Vec::<String>::new());
    // Negation-as-failure over the emptied predicate.
    assert_eq!(solutions(&mut m, "\\+ item(_)", 1), vec!["true"]);
    // A never-asserted predicate is still an undefined-predicate error.
    assert!(matches!(
        m.solve("ghost(X)", 1),
        Err(PsiError::UndefinedPredicate { .. })
    ));
}

#[test]
fn assert_retract_churn_loop() {
    let mut m = machine(
        "churn(0).
         churn(N) :- N > 0, assert(item(N)), retract(item(N)), M is N - 1, churn(M).",
    );
    assert_eq!(solutions(&mut m, "churn(25), \\+ item(_)", 1), vec!["true"]);
}

#[test]
fn retracted_var_headed_clause_is_unreachable_via_every_key() {
    // Regression: under clause_indexing a var-headed clause joins
    // every bucket plus var_only; retract must remove it from all of
    // them, not just the bucket that found it.
    let src = "p(a). p(X) :- q(X). p(b). q(c). q(a).";
    for cfg in [machine(src), indexed_machine(src)] {
        let mut m = cfg;
        assert_eq!(
            solutions(&mut m, "retract((p(_X) :- q(_X)))", 5),
            vec!["true"]
        );
        // Matched constant buckets no longer reach the var clause.
        assert_eq!(solutions(&mut m, "p(a)", 5), vec!["true"]);
        assert_eq!(solutions(&mut m, "p(b)", 5), vec!["true"]);
        // An unmatched key used to fall back to var_only — now empty.
        assert_eq!(solutions(&mut m, "p(c)", 5), Vec::<String>::new());
        // Enumeration sees exactly the two remaining facts.
        assert_eq!(solutions(&mut m, "p(Y)", 10), vec!["Y = a", "Y = b"]);
    }
}

#[test]
fn retract_under_live_choice_point_is_safe() {
    // A choice point over item/1 is live while retract shrinks the
    // clause list (and, on the indexed profile, its buckets). The
    // stale choice point must degrade into plain failure, never a
    // panic or a wrong clause.
    let src = "item(1). item(2). item(3).";
    for cfg in [machine(src), indexed_machine(src)] {
        let mut m = cfg;
        let sols = solutions(&mut m, "item(X), retract(item(3)), X > 1", 10);
        // X=1: retract(3) succeeds once, X>1 fails; X=2: retract(3)
        // now fails (already gone) -> backtrack; X=3's clause was
        // retracted while the choice point was live.
        assert_eq!(sols, Vec::<String>::new());
        assert_eq!(solutions(&mut m, "item(Y)", 10), vec!["Y = 1", "Y = 2"]);
    }
}

#[test]
fn asserted_clauses_join_the_clause_index() {
    let mut m = indexed_machine("p(a, 1).");
    assert_eq!(
        solutions(
            &mut m,
            "assert(p(b, 2)), assert(p(a, 3)), asserta(p(b, 0))",
            1
        ),
        vec!["true"]
    );
    assert_eq!(solutions(&mut m, "p(b, N)", 10), vec!["N = 0", "N = 2"]);
    assert_eq!(solutions(&mut m, "p(a, N)", 10), vec!["N = 1", "N = 3"]);
    assert_eq!(
        solutions(&mut m, "p(K, N), N > 1", 10),
        vec!["K = b, N = 2", "K = a, N = 3"]
    );
}

#[test]
fn extended_arithmetic_operators_evaluate() {
    let mut m = machine("seed(0).");
    assert_eq!(solutions(&mut m, "X is 7 / 2", 1), vec!["X = 3"]);
    assert_eq!(solutions(&mut m, "X is -7 rem 2", 1), vec!["X = -1"]);
    assert_eq!(solutions(&mut m, "X is -7 mod 2", 1), vec!["X = 1"]);
    assert_eq!(solutions(&mut m, "X is 3 << 4", 1), vec!["X = 48"]);
    assert_eq!(solutions(&mut m, "X is 48 >> 2", 1), vec!["X = 12"]);
    assert_eq!(solutions(&mut m, "X is 12 /\\ 10", 1), vec!["X = 8"]);
    assert_eq!(solutions(&mut m, "X is 12 \\/ 10", 1), vec!["X = 14"]);
    assert_eq!(solutions(&mut m, "X is 12 xor 10", 1), vec!["X = 6"]);
    assert_eq!(
        solutions(&mut m, "X is (1 << 10) + 7 // 2 - 5 xor 3", 1),
        vec![format!("X = {}", ((1i32 << 10) + 7 / 2 - 5) ^ 3)]
    );
    assert!(matches!(
        m.solve("X is 1 rem 0", 1),
        Err(PsiError::EvalError { .. })
    ));
    assert!(matches!(
        m.solve("X is 1 / 0", 1),
        Err(PsiError::EvalError { .. })
    ));
}

#[test]
fn assert_charges_microsteps() {
    let mut m = machine("seed(0).");
    let before = m.stats().steps;
    m.solve("assert(fact(1))", 1).expect("solve");
    let mid = m.stats().steps;
    assert!(mid > before, "assert charges steps");
    m.solve("seed(X)", 1).expect("solve");
    let after = m.stats().steps;
    assert!(after > mid);
}

#[test]
fn retract_on_builtin_is_a_type_error() {
    let mut m = machine("seed(0).");
    assert!(matches!(
        m.solve("retract(true)", 1),
        Err(PsiError::TypeError { .. })
    ));
    assert!(matches!(
        m.solve("assert(X)", 1),
        Err(PsiError::Compile { .. })
    ));
}

#[test]
fn dynamic_database_is_lane_invariant() {
    let goal = "churn(12), assert(left(over)), retract(left(over)), \\+ left(_), \
                X is (5 << 3) xor 9, item(Y)";
    let src = "churn(0) :- assert(item(done)).
               churn(N) :- N > 0, assert(item(N)), retract(item(N)), M is N - 1, churn(M).";
    // Solutions must agree across all four cells; step counts must
    // agree across lanes *within* an indexing profile (indexing
    // itself legitimately changes the step count).
    let mut ref_sols: Option<Vec<String>> = None;
    let mut ref_steps: [Option<u64>; 2] = [None, None];
    for (lane, config) in [
        ("fidelity", MachineConfig::psi()),
        ("compiled", MachineConfig::psi_compiled()),
    ] {
        for indexing in [false, true] {
            let mut config = config.clone();
            config.clause_indexing = indexing;
            let program = Program::parse(src).expect("parse");
            let mut m = Machine::load(&program, config).expect("load");
            let sols: Vec<String> = m
                .solve(goal, 10)
                .expect("solve")
                .into_iter()
                .map(|s| s.to_string())
                .collect();
            let steps = m.stats().steps;
            match &ref_sols {
                None => ref_sols = Some(sols),
                Some(r) => assert_eq!(&sols, r, "{lane}/indexing={indexing} solutions"),
            }
            match ref_steps[indexing as usize] {
                None => ref_steps[indexing as usize] = Some(steps),
                Some(r) => assert_eq!(steps, r, "{lane}/indexing={indexing} steps"),
            }
        }
    }
}
