//! Lowering of extended control constructs.
//!
//! KL0 extends Prolog with control functions (§2.1, citing Takagi and Warren); at
//! the source level the workloads use the standard `;`, `->` and `\+`
//! constructs. Both back ends only understand conjunctions of calls
//! plus cut, so this pass rewrites each construct into an auxiliary
//! predicate:
//!
//! * `(C -> T ; E)` becomes `aux(V...) :- C, !, T.` / `aux(V...) :- E.`
//! * `(A ; B)` becomes `aux(V...) :- A.` / `aux(V...) :- B.`
//! * `\+ G` becomes `aux(V...) :- G, !, fail.` / `aux(V...).`
//!
//! where `V...` are the variables the construct shares with its
//! clause. Cut inside a lowered construct is local to it, which
//! matches the DEC-10 semantics for `\+` and the condition of
//! if-then-else.

use crate::program::group_mut;
use crate::{PredicateKey, Program, Term};
use psi_core::{PsiError, Result};
use std::collections::HashMap;

/// A body goal after lowering: either a cut or a plain call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlatGoal {
    /// `!` — prune choice points created since the clause was entered.
    Cut,
    /// Any other goal, including builtins and generated aux calls.
    Call(Term),
}

/// A clause whose body is a flat sequence of [`FlatGoal`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatClause {
    /// The clause head.
    pub head: Term,
    /// The flattened body.
    pub goals: Vec<FlatGoal>,
}

/// A program in which every clause body is flat.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoweredProgram {
    order: Vec<PredicateKey>,
    map: HashMap<PredicateKey, Vec<FlatClause>>,
    aux_counter: u32,
}

impl LoweredProgram {
    /// Lowers a parsed program.
    ///
    /// # Errors
    ///
    /// Returns [`PsiError::Compile`] if a body goal is an integer or
    /// other non-callable term.
    pub fn lower(program: &Program) -> Result<LoweredProgram> {
        LoweredProgram::lower_from(program, 0)
    }

    /// Lowers a parsed program with the aux-predicate counter seeded
    /// at `aux_base`, so the generated `$auxN` names start at
    /// `$aux{aux_base + 1}`.
    ///
    /// Incremental compilation (consult, query compilation, dynamic
    /// `assert`) lowers each batch of clauses as its own
    /// [`LoweredProgram`]; seeding the counter with the number of aux
    /// predicates the target image has already compiled keeps the
    /// generated names globally unique. Without the seed, a second
    /// batch containing `;`/`->`/`\+` would regenerate `$aux1` and its
    /// clauses would be appended to the *first* batch's aux predicate.
    ///
    /// ```
    /// use kl0::{LoweredProgram, Program};
    ///
    /// let first = LoweredProgram::lower(&Program::parse("p :- (a ; b).")?)?;
    /// assert_eq!(first.aux_counter(), 1);
    /// // The next batch continues the numbering instead of reusing $aux1.
    /// let next = LoweredProgram::lower_from(
    ///     &Program::parse("q :- (c ; d).")?,
    ///     first.aux_counter(),
    /// )?;
    /// assert!(next.predicates().any(|(n, _)| n == "$aux2"));
    /// # Ok::<(), psi_core::PsiError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// See [`LoweredProgram::lower`].
    pub fn lower_from(program: &Program, aux_base: u32) -> Result<LoweredProgram> {
        LoweredProgram::lower_clauses(
            program
                .predicates()
                .flat_map(|key| program.clauses_for(key))
                .map(|clause| (&clause.head, clause.body.as_ref())),
            aux_base,
        )
    }

    /// Lowers `(head, body)` clauses, in order, as one batch with the
    /// aux-predicate counter seeded at `aux_base` (see
    /// [`LoweredProgram::lower_from`]; `None` is a fact). Query
    /// compilation and `assert` lower a single clause through here
    /// without building a [`Program`] around it.
    ///
    /// ```
    /// use kl0::{LoweredProgram, Program, Term};
    ///
    /// let head = Term::compound("p", vec![Term::var("X")]);
    /// let body = kl0::parser::parse_term("(q(X) ; r(X))")?;
    /// let direct = LoweredProgram::lower_clauses([(&head, Some(&body))], 0)?;
    /// let via_program = LoweredProgram::lower(&Program::parse("p(X) :- (q(X) ; r(X)).")?)?;
    /// assert_eq!(direct, via_program);
    /// # Ok::<(), psi_core::PsiError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`PsiError::Compile`] if a head is not callable, and see
    /// [`LoweredProgram::lower`].
    pub fn lower_clauses<'c>(
        clauses: impl IntoIterator<Item = (&'c Term, Option<&'c Term>)>,
        aux_base: u32,
    ) -> Result<LoweredProgram> {
        let mut lp = LoweredProgram {
            aux_counter: aux_base,
            ..LoweredProgram::default()
        };
        for (head, body) in clauses {
            if head.functor().is_none() {
                return Err(PsiError::Compile {
                    detail: format!("clause head is not callable: {head}"),
                });
            }
            let mut goals = Vec::new();
            if let Some(body) = body {
                lp.flatten(body, &mut goals)?;
            }
            lp.push(FlatClause {
                head: head.clone(),
                goals,
            });
        }
        Ok(lp)
    }

    /// The aux-predicate counter after lowering: the highest `N` of
    /// any generated `$auxN`, suitable as the `aux_base` seed of the
    /// next incremental [`LoweredProgram::lower_from`] against the
    /// same image.
    pub fn aux_counter(&self) -> u32 {
        self.aux_counter
    }

    /// Iterates over predicate keys in definition order (generated aux
    /// predicates come after the predicate that introduced them).
    pub fn predicates(&self) -> impl Iterator<Item = &PredicateKey> {
        self.order.iter()
    }

    /// The flat clauses of `key` (empty if undefined).
    pub fn clauses_for(&self, key: &PredicateKey) -> &[FlatClause] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of flat clauses.
    pub fn clause_count(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }

    fn push(&mut self, clause: FlatClause) {
        let (name, arity) = clause
            .head
            .functor()
            .expect("flat clause heads are callable");
        group_mut(&mut self.order, &mut self.map, name, arity).push(clause);
    }

    fn flatten(&mut self, goal: &Term, out: &mut Vec<FlatGoal>) -> Result<()> {
        match goal {
            Term::Struct(op, args) if op == "," && args.len() == 2 => {
                self.flatten(&args[0], out)?;
                self.flatten(&args[1], out)
            }
            Term::Atom(a) if a == "!" => {
                out.push(FlatGoal::Cut);
                Ok(())
            }
            Term::Atom(a) if a == "true" => Ok(()),
            Term::Struct(op, args) if op == ";" && args.len() == 2 => {
                // if-then-else or plain disjunction
                if let Term::Struct(arrow, ct) = &args[0] {
                    if arrow == "->" && ct.len() == 2 {
                        return self.lower_if_then_else(&ct[0], &ct[1], &args[1], out);
                    }
                }
                self.lower_disjunction(&args[0], &args[1], out)
            }
            Term::Struct(op, args) if op == "->" && args.len() == 2 => {
                let fail = Term::atom("fail");
                self.lower_if_then_else(&args[0], &args[1], &fail, out)
            }
            Term::Struct(op, args) if op == "\\+" && args.len() == 1 => {
                self.lower_negation(&args[0], out)
            }
            Term::Atom(_) | Term::Struct(..) => {
                out.push(FlatGoal::Call(goal.clone()));
                Ok(())
            }
            Term::Var(_) => Err(PsiError::Compile {
                detail: "call through a variable goal is not supported".into(),
            }),
            Term::Int(_) => Err(PsiError::Compile {
                detail: format!("body goal is not callable: {goal}"),
            }),
        }
    }

    fn aux_head(&mut self, parts: &[&Term]) -> Term {
        self.aux_counter += 1;
        let name = format!("$aux{}", self.aux_counter);
        let mut vars: Vec<&str> = Vec::new();
        for part in parts {
            for v in part.variables() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        Term::compound(&name, vars.into_iter().map(Term::var).collect())
    }

    fn lower_if_then_else(
        &mut self,
        cond: &Term,
        then: &Term,
        els: &Term,
        out: &mut Vec<FlatGoal>,
    ) -> Result<()> {
        let head = self.aux_head(&[cond, then, els]);
        // aux :- Cond, !, Then.
        let mut goals1 = Vec::new();
        self.flatten(cond, &mut goals1)?;
        goals1.push(FlatGoal::Cut);
        self.flatten(then, &mut goals1)?;
        self.push(FlatClause {
            head: head.clone(),
            goals: goals1,
        });
        // aux :- Else.
        let mut goals2 = Vec::new();
        self.flatten(els, &mut goals2)?;
        self.push(FlatClause {
            head: head.clone(),
            goals: goals2,
        });
        out.push(FlatGoal::Call(head));
        Ok(())
    }

    fn lower_disjunction(&mut self, a: &Term, b: &Term, out: &mut Vec<FlatGoal>) -> Result<()> {
        let head = self.aux_head(&[a, b]);
        for branch in [a, b] {
            let mut goals = Vec::new();
            self.flatten(branch, &mut goals)?;
            self.push(FlatClause {
                head: head.clone(),
                goals,
            });
        }
        out.push(FlatGoal::Call(head));
        Ok(())
    }

    fn lower_negation(&mut self, inner: &Term, out: &mut Vec<FlatGoal>) -> Result<()> {
        let head = self.aux_head(&[inner]);
        // aux :- G, !, fail.
        let mut goals1 = Vec::new();
        self.flatten(inner, &mut goals1)?;
        goals1.push(FlatGoal::Cut);
        goals1.push(FlatGoal::Call(Term::atom("fail")));
        self.push(FlatClause {
            head: head.clone(),
            goals: goals1,
        });
        // aux.
        self.push(FlatClause {
            head: head.clone(),
            goals: Vec::new(),
        });
        out.push(FlatGoal::Call(head));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lowered(src: &str) -> LoweredProgram {
        LoweredProgram::lower(&Program::parse(src).unwrap()).unwrap()
    }

    #[test]
    fn plain_bodies_stay_flat() {
        let lp = lowered("p :- a, b, c.");
        let cl = &lp.clauses_for(&("p".into(), 0))[0];
        assert_eq!(cl.goals.len(), 3);
        assert!(matches!(cl.goals[0], FlatGoal::Call(_)));
    }

    #[test]
    fn cut_and_true_lowering() {
        let lp = lowered("p :- a, !, true, b.");
        let cl = &lp.clauses_for(&("p".into(), 0))[0];
        assert_eq!(cl.goals.len(), 3); // a, !, b — true vanishes
        assert!(matches!(cl.goals[1], FlatGoal::Cut));
    }

    #[test]
    fn disjunction_creates_aux_predicate() {
        let lp = lowered("p(X) :- (q(X) ; r(X)).");
        // p/1 plus one aux with two clauses
        assert_eq!(lp.clause_count(), 3);
        let aux_key = lp
            .predicates()
            .find(|(n, _)| n.starts_with("$aux"))
            .cloned()
            .unwrap();
        assert_eq!(aux_key.1, 1, "aux carries the shared variable X");
        assert_eq!(lp.clauses_for(&aux_key).len(), 2);
    }

    #[test]
    fn if_then_else_compiles_to_cut() {
        let lp = lowered("max(X,Y,Z) :- (X > Y -> Z = X ; Z = Y).");
        let aux_key = lp
            .predicates()
            .find(|(n, _)| n.starts_with("$aux"))
            .cloned()
            .unwrap();
        assert_eq!(aux_key.1, 3);
        let auxs = lp.clauses_for(&aux_key);
        assert_eq!(auxs.len(), 2);
        assert!(auxs[0].goals.iter().any(|g| matches!(g, FlatGoal::Cut)));
        assert!(!auxs[1].goals.iter().any(|g| matches!(g, FlatGoal::Cut)));
    }

    #[test]
    fn negation_as_failure() {
        let lp = lowered("p(X) :- \\+ q(X), r(X).");
        let aux_key = lp
            .predicates()
            .find(|(n, _)| n.starts_with("$aux"))
            .cloned()
            .unwrap();
        let auxs = lp.clauses_for(&aux_key);
        assert_eq!(auxs.len(), 2);
        assert_eq!(
            auxs[0].goals.last(),
            Some(&FlatGoal::Call(Term::atom("fail")))
        );
        assert!(auxs[1].goals.is_empty());
    }

    #[test]
    fn nested_constructs() {
        let lp = lowered("p(X) :- (a(X) ; (b(X) -> c(X) ; d(X))).");
        // p/1, outer aux (2 clauses), inner aux (2 clauses)
        assert_eq!(lp.clause_count(), 5);
    }

    #[test]
    fn bare_if_then_gets_implicit_fail_else() {
        let lp = lowered("p(X) :- (a(X) -> b(X)).");
        let aux_key = lp
            .predicates()
            .find(|(n, _)| n.starts_with("$aux"))
            .cloned()
            .unwrap();
        let auxs = lp.clauses_for(&aux_key);
        assert_eq!(auxs[1].goals, vec![FlatGoal::Call(Term::atom("fail"))]);
    }

    /// Checks `(name, arity, clause count, first clause head)` of every
    /// predicate, in order.
    fn assert_shape(lp: &LoweredProgram, expect: &[(&str, usize, usize, &str)]) {
        let shape: Vec<_> = lp
            .predicates()
            .map(|key| {
                let clauses = lp.clauses_for(key);
                (
                    key.0.clone(),
                    key.1,
                    clauses.len(),
                    clauses[0].head.to_string(),
                )
            })
            .collect();
        let expect: Vec<_> = expect
            .iter()
            .map(|&(n, a, c, h)| (n.to_owned(), a, c, h.to_owned()))
            .collect();
        assert_eq!(shape, expect);
    }

    fn lowered_query(goal: &str, aux_base: u32) -> LoweredProgram {
        let goal = crate::parser::parse_term(goal).unwrap();
        let vars = goal.variables().into_iter().map(Term::var).collect();
        let head = Term::compound("$query1", vars);
        LoweredProgram::lower_clauses([(&head, Some(&goal))], aux_base).unwrap()
    }

    #[test]
    fn query_disjunction_keeps_aux_numbering_and_arguments() {
        let lp = lowered_query("(a(X) ; b(Y) ; c(X, Y) ; d ; e(Z))", 4);
        assert_eq!(lp.aux_counter(), 8);
        assert_shape(
            &lp,
            &[
                ("$aux5", 3, 2, "'$aux5'(X,Y,Z)"),
                ("$aux6", 3, 2, "'$aux6'(Y,X,Z)"),
                ("$aux7", 3, 2, "'$aux7'(X,Y,Z)"),
                ("$aux8", 1, 2, "'$aux8'(Z)"),
                ("$query1", 3, 1, "'$query1'(X,Y,Z)"),
            ],
        );
    }

    #[test]
    fn query_if_then_else_keeps_aux_numbering_and_arguments() {
        let lp = lowered_query("(X > Y -> Z = X ; \\+ Z = Y), w(Z)", 0);
        assert_eq!(lp.aux_counter(), 2);
        assert_shape(
            &lp,
            &[
                ("$aux1", 3, 2, "'$aux1'(X,Y,Z)"),
                ("$aux2", 2, 2, "'$aux2'(Z,Y)"),
                ("$query1", 3, 1, "'$query1'(X,Y,Z)"),
            ],
        );
    }

    #[test]
    fn one_clause_lowering_equals_lowering_a_program() {
        for src in [
            "p.",
            "p(X, Y) :- q(X), !, r(Y).",
            "p(X) :- (a(X) -> b ; c(X) ; \\+ d(X)), e.",
        ] {
            let program = Program::parse(src).unwrap();
            let key = program.predicates().next().unwrap();
            let clause = &program.clauses_for(key)[0];
            let direct =
                LoweredProgram::lower_clauses([(&clause.head, clause.body.as_ref())], 7).unwrap();
            assert_eq!(
                direct,
                LoweredProgram::lower_from(&program, 7).unwrap(),
                "{src}"
            );
        }
        let not_callable = LoweredProgram::lower_clauses([(&Term::int(1), None)], 0);
        assert!(not_callable.is_err());
    }

    #[test]
    fn non_callable_goals_are_rejected() {
        assert!(LoweredProgram::lower(&Program::parse("p :- 42.").unwrap()).is_err());
        assert!(LoweredProgram::lower(&Program::parse("p :- X.").unwrap()).is_err());
    }
}
