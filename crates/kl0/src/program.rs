//! Clause database: parsed clauses grouped by predicate, in source
//! order.
//!
//! A [`Program`] is the unit both engines load and `consult` extends;
//! it preserves clause order within each predicate (Prolog's solution
//! order depends on it) and the first-seen order of predicates
//! themselves. Bodies are still operator trees at this stage — see
//! [`crate::lower`] for the flattened form the engines consume.

use crate::parser::parse_terms;
use crate::Term;
use psi_core::{PsiError, Result};
use std::collections::HashMap;
use std::fmt;

/// Key identifying a predicate: name and arity.
pub type PredicateKey = (String, usize);

/// A source clause: head plus optional body (still an operator tree;
/// see [`crate::lower`] for the flattened form the engines consume).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clause {
    /// The clause head (an atom or compound term).
    pub head: Term,
    /// The clause body, `None` for facts.
    pub body: Option<Term>,
}

impl Clause {
    /// The predicate this clause belongs to.
    pub fn key(&self) -> PredicateKey {
        let (name, arity) = self
            .head
            .functor()
            .expect("clause heads are callable by construction");
        (name.to_owned(), arity)
    }
}

/// The group of `name/arity` in a predicate-keyed map whose `order`
/// lists its keys in first-insertion order, created empty (and its key
/// appended to `order`) if absent. Clauses of one predicate are
/// usually contiguous, so a group that is the newest in `order` is
/// found without building its key.
pub(crate) fn group_mut<'m, T>(
    order: &mut Vec<PredicateKey>,
    map: &'m mut HashMap<PredicateKey, Vec<T>>,
    name: &str,
    arity: usize,
) -> &'m mut Vec<T> {
    match order.last() {
        Some(newest) if newest.0 == name && newest.1 == arity => map
            .get_mut(newest)
            .expect("every key in `order` has a group"),
        _ => {
            let key = (name.to_owned(), arity);
            if !map.contains_key(&key) {
                order.push(key.clone());
            }
            map.entry(key).or_default()
        }
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.body {
            Some(b) => write!(f, "{} :- {}.", self.head, b),
            None => write!(f, "{}.", self.head),
        }
    }
}

/// An ordered clause database, as loaded from source text.
///
/// ```
/// use kl0::Program;
/// let p = Program::parse("p(1). p(2). q(X) :- p(X).")?;
/// assert_eq!(p.clauses_for(&("p".to_string(), 1)).len(), 2);
/// # Ok::<(), psi_core::PsiError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Program {
    order: Vec<PredicateKey>,
    clauses: HashMap<PredicateKey, Vec<Clause>>,
    directives: Vec<Term>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Parses a program from source text.
    ///
    /// # Errors
    ///
    /// Returns [`PsiError::Syntax`] for malformed text and
    /// [`PsiError::Compile`] for clauses whose head is not callable.
    pub fn parse(src: &str) -> Result<Program> {
        let mut p = Program::new();
        p.consult(src)?;
        Ok(p)
    }

    /// Adds all clauses of `src` to the program (appended after
    /// existing clauses of the same predicates).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Program::parse`].
    pub fn consult(&mut self, src: &str) -> Result<()> {
        for term in parse_terms(src)? {
            // Destructure by moving the arg vector into fixed-size
            // arrays so the `:-/2` and `:-/1` arms are statically
            // panic-free (wire input flows through here unfiltered);
            // `:-` at any other arity is rejected as uncallable.
            match term {
                Term::Struct(op, args) if op == ":-" => match <[Term; 2]>::try_from(args) {
                    Ok([head, body]) => self.add_clause(Clause {
                        head,
                        body: Some(body),
                    })?,
                    Err(args) => match <[Term; 1]>::try_from(args) {
                        Ok([goal]) => self.directives.push(goal),
                        Err(args) => {
                            return Err(PsiError::Compile {
                                detail: format!(
                                    "clause head is not callable: {}",
                                    Term::Struct(":-".to_owned(), args)
                                ),
                            })
                        }
                    },
                },
                head @ (Term::Atom(_) | Term::Struct(..)) => {
                    self.add_clause(Clause { head, body: None })?;
                }
                other => {
                    return Err(PsiError::Compile {
                        detail: format!("clause head is not callable: {other}"),
                    })
                }
            }
        }
        Ok(())
    }

    /// Appends one clause.
    ///
    /// # Errors
    ///
    /// Returns [`PsiError::Compile`] if the head is a variable or
    /// integer.
    pub fn add_clause(&mut self, clause: Clause) -> Result<()> {
        let Some((name, arity)) = clause.head.functor() else {
            return Err(PsiError::Compile {
                detail: format!("clause head is not callable: {}", clause.head),
            });
        };
        group_mut(&mut self.order, &mut self.clauses, name, arity).push(clause);
        Ok(())
    }

    /// Iterates over predicate keys in first-definition order.
    pub fn predicates(&self) -> impl Iterator<Item = &PredicateKey> {
        self.order.iter()
    }

    /// The clauses of `key`, in source order (empty if undefined).
    pub fn clauses_for(&self, key: &PredicateKey) -> &[Clause] {
        self.clauses.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The `:- Goal.` directives, in source order.
    pub fn directives(&self) -> &[Term] {
        &self.directives
    }

    /// Total number of clauses.
    pub fn clause_count(&self) -> usize {
        self.clauses.values().map(Vec::len).sum()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for key in &self.order {
            for clause in self.clauses_for(key) {
                writeln!(f, "{clause}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_facts_and_rules() {
        let p = Program::parse("p(1). p(2). q(X) :- p(X), p(X).").unwrap();
        assert_eq!(p.clause_count(), 3);
        assert_eq!(p.clauses_for(&("p".into(), 1)).len(), 2);
        let q = &p.clauses_for(&("q".into(), 1))[0];
        assert!(q.body.is_some());
    }

    #[test]
    fn directives_are_collected() {
        let p = Program::parse(":- main. p.").unwrap();
        assert_eq!(p.directives().len(), 1);
        assert_eq!(p.clause_count(), 1);
    }

    #[test]
    fn clause_order_is_preserved() {
        let p = Program::parse("b. a. b2. a2 :- b.").unwrap();
        let keys: Vec<_> = p.predicates().map(|(n, _)| n.as_str()).collect();
        assert_eq!(keys, vec!["b", "a", "b2", "a2"]);
    }

    #[test]
    fn bad_heads_are_rejected() {
        assert!(Program::parse("42.").is_err());
        assert!(Program::parse("X :- a.").is_err());
    }

    #[test]
    fn display_round_trips_through_parse() {
        let src = "app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).";
        let p = Program::parse(src).unwrap();
        let printed = p.to_string();
        let p2 = Program::parse(&printed).unwrap();
        assert_eq!(p.clause_count(), p2.clause_count());
        assert_eq!(printed, p2.to_string());
    }
}
