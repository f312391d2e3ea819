//! The KL0 term AST.

use std::collections::BTreeSet;
use std::fmt;

/// A KL0 (Prolog) term.
///
/// Lists are ordinary structures: `'.'(Head, Tail)` with `[]` as the
/// empty list, exactly as in DEC-10 Prolog. Convenience constructors
/// and accessors hide the encoding.
///
/// ```
/// use kl0::Term;
/// let t = Term::list(vec![Term::int(1), Term::int(2)]);
/// assert_eq!(t.to_string(), "[1,2]");
/// assert_eq!(t.list_elements().unwrap().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An atom such as `foo` or `[]`.
    Atom(String),
    /// A 32-bit integer.
    Int(i32),
    /// A named variable. `_` variables are renamed apart by the parser.
    Var(String),
    /// A compound term `name(arg1, ..., argN)` with N ≥ 1.
    Struct(String, Vec<Term>),
}

impl Term {
    /// The atom `[]`.
    pub fn nil() -> Term {
        Term::Atom("[]".to_owned())
    }

    /// An atom.
    pub fn atom(name: &str) -> Term {
        Term::Atom(name.to_owned())
    }

    /// An integer.
    pub fn int(value: i32) -> Term {
        Term::Int(value)
    }

    /// A variable.
    pub fn var(name: &str) -> Term {
        Term::Var(name.to_owned())
    }

    /// A cons cell `[head | tail]`.
    pub fn cons(head: Term, tail: Term) -> Term {
        Term::Struct(".".to_owned(), vec![head, tail])
    }

    /// A proper list of the given elements.
    pub fn list(elements: Vec<Term>) -> Term {
        elements
            .into_iter()
            .rev()
            .fold(Term::nil(), |tail, head| Term::cons(head, tail))
    }

    /// A compound term. With an empty argument vector this degrades to
    /// an atom, which keeps generated code well-formed.
    pub fn compound(name: &str, args: Vec<Term>) -> Term {
        if args.is_empty() {
            Term::Atom(name.to_owned())
        } else {
            Term::Struct(name.to_owned(), args)
        }
    }

    /// The functor name and arity of this term, treating atoms as
    /// arity-0 functors. Variables and integers have none.
    pub fn functor(&self) -> Option<(&str, usize)> {
        match self {
            Term::Atom(a) => Some((a, 0)),
            Term::Struct(f, args) => Some((f, args.len())),
            _ => None,
        }
    }

    /// If this term is a proper list, its elements.
    pub fn list_elements(&self) -> Option<Vec<&Term>> {
        let mut out = Vec::new();
        let mut cur = self;
        loop {
            match cur {
                Term::Atom(a) if a == "[]" => return Some(out),
                Term::Struct(f, args) if f == "." && args.len() == 2 => {
                    out.push(&args[0]);
                    cur = &args[1];
                }
                _ => return None,
            }
        }
    }

    /// Collects the distinct variable names of the term, in first
    /// occurrence order.
    pub fn variables(&self) -> Vec<&str> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        self.visit_vars(&mut |name| {
            if seen.insert(name) {
                out.push(name);
            }
        });
        out
    }

    fn visit_vars<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            Term::Var(v) => f(v),
            Term::Struct(_, args) => {
                for a in args {
                    a.visit_vars(f);
                }
            }
            _ => {}
        }
    }

    /// Is the term ground (contains no variables)?
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Struct(_, args) => args.iter().all(Term::is_ground),
            _ => true,
        }
    }

    /// Structurally replaces every variable by what `subst` returns
    /// for it, if anything.
    pub fn substitute(&self, subst: &impl Fn(&str) -> Option<Term>) -> Term {
        match self {
            Term::Var(v) => subst(v).unwrap_or_else(|| self.clone()),
            Term::Struct(f, args) => Term::Struct(
                f.clone(),
                args.iter().map(|a| a.substitute(subst)).collect(),
            ),
            _ => self.clone(),
        }
    }

    /// The indexable shape of the term as a clause-head argument, used
    /// by back ends to build first-argument clause indexes. Cons cells
    /// classify as [`ArgShape::List`] regardless of their elements
    /// (all lists share one switch-on-term bucket).
    ///
    /// ```
    /// use kl0::{ArgShape, Term};
    /// assert_eq!(Term::var("X").arg_shape(), ArgShape::Var);
    /// assert_eq!(Term::nil().arg_shape(), ArgShape::Nil);
    /// assert_eq!(Term::atom("foo").arg_shape(), ArgShape::Atom("foo"));
    /// assert_eq!(Term::int(7).arg_shape(), ArgShape::Int(7));
    /// let cons = Term::cons(Term::int(1), Term::nil());
    /// assert_eq!(cons.arg_shape(), ArgShape::List);
    /// let t = Term::compound("f", vec![Term::var("X"), Term::var("Y")]);
    /// assert_eq!(t.arg_shape(), ArgShape::Struct("f", 2));
    /// ```
    pub fn arg_shape(&self) -> ArgShape<'_> {
        match self {
            Term::Var(_) => ArgShape::Var,
            Term::Atom(a) if a == "[]" => ArgShape::Nil,
            Term::Atom(a) => ArgShape::Atom(a),
            Term::Int(i) => ArgShape::Int(*i),
            Term::Struct(f, args) if f == "." && args.len() == 2 => ArgShape::List,
            Term::Struct(f, args) => ArgShape::Struct(f, args.len()),
        }
    }
}

/// The shape of a term viewed as a first-argument index key (the
/// classification of WAM-style switch-on-term). A [`ArgShape::Var`]
/// head argument unifies with anything, so var-headed clauses belong
/// to every bucket; the other shapes are mutually exclusive at
/// run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArgShape<'a> {
    /// A variable — matches any caller value.
    Var,
    /// The empty list `[]`.
    Nil,
    /// A non-`[]` atom, keyed by name.
    Atom(&'a str),
    /// An integer, keyed by value.
    Int(i32),
    /// A cons cell `'.'(H, T)` — all lists share one bucket.
    List,
    /// A compound term, keyed by functor name and arity.
    Struct(&'a str, usize),
}

fn atom_needs_quotes(name: &str) -> bool {
    // Statically panic-free: wire input reaches Display via error
    // messages, so this path must not be able to unwind.
    let Some(first) = name.chars().next() else {
        return true;
    };
    if first.is_ascii_lowercase() {
        return !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    }
    // Symbolic atoms and special atoms print bare.
    const SPECIAL: &[&str] = &["[]", "!", ";", "{}"];
    if SPECIAL.contains(&name) {
        return false;
    }
    const SYMBOLIC: &str = "+-*/\\^<>=~:.?@#&$";
    !name.chars().all(|c| SYMBOLIC.contains(c))
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Atom(a) => {
                if atom_needs_quotes(a) {
                    write!(f, "'{}'", a.replace('\'', "\\'"))
                } else {
                    f.write_str(a)
                }
            }
            Term::Int(i) => write!(f, "{i}"),
            Term::Var(v) => f.write_str(v),
            Term::Struct(name, args) if name == "." && args.len() == 2 => {
                f.write_str("[")?;
                write!(f, "{}", args[0])?;
                let mut tail = &args[1];
                loop {
                    match tail {
                        Term::Atom(a) if a == "[]" => break,
                        Term::Struct(n2, a2) if n2 == "." && a2.len() == 2 => {
                            write!(f, ",{}", a2[0])?;
                            tail = &a2[1];
                        }
                        other => {
                            write!(f, "|{other}")?;
                            break;
                        }
                    }
                }
                f.write_str("]")
            }
            Term::Struct(name, args) => {
                if atom_needs_quotes(name) {
                    write!(f, "'{}'(", name.replace('\'', "\\'"))?;
                } else {
                    write!(f, "{name}(")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_construction_and_elements() {
        let l = Term::list(vec![Term::int(1), Term::atom("a"), Term::var("X")]);
        let els = l.list_elements().unwrap();
        assert_eq!(els.len(), 3);
        assert_eq!(els[0], &Term::int(1));
        assert!(Term::nil().list_elements().unwrap().is_empty());
        // improper list
        let improper = Term::cons(Term::int(1), Term::var("T"));
        assert_eq!(improper.list_elements(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Term::list(vec![Term::int(1), Term::int(2)]).to_string(),
            "[1,2]"
        );
        assert_eq!(
            Term::cons(Term::int(1), Term::var("T")).to_string(),
            "[1|T]"
        );
        assert_eq!(
            Term::compound("f", vec![Term::atom("a"), Term::var("B")]).to_string(),
            "f(a,B)"
        );
        assert_eq!(Term::atom("hello world").to_string(), "'hello world'");
        assert_eq!(Term::atom("+").to_string(), "+");
        assert_eq!(Term::atom("[]").to_string(), "[]");
    }

    #[test]
    fn variables_in_first_occurrence_order() {
        let t = Term::compound(
            "f",
            vec![
                Term::var("B"),
                Term::compound("g", vec![Term::var("A"), Term::var("B")]),
            ],
        );
        assert_eq!(t.variables(), vec!["B", "A"]);
    }

    #[test]
    fn variables_skip_repeats_at_any_depth() {
        let t =
            crate::parser::parse_term("f(X, g(Y, h(X, Z)), [Z, W | Y], X, k(l(m(W, V))))").unwrap();
        assert_eq!(t.variables(), vec!["X", "Y", "Z", "W", "V"]);
        assert!(Term::atom("a").variables().is_empty());
        assert_eq!(Term::var("X").variables(), vec!["X"]);
    }

    #[test]
    fn groundness() {
        assert!(Term::list(vec![Term::int(1)]).is_ground());
        assert!(!Term::compound("f", vec![Term::var("X")]).is_ground());
    }

    #[test]
    fn substitute_replaces_vars() {
        let t = Term::compound("f", vec![Term::var("X"), Term::var("Y")]);
        let s = t.substitute(&|v| (v == "X").then(|| Term::int(3)));
        assert_eq!(s.to_string(), "f(3,Y)");
    }

    #[test]
    fn compound_with_no_args_is_atom() {
        assert_eq!(Term::compound("a", vec![]), Term::atom("a"));
    }

    #[test]
    fn functor_accessor() {
        assert_eq!(Term::atom("x").functor(), Some(("x", 0)));
        assert_eq!(
            Term::compound("f", vec![Term::int(1)]).functor(),
            Some(("f", 1))
        );
        assert_eq!(Term::var("X").functor(), None);
        assert_eq!(Term::int(3).functor(), None);
    }
}
