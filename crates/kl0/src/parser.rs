//! Operator-precedence parser for KL0.
//!
//! Implements the standard DEC-10 Prolog operator table subset used by
//! the paper's workloads (arithmetic, comparison, control operators).

use crate::lexer::{tokenize, Spanned, Token};
use crate::Term;
use psi_core::{PsiError, Result};

/// Maximum operator/functor/paren nesting depth the parser accepts.
///
/// The parser is recursive, so unbounded nesting in hostile input
/// (`f(f(f(…` or `((((…`) would overflow the host stack — an abort
/// that `catch_unwind` cannot contain. Every recursion cycle passes
/// through the parser's single entry point, which counts depth and returns a typed
/// [`PsiError::Syntax`] past this limit. Real KL0 programs nest a few
/// dozen levels at most.
pub const MAX_TERM_DEPTH: u32 = 1024;

/// Maximum number of elements in one source-text list.
///
/// `[a,b,c,…]` parses iteratively but builds a cons chain as deep as
/// the list is long, and the chain is later traversed recursively
/// (drop, compare, compile), so an unbounded literal list is the same
/// stack-overflow hazard as deep nesting by other means.
pub const MAX_LIST_ITEMS: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InfixKind {
    Xfx,
    Xfy,
    Yfx,
}

fn infix_op(name: &str) -> Option<(u32, InfixKind)> {
    Some(match name {
        ":-" => (1200, InfixKind::Xfx),
        ";" => (1100, InfixKind::Xfy),
        "->" => (1050, InfixKind::Xfy),
        // ',' handled specially (it is a token, not an atom)
        "=" | "\\=" | "==" | "\\==" | "is" | "<" | ">" | "=<" | ">=" | "=:=" | "=\\=" | "@<"
        | "@>" | "@=<" | "@>=" | "=.." => (700, InfixKind::Xfx),
        "+" | "-" | "/\\" | "\\/" | "xor" => (500, InfixKind::Yfx),
        "*" | "/" | "//" | "mod" | "rem" | "<<" | ">>" => (400, InfixKind::Yfx),
        _ => return None,
    })
}

fn prefix_op(name: &str) -> Option<(u32, u32)> {
    // (precedence, argument max precedence)
    Some(match name {
        ":-" => (1200, 1199),
        "\\+" => (900, 900),
        "-" => (200, 200),
        _ => return None,
    })
}

/// Parses a sequence of clauses (terms terminated by `.`).
///
/// Anonymous variables (`_`) are renamed apart so each denotes a fresh
/// variable.
///
/// # Errors
///
/// Returns [`PsiError::Syntax`] on malformed input.
pub fn parse_terms(src: &str) -> Result<Vec<Term>> {
    let tokens = tokenize(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        anon: 0,
        depth: 0,
    };
    let mut out = Vec::new();
    while !p.at_end() {
        let term = p.parse(1200)?;
        p.expect_end()?;
        out.push(term);
    }
    Ok(out)
}

/// Parses a single term from `src` (no trailing `.` required).
///
/// # Errors
///
/// Returns [`PsiError::Syntax`] on malformed input or trailing tokens.
pub fn parse_term(src: &str) -> Result<Term> {
    let tokens = tokenize(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        anon: 0,
        depth: 0,
    };
    let term = p.parse(1200)?;
    if !p.at_end() {
        return Err(p.error_here("trailing tokens after term"));
    }
    Ok(term)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    anon: u32,
    depth: u32,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    /// Consumes the next token. The parser never rewinds, so the token
    /// is moved out (leaving a placeholder whose position
    /// `error_here` can still report) rather than cloned.
    fn bump(&mut self) -> Option<Token> {
        let spanned = self.tokens.get_mut(self.pos)?;
        self.pos += 1;
        Some(std::mem::replace(&mut spanned.token, Token::End))
    }

    fn error_here(&self, detail: impl Into<String>) -> PsiError {
        let (line, column) = self
            .tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|s| (s.line, s.column))
            .unwrap_or((0, 0));
        PsiError::Syntax {
            line,
            column,
            detail: detail.into(),
        }
    }

    fn expect_end(&mut self) -> Result<()> {
        match self.bump() {
            Some(Token::End) => Ok(()),
            _ => Err(self.error_here("expected '.' at end of clause")),
        }
    }

    fn fresh_anon(&mut self) -> Term {
        self.anon += 1;
        Term::Var(format!("_G{}", self.anon))
    }

    /// Parses a term with precedence at most `max_prec`.
    ///
    /// Every recursive descent path (primary, functor args, lists,
    /// operator right-hand sides) re-enters through here, so this one
    /// guard bounds the host-stack depth of the whole parse.
    fn parse(&mut self, max_prec: u32) -> Result<Term> {
        if self.depth >= MAX_TERM_DEPTH {
            return Err(self.error_here(format!("term nesting exceeds {MAX_TERM_DEPTH} levels")));
        }
        self.depth += 1;
        let result = self.parse_at(max_prec);
        self.depth -= 1;
        result
    }

    fn parse_at(&mut self, max_prec: u32) -> Result<Term> {
        let mut left = self.parse_primary(max_prec)?;
        loop {
            // ',' as the conjunction operator (xfy, 1000).
            if matches!(self.peek(), Some(Token::Comma)) && max_prec >= 1000 {
                self.bump();
                let right = self.parse(1000)?;
                left = Term::Struct(",".to_owned(), vec![left, right]);
                continue;
            }
            let Some(Token::Atom(name)) = self.peek() else {
                break;
            };
            let Some((prec, kind)) = infix_op(name) else {
                break;
            };
            if prec > max_prec {
                break;
            }
            let Some(Token::Atom(name)) = self.bump() else {
                break;
            };
            let right_max = match kind {
                InfixKind::Xfx | InfixKind::Yfx => prec - 1,
                InfixKind::Xfy => prec,
            };
            let right = self.parse(right_max)?;
            left = Term::Struct(name, vec![left, right]);
            // For yfx the loop continues naturally (left associativity);
            // for xfx/xfy another operator of the same precedence on the
            // left is now illegal, which the prec checks enforce since
            // left is already consumed.
        }
        Ok(left)
    }

    fn parse_primary(&mut self, max_prec: u32) -> Result<Term> {
        match self.bump() {
            Some(Token::Int(n)) => Ok(Term::Int(n)),
            Some(Token::Var(v)) => {
                if v == "_" {
                    Ok(self.fresh_anon())
                } else {
                    Ok(Term::Var(v))
                }
            }
            Some(Token::Open) => {
                let t = self.parse(1200)?;
                match self.bump() {
                    Some(Token::Close) => Ok(t),
                    _ => Err(self.error_here("expected ')'")),
                }
            }
            Some(Token::OpenList) => self.parse_list(),
            Some(Token::Atom(name)) => {
                // functor application?
                if matches!(self.peek(), Some(Token::FunctorOpen)) {
                    self.bump();
                    let mut args = vec![self.parse(999)?];
                    loop {
                        match self.bump() {
                            Some(Token::Comma) => args.push(self.parse(999)?),
                            Some(Token::Close) => break,
                            _ => return Err(self.error_here("expected ',' or ')'")),
                        }
                    }
                    return Ok(Term::Struct(name, args));
                }
                // prefix operator?
                if let Some((prec, arg_max)) = prefix_op(&name) {
                    if prec <= max_prec && self.starts_term() {
                        // negative numeric literal
                        if name == "-" {
                            if let Some(Token::Int(n)) = self.peek() {
                                let n = *n;
                                self.bump();
                                return Ok(Term::Int(-n));
                            }
                        }
                        let arg = self.parse(arg_max)?;
                        return Ok(Term::Struct(name, vec![arg]));
                    }
                }
                Ok(Term::Atom(name))
            }
            _ => Err(self.error_here("expected a term")),
        }
    }

    /// Could the next token start a term (used to disambiguate prefix
    /// operators from bare atoms)?
    fn starts_term(&self) -> bool {
        matches!(
            self.peek(),
            Some(Token::Int(_) | Token::Var(_) | Token::Atom(_) | Token::Open | Token::OpenList)
        )
    }

    fn parse_list(&mut self) -> Result<Term> {
        if matches!(self.peek(), Some(Token::CloseList)) {
            self.bump();
            return Ok(Term::nil());
        }
        let mut elements = vec![self.parse(999)?];
        loop {
            if elements.len() > MAX_LIST_ITEMS {
                return Err(
                    self.error_here(format!("list literal exceeds {MAX_LIST_ITEMS} elements"))
                );
            }
            match self.bump() {
                Some(Token::Comma) => elements.push(self.parse(999)?),
                Some(Token::Bar) => {
                    let tail = self.parse(999)?;
                    match self.bump() {
                        Some(Token::CloseList) => {
                            return Ok(elements
                                .into_iter()
                                .rev()
                                .fold(tail, |t, h| Term::cons(h, t)));
                        }
                        _ => return Err(self.error_here("expected ']'")),
                    }
                }
                Some(Token::CloseList) => {
                    return Ok(Term::list(elements));
                }
                _ => return Err(self.error_here("expected ',', '|' or ']'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(src: &str) -> Term {
        parse_term(src).unwrap()
    }

    #[test]
    fn atoms_ints_vars() {
        assert_eq!(p("foo"), Term::atom("foo"));
        assert_eq!(p("42"), Term::int(42));
        assert_eq!(p("X"), Term::var("X"));
    }

    #[test]
    fn compounds_and_lists() {
        assert_eq!(p("f(a,B)").to_string(), "f(a,B)");
        assert_eq!(p("[1,2,3]").to_string(), "[1,2,3]");
        assert_eq!(p("[H|T]").to_string(), "[H|T]");
        assert_eq!(p("[]"), Term::nil());
        assert_eq!(p("[a,b|T]").to_string(), "[a,b|T]");
    }

    #[test]
    fn arithmetic_precedence() {
        // 1+2*3 = +(1, *(2,3))
        assert_eq!(p("1+2*3").to_string(), "+(1,*(2,3))");
        // 1+2+3 = +(+(1,2),3) (yfx)
        assert_eq!(p("1+2+3").to_string(), "+(+(1,2),3)");
        assert_eq!(p("(1+2)*3").to_string(), "*(+(1,2),3)");
        assert_eq!(p("X is Y-1").to_string(), "is(X,-(Y,1))");
        assert_eq!(p("10 mod 3").to_string(), "mod(10,3)");
    }

    #[test]
    fn negative_literals() {
        assert_eq!(p("-5"), Term::int(-5));
        assert_eq!(p("X is -5 + 1").to_string(), "is(X,+(-5,1))");
        assert_eq!(p("-(a)").to_string(), "-(a)");
    }

    #[test]
    fn clause_operator() {
        let t = p("a :- b, c");
        assert_eq!(t.to_string(), ":-(a,','(b,c))");
    }

    #[test]
    fn control_operators() {
        assert_eq!(p("(a -> b ; c)").to_string(), ";(->(a,b),c)");
        assert_eq!(p("\\+ a").to_string(), "\\+(a)");
        // xfy: a;b;c = ;(a, ;(b,c))
        assert_eq!(p("a;b;c").to_string(), ";(a,;(b,c))");
    }

    #[test]
    fn comma_is_xfy() {
        assert_eq!(p("(a,b,c)").to_string(), "','(a,','(b,c))");
    }

    #[test]
    fn anonymous_vars_are_fresh() {
        let t = p("f(_,_)");
        let vars = t.variables();
        assert_eq!(vars.len(), 2, "each _ distinct: {vars:?}");
    }

    #[test]
    fn parse_terms_handles_many_clauses() {
        let ts = parse_terms("a. b :- c. f(X).").unwrap();
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn args_bind_tighter_than_comma() {
        assert_eq!(p("f(1+2, g(3))").to_string(), "f(+(1,2),g(3))");
    }

    #[test]
    fn errors_are_syntax_errors() {
        assert!(matches!(
            parse_term("f(").unwrap_err(),
            PsiError::Syntax { .. }
        ));
        assert!(matches!(
            parse_term(")").unwrap_err(),
            PsiError::Syntax { .. }
        ));
        assert!(matches!(
            parse_terms("a").unwrap_err(),
            PsiError::Syntax { .. }
        ));
    }

    #[test]
    fn hostile_nesting_is_a_syntax_error_not_a_stack_overflow() {
        // Far deeper than MAX_TERM_DEPTH; must come back as Err, not
        // blow the host stack.
        for src in [
            format!("{}a{}", "f(".repeat(100_000), ")".repeat(100_000)),
            format!("{}a{}", "(".repeat(100_000), ")".repeat(100_000)),
            format!("{}a{}", "[".repeat(100_000), "]".repeat(100_000)),
            format!("{}a", "\\+ ".repeat(100_000)),
        ] {
            let err = parse_term(&src).unwrap_err();
            assert!(matches!(err, PsiError::Syntax { .. }), "{err}");
        }
        // Nesting under the cap still parses.
        let ok = format!("{}a{}", "f(".repeat(512), ")".repeat(512));
        assert!(parse_term(&ok).is_ok());
    }

    #[test]
    fn hostile_list_length_is_a_syntax_error() {
        let src = format!("[{}0]", "0,".repeat(MAX_LIST_ITEMS * 2));
        let err = parse_term(&src).unwrap_err();
        assert!(matches!(err, PsiError::Syntax { .. }), "{err}");
        let ok = format!("[{}0]", "0,".repeat(1000));
        assert!(parse_term(&ok).is_ok());
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(p("X =< 3").to_string(), "=<(X,3)");
        assert_eq!(p("X =:= Y").to_string(), "=:=(X,Y)");
        assert_eq!(p("X \\== Y").to_string(), "\\==(X,Y)");
    }

    #[test]
    fn extended_arithmetic_operators() {
        // Shifts and division bind like multiplication (400 yfx)...
        assert_eq!(p("1 + 2 << 3").to_string(), "+(1,<<(2,3))");
        assert_eq!(p("X is 7 / 2").to_string(), "is(X,/(7,2))");
        assert_eq!(p("10 rem 3 >> 1").to_string(), ">>(rem(10,3),1)");
        // ...bitwise and/or/xor like addition (500 yfx).
        assert_eq!(p("1 /\\ 2 \\/ 3").to_string(), "\\/(/\\(1,2),3)");
        assert_eq!(p("a xor b xor c").to_string(), "xor(xor(a,b),c)");
        assert_eq!(p("1 \\/ 2 /\\ 4").to_string(), "/\\(\\/(1,2),4)");
        // A bare `xor`/`rem` atom in argument position is still an atom.
        assert_eq!(p("f(xor, rem)").to_string(), "f(xor,rem)");
    }
}
