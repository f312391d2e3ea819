//! Error type shared across the PSI reproduction crates.

use std::fmt;

/// Convenience alias for results carrying a [`PsiError`].
pub type Result<T> = std::result::Result<T, PsiError>;

/// A governed resource that a budget can exhaust during execution.
///
/// Budgets are configured per machine (see `MachineConfig::limits` in
/// `psi-machine`) and checked periodically by the dispatch loop, so an
/// exhausted run stops with a typed, recoverable error instead of
/// spinning forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Resource {
    /// Microinstruction steps (PSI) or emulated instructions (DEC-10).
    Steps,
    /// Heap-area words (loaded code plus runtime heap vectors).
    HeapWords,
    /// Local-stack words of one process.
    LocalWords,
    /// Global-stack words of one process.
    GlobalWords,
    /// Control-stack words of one process.
    ControlWords,
    /// Trail words of one process.
    TrailWords,
    /// Wall-clock milliseconds since the run started.
    WallClockMs,
}

impl Resource {
    /// Every resource, in code order.
    pub const ALL: [Resource; 7] = [
        Resource::Steps,
        Resource::HeapWords,
        Resource::LocalWords,
        Resource::GlobalWords,
        Resource::ControlWords,
        Resource::TrailWords,
        Resource::WallClockMs,
    ];

    /// A stable numeric code, used as the payload of governor-trip
    /// observability events (see [`crate::ObsEvent::governor_trip`]).
    pub fn code(self) -> u32 {
        Resource::ALL
            .iter()
            .position(|r| *r == self)
            .expect("every resource is in ALL") as u32
    }

    /// Decodes a [`Resource::code`]; `None` for unknown codes.
    pub fn from_code(code: u32) -> Option<Resource> {
        Resource::ALL.get(code as usize).copied()
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Resource::Steps => "steps",
            Resource::HeapWords => "heap words",
            Resource::LocalWords => "local-stack words",
            Resource::GlobalWords => "global-stack words",
            Resource::ControlWords => "control-stack words",
            Resource::TrailWords => "trail words",
            Resource::WallClockMs => "wall-clock ms",
        })
    }
}

/// Errors raised by the simulated machines and their front ends.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PsiError {
    /// A simulated memory access fell outside the allocated area.
    OutOfArea {
        /// A human-readable description of the access.
        access: String,
    },
    /// A stack area exceeded its configured limit.
    StackOverflow {
        /// The label of the overflowing area.
        area: &'static str,
        /// The configured limit in words.
        limit: usize,
    },
    /// A predicate was called but never defined.
    UndefinedPredicate {
        /// `name/arity` of the missing predicate.
        name: String,
    },
    /// A built-in received an argument of the wrong type.
    TypeError {
        /// The built-in that failed.
        builtin: String,
        /// What was expected.
        expected: &'static str,
    },
    /// Arithmetic evaluation failed (unbound variable, bad functor,
    /// division by zero).
    EvalError {
        /// A description of the failure.
        detail: String,
    },
    /// A configured resource budget was exhausted. This error is
    /// recoverable by design: the machine that raised it remains
    /// loaded and reusable, and the next `solve` starts from a clean
    /// run state.
    ResourceExhausted {
        /// The budget that ran out.
        resource: Resource,
        /// The configured limit.
        limit: u64,
        /// The amount actually consumed when the governor noticed
        /// (may exceed `limit` by up to one check interval).
        consumed: u64,
    },
    /// A syntax error from the KL0 reader.
    Syntax {
        /// Line number (1-based).
        line: u32,
        /// Column number (1-based).
        column: u32,
        /// What went wrong.
        detail: String,
    },
    /// A program was malformed at compile time.
    Compile {
        /// What went wrong.
        detail: String,
    },
    /// `Machine::fork` was asked to duplicate a machine that has
    /// already compiled or run a query. Forking shares the immutable
    /// code image, so only a consulted-but-never-run template is
    /// eligible; recycling does not restore eligibility (the image
    /// keeps its per-query entry stubs).
    ForkAfterRun {
        /// Why the machine is not forkable.
        detail: String,
    },
}

impl PsiError {
    /// A stable numeric code identifying the error variant on the
    /// wire. `psi-server` maps every error onto its JSON-lines
    /// protocol through this code (see PROTOCOL.md), so the values
    /// are append-only: new variants take new codes, existing codes
    /// never change meaning, and retired codes (7, 11) are never reused.
    pub fn wire_code(&self) -> u32 {
        match self {
            PsiError::OutOfArea { .. } => 1,
            PsiError::StackOverflow { .. } => 2,
            PsiError::UndefinedPredicate { .. } => 3,
            PsiError::TypeError { .. } => 4,
            PsiError::EvalError { .. } => 5,
            PsiError::ResourceExhausted { .. } => 6,
            PsiError::Syntax { .. } => 8,
            PsiError::Compile { .. } => 9,
            PsiError::ForkAfterRun { .. } => 10,
        }
    }

    /// A stable lowercase label for the error variant, paired with
    /// [`PsiError::wire_code`] in wire responses so clients can match
    /// on either form.
    pub fn wire_kind(&self) -> &'static str {
        match self {
            PsiError::OutOfArea { .. } => "out_of_area",
            PsiError::StackOverflow { .. } => "stack_overflow",
            PsiError::UndefinedPredicate { .. } => "undefined_predicate",
            PsiError::TypeError { .. } => "type_error",
            PsiError::EvalError { .. } => "eval_error",
            PsiError::ResourceExhausted { .. } => "resource_exhausted",
            PsiError::Syntax { .. } => "syntax",
            PsiError::Compile { .. } => "compile",
            PsiError::ForkAfterRun { .. } => "fork_after_run",
        }
    }
}

impl fmt::Display for PsiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PsiError::OutOfArea { access } => {
                write!(f, "memory access out of area: {access}")
            }
            PsiError::StackOverflow { area, limit } => {
                write!(f, "{area} stack overflow (limit {limit} words)")
            }
            PsiError::UndefinedPredicate { name } => {
                write!(f, "undefined predicate {name}")
            }
            PsiError::TypeError { builtin, expected } => {
                write!(f, "type error in {builtin}: expected {expected}")
            }
            PsiError::EvalError { detail } => {
                write!(f, "arithmetic evaluation error: {detail}")
            }
            PsiError::ResourceExhausted {
                resource,
                limit,
                consumed,
            } => write!(
                f,
                "resource budget exhausted: {consumed} {resource} consumed (limit {limit})"
            ),
            PsiError::Syntax {
                line,
                column,
                detail,
            } => write!(f, "syntax error at {line}:{column}: {detail}"),
            PsiError::Compile { detail } => write!(f, "compile error: {detail}"),
            PsiError::ForkAfterRun { detail } => {
                write!(f, "machine is not forkable: {detail}")
            }
        }
    }
}

impl std::error::Error for PsiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_without_period() {
        let errors = [
            PsiError::OutOfArea {
                access: "read p0:heap:0x10".into(),
            },
            PsiError::StackOverflow {
                area: "local",
                limit: 4096,
            },
            PsiError::UndefinedPredicate {
                name: "foo/3".into(),
            },
            PsiError::TypeError {
                builtin: "is/2".into(),
                expected: "integer",
            },
            PsiError::EvalError {
                detail: "division by zero".into(),
            },
            PsiError::ResourceExhausted {
                resource: Resource::Steps,
                limit: 10,
                consumed: 12,
            },
            PsiError::Syntax {
                line: 3,
                column: 7,
                detail: "unexpected token".into(),
            },
            PsiError::Compile {
                detail: "head is not callable".into(),
            },
            PsiError::ForkAfterRun {
                detail: "machine has compiled 3 queries".into(),
            },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'), "{msg}");
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
        }
    }

    #[test]
    fn every_resource_displays_distinctly() {
        let all = [
            Resource::Steps,
            Resource::HeapWords,
            Resource::LocalWords,
            Resource::GlobalWords,
            Resource::ControlWords,
            Resource::TrailWords,
            Resource::WallClockMs,
        ];
        let labels: Vec<String> = all.iter().map(|r| r.to_string()).collect();
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn wire_codes_are_distinct_nonzero_and_labelled() {
        let errors = [
            PsiError::OutOfArea { access: "x".into() },
            PsiError::StackOverflow {
                area: "local",
                limit: 1,
            },
            PsiError::UndefinedPredicate { name: "f/1".into() },
            PsiError::TypeError {
                builtin: "is/2".into(),
                expected: "integer",
            },
            PsiError::EvalError { detail: "x".into() },
            PsiError::ResourceExhausted {
                resource: Resource::Steps,
                limit: 1,
                consumed: 2,
            },
            PsiError::Syntax {
                line: 1,
                column: 1,
                detail: "x".into(),
            },
            PsiError::Compile { detail: "x".into() },
            PsiError::ForkAfterRun { detail: "x".into() },
        ];
        let mut seen = std::collections::HashSet::new();
        for e in &errors {
            let code = e.wire_code();
            assert!(code > 0, "{e}");
            assert!(seen.insert(code), "duplicate wire code {code}");
            let kind = e.wire_kind();
            assert!(!kind.is_empty());
            assert!(kind.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
        // Codes 1..=10 are claimed, in variant declaration order,
        // except the retired codes 7 and 11.
        assert_eq!(errors[0].wire_code(), 1);
        assert_eq!(errors[5].wire_code(), 6);
        assert_eq!(errors[6].wire_code(), 8);
        assert_eq!(errors[8].wire_code(), 10);
        assert!(!seen.contains(&7), "retired wire code 7 reused");
        assert!(!seen.contains(&11), "retired wire code 11 reused");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<PsiError>();
    }
}
