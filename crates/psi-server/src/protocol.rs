//! The JSON-lines wire protocol: typed requests, response rendering,
//! and the stable error-code space. PROTOCOL.md at the repository
//! root is the client-facing description of this module.
//!
//! Every request and response is one flat JSON object per line,
//! encoded and decoded with the shared [`psi_tools::json`] codec.
//! Engine errors carry the stable [`PsiError::wire_code`]; the two
//! server-level conditions that have no engine error take codes from
//! 100 up ([`CODE_PROTOCOL`], [`CODE_SESSION_PANIC`]), so the two
//! spaces can never collide.

use psi_core::PsiError;
use psi_machine::{MachineStats, ResourceLimits, Solution};
use psi_tools::json::{JsonObject, ObjectBuilder};
use std::time::Duration;

/// Protocol version, sent in the greeting.
pub const WIRE_PROTOCOL_VERSION: u64 = 1;

/// Wire code for a malformed request (bad JSON, unknown `cmd`,
/// missing field, oversized line). Engine errors use
/// [`PsiError::wire_code`] (1–10); server-level codes start at 100.
pub const CODE_PROTOCOL: u64 = 100;

/// Wire code for a contained panic inside the session's machine. The
/// machine is discarded (never pooled again) and the session is
/// closed; other sessions are unaffected.
pub const CODE_SESSION_PANIC: u64 = 101;

/// Hard cap on one request line, in bytes. A line longer than this is
/// answered with [`CODE_PROTOCOL`] and the connection is closed
/// (the client is either broken or hostile).
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Add clauses to the session's machine (incremental consult).
    Consult {
        /// KL0 program text.
        src: String,
    },
    /// Solve a goal, streaming up to `max` solutions.
    Solve {
        /// KL0 goal text.
        goal: String,
        /// Maximum number of solutions to stream.
        max: u64,
    },
    /// Tighten the session's resource budgets (server caps still
    /// apply — see [`clamp_limits`]).
    Limits(LimitsPatch),
    /// Report the statistics of the session's most recent solve.
    Stats,
    /// Recycle the session's machine state (keeps consulted code).
    Reset,
    /// End the session cleanly.
    Close,
}

/// The optional budget fields of a `limits` request. Absent fields
/// leave the corresponding budget at the server default.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LimitsPatch {
    /// Requested step budget.
    pub max_steps: Option<u64>,
    /// Requested wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Requested heap budget in words.
    pub max_heap_words: Option<u64>,
    /// Requested local-stack budget in words.
    pub max_local_words: Option<u64>,
    /// Requested global-stack budget in words.
    pub max_global_words: Option<u64>,
    /// Requested control-stack budget in words.
    pub max_control_words: Option<u64>,
    /// Requested trail budget in words.
    pub max_trail_words: Option<u64>,
}

fn protocol_err(detail: impl Into<String>) -> PsiError {
    PsiError::Syntax {
        line: 1,
        column: 1,
        detail: detail.into(),
    }
}

fn opt_u64(obj: &JsonObject, key: &str) -> Result<Option<u64>, PsiError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| protocol_err(format!("field \"{key}\" must be a non-negative integer"))),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// A typed [`PsiError::Syntax`] describing what is malformed; the
/// session layer maps every parse failure onto [`CODE_PROTOCOL`].
pub fn parse_request(line: &str) -> Result<Request, PsiError> {
    let obj = psi_tools::json::parse_object(line)?;
    let cmd = obj.str_field("cmd")?;
    match cmd {
        "consult" => Ok(Request::Consult {
            src: obj.str_field("src")?.to_owned(),
        }),
        "solve" => {
            let goal = obj.str_field("goal")?.to_owned();
            let max = opt_u64(&obj, "max")?.unwrap_or(1);
            Ok(Request::Solve { goal, max })
        }
        "limits" => Ok(Request::Limits(LimitsPatch {
            max_steps: opt_u64(&obj, "max_steps")?,
            deadline_ms: opt_u64(&obj, "deadline_ms")?,
            max_heap_words: opt_u64(&obj, "max_heap_words")?,
            max_local_words: opt_u64(&obj, "max_local_words")?,
            max_global_words: opt_u64(&obj, "max_global_words")?,
            max_control_words: opt_u64(&obj, "max_control_words")?,
            max_trail_words: opt_u64(&obj, "max_trail_words")?,
        })),
        "stats" => Ok(Request::Stats),
        "reset" => Ok(Request::Reset),
        "close" => Ok(Request::Close),
        other => Err(protocol_err(format!("unknown cmd \"{other}\""))),
    }
}

/// Applies a client's requested budgets under the server's caps: a
/// session may always *tighten* its budgets, but each effective
/// budget never exceeds the server cap for that resource (`None` cap
/// = uncapped). This is the tenancy rule — one session cannot grant
/// itself more machine than the operator configured.
pub fn clamp_limits(patch: &LimitsPatch, caps: &ResourceLimits) -> ResourceLimits {
    fn word(requested: Option<u64>, cap: Option<u32>) -> Option<u32> {
        let requested = requested.map(|v| u32::try_from(v).unwrap_or(u32::MAX));
        match (requested, cap) {
            (Some(r), Some(c)) => Some(r.min(c)),
            (Some(r), None) => Some(r),
            (None, c) => c,
        }
    }
    let mut out = ResourceLimits::unlimited();
    out.max_steps = match (patch.max_steps, caps.max_steps) {
        (Some(r), Some(c)) => Some(r.min(c)),
        (Some(r), None) => Some(r),
        (None, c) => c,
    };
    out.deadline = {
        let requested = patch.deadline_ms.map(Duration::from_millis);
        match (requested, caps.deadline) {
            (Some(r), Some(c)) => Some(r.min(c)),
            (Some(r), None) => Some(r),
            (None, c) => c,
        }
    };
    out.max_heap_words = word(patch.max_heap_words, caps.max_heap_words);
    out.max_local_words = word(patch.max_local_words, caps.max_local_words);
    out.max_global_words = word(patch.max_global_words, caps.max_global_words);
    out.max_control_words = word(patch.max_control_words, caps.max_control_words);
    out.max_trail_words = word(patch.max_trail_words, caps.max_trail_words);
    out
}

// ------------------------------------------------------------ responses

/// The greeting sent once per connection, before any request.
pub fn hello_line() -> String {
    ObjectBuilder::new()
        .bool("ok", true)
        .str("event", "hello")
        .u64("proto", WIRE_PROTOCOL_VERSION)
        .finish()
}

/// A plain acknowledgement (`consulted`, `limits`, `reset`, `bye`).
pub fn ack_line(event: &str) -> String {
    ObjectBuilder::new()
        .bool("ok", true)
        .str("event", event)
        .finish()
}

/// One streamed solution: `index` is 0-based within its solve,
/// `bindings` is the engine-neutral rendering (`"X = 1, Y = [2,3]"`,
/// or `"true"` for a variable-free goal).
pub fn solution_line(index: u64, solution: &Solution) -> String {
    ObjectBuilder::new()
        .bool("ok", true)
        .str("event", "solution")
        .u64("index", index)
        .str("bindings", &solution.to_string())
        .finish()
}

/// The terminator of a successful solve: totals for the whole run.
pub fn done_line(solutions: u64, stats: &MachineStats) -> String {
    ObjectBuilder::new()
        .bool("ok", true)
        .str("event", "done")
        .u64("solutions", solutions)
        .u64("steps", stats.steps)
        .u64("sim_time_ns", stats.time_ns)
        .finish()
}

/// The `stats` response: the machine statistics of the most recent
/// solve in this session.
pub fn stats_line(stats: &MachineStats) -> String {
    ObjectBuilder::new()
        .bool("ok", true)
        .str("event", "stats")
        .u64("steps", stats.steps)
        .u64("sim_time_ns", stats.time_ns)
        .u64("user_calls", stats.user_calls)
        .u64("builtin_calls", stats.builtin_calls)
        .u64("choice_points", stats.choice_points)
        .u64("indexed_calls", stats.indexed_calls)
        .finish()
}

/// An engine error mapped onto the wire: stable code, stable kind
/// label, human-readable message.
pub fn error_line(e: &PsiError) -> String {
    ObjectBuilder::new()
        .bool("ok", false)
        .str("event", "error")
        .u64("code", u64::from(e.wire_code()))
        .str("kind", e.wire_kind())
        .str("message", &e.to_string())
        .finish()
}

/// A malformed request ([`CODE_PROTOCOL`]).
pub fn protocol_error_line(message: &str) -> String {
    ObjectBuilder::new()
        .bool("ok", false)
        .str("event", "error")
        .u64("code", CODE_PROTOCOL)
        .str("kind", "protocol")
        .str("message", message)
        .finish()
}

/// A contained machine panic ([`CODE_SESSION_PANIC`]).
pub fn panic_error_line(message: &str) -> String {
    ObjectBuilder::new()
        .bool("ok", false)
        .str("event", "error")
        .u64("code", CODE_SESSION_PANIC)
        .str("kind", "session_panic")
        .str("message", message)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse() {
        assert_eq!(
            parse_request(r#"{"cmd":"consult","src":"p(1)."}"#).unwrap(),
            Request::Consult {
                src: "p(1).".into()
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"solve","goal":"p(X)","max":7}"#).unwrap(),
            Request::Solve {
                goal: "p(X)".into(),
                max: 7
            }
        );
        // `max` defaults to one solution.
        assert_eq!(
            parse_request(r#"{"cmd":"solve","goal":"p(X)"}"#).unwrap(),
            Request::Solve {
                goal: "p(X)".into(),
                max: 1
            }
        );
        assert_eq!(parse_request(r#"{"cmd":"close"}"#).unwrap(), Request::Close);
        let r = parse_request(r#"{"cmd":"limits","max_steps":5,"deadline_ms":100}"#).unwrap();
        assert_eq!(
            r,
            Request::Limits(LimitsPatch {
                max_steps: Some(5),
                deadline_ms: Some(100),
                ..LimitsPatch::default()
            })
        );
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for line in [
            "",
            "garbage",
            "{}",
            r#"{"cmd":"frobnicate"}"#,
            r#"{"cmd":"solve"}"#,
            r#"{"cmd":"solve","goal":"p(X)","max":-1}"#,
            r#"{"cmd":"consult","src":17}"#,
            r#"{"cmd":"limits","max_steps":"lots"}"#,
        ] {
            assert!(parse_request(line).is_err(), "{line:?}");
        }
    }

    #[test]
    fn limits_clamp_to_server_caps() {
        let caps = ResourceLimits::unlimited()
            .with_max_steps(1_000)
            .with_deadline(Duration::from_millis(50));
        // Tightening is honored.
        let patch = LimitsPatch {
            max_steps: Some(10),
            deadline_ms: Some(5),
            ..LimitsPatch::default()
        };
        let got = clamp_limits(&patch, &caps);
        assert_eq!(got.max_steps, Some(10));
        assert_eq!(got.deadline, Some(Duration::from_millis(5)));
        // Exceeding the cap is clamped back to it.
        let greedy = LimitsPatch {
            max_steps: Some(u64::MAX),
            deadline_ms: Some(3_600_000),
            max_heap_words: Some(u64::MAX),
            ..LimitsPatch::default()
        };
        let got = clamp_limits(&greedy, &caps);
        assert_eq!(got.max_steps, Some(1_000));
        assert_eq!(got.deadline, Some(Duration::from_millis(50)));
        assert_eq!(
            got.max_heap_words,
            Some(u32::MAX),
            "uncapped resource: the (saturated) request is honored"
        );
        // No patch at all keeps the caps.
        let got = clamp_limits(&LimitsPatch::default(), &caps);
        assert_eq!(got.max_steps, Some(1_000));
    }

    #[test]
    fn responses_are_parseable_flat_json() {
        use psi_tools::json::parse_object;
        let hello = parse_object(&hello_line()).unwrap();
        assert_eq!(hello.str_field("event").unwrap(), "hello");
        assert_eq!(hello.u64_field("proto").unwrap(), WIRE_PROTOCOL_VERSION);
        let err = parse_object(&error_line(&PsiError::UndefinedPredicate {
            name: "zorp/3".into(),
        }))
        .unwrap();
        assert_eq!(err.u64_field("code").unwrap(), 3);
        assert_eq!(err.str_field("kind").unwrap(), "undefined_predicate");
        assert!(err.str_field("message").unwrap().contains("zorp/3"));
        let p = parse_object(&protocol_error_line("nope")).unwrap();
        assert_eq!(p.u64_field("code").unwrap(), CODE_PROTOCOL);
    }
}
