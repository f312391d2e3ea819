//! The per-connection session state machine.
//!
//! A [`Session`] is transport-agnostic: the server hands it one
//! request line at a time and writes back whatever response lines it
//! produces, so the whole protocol surface is unit-testable without a
//! socket. The state it carries is exactly one pooled machine lease
//! (created lazily on the first request that needs a machine) plus
//! the session's effective resource limits.
//!
//! # Fault containment
//!
//! Every call into the interpreter (`consult`, `solve`) runs under
//! [`std::panic::catch_unwind`]. Engine errors ([`psi_core::PsiError`])
//! are the *expected* outcome of hostile programs and are answered
//! with a typed error line, after which the session keeps serving —
//! the machine's documented contract is that it stays usable after a
//! `ResourceExhausted` or any other typed error. A *panic*, by
//! contrast, means the interpreter's state can no longer be trusted:
//! the session answers one [`crate::protocol::CODE_SESSION_PANIC`] error line, the
//! lease is dropped on the floor (never pooled again), and the
//! connection is closed. Other sessions — including ones holding
//! machines warmed by the same source — are unaffected.

use crate::pool::{Lease, MachinePool};
use crate::protocol::{
    ack_line, clamp_limits, done_line, error_line, panic_error_line, parse_request,
    protocol_error_line, solution_line, stats_line, Request, MAX_REQUEST_BYTES,
};
use psi_machine::ResourceLimits;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// What the transport should do after a handled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionTurn {
    /// Keep reading requests.
    Continue,
    /// The client closed cleanly; check the machine back in and drop
    /// the connection.
    Close,
    /// The session is no longer trustworthy (machine panic, oversized
    /// or undecodable input): drop the connection *and* the machine.
    Abort,
}

/// One client's session: a lazily checked-out machine lease plus the
/// session's clamped resource limits.
pub struct Session {
    pool: Arc<MachinePool>,
    caps: ResourceLimits,
    limits: ResourceLimits,
    lease: Option<Lease>,
    poisoned: bool,
}

impl Session {
    /// A fresh session drawing machines from `pool`, with every budget
    /// at the server cap `caps` until the client tightens it.
    pub fn new(pool: Arc<MachinePool>, caps: ResourceLimits) -> Session {
        Session {
            pool,
            limits: caps.clone(),
            caps,
            lease: None,
            poisoned: false,
        }
    }

    /// Handles one request line, pushing response lines onto `out`.
    pub fn handle_line(&mut self, line: &str, out: &mut Vec<String>) -> SessionTurn {
        if line.len() > MAX_REQUEST_BYTES {
            out.push(protocol_error_line(&format!(
                "request exceeds {MAX_REQUEST_BYTES} bytes"
            )));
            return SessionTurn::Abort;
        }
        let request = match parse_request(line) {
            Ok(r) => r,
            Err(e) => {
                out.push(protocol_error_line(&e.to_string()));
                return SessionTurn::Continue;
            }
        };
        match request {
            Request::Consult { src } => self.consult(&src, out),
            Request::Solve { goal, max } => self.solve(&goal, max, out),
            Request::Limits(patch) => {
                self.limits = clamp_limits(&patch, &self.caps);
                if let Some(lease) = &mut self.lease {
                    lease.machine.set_limits(self.limits.clone());
                }
                out.push(ack_line("limits"));
                SessionTurn::Continue
            }
            Request::Stats => match self.lease_mut(out) {
                Some(lease) => {
                    out.push(stats_line(&lease.machine.stats()));
                    SessionTurn::Continue
                }
                None => SessionTurn::Continue,
            },
            Request::Reset => {
                if let Some(lease) = &mut self.lease {
                    lease.machine.recycle();
                }
                out.push(ack_line("reset"));
                SessionTurn::Continue
            }
            Request::Close => {
                out.push(ack_line("bye"));
                SessionTurn::Close
            }
        }
    }

    /// Ends the session. A clean end returns the machine to the pool;
    /// a poisoned session (panic, hostile input) retires it.
    pub fn finish(mut self) {
        if let Some(lease) = self.lease.take() {
            if !self.poisoned {
                self.pool.checkin(lease);
            }
        }
    }

    /// The session's machine, checked out on first use. The empty
    /// source is a valid pool key: a session that solves before
    /// consulting gets an empty (but fully governed) machine, and its
    /// goals fail with a typed `undefined_predicate` error.
    fn lease_mut(&mut self, out: &mut Vec<String>) -> Option<&mut Lease> {
        if self.lease.is_none() {
            match self.pool.checkout("") {
                Ok(mut lease) => {
                    lease.machine.set_limits(self.limits.clone());
                    self.lease = Some(lease);
                }
                Err(e) => {
                    out.push(error_line(&e));
                    return None;
                }
            }
        }
        self.lease.as_mut()
    }

    fn consult(&mut self, src: &str, out: &mut Vec<String>) -> SessionTurn {
        // First consult of a fresh session: check out by source, so
        // identical programs land on warm machines.
        if self.lease.is_none() {
            match self.pool.checkout(src) {
                Ok(mut lease) => {
                    lease.machine.set_limits(self.limits.clone());
                    self.lease = Some(lease);
                    out.push(ack_line("consulted"));
                }
                Err(e) => out.push(error_line(&e)),
            }
            return SessionTurn::Continue;
        }
        // Incremental consult: append to the machine and extend the
        // pool key, so the machine is only ever reused by a session
        // that consulted the same sequence of texts.
        let Some(lease) = self.lease.as_mut() else {
            return SessionTurn::Continue;
        };
        let result = catch_unwind(AssertUnwindSafe(|| lease.machine.consult(src)));
        match result {
            Ok(Ok(())) => {
                lease.source.push('\n');
                lease.source.push_str(src);
                out.push(ack_line("consulted"));
                SessionTurn::Continue
            }
            Ok(Err(e)) => {
                // A failed consult can leave the program partially
                // compiled (the compiler registers predicate entries
                // before it compiles clause bodies), and the pool key
                // was not extended — so the machine no longer matches
                // its key. It keeps serving *this* session, but must
                // never be shelved for another tenant.
                lease.taint();
                out.push(error_line(&e));
                SessionTurn::Continue
            }
            Err(panic) => self.poison(panic, out),
        }
    }

    fn solve(&mut self, goal: &str, max: u64, out: &mut Vec<String>) -> SessionTurn {
        let Some(lease) = self.lease_mut(out) else {
            return SessionTurn::Continue;
        };
        let max = usize::try_from(max).unwrap_or(usize::MAX);
        let result = catch_unwind(AssertUnwindSafe(|| lease.machine.solve(goal, max)));
        match result {
            Ok(Ok(solutions)) => {
                for (i, s) in solutions.iter().enumerate() {
                    out.push(solution_line(i as u64, s));
                }
                out.push(done_line(solutions.len() as u64, &lease.machine.stats()));
                SessionTurn::Continue
            }
            Ok(Err(e)) => {
                out.push(error_line(&e));
                SessionTurn::Continue
            }
            Err(panic) => self.poison(panic, out),
        }
    }

    #[cold]
    fn poison(
        &mut self,
        panic: Box<dyn std::any::Any + Send>,
        out: &mut Vec<String>,
    ) -> SessionTurn {
        let message = if let Some(s) = panic.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = panic.downcast_ref::<String>() {
            s.clone()
        } else {
            "machine panicked".to_owned()
        };
        self.poisoned = true;
        out.push(panic_error_line(&message));
        SessionTurn::Abort
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolOptions;
    use crate::protocol::{CODE_PROTOCOL, CODE_SESSION_PANIC};
    use crate::serving_config;
    use psi_tools::json::parse_object;

    fn session() -> Session {
        let pool = Arc::new(MachinePool::new(serving_config(), PoolOptions::default()));
        Session::new(pool, ResourceLimits::unlimited())
    }

    fn one(session: &mut Session, line: &str) -> (Vec<String>, SessionTurn) {
        let mut out = Vec::new();
        let turn = session.handle_line(line, &mut out);
        (out, turn)
    }

    #[test]
    fn consult_solve_close_round_trip() {
        let mut s = session();
        let (out, turn) = one(&mut s, r#"{"cmd":"consult","src":"p(1). p(2)."}"#);
        assert_eq!(turn, SessionTurn::Continue);
        assert_eq!(
            parse_object(&out[0]).unwrap().str_field("event").unwrap(),
            "consulted"
        );
        let (out, turn) = one(&mut s, r#"{"cmd":"solve","goal":"p(X)","max":9}"#);
        assert_eq!(turn, SessionTurn::Continue);
        assert_eq!(out.len(), 3, "two solutions + done: {out:?}");
        let first = parse_object(&out[0]).unwrap();
        assert_eq!(first.str_field("event").unwrap(), "solution");
        assert_eq!(first.str_field("bindings").unwrap(), "X = 1");
        let done = parse_object(&out[2]).unwrap();
        assert_eq!(done.u64_field("solutions").unwrap(), 2);
        assert!(done.u64_field("steps").unwrap() > 0);
        let (out, turn) = one(&mut s, r#"{"cmd":"close"}"#);
        assert_eq!(turn, SessionTurn::Close);
        assert_eq!(
            parse_object(&out[0]).unwrap().str_field("event").unwrap(),
            "bye"
        );
        s.finish();
    }

    #[test]
    fn malformed_lines_get_code_100_and_the_session_survives() {
        let mut s = session();
        for line in ["", "garbage", "{\"cmd\":\"zorp\"}", "{\"cmd\":17}"] {
            let (out, turn) = one(&mut s, line);
            assert_eq!(turn, SessionTurn::Continue, "{line:?}");
            let obj = parse_object(&out[0]).unwrap();
            assert_eq!(obj.u64_field("code").unwrap(), CODE_PROTOCOL, "{line:?}");
        }
        // Still fully functional afterwards.
        let (_, turn) = one(&mut s, r#"{"cmd":"consult","src":"q(a)."}"#);
        assert_eq!(turn, SessionTurn::Continue);
        let (out, _) = one(&mut s, r#"{"cmd":"solve","goal":"q(X)"}"#);
        assert_eq!(
            parse_object(&out[0])
                .unwrap()
                .str_field("bindings")
                .unwrap(),
            "X = a"
        );
    }

    #[test]
    fn solve_before_consult_is_a_typed_engine_error() {
        let mut s = session();
        let (out, turn) = one(&mut s, r#"{"cmd":"solve","goal":"nothing_here(X)"}"#);
        assert_eq!(turn, SessionTurn::Continue);
        let obj = parse_object(&out[0]).unwrap();
        assert_eq!(obj.str_field("kind").unwrap(), "undefined_predicate");
    }

    #[test]
    fn hostile_program_text_is_a_typed_error_not_a_crash() {
        let mut s = session();
        let deep = format!("p :- {}q{}.", "\\+ (".repeat(50_000), ")".repeat(50_000));
        let line = psi_tools::json::ObjectBuilder::new()
            .str("cmd", "consult")
            .str("src", &deep)
            .finish();
        let (out, turn) = one(&mut s, &line);
        assert_eq!(turn, SessionTurn::Continue);
        let obj = parse_object(&out[0]).unwrap();
        assert_eq!(obj.str_field("kind").unwrap(), "syntax");
        // The session still works.
        let (_, turn) = one(&mut s, r#"{"cmd":"consult","src":"ok(1)."}"#);
        assert_eq!(turn, SessionTurn::Continue);
        let (out, _) = one(&mut s, r#"{"cmd":"solve","goal":"ok(X)"}"#);
        assert_eq!(
            parse_object(&out[0])
                .unwrap()
                .str_field("bindings")
                .unwrap(),
            "X = 1"
        );
    }

    #[test]
    fn oversized_lines_abort_the_session() {
        let mut s = session();
        let big = format!(
            r#"{{"cmd":"consult","src":"{}"}}"#,
            "a".repeat(MAX_REQUEST_BYTES)
        );
        let (out, turn) = one(&mut s, &big);
        assert_eq!(turn, SessionTurn::Abort);
        let obj = parse_object(&out[0]).unwrap();
        assert_eq!(obj.u64_field("code").unwrap(), CODE_PROTOCOL);
    }

    #[test]
    fn limits_clamp_and_apply_to_the_next_solve() {
        let pool = Arc::new(MachinePool::new(serving_config(), PoolOptions::default()));
        let caps = ResourceLimits::unlimited().with_max_steps(1_000_000);
        let mut s = Session::new(pool, caps);
        let (_, _) = one(
            &mut s,
            r#"{"cmd":"consult","src":"nat(z). nat(s(X)) :- nat(X)."}"#,
        );
        let (_, turn) = one(&mut s, r#"{"cmd":"limits","max_steps":500}"#);
        assert_eq!(turn, SessionTurn::Continue);
        let (out, turn) = one(&mut s, r#"{"cmd":"solve","goal":"nat(X)","max":100000}"#);
        assert_eq!(
            turn,
            SessionTurn::Continue,
            "exhaustion is typed, not fatal"
        );
        let last = parse_object(out.last().unwrap()).unwrap();
        assert_eq!(last.str_field("kind").unwrap(), "resource_exhausted");
        assert_eq!(last.u64_field("code").unwrap(), 6);
        // And the session keeps serving within the budget.
        let (out, _) = one(&mut s, r#"{"cmd":"solve","goal":"nat(z)","max":1}"#);
        let done = parse_object(out.last().unwrap()).unwrap();
        assert_eq!(done.str_field("event").unwrap(), "done");
    }

    #[test]
    fn clean_finish_pools_the_machine_poisoned_finish_retires_it() {
        let pool = Arc::new(MachinePool::new(serving_config(), PoolOptions::default()));
        let mut s = Session::new(Arc::clone(&pool), ResourceLimits::unlimited());
        let (_, _) = one(&mut s, r#"{"cmd":"consult","src":"p(1)."}"#);
        let (_, turn) = one(&mut s, r#"{"cmd":"close"}"#);
        assert_eq!(turn, SessionTurn::Close);
        s.finish();
        assert_eq!(pool.idle_count(), 1);

        let mut s = Session::new(Arc::clone(&pool), ResourceLimits::unlimited());
        let (_, _) = one(&mut s, r#"{"cmd":"consult","src":"p(1)."}"#);
        s.poisoned = true; // what a contained panic sets
        s.finish();
        assert_eq!(
            pool.idle_count(),
            0,
            "poisoned machines are never re-pooled"
        );
    }

    /// Two-tenant isolation across incremental consults: a machine
    /// that consulted `A` then `B` is pooled under the composite key
    /// `A + "\n" + B`, so a later tenant consulting plain `A` must
    /// never see `B`'s predicates.
    #[test]
    fn incremental_consult_pools_under_the_composite_key_only() {
        let pool = Arc::new(MachinePool::new(serving_config(), PoolOptions::default()));

        // Tenant 1: consult A, then incrementally consult B, end clean.
        let mut s = Session::new(Arc::clone(&pool), ResourceLimits::unlimited());
        let (_, _) = one(&mut s, r#"{"cmd":"consult","src":"a(1)."}"#);
        let (out, turn) = one(&mut s, r#"{"cmd":"consult","src":"b(2)."}"#);
        assert_eq!(turn, SessionTurn::Continue);
        assert_eq!(
            parse_object(&out[0]).unwrap().str_field("event").unwrap(),
            "consulted"
        );
        s.finish();
        assert_eq!(pool.idle_count(), 1);

        // Tenant 2: consults plain A. The composite machine must not
        // be handed over; b/1 must be undefined here.
        let mut s = Session::new(Arc::clone(&pool), ResourceLimits::unlimited());
        let (_, _) = one(&mut s, r#"{"cmd":"consult","src":"a(1)."}"#);
        let (out, _) = one(&mut s, r#"{"cmd":"solve","goal":"b(X)"}"#);
        assert_eq!(
            parse_object(&out[0]).unwrap().str_field("kind").unwrap(),
            "undefined_predicate",
            "tenant 2 saw tenant 1's incremental consult: {out:?}"
        );
        s.finish();

        // The composite key, by contrast, is served warm.
        let lease = pool.checkout("a(1).\nb(2).").unwrap();
        assert!(lease.warm, "composite-key machine should be shelved");
        drop(lease);
    }

    /// A failed incremental consult may leave the program partially
    /// compiled while the pool key stays unextended; that machine must
    /// be retired at session end, never shelved for another tenant.
    #[test]
    fn failed_incremental_consult_retires_the_machine() {
        let pool = Arc::new(MachinePool::new(serving_config(), PoolOptions::default()));

        let mut s = Session::new(Arc::clone(&pool), ResourceLimits::unlimited());
        let (_, _) = one(&mut s, r#"{"cmd":"consult","src":"a(1)."}"#);
        let (out, turn) = one(&mut s, r#"{"cmd":"consult","src":"broken("}"#);
        assert_eq!(turn, SessionTurn::Continue, "typed error, session survives");
        assert_eq!(
            parse_object(&out[0]).unwrap().str_field("kind").unwrap(),
            "syntax"
        );
        // The session itself keeps serving its own (possibly partial)
        // program...
        let (out, _) = one(&mut s, r#"{"cmd":"solve","goal":"a(X)"}"#);
        assert_eq!(
            parse_object(&out[0])
                .unwrap()
                .str_field("bindings")
                .unwrap(),
            "X = 1"
        );
        s.finish();
        // ...but the machine is retired, not shelved under "a(1).".
        assert_eq!(
            pool.idle_count(),
            0,
            "a machine whose consult failed partway must not be re-pooled"
        );
    }

    #[test]
    fn panic_maps_to_code_101() {
        let mut s = session();
        let mut out = Vec::new();
        let turn = s.poison(Box::new("boom".to_owned()), &mut out);
        assert_eq!(turn, SessionTurn::Abort);
        let obj = parse_object(&out[0]).unwrap();
        assert_eq!(obj.u64_field("code").unwrap(), CODE_SESSION_PANIC);
        assert_eq!(obj.str_field("message").unwrap(), "boom");
        s.finish();
    }
}
