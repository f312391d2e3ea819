//! PSI-as-a-service: a warm-pool, multi-session query server.
//!
//! The simulator's natural unit of work — load a program, solve a
//! goal, read the statistics — is wrapped here in a serving layer so
//! many concurrent clients can consult KL0 programs and stream
//! solutions over TCP without paying a cold machine start per query:
//!
//! * [`protocol`] — the JSON-lines wire format (built on
//!   [`psi_tools::json`]), the stable error-code space, and the
//!   tenancy rule that clamps client budgets to server caps;
//! * [`pool`] — the warm [`psi_machine::Machine`] pool, keyed by
//!   exact consulted source, with the recycle/retire lifecycle;
//! * [`session`] — the per-connection state machine, including
//!   panic containment (a machine panic poisons one session, never
//!   the process);
//! * [`server`] — the thread-per-connection TCP front end;
//! * [`client`] — a small blocking client for tests and the
//!   `load-driver` binary.
//!
//! Binaries: `psi-server` (stand-alone server) and `load-driver`
//! (concurrent-load verification writing `BENCH_server.json`; see
//! PROTOCOL.md and ARCHITECTURE.md §Serving).
//!
//! Every failure mode on the wire is a typed error line: engine
//! errors carry [`psi_core::PsiError::wire_code`] (1–10), protocol
//! violations and contained panics use codes 100/101. The server
//! never panics the process on client input — the input-hardening
//! work in `kl0` (bounded parser recursion, bounded list literals)
//! plus `catch_unwind` containment in [`session`] make that a tested
//! guarantee, not an aspiration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::{Client, ClientError, SolveReply, WireError};
pub use pool::{Lease, MachinePool, PoolOptions};
pub use protocol::{LimitsPatch, Request, CODE_PROTOCOL, CODE_SESSION_PANIC};
pub use server::{default_caps, serving_config, Server, ServerOptions};
pub use session::{Session, SessionTurn};
