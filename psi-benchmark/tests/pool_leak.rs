//! The warm pool hands a second session that consults the same source
//! the machine a first session left behind — including the clauses
//! that session asserted. `serve` leaves `fill` and `churn` out of its
//! mix for this reason; remove the `ignore` once the pool discards
//! run-time clauses on recycle.

use psi_server::{Client, Server, ServerOptions};
use psi_workloads::corpus::fill;

#[test]
#[ignore = "warm pool keeps asserted clauses across sessions"]
fn a_second_fill_session_sees_only_its_own_clauses() {
    let server = Server::spawn(ServerOptions::default()).expect("server starts");
    // Same source text (so the same pool shelf), different counts.
    for n in [31, 28] {
        let p = fill(1, n, false);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client.consult(&p.workload.source).expect("consult");
        let reply = client.solve(&p.workload.goal, u64::MAX).expect("solve");
        client.close().expect("close");
        assert_eq!(
            reply.bindings,
            p.expected,
            "fill({n}) answered {} solutions, the oracle {}",
            reply.bindings.len(),
            p.expected.len()
        );
    }
    server.shutdown();
}
