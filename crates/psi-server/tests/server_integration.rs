//! End-to-end server tests over real TCP connections.
//!
//! Two guarantees are exercised here that the unit tests cannot:
//!
//! * **Concurrency is bit-invisible.** Many sessions solving the
//!   Table 1 programs at once receive exactly the solutions — and
//!   exactly the simulated step counts — of a serial in-process run.
//! * **Faults stay in their session.** A session that exhausts its own
//!   tightened budget gets a typed error and keeps serving, while
//!   concurrent sessions proceed untouched; hostile bytes on one
//!   connection never take down the listener.

use psi_server::{Client, ClientError, LimitsPatch, Server, ServerOptions};
use psi_workloads::suite::table1_suite;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn spawn_server() -> Server {
    Server::spawn(ServerOptions::default()).expect("bind 127.0.0.1:0")
}

/// Serial ground truth for a workload under the serving profile.
fn serial_reference(source: &str, goal: &str, max: usize) -> (Vec<String>, u64) {
    let program = kl0::Program::parse(source).expect("workload parses");
    let mut machine =
        psi_machine::Machine::load(&program, psi_server::serving_config()).expect("workload loads");
    let solutions = machine.solve(goal, max).expect("workload solves");
    (
        solutions.iter().map(ToString::to_string).collect(),
        machine.stats().steps,
    )
}

#[test]
fn concurrent_sessions_match_serial_bit_for_bit() {
    // The ten contest rows: small enough that nineteen threads of
    // them finish quickly even in the test profile, varied enough to
    // cover recursion, backtracking, arithmetic and list traffic.
    // (`load-driver` runs the full nineteen-row suite in release.)
    let suite: Vec<_> = table1_suite().into_iter().take(10).collect();
    let expected: Vec<(String, String, usize, Vec<String>, u64)> = suite
        .iter()
        .map(|entry| {
            let w = &entry.workload;
            let (bindings, steps) = serial_reference(&w.source, &w.goal, w.max_solutions);
            (
                w.source.clone(),
                w.goal.clone(),
                w.max_solutions,
                bindings,
                steps,
            )
        })
        .collect();
    let expected = Arc::new(expected);

    let server = spawn_server();
    let addr = server.local_addr();
    let sessions = 8;
    let mut workers = Vec::new();
    for session_id in 0..sessions {
        let expected = Arc::clone(&expected);
        workers.push(std::thread::spawn(move || {
            for offset in 0..expected.len() {
                let (source, goal, max, bindings, steps) =
                    &expected[(session_id + offset) % expected.len()];
                let mut client = Client::connect(addr).expect("connect");
                client.consult(source).expect("consult");
                let reply = client
                    .solve(goal, u64::try_from(*max).unwrap_or(u64::MAX))
                    .expect("solve");
                assert_eq!(&reply.bindings, bindings, "solutions diverged under load");
                assert_eq!(reply.steps, *steps, "step counts diverged under load");
                client.close().expect("close");
            }
        }));
    }
    for w in workers {
        w.join().expect("session thread");
    }
    assert!(
        server.pool().idle_count() > 0,
        "clean sessions must leave warm machines behind"
    );
    server.shutdown();
}

#[test]
fn one_exhausted_session_degrades_only_itself() {
    let server = spawn_server();
    let addr = server.local_addr();

    // A healthy session in flight...
    let mut healthy = Client::connect(addr).expect("connect healthy");
    healthy.consult("p(1). p(2). p(3).").expect("consult");

    // ...while another session exhausts its own tightened budget.
    let mut greedy = Client::connect(addr).expect("connect greedy");
    greedy
        .consult("nat(z). nat(s(X)) :- nat(X).")
        .expect("consult");
    greedy
        .set_limits(&LimitsPatch {
            max_steps: Some(10_000),
            ..LimitsPatch::default()
        })
        .expect("limits");
    match greedy.solve("nat(X)", u64::MAX) {
        Err(ClientError::Wire(w)) => {
            assert_eq!(w.code, 6, "resource exhaustion is wire code 6: {w}");
            assert_eq!(w.kind, "resource_exhausted");
        }
        other => panic!("expected a typed exhaustion error, got {other:?}"),
    }

    // The greedy session itself survives its error...
    let reply = greedy.solve("nat(z)", 1).expect("post-exhaustion solve");
    assert_eq!(reply.bindings, ["true"]);
    greedy.close().expect("close greedy");

    // ...and the healthy session never noticed.
    let reply = healthy.solve("p(X)", 10).expect("healthy solve");
    assert_eq!(reply.bindings, ["X = 1", "X = 2", "X = 3"]);
    healthy.close().expect("close healthy");
    server.shutdown();
}

/// Drives one raw line at the server and returns the first response
/// line (after the greeting).
fn raw_roundtrip(addr: std::net::SocketAddr, payload: &[u8]) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut greeting = String::new();
    reader.read_line(&mut greeting).expect("greeting");
    assert!(greeting.contains("hello"), "{greeting}");
    writer.write_all(payload).expect("send");
    writer.write_all(b"\n").expect("send newline");
    let mut response = String::new();
    reader.read_line(&mut response).expect("response");
    response
}

#[test]
fn hostile_wire_input_yields_typed_errors_and_the_server_keeps_serving() {
    let server = spawn_server();
    let addr = server.local_addr();

    // Garbage, half-JSON, nested JSON, wrong types: all code 100.
    for payload in [
        &b"total garbage"[..],
        br#"{"cmd":"sol"#,
        br#"{"cmd":{"nested":1}}"#,
        br#"{"cmd":"solve","goal":["a"]}"#,
        br#"{"cmd":"solve","goal":"p(X)","max":"many"}"#,
        b"\x00\x01\x02",
    ] {
        let response = raw_roundtrip(addr, payload);
        let obj = psi_tools::json::parse_object(response.trim()).expect("typed error line");
        assert_eq!(
            obj.u64_field("code").expect("code"),
            psi_server::CODE_PROTOCOL,
            "{payload:?} -> {response}"
        );
    }

    // Invalid UTF-8 bytes are a protocol error, not a crash.
    let response = raw_roundtrip(addr, &[0xff, 0xfe, 0xfd]);
    assert!(response.contains("UTF-8"), "{response}");

    // Hostile *program* text travels fine over the wire and dies in
    // the hardened parser with a typed syntax error (code 8).
    let deep = format!("p :- {}q{}.", "\\+ (".repeat(20_000), ")".repeat(20_000));
    let mut client = Client::connect(addr).expect("connect");
    match client.consult(&deep) {
        Err(ClientError::Wire(w)) => {
            assert_eq!(w.code, 8, "hostile nesting is a syntax error: {w}");
            assert!(w.message.contains("nesting"), "{w}");
        }
        other => panic!("expected a syntax error, got {other:?}"),
    }
    drop(client);

    // An oversized request line is answered then the connection is
    // dropped — and the listener is unharmed.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut greeting = String::new();
    reader.read_line(&mut greeting).expect("greeting");
    let huge = vec![b'a'; 2 * 1024 * 1024];
    // The server may close mid-send; a write error is acceptable.
    let _ = writer.write_all(&huge);
    let _ = writer.write_all(b"\n");
    let mut response = String::new();
    if reader.read_line(&mut response).is_ok() && !response.is_empty() {
        assert!(response.contains("exceeds"), "{response}");
    }

    // After all of the above, a well-behaved client still gets served.
    let mut client = Client::connect(addr).expect("connect after hostility");
    client.consult("ok(yes).").expect("consult");
    let reply = client.solve("ok(X)", 1).expect("solve");
    assert_eq!(reply.bindings, ["X = yes"]);
    client.close().expect("close");
    server.shutdown();
}

#[test]
fn sessions_compose_limits_reset_and_incremental_consult() {
    let server = spawn_server();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    client.consult("p(1).").expect("first consult");
    client
        .consult("p(2). q(X) :- p(X).")
        .expect("incremental consult");
    let reply = client.solve("q(X)", 10).expect("solve");
    assert_eq!(reply.bindings, ["X = 1", "X = 2"]);
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.u64_field("steps").expect("steps"),
        reply.steps,
        "stats reports the most recent solve"
    );
    client.reset().expect("reset");
    let stats = client.stats().expect("stats after reset");
    assert_eq!(stats.u64_field("steps").expect("steps"), 0);
    // Consulted code survives a reset.
    let reply = client.solve("q(X)", 10).expect("solve after reset");
    assert_eq!(reply.bindings, ["X = 1", "X = 2"]);
    client.close().expect("close");
    server.shutdown();
}

/// The warm pool must not hand a second session the clauses a first
/// session asserted: same source text (so the same shelf), different
/// counts, and each session answers exactly its own oracle.
#[test]
fn a_second_fill_session_sees_only_its_own_clauses() {
    let server = spawn_server();
    for n in [31, 28] {
        let p = psi_workloads::corpus::fill(1, n, false);
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
