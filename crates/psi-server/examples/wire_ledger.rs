//! Where a request's host time goes: Table 1 rows in process against
//! the same rows over the wire.
//!
//! In process, each repetition forks a template consulted once on
//! [`serving_config()`], solves and renders. Over the wire, each
//! repetition is one request on its own connection to an in-process
//! [`Server`] on `127.0.0.1`: connect (TCP set-up plus the `hello`
//! line), consult, solve, close. Every wire reply is checked against
//! the in-process answer and step count. One unmeasured repetition per
//! row warms the pool first, so the measured consults are warm
//! checkouts; after it the in-process and wire repetitions alternate.
//!
//! Prints one markdown row per program with the median of each stage
//! in microseconds.
//!
//! ```sh
//! cargo run --release -p psi-server --example wire_ledger            # rows 1,4,13; 21 reps
//! cargo run --release -p psi-server --example wire_ledger -- 1,2 51  # rows 1 and 2; 51 reps
//! ```

use psi_machine::Machine;
use psi_server::{serving_config, Client, Server, ServerOptions};
use psi_workloads::suite::table1_suite;
use std::time::Instant;

/// Median of `samples` in microseconds.
fn median_us(samples: &mut [u128]) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2] as f64 / 1e3
}

/// Nanoseconds `f` takes, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (u128, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_nanos(), out)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let rows: Vec<usize> = args
        .next()
        .unwrap_or_else(|| "1,4,13".to_owned())
        .split(',')
        .map(|r| r.trim().parse().expect("rows are Table 1 numbers"))
        .collect();
    let reps: usize = args
        .next()
        .map_or(21, |r| r.parse().expect("reps is a count"));
    assert!(reps > 0, "reps must be at least 1");
    let suite = table1_suite();
    let server = Server::spawn(ServerOptions::default()).expect("bind 127.0.0.1:0");
    let addr = server.local_addr();

    println!(
        "| program | steps | fork | solve | render | in process | connect | consult | solve | close | over the wire | wire / in process |"
    );
    println!("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
    for row in rows {
        let w = &row
            .checked_sub(1)
            .and_then(|i| suite.get(i))
            .unwrap_or_else(|| panic!("row {row} is not in Table 1 (1..={})", suite.len()))
            .workload;
        let program = kl0::Program::parse(&w.source).expect("row parses");
        let template = Machine::load(&program, serving_config()).expect("row loads");
        let max = u64::try_from(w.max_solutions).unwrap_or(u64::MAX);

        let mut local = [(); 3].map(|()| Vec::with_capacity(reps));
        let mut wire = [(); 4].map(|()| Vec::with_capacity(reps));
        let mut steps = 0;
        // Repetition 0 warms the pool and is not measured; after it the
        // two sides alternate, so host noise falls on both alike.
        for rep in 0..=reps {
            let (fork_ns, forked) = timed(|| template.fork());
            let mut m = forked.expect("template forks");
            let (solve_ns, solved) = timed(|| m.solve(&w.goal, w.max_solutions));
            let solutions = solved.expect("row solves");
            let (render_ns, rendered) = timed(|| {
                solutions
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
            });
            steps = m.stats().steps;

            let (connect_ns, client) = timed(|| Client::connect(addr));
            let mut client = client.expect("connect");
            let (consult_ns, consulted) = timed(|| client.consult(&w.source));
            consulted.expect("consult");
            let (solve_wire_ns, reply) = timed(|| client.solve(&w.goal, max));
            let reply = reply.expect("solve");
            let (close_ns, closed) = timed(|| client.close());
            closed.expect("close");
            assert_eq!(
                (&reply.bindings, reply.steps),
                (&rendered, steps),
                "{}: the wire disagrees with the in-process run",
                w.name
            );
            if rep > 0 {
                for (stage, ns) in local.iter_mut().zip([fork_ns, solve_ns, render_ns]) {
                    stage.push(ns);
                }
                for (stage, ns) in
                    wire.iter_mut()
                        .zip([connect_ns, consult_ns, solve_wire_ns, close_ns])
                {
                    stage.push(ns);
                }
            }
        }

        let local: Vec<f64> = local.iter_mut().map(|s| median_us(s)).collect();
        let wire: Vec<f64> = wire.iter_mut().map(|s| median_us(s)).collect();
        let (in_process, over_wire) = (local.iter().sum::<f64>(), wire.iter().sum::<f64>());
        println!(
            "| {} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.2}x |",
            w.name,
            steps,
            local[0],
            local[1],
            local[2],
            in_process,
            wire[0],
            wire[1],
            wire[2],
            wire[3],
            over_wire,
            over_wire / in_process
        );
    }
    server.shutdown();
}
