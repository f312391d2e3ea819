//! `serve`: the only workload that crosses the wire.
//!
//! An in-process `Server::spawn(ServerOptions::default())` is driven
//! by two client threads, each holding one connection at a time; every
//! request is its own connection (connect → consult → solve → close,
//! the load driver's unit of work). Connection set-up, pool checkout
//! and check-in, session and protocol work and the serving lane's
//! solve all share its latency.
//!
//! The window is an open-loop phase — Poisson arrivals at a fixed
//! rate, dealt round-robin to the two threads, each request timed from
//! when it was due — followed by a closed-loop capacity phase with
//! both connections back to back.
//!
//! The mix alternates Table 1 rows (all but tarai3 and BUP-3, which
//! would back up a two-connection open loop) with 48 seeded read-only
//! corpus programs. `fill` and `churn` are left out: the warm pool
//! keeps clauses a session asserted, so their answers would depend on
//! which machine a request lands on.

use super::{push_latency, push_layers, render, repeat_setup, Counts, Outcome, RunConfig, Tail};
use crate::openloop::{nanos, poisson_schedule, run_open_loop, Timing};
use crate::stats::{tail_percentile, Rng};
use crate::trace::{layer_totals, Tracer, SPAN_CAPACITY};
use kl0::Program;
use psi_machine::Machine;
use psi_server::{
    default_caps, serving_config, Client, ClientError, MachinePool, PoolOptions, Server,
    ServerOptions, Session, SolveReply,
};
use psi_tools::json::{parse_object, ObjectBuilder};
use psi_tools::quantile::percentile;
use psi_workloads::corpus::{generate, CorpusSpec};
use psi_workloads::suite::table1_suite;
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Open-loop arrival rate, requests per second: about a fifth of the
/// two connections' capacity, so queueing stays a small part of
/// latency. A 20-second window holds about 600 open-loop requests,
/// enough for a p90 with ten samples beyond it.
pub const RATE_PER_S: f64 = 40.0;
/// Generator threads, each with one connection at a time.
pub const CLIENTS: usize = 2;
/// Read-only corpus programs in the mix.
pub const CORPUS_PROGRAMS: usize = 48;
/// Share of the window given to the open-loop phase; the rest is the
/// closed-loop capacity phase.
pub const OPEN_SHARE: f64 = 0.75;
/// Table 1 rows left out of the mix: tarai3 and BUP-3.
const LEFT_OUT_ROWS: [usize; 2] = [4, 13];
/// Corpus families that never write the clause database.
const READ_ONLY: [&str; 5] = ["fact_db", "chain", "disjunction", "negation", "arith"];
/// Request lines replayed through a socket-less session when traced.
const SHADOW_REQUESTS: usize = 300;
const TAIL: Tail = Tail::P90;

/// One request kind with its in-process reference answer.
struct Req {
    name: String,
    source: String,
    goal: String,
    max: u64,
    expected: Vec<String>,
    steps: u64,
}

struct State {
    server: Server,
    reqs: Vec<Req>,
    rows: Vec<usize>,
    corpus: Vec<usize>,
}

impl State {
    /// The `i`-th request of the seeded sequence: rows and corpus
    /// programs alternate, each cycling through its own permutation.
    fn nth(&self, i: u64) -> &Req {
        let half = (i / 2) as usize;
        let kind = if i.is_multiple_of(2) {
            self.rows[half % self.rows.len()]
        } else {
            self.corpus[half % self.corpus.len()]
        };
        &self.reqs[kind]
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

fn setup(seed: u64, tr: &mut Tracer, counts: &mut Counts) -> Result<State, String> {
    let mut workloads: Vec<_> = table1_suite()
        .into_iter()
        .filter(|e| !LEFT_OUT_ROWS.contains(&e.index))
        .map(|e| (e.workload, None))
        .collect();
    let n_rows = workloads.len();
    let corpus = generate(&CorpusSpec {
        seed,
        count: CORPUS_PROGRAMS * 2,
        max_facts: super::consult_cold::MAX_FACTS,
        max_depth: super::consult_cold::MAX_DEPTH,
    });
    workloads.extend(
        corpus
            .into_iter()
            .filter(|p| READ_ONLY.contains(&p.family))
            .take(CORPUS_PROGRAMS)
            .map(|p| (p.workload, Some(p.expected))),
    );
    // The in-process serial reference, on the configuration the
    // server runs; its layers are this workload's machine layers.
    *counts = Counts::default();
    let mut reqs = Vec::new();
    for (w, oracle) in workloads {
        let fail = |e: psi_core::PsiError| format!("{}: {e}", w.name);
        let s = tr.begin("kl0.parse", 0, None);
        let program = Program::parse(&w.source).map_err(fail)?;
        tr.end(s);
        super::solve_fast::shadow_lower_compile(tr, &program);
        let s = tr.begin("machine.load", 0, None);
        let loaded = Machine::load(&program, serving_config());
        tr.end(s);
        let mut m = loaded.map_err(fail)?;
        let s = tr.begin("machine.solve", 0, None);
        let solved = m.solve(&w.goal, w.max_solutions);
        tr.end(s);
        let s = tr.begin("machine.render", 0, None);
        let expected = render(&solved.map_err(fail)?);
        tr.end(s);
        if oracle.as_ref().is_some_and(|o| *o != expected) {
            return Err(format!("{}: reference disagrees with the oracle", w.name));
        }
        counts.add(&m);
        reqs.push(Req {
            name: w.name.clone(),
            source: w.source,
            goal: w.goal,
            max: u64::try_from(w.max_solutions).unwrap_or(u64::MAX),
            expected,
            steps: m.stats().steps,
        });
    }
    let distinct: BTreeSet<&str> = reqs.iter().map(|r| r.source.as_str()).collect();
    if distinct.len() > PoolOptions::default().template_cap {
        return Err(format!(
            "{} distinct sources exceed the pool's template cap",
            distinct.len()
        ));
    }
    let server = Server::spawn(ServerOptions::default()).map_err(|e| format!("server: {e}"))?;
    let mut rng = Rng::new(seed);
    let rows = rng.permutation(n_rows);
    let corpus = rng
        .permutation(reqs.len() - n_rows)
        .into_iter()
        .map(|i| i + n_rows)
        .collect();
    let state = State {
        server,
        reqs,
        rows,
        corpus,
    };
    // Warm-up: every distinct request once, over the wire.
    for r in &state.reqs {
        let reply = request(state.addr(), r, &mut Tracer::off(), 0, Instant::now());
        if !matches(r, &reply) {
            return Err(format!("warm-up: {}: {}", r.name, describe(&reply)));
        }
    }
    Ok(state)
}

/// One request on its own connection. Spans: `request` from `due`,
/// with `gen.lag` (due → sent) and the four round trips as children.
fn request(
    addr: SocketAddr,
    r: &Req,
    tr: &mut Tracer,
    op: u64,
    due: Instant,
) -> Result<SolveReply, ClientError> {
    let root = tr.begin_at("request", op, None, due);
    let sent = Instant::now();
    tr.record("gen.lag", op, root, due, sent);
    let reply = (|| {
        let s = tr.begin("server.connect", op, root);
        let client = Client::connect(addr);
        tr.end(s);
        let mut client = client?;
        let s = tr.begin("server.consult", op, root);
        let consulted = client.consult(&r.source);
        tr.end(s);
        consulted?;
        let s = tr.begin("server.solve", op, root);
        let reply = client.solve(&r.goal, r.max);
        tr.end(s);
        let reply = reply?;
        let s = tr.begin("server.close", op, root);
        let closed = client.close();
        tr.end(s);
        closed.map(|()| reply)
    })();
    tr.end(root);
    reply
}

fn matches(r: &Req, reply: &Result<SolveReply, ClientError>) -> bool {
    reply
        .as_ref()
        .is_ok_and(|got| got.bindings == r.expected && got.steps == r.steps)
}

fn describe(reply: &Result<SolveReply, ClientError>) -> String {
    match reply {
        Ok(got) => format!("{} solutions / {} steps", got.bindings.len(), got.steps),
        Err(e) => e.to_string(),
    }
}

/// Per-generator-thread state.
struct Gen {
    tracer: Tracer,
    failures: Vec<String>,
}

/// One open-loop phase of `seconds` starting at sequence index
/// `first`.
fn open_phase(
    state: &State,
    rng: &mut Rng,
    seconds: f64,
    first: u64,
    trace: Option<Instant>,
) -> (Vec<Timing>, Vec<Gen>) {
    let schedule = poisson_schedule(rng, RATE_PER_S, Duration::from_secs_f64(seconds));
    let init = |_| Gen {
        tracer: trace.map_or_else(Tracer::off, |epoch| Tracer::on(epoch, SPAN_CAPACITY)),
        failures: Vec::new(),
    };
    let service = |g: &mut Gen, i: usize, due: Instant| {
        let op = first + i as u64;
        let r = state.nth(op);
        let reply = request(state.addr(), r, &mut g.tracer, op, due);
        let ok = matches(r, &reply);
        if !ok {
            g.failures.push(format!("{}: {}", r.name, describe(&reply)));
        }
        ok
    };
    run_open_loop(&schedule, CLIENTS, Instant::now(), init, service)
}

/// The closed-loop capacity phase: both connections back to back for
/// `seconds`, starting at sequence index `first`. Returns the
/// successful completions as (end since the phase started in ns,
/// microsteps) in completion order, and the failures.
fn capacity_phase(state: &State, seconds: f64, first: u64) -> (Vec<(u64, u64)>, Vec<String>) {
    let next = AtomicU64::new(first);
    let failures = Mutex::new(Vec::new());
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut completions: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while start.elapsed() < deadline {
                        let op = next.fetch_add(1, Ordering::Relaxed);
                        let r = state.nth(op);
                        let reply =
                            request(state.addr(), r, &mut Tracer::off(), op, Instant::now());
                        if matches(r, &reply) {
                            let steps = reply.map_or(0, |got| got.steps);
                            done.push((nanos(start.elapsed()), steps));
                        } else {
                            failures
                                .lock()
                                .expect("no thread panics holding the failure list")
                                .push(format!("{}: {}", r.name, describe(&reply)));
                        }
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("capacity thread panicked"))
            .collect()
    });
    completions.sort_unstable();
    let failures = failures.into_inner().expect("capacity threads joined");
    (completions, failures)
}

fn latencies(timings: &[Timing]) -> Vec<u64> {
    timings.iter().map(|t| t.latency_ns).collect()
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut tr = if cfg.trace {
        Tracer::on(epoch, SPAN_CAPACITY)
    } else {
        Tracer::off()
    };
    let mut counts = Counts::default();
    let (setup_s, setups, state) = match repeat_setup(cfg, || setup(cfg.seed, &mut tr, &mut counts))
    {
        Ok(v) => v,
        Err(e) => {
            out.check(false, || format!("set-up: {e}"));
            return out;
        }
    };
    out.attempted += state.reqs.len() as u64;
    out.notes.push(format!(
        "set-up runs (s): {setups:?}; {} request kinds, {} distinct sources",
        state.reqs.len(),
        state
            .reqs
            .iter()
            .map(|r| r.source.as_str())
            .collect::<BTreeSet<_>>()
            .len()
    ));
    // Arrival times: a stream of their own, apart from the mix order.
    let mut rng = Rng::new(!cfg.seed);
    let open_s = cfg.seconds * OPEN_SHARE;
    let mut failures = Vec::new();
    let mut tally = |out: &mut Outcome, timings: &[Timing], gens: Vec<Gen>| {
        out.attempted += timings.len() as u64;
        out.failed += timings.iter().filter(|t| t.latency_ns == u64::MAX).count() as u64;
        gens.into_iter()
            .map(|g| {
                failures.extend(g.failures);
                g.tracer
            })
            .collect::<Vec<_>>()
    };

    if cfg.trace {
        let (calib, gens) = open_phase(&state, &mut rng, open_s / 3.0, 0, None);
        tally(&mut out, &calib, gens);
        let first = calib.len() as u64;
        let (traced, gens) = open_phase(&state, &mut rng, open_s * 2.0 / 3.0, first, Some(epoch));
        for t in tally(&mut out, &traced, gens) {
            tr.absorb(t);
        }
        let p50 = |t: &[Timing]| percentile(&latencies(t), 0.5) as f64;
        let overhead = (p50(&traced) / p50(&calib) - 1.0) * 100.0;
        let solve_steps = counts.steps * setups.len() as u64;
        push_layers(&mut out, &tr, &counts, solve_steps, overhead);
        let lags: Vec<u64> = calib.iter().chain(&traced).map(|t| t.lag_ns).collect();
        shadow_replay(
            &state,
            &mut tr,
            first,
            traced.len().min(SHADOW_REQUESTS),
            &mut out,
        );
        push_server_layers(&mut out, &tr, &state, &lags);
        out.tracer = Some(tr);
    } else {
        let (timings, gens) = open_phase(&state, &mut rng, open_s, 0, None);
        tally(&mut out, &timings, gens);
        let lags: Vec<u64> = timings.iter().map(|t| t.lag_ns).collect();
        let (completions, cap_failures) =
            capacity_phase(&state, cfg.seconds - open_s, timings.len() as u64);
        out.attempted += (completions.len() + cap_failures.len()) as u64;
        out.failed += cap_failures.len() as u64;
        failures.extend(cap_failures);
        // Both connections stay busy, so throughput is completions over
        // the time the last one took.
        let secs = completions.last().map_or(0.0, |&(end, _)| end as f64 / 1e9);
        let steps: u64 = completions.iter().map(|&(_, s)| s).sum();
        out.push("setup_s", "s", setup_s);
        out.push("msteps_per_s", "Msteps/s", steps as f64 / secs / 1e6);
        out.push("ops_per_s", "1/s", completions.len() as f64 / secs);
        push_latency(&mut out, &latencies(&timings), TAIL);
        out.push("peak_rss_mb", "MB", super::peak_rss_mb());
        out.notes.push(format!(
            "open loop: {} requests at {RATE_PER_S} req/s over {open_s:.1} s, \
             generator lag p50 {:.3} ms / max {:.3} ms; capacity phase: {} requests",
            timings.len(),
            percentile(&lags, 0.5) as f64 / 1e6,
            lags.iter().max().copied().unwrap_or(0) as f64 / 1e6,
            completions.len(),
        ));
    }
    out.note_failures(failures);
    out
}

/// Shadow calls of the traced run: pool checkouts of every class on a
/// private pool, then `requests` of the traced window's request lines
/// replayed through `Session::handle_line` without a socket.
fn shadow_replay(state: &State, tr: &mut Tracer, first: u64, requests: usize, out: &mut Outcome) {
    let pool = Arc::new(MachinePool::new(serving_config(), PoolOptions::default()));
    let sources: BTreeSet<&str> = state.reqs.iter().map(|r| r.source.as_str()).collect();
    let checkout = |tr: &mut Tracer, src: &str| {
        let start = Instant::now();
        let lease = pool.checkout(src);
        let end = Instant::now();
        let lease = lease.expect("every source loaded at set-up");
        let name = match (lease.warm, lease.forked) {
            (true, _) => "pool.checkout_warm",
            (false, true) => "pool.checkout_fork",
            (false, false) => "pool.checkout_cold",
        };
        tr.record_shadow(name, 0, start, end);
        lease
    };
    for src in sources {
        // Cold load; a second lease while the first is out is a
        // template fork; after check-in the next is warm.
        let a = checkout(tr, src);
        let b = checkout(tr, src);
        for lease in [a, b] {
            tr.shadow("pool.checkin", 0, || pool.checkin(lease));
        }
        let c = checkout(tr, src);
        tr.shadow("pool.checkin", 0, || pool.checkin(c));
    }
    for i in 0..requests as u64 {
        let op = first + i;
        let r = state.nth(op);
        let mut session = Session::new(Arc::clone(&pool), default_caps());
        let lines = [
            (
                "session.consult",
                ObjectBuilder::new()
                    .str("cmd", "consult")
                    .str("src", &r.source),
            ),
            (
                "session.solve",
                ObjectBuilder::new()
                    .str("cmd", "solve")
                    .str("goal", &r.goal)
                    .u64("max", r.max),
            ),
            ("session.close", ObjectBuilder::new().str("cmd", "close")),
        ];
        let mut solutions = 0;
        for (name, line) in lines {
            let line = line.finish();
            let mut responses = Vec::new();
            tr.shadow(name, op, || session.handle_line(&line, &mut responses));
            solutions += responses
                .iter()
                .filter_map(|l| parse_object(l).ok())
                .filter(|o| o.str_field("event").ok() == Some("solution"))
                .count();
        }
        session.finish();
        out.check(solutions == r.expected.len(), || {
            format!("session replay of {}: {solutions} solutions", r.name)
        });
    }
}

/// The server-side layers: client round trips, in-server session
/// time, transport (their difference), pool classes and generator lag.
fn push_server_layers(out: &mut Outcome, tr: &Tracer, state: &State, lags: &[u64]) {
    let t = layer_totals(tr.spans());
    let mean = |n: &str| t.get(n).map_or(0.0, |l| l.mean_us());
    for (name, span) in [
        ("server.connect_us", "server.connect"),
        ("server.consult_us", "server.consult"),
        ("server.solve_us", "server.solve"),
        ("server.close_us", "server.close"),
        ("session.consult_us", "session.consult"),
        ("session.solve_us", "session.solve"),
        ("session.close_us", "session.close"),
        ("pool.checkout_warm_us", "pool.checkout_warm"),
        ("pool.checkout_fork_us", "pool.checkout_fork"),
        ("pool.checkout_cold_us", "pool.checkout_cold"),
        ("pool.checkin_us", "pool.checkin"),
    ] {
        out.push(name, "us", mean(span));
    }
    let round_trips = mean("server.consult") + mean("server.solve") + mean("server.close");
    let in_server = mean("session.consult") + mean("session.solve") + mean("session.close");
    out.push("server.transport_us", "us", round_trips - in_server);
    let pool = state.server.pool();
    out.push("pool.templates", "count", pool.template_count() as f64);
    out.push("pool.idle", "count", pool.idle_count() as f64);
    out.push(
        "gen.lag_p90_ms",
        "ms",
        tail_percentile(lags, 90).map(|ns| ns as f64 / 1e6),
    );
    let total = |n: &str| t.get(n).map_or(0, |l| l.total_ns) as f64;
    let stages: f64 = [
        "server.connect",
        "server.consult",
        "server.solve",
        "server.close",
    ]
    .iter()
    .map(|n| total(n))
    .sum();
    out.push(
        "server.stage_share_pct",
        "%",
        stages * 100.0 / total("request").max(1.0),
    );
}
