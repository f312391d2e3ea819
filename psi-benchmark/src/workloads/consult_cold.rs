//! `consult-cold`: the front end and code generation.
//!
//! Closed loop, one thread, on the serving configuration — what a
//! tenant's new program meets. One op takes the next seeded corpus
//! program (all seven families) onto a fresh machine: parse, load,
//! solve, render, compare with the host oracle. The caps keep solving
//! short, so parsing, lowering, compiling and installing dominate the
//! op, while `churn` and `fill` still write the clause database at run
//! time next to the bulk compile done at consult time.

use super::{
    push_layers, render, repeat_setup, run_window, Counts, OpResult, Outcome, RunConfig, Tail,
};
use crate::openloop::nanos;
use crate::trace::{layer_totals, Tracer, SPAN_CAPACITY};
use kl0::Program;
use psi_machine::Machine;
use psi_server::serving_config;
use psi_workloads::corpus::{generate, CorpusProgram, CorpusSpec};
use std::time::Instant;

/// Programs generated per seed. Set-up runs and checks each once (the
/// exact counts cover all of them); the window then cycles through
/// them.
pub const CORPUS_PROGRAMS: usize = 4096;
/// Cap on fact-database size and on the `fill` and `negation` counts.
/// `fill`'s run-time asserts grow with it faster than consulting the
/// facts does, so a larger cap shifts the op towards solving.
pub const MAX_FACTS: usize = 100;
/// Cap on recursion and churn depth.
pub const MAX_DEPTH: usize = 10;
/// Thousands of programs per window: a p99 has ten samples beyond it.
const TAIL: Tail = Tail::P99;

fn op(
    corpus: &[CorpusProgram],
    tr: &mut Tracer,
    index: u64,
    counts: Option<&mut Counts>,
    failures: &mut Vec<String>,
) -> OpResult {
    let p = &corpus[index as usize % corpus.len()];
    let w = &p.workload;
    let root = tr.begin("op", index, None);
    let s = tr.begin("kl0.parse", index, root);
    let parsed = Program::parse(&w.source);
    tr.end(s);
    let result = parsed.as_ref().map_err(Clone::clone).and_then(|program| {
        let s = tr.begin("machine.load", index, root);
        let loaded = Machine::load(program, serving_config());
        tr.end(s);
        let mut m = loaded?;
        let s = tr.begin("machine.solve", index, root);
        let solved = m.solve(&w.goal, w.max_solutions);
        tr.end(s);
        let s = tr.begin("machine.render", index, root);
        let rendered = solved.map(|s| render(&s));
        tr.end(s);
        if let Some(c) = counts {
            c.add(&m);
        }
        Ok((rendered?, m.stats().steps))
    });
    let s = tr.begin("check", index, root);
    let ok = result.as_ref().is_ok_and(|(r, _)| *r == p.expected);
    tr.end(s);
    tr.end(root);
    if !ok {
        failures.push(format!(
            "{}: got {:?}, expected {} solutions",
            w.name,
            result.as_ref().map(|(r, _)| r.len()),
            p.expected.len()
        ));
    }
    let steps = result.map_or(0, |(_, steps)| steps);
    // Split `Machine::load` with shadow calls, outside the op span.
    let shadow_start = Instant::now();
    if let Ok(program) = &parsed {
        super::solve_fast::shadow_lower_compile(tr, program);
    }
    OpResult {
        ok,
        steps,
        shadow_ns: if tr.enabled() {
            nanos(shadow_start.elapsed())
        } else {
            0
        },
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = if cfg.trace {
        Tracer::on(Instant::now(), SPAN_CAPACITY)
    } else {
        Tracer::off()
    };
    let mut failures = Vec::new();
    let setup = || {
        let corpus = generate(&CorpusSpec {
            seed: cfg.seed,
            count: CORPUS_PROGRAMS,
            max_facts: MAX_FACTS,
            max_depth: MAX_DEPTH,
        });
        let mut warm = Counts::default();
        let mut bad = Vec::new();
        for i in 0..corpus.len() as u64 {
            op(&corpus, &mut Tracer::off(), i, Some(&mut warm), &mut bad);
        }
        match bad.first() {
            Some(f) => Err(format!("warm-up: {f}")),
            None => Ok((corpus, warm)),
        }
    };
    let (setup_s, setups, (corpus, counts)) = match repeat_setup(cfg, setup) {
        Ok(v) => v,
        Err(e) => {
            out.check(false, || format!("set-up: {e}"));
            return out;
        }
    };
    out.attempted += corpus.len() as u64;
    out.notes.push(format!("set-up runs (s): {setups:?}"));

    let traced = run_window(
        cfg,
        &mut out,
        &mut tr,
        setup_s,
        corpus.len(),
        TAIL,
        |tr, i| op(&corpus, tr, i, None, &mut failures),
    );
    if let Some((window, overhead)) = traced {
        push_layers(&mut out, &tr, &counts, window.steps, overhead);
        push_front_end_share(&mut out, &tr);
        out.tracer = Some(tr);
    }
    out.note_failures(failures);
    out
}

/// Share of op self time spent parsing, lowering, compiling and
/// installing (all of `kl0.parse` and `machine.load`).
fn push_front_end_share(out: &mut Outcome, tr: &Tracer) {
    let t = layer_totals(tr.spans());
    let self_ns = |n: &str| t.get(n).map_or(0, |l| l.self_ns) as f64;
    let op_ns = [
        "op",
        "kl0.parse",
        "machine.load",
        "machine.solve",
        "machine.render",
        "check",
    ]
    .iter()
    .map(|n| self_ns(n))
    .sum::<f64>();
    let front = self_ns("kl0.parse") + self_ns("machine.load");
    out.push("consult.front_end_pct", "%", front * 100.0 / op_ns.max(1.0));
}
