//! `solve-fast`: the dispatch loop, alone.
//!
//! Closed loop, one thread, on the compiled lane with clause indexing.
//! One op is one pass over Table 1 rows 4, 5, 6, 8, 12 and 13 (tarai3,
//! fib10, lisp-nreverse, 8 queens all, BUP-2, BUP-3): each row forks a
//! template consulted at set-up, solves and renders. The front end,
//! the cache model and the server do no work here, so a dispatch
//! change shows on this workload and barely moves `consult-cold`.

use super::{
    push_layers, render, repeat_setup, run_window, span_us, Counts, OpResult, Outcome, RunConfig,
    Tail,
};
use crate::stats::Rng;
use crate::trace::{Tracer, SPAN_CAPACITY};
use kl0::{LoweredProgram, Program};
use psi_machine::{CodeImage, Machine, MachineConfig};
use psi_workloads::suite::table1_suite;
use std::time::Instant;

/// Table 1 row numbers in one pass.
const ROWS: [usize; 6] = [4, 5, 6, 8, 12, 13];

/// Ops are passes of ~60 ms or more, so a window holds a few hundred:
/// enough for a p90 with ten samples beyond it, not for a p99.
const TAIL: Tail = Tail::P90;

struct Row {
    name: String,
    goal: String,
    max: usize,
    template: Machine,
    expected: Vec<String>,
    steps: u64,
}

struct State {
    rows: Vec<Row>,
    order: Vec<usize>,
}

fn lane() -> MachineConfig {
    let mut config = MachineConfig::psi_compiled();
    config.clause_indexing = true;
    config
}

/// Consults every row's template, computes the fidelity-lane indexed
/// reference, and fixes the seeded row order of a pass.
fn setup(seed: u64, tr: &mut Tracer) -> Result<State, String> {
    let suite = table1_suite();
    let mut rows = Vec::new();
    for &index in &ROWS {
        let w = &suite[index - 1].workload;
        let fail = |e: psi_core::PsiError| format!("{}: {e}", w.name);
        let s = tr.begin("kl0.parse", 0, None);
        let program = Program::parse(&w.source).map_err(fail)?;
        tr.end(s);
        shadow_lower_compile(tr, &program);
        let s = tr.begin("machine.load", 0, None);
        let template = Machine::load(&program, lane()).map_err(fail)?;
        tr.end(s);
        let mut reference = Machine::load(&program, MachineConfig::psi_indexed()).map_err(fail)?;
        let solutions = reference.solve(&w.goal, w.max_solutions).map_err(fail)?;
        rows.push(Row {
            name: w.name.clone(),
            goal: w.goal.clone(),
            max: w.max_solutions,
            template,
            expected: render(&solutions),
            steps: reference.stats().steps,
        });
    }
    let order = Rng::new(seed).permutation(rows.len());
    Ok(State { rows, order })
}

/// Times `Machine::load`'s lowering and compilation as separate
/// shadow calls on the same program.
pub(crate) fn shadow_lower_compile(tr: &mut Tracer, program: &Program) {
    let lowered = tr.shadow("kl0.lower", 0, || LoweredProgram::lower(program));
    if let Some(Ok(lowered)) = lowered {
        tr.shadow("codegen.compile", 0, || CodeImage::compile(&lowered));
    }
}

/// One pass. `counts`, when given, receives every row's counters.
fn pass(
    state: &State,
    tr: &mut Tracer,
    op: u64,
    mut counts: Option<&mut Counts>,
    failures: &mut Vec<String>,
) -> OpResult {
    let root = tr.begin("op", op, None);
    let mut ok = true;
    let mut steps = 0;
    for &i in &state.order {
        let row = &state.rows[i];
        let s = tr.begin("machine.fork", op, root);
        let forked = row.template.fork();
        tr.end(s);
        let mut m = match forked {
            Ok(m) => m,
            Err(e) => {
                failures.push(format!("{}: fork: {e}", row.name));
                ok = false;
                continue;
            }
        };
        let s = tr.begin("machine.solve", op, root);
        let solved = m.solve(&row.goal, row.max);
        tr.end(s);
        let s = tr.begin("machine.render", op, root);
        let rendered = solved.as_deref().map(render);
        tr.end(s);
        let s = tr.begin("check", op, root);
        let run_steps = m.stats().steps;
        let row_ok = rendered.as_ref().is_ok_and(|r| *r == row.expected)
            && run_steps == row.steps
            && m.hot_path_alloc_count() == 0;
        tr.end(s);
        if !row_ok {
            failures.push(format!(
                "{}: {} solutions / {run_steps} steps / {} hot-path allocs, expected {} / {}",
                row.name,
                rendered.map_or(0, |r| r.len()),
                m.hot_path_alloc_count(),
                row.expected.len(),
                row.steps
            ));
        }
        ok &= row_ok;
        steps += run_steps;
        if let Some(c) = counts.as_deref_mut() {
            c.add(&m);
        }
    }
    tr.end(root);
    OpResult {
        ok,
        steps,
        shadow_ns: 0,
    }
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
    let (setup_s, setups, state) = match repeat_setup(cfg, || setup(cfg.seed, &mut tr)) {
        Ok(v) => v,
        Err(e) => {
            out.check(false, || format!("set-up: {e}"));
            return out;
        }
    };
    out.notes.push(format!("set-up runs (s): {setups:?}"));
    let mut failures = Vec::new();
    // Warm-up pass: checked, untimed, and the source of the exact counts.
    let mut counts = Counts::default();
    let warm = pass(
        &state,
        &mut Tracer::off(),
        0,
        Some(&mut counts),
        &mut failures,
    );
    out.check(warm.ok, || "warm-up pass".into());

    let traced = run_window(cfg, &mut out, &mut tr, setup_s, 1, TAIL, |tr, op| {
        pass(&state, tr, op, None, &mut failures)
    });
    if let Some((window, overhead)) = traced {
        // Every traced solve is a window solve: set-up ran the
        // reference lane untraced.
        push_layers(&mut out, &tr, &counts, window.steps, overhead);
        out.push("machine.fork_us", "us", span_us(&tr, "machine.fork"));
        out.tracer = Some(tr);
    }
    out.note_failures(failures);
    out
}
