//! `sim-fidelity`: the paper-reproduction path.
//!
//! Closed loop, one thread, on the fidelity lane with memory tracing.
//! One op is one pass over the hardware-evaluation programs except
//! BUP-3 (window-1, window-2, window-3, 8 puzzle, harmonizer-2,
//! LCP-3). Each program is loaded fresh, run, its memory trace taken
//! and replayed by PMMS through the eleven Figure 1 cache capacities
//! on one thread. The live cache model and the replay do the work;
//! the fast lane does none. BUP-3 is left out because it alone would
//! fill most of the window, and `solve-fast` already runs it.

use super::{
    push_layers, render, repeat_setup, run_window, span_us, Counts, OpResult, Outcome, RunConfig,
    Tail,
};
use crate::stats::Rng;
use crate::trace::{Tracer, SPAN_CAPACITY};
use kl0::Program;
use psi_cache::CacheConfig;
use psi_machine::{Machine, MachineConfig, Solution};
use psi_tools::pmms::{figure1_capacities, geometry_sweep};
use psi_workloads::{suite::hardware_suite, Workload};
use std::time::Instant;

/// Passes take tens of milliseconds: a p90 has ten samples beyond it
/// in any window of a few seconds, a p99 does not.
const TAIL: Tail = Tail::P90;

struct Prog {
    workload: Workload,
    program: Program,
    expected: Vec<String>,
    steps: u64,
    time_ns: u64,
    ratios: Vec<f64>,
}

struct State {
    progs: Vec<Prog>,
    order: Vec<usize>,
    geometries: Vec<CacheConfig>,
}

fn lane() -> MachineConfig {
    let mut config = MachineConfig::psi();
    config.trace_memory = true;
    config
}

fn solve(m: &mut Machine, w: &Workload) -> psi_core::Result<Vec<Solution>> {
    if w.background.is_empty() {
        m.solve(&w.goal, w.max_solutions)
    } else {
        let bg: Vec<&str> = w.background.iter().map(String::as_str).collect();
        m.run_session(&w.goal, &bg)
    }
}

/// Runs every program once on the fidelity lane (the reference every
/// op must reproduce bit for bit) and once on the compiled lane,
/// whose solutions and steps must agree.
fn setup(seed: u64, tr: &mut Tracer) -> Result<State, String> {
    let geometries: Vec<CacheConfig> = figure1_capacities()
        .into_iter()
        .map(CacheConfig::psi_with_capacity)
        .collect();
    let mut progs = Vec::new();
    for workload in hardware_suite().into_iter().filter(|w| w.name != "BUP-3") {
        let fail = |e: psi_core::PsiError| format!("{}: {e}", workload.name);
        let s = tr.begin("kl0.parse", 0, None);
        let program = Program::parse(&workload.source).map_err(fail)?;
        tr.end(s);
        super::solve_fast::shadow_lower_compile(tr, &program);
        let mut m = Machine::load(&program, lane()).map_err(fail)?;
        let expected = render(&solve(&mut m, &workload).map_err(fail)?);
        let stats = m.stats();
        let trace = m.take_trace();
        let ratios = geometry_sweep(&trace, &geometries, m.config().cycle_ns, stats.steps, 1);
        let mut fast = Machine::load(&program, MachineConfig::psi_compiled()).map_err(fail)?;
        let fast_solutions = render(&solve(&mut fast, &workload).map_err(fail)?);
        if fast_solutions != expected || fast.stats().steps != stats.steps {
            return Err(format!(
                "{}: the compiled lane ran {} steps, the fidelity lane {}",
                workload.name,
                fast.stats().steps,
                stats.steps
            ));
        }
        progs.push(Prog {
            workload,
            program,
            expected,
            steps: stats.steps,
            time_ns: stats.time_ns,
            ratios,
        });
    }
    let order = Rng::new(seed).permutation(progs.len());
    Ok(State {
        progs,
        order,
        geometries,
    })
}

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
        let p = &state.progs[i];
        let name = &p.workload.name;
        let s = tr.begin("machine.load", op, root);
        let loaded = Machine::load(&p.program, lane());
        tr.end(s);
        let mut m = match loaded {
            Ok(m) => m,
            Err(e) => {
                failures.push(format!("{name}: load: {e}"));
                ok = false;
                continue;
            }
        };
        let s = tr.begin("machine.solve", op, root);
        let solved = solve(&mut m, &p.workload);
        tr.end(s);
        let s = tr.begin("machine.render", op, root);
        let rendered = solved.as_deref().map(render);
        tr.end(s);
        let stats = m.stats();
        let s = tr.begin("trace.take", op, root);
        let trace = m.take_trace();
        tr.end(s);
        let s = tr.begin("pmms.replay", op, root);
        let ratios = geometry_sweep(
            &trace,
            &state.geometries,
            m.config().cycle_ns,
            stats.steps,
            1,
        );
        tr.end(s);
        let s = tr.begin("check", op, root);
        let bit_identical = ratios.len() == p.ratios.len()
            && ratios
                .iter()
                .zip(&p.ratios)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        let prog_ok = rendered.as_ref().is_ok_and(|r| *r == p.expected)
            && stats.steps == p.steps
            && stats.time_ns == p.time_ns
            && bit_identical;
        tr.end(s);
        if !prog_ok {
            failures.push(format!(
                "{name}: {} steps / {} ns / ratios {}, expected {} / {}",
                stats.steps,
                stats.time_ns,
                if bit_identical { "identical" } else { "differ" },
                p.steps,
                p.time_ns
            ));
        }
        ok &= prog_ok;
        steps += stats.steps;
        if let Some(c) = counts.as_deref_mut() {
            c.add(&m);
            c.trace_entries += trace.len() as u64;
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
    let mut tr = if cfg.trace {
        Tracer::on(Instant::now(), SPAN_CAPACITY)
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
        push_layers(&mut out, &tr, &counts, window.steps, overhead);
        let replay_us = span_us(&tr, "pmms.replay");
        out.push("trace.take_us", "us", span_us(&tr, "trace.take"));
        out.push("pmms.replay_us", "us", replay_us);
        // Replay time per (trace entry × geometry): a replay span
        // covers one program's trace.
        let accesses_per_replay =
            counts.trace_entries as f64 * state.geometries.len() as f64 / state.progs.len() as f64;
        out.push(
            "pmms.ns_per_access",
            "ns",
            replay_us * 1e3 / accesses_per_replay.max(1.0),
        );
        out.tracer = Some(tr);
    }
    out.note_failures(failures);
    out
}
