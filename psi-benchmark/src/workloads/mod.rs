//! The four workloads and the pieces they share: the closed-loop
//! window, repeated set-up, exact machine counts and the layer
//! metrics derived from spans.

pub mod consult_cold;
pub mod serve;
pub mod sim_fidelity;
pub mod solve_fast;

use crate::openloop::nanos;
use crate::stats::tail_percentile;
use crate::trace::{layer_totals, Tracer};
use psi_machine::Machine;
use psi_obs::Counter;
use psi_tools::quantile::percentile;
use std::time::{Duration, Instant};

/// How one workload process runs.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Set-up runs at least this many times (the median is reported)...
    pub setup_runs: usize,
    /// ...and until this many seconds have gone into it, so the
    /// median spans more than one burst of host noise.
    pub setup_seconds: f64,
}

/// A metric as measured; `None` when it could not be (a tail
/// percentile over too few samples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: Option<f64>,
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations (set-up checks, warm-up and window ops).
    pub attempted: u64,
    /// Operations whose output check failed or that errored.
    pub failed: u64,
    /// Every metric the run measured, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: sample counts, set-up repetitions,
    /// failures.
    pub notes: Vec<String>,
    /// The run's spans (empty when untraced).
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Records a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: impl Into<Option<f64>>) {
        self.metrics.push(Metric {
            name,
            unit,
            value: value.into(),
        });
    }

    /// The value of metric `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.value)
    }

    /// Notes the first ten failure descriptions.
    pub fn note_failures(&mut self, failures: Vec<String>) {
        self.notes.extend(
            failures
                .into_iter()
                .take(10)
                .map(|f| format!("FAILED: {f}")),
        );
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }
}

/// The result of one closed-loop op.
#[derive(Debug, Clone, Copy)]
pub struct OpResult {
    /// All outputs matched their references.
    pub ok: bool,
    /// Simulated microsteps the op executed.
    pub steps: u64,
    /// Time the op spent in shadow calls, which its latency excludes.
    pub shadow_ns: u64,
}

/// A measured closed-loop window.
#[derive(Debug, Default)]
pub struct Window {
    /// Ops completed.
    pub ops: u64,
    /// Ops whose check failed.
    pub failed: u64,
    /// Microsteps executed.
    pub steps: u64,
    /// Per-op latency, ns.
    pub latencies_ns: Vec<u64>,
    /// Per-op microsteps.
    pub op_steps: Vec<u64>,
}

/// The quantile of an input's op times that [`cycle_rates`] charges.
/// Host noise only ever adds time, and on a shared host it comes in
/// bursts of a second or so that slow half the ops of a run or more;
/// the fastest tenth of an input's ops is what its code costs.
pub const COST_QUANTILE: f64 = 0.1;

/// Throughput of a window whose op `i` is input `i % inputs` of a
/// fixed cycle, as (ops per second, million microsteps per second)
/// over one cycle in which each input costs the [`COST_QUANTILE`] of
/// its own op times. Slow ops show in the latency metrics instead.
pub fn cycle_rates(w: &Window, inputs: usize) -> (f64, f64) {
    let mut times: Vec<Vec<u64>> = vec![Vec::new(); inputs];
    let mut steps = vec![0u64; inputs];
    for (i, (&ns, &s)) in w.latencies_ns.iter().zip(&w.op_steps).enumerate() {
        times[i % inputs].push(ns);
        steps[i % inputs] = s;
    }
    let seen = times.iter().filter(|t| !t.is_empty()).count();
    let cycle_s: f64 = times
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| percentile(t, COST_QUANTILE) as f64)
        .sum::<f64>()
        / 1e9;
    if cycle_s == 0.0 {
        return (0.0, 0.0);
    }
    (
        seen as f64 / cycle_s,
        steps.iter().sum::<u64>() as f64 / cycle_s / 1e6,
    )
}

/// Runs `op` back to back on the calling thread until `seconds` have
/// passed; the op in flight at the deadline completes and counts.
pub fn closed_loop(seconds: f64, mut op: impl FnMut(u64) -> OpResult) -> Window {
    let deadline = Duration::from_secs_f64(seconds);
    let mut w = Window::default();
    let start = Instant::now();
    while start.elapsed() < deadline {
        let t0 = Instant::now();
        let r = op(w.ops);
        w.latencies_ns
            .push(nanos(t0.elapsed()).saturating_sub(r.shadow_ns));
        w.op_steps.push(r.steps);
        w.ops += 1;
        w.steps += r.steps;
        w.failed += u64::from(!r.ok);
    }
    w
}

/// Runs the window of a closed-loop workload whose ops cycle through
/// `inputs` inputs, counting every op's check in `out`.
///
/// Untraced, the whole window runs with `Tracer::off()` and the
/// end-to-end metrics are pushed; the result is `None`. Traced, the
/// first third runs untraced as the baseline and the rest records into
/// `tr`; the result is the traced window and the tracing overhead in
/// percent (how much longer one input cycle took traced).
pub fn run_window(
    cfg: &RunConfig,
    out: &mut Outcome,
    tr: &mut Tracer,
    setup_s: f64,
    inputs: usize,
    tail: Tail,
    mut op: impl FnMut(&mut Tracer, u64) -> OpResult,
) -> Option<(Window, f64)> {
    let mut off = Tracer::off();
    let mut tally = |w: Window| {
        out.attempted += w.ops;
        out.failed += w.failed;
        w
    };
    if !cfg.trace {
        let w = tally(closed_loop(cfg.seconds, |i| op(&mut off, i)));
        push_end_to_end(out, setup_s, &w, inputs, tail);
        return None;
    }
    let calib = tally(closed_loop(cfg.seconds / 3.0, |i| op(&mut off, i)));
    let traced = tally(closed_loop(cfg.seconds * 2.0 / 3.0, |i| op(tr, i)));
    let overhead = (cycle_rates(&calib, inputs).0 / cycle_rates(&traced, inputs).0 - 1.0) * 100.0;
    Some((traced, overhead))
}

/// Runs `setup` as often as `cfg` asks and keeps the last state.
/// Returns the median set-up time in seconds with every run's time.
///
/// # Errors
///
/// The first set-up error.
pub fn repeat_setup<S>(
    cfg: &RunConfig,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(f64, Vec<f64>, S), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut state = None;
    while times.len() < cfg.setup_runs.max(1) || times.iter().sum::<f64>() < cfg.setup_seconds {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let median = crate::stats::median(&times);
    Ok((median, times, state.expect("at least one set-up ran")))
}

/// Deterministic per-run machine counters, summed over a fixed set of
/// runs. A change that moves one has changed what the program does.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Microsteps.
    pub steps: u64,
    /// Choice points pushed.
    pub choice_points: u64,
    /// Backtracks.
    pub backtracks: u64,
    /// Calls filtered through the first-argument index.
    pub indexed_calls: u64,
    /// Indexed calls entered without a choice point.
    pub index_direct_entries: u64,
    /// Dispatches served from the predecode cache.
    pub predecode_hits: u64,
    /// Host allocations on the interpreter hot path.
    pub hot_path_allocs: u64,
    /// Simulated cycles (simulated time over the cycle time).
    pub sim_cycles: f64,
    /// Simulated cache accesses.
    pub cache_accesses: u64,
    /// Simulated cache hits.
    pub cache_hits: u64,
    /// Memory-trace entries collected.
    pub trace_entries: u64,
}

impl Counts {
    /// Adds the counters of `m`'s most recent run.
    pub fn add(&mut self, m: &Machine) {
        let s = m.stats();
        let snap = m.metrics_snapshot();
        self.steps += s.steps;
        self.choice_points += s.choice_points;
        self.backtracks += snap.get(Counter::Backtracks);
        self.indexed_calls += s.indexed_calls;
        self.index_direct_entries += s.index_direct_entries;
        self.predecode_hits += snap.get(Counter::PredecodeHits);
        self.hot_path_allocs += m.hot_path_alloc_count();
        self.sim_cycles += s.time_ns as f64 / m.config().cycle_ns as f64;
        self.cache_accesses += s.cache.total().accesses();
        self.cache_hits += s.cache.total().hits();
    }

    fn push(&self, out: &mut Outcome) {
        let c = |v: u64| v as f64;
        out.push("machine.steps", "count", c(self.steps));
        out.push("machine.choice_points", "count", c(self.choice_points));
        out.push("machine.backtracks", "count", c(self.backtracks));
        out.push("machine.indexed_calls", "count", c(self.indexed_calls));
        out.push(
            "machine.index_direct_entries",
            "count",
            c(self.index_direct_entries),
        );
        out.push("machine.predecode_hits", "count", c(self.predecode_hits));
        out.push("machine.hot_path_allocs", "count", c(self.hot_path_allocs));
        out.push("sim.cycles", "count", self.sim_cycles);
        out.push("cache.accesses", "count", c(self.cache_accesses));
        let hit_pct = if self.cache_accesses == 0 {
            0.0
        } else {
            self.cache_hits as f64 * 100.0 / self.cache_accesses as f64
        };
        out.push("cache.hit_pct", "%", hit_pct);
        out.push("trace.entries", "count", c(self.trace_entries));
    }
}

/// Pushes the end-to-end metrics of an untraced window of ops cycling
/// through `inputs` inputs: set-up time, throughput, op latency and
/// peak memory.
pub fn push_end_to_end(out: &mut Outcome, setup_s: f64, w: &Window, inputs: usize, tail: Tail) {
    let (ops_per_s, msteps_per_s) = cycle_rates(w, inputs);
    out.push("setup_s", "s", setup_s);
    out.push("msteps_per_s", "Msteps/s", msteps_per_s);
    out.push("ops_per_s", "1/s", ops_per_s);
    push_latency(out, &w.latencies_ns, tail);
    out.push("peak_rss_mb", "MB", peak_rss_mb());
}

/// The tail percentile a workload reports: the highest of p90 and p99
/// that its window holds ten samples beyond, fixed per workload so it
/// does not shift when a change makes the op faster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// `latency_p90_ms`.
    P90,
    /// `latency_p99_ms`.
    P99,
}

/// Pushes `latency_p50_ms` and the tail, with a note giving the
/// sample count.
pub fn push_latency(out: &mut Outcome, latencies_ns: &[u64], tail: Tail) {
    let ms = |ns: u64| ns as f64 / 1e6;
    out.push("latency_p50_ms", "ms", ms(percentile(latencies_ns, 0.5)));
    let (name, pct) = match tail {
        Tail::P90 => ("latency_p90_ms", 90),
        Tail::P99 => ("latency_p99_ms", 99),
    };
    let value = tail_percentile(latencies_ns, pct);
    out.push(name, "ms", value.map(ms));
    out.notes.push(format!(
        "latency: n = {}{}",
        latencies_ns.len(),
        if value.is_none() {
            format!("; p{pct} refused: fewer than 10 samples beyond it")
        } else {
            String::new()
        }
    ));
}

/// Pushes the per-layer metrics every workload shares, from the
/// tracer's spans. `solve_steps` is the microstep total of the runs
/// inside `machine.solve` spans; `overhead_pct` is the traced
/// headline's loss against the untraced one.
pub fn push_layers(
    out: &mut Outcome,
    tracer: &Tracer,
    counts: &Counts,
    solve_steps: u64,
    overhead_pct: f64,
) {
    let t = layer_totals(tracer.spans());
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let lower = get("kl0.lower").mean_us();
    let compile = get("codegen.compile").mean_us();
    out.push("kl0.parse_us", "us", get("kl0.parse").self_us());
    out.push("kl0.lower_us", "us", lower);
    out.push("codegen.compile_us", "us", compile);
    out.push(
        "machine.install_us",
        "us",
        get("machine.load").self_us() - lower - compile,
    );
    let solve = get("machine.solve");
    out.push("machine.solve_us", "us", solve.self_us());
    out.push("machine.render_us", "us", get("machine.render").self_us());
    out.push(
        "machine.ns_per_step",
        "ns",
        solve.self_ns as f64 / solve_steps.max(1) as f64,
    );
    counts.push(out);
    out.push("trace.overhead_pct", "%", overhead_pct);
    if tracer.dropped() > 0 {
        out.notes.push(format!(
            "trace: {} spans did not fit the buffer",
            tracer.dropped()
        ));
    }
}

/// Mean self time of spans named `name`, µs (0 with none).
pub fn span_us(tracer: &Tracer, name: &str) -> f64 {
    layer_totals(tracer.spans())
        .get(name)
        .map(|t| t.self_us())
        .unwrap_or(0.0)
}

/// `VmHWM` of this process in MB (MiB), from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Renders solutions the way the server streams them.
pub fn render(solutions: &[psi_machine::Solution]) -> Vec<String> {
    solutions.iter().map(ToString::to_string).collect()
}
