//! The metric catalogue: every name the benchmark prints in its
//! result line, with its unit. `BENCHMARK.json` at the repository
//! root lists the same names (a test holds the two together).

/// A metric name and its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// The four workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = ["solve-fast", "sim-fidelity", "consult-cold", "serve"];

/// End-to-end metrics with a regression bound: measured with tracing
/// off, printed by every workload. Each workload also prints, without
/// a bound, `latency_p50_ms`, its latency tail (`latency_p90_ms` or
/// `latency_p99_ms`) and `peak_rss_mb`: on a shared two-core host they
/// spread too widely between runs of one commit to gate a change.
pub const END_TO_END: [MetricSpec; 3] = [
    m("setup_s", "s"),
    m("msteps_per_s", "Msteps/s"),
    m("ops_per_s", "1/s"),
];

/// Per-layer metrics every workload's traced run prints. Layers only
/// one workload has (server, pool, PMMS replay) are printed in that
/// workload's report and trace file; see the README.
pub const PER_LAYER: [MetricSpec; 19] = [
    m("kl0.parse_us", "us"),
    m("kl0.lower_us", "us"),
    m("codegen.compile_us", "us"),
    m("machine.install_us", "us"),
    m("machine.solve_us", "us"),
    m("machine.render_us", "us"),
    m("machine.ns_per_step", "ns"),
    m("machine.steps", "count"),
    m("machine.choice_points", "count"),
    m("machine.backtracks", "count"),
    m("machine.indexed_calls", "count"),
    m("machine.index_direct_entries", "count"),
    m("machine.predecode_hits", "count"),
    m("machine.hot_path_allocs", "count"),
    m("sim.cycles", "count"),
    m("cache.accesses", "count"),
    m("cache.hit_pct", "%"),
    m("trace.entries", "count"),
    m("trace.overhead_pct", "%"),
];
