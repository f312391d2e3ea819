//! The design-space sweep engine: the paper's Figure 1 at grid scale.
//!
//! The ICOT authors explored eleven cache capacities on one workload
//! because every cell cost them a full simulation run. This module
//! generalizes `pmms::geometry_sweep` into a declarative
//! batch experiment engine: a grid over **cache geometry** (capacity
//! × ways × block × write policy × write-stack handling) × **machine
//! configuration** (clause indexing, execution lane, governor budget)
//! × **workload**, executed in parallel with work stealing over
//! cells, sharded across hosts, and resumable.
//!
//! Three properties make a 500+-cell grid cheap:
//!
//! * **Fork templating** ([`SweepMode::Fork`]) — all cells on the
//!   same (workload, machine-config) *plane* are served by
//!   [`Machine::fork_with_cache`] from one consulted template, so the
//!   program is parsed and compiled once per plane instead of once
//!   per cell.
//! * **Trace replay** ([`SweepMode::Replay`]) — fidelity-lane planes
//!   capture one memory trace and replay it through every geometry
//!   (the trace is a pure function of execution, not of cache
//!   geometry), reusing the PMMS machinery; proven bit-identical to
//!   the live forked path.
//! * **Resume and sharding** — with a cell directory configured,
//!   every completed cell persists as one flat-JSON file under a
//!   content-addressed key derived from the full cell spec; a
//!   restarted sweep skips present cells byte-identically, and
//!   `--shard i/n` splits a grid across hosts with no overlap.
//!
//! Fault isolation rides the same substrate as the suite runner: each
//! cell is contained per item ([`par_map_catch`]), so one exhausted,
//! failing or panicking cell degrades exactly one cell of the report.
//!
//! The shared keyed diff ([`crate::drift::diff_reports`] under
//! [`SWEEP_DIFF`]) closes the loop drift-style: two sweep reports are
//! compared per cell and per deterministic field, and the
//! `sweepbench diff` subcommand exits nonzero on unexplained drift.

use crate::drift::DiffSpec;
use psi_cache::{CacheConfig, WritePolicy};
use psi_core::{Measurement, PsiError, Resource};
use psi_machine::{Machine, MachineConfig};
use psi_mem::TraceEntry;
use psi_tools::json::{parse_object, JsonObject, ObjectBuilder, ReportBuilder};
use psi_tools::pmms;
use psi_workloads::runner::{default_parallelism, par_map_catch};
use psi_workloads::Workload;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

// ------------------------------------------------------------------
// grid specification
// ------------------------------------------------------------------

/// Execution lane of a machine-configuration axis point (the two
/// verified-equivalent lanes of ARCHITECTURE.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Lane A: full measurement — the only lane that drives the cache
    /// model, so only fidelity planes spread over the geometry axis.
    Fidelity,
    /// Lane C, the fast lane: measurement off, fused superinstruction
    /// dispatch.
    Compiled,
}

impl Lane {
    /// Single-letter lane code used in reports and cell keys.
    pub fn code(&self) -> &'static str {
        match self {
            Lane::Fidelity => "A",
            Lane::Compiled => "C",
        }
    }
}

/// One point on the machine-configuration axis.
#[derive(Debug, Clone)]
pub struct ConfigPoint {
    /// Display name, e.g. `"A-linear"`; part of the cell key.
    pub name: String,
    /// Execution lane.
    pub lane: Lane,
    /// First-argument clause indexing on?
    pub clause_indexing: bool,
    /// Optional governor step budget (None = unlimited, the paper's
    /// configuration).
    pub max_steps: Option<u64>,
}

impl ConfigPoint {
    /// A named fidelity-lane point.
    pub fn fidelity(name: &str, clause_indexing: bool) -> ConfigPoint {
        ConfigPoint {
            name: name.to_owned(),
            lane: Lane::Fidelity,
            clause_indexing,
            max_steps: None,
        }
    }

    /// The [`MachineConfig`] this point denotes, attached to `geometry`.
    pub fn machine_config(&self, geometry: CacheConfig) -> MachineConfig {
        let mut c = MachineConfig::psi();
        c.cache = Some(geometry);
        c.clause_indexing = self.clause_indexing;
        if self.lane == Lane::Compiled {
            c.measurement = Measurement::Off;
        }
        if let Some(steps) = self.max_steps {
            c.limits.max_steps = Some(steps);
        }
        c
    }

    fn canon(&self) -> String {
        format!(
            "cfg={}:{}:{}:{}",
            self.name,
            self.lane.code(),
            u8::from(self.clause_indexing),
            self.max_steps.map_or_else(|| "-".into(), |s| s.to_string()),
        )
    }
}

/// The cache-geometry axis as a cross product. [`GeometryAxis::expand`]
/// filters combinations the cache model cannot represent (set count
/// not a power of two, capacity below one block per way) and counts
/// them, so a grid never silently shrinks.
#[derive(Debug, Clone)]
pub struct GeometryAxis {
    /// Total capacities in words.
    pub capacities: Vec<u32>,
    /// Associativities.
    pub ways: Vec<u32>,
    /// Block sizes in words.
    pub block_words: Vec<u32>,
    /// Write policies.
    pub policies: Vec<WritePolicy>,
    /// Write-stack no-fetch variants (spec (g) on/off).
    pub write_stack_no_fetch: Vec<bool>,
}

impl GeometryAxis {
    /// Only the PSI cache as shipped — a single-geometry axis.
    pub fn psi_only() -> GeometryAxis {
        GeometryAxis {
            capacities: vec![8192],
            ways: vec![2],
            block_words: vec![4],
            policies: vec![WritePolicy::StoreIn],
            write_stack_no_fetch: vec![true],
        }
    }

    /// Expands the cross product into concrete configurations (in
    /// capacity-major order), returning the valid ones plus the count
    /// of filtered-out invalid combinations.
    pub fn expand(&self) -> (Vec<CacheConfig>, usize) {
        let mut configs = Vec::new();
        let mut invalid = 0;
        for &capacity_words in &self.capacities {
            for &ways in &self.ways {
                for &block_words in &self.block_words {
                    for &policy in &self.policies {
                        for &write_stack_no_fetch in &self.write_stack_no_fetch {
                            let c = CacheConfig {
                                capacity_words,
                                block_words,
                                ways,
                                policy,
                                write_stack_no_fetch,
                                ..CacheConfig::psi()
                            };
                            if geometry_is_valid(&c) {
                                configs.push(c);
                            } else {
                                invalid += 1;
                            }
                        }
                    }
                }
            }
        }
        (configs, invalid)
    }
}

/// The non-panicking mirror of `CacheConfig::assert_valid`, so a grid
/// spec can carry invalid cross-product corners without aborting the
/// sweep (they are filtered and counted instead).
pub fn geometry_is_valid(c: &CacheConfig) -> bool {
    c.block_words.is_power_of_two()
        && c.ways > 0
        && c.capacity_words >= c.block_words * c.ways
        && c.capacity_words.is_multiple_of(c.block_words * c.ways)
        && c.sets().is_power_of_two()
}

/// A declarative experiment grid: workloads × machine configurations
/// × cache geometries. Fast-lane (C) configuration points never
/// drive the cache model, so their cells collapse onto the single
/// stock PSI geometry instead of spreading over the geometry axis;
/// the collapsed cell count is reported, never silently dropped.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Grid name (report header, default cell-directory name).
    pub name: String,
    /// Workload axis.
    pub workloads: Vec<Workload>,
    /// Machine-configuration axis.
    pub configs: Vec<ConfigPoint>,
    /// Geometry axis, already expanded to concrete configurations
    /// (see [`GeometryAxis::expand`]).
    pub geometries: Vec<CacheConfig>,
}

// ------------------------------------------------------------------
// cells and keys
// ------------------------------------------------------------------

fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn policy_label(p: WritePolicy) -> &'static str {
    match p {
        WritePolicy::StoreIn => "in",
        WritePolicy::StoreThrough => "through",
    }
}

fn geometry_canon(g: &CacheConfig) -> String {
    format!(
        "geom=c{}w{}b{}p{}s{}",
        g.capacity_words,
        g.ways,
        g.block_words,
        policy_label(g.policy),
        u8::from(g.write_stack_no_fetch),
    )
}

/// The content-addressed key of one cell: 16 hex digits of FNV-1a
/// over the canonical cell spec (workload name + source fingerprint +
/// goal + solution cap + background goals, configuration point,
/// geometry). Identical specs key identically across runs and hosts;
/// any change to any axis field moves the key.
pub fn cell_key(w: &Workload, config: &ConfigPoint, geometry: &CacheConfig) -> String {
    let canon = format!(
        "w={}|src={:016x}|goal={}|max={}|bg={}|{}|{}",
        w.name,
        fnv1a64(&w.source),
        w.goal,
        w.max_solutions,
        w.background.join(";"),
        config.canon(),
        geometry_canon(geometry),
    );
    format!("{:016x}", fnv1a64(&canon))
}

/// One expanded grid cell (indices into the spec's axes).
#[derive(Debug, Clone)]
struct CellTask {
    workload: usize,
    config: usize,
    geometry: CacheConfig,
    plane: usize,
    key: String,
}

/// How the engine produces cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// Consult one template per (workload, config) plane, then
    /// [`Machine::fork_with_cache`] per cell. The default.
    Fork,
    /// Fidelity planes run once with tracing on, then replay the
    /// trace through each geometry (the Figure 1 method). Fast-lane
    /// planes have no trace and fall back to forking.
    Replay,
    /// Re-parse and re-consult per cell — the pre-engine behaviour,
    /// kept as the baseline the fork path is measured against.
    Fresh,
}

impl SweepMode {
    /// Lowercase mode label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            SweepMode::Fork => "fork",
            SweepMode::Replay => "replay",
            SweepMode::Fresh => "fresh",
        }
    }
}

/// Execution knobs for one sweep run.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads (work stealing over cells; 1 = serial).
    pub threads: usize,
    /// Cell production strategy.
    pub mode: SweepMode,
    /// `Some((i, n))` runs only cells whose grid index ≡ i (mod n) —
    /// the multi-host split. Shards are disjoint and union to the
    /// full grid.
    pub shard: Option<(usize, usize)>,
    /// Directory for per-cell flat-JSON files. `Some` enables
    /// skip-if-present resume; `None` keeps the sweep in memory.
    pub cell_dir: Option<PathBuf>,
    /// Stop after this many *computed* (not resumed) cells. Used by
    /// the resumability tests to simulate a killed sweep; `None` runs
    /// everything.
    pub limit: Option<usize>,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            threads: default_parallelism(),
            mode: SweepMode::Fork,
            shard: None,
            cell_dir: None,
            limit: None,
        }
    }
}

// ------------------------------------------------------------------
// results
// ------------------------------------------------------------------

/// One completed cell. Every field except `engine` is deterministic —
/// [`SWEEP_DIFF`] names the ones the diff compares.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Content-addressed cell key ([`cell_key`]).
    pub key: String,
    /// Workload name.
    pub workload: String,
    /// Configuration point name.
    pub config: String,
    /// Lane code ("A"/"C").
    pub lane: String,
    /// Clause indexing on?
    pub indexing: bool,
    /// Cache capacity in words.
    pub capacity: u32,
    /// Associativity.
    pub ways: u32,
    /// Block size in words.
    pub block: u32,
    /// Write policy label ("in"/"through").
    pub policy: String,
    /// Write-stack no-fetch enabled?
    pub write_stack: bool,
    /// Outcome label: ok / exhausted / timed_out / failed / panicked.
    pub outcome: String,
    /// Error detail for non-ok outcomes (empty when ok).
    pub detail: String,
    /// Interpreter microsteps (0 for non-ok cells).
    pub steps: u64,
    /// Simulated time in nanoseconds.
    pub time_ns: u64,
    /// Solution count.
    pub solutions: u64,
    /// Total cache hit ratio (%); `None` when the lane never drove
    /// the cache model or the cell did not complete.
    pub hit_pct: Option<f64>,
    /// Figure 1 improvement ratio (%); `None` off the fidelity lane.
    pub improvement_pct: Option<f64>,
    /// How the cell was produced: fork / replay / fresh.
    pub engine: String,
}

impl CellResult {
    /// Serializes the cell as one flat JSON line (the per-cell file
    /// format and the `cells` array entry of `BENCH_sweep.json`).
    /// `None` float fields are omitted — absence encodes "not
    /// measured" in the flat codec.
    pub fn to_json_line(&self) -> String {
        self.to_object().finish()
    }

    fn to_object(&self) -> ObjectBuilder {
        let mut b = ObjectBuilder::new()
            .str("key", &self.key)
            .str("workload", &self.workload)
            .str("config", &self.config)
            .str("lane", &self.lane)
            .bool("indexing", self.indexing)
            .u64("capacity", self.capacity as u64)
            .u64("ways", self.ways as u64)
            .u64("block", self.block as u64)
            .str("policy", &self.policy)
            .bool("write_stack", self.write_stack)
            .str("outcome", &self.outcome);
        if !self.detail.is_empty() {
            b = b.str("detail", &self.detail);
        }
        b = b
            .u64("steps", self.steps)
            .u64("time_ns", self.time_ns)
            .u64("solutions", self.solutions);
        if let Some(h) = self.hit_pct {
            b = b.f64("hit_pct", h);
        }
        if let Some(i) = self.improvement_pct {
            b = b.f64("improvement_pct", i);
        }
        b.str("engine", &self.engine)
    }

    /// Parses a cell back from its JSON line; `None` when the line is
    /// not a well-formed cell (a truncated file from a killed run is
    /// recomputed rather than trusted).
    pub fn from_json_line(line: &str) -> Option<CellResult> {
        CellResult::from_object(&parse_object(line).ok()?)
    }

    fn from_object(obj: &JsonObject) -> Option<CellResult> {
        let opt_f64 = |key: &str| obj.get(key).and_then(|v| v.as_f64());
        Some(CellResult {
            key: obj.str_field("key").ok()?.to_owned(),
            workload: obj.str_field("workload").ok()?.to_owned(),
            config: obj.str_field("config").ok()?.to_owned(),
            lane: obj.str_field("lane").ok()?.to_owned(),
            indexing: obj.get("indexing")?.as_bool()?,
            capacity: obj.u64_field("capacity").ok()? as u32,
            ways: obj.u64_field("ways").ok()? as u32,
            block: obj.u64_field("block").ok()? as u32,
            policy: obj.str_field("policy").ok()?.to_owned(),
            write_stack: obj.get("write_stack")?.as_bool()?,
            outcome: obj.str_field("outcome").ok()?.to_owned(),
            detail: obj
                .get("detail")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_owned(),
            steps: obj.u64_field("steps").ok()?,
            time_ns: obj.u64_field("time_ns").ok()?,
            solutions: obj.u64_field("solutions").ok()?,
            hit_pct: opt_f64("hit_pct"),
            improvement_pct: opt_f64("improvement_pct"),
            engine: obj.str_field("engine").ok()?.to_owned(),
        })
    }
}

/// Per-plane summary: one line per (workload, configuration) pair
/// that actually materialized a template or trace.
#[derive(Debug, Clone)]
pub struct PlaneSummary {
    /// Workload name.
    pub workload: String,
    /// Configuration point name.
    pub config: String,
    /// How the plane served its cells: fork / replay / fresh / broken.
    pub engine: String,
    /// Captured trace length (replay planes; 0 otherwise).
    pub trace_len: u64,
    /// Microsteps of the plane's reference run (replay planes; 0
    /// otherwise).
    pub steps: u64,
}

/// Schema tag of the `BENCH_sweep.json` report.
pub const SWEEP_SCHEMA: &str = "psi-sweep-v2";

/// The deterministic fields of a sweep report's `cells`, keyed by the
/// content-addressed cell key. The producing engine is deliberately
/// untracked — it names the run strategy, not a simulated number.
pub const SWEEP_DIFF: DiffSpec = DiffSpec {
    name: "sweep",
    array: "cells",
    key: &["key"],
    numbers: &[
        "steps",
        "time_ns",
        "solutions",
        "hit_pct",
        "improvement_pct",
    ],
    strings: &["outcome"],
};

/// A full sweep run: the sharded cell results in grid order plus the
/// bookkeeping the report serializes.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Grid name.
    pub grid: String,
    /// Mode label of the run.
    pub mode: String,
    /// Shard of the grid this run covered.
    pub shard: Option<(usize, usize)>,
    /// Axis sizes: workloads, configs, geometries.
    pub axes: (usize, usize, usize),
    /// Geometry-axis cross-product combinations filtered as invalid.
    pub invalid_geometries: usize,
    /// Cells not generated because a fast-lane configuration point
    /// collapses the geometry axis onto the stock PSI cache.
    pub collapsed_fast_lane_cells: usize,
    /// Cell results, in grid order.
    pub cells: Vec<CellResult>,
    /// Cells computed by this run.
    pub computed: usize,
    /// Cells resumed byte-identically from the cell directory.
    pub resumed: usize,
    /// Cells left unrun by [`SweepOptions::limit`].
    pub unrun: usize,
    /// Per-plane summaries.
    pub planes: Vec<PlaneSummary>,
}

impl SweepReport {
    /// Count of cells with the given outcome label.
    pub fn outcome_count(&self, label: &str) -> usize {
        self.cells.iter().filter(|c| c.outcome == label).count()
    }

    /// Did every cell in this shard complete ok?
    pub fn all_ok(&self) -> bool {
        self.unrun == 0 && self.outcome_count("ok") == self.cells.len()
    }

    /// Serializes the report (schema [`SWEEP_SCHEMA`]) through the
    /// shared report writer ([`ReportBuilder`]): scalar header fields,
    /// then the `planes` and `cells` arrays, one flat object per line
    /// (compared under [`SWEEP_DIFF`]).
    pub fn to_json(&self) -> String {
        let mut r = ReportBuilder::new(SWEEP_SCHEMA)
            .str("grid", &self.grid)
            .str("mode", &self.mode);
        if let Some((i, n)) = self.shard {
            r = r.str("shard", &format!("{i}/{n}"));
        }
        r = r
            .u64("workloads", self.axes.0 as u64)
            .u64("configs", self.axes.1 as u64)
            .u64("geometries", self.axes.2 as u64)
            .u64("invalid_geometries", self.invalid_geometries as u64)
            .u64(
                "collapsed_fast_lane_cells",
                self.collapsed_fast_lane_cells as u64,
            )
            .u64("cells_total", self.cells.len() as u64)
            .u64("computed", self.computed as u64)
            .u64("resumed", self.resumed as u64)
            .u64("unrun", self.unrun as u64);
        for label in ["ok", "exhausted", "timed_out", "failed", "panicked"] {
            r = r.u64(label, self.outcome_count(label) as u64);
        }
        let planes = self.planes.iter().map(|p| {
            ObjectBuilder::new()
                .str("workload", &p.workload)
                .str("config", &p.config)
                .str("engine", &p.engine)
                .u64("trace_len", p.trace_len)
                .u64("steps", p.steps)
        });
        r.array("planes", planes)
            .array("cells", self.cells.iter().map(CellResult::to_object))
            .finish()
    }

    /// Human-readable run summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sweep '{}' [{}]: {} cells ({} computed, {} resumed{}) — {} ok, {} exhausted, {} timed out, {} failed, {} panicked",
            self.grid,
            self.mode,
            self.cells.len(),
            self.computed,
            self.resumed,
            match self.shard {
                Some((i, n)) => format!(", shard {i}/{n}"),
                None => String::new(),
            },
            self.outcome_count("ok"),
            self.outcome_count("exhausted"),
            self.outcome_count("timed_out"),
            self.outcome_count("failed"),
            self.outcome_count("panicked"),
        );
        if self.unrun > 0 {
            let _ = writeln!(out, "  {} cells left unrun by --limit", self.unrun);
        }
        if self.invalid_geometries > 0 {
            let _ = writeln!(
                out,
                "  {} invalid geometry combinations filtered from the axis",
                self.invalid_geometries
            );
        }
        if self.collapsed_fast_lane_cells > 0 {
            let _ = writeln!(
                out,
                "  {} fast-lane cells collapsed onto the stock geometry (lane C never drives the cache)",
                self.collapsed_fast_lane_cells
            );
        }
        out
    }
}

// ------------------------------------------------------------------
// execution
// ------------------------------------------------------------------

/// Lazily initialized per-plane context, shared by every cell on the
/// plane.
enum PlaneCtx {
    /// A consulted, never-run template; cells fork it.
    Fork(Box<Machine>),
    /// A captured trace plus the reference run's deterministic
    /// numbers; cells replay it.
    Replay {
        trace: Vec<TraceEntry>,
        steps: u64,
        solutions: u64,
        cycle_ns: u64,
    },
    /// Cells consult for themselves.
    Fresh,
    /// Plane setup failed; every cell degrades with this reason.
    Broken(String),
}

fn run_workload_on(m: &mut Machine, w: &Workload) -> psi_core::Result<Vec<String>> {
    let solutions = if w.background.is_empty() {
        m.solve(&w.goal, w.max_solutions)?
    } else {
        let bg: Vec<&str> = w.background.iter().map(String::as_str).collect();
        m.run_session(&w.goal, &bg)?
    };
    Ok(solutions.iter().map(|s| s.to_string()).collect())
}

fn outcome_of(error: &PsiError) -> (&'static str, String) {
    match error {
        PsiError::ResourceExhausted {
            resource: Resource::WallClockMs,
            ..
        } => ("timed_out", error.to_string()),
        PsiError::ResourceExhausted { .. } => ("exhausted", error.to_string()),
        _ => ("failed", error.to_string()),
    }
}

/// Skeleton cell with axis identity filled in and measurement fields
/// zeroed; outcome fields overwritten by the producing path.
fn blank_cell(task: &CellTask, spec: &SweepSpec, engine: &str) -> CellResult {
    let w = &spec.workloads[task.workload];
    let c = &spec.configs[task.config];
    let g = &task.geometry;
    CellResult {
        key: task.key.clone(),
        workload: w.name.clone(),
        config: c.name.clone(),
        lane: c.lane.code().to_owned(),
        indexing: c.clause_indexing,
        capacity: g.capacity_words,
        ways: g.ways,
        block: g.block_words,
        policy: policy_label(g.policy).to_owned(),
        write_stack: g.write_stack_no_fetch,
        outcome: "ok".to_owned(),
        detail: String::new(),
        steps: 0,
        time_ns: 0,
        solutions: 0,
        hit_pct: None,
        improvement_pct: None,
        engine: engine.to_owned(),
    }
}

/// Fills the measurement fields of a live (fork/fresh) cell from the
/// machine that ran it.
fn fill_from_machine(cell: &mut CellResult, m: &Machine, solutions: usize, config: &ConfigPoint) {
    let stats = m.stats();
    cell.steps = stats.steps;
    cell.time_ns = stats.time_ns;
    cell.solutions = solutions as u64;
    if config.lane == Lane::Fidelity {
        cell.hit_pct = stats.cache.hit_ratio_pct();
        if let Some(geometry) = m.config().cache {
            cell.improvement_pct = Some(pmms::improvement_from_run(
                stats.steps,
                stats.time_ns,
                stats.cache.total().accesses(),
                m.config().cycle_ns,
                geometry,
            ));
        }
    }
}

/// Runs one sweep. Cells are expanded in deterministic grid order
/// (workload-major, then configuration, then geometry), sharded,
/// resumed from the cell directory when possible, and the remainder
/// executed in parallel with work stealing; each cell is
/// fault-isolated, so one bad cell degrades one cell.
pub fn run_sweep(spec: &SweepSpec, options: &SweepOptions) -> SweepReport {
    let psi_geometry = CacheConfig::psi();

    // --- expand the grid ------------------------------------------
    let mut planes: Vec<(usize, usize)> = Vec::new(); // (workload, config)
    let mut tasks: Vec<CellTask> = Vec::new();
    let mut collapsed = 0usize;
    for (wi, w) in spec.workloads.iter().enumerate() {
        for (ci, c) in spec.configs.iter().enumerate() {
            let plane = planes.len();
            planes.push((wi, ci));
            let geoms: &[CacheConfig] = if c.lane == Lane::Fidelity {
                &spec.geometries
            } else {
                collapsed += spec.geometries.len().saturating_sub(1);
                std::slice::from_ref(&psi_geometry)
            };
            for g in geoms {
                tasks.push(CellTask {
                    workload: wi,
                    config: ci,
                    geometry: *g,
                    plane,
                    key: cell_key(w, c, g),
                });
            }
        }
    }

    // --- shard ----------------------------------------------------
    let tasks: Vec<CellTask> = match options.shard {
        Some((i, n)) if n > 1 => tasks
            .into_iter()
            .enumerate()
            .filter(|(idx, _)| idx % n == i)
            .map(|(_, t)| t)
            .collect(),
        _ => tasks,
    };

    if let Some(dir) = &options.cell_dir {
        // A first failure here will surface as per-cell write errors;
        // creating the directory is best-effort by design.
        let _ = std::fs::create_dir_all(dir);
    }

    // --- plane contexts (lazy, shared across workers) -------------
    let plane_ctx: Vec<OnceLock<PlaneCtx>> = (0..planes.len()).map(|_| OnceLock::new()).collect();
    let build_plane = |plane: usize| -> PlaneCtx {
        let (wi, ci) = planes[plane];
        let w = &spec.workloads[wi];
        let c = &spec.configs[ci];
        let mode = if options.mode == SweepMode::Replay && c.lane != Lane::Fidelity {
            // No trace exists off the fidelity lane; fork instead.
            SweepMode::Fork
        } else {
            options.mode
        };
        match mode {
            SweepMode::Fresh => PlaneCtx::Fresh,
            SweepMode::Fork => {
                let program = match kl0::Program::parse(&w.source) {
                    Ok(p) => p,
                    Err(e) => return PlaneCtx::Broken(e.to_string()),
                };
                match Machine::load(&program, c.machine_config(psi_geometry)) {
                    Ok(template) => PlaneCtx::Fork(Box::new(template)),
                    Err(e) => PlaneCtx::Broken(e.to_string()),
                }
            }
            SweepMode::Replay => {
                let mut config = c.machine_config(psi_geometry);
                config.trace_memory = true;
                match psi_workloads::runner::run_on_psi_machine(w, config) {
                    Ok((run, mut machine)) => PlaneCtx::Replay {
                        trace: machine.take_trace(),
                        steps: run.stats.steps,
                        solutions: run.solutions.len() as u64,
                        cycle_ns: machine.config().cycle_ns,
                    },
                    Err(e) => PlaneCtx::Broken(e.to_string()),
                }
            }
        }
    };

    // --- execute --------------------------------------------------
    let computed = AtomicUsize::new(0);
    let resumed = AtomicUsize::new(0);
    let run_cell = |task: &CellTask| -> Option<CellResult> {
        // Resume: a present, well-formed cell file with the right key
        // is reused verbatim and never rewritten (byte-identical
        // skip).
        if let Some(dir) = &options.cell_dir {
            let path = dir.join(format!("{}.json", task.key));
            if let Ok(text) = std::fs::read_to_string(&path) {
                if let Some(cell) = CellResult::from_json_line(text.trim_end()) {
                    if cell.key == task.key {
                        resumed.fetch_add(1, Ordering::Relaxed);
                        return Some(cell);
                    }
                }
            }
        }
        if let Some(limit) = options.limit {
            // Claim a computation slot; give it back on overshoot so
            // exactly `limit` cells compute.
            if computed.fetch_add(1, Ordering::Relaxed) >= limit {
                computed.fetch_sub(1, Ordering::Relaxed);
                return None;
            }
        } else {
            computed.fetch_add(1, Ordering::Relaxed);
        }

        let ctx = plane_ctx[task.plane].get_or_init(|| build_plane(task.plane));
        let config = &spec.configs[task.config];
        let workload = &spec.workloads[task.workload];
        let mut cell;
        match ctx {
            PlaneCtx::Broken(reason) => {
                cell = blank_cell(task, spec, options.mode.label());
                cell.outcome = "failed".to_owned();
                cell.detail = format!("plane setup failed: {reason}");
            }
            PlaneCtx::Fork(template) => {
                cell = blank_cell(task, spec, "fork");
                match template.fork_with_cache(Some(task.geometry)) {
                    Ok(mut m) => match run_workload_on(&mut m, workload) {
                        Ok(solutions) => fill_from_machine(&mut cell, &m, solutions.len(), config),
                        Err(e) => {
                            let (label, detail) = outcome_of(&e);
                            cell.outcome = label.to_owned();
                            cell.detail = detail;
                        }
                    },
                    Err(e) => {
                        cell.outcome = "failed".to_owned();
                        cell.detail = e.to_string();
                    }
                }
            }
            PlaneCtx::Replay {
                trace,
                steps,
                solutions,
                cycle_ns,
            } => {
                cell = blank_cell(task, spec, "replay");
                let (stats, time) = pmms::replay(trace, task.geometry, *cycle_ns, *steps);
                cell.steps = *steps;
                cell.time_ns = time;
                cell.solutions = *solutions;
                cell.hit_pct = stats.hit_ratio_pct();
                cell.improvement_pct = Some(pmms::improvement_ratio_pct(
                    trace,
                    task.geometry,
                    *cycle_ns,
                    *steps,
                ));
            }
            PlaneCtx::Fresh => {
                cell = blank_cell(task, spec, "fresh");
                let mut config_m = config.machine_config(task.geometry);
                config_m.cache = Some(task.geometry);
                match psi_workloads::runner::run_on_psi(workload, config_m) {
                    Ok(run) => {
                        cell.steps = run.stats.steps;
                        cell.time_ns = run.stats.time_ns;
                        cell.solutions = run.solutions.len() as u64;
                        if config.lane == Lane::Fidelity {
                            cell.hit_pct = run.stats.cache.hit_ratio_pct();
                            cell.improvement_pct = Some(pmms::improvement_from_run(
                                run.stats.steps,
                                run.stats.time_ns,
                                run.stats.cache.total().accesses(),
                                MachineConfig::psi().cycle_ns,
                                task.geometry,
                            ));
                        }
                    }
                    Err(e) => {
                        let (label, detail) = outcome_of(&e);
                        cell.outcome = label.to_owned();
                        cell.detail = detail;
                    }
                }
            }
        }

        if let Some(dir) = &options.cell_dir {
            // Atomic-ish publish: a killed run leaves either nothing
            // or a complete file, never a half-written cell that a
            // resume would trust.
            let tmp = dir.join(format!("{}.json.tmp", task.key));
            let path = dir.join(format!("{}.json", task.key));
            let body = format!("{}\n", cell.to_json_line());
            if std::fs::write(&tmp, body)
                .and_then(|()| std::fs::rename(&tmp, &path))
                .is_err()
            {
                cell.detail = format!("{} (cell file write failed)", cell.detail);
            }
        }
        Some(cell)
    };

    let slots = par_map_catch(&tasks, options.threads, |_, task| run_cell(task));
    let mut cells = Vec::with_capacity(tasks.len());
    let mut unrun = 0usize;
    for (task, slot) in tasks.iter().zip(slots) {
        match slot {
            Ok(Some(cell)) => cells.push(cell),
            Ok(None) => unrun += 1,
            Err(panic_msg) => {
                let mut cell = blank_cell(task, spec, options.mode.label());
                cell.outcome = "panicked".to_owned();
                cell.detail = panic_msg;
                cells.push(cell);
            }
        }
    }

    let plane_summaries: Vec<PlaneSummary> = planes
        .iter()
        .zip(&plane_ctx)
        .filter_map(|(&(wi, ci), ctx)| {
            let ctx = ctx.get()?;
            let (engine, trace_len, steps) = match ctx {
                PlaneCtx::Fork(_) => ("fork", 0, 0),
                PlaneCtx::Replay { trace, steps, .. } => ("replay", trace.len() as u64, *steps),
                PlaneCtx::Fresh => ("fresh", 0, 0),
                PlaneCtx::Broken(_) => ("broken", 0, 0),
            };
            Some(PlaneSummary {
                workload: spec.workloads[wi].name.clone(),
                config: spec.configs[ci].name.clone(),
                engine: engine.to_owned(),
                trace_len,
                steps,
            })
        })
        .collect();

    SweepReport {
        grid: spec.name.clone(),
        mode: options.mode.label().to_owned(),
        shard: options.shard,
        axes: (
            spec.workloads.len(),
            spec.configs.len(),
            spec.geometries.len(),
        ),
        invalid_geometries: 0,
        collapsed_fast_lane_cells: collapsed,
        cells,
        computed: computed.load(Ordering::Relaxed),
        resumed: resumed.load(Ordering::Relaxed),
        unrun,
        planes: plane_summaries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::{diff_reports, ReportDiff};
    use psi_tools::json::parse_report;
    use psi_workloads::contest;

    fn diff(old: &SweepReport, new: &SweepReport) -> ReportDiff {
        let parse = |r: &SweepReport| parse_report(&r.to_json()).unwrap();
        diff_reports(&parse(old), &parse(new), &SWEEP_DIFF).unwrap()
    }

    fn tiny_spec() -> SweepSpec {
        let (geometries, invalid) = GeometryAxis {
            capacities: vec![64, 8192],
            ways: vec![1, 2],
            block_words: vec![4],
            policies: vec![WritePolicy::StoreIn],
            write_stack_no_fetch: vec![true],
        }
        .expand();
        assert_eq!(invalid, 0);
        SweepSpec {
            name: "tiny".into(),
            workloads: vec![contest::nreverse(8), contest::quick_sort(10)],
            configs: vec![
                ConfigPoint::fidelity("A-linear", false),
                ConfigPoint {
                    name: "C-linear".into(),
                    lane: Lane::Compiled,
                    clause_indexing: false,
                    max_steps: None,
                },
            ],
            geometries,
        }
    }

    #[test]
    fn grid_expansion_counts_and_orders() {
        let spec = tiny_spec();
        let report = run_sweep(&spec, &SweepOptions::default());
        // 2 workloads × (1 fidelity config × 4 geometries + 1 fast
        // lane collapsed to 1 geometry).
        assert_eq!(report.cells.len(), 2 * (4 + 1));
        assert_eq!(report.collapsed_fast_lane_cells, 2 * 3);
        assert!(report.all_ok(), "{}", report.render());
        // Grid order is workload-major: first workload's five cells
        // first.
        assert!(report.cells[..5].iter().all(|c| c.workload == "nreverse"));
        // Keys are unique.
        let mut keys: Vec<&str> = report.cells.iter().map(|c| c.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), report.cells.len());
    }

    #[test]
    fn fork_replay_and_fresh_agree_on_deterministic_fields() {
        let spec = tiny_spec();
        let fork = run_sweep(
            &spec,
            &SweepOptions {
                mode: SweepMode::Fork,
                ..SweepOptions::default()
            },
        );
        let replay = run_sweep(
            &spec,
            &SweepOptions {
                mode: SweepMode::Replay,
                ..SweepOptions::default()
            },
        );
        let fresh = run_sweep(
            &spec,
            &SweepOptions {
                mode: SweepMode::Fresh,
                ..SweepOptions::default()
            },
        );
        for other in [&replay, &fresh] {
            let diff = diff(&fork, other);
            assert!(
                !diff.has_drift(),
                "modes must agree bit-for-bit:\n{}",
                diff.render()
            );
        }
    }

    #[test]
    fn shards_partition_the_grid() {
        let spec = tiny_spec();
        let full = run_sweep(&spec, &SweepOptions::default());
        let shard = |i: usize| {
            run_sweep(
                &spec,
                &SweepOptions {
                    shard: Some((i, 2)),
                    ..SweepOptions::default()
                },
            )
        };
        let (s0, s1) = (shard(0), shard(1));
        let mut union: Vec<&CellResult> = s0.cells.iter().chain(&s1.cells).collect();
        assert_eq!(union.len(), full.cells.len());
        union.sort_by(|a, b| a.key.cmp(&b.key));
        union.dedup_by(|a, b| a.key == b.key);
        assert_eq!(union.len(), full.cells.len(), "shards must not overlap");
        let shard_cells: Vec<CellResult> = s0.cells.iter().chain(&s1.cells).cloned().collect();
        let merged = SweepReport {
            cells: shard_cells,
            ..full.clone()
        };
        let diff = diff(&full, &merged);
        assert!(!diff.has_drift(), "{}", diff.render());
    }

    #[test]
    fn cell_json_line_round_trips() {
        let spec = tiny_spec();
        let report = run_sweep(&spec, &SweepOptions::default());
        for cell in &report.cells {
            let line = cell.to_json_line();
            let back = CellResult::from_json_line(&line).expect("parse back");
            assert_eq!(&back, cell, "{line}");
        }
        assert!(CellResult::from_json_line("{\"key\":\"abc\"}").is_none());
        assert!(CellResult::from_json_line("not json").is_none());
    }

    #[test]
    fn report_json_parses_back_and_diffs_clean_against_itself() {
        let spec = tiny_spec();
        let report = run_sweep(&spec, &SweepOptions::default());
        let json = report.to_json();
        assert!(json.starts_with(&format!("{{\n  \"schema\": \"{SWEEP_SCHEMA}\"")));
        let parsed = parse_report(&json).unwrap();
        assert_eq!(parsed.array("cells").unwrap().len(), report.cells.len());
        let diff = diff_reports(&parsed, &parsed, &SWEEP_DIFF).unwrap();
        assert_eq!(diff.compared, report.cells.len());
        assert!(!diff.has_drift());
    }

    #[test]
    fn diff_flags_value_outcome_and_membership_drift() {
        let spec = tiny_spec();
        let report = run_sweep(&spec, &SweepOptions::default());
        let mut tampered = report.cells.clone();
        tampered[0].steps += 7;
        tampered[1].outcome = "failed".into();
        let dropped = tampered.pop().unwrap();
        let tampered = SweepReport {
            cells: tampered,
            ..report.clone()
        };
        let diff = diff(&report, &tampered);
        assert!(diff.has_drift());
        assert_eq!(diff.missing, vec![dropped.key.clone()]);
        assert!(diff
            .sections
            .iter()
            .any(|s| s.deltas.iter().any(|d| d.cell == 1)));
        assert!(diff
            .sections
            .iter()
            .any(|s| s.shape.iter().any(|m| m.contains("outcome changed"))));
        let rendered = diff.render();
        assert!(rendered.contains("SWEEP DRIFT DETECTED"), "{rendered}");
    }

    #[test]
    fn governed_config_point_reports_exhaustion_as_one_cell() {
        let (geometries, _) = GeometryAxis::psi_only().expand();
        let spec = SweepSpec {
            name: "governed".into(),
            workloads: vec![contest::nreverse(20)],
            configs: vec![ConfigPoint {
                name: "A-starved".into(),
                lane: Lane::Fidelity,
                clause_indexing: false,
                max_steps: Some(10),
            }],
            geometries,
        };
        let report = run_sweep(&spec, &SweepOptions::default());
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].outcome, "exhausted");
        assert!(report.cells[0].detail.contains("steps"));
    }

    #[test]
    fn invalid_geometry_combinations_are_filtered_and_counted() {
        let (geoms, invalid) = GeometryAxis {
            capacities: vec![8],
            ways: vec![2],
            block_words: vec![4, 8],
            policies: vec![WritePolicy::StoreIn],
            write_stack_no_fetch: vec![true],
        }
        .expand();
        // cap 8 / block 8 / ways 2 needs 16 words minimum → invalid.
        assert_eq!(geoms.len(), 1);
        assert_eq!(invalid, 1);
        assert!(geometry_is_valid(&CacheConfig::psi()));
    }
}
