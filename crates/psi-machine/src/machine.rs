//! Machine state, configuration, and the public API.

use crate::codegen::{CodeImage, QueryCode};
use crate::exec::charge_table;
use crate::ucode::{
    BranchOp, BranchTally, ChargeTable, FusedKind, FusedProgram, InterpModule, MicroTally,
    ModuleTally, PackedArg, CHARGE_PHASES, FUSE_NEXT,
};
use crate::wf::{WfStats, WorkFile};
use kl0::{LoweredProgram, Program, Term};
use psi_cache::{CacheConfig, CacheStats};
use psi_core::{
    Address, Area, Measurement, ObsEvent, ProcessId, PsiError, Resource, Result, SymbolId, Word,
};
use psi_mem::{MemBus, TraceEntry};
use psi_obs::{Counter, Histo, MetricsRegistry, MetricsSnapshot};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-run resource budgets, all unlimited by default.
///
/// The paper's 1985 measurements ran unbounded, so the default
/// (`ResourceLimits::unlimited`) reproduces Tables 1–7 verbatim: no
/// budget ever fires and the event counters are untouched. A
/// long-lived engine sets limits so a nonterminating or runaway query
/// returns a typed [`psi_core::PsiError::ResourceExhausted`] instead
/// of spinning forever — and the machine stays loaded and reusable
/// afterwards (the next solve starts from a clean run state).
///
/// Budgets are enforced by the dispatch loop's periodic governor
/// (every [`GOVERNOR_INTERVAL`] goal dispatches), so the hot path pays
/// only a counter decrement per dispatch and exhaustion may be
/// detected up to one interval late; the error's `consumed` field
/// reports the exact count. Word budgets apply to each process's own
/// stack areas; the heap budget covers the shared heap (loaded code
/// plus runtime heap vectors). Setup work outside the dispatch loop
/// (loading, query compilation, [`Machine::spawn_background`]) is
/// bounded by program size and is not metered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Maximum microinstruction steps per run (one `solve` or
    /// `run_session` call).
    pub max_steps: Option<u64>,
    /// Maximum heap-area words (includes the loaded code image).
    pub max_heap_words: Option<u32>,
    /// Maximum local-stack words of any one process.
    pub max_local_words: Option<u32>,
    /// Maximum global-stack words of any one process.
    pub max_global_words: Option<u32>,
    /// Maximum control-stack words of any one process.
    pub max_control_words: Option<u32>,
    /// Maximum trail words of any one process.
    pub max_trail_words: Option<u32>,
    /// Wall-clock deadline per run, measured from the start of the
    /// solve (a per-workload watchdog when set by the suite runner).
    pub deadline: Option<Duration>,
}

impl ResourceLimits {
    /// No budgets at all — the paper's unbounded configuration.
    pub fn unlimited() -> ResourceLimits {
        ResourceLimits::default()
    }

    /// Is any budget configured?
    pub fn any_set(&self) -> bool {
        self.max_steps.is_some()
            || self.max_heap_words.is_some()
            || self.max_local_words.is_some()
            || self.max_global_words.is_some()
            || self.max_control_words.is_some()
            || self.max_trail_words.is_some()
            || self.deadline.is_some()
    }

    /// Sets the per-run step budget.
    pub fn with_max_steps(mut self, steps: u64) -> ResourceLimits {
        self.max_steps = Some(steps);
        self
    }

    /// Sets the per-run wall-clock deadline.
    ///
    /// # Overshoot guarantee
    ///
    /// An expired deadline is detected at the earliest of (a) the next
    /// periodic governor check, at most [`GOVERNOR_INTERVAL`] goal
    /// dispatches away, (b) the next backtrack, or (c) the next
    /// captured solution. A run therefore never overshoots its
    /// deadline by more than one governor interval's worth of
    /// *forward* execution — in particular it cannot sit in a long
    /// backtrack-heavy search segment (where dispatches are sparse but
    /// host work is not) without noticing. `psi-server` relies on this
    /// bound for per-session QoS. One exception, by design: a run that
    /// has already captured every requested solution returns them
    /// normally even if the deadline lapsed while decoding the last
    /// one — completed work is never discarded.
    pub fn with_deadline(mut self, deadline: Duration) -> ResourceLimits {
        self.deadline = Some(deadline);
        self
    }
}

/// Goal dispatches between two governor checks. Small enough that a
/// tight `loop :- loop.` is caught within a few thousand microsteps,
/// large enough that the per-dispatch cost is one counter decrement
/// and a never-taken branch.
pub const GOVERNOR_INTERVAL: u32 = 256;

/// Configuration of the simulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Cache configuration; `None` simulates the cache-less machine
    /// (the `Tnc` baseline of Figure 1).
    pub cache: Option<CacheConfig>,
    /// Microinstruction cycle time in nanoseconds (§2.3: 200 ns).
    pub cycle_ns: u64,
    /// Per-run resource budgets (default: unlimited, as in the paper).
    pub limits: ResourceLimits,
    /// Enable the WF frame-buffer pair (§2.2). Disable for ablation.
    pub frame_buffering: bool,
    /// Enable tail recursion optimization (§2.2). Disable for
    /// ablation.
    pub tail_recursion_opt: bool,
    /// Record a memory trace (COLLECT mode) for PMMS replay.
    pub trace_memory: bool,
    /// Record observability events (dispatch, cache, backtrack,
    /// governor) into the bounded event ring. Off by default; while
    /// off, every emission site pays only a branch.
    pub trace_events: bool,
    /// Filter candidate clauses through the compile-time
    /// first-argument index at each call, entering a single surviving
    /// candidate directly with no choice point.
    ///
    /// Off by default — the paper's firmware tries clauses linearly,
    /// and Tables 2–7 are derived from those dynamic microstep
    /// frequencies, so the paper-faithful profile must not reorder or
    /// skip any head unification. With indexing on, solutions are
    /// identical but microstep counts, choice points and cache
    /// traffic all shrink (see the "Indexing ablation" section of
    /// EXPERIMENTS.md).
    pub clause_indexing: bool,
    /// Which execution lane the machine runs in.
    ///
    /// [`Measurement::Full`] (the default) is the fidelity lane: every
    /// memory access drives the cache-occupancy model and the other
    /// measurement hooks, exactly as the paper measured. With
    /// [`Measurement::Off`] the machine runs the fast lane: the memory
    /// bus skips the cache simulator, address tracing and event
    /// recording, and the loaded code is fused at load/consult time
    /// into a dense program of pre-classified ops, dispatched with
    /// superinstruction chaining and pre-recorded microstep charge
    /// packets. Solutions, microstep totals, per-module/branch tallies
    /// and budget-exhaustion behaviour stay bit-identical to the
    /// fidelity lane (see `tests/three_lane.rs`), while cache
    /// statistics and stall time read zero.
    pub measurement: Measurement,
}

impl MachineConfig {
    /// The machine as shipped: PSI cache, 200 ns cycle, TRO and frame
    /// buffering on, no resource budgets, linear clause selection.
    pub fn psi() -> MachineConfig {
        MachineConfig {
            cache: Some(CacheConfig::psi()),
            cycle_ns: 200,
            limits: ResourceLimits::unlimited(),
            frame_buffering: true,
            tail_recursion_opt: true,
            trace_memory: false,
            trace_events: false,
            clause_indexing: false,
            measurement: Measurement::Full,
        }
    }

    /// The cache-less machine (every access pays full memory latency).
    pub fn psi_uncached() -> MachineConfig {
        MachineConfig {
            cache: None,
            ..MachineConfig::psi()
        }
    }

    /// The shipped machine with first-argument clause indexing on —
    /// the performance profile. Solutions are identical to
    /// [`MachineConfig::psi`]; dynamic statistics are not (that is
    /// the point), so use the default profile when reproducing the
    /// paper's tables.
    ///
    /// ```
    /// use kl0::Program;
    /// use psi_machine::{Machine, MachineConfig};
    ///
    /// let src = "color(red). color(green). color(blue).";
    /// let program = Program::parse(src)?;
    /// let mut m = Machine::load(&program, MachineConfig::psi_indexed())?;
    /// // The atom key selects one clause: entered with no choice
    /// // point, so the whole solve backtracks exactly once (for the
    /// // second solution request) — and still allocates nothing.
    /// let solutions = m.solve("color(green)", 2)?;
    /// assert_eq!(solutions.len(), 1);
    /// assert_eq!(m.stats().choice_points, 0);
    /// assert_eq!(m.hot_path_alloc_count(), 0);
    /// # Ok::<(), psi_core::PsiError>(())
    /// ```
    pub fn psi_indexed() -> MachineConfig {
        MachineConfig {
            clause_indexing: true,
            ..MachineConfig::psi()
        }
    }

    /// The shipped machine in the fast lane
    /// ([`MachineConfig::measurement`] off): the loaded code is fused
    /// into a dense pre-classified op array and dispatched with
    /// superinstruction chaining and packetized microstep charging,
    /// and the cache simulator, memory tracing and event recording
    /// are skipped. Observable behaviour (solutions, step totals,
    /// module and branch tallies, resource-budget errors) is
    /// bit-identical to [`MachineConfig::psi`]; the host just gets
    /// there faster. Use for serving-style solve traffic; use the
    /// default profile when reproducing the paper's tables.
    ///
    /// ```
    /// use kl0::Program;
    /// use psi_machine::{Machine, MachineConfig};
    ///
    /// let src = "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).";
    /// let program = Program::parse(src)?;
    /// let mut fid = Machine::load(&program, MachineConfig::psi())?;
    /// let mut cmp = Machine::load(&program, MachineConfig::psi_compiled())?;
    /// let goal = "app([1,2,3], [4], X)";
    /// assert_eq!(fid.solve(goal, 2)?, cmp.solve(goal, 2)?);
    /// let (f, c) = (fid.stats(), cmp.stats());
    /// assert_eq!(f.steps, c.steps);
    /// assert_eq!(f.modules, c.modules);
    /// assert_eq!(f.branches, c.branches);
    /// // Only the measurement-side numbers differ: no cache model ran.
    /// assert_eq!(c.stall_ns, 0);
    /// assert_eq!(c.cache.total().accesses(), 0);
    /// # Ok::<(), psi_core::PsiError>(())
    /// ```
    pub fn psi_compiled() -> MachineConfig {
        MachineConfig {
            measurement: Measurement::Off,
            ..MachineConfig::psi()
        }
    }
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig::psi()
    }
}

/// One solution of a query: variable bindings in source order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    bindings: Vec<(String, Term)>,
}

impl Solution {
    pub(crate) fn new(bindings: Vec<(String, Term)>) -> Solution {
        Solution { bindings }
    }

    /// The binding of variable `name`, if the query mentioned it.
    pub fn binding(&self, name: &str) -> Option<&Term> {
        self.bindings
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }

    /// All bindings in source order.
    pub fn bindings(&self) -> &[(String, Term)] {
        &self.bindings
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bindings.is_empty() {
            return f.write_str("true");
        }
        for (i, (name, term)) in self.bindings.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{name} = {term}")?;
        }
        Ok(())
    }
}

/// A snapshot of every measured quantity after a run — the raw
/// material for all of the paper's tables.
///
/// Every field is an exact event counter (no floats), so two runs can
/// be compared for bit-identity with `==` — the parallel suite runner
/// relies on this to prove it changes nothing in Tables 2–7.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineStats {
    /// Total microinstruction steps.
    pub steps: u64,
    /// Simulated execution time in nanoseconds (steps × cycle +
    /// cache stalls).
    pub time_ns: u64,
    /// Cache stall portion of the time.
    pub stall_ns: u64,
    /// Per-module step counts (Table 2).
    pub modules: ModuleTally,
    /// Branch-field operation counts (Table 7).
    pub branches: BranchTally,
    /// Work-file access statistics (Table 6).
    pub wf: WfStats,
    /// Cache statistics (Tables 3–5).
    pub cache: CacheStats,
    /// User-defined predicate calls (logical inferences).
    pub user_calls: u64,
    /// Built-in predicate calls.
    pub builtin_calls: u64,
    /// Choice points pushed.
    pub choice_points: u64,
    /// Calls filtered through the first-argument clause index (zero
    /// unless [`MachineConfig::clause_indexing`] is on).
    pub indexed_calls: u64,
    /// Indexed calls whose single surviving candidate was entered
    /// directly, without pushing a choice point.
    pub index_direct_entries: u64,
}

impl MachineStats {
    /// Simulated time in milliseconds.
    ///
    /// ```
    /// use kl0::Program;
    /// use psi_machine::{Machine, MachineConfig};
    ///
    /// let program = Program::parse("p(1).")?;
    /// let mut m = Machine::load(&program, MachineConfig::psi())?;
    /// m.solve("p(X)", 1)?;
    /// let stats = m.stats();
    /// // 200 ns per microstep plus cache stalls.
    /// assert_eq!(
    ///     stats.time_ns,
    ///     stats.steps * 200 + stats.stall_ns,
    /// );
    /// assert!(stats.time_ms() > 0.0);
    /// # Ok::<(), psi_core::PsiError>(())
    /// ```
    pub fn time_ms(&self) -> f64 {
        self.time_ns as f64 / 1e6
    }

    /// Logical inferences per second (user calls over time), the
    /// paper's KLIPS metric (§2.3 targets 30K LIPS).
    pub fn lips(&self) -> f64 {
        if self.time_ns == 0 {
            return 0.0;
        }
        self.user_calls as f64 / (self.time_ns as f64 / 1e9)
    }

    /// Built-in share of all predicate calls, percent (§3.2 reports
    /// 82% for WINDOW, 65% for BUP).
    pub fn builtin_call_share_pct(&self) -> f64 {
        let total = (self.user_calls + self.builtin_calls).max(1) as f64;
        self.builtin_calls as f64 * 100.0 / total
    }

    /// Cache-command rate per microstep, percent (Table 3 "total").
    pub fn memory_access_rate_pct(&self) -> f64 {
        self.cache.total().accesses() as f64 * 100.0 / self.steps.max(1) as f64
    }
}

// ------------------------------------------------------------------
// internal state
// ------------------------------------------------------------------

/// Execution status of a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcStatus {
    Runnable,
    Done,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Regs {
    pub code_ptr: u32,
    pub env: usize,
}

/// A clause activation (the PSI keeps the current one in the WF and
/// saves it to the control stack as necessary, §2.1).
///
/// All fields are scalar, so the struct is `Copy`: the execution
/// engine snapshots activations by value instead of heap-cloning them
/// on every call, return and backtrack.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Activation {
    pub locals_base: u32,
    pub nlocals: u16,
    /// WF frame buffer index while the locals are buffered.
    pub buffer: Option<usize>,
    /// Control-stack offset of the 10-word environment frame, once
    /// saved.
    pub materialized: Option<u32>,
    pub cont_code: u32,
    pub cont_env: Option<usize>,
    /// `cps.len()` before this predicate's own choice point — the
    /// barrier cut restores.
    pub cut_barrier: usize,
    /// `cps.len()` at activation entry (after the own choice point,
    /// if any) — newer choice points protect the activation.
    pub entry_cps: usize,
}

/// A choice point (10-word control frame on the real machine).
///
/// The goal arguments live in the per-process [`Proc::arg_arena`]
/// (copy-on-backtrack arena): the choice point records only their
/// `(start, len)` extent, which keeps the struct `Copy` and the hot
/// loop free of per-choice-point heap allocation. Arena space is
/// reclaimed exactly when the choice point is popped (cut, trust, or
/// exhaustion), mirroring the machine's own control-stack discipline.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChoicePoint {
    pub pred: u32,
    /// Candidate bucket this choice point iterates:
    /// [`crate::codegen::BUCKET_LINEAR`] (all clauses, the
    /// paper-faithful profile), [`crate::codegen::BUCKET_VAR_ONLY`],
    /// or a constant-key bucket id. `next_clause` is a position into
    /// the bucket's candidate list (equal to the clause index for the
    /// linear bucket).
    pub bucket: u32,
    pub next_clause: usize,
    /// First argument word in the owning process's `arg_arena`.
    pub args_start: u32,
    /// Number of argument words (predicate arity fits in a byte).
    pub args_len: u8,
    pub cont_code: u32,
    pub cont_env: Option<usize>,
    pub barrier: usize,
    pub saved_local_top: u32,
    pub saved_global_top: u32,
    pub saved_trail_top: u32,
    pub saved_envs_len: usize,
    pub ctl_addr: u32,
}

#[derive(Debug, Clone)]
pub(crate) struct QueryState {
    pub cells: Vec<Address>,
    pub vars: Vec<String>,
}

#[derive(Debug, Clone)]
pub(crate) struct Proc {
    pub pid: ProcessId,
    pub status: ProcStatus,
    pub regs: Regs,
    pub envs: Vec<Activation>,
    pub cps: Vec<ChoicePoint>,
    pub local_top: u32,
    pub global_top: u32,
    pub ctl_top: u32,
    pub trail_top: u32,
    /// Env ids currently holding a WF frame buffer, oldest first.
    pub buffered: Vec<usize>,
    /// Saved goal arguments of all live choice points, in stack
    /// order. Each [`ChoicePoint`] owns the `args_start..+args_len`
    /// slice; the arena is truncated back whenever its choice point is
    /// popped.
    pub arg_arena: Vec<Word>,
    /// Environment frames saved to the control stack, as `(frame
    /// base, env id)` in push order (bases strictly increasing). Lets
    /// backtracking clear the saved-frame marks of discarded frames by
    /// popping entries at or above the restored control top, instead
    /// of rescanning every live activation — the rescan was O(depth)
    /// per backtrack and dominated deep-recursion workloads. Entries
    /// whose activation died without its frame being reclaimed go
    /// stale; consumers verify `envs[id].materialized == Some(base)`
    /// before clearing.
    pub mat_stack: Vec<(u32, u32)>,
    /// Host-side trail image, used only by the compiled lane. The
    /// fidelity lane keeps the trail in simulated `TrailStack`
    /// memory; the compiled lane charges the same trail microsteps
    /// (via packets) but stores entries here, since nothing in the
    /// deterministic view ever observes trail *memory* contents —
    /// only the restores it drives. Invariant while compiled:
    /// `trail.len() == trail_top as usize`.
    pub trail: Vec<Word>,
    pub query: Option<QueryState>,
}

/// Pre-reserved capacities for the per-process control structures.
/// Generous enough that none of the paper's workloads ever grows them
/// mid-run — the hot loop then performs zero host heap allocation
/// (asserted by [`Machine::hot_path_alloc_count`] in tests). Growth
/// past a reservation still works; it is merely counted.
/// Sized for the deepest Table 1 row (the Lisp interpreter running
/// tarai3 keeps thousands of activations, saved frames and choice
/// points live at once); `tests/three_lane.rs` asserts zero growth
/// across the whole suite.
const ENVS_RESERVE: usize = 8192;
const CPS_RESERVE: usize = 8192;
const BUFFERED_RESERVE: usize = 8;
const ARG_ARENA_RESERVE: usize = 32768;
const TRAIL_RESERVE: usize = 32768;
/// Scratch argument buffers: predicate arity fits in a `u8`, so 256
/// words can never be outgrown.
const ARGS_RESERVE: usize = 256;

impl Proc {
    fn new(pid: ProcessId) -> Proc {
        Proc {
            pid,
            status: ProcStatus::Done,
            regs: Regs {
                code_ptr: 0,
                env: 0,
            },
            envs: Vec::with_capacity(ENVS_RESERVE),
            cps: Vec::with_capacity(CPS_RESERVE),
            local_top: 0,
            global_top: 0,
            ctl_top: 0,
            trail_top: 0,
            buffered: Vec::with_capacity(BUFFERED_RESERVE),
            arg_arena: Vec::with_capacity(ARG_ARENA_RESERVE),
            mat_stack: Vec::with_capacity(ENVS_RESERVE),
            trail: Vec::with_capacity(TRAIL_RESERVE),
            query: None,
        }
    }
}

/// Interned symbol ids for arithmetic functors (plus the list functor
/// `.` used by `functor/3`), resolved at load time so the interpreter
/// never interns — and therefore never mutates a possibly-shared
/// code image — at run time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArithSyms {
    pub plus: SymbolId,
    pub minus: SymbolId,
    pub star: SymbolId,
    pub int_div: SymbolId,
    pub slash: SymbolId,
    pub modulo: SymbolId,
    pub rem: SymbolId,
    pub shl: SymbolId,
    pub shr: SymbolId,
    pub band: SymbolId,
    pub bor: SymbolId,
    pub bxor: SymbolId,
    pub abs: SymbolId,
    pub min: SymbolId,
    pub max: SymbolId,
    pub dot: SymbolId,
}

/// The simulated PSI machine.
///
/// See the [crate-level documentation](crate) for the model and an
/// example.
#[derive(Debug, Clone)]
pub struct Machine {
    pub(crate) config: MachineConfig,
    /// The compiled code image, shared copy-on-write between a
    /// template machine and its forks ([`Machine::fork`]). Immutable
    /// while shared; the mutation sites (query compilation,
    /// incremental consult) go through [`Arc::make_mut`], so the
    /// first mutation after a fork detaches a private copy and
    /// earlier sharers are never disturbed.
    pub(crate) image: Arc<CodeImage>,
    pub(crate) loaded_words: u32,
    pub(crate) bus: MemBus,
    pub(crate) wf: WorkFile,
    pub(crate) tally: MicroTally,
    /// Deferred charge-packet counts, one `u64` per (packet, phase)
    /// pair (compiled lane). A packet charge bumps one counter here
    /// instead of applying the packet's tally deltas eagerly; the
    /// deltas are materialized lazily by [`Machine::effective_tally`]
    /// whenever the tally is observed. Exact because the per-phase
    /// counter additions commute — only the rotor phases are order
    /// sensitive, and those stay live in `tally` itself.
    pub(crate) charge_counts: Box<[u64]>,
    /// Steps represented in `charge_counts` but not yet folded into
    /// `tally`, kept as a running scalar so step budgets and
    /// `total_steps` never need a flush.
    pub(crate) deferred_steps: u64,
    /// The process-wide charge-packet table, hoisted out of its
    /// `OnceLock` at load so the hot charge sites pay a plain field
    /// read instead of an atomic-ordered initialization check.
    pub(crate) charges: &'static ChargeTable,
    pub(crate) heap_top: u32,
    pub(crate) procs: Vec<Proc>,
    pub(crate) cur: usize,
    pub(crate) output: String,
    pub(crate) user_calls: u64,
    pub(crate) builtin_calls: u64,
    /// Choice points pushed (host-side counter; never charges
    /// microsteps, so the paper-faithful profile is unaffected).
    pub(crate) cp_pushed: u64,
    /// Calls that consulted the first-argument index.
    pub(crate) indexed_calls: u64,
    /// Indexed calls entered directly (single candidate, no choice
    /// point).
    pub(crate) index_direct: u64,
    pub(crate) arith: ArithSyms,
    /// Reusable buffer for goal-argument construction (taken with
    /// `mem::take` around calls that need `&mut self`).
    pub(crate) scratch_args: Vec<Word>,
    /// Reusable buffer for replaying choice-point arguments out of the
    /// argument arena on backtracking.
    pub(crate) scratch_cp_args: Vec<Word>,
    /// Reusable buffer for copying a fused op's pre-classified
    /// arguments out of the shared [`FusedProgram`] (compiled lane) —
    /// see `build_args_fused`.
    pub(crate) scratch_pargs: Vec<PackedArg>,
    /// Reusable work stack for iterative unification and `==/2`
    /// structural comparison — one unification runs per head argument,
    /// so a fresh `Vec` there would malloc on every dispatch.
    pub(crate) scratch_unify: Vec<(Word, Word)>,
    /// Host heap (re)allocations taken by the interpreter hot path —
    /// see [`Machine::hot_path_alloc_count`].
    pub(crate) hot_allocs: u64,
    /// Step count at the start of the current run; budgets meter the
    /// delta, not the machine-lifetime total.
    pub(crate) run_base_steps: u64,
    /// When the current run started (armed only when a wall-clock
    /// deadline is configured, so unlimited runs never read the
    /// clock).
    pub(crate) run_started: Option<Instant>,
    /// Dispatches left until the next governor check.
    pub(crate) governor_countdown: u32,
    /// Live observability counters/histograms. Fixed-size arrays, so
    /// recording never allocates; module steps and cache counters are
    /// mirrored in at snapshot time ([`Machine::metrics_snapshot`])
    /// instead of being double-counted on the hot path.
    pub(crate) metrics: MetricsRegistry,
    /// Stall time at the start of the current run (for the per-run
    /// stall histogram).
    pub(crate) run_base_stall_ns: u64,
    /// The resource limits the machine was loaded with (the pool /
    /// server defaults). [`Machine::recycle`] restores these, so
    /// per-session budgets tightened via [`Machine::set_limits`] can
    /// never leak into the next session of a pooled machine.
    pub(crate) base_limits: ResourceLimits,
    /// Fast-lane flag hoisted from `config.measurement` at load
    /// ([`Measurement::Off`]), so the dispatch loop and the memory
    /// primitives pay one predictable branch.
    pub(crate) lane_compiled: bool,
    /// The fast lane's fused program: one pre-classified op per
    /// loaded code word plus the side array of pre-classified goal
    /// arguments. Grown append-only by [`Machine::sync_code`] on
    /// incremental consult, alongside the `ClauseIndex`, and shared
    /// copy-on-write with forks behind an [`Arc`], like the image.
    /// Empty in the fidelity lane.
    pub(crate) fused: Arc<FusedProgram>,
    /// When set, [`Machine::bind`] trails every binding regardless of
    /// choice-point age. `retract/1` raises it around its trial
    /// unifications, which must be undoable even when no choice point
    /// guards the bound cells. Always lowered again before the
    /// builtin returns.
    pub(crate) force_trail: bool,
    /// Clause-database writes (`assert`/`asserta`/`retract`) made at
    /// run time since load — see [`Machine::clause_db_writes`].
    pub(crate) db_writes: u64,
}

/// Internal control-flow outcome of dispatching one goal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    Continue,
    Backtrack,
    Solution,
    Yield,
}

impl Machine {
    /// Loads a program into a fresh machine.
    ///
    /// # Errors
    ///
    /// Propagates parser/lowering/compilation errors.
    pub fn load(program: &Program, config: MachineConfig) -> Result<Machine> {
        let lowered = LoweredProgram::lower(program)?;
        let mut image = CodeImage::compile(&lowered)?;
        let arith = ArithSyms {
            plus: image.symbols_mut().intern("+"),
            minus: image.symbols_mut().intern("-"),
            star: image.symbols_mut().intern("*"),
            int_div: image.symbols_mut().intern("//"),
            slash: image.symbols_mut().intern("/"),
            modulo: image.symbols_mut().intern("mod"),
            rem: image.symbols_mut().intern("rem"),
            shl: image.symbols_mut().intern("<<"),
            shr: image.symbols_mut().intern(">>"),
            band: image.symbols_mut().intern("/\\"),
            bor: image.symbols_mut().intern("\\/"),
            bxor: image.symbols_mut().intern("xor"),
            abs: image.symbols_mut().intern("abs"),
            min: image.symbols_mut().intern("min"),
            max: image.symbols_mut().intern("max"),
            dot: image.symbols_mut().intern("."),
        };
        let mut bus = match &config.cache {
            Some(c) => MemBus::with_cache(*c),
            None => MemBus::without_cache(),
        };
        if config.trace_memory {
            bus.enable_trace();
        }
        if config.trace_events {
            bus.set_events_enabled(true);
        }
        // Lane selection happens exactly once, here: the bus, the work
        // file and the dispatch loop all read a pre-resolved flag
        // afterwards.
        bus.set_measurement(config.measurement);
        let mut wf = WorkFile::new();
        wf.set_measurement(config.measurement);
        let lane_compiled = !config.measurement.is_full();
        let base_limits = config.limits.clone();
        let mut machine = Machine {
            config,
            image: Arc::new(image),
            loaded_words: 0,
            bus,
            wf,
            tally: MicroTally::new(),
            charge_counts: vec![0; ChargeTable::PACKETS * CHARGE_PHASES].into_boxed_slice(),
            deferred_steps: 0,
            charges: charge_table(),
            heap_top: 0,
            procs: vec![Proc::new(ProcessId::ZERO)],
            cur: 0,
            output: String::new(),
            user_calls: 0,
            builtin_calls: 0,
            cp_pushed: 0,
            indexed_calls: 0,
            index_direct: 0,
            arith,
            scratch_args: Vec::with_capacity(ARGS_RESERVE),
            scratch_cp_args: Vec::with_capacity(ARGS_RESERVE),
            scratch_pargs: Vec::with_capacity(ARGS_RESERVE),
            scratch_unify: Vec::with_capacity(ARGS_RESERVE),
            hot_allocs: 0,
            run_base_steps: 0,
            run_started: None,
            governor_countdown: GOVERNOR_INTERVAL,
            metrics: MetricsRegistry::new(),
            run_base_stall_ns: 0,
            base_limits,
            lane_compiled,
            fused: Arc::new(FusedProgram::default()),
            force_trail: false,
            db_writes: 0,
        };
        machine.sync_code()?;
        Ok(machine)
    }

    /// Forks a consulted, never-run machine: the compiled code image
    /// (heap words, predicate table, clause index, symbols) and the
    /// fused program are shared immutably behind [`Arc`]s, while the
    /// run state — simulated memory, work file, stacks, registers,
    /// counters, governor budgets — is copied or created fresh. The
    /// fork solves bit-identically to a machine freshly loaded from
    /// the same source with the same configuration (regression-tested
    /// across all Table 1 rows, both lanes and both indexing
    /// profiles), and keeps the hot path allocation-free: its
    /// per-process structures are built with the same reservations as
    /// a fresh load.
    ///
    /// Forking is restricted to *templates*: machines that have been
    /// consulted but never compiled or run a query. Query compilation
    /// appends a `$queryN` entry stub to the image, so a machine that
    /// has solved (even a recycled one) is no longer a pristine image
    /// and forking it would not be bit-identical to a fresh consult.
    ///
    /// # Errors
    ///
    /// [`psi_core::PsiError::ForkAfterRun`] when the machine has
    /// compiled a query or executed any microsteps.
    ///
    /// ```
    /// use kl0::Program;
    /// use psi_machine::{Machine, MachineConfig};
    ///
    /// let program = Program::parse("p(1). p(2).")?;
    /// let template = Machine::load(&program, MachineConfig::psi())?;
    /// let mut fork = template.fork()?;
    /// assert_eq!(fork.solve("p(X)", 9)?.len(), 2);
    /// // The template is still pristine and can keep forking.
    /// assert_eq!(template.fork()?.solve("p(X)", 9)?.len(), 2);
    /// // The run machine itself is no longer forkable.
    /// assert!(fork.fork().is_err());
    /// # Ok::<(), psi_core::PsiError>(())
    /// ```
    pub fn fork(&self) -> Result<Machine> {
        if !self.is_pristine() {
            return Err(PsiError::ForkAfterRun {
                detail: format!(
                    "machine has compiled {} queries and executed {} steps; \
                     fork from a consulted, never-run template",
                    self.image.query_count(),
                    self.total_steps(),
                ),
            });
        }
        Ok(Machine {
            config: self.config.clone(),
            image: Arc::clone(&self.image),
            loaded_words: self.loaded_words,
            bus: self.bus.clone(),
            wf: self.wf.clone(),
            tally: MicroTally::new(),
            charge_counts: vec![0; ChargeTable::PACKETS * CHARGE_PHASES].into_boxed_slice(),
            deferred_steps: 0,
            charges: self.charges,
            heap_top: self.heap_top,
            // Fresh processes, not clones: cloning a `Vec` keeps only
            // its length, and a pristine template's stacks are empty —
            // a clone would silently drop the capacity reservations
            // that keep `hot_path_alloc_count` at zero.
            procs: vec![Proc::new(ProcessId::ZERO)],
            cur: 0,
            output: String::new(),
            user_calls: 0,
            builtin_calls: 0,
            cp_pushed: 0,
            indexed_calls: 0,
            index_direct: 0,
            arith: self.arith,
            scratch_args: Vec::with_capacity(ARGS_RESERVE),
            scratch_cp_args: Vec::with_capacity(ARGS_RESERVE),
            scratch_pargs: Vec::with_capacity(ARGS_RESERVE),
            scratch_unify: Vec::with_capacity(ARGS_RESERVE),
            hot_allocs: 0,
            run_base_steps: 0,
            run_started: None,
            governor_countdown: GOVERNOR_INTERVAL,
            metrics: MetricsRegistry::new(),
            run_base_stall_ns: 0,
            base_limits: self.base_limits.clone(),
            lane_compiled: self.lane_compiled,
            fused: Arc::clone(&self.fused),
            force_trail: false,
            db_writes: self.db_writes,
        })
    }

    /// [`Machine::fork`] with a different cache attachment: the fork
    /// keeps the shared code image and copied run state but drives its
    /// memory accesses through `cache` (`None` = the cache-less `Tnc`
    /// baseline). This is the sweep-cell primitive: consult a workload
    /// once, then fork it under every cache geometry instead of
    /// re-consulting per cell. Only meaningful in the fidelity lane —
    /// the fast lane never drives the cache model.
    ///
    /// # Errors
    ///
    /// See [`Machine::fork`].
    pub fn fork_with_cache(&self, cache: Option<CacheConfig>) -> Result<Machine> {
        let mut fork = self.fork()?;
        fork.config.cache = cache;
        fork.bus.set_cache(cache);
        Ok(fork)
    }

    /// Is this machine a consulted-but-never-run template — eligible
    /// for [`Machine::fork`] and for snapshotting? True after `load`
    /// and after incremental [`Machine::consult`]s; false once any
    /// query has been compiled (query entry stubs make the image
    /// diverge from a fresh consult) or any microstep has executed.
    /// [`Machine::recycle`] does *not* restore pristineness.
    pub fn is_pristine(&self) -> bool {
        self.image.query_count() == 0 && self.total_steps() == 0
    }

    pub(crate) fn total_steps(&self) -> u64 {
        self.tally.steps() + self.deferred_steps
    }

    /// The tally with all deferred charge-packet counts materialized —
    /// the observation point of the fast lane's lazy accounting.
    /// In the fidelity lane `charge_counts` stays all-zero and this
    /// is a plain clone.
    pub(crate) fn effective_tally(&self) -> MicroTally {
        let mut t = self.tally.clone();
        if self.deferred_steps > 0 {
            self.charges.apply_deferred(&mut t, &self.charge_counts);
        }
        t
    }

    /// Copies newly compiled code words into the simulated heap and,
    /// in the fast lane, extends the fused program over them.
    /// Incremental consult only ever appends code (the same
    /// append-only pass that grows the first-argument `ClauseIndex`),
    /// so existing fused ops stay valid. Copy-on-write: the first
    /// consult after a fork detaches a private fused program.
    pub(crate) fn sync_code(&mut self) -> Result<()> {
        let len = self.image.heap().len() as u32;
        for off in self.loaded_words..len {
            let w = self.image.heap()[off as usize];
            self.bus.poke(Address::heap(off), w)?;
        }
        if self.lane_compiled && self.fused.ops.len() != len as usize {
            Arc::make_mut(&mut self.fused).extend(self.image.heap());
        }
        self.loaded_words = len;
        self.heap_top = self.heap_top.max(len);
        Ok(())
    }

    /// Solves `goal_src`, returning up to `max_solutions` solutions.
    /// Prior run state (stacks) is discarded; loaded code and
    /// accumulated statistics are kept.
    ///
    /// `max_solutions == 0` requests nothing and does nothing: the
    /// goal is still parsed and compiled (so syntax and compile errors
    /// surface), but no execution happens — zero microsteps are
    /// charged, prior run state is left untouched, and the result is
    /// an empty solution list. Runtime conditions (undefined
    /// predicates, budget exhaustion) are therefore *not* detected
    /// with a zero request.
    ///
    /// A [`psi_core::PsiError::ResourceExhausted`] return (when
    /// [`MachineConfig::limits`] sets budgets) leaves the machine
    /// reusable: the next solve starts from a clean run state.
    ///
    /// # Errors
    ///
    /// Propagates syntax errors in the goal, undefined-predicate and
    /// resource-budget errors during execution.
    pub fn solve(&mut self, goal_src: &str, max_solutions: usize) -> Result<Vec<Solution>> {
        let goal = kl0::parser::parse_term(goal_src)?;
        self.solve_term(&goal, max_solutions)
    }

    /// Like [`Machine::solve`] but takes a parsed term.
    ///
    /// # Errors
    ///
    /// See [`Machine::solve`].
    pub fn solve_term(&mut self, goal: &Term, max_solutions: usize) -> Result<Vec<Solution>> {
        let qc = Arc::make_mut(&mut self.image).compile_query(goal)?;
        self.sync_code()?;
        if max_solutions == 0 {
            // Zero solutions requested: validated above, nothing to
            // execute (see the `solve` contract).
            return Ok(Vec::new());
        }
        self.reset_run_state();
        self.start_query(0, &qc)?;
        let out = self.run(max_solutions);
        self.record_run_metrics();
        out
    }

    /// Spawns a background process executing `goal_src`. Background
    /// processes run only when some process executes the `yield/0`
    /// built-in (§2.1's cooperative multi-process model). Call before
    /// [`Machine::solve`]: solving resets run state, so spawn order is
    /// spawn-then-solve within one [`Machine::run_session`].
    ///
    /// # Errors
    ///
    /// Fails if four processes already exist or the goal is malformed.
    pub fn spawn_background(&mut self, goal_src: &str) -> Result<()> {
        if self.procs.len() >= ProcessId::MAX_PROCESSES {
            return Err(PsiError::Compile {
                detail: "too many processes (max 4)".into(),
            });
        }
        let goal = kl0::parser::parse_term(goal_src)?;
        let qc = Arc::make_mut(&mut self.image).compile_query(&goal)?;
        self.sync_code()?;
        let pid = ProcessId::new(self.procs.len() as u8);
        self.procs.push(Proc::new(pid));
        let idx = self.procs.len() - 1;
        self.start_query(idx, &qc)?;
        Ok(())
    }

    /// Runs a whole session: spawns the given background goals, then
    /// solves `main_goal`. This is the WINDOW-style workload driver.
    ///
    /// # Errors
    ///
    /// See [`Machine::solve`] and [`Machine::spawn_background`].
    pub fn run_session(
        &mut self,
        main_goal: &str,
        background_goals: &[&str],
    ) -> Result<Vec<Solution>> {
        let goal = kl0::parser::parse_term(main_goal)?;
        let qc = Arc::make_mut(&mut self.image).compile_query(&goal)?;
        self.sync_code()?;
        self.reset_run_state();
        for bg in background_goals {
            self.spawn_background(bg)?;
        }
        self.start_query(0, &qc)?;
        let out = self.run(1);
        self.record_run_metrics();
        out
    }

    fn reset_run_state(&mut self) {
        // A fresh run records a fresh trace: drop entries left over
        // from a previous query so a PMMS replay sees one monotonic
        // run instead of an ever-growing concatenation. The
        // observability event ring gets the same treatment — a pooled
        // machine must hand its next session zero stale events.
        let _ = self.bus.take_trace();
        let _ = self.bus.take_events();
        for p in 0..self.procs.len() {
            let pid = self.procs[p].pid;
            for area in [
                Area::LocalStack,
                Area::GlobalStack,
                Area::ControlStack,
                Area::TrailStack,
            ] {
                self.bus.memory_mut().truncate(pid, area, 0);
            }
        }
        self.procs.truncate(1);
        self.procs[0] = Proc::new(ProcessId::ZERO);
        self.cur = 0;
        // Arm the resource governor for the new run: budgets meter
        // this run only, and the clock is read only when a deadline is
        // actually configured.
        self.run_base_steps = self.total_steps();
        self.run_base_stall_ns = self.bus.stall_ns();
        self.run_started = self.config.limits.deadline.map(|_| Instant::now());
        self.governor_countdown = GOVERNOR_INTERVAL;
    }

    /// Folds the finished (or aborted) run into the per-run metrics
    /// histograms.
    fn record_run_metrics(&mut self) {
        let steps = self.total_steps().saturating_sub(self.run_base_steps);
        let stall = self.bus.stall_ns().saturating_sub(self.run_base_stall_ns);
        self.metrics.observe(Histo::RunSteps, steps);
        self.metrics.observe(Histo::RunStallNs, stall);
    }

    /// Resets all measurement state (step tallies, WF stats, cache
    /// stats, stall time, call counters, output) without touching
    /// loaded code — like the paper's breakpoint-delimited
    /// measurements.
    pub fn reset_measurement(&mut self) {
        self.tally = MicroTally::new();
        self.charge_counts.fill(0);
        self.deferred_steps = 0;
        self.wf.reset_stats();
        self.bus.reset_measurement();
        self.user_calls = 0;
        self.builtin_calls = 0;
        self.cp_pushed = 0;
        self.indexed_calls = 0;
        self.index_direct = 0;
        self.output.clear();
        self.metrics.reset();
        // The step counters restart from zero; rebase the step budget
        // so a mid-run reset cannot underflow the consumed delta.
        self.run_base_steps = 0;
        self.run_base_stall_ns = 0;
    }

    // ------------------------------------------------ session lifecycle

    /// Adds the clauses of `src` to the loaded image (incremental
    /// consult). Compilation is append-only: existing code words,
    /// fused ops and clause-index buckets stay valid, new
    /// clauses append after earlier clauses of the same predicates.
    /// This is the `psi-server` consult path, so malformed input must
    /// (and does) surface as typed errors — see the malformed-input
    /// property tests.
    ///
    /// # Errors
    ///
    /// [`psi_core::PsiError::Syntax`] and
    /// [`psi_core::PsiError::Compile`] on malformed input, including
    /// redefinition of a built-in predicate.
    ///
    /// ```
    /// use kl0::Program;
    /// use psi_machine::{Machine, MachineConfig};
    ///
    /// let mut m = Machine::load(&Program::parse("p(1).")?, MachineConfig::psi())?;
    /// m.consult("p(2). q(X) :- p(X).")?;
    /// assert_eq!(m.solve("q(X)", 5)?.len(), 2);
    /// # Ok::<(), psi_core::PsiError>(())
    /// ```
    pub fn consult(&mut self, src: &str) -> Result<()> {
        let program = Program::parse(src)?;
        let lowered = LoweredProgram::lower_from(&program, self.image.aux_base())?;
        Arc::make_mut(&mut self.image).add_program(&lowered)?;
        self.sync_code()
    }

    /// Returns the machine to a like-fresh state for its next session
    /// while keeping the expensive parts warm: loaded code, the
    /// fused program and the clause index survive; run state,
    /// measurement state, metrics, buffered output, memory-trace
    /// entries and observability events are all dropped. After
    /// `recycle`, solving a goal yields bit-identical solutions and
    /// statistics to a freshly loaded machine — the warm-pool contract
    /// `psi-server` relies on (and a regression test asserts).
    pub fn recycle(&mut self) {
        self.reset_run_state();
        self.reset_measurement();
        self.hot_allocs = 0;
        // Per-session budgets must not outlive the session: restore
        // the limits the machine was loaded with (the pool / server
        // defaults), so a tightened budget can never leak into the
        // next tenant's first run.
        self.config.limits = self.base_limits.clone();
    }

    /// Replaces the per-run resource budgets. Takes effect at the next
    /// run boundary (the budgets of a run are armed when it starts),
    /// so a server can re-tier a pooled machine per session without
    /// reloading it. The replacement lasts until the next
    /// [`Machine::recycle`], which restores the load-time limits.
    pub fn set_limits(&mut self, limits: ResourceLimits) {
        self.config.limits = limits;
    }

    /// A snapshot of all measured quantities.
    ///
    /// Cheap (`MachineStats` is `Copy`, no heap clone) and callable
    /// at any point; solving again resets the counters first, so a
    /// snapshot describes the most recent solve only.
    ///
    /// ```
    /// use kl0::Program;
    /// use psi_machine::{Machine, MachineConfig};
    ///
    /// let program = Program::parse("p(1). p(2).")?;
    /// let mut m = Machine::load(&program, MachineConfig::psi())?;
    /// m.solve("p(X)", 2)?;
    /// let stats = m.stats();
    /// assert!(stats.steps > 0);
    /// assert_eq!(stats.user_calls, 1);
    /// assert_eq!(stats.choice_points, 1); // p/2 has two clauses
    /// assert_eq!(stats.indexed_calls, 0); // indexing is off by default
    /// # Ok::<(), psi_core::PsiError>(())
    /// ```
    pub fn stats(&self) -> MachineStats {
        let tally = self.effective_tally();
        let steps = tally.steps();
        let stall = self.bus.stall_ns();
        MachineStats {
            steps,
            time_ns: steps * self.config.cycle_ns + stall,
            stall_ns: stall,
            modules: tally.modules,
            branches: tally.branches,
            wf: *self.wf.stats(),
            // `CacheStats` is `Copy` (fixed per-area arrays), so the
            // snapshot is a plain bit copy — no per-run heap clone.
            cache: *self.bus.cache_stats(),
            user_calls: self.user_calls,
            builtin_calls: self.builtin_calls,
            choice_points: self.cp_pushed,
            indexed_calls: self.indexed_calls,
            index_direct_entries: self.index_direct,
        }
    }

    /// Host heap (re)allocations performed by the interpreter hot path
    /// since load: growth of the activation stack, the choice-point
    /// stack, the argument arena, or the argument scratch buffers.
    /// Stays zero on the paper's workloads because those structures
    /// are pre-reserved — the regression tests assert exactly that.
    pub fn hot_path_alloc_count(&self) -> u64 {
        self.hot_allocs
    }

    /// Clause-database writes (`assert/1`, `asserta/1`, `assertz/1`,
    /// successful `retract/1`) made at run time since load. Unlike
    /// run state, such writes survive [`Machine::recycle`], so a warm
    /// pool compares this count to its value at checkout to tell
    /// whether the machine still holds only the consulted program.
    pub fn clause_db_writes(&self) -> u64 {
        self.db_writes
    }

    /// Text written by `write/1`, `nl/0` and `tab/1`.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Takes the recorded memory trace (requires
    /// [`MachineConfig::trace_memory`] or
    /// [`Machine::set_trace_memory`]). Returns an empty vector when
    /// tracing is disabled — non-tracing runs buffer nothing.
    pub fn take_trace(&mut self) -> Vec<TraceEntry> {
        self.bus.take_trace()
    }

    /// Enables or disables COLLECT-style memory tracing at runtime.
    /// Tracing is off by default ([`MachineConfig::psi`]); while off,
    /// the memory bus records nothing and pays only a branch per
    /// access. Disabling discards any recorded entries.
    pub fn set_trace_memory(&mut self, enabled: bool) {
        self.config.trace_memory = enabled;
        self.bus.set_trace_enabled(enabled);
    }

    /// The live observability registry: counters recorded by the
    /// interpreter's hooks so far (dispatches, backtracks, solutions,
    /// governor activity). Module steps and cache counters are *not*
    /// in here — they stay in their single-source tallies and are
    /// mirrored in by [`Machine::metrics_snapshot`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Freezes a complete metrics snapshot: the live registry plus
    /// mirrors of the per-module step tally (Table 2 raw counts) and
    /// the cache statistics (Tables 3–5 raw counts), so one `Copy`
    /// struct carries every measured quantity. With the `psi-obs`
    /// crate feature `noop` the snapshot is all zeros.
    ///
    /// ```
    /// use kl0::Program;
    /// use psi_machine::{Machine, MachineConfig};
    /// use psi_obs::Counter;
    ///
    /// let program = Program::parse("p(1). p(2).")?;
    /// let mut m = Machine::load(&program, MachineConfig::psi())?;
    /// m.solve("p(X)", 2)?;
    /// let snap = m.metrics_snapshot();
    /// assert_eq!(snap.get(Counter::Solutions), 2);
    /// assert_eq!(snap.get(Counter::ChoicePoints), m.stats().choice_points);
    /// # Ok::<(), psi_core::PsiError>(())
    /// ```
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut reg = self.metrics;
        let tally = self.effective_tally();
        for m in InterpModule::ALL {
            reg.add_module_steps(m.index(), tally.modules.count(m));
        }
        let cache = self.bus.cache_stats();
        let t = cache.total();
        reg.add(Counter::CacheHits, t.hits());
        reg.add(Counter::CacheMisses, t.misses());
        reg.add(Counter::CacheReads, t.reads);
        reg.add(Counter::CacheWrites, t.writes);
        reg.add(Counter::CacheWriteStacks, t.write_stacks);
        reg.add(Counter::Writebacks, cache.writebacks);
        reg.add(Counter::BlockFetches, cache.block_fetches);
        reg.add(Counter::ThroughWrites, cache.through_writes);
        reg.add(Counter::EventsDropped, self.bus.events_dropped());
        reg.add(Counter::ChoicePoints, self.cp_pushed);
        reg.add(Counter::IndexedCalls, self.indexed_calls);
        reg.add(Counter::IndexDirectEntries, self.index_direct);
        reg.snapshot()
    }

    /// Enables or disables observability event tracing at runtime.
    /// Off by default; while off, every emission site (dispatch loop,
    /// memory bus, governor) pays only a branch. Disabling discards
    /// recorded events.
    pub fn set_event_trace(&mut self, enabled: bool) {
        self.config.trace_events = enabled;
        self.bus.set_events_enabled(enabled);
    }

    /// Copies out the recorded observability events in chronological
    /// order and clears the ring. Empty while event tracing is off.
    pub fn take_events(&mut self) -> Vec<ObsEvent> {
        self.bus.take_events()
    }

    /// Events lost to ring overwrite since tracing was enabled or
    /// events were last taken.
    pub fn events_dropped(&self) -> u64 {
        self.bus.events_dropped()
    }

    /// The compiled code image (for inspection and tooling).
    pub fn image(&self) -> &CodeImage {
        &self.image
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    // ----------------------------------------------------------- query

    pub(crate) fn start_query(&mut self, proc_idx: usize, qc: &QueryCode) -> Result<()> {
        let prev = self.cur;
        self.cur = proc_idx;
        self.procs[proc_idx].status = ProcStatus::Runnable;
        let mut cells = Vec::with_capacity(qc.vars.len());
        let mut args = Vec::with_capacity(qc.vars.len());
        for _ in &qc.vars {
            let cell = self.new_global_cell(InterpModule::Control)?;
            args.push(Word::reference(cell));
            cells.push(cell);
        }
        self.procs[proc_idx].query = Some(QueryState {
            cells,
            vars: qc.vars.clone(),
        });
        let entered = self.enter_clause(qc.pred, 0, &args, 0, None, 0)?;
        debug_assert!(entered, "query head has only fresh variables");
        if proc_idx != prev {
            // The process starts suspended: its frame buffers must not
            // stay in the WF, which belongs to the running process.
            self.flush_all_buffers()?;
        }
        self.cur = prev;
        Ok(())
    }

    fn capture_solution(&mut self) -> Result<Solution> {
        // Take the query state out instead of cloning it (decoding
        // needs `&mut self`); put it back before returning.
        let q = self.procs[self.cur]
            .query
            .take()
            .expect("solution only arises from a query");
        let mut bindings = Vec::new();
        let mut failed = None;
        for (name, cell) in q.vars.iter().zip(&q.cells) {
            if name.starts_with('_') {
                continue;
            }
            match self.decode_cell(*cell) {
                Ok(term) => bindings.push((name.clone(), term)),
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        self.procs[self.cur].query = Some(q);
        match failed {
            Some(e) => Err(e),
            None => Ok(Solution::new(bindings)),
        }
    }

    // -------------------------------------------------------- main loop

    pub(crate) fn run(&mut self, max_solutions: usize) -> Result<Vec<Solution>> {
        let mut solutions = Vec::new();
        if max_solutions == 0 {
            return Ok(solutions);
        }
        self.cur = 0;
        loop {
            let flow = self.dispatch()?;
            match flow {
                Flow::Continue => {}
                Flow::Backtrack => {
                    // Deadline boundary check (see
                    // [`ResourceLimits::with_deadline`]): backtracking
                    // can dominate wall time with few dispatches in
                    // between, so the governor interval alone would
                    // not bound the overshoot here.
                    self.check_deadline_boundary()?;
                    if !self.backtrack()? {
                        // current process exhausted
                        if self.cur == 0 {
                            return Ok(solutions);
                        }
                        self.procs[self.cur].status = ProcStatus::Done;
                        self.schedule()?;
                    }
                }
                Flow::Solution => {
                    if self.cur == 0 {
                        solutions.push(self.capture_solution()?);
                        self.metrics.incr(Counter::Solutions);
                        if solutions.len() >= max_solutions {
                            return Ok(solutions);
                        }
                        // Solution boundary: a completed solution is
                        // kept (checked above), but the search for the
                        // next one does not start past the deadline.
                        self.check_deadline_boundary()?;
                        if !self.backtrack()? {
                            return Ok(solutions);
                        }
                    } else {
                        self.procs[self.cur].status = ProcStatus::Done;
                        self.schedule()?;
                    }
                }
                Flow::Yield => {
                    self.schedule()?;
                }
            }
        }
    }

    /// Cooperative scheduler: flush WF state and rotate to the next
    /// runnable process (§2.1 multi-process support).
    fn schedule(&mut self) -> Result<()> {
        // The WF belongs to the running process; switching saves the
        // buffered frames to the local stack.
        self.flush_all_buffers()?;
        let n = self.procs.len();
        for i in 1..=n {
            let cand = (self.cur + i) % n;
            if self.procs[cand].status == ProcStatus::Runnable {
                self.cur = cand;
                // Context switch overhead: reload control registers.
                for _ in 0..6 {
                    self.tally.step_seq(InterpModule::Control, true);
                    self.bus.tick(self.config.cycle_ns);
                }
                return Ok(());
            }
        }
        // No other runnable process: keep running the current one if
        // it is runnable; otherwise we are deadlocked, which cannot
        // happen because the main process drives the session.
        Ok(())
    }

    /// Fetches and dispatches the goal word at the current code
    /// pointer.
    fn dispatch(&mut self) -> Result<Flow> {
        self.governor_tick()?;
        self.metrics.incr(Counter::Dispatches);
        let code_ptr = self.procs[self.cur].regs.code_ptr;
        if self.bus.events_enabled() {
            let dispatch_ev = ObsEvent::dispatch(self.bus.step(), code_ptr);
            self.bus.record_event(dispatch_ev);
        }
        if self.lane_compiled {
            return self.dispatch_fused(code_ptr);
        }
        self.dispatch_fetched(code_ptr)
    }

    /// Fetches the goal word at `code_ptr` through
    /// [`Machine::fetch_code`] and dispatches on its tag: the fidelity
    /// lane's dispatch, and the fast lane's cold fallback for code
    /// pointers the fused program does not classify (past its extent,
    /// or a non-goal word). Both raise the same corrupt-code error.
    fn dispatch_fetched(&mut self, code_ptr: u32) -> Result<Flow> {
        let w = self.fetch_code(InterpModule::Control, BranchOp::CaseOpcode, code_ptr)?;
        match w.tag() {
            psi_core::Tag::Goal => {
                let (pred, nargs) = w.goal_value().expect("Goal word");
                self.handle_user_call(pred, nargs, code_ptr)
            }
            psi_core::Tag::BuiltinGoal => {
                let (id, nargs) = w.goal_value().expect("BuiltinGoal word");
                self.handle_builtin_call(id, nargs, code_ptr)
            }
            psi_core::Tag::CutGoal => self.handle_cut(code_ptr),
            psi_core::Tag::EndBody => self.handle_return(),
            other => Err(PsiError::EvalError {
                detail: format!("corrupt code word ({other}) at heap:{code_ptr:#x}"),
            }),
        }
    }

    /// Resource governor, off the hot path: one decrement and a
    /// predictable branch per dispatch; the actual budget comparisons
    /// (and the clock read, when a deadline is armed) run once every
    /// [`GOVERNOR_INTERVAL`] dispatches. The compiled lane runs this
    /// once per *constituent* of a fused chain — each constituent's
    /// charges land before its own tick — so `ResourceExhausted`'s
    /// `consumed` count and the deadline-overshoot bound are identical
    /// in both lanes.
    #[inline]
    fn governor_tick(&mut self) -> Result<()> {
        self.governor_countdown -= 1;
        if self.governor_countdown == 0 {
            self.governor_slow_check()?;
        }
        Ok(())
    }

    /// The every-[`GOVERNOR_INTERVAL`] half of [`Machine::governor_tick`].
    #[cold]
    fn governor_slow_check(&mut self) -> Result<()> {
        self.governor_countdown = GOVERNOR_INTERVAL;
        self.metrics.incr(Counter::GovernorChecks);
        let check_ev = ObsEvent::governor_check(self.bus.step());
        self.bus.record_event(check_ev);
        if let Err(e) = self.check_budgets() {
            if let PsiError::ResourceExhausted { resource, .. } = &e {
                self.metrics.incr(Counter::GovernorTrips);
                let trip_ev = ObsEvent::governor_trip(self.bus.step(), resource.code());
                self.bus.record_event(trip_ev);
            }
            return Err(e);
        }
        Ok(())
    }

    /// Fast-lane dispatch: runs over the fused op array,
    /// executing superinstruction chains (builtin→next, cut→next)
    /// without returning to the run loop between constituents. Every
    /// constituent still pays the full per-dispatch protocol — governor
    /// tick, dispatch counter, dispatch event, the five fetch
    /// microsteps — so all deterministic statistics stay bit-identical
    /// to the fidelity lane; only the host-side loop overhead is fused
    /// away.
    fn dispatch_fused(&mut self, mut code_ptr: u32) -> Result<Flow> {
        loop {
            let Some(&op) = self.fused.ops.get(code_ptr as usize) else {
                // Past the fused extent (a runtime heap-vector address
                // or a corrupt code pointer): fall back to fetching
                // and decoding the word, which reproduces the fidelity
                // lane's errors.
                self.metrics.incr(psi_obs::Counter::FusedDispatches);
                return self.dispatch_fetched(code_ptr);
            };
            self.metrics.incr(psi_obs::Counter::FusedDispatches);
            let flow = match op.kind {
                FusedKind::Goal => self.exec_goal_fused(op)?,
                FusedKind::Builtin => self.exec_builtin_fused(op)?,
                FusedKind::Cut => {
                    self.charge_packet(&self.charges.code_fetch[InterpModule::Control.index()][0]);
                    self.handle_cut(code_ptr)?
                }
                FusedKind::Return => {
                    self.charge_packet(&self.charges.code_fetch[InterpModule::Control.index()][0]);
                    self.handle_return()?
                }
                FusedKind::NotOp => return self.dispatch_fetched(code_ptr),
            };
            if flow != Flow::Continue || op.flags & FUSE_NEXT == 0 {
                return Ok(flow);
            }
            // Chain into the statically fused continuation: repeat the
            // per-dispatch protocol the run loop would have performed.
            self.metrics.incr(psi_obs::Counter::FusionHits);
            self.governor_tick()?;
            self.metrics.incr(Counter::Dispatches);
            code_ptr = self.procs[self.cur].regs.code_ptr;
            if self.bus.events_enabled() {
                let dispatch_ev = ObsEvent::dispatch(self.bus.step(), code_ptr);
                self.bus.record_event(dispatch_ev);
            }
        }
    }

    /// Compares every configured budget against current consumption.
    /// Cold: called once per [`GOVERNOR_INTERVAL`] dispatches. With
    /// the default unlimited config every comparison is a `None`
    /// check and the wall clock is never read.
    #[cold]
    fn check_budgets(&self) -> Result<()> {
        let limits = &self.config.limits;
        let exhausted = |resource, limit: u64, consumed: u64| {
            Err(PsiError::ResourceExhausted {
                resource,
                limit,
                consumed,
            })
        };
        if let Some(max) = limits.max_steps {
            let consumed = self.total_steps().saturating_sub(self.run_base_steps);
            if consumed > max {
                return exhausted(Resource::Steps, max, consumed);
            }
        }
        if let Some(max) = limits.max_heap_words {
            if self.heap_top > max {
                return exhausted(Resource::HeapWords, max as u64, self.heap_top as u64);
            }
        }
        for p in &self.procs {
            let areas = [
                (limits.max_local_words, p.local_top, Resource::LocalWords),
                (limits.max_global_words, p.global_top, Resource::GlobalWords),
                (limits.max_control_words, p.ctl_top, Resource::ControlWords),
                (limits.max_trail_words, p.trail_top, Resource::TrailWords),
            ];
            for (limit, top, resource) in areas {
                if let Some(max) = limit {
                    if top > max {
                        return exhausted(resource, max as u64, top as u64);
                    }
                }
            }
        }
        if let (Some(deadline), Some(started)) = (limits.deadline, self.run_started) {
            let elapsed = started.elapsed();
            if elapsed >= deadline {
                return exhausted(
                    Resource::WallClockMs,
                    deadline.as_millis() as u64,
                    elapsed.as_millis() as u64,
                );
            }
        }
        Ok(())
    }

    /// Deadline-only governor check, run at solution and backtrack
    /// boundaries in addition to the periodic per-dispatch check, so
    /// the overshoot bound of [`ResourceLimits::with_deadline`] holds
    /// even in execution segments where dispatches are sparse. With no
    /// deadline configured this is two `Option` loads and a branch —
    /// the clock is never read. Charges no microsteps: the deadline is
    /// a host-side budget, so simulated step totals stay bit-identical
    /// whether or not a deadline is armed.
    fn check_deadline_boundary(&mut self) -> Result<()> {
        let (Some(deadline), Some(started)) = (self.config.limits.deadline, self.run_started)
        else {
            return Ok(());
        };
        let elapsed = started.elapsed();
        if elapsed < deadline {
            return Ok(());
        }
        self.metrics.incr(Counter::GovernorTrips);
        let trip_ev = ObsEvent::governor_trip(self.bus.step(), Resource::WallClockMs.code());
        self.bus.record_event(trip_ev);
        Err(PsiError::ResourceExhausted {
            resource: Resource::WallClockMs,
            limit: deadline.as_millis() as u64,
            consumed: elapsed.as_millis() as u64,
        })
    }
}
