//! Engine glue: run any [`Workload`] on the PSI simulator or the
//! DEC-10 baseline and collect comparable results.
//!
//! Beyond the one-shot runners this module provides the
//! fault-isolated suite layer: [`par_map`]/[`par_map_catch`] contain
//! worker panics per item, and [`run_suite_governed`] turns a whole
//! suite into a [`SuiteReport`] in which every workload lands in
//! exactly one [`Outcome`] — ok, resource-exhausted, timed out,
//! failed, or panicked — so one bad row can never poison the rest.

use crate::Workload;
use dec10::{DecConfig, DecMachine, DecStats};
use kl0::Program;
use psi_core::{Measurement, PsiError, Resource, Result};
use psi_machine::{Machine, MachineConfig, MachineStats};
use std::panic::{self, AssertUnwindSafe};
use std::time::Duration;

/// Result of a PSI run.
#[derive(Debug, Clone)]
pub struct PsiRun {
    /// Solutions rendered to text (engine-neutral comparison form).
    pub solutions: Vec<String>,
    /// Full machine statistics.
    pub stats: MachineStats,
}

/// Result of a DEC-10 baseline run.
#[derive(Debug, Clone)]
pub struct DecRun {
    /// Solutions rendered to text.
    pub solutions: Vec<String>,
    /// Instruction statistics.
    pub stats: DecStats,
    /// Simulated time in nanoseconds.
    pub time_ns: u64,
}

/// Runs a workload on the PSI simulator.
///
/// # Errors
///
/// Propagates parse and execution errors.
pub fn run_on_psi(w: &Workload, config: MachineConfig) -> Result<PsiRun> {
    let program = Program::parse(&w.source)?;
    let mut machine = Machine::load(&program, config)?;
    let solutions = if w.background.is_empty() {
        machine.solve(&w.goal, w.max_solutions)?
    } else {
        let bg: Vec<&str> = w.background.iter().map(String::as_str).collect();
        machine.run_session(&w.goal, &bg)?
    };
    Ok(PsiRun {
        solutions: solutions.iter().map(|s| s.to_string()).collect(),
        stats: machine.stats(),
    })
}

/// Runs a workload on the PSI simulator and returns the machine too
/// (for trace collection).
///
/// # Errors
///
/// Propagates parse and execution errors.
pub fn run_on_psi_machine(w: &Workload, config: MachineConfig) -> Result<(PsiRun, Machine)> {
    let program = Program::parse(&w.source)?;
    let mut machine = Machine::load(&program, config)?;
    let solutions = if w.background.is_empty() {
        machine.solve(&w.goal, w.max_solutions)?
    } else {
        let bg: Vec<&str> = w.background.iter().map(String::as_str).collect();
        machine.run_session(&w.goal, &bg)?
    };
    let run = PsiRun {
        solutions: solutions.iter().map(|s| s.to_string()).collect(),
        stats: machine.stats(),
    };
    Ok((run, machine))
}

/// Default worker count for [`run_suite_parallel`]: the machine's
/// available parallelism, or 1 if it cannot be determined.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Renders a caught panic payload to text (the common `&str`/`String`
/// payloads verbatim, anything else as a placeholder).
fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Applies `f` to every item on a pool of scoped worker threads and
/// returns the results **in input order** — the output is
/// deterministic regardless of scheduling. Work is handed out through
/// a shared atomic cursor, so long items do not serialize behind short
/// ones.
///
/// Edge cases are explicit: an empty slice returns an empty vector
/// without spawning anything, and `threads <= 1` maps the items
/// directly on the calling thread with none of the slot scaffolding.
///
/// # Panics
///
/// A panic in `f` is contained per item — every other item still
/// completes — and then re-raised from the calling thread with the
/// failing item's index and panic message. Use [`par_map_catch`] to
/// receive per-item errors instead.
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_catch(items, threads, f)
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|msg| panic!("worker for item {i} panicked: {msg}")))
        .collect()
}

/// [`par_map`] with per-item panic containment: each result is `Ok`
/// with the mapped value or `Err` with the rendered panic message.
/// One panicking item never aborts the others — the suite layer's
/// fault isolation is built on this.
pub fn par_map_catch<T, U, F>(
    items: &[T],
    threads: usize,
    f: F,
) -> Vec<std::result::Result<U, String>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    // The closure's captured state survives an unwind only to be
    // reported, never reused for further mapping of the same item, so
    // the AssertUnwindSafe is sound for any `f` that is.
    let run_one =
        |i: usize| panic::catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))).map_err(panic_detail);
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return (0..n).map(run_one).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<std::result::Result<U, String>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, run_one(i)));
                    }
                })
            })
            .collect();
        for handle in handles {
            // Workers catch panics per item, so a join failure can
            // only be a non-unwinding abort — nothing to contain.
            for (i, value) in handle.join().expect("worker panics are caught per item") {
                debug_assert!(slots[i].is_none(), "cursor produced index {i} twice");
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index computed"))
        .collect()
}

// ------------------------------------------------------------------
// governed suite execution
// ------------------------------------------------------------------

/// Isolation policy for [`run_suite_governed`]: worker count, an
/// optional per-workload wall-clock deadline (a cooperative watchdog
/// enforced by the machine's own resource governor), and a bounded
/// retry budget for transient outcomes (panics and timeouts — typed
/// engine errors are deterministic and never retried).
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Worker threads (1 = serial).
    pub threads: usize,
    /// Per-workload wall-clock deadline; tightens (never loosens) any
    /// deadline already present in the machine config.
    pub deadline: Option<Duration>,
    /// How many times a panicked or timed-out workload is retried
    /// before its outcome is recorded (0 = no retries).
    pub max_retries: u32,
}

impl Default for SuiteOptions {
    fn default() -> SuiteOptions {
        SuiteOptions {
            threads: default_parallelism(),
            deadline: None,
            max_retries: 0,
        }
    }
}

/// Terminal outcome of one workload in a governed suite run.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The workload completed; stats are bit-identical to a serial
    /// run (boxed: a run is large next to the error variants).
    Ok(Box<PsiRun>),
    /// A step/word budget ran out ([`PsiError::ResourceExhausted`],
    /// any resource except the wall clock).
    Exhausted {
        /// The exhaustion error, with limit and consumed counts.
        error: PsiError,
    },
    /// The per-workload deadline fired (wall-clock exhaustion).
    TimedOut {
        /// The effective deadline that fired.
        deadline: Duration,
        /// The underlying wall-clock exhaustion error.
        error: PsiError,
    },
    /// Any other engine error (syntax, undefined predicate, type
    /// error, ...).
    Failed {
        /// The engine error.
        error: PsiError,
    },
    /// The worker panicked; the panic was contained to this row.
    Panicked {
        /// Workload context plus the rendered panic payload.
        detail: String,
    },
}

impl Outcome {
    /// Short lowercase label for summaries.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Ok(_) => "ok",
            Outcome::Exhausted { .. } => "exhausted",
            Outcome::TimedOut { .. } => "timed out",
            Outcome::Failed { .. } => "failed",
            Outcome::Panicked { .. } => "panicked",
        }
    }
}

/// One row of a [`SuiteReport`].
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Position in the input suite.
    pub index: usize,
    /// Workload name.
    pub name: String,
    /// The driving goal.
    pub goal: String,
    /// Attempts taken (1 unless retries were configured and used).
    pub attempts: u32,
    /// How the workload ended.
    pub outcome: Outcome,
}

impl WorkloadReport {
    /// The successful run, if the workload completed.
    pub fn run(&self) -> Option<&PsiRun> {
        match &self.outcome {
            Outcome::Ok(run) => Some(run.as_ref()),
            _ => None,
        }
    }

    /// One-line description of a non-ok outcome (the successful case
    /// describes itself through the run's stats).
    pub fn describe(&self) -> String {
        match &self.outcome {
            Outcome::Ok(run) => format!("ok ({} solutions)", run.solutions.len()),
            Outcome::Exhausted { error } | Outcome::Failed { error } => error.to_string(),
            Outcome::TimedOut { deadline, error } => {
                format!("deadline {deadline:?} exceeded: {error}")
            }
            Outcome::Panicked { detail } => format!("panicked: {detail}"),
        }
    }
}

/// Fault-isolated result of a whole suite: one [`WorkloadReport`] per
/// input workload, in input order, each with its own terminal
/// [`Outcome`]. Consumers (the table/figure regenerators) render the
/// ok rows normally and annotate the rest, so a single bad workload
/// degrades one row instead of the whole report.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Per-workload reports, ordered by input index.
    pub rows: Vec<WorkloadReport>,
}

impl SuiteReport {
    fn count(&self, label: &str) -> usize {
        self.rows
            .iter()
            .filter(|r| r.outcome.label() == label)
            .count()
    }

    /// Workloads that completed.
    pub fn ok_count(&self) -> usize {
        self.count("ok")
    }

    /// Workloads that ran out of a step/word budget.
    pub fn exhausted_count(&self) -> usize {
        self.count("exhausted")
    }

    /// Workloads that hit the per-workload deadline.
    pub fn timed_out_count(&self) -> usize {
        self.count("timed out")
    }

    /// Workloads that failed with any other engine error.
    pub fn failed_count(&self) -> usize {
        self.count("failed")
    }

    /// Workloads whose worker panicked.
    pub fn panicked_count(&self) -> usize {
        self.count("panicked")
    }

    /// Did every workload complete?
    pub fn all_ok(&self) -> bool {
        self.ok_count() == self.rows.len()
    }

    /// One-line summary, e.g. `19 ok, 0 exhausted, 0 timed out, 0
    /// failed, 0 panicked`.
    pub fn summary(&self) -> String {
        format!(
            "{} ok, {} exhausted, {} timed out, {} failed, {} panicked",
            self.ok_count(),
            self.exhausted_count(),
            self.timed_out_count(),
            self.failed_count(),
            self.panicked_count(),
        )
    }

    /// The suite outcomes as an observability snapshot: one
    /// [`psi_obs::Counter`] per [`Outcome`] class, plus the retries
    /// spent on transient outcomes. Mergeable with machine snapshots
    /// through the shared counter index space.
    pub fn metrics(&self) -> psi_obs::MetricsSnapshot {
        use psi_obs::Counter;
        let mut reg = psi_obs::MetricsRegistry::new();
        reg.add(Counter::SuiteOk, self.ok_count() as u64);
        reg.add(Counter::SuiteExhausted, self.exhausted_count() as u64);
        reg.add(Counter::SuiteTimedOut, self.timed_out_count() as u64);
        reg.add(Counter::SuiteFailed, self.failed_count() as u64);
        reg.add(Counter::SuitePanicked, self.panicked_count() as u64);
        let retries: u64 = self
            .rows
            .iter()
            .map(|r| r.attempts.saturating_sub(1) as u64)
            .sum();
        reg.add(Counter::SuiteRetries, retries);
        reg.snapshot()
    }
}

/// Runs a suite on the PSI simulator under the given isolation policy
/// and reports every workload's outcome. Panics are contained per
/// row, budgets and deadlines come back as typed outcomes, and the
/// ok rows' stats are bit-identical to a serial [`run_on_psi`] run.
pub fn run_suite_governed(
    workloads: &[Workload],
    config: &MachineConfig,
    options: &SuiteOptions,
) -> SuiteReport {
    run_suite_governed_with_runner(workloads, config, options, run_on_psi)
}

/// [`run_suite_governed`] with an injectable runner — the containment
/// layer itself is workload-agnostic, which the fault-injection tests
/// use to exercise panic and timeout paths deterministically.
pub fn run_suite_governed_with_runner<R>(
    workloads: &[Workload],
    config: &MachineConfig,
    options: &SuiteOptions,
    runner: R,
) -> SuiteReport
where
    R: Fn(&Workload, MachineConfig) -> Result<PsiRun> + Sync,
{
    let mut run_config = config.clone();
    if let Some(d) = options.deadline {
        run_config.limits.deadline = Some(match run_config.limits.deadline {
            Some(existing) => existing.min(d),
            None => d,
        });
    }
    let effective_deadline = run_config.limits.deadline;
    let attempts_allowed = options.max_retries.saturating_add(1);
    let rows = par_map(workloads, options.threads, |index, w| {
        let mut attempts = 0u32;
        let outcome = loop {
            attempts += 1;
            let result = panic::catch_unwind(AssertUnwindSafe(|| runner(w, run_config.clone())));
            let outcome = match result {
                Ok(Ok(run)) => Outcome::Ok(Box::new(run)),
                Ok(Err(error)) => match &error {
                    PsiError::ResourceExhausted {
                        resource: Resource::WallClockMs,
                        ..
                    } => Outcome::TimedOut {
                        deadline: effective_deadline.unwrap_or_default(),
                        error,
                    },
                    PsiError::ResourceExhausted { .. } => Outcome::Exhausted { error },
                    _ => Outcome::Failed { error },
                },
                Err(payload) => Outcome::Panicked {
                    detail: format!(
                        "workload '{}' (goal {}): {}",
                        w.name,
                        w.goal,
                        panic_detail(payload)
                    ),
                },
            };
            // Only transient classes are worth retrying: a typed
            // engine error is deterministic and would fail again.
            let transient = matches!(outcome, Outcome::Panicked { .. } | Outcome::TimedOut { .. });
            if !transient || attempts >= attempts_allowed {
                break outcome;
            }
        };
        WorkloadReport {
            index,
            name: w.name.clone(),
            goal: w.goal.clone(),
            attempts,
            outcome,
        }
    });
    SuiteReport { rows }
}

/// Runs a whole suite on the PSI simulator in parallel, one fresh
/// [`Machine`] per workload, with [`default_parallelism`] workers.
///
/// `lane` selects the execution lane for every machine in the suite
/// (overriding `config.measurement`): [`Measurement::Full`] is the
/// fidelity lane whose measurements feed Tables 2–7,
/// [`Measurement::Off`] is the fast lane — same solutions and
/// step totals, no cache/trace/event machinery.
///
/// Results come back ordered by workload index and are bit-identical
/// to running each workload serially through [`run_on_psi`]: every
/// workload gets its own machine, so no simulator state is shared
/// between threads and the event counts feeding Tables 2–7 are
/// unaffected by the parallelism. A panicking workload yields an
/// `Err` with [`PsiError::WorkerPanic`] for its own row only; every
/// other row still completes.
pub fn run_suite_parallel(
    workloads: &[Workload],
    config: &MachineConfig,
    lane: Measurement,
) -> Vec<Result<PsiRun>> {
    run_suite_parallel_with(workloads, config, lane, default_parallelism())
}

/// [`run_suite_parallel`] with an explicit worker count (1 = serial).
pub fn run_suite_parallel_with(
    workloads: &[Workload],
    config: &MachineConfig,
    lane: Measurement,
    threads: usize,
) -> Vec<Result<PsiRun>> {
    let mut config = config.clone();
    config.measurement = lane;
    par_map_catch(workloads, threads, |_, w| run_on_psi(w, config.clone()))
        .into_iter()
        .zip(workloads)
        .map(|(slot, w)| match slot {
            Ok(result) => result,
            Err(detail) => Err(PsiError::WorkerPanic {
                context: format!("workload '{}' (goal {})", w.name, w.goal),
                detail,
            }),
        })
        .collect()
}

/// Runs a workload on the DEC-10 baseline.
///
/// # Errors
///
/// Propagates parse and execution errors. Workloads using PSI-only
/// built-ins fail with an undefined-predicate error; check
/// [`Workload::runs_on_dec`] first.
pub fn run_on_dec(w: &Workload) -> Result<DecRun> {
    let program = Program::parse(&w.source)?;
    let mut machine = DecMachine::load(&program, DecConfig::dec2060())?;
    let solutions = machine.solve(&w.goal, w.max_solutions)?;
    Ok(DecRun {
        solutions: solutions.iter().map(|s| s.to_string()).collect(),
        stats: machine.stats(),
        time_ns: machine.time_ns(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contest;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn both_engines_agree_on_nreverse() {
        let w = contest::nreverse(8);
        let psi = run_on_psi(&w, MachineConfig::psi()).unwrap();
        let dec = run_on_dec(&w).unwrap();
        assert_eq!(psi.solutions, dec.solutions);
        assert_eq!(psi.solutions[0], "R = [8,7,6,5,4,3,2,1]");
    }

    #[test]
    fn exhaustive_workloads_enumerate() {
        let w = contest::queens_all(5);
        let psi = run_on_psi(&w, MachineConfig::psi()).unwrap();
        let dec = run_on_dec(&w).unwrap();
        assert_eq!(psi.solutions.len(), 10, "5-queens has 10 solutions");
        assert_eq!(psi.solutions, dec.solutions);
    }

    #[test]
    fn par_map_empty_input_spawns_nothing() {
        let items: [u32; 0] = [];
        for threads in [0, 1, 8] {
            let out = par_map(&items, threads, |_, x| *x);
            assert!(out.is_empty());
        }
    }

    /// The work-stealing cursor must hand out every index exactly
    /// once, for any thread count (including more threads than
    /// items), and the merge must preserve input order.
    #[test]
    fn par_map_cursor_covers_every_index_exactly_once() {
        let items: Vec<usize> = (0..37).collect();
        let hits: Vec<AtomicUsize> = (0..items.len()).map(|_| AtomicUsize::new(0)).collect();
        for threads in [1, 2, 3, 8, 64] {
            for h in &hits {
                h.store(0, Ordering::SeqCst);
            }
            let out = par_map(&items, threads, |i, x| {
                hits[i].fetch_add(1, Ordering::SeqCst);
                assert_eq!(i, *x, "index must match the item it maps");
                x * 2
            });
            let expect: Vec<usize> = items.iter().map(|x| x * 2).collect();
            assert_eq!(out, expect, "threads={threads}: order must be preserved");
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::SeqCst),
                    1,
                    "threads={threads}: index {i} not computed exactly once"
                );
            }
        }
    }

    #[test]
    fn par_map_catch_contains_one_panicking_item() {
        let items: Vec<u32> = (0..10).collect();
        for threads in [1, 4] {
            let out = par_map_catch(&items, threads, |_, x| {
                if *x == 3 {
                    panic!("injected failure on {x}");
                }
                x + 100
            });
            assert_eq!(out.len(), 10);
            for (i, slot) in out.iter().enumerate() {
                if i == 3 {
                    let msg = slot.as_ref().unwrap_err();
                    assert!(msg.contains("injected failure on 3"), "{msg}");
                } else {
                    assert_eq!(*slot.as_ref().unwrap(), i as u32 + 100);
                }
            }
        }
    }

    #[test]
    fn suite_runner_contains_panics_per_row() {
        let workloads = vec![contest::nreverse(6), contest::quick_sort(8)];
        let config = MachineConfig::psi();
        let options = SuiteOptions {
            threads: 2,
            ..SuiteOptions::default()
        };
        let report = run_suite_governed_with_runner(&workloads, &config, &options, |w, c| {
            if w.name == "nreverse" {
                panic!("injected workload panic");
            }
            run_on_psi(w, c)
        });
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.panicked_count(), 1);
        assert_eq!(report.ok_count(), 1);
        let bad = &report.rows[0];
        assert_eq!(bad.outcome.label(), "panicked");
        let detail = bad.describe();
        assert!(detail.contains("nreverse"), "{detail}");
        assert!(detail.contains("injected workload panic"), "{detail}");
        assert!(report.rows[1].run().is_some());
        assert!(report.summary().contains("1 ok"));
    }

    #[test]
    fn suite_retry_policy_is_bounded_and_counted() {
        let workloads = vec![contest::nreverse(5)];
        let config = MachineConfig::psi();
        let options = SuiteOptions {
            threads: 1,
            max_retries: 2,
            ..SuiteOptions::default()
        };
        let calls = AtomicUsize::new(0);
        let report = run_suite_governed_with_runner(&workloads, &config, &options, |_, _| {
            calls.fetch_add(1, Ordering::SeqCst);
            panic!("always panics");
        });
        assert_eq!(report.rows[0].attempts, 3, "1 attempt + 2 retries");
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(report.panicked_count(), 1);
    }

    #[test]
    fn suite_metrics_snapshot_counts_outcomes_and_retries() {
        use psi_obs::Counter;
        let workloads = vec![contest::nreverse(6), contest::quick_sort(8)];
        let config = MachineConfig::psi();
        let options = SuiteOptions {
            threads: 1,
            max_retries: 1,
            ..SuiteOptions::default()
        };
        let report = run_suite_governed_with_runner(&workloads, &config, &options, |w, c| {
            if w.name == "nreverse" {
                panic!("injected workload panic");
            }
            run_on_psi(w, c)
        });
        let m = report.metrics();
        assert_eq!(m.get(Counter::SuiteOk), 1);
        assert_eq!(m.get(Counter::SuitePanicked), 1);
        assert_eq!(m.get(Counter::SuiteExhausted), 0);
        assert_eq!(m.get(Counter::SuiteTimedOut), 0);
        assert_eq!(m.get(Counter::SuiteFailed), 0);
        assert_eq!(m.get(Counter::SuiteRetries), 1, "one retry on the panic");
    }

    #[test]
    fn suite_engine_errors_are_not_retried() {
        let workloads = vec![Workload::new(
            "undefined",
            "p(1).".to_owned(),
            "missing(X)".to_owned(),
        )];
        let config = MachineConfig::psi();
        let options = SuiteOptions {
            threads: 1,
            max_retries: 5,
            ..SuiteOptions::default()
        };
        let report = run_suite_governed(&workloads, &config, &options);
        assert_eq!(
            report.rows[0].attempts, 1,
            "deterministic errors retry 0 times"
        );
        assert_eq!(report.failed_count(), 1);
    }
}
