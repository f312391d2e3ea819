//! The governed suite runner must be an exact drop-in for the serial
//! loop, and the interpreter hot path must not allocate: both claims
//! are regression-tested here because the paper's tables depend on
//! event-exact counters.

use psi::psi_machine::{Machine, MachineConfig};
use psi::psi_workloads::runner::{run_on_psi, run_suite_governed, PsiRun, SuiteOptions};
use psi::psi_workloads::suite::table1_suite;
use psi::psi_workloads::Workload;

/// Runs `workloads` under the governed suite runner on `threads`
/// workers; every row must complete.
fn governed(workloads: &[Workload], config: &MachineConfig, threads: usize) -> Vec<PsiRun> {
    let options = SuiteOptions {
        threads,
        ..SuiteOptions::default()
    };
    run_suite_governed(workloads, config, &options)
        .rows
        .iter()
        .map(|r| {
            r.run()
                .cloned()
                .unwrap_or_else(|| panic!("{}: {}", r.name, r.describe()))
        })
        .collect()
}

/// `run_suite_governed` must produce byte-identical solutions and
/// bit-identical statistics to running each workload serially: every
/// workload gets a fresh machine, so parallelism must not perturb a
/// single event counter feeding Tables 2–7.
#[test]
fn parallel_suite_matches_serial_bit_for_bit() {
    let workloads: Vec<Workload> = table1_suite().into_iter().map(|e| e.workload).collect();
    let config = MachineConfig::psi();

    let serial: Vec<_> = workloads
        .iter()
        .map(|w| run_on_psi(w, config.clone()).expect("serial run succeeds"))
        .collect();
    let parallel = governed(&workloads, &config, 4);

    assert_eq!(serial.len(), parallel.len());
    for ((w, s), p) in workloads.iter().zip(&serial).zip(parallel) {
        assert_eq!(s.solutions, p.solutions, "{}: solutions differ", w.name);
        // MachineStats is integer counters throughout, so `==` is
        // bit-identity.
        assert_eq!(s.stats, p.stats, "{}: stats differ", w.name);
    }
}

/// Worker count must not change results either (1 worker = the serial
/// path inside `par_map`).
#[test]
fn parallel_suite_is_thread_count_invariant() {
    let workloads: Vec<Workload> = table1_suite()
        .into_iter()
        .take(6)
        .map(|e| e.workload)
        .collect();
    let config = MachineConfig::psi();
    let one = governed(&workloads, &config, 1);
    let many = governed(&workloads, &config, 8);
    assert_eq!(one.len(), many.len());
    for (a, b) in one.into_iter().zip(many) {
        assert_eq!(a.solutions, b.solutions);
        assert_eq!(a.stats, b.stats);
    }
}

/// The interpreter hot path performs zero host heap (re)allocations on
/// a deterministic nreverse run: activations and choice points are
/// `Copy`, goal arguments go through pre-reserved scratch buffers and
/// the copy-on-backtrack argument arena, and none of those structures
/// outgrows its reservation.
#[test]
fn nreverse_hot_path_is_allocation_free() {
    let w = psi::psi_workloads::contest::nreverse(30);
    let program = psi::kl0::Program::parse(&w.source).expect("parses");
    let mut machine = Machine::load(&program, MachineConfig::psi()).expect("loads");
    let solutions = machine.solve(&w.goal, w.max_solutions).expect("solves");
    assert!(!solutions.is_empty());
    assert_eq!(
        machine.hot_path_alloc_count(),
        0,
        "interpreter hot path must not allocate on nreverse(30)"
    );
}

/// Backtracking-heavy search must also stay allocation-free — the
/// choice-point stack and argument arena see real churn here.
#[test]
fn queens_hot_path_is_allocation_free() {
    let w = psi::psi_workloads::contest::queens_all(6);
    let program = psi::kl0::Program::parse(&w.source).expect("parses");
    let mut machine = Machine::load(&program, MachineConfig::psi()).expect("loads");
    let solutions = machine.solve(&w.goal, w.max_solutions).expect("solves");
    assert_eq!(solutions.len(), 4, "6-queens has 4 solutions");
    assert_eq!(
        machine.hot_path_alloc_count(),
        0,
        "interpreter hot path must not allocate on 6-queens"
    );
}
