//! The dynamic clause database and the generated workload corpus,
//! end to end: assert/asserta/retract with the immediate update view,
//! extended arithmetic, and a replayed seeded corpus program verified
//! against its oracle on both lanes.
//!
//! Run with: `cargo run --release --example dynamic_db_demo`

use kl0::Program;
use psi_machine::{Machine, MachineConfig};
use psi_workloads::corpus::{generate, CorpusSpec};
use psi_workloads::runner::run_on_psi;

fn main() -> Result<(), psi_core::PsiError> {
    // A task queue on the dynamic database: producers assert, the
    // drain loop retracts until \+ finds the queue empty.
    let program = Program::parse(
        "
        produce(0).
        produce(N) :- N > 0, assert(job(N)), M is N - 1, produce(M).
        drain(0) :- \\+ job(_).
        drain(D) :- retract(job(_)), E is D - 1, drain(E).
        ",
    )?;
    let mut m = Machine::load(&program, MachineConfig::psi())?;

    for s in m.solve("produce(4), job(First)", 1)? {
        println!("after produce(4), first queued: {s}");
    }
    for s in m.solve("asserta(job(99)), job(Head)", 1)? {
        println!("after asserta(job(99)),  head is: {s}");
    }
    for s in m.solve("drain(5), \\+ job(_)", 1)? {
        println!("drained 5 jobs, queue empty:   {s}");
    }
    for s in m.solve("X is (1 << 10) + 7 // 2 - 5 xor 3", 1)? {
        println!("extended arithmetic:           {s}");
    }

    // Replay one seeded corpus program on every lane and check the
    // machine against the generator's host-computed oracle.
    let p = &generate(&CorpusSpec::quick(0x5EED_2026, 7))[3];
    println!(
        "\ncorpus program {} (family {}, seed {:#x}):\n  goal: {}",
        p.workload.name, p.family, p.seed, p.workload.goal
    );
    for (lane, config) in [
        ("fidelity", MachineConfig::psi()),
        ("compiled", MachineConfig::psi_compiled()),
    ] {
        let run = run_on_psi(&p.workload, config)?;
        assert_eq!(run.solutions, p.expected, "{lane} diverges from oracle");
        println!(
            "  {lane:<10} {} steps, solutions match oracle: {:?}",
            run.stats.steps, run.solutions
        );
    }
    Ok(())
}
