//! Observability end to end: trace a run through the event ring and
//! read the metrics registry's snapshot next to the machine's own
//! statistics.
//!
//! Run with: `cargo run --release --example observability_demo`

use kl0::Program;
use psi_core::EventKind;
use psi_machine::{InterpModule, Machine, MachineConfig};
use psi_obs::{Counter, Histo};

fn main() -> Result<(), psi_core::PsiError> {
    let w = psi_workloads::contest::queens_all(6);
    let program = Program::parse(&w.source)?;
    let mut machine = Machine::load(&program, MachineConfig::psi())?;

    // 1. Trace a run through the bounded event ring.
    machine.set_event_trace(true);
    let solutions = machine.solve(&w.goal, w.max_solutions)?;
    println!("{}: {} solutions", w.name, solutions.len());

    let dropped = machine.events_dropped();
    let events = machine.take_events();
    println!(
        "\nevent ring ({} events, {dropped} overwritten):",
        events.len()
    );
    for kind in EventKind::ALL {
        let count = events.iter().filter(|e| e.kind == kind).count();
        println!("  {:<18}: {count}", kind.to_string());
    }

    // 2. The metrics snapshot: live counters plus mirrors of the
    //    single-source tallies the tables are generated from.
    let stats = machine.stats();
    let m = machine.metrics_snapshot();
    println!("\nmetrics snapshot vs machine stats:");
    println!("  dispatches        : {}", m.get(Counter::Dispatches));
    println!("  backtracks        : {}", m.get(Counter::Backtracks));
    println!("  solutions         : {}", m.get(Counter::Solutions));
    println!(
        "  cache hit ratio   : {:.1}% (stats: {:.1}%)",
        m.get(Counter::CacheHits) as f64 * 100.0
            / (m.get(Counter::CacheHits) + m.get(Counter::CacheMisses)).max(1) as f64,
        stats.cache.hit_ratio_pct().unwrap_or(100.0),
    );
    assert_eq!(m.total_steps(), stats.steps, "module-step mirror");
    for module in InterpModule::ALL {
        assert_eq!(m.module_steps(module.index()), stats.modules.count(module));
    }
    if let Some(mean) = m.histogram(Histo::BacktrackDepth).mean() {
        println!("  mean choice points remaining after backtrack: {mean:.1}");
    }
    println!("\nsnapshot agrees with MachineStats counter-for-counter.");
    Ok(())
}
