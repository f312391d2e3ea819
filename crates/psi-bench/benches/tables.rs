//! Benchmarks: one group per reproduced table/figure, so `cargo bench`
//! exercises every experiment, plus simulator throughput benchmarks.
//! The heavyweight experiments run on reduced inputs here; the
//! `src/bin` generators produce the full reports.
//!
//! Self-contained timing harness (`harness = false`): each benchmark
//! runs a short warm-up, then reports the best and mean wall-clock of
//! a fixed number of iterations. Pass a substring argument to run a
//! subset, e.g. `cargo bench --bench tables -- table1`.

use psi_cache::CacheConfig;
use psi_core::Measurement;
use psi_machine::MachineConfig;
use psi_workloads::runner::{run_on_dec, run_on_psi, run_on_psi_machine, run_suite_parallel};
use psi_workloads::{contest, harmonizer, parsers, puzzle, window};
use std::time::{Duration, Instant};

struct Bench {
    filter: Option<String>,
}

impl Bench {
    fn new() -> Bench {
        Bench {
            filter: std::env::args().nth(1),
        }
    }

    /// Times `f` (3 warm-up + 10 measured iterations) and prints one
    /// report line. A `std::hint::black_box` on the result keeps the
    /// optimizer honest.
    fn run<T>(&self, name: &str, mut f: impl FnMut() -> T) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        const WARMUP: usize = 3;
        const ITERS: usize = 10;
        for _ in 0..WARMUP {
            std::hint::black_box(f());
        }
        let mut best = Duration::MAX;
        let mut total = Duration::ZERO;
        for _ in 0..ITERS {
            let start = Instant::now();
            std::hint::black_box(f());
            let elapsed = start.elapsed();
            total += elapsed;
            best = best.min(elapsed);
        }
        let mean = total / ITERS as u32;
        println!("{name:<40} best {best:>12.3?}   mean {mean:>12.3?}   ({ITERS} iters)");
    }
}

fn main() {
    let b = Bench::new();

    // table1: representative rows, serial engines, and the parallel
    // suite runner over the same rows.
    b.run("table1/psi_nreverse30", || {
        run_on_psi(&contest::nreverse(30), MachineConfig::psi()).unwrap()
    });
    b.run("table1/dec_nreverse30", || {
        run_on_dec(&contest::nreverse(30)).unwrap()
    });
    b.run("table1/psi_lcp2", || {
        run_on_psi(&parsers::lcp(2), MachineConfig::psi()).unwrap()
    });
    b.run("table1/dec_lcp2", || run_on_dec(&parsers::lcp(2)).unwrap());
    b.run("table1/parallel_four_rows", || {
        let rows = [
            contest::nreverse(30),
            contest::quick_sort(50),
            parsers::lcp(2),
            parsers::bup(2),
        ];
        run_suite_parallel(&rows, &MachineConfig::psi(), Measurement::Full)
            .into_iter()
            .map(|r| r.unwrap().stats.steps)
            .sum::<u64>()
    });

    b.run("table2/module_ratios_harmonizer", || {
        let r = run_on_psi(&harmonizer::harmonizer(1), MachineConfig::psi()).unwrap();
        r.stats.modules.percentages()
    });

    b.run("tables3-5/cache_stats_window1", || {
        let r = run_on_psi(&window::window(1), MachineConfig::psi()).unwrap();
        (
            r.stats.cache.hit_ratio_pct(),
            r.stats.cache.area_shares_pct(),
        )
    });
    b.run("tables3-5/cache_stats_8puzzle", || {
        let r = run_on_psi(&puzzle::eight_puzzle(4), MachineConfig::psi()).unwrap();
        r.stats.cache.hit_ratio_pct()
    });

    b.run("tables6-7/wf_and_branch_stats_bup1", || {
        let r = run_on_psi(&parsers::bup(1), MachineConfig::psi()).unwrap();
        let t6 = psi_tools::map::wf_mode_table(&r.stats.wf, r.stats.steps);
        let t7 = psi_tools::map::branch_table(&r.stats.branches);
        (t6.len(), t7.len())
    });

    // figure1: collect the WINDOW trace once; benchmark the PMMS sweep
    // itself.
    {
        let mut config = MachineConfig::psi();
        config.trace_memory = true;
        let w = window::window(1);
        let (run, mut machine) = run_on_psi_machine(&w, config).unwrap();
        let trace = machine.take_trace();
        let steps = run.stats.steps;
        let capacities: Vec<CacheConfig> = psi_tools::pmms::figure1_capacities()
            .into_iter()
            .map(CacheConfig::psi_with_capacity)
            .collect();
        b.run("figure1/pmms_capacity_sweep", || {
            psi_tools::pmms::geometry_sweep(&trace, &capacities, 200, steps, 1)
        });
        b.run("figure1/pmms_policy_study", || {
            psi_tools::pmms::policy_study(&trace, 200, steps)
        });
    }

    b.run("throughput/psi_steps_per_sec_queens6", || {
        let w = {
            let mut w = contest::queens_first(6);
            w.max_solutions = 1;
            w
        };
        run_on_psi(&w, MachineConfig::psi()).unwrap().stats.steps
    });
}
