//! Regenerators for every table and figure of the paper.
//!
//! Each `tableN_report` / `figure1_report` function runs the
//! corresponding workloads on the simulators and renders the same
//! rows the paper reports, side by side with the paper's values
//! (from [`psi_workloads::suite::paper`]). `drift_report --print
//! SECTION` prints one report (sections listed in
//! [`drift::TRACKED_SECTIONS`]); EXPERIMENTS.md archives their output.
//!
//! The regenerators are fault-isolated: suites run through the
//! governed runner ([`psi_workloads::runner::run_suite_governed`]),
//! so a workload that fails, exhausts a budget, or panics degrades
//! into an annotated row while every remaining row is still
//! regenerated. On the default (unlimited) configuration every row
//! is ok and the reports are byte-identical to a serial run.
//!
//! The [`drift`] module closes the loop: it re-runs every generator
//! and diffs the output cell-by-cell against the blocks archived in
//! EXPERIMENTS.md (the `drift_report` binary exits nonzero on
//! unexplained drift, and CI runs it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod drift;
pub mod perf;
pub mod sweep;

use psi_machine::{InterpModule, MachineConfig, MachineStats};
use psi_workloads::runner::{
    default_parallelism, par_map_catch, run_on_dec, run_on_psi, run_suite_governed, SuiteOptions,
    SuiteReport,
};
use psi_workloads::suite::{self, paper};
use psi_workloads::{parsers, window, Workload};
use std::fmt::Write as _;

/// Runs one workload on the PSI machine, containing failure to this
/// row.
fn try_run_psi(w: &Workload) -> Result<MachineStats, String> {
    run_on_psi(w, MachineConfig::psi())
        .map(|r| r.stats)
        .map_err(|e| e.to_string())
}

/// Runs a suite through the governed parallel runner. Rendering
/// afterwards stays serial, so report text is identical to a serial
/// run whenever every row is ok; failed rows degrade into annotated
/// lines instead of aborting the report.
fn run_suite(workloads: &[Workload]) -> SuiteReport {
    run_suite_governed(workloads, &MachineConfig::psi(), &SuiteOptions::default())
}

/// Renders the standard annotation for a row whose workload did not
/// complete.
fn unavailable_row(out: &mut String, name: &str, width: usize, reason: &str) {
    let _ = writeln!(out, "{name:<width$} (row unavailable: {reason})");
}

/// Table 1: execution time of the nineteen benchmark programs on both
/// machines, with the paper's DEC/PSI ratios for comparison.
pub fn table1_report() -> String {
    use psi_workloads::runner::{DecRun, PsiRun};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1: Execution time of benchmark programs on PSI and DEC-2060"
    );
    let _ = writeln!(
        out,
        "{:<20} {:>10} {:>10} {:>9} {:>11}",
        "program", "PSI(ms)", "DEC(ms)", "DEC/PSI", "paper ratio"
    );
    // Both engines for all nineteen rows in parallel; the rows are
    // rendered in suite order afterwards, so the report text matches
    // the serial version byte for byte. Panics and engine errors are
    // contained per row.
    let entries = suite::table1_suite();
    let runs = par_map_catch(
        &entries,
        default_parallelism(),
        |_, e| -> Result<(PsiRun, DecRun), String> {
            let psi = run_on_psi(&e.workload, MachineConfig::psi())
                .map_err(|err| format!("{}: {err}", e.workload.name))?;
            let dec =
                run_on_dec(&e.workload).map_err(|err| format!("{}: {err}", e.workload.name))?;
            Ok((psi, dec))
        },
    );
    for (e, slot) in entries.iter().zip(runs) {
        let label = format!("({}) {}", e.index, e.workload.name);
        let run = slot
            .map_err(|panic_msg| format!("panicked: {panic_msg}"))
            .and_then(|r| r);
        match run {
            Ok((psi, dec)) => {
                if psi.solutions != dec.solutions {
                    unavailable_row(&mut out, &label, 20, "engines disagree on solutions");
                    continue;
                }
                let psi_ms = psi.stats.time_ms();
                let dec_ms = dec.time_ns as f64 / 1e6;
                let _ = writeln!(
                    out,
                    "{:<20} {:>10.2} {:>10.2} {:>9.2} {:>11.2}",
                    label,
                    psi_ms,
                    dec_ms,
                    dec_ms / psi_ms,
                    e.paper_ratio()
                );
            }
            Err(reason) => unavailable_row(&mut out, &label, 20, &reason),
        }
    }
    out
}

/// Table 2: execution step ratios of each interpreter module (%),
/// plus the §3.2 built-in call shares.
pub fn table2_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2: Execution step ratios of each component module of the firmware interpreter (%)"
    );
    let _ = writeln!(
        out,
        "{:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "program", "control", "unify", "trail", "get_arg", "cut", "built"
    );
    let workloads = suite::table2_suite();
    let report = run_suite(&workloads);
    for (i, (w, row)) in workloads.iter().zip(&report.rows).enumerate() {
        match row.run() {
            Some(run) => {
                let stats = &run.stats;
                let pct = stats.modules.percentages();
                let _ = writeln!(
                    out,
                    "{:<14} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
                    w.name,
                    pct[InterpModule::Control.index()],
                    pct[InterpModule::Unify.index()],
                    pct[InterpModule::Trail.index()],
                    pct[InterpModule::GetArg.index()],
                    pct[InterpModule::Cut.index()],
                    pct[InterpModule::Builtin.index()],
                );
            }
            None => unavailable_row(&mut out, &w.name, 14, &row.describe()),
        }
        let (pname, prow) = paper::TABLE2[i];
        let _ = writeln!(
            out,
            "{:<14} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            format!("  paper {pname}"),
            prow[0],
            prow[1],
            prow[2],
            prow[3],
            prow[4],
            prow[5],
        );
        // §3.2 built-in call shares for window and BUP.
        if let Some(run) = row.run() {
            if w.name.starts_with("window") || w.name.starts_with("BUP") {
                let _ = writeln!(
                    out,
                    "{:<14} built-in call share: {:.1}% (paper: {}%)",
                    "",
                    run.stats.builtin_call_share_pct(),
                    if w.name.starts_with("window") {
                        82.0
                    } else {
                        65.0
                    }
                );
            }
        }
    }
    out
}

/// The seven Table 3–5 workloads, run once (in parallel) and shared by
/// all three reports — the serial version recomputed the whole suite
/// per table. A row that fails is memoized as its failure reason so
/// each table annotates it without rerunning.
fn hardware_stats() -> &'static [(String, Result<MachineStats, String>)] {
    use std::sync::OnceLock;
    static STATS: OnceLock<Vec<(String, Result<MachineStats, String>)>> = OnceLock::new();
    STATS.get_or_init(|| {
        let workloads = suite::hardware_suite();
        let report = run_suite(&workloads);
        report
            .rows
            .iter()
            .zip(&workloads)
            .map(|(row, w)| {
                let stats = match row.run() {
                    Some(run) => Ok(run.stats.clone()),
                    None => Err(row.describe()),
                };
                (w.name.clone(), stats)
            })
            .collect()
    })
}

/// Table 3: execution rate of each cache command per microstep (%),
/// plus the §4.2 read:write and write-stack share observations.
pub fn table3_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3: Execution rate of each cache command in the total microprogram steps (%)"
    );
    let _ = writeln!(
        out,
        "{:<14} {:>7} {:>12} {:>7} {:>12} {:>7}   (paper total)",
        "program", "read", "write-stack", "write", "write-total", "total"
    );
    for (i, (name, stats)) in hardware_stats().iter().enumerate() {
        let s = match stats {
            Ok(s) => s,
            Err(reason) => {
                unavailable_row(&mut out, name, 14, reason);
                continue;
            }
        };
        let steps = s.steps.max(1) as f64;
        let t = s.cache.total();
        let read = t.reads as f64 * 100.0 / steps;
        let ws = t.write_stacks as f64 * 100.0 / steps;
        let wr = t.writes as f64 * 100.0 / steps;
        let _ = writeln!(
            out,
            "{:<14} {:>7.1} {:>12.1} {:>7.1} {:>12.1} {:>7.1}   ({:.1})",
            name,
            read,
            ws,
            wr,
            ws + wr,
            read + ws + wr,
            paper::TABLE3[i].1[4],
        );
    }
    match &hardware_stats()[4].1 {
        // BUP (memoized, not a rerun)
        Ok(s) => {
            let _ = writeln!(
                out,
                "\nread:write ratio (BUP) = {:.2} (paper: about 3:1); \
                 write-stack share of writes = {:.0}% (paper: 50-75%)",
                s.cache.read_write_ratio().unwrap_or(0.0),
                s.cache.write_stack_share_pct().unwrap_or(0.0),
            );
        }
        Err(reason) => {
            let _ = writeln!(out, "\n(BUP observations unavailable: {reason})");
        }
    }
    out
}

/// Table 4: access frequency of each memory area (%).
pub fn table4_report() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 4: Access frequency of each memory area (%)");
    let _ = writeln!(
        out,
        "{:<14} {:>7} {:>8} {:>7} {:>8} {:>7}",
        "program", "heap", "global", "local", "control", "trail"
    );
    for (i, (name, stats)) in hardware_stats().iter().enumerate() {
        match stats {
            Ok(s) => {
                let shares = s.cache.area_shares_pct();
                use psi_core::Area;
                let _ = writeln!(
                    out,
                    "{:<14} {:>7.1} {:>8.1} {:>7.1} {:>8.1} {:>7.1}",
                    name,
                    shares[Area::Heap.index()],
                    shares[Area::GlobalStack.index()],
                    shares[Area::LocalStack.index()],
                    shares[Area::ControlStack.index()],
                    shares[Area::TrailStack.index()],
                );
            }
            Err(reason) => unavailable_row(&mut out, name, 14, reason),
        }
        let p = paper::TABLE4[i].1;
        let _ = writeln!(
            out,
            "{:<14} {:>7.1} {:>8.1} {:>7.1} {:>8.1} {:>7.1}",
            "  paper", p[0], p[1], p[2], p[3], p[4],
        );
    }
    out
}

/// Table 5: cache hit ratios of each memory area (%).
pub fn table5_report() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 5: Cache hit ratios of each memory area (%)");
    let _ = writeln!(
        out,
        "{:<14} {:>7} {:>8} {:>7} {:>8} {:>7} {:>7}",
        "program", "heap", "global", "local", "control", "trail", "total"
    );
    use psi_core::Area;
    for (i, (name, stats)) in hardware_stats().iter().enumerate() {
        match stats {
            Ok(s) => {
                let hit = |a: Area| s.cache.area(a).hit_ratio_pct().unwrap_or(100.0);
                let _ = writeln!(
                    out,
                    "{:<14} {:>7.1} {:>8.1} {:>7.1} {:>8.1} {:>7.1} {:>7.1}",
                    name,
                    hit(Area::Heap),
                    hit(Area::GlobalStack),
                    hit(Area::LocalStack),
                    hit(Area::ControlStack),
                    hit(Area::TrailStack),
                    s.cache.hit_ratio_pct().unwrap_or(100.0),
                );
            }
            Err(reason) => unavailable_row(&mut out, name, 14, reason),
        }
        let p = paper::TABLE5[i].1;
        let _ = writeln!(
            out,
            "{:<14} {:>7.1} {:>8.1} {:>7.1} {:>8.1} {:>7.1} {:>7.1}",
            "  paper", p[0], p[2], p[1], p[3], p[4], p[5],
        );
    }
    out
}

/// Table 6: dynamic frequency of WF access modes, measured on BUP as
/// in the paper.
pub fn table6_report() -> String {
    let mut out = String::new();
    let w = parsers::bup(2);
    let _ = writeln!(
        out,
        "Table 6: Dynamic frequency of the Work File access modes (%), program BUP"
    );
    let stats = match try_run_psi(&w) {
        Ok(stats) => stats,
        Err(reason) => {
            unavailable_row(&mut out, &w.name, 12, &reason);
            return out;
        }
    };
    let rows = psi_tools::map::wf_mode_table(&stats.wf, stats.steps);
    let rates = psi_tools::map::wf_field_rates(&stats.wf, stats.steps);
    let _ = writeln!(
        out,
        "{:<12} {:>16} {:>16} {:>16}",
        "mode", "source1 †/‡", "source2 †/‡", "dest †/‡"
    );
    for (i, row) in rows.iter().enumerate() {
        let cell = |f: Option<(f64, f64)>| match f {
            Some((share, rate)) => format!("{share:5.1}/{rate:5.1}"),
            None => "    -    ".to_owned(),
        };
        let _ = writeln!(
            out,
            "{:<12} {:>16} {:>16} {:>16}   (paper s1 share: {})",
            row.mode.label(),
            cell(row.fields[0]),
            cell(row.fields[1]),
            cell(row.fields[2]),
            paper::TABLE6_SHARES[i].1[0],
        );
    }
    let _ = writeln!(
        out,
        "{:<12} {:>10.1} {:>16.1} {:>16.1}   (paper: {:.1} {:.1} {:.1})",
        "total ‡",
        rates[0],
        rates[1],
        rates[2],
        paper::TABLE6_FIELD_RATES[0],
        paper::TABLE6_FIELD_RATES[1],
        paper::TABLE6_FIELD_RATES[2],
    );
    let _ = writeln!(
        out,
        "\ndirect+buffer coverage = {:.2}% (paper: >99%); \
         WFAR1 auto-increment share = {:.0}% (paper: >=90%)",
        stats.wf.coverage_direct_and_buffers_pct(),
        stats.wf.wfar1_auto_share_pct(),
    );
    out
}

/// Table 7: dynamic frequency of branch operations for BUP, window
/// and 8 puzzle.
pub fn table7_report() -> String {
    let mut out = String::new();
    let workloads = [
        parsers::bup(2),
        window::window(1),
        psi_workloads::puzzle::eight_puzzle(6),
    ];
    let stats: Vec<Result<MachineStats, String>> =
        par_map_catch(&workloads, default_parallelism(), |_, w| try_run_psi(w))
            .into_iter()
            .map(|slot| slot.map_err(|p| format!("panicked: {p}")).and_then(|r| r))
            .collect();
    let _ = writeln!(
        out,
        "Table 7: Dynamic frequency of branch operations in microprogram steps (%)"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>7} {:>7} {:>9}   paper(BUP, window, 8puz)",
        "operation", "BUP", "window", "8 puzzle"
    );
    for (w, s) in workloads.iter().zip(&stats) {
        if let Err(reason) = s {
            unavailable_row(&mut out, &w.name, 22, reason);
        }
    }
    let tables: Vec<_> = stats
        .iter()
        .map(|s| {
            s.as_ref()
                .ok()
                .map(|s| psi_tools::map::branch_table(&s.branches))
        })
        .collect();
    // A failed workload renders as "-" in its column; the other
    // columns still regenerate.
    let share = |t: &Option<Vec<psi_tools::map::BranchRow>>, i: usize, width: usize| match t {
        Some(rows) => format!("{:>width$.1}", rows[i].share_pct),
        None => format!("{:>width$}", "-"),
    };
    for (i, row) in paper::TABLE7.iter().enumerate().take(16) {
        let p = row.1;
        let label = tables
            .iter()
            .flatten()
            .next()
            .map(|rows| rows[i].op.label())
            .unwrap_or(row.0);
        let _ = writeln!(
            out,
            "{:<22} {} {} {}   ({:.1}, {:.1}, {:.2})",
            label,
            share(&tables[0], i, 7),
            share(&tables[1], i, 7),
            share(&tables[2], i, 9),
            p[0],
            p[1],
            p[2],
        );
    }
    for (w, s) in workloads.iter().zip(&stats) {
        if let Ok(s) = s {
            let _ = writeln!(
                out,
                "{:<14} branch share = {:.1}% (paper: 77-83%), with data = {:.1}% (paper: ~50%)",
                w.name,
                s.branches.branch_share_pct(),
                s.branches.with_data_share_pct(),
            );
        }
    }
    out
}

/// Figure 1 plus the §4.2 in-text studies: improvement ratio vs cache
/// capacity on the WINDOW trace, 1-set vs 2-set, store-in vs
/// store-through.
///
/// A thin consumer of the [`sweep`] engine: the eleven Figure 1
/// capacities plus the two §4.2 study geometries run as one
/// 13-geometry replay grid over the WINDOW workload. The cap-8192
/// cell doubles as the two-set and store-in study values
/// ([`psi_cache::CacheConfig::psi_two_set_8k`] *is* the stock
/// geometry), so each geometry is replayed once. Byte-identical to the
/// pre-engine direct `pmms::geometry_sweep` output — the engine's
/// replay cells go through the same [`psi_tools::pmms`] math.
pub fn figure1_report() -> String {
    use psi_cache::CacheConfig;
    let mut out = String::new();
    let w = window::window(1);
    let _ = writeln!(
        out,
        "Figure 1: Performance improvement ratios against the cache memory size"
    );
    let caps = psi_tools::pmms::figure1_capacities();
    let mut geometries: Vec<CacheConfig> = caps
        .iter()
        .map(|&cap| CacheConfig::psi_with_capacity(cap))
        .collect();
    geometries.push(CacheConfig::psi_direct_mapped_4k());
    geometries.push(CacheConfig::psi_store_through());
    let spec = sweep::SweepSpec {
        name: "figure1".into(),
        workloads: vec![w.clone()],
        configs: vec![sweep::ConfigPoint::fidelity("A-linear", false)],
        geometries,
    };
    let report = sweep::run_sweep(
        &spec,
        &sweep::SweepOptions {
            mode: sweep::SweepMode::Replay,
            ..sweep::SweepOptions::default()
        },
    );
    if !report.all_ok() || report.planes.is_empty() {
        let reason = report.cells.iter().find(|c| c.outcome != "ok").map_or_else(
            || "sweep produced no cells".to_owned(),
            |c| c.detail.clone(),
        );
        unavailable_row(&mut out, &w.name, 12, &reason);
        return out;
    }
    let plane = &report.planes[0];
    let _ = writeln!(
        out,
        "(trace: {}, {} accesses, {} steps)",
        w.name, plane.trace_len, plane.steps
    );
    let _ = writeln!(out, "{:>10} {:>12}", "capacity", "improvement%");
    let ratio_of = |cell: &sweep::CellResult| cell.improvement_pct.unwrap_or(0.0);
    for (cap, cell) in caps.iter().zip(&report.cells) {
        let ratio = ratio_of(cell);
        let bar = "#".repeat((ratio / 2.0).max(0.0) as usize);
        let _ = writeln!(out, "{:>10} {:>12.1}  {}", cap, ratio, bar);
    }
    let _ = writeln!(
        out,
        "(paper: the improvement ratio saturates near 512 words)"
    );

    // Cell 10 is cap 8192 = the stock two-set store-in geometry;
    // cells 11 and 12 are the appended study geometries.
    let (two, one) = (ratio_of(&report.cells[10]), ratio_of(&report.cells[11]));
    let _ = writeln!(
        out,
        "\nassociativity: two 4KW sets = {two:.1}%, one 4KW set = {one:.1}%, \
         delta = {:.1} points (paper: one set only ~3% lower)",
        two - one
    );
    let (si, st) = (ratio_of(&report.cells[10]), ratio_of(&report.cells[12]));
    let _ = writeln!(
        out,
        "write policy: store-in = {si:.1}%, store-through = {st:.1}%, \
         delta = {:.1} points (paper: store-in 8% higher)",
        si - st
    );
    out
}

/// Ablation study for the design choices DESIGN.md calls out: tail
/// recursion optimization and the WF frame buffers.
pub fn ablation_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation: PSI design features on nreverse(30) and BUP-2"
    );
    let _ = writeln!(
        out,
        "{:<34} {:>10} {:>10} {:>10}",
        "configuration", "steps", "time_ms", "local%"
    );
    // The full workload × feature grid runs in parallel; rendering
    // preserves grid order and contains failures per cell.
    let mut grid = Vec::new();
    for w in [psi_workloads::contest::nreverse(30), parsers::bup(2)] {
        for (label, tro, fb) in [
            ("full PSI", true, true),
            ("no tail recursion opt", false, true),
            ("no frame buffering", true, false),
            ("neither", false, false),
        ] {
            grid.push((w.clone(), label, tro, fb));
        }
    }
    let runs = par_map_catch(&grid, default_parallelism(), |_, (w, _, tro, fb)| {
        let mut config = MachineConfig::psi();
        config.tail_recursion_opt = *tro;
        config.frame_buffering = *fb;
        run_on_psi(w, config)
            .map(|r| r.stats)
            .map_err(|e| e.to_string())
    });
    for ((w, label, _, _), slot) in grid.iter().zip(&runs) {
        let cell = format!("{} / {}", w.name, label);
        match slot
            .as_ref()
            .map_err(|p| format!("panicked: {p}"))
            .and_then(|r| r.clone())
        {
            Ok(stats) => {
                let local = stats.cache.area_shares_pct()[psi_core::Area::LocalStack.index()];
                let _ = writeln!(
                    out,
                    "{:<34} {:>10} {:>10.2} {:>10.1}",
                    cell,
                    stats.steps,
                    stats.time_ms(),
                    local,
                );
            }
            Err(reason) => unavailable_row(&mut out, &cell, 34, &reason),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_report_contains_all_rows() {
        let r = table2_report();
        for name in ["window-1", "8 puzzle", "BUP-3", "harmonizer-2"] {
            assert!(r.contains(name), "{r}");
        }
    }

    #[test]
    fn figure1_report_runs() {
        let r = figure1_report();
        assert!(r.contains("store-in"));
        assert!(r.contains("8192"));
    }
}
