//! Drift detection between the archived reports in EXPERIMENTS.md and
//! freshly regenerated ones.
//!
//! EXPERIMENTS.md stores the verbatim output of every generator binary
//! in a fenced code block under a `## Table N — ...` / `## Figure 1 —
//! ...` / `## Ablation — ...` heading. A byte-compare of those blocks
//! is brittle (one shifted column re-flows a whole row) and
//! uninformative (it cannot say *which* measurement moved). This
//! module instead pairs each archived line with its regenerated
//! counterpart, extracts the numeric cells, and reports **per-cell
//! deltas**: which section, which line, which column, archived vs
//! regenerated value, relative change.
//!
//! The wall-clock "Regeneration performance" section is deliberately
//! not tracked — it measures the host, not the simulator. Everything
//! the simulator produces is deterministic, so cells compare exactly:
//! any cell that moves is drift until a change to the model explains
//! it and the archive is regenerated.
//!
//! The `drift_report` binary runs [`drift_against`] on the repo's
//! EXPERIMENTS.md and exits nonzero on drift; CI runs it so an
//! unexplained change to any archived measurement fails the build.
//!
//! The `BENCH_*.json` archives are gated the same way by
//! [`diff_reports`]: two reports' entries pair by key, and every
//! field a [`DiffSpec`] declares deterministic must match exactly.

use crate::{
    ablation_report, figure1_report, table1_report, table2_report, table3_report, table4_report,
    table5_report, table6_report, table7_report,
};
use psi_tools::json::{parse_report, JsonObject, JsonValue, Report};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::process::ExitCode;

/// A report generator paired with its archive key.
pub type TrackedSection = (&'static str, fn() -> String);

/// The archived sections the drift pass tracks, each with the
/// generator that regenerates it. Keys match the EXPERIMENTS.md
/// heading text before the em dash.
pub const TRACKED_SECTIONS: [TrackedSection; 9] = [
    ("Table 1", table1_report as fn() -> String),
    ("Table 2", table2_report as fn() -> String),
    ("Table 3", table3_report as fn() -> String),
    ("Table 4", table4_report as fn() -> String),
    ("Table 5", table5_report as fn() -> String),
    ("Table 6", table6_report as fn() -> String),
    ("Table 7", table7_report as fn() -> String),
    ("Figure 1", figure1_report as fn() -> String),
    ("Ablation", ablation_report as fn() -> String),
];

/// One numeric cell that moved between the archive and the
/// regenerated report.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDelta {
    /// 1-based line number inside the section's fenced block.
    pub line: usize,
    /// 1-based index of the numeric cell within that line.
    pub cell: usize,
    /// The value the archive records.
    pub archived: f64,
    /// The value the regenerator produces now.
    pub regenerated: f64,
}

impl CellDelta {
    /// Relative change in percent, guarded so a zero archived value
    /// never produces 0/0 = NaN.
    pub fn rel_delta_pct(&self) -> f64 {
        let diff = self.regenerated - self.archived;
        if self.archived != 0.0 {
            diff * 100.0 / self.archived
        } else if diff == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(diff)
        }
    }
}

/// The drift findings for one tracked section.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionDrift {
    /// The section key ("Table 1", ..., "Figure 1", "Ablation").
    pub section: String,
    /// How many numeric cells were compared.
    pub cells: usize,
    /// Cells whose values moved.
    pub deltas: Vec<CellDelta>,
    /// Structural mismatches: differing line counts, differing cell
    /// counts on a line, or non-numeric text that changed.
    pub shape: Vec<String>,
}

impl SectionDrift {
    /// True when nothing in the section drifted.
    pub fn is_clean(&self) -> bool {
        self.deltas.is_empty() && self.shape.is_empty()
    }
}

/// A whole drift run: one [`SectionDrift`] per tracked section found
/// in the archive, plus the tracked sections the archive is missing.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Per-section findings, in [`TRACKED_SECTIONS`] order.
    pub sections: Vec<SectionDrift>,
    /// Tracked sections with no archived block in the document.
    pub missing: Vec<String>,
}

impl DriftReport {
    /// True when any section drifted or is missing from the archive.
    pub fn has_drift(&self) -> bool {
        !self.missing.is_empty() || self.sections.iter().any(|s| !s.is_clean())
    }

    /// Total numeric cells compared across all sections.
    pub fn cells(&self) -> usize {
        self.sections.iter().map(|s| s.cells).sum()
    }

    /// Renders the human-readable drift report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "drift report: {} sections, {} numeric cells compared",
            self.sections.len(),
            self.cells()
        );
        for s in &self.sections {
            if s.is_clean() {
                let _ = writeln!(out, "  {:<10} ok ({} cells)", s.section, s.cells);
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<10} DRIFT ({} of {} cells, {} shape mismatches)",
                s.section,
                s.deltas.len(),
                s.cells,
                s.shape.len()
            );
            for d in &s.deltas {
                let _ = writeln!(
                    out,
                    "    line {:>3} cell {:>2}: archived {} -> regenerated {} ({:+.2}%)",
                    d.line,
                    d.cell,
                    d.archived,
                    d.regenerated,
                    d.rel_delta_pct()
                );
            }
            for m in &s.shape {
                let _ = writeln!(out, "    {m}");
            }
        }
        for m in &self.missing {
            let _ = writeln!(out, "  {m:<10} MISSING from the archive");
        }
        if self.has_drift() {
            let _ = writeln!(
                out,
                "DRIFT DETECTED — regenerate the archive or explain the change"
            );
        } else {
            let _ = writeln!(out, "no drift: archives match the regenerated reports");
        }
        out
    }
}

/// Extracts every `(heading, first fenced block)` pair from a
/// markdown document. The heading key is the `## ` text up to the em
/// dash, so `## Table 3 — cache command rate` archives under
/// "Table 3". Only the first fenced block after each heading counts;
/// prose and later blocks are ignored.
pub fn archived_blocks(markdown: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut current: Option<String> = None;
    let mut block: Option<String> = None;
    for line in markdown.lines() {
        if let Some(buf) = &mut block {
            if line.trim_end() == "```" {
                let body = block.take().expect("block is open");
                if let Some(section) = current.take() {
                    out.push((section, body));
                }
            } else {
                buf.push_str(line);
                buf.push('\n');
            }
        } else if let Some(rest) = line.strip_prefix("## ") {
            current = Some(rest.split(" —").next().unwrap_or(rest).trim().to_string());
        } else if line.trim_end().starts_with("```") {
            block = Some(String::new());
        }
    }
    out
}

/// Splits a report line into its numeric cells and a text skeleton
/// (the line with every numeric cell replaced by `#`, whitespace
/// collapsed). Tokens are trimmed of surrounding punctuation before
/// parsing, so `(19.9)`, `23.1%` and `100.0/` all yield cells while
/// labels, dashes and bar glyphs stay in the skeleton.
fn split_cells(line: &str) -> (Vec<f64>, String) {
    let mut cells = Vec::new();
    let mut skeleton = String::new();
    for token in line.split_whitespace() {
        let trimmed = token.trim_matches(|c: char| !(c.is_ascii_digit() || "+-.".contains(c)));
        let parsed = if trimmed.contains(|c: char| c.is_ascii_digit()) {
            trimmed.parse::<f64>().ok()
        } else {
            None
        };
        if !skeleton.is_empty() {
            skeleton.push(' ');
        }
        match parsed {
            Some(v) => {
                cells.push(v);
                skeleton.push('#');
            }
            None => skeleton.push_str(token),
        }
    }
    (cells, skeleton)
}

/// Compares one archived block against its regenerated report,
/// cell by cell.
pub fn compare_section(section: &str, archived: &str, regenerated: &str) -> SectionDrift {
    let mut drift = SectionDrift {
        section: section.to_string(),
        cells: 0,
        deltas: Vec::new(),
        shape: Vec::new(),
    };
    let old: Vec<&str> = archived.lines().map(str::trim_end).collect();
    let new: Vec<&str> = regenerated.lines().map(str::trim_end).collect();
    if old.len() != new.len() {
        drift.shape.push(format!(
            "line count differs: archived {} lines, regenerated {}",
            old.len(),
            new.len()
        ));
    }
    for (i, (a, r)) in old.iter().zip(&new).enumerate() {
        let line = i + 1;
        let (cells_a, skel_a) = split_cells(a);
        let (cells_r, skel_r) = split_cells(r);
        if skel_a != skel_r {
            drift.shape.push(format!(
                "line {line}: text differs\n      archived:    {a}\n      regenerated: {r}"
            ));
        }
        if cells_a.len() != cells_r.len() {
            drift.shape.push(format!(
                "line {line}: cell count differs ({} vs {})",
                cells_a.len(),
                cells_r.len()
            ));
            continue;
        }
        drift.cells += cells_a.len();
        for (j, (&va, &vr)) in cells_a.iter().zip(&cells_r).enumerate() {
            if va != vr {
                drift.deltas.push(CellDelta {
                    line,
                    cell: j + 1,
                    archived: va,
                    regenerated: vr,
                });
            }
        }
    }
    drift
}

/// Regenerates every tracked report and diffs it against the archived
/// blocks of `markdown` (an EXPERIMENTS.md document).
pub fn drift_against(markdown: &str) -> DriftReport {
    let blocks = archived_blocks(markdown);
    let mut report = DriftReport {
        sections: Vec::new(),
        missing: Vec::new(),
    };
    for (name, regenerate) in TRACKED_SECTIONS {
        match blocks.iter().find(|(key, _)| key == name) {
            Some((_, archived)) => {
                report
                    .sections
                    .push(compare_section(name, archived, &regenerate()));
            }
            None => report.missing.push(name.to_string()),
        }
    }
    report
}

/// The deterministic part of one `BENCH_*.json` report array, as
/// [`diff_reports`] compares it. Each archive declares its spec next
/// to its writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffSpec {
    /// Report name, for the rendered diff (`"sweep"`, `"perf"`).
    pub name: &'static str,
    /// The array whose entries are compared.
    pub array: &'static str,
    /// Fields whose values, joined by `/`, key an entry.
    pub key: &'static [&'static str],
    /// Numeric fields, compared exactly. A field may be absent from
    /// both sides; absent from one side is drift.
    pub numbers: &'static [&'static str],
    /// String fields, compared exactly (an outcome label, say).
    pub strings: &'static [&'static str],
}

/// The result of [`diff_reports`]: one [`SectionDrift`] per drifted
/// entry (section = entry key, cell = 1-based position in
/// [`DiffSpec::numbers`]), plus keys present on only one side.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDiff {
    /// The spec the reports were compared under.
    pub spec: DiffSpec,
    /// Entries compared on both sides.
    pub compared: usize,
    /// Numeric values compared.
    pub values: usize,
    /// Drifted entries, one section each.
    pub sections: Vec<SectionDrift>,
    /// Keys in the old report with no counterpart in the new.
    pub missing: Vec<String>,
    /// Keys in the new report with no counterpart in the old.
    pub added: Vec<String>,
}

impl ReportDiff {
    /// Did anything drift (value moved, string changed, entry
    /// appeared or disappeared)?
    pub fn has_drift(&self) -> bool {
        !self.missing.is_empty()
            || !self.added.is_empty()
            || self.sections.iter().any(|s| !s.is_clean())
    }

    /// Renders the human-readable diff.
    pub fn render(&self) -> String {
        let DiffSpec {
            name,
            array,
            numbers,
            ..
        } = self.spec;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{name} diff: {} {array} compared, {} values",
            self.compared, self.values
        );
        for s in &self.sections {
            let _ = writeln!(out, "  {} DRIFT", s.section);
            for d in &s.deltas {
                let _ = writeln!(
                    out,
                    "    {}: {} -> {} ({:+.2}%)",
                    numbers[d.cell - 1],
                    d.archived,
                    d.regenerated,
                    d.rel_delta_pct()
                );
            }
            for m in &s.shape {
                let _ = writeln!(out, "    {m}");
            }
        }
        for k in &self.missing {
            let _ = writeln!(out, "  {k} MISSING from the new report");
        }
        for k in &self.added {
            let _ = writeln!(out, "  {k} ADDED in the new report");
        }
        if self.has_drift() {
            let _ = writeln!(out, "{} DRIFT DETECTED", name.to_uppercase());
        } else {
            let _ = writeln!(
                out,
                "no drift: the {name} reports agree on every tracked value"
            );
        }
        out
    }
}

/// Diffs the `spec.array` entries of two parsed reports. Entries pair
/// by key; numeric fields compare with `==`, string fields by value,
/// and a field present on one side only is a shape mismatch.
///
/// # Errors
///
/// [`psi_core::PsiError::Syntax`] when either report lacks the array
/// or an entry lacks a string key field.
pub fn diff_reports(old: &Report, new: &Report, spec: &DiffSpec) -> psi_core::Result<ReportDiff> {
    let old = keyed_entries(old, spec)?;
    let new = keyed_entries(new, spec)?;
    let new_by_key: BTreeMap<&str, &JsonObject> =
        new.iter().map(|(k, e)| (k.as_str(), *e)).collect();
    let old_keys: BTreeSet<&str> = old.iter().map(|(k, _)| k.as_str()).collect();

    let mut diff = ReportDiff {
        spec: *spec,
        compared: 0,
        values: 0,
        sections: Vec::new(),
        missing: Vec::new(),
        added: Vec::new(),
    };
    for (key, o) in &old {
        let Some(n) = new_by_key.get(key.as_str()) else {
            diff.missing.push(key.clone());
            continue;
        };
        diff.compared += 1;
        let mut section = SectionDrift {
            section: key.clone(),
            cells: 0,
            deltas: Vec::new(),
            shape: Vec::new(),
        };
        for field in spec.strings {
            let a = o.get(field).and_then(JsonValue::as_str);
            let b = n.get(field).and_then(JsonValue::as_str);
            if a != b {
                section.shape.push(format!(
                    "{field} changed: {} -> {}",
                    a.unwrap_or("absent"),
                    b.unwrap_or("absent")
                ));
            }
        }
        for (i, field) in spec.numbers.iter().enumerate() {
            let number = |e: &JsonObject| e.get(field).and_then(|v| v.as_f64());
            match (number(o), number(n)) {
                (Some(a), Some(b)) => {
                    diff.values += 1;
                    section.cells += 1;
                    if a != b {
                        section.deltas.push(CellDelta {
                            line: 1,
                            cell: i + 1,
                            archived: a,
                            regenerated: b,
                        });
                    }
                }
                (None, None) => {}
                (a, b) => {
                    let text =
                        |v: Option<f64>| v.map_or_else(|| "absent".into(), |v| v.to_string());
                    section.shape.push(format!(
                        "{field} present on one side only ({} -> {})",
                        text(a),
                        text(b)
                    ));
                }
            }
        }
        if !section.is_clean() {
            diff.sections.push(section);
        }
    }
    for (key, _) in &new {
        if !old_keys.contains(key.as_str()) {
            diff.added.push(key.clone());
        }
    }
    Ok(diff)
}

/// The `TOOL diff OLD.json NEW.json` subcommand of the archive
/// writers (`sweepbench`, `corpusbench`): reads and parses both
/// reports, prints their [`diff_reports`] under `spec`, and fails on
/// drift, on a file it cannot read or parse, or on a malformed
/// invocation.
pub fn diff_command(tool: &str, args: &[String], spec: &DiffSpec) -> ExitCode {
    let [old_path, new_path] = args else {
        eprintln!("usage: {tool} diff OLD.json NEW.json");
        return ExitCode::FAILURE;
    };
    let read = |p: &String| -> Result<Report, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read `{p}`: {e}"))?;
        parse_report(&text).map_err(|e| format!("`{p}`: {e}"))
    };
    let diff = read(old_path)
        .and_then(|old| diff_reports(&old, &read(new_path)?, spec).map_err(|e| e.to_string()));
    match diff {
        Ok(diff) => {
            print!("{}", diff.render());
            if diff.has_drift() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("{tool} diff: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `spec.array` entries of `report`, each with its joined key.
fn keyed_entries<'r>(
    report: &'r Report,
    spec: &DiffSpec,
) -> psi_core::Result<Vec<(String, &'r JsonObject)>> {
    report
        .array(spec.array)?
        .iter()
        .map(|entry| {
            let key = spec
                .key
                .iter()
                .map(|k| entry.str_field(k))
                .collect::<psi_core::Result<Vec<_>>>()?;
            Ok((key.join("/"), entry))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "# title\n\n## Table 9 — synthetic\n\nprose\n\n```\nTable 9: things (%)\nprogram   a   b\nfoo      1.5  20\nbar      0.0   7\n```\n\n**Assessment.** words.\n\n## Untracked\n\n```\nwall clock 1.23s\n```\n";

    #[test]
    fn archived_blocks_pair_headings_with_their_first_fence() {
        let blocks = archived_blocks(DOC);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].0, "Table 9");
        assert!(blocks[0].1.starts_with("Table 9: things"));
        assert!(blocks[0].1.ends_with("bar      0.0   7\n"));
        assert_eq!(blocks[1].0, "Untracked");
    }

    #[test]
    fn identical_blocks_are_clean() {
        let block = &archived_blocks(DOC)[0].1;
        let drift = compare_section("Table 9", block, block);
        assert!(drift.is_clean(), "{drift:?}");
        // the header's "9" and "(%)"-free cells: 9, then 1.5 20 0.0 7.
        assert_eq!(drift.cells, 5);
    }

    #[test]
    fn a_perturbed_cell_is_flagged_with_its_delta() {
        let block = archived_blocks(DOC)[0].1.clone();
        let perturbed = block.replace("1.5", "1.8");
        let drift = compare_section("Table 9", &perturbed, &block);
        assert_eq!(drift.deltas.len(), 1);
        let d = &drift.deltas[0];
        assert_eq!((d.line, d.cell), (3, 1));
        assert_eq!(d.archived, 1.8);
        assert_eq!(d.regenerated, 1.5);
        assert!((d.rel_delta_pct() - (-16.666_666)).abs() < 1e-3);
        assert!(drift.shape.is_empty(), "numbers moved, text did not");
    }

    #[test]
    fn zero_valued_cells_never_produce_nan_deltas() {
        let d = CellDelta {
            line: 1,
            cell: 1,
            archived: 0.0,
            regenerated: 0.0,
        };
        assert_eq!(d.rel_delta_pct(), 0.0);
        let d = CellDelta {
            archived: 0.0,
            regenerated: 0.5,
            ..d
        };
        assert!(d.rel_delta_pct().is_infinite() && d.rel_delta_pct() > 0.0);
        assert!(!d.rel_delta_pct().is_nan());
    }

    #[test]
    fn textual_and_structural_drift_is_reported_as_shape() {
        let block = archived_blocks(DOC)[0].1.clone();
        let renamed = block.replace("bar", "baz");
        let drift = compare_section("Table 9", &renamed, &block);
        assert!(drift.deltas.is_empty());
        assert_eq!(drift.shape.len(), 1, "{:?}", drift.shape);

        let truncated: String = block.lines().take(3).map(|l| format!("{l}\n")).collect();
        let drift = compare_section("Table 9", &truncated, &block);
        assert!(!drift.is_clean());
        assert!(drift.shape[0].contains("line count differs"));
    }

    /// The keyed diff pairs entries by a multi-field key and reports
    /// a moved number, a changed string, a one-sided optional field
    /// and membership changes.
    #[test]
    fn keyed_diff_reports_every_kind_of_drift() {
        use psi_tools::json::{parse_report, ObjectBuilder, ReportBuilder};
        const SPEC: DiffSpec = DiffSpec {
            name: "demo",
            array: "cells",
            key: &["program", "lane"],
            numbers: &["steps", "hit_pct"],
            strings: &["outcome"],
        };
        let cell = |program: &str, lane: &str, steps: u64, outcome: &str| {
            ObjectBuilder::new()
                .str("program", program)
                .str("lane", lane)
                .str("outcome", outcome)
                .u64("steps", steps)
        };
        let report = |cells: Vec<ObjectBuilder>| {
            parse_report(&ReportBuilder::new("demo-v1").array("cells", cells).finish()).unwrap()
        };
        let old = report(vec![
            cell("p", "A", 10, "ok"),
            cell("p", "C", 10, "ok").f64("hit_pct", 90.5),
            cell("q", "A", 5, "ok"),
            cell("r", "A", 1, "ok"),
        ]);
        let clean = diff_reports(&old, &old, &SPEC).unwrap();
        assert!(!clean.has_drift(), "{}", clean.render());
        assert_eq!((clean.compared, clean.values), (4, 5));

        let new = report(vec![
            cell("p", "A", 11, "ok"),
            cell("p", "C", 10, "ok"),
            cell("q", "A", 5, "failed"),
            cell("s", "A", 1, "ok"),
        ]);
        let diff = diff_reports(&old, &new, &SPEC).unwrap();
        assert!(diff.has_drift());
        assert_eq!(diff.missing, ["r/A"]);
        assert_eq!(diff.added, ["s/A"]);
        let section = |key: &str| diff.sections.iter().find(|s| s.section == key).unwrap();
        assert_eq!(section("p/A").deltas[0].regenerated, 11.0);
        assert!(section("p/C").shape[0].contains("hit_pct present on one side only"));
        assert!(section("q/A").shape[0].contains("outcome changed: ok -> failed"));
        let rendered = diff.render();
        assert!(rendered.contains("steps: 10 -> 11"), "{rendered}");
        assert!(rendered.contains("DEMO DRIFT DETECTED"), "{rendered}");
        assert!(diff_reports(
            &old,
            &report(vec![]),
            &DiffSpec {
                array: "rows",
                ..SPEC
            }
        )
        .is_err());
    }

    /// The acceptance test: perturb one cell of a really regenerated
    /// report and the drift pass must flag exactly that cell.
    #[test]
    fn drift_report_flags_a_perturbed_figure1_cell() {
        let fresh = figure1_report();
        let perturbed = fresh.replace("8192", "9192");
        assert_ne!(fresh, perturbed, "the capacity column must be present");
        let drift = compare_section("Figure 1", &perturbed, &fresh);
        assert!(
            drift
                .deltas
                .iter()
                .any(|d| d.archived == 9192.0 && d.regenerated == 8192.0),
            "{drift:?}"
        );
        let clean = compare_section("Figure 1", &fresh, &fresh);
        assert!(clean.is_clean());
    }

    /// Every tracked section has an archived block in the repo's
    /// EXPERIMENTS.md, so the drift binary really guards them all.
    #[test]
    fn experiments_md_archives_every_tracked_section() {
        let markdown = include_str!("../../../EXPERIMENTS.md");
        let blocks = archived_blocks(markdown);
        for (name, _) in TRACKED_SECTIONS {
            assert!(
                blocks.iter().any(|(key, _)| key == name),
                "{name} has no archived block"
            );
        }
    }
}
