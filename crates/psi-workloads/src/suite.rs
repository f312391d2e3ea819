//! The assembled measurement suites and the paper's reported values,
//! used by the table generators in `psi-bench` and recorded against
//! our measurements in EXPERIMENTS.md.

use crate::{contest, harmonizer, parsers, puzzle, window, Workload};

/// One Table 1 row: workload plus the paper's measured milliseconds.
#[derive(Debug, Clone)]
pub struct Table1Entry {
    /// Row number in Table 1 (1-based).
    pub index: usize,
    /// The workload.
    pub workload: Workload,
    /// Paper's PSI time (ms).
    pub paper_psi_ms: f64,
    /// Paper's DEC-2060 time (ms).
    pub paper_dec_ms: f64,
}

impl Table1Entry {
    /// Paper's DEC/PSI ratio.
    pub fn paper_ratio(&self) -> f64 {
        self.paper_dec_ms / self.paper_psi_ms
    }
}

/// All nineteen Table 1 rows.
///
/// Input sizes are scaled to simulator-friendly magnitudes (the paper
/// ran on real hardware); the *ratios* between engines are the
/// reproduction target, not absolute milliseconds — see
/// EXPERIMENTS.md.
pub fn table1_suite() -> Vec<Table1Entry> {
    let rows: Vec<(Workload, f64, f64)> = vec![
        (contest::nreverse(30), 13.6, 9.48),
        (contest::quick_sort(50), 15.2, 14.6),
        (contest::tree_traversing(7), 51.7, 61.1),
        (contest::lisp_tarai(7, 4, 0), 4024.0, 4360.0),
        (contest::lisp_fib(10), 369.0, 402.0),
        (contest::lisp_nreverse(14), 173.0, 194.0),
        (contest::queens_first(8), 96.9, 97.5),
        (contest::queens_all(7), 1570.0, 1580.0),
        (contest::reverse_function(30, 8), 38.2, 41.7),
        (contest::slow_reverse(13), 99.4, 89.0),
        (parsers::bup(1), 43.0, 52.0),
        (parsers::bup(2), 139.0, 194.0),
        (parsers::bup(3), 309.0, 424.0),
        (harmonizer::harmonizer(1), 657.0, 1040.0),
        (harmonizer::harmonizer(2), 1879.0, 2670.0),
        (harmonizer::harmonizer(3), 24119.0, 31390.0),
        (parsers::lcp(1), 379.0, 295.0),
        (parsers::lcp(2), 1387.0, 1071.0),
        (parsers::lcp(3), 2130.0, 1656.0),
    ];
    rows.into_iter()
        .enumerate()
        .map(|(i, (workload, psi, dec))| Table1Entry {
            index: i + 1,
            workload,
            paper_psi_ms: psi,
            paper_dec_ms: dec,
        })
        .collect()
}

/// Does a `--rows` filter spec select Table 1 row `(index, program)`?
///
/// The spec is comma-separated; each token is either a 1-based Table 1
/// row number (`3`) or a case-insensitive substring of the program
/// name (`lisp`, `qsort`). An empty spec selects nothing.
pub fn row_matches(spec: &str, index: usize, program: &str) -> bool {
    let program = program.to_lowercase();
    spec.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .any(|t| match t.parse::<usize>() {
            Ok(n) => n == index,
            Err(_) => program.contains(&t.to_lowercase()),
        })
}

/// The seven programs of the hardware evaluation (Tables 3–5 rows).
pub fn hardware_suite() -> Vec<Workload> {
    vec![
        window::window(1),
        window::window(2),
        window::window(3),
        puzzle::eight_puzzle(6),
        parsers::bup(3),
        harmonizer::harmonizer(2),
        parsers::lcp(3),
    ]
}

/// The four programs of Table 2 (interpreter module ratios).
pub fn table2_suite() -> Vec<Workload> {
    vec![
        window::window(1),
        puzzle::eight_puzzle(6),
        parsers::bup(3),
        harmonizer::harmonizer(2),
    ]
}

/// The paper's reported values, verbatim from the tables.
pub mod paper {
    /// Table 2: execution step ratios (%) — rows window, 8 puzzle,
    /// BUP, harmonizer; columns control, unify, trail, get_arg, cut,
    /// built.
    pub const TABLE2: [(&str, [f64; 6]); 4] = [
        ("window", [31.1, 17.1, 2.0, 13.6, 10.0, 26.2]),
        ("8 puzzle", [27.5, 11.0, 7.5, 22.7, 0.0, 31.3]),
        ("BUP", [22.3, 43.0, 4.7, 5.2, 5.6, 19.2]),
        ("harmonizer", [25.5, 46.4, 5.4, 7.3, 4.0, 11.0]),
    ];

    /// Table 3: cache command rate per microstep (%) — columns read,
    /// write-stack, write, write-total, total.
    pub const TABLE3: [(&str, [f64; 5]); 7] = [
        ("window-1", [15.2, 3.5, 1.2, 4.7, 19.9]),
        ("window-2", [15.2, 3.0, 1.1, 4.1, 19.7]),
        ("window-3", [17.6, 3.9, 1.4, 5.3, 22.8]),
        ("8 puzzle", [9.9, 3.2, 2.8, 6.1, 16.0]),
        ("BUP", [15.6, 3.5, 2.2, 5.7, 21.3]),
        ("harmonizer", [15.3, 4.6, 2.2, 6.8, 22.1]),
        ("LCP", [17.0, 3.9, 2.2, 6.1, 23.1]),
    ];

    /// Table 4: access frequency per area (%) — columns heap, global,
    /// local, control, trail.
    pub const TABLE4: [(&str, [f64; 5]); 7] = [
        ("window-1", [49.6, 4.6, 16.5, 26.7, 2.6]),
        ("window-2", [56.6, 4.4, 12.7, 26.3, 0.1]),
        ("window-3", [52.7, 6.2, 12.1, 28.2, 0.8]),
        ("8 puzzle", [31.3, 14.3, 33.9, 14.1, 6.4]),
        ("BUP", [39.0, 29.9, 17.3, 12.0, 1.8]),
        ("harmonizer", [35.2, 17.7, 30.3, 12.8, 3.8]),
        ("LCP", [44.7, 22.3, 14.1, 17.4, 1.4]),
    ];

    /// Table 5: cache hit ratios per area (%) — columns heap, global,
    /// local, control, trail, total.
    pub const TABLE5: [(&str, [f64; 6]); 7] = [
        ("window-1", [96.1, 92.8, 98.9, 99.4, 99.6, 96.4]),
        ("window-2", [87.2, 90.0, 98.5, 99.3, 95.2, 91.9]),
        ("window-3", [84.5, 92.8, 97.4, 98.6, 98.7, 90.7]),
        ("8 puzzle", [99.2, 99.4, 99.6, 99.2, 97.7, 99.3]),
        ("BUP", [98.2, 96.8, 99.0, 93.2, 99.7, 98.0]),
        ("harmonizer", [98.4, 98.4, 99.4, 98.2, 97.9, 98.4]),
        ("LCP", [96.2, 93.8, 99.2, 99.1, 98.6, 96.2]),
    ];

    /// Table 6: WF access-mode shares for BUP (%), the `†` values —
    /// rows WF00-0F, WF10-3F, constant, @PDR/CDR, @WFAR1, @WFAR2,
    /// @WFCBR; columns source-1, source-2, destination (`-1.0` =
    /// mode unavailable in that field).
    pub const TABLE6_SHARES: [(&str, [f64; 3]); 7] = [
        ("WF00-0F", [12.2, 100.0, 33.0]),
        ("WF10-3F", [58.5, -1.0, 63.6]),
        ("constant", [23.0, -1.0, -1.0]),
        ("@PDR/CDR", [1.3, -1.0, 0.3]),
        ("@WFAR1", [4.6, -1.0, 2.8]),
        ("@WFAR2", [0.07, -1.0, 0.3]),
        ("@WFCBR", [0.3, -1.0, 0.0]),
    ];

    /// Table 6 `‡` totals: field access rate per microstep (%).
    pub const TABLE6_FIELD_RATES: [f64; 3] = [56.4, 29.1, 36.6];

    /// Table 7: branch-operation frequencies (%) for BUP, window and
    /// 8 puzzle, rows (1)–(16).
    pub const TABLE7: [(&str, [f64; 3]); 16] = [
        ("no operation (t1)", [7.2, 6.7, 4.8]),
        ("if (cond) then", [16.0, 16.5, 12.1]),
        ("if (not(cond)) then", [19.2, 17.0, 20.3]),
        ("if tag(src2) then", [2.7, 5.2, 3.1]),
        ("case (tag(n,P/CDR))", [10.9, 8.6, 9.1]),
        ("case (irn)", [2.8, 4.6, 4.9]),
        ("case (ir-opcode)", [0.5, 1.4, 1.5]),
        ("goto (t1)", [3.7, 1.4, 2.7]),
        ("gosub", [4.0, 5.7, 6.5]),
        ("return", [3.8, 5.4, 6.5]),
        ("load-jr", [0.8, 0.4, 0.7]),
        ("goto @jr (t1)", [1.4, 0.6, 0.7]),
        ("no operation (t2)", [9.6, 7.8, 7.7]),
        ("goto (t2)", [10.9, 11.7, 15.2]),
        ("no operation (t3)", [6.5, 7.0, 4.2]),
        ("goto @jr (t3)", [0.0, 0.04, 0.05]),
    ];

    /// §3.2: built-in call share of all calls (%).
    pub const BUILTIN_CALL_SHARE: [(&str, f64); 2] = [("window", 82.0), ("BUP", 65.0)];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_nineteen_rows() {
        let suite = table1_suite();
        assert_eq!(suite.len(), 19);
        assert!((suite[0].paper_ratio() - 0.70).abs() < 0.01);
        assert!((suite[13].paper_ratio() - 1.58).abs() < 0.01);
        assert!((suite[16].paper_ratio() - 0.78).abs() < 0.01);
    }

    #[test]
    fn hardware_suite_matches_table_rows() {
        let names: Vec<String> = hardware_suite().iter().map(|w| w.name.clone()).collect();
        assert_eq!(
            names,
            vec![
                "window-1",
                "window-2",
                "window-3",
                "8 puzzle",
                "BUP-3",
                "harmonizer-2",
                "LCP-3"
            ]
        );
    }

    #[test]
    fn paper_table_rows_sum_to_about_100() {
        for (name, row) in super::paper::TABLE2 {
            let sum: f64 = row.iter().sum();
            assert!((sum - 100.0).abs() < 0.5, "{name}: {sum}");
        }
        for (name, row) in super::paper::TABLE4 {
            let sum: f64 = row.iter().sum();
            assert!((sum - 100.0).abs() < 0.5, "{name}: {sum}");
        }
    }

    #[test]
    fn row_filter_matches_by_index_and_name() {
        assert!(row_matches("3", 3, "qsort 50"));
        assert!(!row_matches("3", 4, "qsort 50"));
        assert!(row_matches("LISP", 7, "lisp tarai3"));
        assert!(row_matches("1, lisp", 7, "lisp tarai3"));
        assert!(row_matches(" qsort ,9", 9, "nreverse 30"));
        assert!(!row_matches("", 1, "nreverse 30"));
        assert!(!row_matches(" , ", 1, "nreverse 30"));
    }
}
