//! # tnt-bench
//!
//! The benchmark harness that regenerates the paper's evaluation tables:
//!
//! * **Figure 10** — termination outcomes on the four SV-COMP-like suites
//!   (`cargo run -p tnt-bench --bin fig10 --release`),
//! * **Figure 11** — the loop-based integer-program comparison
//!   (`cargo run -p tnt-bench --bin fig11 --release`),
//! * the **ablation study** over the design choices called out in `DESIGN.md`
//!   (`cargo run -p tnt-bench --bin ablation --release`).
//!
//! Each run prints the table in the paper's row/column format and cross-checks every
//! answer against the corpus ground truth (a sound tool never answers `Y` on a
//! non-terminating program or `N` on a terminating one).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;
use std::fmt::Write as _;
use tnt_baselines::Analyzer;
use tnt_infer::Outcome;
use tnt_suite::{Expected, Suite};

/// The per-suite outcome counts of one tool (one cell group of Fig. 10/11).
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct Row {
    /// Termination proven.
    pub yes: usize,
    /// Non-termination proven.
    pub no: usize,
    /// Unknown.
    pub unknown: usize,
    /// Budget exhausted ("timeout").
    pub timeout: usize,
    /// Total wall-clock seconds (excluding timeouts, as in the paper).
    pub time: f64,
    /// Unsound answers detected against the ground truth (must be zero).
    pub unsound: usize,
}

impl Row {
    /// Total number of programs.
    pub fn total(&self) -> usize {
        self.yes + self.no + self.unknown + self.timeout
    }

    /// Accumulates one program's outcome.
    pub fn record(&mut self, answer: Outcome, elapsed: f64, expected: Expected) {
        match answer {
            Outcome::Yes => self.yes += 1,
            Outcome::No => self.no += 1,
            Outcome::Unknown => self.unknown += 1,
            Outcome::Timeout => self.timeout += 1,
        }
        if answer != Outcome::Timeout {
            self.time += elapsed;
        }
        if expected.contradicts(answer) {
            self.unsound += 1;
        }
    }
}

/// Runs one tool over one suite, as one batch.
pub fn run_suite(tool: &dyn Analyzer, suite: &Suite) -> Row {
    let sources: Vec<&str> = suite.programs.iter().map(|p| p.source.as_str()).collect();
    let mut row = Row::default();
    for (run, program) in tool.run(&sources).into_iter().zip(&suite.programs) {
        row.record(run.answer, run.elapsed, program.expected);
    }
    row
}

/// One line summing the reuse counters of every tool's own session — the
/// footer the table binaries print under the table.
pub fn session_line(tools: &[&dyn Analyzer]) -> String {
    let (mut programs, mut analysed, mut served) = (0, 0, 0);
    for tool in tools {
        let stats = tool.session().stats();
        programs += stats.programs;
        analysed += stats.cache_misses;
        served += stats.cache_hits();
    }
    format!("(sessions: {programs} programs, {analysed} analysed, {served} served from cache)")
}

/// A complete table: per tool, a row per suite (plus a computed total row).
#[derive(Clone, Debug, Serialize)]
pub struct Table {
    /// Suite names, in column order.
    pub suites: Vec<String>,
    /// `(tool name, per-suite rows)` in row order.
    pub rows: Vec<(String, Vec<Row>)>,
}

impl Table {
    /// Runs every tool over every suite.
    pub fn build(tools: &[&dyn Analyzer], suites: &[Suite]) -> Table {
        let rows = tools
            .iter()
            .map(|tool| {
                let per_suite = suites.iter().map(|s| run_suite(*tool, s)).collect();
                (tool.name().to_string(), per_suite)
            })
            .collect();
        Table {
            suites: suites
                .iter()
                .map(|s| s.category.name().to_string())
                .collect(),
            rows,
        }
    }

    /// The total row of a tool (summing over suites).
    pub fn totals(rows: &[Row]) -> Row {
        let mut total = Row::default();
        for r in rows {
            total.yes += r.yes;
            total.no += r.no;
            total.unknown += r.unknown;
            total.timeout += r.timeout;
            total.time += r.time;
            total.unsound += r.unsound;
        }
        total
    }

    /// Renders the table in the paper's `Y N U T/O Time` format.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {title} ==");
        let _ = write!(out, "{:<18}", "Tool");
        for suite in &self.suites {
            let _ = write!(out, "| {:<30}", suite);
        }
        let _ = writeln!(out, "| {:<30}", "Total");
        let _ = write!(out, "{:<18}", "");
        for _ in 0..=self.suites.len() {
            let _ = write!(
                out,
                "| {:>4} {:>4} {:>4} {:>4} {:>9}",
                "Y", "N", "U", "T/O", "Time(s)"
            );
        }
        let _ = writeln!(out);
        for (tool, rows) in &self.rows {
            let _ = write!(out, "{tool:<18}");
            for row in rows {
                let _ = write!(
                    out,
                    "| {:>4} {:>4} {:>4} {:>4} {:>9.2}",
                    row.yes, row.no, row.unknown, row.timeout, row.time
                );
            }
            let total = Table::totals(rows);
            let _ = writeln!(
                out,
                "| {:>4} {:>4} {:>4} {:>4} {:>9.2}",
                total.yes, total.no, total.unknown, total.timeout, total.time
            );
        }
        let unsound: usize = self
            .rows
            .iter()
            .map(|(_, rows)| Table::totals(rows).unsound)
            .sum();
        let _ = writeln!(out, "(unsound answers across all tools: {unsound})");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_accounting() {
        let mut row = Row::default();
        row.record(Outcome::Yes, 0.5, Expected::Terminating);
        row.record(Outcome::No, 0.25, Expected::NonTerminating);
        row.record(Outcome::Unknown, 0.25, Expected::Terminating);
        row.record(Outcome::Timeout, 100.0, Expected::Terminating);
        assert_eq!(row.total(), 4);
        assert_eq!((row.yes, row.no, row.unknown, row.timeout), (1, 1, 1, 1));
        assert!((row.time - 1.0).abs() < 1e-9);
        assert_eq!(row.unsound, 0);
    }

    #[test]
    fn unsound_answers_are_flagged() {
        let mut row = Row::default();
        row.record(Outcome::Yes, 0.1, Expected::NonTerminating);
        row.record(Outcome::No, 0.1, Expected::Terminating);
        assert_eq!(row.unsound, 2);
    }

    /// The `--json` paths interpolate suite and tool names into the emitted
    /// document; names with quotes, backslashes or newlines must still produce
    /// valid JSON (gate: parse the emission with the strict parser).
    #[test]
    fn hostile_names_still_emit_valid_json() {
        let table = Table {
            suites: vec![
                "crafted \"v2\"".to_string(),
                "back\\slash\nline".to_string(),
            ],
            rows: vec![(
                "tool \"quoted\"\ttabbed".to_string(),
                vec![Row::default(), Row::default()],
            )],
        };
        for emitted in [
            serde_json::to_string(&table).unwrap(),
            serde_json::to_string_pretty(&table).unwrap(),
        ] {
            let parsed = serde_json::from_str(&emitted)
                .unwrap_or_else(|err| panic!("emitted JSON must parse: {err}\n{emitted}"));
            let suites = parsed.get("suites").unwrap().as_array().unwrap();
            assert_eq!(suites[0].as_str(), Some("crafted \"v2\""));
            assert_eq!(suites[1].as_str(), Some("back\\slash\nline"));
            let rows = parsed.get("rows").unwrap().as_array().unwrap();
            let (name, cells) = (
                &rows[0].as_array().unwrap()[0],
                &rows[0].as_array().unwrap()[1],
            );
            assert_eq!(name.as_str(), Some("tool \"quoted\"\ttabbed"));
            assert_eq!(cells.as_array().unwrap().len(), 2);
        }
    }
}
