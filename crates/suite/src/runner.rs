//! The corpus conformance runner: feeds every program of a suite through the
//! full inference pipeline and scores each verdict against the corpus ground
//! truth.
//!
//! This is the executable form of the paper's central soundness claim — the
//! re-verification of Sec. 6 "found no false positives or negatives" — turned
//! into a regression gate: a sound analyzer never answers *terminating* on a
//! ground-truth non-terminating program nor *non-terminating* on a terminating
//! one, no matter how imprecise it is allowed to be. Precision (how many
//! definite answers are produced) is tracked separately so the conformance
//! tests can pin per-suite floors that keep the reproduction competitive with
//! the paper's Fig. 10/11 numbers without ever trading soundness for them.
//!
//! Programs are analysed in parallel through an [`AnalysisSession`] batch (the
//! analysis is single-threaded and deterministic per program, so a parallel run
//! produces byte-identical reports), and programs sharing one canonical form are
//! analysed once and served from the session's cross-program summary cache —
//! with identical reports either way, which the cache-equivalence tests pin.

use crate::corpora::Suite;
use crate::templates::Expected;
use tnt_infer::{AnalysisSession, BatchEntry, Outcome};

/// The record of one program's run.
#[derive(Clone, Debug)]
pub struct ProgramReport {
    /// Program name (unique within its suite).
    pub name: String,
    /// Ground truth from the corpus.
    pub expected: Expected,
    /// The analyzer's outcome.
    pub outcome: Outcome,
    /// Wall-clock seconds spent on this program: the analysis time when it was
    /// actually analysed, the (near-zero) cache-lookup span when it was served
    /// from a summary-cache tier. Summing a warm pass therefore reflects what
    /// the pass actually cost instead of re-billing the original analyses.
    pub elapsed: f64,
    /// Deterministic work units spent (simplex pivots + satisfiability-search nodes).
    pub work: u64,
    /// Error note when the analysis panicked (isolated per program by the
    /// session); such programs score as [`Outcome::Unknown`] rather than
    /// aborting the run.
    pub note: Option<String>,
}

impl ProgramReport {
    /// `true` when the outcome contradicts the ground truth — the soundness
    /// violation the paper's re-verification rules out.
    pub fn is_unsound(&self) -> bool {
        self.expected.contradicts(self.outcome)
    }

    /// `true` when the outcome is the definite answer matching the ground truth.
    pub fn is_correct_definite(&self) -> bool {
        self.expected.confirms(self.outcome)
    }
}

/// The scored result of running one whole suite.
#[derive(Clone, Debug)]
pub struct SuiteReport {
    /// The suite's display name (the paper's table header).
    pub suite: String,
    /// Per-program records, in corpus order.
    pub programs: Vec<ProgramReport>,
}

impl SuiteReport {
    /// Number of programs run.
    pub fn total(&self) -> usize {
        self.programs.len()
    }

    /// The programs whose outcome contradicts the ground truth (must be empty
    /// for a sound analyzer).
    pub fn unsound(&self) -> Vec<&ProgramReport> {
        self.programs.iter().filter(|p| p.is_unsound()).collect()
    }

    /// Number of correct definite answers (`Y` on terminating, `N` on
    /// non-terminating).
    pub fn correct_definite(&self) -> usize {
        self.programs
            .iter()
            .filter(|p| p.is_correct_definite())
            .count()
    }

    /// Fraction of programs with a correct definite answer, in `[0, 1]`.
    ///
    /// An empty suite scores `0.0`: a run that silently produced no programs
    /// must *fail* a precision floor, not vacuously satisfy it (the previous
    /// `1.0` let an empty report sail past every conformance gate).
    pub fn precision(&self) -> f64 {
        if self.programs.is_empty() {
            return 0.0;
        }
        self.correct_definite() as f64 / self.programs.len() as f64
    }

    /// Outcome counts `(yes, no, unknown, timeout)` — one Fig. 10/11 cell group.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0);
        for p in &self.programs {
            match p.outcome {
                Outcome::Yes => counts.0 += 1,
                Outcome::No => counts.1 += 1,
                Outcome::Unknown => counts.2 += 1,
                Outcome::Timeout => counts.3 += 1,
            }
        }
        counts
    }

    /// Renders the report as one row of the paper's `Y N U T/O` table format.
    pub fn render_row(&self) -> String {
        let (yes, no, unknown, timeout) = self.counts();
        format!(
            "{:<16} total={:<4} Y={:<4} N={:<4} U={:<4} T/O={:<4} precision={:.2} unsound={}",
            self.suite,
            self.total(),
            yes,
            no,
            unknown,
            timeout,
            self.precision(),
            self.unsound().len()
        )
    }
}

/// Runs a whole suite through a caller-supplied [`AnalysisSession`] batch, in
/// parallel across programs, so several suites (or repeated runs) share one
/// cross-program summary cache.
///
/// The report lists programs in corpus order regardless of scheduling, and the
/// analysis itself is deterministic per program, so two runs of the same suite —
/// with any worker count, cache on or off — produce identical reports (up to the
/// wall-clock `elapsed` fields).
pub fn run_suite_session(session: &AnalysisSession, suite: &Suite) -> SuiteReport {
    run_suite_session_with(session, suite, tnt_infer::session::default_workers())
}

/// [`run_suite_session`] with an explicit worker count.
pub fn run_suite_session_with(
    session: &AnalysisSession,
    suite: &Suite,
    workers: usize,
) -> SuiteReport {
    let sources: Vec<&str> = suite.programs.iter().map(|p| p.source.as_str()).collect();
    let entries = session.analyze_batch_with(&sources, workers);
    SuiteReport {
        suite: suite.category.name().to_string(),
        programs: suite
            .programs
            .iter()
            .zip(entries)
            .map(|(program, entry)| score_entry(&program.name, program.expected, entry))
            .collect(),
    }
}

/// Scores one batch entry against its ground truth.
fn score_entry(name: &str, expected: Expected, entry: BatchEntry) -> ProgramReport {
    ProgramReport {
        name: name.to_string(),
        expected,
        outcome: entry
            .result
            .as_ref()
            .map_or(Outcome::Unknown, |result| result.outcome()),
        elapsed: entry.elapsed,
        work: entry.work,
        note: entry.panic_note,
    }
}

/// Renders every method summary inferred for every program of a suite, keyed by
/// `program/method`, through a caller-supplied session. Used by the determinism
/// regression tests: two cold runs with the same corpus seed — and a caching
/// and a non-caching session — must produce byte-identical renderings.
pub fn rendered_summaries_session(
    session: &AnalysisSession,
    suite: &Suite,
) -> Vec<(String, String)> {
    let sources: Vec<&str> = suite.programs.iter().map(|p| p.source.as_str()).collect();
    let entries = session.analyze_batch(&sources);
    let mut out = Vec::new();
    for (program, entry) in suite.programs.iter().zip(entries) {
        if let Ok(result) = entry.result {
            for (label, summary) in &result.summaries {
                out.push((format!("{}/{}", program.name, label), summary.render()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpora::Category;
    use tnt_infer::InferOptions;

    fn run_fresh(suite: &Suite, workers: usize) -> SuiteReport {
        let session = AnalysisSession::new(InferOptions::default());
        run_suite_session_with(&session, suite, workers)
    }

    fn tiny_suite() -> Suite {
        Suite {
            category: Category::Crafted,
            programs: vec![
                crate::templates::countdown("t_down", 1),
                crate::templates::diverging_counter("n_up", 0, 1),
                crate::templates::nondet_loop("u_nondet"),
            ],
        }
    }

    #[test]
    fn runner_scores_against_ground_truth() {
        let report = run_fresh(&tiny_suite(), 2);
        assert_eq!(report.total(), 3);
        assert!(report.unsound().is_empty());
        let by_name: std::collections::BTreeMap<&str, Outcome> = report
            .programs
            .iter()
            .map(|p| (p.name.as_str(), p.outcome))
            .collect();
        assert_eq!(by_name["t_down"], Outcome::Yes);
        assert_eq!(by_name["n_up"], Outcome::No);
        assert_eq!(by_name["u_nondet"], Outcome::Unknown);
    }

    #[test]
    fn parallel_and_sequential_reports_agree() {
        let suite = tiny_suite();
        let sequential = run_fresh(&suite, 1);
        let parallel = run_fresh(&suite, 4);
        for (a, b) in sequential.programs.iter().zip(&parallel.programs) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.work, b.work);
        }
    }

    /// A shared session reuses summaries across suites (and across repeated
    /// runs of the same suite) without changing any report field the scorer
    /// reads.
    #[test]
    fn shared_session_reuses_summaries_without_changing_reports() {
        let suite = tiny_suite();
        let session = tnt_infer::AnalysisSession::new(InferOptions::default());
        let first = run_suite_session_with(&session, &suite, 2);
        let misses_after_first = session.stats().cache_misses;
        let second = run_suite_session_with(&session, &suite, 2);
        let stats = session.stats();
        assert_eq!(
            stats.cache_misses, misses_after_first,
            "second run must be served entirely from the cache"
        );
        assert!(stats.cache_hits() >= suite.len() as u64);
        for (a, b) in first.programs.iter().zip(&second.programs) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.work, b.work);
        }
        // And the cached reports agree with a fresh uncached run.
        let uncached = run_suite_session_with(
            &tnt_infer::AnalysisSession::without_cache(InferOptions::default()),
            &suite,
            2,
        );
        for (a, b) in first.programs.iter().zip(&uncached.programs) {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.work, b.work);
        }
    }

    #[test]
    fn unsoundness_is_detected_by_the_scorer() {
        let report = ProgramReport {
            name: "x".into(),
            expected: Expected::NonTerminating,
            outcome: Outcome::Yes,
            elapsed: 0.0,
            work: 0,
            note: None,
        };
        assert!(report.is_unsound());
        assert!(!report.is_correct_definite());
    }

    #[test]
    fn precision_counts_only_correct_definites() {
        let mk = |expected, outcome| ProgramReport {
            name: "p".into(),
            expected,
            outcome,
            elapsed: 0.0,
            work: 0,
            note: None,
        };
        let report = SuiteReport {
            suite: "mini".into(),
            programs: vec![
                mk(Expected::Terminating, Outcome::Yes),
                mk(Expected::Terminating, Outcome::Unknown),
                mk(Expected::NonTerminating, Outcome::No),
                mk(Expected::NonTerminating, Outcome::Timeout),
            ],
        };
        assert_eq!(report.correct_definite(), 2);
        assert!((report.precision() - 0.5).abs() < 1e-9);
        let (yes, no, unknown, timeout) = report.counts();
        assert_eq!((yes, no, unknown, timeout), (1, 1, 1, 1));
    }

    /// An empty report must fail precision floors instead of vacuously passing
    /// them (a corpus-generation bug would otherwise be invisible).
    #[test]
    fn empty_suite_has_zero_precision() {
        let report = SuiteReport {
            suite: "empty".into(),
            programs: vec![],
        };
        assert_eq!(report.precision(), 0.0);
        assert_eq!(report.total(), 0);
        assert!(report.unsound().is_empty());
    }
}
