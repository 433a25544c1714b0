//! # tnt-baselines
//!
//! Baseline termination analyzers with the capability profiles of the tools the paper
//! compares against (AProVE, ULTIMATE and T2). The real tools are closed-source Java /
//! .NET systems driven through their SV-COMP wrappers; what the evaluation's *shape*
//! depends on is their capability profile, which these emulations reproduce
//! deterministically (see `DESIGN.md` §4):
//!
//! * [`TermOnly`] ("AProVE profile") — a strong termination prover that never reports
//!   non-termination, and exhausts its work budget on programs that need
//!   non-termination or case-split reasoning.
//! * [`Alternation`] ("ULTIMATE profile") — alternates termination and non-termination
//!   proving on the whole program, without the paper's case-splitting inference, with a
//!   smaller work budget and without separation-logic reasoning.
//! * [`IntegerLoopOnly`] ("T2 profile") — handles only loop-based integer programs
//!   (no recursion, no pointers — the `llvm2KITTeL` translation limits the paper
//!   mentions), without conditional-termination case splits.
//! * [`HipTntPlus`] — the full system of this repository, wrapped in the same
//!   interface for the benchmark harness.
//!
//! Every analyzer is deterministic: "timeouts" are exhausted work budgets (counted in
//! solver attempts), not wall-clock races.
//!
//! Each profile owns an [`AnalysisSession`] built for its own [`InferOptions`], so
//! every profile gets the session pipeline's summary cache, method tier and panic
//! isolation, and repeated programs are served from that profile's cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::Arc;
use std::time::Instant;
use tnt_infer::{AnalysisSession, InferOptions, Verdict};

/// The answer of a tool on one benchmark program (the columns of Fig. 10/11).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    /// Termination proven ("Y").
    Yes,
    /// Non-termination proven ("N").
    No,
    /// The tool gave up ("U").
    Unknown,
    /// The tool exhausted its budget ("T/O").
    Timeout,
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Answer::Yes => write!(f, "Y"),
            Answer::No => write!(f, "N"),
            Answer::Unknown => write!(f, "U"),
            Answer::Timeout => write!(f, "T/O"),
        }
    }
}

/// The outcome of running a tool on one program.
#[derive(Clone, Copy, Debug)]
pub struct ToolRun {
    /// The answer.
    pub answer: Answer,
    /// Wall-clock seconds spent.
    pub elapsed: f64,
}

/// A termination analyzer usable by the benchmark harness.
pub trait Analyzer {
    /// The tool's display name.
    fn name(&self) -> &'static str;

    /// Analyses one program (source text in the core language).
    fn run(&self, source: &str) -> ToolRun;

    /// The profile's own analysis session (for its reuse/spending counters).
    fn session(&self) -> &AnalysisSession;
}

/// A session for one profile's options.
fn session_for(options: InferOptions) -> Arc<AnalysisSession> {
    Arc::new(AnalysisSession::new(options))
}

/// The options of the profiles that switch off case splitting (AProVE, T2).
fn no_case_split() -> InferOptions {
    InferOptions {
        enable_case_split: false,
        validate: false,
        ..InferOptions::default()
    }
}

fn verdict_to_answer(verdict: Verdict) -> Answer {
    match verdict {
        Verdict::Terminating => Answer::Yes,
        Verdict::NonTerminating => Answer::No,
        Verdict::Unknown => Answer::Unknown,
    }
}

/// The full HIPTNT+ reproduction, wrapped for the harness.
#[derive(Clone, Debug)]
pub struct HipTntPlus {
    session: Arc<AnalysisSession>,
}

impl Default for HipTntPlus {
    /// The paper's configuration.
    fn default() -> Self {
        HipTntPlus::with_options(InferOptions::default())
    }
}

impl HipTntPlus {
    /// A profile with explicit inference options (e.g. an ablation switch).
    pub fn with_options(options: InferOptions) -> HipTntPlus {
        HipTntPlus {
            session: session_for(options),
        }
    }
}

impl Analyzer for HipTntPlus {
    fn name(&self) -> &'static str {
        "HIPTNT+"
    }

    fn run(&self, source: &str) -> ToolRun {
        let start = Instant::now();
        let answer = match self.session.analyze_source(source) {
            Ok(result) => match result.program_verdict() {
                // An inconclusive verdict caused by budget exhaustion is the
                // deterministic analogue of the paper's T/O outcome.
                Verdict::Unknown if result.stats.budget_exhausted => Answer::Timeout,
                verdict => verdict_to_answer(verdict),
            },
            Err(_) => Answer::Unknown,
        };
        ToolRun {
            answer,
            elapsed: start.elapsed().as_secs_f64(),
        }
    }

    fn session(&self) -> &AnalysisSession {
        &self.session
    }
}

/// "AProVE profile": termination proving only, generous power on terminating programs,
/// no non-termination answers, budget exhaustion on programs that need the reasoning it
/// lacks.
#[derive(Clone, Debug)]
pub struct TermOnly {
    /// Work budget in solver attempts (ranking + non-termination + splits).
    pub budget: usize,
    session: Arc<AnalysisSession>,
}

impl Default for TermOnly {
    fn default() -> Self {
        TermOnly {
            budget: 4,
            // Termination machinery at full power, but no abductive case
            // splitting (conditional termination / non-termination is out of
            // scope).
            session: session_for(no_case_split()),
        }
    }
}

impl Analyzer for TermOnly {
    fn name(&self) -> &'static str {
        "AProVE-profile"
    }

    fn run(&self, source: &str) -> ToolRun {
        let start = Instant::now();
        let answer = match self.session.analyze_source(source) {
            Ok(result) => {
                let work = result.stats.ranking_attempts
                    + result.stats.nonterm_attempts
                    + result.stats.case_splits;
                match result.program_verdict() {
                    Verdict::Terminating => Answer::Yes,
                    // A termination prover reports failed proofs, not non-termination.
                    Verdict::NonTerminating | Verdict::Unknown => {
                        if work > self.budget {
                            Answer::Timeout
                        } else {
                            Answer::Unknown
                        }
                    }
                }
            }
            Err(_) => Answer::Unknown,
        };
        ToolRun {
            answer,
            elapsed: start.elapsed().as_secs_f64(),
        }
    }

    fn session(&self) -> &AnalysisSession {
        &self.session
    }
}

/// "ULTIMATE profile": whole-program alternation of termination and non-termination
/// proving, without case splitting, lexicographic measures or separation-logic
/// reasoning, on a small work budget.
#[derive(Clone, Debug)]
pub struct Alternation {
    /// Work budget in solver attempts.
    pub budget: usize,
    session: Arc<AnalysisSession>,
}

impl Default for Alternation {
    fn default() -> Self {
        Alternation {
            budget: 3,
            session: session_for(InferOptions {
                lexicographic: false,
                validate: false,
                ..InferOptions::default()
            }),
        }
    }
}

impl Analyzer for Alternation {
    fn name(&self) -> &'static str {
        "ULTIMATE-profile"
    }

    fn run(&self, source: &str) -> ToolRun {
        let start = Instant::now();
        let answer = match tnt_lang::frontend(source) {
            Err(_) => Answer::Unknown,
            Ok(mut program) => {
                // No separation-logic back-end: heap specifications are dropped, so
                // heap-dependent scenarios degrade to unknown.
                let uses_heap = !program.preds.is_empty();
                program.preds.clear();
                program.lemmas.clear();
                for method in &mut program.methods {
                    if let Some(spec) = &method.spec {
                        if spec.mentions_heap() {
                            method.spec = None;
                        }
                    }
                }
                // The cache key is built from the stripped program this profile
                // actually analyses.
                match self.session.analyze_parsed(program) {
                    Ok(result) => {
                        let work = result.stats.ranking_attempts
                            + result.stats.nonterm_attempts
                            + if uses_heap { self.budget } else { 0 };
                        let verdict = result.program_verdict();
                        if verdict == Verdict::Unknown && work > self.budget {
                            Answer::Timeout
                        } else {
                            verdict_to_answer(verdict)
                        }
                    }
                    Err(_) => {
                        if uses_heap {
                            Answer::Timeout
                        } else {
                            Answer::Unknown
                        }
                    }
                }
            }
        };
        ToolRun {
            answer,
            elapsed: start.elapsed().as_secs_f64(),
        }
    }

    fn session(&self) -> &AnalysisSession {
        &self.session
    }
}

/// "T2 profile": loop-based integer programs only (the `llvm2KITTeL` front-end cannot
/// translate pointers or recursive methods), no conditional-termination case splits.
#[derive(Clone, Debug)]
pub struct IntegerLoopOnly {
    /// Work budget in solver attempts.
    pub budget: usize,
    session: Arc<AnalysisSession>,
}

impl Default for IntegerLoopOnly {
    fn default() -> Self {
        IntegerLoopOnly {
            budget: 5,
            session: session_for(no_case_split()),
        }
    }
}

impl Analyzer for IntegerLoopOnly {
    fn name(&self) -> &'static str {
        "T2-profile"
    }

    fn run(&self, source: &str) -> ToolRun {
        let start = Instant::now();
        let answer = match tnt_lang::parse_program(source) {
            Err(_) => Answer::Unknown,
            Ok(raw) => {
                let has_heap = !raw.datas.is_empty() || !raw.preds.is_empty();
                let has_recursion = raw.methods.iter().any(|m| {
                    raw.callees(m).iter().any(|callee| {
                        callee == &m.name
                            || raw
                                .method(callee)
                                .is_some_and(|c| raw.callees(c).contains(&m.name))
                    })
                });
                if has_heap || has_recursion {
                    Answer::Unknown
                } else {
                    match self.session.analyze_source(source) {
                        Err(_) => Answer::Unknown,
                        Ok(result) => {
                            let work =
                                result.stats.ranking_attempts + result.stats.nonterm_attempts;
                            let verdict = result.program_verdict();
                            if verdict == Verdict::Unknown && work > self.budget {
                                Answer::Timeout
                            } else {
                                verdict_to_answer(verdict)
                            }
                        }
                    }
                }
            }
        };
        ToolRun {
            answer,
            elapsed: start.elapsed().as_secs_f64(),
        }
    }

    fn session(&self) -> &AnalysisSession {
        &self.session
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TERMINATING: &str = "void main(int x) { while (x > 0) { x = x - 1; } }";
    const DIVERGING: &str = "void main(int x) { while (x >= 0) { x = x + 1; } }";
    const CONDITIONAL: &str =
        "void foo(int x, int y) { if (x < 0) { return; } else { foo(x + y, y); } }\n\
         void main(int x, int y) { foo(x, y); }";
    const RECURSIVE: &str = "void down(int n) { if (n <= 0) { return; } else { down(n - 1); } }\n\
         void main(int n) { down(n); }";

    #[test]
    fn full_tool_answers_yes_no_and_never_times_out() {
        let tool = HipTntPlus::default();
        assert_eq!(tool.run(TERMINATING).answer, Answer::Yes);
        assert_eq!(tool.run(DIVERGING).answer, Answer::No);
        assert_eq!(tool.run(CONDITIONAL).answer, Answer::No);
    }

    #[test]
    fn term_only_never_answers_no() {
        let tool = TermOnly::default();
        assert_eq!(tool.run(TERMINATING).answer, Answer::Yes);
        let diverging = tool.run(DIVERGING).answer;
        assert_ne!(diverging, Answer::No);
        let conditional = tool.run(CONDITIONAL).answer;
        assert_ne!(conditional, Answer::No);
    }

    #[test]
    fn alternation_proves_simple_cases_but_not_heap_nontermination() {
        let tool = Alternation::default();
        assert_eq!(tool.run(TERMINATING).answer, Answer::Yes);
        assert_eq!(tool.run(DIVERGING).answer, Answer::No);
        // Without the separation-logic back-end the circular-list example cannot be
        // proven non-terminating.
        let circular = "\
data node { node next; }
pred lseg(root, q, n) == root = q & n = 0 or root -> node(p) * lseg(p, q, n - 1);
pred cll(root, n) == root -> node(p) * lseg(p, root, n - 1);
lemma lseg(a, b, m) * b -> node(a) == cll(a, m + 1);
void append(node x, node y)
  requires cll(x, n) ensures true;
{ if (x.next == null) { x.next = y; } else { append(x.next, y); } }
void main(node x, node y)
  requires cll(x, n) ensures true;
{ append(x, y); }";
        let answer = tool.run(circular).answer;
        assert!(
            matches!(answer, Answer::Unknown | Answer::Timeout),
            "stripped heap specs must not yield a definite answer, got {answer}"
        );
        let full = HipTntPlus::default();
        assert_eq!(full.run(circular).answer, Answer::No);
    }

    #[test]
    fn t2_profile_rejects_recursion_and_heap() {
        let tool = IntegerLoopOnly::default();
        assert_eq!(tool.run(TERMINATING).answer, Answer::Yes);
        assert_eq!(tool.run(RECURSIVE).answer, Answer::Unknown);
        let heap = "data node { node next; } void main(node x) { return; }";
        assert_eq!(tool.run(heap).answer, Answer::Unknown);
    }

    /// Each profile's own session serves repeat runs from its cache without
    /// changing a single answer.
    #[test]
    fn session_reuse_does_not_change_any_profile_answer() {
        let programs = [TERMINATING, DIVERGING, CONDITIONAL, RECURSIVE];
        let profiles: Vec<Box<dyn Analyzer>> = vec![
            Box::new(HipTntPlus::default()),
            Box::new(TermOnly::default()),
            Box::new(Alternation::default()),
            Box::new(IntegerLoopOnly::default()),
        ];
        for profile in &profiles {
            let name = profile.name();
            let cold: Vec<Answer> = programs.iter().map(|p| profile.run(p).answer).collect();
            let misses = profile.session().stats().cache_misses;
            let warm: Vec<Answer> = programs.iter().map(|p| profile.run(p).answer).collect();
            assert_eq!(cold, warm, "{name}");
            let stats = profile.session().stats();
            assert_eq!(stats.cache_misses, misses, "{name}: warm pass recomputed");
            assert!(stats.memory_hits > 0, "{name}: repeat runs must hit");
        }
    }

    #[test]
    fn answers_render_like_the_paper_columns() {
        assert_eq!(Answer::Yes.to_string(), "Y");
        assert_eq!(Answer::No.to_string(), "N");
        assert_eq!(Answer::Unknown.to_string(), "U");
        assert_eq!(Answer::Timeout.to_string(), "T/O");
    }
}
