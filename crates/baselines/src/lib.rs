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
//! solver attempts), not wall-clock races. Every answer is a [`tnt_infer::Outcome`];
//! HIPTNT+ answers [`AnalysisResult::outcome`], each other profile applies its own
//! rule to the same result.
//!
//! Each profile owns an [`AnalysisSession`] built for its own [`InferOptions`] and
//! answers a whole batch of programs through it, so every profile gets the session
//! pipeline's summary cache, method tier and panic isolation, and repeated programs
//! are served from that profile's cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;
use std::time::Instant;
use tnt_infer::{AnalysisResult, AnalysisSession, InferOptions, Outcome, Verdict};
use tnt_verify::callgraph::CallGraph;

/// The outcome of running a tool on one program.
#[derive(Clone, Copy, Debug)]
pub struct ToolRun {
    /// The answer (one column of Fig. 10/11).
    pub answer: Outcome,
    /// Wall-clock seconds spent.
    pub elapsed: f64,
}

/// A termination analyzer usable by the benchmark harness.
pub trait Analyzer {
    /// The tool's display name.
    fn name(&self) -> &'static str;

    /// Analyses a batch of programs (source texts in the core language),
    /// returning one run per source, in input order.
    fn run(&self, sources: &[&str]) -> Vec<ToolRun>;

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

/// Runs `sources` as one batch on `session`, answering each analysed program
/// with the profile's rule `score`; a front-end or analysis error answers `U`.
fn run_batch(
    session: &AnalysisSession,
    sources: &[&str],
    score: impl Fn(&AnalysisResult) -> Outcome,
) -> Vec<ToolRun> {
    session
        .analyze_batch(sources)
        .into_iter()
        .map(|entry| ToolRun {
            answer: entry.result.as_ref().map_or(Outcome::Unknown, &score),
            elapsed: entry.elapsed,
        })
        .collect()
}

/// A profile's answer when its own attempt count exceeds its budget: an
/// inconclusive verdict is then reported as `T/O`.
fn over_budget(verdict: Verdict, work: usize, budget: usize) -> Outcome {
    if verdict == Verdict::Unknown && work > budget {
        Outcome::Timeout
    } else {
        verdict.into()
    }
}

/// The full HIPTNT+ reproduction, wrapped for the harness.
#[derive(Clone, Debug)]
pub struct HipTntPlus {
    name: &'static str,
    session: Arc<AnalysisSession>,
}

impl Default for HipTntPlus {
    /// The paper's configuration.
    fn default() -> Self {
        HipTntPlus::with_options("HIPTNT+", InferOptions::default())
    }
}

impl HipTntPlus {
    /// A profile with explicit inference options (e.g. an ablation switch),
    /// shown under `name` in the tables.
    pub fn with_options(name: &'static str, options: InferOptions) -> HipTntPlus {
        HipTntPlus {
            name,
            session: session_for(options),
        }
    }
}

impl Analyzer for HipTntPlus {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, sources: &[&str]) -> Vec<ToolRun> {
        run_batch(&self.session, sources, AnalysisResult::outcome)
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

    fn run(&self, sources: &[&str]) -> Vec<ToolRun> {
        run_batch(&self.session, sources, |result| {
            let work = result.stats.ranking_attempts
                + result.stats.nonterm_attempts
                + result.stats.case_splits;
            match result.program_verdict() {
                Verdict::Terminating => Outcome::Yes,
                // A termination prover reports failed proofs, not non-termination.
                Verdict::NonTerminating | Verdict::Unknown => {
                    over_budget(Verdict::Unknown, work, self.budget)
                }
            }
        })
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

impl Alternation {
    /// Analyses one program with its heap specifications stripped.
    fn answer(&self, source: &str) -> Outcome {
        let Ok(mut program) = tnt_lang::frontend(source) else {
            return Outcome::Unknown;
        };
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
        let heap_work = if uses_heap { self.budget } else { 0 };
        // The cache key is built from the stripped program this profile
        // actually analyses.
        match self.session.analyze_parsed(program) {
            Ok(result) => over_budget(
                result.program_verdict(),
                result.stats.ranking_attempts + result.stats.nonterm_attempts + heap_work,
                self.budget,
            ),
            Err(_) if uses_heap => Outcome::Timeout,
            Err(_) => Outcome::Unknown,
        }
    }
}

impl Analyzer for Alternation {
    fn name(&self) -> &'static str {
        "ULTIMATE-profile"
    }

    fn run(&self, sources: &[&str]) -> Vec<ToolRun> {
        sources
            .iter()
            .map(|source| {
                let start = Instant::now();
                let answer = self.answer(source);
                ToolRun {
                    answer,
                    elapsed: start.elapsed().as_secs_f64(),
                }
            })
            .collect()
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

/// Whether the T2 profile's front end can translate `source`: it parses, and
/// uses neither the heap nor recursion of any cycle length.
fn integer_loops_only(source: &str) -> bool {
    let Ok(raw) = tnt_lang::parse_program(source) else {
        return false;
    };
    let graph = CallGraph::build(&raw);
    raw.datas.is_empty()
        && raw.preds.is_empty()
        && !raw.methods.iter().any(|m| graph.is_recursive(m.name))
}

impl Analyzer for IntegerLoopOnly {
    fn name(&self) -> &'static str {
        "T2-profile"
    }

    fn run(&self, sources: &[&str]) -> Vec<ToolRun> {
        let translatable: Vec<bool> = sources.iter().map(|s| integer_loops_only(s)).collect();
        let accepted: Vec<&str> = sources
            .iter()
            .zip(&translatable)
            .filter_map(|(source, &ok)| ok.then_some(*source))
            .collect();
        let mut analysed = run_batch(&self.session, &accepted, |result| {
            over_budget(
                result.program_verdict(),
                result.stats.ranking_attempts + result.stats.nonterm_attempts,
                self.budget,
            )
        })
        .into_iter();
        translatable
            .into_iter()
            .map(|ok| {
                if ok {
                    analysed.next().expect("one run per accepted program")
                } else {
                    ToolRun {
                        answer: Outcome::Unknown,
                        elapsed: 0.0,
                    }
                }
            })
            .collect()
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
    /// A terminating three-method recursion cycle `a -> b -> c -> a`.
    const THREE_CYCLE: &str = "void a(int n) { if (n <= 0) { return; } else { b(n - 1); } }\n\
         void b(int n) { c(n); }\n\
         void c(int n) { a(n); }\n\
         void main(int n) { a(n); }";
    const RECURSIVE: &str = "void down(int n) { if (n <= 0) { return; } else { down(n - 1); } }\n\
         void main(int n) { down(n); }";

    fn answer(tool: &dyn Analyzer, source: &str) -> Outcome {
        tool.run(&[source])[0].answer
    }

    #[test]
    fn full_tool_answers_yes_no_and_never_times_out() {
        let tool = HipTntPlus::default();
        assert_eq!(answer(&tool, TERMINATING), Outcome::Yes);
        assert_eq!(answer(&tool, DIVERGING), Outcome::No);
        assert_eq!(answer(&tool, CONDITIONAL), Outcome::No);
    }

    #[test]
    fn term_only_never_answers_no() {
        let tool = TermOnly::default();
        assert_eq!(answer(&tool, TERMINATING), Outcome::Yes);
        let diverging = answer(&tool, DIVERGING);
        assert_ne!(diverging, Outcome::No);
        let conditional = answer(&tool, CONDITIONAL);
        assert_ne!(conditional, Outcome::No);
    }

    #[test]
    fn alternation_proves_simple_cases_but_not_heap_nontermination() {
        let tool = Alternation::default();
        assert_eq!(answer(&tool, TERMINATING), Outcome::Yes);
        assert_eq!(answer(&tool, DIVERGING), Outcome::No);
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
        let stripped = answer(&tool, circular);
        assert!(
            matches!(stripped, Outcome::Unknown | Outcome::Timeout),
            "stripped heap specs must not yield a definite answer, got {stripped}"
        );
        let full = HipTntPlus::default();
        assert_eq!(answer(&full, circular), Outcome::No);
    }

    #[test]
    fn t2_profile_rejects_recursion_and_heap() {
        let tool = IntegerLoopOnly::default();
        assert_eq!(answer(&tool, TERMINATING), Outcome::Yes);
        assert_eq!(answer(&tool, RECURSIVE), Outcome::Unknown);
        let heap = "data node { node next; } void main(node x) { return; }";
        assert_eq!(answer(&tool, heap), Outcome::Unknown);
        assert_eq!(answer(&tool, THREE_CYCLE), Outcome::Unknown);
    }

    /// One batch answers like one program at a time, in input order.
    #[test]
    fn batch_answers_match_single_runs() {
        let programs = [TERMINATING, RECURSIVE, DIVERGING, TERMINATING];
        let profiles: Vec<Box<dyn Analyzer>> = vec![
            Box::new(HipTntPlus::default()),
            Box::new(IntegerLoopOnly::default()),
        ];
        for profile in &profiles {
            let batch: Vec<Outcome> = profile.run(&programs).iter().map(|r| r.answer).collect();
            let single: Vec<Outcome> = programs.iter().map(|p| answer(&**profile, p)).collect();
            assert_eq!(batch, single, "{}", profile.name());
        }
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
            let cold: Vec<Outcome> = programs.iter().map(|p| answer(&**profile, p)).collect();
            let misses = profile.session().stats().cache_misses;
            let warm: Vec<Outcome> = programs.iter().map(|p| answer(&**profile, p)).collect();
            assert_eq!(cold, warm, "{name}");
            let stats = profile.session().stats();
            assert_eq!(stats.cache_misses, misses, "{name}: warm pass recomputed");
            assert!(stats.memory_hits > 0, "{name}: repeat runs must hit");
        }
    }

    #[test]
    fn answers_render_like_the_paper_columns() {
        assert_eq!(Outcome::Yes.to_string(), "Y");
        assert_eq!(Outcome::No.to_string(), "N");
        assert_eq!(Outcome::Unknown.to_string(), "U");
        assert_eq!(Outcome::Timeout.to_string(), "T/O");
    }
}
