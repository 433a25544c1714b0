//! Differential testing: every baseline analyzer against the full inference
//! pipeline on the `numeric` suite.
//!
//! The baselines emulate the capability profiles of the paper's comparison
//! tools, so they are allowed to be *weaker* than HIPTNT+ — answering
//! unknown or exhausting their budget where the full pipeline proves a
//! verdict. What they must never do is *contradict* a definite verdict the
//! main analyzer proves: two sound tools can differ only in precision, never
//! in direction. (Both sides are additionally checked against the corpus
//! ground truth by `tests/conformance.rs` and `tests/soundness.rs`.)

use hiptnt::baselines::{Alternation, Analyzer, HipTntPlus, IntegerLoopOnly, TermOnly};
use hiptnt::infer::Outcome;
use hiptnt::suite::numeric;

fn is_definite(answer: Outcome) -> bool {
    matches!(answer, Outcome::Yes | Outcome::No)
}

/// Every answer of `tool` on the numeric suite, in corpus order.
fn answers(tool: &dyn Analyzer) -> Vec<Outcome> {
    let suite = numeric();
    let sources: Vec<&str> = suite.programs.iter().map(|p| p.source.as_str()).collect();
    tool.run(&sources)
        .into_iter()
        .map(|run| run.answer)
        .collect()
}

fn check_never_contradicts(baseline: &dyn Analyzer) {
    let suite = numeric();
    let references = answers(&HipTntPlus::default());
    let candidates = answers(baseline);
    let mut contradictions = Vec::new();
    let mut both_definite = 0usize;
    for ((program, reference), candidate) in suite.programs.iter().zip(references).zip(candidates) {
        if is_definite(reference) && is_definite(candidate) {
            both_definite += 1;
            if reference != candidate {
                contradictions.push(format!(
                    "{}: {} answered {candidate} but HIPTNT+ proved {reference}",
                    program.name,
                    baseline.name()
                ));
            }
        }
    }
    assert!(
        contradictions.is_empty(),
        "{} contradicts the main analyzer:\n{}",
        baseline.name(),
        contradictions.join("\n")
    );
    // The comparison must not be vacuous: the numeric suite is the common
    // ground every profile can handle (integer loops, no heap).
    assert!(
        both_definite > 0,
        "{}: no program had definite answers from both tools",
        baseline.name()
    );
}

#[test]
fn term_only_profile_never_contradicts_main() {
    check_never_contradicts(&TermOnly::default());
}

#[test]
fn alternation_profile_never_contradicts_main() {
    check_never_contradicts(&Alternation::default());
}

#[test]
fn integer_loop_profile_never_contradicts_main() {
    check_never_contradicts(&IntegerLoopOnly::default());
}

/// On the numeric suite the baselines may only be weaker, not stronger in the
/// wrong direction: any definite answer they produce on a program where the
/// main analyzer is inconclusive must still be consistent with ground truth.
#[test]
fn baseline_definites_respect_ground_truth_where_main_is_unknown() {
    let programs = numeric().programs;
    let references = answers(&HipTntPlus::default());
    let tools: [&dyn Analyzer; 3] = [
        &TermOnly::default(),
        &Alternation::default(),
        &IntegerLoopOnly::default(),
    ];
    for tool in tools {
        for ((program, reference), answer) in programs.iter().zip(&references).zip(answers(tool)) {
            assert!(
                is_definite(*reference) || !program.expected.contradicts(answer),
                "{} answered {answer} on {} ({} per ground truth)",
                tool.name(),
                program.name,
                program.expected
            );
        }
    }
}
