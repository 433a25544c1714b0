//! Soundness audit: on a sample of every benchmark suite, the analyzer never claims
//! termination of a non-terminating program nor non-termination of a terminating one
//! (mirroring the paper's re-verification finding no false positives or negatives).

use hiptnt::baselines::{Analyzer, HipTntPlus};
use hiptnt::infer::{AnalysisSession, Outcome};
use hiptnt::suite::{integer_loops, svcomp_suites, Expected};
use hiptnt::InferOptions;

fn audit(programs: &[(String, String, Expected)]) {
    let sources: Vec<&str> = programs
        .iter()
        .map(|(_, source, _)| source.as_str())
        .collect();
    let runs = HipTntPlus::default().run(&sources);
    for ((name, _, expected), run) in programs.iter().zip(runs) {
        assert!(
            !expected.contradicts(run.answer),
            "unsound: {name} answered {} but is {expected}",
            run.answer
        );
    }
}

fn sample(step: usize) -> Vec<(String, String, Expected)> {
    let mut out = Vec::new();
    for suite in svcomp_suites().into_iter().chain([integer_loops()]) {
        for program in suite.programs.iter().step_by(step) {
            out.push((
                program.name.clone(),
                program.source.clone(),
                program.expected,
            ));
        }
    }
    out
}

#[test]
fn analyzer_is_sound_on_a_corpus_sample() {
    // Every 7th program of every suite (~80 programs) keeps the test fast while
    // covering all template families; the full audit is done by the fig10/fig11
    // binaries, which check every program.
    audit(&sample(7));
}

/// A call whose callee scenario is proven must still havoc its `ref`
/// arguments. Loops are desugared into methods whose parameters are all
/// `ref`, so a caller that kept a variable's pre-loop value after the loop
/// would reason about a state the program never reaches.
#[test]
fn ref_arguments_are_havocked_after_a_proven_call() {
    // After the first loop `y == 1`, so the second loop never exits.
    let diverges = "void main(int x) { int y = 0; while (y < 1) { y = y + 1; } \
                    while (y > 0) { y = y + 1; } }";
    // After the first loop `x <= 0`, so the second loop never runs.
    let terminates = "void main(int x) { while (x > 0) { x = x - 1; } \
                      while (x > 0) { x = x + 1; } }";
    let session = AnalysisSession::new(InferOptions::default());
    let outcome = |source: &str| session.analyze_source(source).expect("analyses").outcome();
    assert_ne!(
        outcome(diverges),
        Outcome::Yes,
        "claims termination of a diverging program"
    );
    assert_ne!(
        outcome(terminates),
        Outcome::No,
        "claims divergence of a terminating program"
    );
}
