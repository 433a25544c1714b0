//! Soundness audit: on a sample of every benchmark suite, the analyzer never claims
//! termination of a non-terminating program nor non-termination of a terminating one
//! (mirroring the paper's re-verification finding no false positives or negatives).

use hiptnt::baselines::{Analyzer, HipTntPlus};
use hiptnt::suite::{integer_loops, svcomp_suites, Expected};

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
