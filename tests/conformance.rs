//! Corpus-wide conformance: every program of all five corpora is analysed and
//! scored against its ground truth.
//!
//! Two invariants are enforced:
//!
//! * **Soundness (hard)** — the analyzer never answers `Y` on a ground-truth
//!   non-terminating program nor `N` on a terminating one. This mirrors the
//!   paper's Sec. 6 re-verification ("no false positives or negatives") and
//!   must hold with zero exceptions.
//! * **Precision floors (regression)** — each suite must keep at least the
//!   fraction of correct definite answers measured at the time this harness
//!   was built, locking in the Fig. 10/11 competitiveness. Precision may go
//!   up; a PR that trades it away fails here.
//!
//! A determinism check runs the generated `crafted` corpus twice (same
//! `SmallRng` seed) end to end and compares the rendered summaries byte for
//! byte — the regression tripwire for future parallelism/caching work.

use hiptnt::infer::AnalysisSession;
use hiptnt::suite::{crafted, crafted_lit, integer_loops, memory_alloca, numeric, runner, Suite};
use hiptnt::InferOptions;
use std::sync::OnceLock;

/// One batch session — one cross-program summary cache — shared by every suite
/// gate in this binary: the five corpora are template-generated and overlap
/// heavily (countdown/count-up/gcd shapes recur across suites), so each
/// canonical program is solved exactly once per test run.
fn session() -> &'static AnalysisSession {
    static SESSION: OnceLock<AnalysisSession> = OnceLock::new();
    SESSION.get_or_init(|| AnalysisSession::new(InferOptions::default()))
}

/// Runs one suite and enforces the two conformance invariants.
fn conforms(suite: Suite, precision_floor: f64) {
    let expected_len = suite.len();
    assert!(
        expected_len > 0,
        "{}: corpus generation produced an empty suite — a precision floor over \
         zero programs would be meaningless",
        suite.category.name()
    );
    let report = runner::run_suite_session(session(), &suite);
    assert_eq!(
        report.total(),
        expected_len,
        "{}: every corpus program must be executed",
        report.suite
    );

    let unsound = report.unsound();
    assert!(
        unsound.is_empty(),
        "{}: soundness violations (expected vs got): {:?}",
        report.suite,
        unsound
            .iter()
            .map(|p| format!("{} expected {} got {}", p.name, p.expected, p.outcome))
            .collect::<Vec<_>>()
    );

    assert!(
        report.precision() >= precision_floor,
        "{}: precision regressed to {:.3} (floor {:.2})\n{}",
        report.suite,
        report.precision(),
        precision_floor,
        report.render_row()
    );
}

// Floors are set just below the measured precision, leaving ~0.03–0.04 slack
// for benign verdict shifts while still catching real regressions. The
// multiphase/max ranking domain raised the measurements to crafted-lit 0.86,
// numeric 0.88, memory-alloca 0.95, integer-loops 0.85; the numeric and
// integer-loops floors lock in the retired gcd/phase-change timeouts (those
// suites carry the `gcd_like`/`phase_change_hard` instances). Recurrent-set
// synthesis raised crafted to 0.92 (the aperiodic `nimkar_aperiodic` instance
// now answers a definite `N` with a `k >= 0` precondition), so its floor locks
// that conversion in.

#[test]
fn crafted_suite_conforms() {
    conforms(crafted(), 0.88);
}

#[test]
fn crafted_lit_suite_conforms() {
    conforms(crafted_lit(), 0.82);
}

#[test]
fn numeric_suite_conforms() {
    conforms(numeric(), 0.85);
}

#[test]
fn memory_alloca_suite_conforms() {
    conforms(memory_alloca(), 0.90);
}

#[test]
fn integer_loops_suite_conforms() {
    conforms(integer_loops(), 0.82);
}

/// The programs whose analysis does not re-validate: base-case inference
/// splits their remainder into overlapping DNF cubes, so the partition check
/// rejects their (all-`Term`) case guards. Exclusive base-case partitions
/// are an open item in ROADMAP.md; once they land, this list empties.
const OVERLAPPING_BASE_CASE_PARTITIONS: [&str; 3] = ["lit_ackermann", "mem_walk_0", "mem_append_0"];

/// Every corpus result re-validates (`AnalysisResult::validated`), except
/// exactly the programs listed above; a listed program that starts to
/// validate fails here too, so the list cannot go stale. The corpora repeat
/// some programs verbatim under numbered names (`mem_walk_0`, `mem_walk_1`,
/// …), so each distinct source is named by its first occurrence.
#[test]
fn every_corpus_result_validates_except_overlapping_partitions() {
    let mut seen = std::collections::HashSet::new();
    let mut unvalidated: Vec<String> = Vec::new();
    for suite in [
        crafted(),
        crafted_lit(),
        numeric(),
        memory_alloca(),
        integer_loops(),
    ] {
        let sources: Vec<&str> = suite.programs.iter().map(|p| p.source.as_str()).collect();
        for (program, entry) in suite.programs.iter().zip(session().analyze_batch(&sources)) {
            if !seen.insert(program.source.clone()) {
                continue;
            }
            let result = entry
                .result
                .unwrap_or_else(|e| panic!("{}: analysis failed: {e:?}", program.name));
            if !result.validated {
                unvalidated.push(program.name.clone());
            }
        }
    }
    unvalidated.sort();
    let mut expected: Vec<String> = OVERLAPPING_BASE_CASE_PARTITIONS
        .iter()
        .map(|name| name.to_string())
        .collect();
    expected.sort();
    assert_eq!(
        unvalidated, expected,
        "the programs that fail re-validation must be exactly the listed ones"
    );
}

/// The `gcd_like` and `phase_change_hard` templates were the ROADMAP's standing
/// deterministic timeouts; the multiphase/max ranking domain proves them. This
/// tripwire pins the definite `Term` answers directly, independent of the floors.
#[test]
fn gcd_and_phase_change_templates_answer_term() {
    use hiptnt::suite::templates::{gcd_like, phase_change_hard};
    let suite = Suite {
        category: hiptnt::suite::Category::Crafted,
        programs: vec![
            gcd_like("gcd"),
            phase_change_hard("phase1", 1),
            phase_change_hard("phase3", 3),
        ],
    };
    let session = AnalysisSession::new(InferOptions::default());
    for report in runner::run_suite_session(&session, &suite).programs {
        assert_eq!(
            report.outcome,
            hiptnt::infer::Outcome::Yes,
            "{} must be proven terminating, got {}",
            report.name,
            report.outcome
        );
    }
}

/// Regenerating the `crafted` corpus (fixed `SmallRng` seed) and re-analysing
/// it must produce byte-identical rendered summaries. Future parallelism or
/// caching PRs that break run-to-run determinism trip this test. Each run gets
/// its own fresh session, so this exercises two *independent* runs (cold
/// caches), not one cache serving itself.
#[test]
fn crafted_suite_is_deterministic_end_to_end() {
    let run = || {
        let session = AnalysisSession::new(InferOptions::default());
        runner::rendered_summaries_session(&session, &crafted())
    };
    let first = run();
    let second = run();
    assert_eq!(first.len(), second.len());
    for ((name_a, summary_a), (name_b, summary_b)) in first.iter().zip(&second) {
        assert_eq!(name_a, name_b, "summary order must be stable");
        assert_eq!(
            summary_a, summary_b,
            "rendered summary of {name_a} differs between identical runs"
        );
    }
}

/// The summary cache must be invisible in every observable output: rendered
/// summaries over the whole `crafted` suite are byte-identical with the cache
/// enabled and disabled, and the scored reports agree field by field.
#[test]
fn crafted_summaries_identical_with_cache_on_and_off() {
    let options = InferOptions::default();
    let suite = crafted();
    let cached = runner::rendered_summaries_session(&AnalysisSession::new(options), &suite);
    let uncached =
        runner::rendered_summaries_session(&AnalysisSession::without_cache(options), &suite);
    assert_eq!(cached.len(), uncached.len());
    for ((name_a, summary_a), (name_b, summary_b)) in cached.iter().zip(&uncached) {
        assert_eq!(name_a, name_b, "summary order must be stable");
        assert_eq!(
            summary_a, summary_b,
            "rendered summary of {name_a} differs between cache on and off"
        );
    }
    let with_cache = runner::run_suite_session(&AnalysisSession::new(options), &suite);
    let without_cache = runner::run_suite_session(&AnalysisSession::without_cache(options), &suite);
    for (a, b) in with_cache.programs.iter().zip(&without_cache.programs) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.outcome, b.outcome, "{}", a.name);
        assert_eq!(a.work, b.work, "{}", a.name);
    }
}
