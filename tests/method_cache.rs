//! End-to-end gates for the per-method record tier: editing one method of a
//! multi-method program must re-prove only the dirty cone (callers of the
//! edit), replaying the cached records of everything outside it — with the
//! reported `work` and the rendered summaries byte-identical to a cold run.

use hiptnt::infer::{AnalysisSession, CacheTier};
use hiptnt::InferOptions;

/// A leaf method plus a root that calls it, both directly recursive (no
/// `while` loops, so the front-end generates no extra loop-helper methods and
/// the call graph is exactly `root → leaf`). The two parameters make "editing"
/// either method a one-token change.
fn two_method_program(leaf_step: i64, root_extra: i64) -> String {
    format!(
        "void leaf(int x) {{ if (x > 0) {{ leaf(x - {leaf_step}); }} else {{ return; }} }}\n\
         void root(int x, int y)\n\
         {{ leaf(x); if (y > {root_extra}) {{ root(x, y - 1); }} else {{ return; }} }}"
    )
}

/// Renders every summary of a batch entry into one comparable string.
fn rendered(entry: &hiptnt::infer::BatchEntry) -> String {
    let result = entry.result.as_ref().expect("analysis succeeds");
    result
        .summaries
        .iter()
        .map(|(label, s)| format!("{label}:{}", s.render()))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Editing the root keeps the leaf's composite key stable, so the leaf's
/// method record is replayed: the session reports a method-tier hit, spends
/// strictly less measured work than a cold session on the same edit, and still
/// reports byte-identical summaries and per-program `work`.
#[test]
fn editing_the_root_reuses_the_leaf_method_summary() {
    let original = two_method_program(1, 0);
    let root_edited = two_method_program(1, 7);

    // Cold reference: a fresh session analysing only the edited program.
    let cold = AnalysisSession::new(InferOptions::default());
    let cold_batch = cold.analyze_batch_with(&[root_edited.as_str()], 1);
    let cold_work = cold.stats().work;

    // Warm session: sees the original first, then the root-edited program.
    let warm = AnalysisSession::new(InferOptions::default());
    warm.analyze_batch_with(&[original.as_str()], 1);
    let warm_before = warm.stats().work;
    let warm_batch = warm.analyze_batch_with(&[root_edited.as_str()], 1);
    let warm_entry = &warm_batch[0];

    assert!(
        warm_entry.tier.is_none(),
        "an edited program is a program-tier miss"
    );
    assert!(
        warm_entry.method_hits >= 1,
        "the unedited leaf must be served from the method tier"
    );
    assert_eq!(
        warm.stats().method_hits,
        warm_entry.method_hits,
        "session and entry accounting agree"
    );

    // Observational equivalence with the cold run: identical summaries and
    // identical deterministic work attribution.
    assert_eq!(rendered(warm_entry), rendered(&cold_batch[0]));
    assert_eq!(warm_entry.work, cold_batch[0].work);

    // The savings surface in the session's *measured* spending: replaying the
    // leaf's record must cost strictly less than re-proving it.
    let warm_spent = warm.stats().work - warm_before;
    assert!(
        warm_spent < cold_work,
        "dirty-cone analysis ({warm_spent}) must spend less than cold ({cold_work})"
    );
}

/// Editing the leaf changes its own canonical body *and* (through key
/// composition) the root's composite key: both method records are invalidated
/// and no method-tier hit is reported.
#[test]
fn editing_the_leaf_invalidates_both_method_summaries() {
    let original = two_method_program(1, 0);
    let leaf_edited = two_method_program(2, 0);

    let cold = AnalysisSession::new(InferOptions::default());
    let cold_batch = cold.analyze_batch_with(&[leaf_edited.as_str()], 1);

    let warm = AnalysisSession::new(InferOptions::default());
    warm.analyze_batch_with(&[original.as_str()], 1);
    let warm_batch = warm.analyze_batch_with(&[leaf_edited.as_str()], 1);
    let warm_entry = &warm_batch[0];

    assert!(warm_entry.tier.is_none());
    assert_eq!(
        warm_entry.method_hits, 0,
        "a leaf edit dirties every cone above it — nothing may be replayed"
    );
    assert_eq!(warm.stats().method_hits, 0);

    // Still byte-identical to cold, of course.
    assert_eq!(rendered(warm_entry), rendered(&cold_batch[0]));
    assert_eq!(warm_entry.work, cold_batch[0].work);
}

/// The method tier is invisible to single-program verdicts and to repeated
/// identical batches: a re-sent identical program is still a program-tier hit
/// with zero method hits.
#[test]
fn identical_resubmission_stays_a_program_tier_hit() {
    let source = two_method_program(1, 0);
    let session = AnalysisSession::new(InferOptions::default());
    session.analyze_batch_with(&[source.as_str()], 1);
    let again = session.analyze_batch_with(&[source.as_str()], 1);
    assert_eq!(again[0].tier, Some(CacheTier::Memory));
    assert_eq!(again[0].method_hits, 0);
}

/// Every method record the five corpora produce replays to the cold result.
/// Appending an unrelated leaf method to a program leaves every other SCC key
/// unchanged, so each SCC recorded on the first pass is a method-tier hit on
/// the re-send; the replayed results must equal a cold session's on the same
/// re-sent programs, field for field.
#[test]
fn every_corpus_method_record_replays_to_the_cold_result() {
    use hiptnt::suite::{crafted, crafted_lit, integer_loops, memory_alloca, numeric};
    let sources: Vec<String> = [
        crafted(),
        crafted_lit(),
        numeric(),
        memory_alloca(),
        integer_loops(),
    ]
    .into_iter()
    .flat_map(|suite| suite.programs.into_iter().map(|p| p.source))
    .collect();
    let probed: Vec<String> = sources
        .iter()
        .map(|s| format!("{s}\nvoid zz_replay_probe(int x) {{ return; }}"))
        .collect();
    fn refs(sources: &[String]) -> Vec<&str> {
        sources.iter().map(String::as_str).collect()
    }

    let warm = AnalysisSession::new(InferOptions::default());
    warm.analyze_batch(&refs(&sources));
    let replayed = warm.analyze_batch(&refs(&probed));
    let cold = AnalysisSession::new(InferOptions::default()).analyze_batch(&refs(&probed));

    let method_hits: u64 = replayed.iter().map(|e| e.method_hits).sum();
    assert!(method_hits > 0, "the re-sends must replay method records");
    for ((source, warm), cold) in probed.iter().zip(&replayed).zip(&cold) {
        let (Ok(w), Ok(c)) = (&warm.result, &cold.result) else {
            assert_eq!(warm.result.is_ok(), cold.result.is_ok(), "{source}");
            continue;
        };
        assert_eq!(rendered(warm), rendered(cold), "{source}");
        assert_eq!(
            format!("{:?}", w.stats),
            format!("{:?}", c.stats),
            "{source}"
        );
        assert_eq!(w.validated, c.validated, "{source}");
        assert_eq!(w.poisoned, c.poisoned, "{source}");
    }
}
