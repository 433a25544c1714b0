//! Integration test: the heap example of the paper's Fig. 4 (append on `lseg` / `cll`).

use hiptnt::{analyze_source, CaseStatus, InferOptions, Verdict};

const APPEND: &str = "\
data node { node next; }
pred lseg(root, q, n) == root = q & n = 0
   or root -> node(p) * lseg(p, q, n - 1);
pred cll(root, n) == root -> node(p) * lseg(p, root, n - 1);
lemma lseg(a, b, m) * b -> node(a) == cll(a, m + 1);

void append(node x, node y)
  requires lseg(x, null, n) & x != null ensures lseg(x, y, n);
  requires cll(x, n) ensures true;
{ if (x.next == null) { x.next = y; } else { append(x.next, y); } }";

#[test]
fn list_segment_scenario_terminates_with_measure_n() {
    let result = analyze_source(APPEND, &InferOptions::default()).unwrap();
    let segment = &result.summaries["append#0"];
    assert_eq!(segment.verdict(), Verdict::Terminating);
    // Some case carries a non-trivial measure mentioning the segment length n.
    assert!(segment
        .cases
        .iter()
        .any(|c| matches!(&c.status, CaseStatus::Term(m) if m.iter().any(|l| l.depends_on("n")))));
}

#[test]
fn circular_list_scenario_is_definitely_non_terminating() {
    let result = analyze_source(APPEND, &InferOptions::default()).unwrap();
    let circular = &result.summaries["append#1"];
    assert_eq!(circular.verdict(), Verdict::NonTerminating);
    assert!(circular.cases.iter().all(|c| !c.post_reachable()));
}

/// Without a heap specification nothing establishes that `x` points to a cell,
/// so the field accesses cannot be verified. The analysis must refuse the
/// program instead of dropping the unverifiable states and proving `Term`
/// vacuously: on a circular list this `append` diverges.
#[test]
fn spec_less_circular_append_is_an_error_never_term() {
    const SPEC_LESS: &str = "data node { node next; } \
         void append(node x, node y) \
         { if (x.next == null) { x.next = y; } else { append(x.next, y); } }";
    let outcome = analyze_source(SPEC_LESS, &InferOptions::default());
    let error = outcome.expect_err("an unverifiable field access must fail the analysis");
    assert!(error.message.contains("field access"), "{error}");
}
