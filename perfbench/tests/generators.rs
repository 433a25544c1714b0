//! Self-tests of the seeded workload generators.

use std::collections::{BTreeMap, HashSet};

use perfbench::gen::{
    corpus, corpus_order, edit_stream, restart_mix, restart_sample, Request, RequestKind,
    EDITS_PER_PROGRAM, EDIT_METHODS, EDIT_PROGRAMS, EDIT_RESENDS,
};
use tnt_infer::session::canonical_method;

/// The program a serve-edit request belongs to, read off its method names
/// (`p<program>m<slot>`).
fn program_of(request: &Request) -> usize {
    let name = &request.labels[0].0;
    name[1..name.find('m').expect("method names are p<i>m<j>")]
        .parse()
        .expect("program index")
}

/// Canonical text of every method of the desugared program, by name.
fn canonical_methods(source: &str) -> BTreeMap<String, String> {
    let program = tnt_lang::frontend(source).expect("generated programs parse");
    program
        .methods
        .iter()
        .map(|m| (m.name.to_string(), canonical_method(m)))
        .collect()
}

#[test]
fn same_seed_gives_a_byte_identical_stream() {
    for seed in [0, 1, 7, u64::MAX] {
        let (a, b) = (edit_stream(seed), edit_stream(seed));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.source, y.source);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.edited, y.edited);
        }
        assert_eq!(corpus_order(seed, 0), corpus_order(seed, 0));
        let (s, t) = (restart_sample(seed), restart_sample(seed));
        assert!(s.iter().zip(&t).all(|(x, y)| x.source == y.source));
        assert_eq!(restart_mix(seed, s.len()), restart_mix(seed, t.len()));
    }
}

#[test]
fn a_different_seed_gives_a_different_order_and_different_edits() {
    let (a, b) = (edit_stream(1), edit_stream(2));
    let order = |s: &[Request]| -> Vec<(usize, Option<usize>)> {
        s.iter()
            .filter(|r| r.kind == RequestKind::Edit)
            .map(|r| (program_of(r), r.edited))
            .collect()
    };
    assert_ne!(order(&a), order(&b), "edit order");
    let edits = |s: &[Request]| -> HashSet<String> {
        s.iter()
            .filter(|r| r.kind == RequestKind::Edit)
            .map(|r| r.source.clone())
            .collect()
    };
    assert_ne!(edits(&a), edits(&b), "edits");
    assert_ne!(corpus_order(1, 0), corpus_order(2, 0));
    assert_ne!(restart_mix(1, 64), restart_mix(2, 64));
}

#[test]
fn the_corpus_order_never_changes_which_programs_run() {
    let mut order = corpus_order(3, 1);
    order.sort_unstable();
    assert_eq!(order, (0..corpus().len()).collect::<Vec<_>>());
    assert_eq!(corpus().len(), 559);
}

#[test]
fn every_generated_program_parses() {
    for seed in 0..4 {
        for request in edit_stream(seed) {
            tnt_lang::frontend(&request.source)
                .unwrap_or_else(|e| panic!("{}\n{e}", request.source));
        }
        for program in restart_sample(seed) {
            tnt_lang::frontend(&program.source).expect("corpus programs parse");
        }
    }
}

#[test]
fn the_stream_has_the_documented_mix() {
    let stream = edit_stream(5);
    let count = |kind| stream.iter().filter(|r| r.kind == kind).count();
    assert_eq!(count(RequestKind::Cold), EDIT_PROGRAMS);
    assert_eq!(count(RequestKind::Edit), EDIT_PROGRAMS * EDITS_PER_PROGRAM);
    assert_eq!(count(RequestKind::Resend), EDIT_RESENDS);
    // Every method slot is edited equally often.
    let mut per_slot = BTreeMap::new();
    for r in stream.iter().filter(|r| r.kind == RequestKind::Edit) {
        *per_slot.entry((program_of(r), r.edited)).or_insert(0) += 1;
    }
    assert_eq!(per_slot.len(), EDIT_PROGRAMS * EDIT_METHODS);
    assert!(per_slot
        .values()
        .all(|&n| n == EDITS_PER_PROGRAM / EDIT_METHODS));
    // No edit restores an earlier version: every edit is a new text.
    let mut sent = HashSet::new();
    for r in &stream {
        let new = sent.insert(r.source.clone());
        assert_eq!(new, r.kind != RequestKind::Resend, "{:?}", r.kind);
    }
}

#[test]
fn each_edit_changes_exactly_one_method_body() {
    for seed in 0..4 {
        let mut current: BTreeMap<usize, BTreeMap<String, String>> = BTreeMap::new();
        for request in edit_stream(seed) {
            let methods = canonical_methods(&request.source);
            let program = program_of(&request);
            match request.kind {
                RequestKind::Cold => {
                    current.insert(program, methods);
                }
                RequestKind::Resend => {}
                RequestKind::Edit => {
                    let before = current
                        .insert(program, methods.clone())
                        .expect("cold first");
                    assert_eq!(
                        before.keys().collect::<Vec<_>>(),
                        methods.keys().collect::<Vec<_>>(),
                        "an edit keeps the method set"
                    );
                    let changed: Vec<&String> = methods
                        .iter()
                        .filter(|(name, text)| before[*name] != **text)
                        .map(|(name, _)| name)
                        .collect();
                    assert_eq!(changed.len(), 1, "{changed:?} in\n{}", request.source);
                    let edited = &request.labels[request.edited.expect("edits name a slot")].0;
                    assert!(changed[0].starts_with(edited.as_str()));
                }
            }
        }
    }
}
