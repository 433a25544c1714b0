//! End-to-end gates for closed recurrent-set synthesis and the backwards
//! precondition mode.
//!
//! Two invariants are pinned:
//!
//! * **The aperiodic flagship** — the `nimkar_aperiodic` crafted instance (an
//!   outer counter that climbs while an inner loop drains a second variable)
//!   has no lasso-shaped divergence witness, so it is exactly the program the
//!   periodic `prove_NonTerm` machinery cannot classify. The recurrent-set
//!   fall-back must answer a definite `N` with the inferred non-termination
//!   precondition `k >= 0`, and the rendered summary is pinned byte for byte.
//! * **Closure self-check (property)** — every recurrent set the synthesizer
//!   certifies over a seeded family of transition systems must be closed under
//!   one-step concrete simulation from every sampled valuation inside it.
//!   `synthesize` already re-validates this internally; the property test
//!   re-runs the check from the outside so a regression in either the Farkas
//!   closure certificates or the sampler trips a test, not just a debug path.
//! * **Region generality (anti-regression + property)** — an enriched
//!   candidate pool must never make the selected region *smaller*: on
//!   `x' = y, y' = y + 1` the synthesizer must return the full
//!   `x ≥ 0 ∧ y ≥ 0` region even when narrower inductive slabs (e.g.
//!   `y − x ≥ 0`) are offered, and across a seeded family the selected set is
//!   never strictly sample-covered by another certified candidate.

use hiptnt::infer::{analyze_source, InferOptions, PreconditionKind, Verdict};
use hiptnt::logic::testgen;
use hiptnt::solver::farkas;
use hiptnt::solver::recurrent::{self, RecurrentSet, Stepper};
use hiptnt::solver::system::{NodeId, Transition, TransitionSystem};
use hiptnt::solver::{Ineq, Lin, Rational};
use hiptnt::suite::templates::nimkar_aperiodic;
use std::collections::BTreeMap;

/// The fixed sample seed shared with `prove_nonterm_recurrent` — the gate must
/// exercise the same valuations the production path filters candidates with.
const SAMPLE_SEED: u64 = 0x5EED_2EC5;

#[test]
fn nimkar_analogue_answers_nonterm_with_a_k_ge_zero_precondition() {
    let program = nimkar_aperiodic("nimkar");
    let result = analyze_source(&program.source, &InferOptions::default()).expect("analysis");
    assert_eq!(result.program_verdict(), Verdict::NonTerminating);
    assert!(
        result.validated,
        "the recurrent-set verdict must re-validate"
    );

    let main = &result.summaries["main"];
    assert_eq!(
        main.render(),
        "case {\n\
         \x20 k >= 0 -> requires Loop ensures false;\n\
         \x20 -k - 1 >= 0 -> requires Term[0] ensures true;\n\
         }\n\
         precondition non-terminating: k >= 0",
        "pinned rendering of the recurrent-set summary drifted"
    );

    let pre = result
        .program_precondition()
        .expect("a program precondition");
    assert_eq!(pre.kind, PreconditionKind::NonTerminating);
    assert_eq!(pre.region.to_string(), "k >= 0");
}

fn rational_samples(vars: &[&str]) -> Vec<BTreeMap<String, Rational>> {
    testgen::seeded_int_envs(SAMPLE_SEED, vars, -16..17, 24)
        .into_iter()
        .map(|env| {
            env.into_iter()
                .map(|(name, value)| (name, Rational::from(value)))
                .collect()
        })
        .collect()
}

fn x() -> Lin {
    Lin::var("x")
}

fn y() -> Lin {
    Lin::var("y")
}

fn constant(value: i128) -> Lin {
    Lin::constant(Rational::from(value))
}

/// A loop predicate over `formals`, with no transitions yet.
fn loop_over(formals: &[&str]) -> TransitionSystem {
    let mut system = TransitionSystem::new();
    system.add_node(formals);
    system
}

/// A self-call of the loop predicate.
fn self_call(dst_vars: Vec<String>, args: Vec<Lin>, guard: Vec<Ineq>) -> Transition {
    Transition::new(NodeId(0), NodeId(0), dst_vars, args, guard)
}

/// Checks one problem: whenever synthesis certifies a set, the set must be
/// inductive under the external Farkas re-check, closed on every sampled
/// valuation it contains, and must actually contain its own entry witness.
fn assert_closed_if_synthesized(
    problem: &TransitionSystem,
    candidates: &[Ineq],
    samples: &[BTreeMap<String, Rational>],
) -> bool {
    let stepper = Stepper::new(problem);
    let Some(set) = recurrent::synthesize(&stepper, candidates, samples) else {
        return false;
    };
    assert!(
        recurrent::is_inductive(problem, &set.atoms),
        "synthesized set is not Farkas-inductive: {:?}",
        set.atoms
    );
    assert!(
        recurrent::closed_on_samples(&stepper, &set, samples),
        "synthesized set escapes under concrete simulation: {:?}",
        set.atoms
    );
    assert!(
        set.contains(&set.entry),
        "entry witness lies outside the set: {:?}",
        set.entry
    );
    true
}

#[test]
fn synthesized_recurrent_sets_are_closed_on_sampled_valuations() {
    let mut synthesized = 0usize;

    // One-variable counters: x' = x + step, guarded by x >= low. For every
    // step >= 0 some suffix `x >= c` of the candidate grid is recurrent.
    let samples = rational_samples(&["x"]);
    let candidates: Vec<Ineq> = (-3..4)
        .map(|c| Ineq::ge_zero(x().sub(&constant(c))))
        .collect();
    for step in 0..4 {
        for low in -3..4 {
            let mut problem = loop_over(&["x"]);
            let update = x().add(&constant(step));
            let mut guard = vec![Ineq::ge_zero(x().sub(&constant(low)))];
            guard.extend(Ineq::eq_zero(Lin::var("x@dst").sub(&update)));
            problem.add_transition(self_call(vec!["x@dst".to_string()], vec![update], guard));
            if assert_closed_if_synthesized(&problem, &candidates, &samples) {
                synthesized += 1;
            }
        }
    }

    // The paper's `foo` shape: (x, y) -> (x + y, y) guarded by x >= 0; the
    // recurrent set needs the conjunction x >= 0 & y >= 0 — neither atom is
    // inductive alone, so this exercises the Houdini interaction.
    let samples = rational_samples(&["x", "y"]);
    let candidates = vec![
        Ineq::ge_zero(x()),
        Ineq::ge_zero(y()),
        Ineq::ge_zero(constant(0).sub(&y())),
    ];
    let mut problem = loop_over(&["x", "y"]);
    let mut guard = vec![Ineq::ge_zero(x())];
    guard.extend(Ineq::eq_zero(Lin::var("x@dst").sub(&x().add(&y()))));
    guard.extend(Ineq::eq_zero(Lin::var("y@dst").sub(&y())));
    problem.add_transition(self_call(
        vec!["x@dst".to_string(), "y@dst".to_string()],
        vec![x().add(&y()), y()],
        guard,
    ));
    assert!(
        assert_closed_if_synthesized(&problem, &candidates, &samples),
        "the foo-shaped problem must synthesize a recurrent set"
    );
    synthesized += 1;

    assert!(
        synthesized >= 20,
        "the family must synthesize sets on most instances, got {synthesized}"
    );
}

/// The shape that motivated region scoring: `x' = y, y' = y + 1` guarded by
/// `x ≥ 0`. With an enriched candidate pool, the narrowing difference atom
/// `y − x ≥ 0` also certifies (the cone `x ≥ 0 ∧ y ≥ x` is inductive and
/// guard-implying too), but the scoring must rank the full `x ≥ 0 ∧ y ≥ 0`
/// region strictly above that slab, and the end-to-end analysis must answer
/// with the full region — never one carved down by a difference atom.
#[test]
fn enriched_pool_selects_the_full_region_not_a_difference_slab() {
    // Solver level: the full region outranks the cone slab in the ranked
    // synthesis even though both certify.
    let mut problem = loop_over(&["x", "y"]);
    let mut guard = vec![Ineq::ge_zero(x())];
    guard.extend(Ineq::eq_zero(Lin::var("x@dst").sub(&y())));
    guard.extend(Ineq::eq_zero(Lin::var("y@dst").sub(&y().add(&constant(1)))));
    problem.add_transition(self_call(
        vec!["x@dst".to_string(), "y@dst".to_string()],
        vec![y(), y().add(&constant(1))],
        guard,
    ));
    let candidates = vec![
        Ineq::ge_zero(x()),
        Ineq::ge_zero(y()),
        Ineq::ge_zero(y().sub(&x())),
        Ineq::ge_zero(x().sub(&y())),
    ];
    let samples = rational_samples(&["x", "y"]);
    let ranked = recurrent::synthesize_ranked(&Stepper::new(&problem), &candidates, &samples);
    assert!(!ranked.is_empty(), "the drift shape must certify sets");
    let atoms_of = |set: &RecurrentSet| -> Vec<String> {
        let mut rendered: Vec<String> = set.atoms.iter().map(|a| a.to_string()).collect();
        rendered.sort();
        rendered
    };
    // The production selection rule: callers walk the ranked list and take
    // the first set whose side conditions pass; for this one-transition loop
    // exit-infeasibility is `S ⟹ guard`. That first passing set must be the
    // full region, not the `y ≥ x` cone slab (which also certifies).
    let selected = ranked
        .iter()
        .find(|s| farkas::implies(&s.atoms, &Ineq::ge_zero(x())))
        .expect("a guard-implying certified set must exist");
    assert_eq!(
        atoms_of(selected),
        ["x >= 0", "y >= 0"],
        "the first guard-implying certified set must be the full region"
    );
    assert!(
        ranked
            .iter()
            .any(|s| atoms_of(s) == ["-x + y >= 0", "x >= 0", "y >= 0"]
                || atoms_of(s) == ["-x + y >= 0", "x >= 0"]),
        "the narrower cone slab should certify too — otherwise this test \
         no longer exercises the scoring preference"
    );

    // End to end: the analyzer answers the full region, and no difference
    // slab leaks into the rendered summary.
    let result = analyze_source(
        "void main(int x, int y) { while (x >= 0) { x = y; y = y + 1; } }",
        &InferOptions::default(),
    )
    .expect("analysis succeeds");
    assert_eq!(result.program_verdict(), Verdict::NonTerminating);
    let main = result.summaries["main"].render();
    assert!(
        main.contains("(x >= 0 & y >= 0) -> requires Loop"),
        "the full region must be the divergence case, got:\n{main}"
    );
    for slab in ["x - y", "-x + y", "y - x", "-y + x"] {
        assert!(
            !main.contains(slab),
            "a difference slab {slab:?} leaked into the summary:\n{main}"
        );
    }
}

/// Property over a seeded family: the set the scoring selects is never
/// strictly sample-covered by another certified candidate — no other ranked
/// set contains every sample of the winner plus at least one more.
#[test]
fn selected_region_is_never_strictly_covered_by_another_certified_set() {
    let samples = rational_samples(&["x", "y"]);
    let mut checked = 0usize;
    for step in 0..3i128 {
        for low in -2..3i128 {
            let mut problem = loop_over(&["x", "y"]);
            let x_update = x().add(&y());
            let y_update = y().add(&constant(step));
            let mut guard = vec![Ineq::ge_zero(x().sub(&constant(low)))];
            guard.extend(Ineq::eq_zero(Lin::var("x@dst").sub(&x_update)));
            guard.extend(Ineq::eq_zero(Lin::var("y@dst").sub(&y_update)));
            problem.add_transition(self_call(
                vec!["x@dst".to_string(), "y@dst".to_string()],
                vec![x_update, y_update],
                guard,
            ));

            let candidates = vec![
                Ineq::ge_zero(x()),
                Ineq::ge_zero(y()),
                Ineq::ge_zero(x().sub(&constant(low))),
                Ineq::ge_zero(y().sub(&x())),
                Ineq::ge_zero(x().sub(&y())),
                Ineq::ge_zero(x().add(&y())),
            ];
            let ranked =
                recurrent::synthesize_ranked(&Stepper::new(&problem), &candidates, &samples);
            let Some(selected) = ranked.first() else {
                continue;
            };
            checked += 1;
            let inside = |atoms: &[Ineq]| -> Vec<bool> {
                samples
                    .iter()
                    .map(|s| atoms.iter().all(|a| a.holds(s)))
                    .collect()
            };
            let selected_cover = inside(&selected.atoms);
            for other in &ranked[1..] {
                let other_cover = inside(&other.atoms);
                let contains_all = selected_cover
                    .iter()
                    .zip(&other_cover)
                    .all(|(sel, oth)| !sel || *oth);
                let strictly_more = other_cover.iter().filter(|c| **c).count()
                    > selected_cover.iter().filter(|c| **c).count();
                assert!(
                    !(contains_all && strictly_more),
                    "selected {:?} is strictly covered by certified {:?}",
                    selected.atoms,
                    other.atoms
                );
            }
        }
    }
    assert!(
        checked >= 10,
        "the seeded family must certify sets on most instances, got {checked}"
    );
}
