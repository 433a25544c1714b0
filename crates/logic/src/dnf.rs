//! Negation normal form and disjunctive normal form.
//!
//! The simplifier ([`crate::simplify::prune`]) and the projection ([`crate::qe`])
//! work on the disjunctive normal form of a formula: a set of *cubes*, each cube
//! being a conjunction of canonical constraints with the `≠` atoms already split
//! into their two strict cases. Satisfiability ([`crate::sat`]) does not expand
//! eagerly: it searches the negation normal form branch by branch.
//!
//! Existential quantifiers in *positive* position are handled exactly by renaming the
//! bound variables to globally fresh names (satisfiability is preserved). A quantifier
//! in *negative* position (`¬∃`, i.e. a universal) is first eliminated with the
//! projection of [`crate::qe`] and then negated; this is exact over the rationals and an
//! over-approximation of the existential over the integers in rare non-unit-coefficient
//! cases. The inference engine never produces quantifiers in negative positions — the
//! paper's relational assumptions are quantifier-free — so this corner only matters for
//! adversarial hand-written formulas (see `DESIGN.md` §4).

use crate::constraint::{Constraint, RelOp};
use crate::formula::Formula;
use crate::qe;
use std::sync::atomic::{AtomicU64, Ordering};

/// A cube: the conjunction of the contained constraints.
pub type Cube = Vec<Constraint>;

static FRESH: AtomicU64 = AtomicU64::new(0);

/// Returns a globally fresh variable name with the given prefix.
pub fn fresh_var(prefix: &str) -> String {
    let n = FRESH.fetch_add(1, Ordering::Relaxed);
    format!("{prefix}#{n}")
}

/// Converts a formula to negation normal form: negations occur only directly on atoms
/// (and are then folded into the atoms themselves), `Exists` only in positive position.
pub fn to_nnf(formula: &Formula) -> Formula {
    nnf(formula, false)
}

fn nnf(formula: &Formula, negated: bool) -> Formula {
    match formula {
        Formula::True => {
            if negated {
                Formula::False
            } else {
                Formula::True
            }
        }
        Formula::False => {
            if negated {
                Formula::True
            } else {
                Formula::False
            }
        }
        Formula::Atom(c) => {
            if negated {
                Formula::or(c.negate().into_iter().map(Formula::Atom).collect())
            } else {
                Formula::Atom(c.clone())
            }
        }
        Formula::And(parts) => {
            let mapped: Vec<Formula> = parts.iter().map(|p| nnf(p, negated)).collect();
            if negated {
                Formula::or(mapped)
            } else {
                Formula::and(mapped)
            }
        }
        Formula::Or(parts) => {
            let mapped: Vec<Formula> = parts.iter().map(|p| nnf(p, negated)).collect();
            if negated {
                Formula::and(mapped)
            } else {
                Formula::or(mapped)
            }
        }
        Formula::Not(inner) => nnf(inner, !negated),
        Formula::Exists(vars, body) => {
            if negated {
                // ¬∃x.φ — eliminate the quantifier first, then negate the projection.
                let eliminated = qe::eliminate(&Formula::Exists(vars.clone(), body.clone()));
                nnf(&eliminated, true)
            } else {
                Formula::exists(vars.clone(), nnf(body, false))
            }
        }
    }
}

/// Converts a formula into disjunctive normal form.
///
/// The result is a list of cubes; the formula is equivalent (for satisfiability) to the
/// disjunction of the cubes' conjunctions. `≠` atoms are split, quantified variables in
/// positive position are renamed to fresh names.
pub fn to_dnf(formula: &Formula) -> Vec<Cube> {
    // The cap-event snapshot must be taken *before* NNF conversion: a negated
    // quantifier eliminates through `qe` and re-enters `to_dnf` from inside
    // `to_nnf`, and a cap overflow there already under-approximates the NNF.
    let capped_before = cap_events();
    let nnf = to_nnf(formula);
    // Per-conversion cube cap. Conversions nest (a negated quantifier projects and
    // re-converts), so the remaining allowance is saved and restored around each
    // top-level entry.
    let saved = PER_CALL_REMAINING.with(|r| r.replace(CUBE_CAP));
    let cubes = dnf_of_nnf(&nnf);
    PER_CALL_REMAINING.with(|r| r.set(saved));
    record_cubes(cubes.len() as u64);
    if cap_events() > capped_before {
        // The conversion overflowed the cap somewhere inside: the partial cube set
        // is meaningless, so return the TRUE cube — an over-approximation of the
        // input formula. Callers checking unsatisfiability (the soundness-critical
        // direction everywhere in this workspace) become conservative; callers in
        // weakening positions (transition guards, abduction hints) stay sound.
        return vec![vec![]];
    }
    cubes
}

thread_local! {
    static CUBE_WORK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static PER_CALL_REMAINING: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
    static CAP_EVENTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The per-conversion cube cap, which is also the node cap of one
/// satisfiability search ([`crate::sat`]).
///
/// A single [`to_dnf`] call that would produce more than this many cubes is
/// abandoned and over-approximated by the TRUE cube (see [`to_dnf`]); a search
/// that would visit more nodes answers "satisfiable", the same
/// over-approximation. Either event is visible through [`cap_events`]. 50k is
/// far above anything a within-budget analysis produces.
pub(crate) const CUBE_CAP: u64 = 50_000;

/// Monotone per-thread count of conversions and searches abandoned at the
/// cube cap.
///
/// Callers that cannot tolerate the TRUE-cube over-approximation (e.g. the
/// base-case inference, which uses projections in a strengthening position)
/// snapshot this counter around a conversion and discard their result if it
/// moved.
pub fn cap_events() -> u64 {
    CAP_EVENTS.with(|c| c.get())
}

pub(crate) fn record_cap_event() {
    CAP_EVENTS.with(|c| c.set(c.get().wrapping_add(1)));
}

/// Monotone per-thread count of DNF cubes produced since thread start,
/// including the intermediate cubes of And-distribution products, plus the
/// nodes visited by the satisfiability search of [`crate::sat`].
///
/// Both are the logic layer's exponential cores — a cube or a search node is
/// one partial conjunction — so the count is a deterministic proxy for
/// formula-manipulation work, the analogue of
/// `tnt_solver::simplex::pivot_work` for the logic layer. Budgeted callers
/// snapshot it before a unit of work and compare deltas afterwards.
pub fn cube_work() -> u64 {
    CUBE_WORK.with(|w| w.get())
}

pub(crate) fn record_cubes(count: u64) {
    CUBE_WORK.with(|w| w.set(w.get().wrapping_add(count)));
}

/// Deducts `amount` from the current conversion's cube allowance and charges it
/// to the work counter (intermediate And-products are where the exponential
/// cost lives, so the budget must see them even when the final cube set is
/// small). On overflow the cap event is recorded and `false` is returned,
/// telling the conversion to abandon the product.
fn consume_allowance(amount: u64) -> bool {
    record_cubes(amount);
    PER_CALL_REMAINING.with(|r| {
        let remaining = r.get();
        if let Some(left) = remaining.checked_sub(amount) {
            r.set(left);
            true
        } else {
            r.set(0);
            record_cap_event();
            false
        }
    })
}

fn dnf_of_nnf(formula: &Formula) -> Vec<Cube> {
    match formula {
        Formula::True => vec![vec![]],
        Formula::False => vec![],
        Formula::Atom(c) => match c.op() {
            RelOp::Ne => {
                let [a, b] = c.split_ne().expect("op is Ne");
                vec![vec![a], vec![b]]
            }
            _ => vec![vec![c.clone()]],
        },
        Formula::Or(parts) => parts.iter().flat_map(dnf_of_nnf).collect(),
        Formula::And(parts) => {
            let mut cubes: Vec<Cube> = vec![vec![]];
            for part in parts {
                let part_cubes = dnf_of_nnf(part);
                let product = cubes.len().saturating_mul(part_cubes.len());
                if !consume_allowance(product as u64) {
                    // Cap overflow: the result will be discarded by `to_dnf`, so
                    // any value works — keep it small and truthy.
                    return vec![vec![]];
                }
                let mut next = Vec::with_capacity(product.max(1));
                for cube in &cubes {
                    for pc in &part_cubes {
                        let mut merged = cube.clone();
                        merged.extend(pc.iter().cloned());
                        next.push(merged);
                    }
                }
                cubes = next;
                if cubes.is_empty() {
                    return cubes;
                }
            }
            cubes
        }
        Formula::Not(inner) => {
            // to_nnf leaves Not only around atoms in pathological cases; fold it here.
            match inner.as_ref() {
                Formula::Atom(c) => c
                    .negate()
                    .into_iter()
                    .flat_map(|d| dnf_of_nnf(&Formula::Atom(d)))
                    .collect(),
                other => dnf_of_nnf(&to_nnf(&Formula::Not(Box::new(other.clone())))),
            }
        }
        Formula::Exists(vars, body) => {
            // Positive position: rename the bound variables to fresh names.
            let mut renamed = body.as_ref().clone();
            for v in vars {
                renamed = renamed.rename(v, &fresh_var(v));
            }
            dnf_of_nnf(&to_nnf(&renamed))
        }
    }
}

/// Rebuilds a formula from a DNF cube list (used by the simplifier and the projection).
pub fn from_dnf(cubes: &[Cube]) -> Formula {
    Formula::or(
        cubes
            .iter()
            .map(|cube| Formula::and(cube.iter().cloned().map(Formula::Atom).collect()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use tnt_solver::{Lin, Rational};

    fn n(k: i128) -> Lin {
        Lin::constant(Rational::from(k))
    }

    fn x_ge(k: i128) -> Formula {
        Constraint::ge(Lin::var("x"), n(k)).into()
    }

    fn y_ge(k: i128) -> Formula {
        Constraint::ge(Lin::var("y"), n(k)).into()
    }

    #[test]
    fn nnf_pushes_negation_to_atoms() {
        let f = Formula::and(vec![x_ge(0), y_ge(0)]).negate();
        let nnf = to_nnf(&f);
        // ¬(x≥0 ∧ y≥0) = (x ≤ -1) ∨ (y ≤ -1)
        match nnf {
            Formula::Or(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected Or, got {other}"),
        }
    }

    #[test]
    fn dnf_of_conjunction_of_disjunctions() {
        let f = Formula::and(vec![
            Formula::or(vec![x_ge(0), x_ge(5)]),
            Formula::or(vec![y_ge(0), y_ge(5)]),
        ]);
        let cubes = to_dnf(&f);
        assert_eq!(cubes.len(), 4);
        assert!(cubes.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn dnf_splits_disequalities() {
        let f: Formula = Constraint::ne(Lin::var("x"), n(0)).into();
        let cubes = to_dnf(&f);
        assert_eq!(cubes.len(), 2);
    }

    #[test]
    fn dnf_of_false_is_empty() {
        assert!(to_dnf(&Formula::False).is_empty());
        assert_eq!(to_dnf(&Formula::True), vec![Vec::new()]);
    }

    #[test]
    fn positive_exists_is_freshened() {
        let body = Constraint::ge(Lin::var("x"), Lin::var("b")).into();
        let f = Formula::exists(vec!["b".to_string()], body);
        let cubes = to_dnf(&f);
        assert_eq!(cubes.len(), 1);
        let vars: Vec<String> = cubes[0][0].vars().map(|s| s.to_string()).collect();
        assert!(vars.iter().any(|v| v.starts_with("b#")));
    }

    #[test]
    fn from_dnf_roundtrips_evaluation() {
        let f = Formula::or(vec![Formula::and(vec![x_ge(0), y_ge(1)]), x_ge(10)]);
        let cubes = to_dnf(&f);
        let g = from_dnf(&cubes);
        for x in -2..12 {
            for y in -2..3 {
                let mut env = BTreeMap::new();
                env.insert("x".to_string(), x);
                env.insert("y".to_string(), y);
                assert_eq!(f.eval(&env, 3), g.eval(&env, 3), "x={x} y={y}");
            }
        }
    }

    #[test]
    fn fresh_vars_are_distinct() {
        assert_ne!(fresh_var("v"), fresh_var("v"));
    }
}
