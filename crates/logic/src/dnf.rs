//! Negation normal form and disjunctive normal form.
//!
//! The projection ([`crate::qe`]) and the per-cube ranking transitions work on the
//! disjunctive normal form of a formula: a list of *cubes*, each a conjunction of
//! canonical constraints with the `≠` atoms split into their two strict cases.
//! [`to_dnf`] is one walk of the search in [`crate::sat`]; this module keeps the
//! negation normal form every walk starts from and the node cap that bounds them.
//!
//! Existential quantifiers in *positive* position are handled exactly by renaming the
//! bound variables to globally fresh names (satisfiability is preserved). A quantifier
//! in *negative* position (`¬∃`, i.e. a universal) is first eliminated with the
//! projection of [`crate::qe`] and then negated; this is exact over the rationals and an
//! over-approximation of the existential over the integers in rare non-unit-coefficient
//! cases. The inference engine never produces quantifiers in negative positions — the
//! paper's relational assumptions are quantifier-free — so this corner only matters for
//! adversarial hand-written formulas (see `DESIGN.md` §4).

use crate::constraint::Constraint;
use crate::formula::Formula;
use crate::qe;
use crate::sat::{self, Walk};
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

/// Converts a formula into disjunctive normal form: the [`sat`] search's walk
/// through every cube, satisfiable or not, in the order of the product expansion.
///
/// The formula is equivalent (for satisfiability) to the disjunction of the cubes'
/// conjunctions; quantified variables in positive position are renamed to fresh
/// names. A walk stopped at the cube cap returns the TRUE cube, an
/// over-approximation (visible as a [`tnt_solver::work::cap_events`]
/// increment) that keeps unsatisfiability checks and weakening callers
/// (transition guards, abduction hints) sound.
pub fn to_dnf(formula: &Formula) -> Vec<Cube> {
    sat::cubes(formula, Walk::All).unwrap_or_else(|| vec![vec![]])
}

/// The node cap of every walk of the [`sat`] search; a walk past it stops and
/// records a cap event ([`tnt_solver::work::cap_events`]).
///
/// The largest walk that finishes on the corpus visits about 1.1 k nodes, and
/// `kernel/dnf_product`'s 6,561 cubes take 9,841. The cap stays below the ~44 k
/// nodes `abduce`'s weakest-precondition prune needs on `drift_coupled`: run to
/// the end, it would hand ~15 k cubes to the quadratic subsumption pass.
pub(crate) const CUBE_CAP: u64 = 20_000;

/// Satisfiability-search nodes visited on this thread: the root of each walk
/// of the [`sat`] search and each alternative it tried (see
/// [`tnt_solver::work`]). A node is one partial conjunction, the logic layer's
/// exponential core, so the count is the formula-manipulation half of the
/// work budget.
pub use tnt_solver::work::nodes as cube_work;

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
