//! Formula simplification.
//!
//! Two levels are provided:
//!
//! * [`simplify`] — cheap structural rewriting (constant folding of ground atoms,
//!   flattening, deduplication). Used everywhere formulas are combined.
//! * [`prune`] — semantic pruning based on the DNF: keeps the satisfiable cubes,
//!   removes constraints that are entailed by the rest of their cube and cubes that
//!   are subsumed by other cubes. Used when presenting inferred case conditions, so
//!   the final summaries look like the paper's (`x ≥ 0 ∧ y < 0` rather than a pile of
//!   rewriting residue).

use crate::dnf::{self, Cube};
use crate::entail;
use crate::formula::Formula;
use crate::sat::{self, Walk};

/// Structurally simplifies a formula (constant folding, flattening, deduplication).
pub fn simplify(formula: &Formula) -> Formula {
    match formula {
        Formula::True => Formula::True,
        Formula::False => Formula::False,
        Formula::Atom(c) => match c.const_eval() {
            Some(true) => Formula::True,
            Some(false) => Formula::False,
            None => match c.normalise() {
                None => Formula::False,
                Some(norm) => Formula::Atom(norm),
            },
        },
        Formula::And(parts) => {
            let mut seen: Vec<Formula> = Vec::new();
            for p in parts {
                let s = simplify(p);
                match s {
                    Formula::True => {}
                    Formula::False => return Formula::False,
                    other => {
                        if !seen.contains(&other) {
                            seen.push(other);
                        }
                    }
                }
            }
            Formula::and(seen)
        }
        Formula::Or(parts) => {
            let mut seen: Vec<Formula> = Vec::new();
            for p in parts {
                let s = simplify(p);
                match s {
                    Formula::False => {}
                    Formula::True => return Formula::True,
                    other => {
                        if !seen.contains(&other) {
                            seen.push(other);
                        }
                    }
                }
            }
            Formula::or(seen)
        }
        Formula::Not(inner) => simplify(inner).negate(),
        Formula::Exists(vars, body) => {
            let body = simplify(body);
            let free = body.free_vars();
            let still_bound: Vec<String> =
                vars.iter().filter(|v| free.contains(*v)).cloned().collect();
            Formula::exists(still_bound, body)
        }
    }
}

/// Removes constraints of a cube that are entailed by the remaining ones.
fn prune_cube(cube: &Cube) -> Cube {
    let mut kept: Cube = cube.clone();
    let mut index = 0;
    while index < kept.len() {
        let candidate = kept[index].clone();
        let rest: Cube = kept
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != index)
            .map(|(_, c)| c.clone())
            .collect();
        let rest_formula = dnf::from_dnf(std::slice::from_ref(&rest));
        if entail::entails(&rest_formula, &Formula::Atom(candidate)) {
            kept = rest;
        } else {
            index += 1;
        }
    }
    kept
}

/// Semantically prunes a formula via its DNF; the result is always equivalent
/// to the input.
///
/// The satisfiable cubes of the formula are collected by the [`sat`] search (the
/// walk that skips unsatisfiable cubes), each constraint entailed by the rest of
/// its cube is dropped, cubes subsumed by another cube are dropped, and a valid
/// result becomes `True`. Each of these steps keeps the formula equivalent, and no
/// check of the result against the input runs. When the walk stops at the cube
/// cap, `prune` returns its structurally simplified input instead, still
/// equivalent but unpruned, and the stop is visible as a
/// [`tnt_solver::work::cap_events`] increment.
pub fn prune(formula: &Formula) -> Formula {
    let simplified = simplify(formula);
    if simplified.is_true() || simplified.is_false() {
        return simplified;
    }
    let Some(cubes) = sat::cubes(&simplified, Walk::Feasible) else {
        return simplified;
    };
    let mut live: Vec<Cube> = cubes.iter().map(prune_cube).collect();
    if live.is_empty() {
        return Formula::False;
    }
    // Drop cubes subsumed by another cube.
    let mut index = 0;
    while index < live.len() {
        let this = dnf::from_dnf(&[live[index].clone()]);
        let subsumed = live.iter().enumerate().any(|(j, other)| {
            j != index
                && (j < index || live[j].len() <= live[index].len())
                && entail::entails(&this, &dnf::from_dnf(std::slice::from_ref(other)))
                && !(j > index
                    && entail::entails(&dnf::from_dnf(std::slice::from_ref(other)), &this))
        });
        if subsumed {
            live.remove(index);
        } else {
            index += 1;
        }
    }
    let result = dnf::from_dnf(&live);
    if entail::is_valid(&result) {
        Formula::True
    } else {
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::entail::equivalent;
    use tnt_solver::{Lin, Rational};

    fn n(k: i128) -> Lin {
        Lin::constant(Rational::from(k))
    }

    fn x_ge(k: i128) -> Formula {
        Constraint::ge(Lin::var("x"), n(k)).into()
    }

    #[test]
    fn constant_folding() {
        let f = Formula::and(vec![Constraint::ge(n(1), n(0)).into(), x_ge(0)]);
        assert_eq!(simplify(&f), x_ge(0));
        let g = Formula::or(vec![Constraint::ge(n(-1), n(0)).into(), x_ge(0)]);
        assert_eq!(simplify(&g), x_ge(0));
    }

    #[test]
    fn duplicate_atoms_removed() {
        let f = Formula::and(vec![x_ge(0), x_ge(0), x_ge(0)]);
        assert_eq!(simplify(&f), x_ge(0));
    }

    #[test]
    fn unused_binder_removed() {
        let f = Formula::exists(vec!["z".to_string()], x_ge(0));
        assert_eq!(simplify(&f), x_ge(0));
    }

    #[test]
    fn prune_removes_entailed_conjunct() {
        // x >= 5 ∧ x >= 0  ⟶  x >= 5
        let f = Formula::and(vec![x_ge(5), x_ge(0)]);
        let pruned = prune(&f);
        assert!(equivalent(&pruned, &x_ge(5)));
        match pruned {
            Formula::Atom(_) => {}
            other => panic!("expected single atom, got {other}"),
        }
    }

    #[test]
    fn prune_removes_unsat_disjunct() {
        let contradiction = Formula::and(vec![x_ge(1), x_ge(0).negate()]);
        let f = Formula::or(vec![contradiction, x_ge(3)]);
        let pruned = prune(&f);
        assert!(equivalent(&pruned, &x_ge(3)));
    }

    #[test]
    fn prune_removes_subsumed_disjunct() {
        // x >= 5 ∨ x >= 0  ⟶  x >= 0
        let f = Formula::or(vec![x_ge(5), x_ge(0)]);
        let pruned = prune(&f);
        assert!(equivalent(&pruned, &x_ge(0)));
        let atoms = match pruned {
            Formula::Atom(_) => 1,
            Formula::Or(parts) => parts.len(),
            other => panic!("unexpected {other}"),
        };
        assert_eq!(atoms, 1);
    }

    #[test]
    fn prune_detects_tautology() {
        let f = Formula::or(vec![x_ge(0), Constraint::lt(Lin::var("x"), n(0)).into()]);
        assert_eq!(prune(&f), Formula::True);
    }

    #[test]
    fn prune_detects_contradiction() {
        let f = Formula::and(vec![x_ge(0), Constraint::lt(Lin::var("x"), n(0)).into()]);
        assert_eq!(prune(&f), Formula::False);
    }

    /// `⋀_{i<15} yᵢ ≠ 0`: 2^15 satisfiable cubes, past the cube cap.
    fn fifteen_disequalities() -> Formula {
        Formula::and(
            (0..15)
                .map(|i| Constraint::ne(Lin::var(format!("y{i}")), n(0)).into())
                .collect(),
        )
    }

    /// A prune that stops at the cube cap returns its (simplified) input, which
    /// is equivalent, never `True`.
    #[test]
    fn prune_past_the_cube_cap_returns_its_input() {
        let f = fifteen_disequalities();
        let capped = tnt_solver::work::cap_events();
        let pruned = prune(&f);
        assert_eq!(
            tnt_solver::work::cap_events(),
            capped + 1,
            "one walk stops at the cap"
        );
        assert_eq!(pruned, simplify(&f));
        for zero_at in [None, Some(0), Some(7), Some(14)] {
            let env = (0..15)
                .map(|i| {
                    (
                        format!("y{i}"),
                        if Some(i) == zero_at { 0 } else { i as i128 + 1 },
                    )
                })
                .collect();
            assert_eq!(pruned.eval(&env, 2), f.eval(&env, 2), "zero at {zero_at:?}");
        }
    }

    #[test]
    fn prune_preserves_equivalence() {
        let y_ge = |k: i128| -> Formula { Constraint::ge(Lin::var("y"), n(k)).into() };
        let f = Formula::or(vec![
            Formula::and(vec![x_ge(0), y_ge(0), x_ge(-5)]),
            Formula::and(vec![x_ge(0), y_ge(0)]),
            Formula::and(vec![x_ge(3), y_ge(1)]),
        ]);
        let pruned = prune(&f);
        assert!(equivalent(&pruned, &f));
    }
}
