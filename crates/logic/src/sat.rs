//! Satisfiability of quantifier-free linear integer formulas.
//!
//! The procedure is the classical "DNF + per-cube feasibility" pipeline the paper's
//! verifier obtains from an external prover:
//!
//! 1. the formula is put into disjunctive normal form ([`crate::dnf`]);
//! 2. every cube is normalised atom by atom (gcd division, constant tightening,
//!    parity conflicts — [`crate::constraint::Constraint::normalise`]);
//! 3. the remaining conjunction of `≥`/`=` atoms is checked for feasibility over the
//!    rationals with the exact simplex of [`tnt_solver`].
//!
//! Step 3 is a relaxation: a cube that is rationally feasible but integrally infeasible
//! would be reported satisfiable. On the unit-coefficient fragment produced by the
//! front-end the relaxation is exact; the known residual incompleteness only ever makes
//! the inference engine *more* conservative (see `DESIGN.md` §4 and §7).

use crate::constraint::{Constraint, RelOp};
use crate::dnf::{self, Cube};
use crate::formula::Formula;
use tnt_solver::lp::{Cmp, LpProblem, VarKind};
use tnt_solver::Lin;

/// Checks satisfiability of a single cube (conjunction of constraints).
pub fn cube_sat(cube: &Cube) -> bool {
    let mut ges: Vec<Lin> = Vec::new();
    let mut eqs: Vec<Lin> = Vec::new();
    let mut first_ne: Option<(usize, Constraint)> = None;

    for (index, constraint) in cube.iter().enumerate() {
        let Some(normalised) = constraint.normalise() else {
            return false; // e.g. 2x = 1
        };
        if let Some(truth) = normalised.const_eval() {
            if truth {
                continue;
            }
            return false;
        }
        match normalised.op() {
            RelOp::Ge => ges.push(normalised.expr().clone()),
            RelOp::Eq => eqs.push(normalised.expr().clone()),
            RelOp::Ne => {
                first_ne.get_or_insert((index, normalised));
            }
        }
    }

    if let Some((index, ne)) = first_ne {
        // Defensive: cubes produced by `to_dnf` have no ≠ atoms, but direct callers may
        // hand us one. Split the first and recurse on both halves. The atom is removed
        // by position: its normalised form may differ from the original.
        let mut rest = cube.clone();
        rest.remove(index);
        let [a, b] = ne.split_ne().expect("op is Ne");
        let mut with_a = rest.clone();
        with_a.push(a);
        let mut with_b = rest;
        with_b.push(b);
        return cube_sat(&with_a) || cube_sat(&with_b);
    }

    let mut lp = LpProblem::new();
    for expr in ges.iter().chain(eqs.iter()) {
        for v in expr.vars() {
            lp.declare(v, VarKind::Free);
        }
    }
    for expr in ges {
        lp.constrain(expr, Cmp::Ge, Lin::zero());
    }
    for expr in eqs {
        lp.constrain(expr, Cmp::Eq, Lin::zero());
    }
    lp.solve().is_feasible()
}

/// Checks satisfiability of a formula (existential quantifiers in positive position are
/// handled exactly; see [`crate::dnf`] for the treatment of negative occurrences).
pub fn is_sat(formula: &Formula) -> bool {
    match formula {
        Formula::True => return true,
        Formula::False => return false,
        _ => {}
    }
    dnf::to_dnf(formula).iter().any(cube_sat)
}

/// Checks unsatisfiability.
pub fn is_unsat(formula: &Formula) -> bool {
    !is_sat(formula)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tnt_solver::{Lin, Rational};

    fn n(k: i128) -> Lin {
        Lin::constant(Rational::from(k))
    }

    #[test]
    fn trivial_cases() {
        assert!(is_sat(&Formula::True));
        assert!(!is_sat(&Formula::False));
    }

    #[test]
    fn single_atom() {
        assert!(is_sat(&Constraint::ge(Lin::var("x"), n(3)).into()));
        assert!(!is_sat(&Constraint::ge(n(-1), n(0)).into()));
    }

    #[test]
    fn conflicting_bounds() {
        let f = Formula::and(vec![
            Constraint::ge(Lin::var("x"), n(3)).into(),
            Constraint::lt(Lin::var("x"), n(3)).into(),
        ]);
        assert!(is_unsat(&f));
        let g = Formula::and(vec![
            Constraint::ge(Lin::var("x"), n(3)).into(),
            Constraint::le(Lin::var("x"), n(3)).into(),
        ]);
        assert!(is_sat(&g));
    }

    #[test]
    fn equalities_propagate() {
        // x = y ∧ y = 3 ∧ x < 0 is unsat.
        let f = Formula::and(vec![
            Constraint::eq(Lin::var("x"), Lin::var("y")).into(),
            Constraint::eq(Lin::var("y"), n(3)).into(),
            Constraint::lt(Lin::var("x"), n(0)).into(),
        ]);
        assert!(is_unsat(&f));
    }

    #[test]
    fn disjunction_needs_only_one_branch() {
        let f = Formula::or(vec![
            Constraint::ge(n(-1), n(0)).into(),
            Constraint::ge(Lin::var("x"), n(0)).into(),
        ]);
        assert!(is_sat(&f));
    }

    #[test]
    fn negation_of_valid_is_unsat() {
        // ¬(x = x) is unsat.
        let f: Formula = Constraint::eq(Lin::var("x"), Lin::var("x")).into();
        assert!(is_unsat(&f.negate()));
    }

    #[test]
    fn disequality_handled() {
        let f = Formula::and(vec![
            Constraint::ne(Lin::var("x"), n(0)).into(),
            Constraint::ge(Lin::var("x"), n(0)).into(),
            Constraint::le(Lin::var("x"), n(0)).into(),
        ]);
        assert!(is_unsat(&f));
    }

    #[test]
    fn parity_conflict_detected() {
        // 2x = 1 is integrally unsat and caught by normalisation.
        let f: Formula = Constraint::eq(Lin::var("x").scale(Rational::from(2)), n(1)).into();
        assert!(is_unsat(&f));
    }

    #[test]
    fn cube_sat_with_explicit_ne() {
        let cube = vec![
            Constraint::ne(Lin::var("x"), n(5)),
            Constraint::ge(Lin::var("x"), n(5)),
        ];
        assert!(cube_sat(&cube));
        let cube = vec![
            Constraint::ne(Lin::var("x"), n(5)),
            Constraint::ge(Lin::var("x"), n(5)),
            Constraint::le(Lin::var("x"), n(5)),
        ];
        assert!(!cube_sat(&cube));
    }

    /// A fractional `≠` atom normalises to a different atom; splitting it must
    /// still remove the original, or the recursion never ends.
    #[test]
    fn cube_sat_splits_a_fractional_ne() {
        let half_x = Lin::var("x").scale(Rational::new(1, 2));
        let cube = vec![Constraint::ne(half_x.clone(), n(1))];
        assert!(cube_sat(&cube));
        let cube = vec![
            Constraint::ne(half_x, n(1)),
            Constraint::eq(Lin::var("x"), n(2)),
        ];
        assert!(!cube_sat(&cube));
    }

    #[test]
    fn running_example_scenarios() {
        // The three inferred cases of the paper's foo example are each satisfiable and
        // pairwise disjoint.
        let x = Lin::var("x");
        let y = Lin::var("y");
        let case1: Formula = Constraint::lt(x.clone(), n(0)).into();
        let case2 = Formula::and(vec![
            Constraint::ge(x.clone(), n(0)).into(),
            Constraint::lt(y.clone(), n(0)).into(),
        ]);
        let case3 = Formula::and(vec![
            Constraint::ge(x, n(0)).into(),
            Constraint::ge(y, n(0)).into(),
        ]);
        for case in [&case1, &case2, &case3] {
            assert!(is_sat(case));
        }
        for (a, b) in [(&case1, &case2), (&case1, &case3), (&case2, &case3)] {
            assert!(is_unsat(&(*a).clone().and2((*b).clone())));
        }
    }

    const VARS: [&str; 2] = ["x", "y"];
    const OPS: [u8; 4] = [0, 4, 3, 5]; // ≥, =, <, ≠

    /// A concrete witness implies satisfiability (no false "unsat" answers).
    #[test]
    fn prop_witness_implies_sat() {
        let mut rng = SmallRng::seed_from_u64(0x5A701);
        for _ in 0..128 {
            let f = testgen::formula(&mut rng, &VARS, &OPS, 3, true);
            let env = testgen::int_env(&mut rng, &VARS, -8..8);
            if f.eval(&env, 4) {
                assert!(is_sat(&f), "witness {env:?} refutes unsat answer for {f}");
            }
        }
    }

    /// DNF preserves satisfiability witnesses.
    #[test]
    fn prop_dnf_preserves_witness() {
        let mut rng = SmallRng::seed_from_u64(0x5A702);
        for _ in 0..128 {
            let f = testgen::formula(&mut rng, &VARS, &OPS, 3, true);
            let env = testgen::int_env(&mut rng, &VARS, -8..8);
            let cubes = crate::dnf::to_dnf(&f);
            let dnf_holds = cubes.iter().any(|cube| cube.iter().all(|c| c.holds(&env)));
            assert_eq!(f.eval(&env, 4), dnf_holds, "DNF changed truth of {f}");
        }
    }
}
