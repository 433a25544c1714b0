//! Satisfiability of linear integer formulas.
//!
//! [`is_sat`] is a depth-first search over the negation normal form of the
//! formula, on one bounded general simplex per query
//! ([`tnt_solver::bounded::BoundedSimplex`]):
//!
//! 1. every atom is put into integer normal form as it is reached (gcd division,
//!    constant tightening, parity conflicts — the numbers of
//!    [`crate::constraint::Constraint::normalise`]), and asserted: an atom on one
//!    variable as a bound on it, any other as a bound on the slack row of its
//!    linear form, one row per distinct form and query
//!    ([`BoundedSimplex::assert_form`]);
//! 2. conjunctions are asserted whole; a disjunction or a `≠` atom (split into its
//!    two strict cases) is a branch point, tried one alternative at a time;
//! 3. after each conjunction the kernel checks feasibility over the rationals, and
//!    an infeasible partial cube is pruned with everything below it. Backtracking
//!    retracts bounds and never pivots.
//!
//! The negation normal form is [`crate::dnf::to_nnf`]'s, the one the DNF
//! conversion starts from. Existential quantifiers in positive position are then
//! handled exactly by renaming the bound variables to fresh names, as
//! [`crate::dnf::to_dnf`] does; a quantifier in negative position is eliminated by
//! [`crate::qe`] inside `to_nnf` (see [`crate::dnf`]).
//!
//! Every visited node — the root and each alternative tried — is charged one unit
//! of [`crate::dnf::cube_work`], and every pivot one unit of
//! `tnt_solver::simplex::pivot_work`. A search that would visit more than the
//! cube cap's nodes stops and answers "satisfiable", recording a cap event: the
//! same over-approximation a capped DNF conversion makes.
//!
//! The feasibility check is a relaxation: a cube that is rationally feasible but
//! integrally infeasible would be reported satisfiable. On the unit-coefficient
//! fragment produced by the front-end the relaxation is exact; the known residual
//! incompleteness only ever makes the inference engine *more* conservative (see
//! `DESIGN.md` §4 and §7).

use crate::constraint::{integer_form, Constraint, RelOp};
use crate::dnf::{self, Cube};
use crate::formula::Formula;
use tnt_solver::bounded::{BoundedSimplex, Checkpoint};
use tnt_solver::Rational;

/// Checks satisfiability of a single cube (conjunction of constraints); `≠` atoms
/// are split by the same search [`is_sat`] runs.
pub fn cube_sat(cube: &Cube) -> bool {
    Search::default().run(cube.iter().map(Goal::Atom).collect())
}

/// Checks satisfiability of a formula (existential quantifiers in positive position are
/// handled exactly; see [`crate::dnf`] for the treatment of negative occurrences).
pub fn is_sat(formula: &Formula) -> bool {
    // A negated quantifier is projected through `qe`, which may convert to DNF;
    // a capped conversion there already over-approximates, so answer as
    // `to_dnf` would: satisfiable.
    let capped_before = dnf::cap_events();
    let nnf = dnf::to_nnf(formula);
    if dnf::cap_events() > capped_before {
        return true;
    }
    let open = rename_exists(nnf);
    Search::default().run(vec![Goal::Formula(&open)])
}

/// Checks unsatisfiability.
pub fn is_unsat(formula: &Formula) -> bool {
    !is_sat(formula)
}

/// Replaces every (positive) quantifier of a negation normal form by its body
/// with the bound variables renamed to fresh names, as `to_dnf` does.
fn rename_exists(nnf: Formula) -> Formula {
    match nnf {
        Formula::And(parts) => Formula::and(parts.into_iter().map(rename_exists).collect()),
        Formula::Or(parts) => Formula::or(parts.into_iter().map(rename_exists).collect()),
        Formula::Exists(vars, body) => {
            let mut renamed = *body;
            for v in &vars {
                renamed = renamed.rename(v, &dnf::fresh_var(v));
            }
            rename_exists(dnf::to_nnf(&renamed))
        }
        other => other,
    }
}

/// Integer coefficients over kernel variables.
type Terms = Vec<(usize, Rational)>;

/// A conjunct the search has still to satisfy.
#[derive(Clone)]
enum Goal<'f> {
    /// A formula in negation normal form without quantifiers.
    Formula(&'f Formula),
    /// An atom.
    Atom(&'f Constraint),
    /// `Σ terms + constant (op) 0` over kernel variables: a `≠` atom waiting
    /// for its branch, or one half of a split `≠`.
    Linear(RelOp, Terms, Rational),
}

impl<'f> Goal<'f> {
    /// The alternatives of a branch goal, last alternative first.
    fn alternatives(self) -> Vec<Goal<'f>> {
        match self {
            Goal::Formula(Formula::Or(parts)) => parts.iter().rev().map(Goal::Formula).collect(),
            // e ≠ 0  ⇔  e − 1 ≥ 0  ∨  −e − 1 ≥ 0
            Goal::Linear(RelOp::Ne, terms, constant) => {
                let negated = terms.iter().map(|&(v, c)| (v, -c)).collect();
                vec![
                    Goal::Linear(RelOp::Ge, negated, -constant - Rational::one()),
                    Goal::Linear(RelOp::Ge, terms, constant - Rational::one()),
                ]
            }
            _ => unreachable!("only disjunctions and `≠` atoms branch"),
        }
    }
}

/// One branch point of the search: the kernel state before its alternatives,
/// the conjuncts every alternative shares, and the alternatives not yet tried.
struct Frame<'f> {
    mark: Checkpoint,
    rest: Vec<Goal<'f>>,
    alternatives: Vec<Goal<'f>>,
}

/// The state of one query: the kernel and its structural variable per name.
/// The names are scanned linearly: a query names a handful (at most nine on
/// the corpus), where hashing cost more than the scans.
#[derive(Default)]
struct Search<'f> {
    kernel: BoundedSimplex,
    columns: Vec<(&'f str, usize)>,
}

impl<'f> Search<'f> {
    /// Depth-first search for a satisfiable branch of the conjunction of `goals`.
    fn run(mut self, mut goals: Vec<Goal<'f>>) -> bool {
        let mut frames: Vec<Frame<'f>> = Vec::new();
        let mut nodes: u64 = 1;
        let answer = 'search: loop {
            let mut deferred = Vec::new();
            if self.absorb(&mut goals, &mut deferred) {
                if deferred.is_empty() {
                    break true;
                }
                let branch = deferred.remove(0);
                frames.push(Frame {
                    mark: self.kernel.checkpoint(),
                    rest: deferred,
                    alternatives: branch.alternatives(),
                });
            }
            // The next untried alternative, innermost branch first.
            loop {
                let Some(frame) = frames.last_mut() else {
                    break 'search false;
                };
                self.kernel.backtrack(frame.mark);
                let Some(alternative) = frame.alternatives.pop() else {
                    frames.pop();
                    continue;
                };
                nodes += 1;
                if nodes > dnf::CUBE_CAP {
                    dnf::record_cap_event();
                    break 'search true;
                }
                // The alternative is absorbed first; the shared conjuncts
                // follow and keep their order for the next branch.
                goals.clear();
                goals.extend(frame.rest.iter().rev().cloned());
                goals.push(alternative);
                break;
            }
        };
        dnf::record_cubes(nodes);
        answer
    }

    /// Asserts every conjunct of `goals` that needs no branch and moves the
    /// others to `deferred`; returns whether the partial cube is feasible.
    fn absorb(&mut self, goals: &mut Vec<Goal<'f>>, deferred: &mut Vec<Goal<'f>>) -> bool {
        while let Some(goal) = goals.pop() {
            let feasible = match goal {
                Goal::Formula(formula) => match formula {
                    Formula::True => true,
                    Formula::False => false,
                    Formula::Atom(c) => self.literal(c, deferred),
                    Formula::And(parts) => {
                        goals.extend(parts.iter().rev().map(Goal::Formula));
                        true
                    }
                    Formula::Or(_) => {
                        deferred.push(goal);
                        true
                    }
                    Formula::Not(_) | Formula::Exists(..) => {
                        unreachable!("negation normal form with quantifiers renamed away")
                    }
                },
                Goal::Atom(c) => self.literal(c, deferred),
                Goal::Linear(op, terms, constant) => self.linear(op, terms, constant, deferred),
            };
            if !feasible {
                return false;
            }
        }
        self.kernel.check()
    }

    /// The kernel variable of a structural variable name.
    fn column(&mut self, name: &'f str) -> usize {
        if let Some(&(_, var)) = self.columns.iter().find(|(n, _)| *n == name) {
            return var;
        }
        let var = self.kernel.add_var();
        self.columns.push((name, var));
        var
    }

    /// Asserts the atom `c`, deferring a `≠` to a branch; returns `false`
    /// when the assertion is infeasible outright.
    fn literal(&mut self, c: &'f Constraint, deferred: &mut Vec<Goal<'f>>) -> bool {
        let expr = c.expr();
        let terms: Terms = expr
            .terms()
            .map(|(name, coeff)| (self.column(name), coeff))
            .collect();
        self.linear(c.op(), terms, expr.constant_term(), deferred)
    }

    /// Asserts `Σ terms + constant (op) 0` in integer normal form (the
    /// numbers [`Constraint::normalise`] computes), deferring a `≠` to a
    /// branch; returns `false` when the assertion is infeasible outright.
    fn linear(
        &mut self,
        op: RelOp,
        mut terms: Terms,
        constant: Rational,
        deferred: &mut Vec<Goal<'f>>,
    ) -> bool {
        let Some(constant) = integer_form(op, &mut terms, constant) else {
            return false;
        };
        if terms.is_empty() {
            return op.compares(constant);
        }
        if op == RelOp::Ne {
            deferred.push(Goal::Linear(op, terms, constant));
            return true;
        }
        self.kernel.assert_form(terms, constant, op == RelOp::Eq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
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

    /// A random formula over `x`, `y`, `z` with `≠` atoms, nested `And`/`Or`,
    /// negations and existential quantifiers in positive position.
    fn quantified_formula(rng: &mut SmallRng, depth: u32) -> Formula {
        const ALL_OPS: [u8; 6] = [0, 1, 2, 3, 4, 5];
        let vars = ["x", "y", "z"];
        if depth == 0 || rng.gen_bool(0.25) {
            return testgen::formula(rng, &vars, &ALL_OPS, 2, true);
        }
        let parts: Vec<Formula> = (0..rng.gen_range(2usize..4))
            .map(|_| quantified_formula(rng, depth - 1))
            .collect();
        match rng.gen_range(0u32..3) {
            0 => Formula::and(parts),
            1 => Formula::or(parts),
            _ => Formula::exists(
                vec![vars[rng.gen_range(0..vars.len())].to_string()],
                Formula::and(parts),
            ),
        }
    }

    /// The lazy search answers as the eager route — every DNF cube checked
    /// on its own — whenever the eager conversion stays under the cube cap.
    #[test]
    fn prop_lazy_is_sat_agrees_with_eager_dnf() {
        let mut rng = SmallRng::seed_from_u64(0x5A703);
        let mut answers = [0usize; 2];
        for _ in 0..400 {
            let f = quantified_formula(&mut rng, 3);
            let capped = crate::dnf::cap_events();
            let eager = crate::dnf::to_dnf(&f).iter().any(cube_sat);
            if crate::dnf::cap_events() != capped {
                continue;
            }
            let lazy = is_sat(&f);
            assert_eq!(lazy, eager, "lazy and eager disagree on {f}");
            answers[usize::from(lazy)] += 1;
        }
        assert!(
            answers.iter().all(|&n| n > 60),
            "both answers must be exercised: {answers:?}"
        );
    }

    /// A search past the cube cap's nodes stops, answers "satisfiable" and
    /// records a cap event. Branch points are taken in formula order, so the
    /// seventeen `≠` branches, which all succeed, come before the last one,
    /// which contradicts `x = 0` both ways.
    #[test]
    fn search_stops_at_the_cube_cap() {
        let mut parts: Vec<Formula> = vec![Constraint::eq(Lin::var("x"), n(0)).into()];
        for i in 0..17 {
            parts.push(Constraint::ne(Lin::var(format!("y{i}")), n(0)).into());
        }
        parts.push(Formula::or(vec![
            Constraint::ge(Lin::var("x"), n(1)).into(),
            Constraint::le(Lin::var("x"), n(-1)).into(),
        ]));
        let f = Formula::and(parts);
        let capped = crate::dnf::cap_events();
        assert!(is_sat(&f), "capped search over-approximates");
        assert_eq!(crate::dnf::cap_events(), capped + 1);
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
