//! A named-variable linear-programming interface on top of the simplex core.
//!
//! Variables may be declared *non-negative* or *free*; free variables are internally
//! split into a difference of two non-negative variables before invoking
//! [`crate::simplex::solve`].

use crate::linear::Lin;
use crate::rational::Rational;
use crate::simplex::{self, RowOp, RowTerms, SimplexOutcome, StandardForm};
use std::collections::BTreeMap;

/// Sign restriction of an LP variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarKind {
    /// The variable must be `≥ 0`.
    NonNegative,
    /// The variable may take any rational value.
    Free,
}

/// Comparison used by an LP constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// left-hand side `≤` right-hand side
    Le,
    /// left-hand side `≥` right-hand side
    Ge,
    /// left-hand side `=` right-hand side
    Eq,
}

/// Optimisation direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Minimise the objective.
    Minimise,
    /// Maximise the objective.
    Maximise,
}

/// Status of an LP solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal (or, for pure feasibility problems, a feasible) point was found.
    Optimal,
    /// The constraints are unsatisfiable.
    Infeasible,
    /// The objective is unbounded in the requested direction.
    Unbounded,
}

/// Result of an LP solve: the status plus (when feasible) a point and objective value.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Outcome status.
    pub status: LpStatus,
    /// Variable assignment (present unless infeasible).
    pub values: BTreeMap<String, Rational>,
    /// Objective value at `values` (zero when no objective was set).
    pub objective: Rational,
}

impl LpSolution {
    /// Returns `true` if a feasible point was produced.
    pub fn is_feasible(&self) -> bool {
        !matches!(self.status, LpStatus::Infeasible)
    }

    /// Looks up a variable value (zero if the variable never appeared).
    pub fn value(&self, var: &str) -> Rational {
        self.values.get(var).copied().unwrap_or_else(Rational::zero)
    }
}

/// A linear program over named rational variables.
///
/// # Examples
///
/// ```
/// use tnt_solver::{Lin, LpProblem, Rational};
/// use tnt_solver::lp::{Cmp, Direction, VarKind};
///
/// let mut lp = LpProblem::new();
/// lp.declare("x", VarKind::Free);
/// lp.constrain(Lin::var("x"), Cmp::Ge, Lin::constant(Rational::from(-5)));
/// lp.constrain(Lin::var("x"), Cmp::Le, Lin::constant(Rational::from(3)));
/// lp.set_objective(Lin::var("x"), Direction::Minimise);
/// let solution = lp.solve();
/// assert_eq!(solution.value("x"), Rational::from(-5));
/// ```
#[derive(Clone, Debug, Default)]
pub struct LpProblem {
    vars: BTreeMap<String, VarKind>,
    constraints: Vec<(Lin, Cmp, Lin)>,
    objective: Option<(Lin, Direction)>,
}

impl LpProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        LpProblem::default()
    }

    /// Declares a variable with the given sign restriction.
    ///
    /// Re-declaring a variable as [`VarKind::Free`] widens it; re-declaring a free
    /// variable as non-negative is ignored (the wider declaration wins), so callers
    /// can declare defensively.
    pub fn declare(&mut self, name: impl Into<String>, kind: VarKind) {
        let name = name.into();
        match self.vars.get(&name) {
            Some(VarKind::Free) => {}
            _ => {
                self.vars.insert(name, kind);
            }
        }
    }

    /// Adds the constraint `lhs op rhs`. Any undeclared variable mentioned is
    /// implicitly declared non-negative.
    pub fn constrain(&mut self, lhs: Lin, op: Cmp, rhs: Lin) {
        for v in lhs.vars().chain(rhs.vars()) {
            if !self.vars.contains_key(v) {
                self.vars.insert(v.to_string(), VarKind::NonNegative);
            }
        }
        self.constraints.push((lhs, op, rhs));
    }

    /// Convenience: adds `expr ≥ 0`.
    pub fn require_nonneg(&mut self, expr: Lin) {
        self.constrain(expr, Cmp::Ge, Lin::zero());
    }

    /// Sets the objective function and direction (replacing any previous objective).
    pub fn set_objective(&mut self, expr: Lin, direction: Direction) {
        for v in expr.vars() {
            if !self.vars.contains_key(v) {
                self.vars.insert(v.to_string(), VarKind::NonNegative);
            }
        }
        self.objective = Some((expr, direction));
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Solves the program. Without an objective this is a pure feasibility check.
    pub fn solve(&self) -> LpSolution {
        // Map each named variable onto one or two standard-form columns.
        #[derive(Clone, Copy)]
        enum Slot {
            Single(usize),
            Split(usize, usize), // value = pos - neg
        }
        let mut slots: BTreeMap<&str, Slot> = BTreeMap::new();
        let mut next = 0usize;
        for (name, kind) in &self.vars {
            match kind {
                VarKind::NonNegative => {
                    slots.insert(name, Slot::Single(next));
                    next += 1;
                }
                VarKind::Free => {
                    slots.insert(name, Slot::Split(next, next + 1));
                    next += 2;
                }
            }
        }
        let num_cols = next;

        // The non-zero standard-form terms of `lin`, plus its constant.
        let lower = |lin: &Lin| -> (RowTerms, Rational) {
            let mut terms = Vec::new();
            for (v, c) in lin.terms() {
                match slots[v] {
                    Slot::Single(i) => terms.push((i, c)),
                    Slot::Split(p, n) => {
                        terms.push((p, c));
                        terms.push((n, -c));
                    }
                }
            }
            (terms, lin.constant_term())
        };

        let mut rows = Vec::with_capacity(self.constraints.len());
        for (lhs, op, rhs) in &self.constraints {
            let diff = lhs.sub(rhs);
            let (terms, constant) = lower(&diff);
            // lhs op rhs  ⇔  diff op 0  ⇔  Σ terms · x  op  -constant
            let row_op = match op {
                Cmp::Le => RowOp::Le,
                Cmp::Ge => RowOp::Ge,
                Cmp::Eq => RowOp::Eq,
            };
            rows.push((terms, row_op, -constant));
        }

        let mut minimise_coeffs = vec![Rational::zero(); num_cols];
        let (direction, objective_const) = match &self.objective {
            Some((expr, dir)) => {
                let (terms, constant) = lower(expr);
                for (i, c) in terms {
                    minimise_coeffs[i] = match dir {
                        Direction::Minimise => c,
                        Direction::Maximise => -c,
                    };
                }
                (*dir, constant)
            }
            None => (Direction::Minimise, Rational::zero()),
        };

        let program = StandardForm {
            num_vars: num_cols,
            rows,
            objective: minimise_coeffs,
        };

        let outcome = simplex::solve(&program);
        let to_values = |solution: &[Rational]| -> BTreeMap<String, Rational> {
            self.vars
                .keys()
                .map(|name| {
                    let value = match slots[name.as_str()] {
                        Slot::Single(i) => solution[i],
                        Slot::Split(p, n) => solution[p] - solution[n],
                    };
                    (name.clone(), value)
                })
                .collect()
        };

        match outcome {
            SimplexOutcome::Infeasible => LpSolution {
                status: LpStatus::Infeasible,
                values: BTreeMap::new(),
                objective: Rational::zero(),
            },
            SimplexOutcome::Unbounded { solution } => LpSolution {
                status: LpStatus::Unbounded,
                values: to_values(&solution),
                objective: Rational::zero(),
            },
            SimplexOutcome::Optimal {
                objective,
                solution,
            } => {
                let value = match direction {
                    Direction::Minimise => objective + objective_const,
                    Direction::Maximise => -objective + objective_const,
                };
                LpSolution {
                    status: LpStatus::Optimal,
                    values: to_values(&solution),
                    objective: value,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128) -> Rational {
        Rational::from(n)
    }

    #[test]
    fn free_variable_can_go_negative() {
        let mut lp = LpProblem::new();
        lp.declare("x", VarKind::Free);
        lp.constrain(Lin::var("x"), Cmp::Le, Lin::constant(r(-2)));
        let sol = lp.solve();
        assert!(sol.is_feasible());
        assert!(sol.value("x") <= r(-2));
    }

    #[test]
    fn nonneg_variable_cannot_go_negative() {
        let mut lp = LpProblem::new();
        lp.declare("x", VarKind::NonNegative);
        lp.constrain(Lin::var("x"), Cmp::Le, Lin::constant(r(-2)));
        assert_eq!(lp.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn maximisation() {
        let mut lp = LpProblem::new();
        lp.constrain(
            Lin::var("x").add(&Lin::var("y")),
            Cmp::Le,
            Lin::constant(r(10)),
        );
        lp.constrain(Lin::var("x"), Cmp::Le, Lin::constant(r(4)));
        lp.set_objective(
            Lin::var("x").scale(r(3)).add(&Lin::var("y")),
            Direction::Maximise,
        );
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective, r(18));
        assert_eq!(sol.value("x"), r(4));
        assert_eq!(sol.value("y"), r(6));
    }

    #[test]
    fn feasibility_without_objective() {
        let mut lp = LpProblem::new();
        lp.declare("a", VarKind::Free);
        lp.declare("b", VarKind::Free);
        lp.constrain(
            Lin::var("a").add(&Lin::var("b")),
            Cmp::Eq,
            Lin::constant(r(1)),
        );
        lp.constrain(
            Lin::var("a").sub(&Lin::var("b")),
            Cmp::Eq,
            Lin::constant(r(5)),
        );
        let sol = lp.solve();
        assert!(sol.is_feasible());
        assert_eq!(sol.value("a"), r(3));
        assert_eq!(sol.value("b"), r(-2));
    }

    #[test]
    fn infeasible_mixed_system() {
        let mut lp = LpProblem::new();
        lp.declare("x", VarKind::Free);
        lp.constrain(Lin::var("x"), Cmp::Ge, Lin::constant(r(1)));
        lp.constrain(Lin::var("x"), Cmp::Le, Lin::constant(r(0)));
        assert_eq!(lp.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_direction_detected() {
        let mut lp = LpProblem::new();
        lp.declare("x", VarKind::Free);
        lp.constrain(Lin::var("x"), Cmp::Ge, Lin::constant(r(0)));
        lp.set_objective(Lin::var("x"), Direction::Maximise);
        assert_eq!(lp.solve().status, LpStatus::Unbounded);
    }

    #[test]
    fn objective_with_constant_offset() {
        let mut lp = LpProblem::new();
        lp.constrain(Lin::var("x"), Cmp::Le, Lin::constant(r(2)));
        lp.set_objective(Lin::var("x").add_const(r(10)), Direction::Maximise);
        let sol = lp.solve();
        assert_eq!(sol.objective, r(12));
    }

    #[test]
    fn redeclaring_free_keeps_free() {
        let mut lp = LpProblem::new();
        lp.declare("x", VarKind::Free);
        lp.declare("x", VarKind::NonNegative);
        lp.constrain(Lin::var("x"), Cmp::Le, Lin::constant(r(-1)));
        assert!(lp.solve().is_feasible());
    }

    #[test]
    fn value_of_unknown_variable_is_zero() {
        let lp = LpProblem::new();
        let sol = lp.solve();
        assert_eq!(sol.value("nope"), r(0));
    }
}
