//! A bounded general simplex: feasibility of a conjunction of linear bounds,
//! with bounds that can be asserted and retracted.
//!
//! This is the general simplex of DPLL(T) solvers (Dutertre & de Moura, "A Fast
//! Linear-Arithmetic Solver for DPLL(T)", CAV 2006). Every variable carries an
//! optional lower and upper bound and a current value. A linear form over
//! several variables becomes one *slack* variable with one tableau row
//! `s = Σ aⱼ·xⱼ`, added once; a constraint on the form is then a bound on `s`,
//! and a constraint on a single variable is a bound on that variable. So there
//! is no standard form: no split free variables, no artificial columns and no
//! phase I.
//!
//! The tableau expresses each basic variable as a combination of the non-basic
//! ones, and the values always satisfy every row. Non-basic variables always
//! lie within their bounds; [`BoundedSimplex::check`] repairs basic variables
//! that do not by pivoting, with Bland's rule (the smallest out-of-bounds basic
//! variable leaves, the smallest non-basic variable that can move it enters),
//! so it terminates. Retracting bounds only widens them, so both invariants
//! survive [`BoundedSimplex::backtrack`] and backtracking never pivots: the
//! next check starts from the tableau and values the last one left.
//!
//! Feasibility is over the rationals, with exact arithmetic. Every pivot is
//! charged to the [`crate::work`] meter, so work budgets and the work deadline
//! meter this kernel as they meter [`crate::simplex::solve`].
//!
//! A saturated rational operation (see [`crate::work::overflows`])
//! corrupts the tableau, and Bland's rule no longer guarantees termination
//! on corrupted numbers. So once any operation on the thread has saturated
//! since the kernel was made, [`BoundedSimplex::check`] stops pivoting and
//! answers "feasible": the over-approximation for satisfiability and the
//! "not entailed" answer for an entailment. The analyzer has by then marked
//! the whole result as poisoned.

use crate::rational::Rational;
use crate::work::{overflows, record_pivot};

/// Marks a variable that is not basic in any row.
const NON_BASIC: usize = usize::MAX;

/// Which bound of a variable a trail entry saved.
#[derive(Clone, Copy, Debug)]
enum Side {
    Lower,
    Upper,
}

/// A point of the bound trail that [`BoundedSimplex::backtrack`] returns to.
#[derive(Clone, Copy, Debug)]
pub struct Checkpoint(usize);

/// Bounded general simplex over exact rationals.
///
/// # Examples
///
/// ```
/// use tnt_solver::bounded::BoundedSimplex;
/// use tnt_solver::Rational;
///
/// // x - y >= 1 ∧ x <= 0 ∧ y >= 0 is infeasible; dropping y >= 0 makes it feasible.
/// let mut kernel = BoundedSimplex::new();
/// let (x, y) = (kernel.add_var(), kernel.add_var());
/// let diff = kernel.add_row(&[(x, Rational::one()), (y, -Rational::one())]);
/// assert!(kernel.assert_lower(diff, Rational::one()));
/// assert!(kernel.assert_upper(x, Rational::zero()));
/// let before_y = kernel.checkpoint();
/// assert!(kernel.assert_lower(y, Rational::zero()));
/// assert!(!kernel.check());
/// kernel.backtrack(before_y);
/// assert!(kernel.check());
/// ```
#[derive(Clone, Debug)]
pub struct BoundedSimplex {
    lower: Vec<Option<Rational>>,
    upper: Vec<Option<Rational>>,
    value: Vec<Rational>,
    /// The row each variable is basic in, or [`NON_BASIC`].
    row_of: Vec<usize>,
    /// The basic variable of each row.
    basic: Vec<usize>,
    /// Each row's coefficients over non-basic variables, sorted by variable;
    /// an absent variable has coefficient zero.
    rows: Vec<Vec<(usize, Rational)>>,
    /// Every bound change, with the bound it replaced.
    trail: Vec<(usize, Side, Option<Rational>)>,
    /// Reusable buffer that [`BoundedSimplex::pivot`] merges each row into.
    scratch: Vec<(usize, Rational)>,
    /// The slack of each linear form [`BoundedSimplex::assert_form`] has
    /// seen, keyed by the form signed so its smallest variable has a
    /// positive coefficient. Scanned linearly: a query names a handful of
    /// forms, where hashing cost more than the scans.
    slacks: Vec<(Vec<(usize, Rational)>, usize)>,
    /// [`overflows`] when the kernel was made.
    overflows: u64,
}

impl Default for BoundedSimplex {
    fn default() -> Self {
        BoundedSimplex::new()
    }
}

/// The coefficient of `var` in a variable-sorted row.
fn coefficient(row: &[(usize, Rational)], var: usize) -> Rational {
    match row.binary_search_by_key(&var, |&(v, _)| v) {
        Ok(at) => row[at].1,
        Err(_) => Rational::zero(),
    }
}

impl BoundedSimplex {
    /// An empty kernel.
    pub fn new() -> Self {
        BoundedSimplex {
            lower: Vec::new(),
            upper: Vec::new(),
            value: Vec::new(),
            row_of: Vec::new(),
            basic: Vec::new(),
            rows: Vec::new(),
            trail: Vec::new(),
            scratch: Vec::new(),
            slacks: Vec::new(),
            overflows: overflows(),
        }
    }

    /// Adds an unbounded variable with value zero and returns its index.
    pub fn add_var(&mut self) -> usize {
        self.lower.push(None);
        self.upper.push(None);
        self.value.push(Rational::zero());
        self.row_of.push(NON_BASIC);
        self.value.len() - 1
    }

    /// Adds a slack variable `s = Σ terms` and returns its index. The terms
    /// name existing variables, each at most once. The row is stated over the
    /// current non-basic variables, so it may be added at any time, also
    /// after pivots; it is never removed.
    pub fn add_row(&mut self, terms: &[(usize, Rational)]) -> usize {
        let mut row: Vec<(usize, Rational)> = Vec::with_capacity(terms.len());
        let mut value = Rational::zero();
        for &(var, coeff) in terms {
            value += coeff * self.value[var];
            match self.row_of[var] {
                NON_BASIC => row.push((var, coeff)),
                r => row.extend(self.rows[r].iter().map(|&(v, c)| (v, c * coeff))),
            }
        }
        row.sort_unstable_by_key(|&(v, _)| v);
        let mut merged: Vec<(usize, Rational)> = Vec::with_capacity(row.len());
        for (var, coeff) in row {
            match merged.last_mut() {
                Some((last, sum)) if *last == var => *sum += coeff,
                _ => merged.push((var, coeff)),
            }
        }
        merged.retain(|(_, c)| !c.is_zero());
        let slack = self.add_var();
        self.value[slack] = value;
        self.row_of[slack] = self.rows.len();
        self.basic.push(slack);
        self.rows.push(merged);
        slack
    }

    /// Asserts `Σ terms + constant ≥ 0` (`= 0` when `eq`) as bounds on one
    /// variable: the variable itself for one term, else the slack of the
    /// linear form, added on first use. The form is signed so its smallest
    /// variable has a positive coefficient, so a form and its negation share
    /// one row. The terms name distinct variables with non-zero coefficients,
    /// at least one. Returns `false` when the bounds contradict outright.
    pub fn assert_form(
        &mut self,
        mut terms: Vec<(usize, Rational)>,
        constant: Rational,
        eq: bool,
    ) -> bool {
        let (var, coeff) = if let [(var, coeff)] = terms[..] {
            (var, coeff)
        } else {
            terms.sort_unstable_by_key(|&(v, _)| v);
            let flip = terms[0].1.is_negative();
            if flip {
                for (_, coeff) in &mut terms {
                    *coeff = -*coeff;
                }
            }
            let slack = match self.slacks.iter().find(|(form, _)| *form == terms) {
                Some(&(_, slack)) => slack,
                None => {
                    let slack = self.add_row(&terms);
                    self.slacks.push((terms, slack));
                    slack
                }
            };
            (
                slack,
                if flip {
                    -Rational::one()
                } else {
                    Rational::one()
                },
            )
        };
        // coeff · var + constant ≥ 0 (= 0)
        let at = -constant / coeff;
        if eq {
            self.assert_lower(var, at) && self.assert_upper(var, at)
        } else if coeff.is_positive() {
            self.assert_lower(var, at)
        } else {
            self.assert_upper(var, at)
        }
    }

    /// The current value of `var`. After a successful [`BoundedSimplex::check`]
    /// the values satisfy every bound and every row.
    pub fn value(&self, var: usize) -> Rational {
        self.value[var]
    }

    /// Asserts `var ≥ bound`. Returns `false`, changing nothing, when the
    /// bound contradicts the upper bound of `var` outright.
    pub fn assert_lower(&mut self, var: usize, bound: Rational) -> bool {
        if self.upper[var].is_some_and(|u| bound > u) {
            return false;
        }
        if self.lower[var].is_some_and(|l| bound <= l) {
            return true;
        }
        self.trail.push((var, Side::Lower, self.lower[var]));
        self.lower[var] = Some(bound);
        if self.row_of[var] == NON_BASIC && self.value[var] < bound {
            self.update(var, bound);
        }
        true
    }

    /// Asserts `var ≤ bound`. Returns `false`, changing nothing, when the
    /// bound contradicts the lower bound of `var` outright.
    pub fn assert_upper(&mut self, var: usize, bound: Rational) -> bool {
        if self.lower[var].is_some_and(|l| bound < l) {
            return false;
        }
        if self.upper[var].is_some_and(|u| bound >= u) {
            return true;
        }
        self.trail.push((var, Side::Upper, self.upper[var]));
        self.upper[var] = Some(bound);
        if self.row_of[var] == NON_BASIC && self.value[var] > bound {
            self.update(var, bound);
        }
        true
    }

    /// The current point of the bound trail.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint(self.trail.len())
    }

    /// Retracts every bound asserted since `checkpoint`. Rows, the tableau
    /// and the values stay as they are.
    pub fn backtrack(&mut self, checkpoint: Checkpoint) {
        while self.trail.len() > checkpoint.0 {
            let (var, side, previous) = self.trail.pop().expect("trail is longer");
            match side {
                Side::Lower => self.lower[var] = previous,
                Side::Upper => self.upper[var] = previous,
            }
        }
    }

    /// Decides whether the asserted bounds are feasible together with the
    /// rows, pivoting until every basic variable lies within its bounds or a
    /// row shows that one cannot. Answers "feasible" once arithmetic has
    /// saturated (see the module docs).
    pub fn check(&mut self) -> bool {
        loop {
            if overflows() != self.overflows {
                return true;
            }
            // Bland's rule: the smallest basic variable out of its bounds leaves.
            let mut leaving: Option<(usize, Rational)> = None;
            let mut smallest = NON_BASIC;
            for (row, &var) in self.basic.iter().enumerate() {
                if var >= smallest {
                    continue;
                }
                let value = self.value[var];
                let target = match (self.lower[var], self.upper[var]) {
                    (Some(l), _) if value < l => l,
                    (_, Some(u)) if value > u => u,
                    _ => continue,
                };
                smallest = var;
                leaving = Some((row, target));
            }
            let Some((row, target)) = leaving else {
                return true;
            };
            let increase = target > self.value[self.basic[row]];
            // ... and the smallest non-basic variable that can move it enters.
            let entering = self.rows[row].iter().copied().find(|&(var, coeff)| {
                if coeff.is_positive() == increase {
                    self.upper[var].is_none_or(|u| self.value[var] < u)
                } else {
                    self.lower[var].is_none_or(|l| self.value[var] > l)
                }
            });
            let Some((var, coeff)) = entering else {
                return false;
            };
            self.pivot_and_update(row, var, coeff, target);
        }
    }

    /// Moves the non-basic `var` to `value`, carrying every basic variable
    /// along its row.
    fn update(&mut self, var: usize, value: Rational) {
        let delta = value - self.value[var];
        for (row, terms) in self.rows.iter().enumerate() {
            let coeff = coefficient(terms, var);
            if !coeff.is_zero() {
                self.value[self.basic[row]] += coeff * delta;
            }
        }
        self.value[var] = value;
    }

    /// Sets the basic variable of `row` to `target` by moving the non-basic
    /// `var` (coefficient `coeff` in the row), then swaps the two.
    fn pivot_and_update(&mut self, row: usize, var: usize, coeff: Rational, target: Rational) {
        let leaving = self.basic[row];
        let theta = (target - self.value[leaving]) / coeff;
        self.value[leaving] = target;
        self.value[var] += theta;
        for (other, terms) in self.rows.iter().enumerate() {
            if other != row {
                let c = coefficient(terms, var);
                if !c.is_zero() {
                    self.value[self.basic[other]] += c * theta;
                }
            }
        }
        self.pivot(row, var, coeff);
    }

    /// Makes `var` basic in `row` and its basic variable non-basic, and
    /// substitutes the solved row into every other row that mentions `var`.
    fn pivot(&mut self, row: usize, var: usize, coeff: Rational) {
        record_pivot();
        let leaving = self.basic[row];
        // leaving = coeff·var + Σ aₖ·xₖ  ⇔  var = leaving/coeff − Σ (aₖ/coeff)·xₖ
        let inv = coeff.recip();
        let old = std::mem::take(&mut self.rows[row]);
        let mut solved: Vec<(usize, Rational)> = Vec::with_capacity(old.len());
        let mut placed = false;
        for (v, c) in old {
            if v == var {
                continue;
            }
            if !placed && leaving < v {
                solved.push((leaving, inv));
                placed = true;
            }
            solved.push((v, -(c * inv)));
        }
        if !placed {
            solved.push((leaving, inv));
        }
        for (other, terms) in self.rows.iter_mut().enumerate() {
            if other == row {
                continue;
            }
            let factor = coefficient(terms, var);
            if factor.is_zero() {
                continue;
            }
            // Merge `terms + factor · solved`, dropping `var` and cancelled entries.
            let merged = &mut self.scratch;
            let mut k = 0;
            for &(v, c) in &solved {
                while k < terms.len() && terms[k].0 < v {
                    if terms[k].0 != var {
                        merged.push(terms[k]);
                    }
                    k += 1;
                }
                let mut updated = if k < terms.len() && terms[k].0 == v {
                    k += 1;
                    terms[k - 1].1
                } else {
                    Rational::zero()
                };
                updated += c * factor;
                if !updated.is_zero() {
                    merged.push((v, updated));
                }
            }
            merged.extend(terms[k..].iter().copied().filter(|&(v, _)| v != var));
            std::mem::swap(terms, merged);
            merged.clear();
        }
        self.rows[row] = solved;
        self.basic[row] = var;
        self.row_of[var] = row;
        self.row_of[leaving] = NON_BASIC;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Lin;
    use crate::lp::{Cmp, LpProblem, VarKind};
    use crate::simplex::pivot_work;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn r(n: i128) -> Rational {
        Rational::from(n)
    }

    /// One constraint `Σ terms ≥ rhs` or `Σ terms = rhs` of a random cube.
    #[derive(Clone, Debug)]
    struct Row {
        terms: Vec<(usize, Rational)>,
        eq: bool,
        rhs: Rational,
    }

    /// Asserts `row` on the kernel: a bound on the variable of a one-term row,
    /// a bound on a fresh slack otherwise.
    fn assert_row(kernel: &mut BoundedSimplex, row: &Row) -> bool {
        let (var, coeff) = match row.terms.as_slice() {
            [(var, coeff)] => (*var, *coeff),
            terms => (kernel.add_row(terms), Rational::one()),
        };
        let bound = row.rhs / coeff;
        let lower = row.eq || coeff.is_positive();
        let upper = row.eq || coeff.is_negative();
        (!lower || kernel.assert_lower(var, bound)) && (!upper || kernel.assert_upper(var, bound))
    }

    fn lp_feasible(num_vars: usize, rows: &[Row]) -> bool {
        let mut lp = LpProblem::new();
        for v in 0..num_vars {
            lp.declare(format!("v{v}"), VarKind::Free);
        }
        for row in rows {
            let lhs = Lin::from_terms(
                row.terms.iter().map(|&(v, c)| (format!("v{v}"), c)),
                Rational::zero(),
            );
            let op = if row.eq { Cmp::Eq } else { Cmp::Ge };
            lp.constrain(lhs, op, Lin::constant(row.rhs));
        }
        lp.solve().is_feasible()
    }

    fn satisfied(kernel: &BoundedSimplex, row: &Row) -> bool {
        let lhs = row
            .terms
            .iter()
            .fold(Rational::zero(), |acc, &(v, c)| acc + c * kernel.value(v));
        if row.eq {
            lhs == row.rhs
        } else {
            lhs >= row.rhs
        }
    }

    /// A random cube over `num_vars` variables: mixed `≥`/`=` rows with
    /// fractional coefficients and right-hand sides, one to four terms each.
    fn random_cube(rng: &mut SmallRng, num_vars: usize) -> Vec<Row> {
        let num_rows = rng.gen_range(1usize..9);
        (0..num_rows)
            .map(|_| {
                let width = rng.gen_range(1usize..=num_vars.min(4));
                let mut terms: Vec<(usize, Rational)> = Vec::with_capacity(width);
                while terms.len() < width {
                    let var = rng.gen_range(0..num_vars);
                    let coeff = Rational::new(rng.gen_range(-4i128..5), rng.gen_range(1i128..4));
                    if !coeff.is_zero() && terms.iter().all(|&(v, _)| v != var) {
                        terms.push((var, coeff));
                    }
                }
                Row {
                    terms,
                    eq: rng.gen_range(0u32..4) == 0,
                    rhs: Rational::new(rng.gen_range(-6i128..7), rng.gen_range(1i128..3)),
                }
            })
            .collect()
    }

    #[test]
    fn single_variable_bounds() {
        let mut kernel = BoundedSimplex::new();
        let x = kernel.add_var();
        assert!(kernel.assert_lower(x, r(3)));
        assert!(kernel.check());
        assert_eq!(kernel.value(x), r(3));
        assert!(!kernel.assert_upper(x, r(2)), "outright conflict");
        assert!(kernel.assert_upper(x, r(3)));
        assert!(kernel.check());
    }

    #[test]
    fn equalities_propagate_through_rows() {
        // x - y = 0, y = 3, x <= 2 is infeasible; without x <= 2 it is not.
        let mut kernel = BoundedSimplex::new();
        let (x, y) = (kernel.add_var(), kernel.add_var());
        let diff = kernel.add_row(&[(x, r(1)), (y, r(-1))]);
        assert!(kernel.assert_lower(diff, r(0)) && kernel.assert_upper(diff, r(0)));
        assert!(kernel.assert_lower(y, r(3)) && kernel.assert_upper(y, r(3)));
        let mark = kernel.checkpoint();
        assert!(kernel.assert_upper(x, r(2)));
        assert!(!kernel.check());
        kernel.backtrack(mark);
        assert!(kernel.check());
        assert_eq!(kernel.value(x), r(3));
    }

    #[test]
    fn rows_added_after_pivots_see_the_current_tableau() {
        // x + y >= 4, x - y >= 0 pivots; a later row 2x + y must still read
        // its value off the current point.
        let mut kernel = BoundedSimplex::new();
        let (x, y) = (kernel.add_var(), kernel.add_var());
        let sum = kernel.add_row(&[(x, r(1)), (y, r(1))]);
        let diff = kernel.add_row(&[(x, r(1)), (y, r(-1))]);
        assert!(kernel.assert_lower(sum, r(4)) && kernel.assert_lower(diff, r(0)));
        assert!(kernel.check());
        let late = kernel.add_row(&[(x, r(2)), (y, r(1))]);
        assert_eq!(kernel.value(late), r(2) * kernel.value(x) + kernel.value(y));
        assert!(kernel.assert_upper(late, r(5)));
        assert!(
            !kernel.check(),
            "2x + y >= 6 follows from the first two rows"
        );
    }

    #[test]
    fn check_answers_feasible_once_arithmetic_saturates() {
        // x + y >= 1 ∧ x <= 0 ∧ y <= 0 is infeasible, until a saturated
        // operation makes every further check answer "feasible" unpivoted.
        let mut kernel = BoundedSimplex::new();
        let (x, y) = (kernel.add_var(), kernel.add_var());
        let sum = kernel.add_row(&[(x, r(1)), (y, r(1))]);
        assert!(kernel.assert_lower(sum, r(1)));
        assert!(kernel.assert_upper(x, r(0)) && kernel.assert_upper(y, r(0)));
        assert!(!kernel.clone().check());
        let _ = Rational::from(i128::MAX) * Rational::from(2);
        let pivots = pivot_work();
        assert!(kernel.check());
        assert_eq!(pivot_work(), pivots, "a saturated check must not pivot");
    }

    /// The kernel agrees with `LpProblem` on random cubes of one to eight
    /// free variables, mixed `≥`/`=` rows and fractional coefficients, both
    /// feasible and infeasible; a feasible answer's point satisfies every row.
    #[test]
    fn prop_kernel_agrees_with_lp_problem() {
        let mut rng = SmallRng::seed_from_u64(0xB0DED);
        let mut answers = [0usize; 2];
        for _ in 0..800 {
            let num_vars = rng.gen_range(1usize..=8);
            let cube = random_cube(&mut rng, num_vars);
            let mut kernel = BoundedSimplex::new();
            for _ in 0..num_vars {
                kernel.add_var();
            }
            let feasible = cube.iter().all(|row| assert_row(&mut kernel, row)) && kernel.check();
            assert_eq!(
                feasible,
                lp_feasible(num_vars, &cube),
                "kernel and LpProblem disagree on {cube:?}"
            );
            if feasible {
                for row in &cube {
                    assert!(satisfied(&kernel, row), "point violates {row:?}");
                }
            }
            answers[usize::from(feasible)] += 1;
        }
        assert!(
            answers.iter().all(|&n| n > 150),
            "both answers must be exercised: {answers:?}"
        );
    }

    /// Asserting rows one at a time, checking after each and backtracking to
    /// random earlier checkpoints answers as a fresh `LpProblem` over the rows
    /// still asserted, and backtracking never pivots.
    #[test]
    fn prop_backtracking_agrees_with_fresh_solves() {
        let mut rng = SmallRng::seed_from_u64(0xB0DEE);
        for _ in 0..300 {
            let num_vars = rng.gen_range(1usize..=6);
            let cube = random_cube(&mut rng, num_vars);
            let mut kernel = BoundedSimplex::new();
            for _ in 0..num_vars {
                kernel.add_var();
            }
            let mut asserted: Vec<(Checkpoint, Row)> = Vec::new();
            for row in cube {
                if !asserted.is_empty() && rng.gen_bool(0.3) {
                    let keep = rng.gen_range(0..asserted.len());
                    let pivots = pivot_work();
                    kernel.backtrack(asserted[keep].0);
                    asserted.truncate(keep);
                    assert_eq!(pivot_work(), pivots, "backtracking pivoted");
                }
                let mark = kernel.checkpoint();
                let feasible = assert_row(&mut kernel, &row) && kernel.check();
                asserted.push((mark, row));
                let rows: Vec<Row> = asserted.iter().map(|(_, row)| row.clone()).collect();
                assert_eq!(
                    feasible,
                    lp_feasible(num_vars, &rows),
                    "disagreement on {rows:?}"
                );
                if !feasible {
                    let (mark, _) = asserted.pop().expect("just pushed");
                    kernel.backtrack(mark);
                }
            }
        }
    }
}
