//! A two-phase primal simplex method over exact rationals.
//!
//! The solver works on problems in *standard form*: minimise `cᵀx` subject to linear
//! constraints over non-negative variables. [`crate::lp`] provides a friendlier,
//! named-variable interface (including free variables) on top of this module.
//!
//! Bland's anti-cycling rule is used throughout, so the method always terminates.
//!
//! The tableau is sparse: each row stores only its non-zero coefficients as
//! column-sorted `(column, value)` pairs, with the right-hand sides in a
//! column of their own; only the reduced-cost row is dense. A pivot scales the
//! pivot row's non-zeros and merges `row − factor · pivot_row` into every row
//! with a non-zero `factor`. Each touched entry is computed as
//! `old − value · factor`, with an absent `old` read as zero, and an entry that
//! cancels is dropped. So the same rational operations run on the same operands
//! as on a dense tableau, and pivots, answers and saturation are those of the
//! dense method, while the memory is that of the non-zeros: Farkas LPs of a
//! thousand rows stay under one percent dense.

use crate::rational::Rational;
use std::cell::Cell;

thread_local! {
    static PIVOT_WORK: Cell<u64> = const { Cell::new(0) };
    static WORK_DEADLINE: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// Monotone per-thread count of simplex pivots performed since thread start.
///
/// Callers that need a deterministic work budget (the analyzer's "timeout"
/// emulation — the paper's T/O column counts exhausted budgets, not wall-clock
/// races) snapshot this before a unit of work and compare deltas afterwards.
pub fn pivot_work() -> u64 {
    PIVOT_WORK.with(|w| w.get())
}

fn record_pivot() {
    PIVOT_WORK.with(|w| w.set(w.get().wrapping_add(1)));
}

/// Sets the per-thread work deadline (an absolute [`pivot_work`] value) and
/// returns the previous one. Long-running synthesis loops such as
/// [`crate::lexicographic`] stop *between* LP solves once the deadline has
/// passed; an individual solve always runs to completion, so LP answers are
/// never truncated.
pub fn set_work_deadline(deadline: u64) -> u64 {
    WORK_DEADLINE.with(|d| d.replace(deadline))
}

/// Returns `true` once [`pivot_work`] has passed the deadline set by
/// [`set_work_deadline`].
pub fn deadline_exceeded() -> bool {
    WORK_DEADLINE.with(|d| PIVOT_WORK.with(|w| w.get()) > d.get())
}

/// Comparison operator of a standard-form constraint row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowOp {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// The non-zero coefficients of a standard-form row, as `(column, value)`
/// pairs with distinct columns; every other coefficient is zero. [`solve`]
/// rejects a row that repeats a column.
pub type RowTerms = Vec<(usize, Rational)>;

/// A linear program in standard form: minimise `cᵀx` s.t. rows, `x ≥ 0`.
#[derive(Clone, Debug, Default)]
pub struct StandardForm {
    /// Number of decision variables (all constrained to be non-negative).
    pub num_vars: usize,
    /// Constraint rows `(terms, op, rhs)`; every term's column is `< num_vars`.
    pub rows: Vec<(RowTerms, RowOp, Rational)>,
    /// Objective coefficients to minimise; `objective.len() == num_vars`.
    pub objective: Vec<Rational>,
}

/// Result of solving a standard-form program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimplexOutcome {
    /// An optimal solution was found.
    Optimal {
        /// The minimal objective value.
        objective: Rational,
        /// A value for every decision variable.
        solution: Vec<Rational>,
    },
    /// The constraint system has no solution with `x ≥ 0`.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded {
        /// A feasible point witnessing the region is non-empty.
        solution: Vec<Rational>,
    },
}

impl SimplexOutcome {
    /// Returns `true` for [`SimplexOutcome::Infeasible`].
    pub fn is_infeasible(&self) -> bool {
        matches!(self, SimplexOutcome::Infeasible)
    }

    /// Returns the solution vector if the region was feasible.
    pub fn solution(&self) -> Option<&[Rational]> {
        match self {
            SimplexOutcome::Optimal { solution, .. } => Some(solution),
            SimplexOutcome::Unbounded { solution } => Some(solution),
            SimplexOutcome::Infeasible => None,
        }
    }
}

struct Tableau {
    /// Each row's non-zero coefficients, sorted by column; an absent column
    /// is zero.
    rows: Vec<RowTerms>,
    /// Each row's right-hand side.
    rhs: Vec<Rational>,
    /// Index of the basic variable of each row.
    basis: Vec<usize>,
    /// Total number of structural + slack + artificial columns (excludes rhs).
    num_cols: usize,
    /// Columns that are artificial variables (banned from entering in phase II).
    artificial: Vec<bool>,
    /// Every row's coefficient in the column last read by
    /// [`Tableau::read_column`]: the ratio test's and the pivot's factors.
    column: Vec<Rational>,
    /// Reusable buffer that [`Tableau::pivot`] merges each updated row into.
    scratch: RowTerms,
}

/// The coefficient of `col` in a column-sorted row.
fn entry(row: &RowTerms, col: usize) -> Rational {
    match row.binary_search_by_key(&col, |&(c, _)| c) {
        Ok(at) => row[at].1,
        Err(_) => Rational::zero(),
    }
}

impl Tableau {
    /// Reads every row's coefficient in `col` into [`Tableau::column`].
    fn read_column(&mut self, col: usize) {
        self.column.clear();
        self.column
            .extend(self.rows.iter().map(|terms| entry(terms, col)));
    }

    /// Pivots on `(row, col)`, where `col` is the column last read by
    /// [`Tableau::read_column`]: scales the pivot row so the entry is one and
    /// subtracts `factor · pivot_row` from every other row whose entry in
    /// `col` is the non-zero `factor`.
    fn pivot(&mut self, row: usize, col: usize) {
        record_pivot();
        let pivot_value = self.column[row];
        debug_assert!(!pivot_value.is_zero());
        let inv = pivot_value.recip();
        let mut pivot_row = std::mem::take(&mut self.rows[row]);
        for (_, value) in &mut pivot_row {
            *value = *value * inv;
        }
        let mut pivot_rhs = self.rhs[row];
        if !pivot_rhs.is_zero() {
            pivot_rhs = pivot_rhs * inv;
            self.rhs[row] = pivot_rhs;
        }
        for (r, other) in self.rows.iter_mut().enumerate() {
            let factor = self.column[r];
            if r == row || factor.is_zero() {
                continue;
            }
            // Merge `other - factor · pivot_row` into the scratch row; each
            // touched entry is `old - value * factor` with an absent `old`
            // read as zero, and an entry that cancels is dropped.
            let merged = &mut self.scratch;
            let mut k = 0;
            for &(c, value) in &pivot_row {
                while k < other.len() && other[k].0 < c {
                    merged.push(other[k]);
                    k += 1;
                }
                let mut updated = if k < other.len() && other[k].0 == c {
                    k += 1;
                    other[k - 1].1
                } else {
                    Rational::zero()
                };
                updated -= value * factor;
                if !updated.is_zero() {
                    merged.push((c, updated));
                }
            }
            merged.extend_from_slice(&other[k..]);
            std::mem::swap(other, merged);
            merged.clear();
            if !pivot_rhs.is_zero() {
                self.rhs[r] -= pivot_rhs * factor;
            }
        }
        self.rows[row] = pivot_row;
        self.basis[row] = col;
    }

    /// Runs simplex iterations minimising `objective` (one coefficient per column).
    /// Returns `None` if unbounded, otherwise the optimal objective value.
    ///
    /// The reduced-cost row `z` is dense and maintained incrementally: it is
    /// initialised once as `z_j = c_j - Σ_i c_{B_i}·T[i][j]` and thereafter
    /// updated with the pivot row's non-zeros, the same row operation
    /// [`Tableau::pivot`] applies to every other row, instead of being
    /// recomputed from the basis on every entering-column scan. The last
    /// entry of `z` carries `-Σ_i c_{B_i}·rhs_i`, i.e. the negated objective
    /// value of the current basis.
    fn minimise(&mut self, objective: &[Rational], allow_artificial: bool) -> Option<Rational> {
        let num_cols = self.num_cols;
        let mut in_basis = vec![false; num_cols];
        for &basic in &self.basis {
            in_basis[basic] = true;
        }
        // Subtracts `factor` times row `row` (rhs included) from `z`.
        let eliminate = |z: &mut [Rational], row: &RowTerms, rhs: Rational, factor: Rational| {
            for &(c, value) in row {
                z[c] -= factor * value;
            }
            if !rhs.is_zero() {
                z[num_cols] -= factor * rhs;
            }
        };
        // Initial reduced-cost row (rhs slot holds the negated objective value).
        let mut z: Vec<Rational> = Vec::with_capacity(num_cols + 1);
        z.extend_from_slice(objective);
        z.push(Rational::zero());
        for (row, &basic) in self.basis.iter().enumerate() {
            let cb = objective[basic];
            if !cb.is_zero() {
                eliminate(&mut z, &self.rows[row], self.rhs[row], cb);
            }
        }
        loop {
            // Bland's entering rule: smallest column index with negative reduced cost.
            let mut entering = None;
            for col in 0..num_cols {
                if (!allow_artificial && self.artificial[col]) || in_basis[col] {
                    continue;
                }
                if z[col].is_negative() {
                    entering = Some(col);
                    break;
                }
            }
            let Some(col) = entering else {
                return Some(-z[num_cols]);
            };
            // Ratio test with Bland tie-breaking on the basic variable index.
            let mut leaving: Option<(usize, Rational)> = None;
            self.read_column(col);
            for (row, &coeff) in self.column.iter().enumerate() {
                if coeff.is_positive() {
                    let ratio = self.rhs[row] / coeff;
                    let better = match &leaving {
                        None => true,
                        Some((best_row, best_ratio)) => {
                            ratio < *best_ratio
                                || (ratio == *best_ratio && self.basis[row] < self.basis[*best_row])
                        }
                    };
                    if better {
                        leaving = Some((row, ratio));
                    }
                }
            }
            let (row, _) = leaving?; // unbounded
            in_basis[self.basis[row]] = false;
            in_basis[col] = true;
            self.pivot(row, col);
            // Eliminate the entering column from the reduced-cost row with the
            // same row operation pivot() applied to every other row.
            let factor = z[col];
            if !factor.is_zero() {
                eliminate(&mut z, &self.rows[row], self.rhs[row], factor);
            }
        }
    }

    fn basic_solution(&self, num_structural: usize) -> Vec<Rational> {
        let mut solution = vec![Rational::zero(); num_structural];
        for (row, &basic) in self.basis.iter().enumerate() {
            if basic < num_structural {
                solution[basic] = self.rhs[row];
            }
        }
        solution
    }
}

/// Solves a standard-form linear program with the two-phase simplex method.
///
/// All decision variables are implicitly constrained to be non-negative.
///
/// # Examples
///
/// ```
/// use tnt_solver::simplex::{solve, RowOp, SimplexOutcome, StandardForm};
/// use tnt_solver::Rational;
///
/// // minimise -x subject to x <= 4 (so the optimum is x = 4, objective -4)
/// let program = StandardForm {
///     num_vars: 1,
///     rows: vec![(vec![(0, Rational::one())], RowOp::Le, Rational::from(4))],
///     objective: vec![-Rational::one()],
/// };
/// match solve(&program) {
///     SimplexOutcome::Optimal { objective, solution } => {
///         assert_eq!(objective, Rational::from(-4));
///         assert_eq!(solution[0], Rational::from(4));
///     }
///     other => panic!("unexpected outcome {other:?}"),
/// }
/// ```
pub fn solve(program: &StandardForm) -> SimplexOutcome {
    let num_structural = program.num_vars;
    let num_rows = program.rows.len();

    // Normalise every row so its right-hand side is non-negative. A row that
    // is then `≥` or `=` has no basic slack and needs an artificial column.
    let effective: Vec<(bool, RowOp)> = program
        .rows
        .iter()
        .map(|(_, op, rhs)| {
            let flip = rhs.is_negative();
            let effective_op = match (op, flip) {
                (RowOp::Le, false) | (RowOp::Ge, true) => RowOp::Le,
                (RowOp::Ge, false) | (RowOp::Le, true) => RowOp::Ge,
                (RowOp::Eq, _) => RowOp::Eq,
            };
            (flip, effective_op)
        })
        .collect();
    let num_slack = effective.iter().filter(|(_, op)| *op != RowOp::Eq).count();
    let num_artificial = effective.iter().filter(|(_, op)| *op != RowOp::Le).count();
    // Columns: structural, then slack in row order, then artificial in row
    // order (Bland's rule picks by index, so this order fixes the pivots).
    let columns = num_structural + num_slack + num_artificial;
    let mut rows = Vec::with_capacity(num_rows);
    let mut rhs = Vec::with_capacity(num_rows);
    let mut basis = vec![usize::MAX; num_rows];
    let mut artificial_cols = Vec::with_capacity(num_artificial);

    let mut slack = num_structural;
    let mut next_artificial = num_structural + num_slack;
    for (row_idx, ((terms, _, b), &(flip, effective_op))) in
        program.rows.iter().zip(&effective).enumerate()
    {
        let sign = if flip {
            -Rational::one()
        } else {
            Rational::one()
        };
        let mut row: RowTerms = Vec::with_capacity(terms.len() + 2);
        for &(col, value) in terms {
            assert!(col < num_structural, "row term outside the variables");
            row.push((col, value * sign));
        }
        row.sort_unstable_by_key(|&(col, _)| col);
        assert!(
            row.windows(2).all(|pair| pair[0].0 != pair[1].0),
            "repeated row term column"
        );
        row.retain(|(_, value)| !value.is_zero());
        rhs.push(*b * sign);
        match effective_op {
            RowOp::Le => {
                row.push((slack, Rational::one()));
                basis[row_idx] = slack;
                slack += 1;
            }
            RowOp::Ge => {
                row.push((slack, -Rational::one()));
                slack += 1;
            }
            RowOp::Eq => {}
        }
        if effective_op != RowOp::Le {
            row.push((next_artificial, Rational::one()));
            basis[row_idx] = next_artificial;
            artificial_cols.push(next_artificial);
            next_artificial += 1;
        }
        rows.push(row);
    }

    let mut artificial = vec![false; columns];
    for &c in &artificial_cols {
        artificial[c] = true;
    }

    let mut tableau = Tableau {
        rows,
        rhs,
        basis,
        num_cols: columns,
        artificial: artificial.clone(),
        column: Vec::with_capacity(num_rows),
        scratch: Vec::new(),
    };

    // Phase I: minimise the sum of artificial variables.
    if !artificial_cols.is_empty() {
        let mut phase1 = vec![Rational::zero(); columns];
        for &c in &artificial_cols {
            phase1[c] = Rational::one();
        }
        // Exact arithmetic guarantees the phase I objective is bounded below by
        // zero; an "unbounded" answer can only come from a saturated (overflowed)
        // rational corrupting the tableau. The overflow counter has already
        // poisoned the run, so answer conservatively instead of panicking.
        let Some(value) = tableau.minimise(&phase1, true) else {
            return SimplexOutcome::Infeasible;
        };
        if value.is_positive() {
            return SimplexOutcome::Infeasible;
        }
        // Drive any artificial variables remaining in the basis out of it.
        for row in 0..tableau.basis.len() {
            let basic = tableau.basis[row];
            if artificial[basic] {
                let pivot_col = tableau.rows[row].iter().find(|&&(c, _)| !artificial[c]);
                if let Some(&(col, _)) = pivot_col {
                    tableau.read_column(col);
                    tableau.pivot(row, col);
                }
                // If no pivot column exists the row is redundant; the artificial stays
                // basic at value zero, which is harmless because it cannot re-enter.
            }
        }
    }

    // Phase II: minimise the real objective.
    let mut objective = vec![Rational::zero(); columns];
    objective[..num_structural].copy_from_slice(&program.objective);
    match tableau.minimise(&objective, false) {
        Some(value) => SimplexOutcome::Optimal {
            objective: value,
            solution: tableau.basic_solution(num_structural),
        },
        None => SimplexOutcome::Unbounded {
            solution: tableau.basic_solution(num_structural),
        },
    }
}

/// A seeded, block-structured program shaped like the Farkas LPs of ranking
/// synthesis: `blocks` implications of eight rows each over 24 private
/// multiplier columns per block, every row holding five of them, and the
/// first two rows of each block also linking to one of two shared template
/// columns. Coefficients are fractional, six rows in eight are equalities,
/// and the right-hand sides are those of a hidden non-negative point, so the
/// program is feasible and some right-hand sides are negative. The objective
/// weights every column non-negatively, so the program has an optimum.
///
/// It is the wide workload of the simplex pin test and of the
/// `kernel/farkas_lp_wide` micro bench: 125 blocks give 1,000 rows over
/// 3,002 structural columns, and pivoting on the shared columns fills the
/// rows in several-fold.
pub fn wide_block_program(seed: u64, blocks: usize) -> StandardForm {
    const SHARED: usize = 2;
    const PRIVATE: usize = 24;
    const ROWS: usize = 8;
    // SplitMix64: a fixed stream per seed, independent of any RNG crate.
    let mut state = seed;
    let mut next = |bound: u64| -> i128 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound) as i128
    };
    let num_vars = SHARED + blocks * PRIVATE;
    // The hidden point: about one column in three is positive.
    let point: Vec<Rational> = (0..num_vars)
        .map(|_| match next(3) {
            0 => Rational::from(next(3) + 1),
            _ => Rational::zero(),
        })
        .collect();
    let mut rows = Vec::with_capacity(blocks * ROWS);
    for block in 0..blocks {
        let first = SHARED + block * PRIVATE;
        for i in 0..ROWS {
            let mut terms: RowTerms = Vec::with_capacity(6);
            while terms.len() < 5 {
                let col = first + next(PRIVATE as u64) as usize;
                if terms.iter().all(|&(c, _)| c != col) {
                    let num = [-2, -1, 1, 2][next(4) as usize];
                    terms.push((col, Rational::new(num, next(2) + 1)));
                }
            }
            if i < SHARED {
                terms.push((i, Rational::new(-1, next(3) + 1)));
            }
            terms.sort_by_key(|&(c, _)| c);
            let at_point = terms
                .iter()
                .fold(Rational::zero(), |acc, &(c, v)| acc + v * point[c]);
            let margin = Rational::new(next(3), 2);
            let (op, rhs) = match i {
                6 => (RowOp::Le, at_point + margin),
                7 => (RowOp::Ge, at_point - margin),
                _ => (RowOp::Eq, at_point),
            };
            rows.push((terms, op, rhs));
        }
    }
    let objective = (0..num_vars)
        .map(|col| {
            if col < SHARED {
                Rational::new(next(5) + 1, 2)
            } else {
                Rational::new(next(3), 4)
            }
        })
        .collect();
    StandardForm {
        num_vars,
        rows,
        objective,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128) -> Rational {
        Rational::from(n)
    }

    /// The sparse terms of a dense coefficient row.
    fn terms(dense: &[Rational]) -> RowTerms {
        dense
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_zero())
            .map(|(i, c)| (i, *c))
            .collect()
    }

    #[test]
    fn feasibility_only() {
        // x + y = 3, x <= 2 has solutions with x, y >= 0.
        let program = StandardForm {
            num_vars: 2,
            rows: vec![
                (terms(&[r(1), r(1)]), RowOp::Eq, r(3)),
                (terms(&[r(1), r(0)]), RowOp::Le, r(2)),
            ],
            objective: vec![r(0), r(0)],
        };
        let outcome = solve(&program);
        let solution = outcome.solution().expect("feasible");
        assert_eq!(solution[0] + solution[1], r(3));
        assert!(solution[0] <= r(2));
    }

    #[test]
    fn infeasible_system() {
        // x <= 1 and x >= 2 is infeasible.
        let program = StandardForm {
            num_vars: 1,
            rows: vec![
                (terms(&[r(1)]), RowOp::Le, r(1)),
                (terms(&[r(1)]), RowOp::Ge, r(2)),
            ],
            objective: vec![r(0)],
        };
        assert!(solve(&program).is_infeasible());
    }

    #[test]
    fn optimisation() {
        // maximise x + 2y s.t. x + y <= 4, y <= 3  => minimise -(x + 2y), optimum at (1, 3).
        let program = StandardForm {
            num_vars: 2,
            rows: vec![
                (terms(&[r(1), r(1)]), RowOp::Le, r(4)),
                (terms(&[r(0), r(1)]), RowOp::Le, r(3)),
            ],
            objective: vec![r(-1), r(-2)],
        };
        match solve(&program) {
            SimplexOutcome::Optimal {
                objective,
                solution,
            } => {
                assert_eq!(objective, r(-7));
                assert_eq!(solution[0], r(1));
                assert_eq!(solution[1], r(3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unbounded_objective() {
        // minimise -x with only x >= 1: unbounded below.
        let program = StandardForm {
            num_vars: 1,
            rows: vec![(terms(&[r(1)]), RowOp::Ge, r(1))],
            objective: vec![r(-1)],
        };
        match solve(&program) {
            SimplexOutcome::Unbounded { solution } => assert!(solution[0] >= r(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negative_rhs_normalisation() {
        // -x <= -3  means x >= 3.
        let program = StandardForm {
            num_vars: 1,
            rows: vec![(terms(&[r(-1)]), RowOp::Le, r(-3))],
            objective: vec![r(1)],
        };
        match solve(&program) {
            SimplexOutcome::Optimal {
                objective,
                solution,
            } => {
                assert_eq!(objective, r(3));
                assert_eq!(solution[0], r(3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn equality_only_system() {
        // x = 5 (with x >= 0): feasible; minimise x gives 5.
        let program = StandardForm {
            num_vars: 1,
            rows: vec![(terms(&[r(1)]), RowOp::Eq, r(5))],
            objective: vec![r(1)],
        };
        match solve(&program) {
            SimplexOutcome::Optimal { objective, .. } => assert_eq!(objective, r(5)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // Beale's classically degenerate (cycling) instance; Bland's rule must terminate
        // and reach the known optimum of -1/20.
        let program = StandardForm {
            num_vars: 4,
            rows: vec![
                (
                    terms(&[Rational::new(1, 4), r(-60), Rational::new(-1, 25), r(9)]),
                    RowOp::Le,
                    r(0),
                ),
                (
                    terms(&[Rational::new(1, 2), r(-90), Rational::new(-1, 50), r(3)]),
                    RowOp::Le,
                    r(0),
                ),
                (terms(&[r(0), r(0), r(1), r(0)]), RowOp::Le, r(1)),
            ],
            objective: vec![Rational::new(-3, 4), r(150), Rational::new(-1, 50), r(6)],
        };
        match solve(&program) {
            SimplexOutcome::Optimal { objective, .. } => {
                assert_eq!(objective, Rational::new(-1, 20))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn redundant_equalities() {
        // x + y = 2 stated twice; still feasible.
        let program = StandardForm {
            num_vars: 2,
            rows: vec![
                (terms(&[r(1), r(1)]), RowOp::Eq, r(2)),
                (terms(&[r(1), r(1)]), RowOp::Eq, r(2)),
            ],
            objective: vec![r(0), r(0)],
        };
        assert!(solve(&program).solution().is_some());
    }

    #[test]
    #[should_panic(expected = "repeated row term column")]
    fn repeated_column_is_rejected() {
        // Read as `x0 + x0`, the row would silently mean `2·x0 <= 1`.
        let program = StandardForm {
            num_vars: 1,
            rows: vec![(vec![(0, r(1)), (0, r(1))], RowOp::Le, r(1))],
            objective: vec![r(0)],
        };
        solve(&program);
    }

    #[test]
    fn contradictory_equalities() {
        let program = StandardForm {
            num_vars: 2,
            rows: vec![
                (terms(&[r(1), r(1)]), RowOp::Eq, r(2)),
                (terms(&[r(1), r(1)]), RowOp::Eq, r(3)),
            ],
            objective: vec![r(0), r(0)],
        };
        assert!(solve(&program).is_infeasible());
    }

    mod properties {
        use super::super::*;
        use super::terms;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        fn r(n: i128) -> Rational {
            Rational::from(n)
        }

        fn random_program(rng: &mut SmallRng) -> StandardForm {
            let num_vars = rng.gen_range(1usize..4);
            let num_rows = rng.gen_range(1usize..5);
            let rows = (0..num_rows)
                .map(|_| {
                    let coeffs: Vec<Rational> =
                        (0..num_vars).map(|_| r(rng.gen_range(-5i128..6))).collect();
                    let op = match rng.gen_range(0u32..3) {
                        0 => RowOp::Le,
                        1 => RowOp::Ge,
                        _ => RowOp::Eq,
                    };
                    (terms(&coeffs), op, r(rng.gen_range(-10i128..11)))
                })
                .collect();
            let objective = (0..num_vars).map(|_| r(rng.gen_range(-3i128..4))).collect();
            StandardForm {
                num_vars,
                rows,
                objective,
            }
        }

        fn satisfies(program: &StandardForm, solution: &[Rational]) -> bool {
            solution.iter().all(|x| *x >= Rational::zero())
                && program.rows.iter().all(|(terms, op, rhs)| {
                    let lhs = terms
                        .iter()
                        .fold(Rational::zero(), |acc, (i, c)| acc + *c * solution[*i]);
                    match op {
                        RowOp::Le => lhs <= *rhs,
                        RowOp::Ge => lhs >= *rhs,
                        RowOp::Eq => lhs == *rhs,
                    }
                })
        }

        /// Any solution the simplex reports (optimal or the feasible witness of
        /// an unbounded program) must actually satisfy every constraint row and
        /// the non-negativity restriction, and an optimal objective value must
        /// match the returned point.
        #[test]
        fn prop_feasible_answers_satisfy_the_constraints() {
            let mut rng = SmallRng::seed_from_u64(0x514D01);
            let mut feasible = 0;
            for _ in 0..600 {
                let program = random_program(&mut rng);
                match solve(&program) {
                    SimplexOutcome::Infeasible => {}
                    SimplexOutcome::Unbounded { solution } => {
                        assert!(
                            satisfies(&program, &solution),
                            "unbounded witness violates constraints: {program:?} {solution:?}"
                        );
                        feasible += 1;
                    }
                    SimplexOutcome::Optimal {
                        objective,
                        solution,
                    } => {
                        assert!(
                            satisfies(&program, &solution),
                            "optimal point violates constraints: {program:?} {solution:?}"
                        );
                        let value = program
                            .objective
                            .iter()
                            .zip(&solution)
                            .fold(Rational::zero(), |acc, (c, x)| acc + *c * *x);
                        assert_eq!(value, objective, "objective mismatch: {program:?}");
                        feasible += 1;
                    }
                }
            }
            assert!(
                feasible > 100,
                "generator produced too few feasible programs"
            );
        }

        /// Programs with fractional coefficients, negative right-hand sides,
        /// `Eq` rows and one column that no row uses.
        fn pinned_program(rng: &mut SmallRng) -> StandardForm {
            let num_vars = rng.gen_range(3usize..8);
            let unused = rng.gen_range(0..num_vars);
            let num_rows = rng.gen_range(1usize..6);
            let rows = (0..num_rows)
                .map(|_| {
                    let terms: RowTerms = (0..num_vars)
                        .filter(|&col| col != unused)
                        .filter_map(|col| {
                            if rng.gen_range(0u32..4) == 0 {
                                return None;
                            }
                            let value =
                                Rational::new(rng.gen_range(-5i128..7), rng.gen_range(1i128..5));
                            (!value.is_zero()).then_some((col, value))
                        })
                        .collect();
                    let op = match rng.gen_range(0u32..5) {
                        0 | 1 => RowOp::Le,
                        2 | 3 => RowOp::Ge,
                        _ => RowOp::Eq,
                    };
                    let rhs = Rational::new(rng.gen_range(-6i128..13), rng.gen_range(1i128..4));
                    (terms, op, rhs)
                })
                .collect();
            let objective = (0..num_vars)
                .map(|_| Rational::new(rng.gen_range(-1i128..5), rng.gen_range(1i128..3)))
                .collect();
            StandardForm {
                num_vars,
                rows,
                objective,
            }
        }

        /// Pins the pivot sequence: Bland's rule picks columns by index, so a
        /// changed column layout or a skipped update shows up as a different
        /// pivot total over a fixed program set. The totals were recorded with
        /// the dense-row tableau that preceded the sparse one.
        #[test]
        fn prop_pinned_pivot_sequence() {
            let mut rng = SmallRng::seed_from_u64(0x514D03);
            let before = pivot_work();
            let mut outcomes = [0usize; 3];
            for _ in 0..400 {
                let program = pinned_program(&mut rng);
                let outcome = solve(&program);
                match &outcome {
                    SimplexOutcome::Infeasible => outcomes[0] += 1,
                    SimplexOutcome::Unbounded { .. } => outcomes[1] += 1,
                    SimplexOutcome::Optimal { .. } => outcomes[2] += 1,
                }
                if let Some(solution) = outcome.solution() {
                    assert!(
                        satisfies(&program, solution),
                        "reported point violates constraints: {program:?} {solution:?}"
                    );
                }
            }
            assert_eq!(outcomes, [164, 99, 137], "infeasible/unbounded/optimal");
            assert_eq!(pivot_work() - before, 762, "pivot total moved");
        }

        /// Pins the simplex on wide programs: a thousand rows over three
        /// thousand structural columns, where pivoting on the shared columns
        /// fills the rows in several-fold. Each seed's outcome, objective and
        /// pivot count were recorded with the dense tableau that preceded the
        /// sparse rows, and no rational operation may saturate.
        #[test]
        fn prop_wide_block_lp_pinned() {
            let pinned = [
                (1, "56584044031/310390080", 2123),
                (2, "1113623293/5565120", 2045),
                (3, "791083523/4080384", 2130),
            ];
            let overflows = crate::rational::overflow_work();
            for (seed, objective, pivots) in pinned {
                let program = wide_block_program(seed, 125);
                assert_eq!(program.rows.len(), 1000);
                assert_eq!(program.num_vars, 3002);
                assert!(program.rows.iter().all(|(terms, _, _)| terms.len() <= 8));
                assert!(program.rows.iter().any(|(_, op, _)| *op == RowOp::Eq));
                assert!(program.rows.iter().any(|(_, _, rhs)| rhs.is_negative()));
                assert!(program
                    .rows
                    .iter()
                    .any(|(terms, _, _)| terms.iter().any(|(_, value)| !value.is_integer())));
                let before = pivot_work();
                let outcome = solve(&program);
                let SimplexOutcome::Optimal {
                    objective: value,
                    solution,
                } = &outcome
                else {
                    panic!("seed {seed}: expected an optimum, got {outcome:?}");
                };
                assert!(
                    satisfies(&program, solution),
                    "seed {seed}: infeasible point"
                );
                assert_eq!(value.to_string(), objective, "seed {seed}: objective moved");
                assert_eq!(
                    pivot_work() - before,
                    pivots,
                    "seed {seed}: pivot count moved"
                );
            }
            assert_eq!(crate::rational::overflow_work(), overflows, "saturated");
        }

        /// The all-zero point satisfying the constraints implies the program is
        /// never reported infeasible (no false `Infeasible` answers).
        #[test]
        fn prop_zero_witness_refutes_infeasibility() {
            let mut rng = SmallRng::seed_from_u64(0x514D02);
            for _ in 0..600 {
                let program = random_program(&mut rng);
                let zero = vec![Rational::zero(); program.num_vars];
                if satisfies(&program, &zero) {
                    assert!(
                        !solve(&program).is_infeasible(),
                        "zero point satisfies but reported infeasible: {program:?}"
                    );
                }
            }
        }
    }
}
