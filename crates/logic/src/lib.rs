//! # tnt-logic
//!
//! The Presburger (linear integer arithmetic) reasoning layer of the HIPTNT+
//! reproduction.
//!
//! The paper's specification logic (Fig. 2) combines a separation-logic heap part `κ`
//! with a pure part `π` drawn from Presburger arithmetic. This crate implements the
//! pure part and the decision services the inference engine needs:
//!
//! * [`Constraint`] / [`Formula`] — linear integer atoms and boolean structure
//!   (conjunction, disjunction, negation, existential quantification).
//! * [`dnf`] — negation normal form (the start of every search) and disjunctive
//!   normal form (used by the projection and the per-cube ranking transitions).
//! * [`sat`] — one depth-first search over the negation normal form that asserts
//!   gcd-normalised atoms on one bounded general simplex per walk
//!   ([`tnt_solver::bounded`]), branches on disjunctions and `≠`, and prunes a branch
//!   once its partial cube is infeasible over the rationals. It decides
//!   satisfiability and walks the cubes for the simplifier and [`dnf::to_dnf`].
//! * [`entail`] — entailment and validity, reduced to unsatisfiability.
//! * [`qe`] — existential-quantifier elimination / projection by equality substitution
//!   and Fourier–Motzkin combination (an over-approximation on the integers, which is
//!   the sound direction for every use in the inference engine; see `DESIGN.md` §4).
//! * [`simplify`] — light-weight structural simplification used to keep inferred
//!   guards readable.
//!
//! Variables are plain strings; affine expressions reuse [`tnt_solver::Lin`].
//!
//! # Example
//!
//! ```
//! use tnt_logic::{Constraint, Formula};
//! use tnt_solver::Lin;
//!
//! // x >= 0 ∧ x + y < 0  entails  y < 0
//! let antecedent = Formula::and(vec![
//!     Constraint::ge(Lin::var("x"), Lin::zero()).into(),
//!     Constraint::lt(Lin::var("x").add(&Lin::var("y")), Lin::zero()).into(),
//! ]);
//! let consequent: Formula = Constraint::lt(Lin::var("y"), Lin::zero()).into();
//! assert!(tnt_logic::entail::entails(&antecedent, &consequent));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constraint;
pub mod dnf;
pub mod entail;
pub mod formula;
pub mod qe;
pub mod sat;
pub mod simplify;
pub mod testgen;

pub use constraint::{Constraint, RelOp};
pub use formula::Formula;
pub use tnt_solver::{Lin, Rational};

/// Convenience: an integer-constant affine expression.
pub fn num(value: i128) -> Lin {
    Lin::constant(Rational::from(value))
}

/// Convenience: a variable affine expression.
pub fn var(name: &str) -> Lin {
    Lin::var(name)
}
