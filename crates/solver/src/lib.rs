//! # tnt-solver
//!
//! Exact-arithmetic constraint solving back-end for the HIPTNT+ reproduction.
//!
//! The paper relies on two external solving capabilities:
//!
//! 1. a linear-programming / Farkas'-lemma engine used by `prove_Term` (Sec. 5.4) to
//!    synthesize (lexicographic) linear ranking functions, and
//! 2. a constraint solver used by the abductive inference of case-split conditions
//!    (Sec. 5.6).
//!
//! This crate provides both, implemented from scratch:
//!
//! * [`Rational`] — exact rational numbers over `i128` with automatic normalisation.
//! * [`simplex`] — a primal simplex method (Bland's rule, phase I/II) over exact rationals.
//! * [`lp`] — a named-variable linear-program builder on top of the simplex core.
//! * [`bounded`] — a bounded general simplex (Dutertre & de Moura) deciding the
//!   feasibility of conjunctions of bounds on variables and slack rows, with
//!   bounds asserted and retracted on one tableau; the kernel of the logic
//!   layer's satisfiability search.
//! * [`farkas`] — Farkas'-lemma encodings of universally quantified linear implications
//!   into existentially quantified linear systems over multipliers and template parameters.
//! * [`system`] — the transition system of an SCC that every prover below reads:
//!   nodes with formal parameters and guarded call transitions between them.
//! * [`ranking`] — synthesis of linear ranking functions for a transition system
//!   (one affine template per node, Podelski–Rybalchenko style).
//! * [`lexicographic`] — synthesis of lexicographic linear ranking functions by the
//!   standard iterative edge-elimination scheme, with optional `max(f, g)` component
//!   slots for transitions no affine component can eliminate.
//! * [`multiphase`] — nested multiphase linear ranking functions ⟨f₁, …, f_d⟩
//!   (each phase decreases once the previous ones are exhausted) and the max-based
//!   measure domain, both encoded through the same Farkas/simplex machinery and
//!   re-certified by sound concrete checks before use.
//! * [`recurrent`] — closed recurrent-set synthesis for non-termination
//!   certificates on a single-node system: a polyhedral set with an entry
//!   state, closed under every transition, Houdini-shrunk from sample-pruned
//!   candidate atoms, certified per transition through the same Farkas
//!   implication check, and scored by region generality when several
//!   inductive subsets certify.
//! * [`orbit`] — DynamiTe-style candidate harvesting for the recurrent-set
//!   synthesis: multi-step concrete orbit simulation of a single-node system
//!   from seeded valuations, collecting sign atoms, pairwise differences and
//!   fitted affine combinations that hold along every sampled divergent orbit.
//! * [`work`] — the per-thread work meter: pivots, satisfiability-search nodes,
//!   cap events and saturated rational operations, and the work deadline set by
//!   a scoped [`work::Budget`] in the same unit.
//!
//! The crate is independent of the logic front-end: variables are plain strings and
//! constraints are affine expressions in `≥ 0` normal form ([`linear::Ineq`]).
//!
//! # Example
//!
//! Synthesize a ranking function for the loop `while (x >= 0) x = x - 1;`:
//!
//! ```
//! use tnt_solver::linear::{Ineq, Lin};
//! use tnt_solver::ranking;
//! use tnt_solver::system::{Transition, TransitionSystem};
//! use tnt_solver::Rational;
//!
//! let mut system = TransitionSystem::new();
//! let node = system.add_node(&["x"]);
//! // guard: x >= 0  /\  x' = x - 1, passing x - 1 to the next call
//! let next = Lin::var("x").add_const(Rational::from(-1));
//! let mut guard = vec![Ineq::ge_zero(Lin::var("x"))];
//! guard.extend(Ineq::eq_zero(Lin::var("x'").sub(&next)));
//! system.add_transition(Transition::new(node, node, vec!["x'".to_string()], vec![next], guard));
//! let solution = ranking::synthesize(&system).expect("a linear ranking function exists");
//! assert!(solution[&node].coeff("x") > Rational::zero());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounded;
pub mod farkas;
pub mod lexicographic;
pub mod linear;
pub mod lp;
pub mod multiphase;
pub mod orbit;
pub mod ranking;
pub mod rational;
pub mod recurrent;
pub mod simplex;
pub mod system;
#[cfg(test)]
mod testgen;
pub mod work;

pub use linear::{Ineq, Lin};
pub use lp::{LpProblem, LpSolution, LpStatus};
pub use multiphase::MeasureItem;
pub use rational::Rational;
