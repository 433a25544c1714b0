//! # tnt-suite
//!
//! Benchmark corpora for the evaluation (paper Sec. 6).
//!
//! The paper evaluates on four SV-COMP'15 termination suites (`crafted`, `crafted-lit`,
//! `numeric`, `memory-alloca`; 338 C programs after excluding arrays/strings) and on
//! 221 loop-based integer programs for the T2 comparison. Those C sources are not
//! redistributable here, so this crate provides *synthetic corpora of the same sizes
//! and category character*, written in the core language, each with a ground-truth
//! label (see `DESIGN.md` §4 for why this substitution preserves the evaluation's
//! comparative shape):
//!
//! * [`crafted`] — small hand-style programs exercising conditional termination,
//!   definite non-termination and recursion (39 programs).
//! * [`crafted_lit`] — literature classics (McCarthy 91, Ackermann-style descent,
//!   gcd/mod patterns, phase-change loops, …) and parametrised variants (150 programs).
//! * [`numeric`] — arithmetic-heavy loop programs (68 programs).
//! * [`memory_alloca`] — pointer/allocation programs over linked lists (81 programs).
//! * [`integer_loops`] — loop-only integer programs for the Fig. 11 comparison
//!   (221 programs).
//!
//! Every program records its ground-truth verdict, which the benchmark harness uses to
//! check soundness (no tool may answer Y on a non-terminating program or N on a
//! terminating one).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpora;
pub mod runner;
pub mod templates;

pub use corpora::{
    crafted, crafted_lit, integer_loops, memory_alloca, numeric, svcomp_suites, Category, Expected,
    Suite,
};
pub use runner::{run_suite_session, run_suite_session_with, ProgramReport, SuiteReport};
pub use templates::BenchProgram;
