//! # tnt-lang
//!
//! The core imperative language and specification syntax of the HIPTNT+ reproduction
//! (paper Fig. 2 and Fig. 5), together with a lexer, a recursive-descent parser, a type
//! checker, an A-normal-form normaliser, the while-loop → tail-recursion desugaring the
//! paper assumes, and pretty printing.
//!
//! The surface language is a small C-like language:
//!
//! ```text
//! data node { node next; }
//!
//! void foo(int x, int y)
//! {
//!   if (x < 0) { return; } else { foo(x + y, y); }
//! }
//! ```
//!
//! Methods may carry specifications in `requires ... ensures ...;` form, `case { ... }`
//! specifications, and the temporal predicates `Term[...]`, `Loop` and `MayLoop` of the
//! paper. Methods without a temporal annotation are exactly the ones the inference
//! engine instruments with unknown pre/post-predicates.
//!
//! # Example
//!
//! ```
//! let source = r#"
//!     void foo(int x, int y)
//!     { if (x < 0) { return; } else { foo(x + y, y); } }
//! "#;
//! let program = tnt_lang::parse_program(source).expect("parses");
//! assert_eq!(program.methods.len(), 1);
//! assert_eq!(program.methods[0].name, "foo");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod desugar;
pub mod lexer;
pub mod normalize;
pub mod parser;
pub mod pretty;
pub mod pure;
pub mod spec;
pub mod symbol;
pub mod typecheck;

pub use ast::{BinOp, Block, DataDecl, Expr, MethodDecl, Param, Program, Stmt, Type, UnOp};
pub use parser::{parse_program, ParseError};
pub use spec::{Ensures, HeapFormula, Requires, Spec, SpecPair, TemporalSpec};
pub use symbol::Symbol;

/// Parses, type-checks, normalises and desugars a program in one call: the form the
/// verification and inference layers consume.
///
/// # Errors
///
/// Returns a human-readable error string if parsing or type checking fails.
pub fn frontend(source: &str) -> Result<Program, String> {
    let program = parse_program(source).map_err(|e| e.to_string())?;
    typecheck::check_program(&program).map_err(|e| e.to_string())?;
    // Loops first (so conditions are re-evaluated per recursive invocation), then ANF.
    let program = desugar::desugar_loops(&program);
    let program = normalize::normalize_program(&program);
    Ok(program)
}
