//! Translation of surface expressions into the logic layer (affine expressions and
//! Presburger formulas).
//!
//! Only the Presburger fragment is translatable: multiplication must have a constant
//! operand, and heap accesses / calls / non-determinism must have been eliminated by
//! the normaliser (or are handled specially by the verifier) before translation.

use crate::ast::{BinOp, Expr, UnOp};
use std::fmt;
use tnt_logic::{Constraint, Formula, Lin, Rational};

/// Errors raised when an expression falls outside the translatable fragment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PureError {
    /// A multiplication of two non-constant operands.
    NonLinear,
    /// A method call inside a pure position.
    Call(String),
    /// A heap access (field read or allocation) inside a pure position.
    HeapAccess,
    /// A non-deterministic value inside a pure position.
    Nondet,
    /// A boolean expression where an arithmetic one was expected, or vice versa.
    Sort(&'static str),
}

impl fmt::Display for PureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PureError::NonLinear => write!(f, "non-linear arithmetic is not supported"),
            PureError::Call(name) => write!(f, "method call `{name}` in pure position"),
            PureError::HeapAccess => write!(f, "heap access in pure position"),
            PureError::Nondet => write!(f, "non-deterministic value in pure position"),
            PureError::Sort(expected) => write!(f, "expected a {expected} expression"),
        }
    }
}

impl std::error::Error for PureError {}

/// The encoding used for `null` in the arithmetic domain (pointer variables are
/// abstracted to integers; `null` is 0 and allocated addresses are positive).
pub const NULL_VALUE: i128 = 0;

/// Translates an arithmetic expression into an affine expression.
///
/// # Errors
///
/// Returns a [`PureError`] if the expression is non-linear, reads the heap, calls a
/// method, is non-deterministic, or is a boolean.
pub fn expr_to_lin(expr: &Expr) -> Result<Lin, PureError> {
    match expr {
        Expr::Int(value) => Ok(Lin::constant(Rational::from(*value))),
        Expr::Null => Ok(Lin::constant(Rational::from(NULL_VALUE))),
        Expr::Var(name) => Ok(Lin::var(*name)),
        Expr::Unary(UnOp::Neg, inner) => Ok(expr_to_lin(inner)?.scale(-Rational::one())),
        Expr::Unary(UnOp::Not, _) => Err(PureError::Sort("arithmetic")),
        Expr::Binary(op, lhs, rhs) => {
            let l = expr_to_lin(lhs)?;
            let r = expr_to_lin(rhs)?;
            match op {
                BinOp::Add => Ok(l.add(&r)),
                BinOp::Sub => Ok(l.sub(&r)),
                BinOp::Mul => {
                    if l.is_constant() {
                        Ok(r.scale(l.constant_term()))
                    } else if r.is_constant() {
                        Ok(l.scale(r.constant_term()))
                    } else {
                        Err(PureError::NonLinear)
                    }
                }
                _ => Err(PureError::Sort("arithmetic")),
            }
        }
        Expr::Bool(_) => Err(PureError::Sort("arithmetic")),
        Expr::Call(name, _) => Err(PureError::Call(name.to_string())),
        Expr::Field(..) | Expr::New(..) => Err(PureError::HeapAccess),
        Expr::Nondet => Err(PureError::Nondet),
    }
}

/// Translates a boolean expression into a formula.
///
/// # Errors
///
/// Returns a [`PureError`] under the same conditions as [`expr_to_lin`].
pub fn expr_to_formula(expr: &Expr) -> Result<Formula, PureError> {
    match expr {
        Expr::Bool(true) => Ok(Formula::True),
        Expr::Bool(false) => Ok(Formula::False),
        Expr::Unary(UnOp::Not, inner) => Ok(expr_to_formula(inner)?.negate()),
        Expr::Unary(UnOp::Neg, _) => Err(PureError::Sort("boolean")),
        Expr::Var(name) => {
            // A bare boolean variable b is encoded as b != 0 (b ranges over {0, 1}).
            Ok(Constraint::ne(Lin::var(*name), Lin::zero()).into())
        }
        Expr::Binary(op, lhs, rhs) => match op {
            BinOp::And => Ok(Formula::and(vec![
                expr_to_formula(lhs)?,
                expr_to_formula(rhs)?,
            ])),
            BinOp::Or => Ok(Formula::or(vec![
                expr_to_formula(lhs)?,
                expr_to_formula(rhs)?,
            ])),
            BinOp::Eq => Ok(Constraint::eq(expr_to_lin(lhs)?, expr_to_lin(rhs)?).into()),
            BinOp::Ne => Ok(Constraint::ne(expr_to_lin(lhs)?, expr_to_lin(rhs)?).into()),
            BinOp::Lt => Ok(Constraint::lt(expr_to_lin(lhs)?, expr_to_lin(rhs)?).into()),
            BinOp::Le => Ok(Constraint::le(expr_to_lin(lhs)?, expr_to_lin(rhs)?).into()),
            BinOp::Gt => Ok(Constraint::gt(expr_to_lin(lhs)?, expr_to_lin(rhs)?).into()),
            BinOp::Ge => Ok(Constraint::ge(expr_to_lin(lhs)?, expr_to_lin(rhs)?).into()),
            BinOp::Add | BinOp::Sub | BinOp::Mul => Err(PureError::Sort("boolean")),
        },
        Expr::Int(_) | Expr::Null => Err(PureError::Sort("boolean")),
        Expr::Call(name, _) => Err(PureError::Call(name.to_string())),
        Expr::Field(..) | Expr::New(..) => Err(PureError::HeapAccess),
        Expr::Nondet => Err(PureError::Nondet),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use std::collections::BTreeMap;
    use tnt_logic::sat::is_sat;

    #[test]
    fn linear_arithmetic() {
        let lin = expr_to_lin(&parse_expr("2 * x - y + 3").unwrap()).unwrap();
        assert_eq!(lin.coeff("x"), Rational::from(2));
        assert_eq!(lin.coeff("y"), Rational::from(-1));
        assert_eq!(lin.constant_term(), Rational::from(3));
    }

    #[test]
    fn nonlinear_rejected() {
        assert_eq!(
            expr_to_lin(&parse_expr("x * y").unwrap()),
            Err(PureError::NonLinear)
        );
    }

    #[test]
    fn null_maps_to_zero() {
        let lin = expr_to_lin(&Expr::Null).unwrap();
        assert_eq!(lin.constant_term(), Rational::from(NULL_VALUE));
    }

    #[test]
    fn comparisons_and_connectives() {
        let f = expr_to_formula(&parse_expr("x >= 0 && (y < 0 || y == 3)").unwrap()).unwrap();
        let mut env = BTreeMap::new();
        env.insert("x".to_string(), 1);
        env.insert("y".to_string(), 3);
        assert!(f.eval(&env, 2));
        env.insert("y".to_string(), 1);
        assert!(!f.eval(&env, 2));
        assert!(is_sat(&f));
    }

    #[test]
    fn negation_and_booleans() {
        let f = expr_to_formula(&parse_expr("!(x > 0)").unwrap()).unwrap();
        let mut env = BTreeMap::new();
        env.insert("x".to_string(), 0);
        assert!(f.eval(&env, 2));
    }

    #[test]
    fn bare_boolean_variable() {
        let f = expr_to_formula(&parse_expr("b && x > 0").unwrap()).unwrap();
        let mut env = BTreeMap::new();
        env.insert("b".to_string(), 1);
        env.insert("x".to_string(), 1);
        assert!(f.eval(&env, 2));
        env.insert("b".to_string(), 0);
        assert!(!f.eval(&env, 2));
    }

    #[test]
    fn sort_errors() {
        assert!(matches!(
            expr_to_formula(&parse_expr("x + 1").unwrap()),
            Err(PureError::Sort(_))
        ));
        assert!(matches!(
            expr_to_lin(&parse_expr("x > 1").unwrap()),
            Err(PureError::Sort(_))
        ));
    }

    #[test]
    fn calls_and_heap_rejected() {
        assert!(matches!(
            expr_to_lin(&parse_expr("f(x)").unwrap()),
            Err(PureError::Call(_))
        ));
        assert!(matches!(
            expr_to_lin(&parse_expr("p.next").unwrap()),
            Err(PureError::HeapAccess)
        ));
        assert!(matches!(expr_to_lin(&Expr::Nondet), Err(PureError::Nondet)));
    }
}
