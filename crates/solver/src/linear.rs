//! Affine expressions and inequalities over named variables.
//!
//! These are the interchange types of the solver crate: the logic front-end converts its
//! Presburger atoms into [`Ineq`]s (all in `≥ 0` normal form) before invoking ranking
//! synthesis or Farkas implication checks.

use crate::rational::Rational;
use std::collections::BTreeMap;
use std::fmt;

/// An affine expression `Σ cᵢ·xᵢ + k` over named variables with rational coefficients.
///
/// # Examples
///
/// ```
/// use tnt_solver::{Lin, Rational};
/// let e = Lin::var("x").scale(Rational::from(2)).add(&Lin::constant(Rational::from(3)));
/// assert_eq!(e.coeff("x"), Rational::from(2));
/// assert_eq!(e.constant_term(), Rational::from(3));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Lin {
    coeffs: BTreeMap<String, Rational>,
    constant: Rational,
}

impl Lin {
    /// The zero expression.
    pub fn zero() -> Self {
        Lin::default()
    }

    /// A constant expression.
    pub fn constant(value: Rational) -> Self {
        Lin {
            coeffs: BTreeMap::new(),
            constant: value,
        }
    }

    /// The expression consisting of a single variable with coefficient one.
    pub fn var(name: impl Into<String>) -> Self {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(name.into(), Rational::one());
        Lin {
            coeffs,
            constant: Rational::zero(),
        }
    }

    /// Builds an expression from explicit terms and a constant.
    pub fn from_terms(
        terms: impl IntoIterator<Item = (String, Rational)>,
        constant: Rational,
    ) -> Self {
        let mut lin = Lin::constant(constant);
        for (v, c) in terms {
            lin.add_term(&v, c);
        }
        lin
    }

    /// Adds `coeff * var` to the expression in place.
    pub fn add_term(&mut self, var: &str, coeff: Rational) {
        if coeff.is_zero() {
            return;
        }
        let entry = self
            .coeffs
            .entry(var.to_string())
            .or_insert_with(Rational::zero);
        *entry += coeff;
        if entry.is_zero() {
            self.coeffs.remove(var);
        }
    }

    /// The coefficient of `var` (zero if absent).
    pub fn coeff(&self, var: &str) -> Rational {
        self.coeffs.get(var).copied().unwrap_or_else(Rational::zero)
    }

    /// The constant term.
    pub fn constant_term(&self) -> Rational {
        self.constant
    }

    /// Iterates over the non-zero `(variable, coefficient)` terms in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (&str, Rational)> + '_ {
        self.coeffs.iter().map(|(v, c)| (v.as_str(), *c))
    }

    /// The set of variables occurring with non-zero coefficient.
    pub fn vars(&self) -> impl Iterator<Item = &str> + '_ {
        self.coeffs.keys().map(|s| s.as_str())
    }

    /// Returns `true` if the expression is a constant (possibly zero).
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Pointwise sum of two expressions.
    pub fn add(&self, other: &Lin) -> Lin {
        let mut out = self.clone();
        out.constant += other.constant;
        for (v, c) in other.coeffs.iter() {
            out.add_term(v, *c);
        }
        out
    }

    /// Pointwise difference of two expressions.
    pub fn sub(&self, other: &Lin) -> Lin {
        self.add(&other.scale(-Rational::one()))
    }

    /// Adds a constant to the expression.
    pub fn add_const(&self, value: Rational) -> Lin {
        let mut out = self.clone();
        out.constant += value;
        out
    }

    /// Multiplies every coefficient and the constant by `factor`.
    pub fn scale(&self, factor: Rational) -> Lin {
        if factor.is_zero() {
            return Lin::zero();
        }
        Lin {
            coeffs: self
                .coeffs
                .iter()
                .map(|(v, c)| (v.clone(), *c * factor))
                .collect(),
            constant: self.constant * factor,
        }
    }

    /// Substitutes `var` by the expression `by`.
    pub fn substitute(&self, var: &str, by: &Lin) -> Lin {
        match self.coeffs.get(var).copied() {
            None => self.clone(),
            Some(c) => {
                let mut out = self.clone();
                out.coeffs.remove(var);
                out.add(&by.scale(c))
            }
        }
    }

    /// Renames a variable (no-op if absent).
    pub fn rename(&self, from: &str, to: &str) -> Lin {
        self.substitute(from, &Lin::var(to))
    }

    /// Evaluates the expression under an assignment (missing variables default to zero).
    pub fn eval(&self, assignment: &BTreeMap<String, Rational>) -> Rational {
        let mut total = self.constant;
        for (v, c) in self.coeffs.iter() {
            let value = assignment.get(v).copied().unwrap_or_else(Rational::zero);
            total += *c * value;
        }
        total
    }
}

impl fmt::Display for Lin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.coeffs.iter() {
            if first {
                if *c == Rational::one() {
                    write!(f, "{}", v)?;
                } else if *c == -Rational::one() {
                    write!(f, "-{}", v)?;
                } else {
                    write!(f, "{}*{}", c, v)?;
                }
                first = false;
            } else if c.is_negative() {
                if *c == -Rational::one() {
                    write!(f, " - {}", v)?;
                } else {
                    write!(f, " - {}*{}", c.abs(), v)?;
                }
            } else if *c == Rational::one() {
                write!(f, " + {}", v)?;
            } else {
                write!(f, " + {}*{}", c, v)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant.is_positive() {
            write!(f, " + {}", self.constant)?;
        } else if self.constant.is_negative() {
            write!(f, " - {}", self.constant.abs())?;
        }
        Ok(())
    }
}

/// A linear inequality in normal form: the wrapped expression is constrained to be `≥ 0`.
///
/// # Examples
///
/// ```
/// use tnt_solver::{Ineq, Lin, Rational};
/// // x - 3 >= 0, i.e. x >= 3
/// let ineq = Ineq::ge_zero(Lin::var("x").add_const(Rational::from(-3)));
/// assert_eq!(ineq.expr().coeff("x"), Rational::one());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ineq {
    expr: Lin,
}

impl Ineq {
    /// Constrains `expr ≥ 0`.
    pub fn ge_zero(expr: Lin) -> Self {
        Ineq { expr }
    }

    /// Constrains `lhs ≥ rhs`.
    pub fn ge(lhs: Lin, rhs: Lin) -> Self {
        Ineq::ge_zero(lhs.sub(&rhs))
    }

    /// Constrains `lhs ≤ rhs`.
    pub fn le(lhs: Lin, rhs: Lin) -> Self {
        Ineq::ge_zero(rhs.sub(&lhs))
    }

    /// Encodes `expr = 0` as the pair of inequalities `expr ≥ 0` and `-expr ≥ 0`.
    pub fn eq_zero(expr: Lin) -> [Ineq; 2] {
        [
            Ineq::ge_zero(expr.clone()),
            Ineq::ge_zero(expr.scale(-Rational::one())),
        ]
    }

    /// The underlying affine expression (constrained to be non-negative).
    pub fn expr(&self) -> &Lin {
        &self.expr
    }

    /// Substitutes a variable by an expression on the underlying expression.
    pub fn substitute(&self, var: &str, by: &Lin) -> Ineq {
        Ineq::ge_zero(self.expr.substitute(var, by))
    }

    /// Evaluates whether the inequality holds under an assignment.
    pub fn holds(&self, assignment: &BTreeMap<String, Rational>) -> bool {
        !self.expr.eval(assignment).is_negative()
    }
}

impl fmt::Display for Ineq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} >= 0", self.expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn build_and_query() {
        let e = Lin::from_terms(
            vec![
                ("x".to_string(), Rational::from(2)),
                ("y".to_string(), Rational::from(-1)),
            ],
            Rational::from(5),
        );
        assert_eq!(e.coeff("x"), Rational::from(2));
        assert_eq!(e.coeff("y"), Rational::from(-1));
        assert_eq!(e.coeff("z"), Rational::zero());
        assert_eq!(e.constant_term(), Rational::from(5));
        assert_eq!(e.vars().count(), 2);
    }

    #[test]
    fn cancellation_removes_terms() {
        let mut e = Lin::var("x");
        e.add_term("x", -Rational::one());
        assert!(e.is_constant());
        assert_eq!(e.coeff("x"), Rational::zero());
    }

    #[test]
    fn add_sub_scale() {
        let x = Lin::var("x");
        let y = Lin::var("y");
        let e = x.add(&y).scale(Rational::from(3)).sub(&x);
        assert_eq!(e.coeff("x"), Rational::from(2));
        assert_eq!(e.coeff("y"), Rational::from(3));
    }

    #[test]
    fn substitution() {
        // 2x + y with x := y + 1 gives 3y + 2
        let e = Lin::var("x").scale(Rational::from(2)).add(&Lin::var("y"));
        let by = Lin::var("y").add_const(Rational::one());
        let s = e.substitute("x", &by);
        assert_eq!(s.coeff("y"), Rational::from(3));
        assert_eq!(s.constant_term(), Rational::from(2));
        assert_eq!(s.coeff("x"), Rational::zero());
    }

    #[test]
    fn rename_variable() {
        let e = Lin::var("x").add(&Lin::var("y"));
        let r = e.rename("x", "z");
        assert_eq!(r.coeff("z"), Rational::one());
        assert_eq!(r.coeff("x"), Rational::zero());
    }

    #[test]
    fn evaluation() {
        let e = Lin::from_terms(
            vec![("x".to_string(), Rational::from(2))],
            Rational::from(-3),
        );
        let mut env = BTreeMap::new();
        env.insert("x".to_string(), Rational::from(5));
        assert_eq!(e.eval(&env), Rational::from(7));
    }

    #[test]
    fn ineq_constructors() {
        let ge = Ineq::ge(Lin::var("x"), Lin::constant(Rational::from(3)));
        assert_eq!(ge.expr().constant_term(), Rational::from(-3));
        let le = Ineq::le(Lin::var("x"), Lin::constant(Rational::from(3)));
        assert_eq!(le.expr().coeff("x"), -Rational::one());
        let [a, b] = Ineq::eq_zero(Lin::var("x"));
        assert_eq!(a.expr().coeff("x"), Rational::one());
        assert_eq!(b.expr().coeff("x"), -Rational::one());
    }

    #[test]
    fn ineq_holds() {
        let ineq = Ineq::ge(Lin::var("x"), Lin::constant(Rational::from(3)));
        let mut env = BTreeMap::new();
        env.insert("x".to_string(), Rational::from(3));
        assert!(ineq.holds(&env));
        env.insert("x".to_string(), Rational::from(2));
        assert!(!ineq.holds(&env));
    }

    #[test]
    fn display_formatting() {
        let e = Lin::from_terms(
            vec![
                ("x".to_string(), Rational::from(1)),
                ("y".to_string(), Rational::from(-2)),
            ],
            Rational::from(3),
        );
        assert_eq!(e.to_string(), "x - 2*y + 3");
        assert_eq!(Lin::zero().to_string(), "0");
    }

    const VARS: [&str; 4] = ["a", "b", "c", "d"];

    #[test]
    fn prop_add_is_pointwise() {
        let mut rng = SmallRng::seed_from_u64(0x11AE01);
        for _ in 0..256 {
            let a = testgen::lin(&mut rng, &VARS, -20..20);
            let b = testgen::lin(&mut rng, &VARS, -20..20);
            let env = testgen::env(&mut rng, &VARS, -20..20);
            assert_eq!(a.add(&b).eval(&env), a.eval(&env) + b.eval(&env));
        }
    }

    #[test]
    fn prop_scale_is_pointwise() {
        let mut rng = SmallRng::seed_from_u64(0x11AE02);
        for _ in 0..256 {
            let a = testgen::lin(&mut rng, &VARS, -20..20);
            let k = Rational::from(rng.gen_range(-10i128..10));
            let env = testgen::env(&mut rng, &VARS, -20..20);
            assert_eq!(a.scale(k).eval(&env), a.eval(&env) * k);
        }
    }

    #[test]
    fn prop_substitute_respects_eval() {
        let mut rng = SmallRng::seed_from_u64(0x11AE03);
        for _ in 0..256 {
            // a[x := b] evaluated under env equals a evaluated under env[x := eval(b)].
            let a = testgen::lin(&mut rng, &VARS, -20..20);
            let b = testgen::lin(&mut rng, &VARS, -20..20);
            let env = testgen::env(&mut rng, &VARS, -20..20);
            let substituted = a.substitute("a", &b).eval(&env);
            let mut env2 = env.clone();
            env2.insert("a".to_string(), b.eval(&env));
            assert_eq!(substituted, a.eval(&env2));
        }
    }
}
