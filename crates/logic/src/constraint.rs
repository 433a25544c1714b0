//! Linear integer arithmetic atoms in canonical form.
//!
//! Every atom is normalised to one of three canonical shapes over an affine expression
//! `e` with integer-valued variables:
//!
//! * `e ≥ 0` ([`RelOp::Ge`]),
//! * `e = 0` ([`RelOp::Eq`]),
//! * `e ≠ 0` ([`RelOp::Ne`]).
//!
//! Strict comparisons are folded away using integrality (`e > 0 ⇔ e − 1 ≥ 0`), which is
//! what makes the later rational relaxation in [`crate::sat`] tight on the benchmark
//! fragment.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use tnt_solver::rational::gcd;
use tnt_solver::{Ineq, Lin, Rational};

/// Canonical relational operator of a [`Constraint`] (always compared against zero).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RelOp {
    /// `expr ≥ 0`
    Ge,
    /// `expr = 0`
    Eq,
    /// `expr ≠ 0`
    Ne,
}

impl RelOp {
    /// Whether `value (op) 0` holds.
    pub(crate) fn compares(self, value: Rational) -> bool {
        match self {
            RelOp::Ge => !value.is_negative(),
            RelOp::Eq => value.is_zero(),
            RelOp::Ne => !value.is_zero(),
        }
    }
}

/// A canonical linear integer constraint `expr (≥|=|≠) 0`.
///
/// The expression is shared: cloning a constraint (as the DNF And-distribution
/// does for every atom of every product cube) copies a pointer, not the
/// coefficient map.
///
/// # Examples
///
/// ```
/// use tnt_logic::{Constraint, RelOp};
/// use tnt_solver::Lin;
///
/// let c = Constraint::lt(Lin::var("x"), Lin::zero()); // x < 0
/// assert_eq!(c.op(), RelOp::Ge);                      // canonicalised to -x - 1 >= 0
/// assert!(c.expr().coeff("x").is_negative());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Constraint {
    expr: Arc<Lin>,
    op: RelOp,
}

impl Constraint {
    /// `lhs ≥ rhs`
    pub fn ge(lhs: Lin, rhs: Lin) -> Self {
        Constraint::from_parts(lhs.sub(&rhs), RelOp::Ge)
    }

    /// `lhs ≤ rhs`
    pub fn le(lhs: Lin, rhs: Lin) -> Self {
        Constraint::ge(rhs, lhs)
    }

    /// `lhs > rhs` (canonicalised to `lhs − rhs − 1 ≥ 0` by integrality)
    pub fn gt(lhs: Lin, rhs: Lin) -> Self {
        Constraint::from_parts(lhs.sub(&rhs).add_const(-Rational::one()), RelOp::Ge)
    }

    /// `lhs < rhs` (canonicalised to `rhs − lhs − 1 ≥ 0` by integrality)
    pub fn lt(lhs: Lin, rhs: Lin) -> Self {
        Constraint::gt(rhs, lhs)
    }

    /// `lhs = rhs`
    pub fn eq(lhs: Lin, rhs: Lin) -> Self {
        Constraint::from_parts(lhs.sub(&rhs), RelOp::Eq)
    }

    /// `lhs ≠ rhs`
    pub fn ne(lhs: Lin, rhs: Lin) -> Self {
        Constraint::from_parts(lhs.sub(&rhs), RelOp::Ne)
    }

    /// Builds a constraint directly from a canonical expression and operator.
    pub fn from_parts(expr: Lin, op: RelOp) -> Self {
        Constraint {
            expr: Arc::new(expr),
            op,
        }
    }

    /// The canonical expression compared against zero.
    pub fn expr(&self) -> &Lin {
        &self.expr
    }

    /// The canonical operator.
    pub fn op(&self) -> RelOp {
        self.op
    }

    /// Free variables of the constraint.
    pub fn vars(&self) -> impl Iterator<Item = &str> + '_ {
        self.expr.vars()
    }

    /// Substitutes a variable by an affine expression.
    pub fn substitute(&self, var: &str, by: &Lin) -> Constraint {
        Constraint::from_parts(self.expr.substitute(var, by), self.op)
    }

    /// Renames a variable.
    pub fn rename(&self, from: &str, to: &str) -> Constraint {
        Constraint::from_parts(self.expr.rename(from, to), self.op)
    }

    /// The lcm `L` of the expression's denominators, the first step of the
    /// integer normal form: `L·e` is integer-valued on integer points and has
    /// the sign of `e`.
    fn integral_scale(&self) -> Rational {
        Rational::from(denominator_lcm(
            self.expr
                .terms()
                .map(|(_, c)| c)
                .chain([self.expr.constant_term()]),
        ))
    }

    /// The logical negation of the constraint over the integers, as a
    /// disjunction of constraints (a single one except for the negation of an
    /// equality).
    pub fn negate(&self) -> Vec<Constraint> {
        match self.op {
            // ¬(e ≥ 0)  ⇔  L·e ≤ -1  ⇔  -L·e - 1 ≥ 0, with L·e integral
            RelOp::Ge => vec![Constraint::from_parts(
                self.expr
                    .scale(-self.integral_scale())
                    .add_const(-Rational::one()),
                RelOp::Ge,
            )],
            // ¬(e = 0)  ⇔  e ≠ 0
            RelOp::Eq => vec![Constraint {
                expr: Arc::clone(&self.expr),
                op: RelOp::Ne,
            }],
            // ¬(e ≠ 0)  ⇔  e = 0
            RelOp::Ne => vec![Constraint {
                expr: Arc::clone(&self.expr),
                op: RelOp::Eq,
            }],
        }
    }

    /// Splits an `≠` atom into its two strict cases over the integers,
    /// `L·e ≥ 1` and `−L·e ≥ 1`, with `L·e` the expression made integral.
    /// Returns `None` for other operators.
    pub fn split_ne(&self) -> Option<[Constraint; 2]> {
        if self.op != RelOp::Ne {
            return None;
        }
        let scale = self.integral_scale();
        Some([
            Constraint::from_parts(
                self.expr.scale(scale).add_const(-Rational::one()),
                RelOp::Ge,
            ),
            Constraint::from_parts(
                self.expr.scale(-scale).add_const(-Rational::one()),
                RelOp::Ge,
            ),
        ])
    }

    /// Evaluates the constraint under an integer assignment (missing variables are 0).
    pub fn holds(&self, assignment: &BTreeMap<String, i128>) -> bool {
        let env: BTreeMap<String, Rational> = assignment
            .iter()
            .map(|(k, v)| (k.clone(), Rational::from(*v)))
            .collect();
        self.op.compares(self.expr.eval(&env))
    }

    /// If the constraint has no variables, evaluates it to a boolean.
    pub fn const_eval(&self) -> Option<bool> {
        if !self.expr.is_constant() {
            return None;
        }
        Some(self.op.compares(self.expr.constant_term()))
    }

    /// Integer normalisation: divides the expression by the gcd of its variable
    /// coefficients and tightens the constant accordingly; the satisfiability
    /// search asserts the same numbers. Returns `None` when the normalisation
    /// discovers the constraint is unsatisfiable (e.g. `2x = 1`), and
    /// `Some(normalised)` otherwise.
    ///
    /// All expressions in this crate have integer coefficients by construction of the
    /// front-end; rational coefficients are first scaled to integers.
    pub fn normalise(&self) -> Option<Constraint> {
        let mut terms: Vec<(&str, Rational)> = self.expr.terms().collect();
        let constant = integer_form(self.op, &mut terms, self.expr.constant_term())?;
        let expr = Lin::from_terms(terms.into_iter().map(|(v, c)| (v.to_string(), c)), constant);
        Some(Constraint::from_parts(expr, self.op))
    }

    /// Converts the constraint into solver inequalities (`≥ 0` form). `≠` atoms cannot
    /// be represented as a conjunction of inequalities and yield `None`.
    pub fn to_ineqs(&self) -> Option<Vec<Ineq>> {
        match self.op {
            RelOp::Ge => Some(vec![Ineq::ge_zero(Lin::clone(&self.expr))]),
            RelOp::Eq => Some(Ineq::eq_zero(Lin::clone(&self.expr)).to_vec()),
            RelOp::Ne => None,
        }
    }
}

/// The integer normal form of the atom `Σ terms + constant (op) 0`, computed
/// in place on the terms; returns the normal form's constant.
///
/// Coefficients and constant are scaled by the lcm of their denominators.
/// Then, unless `op` is `≠` or no variable is left, the coefficients are
/// divided by their gcd `g`: an inequality's constant is rounded down
/// (`g·e + k ≥ 0 ⇔ e + ⌊k/g⌋ ≥ 0` over the integers), and an equality whose
/// constant `g` does not divide has no integer solution, so `None` is
/// returned.
pub(crate) fn integer_form<T>(
    op: RelOp,
    terms: &mut [(T, Rational)],
    constant: Rational,
) -> Option<Rational> {
    let denominators = denominator_lcm(terms.iter().map(|(_, c)| *c).chain([constant]));
    let mut constant = constant;
    if denominators != 1 {
        let scale = Rational::from(denominators);
        for (_, c) in terms.iter_mut() {
            *c = *c * scale;
        }
        constant = constant * scale;
    }
    let g = terms.iter().fold(0, |g, (_, c)| gcd(g, c.numer()));
    if g == 0 || op == RelOp::Ne {
        return Some(constant);
    }
    if op == RelOp::Eq && constant.numer() % g != 0 {
        return None;
    }
    if g != 1 {
        for (_, c) in terms.iter_mut() {
            *c = Rational::new(c.numer(), g);
        }
        constant = match op {
            RelOp::Ge => Rational::from(Rational::new(constant.numer(), g).floor()),
            _ => Rational::new(constant.numer(), g),
        };
    }
    Some(constant)
}

/// The lcm of the denominators of `values`.
fn denominator_lcm(values: impl Iterator<Item = Rational>) -> i128 {
    values.fold(1, |l, v| lcm(l, v.denom()))
}

fn lcm(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        0
    } else {
        (a / gcd(a, b)) * b
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            RelOp::Ge => write!(f, "{} >= 0", self.expr),
            RelOp::Eq => write!(f, "{} = 0", self.expr),
            RelOp::Ne => write!(f, "{} != 0", self.expr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula;
    use crate::testgen;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn n(value: i128) -> Lin {
        Lin::constant(Rational::from(value))
    }

    #[test]
    fn strict_comparisons_are_tightened() {
        let c = Constraint::gt(Lin::var("x"), n(3)); // x > 3 ⇔ x - 4 >= 0
        assert_eq!(c.op(), RelOp::Ge);
        assert_eq!(c.expr().constant_term(), Rational::from(-4));
        let c = Constraint::lt(Lin::var("x"), n(0)); // x < 0 ⇔ -x - 1 >= 0
        assert_eq!(c.expr().coeff("x"), Rational::from(-1));
        assert_eq!(c.expr().constant_term(), Rational::from(-1));
    }

    #[test]
    fn negation_roundtrip() {
        let c = Constraint::ge(Lin::var("x"), n(0));
        let neg = c.negate();
        assert_eq!(neg.len(), 1);
        // ¬(x ≥ 0) = (-x - 1 ≥ 0) = (x ≤ -1); negating again gives x ≥ 0.
        let back = neg[0].negate();
        assert_eq!(back[0], c);
    }

    #[test]
    fn negate_equality_gives_ne() {
        let c = Constraint::eq(Lin::var("x"), n(5));
        let neg = c.negate();
        assert_eq!(neg[0].op(), RelOp::Ne);
        assert_eq!(neg[0].negate()[0].op(), RelOp::Eq);
    }

    #[test]
    fn split_ne_cases() {
        let c = Constraint::ne(Lin::var("x"), n(0));
        let [pos, neg] = c.split_ne().unwrap();
        let mut env = BTreeMap::new();
        env.insert("x".to_string(), 1);
        assert!(pos.holds(&env) && !neg.holds(&env));
        env.insert("x".to_string(), -1);
        assert!(!pos.holds(&env) && neg.holds(&env));
        assert!(Constraint::ge(Lin::var("x"), n(0)).split_ne().is_none());
    }

    #[test]
    fn const_eval() {
        assert_eq!(Constraint::ge(n(3), n(0)).const_eval(), Some(true));
        assert_eq!(Constraint::ge(n(-1), n(0)).const_eval(), Some(false));
        assert_eq!(Constraint::eq(n(0), n(0)).const_eval(), Some(true));
        assert_eq!(Constraint::ne(n(0), n(0)).const_eval(), Some(false));
        assert_eq!(Constraint::ge(Lin::var("x"), n(0)).const_eval(), None);
    }

    #[test]
    fn normalise_divides_by_gcd() {
        // 2x - 3 >= 0 over the integers means x >= 2, i.e. x - 2 >= 0.
        let c = Constraint::ge(Lin::var("x").scale(Rational::from(2)), n(3));
        let norm = c.normalise().unwrap();
        assert_eq!(norm.expr().coeff("x"), Rational::one());
        assert_eq!(norm.expr().constant_term(), Rational::from(-2));
    }

    #[test]
    fn normalise_detects_parity_conflict() {
        // 2x = 1 has no integer solution.
        let c = Constraint::eq(Lin::var("x").scale(Rational::from(2)), n(1));
        assert!(c.normalise().is_none());
    }

    #[test]
    fn substitution_and_rename() {
        let c = Constraint::ge(Lin::var("x"), Lin::var("y"));
        let s = c.substitute("x", &Lin::var("y").add_const(Rational::from(2)));
        assert_eq!(s.const_eval(), Some(true));
        assert_eq!(s.expr().coeff("y"), Rational::zero());
        assert_eq!(s.expr().constant_term(), Rational::from(2));
        let r = c.rename("y", "z");
        assert_eq!(r.expr().coeff("z"), Rational::from(-1));
    }

    #[test]
    fn to_ineqs_shapes() {
        assert_eq!(
            Constraint::ge(Lin::var("x"), n(0))
                .to_ineqs()
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            Constraint::eq(Lin::var("x"), n(0))
                .to_ineqs()
                .unwrap()
                .len(),
            2
        );
        assert!(Constraint::ne(Lin::var("x"), n(0)).to_ineqs().is_none());
    }

    const VARS: [&str; 3] = ["x", "y", "z"];
    const ALL_OPS: [u8; 6] = [0, 1, 2, 3, 4, 5];

    #[test]
    fn prop_negation_flips_truth() {
        let mut rng = SmallRng::seed_from_u64(0xC0501);
        for _ in 0..512 {
            let c = testgen::constraint(&mut rng, &VARS, &ALL_OPS);
            let env = testgen::int_env(&mut rng, &VARS, -30..30);
            let negated = c.negate();
            let holds = c.holds(&env);
            let neg_holds = negated.iter().any(|d| d.holds(&env));
            assert_eq!(
                holds, !neg_holds,
                "negation did not flip {c:?} under {env:?}"
            );
        }
    }

    #[test]
    fn prop_normalise_preserves_integer_truth() {
        let mut rng = SmallRng::seed_from_u64(0xC0502);
        for _ in 0..512 {
            let c = testgen::constraint(&mut rng, &VARS, &ALL_OPS);
            let env = testgen::int_env(&mut rng, &VARS, -30..30);
            match c.normalise() {
                None => assert!(!c.holds(&env), "{c:?} normalised away but holds"),
                Some(norm) => assert_eq!(norm.holds(&env), c.holds(&env), "{c:?} vs {norm:?}"),
            }
        }
    }

    /// A random affine expression over `x`, `y` with fractional coefficients
    /// and constant.
    fn fractional_lin(rng: &mut SmallRng) -> Lin {
        let fraction =
            |rng: &mut SmallRng| Rational::new(rng.gen_range(-6i128..7), rng.gen_range(1i128..5));
        let mut lin = Lin::constant(fraction(rng));
        for v in ["x", "y"] {
            if rng.gen_bool(0.7) {
                lin.add_term(v, fraction(rng));
            }
        }
        lin
    }

    #[test]
    fn prop_split_ne_is_exclusive_cover() {
        let mut rng = SmallRng::seed_from_u64(0xC0503);
        for _ in 0..1024 {
            let env = testgen::int_env(&mut rng, &VARS, -30..30);
            let c = Constraint::ne(fractional_lin(&mut rng), Lin::zero());
            let [a, b] = c.split_ne().unwrap();
            assert_eq!(
                c.holds(&env),
                a.holds(&env) || b.holds(&env),
                "{c} under {env:?}"
            );
            assert!(!(a.holds(&env) && b.holds(&env)), "{c} under {env:?}");
        }
    }

    /// On fractional atoms too, an integer point satisfies exactly one of an
    /// atom and its negation.
    #[test]
    fn prop_negate_is_exclusive_cover() {
        let mut rng = SmallRng::seed_from_u64(0xC0504);
        for _ in 0..1024 {
            let env = testgen::int_env(&mut rng, &VARS, -30..30);
            let lin = fractional_lin(&mut rng);
            let c = match rng.gen_range(0u32..3) {
                0 => Constraint::ge(lin, Lin::zero()),
                1 => Constraint::eq(lin, Lin::zero()),
                _ => Constraint::ne(lin, Lin::zero()),
            };
            let negated = c.negate();
            assert_ne!(
                c.holds(&env),
                negated.iter().any(|d| d.holds(&env)),
                "negation of {c} under {env:?}"
            );
        }
    }

    #[test]
    fn negating_a_fractional_atom_keeps_integer_solutions() {
        // ¬(x/2 ≥ 0) ∧ x = −1 holds at x = −1.
        let half_x = Lin::var("x").scale(Rational::new(1, 2));
        let f = Formula::and(vec![
            Formula::from(Constraint::ge(half_x, Lin::zero())).negate(),
            Constraint::eq(Lin::var("x"), n(-1)).into(),
        ]);
        assert!(crate::sat::is_sat(&f));
        // ¬(x ≥ −1/2) ∧ x = −1 holds at x = −1.
        let f = Formula::and(vec![
            Formula::from(Constraint::ge(
                Lin::var("x"),
                Lin::constant(Rational::new(-1, 2)),
            ))
            .negate(),
            Constraint::eq(Lin::var("x"), n(-1)).into(),
        ]);
        assert!(crate::sat::is_sat(&f));
    }

    #[test]
    fn splitting_a_fractional_ne_keeps_integer_solutions() {
        // x/2 ≠ 1 ∧ x = 3 holds at x = 3, so some DNF cube is satisfiable.
        let half_x = Lin::var("x").scale(Rational::new(1, 2));
        let f = Formula::and(vec![
            Constraint::ne(half_x, n(1)).into(),
            Constraint::eq(Lin::var("x"), n(3)).into(),
        ]);
        assert!(crate::dnf::to_dnf(&f).iter().any(crate::sat::cube_sat));
    }
}
