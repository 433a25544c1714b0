//! Boolean structure over linear integer constraints.

use crate::constraint::Constraint;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use tnt_solver::Lin;

/// A (possibly quantified) formula of linear integer arithmetic.
///
/// This corresponds to the pure fragment `π` of the paper's specification language
/// (Fig. 2): boolean combinations of linear constraints with existential quantifiers.
///
/// # Examples
///
/// ```
/// use tnt_logic::{Constraint, Formula};
/// use tnt_solver::Lin;
///
/// let f = Formula::and(vec![
///     Constraint::ge(Lin::var("x"), Lin::zero()).into(),
///     Constraint::lt(Lin::var("y"), Lin::zero()).into(),
/// ]);
/// assert_eq!(f.free_vars().len(), 2);
/// assert!(tnt_logic::sat::is_sat(&f));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Formula {
    /// The trivially true formula.
    True,
    /// The trivially false formula.
    False,
    /// A linear constraint.
    Atom(Constraint),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
    /// Negation.
    Not(Box<Formula>),
    /// Existential quantification over the listed variables.
    Exists(Vec<String>, Box<Formula>),
}

impl From<Constraint> for Formula {
    fn from(value: Constraint) -> Self {
        Formula::Atom(value)
    }
}

impl Formula {
    /// Smart conjunction: flattens nested conjunctions and drops `true` units.
    pub fn and(parts: Vec<Formula>) -> Formula {
        let mut flat = Vec::new();
        for p in parts {
            match p {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::True,
            1 => flat.pop().expect("len checked"),
            _ => Formula::And(flat),
        }
    }

    /// Smart binary conjunction.
    pub fn and2(self, other: Formula) -> Formula {
        Formula::and(vec![self, other])
    }

    /// Smart disjunction: flattens nested disjunctions and drops `false` units.
    pub fn or(parts: Vec<Formula>) -> Formula {
        let mut flat = Vec::new();
        for p in parts {
            match p {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::False,
            1 => flat.pop().expect("len checked"),
            _ => Formula::Or(flat),
        }
    }

    /// Smart negation (eliminates double negation and constant operands).
    pub fn negate(self) -> Formula {
        match self {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            other => Formula::Not(Box::new(other)),
        }
    }

    /// The (classical) implication `self ⇒ other`, encoded as `¬self ∨ other`.
    pub fn implies(self, other: Formula) -> Formula {
        Formula::or(vec![self.negate(), other])
    }

    /// Existential quantification (no-op for an empty variable list).
    pub fn exists(vars: Vec<String>, body: Formula) -> Formula {
        if vars.is_empty() {
            body
        } else {
            Formula::Exists(vars, Box::new(body))
        }
    }

    /// Returns `true` if the formula is syntactically `True`.
    pub fn is_true(&self) -> bool {
        matches!(self, Formula::True)
    }

    /// Returns `true` if the formula is syntactically `False`.
    pub fn is_false(&self) -> bool {
        matches!(self, Formula::False)
    }

    /// The set of free variables.
    pub fn free_vars(&self) -> BTreeSet<String> {
        fn go(f: &Formula, bound: &mut Vec<String>, out: &mut BTreeSet<String>) {
            match f {
                Formula::True | Formula::False => {}
                Formula::Atom(c) => {
                    for v in c.vars() {
                        if !bound.iter().any(|b| b == v) {
                            out.insert(v.to_string());
                        }
                    }
                }
                Formula::And(parts) | Formula::Or(parts) => {
                    for p in parts {
                        go(p, bound, out);
                    }
                }
                Formula::Not(inner) => go(inner, bound, out),
                Formula::Exists(vars, body) => {
                    let len = bound.len();
                    bound.extend(vars.iter().cloned());
                    go(body, bound, out);
                    bound.truncate(len);
                }
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut Vec::new(), &mut out);
        out
    }

    /// Capture-avoiding substitution of a free variable by an affine expression.
    ///
    /// The formulas manipulated by the inference engine use globally fresh bound
    /// variables, so a bound occurrence of `var` simply shields the substitution.
    pub fn substitute(&self, var: &str, by: &Lin) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(c) => Formula::Atom(c.substitute(var, by)),
            Formula::And(parts) => {
                Formula::and(parts.iter().map(|p| p.substitute(var, by)).collect())
            }
            Formula::Or(parts) => {
                Formula::or(parts.iter().map(|p| p.substitute(var, by)).collect())
            }
            Formula::Not(inner) => inner.substitute(var, by).negate(),
            Formula::Exists(vars, body) => {
                if vars.iter().any(|v| v == var) {
                    Formula::Exists(vars.clone(), body.clone())
                } else {
                    Formula::exists(vars.clone(), body.substitute(var, by))
                }
            }
        }
    }

    /// Renames a free variable.
    pub fn rename(&self, from: &str, to: &str) -> Formula {
        self.substitute(from, &Lin::var(to))
    }

    /// Evaluates the formula under a total integer assignment (missing variables are 0).
    ///
    /// Existential quantifiers are evaluated by a small bounded search over the range
    /// `-bound ..= bound` for each quantified variable; this is only used by tests and
    /// diagnostics, never by the inference engine itself.
    pub fn eval(&self, assignment: &BTreeMap<String, i128>, bound: i128) -> bool {
        match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Atom(c) => c.holds(assignment),
            Formula::And(parts) => parts.iter().all(|p| p.eval(assignment, bound)),
            Formula::Or(parts) => parts.iter().any(|p| p.eval(assignment, bound)),
            Formula::Not(inner) => !inner.eval(assignment, bound),
            Formula::Exists(vars, body) => {
                fn search(
                    vars: &[String],
                    body: &Formula,
                    assignment: &mut BTreeMap<String, i128>,
                    bound: i128,
                ) -> bool {
                    match vars.split_first() {
                        None => body.eval(assignment, bound),
                        Some((v, rest)) => {
                            let saved = assignment.get(v).copied();
                            for candidate in -bound..=bound {
                                assignment.insert(v.clone(), candidate);
                                if search(rest, body, assignment, bound) {
                                    match saved {
                                        Some(old) => assignment.insert(v.clone(), old),
                                        None => assignment.remove(v),
                                    };
                                    return true;
                                }
                            }
                            match saved {
                                Some(old) => assignment.insert(v.clone(), old),
                                None => assignment.remove(v),
                            };
                            false
                        }
                    }
                }
                let mut scratch = assignment.clone();
                search(vars, body, &mut scratch, bound)
            }
        }
    }

    /// Conjunction of the formula with another (builder-style convenience).
    pub fn with(self, other: impl Into<Formula>) -> Formula {
        self.and2(other.into())
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Atom(c) => write!(f, "{c}"),
            Formula::And(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Formula::Or(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Formula::Not(inner) => write!(f, "!({inner})"),
            Formula::Exists(vars, body) => {
                write!(f, "(exists {}. {})", vars.join(","), body)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::testgen;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tnt_solver::Rational;

    fn x_ge(k: i128) -> Formula {
        Constraint::ge(Lin::var("x"), Lin::constant(Rational::from(k))).into()
    }

    #[test]
    fn smart_constructors_flatten() {
        let f = Formula::and(vec![
            x_ge(0),
            Formula::and(vec![x_ge(1), Formula::True]),
            Formula::True,
        ]);
        match &f {
            Formula::And(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected flattened And, got {other}"),
        }
        assert_eq!(Formula::and(vec![]), Formula::True);
        assert_eq!(Formula::or(vec![]), Formula::False);
        assert_eq!(Formula::and(vec![Formula::False, x_ge(0)]), Formula::False);
        assert_eq!(Formula::or(vec![Formula::True, x_ge(0)]), Formula::True);
    }

    #[test]
    fn double_negation_removed() {
        let f = x_ge(0).negate().negate();
        assert_eq!(f, x_ge(0));
    }

    #[test]
    fn free_vars_respect_binders() {
        let inner = Formula::and(vec![
            Constraint::ge(Lin::var("x"), Lin::var("y")).into(),
            Constraint::ge(Lin::var("z"), Lin::zero()).into(),
        ]);
        let f = Formula::exists(vec!["y".to_string()], inner);
        let fv = f.free_vars();
        assert!(fv.contains("x") && fv.contains("z") && !fv.contains("y"));
    }

    #[test]
    fn substitution_shielded_by_binder() {
        let body: Formula = Constraint::ge(Lin::var("x"), Lin::zero()).into();
        let f = Formula::exists(vec!["x".to_string()], body.clone());
        let g = f.substitute("x", &Lin::constant(Rational::from(5)));
        assert_eq!(f, g);
        let h = body.substitute("x", &Lin::constant(Rational::from(5)));
        assert_eq!(
            h,
            Formula::Atom(Constraint::ge(
                Lin::constant(Rational::from(5)),
                Lin::zero(),
            ))
        );
    }

    #[test]
    fn eval_with_exists() {
        // exists d. x = 2*d  (x is even)
        let body = Constraint::eq(Lin::var("x"), Lin::var("d").scale(Rational::from(2)));
        let f = Formula::exists(vec!["d".to_string()], body.into());
        let mut env = BTreeMap::new();
        env.insert("x".to_string(), 4);
        assert!(f.eval(&env, 10));
        env.insert("x".to_string(), 3);
        assert!(!f.eval(&env, 10));
    }

    #[test]
    fn implication_encoding() {
        let f = x_ge(5).implies(x_ge(0));
        let mut env = BTreeMap::new();
        env.insert("x".to_string(), 7);
        assert!(f.eval(&env, 4));
        env.insert("x".to_string(), -3);
        assert!(f.eval(&env, 4)); // antecedent false
    }

    #[test]
    fn display_is_readable() {
        let f = Formula::and(vec![x_ge(0), x_ge(1).negate()]);
        let s = f.to_string();
        assert!(s.contains("&"));
        assert!(s.contains("!("));
    }

    const VARS: [&str; 2] = ["x", "y"];
    const OPS: [u8; 3] = [0, 4, 3]; // ≥, =, <

    #[test]
    fn prop_negation_flips_eval() {
        let mut rng = SmallRng::seed_from_u64(0xF0301);
        for _ in 0..256 {
            let f = testgen::formula(&mut rng, &VARS, &OPS, 3, true);
            let env = testgen::int_env(&mut rng, &VARS, -10..10);
            assert_eq!(f.clone().negate().eval(&env, 3), !f.eval(&env, 3), "{f}");
        }
    }

    #[test]
    fn prop_implies_truth_table() {
        let mut rng = SmallRng::seed_from_u64(0xF0302);
        for _ in 0..256 {
            let f = testgen::formula(&mut rng, &VARS, &OPS, 3, true);
            let g = testgen::formula(&mut rng, &VARS, &OPS, 3, true);
            let env = testgen::int_env(&mut rng, &VARS, -10..10);
            let imp = f.clone().implies(g.clone());
            assert_eq!(imp.eval(&env, 3), !f.eval(&env, 3) || g.eval(&env, 3));
        }
    }

    #[test]
    fn prop_substitute_then_eval() {
        let mut rng = SmallRng::seed_from_u64(0xF0303);
        for _ in 0..256 {
            // f[x := k] under env  ==  f under env[x := k]
            let f = testgen::formula(&mut rng, &VARS, &OPS, 3, true);
            let env = testgen::int_env(&mut rng, &VARS, -10..10);
            let k = rng.gen_range(-5i128..5);
            let substituted = f.substitute("x", &Lin::constant(Rational::from(k)));
            let mut env2 = env.clone();
            env2.insert("x".to_string(), k);
            assert_eq!(substituted.eval(&env, 3), f.eval(&env2, 3), "{f}");
        }
    }
}
