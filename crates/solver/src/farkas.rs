//! Farkas'-lemma encodings of universally quantified linear implications, and
//! the concrete entailment check.
//!
//! The affine form of Farkas' lemma states: if the polyhedron
//! `P = { x | p₁(x) ≥ 0 ∧ … ∧ pₘ(x) ≥ 0 }` is non-empty, then a linear inequality
//! `ψ(x) ≥ 0` holds for every `x ∈ P` **iff** there exist multipliers
//! `λ₀, λ₁, …, λₘ ≥ 0` such that `ψ(x) ≡ λ₀ + Σⱼ λⱼ·pⱼ(x)` as affine functions.
//!
//! `prove_Term` (paper Sec. 5.4) uses this to turn the universally quantified
//! ranking-function conditions into an existentially quantified **linear** system over
//! the template coefficients and the multipliers, which the exact simplex of this
//! crate can solve ([`encode_implication`]).
//!
//! A *concrete* conclusion needs no multipliers: [`implies`] and [`Entailment`]
//! decide whether the certificate exists by the homogeneous form of the lemma,
//! as one feasibility query on the bounded simplex
//! ([`crate::bounded::BoundedSimplex`]). With premises `pⱼ = aⱼ·x + bⱼ` and
//! conclusion `c·x + d`, a certificate exists exactly when `(c, d)` lies in the
//! cone spanned by the `(aⱼ, bⱼ)` and `(0, 1)`. That cone is closed, so it is
//! the dual of its dual: `(c, d)` lies outside it exactly when some `(x, t)`
//! satisfies
//!
//! * `aⱼ·x + bⱼ·t ≥ 0` for every premise,
//! * `t ≥ 0`,
//! * `c·x + d·t < 0`.
//!
//! Those points form a cone, so `< 0` may be read as `≤ −1`, which leaves only
//! non-strict bounds. The query is exact over the rationals (no integer
//! tightening, so fractional template atoms are decided as the multiplier LP
//! decides them), and because `t` may be zero it answers "no" on
//! unsatisfiable premises for a conclusion outside their cone, as the
//! multiplier LP does. The premises are all homogeneous bounds at zero, so
//! the origin satisfies them and asserting them never pivots; an
//! [`Entailment`] asserts them once and answers each conclusion with one
//! bound, one check and a backtrack.

use crate::bounded::BoundedSimplex;
use crate::linear::{Ineq, Lin};
use crate::lp::{Cmp, LpProblem, VarKind};
use crate::rational::Rational;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// An affine expression over *program* variables whose coefficients are themselves
/// affine expressions over *template parameters* (the unknowns of the synthesis).
///
/// For a ranking template `c₀ + c₁·x + c₂·y` the program variables are `x`, `y` and the
/// parameters are `c₀`, `c₁`, `c₂`.
///
/// # Examples
///
/// ```
/// use tnt_solver::farkas::TemplateLin;
/// let template = TemplateLin::template("r", &["x".to_string(), "y".to_string()]);
/// assert_eq!(template.program_vars().count(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TemplateLin {
    /// Coefficient (an affine expression over parameters) of each program variable.
    coeffs: BTreeMap<String, Lin>,
    /// Constant part (an affine expression over parameters).
    constant: Lin,
}

impl TemplateLin {
    /// The zero template expression.
    pub fn zero() -> Self {
        TemplateLin::default()
    }

    /// Lifts a concrete affine expression (no parameters) into a template expression.
    pub fn from_concrete(lin: &Lin) -> Self {
        let mut out = TemplateLin::zero();
        for (v, c) in lin.terms() {
            out.coeffs.insert(v.to_string(), Lin::constant(c));
        }
        out.constant = Lin::constant(lin.constant_term());
        out
    }

    /// Creates the canonical affine template `p_const + Σᵢ p_vᵢ · vᵢ` over the given
    /// program variables, with fresh parameter names derived from `prefix`.
    pub fn template(prefix: &str, program_vars: &[String]) -> Self {
        let mut out = TemplateLin::zero();
        out.constant = Lin::var(format!("{prefix}$const"));
        for v in program_vars {
            out.coeffs
                .insert(v.clone(), Lin::var(format!("{prefix}${v}")));
        }
        out
    }

    /// The parameter names used by this template expression.
    pub fn parameters(&self) -> BTreeSet<String> {
        let mut params = BTreeSet::new();
        for lin in self.coeffs.values().chain(std::iter::once(&self.constant)) {
            for v in lin.vars() {
                params.insert(v.to_string());
            }
        }
        params
    }

    /// The program variables mentioned by this template expression.
    pub fn program_vars(&self) -> impl Iterator<Item = &str> + '_ {
        self.coeffs.keys().map(|s| s.as_str())
    }

    /// The (parameter-affine) coefficient of a program variable.
    pub fn coeff(&self, var: &str) -> Lin {
        self.coeffs.get(var).cloned().unwrap_or_else(Lin::zero)
    }

    /// The (parameter-affine) constant part.
    pub fn constant_part(&self) -> &Lin {
        &self.constant
    }

    /// Sets the constant part.
    pub fn set_constant(&mut self, constant: Lin) {
        self.constant = constant;
    }

    /// Pointwise sum `self + other`.
    pub fn add(&self, other: &TemplateLin) -> TemplateLin {
        let mut out = self.clone();
        for (v, c) in &other.coeffs {
            let existing = out.coeffs.entry(v.clone()).or_insert_with(Lin::zero);
            *existing = existing.add(c);
        }
        out.constant = out.constant.add(&other.constant);
        out
    }

    /// Pointwise difference `self - other`.
    pub fn sub(&self, other: &TemplateLin) -> TemplateLin {
        let mut out = self.clone();
        for (v, c) in &other.coeffs {
            let existing = out.coeffs.entry(v.clone()).or_insert_with(Lin::zero);
            *existing = existing.sub(c);
        }
        out.constant = out.constant.sub(&other.constant);
        out
    }

    /// Adds a concrete constant to the constant part.
    pub fn add_const(&self, value: Rational) -> TemplateLin {
        let mut out = self.clone();
        out.constant = out.constant.add_const(value);
        out
    }

    /// Instantiates the parameters with concrete values, producing a concrete
    /// affine expression over the program variables.
    pub fn instantiate(&self, params: &BTreeMap<String, Rational>) -> Lin {
        let mut out = Lin::constant(self.constant.eval(params));
        for (v, coeff) in &self.coeffs {
            out.add_term(v, coeff.eval(params));
        }
        out
    }

    /// Renames every program variable through the given map (parameters untouched).
    pub fn rename_program_vars(&self, map: &BTreeMap<String, String>) -> TemplateLin {
        let mut out = TemplateLin::zero();
        out.constant = self.constant.clone();
        for (v, c) in &self.coeffs {
            let name = map.get(v).cloned().unwrap_or_else(|| v.clone());
            let existing = out.coeffs.entry(name).or_insert_with(Lin::zero);
            *existing = existing.add(c);
        }
        out
    }
}

/// Counter used to generate distinct multiplier names within one [`LpProblem`].
#[derive(Debug, Default)]
pub struct MultiplierSource {
    next: usize,
}

impl MultiplierSource {
    /// Creates a fresh source.
    pub fn new() -> Self {
        MultiplierSource::default()
    }

    fn fresh(&mut self) -> String {
        let name = format!("lam${}", self.next);
        self.next += 1;
        name
    }
}

/// Encodes the universally quantified implication
/// `(∀ program vars) premises ⇒ conclusion ≥ 0`
/// as Farkas constraints over the template parameters, added to `lp`.
///
/// Every premise is interpreted as `premise.expr() ≥ 0`. The multipliers are fresh
/// non-negative LP variables drawn from `multipliers`; the template parameters are
/// declared as free variables.
///
/// The encoding is sound unconditionally and complete whenever the premises are
/// satisfiable over the rationals (the standard proviso of the affine Farkas lemma —
/// callers check premise satisfiability separately).
pub fn encode_implication(
    lp: &mut LpProblem,
    multipliers: &mut MultiplierSource,
    premises: &[Ineq],
    conclusion: &TemplateLin,
) {
    for p in conclusion.parameters() {
        lp.declare(p, VarKind::Free);
    }
    // One multiplier per premise plus the affine slack λ₀.
    let lambda0 = multipliers.fresh();
    lp.declare(&lambda0, VarKind::NonNegative);
    let premise_lambdas: Vec<String> = premises
        .iter()
        .map(|_| {
            let name = multipliers.fresh();
            lp.declare(&name, VarKind::NonNegative);
            name
        })
        .collect();

    // Collect every program variable mentioned on either side.
    let mut program_vars: BTreeSet<String> =
        conclusion.program_vars().map(|s| s.to_string()).collect();
    for p in premises {
        for v in p.expr().vars() {
            program_vars.insert(v.to_string());
        }
    }

    // Coefficient matching per program variable: conclusion.coeff(v) = Σⱼ λⱼ·premiseⱼ.coeff(v).
    for v in &program_vars {
        let mut rhs = Lin::zero();
        for (premise, lambda) in premises.iter().zip(&premise_lambdas) {
            let a = premise.expr().coeff(v);
            if !a.is_zero() {
                rhs.add_term(lambda, a);
            }
        }
        lp.constrain(conclusion.coeff(v), Cmp::Eq, rhs);
    }
    // Constant matching: conclusion.const = λ₀ + Σⱼ λⱼ·premiseⱼ.const.
    let mut rhs = Lin::var(&lambda0);
    for (premise, lambda) in premises.iter().zip(&premise_lambdas) {
        let b = premise.expr().constant_term();
        if !b.is_zero() {
            rhs.add_term(lambda, b);
        }
    }
    lp.constrain(conclusion.constant_part().clone(), Cmp::Eq, rhs);
}

/// Checks whether the conjunction of `premises` entails `conclusion.expr() ≥ 0`
/// via a Farkas certificate: whether `conclusion` is a non-negative combination
/// of the premises plus a non-negative constant.
///
/// The answer is exact over the rationals (see the module docs). It is sound
/// unconditionally and complete when the premises are satisfiable over the
/// rationals; on unsatisfiable premises a conclusion outside their cone is
/// answered "no", and the absurd conclusion `−1 ≥ 0` "yes". Several
/// conclusions under the same premises are cheaper through one [`Entailment`].
pub fn implies(premises: &[Ineq], conclusion: &Ineq) -> bool {
    Entailment::new(premises).implies(conclusion)
}

/// The premises of a batch of [`implies`] checks, asserted once on a bounded
/// simplex in homogenized form (see the module docs).
///
/// # Examples
///
/// ```
/// use tnt_solver::farkas::Entailment;
/// use tnt_solver::{Ineq, Lin, Rational};
///
/// // x ≥ y ∧ y ≥ 3
/// let premises = [
///     Ineq::ge(Lin::var("x"), Lin::var("y")),
///     Ineq::ge(Lin::var("y"), Lin::constant(Rational::from(3))),
/// ];
/// let mut entailment = Entailment::new(&premises);
/// assert!(entailment.implies(&Ineq::ge(Lin::var("x"), Lin::constant(Rational::from(2)))));
/// assert!(!entailment.implies(&Ineq::ge(Lin::var("y"), Lin::var("x"))));
/// assert!(!entailment.implies(&Ineq::ge_zero(Lin::var("z"))));
/// ```
#[derive(Debug)]
pub struct Entailment<'p> {
    kernel: BoundedSimplex,
    /// The kernel variable of each program variable the premises mention;
    /// scanned linearly, as premises name a handful.
    columns: Vec<(&'p str, usize)>,
    /// The homogenizing variable `t ≥ 0` that scales every constant.
    t: usize,
}

impl<'p> Entailment<'p> {
    /// Asserts `aⱼ·x + bⱼ·t ≥ 0` for every premise `aⱼ·x + bⱼ ≥ 0`, and `t ≥ 0`.
    pub fn new(premises: &'p [Ineq]) -> Self {
        let mut kernel = BoundedSimplex::new();
        let t = kernel.add_var();
        kernel.assert_lower(t, Rational::zero());
        let mut entailment = Entailment {
            kernel,
            columns: Vec::new(),
            t,
        };
        for premise in premises {
            let expr = premise.expr();
            let mut terms: Vec<(usize, Rational)> = expr
                .terms()
                .map(|(name, coeff)| (entailment.column(name), coeff))
                .collect();
            if !expr.constant_term().is_zero() {
                terms.push((t, expr.constant_term()));
            }
            if !terms.is_empty() {
                // A bound at zero, which the origin meets: never a conflict.
                entailment
                    .kernel
                    .assert_form(terms, Rational::zero(), false);
            }
        }
        entailment
    }

    /// The kernel variable of a premise variable, added on first use.
    fn column(&mut self, name: &'p str) -> usize {
        if let Some(&(_, var)) = self.columns.iter().find(|(n, _)| *n == name) {
            return var;
        }
        let var = self.kernel.add_var();
        self.columns.push((name, var));
        var
    }

    /// Whether the premises entail `conclusion.expr() ≥ 0`: whether
    /// `c·x + d·t ≤ −1` is infeasible under them, asserted and retracted again.
    /// A conclusion variable no premise mentions answers "no" at once.
    pub fn implies(&mut self, conclusion: &Ineq) -> bool {
        let expr = conclusion.expr();
        // −c·x − d·t − 1 ≥ 0
        let mut terms: Vec<(usize, Rational)> = Vec::with_capacity(expr.terms().count() + 1);
        for (name, coeff) in expr.terms() {
            match self.columns.iter().find(|(n, _)| *n == name) {
                Some(&(_, var)) => terms.push((var, -coeff)),
                None => return false,
            }
        }
        if !expr.constant_term().is_zero() {
            terms.push((self.t, -expr.constant_term()));
        }
        if terms.is_empty() {
            return true;
        }
        let mark = self.kernel.checkpoint();
        let refuted =
            self.kernel.assert_form(terms, -Rational::one(), false) && self.kernel.check();
        self.kernel.backtrack(mark);
        !refuted
    }
}

/// Seeded entailment queries shaped like the analyzer's closure checks: each
/// is a premise set and the conclusions asked under it.
///
/// A premise set has one to twelve inequalities (equalities count as their
/// two halves) over one to six variables `v0`…`v5`, with fractional
/// coefficients and constants; about half the sets are unsatisfiable, one in
/// six by a deliberately contradicting pair `e ≥ 1`, `−e ≥ 0`. Its one to
/// six conclusions mix non-negative combinations of the premises plus a
/// constant (entailed when the constant is non-negative), random forms,
/// forms naming the variable `u` that no premise mentions, the absurd
/// `−1 ≥ 0` and the zero `0 ≥ 0`.
///
/// It is the workload of the differential gate against the multiplier LP and
/// of the `kernel/farkas_implies` micro bench.
pub fn seeded_entailments(seed: u64, count: usize) -> Vec<(Vec<Ineq>, Vec<Ineq>)> {
    // SplitMix64: a fixed stream per seed, independent of any RNG crate.
    let mut state = seed;
    let mut next = |bound: u64| -> i128 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound) as i128
    };
    let vars: Vec<String> = (0..6).map(|i| format!("v{i}")).collect();
    (0..count)
        .map(|_| {
            let num_vars = 1 + next(6) as usize;
            let form = |next: &mut dyn FnMut(u64) -> i128| {
                let mut lin = Lin::constant(Rational::new(next(9) - 2, next(2) + 1));
                for v in &vars[..num_vars] {
                    if next(2) == 0 {
                        let num = [-3, -2, -1, 1, 2, 3][next(6) as usize];
                        lin.add_term(v, Rational::new(num, next(3) + 1));
                    }
                }
                lin
            };
            let size = 1 + next(12) as usize;
            let mut premises: Vec<Ineq> = Vec::with_capacity(size + 2);
            while premises.len() < size {
                if size - premises.len() >= 2 && next(4) == 0 {
                    premises.extend(Ineq::eq_zero(form(&mut next)));
                } else {
                    premises.push(Ineq::ge_zero(form(&mut next)));
                }
            }
            if next(6) == 0 {
                let e = form(&mut next);
                let at = next(premises.len() as u64 + 1) as usize;
                premises.insert(at, Ineq::ge_zero(e.add_const(-Rational::one())));
                premises.push(Ineq::ge_zero(e.scale(-Rational::one())));
            }
            let conclusions = (0..1 + next(6))
                .map(|_| match next(8) {
                    0 => Ineq::ge_zero(Lin::constant(-Rational::one())),
                    1 => Ineq::ge_zero(Lin::zero()),
                    2 => {
                        let mut lin = form(&mut next);
                        lin.add_term("u", Rational::new(next(5) + 1, 2));
                        Ineq::ge_zero(lin)
                    }
                    3..=5 => {
                        let delta = [-1, 0, 1, 2][next(4) as usize];
                        let mut lin = Lin::constant(Rational::new(delta, 2));
                        for premise in &premises {
                            let lambda = Rational::new(next(5), 2);
                            if !lambda.is_zero() && next(3) == 0 {
                                lin = lin.add(&premise.expr().scale(lambda));
                            }
                        }
                        Ineq::ge_zero(lin)
                    }
                    _ => Ineq::ge_zero(form(&mut next)),
                })
                .collect();
            (premises, conclusions)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::LpStatus;

    fn r(n: i128) -> Rational {
        Rational::from(n)
    }

    #[test]
    fn implies_simple_transitivity() {
        // x >= 3  entails  x >= 1.
        let premises = vec![Ineq::ge(Lin::var("x"), Lin::constant(r(3)))];
        let conclusion = Ineq::ge(Lin::var("x"), Lin::constant(r(1)));
        assert!(implies(&premises, &conclusion));
    }

    #[test]
    fn implies_fails_when_not_entailed() {
        // x >= 1 does not entail x >= 3.
        let premises = vec![Ineq::ge(Lin::var("x"), Lin::constant(r(1)))];
        let conclusion = Ineq::ge(Lin::var("x"), Lin::constant(r(3)));
        assert!(!implies(&premises, &conclusion));
    }

    #[test]
    fn implies_uses_combinations() {
        // x >= y and y >= z entail x >= z.
        let premises = vec![
            Ineq::ge(Lin::var("x"), Lin::var("y")),
            Ineq::ge(Lin::var("y"), Lin::var("z")),
        ];
        let conclusion = Ineq::ge(Lin::var("x"), Lin::var("z"));
        assert!(implies(&premises, &conclusion));
    }

    #[test]
    fn implies_scales_premises() {
        // 2x >= 4 entails x >= 2 (multiplier 1/2).
        let premises = vec![Ineq::ge(Lin::var("x").scale(r(2)), Lin::constant(r(4)))];
        let conclusion = Ineq::ge(Lin::var("x"), Lin::constant(r(2)));
        assert!(implies(&premises, &conclusion));
    }

    #[test]
    fn implies_is_exact_on_fractional_atoms() {
        // x ≥ 1/2 entails x ≥ 1/2 and x ≥ 0 but, over the rationals, not x ≥ 1.
        let half = Lin::constant(Rational::new(1, 2));
        let premises = vec![Ineq::ge(Lin::var("x"), half.clone())];
        assert!(implies(&premises, &Ineq::ge(Lin::var("x"), half)));
        assert!(implies(&premises, &Ineq::ge_zero(Lin::var("x"))));
        assert!(!implies(
            &premises,
            &Ineq::ge(Lin::var("x"), Lin::constant(r(1)))
        ));
    }

    #[test]
    fn implies_on_unsatisfiable_premises_needs_the_cone() {
        // x ≥ 1 ∧ −x ≥ 0 ∧ y ≥ 0 has no point. Its cone holds every form over
        // x alone and y ≥ 0, but not −y ≥ 0 nor anything over z.
        let premises = vec![
            Ineq::ge(Lin::var("x"), Lin::constant(r(1))),
            Ineq::ge_zero(Lin::var("x").scale(r(-1))),
            Ineq::ge_zero(Lin::var("y")),
        ];
        let mut entailment = Entailment::new(&premises);
        assert!(entailment.implies(&Ineq::ge_zero(Lin::constant(r(-1)))));
        assert!(entailment.implies(&Ineq::ge_zero(Lin::constant(r(-7)))));
        assert!(entailment.implies(&Ineq::le(Lin::var("x"), Lin::constant(r(-5)))));
        assert!(entailment.implies(&Ineq::ge_zero(Lin::var("y"))));
        assert!(!entailment.implies(&Ineq::ge_zero(Lin::var("y").scale(r(-1)))));
        assert!(!entailment.implies(&Ineq::ge_zero(Lin::var("z"))));
    }

    #[test]
    fn implies_without_premises() {
        assert!(implies(&[], &Ineq::ge_zero(Lin::zero())));
        assert!(implies(&[], &Ineq::ge_zero(Lin::constant(r(2)))));
        assert!(!implies(&[], &Ineq::ge_zero(Lin::constant(r(-1)))));
        assert!(!implies(&[], &Ineq::ge_zero(Lin::var("x"))));
    }

    /// The multiplier LP the concrete check replaced, kept as its oracle.
    fn lp_implies(premises: &[Ineq], conclusion: &Ineq) -> bool {
        let mut lp = LpProblem::new();
        let mut multipliers = MultiplierSource::new();
        let concrete = TemplateLin::from_concrete(conclusion.expr());
        encode_implication(&mut lp, &mut multipliers, premises, &concrete);
        lp.solve().is_feasible()
    }

    /// The homogenized kernel query answers as the multiplier LP on seeded
    /// premise sets of one to twelve fractional inequalities (equality
    /// halves included) over one to six variables, satisfiable or not, and
    /// on conclusions that are premise combinations, random forms, forms
    /// naming an unmentioned variable, `−1 ≥ 0` and `0 ≥ 0`.
    #[test]
    fn prop_kernel_implies_agrees_with_farkas_lp() {
        let cases = seeded_entailments(0xFA4CA5, 600);
        let mut answers = [0usize; 2];
        let mut unsatisfiable = 0;
        let absurd = Ineq::ge_zero(Lin::constant(r(-1)));
        for (premises, conclusions) in &cases {
            if lp_implies(premises, &absurd) {
                unsatisfiable += 1;
            }
            for conclusion in conclusions {
                let kernel = implies(premises, conclusion);
                assert_eq!(
                    kernel,
                    lp_implies(premises, conclusion),
                    "kernel and multiplier LP disagree on {premises:?} ⇒ {conclusion:?}"
                );
                answers[usize::from(kernel)] += 1;
            }
        }
        assert!(
            answers.iter().all(|&n| n > 500),
            "both answers must be exercised: {answers:?}"
        );
        assert!(
            (150..cases.len() - 150).contains(&unsatisfiable),
            "premise sets must be satisfiable and unsatisfiable: {unsatisfiable} of {} unsatisfiable",
            cases.len()
        );
    }

    /// One [`Entailment`] answering every conclusion of its premise set, each
    /// asked twice in a seeded order, matches a fresh call per conclusion.
    #[test]
    fn prop_batched_entailment_agrees_with_fresh_calls() {
        let mut state = 0x5EED_u64;
        for (premises, conclusions) in seeded_entailments(0xBA7C4, 300) {
            let mut entailment = Entailment::new(&premises);
            let mut order: Vec<&Ineq> = conclusions.iter().chain(&conclusions).collect();
            for i in (1..order.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            for conclusion in order {
                assert_eq!(
                    entailment.implies(conclusion),
                    implies(&premises, conclusion),
                    "batched and fresh answers differ on {premises:?} ⇒ {conclusion:?}"
                );
            }
        }
    }

    #[test]
    fn template_synthesis_for_decreasing_counter() {
        // Find c0, c1 such that  x >= 0 ∧ x' = x - 1  ⇒  c0 + c1·x ≥ 0  ∧  c0 + c1·x ≥ c0 + c1·x' + 1.
        let mut premises = vec![Ineq::ge_zero(Lin::var("x"))];
        premises.extend(Ineq::eq_zero(
            Lin::var("x'").sub(&Lin::var("x")).add_const(r(1)),
        ));

        let template = TemplateLin::template("r", &["x".to_string()]);
        let renamed: BTreeMap<String, String> =
            [("x".to_string(), "x'".to_string())].into_iter().collect();
        let template_next = template.rename_program_vars(&renamed);

        let mut lp = LpProblem::new();
        let mut ms = MultiplierSource::new();
        // bounded: template >= 0
        encode_implication(&mut lp, &mut ms, &premises, &template);
        // decreasing: template - template' - 1 >= 0
        let decrease = template.sub(&template_next).add_const(r(-1));
        encode_implication(&mut lp, &mut ms, &premises, &decrease);

        let solution = lp.solve();
        assert_eq!(solution.status, LpStatus::Optimal);
        let params: BTreeMap<String, Rational> = solution.values.clone();
        let rank = template.instantiate(&params);
        // The synthesized coefficient of x must be positive for a decreasing counter.
        assert!(rank.coeff("x").is_positive());
    }

    #[test]
    fn template_synthesis_infeasible_for_incrementing_counter() {
        // x >= 0 ∧ x' = x + 1 admits no linear ranking function.
        let mut premises = vec![Ineq::ge_zero(Lin::var("x"))];
        premises.extend(Ineq::eq_zero(
            Lin::var("x'").sub(&Lin::var("x")).add_const(r(-1)),
        ));
        let template = TemplateLin::template("r", &["x".to_string()]);
        let renamed: BTreeMap<String, String> =
            [("x".to_string(), "x'".to_string())].into_iter().collect();
        let template_next = template.rename_program_vars(&renamed);

        let mut lp = LpProblem::new();
        let mut ms = MultiplierSource::new();
        encode_implication(&mut lp, &mut ms, &premises, &template);
        encode_implication(
            &mut lp,
            &mut ms,
            &premises,
            &template.sub(&template_next).add_const(r(-1)),
        );
        assert_eq!(lp.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn instantiate_template() {
        let template = TemplateLin::template("r", &["x".to_string(), "y".to_string()]);
        let mut params = BTreeMap::new();
        params.insert("r$x".to_string(), r(2));
        params.insert("r$y".to_string(), r(0));
        params.insert("r$const".to_string(), r(7));
        let lin = template.instantiate(&params);
        assert_eq!(lin.coeff("x"), r(2));
        assert_eq!(lin.coeff("y"), r(0));
        assert_eq!(lin.constant_term(), r(7));
    }

    #[test]
    fn rename_program_vars_merges() {
        let t = TemplateLin::template("r", &["x".to_string(), "y".to_string()]);
        let map: BTreeMap<String, String> = [
            ("x".to_string(), "z".to_string()),
            ("y".to_string(), "z".to_string()),
        ]
        .into_iter()
        .collect();
        let renamed = t.rename_program_vars(&map);
        let coeff = renamed.coeff("z");
        assert_eq!(coeff.coeff("r$x"), Rational::one());
        assert_eq!(coeff.coeff("r$y"), Rational::one());
    }
}
