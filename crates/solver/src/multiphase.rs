//! Multiphase and max-based ranking measures.
//!
//! Plain (lexicographic) linear ranking functions cannot prove loops whose progress
//! argument changes over time (`x = x + y; y = y - 1` — first `y` falls, then `x`)
//! or loops whose measure is the maximum of two expressions (`gcd`-style subtractive
//! loops, where `max(x, y)` decreases). This module adds both domains on top of the
//! existing Farkas/simplex machinery, under the same deterministic pivot budget:
//!
//! * **Multiphase measures** — *nested* multiphase linear ranking functions
//!   ⟨f₁, …, f_d⟩ (Leike–Heizmann style): on every transition `f₁` decreases by ≥ 1,
//!   each later `f_k` decreases by ≥ 1 *up to the slack of the previous phase*
//!   (`f_k − f_k′ ≥ 1 − f_{k−1}`), and the last phase is bounded (`f_d ≥ 0`).
//!   Along any infinite run `f₁ → −∞`, hence eventually `f₁ ≤ 0` and `f₂` decreases
//!   strictly, hence `f₂ → −∞`, …, hence `f_d → −∞`, contradicting boundedness — so
//!   the conditions entail termination. They are conjunctions of universally
//!   quantified affine implications, so [`crate::farkas::encode_implication`] turns
//!   synthesis into one LP per depth.
//! * **Max measures** — components of the form `max(f, g)` usable inside
//!   lexicographic tuples ([`crate::lexicographic`]). A max component is checked by
//!   case-splitting on `f ≥ g` / `g ≥ f`: under each (satisfiable) branch the
//!   dominating side must be bounded and both successor sides must drop below it.
//!   Candidates are drawn from the node variables, and every claim is certified by
//!   the sound concrete Farkas check before it is used.
//!
//! The rendered form of a synthesized measure is a list of [`MeasureItem`]s.

use crate::farkas::{self, encode_implication, MultiplierSource, TemplateLin};
use crate::linear::{Ineq, Lin};
use crate::lp::LpProblem;
use crate::rational::Rational;
use crate::system::{NodeId, Transition, TransitionSystem};
use std::collections::BTreeMap;
use std::fmt;

/// One component of a synthesized termination measure, as surfaced in summaries.
#[derive(Clone, Debug, PartialEq)]
pub enum MeasureItem {
    /// A plain affine component.
    Affine(Lin),
    /// A `max(f, g)` component.
    Max(Lin, Lin),
    /// A multiphase tuple ⟨f₁, …, f_d⟩ (nested ranking function).
    Phases(Vec<Lin>),
}

impl MeasureItem {
    /// Returns `true` when the measure mentions `var` with a non-zero coefficient.
    pub fn depends_on(&self, var: &str) -> bool {
        match self {
            MeasureItem::Affine(lin) => !lin.coeff(var).is_zero(),
            MeasureItem::Max(f, g) => !f.coeff(var).is_zero() || !g.coeff(var).is_zero(),
            MeasureItem::Phases(phases) => phases.iter().any(|p| !p.coeff(var).is_zero()),
        }
    }

    /// The affine expression of a plain component (`None` for max/multiphase).
    pub fn as_affine(&self) -> Option<&Lin> {
        match self {
            MeasureItem::Affine(lin) => Some(lin),
            _ => None,
        }
    }
}

impl fmt::Display for MeasureItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureItem::Affine(lin) => write!(f, "{lin}"),
            MeasureItem::Max(a, b) => write!(f, "max({a}, {b})"),
            MeasureItem::Phases(phases) => {
                let parts: Vec<String> = phases.iter().map(|p| p.to_string()).collect();
                write!(f, "phases({})", parts.join(", "))
            }
        }
    }
}

/// A multiphase measure: for each node, the phase tuple ⟨f₁, …, f_d⟩.
pub type MultiphaseMeasure = BTreeMap<NodeId, Vec<Lin>>;

/// A per-node `max(f, g)` component.
pub type MaxComponent = BTreeMap<NodeId, (Lin, Lin)>;

/// Attempts to synthesize a nested multiphase linear ranking measure of depth at
/// most `max_depth` covering *every* transition of the system at once.
///
/// Depths are tried in increasing order starting at 2 (depth 1 is a plain linear
/// measure, which callers try first). Every LP answer is re-certified transition by
/// transition with the sound concrete Farkas check before it is returned.
///
/// # Examples
///
/// ```
/// use tnt_solver::multiphase::synthesize_multiphase;
/// use tnt_solver::ranking;
/// use tnt_solver::system::{Transition, TransitionSystem};
/// use tnt_solver::{Ineq, Lin, Rational};
///
/// // while (x > 0) { x = x + y; y = y - 1; }  — y falls first, then x falls.
/// let mut p = TransitionSystem::new();
/// let n = p.add_node(&["x", "y"]);
/// let args = vec![
///     Lin::var("x").add(&Lin::var("y")),
///     Lin::var("y").add_const(-Rational::one()),
/// ];
/// let mut guard = vec![Ineq::ge(Lin::var("x"), Lin::constant(Rational::one()))];
/// guard.extend(Ineq::eq_zero(Lin::var("x'").sub(&args[0])));
/// guard.extend(Ineq::eq_zero(Lin::var("y'").sub(&args[1])));
/// p.add_transition(Transition::new(n, n, vec!["x'".into(), "y'".into()], args, guard));
/// assert!(ranking::synthesize(&p).is_none(), "no single affine measure");
/// let phases = synthesize_multiphase(&p, 3).expect("multiphase measure exists");
/// assert_eq!(phases[&n].len(), 2);
/// ```
pub fn synthesize_multiphase(
    system: &TransitionSystem,
    max_depth: usize,
) -> Option<MultiphaseMeasure> {
    if system.transitions().is_empty() {
        return None; // the plain synthesis already covers the vacuous case
    }
    for depth in 2..=max_depth {
        if crate::work::deadline_exceeded() {
            return None;
        }
        if let Some(measure) = synthesize_depth(system, depth) {
            return Some(measure);
        }
    }
    None
}

fn synthesize_depth(system: &TransitionSystem, depth: usize) -> Option<MultiphaseMeasure> {
    // One affine template per (phase, node).
    let phases: Vec<Vec<TemplateLin>> = (0..depth)
        .map(|k| {
            (0..system.num_nodes())
                .map(|i| TemplateLin::template(&format!("mph{k}n{i}"), system.formals(NodeId(i))))
                .collect()
        })
        .collect();
    let mut lp = LpProblem::new();
    let mut multipliers = MultiplierSource::new();
    for transition in system.transitions() {
        let src = transition.src.0;
        let dst = transition.dst.0;
        for k in 0..depth {
            // f_k(v) − f_k(v') ≥ 1 − f_{k−1}(v)   (f₀ ≡ 0)
            let next = system.rename_template_to_dst(&phases[k][dst], transition);
            let mut decrease = phases[k][src].sub(&next).add_const(-Rational::one());
            if k > 0 {
                decrease = decrease.add(&phases[k - 1][src]);
            }
            encode_implication(&mut lp, &mut multipliers, &transition.guard, &decrease);
        }
        // bounded: f_d(v) ≥ 0
        encode_implication(
            &mut lp,
            &mut multipliers,
            &transition.guard,
            &phases[depth - 1][src],
        );
    }
    let solution = lp.solve();
    if !solution.is_feasible() {
        return None;
    }
    let params = solution.values;
    let measure: MultiphaseMeasure = (0..system.num_nodes())
        .map(|i| {
            let node = NodeId(i);
            (
                node,
                phases
                    .iter()
                    .map(|row| row[i].instantiate(&params))
                    .collect(),
            )
        })
        .collect();
    // Defensive: re-certify the synthesized tuple with the sound concrete check.
    if system
        .transitions()
        .iter()
        .all(|t| multiphase_valid_on(system, &measure, t))
    {
        Some(measure)
    } else {
        None
    }
}

/// Sound concrete check of the nested multiphase conditions on one transition.
pub fn multiphase_valid_on(
    system: &TransitionSystem,
    measure: &MultiphaseMeasure,
    transition: &Transition,
) -> bool {
    let (Some(src), Some(dst)) = (measure.get(&transition.src), measure.get(&transition.dst))
    else {
        return false;
    };
    if src.len() != dst.len() || src.is_empty() {
        return false;
    }
    let renamed: Vec<Lin> = dst
        .iter()
        .map(|lin| system.rename_to_dst(lin, transition))
        .collect();
    let mut entailment = farkas::Entailment::new(&transition.guard);
    for k in 0..src.len() {
        let mut decrease = src[k].sub(&renamed[k]).add_const(-Rational::one());
        if k > 0 {
            decrease = decrease.add(&src[k - 1]);
        }
        if !entailment.implies(&Ineq::ge_zero(decrease)) {
            return false;
        }
    }
    let bounded = Ineq::ge_zero(src[src.len() - 1].clone());
    entailment.implies(&bounded)
}

/// Enumerates candidate `max(f, g)` components: one per unordered pair of variable
/// positions shared by every node of the system (nodes arising from the same
/// method scenario share their parameter order, so positional pairing is the
/// deterministic analogue of pairing by name).
pub(crate) fn max_component_candidates(system: &TransitionSystem) -> Vec<MaxComponent> {
    let arity = (0..system.num_nodes())
        .map(|i| system.formals(NodeId(i)).len())
        .min()
        .unwrap_or(0);
    let mut candidates = Vec::new();
    for a in 0..arity {
        for b in (a + 1)..arity {
            let candidate: MaxComponent = (0..system.num_nodes())
                .map(|i| {
                    let vars = system.formals(NodeId(i));
                    (
                        NodeId(i),
                        (Lin::var(vars[a].clone()), Lin::var(vars[b].clone())),
                    )
                })
                .collect();
            candidates.push(candidate);
        }
    }
    candidates
}

/// Checks that the per-node `max(f, g)` component is bounded and non-increasing on
/// `transition` (and strictly decreasing when `strict` is set), by case-splitting on
/// which side dominates. Sound: on any concrete state one of the two branch premises
/// holds, and under it the dominating side equals the max and both successor sides
/// are certified to lie (strictly) below it.
pub(crate) fn max_decreasing_on(
    system: &TransitionSystem,
    measure: &MaxComponent,
    transition: &Transition,
    strict: bool,
) -> bool {
    let (f, g) = &measure[&transition.src];
    let (dst_f, dst_g) = &measure[&transition.dst];
    let next_f = system.rename_to_dst(dst_f, transition);
    let next_g = system.rename_to_dst(dst_g, transition);
    let delta = if strict {
        Rational::one()
    } else {
        Rational::zero()
    };
    for (dominant, other) in [(f, g), (g, f)] {
        let mut premises = transition.guard.clone();
        premises.push(Ineq::ge(dominant.clone(), other.clone()));
        let mut entailment = farkas::Entailment::new(&premises);
        // An infeasible branch is vacuously fine (Farkas certificate of unsat).
        let absurd = Ineq::ge_zero(Lin::constant(-Rational::one()));
        if entailment.implies(&absurd) {
            continue;
        }
        let bounded = Ineq::ge_zero(dominant.clone());
        let drop_f = Ineq::ge_zero(dominant.sub(&next_f).add_const(-delta));
        let drop_g = Ineq::ge_zero(dominant.sub(&next_g).add_const(-delta));
        if !(entailment.implies(&bounded)
            && entailment.implies(&drop_f)
            && entailment.implies(&drop_g))
        {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexicographic::synthesize_lexicographic_mixed;
    use crate::ranking;

    fn r(n: i128) -> Rational {
        Rational::from(n)
    }

    /// A self-loop over `formals`: the guard `atoms` plus the bindings
    /// `v' = args[i]` of each formal `v`, in order.
    fn step(n: NodeId, formals: &[&str], atoms: Vec<Ineq>, args: Vec<Lin>) -> Transition {
        let mut guard = atoms;
        let mut dst_vars = Vec::new();
        for (v, arg) in formals.iter().zip(&args) {
            let primed = format!("{v}'");
            guard.extend(Ineq::eq_zero(Lin::var(primed.clone()).sub(arg)));
            dst_vars.push(primed);
        }
        Transition::new(n, n, dst_vars, args, guard)
    }

    /// The phase-change loop `while (x > 0) { x = x + y; y = y - 1; }`.
    fn phase_change_problem() -> (TransitionSystem, NodeId) {
        let mut p = TransitionSystem::new();
        let n = p.add_node(&["x", "y"]);
        p.add_transition(step(
            n,
            &["x", "y"],
            vec![Ineq::ge(Lin::var("x"), Lin::constant(r(1)))],
            vec![
                Lin::var("x").add(&Lin::var("y")),
                Lin::var("y").add_const(r(-1)),
            ],
        ));
        (p, n)
    }

    /// The gcd-style loop restricted to positive inputs: two transitions.
    fn gcd_problem() -> (TransitionSystem, NodeId) {
        let mut p = TransitionSystem::new();
        let n = p.add_node(&["x", "y"]);
        let positive = |v: &str| Ineq::ge(Lin::var(v), Lin::constant(r(1)));
        // x > y: x' = x - y, y' = y
        let g1 = vec![
            positive("x"),
            positive("y"),
            Ineq::ge(Lin::var("x"), Lin::var("y").add_const(r(1))),
        ];
        let args1 = vec![Lin::var("x").sub(&Lin::var("y")), Lin::var("y")];
        p.add_transition(step(n, &["x", "y"], g1, args1));
        // y > x: x' = x, y' = y - x
        let g2 = vec![
            positive("x"),
            positive("y"),
            Ineq::ge(Lin::var("y"), Lin::var("x").add_const(r(1))),
        ];
        let args2 = vec![Lin::var("x"), Lin::var("y").sub(&Lin::var("x"))];
        p.add_transition(step(n, &["x", "y"], g2, args2));
        (p, n)
    }

    #[test]
    fn phase_change_needs_and_gets_multiphase() {
        let (p, n) = phase_change_problem();
        assert!(
            ranking::synthesize(&p).is_none(),
            "no single affine measure"
        );
        assert!(
            synthesize_lexicographic_mixed(&p, 4, false).is_none(),
            "no plain lex measure"
        );
        let measure = synthesize_multiphase(&p, 3).expect("nested multiphase exists");
        let phases = &measure[&n];
        assert!(phases.len() >= 2);
        for t in p.transitions() {
            assert!(multiphase_valid_on(&p, &measure, t));
        }
    }

    #[test]
    fn diverging_loop_has_no_multiphase_measure() {
        // while (x >= 0) x = x + 1 — diverges, so no depth may work.
        let mut p = TransitionSystem::new();
        let n = p.add_node(&["x"]);
        p.add_transition(step(
            n,
            &["x"],
            vec![Ineq::ge_zero(Lin::var("x"))],
            vec![Lin::var("x").add_const(r(1))],
        ));
        assert!(synthesize_multiphase(&p, 4).is_none());
    }

    #[test]
    fn max_component_certifies_gcd() {
        let (p, _n) = gcd_problem();
        let candidates = max_component_candidates(&p);
        assert_eq!(candidates.len(), 1, "one variable pair (x, y)");
        let max_xy = &candidates[0];
        for t in p.transitions() {
            assert!(max_decreasing_on(&p, max_xy, t, false));
            assert!(max_decreasing_on(&p, max_xy, t, true));
        }
    }

    #[test]
    fn max_component_rejects_non_decreasing_claim() {
        // while (x >= 0) { x = x + 1; y = y - 1; }: max(x, y) does not decrease
        // (the x side grows).
        let mut p = TransitionSystem::new();
        let n = p.add_node(&["x", "y"]);
        p.add_transition(step(
            n,
            &["x", "y"],
            vec![Ineq::ge_zero(Lin::var("x"))],
            vec![
                Lin::var("x").add_const(r(1)),
                Lin::var("y").add_const(r(-1)),
            ],
        ));
        let candidates = max_component_candidates(&p);
        assert!(!max_decreasing_on(
            &p,
            &candidates[0],
            &p.transitions()[0],
            false
        ));
    }

    mod properties {
        use super::*;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        const VARS: [&str; 2] = ["x", "y"];

        /// One loop transition given by guard atoms over `VARS` plus an explicit
        /// affine update per variable — explicit updates let the test compute the
        /// successor state of any sampled state directly.
        struct TransitionSpec {
            atoms: Vec<Ineq>,
            updates: Vec<Lin>,
        }

        fn atom(rng: &mut SmallRng, var: &str) -> Ineq {
            let c = Lin::constant(r(rng.gen_range(-5i128..6)));
            if rng.gen_bool(0.5) {
                Ineq::ge(Lin::var(var), c) // var >= c
            } else {
                Ineq::ge(c, Lin::var(var)) // var <= c
            }
        }

        fn update(rng: &mut SmallRng, var_index: usize) -> Lin {
            // v' = v + a·other + c with small coefficients; biased towards the
            // countdown/phase-change shapes that make synthesis succeed often.
            let other = VARS[1 - var_index];
            let mut lin = Lin::var(VARS[var_index]);
            match rng.gen_range(0u32..4) {
                0 => {}
                1 => lin.add_term(other, r(rng.gen_range(-1i128..2))),
                _ => {}
            }
            lin.add_const(r(rng.gen_range(-2i128..2)))
        }

        fn random_specs(rng: &mut SmallRng) -> Vec<TransitionSpec> {
            let template = rng.gen_range(0u32..4);
            match template {
                // Phase-change: x' = x + y, y' = y - boost, guarded by x >= 1.
                0 => {
                    let boost = rng.gen_range(1i128..4);
                    vec![TransitionSpec {
                        atoms: vec![Ineq::ge(Lin::var("x"), Lin::constant(r(1)))],
                        updates: vec![
                            Lin::var("x").add(&Lin::var("y")),
                            Lin::var("y").add_const(r(-boost)),
                        ],
                    }]
                }
                // gcd on positives: two subtractive branches.
                1 => {
                    let pos = |v: &str| Ineq::ge(Lin::var(v), Lin::constant(r(1)));
                    vec![
                        TransitionSpec {
                            atoms: vec![
                                pos("x"),
                                pos("y"),
                                Ineq::ge(Lin::var("x"), Lin::var("y").add_const(r(1))),
                            ],
                            updates: vec![Lin::var("x").sub(&Lin::var("y")), Lin::var("y")],
                        },
                        TransitionSpec {
                            atoms: vec![
                                pos("x"),
                                pos("y"),
                                Ineq::ge(Lin::var("y"), Lin::var("x").add_const(r(1))),
                            ],
                            updates: vec![Lin::var("x"), Lin::var("y").sub(&Lin::var("x"))],
                        },
                    ]
                }
                // Fully random loops (often unprovable or non-terminating).
                _ => {
                    let count = rng.gen_range(1usize..3);
                    (0..count)
                        .map(|_| {
                            let mut atoms = Vec::new();
                            for v in VARS {
                                if rng.gen_bool(0.7) {
                                    atoms.push(atom(rng, v));
                                }
                            }
                            TransitionSpec {
                                atoms,
                                updates: (0..VARS.len()).map(|i| update(rng, i)).collect(),
                            }
                        })
                        .collect()
                }
            }
        }

        fn build_problem(specs: &[TransitionSpec]) -> (TransitionSystem, NodeId) {
            let mut problem = TransitionSystem::new();
            let node = problem.add_node(&VARS);
            for spec in specs {
                problem.add_transition(step(node, &VARS, spec.atoms.clone(), spec.updates.clone()));
            }
            (problem, node)
        }

        type Env = BTreeMap<String, Rational>;

        /// Samples states satisfying some transition's atoms and pairs them with
        /// the successor state computed from that transition's explicit updates.
        fn sample_valuations(rng: &mut SmallRng, specs: &[TransitionSpec]) -> Vec<(Env, Env)> {
            let mut samples = Vec::new();
            for _ in 0..60 {
                let state: Env = VARS
                    .iter()
                    .map(|v| (v.to_string(), r(rng.gen_range(-15i128..16))))
                    .collect();
                for spec in specs {
                    if spec.atoms.iter().all(|a| a.holds(&state)) {
                        let next: Env = VARS
                            .iter()
                            .zip(&spec.updates)
                            .map(|(v, u)| (v.to_string(), u.eval(&state)))
                            .collect();
                        samples.push((state.clone(), next));
                    }
                }
            }
            samples
        }

        /// Bounded + phase-monotone + strictly-decreasing-where-claimed, checked
        /// pointwise at a sampled transition valuation.
        fn nested_holds_at(phases: &[Lin], state: &Env, next: &Env) -> bool {
            let one = Rational::one();
            for (k, phase) in phases.iter().enumerate() {
                let decrease = phase.eval(state) - phase.eval(next);
                let slack = if k == 0 {
                    Rational::zero()
                } else {
                    phases[k - 1].eval(state)
                };
                // f_k(s) − f_k(s') ≥ 1 − f_{k−1}(s)
                if decrease < one - slack {
                    return false;
                }
            }
            // bounded: f_d(s) ≥ 0
            !phases[phases.len() - 1].eval(state).is_negative()
        }

        fn item_value(item: &MeasureItem, env: &Env) -> Rational {
            match item {
                MeasureItem::Affine(lin) => lin.eval(env),
                MeasureItem::Max(f, g) => f.eval(env).max(g.eval(env)),
                MeasureItem::Phases(_) => unreachable!("no phase items in mixed measures"),
            }
        }

        /// Lexicographic validity at a point: some component is bounded and drops
        /// by ≥ 1 while every earlier component does not increase.
        fn lexicographic_holds_at(items: &[MeasureItem], state: &Env, next: &Env) -> bool {
            for item in items {
                let here = item_value(item, state);
                let there = item_value(item, next);
                if here - there >= Rational::one() && !here.is_negative() {
                    return true;
                }
                if there > here {
                    return false; // an earlier component increased
                }
            }
            false
        }

        /// Every synthesized multiphase tuple and mixed lexicographic measure is
        /// validated against sampled transition valuations: bounded,
        /// phase-monotone and strictly decreasing where claimed.
        #[test]
        fn prop_synthesized_measures_hold_on_sampled_valuations() {
            let mut rng = SmallRng::seed_from_u64(0x3F417);
            let mut multiphase_points = 0usize;
            let mut mixed_points = 0usize;
            for _ in 0..80 {
                let specs = random_specs(&mut rng);
                let (problem, node) = build_problem(&specs);
                let samples = sample_valuations(&mut rng, &specs);
                if let Some(measure) = synthesize_multiphase(&problem, 3) {
                    let phases = &measure[&node];
                    for (state, next) in &samples {
                        assert!(
                            nested_holds_at(phases, state, next),
                            "multiphase claim violated at {state:?} -> {next:?} by {phases:?}"
                        );
                        multiphase_points += 1;
                    }
                }
                if let Some(measure) = synthesize_lexicographic_mixed(&problem, 4, true) {
                    let items = &measure[&node];
                    for (state, next) in &samples {
                        assert!(
                            lexicographic_holds_at(items, state, next),
                            "lexicographic claim violated at {state:?} -> {next:?} by {items:?}"
                        );
                        mixed_points += 1;
                    }
                }
            }
            assert!(
                multiphase_points > 100,
                "generator produced too few multiphase successes ({multiphase_points})"
            );
            assert!(
                mixed_points > 100,
                "generator produced too few mixed successes ({mixed_points})"
            );
        }
    }

    #[test]
    fn measure_items_render_readably() {
        let affine = MeasureItem::Affine(Lin::var("x"));
        let max = MeasureItem::Max(Lin::var("x"), Lin::var("y"));
        let phases = MeasureItem::Phases(vec![Lin::var("y").add_const(r(1)), Lin::var("x")]);
        assert_eq!(affine.to_string(), "x");
        assert_eq!(max.to_string(), "max(x, y)");
        assert_eq!(phases.to_string(), "phases(y + 1, x)");
        assert!(max.depends_on("y"));
        assert!(!affine.depends_on("y"));
        assert!(phases.depends_on("x"));
        assert!(affine.as_affine().is_some());
        assert!(max.as_affine().is_none());
    }
}
