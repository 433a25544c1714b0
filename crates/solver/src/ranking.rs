//! Linear ranking-function synthesis over a [`TransitionSystem`].
//!
//! This module implements the constraint-based synthesis used by the paper's
//! `prove_Term` procedure (Fig. 8): every node of the system (an unknown
//! pre-predicate of a strongly connected component) gets an affine template
//! `c₀ + Σ cᵢ·vᵢ`; every transition `(Uⁱpr, ρ, Uʲpr)` contributes the conditions
//!
//! * *boundedness*: `ρ ⇒ rᵢ(vᵢ) ≥ 0`, and
//! * *decrease*: `ρ ⇒ rᵢ(vᵢ) ≥ rⱼ(vⱼ′) + 1`,
//!
//! which are turned into a linear system over the template coefficients via
//! Farkas' lemma ([`crate::farkas`]) and solved with the exact simplex.

use crate::farkas::{encode_implication, MultiplierSource, TemplateLin};
use crate::linear::{Ineq, Lin};
use crate::lp::{Cmp, Direction, LpProblem};
use crate::rational::Rational;
use crate::system::{NodeId, Transition, TransitionSystem};
use std::collections::BTreeMap;

fn template_for(system: &TransitionSystem, node: NodeId) -> TemplateLin {
    TemplateLin::template(&format!("rank{}", node.0), system.formals(node))
}

/// Instantiates every node's template with the LP's parameter values.
fn instantiate(
    system: &TransitionSystem,
    params: &BTreeMap<String, Rational>,
) -> BTreeMap<NodeId, Lin> {
    (0..system.num_nodes())
        .map(|i| {
            (
                NodeId(i),
                template_for(system, NodeId(i)).instantiate(params),
            )
        })
        .collect()
}

/// Encodes boundedness `r_src(v) ≥ 0` and decrease `r_src(v) − r_dst(v′) ≥ δ`
/// for the given transitions into `lp`. The slack `δ` is the constant 1, or
/// with `eps` set a fresh LP variable `eps$i ∈ [0, 1]` per transition, whose
/// names are returned.
fn encode(
    system: &TransitionSystem,
    lp: &mut LpProblem,
    transitions: &[&Transition],
    eps: bool,
) -> Vec<String> {
    let mut multipliers = MultiplierSource::new();
    let mut eps_names = Vec::new();
    for (index, transition) in transitions.iter().enumerate() {
        let src_template = template_for(system, transition.src);
        let next_template =
            system.rename_template_to_dst(&template_for(system, transition.dst), transition);
        encode_implication(lp, &mut multipliers, &transition.guard, &src_template);
        let eps_name = format!("eps${index}");
        let slack = if eps {
            Lin::var(eps_name.clone())
        } else {
            Lin::constant(Rational::one())
        };
        let mut decrease = src_template.sub(&next_template);
        decrease.set_constant(decrease.constant_part().sub(&slack));
        encode_implication(lp, &mut multipliers, &transition.guard, &decrease);
        if eps {
            // encode_implication declares conclusion parameters free, so the sign
            // restriction must be stated as explicit constraints.
            lp.constrain(slack.clone(), Cmp::Ge, Lin::zero());
            lp.constrain(slack, Cmp::Le, Lin::constant(Rational::one()));
            eps_names.push(eps_name);
        }
    }
    eps_names
}

/// Attempts to synthesize one linear ranking function per node such that every
/// transition is strictly decreasing and bounded.
///
/// Returns the concrete ranking expression for each node, or `None` when no such
/// assignment of affine templates exists.
pub fn synthesize(system: &TransitionSystem) -> Option<BTreeMap<NodeId, Lin>> {
    if system.transitions().is_empty() {
        // Vacuously terminating: the zero measure works for every node.
        return Some(
            (0..system.num_nodes())
                .map(|i| (NodeId(i), Lin::zero()))
                .collect(),
        );
    }
    let mut lp = LpProblem::new();
    let transitions: Vec<&Transition> = system.transitions().iter().collect();
    encode(system, &mut lp, &transitions, false);
    let solution = lp.solve();
    if !solution.is_feasible() {
        return None;
    }
    Some(instantiate(system, &solution.values))
}

/// Attempts to find a single *quasi*-ranking component for the given subset of
/// transitions: bounded and non-increasing on all of them, and strictly decreasing
/// on as many as the LP can manage at once (the Alias–Darte–Feautrier–Gonnord
/// scheme). One ε-slack per transition is added to the decrease condition
/// (`r_src - r_dst ≥ ε`, `0 ≤ ε ≤ 1`) and `Σ ε` is maximised, so a single LP
/// solve replaces the per-strict-transition enumeration.
///
/// Returns `None` when no component is strict on any transition. The returned
/// measure is rescaled so every transition with a positive ε decreases by ≥ 1
/// (templates are closed under uniform positive scaling, so this preserves
/// boundedness and non-increase everywhere else).
pub(crate) fn synthesize_component(
    system: &TransitionSystem,
    transitions: &[&Transition],
) -> Option<BTreeMap<NodeId, Lin>> {
    let mut lp = LpProblem::new();
    let eps_names = encode(system, &mut lp, transitions, true);
    let mut objective = Lin::zero();
    for eps in &eps_names {
        objective.add_term(eps, Rational::one());
    }
    lp.set_objective(objective, Direction::Maximise);
    let solution = lp.solve();
    if !solution.is_feasible() {
        return None;
    }
    // Smallest positive ε determines the uniform scale factor.
    let mut min_positive: Option<Rational> = None;
    for eps in &eps_names {
        let value = solution.value(eps);
        if value.is_positive() && min_positive.is_none_or(|m| value < m) {
            min_positive = Some(value);
        }
    }
    let scale = min_positive?.recip();
    Some(
        instantiate(system, &solution.values)
            .into_iter()
            .map(|(node, lin)| (node, lin.scale(scale)))
            .collect(),
    )
}

/// Checks whether a concrete per-node measure is strictly decreasing and bounded
/// on the given transition (sound Farkas check; used to prune transitions during
/// lexicographic synthesis).
pub(crate) fn strictly_decreasing_on(
    system: &TransitionSystem,
    measure: &BTreeMap<NodeId, Lin>,
    transition: &Transition,
) -> bool {
    let src = measure[&transition.src].clone();
    let dst = system.rename_to_dst(&measure[&transition.dst], transition);
    let bounded = Ineq::ge_zero(src.clone());
    let decrease = Ineq::ge_zero(src.sub(&dst).add_const(-Rational::one()));
    let mut entailment = crate::farkas::Entailment::new(&transition.guard);
    entailment.implies(&bounded) && entailment.implies(&decrease)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128) -> Rational {
        Rational::from(n)
    }

    fn eq(lhs: Lin, rhs: Lin) -> Vec<Ineq> {
        Ineq::eq_zero(lhs.sub(&rhs)).to_vec()
    }

    #[test]
    fn empty_problem_is_vacuously_terminating() {
        let mut p = TransitionSystem::new();
        let n = p.add_node(&["x"]);
        let solution = synthesize(&p).expect("no transitions");
        assert!(solution.contains_key(&n));
    }

    #[test]
    fn simple_countdown() {
        // while (x >= 0) x = x - 1
        let mut p = TransitionSystem::new();
        let n = p.add_node(&["x"]);
        let next = Lin::var("x").add_const(r(-1));
        let mut guard = vec![Ineq::ge_zero(Lin::var("x"))];
        guard.extend(eq(Lin::var("x'"), next.clone()));
        p.add_transition(Transition::new(n, n, vec!["x'".into()], vec![next], guard));
        let solution = synthesize(&p).expect("countdown terminates");
        let rank = &solution[&n];
        assert!(rank.coeff("x").is_positive());
    }

    #[test]
    fn count_up_to_bound() {
        // while (x <= n) x = x + 1   — ranking function n - x.
        let mut p = TransitionSystem::new();
        let n = p.add_node(&["x", "n"]);
        let next = Lin::var("x").add_const(r(1));
        let mut guard = vec![Ineq::ge(Lin::var("n"), Lin::var("x"))];
        guard.extend(eq(Lin::var("x'"), next.clone()));
        guard.extend(eq(Lin::var("n'"), Lin::var("n")));
        p.add_transition(Transition::new(
            n,
            n,
            vec!["x'".into(), "n'".into()],
            vec![next, Lin::var("n")],
            guard,
        ));
        let solution = synthesize(&p).expect("bounded count-up terminates");
        let rank = &solution[&n];
        // The measure must mention n - x with a positive factor.
        assert!(rank.coeff("n").is_positive());
        assert!(rank.coeff("x").is_negative());
    }

    #[test]
    fn no_ranking_for_infinite_loop() {
        // while (x >= 0) x = x + 1
        let mut p = TransitionSystem::new();
        let n = p.add_node(&["x"]);
        let next = Lin::var("x").add_const(r(1));
        let mut guard = vec![Ineq::ge_zero(Lin::var("x"))];
        guard.extend(eq(Lin::var("x'"), next.clone()));
        p.add_transition(Transition::new(n, n, vec!["x'".into()], vec![next], guard));
        assert!(synthesize(&p).is_none());
    }

    #[test]
    fn foo_example_from_paper() {
        // foo(x, y): if (x < 0) return; else foo(x + y, y);  under the case y < 0.
        // Transition context: x >= 0 ∧ x' = x + y ∧ y' = y ∧ x' >= 0 ∧ y < 0.
        let mut p = TransitionSystem::new();
        let n = p.add_node(&["x", "y"]);
        let next = Lin::var("x").add(&Lin::var("y"));
        let mut guard = vec![
            Ineq::ge_zero(Lin::var("x")),
            Ineq::ge_zero(Lin::var("x'")),
            Ineq::ge(Lin::constant(r(-1)), Lin::var("y")),
        ];
        guard.extend(eq(Lin::var("x'"), next.clone()));
        guard.extend(eq(Lin::var("y'"), Lin::var("y")));
        p.add_transition(Transition::new(
            n,
            n,
            vec!["x'".into(), "y'".into()],
            vec![next, Lin::var("y")],
            guard,
        ));
        let solution = synthesize(&p).expect("paper reports Term [x]");
        assert!(solution[&n].coeff("x").is_positive());
    }

    #[test]
    fn mutual_recursion_two_nodes() {
        // even(n) calls odd(n-1) when n > 0; odd(n) calls even(n-1) when n > 0.
        let mut p = TransitionSystem::new();
        let even = p.add_node(&["n"]);
        let odd = p.add_node(&["m"]);
        let n_next = Lin::var("n").add_const(r(-1));
        let mut g1 = vec![Ineq::ge(Lin::var("n"), Lin::constant(r(1)))];
        g1.extend(eq(Lin::var("n1"), n_next.clone()));
        p.add_transition(Transition::new(
            even,
            odd,
            vec!["n1".into()],
            vec![n_next],
            g1,
        ));
        let m_next = Lin::var("m").add_const(r(-1));
        let mut g2 = vec![Ineq::ge(Lin::var("m"), Lin::constant(r(1)))];
        g2.extend(eq(Lin::var("m1"), m_next.clone()));
        p.add_transition(Transition::new(
            odd,
            even,
            vec!["m1".into()],
            vec![m_next],
            g2,
        ));
        let solution = synthesize(&p).expect("mutual countdown terminates");
        assert!(solution[&even].coeff("n").is_positive());
        assert!(solution[&odd].coeff("m").is_positive());
    }

    #[test]
    fn strictly_decreasing_check() {
        let mut p = TransitionSystem::new();
        let n = p.add_node(&["x"]);
        let next = Lin::var("x").add_const(r(-1));
        let mut guard = vec![Ineq::ge_zero(Lin::var("x"))];
        guard.extend(eq(Lin::var("x'"), next.clone()));
        let t = Transition::new(n, n, vec!["x'".into()], vec![next], guard);
        p.add_transition(t.clone());
        let mut good = BTreeMap::new();
        good.insert(n, Lin::var("x"));
        assert!(strictly_decreasing_on(&p, &good, &t));
        let mut bad = BTreeMap::new();
        bad.insert(n, Lin::constant(r(5)));
        assert!(!strictly_decreasing_on(&p, &bad, &t));
    }
}
