//! Lexicographic linear ranking-function synthesis.
//!
//! The paper (Sec. 5.4) mentions that HIPTNT+ "also supports the synthesis of
//! lexicographic ranking functions". We implement the standard iterative
//! edge-elimination scheme (à la Alias–Darte–Feautrier / Bradley): repeatedly find a
//! single affine component that is bounded and non-increasing on every remaining
//! transition and strictly decreasing on at least one; remove every transition on
//! which it strictly decreases; repeat until no transitions remain. The sequence of
//! components, in discovery order, is a valid lexicographic ranking measure.

use crate::linear::Lin;
use crate::multiphase::{self, MaxComponent, MeasureItem};
use crate::ranking;
use crate::system::{NodeId, Transition, TransitionSystem};
use std::collections::BTreeMap;

/// A lexicographic measure whose components may be affine or `max(f, g)` items.
pub type MixedMeasure = BTreeMap<NodeId, Vec<MeasureItem>>;

/// One synthesized component covering every node at once.
enum Component {
    Affine(BTreeMap<NodeId, Lin>),
    Max(MaxComponent),
}

/// Attempts to synthesize a lexicographic ranking measure of at most
/// `max_components` components for the given system.
///
/// With `allow_max` set, a `max(f, g)` slot is tried whenever no plain affine
/// component can eliminate a remaining transition: the candidate max components
/// of [`crate::multiphase`] are checked before giving up, and every max claim is
/// certified by the sound Farkas case-split check. Without it, every component
/// is affine.
///
/// Returns `None` if the iterative scheme gets stuck (no component can eliminate
/// any remaining transition) or the component budget is exhausted.
///
/// # Examples
///
/// ```
/// use tnt_solver::lexicographic::synthesize_lexicographic_mixed;
/// use tnt_solver::multiphase::MeasureItem;
/// use tnt_solver::system::{Transition, TransitionSystem};
/// use tnt_solver::{Ineq, Lin, Rational};
///
/// // The gcd-style loop on positive inputs needs max(x, y).
/// let one = || Lin::constant(Rational::one());
/// let mut p = TransitionSystem::new();
/// let n = p.add_node(&["x", "y"]);
/// for (upper, lower) in [("x", "y"), ("y", "x")] {
///     let mut g = vec![
///         Ineq::ge(Lin::var("x"), one()),
///         Ineq::ge(Lin::var("y"), one()),
///         Ineq::ge(Lin::var(upper), Lin::var(lower).add(&one())),
///     ];
///     // The larger variable drops by the smaller one; the other stays.
///     let args: Vec<Lin> = ["x", "y"]
///         .map(|v| if v == upper { Lin::var(upper).sub(&Lin::var(lower)) } else { Lin::var(v) })
///         .to_vec();
///     for (dst, arg) in ["x'", "y'"].iter().zip(&args) {
///         g.extend(Ineq::eq_zero(Lin::var(*dst).sub(arg)));
///     }
///     p.add_transition(Transition::new(n, n, vec!["x'".into(), "y'".into()], args, g));
/// }
/// let measure = synthesize_lexicographic_mixed(&p, 4, true).unwrap();
/// assert!(!measure[&n].is_empty());
/// ```
pub fn synthesize_lexicographic_mixed(
    system: &TransitionSystem,
    max_components: usize,
    allow_max: bool,
) -> Option<MixedMeasure> {
    // Fast path: a single affine component handling everything at once.
    if let Some(single) = ranking::synthesize(system) {
        return Some(
            single
                .into_iter()
                .map(|(n, lin)| (n, vec![MeasureItem::Affine(lin)]))
                .collect(),
        );
    }

    let mut remaining: Vec<&Transition> = system.transitions().iter().collect();
    let mut components: Vec<Component> = Vec::new();

    while !remaining.is_empty() {
        if components.len() >= max_components || crate::work::deadline_exceeded() {
            return None;
        }
        // One LP finds an affine component that is bounded and non-increasing on
        // every remaining transition and strict on as many as possible at once.
        // Remove every transition on which the component strictly decreases (and is
        // bounded); strictness is claimed by construction, but we verify via the
        // sound Farkas check to stay conservative.
        if let Some(measure) = ranking::synthesize_component(system, &remaining) {
            let before = remaining.len();
            remaining.retain(|t| !ranking::strictly_decreasing_on(system, &measure, t));
            if remaining.len() < before {
                components.push(Component::Affine(measure));
                continue;
            }
        }
        // No affine component eliminates a transition: try a max(f, g) slot.
        if !allow_max {
            return None;
        }
        let mut progressed = false;
        for candidate in multiphase::max_component_candidates(system) {
            if crate::work::deadline_exceeded() {
                return None;
            }
            if !remaining
                .iter()
                .all(|t| multiphase::max_decreasing_on(system, &candidate, t, false))
            {
                continue;
            }
            let before = remaining.len();
            remaining.retain(|t| !multiphase::max_decreasing_on(system, &candidate, t, true));
            if remaining.len() < before {
                components.push(Component::Max(candidate));
                progressed = true;
                break;
            }
        }
        if !progressed {
            return None;
        }
    }

    let mut result: MixedMeasure = BTreeMap::new();
    for i in 0..system.num_nodes() {
        let node = NodeId(i);
        let comps = components
            .iter()
            .map(|c| match c {
                Component::Affine(m) => {
                    MeasureItem::Affine(m.get(&node).cloned().unwrap_or_else(Lin::zero))
                }
                Component::Max(m) => {
                    let (f, g) = m.get(&node).cloned().unwrap_or((Lin::zero(), Lin::zero()));
                    MeasureItem::Max(f, g)
                }
            })
            .collect();
        result.insert(node, comps);
    }
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Ineq;
    use crate::rational::Rational;

    fn r(n: i128) -> Rational {
        Rational::from(n)
    }

    fn eq(lhs: Lin, rhs: Lin) -> Vec<Ineq> {
        Ineq::eq_zero(lhs.sub(&rhs)).to_vec()
    }

    /// A self-loop over `(i, j)`: guard `atoms` plus the bindings `i' = args[0]`,
    /// `j' = args[1]`.
    fn ij_step(n: NodeId, atoms: Vec<Ineq>, args: [Lin; 2]) -> Transition {
        let mut guard = atoms;
        guard.extend(eq(Lin::var("i'"), args[0].clone()));
        guard.extend(eq(Lin::var("j'"), args[1].clone()));
        Transition::new(n, n, vec!["i'".into(), "j'".into()], args.to_vec(), guard)
    }

    /// The nested loop: no single affine function decreases on both
    /// transitions (both guarded by i >= 0), but [i, j] works.
    ///   t1: i' = i - 1, j' arbitrary large (modelled j' = j + i, no bound needed)
    ///   t2: i' = i,     j >= 0, j' = j - 1
    fn nested_loop() -> (TransitionSystem, NodeId) {
        let mut p = TransitionSystem::new();
        let n = p.add_node(&["i", "j"]);
        let (i, j) = (Lin::var("i"), Lin::var("j"));
        p.add_transition(ij_step(
            n,
            vec![Ineq::ge_zero(i.clone())],
            [i.add_const(r(-1)), j.add(&i)],
        ));
        p.add_transition(ij_step(
            n,
            vec![Ineq::ge_zero(i.clone()), Ineq::ge_zero(j.clone())],
            [i.clone(), j.add_const(r(-1))],
        ));
        (p, n)
    }

    #[test]
    fn single_component_when_possible() {
        let mut p = TransitionSystem::new();
        let n = p.add_node(&["x"]);
        let next = Lin::var("x").add_const(r(-1));
        let mut guard = vec![Ineq::ge_zero(Lin::var("x"))];
        guard.extend(eq(Lin::var("x'"), next.clone()));
        p.add_transition(Transition::new(n, n, vec!["x'".into()], vec![next], guard));
        let measure = synthesize_lexicographic_mixed(&p, 3, false).expect("terminates");
        assert_eq!(measure[&n].len(), 1);
    }

    #[test]
    fn nested_loop_needs_two_components() {
        let (p, n) = nested_loop();
        assert!(
            ranking::synthesize(&p).is_none(),
            "no single linear measure"
        );
        let measure =
            synthesize_lexicographic_mixed(&p, 4, false).expect("lexicographic measure exists");
        assert!(measure[&n].len() >= 2);
        assert!(measure[&n].iter().all(|item| item.as_affine().is_some()));
    }

    #[test]
    fn non_terminating_loop_has_no_measure() {
        let mut p = TransitionSystem::new();
        let n = p.add_node(&["x"]);
        let next = Lin::var("x").add_const(r(1));
        let mut guard = vec![Ineq::ge_zero(Lin::var("x"))];
        guard.extend(eq(Lin::var("x'"), next.clone()));
        p.add_transition(Transition::new(n, n, vec!["x'".into()], vec![next], guard));
        assert!(synthesize_lexicographic_mixed(&p, 4, false).is_none());
    }

    #[test]
    fn mixed_synthesis_uses_max_when_affine_components_stall() {
        // gcd on positive inputs: no affine lexicographic measure exists over the
        // two subtractive transitions, but max(x, y) eliminates both at once.
        let mut p = TransitionSystem::new();
        let n = p.add_node(&["x", "y"]);
        let one = || Lin::constant(r(1));
        for (upper, lower) in [("x", "y"), ("y", "x")] {
            let mut g = vec![
                Ineq::ge(Lin::var("x"), one()),
                Ineq::ge(Lin::var("y"), one()),
                Ineq::ge(Lin::var(upper), Lin::var(lower).add(&one())),
            ];
            let dropped = Lin::var(upper).sub(&Lin::var(lower));
            g.extend(eq(Lin::var(format!("{upper}'")), dropped.clone()));
            g.extend(eq(Lin::var(format!("{lower}'")), Lin::var(lower)));
            let args = if upper == "x" {
                vec![dropped, Lin::var("y")]
            } else {
                vec![Lin::var("x"), dropped]
            };
            p.add_transition(Transition::new(
                n,
                n,
                vec!["x'".into(), "y'".into()],
                args,
                g,
            ));
        }
        let measure = synthesize_lexicographic_mixed(&p, 4, true).expect("max slot works");
        // Note: gcd also admits the affine measure x + y under positivity, so the
        // only hard requirement is that *some* certified measure is produced; the
        // max path is exercised by the stall case below.
        assert!(!measure[&n].is_empty());

        // Drop the positivity of y: now x + y is no longer decreasing on the first
        // transition for y <= 0 — in fact nothing affine works, and max cannot be
        // certified either (the loop genuinely diverges for negative y), so mixed
        // synthesis must return None rather than an unsound measure.
        let mut q = TransitionSystem::new();
        let m = q.add_node(&["x", "y"]);
        let next = Lin::var("x").sub(&Lin::var("y"));
        let mut g1 = vec![Ineq::ge(Lin::var("x"), Lin::var("y").add(&one()))];
        g1.extend(eq(Lin::var("x'"), next.clone()));
        g1.extend(eq(Lin::var("y'"), Lin::var("y")));
        q.add_transition(Transition::new(
            m,
            m,
            vec!["x'".into(), "y'".into()],
            vec![next, Lin::var("y")],
            g1,
        ));
        assert!(synthesize_lexicographic_mixed(&q, 4, true).is_none());
    }

    #[test]
    fn component_budget_respected() {
        // Same nested-loop example but with budget 1: must fail.
        let (p, _) = nested_loop();
        assert!(synthesize_lexicographic_mixed(&p, 1, false).is_none());
    }
}
