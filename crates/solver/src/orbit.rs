//! Orbit-harvested candidate atoms for recurrent-set synthesis.
//!
//! The guard/cube atoms of a scenario are blind to divergence regions
//! delimited by an inequality appearing in no guard: the additive drift
//! `x' = x + y, y' = y + 1` guarded only by `x ≥ 0` diverges exactly on
//! `x ≥ 0 ∧ y ≥ 0`, but `y ≥ 0` occurs nowhere in the program text. DynamiTe
//! resolves this by looking at the *dynamics* instead of the syntax: simulate
//! concrete orbits from sampled valuations and harvest, as candidate
//! half-spaces, the inequalities that hold along every orbit that keeps
//! running. This module implements that harvest over the same single-node
//! transition system the recurrent-set synthesis consumes, stepped by the
//! same [`Stepper`], so the enriched pass plugs in where the guard-atom pass
//! already runs.
//!
//! Three candidate sources are harvested from the sampled divergent orbits
//! (deterministically — the orbits come from seeded valuations and the
//! transitions are tried in system order):
//!
//! 1. **sign atoms** `v ≥ 0` / `−v ≥ 0` of every formal that keeps one sign;
//! 2. **pairwise differences and sums** `±(v − w) ≥ 0` / `±(v + w) ≥ 0` that
//!    never flip (sums catch drift split across two variables, e.g.
//!    `x' = x + y + z` diverging on `y + z ≥ 0` with neither sign fixed);
//! 3. **fitted affine combinations**: for each variable pair, a combination
//!    `v − λ·w` with `λ` fitted from one consecutive state pair, kept when it
//!    is conserved (emitted with its observed bounds) or monotone of one sign
//!    along every orbit.
//!
//! Only the orbit *tails* (the second half of each simulation) are inspected:
//! a recurrent set captures *eventual* behaviour, and transient prefixes —
//! e.g. `y` climbing from a slightly negative start while `x` still has slack
//! — would otherwise refute atoms that do hold on the divergent region. The
//! harvest is heuristic either way: every returned atom is merely a
//! *candidate*, and the Farkas closure checks of
//! [`crate::recurrent::synthesize_ranked`] remain the only soundness gate.

use crate::linear::{Ineq, Lin};
use crate::rational::Rational;
use crate::recurrent::{loop_formals, Stepper};
use std::collections::BTreeMap;

/// One concrete state of an orbit (a valuation of the loop's formals).
type State = BTreeMap<String, Rational>;

/// Simulates multi-step orbits of the single-node system behind `stepper`
/// from the given start states and harvests candidate half-spaces from the
/// orbits that survive all `steps` steps (see the module docs for the three
/// candidate sources).
///
/// A step takes the first enabled transition in system order, which keeps
/// the simulation deterministic for nondeterministic scenarios. Orbits whose
/// start state violates every guard die immediately and contribute nothing;
/// when *no* orbit survives, or the system has more than one node, the
/// harvest is empty and the caller falls back to the guard-atom pool
/// unchanged.
pub fn harvest(stepper: &Stepper, samples: &[State], steps: usize) -> Vec<Ineq> {
    let Some(vars) = loop_formals(stepper.system()) else {
        return Vec::new();
    };
    let tails: Vec<Vec<State>> = samples
        .iter()
        .filter_map(|start| divergent_tail(stepper, start, steps))
        .collect();
    if tails.is_empty() {
        return Vec::new();
    }
    let states: Vec<&State> = tails.iter().flatten().collect();
    let mut candidates: Vec<Ineq> = Vec::new();
    let mut push = |atom: Ineq| {
        if !candidates.contains(&atom) {
            candidates.push(atom);
        }
    };
    // 1. Sign atoms of single variables.
    for v in vars {
        let expr = Lin::var(v.clone());
        if states.iter().all(|s| !expr.eval(s).is_negative()) {
            push(Ineq::ge_zero(expr.clone()));
        }
        if states.iter().all(|s| !expr.eval(s).is_positive()) {
            push(Ineq::ge_zero(expr.scale(-Rational::one())));
        }
    }
    // 2. Pairwise differences and sums that never flip.
    for (i, v) in vars.iter().enumerate() {
        for w in &vars[i + 1..] {
            let diff = Lin::var(v.clone()).sub(&Lin::var(w.clone()));
            let sum = Lin::var(v.clone()).add(&Lin::var(w.clone()));
            for expr in [diff, sum] {
                if states.iter().all(|s| !expr.eval(s).is_negative()) {
                    push(Ineq::ge_zero(expr.clone()));
                }
                if states.iter().all(|s| !expr.eval(s).is_positive()) {
                    push(Ineq::ge_zero(expr.scale(-Rational::one())));
                }
            }
        }
    }
    // 3. Affine combinations fitted from consecutive states.
    for (i, v) in vars.iter().enumerate() {
        for w in &vars[i + 1..] {
            for atom in fitted_combination(&tails, v, w) {
                push(atom);
            }
        }
    }
    candidates
}

/// Runs one orbit for `steps` steps and returns its tail (the states from
/// index `steps / 2` on) when it survives the full horizon, `None` otherwise.
fn divergent_tail(stepper: &Stepper, start: &State, steps: usize) -> Option<Vec<State>> {
    let mut orbit: Vec<State> = vec![start.clone()];
    let mut current = start.clone();
    for _ in 0..steps {
        let next = stepper.successors(&current).next()?;
        orbit.push(next.clone());
        current = next;
    }
    Some(orbit.split_off(steps / 2))
}

/// Fits `e = v − λ·w` from the first consecutive pair with both deltas
/// non-zero, then classifies `e` along every consecutive pair of every tail:
/// conserved combinations are emitted with their observed bounds, monotone
/// single-signed ones as plain sign atoms.
fn fitted_combination(tails: &[Vec<State>], v: &str, w: &str) -> Vec<Ineq> {
    let delta = |a: &State, b: &State, x: &str| {
        b.get(x).copied().unwrap_or_else(Rational::zero)
            - a.get(x).copied().unwrap_or_else(Rational::zero)
    };
    let lambda = tails.iter().find_map(|tail| {
        tail.windows(2).find_map(|pair| {
            let dv = delta(&pair[0], &pair[1], v);
            let dw = delta(&pair[0], &pair[1], w);
            if dv.is_zero() || dw.is_zero() {
                None
            } else {
                Some(dv * dw.recip())
            }
        })
    });
    let Some(lambda) = lambda else {
        return Vec::new();
    };
    let expr = Lin::var(v.to_string()).sub(&Lin::var(w.to_string()).scale(lambda));
    let steps: Vec<Rational> = tails
        .iter()
        .flat_map(|tail| {
            tail.windows(2)
                .map(|pair| expr.eval(&pair[1]) - expr.eval(&pair[0]))
        })
        .collect();
    let values: Vec<Rational> = tails
        .iter()
        .flat_map(|tail| tail.iter().map(|s| expr.eval(s)))
        .collect();
    let mut out = Vec::new();
    if steps.iter().all(|d| d.is_zero()) {
        // Conserved combination: any bound on it is preserved, so offer the
        // observed range (the region scoring strips bounds that over-carve).
        let min = values.iter().copied().min().expect("tails are non-empty");
        let max = values.iter().copied().max().expect("tails are non-empty");
        out.push(Ineq::ge_zero(expr.add_const(-min)));
        out.push(Ineq::ge_zero(expr.scale(-Rational::one()).add_const(max)));
    } else if steps.iter().all(|d| !d.is_negative()) && values.iter().all(|e| !e.is_negative()) {
        out.push(Ineq::ge_zero(expr));
    } else if steps.iter().all(|d| !d.is_positive()) && values.iter().all(|e| !e.is_positive()) {
        out.push(Ineq::ge_zero(expr.scale(-Rational::one())));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{Transition, TransitionSystem};

    fn r(n: i128) -> Rational {
        Rational::from(n)
    }

    fn env(pairs: &[(&str, i128)]) -> State {
        pairs.iter().map(|(v, n)| (v.to_string(), r(*n))).collect()
    }

    /// A loop over `formals` with one self-call to `args`: the guard is
    /// `x >= 0` plus the bindings `v' = args[i]`.
    fn guarded_loop(formals: &[&str], args: Vec<Lin>) -> TransitionSystem {
        let mut p = TransitionSystem::new();
        let n = p.add_node(formals);
        let mut guard = vec![Ineq::ge_zero(Lin::var("x"))];
        let mut dst_vars = Vec::new();
        for (v, arg) in formals.iter().zip(&args) {
            let primed = format!("{v}'");
            guard.extend(Ineq::eq_zero(Lin::var(primed.clone()).sub(arg)));
            dst_vars.push(primed);
        }
        p.add_transition(Transition::new(n, n, dst_vars, args, guard));
        p
    }

    /// while (x >= 0) { x = x + y; y = y + 1; } — the additive drift whose
    /// divergent region x >= 0 ∧ y >= 0 mentions the guard-less atom y >= 0.
    fn additive_drift() -> TransitionSystem {
        guarded_loop(
            &["x", "y"],
            vec![
                Lin::var("x").add(&Lin::var("y")),
                Lin::var("y").add_const(r(1)),
            ],
        )
    }

    #[test]
    fn harvests_guardless_sign_atom_from_drift_orbits() {
        let p = additive_drift();
        let samples = vec![
            env(&[("x", 3), ("y", 2)]),
            env(&[("x", 10), ("y", 0)]),
            env(&[("x", 1), ("y", -20)]), // dies: x goes negative immediately
            env(&[("x", -4), ("y", 9)]),  // dies: guard fails at the start
        ];
        let harvested = harvest(&Stepper::new(&p), &samples, 12);
        assert!(
            harvested.contains(&Ineq::ge_zero(Lin::var("y"))),
            "y >= 0 must be harvested from the surviving orbits: {harvested:?}"
        );
        assert!(harvested.contains(&Ineq::ge_zero(Lin::var("x"))));
    }

    #[test]
    fn transient_prefixes_do_not_refute_tail_atoms() {
        // y starts slightly negative but x has slack: the orbit survives and
        // y becomes (and stays) non-negative. Harvesting over whole orbits
        // would lose y >= 0; the tail restriction keeps it.
        let p = additive_drift();
        let samples = vec![env(&[("x", 12), ("y", -2)])];
        let harvested = harvest(&Stepper::new(&p), &samples, 12);
        assert!(
            harvested.contains(&Ineq::ge_zero(Lin::var("y"))),
            "tail harvest must survive the negative-y prefix: {harvested:?}"
        );
    }

    #[test]
    fn no_surviving_orbit_harvests_nothing() {
        let p = additive_drift();
        let samples = vec![env(&[("x", -1), ("y", -1)])];
        assert!(harvest(&Stepper::new(&p), &samples, 12).is_empty());
    }

    #[test]
    fn pairwise_sum_atom_survives_where_single_signs_flip() {
        // while (x >= 0) { x = x + y + z; y = y - 1; z = z + 1; } — the
        // coupled drift: y + z is conserved, but neither y nor z keeps one
        // sign across both orbits below, so the sum atom is the only
        // harvested half-space that names the divergence boundary.
        let p = guarded_loop(
            &["x", "y", "z"],
            vec![
                Lin::var("x").add(&Lin::var("y")).add(&Lin::var("z")),
                Lin::var("y").add_const(r(-1)),
                Lin::var("z").add_const(r(1)),
            ],
        );
        let samples = vec![
            env(&[("x", 50), ("y", 5), ("z", -2)]),   // tail: y < 0, z > 0
            env(&[("x", 50), ("y", 40), ("z", -37)]), // tail: y > 0, z < 0
        ];
        let harvested = harvest(&Stepper::new(&p), &samples, 12);
        let sum = Lin::var("y").add(&Lin::var("z"));
        assert!(
            harvested.contains(&Ineq::ge_zero(sum.clone())),
            "the conserved-positive sum y + z >= 0 must be harvested: {harvested:?}"
        );
        assert!(
            !harvested.contains(&Ineq::ge_zero(sum.scale(-Rational::one()))),
            "y + z stays positive, so its negation must not be harvested"
        );
        for refuted in [
            Ineq::ge_zero(Lin::var("y")),
            Ineq::ge_zero(Lin::var("y").scale(-Rational::one())),
            Ineq::ge_zero(Lin::var("z")),
            Ineq::ge_zero(Lin::var("z").scale(-Rational::one())),
        ] {
            assert!(
                !harvested.contains(&refuted),
                "a flipping single sign leaked into the harvest: {refuted:?}"
            );
        }
    }

    #[test]
    fn conserved_combination_is_fitted_with_bounds() {
        // while (x >= 0) { x = x + z; z = z; } with a constant z: x − 0·z is
        // not the interesting fit; instead pair (x, z) moves (Δx = z, Δz = 0),
        // so use a genuinely coupled system: x' = x + 1, y' = y + 1 — the
        // difference x − y is conserved.
        let p = guarded_loop(
            &["x", "y"],
            vec![Lin::var("x").add_const(r(1)), Lin::var("y").add_const(r(1))],
        );
        let samples = vec![env(&[("x", 0), ("y", 5)]), env(&[("x", 2), ("y", 0)])];
        let harvested = harvest(&Stepper::new(&p), &samples, 8);
        // λ fits to 1, the conserved x − y ∈ {−5, 2} is emitted with bounds.
        let conserved_lo = Ineq::ge_zero(Lin::var("x").sub(&Lin::var("y")).add_const(r(5)));
        let conserved_hi = Ineq::ge_zero(Lin::var("y").sub(&Lin::var("x")).add_const(r(2)));
        assert!(
            harvested.contains(&conserved_lo) && harvested.contains(&conserved_hi),
            "conserved combination bounds missing: {harvested:?}"
        );
    }

    #[test]
    fn harvest_is_deterministic() {
        let p = additive_drift();
        let samples = vec![env(&[("x", 3), ("y", 2)]), env(&[("x", 12), ("y", -2)])];
        assert_eq!(
            harvest(&Stepper::new(&p), &samples, 12),
            harvest(&Stepper::new(&p), &samples, 12)
        );
    }
}
