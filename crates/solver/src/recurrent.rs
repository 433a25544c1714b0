//! Closed recurrent-set synthesis for non-termination certificates.
//!
//! `prove_NonTerm` (paper Fig. 9) refutes reachability of a post-predicate by
//! covering every exit obligation with already-divergent cases. That argument
//! reads the divergent region off the existing case structure and therefore
//! misses the *aperiodic* non-termination class (NtHorn's `nt-nimkar-fig1.4`),
//! where the region must be discovered. This module synthesizes the missing
//! ingredient: a polyhedral **recurrent set**
//! `S = { v | a₁(v) ≥ 0 ∧ … ∧ aₙ(v) ≥ 0 }` together with an explicit entry
//! state, such that `S` is *closed* under every transition of the loop: for
//! each guarded step `ρ(v, v′)`, `S(v) ∧ ρ(v, v′) ⇒ S(v′)`. Closure is
//! certified per transition through the same Farkas'-lemma implication check
//! the multiphase measures use ([`crate::farkas::Entailment`]), so a returned set
//! is sound by construction; callers additionally re-validate it on sampled
//! concrete valuations as a built-in self-check ([`closed_on_samples`]).
//!
//! The loop is a [`TransitionSystem`] with a single node, whose formals are
//! the set's variables, and whose transitions are the loop's guarded
//! self-calls. A system with any other number of nodes (mutual recursion)
//! yields no set.
//!
//! Candidate atoms are pruned DynamiTe-style before any Farkas check: concrete
//! sample states cheaply refute non-inductive candidates by simulating one
//! transition step, and the survivors are then shrunk to their greatest
//! inductive subset by a Houdini loop over the Farkas checks.

use crate::farkas;
use crate::linear::{Ineq, Lin};
use crate::lp::{LpProblem, VarKind};
use crate::rational::Rational;
use crate::system::{NodeId, Transition, TransitionSystem};
use std::collections::BTreeMap;

/// A synthesized recurrent set: the polyhedral region plus an entry witness.
///
/// Invariant (established by [`synthesize`] and re-checkable with
/// [`is_inductive`]): the conjunction of `atoms` is closed under every
/// transition of the originating system, and `entry` satisfies every atom — so
/// the set is non-empty and every execution that reaches it keeps taking steps
/// inside it.
#[derive(Clone, Debug)]
pub struct RecurrentSet {
    /// The atoms `aᵢ(v) ≥ 0` whose conjunction defines the set.
    pub atoms: Vec<Ineq>,
    /// A concrete state inside the set (the certificate's entry state).
    pub entry: BTreeMap<String, Rational>,
}

impl RecurrentSet {
    /// Whether a concrete state lies inside the set.
    pub fn contains(&self, state: &BTreeMap<String, Rational>) -> bool {
        self.atoms.iter().all(|a| a.holds(state))
    }
}

/// The formals of a single-node system's loop predicate, `None` for any other
/// system.
pub(crate) fn loop_formals(system: &TransitionSystem) -> Option<&[String]> {
    (system.num_nodes() == 1).then(|| system.formals(NodeId(0)))
}

/// Synthesizes a recurrent set from candidate atoms, or `None` when no
/// non-trivial closed subset with an entry state exists (or the simplex work
/// deadline expires mid-search, or the system has more than one node).
///
/// Candidates mentioning variables outside the formals are ignored. The
/// samples serve two purposes: they cheaply refute non-inductive candidates
/// before any LP runs, and the first sample inside the final set becomes the
/// entry witness (with an LP feasibility fall-back when no sample qualifies).
///
/// When several inductive subsets certify, the *most general* one is returned
/// (see [`synthesize_ranked`] for the scoring rule); this is what keeps
/// enriched candidate pools from carving a needlessly small region out of the
/// divergent space.
pub fn synthesize(
    stepper: &Stepper,
    candidates: &[Ineq],
    samples: &[BTreeMap<String, Rational>],
) -> Option<RecurrentSet> {
    synthesize_ranked(stepper, candidates, samples)
        .into_iter()
        .next()
}

/// Synthesizes every certified recurrent set along the greedy generalization
/// chain and returns them ranked most-general-first (empty for a system with
/// more than one node).
///
/// The Houdini loop yields the *greatest* inductive atom subset — which,
/// being the largest conjunction, defines the **smallest** region. That is
/// the wrong preference when the candidate pool is rich: extra inductive
/// atoms (e.g. both `x - y ≥ 0` and `y - x ≥ 0`) carve a needlessly small
/// slab out of the divergent region. This function therefore walks the
/// generalization chain above the Houdini result: at each step it tries
/// every single-atom removal that keeps the remainder inductive, records
/// *every* certified successor (their Farkas checks are already paid), and
/// recurses along the best-scoring one. Recording the siblings matters:
/// callers discharge side conditions (e.g. exit coverage) against the
/// ranked list, and the set that passes them is often a sibling of the
/// greedy path — on `x' = y, y' = y + 1` the path itself runs through
/// half-plane sets that let the exit fire, while the passing full region
/// `x ≥ 0 ∧ y ≥ 0` is a recorded sibling. Every certified set is
/// returned, ordered by the deterministic score:
///
/// 1. sample-coverage count, descending (more samples inside = more
///    general);
/// 2. atom count, ascending (fewer conjuncts = weaker region);
/// 3. canonical atom order (rendered-text comparison) as the final
///    tie-break.
///
/// Callers that must discharge additional side conditions (e.g. the exit
/// obligation coverage of a non-termination proof) iterate the ranked
/// list and take the first set that passes; the empty list means no
/// candidate subset certifies at all.
pub fn synthesize_ranked(
    stepper: &Stepper,
    candidates: &[Ineq],
    samples: &[BTreeMap<String, Rational>],
) -> Vec<RecurrentSet> {
    let system = stepper.system();
    let Some(vars) = loop_formals(system) else {
        return Vec::new();
    };
    let Some(greatest) = greatest_inductive_subset(stepper, vars, candidates, samples) else {
        return Vec::new();
    };
    // Greedy generalization: collect the chain of inductive subsets from
    // the Houdini result towards weaker (larger) regions, one atom at a
    // time. The chain has at most |greatest| elements, so the extra
    // Farkas work stays quadratic in the (already pruned) atom count.
    let mut chain: Vec<Vec<Ineq>> = vec![greatest.clone()];
    let mut current = greatest;
    while current.len() > 1 {
        if crate::work::deadline_exceeded() {
            break;
        }
        let mut successors: Vec<Vec<Ineq>> = Vec::new();
        for index in 0..current.len() {
            let mut reduced = current.clone();
            reduced.remove(index);
            if is_inductive(system, &reduced) {
                successors.push(reduced);
            }
        }
        chain.extend(successors.iter().cloned());
        let Some(best) = successors
            .into_iter()
            .min_by(|a, b| compare_score(a, b, samples))
        else {
            break;
        };
        chain.push(best.clone());
        current = best;
    }
    chain.sort_by(|a, b| compare_score(a, b, samples));
    chain.dedup();
    chain
        .into_iter()
        .filter_map(|atoms| {
            let entry = samples
                .iter()
                .find(|s| atoms.iter().all(|a| a.holds(s)))
                .map(|s| restrict(vars, s))
                .or_else(|| lp_witness(vars, &atoms))?;
            Some(RecurrentSet { atoms, entry })
        })
        .collect()
}

/// Number of samples inside the conjunction of `atoms` — the generality
/// measure of the region scoring (deterministic for a fixed sample set).
fn sample_coverage(atoms: &[Ineq], samples: &[BTreeMap<String, Rational>]) -> usize {
    samples
        .iter()
        .filter(|s| atoms.iter().all(|a| a.holds(s)))
        .count()
}

/// The deterministic score order of the ranked synthesis: coverage
/// descending, then atom count ascending, then canonical atom order.
fn compare_score(
    a: &[Ineq],
    b: &[Ineq],
    samples: &[BTreeMap<String, Rational>],
) -> std::cmp::Ordering {
    let coverage_a = sample_coverage(a, samples);
    let coverage_b = sample_coverage(b, samples);
    coverage_b
        .cmp(&coverage_a)
        .then_with(|| a.len().cmp(&b.len()))
        .then_with(|| {
            let key = |atoms: &[Ineq]| -> Vec<String> {
                let mut rendered: Vec<String> = atoms.iter().map(|atom| atom.to_string()).collect();
                rendered.sort();
                rendered
            };
            key(a).cmp(&key(b))
        })
}

/// The sample pre-filter plus Houdini shrink behind the synthesis: the
/// greatest inductive subset of the candidates over `vars`, or `None` when
/// it is empty (or the work deadline expired).
fn greatest_inductive_subset(
    stepper: &Stepper,
    vars: &[String],
    candidates: &[Ineq],
    samples: &[BTreeMap<String, Rational>],
) -> Option<Vec<Ineq>> {
    let system = stepper.system();
    if system.transitions().is_empty() {
        return None;
    }
    let mut atoms: Vec<Ineq> = Vec::new();
    for candidate in candidates {
        let in_scope = candidate.expr().vars().all(|v| vars.iter().any(|f| f == v));
        if in_scope && !atoms.contains(candidate) {
            atoms.push(candidate.clone());
        }
    }

    // DynamiTe-style pre-filter: drop every candidate a concrete one-step
    // simulation refutes. Dropping only weakens the conjunction, so this
    // never loses soundness — the Farkas loop below certifies whatever
    // survives.
    let mut changed = true;
    while changed && !atoms.is_empty() {
        changed = false;
        for sample in samples {
            if !atoms.iter().all(|a| a.holds(sample)) {
                continue;
            }
            for dst in stepper.successors(sample) {
                let before = atoms.len();
                atoms.retain(|a| a.holds(&dst));
                if atoms.len() != before {
                    changed = true;
                }
            }
        }
    }

    // Houdini: shrink to the greatest inductive subset, certifying closure
    // per transition via Farkas' lemma.
    loop {
        if atoms.is_empty() || crate::work::deadline_exceeded() {
            return None;
        }
        match first_escaping(system, &atoms) {
            Some(index) => {
                atoms.remove(index);
            }
            None => break,
        }
    }
    Some(atoms)
}

/// The index of the first atom that some transition does not preserve: under
/// the premises `atoms ∧ guard`, the atom renamed to the destination state
/// has no Farkas certificate. Transitions are tried in order, and the atoms
/// in order under each, all against one [`farkas::Entailment`] per transition.
fn first_escaping(system: &TransitionSystem, atoms: &[Ineq]) -> Option<usize> {
    system.transitions().iter().find_map(|transition| {
        let mut premises = atoms.to_vec();
        premises.extend(transition.guard.iter().cloned());
        let mut entailment = farkas::Entailment::new(&premises);
        atoms.iter().position(|atom| {
            let target = Ineq::ge_zero(system.rename_to_dst(atom.expr(), transition));
            !entailment.implies(&target)
        })
    })
}

/// Re-certifies that the conjunction of `atoms` is closed under every
/// transition (one sound Farkas implication check per transition × atom).
pub fn is_inductive(system: &TransitionSystem, atoms: &[Ineq]) -> bool {
    first_escaping(system, atoms).is_none()
}

/// Concrete self-check: for every sample inside the set, every enabled
/// transition step must land back inside the set.
///
/// This is the built-in re-validation of synthesized sets on sampled
/// valuations; a sound synthesis can never fail it, so a `false` here
/// indicates a solver defect and callers must discard the certificate.
pub fn closed_on_samples(
    stepper: &Stepper,
    set: &RecurrentSet,
    samples: &[BTreeMap<String, Rational>],
) -> bool {
    samples.iter().all(|sample| {
        !set.contains(sample) || stepper.successors(sample).all(|dst| set.contains(&dst))
    })
}

/// A system's transitions prepared for concrete simulation: the guard
/// equalities of every transition, found once per system and shared by the
/// sample pre-filter, the closure self-check ([`closed_on_samples`]) and the
/// orbit harvest ([`crate::orbit::harvest`]).
pub struct Stepper<'a> {
    system: &'a TransitionSystem,
    /// Per transition, in system order: the expression `e` of each guard
    /// equality, found as an `e ≥ 0` / `−e ≥ 0` atom pair, in guard order.
    equalities: Vec<Vec<&'a Lin>>,
}

impl<'a> Stepper<'a> {
    /// Finds the guard equalities of every transition of `system`.
    pub fn new(system: &'a TransitionSystem) -> Self {
        let equalities = system
            .transitions()
            .iter()
            .map(|transition| {
                let guard = &transition.guard;
                let mut exprs = Vec::new();
                for (i, a) in guard.iter().enumerate() {
                    for b in &guard[i + 1..] {
                        if a.expr().add(b.expr()) == Lin::zero() {
                            exprs.push(a.expr());
                        }
                    }
                }
                exprs
            })
            .collect();
        Stepper { system, equalities }
    }

    /// The simulated system.
    pub(crate) fn system(&self) -> &'a TransitionSystem {
        self.system
    }

    /// The successors of `state`, one concrete step along each enabled
    /// transition, in system order. Lazy, so a short-circuiting consumer
    /// steps no further than it reads.
    pub(crate) fn successors<'s>(
        &'s self,
        state: &'s BTreeMap<String, Rational>,
    ) -> impl Iterator<Item = BTreeMap<String, Rational>> + 's {
        self.system
            .transitions()
            .iter()
            .zip(&self.equalities)
            .filter_map(move |(transition, equalities)| {
                concrete_step(self.system, transition, equalities, state)
            })
    }
}

/// Simulates one step from `state`: pins auxiliary variables forced by the
/// guard's equalities (unit propagation), binds the destination variables
/// from the argument expressions where the guard leaves them free, and
/// returns the successor state over the destination's formals if the guard is
/// satisfied (any remaining unassigned variables default to zero, as in
/// [`Lin::eval`]).
///
/// The equalities are the transition's entry in [`Stepper`], found once per
/// system from the guard's `e ≥ 0` / `−e ≥ 0` atom pairs. The propagation
/// matters for transitions extracted from call contexts, whose argument
/// values flow through intermediate `aux = e` bindings: a plain evaluation
/// would read those auxiliaries as zero and disable (or mis-simulate) the
/// step.
fn concrete_step(
    system: &TransitionSystem,
    transition: &Transition,
    equalities: &[&Lin],
    state: &BTreeMap<String, Rational>,
) -> Option<BTreeMap<String, Rational>> {
    let mut extended = state.clone();
    // Each equality pins its single unassigned variable (if any) to the value
    // making its expression zero.
    let mut progress = true;
    while progress {
        progress = false;
        for expr in equalities {
            let mut unassigned = None;
            let mut ambiguous = false;
            for v in expr.vars() {
                if !extended.contains_key(v) {
                    if unassigned.is_some() {
                        ambiguous = true;
                        break;
                    }
                    unassigned = Some(v.to_string());
                }
            }
            if ambiguous {
                continue;
            }
            let Some(v) = unassigned else { continue };
            let coeff = expr.coeff(&v);
            let rest = expr.substitute(&v, &Lin::zero());
            extended.insert(v, -(rest.eval(&extended) * coeff.recip()));
            progress = true;
        }
    }
    for (dst_var, arg) in transition.dst_vars.iter().zip(&transition.args) {
        if !extended.contains_key(dst_var) {
            let value = arg.eval(&extended);
            extended.insert(dst_var.clone(), value);
        }
    }
    if !transition.guard.iter().all(|g| g.holds(&extended)) {
        return None;
    }
    Some(
        system
            .formals(transition.dst)
            .iter()
            .zip(&transition.dst_vars)
            .map(|(formal, dst_var)| {
                (
                    formal.clone(),
                    extended
                        .get(dst_var)
                        .copied()
                        .unwrap_or_else(Rational::zero),
                )
            })
            .collect(),
    )
}

fn restrict(vars: &[String], state: &BTreeMap<String, Rational>) -> BTreeMap<String, Rational> {
    vars.iter()
        .map(|v| {
            (
                v.clone(),
                state.get(v).copied().unwrap_or_else(Rational::zero),
            )
        })
        .collect()
}

/// Finds a rational entry state inside the atoms via LP feasibility.
fn lp_witness(vars: &[String], atoms: &[Ineq]) -> Option<BTreeMap<String, Rational>> {
    let mut lp = LpProblem::new();
    for v in vars {
        lp.declare(v, VarKind::Free);
    }
    for atom in atoms {
        lp.require_nonneg(atom.expr().clone());
    }
    let solution = lp.solve();
    if !solution.is_feasible() {
        return None;
    }
    Some(
        vars.iter()
            .map(|v| (v.clone(), solution.value(v)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128) -> Rational {
        Rational::from(n)
    }

    fn env(pairs: &[(&str, i128)]) -> BTreeMap<String, Rational> {
        pairs.iter().map(|(v, n)| (v.to_string(), r(*n))).collect()
    }

    /// A loop predicate over `formals`, with no transitions yet.
    fn loop_over(formals: &[&str]) -> TransitionSystem {
        let mut p = TransitionSystem::new();
        p.add_node(formals);
        p
    }

    /// A self-call of the loop predicate.
    fn self_call(dst_vars: Vec<String>, args: Vec<Lin>, guard: Vec<Ineq>) -> Transition {
        Transition::new(NodeId(0), NodeId(0), dst_vars, args, guard)
    }

    /// while (x >= 0) x = x + 1 — the whole guard region is recurrent.
    fn incrementing_counter() -> TransitionSystem {
        let mut p = loop_over(&["x"]);
        let mut guard = vec![Ineq::ge_zero(Lin::var("x"))];
        guard.extend(Ineq::eq_zero(
            Lin::var("x'").sub(&Lin::var("x")).add_const(r(-1)),
        ));
        p.add_transition(self_call(
            vec!["x'".into()],
            vec![Lin::var("x").add_const(r(1))],
            guard,
        ));
        p
    }

    #[test]
    fn incrementing_counter_has_recurrent_set() {
        let p = incrementing_counter();
        let candidates = vec![Ineq::ge_zero(Lin::var("x"))];
        let samples = vec![env(&[("x", 3)]), env(&[("x", -2)])];
        let set = synthesize(&Stepper::new(&p), &candidates, &samples).expect("x >= 0 recurs");
        assert_eq!(set.atoms.len(), 1);
        assert!(set.contains(&env(&[("x", 3)])));
        assert!(!set.contains(&env(&[("x", -1)])));
        assert_eq!(set.entry, env(&[("x", 3)]));
        assert!(is_inductive(&p, &set.atoms));
        assert!(closed_on_samples(&Stepper::new(&p), &set, &samples));
    }

    #[test]
    fn countdown_admits_no_recurrent_set_from_its_guard() {
        // while (x >= 0) x = x - 1 — x >= 0 is not closed (x = 0 steps out).
        let mut p = loop_over(&["x"]);
        let mut guard = vec![Ineq::ge_zero(Lin::var("x"))];
        guard.extend(Ineq::eq_zero(
            Lin::var("x'").sub(&Lin::var("x")).add_const(r(1)),
        ));
        p.add_transition(self_call(
            vec!["x'".into()],
            vec![Lin::var("x").add_const(r(-1))],
            guard,
        ));
        let candidates = vec![Ineq::ge_zero(Lin::var("x"))];
        assert!(synthesize(&Stepper::new(&p), &candidates, &[env(&[("x", 5)])]).is_none());
    }

    #[test]
    fn samples_prune_non_inductive_candidates() {
        // x <= 5 is refuted by simulating one step from x = 5 (5 → 6).
        let p = incrementing_counter();
        let candidates = vec![
            Ineq::ge_zero(Lin::var("x")),
            Ineq::ge(Lin::constant(r(5)), Lin::var("x")),
        ];
        let samples = vec![env(&[("x", 5)])];
        let set = synthesize(&Stepper::new(&p), &candidates, &samples).expect("x >= 0 survives");
        assert_eq!(set.atoms, vec![Ineq::ge_zero(Lin::var("x"))]);
    }

    #[test]
    fn entry_witness_falls_back_to_lp_when_no_sample_qualifies() {
        let p = incrementing_counter();
        let candidates = vec![Ineq::ge_zero(Lin::var("x"))];
        let samples = vec![env(&[("x", -7)])];
        let set = synthesize(&Stepper::new(&p), &candidates, &samples).expect("set exists");
        assert!(
            set.contains(&set.entry),
            "LP witness must satisfy the atoms"
        );
    }

    #[test]
    fn empty_candidate_pool_yields_nothing() {
        let p = incrementing_counter();
        assert!(synthesize(&Stepper::new(&p), &[], &[env(&[("x", 1)])]).is_none());
    }

    #[test]
    fn no_transitions_yields_nothing() {
        let p = loop_over(&["x"]);
        let candidates = vec![Ineq::ge_zero(Lin::var("x"))];
        assert!(synthesize(&Stepper::new(&p), &candidates, &[]).is_none());
    }

    #[test]
    fn out_of_scope_candidates_are_ignored() {
        let p = incrementing_counter();
        let candidates = vec![Ineq::ge_zero(Lin::var("y"))];
        assert!(synthesize(&Stepper::new(&p), &candidates, &[env(&[("x", 1)])]).is_none());
    }

    #[test]
    fn aperiodic_nested_loop_guard_is_recurrent() {
        // Outer loop of nt-nimkar-fig1.4: while (k >= 0) { k = k + 1; j = k;
        // inner loop drains j to 0 } — transition context carries an auxiliary
        // post-state of the inner loop, but k >= 0 is closed regardless of j.
        let mut p = loop_over(&["j", "k"]);
        let mut guard = vec![Ineq::ge_zero(Lin::var("k"))];
        guard.extend(Ineq::eq_zero(
            Lin::var("k'").sub(&Lin::var("k")).add_const(r(-1)),
        ));
        // j' is the inner loop's exit value: only j' <= k' is known.
        guard.push(Ineq::ge(Lin::var("k'"), Lin::var("j'")));
        p.add_transition(self_call(
            vec!["j'".into(), "k'".into()],
            vec![Lin::zero(), Lin::var("k").add_const(r(1))],
            guard,
        ));
        let candidates = vec![Ineq::ge_zero(Lin::var("k")), Ineq::ge_zero(Lin::var("j"))];
        let samples = vec![env(&[("j", 0), ("k", 2)])];
        let set = synthesize(&Stepper::new(&p), &candidates, &samples).expect("k >= 0 recurs");
        assert_eq!(set.atoms, vec![Ineq::ge_zero(Lin::var("k"))]);
        assert!(is_inductive(&p, &set.atoms));
        assert!(closed_on_samples(&Stepper::new(&p), &set, &samples));
    }

    #[test]
    fn two_node_system_yields_no_recurrent_set() {
        // even(x) calls odd(x + 1) and odd(x) calls even(x + 1), both under
        // x >= 0: the region x >= 0 is closed under both calls, but the
        // synthesis reads a single loop predicate, so a two-node system
        // yields nothing.
        let mut p = TransitionSystem::new();
        let even = p.add_node(&["x"]);
        let odd = p.add_node(&["x"]);
        for (src, dst) in [(even, odd), (odd, even)] {
            let next = Lin::var("x").add_const(r(1));
            let mut guard = vec![Ineq::ge_zero(Lin::var("x"))];
            guard.extend(Ineq::eq_zero(Lin::var("x'").sub(&next)));
            p.add_transition(Transition::new(
                src,
                dst,
                vec!["x'".into()],
                vec![next],
                guard,
            ));
        }
        let candidates = vec![Ineq::ge_zero(Lin::var("x"))];
        let samples = vec![env(&[("x", 3)])];
        assert!(is_inductive(&p, &candidates), "x >= 0 is closed");
        assert!(synthesize(&Stepper::new(&p), &candidates, &samples).is_none());
        assert!(synthesize_ranked(&Stepper::new(&p), &candidates, &samples).is_empty());
    }
}
