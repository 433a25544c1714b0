//! `prove_Term` (Fig. 8), `prove_NonTerm` (Fig. 9), the abductive inference `abd_inf`
//! and the `split` partitioning of Sec. 5.6.

use crate::solve::SolveOptions;
use crate::specialize::{EdgeTarget, Obligation, ObligationItem, ReachGraph};
use crate::theta::Theta;
use std::collections::{BTreeMap, BTreeSet};
use tnt_logic::{dnf, entail, qe, sat, simplify, Constraint, Formula, Lin, RelOp};
use tnt_solver::lexicographic::synthesize_lexicographic_mixed;
use tnt_solver::multiphase::synthesize_multiphase;
use tnt_solver::recurrent::{self, RecurrentSet};
use tnt_solver::system::{NodeId, Transition, TransitionSystem};
use tnt_solver::{farkas, ranking, work, Ineq, MeasureItem, Rational};

/// Converts a context formula into guard cubes usable by the ranking back-end: each
/// cube is a conjunction of `≥ 0` inequalities (dis-equalities are dropped, which only
/// weakens the guard and is therefore sound for termination proving).
///
/// These are the cubes of the `All` walk, so some may be infeasible: only
/// `prove_term`'s system drops those (see [`Transitions`]).
fn guard_cubes(ctx: &Formula) -> Vec<Vec<Ineq>> {
    dnf::to_dnf(ctx)
        .into_iter()
        .map(|cube| {
            cube.iter()
                .filter_map(|c| match c.op() {
                    RelOp::Ne => None,
                    _ => c.to_ineqs(),
                })
                .flatten()
                .collect()
        })
        .collect()
}

/// Whether a cube entails `−1 ≥ 0` over the rationals (a Farkas certificate of
/// infeasibility). Cubes infeasible over the integers only are not caught.
fn rationally_infeasible(cube: &[Ineq]) -> bool {
    farkas::implies(cube, &Ineq::ge_zero(Lin::constant(-Rational::one())))
}

/// Which guard cubes of an SCC's edges become transitions in [`scc_system`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Transitions {
    /// Only the cubes that are feasible over ℚ: `prove_term`'s system. A
    /// transition that never fires only adds Farkas rows, and under the affine
    /// multiplier encoding an infeasible premise set can only rule templates
    /// out, so dropping it keeps every proof. Over ℚ only: the integer-tightened
    /// walk (`Walk::Feasible`) would drop more cubes and could change answers.
    Feasible,
    /// Every cube: the conditional prover's ranking step and the recurrent and
    /// orbit system. Filtering these changes summaries (`lit_skip_1`/`_2`
    /// gain point slices), so it waits for exclusive case partitions.
    Every,
}

/// Builds the transition system of an SCC: one node per pre-predicate, one
/// transition per guard cube of every internal edge that `transitions` keeps.
/// A transition's premises are the cube's atoms, then the source node's
/// `restriction` atoms (the entry-restricted conditional proof passes its
/// invariant; the other provers pass none), then the bindings
/// `@dst{edge}_{cube}_{i} = argᵢ` of the destination's arguments. A kept cube
/// keeps its index among all the edge's cubes, so a dropped cube renames no
/// LP column. `None` when a pre-predicate has no formals in the store or an
/// edge passes the wrong number of arguments.
fn scc_system(
    scc: &[String],
    graph: &ReachGraph,
    theta: &Theta,
    restriction: &BTreeMap<String, Vec<Ineq>>,
    transitions: Transitions,
) -> Option<(TransitionSystem, BTreeMap<String, NodeId>)> {
    let mut system = TransitionSystem::new();
    let mut node_of: BTreeMap<String, NodeId> = BTreeMap::new();
    for pre in scc {
        node_of.insert(pre.clone(), system.add_node(theta.vars_of_pre(pre)?));
    }
    for (edge_index, edge) in graph.internal_edges(scc).iter().enumerate() {
        let EdgeTarget::Unknown { pre: dst, args } = &edge.target else {
            continue;
        };
        let (src, dst) = (node_of[&edge.src], node_of[dst]);
        if args.len() != system.formals(dst).len() {
            return None;
        }
        for (cube_index, mut cube) in guard_cubes(&edge.ctx).into_iter().enumerate() {
            if transitions == Transitions::Feasible && rationally_infeasible(&cube) {
                continue;
            }
            if let Some(atoms) = restriction.get(&edge.src) {
                cube.extend(atoms.iter().cloned());
            }
            let mut dst_vars = Vec::new();
            for (i, arg) in args.iter().enumerate() {
                let name = format!("@dst{edge_index}_{cube_index}_{i}");
                cube.extend(Ineq::eq_zero(Lin::var(name.clone()).sub(arg)));
                dst_vars.push(name);
            }
            system.add_transition(Transition::new(src, dst, dst_vars, args.clone(), cube));
        }
    }
    Some((system, node_of))
}

/// The synthesis fall-back chain over an SCC's transition system:
/// linear → lexicographic (with `max(f, g)` slots) → nested multiphase.
fn synthesize_measure(
    system: &TransitionSystem,
    options: &SolveOptions,
) -> Option<BTreeMap<NodeId, Vec<MeasureItem>>> {
    if options.lexicographic {
        // The mixed synthesis starts with the single-component (linear) fast path.
        if let Some(measure) =
            synthesize_lexicographic_mixed(system, options.max_lex_components, options.multiphase)
        {
            return Some(measure);
        }
        if options.multiphase {
            if let Some(phases) = synthesize_multiphase(system, options.max_phases) {
                return Some(
                    phases
                        .into_iter()
                        .map(|(n, tuple)| (n, vec![MeasureItem::Phases(tuple)]))
                        .collect(),
                );
            }
        }
        None
    } else {
        Some(
            ranking::synthesize(system)?
                .into_iter()
                .map(|(n, lin)| (n, vec![MeasureItem::Affine(lin)]))
                .collect(),
        )
    }
}

/// `prove_Term`: synthesises one (lexicographic/multiphase/max) ranking measure per
/// unknown pre-predicate of the SCC. Returns `None` when synthesis fails.
pub fn prove_term(
    scc: &[String],
    graph: &ReachGraph,
    theta: &Theta,
    options: &SolveOptions,
) -> Option<BTreeMap<String, Vec<MeasureItem>>> {
    let (system, node_of) = scc_system(scc, graph, theta, &BTreeMap::new(), Transitions::Feasible)?;
    let measure = synthesize_measure(&system, options)?;
    Some(
        node_of
            .into_iter()
            .map(|(pre, node)| (pre, measure[&node].clone()))
            .collect(),
    )
}

/// One case of a successful entry-restricted conditional termination proof.
#[derive(Clone, Debug)]
pub struct ConditionalCase {
    /// The proven sub-region: the conjunction of the inductive entry atoms.
    pub region: Formula,
    /// A feasibility-unchecked, pairwise-disjoint cover of the region's complement
    /// (decision-tree negation of the atom conjunction); empty when the region is
    /// the whole case.
    pub remainder: Vec<Formula>,
    /// The certified measure, valid on every state reachable inside the region.
    pub measure: Vec<MeasureItem>,
}

/// Entry-restricted conditional termination (`prove_Term` on the reachable
/// sub-region): when an SCC admits no global ranking measure because only *part* of
/// its state space is reachable from the call sites (e.g. a gcd-style loop entered
/// with positive arguments only), restrict the transitions to an inductive
/// invariant implied by every entry context and synthesize the measure there.
///
/// The invariant is computed Houdini-style: candidate atoms are the inequalities
/// implied by every entry region of a node (entry contexts projected onto the
/// callee's formals), pruned to the greatest inductive subset under the SCC's
/// internal edges (each check is a sound Farkas implication). A success resolves
/// each node's case *split on the invariant*: the invariant sub-case is `Term`
/// with the certified measure, the complement stays unknown.
///
/// Soundness: every external entry satisfies its node's atoms by construction,
/// inductiveness closes the reachable states under internal edges, and the measure
/// is bounded and decreasing on every restricted transition — so every call chain
/// starting inside the region terminates, no matter the caller.
///
/// External successors need *not* be unconditionally `Term`: an edge leaving the
/// SCC towards a `Loop`/`MayLoop`/unknown target is tolerated when it is
/// *infeasible under the restricted region* — every guard cube of the edge,
/// conjoined with the source node's inductive atoms, must admit a Farkas
/// certificate of rational infeasibility (`premises ⇒ −1 ≥ 0`). Executions
/// inside the region then only ever take internal edges or terminating exits.
pub fn prove_term_conditional(
    scc: &[String],
    graph: &ReachGraph,
    theta: &Theta,
    options: &SolveOptions,
) -> Option<BTreeMap<String, ConditionalCase>> {
    if !options.multiphase {
        return None;
    }
    let members: BTreeSet<&String> = scc.iter().collect();
    // 1. Entry regions: contexts of edges entering the SCC from outside, projected
    //    onto the callee's formal parameters.
    let mut entries: BTreeMap<String, Vec<Formula>> = BTreeMap::new();
    for edge in &graph.edges {
        let EdgeTarget::Unknown { pre, args } = &edge.target else {
            continue;
        };
        if !members.contains(pre) || members.contains(&edge.src) {
            continue;
        }
        let vars = theta.vars_of_pre(pre)?.to_vec();
        entries
            .entry(pre.clone())
            .or_default()
            .push(entry_region(&edge.ctx, &vars, args));
    }
    if entries.is_empty() {
        return None;
    }
    // 2. Candidate invariant atoms per node: inequalities implied by every entry.
    //    Nodes without external entries carry no atoms (an unrestricted `true`
    //    invariant), which only weakens the premises below and stays sound.
    let mut atoms: BTreeMap<String, Vec<Ineq>> =
        scc.iter().map(|p| (p.clone(), Vec::new())).collect();
    for (pre, regions) in &entries {
        atoms.insert(pre.clone(), atoms_implied_by_all(regions));
    }
    if atoms.values().all(|a| a.is_empty()) {
        return None;
    }
    // 3. Houdini fixpoint: drop atoms not preserved by some internal edge, until
    //    the remaining set is inductive (terminates — the atom pool only shrinks).
    struct InternalEdge {
        src: String,
        dst: String,
        dst_vars: Vec<String>,
        cubes: Vec<Vec<Ineq>>,
        args: Vec<Lin>,
    }
    let mut edge_data = Vec::new();
    for edge in graph.internal_edges(scc) {
        let EdgeTarget::Unknown { pre, args } = &edge.target else {
            continue;
        };
        edge_data.push(InternalEdge {
            src: edge.src.clone(),
            dst: pre.clone(),
            dst_vars: theta.vars_of_pre(pre)?.to_vec(),
            cubes: guard_cubes(&edge.ctx),
            args: args.clone(),
        });
    }
    loop {
        if work::deadline_exceeded() {
            return None;
        }
        let mut changed = false;
        for edge in &edge_data {
            let src_atoms = atoms.get(&edge.src).cloned().unwrap_or_default();
            let current = atoms.get(&edge.dst).cloned().unwrap_or_default();
            let premises: Vec<Vec<Ineq>> = edge
                .cubes
                .iter()
                .map(|cube| cube.iter().chain(&src_atoms).cloned().collect())
                .collect();
            let mut entailments: Vec<farkas::Entailment> = premises
                .iter()
                .map(|p| farkas::Entailment::new(p))
                .collect();
            let retained: Vec<Ineq> = current
                .iter()
                .filter(|atom| {
                    let target = instantiate_ineq(atom, &edge.dst_vars, &edge.args);
                    entailments.iter_mut().all(|e| e.implies(&target))
                })
                .cloned()
                .collect();
            if retained.len() != current.len() {
                atoms.insert(edge.dst.clone(), retained);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    if atoms.values().all(|a| a.is_empty()) {
        return None;
    }
    // 4. Forbidden external edges: any edge leaving the SCC towards a target not
    //    known to terminate must be infeasible under the source node's inductive
    //    atoms, certified by Farkas rational infeasibility. Otherwise a region
    //    state could escape into a possibly-diverging continuation.
    for edge in &graph.edges {
        if !members.contains(&edge.src) {
            continue;
        }
        let tolerable = match &edge.target {
            EdgeTarget::Term => true,
            EdgeTarget::Unknown { pre, .. } => members.contains(pre),
            EdgeTarget::Loop | EdgeTarget::MayLoop => false,
        };
        if tolerable {
            continue;
        }
        let src_atoms = atoms.get(&edge.src).cloned().unwrap_or_default();
        for cube in guard_cubes(&edge.ctx) {
            let mut premises = cube;
            premises.extend(src_atoms.iter().cloned());
            if !rationally_infeasible(&premises) {
                return None;
            }
        }
    }
    // 5. Ranking synthesis on the invariant-restricted transitions, through the
    //    full fall-back chain (linear → lexicographic/max → multiphase).
    let (system, node_of) = scc_system(scc, graph, theta, &atoms, Transitions::Every)?;
    let measure = synthesize_measure(&system, options)?;
    Some(
        node_of
            .into_iter()
            .map(|(pre, node)| {
                let node_atoms = atoms.remove(&pre).unwrap_or_default();
                let case = ConditionalCase {
                    region: region_of(&node_atoms),
                    remainder: remainder_of(&node_atoms),
                    measure: measure[&node].clone(),
                };
                (pre, case)
            })
            .collect(),
    )
}

/// The entry region of a call edge: the context conjoined with `formalᵢ = argᵢ`
/// bindings, projected onto (fresh stand-ins for) the formals.
fn entry_region(ctx: &Formula, vars: &[String], args: &[Lin]) -> Formula {
    let temps: Vec<String> = (0..vars.len()).map(|i| format!("$entry{i}")).collect();
    let mut conj = vec![ctx.clone()];
    for (temp, arg) in temps.iter().zip(args) {
        conj.push(Constraint::eq(Lin::var(temp.clone()), arg.clone()).into());
    }
    let keep: BTreeSet<String> = temps.iter().cloned().collect();
    let mut region = qe::project(&Formula::and(conj), &keep);
    for (temp, var) in temps.iter().zip(vars) {
        region = region.rename(temp, var);
    }
    simplify::prune(&region)
}

/// Capture-avoiding instantiation of an inequality over `vars` with `args`.
fn instantiate_ineq(ineq: &Ineq, vars: &[String], args: &[Lin]) -> Ineq {
    let temps: Vec<String> = (0..vars.len()).map(|i| format!("$atom{i}")).collect();
    let mut expr = ineq.expr().clone();
    for (var, temp) in vars.iter().zip(&temps) {
        expr = expr.rename(var, temp);
    }
    for (temp, arg) in temps.iter().zip(args) {
        expr = expr.substitute(temp, arg);
    }
    Ineq::ge_zero(expr)
}

/// The inequalities every given region entails: harvested from the regions' DNF
/// cubes and kept only when certified against *every* cube of *every* region.
fn atoms_implied_by_all(regions: &[Formula]) -> Vec<Ineq> {
    let all_cubes: Vec<Vec<Vec<Ineq>>> = regions.iter().map(guard_cubes).collect();
    let mut pool: Vec<Ineq> = Vec::new();
    for cubes in &all_cubes {
        for cube in cubes {
            for ineq in cube {
                if !pool.contains(ineq) {
                    pool.push(ineq.clone());
                }
            }
        }
    }
    let mut entailments: Vec<farkas::Entailment> = all_cubes
        .iter()
        .flatten()
        .map(|cube| farkas::Entailment::new(cube))
        .collect();
    pool.retain(|atom| entailments.iter_mut().all(|e| e.implies(atom)));
    pool
}

/// The conjunction of invariant atoms as a formula (`true` when empty).
fn region_of(atoms: &[Ineq]) -> Formula {
    Formula::and(
        atoms
            .iter()
            .map(|a| Constraint::from_parts(a.expr().clone(), RelOp::Ge).into())
            .collect(),
    )
}

/// A pairwise-disjoint cover of the complement of the atom conjunction:
/// `¬α₁ ∨ (α₁ ∧ ¬α₂) ∨ … ∨ (α₁ ∧ … ∧ α_{k−1} ∧ ¬α_k)`.
fn remainder_of(atoms: &[Ineq]) -> Vec<Formula> {
    (0..atoms.len())
        .map(|i| {
            let mut parts: Vec<Formula> = atoms[..i]
                .iter()
                .map(|a| Constraint::from_parts(a.expr().clone(), RelOp::Ge).into())
                .collect();
            parts.extend(
                Constraint::from_parts(atoms[i].expr().clone(), RelOp::Ge)
                    .negate()
                    .into_iter()
                    .map(Formula::from),
            );
            Formula::and(parts)
        })
        .collect()
}

/// The outcome of a non-termination proof attempt on an SCC.
#[derive(Clone, Debug, Default)]
pub struct NonTermOutcome {
    /// `true` when every pre-predicate of the SCC was proven non-terminating.
    pub success: bool,
    /// When the proof failed: abduced case-split conditions per pre-predicate.
    pub splits: BTreeMap<String, Vec<Formula>>,
    /// Abnormal conditions encountered during the attempt (e.g. a pre-predicate
    /// with no paired post-predicate in the store). A failure with diagnostics is
    /// a malformed input, not a genuine "the program may terminate" answer.
    pub diagnostics: Vec<String>,
}

/// Guards of obligation items whose callee post-predicate is definitely
/// unreachable: `False` items, `Unknown` items whose paired pre-predicate
/// belongs to the SCC (the induction hypothesis), and `Unknown` items whose
/// post is in `assumed_false` (a coinductive hypothesis supplied by the
/// caller). Returns `(has_items, usable)`.
fn usable_guards(
    obligation: &Obligation,
    scc: &[String],
    theta: &Theta,
    assumed_false: &BTreeSet<String>,
) -> (bool, Vec<Formula>) {
    let mut usable: Vec<Formula> = Vec::new();
    let mut has_items = false;
    for item in &obligation.items {
        match item {
            ObligationItem::False(guard) => {
                has_items = true;
                usable.push(guard.clone());
            }
            ObligationItem::True(_) => has_items = true,
            ObligationItem::Unknown { guard, post, .. } => {
                has_items = true;
                let in_scc = theta
                    .case_of_post(post)
                    .and_then(|(root, index)| theta.definition(root).map(|d| (d, index)))
                    .and_then(|(def, index)| match &def.cases[index].state {
                        crate::theta::CaseState::Unknown { pre, .. } => Some(pre.clone()),
                        _ => None,
                    })
                    .map(|paired| scc.contains(&paired))
                    .unwrap_or(false);
                if in_scc || assumed_false.contains(post) {
                    usable.push(guard.clone());
                }
            }
        }
    }
    (has_items, usable)
}

/// `prove_NonTerm`: inductive unreachability of the SCC's post-predicates, with
/// abductive inference of case-split conditions on failure.
///
/// The posts listed in `assumed_false` are coinductive hypotheses, treated as
/// unreachable in addition to the SCC's own. The solver passes none. The
/// validation pass re-checks each resolved `Loop` case against the *final*
/// store with every other `Loop` post assumed false: there every `Loop`
/// resolution is re-proven simultaneously, so the assumption is sound by
/// infinite descent — a shortest execution reaching any assumed-false post
/// would have to pass through a strictly shorter one.
pub fn prove_nonterm(
    scc: &[String],
    obligations: &[Obligation],
    theta: &Theta,
    options: &SolveOptions,
    assumed_false: &BTreeSet<String>,
) -> NonTermOutcome {
    let mut outcome = NonTermOutcome::default();
    let mut all_ok = true;
    for pre in scc {
        let Some(post) = theta.post_of_pre(pre) else {
            // A pre-predicate without a paired post-predicate means the store is
            // malformed (or the case was already resolved out from under us) — record
            // it so the failure is distinguishable from a genuine proof failure.
            outcome.diagnostics.push(format!(
                "pre-predicate {pre} has no paired post-predicate in the store"
            ));
            all_ok = false;
            continue;
        };
        let relevant: Vec<&Obligation> = obligations
            .iter()
            .filter(|o| o.target_post == post)
            .collect();
        // No feasible exit under this case at all: the post-predicate is vacuously
        // unreachable (every execution keeps recursing).
        let mut pre_ok = true;
        let mut candidates: Vec<Formula> = Vec::new();
        for obligation in relevant {
            let context = obligation.ctx.clone().and2(obligation.mu.clone());
            let (has_items, usable) = usable_guards(obligation, scc, theta, assumed_false);
            if !has_items {
                // Base-case form ρ ∧ true ⇒ (µ ⇒ U_po): unreachability needs UNSAT(ρ∧µ),
                // which specialisation has already ruled out — the proof fails and no
                // abduction is possible (any strengthening contradicts the antecedent).
                pre_ok = false;
                continue;
            }
            let covered = Formula::or(usable.clone());
            if entail::entails(&context, &covered) {
                continue;
            }
            pre_ok = false;
            if !options.enable_case_split {
                continue;
            }
            // abd_inf: strengthen the target's guard so that one of the usable guards
            // becomes entailed.
            let vars = theta.vars_of_pre(pre).unwrap_or(&[]).to_vec();
            for beta in &usable {
                if !sat::is_sat(&context.clone().and2(beta.clone())) {
                    continue;
                }
                if let Some(alpha) = abduce(&context, beta, &vars) {
                    if !candidates.iter().any(|c| entail::equivalent(c, &alpha)) {
                        candidates.push(alpha);
                    }
                }
            }
        }
        if pre_ok {
            continue;
        }
        all_ok = false;
        if !candidates.is_empty() {
            outcome.splits.insert(pre.clone(), candidates);
        }
    }
    outcome.success = all_ok;
    if outcome.success {
        outcome.splits.clear();
    }
    outcome
}

/// A successful recurrent-set non-termination proof for a single-node SCC.
#[derive(Clone, Debug)]
pub struct RecurrentOutcome {
    /// The pre-predicate the certificate belongs to.
    pub pre: String,
    /// The synthesized certificate: inductive atoms plus a concrete entry state.
    pub set: RecurrentSet,
    /// The recurrent region as a formula (conjunction of the certificate atoms).
    pub region: Formula,
    /// Pairwise-disjoint cover of the case remainder outside the region; empty
    /// when the whole case guard lies inside the region.
    pub remainder: Vec<Formula>,
}

/// Steps per simulated orbit in the enriched pass. A bounded transient can
/// take up to the sampled value range (`-16..17`) to drain — e.g. `x` shrinking
/// by 1 per step from 16 before the exit fires — so the horizon must exceed
/// twice that range or such terminating orbits would pollute the harvest tails
/// with atoms that only hold transiently. 36 steps leaves the tail (the second
/// half) strictly past any rate-1 drain of the sample range, while drifting
/// values stay far from overflow.
const ORBIT_STEPS: usize = 36;

/// The candidate-atom pool a recurrent-set proof draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pool {
    /// The formal-state atoms of the internal transitions' guard cubes and of
    /// the case guard.
    Guards,
    /// [`Pool::Guards`] plus the atoms harvested from concrete orbit
    /// simulation ([`tnt_solver::orbit::harvest`]). It reaches regions bounded
    /// by an inequality that appears in no guard: the drift `x' = x + y,
    /// y' = y + 1` guarded only by `x ≥ 0` needs `y ≥ 0`. Meant to run after
    /// [`Pool::Guards`] failed, so it gives up when the orbits add no atom.
    Orbit,
}

/// Closed recurrent-set synthesis for a self-recursive case: the fall-back
/// non-termination prover when [`prove_nonterm`]'s whole-guard coverage proof
/// fails (typically because only *part* of the case's state space diverges).
///
/// The prover builds the SCC's single-node transition system from the guard
/// cubes of the case's internal (self) edges, draws candidate atoms from
/// `pool`, prunes them on deterministic concrete valuations (the
/// DynamiTe-style sample pre-filter), and certifies the surviving set `S`
/// per-transition with Farkas implications. A successful certificate is
/// re-validated on the sampled valuations as a built-in self-check before it
/// is trusted. The posts in `assumed_false` are coinductive hypotheses, as in
/// [`prove_nonterm`].
///
/// Soundness of the `Loop` resolution on `guard ∧ S`: `S` is closed under
/// every internal transition choice, and the exit-obligation coverage below
/// shows no execution from `S` reaches the case's post-predicate except
/// through a recursive instance that re-enters `S` — infinite descent on the
/// length of a hypothetical shortest post-reaching execution. Multi-node SCCs
/// (mutual recursion) are out of scope and return `None`.
pub fn prove_nonterm_recurrent(
    scc: &[String],
    graph: &ReachGraph,
    obligations: &[Obligation],
    theta: &Theta,
    assumed_false: &BTreeSet<String>,
    pool: Pool,
) -> Option<RecurrentOutcome> {
    if scc.len() != 1 {
        return None;
    }
    let pre = &scc[0];
    let vars = theta.vars_of_pre(pre)?.to_vec();
    let post = theta.post_of_pre(pre)?.clone();
    let guard = theta.guard_of_pre(pre)?.clone();
    let formals: BTreeSet<&str> = vars.iter().map(String::as_str).collect();
    let over_formals = |atom: &Ineq| atom.expr().vars().all(|v| formals.contains(v));
    let (system, _) = scc_system(scc, graph, theta, &BTreeMap::new(), Transitions::Every)?;
    if system.transitions().is_empty() {
        return None;
    }
    // The source-state atoms of the transition guards are candidate atoms for
    // the set (the bindings mention destination variables and drop out), and
    // so are the case guard's own — the divergent region is often the guard
    // itself or a strengthening of it.
    let case_cubes = guard_cubes(&guard);
    let mut candidates: Vec<Ineq> = Vec::new();
    for atom in system
        .transitions()
        .iter()
        .flat_map(|t| &t.guard)
        .chain(case_cubes.iter().flatten())
    {
        if over_formals(atom) && !candidates.contains(atom) {
            candidates.push(atom.clone());
        }
    }
    // Deterministic concrete valuations seed the sample pre-filter and the
    // closure self-check; the fixed seed keeps every run reproducible.
    let var_refs: Vec<&str> = vars.iter().map(String::as_str).collect();
    let samples: Vec<BTreeMap<String, Rational>> =
        tnt_logic::testgen::seeded_int_envs(0x5EED_2EC5, &var_refs, -16..17, 24)
            .into_iter()
            .map(|env| {
                env.into_iter()
                    .map(|(v, n)| (v, Rational::from(n)))
                    .collect()
            })
            .collect();
    let stepper = recurrent::Stepper::new(&system);
    if pool == Pool::Orbit {
        let mut enriched = false;
        for atom in tnt_solver::orbit::harvest(&stepper, &samples, ORBIT_STEPS) {
            if over_formals(&atom) && !candidates.contains(&atom) {
                candidates.push(atom);
                enriched = true;
            }
        }
        // With no new atoms the outcome cannot differ from the guard pool's,
        // so skip the re-synthesis instead of re-paying its LP cost.
        if !enriched {
            return None;
        }
    }
    // Ranked iteration, most general region first: an over-general set (e.g.
    // one that is transition-closed but lets the base-case exit fire) fails
    // the coverage checks below, and the next certified set takes its place.
    // This is the region scoring that keeps enriched atoms from carving a
    // needlessly small slab when a larger certified region also works.
    for set in recurrent::synthesize_ranked(&stepper, &candidates, &samples) {
        if !recurrent::closed_on_samples(&stepper, &set, &samples) {
            continue;
        }
        // Exit coverage: under `S`, the case's post-predicate must be
        // unreachable. Same obligation discipline as `prove_nonterm`, with `S`
        // strengthening the context of every obligation targeting this post.
        let region = region_of(&set.atoms);
        let covered = obligations
            .iter()
            .filter(|o| o.target_post == post)
            .all(|obligation| {
                let context = region
                    .clone()
                    .and2(obligation.ctx.clone())
                    .and2(obligation.mu.clone());
                let (has_items, usable) = usable_guards(obligation, scc, theta, assumed_false);
                if !has_items {
                    // Base-case exit: must already be infeasible inside the region.
                    return !sat::is_sat(&context);
                }
                entail::entails(&context, &Formula::or(usable))
            });
        if !covered {
            continue;
        }
        let remainder = if entail::entails(&guard, &region) {
            Vec::new()
        } else {
            remainder_of(&set.atoms)
        };
        return Some(RecurrentOutcome {
            pre: pre.clone(),
            set,
            region,
            remainder,
        });
    }
    None
}

/// Abductive inference of a strengthening condition `α` over `vars` such that
/// `context ∧ α` is satisfiable and entails `beta`.
///
/// Candidates with the fewest program variables are preferred (single-variable sign
/// conditions first, as the paper's template optimisation does); the weakest
/// precondition obtained by projection is the fall-back, and `None` is returned
/// when pruning that precondition stops at the cube cap.
pub fn abduce(context: &Formula, beta: &Formula, vars: &[String]) -> Option<Formula> {
    // Constants worth trying: 0 plus the constants appearing in beta.
    let mut constants: Vec<i128> = vec![0];
    for cube in dnf::to_dnf(beta) {
        for constraint in cube {
            let k = constraint.expr().constant_term();
            if k.is_integer() {
                let value = k.numer();
                for candidate in [value, -value] {
                    if candidate.abs() <= 1_000 && !constants.contains(&candidate) {
                        constants.push(candidate);
                    }
                }
            }
        }
    }
    for var in vars {
        for k in &constants {
            let lin = Lin::var(var.clone());
            let bound = tnt_logic::num(*k);
            let candidates: [Formula; 4] = [
                Constraint::ge(lin.clone(), bound.clone()).into(),
                Constraint::lt(lin.clone(), bound.clone()).into(),
                Constraint::le(lin.clone(), bound.clone()).into(),
                Constraint::gt(lin.clone(), bound.clone()).into(),
            ];
            for alpha in candidates {
                let strengthened = context.clone().and2(Formula::clone(&alpha));
                if sat::is_sat(&strengthened) && entail::entails(&strengthened, beta) {
                    return Some(alpha);
                }
            }
        }
    }
    // Fall-back: the weakest precondition over `vars`, via projection; given
    // up when pruning it stops at the cube cap, as its unpruned form costs more.
    let keep: std::collections::BTreeSet<String> = vars.iter().cloned().collect();
    let wp = qe::project(&context.clone().and2(beta.clone().negate()), &keep).negate();
    let capped_before = work::cap_events();
    let wp = simplify::prune(&wp);
    if work::cap_events() != capped_before {
        return None;
    }
    let strengthened = context.clone().and2(wp.clone());
    if sat::is_sat(&strengthened) && entail::entails(&strengthened, beta) {
        Some(wp)
    } else {
        None
    }
}

/// The `split` partition of Sec. 5.6: turns a set of (possibly overlapping) abduced
/// conditions into a feasible, exclusive and exhaustive set of case conditions
/// (all sign combinations of the inputs, pruned for satisfiability under `guard`).
pub fn split(conditions: &[Formula], guard: &Formula) -> Vec<Formula> {
    let bounded: Vec<&Formula> = conditions.iter().take(4).collect();
    let mut parts = vec![Formula::True];
    for condition in bounded {
        let mut next = Vec::new();
        for part in &parts {
            for candidate in [
                part.clone().and2(condition.clone()),
                part.clone().and2(condition.clone().negate()),
            ] {
                if sat::is_sat(&candidate.clone().and2(guard.clone())) {
                    next.push(candidate);
                }
            }
        }
        parts = next;
    }
    parts.into_iter().map(|p| simplify::prune(&p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specialize::Edge;
    use tnt_logic::{num, var};

    #[test]
    fn prove_nonterm_reports_malformed_theta_in_diagnostics() {
        use crate::theta::CaseState;
        let mut theta = Theta::new();
        theta.register("Upr_f#0", "Upo_f#0", vec!["x".to_string()]);
        // Resolving the case detaches its post-predicate: `post_of_pre` yields
        // `None`, which used to make prove_nonterm fail with no trace. The failure
        // must now carry a diagnostic distinguishing it from a genuine one.
        theta.resolve("Upr_f#0", CaseState::Term(vec![]));
        let outcome = prove_nonterm(
            &["Upr_f#0".to_string()],
            &[],
            &theta,
            &SolveOptions::default(),
            &BTreeSet::new(),
        );
        assert!(!outcome.success);
        assert_eq!(outcome.diagnostics.len(), 1);
        assert!(
            outcome.diagnostics[0].contains("Upr_f#0"),
            "diagnostic must name the malformed pre-predicate: {:?}",
            outcome.diagnostics
        );
        // A well-formed (still unresolved) store attempts the proof without noise.
        let mut healthy = Theta::new();
        healthy.register("Upr_g#0", "Upo_g#0", vec!["x".to_string()]);
        let outcome = prove_nonterm(
            &["Upr_g#0".to_string()],
            &[],
            &healthy,
            &SolveOptions::default(),
            &BTreeSet::new(),
        );
        assert!(outcome.diagnostics.is_empty());
    }

    #[test]
    fn abduce_recovers_paper_condition() {
        // The foo example: context x >= 0 ∧ x' = x + y ∧ y' = y, target x' >= 0.
        let context = Formula::and(vec![
            Constraint::ge(var("x"), num(0)).into(),
            Constraint::eq(var("x'"), var("x").add(&var("y"))).into(),
            Constraint::eq(var("y'"), var("y")).into(),
        ]);
        let beta: Formula = Constraint::ge(var("x'"), num(0)).into();
        let alpha = abduce(&context, &beta, &["x".to_string(), "y".to_string()]).unwrap();
        // The abduced condition must be y >= 0 (a single-variable condition implying β).
        let expected: Formula = Constraint::ge(var("y"), num(0)).into();
        assert!(entail::equivalent(&alpha, &expected));
    }

    #[test]
    fn abduce_fallback_uses_projection() {
        // No single-variable condition works here: context x' = x + y + z, beta x' >= 0
        // over vars {x, y, z} — the single-variable candidates x>=0 / y>=0 / z>=0 do not
        // entail x + y + z >= 0, so the projection fall-back must produce the weakest
        // precondition x + y + z >= 0.
        let context: Formula =
            Constraint::eq(var("x'"), var("x").add(&var("y")).add(&var("z"))).into();
        let beta: Formula = Constraint::ge(var("x'"), num(0)).into();
        let alpha = abduce(
            &context,
            &beta,
            &["x".to_string(), "y".to_string(), "z".to_string()],
        )
        .unwrap();
        let expected: Formula =
            Constraint::ge(var("x").add(&var("y")).add(&var("z")), num(0)).into();
        assert!(entail::equivalent(&alpha, &expected));
    }

    /// When pruning the weakest precondition stops at the cube cap, `abduce`
    /// gives up at once. Here the precondition is `⋀_{i<15} yᵢ ≠ 0 ∨ z + w ≥ 0`,
    /// whose first disjunct alone has 2^15 satisfiable cubes; checking the
    /// unpruned precondition instead would stop at the cap a second time.
    #[test]
    fn abduce_gives_up_when_the_precondition_prunes_past_the_cap() {
        let mut vars: Vec<String> = (0..15).map(|i| format!("y{i}")).collect();
        let context = Formula::or(
            vars.iter()
                .map(|v| Constraint::eq(var(v), num(0)).into())
                .collect(),
        );
        vars.extend(["z".to_string(), "w".to_string()]);
        let beta: Formula = Constraint::ge(var("z").add(&var("w")), num(0)).into();
        let capped = work::cap_events();
        assert_eq!(abduce(&context, &beta, &vars), None);
        assert_eq!(
            work::cap_events(),
            capped + 1,
            "only the fall-back prune stops"
        );
    }

    #[test]
    fn split_produces_exclusive_exhaustive_partition() {
        let c: Formula = Constraint::ge(var("y"), num(0)).into();
        let parts = split(std::slice::from_ref(&c), &Formula::True);
        assert_eq!(parts.len(), 2);
        // Exclusive…
        assert!(sat::is_unsat(&parts[0].clone().and2(parts[1].clone())));
        // …and exhaustive.
        assert!(entail::is_valid(&Formula::or(parts.clone())));
    }

    #[test]
    fn split_respects_guard_feasibility() {
        let c: Formula = Constraint::ge(var("x"), num(5)).into();
        let guard: Formula = Constraint::ge(var("x"), num(10)).into();
        let parts = split(&[c], &guard);
        // Under x >= 10 the negation x < 5 is infeasible, so only one part remains.
        assert_eq!(parts.len(), 1);
    }

    /// The builder's premise order (cube atoms, restriction atoms, bindings) and
    /// its `@dst{edge}_{cube}_{i}` names fix the column order of every LP the
    /// provers solve, so both are pinned here.
    #[test]
    fn scc_system_orders_premises_and_names_bindings() {
        // The paper's foo: foo(x, y) calls foo(x + y, y) under x >= 0. A split
        // on the sign of y gives the call two guard cubes.
        let pre = "Upr_foo#0".to_string();
        let mut theta = Theta::new();
        theta.register(&pre, "Upo_foo#0", vec!["x".to_string(), "y".to_string()]);
        let ctx = Formula::and(vec![
            Constraint::ge(var("x"), num(0)).into(),
            Formula::or(vec![
                Constraint::lt(var("y"), num(0)).into(),
                Constraint::ge(var("y"), num(0)).into(),
            ]),
        ]);
        let call = Edge {
            src: pre.clone(),
            ctx,
            target: EdgeTarget::Unknown {
                pre: pre.clone(),
                args: vec![var("x").add(&var("y")), var("y")],
            },
        };
        let graph = ReachGraph::build(vec![call], std::slice::from_ref(&pre));
        let restriction =
            BTreeMap::from([(pre.clone(), vec![Ineq::ge_zero(var("x").sub(&num(2)))])]);
        let (system, node_of) = scc_system(
            std::slice::from_ref(&pre),
            &graph,
            &theta,
            &restriction,
            Transitions::Every,
        )
        .unwrap();
        let node = node_of[&pre];
        assert_eq!(system.formals(node), ["x", "y"]);
        let rendered: Vec<(Vec<String>, Vec<String>)> = system
            .transitions()
            .iter()
            .map(|t| {
                assert_eq!((t.src, t.dst), (node, node));
                assert_eq!(t.args, [var("x").add(&var("y")), var("y")]);
                (
                    t.dst_vars.clone(),
                    t.guard.iter().map(ToString::to_string).collect(),
                )
            })
            .collect();
        let cube = |sign: &str, c: usize| {
            let b = |i: usize| format!("@dst0_{c}_{i}");
            (
                vec![b(0), b(1)],
                vec![
                    "x >= 0".to_string(),
                    sign.to_string(),
                    "x - 2 >= 0".to_string(),
                    format!("{} - x - y >= 0", b(0)),
                    format!("-{} + x + y >= 0", b(0)),
                    format!("{} - y >= 0", b(1)),
                    format!("-{} + y >= 0", b(1)),
                ],
            )
        };
        assert_eq!(rendered, [cube("-y - 1 >= 0", 0), cube("y >= 0", 1)]);
    }

    /// `f(x)` calling `f(x - 1)` once, with one guard cube per disjunct.
    fn countdown(disjuncts: Vec<Formula>) -> (String, Theta, ReachGraph) {
        let pre = "Upr_f#0".to_string();
        let mut theta = Theta::new();
        theta.register(&pre, "Upo_f#0", vec!["x".to_string()]);
        let call = Edge {
            src: pre.clone(),
            ctx: Formula::or(disjuncts),
            target: EdgeTarget::Unknown {
                pre: pre.clone(),
                args: vec![var("x").sub(&num(1))],
            },
        };
        let graph = ReachGraph::build(vec![call], std::slice::from_ref(&pre));
        (pre, theta, graph)
    }

    /// `x ≥ 1 ∧ x ≤ 0`: infeasible over ℚ.
    fn empty_interval() -> Formula {
        Formula::and(vec![
            Constraint::ge(var("x"), num(1)).into(),
            Constraint::le(var("x"), num(0)).into(),
        ])
    }

    /// The destination names of each transition of an SCC's system.
    fn binding_names(
        pre: &str,
        theta: &Theta,
        graph: &ReachGraph,
        restriction: &BTreeMap<String, Vec<Ineq>>,
        transitions: Transitions,
    ) -> Vec<Vec<String>> {
        let (system, _) =
            scc_system(&[pre.to_string()], graph, theta, restriction, transitions).unwrap();
        system
            .transitions()
            .iter()
            .map(|t| t.dst_vars.clone())
            .collect()
    }

    #[test]
    fn prove_term_system_drops_a_rationally_infeasible_cube() {
        let feasible: Formula = Constraint::ge(var("x"), num(1)).into();
        let (pre, theta, graph) = countdown(vec![feasible, empty_interval()]);
        let none = BTreeMap::new();
        let (system, _) = scc_system(&[pre], &graph, &theta, &none, Transitions::Feasible).unwrap();
        let guards: Vec<Vec<String>> = system
            .transitions()
            .iter()
            .map(|t| t.guard.iter().map(ToString::to_string).collect())
            .collect();
        assert_eq!(
            guards,
            [[
                "x - 1 >= 0",
                "@dst0_0_0 - x + 1 >= 0",
                "-@dst0_0_0 + x - 1 >= 0"
            ]]
        );
    }

    /// `2x − 1 = 0` has a rational solution and no integer one: the ℚ filter
    /// keeps it.
    #[test]
    fn prove_term_system_keeps_a_cube_infeasible_over_the_integers_only() {
        let half = Constraint::eq(var("x").scale(Rational::from(2)), num(1)).into();
        let (pre, theta, graph) = countdown(vec![half]);
        assert_eq!(
            binding_names(
                &pre,
                &theta,
                &graph,
                &BTreeMap::new(),
                Transitions::Feasible
            ),
            [["@dst0_0_0"]]
        );
    }

    /// Dropping cube 0 renames no column: the kept cube is still cube 1.
    #[test]
    fn prove_term_system_keeps_the_original_cube_index() {
        let feasible: Formula = Constraint::ge(var("x"), num(1)).into();
        let (pre, theta, graph) = countdown(vec![empty_interval(), feasible]);
        assert_eq!(
            binding_names(
                &pre,
                &theta,
                &graph,
                &BTreeMap::new(),
                Transitions::Feasible
            ),
            [["@dst0_1_0"]]
        );
    }

    /// The recurrent/orbit system (no restriction) and the conditional
    /// prover's ranking step (an invariant restriction) keep every cube.
    #[test]
    fn recurrent_and_conditional_systems_keep_every_cube() {
        let feasible: Formula = Constraint::ge(var("x"), num(1)).into();
        let (pre, theta, graph) = countdown(vec![empty_interval(), feasible]);
        let invariant = BTreeMap::from([(pre.clone(), vec![Ineq::ge_zero(var("x").sub(&num(2)))])]);
        for restriction in [BTreeMap::new(), invariant] {
            assert_eq!(
                binding_names(&pre, &theta, &graph, &restriction, Transitions::Every),
                [["@dst0_0_0"], ["@dst0_1_0"]]
            );
        }
    }

    #[test]
    fn guard_cubes_drop_disequalities() {
        let ctx = Formula::and(vec![
            Constraint::ge(var("x"), num(0)).into(),
            Constraint::ne(var("x"), num(3)).into(),
        ]);
        let cubes = guard_cubes(&ctx);
        // The ≠ splits into two cubes but its halves survive as ≥ constraints…
        assert_eq!(cubes.len(), 2);
        for cube in cubes {
            assert!(!cube.is_empty());
        }
    }
}
