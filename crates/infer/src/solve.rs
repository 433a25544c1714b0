//! The overall inference algorithm `solve` (Fig. 6) and the post-hoc validation of the
//! inferred definitions.

use crate::method_cache::{CaseSnapshot, EventRecord, ReplayPlan, RootRecord, SolveTrace};
use crate::prove::{
    prove_nonterm, prove_nonterm_recurrent, prove_term, prove_term_conditional, split, Pool,
};
use crate::specialize::{specialize_post, specialize_pre, EdgeTarget, Obligation, ReachGraph};
use crate::summary::CaseStatus;
use crate::theta::{CaseState, Theta};
use std::collections::{BTreeMap, BTreeSet};
use tnt_logic::{entail, qe, simplify, Formula};
use tnt_solver::work;
use tnt_verify::hoare::ProgramAnalysis;

/// Tunable options of the solver and its provers (exposed for the ablation
/// study).
#[derive(Clone, Copy, Debug)]
pub struct SolveOptions {
    /// Maximum number of refinement iterations (`MAX_ITER` in Fig. 6).
    pub max_iterations: usize,
    /// Enable the semantic base-case inference of Sec. 5.1.
    pub enable_base_case: bool,
    /// Enable abductive case-splitting (Sec. 5.6).
    pub enable_case_split: bool,
    /// Enable lexicographic ranking measures.
    pub lexicographic: bool,
    /// Maximum number of lexicographic components.
    pub max_lex_components: usize,
    /// Enable the multiphase/max ranking domain (nested multiphase tuples,
    /// `max(f, g)` lexicographic components, and entry-restricted conditional
    /// termination proofs).
    pub multiphase: bool,
    /// Maximum depth of a nested multiphase tuple.
    pub max_phases: usize,
    /// Enable closed recurrent-set synthesis as the non-termination fall-back
    /// (and during validation of `Loop` cases).
    pub recurrent: bool,
    /// Enable orbit-enriched recurrent-set synthesis: candidate atoms harvested
    /// from concrete orbit simulation augment the guard/cube pool, fired only
    /// after the abductive splitter's candidates are exhausted. Requires
    /// [`SolveOptions::recurrent`]. Its work is accounted separately in
    /// [`SolveStats::orbit_work`].
    pub orbit_enrichment: bool,
    /// Deterministic work budget, counted in *work units*
    /// ([`tnt_solver::work::units`]): simplex pivots plus satisfiability-search
    /// nodes (the two super-linear cores of the back-end). It is the deadline
    /// of the run, so synthesis loops inside the provers stop between LP solves
    /// once it has passed. When the refinement loop has spent more than this,
    /// remaining unknown cases are left unresolved (they finalize to `MayLoop`) and
    /// [`SolveStats::budget_exhausted`] is set — the analyzer's equivalent of the
    /// paper's T/O outcome, counted in solver work rather than wall-clock time so
    /// results stay reproducible.
    ///
    /// Historically this sat at `20_000` because the budget was the only thing
    /// cutting the abductive splitter's weakest-precondition spiral. With
    /// [`SolveOptions::max_splits_per_family`] capping that spiral
    /// structurally, no corpus program needs more than a few thousand units —
    /// except orbit-enriched recurrent-set synthesis on conserved-drift loops,
    /// which legitimately spends a few hundred thousand units certifying a
    /// fitted region. The default is sized to let that pass finish, leaving
    /// the budget as a safety net for genuinely pathological inputs.
    pub work_budget: u64,
    /// Upper bound on the total number of cases across all definitions. Abductive
    /// case splitting stops refining once the store reaches this size, preventing
    /// the exponential blow-up of repeated splits on programs (e.g. gcd-style
    /// loops) whose termination argument is outside the affine fragment.
    pub max_total_cases: usize,
    /// Deterministic quota of abductive splits per *root case family* (a case
    /// and everything later split off from it). On drift programs whose
    /// divergence boundary is not affine-reachable, the abductive splitter's
    /// weakest-precondition fall-back yields an unbounded chain of "survives
    /// one more step" slabs; the quota is the point at which its candidates
    /// are declared exhausted for that family, which both keeps such programs
    /// at a clean `Unknown` (rather than burning the whole work budget into a
    /// T/O) and is the staging trigger for the orbit-enriched pass.
    pub max_splits_per_family: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            max_iterations: 12,
            enable_base_case: true,
            enable_case_split: true,
            lexicographic: true,
            max_lex_components: 4,
            multiphase: true,
            max_phases: 3,
            recurrent: true,
            orbit_enrichment: true,
            work_budget: 600_000,
            max_total_cases: 64,
            max_splits_per_family: 6,
        }
    }
}

/// Statistics of one solver run (used by the benchmark harness).
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveStats {
    /// Number of refinement iterations executed.
    pub iterations: usize,
    /// Number of case splits applied.
    pub case_splits: usize,
    /// Number of ranking-function synthesis attempts.
    pub ranking_attempts: usize,
    /// Number of non-termination proof attempts.
    pub nonterm_attempts: usize,
    /// Number of orbit-enriched recurrent-set synthesis attempts (the staged
    /// pass that fires once the abductive splitter is exhausted).
    pub orbit_attempts: usize,
    /// Work units (simplex pivots + satisfiability-search nodes) spent by this
    /// run.
    pub work: u64,
    /// The slice of [`SolveStats::work`] spent inside orbit-enriched synthesis
    /// attempts — the enrichment's own work accounting, so its cost is
    /// attributable separately from the cheap syntactic passes.
    pub orbit_work: u64,
    /// `true` when the run stopped early because [`SolveOptions::work_budget`] or
    /// [`SolveOptions::max_total_cases`] was exhausted (the deterministic T/O).
    pub budget_exhausted: bool,
}

/// Runs the paper's `solve` procedure over the assumptions of a verified program.
pub fn solve(analysis: &ProgramAnalysis, options: &SolveOptions) -> (Theta, SolveStats) {
    let (theta, stats, _) = solve_with_scope(analysis, options, &ReplayPlan::default(), false);
    (theta, stats)
}

/// [`solve`] with method-tier replay and harvest hooks (see
/// [`crate::method_cache`]): recorded iteration-0 SCC resolutions from `plan`
/// are injected in place of re-running the provers (with their recorded work
/// charged to [`SolveStats`] and to the deadline, so the returned statistics
/// stay byte-identical to a cold run), and — when `trace_enabled` — the run's
/// own replay-eligible events are captured for harvesting.
pub(crate) fn solve_with_scope(
    analysis: &ProgramAnalysis,
    options: &SolveOptions,
    plan: &ReplayPlan,
    trace_enabled: bool,
) -> (Theta, SolveStats, SolveTrace) {
    let mut theta = Theta::new();
    let mut stats = SolveStats::default();
    for method in analysis.methods.values() {
        theta.register(&method.upr_name, &method.upo_name, method.vars.clone());
    }
    // Base-case inference (lines 3–5 of Fig. 6).
    if options.enable_base_case {
        for method in analysis.methods.values() {
            // The projections below sit in a *strengthening* position: the TRUE-cube
            // over-approximation `to_dnf` falls back to at its cube cap would wrongly
            // enlarge the inferred base case. Skip the base case for this method if
            // any conversion was capped while computing it.
            let cap_events_before = work::cap_events();
            let vars: BTreeSet<String> = method.vars.iter().cloned().collect();
            // Both operands are pruned *before* the negation below: projections of
            // heap-laden contexts contain many redundant disjuncts whose negation
            // would otherwise blow up the DNF.
            let base_candidates = simplify::prune(&Formula::or(
                method
                    .post_assumptions
                    .iter()
                    .filter(|p| p.is_base_case())
                    .map(|p| qe::project(&p.ctx, &vars))
                    .collect(),
            ));
            if base_candidates.is_false() {
                continue;
            }
            let recursive_ctx = simplify::prune(&Formula::or(
                method
                    .pre_assumptions
                    .iter()
                    .map(|a| qe::project(&a.ctx, &vars))
                    .collect(),
            ));
            let base = simplify::prune(&base_candidates.and2(recursive_ctx.negate()));
            if base.is_false() || !tnt_logic::sat::is_sat(&base) {
                continue;
            }
            let remainder = simplify::prune(&base.clone().negate());
            let mut parts = vec![(base, Some(CaseState::Term(vec![])))];
            for cube in tnt_logic::dnf::to_dnf(&remainder) {
                parts.push((tnt_logic::dnf::from_dnf(&[cube]), None));
            }
            if work::cap_events() > cap_events_before {
                stats.budget_exhausted = true;
                continue;
            }
            theta.split_case(&method.upr_name, parts);
        }
    }

    // Post-base-case snapshot: the canonical iteration-0 state the method-tier
    // records are keyed on. Base-case inference is method-local, so a root
    // whose recorded partition matches this snapshot structurally has
    // reproduced its cone's canonical state, and the recorded events on it may
    // fire. Captured only when the method tier is engaged.
    let mut trace = SolveTrace::default();
    let scoped = trace_enabled || !plan.is_empty();
    let base_snapshot: Vec<RootRecord> = if scoped {
        snapshot_roots(&theta)
    } else {
        Vec::new()
    };
    if trace_enabled {
        trace.base = base_snapshot.clone();
    }
    let replay_events = active_events(plan, &base_snapshot);
    // Work charged on behalf of replayed events: added to the reported
    // `stats.work` (keeping it byte-identical to a cold run) and to the budget
    // (keeping the deadline where the cold run would have had it).
    let mut injected: u64 = 0;

    // Main refinement loop (lines 6–14 of Fig. 6). The budget is the deadline:
    // synthesis loops inside the solver stop between LP solves once it has
    // passed, bounding how far a single prove call can overshoot it.
    let work_start = work::units();
    let budget = work::Budget::new(options.work_budget);
    // Abductive splits applied so far per root case family, charged against
    // [`SolveOptions::max_splits_per_family`]. Only the abductive splitter is
    // charged: splits carved out by the conditional-termination and
    // recurrent-set provers resolve a region outright and cannot chain.
    let mut family_splits: BTreeMap<String, usize> = BTreeMap::new();
    'outer: for iteration in 0..options.max_iterations {
        stats.iterations = iteration + 1;
        if theta.all_resolved() {
            break;
        }
        let total_cases: usize = theta.definitions().map(|(_, d)| d.cases.len()).sum();
        if total_cases > options.max_total_cases || work::deadline_exceeded() {
            stats.budget_exhausted = true;
            break;
        }
        let unresolved = theta.unresolved_pres();
        let edges = specialize_pre(analysis, &theta);
        let graph = ReachGraph::build(edges, &unresolved);
        let obligations = specialize_post(analysis, &theta);

        let mut progressed = false;
        'scc: for scc in graph.sccs.clone() {
            if work::deadline_exceeded() {
                stats.budget_exhausted = true;
                break 'outer;
            }
            // Skip SCCs that are already fully resolved (can happen after earlier
            // resolutions within this iteration).
            if scc.iter().all(|p| resolved(&theta, p)) {
                continue;
            }
            // Stable member coordinates for the method tier: `(root, case
            // index, pre name)` per member. Only meaningful in the pre-restart
            // window — iteration 0, where no split has yet moved an index
            // (every split path restarts the iteration immediately).
            let members: Option<Vec<(String, usize, String)>> = (iteration == 0 && scoped)
                .then(|| scc_members(&theta, &scc))
                .flatten();
            // Harvest window: snapshot the counters so a resolution below can
            // record its exact deltas.
            let event_start = members
                .as_ref()
                .filter(|_| trace_enabled)
                .map(|_| EventStart::at(&stats, injected));
            // A recorded event whose member set matches (and whose roots
            // reproduced their recorded base partitions) stands in for the
            // context-free rungs: its resolutions, counters and work are
            // charged in place of re-running the provers.
            let replayed = members.as_ref().and_then(|ms| {
                let key: Vec<(String, usize)> =
                    ms.iter().map(|(r, i, _)| (r.clone(), *i)).collect();
                let event = replay_events.get(&key)?;
                replay(event, ms, &mut stats, &mut injected, &budget)
            });
            let rungs = replayed.map_or_else(
                || context_free_rungs(&scc, &graph, &obligations, &theta, options, &mut stats),
                Ok,
            );
            let mut splits = match rungs {
                Ok(resolutions) => {
                    if let Some(event) = event_start.and_then(|start| {
                        start.finish(members.as_deref()?, &resolutions, &stats, injected)
                    }) {
                        trace.events.push(event);
                    }
                    for (pre, state) in resolutions {
                        theta.resolve(&pre, state);
                    }
                    progressed = true;
                    continue;
                }
                Err(splits) => splits,
            };
            for rung in LADDER {
                match rung {
                    Rung::Conditional => {
                        stats.ranking_attempts += 1;
                        let Some(cases) = prove_term_conditional(&scc, &graph, &theta, options)
                        else {
                            continue;
                        };
                        for (pre, case) in cases {
                            let state = CaseState::Term(case.measure);
                            settle(&mut theta, &pre, case.region, case.remainder, state);
                        }
                        continue 'outer;
                    }
                    Rung::Recurrent(pool) => {
                        if !options.recurrent
                            || scc.len() != 1
                            || (pool == Pool::Orbit && !options.orbit_enrichment)
                        {
                            continue;
                        }
                        let start = work::units();
                        let no_hypotheses = BTreeSet::new();
                        let rec = prove_nonterm_recurrent(
                            &scc,
                            &graph,
                            &obligations,
                            &theta,
                            &no_hypotheses,
                            pool,
                        );
                        match pool {
                            Pool::Guards => stats.nonterm_attempts += 1,
                            Pool::Orbit => {
                                stats.orbit_attempts += 1;
                                let spent = work::units().wrapping_sub(start);
                                stats.orbit_work = stats.orbit_work.wrapping_add(spent);
                            }
                        }
                        let Some(rec) = rec else { continue };
                        let (pre, state) = (rec.pre, CaseState::Loop);
                        if settle(&mut theta, &pre, rec.region, rec.remainder, state) {
                            progressed = true;
                            continue 'scc;
                        }
                        stats.case_splits += 1;
                        continue 'outer;
                    }
                    Rung::Abductive if options.enable_case_split => {
                        let mut split_applied = false;
                        for (pre, conditions) in std::mem::take(&mut splits) {
                            // Per-family quota: a family that has used up its
                            // splits is treated as having no splitter
                            // candidates left, so control falls through to the
                            // orbit-pool rung.
                            let Some(root) = theta.case_of_pre(&pre).map(|(r, _)| r.to_string())
                            else {
                                continue;
                            };
                            if family_splits.get(&root).copied().unwrap_or(0)
                                >= options.max_splits_per_family
                            {
                                continue;
                            }
                            let guard = theta.guard_of_pre(&pre).cloned().unwrap_or(Formula::True);
                            let parts = split(&conditions, &guard);
                            if parts.len() < 2 {
                                continue;
                            }
                            stats.case_splits += 1;
                            *family_splits.entry(root).or_insert(0) += 1;
                            theta.split_case(&pre, parts.into_iter().map(|p| (p, None)).collect());
                            split_applied = true;
                        }
                        if split_applied {
                            continue 'outer;
                        }
                    }
                    Rung::Abductive => {}
                }
            }
        }
        if !progressed {
            break;
        }
    }
    stats.work = work::units()
        .wrapping_sub(work_start)
        .wrapping_add(injected);

    theta.finalize();
    (theta, stats, trace)
}

/// Resolutions of whole SCC members, as `(pre, state)` pairs.
type Resolutions = Vec<(String, CaseState)>;

/// The context-free rungs of Fig. 6's ladder, in order: the trivially
/// terminating shortcut, `prove_Term` behind all-`Term` successors, and
/// `prove_NonTerm`. They read nothing outside the SCC's own cone, which is what
/// lets the method tier record and replay them. Returns every member's
/// resolution, in the order the method tier records it, or the abduced split
/// conditions when no rung succeeded.
fn context_free_rungs(
    scc: &[String],
    graph: &ReachGraph,
    obligations: &[Obligation],
    theta: &Theta,
    options: &SolveOptions,
    stats: &mut SolveStats,
) -> Result<Resolutions, BTreeMap<String, Vec<Formula>>> {
    let successors = graph.scc_successors(scc);
    if successors.is_empty() && scc.len() == 1 && !graph.has_self_edge(&scc[0]) {
        return Ok(vec![(scc[0].clone(), CaseState::Term(vec![]))]);
    }
    if !successors.is_empty() && successors.iter().all(|t| matches!(t, EdgeTarget::Term)) {
        stats.ranking_attempts += 1;
        if let Some(measures) = prove_term(scc, graph, theta, options) {
            return Ok(measures
                .into_iter()
                .map(|(pre, measure)| (pre, CaseState::Term(measure)))
                .collect());
        }
    }
    // Non-termination proof (directly, or as the fall-back after a failed
    // termination proof, or when a successor is Loop/MayLoop).
    stats.nonterm_attempts += 1;
    let outcome = prove_nonterm(scc, obligations, theta, options, &BTreeSet::new());
    if !outcome.success {
        return Err(outcome.splits);
    }
    let mut pres = scc.to_vec();
    pres.sort_by_key(|pre| theta.case_of_pre(pre));
    Ok(pres.into_iter().map(|pre| (pre, CaseState::Loop)).collect())
}

/// The context-dependent rungs of Fig. 6's ladder. They read the callers'
/// entry edges or the iteration's split history, so the method tier never
/// records them. A rung that splits a case restarts the iteration (line 11).
#[derive(Clone, Copy)]
enum Rung {
    /// Entry-restricted conditional termination: the SCC may terminate on the
    /// sub-region reachable from its call sites even when no global measure
    /// exists (gcd-style loops entered with positive arguments). Abductive
    /// splitting cannot recover that call-site information. Success always
    /// restarts the iteration: the graph changed shape.
    Conditional,
    /// Closed recurrent-set synthesis, for cases where only part of the state
    /// space diverges and the region must be *discovered* (the aperiodic
    /// class). A whole-guard `Loop` needs no restart.
    Recurrent(Pool),
    /// Abductive case splitting (Sec. 5.6), within the per-family quota.
    Abductive,
}

/// The rungs in the order they are tried once the context-free ones failed:
/// the orbit pool runs last, so the cheap syntactic passes keep first claim.
const LADDER: [Rung; 4] = [
    Rung::Conditional,
    Rung::Recurrent(Pool::Guards),
    Rung::Abductive,
    Rung::Recurrent(Pool::Orbit),
];

/// Resolves the case owning `pre` to `state` when `remainder` is empty, and
/// otherwise splits it into `region` (resolved to `state`) and the unknown
/// `remainder` parts. Returns `true` when the whole case was resolved.
fn settle(
    theta: &mut Theta,
    pre: &str,
    region: Formula,
    remainder: Vec<Formula>,
    state: CaseState,
) -> bool {
    if remainder.is_empty() {
        theta.resolve(pre, state);
        return true;
    }
    let mut parts = vec![(region, Some(state))];
    parts.extend(remainder.into_iter().map(|f| (f, None)));
    theta.split_case(pre, parts);
    false
}

/// Applies the charges of a recorded `event` and returns its resolutions on
/// the SCC with member coordinates `ms`, when the event applies: it covers
/// exactly the members, and its work fits before the deadline of `budget`,
/// which it then lowers. The deadline check keeps a case where the cold run's
/// prover would have tripped the budget mid-proof on the fresh path instead.
fn replay(
    event: &EventRecord,
    ms: &[(String, usize, String)],
    stats: &mut SolveStats,
    injected: &mut u64,
    budget: &work::Budget,
) -> Option<Resolutions> {
    if event.outcomes.len() != ms.len() {
        return None;
    }
    let resolutions = event
        .outcomes
        .iter()
        .map(|(root, index, status)| {
            let (_, _, pre) = ms.iter().find(|(r, i, _)| r == root && i == index)?;
            Some((pre.clone(), CaseState::from(status)))
        })
        .collect::<Option<_>>()?;
    if !budget.charge(event.work) {
        return None;
    }
    stats.ranking_attempts += event.ranking_attempts;
    stats.nonterm_attempts += event.nonterm_attempts;
    *injected = injected.wrapping_add(event.work);
    Some(resolutions)
}

/// Counter values at the start of one SCC's processing (the harvest window),
/// replayed charges included.
struct EventStart {
    work: u64,
    ranking_attempts: usize,
    nonterm_attempts: usize,
}

impl EventStart {
    fn at(stats: &SolveStats, injected: u64) -> EventStart {
        EventStart {
            work: work::units().wrapping_add(injected),
            ranking_attempts: stats.ranking_attempts,
            nonterm_attempts: stats.nonterm_attempts,
        }
    }

    /// The event record of `resolutions` on the members `ms`, with the
    /// counter deltas since the start; `None` unless every member resolved.
    fn finish(
        self,
        ms: &[(String, usize, String)],
        resolutions: &[(String, CaseState)],
        stats: &SolveStats,
        injected: u64,
    ) -> Option<EventRecord> {
        let outcomes: Vec<(String, usize, CaseStatus)> = resolutions
            .iter()
            .filter_map(|(pre, state)| {
                let (r, i, _) = ms.iter().find(|(_, _, member)| member == pre)?;
                Some((r.clone(), *i, CaseStatus::from(state)))
            })
            .collect();
        (outcomes.len() == ms.len()).then(|| EventRecord {
            members: ms.iter().map(|(r, i, _)| (r.clone(), *i)).collect(),
            outcomes,
            work: work::units().wrapping_add(injected).wrapping_sub(self.work),
            ranking_attempts: stats.ranking_attempts - self.ranking_attempts,
            nonterm_attempts: stats.nonterm_attempts - self.nonterm_attempts,
        })
    }
}

/// The post-base-case partition of every definition, as method-tier records.
fn snapshot_roots(theta: &Theta) -> Vec<RootRecord> {
    theta
        .definitions()
        .map(|(root, def)| RootRecord {
            root: root.clone(),
            cases: def
                .cases
                .iter()
                .map(|case| CaseSnapshot {
                    guard: case.guard.clone(),
                    base: matches!(&case.state, CaseState::Term(m) if m.is_empty()),
                })
                .collect(),
        })
        .collect()
}

/// Validates the replay plan against the fresh post-base-case snapshot and
/// indexes the surviving events by their sorted member set. A root whose
/// recorded partition differs from the fresh one (or is missing) deactivates
/// every event touching it; duplicate member sets deactivate each other.
fn active_events<'p>(
    plan: &'p ReplayPlan,
    snapshot: &[RootRecord],
) -> BTreeMap<Vec<(String, usize)>, &'p EventRecord> {
    if plan.is_empty() {
        return BTreeMap::new();
    }
    let fresh: BTreeMap<&str, &RootRecord> =
        snapshot.iter().map(|r| (r.root.as_str(), r)).collect();
    let active_roots: BTreeSet<&str> = plan
        .roots
        .iter()
        .filter(|recorded| fresh.get(recorded.root.as_str()) == Some(&&**recorded))
        .map(|r| r.root.as_str())
        .collect();
    let mut events: BTreeMap<Vec<(String, usize)>, Option<&EventRecord>> = BTreeMap::new();
    for event in &plan.events {
        let usable = !event.members.is_empty()
            && event.members.iter().all(|(root, index)| {
                active_roots.contains(root.as_str())
                    && fresh
                        .get(root.as_str())
                        .and_then(|r| r.cases.get(*index))
                        .is_some_and(|c| !c.base)
            });
        if !usable {
            continue;
        }
        events
            .entry(event.members.clone())
            .and_modify(|slot| *slot = None)
            .or_insert(Some(event));
    }
    events
        .into_iter()
        .filter_map(|(key, event)| event.map(|e| (key, e)))
        .collect()
}

/// The `(root, case index, pre name)` coordinates of a reachability SCC's
/// members, sorted by `(root, index)`. `None` when any member is missing or
/// already resolved — the SCC is then outside the replayable window.
fn scc_members(theta: &Theta, scc: &[String]) -> Option<Vec<(String, usize, String)>> {
    let mut members = Vec::with_capacity(scc.len());
    for pre in scc {
        let (root, index) = theta.case_of_pre(pre)?;
        let case = theta.definition(root)?.cases.get(index)?;
        if !matches!(&case.state, CaseState::Unknown { .. }) {
            return None;
        }
        members.push((root.to_string(), index, pre.clone()));
    }
    members.sort();
    Some(members)
}

fn resolved(theta: &Theta, pre: &str) -> bool {
    let Some((root, index)) = theta.case_of_pre(pre) else {
        return true;
    };
    theta
        .definition(root)
        .map(|d| d.cases[index].state.is_resolved())
        .unwrap_or(true)
}

/// Post-hoc validation of a finalized store, mirroring the paper's re-verification of
/// inferred specifications:
///
/// * the guards of every definition are feasible, pairwise exclusive and exhaustive;
/// * every `Term` case has a measure that is bounded and strictly decreasing on every
///   internal edge of its case (re-checked through the sound Farkas implication);
/// * every `Loop` case's unreachability obligations hold under the final definitions.
///
/// Validation re-runs the provers, so it runs under a work budget of its own,
/// the deadline of its provers; exhausting it means the re-check is
/// inconclusive and the store is conservatively reported as not validated.
/// Callers that raised [`SolveOptions::work_budget`] for solving should
/// re-verify under the same budget, or the re-check fails on budget exhaustion
/// alone.
pub fn validate_with_budget(analysis: &ProgramAnalysis, theta: &Theta, budget: u64) -> bool {
    let _budget = work::Budget::new(budget);
    // 1. Guard partitions.
    for (_, def) in theta.definitions() {
        let guards: Vec<Formula> = def.cases.iter().map(|c| c.guard.clone()).collect();
        for g in &guards {
            if !tnt_logic::sat::is_sat(g) {
                return false;
            }
        }
        for (i, a) in guards.iter().enumerate() {
            if work::deadline_exceeded() {
                return false;
            }
            for b in guards.iter().skip(i + 1) {
                if tnt_logic::sat::is_sat(&a.clone().and2(b.clone())) {
                    return false;
                }
            }
        }
        if !entail::is_valid(&Formula::or(guards)) {
            return false;
        }
    }

    // 2./3. Re-check Term and Loop cases against a re-specialisation under the final
    // definitions. Resolved Term cases are re-derived by re-running the ranking
    // synthesis restricted to their internal edges; Loop cases re-check their
    // obligations with the (now closed) definitions.
    let resolved_theta = resolved_view(theta);
    let edges = specialize_pre(analysis, &resolved_theta);
    let graph = ReachGraph::build(edges, &resolved_theta.unresolved_pres());
    let obligations = specialize_post(analysis, &resolved_theta);
    let options = SolveOptions::default();
    // Coinductive hypotheses for the `Loop` re-checks: the post-predicates of
    // every case the final store resolved to `Loop`. Every such case is
    // re-proven below, so assuming the others' posts unreachable is sound by
    // infinite descent — a shortest execution reaching any of these posts would
    // have to pass through a strictly shorter one. Without this, a `Loop` case
    // whose proof leans on a *callee's* divergence (e.g. a wrapper around a
    // diverging loop) would fail its re-check: the callee's pre sits in another
    // SCC, so the plain induction hypothesis cannot use it.
    let mut loop_posts: BTreeSet<String> = BTreeSet::new();
    for (root, def) in theta.definitions() {
        let Some(view_def) = resolved_theta.definition(root) else {
            continue;
        };
        for (index, case) in def.cases.iter().enumerate() {
            if !matches!(case.state, CaseState::Loop) {
                continue;
            }
            if let Some(CaseState::Unknown { post, .. }) =
                view_def.cases.get(index).map(|c| &c.state)
            {
                loop_posts.insert(post.clone());
            }
        }
    }
    for scc in &graph.sccs {
        if work::deadline_exceeded() {
            return false;
        }
        // Which final states do these nodes map to? The view's case indices coincide
        // with the final definition's case order by construction.
        let states: Vec<CaseState> = scc
            .iter()
            .filter_map(|p| {
                let (root, index) = resolved_theta.case_of_pre(p)?;
                Some(theta.definition(root)?.cases.get(index)?.state.clone())
            })
            .collect();
        if states.iter().any(|s| matches!(s, CaseState::Term(_)))
            && prove_term(scc, &graph, &resolved_theta, &options).is_none()
        {
            return false;
        }
        if states.iter().any(|s| matches!(s, CaseState::Loop)) {
            let outcome = prove_nonterm(scc, &obligations, &resolved_theta, &options, &loop_posts);
            if !outcome.success {
                // Fall back to recurrent-set synthesis: a `Loop` resolution
                // produced by that prover may not be re-derivable through the
                // obligation-coverage argument. The re-synthesized set must
                // cover the *whole* case guard, which is what the store claims.
                // The orbit pool is the last link of the chain, mirroring the
                // solver's staging: a `Loop` case decided by harvested atoms is
                // only re-derivable with the same pool.
                let rec = [Pool::Guards, Pool::Orbit].into_iter().find_map(|pool| {
                    prove_nonterm_recurrent(
                        scc,
                        &graph,
                        &obligations,
                        &resolved_theta,
                        &loop_posts,
                        pool,
                    )
                });
                if !rec.map(|o| o.remainder.is_empty()).unwrap_or(false) {
                    return false;
                }
            }
        }
    }
    true
}

/// A copy of the store in which every case is re-opened as unknown but keeps its final
/// guard structure — used by [`validate_with_budget`] so the re-specialisation sees the same case
/// boundaries the solver ended with.
fn resolved_view(theta: &Theta) -> Theta {
    // Re-opening is done by rebuilding from scratch with the same guards.
    let mut view = Theta::new();
    for (root, def) in theta.definitions() {
        let upo_root = root.replacen("Upr", "Upo", 1);
        view.register(root, &upo_root, def.vars.clone());
        let parts: Vec<(Formula, Option<CaseState>)> =
            def.cases.iter().map(|c| (c.guard.clone(), None)).collect();
        view.split_case(root, parts);
    }
    view
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnt_lang::frontend;
    use tnt_verify::verify_program;

    fn validate(analysis: &ProgramAnalysis, theta: &Theta) -> bool {
        validate_with_budget(analysis, theta, SolveOptions::default().work_budget)
    }

    fn run(source: &str) -> (ProgramAnalysis, Theta, SolveStats) {
        let program = frontend(source).unwrap();
        let analysis = verify_program(&program).unwrap();
        let (theta, stats) = solve(&analysis, &SolveOptions::default());
        (analysis, theta, stats)
    }

    #[test]
    fn foo_running_example_resolves_to_three_cases() {
        let (analysis, theta, stats) =
            run("void foo(int x, int y) { if (x < 0) { return; } else { foo(x + y, y); } }");
        assert!(theta.all_resolved());
        let def = theta.definition("Upr_foo#0").unwrap();
        assert_eq!(def.cases.len(), 3);
        let mut term_base = 0;
        let mut term_ranked = 0;
        let mut looping = 0;
        for case in &def.cases {
            match &case.state {
                CaseState::Term(m) if m.is_empty() => term_base += 1,
                CaseState::Term(_) => term_ranked += 1,
                CaseState::Loop => looping += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!((term_base, term_ranked, looping), (1, 1, 1));
        assert!(stats.case_splits >= 1);
        assert!(validate(&analysis, &theta));
    }

    #[test]
    fn simple_terminating_recursion() {
        let (analysis, theta, _) =
            run("void down(int n) { if (n <= 0) { return; } else { down(n - 1); } }");
        let def = theta.definition("Upr_down#0").unwrap();
        assert!(def
            .cases
            .iter()
            .all(|c| matches!(c.state, CaseState::Term(_))));
        assert!(validate(&analysis, &theta));
    }

    #[test]
    fn unconditional_divergence_is_loop() {
        let (analysis, theta, _) = run("void spin(int x) { spin(x + 1); }");
        let def = theta.definition("Upr_spin#0").unwrap();
        assert_eq!(def.cases.len(), 1);
        assert!(matches!(def.cases[0].state, CaseState::Loop));
        assert!(validate(&analysis, &theta));
    }

    #[test]
    fn nondeterministic_recursion_is_mayloop() {
        let (_, theta, _) =
            run("void f(int x) { int c = nondet(); if (c > 0) { f(x); } else { return; } }");
        let def = theta.definition("Upr_f#0").unwrap();
        assert!(def
            .cases
            .iter()
            .any(|c| matches!(c.state, CaseState::MayLoop)));
        // Soundness: never classified Term or Loop overall.
        assert!(!def
            .cases
            .iter()
            .all(|c| matches!(c.state, CaseState::Term(_))));
        assert!(!def.cases.iter().any(|c| matches!(c.state, CaseState::Loop)));
    }

    #[test]
    fn base_case_disabled_still_sound() {
        let program =
            frontend("void down(int n) { if (n <= 0) { return; } else { down(n - 1); } }").unwrap();
        let analysis = verify_program(&program).unwrap();
        let options = SolveOptions {
            enable_base_case: false,
            ..SolveOptions::default()
        };
        let (theta, _) = solve(&analysis, &options);
        // Without base-case inference the summary may be weaker (MayLoop) but must not
        // claim Loop for a terminating method.
        let def = theta.definition("Upr_down#0").unwrap();
        assert!(!def.cases.iter().any(|c| matches!(c.state, CaseState::Loop)));
    }
}
