//! Specialisation of relational assumptions against the current definitions
//! (`spec_relass`, Sec. 5.2) and the temporal reachability graph (Def. 4/5).

use crate::theta::{CaseState, Theta};
use std::collections::{BTreeMap, BTreeSet};
use tnt_logic::{sat, Formula, Lin};
use tnt_verify::assumption::{PostAssumption, PostStatus, PreAssumption};
use tnt_verify::hoare::ProgramAnalysis;
use tnt_verify::temporal::Temporal;

/// The target of a specialised pre-assumption edge.
#[derive(Clone, Debug, PartialEq)]
pub enum EdgeTarget {
    /// An (auxiliary) unknown pre-predicate, with the callee's argument expressions.
    Unknown {
        /// Destination pre-predicate name.
        pre: String,
        /// Argument expressions over the caller's logical variables.
        args: Vec<Lin>,
    },
    /// A resolved `Term` destination.
    Term,
    /// A resolved `Loop` destination.
    Loop,
    /// A resolved `MayLoop` destination.
    MayLoop,
}

/// A specialised pre-assumption: an edge of the temporal reachability graph.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Source (auxiliary) unknown pre-predicate.
    pub src: String,
    /// The specialised context `ρ ∧ guards`.
    pub ctx: Formula,
    /// The destination.
    pub target: EdgeTarget,
}

/// One antecedent conjunct of a specialised post-assumption.
#[derive(Clone, Debug)]
pub enum ObligationItem {
    /// `guard ⇒ false` — a definitely non-terminating callee scenario.
    False(Formula),
    /// `guard ⇒ true` — carries no information.
    True(Formula),
    /// `guard ⇒ U_po(args)` — a still-unknown callee (or self) post-predicate.
    Unknown {
        /// The guard.
        guard: Formula,
        /// The unknown post-predicate name.
        post: String,
        /// Its arguments.
        args: Vec<Lin>,
    },
}

/// A specialised post-assumption (proof obligation for inductive unreachability).
#[derive(Clone, Debug)]
pub struct Obligation {
    /// The exit context `ρ`.
    pub ctx: Formula,
    /// The antecedent conjuncts.
    pub items: Vec<ObligationItem>,
    /// The guard `µ` of the target case.
    pub mu: Formula,
    /// The (auxiliary) unknown post-predicate being constrained.
    pub target_post: String,
    /// The pre-predicate paired with the target (same case).
    pub target_pre: String,
}

/// Instantiates a formula over `vars` with the given argument expressions.
pub fn instantiate(formula: &Formula, vars: &[String], args: &[Lin]) -> Formula {
    // Two-phase substitution through temporaries to avoid capture when an argument
    // mentions one of the formal variables.
    let mut out = formula.clone();
    let temps: Vec<String> = (0..vars.len()).map(|i| format!("$i{i}")).collect();
    for (var, temp) in vars.iter().zip(&temps) {
        out = out.rename(var, temp);
    }
    for (temp, arg) in temps.iter().zip(args) {
        out = out.substitute(temp, arg);
    }
    out
}

/// Produces the specialised pre-assumption edges for the current definitions.
pub fn specialize_pre(analysis: &ProgramAnalysis, theta: &Theta) -> Vec<Edge> {
    let mut edges = Vec::new();
    for method in analysis.methods.values() {
        let Some(def) = theta.definition(&method.upr_name) else {
            continue;
        };
        for assumption in &method.pre_assumptions {
            let PreAssumption {
                ctx,
                antecedent,
                consequent,
            } = assumption;
            let Temporal::Unknown(caller_inst) = antecedent else {
                continue;
            };
            debug_assert_eq!(caller_inst.name, method.upr_name);
            // The caller instance arguments are the scenario's own variables, so the
            // case guards apply verbatim.
            for case in &def.cases {
                let CaseState::Unknown { pre: src, .. } = &case.state else {
                    continue;
                };
                let base_ctx = ctx.clone().and2(case.guard.clone());
                if !sat::is_sat(&base_ctx) {
                    continue;
                }
                match consequent {
                    Temporal::Term(_) => edges.push(Edge {
                        src: src.clone(),
                        ctx: base_ctx,
                        target: EdgeTarget::Term,
                    }),
                    Temporal::Loop => edges.push(Edge {
                        src: src.clone(),
                        ctx: base_ctx,
                        target: EdgeTarget::Loop,
                    }),
                    Temporal::MayLoop => edges.push(Edge {
                        src: src.clone(),
                        ctx: base_ctx,
                        target: EdgeTarget::MayLoop,
                    }),
                    Temporal::Unknown(callee_inst) => {
                        let Some(callee_def) = theta
                            .case_of_pre(&callee_inst.name)
                            .and_then(|(root, _)| theta.definition(root))
                        else {
                            continue;
                        };
                        let callee_vars = callee_def.vars.clone();
                        for callee_case in &callee_def.cases {
                            let guard =
                                instantiate(&callee_case.guard, &callee_vars, &callee_inst.args);
                            let ctx = base_ctx.clone().and2(guard);
                            if !sat::is_sat(&ctx) {
                                continue;
                            }
                            let target = match &callee_case.state {
                                CaseState::Term(_) => EdgeTarget::Term,
                                CaseState::Loop => EdgeTarget::Loop,
                                CaseState::MayLoop => EdgeTarget::MayLoop,
                                CaseState::Unknown { pre, .. } => EdgeTarget::Unknown {
                                    pre: pre.clone(),
                                    args: callee_inst.args.clone(),
                                },
                            };
                            edges.push(Edge {
                                src: src.clone(),
                                ctx: ctx.clone(),
                                target,
                            });
                        }
                    }
                }
            }
        }
    }
    edges
}

/// Produces the specialised post-assumption obligations for the current definitions.
pub fn specialize_post(analysis: &ProgramAnalysis, theta: &Theta) -> Vec<Obligation> {
    let mut obligations = Vec::new();
    for method in analysis.methods.values() {
        let Some(def) = theta.definition(&method.upr_name) else {
            continue;
        };
        for assumption in &method.post_assumptions {
            let PostAssumption {
                ctx,
                accumulated,
                guard: _,
                target,
            } = assumption;
            // Expand the accumulated callee posts by their current definitions.
            let mut items = Vec::new();
            for (g, status) in accumulated {
                match status {
                    PostStatus::Reachable => items.push(ObligationItem::True(g.clone())),
                    PostStatus::Unreachable => items.push(ObligationItem::False(g.clone())),
                    PostStatus::Unknown(inst) => {
                        let Some((root, _)) = theta.case_of_post(&inst.name) else {
                            items.push(ObligationItem::Unknown {
                                guard: g.clone(),
                                post: inst.name.clone(),
                                args: inst.args.clone(),
                            });
                            continue;
                        };
                        let callee_def = theta.definition(root).expect("owner exists");
                        let callee_vars = callee_def.vars.clone();
                        for case in &callee_def.cases {
                            let case_guard = instantiate(&case.guard, &callee_vars, &inst.args);
                            let guard = g.clone().and2(case_guard);
                            match &case.state {
                                CaseState::Term(_) | CaseState::MayLoop => {
                                    items.push(ObligationItem::True(guard))
                                }
                                CaseState::Loop => items.push(ObligationItem::False(guard)),
                                CaseState::Unknown { post, .. } => {
                                    items.push(ObligationItem::Unknown {
                                        guard,
                                        post: post.clone(),
                                        args: inst.args.clone(),
                                    })
                                }
                            }
                        }
                    }
                }
            }
            // One obligation per still-unknown case of the method's own definition.
            for case in &def.cases {
                let CaseState::Unknown { pre, post } = &case.state else {
                    continue;
                };
                let mu = instantiate(&case.guard, &def.vars, &target.args);
                if !sat::is_sat(&ctx.clone().and2(mu.clone())) {
                    continue;
                }
                obligations.push(Obligation {
                    ctx: ctx.clone(),
                    items: items.clone(),
                    mu,
                    target_post: post.clone(),
                    target_pre: pre.clone(),
                });
            }
        }
    }
    obligations
}

/// The temporal reachability graph over unknown pre-predicates (Def. 4), with its
/// SCC condensation in bottom-up (callee-first) order.
#[derive(Clone, Debug, Default)]
pub struct ReachGraph {
    /// All edges.
    pub edges: Vec<Edge>,
    /// The SCCs of unknown nodes, bottom-up.
    pub sccs: Vec<Vec<String>>,
}

impl ReachGraph {
    /// Builds the graph from specialised edges; nodes are all unresolved pre-predicates
    /// (including isolated ones with no edges).
    pub fn build(edges: Vec<Edge>, unresolved: &[String]) -> ReachGraph {
        let mut nodes: BTreeSet<String> = unresolved.iter().cloned().collect();
        for e in &edges {
            nodes.insert(e.src.clone());
            if let EdgeTarget::Unknown { pre, .. } = &e.target {
                nodes.insert(pre.clone());
            }
        }
        let mut successors: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for n in &nodes {
            successors.entry(n.clone()).or_default();
        }
        for e in &edges {
            if let EdgeTarget::Unknown { pre, .. } = &e.target {
                successors
                    .entry(e.src.clone())
                    .or_default()
                    .insert(pre.clone());
            }
        }
        let node_list: Vec<String> = nodes.into_iter().collect();
        let sccs = tnt_verify::callgraph::tarjan(&node_list, &successors);
        ReachGraph { edges, sccs }
    }

    /// The outside successors of an SCC (Def. 5): edge targets from SCC members that
    /// are not themselves in the SCC.
    pub fn scc_successors(&self, scc: &[String]) -> Vec<&EdgeTarget> {
        let members: BTreeSet<&String> = scc.iter().collect();
        self.edges
            .iter()
            .filter(|e| members.contains(&e.src))
            .filter(|e| match &e.target {
                EdgeTarget::Unknown { pre, .. } => !members.contains(pre),
                _ => true,
            })
            .map(|e| &e.target)
            .collect()
    }

    /// The edges internal to an SCC (used for ranking-function synthesis).
    pub fn internal_edges(&self, scc: &[String]) -> Vec<&Edge> {
        let members: BTreeSet<&String> = scc.iter().collect();
        self.edges
            .iter()
            .filter(|e| members.contains(&e.src))
            .filter(|e| match &e.target {
                EdgeTarget::Unknown { pre, .. } => members.contains(pre),
                _ => false,
            })
            .collect()
    }

    /// Returns `true` if the single-node SCC has a self edge.
    pub fn has_self_edge(&self, node: &str) -> bool {
        self.edges.iter().any(|e| {
            e.src == node && matches!(&e.target, EdgeTarget::Unknown { pre, .. } if pre == node)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnt_logic::{num, var, Constraint};

    #[test]
    fn instantiate_substitutes_positionally() {
        let guard: Formula = Constraint::ge(var("x"), num(0)).into();
        let inst = instantiate(&guard, &["x".to_string()], &[var("x").add(&var("y"))]);
        // x >= 0 with x := x + y  gives  x + y >= 0.
        let expected: Formula = Constraint::ge(var("x").add(&var("y")), num(0)).into();
        assert!(tnt_logic::entail::equivalent(&inst, &expected));
    }

    #[test]
    fn instantiate_avoids_capture_on_swap() {
        // P(a, b) with guard a >= b instantiated with (b, a) must give b >= a.
        let guard: Formula = Constraint::ge(var("a"), var("b")).into();
        let inst = instantiate(
            &guard,
            &["a".to_string(), "b".to_string()],
            &[var("b"), var("a")],
        );
        let expected: Formula = Constraint::ge(var("b"), var("a")).into();
        assert!(tnt_logic::entail::equivalent(&inst, &expected));
    }

    #[test]
    fn graph_sccs_bottom_up() {
        let edges = vec![
            Edge {
                src: "A".to_string(),
                ctx: Formula::True,
                target: EdgeTarget::Unknown {
                    pre: "B".to_string(),
                    args: vec![],
                },
            },
            Edge {
                src: "B".to_string(),
                ctx: Formula::True,
                target: EdgeTarget::Unknown {
                    pre: "B".to_string(),
                    args: vec![],
                },
            },
            Edge {
                src: "B".to_string(),
                ctx: Formula::True,
                target: EdgeTarget::Term,
            },
        ];
        let graph = ReachGraph::build(edges, &["A".to_string(), "B".to_string()]);
        assert_eq!(graph.sccs.len(), 2);
        // B (the callee-like node) must come before A.
        assert_eq!(graph.sccs[0], vec!["B".to_string()]);
        assert!(graph.has_self_edge("B"));
        assert!(!graph.has_self_edge("A"));
        // B's outside successors: only Term (the self edge is internal).
        let succ = graph.scc_successors(&["B".to_string()]);
        assert_eq!(succ.len(), 1);
        assert!(matches!(succ[0], EdgeTarget::Term));
        assert_eq!(graph.internal_edges(&["B".to_string()]).len(), 1);
    }
}
