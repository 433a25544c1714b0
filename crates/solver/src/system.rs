//! The transition system of a strongly connected component.
//!
//! `prove_Term` (paper Fig. 8) and `prove_NonTerm` (Fig. 9) both read the same
//! object: the guarded call transitions between the unknown pre-predicates of
//! an SCC. A [`TransitionSystem`] holds one node per pre-predicate, with its
//! formal parameters, and one [`Transition`] per guarded call. The ranking
//! synthesis ([`crate::ranking`], [`crate::lexicographic`],
//! [`crate::multiphase`]) reads the guards through Farkas' lemma; the
//! recurrent-set synthesis ([`crate::recurrent`]) and the orbit harvest
//! ([`crate::orbit`]) also step the argument expressions on concrete states.

use crate::farkas::TemplateLin;
use crate::linear::{Ineq, Lin};
use std::collections::BTreeMap;

/// Identifier of a node (an unknown pre-predicate) of a transition system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// One guarded call from `src` to `dst`.
///
/// The guard is a conjunction of linear constraints (each `≥ 0`) over the
/// source node's formals, any auxiliary variables of the call context, and the
/// names in `dst_vars`, which carry — in the destination's formal order — the
/// values passed to `dst`. `args` gives the same values as affine expressions
/// over the source state, which the concrete simulations evaluate.
///
/// The guard must include the bindings `dst_vars[i] = args[i]` (e.g. via
/// [`Ineq::eq_zero`]): the Farkas checks relate source and destination state
/// only through the guard.
#[derive(Clone, Debug)]
pub struct Transition {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// For each formal parameter of `dst` (in order), the guard variable carrying its value.
    pub dst_vars: Vec<String>,
    /// For each formal parameter of `dst` (in order), its value as an affine
    /// expression over the source state.
    pub args: Vec<Lin>,
    /// Conjunction of linear constraints (each `≥ 0`) describing the call context.
    pub guard: Vec<Ineq>,
}

impl Transition {
    /// Creates a transition.
    pub fn new(
        src: NodeId,
        dst: NodeId,
        dst_vars: Vec<String>,
        args: Vec<Lin>,
        guard: Vec<Ineq>,
    ) -> Self {
        Transition {
            src,
            dst,
            dst_vars,
            args,
            guard,
        }
    }
}

/// Nodes with formal parameters and guarded transitions between them.
///
/// See the crate-level documentation for a worked example.
#[derive(Clone, Debug, Default)]
pub struct TransitionSystem {
    nodes: Vec<Vec<String>>,
    transitions: Vec<Transition>,
}

impl TransitionSystem {
    /// Creates an empty system.
    pub fn new() -> Self {
        TransitionSystem::default()
    }

    /// Adds a node (an unknown pre-predicate) with the given formal parameters
    /// and returns its identifier.
    pub fn add_node(&mut self, formals: &[impl AsRef<str>]) -> NodeId {
        self.nodes
            .push(formals.iter().map(|v| v.as_ref().to_string()).collect());
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a transition. Panics unless it names one destination variable and
    /// one argument per formal parameter of its destination.
    pub fn add_transition(&mut self, transition: Transition) {
        let arity = self.formals(transition.dst).len();
        assert!(
            transition.dst_vars.len() == arity && transition.args.len() == arity,
            "transition argument count mismatch for destination node"
        );
        self.transitions.push(transition);
    }

    /// The formal parameters of a node.
    pub fn formals(&self, node: NodeId) -> &[String] {
        &self.nodes[node.0]
    }

    /// The transitions of the system.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Number of nodes.
    pub(crate) fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Simultaneously renames the destination's formals in `lin` to the
    /// transition's destination variables.
    pub(crate) fn rename_to_dst(&self, lin: &Lin, transition: &Transition) -> Lin {
        let formals = self.formals(transition.dst);
        let mut out = Lin::constant(lin.constant_term());
        for (v, c) in lin.terms() {
            let name = match formals.iter().position(|f| f == v) {
                Some(i) => transition.dst_vars[i].as_str(),
                None => v,
            };
            out.add_term(name, c);
        }
        out
    }

    /// [`Self::rename_to_dst`] for a template over the destination's formals.
    pub(crate) fn rename_template_to_dst(
        &self,
        template: &TemplateLin,
        transition: &Transition,
    ) -> TemplateLin {
        let map: BTreeMap<String, String> = self
            .formals(transition.dst)
            .iter()
            .cloned()
            .zip(transition.dst_vars.iter().cloned())
            .collect();
        template.rename_program_vars(&map)
    }
}
