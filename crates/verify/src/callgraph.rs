//! Call graph construction and SCC condensation.
//!
//! The inference rule `TNT-INF` processes whole groups of mutually recursive methods at
//! once, bottom-up: callees before callers. This module builds the call graph of a
//! program and returns its strongly connected components in reverse topological order
//! (Tarjan's algorithm already emits them that way).
//!
//! Nodes are interned [`Symbol`]s (`Copy`, O(1) equality/hash); `Symbol`'s `Ord`
//! compares the resolved strings, so every map, set and sorted SCC below is ordered
//! exactly as the old `String`-keyed graph was.

use std::collections::{BTreeMap, BTreeSet};
use tnt_lang::ast::Program;
use tnt_lang::Symbol;

/// The call graph of a program (methods with bodies; calls to primitives are edges to
/// nodes without outgoing edges).
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    nodes: Vec<Symbol>,
    edges: BTreeMap<Symbol, BTreeSet<Symbol>>,
    sccs: Vec<Vec<Symbol>>,
    scc_of: BTreeMap<Symbol, usize>,
}

impl CallGraph {
    /// Builds the call graph and its SCC condensation.
    pub fn build(program: &Program) -> CallGraph {
        let nodes: Vec<Symbol> = program.methods.iter().map(|m| m.name).collect();
        let mut edges: BTreeMap<Symbol, BTreeSet<Symbol>> = BTreeMap::new();
        for method in &program.methods {
            let callees: BTreeSet<Symbol> = program
                .callees(method)
                .into_iter()
                .filter(|c| nodes.contains(c))
                .collect();
            edges.insert(method.name, callees);
        }
        let sccs = tarjan(&nodes, &edges);
        let mut scc_of = BTreeMap::new();
        for (i, scc) in sccs.iter().enumerate() {
            for &n in scc {
                scc_of.insert(n, i);
            }
        }
        CallGraph {
            nodes,
            edges,
            sccs,
            scc_of,
        }
    }

    /// The strongly connected components in bottom-up (callees-first) order.
    pub fn sccs(&self) -> &[Vec<Symbol>] {
        &self.sccs
    }

    /// The index of the SCC containing `name` within [`CallGraph::sccs`].
    pub fn scc_index(&self, name: Symbol) -> Option<usize> {
        self.scc_of.get(&name).copied()
    }

    /// Returns `true` if the two methods are mutually recursive (same SCC).
    /// A method is in the same SCC as itself, so direct recursion also counts.
    pub fn same_scc(&self, a: Symbol, b: Symbol) -> bool {
        match (self.scc_of.get(&a), self.scc_of.get(&b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// The direct callees of a method.
    pub fn callees(&self, name: Symbol) -> impl Iterator<Item = Symbol> + '_ {
        self.edges
            .get(&name)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Returns `true` if the method is (directly or mutually) recursive.
    pub fn is_recursive(&self, name: Symbol) -> bool {
        let Some(&scc) = self.scc_of.get(&name) else {
            return false;
        };
        self.sccs[scc].len() > 1
            || self
                .edges
                .get(&name)
                .map(|e| e.contains(&name))
                .unwrap_or(false)
    }

    /// All known method names.
    pub fn methods(&self) -> &[Symbol] {
        &self.nodes
    }
}

/// Tarjan's strongly connected components of the graph `successors` over
/// `nodes`, in reverse topological (callees-first) order, each SCC sorted.
/// Roots are visited in `nodes` order and successors in set order, so the
/// result is deterministic.
pub fn tarjan<N: Ord + Clone>(nodes: &[N], successors: &BTreeMap<N, BTreeSet<N>>) -> Vec<Vec<N>> {
    struct State<'a, N> {
        successors: &'a BTreeMap<N, BTreeSet<N>>,
        index: usize,
        indices: BTreeMap<N, usize>,
        lowlink: BTreeMap<N, usize>,
        on_stack: BTreeSet<N>,
        stack: Vec<N>,
        sccs: Vec<Vec<N>>,
    }

    fn connect<N: Ord + Clone>(v: &N, st: &mut State<'_, N>) {
        st.indices.insert(v.clone(), st.index);
        st.lowlink.insert(v.clone(), st.index);
        st.index += 1;
        st.stack.push(v.clone());
        st.on_stack.insert(v.clone());
        let successors = st.successors;
        for w in successors.get(v).into_iter().flatten() {
            if !st.indices.contains_key(w) {
                connect(w, st);
                let low = st.lowlink[w].min(st.lowlink[v]);
                st.lowlink.insert(v.clone(), low);
            } else if st.on_stack.contains(w) {
                let low = st.indices[w].min(st.lowlink[v]);
                st.lowlink.insert(v.clone(), low);
            }
        }
        if st.lowlink[v] == st.indices[v] {
            let mut scc = Vec::new();
            loop {
                let w = st.stack.pop().expect("non-empty stack");
                st.on_stack.remove(&w);
                let done = w == *v;
                scc.push(w);
                if done {
                    break;
                }
            }
            scc.sort();
            st.sccs.push(scc);
        }
    }

    let mut state = State {
        successors,
        index: 0,
        indices: BTreeMap::new(),
        lowlink: BTreeMap::new(),
        on_stack: BTreeSet::new(),
        stack: Vec::new(),
        sccs: Vec::new(),
    };
    for n in nodes {
        if !state.indices.contains_key(n) {
            connect(n, &mut state);
        }
    }
    state.sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnt_lang::parse_program;

    fn sym(name: &str) -> Symbol {
        Symbol::intern(name)
    }

    #[test]
    fn direct_recursion_detected() {
        let program = parse_program(
            r#"void f(int x) { f(x - 1); }
               void g(int x) { return; }"#,
        )
        .unwrap();
        let graph = CallGraph::build(&program);
        assert!(graph.is_recursive(sym("f")));
        assert!(!graph.is_recursive(sym("g")));
        assert!(graph.same_scc(sym("f"), sym("f")));
        assert!(!graph.same_scc(sym("f"), sym("g")));
    }

    #[test]
    fn mutual_recursion_in_one_scc() {
        let program = parse_program(
            r#"void even(int n) { odd(n - 1); }
               void odd(int n) { even(n - 1); }
               void main(int n) { even(n); }"#,
        )
        .unwrap();
        let graph = CallGraph::build(&program);
        assert!(graph.same_scc(sym("even"), sym("odd")));
        assert!(!graph.same_scc(sym("main"), sym("even")));
        assert!(graph.is_recursive(sym("even")));
        assert!(!graph.is_recursive(sym("main")));
    }

    #[test]
    fn bottom_up_order_puts_callees_first() {
        let program = parse_program(
            r#"void a(int n) { b(n); c(n); }
               void b(int n) { c(n); }
               void c(int n) { return; }"#,
        )
        .unwrap();
        let graph = CallGraph::build(&program);
        let order: Vec<usize> = ["c", "b", "a"]
            .iter()
            .map(|m| graph.scc_index(sym(m)).unwrap())
            .collect();
        assert!(order[0] < order[1] && order[1] < order[2]);
    }

    #[test]
    fn callees_listed() {
        let program = parse_program(
            r#"void a(int n) { b(n); b(n + 1); }
               void b(int n) { return; }"#,
        )
        .unwrap();
        let graph = CallGraph::build(&program);
        assert_eq!(graph.callees(sym("a")).collect::<Vec<_>>(), vec![sym("b")]);
        assert_eq!(graph.methods().len(), 2);
    }
}
