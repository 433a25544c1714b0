//! Hoare-style forward verification generating relational assumptions (paper Sec. 4).
//!
//! For every specification scenario whose temporal status is unknown, the method body
//! is executed symbolically (disjunctively, path by path). Two sets of assumptions are
//! collected:
//!
//! * **pre-assumptions** `S` — one per method call, from proving the callee's
//!   precondition (rule `TNT-CALL`, filtered for trivial assumptions);
//! * **post-assumptions** `T` — one per feasible exit state, from proving the method's
//!   postcondition (rule `TNT-METH`).
//!
//! These are exactly the inputs of the inference procedure `solve` (Fig. 6), which
//! lives in the `tnt-infer` crate.

use crate::assumption::{is_trivial_pre, PostAssumption, PostStatus, PreAssumption};
use crate::callgraph::CallGraph;
use crate::specenv::{MethodSpec, Scenario, SpecEnv};
use crate::symstate::SymState;
use crate::temporal::{PredInstance, Temporal};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use tnt_heap::entail::consume;
use tnt_heap::state::{HeapAtom, HeapState};
use tnt_lang::ast::{Block, Expr, MethodDecl, Program, Stmt};
use tnt_lang::Symbol;
use tnt_logic::{entail, Constraint, Formula, Lin, Rational};

/// An error produced by the verifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verification error: {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

/// The assumption sets collected for one unknown scenario of one method.
#[derive(Clone, Debug)]
pub struct MethodAnalysis {
    /// Method name.
    pub method: String,
    /// Scenario index within the method's specification.
    pub scenario_index: usize,
    /// The measure variables the unknown predicates range over.
    pub vars: Vec<String>,
    /// Name of the unknown pre-predicate.
    pub upr_name: String,
    /// Name of the unknown post-predicate.
    pub upo_name: String,
    /// The scenario's precondition (pure part), for reporting.
    pub pre_pure: Formula,
    /// The pre-assumption set `S`.
    pub pre_assumptions: Vec<PreAssumption>,
    /// The post-assumption set `T`.
    pub post_assumptions: Vec<PostAssumption>,
}

/// The result of verifying a whole program.
#[derive(Clone, Debug)]
pub struct ProgramAnalysis {
    /// Analyses keyed by label: the method name when the method has a single unknown
    /// scenario, otherwise `name#index`.
    pub methods: BTreeMap<String, MethodAnalysis>,
    /// The program's call graph (bottom-up SCC order).
    pub call_graph: CallGraph,
    /// The compiled specification environment.
    pub spec_env: SpecEnv,
}

/// Verifies a program, producing assumption sets for every unknown scenario.
///
/// # Errors
///
/// Returns a [`VerifyError`] if specifications cannot be compiled, a body still
/// contains a `while` loop (the front-end desugars them), or a call targets an
/// undeclared method.
pub fn verify_program(program: &Program) -> Result<ProgramAnalysis, VerifyError> {
    let spec_env = SpecEnv::build(program).map_err(|e| VerifyError {
        message: e.to_string(),
    })?;
    let call_graph = CallGraph::build(program);
    let mut methods = BTreeMap::new();
    for method in &program.methods {
        let Some(body) = &method.body else { continue };
        let spec = spec_env
            .method(&method.name)
            .expect("spec compiled for every method");
        let unknown_count = spec.unknown_scenarios().count();
        for scenario in spec.scenarios.clone() {
            if !scenario.temporal.is_unknown() {
                continue;
            }
            let analysis = analyze_scenario(&spec_env, &call_graph, method, spec, &scenario, body)?;
            let label = if unknown_count == 1 {
                method.name.to_string()
            } else {
                format!("{}#{}", method.name, scenario.index)
            };
            methods.insert(label, analysis);
        }
    }
    Ok(ProgramAnalysis {
        methods,
        call_graph,
        spec_env,
    })
}

/// A fresh-name generator shared by one scenario's execution.
#[derive(Debug, Default)]
struct FreshGen {
    next: usize,
}

impl FreshGen {
    fn fresh(&mut self, prefix: &str) -> String {
        self.next += 1;
        format!("{prefix}@{}", self.next)
    }
}

struct Exec<'a> {
    env: &'a SpecEnv,
    graph: &'a CallGraph,
    caller: &'a MethodSpec,
    scenario: &'a Scenario,
    fresh: FreshGen,
    pre_assumptions: Vec<PreAssumption>,
    error: Option<String>,
}

fn analyze_scenario(
    env: &SpecEnv,
    graph: &CallGraph,
    method: &MethodDecl,
    spec: &MethodSpec,
    scenario: &Scenario,
    body: &Block,
) -> Result<MethodAnalysis, VerifyError> {
    let mut exec = Exec {
        env,
        graph,
        caller: spec,
        scenario,
        fresh: FreshGen::default(),
        pre_assumptions: Vec::new(),
        error: None,
    };

    // Initial state: the scenario's precondition plus the pure invariants of its heap.
    let mut pre = scenario.pre_pure.clone();
    for atom in &scenario.pre_heap {
        pre = pre.and2(env.invariants.instance(&env.preds, atom));
    }
    let initial = SymState::initial(&spec.params, pre, HeapState::new(scenario.pre_heap.clone()));

    let final_states = exec.exec_block(vec![initial], body);
    if let Some(message) = exec.error {
        return Err(VerifyError { message });
    }

    let upo = scenario
        .upo_instance()
        .expect("unknown scenario has a post-predicate");
    let mut post_assumptions = Vec::new();
    for state in final_states {
        if !state.is_feasible() {
            continue;
        }
        post_assumptions.push(PostAssumption {
            ctx: tnt_logic::simplify::simplify(&state.pure),
            accumulated: state.accumulated.clone(),
            guard: Formula::True,
            target: upo.clone(),
        });
    }

    Ok(MethodAnalysis {
        method: method.name.to_string(),
        scenario_index: scenario.index,
        vars: scenario.vars.clone(),
        upr_name: scenario.upr_name.clone().expect("unknown scenario"),
        upo_name: scenario.upo_name.clone().expect("unknown scenario"),
        pre_pure: scenario.pre_pure.clone(),
        pre_assumptions: exec.pre_assumptions,
        post_assumptions,
    })
}

impl Exec<'_> {
    fn fail(&mut self, message: impl Into<String>) {
        if self.error.is_none() {
            self.error = Some(message.into());
        }
    }

    fn exec_block(&mut self, states: Vec<SymState>, block: &Block) -> Vec<SymState> {
        let mut current = states;
        for stmt in &block.stmts {
            current = self.exec_stmt(current, stmt);
        }
        current
    }

    fn exec_stmt(&mut self, states: Vec<SymState>, stmt: &Stmt) -> Vec<SymState> {
        let mut out = Vec::new();
        for state in states {
            if state.exited || !state.is_feasible() {
                out.push(state);
                continue;
            }
            out.extend(self.step(state, stmt));
        }
        out
    }

    fn step(&mut self, mut state: SymState, stmt: &Stmt) -> Vec<SymState> {
        match stmt {
            Stmt::Skip => vec![state],
            Stmt::VarDecl(_, name, None) => {
                let fresh = self.fresh.fresh(name);
                state.bind(name, Lin::var(fresh));
                vec![state]
            }
            Stmt::VarDecl(_, name, Some(init)) | Stmt::Assign(name, init) => {
                let results = self.eval_rhs(state, init);
                results
                    .into_iter()
                    .map(|(mut s, value)| {
                        s.bind(name, value);
                        s
                    })
                    .collect()
            }
            Stmt::FieldAssign(base, field, value) => {
                let value = match state.eval_lin(value) {
                    Ok(v) => v,
                    Err(e) => {
                        self.fail(format!("field assignment: {e}"));
                        return vec![state];
                    }
                };
                let root = state.value_of(base);
                self.access_cell(state, &root)
                    .into_iter()
                    .map(|(mut s, index)| {
                        if let HeapAtom::PointsTo { data, fields, .. } = &mut s.heap.atoms[index] {
                            if let Some(&fi) =
                                self.env.field_index.get(&(data.clone(), field.to_string()))
                            {
                                fields[fi] = value.clone();
                            }
                        }
                        s
                    })
                    .collect()
            }
            Stmt::If(cond, then_block, else_block) => {
                let cond = match state.eval_formula(cond) {
                    Ok(f) => f,
                    Err(e) => {
                        self.fail(format!("condition: {e}"));
                        return vec![state];
                    }
                };
                let mut then_state = state.clone();
                then_state.assume(cond.clone());
                let mut else_state = state;
                else_state.assume(cond.negate());
                let mut out = Vec::new();
                if then_state.is_feasible() {
                    out.extend(self.exec_block(vec![then_state], then_block));
                }
                if else_state.is_feasible() {
                    out.extend(self.exec_block(vec![else_state], else_block));
                }
                out
            }
            Stmt::While(..) => {
                self.fail("while loops must be desugared before verification");
                vec![state]
            }
            Stmt::Return(_) => {
                state.exited = true;
                vec![state]
            }
            Stmt::Assume(cond) => {
                match state.eval_formula(cond) {
                    Ok(f) => state.assume(f),
                    Err(e) => self.fail(format!("assume: {e}")),
                }
                vec![state]
            }
            Stmt::ExprStmt(Expr::Call(name, args)) => self
                .exec_call(state, name, args)
                .into_iter()
                .map(|(s, _)| s)
                .collect(),
            Stmt::ExprStmt(_) => vec![state],
        }
    }

    /// Evaluates the right-hand side of an assignment, splitting states when a field
    /// read requires unfolding.
    fn eval_rhs(&mut self, state: SymState, expr: &Expr) -> Vec<(SymState, Lin)> {
        match expr {
            Expr::Call(name, args) => self
                .exec_call(state, name, args)
                .into_iter()
                .map(|(s, v)| {
                    let value = v.unwrap_or_else(Lin::zero);
                    (s, value)
                })
                .collect(),
            Expr::New(data, args) => {
                let mut state = state;
                let fields: Vec<Lin> = args
                    .iter()
                    .map(|a| state.eval_lin(a).unwrap_or_else(|_| Lin::zero()))
                    .collect();
                let addr = Lin::var(self.fresh.fresh("addr"));
                state.assume(Constraint::ge(addr.clone(), Lin::constant(Rational::one())).into());
                state.heap.push(HeapAtom::PointsTo {
                    root: addr.clone(),
                    data: data.to_string(),
                    fields,
                });
                vec![(state, addr)]
            }
            Expr::Field(base, field) => {
                let root = state.value_of(base);
                self.read_field(state, &root, field)
            }
            Expr::Nondet => {
                let value = Lin::var(self.fresh.fresh("nd"));
                vec![(state, value)]
            }
            other => match state.eval_lin(other) {
                Ok(value) => vec![(state, value)],
                Err(_) => {
                    // A boolean right-hand side: encode the truth value into {0, 1}.
                    match state.eval_formula(other) {
                        Ok(cond) => {
                            let mut state = state;
                            let b = Lin::var(self.fresh.fresh("b"));
                            let is_one = Constraint::eq(b.clone(), Lin::constant(Rational::one()));
                            let is_zero = Constraint::eq(b.clone(), Lin::zero());
                            state.assume(Formula::or(vec![
                                cond.clone().and2(is_one.into()),
                                cond.negate().and2(is_zero.into()),
                            ]));
                            vec![(state, b)]
                        }
                        Err(e) => {
                            self.fail(format!("right-hand side: {e}"));
                            vec![(state, Lin::zero())]
                        }
                    }
                }
            },
        }
    }

    /// The heap cell a field access at `root` reads or writes, unfolding predicates
    /// as needed (see [`Self::materialize_points_to`]). A *feasible* state in which
    /// no cell can be materialised is a possible null or dangling dereference that
    /// nothing in this pipeline proves absent, so it fails verification: dropping
    /// it would prove every claim about the executions through it vacuously.
    fn access_cell(&mut self, state: SymState, root: &Lin) -> Vec<(SymState, usize)> {
        match self.materialize_points_to(state, root, 3) {
            Ok(cells) => cells,
            Err(state) => {
                if state.is_feasible() {
                    self.fail(format!(
                        "field access at {root}: no heap cell can be materialised \
                         (possible null or dangling dereference)"
                    ));
                }
                vec![]
            }
        }
    }

    /// Finds (unfolding as needed) a points-to atom at the given root; returns the
    /// resulting states together with the atom index, or gives the state back when
    /// no cell can be materialised from it. Unfolded branches without a cell are
    /// dropped.
    fn materialize_points_to(
        &mut self,
        state: SymState,
        root: &Lin,
        budget: usize,
    ) -> Result<Vec<(SymState, usize)>, Box<SymState>> {
        // Direct hit?
        for (index, atom) in state.heap.atoms.iter().enumerate() {
            if let HeapAtom::PointsTo { root: r, .. } = atom {
                if r == root
                    || entail::entails(&state.pure, &Constraint::eq(r.clone(), root.clone()).into())
                {
                    return Ok(vec![(state, index)]);
                }
            }
        }
        if budget == 0 {
            return Err(Box::new(state));
        }
        // Unfold a predicate instance rooted at `root`.
        for (index, atom) in state.heap.atoms.iter().enumerate() {
            let HeapAtom::Pred { .. } = atom else {
                continue;
            };
            let r = atom.root();
            if !(r == *root
                || entail::entails(&state.pure, &Constraint::eq(r, root.clone()).into()))
            {
                continue;
            }
            let mut out = Vec::new();
            let fresh = &mut self.fresh;
            let mut fresh_fn = || fresh.fresh("hv");
            let branches = self.env.preds.unfold(atom, &mut fresh_fn);
            for (branch_atoms, branch_pure) in branches {
                let mut s = state.clone();
                s.heap.take(index);
                let mut pure_extra = branch_pure;
                for a in &branch_atoms {
                    pure_extra = pure_extra.and2(self.env.invariants.instance(&self.env.preds, a));
                    s.heap.push(a.clone());
                }
                s.assume(pure_extra);
                if s.is_feasible() {
                    out.extend(
                        self.materialize_points_to(s, root, budget - 1)
                            .unwrap_or_default(),
                    );
                }
            }
            return if out.is_empty() {
                Err(Box::new(state))
            } else {
                Ok(out)
            };
        }
        Err(Box::new(state))
    }

    /// Reads a field at the given root (unfolding as needed).
    fn read_field(&mut self, state: SymState, root: &Lin, field: &str) -> Vec<(SymState, Lin)> {
        self.access_cell(state, root)
            .into_iter()
            .filter_map(|(s, index)| {
                let HeapAtom::PointsTo { data, fields, .. } = &s.heap.atoms[index] else {
                    return None;
                };
                let fi = self
                    .env
                    .field_index
                    .get(&(data.clone(), field.to_string()))?;
                let value = fields.get(*fi)?.clone();
                Some((s, value))
            })
            .collect()
    }

    /// Executes a method call: proves the callee's precondition (emitting a
    /// pre-assumption), assumes its postcondition and accumulates its post-status.
    fn exec_call(
        &mut self,
        mut state: SymState,
        callee_name: &str,
        args: &[Expr],
    ) -> Vec<(SymState, Option<Lin>)> {
        let Some(callee) = self.env.method(callee_name) else {
            self.fail(format!("call to unknown method `{callee_name}`"));
            return vec![(state, None)];
        };
        let callee = callee.clone();

        // Evaluate arguments and introduce the callee's primed parameter variables.
        let mut param_subst: BTreeMap<String, Lin> = BTreeMap::new();
        for (param, arg) in callee.params.iter().zip(args) {
            let value = match state.eval_lin(arg) {
                Ok(v) => v,
                Err(e) => {
                    self.fail(format!("call argument: {e}"));
                    return vec![(state, None)];
                }
            };
            let primed = Lin::var(self.fresh.fresh(param));
            state.assume(Constraint::eq(primed.clone(), value).into());
            param_subst.insert(param.clone(), primed);
        }

        let antecedent = self.scenario.temporal.clone();
        let same_scc = self.graph.same_scc(
            Symbol::intern(&self.caller.name),
            Symbol::intern(callee_name),
        );

        // Try the callee's scenarios in order.
        for scenario in &callee.scenarios {
            if let Some(result) = self.try_scenario(
                &state,
                &callee,
                scenario,
                &param_subst,
                &antecedent,
                same_scc,
            ) {
                return result
                    .into_iter()
                    .map(|(mut state, value)| {
                        self.havoc_ref_params(&mut state, &callee, args);
                        (state, value)
                    })
                    .collect();
            }
        }

        // No scenario provable: conservative fallback. The callee's behaviour is
        // unconstrained, so the caller can at best be MayLoop — record that.
        let assumption = PreAssumption {
            ctx: state.pure.clone(),
            antecedent,
            consequent: Temporal::MayLoop,
        };
        if !is_trivial_pre(&assumption, same_scc) {
            self.pre_assumptions.push(assumption);
        }
        let result = callee
            .returns_value
            .then(|| Lin::var(self.fresh.fresh("ret")));
        self.havoc_ref_params(&mut state, &callee, args);
        vec![(state, result)]
    }

    #[allow(clippy::too_many_arguments)]
    fn try_scenario(
        &mut self,
        state: &SymState,
        callee: &MethodSpec,
        scenario: &Scenario,
        param_subst: &BTreeMap<String, Lin>,
        antecedent: &Temporal,
        same_scc: bool,
    ) -> Option<Vec<(SymState, Option<Lin>)>> {
        let mut state = state.clone();

        // Freshen the scenario's ghost variables.
        let mut subst: BTreeMap<String, Lin> = param_subst.clone();
        let mut ghost_names: BTreeMap<String, String> = BTreeMap::new();
        for ghost in &scenario.ghosts {
            let fresh = self.fresh.fresh(ghost);
            ghost_names.insert(ghost.clone(), fresh.clone());
            subst.insert(ghost.clone(), Lin::var(fresh));
        }
        let apply = |formula: &Formula| -> Formula {
            let mut out = formula.clone();
            for (var, by) in &subst {
                out = out.substitute(var, by);
            }
            out
        };
        let apply_atom = |atom: &HeapAtom| -> HeapAtom {
            let mut out = atom.clone();
            for (var, by) in &subst {
                out = out.substitute(var, by);
            }
            out
        };

        // Consume the heap precondition.
        let required: Vec<HeapAtom> = scenario.pre_heap.iter().map(apply_atom).collect();
        let existentials: BTreeSet<String> = ghost_names.values().cloned().collect();
        let (frame, mut ghost_bindings, side_pure) = if required.is_empty() {
            (state.heap.clone(), BTreeMap::new(), Formula::True)
        } else {
            let fresh = &mut self.fresh;
            let mut fresh_fn = || fresh.fresh("hv");
            let matches = consume(
                &state.heap,
                &state.pure,
                &required,
                &existentials,
                &self.env.preds,
                &mut fresh_fn,
            );
            let m = matches.into_iter().next()?;
            (m.frame, m.bindings, m.side_pure)
        };
        // Ghosts not bound by the heap match stay as fresh symbolic values.
        for name in existentials {
            ghost_bindings
                .entry(name.clone())
                .or_insert_with(|| Lin::var(name));
        }
        let resolve = |lin: &Lin| -> Lin {
            let mut out = lin.clone();
            for (var, by) in &ghost_bindings {
                out = out.substitute(var, by);
            }
            out
        };
        let resolve_formula = |f: &Formula| -> Formula {
            let mut out = f.clone();
            for (var, by) in &ghost_bindings {
                out = out.substitute(var, by);
            }
            out
        };

        state.assume(side_pure);

        // Prove the pure precondition.
        let pre_pure = resolve_formula(&apply(&scenario.pre_pure));
        if !entail::entails(&state.pure, &pre_pure) {
            return None;
        }

        // Emit the pre-assumption for the temporal obligation.
        let instantiate_lin = |lin: &Lin| -> Lin {
            let mut out = lin.clone();
            for (var, by) in &subst {
                out = out.substitute(var, by);
            }
            resolve(&out)
        };
        let consequent = match &scenario.temporal {
            Temporal::Unknown(inst) => Temporal::Unknown(PredInstance::new(
                inst.name.clone(),
                inst.args.iter().map(instantiate_lin).collect(),
            )),
            Temporal::Term(measure) => {
                Temporal::Term(measure.iter().map(instantiate_lin).collect())
            }
            Temporal::Loop => Temporal::Loop,
            Temporal::MayLoop => Temporal::MayLoop,
        };
        let assumption = PreAssumption {
            ctx: tnt_logic::simplify::simplify(&state.pure),
            antecedent: antecedent.clone(),
            consequent: consequent.clone(),
        };
        if !is_trivial_pre(&assumption, same_scc) {
            self.pre_assumptions.push(assumption);
        }

        // Assume the postcondition: heap frame + post heap, pure post, result value.
        let result = callee
            .returns_value
            .then(|| Lin::var(self.fresh.fresh("ret")));
        state.heap = frame;
        for atom in &scenario.post_heap {
            let mut instantiated = apply_atom(atom);
            for (var, by) in &ghost_bindings {
                instantiated = instantiated.substitute(var, by);
            }
            if let Some(r) = &result {
                instantiated = instantiated.substitute("res", r);
            }
            state.heap.push(instantiated.clone());
            state.assume(self.env.invariants.instance(&self.env.preds, &instantiated));
        }
        let mut post_pure = resolve_formula(&apply(&scenario.post_pure));
        if let Some(r) = &result {
            post_pure = post_pure.substitute("res", r);
        }
        // An `ensures false` (definitely non-terminating callee) is not conjoined into
        // the path condition: the paper keeps the continuation's context satisfiable and
        // records the unreachability as a `(guard ⇒ false)` conjunct of the caller's
        // post-assumption antecedent instead (Sec. 5.5).
        let post_is_false = post_pure.is_false();
        if !post_is_false {
            state.assume(post_pure);
        }

        // Accumulate the callee's post-status for the caller's post-assumptions.
        match &scenario.temporal {
            Temporal::Unknown(_) => {
                let upo = scenario.upo_name.clone().expect("unknown scenario");
                let args: Vec<Lin> = scenario
                    .vars
                    .iter()
                    .map(|v| instantiate_lin(&Lin::var(v.clone())))
                    .collect();
                state.record_post(PostStatus::Unknown(PredInstance::new(upo, args)));
            }
            Temporal::Loop => state.record_post(PostStatus::Unreachable),
            Temporal::Term(_) | Temporal::MayLoop => {
                if post_is_false {
                    state.record_post(PostStatus::Unreachable);
                }
            }
        }

        Some(vec![(state, result)])
    }

    fn havoc_ref_params(&mut self, state: &mut SymState, callee: &MethodSpec, args: &[Expr]) {
        for (param, arg) in callee.params.iter().zip(args) {
            if callee.ref_params.contains(param) {
                if let Expr::Var(v) = arg {
                    let fresh = self.fresh.fresh(v);
                    state.bind(v, Lin::var(fresh));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnt_lang::frontend;

    fn analyze(source: &str) -> ProgramAnalysis {
        verify_program(&frontend(source).unwrap()).unwrap()
    }

    #[test]
    fn running_example_assumption_shapes() {
        let analysis =
            analyze("void foo(int x, int y) { if (x < 0) { return; } else { foo(x + y, y); } }");
        let foo = &analysis.methods["foo"];
        assert_eq!(foo.vars, vec!["x".to_string(), "y".to_string()]);

        // (a02): one pre-assumption relating Upr(x, y) and Upr(x', y') under x >= 0.
        assert_eq!(foo.pre_assumptions.len(), 1);
        let pre = &foo.pre_assumptions[0];
        assert!(pre.antecedent.is_unknown());
        assert!(pre.consequent.is_unknown());
        let x_nonneg: Formula = Constraint::ge(Lin::var("x"), Lin::zero()).into();
        assert!(entail::entails(&pre.ctx, &x_nonneg));

        // (a01) and (a03): two post-assumptions, one base case (x < 0), one inductive.
        assert_eq!(foo.post_assumptions.len(), 2);
        let base: Vec<_> = foo
            .post_assumptions
            .iter()
            .filter(|p| p.is_base_case())
            .collect();
        assert_eq!(base.len(), 1);
        let x_neg: Formula = Constraint::lt(Lin::var("x"), Lin::zero()).into();
        assert!(entail::entails(&base[0].ctx, &x_neg));
        let inductive: Vec<_> = foo
            .post_assumptions
            .iter()
            .filter(|p| !p.is_base_case())
            .collect();
        assert_eq!(inductive[0].accumulated.len(), 1);
        assert!(inductive[0].accumulated[0].1.is_unknown());
    }

    #[test]
    fn call_argument_relation_is_recorded() {
        let analysis =
            analyze("void foo(int x, int y) { if (x < 0) { return; } else { foo(x + y, y); } }");
        let foo = &analysis.methods["foo"];
        let pre = &foo.pre_assumptions[0];
        // The consequent's first argument equals x + y under the context.
        let Temporal::Unknown(inst) = &pre.consequent else {
            panic!("expected unknown consequent")
        };
        let arg = inst.args[0].clone();
        let expected = Lin::var("x").add(&Lin::var("y"));
        let equal: Formula = Constraint::eq(arg, expected).into();
        assert!(entail::entails(&pre.ctx, &equal));
    }

    #[test]
    fn infinite_loop_has_no_base_case_exit() {
        let analysis = analyze("void spin(int x) { spin(x + 1); }");
        let spin = &analysis.methods["spin"];
        assert_eq!(spin.pre_assumptions.len(), 1);
        assert_eq!(spin.post_assumptions.len(), 1);
        assert!(!spin.post_assumptions[0].is_base_case());
    }

    #[test]
    fn straight_line_method_has_single_base_exit() {
        let analysis = analyze("int id(int x) { return x; }");
        let id = &analysis.methods["id"];
        assert!(id.pre_assumptions.is_empty());
        assert_eq!(id.post_assumptions.len(), 1);
        assert!(id.post_assumptions[0].is_base_case());
    }

    #[test]
    fn callee_postcondition_is_assumed() {
        // g guarantees res >= 10; the branch res < 10 in f is therefore infeasible and
        // produces no exit assumption.
        let analysis = analyze(
            r#"int g(int a) requires Term ensures res >= 10; { return 10; }
               void f(int x)
               { int t = g(x);
                 if (t < 10) { f(x); } else { return; } }"#,
        );
        let f = &analysis.methods["f"];
        // The recursive call under t < 10 is unreachable: no pre-assumption between
        // Upr_f and itself survives the context satisfiability filter.
        assert!(f.pre_assumptions.iter().all(
            |p| !matches!(&p.consequent, Temporal::Unknown(i) if i.name.starts_with("Upr_f"))
        ));
        assert_eq!(f.post_assumptions.len(), 1);
    }

    #[test]
    fn call_to_loop_callee_marks_exit_unreachable() {
        let analysis = analyze(
            r#"void spin(int x) requires Loop ensures false; { spin(x); }
               void f(int x) { spin(x); return; }"#,
        );
        let f = &analysis.methods["f"];
        assert_eq!(f.post_assumptions.len(), 1);
        assert!(matches!(
            f.post_assumptions[0].accumulated.as_slice(),
            [(_, PostStatus::Unreachable)]
        ));
    }

    #[test]
    fn nondeterministic_branches_are_both_explored() {
        let analysis = analyze(
            "void f(int x) { int c = nondet(); if (c > 0) { f(x - 1); } else { return; } }",
        );
        let f = &analysis.methods["f"];
        assert_eq!(f.pre_assumptions.len(), 1);
        assert_eq!(f.post_assumptions.len(), 2);
    }

    #[test]
    fn desugared_loops_are_verified_as_recursion() {
        let analysis = analyze("void count(int n) { int i = 0; while (i < n) { i = i + 1; } }");
        // The generated loop method has its own analysis with a recursive pre-assumption.
        let lp = &analysis.methods["count_loop1"];
        assert_eq!(lp.pre_assumptions.len(), 1);
        assert!(lp.pre_assumptions[0].consequent.is_unknown());
        // The enclosing method records the unknown loop call in its post-assumption.
        let count = &analysis.methods["count"];
        assert!(count.post_assumptions[0]
            .accumulated
            .iter()
            .any(|(_, s)| s.is_unknown()));
    }

    #[test]
    fn heap_append_list_segment_scenario() {
        let analysis = analyze(
            r#"data node { node next; }
               pred lseg(root, q, n) == root = q & n = 0
                  or root -> node(p) * lseg(p, q, n - 1);
               pred cll(root, n) == root -> node(p) * lseg(p, root, n - 1);
               lemma lseg(a, b, m) * b -> node(a) == cll(a, m + 1);

               void append(node x, node y)
                 requires lseg(x, null, n) & x != null ensures lseg(x, y, n);
                 requires cll(x, n) ensures true;
               { if (x.next == null) { x.next = y; } else { append(x.next, y); } }"#,
        );
        // Scenario 0 (null-terminated segment): a base case and a recursive call whose
        // ghost size argument is n - 1.
        let seg = &analysis.methods["append#0"];
        assert!(seg.post_assumptions.iter().any(|p| p.is_base_case()));
        assert_eq!(seg.pre_assumptions.len(), 1);
        let Temporal::Unknown(inst) = &seg.pre_assumptions[0].consequent else {
            panic!("expected unknown consequent");
        };
        let size_arg = inst.args[2].clone();
        let decreased = Constraint::eq(size_arg, Lin::var("n").add_const(Rational::from(-1)));
        assert!(entail::entails(
            &seg.pre_assumptions[0].ctx,
            &decreased.into()
        ));

        // Scenario 1 (circular list): no base-case exit at all.
        let circ = &analysis.methods["append#1"];
        assert!(circ.post_assumptions.iter().all(|p| !p.is_base_case()));
        assert_eq!(circ.pre_assumptions.len(), 1);
    }
}
