//! The specification environment: per-method scenarios with instrumented unknown
//! temporal predicates.
//!
//! Every `requires/ensures` scenario whose temporal status is not annotated receives a
//! pair of unknown predicates `Upr`/`Upo` over the scenario's *measure variables* — the
//! method's integer parameters, its pointer parameters (abstracted to addresses) and
//! the ghost variables of the scenario's precondition (e.g. the list length `n` of
//! `lseg(x, null, n)`), which is exactly the vocabulary the paper's inferred summaries
//! range over.

use std::collections::{BTreeMap, BTreeSet};
use tnt_heap::defs::{heap_formula_to_atoms, PredTable};
use tnt_heap::invariant::InvariantTable;
use tnt_heap::state::HeapAtom;
use tnt_lang::ast::{MethodDecl, Program, Type};
use tnt_lang::pure::{expr_to_formula, expr_to_lin};
use tnt_lang::spec::{Spec, TemporalSpec};
use tnt_logic::{Formula, Lin};

use crate::temporal::{PredInstance, Temporal};

/// One verification scenario of a method.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Index of the scenario within its method.
    pub index: usize,
    /// Pure precondition (case guards conjoined with the `requires` pure part).
    pub pre_pure: Formula,
    /// Heap precondition atoms.
    pub pre_heap: Vec<HeapAtom>,
    /// Ghost variables of the precondition (free variables that are not parameters).
    pub ghosts: Vec<String>,
    /// The temporal annotation (`Unknown` scenarios are the inference targets).
    pub temporal: Temporal,
    /// Pure postcondition (may mention `res`).
    pub post_pure: Formula,
    /// Heap postcondition atoms.
    pub post_heap: Vec<HeapAtom>,
    /// The measure variables (predicate argument vocabulary) of the scenario.
    pub vars: Vec<String>,
    /// Name of the unknown pre-predicate (present iff `temporal` is unknown).
    pub upr_name: Option<String>,
    /// Name of the unknown post-predicate (present iff `temporal` is unknown).
    pub upo_name: Option<String>,
}

impl Scenario {
    /// The unknown post-predicate instance over the scenario's own variables.
    pub fn upo_instance(&self) -> Option<PredInstance> {
        self.upo_name
            .as_ref()
            .map(|name| PredInstance::new(name.clone(), self.vars.iter().map(Lin::var).collect()))
    }
}

/// The compiled specification of a method.
#[derive(Clone, Debug)]
pub struct MethodSpec {
    /// Method name.
    pub name: String,
    /// Parameter names in declaration order.
    pub params: Vec<String>,
    /// Names of by-reference parameters.
    pub ref_params: Vec<String>,
    /// Parameter types.
    pub param_types: Vec<Type>,
    /// Whether the method returns a value.
    pub returns_value: bool,
    /// The scenarios.
    pub scenarios: Vec<Scenario>,
    /// Whether the method has a body.
    pub has_body: bool,
}

impl MethodSpec {
    /// Scenarios whose temporal status must be inferred.
    pub fn unknown_scenarios(&self) -> impl Iterator<Item = &Scenario> + '_ {
        self.scenarios.iter().filter(|s| s.temporal.is_unknown())
    }
}

/// Errors raised while compiling specifications.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "specification error: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

/// The specification environment of a program.
#[derive(Clone, Debug)]
pub struct SpecEnv {
    /// Compiled specifications, per method.
    pub methods: BTreeMap<String, MethodSpec>,
    /// Compiled predicate definitions.
    pub preds: PredTable,
    /// Pure invariants of the predicates.
    pub invariants: InvariantTable,
    /// Field order per data type: `(data, field) -> index`.
    pub field_index: BTreeMap<(String, String), usize>,
    /// Field types: `(data, field) -> type`.
    pub field_type: BTreeMap<(String, String), Type>,
}

impl SpecEnv {
    /// Compiles the specification environment of a program.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if a specification uses non-affine expressions.
    pub fn build(program: &Program) -> Result<SpecEnv, SpecError> {
        let preds = PredTable::from_program(program).map_err(|e| SpecError {
            message: e.to_string(),
        })?;
        let pred_names: Vec<String> = program.preds.iter().map(|p| p.name.to_string()).collect();
        let invariants = InvariantTable::compute(&preds, &pred_names);

        let mut field_index = BTreeMap::new();
        let mut field_type = BTreeMap::new();
        for data in &program.datas {
            for (i, (ty, field)) in data.fields.iter().enumerate() {
                field_index.insert((data.name.to_string(), field.to_string()), i);
                field_type.insert((data.name.to_string(), field.to_string()), ty.clone());
            }
        }

        let mut methods = BTreeMap::new();
        for method in &program.methods {
            methods.insert(method.name.to_string(), compile_method(method)?);
        }
        Ok(SpecEnv {
            methods,
            preds,
            invariants,
            field_index,
            field_type,
        })
    }

    /// Looks up a method's compiled specification.
    pub fn method(&self, name: &str) -> Option<&MethodSpec> {
        self.methods.get(name)
    }
}

fn compile_method(method: &MethodDecl) -> Result<MethodSpec, SpecError> {
    let spec = method.spec.clone().unwrap_or_else(Spec::unknown);
    let params: Vec<String> = method
        .param_names()
        .into_iter()
        .map(|p| p.to_string())
        .collect();
    let mut scenarios = Vec::new();
    for (index, (guards, pair)) in spec.scenarios().into_iter().enumerate() {
        let err = |e: &dyn std::fmt::Display| SpecError {
            message: format!("method `{}`: {e}", method.name),
        };
        let mut pre_parts = Vec::new();
        for g in &guards {
            pre_parts.push(expr_to_formula(g).map_err(|e| err(&e))?);
        }
        pre_parts.push(expr_to_formula(&pair.requires.pure).map_err(|e| err(&e))?);
        let pre_pure = Formula::and(pre_parts);
        let pre_heap = heap_formula_to_atoms(&pair.requires.heap).map_err(|e| err(&e))?;
        let post_pure = expr_to_formula(&pair.ensures.pure).map_err(|e| err(&e))?;
        let post_heap = heap_formula_to_atoms(&pair.ensures.heap).map_err(|e| err(&e))?;

        // Ghost variables: free variables of the precondition that are not parameters.
        let mut ghost_set: BTreeSet<String> = pre_pure.free_vars();
        for atom in &pre_heap {
            for v in atom.vars() {
                ghost_set.insert(v);
            }
        }
        let ghosts: Vec<String> = ghost_set
            .into_iter()
            .filter(|v| !params.contains(v) && v != "res")
            .collect();

        let temporal = match &pair.requires.temporal {
            TemporalSpec::Term(measure) => Temporal::Term(
                measure
                    .iter()
                    .map(|m| expr_to_lin(m).map_err(|e| err(&e)))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            TemporalSpec::Loop => Temporal::Loop,
            TemporalSpec::MayLoop => Temporal::MayLoop,
            TemporalSpec::Unknown => Temporal::MayLoop, // replaced below for bodied methods
        };

        // The measure-variable vocabulary: integer and pointer parameters plus ghosts.
        let mut vars: Vec<String> = method
            .params
            .iter()
            .filter(|p| p.ty == Type::Int || p.ty.is_data())
            .map(|p| p.name.to_string())
            .collect();
        vars.extend(ghosts.iter().cloned());

        let is_unknown = pair.requires.temporal.is_unknown() && method.body.is_some();
        let upr_name = is_unknown.then(|| format!("Upr_{}#{}", method.name, index));
        let upo_name = is_unknown.then(|| format!("Upo_{}#{}", method.name, index));
        let temporal = if is_unknown {
            Temporal::Unknown(PredInstance::new(
                upr_name.clone().expect("unknown scenario"),
                vars.iter().map(Lin::var).collect(),
            ))
        } else {
            temporal
        };

        scenarios.push(Scenario {
            index,
            pre_pure,
            pre_heap,
            ghosts,
            temporal,
            post_pure,
            post_heap,
            vars,
            upr_name,
            upo_name,
        });
    }
    Ok(MethodSpec {
        name: method.name.to_string(),
        params,
        ref_params: method
            .params
            .iter()
            .filter(|p| p.by_ref)
            .map(|p| p.name.to_string())
            .collect(),
        param_types: method.params.iter().map(|p| p.ty.clone()).collect(),
        returns_value: method.ret != Type::Void,
        scenarios,
        has_body: method.body.is_some(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnt_lang::parse_program;

    #[test]
    fn unspecified_method_gets_unknown_scenario() {
        let program = parse_program(
            "void foo(int x, int y) { if (x < 0) { return; } else { foo(x + y, y); } }",
        )
        .unwrap();
        let env = SpecEnv::build(&program).unwrap();
        let foo = env.method("foo").unwrap();
        assert_eq!(foo.scenarios.len(), 1);
        let s = &foo.scenarios[0];
        assert!(s.temporal.is_unknown());
        assert_eq!(s.vars, vec!["x".to_string(), "y".to_string()]);
        assert_eq!(s.upr_name.as_deref(), Some("Upr_foo#0"));
    }

    #[test]
    fn safety_spec_with_unknown_temporal_is_still_inferred() {
        let program = parse_program(
            r#"int Ack(int m, int n)
                 requires true ensures res >= n + 1;
               { if (m == 0) { return n + 1; } else { return Ack(m - 1, 1); } }"#,
        )
        .unwrap();
        let env = SpecEnv::build(&program).unwrap();
        let ack = env.method("Ack").unwrap();
        let s = &ack.scenarios[0];
        assert!(s.temporal.is_unknown());
        assert!(!s.post_pure.is_true());
    }

    #[test]
    fn heap_scenarios_collect_ghost_variables() {
        let program = parse_program(
            r#"data node { node next; }
               pred lseg(root, q, n) == root = q & n = 0
                  or root -> node(p) * lseg(p, q, n - 1);
               pred cll(root, n) == root -> node(p) * lseg(p, root, n - 1);
               void append(node x, node y)
                 requires lseg(x, null, n) & x != null ensures lseg(x, y, n);
                 requires cll(x, n) ensures true;
               { if (x == null) { return; } else { return; } }"#,
        )
        .unwrap();
        let env = SpecEnv::build(&program).unwrap();
        let append = env.method("append").unwrap();
        assert_eq!(append.scenarios.len(), 2);
        for s in &append.scenarios {
            assert_eq!(s.ghosts, vec!["n".to_string()]);
            assert_eq!(
                s.vars,
                vec!["x".to_string(), "y".to_string(), "n".to_string()]
            );
            assert!(s.temporal.is_unknown());
        }
        assert_eq!(
            append.scenarios[1].upr_name.as_deref(),
            Some("Upr_append#1")
        );
    }

    #[test]
    fn known_temporal_specs_are_not_instrumented() {
        let program = parse_program(
            r#"void halt(int x) requires Term ensures true; { return; }
               void spin(int x) requires Loop ensures false; { spin(x); }"#,
        )
        .unwrap();
        let env = SpecEnv::build(&program).unwrap();
        assert!(matches!(
            env.method("halt").unwrap().scenarios[0].temporal,
            Temporal::Term(_)
        ));
        assert!(matches!(
            env.method("spin").unwrap().scenarios[0].temporal,
            Temporal::Loop
        ));
        assert!(env
            .method("halt")
            .unwrap()
            .unknown_scenarios()
            .next()
            .is_none());
    }

    #[test]
    fn bodyless_primitives_use_declared_spec() {
        let program = parse_program(r#"int rand_pos() requires Term ensures res >= 0; ;"#).unwrap();
        let env = SpecEnv::build(&program).unwrap();
        let m = env.method("rand_pos").unwrap();
        assert!(!m.has_body);
        assert!(matches!(m.scenarios[0].temporal, Temporal::Term(_)));
        assert!(m.returns_value);
    }
}
