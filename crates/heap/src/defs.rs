//! Compiled inductive heap-predicate definitions and unfolding.

use crate::state::HeapAtom;
use std::collections::BTreeMap;
use std::fmt;
use tnt_lang::ast::Program;
use tnt_lang::pure::{expr_to_formula, expr_to_lin};
use tnt_lang::spec::HeapFormula;
use tnt_logic::{Formula, Lin};

/// An error while compiling predicate definitions (e.g. non-linear arguments).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DefError {
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for DefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "predicate definition error: {}", self.message)
    }
}

impl std::error::Error for DefError {}

/// One branch (disjunct) of a predicate definition.
#[derive(Clone, Debug)]
pub struct PredBranch {
    /// Heap atoms of the branch.
    pub atoms: Vec<HeapAtom>,
    /// Pure condition of the branch.
    pub pure: Formula,
    /// Existential variables of the branch (freshened at each unfolding).
    pub existentials: Vec<String>,
}

/// A compiled predicate definition.
#[derive(Clone, Debug)]
pub struct PredDef {
    /// Predicate name.
    pub name: String,
    /// Formal parameters (first is conventionally the root).
    pub params: Vec<String>,
    /// Branches (disjuncts).
    pub branches: Vec<PredBranch>,
}

/// Converts a syntactic heap formula into atoms (arguments must be affine).
pub fn heap_formula_to_atoms(heap: &HeapFormula) -> Result<Vec<HeapAtom>, DefError> {
    let lin = |e| {
        expr_to_lin(e).map_err(|err| DefError {
            message: format!("heap argument is not affine: {err}"),
        })
    };
    match heap {
        HeapFormula::Emp => Ok(vec![]),
        HeapFormula::PointsTo { var, data, args } => {
            let fields = args.iter().map(lin).collect::<Result<Vec<_>, _>>()?;
            Ok(vec![HeapAtom::PointsTo {
                root: Lin::var(var.clone()),
                data: data.clone(),
                fields,
            }])
        }
        HeapFormula::Pred { name, args } => {
            let args = args.iter().map(lin).collect::<Result<Vec<_>, _>>()?;
            Ok(vec![HeapAtom::Pred {
                name: name.clone(),
                args,
            }])
        }
        HeapFormula::Star(parts) => {
            let mut out = Vec::new();
            for p in parts {
                out.extend(heap_formula_to_atoms(p)?);
            }
            Ok(out)
        }
    }
}

/// A compiled heap lemma, applied left-to-right when direct matching fails.
#[derive(Clone, Debug)]
pub struct Lemma {
    /// Universally quantified lemma variables.
    pub params: Vec<String>,
    /// Left-hand side heap atoms (to be consumed from the current heap).
    pub lhs_atoms: Vec<HeapAtom>,
    /// Left-hand side pure condition (must be entailed by the current pure state).
    pub lhs_pure: Formula,
    /// Right-hand side heap atoms (added in place of the consumed left-hand side).
    pub rhs_atoms: Vec<HeapAtom>,
    /// Right-hand side pure condition (assumed after application).
    pub rhs_pure: Formula,
}

/// The table of compiled predicate definitions and lemmas of a program.
#[derive(Clone, Debug, Default)]
pub struct PredTable {
    defs: BTreeMap<String, PredDef>,
    lemmas: Vec<Lemma>,
}

impl PredTable {
    /// Compiles the predicate declarations of a program.
    ///
    /// # Errors
    ///
    /// Returns a [`DefError`] if a predicate body uses non-affine arguments or an
    /// untranslatable pure condition.
    pub fn from_program(program: &Program) -> Result<PredTable, DefError> {
        let mut defs = BTreeMap::new();
        for pred in &program.preds {
            let mut branches = Vec::new();
            for (heap, pure) in &pred.branches {
                let atoms = heap_formula_to_atoms(heap)?;
                let pure = expr_to_formula(pure).map_err(|err| DefError {
                    message: format!("predicate `{}`: {err}", pred.name),
                })?;
                // Existentials: any variable in the branch that is not a parameter.
                let mut existentials = Vec::new();
                let mut note = |v: &str| {
                    if !pred.params.iter().any(|p| p == v) && !existentials.contains(&v.to_string())
                    {
                        existentials.push(v.to_string());
                    }
                };
                for a in &atoms {
                    for v in a.vars() {
                        note(&v);
                    }
                }
                for v in pure.free_vars() {
                    note(&v);
                }
                branches.push(PredBranch {
                    atoms,
                    pure,
                    existentials,
                });
            }
            defs.insert(
                pred.name.to_string(),
                PredDef {
                    name: pred.name.to_string(),
                    params: pred.params.iter().map(|p| p.to_string()).collect(),
                    branches,
                },
            );
        }
        let mut lemmas = Vec::new();
        for lemma in &program.lemmas {
            let lhs_atoms = heap_formula_to_atoms(&lemma.lhs.0)?;
            let rhs_atoms = heap_formula_to_atoms(&lemma.rhs.0)?;
            let lhs_pure = expr_to_formula(&lemma.lhs.1).map_err(|err| DefError {
                message: format!("lemma: {err}"),
            })?;
            let rhs_pure = expr_to_formula(&lemma.rhs.1).map_err(|err| DefError {
                message: format!("lemma: {err}"),
            })?;
            let mut params = Vec::new();
            let mut note = |v: String| {
                if !params.contains(&v) {
                    params.push(v);
                }
            };
            for a in lhs_atoms.iter().chain(rhs_atoms.iter()) {
                for v in a.vars() {
                    note(v);
                }
            }
            for v in lhs_pure.free_vars().into_iter().chain(rhs_pure.free_vars()) {
                note(v);
            }
            lemmas.push(Lemma {
                params,
                lhs_atoms,
                lhs_pure,
                rhs_atoms,
                rhs_pure,
            });
        }
        Ok(PredTable { defs, lemmas })
    }

    /// Looks up a definition.
    pub fn def(&self, name: &str) -> Option<&PredDef> {
        self.defs.get(name)
    }

    /// The compiled heap lemmas.
    pub fn lemmas(&self) -> &[Lemma] {
        &self.lemmas
    }

    /// Unfolds a predicate instance: returns one `(atoms, pure)` alternative per branch
    /// of the definition, with formal parameters replaced by the instance's arguments
    /// and existential variables replaced by fresh names drawn from `fresh`.
    ///
    /// Unknown predicates unfold to a single branch equal to themselves (no information).
    pub fn unfold(
        &self,
        atom: &HeapAtom,
        fresh: &mut impl FnMut() -> String,
    ) -> Vec<(Vec<HeapAtom>, Formula)> {
        let HeapAtom::Pred { name, args } = atom else {
            return vec![(vec![atom.clone()], Formula::True)];
        };
        let Some(def) = self.defs.get(name) else {
            return vec![(vec![atom.clone()], Formula::True)];
        };
        let mut out = Vec::new();
        for branch in &def.branches {
            // Freshen existentials first, then substitute parameters by arguments.
            let renaming: Vec<(String, String)> = branch
                .existentials
                .iter()
                .map(|e| (e.clone(), fresh()))
                .collect();
            let mut atoms = branch.atoms.clone();
            let mut pure = branch.pure.clone();
            for (old, new) in &renaming {
                let by = Lin::var(new.clone());
                atoms = atoms.iter().map(|a| a.substitute(old, &by)).collect();
                pure = pure.substitute(old, &by);
            }
            for (param, arg) in def.params.iter().zip(args) {
                atoms = atoms.iter().map(|a| a.substitute(param, arg)).collect();
                pure = pure.substitute(param, arg);
            }
            out.push((atoms, pure));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnt_lang::parse_program;
    use tnt_logic::{num, var, Rational};

    const LIST_DEFS: &str = r#"
        data node { node next; }
        pred lseg(root, q, n) == root = q & n = 0
           or root -> node(p) * lseg(p, q, n - 1);
        pred cll(root, n) == root -> node(p) * lseg(p, root, n - 1);
    "#;

    fn table() -> PredTable {
        PredTable::from_program(&parse_program(LIST_DEFS).unwrap()).unwrap()
    }

    #[test]
    fn compiles_definitions() {
        let table = table();
        let lseg = table.def("lseg").unwrap();
        assert_eq!(lseg.branches.len(), 2);
        assert_eq!(lseg.branches[1].existentials, vec!["p".to_string()]);
    }

    #[test]
    fn unfolding_lseg_substitutes_arguments() {
        let table = table();
        let mut counter = 0;
        let mut fresh = || {
            counter += 1;
            format!("fv{counter}")
        };
        let atom = HeapAtom::pred("lseg", vec![var("x"), num(0), var("n")]);
        let branches = table.unfold(&atom, &mut fresh);
        assert_eq!(branches.len(), 2);

        // Base branch: no atoms, pure is x = 0 (null) ∧ n = 0.
        let (base_atoms, base_pure) = &branches[0];
        assert!(base_atoms.is_empty());
        let mut env = std::collections::BTreeMap::new();
        env.insert("x".to_string(), 0);
        env.insert("n".to_string(), 0);
        assert!(base_pure.eval(&env, 2));
        env.insert("n".to_string(), 1);
        assert!(!base_pure.eval(&env, 2));

        // Recursive branch: x -> node(fv1) * lseg(fv1, 0, n - 1).
        let (rec_atoms, _) = &branches[1];
        assert_eq!(rec_atoms.len(), 2);
        match &rec_atoms[1] {
            HeapAtom::Pred { name, args } => {
                assert_eq!(name, "lseg");
                assert_eq!(args[0], var("fv1"));
                assert_eq!(args[2].coeff("n"), Rational::one());
                assert_eq!(args[2].constant_term(), Rational::from(-1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unfolding_unknown_pred_is_identity() {
        let table = table();
        let mut fresh = || "z".to_string();
        let atom = HeapAtom::pred("tree", vec![var("t")]);
        let branches = table.unfold(&atom, &mut fresh);
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].0, vec![atom]);
    }

    #[test]
    fn unfolding_points_to_is_identity() {
        let table = table();
        let mut fresh = || "z".to_string();
        let atom = HeapAtom::points_to(var("x"), "node", vec![num(0)]);
        assert_eq!(table.unfold(&atom, &mut fresh)[0].0, vec![atom]);
    }

    #[test]
    fn cll_unfolds_to_cell_plus_lseg_back_to_root() {
        let table = table();
        let mut counter = 0;
        let mut fresh = || {
            counter += 1;
            format!("fv{counter}")
        };
        let atom = HeapAtom::pred("cll", vec![var("x"), var("n")]);
        let branches = table.unfold(&atom, &mut fresh);
        assert_eq!(branches.len(), 1);
        let (atoms, _) = &branches[0];
        assert_eq!(atoms.len(), 2);
        match &atoms[1] {
            HeapAtom::Pred { name, args } => {
                assert_eq!(name, "lseg");
                // The segment loops back to the root x.
                assert_eq!(args[1], var("x"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
