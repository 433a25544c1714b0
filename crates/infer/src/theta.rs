//! The store `Θ` of partial definitions for unknown temporal predicates (paper Def. 2).
//!
//! Every unknown scenario owns a [`Definition`]: a list of guarded cases whose guards
//! are kept feasible, mutually exclusive and exhaustive by construction (base-case
//! refinement and case splitting only ever partition an existing case). A case is
//! either already *resolved* (`Term [e]`, `Loop`, `MayLoop`) or refers to a pair of
//! fresh auxiliary unknown predicates that later refinement rounds will resolve.

use std::collections::BTreeMap;
use tnt_logic::{sat, simplify, Formula};
use tnt_solver::MeasureItem;

/// The resolved (or still unknown) status of one case of a definition.
#[derive(Clone, Debug, PartialEq)]
pub enum CaseState {
    /// Terminating with the given (possibly empty) lexicographic measure, whose
    /// components may be affine, `max(f, g)` or multiphase items; the
    /// corresponding post-predicate is reachable (`true`).
    Term(Vec<MeasureItem>),
    /// Definitely non-terminating; the post-predicate is unreachable (`false`).
    Loop,
    /// Unknown outcome (assigned by `finalize`); the post-predicate is `true`.
    MayLoop,
    /// Still to be resolved: the auxiliary unknown pre/post-predicate names.
    Unknown {
        /// Auxiliary pre-predicate name.
        pre: String,
        /// Auxiliary post-predicate name.
        post: String,
    },
}

impl CaseState {
    /// Returns `true` once the case is resolved.
    pub fn is_resolved(&self) -> bool {
        !matches!(self, CaseState::Unknown { .. })
    }
}

/// One guarded case of a definition.
#[derive(Clone, Debug)]
pub struct Case {
    /// The guard `π` over the scenario's measure variables.
    pub guard: Formula,
    /// The case's state.
    pub state: CaseState,
}

/// The definition of one scenario's unknown pre/post-predicate pair.
#[derive(Clone, Debug)]
pub struct Definition {
    /// The measure variables the predicates range over.
    pub vars: Vec<String>,
    /// The guarded cases (feasible, exclusive, exhaustive).
    pub cases: Vec<Case>,
}

impl Definition {
    /// Returns `true` once every case is resolved.
    pub fn is_resolved(&self) -> bool {
        self.cases.iter().all(|c| c.state.is_resolved())
    }
}

/// Location of an auxiliary unknown predicate inside the store.
#[derive(Clone, Debug)]
struct Owner {
    root: String,
    case_index: usize,
}

/// The store `Θ`.
#[derive(Clone, Debug, Default)]
pub struct Theta {
    defs: BTreeMap<String, Definition>,
    /// Maps every *pre*-predicate name (root or auxiliary) to its owning case.
    pre_owner: BTreeMap<String, Owner>,
    /// Maps every *post*-predicate name (root or auxiliary) to its owning case.
    post_owner: BTreeMap<String, Owner>,
    /// Maps each scenario's root post-predicate name to its root pre-predicate name
    /// (stable across case splits).
    root_posts: BTreeMap<String, String>,
    fresh: usize,
}

impl Theta {
    /// Creates an empty store.
    pub fn new() -> Theta {
        Theta::default()
    }

    /// Registers a scenario's unknown predicate pair with the initial definition
    /// `Upr(v) ≡ true ∧ Upr(v)` (a single unresolved case guarded by `true`).
    pub fn register(&mut self, upr: &str, upo: &str, vars: Vec<String>) {
        self.defs.insert(
            upr.to_string(),
            Definition {
                vars,
                cases: vec![Case {
                    guard: Formula::True,
                    state: CaseState::Unknown {
                        pre: upr.to_string(),
                        post: upo.to_string(),
                    },
                }],
            },
        );
        let owner = Owner {
            root: upr.to_string(),
            case_index: 0,
        };
        self.pre_owner.insert(upr.to_string(), owner.clone());
        self.post_owner.insert(upo.to_string(), owner);
        self.root_posts.insert(upo.to_string(), upr.to_string());
    }

    /// The definitions, keyed by root pre-predicate name.
    pub fn definitions(&self) -> impl Iterator<Item = (&String, &Definition)> {
        self.defs.iter()
    }

    /// The definition owned by a root pre-predicate.
    pub fn definition(&self, root: &str) -> Option<&Definition> {
        self.defs.get(root)
    }

    /// The root definition and case index owning an (auxiliary) pre-predicate name.
    pub fn case_of_pre(&self, pre: &str) -> Option<(&str, usize)> {
        self.pre_owner
            .get(pre)
            .map(|o| (o.root.as_str(), o.case_index))
    }

    /// The root definition and case index owning an (auxiliary) post-predicate name.
    /// A scenario's root post-predicate resolves to its definition with index 0
    /// (callers interested in a specific case always pass auxiliary names).
    pub fn case_of_post(&self, post: &str) -> Option<(&str, usize)> {
        if let Some(owner) = self.post_owner.get(post) {
            return Some((owner.root.as_str(), owner.case_index));
        }
        self.root_posts.get(post).map(|root| (root.as_str(), 0))
    }

    /// The measure variables of the definition owning a pre-predicate.
    pub fn vars_of_pre(&self, pre: &str) -> Option<&[String]> {
        let (root, _) = self.case_of_pre(pre)?;
        self.defs.get(root).map(|d| d.vars.as_slice())
    }

    /// The full guard (over the definition's variables) of the case owning a
    /// pre-predicate name.
    pub fn guard_of_pre(&self, pre: &str) -> Option<&Formula> {
        let (root, index) = self.case_of_pre(pre)?;
        self.defs.get(root).map(|d| &d.cases[index].guard)
    }

    /// The post-predicate name paired with an unresolved pre-predicate name.
    pub fn post_of_pre(&self, pre: &str) -> Option<String> {
        let (root, index) = self.case_of_pre(pre)?;
        match &self.defs.get(root)?.cases[index].state {
            CaseState::Unknown { post, .. } => Some(post.clone()),
            _ => None,
        }
    }

    /// Every currently unresolved pre-predicate name.
    pub fn unresolved_pres(&self) -> Vec<String> {
        let mut out = Vec::new();
        for def in self.defs.values() {
            for case in &def.cases {
                if let CaseState::Unknown { pre, .. } = &case.state {
                    out.push(pre.clone());
                }
            }
        }
        out
    }

    /// Returns `true` once every definition is fully resolved.
    pub fn all_resolved(&self) -> bool {
        self.defs.values().all(Definition::is_resolved)
    }

    /// Resolves the case owning `pre` to the given state.
    ///
    /// # Panics
    ///
    /// Panics if `pre` is unknown to the store (an internal error of the solver).
    pub fn resolve(&mut self, pre: &str, state: CaseState) {
        let owner = self.pre_owner.get(pre).cloned().expect("known predicate");
        let case = &mut self
            .defs
            .get_mut(&owner.root)
            .expect("definition exists")
            .cases[owner.case_index];
        case.state = state;
    }

    fn fresh_pair(&mut self, root: &str) -> (String, String) {
        self.fresh += 1;
        (
            format!("{root}${}", self.fresh),
            format!("{}${}", root.replacen("Upr", "Upo", 1), self.fresh),
        )
    }

    /// Splits the case owning `pre` into the given sub-conditions (which must partition
    /// the case's guard); each satisfiable sub-case gets fresh auxiliary unknowns, and
    /// sub-cases whose state is forced can be passed as `(condition, Some(state))`.
    ///
    /// Returns the names of the freshly created unresolved pre-predicates.
    pub fn split_case(
        &mut self,
        pre: &str,
        parts: Vec<(Formula, Option<CaseState>)>,
    ) -> Vec<String> {
        let owner = self.pre_owner.get(pre).cloned().expect("known predicate");
        let parent_guard = self.defs[&owner.root].cases[owner.case_index].guard.clone();
        let mut new_cases = Vec::new();
        let mut created = Vec::new();
        for (condition, forced) in parts {
            let guard = simplify::prune(&parent_guard.clone().and2(condition));
            if !sat::is_sat(&guard) {
                continue;
            }
            let state = match forced {
                Some(state) => state,
                None => {
                    let (new_pre, new_post) = self.fresh_pair(&owner.root);
                    created.push(new_pre.clone());
                    CaseState::Unknown {
                        pre: new_pre,
                        post: new_post,
                    }
                }
            };
            new_cases.push(Case { guard, state });
        }
        if new_cases.is_empty() {
            return created;
        }
        // Replace the owning case by the new sub-cases and re-index the owners.
        let def = self.defs.get_mut(&owner.root).expect("definition exists");
        def.cases.remove(owner.case_index);
        let insert_at = owner.case_index;
        for (offset, case) in new_cases.into_iter().enumerate() {
            def.cases.insert(insert_at + offset, case);
        }
        self.reindex(&owner.root);
        created
    }

    fn reindex(&mut self, root: &str) {
        let def = &self.defs[root];
        let mut pre_updates = Vec::new();
        let mut post_updates = Vec::new();
        for (index, case) in def.cases.iter().enumerate() {
            if let CaseState::Unknown { pre, post } = &case.state {
                pre_updates.push((pre.clone(), index));
                post_updates.push((post.clone(), index));
            }
        }
        // Remove stale aux entries pointing into this root (except the root name itself).
        self.pre_owner.retain(|name, owner| {
            owner.root != root || name == root || pre_updates.iter().any(|(p, _)| p == name)
        });
        self.post_owner.retain(|_, owner| owner.root != root);
        for (pre, index) in pre_updates {
            self.pre_owner.insert(
                pre,
                Owner {
                    root: root.to_string(),
                    case_index: index,
                },
            );
        }
        for (post, index) in post_updates {
            self.post_owner.insert(
                post,
                Owner {
                    root: root.to_string(),
                    case_index: index,
                },
            );
        }
    }

    /// `finalize` (Fig. 6): every remaining unknown becomes `MayLoop`.
    pub fn finalize(&mut self) {
        for def in self.defs.values_mut() {
            for case in &mut def.cases {
                if !case.state.is_resolved() {
                    case.state = CaseState::MayLoop;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnt_logic::{num, var, Constraint};

    fn x_lt_zero() -> Formula {
        Constraint::lt(var("x"), num(0)).into()
    }

    fn x_ge_zero() -> Formula {
        Constraint::ge(var("x"), num(0)).into()
    }

    #[test]
    fn register_and_resolve() {
        let mut theta = Theta::new();
        theta.register("Upr_f#0", "Upo_f#0", vec!["x".to_string()]);
        assert!(!theta.all_resolved());
        assert_eq!(theta.unresolved_pres(), vec!["Upr_f#0".to_string()]);
        theta.resolve(
            "Upr_f#0",
            CaseState::Term(vec![MeasureItem::Affine(var("x"))]),
        );
        assert!(theta.all_resolved());
    }

    #[test]
    fn base_case_style_split() {
        let mut theta = Theta::new();
        theta.register("Upr_f#0", "Upo_f#0", vec!["x".to_string()]);
        let created = theta.split_case(
            "Upr_f#0",
            vec![
                (x_lt_zero(), Some(CaseState::Term(vec![]))),
                (x_ge_zero(), None),
            ],
        );
        assert_eq!(created.len(), 1);
        let def = theta.definition("Upr_f#0").unwrap();
        assert_eq!(def.cases.len(), 2);
        assert!(def.cases[0].state.is_resolved());
        assert!(!def.cases[1].state.is_resolved());
        // The new unknown is owned by the second case, with the refined guard.
        let guard = theta.guard_of_pre(&created[0]).unwrap();
        assert!(tnt_logic::entail::entails(guard, &x_ge_zero()));
    }

    #[test]
    fn nested_splits_conjoin_guards() {
        let mut theta = Theta::new();
        theta.register("Upr_f#0", "Upo_f#0", vec!["x".to_string(), "y".to_string()]);
        let level1 = theta.split_case(
            "Upr_f#0",
            vec![
                (x_lt_zero(), Some(CaseState::Term(vec![]))),
                (x_ge_zero(), None),
            ],
        );
        let y_ge: Formula = Constraint::ge(var("y"), num(0)).into();
        let y_lt: Formula = Constraint::lt(var("y"), num(0)).into();
        let level2 = theta.split_case(&level1[0], vec![(y_ge.clone(), None), (y_lt, None)]);
        assert_eq!(level2.len(), 2);
        let guard = theta.guard_of_pre(&level2[0]).unwrap().clone();
        assert!(tnt_logic::entail::entails(&guard, &x_ge_zero()));
        assert!(tnt_logic::entail::entails(&guard, &y_ge));
        // Three leaf cases in total now.
        assert_eq!(theta.definition("Upr_f#0").unwrap().cases.len(), 3);
    }

    #[test]
    fn unsatisfiable_parts_are_dropped() {
        let mut theta = Theta::new();
        theta.register("Upr_f#0", "Upo_f#0", vec!["x".to_string()]);
        theta.split_case("Upr_f#0", vec![(x_lt_zero(), None), (x_ge_zero(), None)]);
        let leaves = theta.unresolved_pres();
        // Splitting the x < 0 leaf on x >= 5 (infeasible) and x < 5 keeps one sub-case.
        let first = leaves
            .iter()
            .find(|p| tnt_logic::entail::entails(theta.guard_of_pre(p).unwrap(), &x_lt_zero()))
            .unwrap()
            .clone();
        let created = theta.split_case(
            &first,
            vec![
                (Constraint::ge(var("x"), num(5)).into(), None),
                (Constraint::lt(var("x"), num(5)).into(), None),
            ],
        );
        assert_eq!(created.len(), 1);
    }

    /// A split condition whose pruning stops at the cube cap keeps its guard:
    /// `⋀_{i<15} yᵢ ≠ 0` has 2^15 satisfiable cubes, and the case must not
    /// widen to `True`.
    #[test]
    fn split_past_the_cube_cap_keeps_a_guard_that_is_not_valid() {
        let vars: Vec<String> = (0..15).map(|i| format!("y{i}")).collect();
        let condition = Formula::and(
            vars.iter()
                .map(|v| Constraint::ne(var(v), num(0)).into())
                .collect(),
        );
        let mut theta = Theta::new();
        theta.register("Upr_f#0", "Upo_f#0", vars);
        let created = theta.split_case("Upr_f#0", vec![(condition, None)]);
        let guard = theta.guard_of_pre(&created[0]).unwrap();
        assert!(
            !tnt_logic::entail::is_valid(guard),
            "guard widened to {guard}"
        );
    }

    #[test]
    fn finalize_marks_remaining_as_mayloop() {
        let mut theta = Theta::new();
        theta.register("Upr_f#0", "Upo_f#0", vec!["x".to_string()]);
        theta.finalize();
        assert!(theta.all_resolved());
        let def = theta.definition("Upr_f#0").unwrap();
        assert!(matches!(def.cases[0].state, CaseState::MayLoop));
    }

    #[test]
    fn post_lookup_follows_splits() {
        let mut theta = Theta::new();
        theta.register("Upr_f#0", "Upo_f#0", vec!["x".to_string()]);
        let created = theta.split_case(
            "Upr_f#0",
            vec![
                (x_lt_zero(), Some(CaseState::Term(vec![]))),
                (x_ge_zero(), None),
            ],
        );
        let post = theta.post_of_pre(&created[0]).unwrap();
        assert!(post.starts_with("Upo_f#0$"));
        assert_eq!(theta.case_of_post(&post).unwrap().0, "Upr_f#0");
    }
}
