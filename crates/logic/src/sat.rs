//! Satisfiability of linear integer formulas: one depth-first search over the
//! negation normal form, on one bounded general simplex per walk
//! ([`tnt_solver::bounded::BoundedSimplex`]), that walks in one of three ways:
//!
//! * to the first satisfiable cube ([`is_sat`], [`cube_sat`]), asserting every
//!   conjunct that needs no branch before the first disjunction or `≠` is tried;
//! * through every satisfiable cube ([`crate::simplify::prune`]);
//! * through every cube, without the kernel ([`crate::dnf::to_dnf`]).
//!
//! The collecting walks branch at the first disjunction or `≠` in formula order
//! and keep the path of atoms from the root, truncated on backtrack, so their
//! cubes come in the order, and with the atoms, of the eager product expansion.
//!
//! Each atom is put into integer normal form as it is reached (the numbers of
//! [`Constraint::normalise`]) and asserted: on one variable as a bound on it, any
//! other as a bound on the slack row of its linear form
//! ([`BoundedSimplex::assert_form`]). At each branch point and each whole cube
//! the kernel checks feasibility over the rationals, and an infeasible partial
//! cube is pruned with everything below it. Backtracking retracts bounds and
//! never pivots. Positive quantifiers are renamed to fresh variables; negative
//! ones are eliminated inside [`crate::dnf::to_nnf`].
//!
//! Every visited node — the root and each alternative tried — and every pivot
//! is one unit of work on the [`tnt_solver::work`] meter (a walk charges its
//! nodes when it ends). A walk that would visit more than the cube cap's nodes
//! stops and records a cap event: the first-cube walk then answers
//! "satisfiable", and a collecting walk returns nothing.
//!
//! The feasibility check is a relaxation: a cube that is rationally feasible but
//! integrally infeasible would be reported satisfiable. On the unit-coefficient
//! fragment produced by the front-end the relaxation is exact; the known residual
//! incompleteness only ever makes the inference engine *more* conservative (see
//! `DESIGN.md` §4 and §7).

use crate::constraint::{integer_form, Constraint, RelOp};
use crate::dnf::{self, Cube};
use crate::formula::Formula;
use tnt_solver::bounded::{BoundedSimplex, Checkpoint};
use tnt_solver::{work, Rational};

/// Checks satisfiability of a single cube (conjunction of constraints); `≠` atoms
/// are split by the same search [`is_sat`] runs.
pub fn cube_sat(cube: &Cube) -> bool {
    let goals = cube.iter().map(Goal::Atom).collect();
    Search::default().run(goals).unwrap_or(true)
}

/// Checks satisfiability of a formula (existential quantifiers in positive position are
/// handled exactly; see [`crate::dnf`] for the treatment of negative occurrences).
pub fn is_sat(formula: &Formula) -> bool {
    // A capped conversion inside the negation normal form already
    // over-approximates, so answer as a capped search does: satisfiable.
    let Some(open) = open(formula, false) else {
        return true;
    };
    let goals = vec![Goal::Formula(&open)];
    Search::default().run(goals).unwrap_or(true)
}

/// Checks unsatisfiability.
pub fn is_unsat(formula: &Formula) -> bool {
    !is_sat(formula)
}

/// The cubes a collecting walk reaches in `formula`, in formula order; `None`
/// when it, or a conversion inside the negation normal form, stopped at the
/// cube cap.
pub(crate) fn cubes(formula: &Formula, walk: Walk) -> Option<Vec<Cube>> {
    let open = open(formula, true)?;
    let mut search = Search {
        walk,
        ..Search::default()
    };
    search.run(vec![Goal::Formula(&open)])?;
    Some(search.cubes)
}

/// The negation normal form of `formula` with every (positive) quantifier
/// replaced by its body over fresh names and, with `split_ne`, every `≠` atom by
/// the disjunction of its two strict cases. `None` when a conversion inside
/// [`dnf::to_nnf`] stopped at the cube cap.
fn open(formula: &Formula, split_ne: bool) -> Option<Formula> {
    let capped_before = work::cap_events();
    let nnf = dnf::to_nnf(formula);
    (work::cap_events() == capped_before).then(|| open_nnf(nnf, split_ne))
}

fn open_nnf(nnf: Formula, split_ne: bool) -> Formula {
    let open_all = |parts: Vec<Formula>| parts.into_iter().map(|p| open_nnf(p, split_ne)).collect();
    match nnf {
        Formula::And(parts) => Formula::and(open_all(parts)),
        Formula::Or(parts) => Formula::or(open_all(parts)),
        Formula::Exists(vars, body) => {
            let mut renamed = *body;
            for v in &vars {
                renamed = renamed.rename(v, &dnf::fresh_var(v));
            }
            open_nnf(dnf::to_nnf(&renamed), split_ne)
        }
        Formula::Atom(c) if split_ne && c.op() == RelOp::Ne => {
            let cases = c.split_ne().expect("op is Ne");
            Formula::or(cases.into_iter().map(Formula::Atom).collect())
        }
        other => other,
    }
}

/// How a search walks.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Walk {
    /// To the first satisfiable cube.
    #[default]
    First,
    /// Through every satisfiable cube, collecting them.
    Feasible,
    /// Through every cube, collecting them; the kernel is not consulted.
    All,
}

/// Integer coefficients over kernel variables.
type Terms = Vec<(usize, Rational)>;

/// A conjunct the search has still to satisfy.
#[derive(Clone)]
enum Goal<'f> {
    /// A formula in negation normal form without quantifiers.
    Formula(&'f Formula),
    /// An atom.
    Atom(&'f Constraint),
    /// `Σ terms + constant (op) 0` over kernel variables: a `≠` atom waiting
    /// for its branch, or one half of a split `≠`.
    Linear(RelOp, Terms, Rational),
}

impl<'f> Goal<'f> {
    /// Pushes the alternatives of a branch goal onto `stack`, last first.
    fn push_alternatives(self, stack: &mut Vec<Goal<'f>>) {
        match self {
            Goal::Formula(Formula::Or(parts)) => {
                stack.extend(parts.iter().rev().map(Goal::Formula));
            }
            // e ≠ 0  ⇔  e − 1 ≥ 0  ∨  −e − 1 ≥ 0
            Goal::Linear(RelOp::Ne, terms, constant) => {
                let negated = terms.iter().map(|&(v, c)| (v, -c)).collect();
                stack.push(Goal::Linear(
                    RelOp::Ge,
                    negated,
                    -constant - Rational::one(),
                ));
                stack.push(Goal::Linear(RelOp::Ge, terms, constant - Rational::one()));
            }
            _ => unreachable!("only disjunctions and `≠` atoms branch"),
        }
    }
}

/// Where a walk stands once the conjuncts before its next branch are asserted.
enum Step<'f> {
    /// The partial cube is infeasible.
    Dead,
    /// The path is a whole cube (feasible, unless the walk is `Walk::All`).
    Cube,
    /// The disjunction or `≠` to branch on next.
    Branch(Goal<'f>),
}

/// One branch point, as positions in the walk's stacks: the kernel's bound
/// trail and the path before its alternatives, and where the conjuncts every
/// alternative shares and its untried alternatives start.
struct Frame {
    mark: Checkpoint,
    path: usize,
    rest: usize,
    alternatives: usize,
}

/// The state of one walk: the kernel, its structural variable per name, the
/// path of atoms from the root and the cubes collected. The names are scanned
/// linearly: a query names a handful (at most nine on the corpus), where
/// hashing cost more than the scans.
#[derive(Default)]
struct Search<'f> {
    walk: Walk,
    kernel: BoundedSimplex,
    columns: Vec<(&'f str, usize)>,
    path: Cube,
    cubes: Vec<Cube>,
}

impl<'f> Search<'f> {
    /// Walks the conjunction of `goals` depth first. `Some(true)` when the
    /// first-cube walk found a satisfiable cube, `Some(false)` when the walk
    /// ran to its end, `None`, with a cap event recorded, at the cube cap.
    fn run(&mut self, mut goals: Vec<Goal<'f>>) -> Option<bool> {
        let (mut deferred, mut rests, mut alternatives) = (Vec::new(), Vec::new(), Vec::new());
        let mut frames: Vec<Frame> = Vec::new();
        let mut nodes: u64 = 1;
        let answer = 'search: loop {
            match self.step(&mut goals, &mut deferred) {
                Step::Dead => {}
                Step::Cube if self.walk == Walk::First => break Some(true),
                Step::Cube => self.cubes.push(self.path.clone()),
                Step::Branch(branch) => {
                    frames.push(Frame {
                        mark: self.kernel.checkpoint(),
                        path: self.path.len(),
                        rest: rests.len(),
                        alternatives: alternatives.len(),
                    });
                    rests.append(&mut goals);
                    branch.push_alternatives(&mut alternatives);
                }
            }
            // The next untried alternative, innermost branch first.
            loop {
                let Some(frame) = frames.last() else {
                    break 'search Some(false);
                };
                self.kernel.backtrack(frame.mark);
                self.path.truncate(frame.path);
                if alternatives.len() == frame.alternatives {
                    rests.truncate(frame.rest);
                    frames.pop();
                    continue;
                }
                nodes += 1;
                if nodes > dnf::CUBE_CAP {
                    work::record_cap_event();
                    break 'search None;
                }
                // The alternative comes first; the shared conjuncts follow
                // and keep their order for the next branch.
                goals.clear();
                goals.extend_from_slice(&rests[frame.rest..]);
                goals.push(alternatives.pop().expect("an untried alternative"));
                break;
            }
        };
        work::record_nodes(nodes);
        answer
    }

    /// Asserts the conjuncts of `goals` that need no branch, then checks the
    /// partial cube. The first-cube walk asserts all of them, deferring the
    /// branches, and branches on the first deferred one; the collecting walks
    /// move atoms onto the path in order up to the first branch and leave the
    /// conjuncts after it on `goals`.
    fn step(&mut self, goals: &mut Vec<Goal<'f>>, deferred: &mut Vec<Goal<'f>>) -> Step<'f> {
        let collect = self.walk != Walk::First;
        deferred.clear();
        while let Some(goal) = goals.pop() {
            let feasible = match goal {
                Goal::Formula(formula) => match formula {
                    Formula::True => true,
                    Formula::False => false,
                    Formula::Atom(c) => {
                        if collect {
                            self.path.push(c.clone());
                        }
                        self.walk == Walk::All || self.literal(c, deferred)
                    }
                    Formula::And(parts) => {
                        goals.extend(parts.iter().rev().map(Goal::Formula));
                        true
                    }
                    Formula::Or(_) => {
                        deferred.push(goal);
                        if collect {
                            break;
                        }
                        true
                    }
                    Formula::Not(_) | Formula::Exists(..) => {
                        unreachable!("negation normal form with quantifiers renamed away")
                    }
                },
                Goal::Atom(c) => self.literal(c, deferred),
                Goal::Linear(op, terms, constant) => self.linear(op, terms, constant, deferred),
            };
            if !feasible {
                return Step::Dead;
            }
        }
        if self.walk != Walk::All && !self.kernel.check() {
            return Step::Dead;
        }
        if deferred.is_empty() {
            return Step::Cube;
        }
        let branch = deferred.remove(0);
        goals.extend(deferred.drain(..).rev());
        Step::Branch(branch)
    }

    /// The kernel variable of a structural variable name.
    fn column(&mut self, name: &'f str) -> usize {
        if let Some(&(_, var)) = self.columns.iter().find(|(n, _)| *n == name) {
            return var;
        }
        let var = self.kernel.add_var();
        self.columns.push((name, var));
        var
    }

    /// Asserts the atom `c`, deferring a `≠` to a branch; returns `false`
    /// when the assertion is infeasible outright.
    fn literal(&mut self, c: &'f Constraint, deferred: &mut Vec<Goal<'f>>) -> bool {
        let expr = c.expr();
        let terms: Terms = expr
            .terms()
            .map(|(name, coeff)| (self.column(name), coeff))
            .collect();
        self.linear(c.op(), terms, expr.constant_term(), deferred)
    }

    /// Asserts `Σ terms + constant (op) 0` in integer normal form (the
    /// numbers [`Constraint::normalise`] computes), deferring a `≠` to a
    /// branch; returns `false` when the assertion is infeasible outright.
    fn linear(
        &mut self,
        op: RelOp,
        mut terms: Terms,
        constant: Rational,
        deferred: &mut Vec<Goal<'f>>,
    ) -> bool {
        let Some(constant) = integer_form(op, &mut terms, constant) else {
            return false;
        };
        if terms.is_empty() {
            return op.compares(constant);
        }
        if op == RelOp::Ne {
            deferred.push(Goal::Linear(op, terms, constant));
            return true;
        }
        self.kernel.assert_form(terms, constant, op == RelOp::Eq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tnt_solver::{Lin, Rational};

    fn n(k: i128) -> Lin {
        Lin::constant(Rational::from(k))
    }

    #[test]
    fn trivial_cases() {
        assert!(is_sat(&Formula::True));
        assert!(!is_sat(&Formula::False));
    }

    #[test]
    fn single_atom() {
        assert!(is_sat(&Constraint::ge(Lin::var("x"), n(3)).into()));
        assert!(!is_sat(&Constraint::ge(n(-1), n(0)).into()));
    }

    /// `2x − (2¹²⁷ − 1) ≥ 0` normalises to `x − 2¹²⁶ ≥ 0`, the floor of
    /// `−(2¹²⁷ − 1)/2`. The old floor wrapped at the `i128` boundary and gave
    /// `x + 2¹²⁶ ≥ 0`, so `x ≤ 0` was wrongly found consistent with it.
    #[test]
    fn near_i128_constant_is_rounded_down_exactly() {
        let wide = Constraint::ge(Lin::var("x").scale(Rational::from(2)), n(i128::MAX));
        assert_eq!(
            wide.normalise(),
            Some(Constraint::ge(Lin::var("x"), n(1 << 126)))
        );
        let f = Formula::and(vec![
            wide.into(),
            Constraint::le(Lin::var("x"), n(0)).into(),
        ]);
        assert!(!is_sat(&f));
    }

    #[test]
    fn conflicting_bounds() {
        let f = Formula::and(vec![
            Constraint::ge(Lin::var("x"), n(3)).into(),
            Constraint::lt(Lin::var("x"), n(3)).into(),
        ]);
        assert!(is_unsat(&f));
        let g = Formula::and(vec![
            Constraint::ge(Lin::var("x"), n(3)).into(),
            Constraint::le(Lin::var("x"), n(3)).into(),
        ]);
        assert!(is_sat(&g));
    }

    #[test]
    fn equalities_propagate() {
        // x = y ∧ y = 3 ∧ x < 0 is unsat.
        let f = Formula::and(vec![
            Constraint::eq(Lin::var("x"), Lin::var("y")).into(),
            Constraint::eq(Lin::var("y"), n(3)).into(),
            Constraint::lt(Lin::var("x"), n(0)).into(),
        ]);
        assert!(is_unsat(&f));
    }

    #[test]
    fn disjunction_needs_only_one_branch() {
        let f = Formula::or(vec![
            Constraint::ge(n(-1), n(0)).into(),
            Constraint::ge(Lin::var("x"), n(0)).into(),
        ]);
        assert!(is_sat(&f));
    }

    #[test]
    fn negation_of_valid_is_unsat() {
        // ¬(x = x) is unsat.
        let f: Formula = Constraint::eq(Lin::var("x"), Lin::var("x")).into();
        assert!(is_unsat(&f.negate()));
    }

    #[test]
    fn disequality_handled() {
        let f = Formula::and(vec![
            Constraint::ne(Lin::var("x"), n(0)).into(),
            Constraint::ge(Lin::var("x"), n(0)).into(),
            Constraint::le(Lin::var("x"), n(0)).into(),
        ]);
        assert!(is_unsat(&f));
    }

    #[test]
    fn parity_conflict_detected() {
        // 2x = 1 is integrally unsat and caught by normalisation.
        let f: Formula = Constraint::eq(Lin::var("x").scale(Rational::from(2)), n(1)).into();
        assert!(is_unsat(&f));
    }

    #[test]
    fn cube_sat_with_explicit_ne() {
        let cube = vec![
            Constraint::ne(Lin::var("x"), n(5)),
            Constraint::ge(Lin::var("x"), n(5)),
        ];
        assert!(cube_sat(&cube));
        let cube = vec![
            Constraint::ne(Lin::var("x"), n(5)),
            Constraint::ge(Lin::var("x"), n(5)),
            Constraint::le(Lin::var("x"), n(5)),
        ];
        assert!(!cube_sat(&cube));
    }

    /// A fractional `≠` atom normalises to a different atom; splitting it must
    /// still remove the original, or the recursion never ends.
    #[test]
    fn cube_sat_splits_a_fractional_ne() {
        let half_x = Lin::var("x").scale(Rational::new(1, 2));
        let cube = vec![Constraint::ne(half_x.clone(), n(1))];
        assert!(cube_sat(&cube));
        let cube = vec![
            Constraint::ne(half_x, n(1)),
            Constraint::eq(Lin::var("x"), n(2)),
        ];
        assert!(!cube_sat(&cube));
    }

    #[test]
    fn running_example_scenarios() {
        // The three inferred cases of the paper's foo example are each satisfiable and
        // pairwise disjoint.
        let x = Lin::var("x");
        let y = Lin::var("y");
        let case1: Formula = Constraint::lt(x.clone(), n(0)).into();
        let case2 = Formula::and(vec![
            Constraint::ge(x.clone(), n(0)).into(),
            Constraint::lt(y.clone(), n(0)).into(),
        ]);
        let case3 = Formula::and(vec![
            Constraint::ge(x, n(0)).into(),
            Constraint::ge(y, n(0)).into(),
        ]);
        for case in [&case1, &case2, &case3] {
            assert!(is_sat(case));
        }
        for (a, b) in [(&case1, &case2), (&case1, &case3), (&case2, &case3)] {
            assert!(is_unsat(&(*a).clone().and2((*b).clone())));
        }
    }

    const VARS: [&str; 2] = ["x", "y"];
    const OPS: [u8; 4] = [0, 4, 3, 5]; // ≥, =, <, ≠

    /// A concrete witness implies satisfiability (no false "unsat" answers).
    #[test]
    fn prop_witness_implies_sat() {
        let mut rng = SmallRng::seed_from_u64(0x5A701);
        for _ in 0..128 {
            let f = testgen::formula(&mut rng, &VARS, &OPS, 3, true);
            let env = testgen::int_env(&mut rng, &VARS, -8..8);
            if f.eval(&env, 4) {
                assert!(is_sat(&f), "witness {env:?} refutes unsat answer for {f}");
            }
        }
    }

    /// A random formula over `x`, `y`, `z` with `≠` atoms, nested `And`/`Or`,
    /// negations and existential quantifiers in positive position.
    fn quantified_formula(rng: &mut SmallRng, depth: u32) -> Formula {
        const ALL_OPS: [u8; 6] = [0, 1, 2, 3, 4, 5];
        let vars = ["x", "y", "z"];
        if depth == 0 || rng.gen_bool(0.25) {
            return testgen::formula(rng, &vars, &ALL_OPS, 2, true);
        }
        let parts: Vec<Formula> = (0..rng.gen_range(2usize..4))
            .map(|_| quantified_formula(rng, depth - 1))
            .collect();
        match rng.gen_range(0u32..3) {
            0 => Formula::and(parts),
            1 => Formula::or(parts),
            _ => Formula::exists(
                vec![vars[rng.gen_range(0..vars.len())].to_string()],
                Formula::and(parts),
            ),
        }
    }

    /// The eager product expansion of an open negation normal form, uncapped:
    /// the reference the walks are gated against. A `≠` atom splits into
    /// [`Constraint::split_ne`]'s two cases, and an `And` multiplies the cubes
    /// of its parts left to right.
    fn eager_dnf(formula: &Formula) -> Vec<Cube> {
        match formula {
            Formula::True => vec![vec![]],
            Formula::False => vec![],
            Formula::Atom(c) => match c.split_ne() {
                Some([a, b]) => vec![vec![a], vec![b]],
                None => vec![vec![c.clone()]],
            },
            Formula::Or(parts) => parts.iter().flat_map(eager_dnf).collect(),
            Formula::And(parts) => parts.iter().fold(vec![vec![]], |cubes, part| {
                let part_cubes = eager_dnf(part);
                cubes
                    .iter()
                    .flat_map(|cube| part_cubes.iter().map(move |pc| [&cube[..], pc].concat()))
                    .collect()
            }),
            Formula::Not(_) | Formula::Exists(..) => unreachable!("an open negation normal form"),
        }
    }

    /// Seeded formulas, each with its open negation normal form (quantifiers
    /// renamed away, so both sides of a comparison see the same names).
    fn open_formulas(seed: u64) -> impl Iterator<Item = (Formula, Formula)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..400).map(move |_| {
            let f = quantified_formula(&mut rng, 3);
            let open = open(&f, false).expect("uncapped");
            (f, open)
        })
    }

    /// The walk over every cube is the eager product expansion, cube for cube,
    /// in order and with the same atoms.
    #[test]
    fn prop_all_walk_is_the_eager_product() {
        let mut sizes = [0usize; 2];
        for (_, f) in open_formulas(0x5A704) {
            let expected = eager_dnf(&f);
            sizes[usize::from(expected.len() > 8)] += 1;
            assert_eq!(cubes(&f, Walk::All), Some(expected), "walk differs on {f}");
        }
        assert!(
            sizes.iter().all(|&n| n > 40),
            "small and large expansions: {sizes:?}"
        );
    }

    /// The walk over the satisfiable cubes is the eager product expansion with
    /// the unsatisfiable cubes dropped, in order and with the same atoms.
    #[test]
    fn prop_feasible_walk_is_the_filtered_eager_product() {
        let mut dropped = 0;
        for (_, f) in open_formulas(0x5A705) {
            let all = eager_dnf(&f);
            let expected: Vec<Cube> = all.iter().filter(|c| cube_sat(c)).cloned().collect();
            dropped += all.len() - expected.len();
            assert_eq!(
                cubes(&f, Walk::Feasible),
                Some(expected),
                "walk differs on {f}"
            );
        }
        assert!(
            dropped > 100,
            "unsatisfiable cubes must be exercised: {dropped}"
        );
    }

    /// The first-cube walk answers as the eager route — every cube of the
    /// product expansion checked on its own.
    #[test]
    fn prop_lazy_is_sat_agrees_with_eager_dnf() {
        let mut answers = [0usize; 2];
        for (f, open) in open_formulas(0x5A703) {
            let eager = eager_dnf(&open).iter().any(cube_sat);
            let lazy = is_sat(&f);
            assert_eq!(lazy, eager, "lazy and eager disagree on {f}");
            answers[usize::from(lazy)] += 1;
        }
        assert!(
            answers.iter().all(|&n| n > 60),
            "both answers must be exercised: {answers:?}"
        );
    }

    /// A search past the cube cap's nodes stops, answers "satisfiable" and
    /// records a cap event. Branch points are taken in formula order, so the
    /// seventeen `≠` branches, which all succeed, come before the last one,
    /// which contradicts `x = 0` both ways.
    #[test]
    fn search_stops_at_the_cube_cap() {
        let mut parts: Vec<Formula> = vec![Constraint::eq(Lin::var("x"), n(0)).into()];
        for i in 0..17 {
            parts.push(Constraint::ne(Lin::var(format!("y{i}")), n(0)).into());
        }
        parts.push(Formula::or(vec![
            Constraint::ge(Lin::var("x"), n(1)).into(),
            Constraint::le(Lin::var("x"), n(-1)).into(),
        ]));
        let f = Formula::and(parts);
        let capped = work::cap_events();
        assert!(is_sat(&f), "capped search over-approximates");
        assert_eq!(work::cap_events(), capped + 1);
    }

    /// The work deadline meters search nodes as well as pivots: a first-cube
    /// walk of fifteen nodes over bounds on one variable, which never pivots,
    /// passes a budget of ten.
    #[test]
    fn a_walk_without_pivots_passes_the_deadline_on_its_nodes() {
        let mut alternatives: Vec<Formula> = (1..=13)
            .map(|k| Constraint::ge(Lin::var("x"), n(k)).into())
            .collect();
        alternatives.push(Constraint::le(Lin::var("x"), n(0)).into());
        let f = Formula::and(vec![
            Constraint::eq(Lin::var("x"), n(0)).into(),
            Formula::or(alternatives),
        ]);
        let _budget = work::Budget::new(10);
        let (pivots, nodes) = (work::pivots(), work::nodes());
        assert!(is_sat(&f));
        assert_eq!(work::pivots(), pivots, "bounds alone never pivot");
        assert_eq!(work::nodes() - nodes, 15, "the root and each alternative");
        assert!(work::deadline_exceeded());
    }

    /// DNF preserves satisfiability witnesses.
    #[test]
    fn prop_dnf_preserves_witness() {
        let mut rng = SmallRng::seed_from_u64(0x5A702);
        for _ in 0..128 {
            let f = testgen::formula(&mut rng, &VARS, &OPS, 3, true);
            let env = testgen::int_env(&mut rng, &VARS, -8..8);
            let cubes = crate::dnf::to_dnf(&f);
            let dnf_holds = cubes.iter().any(|cube| cube.iter().all(|c| c.holds(&env)));
            assert_eq!(f.eval(&env, 4), dnf_holds, "DNF changed truth of {f}");
        }
    }
}
