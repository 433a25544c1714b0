//! Micro-benchmarks of the solving back-end (simplex, entailment, ranking synthesis).

use criterion::{criterion_group, criterion_main, Criterion};
use tnt_logic::{entail, num, var, Constraint, Formula};
use tnt_solver::lexicographic::synthesize_lexicographic;
use tnt_solver::ranking::{RankingProblem, Transition};
use tnt_solver::{Ineq, Lin, Rational};

fn ranking_countdown(c: &mut Criterion) {
    c.bench_function("ranking/countdown", |b| {
        b.iter(|| {
            let mut p = RankingProblem::new();
            let n = p.add_node("loop", &["x"]);
            let mut guard = vec![Ineq::ge_zero(Lin::var("x"))];
            guard.extend(Ineq::eq_zero(
                Lin::var("x'")
                    .sub(&Lin::var("x"))
                    .add_const(Rational::one()),
            ));
            p.add_transition(Transition::new(n, n, vec!["x'".into()], guard));
            synthesize_lexicographic(&p, 3)
        })
    });
}

fn entailment_query(c: &mut Criterion) {
    let antecedent = Formula::and(vec![
        Constraint::ge(var("x"), num(0)).into(),
        Constraint::eq(var("x1"), var("x").add(&var("y"))).into(),
        Constraint::ge(var("y"), num(0)).into(),
    ]);
    let consequent: Formula = Constraint::ge(var("x1"), num(0)).into();
    c.bench_function("logic/entailment", |b| {
        b.iter(|| entail::entails(&antecedent, &consequent))
    });
}

criterion_group!(micro, ranking_countdown, entailment_query);
criterion_main!(micro);
