//! Micro-benchmarks of the solving back-end (simplex, entailment, ranking synthesis)
//! and of its leaf kernels (`kernel/*`: rational arithmetic, the DNF And-product and
//! Farkas-shaped LPs, one small and one wide), which break the cold corpus pass
//! down by kernel.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tnt_logic::{dnf, entail, num, var, Constraint, Formula};
use tnt_solver::farkas::{encode_implication, MultiplierSource, TemplateLin};
use tnt_solver::lexicographic::synthesize_lexicographic;
use tnt_solver::lp::LpProblem;
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

/// Integer and fractional `+`/`*` over 64 operands.
fn kernel_rational(c: &mut Criterion) {
    let integers: Vec<Rational> = (1..=64).map(|k| Rational::from(k * 37 - 1000)).collect();
    let fractions: Vec<Rational> = (1..=64)
        .map(|k| Rational::new(k * 37 - 1000, k % 7 + 2))
        .collect();
    for (name, operands) in [
        ("kernel/rational_int", &integers),
        ("kernel/rational_frac", &fractions),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut acc = Rational::zero();
                for pair in black_box(operands).windows(2) {
                    acc += pair[0] * pair[1];
                }
                acc
            })
        });
    }
}

/// One And of eight three-way Ors over distinct variables: 3^8 = 6561 cubes of
/// eight shared atoms each.
fn kernel_dnf_product(c: &mut Criterion) {
    let formula = Formula::and(
        (0..8)
            .map(|i| {
                let x = var(&format!("x{i}"));
                Formula::or(vec![
                    Constraint::ge(x.clone(), num(i)).into(),
                    Constraint::le(x.clone(), num(-i)).into(),
                    Constraint::eq(x.scale(Rational::from(2)), num(i + 1)).into(),
                ])
            })
            .collect(),
    );
    c.bench_function("kernel/dnf_product", |b| {
        b.iter(|| dnf::to_dnf(black_box(&formula)).len())
    });
}

/// A Farkas-shaped feasibility LP of 216 equality rows: one affine template
/// over eight variables bounded below on 24 fractional polyhedra.
fn kernel_farkas_lp(c: &mut Criterion) {
    let vars: Vec<String> = (0..8).map(|i| format!("x{i}")).collect();
    let template = TemplateLin::template("c", &vars);
    let mut lp = LpProblem::new();
    let mut multipliers = MultiplierSource::new();
    for k in 0..24i128 {
        let premises: Vec<Ineq> = (0..8)
            .flat_map(|i| {
                let x = Lin::var(&vars[i]);
                let y = Lin::var(&vars[(i + 1) % 8]);
                [
                    Ineq::ge_zero(x.add_const(Rational::new(k - 12, 3))),
                    Ineq::ge_zero(
                        x.add(&y.scale(Rational::new(1, 2)))
                            .scale(-Rational::one())
                            .add_const(Rational::from(k + 10)),
                    ),
                ]
            })
            .collect();
        let conclusion = template.add_const(Rational::from(k));
        encode_implication(&mut lp, &mut multipliers, &premises, &conclusion);
    }
    let pivots = tnt_solver::simplex::pivot_work();
    assert!(lp.solve().is_feasible());
    assert!(tnt_solver::simplex::pivot_work() > pivots);
    c.bench_function("kernel/farkas_lp", |b| {
        b.iter(|| black_box(&lp).solve().status)
    });
}

/// The wide Farkas-shaped LP of the simplex pin test: 1,000 rows over 3,002
/// structural columns, at most six non-zeros per row before fill-in.
fn kernel_farkas_lp_wide(c: &mut Criterion) {
    let program = tnt_solver::simplex::wide_block_program(1, 125);
    c.bench_function("kernel/farkas_lp_wide", |b| {
        b.iter(|| tnt_solver::simplex::solve(black_box(&program)).is_infeasible())
    });
}

criterion_group!(
    micro,
    ranking_countdown,
    entailment_query,
    kernel_rational,
    kernel_dnf_product,
    kernel_farkas_lp,
    kernel_farkas_lp_wide
);
criterion_main!(micro);
