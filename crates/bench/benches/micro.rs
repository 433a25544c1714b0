//! Micro-benchmarks of the solving back-end (simplex, entailment, ranking synthesis)
//! and of its leaf kernels (`kernel/*`: rational arithmetic, the DNF And-product,
//! cube satisfiability and concrete Farkas entailments on the bounded simplex, and
//! Farkas-shaped LPs, one small and one wide), which break the cold corpus pass
//! down by kernel.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tnt_logic::{dnf, entail, num, sat, var, Constraint, Formula};
use tnt_solver::farkas::{self, encode_implication, MultiplierSource, TemplateLin};
use tnt_solver::lexicographic::synthesize_lexicographic_mixed;
use tnt_solver::lp::LpProblem;
use tnt_solver::system::{Transition, TransitionSystem};
use tnt_solver::{Ineq, Lin, Rational};

fn ranking_countdown(c: &mut Criterion) {
    c.bench_function("ranking/countdown", |b| {
        b.iter(|| {
            let mut p = TransitionSystem::new();
            let n = p.add_node(&["x"]);
            let next = Lin::var("x").add_const(-Rational::one());
            let mut guard = vec![Ineq::ge_zero(Lin::var("x"))];
            guard.extend(Ineq::eq_zero(Lin::var("x'").sub(&next)));
            p.add_transition(Transition::new(n, n, vec!["x'".into()], vec![next], guard));
            synthesize_lexicographic_mixed(&p, 3, false)
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
/// eight shared atoms each, walked in 9,841 search nodes.
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
    let cubes = dnf::to_dnf(&formula).len();
    assert_eq!(
        cubes, 6561,
        "the product must expand in full, not stop at the cube cap"
    );
    c.bench_function("kernel/dnf_product", |b| {
        b.iter(|| dnf::to_dnf(black_box(&formula)).len())
    });
}

/// 256 seeded cubes shaped like the corpus's cube checks: five or six atoms
/// over four variables, one to four of them per atom with small integer
/// coefficients, one atom in four an equality; about half are infeasible.
fn kernel_cube_sat(c: &mut Criterion) {
    // SplitMix64: a fixed stream, independent of any RNG crate.
    let mut state: u64 = 0x0C0B_E5A7;
    let mut next = |bound: u64| -> i128 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound) as i128
    };
    let vars = ["x", "y", "z", "w"];
    let cubes: Vec<Vec<Constraint>> = (0..256)
        .map(|_| {
            (0..5 + next(2))
                .map(|_| {
                    let mut lhs = Lin::constant(Rational::from(next(9) - 4));
                    for v in vars {
                        if next(5) < 2 {
                            lhs.add_term(v, Rational::from([-2, -1, 1, 2][next(4) as usize]));
                        }
                    }
                    if lhs.is_constant() {
                        lhs.add_term(vars[next(4) as usize], Rational::one());
                    }
                    if next(4) == 0 {
                        Constraint::eq(lhs, Lin::zero())
                    } else {
                        Constraint::ge(lhs, Lin::zero())
                    }
                })
                .collect()
        })
        .collect();
    let feasible = cubes.iter().filter(|cube| sat::cube_sat(cube)).count();
    assert!(
        (64..192).contains(&feasible),
        "the cube set must mix feasible and infeasible cubes: {feasible} of 256 feasible"
    );
    c.bench_function("kernel/cube_sat", |b| {
        b.iter(|| {
            black_box(&cubes)
                .iter()
                .filter(|cube| sat::cube_sat(cube))
                .count()
        })
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
    let pivots = tnt_solver::work::pivots();
    assert!(lp.solve().is_feasible());
    assert!(tnt_solver::work::pivots() > pivots);
    c.bench_function("kernel/farkas_lp", |b| {
        b.iter(|| black_box(&lp).solve().status)
    });
}

/// The concrete entailment checks of the Farkas differential gate: 256
/// seeded premise sets of one to twelve fractional inequalities, about half
/// of them unsatisfiable, each asked its one to six conclusions through one
/// `Entailment`, as the closure checks ask them.
fn kernel_farkas_implies(c: &mut Criterion) {
    let cases = farkas::seeded_entailments(0xFA4CA5, 256);
    let answer = |cases: &[(Vec<Ineq>, Vec<Ineq>)]| -> usize {
        cases
            .iter()
            .map(|(premises, conclusions)| {
                let mut entailment = farkas::Entailment::new(premises);
                conclusions.iter().filter(|c| entailment.implies(c)).count()
            })
            .sum()
    };
    let total: usize = cases.iter().map(|(_, conclusions)| conclusions.len()).sum();
    let entailed = answer(&cases);
    assert!(
        (total / 4..total * 3 / 4).contains(&entailed),
        "the checks must mix both answers: {entailed} of {total} entailed"
    );
    c.bench_function("kernel/farkas_implies", |b| {
        b.iter(|| answer(black_box(&cases)))
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
    kernel_cube_sat,
    kernel_farkas_lp,
    kernel_farkas_implies,
    kernel_farkas_lp_wide
);
criterion_main!(micro);
