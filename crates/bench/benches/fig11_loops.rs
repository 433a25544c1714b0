//! Criterion wrapper for Figure 11: HIPTNT+ vs the T2 profile on representative
//! loop-based integer programs (the full table is produced by the `fig11` binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tnt_baselines::{Analyzer, HipTntPlus, IntegerLoopOnly};

fn fig11(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11");
    group.sample_size(10);
    let hiptnt = HipTntPlus::default();
    let t2 = IntegerLoopOnly::default();
    let suite = tnt_suite::integer_loops();
    for program in suite.programs.iter().take(3) {
        group.bench_with_input(
            BenchmarkId::new("HIPTNT+", &program.name),
            &program.source,
            |b, source| b.iter(|| hiptnt.run(&[source])),
        );
        group.bench_with_input(
            BenchmarkId::new("T2-profile", &program.name),
            &program.source,
            |b, source| b.iter(|| t2.run(&[source])),
        );
    }
    group.finish();
}

criterion_group!(benches, fig11);
criterion_main!(benches);
