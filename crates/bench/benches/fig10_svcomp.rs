//! Criterion wrapper for Figure 10: analyses one representative program per verdict
//! class from each SV-COMP-like suite (the full table is produced by the `fig10` binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tnt_baselines::{Analyzer, HipTntPlus};

fn fig10(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10");
    group.sample_size(10);
    let tool = HipTntPlus::default();
    for suite in tnt_suite::svcomp_suites() {
        for program in suite.programs.iter().take(2) {
            group.bench_with_input(
                BenchmarkId::new(suite.category.name(), &program.name),
                &program.source,
                |b, source| b.iter(|| tool.run(&[source])),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, fig10);
criterion_main!(benches);
