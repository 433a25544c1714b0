//! Peak-memory gate for the analyzer and the simplex kernel.
//!
//! `mem_walk`'s analysis once built the corpus's widest ranking LP. Its ranking
//! system now keeps only the rationally feasible transitions, so its largest
//! LP has 112 rows. The same test therefore also solves the seeded wide block
//! program the simplex pin test uses: 1,000 rows over 3,002 structural
//! columns, sparse, filling in several-fold as it pivots. A dense tableau of
//! it would take over 100 MB; the sparse rows hold only its non-zeros.
//! This file has exactly one test, so the process's high-water mark is that
//! of these two workloads alone.

use tnt_solver::simplex::{self, SimplexOutcome};

#[test]
fn mem_walk_analysis_peaks_under_48_mib() {
    let program = tnt_suite::svcomp_suites()
        .into_iter()
        .flat_map(|suite| suite.programs)
        .find(|program| program.name.starts_with("mem_walk"))
        .expect("the memory-alloca suite has a mem_walk program");
    let result = tnt_infer::analyze_source(&program.source, &tnt_infer::InferOptions::default())
        .expect("mem_walk is analysable");
    assert!(!result.summaries.is_empty());

    let wide = simplex::wide_block_program(1, 125);
    assert_eq!((wide.rows.len(), wide.num_vars), (1000, 3002));
    assert!(matches!(
        simplex::solve(&wide),
        SimplexOutcome::Optimal { .. }
    ));

    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
        let peak_kib: u64 = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|value| value.trim().trim_end_matches("kB").trim().parse().ok())
            .expect("/proc/self/status reports VmHWM");
        assert!(
            peak_kib < 48 * 1024,
            "peak resident memory {peak_kib} KiB is not below 48 MiB"
        );
    }
}
