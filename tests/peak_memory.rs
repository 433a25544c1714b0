//! Peak-memory gate for the simplex kernel.
//!
//! `mem_walk`'s lexicographic ranking LP is the widest of the corpus: 1,008
//! rows over 3,948 tableau columns, under half a percent non-zero. A dense
//! tableau of it takes about 127 MB; the sparse rows hold only its non-zeros.
//! This file has exactly one test, so the process's high-water mark is that
//! analysis's own.

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
