//! End-to-end gates for the drift family: loops whose divergence boundary is
//! a two-variable *sum* that neither single-variable abduction nor the
//! splitter's weakest-precondition slabs can reach.
//!
//! Three invariants are pinned:
//!
//! * **The `U → N` conversions pay** — with orbit-harvested enrichment the
//!   additive and coupled drift members answer a validated `N` whose rendered
//!   `precondition non-terminating:` line is pinned byte for byte; with
//!   enrichment off they stay a *clean* `Unknown` (the abductive splitter
//!   exhausts its per-family quota instead of burning the budget into a T/O).
//! * **The control stays flat** — the lagged member is a definite `N` with
//!   or without enrichment: its first abductive split already lands the
//!   divergence region, so the ablation delta is attributable to orbit
//!   harvesting alone.
//! * **Tier-independence** — the pinned summaries are byte-identical when
//!   computed cold without a cache, served from the in-memory summary cache,
//!   and served from the persistent store by a fresh session.
//!
//! A tripwire also pins where the logic layer's cube cap bites: three times in
//! each coupled member, nowhere in the others.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hiptnt::infer::{PreconditionKind, Verdict};
use hiptnt::store::SummaryStore;
use hiptnt::suite::templates::{drift_additive, drift_coupled, drift_lagged, BenchProgram};
use hiptnt::{AnalysisSession, InferOptions};

/// A unique scratch directory per test, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tnt-drift-gate-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The crafted-corpus drift instances with their pinned non-termination
/// preconditions (the `precondition non-terminating:` line of the rendered
/// `main` summary, byte-exact).
fn pinned() -> Vec<(BenchProgram, &'static str)> {
    vec![
        (
            drift_additive("drift_additive", 0),
            "((x - 1 >= 0 & y + z >= 0) | (x >= 0 & -x >= 0 & y + z >= 0))",
        ),
        (
            drift_coupled("drift_coupled", 1),
            "((x - 3 >= 0 & y + z - 1 >= 0) \
             | (x - 2 >= 0 & x + 3*y + 3*z >= 0 & -x + 2 >= 0))",
        ),
        (drift_lagged("drift_lagged", 1), "(x >= 0 & y + z + 1 >= 0)"),
    ]
}

fn no_orbit_options() -> InferOptions {
    InferOptions {
        orbit_enrichment: false,
        ..InferOptions::default()
    }
}

/// Renders every summary of one program through the given session, keyed by
/// method label — the byte-equality unit of the tier-independence gate.
fn rendered(session: &AnalysisSession, source: &str) -> String {
    let result = session.analyze_source(source).expect("analysis succeeds");
    result
        .summaries
        .iter()
        .map(|(label, s)| format!("{label}:\n{}\n", s.render()))
        .collect::<Vec<_>>()
        .join("")
}

#[test]
fn drift_family_answers_nonterm_with_pinned_preconditions() {
    for (program, region) in pinned() {
        let result = AnalysisSession::new(InferOptions::default())
            .analyze_source(&program.source)
            .expect("analysis succeeds");
        assert_eq!(
            result.program_verdict(),
            Verdict::NonTerminating,
            "{} must convert to a definite N",
            program.name
        );
        assert!(
            result.validated,
            "{}: the enriched verdict must re-validate",
            program.name
        );
        assert!(
            !result.stats.budget_exhausted,
            "{}: the conversion must finish inside the work budget",
            program.name
        );
        let pre = result
            .program_precondition()
            .expect("a program precondition");
        assert_eq!(pre.kind, PreconditionKind::NonTerminating);
        assert_eq!(
            pre.region.to_string(),
            region,
            "{}: pinned non-termination region drifted",
            program.name
        );
        let main = result.summaries["main"].render();
        let line = format!("precondition non-terminating: {region}");
        assert!(
            main.ends_with(&line),
            "{}: rendered main summary must end with {line:?}, got:\n{main}",
            program.name
        );
    }
}

/// Without orbit enrichment the additive and coupled members must stay a
/// *clean* `Unknown`: the abductive splitter's weakest-precondition fall-back
/// is cut by its per-family quota, so the run converges without exhausting the
/// work budget (a `T/O` here would mean the staging regressed into a spiral).
/// The lagged control stays `N` either way.
#[test]
fn without_enrichment_drift_is_a_clean_unknown_except_the_control() {
    let session = AnalysisSession::new(no_orbit_options());
    for (program, _) in pinned() {
        let result = session
            .analyze_source(&program.source)
            .expect("analysis succeeds");
        assert!(
            !result.stats.budget_exhausted,
            "{}: the no-enrichment profile must converge cleanly, not T/O",
            program.name
        );
        assert_eq!(result.stats.orbit_attempts, 0, "{}", program.name);
        let expected = if program.name == "drift_lagged" {
            Verdict::NonTerminating
        } else {
            Verdict::Unknown
        };
        assert_eq!(
            result.program_verdict(),
            expected,
            "{}: unexpected no-enrichment verdict",
            program.name
        );
    }
}

/// The pinned summaries must be byte-identical across every serving tier:
/// cold with no cache, warm from the in-memory cache, and store-served in a
/// fresh session (the "new process" path).
#[test]
fn drift_summaries_are_identical_across_cache_tiers() {
    let options = InferOptions::default();
    for (program, region) in pinned() {
        let line = format!("precondition non-terminating: {region}");

        // Cold, no cache at all.
        let uncached = rendered(&AnalysisSession::without_cache(options), &program.source);
        assert!(
            uncached.contains(&line),
            "{}: uncached render lost the pinned precondition line",
            program.name
        );

        // Warm: the second analysis through one session is a pure cache hit.
        let session = AnalysisSession::new(options);
        let first = rendered(&session, &program.source);
        let second = rendered(&session, &program.source);
        let stats = session.stats();
        assert_eq!(
            (stats.cache_misses, stats.cache_hits()),
            (1, 1),
            "{}: the second run must be served from the cache",
            program.name
        );
        assert_eq!(first, uncached, "{}", program.name);
        assert_eq!(second, uncached, "{}", program.name);

        // Store-served: write through one session, then serve a fresh one.
        let dir = TempDir::new();
        let writer = AnalysisSession::new(options)
            .with_store(Arc::new(SummaryStore::open(dir.path()).expect("open")));
        let written = rendered(&writer, &program.source);
        drop(writer);
        let reader = AnalysisSession::new(options)
            .with_store(Arc::new(SummaryStore::open(dir.path()).expect("reopen")));
        let served = rendered(&reader, &program.source);
        let stats = reader.stats();
        assert_eq!(
            (stats.store_hits, stats.cache_misses),
            (1, 0),
            "{}: the fresh session must be served from the store",
            program.name
        );
        assert_eq!(written, uncached, "{}", program.name);
        assert_eq!(served, uncached, "{}", program.name);
    }
}

/// The cube cap stops exactly three walks per coupled instance (the
/// weakest-precondition prunes of `abduce`'s fall-back, which then gives up)
/// and none in the additive and lagged instances. The counter is
/// thread-local, so each corpus instance is analysed on this thread.
#[test]
fn the_cube_cap_bites_only_in_the_coupled_members() {
    let instances = (0..3).flat_map(|k| {
        [
            (drift_additive(&format!("drift_additive_{k}"), k), 0),
            (drift_coupled(&format!("drift_coupled_{}", k + 1), k + 1), 3),
            (drift_lagged(&format!("drift_lagged_{}", k + 1), k + 1), 0),
        ]
    });
    for (program, expected) in instances {
        let before = hiptnt::solver::work::cap_events();
        hiptnt::infer::analyze_source(&program.source, &InferOptions::default())
            .expect("analysis succeeds");
        assert_eq!(
            hiptnt::solver::work::cap_events() - before,
            expected,
            "{}: cap events",
            program.name
        );
    }
}
