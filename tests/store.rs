//! End-to-end gates for the persistent summary store: the determinism
//! tripwires extend across process boundaries. Rendered summaries and
//! per-program deterministic work must be byte-identical across (1) a cold
//! run with no cache at all, (2) a warm in-memory pass, and (3) a fresh
//! session in a "new process" (fresh in-memory state) served from the on-disk
//! store. A corrupted store record must degrade to a recomputation — a miss —
//! never a wrong or missing summary.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hiptnt::infer::CacheTier;
use hiptnt::store::SummaryStore;
use hiptnt::suite::crafted;
use hiptnt::{analyze_source, AnalysisResult, AnalysisSession, BatchEntry, InferOptions, Verdict};

/// A unique scratch directory per test, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tnt-store-gate-{}-{}",
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

/// The full observable outcome of one program: every rendered summary plus
/// the deterministic work units. Byte-equality of this string across cache
/// configurations is the determinism contract.
fn fingerprint(entry: &BatchEntry) -> String {
    match &entry.result {
        Err(err) => format!("error: {err} (work {})", entry.work),
        Ok(result) => rendered(result),
    }
}

/// [`fingerprint`] of one analysis result.
fn rendered(result: &AnalysisResult) -> String {
    let summaries: Vec<String> = result
        .summaries
        .iter()
        .map(|(label, s)| format!("{label}:{}", s.render()))
        .collect();
    format!(
        "verdict {} poisoned {} work {}\n{}",
        result.program_verdict(),
        result.poisoned,
        result.stats.work,
        summaries.join("\n")
    )
}

fn crafted_sources() -> Vec<String> {
    crafted()
        .programs
        .iter()
        .map(|p| p.source.clone())
        .collect()
}

#[test]
fn summaries_are_byte_identical_across_cold_warm_and_store_restart() {
    let suite = crafted_sources();
    let sources: Vec<&str> = suite.iter().map(String::as_str).collect();
    let options = InferOptions::default();
    let dir = TempDir::new();

    // (1) Cold: no cache of any kind.
    let cold_entries = AnalysisSession::without_cache(options).analyze_batch_with(&sources, 2);
    let cold: Vec<String> = cold_entries.iter().map(fingerprint).collect();

    // (2) Populate the store, then a warm in-memory pass in the same session.
    let writer = AnalysisSession::new(options).with_store(Arc::new(
        SummaryStore::open(dir.path()).expect("open store"),
    ));
    let populate = writer.analyze_batch_with(&sources, 2);
    let warm_entries = writer.analyze_batch_with(&sources, 2);
    let populate_fp: Vec<String> = populate.iter().map(fingerprint).collect();
    let warm: Vec<String> = warm_entries.iter().map(fingerprint).collect();
    let stats = writer.stats();
    assert!(
        stats.store_writes > 0,
        "fresh analyses must be written behind"
    );
    assert_eq!(
        stats.store_writes, stats.cache_misses,
        "every computed program is persisted exactly once"
    );

    // (3) "Fresh process": a brand-new session with empty in-memory state,
    // reading the store a previous process wrote.
    let restarted = AnalysisSession::new(options).with_store(Arc::new(
        SummaryStore::open(dir.path()).expect("reopen store"),
    ));
    let restored_entries = restarted.analyze_batch_with(&sources, 2);
    let restored: Vec<String> = restored_entries.iter().map(fingerprint).collect();
    let stats = restarted.stats();
    assert_eq!(
        stats.cache_misses, 0,
        "a restart over the same corpus must recompute nothing"
    );
    assert!(
        stats.store_hits > 0,
        "the store tier must serve the restart"
    );
    assert_eq!(
        stats.store_hits + stats.dedup_hits + stats.memory_hits,
        sources.len() as u64
    );
    for entry in &restored_entries {
        assert!(
            matches!(
                entry.tier,
                Some(CacheTier::Store) | Some(CacheTier::Dedup) | Some(CacheTier::Memory)
            ),
            "every restart entry is served from a reuse tier, got {:?}",
            entry.tier
        );
    }

    for (i, cold_fp) in cold.iter().enumerate() {
        assert_eq!(
            cold_fp, &populate_fp[i],
            "cold vs store-writing run, program {i}"
        );
        assert_eq!(
            cold_fp, &warm[i],
            "cold vs warm in-memory pass, program {i}"
        );
        assert_eq!(cold_fp, &restored[i], "cold vs store restart, program {i}");
    }
}

/// A leaf plus a root calling it; `root_bound` edits only the root.
fn leaf_root(root_bound: i64) -> String {
    format!(
        "void leaf(int x) {{ if (x > 0) {{ leaf(x - 1); }} else {{ return; }} }}\n\
         void root(int x, int y) {{ leaf(x); if (y > {root_bound}) {{ root(x, y - 1); }} else {{ return; }} }}"
    )
}

/// Flips one encoded-payload byte in every frame with the given magic, so
/// each fails its checksum; returns how many frames it touched.
fn corrupt_frames(path: &Path, magic: &[u8; 2]) -> usize {
    let mut bytes = std::fs::read(path).expect("store file");
    let (mut pos, mut touched) = (hiptnt::store::HEADER.len(), 0);
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos + 2..pos + 6].try_into().unwrap()) as usize;
        if &bytes[pos..pos + 2] == magic {
            // Past the payload's 24-byte key + fingerprint prefix.
            bytes[pos + 6 + 24 + (len - 24) / 2] ^= 0x55;
            touched += 1;
        }
        pos += 6 + len + 8;
    }
    std::fs::write(path, &bytes).expect("rewrite");
    touched
}

/// A corrupt record of either kind is a miss, never a wrong summary: the
/// restarted session recomputes what the record would have served and
/// renders it byte-identically to a cold analysis. The `TR` case probes the
/// stored program itself; the `MR` case probes a root-edited program, which
/// misses the program tier and would otherwise replay the unedited leaf's
/// method record.
#[test]
fn corrupted_store_record_degrades_to_recomputation_not_wrong_summary() {
    let countdown = "void main(int x) { while (x > 0) { x = x - 2; } }".to_string();
    let cases = [
        (b"TR", countdown.clone(), countdown),
        (b"MR", leaf_root(0), leaf_root(7)),
    ];
    let options = InferOptions::default();
    for (magic, written, probed) in cases {
        let kind = String::from_utf8_lossy(magic);
        let dir = TempDir::new();
        let writer = AnalysisSession::new(options)
            .with_store(Arc::new(SummaryStore::open(dir.path()).expect("open")));
        writer.analyze_source(&written).expect("cold analysis");
        assert_eq!(writer.stats().store_writes, 1, "{kind}");
        drop(writer);

        let path = dir.path().join(hiptnt::store::STORE_FILE);
        assert!(corrupt_frames(&path, magic) > 0, "{kind}");

        let store = Arc::new(SummaryStore::open(dir.path()).expect("reopen"));
        let indexed = match magic {
            b"TR" => store.entries(),
            _ => store.method_entries(),
        };
        assert_eq!(indexed, 0, "{kind}: corrupt records must not be indexed");
        assert!(
            store.diagnostics().iter().any(|d| d.contains("corrupt")),
            "{kind}: corruption is reported, not silent"
        );
        let entries_before = store.entries();
        let restarted = AnalysisSession::new(options).with_store(store.clone());
        let recomputed = restarted.analyze_source(&probed).expect("recomputation");
        let stats = restarted.stats();
        assert_eq!(
            (stats.store_hits, stats.cache_misses),
            (0, 1),
            "{kind}: the corrupt record is a miss, served by recomputing"
        );
        if magic == b"MR" {
            assert_eq!(stats.method_hits, 0, "{kind}: no corrupt record replays");
        }
        // The recomputed result is the correct one, byte for byte.
        let reference = analyze_source(&probed, &options).expect("cold reference");
        assert_eq!(rendered(&recomputed), rendered(&reference), "{kind}");
        // And the recomputation was written behind again, healing the store.
        assert_eq!(stats.store_writes, 1, "{kind}");
        assert_eq!(store.entries(), entries_before + 1, "{kind}");
    }
}

/// The control for the method-tier corruption cases: undamaged, the same
/// restart does replay the leaf's method record.
#[test]
fn restarted_session_replays_method_records_from_the_store() {
    let dir = TempDir::new();
    let options = InferOptions::default();
    let writer = AnalysisSession::new(options)
        .with_store(Arc::new(SummaryStore::open(dir.path()).expect("open")));
    writer.analyze_source(&leaf_root(0)).expect("cold analysis");
    drop(writer);
    let restarted = AnalysisSession::new(options)
        .with_store(Arc::new(SummaryStore::open(dir.path()).expect("reopen")));
    let served = restarted.analyze_source(&leaf_root(7)).expect("analysis");
    assert!(restarted.stats().method_hits >= 1);
    let reference = analyze_source(&leaf_root(7), &options).expect("cold reference");
    assert_eq!(rendered(&served), rendered(&reference));
}

#[test]
fn poisoned_results_persist_across_the_store() {
    // The same overflowing program as tests/session.rs: saturating rational
    // arithmetic poisons the analysis deterministically.
    let huge = i128::MAX / 2 - 7;
    let near = i128::MAX / 3 - 11;
    let source = format!(
        "void main(int x, int y)\n\
         {{ while (x > {near}) {{ x = x - {huge}; y = y + {near}; }} }}"
    );
    let options = InferOptions::default();
    let dir = TempDir::new();

    let writer = AnalysisSession::new(options)
        .with_store(Arc::new(SummaryStore::open(dir.path()).expect("open")));
    let first = writer.analyze_source(&source).expect("analysis succeeds");
    assert!(first.poisoned, "the program must poison its analysis");
    drop(writer);

    let restarted = AnalysisSession::new(options)
        .with_store(Arc::new(SummaryStore::open(dir.path()).expect("reopen")));
    let served = restarted
        .analyze_source(&source)
        .expect("served from store");
    let stats = restarted.stats();
    assert_eq!((stats.store_hits, stats.cache_misses), (1, 0));
    assert!(
        served.poisoned,
        "the poison bit must travel through the on-disk record"
    );
    assert!(served.stats.budget_exhausted);
    assert_ne!(served.program_verdict(), Verdict::Terminating);
    assert_ne!(served.program_verdict(), Verdict::NonTerminating);
    assert_eq!(first.stats.work, served.stats.work);
}

#[test]
fn concurrent_reader_sees_a_live_writers_appends() {
    let dir = TempDir::new();
    let options = InferOptions::default();
    let sources: Vec<String> = (1..=6)
        .map(|n| format!("void main(int x) {{ while (x > 0) {{ x = x - {n}; }} }}"))
        .collect();

    let writer_store = Arc::new(SummaryStore::open(dir.path()).expect("writer open"));
    let writer = AnalysisSession::new(options).with_store(writer_store.clone());
    // The reader opens while the store is still empty (the writer's open has
    // already created the header).
    let reader = SummaryStore::open_read_only(dir.path()).expect("reader open");

    std::thread::scope(|scope| {
        let writer_ref = &writer;
        let sources_ref = &sources;
        let handle = scope.spawn(move || {
            for source in sources_ref {
                writer_ref.analyze_source(source).expect("analysis");
            }
        });

        // Poll the growing log from this thread while the writer appends
        // (program records interleaved with method-tier records).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while reader.entries() < sources.len() {
            assert!(
                std::time::Instant::now() < deadline,
                "reader saw only {}/{} records before timing out",
                reader.entries(),
                sources.len()
            );
            reader.refresh().expect("refresh");
            std::thread::yield_now();
        }
        handle.join().expect("writer thread");
    });

    assert_eq!(reader.entries(), sources.len());
    assert!(
        reader.diagnostics().is_empty(),
        "no torn reads under a live writer"
    );
    // Everything the reader indexed decodes and matches the writer's session.
    let checker = AnalysisSession::new(options).with_store(Arc::new(reader));
    for source in &sources {
        let served = checker.analyze_source(source).expect("served");
        let original = writer.analyze_source(source).expect("memory hit");
        assert_eq!(served.stats.work, original.stats.work);
        for (label, summary) in &original.summaries {
            assert_eq!(summary.render(), served.summaries[label].render());
        }
    }
    assert_eq!(checker.stats().cache_misses, 0);
    let _ = writer_store.diagnostics();
}

/// A session holds exactly one options profile, so profile isolation lives at
/// the store: two sessions with different `InferOptions` over one store
/// directory never serve each other's records, at the program or the method
/// tier, and each profile's summaries stay byte-identical to a cold
/// `analyze_source` under that profile.
#[test]
fn option_profiles_sharing_a_store_never_serve_each_other() {
    let dir = TempDir::new();
    let sources = [
        "void main(int x) { while (x > 0) { x = x - 1; } }",
        "void main(int x) { while (x >= 0) { x = x + 1; } }",
        "void foo(int x, int y) { if (x < 0) { return; } else { foo(x + y, y); } }\n\
         void main(int x, int y) { foo(x, y); }",
    ];
    let defaults = InferOptions::default();
    let no_split = InferOptions {
        enable_case_split: false,
        validate: false,
        ..InferOptions::default()
    };
    assert_ne!(defaults.fingerprint(), no_split.fingerprint());
    let run = |options: InferOptions| {
        let session = AnalysisSession::new(options).with_store(Arc::new(
            SummaryStore::open(dir.path()).expect("open store"),
        ));
        let entries = session.analyze_batch_with(&sources, 1);
        (entries, session.stats())
    };

    let (first, first_stats) = run(defaults);
    assert_eq!(first_stats.store_writes, sources.len() as u64);
    let (second, second_stats) = run(no_split);
    assert_eq!(
        (second_stats.store_hits, second_stats.method_hits),
        (0, 0),
        "a different profile must not be served the first profile's records"
    );
    assert!(second.iter().all(|entry| entry.tier.is_none()));
    // The store does serve each profile its own records.
    let (again, again_stats) = run(defaults);
    assert_eq!(again_stats.store_hits, sources.len() as u64);

    for (options, entries) in [(defaults, &first), (no_split, &second), (defaults, &again)] {
        for (source, entry) in sources.iter().zip(entries) {
            let cold = analyze_source(source, &options).expect("cold analysis");
            assert_eq!(fingerprint(entry), rendered(&cold), "{source}");
        }
    }
    // The profiles really differ on the conditional program, so a cross-profile
    // hit could not have gone unnoticed.
    assert_ne!(fingerprint(&first[2]), fingerprint(&second[2]));
}
