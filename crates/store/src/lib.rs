//! # tnt-store
//!
//! An append-only, content-addressed, on-disk store for inferred termination
//! summaries — the persistence tier behind [`tnt_infer::AnalysisSession`]'s
//! in-memory cache (ROADMAP: "Persistent store & tnt-serve").
//!
//! Summaries are pure functions of a method's canonical form, so the store is
//! keyed by the session's existing 128-bit [`ProgramKey`] (canonical program
//! text ⊕ options fingerprint) and never invalidated. The file layout is a
//! single log, `summaries.tnt`:
//!
//! ```text
//! header   "TNTSUM04"                                  (8 bytes)
//! record   "TR" ++ len:u32le ++ payload ++ fnv1a64(payload):u64le
//! payload  key:16B ++ fingerprint_hash:u64le ++ encoded AnalysisResult
//! method   "MR" ++ len:u32le ++ payload ++ fnv1a64(payload):u64le
//! payload  method_key:16B ++ fingerprint_hash:u64le ++ encoded MethodRecord
//! ```
//!
//! Both record kinds share one frame layout and one code path: one scan, one
//! index (by kind, then key), one load and one store body.
//!
//! A file with any other header — including an older layout version — is
//! rejected as "not a summary store" and left untouched.
//!
//! ## Crash safety
//!
//! Records are immutable and strictly appended, so the only corruption a crash
//! can introduce is a partial record at the tail. Every record carries a
//! checksum over its payload, so a torn write is *detected*, never decoded:
//!
//! * a writer ([`SummaryStore::open`]) truncates a torn/garbage tail back to
//!   the last record boundary (with a diagnostic) and resumes appending;
//! * a reader ([`SummaryStore::open_read_only`]) simply stops its scan at the
//!   incomplete tail — an in-flight append by a live writer looks exactly the
//!   same — and picks up the completed record on the next [`refresh`].
//! * a checksum-bad record *between* well-framed neighbours is skipped with a
//!   diagnostic and never served; the probe degrades to a recomputation.
//!
//! A corrupt record therefore costs at most one recomputed analysis; it can
//! never surface as a wrong or missing summary.
//!
//! [`refresh`]: SummaryStore::refresh

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use tnt_infer::{AnalysisResult, MethodKey, MethodRecord, ProgramKey, SummaryBackend};

/// The store file inside the store directory.
pub const STORE_FILE: &str = "summaries.tnt";

/// File magic: format name + version. Bump on any layout change.
/// (02: `SolveStats` gained the orbit-enrichment attempt/work counters.
/// 03: tagged `MR` method-tier records alongside `TR` program records.
/// 04: `MR` events lost their separate pivot count; their work is the one
/// unit the budget and the deadline share.)
pub const HEADER: &[u8; 8] = b"TNTSUM04";

/// Per-record frame magic, indexed by record kind: `TR` for program-tier
/// records ([`PROGRAM`]), `MR` for method-tier records ([`METHOD`]). Both
/// kinds share one frame layout; the magic is also a cheap framing sanity
/// check when skipping a checksum-bad record.
const MAGICS: [&[u8; 2]; 2] = [b"TR", b"MR"];

/// Record kind of an [`AnalysisResult`] keyed by [`ProgramKey`].
const PROGRAM: usize = 0;

/// Record kind of a [`MethodRecord`] keyed by [`MethodKey`].
const METHOD: usize = 1;

/// The record kind whose magic starts `rest`, if any.
fn kind_of(rest: &[u8]) -> Option<usize> {
    MAGICS.iter().position(|magic| rest.starts_with(*magic))
}

/// Frame overhead around a payload: magic (2) + length (4) + checksum (8).
const FRAME_OVERHEAD: usize = 2 + 4 + 8;

/// Payload prefix ahead of the encoded result: key (16) + fingerprint hash (8).
const PAYLOAD_PREFIX: usize = 16 + 8;

/// Upper bound on a single record payload — far above any real summary, low
/// enough that a corrupt length field cannot drive a giant allocation.
const MAX_PAYLOAD: usize = 64 << 20;

/// FNV-1a over `bytes` — the per-record checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Location of one record's payload inside the store file.
#[derive(Clone, Copy, Debug)]
struct IndexEntry {
    fingerprint_hash: u64,
    /// Offset of the payload (after the frame magic and length).
    payload_offset: u64,
    payload_len: u32,
}

/// Why a scan over the log stopped.
#[derive(Debug, PartialEq, Eq)]
enum ScanStop {
    /// The log ends exactly at a record boundary.
    CleanEnd,
    /// The tail is an incomplete record starting at the given offset — a torn
    /// write (after a crash) or an append in flight (under a live writer).
    Truncated(u64),
    /// Bytes at the given offset are not a record frame at all.
    BadFraming(u64),
}

struct ScanResult {
    /// `(kind, key, entry)` of every well-framed record, in log order.
    records: Vec<(usize, [u8; 16], IndexEntry)>,
    /// One past the last well-framed record.
    end: u64,
    stop: ScanStop,
    diagnostics: Vec<String>,
}

/// Scans records in `buf` (the file contents from offset `base` on) without
/// decoding results; checksums are verified and bad records skipped.
fn scan_records(buf: &[u8], base: u64) -> ScanResult {
    let mut records = Vec::new();
    let mut diagnostics = Vec::new();
    let mut pos = 0usize;
    let stop = loop {
        if pos == buf.len() {
            break ScanStop::CleanEnd;
        }
        let at = base + pos as u64;
        let rest = &buf[pos..];
        if rest.len() < 2 {
            break ScanStop::Truncated(at);
        }
        let Some(kind) = kind_of(rest) else {
            break ScanStop::BadFraming(at);
        };
        if rest.len() < 6 {
            break ScanStop::Truncated(at);
        }
        let len = u32::from_le_bytes(rest[2..6].try_into().expect("4 bytes")) as usize;
        if len > MAX_PAYLOAD {
            // A length this large is corruption, not a record in flight.
            break ScanStop::BadFraming(at);
        }
        if rest.len() < 6 + len + 8 {
            break ScanStop::Truncated(at);
        }
        let payload = &rest[6..6 + len];
        let stored_sum = u64::from_le_bytes(rest[6 + len..6 + len + 8].try_into().expect("8"));
        let next = pos + 6 + len + 8;
        let framed_next = next == buf.len() || kind_of(&buf[next..]).is_some();
        let ok = fnv1a(payload) == stored_sum && len >= PAYLOAD_PREFIX;
        if !ok {
            if !framed_next {
                // The "record" and its successor are both implausible: this is
                // not a skippable bad record but wrecked framing.
                break ScanStop::BadFraming(at);
            }
            diagnostics.push(format!(
                "store: skipping corrupt record at offset {at} ({len}-byte payload failed its checksum); the summary will be recomputed"
            ));
            pos = next;
            continue;
        }
        let key: [u8; 16] = payload[..16].try_into().expect("16");
        let fingerprint_hash = u64::from_le_bytes(payload[16..24].try_into().expect("8"));
        let entry = IndexEntry {
            fingerprint_hash,
            payload_offset: at + 6,
            payload_len: len as u32,
        };
        records.push((kind, key, entry));
        pos = next;
    };
    ScanResult {
        records,
        end: base + pos as u64,
        stop,
        diagnostics,
    }
}

/// Record locations by kind ([`PROGRAM`], [`METHOD`]), then raw key bytes.
type Index = [HashMap<[u8; 16], IndexEntry>; 2];

/// Indexes scanned records by kind and key. First record wins: the writer
/// never appends a key twice, so a duplicate implies an anomaly; serving the
/// earliest keeps replay deterministic.
fn index_records(index: &mut Index, records: Vec<(usize, [u8; 16], IndexEntry)>) {
    for (kind, key, entry) in records {
        index[kind].entry(key).or_insert(entry);
    }
}

struct Inner {
    file: File,
    index: Index,
    /// One past the last well-framed record — where the writer appends and the
    /// reader's [`SummaryStore::refresh`] resumes scanning.
    end: u64,
    diagnostics: Vec<String>,
}

impl Inner {
    /// Reads and re-verifies one indexed frame: the returned buffer holds the
    /// payload followed by its 8-byte checksum.
    fn read_frame(&mut self, entry: IndexEntry) -> Result<Vec<u8>, String> {
        let len = entry.payload_len as usize;
        let mut frame = vec![0u8; len + 8];
        self.file
            .seek(SeekFrom::Start(entry.payload_offset))
            .and_then(|_| self.file.read_exact(&mut frame))
            .map_err(|err| {
                format!(
                    "store: read of record at offset {} failed ({err}); the summary will be recomputed",
                    entry.payload_offset
                )
            })?;
        let stored_sum = u64::from_le_bytes(frame[len..].try_into().expect("8"));
        if fnv1a(&frame[..len]) != stored_sum {
            return Err(format!(
                "store: record at offset {} failed its checksum on re-read; the summary will be recomputed",
                entry.payload_offset
            ));
        }
        Ok(frame)
    }
}

/// A value the store persists: its record kind and its codec.
trait Record: Sized {
    const KIND: usize;
    fn encode(&self) -> Vec<u8>;
    fn decode(bytes: &[u8]) -> Result<Self, codec::DecodeError>;
}

impl Record for AnalysisResult {
    const KIND: usize = PROGRAM;
    fn encode(&self) -> Vec<u8> {
        codec::encode_result(self)
    }
    fn decode(bytes: &[u8]) -> Result<Self, codec::DecodeError> {
        codec::decode_result(bytes)
    }
}

impl Record for MethodRecord {
    const KIND: usize = METHOD;
    fn encode(&self) -> Vec<u8> {
        codec::encode_method_record(self)
    }
    fn decode(bytes: &[u8]) -> Result<Self, codec::DecodeError> {
        codec::decode_method_record(bytes)
    }
}

/// An append-only, content-addressed summary store over one directory.
///
/// Open with [`SummaryStore::open`] (single writer; repairs a torn tail) or
/// [`SummaryStore::open_read_only`] (any number of concurrent readers; never
/// writes). The store implements [`SummaryBackend`], so it plugs directly into
/// [`tnt_infer::AnalysisSession::with_store`].
pub struct SummaryStore {
    path: PathBuf,
    writable: bool,
    inner: Mutex<Inner>,
}

impl SummaryStore {
    /// Opens (creating if necessary) the store in `dir` for reading *and*
    /// appending. A torn or garbage tail left by a crashed writer is truncated
    /// back to the last record boundary, with a diagnostic.
    ///
    /// The store assumes a single writer per directory; run concurrent
    /// processes with at most one `open` and any number of
    /// [`open_read_only`](SummaryStore::open_read_only) handles.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<SummaryStore> {
        SummaryStore::open_mode(dir.as_ref(), true)
    }

    /// Opens an existing store in `dir` for reading only. Never modifies the
    /// file; an incomplete tail record (a writer's append in flight, or a torn
    /// write) is simply not served until a later [`refresh`](Self::refresh)
    /// finds it completed.
    pub fn open_read_only(dir: impl AsRef<Path>) -> io::Result<SummaryStore> {
        SummaryStore::open_mode(dir.as_ref(), false)
    }

    fn open_mode(dir: &Path, writable: bool) -> io::Result<SummaryStore> {
        if writable {
            std::fs::create_dir_all(dir)?;
        }
        let path = dir.join(STORE_FILE);
        let mut file = if writable {
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                // Never truncate wholesale: existing records are the point of
                // the store. Torn tails are trimmed surgically below.
                .truncate(false)
                .open(&path)?
        } else {
            File::open(&path)?
        };
        let mut diagnostics = Vec::new();

        // Header: written fresh by a writer on an empty file, required intact
        // otherwise. A file shorter than the header is a torn first write.
        let file_len = file.metadata()?.len();
        let mut header = [0u8; 8];
        if file_len < HEADER.len() as u64 {
            if !writable {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: missing or torn store header", path.display()),
                ));
            }
            if file_len > 0 {
                diagnostics.push(format!(
                    "store: discarding {file_len}-byte torn header in {}",
                    path.display()
                ));
            }
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(HEADER)?;
            file.flush()?;
        } else {
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut header)?;
            if &header != HEADER {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: not a summary store (bad magic {header:02x?})",
                        path.display()
                    ),
                ));
            }
        }

        let base = HEADER.len() as u64;
        let mut buf = Vec::new();
        file.seek(SeekFrom::Start(base))?;
        file.read_to_end(&mut buf)?;
        let scan = scan_records(&buf, base);
        diagnostics.extend(scan.diagnostics);
        match scan.stop {
            ScanStop::CleanEnd => {}
            ScanStop::Truncated(at) | ScanStop::BadFraming(at) if writable => {
                let dropped = base + buf.len() as u64 - at;
                diagnostics.push(format!(
                    "store: truncating {dropped} unrecoverable trailing bytes at offset {at} (torn or corrupt tail)"
                ));
                file.set_len(at)?;
            }
            ScanStop::Truncated(_) => {
                // Read-only: indistinguishable from a live writer's append in
                // flight; not a diagnostic. refresh() will retry.
            }
            ScanStop::BadFraming(at) => {
                diagnostics.push(format!(
                    "store: unreadable bytes at offset {at}; records beyond them are ignored"
                ));
            }
        }

        let mut index = Index::default();
        index_records(&mut index, scan.records);
        Ok(SummaryStore {
            path,
            writable,
            inner: Mutex::new(Inner {
                file,
                index,
                end: scan.end,
                diagnostics,
            }),
        })
    }

    /// The store file this handle reads (and, for writers, appends to).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of distinct keys currently served.
    pub fn entries(&self) -> usize {
        self.inner.lock().unwrap().index[PROGRAM].len()
    }

    /// Number of distinct method-tier keys currently served.
    pub fn method_entries(&self) -> usize {
        self.inner.lock().unwrap().index[METHOD].len()
    }

    /// Drains accumulated diagnostics (corrupt records skipped, torn tails
    /// truncated, IO errors). Empty in the happy path.
    pub fn diagnostics(&self) -> Vec<String> {
        std::mem::take(&mut self.inner.lock().unwrap().diagnostics)
    }

    /// Re-scans the log past the last known record boundary, indexing records
    /// appended by a concurrent writer since open (or the previous refresh).
    /// Returns the number of newly indexed records.
    pub fn refresh(&self) -> io::Result<usize> {
        let mut inner = self.inner.lock().unwrap();
        let base = inner.end;
        let mut buf = Vec::new();
        inner.file.seek(SeekFrom::Start(base))?;
        inner.file.read_to_end(&mut buf)?;
        if buf.is_empty() {
            return Ok(0);
        }
        let scan = scan_records(&buf, base);
        let found = scan.records.len();
        index_records(&mut inner.index, scan.records);
        inner.end = scan.end;
        inner.diagnostics.extend(scan.diagnostics);
        if let ScanStop::BadFraming(at) = scan.stop {
            inner.diagnostics.push(format!(
                "store: unreadable bytes at offset {at}; records beyond them are ignored"
            ));
        }
        Ok(found)
    }

    /// Loads the record of kind `R` under `key`. A fingerprint mismatch is a
    /// miss with a diagnostic; an unreadable or undecodable record is
    /// de-indexed (so the cost is paid once) and is a miss as well.
    fn load_record<R: Record>(&self, key: [u8; 16], fingerprint_hash: u64) -> Option<R> {
        let mut inner = self.inner.lock().unwrap();
        let entry = *inner.index[R::KIND].get(&key)?;
        if entry.fingerprint_hash != fingerprint_hash {
            inner.diagnostics.push(format!(
                "store: {} record for key {:032x} carries options fingerprint {:#018x}, expected {fingerprint_hash:#018x}; treating as a miss",
                MAGICS[R::KIND].escape_ascii(),
                u128::from_le_bytes(key),
                entry.fingerprint_hash
            ));
            return None;
        }
        let decoded = inner.read_frame(entry).and_then(|frame| {
            R::decode(&frame[PAYLOAD_PREFIX..entry.payload_len as usize]).map_err(|err| {
                format!(
                    "store: record at offset {} is undecodable ({err}); the summary will be recomputed",
                    entry.payload_offset
                )
            })
        });
        match decoded {
            Ok(record) => Some(record),
            Err(diagnostic) => {
                inner.diagnostics.push(diagnostic);
                inner.index[R::KIND].remove(&key);
                None
            }
        }
    }

    /// Appends `record` as one frame (`magic ++ len ++ key ++ fp_hash ++
    /// encoded ++ checksum`) at the tracked record boundary and indexes it.
    /// Returns `false` on a read-only handle, when the key is already present
    /// (records are deterministic, so a rewrite would only duplicate it), or
    /// when the write failed (with a diagnostic).
    fn store_record<R: Record>(&self, key: [u8; 16], fingerprint_hash: u64, record: &R) -> bool {
        if !self.writable {
            return false;
        }
        let mut inner = self.inner.lock().unwrap();
        if inner.index[R::KIND].contains_key(&key) {
            return false;
        }
        let encoded = record.encode();
        let payload_len = PAYLOAD_PREFIX + encoded.len();
        let mut frame = Vec::with_capacity(payload_len + FRAME_OVERHEAD);
        frame.extend_from_slice(MAGICS[R::KIND]);
        frame.extend_from_slice(&(payload_len as u32).to_le_bytes());
        frame.extend_from_slice(&key);
        frame.extend_from_slice(&fingerprint_hash.to_le_bytes());
        frame.extend_from_slice(&encoded);
        let checksum = fnv1a(&frame[6..]);
        frame.extend_from_slice(&checksum.to_le_bytes());

        // Append at the tracked record boundary, not the file cursor (loads
        // seek the same handle). If the write tears (IO error, crash), the
        // checksum brands the tail corrupt and the next writer-open truncates
        // it — the index is only updated after a complete, flushed frame.
        let end = inner.end;
        let write = inner
            .file
            .seek(SeekFrom::Start(end))
            .and_then(|_| inner.file.write_all(&frame))
            .and_then(|_| inner.file.flush());
        if let Err(err) = write {
            inner.diagnostics.push(format!(
                "store: append to {} failed ({err}); the result was not persisted",
                self.path.display()
            ));
            return false;
        }
        inner.end = end + frame.len() as u64;
        inner.index[R::KIND].insert(
            key,
            IndexEntry {
                fingerprint_hash,
                payload_offset: end + 6,
                payload_len: payload_len as u32,
            },
        );
        true
    }
}

impl SummaryBackend for SummaryStore {
    fn load(&self, key: &ProgramKey, fingerprint_hash: u64) -> Option<AnalysisResult> {
        self.load_record(key.to_bytes(), fingerprint_hash)
    }

    fn store(&self, key: &ProgramKey, fingerprint_hash: u64, result: &AnalysisResult) -> bool {
        self.store_record(key.to_bytes(), fingerprint_hash, result)
    }

    fn load_method(&self, key: &MethodKey, fingerprint_hash: u64) -> Option<MethodRecord> {
        self.load_record(key.to_bytes(), fingerprint_hash)
    }

    fn store_method(&self, key: &MethodKey, fingerprint_hash: u64, record: &MethodRecord) -> bool {
        self.store_record(key.to_bytes(), fingerprint_hash, record)
    }

    fn take_diagnostics(&self) -> Vec<String> {
        self.diagnostics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tnt_infer::solve::SolveStats;

    /// A unique scratch directory per test, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> TempDir {
            static COUNTER: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "tnt-store-test-{}-{}",
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

    fn sample_result(work: u64, poisoned: bool) -> AnalysisResult {
        AnalysisResult {
            summaries: BTreeMap::new(),
            stats: SolveStats {
                iterations: 1,
                case_splits: 0,
                ranking_attempts: 2,
                nonterm_attempts: 0,
                orbit_attempts: 0,
                work,
                orbit_work: 0,
                budget_exhausted: poisoned,
            },
            validated: !poisoned,
            poisoned,
            elapsed: 0.5,
        }
    }

    fn key(n: u64) -> ProgramKey {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&n.to_le_bytes());
        bytes[8..].copy_from_slice(&(!n).to_le_bytes());
        ProgramKey::from_bytes(bytes)
    }

    #[test]
    fn store_load_round_trip_and_reopen() {
        let dir = TempDir::new();
        let store = SummaryStore::open(dir.path()).expect("open");
        assert!(store.store(&key(1), 7, &sample_result(100, false)));
        assert!(store.store(&key(2), 7, &sample_result(200, true)));
        // Re-storing an existing key is a no-op.
        assert!(!store.store(&key(1), 7, &sample_result(999, false)));
        assert_eq!(store.entries(), 2);
        let hit = store.load(&key(1), 7).expect("hit");
        assert_eq!(hit.stats.work, 100);
        assert!(!hit.poisoned);
        // Fingerprint mismatch is a miss with a diagnostic, never a wrong hit.
        assert!(store.load(&key(1), 8).is_none());
        assert!(!store.diagnostics().is_empty());
        drop(store);

        let reread = SummaryStore::open_read_only(dir.path()).expect("reopen");
        assert_eq!(reread.entries(), 2);
        let poisoned = reread.load(&key(2), 7).expect("hit");
        assert!(poisoned.poisoned);
        assert_eq!(poisoned.stats.work, 200);
        assert!(reread.diagnostics().is_empty());
        // A read-only handle refuses writes.
        assert!(!reread.store(&key(3), 7, &sample_result(1, false)));
    }

    #[test]
    fn torn_tail_is_truncated_by_writer_and_ignored_by_reader() {
        let dir = TempDir::new();
        let store = SummaryStore::open(dir.path()).expect("open");
        assert!(store.store(&key(1), 7, &sample_result(100, false)));
        let path = store.path().to_path_buf();
        drop(store);

        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a torn append: a frame header with only half its payload.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"TR").unwrap();
        file.write_all(&1000u32.to_le_bytes()).unwrap();
        file.write_all(&[0xAA; 40]).unwrap();
        drop(file);

        let reader = SummaryStore::open_read_only(dir.path()).expect("reader");
        assert_eq!(reader.entries(), 1);
        assert!(reader.load(&key(1), 7).is_some());
        // In-flight-looking tails are not worth a diagnostic for readers.
        assert!(reader.diagnostics().is_empty());

        let writer = SummaryStore::open(dir.path()).expect("writer");
        assert_eq!(writer.entries(), 1);
        let diags = writer.diagnostics();
        assert!(
            diags.iter().any(|d| d.contains("truncating")),
            "expected a truncation diagnostic, got {diags:?}"
        );
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        // The repaired store keeps accepting appends.
        assert!(writer.store(&key(2), 7, &sample_result(50, false)));
        assert!(writer.load(&key(2), 7).is_some());
    }

    /// Runs over both record kinds: a corrupt `MR` frame is skipped exactly
    /// like a corrupt `TR` frame.
    #[test]
    fn checksum_bad_record_is_skipped_but_neighbours_survive() {
        checksum_bad_middle_record(|n| sample_result(n, false));
        checksum_bad_middle_record(|n| MethodRecord {
            methods: vec![format!("m{n}")],
            ..sample_method_record()
        });
    }

    /// Stores three records of kind `R`, flips a byte inside the middle
    /// record's payload, and checks that only that record is lost.
    fn checksum_bad_middle_record<R: Record>(make: impl Fn(u64) -> R) {
        let dir = TempDir::new();
        let store = SummaryStore::open(dir.path()).expect("open");
        let raw = |n: u64| key(n).to_bytes();
        assert!(store.store_record(raw(1), 7, &make(1)));
        let first_end = std::fs::metadata(store.path()).unwrap().len();
        assert!(store.store_record(raw(2), 7, &make(2)));
        assert!(store.store_record(raw(3), 7, &make(3)));
        let path = store.path().to_path_buf();
        drop(store);

        // Flip a byte inside the middle record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = first_end as usize + 6 + 30;
        bytes[target] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let reread = SummaryStore::open(dir.path()).expect("reopen");
        assert_eq!(reread.inner.lock().unwrap().index[R::KIND].len(), 2);
        let load = |n: u64| reread.load_record::<R>(raw(n), 7).map(|r| r.encode());
        assert_eq!(load(1), Some(make(1).encode()));
        assert!(load(2).is_none(), "corrupt record must miss");
        assert_eq!(
            load(3),
            Some(make(3).encode()),
            "record after the corrupt one survives"
        );
        let diags = reread.diagnostics();
        assert!(
            diags.iter().any(|d| d.contains("corrupt record")),
            "expected a skip diagnostic, got {diags:?}"
        );
        // A record under the right key but another profile's fingerprint is
        // a miss with a diagnostic, never a wrong hit.
        assert!(reread.load_record::<R>(raw(1), 8).is_none());
        let diags = reread.diagnostics();
        assert!(diags.iter().any(|d| d.contains("fingerprint")), "{diags:?}");
        // The miss is recoverable: recomputation re-persists under a fresh log
        // position (the corrupt record stays dead weight, never served).
        assert!(reread.store_record(raw(2), 7, &make(2)));
        assert_eq!(load(2), Some(make(2).encode()));
    }

    #[test]
    fn reader_refresh_sees_concurrent_appends() {
        let dir = TempDir::new();
        let writer = SummaryStore::open(dir.path()).expect("writer");
        assert!(writer.store(&key(1), 7, &sample_result(100, false)));
        let reader = SummaryStore::open_read_only(dir.path()).expect("reader");
        assert_eq!(reader.entries(), 1);
        assert!(writer.store(&key(2), 7, &sample_result(200, false)));
        assert!(reader.load(&key(2), 7).is_none(), "not yet refreshed");
        assert_eq!(reader.refresh().expect("refresh"), 1);
        assert_eq!(reader.load(&key(2), 7).unwrap().stats.work, 200);
        assert_eq!(reader.refresh().expect("refresh"), 0);
    }

    fn sample_method_record() -> MethodRecord {
        use tnt_infer::{CaseSnapshot, CaseStatus, EventRecord, RootRecord};
        MethodRecord {
            methods: vec!["leaf".to_string()],
            roots: vec![RootRecord {
                root: "Upr_leaf#0".to_string(),
                cases: vec![
                    CaseSnapshot {
                        guard: tnt_logic::Formula::True,
                        base: true,
                    },
                    CaseSnapshot {
                        guard: tnt_logic::Formula::False,
                        base: false,
                    },
                ],
            }],
            events: vec![EventRecord {
                members: vec![("Upr_leaf#0".to_string(), 1)],
                outcomes: vec![("Upr_leaf#0".to_string(), 1, CaseStatus::Loop)],
                work: 42,
                ranking_attempts: 3,
                nonterm_attempts: 1,
            }],
        }
    }

    fn method_key(n: u64) -> MethodKey {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&n.to_le_bytes());
        bytes[8..].copy_from_slice(&(!n).to_le_bytes());
        MethodKey::from_bytes(bytes)
    }

    #[test]
    fn method_records_round_trip_and_interleave_with_program_records() {
        let dir = TempDir::new();
        let store = SummaryStore::open(dir.path()).expect("open");
        assert!(store.store(&key(1), 7, &sample_result(100, false)));
        let record = sample_method_record();
        assert!(store.store_method(&method_key(9), 7, &record));
        // Re-storing an existing method key is a no-op.
        assert!(!store.store_method(&method_key(9), 7, &record));
        assert!(store.store(&key(2), 7, &sample_result(200, false)));
        assert_eq!((store.entries(), store.method_entries()), (2, 1));
        assert_eq!(store.load_method(&method_key(9), 7), Some(record.clone()));
        // Fingerprint mismatch is a miss with a diagnostic, never a wrong hit.
        assert!(store.load_method(&method_key(9), 8).is_none());
        assert!(!store.diagnostics().is_empty());
        drop(store);

        // Both record kinds survive a reopen, interleaved in one log.
        let reread = SummaryStore::open_read_only(dir.path()).expect("reopen");
        assert_eq!((reread.entries(), reread.method_entries()), (2, 1));
        assert_eq!(reread.load_method(&method_key(9), 7), Some(record));
        assert!(reread.load(&key(2), 7).is_some());
        // A read-only handle refuses method writes too.
        assert!(!reread.store_method(&method_key(10), 7, &sample_method_record()));
    }

    #[test]
    fn v2_store_is_rejected_and_left_byte_identical() {
        let dir = TempDir::new();
        let store = SummaryStore::open(dir.path()).expect("open");
        assert!(store.store(&key(1), 7, &sample_result(100, false)));
        let path = store.path().to_path_buf();
        drop(store);

        // Regress the header to each retired layout version.
        for retired in [b"TNTSUM02", b"TNTSUM03"] {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[..8].copy_from_slice(retired);
            std::fs::write(&path, &bytes).unwrap();

            // Readers and writers alike refuse it like any unknown magic…
            for opened in [
                SummaryStore::open_read_only(dir.path()),
                SummaryStore::open(dir.path()),
            ] {
                let message = opened.err().expect("retired header rejected").to_string();
                assert!(message.contains("not a summary store"), "{message}");
            }
            // …and neither rewrites a single byte.
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
        }
    }

    #[test]
    fn reader_refresh_sees_concurrent_method_appends() {
        let dir = TempDir::new();
        let writer = SummaryStore::open(dir.path()).expect("writer");
        let reader = SummaryStore::open_read_only(dir.path()).expect("reader");
        assert!(writer.store_method(&method_key(9), 7, &sample_method_record()));
        assert!(reader.load_method(&method_key(9), 7).is_none());
        assert_eq!(reader.refresh().expect("refresh"), 1);
        assert!(reader.load_method(&method_key(9), 7).is_some());
    }

    #[test]
    fn garbage_file_is_rejected_not_misread() {
        let dir = TempDir::new();
        std::fs::write(dir.path().join(STORE_FILE), b"definitely not a store").unwrap();
        assert!(SummaryStore::open(dir.path()).is_err());
        assert!(SummaryStore::open_read_only(dir.path()).is_err());
    }
}
